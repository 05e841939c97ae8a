//! The decoders are total: whatever bytes a frame holds,
//! `Request::decode` and `Response::decode` return — `Ok` or `Err`, never
//! a panic, an overflow or an allocation sized by a damaged count.
//!
//! The corpus is the encoding of one request and one response of every
//! variant, damaged by seeded bit flips, byte overwrites, truncations and
//! `0xFF` runs, plus random payloads — 600,000 frames, each through both
//! decoders. A failure replays from the seed below.

mod common;

use common::{damage, random_bytes};
use pls_core::{Membership, Message, StrategySpec, Tombstone};
use pls_net::DetRng;
use pls_telemetry::{Histogram, MetricsSnapshot, SpanRecord};
use pls_wire::proto::{Request, Response};
use pls_wire::shard::Digest;
use pls_wire::storage::KeySnapshot;

const SEED: u64 = 0x18DE_C0DE;
const MUTATION_ROUNDS: usize = 16_000;
const RANDOM_FRAMES: usize = 200_000;

fn requests() -> Vec<Request> {
    let key = b"song/stairway".to_vec();
    let entry = b"peer1.example.org:6699".to_vec();
    vec![
        Request::Place {
            key: key.clone(),
            entries: vec![entry.clone(), b"peer2:6699".to_vec(), Vec::new()],
            spec: Some(StrategySpec::round_robin(2)),
        },
        Request::Add { key: key.clone(), entry: entry.clone() },
        Request::Delete { key: key.clone(), entry: entry.clone() },
        Request::Probe { key: key.clone(), t: 35 },
        Request::Internal {
            from: 3,
            key: key.clone(),
            spec: Some(StrategySpec::fixed(20)),
            msg: Message::Versioned {
                version: 99,
                stamp_ms: 1_700_000_000_000,
                msg: Box::new(Message::MigrateRep {
                    v: entry.clone(),
                    dest_pos: 9,
                    replacement: Some(b"peer9:6699".to_vec()),
                }),
            },
        },
        Request::Status,
        Request::Keys,
        Request::Snapshot { key: key.clone() },
        Request::SpecOf { key: key.clone() },
        Request::Metrics { reset: true },
        Request::Trace { req: 0xDEAD_BEEF },
        Request::Digest { key },
        Request::Membership(Membership::from_parts(
            7,
            vec![(0, "10.0.0.1:7000".into()), (3, "10.0.0.4:7000".into())],
        )),
        Request::JoinLeave { join: Some("10.0.0.9:7000".into()), leave: Some(2) },
    ]
}

fn responses() -> Vec<Response> {
    let entry = b"peer1.example.org:6699".to_vec();
    let hist = Histogram::new();
    hist.observe(3);
    hist.observe(1 << 20);
    let mut snap = MetricsSnapshot::new();
    snap.push_counter("pls_requests_total{op=\"probe\"}", 42);
    snap.push_gauge("pls_live_unfairness", 0.375);
    snap.push_histogram("pls_request_latency_us", hist.snapshot());
    vec![
        Response::Ok,
        Response::Entries(vec![entry.clone(), b"peer2:6699".to_vec()]),
        Response::Status { keys: 3, entries: 999 },
        Response::Error("not the coordinator".into()),
        Response::Keys(vec![b"a".to_vec(), b"bb".to_vec()]),
        Response::Snapshot(Some(KeySnapshot {
            key: b"song/stairway".to_vec(),
            spec: StrategySpec::round_robin(2),
            entries: vec![entry.clone(), b"b".to_vec()],
            positions: vec![(3, entry.clone())],
            counters: Some((1, 9)),
            version: 17,
            tombstones: vec![(b"gone".to_vec(), Tombstone { version: 12, born_ms: 1_700 })],
        })),
        Response::Snapshot(None),
        Response::SpecOf(Some(StrategySpec::hash(3))),
        Response::Metrics(snap),
        Response::Spans(vec![SpanRecord {
            req_id: Some(42),
            name: "probe".into(),
            target: "pls_cluster::server".into(),
            start_us: 1_700_000_000_000_000,
            elapsed_us: 1234,
            fields: vec![("server".into(), "2".into())],
        }]),
        Response::Digest(Some(Digest {
            spec: StrategySpec::random_server(5),
            count: 17,
            entry_hash: 0xDEAD_BEEF_DEAD_BEEF,
            positions_hash: u64::MAX,
            version: 42,
            counters: Some((4, 21)),
        })),
        Response::Digest(None),
        Response::Membership(Membership::from_parts(
            42,
            vec![(1, "x:1".into()), (9, "y:2".into())],
        )),
    ]
}

/// Both decoders over one payload; how many of the two accepted it.
fn decode_both(payload: &[u8]) -> usize {
    usize::from(Request::decode(payload).is_ok()) + usize::from(Response::decode(payload).is_ok())
}

#[test]
fn damaged_and_random_frames_never_panic_a_decoder() {
    let requests = requests();
    let responses = responses();
    let mut corpus = Vec::new();
    for req in &requests {
        let payload = req.encode();
        assert_eq!(Request::decode(&payload).as_ref(), Ok(req));
        corpus.push(payload);
    }
    for resp in &responses {
        let payload = resp.encode();
        assert_eq!(Response::decode(&payload).as_ref(), Ok(resp));
        corpus.push(payload);
    }
    assert_eq!(corpus.len(), 14 + 13, "one frame per variant, and the `None` answers");

    let mut rng = DetRng::seed_from(SEED);
    let (mut frames, mut accepted) = (0usize, 0usize);
    for _ in 0..MUTATION_ROUNDS {
        for clean in &corpus {
            let mut frame = clean.clone();
            damage(&mut rng, &mut frame);
            accepted += decode_both(&frame);
            frames += 1;
        }
    }
    for _ in 0..RANDOM_FRAMES {
        let len = rng.below(256);
        let mut frame = random_bytes(&mut rng, len);
        // Half the random frames start with an opcode some variant
        // owns, so the decoders get past their first byte.
        if !frame.is_empty() && rng.coin_flip(0.5) {
            frame[0] = corpus[rng.below(corpus.len())][0];
        }
        accepted += decode_both(&frame);
        frames += 1;
    }
    assert!(frames >= 500_000, "{frames} frames");
    // The damage is neither always fatal nor always harmless: a flipped
    // bit inside an entry still decodes, a truncation does not.
    assert!(accepted > frames / 100 && accepted < frames, "{accepted} of {frames} accepted");
}
