//! Allocations per `decode` and per `encode` of the two frames a lookup
//! is made of: the `Probe` request and an `Entries` response of 35
//! entries of 27 bytes (`lookup-merge`'s `t`, and its entry size behind
//! the benchmark's `key_entry`).
//!
//! Decoding allocates what it returns and nothing else — the key; the
//! list and its 35 entries. Encoding allocates the `Writer`'s buffer:
//! once for a frame under its 64 starting bytes, and once more per
//! doubling for a larger one (64 → 2,048 for the 1,090-byte response).
//! Ceilings are the measured counts plus one. The counters are
//! process-wide, so the binary runs without the test harness.

use pls_telemetry::alloc;
use pls_wire::proto::{Request, Response};

#[global_allocator]
static ALLOC: pls_telemetry::CountingAlloc = pls_telemetry::CountingAlloc;

const ROUNDS: u64 = 1_000;

/// Allocations per call of `work`, averaged over [`ROUNDS`].
fn allocs_per_call(mut work: impl FnMut()) -> f64 {
    let phase = alloc::phase();
    for _ in 0..ROUNDS {
        work();
    }
    phase.delta().allocs as f64 / ROUNDS as f64
}

fn main() {
    let probe = Request::Probe { key: b"song/00000042".to_vec(), t: 35 };
    let entries = Response::Entries((0..35).map(|i| format!("{i:027}").into_bytes()).collect());
    let probe_frame = probe.encode();
    let entries_frame = entries.encode();
    assert_eq!(entries_frame.len(), 1 + 4 + 35 * (4 + 27));

    let rows = [
        (
            "Request::decode(Probe)",
            1.0,
            allocs_per_call(|| {
                std::hint::black_box(Request::decode(std::hint::black_box(&probe_frame)).unwrap());
            }),
        ),
        (
            "Response::decode(Entries 35x27)",
            36.0,
            allocs_per_call(|| {
                std::hint::black_box(
                    Response::decode(std::hint::black_box(&entries_frame)).unwrap(),
                );
            }),
        ),
        (
            "Request::encode(Probe)",
            1.0,
            allocs_per_call(|| {
                std::hint::black_box(std::hint::black_box(&probe).encode());
            }),
        ),
        (
            "Response::encode(Entries 35x27)",
            6.0,
            allocs_per_call(|| {
                std::hint::black_box(std::hint::black_box(&entries).encode());
            }),
        ),
    ];
    for (what, measured, got) in rows {
        println!("{what}: {got:.2} allocations (measured {measured}, ceiling {})", measured + 1.0);
        assert!(got <= measured + 1.0, "{what}: {got} allocations, ceiling {}", measured + 1.0);
        assert!(got >= measured, "{what}: {got} allocations — lower the measured figure to match");
    }
}
