//! An idle server's observatory keeps a bounded ring of metrics windows;
//! what one window costs must not depend on how much the server stores.
//! A per-entry series in the collection makes every window grow with the
//! store: over 100,000 stored copies, one idle scrape retained 12 MB.
//!
//! The test places 1,000 and then 100,000 stored copies on a one-member,
//! memory-only [`Node`], scrapes it until its timeline is full, and
//! compares the live bytes each run retained, read from the counting
//! allocator the `pls-server` binary installs.

use pls_core::StrategySpec;
use pls_telemetry::alloc;
use pls_wire::proto::{Request, Response};
use pls_wire::server::{Node, ServerConfig};
use std::time::Duration;

#[global_allocator]
static ALLOC: pls_telemetry::CountingAlloc = pls_telemetry::CountingAlloc;

/// Windows the timeline keeps: a one-second scrape and one-second burn
/// windows ask for 4, which the observatory floors at 32.
const WINDOWS: u64 = 32;

/// Entries per key: each run places `copies / ENTRIES` keys.
const ENTRIES: usize = 20;

/// How far the two runs' retained growths may differ. Both runs record
/// the same families with the same labels, so their windows cost the
/// same (366,658 bytes each on x86-64 Linux); one per-entry series kept
/// in 32 windows costs about 3 KiB, so some twenty of them exceed the
/// bound.
const BOUND_BYTES: u64 = 64 << 10;

/// Live bytes the node retained over a full timeline of scrapes after
/// `copies` stored copies were placed, panicking as soon as that exceeds
/// `ceiling`.
fn retained_growth(copies: usize, ceiling: u64) -> u64 {
    let peers = vec![([127, 0, 0, 1], 9300).into()];
    let spec = StrategySpec::full_replication();
    let second = Duration::from_secs(1);
    let cfg = ServerConfig {
        shards: 2,
        self_scrape: Some(second),
        slo_fast: second,
        slo_slow: second,
        ..ServerConfig::new(0, peers, spec, 7)
    };
    let (node, _) =
        Node::new(cfg, vec![None, None], Vec::new(), Box::new(|_| {}), 0).expect("a valid config");
    for k in 0..copies / ENTRIES {
        let key = format!("song/{k:06}").into_bytes();
        let entries = (0..ENTRIES).map(|e| format!("entry-{k:05}-{e:03}").into_bytes()).collect();
        let plan = node.serve(1, Ok(Request::Place { key, entries, spec: None }), 0);
        assert!(plan.calls.is_empty(), "a one-member cluster sends nothing");
        assert!(matches!(node.answer(plan, Ok(())).0, Response::Ok));
    }
    let status = node.shards().status();
    assert_eq!((status.keys, status.entries), ((copies / ENTRIES) as u64, copies as u64));

    let before = alloc::stats().current_bytes;
    for scrape in 1..=WINDOWS {
        node.scrape(scrape * 1_000);
        let grown = alloc::stats().current_bytes.saturating_sub(before);
        assert!(
            grown <= ceiling,
            "{copies} stored copies: {grown} bytes retained after {scrape} idle scrapes \
             (ceiling {ceiling})"
        );
    }
    let timeline = node.timeline_json();
    let full = format!("\"len\":{WINDOWS},\"capacity\":{WINDOWS},");
    assert!(timeline.contains(&full), "the timeline is not full: {}", &timeline[..200]);
    drop(timeline);
    alloc::stats().current_bytes.saturating_sub(before)
}

#[test]
fn an_idle_observatory_does_not_grow_with_the_store() {
    let small = retained_growth(1_000, u64::MAX);
    let large = retained_growth(100_000, small + BOUND_BYTES);
    assert!(
        large.abs_diff(small) < BOUND_BYTES,
        "a full timeline retained {small} bytes over 1,000 stored copies \
         and {large} over 100,000"
    );
}
