//! The recording path allocates nothing: spans with the level off and
//! a flight recorder installed, pre-built records, the hot-key sketch
//! at steady state (evictions included), and keyed counters on known
//! keys.
//!
//! The test binary installs the counting global allocator and measures
//! an [`pls_telemetry::alloc::phase`] around each batch. The counters
//! are process-wide, so the binary runs without the test harness
//! (`harness = false`): the harness's own thread allocates while the
//! first test starts, and that would be counted here. CI runs this
//! binary in release mode as well, beside `alloc_budget`.

use std::sync::Arc;

use pls_telemetry::recorder::{self, SpanRecord};
use pls_telemetry::{alloc, KeyedCounterMap, Level, Recorder, Span, TopK};

#[global_allocator]
static ALLOC: pls_telemetry::CountingAlloc = pls_telemetry::CountingAlloc;

const BATCH: u64 = 2_000;

/// Allocations made while `work` runs.
fn allocs_during(work: impl FnOnce()) -> u64 {
    let phase = alloc::phase();
    work();
    phase.delta().allocs
}

fn main() {
    pls_telemetry::trace::init(None);
    // A ring smaller than a batch, so slots are overwritten too.
    let recorder = Arc::new(Recorder::new(256));
    recorder::install(Some(Arc::clone(&recorder)));

    // (a) A span with one numeric field, entered and dropped. The first
    // drop on a thread fills the thread's cached recorder handle.
    drop(Span::enter_with_id(Level::Trace, module_path!(), "warm_up", 0));
    let spans = allocs_during(|| {
        for id in 0..BATCH {
            let mut span = Span::enter_with_id(Level::Trace, module_path!(), "probe_sample", id);
            span.field("server", 3usize);
        }
    });
    assert_eq!(spans, 0, "span enter + field + drop");
    assert_eq!(recorder.recorded.get(), BATCH + 1);
    let last = recorder.spans_for(BATCH - 1);
    assert_eq!(last.len(), 1, "{last:?}");
    assert_eq!(last[0].field("server"), Some("3"));

    // The caller-timed entry point, three numeric fields.
    let timed = allocs_during(|| {
        for id in 0..BATCH {
            recorder::record_timed(
                Some(id),
                "probe",
                module_path!(),
                40,
                [("server", 2u64.into()), ("service_us", 30u64.into()), ("net_us", 10u64.into())],
            );
        }
    });
    assert_eq!(timed, 0, "record_timed");

    // (b) Records built beforehand are moved into the ring as they are.
    let records: Vec<SpanRecord> = (0..BATCH)
        .map(|id| SpanRecord {
            req_id: Some(id),
            name: "probe_sample".to_string(),
            target: module_path!().to_string(),
            start_us: id,
            elapsed_us: 3,
            fields: vec![("server".to_string(), "3".to_string())],
        })
        .collect();
    let prebuilt = allocs_during(|| {
        for record in records {
            recorder.record(record);
        }
    });
    assert_eq!(prebuilt, 0, "Recorder::record of a pre-built record");
    assert_eq!(recorder.recorded.get(), 3 * BATCH + 1);
    assert_eq!(recorder.overwrites.get(), 3 * BATCH + 1 - 256);
    recorder::install(None);

    // (c) 1,000 same-length keys through 64 slots: once every slot has
    // held a key, an evicting offer reuses the victim's buffer.
    let keys: Vec<String> = (0..1_000).map(|i| format!("song/{i:08}")).collect();
    let sketch = TopK::new(64);
    keys.iter().for_each(|k| sketch.offer(k.as_bytes()));
    let offers = allocs_during(|| {
        for i in 0..BATCH as usize {
            sketch.offer(keys[(i * 7) % keys.len()].as_bytes());
        }
    });
    assert_eq!(offers, 0, "TopK::offer at steady state");
    let snap = sketch.snapshot();
    assert_eq!(snap.entries.len(), 64);
    assert!(snap.entries.iter().all(|e| e.err > 0), "every slot was taken over by eviction");

    // (d) Increments of keys the map already holds.
    let composites: Vec<Vec<u8>> =
        (0..BATCH).map(|i| format!("{}|entry/{i:04}", keys[i as usize % 1_000]).into()).collect();
    let hits = KeyedCounterMap::new();
    composites.iter().for_each(|c| hits.inc(c));
    // A read folds the increments still pending in this thread's log, so
    // their first-touch key copies are made here, not in the batch.
    assert_eq!(hits.len(), composites.len());
    let incs = allocs_during(|| composites.iter().for_each(|c| hits.inc(c)));
    assert_eq!(incs, 0, "KeyedCounterMap::inc on known keys");
    assert_eq!(hits.len(), composites.len());
    assert!(composites.iter().all(|c| hits.get(c) == Some(2)));
    println!("zero_alloc: the recording path allocated nothing");
}
