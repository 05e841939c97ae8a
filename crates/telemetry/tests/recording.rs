//! The recording structures against plain models: the Space-Saving
//! sketch against exact counts, the keyed counters against a `HashMap`
//! (with `take()` racing writers, more writers than the map has logs,
//! and writers that exit before a read), the flight recorder under two
//! threads, and un-rendered span fields read back as text.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use pls_telemetry::recorder::{self, SpanRecord};
use pls_telemetry::trace::{self, INLINE_FIELDS};
use pls_telemetry::{KeyedCounterMap, Level, Recorder, Span, TopK, TopKSnapshot};

/// A small deterministic generator (xorshift64*), so histories repeat.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A long history over `distinct` keys through `capacity` slots: a few
/// heavy keys, a skewed middle, and a uniform tail that forces an
/// eviction on most offers.
fn history(seed: u64, distinct: u64, len: usize) -> Vec<(Vec<u8>, u64)> {
    let mut rng = Rng(seed | 1);
    (0..len)
        .map(|_| {
            let key = match rng.below(10) {
                0..=2 => rng.below(3),
                3..=4 => rng.below(distinct.min(40)),
                _ => rng.below(distinct),
            };
            let n = if rng.below(16) == 0 { 1 + rng.below(5) } else { 1 };
            (format!("key/{key:05}").into_bytes(), n)
        })
        .collect()
}

fn replay(capacity: usize, offers: &[(Vec<u8>, u64)]) -> TopKSnapshot {
    let sketch = TopK::new(capacity);
    offers.iter().for_each(|(key, n)| sketch.offer_n(key, *n));
    assert!(sketch.len() <= capacity);
    sketch.snapshot()
}

#[test]
fn topk_keeps_space_saving_s_guarantees_under_eviction_heavy_histories() {
    for (seed, capacity, distinct, len) in
        [(1, 8, 200, 20_000), (2, 64, 1_000, 50_000), (3, 1, 50, 2_000), (4, 16, 12, 5_000)]
    {
        let offers = history(seed, distinct, len);
        let mut exact: HashMap<&[u8], u64> = HashMap::new();
        let mut total = 0u64;
        for (key, n) in &offers {
            *exact.entry(key.as_slice()).or_default() += n;
            total += n;
        }
        let snap = replay(capacity, &offers);
        assert!(snap.entries.len() <= capacity, "seed {seed}");
        assert_eq!(snap.entries.len(), capacity.min(exact.len()), "seed {seed}");
        // Counts only ever move from an evicted key to its successor.
        assert_eq!(snap.entries.iter().map(|e| e.count).sum::<u64>(), total, "seed {seed}");
        for e in &snap.entries {
            let truth = exact[e.key.as_slice()];
            assert!(e.count - e.err <= truth && truth <= e.count, "seed {seed}: {e:?} vs {truth}");
        }
        for (key, &truth) in &exact {
            if truth * capacity as u64 > total {
                assert!(
                    snap.entries.iter().any(|e| e.key == *key),
                    "seed {seed}: {truth} of {total} offers went to an unmonitored key"
                );
            }
        }
        assert!(snap.entries.windows(2).all(|w| w[0].count >= w[1].count), "seed {seed}");
        // The victim rule reads only the offer sequence, never the
        // sketch's private hash seed: a second sketch agrees exactly.
        assert_eq!(replay(capacity, &offers), snap, "seed {seed}");
    }
}

#[test]
fn topk_evicts_the_earliest_filled_slot_among_equal_counts() {
    let sketch = TopK::new(3);
    for key in [b"c", b"a", b"b"] {
        sketch.offer(key);
    }
    // All three tie at 1: `c`'s slot was filled first, then `a`'s.
    sketch.offer(b"x");
    sketch.offer(b"y");
    let keys: Vec<Vec<u8>> = sketch.snapshot().entries.into_iter().map(|e| e.key).collect();
    assert_eq!(keys, vec![b"x".to_vec(), b"y".to_vec(), b"b".to_vec()]);
}

#[test]
fn keyed_counters_agree_with_a_hash_map() {
    let map = KeyedCounterMap::new();
    let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
    let mut rng = Rng(99);
    for step in 0..60_000u32 {
        // Keys of every length from empty to several words, so the
        // hash's tail handling and the tables' growth are both used.
        let id = rng.below(3_000);
        let text = id.to_string().repeat(8);
        let key = &text.as_bytes()[..text.len().min((id % 23) as usize)];
        match rng.below(50) {
            0 => assert_eq!(map.get(key), model.get(key).copied(), "step {step}"),
            1 if step % 7_000 == 1 => {
                let taken = map.take();
                let mut expected: Vec<(Vec<u8>, u64)> = model.drain().collect();
                expected.sort();
                assert_eq!(taken.entries, expected, "step {step}");
                assert!(map.is_empty());
            }
            _ => {
                let n = 1 + rng.below(3);
                map.add(key, n);
                *model.entry(key.to_vec()).or_default() += n;
            }
        }
    }
    assert_eq!(map.len(), model.len());
    let mut expected: Vec<(Vec<u8>, u64)> = model.into_iter().collect();
    expected.sort();
    assert_eq!(map.snapshot().entries, expected);
}

#[test]
fn keyed_take_racing_writers_neither_loses_nor_doubles_a_count() {
    const WRITERS: u64 = 2;
    const INCS: u64 = 40_000;
    let map = KeyedCounterMap::new();
    let start = Barrier::new(WRITERS as usize + 1);
    let writing = AtomicBool::new(true);
    let mut drained: HashMap<Vec<u8>, u64> = HashMap::new();
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (map, start) = (&map, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..INCS {
                        map.inc(format!("key/{}", (i * 31 + w) % 257).as_bytes());
                    }
                })
            })
            .collect();
        let taker = scope.spawn(|| {
            start.wait();
            let mut seen: HashMap<Vec<u8>, u64> = HashMap::new();
            while writing.load(Ordering::Acquire) {
                for (key, count) in map.take().entries {
                    *seen.entry(key).or_default() += count;
                }
            }
            seen
        });
        for w in writers {
            w.join().expect("writer panicked");
        }
        writing.store(false, Ordering::Release);
        drained = taker.join().expect("taker panicked");
    });
    for (key, count) in map.take().entries {
        *drained.entry(key).or_default() += count;
    }
    assert_eq!(drained.len(), 257);
    assert_eq!(drained.values().sum::<u64>(), WRITERS * INCS);
    for (key, count) in &drained {
        let id: u64 = std::str::from_utf8(&key[4..]).unwrap().parse().unwrap();
        let expected: u64 = (0..WRITERS)
            .map(|w| (0..INCS).filter(|i| (i * 31 + w) % 257 == id).count() as u64)
            .sum();
        assert_eq!(*count, expected, "key/{id}");
    }
}

#[test]
fn keyed_takes_by_one_thread_and_writes_by_more_threads_than_stripes_add_up() {
    // More writers than the map has logs, so some share one, on keys
    // that overlap between writers, while the main thread drains.
    const WRITERS: u64 = 48;
    const INCS: u64 = 3_000;
    let key = |w: u64, i: u64| format!("key/{}", (i * 7 + w * 13) % 101).into_bytes();
    let map = KeyedCounterMap::new();
    let start = Barrier::new(WRITERS as usize + 1);
    let mut drained: HashMap<Vec<u8>, u64> = HashMap::new();
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (map, start) = (&map, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..INCS {
                        map.add(&key(w, i), 1 + i % 3);
                    }
                })
            })
            .collect();
        start.wait();
        while !writers.iter().all(|w| w.is_finished()) {
            for (key, count) in map.take().entries {
                *drained.entry(key).or_default() += count;
            }
        }
    });
    for (key, count) in map.snapshot().entries {
        *drained.entry(key).or_default() += count;
    }
    let mut model: HashMap<Vec<u8>, u64> = HashMap::new();
    for w in 0..WRITERS {
        for i in 0..INCS {
            *model.entry(key(w, i)).or_default() += 1 + i % 3;
        }
    }
    assert_eq!(drained.len(), model.len());
    for (key, count) in &model {
        assert_eq!(drained.get(key), Some(count), "{}", String::from_utf8_lossy(key));
    }
}

#[test]
fn keyed_increments_of_an_exited_thread_are_seen_by_every_reader() {
    // Ten increments stay in the writer's log (a log folds at 64), and
    // the writer is gone before the reader under test is the first to
    // look: k0 and k1 gain 3 a round, k2 and k3 gain 2.
    let map = KeyedCounterMap::new();
    let write_ten_and_exit = || {
        std::thread::scope(|scope| {
            scope.spawn(|| (0..10u8).for_each(|i| map.inc(&[b'k', i % 4])));
        })
    };
    let counts = |rounds: u64| -> Vec<(Vec<u8>, u64)> {
        (0..4u8).map(|k| (vec![b'k', k], rounds * if k < 2 { 3 } else { 2 })).collect()
    };
    write_ten_and_exit();
    assert_eq!(map.len(), 4);
    write_ten_and_exit();
    assert_eq!(map.get(b"k\x00"), Some(6));
    write_ten_and_exit();
    assert_eq!(map.snapshot().entries, counts(3));
    assert_eq!(map.take().entries, counts(3));
    write_ten_and_exit();
    assert_eq!(map.take().entries, counts(1));
    assert!(map.is_empty());
}

/// A record whose every part is a function of `(writer, seq)`, so a
/// reader can tell a whole record from a torn or mixed one.
fn stamped(writer: u64, seq: u64) -> SpanRecord {
    let id = writer << 32 | seq;
    SpanRecord {
        req_id: Some(id),
        name: format!("span-{id}"),
        target: format!("writer-{writer}"),
        start_us: seq,
        elapsed_us: id % 97,
        fields: vec![("seq".to_string(), seq.to_string()), ("id".to_string(), id.to_string())],
    }
}

#[test]
fn recorder_readers_only_ever_see_whole_records_while_two_threads_write() {
    const PER_WRITER: u64 = 30_000;
    let recorder = Recorder::new(128);
    let start = Barrier::new(3);
    let writing = AtomicBool::new(true);
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let (recorder, start) = (&recorder, &start);
                scope.spawn(move || {
                    start.wait();
                    for seq in 0..PER_WRITER {
                        recorder.record(stamped(w, seq));
                    }
                })
            })
            .collect();
        let reader = scope.spawn(|| {
            start.wait();
            let mut checked = 0u64;
            let mut probe = 0u64;
            while writing.load(Ordering::Acquire) {
                let snap = recorder.snapshot();
                assert!(snap.len() <= recorder.capacity());
                for r in &snap {
                    let id = r.req_id.expect("every record carries an id");
                    assert_eq!(*r, stamped(id >> 32, id & 0xffff_ffff));
                }
                checked += snap.len() as u64;
                // A by-id read: at most the one record with that id.
                probe = (probe + 1_009) % PER_WRITER;
                let one = recorder.spans_for(1 << 32 | probe);
                assert!(one.len() <= 1, "{one:?}");
                assert!(one.iter().all(|r| *r == stamped(1, probe)));
            }
            checked
        });
        for w in writers {
            w.join().expect("writer panicked");
        }
        writing.store(false, Ordering::Release);
        assert!(reader.join().expect("reader panicked") > 0);
    });
    assert_eq!(recorder.recorded.get(), 2 * PER_WRITER);
    assert_eq!(recorder.overwrites.get(), 2 * PER_WRITER - 128);
    let rest = recorder.snapshot();
    assert_eq!(rest.len(), 128);
    // What remains is the last records of each writer, none twice.
    let mut ids: Vec<u64> = rest.iter().map(|r| r.req_id.unwrap()).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 128);
}

/// Serialises the tests that touch the process-wide level, sink and
/// installed recorder, and captures the lines emitted while `f` runs.
fn with_captured_events(level: Option<Level>, f: impl FnOnce()) -> Vec<String> {
    static GLOBAL: Mutex<()> = Mutex::new(());
    let _guard = GLOBAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let lines = Arc::new(Mutex::new(Vec::new()));
    let captured = Arc::clone(&lines);
    trace::set_sink(Some(Box::new(move |line: &str| {
        captured.lock().unwrap().push(line.to_string());
    })));
    trace::init(level);
    f();
    trace::init(None);
    trace::set_sink(None);
    let out = lines.lock().unwrap().clone();
    out
}

#[test]
fn unrendered_fields_read_back_as_their_to_string_text() {
    let ring = Arc::new(Recorder::new(16));
    let lines = with_captured_events(Some(Level::Debug), || {
        recorder::install(Some(Arc::clone(&ring)));
        let mut span = Span::enter_with_id(Level::Debug, "round_trip", "uniq_typed_span", 7_001);
        span.field("server", 3usize);
        span.field("delta", -4i32);
        span.field("hedged", true);
        span.field("strategy", "round:2");
        // One past the inline array: kept all the same, in order.
        assert_eq!(INLINE_FIELDS, 4);
        span.field("note", String::from("two words"));
        drop(span);
        recorder::install(None);
    });
    let expected = [
        ("server", "3"),
        ("delta", "-4"),
        ("hedged", "true"),
        ("strategy", "round:2"),
        ("note", "two words"),
    ];

    let spans = ring.spans_for(7_001);
    assert_eq!(spans.len(), 1, "{spans:?}");
    let got: Vec<(&str, &str)> =
        spans[0].fields.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    assert_eq!(got, expected);
    assert_eq!(
        (spans[0].name.as_str(), spans[0].target.as_str()),
        ("uniq_typed_span", "round_trip")
    );
    assert_eq!(ring.snapshot(), spans);

    let json = spans[0].to_json();
    assert!(
        json.contains(
            "\"fields\":[{\"key\":\"server\",\"value\":\"3\"},{\"key\":\"delta\",\"value\":\"-4\"},\
             {\"key\":\"hedged\",\"value\":\"true\"},{\"key\":\"strategy\",\"value\":\"round:2\"},\
             {\"key\":\"note\",\"value\":\"two words\"}]"
        ),
        "{json}"
    );

    let ours: Vec<&String> = lines.iter().filter(|l| l.contains("uniq_typed_span")).collect();
    assert_eq!(ours.len(), 2, "{lines:?}");
    assert!(ours[0].ends_with("msg=uniq_typed_span start req=7001"), "{}", ours[0]);
    let done = ours[1].split("msg=uniq_typed_span done ").nth(1).expect("a done line");
    let head =
        "req=7001 server=3 delta=-4 hedged=true strategy=round:2 note=\"two words\" elapsed_us=";
    assert!(done.starts_with(head), "{done}");
    assert!(done[head.len()..].parse::<u64>().is_ok(), "{done}");
}

#[test]
fn install_is_seen_by_the_next_span_drop_on_every_thread() {
    let _lines = with_captured_events(None, || {
        let first = Arc::new(Recorder::new(8));
        let second = Arc::new(Recorder::new(8));
        let (to_worker, from_main) = std::sync::mpsc::channel::<u64>();
        let (to_main, from_worker) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            for id in from_main {
                drop(Span::enter_with_id(Level::Trace, "visibility", "uniq_visibility_span", id));
                to_main.send(()).unwrap();
            }
        });
        let drop_on_worker = |id: u64| {
            to_worker.send(id).unwrap();
            from_worker.recv().unwrap();
        };

        recorder::install(Some(Arc::clone(&first)));
        drop_on_worker(1);
        // The worker now caches `first`; a new install must displace it.
        recorder::install(Some(Arc::clone(&second)));
        drop_on_worker(2);
        recorder::install(None);
        drop_on_worker(3);
        recorder::record_timed(Some(4), "timed", "visibility", 1, []);
        drop(to_worker);
        worker.join().unwrap();

        assert_eq!(first.spans_for(1).len(), 1);
        assert_eq!(second.spans_for(2).len(), 1);
        assert_eq!(first.recorded.get() + second.recorded.get(), 2, "nothing after uninstall");
        // The exited worker released its cached handle.
        assert_eq!(Arc::strong_count(&second), 1);
    });
}

#[test]
fn caller_timed_spans_land_like_dropped_ones() {
    let _lines = with_captured_events(None, || {
        let ring = Arc::new(Recorder::new(8));
        recorder::install(Some(Arc::clone(&ring)));
        let before = recorder::unix_us();
        recorder::record_timed(
            Some(9_001),
            "probe",
            "timed",
            250,
            [("server", 2usize.into()), ("service_us", 200u64.into()), ("net_us", 50u64.into())],
        );
        recorder::install(None);
        let spans = ring.spans_for(9_001);
        assert_eq!(spans.len(), 1, "{spans:?}");
        let s = &spans[0];
        assert_eq!((s.name.as_str(), s.target.as_str(), s.elapsed_us), ("probe", "timed", 250));
        assert_eq!(s.field("service_us"), Some("200"));
        assert_eq!(s.field("net_us"), Some("50"));
        // It ended now: it started `elapsed_us` ago, give or take the
        // clocks' disagreement since the anchor was taken.
        let ended = s.start_us + s.elapsed_us;
        assert!(ended.abs_diff(before) < 5_000_000, "{ended} vs {before}");
    });
}
