//! Flight recorder: a bounded, in-memory ring of completed spans.
//!
//! Aggregate metrics answer "how slow are lookups on average?"; the
//! recorder answers "*where did this one request spend its time?*". It
//! keeps the last `capacity` completed spans — one per
//! [`Span`](crate::trace::Span) drop — in a fixed-size ring indexed by
//! a single atomic write cursor. Recording is one `fetch_add` on the
//! cursor, an uncontended per-slot lock, and a move of the span into
//! the slot: a slot holds a span as it was dropped, with static names
//! and un-rendered field values ([`FieldValue`]), or an owned
//! [`SpanRecord`] as it was handed to [`Recorder::record`]. Neither is
//! copied or rendered on the way in, so recording allocates nothing;
//! the text form is produced when a record is read back out
//! ([`Recorder::snapshot`], [`Recorder::spans_for`]).
//!
//! Slow requests get special treatment: when a span finishes over the
//! configured threshold ([`Recorder::set_slow_threshold_us`]) and
//! carries a request id, every record of that request is copied into a
//! bounded **pin list** that the ring's wraparound cannot evict — the
//! interesting outliers survive even under heavy traffic.
//!
//! One recorder may be installed process-wide ([`install`]); the
//! `trace::Span` drop path feeds it regardless of the logging level,
//! so traces are retained even when nothing is printed. Each thread
//! caches the installed recorder and revalidates the cache against a
//! generation counter, so a span drop reads one shared atomic and
//! takes no process-wide lock. The rule for visibility: a span drop
//! that begins after `install` returns goes to the recorder that call
//! installed (or to none); a thread that drops no further span keeps
//! its reference to the previous recorder, and so keeps it alive,
//! until the thread exits.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::counter::Counter;
use crate::trace::{FieldValue, Fields};

/// Default ring capacity when none is given.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Maximum number of pinned slow requests retained at once. When full,
/// the oldest pin is evicted to make room for a newer slow request.
pub const MAX_PINS: usize = 32;

/// One completed span, as retained by the recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Request id the span was entered with, if any (`req=` on events).
    pub req_id: Option<u64>,
    /// Span name (`partial_lookup`, `probe`, ...).
    pub name: String,
    /// Module path that opened the span.
    pub target: String,
    /// Wall-clock start, microseconds since the Unix epoch.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub elapsed_us: u64,
    /// Extra key/value fields attached to the span.
    pub fields: Vec<(String, String)>,
}

impl SpanRecord {
    /// Looks up a field value by key.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Renders this record as one JSON object — the element shape of
    /// the `/trace?req=<id>` and `/debug/recent` payloads.
    pub fn to_json(&self) -> String {
        let fields =
            crate::json::array(self.fields.iter().map(|(k, v)| {
                crate::json::Object::new().string("key", k).string("value", v).build()
            }));
        let mut obj = crate::json::Object::new();
        obj = match self.req_id {
            Some(id) => obj.u64("req_id", id),
            None => obj.field("req_id", "null"),
        };
        obj.string("name", &self.name)
            .string("target", &self.target)
            .u64("start_us", self.start_us)
            .u64("elapsed_us", self.elapsed_us)
            .field("fields", &fields)
            .build()
    }
}

/// Renders a slice of records as a JSON array, oldest-first as given.
pub fn spans_to_json(spans: &[SpanRecord]) -> String {
    crate::json::array(spans.iter().map(SpanRecord::to_json))
}

/// A slow request retained by the pin list: every record seen for one
/// request id at and since the moment it crossed the slow threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinnedRequest {
    /// The request id all pinned spans share.
    pub req_id: u64,
    /// The spans of that request, oldest first.
    pub spans: Vec<SpanRecord>,
}

/// What a ring slot holds: a completed span in the form it arrived in.
#[derive(Debug)]
pub(crate) enum Retained {
    /// A dropped [`Span`](crate::trace::Span), or a span timed by the
    /// caller ([`record_timed`]): nothing rendered, nothing on the heap
    /// unless a field value owns a string or the fields spilled.
    Span {
        req_id: Option<u64>,
        name: &'static str,
        target: &'static str,
        start_us: u64,
        elapsed_us: u64,
        fields: Fields,
    },
    /// A record the caller had already built.
    Owned(SpanRecord),
}

impl Retained {
    fn req_id(&self) -> Option<u64> {
        match self {
            Retained::Span { req_id, .. } | Retained::Owned(SpanRecord { req_id, .. }) => *req_id,
        }
    }

    fn elapsed_us(&self) -> u64 {
        match self {
            Retained::Span { elapsed_us, .. } | Retained::Owned(SpanRecord { elapsed_us, .. }) => {
                *elapsed_us
            }
        }
    }

    /// The public, rendered form.
    fn to_record(&self) -> SpanRecord {
        match self {
            Retained::Owned(record) => record.clone(),
            Retained::Span { req_id, name, target, start_us, elapsed_us, fields } => SpanRecord {
                req_id: *req_id,
                name: (*name).to_string(),
                target: (*target).to_string(),
                start_us: *start_us,
                elapsed_us: *elapsed_us,
                fields: fields.iter().map(|(k, v)| ((*k).to_string(), v.to_string())).collect(),
            },
        }
    }
}

/// Fixed-capacity ring buffer of completed spans with an atomic write
/// cursor, plus the slow-request pin list.
///
/// Writers reserve a slot with one `fetch_add` on the cursor and then
/// take that slot's own mutex — two writers only contend when the ring
/// has wrapped all the way around between them, so the recording path
/// stays effectively lock-free under any realistic load. The cursor
/// and the two public counters are the only memory every writer
/// writes; the layout is fixed so that they share one cache line.
#[derive(Debug)]
#[repr(C, align(64))]
pub struct Recorder {
    /// Total records ever written; `cursor % capacity` is the next slot.
    cursor: AtomicU64,
    /// Records accepted by [`Recorder::record`].
    pub recorded: Counter,
    /// Records evicted by ring wraparound (not counting pinned copies).
    pub overwrites: Counter,
    /// Spans at or above this duration (with a request id) are pinned;
    /// 0 disables pinning.
    slow_threshold_us: AtomicU64,
    slots: Box<[Mutex<Option<Retained>>]>,
    pins: Mutex<VecDeque<PinnedRequest>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

fn by_start(a: &SpanRecord, b: &SpanRecord) -> std::cmp::Ordering {
    a.start_us.cmp(&b.start_us).then(a.elapsed_us.cmp(&b.elapsed_us))
}

impl Recorder {
    /// A recorder holding the last `capacity` spans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Recorder {
            cursor: AtomicU64::new(0),
            recorded: Counter::default(),
            overwrites: Counter::default(),
            slow_threshold_us: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            pins: Mutex::new(VecDeque::new()),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Sets the slow-request threshold in microseconds (0 disables
    /// pinning). Typically wired from `--slow-ms`.
    pub fn set_slow_threshold_us(&self, us: u64) {
        self.slow_threshold_us.store(us, Ordering::Relaxed);
    }

    /// The current slow-request threshold in microseconds.
    pub fn slow_threshold_us(&self) -> u64 {
        self.slow_threshold_us.load(Ordering::Relaxed)
    }

    /// Appends one completed span to the ring; pins its request if the
    /// span crossed the slow threshold. The record is moved into its
    /// slot, not copied.
    pub fn record(&self, record: SpanRecord) {
        self.retain(Retained::Owned(record));
    }

    /// The one way into the ring, for [`Recorder::record`], the span
    /// drop path and [`record_timed`] alike.
    pub(crate) fn retain(&self, span: Retained) {
        // Only a span that must be pinned is copied, before it moves.
        let threshold = self.slow_threshold_us.load(Ordering::Relaxed);
        let slow = match span.req_id() {
            Some(req_id) if threshold > 0 && span.elapsed_us() >= threshold => {
                Some((req_id, span.to_record()))
            }
            _ => None,
        };
        // The three shared writes, back to back: every write from the
        // ring's second lap on lands on a slot that holds a record.
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        self.recorded.inc();
        let cap = self.slots.len() as u64;
        if seq >= cap {
            self.overwrites.inc();
        }
        let idx = (seq % cap) as usize;
        // The evicted span is dropped after the slot lock is released.
        let evicted = self.slots[idx].lock().unwrap_or_else(PoisonError::into_inner).replace(span);
        drop(evicted);
        if let Some((req_id, latest)) = slow {
            self.pin(req_id, latest);
        }
    }

    /// The ring's records that `keep` accepts, sorted by wall-clock
    /// start. One walk, oldest slot first, one slot lock at a time;
    /// only accepted records are rendered and copied out.
    fn ring_records(&self, keep: impl Fn(&Retained) -> bool) -> Vec<SpanRecord> {
        let seq = self.cursor.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let first = seq.saturating_sub(cap);
        let mut out = Vec::new();
        for offset in 0..cap {
            let idx = ((first + offset) % cap) as usize;
            let slot = self.slots[idx].lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(span) = slot.as_ref().filter(|span| keep(span)) {
                out.push(span.to_record());
            }
        }
        out.sort_by(by_start);
        out
    }

    /// Copies `latest` plus every ring record for `req_id` into the pin
    /// list (appending if the request is already pinned).
    fn pin(&self, req_id: u64, latest: SpanRecord) {
        // Gather the request's surviving ring records *before* taking
        // the pin lock (slot locks and the pin lock never nest).
        let mut spans = self.ring_records(|span| span.req_id() == Some(req_id));
        if !spans.contains(&latest) {
            spans.push(latest);
        }
        let mut pins = self.pins.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pin) = pins.iter_mut().find(|p| p.req_id == req_id) {
            for s in spans {
                if !pin.spans.contains(&s) {
                    pin.spans.push(s);
                }
            }
            return;
        }
        if pins.len() >= MAX_PINS {
            pins.pop_front();
        }
        pins.push_back(PinnedRequest { req_id, spans });
    }

    /// The ring's current contents, oldest first. Concurrent writers
    /// may land records while the walk is in progress; the result is a
    /// best-effort consistent view, sorted by wall-clock start.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.ring_records(|_| true)
    }

    /// The pinned slow requests, oldest pin first.
    pub fn pinned(&self) -> Vec<PinnedRequest> {
        self.pins.lock().unwrap_or_else(PoisonError::into_inner).iter().cloned().collect()
    }

    /// Every retained record for one request id — ring and pin list
    /// combined, deduplicated, sorted by start time. This is what
    /// `/trace?req=<id>` serves per node.
    pub fn spans_for(&self, req_id: u64) -> Vec<SpanRecord> {
        let mut out = self.ring_records(|span| span.req_id() == Some(req_id));
        let pins = self.pins.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pin) = pins.iter().find(|p| p.req_id == req_id) {
            for s in &pin.spans {
                if !out.contains(s) {
                    out.push(s.clone());
                }
            }
        }
        drop(pins);
        out.sort_by(by_start);
        out
    }
}

/// The process-global recorder slot, mirroring the tracing sink:
/// installed once by a binary, fed by every `Span` drop.
static RECORDER: RwLock<Option<Arc<Recorder>>> = RwLock::new(None);
/// Counts [`install`] calls; starts at 1 so that a thread's cache,
/// which starts at generation 0, is filled on first use.
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// A thread's view of [`RECORDER`]: the generation it last looked at
/// and what it found there.
struct Cache {
    generation: Cell<u64>,
    recorder: RefCell<Option<Arc<Recorder>>>,
}

thread_local! {
    static CACHE: Cache = const { Cache { generation: Cell::new(0), recorder: RefCell::new(None) } };
}

/// Installs (or, with `None`, removes) the process-global recorder.
pub fn install(recorder: Option<Arc<Recorder>>) {
    let mut slot = RECORDER.write().unwrap_or_else(PoisonError::into_inner);
    *slot = recorder;
    // Release, inside the write lock: a thread whose Acquire load sees
    // the new generation then reads the slot after this write.
    GENERATION.fetch_add(1, Ordering::Release);
}

/// The currently installed recorder, if any. Takes the slot's read lock
/// and clones the `Arc`; meant for readers (`/trace`, `/debug/recent`),
/// not for the recording path.
pub fn installed() -> Option<Arc<Recorder>> {
    RECORDER.read().unwrap_or_else(PoisonError::into_inner).clone()
}

/// Runs `f` on the installed recorder, if any, through this thread's
/// cached reference: one shared atomic load when the cache is current,
/// and no reference count touched. A span dropped while its thread's
/// locals are being destroyed is not recorded.
pub(crate) fn with_installed(f: impl FnOnce(&Recorder)) {
    let generation = GENERATION.load(Ordering::Acquire);
    let _ = CACHE.try_with(|cache| {
        if cache.generation.get() != generation {
            *cache.recorder.borrow_mut() = installed();
            cache.generation.set(generation);
        }
        if let Some(recorder) = cache.recorder.borrow().as_deref() {
            f(recorder);
        }
    });
}

/// Records a span that the caller timed itself, ending now after
/// `elapsed_us` (e.g. a client-side probe round trip). The same entry
/// the `Span` drop path uses: nothing is built or rendered unless a
/// recorder is installed, and then nothing is allocated.
pub fn record_timed<const N: usize>(
    req_id: Option<u64>,
    name: &'static str,
    target: &'static str,
    elapsed_us: u64,
    fields: [(&'static str, FieldValue); N],
) {
    with_installed(|r| {
        r.retain(Retained::Span {
            req_id,
            name,
            target,
            start_us: unix_us_at(Instant::now()).saturating_sub(elapsed_us),
            elapsed_us,
            fields: fields.into_iter().collect(),
        });
    });
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Microseconds since the Unix epoch, saturating.
pub fn unix_us() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(micros).unwrap_or(0)
}

/// The wall-clock time of a monotonic instant, from one pairing of the
/// two clocks captured on first use, so that placing a span on the
/// wall clock costs no clock read. Later steps of the wall clock are
/// not followed.
pub(crate) fn unix_us_at(at: Instant) -> u64 {
    static ANCHOR: OnceLock<(Instant, u64)> = OnceLock::new();
    let (anchor, anchor_us) = *ANCHOR.get_or_init(|| (Instant::now(), unix_us()));
    match at.checked_duration_since(anchor) {
        Some(after) => anchor_us.saturating_add(micros(after)),
        None => anchor_us.saturating_sub(micros(anchor.duration_since(at))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(req: u64, name: &str, elapsed: u64) -> SpanRecord {
        SpanRecord {
            req_id: Some(req),
            name: name.to_string(),
            target: "test".to_string(),
            start_us: unix_us(),
            elapsed_us: elapsed,
            fields: Vec::new(),
        }
    }

    #[test]
    fn a_ring_slot_is_no_larger_than_the_record_it_used_to_point_to() {
        // Before slots held spans inline a slot was ~110 bytes plus
        // ~160 bytes of heap per record; the ring must not grow.
        let slot = std::mem::size_of::<Mutex<Option<Retained>>>();
        assert!(slot <= 256, "{slot} bytes per slot");
    }

    #[test]
    fn ring_retains_last_capacity_records_and_counts_overwrites() {
        let r = Recorder::new(4);
        for i in 0..10u64 {
            r.record(SpanRecord { start_us: i, ..rec(i, "s", 1) });
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        let ids: Vec<u64> = snap.iter().map(|s| s.req_id.unwrap()).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        assert_eq!(r.recorded.get(), 10);
        assert_eq!(r.overwrites.get(), 6);
        assert_eq!(r.capacity(), 4);
    }

    #[test]
    fn slow_requests_are_pinned_and_survive_wraparound() {
        let r = Recorder::new(4);
        r.set_slow_threshold_us(1_000);
        // A fast span for the victim request, then its slow root.
        r.record(SpanRecord { start_us: 1, ..rec(77, "probe", 10) });
        r.record(SpanRecord { start_us: 2, ..rec(77, "lookup", 5_000) });
        // Flood the ring so both records are overwritten.
        for i in 0..16u64 {
            r.record(SpanRecord { start_us: 100 + i, ..rec(i, "noise", 1) });
        }
        assert!(r.snapshot().iter().all(|s| s.req_id != Some(77)));
        let pins = r.pinned();
        assert_eq!(pins.len(), 1);
        assert_eq!(pins[0].req_id, 77);
        let names: Vec<&str> = pins[0].spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["probe", "lookup"]);
        // spans_for merges pinned records back in.
        let spans = r.spans_for(77);
        assert_eq!(spans.len(), 2);
    }

    #[test]
    fn fast_spans_are_not_pinned_and_zero_threshold_disables_pinning() {
        let r = Recorder::new(8);
        r.set_slow_threshold_us(1_000);
        r.record(rec(1, "quick", 10));
        assert!(r.pinned().is_empty());
        r.set_slow_threshold_us(0);
        r.record(rec(2, "slow_but_untracked", 1_000_000));
        assert!(r.pinned().is_empty());
    }

    #[test]
    fn pin_list_is_bounded() {
        let r = Recorder::new(8);
        r.set_slow_threshold_us(1);
        for i in 0..(MAX_PINS as u64 + 5) {
            r.record(SpanRecord { start_us: i, ..rec(i, "slow", 10) });
        }
        let pins = r.pinned();
        assert_eq!(pins.len(), MAX_PINS);
        // Oldest pins were evicted first.
        assert_eq!(pins[0].req_id, 5);
    }

    #[test]
    fn spans_without_request_id_are_recorded_but_never_pinned() {
        let r = Recorder::new(8);
        r.set_slow_threshold_us(1);
        r.record(SpanRecord { req_id: None, ..rec(0, "anon", 10_000) });
        assert_eq!(r.snapshot().len(), 1);
        assert!(r.pinned().is_empty());
    }

    #[test]
    fn field_lookup() {
        let mut s = rec(1, "probe", 5);
        s.fields.push(("server".to_string(), "2".to_string()));
        assert_eq!(s.field("server"), Some("2"));
        assert_eq!(s.field("missing"), None);
    }

    #[test]
    fn span_records_render_as_json() {
        let mut s = rec(7, "probe", 42);
        s.start_us = 1000;
        s.fields.push(("server".to_string(), "2".to_string()));
        assert_eq!(
            s.to_json(),
            "{\"req_id\":7,\"name\":\"probe\",\"target\":\"test\",\
             \"start_us\":1000,\"elapsed_us\":42,\
             \"fields\":[{\"key\":\"server\",\"value\":\"2\"}]}"
        );
        let anon = SpanRecord { req_id: None, fields: Vec::new(), ..s.clone() };
        assert!(anon.to_json().starts_with("{\"req_id\":null,"));
        assert_eq!(spans_to_json(&[]), "[]");
        assert!(spans_to_json(&[s.clone(), anon]).starts_with("[{\"req_id\":7,"));
    }

    #[test]
    fn concurrent_recording_conserves_counts() {
        use std::sync::Arc;
        let r = Arc::new(Recorder::new(64));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    r.record(rec(t * 1000 + i, "hammer", 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.recorded.get(), 2000);
        assert_eq!(r.snapshot().len(), 64);
        assert_eq!(r.overwrites.get(), 2000 - 64);
    }
}
