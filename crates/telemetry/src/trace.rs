//! A structured tracing facade: levels, key/value events, timing spans.
//!
//! Same shape as the `tracing` crate's `event!`/`span!` macros, but
//! dependency-free: events are filtered by a global atomic max level
//! (one relaxed load when disabled — safe to leave in hot paths) and
//! rendered as single-line `key=value` records on stderr.
//!
//! ```
//! use pls_telemetry::{trace, Level};
//!
//! trace::init(Some(Level::Info));
//! pls_telemetry::info!("server_started", addr = "127.0.0.1:7401", index = 0);
//! let span = trace::Span::enter(Level::Debug, "demo", "handle_request");
//! // ... work ...
//! let _us = span.elapsed_us(); // usable for histograms even when disabled
//! ```

use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::RwLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::recorder::{self, Retained};

/// Event severity, in decreasing order of urgency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// A failure the operator should look at.
    Error = 1,
    /// Something unexpected but survivable (a dropped peer message, a
    /// rejected request).
    Warn = 2,
    /// Lifecycle events (startup, shutdown, recovery).
    Info = 3,
    /// Per-operation detail (request handling, pool churn).
    Debug = 4,
    /// Everything, including per-probe chatter.
    Trace = 5,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

impl std::str::FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!(
                "unknown log level `{other}` (expected error|warn|info|debug|trace|off)"
            )),
        }
    }
}

/// 0 = off; otherwise the numeric value of the maximum enabled level.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

/// An installed event sink receives each fully rendered line instead of
/// stderr (tests capture output this way).
type Sink = Box<dyn Fn(&str) + Send + Sync>;

static SINK: RwLock<Option<Sink>> = RwLock::new(None);
/// Fast-path flag so [`emit`] only takes the sink lock when one is set.
static SINK_SET: AtomicBool = AtomicBool::new(false);

/// Redirects all emitted event lines to `sink` (or back to stderr with
/// `None`). Process-global, like the level: intended for tests and
/// embedders that collect events rather than print them.
pub fn set_sink(sink: Option<Sink>) {
    let mut slot = SINK.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    SINK_SET.store(sink.is_some(), Ordering::Release);
    *slot = sink;
}

/// Sets the global maximum level; `None` disables all output. May be
/// called again at any time (e.g. to quiesce logging in tests).
pub fn init(level: Option<Level>) {
    MAX_LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
}

/// Parses `error|warn|info|debug|trace|off` and installs it.
///
/// # Errors
///
/// A human-readable message for unknown level names.
pub fn init_from_str(s: &str) -> Result<(), String> {
    if s.eq_ignore_ascii_case("off") {
        init(None);
        Ok(())
    } else {
        init(Some(s.parse()?));
        Ok(())
    }
}

/// Whether events at `level` are currently emitted. One relaxed atomic
/// load; the intended guard for any formatting work.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Renders one event line: `ts=<unix-micros> level=<LVL>
/// target=<module> msg=<msg> key=value ...`.
pub fn format_line(level: Level, target: &str, msg: &str, fields: &[(&str, String)]) -> String {
    let ts = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default();
    let mut line = format!(
        "ts={}.{:06} level={} target={} msg={}",
        ts.as_secs(),
        ts.subsec_micros(),
        level.as_str(),
        target,
        msg
    );
    for (k, v) in fields {
        line.push(' ');
        line.push_str(k);
        line.push('=');
        if v.contains(' ') || v.is_empty() {
            line.push('"');
            line.push_str(v);
            line.push('"');
        } else {
            line.push_str(v);
        }
    }
    line
}

/// Emits one structured event to stderr. Use the [`event!`]/[`error!`]/
/// [`warn!`]/[`info!`]/[`debug!`] macros instead of calling this
/// directly — they check [`enabled`] before any formatting.
///
/// [`event!`]: crate::event
/// [`error!`]: crate::error
/// [`warn!`]: crate::warn
/// [`info!`]: crate::info
/// [`debug!`]: crate::debug
pub fn emit(level: Level, target: &str, msg: &str, fields: &[(&str, String)]) {
    use std::io::Write;
    let line = format_line(level, target, msg, fields);
    if SINK_SET.load(Ordering::Acquire) {
        let sink = SINK.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(sink) = sink.as_ref() {
            sink(&line);
            return;
        }
    }
    let stderr = std::io::stderr();
    let mut handle = stderr.lock();
    let _ = writeln!(handle, "{line}");
}

/// The value of a span field, kept as given until someone reads it: a
/// span that is neither logged nor looked up never renders its fields
/// to text. `Display` gives the text the value's own `to_string()`
/// would have given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// Any unsigned integer.
    U64(u64),
    /// Any signed integer.
    I64(i64),
    /// A flag.
    Bool(bool),
    /// Text, borrowed for the life of the program or owned.
    Str(Cow<'static, str>),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => v.fmt(f),
            FieldValue::I64(v) => v.fmt(f),
            FieldValue::Bool(v) => v.fmt(f),
            FieldValue::Str(v) => v.fmt(f),
        }
    }
}

macro_rules! field_value_from {
    ($variant:ident as $wide:ty: $($t:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $wide)
            }
        }
    )*};
}
field_value_from!(U64 as u64: u8, u16, u32, u64, usize);
field_value_from!(I64 as i64: i8, i16, i32, i64, isize);

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> Self {
        FieldValue::Str(Cow::Borrowed(v))
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(Cow::Owned(v))
    }
}

/// One span field: a static key and its un-rendered value.
pub(crate) type Field = (&'static str, FieldValue);

/// How many fields a span (and a flight-recorder slot) holds inline.
/// Every span in this repository attaches at most this many.
pub const INLINE_FIELDS: usize = 4;

/// The fields of one span, in the order they were attached: the first
/// [`INLINE_FIELDS`] inline, any further ones in a heap vector that
/// stays unallocated until it is needed.
#[derive(Debug, Default)]
pub(crate) struct Fields {
    inline: [Option<Field>; INLINE_FIELDS],
    spill: Vec<Field>,
}

impl Fields {
    fn push(&mut self, field: Field) {
        match self.inline.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some(field),
            None => self.spill.push(field),
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &Field> {
        self.inline.iter().flatten().chain(&self.spill)
    }
}

impl FromIterator<Field> for Fields {
    fn from_iter<I: IntoIterator<Item = Field>>(iter: I) -> Self {
        let mut fields = Fields::default();
        iter.into_iter().for_each(|f| fields.push(f));
        fields
    }
}

/// A timing span: captures an [`Instant`] on entry, emits a structured
/// `<name> done elapsed_us=…` event on drop. Whether the span logs is
/// decided *once*, at entry — a span that announced `start` always
/// announces `done` (and vice versa), even if the global level changes
/// while it is open. [`elapsed_us`] is available regardless of the
/// level, so the same span feeds latency histograms.
///
/// A span may carry a request id ([`enter_with_id`]); both its `start`
/// and `done` events then include a `req=<id>` field, correlating every
/// hop of one logical request across clients and servers.
///
/// With its level disabled a span costs two clock reads and, when a
/// flight recorder is installed, one move of the span into the
/// recorder's ring; it allocates nothing unless it carries more than
/// [`INLINE_FIELDS`] fields or an owned string.
///
/// [`elapsed_us`]: Span::elapsed_us
/// [`enter_with_id`]: Span::enter_with_id
#[derive(Debug)]
pub struct Span {
    level: Level,
    target: &'static str,
    name: &'static str,
    id: Option<u64>,
    /// Whether the level was enabled at entry; governs both events.
    armed: bool,
    start: Instant,
    /// Extra key/value fields attached while the span was open; carried
    /// on the `done` event and into the flight recorder.
    fields: Fields,
}

impl Span {
    /// Starts a span (and emits a `<name> start` event at `level`).
    pub fn enter(level: Level, target: &'static str, name: &'static str) -> Span {
        Self::start(level, target, name, None)
    }

    /// Starts a span tagged with a request id: `start`/`done` events
    /// carry `req=<id>`.
    pub fn enter_with_id(level: Level, target: &'static str, name: &'static str, id: u64) -> Span {
        Self::start(level, target, name, Some(id))
    }

    fn start(level: Level, target: &'static str, name: &'static str, id: Option<u64>) -> Span {
        let armed = enabled(level);
        let span = Span {
            level,
            target,
            name,
            id,
            armed,
            start: Instant::now(),
            fields: Fields::default(),
        };
        if armed {
            span.emit_event("start", None);
        }
        span
    }

    /// Attaches a key/value field to the span. Fields appear on the
    /// `done` event and in the recorded [`SpanRecord`]. The value is
    /// stored as given and rendered only when the event is printed or
    /// the record is read back.
    ///
    /// [`SpanRecord`]: crate::recorder::SpanRecord
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        self.fields.push((key, value.into()));
    }

    /// Emits `<name> <what>` with the request id; with `elapsed_us`,
    /// also the span's fields and the elapsed time (the `done` event).
    fn emit_event(&self, what: &str, elapsed_us: Option<u64>) {
        let mut fields: Vec<(&str, String)> = Vec::new();
        if let Some(id) = self.id {
            fields.push(("req", id.to_string()));
        }
        if let Some(elapsed_us) = elapsed_us {
            fields.extend(self.fields.iter().map(|(k, v)| (*k, v.to_string())));
            fields.push(("elapsed_us", elapsed_us.to_string()));
        }
        emit(self.level, self.target, &format!("{} {}", self.name, what), &fields);
    }

    /// The request id the span was entered with, if any.
    pub fn id(&self) -> Option<u64> {
        self.id
    }

    /// Microseconds since the span was entered (saturating).
    pub fn elapsed_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed_us = self.elapsed_us();
        // Use the entry-time decision, not `enabled()` now: the pair of
        // start/done events must be all-or-nothing.
        if self.armed {
            self.emit_event("done", Some(elapsed_us));
        }
        // The flight recorder is independent of the logging level: a
        // span is retained even when nothing is printed for it.
        recorder::with_installed(|recorder| {
            recorder.retain(Retained::Span {
                req_id: self.id,
                name: self.name,
                target: self.target,
                start_us: recorder::unix_us_at(self.start),
                elapsed_us,
                fields: std::mem::take(&mut self.fields),
            });
        });
    }
}

/// Emits a structured event at an explicit level:
/// `event!(Level::Warn, "accept_error", err = e)`. Field values are
/// rendered with `Display`; nothing is formatted unless the level is
/// enabled.
#[macro_export]
macro_rules! event {
    ($lvl:expr, $msg:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        let lvl = $lvl;
        if $crate::trace::enabled(lvl) {
            $crate::trace::emit(
                lvl,
                module_path!(),
                &::std::string::ToString::to_string(&$msg),
                &[$((stringify!($k), ::std::string::ToString::to_string(&$v))),*],
            );
        }
    }};
}

/// [`event!`](crate::event) at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($t:tt)*) => { $crate::event!($crate::Level::Error, $($t)*) };
}

/// [`event!`](crate::event) at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($t:tt)*) => { $crate::event!($crate::Level::Warn, $($t)*) };
}

/// [`event!`](crate::event) at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($t:tt)*) => { $crate::event!($crate::Level::Info, $($t)*) };
}

/// [`event!`](crate::event) at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($t:tt)*) => { $crate::event!($crate::Level::Debug, $($t)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!("warn".parse::<Level>(), Ok(Level::Warn));
        assert_eq!("TRACE".parse::<Level>(), Ok(Level::Trace));
        assert!("verbose".parse::<Level>().is_err());
    }

    #[test]
    fn format_line_quotes_spaces() {
        let line = format_line(
            Level::Warn,
            "pls_cluster::server",
            "peer_rejected",
            &[("peer", "3".to_string()), ("err", "remote error: boom".to_string())],
        );
        assert!(line.contains("level=WARN"), "{line}");
        assert!(line.contains("target=pls_cluster::server"), "{line}");
        assert!(line.contains("msg=peer_rejected"), "{line}");
        assert!(line.contains("peer=3"), "{line}");
        assert!(line.contains("err=\"remote error: boom\""), "{line}");
    }

    #[test]
    fn span_elapsed_is_monotone() {
        let span = Span::enter(Level::Trace, "test", "work");
        let a = span.elapsed_us();
        let b = span.elapsed_us();
        assert!(b >= a);
    }

    // Note on `enabled`: the max level is process-global state, so tests
    // that flip it could race with parallel tests. We only assert the
    // default-off behaviour here (the binaries exercise init paths).
    #[test]
    fn macros_compile_and_are_silent_when_off() {
        crate::event!(Level::Info, "noop", n = 1);
        crate::error!("noop");
        crate::warn!("noop", detail = "x y");
        crate::info!("noop");
        crate::debug!("noop", v = 42);
    }

    use std::sync::{Arc, Mutex};

    /// Serializes the sink-using tests (the sink and max level are
    /// process-global) and captures every line emitted during `f`.
    /// Other tests may emit concurrently while the level is raised, so
    /// assertions must filter by a name unique to the test.
    fn with_captured_events(level: Level, f: impl FnOnce()) -> Vec<String> {
        static GLOBAL: Mutex<()> = Mutex::new(());
        let _guard = GLOBAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let lines = Arc::new(Mutex::new(Vec::new()));
        let captured = Arc::clone(&lines);
        set_sink(Some(Box::new(move |line: &str| {
            captured
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(line.to_string());
        })));
        init(Some(level));
        f();
        init(None);
        set_sink(None);
        let out = lines.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
        out
    }

    #[test]
    fn span_emits_timed_start_and_done_with_request_id() {
        let lines = with_captured_events(Level::Debug, || {
            let span = Span::enter_with_id(Level::Debug, "test_target", "uniq_timing_span", 4242);
            assert_eq!(span.id(), Some(4242));
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let ours: Vec<&String> = lines.iter().filter(|l| l.contains("uniq_timing_span")).collect();
        assert_eq!(ours.len(), 2, "{lines:?}");
        assert!(ours[0].contains("msg=uniq_timing_span start"), "{}", ours[0]);
        assert!(ours[0].contains("req=4242"), "{}", ours[0]);
        assert!(ours[1].contains("msg=uniq_timing_span done"), "{}", ours[1]);
        assert!(ours[1].contains("req=4242"), "{}", ours[1]);
        let elapsed: u64 = ours[1]
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("elapsed_us="))
            .expect("done event carries elapsed_us")
            .parse()
            .expect("elapsed_us is numeric");
        assert!(elapsed >= 2_000, "slept 2ms but recorded {elapsed}us");
    }

    #[test]
    fn span_drop_feeds_installed_recorder_even_when_logging_is_off() {
        // No init() call: the level is whatever other tests left, and
        // recording must not depend on it. Filter by our unique req id
        // since parallel tests may drop spans concurrently.
        let recorder = Arc::new(crate::recorder::Recorder::new(64));
        crate::recorder::install(Some(Arc::clone(&recorder)));
        {
            let mut span =
                Span::enter_with_id(Level::Trace, "test_target", "uniq_recorded_span", 9907);
            span.field("server", 3);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        crate::recorder::install(None);
        let spans = recorder.spans_for(9907);
        assert_eq!(spans.len(), 1, "{spans:?}");
        assert_eq!(spans[0].name, "uniq_recorded_span");
        assert_eq!(spans[0].target, "test_target");
        assert_eq!(spans[0].field("server"), Some("3"));
        assert!(spans[0].elapsed_us >= 1_000);
        assert!(spans[0].start_us > 0);
    }

    #[test]
    fn span_logging_decision_is_made_at_entry() {
        // Enabled at entry, disabled at exit: done is still emitted.
        let lines = with_captured_events(Level::Debug, || {
            let _span = Span::enter(Level::Debug, "test_target", "uniq_armed_span");
            init(None);
        });
        let ours = lines.iter().filter(|l| l.contains("uniq_armed_span")).count();
        assert_eq!(ours, 2, "{lines:?}");

        // Disabled at entry, enabled at exit: fully silent.
        let lines = with_captured_events(Level::Error, || {
            let span = Span::enter(Level::Debug, "test_target", "uniq_silent_span");
            init(Some(Level::Debug));
            drop(span);
        });
        let ours = lines.iter().filter(|l| l.contains("uniq_silent_span")).count();
        assert_eq!(ours, 0, "{lines:?}");
    }
}
