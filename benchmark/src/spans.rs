//! The harness's own span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer. They stay in a pre-allocated buffer while the run
//! measures and are written to `trace.json` when it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// The span that has no parent.
pub const ROOT: u32 = 0;

/// One completed span. `calls` is how many calls of the named function
/// the span covers (1 for an op, the batch size for a layer batch).
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u32,
}

/// A span buffer with its own clock origin. Op spans are bounded: past
/// `op_limit` they are counted, not stored, so `trace.json` stays small
/// however long the run. The few structural spans (run, pass, layers,
/// layer batches) are always kept, so every stored span has its parent.
#[derive(Debug)]
pub struct SpanBuffer {
    origin: Instant,
    spans: Vec<SpanRecord>,
    next_id: u32,
    op_limit: usize,
    ops_kept: usize,
    dropped: u64,
}

impl SpanBuffer {
    pub fn new(origin: Instant, op_limit: usize) -> Self {
        SpanBuffer {
            origin,
            spans: Vec::with_capacity(op_limit + 1024),
            next_id: 1,
            op_limit,
            ops_kept: 0,
            dropped: 0,
        }
    }

    fn record(
        &self,
        id: u32,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        calls: u32,
    ) -> SpanRecord {
        let ns = |at: Instant| at.saturating_duration_since(self.origin).as_nanos() as u64;
        SpanRecord { id, parent, name, start_ns: ns(start), end_ns: ns(end), calls }
    }

    /// Reserves an id for a span that will be closed later (a parent).
    pub fn open(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a structural span under a reserved id.
    pub fn close(
        &mut self,
        id: u32,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        calls: u32,
    ) {
        self.spans.push(self.record(id, parent, name, start, end, calls));
    }

    /// Records a structural leaf span (a layer batch).
    pub fn leaf(
        &mut self,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
        calls: u32,
    ) {
        let id = self.open();
        self.close(id, parent, name, start, end, calls);
    }

    /// Records the span of one top-level op, if there is room.
    #[inline]
    pub fn op(&mut self, parent: u32, name: &'static str, start: Instant, end: Instant) {
        if self.ops_kept < self.op_limit {
            let id = self.open();
            self.ops_kept += 1;
            self.spans.push(self.record(id, parent, name, start, end, 1));
        } else {
            self.dropped += 1;
        }
    }

    /// Moves the first `keep` op spans of a worker's buffer in, as
    /// children of `parent`, and counts the rest as dropped. The worker
    /// must share this buffer's origin and hold op spans only.
    pub fn absorb(&mut self, worker: SpanBuffer, parent: u32, keep: usize) {
        self.dropped += worker.dropped;
        for (i, mut s) in worker.spans.into_iter().enumerate() {
            if i < keep && self.ops_kept < self.op_limit {
                s.id = self.open();
                s.parent = parent;
                self.ops_kept += 1;
                self.spans.push(s);
            } else {
                self.dropped += 1;
            }
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The whole buffer as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 128);
        let _ = write!(
            out,
            "{{\"schema\":\"pls-benchmark-trace/v1\",\"workload\":{},\"seed\":{seed},\
             \"spans_dropped\":{},\"spans\":[",
            pls_telemetry::json::string(workload),
            self.dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{},\"name\":{},\"workload\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"calls\":{}}}",
                s.id,
                s.parent,
                pls_telemetry::json::string(s.name),
                pls_telemetry::json::string(workload),
                s.start_ns,
                s.end_ns,
                s.calls
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_nest_inside_parents_and_json_parses() {
        let t0 = Instant::now();
        let mut buf = SpanBuffer::new(t0, 16);
        let run = buf.open();
        let a = t0 + Duration::from_nanos(10);
        let b = t0 + Duration::from_nanos(50);
        buf.leaf(run, "op", a, b, 1);
        buf.close(run, ROOT, "run", t0, t0 + Duration::from_nanos(100), 1);
        let doc = pls_telemetry::json::parse(&buf.to_json("w", 7)).expect("valid JSON");
        let spans = doc.get("spans").and_then(|s| s.as_array()).expect("spans array");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent").and_then(|v| v.as_u64()), Some(u64::from(run)));
        assert_eq!(spans[0].get("start_ns").and_then(|v| v.as_u64()), Some(10));
        assert_eq!(spans[1].get("name").and_then(|v| v.as_str()), Some("run"));
    }

    #[test]
    fn op_spans_are_bounded_and_structural_spans_are_not() {
        let t0 = Instant::now();
        let mut buf = SpanBuffer::new(t0, 2);
        let pass = buf.open();
        for _ in 0..5 {
            buf.op(pass, "op", t0, t0);
        }
        buf.close(pass, ROOT, "pass", t0, t0, 5);
        for _ in 0..2_000 {
            buf.leaf(ROOT, "batch", t0, t0, 10);
        }
        assert_eq!(buf.spans().iter().filter(|s| s.name == "op").count(), 2);
        assert_eq!(buf.spans().iter().filter(|s| s.name == "batch").count(), 2_000);
        assert!(buf.spans().iter().any(|s| s.name == "pass"));
        assert!(buf.to_json("w", 1).contains("\"spans_dropped\":3"));
    }

    #[test]
    fn absorb_keeps_ids_unique_and_counts_what_it_leaves() {
        let t0 = Instant::now();
        let mut main = SpanBuffer::new(t0, 16);
        let pass = main.open();
        let mut worker = SpanBuffer::new(t0, 16);
        for _ in 0..5 {
            worker.op(ROOT, "op", t0, t0);
        }
        main.absorb(worker, pass, 3);
        main.close(pass, ROOT, "pass", t0, t0, 5);
        let ids: std::collections::HashSet<u32> = main.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 4);
        assert!(main.spans().iter().filter(|s| s.name == "op").all(|s| s.parent == pass));
        assert!(main.to_json("w", 1).contains("\"spans_dropped\":2"));
    }
}
