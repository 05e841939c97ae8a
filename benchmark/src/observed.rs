//! The telemetry the TCP server records per probe, replayed through
//! `pls-telemetry`'s public API.
//!
//! `pls-cluster` cannot be built where this benchmark runs, so
//! `observed-lookup` reproduces what `serve_connection` and the `Probe`
//! arm of `handle_request` (crates/cluster/src/server.rs) do around each
//! `NodeEngine::sample`: a request span and a `probe_sample` span, both
//! with a `server` field and with the level off but a flight recorder
//! installed; the probes counter; `record_probe_answer` (hot-key sketch
//! plus one keyed counter per returned entry); and the two latency
//! histograms. The set is shared by the workload's threads, as the
//! server's `ServerMetrics` is shared by its connections.

use std::sync::Arc;

use pls_core::{LookupResult, ServerId};
use pls_telemetry::{
    recorder, Counter, Histogram, KeyedCounterMap, Level, MetricsSnapshot, Recorder, Span, TopK,
};

use crate::dirload::Dir;

/// The server's `HOT_KEYS_TRACKED` and `HOT_KEYS_EXPORTED`.
const HOT_KEYS_TRACKED: usize = 64;
const HOT_KEYS_EXPORTED: usize = 10;

/// The server's `metrics::key_entry`: big-endian key length, key, entry.
pub fn key_entry(key: &[u8], entry: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + key.len() + entry.len());
    out.extend_from_slice(&(key.len() as u32).to_be_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(entry);
    out
}

pub struct Telemetry {
    pub probes: Counter,
    pub entries_returned: Counter,
    pub hot_keys: TopK,
    pub entry_hits: KeyedCounterMap,
    pub probe_latency_us: Histogram,
    pub request_latency_us: Histogram,
    pub recorder: Arc<Recorder>,
}

impl Telemetry {
    /// Creates the set and installs its flight recorder process-wide,
    /// with tracing output off.
    pub fn install() -> Telemetry {
        pls_telemetry::trace::init(None);
        let recorder = Arc::new(Recorder::default());
        recorder::install(Some(recorder.clone()));
        Telemetry {
            probes: Counter::new(),
            entries_returned: Counter::new(),
            hot_keys: TopK::new(HOT_KEYS_TRACKED),
            entry_hits: KeyedCounterMap::new(),
            probe_latency_us: Histogram::new(),
            request_latency_us: Histogram::new(),
            recorder,
        }
    }

    /// Accounts one answered probe the way the server does. `answer` is
    /// what the probed server sent back.
    #[inline]
    pub fn record_probe(&self, req_id: u64, server: ServerId, key: &[u8], answer: &[Vec<u8>]) {
        let mut request = Span::enter_with_id(Level::Debug, module_path!(), "probe", req_id);
        request.field("server", server.index());
        {
            let mut sample =
                Span::enter_with_id(Level::Trace, module_path!(), "probe_sample", req_id);
            sample.field("server", server.index());
            self.probes.inc();
            self.entries_returned.add(answer.len() as u64);
            self.hot_keys.offer(key);
            for v in answer {
                self.entry_hits.inc(&key_entry(key, v));
            }
            self.probe_latency_us.observe(sample.elapsed_us());
        }
        self.request_latency_us.observe(request.elapsed_us());
    }

    /// Replays the accounting for every server a lookup contacted. The
    /// observed workload's strategies keep at most 20 entries per server
    /// and ask for 35, so a probe's answer is the server's whole store.
    #[inline]
    pub fn observe_lookup(
        &self,
        dir: &Dir,
        key: &String,
        t: usize,
        req_id: u64,
        result: &LookupResult<Vec<u8>>,
    ) {
        for &s in result.contacted() {
            let stored = dir.server_entries(key, s);
            self.record_probe(req_id, s, key.as_bytes(), &stored[..stored.len().min(t)]);
        }
    }

    /// One `/metrics` scrape: snapshot and render.
    pub fn scrape(&self) -> String {
        let mut snap = MetricsSnapshot::new();
        snap.push_counter("pls_probes_total", self.probes.get());
        snap.push_counter("pls_probe_entries_returned_total", self.entries_returned.get());
        snap.push_counter("pls_recorder_recorded_total", self.recorder.recorded.get());
        snap.push_counter("pls_recorder_overwrites_total", self.recorder.overwrites.get());
        snap.push_gauge("pls_entry_hits_tracked", self.entry_hits.len() as f64);
        snap.push_histogram("pls_probe_latency_us", self.probe_latency_us.snapshot());
        snap.push_histogram("pls_request_latency_us", self.request_latency_us.snapshot());
        for hot in self.hot_keys.snapshot().top(HOT_KEYS_EXPORTED) {
            let key = String::from_utf8_lossy(&hot.key);
            snap.push_counter(
                pls_telemetry::snapshot::labeled("pls_hot_key_probes", &[("key", &key)]),
                hot.count,
            );
        }
        snap.to_prometheus()
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        recorder::install(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probe_reaches_every_instrument_and_the_scrape_shows_it() {
        let tel = Telemetry::install();
        let answer = vec![b"e1".to_vec(), b"e2".to_vec()];
        tel.record_probe(9, ServerId::new(3), b"song/1", &answer);
        tel.record_probe(10, ServerId::new(4), b"song/1", &answer[..1]);
        assert_eq!(tel.probes.get(), 2);
        assert_eq!(tel.entries_returned.get(), 3);
        assert_eq!(tel.entry_hits.get(&key_entry(b"song/1", b"e1")), Some(2));
        assert_eq!(tel.entry_hits.get(&key_entry(b"song/1", b"e2")), Some(1));
        assert_eq!(tel.probe_latency_us.snapshot().count, 2);
        // Two spans per probe reach the recorder although the level is off.
        assert_eq!(tel.recorder.recorded.get(), 4);
        let text = tel.scrape();
        assert!(text.contains("pls_probes_total 2"), "{text}");
        assert!(text.contains("pls_hot_key_probes{key=\"song/1\"} 2"), "{text}");
        assert_ne!(key_entry(b"ab", b"c"), key_entry(b"a", b"bc"));
    }
}
