//! Observability demo: a real 4-server TCP cluster under mixed traffic
//! — including a Zipf-skewed hot-key phase — then the aggregated
//! metrics in Prometheus text format and a live-quality readout (the
//! online §4.5 unfairness and §4.3 coverage gauges plus the hottest
//! keys from the servers' Space-Saving sketches).
//!
//! ```sh
//! cargo run --example live_metrics            # warnings only
//! cargo run --example live_metrics -- debug   # structured event log too
//! ```
//!
//! The same exposition is available from a deployed cluster with
//! `pls-client --servers ... --strategy ... stats` (or over HTTP from
//! `pls-server --metrics-addr`).

use partial_lookup::cluster::{Client, ClientConfig, Server, ServerConfig};
use partial_lookup::sim::DiscreteZipf;
use partial_lookup::{DetRng, StrategySpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Structured tracing to stderr; the metrics below work even at `off`.
    let level = std::env::args().nth(1).unwrap_or_else(|| "warn".to_string());
    partial_lookup::telemetry::trace::init_from_str(&level).map_err(std::io::Error::other)?;

    let n = 4;
    let spec = StrategySpec::random_server(6);

    // Bind all listeners first so every server knows its peers.
    let mut listeners = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..n {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        addrs.push(listener.local_addr()?);
        listeners.push(listener);
    }
    let mut handles = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let cfg = ServerConfig::new(i, addrs.clone(), spec, 2003);
        let (server, _) = Server::with_listener(cfg, listener)?;
        handles.push(server.spawn());
    }

    let mut client = Client::connect(ClientConfig::new(addrs.clone(), spec, 7));

    // Mixed traffic: two keys (one under a per-key strategy), a stream of
    // adds/deletes, and both sequential and hedged lookups.
    let songs: Vec<Vec<u8>> = (0..12).map(|i| format!("peer{i}:6699").into_bytes()).collect();
    client.place(b"song/stairway", songs)?;
    let urls: Vec<Vec<u8>> = (0..8).map(|i| format!("http://host{i}/").into_bytes()).collect();
    client.place_with_strategy(b"category/guitar", urls, StrategySpec::round_robin(2))?;
    for i in 0..6u32 {
        client.add(b"song/stairway", format!("late{i}:6699").into_bytes())?;
        if i % 2 == 0 {
            client.delete(b"song/stairway", format!("peer{i}:6699").into_bytes())?;
        }
    }
    for t in [3usize, 6, 9] {
        client.partial_lookup(b"song/stairway", t)?;
        client.partial_lookup(b"category/guitar", t)?;
    }
    // A hedged client sends the next probe whenever those in flight stay
    // silent past the delay, so its probes overlap.
    let mut hedged = Client::connect(
        ClientConfig::new(addrs, spec, 8).with_hedging(std::time::Duration::from_micros(50)),
    );
    hedged.partial_lookup(b"song/stairway", 10)?;
    println!("# hedged lookup: {} probes launched early", hedged.metrics().hedges.get());

    // Zipf-skewed phase: 12 more keys whose lookup traffic follows a
    // discrete Zipf law (rank 0 hottest) — the workload the hot-key
    // sketch is built for. The per-entry hit counters behind the live
    // unfairness gauge see the same skew.
    let m = 12usize;
    let zipf = DiscreteZipf::new(m, 1.1);
    let mut rng = DetRng::seed_from(2003);
    for i in 0..m {
        let key = format!("song/top{i}").into_bytes();
        let peers: Vec<Vec<u8>> = (0..8).map(|p| format!("seed{p}:6699").into_bytes()).collect();
        client.place(&key, peers)?;
    }
    for _ in 0..200 {
        let rank = zipf.sample(&mut rng);
        let key = format!("song/top{rank}").into_bytes();
        client.partial_lookup(&key, 3)?;
    }

    // Cluster-wide view: each server's Metrics RPC answer, merged by
    // name (counters summed, histograms merged).
    let cluster = client.cluster_metrics(false)?;
    println!("# ==== cluster-wide ({n} servers, merged) ====");
    print!("{}", cluster.to_prometheus());

    // Client-side view, including the probes-per-lookup histogram: the
    // paper's client lookup cost (§4.2), measured on live traffic.
    println!("# ==== client ====");
    print!("{}", client.metrics_snapshot().to_prometheus());

    let per_lookup = client.metrics().probes_per_lookup.snapshot();
    println!(
        "# mean probes per lookup: {:.2} over {} lookups",
        per_lookup.mean(),
        per_lookup.count
    );

    // Live quality: the gauges are recomputed cluster-wide from the
    // merged per-entry hit counters, and the hot-key ranking sums every
    // server's sketch — under the Zipf workload it should surface the
    // low ranks (song/top0, song/top1, ...) first.
    println!("# ==== live quality ====");
    println!(
        "# unfairness (mean per-key CoV): {:.4}",
        cluster.gauge("pls_live_unfairness").unwrap_or(f64::NAN)
    );
    println!(
        "# coverage (entries retrieved at least once): {:.4}",
        cluster.gauge("pls_live_coverage").unwrap_or(f64::NAN)
    );
    let hot = partial_lookup::wire::metrics::views::hot_keys(&cluster);
    println!("# hottest keys (Space-Saving estimates):");
    for (key, count) in hot.iter().take(5) {
        println!("#   {key:<20} {count}");
    }

    drop(handles); // kills the servers
    Ok(())
}
