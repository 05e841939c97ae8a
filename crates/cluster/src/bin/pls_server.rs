//! `pls-server` — one lookup server of a partial lookup cluster.
//!
//! ```text
//! pls-server --index N --peers HOST:PORT,HOST:PORT,... --strategy SPEC
//!            [--seed S] [--group-size G] [--log LEVEL]
//!            [--metrics-addr HOST:PORT] [--slow-ms MS]
//!            [--rpc-timeout-ms MS] [--op-budget-ms MS] [--data-dir DIR]
//!            [--checkpoint-every N] [--antientropy-ms MS]
//!            [--tombstone-ttl-ms MS] [--shards N] [--scrape-ms MS]
//!            [--slo-fast-s S] [--slo-slow-s S] [--slo-latency-ms MS]
//!
//! pls-server --join SEED_HOST:PORT --advertise HOST:PORT --strategy SPEC
//!            [--seed S] [--group-size G] [... same optional flags ...]
//!
//!   --index         this server's position in the peer list (0-based;
//!                   index 0 is the Round-Robin coordinator)
//!   --peers         every server's address, comma-separated, in id order
//!   --strategy      full | fixed:X | random:X | round:Y | hash:Y
//!   --seed          cluster-wide seed (must match on every server; default 0)
//!   --group-size    placement-group size `g`: each key lives on a group
//!                   of `g` members chosen by consistent hashing over
//!                   the live membership (must match on every server;
//!                   default 5 — clusters no larger than `g` behave
//!                   exactly like the static pre-membership world)
//!   --join          join an existing cluster live: ask the member at
//!                   SEED_HOST:PORT to admit this server, then boot from
//!                   the membership view it hands back (replaces
//!                   --index/--peers; requires --advertise). The
//!                   existing members re-home placement groups onto the
//!                   newcomer via anti-entropy migration.
//!   --advertise     the address this server listens on *and* announces
//!                   to the cluster when joining (must be reachable by
//!                   the other members)
//!   --log           error|warn|info|debug|trace|off (default info); structured
//!                   key=value events on stderr
//!   --metrics-addr  serve the debug endpoint on this address:
//!                   `GET /metrics` (Prometheus text, including the live
//!                   unfairness/coverage gauges and hottest keys),
//!                   `GET /trace?req=<id>` (cluster-wide JSON span
//!                   timeline of one request), and `GET /debug/recent`
//!                   (this server's flight-recorder ring, pinned slow
//!                   requests, and counters)
//!   --slow-ms       warn-log any request handled slower than MS
//!                   milliseconds, with its request id, and pin its
//!                   spans in the flight recorder so they survive ring
//!                   wraparound
//!   --rpc-timeout-ms  deadline for each outbound RPC this server makes
//!                   (internal fan-out, resync pulls; default 2000)
//!   --op-budget-ms  total time budget for one update's whole internal
//!                   fan-out, retries included (default 10000)
//!   --data-dir      durable state directory: every accepted update is
//!                   appended to a write-ahead log and fsynced before
//!                   the ack, with periodic checkpoint snapshots. On
//!                   restart the server replays checkpoint + WAL before
//!                   serving; only if the directory yields nothing does
//!                   it fall back to pulling state from live peers.
//!   --checkpoint-every  WAL records between checkpoint snapshots
//!                   (default 256)
//!   --antientropy-ms    background anti-entropy interval: compare
//!                   per-key placement digests with the peers on a
//!                   jittered ~MS cadence, repair divergent or
//!                   under-replicated keys, and refresh the PBS-style
//!                   `pls_live_staleness{strategy,t}` gauge from the same
//!                   digests (default 5000; 0 disables both)
//!   --tombstone-ttl-ms  how long delete tombstones are retained
//!                   before garbage collection (default 900000 = 15
//!                   min; must comfortably exceed --antientropy-ms so
//!                   deletes finish propagating first)
//!   --shards        shared-nothing shards the key space is partitioned
//!                   into (default: available CPU cores). Each shard
//!                   owns its keys' engines and spec overrides and —
//!                   with --data-dir — its own WAL segment under
//!                   `DIR/shard-<i>/` with independent group-commit
//!                   fsync. An existing sharded data dir records its
//!                   count in `shards.meta`; restarting with a
//!                   different --shards is refused, and so is a dir
//!                   with a wal.log or checkpoint.bin at its root
//!   --scrape-ms     observatory self-scrape interval: snapshot the
//!                   full metrics into the in-memory timeline and
//!                   refresh the SLO error budgets on a jittered ~MS
//!                   cadence, feeding `GET /debug/timeline` and the
//!                   `pls_slo_*` gauges (default 2000; 0 disables)
//!   --slo-fast-s    fast burn-rate window, seconds (default 60)
//!   --slo-slow-s    slow burn-rate window, seconds (default 300; also
//!                   sizes the timeline's retention)
//!   --slo-latency-ms  latency SLO target: requests slower than MS
//!                   milliseconds spend latency error budget
//!                   (default 10)
//! ```
//!
//! Example 3-server cluster on one machine:
//!
//! ```sh
//! pls-server --index 0 --peers 127.0.0.1:7401,127.0.0.1:7402,127.0.0.1:7403 --strategy round:2 &
//! pls-server --index 1 --peers 127.0.0.1:7401,127.0.0.1:7402,127.0.0.1:7403 --strategy round:2 &
//! pls-server --index 2 --peers 127.0.0.1:7401,127.0.0.1:7402,127.0.0.1:7403 --strategy round:2 &
//! ```
//!
//! The server runs until the process is signalled, and there is no
//! shutdown path to run: `std` has no signal API (and the workspace has
//! no dependencies), and the default action of SIGINT/SIGTERM is the same
//! crash-only stop the write-ahead log is built for — every acked update
//! is already fsynced.

use std::net::SocketAddr;
use std::process::ExitCode;

use pls_cluster::{flag, flag_list, parse_spec, Server, ServerConfig};
use pls_core::StrategySpec;
use pls_telemetry::trace;

/// Arm the counting allocator: every heap allocation in this process
/// feeds the `pls_alloc_*` metric families (a few relaxed atomic adds
/// per malloc — cheap enough to keep on in production). Libraries never
/// install it; the binary opts in.
#[global_allocator]
static ALLOC: pls_telemetry::CountingAlloc = pls_telemetry::CountingAlloc;

/// A live-join request: `(seed member to ask, address to advertise)`.
type JoinPlan = (SocketAddr, SocketAddr);

fn parse_args() -> Result<(ServerConfig, Option<SocketAddr>, Option<JoinPlan>), String> {
    use std::time::Duration;
    let millis = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
    let mut index: Option<usize> = None;
    let mut peers: Option<Vec<SocketAddr>> = None;
    let mut join: Option<SocketAddr> = None;
    let mut advertise: Option<SocketAddr> = None;
    let mut spec = None;
    let mut metrics_addr: Option<SocketAddr> = None;
    // Every other flag lands in the config as it is read; index, peers
    // and strategy are filled in below.
    let mut cfg = ServerConfig::new(0, Vec::new(), StrategySpec::full_replication(), 0);
    cfg.anti_entropy = millis(5_000);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let args = &mut args;
        match arg.as_str() {
            "--index" => index = Some(flag(&arg, args)?),
            "--peers" => peers = Some(flag_list(&arg, args)?),
            "--strategy" => spec = Some(parse_spec(&flag::<String>(&arg, args)?)?),
            "--seed" => cfg.seed = flag(&arg, args)?,
            "--group-size" => cfg.group_size = flag(&arg, args)?,
            "--join" => join = Some(flag(&arg, args)?),
            "--advertise" => advertise = Some(flag(&arg, args)?),
            "--metrics-addr" => metrics_addr = Some(flag(&arg, args)?),
            "--slow-ms" => cfg.slow_ms = Some(flag(&arg, args)?),
            "--rpc-timeout-ms" => cfg.timeouts.rpc = Duration::from_millis(flag(&arg, args)?),
            "--op-budget-ms" => cfg.timeouts.op_budget = Duration::from_millis(flag(&arg, args)?),
            "--data-dir" => cfg.data_dir = Some(flag(&arg, args)?),
            "--checkpoint-every" => cfg.checkpoint_every = flag(&arg, args)?,
            "--antientropy-ms" => cfg.anti_entropy = millis(flag(&arg, args)?),
            "--tombstone-ttl-ms" => cfg.tombstone_ttl = Duration::from_millis(flag(&arg, args)?),
            "--shards" => cfg.shards = flag(&arg, args)?,
            "--scrape-ms" => cfg.self_scrape = millis(flag(&arg, args)?),
            "--slo-fast-s" => cfg.slo_fast = Duration::from_secs(flag(&arg, args)?),
            "--slo-slow-s" => cfg.slo_slow = Duration::from_secs(flag(&arg, args)?),
            "--slo-latency-ms" => {
                cfg.slo_latency_target_us = flag::<u64>(&arg, args)?.saturating_mul(1_000);
            }
            "--log" => trace::init_from_str(&flag::<String>(&arg, args)?)?,
            "--help" | "-h" => {
                return Err(
                    "usage: pls-server --index N --peers A,B,... --strategy SPEC [--seed S] \
                     [--group-size G] [--log LEVEL] [--metrics-addr HOST:PORT] [--slow-ms MS] \
                     [--rpc-timeout-ms MS] [--op-budget-ms MS] [--data-dir DIR] \
                     [--checkpoint-every N] [--antientropy-ms MS] [--tombstone-ttl-ms MS] \
                     [--shards N] [--scrape-ms MS] [--slo-fast-s S] [--slo-slow-s S] \
                     [--slo-latency-ms MS]\n       pls-server --join \
                     SEED_HOST:PORT --advertise HOST:PORT --strategy SPEC [same optional flags]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    cfg.spec = spec.ok_or("--strategy is required")?;
    let join_plan = match (join, advertise) {
        (Some(_), _) if index.is_some() || peers.is_some() => {
            return Err("--join replaces --index/--peers".to_string());
        }
        (Some(seed_addr), advertise) => {
            Some((seed_addr, advertise.ok_or("--join requires --advertise")?))
        }
        (None, Some(_)) => return Err("--advertise only makes sense with --join".to_string()),
        (None, None) => None,
    };
    (cfg.me, cfg.peers) = match join_plan {
        // A joiner boots from the view the seed hands back; the
        // placeholder peer list is just its own listen address.
        Some((_, advertise)) => (0, vec![advertise]),
        None => {
            let index = index.ok_or("--index is required")?;
            let peers = peers.ok_or("--peers is required")?;
            if index >= peers.len() {
                return Err(format!("--index {index} out of range for {} peers", peers.len()));
            }
            (index, peers)
        }
    };
    Ok((cfg, metrics_addr, join_plan))
}

/// Asks the seed member to admit this server and returns the config
/// extended with the membership view (and this server's allocated id)
/// that the cluster handed back.
fn join_cluster(
    cfg: ServerConfig,
    seed_addr: SocketAddr,
    advertise: SocketAddr,
) -> Result<ServerConfig, String> {
    let ccfg = pls_cluster::ClientConfig::new(vec![seed_addr], cfg.spec, cfg.seed)
        .with_placement(cfg.group_size, cfg.seed)
        .with_timeouts(cfg.timeouts);
    let mut admin = pls_cluster::Client::connect(ccfg);
    let view = admin.join(&advertise.to_string()).map_err(|e| format!("join refused: {e}"))?;
    let my_id = view
        .id_of_addr(&advertise.to_string())
        .ok_or_else(|| format!("cluster admitted the join but {advertise} is not in the view"))?;
    pls_telemetry::info!("joined_cluster", id = my_id, epoch = view.epoch(), members = view.len());
    Ok(ServerConfig { membership: Some((my_id, view)), ..cfg })
}

fn main() -> ExitCode {
    // Default level until (and unless) --log overrides it, so argument
    // errors and the startup line are visible out of the box.
    trace::init(Some(pls_telemetry::Level::Info));
    let (cfg, metrics_addr, join_plan) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            pls_telemetry::error!(msg);
            return ExitCode::FAILURE;
        }
    };
    // Flight recorder: retain recent spans for `/trace` and
    // `/debug/recent`; --slow-ms doubles as the pin threshold.
    let recorder = std::sync::Arc::new(pls_telemetry::Recorder::default());
    if let Some(ms) = cfg.slow_ms {
        recorder.set_slow_threshold_us(ms.saturating_mul(1_000));
    }
    pls_telemetry::recorder::install(Some(recorder));
    let cfg = match join_plan {
        Some((seed_addr, advertise)) => match join_cluster(cfg, seed_addr, advertise) {
            Ok(cfg) => cfg,
            Err(msg) => {
                pls_telemetry::error!("join_failed", seed = seed_addr, err = msg);
                return ExitCode::FAILURE;
            }
        },
        None => cfg,
    };
    let me = cfg.me;
    let spec = cfg.spec;
    let durable = cfg.data_dir.is_some();
    let (server, addr) = match Server::bind(cfg) {
        Ok(bound) => bound,
        Err(err) => {
            pls_telemetry::error!("start_failed", server = me, err = err);
            return ExitCode::FAILURE;
        }
    };
    pls_telemetry::info!("serving", server = me, strategy = spec, addr = addr);
    if durable {
        let recovered = server.recovered_keys();
        pls_telemetry::info!("durable_state", server = me, recovered_keys = recovered);
        if recovered == 0 {
            // Empty or fresh data dir: fall back to pulling state from
            // live peers, best-effort (the very first server of a new
            // cluster has no donors).
            match server.resync_from_peers() {
                Ok(keys) => pls_telemetry::info!("resync_fallback", server = me, keys = keys),
                Err(err) => {
                    pls_telemetry::info!("resync_fallback_skipped", server = me, err = err);
                }
            }
        }
    }
    let _exporter = match metrics_addr {
        Some(maddr) => {
            let router = std::sync::Arc::new(server.router());
            let serving = std::net::TcpListener::bind(maddr).and_then(|listener| {
                let bound = listener.local_addr()?;
                Ok((pls_cluster::http::serve_router(listener, router)?, bound))
            });
            match serving {
                Ok((exporter, bound)) => {
                    pls_telemetry::info!("metrics_serving", server = me, addr = bound);
                    Some(exporter)
                }
                Err(err) => {
                    pls_telemetry::error!("metrics_bind_failed", addr = maddr, err = err);
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let _server = server.spawn();
    // Until the process is signalled (see the module doc).
    loop {
        std::thread::park();
    }
}
