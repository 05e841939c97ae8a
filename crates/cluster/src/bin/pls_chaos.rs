//! `pls-chaos` — a fault-injecting wire-protocol proxy.
//!
//! ```text
//! pls-chaos --listen HOST:PORT [--upstream HOST:PORT]
//!           [--mode forward|black-hole|garbage|half-close|error|delay|refuse|flap]
//!           [--prob P] [--delay-ms MS] [--up-ms MS] [--down-ms MS]
//!           [--seed S] [--log LEVEL]
//!
//!   --listen     address to accept cluster-protocol connections on
//!   --upstream   real server to forward fault-free requests to; without
//!                it, fault-free requests are acked with Ok
//!   --mode       the fault to inject (default forward = no fault);
//!                `refuse` closes every connection on sight (crashed
//!                process), `flap` alternates --up-ms of service with
//!                --down-ms of refusal (restart-looping process)
//!   --prob       probability a request draws the fault (default 1.0;
//!                refuse and flap are connection-level, not probabilistic)
//!   --delay-ms   delay before handling every request (also the `delay`
//!                mode's knob; default 0)
//!   --up-ms      flap mode: length of each serving window (default 1000)
//!   --down-ms    flap mode: length of each refusing window (default 1000)
//!   --seed       deterministic fault dice (default 0)
//!   --log        error|warn|info|debug|trace|off (default info)
//! ```
//!
//! Put the proxy's address in place of a server's in peer lists to make
//! that server misbehave from the callers' point of view. Example: a
//! black hole standing in for server 2 —
//!
//! ```sh
//! pls-chaos --listen 127.0.0.1:7503 --upstream 127.0.0.1:7403 --mode black-hole
//! ```
//!
//! The proxy runs until the process is signalled (`std` has no signal
//! API; the default action of SIGINT/SIGTERM ends it).

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;

use pls_cluster::{flag, ChaosConfig, ChaosPeer};
use pls_telemetry::trace;

struct Options {
    listen: SocketAddr,
    upstream: Option<SocketAddr>,
    cfg: Arc<ChaosConfig>,
    mode: String,
}

fn parse_args() -> Result<Options, String> {
    let mut listen: Option<SocketAddr> = None;
    let mut upstream: Option<SocketAddr> = None;
    let mut mode = "forward".to_string();
    let mut prob = 1.0f64;
    let mut delay_ms = 0u64;
    let mut up_ms = 1_000u64;
    let mut down_ms = 1_000u64;
    let mut seed = 0u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let args = &mut args;
        match arg.as_str() {
            "--listen" => listen = Some(flag(&arg, args)?),
            "--upstream" => upstream = Some(flag(&arg, args)?),
            "--mode" => mode = flag(&arg, args)?,
            "--prob" => prob = flag(&arg, args)?,
            "--delay-ms" => delay_ms = flag(&arg, args)?,
            "--up-ms" => up_ms = flag(&arg, args)?,
            "--down-ms" => down_ms = flag(&arg, args)?,
            "--seed" => seed = flag(&arg, args)?,
            "--log" => trace::init_from_str(&flag::<String>(&arg, args)?)?,
            "--help" | "-h" => {
                return Err("usage: pls-chaos --listen HOST:PORT [--upstream HOST:PORT] \
                     [--mode forward|black-hole|garbage|half-close|error|delay|refuse|flap] \
                     [--prob P] [--delay-ms MS] [--up-ms MS] [--down-ms MS] [--seed S] \
                     [--log LEVEL]"
                    .to_string())
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    let listen = listen.ok_or("--listen is required")?;
    if !(0.0..=1.0).contains(&prob) {
        return Err(format!("--prob {prob} out of range (0.0..=1.0)"));
    }
    let cfg = Arc::new(ChaosConfig::new(seed));
    cfg.set_delay_ms(delay_ms);
    match mode.as_str() {
        "forward" => {}
        "black-hole" => cfg.set_black_hole(prob),
        "garbage" => cfg.set_garbage(prob),
        "half-close" => cfg.set_half_close(prob),
        "error" => cfg.set_error(prob),
        "delay" => {
            if delay_ms == 0 {
                return Err("--mode delay needs --delay-ms".to_string());
            }
        }
        "refuse" => cfg.set_refuse(true),
        "flap" => {
            if down_ms == 0 {
                return Err("--mode flap needs a nonzero --down-ms".to_string());
            }
            cfg.set_flap(
                std::time::Duration::from_millis(up_ms),
                std::time::Duration::from_millis(down_ms),
            );
        }
        other => {
            return Err(format!(
                "unknown mode `{other}` (expected forward, black-hole, garbage, half-close, \
                 error, delay, refuse, flap)"
            ))
        }
    }
    Ok(Options { listen, upstream, cfg, mode })
}

fn main() -> ExitCode {
    trace::init(Some(pls_telemetry::Level::Info));
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            pls_telemetry::error!(msg);
            return ExitCode::FAILURE;
        }
    };
    match ChaosPeer::bind_addr(opts.listen, opts.upstream, opts.cfg) {
        Ok((_proxy, addr)) => {
            match opts.upstream {
                Some(up) => pls_telemetry::info!(
                    "chaos_serving",
                    addr = addr,
                    upstream = up,
                    mode = opts.mode
                ),
                None => pls_telemetry::info!("chaos_serving", addr = addr, mode = opts.mode),
            }
            // Until the process is signalled (see the module doc).
            loop {
                std::thread::park();
            }
        }
        Err(err) => {
            pls_telemetry::error!("bind_failed", addr = opts.listen, err = err);
            ExitCode::FAILURE
        }
    }
}
