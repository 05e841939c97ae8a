//! The command-line client, run as the built `pls-client` binary against a
//! cluster wider than a placement group: started with no deployment flags,
//! it routes every key as servers started with no flags do.

mod common;

use std::process::Command;

use common::bind_all;
use pls_cluster::{Server, ServerConfig, ServerHandle};
use pls_core::membership::DEFAULT_GROUP_SIZE;
use pls_core::{GroupRouter, Membership, StrategySpec};

/// `pls-client --servers <servers> --strategy <strategy> <args>`: its
/// stdout, or its stderr when it fails.
fn pls_client(servers: &str, strategy: &str, args: &[&str]) -> Result<String, String> {
    let out = Command::new(env!("CARGO_BIN_EXE_pls-client"))
        .args(["--servers", servers, "--strategy", strategy, "--log", "warn"])
        .args(args)
        .output()
        .expect("pls-client runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    if out.status.success() {
        Ok(text(&out.stdout))
    } else {
        Err(text(&out.stderr))
    }
}

/// The first `<prefix>/<i>` whose ordered groups under placement seeds 0
/// and 1 (the servers' default and the old client default) `differ`.
fn key_where(
    view: &Membership,
    prefix: &str,
    differ: impl Fn(Vec<u64>, Vec<u64>) -> bool,
) -> String {
    let group =
        |seed, key: &str| GroupRouter::new(DEFAULT_GROUP_SIZE, seed).group(view, key.as_bytes());
    let mut keys = (0..1_000).map(|i| format!("{prefix}/{i}"));
    keys.find(|key| differ(group(0, key), group(1, key))).expect("a key the seeds route apart")
}

#[test]
fn the_cli_routes_keys_as_servers_started_with_default_flags() {
    let (listeners, addrs) = bind_all(DEFAULT_GROUP_SIZE + 1);
    let spec = StrategySpec::round_robin(2);
    let _servers: Vec<ServerHandle> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let cfg = ServerConfig::new(i, addrs.clone(), spec, 0);
            Server::with_listener(cfg, listener).expect("server").0.spawn()
        })
        .collect();
    let servers = addrs.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(",");
    let view = Membership::bootstrap(addrs.iter().map(|a| a.to_string()));

    // Round-Robin-2: updates go to the coordinator, group position 0; under
    // seed 1 it is a member outside the key's group.
    let round = key_where(&view, "round", |zero, one| !zero.contains(&one[0]));
    pls_client(&servers, "round:2", &["place", &round, "a,b,c,d"]).expect("place");
    let found = pls_client(&servers, "round:2", &["lookup", &round, "3"]).expect("lookup");
    assert!(found.starts_with("3 entries for"), "{round}: {found}");

    // Fixed-3 on a key whose group has another member under seed 1.
    let fixed = key_where(&view, "fixed", |mut zero, mut one| {
        zero.sort_unstable();
        one.sort_unstable();
        zero != one
    });
    pls_client(&servers, "fixed:3", &["place", &fixed, "a,b,c,d", "fixed:3"]).expect("place");
    let found = pls_client(&servers, "fixed:3", &["lookup", &fixed, "2"]).expect("lookup");
    assert!(found.starts_with("2 entries for"), "{fixed}: {found}");
}
