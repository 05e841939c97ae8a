//! Cross-crate integration tests: simulator ↔ live cluster agreement,
//! advisor recommendations validated against real workloads, and
//! placement invariants under churn.

use std::collections::HashSet;

use partial_lookup::core::advisor::{recommend, Requirements};
use partial_lookup::metrics::unfairness;
use partial_lookup::sim::workload::{LifetimeKind, WorkloadConfig};
use partial_lookup::sim::Simulation;
use partial_lookup::{Cluster, DetRng, ServerId, StrategySpec};

/// The simulated cluster and the live TCP cluster run the *same*
/// `NodeEngine` state machine. For deterministic strategies the per-server
/// entry sets must come out identical.
#[test]
fn simulated_and_live_placements_agree() {
    // The live server seeds each key's engine with `seed ^ hash(key)`
    // (so different keys randomize independently); the simulated twin is
    // seeded by the same function.
    use partial_lookup::cluster::{Client, ClientConfig, Server, ServerConfig};
    use partial_lookup::wire::shard::key_seed;

    let n = 5;
    let seed = 77;
    for spec in [
        StrategySpec::full_replication(),
        StrategySpec::fixed(4),
        StrategySpec::round_robin(2),
        StrategySpec::hash(2),
    ] {
        // Simulated placement (entries as byte strings, like the wire).
        let entries: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i]).collect();
        let mut sim_cluster: Cluster<Vec<u8>> =
            Cluster::new(n, spec, key_seed(seed, b"k")).unwrap();
        sim_cluster.place(entries.clone()).unwrap();

        // Live placement.
        let mut listeners = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..n {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            addrs.push(l.local_addr().unwrap());
            listeners.push(l);
        }
        let mut handles = Vec::new();
        for (i, l) in listeners.into_iter().enumerate() {
            let cfg = ServerConfig::new(i, addrs.clone(), spec, seed);
            let (server, _) = Server::with_listener(cfg, l).unwrap();
            handles.push(server.spawn());
        }
        let server_addrs = addrs.clone();
        let mut client = Client::connect(ClientConfig::new(addrs, spec, 1));
        client.place(b"k", entries).unwrap();

        // Hash-y assignments depend only on the shared family, so the
        // per-server sets must match exactly. For the other deterministic
        // strategies likewise. (The live engine seeds per *key*, so
        // compare set sizes for randomized placement and exact sets for
        // content-deterministic ones.)
        for (i, &server_addr) in server_addrs.iter().enumerate() {
            let sim_set: HashSet<Vec<u8>> =
                sim_cluster.server_entries(ServerId::new(i as u32)).iter().cloned().collect();
            // Probe with a huge t returns everything the server stores.
            let live_raw = {
                use partial_lookup::cluster::frame::{read_frame, write_frame};
                use partial_lookup::wire::proto::{Request, Response};
                let mut stream = std::net::TcpStream::connect(server_addr).unwrap();
                let req = Request::Probe { key: b"k".to_vec(), t: u32::MAX };
                write_frame(&mut stream, 1, 0, &req.encode()).unwrap();
                let (_, _, payload) = read_frame(&mut stream).unwrap().unwrap();
                match Response::decode(&payload).unwrap() {
                    Response::Entries(e) => e,
                    other => panic!("unexpected {other:?}"),
                }
            };
            let live_set: HashSet<Vec<u8>> = live_raw.into_iter().collect();
            match spec {
                StrategySpec::FullReplication
                | StrategySpec::Fixed { .. }
                | StrategySpec::RoundRobin { .. }
                | StrategySpec::Hash { .. } => {
                    assert_eq!(sim_set, live_set, "{spec} server {i}");
                }
                StrategySpec::RandomServer { .. } => unreachable!(),
            }
        }
        drop(handles); // kills the servers
    }
}

/// The advisor's pick actually serves the workload it was asked about.
#[test]
fn advisor_recommendations_hold_up() {
    // Fairness-sensitive, static workload: recommendation must yield
    // (near-)zero unfairness.
    let req = Requirements::new(10, 100, 20).fairness_required(true);
    let spec = recommend(&req);
    let mut cluster = Cluster::new(10, spec, 5).unwrap();
    let universe: Vec<u64> = (0..100).collect();
    cluster.place(universe.clone()).unwrap();
    let u = unfairness::measure_instance(&mut cluster, &universe, 20, 3000);
    assert!(u < 0.1, "{spec} unfairness {u}");

    // Update-heavy, small-fraction workload: recommendation must survive
    // churn with a low lookup failure rate.
    let req = Requirements::new(10, 400, 15).update_heavy(true);
    let spec = recommend(&req);
    let cluster = Cluster::new(10, spec, 6).unwrap();
    let workload = WorkloadConfig {
        arrival_mean: 10.0,
        steady_h: 400,
        lifetime: LifetimeKind::Exponential,
        updates: 3000,
        seed: 9,
    }
    .generate();
    let mut sim = Simulation::new(cluster, workload).unwrap();
    let mut failures = 0;
    let mut lookups = 0;
    while sim.remaining() > 0 {
        sim.run(50).unwrap();
        let r = sim.cluster_mut().partial_lookup(15).unwrap();
        lookups += 1;
        if !r.is_satisfied(15) {
            failures += 1;
        }
    }
    assert!(
        (failures as f64) / (lookups as f64) < 0.05,
        "{spec}: {failures}/{lookups} lookups failed"
    );
}

/// Under any valid update sequence, every stored entry is live, and the
/// complete-placement strategies cover exactly the live set.
#[test]
fn placement_tracks_live_set_under_churn() {
    for spec in [
        StrategySpec::full_replication(),
        StrategySpec::fixed(30),
        StrategySpec::random_server(30),
        StrategySpec::round_robin(2),
        StrategySpec::hash(2),
    ] {
        let cluster = Cluster::new(8, spec, 21).unwrap();
        let workload = WorkloadConfig {
            arrival_mean: 10.0,
            steady_h: 60,
            lifetime: LifetimeKind::ZipfLike,
            updates: 2000,
            seed: 22,
        }
        .generate();
        let mut sim = Simulation::new(cluster, workload).unwrap();
        while sim.remaining() > 0 {
            sim.run(250).unwrap();
            let live: HashSet<u64> = sim.live().iter().copied().collect();
            let placement = sim.cluster().placement();
            for v in placement.distinct_entries() {
                assert!(live.contains(&v), "{spec}: stored entry {v} is not live");
            }
            match spec {
                StrategySpec::FullReplication
                | StrategySpec::RoundRobin { .. }
                | StrategySpec::Hash { .. } => {
                    assert_eq!(
                        placement.coverage(),
                        live.len(),
                        "{spec}: complete strategies cover the live set"
                    );
                }
                _ => {}
            }
        }
    }
}

/// Random failure/recovery churn: lookups keep succeeding whenever the
/// surviving coverage allows, and never touch failed servers.
#[test]
fn lookups_respect_failures_under_random_outages() {
    for spec in [
        StrategySpec::full_replication(),
        StrategySpec::random_server(25),
        StrategySpec::round_robin(3),
        StrategySpec::hash(3),
    ] {
        let mut cluster = Cluster::new(10, spec, 31).unwrap();
        cluster.place((0..100u64).collect()).unwrap();
        let mut rng = DetRng::seed_from(32);
        for _ in 0..300 {
            let server = ServerId::new(rng.below(10) as u32);
            if rng.coin_flip(0.5) {
                cluster.fail_server(server);
            } else {
                cluster.recover_server(server);
            }
            if cluster.failures().operational_count() == 0 {
                cluster.recover_server(server);
            }
            let t = 1 + rng.below(30);
            let surviving = cluster.placement().coverage_surviving(cluster.failures());
            let result = cluster.partial_lookup(t).unwrap();
            for s in result.contacted() {
                assert!(!cluster.failures().is_failed(*s), "{spec} touched failed {s}");
            }
            if surviving >= t {
                assert!(result.is_satisfied(t), "{spec}: t={t} with coverage {surviving}");
            }
        }
    }
}
