//! Model-based property tests: seeded random operation sequences against
//! every strategy, checked after each step against a reference model
//! (the live entry set) and the strategy's structural invariants. Every
//! failure names its case; `history(spec, case)` replays it.

use std::collections::HashSet;

use pls_core::{Cluster, DetRng, ServerId, StrategySpec};

/// Histories per strategy.
const CASES: u64 = 256;

/// One step of a generated history.
#[derive(Debug, Clone)]
enum Op {
    Place(u8),  // place this many fresh entries
    Add,        // add one fresh entry
    Delete(u8), // delete the (i mod live)-th live entry
    Lookup(u8), // partial_lookup with t = 1 + (raw mod 40)
}

fn random_op(rng: &mut DetRng) -> Op {
    match rng.below(4) {
        0 => Op::Place(1 + rng.below(39) as u8),
        1 => Op::Add,
        2 => Op::Delete(rng.next_u64() as u8),
        _ => Op::Lookup(rng.next_u64() as u8),
    }
}

/// Checks the structural invariants of one strategy against the model.
/// `ctx` opens every message: which strategy, case and step this is.
fn check_invariants(cluster: &Cluster<u64>, live: &HashSet<u64>, spec: StrategySpec, ctx: &str) {
    let n = cluster.n();
    let placement = cluster.placement();

    // Universal: no server stores a dead entry.
    for v in placement.distinct_entries() {
        assert!(live.contains(&v), "{ctx}: dead entry {v} still stored");
    }

    match spec {
        StrategySpec::FullReplication => {
            for i in 0..n {
                let row: HashSet<u64> =
                    cluster.server_entries(ServerId::new(i as u32)).iter().copied().collect();
                assert_eq!(&row, live, "{ctx}: server {i} diverged from live set");
            }
        }
        StrategySpec::Fixed { x } => {
            let first: HashSet<u64> =
                cluster.server_entries(ServerId::new(0)).iter().copied().collect();
            assert!(first.len() <= x, "{ctx}: over capacity");
            for i in 1..n {
                let row: HashSet<u64> =
                    cluster.server_entries(ServerId::new(i as u32)).iter().copied().collect();
                assert_eq!(row, first, "{ctx}: servers {i} and 0 differ");
            }
        }
        StrategySpec::RandomServer { x } => {
            for i in 0..n {
                let len = cluster.server_entries(ServerId::new(i as u32)).len();
                assert!(len <= x, "{ctx}: server {i} holds {len} > x");
            }
        }
        StrategySpec::RoundRobin { y } => {
            // Positions are contiguous in [head, tail), hold one entry on
            // exactly its y consecutive servers, and cover the live set.
            let (head, tail) = cluster.rr_counters().expect("coordinator");
            assert_eq!((tail - head) as usize, live.len(), "{ctx}: counter span");
            let mut seen = HashSet::new();
            for pos in head..tail {
                let base = ServerId::new((pos % n as u64) as u32);
                let mut value = None;
                for k in 0..y {
                    let holder = base.wrapping_add(k, n);
                    let v = cluster
                        .engine(holder)
                        .rr_positions()
                        .find(|(p, _)| *p == pos)
                        .map(|(_, v)| *v)
                        .unwrap_or_else(|| panic!("{ctx}: position {pos} missing on {holder}"));
                    if let Some(prev) = value {
                        assert_eq!(prev, v, "{ctx}: position {pos} disagrees");
                    }
                    value = Some(v);
                }
                seen.insert(value.expect("y >= 1"));
            }
            assert_eq!(&seen, live, "{ctx}: live set mismatch");
        }
        StrategySpec::Hash { .. } => {
            // Every live entry sits exactly on its hash assignment.
            let probe = cluster.engine(ServerId::new(0));
            for &v in live {
                for i in 0..n {
                    let s = ServerId::new(i as u32);
                    let should = probe.assigns_to(&v, s);
                    let does = cluster.server_entries(s).contains(&v);
                    assert_eq!(should, does, "{ctx}: entry {v} on {s}");
                }
            }
        }
    }
}

/// Runs history number `case` of a strategy: 1 to 39 ops on six servers.
fn history(spec: StrategySpec, case: u64) {
    let mut rng = DetRng::seed_from(0x0415_7000 ^ case);
    let ops: Vec<Op> = (0..1 + rng.below(39)).map(|_| random_op(&mut rng)).collect();
    let seed = rng.next_u64();
    let mut cluster = Cluster::new(6, spec, seed).unwrap();
    let mut live: HashSet<u64> = HashSet::new();
    let mut live_order: Vec<u64> = Vec::new(); // for index-based deletes
    let mut next = 0u64;

    for (step, op) in ops.iter().enumerate() {
        let ctx = &format!("{spec} case {case}, step {step} of {ops:?}");
        match *op {
            Op::Place(count) => {
                let entries: Vec<u64> = (0..count as u64).map(|i| next + i).collect();
                next += count as u64;
                cluster.place(entries.clone()).expect(ctx);
                live = entries.iter().copied().collect();
                live_order = entries;
            }
            Op::Add => {
                let v = next;
                next += 1;
                cluster.add(v).expect(ctx);
                live.insert(v);
                live_order.push(v);
            }
            Op::Delete(raw) => {
                if live_order.is_empty() {
                    continue;
                }
                let idx = raw as usize % live_order.len();
                let v = live_order.swap_remove(idx);
                cluster.delete(&v).expect(ctx);
                live.remove(&v);
            }
            Op::Lookup(raw) => {
                let t = 1 + (raw as usize % 40);
                let result = cluster.partial_lookup(t).expect(ctx);
                // Distinct answers, all live.
                let mut seen = HashSet::new();
                for v in result.entries() {
                    assert!(seen.insert(*v), "{ctx}: duplicate answer {v}");
                    assert!(live.contains(v), "{ctx}: dead answer {v}");
                }
                // Never more than t.
                assert!(result.entries().len() <= t, "{ctx}: over-delivered");
                // Complete-coverage strategies must satisfy t whenever the
                // live set allows.
                if live.len() >= t
                    && matches!(
                        spec,
                        StrategySpec::FullReplication
                            | StrategySpec::RoundRobin { .. }
                            | StrategySpec::Hash { .. }
                    )
                {
                    assert!(result.is_satisfied(t), "{ctx}: unsatisfied t={t}");
                }
            }
        }
        check_invariants(&cluster, &live, spec, ctx);
    }
}

#[test]
fn full_replication_history() {
    (0..CASES).for_each(|case| history(StrategySpec::full_replication(), case));
}

#[test]
fn fixed_history() {
    (0..CASES).for_each(|case| history(StrategySpec::fixed(8), case));
}

#[test]
fn random_server_history() {
    (0..CASES).for_each(|case| history(StrategySpec::random_server(8), case));
}

#[test]
fn round_robin_history() {
    (0..CASES).for_each(|case| history(StrategySpec::round_robin(3), case));
}

#[test]
fn hash_history() {
    (0..CASES).for_each(|case| history(StrategySpec::hash(2), case));
}
