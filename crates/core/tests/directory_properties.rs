//! Model-based property tests for the multi-key [`Directory`]: seeded
//! random interleavings of operations across keys with heterogeneous
//! per-key strategies, checked against one reference model per key.
//!
//! [`Directory`]: pls_core::directory::Directory

use std::collections::{HashMap, HashSet};

use pls_core::directory::{Directory, StrategyAssignment};
use pls_core::{DetRng, StrategySpec};

#[derive(Debug, Clone)]
enum Op {
    Place { key: u8, count: u8 },
    Add { key: u8 },
    Delete { key: u8, idx: u8 },
    Lookup { key: u8, t: u8 },
}

const KEYS: u8 = 4;

fn random_op(rng: &mut DetRng) -> Op {
    let key = rng.below(KEYS as usize) as u8;
    match rng.below(4) {
        0 => Op::Place { key, count: 1 + rng.below(29) as u8 },
        1 => Op::Add { key },
        2 => Op::Delete { key, idx: rng.next_u64() as u8 },
        _ => Op::Lookup { key, t: rng.next_u64() as u8 },
    }
}

/// Hetero assignment: key 0 full replication, 1 fixed, 2 round-robin,
/// 3 hash.
fn assignment() -> StrategyAssignment<u8> {
    StrategyAssignment::PerKey(Box::new(|key: &u8| match key % 4 {
        0 => StrategySpec::full_replication(),
        1 => StrategySpec::fixed(8),
        2 => StrategySpec::round_robin(2),
        _ => StrategySpec::hash(2),
    }))
}

/// `ctx` opens every message: which history this is.
fn run_history(ops: &[Op], seed: u64, ctx: &str) {
    let n = 5;
    let mut dir: Directory<u8, u64> = Directory::new(n, assignment(), seed).unwrap();
    let mut live: HashMap<u8, Vec<u64>> = HashMap::new();
    let mut next = 0u64;

    for (step, op) in ops.iter().enumerate() {
        let ctx = &format!("{ctx}, step {step} of {ops:?}");
        match *op {
            Op::Place { key, count } => {
                let entries: Vec<u64> = (0..count as u64).map(|i| next + i).collect();
                next += count as u64;
                dir.place(key, entries.clone()).expect(ctx);
                live.insert(key, entries);
            }
            Op::Add { key } => {
                let v = next;
                next += 1;
                dir.add(&key, v).expect(ctx);
                live.entry(key).or_default().push(v);
            }
            Op::Delete { key, idx } => {
                let Some(entries) = live.get_mut(&key) else {
                    continue;
                };
                if entries.is_empty() {
                    continue;
                }
                let v = entries.swap_remove(idx as usize % entries.len());
                dir.delete(&key, &v).expect(ctx);
            }
            Op::Lookup { key, t } => {
                let t = 1 + (t as usize % 20);
                let result = dir.partial_lookup(&key, t).expect(ctx);
                let key_live: HashSet<u64> =
                    live.get(&key).map(|v| v.iter().copied().collect()).unwrap_or_default();
                let mut seen = HashSet::new();
                for v in result.entries() {
                    assert!(seen.insert(*v), "{ctx}: key {key}: duplicate answer");
                    assert!(
                        key_live.contains(v),
                        "{ctx}: key {key}: answer {v} not live (cross-key leak?)"
                    );
                }
                assert!(result.entries().len() <= t, "{ctx}: key {key}: over-delivered");
                // Complete-coverage strategies satisfy t when possible.
                let spec = dir.spec_for(&key);
                let complete = matches!(
                    spec,
                    StrategySpec::FullReplication
                        | StrategySpec::RoundRobin { .. }
                        | StrategySpec::Hash { .. }
                );
                if complete && key_live.len() >= t {
                    assert!(result.is_satisfied(t), "{ctx}: key {key} ({spec}): unsatisfied t={t}");
                }
            }
        }
        // Cross-key isolation: every key's stored entries belong to it.
        for key in 0..KEYS {
            let key_live: HashSet<u64> =
                live.get(&key).map(|v| v.iter().copied().collect()).unwrap_or_default();
            for i in 0..n {
                for v in dir.server_entries(&key, pls_core::ServerId::new(i as u32)) {
                    assert!(key_live.contains(v), "{ctx}: key {key}: stale or leaked entry {v}");
                }
            }
        }
    }
}

#[test]
fn directory_histories_hold_invariants() {
    for case in 0..256u64 {
        let mut rng = DetRng::seed_from(0xD1_2000 ^ case);
        let ops: Vec<Op> = (0..1 + rng.below(49)).map(|_| random_op(&mut rng)).collect();
        run_history(&ops, rng.next_u64(), &format!("case {case}"));
    }
}

/// Deterministic regression: a dense interleaving across all keys.
#[test]
fn dense_interleaving_smoke() {
    let ops: Vec<Op> = (0..60)
        .map(|i| match i % 5 {
            0 => Op::Place { key: (i % 4) as u8, count: 10 + (i % 7) as u8 },
            1 => Op::Add { key: ((i + 1) % 4) as u8 },
            2 => Op::Delete { key: ((i + 2) % 4) as u8, idx: i as u8 },
            3 => Op::Lookup { key: ((i + 3) % 4) as u8, t: 5 },
            _ => Op::Lookup { key: (i % 4) as u8, t: 12 },
        })
        .collect();
    run_history(&ops, 99, "dense interleaving");
}
