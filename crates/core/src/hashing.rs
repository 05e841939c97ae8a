//! The hash-function family used by Hash-y (§3.5).
//!
//! Hash-y assigns entry `v` to servers `f_1(v), f_2(v), …, f_y(v)`. Each
//! `f_i` must be (a) computable by *any* node from `v` alone — that is the
//! whole point: updates go straight to the affected servers with no
//! broadcast — and (b) stable across processes so a restarted client agrees
//! with the cluster. We therefore avoid `RandomState`-style per-process
//! seeding and build the family from a fixed base seed: `f_i(v) =
//! splitmix64(seed_i ⊕ H(v)) mod n`, where `H` is `std`'s SipHash with
//! fixed keys and `seed_i` is derived from the base seed by splitmix64
//! iteration.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use pls_net::{splitmix64, ServerId};

/// FNV-1a 64-bit hash of a byte string: seed-free, stable across
/// processes. Membership groups, shard routing and the anti-entropy
/// digests all start from it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A family of `y` independent hash functions onto `n` servers.
///
/// # Example
///
/// ```
/// use pls_core::HashFamily;
/// let family = HashFamily::new(3, 10, 0xC0FFEE);
/// let servers = family.assign(&"song.mp3");
/// assert!(!servers.is_empty() && servers.len() <= 3);
/// // Deterministic: any node computes the same assignment.
/// assert_eq!(servers, HashFamily::new(3, 10, 0xC0FFEE).assign(&"song.mp3"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashFamily {
    seeds: Vec<u64>,
    n: usize,
}

impl HashFamily {
    /// Creates a family of `y` functions mapping onto servers `0..n`,
    /// derived from `base_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `y` or `n` is zero.
    pub fn new(y: usize, n: usize, base_seed: u64) -> Self {
        assert!(y > 0, "need at least one hash function");
        assert!(n > 0, "need at least one server");
        let mut seeds = Vec::with_capacity(y);
        let mut s = splitmix64(base_seed);
        for _ in 0..y {
            seeds.push(s);
            s = splitmix64(s);
        }
        HashFamily { seeds, n }
    }

    /// Number of hash functions (`y`).
    pub fn y(&self) -> usize {
        self.seeds.len()
    }

    /// Number of servers hashed onto (`n`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// `f_i(v)` for the `i`-th function (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `i >= y`.
    pub fn server_for<V: Hash>(&self, i: usize, v: &V) -> ServerId {
        self.server_at(i, entry_hash(v))
    }

    /// `f_i` of an entry whose `H(v)` is `hv`.
    fn server_at(&self, i: usize, hv: u64) -> ServerId {
        let mixed = splitmix64(self.seeds[i] ^ hv);
        ServerId::new((mixed % self.n as u64) as u32)
    }

    /// The *distinct* servers `{f_1(v), …, f_y(v)}`, in function order
    /// with duplicates removed — the paper stores a colliding entry only
    /// once. Hashes `v` once, before this returns, and allocates nothing.
    pub fn assigned<V: Hash>(&self, v: &V) -> impl Iterator<Item = ServerId> + '_ {
        let hv = entry_hash(v);
        (0..self.seeds.len()).filter_map(move |i| {
            let s = self.server_at(i, hv);
            (0..i).all(|earlier| self.server_at(earlier, hv) != s).then_some(s)
        })
    }

    /// [`assigned`](HashFamily::assigned), collected.
    pub fn assign<V: Hash>(&self, v: &V) -> Vec<ServerId> {
        self.assigned(v).collect()
    }
}

/// `H(v)`: `std`'s SipHash with its fixed default keys.
fn entry_hash<V: Hash>(v: &V) -> u64 {
    let mut hasher = DefaultHasher::new();
    v.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pls_net::DetRng;

    #[test]
    fn deterministic_across_instances() {
        let a = HashFamily::new(4, 7, 99);
        let b = HashFamily::new(4, 7, 99);
        for v in 0u64..100 {
            assert_eq!(a.assign(&v), b.assign(&v));
        }
    }

    #[test]
    fn assignments_are_the_ones_every_earlier_build_computed() {
        // A client, and a server restarted on a newer build, must agree
        // with the cluster about where an entry lives: these rows were
        // computed before `assigned` replaced one SipHash per function.
        type Row = ((usize, usize, u64), [&'static [u32]; 4], [&'static [u32]; 2], &'static [u32]);
        let table: [Row; 4] = [
            ((1, 10, 0), [&[7], &[7], &[0], &[2]], [&[6], &[1]], &[1]),
            ((2, 10, 42), [&[4, 5], &[4, 9], &[1, 5], &[1, 0]], [&[3, 2], &[9, 3]], &[2, 8]),
            (
                (3, 7, 0xC0FFEE),
                [&[5, 0], &[3, 5, 4], &[2, 4, 3], &[1, 3]],
                [&[6, 3, 2], &[2, 5, 6]],
                &[5],
            ),
            (
                (8, 3, 5),
                [&[1, 2, 0], &[1, 0, 2], &[0, 1], &[0, 2, 1]],
                [&[0, 2, 1], &[1, 0, 2]],
                &[1, 2, 0],
            ),
        ];
        let ids = |servers: &[u32]| servers.iter().map(|s| ServerId::new(*s)).collect::<Vec<_>>();
        for ((y, n, seed), ints, strs, bytes) in table {
            let f = HashFamily::new(y, n, seed);
            for (v, servers) in [0u64, 1, 7, 1 << 40].iter().zip(ints) {
                assert_eq!(f.assign(v), ids(servers), "({y}, {n}, {seed}) {v}");
            }
            for (v, servers) in ["", "song.mp3"].iter().zip(strs) {
                assert_eq!(f.assign(v), ids(servers), "({y}, {n}, {seed}) {v:?}");
            }
            let entry = b"key00007-entry0000000000042".to_vec();
            assert_eq!(f.assign(&entry), ids(bytes), "({y}, {n}, {seed}) bytes");
        }
    }

    #[test]
    fn assigned_is_the_function_by_function_walk_without_the_vec() {
        for (y, n) in [(1, 1), (1, 10), (2, 10), (3, 7), (5, 4), (8, 3)] {
            let f = HashFamily::new(y, n, 77);
            for v in 0u64..300 {
                let mut walked: Vec<ServerId> = Vec::new();
                for s in (0..y).map(|i| f.server_for(i, &v)) {
                    if !walked.contains(&s) {
                        walked.push(s);
                    }
                }
                assert!(f.assigned(&v).eq(walked.iter().copied()), "y={y} n={n} v={v}");
                assert_eq!(f.assign(&v), walked);
            }
        }
    }

    #[test]
    fn different_seeds_give_different_assignments() {
        let a = HashFamily::new(2, 10, 1);
        let b = HashFamily::new(2, 10, 2);
        let same = (0u64..200).filter(|v| a.assign(v) == b.assign(v)).count();
        // With 10 servers and 2 functions, identical assignments for all
        // 200 entries would be astronomically unlikely.
        assert!(same < 50, "{same} identical assignments");
    }

    #[test]
    fn assignment_size_bounds() {
        let f = HashFamily::new(3, 10, 5);
        for v in 0u64..500 {
            let servers = f.assign(&v);
            assert!(!servers.is_empty() && servers.len() <= 3);
            // All in range, all distinct.
            let mut seen = std::collections::HashSet::new();
            for s in servers {
                assert!(s.index() < 10);
                assert!(seen.insert(s));
            }
        }
    }

    #[test]
    fn collisions_collapse_when_y_exceeds_n() {
        let f = HashFamily::new(8, 3, 5);
        for v in 0u64..100 {
            assert!(f.assign(&v).len() <= 3);
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        // The expected per-server load for Hash-1 over h entries is h/n.
        let f = HashFamily::new(1, 10, 123);
        let mut counts = [0usize; 10];
        let h = 20_000u64;
        for v in 0..h {
            counts[f.server_for(0, &v).index()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let expected = h as f64 / 10.0;
            assert!(
                (c as f64 - expected).abs() < expected * 0.1,
                "server {i} load {c} vs expected {expected}"
            );
        }
    }

    /// Strings hash just as well as integers: assignments are stable
    /// and within bounds for arbitrary entry payloads.
    #[test]
    fn arbitrary_entries_assign_in_range() {
        for case in 0..256u64 {
            let mut rng = DetRng::seed_from(0x4A54_0000 ^ case);
            // Any scalar value; a surrogate becomes U+FFFD.
            let v: String = (0..rng.below(33))
                .map(|_| char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'))
                .collect();
            let (y, n) = (1 + rng.below(5), 1 + rng.below(19));
            let servers = HashFamily::new(y, n, 42).assign(&v);
            let said =
                format!("case {case}: {v:?} under Hash-{y} on {n} servers went to {servers:?}");
            assert!(!servers.is_empty(), "{said}");
            assert!(servers.len() <= y.min(n), "{said}");
            assert!(servers.iter().all(|s| s.index() < n), "{said}");
            assert_eq!(servers, HashFamily::new(y, n, 42).assign(&v), "{said}, then elsewhere");
        }
    }
}
