//! Elastic membership: versioned server lists and key → placement-group
//! routing (ROADMAP item 3).
//!
//! The paper fixes `n` servers that all participate in every key's
//! placement. To scale past one placement domain, this module maps each
//! key onto a small *placement group* of `g` servers drawn from a live,
//! epoch-versioned [`Membership`]; inside the group the paper's five
//! strategies run unchanged with `n = g`.
//!
//! Routing uses **multi-probe consistent hashing** (Appleton & O'Reilly
//! 2015): every member contributes exactly one point to the hash ring (no
//! virtual-node table), and each key is hashed `k` times — the key's
//! *primary* owner is the probe whose clockwise successor is nearest,
//! which flattens the load imbalance that single-probe rings suffer. The
//! placement group is the primary plus the next `g − 1` distinct members
//! in ring order, so a membership change moves only the keys whose ring
//! neighborhood actually changed.
//!
//! Two invariants matter to callers:
//!
//! * **Determinism** — `group(membership, key)` is a pure function of the
//!   membership, the key, and the router parameters. Every node that
//!   agrees on the epoch agrees on every group, including its *order*
//!   (index 0 is the group coordinator for Round-Robin).
//! * **Small-cluster compatibility** — while `|members| ≤ g` the group is
//!   all members in ascending id order, which is exactly the paper's
//!   fixed-`n` world: a cluster below the group size behaves identically
//!   to the pre-membership code.
//!
//! [`RoutingTable`] keeps the current epoch plus the previous one as a
//! one-epoch *grace overlap*: in-flight operations addressed under the
//! old epoch can still be translated while migration drains.

use pls_net::splitmix64;

use crate::hashing::fnv1a64;

/// One live server: a stable numeric id plus its dial address.
///
/// Bootstrap members get ids `0..n-1`; every later join gets
/// `max_live + 1`, and a server that rejoins under its old address keeps
/// its old id. (An id is reallocated only after the *highest* live id
/// leaves — acceptable because a zombie holding that id is also absent
/// from the membership every live node routes by.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Member {
    /// Stable server id (also the wire `from` of internal messages).
    pub id: u64,
    /// Dial address, as a string so this crate stays transport-agnostic.
    pub addr: String,
}

/// An epoch-versioned server list. Higher epoch wins, everywhere: a
/// membership is installed on a node only if its epoch is strictly
/// greater than the node's current one, so gossip converges without a
/// coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    epoch: u64,
    /// Always sorted by id, no duplicates.
    members: Vec<Member>,
}

impl Membership {
    /// The empty membership at epoch 0 — the "I know nothing" value a
    /// fetch request carries so any real view replaces it.
    pub fn empty() -> Self {
        Membership { epoch: 0, members: Vec::new() }
    }

    /// The bootstrap membership: epoch 1, ids `0..addrs.len()` in
    /// address-list order — exactly the static `--peers` world.
    pub fn bootstrap<S: Into<String>>(addrs: impl IntoIterator<Item = S>) -> Self {
        let members = addrs
            .into_iter()
            .enumerate()
            .map(|(i, a)| Member { id: i as u64, addr: a.into() })
            .collect();
        Membership { epoch: 1, members }
    }

    /// Rebuilds a membership from wire parts; sorts by id and drops
    /// duplicate ids (first occurrence wins) so a malformed frame can't
    /// smuggle an ambiguous view in.
    pub fn from_parts(epoch: u64, parts: Vec<(u64, String)>) -> Self {
        let mut members: Vec<Member> =
            parts.into_iter().map(|(id, addr)| Member { id, addr }).collect();
        members.sort_by_key(|m| m.id);
        members.dedup_by_key(|m| m.id);
        Membership { epoch, members }
    }

    /// The epoch of this view.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The members, sorted by id.
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no members are known (the epoch-0 fetch value).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// All member ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.members.iter().map(|m| m.id).collect()
    }

    /// Whether `id` is a live member.
    pub fn contains(&self, id: u64) -> bool {
        self.members.binary_search_by_key(&id, |m| m.id).is_ok()
    }

    /// The dial address of member `id`, if live.
    pub fn addr_of(&self, id: u64) -> Option<&str> {
        self.members.binary_search_by_key(&id, |m| m.id).ok().map(|i| self.members[i].addr.as_str())
    }

    /// The id of the member at `addr`, if any.
    pub fn id_of_addr(&self, addr: &str) -> Option<u64> {
        self.members.iter().find(|m| m.addr == addr).map(|m| m.id)
    }

    /// A new view with `addr` joined: epoch + 1, id = max + 1. Joining an
    /// address that is already a member is idempotent apart from the
    /// epoch bump (the old id is kept), so a rejoining server keeps its
    /// identity. Returns the new view and the joiner's id.
    pub fn with_join(&self, addr: &str) -> (Membership, u64) {
        if let Some(id) = self.id_of_addr(addr) {
            let mut next = self.clone();
            next.epoch += 1;
            return (next, id);
        }
        let id = self.members.iter().map(|m| m.id + 1).max().unwrap_or(0);
        let mut next = self.clone();
        next.epoch += 1;
        next.members.push(Member { id, addr: to_owned_addr(addr) });
        (next, id)
    }

    /// A new view with member `id` removed (a graceful leave): epoch + 1.
    /// Returns `None` if `id` is not a member or is the last one — a
    /// cluster cannot drain itself to zero.
    pub fn with_leave(&self, id: u64) -> Option<Membership> {
        if !self.contains(id) || self.members.len() <= 1 {
            return None;
        }
        let mut next = self.clone();
        next.epoch += 1;
        next.members.retain(|m| m.id != id);
        Some(next)
    }
}

fn to_owned_addr(addr: &str) -> String {
    addr.to_string()
}

/// Default placement-group size: five servers per key, enough for every
/// strategy the paper studies (Fixed-x and RandomServer-x cap `x` at the
/// group size; Round-Robin-y and Hash-y cap `y` the same way).
pub const DEFAULT_GROUP_SIZE: usize = 5;

/// Default probe count for multi-probe hashing. Appleton & O'Reilly show
/// k = 21 probes bring the peak-to-average load of a 1-point-per-node
/// ring down to ≈ 1.1× — the sweet spot they recommend.
pub const DEFAULT_PROBES: usize = 21;

/// Multi-probe consistent-hash router: key → ordered placement group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupRouter {
    group_size: usize,
    probes: usize,
    seed: u64,
}

impl GroupRouter {
    /// A router producing groups of `group_size`, derived from `seed`.
    /// Every node of a cluster must use the same `(group_size, probes,
    /// seed)` triple or they will disagree on placement.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is zero.
    pub fn new(group_size: usize, seed: u64) -> Self {
        assert!(group_size > 0, "placement groups need at least one server");
        GroupRouter { group_size, probes: DEFAULT_PROBES, seed }
    }

    /// Overrides the probe count (mostly for tests; more probes, flatter
    /// load, linearly more hashing).
    ///
    /// # Panics
    ///
    /// Panics if `probes` is zero.
    pub fn with_probes(mut self, probes: usize) -> Self {
        assert!(probes > 0, "need at least one probe");
        self.probes = probes;
        self
    }

    /// The configured group size `g`.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The ring point of member `id` — one point per member, no virtual
    /// nodes, exactly the storage bound the multi-probe paper targets.
    fn point(&self, id: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(id.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    /// The ordered placement group for `key` under `membership`: the
    /// multi-probe primary first, then the next `g − 1` distinct members
    /// clockwise around the ring. While `|members| ≤ g` this is all
    /// members in ascending id order (small-cluster compatibility).
    pub fn group(&self, membership: &Membership, key: &[u8]) -> Vec<u64> {
        let ids = membership.ids();
        if ids.len() <= self.group_size {
            return ids;
        }
        // Ring order: members sorted by point (ties by id, which cannot
        // collide). Built per call — membership changes are rare and the
        // member count is what multi-probe keeps small state for.
        let mut ring: Vec<(u64, u64)> = ids.iter().map(|&id| (self.point(id), id)).collect();
        ring.sort_unstable();
        // Multi-probe: hash the key `probes` times; the owner is the
        // probe whose clockwise successor is nearest.
        let kh = fnv1a64(key);
        let mut best: Option<(u64, usize)> = None; // (distance, ring index)
        let mut pseed = splitmix64(self.seed ^ 0xa076_1d64_78bd_642f);
        for _ in 0..self.probes {
            let h = splitmix64(pseed ^ kh);
            pseed = splitmix64(pseed);
            // Successor: first ring point ≥ h, wrapping to ring[0].
            let idx = match ring.binary_search(&(h, 0)) {
                Ok(i) => i,
                Err(i) => {
                    if i == ring.len() {
                        0
                    } else {
                        i
                    }
                }
            };
            let dist = ring[idx].0.wrapping_sub(h);
            if best.is_none_or(|(d, _)| dist < d) {
                best = Some((dist, idx));
            }
        }
        let start = best.map(|(_, i)| i).unwrap_or(0);
        (0..self.group_size).map(|off| ring[(start + off) % ring.len()].1).collect()
    }
}

/// The position of `id` inside an ordered group, i.e. the group-local
/// server index the placement engines run under.
pub fn group_index(group: &[u64], id: u64) -> Option<usize> {
    group.iter().position(|&g| g == id)
}

/// The live routing state of one node: the current membership plus the
/// previous one as a one-epoch grace overlap, and the router that maps
/// keys onto them.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    router: GroupRouter,
    current: Membership,
    previous: Option<Membership>,
}

impl RoutingTable {
    /// A table starting at `membership` with no grace predecessor.
    pub fn new(router: GroupRouter, membership: Membership) -> Self {
        RoutingTable { router, current: membership, previous: None }
    }

    /// Installs a newer view. Returns `true` (and shifts the old current
    /// into the grace slot) only when `next.epoch` is strictly greater;
    /// stale or duplicate gossip is a no-op.
    pub fn install(&mut self, next: Membership) -> bool {
        if next.epoch <= self.current.epoch {
            return false;
        }
        let old = std::mem::replace(&mut self.current, next);
        // Epoch 0 is the "know nothing" bootstrap value, not a real view
        // worth a grace window.
        self.previous = (old.epoch > 0 && !old.is_empty()).then_some(old);
        true
    }

    /// The current view.
    pub fn current(&self) -> &Membership {
        &self.current
    }

    /// The previous view, if still inside the grace overlap.
    pub fn previous(&self) -> Option<&Membership> {
        self.previous.as_ref()
    }

    /// The router in use.
    pub fn router(&self) -> &GroupRouter {
        &self.router
    }

    /// The ordered placement group for `key` under the current epoch.
    pub fn group(&self, key: &[u8]) -> Vec<u64> {
        self.router.group(&self.current, key)
    }

    /// The ordered placement group for `key` under the previous epoch,
    /// if a grace view exists and it differs from the current group.
    pub fn prev_group(&self, key: &[u8]) -> Option<Vec<u64>> {
        let prev = self.previous.as_ref()?;
        let g = self.router.group(prev, key);
        (g != self.group(key)).then_some(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:7000")).collect()
    }

    #[test]
    fn bootstrap_assigns_dense_ids_at_epoch_one() {
        let m = Membership::bootstrap(addrs(3));
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.ids(), vec![0, 1, 2]);
        assert_eq!(m.addr_of(2), Some("10.0.0.2:7000"));
        assert!(m.contains(1));
        assert!(!m.contains(3));
    }

    #[test]
    fn join_bumps_epoch_and_allocates_fresh_id() {
        let m = Membership::bootstrap(addrs(3));
        let (m2, id) = m.with_join("10.0.0.9:7000");
        assert_eq!(id, 3);
        assert_eq!(m2.epoch(), 2);
        assert_eq!(m2.ids(), vec![0, 1, 2, 3]);
        // Ids are never reused for new addresses, even after a leave.
        let m3 = m2.with_leave(3).unwrap();
        let (m4, id2) = m3.with_join("10.0.0.10:7000");
        assert_eq!(id2, 3, "leave of the max id frees it for reallocation");
        assert_eq!(m4.epoch(), 4);
    }

    #[test]
    fn rejoin_of_known_address_keeps_its_id() {
        let m = Membership::bootstrap(addrs(3));
        let (m2, id) = m.with_join("10.0.0.1:7000");
        assert_eq!(id, 1);
        assert_eq!(m2.epoch(), 2);
        assert_eq!(m2.len(), 3);
    }

    #[test]
    fn leave_rejects_unknown_and_last_member() {
        let m = Membership::bootstrap(addrs(2));
        assert!(m.with_leave(7).is_none());
        let m2 = m.with_leave(0).unwrap();
        assert_eq!(m2.ids(), vec![1]);
        assert!(m2.with_leave(1).is_none(), "cannot drain the last server");
    }

    #[test]
    fn from_parts_sorts_and_dedups() {
        let m = Membership::from_parts(
            5,
            vec![(2, "b".into()), (0, "a".into()), (2, "dup".into()), (1, "c".into())],
        );
        assert_eq!(m.ids(), vec![0, 1, 2]);
        assert_eq!(m.addr_of(2), Some("b"));
    }

    #[test]
    fn small_cluster_group_is_all_members_ascending() {
        // The compatibility guarantee: at or below the group size the
        // group is the full id list, so a 3-server cluster routes
        // exactly like the pre-membership code.
        let router = GroupRouter::new(5, 42);
        let m = Membership::bootstrap(addrs(3));
        for key in [b"a".as_ref(), b"song.mp3", b"zzz"] {
            assert_eq!(router.group(&m, key), vec![0, 1, 2]);
        }
    }

    #[test]
    fn groups_are_deterministic_distinct_and_sized() {
        let router = GroupRouter::new(5, 42);
        let m = Membership::bootstrap(addrs(20));
        for i in 0..200u32 {
            let key = format!("key-{i}").into_bytes();
            let g = router.group(&m, &key);
            assert_eq!(g, router.group(&m, &key), "determinism");
            assert_eq!(g.len(), 5);
            let mut sorted = g.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "distinct members");
            for id in g {
                assert!(m.contains(id));
            }
        }
    }

    #[test]
    fn all_nodes_agree_on_group_order() {
        // Group order is part of the contract (index 0 coordinates RR);
        // two routers with the same parameters must agree on it.
        let a = GroupRouter::new(3, 7).with_probes(8);
        let b = GroupRouter::new(3, 7).with_probes(8);
        let m = Membership::bootstrap(addrs(10));
        for i in 0..100u32 {
            let key = format!("k{i}").into_bytes();
            assert_eq!(a.group(&m, &key), b.group(&m, &key));
        }
    }

    #[test]
    fn primary_load_is_flat_under_multi_probe() {
        // The whole point of multi-probe: one point per node and still a
        // low peak-to-average primary load.
        let router = GroupRouter::new(1, 9);
        let m = Membership::bootstrap(addrs(16));
        let mut counts = vec![0usize; 16];
        let keys = 16_000u32;
        for i in 0..keys {
            let key = format!("load-{i}").into_bytes();
            counts[router.group(&m, &key)[0] as usize] += 1;
        }
        let avg = keys as f64 / 16.0;
        let peak = *counts.iter().max().unwrap() as f64;
        let trough = *counts.iter().min().unwrap() as f64;
        assert!(peak / avg < 1.35, "peak-to-average {:.2} too high: {counts:?}", peak / avg);
        assert!(trough > 0.0, "a server got no keys at all: {counts:?}");
    }

    #[test]
    fn membership_change_moves_a_bounded_fraction_of_placements() {
        // Consistent hashing's reason to exist: a join moves roughly
        // g/(n+1) of the (key, server) placements, not all of them.
        let router = GroupRouter::new(5, 11);
        let m = Membership::bootstrap(addrs(20));
        let (m2, _) = m.with_join("10.0.9.9:7000");
        let keys: Vec<Vec<u8>> = (0..2000u32).map(|i| format!("mv-{i}").into_bytes()).collect();
        let mut moved_pairs = 0usize;
        let mut total_pairs = 0usize;
        for key in &keys {
            let before: std::collections::HashSet<u64> =
                router.group(&m, key).into_iter().collect();
            let after: std::collections::HashSet<u64> =
                router.group(&m2, key).into_iter().collect();
            total_pairs += before.len();
            moved_pairs += before.difference(&after).count();
        }
        let frac = moved_pairs as f64 / total_pairs as f64;
        assert!(frac < 0.35, "join moved {:.0}% of placements", frac * 100.0);
        assert!(moved_pairs > 0, "a join that moves nothing rebalances nothing");
    }

    #[test]
    fn group_index_finds_local_position() {
        assert_eq!(group_index(&[4, 2, 9], 2), Some(1));
        assert_eq!(group_index(&[4, 2, 9], 7), None);
    }

    #[test]
    fn routing_table_installs_only_newer_epochs() {
        let router = GroupRouter::new(5, 1);
        let m1 = Membership::bootstrap(addrs(3));
        let mut table = RoutingTable::new(router, m1.clone());
        assert!(!table.install(m1.clone()), "same epoch rejected");
        assert!(!table.install(Membership::empty()), "epoch 0 rejected");
        let (m2, _) = m1.with_join("10.0.0.9:7000");
        assert!(table.install(m2.clone()));
        assert_eq!(table.current().epoch(), 2);
        assert_eq!(table.previous().map(Membership::epoch), Some(1));
        // Installing epoch 4 directly shifts the grace window forward.
        let (m3, _) = m2.with_join("10.0.0.10:7000");
        let (m4, _) = m3.with_join("10.0.0.11:7000");
        assert!(table.install(m4));
        assert_eq!(table.previous().map(Membership::epoch), Some(2));
    }

    #[test]
    fn prev_group_exists_only_while_groups_differ() {
        let router = GroupRouter::new(5, 3);
        let m1 = Membership::bootstrap(addrs(8));
        let mut table = RoutingTable::new(router.clone(), m1.clone());
        assert!(table.prev_group(b"k").is_none(), "no grace view at bootstrap");
        let (m2, _) = m1.with_join("10.0.0.99:7000");
        table.install(m2.clone());
        // Some keys' groups changed with the join; exactly those report a
        // grace group, and it matches the old epoch's routing.
        let mut any_changed = false;
        for i in 0..200u32 {
            let key = format!("g{i}").into_bytes();
            match table.prev_group(&key) {
                Some(prev) => {
                    any_changed = true;
                    assert_eq!(prev, router.group(&m1, &key));
                    assert_ne!(prev, table.group(&key));
                }
                None => assert_eq!(router.group(&m1, &key), router.group(&m2, &key)),
            }
        }
        assert!(any_changed, "a join over 8 servers with g=5 must move something");
    }
}
