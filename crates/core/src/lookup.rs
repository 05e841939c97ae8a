//! The result of a partial lookup, and §3's client procedures that
//! produce it.
//!
//! The procedures are written once, over a `probe` callback ("ask server
//! `s` for `t` random entries of its store"), and shared by the
//! single-key [`Cluster`](crate::Cluster) and the multi-key
//! [`Directory`](crate::directory::Directory), which differ only in
//! where a probe lands and what it is charged to.

use pls_net::{FailureSet, ServerId};

use crate::{DetRng, Entry, IndexedSet};

/// What a `partial_lookup(t)` returned: the merged distinct entries and
/// which servers the client contacted, in contact order.
///
/// Per the service definition (§2), the answer is *any* subset of the
/// key's entries with size ≥ `t`; merging replies from several servers can
/// return more than `t`. When the placement cannot satisfy `t` (e.g.
/// Fixed-x with `x < t`, or after deletes ate the cushion) the result
/// holds everything that was found and [`LookupResult::is_satisfied`]
/// reports `false` — the paper's "lookup failure" (§6.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupResult<V> {
    entries: Vec<V>,
    contacted: Vec<ServerId>,
}

impl<V: Entry> LookupResult<V> {
    pub(crate) fn new(entries: Vec<V>, contacted: Vec<ServerId>) -> Self {
        debug_assert!(
            {
                let mut dedup = std::collections::HashSet::new();
                entries.iter().all(|v| dedup.insert(v))
            },
            "lookup answers are distinct"
        );
        LookupResult { entries, contacted }
    }

    /// The distinct entries retrieved, in retrieval order.
    pub fn entries(&self) -> &[V] {
        &self.entries
    }

    /// The servers contacted, in order.
    pub fn contacted(&self) -> &[ServerId] {
        &self.contacted
    }

    /// Number of servers contacted — the paper's *client lookup cost*
    /// (§4.2) for this single lookup.
    pub fn servers_contacted(&self) -> usize {
        self.contacted.len()
    }

    /// Whether the lookup met its target answer size.
    pub fn is_satisfied(&self, t: usize) -> bool {
        self.entries.len() >= t
    }

    /// Consumes the result, returning the entries.
    pub fn into_entries(self) -> Vec<V> {
        self.entries
    }
}

/// The client's side of a multi-probe lookup (§3, §4.2): "probe servers
/// until at least `t` distinct entries, then return `t`". Answers are
/// moved in and the result is moved out, so the only copy of an entry
/// made during a lookup is the one that left its server.
#[derive(Debug)]
struct Merge<V> {
    t: usize,
    acc: IndexedSet<V>,
}

impl<V: Entry> Merge<V> {
    fn new(t: usize) -> Self {
        Merge { t, acc: IndexedSet::new() }
    }

    /// Whether `t` distinct entries have been gathered.
    fn is_satisfied(&self) -> bool {
        self.acc.len() >= self.t
    }

    /// Merges one server's answer; returns [`Merge::is_satisfied`].
    fn absorb(&mut self, answer: Vec<V>) -> bool {
        if self.acc.is_empty() {
            // Probing stops at `t`, so the merge ends below `t` plus one
            // answer. `t` is the caller's and may exceed anything stored:
            // never reserve beyond a few answers' worth.
            self.acc.reserve(self.t.saturating_add(answer.len()).min(4 * answer.len()));
        }
        self.acc.extend(answer);
        self.is_satisfied()
    }

    /// The answer: everything gathered, trimmed to a uniformly random
    /// `t`-subset when probing over-delivered (the fairness model of
    /// §4.5 has each entry returned with probability exactly `t/h`).
    fn finish(self, rng: &mut DetRng) -> Vec<V> {
        self.acc.into_sample(self.t, rng)
    }
}

/// Full replication and Fixed-x: one probe of a random operational
/// server.
///
/// Like the other procedures, expects at least one operational server.
pub(crate) fn single_probe<V: Entry>(
    failures: &FailureSet,
    rng: &mut DetRng,
    mut probe: impl FnMut(ServerId) -> Vec<V>,
) -> LookupResult<V> {
    let s = rng.random_operational_server(failures).expect("operational server available");
    LookupResult::new(probe(s), vec![s])
}

/// RandomServer-x and Hash-y: probe the operational servers in a
/// uniformly random order, merging, until `t` distinct entries.
pub(crate) fn random_probe<V: Entry>(
    t: usize,
    failures: &FailureSet,
    rng: &mut DetRng,
    mut probe: impl FnMut(ServerId) -> Vec<V>,
) -> LookupResult<V> {
    let mut merge = Merge::new(t);
    let mut contacted = Vec::new();
    for s in rng.shuffled_servers(failures.len()) {
        if failures.is_failed(s) {
            continue;
        }
        contacted.push(s);
        if merge.absorb(probe(s)) {
            break;
        }
    }
    LookupResult::new(merge.finish(rng), contacted)
}

/// Round-Robin-y: a random start followed by a deterministic stride-`y`
/// walk, falling back to random probing when the walk hits a failed
/// server.
pub(crate) fn stride_walk<V: Entry>(
    t: usize,
    y: usize,
    failures: &FailureSet,
    rng: &mut DetRng,
    mut probe: impl FnMut(ServerId) -> Vec<V>,
) -> LookupResult<V> {
    let n = failures.len();
    let start = rng.random_operational_server(failures).expect("operational server available");
    let mut visited = vec![false; n];
    let mut merge = Merge::new(t);
    let mut contacted = Vec::new();

    // Phase 1: the deterministic stride walk start, start+y, start+2y,
    // … — consecutive contacts share no entries, so each one adds h/n
    // fresh entries. Abandoned on the first failed server (the paper
    // switches to random probing) or when the walk cycles.
    let mut cur = start;
    while !visited[cur.index()] && !merge.is_satisfied() {
        visited[cur.index()] = true;
        if failures.is_failed(cur) {
            break;
        }
        contacted.push(cur);
        merge.absorb(probe(cur));
        cur = cur.wrapping_add(y, n);
    }

    // Phase 2: random probing over whatever operational servers the
    // walk did not reach.
    if !merge.is_satisfied() {
        let mut rest: Vec<ServerId> =
            failures.operational().filter(|s| !visited[s.index()]).collect();
        rng.shuffle(&mut rest);
        for s in rest {
            contacted.push(s);
            if merge.absorb(probe(s)) {
                break;
            }
        }
    }

    LookupResult::new(merge.finish(rng), contacted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_satisfaction() {
        let r = LookupResult::new(vec![1u32, 2, 3], vec![ServerId::new(4)]);
        assert_eq!(r.entries(), &[1, 2, 3]);
        assert_eq!(r.servers_contacted(), 1);
        assert_eq!(r.contacted(), &[ServerId::new(4)]);
        assert!(r.is_satisfied(3));
        assert!(!r.is_satisfied(4));
        assert_eq!(r.into_entries(), vec![1, 2, 3]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "distinct")]
    fn duplicate_answers_are_a_bug() {
        let _ = LookupResult::new(vec![1u32, 1], vec![]);
    }
}
