//! The client's side of the service, written once: §3's lookup procedure
//! as a plan that does no I/O, and §5's rule for where an update goes.
//!
//! [`LookupPlan`] decides *whom to probe next* and *when enough has been
//! gathered*. It sends nothing and waits for nothing: the caller calls
//! [`next`](LookupPlan::next), does the probe its own way, and reports
//! [`answered`](LookupPlan::answered) or
//! [`unreachable`](LookupPlan::unreachable). Three callers drive it:
//!
//! * [`Cluster`](crate::Cluster) and
//!   [`Directory`](crate::directory::Directory) probe an in-process
//!   engine on the spot (`sample_refs(t)`) and report servers in their
//!   [`FailureSet`] unreachable;
//! * `pls-cluster`'s TCP client sends each probe as a task, keeps one
//!   (plus a hedge) in flight, and reports answers and peer faults as
//!   they come back — `next` never waits for an outstanding answer, which
//!   is all that hedging needs from the plan.
//!
//! The plan owns the probe order, the `contacted` list, the
//! [`IndexedSet`] merge and the uniform trim to `t`. It holds answers in
//! the form they arrive in ([`Answer`]): entries that came off a socket
//! are moved in and moved out; references into in-process stores are
//! merged and trimmed as references, and only the entries of the result
//! are copied. Either way a lookup copies no entry it does not return.
//! An answer joins the merge through [`IndexedSet`]'s `extend`, which
//! hashes a batch of entries before it probes for any of them, so the
//! first reads of an answer's entries overlap instead of queueing.
//!
//! In process, a lookup whose result is dropped reaches no allocator.
//! `Cluster` and `Directory` each lend every lookup one [`Bookkeeping`]
//! and keep a small spare pool: a [`LookupResult`] they handed out gives
//! its vector and its entries back to it when dropped — at most four
//! vectors and 128 entries, past which a drop frees as it always did — and
//! the next result is written over them, a `&V` answer with `clone_from`,
//! so a `Vec<u8>` entry reuses its buffer. The draws, the probes and the
//! entries are the same either way. A caller that keeps its entries
//! ([`into_entries`](LookupResult::into_entries)) gives nothing back, and
//! the TCP client's plan has no owner: it allocates its own bookkeeping.

use std::hash::Hash;
use std::mem::take;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pls_net::{FailureSet, ServerId};

use crate::{DetRng, Entry, IndexedSet, ServiceError, StrategySpec};

/// The servers a lookup contacted, in contact order: up to six ids
/// inline — few lookups ask more servers than that — and the whole list
/// in a `Vec` past that, so the common lookup's bookkeeping never
/// reaches the allocator.
#[derive(Clone)]
pub(crate) enum Contacted {
    Inline([ServerId; Contacted::INLINE], usize),
    Spilled(Vec<ServerId>),
}

impl Contacted {
    const INLINE: usize = 6;

    fn new() -> Self {
        Contacted::Inline([ServerId::new(0); Contacted::INLINE], 0)
    }

    fn push(&mut self, s: ServerId) {
        match self {
            Contacted::Inline(ids, len) if *len < Contacted::INLINE => {
                ids[*len] = s;
                *len += 1;
            }
            Contacted::Inline(ids, _) => {
                let mut all = Vec::with_capacity(2 * Contacted::INLINE);
                all.extend_from_slice(ids);
                all.push(s);
                *self = Contacted::Spilled(all);
            }
            Contacted::Spilled(all) => all.push(s),
        }
    }

    fn as_slice(&self) -> &[ServerId] {
        match self {
            Contacted::Inline(ids, len) => &ids[..*len],
            Contacted::Spilled(all) => all,
        }
    }
}

impl From<Vec<ServerId>> for Contacted {
    fn from(all: Vec<ServerId>) -> Self {
        Contacted::Spilled(all)
    }
}

impl PartialEq for Contacted {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Contacted {}

impl std::fmt::Debug for Contacted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// What a `partial_lookup(t)` returned: the merged distinct entries and
/// which servers the client contacted, in contact order.
///
/// Per the service definition (§2), the answer is *any* subset of the
/// key's entries with size ≥ `t`; merging replies from several servers can
/// return more than `t`. When the placement cannot satisfy `t` (e.g.
/// Fixed-x with `x < t`, or after deletes ate the cushion) the result
/// holds everything that was found and [`LookupResult::is_satisfied`]
/// reports `false` — the paper's "lookup failure" (§6.2).
///
/// Dropped, a result of `Cluster` or `Directory` gives its storage to
/// their next lookup (module doc), and so does a clone of it.
#[derive(Clone)]
pub struct LookupResult<V> {
    entries: Vec<V>,
    contacted: Contacted,
    /// Where the storage goes when the result is dropped, if anywhere.
    spares: Option<SparePool<V>>,
}

impl<V: Entry> LookupResult<V> {
    pub(crate) fn new(entries: Vec<V>, contacted: impl Into<Contacted>) -> Self {
        // Pairwise, not through a set: a debug build allocates what a
        // release build does (`tests/alloc_gate.rs` counts both).
        debug_assert!(
            entries.iter().enumerate().all(|(i, v)| !entries[..i].contains(v)),
            "lookup answers are distinct"
        );
        LookupResult { entries, contacted: contacted.into(), spares: None }
    }

    /// The distinct entries retrieved, in retrieval order.
    pub fn entries(&self) -> &[V] {
        &self.entries
    }

    /// The servers contacted, in order.
    pub fn contacted(&self) -> &[ServerId] {
        self.contacted.as_slice()
    }

    /// Number of servers contacted — the paper's *client lookup cost*
    /// (§4.2) for this single lookup.
    pub fn servers_contacted(&self) -> usize {
        self.contacted().len()
    }

    /// Whether the lookup met its target answer size.
    pub fn is_satisfied(&self, t: usize) -> bool {
        self.entries.len() >= t
    }

    /// Consumes the result, returning the entries. Nothing is given back
    /// for the next lookup.
    pub fn into_entries(mut self) -> Vec<V> {
        self.spares = None;
        std::mem::take(&mut self.entries)
    }
}

impl<V> Drop for LookupResult<V> {
    fn drop(&mut self) {
        if let Some(spares) = self.spares.take() {
            lock(&spares).give_back(std::mem::take(&mut self.entries));
        }
    }
}

impl<V: PartialEq> PartialEq for LookupResult<V> {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries && self.contacted == other.contacted
    }
}

impl<V: Eq> Eq for LookupResult<V> {}

impl<V: std::fmt::Debug> std::fmt::Debug for LookupResult<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut result = f.debug_struct("LookupResult");
        result.field("entries", &self.entries).field("contacted", &self.contacted).finish()
    }
}

/// What dropped results gave back, for the next lookup to write over:
/// their emptied vectors and the entries they held.
#[derive(Debug)]
pub(crate) struct Spares<V> {
    answers: Vec<Vec<V>>,
    entries: Vec<V>,
}

/// The spares of one lookup owner, shared with the results it hands out
/// (and with its clones: it is only storage).
pub(crate) type SparePool<V> = Arc<Mutex<Spares<V>>>;

/// Past a panic too (an entry's `clone_from` is the caller's code): spares
/// are valid after every single push and pop, and a drop must not panic.
fn lock<V>(spares: &Mutex<Spares<V>>) -> MutexGuard<'_, Spares<V>> {
    spares.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<V> Default for Spares<V> {
    fn default() -> Self {
        Spares { answers: Vec::new(), entries: Vec::new() }
    }
}

impl<V> Spares<V> {
    /// The bound: enough for a few results held at once, however many are
    /// dropped together. An entry is kept with its storage, so it is a
    /// count of entries, not of bytes.
    const ANSWERS: usize = 4;
    const ENTRIES: usize = 128;

    fn give_back(&mut self, mut answer: Vec<V>) {
        if self.answers.len() < Self::ANSWERS && answer.capacity() > 0 {
            let room = Self::ENTRIES - self.entries.len();
            self.entries.extend(answer.drain(..).take(room));
            self.answers.push(answer);
        }
    }
}

/// A lookup's storage, which its owner lends to every lookup: the probe
/// order (`fall_back`'s too), Round-Robin's `visited` flags, the merge set
/// (its items are references into the stores while a lookup merges) and
/// `sample_refs`'s Fisher–Yates index vector. Each part is reset when it
/// is lent, never trusted to come back clean: an entry's `clone_from` is
/// caller code and may panic mid-lookup.
#[derive(Debug, Clone, Default)]
pub(crate) struct Bookkeeping {
    queue: Vec<ServerId>,
    visited: Vec<bool>,
    merge: IndexedSet<usize>,
    pub(crate) indices: Vec<usize>,
}

/// Whom to probe next.
#[derive(Debug)]
enum Order {
    /// Full replication and Fixed-x: one random server believed up; the
    /// others only if that one is unreachable or slow.
    One { first: ServerId, yielded: bool },
    /// Round-Robin-y: `cur, cur+y, cur+2y, …` — consecutive contacts share
    /// no entries, so each adds `h/n` fresh ones. Left for random probing
    /// on the first unreachable (or believed-down) contact, as the paper
    /// prescribes, and when the walk cycles short of `t`.
    Walk { cur: ServerId, y: usize, abandoned: bool },
    /// RandomServer-x and Hash-y, and what the other two fall back to:
    /// `queue`, a uniformly random order, servers believed down last.
    Shuffled,
}

/// The form a probe's answer arrives in: the entry itself (`V`, moved
/// into the result) or a reference into the store of a server in the
/// same process (`&V`, copied if it is part of the result).
pub trait Answer<V>: Eq + Hash {
    /// The entry, owned.
    fn into_entry(self) -> V;

    /// The entry, written over `spare`, an entry a dropped result gave
    /// back. A reference copies with `clone_from`, so that the spare's
    /// storage serves the copy.
    fn write_over(self, spare: &mut V)
    where
        Self: Sized,
    {
        *spare = self.into_entry();
    }
}

impl<V: Entry> Answer<V> for V {
    fn into_entry(self) -> V {
        self
    }
}

impl<V: Entry> Answer<V> for &V {
    fn into_entry(self) -> V {
        self.clone()
    }

    fn write_over(self, spare: &mut V) {
        spare.clone_from(self);
    }
}

/// What the answers so far amount to.
#[derive(Debug)]
enum Gathered<V, A> {
    /// Any one server's answer is the result, as it came.
    First(Option<Vec<V>>),
    /// Answers merge until `t` distinct entries.
    Merged(IndexedSet<A>),
}

/// §3's client procedure for one `partial_lookup(t)`, as a state machine:
///
/// ```
/// use pls_core::{DetRng, FailureSet, LookupPlan, StrategySpec};
///
/// let servers = [vec![1, 2], vec![2, 3], vec![3, 1]]; // what each would answer
/// let (down, mut rng) = (FailureSet::new(3), DetRng::seed_from(7));
/// let mut plan = LookupPlan::new(StrategySpec::hash(2), 3, &down, &mut rng);
/// while let Some(s) = plan.next(&mut rng) {
///     plan.answered(s, servers[s.index()].clone()); // or plan.unreachable(s)
/// }
/// let result = plan.finish(&mut rng);
/// assert!(result.is_satisfied(3) && result.servers_contacted() == 2);
/// ```
///
/// Servers the caller *believes* down are probed last, not never: a
/// client's belief can be stale. A caller that knows — the simulator —
/// reports them [`unreachable`](LookupPlan::unreachable) when they come
/// up.
///
/// `A` is what [`answered`](LookupPlan::answered) is given — `V`, or `&V`
/// when the servers' stores outlive the plan — and is inferred from that
/// call; a `&V` plan needs `V` named too (`LookupPlan<V, &V>`, or by the
/// type its result goes to).
#[derive(Debug)]
pub struct LookupPlan<'a, V, A = V> {
    t: usize,
    down: &'a FailureSet,
    order: Order,
    /// [`Order::Shuffled`]'s servers, popped from the back.
    queue: Vec<ServerId>,
    visited: Vec<bool>,
    gathered: Gathered<V, A>,
    contacted: Contacted,
    /// What the result is written over and gives back to.
    spares: Option<SparePool<V>>,
}

impl<'a, V: Entry, A: Answer<V>> LookupPlan<'a, V, A> {
    /// The procedure `spec` prescribes for `t` entries from
    /// `down.len()` servers: one random server for full replication and
    /// Fixed-x; random probing with merging for RandomServer-x and
    /// Hash-y; a random start and a stride-`y` walk for Round-Robin-y.
    ///
    /// # Panics
    ///
    /// Panics if there are no servers at all (`down.len() == 0`) to pick
    /// the single probe or the walk's start from.
    pub fn new(spec: StrategySpec, t: usize, down: &'a FailureSet, rng: &mut DetRng) -> Self {
        Self::lent(Some(spec), t, down, rng, &mut Bookkeeping::default(), None)
    }

    /// Random probing with merging whatever the strategy — the procedure
    /// of RandomServer-x and Hash-y, for callers that want it on any
    /// placement (`pls-sim`'s stride-vs-random ablation).
    pub fn shuffled(t: usize, down: &'a FailureSet, rng: &mut DetRng) -> Self {
        Self::lent(None, t, down, rng, &mut Bookkeeping::default(), None)
    }

    /// The procedure of `spec` (`None`: [`shuffled`](LookupPlan::shuffled))
    /// in `lent`'s parts, each cleared as it is taken, its result written
    /// over `spares` and given back to them when dropped.
    pub(crate) fn lent(
        spec: Option<StrategySpec>,
        t: usize,
        down: &'a FailureSet,
        rng: &mut DetRng,
        lent: &mut Bookkeeping,
        spares: Option<&SparePool<V>>,
    ) -> Self {
        let (mut queue, mut visited) = (take(&mut lent.queue), take(&mut lent.visited));
        queue.clear();
        visited.clear();
        // With everyone believed down the belief ranks nobody: start anywhere.
        let mut start =
            || rng.random_operational_server(down).unwrap_or_else(|| rng.random_server(down.len()));
        let (order, gathered) = match spec {
            Some(StrategySpec::FullReplication | StrategySpec::Fixed { .. }) => {
                (Order::One { first: start(), yielded: false }, Gathered::First(None))
            }
            Some(StrategySpec::RoundRobin { y }) => {
                visited.resize(down.len(), false);
                let walk = Order::Walk { cur: start(), y, abandoned: false };
                (walk, Gathered::Merged(lent.merge.reuse()))
            }
            Some(StrategySpec::RandomServer { .. } | StrategySpec::Hash { .. }) | None => {
                // `shuffled_servers`' draws, into the queue.
                queue.extend((0..down.len() as u32).map(ServerId::new));
                probe_order(&mut queue, down, rng);
                (Order::Shuffled, Gathered::Merged(lent.merge.reuse()))
            }
        };
        let (contacted, spares) = (Contacted::new(), spares.map(Arc::clone));
        LookupPlan { t, down, order, queue, visited, gathered, contacted, spares }
    }

    /// `answer`, owned: written over a spare vector and spare entries when
    /// there is a spare vector, collected as it comes when not (a `Vec<&V>`
    /// of `Copy` entries becomes the result in place).
    fn own(spares: &Option<SparePool<V>>, answer: impl Iterator<Item = A>) -> Vec<V> {
        if let Some(spares) = spares {
            let mut spares = lock(spares);
            let Spares { answers, entries } = &mut *spares;
            if let Some(mut out) = answers.pop() {
                out.extend(answer.map(|a| match entries.pop() {
                    Some(mut spare) => {
                        a.write_over(&mut spare);
                        spare
                    }
                    None => a.into_entry(),
                }));
                return out;
            }
        }
        answer.map(A::into_entry).collect()
    }

    /// The next server to probe; `None` once the lookup is satisfied or
    /// nobody is left to ask. Does not wait for outstanding answers, so
    /// a caller may hold several probes in flight.
    #[inline]
    pub fn next(&mut self, rng: &mut DetRng) -> Option<ServerId> {
        if self.is_satisfied() {
            return None;
        }
        match &mut self.order {
            Order::Shuffled => self.queue.pop(),
            Order::One { first, yielded } if !*yielded => {
                *yielded = true;
                Some(*first)
            }
            Order::Walk { cur, y, abandoned }
                if !(*abandoned || self.visited[cur.index()] || self.down.is_failed(*cur)) =>
            {
                let s = *cur;
                self.visited[s.index()] = true;
                *cur = s.wrapping_add(*y, self.down.len());
                Some(s)
            }
            Order::One { .. } | Order::Walk { .. } => self.fall_back(rng),
        }
    }

    /// The single probe or the walk gives way to random probing over
    /// whoever has not been asked yet (the single probe visits nobody).
    #[cold]
    fn fall_back(&mut self, rng: &mut DetRng) -> Option<ServerId> {
        let first = if let Order::One { first, .. } = self.order { Some(first) } else { None };
        let visited = &self.visited;
        let asked = |s: ServerId| Some(s) == first || visited.get(s.index()) == Some(&true);
        self.queue.clear();
        self.queue.extend((0..self.down.len() as u32).map(ServerId::new).filter(|s| !asked(*s)));
        probe_order(&mut self.queue, self.down, rng);
        self.order = Order::Shuffled;
        self.queue.pop()
    }

    /// Server `s` answered with up to `t` entries of its store.
    #[inline]
    pub fn answered<I>(&mut self, s: ServerId, answer: I)
    where
        I: IntoIterator<Item = A>,
        I::IntoIter: ExactSizeIterator,
    {
        self.contacted.push(s);
        let answer = answer.into_iter();
        match &mut self.gathered {
            // A second answer can only be a probe that was already in
            // flight; the first one stands. It is the result: made owned
            // here (a `Vec<V>` is reused as it is, without spares).
            Gathered::First(first) => {
                first.get_or_insert_with(|| Self::own(&self.spares, answer));
            }
            Gathered::Merged(acc) => {
                if acc.is_empty() {
                    // Probing stops at `t`, so the merge ends below `t`
                    // plus one answer. `t` is the caller's and may exceed
                    // anything stored: never reserve beyond a few
                    // answers' worth.
                    acc.reserve(self.t.saturating_add(answer.len()).min(4 * answer.len()));
                }
                acc.extend(answer);
            }
        }
    }

    /// Server `s` could not be reached (or answered nonsense): a stride
    /// walk is abandoned for random probing; the other procedures just
    /// move on to their next server.
    pub fn unreachable(&mut self, _s: ServerId) {
        if let Order::Walk { abandoned, .. } = &mut self.order {
            *abandoned = true;
        }
    }

    /// Whether enough has been gathered: one answer for the single-probe
    /// strategies, `t` distinct entries for the merging ones.
    #[inline]
    pub fn is_satisfied(&self) -> bool {
        match &self.gathered {
            Gathered::First(first) => first.is_some(),
            Gathered::Merged(acc) => acc.len() >= self.t,
        }
    }

    /// The servers that have answered so far, in answer order.
    pub fn contacted(&self) -> &[ServerId] {
        self.contacted.as_slice()
    }

    /// The result: everything gathered, trimmed to a uniformly random
    /// `t`-subset when merging over-delivered (the fairness model of §4.5
    /// has each entry returned with probability exactly `t/h`).
    pub fn finish(self, rng: &mut DetRng) -> LookupResult<V> {
        self.result(rng, None)
    }

    /// [`finish`](LookupPlan::finish), giving the bookkeeping back.
    pub(crate) fn finish_lent(
        mut self,
        rng: &mut DetRng,
        lent: &mut Bookkeeping,
    ) -> LookupResult<V> {
        (lent.queue, lent.visited) = (take(&mut self.queue), take(&mut self.visited));
        self.result(rng, Some(&mut lent.merge))
    }

    fn result(self, rng: &mut DetRng, lent: Option<&mut IndexedSet<usize>>) -> LookupResult<V> {
        let (contacted, spares) = (self.contacted, self.spares);
        let entries = match self.gathered {
            // As it came, unchecked: the answer is its sender's word (over
            // TCP, another program's), not something the plan merged.
            Gathered::First(first) => {
                return LookupResult { entries: first.unwrap_or_default(), contacted, spares };
            }
            // Trimmed first, made owned after: what the trim drops was
            // never copied. A lent set goes back emptied.
            Gathered::Merged(mut acc) => match lent {
                Some(merge) => {
                    let entries = Self::own(&spares, acc.drain_sample(self.t, rng));
                    *merge = acc.reuse();
                    entries
                }
                None => Self::own(&spares, acc.into_sample(self.t, rng).into_iter()),
            },
        };
        let mut result = LookupResult::new(entries, contacted);
        result.spares = spares;
        result
    }
}

/// Shuffles `queue` and moves the servers believed down behind the others,
/// each class in its shuffled order; then reverses it, for `pop`.
fn probe_order(queue: &mut [ServerId], down: &FailureSet, rng: &mut DetRng) {
    rng.shuffle(queue);
    if down.failed_count() > 0 {
        queue.sort_by_key(|s| down.is_failed(*s));
    }
    queue.reverse();
}

/// The server a client sends an update to (§5): for Round-Robin-y the
/// first operational of the `rr_mirrors` servers holding the `head`/`tail`
/// counters (server 0 alone unless mirrored, §5.4), otherwise a random
/// operational server.
///
/// # Errors
///
/// [`ServiceError::AllServersFailed`] when nothing is up;
/// [`ServiceError::CoordinatorUnavailable`] when every counter holder is
/// down.
pub(crate) fn update_coordinator(
    spec: StrategySpec,
    rr_mirrors: usize,
    failures: &FailureSet,
    rng: &mut DetRng,
) -> Result<ServerId, ServiceError> {
    if failures.operational_count() == 0 {
        return Err(ServiceError::AllServersFailed);
    }
    match spec {
        StrategySpec::RoundRobin { .. } => (0..rr_mirrors as u32)
            .map(ServerId::new)
            .find(|s| !failures.is_failed(*s))
            .ok_or(ServiceError::CoordinatorUnavailable),
        _ => Ok(rng.random_operational_server(failures).expect("operational server available")),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Cluster;
    use std::collections::HashSet;

    /// The vectors and entries `pool` holds.
    pub(crate) fn held<V>(pool: &SparePool<V>) -> (usize, usize) {
        let spares = lock(pool);
        (spares.answers.len(), spares.entries.len())
    }

    /// The most a pool holds.
    pub(crate) const BOUND: (usize, usize) = (Spares::<()>::ANSWERS, Spares::<()>::ENTRIES);

    const N: usize = 10;
    const H: u64 = 100;

    fn all_specs() -> [StrategySpec; 5] {
        [
            StrategySpec::full_replication(),
            StrategySpec::fixed(20),
            StrategySpec::random_server(20),
            StrategySpec::round_robin(2),
            StrategySpec::hash(2),
        ]
    }

    /// What each of `N` servers stores under `spec` after `place(0..H)`.
    fn stores(spec: StrategySpec) -> Vec<Vec<u64>> {
        let mut c = Cluster::new(N, spec, 17).unwrap();
        c.place((0..H).collect()).unwrap();
        (0..N as u32).map(|i| c.server_entries(ServerId::new(i)).to_vec()).collect()
    }

    fn failing(ids: impl IntoIterator<Item = u32>) -> FailureSet {
        let mut down = FailureSet::new(N);
        ids.into_iter().for_each(|i| down.fail(ServerId::new(i)));
        down
    }

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

    #[test]
    fn a_driven_plan_asks_nobody_twice_and_stops_when_satisfied() {
        for spec in all_specs() {
            let stores = stores(spec);
            for down in [failing([]), failing([3]), failing((0..N as u32).filter(|i| *i != 6))] {
                for (t, seed) in [(5, 1), (20, 2), (35, 3), (500, 4)] {
                    let rng = &mut DetRng::seed_from(seed);
                    let mut plan: LookupPlan<u64> = LookupPlan::new(spec, t, &down, rng);
                    let mut yielded = Vec::new();
                    let mut answered = Vec::new();
                    let mut gathered = HashSet::new();
                    while let Some(s) = plan.next(rng) {
                        assert!(!plan.is_satisfied(), "{spec}: yields after it is satisfied");
                        assert!(!yielded.contains(&s), "{spec}: {s:?} yielded twice");
                        yielded.push(s);
                        if down.is_failed(s) {
                            plan.unreachable(s);
                        } else {
                            let answer = rng.subset(&stores[s.index()], t);
                            gathered.extend(answer.iter().copied());
                            answered.push(s);
                            plan.answered(s, answer);
                        }
                    }
                    assert_eq!(plan.next(rng), None, "{spec}: a finished plan stays finished");
                    // Servers believed down come after everyone else.
                    let first_down = yielded.iter().position(|s| down.is_failed(*s));
                    let last_up = yielded.iter().rposition(|s| !down.is_failed(*s));
                    assert!(first_down.is_none_or(|d| last_up < Some(d)), "{spec}: {yielded:?}");
                    assert!(last_up.is_some(), "{spec}: nobody operational was asked");
                    assert_eq!(plan.contacted(), answered, "{spec}");
                    let result = plan.finish(rng);
                    assert_eq!(result.contacted(), answered, "{spec}");
                    let distinct: HashSet<_> = result.entries().iter().collect();
                    assert_eq!(distinct.len(), result.entries().len(), "{spec}");
                    assert_eq!(result.entries().len(), t.min(gathered.len()), "{spec} t={t}");
                    assert!(result.entries().iter().all(|v| gathered.contains(v)), "{spec}");

                    // The same lookup over references into the stores:
                    // same probes, same entries, in the same order.
                    let rng = &mut DetRng::seed_from(seed);
                    let mut by_ref: LookupPlan<u64, &u64> = LookupPlan::new(spec, t, &down, rng);
                    while let Some(s) = by_ref.next(rng) {
                        if down.is_failed(s) {
                            by_ref.unreachable(s);
                        } else {
                            by_ref.answered(
                                s,
                                rng.subset_refs(&stores[s.index()], t, &mut Vec::new()),
                            );
                        }
                    }
                    assert_eq!(by_ref.finish(rng), result, "{spec} t={t}");
                }
            }
        }
    }

    #[test]
    fn an_undisturbed_stride_walk_costs_ceil_tn_over_yh() {
        let (spec, y) = (StrategySpec::round_robin(2), 2);
        let (stores, down) = (stores(spec), failing([]));
        let rng = &mut DetRng::seed_from(5);
        for t in [1, 20, 21, 40, 41, 60, 100] {
            let mut plan = LookupPlan::new(spec, t, &down, rng);
            while let Some(s) = plan.next(rng) {
                plan.answered(s, rng.subset(&stores[s.index()], t));
            }
            let walk = plan.contacted().to_vec();
            assert_eq!(walk.len(), (t * N).div_ceil(y * H as usize), "t={t}");
            for pair in walk.windows(2) {
                assert_eq!(pair[1], pair[0].wrapping_add(y, N), "t={t}: not a stride walk");
            }
            assert!(plan.finish(rng).is_satisfied(t));
        }
    }

    #[test]
    fn an_unreachable_contact_turns_the_walk_into_random_probing_of_the_rest() {
        let spec = StrategySpec::round_robin(2);
        let (stores, down) = (stores(spec), failing([]));
        let mut broke_stride = false;
        for seed in 0..20 {
            let rng = &mut DetRng::seed_from(seed);
            let mut plan = LookupPlan::new(spec, H as usize, &down, rng);
            let first = plan.next(rng).unwrap();
            plan.answered(first, stores[first.index()].clone());
            let second = plan.next(rng).unwrap();
            assert_eq!(second, first.wrapping_add(2, N));
            plan.unreachable(second);
            let mut rest = Vec::new();
            while let Some(s) = plan.next(rng) {
                rest.push(s);
                plan.answered(s, stores[s.index()].clone());
            }
            // Satisfied (every entry gathered) before or when the last
            // unvisited server answered; never back to `first`/`second`.
            assert!(!rest.contains(&first) && !rest.contains(&second), "seed {seed}: {rest:?}");
            let unique: HashSet<_> = rest.iter().collect();
            assert_eq!(unique.len(), rest.len());
            assert!(plan.is_satisfied(), "seed {seed}: eight servers left hold everything");
            broke_stride |= rest[0] != second.wrapping_add(2, N);
        }
        assert!(broke_stride, "the walk carried on as if nothing had happened");
    }

    #[test]
    fn probes_may_be_in_flight_and_late_answers_still_merge() {
        let spec = StrategySpec::random_server(20);
        let (stores, down) = (stores(spec), failing([]));
        for strategy_blind in [false, true] {
            let rng = &mut DetRng::seed_from(6);
            let mut plan = match strategy_blind {
                false => LookupPlan::new(spec, 25, &down, rng),
                true => LookupPlan::shuffled(25, &down, rng),
            };
            let in_flight: Vec<ServerId> = (0..4).map(|_| plan.next(rng).unwrap()).collect();
            assert_eq!(in_flight.iter().collect::<HashSet<_>>().len(), 4);
            // Answers come back in another order; two satisfy the lookup,
            // the stragglers are merged all the same.
            let mut union = HashSet::new();
            for &s in in_flight.iter().rev() {
                union.extend(stores[s.index()].iter().copied());
                plan.answered(s, stores[s.index()].clone());
            }
            assert_eq!(plan.next(rng), None);
            let back: Vec<ServerId> = in_flight.iter().rev().copied().collect();
            assert_eq!(plan.contacted(), back);
            assert!(union.len() > 40, "four servers of 20 overlap less than that");
            // All of the union is eligible for the trimmed answer.
            let mut seen = HashSet::new();
            for _ in 0..200 {
                let mut replay = LookupPlan::shuffled(25, &down, rng);
                for &s in &back {
                    replay.answered(s, stores[s.index()].clone());
                }
                let result = replay.finish(rng);
                assert_eq!(result.entries().len(), 25);
                seen.extend(result.into_entries());
            }
            assert_eq!(seen, union);
        }
    }

    #[test]
    fn a_single_answer_plan_moves_on_when_its_server_is_unreachable() {
        for spec in [StrategySpec::full_replication(), StrategySpec::fixed(20)] {
            let (stores, down) = (stores(spec), failing([4]));
            let rng = &mut DetRng::seed_from(7);
            let mut plan = LookupPlan::new(spec, 5, &down, rng);
            let first = plan.next(rng).unwrap();
            assert_ne!(first, ServerId::new(4), "starts at a server believed up");
            plan.unreachable(first);
            assert!(!plan.is_satisfied());
            let second = plan.next(rng).unwrap();
            assert_ne!(second, first);
            let answer = rng.subset(&stores[second.index()], 5);
            plan.answered(second, answer.clone());
            assert_eq!(plan.next(rng), None);
            let result = plan.finish(rng);
            assert_eq!(result.contacted(), &[second]);
            assert_eq!(result.entries(), answer);
        }
    }

    #[test]
    fn with_everyone_believed_down_every_procedure_still_asks_everyone() {
        let down = failing(0..N as u32);
        for spec in all_specs() {
            let rng = &mut DetRng::seed_from(8);
            let mut plan: LookupPlan<'_, u64> = LookupPlan::new(spec, 5, &down, rng);
            let mut asked = HashSet::new();
            while let Some(s) = plan.next(rng) {
                assert!(asked.insert(s), "{spec}");
                plan.unreachable(s);
            }
            assert_eq!(asked.len(), N, "{spec}");
            assert!(plan.finish(rng).entries().is_empty());
        }
    }

    #[test]
    fn round_robin_updates_go_to_the_first_operational_counter_holder() {
        let rng = &mut DetRng::seed_from(9);
        let rr = StrategySpec::round_robin(2);
        let coordinator = |mirrors, down: &FailureSet, rng: &mut DetRng| {
            update_coordinator(rr, mirrors, down, rng).map(|s| s.index())
        };
        assert_eq!(coordinator(1, &failing([]), rng), Ok(0));
        assert_eq!(coordinator(1, &failing([0]), rng), Err(ServiceError::CoordinatorUnavailable));
        assert_eq!(coordinator(3, &failing([0, 1]), rng), Ok(2));
        assert_eq!(
            coordinator(2, &failing([0, 1]), rng),
            Err(ServiceError::CoordinatorUnavailable)
        );
        assert_eq!(coordinator(N, &failing(0..N as u32), rng), Err(ServiceError::AllServersFailed));
        // Everyone else: any operational server.
        let down = failing([0, 1, 2]);
        for spec in all_specs().into_iter().filter(|s| *s != rr) {
            let s = update_coordinator(spec, 1, &down, rng).unwrap();
            assert!(!down.is_failed(s), "{spec}");
        }
    }
}
