//! An order-preserving set with O(1) membership, removal, and uniform
//! random choice — the workhorse behind every server's local entry store.
//!
//! Servers must answer "return `t` random entries from your store" on every
//! lookup and "replace a random entry" on reservoir-sampled adds, so
//! uniform random selection has to be cheap. [`IndexedSet`] keeps the
//! values in a dense `Vec` (for indexing) and finds them through one
//! open-addressing table of `(hash tag, position)` slots (for
//! membership), so every stored value lives in memory exactly once: the
//! paper's storage cost (§4.1) counts one copy of an entry per server
//! that keeps it, and so does the store.
//!
//! # Layout and invariants
//!
//! * `items` holds the values; removal is a swap-remove, so the order is
//!   the insertion order permuted by removals.
//! * `slots` is empty or a power of two long. A slot is vacant or holds
//!   the low 32 bits of a value's keyed hash (its *tag*) and the value's
//!   position in `items`. Every position `< items.len()` appears in
//!   exactly one slot, and no slot holds any other position.
//! * A value's *home* slot is `tag & (slots.len() - 1)`; probing is
//!   linear and wraps. Robin Hood order: each slot from a value's home
//!   up to its own is occupied, by a value at least as far from its own
//!   home as that slot is from this value's. A probe can therefore stop
//!   at the first slot that is vacant or whose occupant is closer to home
//!   than the probe has walked, and deletion shifts the rest of the run
//!   back by one slot instead of leaving a tombstone.
//! * Tags never decide equality alone: a matching tag only earns the
//!   comparison with `items[position]`.
//! * At most 7/16 of the slots are occupied, so a probe always ends, and
//!   soon.
//!
//! Hashing is keyed per set, because the TCP server stores bytes that
//! clients supply: a [`HashSeed`] drawn when the set is made, shared only
//! with its clones, keys `pls-net`'s fold-multiply hash, one multiply per
//! 16 bytes. (Not `HashMap`'s SipHash: a lookup's merge hashes entries it
//! has not touched before, and a long chain of dependent rounds waits out
//! each of those cache misses in turn.)
//!
//! A lookup's merge runs on storage its owner lends it (`reuse`,
//! `drain_sample`): a table with no occupied slot grows in its own
//! buffer, cleared only to the size asked for.
//!
//! `extend` appends up to [`BATCH`] values past the table, hashes them in
//! one straight loop (so their cache misses overlap instead of each waiting
//! behind the last one's probe), then probes them one by one, moving first
//! occurrences down to the table's end. Values sit past the table only
//! inside that call: a panicking `Hash`, `Eq` or iterator leaves the values
//! already in the table, a prefix of what one `insert` each leaves.

use std::fmt;
use std::hash::{BuildHasher, Hash};

use pls_net::{DetRng, HashSeed};

/// One cell of the table: vacant, or a value's tag and position.
#[derive(Clone, Copy)]
struct Slot {
    tag: u32,
    pos: u32,
}

impl Slot {
    /// No position is ever `u32::MAX`: the table stops at 2^32 slots.
    const VACANT: Slot = Slot { tag: 0, pos: u32::MAX };

    fn is_vacant(self) -> bool {
        self.pos == u32::MAX
    }
}

/// Slots allocated by the first insert.
const MIN_SLOTS: usize = 8;

/// Values `extend` hashes before it probes any of them: a lookup's
/// answer of up to 32 entries in one pass, its tags in a stack array.
const BATCH: usize = 32;

/// How many values a table of `slots` slots takes before it grows:
/// `HashMap`'s capacities (3, 7, then 7/8 of its buckets) at two slots
/// per bucket. So the set allocates exactly as often as the map it
/// replaced, but never probes a table more than 7/16 full: linear probing
/// at 7/8 walks and shifts runs several times as long, which made
/// remove + insert on integer sets a third slower than the map was. Two
/// 8-byte slots are still smaller than the map's bucket (value,
/// position, control byte).
fn capacity_of(slots: usize) -> usize {
    if slots < 16 {
        (slots / 2).saturating_sub(1)
    } else {
        slots / 16 * 7
    }
}

/// The smallest table that takes `cap` values without growing.
fn slots_for(cap: usize) -> usize {
    let mut slots = if cap == 0 { 0 } else { MIN_SLOTS };
    while capacity_of(slots) < cap {
        slots = slots.checked_mul(2).expect("capacity overflow");
    }
    slots
}

/// A set over `T` supporting O(1) insert, remove, contains, and uniform
/// random sampling.
///
/// Iteration order is unspecified (removal swaps elements around) but
/// deterministic for a fixed operation sequence.
///
/// # Example
///
/// ```
/// use pls_core::IndexedSet;
/// let mut s: IndexedSet<u32> = IndexedSet::new();
/// assert!(s.insert(7));
/// assert!(!s.insert(7)); // already present
/// assert!(s.contains(&7));
/// assert!(s.remove(&7));
/// assert!(s.is_empty());
/// ```
#[derive(Clone)]
pub struct IndexedSet<T> {
    items: Vec<T>,
    slots: Vec<Slot>,
    /// This set's hash key. Never leaves the set.
    seed: HashSeed,
}

// Manual impl: the derive would wrongly require `T: Default`.
impl<T> Default for IndexedSet<T> {
    fn default() -> Self {
        IndexedSet { items: Vec::new(), slots: Vec::new(), seed: HashSeed::random() }
    }
}

impl<T: fmt::Debug> fmt::Debug for IndexedSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(&self.items).finish()
    }
}

// No `T: Clone` here: nothing in this block can copy a value.
impl<T: Eq + Hash> IndexedSet<T> {
    /// Creates an empty set. Allocates nothing until the first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty set with capacity for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        let mut set = Self::new();
        set.reserve(cap);
        set
    }

    /// Makes room for `additional` more elements without further
    /// allocation.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.items.reserve(additional);
        let want = self.items.len().saturating_add(additional);
        if want > capacity_of(self.slots.len()) {
            self.rebuild(slots_for(want));
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the set holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether `value` is in the set.
    pub fn contains(&self, value: &T) -> bool {
        self.find(self.tag_of(value), value).is_some()
    }

    /// Inserts `value`; returns `false` if it was already present.
    pub fn insert(&mut self, value: T) -> bool {
        self.insert_full(value).1
    }

    /// Inserts `value` and reports where it sits in [`as_slice`] order,
    /// and whether it is new (a value already present is dropped, as
    /// [`insert`] drops it). One probe either way.
    ///
    /// [`as_slice`]: IndexedSet::as_slice
    /// [`insert`]: IndexedSet::insert
    pub(crate) fn insert_full(&mut self, value: T) -> (usize, bool) {
        self.make_room(self.items.len());
        let tag = self.tag_of(&value);
        match Self::probe(&self.slots, tag, |pos| self.items[pos] == value) {
            Ok(slot) => (self.slots[slot].pos as usize, false),
            Err(i) => {
                let index = self.items.len();
                Self::shift_in(&mut self.slots, i, Slot { tag, pos: index as u32 });
                self.items.push(value);
                (index, true)
            }
        }
    }

    /// Where `value` sits in [`as_slice`](IndexedSet::as_slice) order.
    pub(crate) fn index_of(&self, value: &T) -> Option<usize> {
        self.find(self.tag_of(value), value).map(|slot| self.slots[slot].pos as usize)
    }

    /// Removes and returns the value at `index`, as [`remove`] would: the
    /// last value moves into its place. The second field is the index
    /// that value moved *from* (`None` when `index` was the last), so a
    /// caller keeping data per index can move it along.
    ///
    /// [`remove`]: IndexedSet::remove
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub(crate) fn swap_remove_index(&mut self, index: usize) -> (T, Option<usize>) {
        let value = self.remove_slot(self.slot_of(index));
        let last = self.items.len();
        (value, (index < last).then_some(last))
    }

    /// Removes `value`; returns `false` if it was absent.
    pub fn remove(&mut self, value: &T) -> bool {
        match self.find(self.tag_of(value), value) {
            None => false,
            Some(slot) => {
                self.remove_slot(slot);
                true
            }
        }
    }

    /// A uniformly random element, or `None` when empty.
    pub fn choose(&self, rng: &mut DetRng) -> Option<&T> {
        if self.items.is_empty() {
            None
        } else {
            Some(&self.items[rng.below(self.items.len())])
        }
    }

    /// Removes and returns a uniformly random element.
    pub fn remove_random(&mut self, rng: &mut DetRng) -> Option<T> {
        if self.items.is_empty() {
            return None;
        }
        let pos = rng.below(self.items.len());
        Some(self.remove_slot(self.slot_of(pos)))
    }

    /// Consumes the set into `k` distinct uniformly random elements (all
    /// of them when `k >= len`), moving the values out: the owning
    /// counterpart of [`IndexedSet::sample`], for a merged answer that is
    /// about to be trimmed and handed on.
    pub fn into_sample(self, k: usize, rng: &mut DetRng) -> Vec<T> {
        let mut items = self.items;
        keep_random(&mut items, k, rng);
        items
    }

    /// Consumes the set into its elements, in internal order.
    pub fn into_vec(self) -> Vec<T> {
        self.items
    }

    /// Iterates the elements in internal (unspecified) order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// View of the elements as a slice, in internal order.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Removes all elements, keeping the allocations.
    pub fn clear(&mut self) {
        self.items.clear();
        self.slots.fill(Slot::VACANT);
    }

    #[inline]
    fn tag_of(&self, value: &T) -> u32 {
        self.seed.hash_one(value) as u32
    }

    /// How far the occupant of slot `i` sits from its home slot.
    fn displacement(slot: Slot, i: usize, mask: usize) -> usize {
        i.wrapping_sub(slot.tag as usize) & mask
    }

    /// The slot holding `value`, whose tag is `tag`.
    fn find(&self, tag: u32, value: &T) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        Self::probe(&self.slots, tag, |pos| self.items[pos] == *value).ok()
    }

    /// Walks the probe sequence of `tag` through `slots` (not empty):
    /// `Ok` is the first slot with that tag whose position `is_it`
    /// accepts, `Err` the slot a new value with that tag is inserted at.
    fn probe(
        slots: &[Slot],
        tag: u32,
        mut is_it: impl FnMut(usize) -> bool,
    ) -> Result<usize, usize> {
        let mask = slots.len() - 1;
        let mut i = tag as usize & mask;
        let mut dist = 0;
        loop {
            let slot = slots[i];
            if slot.is_vacant() || Self::displacement(slot, i, mask) < dist {
                return Err(i); // a match would have been met by now
            }
            if slot.tag == tag && is_it(slot.pos as usize) {
                return Ok(i);
            }
            i = (i + 1) & mask;
            dist += 1;
        }
    }

    /// The slot holding position `pos`, found by position alone.
    fn slot_of(&self, pos: usize) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.tag_of(&self.items[pos]) as usize & mask;
        while self.slots[i].pos as usize != pos {
            i = (i + 1) & mask;
        }
        i
    }

    /// Puts `incoming` at its insertion point `i`, moving the rest of the
    /// run one slot on. Robin Hood: everything moved was no further from
    /// home than `incoming` is.
    fn shift_in(slots: &mut [Slot], mut i: usize, mut incoming: Slot) {
        let mask = slots.len() - 1;
        while !slots[i].is_vacant() {
            std::mem::swap(&mut slots[i], &mut incoming);
            i = (i + 1) & mask;
        }
        slots[i] = incoming;
    }

    /// Vacates slot `i` and swap-removes the value it points at,
    /// repointing the slot of the value that moves into its place.
    fn remove_slot(&mut self, mut i: usize) -> T {
        let pos = self.slots[i].pos;
        let last = self.items.len() - 1;
        if (pos as usize) < last {
            let moved = self.slot_of(last);
            self.slots[moved].pos = pos;
        }
        // Backward shift: pull the rest of the run one slot closer to
        // home, up to the first vacant slot or value already at home.
        let mask = self.slots.len() - 1;
        loop {
            let next = (i + 1) & mask;
            let slot = self.slots[next];
            if slot.is_vacant() || Self::displacement(slot, next, mask) == 0 {
                break;
            }
            self.slots[i] = slot;
            i = next;
        }
        self.slots[i] = Slot::VACANT;
        self.items.swap_remove(pos as usize)
    }

    /// Doubles the table, if full, before its `held + 1`th value goes in.
    fn make_room(&mut self, held: usize) {
        if held >= capacity_of(self.slots.len()) {
            self.rebuild((self.slots.len() * 2).max(MIN_SLOTS));
        }
    }

    /// Inserts `values` (at most [`BATCH`], fitting in `items`' spare
    /// room) as one `insert` each would: same order, same table, same
    /// allocations. Returns how many values there were.
    fn insert_batch(&mut self, values: impl Iterator<Item = T>) -> usize {
        let held = self.items.len();
        let mut batch = Appended { set: self, held };
        let set = &mut *batch.set;
        set.items.extend(values);
        let mut tags = [0u32; BATCH];
        for (tag, value) in tags.iter_mut().zip(&set.items[held..]) {
            *tag = set.tag_of(value);
        }
        let end = set.items.len();
        for (next, &tag) in (held..end).zip(&tags) {
            set.make_room(batch.held);
            if let Err(i) = Self::probe(&set.slots, tag, |pos| set.items[pos] == set.items[next]) {
                Self::shift_in(&mut set.slots, i, Slot { tag, pos: batch.held as u32 });
                set.items.swap(batch.held, next);
                batch.held += 1;
            }
        }
        end - held
    }

    /// Replaces the table with one of `new_len` slots. The stored tags
    /// carry every bit a home slot needs, so no value is hashed again. A
    /// table with no occupied slot is its own buffer, cleared to
    /// `new_len` slots.
    fn rebuild(&mut self, new_len: usize) {
        // Tags and positions are 32 bits wide.
        assert!(new_len as u64 <= 1 << 32, "IndexedSet is limited to 2^32 slots");
        if self.slots.iter().all(|s| s.is_vacant()) {
            self.slots.clear();
            self.slots.resize(new_len, Slot::VACANT);
            return;
        }
        let mut slots = vec![Slot::VACANT; new_len];
        for slot in self.slots.iter().filter(|s| !s.is_vacant()) {
            let i = Self::probe(&slots, slot.tag, |_| false).expect_err("nothing matches");
            Self::shift_in(&mut slots, i, *slot);
        }
        self.slots = slots;
    }
}

impl<T> IndexedSet<T> {
    /// Empties the set into a set of `U` on the same table, key and, when a
    /// `U` is the size of a `T`, item buffer (std's in-place `collect`).
    /// A lent merge set's items are `&V`, and `usize` in between.
    pub(crate) fn reuse<U>(&mut self) -> IndexedSet<U> {
        let mut items = std::mem::take(&mut self.items);
        items.clear();
        let mut slots = std::mem::take(&mut self.slots);
        slots.clear();
        let items = items.into_iter().map(|_| unreachable!("cleared")).collect();
        IndexedSet { items, slots, seed: self.seed }
    }

    /// [`into_sample`](IndexedSet::into_sample)'s elements, drained: the
    /// set is left empty with its storage.
    pub(crate) fn drain_sample(&mut self, k: usize, rng: &mut DetRng) -> std::vec::Drain<'_, T> {
        self.slots.clear();
        keep_random(&mut self.items, k, rng);
        self.items.drain(..)
    }
}

/// Partial Fisher–Yates: the front `k` of `items` are a uniform `k`-subset.
fn keep_random<T>(items: &mut Vec<T>, k: usize, rng: &mut DetRng) {
    let len = items.len();
    if k >= len {
        return;
    }
    for i in 0..k {
        items.swap(i, i + rng.below(len - i));
    }
    items.truncate(k);
}

impl<T: Clone + Eq + Hash> IndexedSet<T> {
    /// `k` distinct uniformly random elements (all elements when
    /// `k >= len`), copied out: the "return t random entries from the
    /// stored entries" server behaviour of every strategy's lookup, for
    /// an answer that outlives its borrow of the store. A caller that
    /// can hold the borrow takes `rng.subset_refs(set.as_slice(), k, indices)`
    /// and copies only what it keeps.
    pub fn sample(&self, k: usize, rng: &mut DetRng) -> Vec<T> {
        rng.subset(&self.items, k)
    }
}

impl<T: Eq + Hash> FromIterator<T> for IndexedSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = IndexedSet::new();
        set.extend(iter);
        set
    }
}

impl<T: Eq + Hash> Extend<T> for IndexedSet<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let mut iter = iter.into_iter();
        // As `HashMap` does: trust the hint on an empty set, expect half
        // of it to be duplicates otherwise.
        let hint = iter.size_hint().0;
        self.reserve(if self.is_empty() { hint } else { hint.div_ceil(2) });
        loop {
            // A batch fills only spare room, so `items` reallocates where one
            // `insert` per value would: a full vector takes a value that way.
            let room = (self.items.capacity() - self.items.len()).min(BATCH);
            if room == 0 {
                let Some(v) = iter.next() else { return };
                self.insert(v);
            } else if self.insert_batch(iter.by_ref().take(room)) < room {
                return;
            }
        }
    }
}

/// A batch appended past a set's table. Dropped, unwinding or not, it
/// truncates the set's items to the `held` values in the table.
struct Appended<'a, T> {
    set: &'a mut IndexedSet<T>,
    held: usize,
}

impl<T> Drop for Appended<'_, T> {
    fn drop(&mut self) {
        self.set.items.truncate(self.held);
    }
}

impl<'a, T> IntoIterator for &'a IndexedSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<T: Eq + Hash> PartialEq for IndexedSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|v| other.contains(v))
    }
}

impl<T: Eq + Hash> Eq for IndexedSet<T> {}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::HashSet;
    use std::hash::Hasher;

    /// `value`'s hash under `seed`.
    fn hash_with<T: Hash + ?Sized>(seed: u64, value: &T) -> u64 {
        HashSeed::new(seed).hash_one(value)
    }

    thread_local! {
        static CLONES: Cell<usize> = const { Cell::new(0) };
    }

    /// An entry that counts its clones, per thread (so per test).
    #[derive(Debug, PartialEq, Eq, Hash)]
    pub(crate) struct Counted(pub u64);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    /// Clones of [`Counted`] made by this thread so far.
    pub(crate) fn clones() -> usize {
        CLONES.with(Cell::get)
    }

    /// A value whose `Hash` sees only `value % BUCKETS`: with one bucket
    /// every value has the same tag and home slot, with two there are two
    /// runs and tags that differ.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct Colliding<const BUCKETS: u8>(pub u8);

    impl<const BUCKETS: u8> Hash for Colliding<BUCKETS> {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u8(self.0 % BUCKETS);
        }
    }

    impl<T: Eq + Hash> IndexedSet<T> {
        /// The module doc's invariants, checked slot by slot.
        fn assert_invariants(&self) {
            assert!(self.slots.is_empty() || self.slots.len().is_power_of_two());
            assert!(self.items.len() <= capacity_of(self.slots.len()));
            let mut seen = vec![false; self.items.len()];
            let mask = self.slots.len().wrapping_sub(1);
            for (i, slot) in self.slots.iter().enumerate() {
                if slot.is_vacant() {
                    continue;
                }
                let pos = slot.pos as usize;
                assert!(!std::mem::replace(&mut seen[pos], true), "position {pos} in two slots");
                assert_eq!(slot.tag, self.tag_of(&self.items[pos]), "stale tag at slot {i}");
                // Robin Hood: a displaced value follows a value at least
                // as far from home, less one step.
                let dist = Self::displacement(*slot, i, mask);
                if dist > 0 {
                    let before = self.slots[i.wrapping_sub(1) & mask];
                    assert!(!before.is_vacant(), "vacant slot inside a run at {i}");
                    let before_dist = Self::displacement(before, i.wrapping_sub(1) & mask, mask);
                    assert!(dist <= before_dist + 1, "slot {i} sits behind a richer value");
                }
            }
            assert!(seen.iter().all(|&s| s), "a position has no slot");
        }
    }

    /// One step of a set history.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u8),
        Remove(u8),
        RemoveRandom,
        Clear,
    }

    /// Two ops in five insert, one removes by value, two remove at random —
    /// but for one op in two hundred, which clears.
    fn random_op(rng: &mut DetRng) -> Op {
        match rng.below(5) {
            0 | 1 => Op::Insert(rng.below(48) as u8),
            2 => Op::Remove(rng.below(48) as u8),
            3 => Op::RemoveRandom,
            _ if rng.below(40) == 0 => Op::Clear,
            _ => Op::RemoveRandom,
        }
    }

    /// Replays `ops` on the set, on a `HashSet`, and on the `Vec` +
    /// swap-remove the set's order is defined by.
    fn check_history<T: Copy + Eq + Hash + std::fmt::Debug>(
        case: u64,
        ops: &[Op],
        seed: u64,
        make: fn(u8) -> T,
    ) {
        let mut ours: IndexedSet<T> = IndexedSet::new();
        let mut reference: HashSet<T> = HashSet::new();
        let mut order: Vec<T> = Vec::new();
        let (mut rng, mut model_rng) = (DetRng::seed_from(seed), DetRng::seed_from(seed));
        for (step, op) in ops.iter().enumerate() {
            let at = || format!("case {case}, step {step} of {ops:?}");
            match *op {
                Op::Insert(v) => {
                    let fresh = reference.insert(make(v));
                    assert_eq!(ours.insert(make(v)), fresh, "{}", at());
                    if fresh {
                        order.push(make(v));
                    }
                }
                Op::Remove(v) => {
                    let present = reference.remove(&make(v));
                    assert_eq!(ours.remove(&make(v)), present, "{}", at());
                    if let Some(pos) = order.iter().position(|x| *x == make(v)) {
                        order.swap_remove(pos);
                    }
                }
                Op::RemoveRandom => {
                    let victim = (!order.is_empty())
                        .then(|| order.swap_remove(model_rng.below(order.len())));
                    assert_eq!(ours.remove_random(&mut rng), victim, "{}", at());
                    if let Some(v) = victim {
                        reference.remove(&v);
                    }
                }
                Op::Clear => {
                    ours.clear();
                    reference.clear();
                    order.clear();
                }
            }
            assert_eq!(ours.as_slice(), order.as_slice(), "{}", at());
            ours.assert_invariants();
        }
        for v in 0u8..48 {
            let held = reference.contains(&make(v));
            assert_eq!(ours.contains(&make(v)), held, "case {case}, value {v} after {ops:?}");
        }
    }

    #[test]
    fn insert_remove_contains_roundtrip() {
        let mut s = IndexedSet::new();
        for i in 0..100u32 {
            assert!(s.insert(i));
        }
        assert_eq!(s.len(), 100);
        for i in (0..100).step_by(2) {
            assert!(s.remove(&i));
        }
        assert_eq!(s.len(), 50);
        for i in 0..100 {
            assert_eq!(s.contains(&i), i % 2 == 1, "element {i}");
        }
        s.assert_invariants();
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut s: IndexedSet<u32> = IndexedSet::new();
        assert!(!s.remove(&2)); // no table yet
        s.insert(1);
        assert!(!s.remove(&2));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn swap_remove_keeps_index_consistent() {
        let mut s = IndexedSet::new();
        s.insert("a");
        s.insert("b");
        s.insert("c");
        // Removing the first element moves "c" into its slot.
        s.remove(&"a");
        assert_eq!(s.as_slice(), &["c", "b"]);
        assert!(s.contains(&"b"));
        assert!(s.contains(&"c"));
        assert!(s.remove(&"c"));
        assert!(s.remove(&"b"));
        assert!(s.is_empty());
    }

    #[test]
    fn table_grows_on_the_hash_map_schedule() {
        let mut s: IndexedSet<u64> = IndexedSet::new();
        assert_eq!((s.items.capacity(), s.slots.capacity()), (0, 0), "empty sets own no heap");
        assert!(!s.contains(&0));
        // (values held, slots) at each growth: hashbrown's capacities 3,
        // 7, 14, 28, 56, at two slots per bucket.
        let mut growth = Vec::new();
        for i in 0..57 {
            let before = s.slots.len();
            s.insert(i);
            if s.slots.len() != before {
                growth.push((i, s.slots.len()));
            }
        }
        assert_eq!(growth, [(0, 8), (3, 16), (7, 32), (14, 64), (28, 128), (56, 256)]);
        assert_eq!(IndexedSet::<u64>::with_capacity(20).slots.len(), 64);
        let mut merged: IndexedSet<u64> = (0..20).collect();
        assert_eq!((merged.items.capacity(), merged.slots.len()), (20, 64), "sized by the hint");
        merged.clear();
        assert_eq!(merged.slots.len(), 64);
        merged.assert_invariants();
    }

    #[test]
    fn sample_returns_distinct_members() {
        let mut rng = DetRng::seed_from(1);
        let s: IndexedSet<u32> = (0..30).collect();
        let picked = s.sample(10, &mut rng);
        assert_eq!(picked.len(), 10);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        for v in picked {
            assert!(s.contains(&v));
        }
    }

    #[test]
    fn choose_is_roughly_uniform() {
        let mut rng = DetRng::seed_from(2);
        let s: IndexedSet<usize> = (0..5).collect();
        let mut counts = [0usize; 5];
        let trials = 50_000;
        for _ in 0..trials {
            counts[*s.choose(&mut rng).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let p = c as f64 / trials as f64;
            assert!((p - 0.2).abs() < 0.02, "element {i} frequency {p}");
        }
    }

    #[test]
    fn into_sample_is_roughly_uniform() {
        // Each of 10 items should land in a 3-sample with p = 0.3.
        let mut rng = DetRng::seed_from(8);
        let mut counts = [0usize; 10];
        let trials = 30_000;
        for _ in 0..trials {
            let s: IndexedSet<usize> = (0..10).collect();
            for v in s.into_sample(3, &mut rng) {
                counts[v] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let p = c as f64 / trials as f64;
            assert!((p - 0.3).abs() < 0.02, "item {i} frequency {p}");
        }
    }

    #[test]
    fn empty_set_sampling() {
        let mut rng = DetRng::seed_from(3);
        let mut s: IndexedSet<u32> = IndexedSet::new();
        assert_eq!(s.choose(&mut rng), None);
        assert_eq!(s.remove_random(&mut rng), None);
        assert!(s.sample(5, &mut rng).is_empty());
        assert!(s.into_sample(5, &mut rng).is_empty());
    }

    #[test]
    fn equality_ignores_order() {
        let a: IndexedSet<u32> = [1, 2, 3].into_iter().collect();
        let mut b: IndexedSet<u32> = [3, 1].into_iter().collect();
        b.insert(2);
        assert_eq!(a, b);
        assert_eq!(a, a.clone());
        b.remove(&1);
        assert_ne!(a, b);
        assert_eq!(format!("{b:?}"), "{3, 2}");
    }

    #[test]
    fn the_set_never_clones_what_it_holds() {
        let mut rng = DetRng::seed_from(4);
        let mut s: IndexedSet<Counted> = IndexedSet::new();
        for i in 0..40 {
            s.insert(Counted(i)); // grows the table four times
        }
        s.insert(Counted(7));
        s.extend((30..60).map(Counted));
        for i in (0..60).step_by(3) {
            s.remove(&Counted(i));
        }
        let evicted = s.remove_random(&mut rng).expect("non-empty");
        assert!(!s.contains(&evicted));
        assert_eq!(s.len(), 39);
        s.assert_invariants();
        assert_eq!(clones(), 0, "insert, extend, remove and remove_random move");
        // The answer that leaves a server is the one copy.
        assert_eq!(s.sample(10, &mut rng).len(), 10);
        assert_eq!(clones(), 10);
        let copy = s.clone();
        assert_eq!(clones(), 10 + 39);
        assert_eq!(copy.into_sample(35, &mut rng).len(), 35);
        assert_eq!(s.into_vec().len(), 39);
        assert_eq!(clones(), 10 + 39, "into_sample and into_vec move");
    }

    #[test]
    fn a_reused_set_keeps_its_storage_and_comes_back_empty() {
        // Full, grown, half-removed: whatever state it is in.
        let mut full: IndexedSet<u64> = (0..100).collect();
        (0..100).step_by(2).for_each(|i| assert!(full.remove(&i)));
        let (items, slots, seed) = (full.items.capacity(), full.slots.capacity(), full.seed);
        let mut lent: IndexedSet<usize> = full.reuse();
        assert!(full.is_empty() && full.seed == seed);
        assert_eq!((lent.items.capacity(), lent.slots.capacity(), lent.seed), (items, slots, seed));
        lent.assert_invariants();
        lent.extend(500..540);
        lent.assert_invariants();
        // Drained, a set gives the elements `into_sample` gives, in its
        // order and from the same draws, and keeps its storage.
        let (mut a, mut b) = (DetRng::seed_from(9), DetRng::seed_from(9));
        let expected = lent.clone().into_sample(25, &mut a);
        assert_eq!(lent.drain_sample(25, &mut b).collect::<Vec<_>>(), expected);
        assert_eq!(a.next_u64(), b.next_u64());
        assert!(lent.is_empty() && lent.items.capacity() == items);
        let mut back: IndexedSet<u64> = lent.reuse();
        back.assert_invariants();
        assert!(back.insert(7) && back.contains(&7) && !back.contains(&8));
        // However large the table grew, a reused set's table is as long as
        // its own reservation asks, and that is all that is cleared.
        let mut huge: IndexedSet<u64> = (0..10_000).collect();
        let mut small: IndexedSet<usize> = huge.reuse();
        small.reserve(70);
        assert_eq!(small.slots.len(), 256);
        assert!(small.slots.capacity() >= 16_384);
        // So is a table grown by a batch of values with no length to
        // reserve by.
        let mut unhinted: IndexedSet<usize> = small.reuse();
        unhinted.extend((0..3).filter(|_| true));
        assert_eq!(unhinted.slots.len(), 8);
        assert!(unhinted.slots.capacity() >= 16_384);
    }

    #[test]
    fn hash_depends_on_seed_length_and_every_byte() {
        // `Vec<u8>` writes its length, then its bytes; `String` its bytes,
        // then `0xff`; `u64` one word.
        let key = b"192.168.001.042:06699/00042".to_vec();
        let text = String::from_utf8(key.clone()).unwrap();
        assert_eq!(hash_with(7, &key), hash_with(7, &key));
        assert_ne!(hash_with(7, &key), hash_with(8, &key));
        assert_ne!(hash_with(7, &text), hash_with(8, &text));
        assert_ne!(hash_with(7, &key), hash_with(7, &text));
        assert_ne!(hash_with(7, &42u64), hash_with(8, &42u64));
        assert_ne!(hash_with(7, &42u64), hash_with(7, &43u64));
        assert_ne!(hash_with(7, &42u64), hash_with(7, &(42u64 << 32)));
        // A zero byte more is another string, at a word boundary or not.
        for len in [0, 2, 7, 8, 9, 16] {
            let (short, long) = (vec![0u8; len], vec![0u8; len + 1]);
            assert_ne!(hash_with(7, &short), hash_with(7, &long), "{len} zero bytes");
            let (short, long) = ("\0".repeat(len), "\0".repeat(len + 1));
            assert_ne!(hash_with(7, &short), hash_with(7, &long), "{len} zero chars");
        }
        for i in 0..key.len() {
            let mut other = key.clone();
            other[i] ^= 1;
            assert_ne!(hash_with(7, &key), hash_with(7, &other), "byte {i}");
            let other = String::from_utf8(other).unwrap();
            assert_ne!(hash_with(7, &text), hash_with(7, &other), "char {i}");
        }
    }

    #[test]
    fn every_set_has_its_own_seed_and_a_clone_its_originals() {
        let (a, b) = (IndexedSet::<u64>::new(), IndexedSet::<u64>::new());
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.clone().seed, a.seed);
        let filled: IndexedSet<u64> = (0..50).collect();
        let copy = filled.clone();
        assert_eq!(copy.seed, filled.seed);
        copy.assert_invariants(); // the copied tags are still the values' tags
    }

    /// The most slots any member's probe examines.
    fn longest_probe<T: Eq + Hash>(set: &IndexedSet<T>) -> usize {
        let mask = set.slots.len() - 1;
        let occupied = set.slots.iter().enumerate().filter(|(_, slot)| !slot.is_vacant());
        occupied.map(|(i, slot)| IndexedSet::<T>::displacement(*slot, i, mask) + 1).max().unwrap()
    }

    #[test]
    fn near_identical_values_spread_over_the_table() {
        // What stores hold: sequential ids, and the benchmark's peer
        // addresses `AAA.BBB.CCC.DDD:PPPPP/KKKKK`, alike but for a few
        // digits. Whatever the seed, no probe is long.
        let address = |id: u32| {
            let [a, b, c, d] = id.to_be_bytes();
            format!("{a:03}.{b:03}.{c:03}.{d:03}:06699/00042").into_bytes()
        };
        for seed in (0..1000u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            let seed = HashSeed::new(seed);
            let mut ids = IndexedSet { items: Vec::new(), slots: Vec::new(), seed };
            ids.extend(1000..1100u64);
            let mut addresses = IndexedSet { items: Vec::new(), slots: Vec::new(), seed };
            addresses.extend((0..100).map(address));
            assert_eq!(addresses.as_slice()[0].len(), 27);
            // 100 values: the fullest a 256-slot table gets is 112.
            assert_eq!((ids.slots.len(), addresses.slots.len()), (256, 256));
            assert!(longest_probe(&ids) <= 8, "{seed:?}: {}", longest_probe(&ids));
            assert!(longest_probe(&addresses) <= 8, "{seed:?}");
        }
    }

    /// Under any history the set agrees with a reference `HashSet`,
    /// keeps the order a `Vec` with swap-remove would, and keeps its
    /// table's invariants — with a well-spread hash, with every value
    /// in one run under one tag, and with two runs and two tags.
    #[test]
    fn matches_reference_set() {
        for case in 0..256u64 {
            let mut rng = DetRng::seed_from(0x5E7_0000 ^ case);
            let ops: Vec<Op> = (0..rng.below(300)).map(|_| random_op(&mut rng)).collect();
            let seed = rng.next_u64();
            check_history(case, &ops, seed, |v| v);
            check_history(case, &ops, seed, Colliding::<1>);
            check_history(case, &ops, seed, Colliding::<2>);
        }
    }

    /// What `extend` did before it worked in batches: reserve by the same
    /// rule, then one `insert` per value.
    fn extend_one_by_one<T: Eq + Hash>(set: &mut IndexedSet<T>, iter: impl Iterator<Item = T>) {
        let hint = iter.size_hint().0;
        set.reserve(if set.is_empty() { hint } else { hint.div_ceil(2) });
        iter.for_each(|v| {
            set.insert(v);
        });
    }

    /// The items, the table slot by slot, and what both have allocated.
    fn layout<T: Clone>(set: &IndexedSet<T>) -> (Vec<T>, Vec<(u32, u32)>, usize, usize) {
        let slots = set.slots.iter().map(|s| (s.tag, s.pos)).collect();
        (set.items.clone(), slots, set.items.capacity(), set.slots.capacity())
    }

    /// Seeded histories of extends interleaved with removals, replayed on
    /// two sets of one seed: batched `extend` leaves the items, the table
    /// and the allocations one `insert` per value leaves. Values come from
    /// 0..60 and an extend is up to 80 long, so duplicates fall inside a
    /// batch and across batches; some extends hide their length, so a
    /// full vector takes values one at a time.
    fn check_extends<T: Clone + Eq + Hash + fmt::Debug>(case: u64, make: impl Fn(u64) -> T) {
        let mut rng = DetRng::seed_from(0xE87_0000 ^ case);
        let start = || {
            let mut set =
                IndexedSet { items: Vec::new(), slots: Vec::new(), seed: HashSeed::new(case) };
            if case % 2 == 1 {
                // Storage and no table, as a lookup's merge set starts.
                set.extend((0..60).map(&make));
                set = set.reuse();
            }
            set
        };
        let (mut batched, mut single) = (start(), start());
        let (mut a, mut b) = (DetRng::seed_from(case), DetRng::seed_from(case));
        for step in 0..12 {
            let values: Vec<u64> = (0..rng.below(81)).map(|_| rng.below(60) as u64).collect();
            let hidden = rng.below(3) == 0;
            let given = || -> Box<dyn Iterator<Item = T> + '_> {
                let given = values.iter().map(|&v| make(v));
                if hidden {
                    Box::new(given.filter(|_| true))
                } else {
                    Box::new(given)
                }
            };
            batched.extend(given());
            extend_one_by_one(&mut single, given());
            for _ in 0..rng.below(20) {
                let v = make(rng.below(60) as u64);
                assert_eq!(batched.remove(&v), single.remove(&v));
                assert_eq!(batched.remove_random(&mut a), single.remove_random(&mut b));
            }
            assert!(layout(&batched) == layout(&single), "case {case}, step {step}: {values:?}");
            batched.assert_invariants();
        }
    }

    #[test]
    fn a_batched_extend_is_one_insert_per_value() {
        let pool: Vec<Vec<u8>> = (0..60).map(|v| format!("{v:040}").into_bytes()).collect();
        for case in 0..64 {
            check_extends(case, |v| v);
            check_extends(case, |v| format!("{v:040}").into_bytes());
            check_extends(case, |v| &pool[v as usize]);
        }
    }

    thread_local! {
        /// Calls of [`Touchy`]'s `Hash` (`true`) or `Eq` (`false`) left
        /// before one panics.
        pub(crate) static FUSE: Cell<Option<(bool, usize)>> = const { Cell::new(None) };
    }

    /// A value whose `Hash` or `Eq` panics once [`FUSE`] burns down.
    #[derive(Debug, Clone)]
    pub(crate) struct Touchy(pub u64);

    fn burn(hashing: bool) {
        if let Some((which, left)) = FUSE.get() {
            if which == hashing {
                FUSE.set((left > 0).then(|| (which, left - 1)));
                assert!(left > 0, "the fuse burned down");
            }
        }
    }

    impl Hash for Touchy {
        fn hash<H: Hasher>(&self, state: &mut H) {
            burn(true);
            self.0.hash(state);
        }
    }

    impl PartialEq for Touchy {
        fn eq(&self, other: &Self) -> bool {
            burn(false);
            self.0 == other.0
        }
    }

    impl Eq for Touchy {}

    /// A `Hash` or `Eq` that panics on its k-th call, in the first batch
    /// or a later one, leaves a set that holds its invariants and a
    /// prefix of what the whole extend gives, and goes on working.
    #[test]
    fn a_panic_inside_a_batch_leaves_a_prefix_in_a_whole_table() {
        let mut rng = DetRng::seed_from(0x7_0C4);
        let values: Vec<Touchy> = (0..100).map(|_| Touchy(rng.below(40) as u64)).collect();
        let whole: IndexedSet<Touchy> = values.iter().cloned().collect();
        let expected = whole.as_slice().iter().map(|t| t.0).collect::<Vec<_>>();
        let started = || values[..7].iter().cloned().collect::<IndexedSet<_>>();
        for hashing in [true, false] {
            // Count the calls of a whole extend: a fuse that never burns down.
            let mut set = started();
            FUSE.set(Some((hashing, usize::MAX)));
            set.extend(values[7..].iter().cloned());
            let calls = usize::MAX - FUSE.take().expect("still lit").1;
            // About one call per value, so more than a batch of them.
            assert!(calls > BATCH, "hashing {hashing}: {calls} calls");
            for k in 0..calls {
                let mut set = started();
                FUSE.set(Some((hashing, k)));
                let extend =
                    std::panic::AssertUnwindSafe(|| set.extend(values[7..].iter().cloned()));
                let panicked = std::panic::catch_unwind(extend).is_err();
                FUSE.set(None);
                assert!(panicked, "hashing {hashing}, call {k}: no panic");
                set.assert_invariants();
                let held: Vec<u64> = set.iter().map(|t| t.0).collect();
                assert_eq!(held, expected[..held.len()], "hashing {hashing}, call {k}");
                set.extend(values.iter().cloned());
                assert_eq!(set.iter().map(|t| t.0).collect::<Vec<_>>(), expected);
                set.assert_invariants();
            }
        }
    }

    /// `sample(k)` and `into_sample(k)` always return `min(k, len)`
    /// distinct members.
    #[test]
    fn sample_size_invariant() {
        for case in 0..256u64 {
            let mut rng = DetRng::seed_from(0x5A3_0000 ^ case);
            let (len, k) = (rng.below(40), rng.below(60));
            let s: IndexedSet<usize> = (0..len).collect();
            for mut got in [s.sample(k, &mut rng), s.clone().into_sample(k, &mut rng)] {
                let said = format!("case {case}: {k} of {len} gave {got:?}");
                assert_eq!(got.len(), k.min(len), "{said}");
                assert!(got.iter().all(|v| s.contains(v)), "{said}");
                got.sort_unstable();
                got.dedup();
                assert_eq!(got.len(), k.min(len), "{said}: duplicates");
            }
        }
    }
}
