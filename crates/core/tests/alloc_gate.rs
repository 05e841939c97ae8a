//! Allocation gate for the in-process paths: what one `add`, one `delete`
//! and one `partial_lookup` of a `Directory` and of a `Cluster<u64>`
//! allocate at steady state, per strategy, and that a server which does
//! not hold an entry allocates nothing to learn so.
//!
//! The shape is the benchmark's (`benchmark/src/dirload.rs`): ten
//! servers, one key of a hundred 27-byte `Vec<u8>` entries, adds and
//! deletes alternating so the key stays that size. What an update must
//! allocate is the copies that are kept — a delete's copy of the caller's
//! reference, one per server that stores an added entry (a broadcast is
//! one message the servers read; the last of them takes it), Round-Robin-2's
//! migrate requests and context and the two copies of the head entry that
//! plug a hole — plus the amortised growth of the stores it changes. The
//! fan-out itself (the one queue of `pls-core`'s one update loop) is
//! reused and allocates nothing. What a lookup must
//! allocate is the `t` entries it returns and the vector that holds them;
//! its bookkeeping (probe order, merge set, index vector) is lent by the
//! `Directory` or `Cluster` it runs on, and what the probed servers offered
//! beyond the result is read where it is stored. When the caller drops the
//! result instead of keeping its entries, the next lookup writes its
//! entries and their vector over the dropped ones' storage: a dropped
//! lookup allocates nothing.
//!
//! The same allocator keeps the live requested bytes, from which the
//! footprint row reads what a key of that shape keeps beyond its entries'
//! own bytes, per stored copy.
//!
//! The counter is process-wide, so the binary runs without the test
//! harness (`harness = false`), whose own threads allocate. CI runs it in
//! release mode beside `alloc_budget` and `zero_alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

use pls_core::directory::{Directory, StrategyAssignment};
use pls_core::engine::NodeEngine;
use pls_core::{Cluster, Message, ServerId, StrategySpec};
use pls_net::Endpoint;

/// Counts calls to `alloc` and the bytes requested and not yet freed.
/// `realloc` and `alloc_zeroed` are left to the trait's defaults, which go
/// through `alloc` and `dealloc`, so a grown buffer counts as one
/// allocation, as it does for `pls_telemetry::CountingAlloc`.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is passed to `System` unchanged, which upholds the
// `GlobalAlloc` contract; the counter is a statistic that publishes no
// other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const N: usize = 10;
const H: u64 = 100;
const WARM_UP: u64 = 2_000;
const MEASURED: u64 = 4_000;

/// Allocations made while `work` runs.
fn allocs_during<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = work();
    (ALLOCS.load(Ordering::Relaxed) - before, result)
}

/// A 27-byte entry, as the benchmark's `entry_bytes` makes them.
fn entry(id: u64) -> Vec<u8> {
    format!("key00007-entry{id:013}").into_bytes()
}

/// Mean allocations per `add` and per `delete` on `target`, which holds
/// entries `0..H` made by `entry`: adds of a fresh entry and deletes of a
/// random live one alternating.
fn per_update<T, V>(
    target: &mut T,
    entry: fn(u64) -> V,
    add: fn(&mut T, V),
    delete: fn(&mut T, &V),
) -> (f64, f64) {
    let mut live: Vec<u64> = (0..H).collect();
    let mut pick = 0x9e37_79b9_7f4a_7c15_u64;
    let (mut adds, mut deletes) = (0, 0);
    for step in 0..WARM_UP + MEASURED {
        // Both entries are built before the counter is read: the caller's
        // own copy is not the update's.
        let added = entry(H + step);
        pick = pick.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let victim = entry(live.swap_remove((pick >> 33) as usize % live.len()));
        live.push(H + step);
        let (a, ()) = allocs_during(|| add(target, added));
        let (d, ()) = allocs_during(|| delete(target, &victim));
        if step >= WARM_UP {
            adds += a;
            deletes += d;
        }
    }
    (adds as f64 / MEASURED as f64, deletes as f64 / MEASURED as f64)
}

/// Mean allocations per `partial_lookup(t)`; `lookup` returns how many
/// entries it got.
fn per_lookup(t: usize, mut lookup: impl FnMut() -> usize) -> f64 {
    let mut allocs = 0;
    for step in 0..WARM_UP + MEASURED {
        let (a, got) = allocs_during(&mut lookup);
        assert_eq!(got, t);
        if step >= WARM_UP {
            allocs += a;
        }
    }
    allocs as f64 / MEASURED as f64
}

/// The bytes a ten-server `Directory` keeps for one key of `H` entries,
/// beyond the 27 bytes of each stored copy, per stored copy. A first key
/// is placed before the count starts: the update queue it grows is the
/// directory's, shared by every key.
fn bookkeeping_per_copy(spec: StrategySpec) -> f64 {
    let mut dir: Directory<u32, Vec<u8>> =
        Directory::new(N, StrategyAssignment::Uniform(spec), 42).expect("ten servers");
    dir.place(6, (0..H).map(entry).collect()).expect("place");
    let before = LIVE.load(Ordering::Relaxed);
    // Each entry's buffer is cut to its 27 bytes, as every copy's is.
    dir.place(7, (0..H).map(|id| entry(id).as_slice().to_vec()).collect()).expect("place");
    let live = LIVE.load(Ordering::Relaxed) - before;
    let copies: usize = (0..N).map(|s| dir.server_entries(&7, ServerId::new(s as u32)).len()).sum();
    (live as f64 - 27.0 * copies as f64) / copies as f64
}

/// Wraps an entry in the message under test.
type Wrap = fn(Vec<u8>) -> Message<Vec<u8>>;

/// Allocations of `handle_into` over two hundred `absent` messages, on
/// server 5 of ten holding a hundred entries.
fn absent_removes(spec: StrategySpec, absent: Wrap) -> u64 {
    let me = ServerId::new(5);
    let mut engine: NodeEngine<Vec<u8>> = NodeEngine::new(me, N, spec, 42).expect("valid spec");
    let peer = Endpoint::Server(ServerId::new(0));
    let mut out = Vec::new();
    for id in 0..H {
        let v = entry(id);
        let stored = match spec {
            StrategySpec::RoundRobin { .. } => Message::RrStore { v, pos: 5 + id * N as u64 },
            _ => Message::Store { v },
        };
        engine.handle_into(peer, Cow::Owned(stored), &mut out);
    }
    assert_eq!(engine.entries().len(), H as usize);
    let messages: Vec<Message<Vec<u8>>> = (0..200).map(|id| absent(entry(1_000 + id))).collect();
    let (allocs, ()) = allocs_during(|| {
        for msg in messages {
            engine.handle_into(peer, Cow::Owned(msg), &mut out);
        }
    });
    assert!(out.is_empty() && engine.entries().len() == H as usize);
    allocs
}

fn main() {
    // (strategy, ceiling): the bytes beyond the entries' own that a key
    // keeps per stored copy, measured plus four. A copy is a 24-byte
    // `Vec` in its store's items and a slot of the store's hash table,
    // each grown by doubling; the key's ten engines are spread over its
    // copies: 47.2 for full replication's thousand, 63.0 for Fixed-20's
    // and RandomServer-20's two hundred, 90.9 for Hash-2's two hundred,
    // whose engines each carry the family's tables. Round-Robin-2 127.0:
    // the same stores, each engine's Round-Robin box, and per copy the
    // entry's lowest position and the position's 16-byte slot, each in an
    // array grown by doubling.
    let gates = [
        (StrategySpec::full_replication(), 51.2),
        (StrategySpec::fixed(20), 67.0),
        (StrategySpec::random_server(20), 67.0),
        (StrategySpec::round_robin(2), 131.0),
        (StrategySpec::hash(2), 94.9),
    ];
    for (spec, ceiling) in gates {
        let bytes = bookkeeping_per_copy(spec);
        println!("alloc_gate: {spec}: {bytes:.1} bytes of bookkeeping per stored copy");
        assert!(bytes <= ceiling, "{spec}: {bytes:.1} bytes per stored copy > {ceiling}");
    }

    // (strategy, ceiling per add, ceiling per delete): the measured mean
    // plus one; the counts are the same in debug and release builds.
    // Every delete starts with the request's copy of the caller's
    // reference, and for four strategies that is all of it: 1.00 (Hash-2
    // 1.90, a second server's copy nine times in ten), because no server
    // copies an entry to remove it. Full replication adds 9.00: nine
    // servers copy the entry out of the broadcast they read and the tenth
    // keeps the message's. RandomServer-20 3.20: the servers whose
    // reservoir admits the entry, mostly those a delete left below x.
    // Fixed-20 1.77: one delete in five hits a stored entry, and the next
    // add refills the cushion with a broadcast all ten keep. Round-Robin-2
    // 1.00 / 5.70: the second stored copy; two migrate requests, the head
    // server's context, two copies of the head entry, less what the tenth
    // server spares when it is one of those; the positions are flat
    // arrays that keep their capacity. Hash-2 0.90: the second server's
    // copy.
    let gates = [
        (StrategySpec::full_replication(), 10.0, 2.0),
        (StrategySpec::fixed(20), 2.77, 2.0),
        (StrategySpec::random_server(20), 4.2, 2.0),
        (StrategySpec::round_robin(2), 2.0, 6.7),
        (StrategySpec::hash(2), 1.9, 2.9),
    ];
    for (spec, add_ceiling, delete_ceiling) in gates {
        let mut dir: Directory<u32, Vec<u8>> =
            Directory::new(N, StrategyAssignment::Uniform(spec), 42).expect("ten servers");
        dir.place(7, (0..H).map(entry).collect()).expect("place");
        let (add, delete) = per_update(
            &mut dir,
            entry,
            |dir, v| dir.add(&7, v).expect("add"),
            |dir, v| dir.delete(&7, v).expect("delete"),
        );
        println!("alloc_gate: {spec}: {add:.2} per add, {delete:.2} per delete");
        assert!(add <= add_ceiling, "{spec}: {add:.2} allocations per add > {add_ceiling}");
        assert!(
            delete <= delete_ceiling,
            "{spec}: {delete:.2} allocations per delete > {delete_ceiling}"
        );
    }

    // A server that does not hold the entry answers with one probe of its
    // store: no clone, no context, no out buffer growth.
    let cases: [(&str, StrategySpec, Wrap); 3] = [
        ("Remove", StrategySpec::full_replication(), |v| Message::Remove { v }),
        ("CountedRemove", StrategySpec::random_server(200), |v| Message::CountedRemove { v }),
        // (Head position 3 lives on server 3: this one keeps no context.)
        ("RrRemove", StrategySpec::round_robin(2), |v| Message::RrRemove { v, head_pos: 3 }),
    ];
    for (name, spec, absent) in cases {
        assert_eq!(absent_removes(spec, absent), 0, "{name} of an entry not held");
    }
    println!("alloc_gate: absent Remove / CountedRemove / RrRemove allocate nothing");

    // (strategy, t, server down, ceiling kept, ceiling dropped): a lookup of
    // one key of the same shape whose entries the caller keeps
    // (`into_entries`) or drops, measured plus one. Kept, a lookup measures
    // its `t` copies and the result's vector: 6.00 for one probe of "5 of
    // 100" (or of 20), 36.00 for t = 35, whether one probe of 100 answers
    // it or a merge. The bookkeeping is the directory's, lent to each
    // lookup: the probe order (Round-Robin-2: the `visited` flags), the
    // merge set's table and item vector, the index vector of a server
    // holding more than 35 (Full t = 35 of 100), and `fall_back`'s order
    // when the walk meets server 3 down; `contacted` is inline. Nothing
    // per probe, nothing per entry fetched and not returned. Dropped, the
    // result and its copies are written over what the last dropped result
    // gave back: 0.00 on every row.
    let gates = [
        (StrategySpec::full_replication(), 5, None, 7.0, 1.0),
        (StrategySpec::full_replication(), 35, None, 37.0, 1.0),
        (StrategySpec::fixed(20), 5, None, 7.0, 1.0),
        (StrategySpec::random_server(20), 35, None, 37.0, 1.0),
        (StrategySpec::round_robin(2), 35, None, 37.0, 1.0),
        (StrategySpec::round_robin(2), 35, Some(3), 37.0, 1.0),
        (StrategySpec::hash(2), 35, None, 37.0, 1.0),
    ];
    for (spec, t, down, kept_ceiling, dropped_ceiling) in gates {
        let directory = || {
            let mut dir: Directory<u32, Vec<u8>> =
                Directory::new(N, StrategyAssignment::Uniform(spec), 42).expect("ten servers");
            dir.place(7, (0..H).map(entry).collect()).expect("place");
            if let Some(s) = down {
                dir.fail_server(ServerId::new(s));
            }
            dir
        };
        let mut dir = directory();
        let kept =
            per_lookup(t, || dir.partial_lookup(&7, t).expect("lookup").into_entries().len());
        let mut dir = directory();
        let dropped = per_lookup(t, || dir.partial_lookup(&7, t).expect("lookup").entries().len());
        let down = down.map_or(String::new(), |s| format!(", server {s} down"));
        println!(
            "alloc_gate: {spec}{down}: {kept:.2} per partial_lookup({t}) kept, {dropped:.2} dropped"
        );
        assert!(kept <= kept_ceiling, "{spec}{down}: {kept:.2} allocations per kept lookup");
        assert!(
            dropped <= dropped_ceiling,
            "{spec}{down}: {dropped:.2} allocations per dropped lookup"
        );
    }

    // The simulator's lookup, `Cluster<u64>` with t = 15, which one probe
    // of a 20-entry store answers. Copying a `u64` allocates nothing, and
    // the bookkeeping is the cluster's (the index vector of "15 of 20"
    // too), so kept, a lookup measures its result's vector alone: 1.00 on
    // every strategy. Dropped: 0.00.
    let gates = [
        (StrategySpec::full_replication(), 2.0, 1.0),
        (StrategySpec::fixed(20), 2.0, 1.0),
        (StrategySpec::random_server(20), 2.0, 1.0),
        (StrategySpec::round_robin(2), 2.0, 1.0),
        (StrategySpec::hash(2), 2.0, 1.0),
    ];
    for (spec, kept_ceiling, dropped_ceiling) in gates {
        let cluster = || {
            let mut cluster: Cluster<u64> = Cluster::new(N, spec, 42).expect("ten servers");
            cluster.place((0..H).collect()).expect("place");
            cluster
        };
        let mut c = cluster();
        let kept = per_lookup(15, || c.partial_lookup(15).expect("lookup").into_entries().len());
        let mut c = cluster();
        let dropped = per_lookup(15, || c.partial_lookup(15).expect("lookup").entries().len());
        println!(
            "alloc_gate: Cluster<u64> {spec}: {kept:.2} per partial_lookup(15) kept, \
             {dropped:.2} dropped"
        );
        assert!(kept <= kept_ceiling, "{spec}: {kept:.2} allocations per kept lookup");
        assert!(dropped <= dropped_ceiling, "{spec}: {dropped:.2} allocations per dropped lookup");
    }

    // The simulator's updates, `Cluster<u64>` through the same loop. A
    // `u64` is copied without allocating, Hash-2 assigns without a `Vec`
    // and Round-Robin-2's positions are flat arrays that keep their
    // capacity, so every strategy measures 0.00 / 0.00. Measured plus one.
    let gates = [
        (StrategySpec::full_replication(), 1.0, 1.0),
        (StrategySpec::fixed(20), 1.0, 1.0),
        (StrategySpec::random_server(20), 1.0, 1.0),
        (StrategySpec::round_robin(2), 1.0, 1.0),
        (StrategySpec::hash(2), 1.0, 1.0),
    ];
    for (spec, add_ceiling, delete_ceiling) in gates {
        let mut cluster: Cluster<u64> = Cluster::new(N, spec, 42).expect("ten servers");
        cluster.place((0..H).collect()).expect("place");
        let (add, delete) = per_update(
            &mut cluster,
            |id| id,
            |cluster, v| cluster.add(v).expect("add"),
            |cluster, v| cluster.delete(v).expect("delete"),
        );
        println!("alloc_gate: Cluster<u64> {spec}: {add:.2} per add, {delete:.2} per delete");
        assert!(add <= add_ceiling, "{spec}: {add:.2} allocations per add > {add_ceiling}");
        assert!(
            delete <= delete_ceiling,
            "{spec}: {delete:.2} allocations per delete > {delete_ceiling}"
        );
    }
}
