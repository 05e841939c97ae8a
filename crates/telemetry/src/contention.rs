//! Lock-contention instrumentation: a mutex wrapper that measures
//! where threads wait.
//!
//! [`TimedMutex`] wraps `std::sync::Mutex` and records, per named
//! lock *site*:
//!
//! * a **wait-time** log₂ histogram — how long `lock()` blocked before
//!   acquiring (microseconds; the uncontended fast path records 0),
//! * a **hold-time** log₂ histogram — how long the guard lived,
//! * an **acquisitions** counter — every successful `lock()`,
//! * a **contended** counter — acquisitions whose initial `try_lock`
//!   lost the race and had to park.
//!
//! The fast path costs one `try_lock`, two `Instant::now()` reads, and
//! four relaxed atomic adds — cheap enough to leave on permanently,
//! including on a request hot path. Stats are owned by the mutex (via
//! an [`Arc<SiteStats>`] so exporters can hold them independently of
//! the lock's lifetime), not by a process-global registry: two servers
//! in one test process never see each other's contention, and
//! resetting one server's metrics cannot drain another's.
//!
//! A holder that panics does not poison the lock: the next `lock()` takes
//! the value as the panic left it. A handler that dies under a shard lock
//! must not wedge the shard for every later request, so what goes under a
//! `TimedMutex` has to be valid after each single step of an update.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Instant;

use crate::counter::Counter;
use crate::histogram::{Histogram, HistogramSnapshot};

/// Per-site contention statistics, shared between a [`TimedMutex`] and
/// whoever exports its numbers.
#[derive(Debug, Default)]
pub struct SiteStats {
    /// Successful acquisitions.
    pub acquisitions: Counter,
    /// Acquisitions that found the lock held and had to wait.
    pub contended: Counter,
    /// Time spent waiting to acquire, in microseconds.
    pub wait_us: Histogram,
    /// Time the lock was held, in microseconds.
    pub hold_us: Histogram,
}

impl SiteStats {
    /// Fresh, all-zero statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// A plain-data copy of the current state.
    pub fn snapshot(&self) -> SiteSnapshot {
        SiteSnapshot {
            acquisitions: self.acquisitions.get(),
            contended: self.contended.get(),
            wait_us: self.wait_us.snapshot(),
            hold_us: self.hold_us.snapshot(),
        }
    }
}

/// Plain-data copy of one site's [`SiteStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteSnapshot {
    /// Successful acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that had to wait.
    pub contended: u64,
    /// Wait-time distribution (µs).
    pub wait_us: HistogramSnapshot,
    /// Hold-time distribution (µs).
    pub hold_us: HistogramSnapshot,
}

/// A `std::sync::Mutex` that measures itself and does not poison.
///
/// Construct with a `&'static` site name (shows up as the `site` label
/// in exported metrics), lock exactly like a plain mutex, and read the
/// accumulated numbers through [`stats`](TimedMutex::stats).
#[derive(Debug)]
pub struct TimedMutex<T> {
    inner: Mutex<T>,
    site: &'static str,
    stats: Arc<SiteStats>,
}

impl<T> TimedMutex<T> {
    /// Wraps `value` in an instrumented mutex named `site`.
    pub fn new(site: &'static str, value: T) -> Self {
        TimedMutex { inner: Mutex::new(value), site, stats: Arc::new(SiteStats::new()) }
    }

    /// The site name this lock reports under.
    pub fn site(&self) -> &'static str {
        self.site
    }

    /// The site's accumulated statistics (shared; clone the `Arc` to
    /// keep exporting after the mutex is gone).
    pub fn stats(&self) -> &Arc<SiteStats> {
        &self.stats
    }

    /// Acquires the lock, recording wait time and contention; the
    /// returned guard records hold time when dropped.
    pub fn lock(&self) -> TimedMutexGuard<'_, T> {
        let uncontended = match self.inner.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        };
        let guard = match uncontended {
            Some(guard) => {
                self.stats.wait_us.observe(0);
                guard
            }
            None => {
                self.stats.contended.inc();
                let start = Instant::now();
                let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
                self.stats.wait_us.observe(start.elapsed().as_micros() as u64);
                guard
            }
        };
        self.stats.acquisitions.inc();
        TimedMutexGuard { guard, stats: &self.stats, acquired: Instant::now() }
    }

    /// Uninstrumented escape hatch for contexts (e.g. `Drop` impls)
    /// that must not touch the stats.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII guard for a [`TimedMutex`]; records the hold time on drop.
#[derive(Debug)]
pub struct TimedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    stats: &'a SiteStats,
    acquired: Instant,
}

impl<T> std::ops::Deref for TimedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for TimedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Drop for TimedMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.stats.hold_us.observe(self.acquired.elapsed().as_micros() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    fn uncontended_lock_counts_but_does_not_contend() {
        let m = TimedMutex::new("t", 7u64);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 8);
        let s = m.stats().snapshot();
        assert_eq!(s.acquisitions, 2);
        assert_eq!(s.contended, 0);
        assert_eq!(s.wait_us.count, 2);
        // Hold histogram: the first guard dropped, the second dropped at
        // the `assert_eq` temporary's end.
        assert_eq!(s.hold_us.count, 2);
    }

    #[test]
    fn contended_lock_records_wait() {
        let m = Arc::new(TimedMutex::new("t", ()));
        let held = Arc::new(AtomicBool::new(false));
        let holder = {
            let (m, held) = (Arc::clone(&m), Arc::clone(&held));
            std::thread::spawn(move || {
                let _g = m.lock();
                held.store(true, Ordering::SeqCst);
                // The wait starts once the waiter is counted contended
                // (`lock()` counts before it starts the clock): hold for
                // 20 ms from then, however late the waiter got there.
                while m.stats().contended.get() == 0 {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(20));
            })
        };
        while !held.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let _g = m.lock(); // must wait ~20ms
        drop(_g);
        holder.join().unwrap();
        let s = m.stats().snapshot();
        assert_eq!(s.acquisitions, 2);
        assert_eq!(s.contended, 1);
        assert!(s.wait_us.sum >= 10_000, "waited {}us", s.wait_us.sum);
        assert!(s.hold_us.sum >= 10_000, "held {}us", s.hold_us.sum);
    }

    /// A handler that panics under a shard lock must not wedge the shard.
    #[test]
    fn a_panicking_holder_does_not_poison() {
        let mut m = TimedMutex::new("t", 0u64);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let mut g = m.lock();
                *g += 1;
                panic!("holder dies");
            });
            assert!(holder.join().is_err(), "the holder panicked");
        });
        *m.lock() += 1;
        assert_eq!(*m.get_mut(), 2, "both updates are there");
        let s = m.stats().snapshot();
        assert_eq!(s.acquisitions, 2, "the dead holder's and the next one's");
        assert_eq!(s.contended, 0);
        assert_eq!(s.hold_us.count, 2, "the guard dropped in the unwind was timed too");
    }

    /// The satellite-mandated hammer: under 8-thread contention the
    /// accounting must be consistent and never move backwards between
    /// successive snapshots.
    #[test]
    fn accounting_is_monotonic_under_eight_thread_contention() {
        let m = Arc::new(TimedMutex::new("hammer", 0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let (m, stop) = (Arc::clone(&m), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut locked = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let mut g = m.lock();
                        *g += 1;
                        locked += 1;
                        // A little work under the lock so others park.
                        std::hint::black_box(&mut *g);
                    }
                    locked
                })
            })
            .collect();

        let mut prev = m.stats().snapshot();
        let deadline = Instant::now() + Duration::from_millis(200);
        while Instant::now() < deadline {
            let cur = m.stats().snapshot();
            assert!(cur.acquisitions >= prev.acquisitions, "acquisitions went backwards");
            assert!(cur.contended >= prev.contended, "contended went backwards");
            assert!(cur.wait_us.count >= prev.wait_us.count, "wait count went backwards");
            assert!(cur.wait_us.sum >= prev.wait_us.sum, "wait sum went backwards");
            assert!(cur.hold_us.count >= prev.hold_us.count, "hold count went backwards");
            assert!(cur.hold_us.sum >= prev.hold_us.sum, "hold sum went backwards");
            assert!(cur.contended <= cur.acquisitions, "contended > acquisitions");
            prev = cur;
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();

        let s = m.stats().snapshot();
        assert_eq!(*m.lock(), total, "every increment happened under the lock");
        // +1 for the assert's own lock; guards may still be mid-drop is
        // impossible here since all workers joined.
        assert_eq!(s.acquisitions, total, "one acquisition per increment");
        assert_eq!(s.wait_us.count, s.acquisitions);
        assert_eq!(s.hold_us.count, s.acquisitions);
        assert!(s.contended > 0, "8 threads on one lock never contended?");
    }
}
