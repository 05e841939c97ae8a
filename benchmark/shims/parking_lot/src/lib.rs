//! API-subset stand-in for `parking_lot` 0.12, over `std::sync`.
//!
//! The build container has no crate registry, and `pls-telemetry` uses
//! `parking_lot::Mutex` inside `TimedMutex`. This shim covers that
//! surface (`new`, `lock`, `try_lock`, `get_mut`, `into_inner`) with
//! parking_lot's signatures: no poisoning, `try_lock` returns `Option`.
//! A lock/unlock here costs what `std::sync::Mutex` costs, so the
//! benchmark's absolute `telemetry.contention.*` numbers are the shim's;
//! they are constant across commits of the repo.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError, TryLockError};

/// A mutual-exclusion lock that does not poison.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// RAII guard; the lock is released when it drops.
pub struct MutexGuard<'a, T: ?Sized>(sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    /// Creates an unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Takes the lock if it is free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(MutexGuard(guard)),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard(p.into_inner())),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking; the borrow proves exclusivity.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_try_lock_get_mut_into_inner() {
        let mut m = Mutex::new(1u32);
        {
            let mut g = m.lock();
            *g += 1;
            assert!(m.try_lock().is_none(), "held lock must refuse try_lock");
        }
        assert_eq!(*m.try_lock().expect("free lock"), 2);
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 3);
    }

    #[test]
    fn a_panicking_holder_does_not_poison() {
        let m = std::sync::Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("holder dies");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
