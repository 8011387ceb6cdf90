//! # shareinsights-sync
//!
//! Poison-free [`Mutex`] and [`RwLock`] wrappers over `std::sync`,
//! API-compatible with the subset of `parking_lot` this workspace uses
//! (`lock`/`read`/`write` returning guards directly, `into_inner` without a
//! `Result`). The build environment has no network access to crates.io, so
//! the workspace maps the `parking_lot` dependency name onto this crate;
//! a panic while holding a lock here simply clears the poison flag instead
//! of propagating it, which matches parking_lot's semantics closely enough
//! for our executors and registries.
//!
//! It is also the one crate every cache owner already depends on, so the
//! shared stamped [`Lru`] lives here ([`lru`]), and so does the one pool of
//! parked helper threads that morsel jobs run on ([`pool`]).

pub mod lru;
pub mod pool;

pub use lru::{CacheStats, Lru};
pub use pool::{Pool, PoolStats, Ran};

use std::sync::PoisonError;

/// Mutex guard type (std's; poison already recovered by [`Mutex::lock`]).
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;
/// Shared read guard.
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// Exclusive write guard.
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

/// A mutual-exclusion lock whose `lock()` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, recovering from poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Try to acquire without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Self {
        Mutex::new(value)
    }
}

/// A readers-writer lock whose accessors never return poison errors.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Self {
        RwLock(std::sync::RwLock::new(value))
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard, recovering from poison.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire an exclusive write guard, recovering from poison.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> From<T> for RwLock<T> {
    fn from(value: T) -> Self {
        RwLock::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
        let mut m = Mutex::new(5);
        *m.get_mut() = 6;
        assert!(m.try_lock().is_some());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(*l.read(), vec![1, 2]);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    #[test]
    fn poison_is_recovered() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // parking_lot semantics: the lock stays usable.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);

        let l = Arc::new(RwLock::new(0));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison it");
        })
        .join();
        *l.write() += 1;
        assert_eq!(*l.read(), 1);
    }
}
