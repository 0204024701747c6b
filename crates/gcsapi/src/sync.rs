//! Poison-recovering access to `std::sync` locks.
//!
//! A simulated client crash (`ClientCrashed`) unwinds through held
//! guards by design, and the crash suites restart on the same
//! providers. Every structure these locks guard is valid between any
//! two statements of its updates, so a poisoned lock hands its data over
//! as it stands instead of failing every later caller.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};

/// `m.lock()`, poison ignored.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// `m.try_lock()`, poison ignored: `None` only when the lock is held.
pub fn try_lock<T: ?Sized>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// `l.read()`, poison ignored.
pub fn read<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

/// `l.write()`, poison ignored.
pub fn write<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}
