//! Poison-recovering access to `std::sync` locks.
//!
//! Every lock in the workspace guards state that is valid after each single
//! update (maps, queues, counters, a service's tables), so a thread that
//! panicked while holding one leaves nothing half-written behind. The policy
//! is therefore to recover the guard: one failed request must not turn every
//! later request on the same daemon into a panic.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `m`, recovering the guard if a previous holder panicked.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, recovering the guard if a previous writer panicked.
pub fn read_lock<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, recovering the guard if a previous holder panicked.
pub fn write_lock<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}
