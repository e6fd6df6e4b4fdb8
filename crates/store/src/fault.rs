//! Deterministic storage fault injection.
//!
//! A [`FaultPlan`] is a shared, cloneable schedule of injected failures,
//! attached to a [`Segment`](crate::segment::Segment) (usually via
//! [`StorageKind::Faulty`](crate::StorageKind)). It can fail the Nth append
//! outright, *tear* the Nth append (leave a partial frame on the medium —
//! the torn tail the recovery scan must discard), or fail the Nth fsync.
//! Operations are counted from 0 in the order the wrapped segment performs
//! them, so a schedule derived from a seed replays identically.
//!
//! The handle stays shared after attachment: tests keep a clone to steer
//! the schedule and read the operation counters while the engine runs.

use mws_obs::sync::lock;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};

/// What to do to an intercepted append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AppendFault {
    /// Fail with an I/O error; nothing reaches the medium.
    Fail,
    /// Write a partial frame to the medium, then fail — the crash-mid-write
    /// a torn-tail recovery scan exists for.
    Tear,
}

#[derive(Debug, Default)]
struct PlanState {
    appends: u64,
    syncs: u64,
    fail_appends: BTreeSet<u64>,
    tear_appends: BTreeSet<u64>,
    fail_syncs: BTreeSet<u64>,
}

/// A shared schedule of storage faults; clones observe and steer the same
/// schedule.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    state: Arc<Mutex<PlanState>>,
}

impl FaultPlan {
    /// An empty plan (no faults until scheduled).
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, PlanState> {
        // A panicking test must not wedge the shared plan for its peers.
        lock(&self.state)
    }

    /// Schedules the `nth` append (0-based, counted across the segment's
    /// lifetime) to fail with an I/O error without touching the medium.
    pub fn fail_append(&self, nth: u64) -> &Self {
        self.lock().fail_appends.insert(nth);
        self
    }

    /// Schedules the `nth` append to tear: a partial frame lands on the
    /// medium and the call fails.
    pub fn tear_append(&self, nth: u64) -> &Self {
        self.lock().tear_appends.insert(nth);
        self
    }

    /// Schedules the `nth` sync (fsync) to fail.
    pub fn fail_sync(&self, nth: u64) -> &Self {
        self.lock().fail_syncs.insert(nth);
        self
    }

    /// Appends intercepted so far (including failed/torn ones).
    pub fn appends(&self) -> u64 {
        self.lock().appends
    }

    /// Syncs intercepted so far (including failed ones).
    pub fn syncs(&self) -> u64 {
        self.lock().syncs
    }

    /// Called by the segment before each append; counts it and returns the
    /// scheduled fault, if any.
    pub(crate) fn on_append(&self) -> Option<AppendFault> {
        let mut s = self.lock();
        let n = s.appends;
        s.appends += 1;
        if s.fail_appends.remove(&n) {
            Some(AppendFault::Fail)
        } else if s.tear_appends.remove(&n) {
            Some(AppendFault::Tear)
        } else {
            None
        }
    }

    /// Called by the segment before each sync; counts it and returns true
    /// when the sync must fail.
    pub(crate) fn on_sync(&self) -> bool {
        let mut s = self.lock();
        let n = s.syncs;
        s.syncs += 1;
        s.fail_syncs.remove(&n)
    }
}

/// The error returned for every injected fault — distinguishable from real
/// I/O failures by its message, indistinguishable by type (callers must
/// handle it like the real thing).
pub(crate) fn injected_io(what: &str) -> crate::StoreError {
    crate::StoreError::Io(std::io::Error::other(format!("injected fault: {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_fires_once_at_the_scheduled_index() {
        let plan = FaultPlan::new();
        plan.fail_append(1).tear_append(2).fail_sync(0);
        assert_eq!(plan.on_append(), None);
        assert_eq!(plan.on_append(), Some(AppendFault::Fail));
        assert_eq!(plan.on_append(), Some(AppendFault::Tear));
        assert_eq!(plan.on_append(), None, "each fault fires exactly once");
        assert!(plan.on_sync());
        assert!(!plan.on_sync());
        assert_eq!(plan.appends(), 4);
        assert_eq!(plan.syncs(), 2);
    }

    #[test]
    fn clones_share_the_schedule() {
        let plan = FaultPlan::new();
        let observer = plan.clone();
        observer.fail_append(0);
        assert_eq!(plan.on_append(), Some(AppendFault::Fail));
        assert_eq!(observer.appends(), 1);
    }
}
