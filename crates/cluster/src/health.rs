//! The membership plane's heartbeat: a background prober.
//!
//! Liveness in the router is updated two ways — passively, when a
//! forwarded call fails at the transport (the node is marked down on the
//! spot, so the very next write walks past it), and actively, by this
//! prober re-checking every member with a Health PDU: one failed probe
//! marks a node down, one good probe marks it up. The active path is what
//! brings nodes *back*: a daemon that restarts answers its probe, and the
//! router catches it up from every live peer over the replica plane and
//! replays any hinted-handoff queue it is owed. The probe cadence is the
//! daemon's `--probe-interval-ms` flag.

use crate::router::ClusterRouter;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A background thread probing the cluster on a fixed cadence. Dropping
/// the handle stops the thread (joining it), so tests and daemons get
/// deterministic shutdown for free.
pub struct HealthProber {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HealthProber {
    /// Probes `router` every `every` until dropped. The interval is
    /// sliced into short sleeps so shutdown never waits a full period.
    pub fn spawn(router: Arc<ClusterRouter>, every: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("mws-cluster-prober".into())
            .spawn(move || {
                let tick = Duration::from_millis(25).min(every);
                let mut elapsed = Duration::ZERO;
                while !stop_flag.load(Ordering::Relaxed) {
                    std::thread::sleep(tick);
                    elapsed += tick;
                    if elapsed >= every {
                        elapsed = Duration::ZERO;
                        router.probe_once();
                    }
                }
            })
            .expect("spawn prober thread");
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for HealthProber {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}
