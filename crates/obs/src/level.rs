//! Severity levels and the process-global level gate.
//!
//! The gate is a single `AtomicU8` (0 = logging off); [`enabled`] is a
//! relaxed load plus a compare, which is what keeps a disabled event
//! affordable on the deposit hot path.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};

/// Event severity, from most severe (`Error`) to least (`Trace`).
///
/// The discriminants are the wire/gate encoding: a level is enabled
/// when its discriminant is ≤ the global maximum.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Level {
    /// A request failed in a way an operator should look at.
    Error = 1,
    /// Degraded but self-healing: retries, breaker trips, torn WAL tails.
    Warn = 2,
    /// Lifecycle milestones: listening, shutdown, recovery summary.
    Info = 3,
    /// Per-request outcomes.
    Debug = 4,
    /// Per-hop internals; only for chasing a specific trace id.
    Trace = 5,
}

impl Level {
    /// The canonical lowercase name (`"error"` .. `"trace"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error from parsing a level name; carries nothing, the input was
/// simply not one of `error|warn|info|debug|trace|off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLevelError;

impl fmt::Display for ParseLevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("expected one of: off, error, warn, info, debug, trace")
    }
}

impl std::error::Error for ParseLevelError {}

impl FromStr for Level {
    type Err = ParseLevelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            _ => Err(ParseLevelError),
        }
    }
}

/// The global gate; 0 means logging is off entirely.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

/// Whether events at `level` currently pass the global gate.
///
/// This is the whole cost of a disabled event: one relaxed load.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Sets the global gate; `None` turns logging off.
pub fn set_max_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
}

/// Serializes tests that mutate process-global logging state (the gate
/// and the sink list), so parallel test threads cannot race each other.
#[cfg(test)]
pub(crate) fn gate_guard() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    crate::sync::lock(&GATE)
}

/// The current global gate, `None` when logging is off: what a test that
/// moves the gate restores.
#[cfg(test)]
pub(crate) fn max_level() -> Option<Level> {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        1 => Some(Level::Error),
        2 => Some(Level::Warn),
        3 => Some(Level::Info),
        4 => Some(Level::Debug),
        5 => Some(Level::Trace),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_names_round_trip() {
        for level in [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(level.as_str().parse::<Level>(), Ok(level));
        }
        assert_eq!("WARNING".parse::<Level>(), Ok(Level::Warn));
        assert_eq!(" Info ".parse::<Level>(), Ok(Level::Info));
        assert!("verbose".parse::<Level>().is_err());
        assert!("off".parse::<Level>().is_err());
    }

    #[test]
    fn gate_orders_levels() {
        let _gate = gate_guard();
        let before = max_level();
        set_max_level(Some(Level::Warn));
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Trace));
        set_max_level(None);
        assert!(!enabled(Level::Error));
        set_max_level(before);
    }
}
