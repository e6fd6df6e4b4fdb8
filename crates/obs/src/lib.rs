//! Observability substrate for the MWS reproduction: structured leveled
//! logging, a metrics registry, and trace-context propagation.
//!
//! The MWS brokers deposits between parties that must not see each
//! other's data, so black-box behavior is the only view operators get.
//! This crate is the measurement plane threaded through every layer:
//!
//! * [`log`]-style **events** — leveled (`error..trace`), structured
//!   (typed key/value fields), fanned out to pluggable [`Sink`]s
//!   (stderr line format for daemons, an in-memory [`RingSink`] for
//!   tests). The global level gate is a single relaxed atomic load, so
//!   a disabled event costs a branch and nothing else.
//! * **Metrics** — named [`Counter`]s, [`Gauge`]s and log-linear
//!   latency [`Histogram`]s in a process-global [`Registry`], rendered
//!   as Prometheus-style `name{label="v"} value` text by
//!   [`Registry::exposition`]. Handles are cheap `Arc` clones over
//!   relaxed atomics: preregister once, update on the hot path.
//! * **Traces** — a 64-bit trace id plus per-hop span id
//!   ([`trace::TraceContext`]), carried in a thread-local scope
//!   ([`trace::enter`]) and stamped on every event a hop emits, so one
//!   deposit can be followed client → gatekeeper → MMS → store fsync →
//!   PKG ticket across all four processes.
//!
//! Confidentiality constraint (DESIGN.md §7): metric names, labels and
//! event fields must never carry identities, message plaintext, keys or
//! ciphertext. Cardinality stays bounded and the stats plane reveals
//! only what the paper already concedes to the warehouse operator:
//! traffic shape and timing.
//!
//! This crate depends on `std` alone, so it can sit below `mws-wire`
//! without joining any dependency cycle. [`sync`] holds the workspace's
//! lock-poisoning policy for the same reason: every crate that locks
//! anything already depends on this one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod level;
mod log;
mod metrics;
pub mod sync;
pub mod trace;

pub use level::{enabled, max_level, set_max_level, Level, ParseLevelError};
pub use log::{
    add_sink, clear_sinks, dispatch, format_record, init_from_env, Record, RingSink, Sink,
    StderrSink, Value,
};
pub use metrics::{metric_name, registry, Counter, Gauge, Histogram, HistogramSnapshot, Registry};

/// Emits a structured event at an explicit level.
///
/// Field values are evaluated **only** when the level is enabled, so a
/// disabled event costs one relaxed atomic load and a branch.
///
/// ```
/// mws_obs::event!(mws_obs::Level::Info, target: "doc", "listening",
///                 port = 7101u64, role = "mms");
/// ```
#[macro_export]
macro_rules! event {
    ($level:expr, target: $target:expr, $msg:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled($level) {
            $crate::dispatch(
                $crate::Record::new($level, $target, $msg)
                    $(.with(stringify!($key), $val))*
            );
        }
    };
}

/// Emits an [`Level::Error`] event. See [`event!`] for the field syntax.
#[macro_export]
macro_rules! error {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::event!($crate::Level::Error, target: $target, $($rest)*)
    };
}

/// Emits a [`Level::Warn`] event. See [`event!`] for the field syntax.
#[macro_export]
macro_rules! warn {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::event!($crate::Level::Warn, target: $target, $($rest)*)
    };
}

/// Emits an [`Level::Info`] event. See [`event!`] for the field syntax.
#[macro_export]
macro_rules! info {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::event!($crate::Level::Info, target: $target, $($rest)*)
    };
}

/// Emits a [`Level::Debug`] event. See [`event!`] for the field syntax.
#[macro_export]
macro_rules! debug {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::event!($crate::Level::Debug, target: $target, $($rest)*)
    };
}

/// Emits a [`Level::Trace`] event. See [`event!`] for the field syntax.
#[macro_export]
macro_rules! trace {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::event!($crate::Level::Trace, target: $target, $($rest)*)
    };
}

#[cfg(test)]
mod macro_tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_event_does_not_evaluate_fields() {
        let _gate = crate::level::gate_guard();
        let before = max_level();
        set_max_level(None);
        let mut evaluated = false;
        crate::trace!(target: "obs_test", "never", cost = {
            evaluated = true;
            1u64
        });
        assert!(!evaluated, "disabled event must not evaluate its fields");
        set_max_level(before);
    }

    #[test]
    fn enabled_event_reaches_installed_sink() {
        let _gate = crate::level::gate_guard();
        let ring = RingSink::new(8);
        add_sink(ring.clone() as Arc<dyn Sink>);
        let before = max_level();
        set_max_level(Some(Level::Debug));
        crate::debug!(target: "obs_macro_test", "hello", answer = 42u64, who = "world");
        set_max_level(before);
        let records = ring.records();
        let rec = records
            .iter()
            .find(|r| r.target == "obs_macro_test")
            .expect("event captured");
        assert_eq!(rec.message, "hello");
        assert_eq!(rec.field("answer"), Some(&Value::U64(42)));
        assert_eq!(rec.field("who"), Some(&Value::Str("world".into())));
    }
}
