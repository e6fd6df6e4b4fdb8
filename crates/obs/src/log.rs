//! Structured events, the sink fan-out, and the stderr/ring sinks.
//!
//! A [`Record`] is born already stamped with the thread's current
//! [`trace::TraceContext`](crate::trace::TraceContext) and a monotonic
//! elapsed-time offset, then handed to every installed [`Sink`]. Sinks
//! are installed once at startup (daemons: [`init_from_env`]) or per
//! test ([`RingSink`]); dispatch takes a read lock only.

use crate::level::Level;
use crate::sync::{lock, read_lock, write_lock};
use crate::trace::TraceContext;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock, RwLock};
use std::time::Instant;

/// A typed field value on a [`Record`].
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Text (endpoint names, error strings — never identities or payload).
    Str(String),
    /// Unsigned scalar (counts, sizes, ports, latencies).
    U64(u64),
    /// Signed scalar.
    I64(i64),
    /// Floating-point scalar (rates).
    F64(f64),
    /// Flag.
    Bool(bool),
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v.into())
    }
}
impl From<u16> for Value {
    fn from(v: u16) -> Self {
        Value::U64(v.into())
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(v.into())
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Quote text only when it would break the key=value grammar.
            Value::Str(s) if s.contains([' ', '=', '"']) => write!(f, "{s:?}"),
            Value::Str(s) => f.write_str(s),
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// One structured event, as delivered to every sink.
#[derive(Clone, Debug)]
pub struct Record {
    /// Severity.
    pub level: Level,
    /// The emitting component (crate or subsystem name, static).
    pub target: &'static str,
    /// Human-readable summary; dynamics belong in `fields`.
    pub message: String,
    /// Typed key/value details.
    pub fields: Vec<(&'static str, Value)>,
    /// The trace scope current on the emitting thread, if any.
    pub trace: Option<TraceContext>,
    /// Microseconds since this process first touched the logger.
    pub elapsed_us: u64,
}

fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

impl Record {
    /// Builds a record stamped with the current trace scope and clock.
    pub fn new(level: Level, target: &'static str, message: impl Into<String>) -> Self {
        Record {
            level,
            target,
            message: message.into(),
            fields: Vec::new(),
            trace: crate::trace::current(),
            elapsed_us: process_start().elapsed().as_micros().min(u64::MAX as u128) as u64,
        }
    }

    /// Appends one field (builder-style, used by the event macros).
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Looks up a field by key (first match).
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Receives every record that passes the level gate.
///
/// Sinks must not block for long and must never re-enter the transport
/// or store layers they observe: dispatch may run while the caller
/// holds locks of its own (e.g. the in-process bus lock).
pub trait Sink: Send + Sync {
    /// Handles one event. Records arrive by reference; clone to retain.
    fn accept(&self, record: &Record);
}

static SINKS: RwLock<Vec<Arc<dyn Sink>>> = RwLock::new(Vec::new());

/// Installs an additional sink (daemon stderr, test ring buffer, ...).
pub fn add_sink(sink: Arc<dyn Sink>) {
    write_lock(&SINKS).push(sink);
}

/// Fans a record out to every installed sink.
///
/// Callers normally go through the [`event!`](crate::event!) macros,
/// which check [`enabled`](crate::enabled) first.
pub fn dispatch(record: Record) {
    for sink in read_lock(&SINKS).iter() {
        sink.accept(&record);
    }
}

/// Renders a record in the stderr line format:
///
/// ```text
/// [   0.123456 WARN  mws_server] retry exhausted attempts=3 trace=4be63a…/09f2c1…
/// ```
fn format_record(record: &Record) -> String {
    let secs = record.elapsed_us / 1_000_000;
    let micros = record.elapsed_us % 1_000_000;
    let mut line = format!(
        "[{secs:>4}.{micros:06} {:<5} {}] {}",
        record.level.as_str().to_ascii_uppercase(),
        record.target,
        record.message
    );
    for (key, value) in &record.fields {
        let _ = write!(line, " {key}={value}");
    }
    if let Some(ctx) = record.trace {
        let _ = write!(line, " trace={:016x}/{:016x}", ctx.trace_id, ctx.span_id);
    }
    line
}

/// Writes the line format to stderr, one `write` per record so lines
/// from concurrent threads do not interleave.
pub struct StderrSink;

impl Sink for StderrSink {
    fn accept(&self, record: &Record) {
        let mut line = format_record(record);
        line.push('\n');
        let _ = std::io::stderr().lock().write_all(line.as_bytes());
    }
}

/// A fixed-capacity in-memory ring buffer of records.
///
/// The slot claim is a single lock-free `fetch_add`; each slot then has
/// its own uncontended mutex for the record move. Old records are
/// overwritten once the ring wraps. Intended for tests that assert on
/// emitted events ([`records`](RingSink::records) returns them in
/// arrival order).
pub struct RingSink {
    head: AtomicU64,
    slots: Vec<Mutex<Option<(u64, Record)>>>,
}

impl RingSink {
    /// Creates a ring holding the last `capacity` records (min 1).
    pub fn new(capacity: usize) -> Arc<Self> {
        let capacity = capacity.max(1);
        Arc::new(RingSink {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        })
    }

    /// The records currently held, oldest first.
    pub fn records(&self) -> Vec<Record> {
        let mut held: Vec<(u64, Record)> = self
            .slots
            .iter()
            .filter_map(|slot| lock(slot).clone())
            .collect();
        held.sort_by_key(|(seq, _)| *seq);
        held.into_iter().map(|(_, record)| record).collect()
    }

    /// Total records ever accepted (not capped by capacity).
    pub fn accepted(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Drops every held record (the sequence counter keeps running).
    pub fn clear(&self) {
        for slot in &self.slots {
            *lock(slot) = None;
        }
    }
}

impl Sink for RingSink {
    fn accept(&self, record: &Record) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let idx = (seq % self.slots.len() as u64) as usize;
        *lock(&self.slots[idx]) = Some((seq, record.clone()));
    }
}

/// Configures logging from the `MWS_LOG` environment variable.
///
/// `MWS_LOG=error|warn|info|debug|trace` sets the gate and installs the
/// stderr sink; unset, empty or `off` leaves logging disabled. An
/// unrecognized value falls back to `info` (and says so), because a
/// typo'd filter silently swallowing everything is worse. Idempotent —
/// daemons, examples and tests may all call it.
pub fn init_from_env() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let Ok(raw) = std::env::var("MWS_LOG") else {
            return;
        };
        let raw = raw.trim().to_string();
        if raw.is_empty() || raw.eq_ignore_ascii_case("off") {
            return;
        }
        let (level, fallback) = match raw.parse::<Level>() {
            Ok(level) => (level, false),
            Err(_) => (Level::Info, true),
        };
        crate::set_max_level(Some(level));
        add_sink(Arc::new(StderrSink));
        if fallback {
            crate::warn!(target: "mws_obs", "unrecognized MWS_LOG value, using info",
                         value = raw);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::gate_guard;

    fn record(level: Level, msg: &str) -> Record {
        Record {
            level,
            target: "obs_log_test",
            message: msg.to_string(),
            fields: Vec::new(),
            trace: None,
            elapsed_us: 1_234_567,
        }
    }

    #[test]
    fn line_format_is_stable_and_readable() {
        let mut rec = record(Level::Warn, "retry exhausted");
        rec.fields.push(("attempts", Value::U64(3)));
        rec.fields
            .push(("error", Value::Str("connection reset".into())));
        rec.trace = Some(TraceContext {
            trace_id: 0x4be6_3a00_0000_0001,
            span_id: 0x09f2,
        });
        let line = format_record(&rec);
        assert_eq!(
            line,
            "[   1.234567 WARN  obs_log_test] retry exhausted attempts=3 \
             error=\"connection reset\" trace=4be63a0000000001/00000000000009f2"
        );
    }

    #[test]
    fn plain_string_fields_stay_unquoted() {
        let mut rec = record(Level::Info, "listening");
        rec.fields.push(("role", Value::Str("mms".into())));
        assert!(format_record(&rec).ends_with("listening role=mms"));
    }

    #[test]
    fn ring_sink_keeps_the_last_capacity_records_in_order() {
        let ring = RingSink::new(4);
        for i in 0..10u64 {
            ring.accept(&record(Level::Debug, &format!("event-{i}")));
        }
        let messages: Vec<String> = ring.records().into_iter().map(|r| r.message).collect();
        assert_eq!(messages, ["event-6", "event-7", "event-8", "event-9"]);
        assert_eq!(ring.accepted(), 10);
        ring.clear();
        assert!(ring.records().is_empty());
        assert_eq!(ring.accepted(), 10, "clear must not rewind the counter");
    }

    #[test]
    fn dispatch_fans_out_to_every_sink() {
        let _gate = gate_guard();
        let a = RingSink::new(4);
        let b = RingSink::new(4);
        add_sink(a.clone() as Arc<dyn Sink>);
        add_sink(b.clone() as Arc<dyn Sink>);
        dispatch(record(Level::Info, "fan-out-probe"));
        assert!(a.records().iter().any(|r| r.message == "fan-out-probe"));
        assert!(b.records().iter().any(|r| r.message == "fan-out-probe"));
    }

    #[test]
    fn record_new_captures_the_current_trace_scope() {
        let ctx = crate::trace::mint();
        let _guard = crate::trace::enter(ctx);
        let rec = Record::new(Level::Debug, "obs_log_test", "scoped");
        assert_eq!(rec.trace, Some(ctx));
        drop(_guard);
        let rec = Record::new(Level::Debug, "obs_log_test", "unscoped");
        assert_eq!(rec.trace, None);
    }
}
