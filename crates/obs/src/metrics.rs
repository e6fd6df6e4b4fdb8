//! Counters, gauges, log-linear histograms, and the named registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-backed:
//! look one up once (registration takes a map lock), keep the clone,
//! and every hot-path update is a relaxed atomic operation. Histograms
//! bucket on a log-linear grid — four sub-buckets per power of two —
//! so a 257-slot table covers the full `u64` range with ≤ ~19% relative
//! quantile error, which is plenty to tell a 200µs fsync from a 2ms one.

use crate::sync::{read_lock, write_lock};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero (normally obtained via [`Registry::counter`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, open connections).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at zero (normally obtained via [`Registry::gauge`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-buckets per power of two; 2 bits of mantissa.
const SUB_BITS: u32 = 2;
const SUBS: usize = 1 << SUB_BITS;
/// Bucket 0 holds the value 0; then 4 sub-buckets for each of 64 octaves.
const BUCKETS: usize = 1 + 64 * SUBS;

/// The bucket a value lands in.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        return 0;
    }
    let octave = (63 - v.leading_zeros()) as usize;
    let sub = if octave >= SUB_BITS as usize {
        ((v >> (octave - SUB_BITS as usize)) & (SUBS as u64 - 1)) as usize
    } else {
        // Octaves 0 and 1 hold fewer than SUBS distinct values; the
        // offset from the octave base is the sub-bucket directly.
        (v - (1u64 << octave)) as usize
    };
    1 + octave * SUBS + sub
}

/// The largest value that maps to `index` (quantiles report this bound).
fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        return 0;
    }
    let octave = (index - 1) / SUBS;
    let sub = ((index - 1) % SUBS) as u64;
    if octave < SUB_BITS as usize {
        // Octaves 0 and 1 have unused sub-bucket slots; clamp their
        // bound to the octave top so the bound stays monotone in index.
        ((1u64 << octave) + sub).min((1u64 << (octave + 1)) - 1)
    } else {
        let shift = (octave - SUB_BITS as usize) as u32;
        let lower = (SUBS as u64 + sub) << shift;
        lower + ((1u64 << shift) - 1)
    }
}

struct HistogramInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A log-linear latency/size histogram over `u64` values.
///
/// Updates are relaxed atomics (one CAS-loop add per cell touched);
/// counts and sums saturate instead of wrapping, so a histogram fed
/// forever degrades to pinned quantiles rather than garbage.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

fn saturating_add(cell: &AtomicU64, n: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(n);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

impl Histogram {
    /// A fresh histogram (normally obtained via [`Registry::histogram`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of the same value.
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        saturating_add(&self.0.buckets[bucket_index(value)], n);
        saturating_add(&self.0.count, n);
        saturating_add(&self.0.sum, value.saturating_mul(n));
        self.0.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in microseconds (the convention for every
    /// `*_us` metric in this workspace).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// A point-in-time snapshot with p50/p90/p99/max.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u128 = buckets.iter().map(|&b| b as u128).sum();
        let max = self.0.max.load(Ordering::Relaxed);
        let quantile = |num: u128, den: u128| -> u64 {
            if total == 0 {
                return 0;
            }
            // 1-based rank of the requested quantile, ceiling division.
            let rank = ((total * num).div_ceil(den)).max(1);
            let mut cumulative: u128 = 0;
            for (idx, &in_bucket) in buckets.iter().enumerate() {
                cumulative += in_bucket as u128;
                if cumulative >= rank {
                    // The bucket bound over-reports by up to one
                    // sub-bucket width; never past the observed max.
                    return bucket_upper(idx).min(max);
                }
            }
            max
        };
        HistogramSnapshot {
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
            max,
            p50: quantile(50, 100),
            p90: quantile(90, 100),
            p99: quantile(99, 100),
        }
    }
}

/// The result of [`Histogram::snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded (saturating).
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Median estimate (bucket upper bound, clamped to `max`).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics with a text exposition.
///
/// Names carry their labels inline, already serialized —
/// `mws_server_requests_total{role="mms"}` — which keeps lookup a
/// single string compare and makes the exposition a straight dump.
/// Use [`metric_name`] to build labeled names. One process-global
/// registry ([`registry`]) backs the stats plane; tests can construct
/// private ones.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry (tests; daemons use the global [`registry`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created on first use.
    ///
    /// If `name` is already a different metric kind, a detached handle
    /// is returned rather than panicking in a hot path (the mismatch is
    /// a programming error; debug builds assert).
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(Metric::Counter(c)) = self.read().get(name) {
            return c.clone();
        }
        match self
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => {
                debug_assert!(false, "metric {name} registered with a different kind");
                Counter::new()
            }
        }
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(Metric::Gauge(g)) = self.read().get(name) {
            return g.clone();
        }
        match self
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => {
                debug_assert!(false, "metric {name} registered with a different kind");
                Gauge::new()
            }
        }
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(Metric::Histogram(h)) = self.read().get(name) {
            return h.clone();
        }
        match self
            .write()
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => {
                debug_assert!(false, "metric {name} registered with a different kind");
                Histogram::new()
            }
        }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Metric>> {
        read_lock(&self.metrics)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Metric>> {
        write_lock(&self.metrics)
    }

    /// Prometheus-style text exposition, sorted by metric name.
    ///
    /// Counters and gauges emit one `name value` line. A histogram
    /// expands to `{quantile="…"}` lines plus `_count`/`_sum`/`_max`:
    ///
    /// ```text
    /// mws_core_deposit_us{quantile="0.5"} 410
    /// mws_core_deposit_us_count 12
    /// ```
    pub fn exposition(&self) -> String {
        let mut out = String::new();
        for (name, metric) in self.read().iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    for (q, v) in [("0.5", snap.p50), ("0.9", snap.p90), ("0.99", snap.p99)] {
                        let labeled = add_label(name, "quantile", q);
                        let _ = writeln!(out, "{labeled} {v}");
                    }
                    for (suffix, v) in [("count", snap.count), ("sum", snap.sum), ("max", snap.max)]
                    {
                        let _ = writeln!(out, "{} {v}", add_suffix(name, suffix));
                    }
                }
            }
        }
        out
    }
}

/// The process-global registry behind the Stats PDU on every daemon.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Serializes `base{k1="v1",k2="v2"}`. Labels must be low-cardinality
/// operational dimensions (role, pdu type, outcome) — never identities,
/// plaintext or key material (DESIGN.md §7).
pub fn metric_name(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut out = String::with_capacity(base.len() + 16 * labels.len());
    out.push_str(base);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

/// Appends one more label to an already-serialized metric name.
fn add_label(name: &str, key: &str, value: &str) -> String {
    match name.strip_suffix('}') {
        Some(prefix) => format!("{prefix},{key}=\"{value}\"}}"),
        None => format!("{name}{{{key}=\"{value}\"}}"),
    }
}

/// Appends `_suffix` to the base name, before any label block.
fn add_suffix(name: &str, suffix: &str) -> String {
    match name.find('{') {
        Some(brace) => format!("{}_{suffix}{}", &name[..brace], &name[brace..]),
        None => format!("{name}_{suffix}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("requests_total");
        c.inc();
        c.add(4);
        // A second lookup returns a handle over the same cell.
        assert_eq!(reg.counter("requests_total").get(), 5);
        let g = reg.gauge("queue_depth");
        g.set(7);
        g.add(-3);
        assert_eq!(reg.gauge("queue_depth").get(), 4);
    }

    #[test]
    fn kind_mismatch_yields_detached_handle_in_release() {
        let reg = Registry::new();
        reg.counter("shape_shifter").inc();
        // In debug builds this would assert; the release contract is a
        // detached handle that cannot corrupt the registered metric.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.gauge("shape_shifter").set(99);
        }));
        if result.is_ok() {
            assert_eq!(reg.counter("shape_shifter").get(), 1);
        }
    }

    #[test]
    fn bucket_index_and_upper_are_consistent() {
        let samples = [
            0u64,
            1,
            2,
            3,
            4,
            5,
            7,
            8,
            100,
            1_000,
            4_095,
            4_096,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut last_idx = 0;
        for &v in &samples {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "index in range for {v}");
            assert!(v <= bucket_upper(idx), "upper bound covers {v}");
            if idx > 0 {
                // The previous bucket's upper bound sits strictly below v.
                assert!(bucket_upper(idx - 1) < v, "lower bound excludes {v}");
            }
            assert!(idx >= last_idx, "index monotone in value");
            last_idx = idx;
        }
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_zero_samples_snapshot_is_all_zero() {
        let h = Histogram::new();
        let snap = h.snapshot();
        assert_eq!(
            snap,
            HistogramSnapshot {
                count: 0,
                sum: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p99: 0
            }
        );
    }

    #[test]
    fn histogram_single_sample_reports_it_at_every_quantile() {
        let h = Histogram::new();
        h.record(777);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 777);
        // Quantile estimates are bucket bounds clamped to the observed
        // max, so a single sample is reported exactly.
        assert_eq!(
            (snap.p50, snap.p90, snap.p99, snap.max),
            (777, 777, 777, 777)
        );
    }

    #[test]
    fn histogram_counts_and_sums_saturate_instead_of_wrapping() {
        let h = Histogram::new();
        h.record_n(u64::MAX, 3);
        h.record_n(10, u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, u64::MAX, "count saturates");
        assert_eq!(snap.sum, u64::MAX, "sum saturates");
        assert_eq!(snap.max, u64::MAX);
        // Quantiles stay well-defined (and monotone) even fully saturated.
        assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99 && snap.p99 <= snap.max);
        assert!(
            (10..=11).contains(&snap.p50),
            "the saturating bulk dominates the median (bucket bound): {}",
            snap.p50
        );
    }

    #[test]
    fn histogram_quantiles_are_monotone() {
        // A few deliberately lopsided shapes plus a pseudo-random spread.
        let shapes: Vec<Vec<u64>> = vec![
            vec![5; 100],
            (0..1000).collect(),
            (0..1000).rev().collect(),
            vec![1, u64::MAX],
            (0..500).map(|i| (i * 2_654_435_761) % 100_000).collect(),
        ];
        for values in shapes {
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let snap = h.snapshot();
            assert!(
                snap.p50 <= snap.p90 && snap.p90 <= snap.p99 && snap.p99 <= snap.max,
                "monotone violated: {snap:?} for {} samples",
                values.len()
            );
            let top = *values.iter().max().unwrap();
            assert_eq!(snap.max, top, "max is exact");
        }
    }

    #[test]
    fn histogram_quantile_error_is_bounded() {
        // Log-linear with 4 sub-buckets: relative over-report < 25%.
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        for (q, est) in [(0.5, snap.p50), (0.9, snap.p90), (0.99, snap.p99)] {
            let exact = (q * 10_000f64) as u64;
            assert!(est >= exact, "estimate must not under-report {q}");
            assert!(
                (est as f64) < exact as f64 * 1.25,
                "p{q}: {est} too far above exact {exact}"
            );
        }
    }

    #[test]
    fn exposition_renders_all_three_kinds() {
        let reg = Registry::new();
        reg.counter(&metric_name("req_total", &[("role", "mms")]))
            .add(3);
        reg.gauge("depth").set(-2);
        let h = reg.histogram(&metric_name("lat_us", &[("pdu", "deposit")]));
        h.record(100);
        h.record(200);
        let text = reg.exposition();
        assert!(text.contains("req_total{role=\"mms\"} 3\n"), "{text}");
        assert!(text.contains("depth -2\n"), "{text}");
        assert!(
            text.contains("lat_us{pdu=\"deposit\",quantile=\"0.5\"} "),
            "{text}"
        );
        assert!(text.contains("lat_us_count{pdu=\"deposit\"} 2\n"), "{text}");
        assert!(text.contains("lat_us_sum{pdu=\"deposit\"} 300\n"), "{text}");
        assert!(text.contains("lat_us_max{pdu=\"deposit\"} 200\n"), "{text}");
    }

    #[test]
    fn metric_name_serializes_labels_in_order() {
        assert_eq!(metric_name("x", &[]), "x");
        assert_eq!(
            metric_name("x", &[("a", "1"), ("b", "2")]),
            "x{a=\"1\",b=\"2\"}"
        );
    }
}
