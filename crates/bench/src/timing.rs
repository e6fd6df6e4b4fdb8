//! The median-of-runs timer behind `crypto_bench` and the `e1`–`e8`
//! benches.

use crate::json::Json;
use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One timed operation: median-of-runs nanoseconds per call.
pub struct Timing {
    /// Row name.
    pub name: String,
    /// Median over the runs of (run time / `iters`).
    pub ns_per_op: f64,
    /// Calls per run.
    pub iters: u32,
}

impl Display for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (name, ns, iters) = (&self.name, self.ns_per_op, self.iters);
        write!(f, "{name:<40} {ns:>14.1} ns/op  ({iters} iters)")
    }
}

/// Times `f` over `iters` calls, repeated 5 times; keeps the median run so
/// a stray scheduler hiccup cannot skew a row.
pub fn time_op(name: impl Into<String>, iters: u32, mut f: impl FnMut()) -> Timing {
    let mut runs = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        runs.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    runs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Timing {
        name: name.into(),
        ns_per_op: runs[runs.len() / 2],
        iters,
    }
}

/// `{ name: { "ns_per_op": …, "iters": … }, … }`, one row per line.
pub fn timings_json(timings: &[Timing]) -> Json {
    Json::obj(timings.iter().map(|t| {
        let row = [
            ("ns_per_op", Json::fixed(t.ns_per_op, 1)),
            ("iters", Json::int(t.iters.into())),
        ];
        (t.name.clone(), Json::obj(row))
    }))
}

/// How long one of a row's five runs should take; sets its call count.
const RUN_TARGET: Duration = Duration::from_millis(20);

/// One `harness = false` bench target: a named group of timed rows.
pub struct Bench {
    group: &'static str,
    /// `cargo bench` passes `--bench`; without it (`cargo test
    /// --all-targets`) every row runs once, as a smoke test.
    measure: bool,
    rows: Vec<Timing>,
}

impl Bench {
    /// Starts the group.
    pub fn new(group: &'static str) -> Self {
        Self {
            group,
            measure: std::env::args().any(|a| a == "--bench"),
            rows: Vec::new(),
        }
    }

    /// Times `f` as row `id`: one call warms caches, a second sizes the
    /// runs, then [`time_op`] measures. Prints the row to stderr.
    pub fn run<R>(&mut self, id: impl Display, mut f: impl FnMut() -> R) {
        black_box(f());
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = match self.measure {
            true => (RUN_TARGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u32,
            false => 1,
        };
        let row = time_op(id.to_string(), iters, || {
            black_box(f());
        });
        eprintln!("{}/{row}", self.group);
        self.rows.push(row);
    }

    /// Prints the group as JSON on stdout.
    pub fn finish(self) {
        let doc = Json::obj([
            ("bench", Json::Str(self.group.into())),
            ("unit", Json::Str("ns/op".into())),
            ("timings", timings_json(&self.rows)),
        ]);
        print!("{}", doc.pretty());
    }
}
