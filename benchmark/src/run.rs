//! Drives one workload through its phases and turns what was observed into
//! metrics: the end-to-end set from an untraced run, the per-layer set from
//! a traced one.

use crate::registry::Snapshot;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{self, Op, Scale};
use crate::{ladder, stats, sysinfo};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A named measurement. `samples` is how many observations stand behind
/// the value (operations, calls, windows).
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: u64) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// The outcome of one run of one workload.
pub struct Report {
    pub workload: String,
    pub traced: bool,
    pub seed: u64,
    /// No operation failed, nothing was lost, every gate held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Throughput of each measured window of an untraced run, in order: the
    /// result file keeps it so that a run a burst has hit can be told from a
    /// slow program.
    pub window_ops_per_s: Vec<f64>,
    /// Why the run is not correct, when it is not.
    pub problem: Option<String>,
}

/// How one run is shaped.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Measured seconds: `WINDOW_S` windows untraced, one phase in a traced
    /// run.
    pub seconds: f64,
    pub warmup: f64,
    /// An untraced run times its set-up at least this often, and goes on
    /// setting up and tearing down until that has taken `setup_budget_s`
    /// seconds; `setup_s` is their fast-side quartile, like the other
    /// metrics. A set-up of milliseconds is so repeated a hundred times:
    /// three of them would report the scheduler's mood.
    pub min_setups: usize,
    pub setup_budget_s: f64,
    pub scale: Scale,
}

/// Length of one measured window of an untraced run. Other tenants of the
/// host slow this box down by up to 1.7 times in bursts of up to a few
/// seconds, a fifth to a third of the time; the slowdown is one-sided, so an
/// end-to-end metric is the quartile of its windows on the fast side, which
/// such bursts leave alone where the median over a few long windows would
/// take them in.
const WINDOW_S: f64 = 1.0;
/// In a traced run tracing is on in every other slice of this many
/// milliseconds, on all client threads at once: drift over the run then
/// falls on traced and untraced operations alike, and the difference
/// between their median latencies is what tracing costs.
const TRACE_SLICE_MS: u128 = 10;

struct Phase {
    secs: f64,
    record: bool,
    traced: bool,
}

/// Process-wide readings at a phase boundary.
struct Boundary {
    at: Instant,
    cpu_s: f64,
    succeeded: u64,
    failed: u64,
    wire_bytes: u64,
    /// Taken only in traced runs: they cost a few hundred microseconds.
    detail: Option<(u64, Snapshot)>,
}

struct Driven {
    /// `phases.len() + 1` readings; phase `i` ran between `i` and `i + 1`.
    bounds: Vec<Boundary>,
    /// Latencies (ns) of the untraced operations per phase, all threads
    /// together.
    samples: Vec<Vec<u64>>,
    /// Latencies (ns) of the traced operations.
    traced_samples: Vec<u64>,
    /// Spans per client thread.
    spans: Vec<Vec<Span>>,
    threads: u64,
    /// Operations that succeeded over the whole drive, warm-up included:
    /// what the program's end state is checked against.
    succeeded: u64,
}

impl Driven {
    fn ops(&self, phase: usize) -> u64 {
        self.bounds[phase + 1].succeeded - self.bounds[phase].succeeded
    }

    fn failures(&self, phase: usize) -> u64 {
        self.bounds[phase + 1].failed - self.bounds[phase].failed
    }

    fn secs(&self, phase: usize) -> f64 {
        (self.bounds[phase + 1].at - self.bounds[phase].at).as_secs_f64()
    }

    fn ops_per_s(&self, phase: usize) -> f64 {
        self.ops(phase) as f64 / self.secs(phase)
    }
}

/// Runs every client's operation closed-loop on its own thread while the
/// calling thread walks through `phases`, reading the process counters at
/// each boundary.
fn drive(ops: Vec<Op>, phases: &[Phase], wire_bytes: &AtomicU64, detail: bool) -> Driven {
    let phase = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let succeeded = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let epoch = Instant::now();
    let read = || Boundary {
        at: Instant::now(),
        cpu_s: sysinfo::cpu_seconds(),
        succeeded: succeeded.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        wire_bytes: wire_bytes.load(Ordering::Relaxed),
        detail: detail.then(|| (sysinfo::ctx_switches(), Snapshot::take())),
    };

    std::thread::scope(|s| {
        let clients: Vec<_> = ops
            .into_iter()
            .map(|mut op| {
                let (phase, stop, succeeded, failed) = (&phase, &stop, &succeeded, &failed);
                s.spawn(move || {
                    let mut tracer = Tracer::new(epoch);
                    let mut samples: Vec<Vec<u64>> = phases.iter().map(|_| Vec::new()).collect();
                    let mut traced_samples = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let now = phase.load(Ordering::Relaxed);
                        let started = Instant::now();
                        let slice = (started - epoch).as_millis() / TRACE_SLICE_MS;
                        tracer.enabled = phases[now].traced && slice % 2 == 1;
                        let ok = tracer.span("bench.op", &mut op);
                        let ns = started.elapsed().as_nanos() as u64;
                        tracer.op += 1;
                        if phases[now].record {
                            let samples = if tracer.enabled {
                                &mut traced_samples
                            } else {
                                &mut samples[now]
                            };
                            samples.push(ns);
                        }
                        if ok {
                            succeeded.fetch_add(1, Ordering::Relaxed);
                        } else {
                            failed.fetch_add(1, Ordering::Relaxed);
                            // A dead server must not turn into a spin.
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    (samples, traced_samples, tracer.into_spans())
                })
            })
            .collect();

        let mut bounds = vec![read()];
        for (i, p) in phases.iter().enumerate() {
            phase.store(i, Ordering::Relaxed);
            std::thread::sleep(Duration::from_secs_f64(p.secs));
            bounds.push(read());
        }
        let threads = sysinfo::threads();
        stop.store(true, Ordering::Relaxed);

        let mut samples: Vec<Vec<u64>> = phases.iter().map(|_| Vec::new()).collect();
        let mut traced_samples = Vec::new();
        let mut spans = Vec::new();
        for client in clients {
            let (per_phase, traced, thread_spans) = client.join().expect("client thread");
            traced_samples.extend(traced);
            for (all, mine) in samples.iter_mut().zip(per_phase) {
                all.extend(mine);
            }
            spans.push(thread_spans);
        }
        Driven {
            bounds,
            samples,
            traced_samples,
            spans,
            threads,
            // Clients finish the operation they were in when `stop` was set,
            // so this is read only once they have all been joined.
            succeeded: succeeded.load(Ordering::Relaxed),
        }
    })
}

/// One run of `workload`: end-to-end metrics untraced, per-layer metrics
/// traced.
pub fn run(workload: &str, seed: u64, traced: bool, shape: Shape, out_dir: &Path) -> Report {
    let mut report = Report {
        workload: workload.to_string(),
        traced,
        seed,
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
        window_ops_per_s: Vec::new(),
        problem: None,
    };
    match measure(workload, seed, traced, shape, out_dir, &mut report) {
        Ok(()) => {
            report.correct = report.failed == 0;
            if !report.correct {
                report.problem = Some(format!(
                    "{} of {} operations failed or were lost",
                    report.failed, report.attempted
                ));
            }
        }
        Err(problem) => report.problem = Some(problem),
    }
    report
}

fn measure(
    workload: &str,
    seed: u64,
    traced: bool,
    shape: Shape,
    out_dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let data_dir = out_dir.join("data");
    let setup = || {
        let started = Instant::now();
        let scenario = workloads::setup(workload, seed, &data_dir, shape.scale)?;
        Ok::<_, String>((scenario, started.elapsed().as_secs_f64()))
    };

    // Set-up is timed several times and only the last one is kept to run
    // on; the others are torn down again, which checks they came up empty.
    let first_setup = Instant::now();
    let mut setup_s: Vec<f64> = Vec::new();
    let scenario = loop {
        let (scenario, secs) = setup()?;
        setup_s.push(secs);
        let enough = setup_s.len() >= shape.min_setups
            && first_setup.elapsed().as_secs_f64() >= shape.setup_budget_s;
        if traced || enough {
            break scenario;
        }
        if scenario.finish(0)? != 0 {
            return Err("a set-up that ran no operation did not come up empty".into());
        }
    };

    let phase = |secs, record, traced| Phase {
        secs,
        record,
        traced,
    };
    let mut phases = vec![phase(shape.warmup, false, false)];
    if traced {
        phases.push(phase(shape.seconds, true, true));
    } else {
        let windows = (shape.seconds / WINDOW_S).round().max(1.0);
        let window = shape.seconds / windows;
        phases.extend((0..windows as usize).map(|_| phase(window, true, false)));
    }
    let mut scenario = scenario;
    let ops = std::mem::take(&mut scenario.ops);
    let mut driven = drive(ops, &phases, &scenario.wire_bytes, traced);

    let recorded: Vec<usize> = (0..phases.len()).filter(|&i| phases[i].record).collect();
    let sample_request = scenario.sample_request.clone();
    let lost = scenario.finish(driven.succeeded)?;
    report.attempted = recorded
        .iter()
        .map(|&i| driven.ops(i) + driven.failures(i))
        .sum::<u64>()
        .max(1);
    report.failed = recorded.iter().map(|&i| driven.failures(i)).sum::<u64>() + lost;

    if traced {
        per_layer(
            workload,
            seed,
            &mut driven,
            &sample_request,
            out_dir,
            report,
        )
    } else {
        end_to_end(&mut driven, &recorded, &setup_s, report);
        Ok(())
    }
}

/// The metrics a user of the system sees.
fn end_to_end(driven: &mut Driven, windows: &[usize], setup_s: &[f64], report: &mut Report) {
    let ops_per_s: Vec<f64> = windows.iter().map(|&w| driven.ops_per_s(w)).collect();
    let cpu_ms_per_kop: Vec<f64> = windows
        .iter()
        .map(|&w| {
            let cpu_ms = (driven.bounds[w + 1].cpu_s - driven.bounds[w].cpu_s) * 1e3;
            cpu_ms / (driven.ops(w).max(1) as f64 / 1e3)
        })
        .collect();
    // Windows in which nothing completed have no median latency; a run
    // where that is every window has no metrics.
    let mut p50_us = Vec::new();
    for &w in windows {
        let samples = &mut driven.samples[w];
        if !samples.is_empty() {
            p50_us.push(stats::p50_us(samples));
        }
    }
    let n: u64 = windows
        .iter()
        .map(|&w| driven.samples[w].len() as u64)
        .sum();
    if p50_us.is_empty() {
        report.problem = Some("no operation completed".into());
        report.failed = report.failed.max(1);
        return;
    }
    let w = windows.len() as u64;
    report.window_ops_per_s = ops_per_s.clone();
    report.metrics = vec![
        Metric::new("ops_per_s", stats::quantile(&ops_per_s, 0.75), "op/s", w),
        Metric::new("op_p50_us", stats::quantile(&p50_us, 0.25), "us", n),
        Metric::new(
            "cpu_ms_per_kop",
            stats::quantile(&cpu_ms_per_kop, 0.25),
            "ms",
            w,
        ),
        Metric::new(
            "setup_s",
            stats::quantile(setup_s, 0.25),
            "s",
            setup_s.len() as u64,
        ),
    ];
}

/// The harness's own layer metrics from the traced run, then the ladder.
fn per_layer(
    workload: &str,
    seed: u64,
    driven: &mut Driven,
    sample_request: &mws_wire::Pdu,
    out_dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    // Phases of a traced run: 0 warm-up, 1 recorded with tracing on in
    // every other slice. What the program counts is taken over the whole
    // phase: tracing changes nothing the program sees.
    let recorded = 1;
    let ops = driven.ops(recorded) as f64;
    let traced_ops = driven.traced_samples.len() as u64;
    let latencies = &mut driven.samples[recorded];
    if latencies.is_empty() || traced_ops == 0 {
        return Err("no operation completed".into());
    }
    latencies.sort_unstable();
    let (p50_us, p99_us) = (
        stats::quantile_sorted(latencies, 0.5) as f64 / 1e3,
        stats::quantile_sorted(latencies, 0.99) as f64 / 1e3,
    );
    let n = latencies.len() as u64;
    let overhead = 100.0 * (stats::p50_us(&mut driven.traced_samples) / p50_us - 1.0);
    let (from, to) = (&driven.bounds[recorded], &driven.bounds[recorded + 1]);
    let ((ctx_from, reg_from), (ctx_to, reg_to)) = (
        from.detail.as_ref().expect("traced runs read detail"),
        to.detail.as_ref().expect("traced runs read detail"),
    );

    // Share of the operations' time that the spans inside them account for.
    let (mut op_ns, mut op_self_ns) = (0u64, 0u64);
    for spans in &driven.spans {
        for (span, self_ns) in spans.iter().zip(trace::self_times(spans)) {
            if span.parent.is_none() {
                op_ns += span.duration_ns();
                op_self_ns += self_ns;
            }
        }
    }
    let path = out_dir.join(format!("trace-{workload}.jsonl"));
    trace::write_jsonl(&path, &driven.spans).map_err(|e| format!("{}: {e}", path.display()))?;

    let (handle_us, handled) = reg_to.mean_delta(reg_from, "mws_server_handle_us")?;
    let requests = reg_to.delta(reg_from, "mws_server_requests_total")?;
    let m = &mut report.metrics;
    m.push(Metric::new("bench.op_p99_us", p99_us, "us", n));
    m.push(Metric::new("bench.samples", n as f64, "count", n));
    m.push(Metric::new(
        "bench.trace_overhead_pct",
        overhead,
        "%",
        traced_ops,
    ));
    m.push(Metric::new(
        "bench.span_cover_pct",
        100.0 * (1.0 - op_self_ns as f64 / op_ns.max(1) as f64),
        "%",
        traced_ops,
    ));
    m.push(Metric::new(
        "bench.peak_rss_mb",
        sysinfo::peak_rss_mb(),
        "MiB",
        1,
    ));
    m.push(Metric::new(
        "bench.ctx_switches_per_op",
        (ctx_to - ctx_from) as f64 / ops,
        "count",
        ops as u64,
    ));
    m.push(Metric::new(
        "bench.threads",
        driven.threads as f64,
        "count",
        1,
    ));
    m.push(Metric::new(
        "wire.frame_bytes_per_op",
        (to.wire_bytes - from.wire_bytes) as f64 / ops,
        "B",
        ops as u64,
    ));
    m.push(Metric::new(
        "server.requests_per_op",
        requests / ops,
        "count",
        ops as u64,
    ));
    m.push(Metric::new(
        "server.handle_us_mean",
        handle_us,
        "us",
        handled as u64,
    ));

    ladder::climb(seed, sample_request, &out_dir.join("data"), m)
}
