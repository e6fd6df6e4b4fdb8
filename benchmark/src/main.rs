//! The repo benchmark: five closed-loop workloads over loopback TCP, four
//! bounded end-to-end metrics and a per-crate layer ladder. See README.md
//! for every definition; `BENCHMARK.json` at the repository root is the
//! contract a driver runs this against.
//!
//! ```text
//! mws-benchmark [--workload NAME] [--seed N] [--seconds S]
//!               [--trace 0|1 | --traced] [--repeat K] [--smoke]
//! ```
//!
//! Each run prints one `workload metric value unit samples` line per metric
//! and then one JSON object on a line of its own; with a single run that
//! object is the last line of standard output. The exit code is 0 only if
//! every run was correct and printed the metrics `BENCHMARK.json` lists and,
//! with `--repeat`, every spread was within its bound.

mod inputs;
mod json;
mod ladder;
mod registry;
mod run;
mod stats;
mod sysinfo;
mod trace;
mod workloads;

use run::{Report, Shape};
use std::path::PathBuf;
use workloads::Scale;

/// Measured seconds per run unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 16.0;
/// Where result files, traces and the durable workload's WAL files go.
const OUT_DIR: &str = "benchmark/out";
const MANIFEST: &str = "BENCHMARK.json";
/// `setup_s` may also move by this much in absolute terms under `--repeat`:
/// a quarter of a 40 ms set-up is scheduler noise, not a regression.
const SETUP_SLACK_S: f64 = 0.25;

#[derive(Clone, Copy, PartialEq)]
enum Tracing {
    Off,
    Only,
    Both,
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    tracing: Tracing,
    repeat: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: workloads::NAMES.map(String::from).to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        tracing: Tracing::Off,
        repeat: 1,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload `{name}`; one of {:?}",
                        workloads::NAMES
                    ));
                }
                args.workloads = vec![name];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.tracing = match value()?.as_str() {
                    "0" => Tracing::Off,
                    "1" => Tracing::Only,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => args.tracing = Tracing::Both,
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat < 2 {
                    return Err("--repeat needs at least 2 runs to have a spread".into());
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The `metrics` object of a run: name → value and unit, and for the result
/// file also the sample count.
fn metrics_json(r: &Report, with_samples: bool) -> String {
    json::object(r.metrics.iter().map(|m| {
        let mut fields = vec![
            ("value", json::number(m.value)),
            ("unit", json::string(m.unit)),
        ];
        if with_samples {
            fields.push(("samples", m.samples.to_string()));
        }
        (m.name.as_str(), json::object(fields))
    }))
}

fn print_report(r: &Report) {
    for m in &r.metrics {
        println!(
            "{} {} {} {} n={}",
            r.workload,
            m.name,
            json::number(m.value),
            m.unit,
            m.samples
        );
    }
    let failed_share = r.failed as f64 / r.attempted as f64;
    println!(
        "{} failed_share {} ratio n={}",
        r.workload,
        json::number(failed_share),
        r.attempted
    );
    if let Some(problem) = &r.problem {
        eprintln!("{}: NOT CORRECT: {problem}", r.workload);
    }
    // The driver's line: exactly these four keys.
    println!(
        "{}",
        json::object([
            ("correct", r.correct.to_string()),
            ("attempted", r.attempted.to_string()),
            ("failed", r.failed.to_string()),
            ("metrics", metrics_json(r, false)),
        ])
    );
}

fn report_json(r: &Report) -> String {
    json::object([
        ("workload", json::string(&r.workload)),
        ("traced", r.traced.to_string()),
        ("seed", r.seed.to_string()),
        ("correct", r.correct.to_string()),
        ("attempted", r.attempted.to_string()),
        ("failed", r.failed.to_string()),
        (
            "failed_share",
            json::number(r.failed as f64 / r.attempted as f64),
        ),
        (
            "problem",
            r.problem.as_deref().map_or("null".into(), json::string),
        ),
        ("metrics", metrics_json(r, true)),
        (
            "window_ops_per_s",
            json::array(r.window_ops_per_s.iter().map(|v| json::number(*v))),
        ),
    ])
}

/// One end-to-end metric of one workload across the repeats.
struct Spread {
    workload: String,
    metric: String,
    unit: &'static str,
    values: Vec<f64>,
    bound: f64,
}

impl Spread {
    fn range(&self) -> (f64, f64) {
        stats::range(&self.values)
    }

    fn within_bound(&self) -> bool {
        let (min, max) = self.range();
        stats::spread(&self.values) <= self.bound
            || (self.metric == "setup_s" && max - min <= SETUP_SLACK_S)
    }

    fn json(&self) -> String {
        let (min, max) = self.range();
        json::object([
            ("workload", json::string(&self.workload)),
            ("metric", json::string(&self.metric)),
            ("unit", json::string(self.unit)),
            ("min", json::number(min)),
            ("median", json::number(stats::median(&self.values))),
            ("max", json::number(max)),
            ("spread", json::number(stats::spread(&self.values))),
            ("bound", json::number(self.bound)),
            ("within_bound", self.within_bound().to_string()),
        ])
    }
}

/// Groups the untraced reports' metrics by workload and name.
fn spreads(reports: &[Report], bounds: &[(String, f64)]) -> Vec<Spread> {
    let mut out: Vec<Spread> = Vec::new();
    for r in reports.iter().filter(|r| !r.traced) {
        for m in &r.metrics {
            let Some((_, bound)) = bounds.iter().find(|(name, _)| *name == m.name) else {
                continue;
            };
            match out
                .iter_mut()
                .find(|s| s.workload == r.workload && s.metric == m.name)
            {
                Some(s) => s.values.push(m.value),
                None => out.push(Spread {
                    workload: r.workload.clone(),
                    metric: m.name.clone(),
                    unit: m.unit,
                    values: vec![m.value],
                    bound: *bound,
                }),
            }
        }
    }
    out
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("mws-benchmark: {problem}");
            return std::process::ExitCode::from(2);
        }
    };
    // The program's own log lines would interleave with the result lines.
    mws_obs::set_max_level(None);

    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir.join("data")) {
        eprintln!("mws-benchmark: {}: {e}", out_dir.display());
        return std::process::ExitCode::from(2);
    }
    // Pinned before anything is spawned, so that every thread inherits it;
    // `nproc` is read first, because afterwards it would say 1.
    let nproc = sysinfo::nproc();
    let pinned_cpu = sysinfo::pin_to_one_cpu();
    if pinned_cpu.is_none() {
        eprintln!("warning: could not pin to one CPU; numbers will be noisy");
    }
    let env = sysinfo::env_json(&out_dir.join("data"), nproc, pinned_cpu);
    let loadavg = sysinfo::loadavg();
    if loadavg > nproc as f64 / 2.0 {
        eprintln!("warning: load average {loadavg} at start; numbers will be noisy");
    }
    if sysinfo::fs_type(&out_dir.join("data")) == "tmpfs" {
        eprintln!("warning: {OUT_DIR}/data is tmpfs; deposit_durable will not touch a disk");
    }

    let shape = if args.smoke {
        Shape {
            seconds: 2.0,
            warmup: 0.2,
            min_setups: 1,
            setup_budget_s: 0.0,
            scale: Scale::SMOKE,
        }
    } else {
        Shape {
            seconds: args.seconds,
            warmup: 1.0,
            min_setups: 3,
            setup_budget_s: 2.5,
            scale: Scale::FULL,
        }
    };
    let tracing = if args.smoke {
        Tracing::Off
    } else {
        args.tracing
    };

    let mut reports = Vec::new();
    for repeat in 0..args.repeat {
        for workload in &args.workloads {
            for traced in [false, true] {
                let wanted = match tracing {
                    Tracing::Off => !traced,
                    Tracing::Only => traced,
                    Tracing::Both => true,
                };
                if wanted {
                    let seed = args.seed + repeat as u64;
                    let report = run::run(workload, seed, traced, shape, &out_dir);
                    print_report(&report);
                    reports.push(report);
                }
            }
        }
    }
    let mut ok = reports.iter().all(|r| r.correct);

    // A metric the manifest promises and a run does not print, or the other
    // way round, would be refused by the driver only much later.
    let manifest = std::fs::read_to_string(MANIFEST).ok();
    for r in &reports {
        let key = if r.traced { "per_layer" } else { "end_to_end" };
        let Some(mut promised) = manifest.as_deref().and_then(|m| json::metric_names(m, key))
        else {
            continue;
        };
        let mut printed: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        promised.sort_unstable();
        printed.sort_unstable();
        if r.correct && promised != printed {
            eprintln!(
                "mws-benchmark: {}: metrics differ from {MANIFEST} `{key}`",
                r.workload
            );
            ok = false;
        }
    }

    let mut spread_json = Vec::new();
    if args.repeat > 1 {
        let bounds = manifest.as_deref().and_then(json::end_to_end_bounds);
        let Some(bounds) = bounds else {
            eprintln!("mws-benchmark: cannot read the end_to_end bounds from {MANIFEST}");
            return std::process::ExitCode::from(2);
        };
        for s in spreads(&reports, &bounds) {
            let (min, max) = s.range();
            println!(
                "{} {} min {} median {} max {} {} spread {:.4} bound {} {}",
                s.workload,
                s.metric,
                json::number(min),
                json::number(stats::median(&s.values)),
                json::number(max),
                s.unit,
                stats::spread(&s.values),
                s.bound,
                if s.within_bound() { "ok" } else { "EXCEEDED" },
            );
            ok &= s.within_bound();
            spread_json.push(s.json());
        }
    }

    if !args.smoke {
        let results = json::object([
            ("env", env),
            ("seed", args.seed.to_string()),
            ("seconds", json::number(shape.seconds)),
            ("claim", "null".into()),
            ("runs", json::array(reports.iter().map(report_json))),
            ("spreads", json::array(spread_json)),
        ]);
        if let Err(e) = std::fs::write(out_dir.join("results.json"), format!("{results}\n")) {
            eprintln!("mws-benchmark: results.json: {e}");
            ok = false;
        }
    }
    if ok {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
