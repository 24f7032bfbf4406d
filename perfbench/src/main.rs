//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke [--workload <name>] [--seed <n>]
//! perfbench --compare <base.jsonl> <head.jsonl>
//! ```
//!
//! Run from the repository root (it reads `scenarios/`). Workloads:
//! `sim-catalog`, `overload-traced`, `runtime-gate`. With `--trace 0`
//! the last stdout line carries the end-to-end metrics; with
//! `--trace 1` a separate instrumented run reports per-layer metrics
//! and writes its spans under `.bench_out/`. Every run appends its
//! result to `.bench_out/runs.jsonl`, the input of `--compare`.

// A benchmark times wall-clock by definition.
#![allow(clippy::disallowed_methods)]

mod compare;
mod gate;
mod layers;
mod sim;
mod spans;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use util::{json_num, json_str};

/// Names of the workloads, in the order `--smoke` runs them.
pub const WORKLOADS: [&str; 3] = ["sim-catalog", "overload-traced", "runtime-gate"];

/// How large a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The specs as checked in.
    Full,
    /// The specs' own quick (CI-scale) overrides and tiny op counts.
    Smoke,
}

/// Everything a workload needs to know about the run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed; every spec seed and outcome-stream offset derives
    /// from it.
    pub seed: u64,
    /// Seconds to keep measuring passes for.
    pub seconds: f64,
    /// Full or smoke scale.
    pub scale: Scale,
    /// Scratch directory for trace files and span dumps.
    pub work_dir: PathBuf,
    /// Worker threads: the machine's available parallelism.
    pub threads: usize,
}

/// Counts checked operations and the ones that failed a check.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; records a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, what());
        }
    }

    /// Counts `n` operations checked in bulk.
    pub fn attempted(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records `n` failures among already counted operations.
    pub fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.messages.len() < 8 {
            self.messages.push(what);
        }
    }
}

/// Runs `pass` until `cfg.seconds` are used (exactly once at smoke
/// scale), and `between` after every pass. Every pass must reproduce
/// the first pass's digest. The workloads time another set-up block in
/// `between`, so set-up is sampled across the whole run, as the passes
/// are.
pub fn repeat_passes<P>(
    cfg: &RunConfig,
    checks: &mut Checks,
    digest: fn(&P) -> &str,
    mut pass: impl FnMut(&mut Checks) -> Result<P, String>,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Vec<P>, String> {
    let t = std::time::Instant::now();
    let mut passes = vec![pass(checks)?];
    between()?;
    while cfg.scale == Scale::Full && util::secs(t) < cfg.seconds {
        let p = pass(checks)?;
        let (first, this) = (digest(&passes[0]), digest(&p));
        checks.check(this == first, || {
            format!("pass digest {this} differs from the first pass's {first}")
        });
        passes.push(p);
        between()?;
    }
    Ok(passes)
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The metrics of one run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What a workload run hands back.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Output checks.
    pub checks: Checks,
    /// Gated metrics (the last line's `metrics`).
    pub metrics: Metrics,
    /// The workload's own named metrics, printed as a table.
    pub detail: Metrics,
    /// Digest of every simulated statistic and report byte.
    pub digest: String,
}

fn usage() -> &'static str {
    "usage: perfbench --workload <sim-catalog|overload-traced|runtime-gate> --seed <n> \
     --seconds <s> --trace <0|1>\n       perfbench --smoke [--workload <name>] [--seed <n>]\n       \
     perfbench --compare <base.jsonl> <head.jsonl>"
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(String::from("--seconds must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--smoke" => args.smoke = true,
            "--compare" => {
                let base = PathBuf::from(value("--compare")?);
                let head = PathBuf::from(value("--compare")?);
                args.compare = Some((base, head));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    if args.compare.is_none() && !args.smoke && args.workload.is_none() {
        return Err(String::from("--workload is required"));
    }
    Ok(args)
}

fn run_workload(name: &str, cfg: &RunConfig, trace: bool) -> Result<RunResult, String> {
    match (name, trace) {
        ("sim-catalog", false) => sim::run(sim::Kind::Catalog, cfg),
        ("overload-traced", false) => sim::run(sim::Kind::Overload, cfg),
        ("runtime-gate", false) => gate::run(cfg),
        ("sim-catalog", true) => sim::run_traced(sim::Kind::Catalog, cfg),
        ("overload-traced", true) => sim::run_traced(sim::Kind::Overload, cfg),
        ("runtime-gate", true) => gate::run_traced(cfg),
        _ => Err(format!("unknown workload `{name}`")),
    }
}

fn print_result(name: &str, r: &RunResult) {
    println!("== {name}: digest {}", r.digest);
    for m in &r.detail.0 {
        println!("  {:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let ratio = r.checks.failed as f64 / r.checks.attempted.max(1) as f64;
    println!(
        "  {:<36} {:>18.6} failed / attempted ({} / {})",
        "failed_ratio", ratio, r.checks.failed, r.checks.attempted
    );
    for msg in &r.checks.messages {
        println!("  FAILED: {msg}");
    }
}

fn result_line(r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.checks.failed == 0 && r.checks.attempted > 0,
        r.checks.attempted.max(1),
        r.checks.failed,
        r.metrics.json()
    )
}

fn record_run(work_dir: &Path, name: &str, seed: u64, trace: bool, r: &RunResult) {
    let line = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"digest\": {}, \"result\": {}, \"detail\": {}}}\n",
        json_str(name),
        u8::from(trace),
        json_str(&r.digest),
        result_line(r),
        r.detail.json()
    );
    let path = work_dir.join("runs.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    if let Err(e) = appended {
        eprintln!("warning: cannot append to {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some((base, head)) = &args.compare {
        return match compare::run(base, head) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    if !Path::new("scenarios").is_dir() {
        eprintln!("error: run from the repository root (no `scenarios/` directory here)");
        return ExitCode::from(2);
    }
    let work_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("error: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        scale: if args.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        },
        work_dir: work_dir.clone(),
        threads,
    };
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    println!(
        "perfbench: seed {} · {} s · threads {threads} · {}",
        args.seed,
        args.seconds,
        if args.smoke { "smoke" } else { "full scale" }
    );
    let mut last = None;
    let mut all_ok = true;
    for name in names {
        // Smoke runs every path: the untraced run and the traced run.
        let modes: &[bool] = if args.smoke {
            &[false, true]
        } else {
            &[args.trace]
        };
        for &trace in modes {
            match run_workload(name, &cfg, trace) {
                Ok(r) => {
                    print_result(name, &r);
                    if !args.smoke {
                        record_run(&work_dir, name, args.seed, trace, &r);
                    }
                    all_ok &= r.checks.failed == 0;
                    last = Some(r);
                }
                Err(e) => {
                    eprintln!("error: {name}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let Some(r) = last else {
        return ExitCode::FAILURE;
    };
    if args.smoke {
        println!(
            "smoke: {}",
            if all_ok {
                "all checks passed"
            } else {
                "FAILED"
            }
        );
        return if all_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    println!("{}", result_line(&r));
    ExitCode::SUCCESS
}
