//! The two simulator workloads.
//!
//! * `sim-catalog` — a batch run, untraced and at full scale, of the
//!   checked-in specs a researcher runs (`fig13`, `sinus`, `abl-cc`,
//!   `cc-switch`, `adaptive-cc`, `flash-crowd`), each through
//!   `runner::run_plan` and `runner::build_report` exactly like
//!   `scenario run`.
//! * `overload-traced` — `metastable-fault`, `retry-storm` and
//!   `retry-shed` in two phases: (a) untraced with 256 replications each,
//!   (b) one `trace::trace_cell` per variant followed by
//!   `trace::validate_trace_file`.
//!
//! Spec seeds derive from the benchmark seed via `apply_sets`, so the
//! program only ever sees generated inputs. A pass is one sweep over
//! the workload; passes repeat until the run's seconds are used, and
//! every pass must reproduce the first pass's digest exactly.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use alc_core::controller::LoadController;
use alc_core::measure::Measurement;
use alc_core::meta::{MetaObservation, MetaPolicy};
use alc_scenario::compile::{RunPlan, VariantPlan};
use alc_scenario::runner::{build_report, run_plan, RunRecord};
use alc_scenario::trace::{trace_cell, validate_trace_file};
use alc_scenario::LoadedSpec;
use alc_tpsim::config::{CcKind, SystemConfig};
use alc_tpsim::engine::Simulator;
use alc_tpsim::ClientStats;
use alc_trace::{name as tname, ChromeWriter, CountingSink, Tee, TraceEvent, TraceSink};
use rayon::prelude::*;
use serde::Value;

use crate::layers::{self, LayerParams, LayerValues};
use crate::spans::{self, Lane, SharedLane};
use crate::util::{derive_seed, median, median_by, peak_rss_mb, secs, setup_block, timed, Digest};
use crate::{repeat_passes, Checks, Metrics, RunConfig, RunResult, Scale};

/// Which simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `sim-catalog`.
    Catalog,
    /// `overload-traced`.
    Overload,
}

impl Kind {
    fn specs(self) -> &'static [&'static str] {
        match self {
            Kind::Catalog => &[
                "fig13",
                "sinus",
                "abl-cc",
                "cc-switch",
                "adaptive-cc",
                "flash-crowd",
            ],
            Kind::Overload => &["metastable-fault", "retry-storm", "retry-shed"],
        }
    }

    /// The spec whose parameters drive the layers the engine calls
    /// internally (CC protocols, calendar, station, gate).
    fn layer_spec(self) -> &'static str {
        match self {
            Kind::Catalog => "abl-cc",
            Kind::Overload => "metastable-fault",
        }
    }

    /// Set-ups per timed block: enough for a block of about 0.1 s on 2
    /// threads (one set-up takes about 2 ms on `sim-catalog` and 0.3 ms
    /// on `overload-traced`).
    fn setups_per_block(self) -> usize {
        match self {
            Kind::Catalog => 100,
            Kind::Overload => 600,
        }
    }
}

/// Replications per overload spec in phase (a). A cell simulates in
/// ~12 ms, so the phase's length comes from replications (64 take
/// ~1.5 s on 2 cores); 256 average out host noise and the seed.
const OVERLOAD_REPS: u32 = 256;
/// Replications per overload spec in a smoke run.
const SMOKE_REPS: u32 = 2;
/// `run_until` slices per run segment in the traced run.
const SLICES: u32 = 16;

/// The compiled specs plus their set-up timings.
pub struct Setup {
    /// One plan per spec, in `Kind::specs` order.
    pub plans: Vec<RunPlan>,
    /// Time of one block of `Kind::setups_per_block` reads, validations
    /// and compiles of the whole set on `nproc` threads, s.
    pub block_s: f64,
    /// Mean total `LoadedSpec::read` time of the set, ms.
    pub read_ms: f64,
    /// Mean total `apply_sets` + `compile` time of the set, ms.
    pub compile_ms: f64,
}

fn spec_path(name: &str) -> PathBuf {
    Path::new("scenarios").join(format!("{name}.json"))
}

/// Reads, seeds and compiles one spec.
fn load_spec(
    name: &str,
    seed: u64,
    replications: Option<u32>,
    scale: Scale,
) -> Result<(RunPlan, f64, f64), String> {
    let (loaded, read_s) = timed(|| LoadedSpec::read(&spec_path(name)));
    let mut loaded = loaded.map_err(|e| e.to_string())?;
    let mut sets = vec![(String::from("seed"), Value::U64(derive_seed(seed, name)))];
    if let Some(r) = replications {
        sets.push((String::from("replications"), Value::U64(u64::from(r))));
    }
    let (plan, compile_s) = timed(|| {
        loaded.apply_sets(&sets)?;
        loaded.compile(scale == Scale::Smoke)
    });
    let plan = plan.map_err(|e| e.to_string())?;
    Ok((plan, read_s, compile_s))
}

/// Loads every spec of the workload in one timed block of set-ups.
pub fn setup(kind: Kind, cfg: &RunConfig) -> Result<Setup, String> {
    let reps = match (kind, cfg.scale) {
        (Kind::Catalog, _) => None,
        (Kind::Overload, Scale::Full) => Some(OVERLOAD_REPS),
        (Kind::Overload, Scale::Smoke) => Some(SMOKE_REPS),
    };
    // (read s, compile s, set-ups) over the block.
    let totals = Mutex::new((0.0, 0.0, 0u32));
    let (plans, block_s) = setup_block(kind.setups_per_block(), cfg.threads, || {
        let (mut read, mut compile) = (0.0, 0.0);
        let plans = kind
            .specs()
            .iter()
            .map(|name| {
                let (plan, r, c) = load_spec(name, cfg.seed, reps, cfg.scale)?;
                read += r;
                compile += c;
                Ok(plan)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut t = totals.lock().expect("set-up totals lock poisoned");
        *t = (t.0 + read, t.1 + compile, t.2 + 1);
        Ok(plans)
    })?;
    let (read, compile, sets) = totals.into_inner().expect("set-up totals lock poisoned");
    Ok(Setup {
        plans,
        block_s,
        read_ms: read * 1e3 / f64::from(sets),
        compile_ms: compile * 1e3 / f64::from(sets),
    })
}

/// Client-pool conservation: every issued request is committed,
/// abandoned or still in flight; every attempt is a first attempt or a
/// retry.
fn conserved(c: &ClientStats) -> bool {
    c.issued == c.committed + c.abandoned + c.in_flight
        && c.attempts == c.first_attempts + c.retries
}

fn digest_records(d: &mut Digest, records: &[RunRecord]) {
    for r in records {
        d.debug(&(&r.label, r.replication, r.seed));
        d.debug(&r.stats);
        d.debug(&r.clients);
    }
}

/// One phase-(b) trace of a variant, as checked.
struct TracedCell {
    commits: u64,
    events: u64,
}

/// Traces replication 0 of `v` and validates the file; the file is
/// removed afterwards.
fn trace_and_validate(
    plan: &RunPlan,
    v: &VariantPlan,
    dir: &Path,
    checks: &mut Checks,
) -> Result<TracedCell, String> {
    let out = trace_cell(plan, v, 0, dir).map_err(|e| format!("trace_cell: {e}"))?;
    let path = dir.join(&out.file_name);
    checks.check(out.ok(), || {
        let broken: Vec<&str> = out
            .checks
            .iter()
            .filter(|c| !c.ok())
            .map(|c| c.what.as_str())
            .collect();
        format!(
            "{}: trace reconciliation failed (unbalanced {:?}, broken {broken:?})",
            out.file_name, out.unbalanced
        )
    });
    let validated = validate_trace_file(&path);
    checks.check(validated.as_ref().ok() == Some(&out.events), || {
        format!(
            "{}: validate_trace_file gave {validated:?}, {} events counted",
            out.file_name, out.events
        )
    });
    let _ = std::fs::remove_file(&path);
    let commits = out
        .checks
        .iter()
        .find(|c| c.what.starts_with("commits"))
        .map_or(0, |c| c.report);
    Ok(TracedCell {
        commits,
        events: out.events,
    })
}

/// What one untraced pass measured.
struct Pass {
    wall_s: f64,
    run_plan_s: f64,
    report_s: f64,
    /// Commits over host seconds of the untraced phase.
    sim_txn_per_s: f64,
    /// Phase (b) commits over its host seconds (overload only).
    traced_txn_per_s: f64,
    digest: String,
    records: Vec<Vec<RunRecord>>,
    csv: Vec<String>,
}

fn pass(
    kind: Kind,
    plans: &[RunPlan],
    cfg: &RunConfig,
    checks: &mut Checks,
) -> Result<Pass, String> {
    let t_pass = Instant::now();
    let mut digest = Digest::default();
    let (mut run_plan_s, mut report_s, mut commits) = (0.0, 0.0, 0u64);
    let mut all_records = Vec::new();
    let mut all_csv = Vec::new();
    for plan in plans {
        let (records, s) = timed(|| run_plan(plan));
        run_plan_s += s;
        let (csv, s) = timed(|| {
            let mut csv = String::new();
            build_report(plan, &records).render_csv_into(&mut csv);
            csv
        });
        report_s += s;
        for r in &records {
            commits += r.stats.commits;
            let ok = r.clients.as_ref().is_none_or(conserved);
            checks.check(ok, || {
                format!(
                    "{} {}#{}: client conservation broken: {:?}",
                    plan.name, r.label, r.replication, r.clients
                )
            });
        }
        digest_records(&mut digest, &records);
        digest.bytes(csv.as_bytes());
        all_records.push(records);
        all_csv.push(csv);
    }
    let untraced_s = secs(t_pass);
    let mut traced_txn_per_s = 0.0;
    if kind == Kind::Overload {
        let t = Instant::now();
        let mut traced_commits = 0;
        for plan in plans {
            for v in &plan.variants {
                let cell = trace_and_validate(plan, v, &cfg.work_dir, checks)?;
                traced_commits += cell.commits;
                digest.debug(&(cell.commits, cell.events));
            }
        }
        traced_txn_per_s = traced_commits as f64 / secs(t);
    }
    Ok(Pass {
        wall_s: secs(t_pass),
        run_plan_s,
        report_s,
        sim_txn_per_s: commits as f64 / untraced_s,
        traced_txn_per_s,
        digest: digest.hex(),
        records: all_records,
        csv: all_csv,
    })
}

/// The untraced run: set-up, then passes for `cfg.seconds`.
pub fn run(kind: Kind, cfg: &RunConfig) -> Result<RunResult, String> {
    let mut checks = Checks::default();
    let s = setup(kind, cfg)?;
    let mut blocks = vec![s.block_s];
    let passes = repeat_passes(
        cfg,
        &mut checks,
        |p: &Pass| &p.digest,
        |checks| pass(kind, &s.plans, cfg, checks),
        || {
            blocks.push(setup(kind, cfg)?.block_s);
            Ok(())
        },
    )?;
    let setup_s = median(&blocks);
    let wall_s = median_by(&passes, |p| p.wall_s);
    let sim_txn_per_s = median_by(&passes, |p| p.sim_txn_per_s);
    let rss = peak_rss_mb();
    let mut metrics = Metrics::default();
    metrics.put("setup_s", setup_s, "s");
    metrics.put("wall_s", wall_s, "s");
    metrics.put("throughput_per_s", sim_txn_per_s, "1/s");
    let mut detail = Metrics::default();
    detail.put("setup_s", setup_s, "s");
    detail.put("wall_s", wall_s, "s");
    detail.put("sim_txn_per_s", sim_txn_per_s, "txn/s");
    if kind == Kind::Overload {
        detail.put(
            "traced_txn_per_s",
            median_by(&passes, |p| p.traced_txn_per_s),
            "txn/s",
        );
    }
    detail.put("peak_rss_mb", rss, "MB");
    detail.put("passes", passes.len() as f64, "count");
    detail.put("threads", cfg.threads as f64, "count");
    Ok(RunResult {
        checks,
        metrics,
        detail,
        digest: passes[0].digest.clone(),
    })
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/// A `LoadController` that records a span around every update.
pub struct TimedController {
    inner: Box<dyn LoadController>,
    lane: SharedLane,
    span: &'static str,
}

/// The span name of a controller's update, by the controller's name.
pub fn controller_span(name: &str) -> &'static str {
    match name {
        "incremental-steps" => "core.controller.is.update",
        "parabola-approximation" => "core.controller.pa.update",
        "retry-budget" => "core.controller.retry_budget.update",
        _ => "core.controller.other.update",
    }
}

impl TimedController {
    /// Wraps `inner`, recording into `lane`.
    pub fn wrap(inner: Box<dyn LoadController>, lane: &SharedLane) -> Box<dyn LoadController> {
        let span = controller_span(inner.name());
        Box::new(TimedController {
            inner,
            lane: Arc::clone(lane),
            span,
        })
    }
}

impl LoadController for TimedController {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn update(&mut self, m: &Measurement) -> u32 {
        spans::open(&self.lane, self.span);
        let bound = self.inner.update(m);
        spans::close(&self.lane);
        bound
    }

    fn current_bound(&self) -> u32 {
        self.inner.current_bound()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// A `MetaPolicy` that records a span around every decision.
struct TimedMeta {
    inner: Box<dyn MetaPolicy>,
    lane: SharedLane,
}

impl MetaPolicy for TimedMeta {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn candidate_count(&self) -> usize {
        self.inner.candidate_count()
    }

    fn decide(&mut self, active: usize, obs: &MetaObservation) -> Option<usize> {
        spans::open(&self.lane, "core.meta.decide");
        let d = self.inner.decide(active, obs);
        spans::close(&self.lane);
        d
    }

    fn note_swap_complete(&mut self, completed_at_ms: f64) {
        self.inner.note_swap_complete(completed_at_ms);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// A trace sink behind a shared handle that times every emit.
struct TimedSink<S: TraceSink> {
    inner: Arc<Mutex<S>>,
    ns: Arc<AtomicU64>,
    calls: Arc<AtomicU64>,
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn emit(&mut self, ev: &TraceEvent) {
        let t = Instant::now();
        self.inner
            .lock()
            .expect("trace sink lock poisoned")
            .emit(ev);
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// Per-sink emit timing: `(total ns, calls)`.
#[derive(Default, Clone)]
struct EmitTiming {
    ns: Arc<AtomicU64>,
    calls: Arc<AtomicU64>,
}

impl EmitTiming {
    fn wrap<S: TraceSink>(&self, inner: &Arc<Mutex<S>>) -> TimedSink<S> {
        TimedSink {
            inner: Arc::clone(inner),
            ns: Arc::clone(&self.ns),
            calls: Arc::clone(&self.calls),
        }
    }

    fn per_call_ns(&self) -> f64 {
        let calls = self.calls.load(Ordering::Relaxed);
        if calls == 0 {
            0.0
        } else {
            self.ns.load(Ordering::Relaxed) as f64 / calls as f64
        }
    }
}

/// The sinks installed on an instrumented traced cell.
struct CellSinks {
    chrome: Arc<Mutex<ChromeWriter<std::io::BufWriter<std::fs::File>>>>,
    counting: Arc<Mutex<CountingSink>>,
    path: PathBuf,
}

/// One instrumented cell's outputs.
struct CellOut {
    record: RunRecord,
    events: u64,
    cc_switches: u64,
    lane: Lane,
    trace_events: u64,
    trace_bytes: u64,
}

fn unwrap_shared<T>(a: Arc<Mutex<T>>) -> Result<T, String> {
    Arc::try_unwrap(a)
        .map_err(|_| String::from("trace sink still shared after take_trace_sink"))?
        .into_inner()
        .map_err(|_| String::from("trace sink lock poisoned"))
}

/// Builds and runs one cell exactly as `runner::run_one` does, with
/// the timing wrappers installed and `run_until` sliced. With `trace`,
/// Chrome and counting sinks (timed) are installed as `trace_cell`
/// installs them.
fn instrumented_cell(
    plan: &RunPlan,
    v: &VariantPlan,
    rep: usize,
    trace: Option<(&Path, &EmitTiming, &EmitTiming)>,
) -> Result<CellOut, String> {
    let lane = Lane::shared(format!("{}/{}#{rep}", plan.name, v.label));
    spans::open(&lane, "scenario.cell");
    let seed = v.seeds[rep];
    let sys = SystemConfig { seed, ..v.sys };
    let controller = v
        .controller
        .build(&sys, &v.workload)
        .map(|c| TimedController::wrap(c, &lane));
    spans::open(&lane, "tpsim.engine.new");
    let mut sim = Simulator::new(sys, v.workload.clone(), v.cc, v.control, controller);
    spans::close(&lane);
    sim.set_record_optimum(v.record_optimum);
    if !v.cc_switches.is_empty() {
        sim.set_cc_switches(&v.cc_switches);
    }
    if let Some(adaptive) = &v.adaptive_cc {
        let (candidates, policy) = adaptive.build();
        let policy = Box::new(TimedMeta {
            inner: policy,
            lane: Arc::clone(&lane),
        });
        sim.set_adaptive_cc(candidates, policy);
    }
    let faults = v
        .fault_schedules
        .as_ref()
        .map_or(&v.faults, |per_rep| &per_rep[rep]);
    if !faults.is_empty() {
        sim.set_faults(faults);
    }
    if let Some(clients) = &v.clients {
        sim.set_clients(clients.clone());
    }
    let warmup = v.control.warmup_ms.min(v.horizon_ms);
    let mut sinks = None;
    if let Some((dir, chrome_t, count_t)) = trace {
        let path = dir.join(format!("{}_{}_bench_trace.json", plan.name, v.label));
        let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
        let writer = ChromeWriter::new(std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
        let chrome = Arc::new(Mutex::new(writer));
        let counting = Arc::new(Mutex::new(if warmup > 0.0 {
            CountingSink::with_floor(warmup)
        } else {
            CountingSink::new()
        }));
        sim.set_trace_sink(Box::new(Tee(
            chrome_t.wrap(&chrome),
            count_t.wrap(&counting),
        )));
        sinks = Some(CellSinks {
            chrome,
            counting,
            path,
        });
    }
    // Mirrors `Simulator::run`: warm-up, window reset, then the horizon.
    let run_segment = |sim: &mut Simulator, from: f64, to: f64| {
        let mut stats = None;
        for i in 1..=SLICES {
            let until = if i == SLICES {
                to
            } else {
                from + (to - from) * f64::from(i) / f64::from(SLICES)
            };
            spans::open(&lane, "tpsim.run_until");
            stats = Some(sim.run_until(until));
            spans::close(&lane);
        }
        stats.expect("SLICES > 0")
    };
    let mut from = 0.0;
    if warmup > 0.0 {
        run_segment(&mut sim, 0.0, warmup);
        sim.reset_window();
        from = warmup;
    }
    let stats = run_segment(&mut sim, from, v.horizon_ms);
    let (mut trace_events, mut trace_bytes) = (0, 0);
    if let Some(s) = sinks {
        drop(sim.take_trace_sink());
        unwrap_shared(s.chrome)?
            .finish()
            .and_then(|mut w| std::io::Write::flush(&mut w))
            .map_err(|e| e.to_string())?;
        let counting = unwrap_shared(s.counting)?;
        trace_events = counting.total();
        trace_bytes = std::fs::metadata(&s.path).map_or(0, |m| m.len());
        let _ = std::fs::remove_file(&s.path);
        let traced_commits = counting.outcome(tname::ATTEMPT, "commit").after_floor;
        if traced_commits != stats.commits {
            return Err(format!(
                "{} {}: {} commits but {traced_commits} traced attempt commits",
                plan.name, v.label, stats.commits
            ));
        }
    }
    let record = RunRecord {
        label: v.label.clone(),
        replication: rep as u32,
        seed,
        stats,
        clients: sim.client_stats(),
        trajectories: v.keep_trajectories.then(|| sim.trajectories().clone()),
    };
    let events = sim.events_processed();
    let cc_switches = sim.cc_switches_completed();
    drop(sim);
    spans::close(&lane);
    Ok(CellOut {
        record,
        events,
        cc_switches,
        lane: spans::take(lane),
        trace_events,
        trace_bytes,
    })
}

/// The traced run: set-up, one instrumented pass, one untraced pass
/// (the comparison base and the overhead reference), then the layers
/// the workload's engine calls internally, driven directly.
pub fn run_traced(kind: Kind, cfg: &RunConfig) -> Result<RunResult, String> {
    let mut checks = Checks::default();
    let mut vals = LayerValues::default();
    let s = setup(kind, cfg)?;
    vals.set("scenario.read_ms", s.read_ms);
    vals.set("scenario.compile_ms", s.compile_ms);

    let mut lanes: Vec<Lane> = Vec::new();
    let mut plan_lane = Lane::new(format!("{}:plans", kind_name(kind)));
    let t_traced = Instant::now();
    let mut instrumented: Vec<Vec<RunRecord>> = Vec::new();
    let mut csvs = Vec::new();
    let (mut events, mut commits, mut aborts, mut switches) = (0u64, 0u64, 0u64, 0u64);
    let mut client_sum = ClientStats::default();
    for plan in &s.plans {
        let jobs: Vec<(usize, usize)> = plan
            .variants
            .iter()
            .enumerate()
            .flat_map(|(vi, v)| (0..v.seeds.len()).map(move |r| (vi, r)))
            .collect();
        plan_lane.open("scenario.run_plan");
        let outs: Vec<Result<CellOut, String>> = jobs
            .par_iter()
            .map(|&(vi, r)| instrumented_cell(plan, &plan.variants[vi], r, None))
            .collect();
        plan_lane.close();
        let mut records = Vec::new();
        for out in outs {
            let out = out?;
            events += out.events;
            commits += out.record.stats.commits;
            aborts += out.record.stats.aborts;
            switches += out.cc_switches;
            if let Some(c) = &out.record.clients {
                client_sum.issued += c.issued;
                client_sum.first_attempts += c.first_attempts;
                client_sum.attempts += c.attempts;
                client_sum.retries += c.retries;
                client_sum.timeouts += c.timeouts;
                client_sum.shed += c.shed;
                client_sum.abandoned += c.abandoned;
            }
            lanes.push(out.lane);
            records.push(out.record);
        }
        let csv = plan_lane.span("scenario.build_report", || {
            let mut csv = String::new();
            build_report(plan, &records).render_csv_into(&mut csv);
            csv
        });
        instrumented.push(records);
        csvs.push(csv);
    }

    let chrome_t = EmitTiming::default();
    let count_t = EmitTiming::default();
    let (mut trace_events, mut trace_bytes) = (0u64, 0u64);
    // The public `trace_cell` repeats its instrumented twin's work; its
    // time stays out of the traced wall time.
    let mut twin_s = 0.0;
    if kind == Kind::Overload {
        for plan in &s.plans {
            for v in &plan.variants {
                let out =
                    instrumented_cell(plan, v, 0, Some((&cfg.work_dir, &chrome_t, &count_t)))?;
                trace_events += out.trace_events;
                trace_bytes += out.trace_bytes;
                lanes.push(out.lane);
                // The public path, timed: trace, reconcile, re-parse.
                let before = peak_rss_mb();
                plan_lane.open("scenario.trace_cell");
                let (traced, s) = timed(|| trace_cell(plan, v, 0, &cfg.work_dir));
                plan_lane.close();
                twin_s += s;
                let traced = traced.map_err(|e| e.to_string())?;
                checks.check(traced.ok() && traced.events == out.trace_events, || {
                    format!(
                        "{}: traced cell disagrees with its instrumented twin",
                        traced.file_name
                    )
                });
                let path = cfg.work_dir.join(&traced.file_name);
                plan_lane.open("scenario.validate_trace_file");
                let validated = validate_trace_file(&path);
                plan_lane.close();
                vals.add(
                    "scenario.trace_validate_rss_mb",
                    (peak_rss_mb() - before).max(0.0),
                );
                checks.check(validated == Ok(traced.events), || {
                    format!(
                        "{}: validate_trace_file gave {validated:?}",
                        traced.file_name
                    )
                });
                let _ = std::fs::remove_file(&path);
            }
        }
    }
    let traced_s = secs(t_traced) - twin_s;

    // The untraced pass: the comparison base and the overhead reference.
    let base = pass(kind, &s.plans, cfg, &mut checks)?;
    for ((plan, inst), (base_recs, (csv, base_csv))) in s
        .plans
        .iter()
        .zip(&instrumented)
        .zip(base.records.iter().zip(csvs.iter().zip(&base.csv)))
    {
        for (a, b) in inst.iter().zip(base_recs) {
            let same =
                format!("{:?}{:?}", a.stats, a.clients) == format!("{:?}{:?}", b.stats, b.clients);
            checks.check(same, || {
                format!(
                    "{} {}#{}: instrumented RunStats differ from run_plan's",
                    plan.name, a.label, a.replication
                )
            });
        }
        checks.check(csv == base_csv && inst.len() == base_recs.len(), || {
            format!("{}: instrumented report differs from run_plan's", plan.name)
        });
    }
    lanes.push(plan_lane);

    vals.set("tpsim.events", events as f64);
    vals.set("tpsim.commits", commits as f64);
    vals.set("tpsim.aborts", aborts as f64);
    vals.set("tpsim.cc_switches", switches as f64);
    vals.set(
        "tpsim.useful_ratio",
        if commits + aborts == 0 {
            0.0
        } else {
            commits as f64 / (commits + aborts) as f64
        },
    );
    if client_sum.first_attempts > 0 {
        vals.set(
            "tpsim.client.retry_amplification",
            client_sum.attempts as f64 / client_sum.first_attempts as f64,
        );
    }
    vals.set("tpsim.client.timeouts", client_sum.timeouts as f64);
    vals.set("tpsim.client.shed", client_sum.shed as f64);
    vals.set("tpsim.client.abandoned", client_sum.abandoned as f64);
    vals.set("trace.events", trace_events as f64);
    vals.set("trace.bytes", trace_bytes as f64);
    vals.set("trace.chrome.emit_ns", chrome_t.per_call_ns());
    vals.set("trace.counting.emit_ns", count_t.per_call_ns());
    vals.set("scenario.run_plan_s", base.run_plan_s);
    vals.set("scenario.report_ms", base.report_s * 1e3);
    vals.set("bench.traced_wall_s", traced_s);
    vals.set("bench.untraced_wall_s", base.wall_s);
    vals.set("bench.tracing_overhead_s", traced_s - base.wall_s);

    // Layers the engine calls internally, driven with this workload's
    // own parameters.
    let layer_plan = s
        .plans
        .iter()
        .zip(&base.records)
        .find(|(p, _)| p.name == kind.layer_spec())
        .or_else(|| s.plans.iter().zip(&base.records).next())
        .ok_or("no plans")?;
    let v0 = &layer_plan.0.variants[0];
    let mpl = layer_plan
        .1
        .first()
        .map_or(8.0, |r| r.stats.mean_mpl)
        .round()
        .clamp(2.0, f64::from(v0.sys.terminals)) as u32;
    let variants = || s.plans.iter().flat_map(|p| p.variants.iter());
    let optimum_cells: Vec<(SystemConfig, alc_tpsim::WorkloadConfig, f64)> = variants()
        .filter(|v| v.record_optimum)
        .map(|v| (v.sys, v.workload.clone(), v.horizon_ms))
        .collect();
    // Every protocol a cell of the workload runs, switched to or may
    // pick adaptively.
    let mut cc_kinds = Vec::new();
    for v in variants() {
        cc_kinds.push(v.cc);
        cc_kinds.extend(v.cc_switches.iter().map(|&(_, k)| k));
        if let Some(a) = &v.adaptive_cc {
            cc_kinds.extend(a.build().0);
        }
    }
    let cc_kinds: Vec<CcKind> = CcKind::ALL
        .into_iter()
        .filter(|k| cc_kinds.contains(k))
        .collect();
    let params = LayerParams {
        sys: v0.sys,
        workload: v0.workload.clone(),
        mpl,
        cc_kinds,
        optimum_cells,
    };
    layers::drive_engine(&params, cfg, &mut vals, &mut lanes);
    finish_traced(kind_name(kind), cfg, vals, lanes, checks, base.digest)
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Catalog => "sim-catalog",
        Kind::Overload => "overload-traced",
    }
}

/// Folds the span table into the layer values, writes the spans and
/// the self-time table, and packages the per-layer metrics.
pub fn finish_traced(
    workload: &str,
    cfg: &RunConfig,
    mut vals: LayerValues,
    lanes: Vec<Lane>,
    checks: Checks,
    digest: String,
) -> Result<RunResult, String> {
    let table = spans::self_time(&lanes);
    let mean_ns = |name: &str| {
        table
            .get(name)
            .map_or(0.0, |&(calls, total, _)| total as f64 / calls.max(1) as f64)
    };
    let total_ns = |name: &str| table.get(name).map_or(0, |&(_, total, _)| total);
    let calls = |name: &str| table.get(name).map_or(0, |&(calls, _, _)| calls);
    for c in ["is", "pa", "retry_budget"] {
        vals.set(
            &format!("core.controller.{c}.update_ns"),
            mean_ns(&format!("core.controller.{c}.update")),
        );
    }
    let updates: u64 = table
        .iter()
        .filter(|(k, _)| k.starts_with("core.controller.") && k.ends_with(".update"))
        .map(|(_, v)| v.0)
        .sum();
    vals.set("core.controller.updates", updates as f64);
    vals.set("core.meta.decide_ns", mean_ns("core.meta.decide"));
    let events = vals.get("tpsim.events");
    if events > 0.0 {
        vals.set(
            "tpsim.engine.ns_per_event",
            total_ns("tpsim.run_until") as f64 / events,
        );
    }
    vals.set("tpsim.engine.new_ms", mean_ns("tpsim.engine.new") / 1e6);
    if calls("scenario.trace_cell") > 0 {
        vals.set(
            "scenario.trace_cell_s",
            total_ns("scenario.trace_cell") as f64 / 1e9,
        );
        vals.set(
            "scenario.trace_validate_s",
            total_ns("scenario.validate_trace_file") as f64 / 1e9,
        );
    }
    // One file per workload, overwritten by each traced run.
    let stem = format!("spans-{workload}");
    let spans_path = cfg.work_dir.join(format!("{stem}.jsonl"));
    spans::write_jsonl(&lanes, &spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let rendered = spans::render_self_time(&lanes);
    let table_path = cfg.work_dir.join(format!("{stem}-self-time.txt"));
    std::fs::write(&table_path, &rendered).map_err(|e| format!("{}: {e}", table_path.display()))?;
    println!(
        "self time per span ({} lanes; spans in {}):",
        lanes.len(),
        spans_path.display()
    );
    print!("{rendered}");
    let metrics = vals.into_metrics();
    let mut detail = Metrics::default();
    for m in &metrics.0 {
        detail.put(m.name.clone(), m.value, m.unit);
    }
    Ok(RunResult {
        checks,
        metrics,
        detail,
        digest,
    })
}
