//! The `runtime-gate` workload: `alc_runtime::ControlLoop` embedded in
//! a closed loop, then the checked-in gate logs replayed.
//!
//! Each worker loops admit → `complete(Outcome)` with zero think time.
//! The outcomes are the engine-recorded commits and aborts of the four
//! gate logs under `scenarios/traces/`, and each worker starts its walk
//! through them at an offset derived from the benchmark seed. Worker 0
//! also calls `tick()` every `TICK_EVERY` operations (no ticker
//! thread). The gate sheds (`AdmissionPolicy::Shed`) under a fixed
//! bound above the worker count, so a refused admit is a defect, not a
//! control decision. A pass runs 1 worker, then 2, then replays the
//! four gate logs through `conformance::replay_log`.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use alc_core::controller::FixedBound;
use alc_core::gatelog::GateEvent;
use alc_core::measure::PerfIndicator;
use alc_runtime::{read_gate_log, AdmissionPolicy, ControlLoop, Outcome, PaperLaw};
use alc_scenario::conformance::replay_log;
use alc_scenario::LoadedSpec;

use crate::layers::{self, LayerValues};
use crate::spans::{self, Lane, SharedLane};
use crate::util::{
    derive_seed, median, median_by, peak_rss_mb, quantile, secs, setup_block, timed, Digest,
};
use crate::{repeat_passes, Checks, Metrics, RunConfig, RunResult, Scale};

/// The gate's fixed bound: above any worker count used here.
const BOUND: u32 = 8;
/// Worker 0 ticks the loop every this many of its operations.
const TICK_EVERY: u64 = 4096;
/// One in this many pairs is timed end to end at 2 workers.
const SAMPLE_EVERY: u64 = 32;
/// Set-ups (spec reads, log reads, loop construction) per timed block:
/// about 0.1 s on 2 threads, at some 13 ms a set-up.
const SETUPS_PER_BLOCK: usize = 16;

/// The gate logs and the specs they replay against.
const LOGS: [(&str, &str); 4] = [
    ("fig13", "fig13_gatelog.jsonl"),
    ("sinus", "sinus_IS_gatelog.jsonl"),
    ("sinus", "sinus_PA_gatelog.jsonl"),
    ("retry-storm", "retry-storm_gatelog.jsonl"),
];

/// Pairs per phase and replay rounds per pass.
struct Sizes {
    pairs: u64,
    replay_rounds: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            pairs: 1_500_000,
            replay_rounds: 4,
        },
        Scale::Smoke => Sizes {
            pairs: 20_000,
            replay_rounds: 1,
        },
    }
}

fn new_loop() -> ControlLoop {
    ControlLoop::new(
        Box::new(PaperLaw::new(Box::new(FixedBound::new(BOUND)))),
        PerfIndicator::Throughput,
        AdmissionPolicy::Shed,
    )
}

/// Where worker `worker` starts in the outcome stream of `len`.
fn start(seed: u64, worker: usize, len: usize) -> usize {
    (derive_seed(seed, &format!("outcomes/{worker}")) % len as u64) as usize
}

/// One worker's tallies.
#[derive(Default)]
struct Worker {
    admitted: u64,
    completed: u64,
    refused: u64,
    ticks: u64,
    tick_ns: u64,
    admit_ns: u64,
    complete_ns: u64,
    samples: Vec<f64>,
}

fn worker(
    lp: &ControlLoop,
    outs: &[Outcome],
    from: usize,
    ops: u64,
    ticker: bool,
    sample: bool,
    timed_ops: bool,
) -> Worker {
    let mut w = Worker::default();
    let mut next = outs.iter().cycle().skip(from);
    for i in 0..ops {
        let sampled = sample && i % SAMPLE_EVERY == 0;
        let t0 = (sampled || timed_ops).then(Instant::now);
        match lp.admit() {
            Some(permit) => {
                w.admitted += 1;
                let t1 = timed_ops.then(Instant::now);
                lp.complete(permit, *next.next().expect("the stream is not empty"));
                w.completed += 1;
                if let (Some(t0), Some(t1)) = (t0, t1) {
                    w.admit_ns += (t1 - t0).as_nanos() as u64;
                    w.complete_ns += t1.elapsed().as_nanos() as u64;
                }
                if sampled {
                    if let Some(t0) = t0 {
                        w.samples.push(t0.elapsed().as_nanos() as f64);
                    }
                }
            }
            None => w.refused += 1,
        }
        if ticker && i % TICK_EVERY == TICK_EVERY - 1 {
            let t = Instant::now();
            let d = lp.tick();
            w.tick_ns += t.elapsed().as_nanos() as u64;
            w.ticks += 1;
            std::hint::black_box(d);
        }
    }
    w
}

/// One closed-loop phase on a fresh loop.
pub struct Phase {
    /// Admit+complete pairs per second.
    pub pairs_per_s: f64,
    /// Sampled pair latencies, ns.
    pub samples: Vec<f64>,
    /// Mean admit time, ns (timed runs only).
    pub admit_ns: f64,
    /// Mean complete time, ns (timed runs only).
    pub complete_ns: f64,
    /// Mean tick time, µs.
    pub tick_us: f64,
    /// Refused admits over attempts.
    pub shed_ratio: f64,
    /// Deterministic totals `(commits, aborts, decisions)`.
    pub totals: (u64, u64, u64),
}

/// Runs `threads` workers for `pairs` operations in total over
/// `outcomes` and checks that nothing was refused and no permit leaked.
fn phase(
    threads: usize,
    pairs: u64,
    outcomes: &[Outcome],
    seed: u64,
    sample: bool,
    timed_ops: bool,
    checks: &mut Checks,
) -> Phase {
    let lp = new_loop();
    let per = pairs / threads as u64;
    let t = Instant::now();
    let workers: Vec<Worker> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|i| {
                let lp = &lp;
                let from = start(seed, i, outcomes.len());
                s.spawn(move || worker(lp, outcomes, from, per, i == 0, sample, timed_ops))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("gate worker panicked"))
            .collect()
    });
    let wall_s = secs(t);
    let sum = |f: fn(&Worker) -> u64| workers.iter().map(f).sum::<u64>();
    let (admitted, completed, refused) = (
        sum(|w| w.admitted),
        sum(|w| w.completed),
        sum(|w| w.refused),
    );
    let m = lp.metrics();
    checks.attempted(admitted + refused);
    if refused > 0 {
        checks.fail(
            refused,
            format!("{threads}t: {refused} admits refused under a fixed bound of {BOUND}"),
        );
    }
    let in_use = lp.gate().in_use();
    if in_use != 0 || admitted != completed || m.commits + m.aborts != completed {
        checks.fail(
            1,
            format!(
            "{threads}t: permit leak: in_use {in_use}, admitted {admitted}, completed {completed}, core saw {}",
                m.commits + m.aborts
            ),
        );
    }
    let ticks = sum(|w| w.ticks);
    Phase {
        pairs_per_s: completed as f64 / wall_s,
        samples: workers
            .iter()
            .flat_map(|w| w.samples.iter().copied())
            .collect(),
        admit_ns: sum(|w| w.admit_ns) as f64 / admitted.max(1) as f64,
        complete_ns: sum(|w| w.complete_ns) as f64 / completed.max(1) as f64,
        tick_us: sum(|w| w.tick_ns) as f64 / 1e3 / ticks.max(1) as f64,
        shed_ratio: refused as f64 / (admitted + refused).max(1) as f64,
        totals: (m.commits, m.aborts, m.decisions),
    }
}

fn log_path(log: &str) -> PathBuf {
    Path::new("scenarios/traces").join(log)
}

/// Set-up: the replay specs read, the logs read, the loops built.
struct Setup {
    specs: Vec<LoadedSpec>,
    /// Events per log (header excluded), in `LOGS` order.
    events: Vec<u64>,
    /// The logs' commits and aborts, in `LOGS` order: the closed loop's
    /// outcome stream.
    outcomes: Vec<Outcome>,
    /// Time of one block of `SETUPS_PER_BLOCK` set-ups on `nproc`
    /// threads, s.
    block_s: f64,
    /// Mean `LoadedSpec::read` time of the four specs, ms.
    read_ms: f64,
}

fn setup(threads: usize) -> Result<Setup, String> {
    // (read s, set-ups) over the block.
    let totals = Mutex::new((0.0, 0u32));
    let ((specs, events, outcomes), block_s) = setup_block(SETUPS_PER_BLOCK, threads, || {
        let (mut specs, mut counts, mut outcomes) = (Vec::new(), Vec::new(), Vec::new());
        let mut read_s = 0.0;
        for (spec, log) in LOGS {
            let path = Path::new("scenarios").join(format!("{spec}.json"));
            let (loaded, s) = timed(|| LoadedSpec::read(&path));
            read_s += s;
            specs.push(loaded.map_err(|e| e.to_string())?);
            let file = std::fs::File::open(log_path(log)).map_err(|e| format!("{log}: {e}"))?;
            let (header, events) =
                read_gate_log(std::io::BufReader::new(file)).map_err(|e| format!("{log}: {e}"))?;
            std::hint::black_box(header);
            counts.push(events.len() as u64);
            outcomes.extend(events.iter().filter_map(|e| match *e {
                GateEvent::Commit {
                    response_ms,
                    conflicts,
                    ..
                } => Some(Outcome::Commit {
                    response_ms,
                    conflicts,
                }),
                GateEvent::Abort { conflicts, .. } => Some(Outcome::Abort { conflicts }),
                GateEvent::Mpl { .. } | GateEvent::Decision { .. } => None,
            }));
        }
        std::hint::black_box((new_loop(), new_loop()));
        let mut t = totals.lock().expect("set-up totals lock poisoned");
        *t = (t.0 + read_s, t.1 + 1);
        Ok((specs, counts, outcomes))
    })?;
    if outcomes.is_empty() {
        return Err(String::from("the gate logs hold no commits or aborts"));
    }
    let (read_s, sets) = totals.into_inner().expect("set-up totals lock poisoned");
    Ok(Setup {
        specs,
        events,
        outcomes,
        block_s,
        read_ms: read_s * 1e3 / f64::from(sets),
    })
}

/// What one pass measured.
struct Pass {
    wall_s: f64,
    one_pairs_per_s: f64,
    two_pairs_per_s: f64,
    /// Sampled pair latency percentiles at 2 workers, ns.
    p50: f64,
    p99: f64,
    samples: usize,
    replay_events_per_s: f64,
    digest: String,
}

/// Replays every log once through `replay_log`; a replay whose
/// decision lines are not byte-identical to the recorded ones fails.
/// With `split`, `read_gate_log` is also timed alone, and the replay's
/// time less that read counts as recomputation. Returns the events fed.
fn replay_round(
    s: &Setup,
    checks: &mut Checks,
    digest: &mut Digest,
    mut split: Option<(&SharedLane, &mut LayerValues)>,
) -> Result<u64, String> {
    for (spec, (_, log)) in s.specs.iter().zip(LOGS) {
        let path = log_path(log);
        let mut read_s = 0.0;
        if let Some((lane, _)) = &split {
            spans::open(lane, "runtime.replay.read");
            let (read, t) = timed(|| {
                std::fs::File::open(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|f| {
                        read_gate_log(std::io::BufReader::new(f)).map_err(|e| e.to_string())
                    })
            });
            spans::close(lane);
            std::hint::black_box(read.map_err(|e| format!("{log}: {e}"))?);
            read_s = t;
        }
        if let Some((lane, _)) = &split {
            spans::open(lane, "scenario.replay_log");
        }
        let (out, replay_s) = timed(|| replay_log(spec, &path));
        if let Some((lane, vals)) = &mut split {
            spans::close(lane);
            vals.add("runtime.replay.read_ms", read_s * 1e3);
            vals.add("runtime.replay.compute_ms", (replay_s - read_s).max(0.0) * 1e3);
        }
        let out = out.map_err(|e| e.to_string())?;
        if let Some((_, vals)) = &mut split {
            vals.add("runtime.replay.decisions", out.decisions as f64);
        }
        let (recorded, replayed) = out.conformance.decision_lines();
        digest.debug(&(log, out.decisions, replayed.len()));
        checks.check(recorded == replayed, || {
            format!(
                "{log}: replay diverges at decision {:?}",
                out.conformance.first_divergence
            )
        });
    }
    Ok(s.events.iter().sum())
}

fn pass(s: &Setup, cfg: &RunConfig, checks: &mut Checks) -> Result<Pass, String> {
    let z = sizes(cfg.scale);
    let t = Instant::now();
    let one = phase(1, z.pairs, &s.outcomes, cfg.seed, false, false, checks);
    let two = phase(2, z.pairs, &s.outcomes, cfg.seed, true, false, checks);
    let mut digest = Digest::default();
    digest.debug(&(one.totals, two.totals));
    let t_replay = Instant::now();
    let mut events = 0;
    for _ in 0..z.replay_rounds {
        events += replay_round(s, checks, &mut digest, None)?;
    }
    let replay_events_per_s = events as f64 / secs(t_replay);
    Ok(Pass {
        wall_s: secs(t),
        one_pairs_per_s: one.pairs_per_s,
        two_pairs_per_s: two.pairs_per_s,
        p50: quantile(&two.samples, 0.5),
        p99: quantile(&two.samples, 0.99),
        samples: two.samples.len(),
        replay_events_per_s,
        digest: digest.hex(),
    })
}

/// The untraced run.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut checks = Checks::default();
    let s = setup(cfg.threads)?;
    let mut blocks = vec![s.block_s];
    let passes = repeat_passes(
        cfg,
        &mut checks,
        |p: &Pass| &p.digest,
        |checks| pass(&s, cfg, checks),
        || {
            blocks.push(setup(cfg.threads)?.block_s);
            Ok(())
        },
    )?;
    let setup_s = median(&blocks);
    let wall_s = median_by(&passes, |p| p.wall_s);
    let two = median_by(&passes, |p| p.two_pairs_per_s);
    let rss = peak_rss_mb();
    let mut metrics = Metrics::default();
    metrics.put("setup_s", setup_s, "s");
    metrics.put("wall_s", wall_s, "s");
    metrics.put("throughput_per_s", two, "1/s");
    let mut detail = Metrics::default();
    detail.put("setup_s", setup_s, "s");
    detail.put("wall_s", wall_s, "s");
    detail.put(
        "gate_ops_per_s.1t",
        median_by(&passes, |p| p.one_pairs_per_s),
        "pairs/s",
    );
    detail.put("gate_ops_per_s.2t", two, "pairs/s");
    detail.put("gate_pair_ns.p50", median_by(&passes, |p| p.p50), "ns");
    detail.put("gate_pair_ns.p99", median_by(&passes, |p| p.p99), "ns");
    let samples: usize = passes.iter().map(|p| p.samples).sum();
    detail.put("gate_pair_ns.samples", samples as f64, "count");
    detail.put(
        "replay_events_per_s",
        median_by(&passes, |p| p.replay_events_per_s),
        "events/s",
    );
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

/// The traced run: set-up, an instrumented pass (per-call admit,
/// complete and tick timing; replay split into parsing and
/// recomputation), an untraced pass for the overhead, then the bare
/// gate and `LoopCore` drives.
pub fn run_traced(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut checks = Checks::default();
    let mut vals = LayerValues::default();
    let s = setup(cfg.threads)?;
    vals.set("scenario.read_ms", s.read_ms);
    let z = sizes(cfg.scale);
    let lane = Lane::shared("runtime-gate");
    let t_traced = Instant::now();
    spans::open(&lane, "runtime.closed_loop");
    let one = phase(1, z.pairs, &s.outcomes, cfg.seed, false, true, &mut checks);
    let two = phase(2, z.pairs, &s.outcomes, cfg.seed, false, true, &mut checks);
    spans::close(&lane);
    vals.set("runtime.admit_ns.1t", one.admit_ns);
    vals.set("runtime.complete_ns.1t", one.complete_ns);
    vals.set("runtime.admit_ns.2t", two.admit_ns);
    vals.set("runtime.complete_ns.2t", two.complete_ns);
    vals.set("runtime.tick_us", median(&[one.tick_us, two.tick_us]));
    vals.set(
        "runtime.shed_ratio",
        (one.shed_ratio + two.shed_ratio) / 2.0,
    );
    let mut digest = Digest::default();
    for _ in 0..z.replay_rounds {
        let mut round = LayerValues::default();
        replay_round(&s, &mut checks, &mut digest, Some((&lane, &mut round)))?;
        for k in ["runtime.replay.read_ms", "runtime.replay.compute_ms"] {
            vals.add(k, round.get(k) / z.replay_rounds as f64);
        }
        vals.set(
            "runtime.replay.decisions",
            round.get("runtime.replay.decisions"),
        );
    }
    let traced_s = secs(t_traced);
    let mut lanes = vec![spans::take(lane)];
    let base = pass(&s, cfg, &mut checks)?;
    vals.set("bench.traced_wall_s", traced_s);
    vals.set("bench.untraced_wall_s", base.wall_s);
    vals.set("bench.tracing_overhead_s", traced_s - base.wall_s);
    layers::drive_runtime(&s.outcomes, cfg, &mut vals, &mut lanes);
    crate::sim::finish_traced("runtime-gate", cfg, vals, lanes, checks, base.digest)
}
