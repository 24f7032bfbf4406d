//! Per-layer metrics: the canonical list, and direct drives of the
//! layers the engine calls internally (calendar, distributions, CC
//! protocols, CPU station, simulated gate, analytic optimum) and of the
//! layers under the runtime shell (bare gate, control core), each with
//! the workload's own parameters and only on the workloads that call
//! them.
//!
//! A traced run of any workload reports every metric of
//! [`PER_LAYER`]. A value of 0 means the workload never calls that
//! layer (e.g. `trace.*` on `sim-catalog`, where tracing is off, or
//! `des.*` on `runtime-gate`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use alc_bench::baseline::SeedCalendar;
use alc_core::controller::FixedBound;
use alc_core::gate::AdaptiveGate;
use alc_core::measure::PerfIndicator;
use alc_des::dist::{Dist, Sample, Uniform, Zipf};
use alc_des::rng::RngStream;
use alc_des::{Calendar, SimTime};
use alc_runtime::{ControlLaw, LoopCore, Outcome, PaperLaw};
use alc_scenario::spec::cc_spec_name;
use alc_tpsim::cc::{make_cc, AccessOutcome, ConcurrencyControl};
use alc_tpsim::config::{CcKind, SystemConfig};
use alc_tpsim::gate::SimGate;
use alc_tpsim::station::{CpuJob, CpuStation};
use alc_tpsim::WorkloadConfig;

use crate::spans::Lane;
use crate::util::{derive_seed, median, quartiles, secs, timed};
use crate::{Metrics, RunConfig, Scale};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("des.calendar.op_ns", "ns"),
    ("des.calendar.speedup_vs_seed", "x"),
    ("des.calendar.speedup_vs_seed.q1", "x"),
    ("des.calendar.speedup_vs_seed.q3", "x"),
    ("des.dist.exp_ns", "ns"),
    ("des.dist.uniform_ns", "ns"),
    ("tpsim.events", "count"),
    ("tpsim.commits", "count"),
    ("tpsim.aborts", "count"),
    ("tpsim.cc_switches", "count"),
    ("tpsim.useful_ratio", "ratio"),
    ("tpsim.engine.ns_per_event", "ns"),
    ("tpsim.engine.new_ms", "ms"),
    ("tpsim.cc.certification.op_ns", "ns"),
    ("tpsim.cc.certification.conflict_ratio", "ratio"),
    ("tpsim.cc.2pl.op_ns", "ns"),
    ("tpsim.cc.2pl.conflict_ratio", "ratio"),
    ("tpsim.cc.timestamp-ordering.op_ns", "ns"),
    ("tpsim.cc.timestamp-ordering.conflict_ratio", "ratio"),
    ("tpsim.cc.wound-wait.op_ns", "ns"),
    ("tpsim.cc.wound-wait.conflict_ratio", "ratio"),
    ("tpsim.cc.wait-die.op_ns", "ns"),
    ("tpsim.cc.wait-die.conflict_ratio", "ratio"),
    ("tpsim.cc.mvto.op_ns", "ns"),
    ("tpsim.cc.mvto.conflict_ratio", "ratio"),
    ("tpsim.cc.2pl.deadlock_probe_ns", "ns"),
    ("tpsim.station.op_ns", "ns"),
    ("tpsim.gate.op_ns", "ns"),
    ("tpsim.client.retry_amplification", "ratio"),
    ("tpsim.client.timeouts", "count"),
    ("tpsim.client.shed", "count"),
    ("tpsim.client.abandoned", "count"),
    ("core.controller.is.update_ns", "ns"),
    ("core.controller.pa.update_ns", "ns"),
    ("core.controller.retry_budget.update_ns", "ns"),
    ("core.controller.updates", "count"),
    ("core.meta.decide_ns", "ns"),
    ("core.gate.try_acquire_ns.1t", "ns"),
    ("core.gate.try_acquire_ns.2t", "ns"),
    ("analytic.optimum_us", "us"),
    ("trace.events", "count"),
    ("trace.bytes", "bytes"),
    ("trace.chrome.emit_ns", "ns"),
    ("trace.counting.emit_ns", "ns"),
    ("scenario.read_ms", "ms"),
    ("scenario.compile_ms", "ms"),
    ("scenario.run_plan_s", "s"),
    ("scenario.report_ms", "ms"),
    ("scenario.trace_cell_s", "s"),
    ("scenario.trace_validate_s", "s"),
    ("scenario.trace_validate_rss_mb", "MB"),
    ("runtime.admit_ns.1t", "ns"),
    ("runtime.admit_ns.2t", "ns"),
    ("runtime.complete_ns.1t", "ns"),
    ("runtime.complete_ns.2t", "ns"),
    ("runtime.tick_us", "us"),
    ("runtime.loopcore.on_commit_ns", "ns"),
    ("runtime.loopcore.harvest_us", "us"),
    ("runtime.replay.read_ms", "ms"),
    ("runtime.replay.compute_ms", "ms"),
    ("runtime.replay.decisions", "count"),
    ("runtime.shed_ratio", "ratio"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.tracing_overhead_s", "s"),
];

/// Per-layer values collected during a traced run.
#[derive(Debug, Default)]
pub struct LayerValues(BTreeMap<String, f64>);

impl LayerValues {
    /// Sets a value.
    pub fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_string(), v);
    }

    /// Adds to a value (starting from 0).
    pub fn add(&mut self, name: &str, v: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// A value, 0 if unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Every metric of [`PER_LAYER`], in order (unset ones as 0).
    pub fn into_metrics(self) -> Metrics {
        let mut m = Metrics::default();
        for &(name, unit) in PER_LAYER {
            m.put(name, self.get(name), unit);
        }
        m
    }
}

/// The workload parameters the direct drives use.
pub struct LayerParams {
    /// System of the workload's representative cell.
    pub sys: SystemConfig,
    /// Workload of the representative cell (its t = 0 values are used).
    pub workload: WorkloadConfig,
    /// The representative cell's mean MPL (CC population, gate bound).
    pub mpl: u32,
    /// The CC protocols the workload's cells run.
    pub cc_kinds: Vec<CcKind>,
    /// `(system, workload, horizon)` of every cell that records the
    /// analytic optimum.
    pub optimum_cells: Vec<(SystemConfig, WorkloadConfig, f64)>,
}

/// Operation counts of the direct drives.
struct Sizes {
    calendar_ops: usize,
    race_pairs: usize,
    draws: usize,
    cc_ops: u64,
    station_ops: usize,
    gate_ops: usize,
    optimum_points: usize,
    loopcore_commits: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            calendar_ops: 400_000,
            race_pairs: 10,
            draws: 2_000_000,
            cc_ops: 300_000,
            station_ops: 1_000_000,
            gate_ops: 1_000_000,
            optimum_points: 16,
            loopcore_commits: 1_000_000,
        },
        Scale::Smoke => Sizes {
            calendar_ops: 5_000,
            race_pairs: 2,
            draws: 10_000,
            cc_ops: 5_000,
            station_ops: 10_000,
            gate_ops: 10_000,
            optimum_points: 2,
            loopcore_commits: 10_000,
        },
    }
}

/// Simulator-shaped calendar payload (the engine's event is two words).
#[derive(Clone, Copy)]
struct Payload {
    _slot: u32,
    _generation: u64,
}

/// Drives a calendar with a standing population of `pop` events: each
/// pop schedules a successor, every third also cancels and replaces a
/// parked token (the engine's displacement/timeout pattern). Returns
/// the pops performed.
macro_rules! drive_calendar {
    ($cal:expr, $pop:expr, $ops:expr, $seed:expr) => {{
        let mut rng = RngStream::from_seed($seed);
        let cal = $cal;
        let mut tokens = Vec::with_capacity($pop);
        for i in 0..$pop {
            tokens.push(cal.schedule_in(
                rng.uniform(1.0, 100.0),
                Payload {
                    _slot: i as u32,
                    _generation: 0,
                },
            ));
        }
        let mut pops = 0u64;
        for i in 0..$ops {
            let (_, p) = cal.pop().expect("standing population");
            black_box(p);
            pops += 1;
            let tok = cal.schedule_in(
                rng.uniform(1.0, 100.0),
                Payload {
                    _slot: (i % $pop) as u32,
                    _generation: i as u64,
                },
            );
            let slot = i % $pop;
            if i % 3 == 0 {
                cal.cancel(tokens[slot]);
                tokens[slot] = cal.schedule_in(
                    rng.uniform(1.0, 100.0),
                    Payload {
                        _slot: slot as u32,
                        _generation: i as u64,
                    },
                );
            } else {
                tokens[slot] = tok;
            }
        }
        while cal.pop().is_some() {
            pops += 1;
        }
        pops
    }};
}

fn calendar(p: &LayerParams, z: &Sizes, seed: u64, vals: &mut LayerValues) {
    let pop = p.sys.terminals.max(2) as usize;
    let slab = |s: u64| {
        let (pops, t) =
            timed(|| drive_calendar!(&mut Calendar::<Payload>::new(), pop, z.calendar_ops, s));
        t / pops as f64
    };
    let seedcal = |s: u64| {
        let (pops, t) =
            timed(|| drive_calendar!(&mut SeedCalendar::<Payload>::new(), pop, z.calendar_ops, s));
        t / pops as f64
    };
    // Paired, interleaved reps (ABBA order) on identical streams.
    let (mut ratios, mut slab_ns) = (Vec::new(), Vec::new());
    for rep in 0..z.race_pairs {
        let s = seed.wrapping_add(rep as u64);
        let (a, b) = if rep % 2 == 0 {
            let a = slab(s);
            (a, seedcal(s))
        } else {
            let b = seedcal(s);
            (slab(s), b)
        };
        slab_ns.push(a * 1e9);
        ratios.push(b / a);
    }
    let (q1, q3) = quartiles(&ratios);
    vals.set("des.calendar.op_ns", median(&slab_ns));
    vals.set("des.calendar.speedup_vs_seed", median(&ratios));
    vals.set("des.calendar.speedup_vs_seed.q1", q1);
    vals.set("des.calendar.speedup_vs_seed.q3", q3);
}

fn dists(p: &LayerParams, z: &Sizes, seed: u64, vals: &mut LayerValues) {
    let mut rng = RngStream::from_seed(seed);
    let exp = Dist::exponential(p.sys.think.mean().max(1.0));
    let (sum, t) = timed(|| (0..z.draws).map(|_| exp.sample(&mut rng)).sum::<f64>());
    black_box(sum);
    vals.set("des.dist.exp_ns", t * 1e9 / z.draws as f64);
    let uni = Uniform { lo: 1.0, hi: 100.0 };
    let (sum, t) = timed(|| (0..z.draws).map(|_| uni.sample(&mut rng)).sum::<f64>());
    black_box(sum);
    vals.set("des.dist.uniform_ns", t * 1e9 / z.draws as f64);
}

/// Per-slot state of the CC drive.
#[derive(Clone, Default)]
struct Slot {
    items: Vec<(u64, bool)>,
    next: usize,
    started: bool,
    blocked: bool,
}

/// Result of driving one protocol.
struct CcDrive {
    op_ns: f64,
    conflict_ratio: f64,
    probe_ns: f64,
}

/// Runs `mpl` concurrent transactions round-robin through one
/// protocol: begin, `k` accesses drawn like the engine's (uniform or
/// Zipf over the database, writes with the workload's write fraction),
/// validate, then commit or abort. Blocked requests are probed for a
/// victim exactly as the engine does.
fn drive_cc(kind: CcKind, p: &LayerParams, ops_target: u64, seed: u64) -> CcDrive {
    let slots = p.mpl.max(2) as usize;
    let db = p.sys.db_size.max(2);
    let w = p.workload.at(0.0);
    let k = (w.k as usize).clamp(1, db as usize);
    let zipf = (w.access_skew > 0.0).then(|| Zipf::new(db, w.access_skew));
    let mut rng = RngStream::from_seed(seed);
    let mut cc: Box<dyn ConcurrencyControl> = make_cc(kind, slots, db as usize);
    let mut st = vec![Slot::default(); slots];
    let (mut ops, mut commits, mut aborts, mut ts) = (0u64, 0u64, 0u64, 1u64);
    let (mut probe_ns, mut probes) = (0u64, 0u64);
    let mut freed = Vec::new();
    let mut scratch = Vec::new();

    fn wake(st: &mut [Slot], freed: &mut Vec<usize>) {
        for t in freed.drain(..) {
            if st[t].blocked {
                st[t].blocked = false;
                st[t].next += 1;
            }
        }
    }
    fn abort(cc: &mut dyn ConcurrencyControl, st: &mut [Slot], freed: &mut Vec<usize>, x: usize) {
        cc.abort_into(x, freed);
        st[x].started = false;
        st[x].blocked = false;
        wake(st, freed);
    }

    let t = Instant::now();
    while ops < ops_target {
        let mut progressed = false;
        for s in 0..slots {
            if st[s].blocked {
                continue;
            }
            progressed = true;
            ops += 1;
            if !st[s].started {
                let is_query = rng.chance(w.query_frac);
                match &zipf {
                    None => rng.distinct_below_into(db, k, &mut scratch),
                    Some(z) => {
                        scratch.clear();
                        while scratch.len() < k {
                            let item = z.sample(&mut rng);
                            if !scratch.contains(&item) {
                                scratch.push(item);
                            }
                        }
                    }
                }
                st[s].items.clear();
                for &item in &scratch {
                    let write = !is_query && rng.chance(w.write_frac);
                    st[s].items.push((item, write));
                }
                st[s].next = 0;
                st[s].started = true;
                cc.begin(s, ts);
                ts += 1;
                continue;
            }
            if st[s].next < st[s].items.len() {
                let (item, write) = st[s].items[st[s].next];
                match cc.access(s, item, write) {
                    AccessOutcome::Granted => st[s].next += 1,
                    AccessOutcome::Abort => {
                        aborts += 1;
                        abort(cc.as_mut(), &mut st, &mut freed, s);
                    }
                    AccessOutcome::Blocked => {
                        st[s].blocked = true;
                        loop {
                            let tp = Instant::now();
                            let victim = cc.deadlock_victim(s);
                            probe_ns += tp.elapsed().as_nanos() as u64;
                            probes += 1;
                            let Some(v) = victim else { break };
                            aborts += 1;
                            abort(cc.as_mut(), &mut st, &mut freed, v);
                            if v == s || !st[s].blocked {
                                break;
                            }
                        }
                    }
                }
                continue;
            }
            if cc.validate(s).ok {
                cc.commit_into(s, &mut freed);
                commits += 1;
                st[s].started = false;
                wake(&mut st, &mut freed);
            } else {
                aborts += 1;
                abort(cc.as_mut(), &mut st, &mut freed, s);
            }
        }
        if !progressed {
            // Every slot waits and no probe found a victim: break the
            // stall the way a timeout would.
            aborts += 1;
            abort(cc.as_mut(), &mut st, &mut freed, 0);
        }
    }
    let elapsed = secs(t);
    CcDrive {
        op_ns: elapsed * 1e9 / ops as f64,
        conflict_ratio: aborts as f64 / (commits + aborts).max(1) as f64,
        probe_ns: probe_ns as f64 / probes.max(1) as f64,
    }
}

fn station_and_gate(p: &LayerParams, z: &Sizes, vals: &mut LayerValues) {
    let servers = p.sys.cpus.max(1);
    let mut station = CpuStation::with_queue_capacity(servers, SimTime::ZERO, p.mpl as usize);
    let job = |i: usize| CpuJob {
        txn: i % p.mpl as usize,
        generation: i as u64,
        burst_ms: 4.0,
    };
    let t = Instant::now();
    for i in 0..z.station_ops {
        let now = SimTime::new(i as f64);
        black_box(station.offer(now, job(i)));
        if station.busy() >= servers {
            black_box(station.complete(now, |_| false));
        }
    }
    vals.set("tpsim.station.op_ns", secs(t) * 1e9 / z.station_ops as f64);
    black_box(station.busy());

    let bound = p.mpl.max(1);
    let mut gate = SimGate::with_queue_capacity(bound, p.sys.terminals as usize);
    let mut admitted = Vec::new();
    let t = Instant::now();
    for i in 0..z.gate_ops {
        gate.arrive(i % p.sys.terminals.max(1) as usize);
        if gate.in_system() >= bound {
            gate.depart_into(&mut admitted);
            admitted.clear();
        }
    }
    vals.set("tpsim.gate.op_ns", secs(t) * 1e9 / z.gate_ops as f64);
    black_box(gate.total_admitted());
}

fn optimum(p: &LayerParams, z: &Sizes, vals: &mut LayerValues) {
    let (mut calls, mut total) = (0usize, 0.0);
    for (sys, w, horizon) in &p.optimum_cells {
        for i in 0..z.optimum_points {
            let at = horizon * i as f64 / z.optimum_points as f64;
            let (n, s) = timed(|| w.analytic_optimum(at, sys, sys.terminals.max(2)));
            black_box(n);
            total += s;
            calls += 1;
        }
    }
    vals.set("analytic.optimum_us", total * 1e6 / calls.max(1) as f64);
}

fn bare_gate(z: &Sizes, vals: &mut LayerValues) {
    let gate = Arc::new(AdaptiveGate::new(8));
    let run = |g: &AdaptiveGate| {
        let t = Instant::now();
        for _ in 0..z.gate_ops {
            black_box(g.try_acquire());
        }
        secs(t) * 1e9 / z.gate_ops as f64
    };
    vals.set("core.gate.try_acquire_ns.1t", run(&gate));
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..2).map(|_| s.spawn(|| run(&gate))).collect();
        hs.into_iter()
            .map(|h| h.join().expect("gate thread panicked"))
            .collect()
    });
    vals.set("core.gate.try_acquire_ns.2t", median(&per_thread));
}

/// Feeds `LoopCore` the commits of `outcomes` (cycled) and harvests
/// every thousand.
fn loop_core(z: &Sizes, outcomes: &[Outcome], vals: &mut LayerValues) {
    let law: Box<dyn ControlLaw> = Box::new(PaperLaw::new(Box::new(FixedBound::new(8))));
    let mut core = LoopCore::new(law, PerfIndicator::Throughput);
    let commits: Vec<(f64, u64)> = outcomes
        .iter()
        .filter_map(|o| match *o {
            Outcome::Commit {
                response_ms,
                conflicts,
            } => Some((response_ms, conflicts)),
            Outcome::Abort { .. } => None,
        })
        .collect();
    let mut next = commits.iter().cycle();
    let (mut commit_s, mut harvest_s, mut harvests) = (0.0, 0.0, 0usize);
    let mut now = 0.0;
    let chunk = 1000;
    for _ in 0..z.loopcore_commits / chunk {
        let t = Instant::now();
        for _ in 0..chunk {
            now += 0.01;
            let &(response_ms, conflicts) = next.next().expect("the stream has commits");
            core.on_commit(now, response_ms, conflicts);
        }
        commit_s += secs(t);
        let (d, s) = timed(|| core.harvest(now, 0));
        black_box(d);
        harvest_s += s;
        harvests += 1;
    }
    vals.set(
        "runtime.loopcore.on_commit_ns",
        commit_s * 1e9 / z.loopcore_commits as f64,
    );
    vals.set(
        "runtime.loopcore.harvest_us",
        harvest_s * 1e6 / harvests.max(1) as f64,
    );
}

/// Drives the layers a simulator workload's engine calls internally:
/// calendar, distributions, the CC protocols the workload runs, CPU
/// station, simulated gate and (when a cell records it) the analytic
/// optimum.
pub fn drive_engine(p: &LayerParams, cfg: &RunConfig, vals: &mut LayerValues, lanes: &mut Vec<Lane>) {
    let z = sizes(cfg.scale);
    let seed = derive_seed(cfg.seed, "layers");
    let lane = Lane::shared("layers");
    let span = |name: &'static str, f: &mut dyn FnMut()| {
        crate::spans::open(&lane, name);
        f();
        crate::spans::close(&lane);
    };
    span("des.calendar", &mut || calendar(p, &z, seed, vals));
    span("des.dist", &mut || dists(p, &z, seed, vals));
    for &kind in &p.cc_kinds {
        let name = cc_spec_name(kind);
        let mut d = None;
        span("tpsim.cc", &mut || {
            d = Some(drive_cc(kind, p, z.cc_ops, seed))
        });
        let d = d.expect("drive ran");
        vals.set(&format!("tpsim.cc.{name}.op_ns"), d.op_ns);
        vals.set(&format!("tpsim.cc.{name}.conflict_ratio"), d.conflict_ratio);
        if kind == CcKind::TwoPhaseLocking {
            vals.set("tpsim.cc.2pl.deadlock_probe_ns", d.probe_ns);
        }
    }
    span("tpsim.station_gate", &mut || station_and_gate(p, &z, vals));
    if !p.optimum_cells.is_empty() {
        span("analytic.optimum", &mut || optimum(p, &z, vals));
    }
    lanes.push(crate::spans::take(lane));
}

/// Drives the layers under the runtime shell: the bare `AdaptiveGate`
/// and `LoopCore`, fed `outcomes` (the runtime workload's stream).
pub fn drive_runtime(outcomes: &[Outcome], cfg: &RunConfig, vals: &mut LayerValues, lanes: &mut Vec<Lane>) {
    let z = sizes(cfg.scale);
    let lane = Lane::shared("layers");
    crate::spans::open(&lane, "core.gate");
    bare_gate(&z, vals);
    crate::spans::close(&lane);
    crate::spans::open(&lane, "runtime.loopcore");
    loop_core(&z, outcomes, vals);
    crate::spans::close(&lane);
    lanes.push(crate::spans::take(lane));
}
