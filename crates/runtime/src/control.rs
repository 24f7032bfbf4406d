//! The runtime control loop: a deterministic event-time core inside a
//! thread-safe wall-clock shell.
//!
//! The split is the crate's load-bearing design decision:
//!
//! * [`LoopCore`] is the whole control stack — telemetry window, control
//!   law, optional gate-log recorder — driven exclusively by explicit
//!   `now_ms` arguments. It never reads a clock, spawns a thread, or
//!   touches I/O, so a recorded event stream replayed through it (see
//!   [`crate::replay`]) reproduces the original decision sequence
//!   bit-for-bit.
//! * [`ControlLoop`] is the embeddable shell: it owns an
//!   [`AdaptiveGate`], stamps events with wall-clock time since
//!   construction, and serializes access to the core. Server threads
//!   call [`ControlLoop::admit`] / [`ControlLoop::complete`]; any timer
//!   calls [`ControlLoop::tick`] once per measurement interval.
//!
//! The shell's mutable state — the core, the optional trace sink and
//! the attempt sequence number — sits behind one mutex. `admit`,
//! `complete` and `tick` each take it exactly once, and read the clock
//! *inside* it, so the core sees event times in the order it sees the
//! events: its non-decreasing `now_ms` contract holds under any thread
//! interleaving. The gate itself is lock-free while nobody queues (see
//! [`alc_core::gate`]): an admit → complete pair costs two acquisitions
//! of the shell mutex plus the gate's entry CAS and release `fetch_sub`,
//! and the population is read back as an atomic load. The fast path
//! allocates nothing after warm-up — the counting-allocator test in
//! `tests/alloc_gate.rs` pins that.

use std::sync::Arc;
use std::time::Duration;

use alc_core::gate::{AdaptiveGate, Permit};
use alc_core::gatelog::{GateEvent, GateLogSink};
use alc_core::measure::PerfIndicator;
use alc_trace::{cat as tcat, name as tname, Args as TraceArgs, TraceEvent, TraceSink};
use parking_lot::Mutex;

use crate::law::{ControlLaw, WindowSnapshot};
use crate::metrics::MetricsSnapshot;
use crate::telemetry::{Outcome, TelemetryWindow};

/// What happens to an arrival that finds the gate full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Queue FIFO until a slot frees (never sheds).
    Queue,
    /// Queue up to the given patience, then shed.
    QueueTimeout(Duration),
    /// Admit only if a slot is free right now; otherwise shed.
    Shed,
}

/// One harvested decision: the bound now in force and the window that
/// produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Harvest time, ms from the loop's epoch.
    pub at_ms: f64,
    /// The MPL bound the law chose.
    pub bound: u32,
    /// The telemetry window the law saw.
    pub window: WindowSnapshot,
}

/// The deterministic event-time control core (no clock, no threads, no
/// I/O). Drive it with monotonically non-decreasing `now_ms` values.
///
/// Time starts at `0.0` with an empty system. The simulator drives this
/// same type from simulated time, which is what lets simulator-recorded
/// logs replay through it unchanged.
pub struct LoopCore {
    telemetry: TelemetryWindow,
    law: Box<dyn ControlLaw>,
    log: Option<Box<dyn GateLogSink>>,
    commits: u64,
    aborts: u64,
    sheds: u64,
    decisions: u64,
    last: Option<Decision>,
}

impl LoopCore {
    /// Wires a law to a fresh telemetry window (epoch `0.0`, empty
    /// system).
    pub fn new(law: Box<dyn ControlLaw>, indicator: PerfIndicator) -> Self {
        LoopCore {
            telemetry: TelemetryWindow::new(indicator, 0.0, 0),
            law,
            log: None,
            commits: 0,
            aborts: 0,
            sheds: 0,
            decisions: 0,
            last: None,
        }
    }

    /// Installs a gate-log recorder mirroring every event fed in.
    pub fn set_gate_log(&mut self, sink: Box<dyn GateLogSink>) {
        self.log = Some(sink);
    }

    /// Removes and returns the recorder.
    pub fn take_gate_log(&mut self) -> Option<Box<dyn GateLogSink>> {
        self.log.take()
    }

    /// Read access to the law.
    pub fn law(&self) -> &dyn ControlLaw {
        self.law.as_ref()
    }

    /// Records that the in-system population changed to `in_system`.
    pub fn on_mpl(&mut self, now_ms: f64, in_system: u32) {
        self.telemetry.on_mpl_change(now_ms, in_system);
        if let Some(log) = self.log.as_mut() {
            log.record(&GateEvent::Mpl {
                at_ms: now_ms,
                in_system,
            });
        }
    }

    /// Records a commit.
    pub fn on_commit(&mut self, now_ms: f64, response_ms: f64, conflicts: u64) {
        self.commits += 1;
        self.telemetry.on_commit(response_ms, conflicts);
        if let Some(log) = self.log.as_mut() {
            log.record(&GateEvent::Commit {
                at_ms: now_ms,
                response_ms,
                conflicts,
            });
        }
    }

    /// Records an abort.
    pub fn on_abort(&mut self, now_ms: f64, conflicts: u64) {
        self.aborts += 1;
        self.telemetry.on_abort(conflicts);
        if let Some(log) = self.log.as_mut() {
            log.record(&GateEvent::Abort {
                at_ms: now_ms,
                conflicts,
            });
        }
    }

    /// Records a shed arrival (rejected without queueing).
    pub fn on_shed(&mut self) {
        self.sheds += 1;
        self.telemetry.on_shed();
    }

    /// Closes the window at `now_ms` without consulting the law: nothing
    /// is decided, counted or logged. An uncontrolled simulation still
    /// samples its measurements this way.
    pub fn close_window(&mut self, now_ms: f64, queue_depth: u32) -> WindowSnapshot {
        self.telemetry.harvest(now_ms, queue_depth)
    }

    /// Closes the window at `now_ms` and runs the law.
    pub fn harvest(&mut self, now_ms: f64, queue_depth: u32) -> Decision {
        let window = self.close_window(now_ms, queue_depth);
        let bound = self.law.decide(&window);
        if let Some(log) = self.log.as_mut() {
            log.record(&GateEvent::Decision {
                at_ms: now_ms,
                bound,
            });
        }
        self.decisions += 1;
        let decision = Decision {
            at_ms: now_ms,
            bound,
            window,
        };
        self.last = Some(decision.clone());
        decision
    }

    /// Cumulative `(commits, aborts, sheds, decisions)` since
    /// construction.
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        (self.commits, self.aborts, self.sheds, self.decisions)
    }

    /// The last harvested decision, if any window has closed yet.
    pub fn last_decision(&self) -> Option<&Decision> {
        self.last.as_ref()
    }
}

/// The embeddable admission-control runtime: a thread-safe gate whose
/// limit a control law adjusts from live telemetry.
///
/// ```
/// use alc_runtime::{AdmissionPolicy, AimdLaw, AimdParams, ControlLoop, Outcome};
/// use alc_core::measure::PerfIndicator;
///
/// let gate = ControlLoop::new(
///     Box::new(AimdLaw::new(AimdParams::default())),
///     PerfIndicator::Throughput,
///     AdmissionPolicy::Queue,
/// );
/// let permit = gate.admit().expect("Queue policy never sheds");
/// // ... do the unit of work ...
/// gate.complete(permit, Outcome::Commit { response_ms: 12.5, conflicts: 0 });
/// let decision = gate.tick(); // from a timer, once per interval
/// assert!(decision.bound >= 1);
/// ```
pub struct ControlLoop {
    gate: Arc<AdaptiveGate>,
    policy: AdmissionPolicy,
    shell: Mutex<Shell>,
    // alc-lint: allow(wall-clock, reason="the shell's one clock: stamps events with ms since construction; the deterministic core never reads it")
    epoch: std::time::Instant,
}

/// The shell's mutable state, all behind one mutex.
struct Shell {
    core: LoopCore,
    trace: Option<Box<dyn TraceSink>>,
    /// Sequence number of the next admitted attempt.
    seq: u64,
}

/// A held admission slot, returned by [`ControlLoop::admit`]. Wraps the
/// gate's permit with the admission timestamp and a sequence number, so
/// [`ControlLoop::complete`] can emit the attempt's lifecycle span
/// without any per-attempt bookkeeping in the loop. Dropping it releases
/// the slot (without reporting an outcome), exactly like the raw permit.
pub struct AdmittedPermit<'a> {
    inner: Permit<'a>,
    admitted_at_ms: f64,
    seq: u64,
}

impl AdmittedPermit<'_> {
    /// When this permit was granted, ms since the loop's epoch.
    pub fn admitted_at_ms(&self) -> f64 {
        self.admitted_at_ms
    }
}

/// How many worker lanes attempt spans are spread over in traces: the
/// sequence number is folded modulo this, keeping concurrent attempts on
/// distinct Perfetto rows without unbounded lane growth.
const TRACE_LANES: u64 = 32;

impl ControlLoop {
    /// Builds the runtime: the gate starts at the law's current bound.
    pub fn new(
        law: Box<dyn ControlLaw>,
        indicator: PerfIndicator,
        policy: AdmissionPolicy,
    ) -> Self {
        let gate = Arc::new(AdaptiveGate::new(law.current_bound()));
        ControlLoop {
            gate,
            policy,
            shell: Mutex::new(Shell {
                core: LoopCore::new(law, indicator),
                trace: None,
                seq: 0,
            }),
            #[allow(clippy::disallowed_methods)] // real-time shell: the epoch is its time base
            // alc-lint: allow(wall-clock, reason="epoch stamp at construction; all later times are durations from it")
            epoch: std::time::Instant::now(),
        }
    }

    /// Installs a gate-log recorder (e.g. [`crate::log::JsonlSink`]).
    pub fn set_gate_log(&self, sink: Box<dyn GateLogSink>) {
        self.shell.lock().core.set_gate_log(sink);
    }

    /// Removes and returns the recorder (to flush/inspect after a run).
    pub fn take_gate_log(&self) -> Option<Box<dyn GateLogSink>> {
        self.shell.lock().core.take_gate_log()
    }

    /// Installs a span/event trace sink (e.g. an
    /// [`alc_trace::ChromeWriter`]). The loop then emits the same
    /// vocabulary the simulator uses: an `attempt` span per admitted
    /// unit of work (outcome-tagged at completion), `mpl`/`bound`
    /// counters, `gate.decision` instants on each tick, and
    /// `client.shed` instants for shed arrivals — all stamped with ms
    /// since the loop's epoch.
    pub fn set_trace_sink(&self, sink: Box<dyn TraceSink>) {
        let mut shell = self.shell.lock();
        let t = shell.trace.insert(sink);
        t.emit(&TraceEvent::process_name(alc_trace::PID_NODE, "runtime", None));
        t.emit(&TraceEvent::thread_name(
            alc_trace::PID_NODE,
            alc_trace::TID_CONTROL,
            "control",
            None,
        ));
        for lane in 0..TRACE_LANES {
            let lane = lane as u32;
            t.emit(&TraceEvent::thread_name(
                alc_trace::PID_NODE,
                1 + lane,
                "worker-",
                Some(lane),
            ));
        }
    }

    /// Removes and returns the trace sink (to finish/flush it).
    pub fn take_trace_sink(&self) -> Option<Box<dyn TraceSink>> {
        self.shell.lock().trace.take()
    }

    /// Milliseconds since construction — the loop's time base.
    pub fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1000.0
    }

    /// The underlying gate, for stats or direct sharing.
    pub fn gate(&self) -> &Arc<AdaptiveGate> {
        &self.gate
    }

    /// Requests admission under the configured policy. `None` means the
    /// arrival was shed (immediately under [`AdmissionPolicy::Shed`],
    /// after the patience under [`AdmissionPolicy::QueueTimeout`]; never
    /// under [`AdmissionPolicy::Queue`]). Hold the permit for the
    /// duration of the unit of work and pass it to
    /// [`ControlLoop::complete`].
    pub fn admit(&self) -> Option<AdmittedPermit<'_>> {
        let permit = match self.policy {
            AdmissionPolicy::Queue => Some(self.gate.acquire()),
            AdmissionPolicy::QueueTimeout(patience) => self.gate.acquire_timeout(patience),
            AdmissionPolicy::Shed => self.gate.try_acquire(),
        };
        let mut shell = self.shell.lock();
        let Shell { core, trace, seq } = &mut *shell;
        let now = self.now_ms();
        match permit {
            Some(inner) => {
                let in_use = self.gate.in_use();
                core.on_mpl(now, in_use);
                let permit = AdmittedPermit {
                    inner,
                    admitted_at_ms: now,
                    seq: *seq,
                };
                *seq += 1;
                if let Some(t) = trace.as_mut() {
                    t.emit(&TraceEvent::counter(
                        tname::MPL,
                        now,
                        alc_trace::PID_NODE,
                        f64::from(in_use),
                    ));
                }
                Some(permit)
            }
            None => {
                core.on_shed();
                if let Some(t) = trace.as_mut() {
                    t.emit(&TraceEvent::instant(
                        tname::CLIENT_SHED,
                        tcat::CLIENT,
                        now,
                        alc_trace::PID_NODE,
                        alc_trace::TID_CONTROL,
                    ));
                }
                None
            }
        }
    }

    /// Reports how an admitted unit of work ended, releasing its slot.
    pub fn complete(&self, permit: AdmittedPermit<'_>, outcome: Outcome) {
        let AdmittedPermit {
            inner,
            admitted_at_ms,
            seq,
        } = permit;
        let mut shell = self.shell.lock();
        let Shell { core, trace, .. } = &mut *shell;
        let now = self.now_ms();
        let outcome_name = match outcome {
            Outcome::Commit {
                response_ms,
                conflicts,
            } => {
                core.on_commit(now, response_ms, conflicts);
                "commit"
            }
            Outcome::Abort { conflicts } => {
                core.on_abort(now, conflicts);
                "abort"
            }
        };
        drop(inner); // release the slot, then observe the new population
        let in_use = self.gate.in_use();
        core.on_mpl(now, in_use);
        if let Some(t) = trace.as_mut() {
            t.emit(
                &TraceEvent::complete(
                    tname::ATTEMPT,
                    tcat::TXN,
                    admitted_at_ms,
                    now - admitted_at_ms,
                    alc_trace::PID_NODE,
                    1 + (seq % TRACE_LANES) as u32,
                )
                .with(TraceArgs::Outcome(outcome_name)),
            );
            t.emit(&TraceEvent::counter(
                tname::MPL,
                now,
                alc_trace::PID_NODE,
                f64::from(in_use),
            ));
        }
    }

    /// Closes the measurement window, runs the law, and pushes the new
    /// bound into the gate. Call from a timer at the measurement cadence
    /// (`alc_core::sampler` has interval-sizing policies if the cadence
    /// itself should adapt).
    pub fn tick(&self) -> Decision {
        let mut shell = self.shell.lock();
        let Shell { core, trace, .. } = &mut *shell;
        let now = self.now_ms();
        let queue_depth = self.gate.stats().waiting;
        let decision = core.harvest(now, queue_depth);
        self.gate.set_limit(decision.bound);
        if let Some(t) = trace.as_mut() {
            t.emit(
                &TraceEvent::instant(
                    tname::GATE_DECISION,
                    tcat::GATE,
                    now,
                    alc_trace::PID_NODE,
                    alc_trace::TID_CONTROL,
                )
                .with(TraceArgs::Bound(decision.bound)),
            );
            t.emit(&TraceEvent::counter(
                tname::BOUND,
                now,
                alc_trace::PID_NODE,
                f64::from(decision.bound),
            ));
        }
        decision
    }

    /// Flattens the loop's live state into one [`MetricsSnapshot`]:
    /// gate occupancy now, cumulative outcome counters, and the last
    /// harvested window (zeros before the first [`ControlLoop::tick`]).
    /// Export a sampled series with
    /// [`write_metrics_jsonl`](crate::metrics::write_metrics_jsonl).
    pub fn metrics(&self) -> MetricsSnapshot {
        let now = self.now_ms();
        let stats = self.gate.stats();
        let shell = self.shell.lock();
        let core = &shell.core;
        let (commits, aborts, sheds, decisions) = core.totals();
        let last = core.last_decision();
        let (window, queue_depth) = match last {
            Some(d) => (Some(&d.window), d.window.queue_depth),
            None => (None, 0),
        };
        MetricsSnapshot {
            at_ms: now,
            bound: stats.limit,
            in_use: stats.in_use,
            waiting: stats.waiting,
            commits,
            aborts,
            sheds,
            decisions,
            window_departures: window.map_or(0, |w| w.measurement.departures),
            window_aborts: window.map_or(0, |w| w.measurement.aborts),
            window_shed: window.map_or(0, |w| w.shed),
            observed_mpl: window.map_or(0.0, |w| w.measurement.observed_mpl),
            mean_response_ms: window.map_or(0.0, |w| w.measurement.mean_response_ms),
            p50_ms: window.map_or(0.0, |w| w.p50_ms),
            p95_ms: window.map_or(0.0, |w| w.p95_ms),
            p99_ms: window.map_or(0.0, |w| w.p99_ms),
            queue_depth,
        }
    }

    /// Read access to the law under the loop's lock.
    pub fn with_law<R>(&self, f: impl FnOnce(&dyn ControlLaw) -> R) -> R {
        f(self.shell.lock().core.law())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::law::{AimdLaw, AimdParams};

    fn aimd_loop(policy: AdmissionPolicy, initial_bound: u32) -> ControlLoop {
        ControlLoop::new(
            Box::new(AimdLaw::new(AimdParams {
                initial_bound,
                ..AimdParams::default()
            })),
            PerfIndicator::Throughput,
            policy,
        )
    }

    #[test]
    fn admit_complete_tick_cycle() {
        let rt = aimd_loop(AdmissionPolicy::Queue, 2);
        let p1 = rt.admit().expect("queue policy");
        let p2 = rt.admit().expect("queue policy");
        assert_eq!(rt.gate().in_use(), 2);
        rt.complete(
            p1,
            Outcome::Commit {
                response_ms: 10.0,
                conflicts: 0,
            },
        );
        rt.complete(p2, Outcome::Abort { conflicts: 1 });
        assert_eq!(rt.gate().in_use(), 0);
        let d = rt.tick();
        assert_eq!(d.window.measurement.departures, 1);
        assert_eq!(d.window.measurement.aborts, 1);
        assert_eq!(rt.gate().limit(), d.bound);
    }

    #[test]
    fn shed_policy_rejects_at_capacity_and_counts() {
        let rt = aimd_loop(AdmissionPolicy::Shed, 1);
        let held = rt.admit().expect("capacity free");
        assert!(rt.admit().is_none(), "full gate must shed");
        rt.complete(
            held,
            Outcome::Commit {
                response_ms: 5.0,
                conflicts: 0,
            },
        );
        let d = rt.tick();
        assert_eq!(d.window.shed, 1);
    }

    /// A sink sharing its buffer with the test body.
    struct SharedSink(Arc<Mutex<Vec<GateEvent>>>);

    impl GateLogSink for SharedSink {
        fn record(&mut self, event: &GateEvent) {
            self.0.lock().push(event.clone());
        }
    }

    #[test]
    fn gate_log_mirrors_the_event_stream() {
        let rt = aimd_loop(AdmissionPolicy::Queue, 4);
        let buffer = Arc::new(Mutex::new(Vec::new()));
        rt.set_gate_log(Box::new(SharedSink(Arc::clone(&buffer))));
        let p = rt.admit().expect("queue policy");
        rt.complete(
            p,
            Outcome::Commit {
                response_ms: 7.0,
                conflicts: 2,
            },
        );
        let d = rt.tick();
        let events = buffer.lock().clone();
        let kinds: Vec<&str> = events
            .iter()
            .map(|e| match e {
                GateEvent::Mpl { .. } => "mpl",
                GateEvent::Commit { .. } => "commit",
                GateEvent::Abort { .. } => "abort",
                GateEvent::Decision { .. } => "decision",
            })
            .collect();
        assert_eq!(kinds, vec!["mpl", "commit", "mpl", "decision"]);
        match events.last().expect("non-empty") {
            GateEvent::Decision { bound, .. } => assert_eq!(*bound, d.bound),
            other => panic!("unexpected final event {other:?}"),
        }
    }

    /// A trace sink sharing its event buffer with the test body.
    struct SharedTrace(Arc<Mutex<Vec<TraceEvent>>>);

    impl TraceSink for SharedTrace {
        fn emit(&mut self, ev: &TraceEvent) {
            self.0.lock().push(*ev);
        }
    }

    #[test]
    fn trace_and_metrics_see_the_same_run() {
        let rt = aimd_loop(AdmissionPolicy::Shed, 1);
        let buffer = Arc::new(Mutex::new(Vec::new()));
        rt.set_trace_sink(Box::new(SharedTrace(Arc::clone(&buffer))));
        let held = rt.admit().expect("capacity free");
        assert!(held.admitted_at_ms() >= 0.0);
        assert!(rt.admit().is_none(), "full gate must shed");
        rt.complete(
            held,
            Outcome::Commit {
                response_ms: 5.0,
                conflicts: 0,
            },
        );
        let d = rt.tick();
        let events = buffer.lock().clone();
        let attempt = events
            .iter()
            .find(|e| e.ph == alc_trace::Phase::Complete && e.name == tname::ATTEMPT)
            .expect("attempt span");
        assert!(matches!(attempt.args, TraceArgs::Outcome("commit")));
        assert!(attempt.dur_ms >= 0.0);
        assert!(events
            .iter()
            .any(|e| e.ph == alc_trace::Phase::Mark && e.name == tname::CLIENT_SHED));
        assert!(events
            .iter()
            .any(|e| e.ph == alc_trace::Phase::Mark && e.name == tname::GATE_DECISION));
        assert!(events
            .iter()
            .any(|e| e.ph == alc_trace::Phase::Counter && e.name == tname::MPL));
        let m = rt.metrics();
        assert_eq!((m.commits, m.aborts, m.sheds, m.decisions), (1, 0, 1, 1));
        assert_eq!(m.window_departures, 1);
        assert_eq!(m.window_shed, 1);
        assert_eq!(m.bound, d.bound);
        assert_eq!(m.in_use, 0);
        assert!(rt.take_trace_sink().is_some());
    }

    #[test]
    fn queue_timeout_sheds_when_saturated() {
        let rt = aimd_loop(
            AdmissionPolicy::QueueTimeout(Duration::from_millis(10)),
            1,
        );
        let held = rt.admit().expect("first admit");
        assert!(rt.admit().is_none(), "second admit must time out");
        drop(held);
    }
}
