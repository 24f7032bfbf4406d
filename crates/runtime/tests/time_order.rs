//! The shell feeds the core in time order, under real thread races.
//!
//! [`LoopCore`](alc_runtime::LoopCore) must be driven with non-decreasing
//! `now_ms`: its telemetry integrates the MPL area between consecutive
//! events, so a timestamp that steps backwards subtracts area. The
//! threaded [`ControlLoop`] shell reads the clock inside the same
//! critical section that feeds the core, so the gate log it records is
//! in time order whatever the interleaving. Two workers race a shedding
//! loop with an in-memory recorder; the log must be monotone, never show
//! a population above the bound, and replay to the same decisions
//! through a fresh core.

use std::sync::{Arc, Mutex};

use alc_core::controller::FixedBound;
use alc_core::gatelog::{GateEvent, GateLogSink};
use alc_core::measure::PerfIndicator;
use alc_runtime::{check_conformance, AdmissionPolicy, ControlLoop, Outcome, PaperLaw};

const BOUND: u32 = 8;
const WORKERS: usize = 2;
const OPS_PER_WORKER: u64 = 200_000;
const TICK_EVERY: u64 = 4096;

/// A recorder sharing its buffer with the test body.
struct Shared(Arc<Mutex<Vec<GateEvent>>>);

impl GateLogSink for Shared {
    fn record(&mut self, event: &GateEvent) {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event.clone());
    }
}

fn law() -> Box<PaperLaw> {
    Box::new(PaperLaw::new(Box::new(FixedBound::new(BOUND))))
}

fn at_ms(event: &GateEvent) -> f64 {
    match *event {
        GateEvent::Mpl { at_ms, .. }
        | GateEvent::Commit { at_ms, .. }
        | GateEvent::Abort { at_ms, .. }
        | GateEvent::Decision { at_ms, .. } => at_ms,
    }
}

#[test]
fn racing_workers_log_events_in_time_order() {
    let rt = ControlLoop::new(law(), PerfIndicator::Throughput, AdmissionPolicy::Shed);
    let buffer = Arc::new(Mutex::new(Vec::new()));
    rt.set_gate_log(Box::new(Shared(Arc::clone(&buffer))));
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            let rt = &rt;
            s.spawn(move || {
                for i in 0..OPS_PER_WORKER {
                    let permit = rt.admit().expect("the bound is above the worker count");
                    let outcome = if i % 13 == 0 {
                        Outcome::Abort { conflicts: i % 3 }
                    } else {
                        Outcome::Commit {
                            response_ms: 1.0 + (i % 7) as f64,
                            conflicts: u64::from(i % 5 == 0),
                        }
                    };
                    rt.complete(permit, outcome);
                    if w == 0 && i % TICK_EVERY == TICK_EVERY - 1 {
                        rt.tick();
                    }
                }
            });
        }
    });
    drop(rt.take_gate_log());
    let events = std::mem::take(&mut *buffer.lock().expect("recorder not poisoned"));
    // Each pair logs Mpl, Commit|Abort, Mpl.
    let pairs = WORKERS as u64 * OPS_PER_WORKER;
    assert!(
        events.len() as u64 >= 3 * pairs,
        "log has {} events",
        events.len()
    );

    let backward = events
        .windows(2)
        .filter(|w| at_ms(&w[1]) < at_ms(&w[0]))
        .count();
    assert_eq!(
        backward,
        0,
        "{backward} backward time steps in {} events",
        events.len()
    );
    for event in &events {
        if let GateEvent::Mpl { in_system, at_ms } = *event {
            assert!(
                in_system <= BOUND,
                "population {in_system} above the bound {BOUND} at {at_ms} ms"
            );
        }
    }

    let conformance = check_conformance(&events, law(), PerfIndicator::Throughput);
    assert!(!conformance.recorded.is_empty(), "no decision was logged");
    assert!(
        conformance.is_identical(),
        "replay diverged at decision {:?}",
        conformance.first_divergence
    );
}
