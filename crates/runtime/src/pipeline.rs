//! Whole-pipeline tests: a paper controller behind [`PaperLaw`] driven
//! through [`ControlLoop`]'s admit → complete → tick path, with the
//! caller pacing ticks by `alc_core`'s [`AdaptiveInterval`] — the shape
//! of an embedding server (see `examples/quickstart.rs`).
//!
//! [`PaperLaw`]: crate::PaperLaw
//! [`ControlLoop`]: crate::ControlLoop
//! [`AdaptiveInterval`]: alc_core::sampler::AdaptiveInterval

#[cfg(test)]
// Tests drive the live control loop in real time; sleeping is the workload.
#[allow(clippy::disallowed_methods)]
mod tests {
    use alc_core::controller::{IncrementalSteps, IsParams};
    use alc_core::measure::PerfIndicator;
    use alc_core::sampler::AdaptiveInterval;

    use crate::{AdmissionPolicy, ControlLoop, Outcome, PaperLaw};

    fn quick_loop() -> ControlLoop {
        ControlLoop::new(
            Box::new(PaperLaw::new(Box::new(IncrementalSteps::new(IsParams {
                initial_bound: 4,
                max_bound: 64,
                ..IsParams::default()
            })))),
            PerfIndicator::Throughput,
            AdmissionPolicy::Queue,
        )
    }

    fn commit(cl: &ControlLoop, response_ms: f64) {
        let p = cl.admit().expect("Queue policy never sheds");
        cl.complete(
            p,
            Outcome::Commit {
                response_ms,
                conflicts: 0,
            },
        );
    }

    #[test]
    fn gate_starts_at_controller_bound() {
        let cl = quick_loop();
        assert_eq!(cl.gate().limit(), 4);
    }

    #[test]
    fn admit_complete_tick_roundtrip() {
        let cl = quick_loop();
        let mut interval = AdaptiveInterval::new(100, 10.0, 10_000.0, 100.0);
        for _ in 0..10 {
            commit(&cl, 5.0);
        }
        let d = cl.tick();
        let next = interval.observe(&d.window.measurement);
        assert_eq!(d.window.measurement.departures, 10);
        assert!(d.bound >= 1);
        assert!(next >= 10.0);
        assert_eq!(cl.gate().limit(), d.bound);
    }

    #[test]
    fn failures_are_counted() {
        let cl = quick_loop();
        let p = cl.admit().expect("Queue policy never sheds");
        cl.complete(p, Outcome::Abort { conflicts: 2 });
        let m = cl.tick().window.measurement;
        assert_eq!(m.aborts, 1);
        assert!(m.conflicts_per_txn >= 2.0);
    }

    #[test]
    fn bound_explores_and_stays_in_range() {
        let cl = quick_loop();
        let mut bounds = Vec::new();
        for round in 0..6u64 {
            for _ in 0..(10 + round * 10) {
                commit(&cl, 1.0);
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
            bounds.push(cl.tick().bound);
        }
        // The first update has no history, so the controller must probe
        // upward at least once; every bound stays within the static range.
        assert!(
            bounds.iter().max().unwrap() > &4,
            "controller never explored: {bounds:?}"
        );
        assert!(bounds.iter().all(|&b| (1..=64).contains(&b)));
    }

    #[test]
    fn with_controller_exposes_state() {
        let cl = quick_loop();
        let name = cl.with_law(|l| l.name());
        assert_eq!(name, "incremental-steps");
    }
}
