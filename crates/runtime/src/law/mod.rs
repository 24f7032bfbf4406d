//! Control laws: pure decision logic mapping window telemetry to MPL
//! bounds.
//!
//! Everything in this directory is deterministic, clock-free, I/O-free
//! policy code — the same discipline `alc-core`'s `controller/` obeys,
//! enforced by the repo's suppression-free `purity` lint scope. The
//! real-time machinery (locks, clocks, threads) lives in the crate root
//! and calls in here with explicit event-time arguments.
//!
//! Two families implement [`ControlLaw`]:
//!
//! * [`PaperLaw`] — adapts any `alc_core` [`LoadController`] (Incremental
//!   Steps, Parabola Approximation, the hybrids, self-tuning loops,
//!   Tay/Iyer rules) unchanged. The decision sequence is a function of
//!   the [`Measurement`] alone, which is what makes simulator replay
//!   conformance exact. The retry-budget token bucket is one of these
//!   controllers (`alc_core::controller::RetryBudget`).
//! * [`AimdLaw`] — additive-increase / multiplicative-decrease on an
//!   overload signal (abort ratio or tail latency), the classic
//!   congestion-avoidance shape used by self-* overload controllers.
//!
//! [`LoadController`]: alc_core::controller::LoadController
//! [`Measurement`]: alc_core::measure::Measurement

mod aimd;
mod paper;

pub use aimd::{AimdLaw, AimdParams};
pub use paper::PaperLaw;

use alc_core::measure::Measurement;

/// One harvested telemetry window, as seen by a control law.
///
/// The embedded [`Measurement`] is produced by the same
/// `alc_core::sampler::IntervalSampler` the simulator uses; the extra
/// fields (latency quantiles, shed count, queue depth) are runtime-only
/// observations that never perturb the measurement, so paper controllers
/// driven through [`PaperLaw`] see byte-identical inputs in simulation
/// and in the runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// The interval measurement (throughput, conflict ratio, restart
    /// rate, observed MPL, mean response time).
    pub measurement: Measurement,
    /// Median response time over the window, ms (0 when idle).
    pub p50_ms: f64,
    /// 95th-percentile response time over the window, ms (0 when idle).
    pub p95_ms: f64,
    /// 99th-percentile response time over the window, ms (0 when idle).
    pub p99_ms: f64,
    /// Admissions shed (rejected without queueing) during the window.
    pub shed: u64,
    /// Depth of the admission queue at harvest time.
    pub queue_depth: u32,
}

impl WindowSnapshot {
    /// A snapshot carrying only a measurement (quantiles and gate state
    /// zeroed) — what replay drivers construct from logged events.
    pub fn from_measurement(measurement: Measurement) -> Self {
        WindowSnapshot {
            measurement,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            shed: 0,
            queue_depth: 0,
        }
    }
}

/// A decision rule over telemetry windows: the runtime's generalization
/// of `alc_core`'s [`LoadController`], widened to see the full
/// [`WindowSnapshot`].
///
/// Implementations must be pure state machines: the bound returned by
/// [`ControlLaw::decide`] may depend only on the law's parameters, its
/// accumulated state, and the snapshots it has been shown.
///
/// [`LoadController`]: alc_core::controller::LoadController
pub trait ControlLaw: Send {
    /// Short identifier for reports and logs.
    fn name(&self) -> &'static str;

    /// Absorbs one window and returns the MPL bound to enforce next.
    fn decide(&mut self, window: &WindowSnapshot) -> u32;

    /// The bound currently in force (last decision, or the initial
    /// bound before any).
    fn current_bound(&self) -> u32;

    /// Returns to the initial state.
    fn reset(&mut self);
}

/// The retry-budget token bucket as the gate runs it: an
/// `alc_core::controller::RetryBudget` behind [`PaperLaw`], fed
/// [`WindowSnapshot`]s through [`ControlLaw`].
#[cfg(test)]
mod retry {
    mod tests {
        use std::sync::Arc;

        use alc_core::controller::{LoadController, RetryBudget, RetryBudgetParams};
        use alc_core::measure::Measurement;
        use parking_lot::Mutex;

        use crate::law::{ControlLaw, PaperLaw, WindowSnapshot};

        /// Lends the law its bucket while the test keeps a handle on the
        /// banked credit.
        struct Shared(Arc<Mutex<RetryBudget>>);

        impl LoadController for Shared {
            fn name(&self) -> &'static str {
                self.0.lock().name()
            }
            fn update(&mut self, m: &Measurement) -> u32 {
                self.0.lock().update(m)
            }
            fn current_bound(&self) -> u32 {
                self.0.lock().current_bound()
            }
            fn reset(&mut self) {
                self.0.lock().reset();
            }
        }

        fn window(departures: u64, aborts: u64) -> WindowSnapshot {
            WindowSnapshot::from_measurement(Measurement {
                departures,
                aborts,
                ..Measurement::basic(0.0, 1000.0, 10.0, 100.0)
            })
        }

        fn law(params: RetryBudgetParams) -> (PaperLaw, Arc<Mutex<RetryBudget>>) {
            let bucket = Arc::new(Mutex::new(RetryBudget::new(params)));
            let law = PaperLaw::new(Box::new(Shared(Arc::clone(&bucket))));
            (law, bucket)
        }

        #[test]
        fn clean_windows_grow_the_bound_and_bank_credit() {
            let (mut l, bucket) = law(RetryBudgetParams {
                initial_bound: 10,
                budget: 0.1,
                burst: 5.0,
                ..RetryBudgetParams::default()
            });
            assert_eq!(l.decide(&window(100, 0)), 11); // earns 10, capped at 5
            assert!((bucket.lock().credit() - 5.0).abs() < 1e-12);
            assert_eq!(l.decide(&window(100, 2)), 12); // 2 ≤ 0.5 × 10
        }

        #[test]
        fn burst_is_forgiven_from_banked_credit() {
            let (mut l, bucket) = law(RetryBudgetParams {
                initial_bound: 10,
                budget: 0.1,
                burst: 20.0,
                ..RetryBudgetParams::default()
            });
            for _ in 0..5 {
                l.decide(&window(100, 0)); // bank 10 per window, cap 20
            }
            // One bursty window: 25 aborts on 100 departures spends 25
            // against 20 banked + 10 earned — inside budget, bound holds.
            let before = l.current_bound();
            assert_eq!(l.decide(&window(100, 25)), before);
            assert!(bucket.lock().credit() < 20.0);
        }

        #[test]
        fn sustained_storm_drains_the_bucket_and_cuts() {
            let (mut l, bucket) = law(RetryBudgetParams {
                initial_bound: 40,
                budget: 0.1,
                burst: 10.0,
                decrease: 0.5,
                ..RetryBudgetParams::default()
            });
            // 30 aborts per 100 departures spends 30 against ≤ 20 available.
            assert_eq!(l.decide(&window(100, 30)), 20);
            assert_eq!(bucket.lock().credit(), 0.0);
            assert_eq!(l.decide(&window(100, 30)), 10);
        }

        #[test]
        fn starved_windows_hold_and_reset_restores() {
            let (mut l, bucket) = law(RetryBudgetParams {
                initial_bound: 7,
                ..RetryBudgetParams::default()
            });
            assert_eq!(l.decide(&window(0, 0)), 7);
            l.decide(&window(100, 0));
            l.reset();
            assert_eq!(l.current_bound(), 7);
            assert_eq!(bucket.lock().credit(), 0.0);
        }
    }
}
