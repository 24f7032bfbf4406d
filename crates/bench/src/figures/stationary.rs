//! Stationary experiments without the simulator: the Parabola
//! Approximation's fit (Fig. 4) and the estimator's memory shapes
//! (Fig. 6).

use alc_core::controller::{LoadController, ParabolaApproximation};
use alc_core::estimator::rls::{memory_area, memory_weight};
use alc_core::measure::Measurement;
use alc_tpsim::workload::WorkloadConfig;

use crate::report::Report;
use crate::table::num;
use crate::Scale;

use super::{max_bound, pa_params, system};

/// The MPL grid Figure 4 compares the fit on (the `fig01` spec's bound
/// grid).
fn bound_grid(scale: Scale) -> Vec<u32> {
    match scale {
        Scale::Full => vec![
            10, 25, 50, 75, 100, 125, 150, 200, 250, 300, 400, 500, 600, 700, 800,
        ],
        Scale::Quick => vec![2, 5, 10, 20, 40],
    }
}

/// Figure 4: the Parabola Approximation's fit against the true overload
/// function, demonstrated on the analytic OCC curve with measurement
/// noise.
pub fn fig04(scale: Scale) -> Report {
    let sys = system(scale, 800, 0xF1604);
    let workload = WorkloadConfig::default();
    let curve = workload.occ_model_at(0.0, &sys).curve(max_bound(scale));
    let true_opt = curve.optimal_mpl();

    let mut pa = ParabolaApproximation::new(pa_params(scale));
    let mut noise_state = 0x9E3779B97F4A7C15u64;
    let mut noise = move || {
        noise_state = noise_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((noise_state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    };
    let steps = scale.pick(300, 60);
    let mut bound = pa.current_bound();
    for i in 0..steps {
        let n = f64::from(bound);
        let perf = curve.throughput(n) * 1000.0 * (1.0 + 0.05 * noise());
        bound = pa.update(&Measurement::basic(f64::from(i) * 2000.0, 2000.0, perf, n));
    }

    let fit = pa.fitted_parabola();
    let mut r = Report::new(
        "fig04",
        "Principle of the Parabola Approximation: fitted P(n)=a0+a1·n+a2·n² vs the true curve",
        &["n", "true_T_per_s", "fitted_T_per_s"],
    );
    let grid = bound_grid(scale);
    for &n in &grid {
        r.push_row(vec![
            n.to_string(),
            num(curve.throughput(f64::from(n)) * 1000.0),
            num(fit.eval(f64::from(n))),
        ]);
    }
    r.note(format!(
        "fitted coefficients: a0={}, a1={}, a2={} (a2 < 0: opens downward)",
        num(fit.a0),
        num(fit.a1),
        num(fit.a2),
    ));
    let vertex = fit.vertex().unwrap_or(f64::NAN);
    r.note(format!(
        "vertex -a1/(2a2) = {} vs true optimum {} (controller settled at {})",
        num(vertex),
        true_opt,
        num(pa.base_bound())
    ));
    r.note(format!(
        "fit is local around the operating point: trustworthy near n*={}, extrapolation degrades far away (why §4.2 re-fits every interval)",
        num(pa.base_bound())
    ));
    r
}

/// Figure 6: alternative shapes of the estimator's memory — one long
/// interval used once (α = 0) versus five short intervals exponentially
/// weighted (α = 0.8). Equal information, different responsiveness.
pub fn fig06(_scale: Scale) -> Report {
    let mut r = Report::new(
        "fig06",
        "Estimator memory shapes: long Δt with α=0 vs short Δt with α=0.8",
        &["age_in_short_intervals", "weight_alpha_0.8", "weight_rect_window_5"],
    );
    for age in 0..16u32 {
        let w_fading = memory_weight(0.8, age);
        let w_rect = if age < 5 { 1.0 } else { 0.0 };
        r.push_row(vec![age.to_string(), num(w_fading), num(w_rect)]);
    }
    r.note(format!(
        "area under α=0.8 profile = {} ≈ rectangle window of 5 intervals: same amount of information",
        num(memory_area(0.8, 1000))
    ));
    r.note("the paper's conclusion (§5.2): prefer small Δt with large α — newest data dominates, yet history still stabilizes the fit");
    r
}
