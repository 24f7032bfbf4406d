//! Dynamic experiments on synthetic surfaces: the flat-hump (Fig. 7)
//! and abrupt-shape-change (Fig. 8) pathologies of the Parabola
//! Approximation, driven without simulator noise.

use std::path::Path;

use alc_analytic::surface::{FlatHumpSurface, RidgeSurface, Schedule, Surface};
use alc_core::controller::{FallbackPolicy, LoadController, ParabolaApproximation};
use alc_core::measure::Measurement;
use alc_des::series::{write_aligned_csv, TimeSeries};
use rayon::prelude::*;

use crate::plot;
use crate::report::Report;
use crate::table::num;
use crate::Scale;

use super::pa_params;

/// Drives a controller against a synthetic surface (no simulator noise),
/// returning (bound series, optimum series).
fn drive_surface(
    ctrl: &mut dyn LoadController,
    surface: &dyn Surface,
    steps: usize,
    interval_ms: f64,
) -> (TimeSeries, TimeSeries) {
    let mut bound_series = TimeSeries::new("bound");
    let mut opt_series = TimeSeries::new("optimum");
    let mut bound = ctrl.current_bound();
    for i in 0..steps {
        let t = i as f64 * interval_ms;
        let n = f64::from(bound);
        let perf = surface.performance(n, t);
        bound = ctrl.update(&Measurement::basic(t + interval_ms, interval_ms, perf, n));
        bound_series.push(alc_des::SimTime::new(t), f64::from(bound));
        opt_series.push(alc_des::SimTime::new(t), surface.optimum(t));
    }
    (bound_series, opt_series)
}

/// Figure 7: the flat-hump pathology — fits open upward; the fallback
/// policy decides whether the controller survives. Compares the §5.2
/// countermeasures.
pub fn fig07(scale: Scale, out_dir: Option<&Path>) -> Report {
    let surface = FlatHumpSurface {
        center: Schedule::Constant(200.0),
        height: Schedule::Constant(120.0),
        width: 120.0,
    };
    let steps = scale.pick(400, 80) as usize;
    let policies: Vec<(&str, FallbackPolicy)> = vec![
        ("hold-last", FallbackPolicy::HoldLast),
        ("gradient-probe", FallbackPolicy::GradientProbe { step: 8.0 }),
        ("clamp-to-safe", FallbackPolicy::ClampToSafe { bound: 150 }),
    ];

    let mut r = Report::new(
        "fig07",
        "Flat-hump pathology (upward-opening parabola) and §5.2 fallback policies",
        &[
            "fallback",
            "convex_fit_%",
            "cov_resets",
            "tail_mean_bound",
            "tail_perf_%_of_peak",
        ],
    );
    // The three fallback-policy drives are independent and noise-free —
    // run them concurrently, then do file I/O and row assembly in order.
    let results: Vec<_> = policies
        .par_iter()
        .map(|&(name, policy)| {
            let mut pa = ParabolaApproximation::new(alc_core::controller::PaParams {
                initial_bound: 40,
                max_bound: 500,
                fallback: policy,
                ..pa_params(Scale::Full)
            });
            let (bounds, _) = drive_surface(&mut pa, &surface, steps, 2000.0);
            (name, bounds, pa.diagnostics())
        })
        .collect();
    for (name, bounds, d) in results {
        if name == "gradient-probe" {
            if let Some(dir) = out_dir {
                std::fs::create_dir_all(dir).expect("results dir");
                let f = std::fs::File::create(dir.join("fig07_trajectory.csv"))
                    .expect("fig07 csv");
                bounds.write_csv(std::io::BufWriter::new(f)).expect("csv");
            }
        }
        let total = d.convex_fits + d.vertex_updates;
        let tail = bounds.tail_mean(0.25);
        let perf_pct = 100.0 * surface.performance(tail, 0.0) / 120.0;
        r.push_row(vec![
            name.to_string(),
            num(100.0 * d.convex_fits as f64 / total.max(1) as f64),
            d.covariance_resets.to_string(),
            num(tail),
            num(perf_pct),
        ]);
    }
    r.note("a broad flat hump yields upward-opening fits essentially permanently (paper Fig. 7); a naive vertex-chaser would fling the bound toward ±∞");
    r.note("gradient-probe and clamp-to-safe finish on the plateau top (≈100% of peak); hold-last merely freezes wherever the pathology began (≈64% here) — why GradientProbe is the default fallback");
    r
}

/// Figure 8: abrupt shape change — the bound suddenly sits deep in the
/// (convex) thrashing region; covariance reset + probing must recover.
pub fn fig08(scale: Scale, out_dir: Option<&Path>) -> Report {
    let steps = scale.pick(600, 120) as usize;
    let interval = 2000.0;
    let change_at = steps as f64 / 2.0 * interval;
    let surface = RidgeSurface {
        position: Schedule::Jump {
            at: change_at,
            before: 400.0,
            after: 80.0,
        },
        height: Schedule::Jump {
            at: change_at,
            before: 130.0,
            after: 60.0,
        },
        steepness: 3.0,
    };

    let mut r = Report::new(
        "fig08",
        "Abrupt shape change (old bound deep in the convex thrashing region)",
        &[
            "reset_after_convex",
            "recovery_intervals",
            "post_tail_bound",
            "new_optimum",
            "cov_resets",
        ],
    );
    for reset_after in [0u32, 3, 6] {
        let mut pa = ParabolaApproximation::new(alc_core::controller::PaParams {
            initial_bound: 50,
            max_bound: 600,
            reset_after_convex: reset_after,
            alpha: 0.9,
            ..pa_params(Scale::Full)
        });
        let (bounds, opts) = drive_surface(&mut pa, &surface, steps, interval);
        if reset_after == 6 {
            if let Some(dir) = out_dir {
                std::fs::create_dir_all(dir).expect("results dir");
                let f = std::fs::File::create(dir.join("fig08_trajectory.csv"))
                    .expect("fig08 csv");
                write_aligned_csv(
                    std::io::BufWriter::new(f),
                    &[&bounds, &opts],
                )
                .expect("csv");
            }
            r.chart(plot::chart(
                &[("bound n*(t)", &bounds), ("optimum", &opts)],
                96,
                12,
            ));
        }
        // Recovery: first post-change interval from which the bound stays
        // within 25% of the new optimum for 10 consecutive samples.
        let pts = bounds.points();
        let change_idx = steps / 2;
        let mut recovery = None;
        let mut streak = 0;
        for (i, &(_, b)) in pts.iter().enumerate().skip(change_idx) {
            if (b - 80.0).abs() <= 20.0 {
                streak += 1;
                if streak >= 10 {
                    recovery = Some(i - 9 - change_idx);
                    break;
                }
            } else {
                streak = 0;
            }
        }
        let d = pa.diagnostics();
        r.push_row(vec![
            if reset_after == 0 {
                "off".to_string()
            } else {
                reset_after.to_string()
            },
            recovery.map_or("never".to_string(), |x| x.to_string()),
            num(bounds.tail_mean(0.2)),
            "80".to_string(),
            d.covariance_resets.to_string(),
        ]);
    }
    r.note("with covariance reset the estimator discards the obsolete shape and re-locks onto the new optimum (paper Fig. 8 / §5.2); without it, stale history keeps the fit convex far longer");
    r
}
