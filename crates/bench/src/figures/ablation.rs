//! Ablations without the simulator: the synthetic-surface IS failure
//! study (§5.1) and the Monte-Carlo interval-sizing check (§5). Every
//! ablation that runs the engine is a scenario spec under `scenarios/`.

use alc_analytic::surface::{RidgeSurface, Schedule, Surface};
use alc_core::controller::{IncrementalSteps, IsParams, LoadController as _};
use alc_core::measure::Measurement;

use crate::report::Report;
use crate::table::num;
use crate::Scale;

use super::is_params;

/// The §5.1 IS failure mode: a growing optimum height in place lures IS
/// away; static bounds rescue it.
pub fn abl_is_failure(scale: Scale) -> Report {
    let steps = scale.pick(500, 100) as usize;
    let surface = RidgeSurface {
        position: Schedule::Constant(100.0),
        height: Schedule::Ramp {
            from: 10.0,
            to: 2000.0,
            t_start: 0.0,
            t_end: steps as f64 * 2000.0,
        },
        steepness: 0.15, // nearly flat flanks: every step "improves"
    };
    let mut r = Report::new(
        "abl-is-failure",
        "IS failure under growing optimum height (§5.1) and the static-bound rescue",
        &["max_bound", "final_bound", "tail_mean_bound", "optimum", "worst_excursion"],
    );
    for max_b in [2_000u32, 400] {
        let mut is = IncrementalSteps::new(IsParams {
            initial_bound: 100,
            max_bound: max_b,
            beta: 20.0,
            ..is_params(Scale::Full)
        });
        let mut bound = is.current_bound();
        let mut series = Vec::with_capacity(steps);
        for i in 0..steps {
            let t = i as f64 * 2000.0;
            let n = f64::from(bound);
            let perf = surface.performance(n, t);
            bound = is.update(&Measurement::basic(t, 2000.0, perf, n));
            series.push(f64::from(bound));
        }
        let tail = &series[series.len() * 3 / 4..];
        let tail_mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let worst = series.iter().fold(0.0f64, |a, &b| a.max((b - 100.0).abs()));
        r.push_row(vec![
            max_b.to_string(),
            num(series[series.len() - 1]),
            num(tail_mean),
            "100".to_string(),
            num(worst),
        ]);
    }
    r.note("with a loose bound IS 'thinks to be on the way to the top, but actually goes astray' (§5.1) — the rising height makes every step look like an improvement; the tight static bound caps the excursion, exactly the countermeasure the paper mandates");
    r
}

/// §5 measurement-interval sizing validated by Monte Carlo: size the
/// interval from the measured departure process, then check the CI
/// actually covers the true throughput at the promised rate.
pub fn abl_interval(scale: Scale) -> Report {
    use alc_core::sampler::{CiInterval, IntervalPolicy};
    use alc_des::dist::{Dist, Erlang, HyperExp, Sample as _};
    use alc_des::interval::required_departures;
    use alc_des::rng::RngStream;
    use alc_des::stats::ConfidenceLevel;

    let events = scale.pick(400_000, 40_000) as usize;
    let accuracy = 0.1;
    // (name, interdeparture distribution with mean 5 ms, analytic c²)
    let processes: [(&str, Dist, f64); 3] = [
        (
            "erlang-4 (smooth)",
            Dist::Erlang(Erlang {
                stages: 4,
                mean: 5.0,
            }),
            0.25,
        ),
        ("poisson", Dist::exponential(5.0), 1.0),
        (
            "hyperexp (bursty)",
            Dist::HyperExp(HyperExp {
                p: 0.9,
                mean_a: 2.0,
                mean_b: 32.0,
            }),
            7.48,
        ),
    ];

    let mut r = Report::new(
        "abl-interval",
        "§5 interval sizing: required departures per process vs achieved CI coverage",
        &[
            "departure_process",
            "scv_true",
            "scv_measured",
            "required_departures",
            "final_interval_ms",
            "coverage_pct",
        ],
    );
    for (name, dist, scv_true) in processes {
        // alc-lint: allow(seed-literal, reason="fixed figure-fixture seed, xored per process for distinct streams")
        let mut rng = RngStream::from_seed(0xAB9 ^ scv_true.to_bits());
        let mut ci = CiInterval::new(accuracy, ConfidenceLevel::P95, 50.0, 1e7, 1000.0);
        let true_rate = 0.2; // mean 5 ms
        let mut t = 0.0f64;
        let mut interval_end = IntervalPolicy::current_ms(&ci);
        let mut interval_start = 0.0f64;
        let mut count = 0u64;
        let mut estimates: Vec<f64> = Vec::new();
        for _ in 0..events {
            t += dist.sample(&mut rng);
            while t >= interval_end {
                let len = interval_end - interval_start;
                let m = Measurement {
                    departures: count,
                    ..Measurement::basic(interval_end, len, 0.0, 0.0)
                };
                estimates.push(count as f64 / len);
                let next = IntervalPolicy::observe(&mut ci, &m);
                interval_start = interval_end;
                interval_end += next;
                count = 0;
            }
            count += 1;
        }
        // Coverage over the second half (after the interval size settled).
        let tail = &estimates[estimates.len() / 2..];
        let covered = tail
            .iter()
            .filter(|&&x| (x - true_rate).abs() <= accuracy * true_rate)
            .count();
        let coverage = 100.0 * covered as f64 / tail.len().max(1) as f64;
        r.push_row(vec![
            name.to_string(),
            num(scv_true),
            num(ci.estimator().scv()),
            num(required_departures(scv_true, accuracy, ConfidenceLevel::P95)),
            num(IntervalPolicy::current_ms(&ci)),
            num(coverage),
        ]);
    }
    r.note("the required interval spans a ~30× range across processes with the *same* mean rate — the second moments, not the rate, set the §5 interval length ('this interval length clearly depends on the parameters of the departure process, especially its second moments')");
    r.note("achieved coverage lands within a few points of the promised 95% for the smooth and Poisson processes; the bursty process under-covers (the renewal CLT is only asymptotic and the sizing itself is estimated online) — the formula is the right first-order guide, not an exact guarantee");
    r
}
