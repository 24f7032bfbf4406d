//! The paper artifacts that are not simulator runs: the Parabola
//! Approximation's fit (Fig. 4), the estimator's memory shapes (Fig. 6),
//! the PA pathologies on synthetic surfaces (Figs. 7/8), the §5.1 IS
//! failure study and the §5 interval-sizing check. Every simulator
//! figure is a scenario spec under `scenarios/` (see the README's
//! figure index).

mod ablation;
mod dynamic;
mod stationary;

pub use ablation::{abl_interval, abl_is_failure};
pub use dynamic::{fig07, fig08};
pub use stationary::{fig04, fig06};

use alc_core::controller::{IsParams, PaParams};
use alc_tpsim::config::{ControlConfig, SystemConfig};

use crate::report::Report;
use crate::Scale;

/// A figure runner: takes the scale and an optional directory for
/// trajectory CSVs, returns the printable/storable report.
pub type Runner = fn(Scale, Option<&std::path::Path>) -> Report;

/// The experiment catalog: `(id, title, runner)` for every experiment
/// the `repro` binary can regenerate. Shared between the CLI and the
/// golden determinism tests so the two can never drift apart.
pub fn catalog() -> Vec<(&'static str, &'static str, Runner)> {
    vec![
        ("fig04", "PA parabola fit vs true curve", |s, _| fig04(s)),
        ("fig06", "estimator memory shapes", |s, _| fig06(s)),
        ("fig07", "flat-hump pathology + fallbacks", fig07),
        ("fig08", "abrupt shape change + covariance reset", fig08),
        ("abl-is-failure", "IS growing-height failure (§5.1)", |s, _| {
            abl_is_failure(s)
        }),
        ("abl-interval", "§5 interval sizing + CI coverage", |s, _| {
            abl_interval(s)
        }),
    ]
}

/// The paper-scale physical configuration: `SystemConfig::default()`
/// (its calibration is documented on `alc_tpsim::config`) with the given
/// terminal count and seed.
pub fn paper_system(terminals: u32, seed: u64) -> SystemConfig {
    SystemConfig {
        terminals,
        seed,
        ..SystemConfig::default()
    }
}

/// A CI-scale configuration: same shape, ~10× smaller and faster.
pub fn quick_system(terminals: u32, seed: u64) -> SystemConfig {
    SystemConfig {
        terminals,
        cpus: 4,
        db_size: 300,
        think: alc_des::dist::Dist::exponential(300.0),
        disk_access: alc_des::dist::Dist::constant(3.0),
        disk_init_commit: alc_des::dist::Dist::constant(40.0),
        seed,
        ..SystemConfig::default()
    }
}

/// System for the given scale.
pub fn system(scale: Scale, terminals_full: u32, seed: u64) -> SystemConfig {
    match scale {
        Scale::Full => paper_system(terminals_full, seed),
        Scale::Quick => quick_system(terminals_full.min(40), seed),
    }
}

/// Measurement/control configuration for the given scale.
pub fn control(scale: Scale) -> ControlConfig {
    ControlConfig {
        sample_interval_ms: scale.pick_ms(2000.0, 500.0),
        warmup_ms: scale.pick_ms(20_000.0, 2_000.0),
        ..ControlConfig::default()
    }
}

/// The paper-scale bound range.
pub fn max_bound(scale: Scale) -> u32 {
    scale.pick(800, 60)
}

/// Baseline IS tuning used across experiments.
pub fn is_params(scale: Scale) -> IsParams {
    IsParams {
        initial_bound: scale.pick(50, 5),
        min_bound: 1,
        max_bound: max_bound(scale),
        beta: 1.0,
        gamma: 4.0,
        delta: 16.0,
        min_step: 2.0,
        max_step: 48.0,
        smoothing: 1.0,
    }
}

/// Baseline PA tuning used across experiments.
pub fn pa_params(scale: Scale) -> PaParams {
    PaParams {
        initial_bound: scale.pick(50, 5),
        min_bound: 1,
        max_bound: max_bound(scale),
        alpha: 0.95,
        dither_amplitude: scale.pick_ms(8.0, 2.0),
        max_step: 48.0,
        warmup_samples: 8,
        warmup_step: scale.pick_ms(8.0, 2.0),
        ..PaParams::default()
    }
}
