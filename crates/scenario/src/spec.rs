//! The typed scenario spec and its strict JSON (de)serialization.
//!
//! A spec is one experiment: a workload trajectory, a system/control
//! configuration, a controller, and optionally a list of *variants* —
//! named override sets run against the same base (ablation axes). Every
//! unknown key is an error: a typo'd field must never silently keep its
//! default.
//!
//! ```json
//! {
//!   "name": "fig13",
//!   "description": "IS under an abrupt jump of the optimum",
//!   "seed": 987654,
//!   "horizon_ms": 2000000.0,
//!   "cc": "certification",
//!   "system": {"terminals": 500},
//!   "control": {"sample_interval_ms": 2000.0, "warmup_ms": 0.0},
//!   "workload": {"k": {"step": {"at": 1000000.0, "before": 8, "after": 16}}},
//!   "controller": {"is": {"initial_bound": 50, "max_bound": 800}},
//!   "trajectories": true
//! }
//! ```

use alc_core::controller::{
    FixedBound, Hybrid as HybridCtrl, HybridParams, IncrementalSteps, IsParams, IyerRule,
    IyerRuleParams, LoadController, OuterParams, PaOuterParams, PaParams,
    ParabolaApproximation, RetryBudget, RetryBudgetParams, SelfTuningIs as SelfTuningIsCtrl,
    SelfTuningPa as SelfTuningPaCtrl, TayRule, Unlimited,
};
use alc_core::meta::{ConflictThreshold, GuardParams, MetaPolicy, RestartRate, ShadowScore};
use alc_tpsim::client::{ClientConfig, ClientStats, LatencyFeedback, RetryPolicy};
use alc_tpsim::config::{CcKind, SystemConfig};
use alc_tpsim::engine::{RunStats, Trajectories};
use alc_tpsim::workload::WorkloadConfig;
use serde::Value;

use crate::profile::Profile;
use crate::value_util::{normalize_arrival, normalize_dist, override_pairs};
use crate::SpecError;

/// One scenario: the declarative form the `scenario` binary runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario id — also the stem of every emitted CSV.
    pub name: String,
    /// One-line description (report title).
    pub description: String,
    /// Master seed of replication 0; later replications derive from it.
    pub seed: u64,
    /// Independent replications per variant (different derived seeds).
    pub replications: u32,
    /// Simulated horizon, ms.
    pub horizon_ms: f64,
    /// Concurrency-control protocol in force at t = 0.
    pub cc: CcKind,
    /// Per-phase CC switches `(t_ms, protocol)` after t = 0 — at each
    /// boundary the engine drains in-flight transactions and swaps the
    /// protocol (the spec's `cc: {"phases": [[0, …], [t, …]]}` form).
    pub cc_phases: Vec<(f64, CcKind)>,
    /// Closed-loop protocol selection (the spec's `cc: {"adaptive": …}`
    /// form): a meta-policy picks the protocol online from the measured
    /// conflict state. Mutually exclusive with `cc_phases` by
    /// construction; `cc` holds `candidates[0]`.
    pub cc_adaptive: Option<AdaptiveCcSpec>,
    /// Scheduled station faults (CPU kill/restart windows).
    pub faults: Vec<FaultSpec>,
    /// Closed-loop client population replacing the patient terminals:
    /// timeouts, retry policies, abandonment, and latency→load feedback
    /// (the overload/metastability vocabulary). `None` keeps the
    /// paper's patient closed model byte-identical.
    pub clients: Option<ClientConfig>,
    /// Shallow overrides on [`SystemConfig`] (dist shorthands allowed;
    /// `seed` is set by the top-level field, not here).
    pub system: Vec<(String, Value)>,
    /// Shallow overrides on [`alc_tpsim::config::ControlConfig`].
    pub control: Vec<(String, Value)>,
    /// The time-varying workload.
    pub workload: WorkloadSpec,
    /// The load controller (or a static/baseline policy).
    pub controller: ControllerSpec,
    /// Record the analytic optimum trajectory `n_opt(t)`.
    pub record_optimum: bool,
    /// Write per-run trajectory CSVs.
    pub trajectories: bool,
    /// Header of the label column in the report table.
    pub label_header: String,
    /// Columns of the report table (raw stats, derived tracking-error
    /// columns, per-variant input cells, literals).
    pub columns: Vec<ColumnSpec>,
    /// Named override sets producing one run group each (mutually
    /// exclusive with `sweep`).
    pub variants: Vec<VariantSpec>,
    /// Grid axes expanding into one run per cross-product cell —
    /// load–throughput curves and protocol grids (mutually exclusive
    /// with `variants`).
    pub sweep: Option<SweepSpec>,
    /// Literal per-variant table cells, keyed by variant name: the swept
    /// *inputs* of an ablation (e.g. the α of each variant), rendered by
    /// `{"input": …}` columns and `label_from`.
    pub inputs: VariantInputs,
    /// When set, the report's label column shows this input cell instead
    /// of the variant name (names must stay unique; labels need not).
    pub label_from: Option<String>,
    /// Path → value overrides applied under `--quick` (CI scale).
    pub quick: Vec<(String, Value)>,
}

/// Literal per-variant input cells: `(variant name, [(cell, text)])`.
pub type VariantInputs = Vec<(String, Vec<(String, String)>)>;

/// One scheduled station fault: `cpus_down` CPUs die at `at_ms` and come
/// back after the recovery window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Kill time, ms.
    pub at_ms: f64,
    /// How long the outage lasts.
    pub recovery: FaultRecovery,
    /// Servers killed (restored when the recovery window closes).
    pub cpus_down: u32,
}

/// How a fault's outage length is determined: a fixed window (the
/// spec's `duration` field) or a mean-time-to-repair distribution (the
/// `repair` field), sampled once per fault from the run's own
/// `fault_repair` RNG substream — per-replication deterministic, and
/// drawing it never perturbs any other stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultRecovery {
    /// Fixed outage length, ms.
    Fixed(f64),
    /// Repair-time distribution, ms (sampled per fault per replication;
    /// negative samples clamp to an instant repair).
    Repair(alc_des::dist::Dist),
}

/// The spec/CSV name of a protocol — the short aliases the `cc` field
/// accepts, also used by `time_in_protocol` column headers and the
/// switch-event CSV.
pub fn cc_spec_name(cc: CcKind) -> &'static str {
    match cc {
        CcKind::Certification => "certification",
        CcKind::TwoPhaseLocking => "2pl",
        CcKind::TimestampOrdering => "timestamp-ordering",
        CcKind::WoundWait => "wound-wait",
        CcKind::WaitDie => "wait-die",
        CcKind::Multiversion => "mvto",
    }
}

/// The `cc: {"adaptive": …}` section: candidate protocols, the policy
/// choosing among them, and the anti-oscillation guards. The run starts
/// under `candidates[0]`; at every measurement interval the policy sees
/// the interval's conflict state and may drain-and-swap to another
/// candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveCcSpec {
    /// The candidate protocols, in the order the policy indexes them
    /// (for the ladder policies: calmest workload first).
    pub candidates: Vec<CcKind>,
    /// The selection policy.
    pub policy: MetaPolicySpec,
    /// Minimum time between switches, seconds (also from run start).
    pub min_dwell_s: f64,
    /// Post-switch settling window, seconds: observations inside it are
    /// discarded.
    pub cooldown_s: f64,
    /// Relative dead band / challenger margin (see `alc_core::meta`).
    pub hysteresis: f64,
}

/// The policy inside an adaptive `cc` section.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaPolicySpec {
    /// Threshold-with-hysteresis ladder on the EWMA'd conflict ratio.
    ConflictThreshold {
        /// Centre of the conflict-ratio band (conflicts per commit).
        threshold: f64,
        /// EWMA weight on each new observation, in (0, 1].
        ewma_weight: f64,
    },
    /// The same ladder on the EWMA'd abort (restart) ratio.
    RestartRate {
        /// Centre of the abort-ratio band, in (0, 1).
        threshold: f64,
        /// EWMA weight on each new observation, in (0, 1].
        ewma_weight: f64,
    },
    /// O|R|P|E-style per-candidate running throughput scores.
    ShadowScore {
        /// EWMA weight on each interval's throughput, in (0, 1].
        ewma_weight: f64,
    },
}

impl AdaptiveCcSpec {
    /// Instantiates the candidate list and the boxed policy for one run.
    pub fn build(&self) -> (Vec<CcKind>, Box<dyn MetaPolicy>) {
        let guard = GuardParams {
            min_dwell_ms: self.min_dwell_s * 1000.0,
            cooldown_ms: self.cooldown_s * 1000.0,
            hysteresis: self.hysteresis,
        };
        let n = self.candidates.len();
        let policy: Box<dyn MetaPolicy> = match &self.policy {
            MetaPolicySpec::ConflictThreshold {
                threshold,
                ewma_weight,
            } => Box::new(ConflictThreshold::new(n, *threshold, *ewma_weight, guard)),
            MetaPolicySpec::RestartRate {
                threshold,
                ewma_weight,
            } => Box::new(RestartRate::new(n, *threshold, *ewma_weight, guard)),
            MetaPolicySpec::ShadowScore { ewma_weight } => {
                Box::new(ShadowScore::new(n, *ewma_weight, guard))
            }
        };
        (self.candidates.clone(), policy)
    }
}

/// The sweep section: a grid of axes, each a spec path and a value list;
/// the compiler expands the exact cross-product into one run per cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The grid axes; the first axis is the report's row label, the last
    /// axis pivots into columns when `pivot` is set.
    pub axes: Vec<SweepAxis>,
    /// Pivot the last axis into one column per value, showing `stat`.
    pub pivot: Option<PivotSpec>,
}

/// One sweep axis.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// Column header of the axis in the report.
    pub header: String,
    /// Dotted spec path each value is applied to.
    pub path: String,
    /// The grid values (any JSON value the path accepts).
    pub values: Vec<Value>,
    /// Explicit display labels (default: rendered from the values).
    pub labels: Option<Vec<String>>,
}

/// Pivot settings: the last axis becomes columns named
/// `<prefix><label>`, each showing `stat` for that cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PivotSpec {
    /// The stat shown in the pivoted cells.
    pub stat: StatColumn,
    /// Column-name prefix (e.g. `T_`).
    pub prefix: String,
}

impl SweepAxis {
    /// Display label of value `i` (explicit label, else rendered).
    pub fn label(&self, i: usize) -> String {
        if let Some(labels) = &self.labels {
            return labels[i].clone();
        }
        render_axis_value(&self.values[i])
    }
}

/// Renders a sweep-axis value for row labels and cell names: integers
/// verbatim, floats through the shared table format, strings as-is.
fn render_axis_value(v: &Value) -> String {
    match v {
        Value::U64(x) => x.to_string(),
        Value::Num(x) => alc_bench::table::num(*x),
        Value::Str(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        other => format!("{other:?}"),
    }
}

/// One variant: a named set of overrides on the base spec.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSpec {
    /// Variant label (row label, trajectory-file suffix).
    pub name: String,
    /// Path → value overrides applied for this variant.
    pub set: Vec<(String, Value)>,
    /// Additional path → value overrides applied under `--quick`, after
    /// the spec-level quick overrides.
    pub quick: Vec<(String, Value)>,
}

/// The workload section: one [`Profile`] per time-varying parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Items accessed per transaction, `k(t)`.
    pub k: Profile,
    /// Read-only fraction `q(t)`.
    pub query_frac: Profile,
    /// Updater write-access fraction `w(t)`.
    pub write_frac: Profile,
    /// Zipf access skew θ(t) (hot-spot drift).
    pub access_skew: Profile,
    /// Open-mode arrival-rate multiplier `a(t)` (surges, flash crowds).
    pub arrival_rate_factor: Profile,
    /// Closed-mode think-time multiplier `h(t)`.
    pub think_time_factor: Profile,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            k: Profile::Constant(8.0),
            query_frac: Profile::Constant(0.2),
            write_frac: Profile::Constant(0.25),
            access_skew: Profile::Constant(0.0),
            arrival_rate_factor: Profile::Constant(1.0),
            think_time_factor: Profile::Constant(1.0),
        }
    }
}

impl WorkloadSpec {
    /// Lowers every profile into the engine's [`WorkloadConfig`].
    pub fn lower(&self, base_dir: &std::path::Path) -> Result<WorkloadConfig, SpecError> {
        Ok(WorkloadConfig {
            k: self.k.lower(base_dir)?,
            query_frac: self.query_frac.lower(base_dir)?,
            write_frac: self.write_frac.lower(base_dir)?,
            access_skew: self.access_skew.lower(base_dir)?,
            arrival_rate_factor: self.arrival_rate_factor.lower(base_dir)?,
            think_time_factor: self.think_time_factor.lower(base_dir)?,
        })
    }
}

/// The controller section: the §4 feedback controllers, the self-tuning
/// baselines and the static rules of thumb, each with full parameter
/// control (omitted parameters keep their crate defaults).
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerSpec {
    /// No controller: the gate stays at `control.initial_bound`.
    None,
    /// No admission limit at all (`Unlimited` baseline).
    Unlimited,
    /// A fixed static bound.
    Fixed {
        /// The bound.
        bound: u32,
    },
    /// A fixed bound pinned to the *analytic* optimum of the compiled
    /// workload at `at_ms` — the "perfectly informed DBA" baseline.
    FixedAnalyticOptimum {
        /// Workload time the optimum is computed at, ms.
        at_ms: f64,
        /// Scan limit for the optimum search.
        n_max: u32,
    },
    /// Incremental Steps (§4.1).
    Is(IsParams),
    /// Parabola Approximation (§4.2).
    Pa(PaParams),
    /// IS with the §5 outer loop auto-tuning its gain β.
    SelfTuningIs {
        /// Inner IS parameters.
        is: IsParams,
        /// Outer-loop tuning.
        outer: OuterParams,
    },
    /// PA with the §5 outer loop auto-tuning its forgetting factor α.
    SelfTuningPa {
        /// Inner PA parameters.
        pa: PaParams,
        /// Outer-loop tuning.
        outer: PaOuterParams,
    },
    /// The IS-bootstrapped, PA-refined hybrid.
    Hybrid(HybridParams),
    /// Iyer's conflict-rate rule as a feedback baseline.
    Iyer(IyerRuleParams),
    /// Token-bucket retry budgeting (its gate logs replay through the
    /// runtime as `PaperLaw(RetryBudget)`, like every other controller).
    RetryBudget(RetryBudgetParams),
    /// Tay's static `k²n/D < 1.5` rule of thumb.
    Tay {
        /// The (assumed) locks per transaction.
        k: u32,
        /// Static lower bound.
        min_bound: u32,
        /// Static upper bound.
        max_bound: u32,
    },
}

impl ControllerSpec {
    /// Instantiates the controller against the compiled system/workload
    /// (`None` means "run with the static initial bound").
    pub fn build(
        &self,
        sys: &SystemConfig,
        workload: &WorkloadConfig,
    ) -> Option<Box<dyn LoadController>> {
        match self {
            ControllerSpec::None => None,
            ControllerSpec::Unlimited => Some(Box::new(Unlimited)),
            ControllerSpec::Fixed { bound } => Some(Box::new(FixedBound::new(*bound))),
            ControllerSpec::FixedAnalyticOptimum { at_ms, n_max } => Some(Box::new(
                FixedBound::new(workload.analytic_optimum(*at_ms, sys, *n_max)),
            )),
            ControllerSpec::Is(p) => Some(Box::new(IncrementalSteps::new(*p))),
            ControllerSpec::Pa(p) => Some(Box::new(ParabolaApproximation::new(*p))),
            ControllerSpec::SelfTuningIs { is, outer } => {
                Some(Box::new(SelfTuningIsCtrl::new(*is, *outer)))
            }
            ControllerSpec::SelfTuningPa { pa, outer } => {
                Some(Box::new(SelfTuningPaCtrl::new(*pa, *outer)))
            }
            ControllerSpec::Hybrid(p) => Some(Box::new(HybridCtrl::new(*p))),
            ControllerSpec::Iyer(p) => Some(Box::new(IyerRule::new(*p))),
            ControllerSpec::RetryBudget(p) => Some(Box::new(RetryBudget::new(*p))),
            ControllerSpec::Tay {
                k,
                min_bound,
                max_bound,
            } => Some(Box::new(TayRule::new(
                *k,
                sys.db_size,
                *min_bound,
                *max_bound,
            ))),
        }
    }
}

/// A raw-statistics column of the report table. Integer counters format
/// via `to_string`, continuous values via the shared `num` table format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatColumn {
    /// Commits per second.
    ThroughputPerS,
    /// Aborted / finished runs.
    AbortRatio,
    /// Mean response time, ms.
    MeanResponseMs,
    /// Time-averaged observed MPL.
    MeanMpl,
    /// Time-averaged gate bound.
    MeanBound,
    /// Committed transactions.
    Commits,
    /// Aborted runs.
    Aborts,
    /// Displacement victims.
    Displaced,
    /// Open-mode lost arrivals.
    Lost,
    /// Data conflicts per commit.
    ConflictsPerCommit,
    /// Mean CPU utilization.
    CpuUtilization,
}

impl StatColumn {
    /// Every column, for `scenario --help` listings.
    pub const ALL: [StatColumn; 11] = [
        StatColumn::ThroughputPerS,
        StatColumn::AbortRatio,
        StatColumn::MeanResponseMs,
        StatColumn::MeanMpl,
        StatColumn::MeanBound,
        StatColumn::Commits,
        StatColumn::Aborts,
        StatColumn::Displaced,
        StatColumn::Lost,
        StatColumn::ConflictsPerCommit,
        StatColumn::CpuUtilization,
    ];

    /// The column's spec/CSV name.
    pub fn name(&self) -> &'static str {
        match self {
            StatColumn::ThroughputPerS => "throughput_per_s",
            StatColumn::AbortRatio => "abort_ratio",
            StatColumn::MeanResponseMs => "mean_response_ms",
            StatColumn::MeanMpl => "mean_mpl",
            StatColumn::MeanBound => "mean_bound",
            StatColumn::Commits => "commits",
            StatColumn::Aborts => "aborts",
            StatColumn::Displaced => "displaced",
            StatColumn::Lost => "lost",
            StatColumn::ConflictsPerCommit => "conflicts_per_commit",
            StatColumn::CpuUtilization => "cpu_utilization",
        }
    }

    /// Parses a spec/CSV name.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        StatColumn::ALL
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| SpecError::new(format!("unknown stat column `{s}`")))
    }

    /// Formats the column's value from run statistics.
    pub fn format(&self, stats: &RunStats) -> String {
        use alc_bench::table::num;
        match self {
            StatColumn::ThroughputPerS => num(stats.throughput_per_sec),
            StatColumn::AbortRatio => num(stats.abort_ratio),
            StatColumn::MeanResponseMs => num(stats.mean_response_ms),
            StatColumn::MeanMpl => num(stats.mean_mpl),
            StatColumn::MeanBound => num(stats.mean_bound),
            StatColumn::Commits => stats.commits.to_string(),
            StatColumn::Aborts => stats.aborts.to_string(),
            StatColumn::Displaced => stats.displaced.to_string(),
            StatColumn::Lost => stats.lost.to_string(),
            StatColumn::ConflictsPerCommit => num(stats.conflicts_per_commit),
            StatColumn::CpuUtilization => num(stats.cpu_utilization),
        }
    }
}

/// A client-population column of the report table, rendered from the
/// run's [`ClientStats`] (`-` for runs without a `clients` section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientColumn {
    /// Requests issued by the pool.
    Issued,
    /// Total attempts (first attempts + retries + hedges).
    Attempts,
    /// Retry attempts (including hedge duplicates).
    Retries,
    /// Requests abandoned after exhausting patience or budget.
    Abandoned,
    /// Attempt timeouts observed.
    Timeouts,
    /// Retry attempts bounced at the gate by retry shedding.
    ShedRetries,
    /// Committed requests per second — throughput net of wasted retries.
    GoodputPerS,
    /// Attempts per issued request (`1.0` = no retry traffic at all).
    RetryAmplification,
}

impl ClientColumn {
    /// Every column, for `scenario --help` listings.
    pub const ALL: [ClientColumn; 8] = [
        ClientColumn::Issued,
        ClientColumn::Attempts,
        ClientColumn::Retries,
        ClientColumn::Abandoned,
        ClientColumn::Timeouts,
        ClientColumn::ShedRetries,
        ClientColumn::GoodputPerS,
        ClientColumn::RetryAmplification,
    ];

    /// The column's spec/CSV name.
    pub fn name(&self) -> &'static str {
        match self {
            ClientColumn::Issued => "issued",
            ClientColumn::Attempts => "attempts",
            ClientColumn::Retries => "retries",
            ClientColumn::Abandoned => "abandoned",
            ClientColumn::Timeouts => "timeouts",
            ClientColumn::ShedRetries => "shed_retries",
            ClientColumn::GoodputPerS => "goodput_per_s",
            ClientColumn::RetryAmplification => "retry_amplification",
        }
    }

    /// Parses a spec/CSV name.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        ClientColumn::ALL
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| SpecError::new(format!("unknown client column `{s}`")))
    }

    /// Formats the column from the run's client stats (`-` when the run
    /// had no client pool).
    pub fn format(&self, clients: Option<&ClientStats>, duration_ms: f64) -> String {
        use alc_bench::table::num;
        let Some(s) = clients else {
            return "-".to_string();
        };
        match self {
            ClientColumn::Issued => s.issued.to_string(),
            ClientColumn::Attempts => s.attempts.to_string(),
            ClientColumn::Retries => s.retries.to_string(),
            ClientColumn::Abandoned => s.abandoned.to_string(),
            ClientColumn::Timeouts => s.timeouts.to_string(),
            ClientColumn::ShedRetries => s.shed.to_string(),
            ClientColumn::GoodputPerS => num(s.goodput_per_sec(duration_ms)),
            ClientColumn::RetryAmplification => num(s.retry_amplification()),
        }
    }
}

/// One report column: a raw stat, a trajectory-derived quantity, a
/// per-variant input cell, or a literal.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSpec {
    /// A raw-statistics column.
    Stat(StatColumn),
    /// A client-population column (needs a `clients` section).
    Client(ClientColumn),
    /// A column computed from the run's [`Trajectories`].
    Derived(DerivedColumn),
    /// The variant's literal cell from the spec's `inputs` map.
    Input(String),
    /// The same literal in every row (placeholder columns).
    Literal {
        /// Column header.
        header: String,
        /// Cell text.
        value: String,
    },
}

/// A column computed from the recorded trajectories after the run.
#[derive(Debug, Clone, PartialEq)]
pub enum DerivedColumn {
    /// Mean |bound − n_opt| over the last quarter of the samples — the
    /// post-jump tracking error of the ablation tables (requires
    /// `record_optimum`).
    PostJumpTrackingErr,
    /// Settling time: seconds from `after_frac · horizon` until the
    /// bound first enters the ±`band` relative band around the final
    /// optimum; renders `never` when it doesn't (requires
    /// `record_optimum`).
    SettlingTime {
        /// Column header (e.g. `response_s`).
        header: String,
        /// Fraction of the horizon the clock starts at (the jump time).
        after_frac: f64,
        /// Relative band around the final optimum.
        band: f64,
    },
    /// The per-interval conflicts-per-commit value at the sample where
    /// the interval throughput peaked — where on the conflict curve the
    /// run's best operating point sat.
    ConflictRatioAtPeak,
    /// Completed CC-protocol switches in the run (scheduled or
    /// policy-driven), from the switch-event trace.
    SwitchCount,
    /// Seconds the given protocol was in force over `[0, horizon]`,
    /// from the switch-event trace (drains count toward the *outgoing*
    /// protocol — it stays in force until the swap completes).
    TimeInProtocol {
        /// The protocol whose residence time is reported.
        cc: CcKind,
        /// Column header (default `time_in_protocol:<name>`).
        header: Option<String>,
    },
    /// Seconds from the last switch's completion until the interval
    /// throughput first enters the ±`band` relative band around its
    /// settled post-switch level (the mean of the final quarter of the
    /// post-switch samples); `never` when it doesn't, `-` for runs
    /// without a switch.
    PostSwitchSettling {
        /// Column header (e.g. `post_switch_settling_time_s`).
        header: String,
        /// Relative band around the settled level.
        band: f64,
    },
    /// Seconds from `after_ms` (a fault-repair time) until interval
    /// throughput *permanently* re-enters `band × baseline`, where the
    /// baseline is the mean throughput before `after_ms`. A metastable
    /// run — retry traffic holding the system down after repair —
    /// renders `never`.
    TimeToRecover {
        /// Column header (default `time_to_recover_s`).
        header: String,
        /// The recovery clock's start (the repair completion), ms.
        after_ms: f64,
        /// Fraction of the pre-fault baseline that counts as recovered.
        band: f64,
    },
}

impl ColumnSpec {
    /// The column's header text.
    pub fn header(&self) -> String {
        match self {
            ColumnSpec::Stat(c) => c.name().to_string(),
            ColumnSpec::Derived(DerivedColumn::PostJumpTrackingErr) => {
                "post_jump_tracking_err".to_string()
            }
            ColumnSpec::Derived(DerivedColumn::SettlingTime { header, .. }) => header.clone(),
            ColumnSpec::Derived(DerivedColumn::ConflictRatioAtPeak) => {
                "conflict_ratio_at_peak".to_string()
            }
            ColumnSpec::Derived(DerivedColumn::SwitchCount) => "switch_count".to_string(),
            ColumnSpec::Derived(DerivedColumn::TimeInProtocol { cc, header }) => header
                .clone()
                .unwrap_or_else(|| format!("time_in_protocol:{}", cc_spec_name(*cc))),
            ColumnSpec::Derived(DerivedColumn::PostSwitchSettling { header, .. }) => {
                header.clone()
            }
            ColumnSpec::Derived(DerivedColumn::TimeToRecover { header, .. }) => header.clone(),
            ColumnSpec::Client(c) => c.name().to_string(),
            ColumnSpec::Input(name) => name.clone(),
            ColumnSpec::Literal { header, .. } => header.clone(),
        }
    }

    /// Whether the runner must retain trajectories to render the column.
    pub fn needs_trajectories(&self) -> bool {
        matches!(self, ColumnSpec::Derived(_))
    }

    /// Whether the column needs the analytic-optimum trajectory.
    pub fn needs_optimum(&self) -> bool {
        matches!(
            self,
            ColumnSpec::Derived(
                DerivedColumn::PostJumpTrackingErr | DerivedColumn::SettlingTime { .. }
            )
        )
    }
}

impl DerivedColumn {
    /// Formats the column from a run's trajectories (`horizon_ms` anchors
    /// the settling clock and closes the last protocol-residence segment;
    /// `initial_cc` is the protocol in force at t = 0, which the switch
    /// trace alone cannot tell).
    pub fn format(&self, traj: &Trajectories, horizon_ms: f64, initial_cc: CcKind) -> String {
        use alc_bench::table::num;
        match self {
            DerivedColumn::PostJumpTrackingErr => {
                // Same definition as the bespoke ablation harness: mean
                // absolute bound error vs the final optimum over the last
                // quarter of the samples.
                let pts = traj.bound.points();
                let start = pts.len() * 3 / 4;
                let opt = traj.optimum.last_value().unwrap_or(f64::NAN);
                let tail = &pts[start..];
                num(tail.iter().map(|&(_, b)| (b - opt).abs()).sum::<f64>()
                    / tail.len().max(1) as f64)
            }
            DerivedColumn::SettlingTime {
                after_frac, band, ..
            } => {
                let opt_after = traj.optimum.last_value().unwrap_or(f64::NAN);
                let after_ms = after_frac * horizon_ms;
                traj.bound
                    .points()
                    .iter()
                    .filter(|&&(t, _)| t >= after_ms)
                    .find(|&&(_, b)| (b - opt_after).abs() <= band * opt_after)
                    .map(|&(t, _)| (t - after_ms) / 1000.0)
                    .map_or("never".into(), num)
            }
            DerivedColumn::ConflictRatioAtPeak => {
                let tp = traj.throughput.points();
                let mut peak: Option<usize> = None;
                for (i, &(_, x)) in tp.iter().enumerate() {
                    if peak.is_none_or(|p| x > tp[p].1) {
                        peak = Some(i);
                    }
                }
                peak.and_then(|i| traj.conflict_ratio.points().get(i))
                    .map_or("-".into(), |&(_, v)| num(v))
            }
            DerivedColumn::SwitchCount => traj.switches.len().to_string(),
            DerivedColumn::TimeInProtocol { cc, .. } => {
                // Walk the residence segments: a protocol stays in force
                // until the swap that replaces it *completes*.
                let mut total = 0.0;
                let mut seg_start = 0.0;
                let mut current = initial_cc;
                for e in &traj.switches {
                    if current == *cc {
                        total += e.completed_at_ms - seg_start;
                    }
                    seg_start = e.completed_at_ms;
                    current = e.to;
                }
                if current == *cc {
                    total += horizon_ms - seg_start;
                }
                num(total / 1000.0)
            }
            DerivedColumn::PostSwitchSettling { band, .. } => {
                let Some(last) = traj.switches.last() else {
                    return "-".into();
                };
                let t0 = last.completed_at_ms;
                let pts: Vec<(f64, f64)> = traj
                    .throughput
                    .points()
                    .iter()
                    .copied()
                    .filter(|&(t, _)| t >= t0)
                    .collect();
                if pts.is_empty() {
                    return "never".into();
                }
                // The settled level: mean of the final quarter of the
                // post-switch samples.
                let tail = &pts[pts.len() * 3 / 4..];
                let settled =
                    tail.iter().map(|&(_, x)| x).sum::<f64>() / tail.len().max(1) as f64;
                pts.iter()
                    .find(|&&(_, x)| (x - settled).abs() <= band * settled.abs())
                    .map(|&(t, _)| (t - t0) / 1000.0)
                    .map_or("never".into(), num)
            }
            DerivedColumn::TimeToRecover { after_ms, band, .. } => {
                let pts = traj.throughput.points();
                let before: Vec<f64> = pts
                    .iter()
                    .filter(|&&(t, _)| t <= *after_ms)
                    .map(|&(_, x)| x)
                    .collect();
                if before.is_empty() {
                    return "-".into();
                }
                let baseline = before.iter().sum::<f64>() / before.len() as f64;
                let floor = band * baseline;
                // Recovery must be *permanent*: the first post-repair
                // sample from which every later sample stays above the
                // floor. A dip back below (hysteresis) resets the clock,
                // so a metastable run that oscillates renders `never`.
                // The comparison uses a trailing 4-sample mean so a
                // single sparse interval of a healthy closed population
                // does not read as a relapse.
                let mut recovered_at = None;
                let mut window = std::collections::VecDeque::with_capacity(4);
                for &(t, x) in pts.iter().filter(|&&(t, _)| t >= *after_ms) {
                    if window.len() == 4 {
                        window.pop_front();
                    }
                    window.push_back(x);
                    let smoothed = window.iter().sum::<f64>() / window.len() as f64;
                    if smoothed >= floor {
                        recovered_at.get_or_insert(t);
                    } else {
                        recovered_at = None;
                    }
                }
                recovered_at
                    .map(|t| (t - after_ms) / 1000.0)
                    .map_or("never".into(), num)
            }
        }
    }
}

fn column_from_value(v: &Value) -> Result<ColumnSpec, SpecError> {
    if let Value::Str(s) = v {
        return Ok(match s.as_str() {
            "post_jump_tracking_err" => {
                ColumnSpec::Derived(DerivedColumn::PostJumpTrackingErr)
            }
            "conflict_ratio_at_peak" => ColumnSpec::Derived(DerivedColumn::ConflictRatioAtPeak),
            "switch_count" => ColumnSpec::Derived(DerivedColumn::SwitchCount),
            "post_switch_settling_time_s" => {
                ColumnSpec::Derived(DerivedColumn::PostSwitchSettling {
                    header: "post_switch_settling_time_s".to_string(),
                    band: 0.25,
                })
            }
            name => {
                if let Ok(c) = StatColumn::parse(name) {
                    ColumnSpec::Stat(c)
                } else if let Ok(c) = ClientColumn::parse(name) {
                    ColumnSpec::Client(c)
                } else {
                    return Err(SpecError::new(format!("unknown column `{name}`")));
                }
            }
        });
    }
    let Some([(tag, payload)]) = v.as_map() else {
        return Err(SpecError::new(
            "column must be a stat/derived/client name or a single-key object \
             (settling_time_s/time_in_protocol/post_switch_settling_time_s/\
             time_to_recover_s/input/literal)",
        ));
    };
    Ok(match tag.as_str() {
        "settling_time_s" => {
            let mut header = "settling_time_s".to_string();
            let mut after_frac = None;
            let mut band = 0.25;
            for (k, val) in payload.as_map().unwrap_or(&[]) {
                match k.as_str() {
                    "header" => match val {
                        Value::Str(s) => header = s.clone(),
                        _ => {
                            return Err(SpecError::new("`settling_time_s.header` must be a string"))
                        }
                    },
                    "after_frac" => {
                        after_frac = Some(val.as_f64().ok_or_else(|| {
                            SpecError::new("`settling_time_s.after_frac` must be numeric")
                        })?);
                    }
                    "band" => {
                        band = val.as_f64().ok_or_else(|| {
                            SpecError::new("`settling_time_s.band` must be numeric")
                        })?;
                    }
                    other => {
                        return Err(SpecError::new(format!(
                            "unknown `settling_time_s` field `{other}`"
                        )));
                    }
                }
            }
            let after_frac = after_frac
                .ok_or_else(|| SpecError::new("`settling_time_s` needs `after_frac`"))?;
            if !(0.0..1.0).contains(&after_frac) {
                return Err(SpecError::new(
                    "`settling_time_s.after_frac` must lie in [0, 1)",
                ));
            }
            if band <= 0.0 {
                return Err(SpecError::new("`settling_time_s.band` must be positive"));
            }
            ColumnSpec::Derived(DerivedColumn::SettlingTime {
                header,
                after_frac,
                band,
            })
        }
        "time_in_protocol" => {
            let mut cc = None;
            let mut header = None;
            for (k, val) in payload.as_map().unwrap_or(&[]) {
                match k.as_str() {
                    "cc" => cc = Some(cc_from_value(val)?),
                    "header" => match val {
                        Value::Str(s) if !s.is_empty() => header = Some(s.clone()),
                        _ => {
                            return Err(SpecError::new(
                                "`time_in_protocol.header` must be a non-empty string",
                            ));
                        }
                    },
                    other => {
                        return Err(SpecError::new(format!(
                            "unknown `time_in_protocol` field `{other}`"
                        )));
                    }
                }
            }
            ColumnSpec::Derived(DerivedColumn::TimeInProtocol {
                cc: cc.ok_or_else(|| SpecError::new("`time_in_protocol` needs `cc`"))?,
                header,
            })
        }
        "post_switch_settling_time_s" => {
            let mut header = "post_switch_settling_time_s".to_string();
            let mut band = 0.25;
            for (k, val) in payload.as_map().unwrap_or(&[]) {
                match k.as_str() {
                    "header" => match val {
                        Value::Str(s) if !s.is_empty() => header = s.clone(),
                        _ => {
                            return Err(SpecError::new(
                                "`post_switch_settling_time_s.header` must be a non-empty string",
                            ));
                        }
                    },
                    "band" => {
                        band = positive_f64(val, "post_switch_settling_time_s.band")?;
                    }
                    other => {
                        return Err(SpecError::new(format!(
                            "unknown `post_switch_settling_time_s` field `{other}`"
                        )));
                    }
                }
            }
            ColumnSpec::Derived(DerivedColumn::PostSwitchSettling { header, band })
        }
        "time_to_recover_s" => {
            let mut header = "time_to_recover_s".to_string();
            let mut after_ms = None;
            let mut band = 0.7;
            for (k, val) in payload.as_map().unwrap_or(&[]) {
                match k.as_str() {
                    "header" => match val {
                        Value::Str(s) if !s.is_empty() => header = s.clone(),
                        _ => {
                            return Err(SpecError::new(
                                "`time_to_recover_s.header` must be a non-empty string",
                            ));
                        }
                    },
                    "after_ms" => {
                        after_ms = Some(positive_f64(val, "time_to_recover_s.after_ms")?);
                    }
                    "band" => {
                        band = positive_f64(val, "time_to_recover_s.band")?;
                    }
                    other => {
                        return Err(SpecError::new(format!(
                            "unknown `time_to_recover_s` field `{other}`"
                        )));
                    }
                }
            }
            ColumnSpec::Derived(DerivedColumn::TimeToRecover {
                header,
                after_ms: after_ms
                    .ok_or_else(|| SpecError::new("`time_to_recover_s` needs `after_ms`"))?,
                band,
            })
        }
        "input" => match payload {
            Value::Str(s) if !s.is_empty() => ColumnSpec::Input(s.clone()),
            _ => return Err(SpecError::new("`input` column needs a non-empty cell name")),
        },
        "literal" => {
            let header = match payload.get("header") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err(SpecError::new("`literal` column needs a string `header`")),
            };
            let value = match payload.get("value") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err(SpecError::new("`literal` column needs a string `value`")),
            };
            for (k, _) in payload.as_map().unwrap_or(&[]) {
                if k != "header" && k != "value" {
                    return Err(SpecError::new(format!("unknown `literal` field `{k}`")));
                }
            }
            ColumnSpec::Literal { header, value }
        }
        other => {
            return Err(SpecError::new(format!("unknown column kind `{other}`")));
        }
    })
}

impl serde::Serialize for ColumnSpec {
    fn to_value(&self) -> Value {
        match self {
            ColumnSpec::Stat(c) => Value::Str(c.name().to_string()),
            ColumnSpec::Client(c) => Value::Str(c.name().to_string()),
            ColumnSpec::Derived(DerivedColumn::TimeToRecover {
                header,
                after_ms,
                band,
            }) => Value::Map(vec![(
                "time_to_recover_s".into(),
                Value::Map(vec![
                    ("header".into(), Value::Str(header.clone())),
                    ("after_ms".into(), Value::Num(*after_ms)),
                    ("band".into(), Value::Num(*band)),
                ]),
            )]),
            ColumnSpec::Derived(DerivedColumn::PostJumpTrackingErr) => {
                Value::Str("post_jump_tracking_err".into())
            }
            ColumnSpec::Derived(DerivedColumn::ConflictRatioAtPeak) => {
                Value::Str("conflict_ratio_at_peak".into())
            }
            ColumnSpec::Derived(DerivedColumn::SwitchCount) => Value::Str("switch_count".into()),
            ColumnSpec::Derived(DerivedColumn::TimeInProtocol { cc, header }) => {
                let mut m = vec![(
                    "cc".to_string(),
                    Value::Str(cc_spec_name(*cc).to_string()),
                )];
                if let Some(h) = header {
                    m.push(("header".into(), Value::Str(h.clone())));
                }
                Value::Map(vec![("time_in_protocol".into(), Value::Map(m))])
            }
            ColumnSpec::Derived(DerivedColumn::PostSwitchSettling { header, band }) => {
                Value::Map(vec![(
                    "post_switch_settling_time_s".into(),
                    Value::Map(vec![
                        ("header".into(), Value::Str(header.clone())),
                        ("band".into(), Value::Num(*band)),
                    ]),
                )])
            }
            ColumnSpec::Derived(DerivedColumn::SettlingTime {
                header,
                after_frac,
                band,
            }) => Value::Map(vec![(
                "settling_time_s".into(),
                Value::Map(vec![
                    ("header".into(), Value::Str(header.clone())),
                    ("after_frac".into(), Value::Num(*after_frac)),
                    ("band".into(), Value::Num(*band)),
                ]),
            )]),
            ColumnSpec::Input(name) => Value::Map(vec![(
                "input".into(),
                Value::Str(name.clone()),
            )]),
            ColumnSpec::Literal { header, value } => Value::Map(vec![(
                "literal".into(),
                Value::Map(vec![
                    ("header".into(), Value::Str(header.clone())),
                    ("value".into(), Value::Str(value.clone())),
                ]),
            )]),
        }
    }
}

/// Default report columns.
fn default_columns() -> Vec<ColumnSpec> {
    [
        StatColumn::ThroughputPerS,
        StatColumn::AbortRatio,
        StatColumn::MeanResponseMs,
        StatColumn::MeanMpl,
        StatColumn::MeanBound,
    ]
    .into_iter()
    .map(ColumnSpec::Stat)
    .collect()
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Parses a u32 field, rejecting non-integers and values that would
/// truncate (a silent `as u32` wrap could turn a typo into bound 0).
fn u32_from(v: &Value, what: &str) -> Result<u32, SpecError> {
    v.as_u64()
        .filter(|&x| x <= u64::from(u32::MAX))
        .map(|x| x as u32)
        .ok_or_else(|| SpecError::new(format!("`{what}` must be an integer ≤ u32::MAX")))
}

/// Parses a CC protocol: canonical variant names plus the CLI aliases.
fn cc_from_value(v: &Value) -> Result<CcKind, SpecError> {
    if let Value::Str(s) = v {
        let alias = match s.as_str() {
            "certification" | "cert" | "occ" => Some(CcKind::Certification),
            "2pl" | "two-phase-locking" => Some(CcKind::TwoPhaseLocking),
            "timestamp-ordering" | "to" => Some(CcKind::TimestampOrdering),
            "wound-wait" => Some(CcKind::WoundWait),
            "wait-die" => Some(CcKind::WaitDie),
            "mvto" | "multiversion" => Some(CcKind::Multiversion),
            _ => None,
        };
        if let Some(cc) = alias {
            return Ok(cc);
        }
    }
    <CcKind as serde::Deserialize>::from_value(v)
        .map_err(|e| SpecError::new(format!("invalid `cc`: {e}")))
}

fn controller_from_value(v: &Value) -> Result<ControllerSpec, SpecError> {
    if let Value::Str(s) = v {
        return match s.as_str() {
            "none" => Ok(ControllerSpec::None),
            "unlimited" => Ok(ControllerSpec::Unlimited),
            other => Err(SpecError::new(format!(
                "unknown controller `{other}` (want none/unlimited or an object)"
            ))),
        };
    }
    let Some([(tag, payload)]) = v.as_map() else {
        return Err(SpecError::new(
            "controller must be a string or a single-key object",
        ));
    };
    let params = |what: &str| -> Result<Vec<(String, Value)>, SpecError> {
        override_pairs(payload, what)
    };
    Ok(match tag.as_str() {
        "fixed" => {
            let bound = payload
                .get("bound")
                .ok_or_else(|| SpecError::new("`fixed` controller needs `bound`"))?;
            for (key, _) in payload.as_map().unwrap_or(&[]) {
                if key != "bound" {
                    return Err(SpecError::new(format!("unknown `fixed` field `{key}`")));
                }
            }
            ControllerSpec::Fixed {
                bound: u32_from(bound, "fixed.bound")?,
            }
        }
        "fixed_analytic_optimum" => {
            // Present-but-mistyped optional fields must error, never
            // silently fall back to the default.
            let at_ms = match payload.get("at_ms") {
                None => 0.0,
                Some(v) => v.as_f64().ok_or_else(|| {
                    SpecError::new("`fixed_analytic_optimum.at_ms` must be numeric")
                })?,
            };
            let n_max = payload
                .get("n_max")
                .ok_or_else(|| SpecError::new("`fixed_analytic_optimum` needs `n_max`"))?;
            for (k, _) in payload.as_map().unwrap_or(&[]) {
                if k != "at_ms" && k != "n_max" {
                    return Err(SpecError::new(format!(
                        "unknown `fixed_analytic_optimum` field `{k}`"
                    )));
                }
            }
            ControllerSpec::FixedAnalyticOptimum {
                at_ms,
                n_max: u32_from(n_max, "fixed_analytic_optimum.n_max")?,
            }
        }
        "is" => ControllerSpec::Is(crate::value_util::from_overrides(
            &params("IS controller")?,
            "IS controller",
        )?),
        "pa" => ControllerSpec::Pa(crate::value_util::from_overrides(
            &params("PA controller")?,
            "PA controller",
        )?),
        "self_tuning_is" => {
            let mut is = IsParams::default();
            let mut outer = OuterParams::default();
            for (k, val) in payload.as_map().unwrap_or(&[]) {
                match k.as_str() {
                    "is" => {
                        is = crate::value_util::from_overrides(
                            &override_pairs(val, "self_tuning_is.is")?,
                            "self_tuning_is.is",
                        )?;
                    }
                    "outer" => {
                        outer = crate::value_util::from_overrides(
                            &override_pairs(val, "self_tuning_is.outer")?,
                            "self_tuning_is.outer",
                        )?;
                    }
                    other => {
                        return Err(SpecError::new(format!(
                            "unknown `self_tuning_is` field `{other}`"
                        )));
                    }
                }
            }
            // Mirror the constructor's invariants as spec errors so a bad
            // spec fails at compile time, not as a runner panic.
            if outer.window < 2
                || outer.target_step_fraction <= 0.0
                || outer.adjust_factor <= 1.0
                || outer.beta_min <= 0.0
                || outer.beta_min > outer.beta_max
            {
                return Err(SpecError::new("invalid `self_tuning_is.outer` parameters"));
            }
            ControllerSpec::SelfTuningIs { is, outer }
        }
        "self_tuning_pa" => {
            let mut pa = PaParams::default();
            let mut outer = PaOuterParams::default();
            for (k, val) in payload.as_map().unwrap_or(&[]) {
                match k.as_str() {
                    "pa" => {
                        pa = crate::value_util::from_overrides(
                            &override_pairs(val, "self_tuning_pa.pa")?,
                            "self_tuning_pa.pa",
                        )?;
                    }
                    "outer" => {
                        outer = crate::value_util::from_overrides(
                            &override_pairs(val, "self_tuning_pa.outer")?,
                            "self_tuning_pa.outer",
                        )?;
                    }
                    other => {
                        return Err(SpecError::new(format!(
                            "unknown `self_tuning_pa` field `{other}`"
                        )));
                    }
                }
            }
            if outer.window < 2
                || outer.fast_weight <= outer.slow_weight
                || outer.slow_weight <= 0.0
                || outer.fast_weight > 1.0
                || outer.shock_factor <= 1.0
                || outer.shock_confirm < 1
                || outer.lengthen_below <= 0.0
                || outer.lengthen_below >= 1.0
                || outer.adjust_factor <= 1.0
                || outer.alpha_min <= 0.0
                || outer.alpha_min > outer.alpha_max
                || outer.alpha_max >= 1.0
            {
                return Err(SpecError::new("invalid `self_tuning_pa.outer` parameters"));
            }
            ControllerSpec::SelfTuningPa { pa, outer }
        }
        "hybrid" => {
            let mut p = HybridParams::default();
            for (k, val) in payload.as_map().unwrap_or(&[]) {
                match k.as_str() {
                    "is" => {
                        p.is = crate::value_util::from_overrides(
                            &override_pairs(val, "hybrid.is")?,
                            "hybrid.is",
                        )?;
                    }
                    "pa" => {
                        p.pa = crate::value_util::from_overrides(
                            &override_pairs(val, "hybrid.pa")?,
                            "hybrid.pa",
                        )?;
                    }
                    "bootstrap_samples" => {
                        p.bootstrap_samples = val.as_u64().ok_or_else(|| {
                            SpecError::new("`hybrid.bootstrap_samples` must be an integer")
                        })?;
                    }
                    "revert_after" => {
                        p.revert_after = u32_from(val, "hybrid.revert_after")?;
                    }
                    "revert_window" => {
                        p.revert_window = u32_from(val, "hybrid.revert_window")?;
                    }
                    other => {
                        return Err(SpecError::new(format!("unknown `hybrid` field `{other}`")));
                    }
                }
            }
            if (p.is.min_bound, p.is.max_bound) != (p.pa.min_bound, p.pa.max_bound) {
                return Err(SpecError::new(
                    "`hybrid` needs matching IS/PA [min_bound, max_bound] ranges",
                ));
            }
            if p.bootstrap_samples < 3
                || p.revert_after < 1
                || !(p.revert_after..=64).contains(&p.revert_window)
            {
                return Err(SpecError::new("invalid `hybrid` phase parameters"));
            }
            ControllerSpec::Hybrid(p)
        }
        "iyer" => ControllerSpec::Iyer(crate::value_util::from_overrides(
            &params("Iyer controller")?,
            "Iyer controller",
        )?),
        "retry_budget" => {
            let p: RetryBudgetParams = crate::value_util::from_overrides(
                &params("retry_budget controller")?,
                "retry_budget controller",
            )?;
            // Mirror the constructor's invariants as spec errors so a bad
            // spec fails at parse time, not as a runner panic.
            if p.min_bound < 1
                || p.min_bound > p.max_bound
                || p.budget < 0.0
                || p.burst < 0.0
                || !(p.decrease > 0.0 && p.decrease < 1.0)
                || !(0.0..=1.0).contains(&p.headroom)
            {
                return Err(SpecError::new("invalid `retry_budget` parameters"));
            }
            ControllerSpec::RetryBudget(p)
        }
        "tay" => {
            let k = payload
                .get("k")
                .ok_or_else(|| SpecError::new("`tay` controller needs `k`"))?;
            let min_bound = match payload.get("min_bound") {
                None => 1,
                Some(v) => u32_from(v, "tay.min_bound")?,
            };
            let max_bound = payload
                .get("max_bound")
                .ok_or_else(|| SpecError::new("`tay` controller needs `max_bound`"))?;
            for (key, _) in payload.as_map().unwrap_or(&[]) {
                if !matches!(key.as_str(), "k" | "min_bound" | "max_bound") {
                    return Err(SpecError::new(format!("unknown `tay` field `{key}`")));
                }
            }
            ControllerSpec::Tay {
                k: u32_from(k, "tay.k")?,
                min_bound,
                max_bound: u32_from(max_bound, "tay.max_bound")?,
            }
        }
        other => {
            return Err(SpecError::new(format!("unknown controller kind `{other}`")));
        }
    })
}

/// Parses a positive finite number field.
fn positive_f64(v: &Value, what: &str) -> Result<f64, SpecError> {
    v.as_f64()
        .filter(|x| *x > 0.0 && x.is_finite())
        .ok_or_else(|| SpecError::new(format!("`{what}` must be a positive number")))
}

/// Parses the policy object of an adaptive `cc` section.
fn meta_policy_from_value(v: &Value) -> Result<MetaPolicySpec, SpecError> {
    let Some([(tag, payload)]) = v.as_map() else {
        return Err(SpecError::new(
            "`cc.adaptive.policy` must be a single-key object \
             (conflict_threshold/restart_rate/shadow_score)",
        ));
    };
    let mut threshold = None;
    let mut ewma_weight = 0.3;
    for (k, val) in payload.as_map().unwrap_or(&[]) {
        match k.as_str() {
            "threshold" if tag != "shadow_score" => {
                threshold = Some(positive_f64(val, &format!("{tag}.threshold"))?);
            }
            "ewma_weight" => {
                ewma_weight = val
                    .as_f64()
                    .filter(|w| *w > 0.0 && *w <= 1.0)
                    .ok_or_else(|| {
                        SpecError::new(format!("`{tag}.ewma_weight` must lie in (0, 1]"))
                    })?;
            }
            other => {
                return Err(SpecError::new(format!("unknown `{tag}` field `{other}`")));
            }
        }
    }
    Ok(match tag.as_str() {
        "conflict_threshold" => MetaPolicySpec::ConflictThreshold {
            threshold: threshold
                .ok_or_else(|| SpecError::new("`conflict_threshold` needs `threshold`"))?,
            ewma_weight,
        },
        "restart_rate" => {
            let threshold =
                threshold.ok_or_else(|| SpecError::new("`restart_rate` needs `threshold`"))?;
            if threshold >= 1.0 {
                return Err(SpecError::new(
                    "`restart_rate.threshold` is an abort ratio and must be < 1",
                ));
            }
            MetaPolicySpec::RestartRate {
                threshold,
                ewma_weight,
            }
        }
        "shadow_score" => MetaPolicySpec::ShadowScore { ewma_weight },
        other => {
            return Err(SpecError::new(format!(
                "unknown adaptive policy `{other}` \
                 (want conflict_threshold/restart_rate/shadow_score)"
            )));
        }
    })
}

/// Parses the `{"adaptive": …}` payload of the `cc` field.
fn adaptive_from_value(v: &Value) -> Result<AdaptiveCcSpec, SpecError> {
    let entries = v
        .as_map()
        .ok_or_else(|| SpecError::new("`cc.adaptive` must be an object"))?;
    let mut candidates = Vec::new();
    let mut policy = None;
    let mut min_dwell_s = None;
    let mut cooldown_s = 0.0;
    let mut hysteresis = 0.25;
    for (k, val) in entries {
        match k.as_str() {
            "candidates" => {
                let seq = val
                    .as_seq()
                    .ok_or_else(|| SpecError::new("`cc.adaptive.candidates` must be a list"))?;
                candidates = seq
                    .iter()
                    .map(cc_from_value)
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "policy" => policy = Some(meta_policy_from_value(val)?),
            "min_dwell_s" => {
                min_dwell_s = Some(val.as_f64().filter(|x| *x >= 0.0 && x.is_finite()).ok_or_else(
                    || SpecError::new("`cc.adaptive.min_dwell_s` must be a number ≥ 0"),
                )?);
            }
            "cooldown_s" => {
                cooldown_s = val
                    .as_f64()
                    .filter(|x| *x >= 0.0 && x.is_finite())
                    .ok_or_else(|| {
                        SpecError::new("`cc.adaptive.cooldown_s` must be a number ≥ 0")
                    })?;
            }
            "hysteresis" => {
                hysteresis = val
                    .as_f64()
                    .filter(|x| (0.0..1.0).contains(x))
                    .ok_or_else(|| {
                        SpecError::new("`cc.adaptive.hysteresis` must lie in [0, 1)")
                    })?;
            }
            other => {
                return Err(SpecError::new(format!(
                    "unknown `cc.adaptive` field `{other}`"
                )));
            }
        }
    }
    if candidates.len() < 2 {
        return Err(SpecError::new(
            "`cc.adaptive.candidates` needs at least two protocols",
        ));
    }
    let mut seen = Vec::new();
    for c in &candidates {
        if seen.contains(c) {
            return Err(SpecError::new(format!(
                "duplicate adaptive candidate `{}`",
                cc_spec_name(*c)
            )));
        }
        seen.push(*c);
    }
    Ok(AdaptiveCcSpec {
        candidates,
        policy: policy.ok_or_else(|| SpecError::new("`cc.adaptive` needs a `policy`"))?,
        min_dwell_s: min_dwell_s
            .ok_or_else(|| SpecError::new("`cc.adaptive` needs `min_dwell_s`"))?,
        cooldown_s,
        hysteresis,
    })
}

/// The parsed `cc` field: initial protocol, scheduled phase switches,
/// and the adaptive section (at most one of the latter two is
/// populated).
type CcField = (CcKind, Vec<(f64, CcKind)>, Option<AdaptiveCcSpec>);

/// Parses the `cc` field: a plain protocol,
/// `{"phases": [[t_ms, cc], …]}` (ascending, first phase at 0) for
/// scheduled per-phase switching, or `{"adaptive": …}` for closed-loop
/// protocol selection.
fn cc_field_from_value(v: &Value) -> Result<CcField, SpecError> {
    if let Some([(tag, payload)]) = v.as_map() {
        if tag == "adaptive" {
            let adaptive = adaptive_from_value(payload)?;
            return Ok((adaptive.candidates[0], Vec::new(), Some(adaptive)));
        }
        if tag == "phases" {
            let seq = payload
                .as_seq()
                .ok_or_else(|| SpecError::new("`cc.phases` needs a [[t_ms, cc], …] list"))?;
            let mut phases = Vec::with_capacity(seq.len());
            for p in seq {
                let pair = p.as_seq().filter(|s| s.len() == 2).ok_or_else(|| {
                    SpecError::new("`cc.phases` entries must be [t_ms, cc] pairs")
                })?;
                let t = pair[0]
                    .as_f64()
                    .ok_or_else(|| SpecError::new("`cc.phases` time must be numeric"))?;
                phases.push((t, cc_from_value(&pair[1])?));
            }
            if phases.is_empty() {
                return Err(SpecError::new("`cc.phases` must not be empty"));
            }
            if phases[0].0 != 0.0 {
                return Err(SpecError::new("the first `cc.phases` entry must start at 0"));
            }
            for w in phases.windows(2) {
                if w[1].0 <= w[0].0 {
                    return Err(SpecError::new("`cc.phases` times must be strictly ascending"));
                }
            }
            let initial = phases[0].1;
            return Ok((initial, phases.split_off(1), None));
        }
    }
    Ok((cc_from_value(v)?, Vec::new(), None))
}

fn fault_from_value(v: &Value) -> Result<FaultSpec, SpecError> {
    use alc_des::dist::Sample as _;
    let entries = v
        .as_map()
        .ok_or_else(|| SpecError::new("fault must be an object"))?;
    let mut at_ms = None;
    let mut recovery = None;
    let mut cpus_down = None;
    for (k, val) in entries {
        match k.as_str() {
            "at" => {
                at_ms = Some(
                    val.as_f64()
                        .filter(|&t| t >= 0.0)
                        .ok_or_else(|| SpecError::new("fault `at` must be a time ≥ 0"))?,
                );
            }
            "duration" => {
                if recovery.is_some() {
                    return Err(SpecError::new(
                        "fault takes `duration` or `repair`, not both",
                    ));
                }
                recovery = Some(FaultRecovery::Fixed(
                    val.as_f64()
                        .filter(|&d| d > 0.0)
                        .ok_or_else(|| SpecError::new("fault `duration` must be positive"))?,
                ));
            }
            "repair" => {
                if recovery.is_some() {
                    return Err(SpecError::new(
                        "fault takes `duration` or `repair`, not both",
                    ));
                }
                let norm = crate::value_util::normalize_dist(val)
                    .map_err(|e| SpecError::new(format!("fault `repair`: {e}")))?;
                let dist: alc_des::dist::Dist =
                    <alc_des::dist::Dist as serde::Deserialize>::from_value(&norm)
                        .map_err(|e| SpecError::new(format!("fault `repair`: {e}")))?;
                if dist.mean().is_nan() || dist.mean() <= 0.0 {
                    return Err(SpecError::new(
                        "fault `repair` needs a distribution with positive mean",
                    ));
                }
                recovery = Some(FaultRecovery::Repair(dist));
            }
            "cpus_down" => {
                let n = u32_from(val, "fault cpus_down")?;
                if n == 0 {
                    return Err(SpecError::new("fault `cpus_down` must be ≥ 1"));
                }
                cpus_down = Some(n);
            }
            other => {
                return Err(SpecError::new(format!("unknown fault field `{other}`")));
            }
        }
    }
    Ok(FaultSpec {
        at_ms: at_ms.ok_or_else(|| SpecError::new("fault needs `at`"))?,
        recovery: recovery
            .ok_or_else(|| SpecError::new("fault needs `duration` or `repair`"))?,
        cpus_down: cpus_down.ok_or_else(|| SpecError::new("fault needs `cpus_down`"))?,
    })
}

/// Parses the retry policy of a `clients` section: a single-key object
/// `{"backoff": …}` / `{"budget": …}` / `{"hedged": …}`.
fn retry_policy_from_value(v: &Value) -> Result<RetryPolicy, SpecError> {
    let Some([(tag, payload)]) = v.as_map() else {
        return Err(SpecError::new(
            "`clients.retry` must be a single-key object (backoff/budget/hedged)",
        ));
    };
    Ok(match tag.as_str() {
        "backoff" => {
            // The default retry policy is backoff; the fallback arm only
            // exists to keep this parser panic-free.
            let (mut base_ms, mut factor, mut max_ms, mut jitter) = match RetryPolicy::default() {
                RetryPolicy::Backoff {
                    base_ms,
                    factor,
                    max_ms,
                    jitter,
                } => (base_ms, factor, max_ms, jitter),
                _ => (100.0, 2.0, 5000.0, 0.5),
            };
            for (k, val) in payload.as_map().unwrap_or(&[]) {
                match k.as_str() {
                    "base_ms" => base_ms = positive_f64(val, "backoff.base_ms")?,
                    "factor" => {
                        factor = val.as_f64().filter(|f| *f >= 1.0).ok_or_else(|| {
                            SpecError::new("`backoff.factor` must be a number ≥ 1")
                        })?;
                    }
                    "max_ms" => max_ms = positive_f64(val, "backoff.max_ms")?,
                    "jitter" => {
                        jitter = val
                            .as_f64()
                            .filter(|j| (0.0..=1.0).contains(j))
                            .ok_or_else(|| {
                                SpecError::new("`backoff.jitter` must lie in [0, 1]")
                            })?;
                    }
                    other => {
                        return Err(SpecError::new(format!(
                            "unknown `backoff` field `{other}`"
                        )));
                    }
                }
            }
            RetryPolicy::Backoff {
                base_ms,
                factor,
                max_ms,
                jitter,
            }
        }
        "budget" => {
            let mut per_commit = 0.1;
            let mut burst = 10.0;
            let mut delay_ms = 100.0;
            for (k, val) in payload.as_map().unwrap_or(&[]) {
                match k.as_str() {
                    "per_commit" => {
                        per_commit = val
                            .as_f64()
                            .filter(|x| *x >= 0.0 && x.is_finite())
                            .ok_or_else(|| {
                                SpecError::new("`budget.per_commit` must be a number ≥ 0")
                            })?;
                    }
                    "burst" => burst = positive_f64(val, "budget.burst")?,
                    "delay_ms" => delay_ms = positive_f64(val, "budget.delay_ms")?,
                    other => {
                        return Err(SpecError::new(format!(
                            "unknown `budget` field `{other}`"
                        )));
                    }
                }
            }
            RetryPolicy::Budget {
                per_commit,
                burst,
                delay_ms,
            }
        }
        "hedged" => {
            let mut delay_ms = None;
            for (k, val) in payload.as_map().unwrap_or(&[]) {
                match k.as_str() {
                    "delay_ms" => delay_ms = Some(positive_f64(val, "hedged.delay_ms")?),
                    other => {
                        return Err(SpecError::new(format!(
                            "unknown `hedged` field `{other}`"
                        )));
                    }
                }
            }
            RetryPolicy::Hedged {
                delay_ms: delay_ms
                    .ok_or_else(|| SpecError::new("`hedged` retry needs `delay_ms`"))?,
            }
        }
        other => {
            return Err(SpecError::new(format!(
                "unknown retry policy `{other}` (want backoff/budget/hedged)"
            )));
        }
    })
}

/// Parses the latency→load feedback of a `clients` section.
fn feedback_from_value(v: &Value) -> Result<LatencyFeedback, SpecError> {
    let entries = v
        .as_map()
        .ok_or_else(|| SpecError::new("`clients.feedback` must be an object"))?;
    let mut f = LatencyFeedback::default();
    for (k, val) in entries {
        match k.as_str() {
            "gain" => {
                f.gain = val
                    .as_f64()
                    .filter(|g| *g >= 0.0 && g.is_finite())
                    .ok_or_else(|| SpecError::new("`feedback.gain` must be a number ≥ 0"))?;
            }
            "reference_ms" => f.reference_ms = positive_f64(val, "feedback.reference_ms")?,
            "weight" => {
                f.weight = val
                    .as_f64()
                    .filter(|w| *w > 0.0 && *w <= 1.0)
                    .ok_or_else(|| SpecError::new("`feedback.weight` must lie in (0, 1]"))?;
            }
            other => {
                return Err(SpecError::new(format!("unknown `feedback` field `{other}`")));
            }
        }
    }
    Ok(f)
}

/// Parses the `clients` section into the engine's [`ClientConfig`].
fn clients_from_value(v: &Value) -> Result<ClientConfig, SpecError> {
    use alc_des::dist::Sample as _;
    let entries = v
        .as_map()
        .ok_or_else(|| SpecError::new("`clients` must be an object"))?;
    let mut population = None;
    let mut timeout = None;
    let mut max_retries = 3u32;
    let mut retry = RetryPolicy::default();
    let mut shed_retries = false;
    let mut feedback = LatencyFeedback::default();
    for (k, val) in entries {
        match k.as_str() {
            "population" => {
                let n = u32_from(val, "clients.population")?;
                if n == 0 {
                    return Err(SpecError::new("`clients.population` must be ≥ 1"));
                }
                population = Some(n);
            }
            "timeout" => {
                let norm = crate::value_util::normalize_dist(val)
                    .map_err(|e| SpecError::new(format!("clients `timeout`: {e}")))?;
                let dist: alc_des::dist::Dist =
                    <alc_des::dist::Dist as serde::Deserialize>::from_value(&norm)
                        .map_err(|e| SpecError::new(format!("clients `timeout`: {e}")))?;
                if dist.mean().is_nan() || dist.mean() <= 0.0 {
                    return Err(SpecError::new(
                        "clients `timeout` needs a distribution with positive mean",
                    ));
                }
                timeout = Some(dist);
            }
            "max_retries" => max_retries = u32_from(val, "clients.max_retries")?,
            "retry" => retry = retry_policy_from_value(val)?,
            "shed_retries" => match val {
                Value::Bool(b) => shed_retries = *b,
                _ => return Err(SpecError::new("`clients.shed_retries` must be a bool")),
            },
            "feedback" => feedback = feedback_from_value(val)?,
            other => {
                return Err(SpecError::new(format!("unknown `clients` field `{other}`")));
            }
        }
    }
    Ok(ClientConfig {
        population: population
            .ok_or_else(|| SpecError::new("`clients` needs `population`"))?,
        timeout: timeout.ok_or_else(|| SpecError::new("`clients` needs `timeout`"))?,
        max_retries,
        retry,
        shed_retries,
        feedback,
    })
}

/// Serializes a [`ClientConfig`] back into the spec's `clients` form.
fn clients_to_value(c: &ClientConfig) -> Value {
    let retry = match c.retry {
        RetryPolicy::Backoff {
            base_ms,
            factor,
            max_ms,
            jitter,
        } => Value::Map(vec![(
            "backoff".into(),
            Value::Map(vec![
                ("base_ms".into(), Value::Num(base_ms)),
                ("factor".into(), Value::Num(factor)),
                ("max_ms".into(), Value::Num(max_ms)),
                ("jitter".into(), Value::Num(jitter)),
            ]),
        )]),
        RetryPolicy::Budget {
            per_commit,
            burst,
            delay_ms,
        } => Value::Map(vec![(
            "budget".into(),
            Value::Map(vec![
                ("per_commit".into(), Value::Num(per_commit)),
                ("burst".into(), Value::Num(burst)),
                ("delay_ms".into(), Value::Num(delay_ms)),
            ]),
        )]),
        RetryPolicy::Hedged { delay_ms } => Value::Map(vec![(
            "hedged".into(),
            Value::Map(vec![("delay_ms".into(), Value::Num(delay_ms))]),
        )]),
    };
    Value::Map(vec![
        ("population".into(), Value::U64(u64::from(c.population))),
        ("timeout".into(), serde::Serialize::to_value(&c.timeout)),
        ("max_retries".into(), Value::U64(u64::from(c.max_retries))),
        ("retry".into(), retry),
        ("shed_retries".into(), Value::Bool(c.shed_retries)),
        (
            "feedback".into(),
            Value::Map(vec![
                ("gain".into(), Value::Num(c.feedback.gain)),
                ("reference_ms".into(), Value::Num(c.feedback.reference_ms)),
                ("weight".into(), Value::Num(c.feedback.weight)),
            ]),
        ),
    ])
}

/// Characters legal in labels that land in output file names.
fn filename_safe(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
}

fn sweep_axis_from_value(v: &Value) -> Result<SweepAxis, SpecError> {
    let entries = v
        .as_map()
        .ok_or_else(|| SpecError::new("sweep axis must be an object"))?;
    let mut header = None;
    let mut path = None;
    let mut values = None;
    let mut labels = None;
    for (k, val) in entries {
        match k.as_str() {
            "header" => match val {
                Value::Str(s) if !s.is_empty() => header = Some(s.clone()),
                _ => return Err(SpecError::new("axis `header` must be a non-empty string")),
            },
            "path" => match val {
                Value::Str(s) if !s.is_empty() => path = Some(s.clone()),
                _ => return Err(SpecError::new("axis `path` must be a non-empty string")),
            },
            "values" => {
                let seq = val
                    .as_seq()
                    .ok_or_else(|| SpecError::new("axis `values` must be a list"))?;
                if seq.is_empty() {
                    return Err(SpecError::new("axis `values` must not be empty"));
                }
                values = Some(seq.to_vec());
            }
            "labels" => {
                let seq = val
                    .as_seq()
                    .ok_or_else(|| SpecError::new("axis `labels` must be a list"))?;
                let mut out = Vec::with_capacity(seq.len());
                for l in seq {
                    match l {
                        Value::Str(s) => out.push(s.clone()),
                        _ => return Err(SpecError::new("axis `labels` must be strings")),
                    }
                }
                labels = Some(out);
            }
            other => {
                return Err(SpecError::new(format!("unknown axis field `{other}`")));
            }
        }
    }
    let axis = SweepAxis {
        header: header.ok_or_else(|| SpecError::new("sweep axis needs `header`"))?,
        path: path.ok_or_else(|| SpecError::new("sweep axis needs `path`"))?,
        values: values.ok_or_else(|| SpecError::new("sweep axis needs `values`"))?,
        labels,
    };
    if let Some(labels) = &axis.labels {
        if labels.len() != axis.values.len() {
            return Err(SpecError::new(format!(
                "axis `{}`: {} labels for {} values",
                axis.header,
                labels.len(),
                axis.values.len()
            )));
        }
    }
    // Labels name output files and must identify cells uniquely: a
    // duplicate label would collapse two grid cells in the report.
    let mut seen = std::collections::BTreeSet::new();
    for i in 0..axis.values.len() {
        let label = axis.label(i);
        if !filename_safe(&label) {
            return Err(SpecError::new(format!(
                "axis `{}` label `{label}` must be non-empty [A-Za-z0-9._-] \
                 (give explicit `labels` for exotic values)",
                axis.header
            )));
        }
        if !seen.insert(label.clone()) {
            return Err(SpecError::new(format!(
                "axis `{}` has duplicate label `{label}`",
                axis.header
            )));
        }
    }
    Ok(axis)
}

fn sweep_from_value(v: &Value) -> Result<SweepSpec, SpecError> {
    let entries = v
        .as_map()
        .ok_or_else(|| SpecError::new("`sweep` must be an object"))?;
    let mut axes = Vec::new();
    let mut pivot = None;
    for (k, val) in entries {
        match k.as_str() {
            "axes" => {
                let seq = val
                    .as_seq()
                    .ok_or_else(|| SpecError::new("`sweep.axes` must be a list"))?;
                axes = seq
                    .iter()
                    .map(sweep_axis_from_value)
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "pivot" => {
                let stat = match val.get("stat") {
                    Some(Value::Str(s)) => StatColumn::parse(s)?,
                    _ => return Err(SpecError::new("`sweep.pivot` needs a `stat` column name")),
                };
                let prefix = match val.get("prefix") {
                    None => String::new(),
                    Some(Value::Str(s)) => s.clone(),
                    Some(_) => {
                        return Err(SpecError::new("`sweep.pivot.prefix` must be a string"))
                    }
                };
                for (pk, _) in val.as_map().unwrap_or(&[]) {
                    if pk != "stat" && pk != "prefix" {
                        return Err(SpecError::new(format!("unknown pivot field `{pk}`")));
                    }
                }
                pivot = Some(PivotSpec { stat, prefix });
            }
            other => {
                return Err(SpecError::new(format!("unknown sweep field `{other}`")));
            }
        }
    }
    if axes.is_empty() {
        return Err(SpecError::new("`sweep` needs at least one axis"));
    }
    if pivot.is_some() && axes.len() < 2 {
        return Err(SpecError::new(
            "a pivoted sweep needs ≥ 2 axes (rows + the pivoted columns)",
        ));
    }
    let mut headers = std::collections::BTreeSet::new();
    for a in &axes {
        if !headers.insert(a.header.as_str()) {
            return Err(SpecError::new(format!("duplicate axis header `{}`", a.header)));
        }
    }
    Ok(SweepSpec { axes, pivot })
}

fn inputs_from_value(v: &Value) -> Result<VariantInputs, SpecError> {
    let entries = v
        .as_map()
        .ok_or_else(|| SpecError::new("`inputs` must map variant name → cells"))?;
    let mut out = Vec::with_capacity(entries.len());
    for (variant, cells_v) in entries {
        let cells = cells_v
            .as_map()
            .ok_or_else(|| SpecError::new(format!("inputs for `{variant}` must be an object")))?;
        let mut row = Vec::with_capacity(cells.len());
        for (col, val) in cells {
            match val {
                Value::Str(s) => row.push((col.clone(), s.clone())),
                _ => {
                    return Err(SpecError::new(format!(
                        "input `{variant}.{col}` must be a string (the literal cell text)"
                    )));
                }
            }
        }
        out.push((variant.clone(), row));
    }
    Ok(out)
}

fn workload_from_value(v: &Value) -> Result<WorkloadSpec, SpecError> {
    let entries = v
        .as_map()
        .ok_or_else(|| SpecError::new("`workload` must be an object"))?;
    let mut w = WorkloadSpec::default();
    for (k, pv) in entries {
        let p = <Profile as serde::Deserialize>::from_value(pv)
            .map_err(|e| SpecError::new(format!("workload `{k}`: {e}")))?;
        match k.as_str() {
            "k" => w.k = p,
            "query_frac" => w.query_frac = p,
            "write_frac" => w.write_frac = p,
            "access_skew" => w.access_skew = p,
            "arrival_rate_factor" => w.arrival_rate_factor = p,
            "think_time_factor" => w.think_time_factor = p,
            other => {
                return Err(SpecError::new(format!("unknown workload field `{other}`")));
            }
        }
    }
    Ok(w)
}

fn variant_from_value(v: &Value) -> Result<VariantSpec, SpecError> {
    let entries = v
        .as_map()
        .ok_or_else(|| SpecError::new("variant must be an object"))?;
    let mut name = None;
    let mut set = Vec::new();
    let mut quick = Vec::new();
    for (k, val) in entries {
        match k.as_str() {
            "name" => match val {
                Value::Str(s) => name = Some(s.clone()),
                _ => return Err(SpecError::new("variant `name` must be a string")),
            },
            "set" => set = override_pairs(val, "variant set")?,
            "quick" => quick = override_pairs(val, "variant quick")?,
            other => {
                return Err(SpecError::new(format!("unknown variant field `{other}`")));
            }
        }
    }
    Ok(VariantSpec {
        name: name.ok_or_else(|| SpecError::new("variant needs a `name`"))?,
        set,
        quick,
    })
}

/// Normalizes the `system` override map: dist-valued fields accept the
/// shorthands, `arrival` accepts its shorthands, and `seed` is rejected
/// (the top-level `seed` field owns it). `offered_load_per_s` is a
/// *derived* quantity: a value `λ` lowers to an open Poisson arrival
/// stream with interarrival mean `1000/λ` ms at parse time, so load
/// grids (sweep axes, `--set`, quick overrides) read in the paper's
/// tx/s units instead of interarrival means.
fn system_overrides_from_value(v: &Value) -> Result<Vec<(String, Value)>, SpecError> {
    const DIST_FIELDS: [&str; 5] = [
        "cpu_phase",
        "disk_access",
        "disk_init_commit",
        "think",
        "restart_delay",
    ];
    let mut out: Vec<(String, Value)> = Vec::new();
    let mut arrival_sources = 0u32;
    for (k, val) in override_pairs(v, "system")? {
        let (key, norm) = if DIST_FIELDS.contains(&k.as_str()) {
            let norm = normalize_dist(&val)
                .map_err(|e| SpecError::new(format!("system `{k}`: {e}")))?;
            (k, norm)
        } else if k == "arrival" {
            arrival_sources += 1;
            (k, normalize_arrival(&val)?)
        } else if k == "offered_load_per_s" {
            arrival_sources += 1;
            let rate = val.as_f64().filter(|&r| r > 0.0).ok_or_else(|| {
                SpecError::new("`system.offered_load_per_s` must be a positive rate")
            })?;
            let open = Value::Map(vec![("open_rate_per_s".into(), Value::Num(rate))]);
            ("arrival".to_string(), normalize_arrival(&open)?)
        } else if k == "seed" {
            return Err(SpecError::new(
                "set the top-level `seed` field, not `system.seed`",
            ));
        } else {
            (k, val)
        };
        out.push((key, norm));
    }
    if arrival_sources > 1 {
        return Err(SpecError::new(
            "set `system.arrival` or `system.offered_load_per_s`, not both",
        ));
    }
    Ok(out)
}

impl ScenarioSpec {
    /// Strictly parses a spec from its JSON tree. Unknown keys anywhere
    /// are errors.
    pub fn from_value(v: &Value) -> Result<Self, SpecError> {
        let entries = v
            .as_map()
            .ok_or_else(|| SpecError::new("scenario spec must be a JSON object"))?;
        let mut name = None;
        let mut description = String::new();
        let mut seed = SystemConfig::default().seed;
        let mut replications = 1u32;
        let mut horizon_ms = None;
        let mut cc = CcKind::Certification;
        let mut cc_phases = Vec::new();
        let mut cc_adaptive = None;
        let mut faults = Vec::new();
        let mut clients = None;
        let mut system = Vec::new();
        let mut control = Vec::new();
        let mut workload = WorkloadSpec::default();
        let mut controller = ControllerSpec::None;
        let mut record_optimum = false;
        let mut trajectories = false;
        let mut label_header = "variant".to_string();
        let mut columns = default_columns();
        let mut variants = Vec::new();
        let mut sweep = None;
        let mut inputs = Vec::new();
        let mut label_from = None;
        let mut quick = Vec::new();

        for (k, val) in entries {
            match k.as_str() {
                "name" => match val {
                    Value::Str(s) => name = Some(s.clone()),
                    _ => return Err(SpecError::new("`name` must be a string")),
                },
                "description" => match val {
                    Value::Str(s) => description = s.clone(),
                    _ => return Err(SpecError::new("`description` must be a string")),
                },
                "seed" => {
                    seed = val
                        .as_u64()
                        .ok_or_else(|| SpecError::new("`seed` must be a u64"))?;
                }
                "replications" => {
                    replications = u32_from(val, "replications")?;
                    if replications == 0 {
                        return Err(SpecError::new("`replications` must be ≥ 1"));
                    }
                }
                "horizon_ms" => {
                    horizon_ms = Some(
                        val.as_f64()
                            .filter(|&h| h > 0.0)
                            .ok_or_else(|| SpecError::new("`horizon_ms` must be positive"))?,
                    );
                }
                "cc" => (cc, cc_phases, cc_adaptive) = cc_field_from_value(val)?,
                "faults" => {
                    let seq = val
                        .as_seq()
                        .ok_or_else(|| SpecError::new("`faults` must be a list"))?;
                    faults = seq
                        .iter()
                        .map(fault_from_value)
                        .collect::<Result<_, _>>()?;
                }
                "clients" => clients = Some(clients_from_value(val)?),
                "system" => system = system_overrides_from_value(val)?,
                "control" => control = override_pairs(val, "control")?,
                "workload" => workload = workload_from_value(val)?,
                "controller" => controller = controller_from_value(val)?,
                "record_optimum" => match val {
                    Value::Bool(b) => record_optimum = *b,
                    _ => return Err(SpecError::new("`record_optimum` must be a bool")),
                },
                "trajectories" => match val {
                    Value::Bool(b) => trajectories = *b,
                    _ => return Err(SpecError::new("`trajectories` must be a bool")),
                },
                "label_header" => match val {
                    Value::Str(s) => label_header = s.clone(),
                    _ => return Err(SpecError::new("`label_header` must be a string")),
                },
                "columns" => {
                    let seq = val
                        .as_seq()
                        .ok_or_else(|| SpecError::new("`columns` must be a list"))?;
                    columns = seq
                        .iter()
                        .map(column_from_value)
                        .collect::<Result<_, _>>()?;
                }
                "variants" => {
                    let seq = val
                        .as_seq()
                        .ok_or_else(|| SpecError::new("`variants` must be a list"))?;
                    variants = seq
                        .iter()
                        .map(variant_from_value)
                        .collect::<Result<_, _>>()?;
                }
                "sweep" => sweep = Some(sweep_from_value(val)?),
                "inputs" => inputs = inputs_from_value(val)?,
                "label_from" => match val {
                    Value::Str(s) if !s.is_empty() => label_from = Some(s.clone()),
                    _ => {
                        return Err(SpecError::new("`label_from` must be a non-empty string"));
                    }
                },
                "quick" => quick = override_pairs(val, "quick")?,
                other => {
                    return Err(SpecError::new(format!("unknown spec field `{other}`")));
                }
            }
        }
        let spec = ScenarioSpec {
            name: name.ok_or_else(|| SpecError::new("spec needs a `name`"))?,
            description,
            seed,
            replications,
            horizon_ms: horizon_ms
                .ok_or_else(|| SpecError::new("spec needs a positive `horizon_ms`"))?,
            cc,
            cc_phases,
            cc_adaptive,
            faults,
            clients,
            system,
            control,
            workload,
            controller,
            record_optimum,
            trajectories,
            label_header,
            columns,
            variants,
            sweep,
            inputs,
            label_from,
            quick,
        };
        if spec.name.is_empty()
            || !spec
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(SpecError::new(
                "`name` must be non-empty [A-Za-z0-9_-] (it names output files)",
            ));
        }
        let mut seen = std::collections::BTreeSet::new();
        for v in &spec.variants {
            if !seen.insert(v.name.as_str()) {
                return Err(SpecError::new(format!("duplicate variant `{}`", v.name)));
            }
            // Variant names land in trajectory file names, so they get
            // the same charset discipline as the spec name (plus `.`,
            // for labels like `iyer-0.75`).
            if v.name.is_empty()
                || !v
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
            {
                return Err(SpecError::new(format!(
                    "variant name `{}` must be non-empty [A-Za-z0-9._-] (it names output files)",
                    v.name
                )));
            }
        }
        if let Some(sweep) = &spec.sweep {
            if !spec.variants.is_empty() {
                return Err(SpecError::new(
                    "`sweep` and `variants` are mutually exclusive (a sweep already \
                     generates one run per grid cell)",
                ));
            }
            if !spec.inputs.is_empty() || spec.label_from.is_some() {
                return Err(SpecError::new(
                    "`inputs`/`label_from` key variants and cannot be used with `sweep` \
                     (axis values already label the rows)",
                ));
            }
            if sweep.pivot.is_some() && spec.replications > 1 {
                return Err(SpecError::new(
                    "a pivoted sweep needs `replications: 1` (one cell, one value)",
                ));
            }
        }
        // Every input row must key a real variant, and every column that
        // reads an input cell must find it in every variant.
        let variant_names: Vec<&str> = spec.variants.iter().map(|v| v.name.as_str()).collect();
        for (variant, _) in &spec.inputs {
            if !variant_names.contains(&variant.as_str()) {
                return Err(SpecError::new(format!(
                    "`inputs` references unknown variant `{variant}`"
                )));
            }
        }
        let mut needed_cells: Vec<&str> = spec
            .columns
            .iter()
            .filter_map(|c| match c {
                ColumnSpec::Input(name) => Some(name.as_str()),
                _ => None,
            })
            .collect();
        if let Some(lf) = &spec.label_from {
            needed_cells.push(lf.as_str());
        }
        if !needed_cells.is_empty() {
            // `input` columns and `label_from` read per-variant cells;
            // without variants they could never be satisfied and would
            // silently render placeholders.
            if spec.variants.is_empty() {
                return Err(SpecError::new(
                    "`input` columns / `label_from` need a `variants` section \
                     (they read per-variant cells from `inputs`)",
                ));
            }
            for v in &spec.variants {
                let cells = spec
                    .inputs
                    .iter()
                    .find(|(name, _)| name == &v.name)
                    .map(|(_, cells)| cells.as_slice())
                    .unwrap_or(&[]);
                for needed in &needed_cells {
                    if !cells.iter().any(|(col, _)| col == needed) {
                        return Err(SpecError::new(format!(
                            "variant `{}` is missing input cell `{needed}`",
                            v.name
                        )));
                    }
                }
            }
        }
        if spec.columns.iter().any(ColumnSpec::needs_optimum) && !spec.record_optimum {
            return Err(SpecError::new(
                "tracking-error columns need `record_optimum: true` (they compare the \
                 bound against the analytic optimum trajectory)",
            ));
        }
        if spec.clients.is_none()
            && spec
                .columns
                .iter()
                .any(|c| matches!(c, ColumnSpec::Client(_)))
        {
            return Err(SpecError::new(
                "client columns (goodput_per_s, retry_amplification, …) need a \
                 `clients` section",
            ));
        }
        // Eagerly dry-run the override merges so a typo'd system/control
        // key fails at parse time, not only at compile time.
        let _: SystemConfig = crate::value_util::from_overrides(&spec.system, "system")?;
        let _: alc_tpsim::config::ControlConfig =
            crate::value_util::from_overrides(&spec.control, "control")?;
        // Statically resolve every stored override path (variant
        // set/quick, spec quick, sweep axes) against the schema, so a
        // dead path dies at `scenario validate` time — even the quick
        // paths a full-scale compile would never apply.
        crate::validate::check_override_paths(&spec)?;
        Ok(spec)
    }
}

impl serde::Serialize for ScenarioSpec {
    fn to_value(&self) -> Value {
        let pairs_value =
            |pairs: &[(String, Value)]| Value::Map(pairs.to_vec());
        let cc_value = if let Some(ad) = &self.cc_adaptive {
            Value::Map(vec![("adaptive".into(), ad.to_value())])
        } else if self.cc_phases.is_empty() {
            self.cc.to_value()
        } else {
            let mut phases = vec![Value::Seq(vec![Value::Num(0.0), self.cc.to_value()])];
            phases.extend(
                self.cc_phases
                    .iter()
                    .map(|(t, c)| Value::Seq(vec![Value::Num(*t), c.to_value()])),
            );
            Value::Map(vec![("phases".into(), Value::Seq(phases))])
        };
        let mut m: Vec<(String, Value)> = vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("description".into(), Value::Str(self.description.clone())),
            ("seed".into(), Value::U64(self.seed)),
            ("replications".into(), Value::U64(u64::from(self.replications))),
            ("horizon_ms".into(), Value::Num(self.horizon_ms)),
            ("cc".into(), cc_value),
            ("system".into(), pairs_value(&self.system)),
            ("control".into(), pairs_value(&self.control)),
            ("workload".into(), self.workload.to_value()),
            ("controller".into(), self.controller.to_value()),
            ("record_optimum".into(), Value::Bool(self.record_optimum)),
            ("trajectories".into(), Value::Bool(self.trajectories)),
            ("label_header".into(), Value::Str(self.label_header.clone())),
            (
                "columns".into(),
                Value::Seq(self.columns.iter().map(|c| c.to_value()).collect()),
            ),
        ];
        if !self.faults.is_empty() {
            m.push((
                "faults".into(),
                Value::Seq(
                    self.faults
                        .iter()
                        .map(|f| {
                            let recovery = match &f.recovery {
                                FaultRecovery::Fixed(d) => ("duration".into(), Value::Num(*d)),
                                FaultRecovery::Repair(dist) => ("repair".into(), dist.to_value()),
                            };
                            Value::Map(vec![
                                ("at".into(), Value::Num(f.at_ms)),
                                recovery,
                                ("cpus_down".into(), Value::U64(u64::from(f.cpus_down))),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(c) = &self.clients {
            m.push(("clients".into(), clients_to_value(c)));
        }
        if !self.variants.is_empty() {
            m.push((
                "variants".into(),
                Value::Seq(self.variants.iter().map(|v| v.to_value()).collect()),
            ));
        }
        if let Some(sweep) = &self.sweep {
            let axes = Value::Seq(
                sweep
                    .axes
                    .iter()
                    .map(|a| {
                        let mut am = vec![
                            ("header".to_string(), Value::Str(a.header.clone())),
                            ("path".to_string(), Value::Str(a.path.clone())),
                            ("values".to_string(), Value::Seq(a.values.clone())),
                        ];
                        if let Some(labels) = &a.labels {
                            am.push((
                                "labels".to_string(),
                                Value::Seq(
                                    labels.iter().map(|l| Value::Str(l.clone())).collect(),
                                ),
                            ));
                        }
                        Value::Map(am)
                    })
                    .collect(),
            );
            let mut sm = vec![("axes".to_string(), axes)];
            if let Some(p) = &sweep.pivot {
                sm.push((
                    "pivot".to_string(),
                    Value::Map(vec![
                        ("stat".into(), Value::Str(p.stat.name().to_string())),
                        ("prefix".into(), Value::Str(p.prefix.clone())),
                    ]),
                ));
            }
            m.push(("sweep".into(), Value::Map(sm)));
        }
        if !self.inputs.is_empty() {
            m.push((
                "inputs".into(),
                Value::Map(
                    self.inputs
                        .iter()
                        .map(|(variant, cells)| {
                            (
                                variant.clone(),
                                Value::Map(
                                    cells
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(lf) = &self.label_from {
            m.push(("label_from".into(), Value::Str(lf.clone())));
        }
        if !self.quick.is_empty() {
            m.push(("quick".into(), pairs_value(&self.quick)));
        }
        Value::Map(m)
    }
}

impl<'de> serde::Deserialize<'de> for ScenarioSpec {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        ScenarioSpec::from_value(value).map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl serde::Serialize for AdaptiveCcSpec {
    fn to_value(&self) -> Value {
        let policy = match &self.policy {
            MetaPolicySpec::ConflictThreshold {
                threshold,
                ewma_weight,
            } => Value::Map(vec![(
                "conflict_threshold".into(),
                Value::Map(vec![
                    ("threshold".into(), Value::Num(*threshold)),
                    ("ewma_weight".into(), Value::Num(*ewma_weight)),
                ]),
            )]),
            MetaPolicySpec::RestartRate {
                threshold,
                ewma_weight,
            } => Value::Map(vec![(
                "restart_rate".into(),
                Value::Map(vec![
                    ("threshold".into(), Value::Num(*threshold)),
                    ("ewma_weight".into(), Value::Num(*ewma_weight)),
                ]),
            )]),
            MetaPolicySpec::ShadowScore { ewma_weight } => Value::Map(vec![(
                "shadow_score".into(),
                Value::Map(vec![("ewma_weight".into(), Value::Num(*ewma_weight))]),
            )]),
        };
        Value::Map(vec![
            (
                "candidates".into(),
                Value::Seq(
                    self.candidates
                        .iter()
                        .map(|c| Value::Str(cc_spec_name(*c).to_string()))
                        .collect(),
                ),
            ),
            ("policy".into(), policy),
            ("min_dwell_s".into(), Value::Num(self.min_dwell_s)),
            ("cooldown_s".into(), Value::Num(self.cooldown_s)),
            ("hysteresis".into(), Value::Num(self.hysteresis)),
        ])
    }
}

impl serde::Serialize for VariantSpec {
    fn to_value(&self) -> Value {
        let mut m = vec![("name".to_string(), Value::Str(self.name.clone()))];
        if !self.set.is_empty() {
            m.push(("set".into(), Value::Map(self.set.clone())));
        }
        if !self.quick.is_empty() {
            m.push(("quick".into(), Value::Map(self.quick.clone())));
        }
        Value::Map(m)
    }
}

impl serde::Serialize for WorkloadSpec {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("k".into(), self.k.to_value()),
            ("query_frac".into(), self.query_frac.to_value()),
            ("write_frac".into(), self.write_frac.to_value()),
            ("access_skew".into(), self.access_skew.to_value()),
            (
                "arrival_rate_factor".into(),
                self.arrival_rate_factor.to_value(),
            ),
            (
                "think_time_factor".into(),
                self.think_time_factor.to_value(),
            ),
        ])
    }
}

impl serde::Serialize for ControllerSpec {
    fn to_value(&self) -> Value {
        let tag = |t: &str, payload: Value| Value::Map(vec![(t.to_string(), payload)]);
        match self {
            ControllerSpec::None => Value::Str("none".into()),
            ControllerSpec::Unlimited => Value::Str("unlimited".into()),
            ControllerSpec::Fixed { bound } => tag(
                "fixed",
                Value::Map(vec![("bound".into(), Value::U64(u64::from(*bound)))]),
            ),
            ControllerSpec::FixedAnalyticOptimum { at_ms, n_max } => tag(
                "fixed_analytic_optimum",
                Value::Map(vec![
                    ("at_ms".into(), Value::Num(*at_ms)),
                    ("n_max".into(), Value::U64(u64::from(*n_max))),
                ]),
            ),
            ControllerSpec::Is(p) => tag("is", p.to_value()),
            ControllerSpec::Pa(p) => tag("pa", p.to_value()),
            ControllerSpec::SelfTuningIs { is, outer } => tag(
                "self_tuning_is",
                Value::Map(vec![
                    ("is".into(), is.to_value()),
                    ("outer".into(), outer.to_value()),
                ]),
            ),
            ControllerSpec::SelfTuningPa { pa, outer } => tag(
                "self_tuning_pa",
                Value::Map(vec![
                    ("pa".into(), pa.to_value()),
                    ("outer".into(), outer.to_value()),
                ]),
            ),
            ControllerSpec::Hybrid(p) => tag(
                "hybrid",
                Value::Map(vec![
                    ("is".into(), p.is.to_value()),
                    ("pa".into(), p.pa.to_value()),
                    (
                        "bootstrap_samples".into(),
                        Value::U64(p.bootstrap_samples),
                    ),
                    ("revert_after".into(), Value::U64(u64::from(p.revert_after))),
                    (
                        "revert_window".into(),
                        Value::U64(u64::from(p.revert_window)),
                    ),
                ]),
            ),
            ControllerSpec::Iyer(p) => tag("iyer", p.to_value()),
            ControllerSpec::RetryBudget(p) => tag("retry_budget", p.to_value()),
            ControllerSpec::Tay {
                k,
                min_bound,
                max_bound,
            } => tag(
                "tay",
                Value::Map(vec![
                    ("k".into(), Value::U64(u64::from(*k))),
                    ("min_bound".into(), Value::U64(u64::from(*min_bound))),
                    ("max_bound".into(), Value::U64(u64::from(*max_bound))),
                ]),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_parses_with_defaults() {
        let spec: ScenarioSpec = serde_json::from_str(
            r#"{"name": "mini", "horizon_ms": 1000.0}"#,
        )
        .unwrap();
        assert_eq!(spec.name, "mini");
        assert_eq!(spec.replications, 1);
        assert_eq!(spec.cc, CcKind::Certification);
        assert_eq!(spec.controller, ControllerSpec::None);
        assert_eq!(spec.workload, WorkloadSpec::default());
        assert!(!spec.record_optimum);
    }

    #[test]
    fn unknown_keys_are_rejected_everywhere() {
        for bad in [
            r#"{"name": "x", "horizon_ms": 1.0, "horizn": 2.0}"#,
            r#"{"name": "x", "horizon_ms": 1.0, "workload": {"kk": 8}}"#,
            r#"{"name": "x", "horizon_ms": 1.0, "system": {"terminal": 4}}"#,
            r#"{"name": "x", "horizon_ms": 1.0, "controller": {"is": {"beta2": 1}}}"#,
            r#"{"name": "x", "horizon_ms": 1.0, "columns": ["throughputt"]}"#,
        ] {
            let r: Result<ScenarioSpec, _> = serde_json::from_str(bad);
            assert!(r.is_err(), "accepted bad spec {bad}");
        }
    }

    #[test]
    fn controller_specs_parse_with_partial_params() {
        let spec: ScenarioSpec = serde_json::from_str(
            r#"{"name": "c", "horizon_ms": 1.0,
                "controller": {"is": {"initial_bound": 5, "max_bound": 60}}}"#,
        )
        .unwrap();
        let ControllerSpec::Is(p) = spec.controller else {
            panic!("wrong controller");
        };
        assert_eq!(p.initial_bound, 5);
        assert_eq!(p.max_bound, 60);
        // Unspecified fields keep the crate defaults.
        assert_eq!(p.beta, IsParams::default().beta);
    }

    #[test]
    fn cc_aliases_parse() {
        for (alias, want) in [
            ("certification", CcKind::Certification),
            ("2pl", CcKind::TwoPhaseLocking),
            ("wound-wait", CcKind::WoundWait),
            ("mvto", CcKind::Multiversion),
            ("Certification", CcKind::Certification),
        ] {
            let json = format!(r#"{{"name": "c", "horizon_ms": 1.0, "cc": "{alias}"}}"#);
            let spec: ScenarioSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec.cc, want, "{alias}");
        }
    }

    #[test]
    fn truncating_and_mistyped_integers_are_rejected() {
        for bad in [
            // u32 truncation: 2^32 would silently become 0.
            r#"{"name": "x", "horizon_ms": 1.0, "replications": 4294967296}"#,
            r#"{"name": "x", "horizon_ms": 1.0, "controller": {"fixed": {"bound": 4294967296}}}"#,
            r#"{"name": "x", "horizon_ms": 1.0,
                "controller": {"fixed_analytic_optimum": {"n_max": 4294967296}}}"#,
            r#"{"name": "x", "horizon_ms": 1.0,
                "controller": {"tay": {"k": 4294967296, "max_bound": 60}}}"#,
            // Present-but-mistyped optional fields must error, not
            // silently keep their defaults.
            r#"{"name": "x", "horizon_ms": 1.0,
                "controller": {"fixed_analytic_optimum": {"at_ms": "1e6", "n_max": 100}}}"#,
            r#"{"name": "x", "horizon_ms": 1.0,
                "controller": {"tay": {"k": 4, "min_bound": "two", "max_bound": 60}}}"#,
        ] {
            let r: Result<ScenarioSpec, _> = serde_json::from_str(bad);
            assert!(r.is_err(), "accepted bad spec {bad}");
        }
    }

    #[test]
    fn variant_names_are_filename_safe() {
        for bad in ["cc/2pl", "", "a b"] {
            let json = format!(
                r#"{{"name": "x", "horizon_ms": 1.0, "variants": [{{"name": "{bad}"}}]}}"#
            );
            let r: Result<ScenarioSpec, _> = serde_json::from_str(&json);
            assert!(r.is_err(), "accepted variant name `{bad}`");
        }
        // The dot stays legal: `iyer-0.75` is a real ported label.
        let ok: ScenarioSpec = serde_json::from_str(
            r#"{"name": "x", "horizon_ms": 1.0, "variants": [{"name": "iyer-0.75"}]}"#,
        )
        .unwrap();
        assert_eq!(ok.variants[0].name, "iyer-0.75");
    }

    #[test]
    fn open_arrival_rejects_stray_keys() {
        let r: Result<ScenarioSpec, _> = serde_json::from_str(
            r#"{"name": "x", "horizon_ms": 1.0,
                "system": {"arrival": {"open": {
                    "interarrival": {"exponential": 5}, "rate_per_s": 200}}}}"#,
        );
        assert!(r.is_err(), "stray `rate_per_s` key silently dropped");
    }

    #[test]
    fn offered_load_lowers_to_interarrival_mean() {
        let spec: ScenarioSpec = serde_json::from_str(
            r#"{"name": "x", "horizon_ms": 1.0,
                "system": {"terminals": 80, "offered_load_per_s": 250}}"#,
        )
        .unwrap();
        let sys: SystemConfig = crate::value_util::from_overrides(&spec.system, "system").unwrap();
        let alc_tpsim::config::ArrivalProcess::Open { interarrival } = sys.arrival else {
            panic!("offered load must lower to an open arrival stream");
        };
        assert_eq!(interarrival, alc_des::dist::Dist::exponential(4.0));

        // Both arrival vocabularies at once are ambiguous.
        let r: Result<ScenarioSpec, _> = serde_json::from_str(
            r#"{"name": "x", "horizon_ms": 1.0,
                "system": {"arrival": "closed", "offered_load_per_s": 250}}"#,
        );
        assert!(r.is_err(), "conflicting arrival sources accepted");
        // And the rate must be a positive number.
        let r: Result<ScenarioSpec, _> = serde_json::from_str(
            r#"{"name": "x", "horizon_ms": 1.0,
                "system": {"offered_load_per_s": "fast"}}"#,
        );
        assert!(r.is_err());
    }

    #[test]
    fn seed_belongs_at_top_level() {
        let r: Result<ScenarioSpec, _> = serde_json::from_str(
            r#"{"name": "x", "horizon_ms": 1.0, "system": {"seed": 42}}"#,
        );
        assert!(r.is_err());
    }

    #[test]
    fn cross_field_validations_reject_unsatisfiable_specs() {
        for (bad, why) in [
            (
                r#"{"name": "x", "horizon_ms": 1.0, "columns": [{"input": "alpha"}]}"#,
                "input column without variants",
            ),
            (
                r#"{"name": "x", "horizon_ms": 1.0, "label_from": "alpha"}"#,
                "label_from without variants",
            ),
            (
                r#"{"name": "x", "horizon_ms": 1.0,
                    "variants": [{"name": "a"}],
                    "columns": [{"input": "alpha"}]}"#,
                "input column with no matching cell",
            ),
            (
                r#"{"name": "x", "horizon_ms": 1.0,
                    "columns": ["post_jump_tracking_err"]}"#,
                "tracking column without record_optimum",
            ),
            (
                r#"{"name": "x", "horizon_ms": 1.0,
                    "variants": [{"name": "a"}],
                    "sweep": {"axes": [{"header": "h", "path": "cc",
                                        "values": ["2pl"]}]}}"#,
                "sweep and variants together",
            ),
            (
                r#"{"name": "x", "horizon_ms": 1.0,
                    "sweep": {"axes": [{"header": "h", "path": "system.terminals",
                                        "values": [5, 5]}]}}"#,
                "duplicate axis labels collapse cells",
            ),
            (
                r#"{"name": "x", "horizon_ms": 1.0,
                    "cc": {"phases": [[100.0, "2pl"]]}}"#,
                "cc phases must start at 0",
            ),
            (
                r#"{"name": "x", "horizon_ms": 1.0,
                    "faults": [{"at": 1.0, "cpus_down": 2}]}"#,
                "fault without duration",
            ),
        ] {
            let r: Result<ScenarioSpec, _> = serde_json::from_str(bad);
            assert!(r.is_err(), "accepted bad spec ({why}): {bad}");
        }
    }

    #[test]
    fn cc_phases_parse_and_split() {
        let spec: ScenarioSpec = serde_json::from_str(
            r#"{"name": "x", "horizon_ms": 1.0,
                "cc": {"phases": [[0.0, "certification"], [500.0, "2pl"]]}}"#,
        )
        .unwrap();
        assert_eq!(spec.cc, CcKind::Certification);
        assert_eq!(spec.cc_phases, vec![(500.0, CcKind::TwoPhaseLocking)]);
    }

    #[test]
    fn adaptive_cc_parses_and_pins_initial_protocol() {
        let spec: ScenarioSpec = serde_json::from_str(
            r#"{"name": "a", "horizon_ms": 1.0,
                "cc": {"adaptive": {
                    "candidates": ["certification", "2pl"],
                    "policy": {"conflict_threshold": {"threshold": 0.8}},
                    "min_dwell_s": 30.0,
                    "cooldown_s": 4.0,
                    "hysteresis": 0.2}}}"#,
        )
        .unwrap();
        assert_eq!(spec.cc, CcKind::Certification);
        assert!(spec.cc_phases.is_empty());
        let ad = spec.cc_adaptive.expect("adaptive section");
        assert_eq!(
            ad.candidates,
            vec![CcKind::Certification, CcKind::TwoPhaseLocking]
        );
        assert_eq!(
            ad.policy,
            MetaPolicySpec::ConflictThreshold {
                threshold: 0.8,
                ewma_weight: 0.3
            }
        );
        assert_eq!(ad.min_dwell_s, 30.0);
        let (candidates, policy) = ad.build();
        assert_eq!(candidates.len(), 2);
        assert_eq!(policy.candidate_count(), 2);
        assert_eq!(policy.name(), "conflict-threshold");
    }

    #[test]
    fn adaptive_cc_rejects_malformed_sections() {
        let with_cc = |cc: &str| format!(r#"{{"name": "a", "horizon_ms": 1.0, "cc": {cc}}}"#);
        for (bad, why) in [
            (
                r#"{"adaptive": {"candidates": ["2pl"],
                    "policy": {"shadow_score": {}}, "min_dwell_s": 1.0}}"#,
                "single candidate",
            ),
            (
                r#"{"adaptive": {"candidates": ["2pl", "2pl"],
                    "policy": {"shadow_score": {}}, "min_dwell_s": 1.0}}"#,
                "duplicate candidates",
            ),
            (
                r#"{"adaptive": {"candidates": ["2pl", "mvto"], "min_dwell_s": 1.0}}"#,
                "missing policy",
            ),
            (
                r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                    "policy": {"shadow_score": {}}}}"#,
                "missing min_dwell_s",
            ),
            (
                r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                    "policy": {"shadow_score": {"threshold": 1.0}}, "min_dwell_s": 1.0}}"#,
                "shadow_score takes no threshold",
            ),
            (
                r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                    "policy": {"restart_rate": {"threshold": 1.5}}, "min_dwell_s": 1.0}}"#,
                "abort-ratio threshold >= 1",
            ),
            (
                r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                    "policy": {"conflict_threshold": {"threshold": 0.5}},
                    "min_dwell_s": 1.0, "hysteresis": 1.0}}"#,
                "hysteresis out of range",
            ),
            (
                r#"{"adaptive": {"candidates": ["2pl", "mvto"],
                    "policy": {"conflict_threshold": {"threshold": 0.5}},
                    "min_dwell_s": 1.0, "dwell": 2.0}}"#,
                "unknown field",
            ),
        ] {
            let r: Result<ScenarioSpec, _> = serde_json::from_str(&with_cc(bad));
            assert!(r.is_err(), "accepted bad adaptive section ({why}): {bad}");
        }
    }

    #[test]
    fn adaptive_cc_is_set_addressable() {
        // `--set cc.adaptive.min_dwell_s=5` must reach into the section.
        let mut tree: Value = serde_json::from_str(
            r#"{"name": "a", "horizon_ms": 1.0,
                "cc": {"adaptive": {
                    "candidates": ["certification", "2pl"],
                    "policy": {"conflict_threshold": {"threshold": 0.8}},
                    "min_dwell_s": 30.0}}}"#,
        )
        .unwrap();
        crate::value_util::set_path(&mut tree, "cc.adaptive.min_dwell_s", Value::Num(5.0))
            .unwrap();
        crate::value_util::set_path(
            &mut tree,
            "cc.adaptive.policy.conflict_threshold.threshold",
            Value::Num(2.5),
        )
        .unwrap();
        let spec = ScenarioSpec::from_value(&tree).unwrap();
        let ad = spec.cc_adaptive.unwrap();
        assert_eq!(ad.min_dwell_s, 5.0);
        assert_eq!(
            ad.policy,
            MetaPolicySpec::ConflictThreshold {
                threshold: 2.5,
                ewma_weight: 0.3
            }
        );
    }

    #[test]
    fn switch_derived_columns_parse_and_format() {
        let spec: ScenarioSpec = serde_json::from_str(
            r#"{"name": "a", "horizon_ms": 1.0, "columns": [
                "switch_count",
                {"time_in_protocol": {"cc": "2pl"}},
                {"time_in_protocol": {"cc": "mvto", "header": "mvto_s"}},
                "post_switch_settling_time_s",
                {"post_switch_settling_time_s": {"band": 0.1, "header": "settle"}}
            ]}"#,
        )
        .unwrap();
        let headers: Vec<String> = spec.columns.iter().map(ColumnSpec::header).collect();
        assert_eq!(
            headers,
            vec![
                "switch_count",
                "time_in_protocol:2pl",
                "mvto_s",
                "post_switch_settling_time_s",
                "settle"
            ]
        );
        assert!(spec.columns.iter().all(ColumnSpec::needs_trajectories));
        assert!(!spec.columns.iter().any(ColumnSpec::needs_optimum));

        // Format against a synthetic trace: cert for 0–10 s, 2pl after.
        use alc_tpsim::engine::SwitchEvent;
        let mut traj = Trajectories::new();
        traj.switches.push(SwitchEvent {
            decided_at_ms: 9_000.0,
            completed_at_ms: 10_000.0,
            from: CcKind::Certification,
            to: CcKind::TwoPhaseLocking,
        });
        for i in 0..20 {
            let t = alc_des::SimTime::new(f64::from(i) * 1_000.0);
            // Throughput recovers to 100 (±1) three samples after the swap.
            let v = if i < 13 { 40.0 } else { 100.0 + f64::from(i % 2) };
            traj.throughput.push(t, v);
        }
        let fmt = |col: &ColumnSpec| match col {
            ColumnSpec::Derived(d) => d.format(&traj, 20_000.0, CcKind::Certification),
            _ => unreachable!(),
        };
        assert_eq!(fmt(&spec.columns[0]), "1");
        // 2pl in force from the swap at 10 s to the 20 s horizon.
        assert_eq!(fmt(&spec.columns[1]), "10.0");
        assert_eq!(fmt(&spec.columns[2]), "0");
        // Settles when throughput reaches the final-quarter level at 13 s.
        assert_eq!(fmt(&spec.columns[3]), "3.00");
    }

    #[test]
    fn stat_columns_cover_run_stats() {
        let stats = RunStats {
            duration_ms: 1000.0,
            commits: 10,
            aborts: 2,
            throughput_per_sec: 10.0,
            mean_response_ms: 55.5,
            mean_mpl: 3.3,
            mean_bound: 8.0,
            abort_ratio: 1.0 / 6.0,
            cpu_utilization: 0.5,
            displaced: 1,
            conflicts_per_commit: 0.2,
            lost: 0,
        };
        assert_eq!(StatColumn::Commits.format(&stats), "10");
        assert_eq!(StatColumn::Displaced.format(&stats), "1");
        assert_eq!(StatColumn::ThroughputPerS.format(&stats), "10.0");
        for c in StatColumn::ALL {
            assert_eq!(StatColumn::parse(c.name()).unwrap(), c);
        }
    }
}
