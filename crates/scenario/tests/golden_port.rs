//! Golden pins for the checked-in scenario specs at quick (CI) scale.
//!
//! Every simulator figure of the paper — Figures 1, 2, 3, 12, 13 and 14,
//! the §6 indicator comparison, the §9 sinusoid — and every ablation that
//! runs the engine is a spec under `scenarios/`. The CSVs under
//! `tests/golden/` named after those figures were recorded from the
//! hand-written Rust generators the specs replaced; matching them proves
//! the ports kept the same seeds, the same configuration lowering and the
//! same engine runs.
//!
//! Three kinds of pin:
//!
//! * **Byte pins** — the spec's report or trajectory CSV equals the
//!   golden byte-for-byte (`fig02`, `abl-restart`, the seven ablation
//!   tables, the fig03/fig13/fig14/sinus trajectories, and the
//!   fault-repair and overload catalog, whose goldens were recorded from
//!   their specs directly).
//! * **Legacy-cell pins** — the generators' tables did not always have
//!   the report's shape: a header was named differently (`fig01`), one
//!   row held several runs (`fig12`, `abl-open`, `abl-hotspot`), or a
//!   cell was analysis across runs or over a trajectory (`sec6`'s
//!   prominences, `fig03`'s direction changes, the fig13/fig14/sinus
//!   summaries, `abl-hotspot`'s analytic columns). [`assert_legacy_cells`]
//!   checks every cell of such a CSV against the report cell it maps to,
//!   or against the same arithmetic recomputed here from the run's
//!   full-precision statistics and trajectories.
//! * **End-to-end floor** — every checked-in spec compiles and runs.
//!
//! `UPDATE_GOLDEN=1` re-blesses every pin from the current run — only for
//! *deliberate* realization changes, never to paper over an unexplained
//! divergence.

use std::path::{Path, PathBuf};

use alc_bench::report::Report;
use alc_bench::table::num;
use alc_scenario::compile::RunPlan;
use alc_scenario::runner::{build_report, run_plan, write_trajectories, RunRecord};
use alc_scenario::spec::ControllerSpec;
use alc_scenario::LoadedSpec;
use alc_tpsim::engine::Trajectories;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn blessing() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some()
}

fn compare_or_bless(golden_path: &Path, actual: &[u8], diverged_msg: &str) {
    if blessing() {
        std::fs::write(golden_path, actual).expect("write golden");
        return;
    }
    let golden = std::fs::read(golden_path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", golden_path.display()));
    assert!(golden == actual, "{diverged_msg}");
}

/// A checked-in spec run at quick scale, with its report.
struct QuickRun {
    plan: RunPlan,
    records: Vec<RunRecord>,
    report: Report,
}

impl QuickRun {
    fn new(spec_name: &str) -> Self {
        let path = scenarios_dir().join(format!("{spec_name}.json"));
        let loaded = LoadedSpec::read(&path).expect("read spec");
        let plan = loaded.compile(true).expect("compile quick");
        let records = run_plan(&plan);
        let report = build_report(&plan, &records);
        QuickRun {
            plan,
            records,
            report,
        }
    }

    /// The report cell in column `col`, row `row`.
    fn cell(&self, col: &str, row: usize) -> String {
        let c = self
            .report
            .headers
            .iter()
            .position(|h| h == col)
            .unwrap_or_else(|| panic!("{}: no report column `{col}`", self.plan.name));
        self.report.rows[row][c].clone()
    }

    /// Index of the long-format sweep cell at first-axis index `row`
    /// and last-axis label `last` (rows are row-major, last axis
    /// fastest).
    fn sweep_index(&self, row: usize, last: &str) -> usize {
        let sweep = self.plan.sweep.as_ref().expect("a sweep spec");
        let labels = &sweep.axes.last().expect("sweep axes").1;
        let j = labels
            .iter()
            .position(|l| l == last)
            .unwrap_or_else(|| panic!("{}: no last-axis label `{last}`", self.plan.name));
        row * labels.len() + j
    }

    /// Column `col` of the long-format sweep row `(row, last)`.
    fn sweep_cell(&self, row: usize, last: &str, col: &str) -> String {
        self.cell(col, self.sweep_index(row, last))
    }

    /// The trajectories of record `i` (the spec must record them).
    fn trajectories(&self, i: usize) -> &Trajectories {
        self.records[i]
            .trajectories
            .as_ref()
            .expect("spec records trajectories")
    }
}

/// Checks every cell of the legacy golden `golden_csv` against
/// `expected(column header, row index)` — a report cell the legacy cell
/// maps to, or a value recomputed from the run. Under `UPDATE_GOLDEN`
/// the golden is rewritten from `expected` in the same layout.
fn assert_legacy_cells(golden_csv: &str, expected: impl Fn(&str, usize) -> String) {
    let path = golden_dir().join(golden_csv);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    let mut lines = text.lines();
    let headers: Vec<&str> = lines.next().expect("header row").split(',').collect();
    let mut rebuilt = format!("{}\n", headers.join(","));
    for (row, line) in lines.enumerate() {
        let cells: Vec<&str> = line.split(',').collect();
        assert_eq!(
            cells.len(),
            headers.len(),
            "{golden_csv}: row {row} is ragged"
        );
        let actual: Vec<String> = headers.iter().map(|h| expected(h, row)).collect();
        if !blessing() {
            for ((h, want), got) in headers.iter().zip(&cells).zip(&actual) {
                assert_eq!(
                    got, want,
                    "{golden_csv}: column `{h}`, row {row} diverged from the legacy cell"
                );
            }
        }
        rebuilt.push_str(&actual.join(","));
        rebuilt.push('\n');
    }
    compare_or_bless(&path, rebuilt.as_bytes(), &format!("{golden_csv} diverged"));
}

/// Checks a `metric,value` legacy table row by row against `rows`.
fn assert_legacy_metrics(golden_csv: &str, rows: &[(&str, String)]) {
    assert_legacy_cells(golden_csv, |col, row| match col {
        "metric" => rows[row].0.to_string(),
        "value" => rows[row].1.clone(),
        other => panic!("{golden_csv}: unexpected column `{other}`"),
    });
}

fn assert_trajectories_match(spec_name: &str, golden_names: &[&str], out_tag: &str) {
    let run = QuickRun::new(spec_name);
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out_tag);
    let _ = std::fs::remove_dir_all(&out);
    let written = write_trajectories(&run.plan, &run.records, &out).expect("write csvs");
    assert_eq!(
        written,
        golden_names
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>(),
        "{spec_name}: unexpected trajectory file set"
    );
    for name in golden_names {
        let actual = std::fs::read(out.join(name)).expect("read actual");
        compare_or_bless(
            &golden_dir().join(name),
            &actual,
            &format!("{name} diverged from its golden trajectory"),
        );
    }
}

/// The spec's quick report CSV vs `tests/golden/<spec_name>.csv`;
/// returns the run for further checks.
fn assert_report_matches(spec_name: &str) -> QuickRun {
    let run = QuickRun::new(spec_name);
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("report-{spec_name}"));
    let _ = std::fs::remove_dir_all(&out);
    let path = run.report.write_csv(Path::new(&out)).expect("write csv");
    let actual = std::fs::read(&path).expect("read actual");
    compare_or_bless(
        &golden_dir().join(format!("{spec_name}.csv")),
        &actual,
        &format!("{spec_name}.csv diverged from its golden report table"),
    );
    run
}

/// Mean |bound − n_opt|, mean bound and mean n_opt over the bound
/// samples from `from_frac` of the run on (samples without a finite
/// optimum skipped).
fn tail_tracking(traj: &Trajectories, from_frac: f64) -> (f64, f64, f64) {
    let pts = traj.bound.points();
    let start = ((pts.len() as f64) * from_frac) as usize;
    let (mut err, mut bound_mean, mut opt_mean, mut n) = (0.0, 0.0, 0.0, 0.0);
    for &(t, b) in &pts[start..] {
        let opt = traj
            .optimum
            .value_at(alc_des::SimTime::new(t))
            .unwrap_or(f64::NAN);
        if opt.is_finite() {
            err += (b - opt).abs();
            bound_mean += b;
            opt_mean += opt;
            n += 1.0;
        }
    }
    (err / n, bound_mean / n, opt_mean / n)
}

/// The Figure 13/14 jump summary: optimum before/after the mid-run
/// jump, pre-jump (last quarter before it) and post-jump (last quarter
/// of the run) mean bounds, intervals until the bound first comes
/// within 25% of the new optimum, and the post-jump tracking error.
fn jump_summary(run: &QuickRun) -> Vec<(&'static str, String)> {
    let traj = run.trajectories(0);
    let horizon = run.plan.variants[0].horizon_ms;
    let pts = traj.bound.points();
    let jump = pts
        .iter()
        .position(|&(t, _)| t >= horizon / 2.0)
        .unwrap_or(pts.len() / 2);
    let mean = |v: &[(f64, f64)]| v.iter().map(|&(_, b)| b).sum::<f64>() / v.len().max(1) as f64;
    let post_start = jump + (pts.len() - jump) * 3 / 4;
    let post = &pts[post_start..];
    let opt_pre = traj
        .optimum
        .value_at(alc_des::SimTime::new(pts[jump.saturating_sub(1)].0))
        .unwrap_or(f64::NAN);
    let opt_post = traj.optimum.last_value().unwrap_or(f64::NAN);
    let response = pts[jump..]
        .iter()
        .position(|&(_, b)| (b - opt_post).abs() <= 0.25 * opt_post);
    let post_err =
        post.iter().map(|&(_, b)| (b - opt_post).abs()).sum::<f64>() / post.len().max(1) as f64;
    vec![
        ("samples", pts.len().to_string()),
        ("optimum_before", num(opt_pre)),
        ("optimum_after", num(opt_post)),
        (
            "pre_jump_mean_bound",
            num(mean(&pts[jump - jump / 4..jump])),
        ),
        ("post_jump_mean_bound", num(mean(post))),
        (
            "response_intervals_to_25%",
            response.map_or("never".into(), |x| x.to_string()),
        ),
        ("post_tracking_error", num(post_err)),
        ("throughput_per_s", run.cell("throughput_per_s", 0)),
        ("abort_ratio", run.cell("abort_ratio", 0)),
    ]
}

#[test]
fn fig01_port_pins_every_legacy_cell() {
    let run = QuickRun::new("fig01");
    assert_legacy_cells("fig01.csv", |col, row| {
        let col = match col {
            "response_ms" => "mean_response_ms",
            "cpu_util" => "cpu_utilization",
            c => c,
        };
        run.cell(col, row)
    });
}

#[test]
fn fig02_port_reproduces_golden_table() {
    assert_report_matches("fig02");
}

#[test]
fn fig03_port_reproduces_golden_trajectory() {
    assert_trajectories_match("fig03", &["fig03_trajectory.csv"], "port-fig03");
}

#[test]
fn fig03_port_pins_every_legacy_cell() {
    let run = QuickRun::new("fig03");
    let traj = run.trajectories(0);
    let pts = traj.bound.points();
    // Zig-zag: direction changes of the bound over the second half. An
    // unchanged bound counts as a step up, as in the legacy generator
    // (whose `signum` of a zero step is +1).
    let ups: Vec<bool> = pts[pts.len() / 2..]
        .windows(2)
        .map(|w| w[1].1 >= w[0].1)
        .collect();
    let flips = ups.windows(2).filter(|d| d[0] != d[1]).count();
    let (err, bound_mean, opt_mean) = tail_tracking(traj, 0.5);
    assert_legacy_metrics(
        "fig03.csv",
        &[
            ("samples", pts.len().to_string()),
            ("direction_changes_2nd_half", flips.to_string()),
            ("tail_mean_bound", num(bound_mean)),
            ("analytic_optimum", num(opt_mean)),
            ("tail_mean_abs_error", num(err)),
            ("throughput_per_s", run.cell("throughput_per_s", 0)),
        ],
    );
}

#[test]
fn fig12_port_pins_every_legacy_cell() {
    let run = QuickRun::new("fig12");
    assert_legacy_cells("fig12.csv", |col, row| match col {
        "offered_load_N" => run.sweep_cell(row, "unlimited", "offered_load_N"),
        "T_without_control" => run.sweep_cell(row, "unlimited", "throughput_per_s"),
        "T_with_PA" => run.sweep_cell(row, "PA", "throughput_per_s"),
        "T_with_IS" => run.sweep_cell(row, "IS", "throughput_per_s"),
        "mpl_without" => run.sweep_cell(row, "unlimited", "mean_mpl"),
        "bound_PA" => run.sweep_cell(row, "PA", "mean_bound"),
        other => panic!("fig12.csv: unexpected column `{other}`"),
    });
}

#[test]
fn fig13_port_reproduces_golden_trajectory() {
    assert_trajectories_match("fig13", &["fig13_trajectory.csv"], "port-fig13");
}

#[test]
fn fig13_port_pins_every_legacy_cell() {
    assert_legacy_metrics("fig13.csv", &jump_summary(&QuickRun::new("fig13")));
}

#[test]
fn fig14_port_reproduces_golden_trajectory() {
    assert_trajectories_match("fig14", &["fig14_trajectory.csv"], "port-fig14");
}

#[test]
fn fig14_port_pins_every_legacy_cell() {
    assert_legacy_metrics("fig14.csv", &jump_summary(&QuickRun::new("fig14")));
}

#[test]
fn sec6_port_pins_every_legacy_cell() {
    let run = QuickRun::new("sec6");
    let stats: Vec<_> = run.records.iter().map(|r| r.stats).collect();
    // The §6 indicator curves over the bound sweep, all "larger is
    // better".
    let curves: [(&str, Vec<f64>); 4] = [
        (
            "throughput",
            stats.iter().map(|s| s.throughput_per_sec).collect(),
        ),
        (
            "inv_response",
            stats
                .iter()
                .map(|s| {
                    if s.mean_response_ms > 0.0 {
                        1000.0 / s.mean_response_ms
                    } else {
                        0.0
                    }
                })
                .collect(),
        ),
        (
            "eff_throughput",
            stats
                .iter()
                .map(|s| s.throughput_per_sec * (1.0 - s.abort_ratio))
                .collect(),
        ),
        (
            "neg_conflicts",
            stats.iter().map(|s| -s.conflicts_per_commit).collect(),
        ),
    ];
    // Per indicator: the bound at its maximum, and the drop from the
    // maximum to each end of the curve as a percentage of its span.
    let rows: Vec<[String; 4]> = curves
        .iter()
        .map(|(name, ys)| {
            let (imax, &ymax) = ys
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty sweep");
            let span = ys.iter().fold(f64::MIN, |a, &b| a.max(b))
                - ys.iter().fold(f64::MAX, |a, &b| a.min(b));
            let prominence = |end: f64| {
                if span > 0.0 {
                    100.0 * (ymax - end) / span
                } else {
                    0.0
                }
            };
            [
                name.to_string(),
                run.cell("mpl_bound", imax),
                num(prominence(ys[0])),
                num(prominence(ys[ys.len() - 1])),
            ]
        })
        .collect();
    assert_legacy_cells("sec6.csv", |col, row| {
        let c = match col {
            "indicator" => 0,
            "argmax_bound" => 1,
            "left_prominence_%" => 2,
            "right_prominence_%" => 3,
            other => panic!("sec6.csv: unexpected column `{other}`"),
        };
        rows[row][c].clone()
    });
}

#[test]
fn sinus_port_reproduces_both_golden_trajectories() {
    assert_trajectories_match(
        "sinus",
        &["sinus_IS_trajectory.csv", "sinus_PA_trajectory.csv"],
        "port-sinus",
    );
}

#[test]
fn sinus_port_pins_every_legacy_cell() {
    let run = QuickRun::new("sinus");
    assert_legacy_cells("sinus.csv", |col, row| {
        let (err, _, opt_mean) = tail_tracking(run.trajectories(row), 0.33);
        match col {
            "controller" => run.records[row].label.clone(),
            "tracking_error" => num(err),
            "tracking_error_%_of_opt" => num(100.0 * err / opt_mean),
            "throughput_per_s" | "abort_ratio" => run.cell(col, row),
            other => panic!("sinus.csv: unexpected column `{other}`"),
        }
    });
}

#[test]
fn abl_restart_port_reproduces_golden_table() {
    assert_report_matches("abl-restart");
}

#[test]
fn abl_hotspot_port_pins_every_legacy_cell() {
    let run = QuickRun::new("abl-hotspot");
    assert_legacy_cells("abl-hotspot.csv", |col, row| {
        // The analytic columns come from the fixed-bound cell's own
        // compiled system, workload and optimum search limit.
        let v = &run.plan.variants[run.sweep_index(row, "analytic_opt")];
        let ControllerSpec::FixedAnalyticOptimum { at_ms, n_max } = v.controller else {
            panic!("abl-hotspot: `analytic_opt` cell is not a fixed analytic optimum");
        };
        match col {
            "skew_theta" => run.sweep_cell(row, "PA", "skew_theta"),
            "effective_db" => num(alc_analytic::occ::effective_db_size(
                v.sys.db_size,
                v.workload.at(at_ms).access_skew,
            )),
            "analytic_opt" => v
                .workload
                .analytic_optimum(at_ms, &v.sys, n_max)
                .to_string(),
            "T_at_analytic_opt" => run.sweep_cell(row, "analytic_opt", "throughput_per_s"),
            "T_with_PA" => run.sweep_cell(row, "PA", "throughput_per_s"),
            "PA_mean_bound" => run.sweep_cell(row, "PA", "mean_bound"),
            other => panic!("abl-hotspot.csv: unexpected column `{other}`"),
        }
    });
}

#[test]
fn abl_open_port_pins_every_legacy_cell() {
    let run = QuickRun::new("abl-open");
    assert_legacy_cells("abl-open.csv", |col, row| match col {
        "offered_per_s" => run.sweep_cell(row, "PA", "offered_per_s"),
        "T_uncontrolled" => run.sweep_cell(row, "unlimited", "throughput_per_s"),
        "T_with_PA" => run.sweep_cell(row, "PA", "throughput_per_s"),
        "resp_uncontrolled_ms" => run.sweep_cell(row, "unlimited", "mean_response_ms"),
        "resp_PA_ms" => run.sweep_cell(row, "PA", "mean_response_ms"),
        "lost_uncontrolled" => run.sweep_cell(row, "unlimited", "lost"),
        "lost_PA" => run.sweep_cell(row, "PA", "lost"),
        other => panic!("abl-open.csv: unexpected column `{other}`"),
    });
}

#[test]
fn abl_victim_port_reproduces_golden_table() {
    assert_report_matches("abl-victim");
}

#[test]
fn abl_rules_port_reproduces_golden_table() {
    assert_report_matches("abl-rules");
}

#[test]
fn abl_dither_port_reproduces_golden_table() {
    assert_report_matches("abl-dither");
}

#[test]
fn abl_alpha_port_reproduces_golden_table() {
    assert_report_matches("abl-alpha");
}

#[test]
fn abl_displacement_port_reproduces_golden_table() {
    assert_report_matches("abl-displacement");
}

#[test]
fn abl_hybrid_port_reproduces_golden_table() {
    assert_report_matches("abl-hybrid");
}

#[test]
fn abl_cc_sweep_port_reproduces_golden_table() {
    assert_report_matches("abl-cc");
}

/// The `repair` fault vocabulary is golden-pinned: sampled
/// mean-time-to-repair outages must stay byte-identical across builds
/// (the draws come from each replication's dedicated `fault_repair`
/// RNG substream, so nothing else in the engine can shift them).
#[test]
fn fault_repair_spec_reproduces_its_golden_table() {
    let run = assert_report_matches("fault-repair");
    let vp = &run.plan.variants[0];
    assert!(
        vp.fault_schedules.is_some(),
        "repair faults must lower to per-replication timelines"
    );
    // The two replications sample different outage lengths.
    let per_rep = vp.fault_schedules.as_ref().unwrap();
    assert_ne!(per_rep[0], per_rep[1], "replications shared repair draws");
}

/// The overload catalog is golden-pinned: client-side counters, retry
/// amplification, the `never`/prompt recovery verdicts, and the
/// retry-budget gate's mean bound must stay byte-identical. These CSVs
/// encode the paper's metastability demonstration — any engine or
/// client-state-machine drift snaps one of them.
#[test]
fn retry_storm_spec_reproduces_its_golden_table() {
    assert_report_matches("retry-storm");
}

#[test]
fn retry_shed_spec_reproduces_its_golden_table() {
    assert_report_matches("retry-shed");
}

#[test]
fn metastable_fault_spec_reproduces_its_golden_table() {
    assert_report_matches("metastable-fault");
}

/// Every checked-in spec must compile (full + quick) and the whole
/// catalog must run end-to-end at quick scale — the acceptance floor for
/// "a new experiment is a JSON file".
#[test]
fn all_checked_in_specs_run_end_to_end_quick() {
    let mut names: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 33,
        "expected at least 33 checked-in scenario specs, found {}",
        names.len()
    );
    for path in names {
        let loaded = LoadedSpec::read(&path).expect("read spec");
        loaded
            .compile(false)
            .unwrap_or_else(|e| panic!("{} does not compile at full scale: {e}", path.display()));
        let plan = loaded
            .compile(true)
            .unwrap_or_else(|e| panic!("{} does not compile at quick scale: {e}", path.display()));
        let records = run_plan(&plan);
        assert!(!records.is_empty(), "{}: no runs", path.display());
        for r in &records {
            assert!(
                r.stats.commits > 0,
                "{}: variant `{}` starved (0 commits)",
                path.display(),
                r.label
            );
        }
    }
}
