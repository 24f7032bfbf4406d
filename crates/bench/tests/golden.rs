//! Determinism pins for the simulation hot path and the `repro` catalog.
//!
//! `direct_sim.jsonl` was generated from the seed implementation
//! (`BinaryHeap` + cancel-set calendar, `HashMap` lock table): any
//! rewrite of the calendar, lock table or engine internals must keep a
//! direct simulator run per CC protocol **byte-identical** — performance
//! work must never change a simulation result. The simulator figures are
//! scenario specs, pinned by `crates/scenario/tests/golden_port.rs`; the
//! CSVs here pin the quick `repro` catalog (controllers driven on
//! analytic and synthetic surfaces, Monte-Carlo interval sizing).
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p alc-bench --test golden`
//! only for changes that intentionally alter simulation behavior, and say
//! so in the commit message.

use std::fs;
use std::path::PathBuf;

use alc_bench::{figures, Scale};
use alc_tpsim::config::{CcKind, ControlConfig};
use alc_tpsim::engine::Simulator;
use alc_tpsim::workload::WorkloadConfig;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn blessing() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some()
}

fn compare_or_bless(name: &str, actual: &[u8]) {
    let golden_path = golden_dir().join(name);
    if blessing() {
        fs::create_dir_all(golden_dir()).expect("create golden dir");
        fs::write(&golden_path, actual).expect("write golden");
        return;
    }
    let golden = fs::read(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", golden_path.display()));
    assert!(
        golden == actual,
        "{name} diverged from the golden output — the hot-path change \
         altered simulation results (rerun with UPDATE_GOLDEN=1 only if \
         this was intentional)"
    );
}

/// Every CSV the quick catalog produces must match the seed bytes.
#[test]
fn quick_catalog_outputs_are_byte_identical() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden-actual");
    let _ = fs::remove_dir_all(&out);
    fs::create_dir_all(&out).expect("create output dir");
    for (_, _, run) in figures::catalog() {
        let report = run(Scale::Quick, Some(out.as_path()));
        report.write_csv(&out).expect("write csv");
    }
    let mut names: Vec<String> = fs::read_dir(&out)
        .expect("read actual dir")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".csv"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "catalog produced no CSVs");
    for name in &names {
        let actual = fs::read(out.join(name)).expect("read actual csv");
        compare_or_bless(name, &actual);
    }
    // No golden CSV may be silently dropped by a catalog change either.
    for entry in fs::read_dir(golden_dir()).expect("read golden dir") {
        let name = entry.expect("dir entry").file_name().into_string().unwrap();
        if name.ends_with(".csv") {
            assert!(
                names.contains(&name),
                "golden {name} no longer produced by the catalog"
            );
        }
    }
}

/// Direct engine runs (stats + controller trajectories) per CC protocol
/// must match the seed bytes: this pins the event order, the RNG draw
/// sequence and the lock-table grant order all at once.
#[test]
fn direct_sim_runs_are_byte_identical() {
    let mut blob = String::new();
    for cc in CcKind::ALL {
        let mut sim = Simulator::new(
            figures::quick_system(40, 0xA11CE),
            WorkloadConfig::default(),
            cc,
            ControlConfig {
                sample_interval_ms: 500.0,
                initial_bound: 12,
                warmup_ms: 2_000.0,
                displacement: true,
                ..ControlConfig::default()
            },
            Some(Box::new(alc_core::controller::IncrementalSteps::new(
                alc_core::controller::IsParams {
                    initial_bound: 12,
                    max_bound: 40,
                    ..alc_core::controller::IsParams::default()
                },
            ))),
        );
        sim.set_record_optimum(false);
        let stats = sim.run(25_000.0);
        let traj = sim.trajectories();
        blob.push_str(&format!(
            "{{\"cc\":{:?},\"stats\":{},\"bound\":{},\"throughput\":{},\"mpl\":{}}}\n",
            cc,
            serde_json::to_string(&stats).expect("stats serialize"),
            serde_json::to_string(&traj.bound).expect("bound serialize"),
            serde_json::to_string(&traj.throughput).expect("throughput serialize"),
            serde_json::to_string(&traj.observed_mpl).expect("mpl serialize"),
        ));
    }
    compare_or_bless("direct_sim.jsonl", blob.as_bytes());
}
