//! `repro` — regenerates the figures of Heiss & Wagner (VLDB 1991) that
//! are not simulator runs (the simulator figures are scenario specs:
//! `scenario run scenarios/<id>.json`).
//!
//! ```text
//! repro [--quick] [--out DIR] all
//! repro [--quick] [--out DIR] fig04 fig07 …
//! repro list
//! ```
//!
//! Tables print to stdout; per-figure CSVs (and trajectory CSVs for the
//! dynamic experiments) land in `--out` (default `results/`).

use std::path::PathBuf;

use alc_bench::figures;
use alc_bench::Scale;

/// What gets written to `<out>/run_manifest.json`: enough to rerun the
/// batch. Scale + experiment ids fully determine every run (each figure
/// derives its system/seed from the scale); `control` is the shared
/// measurement/control configuration at that scale, recorded for
/// inspection (the serde derives on the config types make it storable).
#[derive(serde::Serialize, serde::Deserialize)]
struct RunManifest {
    scale: String,
    experiments: Vec<String>,
    control: alc_tpsim::config::ControlConfig,
}

use figures::catalog;

fn usage() {
    println!("usage: repro [--quick] [--out DIR] <all | list | fig04 fig07 ...>");
    println!();
    println!("  --quick      CI-scale configuration (seconds instead of minutes)");
    println!("  --out DIR    CSV output directory (default: results/)");
    println!("  list         print the experiment catalog");
    println!("  all          run every experiment");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut out_dir = PathBuf::from("results");
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => {
                usage();
                return;
            }
            "--quick" => scale = Scale::Quick,
            "--out" => {
                out_dir = PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                }));
            }
            "list" => {
                for (id, title, _) in catalog() {
                    println!("{id:<18} {title}");
                }
                return;
            }
            "all" => selected.extend(catalog().iter().map(|(id, _, _)| id.to_string())),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty() {
        usage();
        eprintln!("\nerror: no experiment selected");
        std::process::exit(2);
    }

    // Resolve every selection before any output lands on disk.
    let catalog = catalog();
    let runs: Vec<_> = selected
        .iter()
        .map(|want| {
            catalog
                .iter()
                .find(|(id, _, _)| id == want)
                .unwrap_or_else(|| {
                    eprintln!("unknown experiment `{want}` — try `repro list`");
                    std::process::exit(2);
                })
        })
        .collect();

    let manifest = RunManifest {
        scale: format!("{scale:?}"),
        experiments: selected.clone(),
        control: alc_bench::figures::control(scale),
    };
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    std::fs::write(
        out_dir.join("run_manifest.json"),
        serde_json::to_string_pretty(&manifest).expect("serialize manifest"),
    )
    .expect("write run_manifest.json");

    for (id, _, run) in runs {
        #[allow(clippy::disallowed_methods)] // CLI progress timing, not simulation time
        let start = std::time::Instant::now();
        let report = run(scale, Some(out_dir.as_path()));
        let csv = report.write_csv(&out_dir).expect("write csv");
        println!("{}", report.render());
        println!(
            "  [{} in {:.1}s, table → {}]\n",
            id,
            start.elapsed().as_secs_f64(),
            csv.display()
        );
    }
}
