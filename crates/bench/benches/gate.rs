//! AdaptiveGate acquire/release cost, uncontended and contended — the
//! gate sits on every transaction's admission path — and the same pair
//! through the `ControlLoop` shell that wraps it.

// Benchmarking the live gate is wall-clock work by nature, and bench
// threads may unwrap join handles.
#![allow(clippy::disallowed_methods, clippy::unwrap_used)]

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use alc_core::controller::FixedBound;
use alc_core::gate::AdaptiveGate;
use alc_core::measure::PerfIndicator;
use alc_runtime::{AdmissionPolicy, ControlLoop, Outcome, PaperLaw};

fn bench_gate(c: &mut Criterion) {
    let mut g = c.benchmark_group("gate");

    g.bench_function("try_acquire_release_uncontended", |b| {
        let gate = AdaptiveGate::new(64);
        b.iter(|| {
            let p = gate.try_acquire().expect("free slot");
            black_box(&p);
        });
    });

    g.bench_function("acquire_release_uncontended", |b| {
        let gate = AdaptiveGate::new(64);
        b.iter(|| {
            let p = gate.acquire();
            black_box(&p);
        });
    });

    g.bench_function("set_limit", |b| {
        let gate = AdaptiveGate::new(64);
        let mut v = 64u32;
        b.iter(|| {
            v = if v == 64 { 65 } else { 64 };
            gate.set_limit(black_box(v));
        });
    });

    g.bench_function("acquire_release_4_threads", |b| {
        b.iter_custom(|iters| {
            let gate = Arc::new(AdaptiveGate::new(8));
            let per_thread = iters / 4 + 1;
            let start = std::time::Instant::now();
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let gate = Arc::clone(&gate);
                    std::thread::spawn(move || {
                        for _ in 0..per_thread {
                            let p = gate.acquire_owned();
                            black_box(&p);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            start.elapsed()
        });
    });

    g.finish();
}

/// Runs `threads` workers, each looping admit → complete on one shared
/// shedding loop under a fixed bound of 8 with no sinks, and times the
/// whole batch.
fn shell_pairs(threads: u64, iters: u64) -> std::time::Duration {
    let rt = ControlLoop::new(
        Box::new(PaperLaw::new(Box::new(FixedBound::new(8)))),
        PerfIndicator::Throughput,
        AdmissionPolicy::Shed,
    );
    let per_thread = iters / threads + 1;
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for i in 0..per_thread {
                    let permit = rt.admit().expect("the bound is above the thread count");
                    rt.complete(
                        permit,
                        Outcome::Commit {
                            response_ms: black_box(1.0 + (i % 7) as f64),
                            conflicts: 0,
                        },
                    );
                }
            });
        }
    });
    start.elapsed()
}

fn bench_shell(c: &mut Criterion) {
    let mut g = c.benchmark_group("shell");
    g.bench_function("admit_complete_1_thread", |b| {
        b.iter_custom(|iters| shell_pairs(1, iters));
    });
    g.bench_function("admit_complete_2_threads", |b| {
        b.iter_custom(|iters| shell_pairs(2, iters));
    });
    g.finish();
}

criterion_group!(benches, bench_gate, bench_shell);
criterion_main!(benches);
