//! One bench per `repro` experiment: regenerates each at Quick scale so
//! the report pipeline is exercised and timed by `cargo bench`. The
//! simulator figures are scenario specs; `scenario run --quick` times
//! those.

use criterion::{criterion_group, criterion_main, Criterion};

use alc_bench::{figures, Scale};

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figure_regeneration_quick");
    g.sample_size(10);

    g.bench_function("fig04_pa_fit", |b| b.iter(|| figures::fig04(Scale::Quick)));
    g.bench_function("fig06_memory_shapes", |b| {
        b.iter(|| figures::fig06(Scale::Quick))
    });
    g.bench_function("fig07_flat_hump", |b| {
        b.iter(|| figures::fig07(Scale::Quick, None))
    });
    g.bench_function("fig08_abrupt_change", |b| {
        b.iter(|| figures::fig08(Scale::Quick, None))
    });
    g.bench_function("abl_is_failure", |b| {
        b.iter(|| figures::abl_is_failure(Scale::Quick))
    });
    g.bench_function("abl_interval_sizing", |b| {
        b.iter(|| figures::abl_interval(Scale::Quick))
    });
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
