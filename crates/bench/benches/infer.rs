//! Type-inference benchmarks: scaling in program size and shape,
//! plus the ablations DESIGN.md calls out (derivation recording
//! on/off).

use bsml_bench::{nested_lets, poly_ladder};
use bsml_infer::{initial_env, Inferencer};
use bsml_std::{algorithms, paper_corpus, workloads};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("infer/scaling");
    for n in [8usize, 32, 128] {
        for (shape, src) in [
            ("nested-lets", nested_lets(n)),
            ("poly-ladder", poly_ladder(n)),
        ] {
            let ast = bsml_syntax::parse(&src).unwrap();
            group.bench_with_input(BenchmarkId::new(shape, n), &ast, |b, ast| {
                b.iter(|| bsml_infer::infer(black_box(ast)).expect("types"));
            });
        }
    }
    group.finish();
}

fn bench_stdlib(c: &mut Criterion) {
    let mut group = c.benchmark_group("infer/stdlib");
    for w in workloads::all_basic() {
        let ast = w.ast();
        group.bench_with_input(BenchmarkId::from_parameter(&w.name), &ast, |b, ast| {
            b.iter(|| bsml_infer::infer(black_box(ast)).expect("types"));
        });
    }
    group.finish();
}

fn bench_derivation_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("infer/derivation-ablation");
    let w = workloads::scan_plus_log();
    let ast = w.ast();
    group.bench_function("recording-off", |b| {
        b.iter(|| {
            Inferencer::new()
                .with_derivation(false)
                .run(&initial_env(), black_box(&ast))
                .expect("types")
        });
    });
    group.bench_function("recording-on", |b| {
        b.iter(|| {
            Inferencer::new()
                .with_derivation(true)
                .run(&initial_env(), black_box(&ast))
                .expect("types")
        });
    });
    group.finish();
}

fn bench_locality_ablation(c: &mut Criterion) {
    // The cost of the paper's contribution: constrained inference vs
    // plain Damas–Milner (what OCaml does) on the same programs. PSRS
    // and matvec are the locality-heavy shape: long let-chains of
    // polymorphic, constrained combinators.
    let mut group = c.benchmark_group("infer/locality-ablation");
    for (name, w) in [
        ("bcast-direct", workloads::bcast_direct(0)),
        ("scan-log", workloads::scan_plus_log()),
        ("inner-product", workloads::inner_product(8)),
        ("psrs-48", algorithms::psrs_sort(48)),
        ("matvec-3x3", algorithms::matvec(3, 3)),
    ] {
        let ast = w.ast();
        group.bench_with_input(BenchmarkId::new("constrained", name), &ast, |b, ast| {
            b.iter(|| {
                Inferencer::new()
                    .run(&initial_env(), black_box(ast))
                    .expect("types")
            });
        });
        group.bench_with_input(BenchmarkId::new("plain-dm", name), &ast, |b, ast| {
            b.iter(|| {
                Inferencer::new()
                    .with_locality(false)
                    .run(&initial_env(), black_box(ast))
                    .expect("types")
            });
        });
    }
    group.finish();
}

fn bench_rejection(c: &mut Criterion) {
    // Rejections must be as fast as acceptances (the checker is on
    // the critical path of a compiler).
    let mut group = c.benchmark_group("infer/verdicts");
    for entry in paper_corpus() {
        let ast = entry.ast();
        group.bench_with_input(BenchmarkId::from_parameter(entry.name), &ast, |b, ast| {
            b.iter(|| {
                let _ = black_box(bsml_infer::infer(black_box(ast)));
            });
        });
    }
    group.finish();
}

/// Short measurement windows: the series are for shape comparisons,
/// not microarchitectural precision, and the full suite must run in
/// minutes.
fn short() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(20)
        .configure_from_args()
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_scaling,
    bench_stdlib,
    bench_derivation_ablation,
    bench_locality_ablation,
    bench_rejection
}
criterion_main!(benches);
