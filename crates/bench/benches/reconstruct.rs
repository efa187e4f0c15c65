//! Evaluation-side benchmarks: the 100-query reconstruction workload that
//! backs every KL figure, and the re-identification experiment of Table II.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use cahd_bench::runs::{prepare, run_cahd, select_sensitive};
use cahd_data::profiles;
use cahd_eval::{evaluate_workload, generate_workload_seeded, reidentification_probability};
use cahd_rcm::UnsymOptions;

fn bench_workload_evaluation(c: &mut Criterion) {
    let prep = prepare(profiles::bms1_like(0.1, 7), UnsymOptions::default());
    let sens = select_sensitive(&prep.data, 10, 20, 11);
    let release = run_cahd(&prep, &sens, 10, 3).unwrap().published;
    let mut g = c.benchmark_group("eval/workload_r");
    g.sample_size(20);
    // r = 12 shows that a query no longer pays 2^r per holder group.
    for r in [2usize, 4, 8, 12] {
        let queries = generate_workload_seeded(&prep.data, &sens, r, 100, 5);
        g.bench_with_input(BenchmarkId::from_parameter(r), &queries, |b, q| {
            b.iter(|| evaluate_workload(&prep.data, &release, q));
        });
    }
    g.finish();
}

fn bench_reidentification(c: &mut Criterion) {
    let data = profiles::bms2_like(0.05, 7);
    let mut g = c.benchmark_group("eval/reident_k");
    g.sample_size(20);
    for k in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(3);
                reidentification_probability(&data, None, k, 2_000, &mut rng)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_workload_evaluation, bench_reidentification);
criterion_main!(benches);
