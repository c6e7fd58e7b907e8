//! Criterion micro-benchmarks for the online imputation hot path:
//! `impute_one` through the stored index (brute vs VP-tree) and the
//! allocation-free candidate combination.
//!
//! The brute/vptree pair is asserted bitwise-identical on the benched
//! queries before timing — the index can only change latency, never a
//! value.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use iim_core::{
    combine_candidates, combine_candidates_with, IimConfig, IimModel, IndexChoice, Learning,
    Weighting,
};
use iim_neighbors::brute::{FeatureMatrix, Neighbor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn training_parts(n: usize, m: usize, seed: u64) -> (FeatureMatrix, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n * m).map(|_| rng.gen_range(0.0..100.0)).collect();
    let fm = FeatureMatrix::from_dense(m, (0..n as u32).collect::<Vec<u32>>(), data);
    let ys: Vec<f64> = (0..n)
        .map(|i| fm.point(i).iter().sum::<f64>() + rng.gen_range(-0.5..0.5))
        .collect();
    (fm, ys)
}

fn bench_impute_one(c: &mut Criterion) {
    let (n, m) = (20_000usize, 4usize);
    let (fm, ys) = training_parts(n, m, 1);
    let cfg = |index| IimConfig {
        k: 10,
        learning: Learning::Fixed { ell: 8 },
        index,
        ..IimConfig::default()
    };
    let brute =
        IimModel::learn_from_parts(fm.clone(), &ys, &cfg(IndexChoice::Brute)).expect("finite");
    let vp = IimModel::learn_from_parts(fm, &ys, &cfg(IndexChoice::VpTree)).expect("finite");
    let mut rng = StdRng::seed_from_u64(2);
    let queries: Vec<Vec<f64>> = (0..64)
        .map(|_| (0..m).map(|_| rng.gen_range(0.0..100.0)).collect())
        .collect();
    for q in &queries {
        assert_eq!(
            brute.impute(q).to_bits(),
            vp.impute(q).to_bits(),
            "index variants must serve identical values"
        );
    }

    let mut group = c.benchmark_group("impute_one_n20k_m4_k10");
    for (name, model) in [("brute", &brute), ("vptree", &vp)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), model, |b, model| {
            let mut scratch = iim_core::ImputeScratch::new();
            b.iter(|| {
                for q in &queries {
                    black_box(model.impute_with(q, &mut scratch));
                }
            });
        });
    }
    group.finish();
}

fn bench_combine(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let mut make = |k: usize| -> Vec<(Neighbor, f64)> {
        (0..k as u32)
            .map(|i| {
                (
                    Neighbor {
                        pos: i,
                        dist: rng.gen_range(0.1..2.0),
                    },
                    rng.gen_range(0.0..10.0),
                )
            })
            .collect()
    };
    let k10 = make(10);
    let k40 = make(40);
    c.bench_function("combine_mutual_vote_k10_stack", |b| {
        b.iter(|| black_box(combine_candidates(&k10, Weighting::MutualVote)));
    });
    c.bench_function("combine_mutual_vote_k40_scratch", |b| {
        let mut cx = Vec::new();
        b.iter(|| {
            black_box(combine_candidates_with(
                &k40,
                Weighting::MutualVote,
                &mut cx,
            ))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_impute_one, bench_combine
}
criterion_main!(benches);
