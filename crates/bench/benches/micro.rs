//! Criterion micro-benchmarks for the performance-critical kernels:
//!
//! * `gram_update_vs_scratch` — Proposition 3 / Table III: absorbing `h`
//!   rows incrementally and re-solving must cost O(m²h + m³), independent
//!   of how many rows the model has already seen, while the from-scratch
//!   fit grows linearly with ℓ.
//! * `knn_50k_2d` — brute force vs VP-tree at SN-like scale.
//! * `learn_fixed` — the Algorithm 1 learning phase.
//! * `adaptive_sweep_n4750_m5_l1000` — the Algorithm 3 sweep at the
//!   `offline_fit` shape: 4,750 tuples, 200 candidate ℓ each (step 5 up to
//!   1,000), every candidate solved into scratch and priced on its
//!   validators.
//! * `combine` — the Formula 10–12 candidate vote.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use iim_core::{adaptive_learn, combine_candidates, learn_fixed, AdaptiveConfig, Weighting};
use iim_linalg::{ridge_fit, GramAccumulator};
use iim_neighbors::brute::{FeatureMatrix, Neighbor};
use iim_neighbors::{NeighborOrders, VpTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_rows(n: usize, m: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect())
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 1.0 + x.iter().sum::<f64>() + rng.gen_range(-0.1..0.1))
        .collect();
    (xs, ys)
}

fn bench_gram(c: &mut Criterion) {
    let m = 5;
    let (xs, ys) = random_rows(4096 + 64, m, 1);
    let mut group = c.benchmark_group("gram_update_vs_scratch");
    for &ell in &[64usize, 256, 1024, 4096] {
        // Incremental: absorb h = 50 new rows into an accumulator that
        // already holds ell rows, then solve — cost must not grow with ell.
        group.bench_with_input(BenchmarkId::new("incremental_h50", ell), &ell, |b, &ell| {
            let mut base = GramAccumulator::new(m);
            for i in 0..ell {
                base.add_row(&xs[i], ys[i]);
            }
            b.iter(|| {
                let mut acc = base.clone();
                for i in ell..ell + 50 {
                    acc.add_row(&xs[i], ys[i]);
                }
                black_box(acc.solve(1e-6).unwrap());
            });
        });
        // From scratch: refit the whole prefix — cost grows linearly.
        group.bench_with_input(BenchmarkId::new("scratch", ell), &ell, |b, &ell| {
            b.iter(|| {
                black_box(
                    ridge_fit(xs[..ell].iter().map(|v| v.as_slice()), &ys[..ell], 1e-6).unwrap(),
                );
            });
        });
    }
    group.finish();
}

fn bench_knn(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let n = 50_000;
    let data: Vec<f64> = (0..n * 2).map(|_| rng.gen_range(0.0..100.0)).collect();
    let fm = FeatureMatrix::from_dense(2, (0..n as u32).collect::<Vec<u32>>(), data);
    let tree = VpTree::build(fm.clone());
    let queries: Vec<[f64; 2]> = (0..64)
        .map(|_| [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)])
        .collect();

    let mut group = c.benchmark_group("knn_50k_2d");
    group.bench_function("brute", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            for q in &queries {
                fm.knn_into(q, 10, &mut out);
                black_box(&out);
            }
        });
    });
    group.bench_function("vptree", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            for q in &queries {
                tree.knn_into(q, 10, &mut out);
                black_box(&out);
            }
        });
    });
    group.finish();
}

fn bench_learning(c: &mut Criterion) {
    let (xs, ys) = random_rows(2000, 4, 3);
    let flat: Vec<f64> = xs.iter().flatten().copied().collect();
    let fm = FeatureMatrix::from_dense(4, (0..2000u32).collect::<Vec<u32>>(), flat);
    let orders = NeighborOrders::build(&fm, 100);
    c.bench_function("learn_fixed_l50_n2000_m4", |b| {
        b.iter(|| black_box(learn_fixed(&fm, &ys, &orders, 50, 1e-6, 1).expect("finite")));
    });
}

fn bench_adaptive_sweep(c: &mut Criterion) {
    let n = 4750;
    let (xs, ys) = random_rows(n, 5, 5);
    let flat: Vec<f64> = xs.iter().flatten().copied().collect();
    let fm = FeatureMatrix::from_dense(5, (0..n as u32).collect::<Vec<u32>>(), flat);
    let orders = NeighborOrders::build(&fm, 1000);
    let cfg = AdaptiveConfig {
        step: 5,
        ell_max: Some(1000),
        incremental: true,
        validation_k: Some(10),
    };
    let mut group = c.benchmark_group("adaptive_sweep_n4750_m5_l1000");
    group.bench_function("incremental_h5", |b| {
        b.iter(|| black_box(adaptive_learn(&fm, &ys, &orders, 10, &cfg, 1e-6, 1)));
    });
    group.finish();
}

fn bench_combine(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let cands: Vec<(Neighbor, f64)> = (0..10)
        .map(|i| {
            (
                Neighbor {
                    pos: i,
                    dist: rng.gen_range(0.1..2.0),
                },
                rng.gen_range(0.0..10.0),
            )
        })
        .collect();
    c.bench_function("combine_mutual_vote_k10", |b| {
        b.iter(|| black_box(combine_candidates(&cands, Weighting::MutualVote)));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gram, bench_knn, bench_learning, bench_adaptive_sweep, bench_combine
}
criterion_main!(benches);
