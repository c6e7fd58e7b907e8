//! Criterion micro-benchmarks for the neighbor-search substrate: the
//! brute scan vs the owned VP-tree behind [`NeighborIndex`],
//! the blocked distance kernels, and the flat-buffer neighbor-orders
//! build the offline phase runs on.
//!
//! Every search benchmark first asserts the paths agree bitwise on the
//! benched workload — the determinism contract is checked where the
//! numbers are produced. Two data shapes are benched: iid-uniform (no
//! index can prune much past m≈4 — the curse of dimensionality) and a
//! two-factor latent model (intrinsic dimension ~2, the correlated shape
//! real relations have, where tree pruning keeps paying at higher m).
//! The orders-build groups bench both sides of the depth cutover
//! (`SELECT_DEPTH_RATIO`): depth 32 over 4,096 points stays on the tree,
//! depth 1,000 over 4,750 (the `offline_fit` shape) takes the selection.
//!
//! CI smoke-runs this whole file with `cargo bench -- --quick`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use iim_neighbors::brute::{FeatureMatrix, Neighbor};
use iim_neighbors::orders::SELECT_DEPTH_RATIO;
use iim_neighbors::{
    sq_dist_f, sq_dist_many, IndexChoice, KnnScratch, NeighborIndex, NeighborOrders,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;

fn random_matrix(n: usize, m: usize, seed: u64) -> FeatureMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n * m).map(|_| rng.gen_range(0.0..100.0)).collect();
    FeatureMatrix::from_dense(m, (0..n as u32).collect::<Vec<u32>>(), data)
}

/// Two shared latent factors + per-feature noise: intrinsic dimension ~2
/// at any ambient m.
fn latent_matrix(n: usize, m: usize, seed: u64) -> FeatureMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * m);
    for _ in 0..n {
        let t = rng.gen_range(0.0..100.0f64);
        let u = rng.gen_range(0.0..100.0f64);
        for j in 0..m {
            let a = 0.3 + 0.6 * ((j as f64 * 0.37).sin().abs());
            let b = 1.0 - a * 0.5;
            data.push(a * t + b * u + rng.gen_range(-2.0..2.0));
        }
    }
    FeatureMatrix::from_dense(m, (0..n as u32).collect::<Vec<u32>>(), data)
}

fn bench_knn_group(c: &mut Criterion, group_name: &str, cells: &[(usize, usize, FeatureMatrix)]) {
    let mut group = c.benchmark_group(group_name);
    for (n, m, fm) in cells {
        let (n, m) = (*n, *m);
        let brute = NeighborIndex::build(fm.clone(), IndexChoice::Brute);
        let vp = NeighborIndex::build(fm.clone(), IndexChoice::VpTree);
        let mut rng = StdRng::seed_from_u64(13);
        let queries: Vec<Vec<f64>> = (0..64)
            .map(|_| (0..m).map(|_| rng.gen_range(0.0..100.0)).collect())
            .collect();
        // Bitwise parity on the benched workload before timing it.
        for q in &queries {
            for (x, y) in brute.knn(q, 10).iter().zip(&vp.knn(q, 10)) {
                assert_eq!(x.pos, y.pos);
                assert_eq!(x.dist.to_bits(), y.dist.to_bits());
            }
        }
        for (name, index) in [("brute", &brute), ("vptree", &vp)] {
            group.bench_with_input(
                BenchmarkId::new(name, format!("n{n}_m{m}")),
                index,
                |b, index| {
                    let mut scratch = KnnScratch::new();
                    let mut out = Vec::new();
                    b.iter(|| {
                        for q in &queries {
                            index.knn_with(q, 10, &mut scratch, &mut out);
                            black_box(&out);
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_index_knn(c: &mut Criterion) {
    let uniform: Vec<(usize, usize, FeatureMatrix)> =
        [(10_000usize, 2usize), (10_000, 8), (50_000, 4)]
            .iter()
            .map(|&(n, m)| (n, m, random_matrix(n, m, 7)))
            .collect();
    bench_knn_group(c, "index_knn_k10_uniform", &uniform);

    let latent: Vec<(usize, usize, FeatureMatrix)> =
        [(10_000usize, 8usize), (50_000, 8), (10_000, 12)]
            .iter()
            .map(|&(n, m)| (n, m, latent_matrix(n, m, 7)))
            .collect();
    bench_knn_group(c, "index_knn_k10_latent", &latent);
}

fn bench_dist_kernels(c: &mut Criterion) {
    // One query against a contiguous 1024-row block — the shape the brute
    // scan and vp leaf scans feed. `scalar` calls sq_dist_f per row;
    // `batched` hands the whole block to sq_dist_many. Both produce
    // bit-identical outputs (asserted); the delta is pure kernel/codegen.
    let mut group = c.benchmark_group("dist_kernels_1024rows");
    for &m in &[4usize, 8, 16] {
        let mut rng = StdRng::seed_from_u64(29);
        let query: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0..100.0)).collect();
        let block: Vec<f64> = (0..1024 * m).map(|_| rng.gen_range(0.0..100.0)).collect();
        let mut out = vec![0.0; 1024];
        sq_dist_many(&query, &block, &mut out);
        for (r, &v) in out.iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                sq_dist_f(&query, &block[r * m..(r + 1) * m]).to_bits()
            );
        }
        group.bench_function(BenchmarkId::new("scalar", format!("m{m}")), |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for row in block.chunks_exact(m) {
                    acc += sq_dist_f(black_box(&query), row);
                }
                black_box(acc)
            });
        });
        group.bench_function(BenchmarkId::new("batched", format!("m{m}")), |b| {
            b.iter(|| {
                sq_dist_many(black_box(&query), black_box(&block), &mut out);
                black_box(&out);
            });
        });
    }
    group.finish();
}

fn bench_orders_build(c: &mut Criterion) {
    // The offline precomputation: the flat-buffer build through the index
    // (auto = VP-tree at this size) vs the forced brute selection.
    let fm = random_matrix(4096, 4, 3);
    let mut group = c.benchmark_group("orders_build_n4096_m4_depth32");
    group.bench_function("auto_vptree", |b| {
        b.iter(|| black_box(NeighborOrders::build(&fm, 32)));
    });
    group.bench_function("forced_brute", |b| {
        let brute = NeighborIndex::build(fm.clone(), IndexChoice::Brute);
        b.iter(|| {
            black_box(NeighborOrders::build_from_index(
                &iim_exec::global(),
                &brute,
                32,
            ))
        });
    });
    group.finish();

    // The offline_fit shape: orders deep enough (depth/n ≈ 0.21, past
    // `SELECT_DEPTH_RATIO`) that `build_from_index` skips the VP-tree it
    // is handed and selects from a full scan. `vptree` runs the per-point
    // tree queries the build would otherwise make.
    let (n, depth) = (4750, 1000);
    let fm = random_matrix(n, 4, 5);
    let vp = NeighborIndex::build(fm.clone(), IndexChoice::VpTree);
    let NeighborIndex::VpTree(tree) = &vp else {
        unreachable!("built as a VP-tree")
    };
    assert!(
        depth * SELECT_DEPTH_RATIO >= n,
        "the cell must take the selection path"
    );
    let tree_rows = || {
        thread_local! {
            static SCRATCH: Cell<(KnnScratch, Vec<Neighbor>)> = Cell::new(Default::default());
        }
        let mut order = vec![0u32; n * depth];
        iim_exec::global().parallel_fill_rows(depth, &mut order, |i, row| {
            iim_exec::with_tls_scratch(&SCRATCH, |(scratch, out)| {
                tree.knn_with(fm.point(i), depth, scratch, out);
                for (slot, nb) in row.iter_mut().zip(out.iter()) {
                    *slot = nb.pos;
                }
            })
        });
        order
    };
    // Bitwise parity on the benched workload before timing it.
    let selected = NeighborOrders::build_from_index(&iim_exec::global(), &vp, depth);
    for (i, row) in tree_rows().chunks(depth).enumerate() {
        assert_eq!(selected.neighbors_of(i), row, "point {i}");
    }
    let mut group = c.benchmark_group("orders_build_n4750_m4_depth1000");
    group.bench_function("vptree", |b| b.iter(|| black_box(tree_rows())));
    group.bench_function("selection", |b| {
        b.iter(|| {
            black_box(NeighborOrders::build_from_index(
                &iim_exec::global(),
                &vp,
                depth,
            ))
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_index_knn, bench_dist_kernels, bench_orders_build
}
criterion_main!(benches);
