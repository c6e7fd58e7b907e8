//! **Serving baseline**: offline model build + online queries/sec for
//! IIM served through the brute scan vs the stored VP-tree index, over a
//! grid of training sizes and dimensionalities, recorded to
//! `bench_results/BENCH_serving.json`.
//!
//! Every (n, m) cell runs [`IndexChoice::Brute`] and
//! [`IndexChoice::VpTree`], and all imputed values are asserted
//! **bitwise identical** across the two: an index can only change
//! latency, never an answer. The committed grid is also the derivation
//! input for the `IndexChoice::Auto` thresholds in
//! `crates/neighbors/src/index.rs` — change the workload here and those
//! constants should be re-checked. Offline time covers the whole
//! `IimModel::learn_from_parts` (neighbor orders + individual models);
//! online time is the per-query `impute` loop, single-threaded, so
//! queries/sec measures the algorithmic path, not parallel fan-out — on a
//! one-core box any win recorded here is purely algorithmic.
//!
//! # Workload
//!
//! Features are a **two-factor latent model** plus per-feature noise:
//! `x_j = a_j·t + b_j·u + ε`, so the intrinsic dimension stays ~2 while
//! the ambient dimension sweeps 1..12. That matches the relations the
//! paper imputes (real attributes correlate; that's why imputation works
//! at all) and is the regime where spatial pruning can pay at m > 4. On
//! iid-uniform data at m = 8 *no exact index* beats brute force — every
//! metric ball contains almost everything — so an iid benchmark would
//! only certify the curse of dimensionality, not compare indexes.
//!
//! ```text
//! cargo run -p iim-bench --release --bin serving [-- --quick --seed 42]
//! ```

use iim_bench::{Args, BenchResult, Table};
use iim_core::{IimConfig, IimModel, IndexChoice, Learning};
use iim_neighbors::brute::FeatureMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Latent two-factor features (intrinsic dimension ~2 at any ambient m)
/// and a linear-blend target — enough structure that the learned models
/// are non-degenerate, cheap enough to generate at n = 50k.
fn training_parts(n: usize, m: usize, seed: u64) -> (FeatureMatrix, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n).flat_map(|_| latent_row(m, &mut rng)).collect();
    let fm = FeatureMatrix::from_dense(m, (0..n as u32).collect::<Vec<u32>>(), data);
    let ys: Vec<f64> = (0..n)
        .map(|i| {
            let x = fm.point(i);
            let lin: f64 = x.iter().enumerate().map(|(j, v)| v * (j + 1) as f64).sum();
            lin * 0.1 + rng.gen_range(-0.5..0.5)
        })
        .collect();
    (fm, ys)
}

/// One row of the latent-factor model: two shared factors in [0, 100),
/// fixed per-feature loadings, ±2 feature noise.
fn latent_row(m: usize, rng: &mut StdRng) -> Vec<f64> {
    let t = rng.gen_range(0.0..100.0f64);
    let u = rng.gen_range(0.0..100.0f64);
    (0..m)
        .map(|j| {
            // Deterministic loadings per feature index, spread over both
            // factors so no feature is degenerate.
            let a = 0.3 + 0.6 * ((j as f64 * 0.37).sin().abs());
            let b = 1.0 - a * 0.5;
            a * t + b * u + rng.gen_range(-2.0..2.0)
        })
        .collect()
}

struct Cell {
    n: usize,
    m: usize,
    kind: &'static str,
    offline_s: f64,
    online_s: f64,
}

fn main() {
    let args = Args::parse();
    let (ns, ms, n_queries): (&[usize], &[usize], usize) = if args.quick {
        (&[200, 700], &[1, 3], 200)
    } else {
        (&[1_000, 10_000, 50_000], &[1, 4, 8, 12], 2_000)
    };
    let k = 10;
    let ell = 8;

    // `--n` caps the grid; dedup so a low cap doesn't bench the same
    // (n, m) cell several times over.
    let mut capped: Vec<usize> = ns
        .iter()
        .map(|&n| args.n.map_or(n, |cap| n.min(cap)))
        .collect();
    capped.dedup();

    let mut cells: Vec<Cell> = Vec::new();
    for &n in &capped {
        for &m in ms {
            let (fm, ys) = training_parts(n, m, args.seed ^ (n as u64) ^ ((m as u64) << 32));
            let mut rng = StdRng::seed_from_u64(args.seed.wrapping_add(17));
            let queries: Vec<Vec<f64>> = (0..n_queries).map(|_| latent_row(m, &mut rng)).collect();
            let cfg = |index| IimConfig {
                k,
                learning: Learning::Fixed { ell },
                index,
                ..IimConfig::default()
            };
            let run = |choice: IndexChoice| -> (Cell, Vec<f64>) {
                let t0 = Instant::now();
                let model = IimModel::learn_from_parts(fm.clone(), &ys, &cfg(choice));
                let offline_s = t0.elapsed().as_secs_f64();
                let mut scratch = iim_core::ImputeScratch::new();
                let t1 = Instant::now();
                let values: Vec<f64> = queries
                    .iter()
                    .map(|q| model.impute_with(q, &mut scratch))
                    .collect();
                let online_s = t1.elapsed().as_secs_f64();
                (
                    Cell {
                        n,
                        m,
                        kind: model.index().kind(),
                        offline_s,
                        online_s,
                    },
                    values,
                )
            };
            let (brute_cell, brute_values) = run(IndexChoice::Brute);
            eprintln!(
                "[serving] n={n} m={m}: brute {:.3}s/{:.3}s (offline/online)",
                brute_cell.offline_s, brute_cell.online_s,
            );
            cells.push(brute_cell);
            let (vp_cell, vp_values) = run(IndexChoice::VpTree);
            // The whole point: the index may only change latency.
            for (qi, (a, b)) in brute_values.iter().zip(&vp_values).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "imputed value diverged at n={n} m={m} query {qi}: brute {a} vs vptree {b}",
                );
            }
            eprintln!(
                "[serving] n={n} m={m}: vptree {:.3}s/{:.3}s (offline/online), bitwise-identical",
                vp_cell.offline_s, vp_cell.online_s,
            );
            cells.push(vp_cell);
        }
    }

    let mut table = Table::new(vec![
        "n",
        "m",
        "index",
        "offline_s",
        "online_s",
        "us/query",
        "queries/s",
    ]);
    let mut result = BenchResult::new("serving", 0, 1).with_note(&format!(
        "fixed-ell IIM, two-factor latent features (intrinsic dim ~2), linear target; all \
         imputed values asserted bitwise-identical across indexes; online_s covers \
         {n_queries} queries. Online loop is single-threaded; on a 1-core box the index win \
         is algorithmic (sub-linear search), not parallel. Grid is the derivation input for \
         IndexChoice::Auto thresholds.",
    ));
    for c in &cells {
        let per_query = c.online_s / n_queries as f64;
        table.push(vec![
            c.n.to_string(),
            c.m.to_string(),
            c.kind.to_string(),
            Table::secs(c.offline_s),
            Table::secs(c.online_s),
            format!("{:.2}", per_query * 1e6),
            format!("{:.0}", 1.0 / per_query.max(1e-12)),
        ]);
        result.push(
            iim_bench::Cell::new()
                .coord_num("n", c.n as f64)
                .coord_num("m", c.m as f64)
                .coord_str("index", c.kind)
                .coord_num("k", k as f64)
                .coord_num("ell", ell as f64)
                .metric("offline_s", vec![c.offline_s])
                .metric("online_s", vec![c.online_s])
                .metric("per_query_us", vec![per_query * 1e6]),
        );
    }
    let path = result.write_named().expect("write BENCH_serving.json");

    table.print(&format!(
        "Serving baseline (brute vs vp; {n_queries} queries per cell; all values bitwise-identical)",
    ));
    println!("wrote {}", path.display());
}
