//! **Incremental learning baseline**: per-tuple `absorb` latency vs the
//! refit it replaces, over training sizes, recorded to
//! `bench_results/BENCH_learn.json`.
//!
//! The streaming-ingestion claim is that absorbing one tuple into a
//! fitted IIM model (Sherman–Morrison updates on the k touched neighbor
//! models + one new model) is orders of magnitude cheaper than refitting
//! from scratch — O(k·ℓm² + ℓm² + m³) against O(n·(ℓm² + m³)) plus the
//! neighbor-order rebuild. This bin measures both sides on the same data:
//! fit at n, absorb a stream of tuples one at a time, then refit at n+1,
//! and asserts the absorb path stays under its latency budget (10 ms per
//! tuple at the full grid) so the recorded speedup cannot silently rot.
//!
//! ```text
//! cargo run -p iim-bench --release --bin learn [-- --quick --seed 42]
//! ```

use iim_bench::{Args, BenchResult, Table};
use iim_core::{IimConfig, IimModel, Learning};
use iim_neighbors::brute::FeatureMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Linear-plus-noise training data.
fn training_data(n: usize, m: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..n * m).map(|_| rng.gen_range(0.0..100.0)).collect();
    let ys: Vec<f64> = (0..n)
        .map(|i| {
            let lin: f64 = data[i * m..(i + 1) * m]
                .iter()
                .enumerate()
                .map(|(j, v)| v * (j + 1) as f64)
                .sum();
            lin * 0.1 + rng.gen_range(-0.5..0.5)
        })
        .collect();
    (data, ys)
}

struct Cell {
    n: usize,
    m: usize,
    fit_s: f64,
    /// Per-tuple absorb latencies (seconds) — raw samples go into the
    /// envelope so the gate can use min/mean, not just a pre-baked mean.
    absorb_s: Vec<f64>,
    absorb_mean_s: f64,
    absorb_max_s: f64,
    refit_one_s: f64,
}

fn main() {
    let args = Args::parse();
    let (ns, n_absorbs): (&[usize], usize) = if args.quick {
        (&[300], 10)
    } else {
        (&[1_000, 10_000], 100)
    };
    let m = 4;
    let k = 10;
    let ell = 8;
    // The absorb budget only binds on the full grid — quick runs exist to
    // exercise the code path, not to certify latency.
    let budget_s = 0.010;

    let mut cells: Vec<Cell> = Vec::new();
    for &n in ns {
        let n = args.n.map_or(n, |cap| n.min(cap));
        let seed = args.seed ^ (n as u64);
        let (data, ys) = training_data(n, m, seed);
        let cfg = IimConfig {
            k,
            learning: Learning::Fixed { ell },
            ..IimConfig::default()
        };

        let fm = FeatureMatrix::from_dense(m, (0..n as u32).collect::<Vec<u32>>(), data.clone());
        let t0 = Instant::now();
        let mut model = IimModel::learn_from_parts(fm, &ys, &cfg).expect("finite training data");
        let fit_s = t0.elapsed().as_secs_f64();

        // A stream of fresh tuples from the same distribution, absorbed
        // one at a time — each timed individually so the max surfaces any
        // rebuild hiccup (the vp-tree's pending buffer, Sherman–Morrison
        // state construction on first touch).
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(101));
        let stream: Vec<(Vec<f64>, f64)> = (0..n_absorbs)
            .map(|_| {
                let x: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0..100.0)).collect();
                let lin: f64 = x.iter().enumerate().map(|(j, v)| v * (j + 1) as f64).sum();
                (x, lin * 0.1 + rng.gen_range(-0.5..0.5))
            })
            .collect();
        let mut absorb_s: Vec<f64> = Vec::with_capacity(n_absorbs);
        for (x, y) in &stream {
            let t = Instant::now();
            model.absorb(x, *y).expect("absorb a complete finite tuple");
            absorb_s.push(t.elapsed().as_secs_f64());
        }
        let absorb_mean_s = absorb_s.iter().sum::<f64>() / n_absorbs as f64;
        let absorb_max = absorb_s.iter().cloned().fold(0.0f64, f64::max);

        // The absorbed model still serves finite fills.
        let mut scratch = iim_core::ImputeScratch::new();
        let probe: Vec<f64> = (0..m).map(|j| 50.0 + j as f64).collect();
        assert!(model.impute_with(&probe, &mut scratch).is_finite());

        // The alternative the absorb path replaces: refit at n+1.
        let mut grown = data.clone();
        grown.extend_from_slice(&stream[0].0);
        let mut grown_ys = ys.clone();
        grown_ys.push(stream[0].1);
        let fm1 = FeatureMatrix::from_dense(m, (0..(n as u32) + 1).collect::<Vec<u32>>(), grown);
        let t1 = Instant::now();
        let refit = IimModel::learn_from_parts(fm1, &grown_ys, &cfg).expect("finite training data");
        let refit_one_s = t1.elapsed().as_secs_f64();
        assert_eq!(refit.index().len(), n + 1);

        eprintln!(
            "[learn] n={n} m={m}: fit {fit_s:.3}s, absorb mean {:.1}us / max {:.1}us \
             over {n_absorbs} tuples, refit-at-n+1 {refit_one_s:.3}s ({:.0}x)",
            absorb_mean_s * 1e6,
            absorb_max * 1e6,
            refit_one_s / absorb_mean_s.max(1e-12),
        );
        if !args.quick {
            assert!(
                absorb_mean_s < budget_s,
                "absorb mean {absorb_mean_s:.6}s blew the {budget_s}s budget at n={n}"
            );
        }
        cells.push(Cell {
            n,
            m,
            fit_s,
            absorb_s,
            absorb_mean_s,
            absorb_max_s: absorb_max,
            refit_one_s,
        });
    }

    let mut table = Table::new(vec![
        "n",
        "m",
        "fit_s",
        "absorb_us",
        "absorb_max_us",
        "refit_one_s",
        "speedup",
    ]);
    let mut result = BenchResult::new("learn", 0, 1).with_note(&format!(
        "fixed-ell IIM, uniform features, linear target; per-tuple absorb vs refit-at-n+1. \
         absorb = Sherman-Morrison update of the k touched neighbor models + one new model + \
         index append; {budget_s}s mean budget asserted by the bin on the full grid. absorb_us \
         carries every per-tuple sample.",
    ));
    for c in &cells {
        let speedup = c.refit_one_s / c.absorb_mean_s.max(1e-12);
        table.push(vec![
            c.n.to_string(),
            c.m.to_string(),
            Table::secs(c.fit_s),
            format!("{:.2}", c.absorb_mean_s * 1e6),
            format!("{:.2}", c.absorb_max_s * 1e6),
            Table::secs(c.refit_one_s),
            format!("{speedup:.0}x"),
        ]);
        result.push(
            iim_bench::Cell::new()
                .coord_num("n", c.n as f64)
                .coord_num("m", c.m as f64)
                .coord_num("k", k as f64)
                .coord_num("ell", ell as f64)
                .metric("fit_s", vec![c.fit_s])
                .metric("absorb_us", c.absorb_s.iter().map(|s| s * 1e6).collect())
                .metric("refit_one_s", vec![c.refit_one_s]),
        );
    }
    let path = result.write_named().expect("write BENCH_learn.json");

    table.print(&format!(
        "Incremental learning (absorb vs refit; {n_absorbs} absorbs per cell)"
    ));
    println!("wrote {}", path.display());
}
