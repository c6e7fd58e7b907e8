//! Property tests on the adaptive-learning machinery: the Proposition-3
//! equivalence (incremental ≡ from-scratch), sweep-grid invariants, and
//! Gram prefix consistency on random data.

use iim::prelude::*;
use iim_core::incremental::{sweep_values, ModelSweep};
use iim_linalg::{ridge_fit, GramAccumulator};
use iim_neighbors::brute::FeatureMatrix;
use iim_neighbors::NeighborOrders;
use proptest::prelude::*;

fn arb_points(max_n: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    (4usize..max_n, 1usize..4).prop_flat_map(|(n, f)| {
        (
            proptest::collection::vec(proptest::collection::vec(-20.0..20.0f64, f), n..=n),
            proptest::collection::vec(-20.0..20.0f64, n..=n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gram_accumulator_matches_batch_fit_on_prefixes((xs, ys) in arb_points(24)) {
        let f = xs[0].len();
        let mut acc = GramAccumulator::new(f);
        for (i, x) in xs.iter().enumerate() {
            acc.add_row(x, ys[i]);
            if i + 1 >= 2 {
                let inc = acc.solve(1e-6).unwrap();
                let batch = ridge_fit(
                    xs[..=i].iter().map(|v| v.as_slice()),
                    &ys[..=i],
                    1e-6,
                ).unwrap();
                for (a, b) in inc.phi.iter().zip(&batch.phi) {
                    // Both go through the same escalating solver; tolerance
                    // scales with magnitude.
                    let tol = 1e-6 * (1.0 + a.abs().max(b.abs()));
                    prop_assert!((a - b).abs() < tol, "prefix {i}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn model_sweep_incremental_equals_scratch(
        (xs, ys) in arb_points(20),
        step in 1usize..5,
    ) {
        let f = xs[0].len();
        let n = xs.len();
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let fm = FeatureMatrix::from_dense(f, (0..n as u32).collect::<Vec<u32>>(), flat);
        let orders = NeighborOrders::build(&fm, n);
        for tuple in 0..n.min(5) {
            let prefix = orders.neighbors_of(tuple);
            let mut inc = ModelSweep::new(&fm, &ys, prefix, 1e-6, true);
            let mut scr = ModelSweep::new(&fm, &ys, prefix, 1e-6, false);
            for ell in sweep_values(n, step, None) {
                let a = inc.model_at(ell);
                let b = scr.model_at(ell);
                for (x, y) in a.phi.iter().zip(&b.phi) {
                    let tol = 1e-6 * (1.0 + x.abs().max(y.abs()));
                    prop_assert!((x - y).abs() < tol, "ell {ell}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn sweep_grid_invariants(n in 1usize..500, step in 1usize..60, cap in 1usize..600) {
        let grid = sweep_values(n, step, Some(cap));
        prop_assert_eq!(grid[0], 1);
        prop_assert!(grid.iter().all(|&l| l <= n.min(cap).max(1)));
        for w in grid.windows(2) {
            prop_assert_eq!(w[1] - w[0], step);
        }
    }

    #[test]
    fn adaptive_learning_is_thread_count_invariant((xs, ys) in arb_points(24)) {
        let f = xs[0].len();
        let n = xs.len();
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let fm = FeatureMatrix::from_dense(f, (0..n as u32).collect::<Vec<u32>>(), flat);
        let orders = NeighborOrders::build(&fm, n);
        let cfg = AdaptiveConfig::default();
        let a = iim::core::adaptive_learn(&fm, &ys, &orders, 3, &cfg, 1e-6, 1);
        let b = iim::core::adaptive_learn(&fm, &ys, &orders, 3, &cfg, 1e-6, 4);
        prop_assert_eq!(a.chosen_ell, b.chosen_ell);
    }

    #[test]
    fn imputation_is_within_candidate_hull(
        (xs, ys) in arb_points(30),
        k in 1usize..6,
        ell in 1usize..10,
    ) {
        // Formula 10 is a convex combination of candidates: the result must
        // lie inside [min, max] of the candidate values.
        let f = xs[0].len();
        let n = xs.len();
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let fm = FeatureMatrix::from_dense(f, (0..n as u32).collect::<Vec<u32>>(), flat);
        let orders = NeighborOrders::build(&fm, n.min(ell.max(1)));
        let models = iim::core::learn_fixed(&fm, &ys, &orders, ell.min(n), 1e-6, 1).expect("finite");
        let q = vec![0.25; f];
        let cands = iim::core::impute_candidates(&fm, &models, &q, k);
        let vals: Vec<f64> = cands.iter().map(|(_, c)| *c).collect();
        let (lo, hi) = vals
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| (l.min(v), h.max(v)));
        for w in [Weighting::MutualVote, Weighting::Uniform, Weighting::InverseDistance] {
            let out = iim::core::combine_candidates(&cands, w).unwrap();
            prop_assert!(out >= lo - 1e-9 && out <= hi + 1e-9, "{w:?}: {out} not in [{lo},{hi}]");
        }
    }
}
