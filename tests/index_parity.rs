//! The neighbor-index determinism contract, end to end:
//!
//! * the owned VP-tree equals the brute scan **bitwise** on random
//!   matrices — including duplicated points (tie-breaks), `k > n`, and
//!   ambient dimensions 1..=16 (every dimensionality `IndexChoice::Auto`
//!   ever gives a tree);
//! * the blocked distance kernels (`sq_dist_many`, `sq_dist_on`) agree
//!   bitwise with scalar `sq_dist_f` — batching is a pure latency choice;
//! * a fitted model serving through the VP-tree index is bitwise-identical
//!   to the same model serving through the brute index, for every
//!   index-backed method (IIM, kNN, kNNE, LOESS, ILLS, ERACER), single
//!   query and whole relation, on 1 and 4 worker pools (the CI matrix
//!   additionally runs this whole suite under `IIM_THREADS=1` and `=4`);
//! * neighbor orders built through any index variant match.

use iim::prelude::*;
use iim_core::IndexChoice;
use iim_data::inject::inject_random;
use iim_exec::Pool;
use iim_neighbors::brute::FeatureMatrix;
use iim_neighbors::{sq_dist_f, sq_dist_many, sq_dist_on, NeighborIndex, NeighborOrders, VpTree};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A matrix with deliberate duplicate rows: `rows` random points, each of
/// `dups` additionally copied over a later slot, so distance ties are
/// guaranteed and the `(distance, position)` tie-break is exercised.
/// Ambient dimension runs 1..=16 — the range over which
/// `IndexChoice::Auto` will ever pick a tree — so the VP-tree's pruning
/// is exercised at every dimensionality it serves.
fn arb_matrix_with_dups() -> impl Strategy<Value = FeatureMatrix> {
    (1usize..40, 1usize..=16).prop_flat_map(|(n, m)| {
        (
            proptest::collection::vec(-50.0..50.0f64, n * m),
            proptest::collection::vec(0usize..n.max(1), 0..5),
        )
            .prop_map(move |(mut data, dups)| {
                for (offset, &src) in dups.iter().enumerate() {
                    let dst = (src + offset + 1) % n;
                    let src_row: Vec<f64> = data[src * m..(src + 1) * m].to_vec();
                    data[dst * m..(dst + 1) * m].copy_from_slice(&src_row);
                }
                FeatureMatrix::from_dense(m, (0..n as u32).collect::<Vec<u32>>(), data)
            })
    })
}

/// Random queries for a matrix, biased to land *on* points (exact-match
/// distances of zero) half the time.
fn queries_for(fm: &FeatureMatrix, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|qi| {
            if qi % 2 == 0 && !fm.is_empty() {
                fm.point(qi % fm.len()).to_vec()
            } else {
                (0..fm.n_features())
                    .map(|j| ((qi * 31 + j * 7) % 100) as f64 - 50.0)
                    .collect()
            }
        })
        .collect()
}

/// The index-backed methods of the lineup, built with a forced index.
fn indexed_methods(index: IndexChoice) -> Vec<Box<dyn Imputer>> {
    const INDEXED: [&str; 6] = ["IIM", "kNN", "kNNE", "LOESS", "ILLS", "ERACER"];
    iim::methods::lineup_with(4, 9, index)
        .into_iter()
        .filter(|m| INDEXED.contains(&m.name()))
        .collect()
}

/// A small workload relation with injected holes (as in fit_serve.rs).
fn arb_workload() -> impl Strategy<Value = Relation> {
    (12usize..30, 3usize..5, 1usize..5, 0u64..1000).prop_flat_map(|(n, m, holes, inj_seed)| {
        proptest::collection::vec(proptest::collection::vec(-20.0..20.0f64, m), n..=n).prop_map(
            move |rows| {
                let rows: Vec<Vec<f64>> = rows
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        r.iter()
                            .enumerate()
                            .map(|(j, v)| v * 0.3 + i as f64 * 0.5 + j as f64)
                            .collect()
                    })
                    .collect();
                let mut rel = Relation::from_rows(Schema::anonymous(m), &rows);
                inject_random(
                    &mut rel,
                    holes.min(n / 3),
                    &mut StdRng::seed_from_u64(inj_seed),
                );
                rel
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn vptree_equals_brute_bitwise_up_to_dimension_16(
        fm in arb_matrix_with_dups(),
        ks in proptest::collection::vec(1usize..80, 1..4),
    ) {
        let tree = VpTree::build(fm.clone());
        let vp_index = NeighborIndex::build(fm.clone(), IndexChoice::VpTree);
        for q in queries_for(&fm, 6) {
            for &k in &ks {
                // k may exceed n: everything comes back, same order — and
                // duplicated points force the (distance, position)
                // tie-break through the metric-ball pruning path.
                let reference = fm.knn(&q, k);
                prop_assert_eq!(reference.len(), k.min(fm.len()));
                for got in [tree.knn(&q, k), vp_index.knn(&q, k)] {
                    prop_assert_eq!(got.len(), reference.len());
                    for (g, r) in got.iter().zip(&reference) {
                        prop_assert_eq!(g.pos, r.pos);
                        prop_assert_eq!(g.dist.to_bits(), r.dist.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn batched_kernel_matches_scalar_bitwise(
        (m, rows) in (1usize..=16, 1usize..40).prop_flat_map(|(m, n)| {
            (Just(m), proptest::collection::vec(-1e3..1e3f64, m * (n + 1)))
        }),
    ) {
        // First row is the query, the rest form the contiguous block.
        let (query, block) = rows.split_at(m);
        let mut out = vec![0.0; block.len() / m];
        sq_dist_many(query, block, &mut out);
        for (r, &got) in out.iter().enumerate() {
            let scalar = sq_dist_f(query, &block[r * m..(r + 1) * m]);
            prop_assert_eq!(got.to_bits(), scalar.to_bits(), "row {}", r);
        }
    }

    #[test]
    fn restricted_attr_kernel_matches_gathered_bitwise(
        (_m, a, b, attrs) in (2usize..=16).prop_flat_map(|m| {
            (
                Just(m),
                proptest::collection::vec(-1e3..1e3f64, m),
                proptest::collection::vec(-1e3..1e3f64, m),
                proptest::collection::vec(0usize..m, 1..=m),
            )
        }),
    ) {
        // `sq_dist_on` gathers through `attrs` (repeats allowed) in the
        // same lane order as a gather-then-`sq_dist_f`; serving over a
        // restricted feature set must not depend on which one ran.
        let ga: Vec<f64> = attrs.iter().map(|&j| a[j]).collect();
        let gb: Vec<f64> = attrs.iter().map(|&j| b[j]).collect();
        prop_assert_eq!(
            sq_dist_on(&a, &b, &attrs).to_bits(),
            sq_dist_f(&ga, &gb).to_bits()
        );
    }

    #[test]
    fn restricted_attr_knn_through_vptree_matches_the_brute_gather_path(
        (fm, attrs) in arb_matrix_with_dups().prop_flat_map(|fm| {
            let m = fm.n_features();
            (Just(fm), proptest::collection::vec(0usize..m, 1..=m))
        }),
    ) {
        // The serving layer restricts distances to the complete attributes
        // of a query (`sq_dist_on` / gather). Whichever index scans the
        // gathered candidates must agree with the ad-hoc brute path
        // bitwise, row ids included.
        let rows: Vec<Vec<f64>> = (0..fm.len()).map(|i| fm.point(i).to_vec()).collect();
        let rel = Relation::from_rows(Schema::anonymous(fm.n_features()), &rows);
        let candidates: Vec<u32> = (0..fm.len() as u32).collect();
        let gathered = FeatureMatrix::gather(&rel, &attrs, &candidates);
        let vp = VpTree::build(gathered.clone());
        for q in queries_for(&fm, 3) {
            let reference = iim_neighbors::knn(&rel, &attrs, &candidates, &q, 5);
            let gq: Vec<f64> = attrs.iter().map(|&j| q[j]).collect();
            let got = vp.knn(&gq, 5);
            prop_assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(&reference) {
                prop_assert_eq!(gathered.row_id(g.pos as usize), r.pos);
                prop_assert_eq!(g.dist.to_bits(), r.dist.to_bits());
            }
        }
    }

    #[test]
    fn orders_through_either_index_variant_agree(fm in arb_matrix_with_dups()) {
        let depth = fm.len().min(10);
        let reference = NeighborOrders::build_on(&Pool::serial(), &fm, depth);
        for choice in [IndexChoice::Brute, IndexChoice::VpTree] {
            let index = NeighborIndex::build(fm.clone(), choice);
            for pool in [Pool::serial(), Pool::new(4).with_serial_cutoff(1)] {
                let got = NeighborOrders::build_from_index(&pool, &index, depth);
                for i in 0..fm.len() {
                    prop_assert_eq!(reference.neighbors_of(i), got.neighbors_of(i));
                }
            }
        }
    }

    #[test]
    fn fitted_serving_through_vptree_is_bitwise_brute(rel in arb_workload()) {
        let serial = Pool::serial();
        let four = Pool::new(4).with_serial_cutoff(1);
        for (brute, vp) in indexed_methods(IndexChoice::Brute)
            .into_iter()
            .zip(indexed_methods(IndexChoice::VpTree))
        {
            prop_assert_eq!(brute.name(), vp.name());
            let fb = brute
                .fit(&rel)
                .unwrap_or_else(|e| panic!("{} brute fit: {e}", brute.name()));
            let fv = vp
                .fit(&rel)
                .unwrap_or_else(|e| panic!("{} vptree fit: {e}", vp.name()));
            // Whole-relation serving: identical on serial and 4-worker
            // pools, across index variants.
            let reference = fb.impute_all_on(&serial, &rel).unwrap();
            for (fitted, pool) in [(&fb, &four), (&fv, &serial), (&fv, &four)] {
                let out = fitted.impute_all_on(pool, &rel).unwrap();
                prop_assert!(
                    out == reference,
                    "{}: index/pool serving diverged from brute serial",
                    brute.name()
                );
            }
            // Single-query serving too.
            for &i in &rel.incomplete_rows() {
                let q = rel.row_opt(i as usize);
                let a = fb.impute_one(&q).unwrap();
                let b = fv.impute_one(&q).unwrap();
                for (x, y) in a.iter().zip(&b) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "{} row {}", brute.name(), i);
                }
            }
        }
    }
}

/// Above the auto threshold the fitted IIM model stores a VP-tree; its
/// serving must still be bitwise-identical to a forced-brute fit.
#[test]
fn auto_index_at_scale_serves_identically_to_brute() {
    let n = 700;
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    for i in 0..n {
        let x = (i as f64) * 0.01;
        let y = ((i * 37) % 100) as f64 * 0.3;
        rows.push(vec![x, y, 2.0 * x - y]);
    }
    let rel = Relation::from_rows(Schema::anonymous(3), &rows);

    let build = |index| {
        let cfg = iim_core::IimConfig {
            k: 10,
            learning: iim_core::Learning::Fixed { ell: 6 },
            index,
            ..iim_core::IimConfig::default()
        };
        PerAttributeImputer::new(iim_core::Iim::new(cfg))
            .fit(&rel)
            .unwrap()
    };
    let brute = build(IndexChoice::Brute);
    let auto = build(IndexChoice::Auto);

    let queries: Vec<Vec<Option<f64>>> = (0..200)
        .map(|qi| {
            vec![
                Some(qi as f64 * 0.037),
                Some(((qi * 13) % 100) as f64 * 0.3),
                None,
            ]
        })
        .collect();
    let refs: Vec<&RowOpt> = queries.iter().map(|q| q.as_slice()).collect();
    for pool in [Pool::serial(), Pool::new(4).with_serial_cutoff(1)] {
        let a = brute.impute_batch_on(&pool, &refs).unwrap();
        let b = auto.impute_batch_on(&pool, &refs).unwrap();
        for (ra, rb) in a.iter().zip(&b) {
            for (x, y) in ra.iter().zip(rb) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
