//! Precomputed sorted neighbor orders.
//!
//! Algorithm 3's complexity analysis (§V-A1) starts with "we can precompute
//! once the nearest neighbors for all tuples in r … and directly use them in
//! learning individual models for a certain ℓ". [`NeighborOrders`] is that
//! precomputation: for every candidate tuple, its `depth` nearest fellow
//! candidates in ascending distance order (self first, at distance zero) —
//! exactly the prefix property `NN(tᵢ, F, ℓ) ⊂ NN(tᵢ, F, ℓ+h)` (Formula 13)
//! the incremental sweep relies on.
//!
//! Construction writes each tuple's prefix straight into one flat
//! `n × depth` buffer ([`iim_exec::Pool::parallel_fill_rows`]) — no
//! per-row `Vec`s, no concatenation. Three paths fill it:
//!
//! * **Line sweep** — one feature: sort once, then expand a window around
//!   each point (O(n log n + n·depth)).
//! * **Tree queries** — several features, a VP-tree at hand (the serving
//!   index, or one [`auto_choice`] picks) and shallow orders,
//!   `depth * SELECT_DEPTH_RATIO < n`: one pruned top-`depth` query per
//!   point.
//! * **Selection** — otherwise: each point scans all `n` distances, packs
//!   every `(squared distance, position)` pair into one `u128` key whose
//!   integer order is the `(total_cmp, position)` order, and runs
//!   `select_nth_unstable` plus a sort of the `depth` winners on the
//!   integers.
//!
//! Deep orders are where the tree stops paying: a top-1000 query over
//! 4,750 points (the harness's `ℓ ≤ min(n, 1000)` cap) prunes little and
//! spends its time in heap churn. Measured on a 2-vCPU Intel Xeon at
//! 2 threads, m = 4, best of 3 builds (ms), uniform and two-factor latent
//! points (the shapes of `benches/knn.rs`):
//!
//! | n      | depth | depth/n | uniform tree | uniform select | latent tree | latent select |
//! |--------|-------|---------|--------------|----------------|-------------|---------------|
//! | 4,750  | 100   | 0.021   | 92           | 124            | 54          | 120           |
//! | 4,750  | 200   | 0.042   | 165          | 132            | 106         | 128           |
//! | 4,750  | 250   | 0.053   | 210          | 119            | 112         | 130           |
//! | 4,750  | 1,000 | 0.211   | 573          | 181            | 405         | 193           |
//! | 10,000 | 200   | 0.020   | 379          | 520            | 227         | 514           |
//! | 10,000 | 500   | 0.050   | 802          | 489            | 521         | 560           |
//! | 10,000 | 1,000 | 0.100   | 1,404        | 627            | 1,079       | 574           |
//!
//! The crossover sits at depth/n ≈ 0.03 on uniform points and ≈ 0.05 on
//! correlated ones, so [`SELECT_DEPTH_RATIO`] = 20 (depth/n ≥ 0.05)
//! leaves every depth where the tree can win to the tree. The `offline_fit`
//! benchmark (depth/n = 1000/4750 = 0.21) takes the selection; the
//! `interactive` tenant (200/10,000 = 0.02) keeps the tree.
//!
//! Every path (line sweep, selection, tree queries; serial or parallel)
//! produces bitwise-identical orders: all three order candidates by
//! `(squared distance, position)` under [`f64::total_cmp`].

use crate::brute::FeatureMatrix;
use crate::dist::sq_dist_many;
use crate::heap::KnnScratch;
use crate::index::{auto_choice, IndexChoice, NeighborIndex};
use crate::vptree::VpNodes;
use crate::Neighbor;
use iim_exec::Pool;
use std::cell::Cell;

/// Orders at least `1 / SELECT_DEPTH_RATIO` of the point count deep skip
/// the VP-tree and select from a full scan: the selection path runs once
/// `depth * SELECT_DEPTH_RATIO >= n`. The module docs give the measured
/// crossover this constant sits on.
pub const SELECT_DEPTH_RATIO: usize = 20;

/// For each point of a [`FeatureMatrix`], its `depth` nearest points
/// (including itself, first), ascending by `(distance, position)`.
#[derive(Debug, Clone)]
pub struct NeighborOrders {
    n: usize,
    depth: usize,
    /// `n x depth` matrix of positions into the source matrix.
    order: Vec<u32>,
}

impl NeighborOrders {
    /// Computes orders of depth `depth` (clamped to the candidate count) on
    /// the process-default pool ([`iim_exec::global`]).
    ///
    /// Single-feature matrices use an O(n log n + n·depth) sorted-line
    /// sweep (the SN dataset is 100k tuples on one feature); otherwise a
    /// per-point top-k selection runs — through a VP-tree when the
    /// auto-selection heuristic picks one and the orders are shallow
    /// (see [`SELECT_DEPTH_RATIO`]), else as a full scan.
    pub fn build(fm: &FeatureMatrix, depth: usize) -> Self {
        Self::build_on(&iim_exec::global(), fm, depth)
    }

    /// [`NeighborOrders::build`] on an explicit pool.
    ///
    /// Each point's sorted prefix is computed independently and written
    /// into its own row of the flat buffer, so the result is identical for
    /// every worker count — and for every search path (see the module
    /// docs).
    pub fn build_on(pool: &Pool, fm: &FeatureMatrix, depth: usize) -> Self {
        let (n, f) = (fm.len(), fm.n_features());
        let tree =
            (f > 1 && auto_choice(n, f) == IndexChoice::VpTree && !selection_pays(n, depth.min(n)))
                .then(|| VpNodes::build(fm));
        Self::fill(pool, fm, depth, tree.as_ref())
    }

    /// Builds orders *through an existing serving index*, so the offline
    /// phase reuses the VP-tree the fitted model will store instead of
    /// scanning all pairs (or building a second tree) whenever the orders
    /// are shallow enough for the tree to prune.
    ///
    /// Output is bitwise-identical to [`NeighborOrders::build_on`] over
    /// the same matrix, whatever the index variant.
    pub fn build_from_index(pool: &Pool, index: &NeighborIndex, depth: usize) -> Self {
        let tree = match index {
            // Pending appends are not in the tree structure; the scan
            // covers them.
            NeighborIndex::VpTree(t) if t.pending_len() == 0 => Some(t.nodes()),
            _ => None,
        };
        Self::fill(pool, index.matrix(), depth, tree)
    }

    /// Picks the construction path (module docs) and fills the flat
    /// buffer. `tree`, when given, indexes every point of `fm`.
    fn fill(pool: &Pool, fm: &FeatureMatrix, depth: usize, tree: Option<&VpNodes>) -> Self {
        let n = fm.len();
        let depth = depth.min(n);
        if n == 0 || depth == 0 {
            return Self {
                n,
                depth,
                order: Vec::new(),
            };
        }
        let mut order = vec![0u32; n * depth];
        match tree {
            // The sorted-line sweep beats any index in one dimension.
            _ if fm.n_features() == 1 => fill_line(pool, fm, depth, &mut order),
            Some(tree) if !selection_pays(n, depth) => fill_vp(pool, fm, tree, depth, &mut order),
            _ => fill_select(pool, fm, depth, &mut order),
        }
        Self { n, depth, order }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Stored neighbor depth (the maximum usable ℓ).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The sorted neighbor prefix of point `i`: positions of its `depth`
    /// nearest points, self first.
    #[inline]
    pub fn neighbors_of(&self, i: usize) -> &[u32] {
        &self.order[i * self.depth..(i + 1) * self.depth]
    }
}

/// One-dimensional path: sort positions by coordinate once; a point's
/// neighbors are a window around it, merged by two-pointer expansion.
fn fill_line(pool: &Pool, fm: &FeatureMatrix, depth: usize, order: &mut [u32]) {
    let n = fm.len();
    let mut by_x: Vec<u32> = (0..n as u32).collect();
    by_x.sort_by(|&a, &b| {
        fm.point(a as usize)[0]
            .total_cmp(&fm.point(b as usize)[0])
            .then(a.cmp(&b))
    });
    let mut rank_of = vec![0usize; n];
    for (rank, &p) in by_x.iter().enumerate() {
        rank_of[p as usize] = rank;
    }
    let coord = |pos: u32| fm.point(pos as usize)[0];
    pool.parallel_fill_rows(depth, order, |me, row| {
        let rank = rank_of[me];
        let x = coord(me as u32);
        row[0] = me as u32;
        let (mut lo, mut hi) = (rank, rank); // expanding window [lo, hi]
        for s in row.iter_mut().skip(1) {
            let left_d = if lo > 0 {
                (x - coord(by_x[lo - 1])).abs()
            } else {
                f64::INFINITY
            };
            let right_d = if hi + 1 < n {
                (coord(by_x[hi + 1]) - x).abs()
            } else {
                f64::INFINITY
            };
            // Tie-break mirrors the selection path: smaller position wins.
            let take_left = match left_d.partial_cmp(&right_d).expect("finite") {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => hi + 1 >= n || (lo > 0 && by_x[lo - 1] < by_x[hi + 1]),
            };
            if take_left {
                lo -= 1;
                *s = by_x[lo];
            } else {
                hi += 1;
                *s = by_x[hi];
            }
        }
    });
}

/// True when orders of depth `depth` over `n` points are deep enough that
/// the full-scan selection beats VP-tree queries (see
/// [`SELECT_DEPTH_RATIO`]).
#[inline]
fn selection_pays(n: usize, depth: usize) -> bool {
    depth * SELECT_DEPTH_RATIO >= n
}

/// Packs `(sq, pos)` into one integer whose natural order is
/// `(sq.total_cmp, pos)`: the high 64 bits are `sq`'s bits mapped so that
/// unsigned comparison matches [`f64::total_cmp`], the low 32 the position.
#[inline]
fn order_key(sq: f64, pos: u32) -> u128 {
    let bits = sq.to_bits();
    let ordered = if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    };
    (ordered as u128) << 32 | pos as u128
}

/// Selection path: per-point top-`depth` selection over all pairs, on one
/// integer key per candidate ([`order_key`]) so `select_nth_unstable` and
/// the final sort compare plain integers. Selection scratch is taken from
/// per-thread storage, so no per-row result `Vec` nor per-row scratch
/// allocation survives steady state.
fn fill_select(pool: &Pool, fm: &FeatureMatrix, depth: usize, order: &mut [u32]) {
    let n = fm.len();
    thread_local! {
        static SCRATCH: Cell<(Vec<f64>, Vec<u128>)> = Cell::new(Default::default());
    }
    pool.parallel_fill_rows(depth, order, |i, row| {
        iim_exec::with_tls_scratch(&SCRATCH, |(dists, keys)| {
            // Batched kernel over the whole contiguous block — bitwise the
            // scalar per-pair distances, but the scan autovectorizes.
            dists.resize(n, 0.0);
            sq_dist_many(fm.point(i), fm.data(), dists);
            keys.clear();
            keys.extend(dists.iter().zip(0u32..).map(|(&sq, p)| order_key(sq, p)));
            if depth < n {
                keys.select_nth_unstable(depth - 1);
                keys.truncate(depth);
            }
            keys.sort_unstable();
            for (slot, &key) in row.iter_mut().zip(keys.iter()) {
                *slot = key as u32;
            }
        });
    });
}

/// Index path: per-point VP-tree query written straight into the row.
fn fill_vp(pool: &Pool, fm: &FeatureMatrix, tree: &VpNodes, depth: usize, order: &mut [u32]) {
    thread_local! {
        static SCRATCH: Cell<(KnnScratch, Vec<Neighbor>)> = Cell::new(Default::default());
    }
    pool.parallel_fill_rows(depth, order, |i, row| {
        iim_exec::with_tls_scratch(&SCRATCH, |(knn, out)| {
            tree.knn_with(fm.point(i), depth, knn, out);
            for (slot, nb) in row.iter_mut().zip(out.iter()) {
                *slot = nb.pos;
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexChoice;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(n: usize, f: usize, seed: u64) -> FeatureMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * f).map(|_| rng.gen_range(-5.0..5.0)).collect();
        FeatureMatrix::from_dense(f, (0..n as u32).collect::<Vec<u32>>(), data)
    }

    #[test]
    fn self_is_always_first() {
        for f in [1usize, 3] {
            let fm = random_matrix(40, f, 11);
            let orders = NeighborOrders::build(&fm, 10);
            for i in 0..40 {
                assert_eq!(orders.neighbors_of(i)[0], i as u32, "f={f}");
            }
        }
    }

    #[test]
    fn matches_knn_prefixes() {
        for f in [1usize, 2, 4] {
            let fm = random_matrix(60, f, f as u64 * 7 + 1);
            let depth = 20;
            let orders = NeighborOrders::build(&fm, depth);
            for i in (0..60).step_by(7) {
                let expect = fm.knn(fm.point(i), depth);
                let got = orders.neighbors_of(i);
                for (g, e) in got.iter().zip(&expect) {
                    assert_eq!(*g, e.pos, "point {i}, f={f}");
                }
            }
        }
    }

    #[test]
    fn line_sweep_equals_general() {
        let fm = random_matrix(100, 1, 3);
        let a = NeighborOrders::build(&fm, 15);
        // Force the brute general path on the same 1-feature matrix.
        let mut order_b = vec![0u32; 100 * 15];
        fill_select(&Pool::serial(), &fm, 15, &mut order_b);
        for i in 0..100 {
            assert_eq!(
                a.neighbors_of(i),
                &order_b[i * 15..(i + 1) * 15],
                "point {i}"
            );
        }
    }

    #[test]
    fn tree_path_equals_brute_path() {
        // Above the auto threshold the general build routes through the
        // tree; it must agree with the brute fill bitwise — including the
        // tie-breaks exercised by duplicated points.
        let mut fm = random_matrix(600, 3, 17);
        let dup: Vec<f64> = fm.point(5).to_vec();
        let mut data: Vec<f64> = Vec::new();
        for i in 0..600 {
            if i % 50 == 0 {
                data.extend_from_slice(&dup);
            } else {
                data.extend_from_slice(fm.point(i));
            }
        }
        fm = FeatureMatrix::from_dense(3, (0..600u32).collect::<Vec<u32>>(), data);

        let auto = NeighborOrders::build_on(&Pool::serial(), &fm, 12);
        let mut brute = vec![0u32; 600 * 12];
        fill_select(&Pool::serial(), &fm, 12, &mut brute);
        for i in 0..600 {
            assert_eq!(auto.neighbors_of(i), &brute[i * 12..(i + 1) * 12], "{i}");
        }
    }

    #[test]
    fn order_key_sorts_like_total_cmp_then_position() {
        let values = [
            0.0,
            -0.0,
            1.5,
            -2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            1.5,
            5e-324,
        ];
        let mut pairs: Vec<(f64, u32)> = values.iter().copied().zip(0u32..).collect();
        pairs.extend(values.iter().copied().zip(100u32..));
        let mut by_key: Vec<u128> = pairs.iter().map(|&(v, p)| order_key(v, p)).collect();
        by_key.sort_unstable();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let want: Vec<u32> = pairs.iter().map(|&(_, p)| p).collect();
        let got: Vec<u32> = by_key.iter().map(|&k| k as u32).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn selection_equals_tree_on_both_sides_of_the_cutover() {
        // Duplicated points make exact distance ties, broken on position.
        let n = 800;
        let base = random_matrix(n, 3, 31);
        let mut data = Vec::with_capacity(n * 3);
        for i in 0..n {
            let src = if i % 40 == 0 {
                7
            } else if i % 97 == 0 {
                i - 1
            } else {
                i
            };
            data.extend_from_slice(base.point(src));
        }
        let fm = FeatureMatrix::from_dense(3, (0..n as u32).collect::<Vec<u32>>(), data);
        let tree = VpNodes::build(&fm);
        let index = NeighborIndex::build(fm.clone(), IndexChoice::VpTree);
        let cut = n.div_ceil(SELECT_DEPTH_RATIO);
        for depth in [1, 12, cut - 1, cut, cut + 1, 300, n] {
            assert_eq!(selection_pays(n, depth), depth >= cut, "depth {depth}");
            let mut via_tree = vec![0u32; n * depth];
            fill_vp(&Pool::serial(), &fm, &tree, depth, &mut via_tree);
            let mut selected = vec![0u32; n * depth];
            fill_select(
                &Pool::new(2).with_serial_cutoff(1),
                &fm,
                depth,
                &mut selected,
            );
            assert_eq!(via_tree, selected, "depth {depth}");
            let built = NeighborOrders::build_on(&Pool::serial(), &fm, depth);
            let from_index = NeighborOrders::build_from_index(&Pool::serial(), &index, depth);
            for i in 0..n {
                let want = &selected[i * depth..(i + 1) * depth];
                assert_eq!(built.neighbors_of(i), want, "build depth {depth} point {i}");
                assert_eq!(
                    from_index.neighbors_of(i),
                    want,
                    "index depth {depth} point {i}"
                );
            }
        }
    }

    #[test]
    fn pending_tree_appends_take_the_scan() {
        // A VP-tree holding pending appends: the tree structure does not
        // cover them, so even shallow orders must come from the scan.
        let fm = random_matrix(600, 2, 41);
        let mut index = NeighborIndex::build(fm.clone(), IndexChoice::VpTree);
        let mut grown = fm.clone();
        for p in [[1.0, 1.0], [-4.0, 3.5]] {
            index.push(&p, grown.len() as u32);
            grown.push(&p, grown.len() as u32);
        }
        assert!(matches!(&index, NeighborIndex::VpTree(t) if t.pending_len() == 2));
        let via = NeighborOrders::build_from_index(&Pool::serial(), &index, 8);
        let reference = NeighborOrders::build_on(&Pool::serial(), &grown, 8);
        for i in 0..grown.len() {
            assert_eq!(via.neighbors_of(i), reference.neighbors_of(i), "point {i}");
        }
    }

    #[test]
    fn build_from_index_matches_build_for_both_variants() {
        for f in [1usize, 3] {
            let fm = random_matrix(80, f, 23);
            let reference = NeighborOrders::build_on(&Pool::serial(), &fm, 9);
            for choice in [IndexChoice::Brute, IndexChoice::VpTree] {
                let index = NeighborIndex::build(fm.clone(), choice);
                let via = NeighborOrders::build_from_index(&Pool::serial(), &index, 9);
                for i in 0..80 {
                    assert_eq!(
                        reference.neighbors_of(i),
                        via.neighbors_of(i),
                        "f={f} {:?}",
                        choice
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_build_matches_serial() {
        // Every construction path (line sweep, brute selection, tree
        // queries) is identical for every worker count.
        for (n, f) in [(90usize, 1usize), (90, 3), (700, 2)] {
            let fm = random_matrix(n, f, 21);
            let serial = NeighborOrders::build_on(&Pool::serial(), &fm, 12);
            let parallel = NeighborOrders::build_on(&Pool::new(4).with_serial_cutoff(1), &fm, 12);
            for i in 0..n {
                assert_eq!(
                    serial.neighbors_of(i),
                    parallel.neighbors_of(i),
                    "n={n} f={f}"
                );
            }
        }
    }

    #[test]
    fn depth_clamps_to_n() {
        let fm = random_matrix(5, 2, 9);
        let orders = NeighborOrders::build(&fm, 50);
        assert_eq!(orders.depth(), 5);
        assert_eq!(orders.neighbors_of(2).len(), 5);
    }

    #[test]
    fn fig1_learning_neighbors() {
        // Example 2: NN(t1, {A1}, 4) = {t1, t2, t3, t4}.
        let (rel, _) = iim_data::paper_fig1();
        let all: Vec<u32> = (0..8).collect();
        let fm = FeatureMatrix::gather(&rel, &[0], &all);
        let orders = NeighborOrders::build(&fm, 4);
        assert_eq!(orders.neighbors_of(0), &[0, 1, 2, 3]);
    }

    #[test]
    fn empty_matrix() {
        let fm = FeatureMatrix::from_dense(1, vec![], vec![]);
        let orders = NeighborOrders::build(&fm, 5);
        assert!(orders.is_empty());
        assert_eq!(orders.depth(), 0);
    }
}
