//! The storable neighbor-search index behind every hot path.
//!
//! The paper punts on search ("advanced indexing and searching techniques
//! could be applied, which is not the focus of this study", §V-A) — its
//! complexity analysis assumes the brute O(n·m) scan. This module is the
//! workspace's answer for serving at scale: one owned, `Send + Sync`
//! value that a fitted model stores at fit time and queries online,
//! either the exact scan or a VP-tree.
//!
//! # Determinism contract
//!
//! Whichever variant serves a query, the result is **bit-identical**: both
//! paths score candidates with the same [`sq_dist_f`](crate::dist) kernel
//! (batched leaf/block scans return bitwise the scalar values) and select
//! the k best through the same `(squared distance, position)` bounded
//! heap, so ties — including duplicate points and rounding-induced
//! distance collisions — resolve identically. Auto-selection can therefore
//! never change an imputation, only its latency. This is property-tested
//! (duplicates, `k > n`, streaming pushes, fitted-model serving,
//! m ∈ 1..16) in the neighbors crate and in `tests/index_parity.rs`.
//!
//! # Auto-selection heuristic
//!
//! [`IndexChoice::Auto`] picks by `(n, m)`, checked against two committed
//! measurements, both re-run whenever the kernels or the tree change:
//!
//! * `bench_results/BENCH_index_sweep.json`, written by `iim bench run
//!   crates/bench/specs/index_sweep.toml`: IIM and kNN end to end on the
//!   SN, PHASE, CCPP, ASF and CA analogs at their default sizes
//!   (m = 1, 3, 4, 5, 8), brute and VP-tree per cell, every filled
//!   relation asserted bitwise equal across the two.
//! * The criterion `index_knn_k10_latent` group in
//!   `crates/neighbors/benches/knn.rs`: raw k=10 search over correlated
//!   (two-factor latent) candidates, out to n = 50k and m = 12.
//!
//! Headline cells on a 2-vCPU Intel Xeon, µs per query (index sweep:
//! IIM `online_s` over the 5% imputed tuples, median of 3,
//! single-threaded; criterion: median per query):
//!
//! | source            | n, m      | brute | vptree |
//! |-------------------|-----------|-------|--------|
//! | index_sweep ASF   | 1.5k, 5   | 12.0  | 6.2    |
//! | index_sweep SN    | 20k, 1    | 97.0  | 2.9    |
//! | index_sweep CCPP  | 10k, 4    | 49.2  | 5.7    |
//! | index_sweep CA    | 20k, 8    | 159.7 | 11.0   |
//! | latent (criterion)| 50k, 8    | 488   | 103    |
//! | latent (criterion)| 10k, 12   | 125   | 40     |
//!
//! The tree wins every measured cell from n = 1.5k up, at every m.
//!
//! The rule is two-way:
//!
//! * At m = 0, below [`TREE_MIN_POINTS`] points, or past
//!   [`TREE_MAX_DIM`] features, the batched brute scan serves. Small
//!   matrices fit in cache and the SIMD kernel streams them faster than
//!   any traversal branches (and streaming appends would keep paying tree
//!   rebuilds that never amortize); past the dimensionality cap no cell
//!   was measured, and on iid high-dimensional data no exact index prunes
//!   — every metric ball contains almost everything.
//! * Otherwise the VP-tree serves. Its triangle-inequality pruning bounds
//!   the whole Formula-1 distance, not one coordinate of it, so it keeps
//!   paying at every measured dimensionality.
//!
//! The grid's correlated workload is deliberate: real relations have low
//! intrinsic dimension (that's why imputation works at all), and that is
//! what metric pruning exploits. On truly iid high-dim data trees win
//! nothing — override with [`IndexChoice::Brute`] there, or with
//! [`IndexChoice::VpTree`] when profiling says otherwise; results are
//! identical either way.

use crate::brute::{FeatureMatrix, Neighbor};
use crate::heap::KnnScratch;
use crate::vptree::VpTree;
use std::cell::Cell;

/// Minimum candidate count for [`IndexChoice::Auto`] to pick the tree;
/// below this the batched brute scan wins (see the module docs).
pub const TREE_MIN_POINTS: usize = 512;

/// Maximum feature dimensionality for [`IndexChoice::Auto`] to pick the
/// tree at all; past this (unmeasured, curse-of-dimensionality regime)
/// the batched brute scan is the safe default.
pub const TREE_MAX_DIM: usize = 16;

/// Which neighbor index to build for a candidate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexChoice {
    /// Pick by `(n, m)` — see [`auto_choice`] and the module docs.
    #[default]
    Auto,
    /// Always the exact linear scan.
    Brute,
    /// Always the VP-tree.
    VpTree,
}

impl IndexChoice {
    /// Parses a CLI-style name: `auto`, `brute`, or `vptree`
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Some(Self::Auto),
            "brute" => Some(Self::Brute),
            "vptree" | "vp-tree" | "vp" => Some(Self::VpTree),
            _ => None,
        }
    }

    /// The CLI-style name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Brute => "brute",
            Self::VpTree => "vptree",
        }
    }
}

/// Pending-append count that triggers a tree rebuild in
/// [`NeighborIndex::push`]: 1/16th of the indexed size, floored at 32 so
/// tiny trees don't rebuild on every append. Deterministic — a pure
/// function of how many points have been indexed — so two processes
/// absorbing the same sequence hold byte-identical state.
#[inline]
pub fn rebuild_threshold(indexed_len: usize) -> usize {
    (indexed_len / 16).max(32)
}

/// The concrete index [`IndexChoice::Auto`] selects for `n` points of
/// dimensionality `m` (never returns `Auto`; see the module docs).
#[inline]
pub fn auto_choice(n: usize, m: usize) -> IndexChoice {
    if m == 0 || m > TREE_MAX_DIM || n < TREE_MIN_POINTS {
        IndexChoice::Brute
    } else {
        IndexChoice::VpTree
    }
}

/// An owned, storable nearest-neighbor index over a gathered
/// [`FeatureMatrix`] — the search substrate every hot path (IIM serving,
/// the kNN-family baselines, offline neighbor-order construction) runs on.
///
/// `Send + Sync`: one index fitted offline serves any number of concurrent
/// online query threads. See the [module docs](self) for the determinism
/// contract and the auto-selection heuristic.
pub enum NeighborIndex {
    /// Exact linear scan over the matrix.
    Brute(FeatureMatrix),
    /// Deterministic vantage-point tree owning the matrix.
    VpTree(VpTree),
}

impl NeighborIndex {
    /// Builds the index named by `choice` over `points`.
    pub fn build(points: FeatureMatrix, choice: IndexChoice) -> Self {
        let choice = match choice {
            IndexChoice::Auto => auto_choice(points.len(), points.n_features()),
            c => c,
        };
        match choice {
            IndexChoice::VpTree => Self::VpTree(VpTree::build(points)),
            _ => Self::Brute(points),
        }
    }

    /// [`NeighborIndex::build`] with [`IndexChoice::Auto`].
    pub fn auto(points: FeatureMatrix) -> Self {
        Self::build(points, IndexChoice::Auto)
    }

    /// The backing candidate matrix (points, row ids, dimensionality).
    pub fn matrix(&self) -> &FeatureMatrix {
        match self {
            Self::Brute(fm) => fm,
            Self::VpTree(t) => t.points(),
        }
    }

    /// `"brute"` or `"vptree"` — which variant was built.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Brute(_) => "brute",
            Self::VpTree(_) => "vptree",
        }
    }

    /// Appends one point (streaming ingestion). Brute appends are exact by
    /// construction; the tree buffers the point and queries union the
    /// structure with a linear scan of the buffer until
    /// [`rebuild_threshold`] pending points accumulate, at which point the
    /// structure is rebuilt over everything. The policy is a pure function
    /// of the point counts — deterministic across processes — and can
    /// never change an answer, only query latency.
    pub fn push(&mut self, point: &[f64], row_id: u32) {
        match self {
            Self::Brute(fm) => fm.push(point, row_id),
            Self::VpTree(t) => {
                t.append(point, row_id);
                if t.pending_len() >= rebuild_threshold(t.indexed_len()) {
                    t.rebuild();
                }
            }
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.matrix().len()
    }

    /// True when no points are indexed.
    pub fn is_empty(&self) -> bool {
        self.matrix().is_empty()
    }

    /// The k nearest points to `query`, ascending by
    /// `(distance, position)` — identical across variants.
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.knn_into(query, k, &mut out);
        out
    }

    /// [`NeighborIndex::knn`] into a caller-owned output buffer; the
    /// selection heap comes from per-thread scratch, so steady-state
    /// serving does not allocate.
    pub fn knn_into(&self, query: &[f64], k: usize, out: &mut Vec<Neighbor>) {
        iim_exec::with_tls_scratch(&THREAD_SCRATCH, |scratch| {
            self.knn_with(query, k, scratch, out)
        });
    }

    /// [`NeighborIndex::knn`] with fully caller-owned scratch *and*
    /// output — the explicit zero-allocation serving shape.
    pub fn knn_with(
        &self,
        query: &[f64],
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) {
        match self {
            Self::Brute(fm) => fm.knn_with(query, k, scratch, out),
            Self::VpTree(t) => t.knn_with(query, k, scratch, out),
        }
    }

    /// kNN lists for a batch of query rows, fanned out on `pool` with
    /// per-worker scratch; results are in query order and identical for
    /// every worker count.
    pub fn knn_batch(
        &self,
        pool: &iim_exec::Pool,
        queries: &[Vec<f64>],
        k: usize,
    ) -> Vec<Vec<Neighbor>> {
        pool.parallel_map_indexed(queries.len(), |i| {
            iim_exec::with_tls_scratch(&THREAD_SCRATCH, |scratch| {
                let mut out = Vec::new();
                self.knn_with(&queries[i], k, scratch, &mut out);
                out
            })
        })
    }
}

thread_local! {
    /// Per-thread selection scratch behind [`NeighborIndex::knn_into`]
    /// (see [`iim_exec::with_tls_scratch`] for the take/put contract).
    static THREAD_SCRATCH: Cell<KnnScratch> = Cell::new(KnnScratch::new());
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(n: usize, f: usize, seed: u64) -> FeatureMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..n * f).map(|_| rng.gen_range(-10.0..10.0)).collect();
        FeatureMatrix::from_dense(f, (0..n as u32).collect::<Vec<u32>>(), data)
    }

    #[test]
    fn auto_selection_heuristic() {
        assert_eq!(
            auto_choice(100, 2),
            IndexChoice::Brute,
            "small n stays brute"
        );
        assert_eq!(auto_choice(TREE_MIN_POINTS, 2), IndexChoice::VpTree);
        assert_eq!(auto_choice(1000, 4), IndexChoice::VpTree);
        assert_eq!(auto_choice(100_000, 8), IndexChoice::VpTree);
        assert_eq!(auto_choice(100_000, TREE_MAX_DIM), IndexChoice::VpTree);
        assert_eq!(
            auto_choice(100_000, TREE_MAX_DIM + 1),
            IndexChoice::Brute,
            "past the dimensionality cap the scan is the safe default"
        );
        assert_eq!(
            auto_choice(TREE_MIN_POINTS - 1, 12),
            IndexChoice::Brute,
            "tiny candidate sets never pay for a tree"
        );
        assert_eq!(auto_choice(100_000, 0), IndexChoice::Brute);

        let small = NeighborIndex::auto(random_matrix(64, 2, 1));
        assert_eq!(small.kind(), "brute");
        let large = NeighborIndex::auto(random_matrix(600, 2, 2));
        assert_eq!(large.kind(), "vptree");
    }

    #[test]
    fn choice_parse_round_trips() {
        for c in [IndexChoice::Auto, IndexChoice::Brute, IndexChoice::VpTree] {
            assert_eq!(IndexChoice::parse(c.name()), Some(c));
        }
        assert_eq!(IndexChoice::parse("VP-Tree"), Some(IndexChoice::VpTree));
        assert_eq!(IndexChoice::parse("vp"), Some(IndexChoice::VpTree));
        assert_eq!(IndexChoice::parse("annoy"), None);
        assert_eq!(IndexChoice::default(), IndexChoice::Auto);
    }

    #[test]
    fn variants_agree_bitwise_including_k_above_n() {
        let fm = random_matrix(137, 3, 9);
        let brute = NeighborIndex::build(fm.clone(), IndexChoice::Brute);
        let vp = NeighborIndex::build(fm.clone(), IndexChoice::VpTree);
        assert_eq!(brute.kind(), "brute");
        assert_eq!(vp.kind(), "vptree");
        assert_eq!(brute.len(), vp.len());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let q: Vec<f64> = (0..3).map(|_| rng.gen_range(-12.0..12.0)).collect();
            for k in [1usize, 5, 137, 500] {
                let a = brute.knn(&q, k);
                let b = vp.knn(&q, k);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.pos, y.pos);
                    assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                }
            }
        }
    }

    #[test]
    fn index_is_send_sync_and_batch_matches_singles() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NeighborIndex>();

        let fm = random_matrix(700, 2, 5);
        let index = NeighborIndex::auto(fm.clone());
        let mut rng = StdRng::seed_from_u64(11);
        let queries: Vec<Vec<f64>> = (0..90)
            .map(|_| (0..2).map(|_| rng.gen_range(-12.0..12.0)).collect())
            .collect();
        let pool = iim_exec::Pool::new(4).with_serial_cutoff(1);
        let batch = index.knn_batch(&pool, &queries, 6);
        for (q, nn) in queries.iter().zip(&batch) {
            assert_eq!(nn, &fm.knn(q, 6));
        }
    }

    #[test]
    fn streaming_pushes_stay_exact_across_rebuilds() {
        // 64 indexed points → rebuild_threshold = 32: the 100 pushes cross
        // at least one rebuild, and every intermediate state must answer
        // bit-identically to the brute scan over the same grown set.
        let fm = random_matrix(64, 2, 77);
        let mut vp = NeighborIndex::build(fm.clone(), IndexChoice::VpTree);
        let mut brute = NeighborIndex::build(fm, IndexChoice::Brute);
        let mut rng = StdRng::seed_from_u64(78);
        for i in 0..100u32 {
            let p: Vec<f64> = (0..2).map(|_| rng.gen_range(-10.0..10.0)).collect();
            vp.push(&p, 64 + i);
            brute.push(&p, 64 + i);
            assert_eq!(vp.len(), brute.len());
            let q: Vec<f64> = (0..2).map(|_| rng.gen_range(-12.0..12.0)).collect();
            let a = brute.knn(&q, 7);
            let b = vp.knn(&q, 7);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.pos, y.pos, "push {i}");
                assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "push {i}");
            }
        }
        assert_eq!(rebuild_threshold(0), 32);
        assert_eq!(rebuild_threshold(1024), 64);
    }

    #[test]
    fn empty_matrix_serves_empty_answers() {
        for choice in [IndexChoice::Brute, IndexChoice::VpTree] {
            let idx = NeighborIndex::build(FeatureMatrix::from_dense(2, vec![], vec![]), choice);
            assert!(idx.is_empty());
            assert!(idx.knn(&[0.0, 0.0], 4).is_empty());
        }
    }
}
