//! Deterministic vantage-point tree: the workspace's one exact tree index.
//!
//! Axis-aligned pruning weakens as dimensionality grows because each split
//! plane bounds only `diff²/|F|` of the normalized distance — one axis of
//! many. A VP-tree prunes in the *metric* itself: every internal node
//! holds a vantage point and the median Formula-1 radius `mu` of its
//! subtree, and the triangle inequality bounds the whole distance, not one
//! coordinate of it. On the correlated workloads the paper targets (where
//! data hugs a low-dimensional manifold inside a high-dimensional box)
//! metric balls adapt to the manifold while axis-aligned boxes cannot, so
//! the VP-tree keeps paying as the dimensionality grows — see
//! `bench_results/BENCH_index_sweep.json` and the criterion
//! `index_knn_k10_latent` group for the measurements.
//!
//! # Determinism
//!
//! Vantage points are chosen by a **seeded, committed rule**: within a
//! node's range, the point whose position hashes smallest under
//! `splitmix64` with the committed `VP_SEED`. The rule depends only on
//! the set of positions in the range — never on their arrangement — so a
//! rebuild over the same points yields the same tree. More importantly,
//! the choice can only steer *latency*: search scores candidates with the
//! same [`sq_dist_f`] kernel and selects through the same
//! `(squared distance, position)` bounded heap as brute, and pruning is
//! strictly conservative (a small relative slack absorbs floating-point
//! rounding in the triangle-inequality bound, and equality never prunes),
//! so results are **bit-identical** to the brute scan — property-tested in
//! `tests/index_parity.rs`.
//!
//! The tree owns its gathered [`FeatureMatrix`] plus a copy of the points
//! permuted into traversal order, so leaf scans run the batched distance
//! kernel over contiguous rows.

use crate::brute::{FeatureMatrix, Neighbor};
use crate::dist::sq_dist_f;
use crate::heap::{push_bounded, scan_rows_perm, scan_rows_seq, Entry, KnnScratch};
use std::collections::BinaryHeap;

/// Leaf capacity: below this the batched contiguous scan beats further
/// ball splitting.
const LEAF: usize = 32;

/// Committed seed for the vantage-point rule (see the module docs).
const VP_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Relative slack absorbing floating-point rounding in the pruning bound:
/// ~100× the worst-case relative error of the distance kernel at |F| ≤ 64,
/// still far too small to cost measurable pruning power.
const PRUNE_SLACK: f64 = 1e-12;

/// SplitMix64 finalizer — the committed position hash behind the
/// vantage-point rule.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Offset (within `range`) of the position hashing smallest — the
/// committed vantage-point choice. Invariant to the arrangement of
/// `range`: positions are distinct, so the argmin is unique.
#[inline]
fn pick_vantage(range: &[u32]) -> usize {
    let mut best = 0usize;
    let mut best_h = u64::MAX;
    for (i, &p) in range.iter().enumerate() {
        let h = splitmix64(VP_SEED ^ p as u64);
        if h < best_h {
            best_h = h;
            best = i;
        }
    }
    best
}

struct Node {
    /// Median Formula-1 radius of the subtree's points around the vantage
    /// point (leaves: unused, 0).
    mu: f64,
    /// `idx` range covered by this node; for internal nodes the vantage
    /// point sits at `idx[start]` and the children split `start+1..end`.
    start: u32,
    end: u32,
    /// Children ids in `nodes` (0 = none; a leaf has neither).
    inside: u32,
    outside: u32,
}

/// The tree *structure* alone — flattened nodes, the point permutation,
/// and the points gathered into permutation order so every scan is
/// contiguous. Self-contained at query time; kept separate from the
/// owning [`VpTree`] so the neighbor-orders build can index a borrowed
/// matrix without cloning it.
pub(crate) struct VpNodes {
    nodes: Vec<Node>,
    idx: Vec<u32>,
    /// `idx.len() × m` row-major copy of the points in `idx` order.
    gathered: Vec<f64>,
}

impl VpNodes {
    /// Builds the structure over all points of `points`.
    pub(crate) fn build(points: &FeatureMatrix) -> Self {
        let n = points.len();
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let mut nodes = Vec::with_capacity(2 * (n / LEAF + 1));
        // Placeholder so child index 0 can mean "none".
        nodes.push(Node {
            mu: 0.0,
            start: 0,
            end: 0,
            inside: 0,
            outside: 0,
        });
        let mut scratch: Vec<(f64, u32)> = Vec::new();
        if n > 0 {
            Self::build_rec(points, &mut nodes, &mut idx, 0, n, &mut scratch);
        }
        let m = points.n_features();
        let mut gathered = Vec::with_capacity(n * m);
        for &p in &idx {
            gathered.extend_from_slice(points.point(p as usize));
        }
        Self {
            nodes,
            idx,
            gathered,
        }
    }

    fn build_rec(
        points: &FeatureMatrix,
        nodes: &mut Vec<Node>,
        idx: &mut [u32],
        start: usize,
        end: usize,
        scratch: &mut Vec<(f64, u32)>,
    ) -> u32 {
        let node_id = nodes.len() as u32;
        if end - start <= LEAF {
            nodes.push(Node {
                mu: 0.0,
                start: start as u32,
                end: end as u32,
                inside: 0,
                outside: 0,
            });
            return node_id;
        }
        // Committed seeded vantage-point rule; the chosen point moves to
        // the front of the range and is scored at this node during search.
        let off = pick_vantage(&idx[start..end]);
        idx.swap(start, start + off);
        let vp = points.point(idx[start] as usize);
        scratch.clear();
        scratch.extend(
            idx[start + 1..end]
                .iter()
                .map(|&p| (sq_dist_f(vp, points.point(p as usize)), p)),
        );
        // Median split on (distance to vp, position): everything at or
        // below the median distance goes inside the ball, the rest outside.
        let half = scratch.len() / 2;
        scratch.select_nth_unstable_by(half, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mu = scratch[half].0.sqrt();
        for (slot, (_, p)) in idx[start + 1..end].iter_mut().zip(scratch.iter()) {
            *slot = *p;
        }
        nodes.push(Node {
            mu,
            start: start as u32,
            end: end as u32,
            inside: 0,
            outside: 0,
        });
        let mid = start + 1 + half + 1;
        let inside = Self::build_rec(points, nodes, idx, start + 1, mid, scratch);
        let outside = Self::build_rec(points, nodes, idx, mid, end, scratch);
        nodes[node_id as usize].inside = inside;
        nodes[node_id as usize].outside = outside;
        node_id
    }

    /// Top-k query into caller-owned scratch + output buffers.
    pub(crate) fn knn_with(
        &self,
        query: &[f64],
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) {
        out.clear();
        scratch.heap.clear();
        if k == 0 || self.idx.is_empty() {
            return;
        }
        let k = k.min(self.idx.len());
        self.search(1, query, k, &mut scratch.heap);
        out.extend(scratch.drain_sorted().iter().map(|e| Neighbor {
            pos: e.pos,
            dist: e.sq.sqrt(),
        }));
    }

    pub(crate) fn search(
        &self,
        node_id: u32,
        query: &[f64],
        k: usize,
        heap: &mut BinaryHeap<Entry>,
    ) {
        let node = &self.nodes[node_id as usize];
        let (start, end) = (node.start as usize, node.end as usize);
        let m = query.len();
        if node.inside == 0 {
            // Leaf: batched contiguous scan; same kernel, same heap, so
            // bitwise what a brute scan of these rows would select.
            scan_rows_perm(
                heap,
                k,
                query,
                &self.gathered[start * m..end * m],
                &self.idx[start..end],
            );
            return;
        }
        // Score the vantage point itself with the shared kernel.
        let sq = sq_dist_f(query, &self.gathered[start * m..(start + 1) * m]);
        push_bounded(
            heap,
            k,
            Entry {
                sq,
                pos: self.idx[start],
            },
        );
        let dq = sq.sqrt();
        let mu = node.mu;
        // Visit the child whose region contains the query first — it
        // tightens `worst` fastest, maximizing pruning of the other side.
        let (near, far, near_is_inside) = if dq < mu {
            (node.inside, node.outside, true)
        } else {
            (node.outside, node.inside, false)
        };
        self.search(near, query, k, heap);
        if heap.len() < k {
            self.search(far, query, k, heap);
            return;
        }
        let worst_sq = heap.peek().map(|e| e.sq).unwrap_or(f64::INFINITY);
        // Triangle inequality: anything inside the ball is at least
        // `dq − mu` away, anything outside at least `mu − dq`. Shrink the
        // bound by a relative slack so rounding in the computed distances
        // can never prune a point that could still win (equality never
        // prunes) — pruning stays strictly conservative, results bitwise
        // equal to brute.
        let lb = if near_is_inside { mu - dq } else { dq - mu };
        let lb = lb - PRUNE_SLACK * (dq + mu);
        if !(lb > 0.0 && lb * lb * (1.0 - PRUNE_SLACK) > worst_sq) {
            self.search(far, query, k, heap);
        }
    }
}

/// A deterministic vantage-point tree that **owns** its [`FeatureMatrix`].
///
/// A plain `Send + Sync` storable value that fitted models hold and serve
/// concurrent queries from, with a streaming-append contract (pending
/// buffer scanned exactly, periodic rebuild that can never change an
/// answer) and results bit-identical to the brute scan. See the
/// [module docs](self) for how it prunes.
pub struct VpTree {
    points: FeatureMatrix,
    tree: VpNodes,
    /// Positions `0..indexed_len` are covered by `tree`; the rest are the
    /// pending buffer, scanned linearly at query time.
    indexed_len: usize,
}

impl VpTree {
    /// Builds a tree over all points of `points`, taking ownership.
    pub fn build(points: FeatureMatrix) -> Self {
        let tree = VpNodes::build(&points);
        let indexed_len = points.len();
        Self {
            points,
            tree,
            indexed_len,
        }
    }

    /// The owned point matrix (indexed prefix plus pending tail).
    pub fn points(&self) -> &FeatureMatrix {
        &self.points
    }

    /// Number of points covered by the tree structure (the rest are
    /// pending appends, scanned linearly).
    pub fn indexed_len(&self) -> usize {
        self.indexed_len
    }

    /// Number of appended points awaiting a [`VpTree::rebuild`].
    pub fn pending_len(&self) -> usize {
        self.points.len() - self.indexed_len
    }

    /// Appends one point to the pending buffer (streaming ingestion).
    /// Queries stay exact — [`VpTree::knn_with`] unions the tree search
    /// with a linear scan of the pending tail — so when and whether a
    /// rebuild happens can never change an answer, only latency.
    pub fn append(&mut self, point: &[f64], row_id: u32) {
        self.points.push(point, row_id);
    }

    /// Folds the pending buffer into the tree by rebuilding the structure
    /// over all points. Results are identical before and after.
    pub fn rebuild(&mut self) {
        self.tree = VpNodes::build(&self.points);
        self.indexed_len = self.points.len();
    }

    /// The flattened tree structure (crate-internal: the neighbor-orders
    /// build queries it directly).
    pub(crate) fn nodes(&self) -> &VpNodes {
        &self.tree
    }

    /// The k nearest points to `query`, ascending by `(distance, position)`
    /// — bit-identical ordering and values to [`FeatureMatrix::knn`].
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.knn_into(query, k, &mut out);
        out
    }

    /// [`VpTree::knn`] into a reusable output buffer.
    pub fn knn_into(&self, query: &[f64], k: usize, out: &mut Vec<Neighbor>) {
        let mut scratch = KnnScratch::new();
        self.knn_with(query, k, &mut scratch, out);
    }

    /// kNN lists for a batch of query rows, fanned out on `pool`; results
    /// are in query order and identical for every worker count.
    pub fn knn_batch(
        &self,
        pool: &iim_exec::Pool,
        queries: &[Vec<f64>],
        k: usize,
    ) -> Vec<Vec<Neighbor>> {
        pool.parallel_map_indexed(queries.len(), |i| self.knn(&queries[i], k))
    }

    /// [`VpTree::knn_into`] with caller-owned selection scratch — no
    /// allocation at steady state.
    ///
    /// Tree search over the indexed prefix, then an exact batched scan of
    /// the pending tail into the **same** `(squared distance, position)`
    /// heap — the union selection is bit-identical to a brute scan over
    /// all points, so appends never perturb tie-breaks.
    pub fn knn_with(
        &self,
        query: &[f64],
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<Neighbor>,
    ) {
        out.clear();
        scratch.heap.clear();
        if k == 0 || self.points.is_empty() {
            return;
        }
        let k = k.min(self.points.len());
        // An initially-empty build has only the placeholder node, so the
        // tree search must be skipped until a rebuild covers real points.
        if self.indexed_len > 0 {
            self.tree.search(1, query, k, &mut scratch.heap);
        }
        let m = self.points.n_features();
        scan_rows_seq(
            &mut scratch.heap,
            k,
            query,
            &self.points.data()[self.indexed_len * m..],
            self.indexed_len as u32,
        );
        out.extend(scratch.drain_sorted().iter().map(|e| Neighbor {
            pos: e.pos,
            dist: e.sq.sqrt(),
        }));
    }
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
    fn agrees_with_brute_force_bitwise() {
        for &(n, f) in &[
            (1usize, 1usize),
            (5, 2),
            (100, 1),
            (257, 3),
            (1000, 4),
            (500, 12),
        ] {
            let fm = random_matrix(n, f, n as u64 * 31 + f as u64);
            let tree = VpTree::build(fm.clone());
            let mut rng = StdRng::seed_from_u64(99);
            for _ in 0..20 {
                let q: Vec<f64> = (0..f).map(|_| rng.gen_range(-12.0..12.0)).collect();
                let k = rng.gen_range(1..=n.min(12));
                let a = fm.knn(&q, k);
                let b = tree.knn(&q, k);
                assert_eq!(a.len(), b.len(), "n={n} f={f} k={k}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.pos, y.pos, "n={n} f={f} k={k}");
                    assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "n={n} f={f} k={k}");
                }
            }
        }
    }

    #[test]
    fn duplicate_points_tie_break_on_position() {
        // 120 points, only 4 distinct locations: duplicates collapse every
        // node's ball boundary into one radius, and selection inside a tie
        // group must still follow ascending position exactly like brute.
        let mut data = Vec::new();
        for i in 0..120 {
            let v = (i % 4) as f64;
            data.extend_from_slice(&[v, -v]);
        }
        let fm = FeatureMatrix::from_dense(2, (0..120u32).collect::<Vec<u32>>(), data);
        let tree = VpTree::build(fm.clone());
        for k in [1usize, 3, 9, 40, 120, 200] {
            for q in [[0.0, 0.0], [2.0, -2.0], [1.4, -0.6]] {
                let a = fm.knn(&q, k);
                let b = tree.knn(&q, k);
                assert_eq!(a.len(), b.len(), "k={k}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.pos, y.pos, "k={k} q={q:?}");
                    assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                }
            }
        }
    }

    #[test]
    fn empty_and_k_zero() {
        let tree = VpTree::build(FeatureMatrix::from_dense(2, vec![], vec![]));
        assert!(tree.knn(&[0.0, 0.0], 3).is_empty());
        let tree2 = VpTree::build(random_matrix(10, 2, 1));
        assert!(tree2.knn(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn scratch_reuse_matches_fresh_queries() {
        let fm = random_matrix(300, 2, 12);
        let tree = VpTree::build(fm.clone());
        let mut scratch = KnnScratch::new();
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let q: Vec<f64> = (0..2).map(|_| rng.gen_range(-12.0..12.0)).collect();
            let k = rng.gen_range(1..=20);
            tree.knn_with(&q, k, &mut scratch, &mut out);
            assert_eq!(out, fm.knn(&q, k));
        }
    }

    #[test]
    fn vantage_rule_is_arrangement_invariant() {
        let fwd: Vec<u32> = (0..200).collect();
        let mut rev = fwd.clone();
        rev.reverse();
        let a = fwd[pick_vantage(&fwd)];
        let b = rev[pick_vantage(&rev)];
        assert_eq!(a, b, "vantage choice must depend only on the set");
    }

    #[test]
    fn tree_is_send_sync_and_batch_matches_brute() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VpTree>();

        let fm = random_matrix(200, 3, 8);
        let tree = VpTree::build(fm.clone());
        let mut rng = StdRng::seed_from_u64(4);
        let queries: Vec<Vec<f64>> = (0..80)
            .map(|_| (0..3).map(|_| rng.gen_range(-12.0..12.0)).collect())
            .collect();
        let pool = iim_exec::Pool::new(4).with_serial_cutoff(1);
        let batch = tree.knn_batch(&pool, &queries, 7);
        for (q, nn) in queries.iter().zip(&batch) {
            let brute = fm.knn(q, 7);
            assert_eq!(nn.len(), brute.len());
            for (a, b) in nn.iter().zip(&brute) {
                assert_eq!(a.pos, b.pos);
                assert_eq!(a.dist.to_bits(), b.dist.to_bits());
            }
        }
    }

    #[test]
    fn appended_points_match_brute_before_and_after_rebuild() {
        let fm = random_matrix(100, 2, 21);
        let mut tree = VpTree::build(fm.clone());
        let mut brute = fm;
        let mut rng = StdRng::seed_from_u64(33);
        for i in 0..50u32 {
            let p: Vec<f64> = (0..2).map(|_| rng.gen_range(-10.0..10.0)).collect();
            tree.append(&p, 100 + i);
            brute.push(&p, 100 + i);
            let q: Vec<f64> = (0..2).map(|_| rng.gen_range(-12.0..12.0)).collect();
            let a = brute.knn(&q, 9);
            let b = tree.knn(&q, 9);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.pos, y.pos, "append {i}");
                assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "append {i}");
            }
        }
        assert_eq!(tree.pending_len(), 50);
        tree.rebuild();
        assert_eq!(tree.pending_len(), 0);
        assert_eq!(tree.indexed_len(), 150);
        let q = [0.5, -0.5];
        let a = brute.knn(&q, 9);
        let b = tree.knn(&q, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pos, y.pos);
            assert_eq!(x.dist.to_bits(), y.dist.to_bits());
        }
    }

    #[test]
    fn append_into_empty_tree_is_searchable() {
        let mut tree = VpTree::build(FeatureMatrix::from_dense(1, vec![], vec![]));
        tree.append(&[3.0], 0);
        tree.append(&[1.0], 1);
        assert_eq!(tree.indexed_len(), 0);
        let nn = tree.knn(&[0.0], 1);
        assert_eq!(nn[0].pos, 1);
        tree.rebuild();
        assert_eq!(tree.knn(&[0.0], 1)[0].pos, 1);
    }

    #[test]
    fn exact_point_has_zero_distance() {
        let fm = random_matrix(64, 3, 5);
        let tree = VpTree::build(fm.clone());
        let q: Vec<f64> = fm.point(17).to_vec();
        let nn = tree.knn(&q, 1);
        assert_eq!(nn[0].pos, 17);
        assert_eq!(nn[0].dist, 0.0);
    }

    #[test]
    fn rebuild_is_structurally_deterministic() {
        // Same points → same traversal permutation, twice over.
        let fm = random_matrix(300, 4, 7);
        let a = VpNodes::build(&fm);
        let b = VpNodes::build(&fm);
        assert_eq!(a.idx, b.idx);
    }
}
