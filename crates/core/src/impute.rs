//! The imputation phase (Algorithm 2): candidates from the individual
//! models of the k imputation neighbors, combined by mutual voting.
//!
//! Two shapes of the same computation live here:
//!
//! * one-shot wrappers ([`impute_candidates`], [`combine_candidates`]) —
//!   the readable API, kept for compatibility;
//! * the zero-allocation serving path ([`ImputeScratch`],
//!   [`impute_candidates_into`], [`impute_with_scratch`]) — the per-query
//!   hot loop behind [`IimModel::impute`](crate::IimModel::impute), which
//!   searches through the fitted [`NeighborIndex`] and reuses every
//!   buffer. Both produce bit-identical imputations.

use crate::config::Weighting;
use iim_linalg::RidgeModel;
use iim_neighbors::brute::{FeatureMatrix, Neighbor};
use iim_neighbors::{KnnScratch, NeighborIndex};

/// Candidate counts up to this size aggregate through a stack buffer —
/// no heap allocation on the k ≤ 16 serving path (the paper's default is
/// k = 10).
const STACK_K: usize = 16;

/// Reusable per-query buffers for the serving hot path: the kNN selection
/// heap, the neighbor list, the candidate values, and the mutual-vote
/// weight accumulator.
///
/// Scratch contents never influence results: a query served with a fresh
/// scratch and one served with a reused scratch return the same bits.
/// Keep one per worker thread (`IimModel::impute` does this internally via
/// thread-local storage; batch drivers inherit it per worker).
#[derive(Default)]
pub struct ImputeScratch {
    knn: KnnScratch,
    neighbors: Vec<Neighbor>,
    cands: Vec<(Neighbor, f64)>,
    cx: Vec<f64>,
}

impl ImputeScratch {
    /// An empty scratch; buffers grow to steady state on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The candidates produced by the last [`impute_candidates_into`]
    /// call: neighbors ascending by `(distance, position)` paired with
    /// their model predictions.
    pub fn candidates(&self) -> &[(Neighbor, f64)] {
        &self.cands
    }
}

/// (S1) + (S2): finds `Tx = NN(tx, F, k)` among the training tuples and
/// evaluates each neighbor's individual model at `tx[F]` (Formula 9).
///
/// Returns the neighbors (ascending by distance) paired with their
/// candidate values `t_x^j[Am]`. One-shot wrapper over the brute matrix;
/// the serving path is [`impute_candidates_into`].
pub fn impute_candidates(
    fm: &FeatureMatrix,
    models: &[RidgeModel],
    query: &[f64],
    k: usize,
) -> Vec<(Neighbor, f64)> {
    debug_assert_eq!(fm.len(), models.len());
    let neighbors = fm.knn(query, k);
    neighbors
        .into_iter()
        .map(|nb| {
            let candidate = models[nb.pos as usize].predict(query);
            (nb, candidate)
        })
        .collect()
}

/// [`impute_candidates`] through a fitted [`NeighborIndex`] into reusable
/// scratch: no allocation at steady state, bit-identical candidates to
/// the one-shot brute wrapper. Read the result via
/// [`ImputeScratch::candidates`].
pub fn impute_candidates_into(
    index: &NeighborIndex,
    models: &[RidgeModel],
    query: &[f64],
    k: usize,
    scratch: &mut ImputeScratch,
) {
    debug_assert_eq!(index.len(), models.len());
    index.knn_with(query, k, &mut scratch.knn, &mut scratch.neighbors);
    scratch.cands.clear();
    scratch.cands.extend(scratch.neighbors.iter().map(|&nb| {
        let candidate = models[nb.pos as usize].predict(query);
        (nb, candidate)
    }));
}

/// The whole online phase (S1–S3) for one query through the fitted index
/// and caller-owned scratch — the shape `IimModel::impute` serves with.
///
/// Returns `None` only for an empty candidate set (no training tuples).
pub fn impute_with_scratch(
    index: &NeighborIndex,
    models: &[RidgeModel],
    query: &[f64],
    k: usize,
    weighting: Weighting,
    scratch: &mut ImputeScratch,
) -> Option<f64> {
    impute_candidates_into(index, models, query, k, scratch);
    let ImputeScratch { cands, cx, .. } = scratch;
    combine_candidates_with(cands, weighting, cx)
}

/// (S3): aggregates the candidates into the final imputation
/// `t'_x[Am] = Σ t_x^j[Am] · w_xj` (Formula 10).
///
/// Under [`Weighting::MutualVote`], each candidate's weight is the
/// normalized inverse of its total distance to the other candidates
/// (Formulas 11–12): candidates agreeing with each other dominate, outliers
/// are suppressed (Figure 3). When all candidates coincide the formula's
/// `0/0` limit is the common value, which is what is returned.
///
/// Returns `None` for an empty candidate set.
///
/// Allocation-free for `k ≤ 16` candidates (mutual-vote accumulators live
/// on the stack); above that a transient buffer is used — serve through
/// [`combine_candidates_with`] to reuse it.
pub fn combine_candidates(candidates: &[(Neighbor, f64)], weighting: Weighting) -> Option<f64> {
    // The transient buffer is only touched on the > STACK_K branch.
    combine_candidates_with(candidates, weighting, &mut Vec::new())
}

/// [`combine_candidates`] with a caller-owned weight buffer for candidate
/// sets larger than the stack cutoff — the scratch-reuse serving shape.
pub fn combine_candidates_with(
    candidates: &[(Neighbor, f64)],
    weighting: Weighting,
    cx: &mut Vec<f64>,
) -> Option<f64> {
    if candidates.len() <= STACK_K {
        let mut stack = [0.0f64; STACK_K];
        combine_in(candidates, weighting, &mut stack[..candidates.len()])
    } else {
        cx.resize(candidates.len(), 0.0);
        combine_in(candidates, weighting, &mut cx[..candidates.len()])
    }
}

/// Shared S3 body; `cx` must have exactly `candidates.len()` slots.
fn combine_in(candidates: &[(Neighbor, f64)], weighting: Weighting, cx: &mut [f64]) -> Option<f64> {
    if candidates.is_empty() {
        return None;
    }
    if candidates.len() == 1 {
        return Some(candidates[0].1);
    }
    match weighting {
        Weighting::Uniform => {
            let sum: f64 = candidates.iter().map(|(_, c)| c).sum();
            Some(sum / candidates.len() as f64)
        }
        Weighting::MutualVote => Some(mutual_vote(candidates, cx)),
        Weighting::InverseDistance => Some(inverse_distance(candidates)),
    }
}

fn mutual_vote(candidates: &[(Neighbor, f64)], cx: &mut [f64]) -> f64 {
    let k = candidates.len();
    debug_assert_eq!(cx.len(), k);
    // c_xi = Σ_j |c_i − c_j|  (Formula 11)
    for (slot, (_, ci)) in cx.iter_mut().zip(candidates) {
        let mut sum = 0.0;
        for (_, cj) in candidates {
            sum += (ci - cj).abs();
        }
        *slot = sum;
    }
    // Degenerate case: c_xi = 0 means candidate i coincides with *every*
    // other candidate, i.e. all candidates are equal — return that value
    // (the limit of Formula 12 as the spread vanishes). Scale-aware guard.
    let scale: f64 = candidates
        .iter()
        .map(|(_, c)| c.abs())
        .fold(0.0, f64::max)
        .max(1.0);
    let eps = 1e-12 * scale;
    if let Some(i) = (0..k).find(|&i| cx[i] <= eps) {
        return candidates[i].1;
    }
    // w_xi = c_xi⁻¹ / Σ_j c_xj⁻¹  (Formula 12)
    let inv_sum: f64 = cx.iter().map(|c| 1.0 / c).sum();
    candidates
        .iter()
        .zip(cx.iter())
        .map(|((_, ci), cxi)| ci * (1.0 / cxi) / inv_sum)
        .sum()
}

fn inverse_distance(candidates: &[(Neighbor, f64)]) -> f64 {
    // Weighted-kNN-style aggregation on the F-space distances; a neighbor
    // at distance zero takes the whole vote (first such wins ties, matching
    // the ascending order of the candidate list).
    let eps = 1e-12;
    if let Some((_, c)) = candidates.iter().find(|(nb, _)| nb.dist <= eps) {
        return *c;
    }
    let inv_sum: f64 = candidates.iter().map(|(nb, _)| 1.0 / nb.dist).sum();
    candidates
        .iter()
        .map(|(nb, c)| c * (1.0 / nb.dist) / inv_sum)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learn::learn_fixed;
    use iim_data::paper_fig1;
    use iim_neighbors::NeighborOrders;

    fn nb(pos: u32, dist: f64) -> Neighbor {
        Neighbor { pos, dist }
    }

    #[test]
    fn paper_example_3_end_to_end() {
        // k = 3, ℓ = 4: the paper reports candidates 1.19 (t5), 1.21 (t4),
        // 1.19 (t6) and final imputation 1.194, using its rounded
        // φ5 = (-4.36, 1.11). Exact least squares gives
        // φ5 = φ6 = (-4.4623, 1.1190) → candidates 1.133 (t5, t6) and
        // 1.228 (t4, from the exact φ4 = (5.5638, -0.8672)), with the same
        // mutual-vote weights (0.4, 0.2, 0.4) → 1.152. We pin the exact
        // values tightly, the paper's loosely.
        let (rel, _) = paper_fig1();
        let rows: Vec<u32> = (0..8).collect();
        let fm = FeatureMatrix::gather(&rel, &[0], &rows);
        let ys: Vec<f64> = (0..8).map(|i| rel.value(i, 1)).collect();
        let orders = NeighborOrders::build(&fm, 8);
        let models = learn_fixed(&fm, &ys, &orders, 4, 1e-9, 1).expect("finite");

        let cands = impute_candidates(&fm, &models, &[5.0], 3);
        assert_eq!(cands.len(), 3);
        // Neighbors are t5 (index 4, dist 1.8), t4 (index 3, dist 2.1),
        // t6 (index 5, dist 2.5).
        let by_pos: std::collections::HashMap<u32, f64> =
            cands.iter().map(|(nb, c)| (nb.pos, *c)).collect();
        assert!(
            (by_pos[&4] - 1.133).abs() < 0.005,
            "t5 candidate {}",
            by_pos[&4]
        );
        assert!(
            (by_pos[&3] - 1.228).abs() < 0.005,
            "t4 candidate {}",
            by_pos[&3]
        );
        assert!(
            (by_pos[&5] - 1.133).abs() < 0.005,
            "t6 candidate {}",
            by_pos[&5]
        );
        for (_, c) in &cands {
            assert!((c - 1.19).abs() < 0.1, "paper ballpark: {c}");
        }

        let imputed = combine_candidates(&cands, Weighting::MutualVote).unwrap();
        assert!((imputed - 1.152).abs() < 0.005, "imputed {imputed}");
        assert!((imputed - 1.194).abs() < 0.05, "paper ballpark: {imputed}");
        // Much closer to the truth 1.8 than kNN's value mean (3.43).
        assert!((imputed - 1.8).abs() < (3.43 - 1.8f64).abs());
    }

    #[test]
    fn mutual_vote_weights_match_example_3() {
        // Candidates 1.19, 1.21, 1.19 → c = (0.02, 0.04, 0.02), weights
        // (0.4, 0.2, 0.4).
        let cands = vec![(nb(0, 1.8), 1.19), (nb(1, 2.1), 1.21), (nb(2, 2.5), 1.19)];
        let v = combine_candidates(&cands, Weighting::MutualVote).unwrap();
        let expect = 1.19 * 0.4 + 1.21 * 0.2 + 1.19 * 0.4;
        assert!((v - expect).abs() < 1e-12);
    }

    #[test]
    fn mutual_vote_suppresses_outlier() {
        // Two agreeing candidates and one far outlier (Figure 3): with
        // k = 3 the agreeing pair each get weight → 0.4 and the outlier
        // → 0.2 (c_out ≈ 2·c_agree), i.e. strictly below uniform.
        let cands = vec![(nb(0, 1.0), 2.0), (nb(1, 1.0), 2.1), (nb(2, 1.0), 50.0)];
        let v = combine_candidates(&cands, Weighting::MutualVote).unwrap();
        let uniform = combine_candidates(&cands, Weighting::Uniform).unwrap();
        assert!((uniform - (2.0 + 2.1 + 50.0) / 3.0).abs() < 1e-12);
        assert!(v < uniform, "mutual vote {v} must beat uniform {uniform}");
        // Effective outlier weight (solve v = (1-w)·mean(2.0,2.1) + w·50).
        let w = (v - 2.05) / (50.0 - 2.05);
        assert!((w - 0.2).abs() < 0.01, "outlier weight {w}");
    }

    #[test]
    fn identical_candidates_return_common_value() {
        let cands = vec![(nb(0, 1.0), 7.5), (nb(1, 2.0), 7.5), (nb(2, 3.0), 7.5)];
        for w in [
            Weighting::MutualVote,
            Weighting::Uniform,
            Weighting::InverseDistance,
        ] {
            assert_eq!(combine_candidates(&cands, w), Some(7.5));
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(combine_candidates(&[], Weighting::MutualVote), None);
        let single = vec![(nb(0, 0.5), 3.25)];
        assert_eq!(
            combine_candidates(&single, Weighting::MutualVote),
            Some(3.25)
        );
    }

    #[test]
    fn inverse_distance_weighting() {
        let cands = vec![(nb(0, 1.0), 0.0), (nb(1, 3.0), 4.0)];
        // Weights 1/1 and 1/3 → (0*1 + 4*(1/3)) / (4/3) = 1.
        let v = combine_candidates(&cands, Weighting::InverseDistance).unwrap();
        assert!((v - 1.0).abs() < 1e-12);
        // Zero-distance neighbor dominates entirely.
        let exact = vec![(nb(0, 0.0), 9.0), (nb(1, 5.0), 1.0)];
        assert_eq!(
            combine_candidates(&exact, Weighting::InverseDistance),
            Some(9.0)
        );
    }

    #[test]
    fn scratch_path_matches_one_shot_wrappers() {
        let (rel, _) = paper_fig1();
        let rows: Vec<u32> = (0..8).collect();
        let fm = FeatureMatrix::gather(&rel, &[0], &rows);
        let ys: Vec<f64> = (0..8).map(|i| rel.value(i, 1)).collect();
        let orders = NeighborOrders::build(&fm, 8);
        let models = learn_fixed(&fm, &ys, &orders, 4, 1e-9, 1).expect("finite");
        let mut scratch = ImputeScratch::new();
        for choice in [
            iim_neighbors::IndexChoice::Brute,
            iim_neighbors::IndexChoice::VpTree,
        ] {
            let index = NeighborIndex::build(fm.clone(), choice);
            for q in [0.0, 2.5, 5.0, 9.1] {
                let one_shot = impute_candidates(&fm, &models, &[q], 3);
                impute_candidates_into(&index, &models, &[q], 3, &mut scratch);
                assert_eq!(scratch.candidates(), &one_shot[..]);
                for w in [
                    Weighting::MutualVote,
                    Weighting::Uniform,
                    Weighting::InverseDistance,
                ] {
                    let a = combine_candidates(&one_shot, w);
                    let b = impute_with_scratch(&index, &models, &[q], 3, w, &mut scratch);
                    assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
                }
            }
        }
    }

    #[test]
    fn combine_above_stack_cutoff_matches_reference() {
        // 40 candidates exercises the heap-buffer branch; a scratch-reuse
        // pass must agree bitwise with the one-shot wrapper.
        let cands: Vec<(Neighbor, f64)> = (0..40)
            .map(|i| (nb(i, 1.0 + i as f64 * 0.1), (i % 7) as f64 * 1.3 - 2.0))
            .collect();
        let mut cx = Vec::new();
        for w in [
            Weighting::MutualVote,
            Weighting::Uniform,
            Weighting::InverseDistance,
        ] {
            let a = combine_candidates(&cands, w).unwrap();
            let b = combine_candidates_with(&cands, w, &mut cx).unwrap();
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn weights_sum_to_one_invariant() {
        // Reconstruct weights from the aggregation by probing with shifted
        // candidate sets: combine(c + t) == combine(c) + t for any constant
        // t iff weights sum to 1.
        let cands = vec![(nb(0, 1.0), 1.0), (nb(1, 2.0), 2.0), (nb(2, 3.0), 4.0)];
        let base = combine_candidates(&cands, Weighting::MutualVote).unwrap();
        let shifted: Vec<(Neighbor, f64)> = cands.iter().map(|(n, c)| (*n, c + 10.0)).collect();
        let moved = combine_candidates(&shifted, Weighting::MutualVote).unwrap();
        assert!((moved - base - 10.0).abs() < 1e-9);
    }
}
