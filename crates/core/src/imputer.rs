//! The IIM front end: a two-phase model ([`IimModel`]) and the
//! [`AttrEstimator`] adapter ([`Iim`]) that plugs IIM into the shared
//! per-attribute driver next to every baseline.

use crate::adaptive::adaptive_learn_detailed;
use crate::config::{IimConfig, Learning, Weighting};
use crate::impute::{impute_with_scratch, ImputeScratch};
use crate::learn::learn_fixed;
use iim_bytes::{FloatSlice, U32Slice};
use iim_data::{AttrEstimator, AttrPredictor, AttrTask, ImputeError};
use iim_linalg::{regularizing_shifts, GramAccumulator, LuFactors, Matrix, RidgeModel, EPS};
use iim_neighbors::{brute::FeatureMatrix, KnnScratch, NeighborIndex, NeighborOrders};
use std::cell::Cell;
use std::collections::HashMap;

/// Per-cell tolerance of IIM's absorb-vs-refit equivalence contract.
///
/// [`IimModel::absorb`] folds a new training tuple into the fitted state
/// with Sherman–Morrison rank-1 updates instead of relearning every
/// individual model. Unlike the Mean/GLR baselines (whose absorbs are
/// bitwise-equal to a refit), the IIM equivalence is approximate: the
/// rank-1 path *adds* the new tuple to the learning sets of its k nearest
/// neighbors, whereas a from-scratch refit would also re-select those sets
/// (dropping each set's previous farthest member) and, under adaptive
/// learning, re-choose ℓ per tuple.
///
/// The streaming property tests (`tests/streaming.rs`) and the serving
/// equivalence checks assert, per imputed cell,
/// `|absorbed − refit| ≤ IIM_ABSORB_TOLERANCE · max(1, |refit|)` on
/// workloads with the correlated, locally linear structure IIM targets
/// (the paper's premise): there, every candidate learning set recovers
/// nearly the same regression, so set-membership drift moves fills very
/// little. On adversarial geometry (near-duplicate points, pure noise)
/// the refit's re-selected learning sets can produce genuinely different
/// models, and no uniform per-cell bound exists.
pub const IIM_ABSORB_TOLERANCE: f64 = 0.25;

/// The maintained inverse normal-equation system of one individual model:
/// `a_inv = (XᵀX + shift·E)⁻¹` over the tuple's learning rows (augmented
/// with the constant column) and `v = XᵀY`, so a rank-1 Sherman–Morrison
/// step per absorbed row keeps `φ = a_inv · v` current in O(m²).
struct SmState {
    a_inv: Matrix,
    v: Vec<f64>,
}

/// Inverts `u + shift·E` under the same escalating shifts as every ridge
/// solve ([`regularizing_shifts`]). Returns `None` only for non-finite
/// input — the same condition under which the batch learner fails.
fn regularized_inverse(u: &Matrix, alpha0: f64) -> Option<Matrix> {
    regularizing_shifts(u, alpha0).find_map(|shift| {
        let mut shifted = u.clone();
        if shift > 0.0 {
            shifted.add_diag(shift);
        }
        let inv = LuFactors::new(&shifted)?.inverse();
        inv.is_finite().then_some(inv)
    })
}

/// One Sherman–Morrison rank-1 step: absorbs the augmented observation
/// `(u_aug, y)` into the maintained inverse and `V` vector. Returns
/// `false` (leaving the state untouched) when the update is numerically
/// unusable, which for an SPD system requires non-finite input.
fn sherman_morrison_update(st: &mut SmState, u_aug: &[f64], y: f64) -> bool {
    let au = st.a_inv.matvec(u_aug);
    let denom = 1.0 + u_aug.iter().zip(&au).map(|(a, b)| a * b).sum::<f64>();
    if !denom.is_finite() || denom.abs() < EPS {
        return false;
    }
    let m = au.len();
    for i in 0..m {
        for j in 0..m {
            st.a_inv[(i, j)] -= au[i] * au[j] / denom;
        }
    }
    for (vi, ui) in st.v.iter_mut().zip(u_aug) {
        *vi += y * ui;
    }
    true
}

/// A learned IIM model for one incomplete attribute: the offline phase's
/// output (`Φ` plus the training tuples behind a stored
/// [`NeighborIndex`]), ready to impute any number of queries online.
///
/// This is the canonical fitted form behind the workspace's fit/serve
/// protocol: `PerAttributeImputer::<Iim>::fit` returns a
/// [`FittedImputer`](iim_data::FittedImputer) holding one `IimModel` per
/// target attribute (each plugged in through its [`AttrPredictor`] impl).
///
/// Serving is zero-allocation at steady state: `impute` searches the
/// index with per-thread scratch ([`ImputeScratch`]), so batch drivers
/// fanning queries across workers each reuse their own buffers. Which
/// index variant was built ([`IimConfig::index`]) never changes an
/// imputation — only its latency.
pub struct IimModel {
    index: NeighborIndex,
    models: Vec<RidgeModel>,
    chosen_ell: U32Slice,
    ys: FloatSlice,
    alpha: f64,
    k: usize,
    weighting: Weighting,
    absorbed: usize,
    /// Lazily built Sherman–Morrison systems, keyed by tuple position.
    /// Never persisted: delta-snapshot replay re-absorbs the same rows in
    /// the same order, rebuilding identical states (absorb is a pure
    /// function of the fitted state and the absorb sequence).
    sm: HashMap<u32, SmState>,
}

thread_local! {
    /// Per-thread serving scratch (see [`iim_exec::with_tls_scratch`] for
    /// the take/put contract).
    static SCRATCH: Cell<ImputeScratch> = Cell::new(ImputeScratch::new());
}

/// Runs `f` with this thread's serving scratch — shared by
/// [`IimModel::impute`] and the multiple-imputation view so every
/// single-query entry point is allocation-free at steady state.
pub(crate) fn with_serving_scratch<R>(f: impl FnOnce(&mut ImputeScratch) -> R) -> R {
    iim_exec::with_tls_scratch(&SCRATCH, f)
}

impl IimModel {
    /// Offline phase: learns the individual models of all training tuples
    /// of `task` (Algorithm 1 for [`Learning::Fixed`], Algorithm 3 for
    /// [`Learning::Adaptive`]).
    pub fn learn(task: &AttrTask<'_>, cfg: &IimConfig) -> Result<Self, ImputeError> {
        if task.n_train() == 0 {
            return Err(ImputeError::NoTrainingData {
                target: task.target,
            });
        }
        let fm = FeatureMatrix::gather(task.rel, &task.features, &task.train_rows);
        let ys: Vec<f64> = task
            .train_rows
            .iter()
            .map(|&r| task.target_value(r as usize))
            .collect();
        Self::learn_from_parts(fm, &ys, cfg).ok_or(ImputeError::NumericOverflow {
            target: task.target,
        })
    }

    /// [`IimModel::learn`] over pre-gathered parts (used by benches that
    /// need to time the phases in isolation).
    ///
    /// Builds the serving [`NeighborIndex`] first ([`IimConfig::index`])
    /// and routes the offline neighbor-order construction through it, so
    /// one index serves both phases. `None` when some ridge solve fails,
    /// which takes training values so large that the Gram sums overflow.
    pub fn learn_from_parts(fm: FeatureMatrix, ys: &[f64], cfg: &IimConfig) -> Option<Self> {
        let n = fm.len();
        let threads = cfg.effective_threads();
        let pool = iim_exec::Pool::new(threads);
        let index = NeighborIndex::build(fm, cfg.index);
        let fm = index.matrix();
        let (models, chosen_ell) = match &cfg.learning {
            Learning::Fixed { ell } => {
                let ell = (*ell).clamp(1, n);
                let orders = NeighborOrders::build_from_index(&pool, &index, ell);
                let models = learn_fixed(fm, ys, &orders, ell, cfg.alpha, threads)?;
                (models, vec![ell as u32; n])
            }
            Learning::Adaptive(acfg) => {
                let vk = acfg.validation_k.unwrap_or(cfg.k).max(1);
                // The orders serve the ℓ sweep and the validation kNN,
                // which skips the tuple itself (Example 4) and so reads
                // vk + 1 entries.
                let depth = acfg.ell_max.map_or(n, |e| e.min(n)).max((vk + 1).min(n));
                let orders = NeighborOrders::build_from_index(&pool, &index, depth);
                let (out, _) =
                    adaptive_learn_detailed(fm, ys, &orders, vk, acfg, cfg.alpha, threads, false)?;
                (out.models, out.chosen_ell)
            }
        };
        Some(Self {
            index,
            models,
            chosen_ell: chosen_ell.into(),
            ys: ys.to_vec().into(),
            alpha: cfg.alpha,
            k: cfg.k.max(1),
            weighting: cfg.weighting,
            absorbed: 0,
            sm: HashMap::new(),
        })
    }

    /// Online phase (Algorithm 2): imputes one query from its feature
    /// vector (in the task's feature order).
    ///
    /// Serves through the stored index with per-thread scratch — no
    /// allocation at steady state. Use [`IimModel::impute_with`] to manage
    /// the scratch explicitly (e.g. one per worker in a custom batch
    /// loop).
    pub fn impute(&self, query: &[f64]) -> f64 {
        with_serving_scratch(|scratch| self.impute_with(query, scratch))
    }

    /// [`IimModel::impute`] with caller-owned scratch. Bit-identical to
    /// `impute` whatever state `scratch` arrives in.
    pub fn impute_with(&self, query: &[f64], scratch: &mut ImputeScratch) -> f64 {
        impute_with_scratch(
            &self.index,
            &self.models,
            query,
            self.k,
            self.weighting,
            scratch,
        )
        .expect("training set is non-empty")
    }

    /// The per-tuple ℓ actually used (constant under fixed learning).
    pub fn chosen_ell(&self) -> &[u32] {
        &self.chosen_ell
    }

    /// The individual regression parameters Φ, indexed like the training
    /// tuples.
    pub fn models(&self) -> &[RidgeModel] {
        &self.models
    }

    /// Number of training tuples.
    pub fn n_train(&self) -> usize {
        self.index.len()
    }

    /// The stored neighbor-search index (`"brute"` or `"vptree"` via
    /// [`NeighborIndex::kind`]).
    pub fn index(&self) -> &NeighborIndex {
        &self.index
    }

    /// The gathered training features.
    pub fn feature_matrix(&self) -> &FeatureMatrix {
        self.index.matrix()
    }

    /// The imputation neighbor count `k` (Algorithm 2).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The candidate-aggregation policy.
    pub fn weighting(&self) -> Weighting {
        self.weighting
    }

    /// Reassembles a learned model from its parts (the snapshot decode
    /// path): the serving index, one ridge model per training tuple, the
    /// per-tuple ℓ actually chosen, the training targets, the ridge α,
    /// and the serving configuration. Panics when `models`/`chosen_ell`/
    /// `ys` do not line up with the index.
    pub fn from_parts(
        index: NeighborIndex,
        models: Vec<RidgeModel>,
        chosen_ell: impl Into<U32Slice>,
        ys: impl Into<FloatSlice>,
        alpha: f64,
        k: usize,
        weighting: Weighting,
    ) -> Self {
        let (chosen_ell, ys) = (chosen_ell.into(), ys.into());
        assert_eq!(models.len(), index.len(), "one model per training tuple");
        assert_eq!(chosen_ell.len(), index.len(), "one ℓ per training tuple");
        assert_eq!(ys.len(), index.len(), "one target per training tuple");
        Self {
            index,
            models,
            chosen_ell,
            ys,
            alpha,
            k: k.max(1),
            weighting,
            absorbed: 0,
            sm: HashMap::new(),
        }
    }

    /// The training targets, indexed like the training tuples (base rows
    /// first, absorbed rows appended in absorb order).
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// The ridge regularization α the models were learned (and are
    /// incrementally updated) with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of tuples folded in through [`IimModel::absorb`] since the
    /// model was learned or reassembled.
    pub fn absorbed(&self) -> usize {
        self.absorbed
    }

    /// Incremental learning: folds one new training tuple `(x, y)` into
    /// the fitted state without relearning Φ.
    ///
    /// The update, in order:
    ///
    /// 1. finds the k imputation neighbors of `x` among the current
    ///    training tuples;
    /// 2. adds `(x, y)` to each neighbor's learning rows via a
    ///    Sherman–Morrison rank-1 update of its maintained inverse
    ///    normal-equation system (O(m²) per neighbor after a one-time
    ///    O(ℓm² + m³) reconstruction on first touch), refreshing the
    ///    neighbor's φ;
    /// 3. learns an individual model for the new tuple itself (ℓ
    ///    inherited from its nearest neighbor: the constant model at
    ///    ℓ = 1, otherwise ridge over itself plus its ℓ−1 nearest
    ///    neighbors);
    /// 4. appends `x` to the serving index ([`NeighborIndex::push`]:
    ///    exact for brute, pending-buffer + deterministic periodic
    ///    rebuild for the VP-tree).
    ///
    /// The result is a pure function of the fitted state and the absorb
    /// sequence — bit-stable across index variants and worker counts —
    /// and approximates a from-scratch refit on the grown training set
    /// within [`IIM_ABSORB_TOLERANCE`] per imputed cell (see the constant
    /// for why the equivalence is approximate rather than bitwise).
    pub fn absorb(&mut self, x: &[f64], y: f64) -> Result<(), ImputeError> {
        let n_features = self.index.matrix().n_features();
        if x.len() != n_features {
            return Err(ImputeError::ArityMismatch {
                expected: n_features,
                got: x.len(),
            });
        }
        if !y.is_finite() || x.iter().any(|v| !v.is_finite()) {
            return Err(ImputeError::Unsupported(
                "absorb requires a complete (finite) tuple".into(),
            ));
        }
        let n = self.index.len();
        debug_assert!(n > 0, "fitted models always hold at least one tuple");

        // (1) Imputation neighbors of the new point in the current index.
        let mut scratch = KnnScratch::default();
        let mut neighbors = Vec::new();
        self.index.knn_with(x, self.k, &mut scratch, &mut neighbors);

        // (2) Rank-1 update of each neighbor's individual model.
        let mut u_aug = Vec::with_capacity(n_features + 1);
        u_aug.push(1.0);
        u_aug.extend_from_slice(x);
        for nb in &neighbors {
            let pos = nb.pos;
            if !self.sm.contains_key(&pos) {
                let ell = (self.chosen_ell[pos as usize] as usize).max(1);
                match build_sm_state(&self.index, &self.ys, self.alpha, pos, ell) {
                    Some(st) => {
                        self.sm.insert(pos, st);
                    }
                    // Unsolvable reconstruction requires non-finite stored
                    // data; keep serving the frozen batch model.
                    None => continue,
                }
            }
            let st = self.sm.get_mut(&pos).expect("state inserted above");
            if sherman_morrison_update(st, &u_aug, y) {
                self.models[pos as usize] = RidgeModel {
                    phi: st.a_inv.matvec(&st.v).into(),
                };
            }
        }

        // (3) The new tuple's own individual model, ℓ inherited from its
        // nearest neighbor (positions are unique, so `neighbors[0]` is
        // deterministic).
        let ell_new = (self.chosen_ell[neighbors[0].pos as usize] as usize).max(1);
        let own = if ell_new <= 1 {
            RidgeModel::constant(y, n_features)
        } else {
            let mut own_nbs = Vec::new();
            self.index
                .knn_with(x, ell_new - 1, &mut scratch, &mut own_nbs);
            // A tuple is its own nearest learning neighbor: accumulate it
            // first, then the existing rows in neighbor order.
            let mut acc = GramAccumulator::new(n_features);
            acc.add_row(x, y);
            let fm = self.index.matrix();
            for nb in &own_nbs {
                acc.add_row(fm.point(nb.pos as usize), self.ys[nb.pos as usize]);
            }
            match acc.solve(self.alpha) {
                Some(model) => model,
                None => RidgeModel::constant(y, n_features),
            }
        };

        // (4) Append to the serving state (copy-on-write: a view-backed
        // model becomes owned on first absorb).
        self.index.push(x, n as u32);
        self.ys.to_mut().push(y);
        self.models.push(own);
        self.chosen_ell.to_mut().push(ell_new as u32);
        self.absorbed += 1;
        Ok(())
    }
}

/// Reconstructs the Sherman–Morrison system of tuple `pos` from the
/// current index: the Gram pair over its `ell` nearest neighbors (the
/// same rows `learn_one` would regress over today) and the inverse of the
/// regularized Gram matrix.
fn build_sm_state(
    index: &NeighborIndex,
    ys: &[f64],
    alpha: f64,
    pos: u32,
    ell: usize,
) -> Option<SmState> {
    let fm = index.matrix();
    let mut scratch = KnnScratch::default();
    let mut neighbors = Vec::new();
    index.knn_with(fm.point(pos as usize), ell, &mut scratch, &mut neighbors);
    let mut acc = GramAccumulator::new(fm.n_features());
    for nb in &neighbors {
        acc.add_row(fm.point(nb.pos as usize), ys[nb.pos as usize]);
    }
    let a_inv = regularized_inverse(acc.u(), alpha)?;
    Some(SmState {
        a_inv,
        v: acc.v().to_vec(),
    })
}

impl AttrPredictor for IimModel {
    fn predict(&self, x: &[f64]) -> f64 {
        self.impute(x)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn absorb(&mut self, x: &[f64], y: f64) -> Result<(), ImputeError> {
        IimModel::absorb(self, x, y)
    }

    fn can_absorb(&self) -> bool {
        true
    }
}

/// IIM as a pluggable per-attribute estimator.
///
/// ```
/// use iim_core::{Iim, IimConfig};
/// use iim_data::{Imputer, PerAttributeImputer};
///
/// let (rel, tx) = iim_data::paper_fig1();
/// let iim = PerAttributeImputer::new(Iim::new(IimConfig { k: 3, ..Default::default() }));
/// // Offline phase once, then serve tx (and any other query) online.
/// let fitted = iim.fit(&rel).unwrap();
/// let served = fitted.impute_one(&tx).unwrap();
/// assert!(served[1].is_finite());
/// ```
pub struct Iim {
    cfg: IimConfig,
}

impl Iim {
    /// IIM with the given configuration.
    pub fn new(cfg: IimConfig) -> Self {
        Self { cfg }
    }

    /// Paper-default IIM: adaptive learning, mutual-vote aggregation.
    pub fn paper_default() -> Self {
        Self::new(IimConfig::default())
    }

    /// The configuration.
    pub fn config(&self) -> &IimConfig {
        &self.cfg
    }
}

impl AttrEstimator for Iim {
    fn name(&self) -> &str {
        "IIM"
    }

    fn fit(&self, task: &AttrTask<'_>) -> Result<Box<dyn AttrPredictor>, ImputeError> {
        Ok(Box::new(IimModel::learn(task, &self.cfg)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iim_data::{paper_fig1, Imputer, PerAttributeImputer};

    #[test]
    fn fig1_fixed_ell_matches_example_3() {
        let (rel, _) = paper_fig1();
        let task = AttrTask::new(&rel, vec![0], 1);
        let cfg = IimConfig::fixed(4, 3);
        let model = IimModel::learn(&task, &cfg).unwrap();
        let v = model.impute(&[5.0]);
        // 1.152 exact; the paper's rounded models give 1.194 (see
        // impute::tests::paper_example_3_end_to_end).
        assert!((v - 1.152).abs() < 0.005, "imputed {v}");
        assert!((v - 1.194).abs() < 0.05);
        assert_eq!(model.chosen_ell(), &[4; 8]);
        assert_eq!(model.n_train(), 8);
    }

    #[test]
    fn fig1_adaptive_beats_knn_and_glr() {
        let (rel, _) = paper_fig1();
        let task = AttrTask::new(&rel, vec![0], 1);
        let cfg = IimConfig {
            k: 3,
            ..IimConfig::default()
        };
        let model = IimModel::learn(&task, &cfg).unwrap();
        let iim_v = model.impute(&[5.0]);
        let truth = 1.8;

        // kNN (value mean of t4,t5,t6): (3.2 + 3.0 + 4.1)/3 = 3.43.
        let knn_v: f64 = (3.2 + 3.0 + 4.1) / 3.0;
        // GLR prediction at 5.0.
        let ys: Vec<f64> = (0..8).map(|i| rel.value(i, 1)).collect();
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![rel.value(i, 0)]).collect();
        let glr = iim_linalg::ridge_fit(xs.iter().map(|v| v.as_slice()), &ys, 1e-9).unwrap();
        let glr_v = glr.predict(&[5.0]);

        assert!(
            (iim_v - truth).abs() < (knn_v - truth).abs(),
            "IIM {iim_v} vs kNN {knn_v}"
        );
        assert!(
            (iim_v - truth).abs() < (glr_v - truth).abs(),
            "IIM {iim_v} vs GLR {glr_v}"
        );
    }

    #[test]
    fn driver_integration() {
        let (mut rel, tx) = paper_fig1();
        rel.push_row_opt(&tx);
        let iim = PerAttributeImputer::new(Iim::new(IimConfig {
            k: 3,
            ..Default::default()
        }));
        assert_eq!(iim.name(), "IIM");
        let filled = iim.impute(&rel).unwrap();
        assert_eq!(filled.missing_count(), 0);
        let v = filled.get(8, 1).unwrap();
        assert!((v - 1.8).abs() < 0.7, "imputed {v}");
    }

    #[test]
    fn empty_training_is_error() {
        let mut rel = iim_data::Relation::with_capacity(iim_data::Schema::anonymous(2), 1);
        rel.push_row_opt(&[Some(1.0), None]);
        let task = AttrTask::new(&rel, vec![0], 1);
        assert!(matches!(
            IimModel::learn(&task, &IimConfig::default()),
            Err(ImputeError::NoTrainingData { target: 1 })
        ));
    }

    #[test]
    fn index_choice_never_changes_the_imputation() {
        let (rel, _) = paper_fig1();
        let task = AttrTask::new(&rel, vec![0], 1);
        let build = |index| {
            IimModel::learn(
                &task,
                &IimConfig {
                    k: 3,
                    index,
                    ..IimConfig::default()
                },
            )
            .unwrap()
        };
        let brute = build(crate::IndexChoice::Brute);
        let vp = build(crate::IndexChoice::VpTree);
        assert_eq!(brute.index().kind(), "brute");
        assert_eq!(vp.index().kind(), "vptree");
        assert_eq!(brute.chosen_ell(), vp.chosen_ell());
        let mut scratch = crate::ImputeScratch::new();
        for q in [0.0, 2.5, 5.0, 7.7] {
            let a = brute.impute(&[q]);
            assert_eq!(vp.impute(&[q]).to_bits(), a.to_bits(), "q={q}");
            // Scratch-managed serving is the same function.
            assert_eq!(vp.impute_with(&[q], &mut scratch).to_bits(), a.to_bits());
        }
        // Tiny n: auto stays brute.
        assert_eq!(build(crate::IndexChoice::Auto).index().kind(), "brute");
    }

    #[test]
    fn absorb_appends_and_stays_deterministic() {
        let (rel, _) = paper_fig1();
        let task = AttrTask::new(&rel, vec![0], 1);
        let build = |index| {
            let cfg = IimConfig {
                index,
                ..IimConfig::fixed(4, 3)
            };
            let mut model = IimModel::learn(&task, &cfg).unwrap();
            model.absorb(&[4.6], 2.0).unwrap();
            model.absorb(&[0.4], 5.1).unwrap();
            model
        };
        let brute = build(crate::IndexChoice::Brute);
        let vp = build(crate::IndexChoice::VpTree);
        assert_eq!(brute.n_train(), 10);
        assert_eq!(brute.absorbed(), 2);
        assert_eq!(brute.ys().len(), 10);
        assert_eq!(brute.chosen_ell().len(), 10);
        for q in [0.0, 2.5, 4.8, 5.0, 9.1] {
            assert_eq!(
                brute.impute(&[q]).to_bits(),
                vp.impute(&[q]).to_bits(),
                "q={q}"
            );
        }
    }

    #[test]
    fn absorb_tracks_refit_within_tolerance() {
        // Absorb a stream of on-trend tuples one at a time; imputations of
        // the grown model must stay within the committed tolerance of a
        // from-scratch refit on the same grown training set.
        let (rel, _) = paper_fig1();
        let task = AttrTask::new(&rel, vec![0], 1);
        let cfg = IimConfig::fixed(4, 3);
        let mut model = IimModel::learn(&task, &cfg).unwrap();
        let stream = [(4.6, 2.0), (5.4, 1.5), (0.4, 5.1), (9.5, 2.6)];
        let mut grown = rel.clone();
        for &(x, y) in &stream {
            model.absorb(&[x], y).unwrap();
            grown.push_row_opt(&[Some(x), Some(y)]);
        }
        let refit = IimModel::learn(&AttrTask::new(&grown, vec![0], 1), &cfg).unwrap();
        for q in [0.5, 2.5, 5.0, 7.7, 9.0] {
            let a = model.impute(&[q]);
            let b = refit.impute(&[q]);
            assert!(
                (a - b).abs() <= crate::IIM_ABSORB_TOLERANCE * b.abs().max(1.0),
                "q={q}: absorbed {a} vs refit {b}"
            );
        }
    }

    #[test]
    fn absorb_rejects_bad_input() {
        let (rel, _) = paper_fig1();
        let task = AttrTask::new(&rel, vec![0], 1);
        let mut model = IimModel::learn(&task, &IimConfig::fixed(4, 3)).unwrap();
        assert!(matches!(
            model.absorb(&[1.0, 2.0], 3.0),
            Err(ImputeError::ArityMismatch {
                expected: 1,
                got: 2
            })
        ));
        assert!(matches!(
            model.absorb(&[f64::NAN], 3.0),
            Err(ImputeError::Unsupported(_))
        ));
        assert!(matches!(
            model.absorb(&[1.0], f64::INFINITY),
            Err(ImputeError::Unsupported(_))
        ));
        assert_eq!(model.absorbed(), 0);
        assert_eq!(model.n_train(), 8);
    }

    /// `n` tuples on two features with a curved, locally linear target,
    /// so the chosen ℓ varies from tuple to tuple.
    fn curved(n: usize) -> (FeatureMatrix, Vec<f64>) {
        let mut data = Vec::with_capacity(2 * n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i as f64 * 0.618_034).fract() * 10.0;
            let b = (i as f64 * 0.377_021).fract() * 10.0;
            data.extend([a, b]);
            ys.push((a * 0.7).sin() * 3.0 + 0.5 * b + ((i * 7919) % 13) as f64 * 0.05);
        }
        let fm = FeatureMatrix::from_dense(2, (0..n as u32).collect::<Vec<u32>>(), data);
        (fm, ys)
    }

    #[test]
    fn validation_sees_k_neighbors_when_ell_max_is_shallow() {
        // Validation skips the tuple itself (Example 4: T₁ = {t₂, t₃, t₄}
        // for k = 3), so with ell_max ≤ validation_k the orders must hold
        // validation_k + 1 entries, not validation_k.
        let (fm, ys) = curved(300);
        let acfg = crate::AdaptiveConfig {
            step: 1,
            ell_max: Some(8),
            incremental: true,
            validation_k: Some(10),
        };
        let cfg = IimConfig {
            learning: Learning::Adaptive(acfg.clone()),
            ..IimConfig::default()
        };
        let model = IimModel::learn_from_parts(fm.clone(), &ys, &cfg).expect("finite");
        let at_depth = |depth| {
            let orders = NeighborOrders::build(&fm, depth);
            crate::adaptive_learn(&fm, &ys, &orders, 10, &acfg, cfg.alpha, 1).chosen_ell
        };
        let full = at_depth(11);
        assert_eq!(model.chosen_ell(), &full[..]);
        // One slot shallower validates on 9 neighbors and picks differently.
        let shallow = at_depth(10);
        let differing = full.iter().zip(&shallow).filter(|(a, b)| a != b).count();
        assert!(differing > 0, "the data must exercise the validation depth");
    }

    #[test]
    fn overflowing_training_values_are_a_typed_error() {
        // Finite values near 1e160 overflow every Gram sum (~1e320), so no
        // ridge solve beyond ℓ = 1 has a finite solution.
        let mut rel = iim_data::Relation::with_capacity(iim_data::Schema::anonymous(3), 300);
        for i in 0..300 {
            let x = 1e160 * (1.0 + i as f64 / 300.0);
            let y = 1e160 * (2.0 - (i as f64 * 0.1).sin());
            rel.push_row_opt(&[Some(x), Some(y), (i % 10 != 0).then_some(x + y)]);
        }
        let task = AttrTask::new(&rel, vec![0, 1], 2);
        for cfg in [IimConfig::default(), IimConfig::fixed(5, 10)] {
            assert!(matches!(
                IimModel::learn(&task, &cfg),
                Err(ImputeError::NumericOverflow { target: 2 })
            ));
        }
        let fit = PerAttributeImputer::new(Iim::new(IimConfig::default())).fit_targets(&rel, &[2]);
        let err = fit.err().expect("the fit must fail");
        assert!(matches!(err, ImputeError::NumericOverflow { target: 2 }));
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn k_clamps_to_training_size() {
        let (rel, _) = paper_fig1();
        let task = AttrTask::new(&rel, vec![0], 1);
        let cfg = IimConfig {
            k: 100,
            ..IimConfig::default()
        };
        let model = IimModel::learn(&task, &cfg).unwrap();
        let v = model.impute(&[5.0]);
        assert!(v.is_finite());
    }
}
