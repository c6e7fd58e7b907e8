//! Incremental candidate-model computation (§V-B, Proposition 3).
//!
//! The adaptive sweep must produce `φ⁽ℓ⁾` for a whole grid of ℓ values per
//! tuple. Because neighbor prefixes nest (Formula 13), [`ModelSweep`] in
//! incremental mode keeps one [`GramAccumulator`] per tuple and absorbs only
//! the `h` new neighbors between consecutive grid points — `O(m²h + m³)`
//! per model instead of the from-scratch `O(m²ℓ + m³)` (Table III). The
//! from-scratch mode exists as the paper's "straightforward" comparator
//! (Figures 12–13); both modes produce identical models.

use iim_linalg::{GramAccumulator, RidgeModel, SpdScratch};
use iim_neighbors::brute::FeatureMatrix;

/// The ℓ grid of the adaptive sweep: `{1, 1+h, 1+2h, …}` capped at
/// `min(n, ell_max)` (§V-A2, Example 5: `h = 3` over 8 tuples gives
/// `{1, 4, 7}`).
pub fn sweep_values(n: usize, step: usize, ell_max: Option<usize>) -> Vec<usize> {
    assert!(step >= 1, "stepping h must be at least 1");
    let cap = ell_max.map_or(n, |e| e.min(n)).max(1);
    (1..=cap).step_by(step).collect()
}

/// Produces the candidate models `φ⁽ℓ⁾` of one tuple for non-decreasing ℓ.
///
/// Both modes run on one [`GramAccumulator`]: the incremental mode keeps
/// absorbing the prefix, the from-scratch mode clears it and re-absorbs
/// `ℓ` rows every time — the same additions in the same order as a
/// from-scratch [`ridge_fit`](iim_linalg::ridge_fit), so the two modes
/// agree bitwise. Each φ is solved into the sweep's own buffer
/// ([`ModelSweep::phi_at`]) with a reused solver scratch, so a sweep
/// allocates only when it starts.
pub struct ModelSweep<'a> {
    fm: &'a FeatureMatrix,
    ys: &'a [f64],
    /// The tuple's sorted neighbor prefix (self first).
    prefix: &'a [u32],
    alpha: f64,
    incremental: bool,
    acc: GramAccumulator,
    /// Rows of `prefix` currently absorbed into `acc`.
    absorbed: usize,
    solver: SpdScratch,
    phi: Vec<f64>,
}

impl<'a> ModelSweep<'a> {
    /// Starts a sweep for the tuple whose neighbor prefix is `prefix`.
    pub fn new(
        fm: &'a FeatureMatrix,
        ys: &'a [f64],
        prefix: &'a [u32],
        alpha: f64,
        incremental: bool,
    ) -> Self {
        Self {
            fm,
            ys,
            prefix,
            alpha,
            incremental,
            acc: GramAccumulator::new(fm.n_features()),
            absorbed: 0,
            solver: SpdScratch::default(),
            phi: vec![0.0; fm.n_features() + 1],
        }
    }

    /// The coefficients of `φ⁽ℓ⁾`, laid out like
    /// [`RidgeModel::phi`](iim_linalg::RidgeModel::phi), in a buffer the
    /// next call overwrites. `None` when the regularized solve fails, which
    /// takes training values so large that the Gram sums overflow. Panics
    /// if called with decreasing ℓ in incremental mode or with `ell`
    /// beyond the prefix length.
    pub fn phi_at(&mut self, ell: usize) -> Option<&[f64]> {
        assert!(
            ell >= 1 && ell <= self.prefix.len(),
            "ell {ell} out of range"
        );
        if self.incremental {
            assert!(
                ell >= self.absorbed,
                "incremental sweep requires non-decreasing ell"
            );
        } else {
            self.acc.clear();
            self.absorbed = 0;
        }
        // Absorb Formula 14's increment T^(ℓ+h) \ T^(ℓ).
        for &p in &self.prefix[self.absorbed..ell] {
            self.acc
                .add_row(self.fm.point(p as usize), self.ys[p as usize]);
        }
        self.absorbed = ell;
        if ell == 1 {
            // §III-A2 single-neighbor special case: φ[C] = tᵢ[Am].
            self.phi.fill(0.0);
            self.phi[0] = self.ys[self.prefix[0] as usize];
        } else if !self
            .acc
            .solve_into(self.alpha, &mut self.solver, &mut self.phi)
        {
            return None;
        }
        Some(&self.phi)
    }

    /// The model `φ⁽ℓ⁾` ([`ModelSweep::phi_at`] as an owned model). Panics
    /// where `phi_at` does, and when it returns `None`.
    pub fn model_at(&mut self, ell: usize) -> RidgeModel {
        let phi = self.phi_at(ell).expect("finite training data");
        RidgeModel {
            phi: phi.to_vec().into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learn::learn_one;
    use iim_data::paper_fig1;
    use iim_neighbors::NeighborOrders;

    fn setup() -> (FeatureMatrix, Vec<f64>, NeighborOrders) {
        let (rel, _) = paper_fig1();
        let rows: Vec<u32> = (0..8).collect();
        let fm = FeatureMatrix::gather(&rel, &[0], &rows);
        let ys: Vec<f64> = (0..8).map(|i| rel.value(i, 1)).collect();
        let orders = NeighborOrders::build(&fm, 8);
        (fm, ys, orders)
    }

    #[test]
    fn sweep_values_grid() {
        assert_eq!(sweep_values(8, 1, None), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // Example 5: h = 3 considers {1, 4, 7}.
        assert_eq!(sweep_values(8, 3, None), vec![1, 4, 7]);
        assert_eq!(sweep_values(8, 3, Some(5)), vec![1, 4]);
        assert_eq!(sweep_values(3, 10, None), vec![1]);
        assert_eq!(sweep_values(10, 2, Some(100)), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    #[should_panic(expected = "stepping h")]
    fn sweep_rejects_zero_step() {
        sweep_values(8, 0, None);
    }

    #[test]
    fn incremental_equals_scratch_on_every_ell() {
        let (fm, ys, orders) = setup();
        for tuple in 0..8 {
            let prefix = orders.neighbors_of(tuple);
            let mut inc = ModelSweep::new(&fm, &ys, prefix, 1e-9, true);
            let mut scratch = ModelSweep::new(&fm, &ys, prefix, 1e-9, false);
            for ell in 1..=8 {
                let a = inc.model_at(ell);
                let b = scratch.model_at(ell);
                for (x, y) in a.phi.iter().zip(&b.phi) {
                    assert!((x - y).abs() < 1e-7, "tuple {tuple} ell {ell}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn incremental_with_stepping_matches() {
        let (fm, ys, orders) = setup();
        let prefix = orders.neighbors_of(1);
        let mut inc = ModelSweep::new(&fm, &ys, prefix, 1e-9, true);
        for ell in [1usize, 4, 7] {
            let a = inc.model_at(ell);
            let b = learn_one(&fm, &ys, prefix, ell, 1e-9).expect("finite");
            for (x, y) in a.phi.iter().zip(&b.phi) {
                assert!((x - y).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn both_modes_and_learn_one_agree_bitwise() {
        // Both modes add the same rows in the same order into a zeroed
        // system and share the one solver kernel, so every candidate's φ
        // is bitwise the from-scratch `ridge_fit` — including the ℓ < m+1
        // rank-deficient prefixes and duplicated points.
        let n = 120;
        let mut data = Vec::with_capacity(3 * n);
        for i in 0..n {
            let t = if i % 17 == 0 { 0.0 } else { i as f64 * 0.37 };
            data.extend([t.sin() * 4.0, (t * 0.5).cos() * 2.0, t.fract()]);
        }
        let fm = FeatureMatrix::from_dense(3, (0..n as u32).collect::<Vec<u32>>(), data);
        let ys: Vec<f64> = (0..n)
            .map(|i| fm.point(i).iter().sum::<f64>() + (i % 5) as f64 * 0.1)
            .collect();
        let orders = NeighborOrders::build(&fm, 40);
        let bits = |phi: &[f64]| phi.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        for i in (0..n).step_by(7) {
            let prefix = orders.neighbors_of(i);
            let mut inc = ModelSweep::new(&fm, &ys, prefix, 1e-6, true);
            let mut scr = ModelSweep::new(&fm, &ys, prefix, 1e-6, false);
            for ell in (1..=40).step_by(3) {
                let a = bits(inc.phi_at(ell).expect("finite"));
                let b = bits(scr.phi_at(ell).expect("finite"));
                let c = bits(&learn_one(&fm, &ys, prefix, ell, 1e-6).expect("finite").phi);
                assert_eq!(a, b, "tuple {i} ell {ell}: incremental vs scratch");
                assert_eq!(a, c, "tuple {i} ell {ell}: sweep vs learn_one");
            }
        }
    }

    #[test]
    fn overflowing_data_yields_none_not_a_panic() {
        let fm = FeatureMatrix::from_dense(1, vec![0u32, 1, 2], vec![1e160, 2e160, 3e160]);
        let ys = [1.0, 2.0, 3.0];
        let prefix = [0u32, 1, 2];
        for incremental in [true, false] {
            let mut sweep = ModelSweep::new(&fm, &ys, &prefix, 1e-6, incremental);
            assert_eq!(sweep.phi_at(1), Some(&[1.0, 0.0][..]));
            assert_eq!(sweep.phi_at(3), None);
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn incremental_rejects_backwards() {
        let (fm, ys, orders) = setup();
        let prefix = orders.neighbors_of(0);
        let mut sweep = ModelSweep::new(&fm, &ys, prefix, 1e-9, true);
        sweep.model_at(4);
        sweep.model_at(2);
    }

    #[test]
    fn ell_one_constant_in_both_modes() {
        let (fm, ys, orders) = setup();
        for incremental in [true, false] {
            let mut sweep = ModelSweep::new(&fm, &ys, orders.neighbors_of(2), 1e-9, incremental);
            let m = sweep.model_at(1);
            assert_eq!(m.phi, vec![ys[2], 0.0]);
        }
    }
}
