//! Incremental Gram-system maintenance (Proposition 3 of the IIM paper).
//!
//! The adaptive learning phase (Algorithm 3) must learn, for a tuple `tᵢ`,
//! the ridge parameters `φ⁽ℓ⁾` for *every* candidate neighbor count
//! `ℓ = 1, 1+h, 1+2h, …`. Because `NN(tᵢ, F, ℓ) ⊂ NN(tᵢ, F, ℓ+h)`
//! (Formula 13), the Gram pair
//! `U⁽ℓ⁺ʰ⁾ = U⁽ℓ⁾ + (X⁽ℓ,Δh⁾)ᵀ X⁽ℓ,Δh⁾` and
//! `V⁽ℓ⁺ʰ⁾ = V⁽ℓ⁾ + (X⁽ℓ,Δh⁾)ᵀ Y⁽ℓ,Δh⁾` (Formulas 20–21)
//! can absorb the `h` new neighbors in `O(m²h)` instead of rebuilding in
//! `O(m²ℓ)` — the paper's "linear to constant" reduction (Table III).

use crate::matrix::Matrix;
use crate::ridge::{accumulate_augmented, RidgeModel};
use crate::solve::{solve_spd_regularized_into, SpdScratch};

/// Accumulates `U = XᵀX` and `V = XᵀY` over an *augmented* design
/// (leading constant-1 column), supporting row insertion and removal.
///
/// `m` below is the augmented width: number of features + 1.
#[derive(Debug, Clone)]
pub struct GramAccumulator {
    u: Matrix,
    v: Vec<f64>,
    rows_absorbed: usize,
}

impl GramAccumulator {
    /// Empty accumulator for models with `n_features` non-constant features.
    pub fn new(n_features: usize) -> Self {
        let m = n_features + 1;
        Self {
            u: Matrix::zeros(m, m),
            v: vec![0.0; m],
            rows_absorbed: 0,
        }
    }

    /// Reassembles an accumulator from its raw state (the snapshot decode
    /// path; inverse of [`GramAccumulator::u`] / [`GramAccumulator::v`] /
    /// [`GramAccumulator::len`]). `u` must be square with `v.len()` rows.
    pub fn from_parts(u: Matrix, v: Vec<f64>, rows_absorbed: usize) -> Self {
        assert_eq!(u.rows(), u.cols(), "Gram matrix must be square");
        assert_eq!(u.rows(), v.len(), "one V entry per Gram row");
        Self {
            u,
            v,
            rows_absorbed,
        }
    }

    /// Absorbs one observation `(x, y)`; `x` excludes the constant column.
    /// Cost `O(m²)`.
    pub fn add_row(&mut self, x: &[f64], y: f64) {
        accumulate_augmented(&mut self.u, &mut self.v, x, y, 1.0);
        self.rows_absorbed += 1;
    }

    /// Removes a previously absorbed observation (downdate). Cost `O(m²)`.
    ///
    /// The caller is responsible for only removing rows that were added;
    /// removing anything else silently corrupts the system.
    pub fn remove_row(&mut self, x: &[f64], y: f64) {
        accumulate_augmented(&mut self.u, &mut self.v, x, y, -1.0);
        self.rows_absorbed = self.rows_absorbed.saturating_sub(1);
    }

    /// Number of observations currently absorbed.
    pub fn len(&self) -> usize {
        self.rows_absorbed
    }

    /// True when no observation has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.rows_absorbed == 0
    }

    /// Current `U` matrix (augmented Gram).
    pub fn u(&self) -> &Matrix {
        &self.u
    }

    /// Current `V` vector.
    pub fn v(&self) -> &[f64] {
        &self.v
    }

    /// Solves `(U + αE) φ = V` (Formula 19). Cost `O(m³)`, independent of
    /// the number of absorbed rows.
    ///
    /// Returns `None` when the escalating regularized solve fails (requires
    /// non-finite data). A wrapper over [`GramAccumulator::solve_into`]
    /// that allocates the model.
    pub fn solve(&self, alpha: f64) -> Option<RidgeModel> {
        let mut phi = vec![0.0; self.v.len()];
        self.solve_into(alpha, &mut SpdScratch::default(), &mut phi)
            .then(|| RidgeModel { phi: phi.into() })
    }

    /// [`GramAccumulator::solve`] into caller storage: writes `φ` into
    /// `phi` (length `m`) through the shared regularized Cholesky kernel
    /// ([`solve_spd_regularized_into`]) and returns `true`, or `false`
    /// (with `phi` unspecified) when the solve fails. Bitwise the
    /// coefficients `solve` returns; with a reused `scratch` it allocates
    /// nothing, which is how the adaptive sweep prices hundreds of
    /// candidate models per tuple.
    pub fn solve_into(&self, alpha: f64, scratch: &mut SpdScratch, phi: &mut [f64]) -> bool {
        solve_spd_regularized_into(&self.u, &self.v, alpha, scratch, phi)
    }

    /// Resets to the empty state, keeping the allocation.
    pub fn clear(&mut self) {
        self.u.as_mut_slice().fill(0.0);
        self.v.fill(0.0);
        self.rows_absorbed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ridge::ridge_fit;

    fn rows() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![i as f64 * 0.7, (i as f64).sin() * 2.0])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.5 - 0.8 * x[0] + 0.3 * x[1]).collect();
        (xs, ys)
    }

    #[test]
    fn incremental_matches_batch() {
        let (xs, ys) = rows();
        let mut acc = GramAccumulator::new(2);
        for (x, &y) in xs.iter().zip(&ys) {
            acc.add_row(x, y);
        }
        let inc = acc.solve(1e-9).expect("solve");
        let batch = ridge_fit(xs.iter().map(|v| v.as_slice()), &ys, 1e-9).expect("fit");
        for (a, b) in inc.phi.iter().zip(&batch.phi) {
            assert!((a - b).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn prefix_solves_match_per_step() {
        // Every prefix solve must equal the from-scratch fit on the same
        // prefix: this is exactly the invariant Proposition 3 relies on.
        let (xs, ys) = rows();
        let mut acc = GramAccumulator::new(2);
        for l in 0..xs.len() {
            acc.add_row(&xs[l], ys[l]);
            if l + 1 >= 2 {
                let inc = acc.solve(1e-9).expect("solve");
                let batch =
                    ridge_fit(xs[..=l].iter().map(|v| v.as_slice()), &ys[..=l], 1e-9).expect("fit");
                for (a, b) in inc.phi.iter().zip(&batch.phi) {
                    assert!((a - b).abs() < 1e-6, "prefix {l}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn paper_example_6_u_and_v() {
        // Example 6: t1's neighbors for l=3 are {t1,t2,t3} with
        // A1 = (0, 0.8, 1.9), A2 = (5.8, 4.6, 3.8); then t4 = (2.9, 3.2)
        // arrives. The increments must be [[1,2.9],[2.9,8.41]] and
        // [3.2, 9.28], and φ moves from ~(5.66,-1.03) to ~(5.56,-0.87).
        let mut acc = GramAccumulator::new(1);
        acc.add_row(&[0.0], 5.8);
        acc.add_row(&[0.8], 4.6);
        acc.add_row(&[1.9], 3.8);
        let phi3 = acc.solve(1e-9).expect("solve").phi;
        assert!((phi3[0] - 5.66).abs() < 0.01, "phi3[0]={}", phi3[0]);
        assert!((phi3[1] + 1.03).abs() < 0.01, "phi3[1]={}", phi3[1]);

        let u3 = acc.u().clone();
        let v3 = acc.v().to_vec();
        acc.add_row(&[2.9], 3.2);
        let du00 = acc.u()[(0, 0)] - u3[(0, 0)];
        let du01 = acc.u()[(0, 1)] - u3[(0, 1)];
        let du11 = acc.u()[(1, 1)] - u3[(1, 1)];
        assert!((du00 - 1.0).abs() < 1e-12);
        assert!((du01 - 2.9).abs() < 1e-12);
        assert!((du11 - 8.41).abs() < 1e-12);
        assert!((acc.v()[0] - v3[0] - 3.2).abs() < 1e-12);
        assert!((acc.v()[1] - v3[1] - 9.28).abs() < 1e-12);

        let phi4 = acc.solve(1e-9).expect("solve").phi;
        assert!((phi4[0] - 5.56).abs() < 0.01, "phi4[0]={}", phi4[0]);
        assert!((phi4[1] + 0.87).abs() < 0.01, "phi4[1]={}", phi4[1]);
    }

    #[test]
    fn remove_row_restores_state() {
        let (xs, ys) = rows();
        let mut acc = GramAccumulator::new(2);
        for (x, &y) in xs.iter().take(5).zip(&ys) {
            acc.add_row(x, y);
        }
        let before = acc.solve(1e-9).unwrap().phi;
        acc.add_row(&xs[7], ys[7]);
        acc.remove_row(&xs[7], ys[7]);
        let after = acc.solve(1e-9).unwrap().phi;
        for (a, b) in before.iter().zip(&after) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(acc.len(), 5);
    }

    #[test]
    fn clear_resets() {
        let mut acc = GramAccumulator::new(1);
        acc.add_row(&[1.0], 2.0);
        assert!(!acc.is_empty());
        acc.clear();
        assert!(acc.is_empty());
        assert_eq!(acc.u()[(0, 0)], 0.0);
        assert_eq!(acc.v()[0], 0.0);
    }
}
