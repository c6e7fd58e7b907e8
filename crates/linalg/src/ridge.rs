//! Ridge regression (Formula 5 of the IIM paper):
//! `φ = (XᵀX + αE)⁻¹ Xᵀ Y`
//! where `X` is the design matrix with a leading constant-1 column and `E`
//! the identity (the paper regularizes the intercept too; the worked
//! examples are consistent with α ≈ 0, so the workspace default is a tiny
//! numerical guard — see `iim-core`).

use crate::matrix::dot;
use crate::solve::solve_spd_regularized;
use crate::Matrix;
use iim_bytes::FloatSlice;

/// A fitted linear model `y ≈ φ\[0\] + φ\[1\] x₁ + … + φ[m-1] x_{m-1}`.
///
/// `phi` is laid out exactly like the paper's
/// `φ = {φ[C], φ[A1], …, φ[A_{m-1}]}ᵀ`. It is a [`FloatSlice`] so a
/// snapshot loaded through the validate-then-view path can borrow the
/// coefficients straight out of the shared snapshot buffer; freshly
/// fitted models own their coefficients as before (`FloatSlice` derefs
/// to `[f64]`, so call sites are unchanged).
#[derive(Debug, Clone, PartialEq)]
pub struct RidgeModel {
    /// `[intercept, coef₁, …]`.
    pub phi: FloatSlice,
}

impl RidgeModel {
    /// A constant model `y = c` (the paper's ℓ = 1 special case, §III-A2).
    pub fn constant(c: f64, n_features: usize) -> Self {
        let mut phi = vec![0.0; n_features + 1];
        phi[0] = c;
        Self { phi: phi.into() }
    }

    /// Predicts `(1, x) · φ` for a feature vector `x` (without the leading 1).
    #[inline]
    pub fn predict(&self, x: &[f64]) -> f64 {
        predict_phi(&self.phi, x)
    }

    /// Number of (non-intercept) features the model expects.
    pub fn n_features(&self) -> usize {
        self.phi.len() - 1
    }

    /// True when every coefficient is finite.
    pub fn is_finite(&self) -> bool {
        self.phi.iter().all(|v| v.is_finite())
    }
}

/// `(1, x) · φ` for coefficients laid out like [`RidgeModel::phi`] — the
/// prediction of a model that lives in a scratch buffer (bitwise
/// [`RidgeModel::predict`]).
#[inline]
pub fn predict_phi(phi: &[f64], x: &[f64]) -> f64 {
    debug_assert_eq!(x.len() + 1, phi.len());
    phi[0] + dot(&phi[1..], x)
}

/// Fits ridge regression over `(rows[i], ys[i])` pairs.
///
/// `rows` are feature vectors *without* the constant column; the intercept
/// is handled internally by augmenting the Gram system. Returns `None` only
/// when the (escalating) regularized solve fails, which requires non-finite
/// input.
pub fn ridge_fit<'a, I>(rows: I, ys: &[f64], alpha: f64) -> Option<RidgeModel>
where
    I: IntoIterator<Item = &'a [f64]>,
{
    ridge_fit_weighted(rows, ys, None, alpha)
}

/// Weighted ridge: minimizes `Σ wᵢ (yᵢ - (1,xᵢ)φ)² + α‖φ‖²`.
///
/// `weights = None` means all-ones (plain ridge). Used by the LOESS baseline
/// with tricube weights.
pub fn ridge_fit_weighted<'a, I>(
    rows: I,
    ys: &[f64],
    weights: Option<&[f64]>,
    alpha: f64,
) -> Option<RidgeModel>
where
    I: IntoIterator<Item = &'a [f64]>,
{
    let mut it = rows.into_iter().peekable();
    let m = it.peek().map(|r| r.len() + 1)?;
    let mut u = Matrix::zeros(m, m);
    let mut v = vec![0.0; m];
    let mut count = 0usize;
    for (i, row) in it.enumerate() {
        debug_assert_eq!(row.len() + 1, m);
        let w = weights.map_or(1.0, |ws| ws[i]);
        if w == 0.0 {
            count += 1;
            continue;
        }
        accumulate_augmented(&mut u, &mut v, row, ys[i], w);
        count += 1;
    }
    assert_eq!(count, ys.len(), "rows and ys must have equal length");
    let phi = solve_spd_regularized(&u, &v, alpha)?;
    Some(RidgeModel { phi: phi.into() })
}

/// Adds `w * (1,x)(1,x)ᵀ` into `u` and `w * y (1,x)` into `v` — one
/// observation of the *augmented* (intercept-carrying) normal equations.
///
/// Shared by [`ridge_fit_weighted`], the incremental
/// [`GramAccumulator`](crate::gram::GramAccumulator), and downstream
/// methods that need the raw Gram system (e.g. Bayesian posterior draws).
#[inline]
pub fn accumulate_augmented(u: &mut Matrix, v: &mut [f64], x: &[f64], y: f64, w: f64) {
    let m = x.len() + 1;
    debug_assert_eq!(u.rows(), m);
    // Row 0 / col 0 correspond to the constant regressor.
    u[(0, 0)] += w;
    for j in 1..m {
        let xj = x[j - 1];
        u[(0, j)] += w * xj;
        u[(j, 0)] += w * xj;
        for k in j..m {
            let add = w * xj * x[k - 1];
            u[(j, k)] += add;
            if k != j {
                u[(k, j)] += add;
            }
        }
    }
    v[0] += w * y;
    for j in 1..m {
        v[j] += w * y * x[j - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        // y = 2 + 3x, zero noise, alpha ~ 0.
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 * x[0]).collect();
        let model = ridge_fit(xs.iter().map(|v| v.as_slice()), &ys, 1e-9).expect("fit");
        assert!((model.phi[0] - 2.0).abs() < 1e-5);
        assert!((model.phi[1] - 3.0).abs() < 1e-5);
        assert!((model.predict(&[4.0]) - 14.0).abs() < 1e-4);
    }

    #[test]
    fn paper_example_2_phi1() {
        // Figure 1 tuples t1..t4 on (A1, A2); Example 2 reports
        // φ1 = (5.56, -0.87)ᵀ for l = 4.
        let xs = [[0.0], [0.8], [1.9], [2.9]];
        let ys = [5.8, 4.6, 3.8, 3.2];
        let model = ridge_fit(xs.iter().map(|v| v.as_slice()), &ys, 1e-9).expect("fit");
        assert!(
            (model.phi[0] - 5.56).abs() < 0.01,
            "intercept {}",
            model.phi[0]
        );
        assert!(
            (model.phi[1] - (-0.87)).abs() < 0.01,
            "slope {}",
            model.phi[1]
        );
    }

    #[test]
    fn multifeature_plane() {
        // y = 1 - 2a + 0.5b over a grid.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for a in 0..5 {
            for b in 0..5 {
                let (a, b) = (a as f64, b as f64);
                xs.push(vec![a, b]);
                ys.push(1.0 - 2.0 * a + 0.5 * b);
            }
        }
        let model = ridge_fit(xs.iter().map(|v| v.as_slice()), &ys, 1e-9).expect("fit");
        assert!((model.phi[0] - 1.0).abs() < 1e-6);
        assert!((model.phi[1] + 2.0).abs() < 1e-6);
        assert!((model.phi[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn large_alpha_shrinks_coefficients() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0]).collect();
        let loose = ridge_fit(xs.iter().map(|v| v.as_slice()), &ys, 1e-9).unwrap();
        let tight = ridge_fit(xs.iter().map(|v| v.as_slice()), &ys, 1e4).unwrap();
        assert!(tight.phi[1].abs() < loose.phi[1].abs());
    }

    #[test]
    fn weighted_fit_prefers_heavy_points() {
        // Two clusters on different lines; weights select the first.
        let xs = [[0.0], [1.0], [10.0], [11.0]];
        let ys = [0.0, 1.0, 100.0, 90.0]; // second cluster is wild
        let w = [1.0, 1.0, 0.0, 0.0];
        let model =
            ridge_fit_weighted(xs.iter().map(|v| v.as_slice()), &ys, Some(&w), 1e-9).expect("fit");
        assert!((model.phi[0]).abs() < 1e-6);
        assert!((model.phi[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn single_point_degenerate_is_handled() {
        // One observation, two unknowns: regularized solve must still return
        // finite coefficients predicting roughly y at x.
        let xs = [[2.0]];
        let ys = [7.0];
        let model = ridge_fit(xs.iter().map(|v| v.as_slice()), &ys, 1e-6).expect("fit");
        assert!(model.is_finite());
        assert!((model.predict(&[2.0]) - 7.0).abs() < 0.1);
    }

    #[test]
    fn constant_model() {
        let c = RidgeModel::constant(4.2, 3);
        assert_eq!(c.n_features(), 3);
        assert_eq!(c.predict(&[9.0, -1.0, 2.0]), 4.2);
    }
}
