//! Linear solvers: Cholesky for SPD systems, LU with partial pivoting for
//! general square systems.
//!
//! Ridge systems `(XᵀX + αE) φ = Xᵀy` are symmetric positive definite for
//! any `α > 0`, so Cholesky is the default path in the workspace; LU exists
//! as the general fallback (and for explicit inverses in tests).

use crate::matrix::Matrix;
use crate::EPS;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
///
/// Returns `None` when `A` is not (numerically) positive definite.
pub fn cholesky(a: &Matrix) -> Option<Matrix> {
    assert_eq!(a.rows(), a.cols(), "cholesky requires a square matrix");
    let mut l = Matrix::zeros(a.rows(), a.rows());
    factor_shifted(a, 0.0, l.as_mut_slice()).then_some(l)
}

/// Solves the SPD system `A x = b` via Cholesky.
///
/// Returns `None` when `A` is not positive definite (callers typically add a
/// ridge shift and retry; see [`solve_spd_regularized`]).
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let l = cholesky(a)?;
    Some(cholesky_solve(&l, b))
}

/// Solves `A x = b` given the precomputed Cholesky factor `L` of `A`.
pub fn cholesky_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; l.rows()];
    solve_factored(l.as_slice(), b, &mut x);
    x
}

/// The Cholesky kernel: factors `a + shift·E` into the row-major
/// `n × n` buffer `l`, writing its lower triangle (the upper one is never
/// read nor written). Only `a`'s lower triangle is read, and the shift is
/// added to the diagonal before anything is subtracted from it, exactly
/// as if `a` had been copied and shifted first; a `shift` that is not
/// positive adds nothing. Returns `false` when the shifted matrix is not
/// (numerically) positive definite.
fn factor_shifted(a: &Matrix, shift: f64, l: &mut [f64]) -> bool {
    let n = a.rows();
    debug_assert_eq!(l.len(), n * n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            if i == j && shift > 0.0 {
                sum += shift;
            }
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return false;
                }
                l[i * n + i] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    true
}

/// Forward (`L z = b`) then back (`Lᵀ x = z`) substitution over the
/// row-major factor `l`, with `z` held in `x` itself.
fn solve_factored(l: &[f64], b: &[f64], x: &mut [f64]) {
    let n = x.len();
    assert_eq!(b.len(), n);
    debug_assert_eq!(l.len(), n * n);
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * n + k] * x[k];
        }
        x[i] = sum / l[i * n + i];
    }
    for i in (0..n).rev() {
        let mut sum = x[i];
        for k in i + 1..n {
            sum -= l[k * n + i] * x[k];
        }
        x[i] = sum / l[i * n + i];
    }
}

/// The diagonal shifts a regularized solve tries, in order: `α, 10α, …`
/// (starting from `EPS` times the mean absolute diagonal when `α = 0`),
/// at most 40 of them, stopping once a shift would exceed `1e6` times that
/// mean. Shared by [`solve_spd_regularized_into`] and the LU-based
/// inverse the IIM absorb path maintains, so both escalate identically.
pub fn regularizing_shifts(a: &Matrix, alpha0: f64) -> impl Iterator<Item = f64> {
    let n = a.rows();
    let mean_diag = (0..n).map(|i| a[(i, i)].abs()).sum::<f64>().max(EPS) / n as f64;
    std::iter::successors(Some(alpha0.max(0.0)), move |&shift| {
        let next = if shift == 0.0 {
            EPS * mean_diag
        } else {
            shift * 10.0
        };
        if next > 1e6 * mean_diag {
            None
        } else {
            Some(next)
        }
    })
    .take(40)
}

/// Reusable storage for [`solve_spd_regularized_into`]: the Cholesky
/// factor, kept across calls so a sweep over many same-sized systems
/// allocates it once.
#[derive(Debug, Clone, Default)]
pub struct SpdScratch {
    l: Vec<f64>,
}

/// Solves an SPD system that may be only semidefinite by escalating a
/// diagonal shift ([`regularizing_shifts`]) until Cholesky succeeds with a
/// finite solution, writing `x` and returning `true`; `false` (with `x`
/// unspecified) when every shift fails, which requires non-finite data.
///
/// The IIM learning phase hits rank-deficient Gram matrices whenever a tuple
/// has fewer distinct neighbors than attributes (e.g. tiny ℓ); the paper's
/// ridge term makes the system definite, but with the paper-faithful default
/// `α = 1e-6` extreme data scales can still defeat it numerically.
///
/// This is the one regularized kernel: [`solve_spd_regularized`],
/// [`GramAccumulator::solve`](crate::GramAccumulator::solve) and through
/// them every ridge fit are wrappers over it. It allocates nothing once
/// `scratch` has grown to `a`'s size — the adaptive sweep's per-candidate
/// solves run on one scratch and one `x` per tuple.
pub fn solve_spd_regularized_into(
    a: &Matrix,
    b: &[f64],
    alpha0: f64,
    scratch: &mut SpdScratch,
    x: &mut [f64],
) -> bool {
    let n = a.rows();
    assert_eq!(a.cols(), n, "cholesky requires a square matrix");
    assert_eq!(x.len(), n, "one unknown per row");
    scratch.l.resize(n * n, 0.0);
    for shift in regularizing_shifts(a, alpha0) {
        if factor_shifted(a, shift, &mut scratch.l) {
            solve_factored(&scratch.l, b, x);
            if x.iter().all(|v| v.is_finite()) {
                return true;
            }
        }
    }
    false
}

/// [`solve_spd_regularized_into`] into a fresh vector: `None` when every
/// shift fails.
pub fn solve_spd_regularized(a: &Matrix, b: &[f64], alpha0: f64) -> Option<Vec<f64>> {
    let mut x = vec![0.0; a.rows()];
    solve_spd_regularized_into(a, b, alpha0, &mut SpdScratch::default(), &mut x).then_some(x)
}

/// LU factorization with partial pivoting: `P A = L U`.
///
/// `L` has an implicit unit diagonal; both factors are packed into one
/// matrix. `perm[i]` records the source row of pivoted row `i`.
pub struct LuFactors {
    lu: Matrix,
    perm: Vec<usize>,
    /// Sign of the permutation, exposed for determinant computation.
    sign: f64,
}

impl LuFactors {
    /// Factorizes `a`. Returns `None` when a pivot collapses (singular).
    pub fn new(a: &Matrix) -> Option<Self> {
        assert_eq!(a.rows(), a.cols(), "LU requires a square matrix");
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        for col in 0..n {
            // Pivot search.
            let mut pivot_row = col;
            let mut pivot_val = lu[(col, col)].abs();
            for r in col + 1..n {
                let v = lu[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < EPS || !pivot_val.is_finite() {
                return None;
            }
            if pivot_row != col {
                for j in 0..n {
                    let tmp = lu[(col, j)];
                    lu[(col, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(col, pivot_row);
                sign = -sign;
            }
            // Eliminate below the pivot.
            let inv = 1.0 / lu[(col, col)];
            for r in col + 1..n {
                let factor = lu[(r, col)] * inv;
                lu[(r, col)] = factor;
                if factor != 0.0 {
                    for j in col + 1..n {
                        let upper = lu[(col, j)];
                        lu[(r, j)] -= factor * upper;
                    }
                }
            }
        }
        Some(Self { lu, perm, sign })
    }

    /// Reassembles factors from raw parts (the snapshot decode path).
    /// The parts must come from [`LuFactors::parts`] — no validation is
    /// performed beyond the square-shape and permutation-length checks.
    pub fn from_parts(lu: Matrix, perm: Vec<usize>, sign: f64) -> Self {
        assert_eq!(lu.rows(), lu.cols(), "LU factors must be square");
        assert_eq!(perm.len(), lu.rows(), "one permutation entry per row");
        Self { lu, perm, sign }
    }

    /// The packed factors, permutation, and sign (the snapshot encode
    /// path; inverse of [`LuFactors::from_parts`]).
    pub fn parts(&self) -> (&Matrix, &[usize], f64) {
        (&self.lu, &self.perm, self.sign)
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.rows();
        assert_eq!(b.len(), n);
        // Apply permutation, then forward substitution with unit-lower L.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut sum = x[i];
            for k in 0..i {
                sum -= self.lu[(i, k)] * x[k];
            }
            x[i] = sum;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for k in i + 1..n {
                sum -= self.lu[(i, k)] * x[k];
            }
            x[i] = sum / self.lu[(i, i)];
        }
        x
    }

    /// Explicit inverse of the factorized matrix (column-by-column solve).
    pub fn inverse(&self) -> Matrix {
        let n = self.lu.rows();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for col in 0..n {
            e[col] = 1.0;
            let x = self.solve(&e);
            for row in 0..n {
                inv[(row, col)] = x[row];
            }
            e[col] = 0.0;
        }
        inv
    }

    /// Determinant of the factorized matrix.
    pub fn det(&self) -> f64 {
        let n = self.lu.rows();
        let mut d = self.sign;
        for i in 0..n {
            d *= self.lu[(i, i)];
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I for a fixed B, guaranteed SPD.
        let b = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.0, -1.0], &[2.0, 0.0, 1.0]]);
        let mut a = b.gram();
        a.add_diag(1.0);
        a
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let l = cholesky(&a).expect("SPD");
        let rec = l.matmul(&l.transpose());
        assert!(rec.max_abs_diff(&a) < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(cholesky(&a).is_none());
    }

    #[test]
    fn solve_spd_matches_direct() {
        let a = spd3();
        let b = vec![1.0, -2.0, 3.0];
        let x = solve_spd(&a, &b).expect("SPD");
        let back = a.matvec(&x);
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn regularized_handles_semidefinite() {
        // Rank-1 Gram matrix: plain Cholesky fails, regularized succeeds.
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let g = x.gram();
        assert!(cholesky(&g).is_none());
        let sol = solve_spd_regularized(&g, &[1.0, 2.0], 1e-6).expect("regularized");
        assert!(sol.iter().all(|v| v.is_finite()));
    }

    /// `(name, feature rows, targets, α, φ bits)`; `None` bits when the
    /// solve must fail.
    type Golden = (&'static str, Vec<Vec<f64>>, Vec<f64>, f64, Option<Vec<u64>>);

    fn scaled(rows: &[[f64; 2]], s: f64) -> Vec<Vec<f64>> {
        rows.iter()
            .map(|r| r.iter().map(|v| v * s).collect())
            .collect()
    }

    /// Gram systems that take the shift-escalation path, with the φ bits
    /// the allocating solver (`a.clone()` + `add_diag` + `cholesky` +
    /// `cholesky_solve` per shift) produced before the scratch kernel
    /// replaced it.
    fn goldens() -> Vec<Golden> {
        let rank_deficient = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![0.5, -1.0, 2.0, 0.25],
            vec![3.0, 1.0, -2.0, 1.0],
        ];
        let grid = [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]];
        vec![
            // ℓ = 3 rows for m + 1 = 5 unknowns.
            (
                "rank_deficient",
                rank_deficient.clone(),
                vec![1.0, 2.0, 3.0],
                1e-6,
                Some(vec![
                    0x3fe705bab560e074,
                    0x3ff0901e360b04d8,
                    0xbfdf6f8255690dc3,
                    0x3fc2301a9a24397f,
                    0xbfa96a21fcdc4c55,
                ]),
            ),
            (
                "rank_deficient_alpha0",
                rank_deficient,
                vec![1.0, 2.0, 3.0],
                0.0,
                Some(vec![
                    0x3fe705619495069b,
                    0x3ff0901efa0339c7,
                    0xbfdf70be933c878c,
                    0x3fc22f4b82788393,
                    0xbfa961665ce4a106,
                ]),
            ),
            (
                "duplicated_rows",
                vec![vec![2.5, -1.0]; 6],
                vec![7.0; 6],
                1e-9,
                Some(vec![
                    0x3feb26ca4578cca2,
                    0x4000f83dbe126471,
                    0xbfeb26cc4dbbd762,
                ]),
            ),
            (
                "duplicated_rows_alpha0",
                vec![vec![2.5, -1.0]; 6],
                vec![7.0; 6],
                0.0,
                Some(vec![
                    0x3feb259d85631b6f,
                    0x4000f871e36bb064,
                    0xbfeb25ef9867ae94,
                ]),
            ),
            (
                "scale_1e150",
                scaled(&grid, 1e150),
                vec![1e150, 2e150, 3e150],
                1e-6,
                Some(vec![
                    0x0000000000000000,
                    0x3ff0000000000000,
                    0x0000000000000000,
                ]),
            ),
            (
                "scale_1e-150",
                scaled(&grid, 1e-150),
                vec![1e-150, 2e-150, 3e-150],
                1e-6,
                Some(vec![
                    0x20da2fe6d7cca4e5,
                    0x02f46ffc70109c59,
                    0x02e46fff1dd485c8,
                ]),
            ),
            (
                "scale_1e-150_alpha0",
                scaled(&grid, 1e-150),
                vec![1e-150, 2e-150, 3e-150],
                0.0,
                Some(vec![
                    0x1d75c3649abf3a85,
                    0x3feffffffffffffe,
                    0x3c9fdafb60009cde,
                ]),
            ),
            (
                "dup_scale_1e150_alpha0",
                vec![vec![1e150]; 2],
                vec![1e150; 2],
                0.0,
                Some(vec![0x20ca2ff47ba74fbb, 0x3fefffffffffee68]),
            ),
            (
                "dup_scale_1e150",
                vec![vec![1e150]; 2],
                vec![1e150; 2],
                1e-6,
                Some(vec![0x0000000000000000, 0x3ff0000000000000]),
            ),
            (
                "dup_scale_1e-150_alpha0",
                vec![vec![1e-150]; 2],
                vec![1e-150; 2],
                0.0,
                Some(vec![0x0000000000000000, 0x3ff0000000000000]),
            ),
            // Finite values whose Gram sums overflow: every shift fails.
            (
                "overflow_1e160",
                vec![vec![1e160, 1e160]; 3],
                vec![1.0, 2.0, 3.0],
                1e-6,
                None,
            ),
        ]
    }

    #[test]
    fn regularized_solve_bits_are_pinned() {
        use crate::{ridge_fit, GramAccumulator};
        // One scratch across every case (sizes 3, 5 and 2, in that
        // order), so stale factor entries from a larger system are
        // exercised too.
        let mut scratch = SpdScratch::default();
        for (name, rows, ys, alpha, want) in goldens() {
            let mut acc = GramAccumulator::new(rows[0].len());
            for (x, &y) in rows.iter().zip(&ys) {
                acc.add_row(x, y);
            }
            let bits = |phi: &[f64]| phi.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            let wrapped = solve_spd_regularized(acc.u(), acc.v(), alpha);
            assert_eq!(
                wrapped.as_deref().map(bits),
                want,
                "{name}: solve_spd_regularized"
            );
            let mut phi = vec![f64::NAN; rows[0].len() + 1];
            let ok = acc.solve_into(alpha, &mut scratch, &mut phi);
            assert_eq!(ok.then(|| bits(&phi)), want, "{name}: solve_into");
            let fit = ridge_fit(rows.iter().map(|r| r.as_slice()), &ys, alpha);
            assert_eq!(fit.map(|m| bits(&m.phi)), want, "{name}: ridge_fit");
        }
    }

    #[test]
    fn indefinite_matrix_escalates_until_definite() {
        // Eigenvalues 3 and -1: fourteen shifts (0, 1e-12, …, ~1) fail
        // before the fifteenth (~10) succeeds; the sequence would go on to
        // 1e6 times the mean diagonal.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let x = solve_spd_regularized(&a, &[1.0, -1.0], 0.0).expect("shift 10 is definite");
        assert_eq!(
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            [0x3fbc71c71c71c71f, 0xbfbc71c71c71c71f]
        );
        let shifts: Vec<f64> = regularizing_shifts(&a, 0.0).collect();
        assert_eq!(shifts.len(), 20);
        assert_eq!(shifts[..2], [0.0, EPS]);
    }

    #[test]
    fn lu_solves_general_system() {
        let a = Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, -1.0, 0.0], &[3.0, 0.0, -2.0]]);
        let lu = LuFactors::new(&a).expect("nonsingular");
        let b = vec![3.0, 1.0, 2.0];
        let x = lu.solve(&b);
        let back = a.matvec(&x);
        for (got, want) in back.iter().zip(&b) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn lu_detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(LuFactors::new(&a).is_none());
    }

    #[test]
    fn lu_inverse_and_det() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let lu = LuFactors::new(&a).expect("nonsingular");
        assert!((lu.det() - 10.0).abs() < 1e-9);
        let inv = lu.inverse();
        let id = a.matmul(&inv);
        assert!(id.max_abs_diff(&Matrix::identity(2)) < 1e-9);
    }

    #[test]
    fn lu_pivoting_keeps_accuracy() {
        // Requires row exchange on the first column.
        let a = Matrix::from_rows(&[&[1e-14, 1.0], &[1.0, 1.0]]);
        let lu = LuFactors::new(&a).expect("nonsingular");
        let x = lu.solve(&[1.0, 2.0]);
        let back = a.matvec(&x);
        assert!((back[0] - 1.0).abs() < 1e-8);
        assert!((back[1] - 2.0).abs() < 1e-8);
    }
}
