#![allow(clippy::needless_range_loop)] // index loops are the idiom in these dense numeric kernels

//! Dense linear-algebra substrate for the `iim` workspace.
//!
//! The IIM paper (ICDE 2019, "Learning Individual Models for Imputation")
//! learns one small ridge-regression model per tuple (Formula 5) and keeps
//! those models cheap to re-learn under a growing neighbor set via
//! incremental Gram-matrix maintenance (Proposition 3, Formula 19). The
//! matrices involved are `m x m` where `m` is the attribute count of a
//! relation — single digits to a few tens — so this crate favours simple,
//! allocation-conscious dense kernels over BLAS bindings:
//!
//! * [`Matrix`] — row-major dense matrix with the handful of ops the
//!   workspace needs (products, transpose, norms).
//! * [`cholesky`] / [`lu`](solve::LuFactors) — SPD and
//!   general linear solvers; ridge systems are SPD by construction.
//! * [`eigen_sym`] — cyclic Jacobi eigendecomposition of
//!   symmetric matrices, the workhorse behind the thin SVD.
//! * [`thin_svd`] — SVD of tall matrices via the `m x m`
//!   normal-equations eigenproblem (used by the SVDimpute baseline).
//! * [`ridge`] — Ordinary ridge regression `(XᵀX + αE)⁻¹ Xᵀy`.
//! * [`GramAccumulator`] — the incremental `U`/`V`
//!   pair of Proposition 3: add rows in O(m²) and re-solve in O(m³),
//!   independent of how many rows have been absorbed.
//! * [`solve_spd_regularized_into`](solve::solve_spd_regularized_into) —
//!   the one regularized Cholesky kernel behind every ridge solve, writing
//!   into caller scratch ([`SpdScratch`]) so sweeps over many systems
//!   allocate nothing.
//!
//! Everything is `f64`; the workspace deliberately avoids external linear
//! algebra crates (see DESIGN.md).

pub mod eigen;
pub mod gram;
pub mod matrix;
pub mod ridge;
pub mod solve;
pub mod svd;

pub use eigen::eigen_sym;
pub use gram::GramAccumulator;
pub use matrix::Matrix;
pub use ridge::{predict_phi, ridge_fit, ridge_fit_weighted, RidgeModel};
pub use solve::{cholesky, regularizing_shifts, solve_spd, LuFactors, SpdScratch};
pub use svd::{thin_svd, ThinSvd};

/// Numerical tolerance used across the crate for "is effectively zero"
/// decisions (pivot checks, convergence thresholds).
pub const EPS: f64 = 1e-12;
