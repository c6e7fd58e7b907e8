//! Distances on complete attributes (Formula 1 of the paper):
//! `d(x, i) = sqrt( Σ_{A ∈ F} (x[A] − tᵢ[A])² / |F| )`.
//!
//! # Kernel layout and the bitwise contract
//!
//! Every distance in the workspace flows through `sq_diff_sum`, a
//! blocked kernel that accumulates squared differences into **four
//! independent lanes** (chunks of 4, tail elements folded into lane
//! `i % 4`) and reduces them as `(s0 + s1) + (s2 + s3)`. Breaking the
//! serial dependency chain this way lets LLVM autovectorize the loop into
//! packed SIMD adds/multiplies (verified by `scripts/check_vectorization.sh`
//! and the `dist` criterion benches) while keeping the summation order a
//! *fixed, committed* choice: [`sq_dist_f`] (one pair) and
//! [`sq_dist_many`] (one query against a contiguous row-major block)
//! both call the same kernel per row, so a batched scan returns
//! **bit-identical** values to scalar calls — property-tested in
//! `tests/index_parity.rs`. Index variants (brute / vp) may batch or
//! not batch freely without perturbing any tie-break.

/// Blocked sum of squared differences — the one committed summation order
/// (see the module docs). Four independent accumulator lanes over chunks
/// of 4; tail element `i` folds into lane `i % 4`; final reduction
/// `(s0 + s1) + (s2 + s3)`.
#[inline(always)]
fn sq_diff_sum(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (xs, ys) in (&mut ca).zip(&mut cb) {
        for j in 0..4 {
            let d = xs[j] - ys[j];
            acc[j] += d * d;
        }
    }
    for (j, (x, y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        let d = x - y;
        acc[j] += d * d;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Squared Formula-1 distance between two *gathered* feature vectors
/// (values already restricted to `F`, in the same order).
///
/// The `1/|F|` normalization matters when experiments vary `|F|`
/// (Figures 4–5): it keeps distances comparable across feature-set sizes.
#[inline]
pub fn sq_dist_f(a: &[f64], b: &[f64]) -> f64 {
    debug_assert!(!a.is_empty());
    sq_diff_sum(a, b) / a.len() as f64
}

/// Squared Formula-1 distances from one `query` to every row of a
/// contiguous row-major `block` (`out.len()` rows of `query.len()`
/// values each).
///
/// This is the batched form of [`sq_dist_f`]: each output value is
/// **bitwise equal** to `sq_dist_f(query, row)` because both run the same
/// per-row kernel, but scanning a contiguous block keeps the loads
/// streaming and lets the whole scan autovectorize — the shape the brute
/// scan and the vp leaf scans feed.
#[inline]
pub fn sq_dist_many(query: &[f64], block: &[f64], out: &mut [f64]) {
    let m = query.len();
    debug_assert!(m > 0);
    debug_assert_eq!(block.len(), out.len() * m);
    let inv_len = m as f64;
    for (o, row) in out.iter_mut().zip(block.chunks_exact(m)) {
        *o = sq_diff_sum(query, row) / inv_len;
    }
}

/// Formula-1 distance between two gathered feature vectors.
#[inline]
pub fn euclidean_f(a: &[f64], b: &[f64]) -> f64 {
    sq_dist_f(a, b).sqrt()
}

/// Squared Formula-1 distance between two raw rows restricted to `attrs`.
///
/// Rows may be raw [`Relation`](iim_data::Relation) rows; the caller must
/// ensure the attributes in `attrs` are present (non-NaN) in both rows.
/// Gathers through `attrs` with the same four-lane accumulation order as
/// [`sq_dist_f`], so a restricted-attr scan agrees bitwise with gathering
/// first and calling `sq_dist_f` on the result.
#[inline]
pub fn sq_dist_on(a: &[f64], b: &[f64], attrs: &[usize]) -> f64 {
    debug_assert!(!attrs.is_empty());
    let mut acc = [0.0f64; 4];
    let mut it = attrs.chunks_exact(4);
    for js in &mut it {
        for (lane, &j) in js.iter().enumerate() {
            let d = a[j] - b[j];
            debug_assert!(d.is_finite(), "distance over a missing cell");
            acc[lane] += d * d;
        }
    }
    for (lane, &j) in it.remainder().iter().enumerate() {
        let d = a[j] - b[j];
        debug_assert!(d.is_finite(), "distance over a missing cell");
        acc[lane] += d * d;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) / attrs.len() as f64
}

/// Formula-1 distance over all attributes of two complete raw rows.
#[inline]
pub fn euclidean_full(a: &[f64], b: &[f64]) -> f64 {
    sq_dist_f(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_by_dimension() {
        // Same per-coordinate gap, different dimension: Formula 1 keeps the
        // distance constant.
        let d1 = euclidean_f(&[0.0], &[2.0]);
        let d2 = euclidean_f(&[0.0, 0.0], &[2.0, 2.0]);
        assert!((d1 - 2.0).abs() < 1e-12);
        assert!((d2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn subset_distance() {
        let a = [1.0, f64::NAN, 3.0];
        let b = [4.0, f64::NAN, 7.0];
        // attrs {0,2}: sq = (9 + 16)/2
        let d = sq_dist_on(&a, &b, &[0, 2]);
        assert!((d - 12.5).abs() < 1e-12);
    }

    #[test]
    fn zero_distance_to_self() {
        let a = [0.5, -1.0, 3.25];
        assert_eq!(euclidean_full(&a, &a), 0.0);
        assert_eq!(sq_dist_on(&a, &a, &[0, 1, 2]), 0.0);
    }

    #[test]
    fn symmetry() {
        let a = [1.0, 2.0];
        let b = [-3.0, 0.5];
        assert_eq!(euclidean_f(&a, &b), euclidean_f(&b, &a));
    }

    #[test]
    fn batched_matches_scalar_bitwise() {
        // 7-dim rows: exercises both the 4-lane body and the 3-wide tail.
        let m = 7;
        let query: Vec<f64> = (0..m).map(|j| (j as f64) * 0.37 - 1.0).collect();
        let block: Vec<f64> = (0..m * 13)
            .map(|i| ((i * 31 % 97) as f64) * 0.11 - 5.0)
            .collect();
        let mut out = vec![0.0; 13];
        sq_dist_many(&query, &block, &mut out);
        for (r, &got) in out.iter().enumerate() {
            let scalar = sq_dist_f(&query, &block[r * m..(r + 1) * m]);
            assert_eq!(got.to_bits(), scalar.to_bits(), "row {r}");
        }
    }

    #[test]
    fn restricted_attrs_match_gathered_bitwise() {
        let a: Vec<f64> = (0..10).map(|j| (j as f64) * 1.3 - 2.0).collect();
        let b: Vec<f64> = (0..10).map(|j| (j as f64) * -0.7 + 1.0).collect();
        for attrs in [
            vec![0usize],
            vec![2, 5],
            vec![0, 1, 2, 3, 4],
            vec![9, 0, 4, 7, 2, 8],
        ] {
            let ga: Vec<f64> = attrs.iter().map(|&j| a[j]).collect();
            let gb: Vec<f64> = attrs.iter().map(|&j| b[j]).collect();
            assert_eq!(
                sq_dist_on(&a, &b, &attrs).to_bits(),
                sq_dist_f(&ga, &gb).to_bits(),
                "{attrs:?}"
            );
        }
    }
}
