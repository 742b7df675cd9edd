//! Minimal dense linear algebra for ALS's `d x d` normal equations (`d` ≈
//! 5–20): a symmetric rank-1 update into the lower triangle and an in-place
//! Cholesky solve that reads only that triangle. Every function works on
//! slices the caller owns and allocates nothing; `AlsParams::solve` passes
//! its thread's reused matrix and right-hand side, so a solve allocates
//! only the factor it returns.

/// Adds `alpha * x xᵀ` to the lower triangle (`j ≤ i`) of the row-major
/// `d x d` matrix `a`; the strict upper triangle is not written. The lower
/// triangle is all [`cholesky_solve`] reads.
pub fn syrk_update(a: &mut [f64], x: &[f64], alpha: f64) {
    let d = x.len();
    debug_assert_eq!(a.len(), d * d);
    for (i, &xi) in x.iter().enumerate() {
        let axi = alpha * xi;
        for (aij, &xj) in a[i * d..=i * d + i].iter_mut().zip(x) {
            *aij += axi * xj;
        }
    }
}

/// Adds `alpha * x` to `y`.
pub fn axpy(y: &mut [f64], x: &[f64], alpha: f64) {
    debug_assert_eq!(y.len(), x.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves `A x = b` for symmetric positive-definite `A` (row-major `d x d`)
/// in place: on success `b` holds the solution and `a` holds the Cholesky
/// factor. Only the lower triangle of `a` is read or written. Returns
/// `false` if `A` is not positive definite.
pub fn cholesky_solve(a: &mut [f64], b: &mut [f64], d: usize) -> bool {
    debug_assert_eq!(a.len(), d * d);
    debug_assert_eq!(b.len(), d);
    // Factor A = L Lᵀ, storing L in the lower triangle.
    for i in 0..d {
        for j in 0..=i {
            let mut sum = a[i * d + j];
            for k in 0..j {
                sum -= a[i * d + k] * a[j * d + k];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return false;
                }
                a[i * d + i] = sum.sqrt();
            } else {
                a[i * d + j] = sum / a[j * d + j];
            }
        }
    }
    // Forward solve L y = b.
    for i in 0..d {
        let mut sum = b[i];
        for k in 0..i {
            sum -= a[i * d + k] * b[k];
        }
        b[i] = sum / a[i * d + i];
    }
    // Back solve Lᵀ x = y.
    for i in (0..d).rev() {
        let mut sum = b[i];
        for k in i + 1..d {
            sum -= a[k * d + i] * b[k];
        }
        b[i] = sum / a[i * d + i];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The full-matrix rank-1 update [`syrk_update`] was before it kept to
    /// the lower triangle; the oracle for the solve's inputs.
    fn syrk_update_full(a: &mut [f64], x: &[f64], alpha: f64) {
        let d = x.len();
        for i in 0..d {
            let xi = alpha * x[i];
            for j in 0..d {
                a[i * d + j] += xi * x[j];
            }
        }
    }

    proptest! {
        /// ALS's normal equations accumulated into the lower triangle solve
        /// to the same bits as the full accumulation: the same factor, the
        /// same solution, the same verdict on definiteness.
        #[test]
        fn lower_triangle_solve_is_bit_equal_to_full_accumulation(
            d in 1usize..13,
            entries in proptest::collection::vec(-2.0f64..2.0, 0..400),
            ratings in proptest::collection::vec(0.5f64..5.0, 0..40),
            lambda in 0.0f64..0.2,
        ) {
            let mut lower = vec![0.0; d * d];
            let mut full = vec![0.0; d * d];
            let mut b = vec![0.0; d];
            let rows = entries.chunks_exact(d).zip(&ratings);
            let count = rows.len();
            for (x, &r) in rows {
                syrk_update(&mut lower, x, 1.0);
                syrk_update_full(&mut full, x, 1.0);
                axpy(&mut b, x, r);
            }
            for i in 0..d {
                lower[i * d + i] += lambda * count as f64;
                full[i * d + i] += lambda * count as f64;
            }
            let mut b_full = b.clone();
            let ok = cholesky_solve(&mut lower, &mut b, d);
            prop_assert_eq!(ok, cholesky_solve(&mut full, &mut b_full, d));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&b), bits(&b_full));
            for i in 0..d {
                prop_assert_eq!(bits(&lower[i * d..=i * d + i]), bits(&full[i * d..=i * d + i]));
            }
        }
    }

    #[test]
    fn solves_identity() {
        let mut a = vec![1.0, 0.0, 0.0, 1.0];
        let mut b = vec![3.0, -2.0];
        assert!(cholesky_solve(&mut a, &mut b, 2));
        assert_eq!(b, vec![3.0, -2.0]);
    }

    #[test]
    fn solves_spd_system() {
        // A = [[4, 2], [2, 3]], b = [10, 8] -> x = [1.75, 1.5]
        let mut a = vec![4.0, 2.0, 2.0, 3.0];
        let mut b = vec![10.0, 8.0];
        assert!(cholesky_solve(&mut a, &mut b, 2));
        assert!((b[0] - 1.75).abs() < 1e-12, "{b:?}");
        assert!((b[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_pd() {
        let mut a = vec![0.0, 0.0, 0.0, 0.0];
        let mut b = vec![1.0, 1.0];
        assert!(!cholesky_solve(&mut a, &mut b, 2));
    }

    #[test]
    fn random_spd_round_trip() {
        // Build A = M Mᵀ + I from a fixed matrix, solve, verify residual.
        let d = 5;
        let m: Vec<f64> = (0..d * d)
            .map(|i| ((i * 7 + 3) % 11) as f64 / 11.0)
            .collect();
        let mut a = vec![0.0; d * d];
        for i in 0..d {
            for j in 0..d {
                let mut s = if i == j { 1.0 } else { 0.0 };
                for k in 0..d {
                    s += m[i * d + k] * m[j * d + k];
                }
                a[i * d + j] = s;
            }
        }
        let x_true: Vec<f64> = (0..d).map(|i| i as f64 - 2.0).collect();
        let mut b = vec![0.0; d];
        for i in 0..d {
            b[i] = dot(&a[i * d..(i + 1) * d], &x_true);
        }
        let mut a2 = a.clone();
        assert!(cholesky_solve(&mut a2, &mut b, d));
        for i in 0..d {
            assert!((b[i] - x_true[i]).abs() < 1e-9, "{b:?}");
        }
    }

    #[test]
    fn syrk_and_axpy() {
        let mut a = vec![0.0; 4];
        syrk_update(&mut a, &[1.0, 2.0], 2.0);
        assert_eq!(a, vec![2.0, 0.0, 4.0, 8.0]);
        let mut y = vec![1.0, 1.0];
        axpy(&mut y, &[3.0, -1.0], 0.5);
        assert_eq!(y, vec![2.5, 0.5]);
    }
}
