//! Minimal dense linear algebra for ALS's `d x d` normal equations (`d` ≈
//! 5–20): a register-tiled build of `A = Σ x xᵀ` and `b = Σ r x` over a
//! vertex's neighbours ([`NormalEquations`]) and an in-place Cholesky solve
//! that reads only the lower triangle of `A`.
//!
//! The build copies each neighbour's factor, zero-padded to `stride` (`d`
//! rounded up to 8), and its rating into a block of at most 32 neighbours,
//! so the buffer holds `32 · stride` floats whatever the degree. Each full
//! block, and the last partial one, is swept once per register tile: `b` in
//! tiles of one row by 8 columns, the lower triangle of `A` in tiles of 2
//! rows by 8 columns (the last tile of a row pair 4 columns wide when 4
//! cover it). A tile's accumulators are loaded from the matrix, take the
//! block's neighbours in order while they stay in registers, and are stored
//! back. Tile widths are compile-time constants, so the compiler keeps a
//! tile row in vector registers without target flags. Tiles straddle the
//! diagonal; their entries above it, and in the padding row of an odd `d`,
//! are scratch the solve never reads. Every entry of the triangle still
//! starts from `0.0` and adds `xᵢ·xⱼ` in neighbour order, and every entry of
//! `b` adds `r·xᵢ` in that order, so the solve reads the bits of a scalar
//! per-entry loop. No fused multiply-add is used: it rounds once where the
//! loop rounds twice.
//!
//! A [`NormalEquations`] kept across solves (ALS keeps one per thread)
//! allocates nothing once it has held a full block of its dimension.

/// Rows of one register tile. Two rows of `TILE_COLS` accumulators, the
/// column vector they multiply and the two row scalars fit the sixteen
/// vector registers of baseline x86-64.
const TILE_ROWS: usize = 2;

/// Columns of one register tile, and the multiple a row is padded to.
const TILE_COLS: usize = 8;

/// Most neighbour factors buffered between two sweeps of the tiles: enough
/// to amortise loading and storing a tile, few enough that the block stays
/// in L1 at the dimensions ALS runs.
const BLOCK: usize = 32;

/// The normal equations `A f = b` of one least-squares solve, built one
/// neighbour at a time and reused across solves.
///
/// `A` is row-major with row stride `stride` (`d` rounded up to
/// `TILE_COLS`); only its lower triangle (`j ≤ i < d`) is meaningful. `b`
/// is padded to `stride` entries too, of which the first `d` are `b`.
#[derive(Debug, Default)]
pub struct NormalEquations {
    d: usize,
    stride: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    /// Up to `BLOCK` neighbour factors, `stride` entries each, the
    /// entries past `d` zero.
    block: Vec<f64>,
    /// The ratings of the factors in `block`.
    ratings: Vec<f64>,
    /// Neighbours pushed since the last [`Self::reset`].
    count: usize,
}

impl NormalEquations {
    /// An empty system; [`Self::reset`] sizes it.
    pub const fn new() -> Self {
        NormalEquations {
            d: 0,
            stride: 0,
            a: Vec::new(),
            b: Vec::new(),
            block: Vec::new(),
            ratings: Vec::new(),
            count: 0,
        }
    }

    /// Clears the system to `A = 0`, `b = 0` of dimension `d`.
    pub fn reset(&mut self, d: usize) {
        let stride = d.next_multiple_of(TILE_COLS);
        self.d = d;
        self.stride = stride;
        self.a.clear();
        self.a.resize(stride * stride, 0.0);
        self.b.clear();
        self.b.resize(stride, 0.0);
        self.block.clear();
        self.ratings.clear();
        self.count = 0;
    }

    /// Adds `x xᵀ` to `A` and `rating · x` to `b`. `x` has `d` entries.
    pub fn push(&mut self, x: &[f64], rating: f64) {
        debug_assert_eq!(x.len(), self.d);
        // Tile-wide copies, which compile to moves rather than a `memcpy`
        // call of runtime length; only the last may be partial.
        for chunk in x.chunks(TILE_COLS) {
            match <&[f64; TILE_COLS]>::try_from(chunk) {
                Ok(whole) => self.block.extend_from_slice(whole),
                Err(_) => {
                    self.block.extend_from_slice(chunk);
                    let padded = self.block.len().next_multiple_of(TILE_COLS);
                    self.block.resize(padded, 0.0);
                }
            }
        }
        self.ratings.push(rating);
        self.count += 1;
        if self.ratings.len() == BLOCK {
            self.sweep();
        }
    }

    /// Adds the buffered neighbours' `Σ x xᵀ` to `A` and `Σ r x` to `b`,
    /// one register tile at a time, and empties the buffer.
    fn sweep(&mut self) {
        let s = self.stride;
        let rows = self.block.chunks_exact(s);
        for j0 in (0..self.d).step_by(TILE_COLS) {
            let scaled = rows.clone().zip(&self.ratings).map(|(x, &r)| (x, [r]));
            tile::<1, TILE_COLS>(&mut self.b, 0, j0, scaled);
        }
        for i0 in (0..self.d).step_by(TILE_ROWS) {
            let m = &mut self.a[i0 * s..];
            let scaled = || rows.clone().map(|x| (x, [x[i0], x[i0 + 1]]));
            // Rows `i0` and `i0 + 1` need columns up to `i0 + 1`; the last
            // of the tiles that cover them is half as wide when it can be.
            let width = i0 + TILE_ROWS;
            for j0 in (0..width).step_by(TILE_COLS) {
                if width - j0 <= TILE_COLS / 2 {
                    tile::<TILE_ROWS, { TILE_COLS / 2 }>(m, s, j0, scaled());
                } else {
                    tile::<TILE_ROWS, TILE_COLS>(m, s, j0, scaled());
                }
            }
        }
        self.block.clear();
        self.ratings.clear();
    }

    /// Solves the regularized system `(A + λ n I) f = b`, `n` the
    /// neighbours pushed, with [`cholesky_solve`]; returns `f`, or `None`
    /// if `A + λ n I` is not positive definite (as when no neighbour was
    /// pushed). Consumes the system: [`Self::reset`] it before the next
    /// build.
    pub fn solve(&mut self, lambda: f64) -> Option<&[f64]> {
        self.sweep();
        let ridge = lambda * self.count as f64;
        for i in 0..self.d {
            self.a[i * self.stride + i] += ridge;
        }
        let f = &mut self.b[..self.d];
        cholesky_solve(&mut self.a, self.stride, f).then_some(f)
    }
}

/// One register tile: loads the `R x W` block at column `j0` of the rows
/// of `m` (row stride `stride`) into accumulators, adds `s[r] · x[j0 + c]`
/// to entry `(r, c)` for each neighbour's `(x, s)` in order, and stores
/// the block back.
#[inline(always)]
fn tile<'a, const R: usize, const W: usize>(
    m: &mut [f64],
    stride: usize,
    j0: usize,
    block: impl Iterator<Item = (&'a [f64], [f64; R])>,
) {
    let mut acc = [[0.0; W]; R];
    for (r, acc) in acc.iter_mut().enumerate() {
        acc.copy_from_slice(&m[r * stride + j0..][..W]);
    }
    for (x, s) in block {
        let xj = &x[j0..j0 + W];
        for (acc, s) in acc.iter_mut().zip(s) {
            for (e, &xj) in acc.iter_mut().zip(xj) {
                *e += s * xj;
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        m[r * stride + j0..][..W].copy_from_slice(acc);
    }
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solves `A x = b` for symmetric positive-definite `A` in place, where `A`
/// is `d x d` (`d = b.len()`) and row-major with row stride `lda ≥ d`: on
/// success `b` holds the solution and `a` holds the Cholesky factor. Only
/// the lower triangle of `a` is read or written. Returns `false` if `A` is
/// not positive definite.
pub fn cholesky_solve(a: &mut [f64], lda: usize, b: &mut [f64]) -> bool {
    let d = b.len();
    debug_assert!(lda >= d && a.len() >= d.saturating_sub(1) * lda + d);
    // Factor A = L Lᵀ, storing L in the lower triangle.
    for i in 0..d {
        for j in 0..=i {
            let mut sum = a[i * lda + j];
            for k in 0..j {
                sum -= a[i * lda + k] * a[j * lda + k];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return false;
                }
                a[i * lda + i] = sum.sqrt();
            } else {
                a[i * lda + j] = sum / a[j * lda + j];
            }
        }
    }
    // Forward solve L y = b.
    for i in 0..d {
        let mut sum = b[i];
        for k in 0..i {
            sum -= a[i * lda + k] * b[k];
        }
        b[i] = sum / a[i * lda + i];
    }
    // Back solve Lᵀ x = y.
    for i in (0..d).rev() {
        let mut sum = b[i];
        for k in i + 1..d {
            sum -= a[k * lda + i] * b[k];
        }
        b[i] = sum / a[i * lda + i];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scalar build [`NormalEquations`] replaced: adds `alpha * x xᵀ` to
    /// the lower triangle (`j ≤ i`) of the row-major `d x d` matrix `a`, one
    /// entry at a time. The model the tiles are held to.
    fn syrk_update(a: &mut [f64], x: &[f64], alpha: f64) {
        let d = x.len();
        for (i, &xi) in x.iter().enumerate() {
            let axi = alpha * xi;
            for (aij, &xj) in a[i * d..=i * d + i].iter_mut().zip(x) {
                *aij += axi * xj;
            }
        }
    }

    /// Adds `alpha * x` to `y`: the right-hand side's scalar model.
    fn axpy(y: &mut [f64], x: &[f64], alpha: f64) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Builds the normal equations of `count` neighbours of dimension `d`
    /// both ways, solves them regularized by `λ n`, and asserts the tiled
    /// build's lower triangle, right-hand side, verdict and solution
    /// bit-equal to the scalar model's. The triangle is read from one tiled
    /// build swept by hand, the solution from a second one that
    /// [`NormalEquations::solve`] sweeps itself. Neighbour `k`'s factor is
    /// `seed` read cyclically from offset `7k`, its rating
    /// `ratings[k % ratings.len()]`.
    fn assert_tiled_matches_model(
        d: usize,
        count: usize,
        seed: &[f64],
        ratings: &[f64],
        lambda: f64,
    ) {
        let x = |k: usize| {
            (0..d)
                .map(|i| seed[(7 * k + i) % seed.len()])
                .collect::<Vec<_>>()
        };
        let tiled = || {
            let mut system = NormalEquations::new();
            // Start from a larger, dirtied system: reset must clear it.
            system.reset(d + 9);
            for k in 0..BLOCK + 3 {
                system.push(&vec![1.5; d + 9], k as f64);
            }
            system.reset(d);
            for k in 0..count {
                system.push(&x(k), ratings[k % ratings.len()]);
            }
            system
        };
        let mut a = vec![0.0; d * d];
        let mut b = vec![0.0; d];
        for k in 0..count {
            syrk_update(&mut a, &x(k), 1.0);
            axpy(&mut b, &x(k), ratings[k % ratings.len()]);
        }
        let mut built = tiled();
        assert_eq!(built.count, count);
        built.sweep();
        let s = built.stride;
        for i in 0..d {
            assert_eq!(
                bits(&built.a[i * s..=i * s + i]),
                bits(&a[i * d..=i * d + i]),
                "d {d}, {count} neighbours, row {i}"
            );
        }
        assert_eq!(bits(&built.b[..d]), bits(&b), "d {d}, {count} neighbours");
        for i in 0..d {
            a[i * d + i] += lambda * count as f64;
        }
        let ok = cholesky_solve(&mut a, d, &mut b);
        let solved = tiled().solve(lambda).map(bits);
        assert_eq!(solved, ok.then(|| bits(&b)), "d {d}, {count} neighbours");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The tiled build produces, bit for bit, the lower triangle and
        /// right-hand side of the scalar per-entry loop, and solves to the
        /// same verdict and solution, for `d` in 1..=20 and 0..=100
        /// neighbours.
        #[test]
        fn tiled_build_is_bit_equal_to_the_scalar_model(
            d in 1usize..21,
            count in 0usize..101,
            seed in proptest::collection::vec(-2.0f64..2.0, 1..80),
            ratings in proptest::collection::vec(0.5f64..5.0, 1..101),
            lambda in 0.0f64..0.2,
            unregularized in 0u8..4,
        ) {
            // One case in four solves the bare `Σ x xᵀ`, which fewer than `d`
            // neighbours leave singular.
            let lambda = if unregularized == 0 { 0.0 } else { lambda };
            assert_tiled_matches_model(d, count, &seed, &ratings, lambda);
        }
    }

    /// The corners the proptest may miss, each taken: every `d` in 1..=20
    /// (below, at and above one tile's width, odd, not a multiple of 8)
    /// against neighbour counts on either side of one and two blocks.
    #[test]
    fn tiled_build_matches_the_scalar_model_at_every_block_edge() {
        // Sevenths, so products round and an operation out of order shows.
        let seed: Vec<f64> = (0..61)
            .map(|i| ((i * 37 % 61) as f64 - 30.0) / 7.0)
            .collect();
        let ratings = [1.0, 4.5, 3.0, 2.5, 5.0];
        for d in 1..=20 {
            for count in [
                0,
                1,
                BLOCK - 1,
                BLOCK,
                BLOCK + 1,
                2 * BLOCK,
                2 * BLOCK + 1,
                100,
            ] {
                for lambda in [0.0, 0.05] {
                    assert_tiled_matches_model(d, count, &seed, &ratings, lambda);
                }
            }
        }
    }

    #[test]
    fn solves_identity() {
        let mut a = vec![1.0, 0.0, 0.0, 1.0];
        let mut b = vec![3.0, -2.0];
        assert!(cholesky_solve(&mut a, 2, &mut b));
        assert_eq!(b, vec![3.0, -2.0]);
    }

    #[test]
    fn solves_spd_system() {
        // A = [[4, 2], [2, 3]], b = [10, 8] -> x = [1.75, 1.5]
        let mut a = vec![4.0, 2.0, 2.0, 3.0];
        let mut b = vec![10.0, 8.0];
        assert!(cholesky_solve(&mut a, 2, &mut b));
        assert!((b[0] - 1.75).abs() < 1e-12, "{b:?}");
        assert!((b[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn solves_with_a_row_stride() {
        // The system above, each row padded to three entries.
        let mut a = vec![4.0, f64::NAN, f64::NAN, 2.0, 3.0, f64::NAN];
        let mut b = vec![10.0, 8.0];
        assert!(cholesky_solve(&mut a, 3, &mut b));
        assert!((b[0] - 1.75).abs() < 1e-12, "{b:?}");
        assert!((b[1] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_pd() {
        let mut a = vec![0.0, 0.0, 0.0, 0.0];
        let mut b = vec![1.0, 1.0];
        assert!(!cholesky_solve(&mut a, 2, &mut b));
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
        assert!(cholesky_solve(&mut a2, d, &mut b));
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
