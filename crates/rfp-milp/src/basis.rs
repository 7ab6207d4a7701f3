//! Basis factorization for the revised simplex.
//!
//! The simplex basis `B` (one constraint-matrix column per row) is maintained
//! as a sparse LU factorization with partial pivoting plus a product-form
//! *eta file*:
//!
//! * [`Factorization::factorize`] runs a left-looking sparse LU on the basis
//!   columns (columns are processed in increasing fill order; rows are chosen
//!   by partial pivoting). Floorplanning bases are dominated by logical
//!   (identity) columns, so the factors stay close to the identity and the
//!   bump is small. Each column costs work in its nonzeros and the factored
//!   positions they reach, not in `m`: the forward solve pops reached
//!   positions from a min-heap, and the pivot search and the L column scan
//!   only the rows the column filled in. Increasing position order is a
//!   topological order of the L columns, so every row receives the same
//!   subtractions in the same order as a dense sweep over all earlier
//!   columns, and the factors are bit for bit those of the dense-scan LU
//!   (kept as the test reference).
//! * After each simplex pivot, [`Factorization::update`] appends an *eta*
//!   transformation `B_new = B_old · E` where `E` is the identity with the
//!   pivot column replaced by the FTRAN-ed entering column. FTRAN/BTRAN apply
//!   the eta file around the LU solves, so a pivot costs O(nnz(α)) instead of
//!   a refactorization.
//! * The caller refactorizes from scratch once the eta file grows past its
//!   budget or an eta pivot is too small to be stable.
//!
//! `FTRAN` solves `B x = b` (entering-column transformation, basic-value
//! updates); `BTRAN` solves `Bᵀ y = c` (pricing, dual row extraction).

use crate::sparse::CscMatrix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sparse LU factors of a basis matrix: `B[:, col_order] = Pᵀ L U` with `P`
/// the partial-pivoting row permutation.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
struct LuFactors {
    /// Below-diagonal multipliers of `L` per factored column, keyed by
    /// *original* row index (unit diagonal implicit).
    l_cols: Vec<Vec<(usize, f64)>>,
    /// Above-diagonal entries of `U` per factored column, keyed by factored
    /// position `< k`.
    u_cols: Vec<Vec<(usize, f64)>>,
    /// Diagonal of `U` per factored column.
    u_diag: Vec<f64>,
    /// Factored position -> original row (pivot row of that step).
    pivot_row: Vec<usize>,
    /// Original row -> factored position.
    row_pos: Vec<usize>,
    /// Factored position -> basis position (column processing order).
    col_order: Vec<usize>,
}

/// One product-form update: basis position `r` was replaced by a column whose
/// FTRAN image is `col` (sparse, basis-position space).
#[derive(Debug, Clone)]
struct Eta {
    r: usize,
    /// Off-pivot entries `(position, value)` of the transformed column.
    col: Vec<(usize, f64)>,
    /// Pivot entry (value at position `r`).
    diag: f64,
}

/// A maintained basis factorization: LU factors plus the eta file.
#[derive(Debug, Clone)]
pub struct Factorization {
    m: usize,
    lu: LuFactors,
    etas: Vec<Eta>,
    scratch: Vec<f64>,
}

impl Factorization {
    /// Factorizes the basis given by `basic` (one matrix column per row).
    /// Returns `None` when the basis is numerically singular.
    pub fn factorize(matrix: &CscMatrix, basic: &[usize]) -> Option<Factorization> {
        let m = matrix.n_rows();
        debug_assert_eq!(basic.len(), m);

        // Process sparse columns first: with mostly-logical bases this keeps
        // the factors near the identity and minimises fill.
        let mut col_order: Vec<usize> = (0..m).collect();
        col_order.sort_by_key(|&p| (matrix.col_nnz(basic[p]), p));

        let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_diag: Vec<f64> = Vec::with_capacity(m);
        let mut pivot_row: Vec<usize> = Vec::with_capacity(m);
        let mut row_pos = vec![usize::MAX; m];
        // Dense row-space work vector; all zero between steps.
        let mut x = vec![0.0f64; m];
        // `mark[r] == k + 1` once step `k` has reached row `r`: queued its
        // position in `reach` (pivoted rows) or listed it in `fill`.
        let mut mark = vec![0usize; m];
        // Unpivoted rows step `k` made nonzero, in first-touch order.
        let mut fill: Vec<usize> = Vec::new();
        // Factored positions step `k` reached, popped smallest first.
        let mut reach: BinaryHeap<Reverse<usize>> = BinaryHeap::new();

        for k in 0..m {
            let stamp = k + 1;
            // Scatter the next basis column into dense row space.
            for (r, v) in matrix.col(basic[col_order[k]]) {
                x[r] = v;
                if mark[r] != stamp {
                    mark[r] = stamp;
                    match row_pos[r] {
                        usize::MAX => fill.push(r),
                        j => reach.push(Reverse(j)),
                    }
                }
            }
            // Forward solve through the factored positions the column
            // reaches. L column `j` only holds rows pivoted after step `j`,
            // so increasing position order is a topological order and every
            // row sees its subtractions in the same order as a dense sweep
            // over `0..k` would apply them.
            let mut u_col: Vec<(usize, f64)> = Vec::new();
            while let Some(Reverse(j)) = reach.pop() {
                // Nothing after step `j` writes its pivot row: read and clear.
                let zj = std::mem::take(&mut x[pivot_row[j]]);
                if zj == 0.0 {
                    continue;
                }
                u_col.push((j, zj));
                for &(r, v) in &l_cols[j] {
                    if mark[r] != stamp {
                        if row_pos[r] != usize::MAX {
                            mark[r] = stamp;
                            reach.push(Reverse(row_pos[r]));
                        } else if v * zj != 0.0 {
                            mark[r] = stamp;
                            fill.push(r);
                        }
                    }
                    x[r] -= zj * v;
                }
            }
            // Partial pivoting over the not-yet-pivoted rows: the largest
            // magnitude, ties to the smallest row index. Rows outside `fill`
            // are zero; the scan keeps the dense reference's first-touch
            // order, so even a NaN entry selects the same pivot.
            let mut best: Option<f64> = None;
            for &r in &fill {
                let mag = x[r].abs();
                if best.is_none_or(|b| mag > b) {
                    best = Some(mag);
                }
            }
            let pr = best
                .filter(|&b| b > 1e-11)
                .and_then(|b| fill.iter().copied().filter(|&r| x[r].abs() == b).min())?;
            let diag = x[pr];
            // L entries in ascending row order: BTRAN accumulates in it.
            fill.sort_unstable();
            let l_col: Vec<(usize, f64)> = fill
                .iter()
                .filter(|&&r| r != pr && x[r] != 0.0)
                .map(|&r| (r, x[r] / diag))
                .collect();
            for &r in &fill {
                x[r] = 0.0;
            }
            fill.clear();
            row_pos[pr] = k;
            pivot_row.push(pr);
            u_diag.push(diag);
            u_cols.push(u_col);
            l_cols.push(l_col);
        }

        let lu = LuFactors { l_cols, u_cols, u_diag, pivot_row, row_pos, col_order };
        Some(Factorization { m, lu, etas: Vec::new(), scratch: vec![0.0; m] })
    }

    /// Number of eta updates accumulated since the last refactorization.
    pub fn n_etas(&self) -> usize {
        self.etas.len()
    }

    /// Solves `B x = b`. On input `x[row]` holds the right-hand side by
    /// original row; on output `x[pos]` holds the solution by basis position.
    pub fn ftran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        let lu = &self.lu;
        // Forward: L z = P b (z by factored position, stored in scratch).
        for j in 0..self.m {
            let zj = x[lu.pivot_row[j]];
            if zj != 0.0 {
                for &(r, v) in &lu.l_cols[j] {
                    x[r] -= zj * v;
                }
            }
            self.scratch[j] = zj;
        }
        // Backward: U w = z (in place on scratch).
        for k in (0..self.m).rev() {
            let wk = self.scratch[k] / lu.u_diag[k];
            self.scratch[k] = wk;
            if wk != 0.0 {
                for &(i, v) in &lu.u_cols[k] {
                    self.scratch[i] -= v * wk;
                }
            }
        }
        // Permute back to basis-position space.
        for k in 0..self.m {
            x[lu.col_order[k]] = self.scratch[k];
        }
        // Apply the eta file, oldest first.
        for eta in &self.etas {
            let t = x[eta.r] / eta.diag;
            if t != 0.0 {
                for &(i, v) in &eta.col {
                    x[i] -= v * t;
                }
            }
            x[eta.r] = t;
        }
    }

    /// Solves `Bᵀ y = c`. On input `x[pos]` holds the cost by basis position;
    /// on output `x[row]` holds the solution by original row.
    pub fn btran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        // Apply the eta file transposed, newest first.
        for eta in self.etas.iter().rev() {
            let mut acc = x[eta.r];
            for &(i, v) in &eta.col {
                acc -= v * x[i];
            }
            x[eta.r] = acc / eta.diag;
        }
        let lu = &self.lu;
        // Permute into factored-column space.
        for k in 0..self.m {
            self.scratch[k] = x[lu.col_order[k]];
        }
        // Forward: Uᵀ w = c' (Uᵀ is lower triangular).
        for k in 0..self.m {
            let mut acc = self.scratch[k];
            for &(i, v) in &lu.u_cols[k] {
                acc -= v * self.scratch[i];
            }
            self.scratch[k] = acc / lu.u_diag[k];
        }
        // Backward: Lᵀ z = w; entries of L column j live on rows pivoted
        // after step j, so their positions are all `> j`.
        for j in (0..self.m).rev() {
            let mut acc = self.scratch[j];
            for &(r, v) in &lu.l_cols[j] {
                acc -= v * self.scratch[lu.row_pos[r]];
            }
            self.scratch[j] = acc;
        }
        // Undo the row permutation: y[pivot_row[j]] = z_j.
        for j in 0..self.m {
            x[lu.pivot_row[j]] = self.scratch[j];
        }
    }

    /// Records a basis change: position `r` is replaced by a column whose
    /// FTRAN image is `alpha` (dense, basis-position space). Returns `false`
    /// when the eta pivot is below [`crate::tol::PIVOT`] or too small relative
    /// to `alpha` for a stable update, in which case the caller must
    /// refactorize instead.
    pub fn update(&mut self, r: usize, alpha: &[f64]) -> bool {
        debug_assert_eq!(alpha.len(), self.m);
        let diag = alpha[r];
        let max = alpha.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        if diag.abs() < crate::tol::PIVOT || diag.abs() < 1e-8 * max {
            return false;
        }
        // Entries below the drop tolerance are noise from earlier eta
        // applications; keeping them would densify the file. The induced
        // error is bounded by the refactorization interval.
        let col: Vec<(usize, f64)> = alpha
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != r && v.abs() > 1e-12)
            .map(|(i, &v)| (i, v))
            .collect();
        self.etas.push(Eta { r, col, diag });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The dense-scan left-looking LU that [`Factorization::factorize`]
    /// replaced: every step sweeps all earlier positions in the forward
    /// solve and all `m` rows for the pivot and the L column. Kept as the
    /// reference the reach-driven version must match bit for bit.
    fn reference_factorize(matrix: &CscMatrix, basic: &[usize]) -> Option<LuFactors> {
        let m = matrix.n_rows();
        debug_assert_eq!(basic.len(), m);

        // Process sparse columns first: with mostly-logical bases this keeps
        // the factors near the identity and minimises fill.
        let mut col_order: Vec<usize> = (0..m).collect();
        col_order.sort_by_key(|&p| (matrix.col_nnz(basic[p]), p));

        let mut l_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut u_diag: Vec<f64> = Vec::with_capacity(m);
        let mut pivot_row: Vec<usize> = Vec::with_capacity(m);
        let mut row_pos = vec![usize::MAX; m];
        let mut x = vec![0.0f64; m];
        let mut touched: Vec<usize> = Vec::with_capacity(m);

        for k in 0..m {
            // Scatter the next basis column into dense row space.
            for &t in &touched {
                x[t] = 0.0;
            }
            touched.clear();
            for (r, v) in matrix.col(basic[col_order[k]]) {
                x[r] = v;
                touched.push(r);
            }
            // Forward solve through the columns factored so far.
            let mut u_col: Vec<(usize, f64)> = Vec::new();
            for j in 0..k {
                let zj = x[pivot_row[j]];
                if zj == 0.0 {
                    continue;
                }
                u_col.push((j, zj));
                for &(r, v) in &l_cols[j] {
                    if x[r] == 0.0 && v * zj != 0.0 {
                        touched.push(r);
                    }
                    x[r] -= zj * v;
                }
            }
            // Partial pivoting over the not-yet-pivoted rows.
            let mut best: Option<(usize, f64)> = None;
            for &r in touched.iter() {
                if row_pos[r] != usize::MAX {
                    continue;
                }
                let mag = x[r].abs();
                if best.is_none_or(|(_, b)| mag > b) {
                    best = Some((r, mag));
                }
            }
            // `touched` can contain duplicates; rescan deterministically for
            // the actual argmax by row index on ties.
            let mut pivot: Option<usize> = None;
            if let Some((_, best_mag)) = best {
                if best_mag > 1e-11 {
                    for r in 0..m {
                        if row_pos[r] == usize::MAX && x[r].abs() == best_mag {
                            pivot = Some(r);
                            break;
                        }
                    }
                }
            }
            let pr = pivot?;
            let diag = x[pr];
            let mut l_col: Vec<(usize, f64)> = Vec::new();
            for r in 0..m {
                if r != pr && row_pos[r] == usize::MAX && x[r] != 0.0 {
                    l_col.push((r, x[r] / diag));
                }
            }
            row_pos[pr] = k;
            pivot_row.push(pr);
            u_diag.push(diag);
            u_cols.push(u_col);
            l_cols.push(l_col);
        }

        Some(LuFactors { l_cols, u_cols, u_diag, pivot_row, row_pos, col_order })
    }

    /// splitmix64, so one `u64` seed yields a whole test matrix.
    struct Rng64(u64);

    impl Rng64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform index in `0..n`.
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A random `m x (n + m)` matrix shaped like `StandardForm`'s — sparse
    /// structural columns (some repeating an earlier one, some empty), then
    /// a logical identity block — and a shuffled basis mixing structural and
    /// logical columns. With `singular`, the basis holds one structural
    /// column twice.
    fn random_basis(seed: u64, m: usize, n: usize, singular: bool) -> (CscMatrix, Vec<usize>) {
        let mut rng = Rng64(seed);
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        for j in 0..n {
            let col = if j > 0 && rng.below(8) == 0 {
                cols[rng.below(j)].clone()
            } else {
                let mut col = Vec::new();
                for r in 0..m {
                    if rng.below(4) == 0 {
                        // Few magnitudes, so pivot ties are common; some
                        // are inexact in binary, so rounding shows.
                        let mag = [1.0, 1.0, 2.0, 0.5, 3.0, 1.0 / 3.0, 5.0 / 7.0, 9.0 / 7.0];
                        let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                        col.push((r, sign * mag[rng.below(mag.len())]));
                    }
                }
                col
            };
            cols.push(col);
        }
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                rows[r].push((j, v));
            }
        }
        for (i, row) in rows.iter_mut().enumerate() {
            row.push((n + i, 1.0));
        }
        let matrix = CscMatrix::from_rows(m, n + m, &rows);

        // Partial Fisher-Yates shuffles pick distinct structurals and fill
        // the remaining positions with distinct logicals.
        let mut structurals: Vec<usize> = (0..n).collect();
        let n_struct = rng.below(n.min(m) + 1);
        for i in 0..n_struct {
            let k = i + rng.below(n - i);
            structurals.swap(i, k);
        }
        let mut basic: Vec<usize> = structurals[..n_struct].to_vec();
        let mut logicals: Vec<usize> = (n..n + m).collect();
        for i in 0..m - n_struct {
            let k = i + rng.below(m - i);
            logicals.swap(i, k);
        }
        basic.extend_from_slice(&logicals[..m - n_struct]);
        if singular && m >= 2 {
            basic[0] = rng.below(n);
            basic[1] = basic[0];
        }
        for i in (1..m).rev() {
            basic.swap(i, rng.below(i + 1));
        }
        (matrix, basic)
    }

    /// The basis as a dense `m x m` matrix: `B[i][k] = A[i][basic[k]]`.
    fn dense_basis(matrix: &CscMatrix, basic: &[usize]) -> Vec<Vec<f64>> {
        let m = basic.len();
        let mut b = vec![vec![0.0; m]; m];
        for (k, &j) in basic.iter().enumerate() {
            for (r, v) in matrix.col(j) {
                b[r][k] = v;
            }
        }
        b
    }

    fn assert_close(got: &[f64], want: &[f64]) -> Result<(), TestCaseError> {
        let scale = want.iter().fold(1.0f64, |a, v| a.max(v.abs()));
        for (g, w) in got.iter().zip(want) {
            prop_assert!((g - w).abs() <= 1e-7 * scale, "{:?} vs {:?}", got, want);
        }
        Ok(())
    }

    proptest! {
        /// The reach-driven LU returns the dense-scan reference's factors
        /// bit for bit, fails on the same singular bases, and its FTRAN and
        /// BTRAN solve the basis.
        #[test]
        fn sparse_lu_matches_the_dense_scan_reference(
            m in 1usize..40,
            n in 1usize..40,
            seed in any::<u64>(),
            singular in any::<bool>(),
        ) {
            let (matrix, basic) = random_basis(seed, m, n, singular);
            let fact = Factorization::factorize(&matrix, &basic);
            let reference = reference_factorize(&matrix, &basic);
            prop_assert_eq!(fact.as_ref().map(|f| &f.lu), reference.as_ref());
            prop_assert!(!(singular && m >= 2 && fact.is_some()), "a repeated column factorized");
            let Some(mut fact) = fact else { return Ok(()) };

            let b = dense_basis(&matrix, &basic);
            let mut rng = Rng64(seed ^ 0x5eed);
            let rhs: Vec<f64> = (0..m).map(|_| rng.below(19) as f64 - 9.0).collect();
            let mut x = rhs.clone();
            fact.ftran(&mut x);
            assert_close(&x, &dense_solve(&b, &rhs))?;
            let bt: Vec<Vec<f64>> = (0..m).map(|i| (0..m).map(|k| b[k][i]).collect()).collect();
            let mut y = rhs.clone();
            fact.btran(&mut y);
            assert_close(&y, &dense_solve(&bt, &rhs))?;
        }
    }

    /// Dense reference solve of `M x = b` by Gaussian elimination.
    #[allow(clippy::needless_range_loop)] // permuted 2-D index math
    fn dense_solve(m: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut a: Vec<Vec<f64>> = m.to_vec();
        let mut x = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let p = (k..n)
                .max_by(|&i, &j| a[perm[i]][k].abs().total_cmp(&a[perm[j]][k].abs()))
                .unwrap();
            perm.swap(k, p);
            for i in (k + 1)..n {
                let f = a[perm[i]][k] / a[perm[k]][k];
                for j in k..n {
                    let v = a[perm[k]][j];
                    a[perm[i]][j] -= f * v;
                }
                x[perm[i]] -= f * x[perm[k]];
            }
        }
        let mut out = vec![0.0; n];
        for k in (0..n).rev() {
            let mut acc = x[perm[k]];
            for j in (k + 1)..n {
                acc -= a[perm[k]][j] * out[j];
            }
            out[k] = acc / a[perm[k]][k];
        }
        out
    }

    fn matrix_3x3() -> (CscMatrix, Vec<Vec<f64>>) {
        // Columns 0..3 of a 3x3 basis:
        //   [ 2 1 0 ]
        //   [ 0 3 1 ]
        //   [ 4 0 5 ]
        let rows =
            vec![vec![(0, 2.0), (1, 1.0)], vec![(1, 3.0), (2, 1.0)], vec![(0, 4.0), (2, 5.0)]];
        let dense = vec![vec![2.0, 1.0, 0.0], vec![0.0, 3.0, 1.0], vec![4.0, 0.0, 5.0]];
        (CscMatrix::from_rows(3, 3, &rows), dense)
    }

    #[test]
    fn ftran_matches_dense_solve() {
        let (csc, dense) = matrix_3x3();
        let mut f = Factorization::factorize(&csc, &[0, 1, 2]).unwrap();
        let b = vec![1.0, -2.0, 3.0];
        let mut x = b.clone();
        f.ftran(&mut x);
        let want = dense_solve(&dense, &b);
        for (got, want) in x.iter().zip(want.iter()) {
            assert!((got - want).abs() < 1e-10, "{x:?} vs {want:?}");
        }
    }

    #[test]
    fn btran_matches_dense_transpose_solve() {
        let (csc, dense) = matrix_3x3();
        let mut f = Factorization::factorize(&csc, &[0, 1, 2]).unwrap();
        let c = vec![0.5, 2.0, -1.0];
        let mut y = c.clone();
        f.btran(&mut y);
        // Solve Mᵀ y = c densely.
        let t: Vec<Vec<f64>> = (0..3).map(|i| (0..3).map(|j| dense[j][i]).collect()).collect();
        let want = dense_solve(&t, &c);
        for (got, want) in y.iter().zip(want.iter()) {
            assert!((got - want).abs() < 1e-10, "{y:?} vs {want:?}");
        }
    }

    #[test]
    fn permuted_basis_columns_are_handled() {
        let (csc, dense) = matrix_3x3();
        // Basis picks columns in order [2, 0, 1]: B[:, k] = M[:, basic[k]].
        let basic = [2usize, 0, 1];
        let mut f = Factorization::factorize(&csc, &basic).unwrap();
        let b = vec![1.0, 1.0, 1.0];
        let mut x = b.clone();
        f.ftran(&mut x);
        let bd: Vec<Vec<f64>> =
            (0..3).map(|i| basic.iter().map(|&j| dense[i][j]).collect()).collect();
        let want = dense_solve(&bd, &b);
        for (got, want) in x.iter().zip(want.iter()) {
            assert!((got - want).abs() < 1e-10, "{x:?} vs {want:?}");
        }
    }

    #[test]
    fn eta_update_tracks_column_replacement() {
        let (csc, dense) = matrix_3x3();
        let mut f = Factorization::factorize(&csc, &[0, 1, 2]).unwrap();
        // Replace basis position 1 with a new column a = [1, 1, 1].
        let a = vec![1.0, 1.0, 1.0];
        let mut alpha = a.clone();
        f.ftran(&mut alpha);
        assert!(f.update(1, &alpha));
        assert_eq!(f.n_etas(), 1);
        // New basis: columns [M0, a, M2].
        let nb: Vec<Vec<f64>> = (0..3).map(|i| vec![dense[i][0], a[i], dense[i][2]]).collect();
        let b = vec![2.0, 0.0, -1.0];
        let mut x = b.clone();
        f.ftran(&mut x);
        let want = dense_solve(&nb, &b);
        for (got, want) in x.iter().zip(want.iter()) {
            assert!((got - want).abs() < 1e-9, "{x:?} vs {want:?}");
        }
        // BTRAN against the same updated basis.
        let c = vec![1.0, 2.0, 3.0];
        let mut y = c.clone();
        f.btran(&mut y);
        let nt: Vec<Vec<f64>> = (0..3).map(|i| (0..3).map(|j| nb[j][i]).collect()).collect();
        let want = dense_solve(&nt, &c);
        for (got, want) in y.iter().zip(want.iter()) {
            assert!((got - want).abs() < 1e-9, "{y:?} vs {want:?}");
        }
    }

    #[test]
    fn singular_basis_is_rejected() {
        // Two identical columns.
        let rows = vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 2.0), (1, 2.0)]];
        let csc = CscMatrix::from_rows(2, 2, &rows);
        assert!(Factorization::factorize(&csc, &[0, 1]).is_none());
    }
}
