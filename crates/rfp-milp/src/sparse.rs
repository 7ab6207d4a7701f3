//! Compressed sparse column (CSC) storage for the revised simplex.
//!
//! The constraint matrix of an LP relaxation is stored once in CSC form:
//! `col_ptr[j]..col_ptr[j+1]` delimits the `(row, value)` pairs of column
//! `j`. Column access serves pricing (`c_j - yᵀA_j` per column), FTRAN
//! (scattering one column) and the basis factorization. The row-major
//! side is the [`crate::simplex::StandardForm`]'s own sparse rows, which
//! the dual simplex walks to build its pivot row `ρᵀA`. Cut rows appended
//! at the root trigger a single O(nnz) rebuild, which is amortised across
//! the whole branch-and-bound tree.

/// A sparse matrix in compressed sparse column form.
#[derive(Debug, Clone)]
pub struct CscMatrix {
    n_rows: usize,
    n_cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a matrix from per-row sparse data (`rows[i]` lists the
    /// `(column, value)` pairs of row `i`).
    pub fn from_rows(n_rows: usize, n_cols: usize, rows: &[Vec<(usize, f64)>]) -> CscMatrix {
        debug_assert_eq!(rows.len(), n_rows);
        let mut counts = vec![0usize; n_cols + 1];
        for row in rows {
            for &(j, _) in row {
                debug_assert!(j < n_cols);
                counts[j + 1] += 1;
            }
        }
        for j in 0..n_cols {
            counts[j + 1] += counts[j];
        }
        let nnz = counts[n_cols];
        let col_ptr = counts.clone();
        let mut cursor = counts;
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        for (i, row) in rows.iter().enumerate() {
            for &(j, v) in row {
                let slot = cursor[j];
                row_idx[slot] = i;
                values[slot] = v;
                cursor[j] += 1;
            }
        }
        CscMatrix { n_rows, n_cols, col_ptr, row_idx, values }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(row, value)` pairs of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let range = self.col_ptr[j]..self.col_ptr[j + 1];
        self.row_idx[range.clone()].iter().copied().zip(self.values[range].iter().copied())
    }

    /// Number of non-zeros in column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Dot product of column `j` with a dense vector indexed by row.
    #[inline]
    pub fn col_dot(&self, j: usize, dense: &[f64]) -> f64 {
        let mut acc = 0.0;
        for k in self.col_ptr[j]..self.col_ptr[j + 1] {
            acc += self.values[k] * dense[self.row_idx[k]];
        }
        acc
    }

    /// Scatters `scale * column j` into a dense vector (`dense[r] += scale*v`).
    #[inline]
    pub fn col_axpy(&self, j: usize, scale: f64, dense: &mut [f64]) {
        for k in self.col_ptr[j]..self.col_ptr[j + 1] {
            dense[self.row_idx[k]] += scale * self.values[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [ 2 0 1 ]
        // [ 0 3 0 ]
        CscMatrix::from_rows(2, 3, &[vec![(0, 2.0), (2, 1.0)], vec![(1, 3.0)]])
    }

    #[test]
    fn construction_and_column_access() {
        let m = sample();
        assert_eq!((m.n_rows(), m.n_cols(), m.nnz()), (2, 3, 3));
        assert_eq!(m.col(0).collect::<Vec<_>>(), vec![(0, 2.0)]);
        assert_eq!(m.col(1).collect::<Vec<_>>(), vec![(1, 3.0)]);
        assert_eq!(m.col(2).collect::<Vec<_>>(), vec![(0, 1.0)]);
        assert_eq!(m.col_nnz(2), 1);
    }

    #[test]
    fn dot_and_axpy() {
        let m = sample();
        assert_eq!(m.col_dot(0, &[5.0, 7.0]), 10.0);
        assert_eq!(m.col_dot(1, &[5.0, 7.0]), 21.0);
        let mut acc = vec![1.0, 1.0];
        m.col_axpy(0, 2.0, &mut acc);
        assert_eq!(acc, vec![5.0, 1.0]);
    }

    #[test]
    fn empty_columns_are_allowed() {
        let m = CscMatrix::from_rows(2, 2, &[vec![(1, 4.0)], vec![]]);
        assert_eq!(m.col(0).count(), 0);
        assert_eq!(m.col(1).collect::<Vec<_>>(), vec![(0, 4.0)]);
    }
}
