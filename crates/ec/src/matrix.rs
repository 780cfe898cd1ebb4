//! Dense matrices over GF(2⁸), used by the general Reed-Solomon codec.

use std::fmt;

use crate::gf256;

/// A row-major dense matrix over GF(2⁸).
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// Creates a matrix from rows of equal length.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    pub(crate) fn from_rows(rows: &[Vec<u8>]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        let mut m = Matrix::zero(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "ragged matrix rows");
            m.data[r * cols..(r + 1) * cols].copy_from_slice(row);
        }
        m
    }

    /// Element accessor.
    pub(crate) fn get(&self, r: usize, c: usize) -> u8 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    fn set(&mut self, r: usize, c: usize, v: u8) {
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r`.
    pub(crate) fn row(&self, r: usize) -> &[u8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × rhs`: the tests check [`Matrix::inverse`]
    /// with it.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    #[cfg(test)]
    fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matrix product");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == 0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    let v = gf256::mul(a, rhs.get(k, c));
                    out.set(r, c, out.get(r, c) ^ v);
                }
            }
        }
        out
    }

    /// Inverts a square matrix by Gauss–Jordan elimination.
    ///
    /// Returns `None` if the matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub(crate) fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "only square matrices invert");
        let n = self.rows;
        let mut work = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot.
            let pivot = (col..n).find(|&r| work.get(r, col) != 0)?;
            if pivot != col {
                work.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            let scale = gf256::inv(work.get(col, col));
            work.scale_row(col, scale);
            inv.scale_row(col, scale);
            for r in 0..n {
                if r != col {
                    let factor = work.get(r, col);
                    if factor != 0 {
                        work.add_scaled_row(r, col, factor);
                        inv.add_scaled_row(r, col, factor);
                    }
                }
            }
        }
        Some(inv)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            let (va, vb) = (self.get(a, c), self.get(b, c));
            self.set(a, c, vb);
            self.set(b, c, va);
        }
    }

    fn scale_row(&mut self, r: usize, by: u8) {
        for c in 0..self.cols {
            self.set(r, c, gf256::mul(self.get(r, c), by));
        }
    }

    /// `row[dst] ^= factor * row[src]`
    fn add_scaled_row(&mut self, dst: usize, src: usize, factor: u8) {
        for c in 0..self.cols {
            let v = gf256::mul(self.get(src, c), factor);
            self.set(dst, c, self.get(dst, c) ^ v);
        }
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:02x?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let m = Matrix::from_rows(&[vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]]);
        let i = Matrix::identity(3);
        assert_eq!(m.mul(&i), m);
        assert_eq!(i.mul(&m), m);
    }

    #[test]
    fn inverse_roundtrip() {
        // A Vandermonde matrix over distinct points is invertible.
        let rows: Vec<Vec<u8>> = (0..4u8)
            .map(|r| {
                (0..4)
                    .map(|c| gf256::mul(1, gf256::exp((r as usize) * c)))
                    .collect()
            })
            .collect();
        let m = Matrix::from_rows(&rows);
        let inv = m.inverse().expect("vandermonde is invertible");
        assert_eq!(m.mul(&inv), Matrix::identity(4));
        assert_eq!(inv.mul(&m), Matrix::identity(4));
    }

    #[test]
    fn singular_matrix_detected() {
        let m = Matrix::from_rows(&[vec![1, 2], vec![1, 2]]);
        assert!(m.inverse().is_none());
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let m = Matrix::from_rows(&[vec![0, 1], vec![1, 0]]);
        let inv = m.inverse().expect("permutation matrix inverts");
        assert_eq!(m.mul(&inv), Matrix::identity(2));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn product_dimension_checked() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 3);
        let _ = a.mul(&b);
    }
}
