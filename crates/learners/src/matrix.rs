//! A minimal dense, row-major `f64` matrix with just the linear algebra the
//! reproduction needs: products, transposes, and solving small linear
//! systems (normal equations, influence-function Hessians).

use crate::error::LearnError;
use crate::Result;

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix from row-major data; `data.len()` must equal
    /// `rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LearnError::DimensionMismatch {
                detail: format!(
                    "{rows}x{cols} matrix needs {} values, got {}",
                    rows * cols,
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// A matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from rows; all rows must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let n = rows.len();
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LearnError::DimensionMismatch {
                    detail: format!("ragged rows: expected {cols}, got {}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: n,
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The element at (`i`, `j`).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Sets the element at (`i`, `j`).
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Underlying row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Gathers the given rows into a new matrix.
    pub fn take_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Matrix–vector product.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LearnError::DimensionMismatch {
                detail: format!("matvec: {} cols vs vector of {}", self.cols, v.len()),
            });
        }
        Ok((0..self.rows).map(|i| dot(self.row(i), v)).collect())
    }

    /// Matrix–matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LearnError::DimensionMismatch {
                detail: format!(
                    "matmul: {}x{} * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.get(k, j);
                }
            }
        }
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Gram matrix `Xᵀ X`.
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let a = row[i];
                if a == 0.0 {
                    continue;
                }
                for (j, &rj) in row.iter().enumerate().skip(i) {
                    out.data[i * self.cols + j] += a * rj;
                }
            }
        }
        for i in 0..self.cols {
            for j in 0..i {
                out.data[i * self.cols + j] = out.data[j * self.cols + i];
            }
        }
        out
    }

    /// Solves `self * x = b` by Gaussian elimination with partial pivoting.
    /// `self` must be square; returns [`LearnError::SingularMatrix`] when no
    /// unique solution exists.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if self.rows != self.cols {
            return Err(LearnError::DimensionMismatch {
                detail: format!(
                    "solve needs a square matrix, got {}x{}",
                    self.rows, self.cols
                ),
            });
        }
        if b.len() != self.rows {
            return Err(LearnError::DimensionMismatch {
                detail: format!("solve: {} rows vs rhs of {}", self.rows, b.len()),
            });
        }
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot.
            let pivot = (col..n)
                .max_by(|&i, &j| a[i * n + col].abs().total_cmp(&a[j * n + col].abs()))
                .expect("non-empty range");
            if a[pivot * n + col].abs() < 1e-12 {
                return Err(LearnError::SingularMatrix);
            }
            if pivot != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot * n + j);
                }
                x.swap(col, pivot);
            }
            let diag = a[col * n + col];
            for i in (col + 1)..n {
                let factor = a[i * n + col] / diag;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[i * n + j] -= factor * a[col * n + j];
                }
                x[i] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            x[col] /= a[col * n + col];
            for i in 0..col {
                x[i] -= a[i * n + col] * x[col];
            }
        }
        Ok(x)
    }

    /// Adds `lambda` to the diagonal (ridge regularization) in place.
    pub fn add_ridge(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.data[i * self.cols + i] += lambda;
        }
    }
}

/// Dot product of equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between equal-length slices.
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Fills `keys` with `(sq_dist(rows.row(i), query), i)` for every row and
/// sorts it ascending by distance (`f64::total_cmp`), ties broken by row
/// index. Each distance is computed once, and because the index makes every
/// key unique the order equals that of a stable sort by the same
/// comparator, NaN placement included. `keys` is a caller-owned buffer so
/// loops over many queries reuse one allocation.
pub fn sort_by_distance(rows: &Matrix, query: &[f64], keys: &mut Vec<(f64, u32)>) {
    keys.clear();
    keys.extend((0..rows.nrows()).map(|i| (sq_dist(rows.row(i), query), i as u32)));
    keys.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_checks_dims() {
        assert!(Matrix::new(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::new(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn matvec_and_matmul() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(m.matvec(&[1.0]).is_err());
        let p = m.matmul(&Matrix::identity(2)).unwrap();
        assert_eq!(p, m);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn gram_is_xtx() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let g = m.gram();
        let expected = m.transpose().matmul(&m).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((g.get(i, j) - expected.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_recovers_solution() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let x = vec![0.5, -1.5];
        let b = a.matvec(&x).unwrap();
        let solved = a.solve(&b).unwrap();
        for (s, e) in solved.iter().zip(&x) {
            assert!((s - e).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the initial diagonal; solvable only with row swaps.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let sol = a.solve(&[2.0, 3.0]).unwrap();
        assert!((sol[0] - 3.0).abs() < 1e-12);
        assert!((sol[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(a.solve(&[1.0, 2.0]), Err(LearnError::SingularMatrix));
    }

    #[test]
    fn ridge_makes_singular_solvable() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        a.add_ridge(0.1);
        assert!(a.solve(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn take_rows_gathers() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let t = m.take_rows(&[2, 0]);
        assert_eq!(t.row(0), &[3.0]);
        assert_eq!(t.row(1), &[1.0]);
    }

    #[test]
    fn helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn sort_by_distance_breaks_ties_by_index() {
        let m = Matrix::from_rows(&[vec![2.0], vec![-1.0], vec![1.0], vec![f64::NAN], vec![0.0]])
            .unwrap();
        let mut keys = vec![(9.0, 9)];
        sort_by_distance(&m, &[0.0], &mut keys);
        let order: Vec<u32> = keys.iter().map(|&(_, i)| i).collect();
        // 0 < 1 = 1 < 4 < NaN (total_cmp puts positive NaN last).
        assert_eq!(order, vec![4, 1, 2, 0, 3]);
        assert_eq!(keys[0].0, 0.0);
    }
}
