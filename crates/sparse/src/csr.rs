//! Compressed sparse row (CSR) format.

use crate::{Csc, Permutation, Result, SparseError};

/// A sparse matrix in compressed-sparse-row form.
///
/// Within each row, column indices are strictly increasing. This is the
/// workhorse format of the workspace: the reference kernels
/// (`azul-solver`), the analyses ([`crate::levels`]) and the accelerator
/// mapping pipeline all consume `Csr`.
///
/// # Example
///
/// ```
/// use azul_sparse::Coo;
///
/// let a = Coo::from_triplets(2, 2, [(0, 0, 2.0), (1, 0, 1.0), (1, 1, 2.0)])?.to_csr();
/// let y = a.spmv(&[1.0, 1.0]);
/// assert_eq!(y, vec![2.0, 3.0]);
/// # Ok::<(), azul_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl Csr {
    /// Builds a CSR matrix from raw arrays.
    ///
    /// # Errors
    ///
    /// Returns an error if the arrays are inconsistent: `row_ptr` must have
    /// `rows + 1` monotonically non-decreasing entries ending at
    /// `col_idx.len()`, `col_idx` and `values` must have equal length, column
    /// indices must be in-bounds and strictly increasing within each row.
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != rows + 1 {
            return Err(SparseError::Parse(format!(
                "row_ptr length {} != rows+1 = {}",
                row_ptr.len(),
                rows + 1
            )));
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::Parse(format!(
                "col_idx length {} != values length {}",
                col_idx.len(),
                values.len()
            )));
        }
        // azul-lint: allow(unwrap-in-pipeline) row_ptr length was checked as rows + 1 above
        if row_ptr[0] != 0 || *row_ptr.last().unwrap() != col_idx.len() {
            return Err(SparseError::Parse(
                "row_ptr must start at 0 and end at nnz".into(),
            ));
        }
        for r in 0..rows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(SparseError::Parse(format!("row_ptr decreases at row {r}")));
            }
            let mut prev: Option<usize> = None;
            for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
                if c >= cols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r,
                        col: c,
                        rows,
                        cols,
                    });
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(SparseError::Parse(format!(
                            "columns not strictly increasing in row {r}"
                        )));
                    }
                }
                prev = Some(c);
            }
        }
        Ok(Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// An empty (all-zero) matrix of the given shape.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Csr {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        Csr {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros (explicit zeros included).
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The row-pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array (`nnz` entries).
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The value array (`nnz` entries).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the value array (sparsity pattern is fixed).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The `(col, value)` pairs of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Number of stored entries in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// The stored value at `(r, c)`, or `0.0` if the entry is not stored.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        match self.col_idx[lo..hi].binary_search(&c) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over all stored entries as `(row, col, value)` in row-major
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }

    /// Sparse matrix-vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "spmv operand length mismatch");
        let mut y = vec![0.0; self.rows];
        self.spmv_into(x, &mut y);
        y
    }

    /// Sparse matrix-vector product into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if operand lengths do not match the matrix shape.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "spmv operand length mismatch");
        assert_eq!(y.len(), self.rows, "spmv output length mismatch");
        // Each row's `row_ptr` range of the entry arrays, sliced once per
        // row: the summation order is the row's column order, as through
        // `row`, and only `x` is bounds-checked per entry.
        let (ptr, cols, vals) = (&self.row_ptr, &self.col_idx, &self.values);
        for (r, out) in y.iter_mut().enumerate() {
            let (lo, hi) = (ptr[r], ptr[r + 1]);
            let mut acc = 0.0;
            for (&c, &v) in cols[lo..hi].iter().zip(&vals[lo..hi]) {
                acc += v * x[c];
            }
            *out = acc;
        }
    }

    /// Transpose of the matrix.
    pub fn transpose(&self) -> Csr {
        let mut cnt = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            cnt[c + 1] += 1;
        }
        for i in 0..self.cols {
            cnt[i + 1] += cnt[i];
        }
        let nnz = self.nnz();
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut next = cnt.clone();
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                let pos = next[c];
                next[c] += 1;
                col_idx[pos] = r;
                values[pos] = v;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            row_ptr: cnt,
            col_idx,
            values,
        }
    }

    /// Converts to compressed-sparse-column form.
    pub fn to_csc(&self) -> Csc {
        let t = self.transpose();
        Csc::from_transposed_csr(t)
    }

    /// Whether `|A - A^T| <= tol` element-wise (pattern and values).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            return false;
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// The main diagonal as a dense vector (missing entries are `0.0`).
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Lower triangle including the diagonal.
    pub fn lower_triangle(&self) -> Csr {
        self.filter(|r, c| c <= r)
    }

    /// Strictly lower triangle (diagonal excluded).
    pub fn strict_lower_triangle(&self) -> Csr {
        self.filter(|r, c| c < r)
    }

    /// Upper triangle including the diagonal.
    pub fn upper_triangle(&self) -> Csr {
        self.filter(|r, c| c >= r)
    }

    /// Keeps only entries for which `keep(row, col)` is true.
    pub fn filter(&self, mut keep: impl FnMut(usize, usize) -> bool) -> Csr {
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                if keep(r, c) {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Symmetric permutation `P A P^T`: entry `(i, j)` moves to
    /// `(perm.new_of(i), perm.new_of(j))`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or the permutation length differs
    /// from the dimension.
    pub fn permute_symmetric(&self, perm: &Permutation) -> Csr {
        assert_eq!(
            self.rows, self.cols,
            "symmetric permutation needs square matrix"
        );
        assert_eq!(perm.len(), self.rows, "permutation length mismatch");
        let mut coo = crate::Coo::with_capacity(self.rows, self.cols, self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(perm.new_of(r), perm.new_of(c), v)
                // azul-lint: allow(unwrap-in-pipeline) a permutation maps 0..n onto 0..n, bounds hold
                .expect("permutation preserves bounds");
        }
        coo.to_csr()
    }

    /// Memory footprint of the matrix in a compressed 96-bit-per-nonzero
    /// representation (64-bit value + 32-bit metadata), as Azul stores it
    /// (Table IV reports these footprints in MB).
    pub fn footprint_bytes(&self) -> usize {
        self.nnz() * 12 + (self.rows + 1) * 4
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Infinity norm (max absolute row sum).
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|r| self.row(r).map(|(_, v)| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }
}

/// The SpMV loop before it sliced each row's range once: through the
/// zipped `row` iterator. Kept as the oracle `spmv_into` must match bit
/// for bit.
#[cfg(test)]
fn reference_spmv(a: &Csr, x: &[f64]) -> Vec<f64> {
    (0..a.rows())
        .map(|r| {
            let mut acc = 0.0;
            for (c, v) in a.row(r) {
                acc += v * x[c];
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;
    use proptest::prelude::*;

    fn sample() -> Csr {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        Coo::from_triplets(
            3,
            3,
            [
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
            ],
        )
        .unwrap()
        .to_csr()
    }

    #[test]
    fn raw_parts_validation() {
        assert!(Csr::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
        // wrong row_ptr len
        assert!(Csr::from_raw_parts(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]).is_err());
        // decreasing row_ptr
        assert!(Csr::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
        // out-of-bounds column
        assert!(Csr::from_raw_parts(2, 2, vec![0, 1, 2], vec![0, 5], vec![1.0, 2.0]).is_err());
        // duplicate column in row
        assert!(Csr::from_raw_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        // unsorted columns in row
        assert!(Csr::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let y = a.spmv(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![7.0, 6.0, 19.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = sample();
        let t = a.transpose();
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(0, 2), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn identity_spmv_is_noop() {
        let i = Csr::identity(4);
        let x = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(i.spmv(&x), x);
    }

    #[test]
    fn triangles_partition_entries() {
        let a = sample();
        let l = a.lower_triangle();
        let u = a.upper_triangle();
        let sl = a.strict_lower_triangle();
        // diag counted once in each of l and u
        assert_eq!(l.nnz() + u.nnz() - 3, a.nnz());
        assert_eq!(sl.nnz(), l.nnz() - 3);
        assert_eq!(l.get(2, 0), 4.0);
        assert_eq!(u.get(0, 2), 2.0);
        assert_eq!(sl.get(0, 0), 0.0);
    }

    #[test]
    fn symmetry_detection() {
        let mut coo = Coo::new(3, 3);
        coo.push_sym(0, 1, 2.0).unwrap();
        coo.push_sym(1, 2, -1.0).unwrap();
        for i in 0..3 {
            coo.push(i, i, 4.0).unwrap();
        }
        let a = coo.to_csr();
        assert!(a.is_symmetric(0.0));
        assert!(!sample().is_symmetric(0.0));
    }

    #[test]
    fn permute_symmetric_reverses() {
        let a = sample();
        let p = Permutation::from_new_order(vec![2, 1, 0]).unwrap();
        let b = a.permute_symmetric(&p);
        // (0,0)=1 moves to (2,2); (2,0)=4 moves to (0,2)
        assert_eq!(b.get(2, 2), 1.0);
        assert_eq!(b.get(0, 2), 4.0);
        assert_eq!(b.get(1, 1), 3.0);
        // permuting back restores
        assert_eq!(b.permute_symmetric(&p), a);
    }

    #[test]
    fn diagonal_and_norms() {
        let a = sample();
        assert_eq!(a.diagonal(), vec![1.0, 3.0, 5.0]);
        assert!((a.frobenius_norm() - (1.0f64 + 4.0 + 9.0 + 16.0 + 25.0).sqrt()).abs() < 1e-12);
        assert_eq!(a.inf_norm(), 9.0);
    }

    #[test]
    fn zero_matrix() {
        let z = Csr::zero(3, 2);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.spmv(&[1.0, 1.0]), vec![0.0; 3]);
    }

    #[test]
    fn footprint_accounts_values_and_metadata() {
        let a = sample();
        assert_eq!(a.footprint_bytes(), 5 * 12 + 4 * 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `spmv_into` matches the row-iterator loop bit for bit, on
        /// rectangular matrices with empty rows and operands and values
        /// that hold `0.0` and `-0.0`.
        #[test]
        fn spmv_matches_the_row_iterator_oracle_bit_for_bit(
            (a, x) in (1usize..=30, 1usize..=30).prop_flat_map(|(rows, cols)| {
                let value = (0usize..8, -3.0f64..3.0).prop_map(|(k, v)| match k {
                    0 => 0.0,
                    1 => -0.0,
                    _ => v,
                });
                (
                    proptest::collection::vec((0..rows, 0..cols, value.clone()), 0..rows * cols)
                        .prop_map(move |es| {
                            let mut coo = Coo::new(rows, cols);
                            for (r, c, v) in es {
                                coo.push(r, c, v).unwrap();
                            }
                            coo.to_csr()
                        }),
                    proptest::collection::vec(value, cols),
                )
            }),
        ) {
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            let mut y = vec![f64::NAN; a.rows()];
            a.spmv_into(&x, &mut y);
            prop_assert_eq!(bits(&y), bits(&reference_spmv(&a, &x)));
        }
    }
}
