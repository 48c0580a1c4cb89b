//! Incomplete Cholesky factorization with zero fill-in, IC(0).
//!
//! Produces a lower-triangular `L` with the sparsity pattern of `tril(A)`
//! such that `L L^T ≈ A`. This is the preconditioner used throughout the
//! paper's evaluation ("PCG with an incomplete-Cholesky preconditioner").

use crate::{Result, SolverError};
use azul_sparse::{Coo, Csr};

/// Computes the IC(0) factor of a symmetric positive-definite matrix.
///
/// If a pivot becomes non-positive (IC(0) can break down even on SPD
/// input), the factorization is retried on the diagonally shifted matrix
/// `A + alpha * diag(A)` with geometrically increasing `alpha` — the
/// standard Manteuffel shift strategy.
///
/// # Errors
///
/// Returns [`SolverError::Dimension`] for non-square input, and
/// [`SolverError::Breakdown`] if shifting up to `alpha = 1.0` still fails.
pub fn ic0(a: &Csr) -> Result<Csr> {
    if a.rows() != a.cols() {
        return Err(SolverError::Dimension(format!(
            "ic0 needs a square matrix, got {}x{}",
            a.rows(),
            a.cols()
        )));
    }
    let mut alpha = 0.0f64;
    loop {
        match ic0_attempt(a, alpha) {
            Ok(l) => return Ok(l),
            Err(_) if alpha < 1.0 => {
                alpha = if alpha == 0.0 { 1e-3 } else { alpha * 10.0 };
            }
            Err(e) => return Err(e),
        }
    }
}

/// One IC(0) attempt on `A + alpha * diag(A)`.
fn ic0_attempt(a: &Csr, alpha: f64) -> Result<Csr> {
    let n = a.rows();
    // The lower-triangle values, factored in place.
    let mut l = a.lower_triangle();
    let row_ptr = l.row_ptr().to_vec();
    let col_idx = l.col_idx().to_vec();
    if alpha > 0.0 {
        // Shift the diagonal.
        let vals = l.values_mut();
        for i in 0..n {
            for p in row_ptr[i]..row_ptr[i + 1] {
                if col_idx[p] == i {
                    vals[p] += a.get(i, i) * alpha;
                }
            }
        }
    }

    // Row-by-row up-looking factorization restricted to the pattern.
    // `pos[k]` is the position of `L[i][k]` while row `i` is factored
    // (`usize::MAX` off its pattern), so each `L[i][j]` walks row `j`
    // alone and adds the products in ascending `k`.
    let mut pos = vec![usize::MAX; n];
    let vals = l.values_mut();
    for i in 0..n {
        let row_lo = row_ptr[i];
        let row_hi = row_ptr[i + 1];
        if row_hi == row_lo || col_idx[row_hi - 1] != i {
            return Err(SolverError::Breakdown(format!(
                "missing diagonal entry in row {i}"
            )));
        }
        for p in row_lo..row_hi {
            pos[col_idx[p]] = p;
        }
        for p in row_lo..row_hi {
            let j = col_idx[p];
            // sum_{k < j} L[i][k] * L[j][k], over the pattern intersection.
            let mut s = 0.0;
            for pj in row_ptr[j]..row_ptr[j + 1] {
                let k = col_idx[pj];
                if k >= j {
                    break;
                }
                if pos[k] != usize::MAX {
                    s += vals[pos[k]] * vals[pj];
                }
            }
            if j < i {
                // Off-diagonal: L[i][j] = (A[i][j] - s) / L[j][j]; the
                // up-looking order has already finalized `L[j][j]`, the
                // last entry of row `j`.
                let djj = vals[row_ptr[j + 1] - 1];
                vals[p] = (vals[p] - s) / djj;
            } else {
                // Diagonal: L[i][i] = sqrt(A[i][i] - s)
                let d = vals[p] - s;
                if d <= 0.0 {
                    return Err(SolverError::Breakdown(format!(
                        "non-positive pivot {d:.3e} at row {i}"
                    )));
                }
                vals[p] = d.sqrt();
            }
        }
        for p in row_lo..row_hi {
            pos[col_idx[p]] = usize::MAX;
        }
    }
    Ok(l)
}

/// Builds the product `L L^T` (for testing the factorization quality).
pub fn llt(l: &Csr) -> Csr {
    let n = l.rows();
    let lt = l.transpose();
    let mut coo = Coo::new(n, n);
    // (L L^T)[i][j] = sum_k L[i][k] * L[j][k]; iterate over columns of L^T.
    for i in 0..n {
        let li: Vec<(usize, f64)> = l.row(i).collect();
        // For each j, intersect row i and row j of L. Dense accumulation
        // over the rows reachable from row i's pattern keeps this sparse.
        let mut touched: Vec<usize> = Vec::new();
        let mut acc: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
        for &(k, vik) in &li {
            for (j, vjk) in lt.row(k) {
                let e = acc.entry(j).or_insert(0.0);
                if *e == 0.0 {
                    touched.push(j);
                }
                *e += vik * vjk;
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for j in touched {
            let v = acc[&j];
            if v != 0.0 {
                coo.push(i, j, v).expect("indices in bounds");
            }
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use azul_sparse::suite::{self, Scale};
    use azul_sparse::{dense, generate};

    /// The merge-loop attempt the marker-array one replaced, kept as an
    /// oracle: each `L[i][j]` intersects rows `i` and `j` by merging.
    fn ic0_attempt_merge(a: &Csr, alpha: f64) -> Result<Csr> {
        let n = a.rows();
        let mut l = a.lower_triangle();
        let row_ptr = l.row_ptr().to_vec();
        let col_idx = l.col_idx().to_vec();
        if alpha > 0.0 {
            let shift: Vec<f64> = (0..n).map(|i| a.get(i, i) * alpha).collect();
            let vals = l.values_mut();
            for i in 0..n {
                for p in row_ptr[i]..row_ptr[i + 1] {
                    if col_idx[p] == i {
                        vals[p] += shift[i];
                    }
                }
            }
        }
        for i in 0..n {
            let (row_lo, row_hi) = (row_ptr[i], row_ptr[i + 1]);
            if row_hi == row_lo || col_idx[row_hi - 1] != i {
                return Err(SolverError::Breakdown(format!(
                    "missing diagonal entry in row {i}"
                )));
            }
            for p in row_lo..row_hi {
                let j = col_idx[p];
                let mut s = 0.0;
                {
                    let vals = l.values();
                    let (mut pi, mut pj) = (row_lo, row_ptr[j]);
                    let (ei, ej) = (row_hi, row_ptr[j + 1]);
                    while pi < ei && pj < ej {
                        let (ci, cj) = (col_idx[pi], col_idx[pj]);
                        if ci >= j || cj >= j {
                            break;
                        }
                        match ci.cmp(&cj) {
                            std::cmp::Ordering::Less => pi += 1,
                            std::cmp::Ordering::Greater => pj += 1,
                            std::cmp::Ordering::Equal => {
                                s += vals[pi] * vals[pj];
                                pi += 1;
                                pj += 1;
                            }
                        }
                    }
                }
                let djj = l.values()[row_ptr[j + 1] - 1];
                let vals = l.values_mut();
                if j < i {
                    vals[p] = (vals[p] - s) / djj;
                } else {
                    let d = vals[p] - s;
                    if d <= 0.0 {
                        return Err(SolverError::Breakdown(format!(
                            "non-positive pivot {d:.3e} at row {i}"
                        )));
                    }
                    vals[p] = d.sqrt();
                }
            }
        }
        Ok(l)
    }

    fn value_bits(l: &Result<Csr>) -> Option<Vec<u64>> {
        l.as_ref()
            .ok()
            .map(|l| l.values().iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn marker_attempt_matches_the_merge_oracle_bit_for_bit() {
        // Every suite analog at both small scales, unshifted and on the
        // shifted-retry path: the same terms in the same ascending-k
        // order must give the same bits.
        for spec in suite::suite_4k() {
            for scale in [Scale::Tiny, Scale::Small] {
                let a = spec.build(scale);
                for alpha in [0.0, 1e-3, 1e-2] {
                    let got = ic0_attempt(&a, alpha);
                    let want = ic0_attempt_merge(&a, alpha);
                    assert_eq!(
                        got.is_ok(),
                        want.is_ok(),
                        "{} {scale:?} alpha {alpha}",
                        spec.name
                    );
                    assert_eq!(
                        value_bits(&got),
                        value_bits(&want),
                        "{} {scale:?} alpha {alpha}",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn exact_on_tridiagonal_pattern() {
        // Tridiagonal SPD: IC(0) pattern equals the exact Cholesky pattern,
        // so L L^T must equal A exactly.
        let a = generate::tridiagonal(20);
        let l = ic0(&a).unwrap();
        let prod = llt(&l);
        for (r, c, v) in a.iter() {
            assert!(
                (prod.get(r, c) - v).abs() < 1e-12,
                "mismatch at ({r},{c}): {} vs {v}",
                prod.get(r, c)
            );
        }
    }

    #[test]
    fn factor_is_lower_triangular_with_positive_diagonal() {
        let a = generate::fem_mesh_3d(150, 6, 31);
        let l = ic0(&a).unwrap();
        for (r, c, _) in l.iter() {
            assert!(c <= r, "entry above diagonal at ({r},{c})");
        }
        for i in 0..l.rows() {
            assert!(l.get(i, i) > 0.0, "non-positive diagonal at {i}");
        }
    }

    #[test]
    fn pattern_matches_lower_triangle_of_a() {
        let a = generate::grid_laplacian_2d(7, 7);
        let l = ic0(&a).unwrap();
        let tril = a.lower_triangle();
        assert_eq!(l.row_ptr(), tril.row_ptr());
        assert_eq!(l.col_idx(), tril.col_idx());
    }

    #[test]
    fn approximates_a_on_grid() {
        let a = generate::grid_laplacian_2d(10, 10);
        let l = ic0(&a).unwrap();
        let prod = llt(&l);
        // IC(0) is inexact off-pattern, but on-pattern entries of A are
        // reproduced reasonably; check overall relative Frobenius error.
        let mut num = 0.0;
        let mut den = 0.0;
        for (r, c, v) in a.iter() {
            let d = prod.get(r, c) - v;
            num += d * d;
            den += v * v;
        }
        assert!((num / den).sqrt() < 0.2, "on-pattern error too large");
    }

    #[test]
    fn preconditioner_application_is_spd() {
        // M^-1 = (L L^T)^-1 must be symmetric positive definite: the PCG
        // correctness requirement for any preconditioner.
        let a = generate::fem_mesh_3d(100, 5, 7);
        let l = ic0(&a).unwrap();
        let apply = |r: &[f64]| {
            let y = crate::kernels::sptrsv_lower(&l, r);
            crate::kernels::sptrsv_lower_transpose(&l, &y)
        };
        let u: Vec<f64> = (0..100).map(|i| ((i % 13) as f64) / 13.0 - 0.4).collect();
        let v: Vec<f64> = (0..100)
            .map(|i| ((i * 7 % 11) as f64) / 11.0 - 0.5)
            .collect();
        // Symmetry: u . M^-1 v == v . M^-1 u
        let lhs = dense::dot(&u, &apply(&v));
        let rhs = dense::dot(&v, &apply(&u));
        assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
        // Positive definiteness: u . M^-1 u > 0
        assert!(dense::dot(&u, &apply(&u)) > 0.0);
    }

    #[test]
    fn non_square_rejected() {
        let a = azul_sparse::Coo::from_triplets(2, 3, [(0, 0, 1.0)])
            .unwrap()
            .to_csr();
        assert!(matches!(ic0(&a), Err(SolverError::Dimension(_))));
    }
}
