//! The sparse triangular-solve kernels (Fig. 4).
//!
//! SpMV lives on [`Csr::spmv`]; this module adds forward and backward
//! substitution, the SpTRSV kernels that dominate PCG alongside SpMV
//! (Fig. 3).
//!
//! **The diagonal rule.** Each kernel finds row `i`'s diagonal entry once.
//! It looks first where a triangular factor keeps it — the last entry of
//! a lower row, the first of an upper row, as in every factor that
//! [`crate::ic0::ic0`] and the [`crate::precond`] factor builders return
//! — and otherwise binary-searches the row's sorted columns. A full
//! matrix therefore stays valid input: the entries on the ignored side
//! of the diagonal are skipped, not scanned. The row's used side is then
//! one loop of fixed trip count, over the same entries in the same column
//! order as a scan of the whole row would visit, so the bits do not
//! depend on how the diagonal was found. A missing or zero diagonal
//! panics with `zero or missing diagonal at row {i}`.
//!
//! **Output buffers.** [`sptrsv_lower_into`] and
//! [`sptrsv_lower_transpose_into`] write into a caller-owned `x`, so an
//! iteration that keeps its vectors allocates nothing; [`sptrsv_lower`]
//! and [`sptrsv_lower_transpose`] wrap them with a fresh vector.

use azul_sparse::Csr;

/// Checks the operands of a triangular solve; returns the dimension.
fn check_operands(m: &Csr, b: &[f64], x: &[f64]) -> usize {
    let n = m.rows();
    assert_eq!(m.cols(), n, "triangular solve needs a square matrix");
    assert_eq!(b.len(), n, "rhs length mismatch");
    assert_eq!(x.len(), n, "solution length mismatch");
    n
}

/// The position of row `i`'s diagonal among `m`'s stored entries, and
/// its value: tried first at the row's last entry (`last`) or its first,
/// else found by binary search of the row's sorted columns.
///
/// # Panics
///
/// Panics if the diagonal is missing or zero.
fn diagonal(m: &Csr, i: usize, last: bool) -> (usize, f64) {
    let (lo, hi) = (m.row_ptr()[i], m.row_ptr()[i + 1]);
    let (cols, vals) = (m.col_idx(), m.values());
    let guess = (lo < hi).then(|| if last { hi - 1 } else { lo });
    let pos = match guess {
        Some(g) if cols[g] == i => Some(g),
        _ => cols[lo..hi].binary_search(&i).ok().map(|p| lo + p),
    };
    match pos {
        Some(d) if vals[d] != 0.0 => (d, vals[d]),
        _ => panic!("zero or missing diagonal at row {i}"),
    }
}

/// Solves `L x = b` where `L` is lower triangular with nonzero diagonal.
///
/// Entries above the diagonal are ignored, so a full matrix may be passed
/// to solve with its lower triangle.
///
/// # Panics
///
/// Panics if `L` is not square, `b` has the wrong length, or a diagonal
/// entry is missing/zero.
pub fn sptrsv_lower(l: &Csr, b: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; l.rows()];
    sptrsv_lower_into(l, b, &mut x);
    x
}

/// [`sptrsv_lower`] into a caller-provided `x`, which it overwrites.
///
/// # Panics
///
/// Panics as [`sptrsv_lower`] does, and if `x` has the wrong length.
pub fn sptrsv_lower_into(l: &Csr, b: &[f64], x: &mut [f64]) {
    let n = check_operands(l, b, x);
    let (ptr, cols, vals) = (l.row_ptr(), l.col_idx(), l.values());
    for i in 0..n {
        let lo = ptr[i];
        let (d, diag) = diagonal(l, i, true);
        let mut acc = b[i];
        for (&j, &v) in cols[lo..d].iter().zip(&vals[lo..d]) {
            acc -= v * x[j];
        }
        x[i] = acc / diag;
    }
}

/// Solves `U x = b` where `U` is upper triangular with nonzero diagonal.
///
/// Entries below the diagonal are ignored.
///
/// # Panics
///
/// Panics if `U` is not square, `b` has the wrong length, or a diagonal
/// entry is missing/zero.
pub fn sptrsv_upper(u: &Csr, b: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; u.rows()];
    let n = check_operands(u, b, &x);
    let (ptr, cols, vals) = (u.row_ptr(), u.col_idx(), u.values());
    for i in (0..n).rev() {
        let hi = ptr[i + 1];
        let (d, diag) = diagonal(u, i, false);
        let mut acc = b[i];
        for (&j, &v) in cols[d + 1..hi].iter().zip(&vals[d + 1..hi]) {
            acc -= v * x[j];
        }
        x[i] = acc / diag;
    }
    x
}

/// Solves `L^T x = b` given lower-triangular `L` (used for the
/// `trisolve(L^T, ...)` step of Listing 1 without materializing the
/// transpose).
///
/// # Panics
///
/// Panics as [`sptrsv_lower`] does.
pub fn sptrsv_lower_transpose(l: &Csr, b: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; l.rows()];
    sptrsv_lower_transpose_into(l, b, &mut x);
    x
}

/// [`sptrsv_lower_transpose`] into a caller-provided `x`, which it
/// overwrites.
///
/// # Panics
///
/// Panics as [`sptrsv_lower`] does, and if `x` has the wrong length.
pub fn sptrsv_lower_transpose_into(l: &Csr, b: &[f64], x: &mut [f64]) {
    let n = check_operands(l, b, x);
    let (ptr, cols, vals) = (l.row_ptr(), l.col_idx(), l.values());
    // Column-oriented backward substitution on L's rows.
    x.copy_from_slice(b);
    for i in (0..n).rev() {
        let lo = ptr[i];
        let (d, diag) = diagonal(l, i, true);
        x[i] /= diag;
        let xi = x[i];
        for (&j, &v) in cols[lo..d].iter().zip(&vals[lo..d]) {
            x[j] -= v * xi;
        }
    }
}

/// The kernels as they were before the diagonal rule: each scans its
/// whole row and tests every column. Kept as the oracle the kernels must
/// match bit for bit.
#[cfg(test)]
mod reference {
    use azul_sparse::Csr;

    pub fn sptrsv_lower(l: &Csr, b: &[f64]) -> Vec<f64> {
        let n = l.rows();
        let mut x = vec![0.0; n];
        for i in 0..n {
            let mut acc = b[i];
            let mut diag = 0.0;
            for (j, v) in l.row(i) {
                if j < i {
                    acc -= v * x[j];
                } else if j == i {
                    diag = v;
                }
            }
            assert!(diag != 0.0, "zero or missing diagonal at row {i}");
            x[i] = acc / diag;
        }
        x
    }

    pub fn sptrsv_upper(u: &Csr, b: &[f64]) -> Vec<f64> {
        let n = u.rows();
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = b[i];
            let mut diag = 0.0;
            for (j, v) in u.row(i) {
                if j > i {
                    acc -= v * x[j];
                } else if j == i {
                    diag = v;
                }
            }
            assert!(diag != 0.0, "zero or missing diagonal at row {i}");
            x[i] = acc / diag;
        }
        x
    }

    pub fn sptrsv_lower_transpose(l: &Csr, b: &[f64]) -> Vec<f64> {
        let n = l.rows();
        let mut x = b.to_vec();
        for i in (0..n).rev() {
            let mut diag = 0.0;
            for (j, v) in l.row(i) {
                if j == i {
                    diag = v;
                }
            }
            assert!(diag != 0.0, "zero or missing diagonal at row {i}");
            x[i] /= diag;
            let xi = x[i];
            for (j, v) in l.row(i) {
                if j < i {
                    x[j] -= v * xi;
                }
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azul_sparse::{dense, generate, Coo};
    use proptest::prelude::*;

    fn lower_sample() -> Csr {
        // L = [2 0 0; 1 3 0; 0 -1 4]
        Coo::from_triplets(
            3,
            3,
            [
                (0, 0, 2.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (2, 1, -1.0),
                (2, 2, 4.0),
            ],
        )
        .unwrap()
        .to_csr()
    }

    #[test]
    fn lower_solve_exact() {
        let l = lower_sample();
        let x = sptrsv_lower(&l, &[2.0, 7.0, 2.0]);
        // x0 = 1; x1 = (7-1)/3 = 2; x2 = (2+2)/4 = 1
        assert_eq!(x, vec![1.0, 2.0, 1.0]);
        // verify L x = b
        assert!(dense::max_abs_diff(&l.spmv(&x), &[2.0, 7.0, 2.0]) < 1e-14);
    }

    #[test]
    fn upper_solve_exact() {
        let u = lower_sample().transpose();
        let b = [2.0, 7.0, 2.0];
        let x = sptrsv_upper(&u, &b);
        assert!(dense::max_abs_diff(&u.spmv(&x), &b) < 1e-14);
    }

    #[test]
    fn lower_transpose_matches_materialized() {
        let a = generate::fem_mesh_3d(120, 5, 17);
        let l = a.lower_triangle();
        let b: Vec<f64> = (0..120).map(|i| (i as f64 * 0.7).cos()).collect();
        let via_transpose = sptrsv_upper(&l.transpose(), &b);
        let direct = sptrsv_lower_transpose(&l, &b);
        assert!(dense::max_abs_diff(&via_transpose, &direct) < 1e-10);
    }

    #[test]
    fn full_matrix_uses_lower_triangle_only() {
        let a = generate::grid_laplacian_2d(5, 5);
        let b = vec![1.0; 25];
        let x_full = sptrsv_lower(&a, &b);
        let x_tri = sptrsv_lower(&a.lower_triangle(), &b);
        assert!(dense::max_abs_diff(&x_full, &x_tri) < 1e-14);
    }

    #[test]
    fn random_lower_roundtrip() {
        let a = generate::fem_mesh_3d(200, 6, 23);
        let l = a.lower_triangle();
        let x_true: Vec<f64> = (0..200)
            .map(|i| ((i * 37 % 100) as f64) / 50.0 - 1.0)
            .collect();
        let b = l.spmv(&x_true);
        let x = sptrsv_lower(&l, &b);
        assert!(dense::rel_l2_diff(&x, &x_true) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "zero or missing diagonal")]
    fn missing_diagonal_panics() {
        let l = Coo::from_triplets(2, 2, [(0, 0, 1.0), (1, 0, 1.0)])
            .unwrap()
            .to_csr();
        sptrsv_lower(&l, &[1.0, 1.0]);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A random SPD matrix via diagonal dominance, dimension 1..=40.
    fn arb_spd() -> impl Strategy<Value = Csr> {
        (1usize..=40).prop_flat_map(|n| {
            proptest::collection::vec((0..n, 0..n, -2.0f64..2.0), 0..(n * 4)).prop_map(move |es| {
                let mut coo = Coo::new(n, n);
                let mut row_sum = vec![0.0; n];
                for (r, c, v) in es {
                    if r != c {
                        let (lo, hi) = (r.min(c), r.max(c));
                        coo.push_sym(lo, hi, v).unwrap();
                        row_sum[lo] += v.abs();
                        row_sum[hi] += v.abs();
                    }
                }
                for (i, s) in row_sum.iter().enumerate() {
                    coo.push(i, i, s * 1.1 + 1.0).unwrap();
                }
                coo.to_csr()
            })
        })
    }

    /// A matrix and a right-hand side for it, about a fifth of whose
    /// entries are `0.0` or `-0.0`.
    fn arb_system() -> impl Strategy<Value = (Csr, Vec<f64>)> {
        arb_spd().prop_flat_map(|a| {
            let entry = (0usize..10, -3.0f64..3.0).prop_map(|(k, v)| match k {
                0 => 0.0,
                1 => -0.0,
                _ => v,
            });
            let n = a.rows();
            (Just(a), proptest::collection::vec(entry, n))
        })
    }

    /// Runs both `_into` kernels on `m` and `b` into buffers that hold
    /// stale values, as a reused buffer does.
    fn into_kernels(m: &Csr, b: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut lo = vec![f64::NAN; b.len()];
        sptrsv_lower_into(m, b, &mut lo);
        let mut lt = vec![-7.5; b.len()];
        sptrsv_lower_transpose_into(m, b, &mut lt);
        (lo, lt)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn kernels_match_the_row_scanning_oracle_bit_for_bit((a, b) in arb_system()) {
            // IC(0) factors: the diagonal ends each lower row and, in the
            // transpose, starts each upper row.
            let l = crate::ic0::ic0(&a).expect("SPD factors");
            let want_lo = bits(&reference::sptrsv_lower(&l, &b));
            let want_lt = bits(&reference::sptrsv_lower_transpose(&l, &b));
            prop_assert_eq!(bits(&sptrsv_lower(&l, &b)), want_lo.clone());
            prop_assert_eq!(bits(&sptrsv_lower_transpose(&l, &b)), want_lt.clone());
            let (lo, lt) = into_kernels(&l, &b);
            prop_assert_eq!(bits(&lo), want_lo);
            prop_assert_eq!(bits(&lt), want_lt);
            let u = l.transpose();
            prop_assert_eq!(bits(&sptrsv_upper(&u, &b)), bits(&reference::sptrsv_upper(&u, &b)));

            // Full symmetric matrices: the diagonal sits inside the row
            // wherever the row has entries on both sides, and the entries
            // on the ignored side must not count.
            let want_lo = bits(&reference::sptrsv_lower(&a, &b));
            let want_lt = bits(&reference::sptrsv_lower_transpose(&a, &b));
            prop_assert_eq!(bits(&sptrsv_lower(&a, &b)), want_lo.clone());
            prop_assert_eq!(bits(&sptrsv_lower_transpose(&a, &b)), want_lt.clone());
            let (lo, lt) = into_kernels(&a, &b);
            prop_assert_eq!(bits(&lo), want_lo);
            prop_assert_eq!(bits(&lt), want_lt);
            prop_assert_eq!(bits(&sptrsv_upper(&a, &b)), bits(&reference::sptrsv_upper(&a, &b)));
        }
    }

    /// `[[1, 0], [1, d]]` with its diagonal entry at row 1 stored as `d`,
    /// or not stored at all.
    fn second_row_diagonal(d: Option<f64>) -> Csr {
        let mut t = vec![(0, 0, 1.0), (1, 0, 1.0)];
        t.extend(d.map(|d| (1, 1, d)));
        Coo::from_triplets(2, 2, t).unwrap().to_csr()
    }

    #[test]
    #[should_panic(expected = "zero or missing diagonal at row 1")]
    fn lower_into_zero_diagonal_panics() {
        sptrsv_lower_into(&second_row_diagonal(Some(0.0)), &[1.0, 1.0], &mut [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "zero or missing diagonal at row 1")]
    fn lower_into_missing_diagonal_panics() {
        sptrsv_lower_into(&second_row_diagonal(None), &[1.0, 1.0], &mut [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "zero or missing diagonal at row 1")]
    fn lower_transpose_into_zero_diagonal_panics() {
        sptrsv_lower_transpose_into(&second_row_diagonal(Some(0.0)), &[1.0, 1.0], &mut [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "zero or missing diagonal at row 1")]
    fn lower_transpose_into_missing_diagonal_panics() {
        sptrsv_lower_transpose_into(&second_row_diagonal(None), &[1.0, 1.0], &mut [0.0; 2]);
    }
}
