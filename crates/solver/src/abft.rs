//! Algorithm-based fault tolerance (ABFT) checksums for the sparse
//! kernels, after Huang & Abraham.
//!
//! The whole premise of Azul is that the operator, factors and solver
//! vectors stay resident in distributed on-chip SRAM for the entire
//! solve — exactly the exposure window where a soft error becomes
//! *silent* data corruption. Loud symptoms (NaN, divergence, deadlock)
//! are already guarded; this module catches the quiet ones with an
//! invariant the kernels must preserve:
//!
//! * **SpMV** `y = A·x`: summing both sides against the all-ones vector
//!   gives `1ᵀy = (Aᵀ1)ᵀx = cᵀx`, where `c` is the *column-checksum*
//!   vector precomputed once per operator.
//! * **Lower SpTRSV** `L·x = b`: the same identity applied to the
//!   product, `cᵀx = 1ᵀ(Lx) = 1ᵀb`, so the solve is verified without
//!   re-running it.
//! * **Transpose SpTRSV** `Lᵀ·z = y`: `1ᵀ(Lᵀz) = (L·1)ᵀz = sᵀz` with
//!   `s` the *row-checksum* vector.
//!
//! The comparison is never exact: floating-point summation reorders, so
//! each check carries a rounding-aware bound built from the **absolute**
//! column/row sums (`|A|ᵀ1`, `|A|·1`) — the magnitude of everything that
//! was summed, scaled by a generous multiple of `n·ε`. A gap inside the
//! bound is indistinguishable from legitimate rounding (and perturbs the
//! result by no more than accumulated round-off, so it cannot produce a
//! wrong answer that the true-residual audit would miss); a gap outside
//! it is corruption.
//!
//! The checksum vectors are computed host-side at prepare/factor time
//! (`azul_core` carries one per `PreparedSolver` values layer) and each
//! verification is O(n) — negligible next to the kernels it guards, and
//! never charged simulated cycles (the cycle model prices the fault-free
//! pipeline, consistent with the recovery machinery).

use azul_sparse::Csr;

/// Safety multiplier on the `n·ε·magnitude` rounding bound. Generous on
/// purpose: a false positive would roll back a healthy solve, while a
/// borderline miss is harmless by construction (see module docs).
const SAFETY: f64 = 64.0;

/// One verification's verdict: the observed checksum gap and the
/// rounding-aware bound it must stay inside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChecksumCheck {
    /// `|cᵀx − 1ᵀy|` (or the solve-form equivalent).
    pub gap: f64,
    /// Largest gap explainable by floating-point rounding.
    pub bound: f64,
}

impl ChecksumCheck {
    /// Whether the gap is inside the rounding bound. A NaN gap (corrupt
    /// state reached the reduction itself) always fails.
    pub fn ok(&self) -> bool {
        self.gap <= self.bound
    }
}

/// Huang–Abraham checksum vectors for one sparse operator: the signed
/// and absolute column sums (`Aᵀ1`, `|A|ᵀ1`) and row sums (`A·1`,
/// `|A|·1`), precomputed once and reused for every kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorChecksum {
    col_sums: Vec<f64>,
    abs_col_sums: Vec<f64>,
    row_sums: Vec<f64>,
    abs_row_sums: Vec<f64>,
}

impl OperatorChecksum {
    /// Precomputes the four checksum vectors in one pass over the CSR.
    pub fn new(a: &Csr) -> Self {
        let mut col_sums = vec![0.0; a.cols()];
        let mut abs_col_sums = vec![0.0; a.cols()];
        let mut row_sums = vec![0.0; a.rows()];
        let mut abs_row_sums = vec![0.0; a.rows()];
        for r in 0..a.rows() {
            // Summation order is row-major CSR order, fixed by the format.
            for (c, v) in a.row(r) {
                col_sums[c] += v;
                abs_col_sums[c] += v.abs();
                row_sums[r] += v;
                abs_row_sums[r] += v.abs();
            }
        }
        OperatorChecksum {
            col_sums,
            abs_col_sums,
            row_sums,
            abs_row_sums,
        }
    }

    /// Number of rows/columns the checksums describe.
    pub fn len(&self) -> usize {
        self.col_sums.len()
    }

    /// Whether the checksums describe an empty operator.
    pub fn is_empty(&self) -> bool {
        self.col_sums.is_empty()
    }

    /// The rounding-aware bound for a check whose summed magnitudes
    /// total `mag`, over vectors of length `n`.
    fn bound(n: usize, mag: f64) -> f64 {
        SAFETY * (n.max(2) as f64) * f64::EPSILON * mag + f64::MIN_POSITIVE
    }

    /// Verifies `y = A·x` via `1ᵀy = cᵀx`.
    pub fn verify_spmv(&self, x: &[f64], y: &[f64]) -> ChecksumCheck {
        let (mut cx, mut mag_cx) = (0.0, 0.0);
        // Summation is in index order; both sides accumulate the same way.
        for ((c, ac), xi) in self.col_sums.iter().zip(&self.abs_col_sums).zip(x) {
            cx += c * xi;
            mag_cx += ac * xi.abs();
        }
        let (mut sy, mut mag_y) = (0.0, 0.0);
        for v in y {
            sy += v;
            mag_y += v.abs();
        }
        let gap = (cx - sy).abs();
        let bound = Self::bound(x.len(), mag_cx + mag_y);
        ChecksumCheck { gap, bound }
    }

    /// Verifies a lower triangular solve `L·x = b` via `cᵀx = 1ᵀb`,
    /// without re-running the solve.
    pub fn verify_solve(&self, x: &[f64], b: &[f64]) -> ChecksumCheck {
        Self::against(&self.col_sums, &self.abs_col_sums, x, b)
    }

    /// Verifies a transpose solve `Lᵀ·z = y` via `sᵀz = 1ᵀy`, with `s`
    /// the row sums.
    pub fn verify_solve_transpose(&self, z: &[f64], y: &[f64]) -> ChecksumCheck {
        Self::against(&self.row_sums, &self.abs_row_sums, z, y)
    }

    fn against(sums: &[f64], abs_sums: &[f64], x: &[f64], rhs: &[f64]) -> ChecksumCheck {
        let (mut cx, mut mag_cx) = (0.0, 0.0);
        // Summation is in index order; both sides accumulate the same way.
        for ((s, abs), xi) in sums.iter().zip(abs_sums).zip(x) {
            cx += s * xi;
            mag_cx += abs * xi.abs();
        }
        let (mut sb, mut mag_b) = (0.0, 0.0);
        for v in rhs {
            sb += v;
            mag_b += v.abs();
        }
        let gap = (cx - sb).abs();
        let bound = Self::bound(x.len(), mag_cx + mag_b);
        ChecksumCheck { gap, bound }
    }

    /// Bit-exact equality against checksums freshly recomputed from
    /// `a` — the scrub predicate for cached prepare artifacts. The
    /// recomputation is deterministic (same CSR order, same summation
    /// order), so a healthy artifact compares equal bit for bit; any
    /// divergence means the stored operator or the stored checksums
    /// were corrupted after insertion.
    pub fn matches(&self, a: &Csr) -> bool {
        *self == OperatorChecksum::new(a)
    }

    /// Fault-injection hook: flips one bit of the stored column-checksum
    /// payload at `index`, modeling an artifact corrupted in host memory
    /// after insertion. Used by the scrub tests and the detection
    /// coverage campaign; a production path never calls this.
    pub fn flip_bit(&mut self, index: usize, bit: u32) {
        let idx = index % self.col_sums.len().max(1);
        if let Some(v) = self.col_sums.get_mut(idx) {
            *v = f64::from_bits(v.to_bits() ^ (1u64 << (bit % 64)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azul_sparse::{dense, generate};

    fn x_of(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 29 % 13) as f64) / 13.0 - 0.4)
            .collect()
    }

    #[test]
    fn clean_spmv_passes() {
        let a = generate::grid_laplacian_2d(14, 14);
        let cs = OperatorChecksum::new(&a);
        let x = x_of(a.rows());
        let y = a.spmv(&x);
        let check = cs.verify_spmv(&x, &y);
        assert!(check.ok(), "gap {} > bound {}", check.gap, check.bound);
    }

    #[test]
    fn corrupted_spmv_is_caught() {
        let a = generate::grid_laplacian_2d(14, 14);
        let cs = OperatorChecksum::new(&a);
        let x = x_of(a.rows());
        let mut y = a.spmv(&x);
        // A high-mantissa single-bit flip on one output value.
        y[17] = f64::from_bits(y[17].to_bits() ^ (1 << 60));
        let check = cs.verify_spmv(&x, &y);
        assert!(!check.ok(), "gap {} <= bound {}", check.gap, check.bound);
    }

    #[test]
    fn clean_trisolves_pass_and_corrupt_ones_fail() {
        let a = generate::grid_laplacian_2d(12, 12);
        let l = crate::ic0::ic0(&a).expect("ic0 on an SPD grid");
        let cs = OperatorChecksum::new(&l);
        let b = x_of(a.rows());
        let y = crate::kernels::sptrsv_lower(&l, &b);
        let z = crate::kernels::sptrsv_lower_transpose(&l, &y);
        assert!(cs.verify_solve(&y, &b).ok());
        assert!(cs.verify_solve_transpose(&z, &y).ok());

        let mut bad = y.clone();
        bad[3] = f64::from_bits(bad[3].to_bits() ^ (1 << 58));
        assert!(!cs.verify_solve(&bad, &b).ok());
        assert!(!cs.verify_solve_transpose(&z, &bad).ok());
    }

    #[test]
    fn bound_scales_with_magnitude_not_direction() {
        let a = generate::grid_laplacian_2d(10, 10);
        let cs = OperatorChecksum::new(&a);
        let x: Vec<f64> = x_of(a.rows()).iter().map(|v| v * 1e8).collect();
        let y = a.spmv(&x);
        let check = cs.verify_spmv(&x, &y);
        assert!(check.ok(), "gap {} > bound {}", check.gap, check.bound);
        assert!(check.bound > 0.0 && check.bound.is_finite());
    }

    #[test]
    fn nan_gap_never_verifies() {
        let a = generate::tridiagonal(6);
        let cs = OperatorChecksum::new(&a);
        let x = vec![1.0; 6];
        let mut y = a.spmv(&x);
        y[0] = f64::NAN;
        assert!(!cs.verify_spmv(&x, &y).ok());
    }

    #[test]
    fn scrub_matches_detects_flipped_bits() {
        let a = generate::grid_laplacian_2d(8, 8);
        let mut cs = OperatorChecksum::new(&a);
        assert!(cs.matches(&a));
        cs.flip_bit(5, 40);
        assert!(!cs.matches(&a));
    }

    #[test]
    fn spmv_residual_identity_sanity() {
        // The invariant the check rests on: 1ᵀ(b − Ax) = 1ᵀb − cᵀx.
        let a = generate::grid_laplacian_2d(9, 9);
        let cs = OperatorChecksum::new(&a);
        let x = x_of(a.rows());
        let b = x_of(a.rows()).iter().map(|v| v + 1.0).collect::<Vec<_>>();
        let r = dense::sub(&b, &a.spmv(&x));
        // reduction-order: iterator order over fixed-length vectors.
        let lhs = r.iter().sum::<f64>();
        let sb = b.iter().sum::<f64>();
        // reduction-order: index order, matching the verify kernels.
        let cx = (0..x.len()).map(|i| cs.col_sums[i] * x[i]).sum::<f64>();
        let rhs = sb - cx;
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }
}
