//! Correctness gate: every solve the benchmark times is checked here.
//!
//! A solve passes when it reports convergence and its true relative
//! residual `||b - A x|| / ||b||`, computed by the benchmark itself in the
//! caller's row order, is within [`RESIDUAL_LIMIT`]. Repeats of the same
//! input must report the same simulated cycle count. Failures are counted
//! against attempts, never dropped from the sample.

use azul_sparse::{dense, Csr};
use std::collections::BTreeMap;

/// Solver tolerance on `||r||` for right-hand sides of unit norm, so it is
/// also a relative tolerance. Loose enough that the audited solve, whose
/// final audit checks the true residual, meets it as well.
pub const SOLVER_TOL: f64 = 1e-8;

/// Accepted true relative residual: the solver tolerance plus room for
/// the gap between the recursive and the true residual.
pub const RESIDUAL_LIMIT: f64 = 1e-6;

/// True relative residual `||b - A x|| / ||b||`.
pub fn rel_residual(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
    dense::norm2(&dense::sub(b, &a.spmv(x))) / dense::norm2(b)
}

/// Attempt and failure tally of one run.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the report.
    pub failures: Vec<String>,
    /// Simulated cycles seen per input id.
    cycles: BTreeMap<u64, u64>,
}

impl Gate {
    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Checks one solve of input `input` (operator and right-hand side
    /// together). `a` is the operator in the caller's row order.
    pub fn check(
        &mut self,
        input: u64,
        a: &Csr,
        b: &[f64],
        x: &[f64],
        converged: bool,
        cycles: u64,
    ) -> bool {
        let residual = if x.len() == b.len() {
            rel_residual(a, b, x)
        } else {
            f64::INFINITY
        };
        let first = *self.cycles.entry(input).or_insert(cycles);
        let why = if !converged {
            format!("input {input:#x}: not converged")
        } else if residual.is_nan() || residual > RESIDUAL_LIMIT {
            format!("input {input:#x}: relative residual {residual:e} > {RESIDUAL_LIMIT:e}")
        } else if first != cycles {
            format!("input {input:#x}: {cycles} simulated cycles, earlier {first}")
        } else {
            self.attempted += 1;
            return true;
        };
        self.fail(why);
        false
    }

    /// Simulated cycles summed over the distinct inputs seen.
    pub fn distinct_cycles(&self) -> u64 {
        self.cycles.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azul_solver::ic0::ic0;
    use azul_solver::kernels::{sptrsv_lower, sptrsv_lower_transpose};
    use azul_sparse::generate;

    /// An accurate solution: IC(0)-preconditioned Richardson iteration.
    fn solve(a: &Csr, b: &[f64]) -> Vec<f64> {
        let l = ic0(a).unwrap();
        let mut x = vec![0.0; b.len()];
        for _ in 0..200 {
            let r = dense::sub(b, &a.spmv(&x));
            let z = sptrsv_lower_transpose(&l, &sptrsv_lower(&l, &r));
            dense::axpy(1.0, &z, &mut x);
        }
        x
    }

    fn system() -> (Csr, Vec<f64>, Vec<f64>) {
        let a = generate::grid_laplacian_2d(6, 6);
        let b: Vec<f64> = (0..a.rows()).map(|i| 1.0 + (i % 5) as f64).collect();
        let x = solve(&a, &b);
        (a, b, x)
    }

    #[test]
    fn accepts_a_converged_accurate_solve() {
        let (a, b, x) = system();
        let mut gate = Gate::default();
        assert!(gate.check(1, &a, &b, &x, true, 100));
        assert!(gate.check(1, &a, &b, &x, true, 100));
        assert_eq!((gate.attempted, gate.failed), (2, 0));
        assert_eq!(gate.distinct_cycles(), 100);
    }

    #[test]
    fn perturbed_solution_fails() {
        let (a, b, mut x) = system();
        x[7] += 1e-3;
        let mut gate = Gate::default();
        assert!(!gate.check(1, &a, &b, &x, true, 100));
        assert_eq!((gate.attempted, gate.failed), (1, 1));
    }

    #[test]
    fn changed_cycle_count_on_a_repeat_fails() {
        let (a, b, x) = system();
        let mut gate = Gate::default();
        assert!(gate.check(1, &a, &b, &x, true, 100));
        assert!(!gate.check(1, &a, &b, &x, true, 101));
        // A different input may have its own count.
        assert!(gate.check(2, &a, &b, &x, true, 101));
        assert_eq!((gate.attempted, gate.failed), (3, 1));
        assert_eq!(gate.distinct_cycles(), 201);
    }

    #[test]
    fn unconverged_or_wrong_length_fails() {
        let (a, b, x) = system();
        let mut gate = Gate::default();
        assert!(!gate.check(1, &a, &b, &x, false, 100));
        assert!(!gate.check(2, &a, &b, &x[1..], true, 100));
        assert_eq!(gate.failed, 2);
    }
}
