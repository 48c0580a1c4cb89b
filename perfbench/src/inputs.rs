//! Seeded inputs. The program under test sees only what this module
//! generates: Matrix Market text of suite operators and right-hand sides.
//!
//! Operators are the paper-matrix analogs of `azul_sparse::suite` (fixed
//! sparsity, so the cost of a run does not depend on the seed) with every
//! value multiplied by a seeded factor. Right-hand sides are seeded and of
//! unit norm, which makes the solver's absolute tolerance a relative one.

use azul_sparse::io::write_matrix_market;
use azul_sparse::suite::{by_name, Scale};
use azul_sparse::Csr;

/// splitmix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_a201_b0a7_d00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One generated operator: its suite name and Matrix Market text.
#[derive(Debug, Clone)]
pub struct Operator {
    pub name: &'static str,
    pub text: String,
}

/// The suite analog `name` at `scale`, values scaled by a factor in
/// `[0.5, 2)` drawn from `rng`, as Matrix Market text.
pub fn operator(name: &'static str, scale: Scale, rng: &mut Rng) -> Operator {
    let spec = by_name(name).unwrap_or_else(|| panic!("{name} is not a suite matrix"));
    let mut a = spec.build(scale);
    scale_values(&mut a, 0.5 + 1.5 * rng.unit());
    let mut text = Vec::new();
    write_matrix_market(&mut text, &a).expect("writing to memory cannot fail");
    Operator {
        name,
        text: String::from_utf8(text).expect("Matrix Market text is ASCII"),
    }
}

pub fn scale_values(a: &mut Csr, factor: f64) {
    a.values_mut().iter_mut().for_each(|v| *v *= factor);
}

/// A seeded right-hand side of unit 2-norm with entries of one sign.
pub fn rhs(n: usize, rng: &mut Rng) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n).map(|_| 0.1 + rng.unit()).collect();
    let norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    b.iter_mut().for_each(|v| *v /= norm);
    b
}

/// Identifies one (operator, right-hand side) input for the repeat check.
pub fn input_id(op: usize, rhs: usize) -> u64 {
    ((op as u64) << 32) | rhs as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use azul_sparse::io::read_matrix_market;

    #[test]
    fn same_seed_same_inputs() {
        let a = operator("thermal2", Scale::Tiny, &mut Rng::new(3));
        let b = operator("thermal2", Scale::Tiny, &mut Rng::new(3));
        let c = operator("thermal2", Scale::Tiny, &mut Rng::new(4));
        assert_eq!(a.text, b.text);
        assert_ne!(a.text, c.text);
        let parsed = read_matrix_market(a.text.as_bytes()).unwrap();
        let r = rhs(parsed.rows(), &mut Rng::new(3));
        assert!((r.iter().map(|v| v * v).sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(r, rhs(parsed.rows(), &mut Rng::new(3)));
    }
}
