//! Host-speed reference for the gated timings.
//!
//! Other tenants of a shared host slow this process mostly through the
//! memory system: a dependent random walk over a table far larger than the
//! caches swings by more than 2x within seconds and shifts for minutes at a
//! time, while the simulator's own time moves with it. The untraced loops
//! take one walk of fixed length before every timed unit, and scale each
//! gated timing by `REFERENCE_WALK_S / p10(walks)`: host seconds at the
//! reference memory speed. The walk runs none of the program's code, so a
//! change to the program moves the scaled value exactly as much as the raw
//! one.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// Table entries: 2^26 `u32`, 256 MiB.
const TABLE_LEN: usize = 1 << 26;
/// Dependent loads per walk (about 30 ms on the reference host).
const WALK_STEPS: usize = 1_000_000;
/// p10 of walk times on the reference host (Xeon at 2.1 GHz, 2 vCPUs, in
/// quiet stretches); scaled timings read as seconds on that host.
pub const REFERENCE_WALK_S: f64 = 0.028;

pub struct Probe {
    table: Vec<u32>,
    walks: Vec<f64>,
}

impl Probe {
    /// Builds and touches the table, so its pages are resident before any
    /// timing starts.
    pub fn new() -> Self {
        let mut x = 1u64;
        let table = (0..TABLE_LEN)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 33) as u32
            })
            .collect();
        Probe {
            table,
            walks: Vec::new(),
        }
    }

    /// Resident size of the table in MiB, for peak-memory accounting.
    pub fn table_mb(&self) -> f64 {
        (self.table.len() * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0)
    }

    /// Times one walk and keeps the sample.
    pub fn walk(&mut self) {
        let mask = self.table.len() - 1;
        let t = Instant::now();
        let mut i = 0usize;
        for _ in 0..WALK_STEPS {
            i = (self.table[i] as usize ^ i.wrapping_mul(2_654_435_761)) & mask;
        }
        black_box(i);
        self.walks.push(t.elapsed().as_secs_f64());
    }

    pub fn samples(&self) -> usize {
        self.walks.len()
    }

    /// The scale factor of this run's walks (see [`scale`]).
    pub fn factor(&self) -> f64 {
        scale(&self.walks)
    }
}

/// `REFERENCE_WALK_S / p10(walks)`; 1 without walks.
pub fn scale(walks: &[f64]) -> f64 {
    stats::low(walks).map_or(1.0, |w| REFERENCE_WALK_S / w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_low_percentile() {
        assert_eq!(scale(&[]), 1.0);
        // Walks twice as slow as the reference halve every timing; one
        // quiet outlier among many walks does not set the factor.
        let mut walks = vec![2.0 * REFERENCE_WALK_S; 30];
        walks[3] = REFERENCE_WALK_S / 10.0;
        assert_eq!(scale(&walks), 0.5);
    }
}
