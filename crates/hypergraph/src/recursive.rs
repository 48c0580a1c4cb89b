//! Multilevel recursive bisection into k parts.
//!
//! The two halves of a bisection are independent: each partitions its
//! own induced sub-hypergraph over a disjoint vertex set, with its own
//! seed, and reads no shared mutable state. So when both halves still
//! need splitting, the right half runs on a scoped helper thread while
//! the calling thread takes the left, and the placement is the same
//! byte for byte as a serial run.
//!
//! Helpers come from one process-wide budget: the number of threads
//! doing partitioner work, callers included, never exceeds
//! [`std::thread::available_parallelism`]. A bisection takes a slot
//! only if one is free at that moment and otherwise runs both halves
//! on its own thread, so concurrent callers (service workers mapping
//! at once) never oversubscribe the host.

use crate::coarsen::{coarsen_once, CoarseLevel};
use crate::fm::{initial_bisect, refine, side_limits, Bisection};
use crate::{Hypergraph, HypergraphBuilder, Partition, PartitionConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Partitions `hg` into `config.parts` parts by multilevel recursive
/// bisection.
///
/// # Panics
///
/// Panics if `config.parts == 0`.
pub fn partition(hg: &Hypergraph, config: &PartitionConfig) -> Partition {
    static BUSY: AtomicUsize = AtomicUsize::new(0);
    static CPUS: OnceLock<usize> = OnceLock::new();
    let cap = *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let slots = Slots { busy: &BUSY, cap };
    let _caller = slots.enter();
    partition_with(hg, config, &slots)
}

/// [`partition`] with at most `helpers` helper threads, whatever else
/// runs in the process.
#[cfg(test)]
pub(crate) fn partition_with_helpers(
    hg: &Hypergraph,
    config: &PartitionConfig,
    helpers: usize,
) -> Partition {
    let busy = AtomicUsize::new(0);
    partition_with(
        hg,
        config,
        &Slots {
            busy: &busy,
            cap: helpers,
        },
    )
}

fn partition_with(hg: &Hypergraph, config: &PartitionConfig, slots: &Slots) -> Partition {
    assert!(config.parts > 0, "need at least one part");
    Partition::new(
        recurse(hg, config.parts, config, config.seed, slots),
        config.parts,
    )
}

/// A count of threads doing partitioner work and its cap. The count
/// guards no data, it only budgets threads, so its atomics are relaxed.
struct Slots<'a> {
    busy: &'a AtomicUsize,
    cap: usize,
}

impl<'a> Slots<'a> {
    /// Counts the calling thread in until the guard drops, even past
    /// the cap: it runs whether or not a slot is free.
    fn enter(&self) -> Slot<'a> {
        self.busy.fetch_add(1, Ordering::Relaxed);
        Slot(self.busy)
    }

    /// Takes a slot for a helper thread if one is free now; never waits.
    fn try_take(&self) -> Option<Slot<'a>> {
        self.busy
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.cap).then_some(n + 1)
            })
            .ok()
            .map(|_| Slot(self.busy))
    }
}

/// One counted thread; gives its slot back on drop.
struct Slot<'a>(&'a AtomicUsize);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Recursively bisects `hg` into `parts` parts and returns the part,
/// in `0..parts`, of each of its vertices.
fn recurse(
    hg: &Hypergraph,
    parts: usize,
    config: &PartitionConfig,
    seed: u64,
    slots: &Slots,
) -> Vec<u32> {
    let n = hg.num_vertices();
    if parts == 1 || n == 0 {
        return vec![0; n];
    }
    let p0 = parts.div_ceil(2);
    let p1 = parts - p0;
    let frac = p0 as f64 / parts as f64;

    let side = multilevel_bisect(hg, frac, config, seed);
    let (left, right): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| side[i] == 0);
    drop(side);

    // Partitions one half on the induced sub-hypergraph of its local
    // vertices; the graph lives only as long as the half's recursion.
    let half = |local: &[usize], parts: usize, salt: u64| -> Vec<u32> {
        if parts == 1 {
            return vec![0; local.len()];
        }
        recurse(
            &induced(hg, local),
            parts,
            config,
            splitmix(seed, salt),
            slots,
        )
    };
    // p0 >= p1, so p1 > 1 means both halves split again.
    let helper = if p1 > 1 { slots.try_take() } else { None };
    let (left_parts, right_parts) = match helper {
        Some(slot) => std::thread::scope(|s| {
            let (right, half) = (&right, &half);
            let handle = s.spawn(move || {
                let _slot = slot;
                half(right, p1, 2)
            });
            let left_parts = half(&left, p0, 1);
            let right_parts = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            (left_parts, right_parts)
        }),
        None => (half(&left, p0, 1), half(&right, p1, 2)),
    };

    let mut part_of = vec![0u32; n];
    for (&v, p) in left.iter().zip(left_parts) {
        part_of[v] = p;
    }
    for (&v, p) in right.iter().zip(right_parts) {
        part_of[v] = p0 as u32 + p;
    }
    part_of
}

/// One multilevel bisection: coarsen, initial-partition, refine back up.
fn multilevel_bisect(hg: &Hypergraph, frac: f64, config: &PartitionConfig, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);

    // Coarsening phase.
    let mut levels: Vec<CoarseLevel> = Vec::new();
    while let Some(lvl) = coarsen_once(levels.last().map_or(hg, |l| &l.hg), config, &mut rng) {
        levels.push(lvl);
    }
    let coarsest = levels.last().map_or(hg, |l| &l.hg);

    // Initial partitioning at the coarsest level: several tries, keep best
    // after a quick refinement.
    let limits_c = side_limits(coarsest, frac, config.epsilon);
    let mut best: Option<Bisection> = None;
    for _ in 0..config.initial_tries.max(1) {
        let side = initial_bisect(coarsest, frac, &mut rng);
        let mut bis = Bisection::new(coarsest, side);
        refine(coarsest, &mut bis, &limits_c, 1);
        if best.as_ref().is_none_or(|b| bis.cut < b.cut) {
            best = Some(bis);
        }
    }
    // azul-lint: allow(unwrap-in-pipeline) the loop above runs at least once (`max(1)`)
    let mut side = best.expect("at least one initial try").side;

    // Uncoarsening with FM at each level.
    for i in (0..levels.len()).rev() {
        let fine = if i == 0 { hg } else { &levels[i - 1].hg };
        let coarse_of = &levels[i].coarse_of;
        let mut fine_side = vec![0u8; fine.num_vertices()];
        for v in 0..fine.num_vertices() {
            fine_side[v] = side[coarse_of[v]];
        }
        let limits = side_limits(fine, frac, config.epsilon);
        let mut bis = Bisection::new(fine, fine_side);
        refine(fine, &mut bis, &limits, config.fm_passes);
        side = bis.side;
    }

    // If no coarsening happened, refine directly on hg.
    if levels.is_empty() {
        let limits = side_limits(hg, frac, config.epsilon);
        let mut bis = Bisection::new(hg, side);
        refine(hg, &mut bis, &limits, config.fm_passes);
        side = bis.side;
    }
    side
}

/// Builds the sub-hypergraph induced on `keep` (local vertex ids of the
/// parent), dropping nets with fewer than 2 surviving pins.
fn induced(hg: &Hypergraph, keep: &[usize]) -> Hypergraph {
    let mut local = vec![usize::MAX; hg.num_vertices()];
    for (new, &old) in keep.iter().enumerate() {
        local[old] = new;
    }
    let mut b = HypergraphBuilder::new(hg.num_constraints());
    for &old in keep {
        b.add_vertex(hg.vertex_weights(old));
    }
    let mut buf: Vec<usize> = Vec::new();
    for e in 0..hg.num_nets() {
        buf.clear();
        for &p in hg.pins(e) {
            if local[p] != usize::MAX {
                buf.push(local[p]);
            }
        }
        if buf.len() >= 2 {
            b.add_net(hg.net_weight(e), &buf)
                // azul-lint: allow(unwrap-in-pipeline) pins come from the side's own remap table
                .expect("induced pins are valid");
        }
    }
    // azul-lint: allow(unwrap-in-pipeline) builder saw only validated nets, finalize cannot fail
    b.finalize().expect("induced hypergraph is well-formed")
}

/// SplitMix64 step for deriving child seeds deterministically.
fn splitmix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E3779B97F4A7C15))
        .wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A ring of `n` vertices with 2-pin nets.
    fn ring(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new(1);
        for _ in 0..n {
            b.add_vertex(&[1]);
        }
        for i in 0..n {
            b.add_net(1, &[i, (i + 1) % n]).unwrap();
        }
        b.finalize().unwrap()
    }

    #[test]
    fn ring_bisection_is_near_optimal() {
        let hg = ring(64);
        let p = partition(&hg, &PartitionConfig::bisection());
        // Optimal ring bisection cuts exactly 2 nets; allow small slack.
        assert!(
            p.connectivity_cut(&hg) <= 4,
            "cut {}",
            p.connectivity_cut(&hg)
        );
        assert!(p.imbalance(&hg, 0) <= 0.15);
    }

    #[test]
    fn four_way_ring_partition() {
        let hg = ring(128);
        let p = partition(&hg, &PartitionConfig::k_way(4));
        assert!(
            p.connectivity_cut(&hg) <= 8,
            "cut {}",
            p.connectivity_cut(&hg)
        );
        assert!(
            p.imbalance(&hg, 0) <= 0.25,
            "imbalance {}",
            p.imbalance(&hg, 0)
        );
        // All parts used.
        let w = p.part_weights(&hg, 0);
        assert!(w.iter().all(|&x| x > 0));
    }

    #[test]
    fn non_power_of_two_parts() {
        let hg = ring(90);
        let p = partition(&hg, &PartitionConfig::k_way(3));
        let w = p.part_weights(&hg, 0);
        assert_eq!(w.iter().sum::<u64>(), 90);
        assert!(
            p.imbalance(&hg, 0) <= 0.3,
            "imbalance {}",
            p.imbalance(&hg, 0)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let hg = ring(50);
        let cfg = PartitionConfig::k_way(4);
        let p1 = partition(&hg, &cfg);
        let p2 = partition(&hg, &cfg);
        assert_eq!(p1.assignment(), p2.assignment());
    }

    #[test]
    fn single_part_is_trivial() {
        let hg = ring(10);
        let p = partition(&hg, &PartitionConfig::k_way(1));
        assert!(p.assignment().iter().all(|&x| x == 0));
        assert_eq!(p.connectivity_cut(&hg), 0);
    }

    #[test]
    fn more_parts_than_vertices() {
        let hg = ring(4);
        let p = partition(&hg, &PartitionConfig::k_way(8));
        // Every vertex assigned to a valid part; no panic.
        assert!(p.assignment().iter().all(|&x| (x as usize) < 8));
    }

    #[test]
    fn multi_constraint_balance_is_respected() {
        // 40 vertices; constraint 1 is concentrated on the first 10
        // vertices. A 2-way partition must split that subset too.
        let mut b = HypergraphBuilder::new(2);
        for i in 0..40 {
            b.add_vertex(&[1, u64::from(i < 10)]);
        }
        // Chain nets.
        for i in 0..39 {
            b.add_net(1, &[i, i + 1]).unwrap();
        }
        let hg = b.finalize().unwrap();
        let mut cfg = PartitionConfig::bisection();
        cfg.epsilon = 0.2;
        let p = partition(&hg, &cfg);
        // Constraint 1 total = 10; each side should get some of it.
        let w1 = p.part_weights(&hg, 1);
        assert!(
            w1[0] >= 2 && w1[1] >= 2,
            "time-balance constraint violated: {w1:?}"
        );
    }

    /// Part counts the equality property runs: trivial, one bisection,
    /// one split half, odd splits at every level, and an 8×8 grid.
    const PARTS: [usize; 5] = [1, 2, 3, 7, 64];
    const EQUALITY_CASES: u32 = 96;

    /// A seeded random hypergraph: 0–120 vertices, 1–3 constraints with
    /// weights 0–5, nets of 2–6 pins. One graph in four has all-zero
    /// weights, where a cut-free bisection may leave one side empty.
    fn random_hypergraph(seed: u64) -> Hypergraph {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let c = rng.gen_range(1..=3usize);
        let n = rng.gen_range(0..=120usize);
        let zero = rng.gen_range(0..4usize) == 0;
        let mut b = HypergraphBuilder::new(c);
        for _ in 0..n {
            let w: Vec<u64> = (0..c)
                .map(|_| if zero { 0 } else { rng.gen_range(0..=5u64) })
                .collect();
            b.add_vertex(&w);
        }
        if n >= 2 {
            for _ in 0..rng.gen_range(1..=3 * n) {
                let size = rng.gen_range(2..=6usize).min(n);
                let pins: Vec<usize> = (0..size).map(|_| rng.gen_range(0..n)).collect();
                b.add_net(rng.gen_range(1..=4u64), &pins).unwrap();
            }
        }
        b.finalize().unwrap()
    }

    fn arb_case() -> impl Strategy<Value = (Hypergraph, usize, u64)> {
        (0u64..u64::MAX, 0..PARTS.len(), 0u64..u64::MAX)
            .prop_map(|(graph, ix, seed)| (random_hypergraph(graph), PARTS[ix], seed))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(EQUALITY_CASES))]

        /// Helper threads change no assignment: a budget of 0 (serial)
        /// and budgets of 1 and 3 give the same parts.
        #[test]
        fn helper_budget_does_not_change_the_partition(case in arb_case()) {
            let (hg, parts, seed) = case;
            let mut cfg = PartitionConfig::k_way(parts);
            cfg.seed = seed;
            let serial = partition_with_helpers(&hg, &cfg, 0);
            for helpers in [1, 3] {
                let threaded = partition_with_helpers(&hg, &cfg, helpers);
                prop_assert_eq!(
                    threaded.assignment(),
                    serial.assignment(),
                    "{} helpers, n={} parts={parts}",
                    helpers,
                    hg.num_vertices()
                );
            }
        }
    }

    /// The equality cases include every shape the property must cover:
    /// several constraints, more parts than vertices, a top bisection
    /// with an empty side, and splits where both halves split again (the
    /// threaded path).
    #[test]
    fn equality_cases_cover_the_edge_shapes() {
        let mut rng = proptest::test_runner::TestRng::deterministic();
        let (mut multi, mut over, mut empty_side, mut threaded) = (0, 0, 0, 0);
        for _ in 0..EQUALITY_CASES {
            let (hg, parts, seed) = arb_case().generate(&mut rng);
            let n = hg.num_vertices();
            multi += usize::from(hg.num_constraints() > 1);
            over += usize::from(parts > n);
            threaded += usize::from(parts >= 4 && n >= 4);
            if parts >= 2 && n >= 2 {
                let mut cfg = PartitionConfig::k_way(parts);
                cfg.seed = seed;
                let p = partition_with_helpers(&hg, &cfg, 0);
                let p0 = parts.div_ceil(2) as u32;
                let left = p.assignment().iter().filter(|&&x| x < p0).count();
                empty_side += usize::from(left == 0 || left == n);
            }
        }
        assert!(
            multi > 0 && over > 0 && empty_side > 0 && threaded > 0,
            "multi {multi} over {over} empty side {empty_side} threaded {threaded}"
        );
    }

    #[test]
    fn induced_subgraph_drops_external_nets() {
        let hg = ring(6);
        let sub = induced(&hg, &[0, 1, 2]);
        assert_eq!(sub.num_vertices(), 3);
        // Ring nets (0,1),(1,2) survive; (2,3),(5,0) drop to 1 pin.
        assert_eq!(sub.num_nets(), 2);
    }
}
