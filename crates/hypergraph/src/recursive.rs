//! Multilevel recursive bisection into k parts.

use crate::coarsen::{coarsen_once, CoarseLevel};
use crate::fm::{initial_bisect, refine, side_limits, Bisection};
use crate::{Hypergraph, HypergraphBuilder, Partition, PartitionConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Partitions `hg` into `config.parts` parts by multilevel recursive
/// bisection.
///
/// # Panics
///
/// Panics if `config.parts == 0`.
pub fn partition(hg: &Hypergraph, config: &PartitionConfig) -> Partition {
    assert!(config.parts > 0, "need at least one part");
    let n = hg.num_vertices();
    let mut part_of = vec![0u32; n];
    let ids: Vec<usize> = (0..n).collect();
    recurse(hg, &ids, config.parts, 0, config, config.seed, &mut part_of);
    Partition::new(part_of, config.parts)
}

/// Recursively bisects the sub-hypergraph induced on `vertex_ids`
/// (identities into the root hypergraph), assigning parts
/// `offset..offset+parts`.
fn recurse(
    hg: &Hypergraph,
    vertex_ids: &[usize],
    parts: usize,
    offset: usize,
    config: &PartitionConfig,
    seed: u64,
    part_of: &mut [u32],
) {
    if parts == 1 || vertex_ids.is_empty() {
        for &v in vertex_ids {
            part_of[v] = offset as u32;
        }
        return;
    }
    let p0 = parts.div_ceil(2);
    let p1 = parts - p0;
    let frac = p0 as f64 / parts as f64;

    let side = multilevel_bisect(hg, frac, config, seed);

    // Split vertices and recurse on induced sub-hypergraphs.
    let mut left: Vec<usize> = Vec::new();
    let mut right: Vec<usize> = Vec::new();
    for (i, &v) in vertex_ids.iter().enumerate() {
        if side[i] == 0 {
            left.push(v);
        } else {
            right.push(v);
        }
    }
    let left_local: Vec<usize> = (0..side.len()).filter(|&i| side[i] == 0).collect();
    let right_local: Vec<usize> = (0..side.len()).filter(|&i| side[i] == 1).collect();

    if p0 > 1 {
        let sub = induced(hg, &left_local);
        recurse(&sub, &left, p0, offset, config, splitmix(seed, 1), part_of);
    } else {
        for &v in &left {
            part_of[v] = offset as u32;
        }
    }
    if p1 > 1 {
        let sub = induced(hg, &right_local);
        recurse(
            &sub,
            &right,
            p1,
            offset + p0,
            config,
            splitmix(seed, 2),
            part_of,
        );
    } else {
        for &v in &right {
            part_of[v] = (offset + p0) as u32;
        }
    }
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

    #[test]
    fn induced_subgraph_drops_external_nets() {
        let hg = ring(6);
        let sub = induced(&hg, &[0, 1, 2]);
        assert_eq!(sub.num_vertices(), 3);
        // Ring nets (0,1),(1,2) survive; (2,3),(5,0) drop to 1 pin.
        assert_eq!(sub.num_nets(), 2);
    }
}
