//! Two-way Fiduccia–Mattheyses refinement and greedy initial bisection.
//!
//! The FM pass moves boundary vertices between the two sides in
//! best-gain-first order, allowing negative-gain moves to escape local
//! minima, then rolls back to the best prefix seen. Balance is enforced
//! against per-constraint side limits (the multi-constraint mechanism that
//! implements the paper's time-balancing quantiles).
//!
//! Gains are maintained incrementally: each move adjusts the gains of the
//! pins it affects by a delta read off the net's pin counts, and an
//! indexed max-heap re-keys them in place. Vertices that the balance
//! limits currently forbid wait outside the heap until a move changes the
//! side weights.

use crate::Hypergraph;
use rand::rngs::SmallRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Per-constraint side capacity: `limits[k][s]` is the maximum total
/// weight of constraint `k` allowed on side `s`.
pub type SideLimits = Vec<[u64; 2]>;

/// Computes side limits for a bisection where side 0 targets fraction
/// `frac` of every constraint, with `epsilon` slack plus one max vertex
/// weight of headroom (so a single heavy vertex can never wedge the
/// refinement).
pub fn side_limits(hg: &Hypergraph, frac: f64, epsilon: f64) -> SideLimits {
    let c = hg.num_constraints();
    let totals = hg.total_weights();
    let mut max_vw = vec![0u64; c];
    for v in 0..hg.num_vertices() {
        for (k, m) in max_vw.iter_mut().enumerate() {
            *m = (*m).max(hg.vertex_weight(v, k));
        }
    }
    (0..c)
        .map(|k| {
            let t = totals[k] as f64;
            let l0 = (t * frac * (1.0 + epsilon)).ceil() as u64 + max_vw[k];
            let l1 = (t * (1.0 - frac) * (1.0 + epsilon)).ceil() as u64 + max_vw[k];
            [l0, l1]
        })
        .collect()
}

/// State of a 2-way partition under refinement.
#[derive(Debug, Clone)]
pub struct Bisection {
    /// Side (0/1) of each vertex.
    pub side: Vec<u8>,
    /// Connectivity cut of the current assignment (for 2 ways this equals
    /// the plain cut: each cut net counts its weight once).
    pub cut: u64,
    /// Per-side weight for each constraint: `weights[k][s]`.
    pub weights: Vec<[u64; 2]>,
    /// `pins_on[e][s]` = pins of net `e` on side `s`.
    pins_on: Vec<[u32; 2]>,
}

impl Bisection {
    /// Builds bisection state from an assignment.
    ///
    /// # Panics
    ///
    /// Panics if `side.len() != hg.num_vertices()`.
    pub fn new(hg: &Hypergraph, side: Vec<u8>) -> Self {
        assert_eq!(side.len(), hg.num_vertices(), "assignment size mismatch");
        let c = hg.num_constraints();
        let mut weights = vec![[0u64; 2]; c];
        for (v, &s) in side.iter().enumerate() {
            for (k, w) in weights.iter_mut().enumerate() {
                w[s as usize] += hg.vertex_weight(v, k);
            }
        }
        let mut pins_on = vec![[0u32; 2]; hg.num_nets()];
        let mut cut = 0u64;
        #[allow(clippy::needless_range_loop)] // index used across several structures
        for e in 0..hg.num_nets() {
            for &p in hg.pins(e) {
                pins_on[e][side[p] as usize] += 1;
            }
            if pins_on[e][0] > 0 && pins_on[e][1] > 0 {
                cut += hg.net_weight(e);
            }
        }
        Bisection {
            side,
            cut,
            weights,
            pins_on,
        }
    }

    /// FM gain of moving vertex `v` to the other side: positive gains
    /// reduce the cut.
    fn gain(&self, hg: &Hypergraph, v: usize) -> i64 {
        let from = self.side[v] as usize;
        let to = 1 - from;
        let mut g = 0i64;
        for &e in hg.nets_of(v) {
            let w = hg.net_weight(e) as i64;
            if self.pins_on[e][from] == 1 {
                g += w; // net becomes uncut
            }
            if self.pins_on[e][to] == 0 {
                g -= w; // net becomes cut
            }
        }
        g
    }

    /// Total weight by which any side exceeds any constraint limit.
    pub fn overflow(&self, limits: &SideLimits) -> u64 {
        self.weights
            .iter()
            .zip(limits)
            .map(|(w, l)| w[0].saturating_sub(l[0]) + w[1].saturating_sub(l[1]))
            .sum()
    }

    /// Whether moving `v` is allowed, given the partition's current
    /// [`Bisection::overflow`]: either nothing is over a limit and the
    /// destination stays within every limit, or the partition is
    /// over-limit and the move does not increase total overflow (balance
    /// repair).
    fn move_allowed(&self, hg: &Hypergraph, v: usize, limits: &SideLimits, overflow: u64) -> bool {
        let from = self.side[v] as usize;
        let to = 1 - from;
        let mut per_constraint = self.weights.iter().zip(limits).zip(hg.vertex_weights(v));
        if overflow == 0 {
            return per_constraint.all(|((w, l), &vw)| w[to] + vw <= l[to]);
        }
        let after: u64 = per_constraint
            .map(|((w, l), &vw)| {
                (w[from] - vw).saturating_sub(l[from]) + (w[to] + vw).saturating_sub(l[to])
            })
            .sum();
        after <= overflow
    }

    /// Applies the move of `v`, updating cut, weights and pin counts.
    fn apply_move(&mut self, hg: &Hypergraph, v: usize) {
        let from = self.side[v] as usize;
        let to = 1 - from;
        for &e in hg.nets_of(v) {
            let w = hg.net_weight(e);
            let before = self.pins_on[e];
            self.pins_on[e][from] -= 1;
            self.pins_on[e][to] += 1;
            let after = self.pins_on[e];
            // Cut transitions.
            if before[to] == 0 && after[to] > 0 && after[from] > 0 {
                self.cut += w;
            }
            if before[from] > 0 && after[from] == 0 && before[to] > 0 {
                self.cut -= w;
            }
        }
        for (k, w) in self.weights.iter_mut().enumerate() {
            let vw = hg.vertex_weight(v, k);
            w[from] -= vw;
            w[to] += vw;
        }
        self.side[v] = to as u8;
    }
}

/// Runs `passes` FM passes, mutating `bis` in place. Returns the final cut.
///
/// Each step moves the unlocked vertex with the largest
/// `(gain, Reverse(vertex))` among those the balance limits allow under
/// the current side weights; a pass ends when no unlocked vertex is
/// allowed, then rolls back to its best prefix.
pub fn refine(hg: &Hypergraph, bis: &mut Bisection, limits: &SideLimits, passes: usize) -> u64 {
    refine_with(hg, bis, limits, passes, |_| {})
}

/// [`refine`], calling `on_move(v)` for every move in order (including
/// moves a rollback later undoes).
fn refine_with(
    hg: &Hypergraph,
    bis: &mut Bisection,
    limits: &SideLimits,
    passes: usize,
    mut on_move: impl FnMut(usize),
) -> u64 {
    let n = hg.num_vertices();
    let mut gain = vec![0i64; n];
    // Per-move gain changes, summed per vertex before any re-keying.
    let mut delta = vec![0i64; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut heap = GainHeap::new(n);
    let mut locked = vec![false; n];
    // Unlocked vertices outside the heap because their move is not
    // allowed, grouped by (weight vector, side): `move_allowed` sees a
    // vertex only through those, so one check decides a whole group.
    let group_of = weight_classes(hg);
    let mut deferred: Vec<Vec<usize>> =
        vec![Vec::new(); 2 * group_of.iter().max().map_or(0, |&g| g + 1)];
    // Groups with members, in order of first deferral.
    let mut waiting: Vec<usize> = Vec::new();
    // Move log for rollback.
    let mut log: Vec<usize> = Vec::new();

    for _ in 0..passes {
        // Best prefix minimizes (overflow, cut) lexicographically, so the
        // pass both repairs balance violations and improves the cut.
        let mut overflow = bis.overflow(limits);
        let start_key = (overflow, bis.cut);
        locked.fill(false);
        for (v, g) in gain.iter_mut().enumerate() {
            *g = bis.gain(hg, v);
        }
        heap.fill(&gain);
        for g in waiting.drain(..) {
            deferred[g].clear();
        }
        log.clear();
        let mut best_key = start_key;
        let mut best_len = 0usize;

        while let Some(v) = heap.pop(&gain) {
            debug_assert_eq!(gain[v], bis.gain(hg, v));
            if !bis.move_allowed(hg, v, limits, overflow) {
                let g = 2 * group_of[v] + bis.side[v] as usize;
                if deferred[g].is_empty() {
                    waiting.push(g);
                }
                deferred[g].push(v);
                continue;
            }
            locked[v] = true;
            // Gain deltas of the other unlocked pins, from each net's pin
            // counts before the move: `a` on the source side, `b` on the
            // destination. A pin staying on the source gains `w` if it
            // becomes the net's only source pin (`a == 2`), and `w` if the
            // destination was empty (`b == 0`), since moving it no longer
            // cuts the net. A pin on the destination loses `w` if it was
            // the net's only pin there (`b == 1`), and `w` if `v` was the
            // last source pin (`a == 1`), since moving it would now cut the
            // net. Nets with `a > 2` and `b > 1` change no gain.
            let from = bis.side[v] as usize;
            for &e in hg.nets_of(v) {
                let [a, b] = [bis.pins_on[e][from], bis.pins_on[e][1 - from]];
                if a > 2 && b > 1 {
                    continue;
                }
                let w = hg.net_weight(e) as i64;
                let on_from = w * (i64::from(a == 2) + i64::from(b == 0));
                let on_to = -w * (i64::from(b == 1) + i64::from(a == 1));
                for &u in hg.pins(e) {
                    let d = if bis.side[u] as usize == from {
                        on_from
                    } else {
                        on_to
                    };
                    if d != 0 && !locked[u] {
                        if delta[u] == 0 {
                            touched.push(u);
                        }
                        delta[u] += d;
                    }
                }
            }
            bis.apply_move(hg, v);
            on_move(v);
            log.push(v);
            overflow = bis.overflow(limits);
            let key = (overflow, bis.cut);
            if key < best_key {
                best_key = key;
                best_len = log.len();
            }
            // One key change at a time: the heap is only consistent again
            // once the changed vertex is sifted.
            for u in touched.drain(..) {
                let d = std::mem::take(&mut delta[u]);
                if d != 0 {
                    gain[u] += d;
                    heap.update(u, &gain);
                }
            }
            // The side weights changed, so deferred vertices may now fit.
            waiting.retain(|&g| {
                if !bis.move_allowed(hg, deferred[g][0], limits, overflow) {
                    return true;
                }
                for u in deferred[g].drain(..) {
                    heap.push(u, &gain);
                }
                false
            });
        }

        // Roll back to the best prefix.
        for &v in log[best_len..].iter().rev() {
            bis.apply_move(hg, v);
        }
        debug_assert_eq!((bis.overflow(limits), bis.cut), best_key);
        if best_key >= start_key {
            break; // no improvement this pass
        }
    }
    bis.cut
}

/// Numbers the distinct vertex weight vectors in order of first
/// appearance and returns each vertex's number.
fn weight_classes(hg: &Hypergraph) -> Vec<usize> {
    let mut ids: BTreeMap<&[u64], usize> = BTreeMap::new();
    (0..hg.num_vertices())
        .map(|v| {
            let next = ids.len();
            *ids.entry(hg.vertex_weights(v)).or_insert(next)
        })
        .collect()
}

/// Max-heap of vertices keyed by `(gain[v], Reverse(v))`, with a position
/// map so a vertex can be re-keyed in place. The keys live in the caller's
/// gain array: after changing one vertex's gain, [`GainHeap::update`] it
/// before changing another.
struct GainHeap {
    heap: Vec<usize>,
    /// `pos[v]` is the index of `v` in `heap`, or [`GainHeap::ABSENT`].
    pos: Vec<usize>,
}

impl GainHeap {
    const ABSENT: usize = usize::MAX;

    fn new(n: usize) -> Self {
        GainHeap {
            heap: Vec::with_capacity(n),
            pos: vec![Self::ABSENT; n],
        }
    }

    /// Refills the heap with every vertex (heapify, linear time).
    fn fill(&mut self, gain: &[i64]) {
        self.heap.clear();
        self.heap.extend(0..gain.len());
        for (v, p) in self.pos.iter_mut().enumerate() {
            *p = v;
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, gain);
        }
    }

    fn push(&mut self, v: usize, gain: &[i64]) {
        debug_assert_eq!(self.pos[v], Self::ABSENT);
        self.heap.push(v);
        self.pos[v] = self.heap.len() - 1;
        self.sift_up(self.heap.len() - 1, gain);
    }

    fn pop(&mut self, gain: &[i64]) -> Option<usize> {
        let top = *self.heap.first()?;
        // azul-lint: allow(unwrap-in-pipeline) the heap holds `top`, so it is non-empty
        let last = self.heap.pop().unwrap();
        self.pos[top] = Self::ABSENT;
        if last != top {
            self.place(0, last);
            self.sift_down(0, gain);
        }
        Some(top)
    }

    /// Restores heap order after `gain[v]` changed; no-op for a vertex
    /// outside the heap.
    fn update(&mut self, v: usize, gain: &[i64]) {
        let i = self.pos[v];
        if i != Self::ABSENT {
            let i = self.sift_up(i, gain);
            self.sift_down(i, gain);
        }
    }

    fn above(gain: &[i64], a: usize, b: usize) -> bool {
        (gain[a], Reverse(a)) > (gain[b], Reverse(b))
    }

    fn place(&mut self, i: usize, v: usize) {
        self.heap[i] = v;
        self.pos[v] = i;
    }

    /// Moves the vertex at index `i` up to its place; returns its new index.
    fn sift_up(&mut self, mut i: usize, gain: &[i64]) -> usize {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !Self::above(gain, v, p) {
                break;
            }
            self.place(i, p);
            i = parent;
        }
        self.place(i, v);
        i
    }

    fn sift_down(&mut self, mut i: usize, gain: &[i64]) {
        let v = self.heap[i];
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && Self::above(gain, self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !Self::above(gain, c, v) {
                break;
            }
            self.place(i, c);
            i = child;
        }
        self.place(i, v);
    }
}

/// Greedy BFS-grown initial bisection targeting fraction `frac` of
/// constraint-0 weight on side 0.
pub fn initial_bisect(hg: &Hypergraph, frac: f64, rng: &mut SmallRng) -> Vec<u8> {
    let n = hg.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let total0: u64 = (0..n).map(|v| hg.vertex_weight(v, 0)).sum();
    let target0 = (total0 as f64 * frac) as u64;

    let mut side = vec![1u8; n];
    let mut w0 = 0u64;
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    let start = rng.gen_range(0..n);
    queue.push_back(start);
    visited[start] = true;
    let mut scan = 0usize; // fallback cursor for disconnected graphs

    while w0 < target0 {
        let v = match queue.pop_front() {
            Some(v) => v,
            None => {
                // Jump to the next unvisited vertex.
                while scan < n && visited[scan] {
                    scan += 1;
                }
                if scan >= n {
                    break;
                }
                visited[scan] = true;
                scan
            }
        };
        side[v] = 0;
        w0 += hg.vertex_weight(v, 0);
        for &e in hg.nets_of(v) {
            let pins = hg.pins(e);
            if pins.len() > 256 {
                continue; // huge nets give no locality signal
            }
            for &u in pins {
                if !visited[u] {
                    visited[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    side
}

/// The lazy-heap FM pass that [`refine`] replaced, kept as a test oracle:
/// after every move it recomputes the gain of each pin on a net whose
/// pin counts crossed a gain-relevant threshold, re-pushes every
/// deferred vertex, and skips stale heap entries by version stamp.
#[cfg(test)]
mod reference {
    use super::{Bisection, SideLimits};
    use crate::Hypergraph;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    pub fn refine_with(
        hg: &Hypergraph,
        bis: &mut Bisection,
        limits: &SideLimits,
        passes: usize,
        mut on_move: impl FnMut(usize),
    ) -> u64 {
        let n = hg.num_vertices();
        let mut version = vec![0u32; n];
        let mut crossed: Vec<usize> = Vec::new();

        for _ in 0..passes {
            let start_key = (bis.overflow(limits), bis.cut);
            let mut locked = vec![false; n];
            // Lazy max-heap of (gain, vertex, version-at-push).
            let mut heap: BinaryHeap<(i64, Reverse<usize>, u32)> = BinaryHeap::new();
            #[allow(clippy::needless_range_loop)] // index used across several structures
            for v in 0..n {
                version[v] = version[v].wrapping_add(1);
                heap.push((bis.gain(hg, v), Reverse(v), version[v]));
            }
            let mut log: Vec<usize> = Vec::new();
            let mut best_key = start_key;
            let mut best_len = 0usize;
            let mut deferred: Vec<usize> = Vec::new();

            while let Some((g, Reverse(v), stamp)) = heap.pop() {
                if locked[v] || stamp != version[v] {
                    continue;
                }
                assert_eq!(g, bis.gain(hg, v));
                if !move_allowed(bis, hg, v, limits) {
                    deferred.push(v);
                    continue;
                }
                // Gains of other pins only change when a side count
                // crosses 0<->1 or 1<->2.
                let from = bis.side[v] as usize;
                crossed.clear();
                crossed.extend(
                    hg.nets_of(v)
                        .iter()
                        .copied()
                        .filter(|&e| bis.pins_on[e][from] <= 2 || bis.pins_on[e][1 - from] <= 1),
                );
                bis.apply_move(hg, v);
                on_move(v);
                locked[v] = true;
                log.push(v);
                let key = (bis.overflow(limits), bis.cut);
                if key < best_key {
                    best_key = key;
                    best_len = log.len();
                }
                for &e in &crossed {
                    for &u in hg.pins(e) {
                        if !locked[u] {
                            version[u] = version[u].wrapping_add(1);
                            heap.push((bis.gain(hg, u), Reverse(u), version[u]));
                        }
                    }
                }
                for u in deferred.drain(..) {
                    if !locked[u] {
                        version[u] = version[u].wrapping_add(1);
                        heap.push((bis.gain(hg, u), Reverse(u), version[u]));
                    }
                }
            }

            while log.len() > best_len {
                let v = log.pop().unwrap();
                bis.apply_move(hg, v);
            }
            if best_key >= start_key {
                break;
            }
        }
        bis.cut
    }

    /// The balance rule as first written, recomputing the overflow for
    /// every vertex: either the destination stays within every limit, or
    /// the partition is currently over-limit and the move does not
    /// increase total overflow (balance repair).
    fn move_allowed(bis: &Bisection, hg: &Hypergraph, v: usize, limits: &SideLimits) -> bool {
        let from = bis.side[v] as usize;
        let to = 1 - from;
        let mut over_before = 0u64;
        let mut over_after = 0u64;
        let mut dest_fits = true;
        for (k, w) in bis.weights.iter().enumerate() {
            let vw = hg.vertex_weight(v, k);
            let l = limits[k];
            over_before += w[from].saturating_sub(l[from]) + w[to].saturating_sub(l[to]);
            let nf = w[from] - vw;
            let nt = w[to] + vw;
            over_after += nf.saturating_sub(l[from]) + nt.saturating_sub(l[to]);
            if nt > l[to] {
                dest_fits = false;
            }
        }
        if over_before == 0 {
            dest_fits
        } else {
            over_after <= over_before
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;
    use rand::SeedableRng;

    /// A seeded random hypergraph with 1–4 constraints, vertex weights
    /// that may be zero, and nets of 2–6 pins. Half the graphs draw their
    /// weight vectors from a palette of three, like the mapper's finest
    /// levels, so deferred vertices share weight groups.
    fn random_hypergraph(rng: &mut SmallRng) -> Hypergraph {
        let c = rng.gen_range(1..=4usize);
        let n = rng.gen_range(2..=80usize);
        let mut b = HypergraphBuilder::new(c);
        let weights =
            |rng: &mut SmallRng| -> Vec<u64> { (0..c).map(|_| rng.gen_range(0..=5u64)).collect() };
        let palette: Vec<Vec<u64>> = (0..3).map(|_| weights(rng)).collect();
        let use_palette = rng.gen_bool(0.5);
        for _ in 0..n {
            let w = if use_palette {
                palette[rng.gen_range(0..3usize)].clone()
            } else {
                weights(rng)
            };
            b.add_vertex(&w);
        }
        for _ in 0..rng.gen_range(1..=3 * n) {
            let size = rng.gen_range(2..=6usize).min(n);
            let pins: Vec<usize> = (0..size).map(|_| rng.gen_range(0..n)).collect();
            b.add_net(rng.gen_range(1..=4u64), &pins).unwrap();
        }
        b.finalize().unwrap()
    }

    #[test]
    fn incremental_refine_matches_the_lazy_heap_reference() {
        let mut overflowing_starts = 0;
        for seed in 0..2000u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let hg = random_hypergraph(&mut rng);
            let frac = rng.gen_range(0.2..0.8);
            let epsilon = [0.0, 0.05, 0.3][rng.gen_range(0..3usize)];
            let limits = side_limits(&hg, frac, epsilon);
            // Lopsided starts put most weight on one side, often past
            // its limit, so the passes exercise balance repair too.
            let p0 = [0.5, 0.9, 0.1, 1.0][rng.gen_range(0..4usize)];
            let side: Vec<u8> = (0..hg.num_vertices())
                .map(|_| u8::from(!rng.gen_bool(p0)))
                .collect();
            let passes = rng.gen_range(1..=4usize);
            let start = Bisection::new(&hg, side);
            if start.overflow(&limits) > 0 {
                overflowing_starts += 1;
            }

            let mut want = start.clone();
            let mut want_moves = Vec::new();
            let want_cut =
                reference::refine_with(&hg, &mut want, &limits, passes, |v| want_moves.push(v));
            let mut got = start;
            let mut got_moves = Vec::new();
            let got_cut = refine_with(&hg, &mut got, &limits, passes, |v| got_moves.push(v));

            assert_eq!(got_moves, want_moves, "move order, seed {seed}");
            assert_eq!(got.side, want.side, "sides, seed {seed}");
            assert_eq!(got_cut, want_cut, "cut, seed {seed}");
            assert_eq!(got.weights, want.weights, "weights, seed {seed}");
        }
        assert!(
            overflowing_starts > 250,
            "{overflowing_starts} overflowing starts"
        );
    }

    /// Two dense clusters of 8 vertices joined by one bridge net.
    fn two_clusters() -> Hypergraph {
        let mut b = HypergraphBuilder::new(1);
        for _ in 0..16 {
            b.add_vertex(&[1]);
        }
        for cluster in 0..2 {
            let base = cluster * 8;
            for i in 0..8 {
                for j in (i + 1)..8 {
                    b.add_net(1, &[base + i, base + j]).unwrap();
                }
            }
        }
        b.add_net(1, &[7, 8]).unwrap(); // bridge
        b.finalize().unwrap()
    }

    #[test]
    fn fm_finds_the_bridge_cut() {
        let hg = two_clusters();
        let mut rng = SmallRng::seed_from_u64(11);
        let limits = side_limits(&hg, 0.5, 0.1);
        let mut best = u64::MAX;
        for _ in 0..4 {
            let side = initial_bisect(&hg, 0.5, &mut rng);
            let mut bis = Bisection::new(&hg, side);
            refine(&hg, &mut bis, &limits, 3);
            best = best.min(bis.cut);
        }
        assert_eq!(best, 1, "optimal cut is the single bridge net");
    }

    #[test]
    fn bisection_state_counts_cut_correctly() {
        let mut b = HypergraphBuilder::new(1);
        for _ in 0..4 {
            b.add_vertex(&[1]);
        }
        b.add_net(5, &[0, 1]).unwrap();
        b.add_net(3, &[1, 2]).unwrap();
        b.add_net(2, &[2, 3]).unwrap();
        let hg = b.finalize().unwrap();
        let bis = Bisection::new(&hg, vec![0, 0, 1, 1]);
        assert_eq!(bis.cut, 3);
        assert_eq!(bis.weights[0], [2, 2]);
    }

    #[test]
    fn gains_match_cut_deltas() {
        let hg = two_clusters();
        let mut rng = SmallRng::seed_from_u64(3);
        let side = initial_bisect(&hg, 0.5, &mut rng);
        let bis = Bisection::new(&hg, side.clone());
        for v in 0..hg.num_vertices() {
            let g = bis.gain(&hg, v);
            let mut test = bis.clone();
            let before = test.cut;
            test.apply_move(&hg, v);
            assert_eq!(
                before as i64 - test.cut as i64,
                g,
                "gain mismatch for vertex {v}"
            );
        }
    }

    #[test]
    fn move_is_involutive() {
        let hg = two_clusters();
        let bis0 = Bisection::new(&hg, vec![0; 16]);
        let mut bis = bis0.clone();
        bis.apply_move(&hg, 3);
        bis.apply_move(&hg, 3);
        assert_eq!(bis.cut, bis0.cut);
        assert_eq!(bis.side, bis0.side);
        assert_eq!(bis.weights, bis0.weights);
    }

    #[test]
    fn refinement_respects_limits() {
        let hg = two_clusters();
        let limits = side_limits(&hg, 0.5, 0.1);
        let mut rng = SmallRng::seed_from_u64(7);
        let side = initial_bisect(&hg, 0.5, &mut rng);
        let mut bis = Bisection::new(&hg, side);
        refine(&hg, &mut bis, &limits, 3);
        for (k, w) in bis.weights.iter().enumerate() {
            assert!(w[0] <= limits[k][0], "side 0 over limit");
            assert!(w[1] <= limits[k][1], "side 1 over limit");
        }
    }

    #[test]
    fn initial_bisect_hits_target_fraction() {
        let hg = two_clusters();
        let mut rng = SmallRng::seed_from_u64(9);
        let side = initial_bisect(&hg, 0.5, &mut rng);
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!((6..=10).contains(&w0), "side 0 has {w0} of 16");
    }

    #[test]
    fn side_limits_leave_headroom_for_heavy_vertices() {
        let mut b = HypergraphBuilder::new(1);
        b.add_vertex(&[100]);
        b.add_vertex(&[1]);
        b.add_net(1, &[0, 1]).unwrap();
        let hg = b.finalize().unwrap();
        let limits = side_limits(&hg, 0.5, 0.0);
        // The heavy vertex must fit on either side.
        assert!(limits[0][0] >= 100);
        assert!(limits[0][1] >= 100);
    }
}
