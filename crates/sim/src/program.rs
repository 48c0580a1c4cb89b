//! Compilation of kernels into per-tile dataflow task programs
//! (Sec. IV-A, IV-D).
//!
//! A [`Program`] is everything the machine needs to run one kernel:
//!
//! * per-tile entry tables for the dominant ScaleAndAccumCol task
//!   (Listing 2): contiguous `(accumulator slot, coefficient)` pairs per
//!   triggering index;
//! * accumulator-slot descriptors with `updates_remaining` counts and
//!   completion actions (send a partial, finalize an output element, or
//!   solve a variable);
//! * multicast trees for value distribution and reduction trees for
//!   partial sums (Fig. 18), built with [`CommTree`];
//! * initial tasks (SpMV's SendV; SpTRSV's dependence-free rows).
//!
//! SpMV, the lower solve `L x = b` and the transpose solve `L^T x = b` all
//! compile through one generic path over "work items"
//! `(trigger, target, coeff, tile)`: an item's FMAC fires when the
//! `trigger` value arrives and accumulates into `target`'s partial sum.

use azul_mapping::tree::CommTree;
use azul_mapping::{Placement, TileGrid, TileId};
use azul_sparse::Csr;
use azul_telemetry::span;

/// What happens when an accumulator slot's `updates_remaining` hits zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlotAction {
    /// Send the slot value up the target's reduction tree.
    SendPartial {
        /// Reduction-tree index (the target row).
        target: u32,
    },
    /// Write the slot value to output element `target` (SpMV home slots).
    FinalY {
        /// Output element index.
        target: u32,
    },
    /// Solve variable `target`: multiply by the stored reciprocal
    /// diagonal, write the output, and multicast the result (SpTRSV home
    /// slots).
    Solve {
        /// Variable index.
        target: u32,
    },
}

impl SlotAction {
    /// The row or variable index the slot accumulates.
    pub(crate) fn target(self) -> u32 {
        match self {
            SlotAction::SendPartial { target }
            | SlotAction::FinalY { target }
            | SlotAction::Solve { target } => target,
        }
    }
}

/// A per-tile accumulator slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotDesc {
    /// Updates (local FMACs + incoming partials) before completion.
    pub remaining: u32,
    /// Completion action.
    pub action: SlotAction,
    /// Whether the slot starts at `b[target]` (SpTRSV home slots) instead
    /// of zero.
    pub init_from_b: bool,
}

/// One ScaleAndAccumCol entry: `acc[slot] += coeff * incoming_value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Tile-local accumulator slot.
    pub slot: u32,
    /// Matrix coefficient.
    pub coeff: f64,
}

/// The compiled program of one tile.
#[derive(Debug, Clone, Default)]
pub struct TileProgram {
    /// ScaleAndAccumCol entry table, grouped by ascending trigger index.
    pub entries: Vec<Entry>,
    /// `(trigger, end)` for every trigger with entries on this tile,
    /// sorted by trigger: a trigger's entries run from the previous
    /// trigger's `end` (0 for the first) to its own. Read through
    /// [`TileProgram::saac_range`].
    saac: Vec<(u32, u32)>,
    /// Accumulator slots, at most one per target (homes, participants
    /// and branch combiners of the reduction tree), in ascending target
    /// order — so the slot table doubles as the target → slot lookup,
    /// [`TileProgram::combine_slot`].
    pub slots: Vec<SlotDesc>,
    /// Trigger indices whose value this tile multicasts at kernel start
    /// (SpMV SendV tasks).
    pub send_v: Vec<u32>,
    /// Variables this tile solves unconditionally at kernel start
    /// (SpTRSV rows with no dependences).
    pub initial_solves: Vec<u32>,
}

impl TileProgram {
    /// The `(start, end)` range in `entries` of the ScaleAndAccumCol task
    /// that `trigger`'s value fires on this tile, or `None` when no local
    /// entry uses it.
    pub fn saac_range(&self, trigger: u32) -> Option<(u32, u32)> {
        let k = self.saac.binary_search_by_key(&trigger, |&(t, _)| t).ok()?;
        let start = k.checked_sub(1).map_or(0, |prev| self.saac[prev].1);
        Some((start, self.saac[k].1))
    }

    /// The slot that combines `target`'s partials on this tile, if any.
    pub fn combine_slot(&self, target: u32) -> Option<u32> {
        self.slots
            .binary_search_by_key(&target, |s| s.action.target())
            .ok()
            .map(|k| k as u32)
    }
}

/// Which kernel a program implements (controls value semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramKind {
    /// `y = A x`: triggers are input-vector elements, outputs are row sums.
    Spmv,
    /// `L x = b` or `L^T x = b`: triggers are solved variables, outputs
    /// are variables; home slots start at `b`.
    Sptrsv,
}

/// A compiled kernel: per-tile programs plus the communication trees.
#[derive(Debug, Clone)]
pub struct Program {
    /// Kernel kind.
    pub kind: ProgramKind,
    /// Vector dimension.
    pub n: usize,
    /// The tile grid.
    pub grid: TileGrid,
    /// All communication trees.
    pub trees: Vec<CommTree>,
    /// Trigger index -> multicast tree (None if the value is never needed
    /// remotely).
    pub x_tree: Vec<Option<u32>>,
    /// Target index -> reduction tree (None if all work is on the home
    /// tile).
    pub partial_tree: Vec<Option<u32>>,
    /// Per-tile programs, indexed by tile id.
    pub tiles: Vec<TileProgram>,
    /// Home tile of each vector element.
    pub home: Vec<TileId>,
    /// Reciprocal diagonal values (SpTRSV only; stored as `1/d` to keep
    /// division off the critical path, Sec. VI-A).
    pub inv_diag: Vec<f64>,
    /// Total FMAC work items (for sanity checks / FLOP accounting).
    pub num_items: usize,
}

/// One unit of FMAC work for the generic compiler.
#[derive(Debug, Clone, Copy)]
struct WorkItem {
    trigger: u32,
    target: u32,
    coeff: f64,
    tile: TileId,
}

impl Program {
    /// Compiles SpMV `y = A x` for `a` under `placement`.
    ///
    /// # Panics
    ///
    /// Panics if the placement does not match `a`.
    pub fn compile_spmv(a: &Csr, placement: &Placement) -> Program {
        let mut s = span::span("compile/spmv");
        assert_eq!(a.nnz(), placement.num_nnz(), "placement/matrix mismatch");
        assert_eq!(a.rows(), placement.num_rows(), "placement/matrix mismatch");
        let items: Vec<WorkItem> = a
            .iter()
            .enumerate()
            .map(|(p, (r, c, v))| WorkItem {
                trigger: c as u32,
                target: r as u32,
                coeff: v,
                tile: placement.nnz_tile(p),
            })
            .collect();
        let prog = compile(
            ProgramKind::Spmv,
            a.rows(),
            placement,
            items,
            vec![1.0; a.rows()],
        );
        s.annotate("work_items", prog.num_items as u64);
        s.annotate("trees", prog.trees.len() as u64);
        prog
    }

    /// Compiles the lower-triangular solve `L x = b` where `l` is lower
    /// triangular with a full diagonal and shares the sparsity pattern of
    /// `tril(a_pattern)`, whose nonzeros `placement` places.
    ///
    /// # Panics
    ///
    /// Panics if patterns or placement are inconsistent, or a diagonal is
    /// missing.
    pub fn compile_sptrsv_lower(l: &Csr, a_pattern: &Csr, placement: &Placement) -> Program {
        let mut s = span::span("compile/sptrsv_lower");
        let (tile_of, inv_diag) = lower_tiles_and_diag(l, a_pattern, placement);
        let mut items = Vec::new();
        for (k, (r, c, v)) in l.iter().filter(|&(r, c, _)| c <= r).enumerate() {
            if c < r {
                items.push(WorkItem {
                    trigger: c as u32,
                    target: r as u32,
                    coeff: -v,
                    tile: tile_of[k],
                });
            }
        }
        let prog = compile(ProgramKind::Sptrsv, l.rows(), placement, items, inv_diag);
        s.annotate("work_items", prog.num_items as u64);
        s.annotate("trees", prog.trees.len() as u64);
        prog
    }

    /// Compiles the transpose solve `L^T x = b`: the entry `L_ij` (i > j)
    /// serves as `L^T_ji`, so triggers and targets swap roles relative to
    /// the lower solve while physical tiles stay the same.
    ///
    /// # Panics
    ///
    /// Panics as [`Program::compile_sptrsv_lower`] does.
    pub fn compile_sptrsv_upper(l: &Csr, a_pattern: &Csr, placement: &Placement) -> Program {
        let mut s = span::span("compile/sptrsv_upper");
        let (tile_of, inv_diag) = lower_tiles_and_diag(l, a_pattern, placement);
        let mut items = Vec::new();
        for (k, (r, c, v)) in l.iter().filter(|&(r, c, _)| c <= r).enumerate() {
            if c < r {
                items.push(WorkItem {
                    trigger: r as u32,
                    target: c as u32,
                    coeff: -v,
                    tile: tile_of[k],
                });
            }
        }
        let prog = compile(ProgramKind::Sptrsv, l.rows(), placement, items, inv_diag);
        s.annotate("work_items", prog.num_items as u64);
        s.annotate("trees", prog.trees.len() as u64);
        prog
    }

    /// The tile program of tile `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn tile(&self, t: TileId) -> &TileProgram {
        &self.tiles[t as usize]
    }
}

/// Tiles of the lower-triangle entries of `l` (in `l.iter()` order
/// restricted to `c <= r`) and the reciprocal diagonal.
fn lower_tiles_and_diag(
    l: &Csr,
    a_pattern: &Csr,
    placement: &Placement,
) -> (Vec<TileId>, Vec<f64>) {
    assert_eq!(
        a_pattern.nnz(),
        placement.num_nnz(),
        "placement/matrix mismatch"
    );
    let tile_of = placement.restrict(a_pattern, |r, c| c <= r);
    let lower_nnz = l.iter().filter(|&(r, c, _)| c <= r).count();
    assert_eq!(
        tile_of.len(),
        lower_nnz,
        "factor pattern must match tril(A) pattern"
    );
    let inv_diag: Vec<f64> = l
        .diagonal()
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            assert!(d != 0.0, "zero or missing diagonal at row {i}");
            1.0 / d
        })
        .collect();
    (tile_of, inv_diag)
}

/// The generic compiler.
fn compile(
    kind: ProgramKind,
    n: usize,
    placement: &Placement,
    items: Vec<WorkItem>,
    inv_diag: Vec<f64>,
) -> Program {
    let grid = placement.grid();
    let num_tiles = grid.num_tiles();
    let home: Vec<TileId> = placement.vec_tiles().to_vec();
    let mut tiles: Vec<TileProgram> = vec![TileProgram::default(); num_tiles];

    // One sort of the items by (tile, trigger), item order within a
    // group, orders the entry tables. Walking it tile by tile also
    // collects each trigger's tile set and each target's tile set with
    // the tile's local FMAC count (the local share of the slot's
    // `remaining`), already sorted and deduplicated.
    let mut order: Vec<(TileId, u32, u32)> = items
        .iter()
        .enumerate()
        .map(|(k, it)| (it.tile, it.trigger, k as u32))
        .collect();
    order.sort_unstable();
    let mut trigger_tiles: Vec<Vec<TileId>> = vec![Vec::new(); n];
    let mut target_tiles: Vec<Vec<(TileId, u32)>> = vec![Vec::new(); n];
    for &(tile, trigger, k) in &order {
        let tiles_of = &mut trigger_tiles[trigger as usize];
        if tiles_of.last() != Some(&tile) {
            tiles_of.push(tile);
        }
        let counts = &mut target_tiles[items[k as usize].target as usize];
        match counts.last_mut() {
            Some((t, count)) if *t == tile => *count += 1,
            _ => counts.push((tile, 1)),
        }
    }
    let local_count = |i: usize, tile: TileId| -> u32 {
        target_tiles[i]
            .binary_search_by_key(&tile, |&(t, _)| t)
            .map_or(0, |k| target_tiles[i][k].1)
    };

    // Multicast trees.
    let mut trees: Vec<CommTree> = Vec::new();
    let mut x_tree: Vec<Option<u32>> = vec![None; n];
    for j in 0..n {
        let root = home[j];
        if trigger_tiles[j].iter().any(|&t| t != root) {
            trees.push(CommTree::build(grid, root, &trigger_tiles[j]));
            x_tree[j] = Some((trees.len() - 1) as u32);
        }
    }

    // Reduction trees and slots.
    let mut partial_tree: Vec<Option<u32>> = vec![None; n];
    let mut participants: Vec<TileId> = Vec::new();
    // Appends a slot to the tile's table. Targets are visited in
    // ascending order, so every table stays sorted by target.
    let alloc_slot = |tiles: &mut Vec<TileProgram>,
                      tile: TileId,
                      remaining: u32,
                      action: SlotAction,
                      init_from_b: bool| {
        let tp = &mut tiles[tile as usize];
        debug_assert!(
            tp.slots
                .last()
                .is_none_or(|s| s.action.target() < action.target()),
            "slots are allocated in ascending target order"
        );
        tp.slots.push(SlotDesc {
            remaining,
            action,
            init_from_b,
        });
    };

    for i in 0..n {
        let root = home[i];
        participants.clear();
        participants.extend(
            target_tiles[i]
                .iter()
                .map(|&(t, _)| t)
                .filter(|&t| t != root),
        );
        let home_local = local_count(i, root);

        let home_action = match kind {
            ProgramKind::Spmv => SlotAction::FinalY { target: i as u32 },
            ProgramKind::Sptrsv => SlotAction::Solve { target: i as u32 },
        };
        let init_from_b = kind == ProgramKind::Sptrsv;

        if participants.is_empty() {
            // All work local to the home tile.
            alloc_slot(&mut tiles, root, home_local, home_action, init_from_b);
            if home_local == 0 && kind == ProgramKind::Sptrsv {
                tiles[root as usize].initial_solves.push(i as u32);
            }
            continue;
        }
        let tree = CommTree::build(grid, root, &participants);
        let tree_id = trees.len() as u32;
        // Build slots on every combining node of the tree.
        for node in tree.nodes() {
            let (t, children) = (node.tile, node.children.len() as u32);
            if t == root {
                alloc_slot(
                    &mut tiles,
                    root,
                    home_local + children,
                    home_action,
                    init_from_b,
                );
            } else if node.is_dest {
                let local = local_count(i, t);
                debug_assert!(local > 0, "tree dests hold local work");
                alloc_slot(
                    &mut tiles,
                    t,
                    local + children,
                    SlotAction::SendPartial { target: i as u32 },
                    false,
                );
            } else if children >= 2 {
                alloc_slot(
                    &mut tiles,
                    t,
                    children,
                    SlotAction::SendPartial { target: i as u32 },
                    false,
                );
            }
            // children == 1 non-dest: pure relay, router-only.
        }
        trees.push(tree);
        partial_tree[i] = Some(tree_id);
    }

    // Entry tables in (tile, trigger) order, slots already allocated.
    for &(tile, trigger, k) in &order {
        let tp = &mut tiles[tile as usize];
        let it = &items[k as usize];
        let slot = tp
            .combine_slot(it.target)
            // azul-lint: allow(unwrap-in-pipeline) compile allocated a slot for every local target just above
            .expect("slot allocated for every local target");
        tp.entries.push(Entry {
            slot,
            coeff: it.coeff,
        });
        let end = tp.entries.len() as u32;
        match tp.saac.last_mut() {
            Some(row) if row.0 == trigger => row.1 = end,
            _ => tp.saac.push((trigger, end)),
        }
    }

    // Initial SendV tasks (SpMV): every trigger whose value is consumed.
    if kind == ProgramKind::Spmv {
        for j in 0..n {
            if !trigger_tiles[j].is_empty() {
                tiles[home[j] as usize].send_v.push(j as u32);
            }
        }
    }

    Program {
        kind,
        n,
        grid,
        trees,
        x_tree,
        partial_tree,
        tiles,
        home,
        inv_diag,
        num_items: items.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azul_mapping::strategies::{Mapper, RoundRobinMapper};
    use azul_solver::ic0::ic0;
    use azul_sparse::generate;

    fn setup() -> (Csr, Placement) {
        let a = generate::grid_laplacian_2d(6, 6);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        (a, p)
    }

    #[test]
    fn spmv_program_covers_all_nonzeros() {
        let (a, p) = setup();
        let prog = Program::compile_spmv(&a, &p);
        let total_entries: usize = prog.tiles.iter().map(|t| t.entries.len()).sum();
        assert_eq!(total_entries, a.nnz());
        assert_eq!(prog.num_items, a.nnz());
        assert_eq!(prog.kind, ProgramKind::Spmv);
    }

    #[test]
    fn spmv_slot_remaining_counts_cover_entries_and_partials() {
        let (a, p) = setup();
        let prog = Program::compile_spmv(&a, &p);
        // Sum of home-slot remaining over all rows equals
        // nnz contributions routed through trees + local; globally the
        // total remaining across all slots = nnz + total tree partials.
        let total_remaining: u64 = prog
            .tiles
            .iter()
            .flat_map(|t| t.slots.iter())
            .map(|s| s.remaining as u64)
            .sum();
        let partial_sends: u64 = prog
            .tiles
            .iter()
            .flat_map(|t| t.slots.iter())
            .filter(|s| matches!(s.action, SlotAction::SendPartial { .. }))
            .count() as u64;
        assert_eq!(total_remaining, a.nnz() as u64 + partial_sends);
    }

    #[test]
    fn every_row_has_exactly_one_final_slot() {
        let (a, p) = setup();
        let prog = Program::compile_spmv(&a, &p);
        let mut finals = vec![0usize; a.rows()];
        for tp in &prog.tiles {
            for s in &tp.slots {
                if let SlotAction::FinalY { target } = s.action {
                    finals[target as usize] += 1;
                }
            }
        }
        assert!(finals.iter().all(|&c| c == 1), "{finals:?}");
    }

    #[test]
    fn sendv_tasks_live_on_home_tiles() {
        let (a, p) = setup();
        let prog = Program::compile_spmv(&a, &p);
        let mut seen = vec![false; a.rows()];
        for (t, tp) in prog.tiles.iter().enumerate() {
            for &j in &tp.send_v {
                assert_eq!(prog.home[j as usize] as usize, t);
                seen[j as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every column multicast scheduled");
    }

    #[test]
    fn sptrsv_lower_has_initial_solves() {
        let (a, p) = setup();
        let l = ic0(&a).unwrap();
        let prog = Program::compile_sptrsv_lower(&l, &a, &p);
        assert_eq!(prog.kind, ProgramKind::Sptrsv);
        // Row 0 has no strictly-lower entries: solved at start, either via
        // an explicit initial solve or a zero-remaining home slot.
        let home0 = prog.home[0] as usize;
        let has_initial = prog.tiles[home0].initial_solves.contains(&0)
            || prog.tiles[home0]
                .combine_slot(0)
                .is_some_and(|s| prog.tiles[home0].slots[s as usize].remaining == 0);
        assert!(has_initial);
    }

    #[test]
    fn sptrsv_upper_mirrors_lower_work() {
        let (a, p) = setup();
        let l = ic0(&a).unwrap();
        let lo = Program::compile_sptrsv_lower(&l, &a, &p);
        let up = Program::compile_sptrsv_upper(&l, &a, &p);
        assert_eq!(lo.num_items, up.num_items);
        // The last variable has no dependences in the upper solve.
        let n = a.rows();
        let home_last = up.home[n - 1] as usize;
        let slot = up.tiles[home_last].combine_slot((n - 1) as u32);
        let ready = up.tiles[home_last]
            .initial_solves
            .contains(&((n - 1) as u32))
            || slot.is_some_and(|s| up.tiles[home_last].slots[s as usize].remaining == 0);
        assert!(ready);
    }

    #[test]
    fn sptrsv_home_slots_load_b() {
        let (a, p) = setup();
        let l = ic0(&a).unwrap();
        let prog = Program::compile_sptrsv_lower(&l, &a, &p);
        for (i, &h) in prog.home.iter().enumerate() {
            let tp = &prog.tiles[h as usize];
            let slot = tp.combine_slot(i as u32).unwrap();
            assert!(tp.slots[slot as usize].init_from_b);
            assert!(matches!(
                tp.slots[slot as usize].action,
                SlotAction::Solve { .. }
            ));
        }
    }

    #[test]
    fn inv_diag_is_reciprocal() {
        let (a, p) = setup();
        let l = ic0(&a).unwrap();
        let prog = Program::compile_sptrsv_lower(&l, &a, &p);
        for i in 0..a.rows() {
            assert!((prog.inv_diag[i] * l.get(i, i) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tile_grid_needs_no_trees() {
        let a = generate::grid_laplacian_2d(4, 4);
        let grid = TileGrid::new(1, 1);
        let p = Placement::new(grid, vec![0; a.nnz()], vec![0; 16]);
        let prog = Program::compile_spmv(&a, &p);
        assert!(prog.trees.is_empty());
        assert!(prog.x_tree.iter().all(Option::is_none));
        assert!(prog.partial_tree.iter().all(Option::is_none));
    }
}
