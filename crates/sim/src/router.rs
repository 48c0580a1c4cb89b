//! Per-tile router model for the 2-D torus NoC (Sec. V-B).
//!
//! Each router has four direction inputs plus a local inject port. Every
//! cycle it can forward at most one flit per output link (Table III:
//! 96-bit links, one flit carries a 64-bit value plus 32 bits of
//! metadata). Flits are routed along precompiled
//! [`CommTree`](azul_mapping::tree::CommTree)s: multicast
//! flits fan out toward tree children, reduction partials climb toward
//! the tree root, and combining happens at the PEs of combiner tiles.
//! Each flit names its row in the program's [`TreeTable`], as a
//! hardware router holds the tree entry of the flit it buffers, so a
//! routing decision reads that one row and searches nothing. The row
//! gives the output links and the row each copy takes at the next hop;
//! the tile on the far side of a link is the router's own neighbour,
//! fixed when the router is built, so a router never reads another
//! tile's row.

use crate::program::Program;
use azul_mapping::tree::TreeTable;
use azul_mapping::{TileGrid, TileId};
use azul_telemetry::trace::{TraceEvent, TraceKind, CAT_ROUTER};
use std::collections::VecDeque;

/// Message kinds carried by flits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitKind {
    /// A multicast value (input-vector element or solved variable).
    X,
    /// A reduction partial sum.
    Partial,
}

/// One network flit: a 64-bit value plus 32-bit metadata, exactly one
/// link-width (Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flit {
    /// Message kind.
    pub kind: FlitKind,
    /// The row/column index the value belongs to.
    pub idx: u32,
    /// The flit's row in the program's tree table: the tile it is at, in
    /// the tree it travels. Simulator bookkeeping, not carried on the
    /// link: the router's tree entry holds it in hardware.
    pub row: u32,
    /// The payload value.
    pub val: f64,
    /// A partial's source: the replay record's name for the final value
    /// it carries, so a replayed launch (`crate::replay`) can name the
    /// value without carrying it. Simulator bookkeeping like `row`; 0 on
    /// multicast flits and in launches that do not record.
    pub src: u32,
    /// True while the flit is still at its injection tile (so a partial
    /// injected by a combiner is not re-delivered to the same combiner).
    pub outbound: bool,
}

/// Input-port indices: the four directions plus local injection.
pub const PORT_E: usize = 0;
/// West input port.
pub const PORT_W: usize = 1;
/// North input port.
pub const PORT_N: usize = 2;
/// South input port.
pub const PORT_S: usize = 3;
/// Local PE injection port.
pub const PORT_INJECT: usize = 4;

/// A queued flit with its earliest processing cycle (models hop latency)
/// and partial-fork progress: multicast forwarding to multiple children
/// proceeds one free output at a time instead of atomically, which keeps
/// congested multicast trees deadlock-free.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Queued {
    ready: u64,
    flit: Flit,
    /// Bitmask of output directions already served.
    forwarded: u8,
    /// Whether local delivery has already happened.
    delivered: bool,
}

// A flit fills one 24-byte record and a queued flit 40: `src` sits in
// what was padding.
const _: () = assert!(std::mem::size_of::<Flit>() == 24);
const _: () = assert!(std::mem::size_of::<Queued>() == 40);

/// One tile's router.
#[derive(Debug, Clone)]
pub struct Router {
    tile: TileId,
    /// The tile on the far side of each output link, by direction.
    neighbors: [TileId; 4],
    inputs: [VecDeque<Queued>; 5],
    /// Bit `p` is set while input port `p` holds a flit.
    live: u8,
    /// The earliest `ready` over the port heads (`u64::MAX` when every
    /// port is empty). Exact at all times: a push onto an empty port
    /// lowers it, and [`tick_router`] recomputes it from the heads it
    /// reads anyway, so a router with no ready head returns without
    /// touching a queue.
    head_ready: u64,
    /// Round-robin arbitration cursor.
    rr: usize,
    capacity: usize,
    /// Injected fault: extra per-hop latency on every outgoing forward.
    fault_extra_delay: u64,
    /// Injected fault: bitmask of output directions currently down.
    fault_blocked: u8,
}

/// What the router asks its tile to do with a delivered flit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// The delivered flit.
    pub flit: Flit,
}

impl Router {
    /// Creates the router of `tile` on `grid` with the given input-queue
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is not on `grid`.
    pub fn new(grid: TileGrid, tile: TileId, capacity: usize) -> Self {
        Router {
            tile,
            neighbors: grid.neighbors(tile),
            inputs: Default::default(),
            live: 0,
            head_ready: u64::MAX,
            rr: 0,
            capacity,
            fault_extra_delay: 0,
            fault_blocked: 0,
        }
    }

    /// Clears injected link-fault state (outage windows closed).
    pub fn clear_faults(&mut self) {
        self.fault_extra_delay = 0;
        self.fault_blocked = 0;
    }

    /// Takes output direction `dir` down: flits queued toward it wait at
    /// this router until [`Router::clear_faults`].
    pub fn inject_link_down(&mut self, dir: usize) {
        if dir < 4 {
            self.fault_blocked |= 1 << dir;
        }
    }

    /// Degrades all outgoing links by `extra` cycles per hop.
    pub fn inject_link_degrade(&mut self, extra: u64) {
        self.fault_extra_delay = self.fault_extra_delay.max(extra);
    }

    /// Whether the local inject port can accept another flit.
    pub fn can_inject(&self) -> bool {
        self.inputs[PORT_INJECT].len() < self.capacity
    }

    /// Injects a locally generated flit (PE Send operation).
    pub fn inject(&mut self, now: u64, flit: Flit) {
        self.push(PORT_INJECT, now + 1, flit);
    }

    /// Queues `flit` on `port`, ready at `ready`, keeping the live mask
    /// and the earliest head `ready` exact: only a flit landing on an
    /// empty port becomes a head.
    fn push(&mut self, port: usize, ready: u64, flit: Flit) {
        if self.live & (1 << port) == 0 {
            self.live |= 1 << port;
            self.head_ready = self.head_ready.min(ready);
        }
        self.inputs[port].push_back(Queued {
            ready,
            flit,
            forwarded: 0,
            delivered: false,
        });
    }

    /// Number of buffered flits across all input ports.
    pub fn occupancy(&self) -> usize {
        self.inputs.iter().map(VecDeque::len).sum()
    }

    /// Whether every input port is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of flits buffered on the local inject port — the only
    /// bounded queue; [`Router::can_inject`] enforces the cap.
    pub fn inject_occupancy(&self) -> usize {
        self.inputs[PORT_INJECT].len()
    }

    /// The configured inject-port capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Advances the round-robin cursor as if the router had been ticked
    /// `k` more times. [`tick_router`] rotates the cursor
    /// unconditionally — even a zero-work tick moves it — so a parked
    /// tile must replay the rotation across its skipped cycles to keep
    /// arbitration history (and therefore every downstream bit)
    /// identical to the ticked path.
    pub fn advance_rr(&mut self, k: u64) {
        self.rr = (self.rr + (k % 5) as usize) % 5;
    }

    /// Applies a deferred [`Accept`]: enqueues a flit arriving from a
    /// neighbor on `port`. Called once every tile has ticked, never from
    /// inside a router tick — see [`Accept`] for why arrivals are
    /// buffered.
    pub fn apply_accept(&mut self, port: usize, ready: u64, flit: Flit) {
        self.push(port, ready, flit);
    }

    /// The earliest cycle (`>= now`) at which this router could move a
    /// flit, or `None` when it is empty (arrivals re-arm it through the
    /// accept path).
    ///
    /// Only heads can act — each port is a FIFO. A head still dwelling
    /// out its hop reports its `ready` cycle; a ready head pins the
    /// event to `now`, because it may be racing other ports for a shared
    /// output. Without faults a ready head always has an output or a
    /// local delivery left (a fully served head retires in the tick that
    /// serves it), so the bound is exact. An outage can hold a ready head
    /// longer, which only makes the bound early; the engine does not
    /// park tiles during fault runs anyway. Reads the cached earliest
    /// head instead of the queues.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if self.is_empty() {
            None
        } else {
            Some(self.head_ready.max(now))
        }
    }

    /// The tile id this router serves.
    pub fn tile(&self) -> TileId {
        self.tile
    }
}

/// A deferred flit arrival: the result of one router forwarding toward
/// tile `dest` this cycle, to be applied to `dest`'s input queue via
/// [`Router::apply_accept`] once every tile has ticked.
///
/// Arrivals are buffered so intra-cycle tick order cannot leak between
/// tiles: every router of a cycle observes the queues exactly as the
/// previous cycle left them. Since every arrival is ready at `now + 1`
/// or later, applying it at forward time would not change what the
/// receiving router moves; it would change which tiles the engine
/// re-arms or parks, and so its tile-cycle counts (`docs/PERFORMANCE.md`,
/// "The outbox"). Outbox application order does not matter: each input
/// port has exactly one upstream tile and each output direction carries
/// at most one flit per cycle, so at most one accept targets any
/// `(dest, port)` pair per cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accept {
    /// Receiving tile.
    pub dest: TileId,
    /// Input port on the receiving router.
    pub port: u8,
    /// Earliest processing cycle at the receiver (hop latency applied).
    pub ready: u64,
    /// The flit.
    pub flit: Flit,
}

/// The routing decision for `flit`, read from its tree row alone: the
/// output directions it must be forwarded to (with the neighbor tile and
/// tree row behind each), how many of the four slots are used, and
/// whether it is also delivered locally. Pure function of the compiled
/// trees and the router's `neighbors`. Tree links connect grid
/// neighbors in their link direction, so a flit forwards to at most one
/// tile per direction, the neighbor in that direction, and a linked
/// row's index comes from the flit's row without reading the linked row.
/// The fixed array keeps [`tick_router`] allocation-free.
///
/// A partial is delivered exactly where compile allocated a combining
/// slot for it
/// ([`TreeRow::combines`](azul_mapping::tree::TreeRow::combines)),
/// unless this tile injected it; everywhere else it climbs to the
/// parent. Only the root has no parent, and the root never injects a
/// partial: its slot solves or writes the output.
fn route_of(
    trees: &TreeTable,
    neighbors: &[TileId; 4],
    flit: Flit,
) -> ([(usize, TileId, u32); 4], usize, bool) {
    let row = trees.row(flit.row);
    let mut out = [(0usize, 0 as TileId, 0u32); 4];
    let mut out_n = 0usize;
    let deliver = match flit.kind {
        FlitKind::X => {
            for (dir, child) in row.children() {
                let d = dir.index();
                out[out_n] = (d, neighbors[d], child.index());
                out_n += 1;
            }
            !flit.outbound && row.is_dest()
        }
        FlitKind::Partial => {
            let deliver = !flit.outbound && row.combines();
            match row.parent() {
                Some((dir, parent)) if !deliver => {
                    let d = dir.index();
                    out[0] = (d, neighbors[d], parent.index());
                    out_n = 1;
                }
                _ => {}
            }
            deliver
        }
    };
    (out, out_n, deliver)
}

/// Ticks one router: moves at most one flit per output link, appends
/// local deliveries to `deliveries`, pushes cross-tile arrivals onto
/// `outbox` (applied after the tick phase, see [`Accept`]), and updates
/// traffic stats. Returns whether any flit was forwarded, delivered or
/// retired. The arbitration cursor rotates on every tick; a router whose
/// earliest head is not ready returns right after.
pub fn tick_router(
    router: &mut Router,
    now: u64,
    hop_latency: u64,
    program: &Program,
    deliveries: &mut Vec<Delivery>,
    outbox: &mut Vec<Accept>,
    stats: &mut crate::stats::KernelStats,
) -> bool {
    let t = router.tile as usize;
    let mut moved = false;
    // Each output direction may carry one flit this cycle.
    let mut dir_used = [false; 4];
    let rr_start = router.rr;
    router.rr = (router.rr + 1) % 5;
    if router.head_ready > now {
        return false;
    }
    // The earliest head `ready` after this tick, from the heads read
    // below: a waiting or partly served head, or the one a pop exposes.
    let mut head_ready = u64::MAX;
    for q in 0..5 {
        let port = (rr_start + q) % 5;
        if router.live & (1 << port) == 0 {
            continue;
        }
        let Some(&head) = router.inputs[port].front() else {
            continue;
        };
        if head.ready > now {
            head_ready = head_ready.min(head.ready);
            continue;
        }
        let flit = head.flit;
        let tile = t as TileId;
        let (out_dirs, out_n, deliver) = route_of(&program.trees, &router.neighbors, flit);
        let out_dirs = &out_dirs[..out_n];

        // Partial fork: serve whatever outputs are free this cycle; the
        // flit stays queued until every child and the local delivery are
        // done. This keeps congested multicast trees deadlock-free.
        let mut forwarded = head.forwarded;
        let mut delivered = head.delivered;
        let mut progressed = false;
        for &(dir, next, next_row) in out_dirs {
            if forwarded & (1 << dir) != 0 {
                continue;
            }
            // Injected link-down fault: the flit waits at this router
            // until the outage window closes.
            if router.fault_blocked & (1 << dir) != 0 {
                continue;
            }
            if dir_used[dir] {
                continue;
            }
            // Direction ports are modeled with ample buffering: real tori
            // need dateline virtual channels to stay deadlock-free under
            // full backpressure; we idealize buffer space instead and keep
            // the 1-flit-per-link-per-cycle bandwidth limit, which is what
            // determines performance (see DESIGN.md §5). The inject port
            // stays finite (checked via [`Router::can_inject`]) so PEs
            // feel send backpressure — so no room check on the receiver.
            dir_used[dir] = true;
            forwarded |= 1 << dir;
            progressed = true;
            stats.link_out_at(tile, dir);
            if stats.trace_ev.wants(CAT_ROUTER) {
                stats.trace_ev.push(TraceEvent {
                    cycle: now,
                    tile,
                    kind: TraceKind::RouterForward,
                    arg: dir as u64,
                });
            }
            let mut copy = flit;
            copy.outbound = false;
            copy.row = next_row;
            let delay = hop_latency + router.fault_extra_delay;
            outbox.push(Accept {
                dest: next,
                port: reverse_port(dir) as u8,
                ready: now + delay,
                flit: copy,
            });
        }
        if deliver && !delivered {
            deliveries.push(Delivery { flit });
            delivered = true;
            progressed = true;
        }

        let all_dirs_done = out_dirs
            .iter()
            .all(|&(dir, ..)| forwarded & (1 << dir) != 0);
        moved |= progressed;
        if all_dirs_done && (delivered || !deliver) {
            moved = true;
            router.inputs[port].pop_front();
            match router.inputs[port].front() {
                Some(next) => head_ready = head_ready.min(next.ready),
                None => router.live &= !(1 << port),
            }
            stats.router_traversal_at(tile);
            if stats.trace_ev.wants(CAT_ROUTER) {
                stats.trace_ev.push(TraceEvent {
                    cycle: now,
                    tile,
                    kind: TraceKind::RouterRetire,
                    arg: port as u64,
                });
            }
        } else {
            head_ready = head_ready.min(head.ready);
            if progressed {
                // azul-lint: allow(panic-in-sim-hot-path, unwrap-in-pipeline) the head was peeked above and not popped
                let h = router.inputs[port].front_mut().expect("head still queued");
                h.forwarded = forwarded;
                h.delivered = delivered;
            }
        }
    }
    router.head_ready = head_ready;
    moved
}

/// The input port on the receiving router for a flit leaving via `dir`.
fn reverse_port(dir: usize) -> usize {
    match dir {
        PORT_E => PORT_W,
        PORT_W => PORT_E,
        PORT_N => PORT_S,
        PORT_S => PORT_N,
        // azul-lint: allow(panic-in-sim-hot-path) dir is one of the four PORT_* constants by construction
        _ => unreachable!("not a direction"),
    }
}

#[cfg(test)]
mod oracle_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use azul_mapping::strategies::{Mapper, RoundRobinMapper};
    use azul_mapping::TileGrid;
    use azul_sparse::generate;

    /// Ticks every router for one cycle and applies the resulting
    /// [`Accept`]s.
    fn tick_routers(
        now: u64,
        hop_latency: u64,
        routers: &mut [Router],
        program: &Program,
        deliveries: &mut [Vec<Delivery>],
        stats: &mut crate::stats::KernelStats,
    ) {
        let mut outbox = Vec::new();
        #[allow(clippy::needless_range_loop)] // index used across several structures
        for t in 0..routers.len() {
            tick_router(
                &mut routers[t],
                now,
                hop_latency,
                program,
                &mut deliveries[t],
                &mut outbox,
                stats,
            );
        }
        for a in outbox.drain(..) {
            routers[a.dest as usize].apply_accept(a.port as usize, a.ready, a.flit);
        }
    }

    fn spmv_program_2x2() -> Program {
        let a = generate::grid_laplacian_2d(4, 4);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        Program::compile_spmv(&a, &p)
    }

    #[test]
    fn inject_and_capacity() {
        let mut r = Router::new(TileGrid::new(2, 2), 0, 2);
        assert!(r.can_inject());
        r.inject(
            0,
            Flit {
                kind: FlitKind::X,
                idx: 0,
                row: 0,
                val: 1.0,
                src: 0,
                outbound: true,
            },
        );
        r.inject(
            0,
            Flit {
                kind: FlitKind::X,
                idx: 1,
                row: 0,
                val: 1.0,
                src: 0,
                outbound: true,
            },
        );
        assert!(!r.can_inject());
        assert_eq!(r.occupancy(), 2);
    }

    #[test]
    fn multicast_flit_reaches_all_dests() {
        let prog = spmv_program_2x2();
        // Find a column with a real multicast tree.
        let j = (0..prog.n)
            .find(|&j| prog.x_tree[j].is_some())
            .expect("some column is multi-tile under round-robin");
        let tree_id = prog.x_tree[j].unwrap();
        let dests: Vec<TileId> = prog.trees.tree(tree_id).dests().to_vec();
        let root = prog.trees.tree(tree_id).root();

        let num = prog.grid.num_tiles();
        let mut routers: Vec<Router> = (0..num as u32)
            .map(|t| Router::new(prog.grid, t, 16))
            .collect();
        routers[root as usize].inject(
            0,
            Flit {
                kind: FlitKind::X,
                idx: j as u32,
                row: prog.trees.root_row(tree_id),
                val: 2.5,
                src: 0,
                outbound: true,
            },
        );
        let mut deliveries: Vec<Vec<Delivery>> = vec![Vec::new(); num];
        let mut stats = crate::stats::KernelStats::default();
        for cycle in 0..50 {
            tick_routers(cycle, 1, &mut routers, &prog, &mut deliveries, &mut stats);
        }
        for &d in &dests {
            assert_eq!(
                deliveries[d as usize].len(),
                1,
                "dest {d} should get exactly one delivery"
            );
            assert_eq!(deliveries[d as usize][0].flit.val, 2.5);
        }
        assert_eq!(
            stats.link_activations as usize,
            prog.trees.tree(tree_id).num_links()
        );
        // Root does not deliver to itself.
        if !dests.contains(&root) {
            assert!(deliveries[root as usize].is_empty());
        }
    }

    #[test]
    fn partial_flit_climbs_to_home() {
        let prog = spmv_program_2x2();
        let i = (0..prog.n)
            .find(|&i| prog.partial_tree[i].is_some())
            .expect("some row spans tiles");
        let tree_id = prog.partial_tree[i].unwrap();
        let tree = prog.trees.tree(tree_id);
        let leaf = *tree.dests().last().unwrap();
        let home = tree.root();

        let num = prog.grid.num_tiles();
        let mut routers: Vec<Router> = (0..num as u32)
            .map(|t| Router::new(prog.grid, t, 16))
            .collect();
        routers[leaf as usize].inject(
            0,
            Flit {
                kind: FlitKind::Partial,
                idx: i as u32,
                row: tree.node(leaf).unwrap().index(),
                val: 7.0,
                src: 0,
                outbound: true,
            },
        );
        let mut deliveries: Vec<Vec<Delivery>> = vec![Vec::new(); num];
        let mut stats = crate::stats::KernelStats::default();
        for cycle in 0..50 {
            tick_routers(cycle, 1, &mut routers, &prog, &mut deliveries, &mut stats);
        }
        // The partial must be delivered at some combiner tile along the
        // way (possibly the home itself).
        let delivered: Vec<usize> = (0..num).filter(|&t| !deliveries[t].is_empty()).collect();
        assert_eq!(delivered.len(), 1);
        let t = delivered[0];
        assert!(prog.tiles[t].combine_slot(i as u32).is_some());
        // It made progress toward home: either home itself or a tile
        // strictly between.
        let _ = home;
    }

    #[test]
    fn hop_latency_delays_arrival() {
        let prog = spmv_program_2x2();
        let j = (0..prog.n).find(|&j| prog.x_tree[j].is_some()).unwrap();
        let tree_id = prog.x_tree[j].unwrap();
        let root = prog.trees.tree(tree_id).root();
        let num = prog.grid.num_tiles();

        let run = |hop: u64| -> u64 {
            let mut routers: Vec<Router> = (0..num as u32)
                .map(|t| Router::new(prog.grid, t, 16))
                .collect();
            routers[root as usize].inject(
                0,
                Flit {
                    kind: FlitKind::X,
                    idx: j as u32,
                    row: prog.trees.root_row(tree_id),
                    val: 1.0,
                    src: 0,
                    outbound: true,
                },
            );
            let mut deliveries: Vec<Vec<Delivery>> = vec![Vec::new(); num];
            let mut stats = crate::stats::KernelStats::default();
            for cycle in 0..200 {
                tick_routers(cycle, hop, &mut routers, &prog, &mut deliveries, &mut stats);
                if deliveries.iter().map(Vec::len).sum::<usize>()
                    == prog.trees.tree(tree_id).dests().len()
                {
                    return cycle;
                }
            }
            panic!("multicast never completed");
        };
        assert!(run(4) > run(1), "higher hop latency takes longer");
    }

    fn x_flit(idx: u32) -> Flit {
        Flit {
            kind: FlitKind::X,
            idx,
            row: 0,
            val: 1.0,
            src: 0,
            outbound: true,
        }
    }

    #[test]
    fn next_event_reports_head_ready_cycles() {
        let mut r = Router::new(TileGrid::new(1, 1), 0, 16);
        assert_eq!(r.next_event(0), None, "empty router: no events");
        r.inject(5, x_flit(0)); // head becomes ready at cycle 6
        assert_eq!(
            r.next_event(0),
            Some(6),
            "future-ready head reports its ready cycle"
        );
        assert_eq!(r.next_event(6), Some(6), "ready head acts this cycle");
        assert_eq!(r.next_event(9), Some(9), "never reports the past");
        r.apply_accept(PORT_N, 3, x_flit(1));
        assert_eq!(r.next_event(0), Some(3), "the earliest head wins");
    }

    #[test]
    fn next_event_never_reports_later_under_an_outage() {
        // An outage can only delay a ready head, so reporting `now` for
        // it stays a sound (early) bound: every direction down must not
        // push the event past the head's ready cycle.
        let mut r = Router::new(TileGrid::new(1, 1), 0, 16);
        r.inject(5, x_flit(0));
        for d in 0..4 {
            r.inject_link_down(d);
        }
        assert_eq!(r.next_event(0), Some(6));
        assert_eq!(r.next_event(6), Some(6));
    }
}
