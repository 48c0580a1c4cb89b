//! Simulation statistics: the raw material of Figs. 11, 21, 22 and 24.

use azul_telemetry::trace::TraceBuf;

/// PE operation kinds (the categories of Fig. 21).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Fused multiply-accumulate (the dominant operation).
    Fmac,
    /// Standalone add (reduction combines).
    Add,
    /// Standalone multiply (diagonal solves, scalings).
    Mul,
    /// Message injection into the router.
    Send,
}

/// Kernel classes for runtime breakdowns (Fig. 3 / Fig. 22).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Sparse matrix-vector multiply.
    Spmv,
    /// Sparse triangular solve.
    Sptrsv,
    /// Dense vector operations (dots, axpys).
    VectorOps,
}

/// Per-PE counters for one tile, collected when
/// `SimConfig::detailed_stats` is set. Indices into
/// [`KernelStats::pe`] are linear tile ids.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PeStats {
    /// Issued operations by kind: `[Fmac, Add, Mul, Send]`.
    pub ops: [u64; 4],
    /// Cycles the PE had pending work but could not issue.
    pub stall_cycles: u64,
    /// Cycles the PE was ticked with no work at all.
    pub idle_cycles: u64,
    /// Data-SRAM reads.
    pub sram_reads: u64,
    /// Accumulator-SRAM read-modify-writes.
    pub accum_rmws: u64,
    /// Message-buffer overflows spilled to the Data SRAM.
    pub spills: u64,
    /// Message-queue occupancy high-water mark.
    pub msg_queue_hwm: u64,
}

impl PeStats {
    /// Total issued operations across all kinds.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }
}

/// Per-router link counters for one tile, collected when
/// `SimConfig::detailed_stats` is set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkStats {
    /// Flits forwarded on each outgoing link, indexed by the router's
    /// direction index (`PORT_E`/`PORT_W`/`PORT_N`/`PORT_S`).
    pub out: [u64; 4],
    /// Flits that finished traversing this router.
    pub router_traversals: u64,
}

impl LinkStats {
    /// Total outgoing flits across the four links.
    pub fn total_out(&self) -> u64 {
        self.out.iter().sum()
    }
}

/// Aggregated statistics of one kernel invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelStats {
    /// Wall-clock cycles from launch to quiescence.
    pub cycles: u64,
    /// Issued operations by kind, summed over all PEs:
    /// `[Fmac, Add, Mul, Send]`.
    pub ops: [u64; 4],
    /// Extra issue cycles consumed by Dalorex bookkeeping instructions.
    pub overhead_cycles: u64,
    /// Cycles where a PE had pending work but could not issue (hazards,
    /// router backpressure).
    pub stall_cycles: u64,
    /// Cycles where a PE had no work at all.
    pub idle_cycles: u64,
    /// Messages injected into the NoC.
    pub messages: u64,
    /// Link traversals (Fig. 11's "link activations").
    pub link_activations: u64,
    /// Router traversals (for NoC energy).
    pub router_traversals: u64,
    /// Data-SRAM reads (operand fetches, message spills).
    pub sram_reads: u64,
    /// Accumulator-SRAM read-modify-writes.
    pub accum_rmws: u64,
    /// Message-buffer overflows spilled to the Data SRAM.
    pub spills: u64,
    /// Runtime-invariant evaluations by rule, indexed like
    /// [`crate::invariants::RULE_NAMES`]. All zero unless
    /// `SimConfig::check_invariants` was set; a violation aborts the run,
    /// so stats that reach the caller always audited clean.
    pub invariant_checks: [u64; 4],
    /// Optional progress trace: `(cycle, cumulative issued operations)`
    /// samples, recorded when `SimConfig::trace_interval > 0`. This is the
    /// data behind Fig. 17's issued-instructions-over-time curves.
    pub trace: Vec<(u64, u64)>,
    /// Cycle-accurate event trace, recorded when `SimConfig::trace` is
    /// set (default-disabled: the buffer's empty category mask makes
    /// every hook a single branch). Sealed — sorted into canonical
    /// `(cycle, tile, kind, arg)` order and capacity-compacted — at the
    /// serial end of each kernel, so its content is byte-identical
    /// across thread counts and with or without parked tiles.
    pub trace_ev: TraceBuf,
    /// Per-PE detail, one entry per tile; empty unless
    /// `SimConfig::detailed_stats` is set.
    pub pe: Vec<PeStats>,
    /// Per-router link detail, one entry per tile; empty unless
    /// `SimConfig::detailed_stats` is set.
    pub links: Vec<LinkStats>,
}

impl KernelStats {
    /// Turns on per-PE/per-link detail collection for `num_tiles` tiles.
    pub fn enable_detail(&mut self, num_tiles: usize) {
        self.pe = vec![PeStats::default(); num_tiles];
        self.links = vec![LinkStats::default(); num_tiles];
    }

    /// Whether per-PE/per-link detail is being collected.
    pub fn detail_enabled(&self) -> bool {
        !self.pe.is_empty()
    }

    /// Adds `other` into `self` (for accumulating across kernels).
    ///
    /// The trace is concatenated with `other`'s samples shifted by the
    /// pre-merge cycle and op totals, so a multi-kernel trace stays
    /// monotone and its last sample still matches
    /// [`KernelStats::total_ops`]. Per-PE and per-link detail adds
    /// elementwise (high-water marks take the max).
    pub fn merge(&mut self, other: &KernelStats) {
        let cycle_offset = self.cycles;
        let ops_offset = self.total_ops();
        self.cycles += other.cycles;
        for k in 0..4 {
            self.ops[k] += other.ops[k];
        }
        self.overhead_cycles += other.overhead_cycles;
        self.stall_cycles += other.stall_cycles;
        self.idle_cycles += other.idle_cycles;
        self.messages += other.messages;
        self.link_activations += other.link_activations;
        self.router_traversals += other.router_traversals;
        self.sram_reads += other.sram_reads;
        self.accum_rmws += other.accum_rmws;
        self.spills += other.spills;
        for k in 0..4 {
            self.invariant_checks[k] += other.invariant_checks[k];
        }
        self.trace.extend(
            other
                .trace
                .iter()
                .map(|&(c, o)| (c + cycle_offset, o + ops_offset)),
        );
        self.trace_ev.merge(&other.trace_ev, cycle_offset);
        if self.pe.is_empty() {
            self.pe = other.pe.clone();
            self.links = other.links.clone();
        } else if !other.pe.is_empty() {
            debug_assert_eq!(self.pe.len(), other.pe.len(), "tile counts must match");
            for (a, b) in self.pe.iter_mut().zip(&other.pe) {
                for k in 0..4 {
                    a.ops[k] += b.ops[k];
                }
                a.stall_cycles += b.stall_cycles;
                a.idle_cycles += b.idle_cycles;
                a.sram_reads += b.sram_reads;
                a.accum_rmws += b.accum_rmws;
                a.spills += b.spills;
                a.msg_queue_hwm = a.msg_queue_hwm.max(b.msg_queue_hwm);
            }
            for (a, b) in self.links.iter_mut().zip(&other.links) {
                for k in 0..4 {
                    a.out[k] += b.out[k];
                }
                a.router_traversals += b.router_traversals;
            }
        }
    }

    /// Records one issued operation of the given kind.
    pub fn count_op(&mut self, kind: OpKind) {
        self.ops[kind as usize] += 1;
    }

    /// Records one issued operation of the given kind on `tile`.
    #[inline]
    pub fn count_op_at(&mut self, tile: u32, kind: OpKind) {
        self.ops[kind as usize] += 1;
        if let Some(pe) = self.pe.get_mut(tile as usize) {
            pe.ops[kind as usize] += 1;
        }
    }

    /// Records a stall cycle on `tile`.
    #[inline]
    pub fn stall_at(&mut self, tile: u32) {
        self.stall_cycles += 1;
        if let Some(pe) = self.pe.get_mut(tile as usize) {
            pe.stall_cycles += 1;
        }
    }

    /// Records an idle cycle on `tile`.
    #[inline]
    pub fn idle_at(&mut self, tile: u32) {
        self.idle_cycles += 1;
        if let Some(pe) = self.pe.get_mut(tile as usize) {
            pe.idle_cycles += 1;
        }
    }

    /// Records `n` stall cycles on `tile` at once (a parked tile's
    /// credit; equivalent to `n` calls to [`KernelStats::stall_at`]).
    #[inline]
    pub fn stall_at_n(&mut self, tile: u32, n: u64) {
        self.stall_cycles += n;
        if let Some(pe) = self.pe.get_mut(tile as usize) {
            pe.stall_cycles += n;
        }
    }

    /// Records `n` idle cycles on `tile` at once (a parked tile's
    /// credit; equivalent to `n` calls to [`KernelStats::idle_at`]).
    #[inline]
    pub fn idle_at_n(&mut self, tile: u32, n: u64) {
        self.idle_cycles += n;
        if let Some(pe) = self.pe.get_mut(tile as usize) {
            pe.idle_cycles += n;
        }
    }

    /// Records a Data-SRAM read on `tile`.
    #[inline]
    pub fn sram_read_at(&mut self, tile: u32) {
        self.sram_reads += 1;
        if let Some(pe) = self.pe.get_mut(tile as usize) {
            pe.sram_reads += 1;
        }
    }

    /// Records an accumulator read-modify-write on `tile`.
    #[inline]
    pub fn accum_rmw_at(&mut self, tile: u32) {
        self.accum_rmws += 1;
        if let Some(pe) = self.pe.get_mut(tile as usize) {
            pe.accum_rmws += 1;
        }
    }

    /// Records a message-buffer spill on `tile`.
    #[inline]
    pub fn spill_at(&mut self, tile: u32) {
        self.spills += 1;
        if let Some(pe) = self.pe.get_mut(tile as usize) {
            pe.spills += 1;
        }
    }

    /// Updates `tile`'s message-queue occupancy high-water mark.
    #[inline]
    pub fn note_msg_queue_depth(&mut self, tile: u32, depth: usize) {
        if let Some(pe) = self.pe.get_mut(tile as usize) {
            pe.msg_queue_hwm = pe.msg_queue_hwm.max(depth as u64);
        }
    }

    /// Records a flit forwarded out of `tile`'s router on direction
    /// `dir` (the router's `PORT_*` direction index).
    #[inline]
    pub fn link_out_at(&mut self, tile: u32, dir: usize) {
        self.link_activations += 1;
        if let Some(link) = self.links.get_mut(tile as usize) {
            link.out[dir] += 1;
        }
    }

    /// Records a completed router traversal at `tile`.
    #[inline]
    pub fn router_traversal_at(&mut self, tile: u32) {
        self.router_traversals += 1;
        if let Some(link) = self.links.get_mut(tile as usize) {
            link.router_traversals += 1;
        }
    }

    /// Issued operations of one kind.
    pub fn ops_of(&self, kind: OpKind) -> u64 {
        self.ops[kind as usize]
    }

    /// Total issued operations.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// The PE cycle breakdown of Fig. 21: fractions of total PE-cycles
    /// spent on `[Fmac, Add, Mul, Send, stalls-and-idle]`, where total
    /// PE-cycles = `num_tiles * cycles`.
    pub fn cycle_breakdown(&self, num_tiles: usize) -> [f64; 5] {
        let total = (num_tiles as u64 * self.cycles).max(1) as f64;
        let f = self.ops_of(OpKind::Fmac) as f64 / total;
        let a = self.ops_of(OpKind::Add) as f64 / total;
        let m = self.ops_of(OpKind::Mul) as f64 / total;
        let s = self.ops_of(OpKind::Send) as f64 / total;
        let busy = f + a + m + s;
        [f, a, m, s, (1.0 - busy).max(0.0)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_query_ops() {
        let mut s = KernelStats::default();
        s.count_op(OpKind::Fmac);
        s.count_op(OpKind::Fmac);
        s.count_op(OpKind::Send);
        assert_eq!(s.ops_of(OpKind::Fmac), 2);
        assert_eq!(s.ops_of(OpKind::Send), 1);
        assert_eq!(s.total_ops(), 3);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = KernelStats {
            cycles: 10,
            messages: 5,
            ..Default::default()
        };
        let b = KernelStats {
            cycles: 7,
            messages: 2,
            link_activations: 9,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 17);
        assert_eq!(a.messages, 7);
        assert_eq!(a.link_activations, 9);
    }

    #[test]
    fn merge_concatenates_trace_with_offsets() {
        // Regression: merge used to drop `trace` entirely.
        let mut a = KernelStats {
            cycles: 100,
            ops: [40, 0, 0, 10],
            trace: vec![(0, 0), (50, 20), (100, 50)],
            ..Default::default()
        };
        let b = KernelStats {
            cycles: 60,
            ops: [20, 5, 0, 0],
            trace: vec![(0, 0), (30, 10), (60, 25)],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(
            a.trace,
            vec![(0, 0), (50, 20), (100, 50), (100, 50), (130, 60), (160, 75)],
            "other's samples shift by pre-merge cycles and ops"
        );
        // The concatenated trace stays monotone and lands on the totals.
        assert!(a
            .trace
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(a.trace.last().unwrap(), &(a.cycles, a.total_ops()));
    }

    #[test]
    fn merge_carries_event_trace_with_cycle_offset() {
        use azul_telemetry::trace::{TraceConfig, TraceEvent, TraceKind};
        let mk = |cycles: u64, end: u64| {
            let mut s = KernelStats {
                cycles,
                ..Default::default()
            };
            s.trace_ev.configure(TraceConfig::default());
            s.trace_ev.push(TraceEvent {
                cycle: 0,
                tile: 0,
                kind: TraceKind::KernelBegin,
                arg: 0,
            });
            s.trace_ev.push(TraceEvent {
                cycle: end,
                tile: 0,
                kind: TraceKind::KernelEnd,
                arg: 0,
            });
            s.trace_ev.seal();
            s
        };
        let mut a = mk(100, 100);
        let b = mk(60, 60);
        a.merge(&b);
        let cycles: Vec<u64> = a.trace_ev.events.iter().map(|e| e.cycle).collect();
        assert_eq!(
            cycles,
            vec![0, 100, 100, 160],
            "second kernel's events shift by the first kernel's cycles"
        );
    }

    #[test]
    fn merge_adds_detail_elementwise() {
        let mut a = KernelStats::default();
        a.enable_detail(2);
        a.count_op_at(0, OpKind::Fmac);
        a.note_msg_queue_depth(1, 5);
        a.link_out_at(0, 2);
        let mut b = KernelStats::default();
        b.enable_detail(2);
        b.count_op_at(0, OpKind::Fmac);
        b.count_op_at(1, OpKind::Send);
        b.note_msg_queue_depth(1, 3);
        b.router_traversal_at(1);
        a.merge(&b);
        assert_eq!(a.pe[0].ops[OpKind::Fmac as usize], 2);
        assert_eq!(a.pe[1].ops[OpKind::Send as usize], 1);
        assert_eq!(a.pe[1].msg_queue_hwm, 5, "high-water marks take the max");
        assert_eq!(a.links[0].out[2], 1);
        assert_eq!(a.links[1].router_traversals, 1);
        // Merging detail into a detail-less accumulator adopts it.
        let mut c = KernelStats::default();
        c.merge(&a);
        assert_eq!(c.pe, a.pe);
        assert_eq!(c.links, a.links);
    }

    #[test]
    fn tile_aware_counters_update_both_levels() {
        let mut s = KernelStats::default();
        // Without detail, tile-aware helpers only touch the aggregate.
        s.count_op_at(3, OpKind::Mul);
        s.stall_at(3);
        assert_eq!(s.ops_of(OpKind::Mul), 1);
        assert_eq!(s.stall_cycles, 1);
        assert!(s.pe.is_empty());
        s.enable_detail(4);
        s.count_op_at(3, OpKind::Mul);
        s.idle_at(2);
        s.sram_read_at(1);
        s.accum_rmw_at(1);
        s.spill_at(0);
        assert_eq!(s.pe[3].ops[OpKind::Mul as usize], 1);
        assert_eq!(s.pe[2].idle_cycles, 1);
        assert_eq!(s.pe[1].sram_reads, 1);
        assert_eq!(s.pe[1].accum_rmws, 1);
        assert_eq!(s.pe[0].spills, 1);
        assert_eq!(s.ops_of(OpKind::Mul), 2);
    }

    #[test]
    fn breakdown_sums_to_one() {
        let mut s = KernelStats {
            cycles: 100,
            ..Default::default()
        };
        for _ in 0..150 {
            s.count_op(OpKind::Fmac);
        }
        for _ in 0..30 {
            s.count_op(OpKind::Add);
        }
        let b = s.cycle_breakdown(4); // 400 PE-cycles
        let sum: f64 = b.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((b[0] - 0.375).abs() < 1e-12);
    }
}
