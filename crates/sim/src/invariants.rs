//! Runtime invariant checking for the cycle-level machine.
//!
//! The paper's evaluation (Figs. 15–20) rests on cycle counts and NoC
//! traffic totals; those numbers are only trustworthy if the model obeys
//! its own conservation laws. This module audits them while the machine
//! runs, the way hardware testbenches score a DUT: violations mean the
//! *simulator* is wrong, not the workload, and surface as
//! [`SimError::Invariant`] instead of silently skewing results.
//!
//! Checking is gated behind `SimConfig::check_invariants` (on by default
//! in debug builds); when off, the machine pays one branch per cycle.
//!
//! # The rules
//!
//! * [`RULE_FLIT_CONSERVATION`] — every flit buffered in a router was
//!   either injected by a PE (counted in `KernelStats::messages`) or
//!   forwarded from a neighbor (counted in `link_activations`), and
//!   every flit that leaves a queue counts one `router_traversal`.
//!   Nothing in this machine drops flits — faults delay links or corrupt
//!   payloads, but every queued flit eventually retires — so at any
//!   point: `messages + link_activations == router_traversals +
//!   in_flight + dropped_by_fault`, with `dropped_by_fault == 0` and,
//!   at kernel quiescence, `in_flight == 0`.
//! * [`RULE_OCCUPANCY_BOUNDS`] — the local inject port is the only
//!   bounded router queue; its occupancy must never exceed the
//!   configured capacity (PEs must respect `can_inject` backpressure).
//!   The idealized PE model is exempt: it deliberately models infinite
//!   buffering (mapping studies, Figs. 10/11) and injects its whole op
//!   stream without timing constraints.
//! * [`RULE_CYCLE_MONOTONICITY`] — the progress trace
//!   (`KernelStats::trace`) is monotone non-decreasing in both cycle and
//!   cumulative ops, and for a single kernel its final sample equals the
//!   kernel totals. Merged multi-kernel traces must stay monotone.
//! * [`RULE_STATS_CROSSCHECK`] — when per-PE/per-link detail is
//!   collected, the detail sums must equal the aggregates exactly for a
//!   single kernel. Across a whole solve the aggregates also absorb the
//!   analytic vector-op model (which has no per-tile attribution), so
//!   the solve-level check relaxes to `detail <= aggregate`.

use crate::config::SimConfig;
use crate::machine::SimError;
use crate::router::Router;
use crate::stats::KernelStats;

/// Flit conservation: injections + forwards == traversals + in-flight.
pub const RULE_FLIT_CONSERVATION: &str = "flit-conservation";
/// Router inject-queue occupancy never exceeds its capacity.
pub const RULE_OCCUPANCY_BOUNDS: &str = "router-occupancy-bounds";
/// Progress traces are monotone and close on the kernel totals.
pub const RULE_CYCLE_MONOTONICITY: &str = "cycle-monotonicity";
/// Per-PE/per-link detail agrees with the aggregate counters.
pub const RULE_STATS_CROSSCHECK: &str = "stats-crosscheck";

/// All rule names, in the index order of
/// [`KernelStats::invariant_checks`].
pub const RULE_NAMES: [&str; 4] = [
    RULE_FLIT_CONSERVATION,
    RULE_OCCUPANCY_BOUNDS,
    RULE_CYCLE_MONOTONICITY,
    RULE_STATS_CROSSCHECK,
];

const CONSERVATION: usize = 0;
const OCCUPANCY: usize = 1;
const MONOTONICITY: usize = 2;
const CROSSCHECK: usize = 3;

fn violation(rule: &'static str, cycle: u64, detail: String) -> SimError {
    SimError::Invariant {
        rule,
        cycle,
        detail,
    }
}

/// Per-kernel invariant auditor, owned by the tick engine. Counts how
/// often each rule fired so the totals can be journaled into
/// [`KernelStats::invariant_checks`] (and from there into telemetry).
#[derive(Debug)]
pub struct Checker {
    enabled: bool,
    /// Whether the PE model honors inject backpressure (false for the
    /// idealized PE, which models infinite buffering).
    bounded_inject: bool,
    checks: [u64; 4],
}

impl Checker {
    /// A checker honoring `cfg.check_invariants`.
    pub fn new(cfg: &SimConfig) -> Self {
        let mut chk = Self::with_enabled(cfg.check_invariants);
        chk.bounded_inject = cfg.pe_model != crate::config::PeModel::Ideal;
        chk
    }

    /// A checker with checking explicitly switched on or off
    /// (tests exercise violations regardless of build profile).
    pub fn with_enabled(enabled: bool) -> Self {
        Checker {
            enabled,
            bounded_inject: true,
            checks: [0; 4],
        }
    }

    /// Whether this checker audits anything (callers skip the per-cycle
    /// sweep entirely when it does not).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Per-cycle occupancy bound on one router's inject port.
    ///
    /// # Errors
    ///
    /// [`RULE_OCCUPANCY_BOUNDS`] when the inject queue holds more flits
    /// than its configured capacity.
    pub fn check_router(&mut self, cycle: u64, router: &Router) -> Result<(), SimError> {
        if !self.occupancy_active() {
            return Ok(());
        }
        self.checks[OCCUPANCY] += 1;
        let occ = router.inject_occupancy();
        if occ > router.capacity() {
            return Err(violation(
                RULE_OCCUPANCY_BOUNDS,
                cycle,
                format!(
                    "router {} inject queue holds {occ} flits, capacity {}",
                    router.tile(),
                    router.capacity()
                ),
            ));
        }
        Ok(())
    }

    /// Whether per-cycle occupancy auditing applies (checking enabled and
    /// the PE model honors inject backpressure).
    fn occupancy_active(&self) -> bool {
        self.enabled && self.bounded_inject
    }

    /// Credits `n` occupancy-rule evaluations a parked tile's span
    /// skipped: its `k` skipped ticks would each have audited its
    /// router, and are credited in one call when it wakes. Because
    /// `KernelStats::invariant_checks` participates in stats equality,
    /// the determinism suite audits this crediting byte-for-byte. No-op
    /// when occupancy auditing is off.
    pub(crate) fn credit_occupancy_checks(&mut self, n: u64) {
        if self.occupancy_active() {
            self.checks[OCCUPANCY] += n;
        }
    }

    /// Kernel-end audit: flit conservation at quiescence, trace
    /// monotonicity/closure, and the exact aggregate-vs-detail
    /// cross-check. `in_flight` is the total router occupancy at exit
    /// (zero at quiescence) and `dropped_by_fault` the number of flits
    /// the fault model destroyed (zero in this machine; the parameter
    /// keeps the conservation law explicit).
    ///
    /// # Errors
    ///
    /// [`RULE_FLIT_CONSERVATION`], [`RULE_CYCLE_MONOTONICITY`] or
    /// [`RULE_STATS_CROSSCHECK`] with a detail message naming the
    /// mismatched counters.
    pub fn check_kernel_end(
        &mut self,
        stats: &KernelStats,
        in_flight: usize,
        dropped_by_fault: u64,
    ) -> Result<(), SimError> {
        if !self.enabled {
            return Ok(());
        }
        let cycle = stats.cycles;
        self.checks[CONSERVATION] += 1;
        let sources = stats.messages + stats.link_activations;
        let sinks = stats.router_traversals + in_flight as u64 + dropped_by_fault;
        if sources != sinks {
            return Err(violation(
                RULE_FLIT_CONSERVATION,
                cycle,
                format!(
                    "messages ({}) + link_activations ({}) = {sources}, but \
                     router_traversals ({}) + in_flight ({in_flight}) + \
                     dropped_by_fault ({dropped_by_fault}) = {sinks}",
                    stats.messages, stats.link_activations, stats.router_traversals
                ),
            ));
        }
        self.check_trace(stats, true)?;
        if stats.detail_enabled() {
            self.checks[CROSSCHECK] += 1;
            crosscheck(stats, true)?;
        }
        Ok(())
    }

    /// Trace monotonicity; `closed` additionally requires the final
    /// sample to equal the totals (single-kernel traces only — merged
    /// solve traces absorb untraced vector-op cycles).
    fn check_trace(&mut self, stats: &KernelStats, closed: bool) -> Result<(), SimError> {
        self.checks[MONOTONICITY] += 1;
        for w in stats.trace.windows(2) {
            let ((c0, o0), (c1, o1)) = (w[0], w[1]);
            if c1 < c0 || o1 < o0 {
                return Err(violation(
                    RULE_CYCLE_MONOTONICITY,
                    stats.cycles,
                    format!("trace sample ({c1}, {o1}) regressed from ({c0}, {o0})"),
                ));
            }
        }
        if let Some(&(c, o)) = stats.trace.last() {
            if closed && (c != stats.cycles || o != stats.total_ops()) {
                return Err(violation(
                    RULE_CYCLE_MONOTONICITY,
                    stats.cycles,
                    format!(
                        "trace closes at ({c}, {o}) but kernel totals are ({}, {})",
                        stats.cycles,
                        stats.total_ops()
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Deposits the per-rule evaluation counts into `stats` so they ride
    /// along with the run's other accounting.
    pub fn finish(self, stats: &mut KernelStats) {
        for k in 0..4 {
            stats.invariant_checks[k] += self.checks[k];
        }
    }
}

/// Solve-level audit over stats merged across every kernel and vector
/// op of a solve: conservation must still balance exactly (all kernels
/// quiesced and the vector-op model is constructed conservation-clean),
/// the merged trace must stay monotone, and detail sums may not exceed
/// aggregates (the vector-op model contributes aggregate-only counts,
/// so equality is not required here).
///
/// Evaluation counts are added to `stats.invariant_checks`.
///
/// # Errors
///
/// [`RULE_FLIT_CONSERVATION`], [`RULE_CYCLE_MONOTONICITY`] or
/// [`RULE_STATS_CROSSCHECK`] as in [`Checker::check_kernel_end`].
pub fn check_solve_stats(stats: &mut KernelStats) -> Result<(), SimError> {
    let mut chk = Checker::with_enabled(true);
    let sources = stats.messages + stats.link_activations;
    chk.checks[CONSERVATION] += 1;
    if sources != stats.router_traversals {
        let err = violation(
            RULE_FLIT_CONSERVATION,
            stats.cycles,
            format!(
                "solve totals: messages ({}) + link_activations ({}) = {sources} \
                 != router_traversals ({})",
                stats.messages, stats.link_activations, stats.router_traversals
            ),
        );
        chk.finish(stats);
        return Err(err);
    }
    let res = chk.check_trace(stats, false).and_then(|()| {
        if stats.detail_enabled() {
            chk.checks[CROSSCHECK] += 1;
            crosscheck(stats, false)
        } else {
            Ok(())
        }
    });
    chk.finish(stats);
    res
}

/// Compares each aggregate counter against its per-PE/per-link detail
/// sum. `exact` demands equality (single kernel); otherwise detail may
/// undershoot the aggregate (vector-op model contributions).
fn crosscheck(stats: &KernelStats, exact: bool) -> Result<(), SimError> {
    let cycle = stats.cycles;
    let fail = |name: &str, detail_sum: u64, aggregate: u64| {
        violation(
            RULE_STATS_CROSSCHECK,
            cycle,
            format!(
                "per-tile {name} sums to {detail_sum} but the aggregate is {aggregate}{}",
                if exact {
                    ""
                } else {
                    " (detail must not exceed aggregate)"
                }
            ),
        )
    };
    let ok = |detail_sum: u64, aggregate: u64| {
        if exact {
            detail_sum == aggregate
        } else {
            detail_sum <= aggregate
        }
    };
    for k in 0..4 {
        let d: u64 = stats.pe.iter().map(|p| p.ops[k]).sum();
        if !ok(d, stats.ops[k]) {
            return Err(fail(&format!("ops[{k}]"), d, stats.ops[k]));
        }
    }
    let pairs: [(&str, u64, u64); 7] = [
        (
            "stall_cycles",
            stats.pe.iter().map(|p| p.stall_cycles).sum(),
            stats.stall_cycles,
        ),
        (
            "idle_cycles",
            stats.pe.iter().map(|p| p.idle_cycles).sum(),
            stats.idle_cycles,
        ),
        (
            "sram_reads",
            stats.pe.iter().map(|p| p.sram_reads).sum(),
            stats.sram_reads,
        ),
        (
            "accum_rmws",
            stats.pe.iter().map(|p| p.accum_rmws).sum(),
            stats.accum_rmws,
        ),
        (
            "spills",
            stats.pe.iter().map(|p| p.spills).sum(),
            stats.spills,
        ),
        (
            "link_activations",
            stats.links.iter().map(|l| l.total_out()).sum(),
            stats.link_activations,
        ),
        (
            "router_traversals",
            stats.links.iter().map(|l| l.router_traversals).sum(),
            stats.router_traversals,
        ),
    ];
    for (name, d, a) in pairs {
        if !ok(d, a) {
            return Err(fail(name, d, a));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_conservation_violation_is_caught() {
        let mut chk = Checker::with_enabled(true);
        let stats = KernelStats {
            cycles: 42,
            messages: 5,
            link_activations: 3,
            router_traversals: 7, // 5 + 3 != 7 + 0 + 0
            ..Default::default()
        };
        let err = chk.check_kernel_end(&stats, 0, 0).unwrap_err();
        match err {
            SimError::Invariant { rule, cycle, .. } => {
                assert_eq!(rule, RULE_FLIT_CONSERVATION);
                assert_eq!(cycle, 42);
            }
            other => panic!("expected invariant violation, got {other}"),
        }
    }

    #[test]
    fn conservation_accounts_for_in_flight_and_drops() {
        let mut chk = Checker::with_enabled(true);
        let stats = KernelStats {
            messages: 5,
            link_activations: 3,
            router_traversals: 6,
            ..Default::default()
        };
        // 5 + 3 == 6 + 1 + 1: balanced with one buffered, one dropped.
        chk.check_kernel_end(&stats, 1, 1).unwrap();
    }

    #[test]
    fn trace_regression_is_caught() {
        let mut stats = KernelStats {
            trace: vec![(0, 0), (10, 5), (8, 9)],
            ..Default::default()
        };
        let err = check_solve_stats(&mut stats).unwrap_err();
        assert!(matches!(
            err,
            SimError::Invariant {
                rule: RULE_CYCLE_MONOTONICITY,
                ..
            }
        ));
        // The failed rules still count as evaluated.
        assert!(stats.invariant_checks.iter().sum::<u64>() > 0);
    }

    #[test]
    fn detail_overshoot_is_caught_at_solve_level() {
        let mut stats = KernelStats::default();
        stats.enable_detail(2);
        stats.pe[0].ops[0] = 3;
        stats.ops[0] = 2; // detail (3) exceeds aggregate (2)
        let err = check_solve_stats(&mut stats).unwrap_err();
        assert!(matches!(
            err,
            SimError::Invariant {
                rule: RULE_STATS_CROSSCHECK,
                ..
            }
        ));
    }

    #[test]
    fn disabled_checker_audits_nothing() {
        let mut chk = Checker::with_enabled(false);
        let stats = KernelStats {
            messages: 99, // wildly unbalanced, but checking is off
            ..Default::default()
        };
        chk.check_kernel_end(&stats, 0, 0).unwrap();
        let mut sink = KernelStats::default();
        chk.finish(&mut sink);
        assert_eq!(sink.invariant_checks, [0; 4]);
    }
}
