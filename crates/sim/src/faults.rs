//! Deterministic fault injection for resilience studies.
//!
//! Azul keeps all solver state in distributed SRAM across hundreds of
//! tiles — exactly the regime where real silicon must tolerate transient
//! SRAM upsets, degraded NoC links and stalled cores. This module models
//! those hazards as a *schedule*: a [`FaultPlan`] lists [`FaultEvent`]s
//! pinned to global session cycles, and a [`FaultSession`] replays the
//! plan against the tick engine ([`crate::machine::run_kernel_checked`]),
//! carrying the cycle base across kernel invocations so events land
//! mid-solve, not just mid-kernel.
//!
//! Everything is deterministic and seedable: the same plan against the
//! same program produces the same fault timeline, which is what makes
//! "what if" resilience experiments reproducible. The zero-fault fast
//! path is untouched — when [`SimConfig::faults`](crate::SimConfig) is
//! `None` the machine never consults any of this.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One kind of injected hardware fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Transient SRAM upset: flip `bit` (0..64) of accumulator slot
    /// `slot` on `tile`. Models a single-event upset in the Data or
    /// Accumulator SRAM holding matrix/vector partial values.
    SramBitFlip {
        /// Target tile.
        tile: u32,
        /// Accumulator slot index within the tile's program.
        slot: u32,
        /// Bit position within the f64 payload (taken mod 64).
        bit: u32,
    },
    /// A router output link goes down for a window: flits queued toward
    /// `dir` wait at the router until the link recovers. A permanent
    /// outage (huge `for_cycles`) manifests as a watchdog deadlock.
    LinkDown {
        /// Tile whose output link fails.
        tile: u32,
        /// Output direction (`PORT_E/W/N/S`, 0..4).
        dir: u8,
        /// Window length in cycles.
        for_cycles: u64,
    },
    /// A router's outgoing links degrade: every forwarded flit pays
    /// `extra_latency` additional cycles for the window.
    LinkDegrade {
        /// Tile whose links degrade.
        tile: u32,
        /// Additional per-hop latency in cycles.
        extra_latency: u64,
        /// Window length in cycles.
        for_cycles: u64,
    },
    /// The PE of `tile` stops issuing operations for a window; its router
    /// keeps forwarding and triggers keep queueing.
    PeStall {
        /// Target tile.
        tile: u32,
        /// Window length in cycles.
        for_cycles: u64,
    },
    /// The PE of `tile` dies for the rest of the session. Pending work on
    /// that tile never drains — the watchdog reports the hang as
    /// [`SimError::Deadlock`](crate::SimError).
    PeKill {
        /// Target tile.
        tile: u32,
    },
}

impl FaultKind {
    /// The tile the fault targets.
    pub fn tile(&self) -> u32 {
        match *self {
            FaultKind::SramBitFlip { tile, .. }
            | FaultKind::LinkDown { tile, .. }
            | FaultKind::LinkDegrade { tile, .. }
            | FaultKind::PeStall { tile, .. }
            | FaultKind::PeKill { tile } => tile,
        }
    }

    /// Short stable name for telemetry (`sram_bit_flip`, `link_down`, …).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::SramBitFlip { .. } => "sram_bit_flip",
            FaultKind::LinkDown { .. } => "link_down",
            FaultKind::LinkDegrade { .. } => "link_degrade",
            FaultKind::PeStall { .. } => "pe_stall",
            FaultKind::PeKill { .. } => "pe_kill",
        }
    }

    /// Window length for windowed faults (`None` for instantaneous
    /// bit-flips; `u64::MAX` for a kill).
    fn window(&self) -> Option<u64> {
        match *self {
            FaultKind::SramBitFlip { .. } => None,
            FaultKind::LinkDown { for_cycles, .. }
            | FaultKind::LinkDegrade { for_cycles, .. }
            | FaultKind::PeStall { for_cycles, .. } => Some(for_cycles),
            FaultKind::PeKill { .. } => Some(u64::MAX),
        }
    }
}

/// A fault pinned to a global session cycle (cycles accumulate across
/// kernel invocations of one [`FaultSession`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Global session cycle at which the fault strikes.
    pub at_cycle: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, ordered schedule of fault events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Builds a plan from explicit events (sorted by cycle internally).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at_cycle);
        FaultPlan { events }
    }

    /// Generates `num_events` random faults over the first `window`
    /// global cycles of a `num_tiles`-tile session. Fully determined by
    /// `seed`: the same arguments always produce the same plan.
    pub fn seeded(seed: u64, num_tiles: usize, num_events: usize, window: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tiles = num_tiles.max(1) as u32;
        let window = window.max(1);
        let mut events = Vec::with_capacity(num_events);
        for _ in 0..num_events {
            let at_cycle = rng.gen_range(0..window);
            let tile = rng.gen_range(0..tiles);
            let kind = match rng.gen_range(0..4u32) {
                0 => FaultKind::SramBitFlip {
                    tile,
                    slot: rng.gen_range(0..64),
                    // Bias toward high mantissa/exponent bits so the upset
                    // is numerically visible, as SEU studies assume.
                    bit: rng.gen_range(40..63),
                },
                1 => FaultKind::LinkDown {
                    tile,
                    dir: rng.gen_range(0..4u32) as u8,
                    for_cycles: rng.gen_range(64..4096),
                },
                2 => FaultKind::LinkDegrade {
                    tile,
                    extra_latency: rng.gen_range(1..8),
                    for_cycles: rng.gen_range(256..8192),
                },
                _ => FaultKind::PeStall {
                    tile,
                    for_cycles: rng.gen_range(64..4096),
                },
            };
            events.push(FaultEvent { at_cycle, kind });
        }
        Self::new(events)
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, sorted by cycle.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// The journal entry for one fired fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Global session cycle at which the event fired.
    pub at_cycle: u64,
    /// The fault.
    pub kind: FaultKind,
    /// Whether the fault actually landed (false e.g. for a bit-flip
    /// aimed at a slot the target tile does not have).
    pub applied: bool,
    /// Human-readable detail (old/new value for bit flips, window end for
    /// outages).
    pub note: String,
}

/// Replays a [`FaultPlan`] against successive kernel invocations,
/// tracking active fault windows and journaling every fired event.
#[derive(Debug, Clone)]
pub struct FaultSession {
    plan: FaultPlan,
    /// Index of the next unfired event.
    next: usize,
    /// Global cycles accumulated by completed kernels.
    base: u64,
    /// Active windowed faults as `(kind, until_global_cycle)`.
    active: Vec<(FaultKind, u64)>,
    /// Cached min of `active[..].1` for the per-cycle fast path.
    earliest_expiry: u64,
    records: Vec<FaultRecord>,
}

impl FaultSession {
    /// Starts a session at global cycle 0.
    pub fn new(plan: FaultPlan) -> Self {
        FaultSession {
            plan,
            next: 0,
            base: 0,
            active: Vec::new(),
            earliest_expiry: u64::MAX,
            records: Vec::new(),
        }
    }

    /// Whether the session can never inject anything.
    pub fn fault_free(&self) -> bool {
        self.plan.is_empty()
    }

    /// The global session cycle corresponding to local kernel cycle
    /// `local_now`.
    pub fn global_cycle(&self, local_now: u64) -> u64 {
        self.base.saturating_add(local_now)
    }

    /// Advances the session to local cycle `local_now`: fires due events
    /// (windowed ones are journaled here; instantaneous bit-flips are
    /// appended to `fired` for the machine to apply and journal) and
    /// expires finished windows. Returns `true` when the set of active
    /// windows changed and the machine must re-sync router/PE fault
    /// state.
    pub fn advance(
        &mut self,
        local_now: u64,
        num_tiles: usize,
        fired: &mut Vec<FaultEvent>,
    ) -> bool {
        let gnow = self.global_cycle(local_now);
        let mut windows_changed = false;
        while let Some(&ev) = self.plan.events.get(self.next) {
            if ev.at_cycle > gnow {
                break;
            }
            self.next += 1;
            if ev.kind.tile() as usize >= num_tiles {
                self.records.push(FaultRecord {
                    at_cycle: gnow,
                    kind: ev.kind,
                    applied: false,
                    note: format!("tile {} outside {num_tiles}-tile grid", ev.kind.tile()),
                });
                continue;
            }
            match ev.kind.window() {
                None => fired.push(ev),
                Some(w) => {
                    let until = gnow.saturating_add(w);
                    self.active.push((ev.kind, until));
                    self.earliest_expiry = self.earliest_expiry.min(until);
                    self.records.push(FaultRecord {
                        at_cycle: gnow,
                        kind: ev.kind,
                        applied: true,
                        note: if until == u64::MAX {
                            "permanent".to_string()
                        } else {
                            format!("until global cycle {until}")
                        },
                    });
                    windows_changed = true;
                }
            }
        }
        if self.earliest_expiry <= gnow {
            self.active.retain(|&(_, until)| until > gnow);
            self.earliest_expiry = self
                .active
                .iter()
                .map(|&(_, until)| until)
                .min()
                .unwrap_or(u64::MAX);
            windows_changed = true;
        }
        windows_changed
    }

    /// The currently active fault windows.
    pub fn active_windows(&self) -> &[(FaultKind, u64)] {
        &self.active
    }

    /// Whether the watchdog should hold off: a *finite* outage window is
    /// in force, so apparent no-progress may resolve on its own when the
    /// window closes. Permanent faults (PeKill) do not suspend the
    /// watchdog — stranded work must be reported as a deadlock.
    pub fn suspends_watchdog(&self, local_now: u64) -> bool {
        let gnow = self.global_cycle(local_now);
        self.active
            .iter()
            .any(|&(_, until)| until != u64::MAX && until > gnow)
    }

    /// Journals a fired event the machine applied itself (bit flips).
    pub fn record(&mut self, at_cycle: u64, kind: FaultKind, applied: bool, note: String) {
        self.records.push(FaultRecord {
            at_cycle,
            kind,
            applied,
            note,
        });
    }

    /// Closes a kernel invocation of `cycles` cycles, shifting the global
    /// cycle base for the next one.
    pub fn end_kernel(&mut self, cycles: u64) {
        self.base = self.base.saturating_add(cycles);
    }

    /// The journal of every fired event so far.
    pub fn records(&self) -> &[FaultRecord] {
        &self.records
    }
}

/// Knobs of the solver-level detection + checkpoint/rollback policy.
///
/// The solver frontends ([`PcgSim`](crate::PcgSim),
/// [`BiCgStabSim`](crate::BiCgStabSim), [`GmresSim`](crate::GmresSim))
/// snapshot the solution vector every `checkpoint_interval` iterations.
/// When a guard detects a non-finite scalar or residual growth beyond
/// `divergence_factor` times the best residual seen, the solver restores
/// the snapshot, recomputes the true residual `r = b − A x` with the
/// reference kernels, rebuilds its recurrence state and continues — at
/// most `max_rollbacks` times, after which the breakdown is surfaced in
/// the report status.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Master switch. Disabled, guards still fire but report a breakdown
    /// instead of rolling back.
    pub enabled: bool,
    /// Snapshot the solution every this many iterations.
    pub checkpoint_interval: usize,
    /// Bounded retry: rollbacks allowed before giving up.
    pub max_rollbacks: usize,
    /// Declare divergence when `||r||` exceeds this factor times the best
    /// residual norm observed.
    pub divergence_factor: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            enabled: true,
            checkpoint_interval: 8,
            max_rollbacks: 4,
            divergence_factor: 1e6,
        }
    }
}

impl RecoveryPolicy {
    /// A policy with recovery switched off (guards only).
    pub fn disabled() -> Self {
        RecoveryPolicy {
            enabled: false,
            ..Self::default()
        }
    }
}

/// One executed rollback, journaled into the solver reports and the
/// telemetry `recoveries` section.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRecord {
    /// Iteration at which the anomaly was detected.
    pub iteration: usize,
    /// Iteration of the checkpoint the solver rolled back to.
    pub restored_iteration: usize,
    /// What tripped the guard.
    pub reason: String,
}

/// Knobs of the *silent*-corruption detection layer.
///
/// [`RecoveryPolicy`]'s guards fire only on loud symptoms — NaN/Inf,
/// divergence, stagnation. A low-mantissa SRAM flip produces none of
/// those: the recursive residual stays finite and shrinking while the
/// solution drifts from the truth. This policy arms two quiet detectors
/// in the solver frontends:
///
/// * **ABFT kernel checksums** ([`azul_solver::abft`]): Huang–Abraham
///   column/row checksum vectors precomputed per operator, verified
///   against a rounding-aware bound after SpMV/SpTRSV launches.
/// * **True-residual audits**: every `audit_interval` iterations — and
///   unconditionally before declaring convergence — the frontend
///   recomputes `r = b − A·x` with the reference kernels and compares it
///   to the recursive residual the recurrence has been carrying.
///
/// A violation feeds the *existing* recovery machinery (re-verify →
/// checkpoint rollback → supervisor rung escalation via
/// `BreakdownKind::IntegrityViolation`), so detection composes with
/// [`RecoveryPolicy`] rather than replacing it. Disabled (the default),
/// the frontends skip every check and telemetry stays byte-identical to
/// the pre-integrity schema.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegrityPolicy {
    /// Master switch. Disabled, no checks run and no audit is journaled.
    pub enabled: bool,
    /// Run a recursive-vs-true residual drift audit every this many
    /// iterations (0 disables the periodic audit; the final audit still
    /// runs).
    pub audit_interval: usize,
    /// Declare drift when the true residual exceeds this factor times
    /// the recursive residual plus a rounding floor.
    pub drift_factor: f64,
    /// Verify ABFT checksums after simulated SpMV/SpTRSV launches.
    pub checksum_kernels: bool,
    /// Require the true residual — not the recursive one — to meet the
    /// tolerance before `converged: true` is declared.
    pub final_audit: bool,
}

impl Default for IntegrityPolicy {
    /// Disabled: the zero-integrity-check path is the default so
    /// existing runs and their telemetry stay byte-identical.
    fn default() -> Self {
        IntegrityPolicy {
            enabled: false,
            audit_interval: 16,
            drift_factor: 10.0,
            checksum_kernels: true,
            final_audit: true,
        }
    }
}

impl IntegrityPolicy {
    /// The full detection battery: checksums, periodic drift audits and
    /// the mandatory final audit.
    pub fn audit() -> Self {
        IntegrityPolicy {
            enabled: true,
            ..Self::default()
        }
    }

    /// Explicitly disabled (same as [`Default`]).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether the periodic drift audit is due at `iteration`.
    pub(crate) fn drift_due(&self, iteration: usize) -> bool {
        self.enabled && self.audit_interval > 0 && iteration.is_multiple_of(self.audit_interval)
    }
}

/// One failed integrity check, journaled into the solver reports and the
/// telemetry `integrity` section.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrityRecord {
    /// Iteration at which the check failed.
    pub iteration: usize,
    /// Which detector fired: `checksum_spmv`, `checksum_sptrsv`,
    /// `residual_drift` or `final_audit`.
    pub check: &'static str,
    /// Human-readable detail (gap vs. bound, recursive vs. true norm).
    pub detail: String,
}

/// One periodic drift-audit sample (recorded whether or not it tripped).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSample {
    /// Iteration the audit ran at.
    pub iteration: usize,
    /// Recursive residual norm the recurrence was carrying.
    pub recursive: f64,
    /// Freshly recomputed `||b − A·x||`.
    pub true_residual: f64,
}

/// The integrity journal of one solve: every check run, every violation
/// and every drift sample, plus the wrong-answer escape counter that the
/// acceptance campaign asserts to be zero.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntegrityAudit {
    /// Total integrity checks executed (checksums + drift + final).
    pub checks: u64,
    /// Checks that failed and fed the recovery ladder.
    pub violations: Vec<IntegrityRecord>,
    /// Periodic drift samples (bounded history).
    pub drift: Vec<DriftSample>,
    /// Solves that declared convergence while the true residual missed
    /// the tolerance — the silent wrong answers this subsystem exists to
    /// eliminate. Non-zero only when the final audit is disabled.
    pub escapes: u64,
}

impl IntegrityAudit {
    /// Whether any check ran (used to omit the telemetry section).
    pub fn is_empty(&self) -> bool {
        self.checks == 0 && self.violations.is_empty() && self.escapes == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 16, 10, 100_000);
        let b = FaultPlan::seeded(42, 16, 10, 100_000);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 10);
        let c = FaultPlan::seeded(43, 16, 10, 100_000);
        assert_ne!(a, c, "different seeds give different plans");
        // Sorted by cycle and within the window.
        for w in a.events().windows(2) {
            assert!(w[0].at_cycle <= w[1].at_cycle);
        }
        assert!(a.events().iter().all(|e| e.at_cycle < 100_000));
    }

    #[test]
    fn session_fires_and_expires_windows() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at_cycle: 10,
                kind: FaultKind::PeStall {
                    tile: 1,
                    for_cycles: 5,
                },
            },
            FaultEvent {
                at_cycle: 12,
                kind: FaultKind::SramBitFlip {
                    tile: 0,
                    slot: 0,
                    bit: 62,
                },
            },
        ]);
        let mut s = FaultSession::new(plan);
        let mut fired = Vec::new();
        assert!(!s.advance(9, 4, &mut fired));
        assert!(fired.is_empty());
        assert!(s.advance(10, 4, &mut fired), "window opens");
        assert_eq!(s.active_windows().len(), 1);
        assert!(s.advance(12, 4, &mut fired) || !fired.is_empty());
        assert_eq!(fired.len(), 1, "bit flip handed to the machine");
        assert!(s.advance(15, 4, &mut fired), "window expires");
        assert!(s.active_windows().is_empty());
        // Windowed fault journaled by the session itself.
        assert_eq!(s.records().len(), 1);
    }

    #[test]
    fn session_base_carries_across_kernels() {
        let plan = FaultPlan::new(vec![FaultEvent {
            at_cycle: 100,
            kind: FaultKind::SramBitFlip {
                tile: 0,
                slot: 0,
                bit: 1,
            },
        }]);
        let mut s = FaultSession::new(plan);
        let mut fired = Vec::new();
        s.advance(50, 4, &mut fired);
        assert!(fired.is_empty(), "not due in kernel 1");
        s.end_kernel(60);
        s.advance(40, 4, &mut fired);
        assert_eq!(fired.len(), 1, "fires at global cycle 100 in kernel 2");
    }

    #[test]
    fn out_of_range_tile_is_journaled_not_applied() {
        let plan = FaultPlan::new(vec![FaultEvent {
            at_cycle: 0,
            kind: FaultKind::PeKill { tile: 99 },
        }]);
        let mut s = FaultSession::new(plan);
        let mut fired = Vec::new();
        s.advance(0, 4, &mut fired);
        assert!(fired.is_empty());
        assert_eq!(s.records().len(), 1);
        assert!(!s.records()[0].applied);
    }

    #[test]
    fn pe_kill_does_not_suspend_watchdog() {
        let plan = FaultPlan::new(vec![FaultEvent {
            at_cycle: 0,
            kind: FaultKind::PeKill { tile: 0 },
        }]);
        let mut s = FaultSession::new(plan);
        let mut fired = Vec::new();
        s.advance(0, 4, &mut fired);
        assert!(!s.suspends_watchdog(1));

        let plan = FaultPlan::new(vec![FaultEvent {
            at_cycle: 0,
            kind: FaultKind::LinkDown {
                tile: 0,
                dir: 0,
                for_cycles: 1000,
            },
        }]);
        let mut s = FaultSession::new(plan);
        s.advance(0, 4, &mut fired);
        assert!(s.suspends_watchdog(1), "finite outage suspends watchdog");
    }
}
