//! End-to-end fault injection: crafted [`FaultPlan`]s against the
//! cycle-level machine and the PCG frontend. Covers the acceptance
//! scenario — a deterministic plan with an SRAM bit flip, a link outage
//! and a PE stall must (a) still converge to the fault-free tolerance
//! via checkpoint/rollback recovery, with the fault and recovery events
//! visible in the JSON telemetry report, and (b) terminate with a
//! structured status (no hang, no panic) when recovery is disabled.
//! A PE kill mid-SpMV must surface as [`SimError::Deadlock`] with the
//! correct stalled-PE set under the watchdog's cycle budget.

use azul::mapping::strategies::{Mapper, RoundRobinMapper};
use azul::mapping::TileGrid;
use azul::sim::bicgstab::{BiCgStabSim, BiCgStabSimConfig};
use azul::sim::config::SimConfig;
use azul::sim::faults::{FaultEvent, FaultKind, FaultPlan, IntegrityPolicy, RecoveryPolicy};
use azul::sim::gmres::{GmresSim, GmresSimConfig};
use azul::sim::machine::{run_kernel_checked, SimError};
use azul::sim::pcg::{PcgSim, PcgSimConfig};
use azul::sim::program::Program;
use azul::sim::telemetry::{describe_config, fill_fault_report, fill_report};
use azul::solver::SolveStatus;
use azul::sparse::generate;
use azul::telemetry::TelemetryReport;

fn poisson_setup() -> (azul::sparse::Csr, azul::mapping::Placement, TileGrid) {
    let a = generate::grid_laplacian_2d(16, 16);
    let grid = TileGrid::new(2, 2);
    let p = RoundRobinMapper.map(&a, grid);
    (a, p, grid)
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 37 % 19) as f64) / 19.0 + 0.5)
        .collect()
}

/// The acceptance plan: one SRAM bit flip (lands on a live accumulator
/// partial and blows it up to ~1e308), one finite link outage and one
/// PE stall window, all inside the first few timed iterations of the
/// solve (~2300 global cycles each).
fn acceptance_plan() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent {
            at_cycle: 300,
            kind: FaultKind::LinkDown {
                tile: 0,
                dir: 0,
                for_cycles: 400,
            },
        },
        FaultEvent {
            at_cycle: 900,
            kind: FaultKind::PeStall {
                tile: 3,
                for_cycles: 300,
            },
        },
        FaultEvent {
            at_cycle: 5300,
            kind: FaultKind::SramBitFlip {
                tile: 1,
                slot: 0,
                bit: 62,
            },
        },
    ])
}

/// A killed PE strands its accumulator work: the watchdog must abort the
/// kernel within its no-progress budget and name the dead tile.
#[test]
fn watchdog_reports_deadlock_on_pe_kill() {
    let (a, p, grid) = poisson_setup();
    let mut cfg = SimConfig::azul(grid);
    cfg.watchdog_no_progress_cycles = 2_000;
    cfg.max_kernel_cycles = 200_000;
    cfg.faults = Some(FaultPlan::new(vec![FaultEvent {
        at_cycle: 100,
        kind: FaultKind::PeKill { tile: 2 },
    }]));
    let prog = Program::compile_spmv(&a, &p);
    let x: Vec<f64> = (0..a.rows()).map(|i| 1.0 + (i % 7) as f64).collect();

    let err = run_kernel_checked(&cfg, &prog, &x, None)
        .expect_err("a killed PE must deadlock the kernel");
    let SimError::Deadlock {
        cycle,
        stalled_pes,
        inflight_flits: _,
    } = err
    else {
        panic!("expected a deadlock, got {err}");
    };
    assert!(
        cycle <= cfg.max_kernel_cycles,
        "watchdog fired at cycle {cycle}, beyond the {} budget",
        cfg.max_kernel_cycles
    );
    assert!(
        cycle < 10_000,
        "no-progress watchdog should fire within a few thousand cycles, fired at {cycle}"
    );
    assert!(
        stalled_pes.contains(&2),
        "killed tile 2 missing from stalled set {stalled_pes:?}"
    );
}

/// The same kill must surface through the solver frontend as a typed
/// error — `try_run` returns it, it never hangs or panics.
#[test]
fn pcg_try_run_surfaces_deadlock() {
    let (a, p, grid) = poisson_setup();
    let mut cfg = SimConfig::azul(grid);
    cfg.watchdog_no_progress_cycles = 2_000;
    cfg.max_kernel_cycles = 200_000;
    cfg.faults = Some(FaultPlan::new(vec![FaultEvent {
        at_cycle: 100,
        kind: FaultKind::PeKill { tile: 1 },
    }]));
    let sim = PcgSim::build(&a, &p, &cfg).unwrap();
    let b = rhs(a.rows());
    let run_cfg = PcgSimConfig {
        timed_iterations: 0,
        ..Default::default()
    };
    match sim.try_run(&b, &run_cfg) {
        Err(SimError::Deadlock { stalled_pes, .. }) => {
            assert!(stalled_pes.contains(&1), "stalled set {stalled_pes:?}");
        }
        Ok(_) => panic!("solve must not succeed with a dead PE"),
        Err(other) => panic!("expected a deadlock, got {other}"),
    }
}

/// Acceptance scenario, recovery on: bit flip + link outage + PE stall,
/// and PCG still converges to the fault-free tolerance by rolling back
/// to the last checkpoint. The faults and the rollback are journaled in
/// the report and flow into the JSON telemetry document.
#[test]
fn pcg_recovers_from_crafted_fault_scenario() {
    let (a, p, grid) = poisson_setup();
    let b = rhs(a.rows());
    let run_cfg = PcgSimConfig {
        timed_iterations: 0,
        ..Default::default()
    };

    // Fault-free baseline.
    let clean_cfg = SimConfig::azul(grid);
    let clean = PcgSim::build(&a, &p, &clean_cfg).unwrap().run(&b, &run_cfg);
    assert!(clean.converged);
    assert!(clean.fault_events.is_empty() && clean.recoveries.is_empty());

    // Faulted run.
    let mut cfg = SimConfig::azul(grid);
    cfg.faults = Some(acceptance_plan());
    let sim = PcgSim::build(&a, &p, &cfg).unwrap();
    let report = sim
        .try_run(&b, &run_cfg)
        .expect("recovery must carry the solve through");

    assert_eq!(report.status, SolveStatus::Converged);
    assert!(
        report.final_residual <= run_cfg.tol,
        "faulted solve missed the fault-free tolerance: {:e} > {:e}",
        report.final_residual,
        run_cfg.tol
    );
    // All three injected faults fired and landed.
    assert_eq!(report.fault_events.len(), 3);
    let kinds: Vec<&str> = report.fault_events.iter().map(|f| f.kind.name()).collect();
    for k in ["sram_bit_flip", "link_down", "pe_stall"] {
        assert!(kinds.contains(&k), "missing fault kind {k} in {kinds:?}");
    }
    assert!(report.fault_events.iter().all(|f| f.applied));
    // The corrupted accumulator tripped a guard and rolled back.
    assert!(
        !report.recoveries.is_empty(),
        "the bit flip must force at least one rollback"
    );
    assert!(report.recoveries.len() <= run_cfg.recovery.max_rollbacks);
    for r in &report.recoveries {
        assert!(r.restored_iteration <= r.iteration);
    }
    // Recovery costs iterations but not correctness.
    assert!(report.iterations >= clean.iterations);

    // The events flow into the JSON telemetry document.
    let mut doc = TelemetryReport::default();
    describe_config(&mut doc, &cfg);
    fill_report(&mut doc, &cfg, &report.stats);
    fill_fault_report(&mut doc, &report.fault_events, &report.recoveries);
    assert_eq!(doc.counter_value("fault_events"), Some(3));
    assert_eq!(
        doc.counter_value("rollbacks"),
        Some(report.recoveries.len() as u64)
    );
    let json = doc.to_json().to_string_pretty();
    for needle in [
        "\"faults\"",
        "\"recoveries\"",
        "sram_bit_flip",
        "link_down",
        "pe_stall",
        "\"rollbacks\"",
    ] {
        assert!(json.contains(needle), "JSON report missing {needle}");
    }
}

/// Acceptance scenario, recovery off: the guards still fire, and the
/// solve terminates with a structured breakdown status — no hang, no
/// panic, no silent wrong answer.
#[test]
fn recovery_disabled_terminates_with_structured_status() {
    let (a, p, grid) = poisson_setup();
    let mut cfg = SimConfig::azul(grid);
    cfg.faults = Some(acceptance_plan());
    let sim = PcgSim::build(&a, &p, &cfg).unwrap();
    let b = rhs(a.rows());
    let run_cfg = PcgSimConfig {
        timed_iterations: 0,
        recovery: RecoveryPolicy::disabled(),
        ..Default::default()
    };
    let report = sim
        .try_run(&b, &run_cfg)
        .expect("finite fault windows never deadlock the machine");
    assert!(
        matches!(report.status, SolveStatus::Breakdown(_)),
        "expected a breakdown status, got {:?}",
        report.status
    );
    assert!(!report.converged);
    assert!(report.recoveries.is_empty(), "no rollbacks when disabled");
    assert_eq!(report.fault_events.len(), 3);
}

/// A high-bit flip landing *before the first checkpoint interval
/// elapses* — the plan used by the acceptance scenario fires at cycle
/// 5300, inside the first few iterations, while the first periodic
/// checkpoint is only taken at iteration `checkpoint_interval` (8).
fn early_flip_plan() -> FaultPlan {
    FaultPlan::new(vec![FaultEvent {
        at_cycle: 5_300,
        kind: FaultKind::SramBitFlip {
            tile: 0,
            slot: 0,
            bit: 62,
        },
    }])
}

/// Shared assertions for the early-flip regression: the rollback hole
/// before the first periodic checkpoint is closed by the iteration-0
/// snapshot of the initial iterate, so a flip striking in the first
/// interval restores to iteration 0 and the solve still converges.
fn assert_early_flip_recovered(
    solver: &str,
    converged: bool,
    final_residual: f64,
    tol: f64,
    checkpoint_interval: usize,
    recoveries: &[azul::sim::faults::RecoveryRecord],
) {
    assert!(converged, "{solver}: early-flip solve must converge");
    assert!(
        final_residual <= tol,
        "{solver}: early flip degraded the answer: {final_residual:e} > {tol:e}"
    );
    assert!(
        !recoveries.is_empty(),
        "{solver}: the early flip must force a rollback"
    );
    let first = &recoveries[0];
    assert!(
        first.iteration < checkpoint_interval,
        "{solver}: rollback at iteration {} is not before the first \
         checkpoint interval ({checkpoint_interval})",
        first.iteration
    );
    assert_eq!(
        first.restored_iteration, 0,
        "{solver}: a flip before the first checkpoint must restore the \
         iteration-0 snapshot, restored iteration {}",
        first.restored_iteration
    );
}

/// PCG: bit flip before the first checkpoint interval elapses rolls
/// back to the iteration-0 snapshot and still converges.
#[test]
fn pcg_flip_before_first_checkpoint_rolls_back_to_start() {
    let (a, p, grid) = poisson_setup();
    let mut cfg = SimConfig::azul(grid);
    cfg.faults = Some(early_flip_plan());
    let sim = PcgSim::build(&a, &p, &cfg).unwrap();
    let run_cfg = PcgSimConfig {
        timed_iterations: 0,
        integrity: IntegrityPolicy::audit(),
        ..Default::default()
    };
    let r = sim
        .try_run(&rhs(a.rows()), &run_cfg)
        .expect("recovery must carry the solve through");
    assert_early_flip_recovered(
        "pcg",
        r.converged,
        r.final_residual,
        run_cfg.tol,
        run_cfg.recovery.checkpoint_interval,
        &r.recoveries,
    );
    assert_eq!(r.integrity.escapes, 0, "pcg: no silent wrong answer");
}

/// BiCGSTAB: same early-flip scenario, same rollback-to-start contract.
#[test]
fn bicgstab_flip_before_first_checkpoint_rolls_back_to_start() {
    let (a, p, grid) = poisson_setup();
    let mut cfg = SimConfig::azul(grid);
    cfg.faults = Some(early_flip_plan());
    let sim = BiCgStabSim::build(&a, &p, &cfg).unwrap();
    let run_cfg = BiCgStabSimConfig {
        timed_iterations: 0,
        integrity: IntegrityPolicy::audit(),
        ..Default::default()
    };
    let r = sim
        .try_run(&rhs(a.rows()), &run_cfg)
        .expect("recovery must carry the solve through");
    assert_early_flip_recovered(
        "bicgstab",
        r.converged,
        r.final_residual,
        run_cfg.tol,
        run_cfg.recovery.checkpoint_interval,
        &r.recoveries,
    );
    assert_eq!(r.integrity.escapes, 0, "bicgstab: no silent wrong answer");
}

/// GMRES: same early-flip scenario, same rollback-to-start contract.
#[test]
fn gmres_flip_before_first_checkpoint_rolls_back_to_start() {
    let (a, p, grid) = poisson_setup();
    let mut cfg = SimConfig::azul(grid);
    cfg.faults = Some(early_flip_plan());
    let sim = GmresSim::build(&a, &p, &cfg).unwrap();
    let run_cfg = GmresSimConfig {
        timed_iterations: 0,
        integrity: IntegrityPolicy::audit(),
        ..Default::default()
    };
    let r = sim
        .try_run(&rhs(a.rows()), &run_cfg)
        .expect("recovery must carry the solve through");
    assert_early_flip_recovered(
        "gmres",
        r.converged,
        r.final_residual,
        run_cfg.tol,
        run_cfg.recovery.checkpoint_interval,
        &r.recoveries,
    );
    assert_eq!(r.integrity.escapes, 0, "gmres: no silent wrong answer");
}

/// Seeded plans drive the whole pipeline deterministically: two solves
/// under the same seed produce identical fault journals and identical
/// iterates.
#[test]
fn seeded_plans_reproduce_end_to_end() {
    let (a, p, grid) = poisson_setup();
    let b = rhs(a.rows());
    let run_cfg = PcgSimConfig {
        timed_iterations: 0,
        ..Default::default()
    };
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut cfg = SimConfig::azul(grid);
        cfg.faults = Some(FaultPlan::seeded(7, grid.num_tiles(), 4, 20_000));
        let sim = PcgSim::build(&a, &p, &cfg).unwrap();
        runs.push(
            sim.try_run(&b, &run_cfg)
                .expect("seeded windows are finite"),
        );
    }
    let (r1, r2) = (&runs[0], &runs[1]);
    assert_eq!(r1.fault_events, r2.fault_events);
    assert_eq!(r1.recoveries, r2.recoveries);
    assert_eq!(r1.iterations, r2.iterations);
    assert_eq!(r1.x, r2.x);
}

mod fault_soak {
    //! Randomized fault soak (satellite of the serve PR): arbitrary
    //! seeded [`FaultPlan`]s thrown at the full supervised-solve ladder
    //! must always terminate with either a success or a *typed*
    //! [`AzulError`] — never a panic and never a hang. The watchdog and
    //! the attempt cap bound every case's runtime, so "terminates" is
    //! enforced by construction, not by a timeout harness.

    use azul::sim::faults::FaultPlan;
    use azul::sparse::generate;
    use azul::{AzulConfig, AzulError, EscalationPolicy, SolveSupervisor};
    use proptest::prelude::*;

    fn rhs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37 % 19) as f64) / 19.0 + 0.5)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn random_fault_plans_yield_success_or_typed_errors(
            seed in 0u64..1 << 32,
            events in 1usize..=5,
            window in 5_000u64..60_000,
        ) {
            let a = generate::grid_laplacian_2d(8, 8);
            let b = rhs(a.rows());
            let mut cfg = AzulConfig::small_test();
            let tiles = cfg.sim.grid.num_tiles();
            cfg.sim.faults = Some(FaultPlan::seeded(seed, tiles, events, window));
            let policy = EscalationPolicy {
                max_attempts: 4,
                ..EscalationPolicy::default()
            };
            let sup = SolveSupervisor::with_policy(cfg, policy);
            match sup.solve(&a, &b) {
                Ok(report) => {
                    prop_assert!(report.final_residual.is_finite());
                    prop_assert!(!report.x.iter().any(|v| v.is_nan()));
                }
                Err(err) => {
                    // Every failure is a typed, displayable variant whose
                    // source() chain bottoms out without panicking.
                    let rendered = err.to_string();
                    prop_assert!(!rendered.is_empty());
                    let mut cause: Option<&(dyn std::error::Error + 'static)> =
                        std::error::Error::source(&err);
                    let mut hops = 0;
                    while let Some(c) = cause {
                        hops += 1;
                        prop_assert!(hops < 16, "cyclic source chain");
                        cause = c.source();
                    }
                    prop_assert!(matches!(
                        err,
                        AzulError::Input(_)
                            | AzulError::Capacity { .. }
                            | AzulError::Numeric(_)
                            | AzulError::Sim(_)
                            | AzulError::Exhausted { .. }
                            | AzulError::Cancelled { .. }
                    ));
                }
            }
        }
    }
}

mod integrity_soak {
    //! Randomized single-bit value flips against the audited PCG,
    //! BiCGStab and GMRES frontends: every flip must be *detected or
    //! provably harmless*. Detected means a journaled integrity
    //! violation, a rollback, or a loud structured failure; harmless
    //! means the returned iterate's true residual `||b - A·x||` still
    //! meets the tolerance (with the final audit's drift slack). What
    //! must never happen is the fourth quadrant: `converged` claimed
    //! while the true residual is off — the silent wrong answer.

    use azul::mapping::strategies::{Mapper, RoundRobinMapper};
    use azul::mapping::{Placement, TileGrid};
    use azul::sim::bicgstab::{BiCgStabSim, BiCgStabSimConfig};
    use azul::sim::config::SimConfig;
    use azul::sim::faults::{FaultEvent, FaultKind, FaultPlan, IntegrityPolicy};
    use azul::sim::gmres::{GmresSim, GmresSimConfig};
    use azul::sim::machine::SimError;
    use azul::sim::pcg::{PcgSim, PcgSimConfig};
    use azul::sparse::{dense, generate, Csr};
    use proptest::prelude::*;

    fn rhs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37 % 19) as f64) / 19.0 + 0.5)
            .collect()
    }

    const SOLVERS: [&str; 3] = ["pcg", "bicgstab", "gmres"];

    /// What the property needs from a report: `(escapes, converged, x)`.
    type Verdict = Result<(u64, bool, Vec<f64>), SimError>;

    /// Runs `solver` with every iteration timed and the full audit on.
    fn audited_solve(solver: &str, a: &Csr, p: &Placement, cfg: &SimConfig, b: &[f64]) -> Verdict {
        let integrity = IntegrityPolicy::audit();
        match solver {
            "pcg" => {
                let run_cfg = PcgSimConfig {
                    timed_iterations: 0,
                    integrity,
                    ..Default::default()
                };
                let r = PcgSim::build(a, p, cfg)
                    .expect("build")
                    .try_run(b, &run_cfg)?;
                Ok((r.integrity.escapes, r.converged, r.x))
            }
            "bicgstab" => {
                let run_cfg = BiCgStabSimConfig {
                    timed_iterations: 0,
                    integrity,
                    ..Default::default()
                };
                let sim = BiCgStabSim::build(a, p, cfg).expect("build");
                let r = sim.try_run(b, &run_cfg)?;
                Ok((r.integrity.escapes, r.converged, r.x))
            }
            _ => {
                let run_cfg = GmresSimConfig {
                    timed_iterations: 0,
                    integrity,
                    ..Default::default()
                };
                let r = GmresSim::build(a, p, cfg)
                    .expect("build")
                    .try_run(b, &run_cfg)?;
                Ok((r.integrity.escapes, r.converged, r.x))
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn seeded_single_bit_flips_are_detected_or_harmless(
            solver in 0usize..3,
            tile in 0u32..4,
            slot in 0u32..2,
            bit in 0u32..64,
            at_cycle in 1_000u64..40_000,
        ) {
            let solver = SOLVERS[solver];
            let a = generate::grid_laplacian_2d(16, 16);
            let b = rhs(a.rows());
            let grid = TileGrid::new(2, 2);
            let p = RoundRobinMapper.map(&a, grid);
            let mut cfg = SimConfig::azul(grid);
            cfg.faults = Some(FaultPlan::new(vec![FaultEvent {
                at_cycle,
                kind: FaultKind::SramBitFlip { tile, slot, bit },
            }]));
            // A loud, typed failure is a detection, not an escape —
            // only an Ok report can carry a silent wrong answer.
            if let Ok((escapes, converged, x)) = audited_solve(solver, &a, &p, &cfg, &b) {
                // The mandatory final audit bans silent escapes...
                prop_assert_eq!(escapes, 0, "{} escaped", solver);
                // ...and the independently recomputed residual
                // agrees: a converged claim is a true answer.
                if converged {
                    let ax = a.spmv(&x);
                    let r: Vec<f64> = b.iter()
                        .zip(&ax)
                        .map(|(bi, yi)| bi - yi)
                        .collect();
                    let true_r = dense::norm2(&r);
                    let policy = IntegrityPolicy::audit();
                    let slack = policy.drift_factor * PcgSimConfig::default().tol;
                    prop_assert!(
                        true_r <= slack,
                        "silent escape: {} converged with true \
                         residual {:e} > {:e} (tile {} slot {} \
                         bit {} cycle {})",
                        solver, true_r, slack, tile, slot, bit, at_cycle
                    );
                }
            }
        }
    }
}
