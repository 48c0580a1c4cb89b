//! Determinism regression tests: the same scenario must produce
//! byte-identical telemetry JSON every run.
//!
//! This is the runtime counterpart of the `azul-lint` static pass.
//! The whole methodology rests on the cycle model being a pure
//! function of (matrix, mapping, config, seeds): figures are cycle
//! counts, and a nondeterministic iteration order anywhere in the
//! pipeline would make them irreproducible. These tests solve the same
//! system twice — fault-free and with a seeded fault plan — and compare
//! the full serialized reports byte for byte. Wall-clock phase spans
//! are deliberately excluded: they measure host time and are the one
//! legitimately nondeterministic part of telemetry.
//!
//! Runtime invariants ([`azul::sim::invariants`]) are switched on
//! explicitly, so these runs double as an end-to-end audit: flit
//! conservation, router occupancy bounds, trace monotonicity and the
//! aggregate-vs-detail cross-check all hold on every checked run.

use azul::mapping::strategies::{AzulMapper, Mapper, RoundRobinMapper};
use azul::mapping::TileGrid;
use azul::sim::bicgstab::{BiCgStabSim, BiCgStabSimConfig};
use azul::sim::config::{SimConfig, StagnationPolicy};
use azul::sim::faults::{
    FaultEvent, FaultKind, FaultPlan, FaultRecord, IntegrityAudit, IntegrityPolicy, RecoveryRecord,
};
use azul::sim::gmres::{GmresSim, GmresSimConfig};
use azul::sim::invariants::{Checker, RULE_FLIT_CONSERVATION};
use azul::sim::machine::SimError;
use azul::sim::pcg::{PcgSim, PcgSimConfig, PcgSimReport};
use azul::sim::stats::KernelStats;
use azul::sim::telemetry::{
    describe_config, fill_fault_report, fill_integrity_report, fill_invariant_report, fill_report,
};
use azul::solver::SolveStatus;
use azul::sparse::generate;
use azul::telemetry::report::IterationSample;
use azul::telemetry::trace::{chrome_trace_json, validate_chrome_trace, TraceConfig};
use azul::telemetry::TelemetryReport;

fn setup() -> (azul::sparse::Csr, azul::mapping::Placement, TileGrid) {
    let a = generate::grid_laplacian_2d(20, 20);
    let grid = TileGrid::new(4, 4);
    let p = AzulMapper::fast_default().map(&a, grid);
    (a, p, grid)
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 + ((i * 31 % 17) as f64) / 17.0)
        .collect()
}

/// One checked, detailed solve of the scenario.
fn solve(faults: Option<FaultPlan>) -> (PcgSimReport, SimConfig) {
    let (a, p, grid) = setup();
    let mut cfg = SimConfig::azul(grid);
    cfg.detailed_stats = true;
    cfg.check_invariants = true;
    cfg.faults = faults;
    let run_cfg = PcgSimConfig {
        // Time every iteration so the fault timeline is exercised.
        timed_iterations: 0,
        ..PcgSimConfig::default()
    };
    let sim = PcgSim::build(&a, &p, &cfg).expect("pcg build");
    let report = sim
        .try_run(&rhs(a.rows()), &run_cfg)
        .expect("checked solve succeeds");
    (report, cfg)
}

/// Serializes everything deterministic about a solve: scenario, all
/// counters, per-PE/per-link detail, convergence history, fault and
/// recovery journals, and the invariant audit. No `absorb_spans` —
/// span wall-times are host measurements.
fn serialize(report: &PcgSimReport, cfg: &SimConfig) -> String {
    serialize_parts(
        cfg,
        &report.stats,
        &report.fault_events,
        &report.recoveries,
        &report.convergence,
    )
}

fn serialize_parts(
    cfg: &SimConfig,
    stats: &KernelStats,
    fault_events: &[FaultRecord],
    recoveries: &[RecoveryRecord],
    convergence: &[IterationSample],
) -> String {
    let mut doc = TelemetryReport::default();
    describe_config(&mut doc, cfg);
    fill_report(&mut doc, cfg, stats);
    fill_fault_report(&mut doc, fault_events, recoveries);
    fill_invariant_report(&mut doc, stats);
    doc.convergence = convergence.to_vec();
    doc.to_json().to_string_pretty()
}

/// A detailed, checked `SimConfig` for the shared scenario with the
/// engine knobs under test.
fn engine_cfg(
    grid: TileGrid,
    threads: usize,
    ff: bool,
    event: bool,
    faults: Option<FaultPlan>,
) -> SimConfig {
    let mut cfg = SimConfig::azul(grid);
    cfg.detailed_stats = true;
    cfg.check_invariants = true;
    cfg.threads = threads;
    cfg.fast_forward = ff;
    cfg.event_engine = event;
    cfg.faults = faults;
    cfg
}

/// The engine-configuration matrix checked against the reference
/// (threads=1, fast-forward off, event engine off): sharding, the
/// machine-wide skip and the event-driven calendar engine, alone and
/// combined.
const ENGINE_MATRIX: [(usize, bool, bool); 5] = [
    (3, false, false),
    (1, true, false),
    (1, false, true),
    (3, false, true),
    (3, true, true),
];

/// Asserts that a solver's full telemetry JSON is byte-identical across
/// the engine-configuration matrix: sharded parallel ticking,
/// idle-cycle fast-forward and the event-driven tick engine are
/// host-side knobs that must not perturb a single deterministic byte.
fn assert_engine_invariant(
    solver: &str,
    plan: &dyn Fn() -> Option<FaultPlan>,
    json_of: &dyn Fn(usize, bool, bool, Option<FaultPlan>) -> String,
) {
    let base = json_of(1, false, false, plan());
    for (threads, ff, event) in ENGINE_MATRIX {
        let got = json_of(threads, ff, event, plan());
        assert_eq!(
            got, base,
            "{solver}: telemetry diverged at threads={threads} \
             fast_forward={ff} event_engine={event}"
        );
    }
}

fn pcg_json(threads: usize, ff: bool, event: bool, faults: Option<FaultPlan>) -> String {
    let (a, p, grid) = setup();
    let cfg = engine_cfg(grid, threads, ff, event, faults);
    let run_cfg = PcgSimConfig {
        timed_iterations: 0,
        ..PcgSimConfig::default()
    };
    let sim = PcgSim::build(&a, &p, &cfg).expect("pcg build");
    let r = sim.try_run(&rhs(a.rows()), &run_cfg).expect("pcg solve");
    serialize_parts(
        &cfg,
        &r.stats,
        &r.fault_events,
        &r.recoveries,
        &r.convergence,
    )
}

fn bicgstab_json(threads: usize, ff: bool, event: bool, faults: Option<FaultPlan>) -> String {
    let (a, p, grid) = setup();
    let cfg = engine_cfg(grid, threads, ff, event, faults);
    let run_cfg = BiCgStabSimConfig {
        timed_iterations: 0,
        ..BiCgStabSimConfig::default()
    };
    let sim = BiCgStabSim::build(&a, &p, &cfg).expect("bicgstab build");
    let r = sim
        .try_run(&rhs(a.rows()), &run_cfg)
        .expect("bicgstab solve");
    serialize_parts(
        &cfg,
        &r.stats,
        &r.fault_events,
        &r.recoveries,
        &r.convergence,
    )
}

fn gmres_json(threads: usize, ff: bool, event: bool, faults: Option<FaultPlan>) -> String {
    let (a, p, grid) = setup();
    let cfg = engine_cfg(grid, threads, ff, event, faults);
    let run_cfg = GmresSimConfig {
        timed_iterations: 0,
        ..GmresSimConfig::default()
    };
    let sim = GmresSim::build(&a, &p, &cfg).expect("gmres build");
    let r = sim.try_run(&rhs(a.rows()), &run_cfg).expect("gmres solve");
    serialize_parts(
        &cfg,
        &r.stats,
        &r.fault_events,
        &r.recoveries,
        &r.convergence,
    )
}

fn seeded_plan() -> Option<FaultPlan> {
    Some(FaultPlan::seeded(42, 16, 3, 60_000))
}

/// Like [`serialize_parts`] but with the schema-v7 `integrity` section
/// included, so the byte-compare covers the audit journal too.
#[allow(clippy::too_many_arguments)]
fn serialize_audited(
    cfg: &SimConfig,
    stats: &KernelStats,
    fault_events: &[FaultRecord],
    recoveries: &[RecoveryRecord],
    convergence: &[IterationSample],
    audit: &IntegrityAudit,
) -> String {
    let mut doc = TelemetryReport::default();
    describe_config(&mut doc, cfg);
    fill_report(&mut doc, cfg, stats);
    fill_fault_report(&mut doc, fault_events, recoveries);
    fill_invariant_report(&mut doc, stats);
    fill_integrity_report(&mut doc, audit);
    doc.convergence = convergence.to_vec();
    doc.to_json().to_string_pretty()
}

/// Asserts a fault-free audited solve ran real checks and stayed clean:
/// ABFT checksums and residual audits must never fire on healthy runs.
fn assert_clean_audit(solver: &str, audit: &IntegrityAudit) {
    assert!(audit.checks > 0, "{solver}: integrity checks never ran");
    assert!(
        audit.violations.is_empty(),
        "{solver}: fault-free solve tripped integrity checks: {:?}",
        audit.violations
    );
    assert_eq!(audit.escapes, 0, "{solver}: fault-free solve escaped");
}

fn pcg_audited_json(threads: usize, ff: bool, event: bool) -> String {
    let (a, p, grid) = setup();
    let cfg = engine_cfg(grid, threads, ff, event, None);
    let run_cfg = PcgSimConfig {
        timed_iterations: 0,
        integrity: IntegrityPolicy::audit(),
        ..PcgSimConfig::default()
    };
    let sim = PcgSim::build(&a, &p, &cfg).expect("pcg build");
    let r = sim.try_run(&rhs(a.rows()), &run_cfg).expect("pcg solve");
    assert_clean_audit("pcg", &r.integrity);
    serialize_audited(
        &cfg,
        &r.stats,
        &r.fault_events,
        &r.recoveries,
        &r.convergence,
        &r.integrity,
    )
}

fn bicgstab_audited_json(threads: usize, ff: bool, event: bool) -> String {
    let (a, p, grid) = setup();
    let cfg = engine_cfg(grid, threads, ff, event, None);
    let run_cfg = BiCgStabSimConfig {
        timed_iterations: 0,
        integrity: IntegrityPolicy::audit(),
        ..BiCgStabSimConfig::default()
    };
    let sim = BiCgStabSim::build(&a, &p, &cfg).expect("bicgstab build");
    let r = sim
        .try_run(&rhs(a.rows()), &run_cfg)
        .expect("bicgstab solve");
    assert_clean_audit("bicgstab", &r.integrity);
    serialize_audited(
        &cfg,
        &r.stats,
        &r.fault_events,
        &r.recoveries,
        &r.convergence,
        &r.integrity,
    )
}

fn gmres_audited_json(threads: usize, ff: bool, event: bool) -> String {
    let (a, p, grid) = setup();
    let cfg = engine_cfg(grid, threads, ff, event, None);
    let run_cfg = GmresSimConfig {
        timed_iterations: 0,
        integrity: IntegrityPolicy::audit(),
        ..GmresSimConfig::default()
    };
    let sim = GmresSim::build(&a, &p, &cfg).expect("gmres build");
    let r = sim.try_run(&rhs(a.rows()), &run_cfg).expect("gmres solve");
    assert_clean_audit("gmres", &r.integrity);
    serialize_audited(
        &cfg,
        &r.stats,
        &r.fault_events,
        &r.recoveries,
        &r.convergence,
        &r.integrity,
    )
}

/// Fault-free engine matrix with [`IntegrityPolicy::audit`] armed, for
/// all three frontends: the audit journal (checks, drift samples, final
/// audit) must itself be byte-deterministic across host-side engine
/// knobs, and no healthy run may report a violation or an escape.
type AuditedJsonFn = fn(usize, bool, bool) -> String;

#[test]
fn integrity_audited_telemetry_invariant_to_engine_config() {
    let frontends: [(&str, AuditedJsonFn); 3] = [
        ("pcg", pcg_audited_json),
        ("bicgstab", bicgstab_audited_json),
        ("gmres", gmres_audited_json),
    ];
    for (solver, json_of) in frontends {
        let base = json_of(1, false, false);
        assert!(
            base.contains("\"integrity\""),
            "{solver}: audited journal missing the integrity section"
        );
        for (threads, ff, event) in ENGINE_MATRIX {
            let got = json_of(threads, ff, event);
            assert_eq!(
                got, base,
                "{solver}: audited telemetry diverged at threads={threads} \
                 fast_forward={ff} event_engine={event}"
            );
        }
    }
}

/// Runs one solver of the shared scenario with event tracing on and
/// returns its exported Chrome trace JSON. The export serializes the
/// sealed event buffer verbatim, so byte-comparing it across engine
/// configurations checks the full trace pipeline: hooks, shard merge,
/// fast-forward transparency, seal ordering, and the JSON writer.
fn traced_trace_json(
    solver: &str,
    threads: usize,
    ff: bool,
    event: bool,
    faults: Option<FaultPlan>,
) -> String {
    let (a, p, grid) = setup();
    let mut cfg = engine_cfg(grid, threads, ff, event, faults);
    cfg.trace = Some(TraceConfig::default());
    let b = rhs(a.rows());
    let stats = match solver {
        "pcg" => {
            let run_cfg = PcgSimConfig {
                timed_iterations: 0,
                ..PcgSimConfig::default()
            };
            let sim = PcgSim::build(&a, &p, &cfg).expect("pcg build");
            sim.try_run(&b, &run_cfg).expect("pcg solve").stats
        }
        "bicgstab" => {
            let run_cfg = BiCgStabSimConfig {
                timed_iterations: 0,
                ..BiCgStabSimConfig::default()
            };
            let sim = BiCgStabSim::build(&a, &p, &cfg).expect("bicgstab build");
            sim.try_run(&b, &run_cfg).expect("bicgstab solve").stats
        }
        "gmres" => {
            let run_cfg = GmresSimConfig {
                timed_iterations: 0,
                ..GmresSimConfig::default()
            };
            let sim = GmresSim::build(&a, &p, &cfg).expect("gmres build");
            sim.try_run(&b, &run_cfg).expect("gmres solve").stats
        }
        other => panic!("unknown solver {other}"),
    };
    assert!(
        !stats.trace_ev.events.is_empty(),
        "{solver}: traced solve recorded no events"
    );
    chrome_trace_json(&stats.trace_ev, grid.num_tiles() as u32, &[]).to_string_compact()
}

/// Asserts one solver's exported trace is byte-identical across the
/// engine matrix — {threads 1,3} x {fast-forward off,on} — for both the
/// fault-free and the seeded-fault scenario.
fn assert_trace_invariant(solver: &str) {
    for (label, plan) in [
        ("fault-free", &(|| None) as &dyn Fn() -> Option<FaultPlan>),
        ("seeded faults", &seeded_plan),
    ] {
        let base = traced_trace_json(solver, 1, false, false, plan());
        for (threads, ff, event) in ENGINE_MATRIX {
            let got = traced_trace_json(solver, threads, ff, event, plan());
            assert_eq!(
                got, base,
                "{solver} ({label}): exported trace diverged at \
                 threads={threads} fast_forward={ff} event_engine={event}"
            );
        }
    }
}

#[test]
fn pcg_trace_export_invariant_to_engine_config() {
    assert_trace_invariant("pcg");
}

#[test]
fn bicgstab_trace_export_invariant_to_engine_config() {
    assert_trace_invariant("bicgstab");
}

#[test]
fn gmres_trace_export_invariant_to_engine_config() {
    assert_trace_invariant("gmres");
}

/// Structural audit of one exported trace: timestamps must be globally
/// monotonic, every kernel `B` must balance an `E`, and every PE and
/// router of the grid must have a named track.
#[test]
fn exported_trace_is_monotonic_and_balanced() {
    let json = traced_trace_json("pcg", 1, false, true, seeded_plan());
    let doc = azul::telemetry::json::parse(&json).expect("export must be valid JSON");
    let check = validate_chrome_trace(&doc).expect("export must validate");
    assert!(check.events > 0, "trace has data events");
    assert!(check.begins > 0, "trace has kernel begin markers");
    assert_eq!(check.begins, check.ends, "unbalanced kernel B/E markers");
    let (_, _, grid) = setup();
    assert!(
        check.named_tracks >= 2 * grid.num_tiles() as u64,
        "every PE and router needs a named track: got {} for {} tiles",
        check.named_tracks,
        grid.num_tiles()
    );
}

#[test]
fn fault_free_solve_telemetry_is_byte_identical() {
    let (r1, cfg1) = solve(None);
    let (r2, cfg2) = solve(None);
    assert!(r1.converged, "scenario must converge");
    assert_eq!(r1.total_cycles, r2.total_cycles, "cycle counts diverged");
    assert_eq!(r1.iterations, r2.iterations);
    assert_eq!(r1.x, r2.x, "solutions diverged bit-for-bit");
    assert_eq!(
        serialize(&r1, &cfg1),
        serialize(&r2, &cfg2),
        "telemetry JSON diverged between identical runs"
    );
}

#[test]
fn fault_injected_solve_telemetry_is_byte_identical() {
    let grid_tiles = 16;
    let plan = || Some(FaultPlan::seeded(42, grid_tiles, 3, 60_000));
    let (r1, cfg1) = solve(plan());
    let (r2, cfg2) = solve(plan());
    assert_eq!(
        r1.fault_events.len(),
        r2.fault_events.len(),
        "fault journals diverged"
    );
    assert_eq!(r1.total_cycles, r2.total_cycles, "cycle counts diverged");
    assert_eq!(
        serialize(&r1, &cfg1),
        serialize(&r2, &cfg2),
        "fault-injected telemetry JSON diverged between identical runs"
    );
}

#[test]
fn pcg_telemetry_invariant_to_engine_config() {
    assert_engine_invariant("pcg", &|| None, &pcg_json);
}

#[test]
fn pcg_telemetry_invariant_to_engine_config_with_faults() {
    assert_engine_invariant("pcg+faults", &seeded_plan, &pcg_json);
}

#[test]
fn bicgstab_telemetry_invariant_to_engine_config() {
    assert_engine_invariant("bicgstab", &|| None, &bicgstab_json);
}

#[test]
fn bicgstab_telemetry_invariant_to_engine_config_with_faults() {
    assert_engine_invariant("bicgstab+faults", &seeded_plan, &bicgstab_json);
}

#[test]
fn gmres_telemetry_invariant_to_engine_config() {
    assert_engine_invariant("gmres", &|| None, &gmres_json);
}

#[test]
fn gmres_telemetry_invariant_to_engine_config_with_faults() {
    assert_engine_invariant("gmres+faults", &seeded_plan, &gmres_json);
}

#[test]
fn checked_solve_reports_nonzero_audit_counts() {
    let (report, _) = solve(None);
    // Every rule must actually have been evaluated, not just enabled.
    for (rule, checks) in azul::sim::invariants::RULE_NAMES
        .iter()
        .zip(report.stats.invariant_checks)
    {
        assert!(checks > 0, "rule `{rule}` was never evaluated");
    }
    // And the audit lands in the telemetry document.
    let mut doc = TelemetryReport::default();
    fill_invariant_report(&mut doc, &report.stats);
    assert!(doc.counter_value("invariant_checks").unwrap() > 0);
    assert_eq!(doc.counter_value("invariant_violations"), Some(0));
}

/// A supervised solve that walks the preconditioner and solver ladders
/// must still be byte-deterministic: escalation decisions depend only on
/// structured errors and simulated cycle counts, never on wall-clock, so
/// the `supervisor` journal serializes identically every run.
#[test]
fn supervised_escalation_telemetry_is_byte_identical() {
    use azul::supervisor::fill_supervisor_report;
    use azul::{AzulConfig, EscalationPolicy, MappingStrategy, SolveSupervisor, SolverChoice};

    // A Helmholtz-style shifted Laplacian: indefinite (negative diagonal
    // breaks every factored preconditioner, PCG fails) but nonsingular,
    // so full-restart GMRES converges after the ladders walk.
    let base = generate::grid_laplacian_2d(10, 10);
    let mut t = Vec::new();
    for r in 0..base.rows() {
        for (c, v) in base.row(r) {
            t.push((r, c, if r == c { v - 4.73 } else { v }));
        }
    }
    let a = azul::sparse::Coo::from_triplets(base.rows(), base.cols(), t)
        .expect("triplets are in range")
        .to_csr();
    let b = rhs(a.rows());
    let run = || {
        let policy = EscalationPolicy {
            mappings: vec![MappingStrategy::RoundRobin],
            solvers: vec![SolverChoice::Pcg, SolverChoice::Gmres { restart: 120 }],
            ..EscalationPolicy::default()
        };
        let sup = SolveSupervisor::with_policy(AzulConfig::small_test(), policy)
            .solve(&a, &b)
            .expect("supervised solve succeeds");
        let mut doc = TelemetryReport::default();
        describe_config(&mut doc, &sup.sim_config);
        fill_report(&mut doc, &sup.sim_config, &sup.stats);
        fill_supervisor_report(&mut doc, &sup);
        doc.convergence = sup.convergence.clone();
        (sup, doc.to_json().to_string_pretty())
    };
    let ((sup1, json1), (_sup2, json2)) = (run(), run());
    assert!(!sup1.escalations.is_empty(), "the ladders must have walked");
    assert!(json1.contains("\"supervisor\""));
    assert!(json1.contains("factor-breakdown"));
    assert_eq!(json1, json2, "supervised telemetry JSON diverged");
}

/// A synthetic broken ledger must be rejected with the structured
/// error, end to end through the public API.
#[test]
fn synthetic_conservation_violation_surfaces_as_sim_error() {
    let mut stats = KernelStats {
        messages: 10,
        link_activations: 4,
        router_traversals: 9, // should be 14: one flit unaccounted for
        ..KernelStats::default()
    };
    let mut checker = Checker::with_enabled(true);
    let err = checker
        .check_kernel_end(&stats, 0, 0)
        .expect_err("broken ledger must be caught");
    match err {
        SimError::Invariant { rule, .. } => assert_eq!(rule, RULE_FLIT_CONSERVATION),
        other => panic!("expected invariant violation, got {other}"),
    }
    checker.finish(&mut stats);
    assert!(stats.invariant_checks.iter().sum::<u64>() > 0);
}

/// FNV-1a over the bit patterns of a solution vector: pins every bit of
/// `x` without storing it.
fn fnv1a_bits(v: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in v {
        for byte in x.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The report fields [`serialize_audited`] leaves out, floats as bits.
struct Summary<'a> {
    status: SolveStatus,
    iterations: usize,
    converged: bool,
    final_residual: f64,
    cycles_per_iteration: f64,
    gflops: f64,
    kernel_cycles: [f64; 3],
    /// PCG only: the extrapolated total including setup.
    total_cycles: Option<u64>,
    x: &'a [f64],
}

impl Summary<'_> {
    fn render(&self) -> String {
        let kc = self.kernel_cycles.map(f64::to_bits);
        let mut s = format!(
            "status: {:?}\niterations: {}\nconverged: {}\nfinal_residual: {:#018x}\n\
             cycles_per_iteration: {:#018x}\ngflops: {:#018x}\n\
             kernel_cycles: [{:#018x}, {:#018x}, {:#018x}]\n",
            self.status,
            self.iterations,
            self.converged,
            self.final_residual.to_bits(),
            self.cycles_per_iteration.to_bits(),
            self.gflops.to_bits(),
            kc[0],
            kc[1],
            kc[2],
        );
        if let Some(t) = self.total_cycles {
            s += &format!("total_cycles: {t}\n");
        }
        s += &format!("x_fnv1a: {:#018x}\n", fnv1a_bits(self.x));
        s
    }
}

/// The knobs one golden scenario sets on top of the solver defaults.
struct GoldenScenario {
    name: &'static str,
    /// Solve the fault-injection tests' 16×16 Laplacian on a 2×2
    /// round-robin grid instead of the shared 20×20 / 4×4 scenario.
    small: bool,
    faults: Option<FaultPlan>,
    timed_iterations: usize,
    integrity: IntegrityPolicy,
    stagnation: Option<StagnationPolicy>,
    cycle_budget: u64,
}

/// The five pinned scenarios: the default back-filled run, a seeded
/// fault plan with every iteration timed, the full audit battery, a bit
/// flip before the first checkpoint (rollback to iteration 0), and a
/// stagnation detector next to a cycle budget that trips.
fn golden_scenarios() -> Vec<GoldenScenario> {
    let base = || GoldenScenario {
        name: "",
        small: false,
        faults: None,
        timed_iterations: 2,
        integrity: IntegrityPolicy::default(),
        stagnation: None,
        cycle_budget: u64::MAX,
    };
    vec![
        GoldenScenario {
            name: "default",
            ..base()
        },
        GoldenScenario {
            name: "seeded-faults",
            faults: seeded_plan(),
            timed_iterations: 0,
            ..base()
        },
        GoldenScenario {
            name: "audit",
            integrity: IntegrityPolicy::audit(),
            ..base()
        },
        GoldenScenario {
            name: "early-flip",
            small: true,
            faults: Some(FaultPlan::new(vec![FaultEvent {
                at_cycle: 5_300,
                kind: FaultKind::SramBitFlip {
                    tile: 0,
                    slot: 0,
                    bit: 62,
                },
            }])),
            timed_iterations: 0,
            integrity: IntegrityPolicy::audit(),
            ..base()
        },
        GoldenScenario {
            name: "budget",
            stagnation: Some(StagnationPolicy::default()),
            cycle_budget: 20_000,
            ..base()
        },
    ]
}

/// Runs `solver` on one golden scenario and renders the summary line
/// block followed by the audited telemetry JSON.
fn golden_text(solver: &str, sc: &GoldenScenario) -> String {
    let (a, p, grid) = if sc.small {
        let a = generate::grid_laplacian_2d(16, 16);
        let grid = TileGrid::new(2, 2);
        let p = RoundRobinMapper.map(&a, grid);
        (a, p, grid)
    } else {
        setup()
    };
    let cfg = engine_cfg(grid, 1, false, false, sc.faults.clone());
    let b = rhs(a.rows());
    let (summary, telemetry) = match solver {
        "pcg" => {
            let run_cfg = PcgSimConfig {
                timed_iterations: sc.timed_iterations,
                integrity: sc.integrity,
                stagnation: sc.stagnation,
                cycle_budget: sc.cycle_budget,
                ..PcgSimConfig::default()
            };
            let sim = PcgSim::build(&a, &p, &cfg).expect("pcg build");
            let r = sim.try_run(&b, &run_cfg).expect("pcg solve");
            let summary = Summary {
                status: r.status,
                iterations: r.iterations,
                converged: r.converged,
                final_residual: r.final_residual,
                cycles_per_iteration: r.cycles_per_iteration,
                gflops: r.gflops,
                kernel_cycles: r.kernel_cycles,
                total_cycles: Some(r.total_cycles),
                x: &r.x,
            }
            .render();
            let t = serialize_audited(
                &cfg,
                &r.stats,
                &r.fault_events,
                &r.recoveries,
                &r.convergence,
                &r.integrity,
            );
            (summary, t)
        }
        "bicgstab" => {
            let run_cfg = BiCgStabSimConfig {
                timed_iterations: sc.timed_iterations,
                integrity: sc.integrity,
                stagnation: sc.stagnation,
                cycle_budget: sc.cycle_budget,
                ..BiCgStabSimConfig::default()
            };
            let sim = BiCgStabSim::build(&a, &p, &cfg).expect("bicgstab build");
            let r = sim.try_run(&b, &run_cfg).expect("bicgstab solve");
            let summary = Summary {
                status: r.status,
                iterations: r.iterations,
                converged: r.converged,
                final_residual: r.final_residual,
                cycles_per_iteration: r.cycles_per_iteration,
                gflops: r.gflops,
                kernel_cycles: r.kernel_cycles,
                total_cycles: None,
                x: &r.x,
            }
            .render();
            let t = serialize_audited(
                &cfg,
                &r.stats,
                &r.fault_events,
                &r.recoveries,
                &r.convergence,
                &r.integrity,
            );
            (summary, t)
        }
        "gmres" => {
            let run_cfg = GmresSimConfig {
                timed_iterations: sc.timed_iterations,
                integrity: sc.integrity,
                stagnation: sc.stagnation,
                cycle_budget: sc.cycle_budget,
                ..GmresSimConfig::default()
            };
            let sim = GmresSim::build(&a, &p, &cfg).expect("gmres build");
            let r = sim.try_run(&b, &run_cfg).expect("gmres solve");
            let summary = Summary {
                status: r.status,
                iterations: r.iterations,
                converged: r.converged,
                final_residual: r.final_residual,
                cycles_per_iteration: r.cycles_per_iteration,
                gflops: r.gflops,
                kernel_cycles: r.kernel_cycles,
                total_cycles: None,
                x: &r.x,
            }
            .render();
            let t = serialize_audited(
                &cfg,
                &r.stats,
                &r.fault_events,
                &r.recoveries,
                &r.convergence,
                &r.integrity,
            );
            (summary, t)
        }
        other => panic!("unknown solver {other}"),
    };
    format!("{summary}{telemetry}\n")
}

/// Compares every golden scenario of `solver` with its file under
/// `tests/golden/`. A mismatch (or a missing file) writes the actual
/// output under `target/golden-actual/` so it can be diffed, then fails.
fn assert_goldens(solver: &str) {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut mismatched = Vec::new();
    for sc in golden_scenarios() {
        let file = format!("{solver}-{}.txt", sc.name);
        let got = golden_text(solver, &sc);
        let want = std::fs::read_to_string(format!("{root}/tests/golden/{file}")).ok();
        if want.as_deref() != Some(got.as_str()) {
            let out = format!("{root}/target/golden-actual");
            std::fs::create_dir_all(&out).expect("create target/golden-actual");
            std::fs::write(format!("{out}/{file}"), &got).expect("write actual output");
            mismatched.push(file);
        }
    }
    assert!(
        mismatched.is_empty(),
        "{solver}: telemetry differs from the golden files {mismatched:?}; \
         diff tests/golden/<file> against target/golden-actual/<file>"
    );
}

#[test]
fn pcg_telemetry_matches_golden_files() {
    assert_goldens("pcg");
}

#[test]
fn bicgstab_telemetry_matches_golden_files() {
    assert_goldens("bicgstab");
}

#[test]
fn gmres_telemetry_matches_golden_files() {
    assert_goldens("gmres");
}
