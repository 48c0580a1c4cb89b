//! Acceptance scenario for the solve service (see `docs/SERVING.md`):
//! a seeded overload + fault batch must shed the oversubscription with
//! typed errors, terminate every accepted request (no hangs), follow
//! the documented deterministic backoff schedule on transient failures,
//! and produce per-request journals that are byte-identical across
//! worker-pool sizes and across repeated runs — including requests
//! terminated by the wall-deadline path.

use std::time::Duration;

use azul::serve::{serve_batch, BatchReport, ServeConfig, ServeError, SolveRequest};
use azul::sim::faults::FaultPlan;
use azul::sparse::generate;
use azul::{AzulConfig, AzulError, EscalationPolicy};

fn rhs(n: usize, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64 * 13 + salt * 7) % 9) as f64 / 9.0 + 0.2)
        .collect()
}

/// The acceptance batch: six requests over two operators (so repeats
/// exercise the prepare cache), one of them carrying a seeded fault
/// plan, against a queue that only admits four.
fn overload_batch() -> Vec<SolveRequest> {
    (0..6)
        .map(|i| {
            let side = 8 + 2 * (i % 2);
            let a = generate::grid_laplacian_2d(side, side);
            let n = a.rows();
            let mut req = SolveRequest::new(format!("req-{i}"), a, rhs(n, i as u64));
            if i == 1 {
                // 2x2 grid -> 4 tiles; a handful of seeded events inside
                // the solve's cycle window.
                req.faults = Some(FaultPlan::seeded(42, 4, 3, 100_000));
            }
            req
        })
        .collect()
}

fn overloaded_config(workers: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(AzulConfig::small_test());
    cfg.queue_capacity = 4;
    cfg.workers = workers;
    cfg
}

fn run_overloaded(workers: usize) -> BatchReport {
    serve_batch(overloaded_config(workers), overload_batch())
}

#[test]
fn saturated_submissions_are_shed_with_typed_errors() {
    let report = run_overloaded(1);
    assert_eq!(report.outcomes.len(), 6, "every submission gets an outcome");
    assert_eq!(report.shed, 2);
    for out in &report.outcomes[..4] {
        assert!(
            out.result.is_ok(),
            "accepted request terminated successfully: {:?}",
            out.result
        );
    }
    for out in &report.outcomes[4..] {
        assert_eq!(out.result, Err(ServeError::QueueFull { capacity: 4 }));
        assert_eq!(out.attempts, 0, "shed requests never start a solve");
        assert!(out.journal.contains("\"outcome\": \"queue-full\""));
    }
    // Repeat-operator traffic shared the leader's prepare.
    assert!(report.cache_hits >= 1, "cache hits: {}", report.cache_hits);
}

#[test]
fn journals_are_byte_identical_across_worker_pool_sizes() {
    let one = run_overloaded(1);
    let four = run_overloaded(4);
    assert_eq!(one.outcomes.len(), four.outcomes.len());
    for (a, b) in one.outcomes.iter().zip(&four.outcomes) {
        assert_eq!(a.id, b.id, "submission order is preserved");
        assert_eq!(
            a.journal, b.journal,
            "journal for {} differs between 1 and 4 workers",
            a.id
        );
    }
    assert_eq!(one.cache_hits, four.cache_hits);
    assert_eq!(one.shed, four.shed);
}

#[test]
fn transient_failures_follow_the_documented_backoff_schedule() {
    // A one-cycle kernel deadline turns every simulated attempt into a
    // transient SimError::Deadlock while prepares still succeed: the
    // service must walk min(base << k, max) and then fail typed.
    let mut cfg = overloaded_config(1);
    cfg.base.sim.max_kernel_cycles = 1;
    cfg.policy = EscalationPolicy {
        max_attempts: 1,
        mappings: cfg.policy.mappings[..1].to_vec(),
        preconditioners: cfg.policy.preconditioners[..1].to_vec(),
        solvers: cfg.policy.solvers[..1].to_vec(),
        ..cfg.policy
    };
    cfg.retry.max_retries = 3;
    cfg.retry.base_backoff_ticks = 2;
    cfg.retry.max_backoff_ticks = 6;
    let a = generate::grid_laplacian_2d(8, 8);
    let n = a.rows();
    let report = serve_batch(cfg, vec![SolveRequest::new("doomed", a, rhs(n, 0))]);
    let out = &report.outcomes[0];
    assert_eq!(out.attempts, 4, "one initial attempt plus three retries");
    assert_eq!(out.backoff_ticks, vec![2, 4, 6], "min(2 << k, 6)");
    assert!(matches!(out.result, Err(ServeError::Solve(_))));
    assert!(out.journal.contains("\"backoff_ticks\": ["));
    assert!(out.journal.contains("\"outcome\": \"failed\""));
}

#[test]
fn non_finite_rhs_fails_typed_without_retries() {
    // An input error is a property of the request: the supervisor
    // spends no ladder attempt on it and the service no retry.
    let mut cfg = overloaded_config(1);
    cfg.retry.max_retries = 3;
    let a = generate::grid_laplacian_2d(8, 8);
    let mut b = rhs(a.rows(), 0);
    b[3] = f64::NAN;
    let report = serve_batch(cfg, vec![SolveRequest::new("nan-rhs", a, b)]);
    let out = &report.outcomes[0];
    match &out.result {
        Err(ServeError::Solve(AzulError::Input(msg))) => {
            assert!(msg.contains("rhs entry 3"), "{msg}")
        }
        other => panic!("expected a typed input error, got {other:?}"),
    }
    assert_eq!(out.attempts, 1, "no service-level retry");
    assert!(out.backoff_ticks.is_empty());
    assert!(out.journal.contains("\"outcome\": \"failed\""));
}

#[test]
fn wall_deadline_journals_are_byte_identical_across_runs() {
    // An already-expired deadline classifies deterministically before
    // any solve starts, so the entire journal — scenario, serve
    // section, error text — must reproduce byte-for-byte run to run
    // (wall durations are never serialized).
    let run = || {
        let a = generate::grid_laplacian_2d(8, 8);
        let n = a.rows();
        let mut req = SolveRequest::new("late", a, rhs(n, 0));
        req.wall_deadline = Some(Duration::ZERO);
        serve_batch(overloaded_config(2), vec![req])
    };
    let first = run();
    let second = run();
    let (a, b) = (&first.outcomes[0], &second.outcomes[0]);
    assert_eq!(a.result, Err(ServeError::DeadlineExceeded));
    assert_eq!(a.journal, b.journal, "deadline journal must reproduce");
    assert!(a.journal.contains("\"outcome\": \"deadline\""));
    assert!(a.journal.contains("\"schema_version\": 7"));
    assert!(
        !a.journal.contains("wall_ms"),
        "no wall durations in journals"
    );
}

#[test]
fn mixed_fault_and_overload_batch_never_hangs_and_stays_typed() {
    // Belt-and-braces for the "all accepted requests terminate within
    // deadlines" clause: a batch mixing faults, a doomed cycle budget
    // and oversubscription, with a generous wall deadline on every
    // request. serve_batch returning at all proves no hang (workers
    // drain the queue before shutdown); here we also pin the outcome
    // *types*.
    let mut cfg = overloaded_config(2);
    cfg.default_wall_deadline = Some(Duration::from_secs(60));
    let mut batch = overload_batch();
    // Give one admitted request an impossible cycle budget: the
    // supervisor escalates, exhausts the ladder, and the service
    // reports a typed Solve error (budget exhaustion is deterministic,
    // not transient, so no retries burn time).
    batch[2].cycle_budget = Some(1);
    let report = serve_batch(cfg, batch);
    assert_eq!(report.outcomes.len(), 6);
    for out in &report.outcomes {
        match &out.result {
            Ok(solve) => assert!(solve.final_residual.is_finite()),
            Err(
                ServeError::QueueFull { .. } | ServeError::Solve(_) | ServeError::DeadlineExceeded,
            ) => {}
            Err(other) => panic!("unexpected outcome for {}: {other:?}", out.id),
        }
    }
    let budgeted = &report.outcomes[2];
    assert!(
        matches!(budgeted.result, Err(ServeError::Solve(_))),
        "impossible cycle budget surfaces as a typed solve failure: {:?}",
        budgeted.result
    );
}
