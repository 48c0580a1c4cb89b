//! The solve service: bounded admission, a deterministic scheduler, a
//! worker pool, deadlines, cancellation, retry with backoff, and
//! graceful drain.
//!
//! # Determinism contract
//!
//! Every decision that ends up in a request's journal is made **at
//! admission time, under the state lock, as a function of the
//! submission order alone**: the queue position, the shed/admit
//! verdict, the prepare leader/follower role and a leader's donor
//! (whether the leader builds on it depends on timing, not its bits).
//! Worker threads only ever *execute* those decisions, so running the
//! same batch on a 1-worker and a 16-worker pool produces byte-identical
//! per-request journals. Wall-clock quantities (queue wait, backoff
//! sleeps) are deliberately excluded from the journal; the backoff
//! *schedule* is recorded in virtual ticks instead.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use azul_core::supervisor::fill_supervisor_report;
use azul_core::{
    AzulConfig, AzulError, EscalationPolicy, PreparedSolver, SolveSupervisor, SupervisedSolveReport,
};
use azul_sim::{CancelToken, FaultPlan};
use azul_sparse::Csr;
use azul_telemetry::report::{ServeSummary, TelemetryReport};

use crate::cache::{hold, prepare_keys, unpoison, Flight, FlightCache, FlightWait};
use crate::error::ServeError;

/// Deterministic capped-exponential retry schedule for transient solve
/// failures.
///
/// Backoff is expressed in virtual *ticks* — `min(base << k, max)` for
/// the `k`-th retry — so the schedule that lands in telemetry is
/// jitter-free and reproducible. The wall duration of one tick is a
/// separate knob ([`RetryPolicy::tick`], default zero) that never
/// reaches the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum service-level retries after the first attempt
    /// (`0` disables retrying).
    pub max_retries: u32,
    /// Backoff before the first retry, in ticks.
    pub base_backoff_ticks: u64,
    /// Ceiling on the per-retry backoff, in ticks.
    pub max_backoff_ticks: u64,
    /// Wall duration of one tick. The default [`Duration::ZERO`] makes
    /// retries immediate, which keeps tests fast and the schedule
    /// observable purely through telemetry.
    pub tick: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff_ticks: 1,
            max_backoff_ticks: 8,
            tick: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// Ticks to back off before retry number `retry` (0-based):
    /// `min(base << retry, max)`, saturating on shift overflow.
    pub fn backoff_ticks(&self, retry: u32) -> u64 {
        let grown = self
            .base_backoff_ticks
            .checked_shl(retry)
            .unwrap_or(u64::MAX);
        grown.min(self.max_backoff_ticks)
    }
}

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Base accelerator configuration shared by every request (grid,
    /// sim knobs, solver tolerances).
    pub base: AzulConfig,
    /// Degradation ladders handed to each request's
    /// [`SolveSupervisor`].
    pub policy: EscalationPolicy,
    /// Bounded admission queue: submissions beyond this many *pending*
    /// requests are shed with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Worker threads executing requests. Journals are identical for
    /// any value; this only changes wall-clock throughput.
    pub workers: usize,
    /// Retry schedule for transient (simulator-side) failures.
    pub retry: RetryPolicy,
    /// Capacity of the keyed prepare cache; `0` disables sharing.
    pub cache_capacity: usize,
    /// Per-attempt simulated cycle budget applied when a request does
    /// not carry its own (`u64::MAX` disables).
    pub default_cycle_budget: u64,
    /// Wall deadline applied when a request does not carry its own.
    pub default_wall_deadline: Option<Duration>,
    /// Re-verify cached prepare artifacts' ABFT checksums on every
    /// cache hit, evicting (and journaling) any entry whose stored
    /// checksum no longer matches the artifact. Off by default: the
    /// scrub costs one checksum recomputation per hit.
    pub scrub_cache: bool,
}

impl ServeConfig {
    /// A service over `base` with the default three-ladder escalation
    /// policy, an 8-deep queue, one worker, and an 8-entry prepare
    /// cache.
    pub fn new(base: AzulConfig) -> Self {
        ServeConfig {
            base,
            policy: EscalationPolicy::default(),
            queue_capacity: 8,
            workers: 1,
            retry: RetryPolicy::default(),
            cache_capacity: 8,
            default_cycle_budget: u64::MAX,
            default_wall_deadline: None,
            scrub_cache: false,
        }
    }
}

/// One solve job as the caller describes it.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Caller-chosen identifier; lands in the journal verbatim.
    pub id: String,
    /// The operator.
    pub matrix: Csr,
    /// The right-hand side.
    pub rhs: Vec<f64>,
    /// Per-attempt simulated cycle budget override.
    pub cycle_budget: Option<u64>,
    /// Wall deadline override, measured from submission.
    pub wall_deadline: Option<Duration>,
    /// Fault plan injected into this request's solve attempts
    /// (prepares always run fault-free: faults model the accelerator,
    /// not the host-side preprocessing).
    pub faults: Option<FaultPlan>,
}

impl SolveRequest {
    /// A request with no overrides: service defaults apply.
    pub fn new(id: impl Into<String>, matrix: Csr, rhs: Vec<f64>) -> Self {
        SolveRequest {
            id: id.into(),
            matrix,
            rhs,
            cycle_budget: None,
            wall_deadline: None,
            faults: None,
        }
    }
}

/// The solution-bearing slice of a successful request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedSolve {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations of the winning supervised attempt.
    pub iterations: usize,
    /// Final residual of the winning attempt.
    pub final_residual: f64,
    /// Extrapolated cycles of the winning attempt.
    pub total_cycles: u64,
    /// Supervisor attempts the winning solve consumed.
    pub supervisor_attempts: usize,
    /// Degradation-ladder transitions the winning solve consumed.
    pub escalations: usize,
}

/// Everything the service knows about one request after it terminated.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The request's caller-chosen id.
    pub id: String,
    /// Submission index (0-based), including shed submissions.
    pub queue_position: u64,
    /// Prepare-cache role: `"leader"`, `"shared"`, or `"none"`.
    pub prepare: String,
    /// Service-level solve attempts executed (0 for shed requests).
    pub attempts: u64,
    /// The backoff schedule actually walked, in ticks.
    pub backoff_ticks: Vec<u64>,
    /// The result: a solution or a typed service error.
    pub result: Result<ServedSolve, ServeError>,
    /// Pretty-printed schema-v6 telemetry journal for this request.
    pub journal: String,
}

/// Caller-side handle for one admitted request.
#[derive(Debug, Clone)]
pub struct RequestHandle {
    id: String,
    token: CancelToken,
}

impl RequestHandle {
    /// The request id this handle controls.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Cooperatively cancels the request. The simulator observes the
    /// flag at its next serial commit point; the journal records the
    /// outcome as `"cancelled"` (or `"deadline"` when the wall deadline
    /// had already passed).
    pub fn cancel(&self) {
        self.token.cancel();
    }
}

/// An admitted request queued for execution.
#[derive(Debug)]
struct Job {
    req: SolveRequest,
    token: CancelToken,
    /// Submission index; also the outcome slot.
    queue_position: u64,
    /// Prepare-cache flight this job participates in.
    flight: Arc<Flight>,
    /// Decided at admission: leads the flight or follows it.
    leader: bool,
    /// Decided at admission, for a leader: see [`FlightCache::donor`].
    donor: Option<Arc<Flight>>,
    /// Cache key, journaled for cross-request correlation.
    operator_key: u64,
    /// Resolved per-attempt cycle budget.
    cycle_budget: u64,
    /// Resolved wall deadline (absolute).
    deadline: Option<Instant>,
    /// Cached-artifact checksum re-verifications this admission ran
    /// (0 or 1; decided at admission so the journal stays a pure
    /// function of submission order).
    scrub_checks: u64,
    /// Poisoned cache entries this admission evicted.
    scrub_evictions: u64,
}

/// Shared mutable service state. One lock guards all of it: admission,
/// role assignment and outcome recording must be transactional for the
/// determinism contract to hold, and none of the guarded sections block.
struct State {
    queue: VecDeque<Job>,
    /// Workers only pop jobs while the gate is open. Batch mode submits
    /// everything first, then opens — making the shed set a pure
    /// function of submission order.
    gate_open: bool,
    /// No further admissions; workers exit once the queue drains.
    shutdown: bool,
    monitor_stop: bool,
    cache: FlightCache,
    /// Armed wall deadlines, pruned by the monitor thread.
    deadlines: Vec<(Instant, CancelToken)>,
    /// One slot per submission, filled as requests terminate.
    outcomes: Vec<Option<RequestOutcome>>,
    /// Jobs currently executing on a worker.
    running: usize,
}

struct Inner {
    cfg: ServeConfig,
    state: Mutex<State>,
    /// Wakes workers: job queued, gate opened, or shutdown.
    work_cv: Condvar,
    /// Wakes `wait_all`: an outcome landed.
    done_cv: Condvar,
    /// Wakes the deadline monitor: deadline armed or shutdown.
    monitor_cv: Condvar,
}

/// The running service: a paused-gate worker pool plus a deadline
/// monitor.
///
/// Lifecycle: [`ServeService::start`] → [`ServeService::submit`] (any
/// number of times) → [`ServeService::open`] → optionally
/// [`ServeService::wait_all`] → [`ServeService::shutdown`], which
/// drains admitted work and returns every outcome in submission order.
/// [`serve_batch`] wraps the whole sequence for one-shot use.
pub struct ServeService {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
}

impl ServeService {
    /// Starts the worker pool and the deadline monitor. The gate starts
    /// **closed**: submissions are admitted (or shed) immediately, but
    /// no work executes until [`ServeService::open`] is called.
    pub fn start(cfg: ServeConfig) -> ServeService {
        let worker_count = cfg.workers.max(1);
        let cache_capacity = cfg.cache_capacity;
        let inner = Arc::new(Inner {
            cfg,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                gate_open: false,
                shutdown: false,
                monitor_stop: false,
                cache: FlightCache::new(cache_capacity),
                deadlines: Vec::new(),
                outcomes: Vec::new(),
                running: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            monitor_cv: Condvar::new(),
        });
        // The monitor is spawned before the workers on purpose. glibc
        // hands a new thread the malloc arena most recently freed by an
        // exited thread, and an earlier service's monitor exits last
        // (`shutdown` stops it after the drain). Spawned first, the new
        // monitor takes that small arena back and the new worker gets
        // the old worker's, whose pages are already resident. In the
        // other order the worker grows the monitor's arena into a second
        // one of about 10 MB.
        let monitor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("azul-serve-deadline-monitor".into())
                .spawn(move || monitor_loop(&inner))
                .expect("spawn serve deadline monitor thread")
        };
        let workers = (0..worker_count)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("azul-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker thread")
            })
            .collect();
        ServeService {
            inner,
            workers,
            monitor: Some(monitor),
        }
    }

    /// Admits a request or sheds it with a typed error.
    ///
    /// Shed submissions still get an outcome slot and a journal, so a
    /// batch's result covers *every* submission in order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shutdown`] once [`ServeService::shutdown`] began;
    /// [`ServeError::QueueFull`] when the bounded queue is saturated.
    pub fn submit(&self, req: SolveRequest) -> Result<RequestHandle, ServeError> {
        let cfg = &self.inner.cfg;
        let mut st = hold(&self.inner.state);
        let queue_position = st.outcomes.len() as u64;
        let cycle_budget = req.cycle_budget.unwrap_or(cfg.default_cycle_budget);
        if st.shutdown {
            let err = ServeError::Shutdown;
            let outcome = shed_outcome(&req, queue_position, cycle_budget, &err);
            st.outcomes.push(Some(outcome));
            return Err(err);
        }
        if st.queue.len() >= cfg.queue_capacity {
            let err = ServeError::QueueFull {
                capacity: cfg.queue_capacity,
            };
            let outcome = shed_outcome(&req, queue_position, cycle_budget, &err);
            st.outcomes.push(Some(outcome));
            return Err(err);
        }

        let mapping = cfg
            .policy
            .mappings
            .first()
            .map(|m| m.name())
            .unwrap_or("none");
        let preconditioner = cfg
            .policy
            .preconditioners
            .first()
            .map(|p| p.name())
            .unwrap_or("none");
        let (key, structure) =
            prepare_keys(&req.matrix, &cfg.base.sim.grid, mapping, preconditioner);
        let (scrubs_before, evictions_before) =
            (st.cache.scrub_checks(), st.cache.scrub_evictions());
        let (flight, leader) = if cfg.scrub_cache {
            st.cache.admit_scrubbed(key, structure)
        } else {
            st.cache.admit(key, structure)
        };
        let donor = leader.then(|| st.cache.donor(key, structure)).flatten();
        let scrub_checks = st.cache.scrub_checks() - scrubs_before;
        let scrub_evictions = st.cache.scrub_evictions() - evictions_before;
        let token = CancelToken::new();
        let deadline = req
            .wall_deadline
            .or(cfg.default_wall_deadline)
            .map(|d| Instant::now() + d);
        if let Some(dl) = deadline {
            st.deadlines.push((dl, token.clone()));
            self.inner.monitor_cv.notify_all();
        }
        let handle = RequestHandle {
            id: req.id.clone(),
            token: token.clone(),
        };
        st.outcomes.push(Option::None);
        st.queue.push_back(Job {
            req,
            token,
            queue_position,
            flight,
            leader,
            donor,
            operator_key: key,
            cycle_budget,
            deadline,
            scrub_checks,
            scrub_evictions,
        });
        self.inner.work_cv.notify_one();
        Ok(handle)
    }

    /// Opens the gate: workers start popping queued jobs.
    pub fn open(&self) {
        let mut st = hold(&self.inner.state);
        st.gate_open = true;
        drop(st);
        self.inner.work_cv.notify_all();
    }

    /// Blocks until every admitted request has terminated. The gate
    /// must be open (or shutting down), or this waits forever.
    pub fn wait_all(&self) {
        let mut st = hold(&self.inner.state);
        while !(st.queue.is_empty() && st.running == 0) {
            st = unpoison(self.inner.done_cv.wait(st));
        }
    }

    /// Prepare-cache admission statistics so far: `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        let st = hold(&self.inner.state);
        (st.cache.hits(), st.cache.misses())
    }

    /// Cache-scrub statistics so far: `(checks, evictions)`. Both zero
    /// unless [`ServeConfig::scrub_cache`] is on.
    pub fn scrub_stats(&self) -> (u64, u64) {
        let st = hold(&self.inner.state);
        (st.cache.scrub_checks(), st.cache.scrub_evictions())
    }

    /// Gracefully drains the service: refuses new admissions, lets the
    /// workers finish every queued request, and returns all outcomes in
    /// submission order.
    pub fn shutdown(mut self) -> Vec<RequestOutcome> {
        {
            let mut st = hold(&self.inner.state);
            st.shutdown = true;
            st.gate_open = true;
        }
        self.inner.work_cv.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        {
            let mut st = hold(&self.inner.state);
            st.monitor_stop = true;
        }
        self.inner.monitor_cv.notify_all();
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
        let mut st = hold(&self.inner.state);
        st.outcomes
            .drain(..)
            .enumerate()
            .map(|(i, slot)| match slot {
                Some(outcome) => outcome,
                // Unreachable after a full drain; synthesized rather
                // than unwrapped so a lost slot degrades into a typed
                // outcome instead of a panic.
                Option::None => RequestOutcome {
                    id: format!("lost-{i}"),
                    queue_position: i as u64,
                    prepare: "none".into(),
                    attempts: 0,
                    backoff_ticks: Vec::new(),
                    result: Err(ServeError::Shutdown),
                    journal: String::new(),
                },
            })
            .collect()
    }
}

/// Batch-mode result: every submission's outcome plus service-level
/// aggregates.
#[derive(Debug)]
pub struct BatchReport {
    /// One outcome per submission, in submission order (shed included).
    pub outcomes: Vec<RequestOutcome>,
    /// Prepare-cache hits (admissions that shared a flight).
    pub cache_hits: u64,
    /// Prepare-cache misses (admissions that led a flight).
    pub cache_misses: u64,
    /// Submissions shed at admission.
    pub shed: u64,
}

/// Runs a whole batch through a fresh service: submit everything while
/// the gate is closed (so the shed set depends only on submission
/// order), open, drain, shut down.
pub fn serve_batch(cfg: ServeConfig, requests: Vec<SolveRequest>) -> BatchReport {
    let service = ServeService::start(cfg);
    let mut shed = 0u64;
    for req in requests {
        if service.submit(req).is_err() {
            shed += 1;
        }
    }
    service.open();
    service.wait_all();
    let (cache_hits, cache_misses) = service.cache_stats();
    let outcomes = service.shutdown();
    BatchReport {
        outcomes,
        cache_hits,
        cache_misses,
        shed,
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut st = hold(&inner.state);
            loop {
                if st.gate_open {
                    if let Some(job) = st.queue.pop_front() {
                        st.running += 1;
                        break job;
                    }
                    if st.shutdown {
                        return;
                    }
                } else if st.shutdown {
                    return;
                }
                st = unpoison(inner.work_cv.wait(st));
            }
        };
        let slot = job.queue_position as usize;
        let outcome = run_request(inner, job);
        let mut st = hold(&inner.state);
        if let Some(entry) = st.outcomes.get_mut(slot) {
            *entry = Some(outcome);
        }
        st.running -= 1;
        drop(st);
        inner.done_cv.notify_all();
    }
}

/// Trips cancel tokens whose wall deadline passed. Deadlines are
/// enforced *here*, host-side, so the simulator itself never reads a
/// wall clock (the `wall-clock-in-sim` lint stays intact) and the
/// kernel observes only a cooperative flag.
fn monitor_loop(inner: &Inner) {
    let mut st = hold(&inner.state);
    loop {
        if st.monitor_stop {
            return;
        }
        let now = Instant::now();
        st.deadlines.retain(|(deadline, token)| {
            if *deadline <= now {
                token.cancel();
                false
            } else {
                true
            }
        });
        let next = st.deadlines.iter().map(|(d, _)| *d).min();
        st = match next {
            Some(deadline) => {
                let wait = deadline.saturating_duration_since(now);
                unpoison(inner.monitor_cv.wait_timeout(st, wait)).0
            }
            Option::None => unpoison(inner.monitor_cv.wait(st)),
        };
    }
}

/// Publishes `Failed` on drop. Because [`Flight::publish`] is
/// first-write-wins, the leader publishes its real result and then
/// lets the guard's no-op drop fire; on a panic or early return the
/// guard is what unblocks the followers.
struct PublishGuard<'a> {
    flight: &'a Flight,
}

impl Drop for PublishGuard<'_> {
    fn drop(&mut self) {
        self.flight.publish(Option::None);
    }
}

/// Classifies a tripped cancel token: past the deadline it was the
/// monitor, otherwise the caller.
fn cancellation_reason(deadline: Option<Instant>) -> ServeError {
    match deadline {
        Some(d) if Instant::now() >= d => ServeError::DeadlineExceeded,
        _ => ServeError::Cancelled,
    }
}

/// A failure worth retrying at the service level: the simulated machine
/// misbehaved (deadlock, invariant trip), either directly or as the
/// final attempt of an exhausted degradation ladder. Input, capacity
/// and numeric failures are deterministic properties of the request and
/// never retried.
fn is_transient(err: &AzulError) -> bool {
    match err {
        AzulError::Sim(_) => true,
        AzulError::Exhausted { attempts } => {
            matches!(attempts.last().map(|a| &a.error), Some(AzulError::Sim(_)))
        }
        _ => false,
    }
}

/// Sleeps `ticks * tick`, in slices, bailing early when the token
/// trips so cancellation latency is bounded by one slice.
fn backoff_sleep(ticks: u64, tick: Duration, token: &CancelToken) {
    let total = tick.saturating_mul(u32::try_from(ticks).unwrap_or(u32::MAX));
    if total.is_zero() {
        return;
    }
    let slice = Duration::from_millis(5).min(total);
    let until = Instant::now() + total;
    while Instant::now() < until && !token.is_cancelled() {
        std::thread::sleep(slice.min(until.saturating_duration_since(Instant::now())));
    }
}

/// Builds the per-request supervisor: the shared base config plus this
/// request's cancel token, fault plan (solve attempts only) and cycle
/// budget.
fn supervisor_for(cfg: &ServeConfig, job: &Job, with_faults: bool) -> SolveSupervisor {
    let mut base = cfg.base.clone();
    base.sim.cancel = Some(job.token.clone());
    if with_faults {
        base.sim.faults = job.req.faults.clone();
    }
    let mut policy = cfg.policy.clone();
    policy.cycle_budget = policy.cycle_budget.min(job.cycle_budget);
    SolveSupervisor::with_policy(base, policy)
}

/// Executes one admitted request end to end: prepare (lead or follow),
/// the retry loop, and journal construction.
fn run_request(inner: &Inner, job: Job) -> RequestOutcome {
    let cfg = &inner.cfg;
    let prepare_role;
    let mut attempts: u64 = 0;
    let mut backoff: Vec<u64> = Vec::new();

    // A request that was cancelled (or timed out) while queued never
    // starts a solve. The deadline is consulted directly, not just via
    // the token: an already-expired deadline must classify identically
    // whether or not the monitor thread has tripped the token yet.
    let expired = job.deadline.is_some_and(|d| Instant::now() >= d);
    if expired || job.token.is_cancelled() {
        if job.leader {
            job.flight.publish(Option::None);
        }
        let err = cancellation_reason(job.deadline);
        return finish(&job, "none", attempts, backoff, Err(err), Option::None);
    }

    // Prepare stage: the leader computes the first rung, on its donor's
    // structure layer if the donor has published, and publishes;
    // followers block on the flight. A failed or cancelled prepare is
    // not terminal for followers — they fall back to an unseeded solve,
    // which walks the degradation ladders itself.
    let seed: Option<Arc<PreparedSolver>> = if job.leader {
        prepare_role = "leader";
        let guard = PublishGuard {
            flight: &job.flight,
        };
        let a = &job.req.matrix;
        let donor = job.donor.as_ref().and_then(|d| d.ready_rung());
        let warm = donor.and_then(|d| d.with_values(a).ok());
        match warm.map_or_else(
            || supervisor_for(cfg, &job, false).prepare_first_rung(a),
            Ok,
        ) {
            Ok(rung) => {
                let rung = Arc::new(rung);
                job.flight.publish(Some(Arc::clone(&rung)));
                drop(guard);
                Some(rung)
            }
            Err(AzulError::Cancelled { .. }) => {
                drop(guard);
                let err = cancellation_reason(job.deadline);
                return finish(
                    &job,
                    prepare_role,
                    attempts,
                    backoff,
                    Err(err),
                    Option::None,
                );
            }
            Err(_) => {
                drop(guard);
                Option::None
            }
        }
    } else {
        match job.flight.wait(&job.token) {
            FlightWait::Ready(rung) => {
                prepare_role = "shared";
                Some(rung)
            }
            FlightWait::Failed => {
                prepare_role = "none";
                Option::None
            }
            FlightWait::Cancelled => {
                let err = cancellation_reason(job.deadline);
                return finish(&job, "none", attempts, backoff, Err(err), Option::None);
            }
        }
    };

    // Retry loop: each attempt is a full supervised solve; only
    // transient (machine-side) failures are retried, on the
    // deterministic capped-exponential tick schedule.
    loop {
        if job.token.is_cancelled() {
            let err = cancellation_reason(job.deadline);
            return finish(
                &job,
                prepare_role,
                attempts,
                backoff,
                Err(err),
                Option::None,
            );
        }
        attempts += 1;
        let sup = supervisor_for(cfg, &job, true);
        match sup.solve_prepared(&job.req.matrix, &job.req.rhs, seed.as_deref()) {
            Ok(report) => {
                return finish(&job, prepare_role, attempts, backoff, Ok(()), Some(report));
            }
            Err(AzulError::Cancelled { .. }) => {
                let err = cancellation_reason(job.deadline);
                return finish(
                    &job,
                    prepare_role,
                    attempts,
                    backoff,
                    Err(err),
                    Option::None,
                );
            }
            Err(err) => {
                let retries_done = attempts.saturating_sub(1);
                if is_transient(&err) && retries_done < u64::from(cfg.retry.max_retries) {
                    let ticks = cfg.retry.backoff_ticks(backoff.len() as u32);
                    backoff.push(ticks);
                    backoff_sleep(ticks, cfg.retry.tick, &job.token);
                    continue;
                }
                return finish(
                    &job,
                    prepare_role,
                    attempts,
                    backoff,
                    Err(ServeError::Solve(err)),
                    Option::None,
                );
            }
        }
    }
}

/// Assembles the outcome and its journal. `verdict` is `Ok(())` exactly
/// when `solved` carries the winning report.
fn finish(
    job: &Job,
    prepare_role: &str,
    attempts: u64,
    backoff_ticks: Vec<u64>,
    verdict: Result<(), ServeError>,
    solved: Option<SupervisedSolveReport>,
) -> RequestOutcome {
    let (outcome_label, error_text, result) = match (&verdict, &solved) {
        (Ok(()), Some(report)) => (
            "success",
            String::new(),
            Ok(ServedSolve {
                x: report.x.clone(),
                iterations: report.iterations,
                final_residual: report.final_residual,
                total_cycles: report.total_cycles,
                supervisor_attempts: report.attempts,
                escalations: report.escalations.len(),
            }),
        ),
        (Err(err), _) => (err.outcome_label(), err.to_string(), Err(err.clone())),
        // `verdict` and `solved` are produced together; a success
        // without a report is unrepresentable at the call sites.
        (Ok(()), Option::None) => (
            "failed",
            "internal: success verdict without a report".to_string(),
            Err(ServeError::Solve(AzulError::Input(
                "success verdict without a report".into(),
            ))),
        ),
    };

    let mut report = TelemetryReport::default();
    report.scenario_field("service", "azul-serve");
    report.scenario_field("request_id", job.req.id.as_str());
    report.scenario_field("matrix_rows", job.req.matrix.rows() as u64);
    report.scenario_field("matrix_nnz", job.req.matrix.nnz() as u64);
    report.scenario_field("operator_key", format!("{:016x}", job.operator_key));
    if let Some(sup) = &solved {
        fill_supervisor_report(&mut report, sup);
        report.counter("cycles", sup.total_cycles);
        report.counter("iterations", sup.iterations as u64);
        report.convergence = sup.convergence.clone();
        azul_sim::telemetry::fill_integrity_report(&mut report, &sup.integrity);
    }
    // The scrub verdict of this request's cache admission rides in the
    // same integrity section as the solve's own audit; a request that
    // neither scrubbed nor audited keeps the section absent, so
    // integrity-off journals are byte-identical to the pre-v7 shape
    // modulo the schema version.
    if job.scrub_checks > 0 {
        let section = report.integrity.get_or_insert_with(Default::default);
        section.scrub_checks += job.scrub_checks;
        section.scrub_evictions += job.scrub_evictions;
    }
    report.serve = Some(ServeSummary {
        request_id: job.req.id.clone(),
        queue_position: job.queue_position,
        prepare: prepare_role.to_string(),
        attempts,
        backoff_ticks: backoff_ticks.clone(),
        cycle_budget: job.cycle_budget,
        outcome: outcome_label.to_string(),
        error: error_text,
    });
    RequestOutcome {
        id: job.req.id.clone(),
        queue_position: job.queue_position,
        prepare: prepare_role.to_string(),
        attempts,
        backoff_ticks,
        result,
        journal: report.to_json().to_string_pretty(),
    }
}

/// Journal + outcome for a submission refused at admission.
fn shed_outcome(
    req: &SolveRequest,
    queue_position: u64,
    cycle_budget: u64,
    err: &ServeError,
) -> RequestOutcome {
    let mut report = TelemetryReport::default();
    report.scenario_field("service", "azul-serve");
    report.scenario_field("request_id", req.id.as_str());
    report.scenario_field("matrix_rows", req.matrix.rows() as u64);
    report.scenario_field("matrix_nnz", req.matrix.nnz() as u64);
    report.serve = Some(ServeSummary {
        request_id: req.id.clone(),
        queue_position,
        prepare: "none".to_string(),
        attempts: 0,
        backoff_ticks: Vec::new(),
        cycle_budget,
        outcome: err.outcome_label().to_string(),
        error: err.to_string(),
    });
    RequestOutcome {
        id: req.id.clone(),
        queue_position,
        prepare: "none".to_string(),
        attempts: 0,
        backoff_ticks: Vec::new(),
        result: Err(err.clone()),
        journal: report.to_json().to_string_pretty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use azul_sparse::generate;

    fn rhs(n: usize, salt: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64 * 13 + salt * 7) % 9) as f64 / 9.0 + 0.2)
            .collect()
    }

    fn quick_cfg() -> ServeConfig {
        ServeConfig::new(AzulConfig::small_test())
    }

    fn request(id: &str, salt: u64) -> SolveRequest {
        let a = generate::grid_laplacian_2d(8, 8);
        let b = rhs(a.rows(), salt);
        SolveRequest::new(id, a, b)
    }

    #[test]
    fn backoff_schedule_is_capped_exponential() {
        let retry = RetryPolicy {
            max_retries: 5,
            base_backoff_ticks: 1,
            max_backoff_ticks: 8,
            tick: Duration::ZERO,
        };
        let schedule: Vec<u64> = (0..5).map(|k| retry.backoff_ticks(k)).collect();
        assert_eq!(schedule, vec![1, 2, 4, 8, 8]);
        // Shift overflow saturates into the cap instead of wrapping.
        assert_eq!(retry.backoff_ticks(200), 8);
    }

    #[test]
    fn single_request_round_trips_with_a_journal() {
        let report = serve_batch(quick_cfg(), vec![request("r0", 0)]);
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.shed, 0);
        let out = &report.outcomes[0];
        assert_eq!(out.id, "r0");
        assert_eq!(out.queue_position, 0);
        assert_eq!(out.prepare, "leader");
        assert_eq!(out.attempts, 1);
        assert!(out.backoff_ticks.is_empty());
        let solve = out.result.as_ref().expect("healthy solve succeeds");
        assert!(solve.final_residual.is_finite());
        assert!(out.journal.contains("\"schema_version\": 7"));
        assert!(out.journal.contains("\"outcome\": \"success\""));
        assert!(out.journal.contains("\"prepare\": \"leader\""));
    }

    #[test]
    fn overload_sheds_exactly_the_oversubscription() {
        let mut cfg = quick_cfg();
        cfg.queue_capacity = 2;
        let reqs = (0..4).map(|i| request(&format!("r{i}"), i)).collect();
        let report = serve_batch(cfg, reqs);
        assert_eq!(report.shed, 2);
        assert_eq!(report.outcomes.len(), 4);
        for out in &report.outcomes[..2] {
            assert!(out.result.is_ok(), "admitted request solved: {out:?}");
        }
        for out in &report.outcomes[2..] {
            assert_eq!(
                out.result,
                Err(ServeError::QueueFull { capacity: 2 }),
                "oversubscribed request shed with a typed error"
            );
            assert_eq!(out.attempts, 0);
            assert!(out.journal.contains("\"outcome\": \"queue-full\""));
        }
    }

    #[test]
    fn repeated_operator_traffic_shares_the_prepare() {
        // Same operator AND same rhs: the shared prepare must not
        // change the answer, so the solves are directly comparable.
        let reqs = (0..3).map(|i| request(&format!("r{i}"), 0)).collect();
        let report = serve_batch(quick_cfg(), reqs);
        let roles: Vec<&str> = report.outcomes.iter().map(|o| o.prepare.as_str()).collect();
        assert_eq!(roles, vec!["leader", "shared", "shared"]);
        assert_eq!(report.cache_hits, 2);
        assert_eq!(report.cache_misses, 1);
        for out in &report.outcomes {
            assert!(out.result.is_ok(), "{out:?}");
        }
        // Shared prepares change provenance, never the answer.
        let lead = report.outcomes[0].result.as_ref().expect("lead ok");
        let shared = report.outcomes[1].result.as_ref().expect("shared ok");
        assert_eq!(lead.x, shared.x);
        assert_eq!(lead.iterations, shared.iterations);
    }

    #[test]
    fn scrubbed_healthy_traffic_verifies_without_evicting() {
        use azul_sim::IntegrityPolicy;

        let mut cfg = quick_cfg();
        cfg.scrub_cache = true;
        cfg.base.pcg.integrity = IntegrityPolicy::audit();
        let service = ServeService::start(cfg);
        for i in 0..3 {
            service
                .submit(request(&format!("r{i}"), 0))
                .expect("admitted");
        }
        service.open();
        service.wait_all();
        let (checks, evictions) = service.scrub_stats();
        let outcomes = service.shutdown();

        // Followers admitted against a Pending flight are not scrubbed
        // (nothing is published yet); with batch-closed-gate admission
        // all three land before the leader publishes, so the scrub
        // count stays at zero here — the coverage for a Ready-entry
        // scrub is the cache unit test. What must hold end to end:
        // healthy traffic never evicts, and every solve's own audit is
        // clean and journaled.
        assert_eq!(evictions, 0, "healthy artifacts are never evicted");
        assert!(checks <= 2);
        for out in &outcomes {
            let solve = out.result.as_ref().expect("healthy solve succeeds");
            assert!(solve.final_residual.is_finite());
            assert!(out.journal.contains("\"integrity\""), "{}", out.journal);
            assert!(out.journal.contains("\"escapes\": 0"));
            assert!(out.journal.contains("\"violations\": []"));
        }
    }

    #[test]
    fn scrubbed_cache_hit_verifies_a_published_rung() {
        use azul_sim::IntegrityPolicy;

        // Sequential submission with the gate open: the first request
        // publishes its rung before the second is admitted, so the
        // second admission scrubs a Ready entry.
        let mut cfg = quick_cfg();
        cfg.scrub_cache = true;
        cfg.base.pcg.integrity = IntegrityPolicy::audit();
        let service = ServeService::start(cfg);
        service.open();
        service.submit(request("first", 0)).expect("admitted");
        service.wait_all();
        service.submit(request("second", 1)).expect("admitted");
        service.wait_all();
        let (checks, evictions) = service.scrub_stats();
        let outcomes = service.shutdown();
        assert_eq!(checks, 1, "the cache hit re-verified the cached rung");
        assert_eq!(evictions, 0, "the healthy rung survived the scrub");
        assert_eq!(outcomes[1].prepare, "shared");
        assert!(outcomes[1].journal.contains("\"scrub_checks\": 1"));
        assert!(outcomes[1].journal.contains("\"scrub_evictions\": 0"));
        assert!(outcomes[0].journal.contains("\"scrub_checks\": 0"));
        for out in &outcomes {
            assert!(out.result.is_ok(), "{out:?}");
        }
    }

    #[test]
    fn cancellation_before_execution_is_typed_and_runs_nothing() {
        let service = ServeService::start(quick_cfg());
        let handle = service.submit(request("victim", 0)).expect("admitted");
        handle.cancel();
        service.open();
        service.wait_all();
        let outcomes = service.shutdown();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].result, Err(ServeError::Cancelled));
        assert_eq!(outcomes[0].attempts, 0, "no solve attempt started");
        assert!(outcomes[0].journal.contains("\"outcome\": \"cancelled\""));
    }

    #[test]
    fn expired_deadline_is_classified_deterministically() {
        let mut req = request("late", 0);
        req.wall_deadline = Some(Duration::ZERO);
        let report = serve_batch(quick_cfg(), vec![req]);
        assert_eq!(report.outcomes[0].result, Err(ServeError::DeadlineExceeded));
        assert!(report.outcomes[0]
            .journal
            .contains("\"outcome\": \"deadline\""));
    }

    #[test]
    fn transient_failures_walk_the_documented_backoff_schedule() {
        // A one-cycle kernel deadline makes every simulated attempt die
        // with SimError::Deadlock — a transient, machine-side failure —
        // while the host-side prepare still succeeds. The service must
        // retry on the capped-exponential schedule and then surface the
        // exhausted ladder as a typed Solve error.
        let mut cfg = quick_cfg();
        cfg.base.sim.max_kernel_cycles = 1;
        cfg.policy = EscalationPolicy {
            max_attempts: 1,
            mappings: cfg.policy.mappings[..1].to_vec(),
            preconditioners: cfg.policy.preconditioners[..1].to_vec(),
            solvers: cfg.policy.solvers[..1].to_vec(),
            ..cfg.policy
        };
        cfg.retry.max_retries = 2;
        let report = serve_batch(cfg, vec![request("doomed", 0)]);
        let out = &report.outcomes[0];
        assert_eq!(out.attempts, 3, "initial attempt plus two retries");
        assert_eq!(out.backoff_ticks, vec![1, 2]);
        match &out.result {
            Err(ServeError::Solve(e)) => assert!(is_transient(e), "{e}"),
            other => panic!("expected exhausted Solve error, got {other:?}"),
        }
        assert!(out.journal.contains("\"outcome\": \"failed\""));
        assert!(out.journal.contains("\"backoff_ticks\": ["));
    }

    #[test]
    fn rejected_solver_input_is_never_retried() {
        let err: AzulError = azul_sim::SimError::Input {
            detail: "rhs length mismatch".into(),
        }
        .into();
        assert!(matches!(err, AzulError::Input(_)), "{err:?}");
        assert!(!is_transient(&err));
    }

    #[test]
    fn journals_are_byte_identical_across_worker_pool_sizes() {
        let batch = || {
            let mut reqs: Vec<SolveRequest> =
                (0..5).map(|i| request(&format!("r{i}"), i)).collect();
            // A fresh operator in the middle exercises both cache roles.
            let odd = generate::grid_laplacian_2d(6, 6);
            reqs[3] = SolveRequest::new("r3", odd.clone(), rhs(odd.rows(), 3));
            reqs
        };
        let journals = |workers: usize| -> Vec<String> {
            let mut cfg = quick_cfg();
            cfg.workers = workers;
            cfg.queue_capacity = 4; // sheds the last submission
            serve_batch(cfg, batch())
                .outcomes
                .into_iter()
                .map(|o| o.journal)
                .collect()
        };
        assert_eq!(journals(1), journals(4));
    }
}
