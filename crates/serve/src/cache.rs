//! Keyed prepare cache with single-flight deduplication.
//!
//! Preparing the supervisor's first rung (coloring, mapping, factor) is the expensive, operator-dependent part of a solve.
//! When several queued requests target the same operator under the same
//! base configuration, only one of them — the *leader* — should pay for
//! it; the others — *followers* — share the result.
//!
//! Determinism is the design constraint here: the per-request journal
//! records whether a request led or shared its prepare, and that record
//! must be byte-identical regardless of how many workers raced through
//! the queue. Roles are therefore decided at **admission time**, under
//! the service's state lock, by [`FlightCache::admit`] — never at
//! execution time. Each cache entry is a [`Flight`]: a publish-once cell
//! the leader fills and followers block on. A follower keeps its own
//! `Arc<Flight>` handle, so LRU eviction between admission and execution
//! can never strand it.
//!
//! **What an entry holds.** A published flight holds one
//! [`PreparedSolver`] in two layers. The structure layer (permutation,
//! placement and, once a solve has run on it, the rung-0 PCG replay
//! record) depends on the sparsity pattern alone; the values layer (the
//! permuted matrix, the rung-0 factor and their ABFT checksums) on the
//! values. The record holds no value and no program: one `u32` per
//! kernel update naming a matrix or factor entry, and 8 bytes per
//! accumulator slot (about 0.1 MB for a Tiny operator on 8×8). The
//! leader's fault-free solve fills it; a later fault-free solve on the
//! structure binds it and replays every kernel launch, compiling no
//! program and ticking no kernel. A request with a fault plan compiles
//! and ticks, so its faults fire as on a cold solve. Whether the record
//! is filled yet depends on worker timing, but no result does: a replay
//! returns the engine's bits and statistics.
//!
//! **Same-pattern misses.** Entries carry both [`prepare_keys`]; a hit
//! matches the operator key. A leader gets, at admission, the latest
//! entry of another operator with its structure key as its *donor*. If
//! the donor has published when the leader runs, the leader builds on
//! its structure layer with [`PreparedSolver::with_values`] and colors,
//! maps and compiles nothing; otherwise it prepares cold, without
//! waiting. Coloring and mapping read only the pattern, so both paths
//! give the same bits and the same journal.
//!
//! **What the scrubber covers.** [`FlightCache::admit_scrubbed`]
//! re-verifies the values layer bit for bit against its checksums. The
//! matrix and the factor are the only values a replay reads, so a
//! corrupted value is never replayed. The structure layer carries no
//! checksum; a request with an integrity policy checks each kernel's
//! output.

use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use azul_core::PreparedSolver;
use azul_mapping::TileGrid;
use azul_sim::CancelToken;
use azul_sparse::Csr;

/// A lock's guard, or a condvar wait's, recovered from a poisoned
/// lock: a worker that panicked mid-request must not take the whole
/// service down with it, and every mutation made under these locks is
/// transactional (no half-written outcomes).
pub(crate) fn unpoison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Locks a mutex, recovering the data from a poisoned lock.
pub(crate) fn hold<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    unpoison(m.lock())
}

/// FNV-1a state.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The two cache keys of a prepare, `(operator, structure)`: FNV-1a over
/// the CSR dimensions and structure, then the tile grid and the
/// first-rung mapping and preconditioner names. The operator key also
/// hashes the value bits between the two (`-0.0` and `0.0` key
/// differently: exact-bytes identity, no tolerance); the structure key
/// leaves them out, so every operator on one pattern shares it.
pub fn prepare_keys(a: &Csr, grid: &TileGrid, mapping: &str, preconditioner: &str) -> (u64, u64) {
    let mut pattern = Fnv(0xcbf2_9ce4_8422_2325);
    pattern.eat(&(a.rows() as u64).to_le_bytes());
    pattern.eat(&(a.cols() as u64).to_le_bytes());
    pattern.eat(&(a.nnz() as u64).to_le_bytes());
    for &p in a.row_ptr() {
        pattern.eat(&(p as u64).to_le_bytes());
    }
    for &c in a.col_idx() {
        pattern.eat(&(c as u64).to_le_bytes());
    }
    let mut operator = pattern;
    for &v in a.values() {
        operator.eat(&v.to_bits().to_le_bytes());
    }
    let knobs = |mut h: Fnv| {
        h.eat(&(grid.width() as u64).to_le_bytes());
        h.eat(&(grid.height() as u64).to_le_bytes());
        h.eat(mapping.as_bytes());
        h.eat(&[0xff]); // separator: ("ab","c") must not collide with ("a","bc")
        h.eat(preconditioner.as_bytes());
        h.0
    };
    (knobs(operator), knobs(pattern))
}

/// The operator key of [`prepare_keys`], which full cache hits match.
pub fn operator_key(a: &Csr, grid: &TileGrid, mapping: &str, preconditioner: &str) -> u64 {
    prepare_keys(a, grid, mapping, preconditioner).0
}

/// State of a single-flight prepare.
#[derive(Debug, Clone)]
enum FlightState {
    /// The leader has not published yet.
    Pending,
    /// The prepare succeeded; followers seed their solve with this rung.
    Ready(Arc<PreparedSolver>),
    /// The prepare failed or its leader was cancelled; followers fall
    /// back to preparing inside their own solve (no shared result).
    Failed,
}

/// What a follower observed when waiting on a flight.
#[derive(Debug)]
pub enum FlightWait {
    /// The leader published a usable rung.
    Ready(Arc<PreparedSolver>),
    /// The leader failed or was cancelled; prepare individually.
    Failed,
    /// The *waiter's own* token tripped while blocked.
    Cancelled,
}

/// A publish-once cell for one prepared rung.
#[derive(Debug)]
pub struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Publishes the leader's result. Only the first publish takes
    /// effect; later calls are ignored, so a drop-guard can safely
    /// publish `Failed` on every exit path without clobbering a
    /// success.
    pub fn publish(&self, rung: Option<Arc<PreparedSolver>>) {
        let mut st = hold(&self.state);
        if matches!(*st, FlightState::Pending) {
            *st = match rung {
                Some(r) => FlightState::Ready(r),
                None => FlightState::Failed,
            };
            self.cv.notify_all();
        }
    }

    /// Blocks until the leader publishes or `token` trips.
    ///
    /// The wait polls the token on a coarse timeout rather than
    /// registering a wakeup: cancellation is already cooperative (the
    /// sim samples it once per cycle), so tens of milliseconds of
    /// latency on this path is in-budget and keeps the token type a
    /// plain atomic flag.
    pub fn wait(&self, token: &CancelToken) -> FlightWait {
        let mut st = hold(&self.state);
        loop {
            match &*st {
                FlightState::Ready(r) => return FlightWait::Ready(Arc::clone(r)),
                FlightState::Failed => return FlightWait::Failed,
                FlightState::Pending => {
                    if token.is_cancelled() {
                        return FlightWait::Cancelled;
                    }
                    st = unpoison(self.cv.wait_timeout(st, Duration::from_millis(25))).0;
                }
            }
        }
    }

    /// Non-blocking peek at the published rung, if any. Used by the
    /// cache scrubber (only a `Ready` entry has an artifact to verify: a
    /// `Pending` leader is still computing, a `Failed` flight shares
    /// nothing) and by a leader whose donor may lend it a structure.
    pub fn ready_rung(&self) -> Option<Arc<PreparedSolver>> {
        let st = hold(&self.state);
        match &*st {
            FlightState::Ready(r) => Some(Arc::clone(r)),
            _ => None,
        }
    }
}

/// Bounded LRU of in-flight and completed prepares, keyed by both
/// [`prepare_keys`].
///
/// Touched **only at admission**, under the service state lock — the
/// recency order and every leader/follower decision are functions of
/// the submission sequence alone, which is what makes the journals
/// reproducible across worker-pool sizes.
#[derive(Debug)]
pub struct FlightCache {
    cap: usize,
    /// Front = least recently admitted-against; back = most recent.
    /// A `Vec` scan beats a map here: capacities are single-digit and
    /// the deterministic eviction order falls out of position.
    /// Each entry: operator key, structure key, flight.
    entries: Vec<(u64, u64, Arc<Flight>)>,
    hits: u64,
    misses: u64,
    scrub_checks: u64,
    scrub_evictions: u64,
}

impl FlightCache {
    /// Creates a cache holding at most `cap` flights. `cap == 0`
    /// disables sharing: every admission becomes an unshared leader.
    pub fn new(cap: usize) -> Self {
        FlightCache {
            cap,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            scrub_checks: 0,
            scrub_evictions: 0,
        }
    }

    /// Admits a request against its operator `key` and `structure` key,
    /// returning its flight handle and whether it leads (`true`) or
    /// follows (`false`).
    pub fn admit(&mut self, key: u64, structure: u64) -> (Arc<Flight>, bool) {
        if self.cap == 0 {
            self.misses += 1;
            return (Arc::new(Flight::new()), true);
        }
        if let Some(pos) = self.entries.iter().position(|e| e.0 == key) {
            let entry = self.entries.remove(pos);
            let flight = Arc::clone(&entry.2);
            self.entries.push(entry);
            self.hits += 1;
            return (flight, false);
        }
        let flight = Arc::new(Flight::new());
        self.entries.push((key, structure, Arc::clone(&flight)));
        if self.entries.len() > self.cap {
            // Followers hold their own Arc, so dropping the cache's
            // reference only stops *future* admissions from sharing it.
            self.entries.remove(0);
        }
        self.misses += 1;
        (flight, true)
    }

    /// Like [`FlightCache::admit`], but re-verifies a cached entry's
    /// ABFT checksums ([`PreparedSolver::verify_integrity`]) before
    /// sharing it. A published rung that fails the scrub is evicted on
    /// the spot and this admission becomes the leader of a fresh
    /// flight — the poisoned artifact is re-prepared, never served.
    /// Entries still `Pending` (leader computing) or `Failed` carry no
    /// artifact and are admitted against unscrubbed.
    pub fn admit_scrubbed(&mut self, key: u64, structure: u64) -> (Arc<Flight>, bool) {
        if self.cap > 0 {
            if let Some(pos) = self.entries.iter().position(|e| e.0 == key) {
                if let Some(rung) = self.entries[pos].2.ready_rung() {
                    self.scrub_checks += 1;
                    if !rung.verify_integrity() {
                        self.scrub_evictions += 1;
                        self.entries.remove(pos);
                    }
                }
            }
        }
        self.admit(key, structure)
    }

    /// The donor for a leader of `key`: the latest flight of another
    /// operator on the same `structure`. Its values are never read, so
    /// it is not scrubbed.
    pub fn donor(&self, key: u64, structure: u64) -> Option<Arc<Flight>> {
        let mut same = self.entries.iter().rev();
        let found = same.find(|e| e.1 == structure && e.0 != key)?;
        Some(Arc::clone(&found.2))
    }

    /// Admissions that shared an existing flight.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Admissions that created a fresh flight (became leaders).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cached rungs whose checksums were re-verified on a scrubbed hit.
    pub fn scrub_checks(&self) -> u64 {
        self.scrub_checks
    }

    /// Cached rungs evicted because the scrub found a mismatch.
    pub fn scrub_evictions(&self) -> u64 {
        self.scrub_evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use azul_sparse::Coo;

    fn laplacian_1d(n: usize) -> Csr {
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 2.0));
            if i > 0 {
                triplets.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                triplets.push((i, i + 1, -1.0));
            }
        }
        Coo::from_triplets(n, n, triplets)
            .expect("valid laplacian")
            .to_csr()
    }

    #[test]
    fn key_separates_operators_and_knobs() {
        let a = laplacian_1d(8);
        let b = laplacian_1d(9);
        let g2 = TileGrid::new(2, 2);
        let g4 = TileGrid::new(4, 4);
        let base = operator_key(&a, &g2, "azul", "ic0");
        assert_eq!(base, operator_key(&a, &g2, "azul", "ic0"), "key is stable");
        assert_ne!(
            base,
            operator_key(&b, &g2, "azul", "ic0"),
            "operator matters"
        );
        assert_ne!(base, operator_key(&a, &g4, "azul", "ic0"), "grid matters");
        assert_ne!(
            base,
            operator_key(&a, &g2, "block", "ic0"),
            "mapping matters"
        );
        assert_ne!(
            base,
            operator_key(&a, &g2, "azul", "ssor"),
            "precond matters"
        );
        // Concatenation ambiguity across the two name fields.
        assert_ne!(
            operator_key(&a, &g2, "ab", "c"),
            operator_key(&a, &g2, "a", "bc")
        );
    }

    #[test]
    fn key_is_sensitive_to_value_bits() {
        let a = laplacian_1d(4);
        let mut vals: Vec<(usize, usize, f64)> = Vec::new();
        for i in 0..4usize {
            vals.push((i, i, 2.0 + if i == 2 { 1e-12 } else { 0.0 }));
            if i > 0 {
                vals.push((i, i - 1, -1.0));
            }
            if i + 1 < 4 {
                vals.push((i, i + 1, -1.0));
            }
        }
        let b = Coo::from_triplets(4, 4, vals)
            .expect("valid perturbed")
            .to_csr();
        let g = TileGrid::new(2, 2);
        assert_ne!(
            operator_key(&a, &g, "azul", "ic0"),
            operator_key(&b, &g, "azul", "ic0")
        );
    }

    #[test]
    fn first_admission_leads_and_repeats_follow() {
        let mut cache = FlightCache::new(2);
        let (f1, lead1) = cache.admit(42, 0);
        let (f2, lead2) = cache.admit(42, 0);
        assert!(lead1, "first admission for a key is the leader");
        assert!(!lead2, "second admission shares the flight");
        assert!(Arc::ptr_eq(&f1, &f2), "both hold the same flight");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn eviction_is_lru_and_does_not_strand_followers() {
        let mut cache = FlightCache::new(2);
        let (f_old, _) = cache.admit(1, 0);
        cache.admit(2, 0);
        cache.admit(1, 0); // touch: 1 is now most recent, 2 is LRU
        cache.admit(3, 0); // evicts 2
        let (_, lead_again_1) = cache.admit(1, 0);
        assert!(!lead_again_1, "touched key survived the eviction");
        let (_, lead_again_2) = cache.admit(2, 0);
        assert!(lead_again_2, "evicted key re-admits as a fresh leader");
        // The evicted flight handle still works for whoever held it.
        f_old.publish(None);
        assert!(f_old.ready_rung().is_none());
    }

    #[test]
    fn scrubbed_admission_evicts_poisoned_rungs() {
        use azul_core::{AzulConfig, SolveSupervisor};
        use azul_sparse::generate;

        let a = generate::grid_laplacian_2d(8, 8);
        let sup = SolveSupervisor::new(AzulConfig::small_test());
        let rung = sup.prepare_first_rung(&a).expect("prepare succeeds");

        // A healthy published rung survives the scrub and is shared.
        let mut cache = FlightCache::new(2);
        let (flight, lead) = cache.admit_scrubbed(42, 0);
        assert!(lead);
        flight.publish(Some(Arc::new(rung.clone())));
        let (_, lead) = cache.admit_scrubbed(42, 0);
        assert!(!lead, "clean cached rung is shared");
        assert_eq!(cache.scrub_checks(), 1);
        assert_eq!(cache.scrub_evictions(), 0);

        // A poisoned rung is evicted and the admission re-leads.
        let mut poisoned = rung;
        poisoned.flip_checksum_bit(0, 61);
        let mut cache = FlightCache::new(2);
        let (flight, _) = cache.admit_scrubbed(42, 0);
        flight.publish(Some(Arc::new(poisoned)));
        let (refreshed, lead) = cache.admit_scrubbed(42, 0);
        assert!(lead, "poisoned rung is evicted, not served");
        assert!(!Arc::ptr_eq(&flight, &refreshed), "fresh flight");
        assert_eq!(cache.scrub_checks(), 1);
        assert_eq!(cache.scrub_evictions(), 1);

        // Unscrubbed admission would have trusted the cache blindly;
        // the scrubbed path repaired it, so the next hit is clean.
        refreshed.publish(None);
        let (_, lead) = cache.admit_scrubbed(42, 0);
        assert!(!lead, "failed flight still shares (no artifact to scrub)");
        assert_eq!(cache.scrub_checks(), 1, "failed flights are not scrubbed");
    }

    #[test]
    fn a_donor_is_the_latest_other_operator_on_the_structure() {
        let mut cache = FlightCache::new(4);
        let (first, _) = cache.admit(1, 10);
        assert!(
            cache.donor(1, 10).is_none(),
            "a leader is not its own donor"
        );
        cache.admit(2, 20);
        let (second, _) = cache.admit(3, 10);
        let donor = cache.donor(4, 10).expect("same structure");
        assert!(Arc::ptr_eq(&donor, &second), "the most recent one");
        assert!(Arc::ptr_eq(&cache.donor(3, 10).expect("key 1"), &first));
        assert!(
            cache.donor(5, 30).is_none(),
            "another structure lends nothing"
        );
    }

    #[test]
    fn zero_capacity_disables_sharing() {
        let mut cache = FlightCache::new(0);
        let (_, lead_a) = cache.admit(7, 0);
        let (_, lead_b) = cache.admit(7, 0);
        assert!(lead_a && lead_b, "every admission leads when cap is 0");
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn publish_is_first_write_wins() {
        let flight = Flight::new();
        flight.publish(None); // leader failed
        flight.publish(None); // drop-guard fires again: no-op
        let token = CancelToken::new();
        match flight.wait(&token) {
            FlightWait::Failed => {}
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn wait_observes_waiter_cancellation() {
        let flight = Flight::new();
        let token = CancelToken::new();
        token.cancel();
        match flight.wait(&token) {
            FlightWait::Cancelled => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn wait_unblocks_on_publish_from_another_thread() {
        let flight = Arc::new(Flight::new());
        let publisher = {
            let flight = Arc::clone(&flight);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                flight.publish(None);
            })
        };
        let token = CancelToken::new();
        match flight.wait(&token) {
            FlightWait::Failed => {}
            other => panic!("expected Failed, got {other:?}"),
        }
        publisher.join().expect("publisher thread exits cleanly");
    }
}
