//! Keyed prepare cache with single-flight deduplication.
//!
//! Preparing the supervisor's first rung (preprocessing + preconditioner
//! factorization) is the expensive, operator-dependent part of a solve.
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
//! [`PreparedRung`]: the permuted matrix, its placement, the rung-0
//! factor, their ABFT checksums, and, once a solve has run on it, the
//! rung-0 PCG replay record. The record holds no value and no program:
//! one `u32` per kernel update naming a matrix or factor entry by
//! position, and 8 bytes per accumulator slot (about 0.1 MB for a Tiny
//! operator on 8×8). The leader's fault-free solve fills it; a later
//! fault-free hit binds it to the rung's matrix and factor and replays
//! every kernel launch, compiling no program and ticking no kernel. A
//! hit with a fault plan compiles and ticks, so its faults fire as on a
//! cold solve. Whether a follower finds the record filled depends on
//! worker timing, but not its result: a replay returns the engine's bits
//! and statistics, so journals do not depend on it.
//!
//! **What the scrubber covers.** [`FlightCache::admit_scrubbed`]
//! re-verifies the matrix and the factor bit for bit against their
//! checksums. Those are the only values a replay reads, so a corrupted
//! value is never replayed. The record's positions carry no checksum; a
//! request with an integrity policy checks each kernel's output.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use azul_core::PreparedRung;
use azul_mapping::TileGrid;
use azul_sim::CancelToken;
use azul_sparse::Csr;

/// Cache key for a prepare: operator contents plus every knob that
/// changes the first rung's preprocessing or factorization.
///
/// FNV-1a over the CSR structure and values (bit patterns, so `-0.0`
/// and `0.0` key differently — exact-bytes identity, no tolerance),
/// the tile grid, and the first-rung mapping and preconditioner names.
pub fn operator_key(a: &Csr, grid: &TileGrid, mapping: &str, preconditioner: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(&(a.rows() as u64).to_le_bytes());
    eat(&(a.cols() as u64).to_le_bytes());
    eat(&(a.nnz() as u64).to_le_bytes());
    for &p in a.row_ptr() {
        eat(&(p as u64).to_le_bytes());
    }
    for &c in a.col_idx() {
        eat(&(c as u64).to_le_bytes());
    }
    for &v in a.values() {
        eat(&v.to_bits().to_le_bytes());
    }
    eat(&(grid.width() as u64).to_le_bytes());
    eat(&(grid.height() as u64).to_le_bytes());
    eat(mapping.as_bytes());
    eat(&[0xff]); // separator: ("ab","c") must not collide with ("a","bc")
    eat(preconditioner.as_bytes());
    h
}

/// State of a single-flight prepare.
#[derive(Debug, Clone)]
enum FlightState {
    /// The leader has not published yet.
    Pending,
    /// The prepare succeeded; followers seed their solve with this rung.
    Ready(Arc<PreparedRung>),
    /// The prepare failed or its leader was cancelled; followers fall
    /// back to preparing inside their own solve (no shared result).
    Failed,
}

/// What a follower observed when waiting on a flight.
#[derive(Debug)]
pub enum FlightWait {
    /// The leader published a usable rung.
    Ready(Arc<PreparedRung>),
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
    pub fn publish(&self, rung: Option<Arc<PreparedRung>>) {
        let mut st = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
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
        let mut st = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        loop {
            match &*st {
                FlightState::Ready(r) => return FlightWait::Ready(Arc::clone(r)),
                FlightState::Failed => return FlightWait::Failed,
                FlightState::Pending => {
                    if token.is_cancelled() {
                        return FlightWait::Cancelled;
                    }
                    let (guard, _timeout) =
                        match self.cv.wait_timeout(st, Duration::from_millis(25)) {
                            Ok(pair) => pair,
                            Err(poisoned) => {
                                let (guard, timeout) = poisoned.into_inner();
                                (guard, timeout)
                            }
                        };
                    st = guard;
                }
            }
        }
    }

    /// Non-blocking peek used by tests and the batch summary.
    pub fn is_ready(&self) -> bool {
        let st = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        matches!(*st, FlightState::Ready(_))
    }

    /// Non-blocking peek at the published rung, if any. Used by the
    /// cache scrubber: only a `Ready` entry has an artifact to verify
    /// (a `Pending` leader is still computing, a `Failed` flight shares
    /// nothing).
    fn ready_rung(&self) -> Option<Arc<PreparedRung>> {
        let st = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        match &*st {
            FlightState::Ready(r) => Some(Arc::clone(r)),
            _ => None,
        }
    }
}

/// Bounded LRU of in-flight and completed prepares, keyed by
/// [`operator_key`].
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
    entries: Vec<(u64, Arc<Flight>)>,
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

    /// Admits a request against `key`, returning its flight handle and
    /// whether it leads (`true`) or follows (`false`).
    pub fn admit(&mut self, key: u64) -> (Arc<Flight>, bool) {
        if self.cap == 0 {
            self.misses += 1;
            return (Arc::new(Flight::new()), true);
        }
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            let entry = self.entries.remove(pos);
            let flight = Arc::clone(&entry.1);
            self.entries.push(entry);
            self.hits += 1;
            return (flight, false);
        }
        let flight = Arc::new(Flight::new());
        self.entries.push((key, Arc::clone(&flight)));
        if self.entries.len() > self.cap {
            // Followers hold their own Arc, so dropping the cache's
            // reference only stops *future* admissions from sharing it.
            self.entries.remove(0);
        }
        self.misses += 1;
        (flight, true)
    }

    /// Like [`FlightCache::admit`], but re-verifies a cached entry's
    /// ABFT checksums ([`PreparedRung::verify_integrity`]) before
    /// sharing it. A published rung that fails the scrub is evicted on
    /// the spot and this admission becomes the leader of a fresh
    /// flight — the poisoned artifact is re-prepared, never served.
    /// Entries still `Pending` (leader computing) or `Failed` carry no
    /// artifact and are admitted against unscrubbed.
    pub fn admit_scrubbed(&mut self, key: u64) -> (Arc<Flight>, bool) {
        if self.cap > 0 {
            if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
                if let Some(rung) = self.entries[pos].1.ready_rung() {
                    self.scrub_checks += 1;
                    if !rung.verify_integrity() {
                        self.scrub_evictions += 1;
                        self.entries.remove(pos);
                    }
                }
            }
        }
        self.admit(key)
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
        let (f1, lead1) = cache.admit(42);
        let (f2, lead2) = cache.admit(42);
        assert!(lead1, "first admission for a key is the leader");
        assert!(!lead2, "second admission shares the flight");
        assert!(Arc::ptr_eq(&f1, &f2), "both hold the same flight");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn eviction_is_lru_and_does_not_strand_followers() {
        let mut cache = FlightCache::new(2);
        let (f_old, _) = cache.admit(1);
        cache.admit(2);
        cache.admit(1); // touch: 1 is now most recent, 2 is LRU
        cache.admit(3); // evicts 2
        let (_, lead_again_1) = cache.admit(1);
        assert!(!lead_again_1, "touched key survived the eviction");
        let (_, lead_again_2) = cache.admit(2);
        assert!(lead_again_2, "evicted key re-admits as a fresh leader");
        // The evicted flight handle still works for whoever held it.
        f_old.publish(None);
        assert!(!f_old.is_ready());
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
        let (flight, lead) = cache.admit_scrubbed(42);
        assert!(lead);
        flight.publish(Some(Arc::new(rung.clone())));
        let (_, lead) = cache.admit_scrubbed(42);
        assert!(!lead, "clean cached rung is shared");
        assert_eq!(cache.scrub_checks(), 1);
        assert_eq!(cache.scrub_evictions(), 0);

        // A poisoned rung is evicted and the admission re-leads.
        let mut poisoned = rung;
        poisoned.flip_checksum_bit(0, 61);
        let mut cache = FlightCache::new(2);
        let (flight, _) = cache.admit_scrubbed(42);
        flight.publish(Some(Arc::new(poisoned)));
        let (refreshed, lead) = cache.admit_scrubbed(42);
        assert!(lead, "poisoned rung is evicted, not served");
        assert!(!Arc::ptr_eq(&flight, &refreshed), "fresh flight");
        assert_eq!(cache.scrub_checks(), 1);
        assert_eq!(cache.scrub_evictions(), 1);

        // Unscrubbed admission would have trusted the cache blindly;
        // the scrubbed path repaired it, so the next hit is clean.
        refreshed.publish(None);
        let (_, lead) = cache.admit_scrubbed(42);
        assert!(!lead, "failed flight still shares (no artifact to scrub)");
        assert_eq!(cache.scrub_checks(), 1, "failed flights are not scrubbed");
    }

    #[test]
    fn zero_capacity_disables_sharing() {
        let mut cache = FlightCache::new(0);
        let (_, lead_a) = cache.admit(7);
        let (_, lead_b) = cache.admit(7);
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
