//! Cooperative cancellation tokens for long-running simulations.
//!
//! A solve-as-a-service front-end (`azul-serve`) must be able to abandon
//! a request mid-solve — a wall deadline expired, the client hung up, the
//! service is draining for shutdown. The cycle engine cannot poll wall
//! clocks itself (the `wall-clock-in-sim` lint forbids host-time reads in
//! this crate precisely so simulated results never depend on host speed),
//! so cancellation is *cooperative*: the host arms a [`CancelToken`],
//! hands it to the machine via [`SimConfig::cancel`](crate::SimConfig),
//! and the tick loop samples the flag once per iteration at a serial
//! point. Whoever holds a clone — a deadline monitor thread, a request
//! handle — trips it with [`CancelToken::cancel`].
//!
//! Determinism: the *machine state* at which a cancelled kernel stops is
//! wall-timing dependent by nature (that is the point of cancellation),
//! but because the flag is only sampled between cycles, a cancellation
//! never tears a cycle in half — the abort lands on a cycle boundary
//! whether or not tiles are parked, and a token
//! that is never tripped perturbs nothing: the fast path is one branch
//! per iteration. Cancellation is deliberately *not* a wake source for
//! parked tiles: a cancel landing inside a clock jump is observed at
//! the cycle the jump lands on, the same "once per loop iteration"
//! granularity (see `docs/PERFORMANCE.md`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cheaply-cloneable, thread-safe cancellation flag.
///
/// All clones share one underlying flag: cancelling any clone cancels
/// them all, and cancellation is sticky (there is deliberately no reset
/// — a request that was cancelled stays cancelled).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the flag; every clone observes it on its next sample.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether any clone has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// The token is a host-side control channel, not part of the simulated
/// machine's identity, so any two tokens compare equal, whatever their
/// state. `SimConfig` equality leaves the token out altogether: a config
/// with a token equals the same config without one.
impl PartialEq for CancelToken {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn cancellation_is_sticky_and_idempotent() {
        let t = CancelToken::new();
        t.cancel();
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn tokens_compare_equal_regardless_of_state() {
        // Host-side knob: config equality must not depend on it.
        let a = CancelToken::new();
        let b = CancelToken::new();
        b.cancel();
        assert_eq!(a, b);
    }

    #[test]
    fn tokens_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CancelToken>();
    }
}
