//! Cooperative query cancellation and deadlines.
//!
//! A [`CancelToken`] is a cheap, cloneable handle (an `Arc`'d atomic)
//! shared between a query's caller and the kernels executing it. The
//! caller flips it with [`CancelToken::cancel`] (or arms a wall-clock
//! deadline); the execution layer polls it **cooperatively** at two
//! granularities:
//!
//! * every morsel a worker claims (each morsel's first segment run), and
//! * every segment run, with runs capped at [`CANCEL_CHECK_ROWS`] rows — a
//!   token-carrying scan caps its segment runs at that length, so even a
//!   serial scan over one huge segment observes cancellation promptly
//!   (runs over an unsealed tail are shorter still: they end at chunk
//!   piece ends).
//!
//! Polling an armed-but-untriggered token costs one relaxed atomic load
//! (plus one `Instant::now()` per check when a deadline is set) per
//! `CANCEL_CHECK_ROWS` rows; scans without a token skip even that
//! (1.006× on a projection scan when it was measured; CHANGES.md has
//! the run).
//!
//! Cancellation is a *result-level* contract, not an unwinding one:
//! kernels drain quickly and return garbage partials, and the execution
//! driver checks the token once at the end and discards the partial
//! result in favor of a typed error. Nothing observable — no catalog
//! version, no report, no statistics feedback — is ever published from a
//! cancelled query. (The operator it compiled may stay cached; it depends
//! only on query shape, plan and lineage, so that changes no answer.)

use std::sync::atomic::{AtomicI64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Rows a token-carrying scan processes between cancellation checks, and
/// the most rows one morsel-budget unit pays for. Equal to the
/// sealed-segment size, so the cap never splits a natural segment run —
/// the poll rides the per-run loop boundary and the guarded scan shape is
/// identical to the unguarded one. A kernel covers this many rows in tens
/// of microseconds, which bounds how stale a deadline or cancellation can
/// go unobserved.
pub const CANCEL_CHECK_ROWS: usize = 65_536;

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const EXPIRED: u8 = 2;
const EXHAUSTED: u8 = 3;

/// Sentinel for "no morsel budget set" — effectively unbounded.
const UNBOUNDED: i64 = i64::MAX;

/// Why a query stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The token's armed deadline passed.
    DeadlineExpired,
    /// The token's morsel budget ran out.
    BudgetExhausted,
}

#[derive(Debug)]
struct Inner {
    state: AtomicU8,
    /// Armed at most once; checked lazily by [`CancelToken::should_stop`].
    deadline: OnceLock<Instant>,
    /// Remaining morsel budget in scan-window units (each at most
    /// [`CANCEL_CHECK_ROWS`] rows of one segment). `UNBOUNDED` means no
    /// budget is set.
    budget: AtomicI64,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            state: AtomicU8::new(LIVE),
            deadline: OnceLock::new(),
            budget: AtomicI64::new(UNBOUNDED),
        }
    }
}

/// A shared cancellation handle for one query (or one family of queries —
/// clones observe the same state).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A live token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that expires `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> CancelToken {
        let t = CancelToken::new();
        t.arm_deadline(timeout);
        t
    }

    /// Arms a deadline `timeout` from now. A token carries at most one
    /// deadline: the first armed wins, later calls return `false`.
    pub fn arm_deadline(&self, timeout: Duration) -> bool {
        self.inner.deadline.set(Instant::now() + timeout).is_ok()
    }

    /// Sets a morsel budget: the total number of scan-window units (each
    /// at most [`CANCEL_CHECK_ROWS`] rows of one segment, however many
    /// chunk runs of an unsealed tail it spans) the query may scan before
    /// it is stopped with [`CancelReason::BudgetExhausted`]. Like
    /// deadlines, the first budget set wins; later calls return `false`.
    pub fn set_budget(&self, units: u64) -> bool {
        let units = i64::try_from(units)
            .unwrap_or(UNBOUNDED - 1)
            .min(UNBOUNDED - 1);
        self.inner
            .budget
            .compare_exchange(UNBOUNDED, units, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Whether a morsel budget has been set on this token.
    pub fn has_budget(&self) -> bool {
        self.inner.budget.load(Ordering::Relaxed) != UNBOUNDED
    }

    /// Charges one scan-window unit against the budget. Returns `false`
    /// — and latches the token into the exhausted state — when the
    /// budget is spent; tokens without a budget always return `true`.
    /// Called by the scan layer immediately before yielding the first run
    /// of each window, so a budget of `n` permits exactly `n` windows.
    #[inline]
    pub fn charge_unit(&self) -> bool {
        if !self.has_budget() {
            return true;
        }
        if self.inner.budget.fetch_sub(1, Ordering::Relaxed) <= 0 {
            let _ = self.inner.state.compare_exchange(
                LIVE,
                EXHAUSTED,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            return false;
        }
        true
    }

    /// Requests cancellation. Idempotent; a token that already expired
    /// keeps reporting [`CancelReason::DeadlineExpired`].
    pub fn cancel(&self) {
        let _ = self.inner.state.compare_exchange(
            LIVE,
            CANCELLED,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Whether the token has been triggered (without consulting the
    /// clock — reports deadlines only after a [`should_stop`] check
    /// observed them).
    ///
    /// [`should_stop`]: CancelToken::should_stop
    pub fn is_triggered(&self) -> bool {
        self.inner.state.load(Ordering::Relaxed) != LIVE
    }

    /// The poll the execution layer runs: returns the stop reason if the
    /// token was cancelled or its deadline has passed. The expired state
    /// is latched, so after the first deadline observation every
    /// subsequent check is one atomic load.
    #[inline]
    pub fn should_stop(&self) -> Option<CancelReason> {
        match self.inner.state.load(Ordering::Relaxed) {
            CANCELLED => Some(CancelReason::Cancelled),
            EXPIRED => Some(CancelReason::DeadlineExpired),
            EXHAUSTED => Some(CancelReason::BudgetExhausted),
            _ => match self.inner.deadline.get() {
                Some(dl) if Instant::now() >= *dl => {
                    let _ = self.inner.state.compare_exchange(
                        LIVE,
                        EXPIRED,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                    // Re-read: a concurrent `cancel()` may have won the
                    // race; either reason is truthful, but stay
                    // consistent with the latched state.
                    self.should_stop()
                }
                _ => None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_latches_and_is_idempotent() {
        let t = CancelToken::new();
        assert!(t.should_stop().is_none());
        assert!(!t.is_triggered());
        t.cancel();
        t.cancel();
        assert_eq!(t.should_stop(), Some(CancelReason::Cancelled));
        assert!(t.is_triggered());
        // Clones share state.
        assert_eq!(t.clone().should_stop(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn deadline_expires_and_latches() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(t.should_stop(), Some(CancelReason::DeadlineExpired));
        // Latched: a later cancel cannot rewrite the reason.
        t.cancel();
        assert_eq!(t.should_stop(), Some(CancelReason::DeadlineExpired));
    }

    #[test]
    fn far_deadline_does_not_trigger() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(t.should_stop().is_none());
        // Only the first deadline arms.
        assert!(!t.arm_deadline(Duration::ZERO));
        assert!(t.should_stop().is_none());
    }

    #[test]
    fn cancel_beats_unexpired_deadline() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        t.cancel();
        assert_eq!(t.should_stop(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn budget_charges_then_latches_exhausted() {
        let t = CancelToken::new();
        // No budget: charging is free forever.
        assert!(!t.has_budget());
        assert!(t.charge_unit());
        assert!(t.set_budget(2));
        // First budget wins.
        assert!(!t.set_budget(100));
        assert!(t.charge_unit());
        assert!(t.charge_unit());
        assert!(t.should_stop().is_none());
        // Third unit exceeds the budget of 2.
        assert!(!t.charge_unit());
        assert_eq!(t.should_stop(), Some(CancelReason::BudgetExhausted));
        assert!(t.is_triggered());
        // Latched: a later cancel cannot rewrite the reason.
        t.cancel();
        assert_eq!(t.should_stop(), Some(CancelReason::BudgetExhausted));
        // Clones share the budget state.
        assert_eq!(t.clone().should_stop(), Some(CancelReason::BudgetExhausted));
    }

    #[test]
    fn zero_budget_stops_on_first_charge() {
        let t = CancelToken::new();
        assert!(t.set_budget(0));
        assert!(!t.charge_unit());
        assert_eq!(t.should_stop(), Some(CancelReason::BudgetExhausted));
    }
}
