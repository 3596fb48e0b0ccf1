//! Supervised execution: `catch_unwind` + bounded retry around one
//! unit of work (typically one grid cell or row).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

use crate::cells;

/// Callback invoked when a supervised unit exhausts its retry budget:
/// `(site, attempts, error)`. Installed by observability layers that
/// sit *above* this crate in the dependency graph (the flight
/// recorder), so degradation provenance is captured without resil
/// depending on any recorder.
pub type FailureObserver = Box<dyn Fn(&str, u32, &str) + Send + Sync>;

/// Fast gate so the disarmed failure path stays one relaxed load.
static OBSERVED: AtomicBool = AtomicBool::new(false);

fn observer() -> &'static Mutex<Option<FailureObserver>> {
    static OBSERVER: OnceLock<Mutex<Option<FailureObserver>>> = OnceLock::new();
    OBSERVER.get_or_init(|| Mutex::new(None))
}

/// Installs (or replaces) the process-wide failure observer. The
/// observer runs on the supervising thread, after the degradation
/// counters move and before [`CellOutcome::Failed`] is returned; it
/// must not panic.
pub fn set_failure_observer(f: FailureObserver) {
    *observer().lock().unwrap_or_else(PoisonError::into_inner) = Some(f);
    OBSERVED.store(true, Ordering::Relaxed);
}

/// Removes the failure observer installed by [`set_failure_observer`].
pub fn clear_failure_observer() {
    OBSERVED.store(false, Ordering::Relaxed);
    *observer().lock().unwrap_or_else(PoisonError::into_inner) = None;
}

fn notify_failure(site: &str, attempts: u32, error: &str) {
    if !OBSERVED.load(Ordering::Relaxed) {
        return;
    }
    if let Some(f) = observer()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
    {
        f(site, attempts, error);
    }
}

/// Retry policy for [`supervised`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try + retries); at least 1.
    pub max_attempts: u32,
    /// Backoff before retry `n` (1-based) is `backoff * 2^(n-1)`,
    /// capped at 1 s. Zero disables sleeping.
    pub backoff: Duration,
    /// Deterministic jitter seed. `None` (the default) keeps the exact
    /// exponential schedule; `Some(seed)` scales each sleep by a factor
    /// in `[0.5, 1.5)` drawn from `splitmix64` over
    /// `(seed, site, attempt)` — the same derivation [`FaultPlan`]
    /// uses — so concurrently retrying sites desynchronize without any
    /// wall-clock or RNG-state nondeterminism: the same
    /// `(seed, site, attempt)` always sleeps the same duration.
    ///
    /// [`FaultPlan`]: crate::FaultPlan
    pub jitter: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            backoff: Duration::from_millis(5),
            jitter: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt).
    pub fn no_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The sleep [`supervised`] takes before retrying `site` after its
    /// `attempt`-th (1-based) failed attempt: `backoff * 2^(attempt-1)`
    /// capped at 1 s, scaled by the deterministic jitter factor when a
    /// jitter seed is set. Pure — exposed so callers (and the purity
    /// test) can predict the exact schedule.
    pub fn backoff_for(&self, site: &str, attempt: u32) -> Duration {
        if self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << attempt.saturating_sub(1).min(10);
        let base = self
            .backoff
            .saturating_mul(factor)
            .min(Duration::from_secs(1));
        let Some(seed) = self.jitter else {
            return base;
        };
        let mixed = crate::fault::splitmix64(
            seed ^ crate::fnv::fnv1a(site.as_bytes())
                ^ crate::fault::splitmix64(u64::from(attempt)),
        );
        // 53 uniform mantissa bits → u in [0, 1); scale into [0.5, 1.5).
        let u = (mixed >> 11) as f64 / (1u64 << 53) as f64;
        base.mul_f64(0.5 + u).min(Duration::from_secs(1))
    }
}

/// The outcome of one supervised unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome<R> {
    /// The unit completed (possibly after retries).
    Ok {
        /// The unit's result.
        value: R,
        /// How many failed attempts preceded success.
        retries: u32,
    },
    /// Every attempt panicked; the unit is degraded, not fatal.
    Failed {
        /// The supervision site (names the failing unit in reports).
        site: String,
        /// Attempts made (= the policy's `max_attempts`).
        attempts: u32,
        /// The final attempt's panic message.
        error: String,
    },
}

impl<R> CellOutcome<R> {
    /// The successful value, if any.
    pub fn ok(self) -> Option<R> {
        match self {
            CellOutcome::Ok { value, .. } => Some(value),
            CellOutcome::Failed { .. } => None,
        }
    }

    /// Whether the unit degraded to [`CellOutcome::Failed`].
    pub fn is_failed(&self) -> bool {
        matches!(self, CellOutcome::Failed { .. })
    }

    /// Retries consumed (0 for a first-attempt success or a failure's
    /// `attempts - 1`).
    pub fn retries(&self) -> u32 {
        match self {
            CellOutcome::Ok { retries, .. } => *retries,
            CellOutcome::Failed { attempts, .. } => attempts.saturating_sub(1),
        }
    }
}

/// Renders a panic payload as text.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `f` under `catch_unwind`, retrying panicking attempts with
/// exponential backoff up to `policy.max_attempts`. The result is
/// always a [`CellOutcome`] — a poisoned unit degrades instead of
/// unwinding into the caller.
///
/// Process-wide counters (`supervised_cells`, `retries`,
/// `degraded_cells`) record what happened; see [`crate::stats`].
///
/// `f` must be re-callable (`Fn`) and is expected to be deterministic:
/// under the workspace's detector-conformance contract a retried cell
/// recomputes to the identical value, which is what keeps chaos runs
/// byte-identical to fault-free runs.
pub fn supervised<R>(site: &str, policy: &RetryPolicy, f: impl Fn() -> R) -> CellOutcome<R> {
    let c = cells();
    c.supervised_cells.fetch_add(1, Ordering::Relaxed);
    let max_attempts = policy.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match catch_unwind(AssertUnwindSafe(&f)) {
            Ok(value) => {
                return CellOutcome::Ok {
                    value,
                    retries: attempt - 1,
                }
            }
            Err(payload) => {
                if attempt >= max_attempts {
                    c.degraded_cells.fetch_add(1, Ordering::Relaxed);
                    let error = panic_message(payload.as_ref());
                    notify_failure(site, attempt, &error);
                    return CellOutcome::Failed {
                        site: site.to_owned(),
                        attempts: attempt,
                        error,
                    };
                }
                c.retries.fetch_add(1, Ordering::Relaxed);
                let sleep = policy.backoff_for(site, attempt);
                if !sleep.is_zero() {
                    std::thread::sleep(sleep);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Serializes the tests that call `supervised`: it moves the
    /// process-wide counters they assert deltas of, and the failure
    /// observer and the panic hook are process-wide too.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Silences the default panic hook's backtrace spam for panics this
    /// test intentionally catches, restoring the hook afterwards.
    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = f();
        std::panic::set_hook(hook);
        result
    }

    #[test]
    fn first_attempt_success_consumes_no_retries() {
        let _guard = lock();
        let before = crate::stats();
        let outcome = supervised("unit/ok", &RetryPolicy::default(), || 7);
        assert_eq!(
            outcome,
            CellOutcome::Ok {
                value: 7,
                retries: 0
            }
        );
        let after = crate::stats();
        assert_eq!(after.supervised_cells, before.supervised_cells + 1);
        assert_eq!(after.retries, before.retries);
    }

    #[test]
    fn transient_panics_are_retried_to_success() {
        let _guard = lock();
        quiet_panics(|| {
            let tries = AtomicU32::new(0);
            let policy = RetryPolicy {
                max_attempts: 5,
                backoff: Duration::ZERO,
                ..RetryPolicy::default()
            };
            let before = crate::stats();
            let outcome = supervised("unit/transient", &policy, || {
                if tries.fetch_add(1, Ordering::SeqCst) < 3 {
                    panic!("flaky");
                }
                "done"
            });
            assert_eq!(
                outcome,
                CellOutcome::Ok {
                    value: "done",
                    retries: 3
                }
            );
            let after = crate::stats();
            assert_eq!(after.retries, before.retries + 3);
            assert_eq!(after.degraded_cells, before.degraded_cells);
        });
    }

    #[test]
    fn exhausted_attempts_degrade_with_site_and_message() {
        let _guard = lock();
        quiet_panics(|| {
            let policy = RetryPolicy {
                max_attempts: 3,
                backoff: Duration::ZERO,
                ..RetryPolicy::default()
            };
            let before = crate::stats();
            let outcome: CellOutcome<()> =
                supervised("unit/poisoned", &policy, || panic!("always broken"));
            match &outcome {
                CellOutcome::Failed {
                    site,
                    attempts,
                    error,
                } => {
                    assert_eq!(site, "unit/poisoned");
                    assert_eq!(*attempts, 3);
                    assert_eq!(error, "always broken");
                }
                other => panic!("expected Failed, got {other:?}"),
            }
            assert!(outcome.is_failed());
            assert_eq!(outcome.retries(), 2);
            let after = crate::stats();
            assert_eq!(after.degraded_cells, before.degraded_cells + 1);
            assert_eq!(after.retries, before.retries + 2);
        });
    }

    #[test]
    fn failure_observer_sees_exhausted_units() {
        let _guard = lock();
        quiet_panics(|| {
            use std::sync::Arc;
            let seen: Arc<Mutex<Vec<(String, u32, String)>>> = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&seen);
            set_failure_observer(Box::new(move |site, attempts, error| {
                sink.lock()
                    .unwrap()
                    .push((site.to_owned(), attempts, error.to_owned()));
            }));
            let policy = RetryPolicy {
                max_attempts: 2,
                backoff: Duration::ZERO,
                ..RetryPolicy::default()
            };
            let _: CellOutcome<()> = supervised("unit/observed", &policy, || panic!("dead"));
            // A successful unit must not notify.
            let _ = supervised("unit/fine", &policy, || 1);
            clear_failure_observer();
            let seen = seen.lock().unwrap();
            assert_eq!(
                seen.as_slice(),
                &[("unit/observed".to_owned(), 2, "dead".to_owned())]
            );
        });
    }

    #[test]
    fn backoff_without_jitter_is_the_exact_exponential_schedule() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.backoff_for("any/site", 1), Duration::from_millis(5));
        assert_eq!(policy.backoff_for("any/site", 2), Duration::from_millis(10));
        assert_eq!(policy.backoff_for("any/site", 3), Duration::from_millis(20));
        // Capped at 1 s regardless of attempt.
        assert_eq!(policy.backoff_for("any/site", 30), Duration::from_secs(1));
        // Zero backoff stays zero.
        let quiet = RetryPolicy {
            backoff: Duration::ZERO,
            jitter: Some(42),
            ..RetryPolicy::default()
        };
        assert_eq!(quiet.backoff_for("any/site", 5), Duration::ZERO);
    }

    #[test]
    fn jittered_backoff_is_pure_bounded_and_site_dependent() {
        let policy = RetryPolicy {
            jitter: Some(0xdead_beef),
            ..RetryPolicy::default()
        };
        for attempt in 1..=12u32 {
            for site in ["grid/cell", "serve/drain", "eval/row"] {
                let a = policy.backoff_for(site, attempt);
                let b = policy.backoff_for(site, attempt);
                assert_eq!(a, b, "same (seed, site, attempt) → same sleep");
                let base = RetryPolicy::default().backoff_for(site, attempt);
                assert!(
                    a >= base.mul_f64(0.5) && a <= Duration::from_secs(1),
                    "jitter stays within [0.5x base, 1 s]: {a:?} vs base {base:?}"
                );
            }
        }
        // Distinct sites (and seeds) desynchronize: at least one of the
        // first attempts must differ.
        let other = RetryPolicy {
            jitter: Some(1),
            ..RetryPolicy::default()
        };
        assert!(
            (1..=4u32).any(|n| {
                policy.backoff_for("grid/cell", n) != policy.backoff_for("eval/row", n)
                    || policy.backoff_for("grid/cell", n) != other.backoff_for("grid/cell", n)
            }),
            "jitter must actually perturb the schedule"
        );
    }

    #[test]
    fn zero_max_attempts_still_runs_once() {
        let _guard = lock();
        let policy = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(supervised("unit/zero", &policy, || 9).ok(), Some(9));
    }
}
