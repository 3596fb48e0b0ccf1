//! `detdiv-par`: a thread pool with a **deterministic** parallel-map
//! API, free of third-party dependencies.
//!
//! The only dependencies are in-workspace std-only crates: workers name
//! their trace threads and time their busy intervals through
//! `detdiv-obs`, flush flight records through `detdiv-flight`, and the
//! supervised map wraps each job in `detdiv-resil`'s retry policy.
//! The observability hooks are fire-and-forget — scheduling, result
//! slots, and error selection depend on nothing but the standard
//! library.
//!
//! Every cell of the paper's (AS × DW) detection-coverage grid — train
//! one detector at one window, score it against one anomaly size — is
//! embarrassingly parallel. This crate is the substrate the evaluation
//! pipeline fans that work out on, under one hard guarantee: **output
//! bytes never depend on the worker count or on scheduling**.
//!
//! * **Scoped workers** — each map call spawns its workers with
//!   [`std::thread::scope`], so jobs may borrow the corpus and config
//!   from the caller's stack; workers are joined before the call
//!   returns.
//! * **One shared cursor** — every worker claims the next job index
//!   from one atomic cursor, one job at a time. The workspace's maps
//!   are at most ~130 jobs of milliseconds to seconds each, so a single
//!   claim per job costs nothing and an idle worker always takes the
//!   next job.
//! * **Pre-indexed result slots** — the output vector's `i`-th element
//!   is `f(&items[i])` whatever the interleaving; fallible maps return
//!   the error of the smallest failing index.
//! * **Panic propagation** — a panicking job is re-raised on the caller
//!   after all workers are joined; the pool is not poisoned.
//! * **`DETDIV_THREADS` override** — resolution order is programmatic
//!   [`Pool::set_threads`], then the `DETDIV_THREADS` environment
//!   variable, then available parallelism; `threads = 1` short-circuits
//!   to an inline loop on the calling thread (no threads spawned).
//! * **Nested maps run inline** — a parallel map issued from inside a
//!   pool job executes serially on that worker, so fan-outs compose
//!   without spawning a second tier of threads.
//!
//! # Example
//!
//! ```
//! // The global pool honours DETDIV_THREADS; a local pool pins it.
//! let doubled = detdiv_par::global().map(&[1u64, 2, 3], |&x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6]);
//!
//! let pool = detdiv_par::Pool::with_threads(2);
//! let parity: Result<Vec<bool>, String> =
//!     pool.try_map(&[2u64, 4, 6], |&x| Ok(x % 2 == 0));
//! assert_eq!(parity.unwrap(), vec![true, true, true]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

mod pool;
mod stats;

pub use pool::Pool;
pub use stats::{PoolStats, WorkerStats};

use std::sync::OnceLock;

/// The process-global pool the evaluation pipeline and the serve
/// drains fan out on.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(Pool::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::inside_pool;
    use detdiv_resil::{CellOutcome, RetryPolicy};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    #[test]
    fn map_preserves_input_order_at_every_width() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 8] {
            let pool = Pool::with_threads(threads);
            assert_eq!(
                pool.map(&items, |&x| x * 3 + 1),
                expected,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::with_threads(4);
        assert_eq!(pool.map(&[] as &[u8], |&b| b), Vec::<u8>::new());
        assert_eq!(pool.map(&[9u8], |&b| b + 1), vec![10]);
    }

    #[test]
    fn single_thread_runs_inline_on_the_caller() {
        let pool = Pool::with_threads(1);
        let caller = std::thread::current().id();
        let ids: Vec<ThreadId> = pool.map(&[0u8; 16], |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn multi_thread_uses_worker_threads() {
        let pool = Pool::with_threads(4);
        let caller = std::thread::current().id();
        // Slow jobs so several workers get a claim in.
        let ids: Vec<ThreadId> = pool.map(&[0u8; 64], |_| {
            std::thread::sleep(Duration::from_micros(200));
            std::thread::current().id()
        });
        assert!(
            ids.iter().all(|&id| id != caller),
            "jobs must run on workers"
        );
    }

    #[test]
    fn pool_lifecycle_accumulates_stats_across_maps() {
        let pool = Pool::with_threads(3);
        assert_eq!(pool.stats(), PoolStats::default());
        pool.map(&[1u8; 10], |&b| b);
        pool.map(&[1u8; 20], |&b| b);
        let stats = pool.stats();
        assert_eq!(stats.maps_run, 2);
        assert_eq!(stats.total_jobs(), 30);
        assert_eq!(stats.workers.len(), 3);
        pool.reset_stats();
        let zeroed = pool.stats();
        assert_eq!(zeroed.maps_run, 0);
        assert_eq!(zeroed.total_jobs(), 0);
        assert_eq!(zeroed.workers.len(), 3, "slots survive a reset");
    }

    #[test]
    fn idle_workers_keep_claiming_while_one_job_blocks() {
        // Job 0 holds its worker until every other job has run, so the
        // other worker must claim all 39 of them: any fixed share per
        // worker would leave some stranded behind job 0 and time out.
        let pool = Pool::with_threads(2);
        let items: Vec<u64> = (0..40).collect();
        let done = AtomicU64::new(0);
        let others = items.len() as u64 - 1;
        let seen = pool.map(&items, |&i| {
            if i != 0 {
                done.fetch_add(1, Ordering::SeqCst);
                return 0;
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while done.load(Ordering::SeqCst) < others && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(100));
            }
            done.load(Ordering::SeqCst)
        });
        assert_eq!(seen[0], others, "jobs stranded behind job 0");
    }

    #[test]
    fn idle_parks_register_when_jobs_are_scarcer_than_workers() {
        let pool = Pool::with_threads(4);
        // 2 jobs, 4 workers: at least two workers find every job
        // claimed and park without executing anything.
        pool.map(&[1u8, 2], |&b| {
            std::thread::sleep(Duration::from_millis(2));
            b
        });
        let stats = pool.stats();
        assert_eq!(stats.total_jobs(), 2);
        assert!(
            stats.total_idle_parks() >= 2,
            "expected idle parks: {stats:?}"
        );
    }

    #[test]
    fn busy_nanos_accumulate_when_telemetry_is_enabled() {
        if !detdiv_obs::telemetry_enabled() {
            // Under DETDIV_LOG=off the busy clock is intentionally
            // never read; the determinism gate covers that path.
            return;
        }
        let pool = Pool::with_threads(2);
        pool.map(&[0u8; 8], |_| {
            std::thread::sleep(Duration::from_micros(300))
        });
        let stats = pool.stats();
        assert!(
            stats.total_busy_nanos() > 0,
            "busy time must register: {stats:?}"
        );
        // Inline runs attribute busy time to slot 0 too.
        let inline = Pool::with_threads(1);
        inline.map(&[0u8; 4], |_| {
            std::thread::sleep(Duration::from_micros(300))
        });
        assert!(inline.stats().total_busy_nanos() > 0);
    }

    #[test]
    fn try_map_returns_smallest_failing_index_error() {
        let items: Vec<usize> = (0..500).collect();
        for threads in [1, 2, 4, 8] {
            let pool = Pool::with_threads(threads);
            let result: Result<Vec<usize>, String> = pool.try_map(&items, |&i| {
                if i % 7 == 3 {
                    Err(format!("boom at {i}"))
                } else {
                    Ok(i)
                }
            });
            assert_eq!(result.unwrap_err(), "boom at 3", "threads={threads}");
        }
    }

    #[test]
    fn try_map_success_matches_serial() {
        let items: Vec<i64> = (-50..50).collect();
        let serial: Vec<i64> = items.iter().map(|x| x.wrapping_mul(11) - 5).collect();
        let pool = Pool::with_threads(4);
        let parallel = pool
            .try_map(&items, |&x| Ok::<i64, ()>(x.wrapping_mul(11) - 5))
            .unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn panicking_job_propagates_and_does_not_poison_the_pool() {
        let pool = Pool::with_threads(4);
        let items: Vec<u32> = (0..200).collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(&items, |&i| {
                if i == 137 {
                    panic!("job 137 exploded");
                }
                i
            })
        }));
        let payload = outcome.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default();
        assert!(message.contains("job 137 exploded"), "payload: {message}");
        // The pool remains fully usable.
        assert_eq!(pool.map(&[5u32, 6], |&x| x + 1), vec![6, 7]);
    }

    #[test]
    fn panicking_job_propagates_from_inline_runs_too() {
        let pool = Pool::with_threads(1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(&[0u8], |_| panic!("inline explosion"))
        }));
        assert!(outcome.is_err());
        assert_eq!(pool.map(&[1u8], |&x| x), vec![1]);
    }

    #[test]
    fn nested_maps_run_inline_without_spawning_a_second_tier() {
        let outer = Pool::with_threads(4);
        let inner = Pool::with_threads(4);
        let items: Vec<u64> = (0..16).collect();
        let nested_inline = AtomicU64::new(0);
        let results = outer.map(&items, |&i| {
            assert!(inside_pool());
            let worker = std::thread::current().id();
            let inner_ids: Vec<ThreadId> = inner.map(&[0u8; 4], |_| std::thread::current().id());
            if inner_ids.iter().all(|&id| id == worker) {
                nested_inline.fetch_add(1, Ordering::Relaxed);
            }
            i * 2
        });
        assert_eq!(results, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(
            nested_inline.load(Ordering::Relaxed),
            16,
            "every nested map must stay on its worker"
        );
        assert!(!inside_pool());
    }

    #[test]
    fn resolve_threads_precedence_and_fallbacks() {
        use crate::pool::resolve_threads;
        // Override wins over everything.
        assert_eq!(resolve_threads(3, Some("8"), 16), 3);
        // Environment wins over available parallelism.
        assert_eq!(resolve_threads(0, Some("8"), 16), 8);
        assert_eq!(resolve_threads(0, Some(" 2 "), 16), 2);
        // Invalid or zero environment values fall through.
        assert_eq!(resolve_threads(0, Some("0"), 16), 16);
        assert_eq!(resolve_threads(0, Some("lots"), 16), 16);
        assert_eq!(resolve_threads(0, None, 16), 16);
        // Degenerate availability clamps to one.
        assert_eq!(resolve_threads(0, None, 0), 1);
    }

    #[test]
    fn set_threads_takes_effect_and_releases() {
        let pool = Pool::new();
        pool.set_threads(Some(2));
        assert_eq!(pool.threads(), 2);
        pool.set_threads(Some(7));
        assert_eq!(pool.threads(), 7);
        pool.set_threads(None);
        assert!(pool.threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_thread_pool_is_rejected() {
        let _ = Pool::with_threads(0);
    }

    #[test]
    fn global_pool_is_one_shared_instance() {
        let before = global().stats().maps_run;
        assert_eq!(global().map(&[1u8, 2, 3], |&b| b as u16 + 1), vec![2, 3, 4]);
        let summed: Result<Vec<u8>, ()> = global().try_map(&[1u8, 2], |&b| Ok(b));
        assert_eq!(summed.unwrap(), vec![1, 2]);
        assert!(global().stats().maps_run >= before + 2);
        assert!(global().threads() >= 1);
    }

    #[test]
    fn supervised_map_degrades_poisoned_cells_without_killing_the_sweep() {
        let items: Vec<u32> = (0..60).collect();
        let policy = RetryPolicy {
            max_attempts: 2,
            backoff: Duration::ZERO,
        };
        for threads in [1, 2, 4] {
            let pool = Pool::with_threads(threads);
            let outcomes = pool
                .try_map_supervised(
                    &items,
                    &policy,
                    |i| format!("cell/{i}"),
                    |&i| {
                        if i == 17 || i == 41 {
                            panic!("cell {i} poisoned");
                        }
                        Ok::<_, ()>(i * 10)
                    },
                )
                .unwrap();
            assert_eq!(outcomes.len(), items.len(), "threads={threads}");
            for (i, outcome) in outcomes.iter().enumerate() {
                if i == 17 || i == 41 {
                    match outcome {
                        CellOutcome::Failed {
                            site,
                            attempts,
                            error,
                        } => {
                            assert_eq!(site, &format!("cell/{i}"));
                            assert_eq!(*attempts, 2);
                            assert!(error.contains("poisoned"), "error: {error}");
                        }
                        other => panic!("slot {i} must degrade, got {other:?}"),
                    }
                } else {
                    assert_eq!(
                        outcome,
                        &CellOutcome::Ok {
                            value: i as u32 * 10,
                            retries: 0
                        },
                        "threads={threads} slot {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn supervised_map_retries_transient_panics_to_success() {
        let attempts: Vec<AtomicU64> = (0..20).map(|_| AtomicU64::new(0)).collect();
        let items: Vec<usize> = (0..20).collect();
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff: Duration::ZERO,
        };
        let pool = Pool::with_threads(4);
        let outcomes = pool
            .try_map_supervised(
                &items,
                &policy,
                |i| format!("cell/{i}"),
                |&i| {
                    // Every third cell fails twice before succeeding.
                    if i % 3 == 0 && attempts[i].fetch_add(1, Ordering::SeqCst) < 2 {
                        panic!("transient");
                    }
                    Ok::<_, ()>(i + 100)
                },
            )
            .unwrap();
        for (i, outcome) in outcomes.iter().enumerate() {
            let expected_retries = if i % 3 == 0 { 2 } else { 0 };
            assert_eq!(
                outcome,
                &CellOutcome::Ok {
                    value: i + 100,
                    retries: expected_retries
                },
                "slot {i}"
            );
        }
    }

    #[test]
    fn supervised_try_map_propagates_deliberate_errors_by_smallest_index() {
        let items: Vec<usize> = (0..50).collect();
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
        };
        for threads in [1, 4] {
            let pool = Pool::with_threads(threads);
            let result: Result<Vec<CellOutcome<usize>>, String> = pool.try_map_supervised(
                &items,
                &policy,
                |i| format!("cell/{i}"),
                |&i| {
                    if i == 30 || i == 12 {
                        return Err(format!("config error at {i}"));
                    }
                    if i == 5 {
                        panic!("fault at 5");
                    }
                    Ok(i)
                },
            );
            // The panic at 5 degrades per-slot; the *returned* errors
            // abort the map with the smallest failing index.
            assert_eq!(
                result.unwrap_err(),
                "config error at 12",
                "threads={threads}"
            );
        }
    }

    #[test]
    fn results_are_identical_across_widths_even_with_shared_state() {
        // A map whose jobs contend on shared state must still produce
        // slot-deterministic output.
        let log = Mutex::new(Vec::new());
        let items: Vec<usize> = (0..100).collect();
        let reference: Vec<usize> = items.iter().map(|i| i * i).collect();
        for threads in [1, 2, 4] {
            let pool = Pool::with_threads(threads);
            let out = pool.map(&items, |&i| {
                log.lock().unwrap().push(i);
                i * i
            });
            assert_eq!(out, reference, "threads={threads}");
        }
        assert_eq!(log.lock().unwrap().len(), 300);
    }
}
