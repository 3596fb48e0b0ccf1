//! The shared-cursor pool and its deterministic parallel-map API.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use detdiv_resil::{CellOutcome, RetryPolicy};

use crate::stats::{PoolStats, WorkerSlot};

thread_local! {
    /// Whether the current thread is already executing pool jobs. Set
    /// while a worker (or an inline run) is active so nested parallel
    /// maps short-circuit to serial execution instead of spawning a
    /// second tier of threads.
    static INSIDE_POOL: Cell<bool> = const { Cell::new(false) };
}

/// RAII marker for "this thread is executing pool jobs".
struct NestGuard {
    previous: bool,
}

impl NestGuard {
    fn enter() -> NestGuard {
        let previous = INSIDE_POOL.with(|flag| flag.replace(true));
        NestGuard { previous }
    }
}

impl Drop for NestGuard {
    fn drop(&mut self) {
        let previous = self.previous;
        INSIDE_POOL.with(|flag| flag.set(previous));
    }
}

/// Whether the calling thread is inside a pool worker or inline run
/// (nested parallel maps run serially on the calling thread).
pub(crate) fn inside_pool() -> bool {
    INSIDE_POOL.with(Cell::get)
}

/// Resolves the worker count from, in precedence order: a programmatic
/// override (`0` = none), the `DETDIV_THREADS` environment value, and
/// the machine's available parallelism. Unparsable or zero environment
/// values are ignored.
pub(crate) fn resolve_threads(
    override_threads: usize,
    env: Option<&str>,
    available: usize,
) -> usize {
    if override_threads > 0 {
        return override_threads;
    }
    if let Some(requested) = env.and_then(|v| v.trim().parse::<usize>().ok()) {
        if requested > 0 {
            return requested;
        }
    }
    available.max(1)
}

/// A thread pool with a deterministic parallel-map API.
///
/// Workers are *scoped*: each [`Pool::map`] / [`Pool::try_map`] call
/// spawns its workers for exactly that call (so jobs may borrow from
/// the caller's stack) and joins them before returning. The pool value
/// itself carries configuration (worker count) and accumulated
/// per-worker counters, which persist across calls.
///
/// # Determinism
///
/// Results are written into pre-indexed slots: the output vector's
/// `i`-th element is `f(&items[i])` regardless of worker count, claim
/// order, or interleaving. [`Pool::try_map`] returns the error of
/// the *smallest failing index*, also independent of scheduling.
///
/// # Panics
///
/// A panicking job does not poison the pool: remaining jobs complete,
/// the workers are joined, and the first panic payload (by worker id)
/// is then resumed on the calling thread.
///
/// # Examples
///
/// ```
/// let pool = detdiv_par::Pool::with_threads(4);
/// let squares = pool.map(&[1i64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// assert_eq!(pool.stats().total_jobs(), 4);
/// ```
#[derive(Debug)]
pub struct Pool {
    /// Programmatic worker-count override; `0` means "auto" (the
    /// `DETDIV_THREADS` environment variable, then available
    /// parallelism).
    override_threads: AtomicUsize,
    /// Per-worker counter slots, grown to the widest map run so far.
    workers: Mutex<Vec<Arc<WorkerSlot>>>,
    maps_run: AtomicU64,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

impl Pool {
    /// A pool with automatic worker-count resolution (`DETDIV_THREADS`,
    /// then available parallelism).
    pub fn new() -> Pool {
        Pool::with_override(0)
    }

    /// A pool pinned to exactly `threads` workers (ignores the
    /// environment). `threads = 1` always runs inline on the caller.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Pool {
        assert!(threads > 0, "a pool needs at least one worker");
        Pool::with_override(threads)
    }

    fn with_override(override_threads: usize) -> Pool {
        Pool {
            override_threads: AtomicUsize::new(override_threads),
            workers: Mutex::new(Vec::new()),
            maps_run: AtomicU64::new(0),
        }
    }

    /// Pins (`Some(n)`) or releases (`None`) the worker-count override.
    /// Takes effect from the next map call; `DETDIV_THREADS` and
    /// available parallelism apply when released.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is `Some(0)`.
    pub fn set_threads(&self, threads: Option<usize>) {
        if threads == Some(0) {
            panic!("a pool needs at least one worker");
        }
        self.override_threads
            .store(threads.unwrap_or(0), Ordering::Relaxed);
    }

    /// The worker count the next map call would use.
    pub fn threads(&self) -> usize {
        let pinned = self.override_threads.load(Ordering::Relaxed);
        if pinned > 0 {
            // A pinned width skips the environment and the machine
            // probe: `available_parallelism` reads cgroup files.
            return pinned;
        }
        resolve_threads(
            0,
            std::env::var("DETDIV_THREADS").ok().as_deref(),
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Applies `f` to every item, in parallel, preserving input order
    /// in the returned vector (see the type-level determinism notes).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        match self.try_map(items, |item| Ok::<R, std::convert::Infallible>(f(item))) {
            Ok(results) => results,
            Err(never) => match never {},
        }
    }

    /// Fallible [`Pool::map`]: returns `f`'s results in input order, or
    /// the error of the smallest failing index.
    ///
    /// Once some job fails, jobs at *larger* indices than the smallest
    /// known failure are skipped (their results would be discarded);
    /// every index below the returned failure is still fully evaluated,
    /// so the returned error is schedule-independent.
    pub fn try_map<T, R, E>(
        &self,
        items: &[T],
        f: impl Fn(&T) -> Result<R, E> + Sync,
    ) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
    {
        self.maps_run.fetch_add(1, Ordering::Relaxed);
        let jobs = items.len();
        // Spawn exactly the configured worker count: when jobs are
        // scarcer than workers the surplus workers park immediately,
        // which the `idle_parks` counter makes visible.
        let workers = self.threads();
        let slots = self.worker_slots(workers);
        if workers <= 1 || jobs <= 1 || inside_pool() {
            return run_inline(items, &f, &slots[0]);
        }

        // Every worker claims the next unclaimed index from one shared
        // cursor, one job at a time.
        let cursor = AtomicUsize::new(0);
        // Smallest failing index seen so far (`usize::MAX` = none).
        let first_err = AtomicUsize::new(usize::MAX);

        let per_worker: Vec<Vec<(usize, Result<R, E>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|id| {
                    let cursor = &cursor;
                    let first_err = &first_err;
                    let f = &f;
                    let slot: &WorkerSlot = &slots[id];
                    scope.spawn(move || {
                        let _nest = NestGuard::enter();
                        // Observability wiring: pure side channels that
                        // never influence claim order, result slots, or
                        // error selection.
                        let traced = detdiv_obs::trace::armed();
                        if traced {
                            detdiv_obs::trace::set_thread_name(&format!("par-worker-{id}"));
                        }
                        // Busy-interval timing is gated on telemetry
                        // (not tracing) so `DETDIV_LOG=off` keeps the
                        // hot path clock-free and `busy_nanos` at zero.
                        let started = detdiv_obs::telemetry_enabled().then(Instant::now);
                        let mut out: Vec<(usize, Result<R, E>)> = Vec::new();
                        loop {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            // The cursor only grows and `first_err` only
                            // shrinks, so once a claim lands above a
                            // known failure every later claim does too.
                            if index >= jobs || index > first_err.load(Ordering::Relaxed) {
                                break;
                            }
                            let result = f(&items[index]);
                            if result.is_err() {
                                first_err.fetch_min(index, Ordering::Relaxed);
                            }
                            out.push((index, result));
                        }
                        if out.is_empty() {
                            slot.idle_parks.fetch_add(1, Ordering::Relaxed);
                        } else {
                            slot.jobs_executed
                                .fetch_add(out.len() as u64, Ordering::Relaxed);
                            if let Some(started) = started {
                                slot.busy_nanos
                                    .fetch_add(elapsed_nanos(started), Ordering::Relaxed);
                            }
                        }
                        if traced {
                            // Hand this worker's ring to the sink *in*
                            // the closure: the scope can observe
                            // completion before TLS destructors (the
                            // automatic flush) run, and the caller may
                            // drain immediately after the map returns.
                            detdiv_obs::trace::flush_thread();
                        }
                        if detdiv_flight::armed() {
                            // Same TLS-destructor race as the trace
                            // ring: flight records buffered by this
                            // worker must reach the sink before the
                            // scope returns and the caller exports.
                            detdiv_flight::flush_thread();
                        }
                        out
                    })
                })
                .collect();

            let mut gathered = Vec::with_capacity(workers);
            let mut panic_payload = None;
            for handle in handles {
                match handle.join() {
                    Ok(results) => gathered.push(results),
                    Err(payload) => {
                        // Keep the first payload by worker id so the
                        // propagated panic is schedule-independent when
                        // a single job panics.
                        if panic_payload.is_none() {
                            panic_payload = Some(payload);
                        }
                    }
                }
            }
            if let Some(payload) = panic_payload {
                std::panic::resume_unwind(payload);
            }
            gathered
        });

        // Deterministic merge: slot `i` holds `f(&items[i])`.
        let mut slots_out: Vec<Option<Result<R, E>>> = Vec::with_capacity(jobs);
        slots_out.resize_with(jobs, || None);
        for results in per_worker {
            for (index, result) in results {
                debug_assert!(slots_out[index].is_none(), "slot {index} filled twice");
                slots_out[index] = Some(result);
            }
        }
        let failing = first_err.load(Ordering::Relaxed);
        if failing != usize::MAX {
            match slots_out.into_iter().nth(failing) {
                Some(Some(Err(error))) => return Err(error),
                _ => unreachable!("smallest failing index {failing} must hold an error"),
            }
        }
        Ok(slots_out
            .into_iter()
            .map(|slot| match slot {
                Some(Ok(value)) => value,
                _ => unreachable!("error-free map must fill every slot"),
            })
            .collect())
    }

    /// Supervised [`Pool::try_map`]: each job runs under
    /// [`detdiv_resil::supervised`] — `catch_unwind` plus the bounded
    /// retry/backoff `policy` — so a panicking job degrades to a
    /// [`CellOutcome::Failed`] in its slot instead of propagating and
    /// discarding the rest of the map. A job that *returns* an error
    /// keeps [`Pool::try_map`]'s semantics — the error of the smallest
    /// failing index aborts the map. Deliberate `Err`s are configuration
    /// problems the caller must see; panics are faults the sweep
    /// survives. An `Err` attempt is never retried.
    ///
    /// `site_of(item)` names the unit for failure reports and
    /// fault-injection replay; it is called once per job, outside the
    /// retried closure.
    ///
    /// Determinism carries over from [`Pool::try_map`]: slot `i` holds
    /// the supervised outcome of `f(&items[i])` at any worker count, and
    /// — given the workspace's contract that `f` is deterministic — a
    /// retried job recomputes the identical value.
    pub fn try_map_supervised<T, R, E>(
        &self,
        items: &[T],
        policy: &RetryPolicy,
        site_of: impl Fn(&T) -> String + Sync,
        f: impl Fn(&T) -> Result<R, E> + Sync,
    ) -> Result<Vec<CellOutcome<R>>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
    {
        self.try_map(items, |item| {
            let site = site_of(item);
            match detdiv_resil::supervised(&site, policy, || f(item)) {
                CellOutcome::Ok {
                    value: Ok(value),
                    retries,
                } => Ok(CellOutcome::Ok { value, retries }),
                CellOutcome::Ok {
                    value: Err(error), ..
                } => Err(error),
                CellOutcome::Failed {
                    site,
                    attempts,
                    error,
                } => Ok(CellOutcome::Failed {
                    site,
                    attempts,
                    error,
                }),
            }
        })
    }

    /// Freezes the pool's accumulated per-worker counters.
    pub fn stats(&self) -> PoolStats {
        let workers = self
            .workers
            .lock()
            .expect("pool stats poisoned")
            .iter()
            .map(|slot| slot.snapshot())
            .collect();
        PoolStats {
            workers,
            maps_run: self.maps_run.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter (worker slots are kept).
    pub fn reset_stats(&self) {
        for slot in self.workers.lock().expect("pool stats poisoned").iter() {
            slot.reset();
        }
        self.maps_run.store(0, Ordering::Relaxed);
    }

    /// Returns the first `count` worker slots, growing the table if a
    /// wider map is starting.
    fn worker_slots(&self, count: usize) -> Vec<Arc<WorkerSlot>> {
        let mut table = self.workers.lock().expect("pool stats poisoned");
        while table.len() < count {
            table.push(Arc::new(WorkerSlot::default()));
        }
        table[..count].to_vec()
    }
}

/// The `threads <= 1` / nested short-circuit: runs every job inline on
/// the calling thread, in index order, stopping at the first error.
/// Counters are attributed to worker slot 0.
fn run_inline<T, R, E>(
    items: &[T],
    f: &(impl Fn(&T) -> Result<R, E> + Sync),
    slot: &WorkerSlot,
) -> Result<Vec<R>, E> {
    let _nest = NestGuard::enter();
    let started = detdiv_obs::telemetry_enabled().then(Instant::now);
    let mut out = Vec::with_capacity(items.len());
    let mut executed = 0u64;
    let result = (|| {
        for item in items {
            executed += 1;
            out.push(f(item)?);
        }
        Ok(out)
    })();
    slot.jobs_executed.fetch_add(executed, Ordering::Relaxed);
    if let Some(started) = started {
        slot.busy_nanos
            .fetch_add(elapsed_nanos(started), Ordering::Relaxed);
    }
    result
}

/// Nanoseconds since `started`, saturating at `u64::MAX`.
fn elapsed_nanos(started: Instant) -> u64 {
    started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}
