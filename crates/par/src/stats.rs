//! Per-worker execution counters for the pool.
//!
//! Counters are relaxed atomics updated by the workers and accumulated
//! across every map a [`crate::Pool`] runs; [`crate::Pool::stats`]
//! freezes them into the plain-data [`PoolStats`], which the
//! evaluation pipeline forwards into `detdiv-obs` counters so pool
//! behaviour shows up in the run telemetry.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live per-worker counters (interior, atomic).
#[derive(Debug, Default)]
pub(crate) struct WorkerSlot {
    pub jobs_executed: AtomicU64,
    pub idle_parks: AtomicU64,
    pub busy_nanos: AtomicU64,
}

impl WorkerSlot {
    pub fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            jobs_executed: self.jobs_executed.load(Ordering::Relaxed),
            idle_parks: self.idle_parks.load(Ordering::Relaxed),
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
        }
    }

    pub fn reset(&self) {
        self.jobs_executed.store(0, Ordering::Relaxed);
        self.idle_parks.store(0, Ordering::Relaxed);
        self.busy_nanos.store(0, Ordering::Relaxed);
    }
}

/// Frozen counters of one worker slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker executed (across every map of the pool).
    pub jobs_executed: u64,
    /// Times this worker found every job of a map already claimed and
    /// parked without having executed a single one.
    pub idle_parks: u64,
    /// Wall time this worker spent executing jobs, in nanoseconds.
    /// Timed once per worker per map (one `Instant` pair, not one per
    /// job) and only while telemetry is enabled, so
    /// `DETDIV_LOG=off` keeps the counter at zero and the hot path
    /// clock-free. Feeds the self-profile's worker-utilization figure.
    pub busy_nanos: u64,
}

/// Frozen view of a pool's counters; see [`crate::Pool::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Per-worker counters, indexed by worker id. The vector is as long
    /// as the widest map the pool has run so far.
    pub workers: Vec<WorkerStats>,
    /// Number of parallel maps the pool has executed (inline
    /// single-thread runs included).
    pub maps_run: u64,
}

impl PoolStats {
    /// Total jobs executed across all workers.
    pub fn total_jobs(&self) -> u64 {
        self.workers.iter().map(|w| w.jobs_executed).sum()
    }

    /// Total idle parks across all workers.
    pub fn total_idle_parks(&self) -> u64 {
        self.workers.iter().map(|w| w.idle_parks).sum()
    }

    /// Total busy wall time across all workers, in nanoseconds.
    pub fn total_busy_nanos(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_nanos).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_workers() {
        let stats = PoolStats {
            workers: vec![
                WorkerStats {
                    jobs_executed: 3,
                    idle_parks: 0,
                    busy_nanos: 100,
                },
                WorkerStats {
                    jobs_executed: 5,
                    idle_parks: 2,
                    busy_nanos: 250,
                },
            ],
            maps_run: 2,
        };
        assert_eq!(stats.total_jobs(), 8);
        assert_eq!(stats.total_idle_parks(), 2);
        assert_eq!(stats.total_busy_nanos(), 350);
    }

    #[test]
    fn slot_snapshot_and_reset_round_trip() {
        let slot = WorkerSlot::default();
        slot.jobs_executed.store(7, Ordering::Relaxed);
        slot.idle_parks.store(1, Ordering::Relaxed);
        slot.busy_nanos.store(1234, Ordering::Relaxed);
        assert_eq!(
            slot.snapshot(),
            WorkerStats {
                jobs_executed: 7,
                idle_parks: 1,
                busy_nanos: 1234,
            }
        );
        slot.reset();
        assert_eq!(slot.snapshot(), WorkerStats::default());
    }
}
