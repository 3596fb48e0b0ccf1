//! The sharded ingest service.
//!
//! [`IngestService`] owns N shards, each a bounded ingestion queue plus
//! a table of per-stream records. Producers call
//! [`enqueue`](IngestService::enqueue) (cheap: one lock, one push, or a
//! typed rejection); a drain cycle fans the shards out across the
//! [`detdiv_par`] pool, each worker draining whole shards so any one
//! stream's events are always processed in order by a single thread.
//!
//! Determinism: shard assignment is `hash % shards`, drains process
//! each shard FIFO, and the pool writes results to pre-indexed slots —
//! so per-stream verdict sequences are identical at every worker
//! count.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};

use detdiv_guard::introspect::{GuardShardStats, GuardStats};
use detdiv_guard::{BreakerState, DegradationLevel, GuardConfig, HibernationStore, PressureSample};
use detdiv_resil::RetryPolicy;
use detdiv_stream::{Bank, DetectionResult, EwmaState, SignalContext, SlotResult, StreamDetector};

use crate::config::{ServeConfig, Tier1Config};
use crate::guard::{
    GuardRuntime, GuardShard, REASON_BREAKER_FALLBACK, REASON_ESCALATION_DEFERRED,
    REASON_ESCALATION_DEFERRED_BREAKER, REASON_TIER1_ONLY,
};
use crate::introspect::ServiceStats;

/// Resident-byte estimate for one gated stream: its fixed-size record
/// plus map-entry overhead.
const GATE_COST: u64 = 64;

/// Why an event was not accepted. Rejection is the *only* backpressure
/// mechanism: the service never buffers beyond the configured bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The stream's shard queue is at capacity; retry after a drain.
    QueueFull {
        /// The full shard.
        shard: usize,
        /// Its configured bound (current depth equals it).
        capacity: usize,
    },
    /// The shard's degradation ladder is at `Shedding`: the guard is
    /// deliberately refusing new load until pressure recedes. Retry
    /// after the ladder recovers (drains keep running while shedding).
    Shedding {
        /// The shedding shard.
        shard: usize,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { shard, capacity } => {
                write!(f, "shard {shard} queue full (capacity {capacity})")
            }
            RejectReason::Shedding { shard } => {
                write!(f, "shard {shard} shedding load (overload protection)")
            }
        }
    }
}

/// Which tier produced a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The cheap always-on tier-1 gate.
    Gate,
    /// A full tier-2 detector bank.
    Model,
}

/// One verdict delivered to a [`VerdictSink`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerdictEvent {
    /// Shard that processed the event.
    pub shard: usize,
    /// Pre-hashed stream id.
    pub stream_hash: u64,
    /// The event's per-stream sequence number.
    pub seq: u64,
    /// Emitting tier.
    pub tier: Tier,
    /// Detector slot within the tier (always 0 for the gate).
    pub slot: usize,
    /// The verdict itself.
    pub result: DetectionResult,
}

/// Receives verdicts during a drain. Called from pool workers, hence
/// `&self` + `Sync`; events for one stream always arrive in order from
/// a single worker at a time.
pub trait VerdictSink: Sync {
    /// One verdict. Keep it cheap — this is the drain hot path.
    fn on_verdict(&self, event: &VerdictEvent);
}

/// A sink that drops everything (throughput measurement, warm-ups).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl VerdictSink for NullSink {
    fn on_verdict(&self, _event: &VerdictEvent) {}
}

/// What one [`IngestService::drain`] cycle did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainSummary {
    /// Events processed through detection.
    pub processed: u64,
    /// Verdicts emitted to the sink.
    pub emitted: u64,
    /// Streams escalated from tier 1 to tier 2 this cycle.
    pub escalated: u64,
    /// Detector slots newly degraded by caught panics.
    pub degraded: u64,
    /// Shards whose batch was deferred by shard-level supervision
    /// (their events remain queued for the next drain).
    pub deferred_shards: u64,
}

/// The tier-2 bank recipe, shared by every shard.
pub(crate) type BankFactory = Box<dyn Fn() -> Vec<Box<dyn StreamDetector>> + Send + Sync>;

/// One gated stream's per-stream state: its tier-1 gate statistics,
/// the guard's LRU key, and its tier-2 bank — present exactly when the
/// stream has escalated. The gate's `alpha` and `warmup` are
/// service-wide ([`Tier1Config`]), so the record holds only what
/// differs per stream — 40 bytes.
#[derive(Default)]
pub(crate) struct StreamRecord {
    pub(crate) gate: EwmaState,
    /// Drain cycle of the stream's last event under a guard (0 without
    /// one): the hibernation pass spills in `(last_touch, hash)` order.
    pub(crate) last_touch: u64,
    pub(crate) bank: Option<Box<Bank>>,
}

pub(crate) struct Shard {
    pub(crate) queue: VecDeque<SignalContext>,
    /// Stream hash → record, for every resident stream the shard has
    /// seen. A hibernated stream is in the guard's store instead, never
    /// in both. Keeps std's keyed `RandomState`: stream ids arrive from
    /// live traffic, and an unkeyed hasher (such as
    /// `detdiv_sequence::BuildSymbolHasher`, about 10 % faster here)
    /// would let a sender who chooses ids pile them into one probe
    /// chain.
    pub(crate) records: HashMap<u64, StreamRecord>,
    /// Records holding a tier-2 bank, counted where banks are built
    /// and dropped: the guard's resident estimate.
    pub(crate) banks: u64,
    /// Overload-protection state; `None` unless the service was built
    /// with [`IngestService::with_guard`].
    pub(crate) guard: Option<GuardShard>,
}

/// The sharded multi-stream ingest service.
///
/// # Examples
///
/// ```
/// use detdiv_serve::{IngestService, NullSink, ServeConfig, Tier1Config};
/// use detdiv_stream::{hash_stream_id, Ewma, SignalContext, StreamDetector};
/// use detdiv_sequence::Symbol;
///
/// // A gate that escalates every stream on its first event.
/// let tier1 = Tier1Config { warmup: 0, escalate_score: 0.0, ..Tier1Config::default() };
/// let service = IngestService::new(ServeConfig::new(4, 64).gated(tier1), || {
///     vec![Box::new(Ewma::new(0.2, 3)) as Box<dyn StreamDetector>]
/// });
/// let stream = hash_stream_id("host-a");
/// for i in 0..8 {
///     let ctx = SignalContext::new(i, stream, Symbol::new(0), 5.0);
///     service.enqueue(ctx).expect("queue has room");
/// }
/// let summary = service.drain(&NullSink);
/// assert_eq!(summary.processed, 8);
/// // Event 0's gate verdict, then the bank's: events 0..=2 were its warmup.
/// assert_eq!(summary.emitted, 6);
/// ```
pub struct IngestService {
    config: ServeConfig,
    pub(crate) factory: BankFactory,
    pub(crate) shards: Vec<Mutex<Shard>>,
    stats: Arc<ServiceStats>,
    pub(crate) guard: Option<GuardRuntime>,
}

impl std::fmt::Debug for IngestService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestService")
            .field("config", &self.config)
            .finish()
    }
}

struct ShardDrain {
    processed: u64,
    emitted: u64,
    escalated: u64,
    degraded: u64,
    deferred: bool,
}

impl IngestService {
    /// Creates a service; `factory` is the tier-2 bank recipe, shared
    /// by all shards.
    ///
    /// # Panics
    ///
    /// Panics if the gate's `alpha` is outside `(0, 1]`.
    pub fn new(
        config: ServeConfig,
        factory: impl Fn() -> Vec<Box<dyn StreamDetector>> + Send + Sync + 'static,
    ) -> IngestService {
        let alpha = config.tier1.alpha;
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        let shards = (0..config.shards)
            .map(|_| {
                Mutex::new(Shard {
                    queue: VecDeque::new(),
                    records: HashMap::new(),
                    banks: 0,
                    guard: None,
                })
            })
            .collect();
        IngestService {
            stats: Arc::new(ServiceStats::new(config.shards)),
            config,
            factory: Box::new(factory),
            shards,
            guard: None,
        }
    }

    /// Creates a service with the overload-protection guard attached:
    /// a per-shard degradation ladder, a tier-2 escalation circuit
    /// breaker, and (when `guard_config.spill_dir` is set) cold-stream
    /// hibernation under the byte budget. See the `detdiv-guard` crate
    /// docs for the policy semantics.
    ///
    /// # Panics
    ///
    /// Panics if the gate's `alpha` is outside `(0, 1]`, as
    /// [`new`](IngestService::new) does.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating the hibernation segment files
    /// (`<spill_dir>/shard-<i>.seg`).
    pub fn with_guard(
        config: ServeConfig,
        guard_config: GuardConfig,
        factory: impl Fn() -> Vec<Box<dyn StreamDetector>> + Send + Sync + 'static,
    ) -> std::io::Result<IngestService> {
        // Estimate a tier-2 bank's cost once from a probe bank: each
        // slot's state-bytes cap plus map-entry overhead.
        let bank_cost: u64 = factory()
            .iter()
            .map(|d| d.state_bytes_cap() as u64 + 64)
            .sum();
        let mut service = IngestService::new(config, factory);
        if let Some(dir) = &guard_config.spill_dir {
            std::fs::create_dir_all(dir)?;
        }
        for (index, shard) in service.shards.iter().enumerate() {
            let store = match &guard_config.spill_dir {
                Some(dir) => Some(HibernationStore::create(
                    dir.join(format!("shard-{index}.seg")),
                )?),
                None => None,
            };
            shard.lock().unwrap_or_else(PoisonError::into_inner).guard =
                Some(GuardShard::new(&guard_config, store));
        }
        service.guard = Some(GuardRuntime {
            stats: Arc::new(GuardStats::new(service.config.shards)),
            shard_budget: guard_config.shard_budget(service.config.shards),
            bank_cost,
        });
        Ok(service)
    }

    /// The service's shape.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The service's live counters (see [`crate::introspect`]).
    pub fn stats(&self) -> &Arc<ServiceStats> {
        &self.stats
    }

    /// The guard's live counters, when the service was built with
    /// [`with_guard`](IngestService::with_guard).
    pub fn guard_stats(&self) -> Option<&Arc<GuardStats>> {
        self.guard.as_ref().map(|g| &g.stats)
    }

    /// Every shard's current degradation level (all `Full` without a
    /// guard).
    pub fn guard_levels(&self) -> Vec<DegradationLevel> {
        (0..self.config.shards)
            .map(|i| {
                self.shard(i)
                    .guard
                    .as_ref()
                    .map(|g| g.ladder.level())
                    .unwrap_or(DegradationLevel::Full)
            })
            .collect()
    }

    /// Publishes this service's counters on the process-global
    /// introspection registry ([`detdiv_obs::introspect`]): the
    /// `"serve"` page (scope's `/servez`), and the `"guard"` page
    /// (`/guardz`) when a guard is attached. The registration is
    /// cleared when the service is dropped.
    pub fn register_introspection(&self) {
        detdiv_obs::introspect::register("serve", &self.stats, ServiceStats::render_json);
        if let Some(guard) = &self.guard {
            detdiv_obs::introspect::register("guard", &guard.stats, GuardStats::render_json);
        }
    }

    /// Shard owning `stream_id_hash`.
    pub fn shard_of(&self, stream_id_hash: u64) -> usize {
        (stream_id_hash % self.config.shards as u64) as usize
    }

    pub(crate) fn shard(&self, index: usize) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[index]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Offers one event to its stream's shard.
    ///
    /// # Errors
    ///
    /// Returns [`RejectReason::QueueFull`] — and counts the rejection —
    /// when the shard queue is at capacity. The caller decides whether
    /// to drop, retry after a drain, or shed the stream; the service
    /// itself never buffers beyond the bound.
    pub fn enqueue(&self, ctx: SignalContext) -> Result<(), RejectReason> {
        let index = self.shard_of(ctx.stream_id_hash);
        if let Some(guard) = &self.guard {
            // The drain publishes each shard's ladder level at cycle
            // end; a `Shedding` shard refuses new load without taking
            // its lock.
            if guard.stats.shard_level(index) == DegradationLevel::Shedding {
                guard.stats.shards[index]
                    .shed
                    .fetch_add(1, Ordering::Relaxed);
                self.stats.shards[index]
                    .rejected
                    .fetch_add(1, Ordering::Relaxed);
                if detdiv_obs::telemetry_enabled() {
                    detdiv_obs::incr_counter("serve/shed", 1);
                }
                return Err(RejectReason::Shedding { shard: index });
            }
        }
        let mut shard = self.shard(index);
        if shard.queue.len() >= self.config.queue_capacity {
            drop(shard);
            self.stats.shards[index]
                .rejected
                .fetch_add(1, Ordering::Relaxed);
            if detdiv_obs::telemetry_enabled() {
                detdiv_obs::incr_counter("serve/rejected", 1);
            }
            return Err(RejectReason::QueueFull {
                shard: index,
                capacity: self.config.queue_capacity,
            });
        }
        shard.queue.push_back(ctx);
        let depth = shard.queue.len() as u64;
        drop(shard);
        let stats = &self.stats.shards[index];
        stats.enqueued.fetch_add(1, Ordering::Relaxed);
        stats.depth.store(depth, Ordering::Relaxed);
        Ok(())
    }

    /// Drains every shard queue through detection, fanning shards out
    /// across the global [`detdiv_par`] pool and delivering verdicts to
    /// `sink`.
    ///
    /// Each shard's batch runs under [`detdiv_resil::supervised`] at
    /// the `serve/drain` fault site with the site claimed *before* any
    /// event is popped: an injected (or real) shard-level panic defers
    /// the whole batch — events stay queued for the next drain — and
    /// never takes down sibling shards. Per-stream panics inside
    /// detector slots are finer-grained still: the stream's bank
    /// degrades exactly that slot (see the backpressure suite).
    pub fn drain(&self, sink: &impl VerdictSink) -> DrainSummary {
        let indices: Vec<usize> = (0..self.config.shards).collect();
        let sink: &dyn VerdictSink = sink;
        let policy = RetryPolicy::no_retry();
        let per_shard = detdiv_par::global().map(&indices, |&index| {
            let outcome = detdiv_resil::supervised("serve/drain", &policy, || {
                if detdiv_resil::armed() {
                    detdiv_resil::point("serve/drain");
                }
                self.drain_shard(index, sink)
            });
            match outcome {
                detdiv_par::CellOutcome::Ok { value, .. } => value,
                detdiv_par::CellOutcome::Failed { .. } => {
                    self.stats.shards[index]
                        .deferred
                        .fetch_add(1, Ordering::Relaxed);
                    ShardDrain {
                        processed: 0,
                        emitted: 0,
                        escalated: 0,
                        degraded: 0,
                        deferred: true,
                    }
                }
            }
        });
        let mut summary = DrainSummary::default();
        for shard in &per_shard {
            summary.processed += shard.processed;
            summary.emitted += shard.emitted;
            summary.escalated += shard.escalated;
            summary.degraded += shard.degraded;
            summary.deferred_shards += u64::from(shard.deferred);
        }
        if detdiv_obs::telemetry_enabled() && summary.processed > 0 {
            detdiv_obs::incr_counter("serve/processed", summary.processed);
            detdiv_obs::incr_counter("serve/emitted", summary.emitted);
            if summary.escalated > 0 {
                detdiv_obs::incr_counter("serve/escalated", summary.escalated);
            }
            if summary.degraded > 0 {
                detdiv_obs::incr_counter("serve/degraded", summary.degraded);
            }
        }
        summary
    }

    fn drain_shard(&self, index: usize, sink: &dyn VerdictSink) -> ShardDrain {
        let mut shard = self.shard(index);
        let shard = &mut *shard;
        let mut drain = ShardDrain {
            processed: 0,
            emitted: 0,
            escalated: 0,
            degraded: 0,
            deferred: false,
        };
        // Guard cycle begin: start the breaker's next cycle, then
        // classify this cycle's pressure sample and let the ladder
        // react. Every input is a deterministic counter (the queue
        // depth at cycle start and the resident-bytes gauge the
        // previous cycle published), so the ladder trajectory is
        // width-invariant.
        if let (Some(g), Some(rt)) = (shard.guard.as_mut(), self.guard.as_ref()) {
            let stats = &rt.stats.shards[index];
            // A half-open record is written before the shard's cycle
            // advances, so it carries the previous cycle's stamp.
            if let Some((from, to)) = g.breaker.on_cycle(g.cycle + 1) {
                g.record(index, "breaker", from.name(), to.name(), 0);
            }
            g.cycle += 1;
            let sample = PressureSample {
                queue_depth: shard.queue.len(),
                queue_capacity: self.config.queue_capacity,
                resident_bytes: stats.resident_bytes.load(Ordering::Relaxed),
                budget_bytes: rt.shard_budget,
            };
            if let Some((from, to)) = g.ladder.observe(sample.classify()) {
                stats.ladder_transitions.fetch_add(1, Ordering::Relaxed);
                g.record(index, "ladder", from.name(), to.name(), 0);
            }
        }
        let Shard {
            queue,
            records,
            banks,
            guard,
        } = shard;
        // The shard's cycle only moves between drains, so one read
        // stamps every event of this cycle.
        let touch = guard.as_ref().map_or(0, |g| g.cycle);
        let mut gated = GatedDrain {
            index,
            cfg: self.config.tier1,
            sink,
            factory: &self.factory,
            banks,
            guard: guard
                .as_mut()
                .zip(self.guard.as_ref().map(|rt| &rt.stats.shards[index])),
            slot_buf: Vec::new(),
            escalated: 0,
            degraded: 0,
        };
        while let Some(ctx) = queue.pop_front() {
            drain.processed += 1;
            // A resident stream costs this one probe; the hibernation
            // store is asked only about a stream the table does not
            // hold.
            let record = match records.entry(ctx.stream_id_hash) {
                Entry::Occupied(entry) => entry.into_mut(),
                Entry::Vacant(entry) => entry.insert(gated.rehydrate_or_new(ctx.stream_id_hash)),
            };
            record.last_touch = touch;
            drain.emitted += gated.event(record, &ctx);
        }
        drain.escalated = gated.escalated;
        drain.degraded = gated.degraded;
        self.guard_cycle_end(index, shard);
        let stats = &self.stats.shards[index];
        stats.depth.store(0, Ordering::Relaxed);
        stats
            .streams
            .store(shard.records.len() as u64, Ordering::Relaxed);
        stats
            .processed
            .fetch_add(drain.processed, Ordering::Relaxed);
        stats.emitted.fetch_add(drain.emitted, Ordering::Relaxed);
        stats
            .escalated
            .fetch_add(drain.escalated, Ordering::Relaxed);
        stats.degraded.fetch_add(drain.degraded, Ordering::Relaxed);
        drain
    }

    /// Guard end-of-cycle work: the resident estimate + hibernation
    /// pass, and publishing the gauges. Runs under the shard lock,
    /// after the queue has drained.
    fn guard_cycle_end(&self, index: usize, shard: &mut Shard) {
        let Some(rt) = self.guard.as_ref() else {
            return;
        };
        let Some(g) = shard.guard.as_mut() else {
            return;
        };
        let gs = &rt.stats.shards[index];
        // Resident estimate: every gated stream costs a record;
        // escalated streams cost their bank on top.
        let mut resident = shard.records.len() as u64 * GATE_COST + shard.banks * rt.bank_cost;
        // Hibernation: while over the shard's budget slice, spill the
        // least-recently-touched streams to the checksummed segment.
        // LRU order is (last-touch cycle, hash) — both deterministic —
        // so the spill sequence is width-invariant too.
        if let Some(budget) = rt.shard_budget {
            if resident > budget && g.store.is_some() {
                let mut candidates: Vec<(u64, u64)> = shard
                    .records
                    .iter()
                    .map(|(&hash, record)| (record.last_touch, hash))
                    .collect();
                candidates.sort_unstable();
                for (_, hash) in candidates {
                    if resident <= budget {
                        break;
                    }
                    let line = crate::snapshot::render_stream_line(hash, &shard.records[&hash]);
                    let store = g.store.as_mut().expect("checked above");
                    if store.spill(hash, &line).is_err() {
                        // An unwritable segment leaves the stream
                        // resident; pressure stays high instead of
                        // losing state.
                        continue;
                    }
                    let removed = shard.records.remove(&hash);
                    let banked = u64::from(removed.is_some_and(|record| record.bank.is_some()));
                    shard.banks -= banked;
                    resident = resident.saturating_sub(GATE_COST + banked * rt.bank_cost);
                    gs.hibernated.fetch_add(1, Ordering::Relaxed);
                    g.record(index, "hibernate", "", "spilled", hash);
                }
            }
        }
        gs.level.store(g.ladder.level().index(), Ordering::Relaxed);
        gs.breaker_state
            .store(g.breaker.state().index(), Ordering::Relaxed);
        gs.resident_bytes.store(resident, Ordering::Relaxed);
        rt.stats.update_resident_peak();
    }

    /// Total events currently queued across all shards.
    pub fn pending(&self) -> usize {
        (0..self.config.shards)
            .map(|i| self.shard(i).queue.len())
            .sum()
    }

    /// Distinct streams resident across all shards.
    pub fn stream_count(&self) -> usize {
        (0..self.config.shards)
            .map(|i| self.shard(i).records.len())
            .sum()
    }

    /// Detector slots this service has degraded by caught panics,
    /// summed over the shards' `degraded` counters. A slot restored
    /// already degraded (by rehydration or recovery) is not counted
    /// again.
    pub fn degraded_slots(&self) -> u64 {
        self.stats
            .shards
            .iter()
            .map(|s| s.degraded.load(Ordering::Relaxed))
            .sum()
    }
}

impl Drop for IngestService {
    fn drop(&mut self) {
        detdiv_obs::introspect::deregister("serve", &self.stats);
        if let Some(guard) = &self.guard {
            detdiv_obs::introspect::deregister("guard", &guard.stats);
        }
    }
}

/// One shard's gated drain: what every event needs besides its own
/// stream's record. Borrows the shard's bank count and guard state
/// (with the shard's guard counters) for the cycle; the record table
/// is borrowed separately by the drain loop.
struct GatedDrain<'a> {
    index: usize,
    cfg: Tier1Config,
    sink: &'a dyn VerdictSink,
    factory: &'a BankFactory,
    banks: &'a mut u64,
    guard: Option<(&'a mut GuardShard, &'a GuardShardStats)>,
    slot_buf: Vec<SlotResult>,
    /// Streams escalated this cycle.
    escalated: u64,
    /// Slots newly degraded this cycle.
    degraded: u64,
}

impl GatedDrain<'_> {
    /// The record of a stream the table does not hold. A hibernated
    /// stream is rehydrated: its spilled line is recalled from the
    /// segment, checksum-verified, parsed and applied. A corrupt or
    /// unparsable record degrades the stream to a cold start (it
    /// rebuilds from gate warmup) — never a panic. Any other stream
    /// starts fresh.
    fn rehydrate_or_new(&mut self, hash: u64) -> StreamRecord {
        let Some((g, stats)) = self.guard.as_mut() else {
            return StreamRecord::default();
        };
        let payload = match g.store.as_mut().map(|store| store.recall(hash)) {
            None | Some(Ok(None)) => return StreamRecord::default(),
            Some(Ok(Some(payload))) => Some(payload),
            Some(Err(_)) => None,
        };
        let parsed = payload
            .as_deref()
            .and_then(crate::snapshot::parse_stream_line);
        stats.rehydrated.fetch_add(1, Ordering::Relaxed);
        g.record(
            self.index,
            "rehydrate",
            "",
            if parsed.is_some() { "restored" } else { "cold" },
            hash,
        );
        let Some(p) = parsed else {
            return StreamRecord::default();
        };
        let (record, _) = p.record(self.factory);
        *self.banks += u64::from(record.bank.is_some());
        record
    }

    /// Runs one event through the tier-1 gate and, once escalated, the
    /// tier-2 bank — subject to the guard's degradation level and
    /// circuit breaker when one is attached. Returns the number of
    /// verdicts emitted.
    ///
    /// Without a guard (or with one at `Full` and a closed breaker) the
    /// emission sequence is byte-identical to the pre-guard service,
    /// which the differential suite pins down.
    fn event(&mut self, record: &mut StreamRecord, ctx: &SignalContext) -> u64 {
        let (level, breaker_admits) = match &self.guard {
            Some((g, _)) => (g.ladder.level(), g.breaker.admits()),
            None => (DegradationLevel::Full, true),
        };
        let (alpha, warmup) = (self.cfg.alpha, self.cfg.warmup);
        match &mut record.bank {
            None => {
                let Some(result) = record.gate.update(alpha, warmup, ctx) else {
                    return 0; // gate warmup: no verdict yet
                };
                let wants_escalation = result.score >= self.cfg.escalate_score;
                // New escalations are admitted only at Full with a
                // non-open breaker; a deferred escalation still emits
                // the gate verdict, retagged so consumers can see the
                // degradation.
                let admit = level == DegradationLevel::Full && breaker_admits;
                let result = if wants_escalation && !admit {
                    DetectionResult {
                        reason: if level != DegradationLevel::Full {
                            REASON_ESCALATION_DEFERRED
                        } else {
                            REASON_ESCALATION_DEFERRED_BREAKER
                        },
                        ..result
                    }
                } else {
                    result
                };
                self.sink.on_verdict(&VerdictEvent {
                    shard: self.index,
                    stream_hash: ctx.stream_id_hash,
                    seq: ctx.seq,
                    tier: Tier::Gate,
                    slot: 0,
                    result,
                });
                if !(wants_escalation && admit) {
                    return 1;
                }
                self.escalated += 1;
                *self.banks += 1;
                let bank = record
                    .bank
                    .insert(Box::new(Bank::new(ctx.stream_id_hash, (self.factory)())));
                // The escalating event is also tier 2's first.
                1 + self.tier2(bank, ctx)
            }
            Some(_) if level >= DegradationLevel::Tier1Only || !breaker_admits => {
                // Degraded fallback: the escalated stream's tier-2 bank
                // is suppressed this cycle; its gate verdict stands in
                // at halved confidence so downstream consumers can
                // discount it.
                let reason = if !breaker_admits {
                    REASON_BREAKER_FALLBACK
                } else {
                    REASON_TIER1_ONLY
                };
                let Some(result) = record.gate.update(alpha, warmup, ctx) else {
                    return 0;
                };
                let result = DetectionResult {
                    confidence: result.confidence * 0.5,
                    reason,
                    ..result
                };
                self.sink.on_verdict(&VerdictEvent {
                    shard: self.index,
                    stream_hash: ctx.stream_id_hash,
                    seq: ctx.seq,
                    tier: Tier::Gate,
                    slot: 0,
                    result,
                });
                if detdiv_flight::armed() {
                    detdiv_flight::record(
                        detdiv_flight::StreamRecord {
                            stream_label: "",
                            stream_hash: ctx.stream_id_hash,
                            slot: 0,
                            detector: "guard-fallback",
                            event_index: ctx.seq,
                            score: result.score,
                            confidence: result.confidence,
                            reason,
                            warmup: false,
                        }
                        .render(),
                    );
                }
                1
            }
            Some(bank) => self.tier2(bank, ctx),
        }
    }

    /// Pushes one event through an escalated stream's bank and delivers
    /// its verdicts. Returns the number emitted.
    fn tier2(&mut self, bank: &mut Bank, ctx: &SignalContext) -> u64 {
        self.slot_buf.clear();
        let degraded = bank.push(ctx, &mut self.slot_buf);
        self.degraded += degraded;
        for slot in &self.slot_buf {
            self.sink.on_verdict(&VerdictEvent {
                shard: self.index,
                stream_hash: ctx.stream_id_hash,
                seq: ctx.seq,
                tier: Tier::Model,
                slot: slot.slot,
                result: slot.result,
            });
        }
        // Breaker accounting: a push that newly degraded a slot is a
        // supervised failure; a clean push is a success (and closes a
        // half-open breaker's probe).
        if let Some((g, stats)) = self.guard.as_mut() {
            let transition = if degraded > 0 {
                g.breaker.on_failure(g.cycle)
            } else {
                g.breaker.on_success()
            };
            if let Some((from, to)) = transition {
                if to == BreakerState::Open {
                    stats.breaker_opens.fetch_add(1, Ordering::Relaxed);
                }
                g.record(
                    self.index,
                    "breaker",
                    from.name(),
                    to.name(),
                    ctx.stream_id_hash,
                );
            }
        }
        self.slot_buf.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::Symbol;
    use detdiv_stream::{hash_stream_id, Ewma};
    use std::sync::Mutex as StdMutex;

    fn ewma_bank() -> Vec<Box<dyn StreamDetector>> {
        vec![Box::new(Ewma::new(0.2, 3)) as Box<dyn StreamDetector>]
    }

    #[derive(Default)]
    struct Collect(StdMutex<Vec<VerdictEvent>>);

    impl VerdictSink for Collect {
        fn on_verdict(&self, event: &VerdictEvent) {
            self.0.lock().unwrap().push(*event);
        }
    }

    #[test]
    fn enqueue_routes_by_hash_and_drain_processes_fifo() {
        let tier1 = Tier1Config {
            warmup: 0,
            escalate_score: 0.0,
            ..Tier1Config::default()
        };
        let service = IngestService::new(ServeConfig::new(4, 64).gated(tier1), ewma_bank);
        let a = hash_stream_id("a");
        let b = hash_stream_id("b");
        for i in 0..6u64 {
            service
                .enqueue(SignalContext::new(i, a, Symbol::new(0), i as f64))
                .unwrap();
            service
                .enqueue(SignalContext::new(i, b, Symbol::new(0), 1.0))
                .unwrap();
        }
        assert_eq!(service.pending(), 12);
        let sink = Collect::default();
        let summary = service.drain(&sink);
        assert_eq!(summary.processed, 12);
        assert_eq!(service.pending(), 0);
        assert_eq!(service.stream_count(), 2);
        // Per stream: the escalating gate verdict, then 3 from the bank
        // (Ewma warmup 3).
        assert_eq!(summary.emitted, 8);
        let events = sink.0.lock().unwrap();
        let a_seqs: Vec<u64> = events
            .iter()
            .filter(|e| e.stream_hash == a && e.tier == Tier::Model)
            .map(|e| e.seq)
            .collect();
        assert_eq!(a_seqs, vec![3, 4, 5], "per-stream verdicts in order");
        for e in events.iter() {
            assert_eq!(e.shard, service.shard_of(e.stream_hash));
        }
    }

    #[test]
    fn stream_record_stays_compact() {
        // A record that repeated the gate's `alpha` and `warmup` (a full
        // `Ewma` plus the flag) made a 56-byte table bucket; a prototype
        // that also carried an 8-byte tier-2 bank pointer was back at 56
        // and lost most of the hot-path gain. Keep the record at 40.
        assert!(std::mem::size_of::<StreamRecord>() <= 40);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn gated_service_rejects_bad_alpha() {
        let tier1 = Tier1Config {
            alpha: 0.0,
            ..Tier1Config::default()
        };
        let _ = IngestService::new(ServeConfig::new(1, 8).gated(tier1), ewma_bank);
    }

    #[test]
    fn full_queue_rejects_with_typed_reason() {
        let service = IngestService::new(ServeConfig::new(1, 3), ewma_bank);
        let s = hash_stream_id("only");
        for i in 0..3u64 {
            service
                .enqueue(SignalContext::new(i, s, Symbol::new(0), 1.0))
                .unwrap();
        }
        let err = service
            .enqueue(SignalContext::new(3, s, Symbol::new(0), 1.0))
            .unwrap_err();
        assert_eq!(
            err,
            RejectReason::QueueFull {
                shard: 0,
                capacity: 3
            }
        );
        assert_eq!(err.to_string(), "shard 0 queue full (capacity 3)");
        assert_eq!(
            service.stats().shards[0].rejected.load(Ordering::Relaxed),
            1
        );
        // A drain frees the queue; the rejected event can be re-offered.
        service.drain(&NullSink);
        assert!(service
            .enqueue(SignalContext::new(3, s, Symbol::new(0), 1.0))
            .is_ok());
    }

    #[test]
    fn gated_tiering_escalates_only_anomalous_streams() {
        let tier1 = Tier1Config {
            alpha: 0.3,
            warmup: 4,
            escalate_score: 0.5,
        };
        let service = IngestService::new(ServeConfig::new(2, 256).gated(tier1), ewma_bank);
        let quiet = hash_stream_id("quiet");
        let noisy = hash_stream_id("noisy");
        for i in 0..20u64 {
            let spike = if i == 12 { 90.0 } else { 5.0 };
            service
                .enqueue(SignalContext::new(i, quiet, Symbol::new(0), 5.0))
                .unwrap();
            service
                .enqueue(SignalContext::new(i, noisy, Symbol::new(0), spike))
                .unwrap();
        }
        let sink = Collect::default();
        let summary = service.drain(&sink);
        assert_eq!(summary.escalated, 1, "only the spiking stream escalates");
        let events = sink.0.lock().unwrap();
        assert!(
            events
                .iter()
                .filter(|e| e.stream_hash == quiet)
                .all(|e| e.tier == Tier::Gate),
            "quiet stream never reaches tier 2"
        );
        assert!(
            events
                .iter()
                .any(|e| e.stream_hash == noisy && e.tier == Tier::Model),
            "escalated stream gets tier-2 verdicts"
        );
        // The escalating event itself is tier 2's first event.
        let first_model_seq = events
            .iter()
            .filter(|e| e.stream_hash == noisy && e.tier == Tier::Model)
            .map(|e| e.seq)
            .min()
            .unwrap();
        let escalation_seq = events
            .iter()
            .filter(|e| e.stream_hash == noisy && e.tier == Tier::Gate)
            .map(|e| e.seq)
            .max()
            .unwrap();
        assert_eq!(
            first_model_seq,
            escalation_seq + 3,
            "tier-2 Ewma warmup (3) after escalation"
        );
        assert_eq!(service.stream_count(), 2);
    }

    #[test]
    fn drain_summary_is_stable_across_repeat_drains() {
        let service = IngestService::new(ServeConfig::new(2, 16), ewma_bank);
        let s = hash_stream_id("idle");
        service
            .enqueue(SignalContext::new(0, s, Symbol::new(0), 1.0))
            .unwrap();
        service.drain(&NullSink);
        let empty = service.drain(&NullSink);
        assert_eq!(empty, DrainSummary::default(), "empty drain is a no-op");
    }

    #[test]
    fn shedding_shard_rejects_and_ladder_recovers_as_pressure_drains() {
        let service =
            IngestService::with_guard(ServeConfig::new(1, 10), GuardConfig::default(), ewma_bank)
                .unwrap();
        let s = hash_stream_id("hot");
        // 9/10 queue fill reaches the 0.9 shedding threshold: the
        // first drain cycle jumps the ladder straight to Shedding.
        for i in 0..9u64 {
            service
                .enqueue(SignalContext::new(i, s, Symbol::new(0), 1.0))
                .unwrap();
        }
        service.drain(&NullSink);
        assert_eq!(service.guard_levels(), vec![DegradationLevel::Shedding]);
        let err = service
            .enqueue(SignalContext::new(9, s, Symbol::new(0), 1.0))
            .unwrap_err();
        assert_eq!(err, RejectReason::Shedding { shard: 0 });
        assert_eq!(
            err.to_string(),
            "shard 0 shedding load (overload protection)"
        );
        let stats = service.guard_stats().unwrap();
        assert_eq!(stats.shards[0].shed.load(Ordering::Relaxed), 1);
        // Calm cycles walk the ladder back down one rung per two:
        // 3 rungs → 6 empty drains to reach Full.
        let mut levels = Vec::new();
        for _ in 0..6 {
            service.drain(&NullSink);
            levels.push(service.guard_levels()[0]);
        }
        assert_eq!(
            levels,
            [
                DegradationLevel::Shedding,
                DegradationLevel::Tier1Only,
                DegradationLevel::Tier1Only,
                DegradationLevel::GatedOnly,
                DegradationLevel::GatedOnly,
                DegradationLevel::Full,
            ]
        );
        assert!(service
            .enqueue(SignalContext::new(9, s, Symbol::new(0), 1.0))
            .is_ok());
        assert_eq!(
            stats.shards[0].ladder_transitions.load(Ordering::Relaxed),
            4,
            "Full→Shedding plus three cooldown rungs"
        );
    }

    struct Boom;

    impl StreamDetector for Boom {
        fn name(&self) -> &str {
            "boom"
        }
        fn warmup_len(&self) -> usize {
            0
        }
        fn update(&mut self, _ctx: &SignalContext) -> Option<DetectionResult> {
            panic!("boom")
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn breaker_opens_on_tier2_failure_and_gate_verdicts_stand_in() {
        use detdiv_guard::BreakerConfig;
        let guard = GuardConfig {
            breaker: BreakerConfig {
                failure_threshold: 1,
                open_cycles: 100,
            },
            ..GuardConfig::default()
        };
        let tier1 = Tier1Config {
            alpha: 0.3,
            warmup: 2,
            escalate_score: 0.5,
        };
        let service =
            IngestService::with_guard(ServeConfig::new(1, 64).gated(tier1), guard, || {
                vec![Box::new(Boom) as Box<dyn StreamDetector>]
            })
            .unwrap();
        let a = hash_stream_id("first");
        let b = hash_stream_id("second");
        // Stream `a` escalates at seq 3; its tier-2 push panics, which
        // trips the breaker (threshold 1) mid-drain.
        for (i, v) in [5.0, 5.0, 5.0, 90.0, 5.0].iter().enumerate() {
            service
                .enqueue(SignalContext::new(i as u64, a, Symbol::new(0), *v))
                .unwrap();
        }
        // Stream `b` tries to escalate after the breaker opened.
        for (i, v) in [5.0, 5.0, 5.0, 90.0].iter().enumerate() {
            service
                .enqueue(SignalContext::new(i as u64, b, Symbol::new(0), *v))
                .unwrap();
        }
        let sink = Collect::default();
        service.drain(&sink);
        let stats = service.guard_stats().unwrap();
        assert_eq!(stats.shards[0].breaker_opens.load(Ordering::Relaxed), 1);
        let events = sink.0.lock().unwrap();
        let a4 = events
            .iter()
            .find(|e| e.stream_hash == a && e.seq == 4)
            .expect("escalated stream still gets a verdict");
        assert_eq!(a4.tier, Tier::Gate);
        assert_eq!(a4.result.reason, REASON_BREAKER_FALLBACK);
        let b3 = events
            .iter()
            .find(|e| e.stream_hash == b && e.seq == 3)
            .expect("deferred escalation still emits the gate verdict");
        assert_eq!(b3.result.reason, REASON_ESCALATION_DEFERRED_BREAKER);
        assert!(
            events.iter().all(|e| e.tier == Tier::Gate),
            "no tier-2 verdict survives the panicking bank"
        );
    }

    #[test]
    fn hibernation_spills_idle_streams_and_rehydrates_transparently() {
        let dir = std::env::temp_dir().join(format!(
            "detdiv-guard-hibernate-{}-{}",
            std::process::id(),
            hash_stream_id("hibernate-test")
        ));
        let guard = GuardConfig {
            // 1 shard → shard budget 200 bytes; four resident gates
            // (4 × 64 = 256) overflow it by one stream.
            budget_bytes: Some(200),
            spill_dir: Some(dir.clone()),
            ..GuardConfig::default()
        };
        let tier1 = Tier1Config {
            alpha: 0.3,
            warmup: 2,
            escalate_score: 0.99,
        };
        let feed = |service: &IngestService, sink: &Collect| {
            let a = hash_stream_id("idle-a");
            // Cycle 1: only `a` is active. Varied values keep the gate's
            // variance nonzero so the cycle-3 event scores finitely
            // (below escalate_score) instead of pinning to 1.0.
            for (i, v) in [5.0, 6.0, 5.5].iter().enumerate() {
                service
                    .enqueue(SignalContext::new(i as u64, a, Symbol::new(0), *v))
                    .unwrap();
            }
            service.drain(sink);
            // Cycle 2: three new streams push the shard over budget;
            // `a` (least recently touched) is the spill candidate.
            for name in ["busy-b", "busy-c", "busy-d"] {
                let h = hash_stream_id(name);
                for i in 0..3u64 {
                    service
                        .enqueue(SignalContext::new(i, h, Symbol::new(0), 7.0))
                        .unwrap();
                }
            }
            service.drain(sink);
            // Cycle 3: `a` comes back; a guarded service must rehydrate
            // it with its gate state intact.
            service
                .enqueue(SignalContext::new(3, a, Symbol::new(0), 6.0))
                .unwrap();
            service.drain(sink);
            a
        };
        let guarded =
            IngestService::with_guard(ServeConfig::new(1, 64).gated(tier1), guard, ewma_bank)
                .unwrap();
        let sink = Collect::default();
        let a = feed(&guarded, &sink);
        let stats = guarded.guard_stats().unwrap();
        // Cycle 2 spills `a`; cycle 3 rehydrates it and — over budget
        // again — spills the next least-recently-touched stream.
        assert_eq!(stats.shards[0].hibernated.load(Ordering::Relaxed), 2);
        assert_eq!(stats.shards[0].rehydrated.load(Ordering::Relaxed), 1);
        // Control: the same feed without a guard. Hibernation must not
        // change a single verdict.
        let control = IngestService::new(ServeConfig::new(1, 64).gated(tier1), ewma_bank);
        let control_sink = Collect::default();
        feed(&control, &control_sink);
        let fp = |events: &[VerdictEvent]| -> Vec<(u64, u64, Tier, u64, &'static str)> {
            events
                .iter()
                .filter(|e| e.stream_hash == a)
                .map(|e| {
                    (
                        e.stream_hash,
                        e.seq,
                        e.tier,
                        e.result.score.to_bits(),
                        e.result.reason,
                    )
                })
                .collect()
        };
        assert_eq!(
            fp(&sink.0.lock().unwrap()),
            fp(&control_sink.0.lock().unwrap()),
            "rehydrated stream's verdicts are bit-identical to the unguarded control"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
