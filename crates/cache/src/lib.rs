//! Single-flight memoization of trained detector models.
//!
//! A full experiment report trains the same (detector kind, window) pair
//! on the same training stream dozens of times — `coverage`, `ablation`,
//! `analysis`, `combination`, `diversity` and `extension` each rebuild
//! their models from scratch. Training dominates the cost of these
//! sequence detectors (Tan & Maxion's companion analysis), so this crate
//! memoizes the **train phase**: the first caller to request a
//! [`CacheKey`] trains the model; every later caller — including callers
//! racing concurrently on other `detdiv-par` workers — shares the same
//! immutable [`TrainedModel`] behind an `Arc`.
//!
//! ## Single-flight protocol
//!
//! The map lock is held only to *look up or insert a slot*, never during
//! training:
//!
//! 1. lock the map; if the key has a slot, unlock and wait on that slot
//!    (`Ready` → hit; `InFlight` → block on the slot's condvar);
//! 2. if the key is vacant, insert a fresh `InFlight` slot, unlock, and
//!    train **outside any lock** — this caller is the *leader*;
//! 3. on success the leader publishes `Ready(model)` and notifies all
//!    waiters; on panic it publishes `Poisoned`, removes the slot from
//!    the map (so later callers retrain), and resumes the panic. Waiters
//!    blocked on a poisoned slot panic with the leader's message instead
//!    of wedging.
//!
//! At pool width 1 no waits ever occur; at width N a burst of identical
//! requests performs exactly one training run. Waiters may park inside
//! `detdiv-par` workers: that cannot deadlock, because the leader makes
//! progress independently of the pool.
//!
//! ## Correctness contract
//!
//! The cache is sound only if (a) scoring is `&self`-pure, and (b)
//! retraining on the same stream yields an equivalent model. Both are
//! enforced for every detector family by the conformance suite in
//! `crates/core/tests/conformance.rs`. The determinism harness further
//! proves the headline claim: report output is byte-identical with the
//! cache on or off, at every thread count.
//!
//! ## Switches
//!
//! * `DETDIV_CACHE=off|0|false` (or [`set_enabled`]`(false)`, or
//!   `regenerate --no-cache`) makes [`ModelCache::get_or_train`] a pure
//!   pass-through: nothing is stored, no counters move.
//! * `DETDIV_CACHE_CAP=N` (or [`set_capacity`]) bounds the number of
//!   resident models; least-recently-used entries are evicted and their
//!   [`TrainedModel::approx_bytes`] are accounted to `evicted_bytes`.
//!
//! ## Observability
//!
//! When telemetry is on (`DETDIV_LOG` ≠ `off`), every event also
//! increments the matching `cache/…` counter in `detdiv-obs`
//! (`cache/hits`, `cache/misses`, `cache/inflight_waits`,
//! `cache/evictions`, `cache/evicted_bytes`), so the numbers land in the
//! `TelemetrySnapshot` attached to the report. When the trace recorder
//! is armed, misses/hits/evictions additionally emit trace instants.
//! Authoritative per-process totals are always available — independent
//! of telemetry — through [`ModelCache::stats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::print_stdout, clippy::print_stderr)]

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use detdiv_core::TrainedModel;
use detdiv_sequence::Symbol;

/// Identity of one trained model: *what* was trained on *which data*.
///
/// Two requests share a model exactly when all four components agree.
/// The `detector` string is the detector kind's full parameter set (the
/// `Debug` rendering of `DetectorKind`, which includes every
/// hyperparameter), so configurations that would train differently never
/// collide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Fingerprint of the training stream (see [`fingerprint_stream`]).
    pub corpus: u64,
    /// Full parameter rendering of the detector configuration.
    pub detector: String,
    /// Detector window DW.
    pub window: usize,
    /// Length of the training stream, as a cheap second identity check.
    pub training_len: usize,
}

impl CacheKey {
    /// Builds a key from a training stream and a detector's parameter
    /// rendering + window.
    pub fn for_training(training: &[Symbol], detector: impl Into<String>, window: usize) -> Self {
        Self::for_fingerprint(fingerprint_stream(training), training, detector, window)
    }

    /// [`CacheKey::for_training`] with the stream's
    /// [`fingerprint_stream`] already computed, for callers that request
    /// many models of one stream: the fingerprint reads every symbol,
    /// the rest of the key is constant-time.
    pub fn for_fingerprint(
        corpus: u64,
        training: &[Symbol],
        detector: impl Into<String>,
        window: usize,
    ) -> Self {
        CacheKey {
            corpus,
            detector: detector.into(),
            window,
            training_len: training.len(),
        }
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}@DW={} corpus={:016x} len={}",
            self.detector, self.window, self.corpus, self.training_len
        )
    }
}

/// FNV-1a over the symbol ids of a stream: a cheap, deterministic,
/// platform-independent fingerprint. Collisions between *different*
/// training streams of the same length are the only failure mode, and
/// the 64-bit space plus the `training_len` key component make them
/// vanishingly unlikely for the corpus counts involved here.
pub fn fingerprint_stream(stream: &[Symbol]) -> u64 {
    let mut h = detdiv_resil::Fnv1a::new();
    for s in stream {
        h.write(&s.id().to_le_bytes());
    }
    h.finish()
}

/// Aggregate cache statistics, independent of the telemetry switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from a `Ready` slot (including those that waited
    /// on an in-flight training run).
    pub hits: u64,
    /// Requests that became the training leader for their key.
    pub misses: u64,
    /// Requests that blocked on another caller's in-flight training.
    pub inflight_waits: u64,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Total [`TrainedModel::approx_bytes`] of evicted entries.
    pub evicted_bytes: u64,
    /// Approximate bytes of currently resident models.
    pub resident_bytes: u64,
    /// Currently resident entries (ready or in flight).
    pub entries: usize,
}

/// How one [`ModelCache::get_or_train_traced`] request was satisfied —
/// the cache leg of a detection decision's provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The cache was disabled; the caller trained a private model.
    Disabled,
    /// Served from a `Ready` slot without waiting.
    Hit,
    /// Served from a slot whose leader was still training when the
    /// request arrived (the request parked on the condvar).
    WaitHit,
    /// This request became the training leader for its key.
    Miss,
}

impl CacheOutcome {
    /// Short label for audit records: `off`, `hit`, `wait` or `miss`.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Disabled => "off",
            CacheOutcome::Hit => "hit",
            CacheOutcome::WaitHit => "wait",
            CacheOutcome::Miss => "miss",
        }
    }
}

enum SlotState {
    /// The leader is training; waiters block on the condvar.
    InFlight,
    /// Model published; `bytes` is its `approx_bytes` at publish time.
    Ready {
        model: Arc<dyn TrainedModel>,
        bytes: usize,
    },
    /// The leader's trainer panicked with this message.
    Poisoned(String),
}

struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

struct MapEntry {
    slot: Arc<Slot>,
    /// Monotonic LRU clock value at last touch.
    last_used: u64,
}

struct Inner {
    map: HashMap<CacheKey, MapEntry>,
    clock: u64,
}

/// A concurrent, single-flight cache of trained detector models. See the
/// crate docs for the protocol.
pub struct ModelCache {
    inner: Mutex<Inner>,
    capacity: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    inflight_waits: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    resident_bytes: AtomicU64,
}

impl std::fmt::Debug for ModelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelCache")
            .field("stats", &self.stats())
            .field("capacity", &self.capacity.load(Ordering::Relaxed))
            .finish()
    }
}

fn lock_ignoring_poison<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // A panicking waiter (propagating a poisoned training run) may have
    // poisoned the mutex; the protected state is always consistent at
    // that point, so the poison flag carries no information here.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ModelCache {
    /// Creates an empty cache with the given LRU capacity (entry count).
    pub fn with_capacity(capacity: usize) -> Self {
        ModelCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
            capacity: AtomicUsize::new(capacity),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inflight_waits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
        }
    }

    /// Returns the model for `key`, training it via `train` exactly once
    /// per resident lifetime of the key — concurrent callers with the
    /// same key block until the single training run completes.
    ///
    /// When the cache is disabled ([`enabled`] is false) this is a pure
    /// pass-through: `train` runs unconditionally, nothing is stored,
    /// and no statistics move.
    ///
    /// # Panics
    ///
    /// If `train` panics, the panic propagates to the leader *and* to
    /// every waiter blocked on the same key (with the leader's message);
    /// the key is removed so later callers retrain.
    pub fn get_or_train<F>(&self, key: &CacheKey, train: F) -> Arc<dyn TrainedModel>
    where
        F: FnOnce() -> Arc<dyn TrainedModel>,
    {
        self.get_or_train_traced(key, train).0
    }

    /// [`ModelCache::get_or_train`] plus the request's [`CacheOutcome`]
    /// — whether this call trained (leader), hit a ready slot, waited
    /// on an in-flight training run, or bypassed a disabled cache. The
    /// audit layer records the outcome as detection provenance.
    ///
    /// # Panics
    ///
    /// Exactly as [`ModelCache::get_or_train`].
    pub fn get_or_train_traced<F>(
        &self,
        key: &CacheKey,
        train: F,
    ) -> (Arc<dyn TrainedModel>, CacheOutcome)
    where
        F: FnOnce() -> Arc<dyn TrainedModel>,
    {
        if !enabled() {
            return (train(), CacheOutcome::Disabled);
        }

        // Phase 1: find or claim the slot under the map lock.
        let (slot, leader) = {
            let mut inner = lock_ignoring_poison(&self.inner);
            inner.clock += 1;
            let clock = inner.clock;
            match inner.map.get_mut(key) {
                Some(entry) => {
                    entry.last_used = clock;
                    (Arc::clone(&entry.slot), false)
                }
                None => {
                    let slot = Arc::new(Slot {
                        state: Mutex::new(SlotState::InFlight),
                        ready: Condvar::new(),
                    });
                    inner.map.insert(
                        key.clone(),
                        MapEntry {
                            slot: Arc::clone(&slot),
                            last_used: clock,
                        },
                    );
                    (slot, true)
                }
            }
        };

        if leader {
            return (self.lead_training(key, &slot, train), CacheOutcome::Miss);
        }

        // Phase 2 (non-leader): hit, wait, or observe poison.
        let mut state = lock_ignoring_poison(&slot.state);
        let mut waited = false;
        loop {
            match &*state {
                SlotState::Ready { model, .. } => {
                    let model = Arc::clone(model);
                    drop(state);
                    self.record_hit(key, waited);
                    let outcome = if waited {
                        CacheOutcome::WaitHit
                    } else {
                        CacheOutcome::Hit
                    };
                    return (model, outcome);
                }
                SlotState::Poisoned(msg) => {
                    let msg = format!("model training for {key} panicked in another thread: {msg}");
                    drop(state);
                    panic!("{msg}");
                }
                SlotState::InFlight => {
                    if !waited {
                        waited = true;
                        self.inflight_waits.fetch_add(1, Ordering::Relaxed);
                        if detdiv_obs::telemetry_enabled() {
                            detdiv_obs::incr_counter("cache/inflight_waits", 1);
                        }
                    }
                    state = slot
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Leader path: train outside all locks, publish, evict if over
    /// capacity; on panic, poison the slot, unlink it, and re-raise.
    fn lead_training<F>(&self, key: &CacheKey, slot: &Arc<Slot>, train: F) -> Arc<dyn TrainedModel>
    where
        F: FnOnce() -> Arc<dyn TrainedModel>,
    {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if detdiv_obs::telemetry_enabled() {
            detdiv_obs::incr_counter("cache/misses", 1);
        }
        if detdiv_obs::trace::armed() {
            detdiv_obs::trace::instant("cache/miss", &[("key", &key)]);
        }

        // The fault point runs *inside* the leader's catch_unwind: an
        // injected panic must follow the ordinary poison/unlink path so
        // parked waiters are released instead of wedged on a slot whose
        // leader unwound past them.
        match catch_unwind(AssertUnwindSafe(|| {
            detdiv_resil::point("cache/lead");
            train()
        })) {
            Ok(model) => {
                let bytes = model.approx_bytes();
                {
                    let mut state = lock_ignoring_poison(&slot.state);
                    *state = SlotState::Ready {
                        model: Arc::clone(&model),
                        bytes,
                    };
                }
                slot.ready.notify_all();
                self.resident_bytes
                    .fetch_add(bytes as u64, Ordering::Relaxed);
                self.evict_over_capacity();
                model
            }
            Err(payload) => {
                let msg = panic_message(&payload);
                {
                    let mut state = lock_ignoring_poison(&slot.state);
                    *state = SlotState::Poisoned(msg);
                }
                slot.ready.notify_all();
                // Unlink so later callers retrain instead of tripping on
                // the poisoned slot forever.
                let mut inner = lock_ignoring_poison(&self.inner);
                if let Some(entry) = inner.map.get(key) {
                    if Arc::ptr_eq(&entry.slot, slot) {
                        inner.map.remove(key);
                    }
                }
                drop(inner);
                resume_unwind(payload)
            }
        }
    }

    fn record_hit(&self, key: &CacheKey, waited: bool) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if detdiv_obs::telemetry_enabled() {
            detdiv_obs::incr_counter("cache/hits", 1);
        }
        if detdiv_obs::trace::armed() {
            let kind = if waited { "wait-hit" } else { "hit" };
            detdiv_obs::trace::instant("cache/hit", &[("key", &key), ("kind", &kind)]);
        }
    }

    /// Evicts least-recently-used **ready** entries until the map fits
    /// the capacity bound. In-flight entries are never evicted: waiters
    /// hold their slot `Arc` and the leader must be able to publish.
    fn evict_over_capacity(&self) {
        let capacity = self.capacity.load(Ordering::Relaxed);
        loop {
            let evicted = {
                let mut inner = lock_ignoring_poison(&self.inner);
                if inner.map.len() <= capacity {
                    return;
                }
                let victim = inner
                    .map
                    .iter()
                    .filter(|(_, e)| {
                        matches!(
                            &*lock_ignoring_poison(&e.slot.state),
                            SlotState::Ready { .. }
                        )
                    })
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone());
                let Some(victim) = victim else {
                    // Everything over capacity is in flight; nothing to
                    // evict yet.
                    return;
                };
                let entry = inner.map.remove(&victim).expect("victim present");
                let bytes = match &*lock_ignoring_poison(&entry.slot.state) {
                    SlotState::Ready { bytes, .. } => *bytes,
                    _ => 0,
                };
                (victim, bytes)
            };
            let (victim, bytes) = evicted;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.evicted_bytes
                .fetch_add(bytes as u64, Ordering::Relaxed);
            let _ = self
                .resident_bytes
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_sub(bytes as u64))
                });
            if detdiv_obs::telemetry_enabled() {
                detdiv_obs::incr_counter("cache/evictions", 1);
                detdiv_obs::incr_counter("cache/evicted_bytes", bytes as u64);
            }
            if detdiv_obs::trace::armed() {
                detdiv_obs::trace::instant("cache/evict", &[("key", &victim), ("bytes", &bytes)]);
            }
        }
    }

    /// Current aggregate statistics.
    pub fn stats(&self) -> CacheStats {
        let entries = lock_ignoring_poison(&self.inner).map.len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inflight_waits: self.inflight_waits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Zeroes the event counters (resident bytes and entries are live
    /// state and are not touched). Benchmarks use this to measure one
    /// pass at a time.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.inflight_waits.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.evicted_bytes.store(0, Ordering::Relaxed);
    }

    /// Drops every resident model (event counters keep their values).
    pub fn clear(&self) {
        let mut inner = lock_ignoring_poison(&self.inner);
        inner.map.clear();
        drop(inner);
        self.resident_bytes.store(0, Ordering::Relaxed);
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        lock_ignoring_poison(&self.inner).map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Overrides the LRU capacity (entry count) for this cache.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        self.evict_over_capacity();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

// ---------------------------------------------------------------------
// Process-wide switches and the global cache.

fn enabled_flag() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| {
        let on = !matches!(
            std::env::var("DETDIV_CACHE").as_deref(),
            Ok("off") | Ok("0") | Ok("false") | Ok("OFF")
        );
        AtomicBool::new(on)
    })
}

/// Whether the trained-model cache is active. Initialised once from
/// `DETDIV_CACHE` (`off`/`0`/`false` disable it); [`set_enabled`]
/// overrides at run time.
pub fn enabled() -> bool {
    enabled_flag().load(Ordering::Relaxed)
}

/// Enables or disables the cache process-wide (e.g. for
/// `regenerate --no-cache`). Disabling does not drop resident entries;
/// pair with [`ModelCache::clear`] when memory should be released.
pub fn set_enabled(on: bool) {
    enabled_flag().store(on, Ordering::Relaxed);
}

/// Default LRU capacity: generous enough that a full paper report (a few
/// dozen distinct (kind, window) pairs) never evicts, small enough to
/// bound memory on long sweeps.
pub const DEFAULT_CAPACITY: usize = 256;

/// The process-wide model cache shared by the experiment suite. Capacity
/// comes from `DETDIV_CACHE_CAP` (default [`DEFAULT_CAPACITY`]).
pub fn global() -> &'static ModelCache {
    static GLOBAL: OnceLock<ModelCache> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let capacity = std::env::var("DETDIV_CACHE_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&c: &usize| c > 0)
            .unwrap_or(DEFAULT_CAPACITY);
        ModelCache::with_capacity(capacity)
    })
}

/// Overrides the LRU capacity of the [`global`] cache.
pub fn set_capacity(capacity: usize) {
    global().set_capacity(capacity);
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::symbols;

    struct Fixed {
        window: usize,
        bytes: usize,
    }

    impl TrainedModel for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn window(&self) -> usize {
            self.window
        }
        fn score_one(&self, _window: &[Symbol]) -> f64 {
            0.0
        }
        fn approx_bytes(&self) -> usize {
            self.bytes
        }
    }

    fn key(tag: &str) -> CacheKey {
        CacheKey::for_training(&symbols(&[1, 2, 3, 4]), tag, 2)
    }

    fn model(bytes: usize) -> Arc<dyn TrainedModel> {
        Arc::new(Fixed { window: 2, bytes })
    }

    #[test]
    fn second_request_hits() {
        let cache = ModelCache::with_capacity(8);
        let k = key("a");
        let mut trained = 0;
        let m1 = cache.get_or_train(&k, || {
            trained += 1;
            model(10)
        });
        let m2 = cache.get_or_train(&k, || {
            trained += 1;
            model(10)
        });
        assert_eq!(trained, 1);
        assert!(Arc::ptr_eq(&m1, &m2));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.resident_bytes, 10);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn traced_requests_report_their_outcome() {
        let cache = ModelCache::with_capacity(8);
        let k = key("traced");
        let (_, first) = cache.get_or_train_traced(&k, || model(1));
        let (_, second) = cache.get_or_train_traced(&k, || model(1));
        assert_eq!(first, CacheOutcome::Miss);
        assert_eq!(second, CacheOutcome::Hit);
        assert_eq!(first.label(), "miss");
        assert_eq!(second.label(), "hit");
        assert_eq!(CacheOutcome::Disabled.label(), "off");
        assert_eq!(CacheOutcome::WaitHit.label(), "wait");
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = ModelCache::with_capacity(8);
        let m1 = cache.get_or_train(&key("a"), || model(1));
        let m2 = cache.get_or_train(&key("b"), || model(2));
        assert!(!Arc::ptr_eq(&m1, &m2));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_accounts_bytes() {
        let cache = ModelCache::with_capacity(2);
        cache.get_or_train(&key("a"), || model(100));
        cache.get_or_train(&key("b"), || model(30));
        // Touch "a" so "b" is the LRU victim.
        cache.get_or_train(&key("a"), || model(100));
        cache.get_or_train(&key("c"), || model(5));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.evicted_bytes, 30);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.resident_bytes, 105);
        // "b" retrains; "a" is still resident.
        cache.get_or_train(&key("b"), || model(30));
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cache = ModelCache::with_capacity(8);
        cache.get_or_train(&key("a"), || model(7));
        cache.clear();
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.resident_bytes, 0);
        assert_eq!(stats.misses, 1);
        cache.reset_stats();
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn fingerprint_distinguishes_streams() {
        let a = fingerprint_stream(&symbols(&[1, 2, 3]));
        let b = fingerprint_stream(&symbols(&[1, 2, 4]));
        let c = fingerprint_stream(&symbols(&[1, 2, 3]));
        assert_ne!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn display_names_the_key() {
        let k = key("stide");
        let s = k.to_string();
        assert!(s.contains("stide@DW=2"), "{s}");
        assert!(s.contains("len=4"), "{s}");
    }
}
