//! Concurrency tests for the single-flight protocol: one training run
//! per key no matter how many threads race for it, panic propagation
//! that never wedges a waiter, and capacity changes that release bytes.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use detdiv_cache::{CacheKey, ModelCache};
use detdiv_core::TrainedModel;
use detdiv_sequence::{symbols, Symbol};

struct Fixed {
    bytes: usize,
}

impl TrainedModel for Fixed {
    fn name(&self) -> &str {
        "fixed"
    }
    fn window(&self) -> usize {
        2
    }
    fn score_one(&self, _window: &[Symbol]) -> f64 {
        0.25
    }
    fn approx_bytes(&self) -> usize {
        self.bytes
    }
}

fn key(tag: &str) -> CacheKey {
    CacheKey::for_training(&symbols(&[5, 6, 7, 8, 9]), tag, 2)
}

/// Blocks the leader until `want` other callers are parked on the slot's
/// condvar (visible through the `inflight_waits` counter), so the test
/// deterministically exercises the wait path rather than a lucky late
/// arrival hitting an already-published model.
fn wait_for_waiters(cache: &ModelCache, baseline: u64, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while cache.stats().inflight_waits - baseline < want {
        assert!(
            Instant::now() < deadline,
            "waiters never arrived: {} of {want}",
            cache.stats().inflight_waits - baseline
        );
        std::thread::yield_now();
    }
}

#[test]
fn n_racing_threads_train_exactly_once() {
    const CALLERS: usize = 6;
    let cache = ModelCache::with_capacity(8);
    let trained = AtomicUsize::new(0);
    let k = key("race");

    let models: Vec<Arc<dyn TrainedModel>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                let cache = &cache;
                let trained = &trained;
                let k = &k;
                scope.spawn(move || {
                    cache.get_or_train(k, || {
                        trained.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open until every other caller
                        // is parked, so all of them take the wait path.
                        wait_for_waiters(cache, 0, (CALLERS - 1) as u64);
                        Arc::new(Fixed { bytes: 64 })
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(trained.load(Ordering::SeqCst), 1, "exactly one leader");
    for m in &models[1..] {
        assert!(Arc::ptr_eq(&models[0], m), "all callers share one model");
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, (CALLERS - 1) as u64);
    assert_eq!(stats.inflight_waits, (CALLERS - 1) as u64);
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.resident_bytes, 64);
}

#[test]
fn poisoned_training_propagates_without_wedging_waiters() {
    const WAITERS: usize = 3;
    let cache = ModelCache::with_capacity(8);
    let k = key("poison");

    let outcomes: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WAITERS + 1)
            .map(|_| {
                let cache = &cache;
                let k = &k;
                scope.spawn(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        cache.get_or_train(k, || {
                            wait_for_waiters(cache, 0, WAITERS as u64);
                            panic!("synthetic training failure");
                        })
                    }));
                    match result {
                        Ok(_) => Ok(()),
                        Err(payload) => Err(payload
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                            .unwrap_or_default()),
                    }
                })
            })
            .collect();
        // join() itself proves nobody is wedged: a lost waiter would
        // hang the scope (and the 10s deadline inside the leader would
        // fire first).
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(
        outcomes.iter().all(Result::is_err),
        "every caller observes the failure: {outcomes:?}"
    );
    assert!(
        outcomes
            .iter()
            .any(|o| o.as_ref().is_err_and(|m| m == "synthetic training failure")),
        "the leader re-raises the original panic"
    );
    let relayed = outcomes
        .iter()
        .filter(|o| {
            o.as_ref()
                .is_err_and(|m| m.contains("panicked in another thread"))
        })
        .count();
    assert_eq!(relayed, WAITERS, "each waiter gets the relayed poison");

    // The poisoned slot was unlinked: the key trains afresh and works.
    assert_eq!(cache.stats().entries, 0);
    let model = cache.get_or_train(&k, || Arc::new(Fixed { bytes: 8 }));
    assert_eq!(model.scores(&symbols(&[1, 2, 3])).len(), 2);
    assert_eq!(cache.stats().entries, 1);
}

#[test]
fn double_poison_then_success_serves_every_caller() {
    const CALLERS: usize = 4;
    let cache = ModelCache::with_capacity(8);
    let attempts = AtomicUsize::new(0);
    let k = key("double-poison");

    let models: Vec<Arc<dyn TrainedModel>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                let cache = &cache;
                let attempts = &attempts;
                let k = &k;
                scope.spawn(move || loop {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        cache.get_or_train(k, || {
                            match attempts.fetch_add(1, Ordering::SeqCst) {
                                0 => {
                                    // The first leader waits until every
                                    // other caller is parked before
                                    // poisoning, so all of them exercise
                                    // the relay-and-retry path.
                                    wait_for_waiters(cache, 0, (CALLERS - 1) as u64);
                                    panic!("transient failure one");
                                }
                                1 => panic!("transient failure two"),
                                _ => Arc::new(Fixed { bytes: 16 }),
                            }
                        })
                    }));
                    match result {
                        Ok(model) => return model,
                        // Relayed poison: retry, as the supervised
                        // harness above the cache would.
                        Err(_) => std::thread::yield_now(),
                    }
                })
            })
            .collect();
        // join() proves nobody wedged on a slot whose leader unwound.
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        attempts.load(Ordering::SeqCst),
        3,
        "two poisoned runs, then exactly one successful training run"
    );
    for m in &models[1..] {
        assert!(
            Arc::ptr_eq(&models[0], m),
            "every caller converges on the one published model"
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.resident_bytes, 16);
}

#[test]
fn eviction_never_drops_an_in_flight_slot() {
    let cache = ModelCache::with_capacity(1);
    let release = AtomicBool::new(false);
    let ka = key("inflight-a");
    let kb = key("inflight-b");

    std::thread::scope(|scope| {
        let leader = scope.spawn(|| {
            cache.get_or_train(&ka, || {
                // Hold the flight open until the main thread has forced
                // an eviction pass with this slot still in flight.
                let deadline = Instant::now() + Duration::from_secs(10);
                while !release.load(Ordering::SeqCst) {
                    assert!(Instant::now() < deadline, "leader never released");
                    std::thread::yield_now();
                }
                Arc::new(Fixed { bytes: 64 })
            })
        });
        // Make sure the leader has claimed its slot before the waiter
        // arrives, so the waiter cannot accidentally lead.
        let deadline = Instant::now() + Duration::from_secs(10);
        while cache.stats().misses < 1 {
            assert!(Instant::now() < deadline, "leader never claimed the slot");
            std::thread::yield_now();
        }
        let waiter =
            scope.spawn(|| cache.get_or_train(&ka, || unreachable!("the waiter must never lead")));
        wait_for_waiters(&cache, 0, 1);

        // Publishing a second key overflows capacity 1 while the first
        // is still in flight. The eviction pass must pick the only
        // Ready entry (the one just published) and leave the in-flight
        // slot — and its parked waiter — untouched.
        cache.get_or_train(&kb, || Arc::new(Fixed { bytes: 8 }));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1, "the ready entry was the victim");
        assert_eq!(stats.evicted_bytes, 8);
        assert_eq!(stats.entries, 1, "only the in-flight slot remains");

        release.store(true, Ordering::SeqCst);
        let a1 = leader.join().unwrap();
        let a2 = waiter.join().unwrap();
        assert!(
            Arc::ptr_eq(&a1, &a2),
            "the parked waiter received the model published after the eviction pass"
        );
    });

    // The in-flight slot survived eviction and is now the resident entry.
    let stats = cache.stats();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.resident_bytes, 64);
    let again = cache.get_or_train(&ka, || panic!("must be served from cache"));
    assert_eq!(again.scores(&symbols(&[1, 2, 3])).len(), 2);
}

#[test]
fn shrinking_capacity_releases_bytes() {
    let cache = ModelCache::with_capacity(8);
    for (i, bytes) in [10usize, 20, 30, 40].iter().enumerate() {
        cache.get_or_train(&key(&format!("cap-{i}")), || {
            Arc::new(Fixed { bytes: *bytes })
        });
    }
    assert_eq!(cache.stats().resident_bytes, 100);
    assert_eq!(cache.stats().entries, 4);

    // Shrinking evicts the least recently used entries immediately.
    cache.set_capacity(2);
    let stats = cache.stats();
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.evictions, 2);
    assert_eq!(stats.evicted_bytes, 10 + 20, "oldest two evicted");
    assert_eq!(stats.resident_bytes, 30 + 40);
}
