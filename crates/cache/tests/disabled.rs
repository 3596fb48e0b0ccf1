//! `DETDIV_CACHE=off` inertness: a disabled cache is a pure
//! pass-through — every call trains, nothing is retained, and no
//! statistics are recorded.
//!
//! This lives in its own integration-test binary because it initialises
//! the process-wide enable flag from the environment and then flips it
//! with [`detdiv_cache::set_enabled`]; sharing a process with tests
//! that rely on the cache being on would race on that flag.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use detdiv_cache::{enabled, set_enabled, CacheKey, ModelCache};
use detdiv_core::TrainedModel;
use detdiv_sequence::{symbols, Symbol};

struct Fixed;

impl TrainedModel for Fixed {
    fn name(&self) -> &str {
        "fixed"
    }
    fn window(&self) -> usize {
        2
    }
    fn score_one(&self, _window: &[Symbol]) -> f64 {
        0.5
    }
}

#[test]
fn disabled_cache_is_a_pure_pass_through() {
    // The flag initialises from DETDIV_CACHE exactly once; force the
    // environment before the first read so this binary starts disabled
    // the same way `DETDIV_CACHE=off regenerate` does.
    std::env::set_var("DETDIV_CACHE", "off");
    assert!(!enabled(), "DETDIV_CACHE=off disables the cache at startup");

    let cache = ModelCache::with_capacity(8);
    let k = CacheKey::for_training(&symbols(&[1, 2, 3, 4]), "stide", 2);
    let trained = AtomicUsize::new(0);
    // Captures by reference only, so the closure is `Copy` and can be
    // handed to `get_or_train` (an `FnOnce` bound) repeatedly.
    let train = || {
        trained.fetch_add(1, Ordering::SeqCst);
        Arc::new(Fixed) as Arc<dyn TrainedModel>
    };

    let m1 = cache.get_or_train(&k, train);
    let m2 = cache.get_or_train(&k, train);
    assert_eq!(trained.load(Ordering::SeqCst), 2, "every call trains");
    assert!(!Arc::ptr_eq(&m1, &m2), "no sharing when disabled");
    assert!(cache.is_empty(), "nothing is retained");
    let stats = cache.stats();
    assert_eq!(
        (
            stats.hits,
            stats.misses,
            stats.inflight_waits,
            stats.evictions
        ),
        (0, 0, 0, 0),
        "no statistics are recorded"
    );
    assert_eq!(stats.resident_bytes, 0);

    // Re-enabling at run time (the `set_enabled(true)` path) restores
    // normal memoization on the very next call.
    set_enabled(true);
    let m3 = cache.get_or_train(&k, train);
    let m4 = cache.get_or_train(&k, train);
    assert_eq!(trained.load(Ordering::SeqCst), 3, "one more training run");
    assert!(Arc::ptr_eq(&m3, &m4));
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(cache.len(), 1);
}
