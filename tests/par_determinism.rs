//! The determinism harness for the parallel grid-sweep executor.
//!
//! The `detdiv-par` pool promises that its output is a function of the
//! *input* alone — never of the worker count, chunk boundaries, or
//! scheduling. These tests hold the whole evaluation pipeline to that
//! promise: coverage maps, full reports, and rendered figures must be
//! bit-for-bit identical at every thread count — and, since PR 4,
//! whether or not the single-flight trained-model cache is sharing
//! models across those threads — thousands of tiny jobs
//! must merge losslessly, panics must propagate without poisoning the
//! pool, and a property test checks parallel-map == serial-map for
//! arbitrary inputs and pool widths.
//!
//! The global pool's thread override is process-global, so every test
//! that touches it runs under [`POOL_LOCK`].

use std::sync::Mutex;

use detdiv::eval::{coverage_maps_for, paper_coverage_maps};
use detdiv::par;
use detdiv::prelude::*;
use proptest::prelude::*;

/// Serializes tests that reconfigure the global pool.
static POOL_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the global pool pinned to `threads` workers, releasing
/// the override afterwards even on panic (the lock tolerates poison).
fn with_global_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    struct Release;
    impl Drop for Release {
        fn drop(&mut self) {
            par::global().set_threads(None);
        }
    }
    let _release = Release;
    par::global().set_threads(Some(threads));
    f()
}

fn lock_pool() -> std::sync::MutexGuard<'static, ()> {
    POOL_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

fn small_corpus() -> Corpus {
    let config = SynthesisConfig::builder()
        .training_len(30_000)
        .anomaly_sizes(2..=4)
        .windows(2..=5)
        .background_len(512)
        .plant_repeats(4)
        .seed(77)
        .build()
        .expect("valid config");
    Corpus::synthesize(&config).expect("corpus")
}

/// Headline: the paper's four coverage maps serialize to identical
/// bytes for every thread count, including widths far beyond the job
/// count.
#[test]
fn paper_coverage_maps_are_byte_identical_across_thread_counts() {
    let _guard = lock_pool();
    let corpus = small_corpus();
    let reference = with_global_threads(1, || paper_coverage_maps(&corpus).expect("maps"));
    let reference_bytes = serde_json::to_string(&reference).expect("serialize");
    for threads in [2usize, 4, 8] {
        let maps = with_global_threads(threads, || paper_coverage_maps(&corpus).expect("maps"));
        assert_eq!(
            maps, reference,
            "coverage maps diverged at {threads} threads"
        );
        let bytes = serde_json::to_string(&maps).expect("serialize");
        assert_eq!(
            bytes, reference_bytes,
            "serialized bytes diverged at {threads} threads"
        );
    }
}

/// The rendered ASCII figures (what EXPERIMENTS.md quotes) are equally
/// schedule-independent.
#[test]
fn rendered_figures_are_identical_across_thread_counts() {
    let _guard = lock_pool();
    let corpus = small_corpus();
    let render = |threads: usize| {
        with_global_threads(threads, || {
            paper_coverage_maps(&corpus)
                .expect("maps")
                .iter()
                .map(detdiv::core::CoverageMap::render)
                .collect::<Vec<String>>()
        })
    };
    let serial = render(1);
    assert_eq!(serial, render(4));
    assert_eq!(serial, render(8));
}

/// A single-kind fan-out and the all-kinds fan-out agree with each
/// other at every width: the merge is independent of how jobs were
/// grouped.
#[test]
fn grouped_and_ungrouped_fanouts_agree() {
    let _guard = lock_pool();
    let corpus = small_corpus();
    let kinds = [DetectorKind::Stide, DetectorKind::Markov];
    let grouped = with_global_threads(3, || coverage_maps_for(&corpus, &kinds).expect("maps"));
    for (kind, map) in kinds.iter().zip(&grouped) {
        let single = with_global_threads(5, || coverage_map(&corpus, kind).expect("map"));
        assert_eq!(&single, map, "{}", kind.name());
    }
}

/// The full report — every figure, combination, ablation and analysis
/// of the paper — serializes to identical bytes at 1 and 4 threads once
/// the wall-time telemetry attachment is cleared. (Telemetry is the
/// *only* field allowed to differ: it records durations. The
/// `DETDIV_LOG=off` path, where the snapshot is empty and the raw bytes
/// must match, is exercised end-to-end by `scripts/ci.sh`'s
/// determinism gate.)
#[test]
fn full_report_is_byte_identical_across_thread_counts() {
    let _guard = lock_pool();
    let corpus = small_corpus();
    let report_at = |threads: usize| {
        with_global_threads(threads, || {
            let mut report = FullReport::generate_on(&corpus).expect("report");
            report.telemetry = Default::default();
            report
        })
    };
    let serial = report_at(1);
    let parallel = report_at(4);
    assert_eq!(
        serde_json::to_string(&serial).expect("serialize"),
        serde_json::to_string(&parallel).expect("serialize"),
        "report bytes diverged between 1 and 4 threads"
    );
    assert_eq!(serial.render_text(), parallel.render_text());
}

/// The cache axis: the full report serializes to identical bytes across
/// {cache on, cache off} × {1, 4} threads. The single-flight
/// trained-model cache may only change *when* a model is trained, never
/// what any detector reports — and the cached passes must actually hit
/// (a zero hit count would mean the axis was not exercised).
#[test]
fn full_report_is_byte_identical_across_cache_and_thread_axes() {
    let _guard = lock_pool();
    struct RestoreCache;
    impl Drop for RestoreCache {
        fn drop(&mut self) {
            detdiv::cache::set_enabled(true);
        }
    }
    let _restore = RestoreCache;

    let corpus = small_corpus();
    let report_at = |cache_on: bool, threads: usize| {
        detdiv::cache::set_enabled(cache_on);
        with_global_threads(threads, || {
            let mut report = FullReport::generate_on(&corpus).expect("report");
            report.telemetry = Default::default();
            serde_json::to_string(&report).expect("serialize")
        })
    };

    let reference = report_at(true, 1);
    let stats_before = detdiv::cache::global().stats();
    for (cache_on, threads) in [(true, 4), (false, 1), (false, 4)] {
        assert_eq!(
            report_at(cache_on, threads),
            reference,
            "report bytes diverged at cache={cache_on} threads={threads}"
        );
    }
    let stats_after = detdiv::cache::global().stats();
    assert!(
        stats_after.hits > stats_before.hits,
        "the cached pass must share models (hits {} -> {})",
        stats_before.hits,
        stats_after.hits
    );
}

/// Stress: thousands of tiny jobs with data-dependent results merge
/// into exactly the serial output, repeatedly, on one shared pool.
#[test]
fn stress_thousands_of_tiny_jobs_merge_losslessly() {
    let pool = par::Pool::with_threads(8);
    let items: Vec<u64> = (0..5_000).collect();
    let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0x9e37).collect();
    for round in 0..20 {
        let got = pool.map(&items, |&x| x.wrapping_mul(x) ^ 0x9e37);
        assert_eq!(got, expected, "round {round}");
    }
    assert_eq!(pool.stats().total_jobs(), 20 * 5_000);
}

/// Stress: a panicking job propagates its payload, the remaining jobs
/// still complete, and the pool stays usable afterwards.
#[test]
fn stress_panicking_jobs_do_not_poison_the_pool() {
    let pool = par::Pool::with_threads(4);
    let items: Vec<usize> = (0..1_000).collect();
    for _ in 0..5 {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(&items, |&x| {
                if x == 613 {
                    panic!("job 613 exploded");
                }
                x * 2
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(message.contains("613"), "unexpected payload {message:?}");
        // The pool is immediately reusable.
        let ok = pool.map(&items, |&x| x + 1);
        assert_eq!(ok[999], 1_000);
    }
}

/// Stress: errors abort deterministically — the reported failure is
/// always the smallest failing index, at every width.
#[test]
fn stress_error_selection_is_schedule_independent() {
    let items: Vec<usize> = (0..2_000).collect();
    for threads in [1usize, 2, 4, 8] {
        let pool = par::Pool::with_threads(threads);
        let err = pool
            .try_map(&items, |&x| {
                if x % 977 == 976 {
                    Err(format!("fail at {x}"))
                } else {
                    Ok(x)
                }
            })
            .expect_err("some job must fail");
        assert_eq!(err, "fail at 976", "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For arbitrary inputs and pool widths, parallel map equals the
    /// serial map — element for element, in order.
    #[test]
    fn parallel_map_equals_serial_map(
        items in proptest::collection::vec(-1_000_000i64..1_000_000, 0..200),
        threads in 1usize..=8,
    ) {
        let pool = par::Pool::with_threads(threads);
        let f = |&x: &i64| x.wrapping_mul(31).rotate_left(7) ^ 0x5bd1;
        let serial: Vec<i64> = items.iter().map(f).collect();
        let parallel = pool.map(&items, f);
        prop_assert_eq!(parallel, serial);
    }

    /// Fallible maps agree with the serial fold: same success vector,
    /// or the error of the first failing element.
    #[test]
    fn parallel_try_map_equals_serial_try_fold(
        items in proptest::collection::vec(0u32..50, 0..120),
        threads in 1usize..=6,
    ) {
        let pool = par::Pool::with_threads(threads);
        let f = |&x: &u32| if x == 13 { Err(x) } else { Ok(x * 3) };
        let serial: Result<Vec<u32>, u32> = items.iter().map(f).collect();
        let parallel = pool.try_map(&items, f);
        prop_assert_eq!(parallel, serial);
    }
}
