//! Coverage-map experiments: Figures 3–6.
//!
//! For each detector window DW of the corpus, a detector is trained
//! once on the training stream (through the single-flight model cache —
//! see `detdiv-cache` — from the sweep's one census of that stream, a
//! `detdiv_sequence::StreamProfile`) and evaluated on every anomaly
//! size AS; the blind/weak/capable verdict fills the (AS, DW) cell. The
//! x-axis additionally carries the paper's *undefined* column at AS = 1
//! (a size-1 sequence cannot be simultaneously foreign and rare, §6).
//!
//! # Parallelism
//!
//! Grid rows are independent: each (detector, DW) pair scores its own
//! immutable trained model and touches disjoint cells. [`coverage_map`] and
//! [`coverage_maps_for`] therefore fan the rows out over the
//! [`detdiv_par`] global pool and merge the finished rows back in grid
//! order, so the resulting maps are bit-for-bit identical to the serial
//! computation regardless of `DETDIV_THREADS` (asserted by
//! `tests/par_determinism.rs`).

use detdiv_cache::ModelCache;
use detdiv_core::{evaluate_case, CellStatus, CoverageMap};
use detdiv_resil::{CellOutcome, RetryPolicy};
use detdiv_sequence::StreamProfile;
use detdiv_synth::Corpus;

use crate::cached::trained_model_in;
use crate::checkpoint;
use crate::error::HarnessError;
use crate::kinds::DetectorKind;

/// One finished grid row: every (AS → cell) verdict for a single
/// detector window, produced by [`coverage_row`].
type CoverageRow = Vec<(usize, CellStatus)>;

/// The supervision policy for one grid row: `catch_unwind` + bounded
/// retry, so a poisoned row degrades to a marked [`CellStatus::Failed`]
/// stripe instead of killing the sweep. Rows are deterministic, so a
/// retried row recomputes the identical cells.
fn row_policy() -> RetryPolicy {
    RetryPolicy::default()
}

/// What the rows of one sweep share: the read-only corpus, its training
/// stream's census and [`detdiv_cache::fingerprint_stream`] — each
/// built once per sweep rather than once per row — and the model cache.
struct Sweep<'a> {
    corpus: &'a Corpus,
    profile: StreamProfile<'a>,
    fingerprint: u64,
    cache: &'a ModelCache,
}

impl<'a> Sweep<'a> {
    /// Fingerprints the training stream and counts its windows at the
    /// corpus's largest DW, so the counter of every smaller DW is a fold
    /// of that one rather than another pass over the stream.
    fn new(corpus: &'a Corpus, cache: &'a ModelCache) -> Self {
        let training = corpus.training();
        let profile = StreamProfile::new(training);
        profile.counter(corpus.config().max_window());
        Sweep {
            corpus,
            profile,
            fingerprint: detdiv_cache::fingerprint_stream(training),
            cache,
        }
    }
}

/// Obtains the `(kind, window)` model — trained from the sweep's census
/// on first demand, shared from the single-flight cache thereafter — and
/// scores it against every anomaly size of the corpus, returning the
/// row's cells in ascending AS order. This is the unit of parallel work:
/// rows share nothing but the read-only [`Sweep`] and the immutable
/// cached models.
fn coverage_row(
    sweep: &Sweep<'_>,
    kind: &DetectorKind,
    window: usize,
) -> Result<CoverageRow, HarnessError> {
    let corpus = sweep.corpus;
    let config = corpus.config();
    let (detector, origin) =
        trained_model_in(sweep.cache, sweep.fingerprint, &sweep.profile, kind, window);
    let mut row = Vec::with_capacity(config.anomaly_sizes().count());
    for anomaly_size in config.anomaly_sizes() {
        let cell_started = std::time::Instant::now();
        // Fault site for scoring; the `armed` guard keeps the disarmed
        // hot path free of the site-name allocation.
        if detdiv_resil::armed() {
            detdiv_resil::point(&format!("score/{}", kind.name()));
        }
        let case = corpus.case(anomaly_size, window)?;
        let outcome = evaluate_case(detector.as_ref(), &case)?;
        detdiv_obs::record_cell(kind.name(), window, anomaly_size, cell_started.elapsed());
        let status = CellStatus::from(outcome.classification());
        // One wide event per cell decision: the audit-log leg of the
        // paper grid. Payloads are timestamp-free, so repeat runs dump
        // identical bytes (`flightcheck` cross-checks these records
        // against the finished coverage maps).
        if detdiv_flight::armed() {
            let span = outcome.span();
            detdiv_flight::record(
                detdiv_flight::CellRecord {
                    corpus: origin.corpus,
                    training_len: origin.training_len,
                    detector: kind.name(),
                    window,
                    anomaly_size,
                    verdict: checkpoint::status_letter(status),
                    score: outcome.max_response(),
                    threshold: detector.maximal_response_floor(),
                    event_index: outcome.max_position(),
                    span_first: span.first(),
                    span_last: span.last(),
                    cache: origin.cache,
                    retries: origin.retries,
                }
                .render(),
            );
        }
        row.push((anomaly_size, status));
    }
    // AS = 1 stays Undefined: a one-element sequence cannot be both
    // foreign and rare (§6).
    detdiv_obs::debug!(
        "coverage row complete",
        detector = kind.name(),
        window = window,
    );
    Ok(row)
}

/// Computes the detection-coverage map of one detector family over the
/// corpus's full (AS, DW) grid.
///
/// # Errors
///
/// Propagates synthesis lookups and evaluation-geometry failures as
/// [`HarnessError`].
///
/// # Examples
///
/// ```
/// use detdiv_eval::{coverage_map, DetectorKind};
/// use detdiv_synth::{Corpus, SynthesisConfig};
///
/// let config = SynthesisConfig::builder()
///     .training_len(30_000)
///     .anomaly_sizes(2..=3)
///     .windows(2..=4)
///     .background_len(512)
///     .build()
///     .unwrap();
/// let corpus = Corpus::synthesize(&config).unwrap();
/// let map = coverage_map(&corpus, &DetectorKind::Stide).unwrap();
/// // Stide detects exactly when DW >= AS.
/// assert!(map.detects(2, 2).unwrap());
/// assert!(map.detects(3, 4).unwrap());
/// assert!(!map.detects(3, 2).unwrap());
/// ```
pub fn coverage_map(corpus: &Corpus, kind: &DetectorKind) -> Result<CoverageMap, HarnessError> {
    let mut maps = coverage_maps_in(corpus, std::slice::from_ref(kind), detdiv_cache::global())?;
    Ok(maps.remove(0))
}

/// Writes one supervised row outcome into the map: a completed row
/// fills its cells; a permanently failed row fills the window's stripe
/// with [`CellStatus::Failed`] (rendered `!`) and logs the degradation,
/// keeping the rest of the sweep intact.
fn merge_row_outcome(
    map: &mut CoverageMap,
    anomaly_sizes: impl Iterator<Item = usize>,
    window: usize,
    outcome: CellOutcome<CoverageRow>,
) -> Result<(), HarnessError> {
    match outcome {
        CellOutcome::Ok { value: row, .. } => {
            for (anomaly_size, status) in row {
                map.set(anomaly_size, window, status)?;
            }
        }
        CellOutcome::Failed {
            site,
            attempts,
            error,
        } => {
            detdiv_obs::warn!(
                "coverage row degraded",
                site = site,
                attempts = attempts,
                error = error,
            );
            for anomaly_size in anomaly_sizes {
                map.set(anomaly_size, window, CellStatus::Failed)?;
            }
        }
    }
    Ok(())
}

/// Computes one coverage map per detector kind, fanning every
/// (kind, DW) row out over the global pool in a single parallel map so
/// cross-detector work interleaves freely. Maps are returned in `kinds`
/// order and are identical to calling [`coverage_map`] per kind.
///
/// # Errors
///
/// Returns the error of the first failing row in (kind, DW) grid order,
/// independent of worker scheduling.
pub fn coverage_maps_for(
    corpus: &Corpus,
    kinds: &[DetectorKind],
) -> Result<Vec<CoverageMap>, HarnessError> {
    coverage_maps_in(corpus, kinds, detdiv_cache::global())
}

/// [`coverage_maps_for`], acquiring its models through `cache`.
fn coverage_maps_in(
    corpus: &Corpus,
    kinds: &[DetectorKind],
    cache: &ModelCache,
) -> Result<Vec<CoverageMap>, HarnessError> {
    let config = corpus.config();
    let windows: Vec<usize> = config.windows().collect();
    let jobs: Vec<(usize, usize)> = (0..kinds.len())
        .flat_map(|kind_index| windows.iter().map(move |&window| (kind_index, window)))
        .collect();
    let parent = detdiv_obs::current_path();
    let sweep = Sweep::new(corpus, cache);
    let tag = checkpoint::corpus_tag(corpus, sweep.fingerprint);
    let rows = detdiv_par::par_try_map_supervised(
        &jobs,
        &row_policy(),
        |_, &(kind_index, window)| format!("row/{}/{window}", kinds[kind_index].name()),
        |&(kind_index, window)| -> Result<CoverageRow, HarnessError> {
            let kind = &kinds[kind_index];
            if let Some(row) = tag
                .as_deref()
                .and_then(|tag| checkpoint::lookup(tag, kind, window))
            {
                return Ok(row);
            }
            let _ctx = detdiv_obs::context(&parent);
            let _span = detdiv_obs::span!("coverage", detector = kind.name());
            let row = coverage_row(&sweep, kind, window)?;
            if let Some(tag) = tag.as_deref() {
                checkpoint::record(tag, kind, window, &row);
            }
            Ok(row)
        },
    )?;
    let mut maps: Vec<CoverageMap> = kinds
        .iter()
        .map(|kind| {
            CoverageMap::new(
                kind.name(),
                1..=config.max_anomaly(),
                *config.windows().start()..=config.max_window(),
            )
        })
        .collect();
    for (&(kind_index, window), outcome) in jobs.iter().zip(rows) {
        merge_row_outcome(
            &mut maps[kind_index],
            config.anomaly_sizes(),
            window,
            outcome,
        )?;
    }
    Ok(maps)
}

/// Convenience: the four maps of the paper's Figures 3–6, in figure
/// order (L&B, Markov, Stide, neural network), computed with every
/// (detector, DW) row fanned out in parallel.
///
/// # Errors
///
/// Propagates the first failing row computation.
pub fn paper_coverage_maps(corpus: &Corpus) -> Result<Vec<CoverageMap>, HarnessError> {
    coverage_maps_for(corpus, &DetectorKind::paper_four())
}

/// The analytically expected Stide map: detect iff `DW >= AS`
/// (§7: "this foreign sequence is only visible if the length of the
/// detector window is at least as large as the length of the foreign
/// sequence"). Used by tests and by EXPERIMENTS.md's paper-vs-measured
/// comparison.
pub fn expected_stide_map(corpus: &Corpus) -> CoverageMap {
    let config = corpus.config();
    let mut map = CoverageMap::new(
        "stide (expected)",
        1..=config.max_anomaly(),
        *config.windows().start()..=config.max_window(),
    );
    for window in config.windows() {
        for anomaly_size in config.anomaly_sizes() {
            let status = if window >= anomaly_size {
                CellStatus::Detect
            } else {
                CellStatus::Blind
            };
            map.set(anomaly_size, window, status)
                .expect("cell within grid by construction");
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_synth::SynthesisConfig;

    fn corpus() -> Corpus {
        let config = SynthesisConfig::builder()
            .training_len(40_000)
            .anomaly_sizes(2..=4)
            .windows(2..=6)
            .background_len(512)
            .plant_repeats(4)
            .seed(77)
            .build()
            .unwrap();
        Corpus::synthesize(&config).unwrap()
    }

    #[test]
    fn stide_map_matches_theory() {
        let corpus = corpus();
        let measured = coverage_map(&corpus, &DetectorKind::Stide).unwrap();
        let expected = expected_stide_map(&corpus);
        for (a, w, cell) in expected.iter() {
            if cell.is_defined() {
                assert_eq!(
                    measured.detects(a, w).unwrap(),
                    cell.is_detection(),
                    "cell (AS {a}, DW {w})"
                );
            }
        }
    }

    #[test]
    fn markov_map_covers_everything() {
        let corpus = corpus();
        let map = coverage_map(&corpus, &DetectorKind::Markov).unwrap();
        for a in 2..=4 {
            for w in 2..=6 {
                assert!(map.detects(a, w).unwrap(), "cell (AS {a}, DW {w})");
            }
        }
    }

    #[test]
    fn lane_brodley_never_detects() {
        let corpus = corpus();
        let map = coverage_map(&corpus, &DetectorKind::LaneBrodley).unwrap();
        assert_eq!(map.detection_count(), 0);
    }

    #[test]
    fn neural_map_mimics_markov() {
        let corpus = corpus();
        let nn = coverage_map(&corpus, &DetectorKind::neural_default()).unwrap();
        let markov = coverage_map(&corpus, &DetectorKind::Markov).unwrap();
        for a in 2..=4 {
            for w in 2..=6 {
                assert_eq!(
                    nn.detects(a, w).unwrap(),
                    markov.detects(a, w).unwrap(),
                    "cell (AS {a}, DW {w})"
                );
            }
        }
    }

    #[test]
    fn coverage_maps_for_matches_per_kind_maps() {
        let corpus = corpus();
        let kinds = [
            DetectorKind::Stide,
            DetectorKind::Markov,
            DetectorKind::LaneBrodley,
        ];
        let fanned = coverage_maps_for(&corpus, &kinds).unwrap();
        assert_eq!(fanned.len(), kinds.len());
        for (kind, map) in kinds.iter().zip(&fanned) {
            assert_eq!(
                map,
                &coverage_map(&corpus, kind).unwrap(),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn sweep_keys_match_per_call_keys_and_leave_the_models_cached() {
        // The sweep keys models by a fingerprint it computes once; if
        // that key drifted from the per-call one, every later
        // `trained_model` would silently retrain.
        let _guard = crate::test_lock();
        let corpus = corpus();
        let training = corpus.training();
        let fingerprint = detdiv_cache::fingerprint_stream(training);
        let kinds = [DetectorKind::TStide, DetectorKind::Markov];
        for kind in &kinds {
            for window in corpus.config().windows() {
                assert_eq!(
                    crate::cached::model_key(fingerprint, training, kind, window),
                    detdiv_cache::CacheKey::for_training(training, format!("{kind:?}"), window),
                );
            }
        }
        coverage_maps_for(&corpus, &kinds).unwrap();
        if detdiv_cache::enabled() {
            for kind in &kinds {
                for window in corpus.config().windows() {
                    let (_, origin) =
                        crate::cached::trained_model_with_origin(training, kind, window);
                    assert_eq!(origin.cache, "hit", "{} at DW {window}", kind.name());
                }
            }
        }
    }

    #[test]
    fn shared_census_sweep_equals_per_call_models_at_every_width_and_cache_mode() {
        // Every model of the sweep trains from one shared profile; each
        // cell must equal the verdict of a model `trained_model` trains
        // from a profile of its own. The census lives beside the sweep,
        // not in the model cache: one miss per (family, DW), none more.
        let _guard = crate::test_lock();
        let corpus = corpus();
        let config = corpus.config();
        let kinds = [
            DetectorKind::Stide,
            DetectorKind::TStide,
            DetectorKind::Markov,
            DetectorKind::LaneBrodley,
        ];
        // With the cache off, each `trained_model` call trains afresh
        // (on the global cache, models a concurrent sweep of this corpus
        // left behind would answer instead).
        let cache_was_on = detdiv_cache::enabled();
        detdiv_cache::set_enabled(false);
        let mut expected = Vec::new();
        for kind in &kinds {
            let mut map = CoverageMap::new(kind.name(), 1..=config.max_anomaly(), config.windows());
            for window in config.windows() {
                let model = crate::cached::trained_model(corpus.training(), kind, window);
                for anomaly_size in config.anomaly_sizes() {
                    let case = corpus.case(anomaly_size, window).unwrap();
                    let outcome = evaluate_case(model.as_ref(), &case).unwrap();
                    map.set(anomaly_size, window, outcome.classification().into())
                        .unwrap();
                }
            }
            expected.push(map);
        }
        for width in [1, 4] {
            for cache_on in [true, false] {
                detdiv_par::global().set_threads(Some(width));
                detdiv_cache::set_enabled(cache_on);
                let cache = ModelCache::with_capacity(detdiv_cache::DEFAULT_CAPACITY);
                let maps = coverage_maps_in(&corpus, &kinds, &cache).unwrap();
                let misses = if cache_on {
                    kinds.len() * config.windows().count()
                } else {
                    0
                };
                let stats = cache.stats();
                detdiv_par::global().set_threads(None);
                detdiv_cache::set_enabled(cache_was_on);
                assert_eq!(maps, expected, "width {width}, cache on: {cache_on}");
                assert_eq!(
                    stats.misses, misses as u64,
                    "width {width}, cache on: {cache_on}"
                );
            }
        }
    }

    #[test]
    fn undefined_column_at_anomaly_size_one() {
        let corpus = corpus();
        let map = coverage_map(&corpus, &DetectorKind::Stide).unwrap();
        for w in 2..=6 {
            assert_eq!(map.get(1, w).unwrap(), CellStatus::Undefined);
        }
    }
}
