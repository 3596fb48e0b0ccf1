//! Ablation experiments: ABL1 (maximal-response semantics), ABL2
//! (Stide's locality frame count), ABL3 (neural-network parameter
//! sensitivity).

use detdiv_core::{
    alarms_at, analyze_alarms, evaluate_case, CoverageMap, IncidentSpan, LabeledCase,
};
use detdiv_detectors::{locality_frame_count, NeuralConfig};
use detdiv_synth::Corpus;
use serde::{Deserialize, Serialize};

use crate::cached::trained_model;
use crate::coverage::{coverage_map, coverage_maps_for};
use crate::error::HarnessError;
use crate::kinds::DetectorKind;

/// ABL1: strict vs rare-tolerant maximal-response semantics for the
/// Markov detector (DESIGN.md §2.3).
///
/// Under the paper's semantics (responses at or above `1 − r` are
/// maximal) the Markov detector covers the whole grid (Figure 4); under
/// strict `score == 1` semantics only zero-probability transitions
/// count, and the planted-context construction collapses its coverage to
/// Stide's `DW >= AS` triangle — the tolerance for rare-transition
/// responses is precisely what buys the Markov detector its edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SemanticsAblation {
    /// Coverage under the paper's rare-tolerant rule.
    pub tolerant_map: CoverageMap,
    /// Coverage under the strict rule.
    pub strict_map: CoverageMap,
    /// Detection counts (tolerant, strict).
    pub detections: (usize, usize),
    /// Whether the strict map's detection region equals measured
    /// Stide's.
    pub strict_equals_stide: bool,
}

/// Runs ABL1 on `corpus`.
///
/// # Errors
///
/// Propagates coverage-map computation failures.
pub fn abl1_maximal_response_semantics(corpus: &Corpus) -> Result<SemanticsAblation, HarnessError> {
    // One fan-out over all three families' (detector, DW) rows.
    let mut maps = coverage_maps_for(
        corpus,
        &[
            DetectorKind::Markov,
            DetectorKind::MarkovStrict,
            DetectorKind::Stide,
        ],
    )?;
    let stide_map = maps.pop().expect("three maps requested");
    let strict_map = maps.pop().expect("three maps requested");
    let tolerant_map = maps.pop().expect("three maps requested");
    let strict_equals_stide =
        strict_map.is_subset_of(&stide_map)? && stide_map.is_subset_of(&strict_map)?;
    Ok(SemanticsAblation {
        detections: (tolerant_map.detection_count(), strict_map.detection_count()),
        strict_equals_stide,
        tolerant_map,
        strict_map,
    })
}

/// One row of the ABL2 locality-frame-count table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LfcRow {
    /// Locality frame length (1 = plain Stide).
    pub frame: usize,
    /// Alarm threshold applied to the LFC score (fraction of mismatches
    /// within the frame).
    pub threshold: f64,
    /// Whether the injected anomaly was hit.
    pub hit: bool,
    /// Out-of-span alarms.
    pub false_alarms: usize,
}

/// ABL2: what the locality frame count does to Stide — the
/// post-processing the paper deliberately set aside (§5.5).
///
/// On a noisy background, larger frames suppress isolated foreign
/// windows (false alarms) but also dilute the genuine anomaly's burst of
/// foreign windows; at strict thresholds the anomaly itself is lost.
///
/// # Errors
///
/// Propagates synthesis and evaluation-geometry failures.
pub fn abl2_locality_frame_count(
    corpus: &Corpus,
    window: usize,
    anomaly_size: usize,
    background_len: usize,
    seed: u64,
) -> Result<Vec<LfcRow>, HarnessError> {
    let case = corpus.noisy_case(anomaly_size, background_len, seed)?;
    let test = case.test_stream();
    let span = IncidentSpan::compute(
        test.len(),
        window,
        case.injection_position(),
        case.anomaly_len(),
    )?;
    // The frame count post-processes one Stide response vector: score
    // once, fan the frames out and flatten the per-frame threshold rows
    // in job order, so the table is identical to the serial nested loop.
    let raw = trained_model(case.training(), &DetectorKind::Stide, window).scores(test);
    let frames = [1usize, 5, 20];
    let per_frame = detdiv_par::par_try_map(&frames, |&frame| {
        let scores = locality_frame_count(&raw, frame);
        let mut rows = Vec::with_capacity(3);
        for threshold in [0.2, 0.5, 1.0] {
            let alarms = alarms_at(&scores, threshold);
            let a = analyze_alarms(&alarms, span)?;
            rows.push(LfcRow {
                frame,
                threshold,
                hit: a.hit,
                false_alarms: a.false_alarms,
            });
        }
        Ok::<_, HarnessError>(rows)
    })?;
    Ok(per_frame.into_iter().flatten().collect())
}

/// One row of the ABL3 neural-network sensitivity sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NnSensitivityRow {
    /// Hidden-layer width.
    pub hidden: usize,
    /// Learning constant.
    pub learning_rate: f64,
    /// Momentum constant.
    pub momentum: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Maximum response registered in the incident span.
    pub max_response: f64,
    /// Whether the detector was capable at its detection floor.
    pub capable: bool,
}

/// ABL3: the paper's §7 caveat, measured — "the performance of a
/// multi-layer, feed-forward network relies on a balance of parameter
/// values ... Some combinations of these values may result in weakened
/// anomaly signals."
///
/// Sweeps hidden width, learning constant and momentum at one (AS, DW)
/// cell and reports the in-span maximum response per configuration.
///
/// # Errors
///
/// Propagates synthesis and evaluation failures.
pub fn abl3_nn_sensitivity(
    corpus: &Corpus,
    window: usize,
    anomaly_size: usize,
) -> Result<Vec<NnSensitivityRow>, HarnessError> {
    let case = corpus.case(anomaly_size, window)?;
    // Enumerate the 16 configurations in the original nesting order,
    // then fan the independent train/evaluate jobs out; results come
    // back pre-indexed, so the table order is scheduling-independent.
    let mut configs = Vec::with_capacity(16);
    for &hidden in &[2usize, 16] {
        for &learning_rate in &[0.005, 0.4] {
            for &momentum in &[0.0, 0.7] {
                for &epochs in &[3usize, 300] {
                    configs.push((hidden, learning_rate, momentum, epochs));
                }
            }
        }
    }
    detdiv_par::par_try_map(&configs, |&(hidden, learning_rate, momentum, epochs)| {
        let config = NeuralConfig {
            hidden,
            learning_rate,
            momentum,
            epochs,
            min_count: 2,
            ..NeuralConfig::default()
        };
        let det = trained_model(
            case.training(),
            &DetectorKind::NeuralNetwork { config },
            window,
        );
        let outcome = evaluate_case(det.as_ref(), &case)?;
        Ok(NnSensitivityRow {
            hidden,
            learning_rate,
            momentum,
            epochs,
            max_response: outcome.max_response(),
            capable: outcome.classification().is_detection(),
        })
    })
}

/// One row of the ABL4 training-length sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingLenRow {
    /// Training-stream length used.
    pub training_len: usize,
    /// Stide detection-cell count at this length.
    pub stide_detections: usize,
    /// Markov detection-cell count at this length.
    pub markov_detections: usize,
    /// Whether the Stide map equals the analytic `DW >= AS` shape.
    pub stide_shape_holds: bool,
}

/// ABL4: how sensitive are the coverage maps to the training-stream
/// length? The paper picks 1,000,000 elements "arbitrarily" (§5.3); this
/// sweep substantiates our default use of shorter streams by showing the
/// maps' shapes are invariant across an order of magnitude.
///
/// # Errors
///
/// Propagates synthesis and coverage-map failures.
pub fn abl4_training_length(
    base: &detdiv_synth::SynthesisConfig,
    lengths: &[usize],
) -> Result<Vec<TrainingLenRow>, HarnessError> {
    use crate::coverage::expected_stide_map;
    // Each length is a self-contained corpus synthesis plus two
    // coverage maps — the coarsest unit of independent work here, so
    // fan the lengths out (the inner coverage fan-outs inline inside
    // pool workers rather than spawning a second tier of threads).
    detdiv_par::par_try_map(lengths, |&training_len| {
        let config = detdiv_synth::SynthesisConfig::builder()
            .training_len(training_len)
            .anomaly_sizes(base.anomaly_sizes())
            .windows(base.windows())
            .background_len(base.background_len())
            .plant_repeats(base.plant_repeats())
            .rare_threshold(base.rare_threshold())
            .noise(base.noise())
            .alphabet_size(base.alphabet_size())
            .seed(base.seed())
            .build()?;
        let corpus = Corpus::synthesize(&config)?;
        let stide = coverage_map(&corpus, &DetectorKind::Stide)?;
        let markov = coverage_map(&corpus, &DetectorKind::Markov)?;
        let expected = expected_stide_map(&corpus);
        let stide_shape_holds = expected.iter().all(|(a, w, cell)| {
            !cell.is_defined()
                || stide
                    .detects(a, w)
                    .map(|d| d == cell.is_detection())
                    .unwrap_or(false)
        });
        Ok(TrainingLenRow {
            training_len,
            stide_detections: stide.detection_count(),
            markov_detections: markov.detection_count(),
            stide_shape_holds,
        })
    })
}

/// ABL2 extra: plain Stide on the same noisy case, for reference in the
/// rendered table.
///
/// # Errors
///
/// Propagates synthesis and evaluation-geometry failures.
pub fn stide_reference_on_noisy_case(
    corpus: &Corpus,
    window: usize,
    anomaly_size: usize,
    background_len: usize,
    seed: u64,
) -> Result<LfcRow, HarnessError> {
    let case = corpus.noisy_case(anomaly_size, background_len, seed)?;
    let test = case.test_stream();
    let span = IncidentSpan::compute(
        test.len(),
        window,
        case.injection_position(),
        case.anomaly_len(),
    )?;
    let det = trained_model(case.training(), &DetectorKind::Stide, window);
    let alarms = alarms_at(&det.scores(test), det.maximal_response_floor());
    let a = analyze_alarms(&alarms, span)?;
    Ok(LfcRow {
        frame: 1,
        threshold: 1.0,
        hit: a.hit,
        false_alarms: a.false_alarms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_synth::SynthesisConfig;

    fn corpus() -> Corpus {
        let config = SynthesisConfig::builder()
            .training_len(60_000)
            .anomaly_sizes(2..=4)
            .windows(2..=6)
            .background_len(512)
            .plant_repeats(4)
            .seed(13)
            .build()
            .unwrap();
        Corpus::synthesize(&config).unwrap()
    }

    #[test]
    fn abl1_strict_collapses_to_stide() {
        let r = abl1_maximal_response_semantics(&corpus()).unwrap();
        assert!(r.detections.0 > r.detections.1, "{:?}", r.detections);
        assert!(r.strict_equals_stide);
        // Tolerant covers the whole 3x5 defined grid.
        assert_eq!(r.detections.0, 3 * 5);
    }

    #[test]
    fn abl2_frames_trade_hits_for_false_alarms() {
        let rows = abl2_locality_frame_count(&corpus(), 4, 4, 4096, 3).unwrap();
        assert_eq!(rows.len(), 9);
        // Plain Stide (frame 1, threshold 1.0) hits.
        let plain = rows
            .iter()
            .find(|r| r.frame == 1 && r.threshold == 1.0)
            .unwrap();
        assert!(plain.hit);
        // A frame of 20 at full threshold cannot reach 1.0 with a
        // short anomaly burst: the hit is suppressed.
        let strict20 = rows
            .iter()
            .find(|r| r.frame == 20 && r.threshold == 1.0)
            .unwrap();
        assert!(!strict20.hit);
        // At a moderate threshold the hit survives frame 5.
        let moderate5 = rows
            .iter()
            .find(|r| r.frame == 5 && r.threshold == 0.2)
            .unwrap();
        assert!(moderate5.hit);
    }

    #[test]
    fn abl3_detects_weakened_signals() {
        let rows = abl3_nn_sensitivity(&corpus(), 3, 3).unwrap();
        assert_eq!(rows.len(), 16);
        let best = rows
            .iter()
            .find(|r| {
                r.hidden == 16 && r.learning_rate == 0.4 && r.momentum == 0.7 && r.epochs == 300
            })
            .unwrap();
        assert!(best.capable, "well-tuned NN should be capable: {best:?}");
        // At least one starved configuration weakens the signal below
        // the detection floor.
        assert!(
            rows.iter().any(|r| !r.capable),
            "expected some weakened configuration"
        );
        // And the starved configurations' max responses are lower than
        // the best configuration's.
        let worst = rows
            .iter()
            .min_by(|a, b| a.max_response.partial_cmp(&b.max_response).unwrap())
            .unwrap();
        assert!(worst.max_response < best.max_response);
    }

    #[test]
    fn abl4_coverage_is_stable_across_training_lengths() {
        let base = SynthesisConfig::builder()
            .training_len(30_000)
            .anomaly_sizes(2..=3)
            .windows(2..=4)
            .background_len(512)
            .plant_repeats(3)
            .seed(2)
            .build()
            .unwrap();
        let rows = abl4_training_length(&base, &[30_000, 90_000]).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.stide_shape_holds, "{r:?}");
            assert_eq!(r.markov_detections, 2 * 3, "{r:?}");
        }
        assert_eq!(rows[0].stide_detections, rows[1].stide_detections);
    }
}
