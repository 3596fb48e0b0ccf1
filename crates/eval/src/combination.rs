//! Detector-combination experiments (§7/§8): COMB1–COMB3.

use detdiv_core::{
    alarms_at, analyze_alarms, suppress_alarms, CoverageMap, IncidentSpan, LabeledCase,
};
use detdiv_synth::Corpus;
use serde::{Deserialize, Serialize};

use crate::cached::trained_model;
use crate::coverage::coverage_map;
use crate::error::HarnessError;
use crate::kinds::DetectorKind;

/// COMB1: the coverage-subset relation between Stide and the
/// Markov-based detector.
///
/// "Any alarm raised by Stide will also be raised by the Markov
/// detector, because ... Stide's detection coverage is a subset of the
/// Markov-based detector's coverage." (§7)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubsetResult {
    /// Whether Stide's detection region is contained in Markov's.
    pub stide_subset_of_markov: bool,
    /// Stide's detection-cell count.
    pub stide_detections: usize,
    /// Markov's detection-cell count.
    pub markov_detections: usize,
    /// Jaccard similarity of the two detection regions.
    pub jaccard: f64,
    /// The two maps, for rendering.
    pub stide_map: CoverageMap,
    /// Markov's coverage map.
    pub markov_map: CoverageMap,
}

/// Runs COMB1 on `corpus`.
///
/// # Errors
///
/// Propagates coverage-map computation failures.
pub fn comb1_stide_markov_subset(corpus: &Corpus) -> Result<SubsetResult, HarnessError> {
    let stide_map = coverage_map(corpus, &DetectorKind::Stide)?;
    let markov_map = coverage_map(corpus, &DetectorKind::Markov)?;
    Ok(SubsetResult {
        stide_subset_of_markov: stide_map.is_subset_of(&markov_map)?,
        stide_detections: stide_map.detection_count(),
        markov_detections: markov_map.detection_count(),
        jaccard: stide_map.jaccard(&markov_map)?,
        stide_map,
        markov_map,
    })
}

/// COMB2: the Stide + Lane & Brodley union affords no detection gain.
///
/// "combining Stide and L&B provides no detection advantage at all.
/// Although each of these detectors uses a very different similarity
/// metric, they each show blindness in the same region of the
/// performance chart." (§8)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnionGainResult {
    /// Detection cells L&B adds beyond Stide (paper: 0).
    pub lb_gain_over_stide: usize,
    /// Whether the union's detection region equals Stide's alone.
    pub union_equals_stide: bool,
    /// L&B's detection-cell count (paper: 0 — blind across the space).
    pub lb_detections: usize,
    /// The union map, for rendering.
    pub union_map: CoverageMap,
}

/// Runs COMB2 on `corpus`.
///
/// # Errors
///
/// Propagates coverage-map computation failures.
pub fn comb2_stide_lb_union(corpus: &Corpus) -> Result<UnionGainResult, HarnessError> {
    let stide_map = coverage_map(corpus, &DetectorKind::Stide)?;
    let lb_map = coverage_map(corpus, &DetectorKind::LaneBrodley)?;
    let union_map = stide_map.union(&lb_map)?;
    Ok(UnionGainResult {
        lb_gain_over_stide: stide_map.gain_from(&lb_map)?,
        union_equals_stide: union_map.detection_count() == stide_map.detection_count(),
        lb_detections: lb_map.detection_count(),
        union_map,
    })
}

/// One row of the COMB3 suppression table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuppressionRow {
    /// Detector window DW.
    pub window: usize,
    /// Anomaly size AS.
    pub anomaly_size: usize,
    /// Which detector/combination the row describes.
    pub detector: String,
    /// Whether the injected anomaly was hit.
    pub hit: bool,
    /// Number of out-of-span alarms.
    pub false_alarms: usize,
    /// False alarms per out-of-span position.
    pub false_alarm_rate: f64,
}

/// COMB3 parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SuppressionConfig {
    /// Noisy-background length per case.
    pub background_len: usize,
    /// Detector windows to evaluate.
    pub windows: Vec<usize>,
    /// Anomaly sizes to evaluate.
    pub anomaly_sizes: Vec<usize>,
    /// The Markov detector's rare threshold for this experiment. The
    /// default 0.02 places the detection floor at 0.98, below the score
    /// of the generation matrix's 1 %-probability escape transitions —
    /// the "sensitively tuned" regime of §7 in which the Markov detector
    /// "can only be expected to produce greater numbers of false alarms
    /// than Stide".
    pub markov_rare_threshold: f64,
    /// Seed for the noisy backgrounds.
    pub seed: u64,
}

impl Default for SuppressionConfig {
    fn default() -> Self {
        SuppressionConfig {
            background_len: 8192,
            windows: vec![2, 4, 6],
            anomaly_sizes: vec![2, 4],
            markov_rare_threshold: 0.02,
            seed: 7,
        }
    }
}

/// COMB3: the false-alarm suppression pairing.
///
/// "Any alarms raised by the Markov-based detector, and not raised by
/// Stide, may be ignored as false alarms; alarms raised by both Stide
/// and the Markov-based detector are possible hits." (§7)
///
/// For each (DW, AS), three rows are produced — the Markov detector
/// alone, Stide alone, and the suppressed combination — over a noisy
/// background with one injected MFS.
///
/// # Errors
///
/// Propagates synthesis and evaluation-geometry failures.
pub fn comb3_suppression(
    corpus: &Corpus,
    config: &SuppressionConfig,
) -> Result<Vec<SuppressionRow>, HarnessError> {
    // Each anomaly size owns its noisy case; fan the sizes out and
    // flatten the per-size window rows in job order, reproducing the
    // serial nested-loop row order exactly.
    //
    // Both detectors are obtained through the detector-kind factory and
    // the single-flight model cache (pre-PR4 this path trained inline
    // duplicates of models the coverage grid had already trained). The
    // noisy cases share the corpus training stream, so the Stide models
    // here are the very ones behind Figure 5's rows.
    let markov_kind = DetectorKind::MarkovRare {
        rare_threshold: config.markov_rare_threshold,
    };
    let per_size = detdiv_par::global().try_map(&config.anomaly_sizes, |&anomaly_size| {
        let mut rows = Vec::new();
        let case = corpus.noisy_case(anomaly_size, config.background_len, config.seed)?;
        let test = case.test_stream();
        for &window in &config.windows {
            let span = IncidentSpan::compute(
                test.len(),
                window,
                case.injection_position(),
                case.anomaly_len(),
            )?;

            let markov = trained_model(case.training(), &markov_kind, window);
            let markov_alarms = alarms_at(&markov.scores(test), markov.maximal_response_floor());

            let stide = trained_model(case.training(), &DetectorKind::Stide, window);
            let stide_alarms = alarms_at(&stide.scores(test), stide.maximal_response_floor());

            let suppressed = suppress_alarms(&markov_alarms, &stide_alarms)?;

            for (name, alarms) in [
                ("markov", &markov_alarms),
                ("stide", &stide_alarms),
                ("markov + stide suppression", &suppressed),
            ] {
                let a = analyze_alarms(alarms, span)?;
                rows.push(SuppressionRow {
                    window,
                    anomaly_size,
                    detector: name.to_owned(),
                    hit: a.hit,
                    false_alarms: a.false_alarms,
                    false_alarm_rate: a.false_alarm_rate(),
                });
            }
        }
        Ok::<_, HarnessError>(rows)
    })?;
    Ok(per_size.into_iter().flatten().collect())
}

/// Renders COMB3 rows as a fixed-width text table.
pub fn render_suppression_table(rows: &[SuppressionRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>3} {:>3}  {:<28} {:>4} {:>12} {:>9}\n",
        "DW", "AS", "detector", "hit", "false alarms", "FA rate"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>3} {:>3}  {:<28} {:>4} {:>12} {:>9.5}\n",
            r.window,
            r.anomaly_size,
            r.detector,
            if r.hit { "yes" } else { "no" },
            r.false_alarms,
            r.false_alarm_rate
        ));
    }
    out
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
            .seed(31)
            .build()
            .unwrap();
        Corpus::synthesize(&config).unwrap()
    }

    #[test]
    fn comb1_subset_holds() {
        let r = comb1_stide_markov_subset(&corpus()).unwrap();
        assert!(r.stide_subset_of_markov);
        assert!(r.markov_detections > r.stide_detections);
        assert!(r.jaccard < 1.0);
        assert!(r.jaccard > 0.0);
    }

    #[test]
    fn comb2_no_gain_from_lb() {
        let r = comb2_stide_lb_union(&corpus()).unwrap();
        assert_eq!(r.lb_gain_over_stide, 0);
        assert!(r.union_equals_stide);
        assert_eq!(r.lb_detections, 0);
    }

    #[test]
    fn comb3_suppression_removes_false_alarms() {
        let corpus = corpus();
        let config = SuppressionConfig {
            background_len: 4096,
            windows: vec![2, 4],
            anomaly_sizes: vec![2],
            ..SuppressionConfig::default()
        };
        let rows = comb3_suppression(&corpus, &config).unwrap();
        assert_eq!(rows.len(), 2 * 3);

        // At DW = 2 (>= AS = 2): Markov alone has false alarms, the
        // suppressed combination keeps the hit and drops the FAs to
        // Stide's level (zero at DW = 2, where every natural bigram is
        // known).
        let at = |w: usize, d: &str| {
            rows.iter()
                .find(|r| r.window == w && r.detector == d)
                .unwrap()
                .clone()
        };
        let markov = at(2, "markov");
        let stide = at(2, "stide");
        let combo = at(2, "markov + stide suppression");
        assert!(markov.hit && stide.hit && combo.hit);
        assert!(markov.false_alarms > 0, "Markov should be alarm-happy");
        assert_eq!(stide.false_alarms, 0);
        assert_eq!(combo.false_alarms, 0);
    }

    /// Regression for the pre-cache implementation, which trained
    /// `MarkovDetector`/`Stide` inline instead of going through
    /// `DetectorKind::build` + the model cache: the rerouted COMB3 must
    /// reproduce the inline-trained rows exactly.
    #[test]
    fn comb3_matches_inline_trained_detectors() {
        use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
        use detdiv_detectors::{MarkovDetector, Stide};
        use detdiv_sequence::StreamProfile;

        let corpus = corpus();
        let config = SuppressionConfig {
            background_len: 4096,
            windows: vec![2, 4],
            anomaly_sizes: vec![2],
            ..SuppressionConfig::default()
        };
        let rows = comb3_suppression(&corpus, &config).unwrap();

        let case = corpus
            .noisy_case(2, config.background_len, config.seed)
            .unwrap();
        let test = case.test_stream();
        let mut expected = Vec::new();
        for &window in &config.windows {
            let span = IncidentSpan::compute(
                test.len(),
                window,
                case.injection_position(),
                case.anomaly_len(),
            )
            .unwrap();
            let profile = StreamProfile::new(case.training());
            let mut markov =
                MarkovDetector::with_rare_threshold(window, config.markov_rare_threshold);
            markov.train(&profile);
            let markov_alarms = alarms_at(&markov.scores(test), markov.maximal_response_floor());
            let mut stide = Stide::new(window);
            stide.train(&profile);
            let stide_alarms = alarms_at(&stide.scores(test), stide.maximal_response_floor());
            let suppressed = suppress_alarms(&markov_alarms, &stide_alarms).unwrap();
            for (name, alarms) in [
                ("markov", &markov_alarms),
                ("stide", &stide_alarms),
                ("markov + stide suppression", &suppressed),
            ] {
                let a = analyze_alarms(alarms, span).unwrap();
                expected.push(SuppressionRow {
                    window,
                    anomaly_size: 2,
                    detector: name.to_owned(),
                    hit: a.hit,
                    false_alarms: a.false_alarms,
                    false_alarm_rate: a.false_alarm_rate(),
                });
            }
        }
        assert_eq!(rows, expected);
    }

    #[test]
    fn comb3_table_renders() {
        let rows = vec![SuppressionRow {
            window: 2,
            anomaly_size: 2,
            detector: "markov".into(),
            hit: true,
            false_alarms: 12,
            false_alarm_rate: 0.01,
        }];
        let table = render_suppression_table(&rows);
        assert!(table.contains("markov"));
        assert!(table.contains("yes"));
    }
}
