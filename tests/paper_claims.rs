//! Integration tests asserting the paper's headline claims (§3, §7, §8)
//! end to end: synthesis -> training -> scoring -> coverage analysis.
//!
//! Grid reduced relative to the paper (AS 2–5, DW 2–8, 80 k training
//! elements) to keep the suite fast; the full grid is exercised by the
//! `regenerate` binary and spot-checked in `tests/full_grid.rs`.

use detdiv::eval::{
    abl1_maximal_response_semantics, comb1_stide_markov_subset, comb2_stide_lb_union,
    comb3_suppression, coverage_map, expected_stide_map, SuppressionConfig,
};
use detdiv::prelude::*;
use std::sync::OnceLock;

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let config = SynthesisConfig::builder()
            .training_len(80_000)
            .anomaly_sizes(2..=5)
            .windows(2..=8)
            .background_len(1024)
            .plant_repeats(4)
            .seed(20050628)
            .build()
            .expect("valid config");
        Corpus::synthesize(&config).expect("corpus synthesizes")
    })
}

/// Claim (1): "anomaly detectors designed to detect unequivocally
/// anomalous events can be completely blind to these events."
#[test]
fn claim1_detectors_can_be_blind_to_unequivocal_anomalies() {
    let corpus = corpus();
    // The anomaly is unequivocally anomalous: a verified MFS.
    corpus.verify().expect("corpus invariants hold");

    // Stide at DW < AS is blind to it.
    let stide = coverage_map(corpus, &DetectorKind::Stide).expect("map");
    assert!(!stide.detects(5, 2).expect("cell"));
    assert!(!stide.detects(4, 3).expect("cell"));

    // L&B is blind (never maximal) over the whole space.
    let lb = coverage_map(corpus, &DetectorKind::LaneBrodley).expect("map");
    assert_eq!(lb.detection_count(), 0);
}

/// Claim (2): "diversity in detection methods has a significant effect
/// on anomaly detection performance" — the four detectors, identical in
/// everything but their similarity metric, produce different coverage.
#[test]
fn claim2_diversity_changes_coverage() {
    let corpus = corpus();
    let maps: Vec<CoverageMap> = DetectorKind::paper_four()
        .iter()
        .map(|k| coverage_map(corpus, k).expect("map"))
        .collect();
    let counts: Vec<usize> = maps.iter().map(CoverageMap::detection_count).collect();
    // L&B detects nowhere, Markov/NN everywhere, Stide in between.
    // (defined_count excludes the undefined AS = 1 column.)
    let defined = maps[0].defined_count();
    assert_eq!(counts[0], 0, "L&B");
    assert_eq!(counts[1], defined, "Markov covers all defined cells");
    assert!(
        counts[2] > 0 && counts[2] < defined,
        "Stide is strictly in between"
    );
    assert_eq!(counts[3], counts[1], "NN mimics Markov");
}

/// Claim (3): diversity manifests as different *conditions* of
/// detection — Stide's condition is DW >= AS.
#[test]
fn claim3_stide_condition_is_window_at_least_anomaly() {
    let corpus = corpus();
    let measured = coverage_map(corpus, &DetectorKind::Stide).expect("map");
    let expected = expected_stide_map(corpus);
    for (a, w, cell) in expected.iter() {
        if cell.is_defined() {
            assert_eq!(
                measured.detects(a, w).expect("cell"),
                cell.is_detection(),
                "Stide at (AS {a}, DW {w})"
            );
        }
    }
}

/// Claim (4): detection conditions depend on detector parameter values —
/// the same detector family flips from capable to blind purely on DW.
#[test]
fn claim4_parameters_flip_detectability() {
    let corpus = corpus();
    let case_big = corpus.case(4, 6).expect("case");
    let case_small = corpus.case(4, 2).expect("case");

    let mut stide6 = Stide::new(6);
    stide6.train(&StreamProfile::new(case_big.training()));
    let mut stide2 = Stide::new(2);
    stide2.train(&StreamProfile::new(case_small.training()));

    assert_eq!(
        evaluate_case(&stide6, &case_big)
            .expect("outcome")
            .classification(),
        Classification::Capable
    );
    assert_eq!(
        evaluate_case(&stide2, &case_small)
            .expect("outcome")
            .classification(),
        Classification::Blind
    );
}

/// §7: Stide's coverage is a subset of the Markov detector's.
#[test]
fn section7_stide_subset_of_markov() {
    let r = comb1_stide_markov_subset(corpus()).expect("comb1");
    assert!(r.stide_subset_of_markov);
    assert!(r.markov_detections > r.stide_detections);
}

/// §8: combining Stide and L&B affords no detection gain.
#[test]
fn section8_stide_lb_union_gains_nothing() {
    let r = comb2_stide_lb_union(corpus()).expect("comb2");
    assert_eq!(r.lb_gain_over_stide, 0);
    assert!(r.union_equals_stide);
}

/// §7: the Markov + Stide suppression pairing keeps the hit and removes
/// the Markov detector's false alarms (at DW >= AS).
#[test]
fn section7_suppression_pairing() {
    let rows = comb3_suppression(
        corpus(),
        &SuppressionConfig {
            background_len: 8192,
            windows: vec![3],
            anomaly_sizes: vec![3],
            markov_rare_threshold: 0.02,
            seed: 11,
        },
    )
    .expect("comb3");
    let get = |name: &str| rows.iter().find(|r| r.detector == name).expect("row");
    let markov = get("markov");
    let combo = get("markov + stide suppression");
    assert!(markov.hit && combo.hit);
    assert!(markov.false_alarms > 0);
    assert!(combo.false_alarms < markov.false_alarms);
}

/// DESIGN.md §2.3: the rare-tolerance maximal-response rule is exactly
/// what separates Figure 4 from Figure 5 — under strict semantics the
/// Markov detector's coverage collapses to Stide's.
#[test]
fn maximal_response_semantics_drive_the_markov_edge() {
    let r = abl1_maximal_response_semantics(corpus()).expect("abl1");
    assert!(r.detections.0 > r.detections.1);
    assert!(r.strict_equals_stide);
}

/// The hypothesis of §3 — "all anomaly detectors are equally capable of
/// detecting anomalous events" — is refuted: there exists a cell where
/// one detector is capable and another blind.
#[test]
fn hypothesis_rejected() {
    let corpus = corpus();
    let case = corpus.case(5, 2).expect("case");

    let profile = StreamProfile::new(case.training());
    let mut markov = MarkovDetector::new(2);
    markov.train(&profile);
    let mut stide = Stide::new(2);
    stide.train(&profile);

    let markov_outcome = evaluate_case(&markov, &case).expect("outcome");
    let stide_outcome = evaluate_case(&stide, &case).expect("outcome");
    assert_eq!(markov_outcome.classification(), Classification::Capable);
    assert_eq!(stide_outcome.classification(), Classification::Blind);
}
