//! Cross-crate pipeline tests: pieces from every crate wired together
//! in ways the per-crate unit tests cannot exercise.

use detdiv::core::{
    alarms_at, analyze_alarms, threshold_sweep, AlarmEnsemble, CombinationRule, IncidentSpan,
    LabeledCase,
};
use detdiv::detectors::{MarkovDetector, StideLfc, TStide};
use detdiv::prelude::*;
use detdiv::trace::{generate_sendmail_like, mfs_census, TraceGenConfig, TraceSet};
use std::sync::OnceLock;

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let config = SynthesisConfig::builder()
            .training_len(60_000)
            .anomaly_sizes(2..=4)
            .windows(2..=6)
            .background_len(1024)
            .plant_repeats(4)
            .seed(99)
            .build()
            .expect("valid config");
        Corpus::synthesize(&config).expect("corpus synthesizes")
    })
}

/// Footnote 1 of the paper: "The maximum anomalous response will always
/// register as an alarm regardless of where the detection threshold is
/// set." Sweep thresholds over a capable detector's responses and check
/// the hit never disappears at or below the in-span maximum.
#[test]
fn footnote1_maximum_response_always_registers() {
    let corpus = corpus();
    let case = corpus.case(3, 4).expect("case");
    let mut det = MarkovDetector::new(4);
    det.train(&StreamProfile::new(case.training()));
    let scores = det.scores(case.test_stream());
    let span = IncidentSpan::compute(
        case.test_stream().len(),
        4,
        case.injection_position(),
        case.anomaly_len(),
    )
    .expect("span");
    let in_span_max = span
        .slice(&scores)
        .expect("span fits")
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    let thresholds: Vec<f64> = (1..=10).map(|i| i as f64 * in_span_max / 10.0).collect();
    let points = threshold_sweep(&scores, span, &thresholds).expect("sweep");
    for p in &points {
        assert!(p.hit, "hit lost at threshold {}", p.threshold);
    }
    // Raising the threshold monotonically reduces false alarms.
    for pair in points.windows(2) {
        assert!(pair[1].false_alarm_rate <= pair[0].false_alarm_rate);
    }
}

/// An any-rule ensemble of Stide and the Markov detector has exactly the
/// Markov detector's coverage (the union of a set with its subset).
#[test]
fn union_ensemble_equals_markov_coverage() {
    let corpus = corpus();
    for (anomaly_size, window) in [(2usize, 2usize), (4, 2), (4, 6), (3, 5)] {
        let case = corpus.case(anomaly_size, window).expect("case");

        let mut ensemble = AlarmEnsemble::new(
            "stide ∪ markov",
            CombinationRule::Any,
            vec![
                Box::new(Stide::new(window)),
                Box::new(MarkovDetector::new(window)),
            ],
        );
        ensemble.train(&StreamProfile::new(case.training()));
        let ensemble_outcome = evaluate_case(&ensemble, &case).expect("outcome");

        let mut markov = MarkovDetector::new(window);
        markov.train(&StreamProfile::new(case.training()));
        let markov_outcome = evaluate_case(&markov, &case).expect("outcome");

        assert_eq!(
            ensemble_outcome.classification().is_detection(),
            markov_outcome.classification().is_detection(),
            "cell (AS {anomaly_size}, DW {window})"
        );
    }
}

/// An all-rule ensemble of Stide and L&B detects nothing anywhere: the
/// two detectors share their blind region (§8), and L&B never reaches a
/// maximal response.
#[test]
fn intersection_of_stide_and_lb_is_empty() {
    let corpus = corpus();
    for case in corpus.cases() {
        let window = case.window();
        let mut ensemble = AlarmEnsemble::new(
            "stide ∩ l&b",
            CombinationRule::All,
            vec![
                Box::new(Stide::new(window)),
                Box::new(LaneBrodley::new(window)),
            ],
        );
        ensemble.train(&StreamProfile::new(case.training()));
        let outcome = evaluate_case(&ensemble, &case).expect("outcome");
        assert_ne!(
            outcome.classification(),
            Classification::Capable,
            "cell (AS {}, DW {})",
            case.anomaly_size(),
            window
        );
    }
}

/// t-stide sits strictly between Stide and the Markov detector: it
/// detects everything Stide does, plus the rare-composed anomalies at
/// windows where Stide is blind.
#[test]
fn tstide_extends_stide_coverage() {
    let corpus = corpus();
    let case = corpus.case(4, 3).expect("case"); // DW < AS: Stide blind

    let mut stide = Stide::new(3);
    stide.train(&StreamProfile::new(case.training()));
    assert_eq!(
        evaluate_case(&stide, &case)
            .expect("outcome")
            .classification(),
        Classification::Blind
    );

    let mut tstide = TStide::new(3);
    tstide.train(&StreamProfile::new(case.training()));
    assert_eq!(
        evaluate_case(&tstide, &case)
            .expect("outcome")
            .classification(),
        Classification::Capable,
        "t-stide should flag the rare planted flanks"
    );
}

/// The LFC post-processor suppresses an isolated foreign window below
/// plain Stide's maximal response — on the same trained database.
#[test]
fn lfc_pipeline_smooths_stide() {
    let corpus = corpus();
    let case = corpus.case(2, 4).expect("case");

    let mut plain = Stide::new(4);
    plain.train(&StreamProfile::new(case.training()));
    let plain_alarm_count = alarms_at(&plain.scores(case.test_stream()), 1.0)
        .iter()
        .filter(|&&a| a)
        .count();

    let mut lfc = StideLfc::new(4, 16);
    lfc.train(&StreamProfile::new(case.training()));
    let lfc_alarm_count = alarms_at(&lfc.scores(case.test_stream()), 1.0)
        .iter()
        .filter(|&&a| a)
        .count();

    assert!(plain_alarm_count > 0);
    assert_eq!(
        lfc_alarm_count, 0,
        "a frame of 16 dilutes a short anomaly burst"
    );
}

/// Detectors trained on trace data (rather than the synthetic corpus)
/// flag the census-discovered MFSs: the substrates compose.
#[test]
fn detectors_work_on_trace_streams() {
    let monday = generate_sendmail_like(&TraceGenConfig {
        processes: 6,
        events_per_process: 4000,
        seed: 100,
    })
    .expect("traces generate")
    .concatenated();
    let tuesday = generate_sendmail_like(&TraceGenConfig {
        processes: 2,
        events_per_process: 2000,
        seed: 200,
    })
    .expect("traces generate")
    .concatenated();

    let report = mfs_census(&monday, &tuesday, 6).expect("census");
    assert!(report.total() > 0);

    // Stide at DW = 6 must flag every window containing a full MFS of
    // length <= 6 (foreignness is upward closed).
    let mut stide = Stide::new(6);
    stide.train(&StreamProfile::new(&monday));
    let scores = stide.scores(&tuesday);
    let profile = StreamProfile::build(&monday, 6).expect("profile");
    let mut checked = 0;
    for (i, w) in tuesday.windows(6).enumerate() {
        if profile.is_foreign(w) {
            assert_eq!(scores[i], 1.0, "window {i}");
            checked += 1;
        }
    }
    assert!(checked > 0, "expected foreign windows in tuesday's traffic");
}

/// UNM round-trip composes with the census: parse -> census == census.
#[test]
fn unm_roundtrip_preserves_census() {
    let run = generate_sendmail_like(&TraceGenConfig {
        processes: 3,
        events_per_process: 1500,
        seed: 5,
    })
    .expect("traces generate");
    let other = generate_sendmail_like(&TraceGenConfig {
        processes: 3,
        events_per_process: 1500,
        seed: 6,
    })
    .expect("traces generate");

    let direct = mfs_census(&run.concatenated(), &other.concatenated(), 5).expect("census");
    let reparsed = TraceSet::parse(&other.to_unm_string()).expect("parse");
    let roundtrip = mfs_census(&run.concatenated(), &reparsed.concatenated(), 5).expect("census");
    assert_eq!(direct, roundtrip);
}

/// Noisy cases agree with clean cases on the hit verdict for DW >= AS;
/// they only differ in background false alarms.
#[test]
fn noisy_and_clean_cases_agree_on_hits() {
    let corpus = corpus();
    let clean = corpus.case(3, 5).expect("case");
    let noisy = corpus.noisy_case(3, 8192, 17).expect("noisy case");

    let mut stide = Stide::new(5);
    stide.train(&StreamProfile::new(clean.training()));

    let clean_outcome = evaluate_case(&stide, &clean).expect("outcome");
    let noisy_outcome = evaluate_case(&stide, &noisy).expect("outcome");
    assert_eq!(clean_outcome.classification(), Classification::Capable);
    assert_eq!(noisy_outcome.classification(), Classification::Capable);

    // And the noisy background carries no in-span contamination: the
    // false alarms live outside the span.
    let span = noisy_outcome.span();
    let alarms = alarms_at(&stide.scores(noisy.test_stream()), 1.0);
    let analysis = analyze_alarms(&alarms, span).expect("analysis");
    assert!(analysis.hit);
}
