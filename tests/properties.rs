//! Cross-crate property tests: invariants that must hold for *any*
//! synthesis seed, not just the fixtures the unit tests pin down.

use detdiv::core::LabeledCase;
use detdiv::detectors::MarkovDetector;
use detdiv::prelude::*;
use proptest::prelude::*;

fn small_corpus(seed: u64) -> Corpus {
    let config = SynthesisConfig::builder()
        .training_len(30_000)
        .anomaly_sizes(2..=4)
        .windows(2..=5)
        .background_len(512)
        .plant_repeats(3)
        .seed(seed)
        .build()
        .expect("valid config");
    Corpus::synthesize(&config).expect("corpus synthesizes for any seed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Synthesis succeeds and verifies for arbitrary seeds — the
    /// generate-and-verify loop is not luck-dependent.
    #[test]
    fn any_seed_produces_a_verified_corpus(seed in 0u64..1_000_000) {
        let corpus = small_corpus(seed);
        prop_assert!(corpus.verify().is_ok());
    }

    /// Every detector's responses stay within [0, 1] on every case, and
    /// Stide's are exactly binary.
    #[test]
    fn scores_are_bounded(seed in 0u64..1000, window in 2usize..=5) {
        let corpus = small_corpus(seed);
        let case = corpus.case(3, window).expect("case in grid");
        for kind in DetectorKind::paper_four() {
            let mut det = kind.build(window);
            det.train(&StreamProfile::new(case.training()));
            let scores = det.scores(case.test_stream());
            prop_assert_eq!(
                scores.len(),
                case.test_stream().len() - window + 1,
                "{} length", det.name()
            );
            for (i, &s) in scores.iter().enumerate() {
                prop_assert!((0.0..=1.0).contains(&s), "{} at {i}: {s}", det.name());
            }
        }
        let mut stide = Stide::new(window);
        stide.train(&StreamProfile::new(case.training()));
        for &s in &stide.scores(case.test_stream()) {
            prop_assert!(s == 0.0 || s == 1.0);
        }
    }

    /// Ground truth equivalence: Stide alarms exactly on the windows the
    /// training profile says are foreign.
    #[test]
    fn stide_alarms_are_exactly_foreign_windows(seed in 0u64..1000, window in 2usize..=5) {
        let corpus = small_corpus(seed);
        let case = corpus.case(4, window).expect("case in grid");
        let mut stide = Stide::new(window);
        stide.train(&StreamProfile::new(case.training()));
        let scores = stide.scores(case.test_stream());
        let profile = StreamProfile::build(case.training(), window).expect("profile");
        for (i, w) in case.test_stream().windows(window).enumerate() {
            prop_assert_eq!(scores[i] == 1.0, profile.is_foreign(w), "window {}", i);
        }
    }

    /// Dominance: wherever Stide responds maximally (a foreign window),
    /// the Markov detector responds maximally too — the §7 subset
    /// relation at the level of individual responses.
    #[test]
    fn markov_dominates_stide_pointwise(seed in 0u64..1000, window in 2usize..=5) {
        let corpus = small_corpus(seed);
        let case = corpus.case(3, window).expect("case in grid");
        let profile = StreamProfile::new(case.training());
        let mut stide = Stide::new(window);
        stide.train(&profile);
        let mut markov = MarkovDetector::new(window);
        markov.train(&profile);
        let s = stide.scores(case.test_stream());
        let m = markov.scores(case.test_stream());
        for i in 0..s.len() {
            if s[i] == 1.0 {
                prop_assert_eq!(m[i], 1.0, "position {}", i);
            }
        }
    }

    /// The evaluated outcome's maximum position always lies inside the
    /// incident span, and the outcome is reproducible.
    #[test]
    fn outcomes_are_in_span_and_deterministic(
        seed in 0u64..1000,
        anomaly_size in 2usize..=4,
        window in 2usize..=5,
    ) {
        let corpus = small_corpus(seed);
        let case = corpus.case(anomaly_size, window).expect("case in grid");
        let mut det = MarkovDetector::new(window);
        det.train(&StreamProfile::new(case.training()));
        let a = evaluate_case(&det, &case).expect("outcome");
        let b = evaluate_case(&det, &case).expect("outcome");
        prop_assert_eq!(a.clone(), b);
        prop_assert!(a.span().contains(a.max_position()));
    }

    /// Lane & Brodley never responds maximally to any window of a test
    /// stream whose boundary windows are known — the Figure 3 blindness,
    /// for any seed.
    #[test]
    fn lane_brodley_never_maximal(seed in 0u64..1000, window in 2usize..=5) {
        let corpus = small_corpus(seed);
        let case = corpus.case(4, window).expect("case in grid");
        let mut lb = LaneBrodley::new(window);
        lb.train(&StreamProfile::new(case.training()));
        for (i, &s) in lb.scores(case.test_stream()).iter().enumerate() {
            prop_assert!(s < 1.0, "position {i}: {s}");
        }
    }
}
