//! Property tests for the detector implementations.

use detdiv_core::{SequenceAnomalyDetector, TrainedModel};
use detdiv_detectors::{
    lane_brodley_sim_max, lane_brodley_similarity, LaneBrodley, MarkovDetector, Stide, StideLfc,
    TStide,
};
use std::collections::BTreeSet;

use detdiv_sequence::{StreamProfile, Symbol, DEFAULT_RARE_THRESHOLD};
use proptest::prelude::*;

fn stream(max_sym: u32, min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<Symbol>> {
    prop::collection::vec((0..max_sym).prop_map(Symbol::new), min_len..=max_len)
}

proptest! {
    /// Stide is exact: score 0 on every window of its own training data,
    /// for any stream and window.
    #[test]
    fn stide_accepts_its_training_data(s in stream(4, 6, 120), dw in 2usize..6) {
        prop_assume!(s.len() >= dw);
        let mut det = Stide::new(dw);
        det.train(&StreamProfile::new(&s));
        let scores = det.scores(&s);
        prop_assert!(scores.iter().all(|&x| x == 0.0));
    }

    /// L&B similarity is symmetric, bounded by Sim_max, and attains the
    /// bound only for identical sequences.
    #[test]
    fn lane_brodley_similarity_properties(
        a in stream(4, 5, 5),
        b in stream(4, 5, 5),
    ) {
        let sab = lane_brodley_similarity(&a, &b);
        let sba = lane_brodley_similarity(&b, &a);
        prop_assert_eq!(sab, sba);
        prop_assert!(sab <= lane_brodley_sim_max(5));
        prop_assert_eq!(sab == lane_brodley_sim_max(5), a == b);
        prop_assert_eq!(lane_brodley_similarity(&a, &a), lane_brodley_sim_max(5));
    }

    /// The L&B response is bit-identical to the brute-force definition,
    /// `1 - max Sim(window, n) / Sim_max` over the distinct training
    /// windows `n`, for normal, near-normal and foreign windows.
    #[test]
    fn lane_brodley_response_is_the_brute_force_maximum(
        train in stream(4, 0, 150),
        foreign in stream(6, 15, 15),
        dw in 1usize..=15,
    ) {
        let mut det = LaneBrodley::new(dw);
        det.train(&StreamProfile::new(&train));
        let normals: BTreeSet<&[Symbol]> = train.windows(dw).collect();
        let brute = |w: &[Symbol]| {
            let best = normals
                .iter()
                .map(|n| lane_brodley_similarity(w, n))
                .max()
                .unwrap_or(0);
            1.0 - best as f64 / lane_brodley_sim_max(dw) as f64
        };
        let mut probes: Vec<Vec<Symbol>> = vec![foreign[..dw].to_vec()];
        for (i, w) in train.windows(dw).enumerate() {
            probes.push(w.to_vec());
            let mut near = w.to_vec();
            near[i % dw] = Symbol::new((near[i % dw].id() + 1) % 4);
            probes.push(near);
        }
        for w in &probes {
            prop_assert_eq!(det.response(w).to_bits(), brute(w).to_bits(), "{:?}", w);
        }
    }

    /// Every detector family produces responses in [0, 1] with the
    /// correct count, on arbitrary train/test pairs.
    #[test]
    fn responses_are_bounded_everywhere(
        train in stream(4, 10, 150),
        test in stream(5, 1, 60), // may contain a symbol unseen in training
        dw in 2usize..5,
    ) {
        prop_assume!(train.len() > dw);
        let mut detectors: Vec<Box<dyn SequenceAnomalyDetector>> = vec![
            Box::new(Stide::new(dw)),
            Box::new(StideLfc::new(dw, 4)),
            Box::new(TStide::new(dw)),
            Box::new(MarkovDetector::new(dw)),
            Box::new(LaneBrodley::new(dw)),
        ];
        for det in detectors.iter_mut() {
            det.train(&StreamProfile::new(&train));
            let scores = det.scores(&test);
            let expected = if test.len() < dw { 0 } else { test.len() - dw + 1 };
            prop_assert_eq!(scores.len(), expected, "{}", det.name());
            for &x in &scores {
                prop_assert!((0.0..=1.0).contains(&x), "{}: {}", det.name(), x);
            }
        }
    }

    /// t-stide dominates Stide: its response is at least Stide's
    /// alarm-equivalent everywhere (foreign windows are maximal for
    /// both; known windows score below 1 for both).
    #[test]
    fn tstide_dominates_stide(
        train in stream(3, 10, 150),
        test in stream(3, 5, 60),
        dw in 2usize..4,
    ) {
        prop_assume!(train.len() >= dw);
        let mut stide = Stide::new(dw);
        let mut tstide = TStide::new(dw);
        let profile = StreamProfile::new(&train);
        stide.train(&profile);
        tstide.train(&profile);
        let s = stide.scores(&test);
        let t = tstide.scores(&test);
        for i in 0..s.len() {
            if s[i] == 1.0 {
                prop_assert_eq!(t[i], 1.0, "position {}", i);
            } else {
                prop_assert!(t[i] < 1.0, "position {}", i);
            }
        }
    }

    /// The Markov detector's response on training windows never reaches
    /// its maximal floor... unless the transition is genuinely rare in
    /// the training data itself. Formally: response >= floor implies the
    /// window's transition has empirical probability below the rare
    /// threshold.
    #[test]
    fn markov_maximal_implies_rare(
        train in stream(3, 20, 200),
        dw in 2usize..4,
    ) {
        prop_assume!(train.len() > dw);
        let mut det = MarkovDetector::new(dw);
        det.train(&StreamProfile::new(&train));
        let scores = det.scores(&train);
        for (i, &score) in scores.iter().enumerate() {
            if score >= det.maximal_response_floor() {
                // 1 - P >= 1 - r  =>  P <= r.
                let p = 1.0 - score;
                prop_assert!(p <= DEFAULT_RARE_THRESHOLD + 1e-12, "window {} has p {}", i, p);
            }
        }
    }

    /// LFC scores are running averages of Stide mismatches: bounded by
    /// the frame's content and equal to plain Stide for frame 1.
    #[test]
    fn lfc_is_a_running_average(
        train in stream(3, 10, 120),
        test in stream(3, 5, 60),
        dw in 2usize..4,
        frame in 1usize..6,
    ) {
        prop_assume!(train.len() >= dw);
        let mut plain = Stide::new(dw);
        let mut lfc = StideLfc::new(dw, frame);
        let profile = StreamProfile::new(&train);
        plain.train(&profile);
        lfc.train(&profile);
        let raw = plain.scores(&test);
        let smooth = lfc.scores(&test);
        for i in 0..raw.len() {
            let start = i.saturating_sub(frame - 1);
            let expected: f64 =
                raw[start..=i].iter().sum::<f64>() / frame as f64;
            prop_assert!((smooth[i] - expected).abs() < 1e-12, "position {}", i);
        }
    }
}
