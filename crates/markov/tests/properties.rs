//! Property tests for the Markov substrate.

use detdiv_markov::{ConditionalModel, Prediction, TransitionMatrix};
use detdiv_sequence::{Alphabet, Symbol};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn stream(max_sym: u32, min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<Symbol>> {
    prop::collection::vec((0..max_sym).prop_map(Symbol::new), min_len..=max_len)
}

/// Strategy: an alphabet and a stream drawn from it. The alphabets are
/// small dense ids, ids that differ only in their high bits, and a few
/// ids from the full `u32` range — what the symbol hasher must spread.
fn alphabet_stream(max_len: usize) -> impl Strategy<Value = (Vec<Symbol>, Vec<Symbol>)> {
    let alphabet = prop_oneof![
        Just((0..4).map(Symbol::new).collect::<Vec<_>>()),
        Just(
            (0..8u32)
                .map(|k| Symbol::new(k << 29 | 5))
                .collect::<Vec<_>>()
        ),
        prop::collection::vec((0..=u32::MAX).prop_map(Symbol::new), 2..6),
    ];
    (alphabet, prop::collection::vec(0usize..64, 0..=max_len)).prop_map(|(alphabet, picks)| {
        let stream = picks
            .iter()
            .map(|&i| alphabet[i % alphabet.len()])
            .collect();
        (alphabet, stream)
    })
}

proptest! {
    /// `predict` answers exactly as a naive scan of the stream, for
    /// every observed context, each followed by every alphabet symbol,
    /// and for contexts that never occur — at context lengths 1-15, on
    /// every alphabet.
    #[test]
    fn predict_matches_a_naive_scan(
        corpus in alphabet_stream(200),
        k in 1usize..=15,
        random in prop::collection::vec(0usize..64, 0..=60),
    ) {
        let (alphabet, s) = corpus;
        prop_assume!(s.len() > k);
        let m = ConditionalModel::estimate(&s, k).unwrap();
        let windows = || s.windows(k + 1);
        let mut contexts: Vec<Vec<Symbol>> = s.windows(k).map(<[Symbol]>::to_vec).collect();
        contexts.extend(
            random
                .chunks_exact(k)
                .map(|c| c.iter().map(|&i| alphabet[i % alphabet.len()]).collect()),
        );
        for context in &contexts {
            let seen = windows().filter(|w| w[..k] == context[..]).count() as u64;
            for &next in &alphabet {
                let expected = if seen == 0 {
                    Prediction::UnseenContext
                } else {
                    let hits = windows()
                        .filter(|w| w[..k] == context[..] && w[k] == next)
                        .count() as u64;
                    Prediction::Known(hits as f64 / seen as f64)
                };
                prop_assert_eq!(m.predict(context, next), expected, "{:?} -> {}", context, next);
            }
        }
    }

    /// Estimated transition matrices are row-stochastic for any stream.
    #[test]
    fn estimated_rows_are_stochastic(s in stream(5, 2, 200), smoothing in 0.0f64..2.0) {
        let a = Alphabet::new(5);
        let m = TransitionMatrix::estimate(&s, a, smoothing).unwrap();
        for from in a.symbols() {
            let sum: f64 = m.row(from).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "row {from} sums to {sum}");
        }
    }

    /// Without smoothing, estimated probability is positive exactly for
    /// observed transitions (over observed source states).
    #[test]
    fn support_matches_observations(s in stream(4, 2, 120)) {
        let a = Alphabet::new(4);
        let m = TransitionMatrix::estimate(&s, a, 0.0).unwrap();
        let mut seen = [false; 16];
        for w in s.windows(2) {
            seen[w[0].index() * 4 + w[1].index()] = true;
        }
        let observed_source = |x: usize| s[..s.len() - 1].iter().any(|sym| sym.index() == x);
        for from in 0..4usize {
            if !observed_source(from) {
                continue; // uniform fallback row
            }
            for to in 0..4usize {
                let p = m.probability(Symbol::new(from as u32), Symbol::new(to as u32));
                prop_assert_eq!(p > 0.0, seen[from * 4 + to], "({}, {})", from, to);
            }
        }
    }

    /// Generated streams only use transitions with positive probability.
    #[test]
    fn generation_respects_support(seed in 0u64..1000, len in 2usize..200) {
        let a = Alphabet::new(6);
        let m = TransitionMatrix::noisy_cycle(a, 0.3);
        let mut rng = SmallRng::seed_from_u64(seed);
        let s = m.generate(Symbol::new(0), len, &mut rng);
        prop_assert_eq!(s.len(), len);
        for w in s.windows(2) {
            prop_assert!(m.probability(w[0], w[1]) > 0.0);
        }
    }

    /// The stationary distribution is a distribution and is fixed under
    /// one (damped) step of the chain.
    #[test]
    fn stationary_is_a_distribution(noise in 0.01f64..0.4) {
        let a = Alphabet::new(8);
        let m = TransitionMatrix::noisy_cycle(a, noise);
        let pi = m.stationary(20_000, 1e-13);
        let sum: f64 = pi.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        prop_assert!(pi.iter().all(|&p| p >= 0.0));
        // For the symmetric noisy cycle, uniform by symmetry.
        for &p in &pi {
            prop_assert!((p - 0.125).abs() < 1e-4, "entry {p}");
        }
    }

    /// Conditional-model distributions normalise per observed context,
    /// and predictions for contexts absent from training are
    /// UnseenContext.
    #[test]
    fn conditional_model_normalises(s in stream(4, 5, 150), k in 1usize..4) {
        prop_assume!(s.len() > k);
        let m = ConditionalModel::estimate(&s, k).unwrap();
        // Every k-window except possibly the final one (which has no
        // successor) is a seen context with a normalised distribution.
        for (i, w) in s.windows(k).enumerate() {
            if i + k >= s.len() {
                continue;
            }
            prop_assert!(m.context_seen(w));
            let mut sum = 0.0;
            for next in 0..4u32 {
                sum += m.predict(w, Symbol::new(next)).probability_or_zero();
            }
            prop_assert!((sum - 1.0).abs() < 1e-9, "context {w:?} sums to {sum}");
        }
        // A context containing an unseen symbol is unseen.
        let foreign = vec![Symbol::new(9); k];
        prop_assert_eq!(m.predict(&foreign, Symbol::new(0)), Prediction::UnseenContext);
    }

    /// The conditional model's total observations equal the number of
    /// (context, next) windows.
    #[test]
    fn conditional_model_counts(s in stream(5, 4, 150), k in 1usize..3) {
        prop_assume!(s.len() > k);
        let m = ConditionalModel::estimate(&s, k).unwrap();
        prop_assert_eq!(m.total_observations(), (s.len() - k) as u64);
    }
}
