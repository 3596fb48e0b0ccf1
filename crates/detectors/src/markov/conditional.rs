//! Order-k conditional next-symbol models.
//!
//! The paper's Markov-based detector "calculates the probability that the
//! DW-th element will follow" the preceding elements of the window (§5.2,
//! with the smallest workable window being 2: "the next expected, single,
//! categorical element is dependent only on the current, single,
//! categorical element"). A window of size DW therefore conditions on a
//! context of DW − 1 elements — an order-(DW − 1) Markov model, realised
//! here as a [`ConditionalModel`].

use std::collections::HashMap;

use detdiv_sequence::{BuildSymbolHasher, NgramCounter, Symbol};

/// The outcome of a conditional-probability query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Prediction {
    /// The context was observed in training; the wrapped value is the
    /// maximum-likelihood `P(next | context)` (possibly exactly zero for
    /// a never-observed continuation of an observed context).
    Known(f64),
    /// The context itself never occurred in training; no conditional
    /// distribution exists. Detectors treat this as maximally anomalous.
    UnseenContext,
}

/// Per-context successor statistics.
#[derive(Debug, Clone, Default)]
struct SuccessorDist {
    counts: HashMap<Symbol, u64, BuildSymbolHasher>,
    total: u64,
}

/// An order-k conditional model `P(next | k preceding elements)`,
/// estimated by maximum likelihood from a training stream's counted
/// `(k + 1)`-grams.
#[derive(Debug, Clone)]
pub(crate) struct ConditionalModel {
    context_len: usize,
    table: HashMap<Box<[Symbol]>, SuccessorDist, BuildSymbolHasher>,
}

impl ConditionalModel {
    /// The model of order `counts.ngram_len() − 1`: the counted
    /// `(k + 1)`-grams regrouped by their `k`-symbol prefix, each gram's
    /// count becoming its final symbol's count after that context.
    ///
    /// # Panics
    ///
    /// Panics if `counts.ngram_len() < 2`, which leaves no context.
    pub(crate) fn from_counts(counts: &NgramCounter) -> Self {
        assert!(
            counts.ngram_len() >= 2,
            "a conditional model needs grams of at least 2 symbols"
        );
        let context_len = counts.ngram_len() - 1;
        let mut table: HashMap<Box<[Symbol]>, SuccessorDist, BuildSymbolHasher> =
            HashMap::default();
        for (gram, count) in counts.iter() {
            let dist = table.entry(gram[..context_len].into()).or_default();
            dist.counts.insert(gram[context_len], count);
            dist.total += count;
        }
        ConditionalModel { context_len, table }
    }

    /// `P(next | context)` as a [`Prediction`].
    ///
    /// # Panics
    ///
    /// Panics if `context` is not `k` symbols long.
    pub(crate) fn predict(&self, context: &[Symbol], next: Symbol) -> Prediction {
        assert_eq!(
            context.len(),
            self.context_len,
            "context length must match the model's order"
        );
        match self.table.get(context) {
            None => Prediction::UnseenContext,
            Some(dist) => {
                let c = dist.counts.get(&next).copied().unwrap_or(0);
                Prediction::Known(c as f64 / dist.total as f64)
            }
        }
    }

    /// Iterates over `(context, next, count)` triples.
    pub(crate) fn iter_counts(&self) -> impl Iterator<Item = (&[Symbol], Symbol, u64)> {
        self.table.iter().flat_map(|(ctx, dist)| {
            dist.counts
                .iter()
                .map(move |(&next, &c)| (ctx.as_ref(), next, c))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::symbols;
    use proptest::prelude::*;

    /// The model with `k`-symbol contexts over `stream`'s `(k + 1)`-grams.
    fn model(stream: &[Symbol], k: usize) -> ConditionalModel {
        ConditionalModel::from_counts(&NgramCounter::from_stream(stream, k + 1))
    }

    /// `P(next | context)`, an unseen context counting as zero.
    fn probability(m: &ConditionalModel, context: &[Symbol], next: Symbol) -> f64 {
        match m.predict(context, next) {
            Prediction::Known(p) => p,
            Prediction::UnseenContext => 0.0,
        }
    }

    #[test]
    fn probabilities_are_maximum_likelihood() {
        // (1): followed by 2 three times.
        // (2): followed by 1 twice, by 3 once.
        let train = symbols(&[1, 2, 1, 2, 3, 1, 2, 1]);
        let m = model(&train, 1);
        assert_eq!(
            m.predict(&symbols(&[1]), symbols(&[2])[0]),
            Prediction::Known(1.0)
        );
        assert_eq!(
            m.predict(&symbols(&[2]), symbols(&[1])[0]),
            Prediction::Known(2.0 / 3.0)
        );
        assert_eq!(
            m.predict(&symbols(&[2]), symbols(&[3])[0]),
            Prediction::Known(1.0 / 3.0)
        );
        // Seen context, unseen continuation: Known(0).
        assert_eq!(
            m.predict(&symbols(&[2]), symbols(&[2])[0]),
            Prediction::Known(0.0)
        );
        // Symbol 4 never occurs, so context (4) is unseen.
        assert_eq!(
            m.predict(&symbols(&[4]), symbols(&[1])[0]),
            Prediction::UnseenContext
        );
    }

    #[test]
    fn order_two_contexts() {
        let m = model(&symbols(&[1, 2, 3, 1, 2, 3, 1, 2, 4]), 2);
        // Context (1,2) was followed by 3 twice and by 4 once.
        assert_eq!(
            m.predict(&symbols(&[1, 2]), Symbol::new(3)),
            Prediction::Known(2.0 / 3.0)
        );
        // Context (3,2) never occurred.
        assert_eq!(
            m.predict(&symbols(&[3, 2]), Symbol::new(1)),
            Prediction::UnseenContext
        );
    }

    #[test]
    #[should_panic(expected = "context length must match")]
    fn predict_rejects_wrong_context_len() {
        let m = model(&symbols(&[1, 2, 3]), 1);
        let _ = m.predict(&symbols(&[1, 2]), Symbol::new(3));
    }

    #[test]
    fn per_context_distributions_normalise() {
        let train = symbols(&[1, 2, 1, 3, 1, 2, 1, 2, 1, 3, 1, 1]);
        let m = model(&train, 1);
        // Sum of P(next | 1) over observed successors must be 1.
        let sum: f64 = (0..4u32)
            .map(|next| probability(&m, &symbols(&[1]), Symbol::new(next)))
            .sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iter_counts_covers_every_transition() {
        let train = symbols(&[1, 2, 3, 1, 2, 3, 1, 2]);
        let m = model(&train, 2);
        let total: u64 = m.iter_counts().map(|(_, _, c)| c).sum();
        assert_eq!(total, (train.len() - 2) as u64);
    }

    #[test]
    #[should_panic(expected = "at least 2 symbols")]
    fn from_counts_rejects_unigrams() {
        let _ = ConditionalModel::from_counts(&NgramCounter::from_stream(&symbols(&[1, 2]), 1));
    }

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
            let m = model(&s, k);
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

        /// Conditional distributions normalise per observed context, and
        /// predictions for contexts absent from training are
        /// UnseenContext.
        #[test]
        fn conditional_model_normalises(s in stream(4, 5, 150), k in 1usize..4) {
            prop_assume!(s.len() > k);
            let m = model(&s, k);
            // Every k-window except the final one (which has no
            // successor) is a seen context with a normalised distribution.
            for w in s.windows(k).take(s.len() - k) {
                let mut sum = 0.0;
                for next in 0..4u32 {
                    let p = m.predict(w, Symbol::new(next));
                    prop_assert!(p != Prediction::UnseenContext, "context {:?} unseen", w);
                    sum += probability(&m, w, Symbol::new(next));
                }
                prop_assert!((sum - 1.0).abs() < 1e-9, "context {w:?} sums to {sum}");
            }
            // A context containing an unseen symbol is unseen.
            let foreign = vec![Symbol::new(9); k];
            prop_assert_eq!(m.predict(&foreign, Symbol::new(0)), Prediction::UnseenContext);
        }

        /// The counts cover one observation per (context, next) window.
        #[test]
        fn conditional_model_counts(s in stream(5, 4, 150), k in 1usize..3) {
            prop_assume!(s.len() > k);
            let m = model(&s, k);
            let total: u64 = m.iter_counts().map(|(_, _, c)| c).sum();
            prop_assert_eq!(total, (s.len() - k) as u64);
        }
    }
}
