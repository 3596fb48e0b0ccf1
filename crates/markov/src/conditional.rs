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
use std::fmt;

use detdiv_sequence::{BuildSymbolHasher, NgramCounter, Symbol};

use crate::error::MarkovError;

/// The outcome of a conditional-probability query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Prediction {
    /// The context was observed in training; the wrapped value is the
    /// maximum-likelihood `P(next | context)` (possibly exactly zero for
    /// a never-observed continuation of an observed context).
    Known(f64),
    /// The context itself never occurred in training; no conditional
    /// distribution exists. Detectors treat this as maximally anomalous.
    UnseenContext,
}

impl Prediction {
    /// The probability under the convention that an unseen context has
    /// probability zero.
    #[inline]
    pub fn probability_or_zero(self) -> f64 {
        match self {
            Prediction::Known(p) => p,
            Prediction::UnseenContext => 0.0,
        }
    }
}

/// Per-context successor statistics.
#[derive(Debug, Clone, Default, PartialEq)]
struct SuccessorDist {
    counts: HashMap<Symbol, u64, BuildSymbolHasher>,
    total: u64,
}

/// An order-k conditional model `P(next | k preceding elements)`,
/// estimated by maximum likelihood from a training stream's counted
/// `(k + 1)`-grams.
///
/// # Examples
///
/// ```
/// use detdiv_markov::{ConditionalModel, Prediction};
/// use detdiv_sequence::symbols;
///
/// let train = symbols(&[1, 2, 3, 1, 2, 3, 1, 2, 4]);
/// let model = ConditionalModel::estimate(&train, 2).unwrap();
///
/// // Context (1,2) was followed by 3 twice and by 4 once.
/// assert_eq!(
///     model.predict(&symbols(&[1, 2]), symbols(&[3])[0]),
///     Prediction::Known(2.0 / 3.0)
/// );
/// // Context (3,2) never occurred.
/// assert_eq!(
///     model.predict(&symbols(&[3, 2]), symbols(&[1])[0]),
///     Prediction::UnseenContext
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConditionalModel {
    context_len: usize,
    table: HashMap<Box<[Symbol]>, SuccessorDist, BuildSymbolHasher>,
}

impl ConditionalModel {
    /// Estimates the model from `stream` with contexts of `context_len`
    /// elements: [`ConditionalModel::from_counts`] over the stream's
    /// `(context_len + 1)`-grams.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::ZeroContext`] if `context_len` is zero;
    /// * [`MarkovError::StreamTooShort`] if the stream holds no complete
    ///   `(context, next)` pair.
    pub fn estimate(stream: &[Symbol], context_len: usize) -> Result<Self, MarkovError> {
        if context_len == 0 {
            return Err(MarkovError::ZeroContext);
        }
        if stream.len() < context_len + 1 {
            return Err(MarkovError::StreamTooShort {
                len: stream.len(),
                needed: context_len + 1,
            });
        }
        Ok(Self::from_counts(&NgramCounter::from_stream(
            stream,
            context_len + 1,
        )))
    }

    /// The model of order `counts.ngram_len() − 1`: the counted
    /// `(k + 1)`-grams regrouped by their `k`-symbol prefix, each gram's
    /// count becoming its final symbol's count after that context.
    ///
    /// # Panics
    ///
    /// Panics if `counts.ngram_len() < 2`, which leaves no context.
    pub fn from_counts(counts: &NgramCounter) -> Self {
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

    /// The context length `k` of this model.
    #[inline]
    pub const fn context_len(&self) -> usize {
        self.context_len
    }

    /// Number of distinct contexts observed.
    pub fn distinct_contexts(&self) -> usize {
        self.table.len()
    }

    /// `P(next | context)` as a [`Prediction`].
    ///
    /// # Panics
    ///
    /// Panics if `context.len() != self.context_len()`.
    pub fn predict(&self, context: &[Symbol], next: Symbol) -> Prediction {
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

    /// Whether `context` was observed at all.
    ///
    /// # Panics
    ///
    /// Panics if `context.len() != self.context_len()`.
    pub fn context_seen(&self, context: &[Symbol]) -> bool {
        assert_eq!(context.len(), self.context_len);
        self.table.contains_key(context)
    }

    /// Iterates over `(context, next, count)` triples, useful for
    /// training approximators (e.g. the neural detector trains on the
    /// weighted empirical distribution rather than on the raw stream).
    pub fn iter_counts(&self) -> impl Iterator<Item = (&[Symbol], Symbol, u64)> {
        self.table.iter().flat_map(|(ctx, dist)| {
            dist.counts
                .iter()
                .map(move |(&next, &c)| (ctx.as_ref(), next, c))
        })
    }

    /// Total number of `(context, next)` observations.
    pub fn total_observations(&self) -> u64 {
        self.table.values().map(|d| d.total).sum()
    }
}

impl fmt::Display for ConditionalModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conditional-model(order={}, contexts={})",
            self.context_len,
            self.table.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::symbols;

    #[test]
    fn estimate_rejects_zero_context_and_short_streams() {
        assert!(matches!(
            ConditionalModel::estimate(&symbols(&[1, 2, 3]), 0),
            Err(MarkovError::ZeroContext)
        ));
        assert!(matches!(
            ConditionalModel::estimate(&symbols(&[1, 2]), 2),
            Err(MarkovError::StreamTooShort { .. })
        ));
    }

    #[test]
    fn probabilities_are_maximum_likelihood() {
        // (1): followed by 2 three times.
        // (2): followed by 1 twice, by 3 once.
        let train = symbols(&[1, 2, 1, 2, 3, 1, 2, 1]);
        let m = ConditionalModel::estimate(&train, 1).unwrap();
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
    fn unseen_context_detected() {
        let train = symbols(&[1, 2, 3, 1, 2, 3]);
        let m = ConditionalModel::estimate(&train, 2).unwrap();
        assert_eq!(
            m.predict(&symbols(&[2, 1]), symbols(&[3])[0]),
            Prediction::UnseenContext
        );
        assert!(m.context_seen(&symbols(&[1, 2])));
        assert!(!m.context_seen(&symbols(&[2, 1])));
    }

    #[test]
    #[should_panic(expected = "context length must match")]
    fn predict_rejects_wrong_context_len() {
        let m = ConditionalModel::estimate(&symbols(&[1, 2, 3]), 1).unwrap();
        let _ = m.predict(&symbols(&[1, 2]), Symbol::new(3));
    }

    #[test]
    fn per_context_distributions_normalise() {
        let train = symbols(&[1, 2, 1, 3, 1, 2, 1, 2, 1, 3, 1, 1]);
        let m = ConditionalModel::estimate(&train, 1).unwrap();
        // Sum of P(next | 1) over observed successors must be 1.
        let mut sum = 0.0;
        for next in 0..4u32 {
            sum += m
                .predict(&symbols(&[1]), Symbol::new(next))
                .probability_or_zero();
        }
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iter_counts_matches_totals() {
        let train = symbols(&[1, 2, 3, 1, 2, 3, 1, 2]);
        let m = ConditionalModel::estimate(&train, 2).unwrap();
        let total: u64 = m.iter_counts().map(|(_, _, c)| c).sum();
        assert_eq!(total, m.total_observations());
        assert_eq!(total, (train.len() - 2) as u64);
    }

    #[test]
    fn prediction_probability_or_zero() {
        assert_eq!(Prediction::Known(0.25).probability_or_zero(), 0.25);
        assert_eq!(Prediction::UnseenContext.probability_or_zero(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 symbols")]
    fn from_counts_rejects_unigrams() {
        let _ = ConditionalModel::from_counts(&NgramCounter::from_stream(&symbols(&[1, 2]), 1));
    }

    #[test]
    fn display_is_nonempty() {
        let m = ConditionalModel::estimate(&symbols(&[1, 2, 3]), 1).unwrap();
        assert!(!m.to_string().is_empty());
    }
}
