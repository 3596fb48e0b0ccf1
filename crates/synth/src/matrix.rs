//! First-order transition matrices.
//!
//! The paper's training data is "constructed using a Markov-model
//! transition matrix" (§5.3): a mostly deterministic cycle over the
//! 8-symbol alphabet with "a small amount of nondeterminism in the
//! probabilities of the data generation matrix" supplying the 2 % of rare
//! material. [`TransitionMatrix`] is that generator object; the corpus
//! module builds the paper's specific matrix on top of it.

use detdiv_sequence::{Alphabet, Symbol};
use rand::Rng;

/// Tolerance used when validating that each row sums to one.
const ROW_SUM_TOLERANCE: f64 = 1e-9;

/// A row-stochastic first-order transition matrix over an [`Alphabet`].
#[derive(Debug, Clone)]
pub(crate) struct TransitionMatrix {
    alphabet: Alphabet,
    /// Row-major `n x n` probabilities; `rows[from * n + to]`.
    rows: Vec<f64>,
}

impl TransitionMatrix {
    /// Builds a matrix from explicit per-row probability vectors.
    ///
    /// # Panics
    ///
    /// Panics if the number of rows or any row's length differs from the
    /// alphabet size, or if any row has a negative entry or does not sum
    /// to 1 within `1e-9`.
    pub(crate) fn from_rows(alphabet: Alphabet, rows: &[Vec<f64>]) -> Self {
        let n = alphabet.len();
        assert_eq!(rows.len(), n, "expected one transition row per symbol");
        let mut flat = Vec::with_capacity(n * n);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "transition row {i} has the wrong length");
            let sum: f64 = row.iter().sum();
            assert!(
                !(row.iter().any(|&p| p < 0.0) || (sum - 1.0).abs() > ROW_SUM_TOLERANCE),
                "transition row {i} sums to {sum}, expected 1 with no negative entry"
            );
            flat.extend_from_slice(row);
        }
        TransitionMatrix {
            alphabet,
            rows: flat,
        }
    }

    /// The alphabet this matrix is defined over.
    #[inline]
    pub(crate) const fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    /// The full outgoing distribution of `from` as a slice of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is outside the alphabet.
    pub(crate) fn row(&self, from: Symbol) -> &[f64] {
        let n = self.alphabet.len();
        assert!(self.alphabet.contains(from));
        &self.rows[from.index() * n..(from.index() + 1) * n]
    }

    /// Samples a successor of `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is outside the alphabet.
    fn sample_next<R: Rng + ?Sized>(&self, from: Symbol, rng: &mut R) -> Symbol {
        let row = self.row(from);
        let mut u: f64 = rng.gen();
        for (to, &p) in row.iter().enumerate() {
            if u < p {
                return Symbol::new(to as u32);
            }
            u -= p;
        }
        // Floating-point slack: fall back to the last symbol with
        // positive probability.
        let last = row
            .iter()
            .rposition(|&p| p > 0.0)
            .expect("stochastic row has a positive entry");
        Symbol::new(last as u32)
    }

    /// Generates a stream of `len` symbols starting from `start`.
    ///
    /// The returned stream begins with `start` itself.
    ///
    /// # Panics
    ///
    /// Panics if `start` is outside the alphabet.
    pub(crate) fn generate<R: Rng + ?Sized>(
        &self,
        start: Symbol,
        len: usize,
        rng: &mut R,
    ) -> Vec<Symbol> {
        assert!(self.alphabet.contains(start));
        let mut out = Vec::with_capacity(len);
        if len == 0 {
            return out;
        }
        out.push(start);
        let mut state = start;
        for _ in 1..len {
            state = self.sample_next(state, rng);
            out.push(state);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sym(i: u32) -> Symbol {
        Symbol::new(i)
    }

    /// The deterministic cycle `0 -> 1 -> ... -> n-1 -> 0`.
    fn cycle(n: u32) -> TransitionMatrix {
        let n = n as usize;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|from| {
                let mut row = vec![0.0; n];
                row[(from + 1) % n] = 1.0;
                row
            })
            .collect();
        TransitionMatrix::from_rows(Alphabet::new(n as u32), &rows)
    }

    #[test]
    fn from_rows_accepts_stochastic_rows() {
        let m = TransitionMatrix::from_rows(Alphabet::new(2), &[vec![0.5, 0.5], vec![1.0, 0.0]]);
        assert_eq!(m.row(sym(1)), &[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "transition row 0 sums to")]
    fn from_rows_rejects_a_row_not_summing_to_one() {
        let _ = TransitionMatrix::from_rows(Alphabet::new(2), &[vec![0.5, 0.6], vec![1.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "no negative entry")]
    fn from_rows_rejects_negative_entries() {
        let _ = TransitionMatrix::from_rows(Alphabet::new(2), &[vec![-0.5, 1.5], vec![1.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "one transition row per symbol")]
    fn from_rows_rejects_missing_rows() {
        let _ = TransitionMatrix::from_rows(Alphabet::new(2), &[vec![1.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "transition row 1 has the wrong length")]
    fn from_rows_rejects_short_rows() {
        let _ = TransitionMatrix::from_rows(Alphabet::new(2), &[vec![1.0, 0.0], vec![1.0]]);
    }

    #[test]
    fn sampling_respects_support() {
        let m = cycle(5);
        let mut rng = SmallRng::seed_from_u64(7);
        for from in 0..5u32 {
            for _ in 0..20 {
                let next = m.sample_next(sym(from), &mut rng);
                assert_eq!(next.id(), (from + 1) % 5);
            }
        }
    }

    #[test]
    fn sampling_frequency_tracks_probability() {
        let a = Alphabet::new(2);
        let m = TransitionMatrix::from_rows(a, &[vec![0.25, 0.75], vec![0.5, 0.5]]);
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 100_000;
        let stays = (0..n)
            .filter(|_| m.sample_next(sym(0), &mut rng) == sym(0))
            .count();
        let freq = stays as f64 / n as f64;
        assert!((freq - 0.25).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn generate_starts_at_start_and_has_len() {
        let m = cycle(3);
        let mut rng = SmallRng::seed_from_u64(3);
        let s = m.generate(sym(2), 7, &mut rng);
        assert_eq!(s.len(), 7);
        assert_eq!(s[0], sym(2));
        assert_eq!(s[1], sym(0));
        assert!(m.generate(sym(0), 0, &mut rng).is_empty());
    }

    proptest! {
        /// Generated streams only use transitions with positive
        /// probability.
        #[test]
        fn generation_respects_support(seed in 0u64..1000, len in 2usize..200) {
            let m = crate::corpus::escape_matrix(Alphabet::new(6), 0.3);
            let mut rng = SmallRng::seed_from_u64(seed);
            let s = m.generate(Symbol::new(0), len, &mut rng);
            prop_assert_eq!(s.len(), len);
            for w in s.windows(2) {
                prop_assert!(m.row(w[0])[w[1].index()] > 0.0);
            }
        }
    }
}
