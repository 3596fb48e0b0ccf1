//! Fixed-length sequence (n-gram) databases.
//!
//! All four detectors of the study acquire normal behaviour "by sliding a
//! detector window of fixed-length size (DW) across the training data, and
//! storing the DW-sized sequences in a database" (§5.2). [`NgramCounter`]
//! is that database: its occurrence counts serve as a presence set (Stide,
//! Lane & Brodley), as relative frequencies (the rare-sequence definition
//! of §5.3, t-stide) and, regrouped by prefix, as the conditional counts
//! of the probabilistic detectors.

use std::collections::HashMap;
use std::fmt;

use crate::hash::BuildSymbolHasher;
use crate::symbol::Symbol;

/// The paper's definition of a *rare* sequence: relative frequency below
/// 0.5 % in the training data (§5.3, taken from Warrender et al. 1999).
pub const DEFAULT_RARE_THRESHOLD: f64 = 0.005;

/// A counting database of fixed-length sequences with relative-frequency
/// queries.
///
/// The total used as the denominator of a relative frequency is the number
/// of windows observed (stream length − window length + 1), matching the
/// paper's notion of a sequence's relative frequency in the training data.
///
/// # Examples
///
/// ```
/// use detdiv_sequence::{symbols, NgramCounter};
///
/// let stream = symbols(&[1, 2, 1, 2, 1, 3]);
/// let db = NgramCounter::from_stream(&stream, 2);
/// assert_eq!(db.count(&symbols(&[1, 2])), 2);
/// assert_eq!(db.count(&symbols(&[1, 3])), 1);
/// assert_eq!(db.count(&symbols(&[3, 1])), 0);
/// assert_eq!(db.total_windows(), 5);
/// assert!(db.is_foreign(&symbols(&[3, 1])));
/// assert!(db.is_rare(&symbols(&[1, 3]), 0.25));
/// assert!(!db.is_rare(&symbols(&[1, 2]), 0.25)); // common at 40 %
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NgramCounter {
    ngram_len: usize,
    counts: HashMap<Box<[Symbol]>, u64, BuildSymbolHasher>,
    total: u64,
}

impl NgramCounter {
    /// Creates an empty counter for sequences of length `ngram_len`.
    ///
    /// # Panics
    ///
    /// Panics if `ngram_len` is zero.
    pub fn new(ngram_len: usize) -> Self {
        assert!(ngram_len > 0, "ngram length must be positive");
        NgramCounter {
            ngram_len,
            counts: HashMap::default(),
            total: 0,
        }
    }

    /// Builds the counter over every length-`ngram_len` window of
    /// `stream`. Streams shorter than the window give an empty counter.
    ///
    /// # Panics
    ///
    /// Panics if `ngram_len` is zero.
    pub fn from_stream(stream: &[Symbol], ngram_len: usize) -> Self {
        let mut db = NgramCounter::new(ngram_len);
        for w in stream.windows(ngram_len) {
            db.add(w, 1);
        }
        db
    }

    /// The counter of the length-`ngram_len` prefixes of `self`'s grams
    /// over `stream`, the stream `self` counts. Each longer window starts
    /// a shorter one, so its count goes to its prefix; the shorter
    /// windows starting in the stream's last `self.ngram_len() −
    /// ngram_len` positions start no longer window and are counted from
    /// the stream. The result equals `from_stream(stream, ngram_len)`.
    pub(crate) fn prefix_fold(&self, stream: &[Symbol], ngram_len: usize) -> Self {
        debug_assert!(0 < ngram_len && ngram_len < self.ngram_len);
        let mut db = NgramCounter::new(ngram_len);
        for (gram, count) in self.iter() {
            db.add(&gram[..ngram_len], count);
        }
        let tail = stream.len().saturating_sub(self.ngram_len - 1);
        for w in stream[tail..].windows(ngram_len) {
            db.add(w, 1);
        }
        db
    }

    fn add(&mut self, gram: &[Symbol], count: u64) {
        self.total += count;
        // Lookup-then-insert avoids allocating a boxed key on the hot
        // path (already-present grams dominate in repetitive streams).
        if let Some(c) = self.counts.get_mut(gram) {
            *c += count;
        } else {
            self.counts.insert(gram.into(), count);
        }
    }

    /// Occurrence count of `gram` (zero for foreign or wrong-length grams).
    #[inline]
    pub fn count(&self, gram: &[Symbol]) -> u64 {
        if gram.len() != self.ngram_len {
            return 0;
        }
        self.counts.get(gram).copied().unwrap_or(0)
    }

    /// Relative frequency of `gram` among all observed windows.
    ///
    /// Returns 0.0 when no windows have been observed.
    pub fn relative_frequency(&self, gram: &[Symbol]) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count(gram) as f64 / self.total as f64
    }

    /// Whether `gram` occurred: the presence view of the database.
    #[inline]
    pub fn contains(&self, gram: &[Symbol]) -> bool {
        self.count(gram) > 0
    }

    /// Whether `gram` never occurred — a *foreign* sequence (§5.1).
    #[inline]
    pub fn is_foreign(&self, gram: &[Symbol]) -> bool {
        self.count(gram) == 0
    }

    /// Whether `gram` occurred, but with relative frequency strictly below
    /// `threshold` — a *rare* sequence (§5.3).
    pub fn is_rare(&self, gram: &[Symbol], threshold: f64) -> bool {
        let c = self.count(gram);
        c > 0 && (c as f64 / self.total as f64) < threshold
    }

    /// Whether `gram` occurred with relative frequency at or above
    /// `threshold` — a *common* sequence.
    pub fn is_common(&self, gram: &[Symbol], threshold: f64) -> bool {
        let c = self.count(gram);
        c > 0 && (c as f64 / self.total as f64) >= threshold
    }

    /// The fixed sequence length of this counter.
    #[inline]
    pub const fn ngram_len(&self) -> usize {
        self.ngram_len
    }

    /// Total number of windows observed (denominator of relative
    /// frequencies).
    #[inline]
    pub const fn total_windows(&self) -> u64 {
        self.total
    }

    /// Number of distinct sequences observed.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Whether no windows have been observed.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Iterates over `(sequence, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Symbol], u64)> {
        self.counts.iter().map(|(k, &v)| (k.as_ref(), v))
    }
}

impl fmt::Display for NgramCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ngram-counter(len={}, distinct={}, windows={})",
            self.ngram_len,
            self.counts.len(),
            self.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::symbols;

    #[test]
    fn counter_counts_and_frequencies() {
        // windows of len 2: (1,2) (2,1) (1,2) (2,1) (1,2) => total 5
        let s = symbols(&[1, 2, 1, 2, 1, 2]);
        let db = NgramCounter::from_stream(&s, 2);
        assert_eq!(db.total_windows(), 5);
        assert_eq!(db.count(&symbols(&[1, 2])), 3);
        assert_eq!(db.count(&symbols(&[2, 1])), 2);
        assert!((db.relative_frequency(&symbols(&[1, 2])) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn counter_foreign_rare_common_partition() {
        let mut stream = Vec::new();
        // ~300 occurrences of (0,1); 1 occurrence of (2,3), whose relative
        // frequency 1/601 is safely below the 0.5 % rarity threshold.
        for _ in 0..300 {
            stream.extend(symbols(&[0, 1]));
        }
        stream.extend(symbols(&[2, 3]));
        let db = NgramCounter::from_stream(&stream, 2);
        let rare = symbols(&[2, 3]);
        let foreign = symbols(&[3, 2]);
        let common = symbols(&[0, 1]);
        assert!(db.is_rare(&rare, DEFAULT_RARE_THRESHOLD));
        assert!(db.is_foreign(&foreign));
        assert!(!db.is_rare(&foreign, DEFAULT_RARE_THRESHOLD)); // foreign is not rare
        assert!(db.is_common(&common, DEFAULT_RARE_THRESHOLD));
        assert!(!db.is_common(&foreign, DEFAULT_RARE_THRESHOLD));
    }

    #[test]
    fn counter_contains_exactly_the_occurring_grams() {
        let db = NgramCounter::from_stream(&symbols(&[1, 2, 3, 1, 2]), 2);
        assert!(db.contains(&symbols(&[3, 1])));
        assert!(!db.contains(&symbols(&[2, 1])));
        assert!(!db.contains(&symbols(&[1, 2, 3])), "wrong length");
    }

    #[test]
    fn counter_short_stream_is_empty() {
        let db = NgramCounter::from_stream(&symbols(&[1, 2]), 5);
        assert!(db.is_empty());
        assert_eq!(db.distinct(), 0);
    }

    #[test]
    #[should_panic(expected = "ngram length must be positive")]
    fn counter_rejects_zero_length() {
        let _ = NgramCounter::new(0);
    }

    #[test]
    fn prefix_fold_equals_direct_counting() {
        let s = symbols(&[1, 2, 3, 1, 2, 4, 1, 2, 3, 3]);
        for long in 2..=12 {
            let longer = NgramCounter::from_stream(&s, long);
            for len in 1..long {
                assert_eq!(
                    longer.prefix_fold(&s, len),
                    NgramCounter::from_stream(&s, len),
                    "{long} -> {len}"
                );
            }
        }
    }

    #[test]
    fn counter_empty_relative_frequency_is_zero() {
        let db = NgramCounter::new(3);
        assert_eq!(db.relative_frequency(&symbols(&[1, 2, 3])), 0.0);
        assert!(db.is_empty());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!NgramCounter::new(2).to_string().is_empty());
    }
}
