//! Fixed-length sequence (n-gram) databases.
//!
//! All four detectors of the study acquire normal behaviour "by sliding a
//! detector window of fixed-length size (DW) across the training data, and
//! storing the DW-sized sequences in a database" (§5.2). [`NgramSet`] is
//! that database in its presence/absence form (sufficient for Stide and
//! Lane & Brodley); [`NgramCounter`] additionally tracks occurrence counts
//! and relative frequencies, which the rare-sequence definition (§5.3) and
//! the probabilistic detectors require.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::hash::BuildSymbolHasher;
use crate::symbol::Symbol;

/// The paper's definition of a *rare* sequence: relative frequency below
/// 0.5 % in the training data (§5.3, taken from Warrender et al. 1999).
pub const DEFAULT_RARE_THRESHOLD: f64 = 0.005;

/// A presence/absence database of fixed-length sequences.
///
/// # Examples
///
/// ```
/// use detdiv_sequence::{symbols, NgramSet};
///
/// let stream = symbols(&[1, 2, 3, 1, 2, 3]);
/// let db = NgramSet::from_stream(&stream, 2);
/// assert!(db.contains(&symbols(&[1, 2])));
/// assert!(db.contains(&symbols(&[3, 1])));
/// assert!(!db.contains(&symbols(&[2, 1]))); // foreign
/// assert_eq!(db.ngram_len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NgramSet {
    ngram_len: usize,
    set: HashSet<Box<[Symbol]>, BuildSymbolHasher>,
}

impl NgramSet {
    /// Creates an empty database for sequences of length `ngram_len`.
    ///
    /// # Panics
    ///
    /// Panics if `ngram_len` is zero.
    pub fn new(ngram_len: usize) -> Self {
        assert!(ngram_len > 0, "ngram length must be positive");
        NgramSet {
            ngram_len,
            set: HashSet::default(),
        }
    }

    /// Builds the database of every length-`ngram_len` window of `stream`.
    ///
    /// Streams shorter than the window produce an empty database, matching
    /// the behaviour of a sliding window that never fits.
    pub fn from_stream(stream: &[Symbol], ngram_len: usize) -> Self {
        let mut db = NgramSet::new(ngram_len);
        db.extend_from_stream(stream);
        db
    }

    /// Slides the window across `stream` and inserts every window.
    pub fn extend_from_stream(&mut self, stream: &[Symbol]) {
        if stream.len() < self.ngram_len {
            return;
        }
        for w in stream.windows(self.ngram_len) {
            if !self.set.contains(w) {
                self.set.insert(w.to_vec().into_boxed_slice());
            }
        }
    }

    /// Inserts one sequence; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `gram.len() != self.ngram_len()`.
    pub fn insert(&mut self, gram: &[Symbol]) -> bool {
        assert_eq!(
            gram.len(),
            self.ngram_len,
            "inserted gram length must match the database's ngram length"
        );
        if self.set.contains(gram) {
            false
        } else {
            self.set.insert(gram.to_vec().into_boxed_slice())
        }
    }

    /// Whether `gram` is present in the database.
    ///
    /// Sequences of the wrong length are never present.
    #[inline]
    pub fn contains(&self, gram: &[Symbol]) -> bool {
        gram.len() == self.ngram_len && self.set.contains(gram)
    }

    /// The fixed sequence length of this database.
    #[inline]
    pub const fn ngram_len(&self) -> usize {
        self.ngram_len
    }

    /// Number of distinct sequences stored.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the database holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Iterates over the distinct stored sequences in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &[Symbol]> {
        self.set.iter().map(|b| b.as_ref())
    }
}

impl fmt::Display for NgramSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ngram-set(len={}, distinct={})",
            self.ngram_len,
            self.set.len()
        )
    }
}

impl Extend<Box<[Symbol]>> for NgramSet {
    fn extend<T: IntoIterator<Item = Box<[Symbol]>>>(&mut self, iter: T) {
        for gram in iter {
            assert_eq!(gram.len(), self.ngram_len);
            self.set.insert(gram);
        }
    }
}

/// A counting database of fixed-length sequences with relative-frequency
/// queries.
///
/// The total used as the denominator of a relative frequency is the number
/// of windows observed (stream length − window length + 1, summed over all
/// ingested streams), matching the paper's notion of a sequence's relative
/// frequency in the training data.
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

    /// Builds the counter over every length-`ngram_len` window of `stream`.
    pub fn from_stream(stream: &[Symbol], ngram_len: usize) -> Self {
        let mut db = NgramCounter::new(ngram_len);
        db.extend_from_stream(stream);
        db
    }

    /// Slides the window across `stream`, counting every window.
    pub fn extend_from_stream(&mut self, stream: &[Symbol]) {
        if stream.len() < self.ngram_len {
            return;
        }
        for w in stream.windows(self.ngram_len) {
            self.total += 1;
            // Lookup-then-insert avoids allocating a boxed key on the hot
            // path (already-present grams dominate in repetitive streams).
            if let Some(count) = self.counts.get_mut(w) {
                *count += 1;
            } else {
                self.counts.insert(w.to_vec().into_boxed_slice(), 1);
            }
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

    /// The distinct sequences whose relative frequency is strictly below
    /// `threshold`, i.e. the rare portion of the database.
    pub fn rare_ngrams(&self, threshold: f64) -> Vec<&[Symbol]> {
        self.iter()
            .filter(|&(_, c)| (c as f64 / self.total as f64) < threshold)
            .map(|(g, _)| g)
            .collect()
    }

    /// Converts to a presence/absence view.
    pub fn to_set(&self) -> NgramSet {
        let mut set = NgramSet::new(self.ngram_len);
        set.extend(self.counts.keys().cloned());
        set
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
    fn set_from_stream_collects_all_windows() {
        let s = symbols(&[1, 2, 3, 4, 1, 2]);
        let db = NgramSet::from_stream(&s, 3);
        assert_eq!(db.len(), 4); // 123 234 341 412
        assert!(db.contains(&symbols(&[3, 4, 1])));
        assert!(!db.contains(&symbols(&[4, 1, 3])));
    }

    #[test]
    fn set_ignores_wrong_length_lookups() {
        let db = NgramSet::from_stream(&symbols(&[1, 2, 3]), 2);
        assert!(!db.contains(&symbols(&[1, 2, 3])));
        assert!(!db.contains(&symbols(&[1])));
    }

    #[test]
    fn set_short_stream_is_empty() {
        let db = NgramSet::from_stream(&symbols(&[1, 2]), 5);
        assert!(db.is_empty());
        assert_eq!(db.len(), 0);
    }

    #[test]
    fn set_insert_reports_novelty() {
        let mut db = NgramSet::new(2);
        assert!(db.insert(&symbols(&[1, 2])));
        assert!(!db.insert(&symbols(&[1, 2])));
        assert_eq!(db.len(), 1);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn set_insert_rejects_wrong_length() {
        let mut db = NgramSet::new(2);
        db.insert(&symbols(&[1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "ngram length must be positive")]
    fn set_rejects_zero_length() {
        let _ = NgramSet::new(0);
    }

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
    fn counter_rare_ngrams_lists_only_rare() {
        let mut stream = Vec::new();
        for _ in 0..500 {
            stream.extend(symbols(&[0, 1]));
        }
        stream.extend(symbols(&[5, 6]));
        let db = NgramCounter::from_stream(&stream, 2);
        let rare = db.rare_ngrams(DEFAULT_RARE_THRESHOLD);
        // every listed gram is genuinely rare
        for g in &rare {
            assert!(db.is_rare(g, DEFAULT_RARE_THRESHOLD), "{g:?} not rare");
        }
        assert!(rare.iter().any(|g| *g == symbols(&[5, 6]).as_slice()));
    }

    #[test]
    fn counter_to_set_preserves_membership() {
        let s = symbols(&[1, 2, 3, 1, 2]);
        let counter = NgramCounter::from_stream(&s, 2);
        let set = counter.to_set();
        for (g, _) in counter.iter() {
            assert!(set.contains(g));
        }
        assert_eq!(set.len(), counter.distinct());
    }

    #[test]
    fn counter_empty_relative_frequency_is_zero() {
        let db = NgramCounter::new(3);
        assert_eq!(db.relative_frequency(&symbols(&[1, 2, 3])), 0.0);
        assert!(db.is_empty());
    }

    #[test]
    fn counter_extend_accumulates_across_streams() {
        let mut db = NgramCounter::new(2);
        db.extend_from_stream(&symbols(&[1, 2, 3]));
        db.extend_from_stream(&symbols(&[1, 2]));
        assert_eq!(db.count(&symbols(&[1, 2])), 2);
        assert_eq!(db.total_windows(), 3);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!NgramSet::new(2).to_string().is_empty());
        assert!(!NgramCounter::new(2).to_string().is_empty());
    }
}
