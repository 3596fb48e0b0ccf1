//! The training census: a stream's n-gram counts at every window length.
//!
//! All the detectors of the study learn normal behaviour "by sliding a
//! detector window of fixed-length size (DW) across the training data,
//! and storing the DW-sized sequences in a database" (§5.2). A
//! [`StreamProfile`] holds those databases for one stream, one shared
//! [`NgramCounter`] per window length, built once on first demand: a
//! coverage sweep trains every counting family at every DW from one
//! profile.
//!
//! The anomaly of the study is the *minimal foreign sequence* (MFS, §5.1):
//! a sequence of length `N` that does not occur in the training data, all
//! of whose proper subsequences do. Deciding minimality requires knowing,
//! for several window lengths at once, which sequences the training data
//! contains and how often — the same profile answers that too.

use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use crate::error::SequenceError;
use crate::ngram::{NgramCounter, DEFAULT_RARE_THRESHOLD};
use crate::symbol::Symbol;

/// The n-gram census of a borrowed stream, one counter per window
/// length.
///
/// [`StreamProfile::counter`] builds the counter of a length on first
/// demand and shares it afterwards. A length is folded from the
/// shortest longer length already built — each longer gram's count
/// goes to its prefix, which costs one pass over the distinct longer
/// grams rather than one over the stream — and counted from the stream
/// when no longer length is built. Counts are integers, so either way
/// the counter equals [`NgramCounter::from_stream`]. Priming a profile
/// at the largest length it will serve therefore makes every shorter
/// length cheap.
///
/// A profile is `Sync`: the rows of a parallel sweep share one.
///
/// # Examples
///
/// ```
/// use detdiv_sequence::{symbols, StreamProfile};
///
/// let train = symbols(&[1, 2, 3, 4, 1, 2, 4, 2, 3, 4]);
/// let profile = StreamProfile::build(&train, 3).unwrap();
/// assert!(profile.contains(&symbols(&[1, 2, 3])));
/// assert!(profile.is_foreign(&symbols(&[3, 2, 1])));
/// // (4,2) occurs and (2,4) occurs, but (4,2,4) never does: an MFS.
/// assert!(profile.is_minimal_foreign(&symbols(&[4, 2, 4])));
/// ```
#[derive(Debug)]
pub struct StreamProfile<'a> {
    stream: &'a [Symbol],
    max_len: usize,
    /// `counters[len - 1]`, once built.
    counters: Mutex<Vec<Option<Arc<NgramCounter>>>>,
}

impl<'a> StreamProfile<'a> {
    /// An empty census of `stream` serving every window length; nothing
    /// is counted until a counter is asked for.
    pub fn new(stream: &'a [Symbol]) -> Self {
        StreamProfile {
            stream,
            max_len: usize::MAX,
            counters: Mutex::new(Vec::new()),
        }
    }

    /// Profiles `stream` at window lengths `1..=max_len`, counting
    /// length `max_len` up front.
    ///
    /// # Errors
    ///
    /// Returns [`SequenceError::InvalidWindow`] if `max_len` is zero, and
    /// [`SequenceError::StreamTooShort`] if the stream is shorter than
    /// `max_len` (no window of the maximal length would fit).
    pub fn build(stream: &'a [Symbol], max_len: usize) -> Result<Self, SequenceError> {
        if max_len == 0 {
            return Err(SequenceError::InvalidWindow { window: max_len });
        }
        if stream.len() < max_len {
            return Err(SequenceError::StreamTooShort {
                len: stream.len(),
                needed: max_len,
            });
        }
        let profile = StreamProfile {
            max_len,
            ..StreamProfile::new(stream)
        };
        profile.counter(max_len);
        Ok(profile)
    }

    /// The profiled stream.
    #[inline]
    pub const fn stream(&self) -> &'a [Symbol] {
        self.stream
    }

    /// The largest window length served: `max_len` for a profile from
    /// [`StreamProfile::build`], `usize::MAX` for one from
    /// [`StreamProfile::new`].
    #[inline]
    pub const fn max_len(&self) -> usize {
        self.max_len
    }

    /// Length of the profiled stream.
    #[inline]
    pub const fn stream_len(&self) -> usize {
        self.stream.len()
    }

    /// The counter for window length `len`, built on first demand.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or exceeds [`StreamProfile::max_len`].
    pub fn counter(&self, len: usize) -> Arc<NgramCounter> {
        assert!(
            (1..=self.max_len).contains(&len),
            "window length {len} outside profiled range 1..={}",
            self.max_len
        );
        // A panic cannot leave a half-built entry: counters are stored
        // only once complete.
        let mut counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        if counters.len() < len {
            counters.resize(len, None);
        }
        if let Some(built) = &counters[len - 1] {
            return Arc::clone(built);
        }
        let counter = match counters[len..].iter().flatten().next() {
            Some(longer) => longer.prefix_fold(self.stream, len),
            None => NgramCounter::from_stream(self.stream, len),
        };
        Arc::clone(counters[len - 1].insert(Arc::new(counter)))
    }

    /// Whether `gram` occurs in the stream (any profiled length).
    ///
    /// # Panics
    ///
    /// Panics if `gram.len()` is outside the profiled range.
    pub fn contains(&self, gram: &[Symbol]) -> bool {
        self.counter(gram.len()).count(gram) > 0
    }

    /// Occurrence count of `gram`.
    ///
    /// # Panics
    ///
    /// Panics if `gram.len()` is outside the profiled range.
    pub fn count(&self, gram: &[Symbol]) -> u64 {
        self.counter(gram.len()).count(gram)
    }

    /// Whether `gram` is *foreign*: it never occurs in the stream (§5.1).
    ///
    /// # Panics
    ///
    /// Panics if `gram.len()` is outside the profiled range.
    pub fn is_foreign(&self, gram: &[Symbol]) -> bool {
        !self.contains(gram)
    }

    /// Whether `gram` is *rare*: it occurs with relative frequency below
    /// `threshold` (§5.3; the paper uses 0.5 %).
    ///
    /// # Panics
    ///
    /// Panics if `gram.len()` is outside the profiled range.
    pub fn is_rare(&self, gram: &[Symbol], threshold: f64) -> bool {
        self.counter(gram.len()).is_rare(gram, threshold)
    }

    /// Whether `gram` is rare under the paper's 0.5 % definition.
    pub fn is_rare_default(&self, gram: &[Symbol]) -> bool {
        self.is_rare(gram, DEFAULT_RARE_THRESHOLD)
    }

    /// Whether `gram` is a *minimal foreign sequence*: foreign, while all
    /// of its proper contiguous subsequences occur (§5.1).
    ///
    /// Minimality reduces to a two-window check: every proper contiguous
    /// subsequence of `gram` is a window of either its length-(N−1) prefix
    /// or its length-(N−1) suffix, so `gram` is an MFS iff it is foreign
    /// and both of those occur in the stream. Length-1 grams cannot be
    /// minimal foreign (a single element cannot be both foreign and have
    /// occurring subsequences — see the paper's "undefined region").
    ///
    /// # Panics
    ///
    /// Panics if `gram.len()` is outside the profiled range.
    pub fn is_minimal_foreign(&self, gram: &[Symbol]) -> bool {
        if gram.len() < 2 {
            return false;
        }
        self.is_foreign(gram) && self.contains(&gram[..gram.len() - 1]) && self.contains(&gram[1..])
    }

    /// Whether `gram` is an MFS *composed of rare subsequences*: minimal
    /// foreign, and both of its length-(N−1) windows are rare at
    /// `threshold` (§5.4.2's anomaly construction requirement).
    ///
    /// For `N == 2` the length-1 windows are single symbols; the paper's
    /// alphabet makes every symbol common, so composition-of-rare is
    /// instead interpreted at the smallest compound length: the gram
    /// itself must be foreign and each symbol must occur (which minimality
    /// already guarantees).
    ///
    /// # Panics
    ///
    /// Panics if `gram.len()` is outside the profiled range.
    pub fn is_rare_composed_mfs(&self, gram: &[Symbol], threshold: f64) -> bool {
        if !self.is_minimal_foreign(gram) {
            return false;
        }
        if gram.len() == 2 {
            return true;
        }
        self.is_rare(&gram[..gram.len() - 1], threshold) && self.is_rare(&gram[1..], threshold)
    }
}

impl fmt::Display for StreamProfile<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream-profile(stream_len={}", self.stream.len())?;
        if self.max_len < usize::MAX {
            write!(f, ", max_len={}", self.max_len)?;
        }
        f.write_str(")")
    }
}

/// Positions in `test` at which a minimal foreign sequence of length `len`
/// (relative to the profiled training stream) begins.
///
/// This is the census tool behind the paper's §4.1 observation that
/// "natural data was found to be replete with minimal foreign sequences of
/// varying lengths".
///
/// # Errors
///
/// Returns [`SequenceError::InvalidWindow`] when `len` is zero, below 2,
/// or exceeds the profile's maximal profiled length.
///
/// # Examples
///
/// ```
/// use detdiv_sequence::{symbols, StreamProfile, minimal_foreign_positions};
///
/// let train = symbols(&[1, 2, 3, 1, 2, 3, 1, 2, 3]);
/// let profile = StreamProfile::build(&train, 3).unwrap();
/// // (2,3,2): foreign; (2,3) and (3,2)... (3,2) is foreign too, so not minimal.
/// // (3,1,2) occurs; (1,2,1) is foreign and minimal? (1,2) occurs, (2,1) doesn't.
/// let test = symbols(&[1, 2, 3, 1, 3, 1, 2]);
/// let hits = minimal_foreign_positions(&profile, &test, 2).unwrap();
/// assert_eq!(hits, vec![3]); // (1,3) foreign, both symbols occur
/// ```
pub fn minimal_foreign_positions(
    profile: &StreamProfile<'_>,
    test: &[Symbol],
    len: usize,
) -> Result<Vec<usize>, SequenceError> {
    if len < 2 || len > profile.max_len() {
        return Err(SequenceError::InvalidWindow { window: len });
    }
    if test.len() < len {
        return Ok(Vec::new());
    }
    Ok(test
        .windows(len)
        .enumerate()
        .filter(|(_, w)| profile.is_minimal_foreign(w))
        .map(|(i, _)| i)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::symbols;

    fn cycle_stream(reps: usize) -> Vec<Symbol> {
        let mut v = Vec::with_capacity(reps * 4);
        for _ in 0..reps {
            v.extend(symbols(&[1, 2, 3, 4]));
        }
        v
    }

    #[test]
    fn build_rejects_zero_and_short() {
        assert!(matches!(
            StreamProfile::build(&symbols(&[1, 2]), 0),
            Err(SequenceError::InvalidWindow { .. })
        ));
        assert!(matches!(
            StreamProfile::build(&symbols(&[1, 2]), 3),
            Err(SequenceError::StreamTooShort { .. })
        ));
    }

    #[test]
    fn counters_cover_all_lengths() {
        let s = cycle_stream(10);
        let p = StreamProfile::build(&s, 4).unwrap();
        for l in 1..=4 {
            assert_eq!(p.counter(l).ngram_len(), l);
            assert!(!p.counter(l).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "outside profiled range")]
    fn counter_out_of_range_panics() {
        let s = cycle_stream(4);
        let p = StreamProfile::build(&s, 2).unwrap();
        let _ = p.counter(3);
    }

    #[test]
    fn foreignness_matches_occurrence() {
        let s = cycle_stream(10);
        let p = StreamProfile::build(&s, 3).unwrap();
        assert!(p.contains(&symbols(&[2, 3, 4])));
        assert!(p.is_foreign(&symbols(&[2, 4, 3])));
        assert!(!p.is_foreign(&symbols(&[4, 1, 2])));
    }

    #[test]
    fn minimal_foreign_requires_both_flanks() {
        // Stream: cycle 1234 plus one rare tail excursion 2,4.
        let mut s = cycle_stream(50);
        s.extend(symbols(&[2, 4]));
        let p = StreamProfile::build(&s, 3).unwrap();
        // (2,1,3): (2,1) foreign => not minimal even though (2,1,3) foreign.
        assert!(p.is_foreign(&symbols(&[2, 1, 3])));
        assert!(!p.is_minimal_foreign(&symbols(&[2, 1, 3])));
        // (1,2,4): (1,2) occurs, (2,4) occurs, full gram foreign => minimal.
        assert!(p.is_minimal_foreign(&symbols(&[1, 2, 4])));
        // An occurring gram is never minimal foreign.
        assert!(!p.is_minimal_foreign(&symbols(&[1, 2, 3])));
    }

    #[test]
    fn length_one_never_minimal_foreign() {
        let s = cycle_stream(5);
        let p = StreamProfile::build(&s, 2).unwrap();
        assert!(!p.is_minimal_foreign(&symbols(&[9])));
        assert!(!p.is_minimal_foreign(&symbols(&[1])));
    }

    #[test]
    fn rare_composition_check() {
        // Common cycle plus exactly one occurrence of 1,3 and 3,2 material.
        let mut s = cycle_stream(200);
        s.extend(symbols(&[1, 3, 2, 3, 4]));
        s.extend(cycle_stream(200));
        let p = StreamProfile::build(&s, 3).unwrap();
        // (2,3,2): (2,3) occurs commonly, (3,2) occurs once in the
        // excursion, and the full trigram never occurs => minimal foreign.
        let gram = symbols(&[2, 3, 2]);
        assert!(p.is_minimal_foreign(&gram));
        // Composed of rare? (2,3) is common (cycle), so it fails the
        // rare-composition requirement at threshold 0.5 %.
        assert!(!p.is_rare_composed_mfs(&gram, DEFAULT_RARE_THRESHOLD));
        // But at a generous threshold where (2,3) counts as rare, it passes.
        assert!(p.is_rare_composed_mfs(&gram, 0.9));
    }

    #[test]
    fn rare_composed_len2_reduces_to_minimality() {
        let mut s = cycle_stream(100);
        s.push(Symbol::new(1)); // make (4,1),(1,1)? no: cycle already ends 4, push 1 keeps it clean
        let p = StreamProfile::build(&s, 2).unwrap();
        let foreign_bigram = symbols(&[2, 4]);
        assert!(p.is_foreign(&foreign_bigram));
        assert!(p.is_minimal_foreign(&foreign_bigram));
        assert!(p.is_rare_composed_mfs(&foreign_bigram, DEFAULT_RARE_THRESHOLD));
    }

    #[test]
    fn census_finds_planted_mfs() {
        let train = cycle_stream(100);
        let p = StreamProfile::build(&train, 4).unwrap();
        // Test stream: clean cycle with a foreign bigram (3,1) at index 6
        // ((3,1): 3 occurs, 1 occurs, (3,1) never occurs in cycle 1234).
        let test = symbols(&[1, 2, 3, 4, 1, 2, 3, 1, 2, 3, 4]);
        let hits = minimal_foreign_positions(&p, &test, 2).unwrap();
        assert_eq!(hits, vec![6]);
    }

    #[test]
    fn census_rejects_bad_lengths() {
        let s = cycle_stream(5);
        let p = StreamProfile::build(&s, 3).unwrap();
        assert!(minimal_foreign_positions(&p, &[], 1).is_err());
        assert!(minimal_foreign_positions(&p, &[], 4).is_err());
    }

    #[test]
    fn census_short_test_stream_is_empty() {
        let s = cycle_stream(5);
        let p = StreamProfile::build(&s, 3).unwrap();
        let hits = minimal_foreign_positions(&p, &symbols(&[1]), 2).unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn counters_are_built_once_and_shared() {
        let s = cycle_stream(10);
        let p = StreamProfile::new(&s);
        let first = p.counter(3);
        assert!(Arc::ptr_eq(&first, &p.counter(3)));
        assert_eq!(*first, NgramCounter::from_stream(&s, 3));
        // Shorter lengths fold from the built one; longer ones count.
        assert_eq!(*p.counter(2), NgramCounter::from_stream(&s, 2));
        assert_eq!(*p.counter(5), NgramCounter::from_stream(&s, 5));
    }

    #[test]
    fn unbounded_profile_serves_lengths_beyond_the_stream() {
        let s = cycle_stream(1);
        let p = StreamProfile::new(&s);
        assert_eq!(p.max_len(), usize::MAX);
        assert!(p.counter(9).is_empty());
        assert_eq!(p.counter(4).total_windows(), 1);
        assert_eq!(p.stream(), s.as_slice());
    }

    #[test]
    fn display_is_nonempty() {
        let s = cycle_stream(5);
        let p = StreamProfile::build(&s, 2).unwrap();
        assert!(!p.to_string().is_empty());
    }
}
