//! A suffix-automaton substring index with occurrence counts.
//!
//! An [`NgramCounter`](crate::NgramCounter) answers presence/frequency
//! questions for **one fixed window length**;
//! profiling a stream at every length up to `L` therefore costs
//! `O(n · L)` time and memory. A [`SubstringIndex`] is the classic
//! alternative: one suffix automaton over the stream, built in
//! `O(n log |Σ|)`, answering `contains` / `count` for patterns of **any
//! length** in `O(len(pattern))` — which makes the minimal-foreign-
//! sequence census and the corpus verifier independent of a maximal
//! profiled length.

use crate::symbol::Symbol;

/// One automaton state.
#[derive(Debug, Clone)]
struct State {
    /// Length of the longest substring in this state's class.
    len: u32,
    /// Suffix link (`-1` for the root).
    link: i32,
    /// Outgoing transitions, sorted by symbol for binary search.
    trans: Vec<(u32, u32)>,
    /// Occurrence count of the substrings in this state's class.
    count: u64,
}

impl State {
    fn get(&self, symbol: u32) -> Option<u32> {
        self.trans
            .binary_search_by_key(&symbol, |&(s, _)| s)
            .ok()
            .map(|i| self.trans[i].1)
    }

    fn set(&mut self, symbol: u32, to: u32) {
        match self.trans.binary_search_by_key(&symbol, |&(s, _)| s) {
            Ok(i) => self.trans[i].1 = to,
            Err(i) => self.trans.insert(i, (symbol, to)),
        }
    }
}

/// A substring index over one stream: presence and occurrence counts
/// for patterns of arbitrary length.
///
/// # Examples
///
/// ```
/// use detdiv_sequence::{symbols, SubstringIndex};
///
/// let mut stream = Vec::new();
/// for _ in 0..10 { stream.extend(symbols(&[1, 2, 3, 4])); }
/// stream.extend(symbols(&[2, 4])); // one rare excursion
///
/// let index = SubstringIndex::build(&stream);
/// assert!(index.contains(&symbols(&[3, 4, 1])));
/// assert_eq!(index.count(&symbols(&[2, 4])), 1);
/// assert_eq!(index.count(&symbols(&[1, 3])), 0);
/// // (1,2,4): both flanks occur, the whole does not — an MFS, decided
/// // without choosing any profiling length in advance.
/// assert!(index.is_minimal_foreign(&symbols(&[1, 2, 4])));
/// ```
#[derive(Debug, Clone)]
pub struct SubstringIndex {
    states: Vec<State>,
    stream_len: usize,
}

impl SubstringIndex {
    /// Builds the index over `stream` (classic online suffix-automaton
    /// construction plus a count-propagation pass).
    pub fn build(stream: &[Symbol]) -> Self {
        let mut states = Vec::with_capacity(2 * stream.len().max(1));
        states.push(State {
            len: 0,
            link: -1,
            trans: Vec::new(),
            count: 0,
        });
        let mut last: u32 = 0;

        for &sym in stream {
            let c = sym.id();
            let cur = states.len() as u32;
            states.push(State {
                len: states[last as usize].len + 1,
                link: 0,
                trans: Vec::new(),
                count: 1, // a fresh endpoint
            });
            let mut p = last as i32;
            while p >= 0 && states[p as usize].get(c).is_none() {
                states[p as usize].set(c, cur);
                p = states[p as usize].link;
            }
            if p < 0 {
                states[cur as usize].link = 0;
            } else {
                let q = states[p as usize]
                    .get(c)
                    .expect("loop exited on a transition");
                if states[p as usize].len + 1 == states[q as usize].len {
                    states[cur as usize].link = q as i32;
                } else {
                    // Clone q.
                    let clone = states.len() as u32;
                    let mut cloned = states[q as usize].clone();
                    cloned.len = states[p as usize].len + 1;
                    cloned.count = 0; // clones get counts by propagation only
                    states.push(cloned);
                    while p >= 0 && states[p as usize].get(c) == Some(q) {
                        states[p as usize].set(c, clone);
                        p = states[p as usize].link;
                    }
                    states[q as usize].link = clone as i32;
                    states[cur as usize].link = clone as i32;
                }
            }
            last = cur;
        }

        // Propagate endpoint counts up the suffix-link tree in order of
        // decreasing len (counting sort by len).
        let max_len = stream.len();
        let mut buckets = vec![0usize; max_len + 2];
        for s in &states {
            buckets[s.len as usize] += 1;
        }
        for i in 1..buckets.len() {
            buckets[i] += buckets[i - 1];
        }
        let mut order = vec![0u32; states.len()];
        for (i, s) in states.iter().enumerate() {
            buckets[s.len as usize] -= 1;
            order[buckets[s.len as usize]] = i as u32;
        }
        for &i in order.iter().rev() {
            let link = states[i as usize].link;
            if link >= 0 {
                let add = states[i as usize].count;
                states[link as usize].count += add;
            }
        }

        SubstringIndex {
            states,
            stream_len: stream.len(),
        }
    }

    /// Length of the indexed stream.
    pub fn stream_len(&self) -> usize {
        self.stream_len
    }

    /// Number of automaton states (diagnostic; at most `2n − 1`).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    fn walk(&self, gram: &[Symbol]) -> Option<usize> {
        let mut state = 0usize;
        for &sym in gram {
            state = self.states[state].get(sym.id())? as usize;
        }
        Some(state)
    }

    /// Whether `gram` occurs in the stream. The empty pattern occurs by
    /// convention.
    pub fn contains(&self, gram: &[Symbol]) -> bool {
        self.walk(gram).is_some()
    }

    /// Number of occurrences of `gram` in the stream (0 for absent or
    /// over-long patterns; `stream_len + 1` conventionally for the empty
    /// pattern is avoided by returning the window count).
    pub fn count(&self, gram: &[Symbol]) -> u64 {
        if gram.is_empty() {
            return self.stream_len as u64;
        }
        self.walk(gram).map(|s| self.states[s].count).unwrap_or(0)
    }

    /// Relative frequency among the stream's windows of `gram.len()`.
    pub fn relative_frequency(&self, gram: &[Symbol]) -> f64 {
        let windows = self.stream_len.saturating_sub(gram.len().saturating_sub(1));
        if windows == 0 || gram.is_empty() {
            return 0.0;
        }
        self.count(gram) as f64 / windows as f64
    }

    /// Whether `gram` never occurs — a *foreign* sequence.
    pub fn is_foreign(&self, gram: &[Symbol]) -> bool {
        !self.contains(gram)
    }

    /// Whether `gram` occurs with relative frequency strictly below
    /// `threshold` — a *rare* sequence.
    pub fn is_rare(&self, gram: &[Symbol], threshold: f64) -> bool {
        let c = self.count(gram);
        c > 0 && self.relative_frequency(gram) < threshold
    }

    /// Whether `gram` is a *minimal foreign sequence*: foreign while
    /// both its length-(N−1) windows occur (see
    /// [`StreamProfile::is_minimal_foreign`] for the reduction).
    ///
    /// [`StreamProfile::is_minimal_foreign`]: crate::StreamProfile::is_minimal_foreign
    pub fn is_minimal_foreign(&self, gram: &[Symbol]) -> bool {
        gram.len() >= 2
            && self.is_foreign(gram)
            && self.contains(&gram[..gram.len() - 1])
            && self.contains(&gram[1..])
    }
}

impl std::fmt::Display for SubstringIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "substring-index(stream_len={}, states={})",
            self.stream_len,
            self.states.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ngram::NgramCounter;
    use crate::symbol::symbols;

    #[test]
    fn counts_match_brute_force_on_small_streams() {
        let s = symbols(&[1, 2, 1, 2, 1, 3, 1, 2]);
        let idx = SubstringIndex::build(&s);
        for len in 1..=4 {
            let counter = NgramCounter::from_stream(&s, len);
            for w in s.windows(len) {
                assert_eq!(idx.count(w), counter.count(w), "gram {w:?}");
            }
        }
        assert_eq!(idx.count(&symbols(&[3, 3])), 0);
        assert_eq!(idx.count(&symbols(&[2, 1, 3])), 1);
    }

    #[test]
    fn contains_and_foreign() {
        let s = symbols(&[0, 1, 2, 3, 0, 1, 2, 3]);
        let idx = SubstringIndex::build(&s);
        assert!(idx.contains(&symbols(&[1, 2, 3, 0])));
        assert!(idx.is_foreign(&symbols(&[3, 2])));
        assert!(idx.contains(&[]));
        // Patterns longer than the stream are foreign.
        assert!(idx.is_foreign(&symbols(&[0, 1, 2, 3, 0, 1, 2, 3, 0])));
    }

    #[test]
    fn empty_stream() {
        let idx = SubstringIndex::build(&[]);
        assert_eq!(idx.stream_len(), 0);
        assert!(idx.is_foreign(&symbols(&[1])));
        assert_eq!(idx.count(&symbols(&[1])), 0);
    }

    #[test]
    fn minimal_foreign_agrees_with_profile() {
        use crate::profile::StreamProfile;
        let mut s = Vec::new();
        for _ in 0..50 {
            s.extend(symbols(&[1, 2, 3, 4]));
        }
        s.extend(symbols(&[2, 4]));
        let idx = SubstringIndex::build(&s);
        let profile = StreamProfile::build(&s, 4).unwrap();
        for probe in [
            symbols(&[1, 2, 4]),
            symbols(&[2, 4, 1]),
            symbols(&[4, 2, 4]),
            symbols(&[1, 2, 3]),
            symbols(&[2, 1, 3]),
        ] {
            assert_eq!(
                idx.is_minimal_foreign(&probe),
                profile.is_minimal_foreign(&probe),
                "{probe:?}"
            );
        }
    }

    #[test]
    fn rare_and_frequency() {
        let mut s = Vec::new();
        for _ in 0..500 {
            s.extend(symbols(&[0, 1]));
        }
        s.extend(symbols(&[2, 3]));
        let idx = SubstringIndex::build(&s);
        assert!(idx.is_rare(&symbols(&[2, 3]), 0.005));
        assert!(!idx.is_rare(&symbols(&[0, 1]), 0.005));
        assert!(!idx.is_rare(&symbols(&[3, 2]), 0.005)); // foreign, not rare
        let counter = NgramCounter::from_stream(&s, 2);
        let g = symbols(&[0, 1]);
        assert!((idx.relative_frequency(&g) - counter.relative_frequency(&g)).abs() < 1e-12);
    }

    #[test]
    fn state_count_is_linear() {
        let mut s = Vec::new();
        for _ in 0..1000 {
            s.extend(symbols(&[0, 1, 2, 3, 4, 5, 6, 7]));
        }
        let idx = SubstringIndex::build(&s);
        assert!(idx.state_count() <= 2 * s.len());
        assert!(!idx.to_string().is_empty());
    }

    #[test]
    fn arbitrary_length_queries_beyond_any_profile() {
        // A 40-element pattern query — far beyond what per-length
        // profiling would be built for.
        let mut s = Vec::new();
        for _ in 0..100 {
            s.extend(symbols(&[0, 1, 2, 3]));
        }
        let idx = SubstringIndex::build(&s);
        let long: Vec<_> = s[..40].to_vec();
        assert!(idx.contains(&long));
        let brute = s.windows(40).filter(|w| *w == long.as_slice()).count() as u64;
        assert_eq!(idx.count(&long), brute);
        let mut corrupted = long.clone();
        corrupted[20] = Symbol::new(7);
        assert!(idx.is_foreign(&corrupted));
    }
}
