//! Property-based tests for the sequence substrate's core invariants.

use std::collections::BTreeSet;

use detdiv_sequence::{minimal_foreign_positions, NgramCounter, StreamProfile, Symbol};
use proptest::prelude::*;

/// Strategy: a stream of symbols over a small alphabet, long enough for
/// profiling at the lengths we test.
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

/// Probes of length `len` for a table built from `stream`: every window
/// of the stream, each with one symbol swapped for another alphabet
/// symbol (near-normal), `random` windows over the alphabet (mostly
/// foreign), and wrong-length probes.
fn probes(
    alphabet: &[Symbol],
    stream: &[Symbol],
    len: usize,
    random: &[usize],
) -> Vec<Vec<Symbol>> {
    let mut probes: Vec<Vec<Symbol>> = Vec::new();
    for (i, w) in stream.windows(len).enumerate() {
        probes.push(w.to_vec());
        let mut near = w.to_vec();
        let at = i % len;
        let pos = alphabet
            .iter()
            .position(|&a| a == near[at])
            .expect("drawn from the alphabet");
        near[at] = alphabet[(pos + 1) % alphabet.len()];
        probes.push(near);
    }
    for chunk in random.chunks(len) {
        probes.push(
            chunk
                .iter()
                .map(|&i| alphabet[i % alphabet.len()])
                .collect(),
        );
    }
    probes.push(vec![alphabet[0]; len + 1]);
    if len > 1 {
        probes.push(vec![alphabet[0]; len - 1]);
    }
    probes
}

proptest! {
    /// The hashed tables answer exactly as a naive scan of the stream,
    /// at window lengths 1-15, on every alphabet.
    #[test]
    fn hashed_tables_match_a_naive_scan(
        corpus in alphabet_stream(200),
        len in 1usize..=15,
        random in prop::collection::vec(0usize..64, 0..=60),
    ) {
        let (alphabet, s) = corpus;
        let counter = NgramCounter::from_stream(&s, len);
        let occurrences = |g: &[Symbol]| s.windows(len).filter(|w| *w == g).count() as u64;
        for probe in probes(&alphabet, &s, len, &random) {
            let expected = if probe.len() == len { occurrences(&probe) } else { 0 };
            prop_assert_eq!(counter.contains(&probe), expected > 0, "{:?}", probe);
            prop_assert_eq!(counter.count(&probe), expected, "{:?}", probe);
        }
        prop_assert_eq!(counter.total_windows(), s.windows(len).count() as u64);
        let distinct: BTreeSet<&[Symbol]> = s.windows(len).collect();
        prop_assert_eq!(counter.distinct(), distinct.len());
    }

    /// Every window of the source stream is contained in the counter
    /// built from it, with a positive count.
    #[test]
    fn all_windows_are_members(s in stream(6, 8, 128), len in 1usize..5) {
        let counter = NgramCounter::from_stream(&s, len);
        for w in s.windows(len) {
            prop_assert!(counter.contains(w));
            prop_assert!(counter.count(w) > 0);
        }
    }

    /// The census's counters equal direct counting — counts, distinct
    /// grams and `total_windows` — whatever order the lengths are asked
    /// for in, so whichever longer length each one is folded from. The
    /// lengths run past the stream's length, down to 1, on every
    /// alphabet.
    #[test]
    fn census_counters_equal_direct_counting_in_any_order(
        corpus in alphabet_stream(120),
        lengths in prop::collection::vec(1usize..=20, 1..=12),
    ) {
        let (_, s) = corpus;
        let profile = StreamProfile::new(&s);
        for &len in &lengths {
            let direct = NgramCounter::from_stream(&s, len);
            let census = profile.counter(len);
            prop_assert_eq!(census.total_windows(), direct.total_windows(), "len {}", len);
            prop_assert_eq!(census.total_windows(), (s.len() + 1).saturating_sub(len) as u64);
            prop_assert_eq!(&*census, &direct, "len {} after {:?}", len, lengths);
        }
    }

    /// The counter's total equals the number of windows, and per-gram
    /// counts sum to the total.
    #[test]
    fn counter_totals_are_consistent(s in stream(6, 8, 128), len in 1usize..5) {
        let counter = NgramCounter::from_stream(&s, len);
        let expected = s.len().saturating_sub(len - 1) as u64;
        prop_assert_eq!(counter.total_windows(), expected);
        let sum: u64 = counter.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(sum, expected);
    }

    /// Relative frequencies lie in [0, 1] and sum to 1 over distinct grams.
    #[test]
    fn relative_frequencies_normalise(s in stream(4, 8, 96), len in 1usize..4) {
        let counter = NgramCounter::from_stream(&s, len);
        let mut sum = 0.0;
        for (g, _) in counter.iter() {
            let f = counter.relative_frequency(g);
            prop_assert!((0.0..=1.0).contains(&f));
            sum += f;
        }
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    /// Foreign / rare / common partition the space of same-length grams:
    /// exactly one of the three holds for any gram.
    #[test]
    fn anomaly_taxonomy_is_a_partition(
        s in stream(4, 8, 96),
        probe in prop::collection::vec(0u32..4, 3),
        threshold in 0.001f64..0.999,
    ) {
        let counter = NgramCounter::from_stream(&s, 3);
        let gram: Vec<Symbol> = probe.into_iter().map(Symbol::new).collect();
        let f = counter.is_foreign(&gram);
        let r = counter.is_rare(&gram, threshold);
        let c = counter.is_common(&gram, threshold);
        prop_assert_eq!(usize::from(f) + usize::from(r) + usize::from(c), 1);
    }

    /// Minimality is equivalent to the explicit definition: foreign, and
    /// every proper contiguous subsequence occurs.
    #[test]
    fn minimality_matches_explicit_definition(
        s in stream(3, 10, 80),
        probe in prop::collection::vec(0u32..3, 2..5),
    ) {
        let max_len = 5;
        let s = if s.len() >= max_len { s } else { return Ok(()); };
        let profile = StreamProfile::build(&s, max_len).unwrap();
        let gram: Vec<Symbol> = probe.into_iter().map(Symbol::new).collect();

        let explicit = profile.is_foreign(&gram) && {
            let mut all_subs_exist = true;
            for sub_len in 1..gram.len() {
                for w in gram.windows(sub_len) {
                    if !profile.contains(w) {
                        all_subs_exist = false;
                    }
                }
            }
            all_subs_exist
        };
        prop_assert_eq!(profile.is_minimal_foreign(&gram), explicit);
    }

    /// Foreignness is upward closed: any contiguous supersequence of a
    /// foreign sequence is itself foreign.
    #[test]
    fn foreignness_is_upward_closed(
        s in stream(3, 10, 80),
        probe in prop::collection::vec(0u32..3, 4),
    ) {
        let profile = StreamProfile::build(&s, 4).unwrap();
        let gram: Vec<Symbol> = probe.into_iter().map(Symbol::new).collect();
        // If any sub-window of length 3 is foreign, the length-4 gram is too.
        for w in gram.windows(3) {
            if profile.is_foreign(w) {
                prop_assert!(profile.is_foreign(&gram));
            }
        }
    }

    /// The census reports exactly the positions whose window is an MFS.
    #[test]
    fn census_agrees_with_pointwise_checks(
        train in stream(3, 10, 80),
        test in stream(3, 5, 40),
    ) {
        let profile = StreamProfile::build(&train, 4).unwrap();
        let hits = minimal_foreign_positions(&profile, &test, 3).unwrap();
        for (i, w) in test.windows(3).enumerate() {
            prop_assert_eq!(hits.contains(&i), profile.is_minimal_foreign(w));
        }
    }
}

proptest! {
    /// The suffix-automaton index agrees with the brute-force counters
    /// at every length, on arbitrary streams.
    #[test]
    fn substring_index_matches_counters(s in stream(4, 1, 120)) {
        use detdiv_sequence::SubstringIndex;
        let idx = SubstringIndex::build(&s);
        for len in 1..=4.min(s.len()) {
            let counter = NgramCounter::from_stream(&s, len);
            for w in s.windows(len) {
                prop_assert_eq!(idx.count(w), counter.count(w));
                prop_assert!(idx.contains(w));
            }
        }
        prop_assert!(idx.state_count() <= 2 * s.len().max(1));
    }

    /// Index-based MFS checks agree with profile-based ones for any
    /// probe within the profiled range.
    #[test]
    fn substring_index_matches_profile_mfs(
        s in stream(3, 6, 100),
        probe in prop::collection::vec(0u32..3, 2..5),
    ) {
        use detdiv_sequence::SubstringIndex;
        let profile = StreamProfile::build(&s, 5).unwrap();
        let idx = SubstringIndex::build(&s);
        let gram: Vec<Symbol> = probe.into_iter().map(Symbol::new).collect();
        prop_assert_eq!(idx.is_foreign(&gram), profile.is_foreign(&gram));
        prop_assert_eq!(idx.is_minimal_foreign(&gram), profile.is_minimal_foreign(&gram));
        prop_assert_eq!(idx.count(&gram), profile.count(&gram));
    }
}
