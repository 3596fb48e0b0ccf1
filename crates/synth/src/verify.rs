//! Post-synthesis invariant verification (DESIGN.md §2.2).
//!
//! The paper's injection procedure is generate-and-verify: "It is easy to
//! generate such sequences, and to verify their foreign-ness and
//! minimality characteristics. ... It must be ensured that no background
//! data sequences or boundary sequences register as foreign or rare. If
//! this is not possible for some location in the trace, a new anomaly
//! must be produced as a replacement, and the process repeated." (§5.4.2)
//!
//! This module is the verifier half of that loop. It checks, against the
//! census of the assembled training stream (the [`StreamProfile`] every
//! counting detector trains from):
//!
//! 1. every anomaly is a **minimal foreign sequence composed of rare
//!    subsequences** (foreign as a whole; both proper flanks present and
//!    rare);
//! 2. for every (anomaly size, detector window) case, every in-span
//!    (boundary or interior) test-stream window that does not contain
//!    the whole anomaly **exists** in the training data, and every
//!    out-of-span background window is **common**. A window containing
//!    the whole anomaly needs no check: it is foreign because the
//!    anomaly is (invariant 1).

use detdiv_sequence::StreamProfile;

use crate::corpus::Corpus;
use crate::error::SynthesisError;

fn fail(check: impl Into<String>) -> SynthesisError {
    SynthesisError::VerificationFailed {
        check: check.into(),
    }
}

/// Runs the full invariant suite against `corpus`.
pub(crate) fn verify_corpus(corpus: &Corpus) -> Result<(), SynthesisError> {
    let config = corpus.config();
    let training = corpus.training();
    let alphabet = corpus.alphabet();

    if !alphabet.contains_all(training) {
        return Err(fail("training stream leaves the alphabet"));
    }

    let max_len = config.max_window().max(config.max_anomaly());
    if training.len() < max_len {
        return Err(fail("training stream shorter than the largest window"));
    }
    // The training census answers every presence/frequency question
    // below. Counted once at the largest length, every shorter length
    // is folded from it.
    let profile = StreamProfile::new(training);
    profile.counter(max_len);

    // Invariant 1: each anomaly is an MFS composed of rare subsequences.
    for anomaly_size in config.anomaly_sizes() {
        let anomaly = corpus
            .anomaly(anomaly_size)
            .ok_or_else(|| fail(format!("missing anomaly of size {anomaly_size}")))?;
        let gram = anomaly.symbols();
        if !profile.is_foreign(gram) {
            return Err(fail(format!(
                "anomaly {anomaly} occurs in the training data"
            )));
        }
        if !profile.is_minimal_foreign(gram) {
            return Err(fail(format!("anomaly {anomaly} is not minimal")));
        }
        // Composed of rare subsequences: both proper flanks are rare
        // (for size 2 the flanks are single symbols; minimality already
        // guarantees their presence).
        if gram.len() > 2
            && !(profile.is_rare(&gram[..gram.len() - 1], config.rare_threshold())
                && profile.is_rare(&gram[1..], config.rare_threshold()))
        {
            return Err(fail(format!(
                "anomaly {anomaly} is not composed of rare subsequences"
            )));
        }
    }

    // Invariant 2: per-case window taxonomy.
    for anomaly_size in config.anomaly_sizes() {
        let test = corpus
            .test_stream(anomaly_size)
            .ok_or_else(|| fail(format!("missing test stream for size {anomaly_size}")))?;
        let stream = &test.stream;
        let p = test.injection_position;
        if p + anomaly_size > stream.len() {
            return Err(fail("injection position out of bounds"));
        }
        for window in config.windows() {
            let counts = profile.counter(window);
            for (start, w) in stream.windows(window).enumerate() {
                if start <= p && start + window >= p + anomaly_size {
                    // Foreign already: any occurrence of this window in
                    // the training data would hold one of the anomaly,
                    // which invariant 1 proved foreign.
                    continue;
                }
                let in_span = start + window > p && start < p + anomaly_size;
                if in_span {
                    if !counts.contains(w) {
                        return Err(fail(format!(
                            "size-{anomaly_size} anomaly: boundary window at {start} (DW {window}) is foreign"
                        )));
                    }
                } else if counts.relative_frequency(w) < config.rare_threshold() {
                    return Err(fail(format!(
                        "size-{anomaly_size} anomaly: background window at {start} (DW {window}) is not common"
                    )));
                }
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use detdiv_sequence::{NgramCounter, Symbol};

    use crate::anomaly::Anomaly;
    use crate::config::SynthesisConfig;
    use crate::corpus::{cycle_stream, Corpus};
    use crate::error::SynthesisError;

    /// An anomaly with its test stream and injection position, as
    /// [`Corpus::from_parts`] takes them.
    type Part = (Anomaly, Vec<Symbol>, usize);

    /// Replaces the part of `gram`'s size by `gram` spliced into the
    /// same background at the same position.
    fn with_anomaly(mut parts: Vec<Part>, gram: Vec<Symbol>) -> Vec<Part> {
        let part = parts
            .iter_mut()
            .find(|(a, ..)| a.len() == gram.len())
            .unwrap();
        let p = part.2;
        part.1.splice(p..p + gram.len(), gram.iter().copied());
        part.0 = Anomaly::new(gram);
        parts
    }

    /// One doctored corpus per verifier check, reassembled through
    /// [`Corpus::from_parts`] (the path a persisted suite takes on
    /// load); each must be refused with that check's text.
    ///
    /// Invariant 2 does not check windows holding the whole anomaly: a
    /// window holding a foreign gram is itself foreign, so the training
    /// that would make one common breaks invariant 1's "occurs in the
    /// training data" instead — the second row.
    #[test]
    fn each_check_refuses_its_doctored_corpus() {
        let config = SynthesisConfig::builder()
            .training_len(40_000)
            .anomaly_sizes(2..=5)
            .windows(2..=8)
            .background_len(640)
            .plant_repeats(3)
            .seed(0)
            .build()
            .unwrap();
        let corpus = Corpus::synthesize(&config).unwrap();
        let training = corpus.training().to_vec();
        let threshold = config.rare_threshold();
        let bigrams = NgramCounter::from_stream(&training, 2);
        let trigrams = NgramCounter::from_stream(&training, 3);
        let parts: Vec<Part> = corpus
            .anomalies()
            .map(|a| {
                let test = corpus.test_stream(a.len()).unwrap();
                (a.clone(), test.stream.clone(), test.injection_position)
            })
            .collect();
        let pair = corpus.anomaly(2).unwrap().symbols().to_vec();
        let triple = corpus.anomaly(3).unwrap().symbols();

        // Foreign, but so is its prefix: the size-2 anomaly.
        let not_minimal = [pair.as_slice(), &pair[..1]].concat();
        // Minimal foreign, but a flank is common.
        let n = config.alphabet_size();
        let not_rare_composed = (0..n.pow(3))
            .map(|i| [i / (n * n), i / n % n, i % n].map(Symbol::new).to_vec())
            .find(|g| {
                trigrams.is_foreign(g)
                    && bigrams.contains(&g[..2])
                    && bigrams.contains(&g[1..])
                    && !(bigrams.is_rare(&g[..2], threshold) && bigrams.is_rare(&g[1..], threshold))
            })
            .unwrap();
        // The size-2 anomaly injected where a symbol next to it makes a
        // foreign bigram.
        let background = cycle_stream(n, config.background_len());
        let q = (1..background.len())
            .find(|&q| {
                bigrams.is_foreign(&[background[q - 1], pair[0]])
                    || bigrams.is_foreign(&[pair[1], background[q]])
            })
            .unwrap();
        let mut foreign_boundary = parts.clone();
        foreign_boundary[0] = (
            Anomaly::new(pair.clone()),
            [&background[..q], pair.as_slice(), &background[q..]].concat(),
            q,
        );
        // The first background bigram of the size-2 test stream made
        // rare or foreign.
        let mut rare_background = parts.clone();
        let (_, stream, p) = &mut rare_background[0];
        assert!(*p >= 2, "window 0 must lie outside the span");
        stream[0] = corpus
            .alphabet()
            .symbols()
            .find(|&x| bigrams.relative_frequency(&[x, stream[1]]) < threshold)
            .unwrap();

        let rows: Vec<(&str, Vec<Symbol>, Vec<Part>, &str)> = vec![
            (
                "training leaves the alphabet",
                [training.as_slice(), &[Symbol::new(n)]].concat(),
                parts.clone(),
                "training stream leaves the alphabet",
            ),
            (
                "anomaly occurs in training",
                [training.as_slice(), triple].concat(),
                parts.clone(),
                "occurs in the training data",
            ),
            (
                "anomaly not minimal",
                training.clone(),
                with_anomaly(parts.clone(), not_minimal),
                "is not minimal",
            ),
            (
                "anomaly not composed of rare subsequences",
                training.clone(),
                with_anomaly(parts.clone(), not_rare_composed),
                "is not composed of rare subsequences",
            ),
            (
                "boundary window foreign",
                training.clone(),
                foreign_boundary,
                "boundary window at",
            ),
            (
                "background window not common",
                training.clone(),
                rare_background,
                "is not common",
            ),
        ];
        for (row, training, parts, expected) in rows {
            match Corpus::from_parts(config.clone(), training, parts) {
                Err(SynthesisError::VerificationFailed { check }) => assert!(
                    check.contains(expected),
                    "{row}: refused with {check:?}, expected {expected:?}"
                ),
                other => panic!("{row}: expected a verification failure, got {other:?}"),
            }
        }
    }

    /// Full-grid verification at the paper's anomaly/window ranges on a
    /// reduced training length. (The default 1 M stream is exercised by
    /// the benchmark harness.)
    #[test]
    fn paper_grid_verifies_on_reduced_corpus() {
        let config = SynthesisConfig::builder()
            .training_len(120_000)
            .background_len(1024)
            .seed(2005)
            .build()
            .unwrap();
        let corpus = Corpus::synthesize(&config).unwrap();
        corpus.verify().unwrap();
    }

    /// Several seeds in a row must all verify: the constructive planting
    /// is not luck-dependent.
    #[test]
    fn many_seeds_verify() {
        for seed in 0..5 {
            let config = SynthesisConfig::builder()
                .training_len(40_000)
                .anomaly_sizes(2..=5)
                .windows(2..=8)
                .background_len(640)
                .plant_repeats(3)
                .seed(seed)
                .build()
                .unwrap();
            let corpus = Corpus::synthesize(&config).unwrap();
            corpus
                .verify()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
