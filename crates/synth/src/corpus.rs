//! Corpus assembly: the paper's evaluation-data suite (§5.3–§5.4).
//!
//! A [`Corpus`] holds one training stream and one injected test stream
//! per anomaly size, shared across detector windows (the paper
//! replicates the test files per window; the content is identical).
//!
//! Training-stream layout:
//!
//! ```text
//! [natural] [P1(2) P2(2) .. P1(9) P2(9)] [natural] [plants] ... [natural]
//! ```
//!
//! *Natural* segments come from the paper's generation matrix — the
//! 8-cycle with 2 % escape nondeterminism. *Plant* blocks P1/P2 embed
//! each anomaly's proper prefix/suffix in full cycle context, realising
//! the rare material that makes the anomaly a *minimal* foreign sequence
//! and makes every boundary window of the injection a known sequence.
//! All blocks start at symbol 0 and end at symbol `n−1`, so block
//! junctions are ordinary cycle transitions and introduce no spurious
//! anomalies.

use std::collections::BTreeMap;

use detdiv_core::LabeledCase;
use detdiv_sequence::{Alphabet, Symbol};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::anomaly::{search_anomaly_set, Anomaly};
use crate::config::SynthesisConfig;
use crate::error::SynthesisError;
use crate::matrix::TransitionMatrix;
use crate::verify::verify_corpus;

/// One injected test stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TestStream {
    pub(crate) stream: Vec<Symbol>,
    pub(crate) injection_position: usize,
}

/// A complete, verified evaluation corpus.
///
/// # Examples
///
/// ```
/// use detdiv_synth::{Corpus, SynthesisConfig};
///
/// let config = SynthesisConfig::builder()
///     .training_len(30_000)
///     .anomaly_sizes(2..=3)
///     .windows(2..=4)
///     .background_len(512)
///     .seed(5)
///     .build()
///     .unwrap();
/// let corpus = Corpus::synthesize(&config).unwrap();
/// assert_eq!(corpus.alphabet().size(), 8);
/// let case = corpus.case(3, 4).unwrap();
/// assert_eq!(case.anomaly_size(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Corpus {
    config: SynthesisConfig,
    alphabet: Alphabet,
    training: Vec<Symbol>,
    anomalies: BTreeMap<usize, Anomaly>,
    tests: BTreeMap<usize, TestStream>,
}

impl Corpus {
    /// Synthesizes and verifies a corpus for `config`.
    ///
    /// The construction is deterministic in `config` (including its
    /// seed). Every invariant of DESIGN.md §2.2 is checked before the
    /// corpus is returned; on an (unlikely) anomaly-set collision the
    /// synthesis retries with a derived seed.
    ///
    /// # Errors
    ///
    /// * [`SynthesisError::AnomalySearchFailed`] if no consistent
    ///   anomaly set exists within the retry budget;
    /// * [`SynthesisError::VerificationFailed`] if an invariant check
    ///   fails on every attempt (indicates a generator bug).
    pub fn synthesize(config: &SynthesisConfig) -> Result<Self, SynthesisError> {
        const ATTEMPTS: u64 = 8;
        let _span = detdiv_obs::span!(
            "corpus_synthesize",
            training_len = config.training_len(),
            seed = config.seed(),
        );
        let mut last_err = SynthesisError::AnomalySearchFailed { attempts: 0 };
        for attempt in 0..ATTEMPTS {
            detdiv_obs::incr_counter("synth/attempts", 1);
            let seed = config
                .seed()
                .wrapping_add(attempt.wrapping_mul(0x9E37_79B9));
            let anomalies = {
                let _search = detdiv_obs::span!("search_anomaly_set");
                search_anomaly_set(config, seed)?
            };
            detdiv_obs::incr_counter("synth/anomalies_found", anomalies.len() as u64);
            let corpus = {
                let _assemble = detdiv_obs::span!("assemble");
                Self::assemble(config, anomalies, seed)
            };
            let verdict = {
                let _verify = detdiv_obs::span!("verify");
                verify_corpus(&corpus)
            };
            match verdict {
                Ok(()) => {
                    detdiv_obs::incr_counter("synth/corpora_built", 1);
                    detdiv_obs::incr_counter(
                        "synth/training_elements",
                        corpus.training.len() as u64,
                    );
                    detdiv_obs::debug!(
                        "corpus synthesized",
                        attempt = attempt,
                        training_elements = corpus.training.len(),
                        anomalies = corpus.anomalies.len(),
                    );
                    return Ok(corpus);
                }
                Err(e) => {
                    detdiv_obs::incr_counter("synth/verify_failures", 1);
                    detdiv_obs::warn!("corpus verification failed; retrying", attempt = attempt);
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    fn assemble(config: &SynthesisConfig, anomalies: Vec<Anomaly>, seed: u64) -> Self {
        let n = config.alphabet_size();
        let alphabet = Alphabet::new(n);
        let ctx_len = config.max_window() + n as usize + 2;

        // Plant blocks for every anomaly.
        let rounds = config.plant_repeats();
        let mut plant_round: Vec<Symbol> = Vec::new();
        for anomaly in &anomalies {
            plant_round.extend(plant_p1(anomaly, n, ctx_len));
            plant_round.extend(plant_p2(anomaly, n, ctx_len));
        }
        let plants_total = plant_round.len() * rounds;

        // Natural segments fill the remaining budget.
        let matrix = escape_matrix(alphabet, config.noise());
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1F1_C0DE);
        let natural_total = config.training_len().saturating_sub(plants_total);
        let chunk_len = (natural_total / (rounds + 1)).max(4 * n as usize);

        let mut training = Vec::with_capacity(config.training_len() + chunk_len);
        training.extend(natural_chunk(&matrix, chunk_len, &mut rng));
        for _ in 0..rounds {
            training.extend_from_slice(&plant_round);
            training.extend(natural_chunk(&matrix, chunk_len, &mut rng));
        }

        // Test streams: clean cycle background with one injected anomaly.
        let background = cycle_stream(n, config.background_len());
        let mut tests = BTreeMap::new();
        let mut anomaly_map = BTreeMap::new();
        for anomaly in anomalies {
            let p = injection_position(n, config.background_len());
            let mut stream = Vec::with_capacity(background.len() + anomaly.len());
            stream.extend_from_slice(&background[..p]);
            stream.extend_from_slice(anomaly.symbols());
            stream.extend_from_slice(&background[p..]);
            tests.insert(
                anomaly.len(),
                TestStream {
                    stream,
                    injection_position: p,
                },
            );
            anomaly_map.insert(anomaly.len(), anomaly);
        }

        Corpus {
            config: config.clone(),
            alphabet,
            training,
            anomalies: anomaly_map,
            tests,
        }
    }

    /// The configuration this corpus was synthesized from.
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// The alphabet of the corpus.
    pub fn alphabet(&self) -> Alphabet {
        self.alphabet
    }

    /// The training (normal) stream.
    pub fn training(&self) -> &[Symbol] {
        &self.training
    }

    /// The anomaly synthesized for `anomaly_size`, if in range.
    pub fn anomaly(&self, anomaly_size: usize) -> Option<&Anomaly> {
        self.anomalies.get(&anomaly_size)
    }

    /// All synthesized anomalies, ascending by size.
    pub fn anomalies(&self) -> impl Iterator<Item = &Anomaly> {
        self.anomalies.values()
    }

    /// The labelled case for one (anomaly size, detector window) cell.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::UnknownCase`] if either coordinate is
    /// outside the synthesized grid.
    pub fn case(
        &self,
        anomaly_size: usize,
        window: usize,
    ) -> Result<InjectedCase<'_>, SynthesisError> {
        if !self.tests.contains_key(&anomaly_size) || !self.config.windows().contains(&window) {
            return Err(SynthesisError::UnknownCase {
                anomaly_size,
                window,
            });
        }
        Ok(InjectedCase {
            corpus: self,
            anomaly_size,
            window,
        })
    }

    /// Iterates over every (anomaly size, detector window) case of the
    /// grid, anomaly-major.
    pub fn cases(&self) -> impl Iterator<Item = InjectedCase<'_>> + '_ {
        self.tests.keys().flat_map(move |&anomaly_size| {
            self.config.windows().map(move |window| InjectedCase {
                corpus: self,
                anomaly_size,
                window,
            })
        })
    }

    /// Re-runs the full invariant verification (DESIGN.md §2.2).
    ///
    /// [`Corpus::synthesize`] already verified the corpus; this is
    /// exposed for audits and tests.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::VerificationFailed`] naming the first
    /// violated invariant.
    pub fn verify(&self) -> Result<(), SynthesisError> {
        verify_corpus(self)
    }

    pub(crate) fn test_stream(&self, anomaly_size: usize) -> Option<&TestStream> {
        self.tests.get(&anomaly_size)
    }

    /// Reassembles a corpus from externally supplied parts (a persisted
    /// suite, see the `io` module), re-running the full invariant
    /// verification.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::VerificationFailed`] if the parts do
    /// not satisfy the corpus invariants — e.g. the training stream was
    /// tampered with, a test stream does not contain its declared
    /// anomaly, or an anomaly is no longer minimal-foreign.
    pub(crate) fn from_parts(
        config: SynthesisConfig,
        training: Vec<Symbol>,
        parts: Vec<(Anomaly, Vec<Symbol>, usize)>,
    ) -> Result<Self, SynthesisError> {
        let alphabet = Alphabet::new(config.alphabet_size());
        let mut anomalies = BTreeMap::new();
        let mut tests = BTreeMap::new();
        for (anomaly, stream, injection_position) in parts {
            // The stream must embed the declared anomaly at the declared
            // position.
            let size = anomaly.len();
            if injection_position + size > stream.len()
                || &stream[injection_position..injection_position + size] != anomaly.symbols()
            {
                return Err(SynthesisError::VerificationFailed {
                    check: format!(
                        "test stream for size {size} does not contain its anomaly at position {injection_position}"
                    ),
                });
            }
            anomalies.insert(size, anomaly);
            tests.insert(
                size,
                TestStream {
                    stream,
                    injection_position,
                },
            );
        }
        let corpus = Corpus {
            config,
            alphabet,
            training,
            anomalies,
            tests,
        };
        verify_corpus(&corpus)?;
        Ok(corpus)
    }

    /// Builds a *noisy* labelled case: the anomaly injected into a
    /// background generated from the same matrix as the training data —
    /// escapes and all — rather than into the clean cycle.
    ///
    /// Noisy backgrounds are the false-alarm workload of the paper's §7
    /// combination analysis: their rare (but known) sequences provoke
    /// alarms from probability-based detectors while remaining normal to
    /// Stide. The anomaly is injected at a clean-cycle stretch of the
    /// noisy stream so that boundary windows remain known sequences and
    /// the hit/false-alarm accounting stays unambiguous.
    ///
    /// # Errors
    ///
    /// * [`SynthesisError::UnknownCase`] if `anomaly_size` was not
    ///   synthesized;
    /// * [`SynthesisError::VerificationFailed`] if no clean stretch long
    ///   enough for injection exists in the generated background (raise
    ///   `len` or lower the noise).
    pub fn noisy_case(
        &self,
        anomaly_size: usize,
        len: usize,
        seed: u64,
    ) -> Result<NoisyCase<'_>, SynthesisError> {
        let anomaly = self
            .anomaly(anomaly_size)
            .ok_or(SynthesisError::UnknownCase {
                anomaly_size,
                window: self.config.min_window(),
            })?;
        let n = self.alphabet.size();
        let matrix = escape_matrix(self.alphabet, self.config.noise());
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0B5E_55ED);
        let background = matrix.generate(Symbol::new(0), len, &mut rng);

        // Find an injection point after the context symbol n-2 whose
        // surrounding `margin` elements are pure cycle.
        let margin = self.config.max_window() + anomaly_size + 1;
        let is_cycle_step = |i: usize| (background[i].id() + 1) % n == background[i + 1].id();
        let mut position = None;
        let mut candidates: Vec<usize> = (margin..len.saturating_sub(margin)).collect();
        // Prefer positions near the middle.
        candidates.sort_by_key(|&p| (p as isize - (len / 2) as isize).unsigned_abs());
        'outer: for p in candidates {
            if background[p - 1].id() != n - 2 {
                continue;
            }
            for i in (p - margin)..(p + margin - 1) {
                if !is_cycle_step(i) {
                    continue 'outer;
                }
            }
            position = Some(p);
            break;
        }
        let p = position.ok_or_else(|| SynthesisError::VerificationFailed {
            check: format!(
                "no clean injection stretch of margin {margin} in a noisy background of length {len}"
            ),
        })?;
        let mut stream = Vec::with_capacity(len + anomaly_size);
        stream.extend_from_slice(&background[..p]);
        stream.extend_from_slice(anomaly.symbols());
        stream.extend_from_slice(&background[p..]);
        Ok(NoisyCase {
            corpus: self,
            stream,
            injection_position: p,
            anomaly_size,
        })
    }
}

/// A labelled case whose background is noisy (generated from the
/// training matrix) rather than the clean cycle. See
/// [`Corpus::noisy_case`].
#[derive(Debug, Clone)]
pub struct NoisyCase<'a> {
    corpus: &'a Corpus,
    stream: Vec<Symbol>,
    injection_position: usize,
    anomaly_size: usize,
}

impl NoisyCase<'_> {
    /// The anomaly size AS of this case.
    pub fn anomaly_size(&self) -> usize {
        self.anomaly_size
    }
}

impl LabeledCase for NoisyCase<'_> {
    fn training(&self) -> &[Symbol] {
        &self.corpus.training
    }

    fn test_stream(&self) -> &[Symbol] {
        &self.stream
    }

    fn injection_position(&self) -> usize {
        self.injection_position
    }

    fn anomaly_len(&self) -> usize {
        self.anomaly_size
    }
}

/// One labelled (anomaly size, detector window) evaluation case,
/// borrowing its streams from the corpus.
#[derive(Debug, Clone, Copy)]
pub struct InjectedCase<'a> {
    corpus: &'a Corpus,
    anomaly_size: usize,
    window: usize,
}

impl<'a> InjectedCase<'a> {
    /// The anomaly size AS of this case.
    pub fn anomaly_size(&self) -> usize {
        self.anomaly_size
    }

    /// The detector window DW this case is evaluated at.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The injected anomaly.
    pub fn anomaly(&self) -> &'a Anomaly {
        self.corpus
            .anomaly(self.anomaly_size)
            .expect("case exists only for synthesized sizes")
    }

    /// The corpus this case belongs to.
    pub fn corpus(&self) -> &'a Corpus {
        self.corpus
    }
}

impl LabeledCase for InjectedCase<'_> {
    fn training(&self) -> &[Symbol] {
        &self.corpus.training
    }

    fn test_stream(&self) -> &[Symbol] {
        &self
            .corpus
            .tests
            .get(&self.anomaly_size)
            .expect("case exists only for synthesized sizes")
            .stream
    }

    fn injection_position(&self) -> usize {
        self.corpus
            .tests
            .get(&self.anomaly_size)
            .expect("case exists only for synthesized sizes")
            .injection_position
    }

    fn anomaly_len(&self) -> usize {
        self.anomaly_size
    }
}

/// The generation matrix: cycle successor with probability `1 − noise`,
/// escapes `+2` and `+3` with probability `noise / 2` each.
pub(crate) fn escape_matrix(alphabet: Alphabet, noise: f64) -> TransitionMatrix {
    let n = alphabet.len();
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|from| {
            let mut row = vec![0.0; n];
            row[(from + 1) % n] = 1.0 - noise;
            row[(from + 2) % n] = noise / 2.0;
            row[(from + 3) % n] += noise / 2.0;
            row
        })
        .collect();
    TransitionMatrix::from_rows(alphabet, &rows)
}

/// A pure cycle stream `0, 1, .., n−1, 0, ..` of length `len`.
pub(crate) fn cycle_stream(n: u32, len: usize) -> Vec<Symbol> {
    (0..len)
        .map(|i| Symbol::new((i % n as usize) as u32))
        .collect()
}

/// A cycle run starting at `start`, at least `min_len` long, ending at
/// the first occurrence of `end` thereafter.
fn cycle_run(n: u32, start: u32, end: u32, min_len: usize) -> Vec<Symbol> {
    let mut out = Vec::with_capacity(min_len + n as usize);
    let mut s = start;
    loop {
        out.push(Symbol::new(s));
        if out.len() >= min_len && s == end {
            return out;
        }
        s = (s + 1) % n;
    }
}

/// P1: the anomaly's proper prefix embedded in cycle context ending at
/// the injection symbol `n−2`, continued with the cycle from the
/// prefix's successor.
fn plant_p1(anomaly: &Anomaly, n: u32, ctx_len: usize) -> Vec<Symbol> {
    let mut block = cycle_run(n, 0, n - 2, ctx_len);
    block.extend_from_slice(anomaly.prefix());
    let last = anomaly.prefix().last().expect("prefix nonempty").id();
    block.extend(cycle_run(n, (last + 1) % n, n - 1, ctx_len));
    block
}

/// P2: the anomaly's proper suffix embedded in the same entry context,
/// continued with exactly the background the test stream resumes with
/// (`n−1, 0, 1, ..`).
fn plant_p2(anomaly: &Anomaly, n: u32, ctx_len: usize) -> Vec<Symbol> {
    let mut block = cycle_run(n, 0, n - 2, ctx_len);
    block.extend_from_slice(anomaly.suffix());
    block.extend(cycle_run(n, n - 1, n - 1, ctx_len));
    block
}

/// A natural segment from the generation matrix, trimmed to end at
/// `n−1` so the next block's leading 0 continues the cycle.
fn natural_chunk(matrix: &TransitionMatrix, len: usize, rng: &mut SmallRng) -> Vec<Symbol> {
    let n = matrix.alphabet().size();
    let mut chunk = matrix.generate(Symbol::new(0), len.max(2 * n as usize), rng);
    match chunk.iter().rposition(|s| s.id() == n - 1) {
        Some(i) => chunk.truncate(i + 1),
        None => {
            // Astronomically unlikely; complete the cycle by hand.
            let last = chunk.last().expect("chunk nonempty").id();
            chunk.extend(cycle_run(n, (last + 1) % n, n - 1, 1));
        }
    }
    chunk
}

/// The injection position: the first index at or beyond the middle of
/// the background whose predecessor is the symbol `n−2`.
fn injection_position(n: u32, background_len: usize) -> usize {
    let half = background_len / 2;
    let n = n as usize;
    // Positions p with background[p-1] = n-2 satisfy p ≡ n-1 (mod n).
    let mut p = half - (half % n) + (n - 1);
    if p < half {
        p += n;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SynthesisConfig {
        SynthesisConfig::builder()
            .training_len(30_000)
            .anomaly_sizes(2..=4)
            .windows(2..=6)
            .background_len(512)
            .plant_repeats(4)
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn cycle_run_boundaries() {
        let run = cycle_run(8, 0, 6, 10);
        assert_eq!(run[0], Symbol::new(0));
        assert_eq!(*run.last().unwrap(), Symbol::new(6));
        assert!(run.len() >= 10);
        // Consecutive elements follow the cycle.
        for w in run.windows(2) {
            assert_eq!((w[0].id() + 1) % 8, w[1].id());
        }
        // Degenerate: already at end with min_len 1.
        assert_eq!(cycle_run(8, 3, 3, 1), vec![Symbol::new(3)]);
    }

    #[test]
    fn escape_matrix_is_stochastic_and_restricted() {
        let m = escape_matrix(Alphabet::new(8), 0.02);
        for from in 0..8u32 {
            let row = m.row(Symbol::new(from));
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            // Reserved steps +4..+7 are unreachable.
            for delta in 4..8u32 {
                assert_eq!(row[((from + delta) % 8) as usize], 0.0);
            }
        }
    }

    #[test]
    fn injection_position_follows_the_context_symbol() {
        for len in [512usize, 1000, 4096] {
            let p = injection_position(8, len);
            assert!(p >= len / 2);
            assert_eq!((p - 1) % 8, 6); // predecessor is symbol 6
            assert!(p < len);
        }
    }

    #[test]
    fn synthesized_corpus_passes_verification() {
        let corpus = Corpus::synthesize(&small_config()).unwrap();
        corpus.verify().unwrap();
    }

    #[test]
    fn corpus_shape_matches_config() {
        let config = small_config();
        let corpus = Corpus::synthesize(&config).unwrap();
        assert!(corpus.training().len() >= config.training_len() * 9 / 10);
        assert_eq!(corpus.anomalies().count(), 3);
        for anomaly_size in 2..=4usize {
            let case = corpus.case(anomaly_size, 2).unwrap();
            assert_eq!(case.anomaly_len(), anomaly_size);
            assert_eq!(
                case.test_stream().len(),
                config.background_len() + anomaly_size
            );
            let p = case.injection_position();
            assert_eq!(
                &case.test_stream()[p..p + anomaly_size],
                corpus.anomaly(anomaly_size).unwrap().symbols()
            );
        }
    }

    #[test]
    fn cases_iterates_full_grid() {
        let corpus = Corpus::synthesize(&small_config()).unwrap();
        let cases: Vec<(usize, usize)> = corpus
            .cases()
            .map(|c| (c.anomaly_size(), c.window()))
            .collect();
        assert_eq!(cases.len(), 3 * 5);
        assert!(cases.contains(&(2, 2)));
        assert!(cases.contains(&(4, 6)));
    }

    #[test]
    fn unknown_cases_are_rejected() {
        let corpus = Corpus::synthesize(&small_config()).unwrap();
        assert!(matches!(
            corpus.case(9, 2),
            Err(SynthesisError::UnknownCase { .. })
        ));
        assert!(matches!(
            corpus.case(2, 99),
            Err(SynthesisError::UnknownCase { .. })
        ));
    }

    #[test]
    fn synthesis_is_deterministic() {
        let config = small_config();
        let a = Corpus::synthesize(&config).unwrap();
        let b = Corpus::synthesize(&config).unwrap();
        assert_eq!(a.training(), b.training());
        assert_eq!(
            a.anomaly(3).unwrap().symbols(),
            b.anomaly(3).unwrap().symbols()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mut builder_a = small_config();
        let b_config = SynthesisConfig::builder()
            .training_len(30_000)
            .anomaly_sizes(2..=4)
            .windows(2..=6)
            .background_len(512)
            .plant_repeats(4)
            .seed(12)
            .build()
            .unwrap();
        let a = Corpus::synthesize(&builder_a).unwrap();
        let b = Corpus::synthesize(&b_config).unwrap();
        builder_a = a.config().clone();
        assert_ne!(builder_a.seed(), b_config.seed());
        assert_ne!(a.training(), b.training());
    }
}

#[cfg(test)]
mod noisy_tests {
    use super::*;
    use crate::config::SynthesisConfig;
    use detdiv_core::LabeledCase;

    #[test]
    fn noisy_case_injects_at_clean_stretch() {
        let config = SynthesisConfig::builder()
            .training_len(30_000)
            .anomaly_sizes(2..=4)
            .windows(2..=6)
            .background_len(512)
            .plant_repeats(4)
            .seed(21)
            .build()
            .unwrap();
        let corpus = Corpus::synthesize(&config).unwrap();
        let case = corpus.noisy_case(3, 4096, 9).unwrap();
        let p = case.injection_position();
        let stream = case.test_stream();
        assert_eq!(&stream[p..p + 3], corpus.anomaly(3).unwrap().symbols());
        assert_eq!(stream[p - 1].id(), 6);
        // The surrounding margin is pure cycle.
        let margin = config.max_window() + 3 + 1;
        for i in (p - margin)..(p - 1) {
            assert_eq!(
                (stream[i].id() + 1) % 8,
                stream[i + 1].id(),
                "pre-margin at {i}"
            );
        }
        for i in (p + 3)..(p + 3 + margin - 2) {
            assert_eq!(
                (stream[i].id() + 1) % 8,
                stream[i + 1].id(),
                "post-margin at {i}"
            );
        }
        // The noisy background genuinely contains escapes somewhere.
        let escapes = stream
            .windows(2)
            .filter(|w| (w[0].id() + 1) % 8 != w[1].id())
            .count();
        assert!(
            escapes > 10,
            "expected noisy background, found {escapes} non-cycle steps"
        );
    }

    #[test]
    fn noisy_case_unknown_size_rejected() {
        let config = SynthesisConfig::builder()
            .training_len(30_000)
            .anomaly_sizes(2..=3)
            .windows(2..=4)
            .background_len(512)
            .plant_repeats(4)
            .build()
            .unwrap();
        let corpus = Corpus::synthesize(&config).unwrap();
        assert!(matches!(
            corpus.noisy_case(9, 2048, 1),
            Err(SynthesisError::UnknownCase { .. })
        ));
    }
}
