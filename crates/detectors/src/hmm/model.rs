//! Discrete-observation hidden Markov models.
//!
//! Warrender, Forrest & Pearlmutter (1999) — the paper's reference [20]
//! and the source of both Stide and the rare-sequence definition — also
//! evaluated a hidden Markov model as a fourth "data model" for
//! system-call streams. This module provides that model: a discrete
//! HMM with the scaled forward algorithm for filtering/likelihood and
//! (in [`super::train`]) Baum–Welch estimation.

use detdiv_sequence::Symbol;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A discrete hidden Markov model with `n` hidden states and `m`
/// observation symbols.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Hmm {
    states: usize,
    symbols: usize,
    /// Initial state distribution, length `states`.
    pi: Vec<f64>,
    /// Transition matrix, row-major `states x states`.
    a: Vec<f64>,
    /// Emission matrix, row-major `states x symbols`.
    b: Vec<f64>,
}

/// The result of filtering a prefix: the scaled forward state
/// distribution and the accumulated log-likelihood.
#[derive(Debug, Clone)]
pub(crate) struct Filtered {
    /// `P(state | observations so far)`, length `states`; sums to 1
    /// unless the prefix was impossible.
    pub(crate) state_dist: Vec<f64>,
    /// Log-likelihood of the prefix (`-inf` if impossible).
    pub(crate) log_likelihood: f64,
}

impl Hmm {
    /// A randomly initialised model (rows drawn from a jittered uniform,
    /// then normalised) — the standard Baum–Welch starting point.
    ///
    /// # Panics
    ///
    /// Panics if `states` or `symbols` is zero.
    pub(crate) fn random(states: usize, symbols: usize, seed: u64) -> Self {
        assert!(states > 0 && symbols > 0, "dimensions must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut draw_row = |len: usize| -> Vec<f64> {
            let raw: Vec<f64> = (0..len).map(|_| 1.0 + rng.gen::<f64>() * 0.5).collect();
            let sum: f64 = raw.iter().sum();
            raw.into_iter().map(|x| x / sum).collect()
        };
        let pi = draw_row(states);
        let mut a = Vec::with_capacity(states * states);
        for _ in 0..states {
            a.extend(draw_row(states));
        }
        let mut b = Vec::with_capacity(states * symbols);
        for _ in 0..states {
            b.extend(draw_row(symbols));
        }
        Hmm {
            states,
            symbols,
            pi,
            a,
            b,
        }
    }

    /// Number of hidden states.
    #[inline]
    pub(crate) const fn states(&self) -> usize {
        self.states
    }

    /// Number of observation symbols.
    #[inline]
    pub(crate) const fn symbols(&self) -> usize {
        self.symbols
    }

    #[inline]
    pub(crate) fn a(&self, from: usize, to: usize) -> f64 {
        self.a[from * self.states + to]
    }

    #[inline]
    pub(crate) fn b(&self, state: usize, symbol: usize) -> f64 {
        self.b[state * self.symbols + symbol]
    }

    #[inline]
    pub(crate) fn pi(&self, state: usize) -> f64 {
        self.pi[state]
    }

    pub(crate) fn set_params(&mut self, pi: Vec<f64>, a: Vec<f64>, b: Vec<f64>) {
        self.pi = pi;
        self.a = a;
        self.b = b;
    }

    /// Filters an observation prefix: scaled forward recursion.
    ///
    /// Returns the posterior state distribution after consuming `obs`
    /// and the accumulated log-likelihood. An empty prefix yields the
    /// initial distribution with log-likelihood 0. An impossible prefix
    /// yields a uniform state distribution with `-inf` likelihood.
    ///
    /// # Panics
    ///
    /// Panics if any observation is outside the model's symbol range.
    pub(crate) fn filter(&self, obs: &[Symbol]) -> Filtered {
        assert!(
            obs.iter().all(|s| s.index() < self.symbols),
            "observation outside the model's symbol range"
        );
        let n = self.states;
        let mut dist = self.pi.clone();
        let mut log_likelihood = 0.0f64;
        let mut next = vec![0.0; n];
        for (t, &o) in obs.iter().enumerate() {
            let sym = o.index();
            if t == 0 {
                for (i, x) in next.iter_mut().enumerate() {
                    *x = dist[i] * self.b(i, sym);
                }
            } else {
                for (j, x) in next.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for (i, &d) in dist.iter().enumerate() {
                        acc += d * self.a(i, j);
                    }
                    *x = acc * self.b(j, sym);
                }
            }
            let scale: f64 = next.iter().sum();
            if scale <= 0.0 {
                return Filtered {
                    state_dist: vec![1.0 / n as f64; n],
                    log_likelihood: f64::NEG_INFINITY,
                };
            }
            for x in next.iter_mut() {
                *x /= scale;
            }
            log_likelihood += scale.ln();
            std::mem::swap(&mut dist, &mut next);
        }
        Filtered {
            state_dist: dist,
            log_likelihood,
        }
    }

    /// The one-step predictive distribution over the next symbol, given
    /// a filtered state distribution.
    ///
    /// `P(x | dist) = Σ_j (Σ_i dist_i A_ij) B_j(x)`; with an empty
    /// history pass the initial distribution and `fresh = true` to skip
    /// the transition step, matching [`Hmm::filter`]'s timing.
    pub(crate) fn predictive(&self, state_dist: &[f64], fresh: bool) -> Vec<f64> {
        let n = self.states;
        debug_assert_eq!(state_dist.len(), n);
        let mut after: Vec<f64> = if fresh {
            state_dist.to_vec()
        } else {
            let mut after = vec![0.0; n];
            for (j, x) in after.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (i, &d) in state_dist.iter().enumerate() {
                    acc += d * self.a(i, j);
                }
                *x = acc;
            }
            after
        };
        // Normalise defensively (filter output sums to 1 already).
        let total: f64 = after.iter().sum();
        if total > 0.0 {
            for x in after.iter_mut() {
                *x /= total;
            }
        }
        let mut out = vec![0.0; self.symbols];
        for (x, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, &aj) in after.iter().enumerate() {
                acc += aj * self.b(j, x);
            }
            *o = acc;
        }
        out
    }

    /// Predictive probability of `next` after consuming `context`.
    ///
    /// # Panics
    ///
    /// Panics if any symbol is outside the model's range.
    pub(crate) fn predict_next(&self, context: &[Symbol], next: Symbol) -> f64 {
        assert!(
            next.index() < self.symbols,
            "next symbol outside the model's symbol range"
        );
        let filtered = self.filter(context);
        if filtered.log_likelihood == f64::NEG_INFINITY {
            // Impossible context: any continuation is maximally
            // surprising.
            return 0.0;
        }
        let predictive = self.predictive(&filtered.state_dist, context.is_empty());
        predictive[next.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::symbols;
    use proptest::prelude::*;

    fn cycle_hmm() -> Hmm {
        // 3 states in a deterministic cycle, each emitting its index.
        #[rustfmt::skip]
        let identity_shift = vec![
            0.0, 1.0, 0.0,
            0.0, 0.0, 1.0,
            1.0, 0.0, 0.0,
        ];
        #[rustfmt::skip]
        let identity = vec![
            1.0, 0.0, 0.0,
            0.0, 1.0, 0.0,
            0.0, 0.0, 1.0,
        ];
        Hmm {
            states: 3,
            symbols: 3,
            pi: vec![1.0, 0.0, 0.0],
            a: identity_shift,
            b: identity,
        }
    }

    #[test]
    fn deterministic_cycle_likelihoods() {
        let hmm = cycle_hmm();
        assert!(hmm.filter(&symbols(&[0, 1, 2, 0, 1])).log_likelihood.abs() < 1e-9);
        assert_eq!(
            hmm.filter(&symbols(&[0, 2])).log_likelihood,
            f64::NEG_INFINITY
        );
        assert_eq!(hmm.filter(&symbols(&[1])).log_likelihood, f64::NEG_INFINITY);
    }

    #[test]
    fn filter_tracks_state() {
        let hmm = cycle_hmm();
        let f = hmm.filter(&symbols(&[0, 1]));
        assert!((f.state_dist[1] - 1.0).abs() < 1e-12);
        // Empty prefix: the initial distribution.
        let f0 = hmm.filter(&[]);
        assert_eq!(f0.state_dist, vec![1.0, 0.0, 0.0]);
        assert_eq!(f0.log_likelihood, 0.0);
    }

    #[test]
    fn predictive_follows_dynamics() {
        let hmm = cycle_hmm();
        // After observing (0, 1), the next symbol is certainly 2.
        assert!((hmm.predict_next(&symbols(&[0, 1]), Symbol::new(2)) - 1.0).abs() < 1e-12);
        assert_eq!(hmm.predict_next(&symbols(&[0, 1]), Symbol::new(0)), 0.0);
        // With no history, the first symbol is certainly 0.
        assert!((hmm.predict_next(&[], Symbol::new(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn impossible_context_predicts_zero() {
        let hmm = cycle_hmm();
        assert_eq!(hmm.predict_next(&symbols(&[0, 0]), Symbol::new(1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "observation outside the model's symbol range")]
    fn out_of_range_observations_rejected() {
        let _ = cycle_hmm().filter(&symbols(&[0, 9]));
    }

    #[test]
    #[should_panic(expected = "next symbol outside the model's symbol range")]
    fn out_of_range_next_symbol_rejected() {
        let _ = cycle_hmm().predict_next(&symbols(&[0]), Symbol::new(9));
    }

    #[test]
    fn random_model_rows_are_stochastic() {
        let hmm = Hmm::random(4, 6, 11);
        let pi_sum: f64 = (0..4).map(|i| hmm.pi(i)).sum();
        assert!((pi_sum - 1.0).abs() < 1e-9);
        for i in 0..4 {
            let a_sum: f64 = (0..4).map(|j| hmm.a(i, j)).sum();
            let b_sum: f64 = (0..6).map(|x| hmm.b(i, x)).sum();
            assert!((a_sum - 1.0).abs() < 1e-9);
            assert!((b_sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        assert_eq!(Hmm::random(3, 3, 5), Hmm::random(3, 3, 5));
        assert_ne!(Hmm::random(3, 3, 5), Hmm::random(3, 3, 6));
    }

    #[test]
    fn predictive_distribution_normalises() {
        let hmm = Hmm::random(4, 5, 3);
        let f = hmm.filter(&symbols(&[0, 1, 2]));
        let p = hmm.predictive(&f.state_dist, false);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    fn stream(max_sym: u32, min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<Symbol>> {
        prop::collection::vec((0..max_sym).prop_map(Symbol::new), min_len..=max_len)
    }

    proptest! {
        /// Random models are valid: filtering any in-range sequence yields a
        /// state distribution summing to 1 and a finite log-likelihood.
        #[test]
        fn filtering_random_models(
            states in 1usize..6,
            seed in 0u64..1000,
            obs in stream(4, 1, 60),
        ) {
            let hmm = Hmm::random(states, 4, seed);
            let f = hmm.filter(&obs);
            let sum: f64 = f.state_dist.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(f.log_likelihood.is_finite());
            prop_assert!(f.log_likelihood <= 0.0);
        }

        /// The predictive distribution sums to one for any filtered state.
        #[test]
        fn predictive_normalises(seed in 0u64..1000, obs in stream(5, 0, 40)) {
            let hmm = Hmm::random(3, 5, seed);
            let f = hmm.filter(&obs);
            let p = hmm.predictive(&f.state_dist, obs.is_empty());
            let sum: f64 = p.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            // predict_next agrees with the predictive vector.
            for next in 0..5u32 {
                let q = hmm.predict_next(&obs, Symbol::new(next));
                prop_assert!((q - p[next as usize]).abs() < 1e-9);
            }
        }

        /// Chain rule: the sequence log-likelihood decomposes into the sum
        /// of log predictive probabilities.
        #[test]
        fn likelihood_decomposes_into_predictions(seed in 0u64..500, obs in stream(3, 1, 25)) {
            let hmm = Hmm::random(3, 3, seed);
            let ll = hmm.filter(&obs).log_likelihood;
            let mut acc = 0.0;
            for t in 0..obs.len() {
                acc += hmm.predict_next(&obs[..t], obs[t]).ln();
            }
            prop_assert!((ll - acc).abs() < 1e-6, "{ll} vs {acc}");
        }
    }
}
