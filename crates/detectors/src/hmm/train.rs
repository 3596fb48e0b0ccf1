//! Baum–Welch estimation (scaled forward–backward EM).
//!
//! Warrender et al. trained their system-call HMMs with "roughly the
//! same number of states as there are unique system calls"; the trainer
//! here takes the state count as a parameter and defaults the detector
//! layer to that heuristic.

use detdiv_sequence::Symbol;

use super::model::Hmm;

/// How the initial model handed to EM is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InitStrategy {
    /// A jittered-uniform random model (the textbook default). EM from
    /// a random start can settle in poor local optima on
    /// near-deterministic data.
    Random,
    /// Moment-matching initialisation: one state per symbol, emissions
    /// near-identity, transitions from the empirical first-order
    /// (bigram) estimate. Requires `states >= symbols`; converges in a
    /// handful of iterations on cyclic data.
    FirstOrder,
}

/// Training configuration for [`baum_welch`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct TrainConfig {
    /// Number of hidden states.
    pub(crate) states: usize,
    /// Maximum EM iterations.
    pub(crate) max_iters: usize,
    /// Stop when the total log-likelihood improves by less than this.
    pub(crate) tol: f64,
    /// Seed for the random initial model.
    pub(crate) seed: u64,
    /// Initial-model strategy.
    pub(crate) init: InitStrategy,
}

/// Builds the moment-matching initial model for [`InitStrategy::FirstOrder`].
fn first_order_init(sequences: &[&[Symbol]], states: usize, symbols: usize) -> Hmm {
    let n = states;
    // Empirical bigram and unigram counts with light smoothing.
    let smooth = 1e-3;
    let mut uni = vec![smooth; symbols];
    let mut bi = vec![smooth; symbols * symbols];
    for seq in sequences {
        for &s in seq.iter() {
            uni[s.index()] += 1.0;
        }
        for w in seq.windows(2) {
            bi[w[0].index() * symbols + w[1].index()] += 1.0;
        }
    }
    let uni_total: f64 = uni.iter().sum();

    // One state per symbol; surplus states start uniform.
    let mut pi = vec![0.0; n];
    let mut a = vec![0.0; n * n];
    let mut b = vec![0.0; n * symbols];
    for i in 0..n {
        if i < symbols {
            pi[i] = uni[i] / uni_total;
            // Emissions near-identity.
            let off = 0.02 / (symbols.max(2) - 1) as f64;
            for x in 0..symbols {
                b[i * symbols + x] = if x == i { 0.98 } else { off };
            }
            // Transitions from the bigram estimate over the symbol
            // states; surplus states get a small floor.
            let row_total: f64 = (0..symbols).map(|x| bi[i * symbols + x]).sum();
            let surplus = n - symbols;
            let floor = if surplus > 0 {
                0.01 / surplus as f64
            } else {
                0.0
            };
            let scale = if surplus > 0 { 0.99 } else { 1.0 };
            for j in 0..n {
                a[i * n + j] = if j < symbols {
                    scale * bi[i * symbols + j] / row_total
                } else {
                    floor
                };
            }
        } else {
            pi[i] = 0.0;
            for x in 0..symbols {
                b[i * symbols + x] = 1.0 / symbols as f64;
            }
            for j in 0..n {
                a[i * n + j] = 1.0 / n as f64;
            }
        }
    }
    // Renormalise pi in case of smoothing drift.
    let pi_total: f64 = pi.iter().sum();
    for p in pi.iter_mut() {
        *p /= pi_total;
    }
    let mut hmm = Hmm::random(n, symbols, 0);
    hmm.set_params(pi, a, b);
    hmm
}

/// Scaled forward pass over one sequence; returns per-step scaled alphas
/// and scale factors.
fn forward(hmm: &Hmm, obs: &[Symbol]) -> (Vec<Vec<f64>>, Vec<f64>) {
    let n = hmm.states();
    let t_len = obs.len();
    let mut alphas = Vec::with_capacity(t_len);
    let mut scales = Vec::with_capacity(t_len);
    let mut prev = vec![0.0; n];
    for (t, &o) in obs.iter().enumerate() {
        let sym = o.index();
        let mut alpha = vec![0.0; n];
        if t == 0 {
            for (i, a) in alpha.iter_mut().enumerate() {
                *a = hmm.pi(i) * hmm.b(i, sym);
            }
        } else {
            for (j, a) in alpha.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (i, &p) in prev.iter().enumerate() {
                    acc += p * hmm.a(i, j);
                }
                *a = acc * hmm.b(j, sym);
            }
        }
        let mut scale: f64 = alpha.iter().sum();
        if scale <= 0.0 {
            // Degenerate: renormalise to uniform to keep EM moving.
            for a in alpha.iter_mut() {
                *a = 1.0 / n as f64;
            }
            scale = f64::MIN_POSITIVE;
        } else {
            for a in alpha.iter_mut() {
                *a /= scale;
            }
        }
        prev.clone_from(&alpha);
        alphas.push(alpha);
        scales.push(scale);
    }
    (alphas, scales)
}

/// Scaled backward pass matching [`forward`]'s scale factors.
fn backward(hmm: &Hmm, obs: &[Symbol], scales: &[f64]) -> Vec<Vec<f64>> {
    let n = hmm.states();
    let t_len = obs.len();
    let mut betas = vec![vec![0.0; n]; t_len];
    for b in betas[t_len - 1].iter_mut() {
        *b = 1.0 / scales[t_len - 1];
    }
    for t in (0..t_len - 1).rev() {
        let sym_next = obs[t + 1].index();
        for i in 0..n {
            let mut acc = 0.0;
            for (j, &beta_next) in betas[t + 1].iter().enumerate() {
                acc += hmm.a(i, j) * hmm.b(j, sym_next) * beta_next;
            }
            betas[t][i] = acc / scales[t];
        }
    }
    betas
}

/// Fits an HMM to `sequences` by Baum–Welch, starting from a random
/// model.
///
/// Returns the fitted model and its final total log-likelihood, or
/// `None` if there is no non-empty sequence, `config.states` is zero, or
/// [`InitStrategy::FirstOrder`] is asked for with fewer states than
/// symbols. The symbol range is inferred from the data.
pub(crate) fn baum_welch(sequences: &[&[Symbol]], config: &TrainConfig) -> Option<(Hmm, f64)> {
    let sequences: Vec<&[Symbol]> = sequences
        .iter()
        .copied()
        .filter(|s| !s.is_empty())
        .collect();
    if sequences.is_empty() || config.states == 0 {
        return None;
    }
    let symbols = sequences
        .iter()
        .flat_map(|s| s.iter())
        .map(|s| s.index() + 1)
        .max()
        .expect("nonempty sequences");

    let n = config.states;
    if config.init == InitStrategy::FirstOrder && n < symbols {
        return None;
    }
    let mut hmm = match config.init {
        InitStrategy::Random => Hmm::random(n, symbols, config.seed),
        InitStrategy::FirstOrder => first_order_init(&sequences, n, symbols),
    };
    let mut last_ll = f64::NEG_INFINITY;

    for _ in 0..config.max_iters {
        // Accumulators.
        let mut pi_acc = vec![0.0; n];
        let mut a_num = vec![0.0; n * n];
        let mut a_den = vec![0.0; n];
        let mut b_num = vec![0.0; n * symbols];
        let mut b_den = vec![0.0; n];
        let mut total_ll = 0.0;

        for obs in &sequences {
            let (alphas, scales) = forward(&hmm, obs);
            let betas = backward(&hmm, obs, &scales);
            total_ll += scales.iter().map(|s| s.ln()).sum::<f64>();

            let t_len = obs.len();
            // Gammas.
            for t in 0..t_len {
                let sym = obs[t].index();
                let mut norm = 0.0;
                for i in 0..n {
                    norm += alphas[t][i] * betas[t][i];
                }
                if norm <= 0.0 {
                    continue;
                }
                for i in 0..n {
                    let gamma = alphas[t][i] * betas[t][i] / norm;
                    if t == 0 {
                        pi_acc[i] += gamma;
                    }
                    b_num[i * symbols + sym] += gamma;
                    b_den[i] += gamma;
                    if t + 1 < t_len {
                        a_den[i] += gamma;
                    }
                }
            }
            // Xis.
            for t in 0..t_len.saturating_sub(1) {
                let sym_next = obs[t + 1].index();
                let mut norm = 0.0;
                let mut xis = vec![0.0; n * n];
                for i in 0..n {
                    for j in 0..n {
                        let xi = alphas[t][i]
                            * hmm.a(i, j)
                            * hmm.b(j, sym_next)
                            * betas[t + 1][j]
                            * scales[t + 1];
                        xis[i * n + j] = xi;
                        norm += xi;
                    }
                }
                if norm <= 0.0 {
                    continue;
                }
                for (k, xi) in xis.iter().enumerate() {
                    a_num[k] += xi / norm;
                }
            }
        }

        // M-step with small-floor smoothing to keep rows stochastic.
        let smooth = 1e-12;
        let pi_sum: f64 = pi_acc.iter().sum::<f64>() + smooth * n as f64;
        let pi: Vec<f64> = pi_acc.iter().map(|&x| (x + smooth) / pi_sum).collect();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            let den = a_den[i] + smooth * n as f64;
            for j in 0..n {
                a[i * n + j] = (a_num[i * n + j] + smooth) / den;
            }
        }
        let mut b = vec![0.0; n * symbols];
        for i in 0..n {
            let den = b_den[i] + smooth * symbols as f64;
            for x in 0..symbols {
                b[i * symbols + x] = (b_num[i * symbols + x] + smooth) / den;
            }
        }
        hmm.set_params(pi, a, b);

        if (total_ll - last_ll).abs() < config.tol {
            last_ll = total_ll;
            break;
        }
        last_ll = total_ll;
    }
    Some((hmm, last_ll))
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::symbols;
    use proptest::prelude::*;

    fn cycle_data(reps: usize) -> Vec<Symbol> {
        let mut v = Vec::new();
        for _ in 0..reps {
            v.extend(symbols(&[0, 1, 2, 3]));
        }
        v
    }

    fn config(states: usize, max_iters: usize, tol: f64, seed: u64) -> TrainConfig {
        TrainConfig {
            states,
            max_iters,
            tol,
            seed,
            init: InitStrategy::Random,
        }
    }

    fn first_order(states: usize, max_iters: usize, tol: f64) -> TrainConfig {
        TrainConfig {
            init: InitStrategy::FirstOrder,
            ..config(states, max_iters, tol, 0)
        }
    }

    #[test]
    fn learns_a_deterministic_cycle() {
        let data = cycle_data(100);
        let (hmm, ll) = baum_welch(&[&data], &config(4, 60, 1e-6, 7)).unwrap();
        assert!(ll.is_finite());
        // Prediction of the learnt model: after (0,1,2) comes 3 with
        // high probability, and 1 with low probability.
        let p_next = hmm.predict_next(&symbols(&[0, 1, 2]), Symbol::new(3));
        let p_wrong = hmm.predict_next(&symbols(&[0, 1, 2]), Symbol::new(1));
        assert!(p_next > 0.9, "p(3 | 0,1,2) = {p_next}");
        assert!(p_wrong < 0.1, "p(1 | 0,1,2) = {p_wrong}");
    }

    #[test]
    fn likelihood_increases_with_training() {
        let data = cycle_data(50);
        let short = baum_welch(&[&data], &config(4, 1, 0.0, 3)).unwrap();
        let long = baum_welch(&[&data], &config(4, 30, 0.0, 3)).unwrap();
        assert!(
            long.1 >= short.1,
            "EM must not decrease likelihood: {} -> {}",
            short.1,
            long.1
        );
    }

    #[test]
    fn multiple_sequences_are_pooled() {
        let a = cycle_data(20);
        let b = cycle_data(30);
        let (hmm, _) = baum_welch(&[&a, &b], &config(8, 40, 1e-4, 1999)).unwrap();
        let p = hmm.predict_next(&symbols(&[0, 1]), Symbol::new(2));
        assert!(p > 0.5, "p(2 | 0,1) = {p}");
    }

    #[test]
    fn rejects_empty_training() {
        assert!(baum_welch(&[], &config(8, 40, 1e-4, 1999)).is_none());
        let empty: &[Symbol] = &[];
        assert!(baum_welch(&[empty], &config(8, 40, 1e-4, 1999)).is_none());
    }

    #[test]
    fn rejects_zero_states() {
        let data = cycle_data(5);
        assert!(baum_welch(&[&data], &config(0, 40, 1e-4, 1999)).is_none());
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let data = cycle_data(25);
        let cfg = config(3, 10, 0.0, 42);
        let (a, la) = baum_welch(&[&data], &cfg).unwrap();
        let (b, lb) = baum_welch(&[&data], &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(la, lb);
    }

    #[test]
    fn first_order_init_learns_the_cycle() {
        let mut data = Vec::new();
        for _ in 0..60 {
            data.extend(symbols(&[0, 1, 2]));
        }
        let (hmm, _) = baum_welch(&[&data], &first_order(3, 50, 1e-6)).unwrap();
        assert!(hmm.predict_next(&symbols(&[0, 1]), Symbol::new(2)) > 0.9);
    }

    #[test]
    fn first_order_init_learns_short_contexts() {
        let data = cycle_data(150);
        let (hmm, _) = baum_welch(&[&data], &first_order(4, 20, 1e-6)).unwrap();
        // Even a single-element context pins the state precisely.
        let p = hmm.predict_next(&symbols(&[0]), Symbol::new(1));
        assert!(p > 0.9, "p(1 | 0) = {p}");
        let q = hmm.predict_next(&symbols(&[0]), Symbol::new(3));
        assert!(q < 0.1, "p(3 | 0) = {q}");
    }

    #[test]
    fn first_order_init_requires_enough_states() {
        let data = cycle_data(10);
        assert!(baum_welch(&[&data], &first_order(2, 5, 0.0)).is_none());
    }

    #[test]
    fn surplus_states_are_tolerated() {
        let data = cycle_data(60);
        // 2 surplus states over the 4 symbols.
        let (hmm, ll) = baum_welch(&[&data], &first_order(6, 15, 1e-6)).unwrap();
        assert!(ll.is_finite());
        let p = hmm.predict_next(&symbols(&[1]), Symbol::new(2));
        assert!(p > 0.8, "p(2 | 1) = {p}");
    }

    fn stream(max_sym: u32, min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<Symbol>> {
        prop::collection::vec((0..max_sym).prop_map(Symbol::new), min_len..=max_len)
    }

    proptest! {
        /// Baum–Welch never decreases the training log-likelihood
        /// (monotonicity of EM), regardless of data or seed.
        #[test]
        fn em_is_monotone(seed in 0u64..100, obs in stream(3, 10, 80)) {
            let short = baum_welch(&[&obs], &config(3, 2, 0.0, seed)).unwrap();
            let long = baum_welch(&[&obs], &config(3, 12, 0.0, seed)).unwrap();
            prop_assert!(long.1 >= short.1 - 1e-9, "{} -> {}", short.1, long.1);
        }

        /// A trained model assigns higher likelihood to its training data
        /// than a random model does.
        #[test]
        fn training_helps(seed in 0u64..100) {
            let mut obs = Vec::new();
            for _ in 0..40 {
                obs.extend([0u32, 1, 2].map(Symbol::new));
            }
            let random = Hmm::random(3, 3, seed);
            let cfg = TrainConfig { seed, ..first_order(3, 25, 1e-9) };
            let (trained, _) = baum_welch(&[&obs], &cfg).unwrap();
            let lr = random.filter(&obs).log_likelihood;
            let lt = trained.filter(&obs).log_likelihood;
            prop_assert!(lt > lr, "trained {lt} vs random {lr}");
        }
    }
}
