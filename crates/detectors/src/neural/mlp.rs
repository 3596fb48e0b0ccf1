//! A multilayer feed-forward network trained by backpropagation.
//!
//! This is the substrate for the paper's neural-network-based detector
//! (Debar et al. 1992): a classic MLP with sigmoid hidden units, a
//! softmax output layer over the alphabet, cross-entropy loss, and
//! stochastic gradient descent with momentum — the parameterisation
//! (learning constant, number of hidden nodes, momentum constant) whose
//! balance the paper singles out as the detector's operational caveat
//! (§7, citing Zurada).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::activation::{sigmoid, sigmoid_prime_from_output, softmax_in_place};

/// Hyperparameters of an [`Mlp`].
#[derive(Debug, Clone)]
pub(crate) struct MlpConfig {
    layers: Vec<usize>,
    learning_rate: f64,
    momentum: f64,
    seed: u64,
}

impl MlpConfig {
    /// Creates a configuration with the given layer widths (input first,
    /// output last), learning rate 0.5, momentum 0.5 and seed 0.
    pub(crate) fn new(layers: Vec<usize>) -> Self {
        MlpConfig {
            layers,
            learning_rate: 0.5,
            momentum: 0.5,
            seed: 0,
        }
    }

    /// Sets the learning constant.
    #[must_use]
    pub(crate) fn with_learning_rate(mut self, lr: f64) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Sets the momentum constant.
    #[must_use]
    pub(crate) fn with_momentum(mut self, momentum: f64) -> Self {
        self.momentum = momentum;
        self
    }

    /// Sets the weight-initialisation seed.
    #[must_use]
    pub(crate) fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The layer widths, input first.
    pub(crate) fn layers(&self) -> &[usize] {
        &self.layers
    }
}

/// One dense layer's parameters and momentum state.
#[derive(Debug, Clone)]
struct Layer {
    inputs: usize,
    outputs: usize,
    /// Row-major `outputs x inputs`.
    weights: Vec<f64>,
    biases: Vec<f64>,
    weight_velocity: Vec<f64>,
    bias_velocity: Vec<f64>,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, rng: &mut SmallRng) -> Self {
        // Small symmetric uniform initialisation scaled by fan-in.
        let scale = 1.0 / (inputs as f64).sqrt();
        let weights = (0..inputs * outputs)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        Layer {
            inputs,
            outputs,
            weights,
            biases: vec![0.0; outputs],
            weight_velocity: vec![0.0; inputs * outputs],
            bias_velocity: vec![0.0; outputs],
        }
    }

    /// `z = W x + b` into `out`.
    fn affine(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.inputs);
        debug_assert_eq!(out.len(), self.outputs);
        for (o, row) in out.iter_mut().zip(self.weights.chunks_exact(self.inputs)) {
            let mut acc = 0.0;
            for (w, xi) in row.iter().zip(x) {
                acc += w * xi;
            }
            *o = acc;
        }
        for (o, b) in out.iter_mut().zip(&self.biases) {
            *o += b;
        }
    }
}

/// A multilayer feed-forward network with sigmoid hidden units and a
/// softmax output layer, trained by SGD with momentum on cross-entropy.
#[derive(Debug, Clone)]
pub(crate) struct Mlp {
    config: MlpConfig,
    layers: Vec<Layer>,
}

impl Mlp {
    /// Builds a network with randomly initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has fewer than two layers or an empty
    /// layer, if the learning rate is not positive and finite, or if the
    /// momentum is not within `[0, 1)`.
    pub(crate) fn new(config: MlpConfig) -> Self {
        assert!(
            config.layers.len() >= 2,
            "an MLP needs at least input and output layers"
        );
        assert!(
            !config.layers.contains(&0),
            "every MLP layer needs at least one unit"
        );
        assert!(
            config.learning_rate.is_finite() && config.learning_rate > 0.0,
            "the learning rate must be positive and finite"
        );
        assert!(
            config.momentum.is_finite() && (0.0..1.0).contains(&config.momentum),
            "the momentum must be in [0, 1)"
        );
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let layers = config
            .layers
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();
        Mlp { config, layers }
    }

    /// The configuration this network was built with.
    pub(crate) fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Runs the network forward, returning the softmax class
    /// distribution.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match the input layer's width.
    pub(crate) fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.forward_trace(input).pop().expect("nonempty trace")
    }

    /// Forward pass retaining every layer's activation (used by
    /// backpropagation). The first entry is the input itself; the last is
    /// the softmax output.
    fn forward_trace(&self, input: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(
            input.len(),
            self.config.layers[0],
            "input width must match the input layer"
        );
        let mut acts: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len() + 1);
        acts.push(input.to_vec());
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = vec![0.0; layer.outputs];
            layer.affine(acts.last().expect("nonempty"), &mut z);
            if i == last {
                softmax_in_place(&mut z);
            } else {
                for v in z.iter_mut() {
                    *v = sigmoid(*v);
                }
            }
            acts.push(z);
        }
        acts
    }

    /// Trains on a single `(input, target_class)` example with gradient
    /// scale `weight`, returning the example's cross-entropy loss.
    ///
    /// `weight` lets callers train on *weighted empirical distributions*
    /// — e.g. distinct `(context, next)` pairs weighted by their training
    /// counts — instead of on raw streams, which is equivalent in
    /// expectation and far cheaper on highly repetitive data.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match the input layer's width or
    /// `target` is not an output class.
    fn train_example(&mut self, input: &[f64], target: usize, weight: f64) -> f64 {
        let outputs = *self.config.layers.last().expect("at least two layers");
        assert!(target < outputs, "target class outside the output layer");
        let acts = self.forward_trace(input);
        let output = acts.last().expect("nonempty");
        let loss = -(output[target].max(1e-300)).ln();

        // Softmax + cross-entropy: delta at the output is simply p - y.
        let mut delta: Vec<f64> = output.clone();
        delta[target] -= 1.0;

        let lr = self.config.learning_rate;
        let mu = self.config.momentum;

        // Walk layers backwards, updating with momentum.
        for li in (0..self.layers.len()).rev() {
            let input_act_owned;
            let input_act: &[f64] = {
                input_act_owned = acts[li].clone();
                &input_act_owned
            };

            // Delta to propagate to the previous layer (before its
            // activation derivative), computed against pre-update weights.
            let prev_delta: Option<Vec<f64>> = if li > 0 {
                let layer = &self.layers[li];
                let mut pd = vec![0.0; layer.inputs];
                for (o, d) in delta.iter().enumerate() {
                    let row = &layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                    for (p, w) in pd.iter_mut().zip(row) {
                        *p += w * d;
                    }
                }
                // Apply the sigmoid derivative of the previous layer's
                // output.
                for (p, y) in pd.iter_mut().zip(&acts[li]) {
                    *p *= sigmoid_prime_from_output(*y);
                }
                Some(pd)
            } else {
                None
            };

            let layer = &mut self.layers[li];
            for (o, d) in delta.iter().enumerate() {
                let g_scale = lr * weight * d;
                let row = &mut layer.weights[o * layer.inputs..(o + 1) * layer.inputs];
                let vrow = &mut layer.weight_velocity[o * layer.inputs..(o + 1) * layer.inputs];
                for ((w, v), x) in row.iter_mut().zip(vrow.iter_mut()).zip(input_act) {
                    *v = mu * *v - g_scale * x;
                    *w += *v;
                }
                let v = &mut layer.bias_velocity[o];
                *v = mu * *v - g_scale;
                layer.biases[o] += *v;
            }

            if let Some(pd) = prev_delta {
                delta = pd;
            }
        }
        loss * weight
    }

    /// Trains one pass over `dataset` (`(input, target, weight)` triples),
    /// returning the mean weighted loss.
    ///
    /// Weights are normalised so the epoch's effective step size is
    /// independent of the absolute scale of the weights.
    ///
    /// # Panics
    ///
    /// Panics on a malformed example, as [`Mlp::train_example`] does.
    pub(crate) fn train_epoch(&mut self, dataset: &[(Vec<f64>, usize, f64)]) -> f64 {
        if dataset.is_empty() {
            return 0.0;
        }
        let total_weight: f64 = dataset.iter().map(|(_, _, w)| w).sum();
        if total_weight <= 0.0 {
            return 0.0;
        }
        let scale = dataset.len() as f64 / total_weight;
        let mut loss = 0.0;
        for (input, target, weight) in dataset {
            loss += self.train_example(input, *target, weight * scale);
        }
        loss / dataset.len() as f64
    }
}

/// Writes the one-hot encoding of `class` (of `width` classes) into
/// `out[offset..offset + width]`.
///
/// # Panics
///
/// Panics if the target range is out of bounds or `class >= width`.
fn one_hot_into(out: &mut [f64], offset: usize, width: usize, class: usize) {
    assert!(class < width, "class {class} out of one-hot width {width}");
    let slot = &mut out[offset..offset + width];
    for v in slot.iter_mut() {
        *v = 0.0;
    }
    slot[class] = 1.0;
}

/// One-hot encodes a categorical context of `context` class indices, each
/// of `width` classes, as a flat vector of length `context.len() * width`.
///
/// # Panics
///
/// Panics if any class index is `>= width`.
pub(crate) fn encode_context(context: &[usize], width: usize) -> Vec<f64> {
    let mut out = vec![0.0; context.len() * width];
    for (i, &c) in context.iter().enumerate() {
        one_hot_into(&mut out, i * width, width, c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The most probable class of `net`'s output for `input`.
    fn predict_class(net: &Mlp, input: &[f64]) -> usize {
        net.forward(input)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("softmax is finite"))
            .map(|(i, _)| i)
            .expect("nonempty output")
    }

    #[test]
    fn config_builder_sets_every_field() {
        let cfg = MlpConfig::new(vec![16, 12, 8])
            .with_learning_rate(0.3)
            .with_momentum(0.9)
            .with_seed(7);
        assert_eq!(cfg.layers(), &[16, 12, 8]);
        assert_eq!((cfg.learning_rate, cfg.momentum, cfg.seed), (0.3, 0.9, 7));
    }

    #[test]
    #[should_panic(expected = "at least input and output layers")]
    fn new_rejects_a_single_layer() {
        let _ = Mlp::new(MlpConfig::new(vec![4]));
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn new_rejects_an_empty_layer() {
        let _ = Mlp::new(MlpConfig::new(vec![4, 0, 2]));
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn new_rejects_a_zero_learning_rate() {
        let _ = Mlp::new(MlpConfig::new(vec![4, 2]).with_learning_rate(0.0));
    }

    #[test]
    #[should_panic(expected = "momentum must be in [0, 1)")]
    fn new_rejects_unit_momentum() {
        let _ = Mlp::new(MlpConfig::new(vec![4, 2]).with_momentum(1.0));
    }

    #[test]
    fn forward_output_is_distribution() {
        let net = Mlp::new(MlpConfig::new(vec![3, 5, 4]).with_seed(9));
        let out = net.forward(&[0.1, 0.2, 0.3]);
        assert_eq!(out.len(), 4);
        let sum: f64 = out.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(out.iter().all(|&p| p > 0.0));
    }

    #[test]
    #[should_panic(expected = "input width must match the input layer")]
    fn forward_rejects_wrong_width() {
        let net = Mlp::new(MlpConfig::new(vec![3, 2]).with_seed(1));
        let _ = net.forward(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "target class outside the output layer")]
    fn train_rejects_bad_target() {
        let mut net = Mlp::new(MlpConfig::new(vec![2, 2]).with_seed(1));
        let _ = net.train_example(&[0.0, 1.0], 5, 1.0);
    }

    #[test]
    fn learns_a_deterministic_mapping() {
        let mut net = Mlp::new(MlpConfig::new(vec![2, 8, 2]).with_seed(1));
        let data = [(vec![0.0, 1.0], 0, 1.0), (vec![1.0, 0.0], 1, 1.0)];
        for _ in 0..200 {
            net.train_epoch(&data);
        }
        assert!(net.forward(&[0.0, 1.0])[0] > 0.9);
    }

    #[test]
    fn learns_next_symbols_from_one_hot_contexts() {
        // Predict "next symbol" (3 classes) from a 2-symbol context.
        let mut net = Mlp::new(MlpConfig::new(vec![6, 10, 3]).with_seed(1));
        let examples = [
            (encode_context(&[0, 1], 3), 2usize, 5.0), // (0,1) -> 2, seen 5x
            (encode_context(&[1, 2], 3), 0, 5.0),      // (1,2) -> 0, seen 5x
        ];
        for _ in 0..300 {
            net.train_epoch(&examples);
        }
        assert_eq!(predict_class(&net, &encode_context(&[0, 1], 3)), 2);
    }

    #[test]
    fn learns_xor() {
        let mut net = Mlp::new(
            MlpConfig::new(vec![2, 8, 2])
                .with_seed(3)
                .with_learning_rate(0.5)
                .with_momentum(0.9),
        );
        let data = [
            (vec![0.0, 0.0], 0usize, 1.0),
            (vec![0.0, 1.0], 1, 1.0),
            (vec![1.0, 0.0], 1, 1.0),
            (vec![1.0, 1.0], 0, 1.0),
        ];
        let mut final_loss = f64::INFINITY;
        for _ in 0..2000 {
            final_loss = net.train_epoch(&data);
        }
        assert!(final_loss < 0.05, "failed to learn XOR, loss {final_loss}");
        for (x, y, _) in &data {
            assert_eq!(predict_class(&net, x), *y);
        }
    }

    #[test]
    fn loss_decreases_over_training() {
        let mut net = Mlp::new(MlpConfig::new(vec![4, 6, 3]).with_seed(5));
        let data = [
            (vec![1.0, 0.0, 0.0, 0.0], 0usize, 1.0),
            (vec![0.0, 1.0, 0.0, 0.0], 1, 1.0),
            (vec![0.0, 0.0, 1.0, 0.0], 2, 1.0),
        ];
        let first = net.train_epoch(&data);
        let mut last = first;
        for _ in 0..100 {
            last = net.train_epoch(&data);
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn weighted_training_approximates_conditional_distribution() {
        // One context, two outcomes with 80/20 empirical weights: the
        // softmax should converge near (0.8, 0.2).
        let mut net = Mlp::new(
            MlpConfig::new(vec![2, 6, 2])
                .with_seed(11)
                .with_learning_rate(0.2)
                .with_momentum(0.5),
        );
        let data = [(vec![1.0, 0.0], 0usize, 8.0), (vec![1.0, 0.0], 1, 2.0)];
        for _ in 0..3000 {
            net.train_epoch(&data);
        }
        let p = net.forward(&[1.0, 0.0]);
        assert!((p[0] - 0.8).abs() < 0.05, "p0 = {}", p[0]);
        assert!((p[1] - 0.2).abs() < 0.05, "p1 = {}", p[1]);
    }

    #[test]
    fn empty_epoch_is_noop() {
        let mut net = Mlp::new(MlpConfig::new(vec![2, 2]).with_seed(1));
        assert_eq!(net.train_epoch(&[]), 0.0);
        assert_eq!(net.train_epoch(&[(vec![0.0, 0.0], 0, 0.0)]), 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Mlp::new(MlpConfig::new(vec![3, 4, 2]).with_seed(42));
        let b = Mlp::new(MlpConfig::new(vec![3, 4, 2]).with_seed(42));
        assert_eq!(a.forward(&[0.3, 0.6, 0.9]), b.forward(&[0.3, 0.6, 0.9]));
    }

    #[test]
    fn one_hot_encoding() {
        assert_eq!(
            encode_context(&[2, 0], 3),
            vec![0.0, 0.0, 1.0, 1.0, 0.0, 0.0]
        );
        let v = encode_context(&[1, 0, 2], 3);
        assert_eq!(v.len(), 9);
        assert_eq!(v[1], 1.0);
        assert_eq!(v[3], 1.0);
        assert_eq!(v[8], 1.0);
        assert_eq!(v.iter().sum::<f64>(), 3.0);
    }

    #[test]
    #[should_panic(expected = "out of one-hot width")]
    fn one_hot_rejects_bad_class() {
        let mut out = vec![0.0; 3];
        one_hot_into(&mut out, 0, 3, 3);
    }

    proptest! {
        /// The forward pass always emits a probability distribution, for any
        /// architecture and input.
        #[test]
        fn forward_is_a_distribution(
            hidden in 1usize..12,
            outputs in 1usize..8,
            seed in 0u64..1000,
            input in prop::collection::vec(-3.0f64..3.0, 4),
        ) {
            let net = Mlp::new(MlpConfig::new(vec![4, hidden, outputs]).with_seed(seed));
            let out = net.forward(&input);
            prop_assert_eq!(out.len(), outputs);
            let sum: f64 = out.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(out.iter().all(|&p| p > 0.0 && p.is_finite()));
        }

        /// Training on a single deterministic example drives its loss down.
        #[test]
        fn training_reduces_loss(seed in 0u64..200, target in 0usize..3) {
            let mut net = Mlp::new(
                MlpConfig::new(vec![3, 6, 3])
                    .with_seed(seed)
                    .with_learning_rate(0.3)
                    .with_momentum(0.5),
            );
            let input = encode_context(&[target], 3);
            let data = [(input.clone(), target, 1.0)];
            let first = net.train_epoch(&data);
            for _ in 0..60 {
                net.train_epoch(&data);
            }
            let last = net.train_epoch(&data);
            prop_assert!(last < first, "loss {first} -> {last}");
            prop_assert_eq!(predict_class(&net, &input), target);
        }

        /// Weight scaling of the dataset leaves the learned predictions
        /// unchanged (the epoch normalises total weight).
        #[test]
        fn weight_scale_invariance(scale in 0.5f64..100.0) {
            let build = || {
                Mlp::new(
                    MlpConfig::new(vec![2, 5, 2])
                        .with_seed(9)
                        .with_learning_rate(0.2),
                )
            };
            let base = [
                (vec![1.0, 0.0], 0usize, 3.0),
                (vec![0.0, 1.0], 1, 1.0),
            ];
            let scaled: Vec<(Vec<f64>, usize, f64)> = base
                .iter()
                .map(|(x, t, w)| (x.clone(), *t, w * scale))
                .collect();
            let mut a = build();
            let mut b = build();
            for _ in 0..30 {
                a.train_epoch(&base);
                b.train_epoch(&scaled);
            }
            let pa = a.forward(&[1.0, 0.0]);
            let pb = b.forward(&[1.0, 0.0]);
            for (x, y) in pa.iter().zip(&pb) {
                prop_assert!((x - y).abs() < 1e-9, "{x} vs {y}");
            }
        }

        /// One-hot context encoding has exactly one 1 per position block.
        #[test]
        fn one_hot_blocks(context in prop::collection::vec(0usize..5, 1..6)) {
            let v = encode_context(&context, 5);
            prop_assert_eq!(v.len(), context.len() * 5);
            for (i, &c) in context.iter().enumerate() {
                let block = &v[i * 5..(i + 1) * 5];
                prop_assert_eq!(block.iter().sum::<f64>(), 1.0);
                prop_assert_eq!(block[c], 1.0);
            }
        }
    }
}
