//! Activation functions.

/// Logistic sigmoid `1 / (1 + e^-x)`.
///
/// The paper's neural-network detector is a classic multilayer
/// feed-forward network (Debar et al. 1992; Zurada 1992); sigmoid hidden
/// units are the period-appropriate choice.
#[inline]
pub(crate) fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        // Numerically stable branch for large negative inputs.
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Derivative of the sigmoid expressed in terms of its output `y`.
#[inline]
pub(crate) fn sigmoid_prime_from_output(y: f64) -> f64 {
    y * (1.0 - y)
}

/// Numerically stable in-place softmax.
///
/// # Panics
///
/// Panics if `logits` is empty.
pub(crate) fn softmax_in_place(logits: &mut [f64]) {
    assert!(!logits.is_empty(), "softmax of an empty slice");
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for x in logits.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    for x in logits.iter_mut() {
        *x /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sigmoid_midpoint_and_limits() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
        // Stability: no NaN at extremes.
        assert!(sigmoid(-1e4).is_finite());
        assert!(sigmoid(1e4).is_finite());
    }

    #[test]
    fn sigmoid_is_monotone() {
        let mut prev = sigmoid(-5.0);
        for i in -49..50 {
            let y = sigmoid(i as f64 / 10.0);
            assert!(y >= prev);
            prev = y;
        }
    }

    #[test]
    fn sigmoid_prime_peaks_at_half() {
        assert!((sigmoid_prime_from_output(0.5) - 0.25).abs() < 1e-12);
        assert_eq!(sigmoid_prime_from_output(0.0), 0.0);
        assert_eq!(sigmoid_prime_from_output(1.0), 0.0);
    }

    #[test]
    fn softmax_normalises_and_orders() {
        let mut v = vec![1.0, 2.0, 3.0];
        softmax_in_place(&mut v);
        let sum: f64 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(v[2] > v[1] && v[1] > v[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let mut a = vec![1.0, 2.0];
        let mut b = vec![1001.0, 1002.0];
        softmax_in_place(&mut a);
        softmax_in_place(&mut b);
        assert!((a[0] - b[0]).abs() < 1e-12);
        let mut huge = vec![1e9, -1e9];
        softmax_in_place(&mut huge);
        assert!(huge.iter().all(|x| x.is_finite()));
    }

    #[test]
    #[should_panic(expected = "softmax of an empty slice")]
    fn softmax_rejects_empty() {
        softmax_in_place(&mut []);
    }

    proptest! {
        /// Softmax output is invariant under constant shifts of the logits.
        #[test]
        fn softmax_shift_invariance(
            logits in prop::collection::vec(-20.0f64..20.0, 1..8),
            shift in -100.0f64..100.0,
        ) {
            let mut a = logits.clone();
            let mut b: Vec<f64> = logits.iter().map(|x| x + shift).collect();
            softmax_in_place(&mut a);
            softmax_in_place(&mut b);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }

        /// Sigmoid stays in [0, 1] and is monotone.
        #[test]
        fn sigmoid_bounds_and_monotonicity(x in -1e6f64..1e6, dx in 0.0f64..10.0) {
            let y = sigmoid(x);
            prop_assert!((0.0..=1.0).contains(&y));
            prop_assert!(sigmoid(x + dx) >= y);
        }
    }
}
