//! Sequential-covering rule induction with FOIL-gain growth.
//!
//! A compact RIPPER-style learner specialised to the detectors'
//! workload: contexts are fixed-width symbol windows, classes are next
//! symbols, and training examples carry occurrence weights so the
//! learner runs on the weighted *unique* (context, next) pairs of a
//! stream rather than on the raw stream (the same trick the neural
//! detector uses; equivalent and far cheaper on repetitive data).
//!
//! Simplifications relative to full RIPPER, documented per DESIGN.md:
//! classes are covered rarest-first and rules grown by FOIL gain exactly
//! as in RIPPER, but the incremental-reduced-error pruning phase is
//! replaced by acceptance thresholds (minimum confidence and coverage),
//! which is sufficient for the near-deterministic streams of this study.

use std::collections::HashMap;

use detdiv_sequence::{BuildSymbolHasher, NgramCounter, Symbol};

use super::rule::{Condition, Rule, RuleSet};

/// One weighted training example: a context window and the symbol that
/// followed it.
#[derive(Debug, Clone)]
pub(crate) struct Example {
    /// The context window (fixed width across the training set).
    pub(crate) context: Vec<Symbol>,
    /// The class: the next symbol observed after the context.
    pub(crate) class: Symbol,
    /// Occurrence weight (a count, for stream-derived examples).
    pub(crate) weight: f64,
}

/// Rule-induction parameters of the [`RipperDetector`](crate::RipperDetector).
#[derive(Debug, Clone, PartialEq)]
pub struct LearnConfig {
    /// Rules below this Laplace confidence are rejected.
    pub min_confidence: f64,
    /// Rules covering less than this weighted count of correct examples
    /// are rejected.
    pub min_coverage: f64,
    /// Cap on rules per class (a runaway guard; never reached on the
    /// study's data).
    pub max_rules_per_class: usize,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig {
            min_confidence: 0.6,
            min_coverage: 2.0,
            max_rules_per_class: 32,
        }
    }
}

/// The weighted unique-example set of a counted census: one
/// [`Example`] per distinct gram of `counter`, its first
/// `ngram_len − 1` symbols the context and its last the class, weighted
/// by the gram's count.
///
/// The counter iterates a hash map in arbitrary order; the examples
/// are sorted by gram, which is (context, class) order, so learning is
/// reproducible.
pub(crate) fn examples_from_counter(counter: &NgramCounter) -> Vec<Example> {
    let width = counter.ngram_len() - 1;
    let mut grams: Vec<(&[Symbol], u64)> = counter.iter().collect();
    grams.sort_unstable();
    grams
        .into_iter()
        .map(|(gram, count)| Example {
            context: gram[..width].to_vec(),
            class: gram[width],
            weight: count as f64,
        })
        .collect()
}

/// Laplace precision of weighted (positive, total) coverage.
fn laplace(p: f64, total: f64) -> f64 {
    (p + 1.0) / (total + 2.0)
}

/// Weighted coverage of a condition set over `examples`, restricted to
/// indices in `subset` (or all, if `None`): returns (positives covered,
/// total covered) for `class`.
fn coverage(
    examples: &[Example],
    active: &[bool],
    conditions: &[Condition],
    class: Symbol,
    use_active: bool,
) -> (f64, f64) {
    let mut pos = 0.0;
    let mut total = 0.0;
    for (i, e) in examples.iter().enumerate() {
        if use_active && !active[i] && e.class == class {
            // Already-covered positives don't count toward growth...
            continue;
        }
        if conditions.iter().all(|c| e.context[c.position] == c.symbol) {
            total += e.weight;
            if e.class == class {
                pos += e.weight;
            }
        }
    }
    (pos, total)
}

/// Learns an ordered rule set from weighted examples.
///
/// Returns `None` on an empty example set, if the examples disagree on
/// context width, or if `min_confidence` is outside `(0, 1)` or
/// `min_coverage` is negative.
pub(crate) fn learn_rules(examples: &[Example], config: &LearnConfig) -> Option<RuleSet> {
    if examples.is_empty()
        || !(config.min_confidence > 0.0 && config.min_confidence < 1.0)
        || config.min_coverage < 0.0
    {
        return None;
    }
    let width = examples[0].context.len();
    if examples.iter().any(|e| e.context.len() != width) {
        return None;
    }

    // Class inventory with weighted frequencies.
    let mut class_weight: HashMap<Symbol, f64, BuildSymbolHasher> = HashMap::default();
    for e in examples {
        *class_weight.entry(e.class).or_insert(0.0) += e.weight;
    }
    let total_weight: f64 = class_weight.values().sum();
    let mut classes: Vec<(Symbol, f64)> = class_weight.iter().map(|(&c, &w)| (c, w)).collect();
    // RIPPER covers classes rarest-first, leaving the most frequent as
    // the implicit default.
    classes.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("finite weights")
            .then(a.0.cmp(&b.0))
    });
    let (default_class, default_weight) = *classes.last().expect("nonempty");

    // The symbol vocabulary for candidate conditions.
    let mut vocab: Vec<Symbol> = examples
        .iter()
        .flat_map(|e| e.context.iter().copied())
        .collect();
    vocab.sort();
    vocab.dedup();

    let mut rules: Vec<Rule> = Vec::new();
    // Unlike classic RIPPER, the majority class is covered too (the
    // detector needs confident predictions for normal continuations);
    // it additionally serves as the default for unmatched contexts.
    for &(class, _) in classes.iter() {
        let mut active: Vec<bool> = examples.iter().map(|e| e.class == class).collect();
        for _ in 0..config.max_rules_per_class {
            let remaining: f64 = examples
                .iter()
                .enumerate()
                .filter(|(i, _)| active[*i])
                .map(|(_, e)| e.weight)
                .sum();
            if remaining < config.min_coverage {
                break;
            }
            // Grow one rule by FOIL gain.
            let mut conditions: Vec<Condition> = Vec::new();
            loop {
                let (p_cur, t_cur) = coverage(examples, &active, &conditions, class, true);
                if p_cur <= 0.0 || p_cur >= t_cur {
                    break; // pure or empty
                }
                let prec_cur = laplace(p_cur, t_cur);
                let mut best: Option<(Condition, f64)> = None;
                for position in 0..width {
                    if conditions.iter().any(|c| c.position == position) {
                        continue;
                    }
                    for &symbol in &vocab {
                        let cand = Condition { position, symbol };
                        let mut grown = conditions.clone();
                        grown.push(cand);
                        let (p_new, t_new) = coverage(examples, &active, &grown, class, true);
                        if p_new <= 0.0 {
                            continue;
                        }
                        let gain = p_new * (laplace(p_new, t_new).ln() - prec_cur.ln());
                        if gain > best.as_ref().map(|&(_, g)| g).unwrap_or(1e-12) {
                            best = Some((cand, gain));
                        }
                    }
                }
                match best {
                    Some((cond, _)) => conditions.push(cond),
                    None => break,
                }
            }
            if conditions.is_empty() {
                break;
            }
            // Accept against the full training set.
            let (correct, covered) = coverage(examples, &active, &conditions, class, false);
            let rule = Rule {
                conditions,
                class,
                correct,
                covered,
            };
            if rule.correct < config.min_coverage || rule.confidence() < config.min_confidence {
                break;
            }
            // Retire the positives this rule covers.
            for (i, e) in examples.iter().enumerate() {
                if active[i] && rule.matches(&e.context) {
                    active[i] = false;
                }
            }
            rules.push(rule);
        }
    }

    // Highest-confidence rules decide first.
    rules.sort_by(|a, b| {
        b.confidence()
            .partial_cmp(&a.confidence())
            .expect("finite confidences")
            .then(b.covered.partial_cmp(&a.covered).expect("finite coverage"))
            .then(a.class.cmp(&b.class))
    });

    Some(RuleSet {
        width,
        rules,
        default_class,
        default_confidence: default_weight / total_weight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use detdiv_sequence::{symbols, StreamProfile};

    fn cycle_stream(reps: usize) -> Vec<Symbol> {
        let mut v = Vec::new();
        for _ in 0..reps {
            v.extend(symbols(&[0, 1, 2, 3]));
        }
        v
    }

    /// The examples of `stream` at context width `width`.
    fn examples(stream: &[Symbol], width: usize) -> Vec<Example> {
        examples_from_counter(&StreamProfile::new(stream).counter(width + 1))
    }

    #[test]
    fn examples_aggregate_counts_in_gram_order() {
        let s = cycle_stream(10);
        let ex = examples(&s, 2);
        assert_eq!(ex.len(), 4); // 4 distinct (context, next) triples
        let total: f64 = ex.iter().map(|e| e.weight).sum();
        assert_eq!(total, (s.len() - 2) as f64);
        assert!(ex
            .windows(2)
            .all(|w| (&w[0].context, w[0].class) < (&w[1].context, w[1].class)));
        assert!(examples(&s[..2], 2).is_empty());
    }

    #[test]
    fn learns_a_five_symbol_cycle() {
        let mut stream = Vec::new();
        for _ in 0..50 {
            stream.extend(symbols(&[3, 1, 4, 1, 5]));
        }
        let rules = learn_rules(&examples(&stream, 2), &LearnConfig::default()).unwrap();
        // "ctx ends (3, 1)" predicts 4.
        assert_eq!(rules.predict(&symbols(&[3, 1])).class, Symbol::new(4));
    }

    #[test]
    fn learns_the_cycle() {
        let ex = examples(&cycle_stream(50), 2);
        let rules = learn_rules(&ex, &LearnConfig::default()).unwrap();
        for (a, b, next) in [(0u32, 1u32, 2u32), (1, 2, 3), (2, 3, 0)] {
            let p = rules.predict(&symbols(&[a, b]));
            assert_eq!(p.class, Symbol::new(next), "({a},{b})");
            assert!(p.confidence > 0.9, "({a},{b}) confidence {}", p.confidence);
        }
    }

    #[test]
    fn noisy_minority_does_not_override() {
        // 0 -> 1 dominates; 0 -> 2 occurs rarely.
        let mut ex = examples(&cycle_stream(100), 1);
        ex.push(Example {
            context: symbols(&[0]),
            class: Symbol::new(2),
            weight: 2.0,
        });
        let rules = learn_rules(&ex, &LearnConfig::default()).unwrap();
        let p = rules.predict(&symbols(&[0]));
        assert_eq!(p.class, Symbol::new(1));
    }

    #[test]
    fn default_class_is_majority() {
        let ex = vec![
            Example {
                context: symbols(&[0]),
                class: Symbol::new(1),
                weight: 10.0,
            },
            Example {
                context: symbols(&[1]),
                class: Symbol::new(1),
                weight: 10.0,
            },
            Example {
                context: symbols(&[2]),
                class: Symbol::new(5),
                weight: 1.0,
            },
        ];
        let rules = learn_rules(&ex, &LearnConfig::default()).unwrap();
        assert_eq!(rules.default_class, Symbol::new(1));
        // Unseen context falls back to the default.
        let p = rules.predict(&symbols(&[7]));
        assert_eq!(p.class, Symbol::new(1));
        assert_eq!(p.confidence, rules.default_confidence);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(learn_rules(&[], &LearnConfig::default()).is_none());
        let ex = vec![
            Example {
                context: symbols(&[0]),
                class: Symbol::new(1),
                weight: 1.0,
            },
            Example {
                context: symbols(&[0, 1]),
                class: Symbol::new(1),
                weight: 1.0,
            },
        ];
        assert!(learn_rules(&ex, &LearnConfig::default()).is_none());
        let ex = examples(&cycle_stream(5), 1);
        for config in [
            LearnConfig {
                min_confidence: 1.0,
                ..LearnConfig::default()
            },
            LearnConfig {
                min_coverage: -1.0,
                ..LearnConfig::default()
            },
        ] {
            assert!(learn_rules(&ex, &config).is_none(), "{config:?}");
        }
    }

    #[test]
    fn learning_is_deterministic() {
        let ex = examples(&cycle_stream(30), 3);
        let a = learn_rules(&ex, &LearnConfig::default()).unwrap();
        let b = learn_rules(&ex, &LearnConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn multi_condition_rules_when_needed() {
        // Class depends on two positions: next = 1 iff ctx = (0, 0);
        // every single-position test is impure.
        let ex = vec![
            Example {
                context: symbols(&[0, 0]),
                class: Symbol::new(1),
                weight: 10.0,
            },
            Example {
                context: symbols(&[0, 1]),
                class: Symbol::new(2),
                weight: 10.0,
            },
            Example {
                context: symbols(&[1, 0]),
                class: Symbol::new(2),
                weight: 10.0,
            },
            Example {
                context: symbols(&[1, 1]),
                class: Symbol::new(2),
                weight: 10.0,
            },
        ];
        let rules = learn_rules(&ex, &LearnConfig::default()).unwrap();
        let p = rules.predict(&symbols(&[0, 0]));
        assert_eq!(p.class, Symbol::new(1));
        assert_eq!(rules.predict(&symbols(&[0, 1])).class, Symbol::new(2));
        // The class-1 rule must test both positions.
        let rule_for_1 = rules
            .rules
            .iter()
            .find(|r| r.class == Symbol::new(1))
            .expect("class-1 rule learned");
        assert_eq!(rule_for_1.conditions.len(), 2);
    }
}
