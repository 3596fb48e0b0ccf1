//! Rules and rule sets.

use detdiv_sequence::Symbol;

/// One positional equality test: `context[position] == symbol`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Condition {
    /// Index into the context window.
    pub(crate) position: usize,
    /// Required symbol at that index.
    pub(crate) symbol: Symbol,
}

/// A conjunctive classification rule: if every condition holds for a
/// context, predict `class`.
///
/// `correct` / `covered` are the (weighted) training statistics the rule
/// was accepted with; [`Rule::confidence`] is their ratio — the
/// Laplace-smoothed precision RIPPER-style learners rank rules by.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Rule {
    /// The conjunction of positional tests.
    pub(crate) conditions: Vec<Condition>,
    /// The predicted next symbol.
    pub(crate) class: Symbol,
    /// Weighted count of covered examples with the predicted class.
    pub(crate) correct: f64,
    /// Weighted count of all covered examples.
    pub(crate) covered: f64,
}

impl Rule {
    /// Whether this rule's conditions all hold for `context`.
    ///
    /// Contexts shorter than a condition's position never match.
    pub(crate) fn matches(&self, context: &[Symbol]) -> bool {
        self.conditions
            .iter()
            .all(|c| context.get(c.position) == Some(&c.symbol))
    }

    /// Laplace-smoothed precision `(correct + 1) / (covered + 2)`.
    pub(crate) fn confidence(&self) -> f64 {
        (self.correct + 1.0) / (self.covered + 2.0)
    }
}

/// An ordered rule list with a default class, produced by
/// [`super::learn::learn_rules`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RuleSet {
    pub(crate) width: usize,
    pub(crate) rules: Vec<Rule>,
    pub(crate) default_class: Symbol,
    pub(crate) default_confidence: f64,
}

/// The outcome of consulting a rule set for one context.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RulePrediction {
    /// The predicted next symbol.
    pub(crate) class: Symbol,
    /// Confidence of the deciding rule (or the default class's prior).
    pub(crate) confidence: f64,
}

impl RuleSet {
    /// Predicts the next symbol for `context`: the first (i.e.
    /// highest-confidence) matching rule wins; otherwise the default
    /// class.
    ///
    /// # Panics
    ///
    /// Panics if `context` is not as wide as the learned contexts.
    pub(crate) fn predict(&self, context: &[Symbol]) -> RulePrediction {
        assert_eq!(context.len(), self.width, "context width mismatch");
        for rule in &self.rules {
            if rule.matches(context) {
                return RulePrediction {
                    class: rule.class,
                    confidence: rule.confidence(),
                };
            }
        }
        RulePrediction {
            class: self.default_class,
            confidence: self.default_confidence,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: u32) -> Symbol {
        Symbol::new(i)
    }

    fn rule(conds: &[(usize, u32)], class: u32, correct: f64, covered: f64) -> Rule {
        Rule {
            conditions: conds
                .iter()
                .map(|&(position, s)| Condition {
                    position,
                    symbol: sym(s),
                })
                .collect(),
            class: sym(class),
            correct,
            covered,
        }
    }

    #[test]
    fn matching_and_confidence() {
        let r = rule(&[(0, 1), (2, 3)], 4, 98.0, 100.0);
        assert!(r.matches(&[sym(1), sym(9), sym(3)]));
        assert!(!r.matches(&[sym(1), sym(9), sym(4)]));
        assert!(!r.matches(&[sym(1)])); // too short
        assert!((r.confidence() - 99.0 / 102.0).abs() < 1e-12);
    }

    #[test]
    fn empty_conditions_match_everything() {
        let r = rule(&[], 2, 5.0, 10.0);
        assert!(r.matches(&[sym(0), sym(1)]));
        assert!(r.matches(&[]));
    }

    #[test]
    fn rule_set_prediction_order_and_default() {
        let set = RuleSet {
            width: 2,
            rules: vec![
                rule(&[(1, 5)], 7, 99.0, 100.0),
                rule(&[(0, 1)], 2, 50.0, 100.0),
            ],
            default_class: sym(0),
            default_confidence: 0.4,
        };
        // First rule wins when both match.
        let p = set.predict(&[sym(1), sym(5)]);
        assert_eq!(p.class, sym(7));
        assert_eq!(p.confidence, set.rules[0].confidence());
        // Second rule catches what the first misses.
        let p = set.predict(&[sym(1), sym(6)]);
        assert_eq!(p.class, sym(2));
        assert_eq!(p.confidence, set.rules[1].confidence());
        // Default otherwise.
        let p = set.predict(&[sym(3), sym(3)]);
        assert_eq!(p.class, sym(0));
        assert_eq!(p.confidence, 0.4);
    }

    #[test]
    #[should_panic(expected = "context width mismatch")]
    fn predict_checks_width() {
        let set = RuleSet {
            width: 2,
            rules: vec![],
            default_class: sym(0),
            default_confidence: 0.5,
        };
        let _ = set.predict(&[sym(1)]);
    }
}
