//! Exact probability of DNF lineage.
//!
//! `Pr[φ]` is #P-complete in general (paper, Section II.A); this module
//! computes it anyway — by Shannon expansion — so that the efficient,
//! signature-driven operators of `pdb-conf` have an oracle to be validated
//! against. The expansion picks the most frequent variable first, which keeps
//! the recursion shallow on the grid-structured lineage produced by join
//! queries, but the worst case remains exponential: keep inputs small.

use std::collections::BTreeMap;

use pdb_storage::Variable;

use crate::dnf::Dnf;

/// Exact probability of a DNF formula by Shannon expansion.
///
/// Variables missing from `probs` are treated as having probability zero,
/// which matches the possible-world semantics (a tuple that cannot exist).
pub fn exact_probability(formula: &Dnf, probs: &BTreeMap<Variable, f64>) -> f64 {
    if formula.is_false() {
        return 0.0;
    }
    if formula.is_true() {
        return 1.0;
    }
    // Pick the variable occurring in the most clauses: conditioning on it
    // simplifies the formula the fastest.
    let mut counts: BTreeMap<Variable, usize> = BTreeMap::new();
    for clause in formula.clauses() {
        for v in clause.vars() {
            *counts.entry(*v).or_insert(0) += 1;
        }
    }
    let (&var, _) = counts
        .iter()
        .max_by_key(|(_, c)| **c)
        .expect("non-trivial formula has at least one variable");
    let p = probs.get(&var).copied().unwrap_or(0.0);
    let if_true = exact_probability(&formula.assign(var, true), probs);
    let if_false = exact_probability(&formula.assign(var, false), probs);
    p * if_true + (1.0 - p) * if_false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnf::Clause;
    use proptest::prelude::*;

    fn v(i: u64) -> Variable {
        Variable(i)
    }

    fn probs(pairs: &[(u64, f64)]) -> BTreeMap<Variable, f64> {
        pairs.iter().map(|(i, p)| (v(*i), *p)).collect()
    }

    #[test]
    fn single_variable_probability() {
        let d = Dnf::var(v(1));
        assert!((exact_probability(&d, &probs(&[(1, 0.3)])) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn false_and_true_formulas() {
        assert_eq!(exact_probability(&Dnf::empty(), &probs(&[])), 0.0);
        let taut = Dnf::new([Clause::empty()]);
        assert_eq!(exact_probability(&taut, &probs(&[])), 1.0);
    }

    #[test]
    fn intro_example_confidence() {
        // φ = x1 y1 z1 ∨ x1 y1 z2 with the Fig. 1 probabilities: the paper's
        // worked example yields 0.1 · 0.1 · (1 − 0.9 · 0.8) = 0.0028.
        let d = Dnf::new([
            Clause::new([v(1), v(10), v(100)]),
            Clause::new([v(1), v(10), v(101)]),
        ]);
        let p = probs(&[(1, 0.1), (10, 0.1), (100, 0.1), (101, 0.2)]);
        assert!((exact_probability(&d, &p) - 0.0028).abs() < 1e-12);
    }

    #[test]
    fn unknown_variables_have_probability_zero() {
        let d = Dnf::var(v(42));
        assert_eq!(exact_probability(&d, &probs(&[])), 0.0);
    }

    #[test]
    fn non_independent_clauses_are_handled_exactly() {
        // x ∨ xy has probability Pr[x]; the naive independent-or over clause
        // probabilities would get this wrong.
        let d = Dnf::new([Clause::new([v(1)]), Clause::new([v(1), v(2)])]);
        let p = probs(&[(1, 0.4), (2, 0.9)]);
        assert!((exact_probability(&d, &p) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn hard_query_shape_is_still_exact() {
        // The lineage shape of the prototypical hard query: x_i y_ij z_j.
        // Pr[x1 y11 z1 ∨ x1 y12 z2 ∨ x2 y21 z1] with all probabilities 0.5:
        // brute-force over the 7 variables gives 0.2265625.
        let d = Dnf::new([
            Clause::new([v(1), v(11), v(21)]),
            Clause::new([v(1), v(12), v(22)]),
            Clause::new([v(2), v(13), v(21)]),
        ]);
        let p: BTreeMap<Variable, f64> = [1, 2, 11, 12, 13, 21, 22]
            .iter()
            .map(|i| (v(*i), 0.5))
            .collect();
        let brute = brute_force(&d, &p);
        assert!((exact_probability(&d, &p) - brute).abs() < 1e-12);
    }

    /// Brute-force probability by enumerating all assignments of the
    /// formula's variables.
    fn brute_force(d: &Dnf, probs: &BTreeMap<Variable, f64>) -> f64 {
        let vars: Vec<Variable> = d.variables().into_iter().collect();
        let mut total = 0.0;
        for mask in 0u64..(1 << vars.len()) {
            let mut assignment = BTreeMap::new();
            let mut weight = 1.0;
            for (bit, var) in vars.iter().enumerate() {
                let truth = mask & (1 << bit) != 0;
                assignment.insert(*var, truth);
                let p = probs.get(var).copied().unwrap_or(0.0);
                weight *= if truth { p } else { 1.0 - p };
            }
            if d.eval(&assignment) {
                total += weight;
            }
        }
        total
    }

    proptest! {
        /// Shannon expansion agrees with brute-force world enumeration on
        /// random small DNFs.
        #[test]
        fn shannon_matches_brute_force(
            clause_specs in proptest::collection::vec(
                proptest::collection::btree_set(0u64..6, 1..4),
                1..6
            ),
            probs_raw in proptest::collection::vec(0.05f64..0.95, 6)
        ) {
            let dnf = Dnf::new(clause_specs.iter().map(|s| Clause::new(s.iter().map(|i| v(*i)))));
            let probs: BTreeMap<Variable, f64> =
                probs_raw.iter().enumerate().map(|(i, p)| (v(i as u64), *p)).collect();
            let exact = exact_probability(&dnf, &probs);
            let brute = brute_force(&dnf, &probs);
            prop_assert!((exact - brute).abs() < 1e-9, "exact={exact} brute={brute}");
        }

        /// Probabilities are always within [0, 1].
        #[test]
        fn probability_is_in_unit_interval(
            clause_specs in proptest::collection::vec(
                proptest::collection::btree_set(0u64..8, 1..5),
                0..8
            ),
            probs_raw in proptest::collection::vec(0.0f64..=1.0, 8)
        ) {
            let dnf = Dnf::new(clause_specs.iter().map(|s| Clause::new(s.iter().map(|i| v(*i)))));
            let probs: BTreeMap<Variable, f64> =
                probs_raw.iter().enumerate().map(|(i, p)| (v(i as u64), *p)).collect();
            let p = exact_probability(&dnf, &probs);
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&p));
        }

        /// Monotonicity: adding a clause can only increase the probability.
        #[test]
        fn adding_clauses_is_monotone(
            clause_specs in proptest::collection::vec(
                proptest::collection::btree_set(0u64..6, 1..4),
                1..5
            ),
            extra in proptest::collection::btree_set(0u64..6, 1..4),
            probs_raw in proptest::collection::vec(0.05f64..0.95, 6)
        ) {
            let probs: BTreeMap<Variable, f64> =
                probs_raw.iter().enumerate().map(|(i, p)| (v(i as u64), *p)).collect();
            let base = Dnf::new(clause_specs.iter().map(|s| Clause::new(s.iter().map(|i| v(*i)))));
            let mut bigger = base.clone();
            bigger.add_clause(Clause::new(extra.iter().map(|i| v(*i))));
            prop_assert!(exact_probability(&bigger, &probs) >= exact_probability(&base, &probs) - 1e-12);
        }
    }
}
