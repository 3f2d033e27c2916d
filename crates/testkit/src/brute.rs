//! Brute-force confidence computation from lineage.
//!
//! Collects, for every distinct answer tuple, the DNF lineage over the input
//! variables (one clause per derivation row) and evaluates its probability
//! exactly by Shannon expansion. Worst-case exponential; the oracle that the
//! efficient operators are validated against.

use std::collections::BTreeMap;

use pdb_exec::Annotated;
use pdb_storage::{Tuple, Variable};

use crate::dnf::{Clause, Dnf};
use crate::prob::exact_probability;

/// Computes `(distinct answer tuple, exact confidence)` pairs from the
/// annotated answer, ordered by tuple.
pub fn brute_force_confidences(answer: &Annotated) -> Vec<(Tuple, f64)> {
    // Variable probabilities are read off the lineage annotations themselves:
    // every occurrence of a variable in a tuple-independent database carries
    // the same probability.
    let mut probs: BTreeMap<Variable, f64> = BTreeMap::new();
    let mut lineages: BTreeMap<Tuple, Vec<Clause>> = BTreeMap::new();
    for row in answer.iter() {
        for (var, p) in row.lineage {
            probs.entry(*var).or_insert(*p);
        }
        let clause = Clause::new(row.lineage.iter().map(|(v, _)| *v));
        lineages.entry(row.data_tuple()).or_default().push(clause);
    }
    lineages
        .into_iter()
        .map(|(tuple, clauses)| (tuple, exact_probability(&Dnf::new(clauses), &probs)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_exec::fixtures::fig1_catalog;
    use pdb_exec::pipeline::evaluate_join_order;
    use pdb_query::cq::intro_query_q;
    use pdb_storage::tuple;

    #[test]
    fn intro_query_confidence_is_0_0028() {
        let catalog = fig1_catalog();
        let q = intro_query_q();
        let order: Vec<String> = ["Cust", "Ord", "Item"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let answer = evaluate_join_order(&q, &catalog, &order).unwrap();
        let conf = brute_force_confidences(&answer);
        assert_eq!(conf.len(), 1);
        assert_eq!(conf[0].0, tuple!["1995-01-10"]);
        assert!((conf[0].1 - 0.0028).abs() < 1e-12);
    }

    #[test]
    fn empty_answer_has_no_confidences() {
        let catalog = fig1_catalog();
        let mut q = intro_query_q();
        // Impossible predicate: nobody is called "Nobody".
        q.predicates[0].constant = pdb_storage::Value::str("Nobody");
        let order: Vec<String> = ["Cust", "Ord", "Item"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let answer = evaluate_join_order(&q, &catalog, &order).unwrap();
        assert!(brute_force_confidences(&answer).is_empty());
    }

    #[test]
    fn boolean_query_yields_single_empty_tuple() {
        let catalog = fig1_catalog();
        let q = intro_query_q().boolean_version();
        let order: Vec<String> = ["Cust", "Ord", "Item"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let answer = evaluate_join_order(&q, &catalog, &order).unwrap();
        let conf = brute_force_confidences(&answer);
        assert_eq!(conf.len(), 1);
        assert_eq!(conf[0].0, Tuple::empty());
        assert!((conf[0].1 - 0.0028).abs() < 1e-12);
    }
}
