//! Explicit possible-world semantics.
//!
//! A tuple-independent probabilistic database over variables `X` represents
//! one possible world per truth assignment `f : X → {true, false}`; the world
//! contains exactly the tuples whose variable is assigned true, and its
//! probability is the product over all variables of `p` (if true) or `1 − p`
//! (if false) — paper, Section II.A.
//!
//! Enumerating the worlds is exponential and only feasible for very small
//! databases; it is the *ground truth* the confidence oracle is tied to.

use std::collections::BTreeMap;

use pdb_storage::{ProbTable, Table, Variable};

/// Largest number of distinct variables [`enumerate_worlds`] will expand
/// (2^20 worlds).
pub const MAX_WORLD_VARIABLES: usize = 20;

/// One possible world: a truth assignment together with its probability.
#[derive(Debug, Clone)]
pub struct World {
    /// Truth value of each variable appearing in the database.
    pub assignment: BTreeMap<Variable, bool>,
    /// Probability of this world.
    pub probability: f64,
}

impl World {
    /// Whether `var` is true in this world. Variables not mentioned in the
    /// database are treated as false.
    pub fn is_true(&self, var: Variable) -> bool {
        self.assignment.get(&var).copied().unwrap_or(false)
    }

    /// The deterministic instance of `table` in this world: the sub-table of
    /// tuples whose variable is assigned true.
    pub fn instantiate(&self, table: &ProbTable) -> Table {
        let mut out = Table::new(table.schema().clone());
        for i in 0..table.len() {
            let (row, var, _) = table.triple(i);
            if self.is_true(var) {
                // Rows validated on the way into the ProbTable cannot fail
                // re-validation against the same schema.
                out.insert(row.clone())
                    .expect("row previously validated against the same schema");
            }
        }
        out
    }
}

/// Collects the distinct variables and their probabilities across `tables`.
///
/// In a well-formed tuple-independent database every variable carries a single
/// probability; if a variable occurs twice the first probability wins (the
/// enumeration is still a valid distribution over the listed variables).
pub fn variable_probabilities(tables: &[&ProbTable]) -> BTreeMap<Variable, f64> {
    let mut out = BTreeMap::new();
    for t in tables {
        for i in 0..t.len() {
            let (_, var, p) = t.triple(i);
            out.entry(var).or_insert(p);
        }
    }
    out
}

/// Enumerates every possible world of the database formed by `tables`.
///
/// # Panics
/// If the database mentions more than [`MAX_WORLD_VARIABLES`] distinct
/// variables.
pub fn enumerate_worlds(tables: &[&ProbTable]) -> Vec<World> {
    let probs = variable_probabilities(tables);
    let vars: Vec<Variable> = probs.keys().copied().collect();
    let n = vars.len();
    assert!(
        n <= MAX_WORLD_VARIABLES,
        "possible-world enumeration over {n} variables exceeds the limit of {MAX_WORLD_VARIABLES}"
    );
    let mut worlds = Vec::with_capacity(1usize << n);
    for mask in 0u64..(1u64 << n) {
        let mut assignment = BTreeMap::new();
        let mut probability = 1.0;
        for (bit, var) in vars.iter().enumerate() {
            let truth = mask & (1 << bit) != 0;
            assignment.insert(*var, truth);
            let p = probs[var];
            probability *= if truth { p } else { 1.0 - p };
        }
        worlds.push(World {
            assignment,
            probability,
        });
    }
    worlds
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_storage::{tuple, DataType, Schema};

    fn cust() -> ProbTable {
        let schema =
            Schema::from_pairs(&[("ckey", DataType::Int), ("cname", DataType::Str)]).unwrap();
        let mut t = ProbTable::new(schema);
        t.insert(tuple![1i64, "Joe"], Variable(0), 0.1).unwrap();
        t.insert(tuple![2i64, "Dan"], Variable(1), 0.2).unwrap();
        t
    }

    #[test]
    fn world_count_is_two_to_the_variables() {
        let c = cust();
        let worlds = enumerate_worlds(&[&c]);
        assert_eq!(worlds.len(), 4);
    }

    #[test]
    fn world_probabilities_sum_to_one() {
        let c = cust();
        let total: f64 = enumerate_worlds(&[&c]).iter().map(|w| w.probability).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn marginal_of_a_tuple_matches_its_probability() {
        let c = cust();
        let worlds = enumerate_worlds(&[&c]);
        let marginal: f64 = worlds
            .iter()
            .filter(|w| w.is_true(Variable(0)))
            .map(|w| w.probability)
            .sum();
        assert!((marginal - 0.1).abs() < 1e-12);
    }

    #[test]
    fn instantiation_selects_true_tuples() {
        let c = cust();
        let worlds = enumerate_worlds(&[&c]);
        let w = worlds
            .iter()
            .find(|w| w.is_true(Variable(0)) && !w.is_true(Variable(1)))
            .unwrap();
        let inst = w.instantiate(&c);
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.rows()[0], tuple![1i64, "Joe"]);
    }

    #[test]
    fn too_many_variables_is_rejected() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let mut t = ProbTable::new(schema);
        for i in 0..(MAX_WORLD_VARIABLES as u64 + 1) {
            t.insert(tuple![i as i64], Variable(i), 0.5).unwrap();
        }
        let enumerate = std::panic::AssertUnwindSafe(|| enumerate_worlds(&[&t]));
        let panic = std::panic::catch_unwind(enumerate).expect_err("2^21 worlds are refused");
        let message = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(message.contains("exceeds the limit of 20"), "{message}");
    }

    #[test]
    fn unknown_variable_is_false() {
        let c = cust();
        let worlds = enumerate_worlds(&[&c]);
        assert!(!worlds[0].is_true(Variable(999)));
    }
}
