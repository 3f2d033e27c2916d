//! DNF lineage formulas over Boolean random variables.
//!
//! A [`Clause`] keeps its variables sorted and deduplicated; a [`Dnf`] keeps
//! its clauses in insertion order, each the first occurrence of its content.
//! That order is what the engine's interned clause sets are read back to.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use pdb_storage::Variable;

/// A conjunction of (positive) variables — one derivation of an answer tuple.
///
/// Lineage of conjunctive queries is monotone: clauses only contain positive
/// literals. Variables are kept sorted and deduplicated, so `x ∧ x`
/// collapses to `x`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Clause {
    vars: Vec<Variable>,
}

impl Clause {
    /// A clause over the given variables.
    pub fn new(vars: impl IntoIterator<Item = Variable>) -> Self {
        let mut vars: Vec<Variable> = vars.into_iter().collect();
        vars.sort_unstable();
        vars.dedup();
        Clause { vars }
    }

    /// The empty clause, which is identically true.
    pub fn empty() -> Self {
        Clause::default()
    }

    /// The variables of the clause, sorted ascending.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the clause is the (true) empty clause.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Whether the clause mentions `var`.
    pub fn contains(&self, var: Variable) -> bool {
        self.vars.binary_search(&var).is_ok()
    }

    /// Evaluates the clause under a truth assignment (missing variables are
    /// false).
    pub fn eval(&self, assignment: &BTreeMap<Variable, bool>) -> bool {
        self.vars
            .iter()
            .all(|v| assignment.get(v).copied().unwrap_or(false))
    }

    /// The conjunction of two clauses (merge of two sorted runs).
    pub fn and(&self, other: &Clause) -> Clause {
        let mut vars = Vec::with_capacity(self.vars.len() + other.vars.len());
        let (mut i, mut j) = (0, 0);
        while i < self.vars.len() && j < other.vars.len() {
            use std::cmp::Ordering::*;
            match self.vars[i].cmp(&other.vars[j]) {
                Less => {
                    vars.push(self.vars[i]);
                    i += 1;
                }
                Greater => {
                    vars.push(other.vars[j]);
                    j += 1;
                }
                Equal => {
                    vars.push(self.vars[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        vars.extend_from_slice(&self.vars[i..]);
        vars.extend_from_slice(&other.vars[j..]);
        Clause { vars }
    }

    /// The clause restricted by setting `var` to `value`: returns `None` if
    /// the clause becomes false (impossible for monotone clauses — setting a
    /// variable false removes clauses containing it), otherwise the clause
    /// with the variable removed. Clauses not mentioning `var` are returned
    /// unchanged (one flat copy, no per-element rebuilding).
    pub fn assign(&self, var: Variable, value: bool) -> Option<Clause> {
        let Ok(pos) = self.vars.binary_search(&var) else {
            return Some(self.clone());
        };
        if value {
            let mut vars = Vec::with_capacity(self.vars.len() - 1);
            vars.extend_from_slice(&self.vars[..pos]);
            vars.extend_from_slice(&self.vars[pos + 1..]);
            Some(Clause { vars })
        } else {
            None
        }
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.vars.is_empty() {
            return write!(f, "⊤");
        }
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, "∧")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// A DNF formula: a disjunction of clauses. The empty DNF is false.
///
/// Clauses are kept in insertion order (observable through [`Dnf::clauses`]),
/// each the first occurrence of its content.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dnf {
    clauses: Vec<Clause>,
}

impl Dnf {
    /// The false formula (no clauses).
    pub fn empty() -> Self {
        Dnf::default()
    }

    /// A formula from the given clauses: of equal clauses the first stays,
    /// so insertion order is what [`Dnf::add_clause`] one by one would leave.
    pub fn new(clauses: impl IntoIterator<Item = Clause>) -> Self {
        let mut seen = BTreeSet::new();
        let clauses = clauses.into_iter().filter(|c| seen.insert(c.clone()));
        Dnf {
            clauses: clauses.collect(),
        }
    }

    /// A single-variable formula.
    pub fn var(v: Variable) -> Self {
        Dnf::new([Clause::new([v])])
    }

    /// Adds a clause unless it is already present.
    pub fn add_clause(&mut self, clause: Clause) {
        if !self.clauses.contains(&clause) {
            self.clauses.push(clause);
        }
    }

    /// The clauses of the formula, in insertion order.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the formula has no clauses (alias of [`Dnf::is_false`]).
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Whether the formula is false (no clauses).
    pub fn is_false(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Whether the formula is identically true (contains the empty clause).
    pub fn is_true(&self) -> bool {
        self.clauses.iter().any(Clause::is_empty)
    }

    /// All variables mentioned.
    pub fn variables(&self) -> BTreeSet<Variable> {
        self.clauses
            .iter()
            .flat_map(|c| c.vars().iter().copied())
            .collect()
    }

    /// Evaluates the formula under a truth assignment.
    pub fn eval(&self, assignment: &BTreeMap<Variable, bool>) -> bool {
        self.clauses.iter().any(|c| c.eval(assignment))
    }

    /// Disjunction of two formulas.
    pub fn or(&self, other: &Dnf) -> Dnf {
        Dnf::new(self.clauses.iter().chain(&other.clauses).cloned())
    }

    /// Conjunction of two formulas (clause-wise distribution).
    pub fn and(&self, other: &Dnf) -> Dnf {
        let product = self
            .clauses
            .iter()
            .map(|a| other.clauses.iter().map(|b| a.and(b)));
        Dnf::new(product.flatten())
    }

    /// The formula restricted by setting `var` to `value` (Shannon cofactor):
    /// `false` drops the clauses that mention `var`, `true` drops `var` from
    /// them, and of clauses that have become equal the first stays.
    pub fn assign(&self, var: Variable, value: bool) -> Dnf {
        Dnf::new(self.clauses.iter().filter_map(|c| c.assign(var, value)))
    }
}

impl FromIterator<Clause> for Dnf {
    /// [`Dnf::new`].
    fn from_iter<I: IntoIterator<Item = Clause>>(clauses: I) -> Self {
        Dnf::new(clauses)
    }
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clauses.is_empty() {
            return write!(f, "⊥");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u64) -> Variable {
        Variable(i)
    }

    #[test]
    fn clause_dedups_variables() {
        let c = Clause::new([v(1), v(1), v(2)]);
        assert_eq!(c.len(), 2);
        assert!(c.contains(v(1)));
        assert!(!c.contains(v(3)));
    }

    #[test]
    fn clause_vars_are_sorted_regardless_of_insertion_order() {
        let c = Clause::new([v(5), v(1), v(3)]);
        assert_eq!(c.vars(), &[v(1), v(3), v(5)]);
        assert_eq!(c, Clause::new([v(3), v(5), v(1)]));
    }

    #[test]
    fn clause_eval() {
        let c = Clause::new([v(1), v(2)]);
        let mut a = BTreeMap::new();
        a.insert(v(1), true);
        assert!(!c.eval(&a));
        a.insert(v(2), true);
        assert!(c.eval(&a));
        assert!(Clause::empty().eval(&a));
    }

    #[test]
    fn clause_assignment_cofactors() {
        let c = Clause::new([v(1), v(2)]);
        assert_eq!(c.assign(v(1), true).unwrap(), Clause::new([v(2)]));
        assert!(c.assign(v(1), false).is_none());
        assert_eq!(c.assign(v(9), false).unwrap(), c);
    }

    #[test]
    fn clause_and_merges_sorted_runs() {
        let a = Clause::new([v(1), v(3)]);
        let b = Clause::new([v(2), v(3), v(4)]);
        assert_eq!(a.and(&b), Clause::new([v(1), v(2), v(3), v(4)]));
        assert_eq!(Clause::empty().and(&a), a);
    }

    #[test]
    fn dnf_construction_and_dedup() {
        // The intro example lineage x1y1z1 ∨ x1y1z2.
        let d = Dnf::new([
            Clause::new([v(1), v(10), v(100)]),
            Clause::new([v(1), v(10), v(101)]),
            Clause::new([v(1), v(10), v(100)]),
        ]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.variables().len(), 4);
        assert!(!d.is_false());
        assert!(!d.is_true());
    }

    #[test]
    fn dnf_eval_matches_clause_semantics() {
        let d = Dnf::new([Clause::new([v(1), v(2)]), Clause::new([v(3)])]);
        let mut a = BTreeMap::new();
        a.insert(v(3), true);
        assert!(d.eval(&a));
        a.insert(v(3), false);
        assert!(!d.eval(&a));
    }

    #[test]
    fn or_and_combinators() {
        let x = Dnf::var(v(1));
        let y = Dnf::var(v(2));
        let both = x.and(&y);
        assert_eq!(both.clauses(), &[Clause::new([v(1), v(2)])]);
        let either = x.or(&y);
        assert_eq!(either.len(), 2);
        // AND with false is false; OR with false is identity.
        assert!(x.and(&Dnf::empty()).is_false());
        assert_eq!(x.or(&Dnf::empty()), x);
    }

    #[test]
    fn or_deduplicates_across_operands() {
        let a = Dnf::new([Clause::new([v(1)]), Clause::new([v(2)])]);
        let b = Dnf::new([Clause::new([v(2)]), Clause::new([v(3)])]);
        let union = a.or(&b);
        assert_eq!(union.len(), 3);
    }

    #[test]
    fn shannon_cofactor() {
        let d = Dnf::new([Clause::new([v(1), v(2)]), Clause::new([v(3)])]);
        let d_true = d.assign(v(1), true);
        assert_eq!(
            d_true.clauses(),
            &[Clause::new([v(2)]), Clause::new([v(3)])]
        );
        let d_false = d.assign(v(1), false);
        assert_eq!(d_false.clauses(), &[Clause::new([v(3)])]);
    }

    /// Pseudo-random small clause lists with plenty of repeats.
    fn clause_lists() -> impl Iterator<Item = Vec<Clause>> {
        (0..200u64).map(|seed| {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            (0..next() % 12)
                .map(|_| Clause::new((0..next() % 4).map(|_| v(next() % 5)).collect::<Vec<_>>()))
                .collect()
        })
    }

    /// What `Dnf::new` and `Dnf::assign` must leave: `add_clause` one by one.
    fn one_by_one(clauses: impl IntoIterator<Item = Clause>) -> Dnf {
        let mut d = Dnf::empty();
        clauses.into_iter().for_each(|c| d.add_clause(c));
        d
    }

    #[test]
    fn bulk_construction_is_add_clause_one_by_one() {
        for clauses in clause_lists() {
            let bulk = Dnf::new(clauses.clone());
            let reference = one_by_one(clauses);
            assert_eq!(
                bulk.clauses, reference.clauses,
                "first of equal clauses stays"
            );
        }
    }

    #[test]
    fn cofactors_are_add_clause_one_by_one() {
        for clauses in clause_lists() {
            let d = Dnf::new(clauses);
            for var in (0..5).map(v) {
                for value in [true, false] {
                    let got = d.assign(var, value);
                    let restricted = d.clauses.iter().filter_map(|c| c.assign(var, value));
                    let want = one_by_one(restricted);
                    assert_eq!(got.clauses, want.clauses, "{d} | {var}={value}");
                }
            }
        }
    }

    #[test]
    fn tautology_detection() {
        let mut d = Dnf::new([Clause::new([v(1)])]);
        assert!(!d.is_true());
        d.add_clause(Clause::empty());
        assert!(d.is_true());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Dnf::empty().to_string(), "⊥");
        assert_eq!(Clause::empty().to_string(), "⊤");
        let d = Dnf::new([Clause::new([v(1), v(2)])]);
        assert_eq!(d.to_string(), "x1∧x2");
    }
}
