//! # pdb-lineage
//!
//! Boolean lineage of query answers over tuple-independent probabilistic
//! databases, and *ground-truth* probability computation.
//!
//! For conjunctive queries the lineage of an answer tuple is a DNF formula
//! over the input tuples' Boolean random variables (paper, Section I and
//! II.C): each clause is the conjunction of the variables of the input tuples
//! that were joined to produce one derivation of the answer tuple.
//!
//! The crate provides:
//!
//! * [`Clause`] and [`Dnf`] — relational DNF lineage.
//! * [`exact_probability`] — exact `Pr[φ]` by Shannon expansion over the
//!   formula's variables, exponential in the worst case and intended as the
//!   oracle that the efficient operators of `pdb-conf` are tested against.
//! * [`independent_or`] / [`independent_and`] — the linear-time probability
//!   combinators for one-occurrence-form (1OF) formulas that the paper's
//!   operator is built from.
//! * [`factorize`] / [`ReadOnceTree`] — read-once factorization of monotone
//!   DNF: the exact linear-time fallback for lineage of *unsafe* queries,
//!   returning the blocking sub-formula when no read-once form exists;
//!   [`Canonical`] is the interned form it works on and the anytime loop keeps.

pub mod dnf;
pub mod prob;
pub mod readonce;

pub use dnf::{Clause, Dnf};
pub use prob::{exact_probability, independent_and, independent_or};
pub use readonce::{
    factorize, intern, sort_dedup, Canonical, Clauses, FactorScratch, Factorization, ReadOnceTree,
};
