//! # pdb-lineage
//!
//! Boolean lineage of query answers over tuple-independent probabilistic
//! databases, and its read-once factorization.
//!
//! For conjunctive queries the lineage of an answer tuple is a DNF formula
//! over the input tuples' Boolean random variables (paper, Section I and
//! II.C): each clause is the conjunction of the variables of the input tuples
//! that were joined to produce one derivation of the answer tuple.
//!
//! The crate provides:
//!
//! * [`independent_or`] / [`independent_and`] — the linear-time probability
//!   combinators for one-occurrence-form (1OF) formulas that the paper's
//!   operator is built from.
//! * [`Clauses`] / [`Canonical`] — a monotone DNF as a flat clause set over
//!   dense variable ids, and the interned form the anytime loop keeps
//!   ([`sort_dedup`] makes one from a sequence of clauses).
//! * [`Canonical::factorize`] / [`ReadOnceTree`] — read-once factorization:
//!   the exact linear-time fallback for lineage of *unsafe* queries,
//!   returning the blocking clause set when no read-once form exists
//!   ([`Factorization`]), with its scratch kept in a [`FactorScratch`].
//!
//! The oracles these are tested against — DNF lineage with its Shannon
//! expansion, and possible-world semantics — live in the dev-only
//! `pdb-testkit`.

pub mod prob;
pub mod readonce;

pub use prob::{independent_and, independent_or};
pub use readonce::{sort_dedup, Canonical, Clauses, FactorScratch, Factorization, ReadOnceTree};
