//! Allocations of one refinement round of the anytime loop, counted with the
//! test kit's counting allocator.
//!
//! A frontier leaf is a flat interned clause set, and `factorize` recurses on
//! ranges of one permutation held in the bag's scratch, so splitting a leaf —
//! two cofactors, two factorizations, crude bounds — allocates by the step,
//! not by the clause nor by the ∨-component: three vectors per cofactor and
//! its flags per clause for a `true` one, two vectors for the stuck clause
//! set of a blocked cofactor, one for the ∨-children in front of it. An extra
//! round on every formula below takes **12** allocations, on one chain of
//! 2 000 clauses or 8 000, on 4 chains or 32. At the parent of that change
//! it took 496 and 679 on the one chain, 567 and 1 033 on the 4 and the 32
//! (a copy of every ∨-component, each grown by doubling); with a `Vec` per
//! clause in every leaf, 4 869 on the 2 000-clause chain.

use pdb_conf::{anytime_confidences_ctx, AnytimeConfig, ApproxPolicy, Pool};
use pdb_exec::annotated::{Annotated, AnnotatedRow};
use pdb_govern::ExecContext;
use pdb_storage::{tuple, DataType, Schema, Variable};
use pdb_testkit::alloc::{allocations, serial};

#[global_allocator]
static GLOBAL: pdb_testkit::alloc::Counting = pdb_testkit::alloc::Counting;

/// `chains` disjoint chains `x₀x₁ ∨ x₁x₂ ∨ …` of `clauses` clauses in all, as
/// the one bag of a Boolean answer. A chain is one ∨-component and one
/// co-component, so it is blocked — and so are the long pieces a split
/// leaves, which keep every leaf near `clauses` clauses and `chains`
/// ∨-components. Marginals are small, so that the clauses do not saturate
/// the bracket.
fn blocked_chains(chains: u64, clauses: u64) -> Annotated {
    let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
    let mut answer = Annotated::new(schema, vec!["R".into(), "S".into()]);
    let pair = |v: u64| (Variable(v), 0.01 + 0.01 * ((v * 7 % 11) as f64 / 11.0));
    let length = clauses / chains;
    for first in (0..chains).map(|c| c * (length + 1)) {
        for v in first..first + length {
            answer.push(AnnotatedRow::new(tuple![1i64], vec![pair(v), pair(v + 1)]));
        }
    }
    answer
}

/// Allocations per refinement round between the 8th and the 16th.
fn per_extra_round(answer: &Annotated) -> usize {
    let pool = Pool::new(1);
    let ctx = ExecContext::unbounded();
    let run = |rounds: usize| {
        let config = AnytimeConfig::new(ApproxPolicy::Bounds { eps: 0.0 })
            .with_seed(1)
            .with_max_rounds(rounds);
        let (got, made) = allocations(|| anytime_confidences_ctx(answer, &config, &pool, &ctx));
        assert_eq!(
            got.unwrap()[0].rounds,
            rounds,
            "the chains outlast {rounds} rounds"
        );
        made
    };
    (run(16) - run(8)) / 8
}

#[test]
fn an_extra_refinement_round_allocates_by_the_step_not_by_the_clause() {
    let _serial = serial();
    let small = per_extra_round(&blocked_chains(1, 2_000));
    let large = per_extra_round(&blocked_chains(1, 8_000));
    assert!(
        small <= 12,
        "{small} allocations per extra round on 2 000 clauses"
    );
    assert!(
        large <= small,
        "{large} allocations per extra round on 8 000 clauses, {small} on 2 000"
    );
}

#[test]
fn an_extra_refinement_round_allocates_nothing_per_or_component() {
    let _serial = serial();
    let (few, many) = (blocked_chains(4, 2_048), blocked_chains(32, 2_048));
    let (few, many) = (per_extra_round(&few), per_extra_round(&many));
    // Eight times the ∨-components of every leaf: the ones behind the first
    // blocked one are never read, the ones in front are one vector.
    assert!(
        many <= few,
        "{many} allocations per extra round on 32 chains, {few} on 4"
    );
}
