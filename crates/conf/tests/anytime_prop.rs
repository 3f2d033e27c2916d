//! Property tests for the anytime dissociation evaluator.
//!
//! For random per-tuple DNFs the `[lo, hi]` brackets must (a) always contain
//! the brute-force possible-worlds probability, (b) tighten monotonically as
//! the refinement budget grows, and (c) be bitwise-identical at every pool
//! size for a fixed seed — the same determinism contract as every other
//! evaluator in the engine.

use std::collections::BTreeMap;

use proptest::prelude::*;

use pdb_conf::{anytime_confidences_ctx, AnytimeConfig, ApproxPolicy, Pool};
use pdb_exec::annotated::{Annotated, AnnotatedRow};
use pdb_govern::ExecContext;
use pdb_storage::{tuple, DataType, Schema, Variable};
use pdb_testkit::brute_force_confidences;

fn probs_for(clauses: &[Vec<u64>]) -> BTreeMap<Variable, f64> {
    clauses
        .iter()
        .flatten()
        .map(|v| (Variable(*v), 0.1 + 0.8 * ((v * 7 % 11) as f64 / 11.0)))
        .collect()
}

/// One bag of answer rows whose clauses form the given DNF (same layout the
/// join pipeline produces: one row per clause, fixed lineage width).
fn answer_for(clauses: &[Vec<u64>], probs: &BTreeMap<Variable, f64>) -> Annotated {
    let width = clauses.iter().map(|c| c.len()).max().unwrap();
    let relations: Vec<String> = (0..width).map(|i| format!("R{i}")).collect();
    let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
    let mut t = Annotated::new(schema, relations);
    for clause in clauses {
        // Pad by repeating the last variable: a clause is a set.
        let mut lineage: Vec<(Variable, f64)> = clause
            .iter()
            .map(|v| (Variable(*v), probs[&Variable(*v)]))
            .collect();
        while lineage.len() < width {
            lineage.push(*lineage.last().unwrap());
        }
        t.push(AnnotatedRow::new(tuple![1i64], lineage));
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Brackets contain the oracle at every refinement budget, and widths
    /// shrink monotonically as the budget grows.
    #[test]
    fn bounds_bracket_the_oracle_and_tighten_monotonically(
        clauses in proptest::collection::vec(
            proptest::collection::vec(0u64..10, 1..4), 1..7),
        seed in 0u64..1_000,
    ) {
        let probs = probs_for(&clauses);
        let answer = answer_for(&clauses, &probs);
        let want = brute_force_confidences(&answer)[0].1;
        let pool = Pool::new(2);
        let ctx = ExecContext::unbounded();
        let mut last_width = f64::INFINITY;
        for rounds in [0usize, 1, 2, 4, 8, 32] {
            let config = AnytimeConfig::new(ApproxPolicy::Bounds { eps: 0.0 })
                .with_seed(seed)
                .with_max_rounds(rounds);
            let got = anytime_confidences_ctx(&answer, &config, &pool, &ctx).unwrap();
            prop_assert_eq!(got.len(), 1);
            let b = &got[0];
            prop_assert!(b.lo <= b.hi, "inverted bracket [{}, {}]", b.lo, b.hi);
            prop_assert!(
                b.lo <= want + 1e-9 && want <= b.hi + 1e-9,
                "rounds {}: [{}, {}] must bracket {}", rounds, b.lo, b.hi, want
            );
            let width = b.width();
            prop_assert!(
                width <= last_width + 1e-12,
                "rounds {}: width {} grew past {}", rounds, width, last_width
            );
            last_width = width;
        }
    }

    /// Fixed seed ⇒ bitwise-identical brackets at 1/2/4/8 workers, for
    /// multi-bag answers too.
    #[test]
    fn brackets_are_bitwise_deterministic_across_pool_sizes(
        bag_a in proptest::collection::vec(
            proptest::collection::vec(0u64..10, 1..4), 1..5),
        bag_b in proptest::collection::vec(
            proptest::collection::vec(10u64..20, 1..4), 1..5),
        seed in 0u64..1_000,
    ) {
        let all: Vec<Vec<u64>> = bag_a.iter().chain(bag_b.iter()).cloned().collect();
        let probs = probs_for(&all);
        let width = all.iter().map(|c| c.len()).max().unwrap();
        let relations: Vec<String> = (0..width).map(|i| format!("R{i}")).collect();
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let mut answer = Annotated::new(schema, relations);
        for (tag, clauses) in [(1i64, &bag_a), (2i64, &bag_b)] {
            for clause in clauses {
                let mut lineage: Vec<(Variable, f64)> = clause
                    .iter()
                    .map(|v| (Variable(*v), probs[&Variable(*v)]))
                    .collect();
                while lineage.len() < width {
                    lineage.push(*lineage.last().unwrap());
                }
                answer.push(AnnotatedRow::new(tuple![tag], lineage));
            }
        }
        let config = AnytimeConfig::new(ApproxPolicy::Bounds { eps: 1e-3 }).with_seed(seed);
        let ctx = ExecContext::unbounded();
        let reference =
            anytime_confidences_ctx(&answer, &config, &Pool::sequential(), &ctx).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let got =
                anytime_confidences_ctx(&answer, &config, &Pool::new(threads), &ctx).unwrap();
            prop_assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(reference.iter()) {
                prop_assert_eq!(&g.tuple, &r.tuple);
                prop_assert_eq!(g.lo.to_bits(), r.lo.to_bits(), "{} threads", threads);
                prop_assert_eq!(g.hi.to_bits(), r.hi.to_bits(), "{} threads", threads);
                prop_assert_eq!(g.rounds, r.rounds);
            }
        }
    }
}
