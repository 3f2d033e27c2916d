//! Allocations of the one-scan operator on a single-relation answer,
//! counted with the test kit's counting allocator.
//!
//! An answer whose 1scanTree is one leaf (signature `R*`) and whose bags'
//! variables ascend is folded in arrival order into a table of its bags,
//! and only the bags' first rows are sorted: the operator allocates by the
//! bag, not by the row. The counters are process-wide and the test harness
//! allocates when a test ends or the next one starts, so this binary holds
//! one test, which nothing runs beside.

use pdb_conf::one_scan::one_scan_confidences_ctx;
use pdb_conf::{ConfError, Pool, SplitPolicy};
use pdb_exec::annotated::{Annotated, AnnotatedRow};
use pdb_govern::{ExecContext, GovernorBuilder, SproutError, Stage};
use pdb_query::Signature;
use pdb_storage::{tuple, DataType, Schema, Variable};
use pdb_testkit::alloc::{allocations, allocations_of_at_least, serial};

#[global_allocator]
static GLOBAL: pdb_testkit::alloc::Counting = pdb_testkit::alloc::Counting;

/// `rows` rows of relation `R` over three string keys, interleaved, with
/// the variables ascending: the shape of a scan's answer to a low-distinct
/// projection.
fn three_keys(rows: u64) -> Annotated {
    let schema = Schema::from_pairs(&[("flag", DataType::Str)]).unwrap();
    let mut answer = Annotated::new(schema, vec!["R".into()]);
    for v in 0..rows {
        let key = ["A", "N", "R"][(v * 7 % 3) as usize];
        let p = 0.01 + 0.9 * ((v % 13) as f64 / 13.0);
        answer.push(AnnotatedRow::new(tuple![key], vec![(Variable(v + 1), p)]));
    }
    answer
}

#[test]
fn a_single_relation_one_scan_allocates_by_the_bag_and_charges_before_it_allocates() {
    let _serial = serial();
    let sig = Signature::star(Signature::table("R"));
    let (small, large) = (three_keys(70_000), three_keys(280_000));

    // The same allocations at 70 000 and 280 000 rows, none of them of 4
    // bytes a row or more, on one worker and on four.
    let ctx = ExecContext::unbounded();
    for threads in [1, 4] {
        let pool = Pool::new(threads);
        let counts: Vec<usize> = [&small, &large]
            .into_iter()
            .map(|answer| {
                let run =
                    || one_scan_confidences_ctx(answer, &sig, &pool, SplitPolicy::default(), &ctx);
                let (got, made) = allocations(run);
                assert_eq!(got.unwrap().len(), 3);
                let per_row = 4 * answer.len();
                let (_, big) = allocations_of_at_least(per_row, run);
                assert_eq!(
                    big,
                    0,
                    "{} rows, {threads} threads: a block of {per_row} bytes or more",
                    answer.len()
                );
                made
            })
            .collect();
        assert_eq!(
            counts[0], counts[1],
            "{threads} threads: allocations at 70 000 and 280 000 rows"
        );
    }

    // Over its budget, the pass fails under `Stage::Confidence` before its
    // bag table — whose smallest block is a 64-byte slot array — exists.
    let governor = GovernorBuilder::new().memory_budget(16).build();
    let ctx = ExecContext::governed(&governor);
    let (got, big) = allocations_of_at_least(64, || {
        one_scan_confidences_ctx(&small, &sig, &Pool::new(1), SplitPolicy::default(), &ctx)
    });
    match got {
        Err(ConfError::Governed(SproutError::MemoryBudgetExceeded { stage, .. })) => {
            assert_eq!(stage, Stage::Confidence)
        }
        other => panic!("a 16-byte budget: {other:?}"),
    }
    assert_eq!(
        big, 0,
        "a block of 64 bytes or more before the charge failed"
    );
}
