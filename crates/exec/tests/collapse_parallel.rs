//! Property tests for the chunked parallel collapse scans of
//! [`ops::distinct`] / [`ops::sort_dedup`] (PR 5).
//!
//! PR 4 left both collapse scans sequential; they now run as chunked
//! boundary detection over the sort-key words with stitched chunk edges.
//! The contract these tests pin: the output is **bitwise-identical** —
//! values, lineage, row order — at every thread count, and identical to a
//! sequential reference collapse that replays the pre-PR-5 last-survivor
//! loop literally.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pdb_exec::annotated::{Annotated, AnnotatedRow};
use pdb_exec::ops;
use pdb_par::Pool;
use pdb_storage::{DataType, Schema, Tuple, Value, Variable};

/// Expands a seed into an annotated relation with heavy duplication: few
/// distinct data values, duplicated lineage variables (exact duplicates
/// included), NULLs, strings, and cross-type numeric equals.
fn expand(seed: u64, rows: usize, distinct_vals: u64) -> Annotated {
    let mut rng = SmallRng::seed_from_u64(seed);
    let schema = Schema::from_pairs(&[("a", DataType::Int), ("s", DataType::Str)]).unwrap();
    let mut t = Annotated::new(schema, vec!["R".into(), "S".into()]);
    let strings = ["", "x", "yy", "zzz"];
    for _ in 0..rows {
        let a = match rng.gen_range(0..6u32) {
            0 => Value::Null,
            1 => Value::Float(rng.gen_range(0..distinct_vals) as f64),
            _ => Value::Int(rng.gen_range(0..distinct_vals) as i64),
        };
        let s = if rng.gen_range(0..5u32) == 0 {
            Value::Null
        } else {
            Value::str(strings[rng.gen_range(0..strings.len())])
        };
        // Few distinct variables so exact lineage duplicates occur.
        let v1 = Variable(rng.gen_range(0..7u64));
        let v2 = Variable(100 + rng.gen_range(0..5u64));
        t.push(AnnotatedRow::new(
            Tuple::new(vec![a, s]),
            vec![(v1, 0.5), (v2, 0.25)],
        ));
    }
    t
}

/// The pre-PR-5 sequential `distinct`: sorted permutation, previous-row
/// duplicate test, `push_row` emit.
fn distinct_reference(input: &Annotated) -> Annotated {
    let all_cols: Vec<usize> = (0..input.data_width()).collect();
    let keys = input.sort_keys_with(&all_cols, &[], &Pool::sequential());
    let order = keys.sorted_permutation_with(input.len(), &Pool::sequential());
    let mut out = Annotated::new(input.schema().clone(), input.relations().to_vec());
    let mut prev: Option<u32> = None;
    for &i in &order {
        let duplicate = prev.is_some_and(|p| keys.row(p as usize) == keys.row(i as usize));
        if !duplicate {
            let row = input.row(i as usize);
            out.push_row(row.data, row.lineage);
        }
        prev = Some(i);
    }
    out
}

/// The pre-PR-5 sequential `sort_dedup`: the **last-survivor** duplicate
/// test, replayed literally (the chunked collapse compares against the
/// immediately preceding row instead; these tests are the proof they
/// agree).
fn sort_dedup_reference(
    input: &Annotated,
    data_columns: &[String],
    relation_order: &[String],
) -> Annotated {
    let col_idx: Vec<usize> = data_columns
        .iter()
        .map(|c| input.column_index(c).unwrap())
        .collect();
    let rel_idx: Vec<usize> = relation_order
        .iter()
        .map(|r| input.relation_index(r).unwrap())
        .collect();
    let keys = input.sort_keys_with(&col_idx, &rel_idx, &Pool::sequential());
    let order = keys.sorted_permutation_with(input.len(), &Pool::sequential());
    let mut out = Annotated::new(input.schema().clone(), input.relations().to_vec());
    let mut prev: Option<u32> = None;
    for &i in &order {
        let row = input.row(i as usize);
        let duplicate = prev.is_some_and(|p| {
            keys.row(p as usize) == keys.row(i as usize) && {
                let prow = input.row(p as usize);
                prow.data == row.data
                    && prow
                        .lineage
                        .iter()
                        .zip(row.lineage.iter())
                        .all(|(a, b)| a.0 == b.0)
            }
        });
        if !duplicate {
            out.push_row(row.data, row.lineage);
            prev = Some(i);
        }
    }
    out
}

fn names(ns: &[&str]) -> Vec<String> {
    ns.iter().map(|s| s.to_string()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn distinct_is_bitwise_identical_across_thread_counts(
        seed in 1u64..u64::MAX / 2,
        rows in 0usize..1500,
        distinct_vals in 1u64..40,
    ) {
        let input = expand(seed, rows, distinct_vals);
        let want = distinct_reference(&input);
        for threads in [1usize, 2, 4, 8] {
            let got = ops::distinct_with(&input, &Pool::new(threads));
            prop_assert_eq!(&got, &want, "{} threads", threads);
        }
    }

    #[test]
    fn sort_dedup_is_bitwise_identical_across_thread_counts(
        seed in 1u64..u64::MAX / 2,
        rows in 0usize..1500,
        distinct_vals in 1u64..20,
        sort_on_both in proptest::bool::ANY,
    ) {
        let input = expand(seed, rows, distinct_vals);
        // Sorting on a strict subset of the data columns exercises the
        // key-equal-but-data-unequal case the full-row confirmation guards.
        let cols = if sort_on_both { names(&["a", "s"]) } else { names(&["a"]) };
        let rels = names(&["R", "S"]);
        let want = sort_dedup_reference(&input, &cols, &rels);
        for threads in [1usize, 2, 4, 8] {
            let got = ops::sort_dedup_with(&input, &cols, &rels, &Pool::new(threads))
                .expect("sort_dedup");
            prop_assert_eq!(&got, &want, "{} threads", threads);
        }
    }
}

#[test]
fn collapse_handles_degenerate_shapes() {
    let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
    // Empty input.
    let empty = Annotated::new(schema.clone(), vec!["R".into()]);
    for threads in [1, 4, 8] {
        assert!(ops::distinct_with(&empty, &Pool::new(threads)).is_empty());
        assert!(
            ops::sort_dedup_with(&empty, &names(&["a"]), &names(&["R"]), &Pool::new(threads))
                .unwrap()
                .is_empty()
        );
    }
    // One row; and one giant all-duplicates run split across many chunks.
    let mut one = Annotated::new(schema.clone(), vec!["R".into()]);
    one.push(AnnotatedRow::new(
        Tuple::new(vec![Value::Int(7)]),
        vec![(Variable(1), 0.5)],
    ));
    assert_eq!(ops::distinct_with(&one, &Pool::new(8)).len(), 1);
    let mut dup = Annotated::new(schema, vec!["R".into()]);
    for _ in 0..1000 {
        dup.push(AnnotatedRow::new(
            Tuple::new(vec![Value::Int(7)]),
            vec![(Variable(1), 0.5)],
        ));
    }
    for threads in [1, 2, 8] {
        assert_eq!(ops::distinct_with(&dup, &Pool::new(threads)).len(), 1);
        assert_eq!(
            ops::sort_dedup_with(&dup, &names(&["a"]), &names(&["R"]), &Pool::new(threads))
                .unwrap()
                .len(),
            1
        );
    }
}
