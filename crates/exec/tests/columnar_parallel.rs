//! Property tests for the columnar fast path (PR 5): the vectorized fused
//! scan over a [`ColumnarTable`] — zone-map chunk skipping plus typed
//! per-column predicate loops — must produce output **bitwise-identical**
//! to the row-at-a-time scan over the equivalent [`ProbTable`]: same
//! values (enum variants included), same lineage, same row order, across
//! pools {1, 2, 4, 8}.
//!
//! The generated tables deliberately cover the layouts that stress the
//! chunk machinery: all-NULL columns, single-chunk tables, many-chunk
//! tables, NaN/-0.0 floats, cross-type numeric equals (`Int(2)` stored in
//! a FLOAT column → Mixed fallback), and predicates whose constants sit
//! below / inside / above the value domain so that zone maps skip every
//! chunk, some chunks, or none.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pdb_exec::columnar::{
    scan_columnar_ctx, scan_filter_project_columnar_ctx, scan_filter_project_columnar_ranked_ctx,
};
use pdb_exec::{ops, ExecContext};
use pdb_par::Pool;
use pdb_query::{CompareOp, Predicate};
use pdb_storage::{ColumnarTable, DataType, ProbTable, Schema, Tuple, Value, Variable};

const POOLS: [usize; 4] = [1, 2, 4, 8];

/// Every scan here runs ungoverned: the subjects are backing and pool size.
const CTX: ExecContext = ExecContext::unbounded();

/// Expands a seed into a row table whose columns cover every storage shape:
/// `k` clustered ints (zone-map friendly), `s` dictionary strings with
/// NULLs, `f` floats with NULLs / NaNs / -0.0 (and, when `mixed`, stray
/// `Value::Int`s forcing the Mixed fallback), `n` all-NULL.
fn expand(seed: u64, rows: usize, mixed: bool) -> ProbTable {
    let mut rng = SmallRng::seed_from_u64(seed);
    let schema = Schema::from_pairs(&[
        ("k", DataType::Int),
        ("s", DataType::Str),
        ("f", DataType::Float),
        ("n", DataType::Str),
    ])
    .unwrap();
    let strings = ["", "Joe", "Li", "Mo", "Zed"];
    let mut t = ProbTable::new(schema);
    for r in 0..rows {
        // Clustered: ascending with jitter, so chunks have tight ranges.
        let k = Value::Int(r as i64 / 3 + rng.gen_range(0..4i64));
        let s = if rng.gen_range(0..4u32) == 0 {
            Value::Null
        } else {
            Value::str(strings[rng.gen_range(0..strings.len())])
        };
        let f = match rng.gen_range(0..8u32) {
            0 => Value::Null,
            1 => Value::Float(f64::NAN),
            2 => Value::Float(-0.0),
            3 if mixed => Value::Int(rng.gen_range(-3..3i64)),
            _ => Value::Float(rng.gen_range(-30..30i64) as f64 / 4.0),
        };
        t.insert(
            Tuple::new(vec![k, s, f, Value::Null]),
            Variable(r as u64),
            0.05 + (r % 19) as f64 / 20.0,
        )
        .unwrap();
    }
    t
}

fn names(ns: &[&str]) -> Vec<String> {
    ns.iter().map(|s| s.to_string()).collect()
}

fn compare_op(i: u32) -> CompareOp {
    [
        CompareOp::Eq,
        CompareOp::Ne,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
    ][i as usize % 6]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn columnar_scan_filter_project_is_bitwise_identical_to_the_row_path(
        seed in 1u64..u64::MAX / 2,
        rows in 0usize..900,
        chunk_pow in 0u32..4, // chunk sizes 64..512: single- and many-chunk
        op_k in 0u32..6,
        op_f in 0u32..6,
        // Constants below / inside / above the k domain: zone maps skip
        // every chunk, some chunks, or none.
        k_const in -400i64..700,
        f_const in -40i64..40,
        mixed in proptest::bool::ANY,
    ) {
        let chunk_rows = 64usize << chunk_pow;
        let row = expand(seed, rows, mixed);
        let col = ColumnarTable::from_prob_table_chunked(
            &row,
            &Pool::new(4),
            chunk_rows,
        ).unwrap();

        let p_k = Predicate::new("R", "k", compare_op(op_k), k_const);
        let p_f = Predicate::new("R", "f", compare_op(op_f), f_const as f64 / 4.0);
        let preds = [&p_k, &p_f];
        let keep = names(&["f", "k", "s"]);
        let want = ops::scan_filter_project(&row, "R", &preds, &keep).unwrap();
        for threads in POOLS {
            let got = scan_filter_project_columnar_ctx(
                &col, "R", &preds, &keep, &Pool::new(threads), &CTX,
            ).unwrap();
            prop_assert_eq!(&got, &want, "{} threads", threads);
        }

        // The plain scan (no predicates, full decode) agrees too.
        let want_scan = ops::scan(&row, "R", &names(&["k", "s", "f", "n"])).unwrap();
        for threads in POOLS {
            let got = scan_columnar_ctx(
                &col, "R", &names(&["k", "s", "f", "n"]), &Pool::new(threads), &CTX,
            ).unwrap();
            prop_assert_eq!(&got, &want_scan, "scan at {} threads", threads);
        }
    }

    #[test]
    fn all_null_columns_and_string_predicates_agree(
        seed in 1u64..u64::MAX / 2,
        rows in 1usize..400,
        op_n in 0u32..6,
        op_s in 0u32..6,
        s_const in 0usize..7,
    ) {
        let row = expand(seed, rows, false);
        let col = ColumnarTable::from_prob_table_chunked(&row, &Pool::new(2), 64).unwrap();
        // Predicates on the all-NULL column select nothing on both paths;
        // string constants present in / absent from the dictionary.
        let consts = ["", "Joe", "Li", "Mo", "Zed", "Aaa", "zz"];
        let p_n = Predicate::new("R", "n", compare_op(op_n), "x");
        let p_s = Predicate::new("R", "s", compare_op(op_s), consts[s_const]);
        for preds in [vec![&p_n], vec![&p_s], vec![&p_n, &p_s]] {
            let want = ops::scan_filter_project(&row, "R", &preds, &names(&["s", "k"])).unwrap();
            for threads in POOLS {
                let got = scan_filter_project_columnar_ctx(
                    &col, "R", &preds, &names(&["s", "k"]), &Pool::new(threads), &CTX,
                ).unwrap();
                prop_assert_eq!(&got, &want, "{} threads", threads);
            }
        }
    }
}

#[test]
fn skip_extremes_are_exercised_and_identical() {
    let row = expand(7, 640, false);
    let col = ColumnarTable::from_prob_table_chunked(&row, &Pool::new(4), 64).unwrap();
    // Every k is in [0, 640/3 + 3]: a constant above the domain skips every
    // chunk, one below skips none.
    let skip_all = Predicate::new("R", "k", CompareOp::Gt, 100_000i64);
    let skip_none = Predicate::new("R", "k", CompareOp::Ge, -100_000i64);
    let preds_all = [&skip_all];
    let keep = names(&["k"]);
    let (out, _, stats) = scan_filter_project_columnar_ranked_ctx(
        &col,
        "R",
        &preds_all,
        &keep,
        &[false],
        &Pool::new(4),
        &CTX,
    )
    .unwrap();
    assert_eq!(stats.chunks_skipped, stats.chunks);
    assert!(out.is_empty());
    assert_eq!(
        out,
        ops::scan_filter_project(&row, "R", &preds_all, &names(&["k"])).unwrap()
    );

    let preds_none = [&skip_none];
    let (out, _, stats) = scan_filter_project_columnar_ranked_ctx(
        &col,
        "R",
        &preds_none,
        &keep,
        &[false],
        &Pool::new(4),
        &CTX,
    )
    .unwrap();
    assert_eq!(stats.chunks_skipped, 0);
    // The whole domain satisfies `>= -100000` and `k` has no NULLs: every
    // chunk is proven full by its zone map alone.
    assert_eq!(stats.chunks_full, stats.chunks);
    assert_eq!(stats.rows_out, 640);
    assert_eq!(
        out,
        ops::scan_filter_project(&row, "R", &preds_none, &names(&["k"])).unwrap()
    );
}

#[test]
fn backing_dispatch_is_representation_transparent() {
    use pdb_storage::StorageBacking;
    use std::sync::Arc;

    let row = expand(5, 300, false);
    let col = ColumnarTable::from_prob_table_chunked(&row, &Pool::new(2), 64).unwrap();
    let row_backing = StorageBacking::Row(Arc::new(row.clone()));
    let col_backing = StorageBacking::Columnar(Arc::new(col));
    let attrs = names(&["k", "s", "f"]);
    let pred = Predicate::new("R", "k", CompareOp::Lt, 60i64);
    let preds = [&pred];
    let want_scan = ops::scan(&row, "R", &attrs).unwrap();
    let want_fused = ops::scan_filter_project(&row, "R", &preds, &attrs).unwrap();
    for backing in [&row_backing, &col_backing] {
        for threads in POOLS {
            let pool = Pool::new(threads);
            assert_eq!(
                ops::scan_filter_project_backing_ctx(backing, "R", &[], &attrs, &pool, &CTX)
                    .unwrap(),
                want_scan,
                "scan dispatch at {threads} threads"
            );
            assert_eq!(
                ops::scan_filter_project_backing_ctx(backing, "R", &preds, &attrs, &pool, &CTX)
                    .unwrap(),
                want_fused,
                "fused dispatch at {threads} threads"
            );
        }
    }
}

#[test]
fn columnar_pipeline_matches_row_pipeline_end_to_end() {
    // The same query over a row-backed and a columnar-backed catalog must
    // produce the identical annotated answer (the backing dispatch of
    // `evaluate_join_order_ctx`).
    use pdb_query::ConjunctiveQuery;
    use pdb_storage::Catalog;

    let r_rows = expand(11, 700, false);
    let mut s_rows = ProbTable::new(
        Schema::from_pairs(&[("k", DataType::Int), ("tag", DataType::Str)]).unwrap(),
    );
    let mut rng = SmallRng::seed_from_u64(13);
    for i in 0..300usize {
        s_rows
            .insert(
                Tuple::new(vec![
                    Value::Int(rng.gen_range(0..260i64)),
                    Value::str(if i % 2 == 0 { "even" } else { "odd" }),
                ]),
                Variable(10_000 + i as u64),
                0.5,
            )
            .unwrap();
    }

    let row_catalog = Catalog::new();
    row_catalog.register_table("R", r_rows.clone()).unwrap();
    row_catalog.register_table("S", s_rows.clone()).unwrap();
    let col_catalog = Catalog::new();
    col_catalog
        .register_columnar(
            "R",
            ColumnarTable::from_prob_table_chunked(&r_rows, &Pool::new(4), 64).unwrap(),
        )
        .unwrap();
    col_catalog
        .register_columnar(
            "S",
            ColumnarTable::from_prob_table_chunked(&s_rows, &Pool::new(4), 64).unwrap(),
        )
        .unwrap();

    let q = ConjunctiveQuery::build(
        &[("R", &["k", "s"]), ("S", &["k", "tag"])],
        &["tag", "s"],
        vec![
            Predicate::new("R", "k", CompareOp::Lt, 120i64),
            Predicate::new("S", "tag", CompareOp::Eq, "even"),
        ],
    )
    .unwrap();
    let order = vec!["R".to_string(), "S".to_string()];
    let want =
        pdb_exec::evaluate_join_order_ctx(&q, &row_catalog, &order, &Pool::sequential(), &CTX)
            .unwrap();
    for threads in POOLS {
        let got =
            pdb_exec::evaluate_join_order_ctx(&q, &col_catalog, &order, &Pool::new(threads), &CTX)
                .unwrap();
        assert_eq!(got, want, "{threads} threads");
    }
}
