//! Allocation accounting for the join and confidence hot paths, counted
//! with the test kit's counting allocator.
//!
//! `ops::natural_join` performs **no per-probed-row `Tuple` / `Vec<Value>`
//! allocations**: output rows are appended to the result's flat arenas,
//! whose growth is amortized (`O(log n)` reallocations for `n` rows). The
//! flat one-scan engine's inner loop over `N` rows allocates `O(log N)`
//! times (key and permutation buffers, arena doublings), not `O(N × nodes)`.
//! Both are held to one absolute count at two input sizes four times apart,
//! which an allocation per row breaks at the smaller one already.

use std::borrow::Cow;
use std::time::Duration;

use pdb_exec::{ops, Annotated, ExecContext, KeyRuns, Stage};
use pdb_storage::{tuple, DataType, ProbTable, Schema, Value, Variable};
use pdb_testkit::alloc::{allocations, allocations_of_at_least, peak_bytes, serial};

#[global_allocator]
static GLOBAL: pdb_testkit::alloc::Counting = pdb_testkit::alloc::Counting;

/// `R(a)` with `groups` keys and `S(a, b)` with `per_key` rows per key: the
/// join emits `groups · per_key` rows.
fn join_inputs(groups: i64, per_key: i64) -> (Annotated, Annotated) {
    let mut var = 0u64;
    let mut next = || {
        var += 1;
        Variable(var)
    };
    let mut r = ProbTable::new(Schema::from_pairs(&[("a", DataType::Int)]).unwrap());
    for a in 0..groups {
        r.insert(tuple![a], next(), 0.5).unwrap();
    }
    let mut s =
        ProbTable::new(Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap());
    for a in 0..groups {
        for b in 0..per_key {
            s.insert(tuple![a, b], next(), 0.5).unwrap();
        }
    }
    let names = |ns: &[&str]| ns.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    (
        ops::scan(&r, "R", &names(&["a"])).unwrap(),
        ops::scan(&s, "S", &names(&["a", "b"])).unwrap(),
    )
}

#[test]
fn join_lineage_growth_is_amortized_slice_append() {
    let _serial = serial();
    let ctx = ExecContext::unbounded();
    for (groups, threads) in [100, 400].into_iter().flat_map(|g| [(g, 1), (g, 4)]) {
        let (left, right) = join_inputs(groups, 50);
        let output_rows = groups as usize * 50;
        let pool = pdb_par::Pool::new(threads);
        // The smaller side on the left (indexed, its pairs regrouped) and on
        // the right (indexed, each morsel emitting its own pairs).
        for (a, b) in [(&left, &right), (&right, &left)] {
            let join = || ops::natural_join_ctx(a, b, &pool, &ctx).unwrap();
            // Warm up once so lazily initialized runtime structures are not
            // charged.
            join();
            let (out, allocs) = allocations(join);
            assert_eq!(out.len(), output_rows);
            // Lineage really is one dense arena.
            assert_eq!(out.lineage_arena().len(), output_rows * out.lineage_width());
            // Bounded bookkeeping — the chain index of the smaller side, a
            // match list per morsel of the larger one and its doublings, an
            // exactly sized fragment per worker: at 5 000 / 20 000 output
            // rows, 46 / 48 on one worker and 138 / 146 on four with the
            // left side indexed, 43 / 45 and 116 / 124 with the right one. A
            // join that allocated a `Tuple` and a lineage `Vec` per output
            // row would make 10 000 and 40 000.
            assert!(
                allocs < 256,
                "the arena join allocated {allocs} times for {output_rows} rows on \
                 {threads} workers, {} left rows",
                a.len()
            );
        }
    }
}

#[test]
fn sort_and_dedup_allocate_bounded_scratch() {
    let _serial = serial();
    let (left, right) = join_inputs(50, 40);
    let joined = ops::natural_join(&left, &right).unwrap();
    let rows = joined.len();

    let data_cols: Vec<String> = joined
        .schema()
        .names()
        .into_iter()
        .map(|s| s.to_string())
        .collect();
    let rels: Vec<String> = joined.relations().to_vec();

    let mut sorted = joined.clone();
    sorted.sort_for_confidence(&data_cols, &rels).unwrap(); // warm-up
    let mut sorted = joined.clone();
    let ((), sort_allocs) = allocations(|| {
        sorted.sort_for_confidence(&data_cols, &rels).unwrap();
    });
    // Key buffer + permutation + two rebuilt arenas + per-column dictionary
    // bookkeeping: a handful of allocations, not O(rows).
    assert!(
        sort_allocs < rows / 4,
        "normalized sort allocated {sort_allocs} times for {rows} rows"
    );

    // Duplicate elimination is the grouping shell's: one run per distinct
    // data tuple, collapsed to its first row.
    let pool = pdb_par::Pool::sequential();
    let ctx = ExecContext::unbounded();
    let ((), dedup_allocs) = allocations(|| {
        let runs = KeyRuns::build(&joined, &[], &[], Stage::Sort, &pool, &ctx).unwrap();
        let d = runs
            .collapse(
                Cow::Borrowed(&joined),
                &[0],
                0,
                Stage::Sort,
                &pool,
                &ctx,
                |input, _, rows| Ok(input.row(rows[0] as usize).lineage[0]),
            )
            .unwrap();
        assert_eq!(d.len(), 50 * 40);
    });
    assert!(
        dedup_allocs < rows / 4,
        "sort-based dedup allocated {dedup_allocs} times for {rows} rows"
    );
}

/// A three-level answer `R(a) ⋈ S(a, b) ⋈ T(a, b, c)` projected onto `a`,
/// with the 1scan signature `(R (S T*)*)*`: every change of `b` closes a
/// partition of the inner `S` node, where a machine that allocates per
/// visit shows.
fn confidence_inputs(
    groups: i64,
    per_group: i64,
    per_pair: i64,
) -> (Annotated, pdb_query::Signature) {
    let mut var = 0u64;
    let mut next = || {
        var += 1;
        Variable(var)
    };
    let names = |ns: &[&str]| ns.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let mut r = ProbTable::new(Schema::from_pairs(&[("a", DataType::Int)]).unwrap());
    for a in 0..groups {
        r.insert(tuple![a], next(), 0.5).unwrap();
    }
    let mut s =
        ProbTable::new(Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap());
    let mut t = ProbTable::new(
        Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Int),
        ])
        .unwrap(),
    );
    for a in 0..groups {
        for b in 0..per_group {
            s.insert(tuple![a, b], next(), 0.5).unwrap();
            for c in 0..per_pair {
                t.insert(tuple![a, b, c], next(), 0.5).unwrap();
            }
        }
    }
    let rs = ops::natural_join(
        &ops::scan(&r, "R", &names(&["a"])).unwrap(),
        &ops::scan(&s, "S", &names(&["a", "b"])).unwrap(),
    )
    .unwrap();
    let rst =
        ops::natural_join(&rs, &ops::scan(&t, "T", &names(&["a", "b", "c"])).unwrap()).unwrap();
    let answer = ops::project(&rst, &names(&["a"])).unwrap();
    use pdb_query::Signature;
    let sig = Signature::star(Signature::concat(vec![
        Signature::table("R"),
        Signature::star(Signature::concat(vec![
            Signature::table("S"),
            Signature::star(Signature::table("T")),
        ])),
    ]));
    assert!(sig.is_one_scan());
    (answer, sig)
}

#[test]
fn parallel_sort_key_build_allocates_bounded_scratch() {
    let _serial = serial();
    use pdb_exec::key::SortKeys;
    use pdb_storage::Value;

    // Mixed numeric/string/NULL columns, large enough for the chunked
    // parallel build to engage (>= pdb_par::SEQUENTIAL_CUTOFF rows).
    let rows = 4096;
    let strings = ["lorem", "ipsum", "dolor", "sit", ""];
    let vals: Vec<[Value; 3]> = (0..rows)
        .map(|r| {
            [
                if r % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int((r as i64 * 37) % 19)
                },
                if r % 5 == 0 {
                    Value::Null
                } else {
                    Value::str(strings[r % strings.len()])
                },
                Value::Float(((r % 11) as f64) / 4.0),
            ]
        })
        .collect();
    let pool = pdb_par::Pool::new(4);
    let build =
        || SortKeys::build_with(rows, 3, 1, |r, c| &vals[r][c], |r, _| (r % 3) as u64, &pool);
    build(); // warm-up
    let (keys, parallel) = allocations(build);
    // The chunked build allocates bounded scratch per chunk (dictionaries,
    // remaps, spawn bookkeeping) plus the one key buffer — far below one
    // allocation per row.
    assert!(
        parallel < rows / 4,
        "parallel sort-key build allocated {parallel} times for {rows} rows"
    );
    // And it produced the one-chunk words.
    let one_chunk = SortKeys::build_with(
        rows,
        3,
        1,
        |r, c| &vals[r][c],
        |r, _| (r % 3) as u64,
        &pdb_par::Pool::sequential(),
    );
    for r in 0..rows {
        assert_eq!(keys.row(r), one_chunk.row(r), "row {r}");
    }
}

#[test]
fn chunked_parallel_pipeline_allocates_bounded_scratch() {
    let _serial = serial();
    use pdb_exec::pipeline::evaluate_join_order_ctx;
    use pdb_par::Pool;
    use pdb_query::{CompareOp, ConjunctiveQuery, Predicate};

    // A 100×50 join (5000 output rows) driven through the operators on an
    // explicit 4-worker pool: every operator may allocate per-range scratch
    // (survivor lists, join fragments, thread spawns) and the exactly-sized
    // output arenas — but never O(rows) allocations. The write phase clones
    // `Value`s into pre-sized segments (`Arc` bumps for strings), so no
    // per-row Vec/Tuple exists anywhere.
    let (left, right) = join_inputs(100, 50);
    let pool = Pool::new(4);
    let ctx = ExecContext::unbounded();
    let rows = 100 * 50;

    // Warm-up so lazily initialized runtime structures are not charged.
    ops::natural_join_ctx(&left, &right, &pool, &ctx).unwrap();

    let (join_out, join_allocs) =
        allocations(|| ops::natural_join_ctx(&left, &right, &pool, &ctx).unwrap());
    assert_eq!(join_out.len(), rows);
    assert!(
        join_allocs < rows / 4,
        "four-worker join allocated {join_allocs} times for {rows} rows"
    );

    let keep: Vec<String> = vec!["a".into()];
    let ((), project_allocs) = allocations(|| {
        let p = ops::project_ctx(&right, &keep, &pool, &ctx).unwrap();
        assert_eq!(p.len(), right.len());
    });
    assert!(
        project_allocs < right.len() / 4,
        "parallel project allocated {project_allocs} times for {} rows",
        right.len()
    );

    // End to end: the fused-scan + join pipeline stays bounded.
    let catalog = pdb_storage::Catalog::new();
    let mut r = ProbTable::new(Schema::from_pairs(&[("a", DataType::Int)]).unwrap());
    let mut s =
        ProbTable::new(Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap());
    let mut var = 0u64;
    for a in 0..100i64 {
        var += 1;
        r.insert(tuple![a], Variable(var), 0.5).unwrap();
        for b in 0..50i64 {
            var += 1;
            s.insert(tuple![a, b], Variable(var), 0.5).unwrap();
        }
    }
    let pred = Predicate::new("S", "b", CompareOp::Lt, 25i64);
    let ((), scan_allocs) = allocations(|| {
        let f =
            ops::scan_filter_project_ctx(&s, "S", &[&pred], &["a".into(), "b".into()], &pool, &ctx);
        assert_eq!(f.unwrap().len(), 100 * 25);
    });
    assert!(
        scan_allocs < s.len() / 4,
        "fused scan allocated {scan_allocs} times for {} rows",
        s.len()
    );
    catalog.register_table("R", r).unwrap();
    catalog.register_table("S", s).unwrap();
    let q = ConjunctiveQuery::build(&[("R", &["a"]), ("S", &["a", "b"])], &["b"], vec![]).unwrap();
    let order: Vec<String> = vec!["R".into(), "S".into()];
    evaluate_join_order_ctx(&q, &catalog, &order, &pool, &ctx).unwrap(); // warm-up
    let ((), pipeline_allocs) = allocations(|| {
        let answer = evaluate_join_order_ctx(&q, &catalog, &order, &pool, &ctx).unwrap();
        assert_eq!(answer.len(), rows);
    });
    assert!(
        pipeline_allocs < rows / 2,
        "parallel pipeline allocated {pipeline_allocs} times for {rows} rows"
    );
}

#[test]
fn one_scan_inner_loop_allocates_sublinearly() {
    let _serial = serial();
    use pdb_conf::one_scan::one_scan_confidences_ctx;
    use pdb_conf::{Pool, SplitPolicy};

    for per_group in [50, 200] {
        let (answer, sig) = confidence_inputs(4, per_group, 10);
        let rows = answer.len();
        assert_eq!(rows, 4 * per_group as usize * 10);
        let pool = Pool::sequential();
        let flat_scan = || {
            one_scan_confidences_ctx(
                &answer,
                &sig,
                &pool,
                SplitPolicy::default(),
                &ExecContext::unbounded(),
            )
            .unwrap()
        };
        // Warm up so lazily initialized runtime structures are not charged.
        flat_scan();
        let (out, flat) = allocations(flat_scan);

        // Every variable has probability ½, so each answer `a` has the closed
        // form `½ · (1 − (1 − ½ · (1 − ½¹⁰))^per_group)`: `R(a)`, and some
        // `S(a, b)` with one of its ten `T(a, b, c)`.
        let some_t = 1.0 - 0.5f64.powi(10);
        let want = 0.5 * (1.0 - (1.0 - 0.5 * some_t).powi(per_group as i32));
        assert_eq!(out.len(), 4);
        for (a, (t, p)) in out.iter().enumerate() {
            assert_eq!(*t, tuple![a as i64]);
            assert!((p - want).abs() < 1e-12, "{t}: {p} vs {want}");
        }
        // Bounded scratch — key words, the sorted permutation, bag
        // bookkeeping, machine arrays, the output: 37 at 2 000 rows and at
        // 8 000 alike. A machine that allocated per partition close (every
        // change of `b`) would make 200 and 800 more.
        assert!(
            flat < 64,
            "flat one-scan allocated {flat} times for {rows} rows"
        );
    }
}

#[test]
fn bitmask_scan_allocates_bounded_scratch() {
    let _serial = serial();
    // PR 7: the masked columnar scan builds one fixed-width bitmask per
    // chunk (16 u64 words for 1024 rows) and gathers survivors into
    // popcount-pre-sized arenas — no per-row Vec growth anywhere. The
    // predicate is deliberately Partial on every chunk (the constant sits
    // mid-domain) so the kernel/mask path runs, not the zone-map shortcut.
    use pdb_exec::columnar::scan_filter_project_columnar_ctx;
    use pdb_par::Pool;
    use pdb_query::{CompareOp, Predicate};
    use pdb_storage::{ColumnarTable, Value};

    let rows = 8192usize;
    let mut t =
        ProbTable::new(Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]).unwrap());
    let strings = ["ash", "birch", "cedar", "oak"];
    for r in 0..rows {
        t.insert(
            tuple![
                Value::Int((r % 100) as i64),
                Value::str(strings[r % strings.len()])
            ],
            Variable(r as u64),
            0.5,
        )
        .unwrap();
    }
    let pool = Pool::new(4);
    let col = ColumnarTable::from_prob_table(&t, &pool).unwrap();
    let pred = Predicate::new("R", "k", CompareOp::Lt, 50i64);
    let preds = [&pred];
    let keep: Vec<String> = vec!["k".into(), "s".into()];
    let ctx = ExecContext::unbounded();
    scan_filter_project_columnar_ctx(&col, "R", &preds, &keep, &pool, &ctx).unwrap(); // warm-up
    let (out, allocs) = allocations(|| {
        scan_filter_project_columnar_ctx(&col, "R", &preds, &keep, &pool, &ctx).unwrap()
    });
    let expected = (0..rows).filter(|r| (r % 100) < 50).count();
    assert_eq!(out.len(), expected);
    assert!(
        allocs < out.len() / 4,
        "bitmask scan allocated {allocs} times for {} output rows",
        out.len()
    );
}

#[test]
fn late_materialization_decodes_at_most_the_output_strings() {
    let _serial = serial();
    // PR 7: string head columns ride the pipeline as dictionary ranks; an
    // `Arc<str>` is materialized only per string cell of the *final*
    // answer, never per intermediate row. The filter drops 3/4 of the rows
    // before the join, so decoding eagerly would cost 4x more.
    use pdb_exec::pipeline::evaluate_join_order_ctx;
    use pdb_govern::{Counter, QueryObs};
    use pdb_par::Pool;
    use pdb_query::{CompareOp, ConjunctiveQuery, Predicate};
    use pdb_storage::{Catalog, ColumnarTable, Value};

    let rows = 2048usize;
    let mut r = ProbTable::new(
        Schema::from_pairs(&[("a", DataType::Int), ("name", DataType::Str)]).unwrap(),
    );
    for i in 0..rows {
        r.insert(
            tuple![
                Value::Int((i % 4) as i64),
                Value::str(format!("name-{}", i % 64))
            ],
            Variable(i as u64),
            0.5,
        )
        .unwrap();
    }
    let mut s = ProbTable::new(Schema::from_pairs(&[("a", DataType::Int)]).unwrap());
    s.insert(tuple![Value::Int(0i64)], Variable(1_000_000), 0.5)
        .unwrap();
    let pool = Pool::new(2);
    let catalog = Catalog::new();
    catalog
        .register_columnar("R", ColumnarTable::from_prob_table(&r, &pool).unwrap())
        .unwrap();
    catalog
        .register_columnar("S", ColumnarTable::from_prob_table(&s, &pool).unwrap())
        .unwrap();
    let q = ConjunctiveQuery::build(
        &[("R", &["a", "name"]), ("S", &["a"])],
        &["name"],
        vec![Predicate::new("R", "a", CompareOp::Eq, 0i64)],
    )
    .unwrap();
    let order: Vec<String> = vec!["R".into(), "S".into()];
    let obs = QueryObs::new();
    let ctx = ExecContext::unbounded().with_obs(obs.clone());
    let answer = evaluate_join_order_ctx(&q, &catalog, &order, &pool, &ctx).unwrap();
    assert_eq!(answer.len(), rows / 4);
    assert_eq!(obs.get(Counter::RankedColumns), 1);
    // One decode per string cell of the answer — not per scanned row.
    assert_eq!(obs.get(Counter::DecodedStrings), answer.len() as u64);
}

#[test]
fn a_join_allocates_its_chain_index_and_by_probe_morsel() {
    let _serial = serial();
    // An eight-worker join allocates by the piece of work, not by the row:
    // one chain index, per morsel of the larger side one match list, and per
    // worker one fragment sized to its share of the matches. On this shape
    // (64 rows indexed, 4096 streamed, 4096 matches) the whole join stays
    // in the low hundreds of allocations, with the small side on the left
    // (its pairs regrouped: 223) and on the right (187).
    let (left, right) = join_inputs(64, 64); // 64 against 4096 rows, 4096 matches
    let pool = pdb_par::Pool::new(8);
    let ctx = ExecContext::unbounded();
    for (a, b) in [(&left, &right), (&right, &left)] {
        ops::natural_join_ctx(a, b, &pool, &ctx).unwrap(); // warm-up
        let (out, allocs) = allocations(|| ops::natural_join_ctx(a, b, &pool, &ctx).unwrap());
        assert_eq!(out.len(), 64 * 64);
        assert!(
            allocs < 768,
            "eight-worker join of {} against {} rows allocated {allocs} times; its \
             index and morsels should keep this shape well under 768",
            a.len(),
            b.len()
        );
    }

    // The join indexes its smaller side, and the index is all it builds.
    // Whatever the key's width (an integer, a string, a float) and the
    // larger side's row count N, on one worker and on eight: 10 left rows
    // against N right rows, and N against 10, make no allocation of 4 bytes
    // a row of the larger side (only the match lists and the output could
    // be that large, and they hold the 10 matches); N rows against N make
    // exactly two, the index's `heads` and `next` over a side as large. A
    // normalized copy of the keys (words and hashes) would make two more,
    // and an index over the larger side two.
    let names = |ns: &[&str]| ns.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let key_names = ["k0", "k1", "k2"];
    let key_cell = |c: usize, r: i64| match c {
        0 => Value::Int(r),
        1 => Value::str(["x", "y", "z"][r as usize % 3]),
        _ => Value::Float(r as f64 / 2.0),
    };
    // `rows` rows whose first 10 keys are shared by both sides and whose
    // others are `offset` rows beyond.
    let side = |relation: &str, width: usize, rows: i64, offset: i64, payload: &str| {
        let mut columns: Vec<(&str, DataType)> = (key_names[..width].iter())
            .zip([DataType::Int, DataType::Str, DataType::Float])
            .map(|(&n, t)| (n, t))
            .collect();
        columns.push((payload, DataType::Int));
        let mut t = Annotated::new(
            Schema::from_pairs(&columns).unwrap(),
            vec![relation.to_string()],
        );
        for r in 0..rows {
            let key = if r < 10 { r } else { r + offset };
            let mut cells: Vec<Value> = (0..width).map(|c| key_cell(c, key * 7)).collect();
            cells.push(Value::Int(r));
            t.push(pdb_exec::AnnotatedRow::new(
                pdb_storage::Tuple::new(cells),
                vec![(Variable(r as u64), 0.5)],
            ));
        }
        t
    };
    let keep = names(&["k0", "b", "c"]);
    for width in 1..=3 {
        // One-worker allocation counts by shape, at 70 000 and 280 000.
        let mut counts = [Vec::new(), Vec::new(), Vec::new()];
        for rows in [70_000, 280_000] {
            let shapes = [(10, rows, 0), (rows, 10, 0), (rows, rows, 2)];
            for (shape, (left_rows, right_rows, want_large)) in shapes.into_iter().enumerate() {
                let left = side("L", width, left_rows, rows, "b");
                let right = side("R", width, right_rows, 0, "c");
                for threads in [1, 8] {
                    let pool = pdb_par::Pool::new(threads);
                    let join = || ops::natural_join_project_ctx(&left, &right, &keep, &pool, &ctx);
                    let ((out, allocs), large) =
                        allocations_of_at_least(4 * rows as usize, || allocations(join));

                    assert_eq!(out.unwrap().len(), 10, "the 10 shared keys match");
                    assert_eq!(
                        large, want_large,
                        "{width} key columns, {left_rows} against {right_rows} rows, \
                         {threads} workers"
                    );
                    if threads == 1 {
                        counts[shape].push(allocs);
                    }
                }
            }
        }
        // Four times the larger side's rows, the same allocations.
        for (shape, count) in ["10 against N", "N against 10", "N against N"]
            .iter()
            .zip(&counts)
        {
            assert_eq!(
                count[0], count[1],
                "{width} key columns, {shape}: {count:?}"
            );
        }
    }
}

#[test]
fn a_join_over_its_budget_fails_before_it_allocates_its_index() {
    let _serial = serial();
    // 70 000 left rows against 70 000 right rows (the right side indexed,
    // 2^17 chain heads) and against 140 000 (the left side indexed, 2^18
    // heads): the index is `heads` and `next` (a link a row of the smaller
    // side), both sized by the row counts and charged before either is
    // allocated. A budget one byte short of that charge fails the join
    // under its own stage with neither allocated; a budget of exactly that
    // charge builds both and fails on the output reservation after them.
    use pdb_exec::{ExecError, GovernorBuilder, SproutError};
    let rows = 70_000;
    let pool = pdb_par::Pool::new(1);
    for per_key in [1, 2] {
        let (left, right) = join_inputs(rows, per_key);
        let heads = (rows * per_key) as usize;
        let index_bytes = (heads.next_power_of_two() + rows as usize) * 4;
        for (budget, want_large) in [(index_bytes - 1, 0), (index_bytes, 2)] {
            let gov = GovernorBuilder::new().memory_budget(budget).build();
            let ctx = ExecContext::governed(&gov);
            let (joined, large) = allocations_of_at_least(4 * rows as usize, || {
                ops::natural_join_ctx(&left, &right, &pool, &ctx)
            });
            assert!(
                matches!(
                    joined,
                    Err(ExecError::Governed(SproutError::MemoryBudgetExceeded {
                        stage: Stage::Join,
                        ..
                    }))
                ),
                "{per_key} right rows a key, budget {budget}: {joined:?}"
            );
            assert_eq!(
                large, want_large,
                "{per_key} right rows a key, budget {budget}"
            );
        }
    }
}

#[test]
fn a_selective_join_allocates_its_output_for_its_matches_only() {
    let _serial = serial();
    // 20 000 left rows against 20 000 right rows of which 10 match. The
    // governor is charged `left.len()` = 20 000 output rows up front, but
    // the arenas hold the 10 rows found: the index of the smaller side is
    // all the join allocates in proportion to its inputs.
    let n = 20_000i64;
    let mut var = 0u64;
    let mut next = || {
        var += 1;
        Variable(var)
    };
    let mut r = ProbTable::new(Schema::from_pairs(&[("a", DataType::Int)]).unwrap());
    for a in 0..n {
        r.insert(tuple![a], next(), 0.5).unwrap();
    }
    let mut s =
        ProbTable::new(Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap());
    for b in 0..n {
        let a = if b < 10 { b } else { n + b };
        s.insert(tuple![a, b], next(), 0.5).unwrap();
    }
    let names = |ns: &[&str]| ns.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let left = ops::scan(&r, "R", &names(&["a"])).unwrap();
    let right = ops::scan(&s, "S", &names(&["a", "b"])).unwrap();
    let ctx = ExecContext::unbounded();
    for threads in [1, 4] {
        let pool = pdb_par::Pool::new(threads);
        let (out, peak) = peak_bytes(|| ops::natural_join_ctx(&left, &right, &pool, &ctx).unwrap());
        assert_eq!(out.len(), 10);
        let row_bytes = out.data_width() * std::mem::size_of::<Value>()
            + out.lineage_width() * std::mem::size_of::<(Variable, f64)>();
        let reserved = n as usize * row_bytes;
        assert!(
            peak < reserved,
            "a join with 10 matches on {threads} workers peaked at {peak} B, \
             no less than the {reserved} B of 20 000 reserved output rows"
        );
    }
}

/// `rows` rows of `(g, s)` — `g` one of `runs` group keys in a shuffled
/// order, `s` a string — with lineage `R` numbering the rows and `S` a
/// shuffled variable: the runs of `g` are never the input rows in order.
fn grouped_rows(rows: usize, runs: usize) -> Annotated {
    let schema = Schema::from_pairs(&[("g", DataType::Int), ("s", DataType::Str)]).unwrap();
    let mut input = Annotated::new(schema, vec!["R".into(), "S".into()]);
    let names = ["ash", "birch", "cedar", "oak"];
    for i in 0..rows {
        let shuffled = (i * 7919) % rows;
        input.push(pdb_exec::AnnotatedRow::new(
            tuple![Value::Int((shuffled % runs) as i64), names[i % names.len()]],
            vec![(Variable(i as u64), 0.5), (Variable(shuffled as u64), 0.25)],
        ));
    }
    input
}

/// The grouping fold of the tests below: the run's smallest `S` variable
/// and its row count.
fn count_fold(input: &Annotated, _: usize, rows: &[u32]) -> pdb_exec::ExecResult<(Variable, f64)> {
    let min = rows
        .iter()
        .map(|&r| input.row(r as usize).lineage[1].0)
        .min();
    Ok((min.expect("runs are non-empty"), rows.len() as f64))
}

#[test]
fn an_owned_collapse_writes_only_its_lineage() {
    let _serial = serial();
    // Bytes the test allows beyond the output's lineage arena and the rows
    // set aside: the bit set of the in-place move, the shrunk data arena a
    // reallocation counts once more (200 rows at most here), the relation
    // names and a pool's bookkeeping.
    const SLACK: usize = 64 << 10;
    let ctx = ExecContext::unbounded();
    for (rows, runs) in [(20_000, 20_000), (20_000, 200)] {
        let input = grouped_rows(rows, runs);
        let row_bytes = input.data_width() * std::mem::size_of::<Value>();
        for threads in [1, 4] {
            let pool = pdb_par::Pool::new(threads);
            let keyed = KeyRuns::build(&input, &[], &[], Stage::Aggregate, &pool, &ctx).unwrap();
            assert_eq!(keyed.len(), runs);
            let collapse = |input: Cow<'_, Annotated>| {
                keyed
                    .collapse(input, &[0, 1], 1, Stage::Aggregate, &pool, &ctx, count_fold)
                    .unwrap()
            };
            let copied = collapse(Cow::Borrowed(&input));
            // The input is live before the collapse starts; what it adds is
            // the output's lineage arena and the exemplars that precede
            // their output row — set aside while the rows before them are
            // written; about half of them in this shuffled input, almost
            // none in one that arrives in key order — not a copy of every
            // output row.
            let exemplar = |k: usize| keyed.order()[keyed.starts()[k]] as usize;
            let set_aside = (0..runs).filter(|&k| exemplar(k) < k).count() * row_bytes;
            let owned = input.clone();
            let (moved, peak) = peak_bytes(|| collapse(Cow::Owned(owned)));
            assert_eq!(
                moved, copied,
                "{rows} rows into {runs} runs, {threads} workers"
            );
            let lineage = runs * 2 * std::mem::size_of::<(Variable, f64)>();
            assert!(
                peak < lineage + set_aside + SLACK,
                "an owned collapse of {rows} rows into {runs} runs on {threads} workers \
                 peaked {peak} B above its input; its lineage arena is {lineage} B, \
                 the rows it sets aside {set_aside} B"
            );
        }
    }
}

#[test]
fn order_variables_that_ascend_take_no_key_words() {
    let _serial = serial();
    // The rows are out of key order, so the key path runs; the `R`
    // variables number the rows, so as a trailing order column they sort
    // nothing and are not encoded: the build peaks where one without them
    // does. A word per row more would be 160 000 B.
    let rows = 20_000;
    let input = grouped_rows(rows, 2_000);
    let ctx = ExecContext::unbounded();
    for threads in [1, 4] {
        let pool = pdb_par::Pool::new(threads);
        let build = |order_cols: &[usize]| {
            peak_bytes(|| {
                KeyRuns::build(&input, &[], order_cols, Stage::Sort, &pool, &ctx).unwrap()
            })
        };
        let (without, bare) = build(&[]);
        let (with, ordered) = build(&[0]);
        assert_eq!(with.order(), without.order(), "{threads} workers");
        assert_eq!(with.starts(), without.starts(), "{threads} workers");
        assert!(
            ordered < bare + rows * std::mem::size_of::<u64>() / 2,
            "an ascending order column took {ordered} B against {bare} B without it \
             on {threads} workers"
        );
    }
}

#[test]
fn an_owned_collapse_of_long_runs_is_no_slower_than_the_gather() {
    let _serial = serial();
    // 300 000 rows of two integers into 30 000 runs of ten, and into
    // 291 284 runs (most of one row), in a shuffled order. The in-place
    // move touches the exemplars and the rows they land on; walking the
    // cycles of the move instead (every step a dependent random access)
    // took 2.7 × the gather at 291 284 runs, and a full permutation of
    // the arena ≈ 4 × at 30 000. Both sides drop the input, as a caller
    // that owns it does; each is timed at its best of five. Optimised, the
    // two sides take the same time; unoptimised code times the slice swaps
    // and the set-aside slots rather than the memory traffic, and the move
    // has read 1.1–2.0 × the gather there.
    const BOUND: f64 = if cfg!(debug_assertions) { 3.0 } else { 1.5 };
    let rows = 300_000usize;
    for runs in [30_000usize, 291_284] {
        let schema =
            Schema::from_pairs(&[("okey", DataType::Int), ("skey", DataType::Int)]).unwrap();
        let mut input = Annotated::new(schema, vec!["R".into(), "S".into()]);
        for i in 0..rows {
            let shuffled = (i * 7919) % rows;
            input.push(pdb_exec::AnnotatedRow::new(
                tuple![(shuffled % runs) as i64, (shuffled % runs % 7) as i64],
                vec![(Variable(i as u64), 0.5), (Variable(shuffled as u64), 0.25)],
            ));
        }
        let pool = pdb_par::Pool::sequential();
        let ctx = ExecContext::unbounded();
        let keyed = KeyRuns::build(&input, &[], &[], Stage::Aggregate, &pool, &ctx).unwrap();
        assert_eq!(keyed.len(), runs);
        let collapse = |input: Cow<'_, Annotated>| {
            keyed
                .collapse(input, &[0, 1], 1, Stage::Aggregate, &pool, &ctx, count_fold)
                .unwrap()
        };
        let timed = |input: Cow<'_, Annotated>| {
            let t0 = std::time::Instant::now();
            drop(collapse(input));
            t0.elapsed()
        };
        // Alternating, so a burst of load elsewhere slows both sides.
        let (mut moved, mut gathered) = (Duration::MAX, Duration::MAX);
        for _ in 0..5 {
            moved = moved.min(timed(Cow::Owned(input.clone())));
            let owned = input.clone();
            let t0 = std::time::Instant::now();
            drop(collapse(Cow::Borrowed(&owned)));
            drop(owned);
            gathered = gathered.min(t0.elapsed());
        }
        assert!(
            moved.as_secs_f64() <= BOUND * gathered.as_secs_f64(),
            "collapsing {rows} rows into {runs} runs in place took {moved:?}, \
             the gather {gathered:?}"
        );
    }
}
