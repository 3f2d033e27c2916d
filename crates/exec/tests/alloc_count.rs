//! Allocation accounting for the join and confidence hot paths.
//!
//! The PR-1 acceptance criterion is that `ops::natural_join` performs **no
//! per-probed-row `Tuple` / `Vec<Value>` allocations**: output rows are
//! appended to the result's flat arenas, whose growth is amortized
//! (`O(log n)` reallocations for `n` rows). This test installs a counting
//! global allocator and verifies exactly that, with the retained
//! row-at-a-time baseline — which allocates per row by construction — as
//! the control.
//!
//! PR 2 extends the accounting to the confidence path: the flat one-scan
//! engine's inner loop over `N` rows must allocate `O(log N)` times
//! (key/permutation buffers and arena doublings), not `O(N × nodes)` like
//! the retained recursive machine, whose partition closes clone a
//! `children` vector per visit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use std::borrow::Cow;

use pdb_exec::{baseline, ops, Annotated, ExecContext, KeyRuns, Stage};
use pdb_storage::{tuple, DataType, ProbTable, Schema, Variable};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The counter is process-wide and the test harness runs tests on parallel
/// threads: every test holds this lock for its whole body so another test's
/// allocations are never charged to its measurement.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed assertion in another test poisons the lock; the counter
    // itself is still consistent.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

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
    let (left, right) = join_inputs(100, 50);
    let output_rows = 100 * 50;

    // Warm up once so lazily initialized runtime structures don't get
    // charged to either side.
    ops::natural_join(&left, &right).unwrap();
    baseline::natural_join_rowwise(&left, &right).unwrap();

    let mut fast_out = None;
    let fast = allocations(|| {
        fast_out = Some(ops::natural_join(&left, &right).unwrap());
    });
    let mut slow_out = None;
    let slow = allocations(|| {
        slow_out = Some(baseline::natural_join_rowwise(&left, &right).unwrap());
    });
    let fast_out = fast_out.unwrap();
    let slow_out = slow_out.unwrap();
    assert_eq!(fast_out.len(), output_rows);
    assert_eq!(slow_out.len(), output_rows);
    // Lineage really is one dense arena.
    assert_eq!(
        fast_out.lineage_arena().len(),
        output_rows * fast_out.lineage_width()
    );

    // The baseline allocates at least one Tuple Vec and one lineage Vec per
    // output row, plus a key Vec per probed row.
    assert!(
        slow >= 2 * output_rows,
        "row-at-a-time baseline allocated {slow} times for {output_rows} rows"
    );
    // The arena join allocates bounded bookkeeping (key normalization, hash
    // index, arena doublings) — far below one allocation per output row.
    assert!(
        fast < output_rows / 4,
        "arena join allocated {fast} times for {output_rows} rows"
    );
    assert!(
        fast * 10 < slow,
        "arena join ({fast} allocs) should be at least 10x leaner than the baseline ({slow})"
    );
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
    let sort_allocs = allocations(|| {
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
    let dedup_allocs = allocations(|| {
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
/// partition of the inner `S` node, the shape that made the recursive
/// machine clone its `children` vector per visit.
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
    let mut keys = None;
    let parallel = allocations(|| {
        keys = Some(build());
    });
    let keys = keys.unwrap();
    // The parallel build allocates bounded scratch per chunk (dictionaries,
    // remaps, spawn bookkeeping) plus the one key buffer — far below one
    // allocation per row, like the sequential build it replaces.
    assert!(
        parallel < rows / 4,
        "parallel sort-key build allocated {parallel} times for {rows} rows"
    );
    // And it produced the sequential words.
    let sequential = SortKeys::build(rows, 3, 1, |r, c| &vals[r][c], |r, _| (r % 3) as u64);
    for r in 0..rows {
        assert_eq!(keys.row(r), sequential.row(r), "row {r}");
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

    let mut join_out = None;
    let join_allocs = allocations(|| {
        join_out = Some(ops::natural_join_ctx(&left, &right, &pool, &ctx).unwrap());
    });
    let join_out = join_out.unwrap();
    assert_eq!(join_out.len(), rows);
    assert!(
        join_allocs < rows / 4,
        "four-worker join allocated {join_allocs} times for {rows} rows"
    );

    let keep: Vec<String> = vec!["a".into()];
    let project_allocs = allocations(|| {
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
    let scan_allocs = allocations(|| {
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
    let pipeline_allocs = allocations(|| {
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
    use pdb_conf::baseline::one_scan_confidences_recursive;
    use pdb_conf::one_scan::one_scan_confidences_ctx;
    use pdb_conf::{Pool, SplitPolicy};

    let (answer, sig) = confidence_inputs(4, 50, 10);
    let rows = answer.len();
    assert_eq!(rows, 4 * 50 * 10);
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

    // Warm up both paths so lazily initialized runtime structures are not
    // charged to either side.
    flat_scan();
    one_scan_confidences_recursive(&answer, &sig).unwrap();

    let mut flat_out = None;
    let flat = allocations(|| {
        flat_out = Some(flat_scan());
    });
    let mut recursive_out = None;
    let recursive = allocations(|| {
        recursive_out = Some(one_scan_confidences_recursive(&answer, &sig).unwrap());
    });
    let flat_out = flat_out.unwrap();
    let recursive_out = recursive_out.unwrap();
    assert_eq!(flat_out.len(), 4);
    assert_eq!(recursive_out.len(), 4);
    for ((t1, p1), (t2, p2)) in flat_out.iter().zip(recursive_out.iter()) {
        assert_eq!(t1, t2);
        assert!((p1 - p2).abs() < 1e-12);
    }

    // The flat engine allocates bounded scratch: key words, the sorted
    // permutation, bag bookkeeping, machine arrays, the output — far below
    // one allocation per row.
    assert!(
        flat < rows / 8,
        "flat one-scan allocated {flat} times for {rows} rows"
    );
    // The recursive machine clones a children vector per partition close
    // (every change of `b`), on top of cloning and permuting the answer.
    assert!(
        flat * 2 < recursive,
        "flat engine ({flat} allocs) should be leaner than the recursive baseline ({recursive})"
    );
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
    let mut out = None;
    let allocs = allocations(|| {
        out =
            Some(scan_filter_project_columnar_ctx(&col, "R", &preds, &keep, &pool, &ctx).unwrap());
    });
    let out = out.unwrap();
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
fn partitioned_join_scatter_allocates_o_chunks_plus_partitions() {
    let _serial = serial();
    // An eight-worker join allocates by the piece of work, not by the row:
    // the build side's key chunks and one chain index, and per probe morsel
    // (a partition of the left rows) one fragment that reserves its share of
    // the output. On this shape (4096 build rows of mostly-distinct keys,
    // 4096 matches) the whole join stays in the low hundreds of allocations.
    let (left, right) = join_inputs(64, 64); // 4096 build rows, 4096 matches
    let pool = pdb_par::Pool::new(8);
    let ctx = ExecContext::unbounded();
    ops::natural_join_ctx(&left, &right, &pool, &ctx).unwrap(); // warm-up
    let mut out = None;
    let allocs = allocations(|| {
        out = Some(ops::natural_join_ctx(&left, &right, &pool, &ctx).unwrap());
    });
    assert_eq!(out.unwrap().len(), 64 * 64);
    assert!(
        allocs < 768,
        "eight-worker join allocated {allocs} times; its chunks and \
         morsels should keep this shape well under 768"
    );
}
