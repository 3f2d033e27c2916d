//! Property-based cross-validation of the confidence-computation strategies.
//!
//! For randomly generated tuple-independent databases and several query
//! shapes, the streaming one-scan algorithm (Fig. 8), the multi-scan schedule
//! (Example V.11) and the GRP-sequence semantics (Fig. 5) must all agree with
//! the brute-force Shannon-expansion oracle of `pdb-testkit`.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::strategy::Strategy as _;

use pdb_conf::multi_scan::multi_scan_confidences_ctx;
use pdb_conf::one_scan::{
    one_scan_confidences_ctx, one_scan_confidences_presorted_tuned, sort_for_signature,
};
use pdb_conf::{
    ConfResult, ConfidenceOperator, ConfidenceResult, ExecContext, Pool, SplitPolicy, Strategy,
};
use pdb_exec::pipeline::evaluate_join_order;
use pdb_exec::{Annotated, AnnotatedRow};
use pdb_govern::{Counter, QueryObs};
use pdb_query::reduct::query_signature;
use pdb_query::{ConjunctiveQuery, FdSet, Signature};
use pdb_storage::{tuple, Catalog, DataType, ProbTable, Schema, Tuple, Value, Variable};
use pdb_testkit::brute_force_confidences;

/// The ungoverned one-scan engine on an explicit pool and split policy.
fn one_scan_on(
    answer: &Annotated,
    sig: &Signature,
    pool: &Pool,
    policy: SplitPolicy,
) -> ConfResult<ConfidenceResult> {
    one_scan_confidences_ctx(answer, sig, pool, policy, &ExecContext::unbounded())
}

/// The ungoverned multi-scan schedule on an explicit pool and split policy.
fn multi_scan_on(
    answer: &Annotated,
    sig: &Signature,
    pool: &Pool,
    policy: SplitPolicy,
) -> ConfResult<ConfidenceResult> {
    multi_scan_confidences_ctx(answer, sig, pool, policy, &ExecContext::unbounded())
}

/// Compares a strategy against the oracle, tuple by tuple.
fn assert_matches_oracle(
    op: &ConfidenceOperator,
    answer: &pdb_exec::Annotated,
    strategy: Strategy,
) -> Result<(), TestCaseError> {
    let ours = op.compute(answer, strategy).unwrap();
    let oracle = brute_force_confidences(answer);
    prop_assert_eq!(ours.len(), oracle.len(), "strategy {}", strategy);
    for ((t1, p1), (t2, p2)) in ours.iter().zip(oracle.iter()) {
        prop_assert_eq!(t1, t2, "strategy {}", strategy);
        prop_assert!(
            (p1 - p2).abs() < 1e-9,
            "strategy {}: tuple {} got {} expected {}",
            strategy,
            t1,
            p1,
            p2
        );
    }
    Ok(())
}

/// A probability in a comfortable range away from 0 and 1.
fn prob() -> impl proptest::strategy::Strategy<Value = f64> {
    (1u32..=9).prop_map(|i| f64::from(i) / 10.0)
}

// ---------------------------------------------------------------------------
// Scenario 1: the guiding TPC-H-like query over random Cust/Ord/Item data.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct CustOrdItem {
    cust: Vec<(i64, i64, f64)>,      // (ckey, name id, prob)
    ord: Vec<(i64, i64, i64, f64)>,  // (okey, ckey, odate id, prob)
    item: Vec<(i64, i64, f64, f64)>, // (okey, ckey, discount, prob)
    with_keys: bool,
}

fn cust_ord_item_strategy() -> impl proptest::strategy::Strategy<Value = CustOrdItem> {
    let cust = proptest::collection::vec((1i64..=3, 1i64..=2, prob()), 1..4);
    let ord = proptest::collection::vec((1i64..=4, 1i64..=3, 1i64..=2, prob()), 1..5);
    let item = proptest::collection::vec((1i64..=4, 1i64..=3, 0i64..=2, prob()), 1..6);
    (cust, ord, item, proptest::bool::ANY).prop_map(|(cust, ord, item, with_keys)| {
        let mut db = CustOrdItem {
            cust: cust.into_iter().collect(),
            ord,
            item: item
                .into_iter()
                .map(|(okey, ckey, d, p)| (okey, ckey, 0.1 * d as f64, p))
                .collect(),
            with_keys,
        };
        if db.with_keys {
            // Enforce the TPC-H key constraints the FDs assert: one tuple per
            // ckey in Cust, one tuple per okey in Ord.
            let mut seen = BTreeSet::new();
            db.cust.retain(|(ckey, _, _)| seen.insert(*ckey));
            let mut seen = BTreeSet::new();
            db.ord.retain(|(okey, _, _, _)| seen.insert(*okey));
        }
        db
    })
}

fn build_cust_ord_item(db: &CustOrdItem) -> Catalog {
    let catalog = Catalog::new();
    let mut var = 0u64;
    let mut next = || {
        var += 1;
        Variable(var)
    };

    let mut cust = ProbTable::new(
        Schema::from_pairs(&[("ckey", DataType::Int), ("cname", DataType::Str)]).unwrap(),
    );
    let mut seen = BTreeSet::new();
    for (ckey, name, p) in &db.cust {
        if seen.insert((*ckey, *name)) {
            cust.insert(tuple![*ckey, format!("name{name}")], next(), *p)
                .unwrap();
        }
    }
    let mut ord = ProbTable::new(
        Schema::from_pairs(&[
            ("okey", DataType::Int),
            ("ckey", DataType::Int),
            ("odate", DataType::Str),
        ])
        .unwrap(),
    );
    let mut seen = BTreeSet::new();
    for (okey, ckey, odate, p) in &db.ord {
        if seen.insert((*okey, *ckey, *odate)) {
            ord.insert(tuple![*okey, *ckey, format!("date{odate}")], next(), *p)
                .unwrap();
        }
    }
    let mut item = ProbTable::new(
        Schema::from_pairs(&[
            ("okey", DataType::Int),
            ("ckey", DataType::Int),
            ("discount", DataType::Float),
        ])
        .unwrap(),
    );
    let mut seen = BTreeSet::new();
    for (okey, ckey, discount, p) in &db.item {
        if seen.insert((*okey, *ckey, (discount * 10.0) as i64)) {
            item.insert(tuple![*okey, *ckey, *discount], next(), *p)
                .unwrap();
        }
    }
    catalog.register_table("Cust", cust).unwrap();
    catalog.register_table("Ord", ord).unwrap();
    catalog.register_table("Item", item).unwrap();
    if db.with_keys {
        catalog.declare_key("Cust", &["ckey"]).unwrap();
        catalog.declare_key("Ord", &["okey"]).unwrap();
    }
    catalog
}

fn guiding_query(boolean: bool) -> ConjunctiveQuery {
    ConjunctiveQuery::build(
        &[
            ("Cust", &["ckey", "cname"]),
            ("Ord", &["okey", "ckey", "odate"]),
            ("Item", &["okey", "ckey", "discount"]),
        ],
        if boolean { &[] } else { &["odate"] },
        vec![],
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn guiding_query_strategies_agree_with_oracle(
        db in cust_ord_item_strategy(),
        boolean in proptest::bool::ANY,
        order_pick in 0usize..3,
    ) {
        let catalog = build_cust_ord_item(&db);
        let q = guiding_query(boolean);
        let orders = [
            ["Cust", "Ord", "Item"],
            ["Ord", "Item", "Cust"],
            ["Item", "Cust", "Ord"],
        ];
        let order: Vec<String> = orders[order_pick].iter().map(|s| s.to_string()).collect();
        let answer = evaluate_join_order(&q, &catalog, &order).unwrap();

        let fds = if db.with_keys {
            FdSet::from_catalog_decls(&catalog.fds())
        } else {
            FdSet::empty()
        };
        let sig = query_signature(&q, &fds).unwrap();
        let op = ConfidenceOperator::new(sig);
        assert_matches_oracle(&op, &answer, Strategy::Auto)?;
        assert_matches_oracle(&op, &answer, Strategy::GrpSemantics)?;
        if op.signature().is_one_scan() {
            assert_matches_oracle(&op, &answer, Strategy::OneScan)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario 2: a branching 1scanTree — R1(a) ⋈ R2(a,b) ⋈ R3(a,b,d) ⋈ R4(a,c)
// ⋈ R5(a,c,e) — whose sorted answer interleaves re-occurring partitions and
// therefore exercises the disable/enable logic of Fig. 8.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Branching {
    r1: Vec<(i64, f64)>,
    r2: Vec<(i64, i64, f64)>,
    r3: Vec<(i64, i64, i64, f64)>,
    r4: Vec<(i64, i64, f64)>,
    r5: Vec<(i64, i64, i64, f64)>,
}

fn branching_strategy() -> impl proptest::strategy::Strategy<Value = Branching> {
    (
        proptest::collection::vec((1i64..=2, prob()), 1..3),
        proptest::collection::vec((1i64..=2, 1i64..=2, prob()), 1..3),
        proptest::collection::vec((1i64..=2, 1i64..=2, 1i64..=2, prob()), 1..4),
        proptest::collection::vec((1i64..=2, 1i64..=2, prob()), 1..3),
        proptest::collection::vec((1i64..=2, 1i64..=2, 1i64..=2, prob()), 1..4),
    )
        .prop_map(|(r1, r2, r3, r4, r5)| Branching { r1, r2, r3, r4, r5 })
}

fn build_branching(db: &Branching) -> Catalog {
    let catalog = Catalog::new();
    let mut var = 0u64;
    let mut next = || {
        var += 1;
        Variable(var)
    };
    let mut dedup_insert = |table: &mut ProbTable,
                            row: pdb_storage::Tuple,
                            seen: &mut BTreeSet<pdb_storage::Tuple>,
                            p: f64| {
        if seen.insert(row.clone()) {
            table.insert(row, next(), p).unwrap();
        }
    };

    let mut r1 = ProbTable::new(Schema::from_pairs(&[("a", DataType::Int)]).unwrap());
    let mut seen = BTreeSet::new();
    for (a, p) in &db.r1 {
        dedup_insert(&mut r1, tuple![*a], &mut seen, *p);
    }
    let mut r2 =
        ProbTable::new(Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap());
    let mut seen = BTreeSet::new();
    for (a, b, p) in &db.r2 {
        dedup_insert(&mut r2, tuple![*a, *b], &mut seen, *p);
    }
    let mut r3 = ProbTable::new(
        Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("d", DataType::Int),
        ])
        .unwrap(),
    );
    let mut seen = BTreeSet::new();
    for (a, b, d, p) in &db.r3 {
        dedup_insert(&mut r3, tuple![*a, *b, *d], &mut seen, *p);
    }
    let mut r4 =
        ProbTable::new(Schema::from_pairs(&[("a", DataType::Int), ("c", DataType::Int)]).unwrap());
    let mut seen = BTreeSet::new();
    for (a, c, p) in &db.r4 {
        dedup_insert(&mut r4, tuple![*a, *c], &mut seen, *p);
    }
    let mut r5 = ProbTable::new(
        Schema::from_pairs(&[
            ("a", DataType::Int),
            ("c", DataType::Int),
            ("e", DataType::Int),
        ])
        .unwrap(),
    );
    let mut seen = BTreeSet::new();
    for (a, c, e, p) in &db.r5 {
        dedup_insert(&mut r5, tuple![*a, *c, *e], &mut seen, *p);
    }
    catalog.register_table("R1", r1).unwrap();
    catalog.register_table("R2", r2).unwrap();
    catalog.register_table("R3", r3).unwrap();
    catalog.register_table("R4", r4).unwrap();
    catalog.register_table("R5", r5).unwrap();
    catalog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn branching_one_scan_tree_agrees_with_oracle(db in branching_strategy()) {
        let catalog = build_branching(&db);
        let q = ConjunctiveQuery::build(
            &[
                ("R1", &["a"]),
                ("R2", &["a", "b"]),
                ("R3", &["a", "b", "d"]),
                ("R4", &["a", "c"]),
                ("R5", &["a", "c", "e"]),
            ],
            &[],
            vec![],
        )
        .unwrap();
        let order: Vec<String> = ["R1", "R2", "R3", "R4", "R5"].iter().map(|s| s.to_string()).collect();
        let answer = evaluate_join_order(&q, &catalog, &order).unwrap();
        let sig = query_signature(&q, &FdSet::empty()).unwrap();
        prop_assert!(sig.is_one_scan(), "signature {} should be 1scan", sig);
        let op = ConfidenceOperator::new(sig);
        assert_matches_oracle(&op, &answer, Strategy::OneScan)?;
        assert_matches_oracle(&op, &answer, Strategy::GrpSemantics)?;
        assert_matches_oracle(&op, &answer, Strategy::Auto)?;
    }

    #[test]
    fn many_to_many_product_agrees_with_oracle(
        r in proptest::collection::vec((1i64..=3, 1i64..=3, prob()), 1..5),
        s in proptest::collection::vec((1i64..=3, 1i64..=3, prob()), 1..5),
    ) {
        // R(a,b) ⋈ S(a,c): the Boolean query has signature (R*S*)*, which is
        // not 1scan and exercises the multi-scan scheduling.
        let catalog = Catalog::new();
        let mut var = 0u64;
        let mut next = || { var += 1; Variable(var) };
        let mut rt = ProbTable::new(Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap());
        let mut seen = BTreeSet::new();
        for (a, b, p) in &r {
            if seen.insert((*a, *b)) {
                rt.insert(tuple![*a, *b], next(), *p).unwrap();
            }
        }
        let mut st = ProbTable::new(Schema::from_pairs(&[("a", DataType::Int), ("c", DataType::Int)]).unwrap());
        let mut seen = BTreeSet::new();
        for (a, c, p) in &s {
            if seen.insert((*a, *c)) {
                st.insert(tuple![*a, *c], next(), *p).unwrap();
            }
        }
        catalog.register_table("R", rt).unwrap();
        catalog.register_table("S", st).unwrap();
        let q = ConjunctiveQuery::build(&[("R", &["a", "b"]), ("S", &["a", "c"])], &[], vec![]).unwrap();
        let order: Vec<String> = ["R", "S"].iter().map(|s| s.to_string()).collect();
        let answer = evaluate_join_order(&q, &catalog, &order).unwrap();
        let sig = query_signature(&q, &FdSet::empty()).unwrap();
        prop_assert!(!sig.is_one_scan());
        let op = ConfidenceOperator::new(sig);
        assert_matches_oracle(&op, &answer, Strategy::Auto)?;
        assert_matches_oracle(&op, &answer, Strategy::GrpSemantics)?;
    }

    #[test]
    fn non_boolean_projection_groups_agree_with_oracle(
        r in proptest::collection::vec((1i64..=3, 1i64..=3, prob()), 1..6),
        s in proptest::collection::vec((1i64..=3, 1i64..=2, prob()), 1..6),
    ) {
        // π_b (R(a,b) ⋈ S(a,c)): several distinct answer tuples, each its own
        // bag of duplicates.
        let catalog = Catalog::new();
        let mut var = 0u64;
        let mut next = || { var += 1; Variable(var) };
        let mut rt = ProbTable::new(Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap());
        let mut seen = BTreeSet::new();
        for (a, b, p) in &r {
            if seen.insert((*a, *b)) {
                rt.insert(tuple![*a, *b], next(), *p).unwrap();
            }
        }
        let mut st = ProbTable::new(Schema::from_pairs(&[("a", DataType::Int), ("c", DataType::Int)]).unwrap());
        let mut seen = BTreeSet::new();
        for (a, c, p) in &s {
            if seen.insert((*a, *c)) {
                st.insert(tuple![*a, *c], next(), *p).unwrap();
            }
        }
        catalog.register_table("R", rt).unwrap();
        catalog.register_table("S", st).unwrap();
        let q = ConjunctiveQuery::build(&[("R", &["a", "b"]), ("S", &["a", "c"])], &["b"], vec![]).unwrap();
        let order: Vec<String> = ["S", "R"].iter().map(|s| s.to_string()).collect();
        let answer = evaluate_join_order(&q, &catalog, &order).unwrap();
        let sig = query_signature(&q, &FdSet::empty()).unwrap();
        let op = ConfidenceOperator::new(sig);
        assert_matches_oracle(&op, &answer, Strategy::Auto)?;
        assert_matches_oracle(&op, &answer, Strategy::GrpSemantics)?;
    }
}

// ---------------------------------------------------------------------------
// Scenario 2b (PR 2): the parallel confidence engine. At every thread count
// the three strategies must produce tuple orders and probabilities that are
// bitwise-identical to their single-threaded runs, agree with each other,
// and stay within 1e-9 of the brute-force oracle.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_confidences_are_bitwise_identical_across_thread_counts(
        db in cust_ord_item_strategy(),
        boolean in proptest::bool::ANY,
    ) {
        use pdb_conf::grp::grp_confidences_with;

        let catalog = build_cust_ord_item(&db);
        let q = guiding_query(boolean);
        let order: Vec<String> =
            ["Cust", "Ord", "Item"].iter().map(|s| s.to_string()).collect();
        let answer = evaluate_join_order(&q, &catalog, &order).unwrap();
        let fds = if db.with_keys {
            FdSet::from_catalog_decls(&catalog.fds())
        } else {
            FdSet::empty()
        };
        let sig = query_signature(&q, &fds).unwrap();
        let oracle = brute_force_confidences(&answer);

        // Single-threaded runs of every applicable strategy ...
        let seq = Pool::sequential();
        let multi_1 = multi_scan_on(&answer, &sig, &seq, SplitPolicy::default()).unwrap();
        let grp_1 = grp_confidences_with(&answer, &sig, &seq).unwrap();
        let one_1 = if sig.is_one_scan() {
            Some(one_scan_on(&answer, &sig, &seq, SplitPolicy::default()).unwrap())
        } else {
            None
        };

        // ... agree with the oracle and with each other.
        for (name, result) in [("multi-scan", &multi_1), ("grp", &grp_1)]
            .into_iter()
            .chain(one_1.iter().map(|r| ("one-scan", r)))
        {
            prop_assert_eq!(result.len(), oracle.len(), "{} vs oracle", name);
            for ((t1, p1), (t2, p2)) in result.iter().zip(oracle.iter()) {
                prop_assert_eq!(t1, t2, "{}", name);
                prop_assert!(
                    (p1 - p2).abs() < 1e-9,
                    "{}: tuple {} got {} expected {}", name, t1, p1, p2
                );
            }
        }

        // Parallel runs are bitwise-identical to the single-threaded ones,
        // in tuple order and probability bits.
        type Confidences = Vec<(pdb_storage::Tuple, f64)>;
        for threads in [2usize, 4, 8] {
            let pool = Pool::new(threads);
            let runs: Vec<(&str, &Confidences, Confidences)> = {
                let mut r = vec![
                    ("multi-scan", &multi_1, multi_scan_on(&answer, &sig, &pool, SplitPolicy::default()).unwrap()),
                    ("grp", &grp_1, grp_confidences_with(&answer, &sig, &pool).unwrap()),
                ];
                if let Some(one_1) = &one_1 {
                    r.push(("one-scan", one_1, one_scan_on(&answer, &sig, &pool, SplitPolicy::default()).unwrap()));
                }
                r
            };
            for (name, sequential, parallel) in runs {
                prop_assert_eq!(sequential.len(), parallel.len(), "{} at {} threads", name, threads);
                for ((t1, p1), (t2, p2)) in sequential.iter().zip(parallel.iter()) {
                    prop_assert_eq!(t1, t2, "{} at {} threads", name, threads);
                    prop_assert_eq!(
                        p1.to_bits(), p2.to_bits(),
                        "{} at {} threads: tuple {} got {} expected {}", name, threads, t1, p2, p1
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario 2c (PR 3): intra-bag splitting. Boolean queries force the whole
// answer into a single bag — exactly the shape bag-level fan-out cannot
// parallelise — so a tiny split threshold exercises the root-level partition
// splitting and its fixed-shape independent_or merge on proptest-sized
// inputs. The split result must be bitwise-identical to the never-split
// sequential scan at every worker count (Pool::new(t) pins what
// SPROUT_THREADS ∈ {1, 2, 4, 8} would select engine-wide) and stay within
// 1e-9 of the brute-force oracle.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn forced_single_bag_split_is_bitwise_identical_and_matches_brute_force(
        db in branching_strategy(),
        min_rows in 2usize..6,
    ) {

        let catalog = build_branching(&db);
        // Boolean: one huge bag with a branching (internal-root) 1scanTree.
        let q = ConjunctiveQuery::build(
            &[
                ("R1", &["a"]),
                ("R2", &["a", "b"]),
                ("R3", &["a", "b", "d"]),
                ("R4", &["a", "c"]),
                ("R5", &["a", "c", "e"]),
            ],
            &[],
            vec![],
        )
        .unwrap();
        let order: Vec<String> =
            ["R1", "R2", "R3", "R4", "R5"].iter().map(|s| s.to_string()).collect();
        let answer = evaluate_join_order(&q, &catalog, &order).unwrap();
        let sig = query_signature(&q, &FdSet::empty()).unwrap();
        prop_assert!(sig.is_one_scan());
        if answer.is_empty() {
            return Ok(());
        }

        let unsplit = one_scan_on(
            &answer, &sig, &Pool::sequential(), SplitPolicy::never(),
        ).unwrap();
        prop_assert_eq!(unsplit.len(), 1, "Boolean answer is one bag");
        let oracle = brute_force_confidences(&answer);
        prop_assert!(
            (unsplit[0].1 - oracle[0].1).abs() < 1e-9,
            "unsplit {} vs oracle {}", unsplit[0].1, oracle[0].1
        );
        for threads in [1usize, 2, 4, 8] {
            let split = one_scan_on(
                &answer, &sig, &Pool::new(threads), SplitPolicy::at(min_rows),
            ).unwrap();
            prop_assert_eq!(split.len(), 1);
            prop_assert_eq!(
                split[0].1.to_bits(), unsplit[0].1.to_bits(),
                "{} threads, min_rows {}: split {} vs unsplit {}",
                threads, min_rows, split[0].1, unsplit[0].1
            );
        }
    }

    #[test]
    fn leaf_root_single_bag_split_is_bitwise_identical(
        r in proptest::collection::vec((1i64..=6, 1i64..=4, prob()), 1..16),
    ) {

        // A Boolean single-table query: signature R*, a *leaf* root. The
        // same (tuple, variable, p) rows are inserted twice: with the
        // variables descending in row order, so the scan's answer takes the
        // sort and the split — which replays the per-variable crtP fold
        // rather than per-partition closes — and ascending, so it is folded
        // in arrival order.
        let mut rows = Vec::new();
        let mut seen = BTreeSet::new();
        for (a, b, p) in &r {
            if seen.insert((*a, *b)) {
                rows.push((*a, *b, Variable(rows.len() as u64 + 1), *p));
            }
        }
        let scanned = |rows: &mut dyn Iterator<Item = &(i64, i64, Variable, f64)>| {
            let mut rt = ProbTable::new(
                Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap(),
            );
            for (a, b, var, p) in rows {
                rt.insert(tuple![*a, *b], *var, *p).unwrap();
            }
            let catalog = Catalog::new();
            catalog.register_table("R", rt).unwrap();
            let q = ConjunctiveQuery::build(&[("R", &["a", "b"])], &[], vec![]).unwrap();
            let order: Vec<String> = vec!["R".to_string()];
            let answer = evaluate_join_order(&q, &catalog, &order).unwrap();
            (answer, query_signature(&q, &FdSet::empty()).unwrap())
        };
        let (descending, sig) = scanned(&mut rows.iter().rev());
        let (ascending, _) = scanned(&mut rows.iter());
        prop_assert!(sig.is_one_scan());
        let var_at = |answer: &Annotated, r: usize| answer.row(r).lineage[0].0;
        if rows.len() > 1 {
            prop_assert!(var_at(&descending, 0) > var_at(&descending, 1));
            prop_assert!(var_at(&ascending, 0) < var_at(&ascending, 1));
        }

        let unsplit = one_scan_on(
            &descending, &sig, &Pool::sequential(), SplitPolicy::never(),
        ).unwrap();
        let arrival = one_scan_on(
            &ascending, &sig, &Pool::sequential(), SplitPolicy::never(),
        ).unwrap();
        let oracle = brute_force_confidences(&ascending);
        prop_assert_eq!(unsplit.len(), oracle.len());
        prop_assert_eq!(arrival.len(), oracle.len());
        for (((t1, p1), (t2, p2)), (t3, p3)) in unsplit.iter().zip(&arrival).zip(&oracle) {
            prop_assert_eq!(t1, t3);
            prop_assert_eq!(t2, t3);
            prop_assert!((p1 - p3).abs() < 1e-9, "unsplit {} vs oracle {}", p1, p3);
            prop_assert_eq!(
                p1.to_bits(), p2.to_bits(), "sorted {} vs arrival order {}", p1, p2
            );
        }
        for threads in [1usize, 2, 4, 8] {
            let pool = Pool::new(threads);
            for answer in [&descending, &ascending] {
                let split = one_scan_on(answer, &sig, &pool, SplitPolicy::at(2)).unwrap();
                prop_assert_eq!(split.len(), unsplit.len());
                for ((t1, p1), (t2, p2)) in split.iter().zip(unsplit.iter()) {
                    prop_assert_eq!(t1, t2, "{} threads", threads);
                    prop_assert_eq!(
                        p1.to_bits(), p2.to_bits(),
                        "{} threads: split {} vs unsplit {}", threads, p1, p2
                    );
                }
            }
        }
    }

    #[test]
    fn split_multi_scan_pre_aggregation_is_bitwise_identical(
        r in proptest::collection::vec((1i64..=3, 1i64..=3, prob()), 1..6),
        s in proptest::collection::vec((1i64..=3, 1i64..=3, prob()), 1..6),
    ) {

        // R(a,b) ⋈ S(a,c) Boolean: signature (R*S*)*, not 1scan, so the
        // multi-scan schedule runs pre-aggregations whose groups also split.
        let catalog = Catalog::new();
        let mut var = 0u64;
        let mut next = || { var += 1; Variable(var) };
        let mut rt = ProbTable::new(Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap());
        let mut seen = BTreeSet::new();
        for (a, b, p) in &r {
            if seen.insert((*a, *b)) {
                rt.insert(tuple![*a, *b], next(), *p).unwrap();
            }
        }
        let mut st = ProbTable::new(Schema::from_pairs(&[("a", DataType::Int), ("c", DataType::Int)]).unwrap());
        let mut seen = BTreeSet::new();
        for (a, c, p) in &s {
            if seen.insert((*a, *c)) {
                st.insert(tuple![*a, *c], next(), *p).unwrap();
            }
        }
        catalog.register_table("R", rt).unwrap();
        catalog.register_table("S", st).unwrap();
        let q = ConjunctiveQuery::build(&[("R", &["a", "b"]), ("S", &["a", "c"])], &[], vec![]).unwrap();
        let order: Vec<String> = ["R", "S"].iter().map(|s| s.to_string()).collect();
        let answer = evaluate_join_order(&q, &catalog, &order).unwrap();
        let sig = query_signature(&q, &FdSet::empty()).unwrap();
        prop_assert!(!sig.is_one_scan());

        let unsplit = multi_scan_on(
            &answer, &sig, &Pool::sequential(), SplitPolicy::never(),
        ).unwrap();
        let oracle = brute_force_confidences(&answer);
        prop_assert_eq!(unsplit.len(), oracle.len());
        for ((t1, p1), (t2, p2)) in unsplit.iter().zip(oracle.iter()) {
            prop_assert_eq!(t1, t2);
            prop_assert!((p1 - p2).abs() < 1e-9, "unsplit {} vs oracle {}", p1, p2);
        }
        for threads in [2usize, 4, 8] {
            let split = multi_scan_on(
                &answer, &sig, &Pool::new(threads), SplitPolicy::at(2),
            ).unwrap();
            prop_assert_eq!(split.len(), unsplit.len());
            for ((t1, p1), (t2, p2)) in split.iter().zip(unsplit.iter()) {
                prop_assert_eq!(t1, t2, "{} threads", threads);
                prop_assert_eq!(
                    p1.to_bits(), p2.to_bits(),
                    "{} threads: split {} vs unsplit {}", threads, p1, p2
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario 2d: single-relation answers folded in arrival order. An answer
// whose 1scanTree is one leaf (signature R*) and whose bags' variables
// ascend is folded row by row into hashed bags instead of being sorted; it
// must give the tuples, confidence bits and bag counters of the sorted
// scan, at every pool size. Cells mix NULL, `Int(2)` with `Float(2.0)`,
// `±0.0`, NaN and short strings; variables ascend and sometimes repeat.
// ---------------------------------------------------------------------------

/// Data cells the arrival-order property draws from: the first `k` of them
/// for a case's alphabet of `k`, so small alphabets make large bags whose
/// rows spell one key differently (`Int(2)` / `Float(2.0)`, `0.0` / `-0.0`).
fn arrival_cells() -> [Value; 10] {
    [
        Value::Int(2),
        Value::Float(2.0),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Null,
        Value::Float(f64::NAN),
        Value::str("a"),
        Value::Int(0),
        Value::str("b"),
        Value::str(""),
    ]
}

/// Probabilities at the edges of the `independent_or` fold, and between.
const ARRIVAL_PROBS: [f64; 7] = [0.0, 1.0, 1e-300, 1.0 - 1e-16, 0.5, 0.3, 0.9];

/// A single-relation answer over relation `R` with `cols` data columns.
/// Each row is `(cells, probability, repeat)`: `repeat` 0 repeats the
/// previous row whole (a duplicate derivation), 1 repeats its variable and
/// probability under the row's own cells, anything else takes the next
/// variable.
fn arrival_answer(cols: usize, alphabet: usize, rows: &[([usize; 3], usize, u8)]) -> Annotated {
    let names: Vec<(String, DataType)> = (0..cols)
        .map(|c| (format!("c{c}"), DataType::Int))
        .collect();
    let pairs: Vec<(&str, DataType)> = names.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let mut answer = Annotated::new(Schema::from_pairs(&pairs).unwrap(), vec!["R".into()]);
    let cells = arrival_cells();
    let mut prev: Option<(Vec<Value>, Variable, f64)> = None;
    for (picks, p, repeat) in rows {
        let own: Vec<Value> = picks[..cols]
            .iter()
            .map(|&i| cells[i % alphabet].clone())
            .collect();
        let (data, var, p) = match (&prev, repeat) {
            (Some((data, var, p)), 0) => (data.clone(), *var, *p),
            (Some((_, var, p)), 1) => (own, *var, *p),
            (prev, _) => {
                let next = prev.as_ref().map_or(1, |(_, var, _)| var.0 + 1);
                (own, Variable(next), ARRIVAL_PROBS[*p])
            }
        };
        answer.push(AnnotatedRow::new(Tuple::new(data.clone()), vec![(var, p)]));
        prev = Some((data, var, p));
    }
    answer
}

/// The bag counters the sorted scan tallies over `sorted` (in the one-scan
/// order): its runs of equal data, and those of at least `min_rows` rows.
fn sorted_bag_counters(sorted: &Annotated, min_rows: usize) -> (u64, u64) {
    let mut runs = Vec::new();
    for r in 0..sorted.len() {
        match runs.last_mut() {
            Some((start, len)) if sorted.row(*start).data == sorted.row(r).data => *len += 1,
            _ => runs.push((r, 1usize)),
        }
    }
    let huge = runs.iter().filter(|(_, len)| *len >= min_rows).count();
    (runs.len() as u64, huge as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_relation_answers_fold_in_arrival_order_as_the_sorted_scan(
        cols in 0usize..=3,
        alphabet in 1usize..=10,
        rows in proptest::collection::vec(
            ((0usize..10, 0usize..10, 0usize..10), 0usize..ARRIVAL_PROBS.len(), 0u8..6),
            0..48,
        ),
        min_rows in 0usize..8,
    ) {
        let rows: Vec<([usize; 3], usize, u8)> =
            rows.into_iter().map(|((a, b, c), p, rep)| ([a, b, c], p, rep)).collect();
        let answer = arrival_answer(cols, alphabet, &rows);
        let sig = Signature::star(Signature::table("R"));
        let policy = SplitPolicy::at(min_rows);
        let mut sorted = answer.clone();
        sort_for_signature(&mut sorted, &sig).unwrap();
        let want = one_scan_confidences_presorted_tuned(
            &sorted, &sig, &Pool::sequential(), policy,
        ).unwrap();
        let (bags, huge) = sorted_bag_counters(&sorted, min_rows.max(2));
        prop_assert_eq!(want.len() as u64, bags);
        for threads in [1usize, 2, 8] {
            let obs = QueryObs::new();
            let ctx = ExecContext::unbounded().with_obs(obs.clone());
            let got = one_scan_confidences_ctx(&answer, &sig, &Pool::new(threads), policy, &ctx)
                .unwrap();
            prop_assert_eq!(got.len(), want.len(), "{} threads", threads);
            for ((t1, p1), (t2, p2)) in got.iter().zip(&want) {
                // The tuple's own spelling: `Int(2)` is not `Float(2.0)` here.
                prop_assert_eq!(format!("{t1:?}"), format!("{t2:?}"), "{} threads", threads);
                prop_assert_eq!(
                    p1.to_bits(), p2.to_bits(),
                    "{} threads, {}: arrival order {} vs sorted {}", threads, t1, p1, p2
                );
            }
            prop_assert_eq!(obs.get(Counter::ConfBags), bags, "{} threads", threads);
            prop_assert_eq!(obs.get(Counter::ConfHugeBags), huge, "{} threads", threads);
        }
    }
}

// ---------------------------------------------------------------------------
// Scenario 3 (PR 1): the optimized pipeline — normalized-key join, the sort
// into the one-scan order, streaming one-scan — against the brute-force
// oracle.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn optimized_pipeline_agrees_with_brute_force(
        db in branching_strategy(),
        boolean in proptest::bool::ANY,
    ) {
        let catalog = build_branching(&db);
        let q = ConjunctiveQuery::build(
            &[
                ("R1", &["a"]),
                ("R2", &["a", "b"]),
                ("R3", &["a", "b", "d"]),
                ("R4", &["a", "c"]),
                ("R5", &["a", "c", "e"]),
            ],
            if boolean { &[] } else { &["a"] },
            vec![],
        )
        .unwrap();
        let order: Vec<String> =
            ["R1", "R2", "R3", "R4", "R5"].iter().map(|s| s.to_string()).collect();
        // Optimized join path (normalized u64 keys, arena append).
        let answer = evaluate_join_order(&q, &catalog, &order).unwrap();
        let sig = query_signature(&q, &FdSet::empty()).unwrap();
        prop_assert!(sig.is_one_scan());

        // Sort into the one-scan order, then the streaming scan.
        let mut sorted = answer.clone();
        sort_for_signature(&mut sorted, &sig).unwrap();
        let ours =
            one_scan_confidences_presorted_tuned(
                &sorted, &sig, &Pool::from_env(), SplitPolicy::default(),
            ).unwrap();
        let oracle = brute_force_confidences(&answer);
        prop_assert_eq!(ours.len(), oracle.len());
        for ((t1, p1), (t2, p2)) in ours.iter().zip(oracle.iter()) {
            prop_assert_eq!(t1, t2);
            prop_assert!(
                (p1 - p2).abs() < 1e-9,
                "pipeline {} vs oracle {} for {}", p1, p2, t1
            );
        }
    }
}
