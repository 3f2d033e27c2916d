//! The eager plan — and the MystiQ safe plan, which walks the same tree —
//! against the possible-worlds oracle.
//!
//! `EagerPlan::execute` aggregates after every table and every join; the
//! oracle (`brute_force_confidences`) Shannon-expands the lineage of the
//! plain join answer. They must agree on generated instances — including
//! leaves whose rows repeat a variable — and the eager answer must be
//! bitwise-identical at pools {1, 2, 8}. Every instance holds `SafePlan`
//! (stable aggregation) to the same oracle, bitwise-identical at those pools
//! and on both storage backings. Two fixed instances add the shapes a small
//! generator cannot reach: runs longer than 1024 rows and runs whose rows
//! straddle every fan-out boundary of the key build, the sort and the
//! collapse. A third holds the grouping shell's paths for inputs that arrive
//! sorted — leaves in key order with one row per key (the collapse moves
//! their data arena), sorted leaves with duplicates, and shuffled ones — to
//! one closed form, on both backings.
//!
//! The walk scans its leaves with semi-join reduction first: each leaf is
//! filtered by the key sets of the leaves scanned before it. A generated
//! three-relation chain `R(a, r) ⋈ S(a, b) ⋈ T(b, t)`, whose selective `R`
//! filters `S` and, through `S`'s surviving keys, `T` — two hops — holds
//! the reduction to the oracle with NULL join keys, an `S.a` column that
//! spells its keys as integers and floats alike (a `Mixed` column once
//! columnar), and an `R` selection that keeps no row. The hybrid plan's join
//! walk reduces each scan after the first by the running result's keys; the
//! same chain, its repeated tuples dropped, holds it to the oracle with
//! every subset of the relations pushed down.

use proptest::prelude::*;

use pdb_conf::ConfidenceResult;
use pdb_exec::pipeline::evaluate_join_order;
use pdb_query::{CompareOp, Predicate};
use pdb_query::{ConjunctiveQuery, FdSet};
use pdb_storage::{
    tuple, Catalog, ColumnarTable, DataType, ProbTable, Schema, Tuple, Value, Variable,
};
use pdb_testkit::brute_force_confidences;
use sprout_plan::eager::EagerPlan;
use sprout_plan::hybrid::HybridPlan;
use sprout_plan::safe::SafePlan;
use sprout_plan::{PlanResult, Pool};

const POOL_SIZES: [usize; 3] = [1, 2, 8];

/// Runs a plan at every pool size on every catalog, asserts the answers are
/// bitwise equal, and returns the first catalog's one-thread answer.
fn at_every_pool_size(
    catalogs: &[&Catalog],
    run: impl Fn(Pool, &Catalog) -> PlanResult<ConfidenceResult>,
) -> ConfidenceResult {
    let reference = run(Pool::new(1), catalogs[0]).unwrap();
    for (c, catalog) in catalogs.iter().enumerate() {
        for threads in POOL_SIZES {
            let got = run(Pool::new(threads), catalog).unwrap();
            assert_eq!(got.len(), reference.len(), "catalog {c}, {threads} threads");
            for ((t1, p1), (t2, p2)) in got.iter().zip(reference.iter()) {
                assert_eq!(t1, t2, "catalog {c}, {threads} threads");
                assert_eq!(
                    p1.to_bits(),
                    p2.to_bits(),
                    "catalog {c}, {threads} threads: {t1}"
                );
            }
        }
    }
    reference
}

fn eager_at_every_pool_size(q: &ConjunctiveQuery, catalog: &Catalog) -> ConfidenceResult {
    let plan = EagerPlan::build(q, &FdSet::empty()).expect("query is hierarchical");
    at_every_pool_size(&[catalog], |pool, catalog| {
        plan.clone().with_pool(pool).execute(catalog)
    })
}

/// `catalog`'s tables, columnar.
fn columnar_twin(catalog: &Catalog) -> Catalog {
    let columnar = Catalog::new();
    for name in catalog.table_names() {
        let table = catalog.table(&name).unwrap();
        let twin = ColumnarTable::from_prob_table(&table, &Pool::new(1)).unwrap();
        columnar.register_columnar(name, twin).unwrap();
    }
    columnar
}

/// The MystiQ safe plan (stable aggregation) at every pool size on `catalog`
/// and on its columnar twin.
fn mystiq_at_every_pool_size_and_backing(
    q: &ConjunctiveQuery,
    catalog: &Catalog,
) -> ConfidenceResult {
    let columnar = columnar_twin(catalog);
    let plan = SafePlan::build(q, &FdSet::empty()).expect("query is hierarchical");
    at_every_pool_size(&[catalog, &columnar], |pool, catalog| {
        plan.clone().with_pool(pool).execute(catalog)
    })
}

/// The oracle over the plain join answer, on a thread with room for the
/// Shannon expansion's recursion (one frame per variable of a long run).
fn oracle(q: &ConjunctiveQuery, catalog: &Catalog) -> ConfidenceResult {
    let order: Vec<String> = q.relations.iter().map(|r| r.name.clone()).collect();
    let answer = evaluate_join_order(q, catalog, &order).unwrap();
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn_scoped(scope, || brute_force_confidences(&answer))
            .expect("spawning the oracle thread")
            .join()
            .expect("the oracle does not panic")
    })
}

fn assert_close(plan: &ConfidenceResult, oracle: &ConfidenceResult) {
    assert_eq!(plan.len(), oracle.len());
    for ((t1, p1), (t2, p2)) in plan.iter().zip(oracle.iter()) {
        assert_eq!(t1, t2);
        assert!((p1 - p2).abs() < 1e-9, "{t1}: plan {p1} vs oracle {p2}");
    }
}

// ---------------------------------------------------------------------------
// Generated instances of the guiding Cust ⋈ Ord ⋈ Item query.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct CustOrdItem {
    cust: Vec<(i64, i64, f64)>,       // (ckey, name id, prob)
    ord: Vec<(i64, i64, i64, f64)>,   // (okey, ckey, odate id, prob)
    item: Vec<(i64, i64, f64, bool)>, // (okey, ckey, prob, repeats a variable)
}

/// A probability in a comfortable range away from 0 and 1.
fn prob() -> impl Strategy<Value = f64> {
    (1u32..=9).prop_map(|i| f64::from(i) / 10.0)
}

fn cust_ord_item_strategy() -> impl Strategy<Value = CustOrdItem> {
    let cust = proptest::collection::vec((1i64..=3, 1i64..=2, prob()), 1..4);
    let ord = proptest::collection::vec((1i64..=4, 1i64..=3, 1i64..=2, prob()), 1..5);
    let item = proptest::collection::vec((1i64..=4, 1i64..=3, prob(), proptest::bool::ANY), 1..8);
    (cust, ord, item).prop_map(|(cust, ord, item)| CustOrdItem { cust, ord, item })
}

/// Every row gets a fresh variable, except an `Item` row flagged `repeats`:
/// it reuses the variable (and probability) of the previous `Item` row with
/// the same `(okey, ckey)` — the columns the eager leaf groups by — under a
/// different discount, so the leaf sees one variable on several rows of one
/// run.
fn build_cust_ord_item(db: &CustOrdItem) -> Catalog {
    let mut var = 0u64;
    let mut next = || {
        var += 1;
        Variable(var)
    };
    let mut cust = ProbTable::new(
        Schema::from_pairs(&[("ckey", DataType::Int), ("cname", DataType::Str)]).unwrap(),
    );
    for (ckey, name, p) in &db.cust {
        cust.insert(tuple![*ckey, format!("name{name}")], next(), *p)
            .unwrap();
    }
    let mut ord = ProbTable::new(
        Schema::from_pairs(&[
            ("okey", DataType::Int),
            ("ckey", DataType::Int),
            ("odate", DataType::Str),
        ])
        .unwrap(),
    );
    for (okey, ckey, odate, p) in &db.ord {
        ord.insert(tuple![*okey, *ckey, format!("date{odate}")], next(), *p)
            .unwrap();
    }
    let mut item = ProbTable::new(
        Schema::from_pairs(&[
            ("okey", DataType::Int),
            ("ckey", DataType::Int),
            ("discount", DataType::Float),
        ])
        .unwrap(),
    );
    let mut last: std::collections::BTreeMap<(i64, i64), (Variable, f64)> = Default::default();
    for (i, (okey, ckey, p, repeats)) in db.item.iter().enumerate() {
        let (v, p) = match last.get(&(*okey, *ckey)) {
            Some(&earlier) if *repeats => earlier,
            _ => (next(), *p),
        };
        last.insert((*okey, *ckey), (v, p));
        item.insert(tuple![*okey, *ckey, 0.01 * i as f64], v, p)
            .unwrap();
    }
    let catalog = Catalog::new();
    catalog.register_table("Cust", cust).unwrap();
    catalog.register_table("Ord", ord).unwrap();
    catalog.register_table("Item", item).unwrap();
    catalog
}

fn guiding_query(head: &[&str]) -> ConjunctiveQuery {
    ConjunctiveQuery::build(
        &[
            ("Cust", &["ckey", "cname"]),
            ("Ord", &["okey", "ckey", "odate"]),
            ("Item", &["okey", "ckey", "discount"]),
        ],
        head,
        vec![],
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn eager_agrees_with_the_oracle_on_generated_instances(
        db in cust_ord_item_strategy(),
        head_pick in 0usize..4,
    ) {
        let heads: [&[&str]; 4] = [&[], &["odate"], &["cname"], &["ckey", "odate"]];
        let q = guiding_query(heads[head_pick]);
        let catalog = build_cust_ord_item(&db);
        let oracle = oracle(&q, &catalog);
        assert_close(&eager_at_every_pool_size(&q, &catalog), &oracle);
        assert_close(&mystiq_at_every_pool_size_and_backing(&q, &catalog), &oracle);
    }
}

// ---------------------------------------------------------------------------
// Fixed instances: long runs, runs straddling the fan-out boundaries.
// ---------------------------------------------------------------------------

/// `R(g, x)` projected onto `g`: group 0 is a leaf run of 1300 rows, the
/// other six groups ~180 rows each, all interleaved in input order so every
/// run has rows in every chunk of an 8-way split. Every fifth row repeats
/// the variable of the row 120 before it (same group, different `x`).
#[test]
fn a_leaf_run_longer_than_1024_rows_interleaved_across_every_chunk() {
    let mut table =
        ProbTable::new(Schema::from_pairs(&[("g", DataType::Int), ("x", DataType::Int)]).unwrap());
    let rows = 2400usize;
    let group_of = |i: usize| if i % 24 < 13 { 0 } else { (i % 6 + 1) as i64 };
    for i in 0..rows {
        // 120 is a multiple of 24 and of 6, so row `i - 120` is in row
        // `i`'s group.
        let source = if i % 5 == 0 && i >= 120 { i - 120 } else { i };
        let p = 0.0001 + 0.0002 * (source % 13) as f64;
        table
            .insert(tuple![group_of(i), i as i64], Variable(source as u64), p)
            .unwrap();
    }
    let catalog = Catalog::new();
    catalog.register_table("R", table).unwrap();
    let q = ConjunctiveQuery::build(&[("R", &["g", "x"])], &["g"], vec![]).unwrap();
    let eager = eager_at_every_pool_size(&q, &catalog);
    assert_eq!(eager.len(), 7);
    let oracle = oracle(&q, &catalog);
    assert_close(&eager, &oracle);
    // The repeats are 120 rows apart, so the safe plan is right here only
    // because its leaf, too, orders a run by variable and counts each once.
    assert_close(
        &mystiq_at_every_pool_size_and_backing(&q, &catalog),
        &oracle,
    );
}

/// `R(a, b) ⋈ S(a, c)` projected onto `b`: the join of the two aggregated
/// leaves has one row per `a`, and the inner node's run for `b = 0` collects
/// 1100 of them (the others ~200 each), interleaved in join-emit order.
/// Every third `a` has two `S` rows, so the `S` leaf really aggregates.
///
/// Shannon expansion is exponential on 1100 independent two-variable
/// clauses, so this instance is held against the closed form instead: the
/// derivations of different `a` share no variable, hence
/// `P(b) = 1 − Π_a (1 − p_R(a) · (1 − Π_copies (1 − p_S)))`.
#[test]
fn an_inner_node_run_longer_than_1024_rows_straddling_fan_out_boundaries() {
    let mut r =
        ProbTable::new(Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap());
    let mut s =
        ProbTable::new(Schema::from_pairs(&[("a", DataType::Int), ("c", DataType::Int)]).unwrap());
    let keys = 1700u64;
    let mut none_derived = [1.0f64; 4];
    for a in 0..keys {
        // Scatter the keys so neither table is sorted on `a`.
        let a = (a * 611) % keys;
        let b = if a % 17 < 11 { 0 } else { a % 3 + 1 };
        let p_r = 0.0005 + 0.0001 * (a % 7) as f64;
        r.insert(tuple![a as i64, b as i64], Variable(a), p_r)
            .unwrap();
        let p_s = 0.3 + 0.05 * (a % 5) as f64;
        let mut no_s = 1.0;
        for copy in 0..=u64::from(a.is_multiple_of(3)) {
            s.insert(
                tuple![a as i64, copy as i64],
                Variable(10_000 + 2 * a + copy),
                p_s,
            )
            .unwrap();
            no_s *= 1.0 - p_s;
        }
        none_derived[b as usize] *= 1.0 - p_r * (1.0 - no_s);
    }
    let catalog = Catalog::new();
    catalog.register_table("R", r).unwrap();
    catalog.register_table("S", s).unwrap();
    let q =
        ConjunctiveQuery::build(&[("R", &["a", "b"]), ("S", &["a", "c"])], &["b"], vec![]).unwrap();
    let expected: ConfidenceResult = (0..4i64)
        .map(|b| (tuple![b], 1.0 - none_derived[b as usize]))
        .collect();
    assert_close(&eager_at_every_pool_size(&q, &catalog), &expected);
    assert_close(
        &mystiq_at_every_pool_size_and_backing(&q, &catalog),
        &expected,
    );
}

/// How the rows of [`keyed_join`]'s tables are arranged.
#[derive(Debug, Clone, Copy)]
enum Arrangement {
    /// One row per key, keys ascending: both leaves reach the grouping shell
    /// in key order with one row per group, so their collapse keeps the
    /// scan's data arena and rewrites its lineage only.
    KeyOrder,
    /// Keys ascending, every fourth `R` key and every third `S` key on two
    /// rows: the shell finds the order without sorting, and really groups.
    SortedWithDuplicates,
    /// The same rows with the keys scattered: the key path.
    Shuffled,
}

/// `R(a, b) ⋈ S(a, c)` projected onto `b` over 700 keys — enough rows for
/// every fan-out to engage — and the closed form of its answer: derivations
/// of different `a` share no variable, so
/// `P(b) = 1 − Π_a (1 − (1 − Π_R (1 − p_R)) · (1 − Π_S (1 − p_S)))`.
fn keyed_join(arrangement: Arrangement) -> (ConjunctiveQuery, Catalog, ConfidenceResult) {
    let mut r =
        ProbTable::new(Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap());
    let mut s =
        ProbTable::new(Schema::from_pairs(&[("a", DataType::Int), ("c", DataType::Int)]).unwrap());
    let keys = 700u64;
    let mut next_variable = 0u64;
    let mut none_derived = [1.0f64; 4];
    for k in 0..keys {
        let a = match arrangement {
            Arrangement::Shuffled => (k * 611) % keys,
            Arrangement::KeyOrder | Arrangement::SortedWithDuplicates => k,
        };
        let duplicated = !matches!(arrangement, Arrangement::KeyOrder);
        let b = if a % 17 < 11 { 0 } else { a % 3 + 1 };
        let (p_r, p_s) = (
            0.0005 + 0.0001 * (a % 7) as f64,
            0.3 + 0.05 * (a % 5) as f64,
        );
        let (mut no_r, mut no_s) = (1.0, 1.0);
        for _ in 0..=u64::from(duplicated && a.is_multiple_of(4)) {
            next_variable += 1;
            r.insert(tuple![a as i64, b as i64], Variable(next_variable), p_r)
                .unwrap();
            no_r *= 1.0 - p_r;
        }
        for copy in 0..=u64::from(duplicated && a.is_multiple_of(3)) {
            next_variable += 1;
            s.insert(tuple![a as i64, copy as i64], Variable(next_variable), p_s)
                .unwrap();
            no_s *= 1.0 - p_s;
        }
        none_derived[b as usize] *= 1.0 - (1.0 - no_r) * (1.0 - no_s);
    }
    let catalog = Catalog::new();
    catalog.register_table("R", r).unwrap();
    catalog.register_table("S", s).unwrap();
    let q =
        ConjunctiveQuery::build(&[("R", &["a", "b"]), ("S", &["a", "c"])], &["b"], vec![]).unwrap();
    let expected = (0..4i64)
        .map(|b| (tuple![b], 1.0 - none_derived[b as usize]))
        .collect();
    (q, catalog, expected)
}

#[test]
fn leaves_that_arrive_in_key_order_sorted_with_duplicates_or_shuffled() {
    for arrangement in [
        Arrangement::KeyOrder,
        Arrangement::SortedWithDuplicates,
        Arrangement::Shuffled,
    ] {
        let (q, catalog, expected) = keyed_join(arrangement);
        let columnar = columnar_twin(&catalog);
        let plan = EagerPlan::build(&q, &FdSet::empty()).expect("query is hierarchical");
        let eager = at_every_pool_size(&[&catalog, &columnar], |pool, catalog| {
            plan.clone().with_pool(pool).execute(catalog)
        });
        assert_close(&eager, &expected);
        assert_close(
            &mystiq_at_every_pool_size_and_backing(&q, &catalog),
            &expected,
        );
    }
}

// ---------------------------------------------------------------------------
// Semi-join reduction: a generated three-relation chain.
// ---------------------------------------------------------------------------

/// `R(a, r)`, `S(a, b)` and `T(b, t)`; `None` is a NULL key, and an `S` row
/// flagged `float` spells its `a` as a float.
#[derive(Debug, Clone)]
struct Chain {
    r: Vec<(Option<i64>, i64, f64)>,
    s: Vec<(Option<i64>, bool, Option<i64>, f64)>,
    t: Vec<(Option<i64>, i64, f64)>,
}

/// A key in `0..24`, NULL one time in eight.
fn key() -> impl Strategy<Value = Option<i64>> {
    (0i64..24, 0u32..8).prop_map(|(k, null)| (null > 0).then_some(k))
}

fn chain_strategy() -> impl Strategy<Value = Chain> {
    let r = proptest::collection::vec((key(), 0i64..4, prob()), 0..24);
    let s = proptest::collection::vec((key(), proptest::bool::ANY, key(), prob()), 0..40);
    let t = proptest::collection::vec((key(), 0i64..3, prob()), 0..24);
    (r, s, t).prop_map(|(r, s, t)| Chain { r, s, t })
}

fn build_chain(db: &Chain) -> Catalog {
    let key = |k: Option<i64>| k.map_or(Value::Null, Value::Int);
    let mut var = 0u64;
    let mut table = |columns: [(&str, DataType); 2], rows: Vec<(Value, Value, f64)>| {
        let mut table = ProbTable::new(Schema::from_pairs(&columns).unwrap());
        for (x, y, p) in rows {
            var += 1;
            table
                .insert(Tuple::new(vec![x, y]), Variable(var), p)
                .unwrap();
        }
        table
    };
    let r = (db.r.iter())
        .map(|&(a, r, p)| (key(a), Value::Int(r), p))
        .collect();
    let s = (db.s.iter())
        .map(|&(a, float, b, p)| {
            let a = match a {
                Some(a) if float => Value::Float(a as f64),
                a => key(a),
            };
            (a, key(b), p)
        })
        .collect();
    let t = (db.t.iter())
        .map(|&(b, t, p)| (key(b), Value::Int(t), p))
        .collect();
    let catalog = Catalog::new();
    let r = table([("a", DataType::Int), ("r", DataType::Int)], r);
    let s = table([("a", DataType::Float), ("b", DataType::Int)], s);
    let t = table([("b", DataType::Int), ("t", DataType::Int)], t);
    catalog.register_table("R", r).unwrap();
    catalog.register_table("S", s).unwrap();
    catalog.register_table("T", t).unwrap();
    catalog
}

/// `db` with every relation's repeated data tuples dropped after their first
/// row. The lazy confidence operator's signature takes an unstarred
/// relation to hold one variable per data tuple, so the hybrid plan is held
/// to the oracle on set relations only.
fn as_sets(db: &Chain) -> Chain {
    let mut seen = std::collections::BTreeSet::new();
    Chain {
        r: (db
            .r
            .iter()
            .filter(|(a, r, _)| seen.insert(("R", *a, Some(*r)))))
        .cloned()
        .collect(),
        s: (db
            .s
            .iter()
            .filter(|(a, _, b, _)| seen.insert(("S", *a, *b))))
        .cloned()
        .collect(),
        t: (db
            .t
            .iter()
            .filter(|(b, t, _)| seen.insert(("T", *b, Some(*t)))))
        .cloned()
        .collect(),
    }
}

/// The chain with `R.r = pick` (`pick = 4` keeps no `R` row), projected on
/// `head`.
fn chain_query(head: &[&str], pick: i64) -> ConjunctiveQuery {
    ConjunctiveQuery::build(
        &[("R", &["a", "r"]), ("S", &["a", "b"]), ("T", &["b", "t"])],
        head,
        vec![Predicate::new("R", "r", CompareOp::Eq, pick)],
    )
    .unwrap()
}

/// Within a few ulps of 1.0: the plans combine probabilities as
/// complements `1 − Π(1 − p)`, exact to the ulp of 1.0, not to that of a
/// small result.
fn assert_within_ulps(plan: &ConfidenceResult, oracle: &ConfidenceResult) {
    assert_eq!(plan.len(), oracle.len());
    for ((t1, p1), (t2, p2)) in plan.iter().zip(oracle.iter()) {
        assert_eq!(t1, t2);
        let within = (p1 - p2).abs() <= 8.0 * f64::EPSILON;
        assert!(within, "{t1}: plan {p1} vs oracle {p2}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reduced eager and MystiQ walks, and the hybrid plan's reduced
    /// join walk at every push set (on the chain's set relations), against
    /// the oracle, bitwise at every pool size and on both backings.
    #[test]
    fn reduced_walks_agree_with_the_oracle_on_a_chain(
        db in chain_strategy(),
        head_pick in 0usize..4,
        pick in 0i64..5,
    ) {
        let heads: [&[&str]; 4] = [&["b"], &["a", "b"], &["b", "t"], &["r", "b"]];
        let q = chain_query(heads[head_pick], pick);
        let catalog = build_chain(&db);
        let columnar = columnar_twin(&catalog);
        let oracle = oracle(&q, &catalog);
        let eager = EagerPlan::build(&q, &FdSet::empty()).expect("query is hierarchical");
        let got = at_every_pool_size(&[&catalog, &columnar], |pool, catalog| {
            eager.clone().with_pool(pool).execute(catalog)
        });
        assert_within_ulps(&got, &oracle);
        assert_within_ulps(&mystiq_at_every_pool_size_and_backing(&q, &catalog), &oracle);
        hybrid_agrees_with_the_oracle_at_every_push_set(&q, &db);
    }
}

/// The hybrid plan on `db`'s set relations with every subset of the chain
/// pushed down, against the oracle, bitwise at every pool size and on both
/// backings.
fn hybrid_agrees_with_the_oracle_at_every_push_set(q: &ConjunctiveQuery, db: &Chain) {
    let sets = build_chain(&as_sets(db));
    let columnar = columnar_twin(&sets);
    let want = oracle(q, &sets);
    for push in 0..8usize {
        let push: Vec<&str> = (["R", "S", "T"].into_iter().enumerate())
            .filter_map(|(i, r)| (push >> i & 1 == 1).then_some(r))
            .collect();
        let hybrid =
            HybridPlan::build(q, &FdSet::empty(), &sets, &push).expect("query is hierarchical");
        let got = at_every_pool_size(&[&sets, &columnar], |pool, catalog| {
            hybrid.clone().with_pool(pool).execute(catalog)
        });
        assert_within_ulps(&got, &want);
    }
}
