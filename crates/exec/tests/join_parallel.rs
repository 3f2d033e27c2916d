//! Property tests for the morsel-driven parallel relational pipeline (PR 4).
//!
//! The contract under test: every operator — the hash join above all, its
//! larger side cut into one morsel per worker — produces an [`Annotated`] that is **bitwise
//! identical** (values, lineage, row order) across `SPROUT_THREADS` ∈
//! {1, 2, 4, 8}, and identical to the join's definition, a nested loop
//! ([`joined_by_definition`]) that emits `(left row, right row)`
//! lexicographically by construction. Covered shapes include products (no
//! shared column) and high-skew key distributions (one hot key owning a
//! large fraction of both sides), NULL keys, and string/int/float key mixes.
//!
//! The projecting join (`natural_join_project_ctx`) is held to the join
//! followed by `project_ctx`, for every subset of the output columns.
//!
//! The flat chained join index (PR 19) adds its own corners, each held to the
//! same reference bit for bit: one long chain, all-distinct keys, keys that
//! share a bucket but not a hash, NULLs, cross-type numeric equals, strings
//! the build side never saw, empty sides.
//!
//! Join equality is the mixed three-word cell of a sort key, written out
//! here ([`mixed_cell`]): `pdb_exec::key::join_equal` is held to it, and
//! `join_hash` to hashing equal cells alike, over the cells where numbers
//! of two spellings meet (±2⁵³, 2⁵³ + 1, `i64::MAX` against 2⁶³, ±0.0,
//! NaN), dates beside integers, strings and NULL; a property joins sides
//! drawn from those cells against the nested loop, and another sides of
//! skewed sizes, the smaller one (which the join indexes) on either hand.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pdb_exec::key::{join_equal, join_hash, join_row_hash};
use pdb_exec::pipeline::evaluate_join_order_ctx;
use pdb_exec::{ops, Annotated, ExecContext, ExecError, GovernorBuilder};
use pdb_par::Pool;
use pdb_query::{CompareOp, ConjunctiveQuery, Predicate};
use pdb_storage::{tuple, Catalog, DataType, ProbTable, Schema, Value, Variable};

const POOLS: [usize; 4] = [1, 2, 4, 8];

/// Every operator here runs ungoverned: the subject is the pool size.
const CTX: ExecContext = ExecContext::unbounded();

/// A key value drawn from a skewed distribution: a configurable share of
/// rows takes the single hot key, the rest spread over a small domain of
/// ints, floats (including int-equal ones), and strings.
fn skewed_key(rng: &mut SmallRng, hot_pct: u64) -> Value {
    if rng.next_u64() % 100 < hot_pct {
        return Value::Int(7);
    }
    match rng.next_u64() % 6 {
        0 => Value::Null,
        1 => Value::Int((rng.next_u64() % 13) as i64 - 6),
        2 => Value::Float(((rng.next_u64() % 13) as f64 - 6.0) / 2.0),
        3 => Value::Float((rng.next_u64() % 13) as f64 - 6.0),
        4 => Value::str(["x", "y", "z", ""][(rng.next_u64() % 4) as usize]),
        _ => Value::Int(7), // extra hot-key mass
    }
}

/// Builds `L(k, b)` and `R(k, c)` with `left`/`right` rows and the given
/// hot-key percentage.
fn join_tables(seed: u64, left: usize, right: usize, hot_pct: u64) -> (Annotated, Annotated) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut var = 0u64;
    let lschema = Schema::from_pairs(&[("k", DataType::Int), ("b", DataType::Int)]).unwrap();
    let rschema = Schema::from_pairs(&[("k", DataType::Int), ("c", DataType::Str)]).unwrap();
    // ProbTable enforces per-column types only loosely through Value; build
    // the annotated inputs directly so keys can mix numeric types.
    let mut l = Annotated::new(lschema, vec!["L".into()]);
    for _ in 0..left {
        var += 1;
        l.push(pdb_exec::AnnotatedRow::new(
            pdb_storage::Tuple::new(vec![
                skewed_key(&mut rng, hot_pct),
                Value::Int((rng.next_u64() % 50) as i64),
            ]),
            vec![(Variable(var), 0.5)],
        ));
    }
    let mut r = Annotated::new(rschema, vec!["R".into()]);
    for _ in 0..right {
        var += 1;
        r.push(pdb_exec::AnnotatedRow::new(
            pdb_storage::Tuple::new(vec![
                skewed_key(&mut rng, hot_pct),
                Value::str(["u", "v", "w"][(rng.next_u64() % 3) as usize]),
            ]),
            vec![(Variable(var), 0.5)],
        ));
    }
    (l, r)
}

/// A join-key cell's mixed encoding `(type class, primary, tie-break)`,
/// written out, with a string's content beside it in place of its dictionary
/// code. Numbers share class 1: the primary is the value as an `f64` (NaN
/// one pattern, `-0.0` folded onto `0.0`) and the tie-break the exact
/// integer (a float's saturating cast; 0 for NaN), so `Int(2)` and
/// `Float(2.0)` are one cell while `Int(2⁵³ + 1)` and `Float(2⁵³)` are two.
fn mixed_cell(v: &Value) -> (u64, u64, u64, Option<&str>) {
    let float = |f: f64| {
        if f.is_nan() {
            f64::NAN.to_bits()
        } else if f == 0.0 {
            0
        } else {
            f.to_bits()
        }
    };
    match v {
        Value::Null => (0, 0, 0, None),
        Value::Int(i) => (1, float(*i as f64), *i as u64, None),
        Value::Float(f) => {
            let tie = if f.is_nan() { 0 } else { *f as i64 as u64 };
            (1, float(*f), tie, None)
        }
        Value::Str(s) => (2, 0, 0, Some(&**s)),
        Value::Date(d) => (3, *d as i64 as u64, 0, None),
        Value::Bool(b) => (4, *b as u64, 0, None),
    }
}

/// The natural join by its definition, a nested loop: every `(left row,
/// right row)` pair in that order whose shared columns hold equal
/// [`mixed_cell`]s, none of them NULL; the left row's values and then the
/// right row's other columns, the left lineage and then the right. (Equal
/// mixed cells are equal values, but for integers beyond ±2⁵³ against
/// floats, which `Value` compares through `f64`.)
fn joined_by_definition(l: &Annotated, r: &Annotated) -> Annotated {
    let (left, right) = (l.schema(), r.schema());
    let shared: Vec<(usize, usize)> = (0..left.len())
        .filter_map(|i| right.index_of(&left.column(i).name).ok().map(|j| (i, j)))
        .collect();
    let others: Vec<usize> = (0..right.len())
        .filter(|&j| !left.contains(&right.column(j).name))
        .collect();
    let columns = left
        .columns()
        .iter()
        .chain(others.iter().map(|&j| right.column(j)));
    let schema = Schema::new(columns.cloned().collect()).unwrap();
    let mut out = Annotated::new(schema, [l.relations(), r.relations()].concat());
    for lrow in l.iter() {
        for rrow in r.iter() {
            let equal = |&(i, j): &(usize, usize)| {
                !lrow.data[i].is_null() && mixed_cell(&lrow.data[i]) == mixed_cell(&rrow.data[j])
            };
            if shared.iter().all(equal) {
                let data: Vec<Value> = (lrow.data.iter())
                    .chain(others.iter().map(|&j| &rrow.data[j]))
                    .cloned()
                    .collect();
                out.push_row(&data, &[lrow.lineage, rrow.lineage].concat());
            }
        }
    }
    out
}

/// Asserts `got` equals `want` bitwise: schema, relations, row order, data
/// values and lineage pairs.
fn assert_identical(got: &Annotated, want: &Annotated, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: row count", what);
    prop_assert_eq!(got, want, "{}", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Natural-join determinism: identical output (values, lineage, row
    /// order) at every thread count, and equal to the join's definition,
    /// across hot-key skews from uniform to 90% one key.
    #[test]
    fn partitioned_join_is_identical_to_seed_at_every_thread_count(
        seed in 1u64..u64::MAX / 2,
        left in 80usize..400,
        right in 80usize..400,
        hot_pct in 0u64..90,
    ) {
        let (l, r) = join_tables(seed, left, right, hot_pct);
        let reference = joined_by_definition(&l, &r);
        for threads in POOLS {
            let joined = ops::natural_join_ctx(&l, &r, &Pool::new(threads), &CTX).unwrap();
            assert_identical(&joined, &reference, &format!("join at {threads} threads"))?;
        }
    }

    /// The projecting join writes what the join followed by `project_ctx`
    /// writes, bit for bit, for every subset of the output columns — in
    /// schema order and reversed — at every pool size, over string, NULL
    /// and duplicate keys; and what a governor is charged and the
    /// checkpoints it passes are the same at every pool size.
    #[test]
    fn projecting_join_is_the_join_then_the_projection(
        seed in 1u64..u64::MAX / 2,
        left in 40usize..200,
        right in 40usize..200,
        hot_pct in 0u64..90,
    ) {
        let (l, r) = join_tables(seed, left, right, hot_pct);
        let joined = ops::natural_join_ctx(&l, &r, &Pool::sequential(), &CTX).unwrap();
        let names: Vec<String> = joined.schema().names().iter().map(|n| n.to_string()).collect();
        prop_assert_eq!(names.len(), 3);
        for subset in 0..1u32 << names.len() {
            let in_order: Vec<String> = (names.iter().enumerate())
                .filter(|(i, _)| subset >> i & 1 == 1)
                .map(|(_, n)| n.clone())
                .collect();
            let reversed: Vec<String> = in_order.iter().rev().cloned().collect();
            for keep in [in_order, reversed] {
                let want = ops::project_ctx(&joined, &keep, &Pool::sequential(), &CTX).unwrap();
                let mut governed = Vec::new();
                for threads in POOLS {
                    let gov = GovernorBuilder::new().build();
                    let ctx = ExecContext::governed(&gov);
                    let got =
                        ops::natural_join_project_ctx(&l, &r, &keep, &Pool::new(threads), &ctx)
                            .unwrap();
                    let what = format!("join onto {keep:?} at {threads} threads");
                    assert_identical(&got, &want, &what)?;
                    governed.push((gov.memory_used(), gov.checkpoints_seen()));
                }
                prop_assert!(
                    governed.windows(2).all(|w| w[0] == w[1]),
                    "join onto {:?}: (charged, checkpoints) by pool {:?}",
                    keep,
                    governed
                );
            }
        }
        prop_assert!(matches!(
            ops::natural_join_project_ctx(&l, &r, &["nope".to_string()], &Pool::sequential(), &CTX),
            Err(ExecError::UnknownColumn(_))
        ));
    }

    /// The product shape (no shared column) goes through the same
    /// machinery — every streamed row walks the one chain of the whole
    /// indexed side —
    /// and must replay the nested (left, right) emit exactly.
    #[test]
    fn product_join_is_identical_to_seed_at_every_thread_count(
        seed in 1u64..u64::MAX / 2,
        left in 20usize..70,
        right in 20usize..70,
    ) {
        let (l, r) = join_tables(seed, left, right, 30);
        let l = ops::project(&l, &["b".to_string()]).unwrap();
        let r = ops::project(&r, &["c".to_string()]).unwrap();
        let reference = joined_by_definition(&l, &r);
        prop_assert_eq!(reference.len(), l.len() * r.len());
        for threads in POOLS {
            let joined = ops::natural_join_ctx(&l, &r, &Pool::new(threads), &CTX).unwrap();
            assert_identical(&joined, &reference, &format!("product at {threads} threads"))?;
        }
    }

    /// Scan → filter → project chunking: identical output at every thread
    /// count, and identical to its definition, a row at a time.
    #[test]
    fn chunked_scan_filter_project_is_identical(
        seed in 1u64..u64::MAX / 2,
        rows in 600usize..1200,
        cut in 0i64..40,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let schema = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Int),
            ("c", DataType::Str),
        ])
        .unwrap();
        let mut table = ProbTable::new(schema);
        for i in 0..rows {
            table
                .insert(
                    tuple![
                        (rng.next_u64() % 40) as i64,
                        (rng.next_u64() % 9) as i64,
                        ["p", "q", "r"][(rng.next_u64() % 3) as usize]
                    ],
                    Variable(i as u64),
                    0.5,
                )
                .unwrap();
        }
        let pred = Predicate::new("T", "a", CompareOp::Lt, cut);
        let keep = vec!["c".to_string(), "b".to_string()];
        let preds = [&pred];
        let reference =
            ops::scan_filter_project_ctx(&table, "T", &preds, &keep, &Pool::sequential(), &CTX).unwrap();
        let mut by_definition =
            Annotated::new(reference.schema().clone(), reference.relations().to_vec());
        for i in 0..table.len() {
            let (row, var, prob) = table.triple(i);
            if pred.matches(row.value(0)) {
                by_definition.push_row(&[row.value(2).clone(), row.value(1).clone()], &[(var, prob)]);
            }
        }
        assert_identical(&by_definition, &reference, "row-at-a-time definition")?;
        for threads in POOLS {
            let pool = Pool::new(threads);
            let fused = ops::scan_filter_project_ctx(&table, "T", &preds, &keep, &pool, &CTX).unwrap();
            assert_identical(&fused, &reference, &format!("fused at {threads} threads"))?;
            let scanned = ops::scan_ctx(&table, "T", &["a".into(), "c".into()], &pool, &CTX).unwrap();
            let scanned_seq =
                ops::scan_ctx(&table, "T", &["a".into(), "c".into()], &Pool::sequential(), &CTX).unwrap();
            assert_identical(&scanned, &scanned_seq, &format!("scan at {threads} threads"))?;
        }
    }

    /// The whole pipeline — fused scans, joins, projections —
    /// produces a bitwise-identical answer at every thread count.
    #[test]
    fn pipeline_answer_is_identical_at_every_thread_count(
        seed in 1u64..u64::MAX / 2,
        groups in 4usize..12,
        per_group in 4usize..12,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let catalog = Catalog::new();
        let mut var = 0u64;
        let mut next = || {
            var += 1;
            Variable(var)
        };
        let mut r = ProbTable::new(Schema::from_pairs(&[("a", DataType::Int)]).unwrap());
        let mut s = ProbTable::new(
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap(),
        );
        for a in 0..groups as i64 {
            r.insert(tuple![a], next(), 0.5).unwrap();
            for _ in 0..per_group {
                let b = (rng.next_u64() % 15) as i64;
                s.insert(tuple![a, b], next(), 0.5).unwrap();
            }
        }
        catalog.register_table("R", r).unwrap();
        catalog.register_table("S", s).unwrap();
        let q = ConjunctiveQuery::build(&[("R", &["a"]), ("S", &["a", "b"])], &["b"], vec![])
            .unwrap();
        let order: Vec<String> = vec!["R".into(), "S".into()];
        let reference =
            evaluate_join_order_ctx(&q, &catalog, &order, &Pool::sequential(), &CTX).unwrap();
        for threads in POOLS {
            let answer = evaluate_join_order_ctx(&q, &catalog, &order, &Pool::new(threads), &CTX).unwrap();
            assert_identical(&answer, &reference, &format!("pipeline at {threads} threads"))?;
        }
    }
}

// ---------------------------------------------------------------------------
// Corners of the flat chained join index.
// ---------------------------------------------------------------------------

/// `L(k, b)` and `R(k, c)` with the given key columns; `b` / `c` number the
/// rows so a wrong emit order shows in the data too.
fn keyed_sides(left_keys: &[Value], right_keys: &[Value]) -> (Annotated, Annotated) {
    let side = |name: &str, payload: &str, keys: &[Value], first_var: u64| {
        let schema = Schema::from_pairs(&[("k", DataType::Int), (payload, DataType::Int)]).unwrap();
        let mut t = Annotated::new(schema, vec![name.into()]);
        for (i, k) in keys.iter().enumerate() {
            t.push(pdb_exec::AnnotatedRow::new(
                pdb_storage::Tuple::new(vec![k.clone(), Value::Int(i as i64)]),
                vec![(Variable(first_var + i as u64), 0.5)],
            ));
        }
        t
    };
    (
        side("L", "b", left_keys, 0),
        side("R", "c", right_keys, 1_000_000),
    )
}

/// Holds the join of the two sides to its definition — rows and order — at
/// pools 1, 2, 4 and 8, and returns the definition's row count.
fn assert_join_matches_reference(left_keys: &[Value], right_keys: &[Value], what: &str) -> usize {
    let (l, r) = keyed_sides(left_keys, right_keys);
    let reference = joined_by_definition(&l, &r);
    for threads in POOLS {
        let joined = ops::natural_join_ctx(&l, &r, &Pool::new(threads), &CTX).unwrap();
        assert_eq!(joined, reference, "{what} at {threads} threads");
    }
    reference.len()
}

#[test]
fn build_side_keys_are_equal_exactly_when_the_values_are_at_every_pool_size() {
    // Two key columns of the skewed domain, past the fan-out cutoff, joined
    // with themselves: at pools 1, 2 and 8 a pair of rows joins exactly when
    // both cells are non-NULL and equal (the nested loop over all pairs).
    let mut rng = SmallRng::seed_from_u64(38);
    let keys: Vec<[Value; 2]> = (0..700)
        .map(|_| [skewed_key(&mut rng, 20), skewed_key(&mut rng, 0)])
        .collect();
    let (l, r) = two_key_sides(&keys, &keys);
    let reference = joined_by_definition(&l, &r);
    for threads in [1, 2, 8] {
        let joined = ops::natural_join_ctx(&l, &r, &Pool::new(threads), &CTX).unwrap();
        assert_eq!(joined, reference, "{threads} threads");
    }
    let joinable = keys.iter().filter(|k| !k[0].is_null() && !k[1].is_null());
    assert!(
        reference.len() > joinable.count(),
        "the key domain repeats keys"
    );
}

/// `L(k, j, b)` and `R(k, j, c)` with the given two-cell keys; `b` / `c`
/// number the rows.
fn two_key_sides(left_keys: &[[Value; 2]], right_keys: &[[Value; 2]]) -> (Annotated, Annotated) {
    let side = |name: &str, payload: &str, keys: &[[Value; 2]], first_var: u64| {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("j", DataType::Int),
            (payload, DataType::Int),
        ])
        .unwrap();
        let mut t = Annotated::new(schema, vec![name.into()]);
        for (i, [k, j]) in keys.iter().enumerate() {
            t.push(pdb_exec::AnnotatedRow::new(
                pdb_storage::Tuple::new(vec![k.clone(), j.clone(), Value::Int(i as i64)]),
                vec![(Variable(first_var + i as u64), 0.5)],
            ));
        }
        t
    };
    (
        side("L", "b", left_keys, 0),
        side("R", "c", right_keys, 1_000_000),
    )
}

#[test]
fn one_key_on_the_whole_build_side_replays_its_chain_in_row_order() {
    let left = vec![Value::Int(7); 5];
    let right = vec![Value::Int(7); 300];
    assert_eq!(
        assert_join_matches_reference(&left, &right, "one chain"),
        1500
    );
}

#[test]
fn all_distinct_keys_match_one_to_one() {
    let left: Vec<Value> = (0..700).rev().map(Value::Int).collect();
    let right: Vec<Value> = (0..600).map(|i| Value::Int(i * 2)).collect();
    assert_eq!(
        assert_join_matches_reference(&left, &right, "distinct keys"),
        350
    );
}

#[test]
fn keys_sharing_a_bucket_but_not_a_hash_do_not_match_each_other() {
    // Buckets are runs of high hash bits: 64 build rows take 6 of them, so
    // integers whose key hashes agree on the top 12 bits all land in one
    // bucket with 64 different hashes.
    let top = |v: &Value| join_row_hash([v]).expect("an integer joins") >> 52;
    let first = top(&Value::Int(0));
    let colliding: Vec<Value> = (0..400_000)
        .map(Value::Int)
        .filter(|v| top(v) == first)
        .take(64)
        .collect();
    assert_eq!(colliding.len(), 64, "enough candidates share 12 hash bits");
    // Probe with every colliding key twice, plus keys of other buckets.
    let mut left = colliding.clone();
    left.extend((400_000..400_050).map(Value::Int));
    left.extend(colliding.iter().rev().cloned());
    assert_eq!(
        assert_join_matches_reference(&left, &colliding, "one bucket, 64 hashes"),
        128
    );
}

#[test]
fn null_keys_never_join_on_either_side() {
    let left = [Value::Null, Value::Int(1), Value::Null, Value::Int(2)];
    let right = [Value::Int(2), Value::Null, Value::Null, Value::Int(1)];
    assert_eq!(assert_join_matches_reference(&left, &right, "nulls"), 2);
    let nulls = vec![Value::Null; 40];
    assert_eq!(
        assert_join_matches_reference(&nulls, &nulls, "only nulls"),
        0
    );
}

#[test]
fn an_integer_probes_the_float_it_equals() {
    let left = [Value::Int(2), Value::Float(3.0), Value::Float(2.5)];
    let right = [
        Value::Float(2.0),
        Value::Int(3),
        Value::Int(2),
        Value::Float(2.5),
    ];
    assert_eq!(
        assert_join_matches_reference(&left, &right, "cross-type numbers"),
        4
    );
}

#[test]
fn a_string_the_build_side_never_saw_matches_nothing() {
    let left = [
        Value::str("x"),
        Value::str("absent"),
        Value::str(""),
        Value::Int(1),
    ];
    let right = [
        Value::str(""),
        Value::str("x"),
        Value::str("y"),
        Value::str("x"),
    ];
    assert_eq!(
        assert_join_matches_reference(&left, &right, "absent string"),
        3
    );
}

#[test]
fn empty_sides_join_to_nothing() {
    let some = [Value::Int(1), Value::Int(2)];
    assert_eq!(assert_join_matches_reference(&[], &some, "empty left"), 0);
    assert_eq!(assert_join_matches_reference(&some, &[], "empty right"), 0);
    assert_eq!(assert_join_matches_reference(&[], &[], "both empty"), 0);
}

// ---------------------------------------------------------------------------
// Join equality over the cells where spellings meet.
// ---------------------------------------------------------------------------

/// Key cells where two spellings of a number meet, or nearly do, beside
/// dates, strings, booleans and NULL.
fn corner_cells() -> Vec<Value> {
    let p53 = 1i64 << 53;
    let p63 = 2f64.powi(63);
    vec![
        Value::Int(p53),
        Value::Float(p53 as f64),
        Value::Int(-p53),
        Value::Float(-(p53 as f64)),
        Value::Int(p53 + 1),
        Value::Float((p53 + 2) as f64),
        Value::Int(-p53 - 1),
        Value::Int(i64::MAX),
        Value::Int(i64::MAX - 1),
        Value::Float(p63),
        Value::Int(i64::MIN),
        Value::Float(-p63),
        Value::Int(0),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(f64::NAN),
        Value::Float(-f64::NAN),
        Value::Float(0.5),
        Value::Int(7),
        Value::Float(7.0),
        Value::Date(7),
        Value::Date(0),
        Value::str("x"),
        Value::str(""),
        Value::str("absent"),
        Value::Bool(false),
        Value::Bool(true),
        Value::Null,
    ]
}

#[test]
fn join_equality_is_the_mixed_cell_equality_and_equal_cells_hash_alike() {
    let cells = corner_cells();
    for a in &cells {
        assert_eq!(join_hash(a).is_none(), a.is_null(), "{a:?}");
        for b in &cells {
            let equal = join_equal(a, b);
            assert_eq!(equal, mixed_cell(a) == mixed_cell(b), "{a:?} vs {b:?}");
            if equal {
                assert_eq!(join_hash(a), join_hash(b), "{a:?} vs {b:?}");
            }
        }
    }
    // A string is its content, not its allocation.
    let x = Value::str(String::from("x"));
    assert!(join_equal(&x, &Value::str("x")));
    assert_eq!(join_hash(&x), join_hash(&Value::str("x")));
    // The corners by name.
    let p53 = 1i64 << 53;
    let p63 = 2f64.powi(63);
    for (a, b, equal) in [
        (Value::Int(p53), Value::Float(p53 as f64), true),
        (Value::Int(-p53), Value::Float(-(p53 as f64)), true),
        (Value::Int(p53 + 1), Value::Float(p53 as f64), false),
        (Value::Int(i64::MAX), Value::Float(p63), true),
        (Value::Int(i64::MAX - 1), Value::Float(p63), false),
        (Value::Int(i64::MIN), Value::Float(-p63), true),
        (Value::Float(0.0), Value::Float(-0.0), true),
        (Value::Int(0), Value::Float(-0.0), true),
        (Value::Float(f64::NAN), Value::Float(-f64::NAN), true),
        (Value::Int(0), Value::Float(f64::NAN), false),
        (Value::Date(7), Value::Int(7), false),
        (Value::Null, Value::Int(0), false),
    ] {
        assert_eq!(join_equal(&a, &b), equal, "{a:?} vs {b:?}");
        assert_eq!(join_equal(&b, &a), equal, "{b:?} vs {a:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sides of at most 64 rows whose one or two key cells are drawn from
    /// [`corner_cells`] join as the nested loop over mixed cells does, rows
    /// and order, at pools 1, 2 and 8.
    #[test]
    fn mixed_variant_keys_join_as_the_nested_loop(
        left in proptest::collection::vec((0usize..28, 0usize..28), 0..=64),
        right in proptest::collection::vec((0usize..28, 0usize..28), 0..=64),
        two_cells in proptest::bool::ANY,
    ) {
        let cells = corner_cells();
        prop_assert_eq!(cells.len(), 28);
        let keys = |picks: &[(usize, usize)]| -> Vec<[Value; 2]> {
            (picks.iter())
                .map(|&(k, j)| [cells[k].clone(), cells[if two_cells { j } else { 0 }].clone()])
                .collect()
        };
        let (l, r) = two_key_sides(&keys(&left), &keys(&right));
        let reference = joined_by_definition(&l, &r);
        for threads in [1, 2, 8] {
            let joined = ops::natural_join_ctx(&l, &r, &Pool::new(threads), &CTX).unwrap();
            assert_identical(&joined, &reference, &format!("mixed keys at {threads} threads"))?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sides of skewed sizes — 1 to 8 rows against up to 512 — whose key
    /// cells are drawn from [`corner_cells`] and `Int(2)` / `Float(2.0)`
    /// join as the nested loop, rows and order, at pools 1, 2 and 8: the
    /// small side on the left (indexed, its matches listed by right row and
    /// regrouped by left row) and on the right (indexed, its matches listed
    /// in order), the large side against itself (equal sizes: the right one
    /// is indexed), and an empty or all-NULL side on either hand.
    #[test]
    fn skewed_sides_join_as_the_nested_loop(
        small in proptest::collection::vec((0usize..30, 0usize..30), 1..=8),
        large in proptest::collection::vec((0usize..30, 0usize..30), 0..=512),
        two_cells in proptest::bool::ANY,
    ) {
        let mut cells = corner_cells();
        cells.extend([Value::Int(2), Value::Float(2.0)]);
        let keys = |picks: &[(usize, usize)]| -> Vec<[Value; 2]> {
            (picks.iter())
                .map(|&(k, j)| [cells[k].clone(), cells[if two_cells { j } else { 0 }].clone()])
                .collect()
        };
        let (small, large) = (keys(&small), keys(&large));
        let nulls = vec![[Value::Null, Value::Null]; small.len()];
        let empty = vec![];
        for (left, right, what) in [
            (&small, &large, "small left side"),
            (&large, &small, "small right side"),
            (&large, &large, "equal sides"),
            (&empty, &large, "empty left side"),
            (&large, &empty, "empty right side"),
            (&nulls, &large, "NULL left side"),
            (&large, &nulls, "NULL right side"),
        ] {
            let (l, r) = two_key_sides(left, right);
            let reference = joined_by_definition(&l, &r);
            for threads in [1, 2, 8] {
                let joined = ops::natural_join_ctx(&l, &r, &Pool::new(threads), &CTX).unwrap();
                assert_identical(&joined, &reference, &format!("{what} at {threads} threads"))?;
            }
        }
    }
}
