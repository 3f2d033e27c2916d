//! Property tests for `SortKeys::build_with`, the one body of the sort-key
//! encoding: on mixed numeric/string/NULL columns its key words are identical
//! at every pool size — per-chunk string dictionaries merged into one
//! interner — and the sorted permutation is a stable sort of the rows by
//! `Value` order, written out here.
//!
//! And the sort itself against a definitional reference (PR 19): over a zoo
//! of column types, sizes and input orders, the permutation and the run
//! starts of the one-word / radix kernel equal a stable `sort_by` on the
//! three-word cell encoding every column used to get.
//!
//! And `KeyRuns::collapse` of an input it owns — each run's first row moved
//! inside the input's arena — against the gather of a borrowed one, on the
//! same zoo.

use std::borrow::Cow;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pdb_exec::key::SortKeys;
use pdb_exec::{Annotated, AnnotatedRow, ExecContext, KeyRuns};
use pdb_govern::Stage;
use pdb_par::Pool;
use pdb_storage::{DataType, Schema, Tuple, Value, Variable};

/// Deterministically expands a proptest-chosen seed and string pool into a
/// row set large enough (past `pdb_par::SEQUENTIAL_CUTOFF`) to be cut into
/// several chunks. Column 0 mixes ints and NULLs, column 1 mixes
/// dictionary strings and NULLs (strings only in a prefix of the rows, so
/// later chunks have **no** dictionary for the column), column 2 mixes
/// floats and ints (equal-comparing cross-type values included).
fn expand_rows(seed: u64, strings: &[String], rows: usize, str_prefix: usize) -> Vec<[Value; 3]> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut next = move || rng.next_u64();
    (0..rows)
        .map(|r| {
            let a = match next() % 5 {
                0 => Value::Null,
                _ => Value::Int((next() % 23) as i64 - 11),
            };
            let b = if r < str_prefix {
                match next() % 4 {
                    0 => Value::Null,
                    _ => Value::str(&strings[(next() as usize) % strings.len()]),
                }
            } else {
                Value::Null
            };
            let c = match next() % 3 {
                0 => Value::Float(((next() % 17) as f64 - 8.0) / 4.0),
                1 => Value::Int((next() % 9) as i64 - 4),
                _ => Value::Float((next() % 9) as f64 - 4.0),
            };
            [a, b, c]
        })
        .collect()
}

/// The order the keys must reproduce: a stable sort of the rows by `Value`
/// order over their cells, then by their extra word.
fn stable_value_sort(vals: &[[Value; 3]], extra: impl Fn(usize) -> u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..vals.len() as u32).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        vals[a].cmp(&vals[b]).then(extra(a).cmp(&extra(b)))
    });
    order
}

/// Builds the keys of `vals` (one extra word from `extra`) at pools 1, 2 and
/// 8 and holds them to each other word for word, and their permutation to
/// [`stable_value_sort`].
fn assert_keys_agree_and_sort_by_value_order(
    vals: &[[Value; 3]],
    extra: impl Fn(usize) -> u64 + Sync,
) -> Result<(), TestCaseError> {
    let rows = vals.len();
    let expected = stable_value_sort(vals, &extra);
    let build =
        |pool: &Pool| SortKeys::build_with(rows, 3, 1, |r, c| &vals[r][c], |r, _| extra(r), pool);
    let one = build(&Pool::new(1));
    for threads in [1usize, 2, 8] {
        let pool = Pool::new(threads);
        let keys = build(&pool);
        prop_assert_eq!(keys.width(), one.width());
        for r in 0..rows {
            prop_assert_eq!(
                keys.row(r),
                one.row(r),
                "row {} diverges at {} threads",
                r,
                threads
            );
        }
        prop_assert_eq!(
            keys.sorted_permutation_with(rows, &pool),
            expected.clone(),
            "permutation at {} threads",
            threads
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn keys_agree_across_pools_and_sort_by_value_order_on_mixed_columns(
        seed in 1u64..u64::MAX / 2,
        string_seeds in proptest::collection::vec(0u64..u64::MAX / 2, 1..8),
        rows in 600usize..900,
        str_prefix_num in 0usize..4,
    ) {
        // The offline proptest shim has no string strategies: derive a small
        // dictionary (duplicates and the empty string included) from seeds.
        let strings: Vec<String> = string_seeds
            .iter()
            .map(|&s| {
                (0..(s % 7) as usize)
                    .map(|i| (b'a' + ((s >> (i * 5)) % 26) as u8) as char)
                    .collect()
            })
            .collect();
        // Strings restricted to a prefix of the rows: 0 (all-NULL column),
        // a fraction, or everywhere.
        let str_prefix = rows * str_prefix_num / 3;
        let vals = expand_rows(seed, &strings, rows, str_prefix);
        assert_keys_agree_and_sort_by_value_order(&vals, |r| ((r * 31) % 13) as u64)?;
    }
}

#[test]
fn small_inputs_agree_across_pools_and_sort_by_value_order() {
    // Below the fan-out cutoff every pool cuts one chunk.
    let vals = [
        [Value::Int(2), Value::str("x"), Value::Float(2.0)],
        [Value::Null, Value::str(""), Value::Int(2)],
        [Value::Int(-1), Value::Null, Value::Float(0.5)],
        [Value::Int(2), Value::str("x"), Value::Int(2)],
    ];
    assert_keys_agree_and_sort_by_value_order(&vals, |_| 0).unwrap();
}

// ---------------------------------------------------------------------------
// The sort against a stable `sort_by` on the three-word encoding.
// ---------------------------------------------------------------------------

/// The three-word cell `(type class, primary, tie-break)` every sort-key
/// column took before single-variant columns got one word — the reference
/// encoding, kept here so the kernel is held to it and not to itself.
fn reference_cell(v: &Value, str_rank: u64) -> [u64; 3] {
    fn ordered_f64(f: f64) -> u64 {
        let f = if f.is_nan() {
            f64::NAN
        } else if f == 0.0 {
            0.0
        } else {
            f
        };
        let bits = f.to_bits();
        if bits & (1 << 63) != 0 {
            !bits
        } else {
            bits | (1 << 63)
        }
    }
    fn ordered_i64(i: i64) -> u64 {
        (i as u64) ^ (1 << 63)
    }
    match v {
        Value::Null => [0, 0, 0],
        Value::Int(i) => [1, ordered_f64(*i as f64), ordered_i64(*i)],
        Value::Float(f) if f.is_nan() => [1, ordered_f64(*f), 0],
        Value::Float(f) => [1, ordered_f64(*f), ordered_i64(*f as i64)],
        Value::Str(_) => [2, str_rank, 0],
        Value::Date(d) => [3, ordered_i64(*d as i64), 0],
        Value::Bool(b) => [4, *b as u64, 0],
    }
}

/// Reference key rows of `input`: three words per data column (strings
/// ranked per column), then the variables of `var_cols`.
fn reference_keys(input: &Annotated, var_cols: &[usize]) -> Vec<Vec<u64>> {
    let ranks: Vec<Vec<&str>> = (0..input.data_width())
        .map(|c| {
            let mut strs: Vec<&str> = input
                .iter()
                .filter_map(|row| match &row.data[c] {
                    Value::Str(s) => Some(&**s),
                    _ => None,
                })
                .collect();
            strs.sort_unstable();
            strs.dedup();
            strs
        })
        .collect();
    input
        .iter()
        .map(|row| {
            let mut key = Vec::new();
            for (c, v) in row.data.iter().enumerate() {
                let rank = match v {
                    Value::Str(s) => ranks[c].binary_search(&&**s).unwrap() as u64,
                    _ => 0,
                };
                key.extend_from_slice(&reference_cell(v, rank));
            }
            key.extend(var_cols.iter().map(|&c| row.lineage[c].0 .0));
            key
        })
        .collect()
}

/// Holds `KeyRuns::build` (and `sorted_permutation_with` on the same keys)
/// to the reference at pools 1, 2 and 8: `group_vars` of the relation's
/// lineage columns group, the rest order.
fn assert_sort_matches_reference(input: &Annotated, group_vars: usize, what: &str) {
    let vars: Vec<usize> = (0..input.lineage_width()).collect();
    let (group_cols, order_cols) = vars.split_at(group_vars);
    let keys = reference_keys(input, &vars);
    let mut order: Vec<u32> = (0..input.len() as u32).collect();
    order.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
    let prefix = 3 * input.data_width() + group_vars;
    let starts: Vec<usize> = (0..order.len())
        .filter(|&k| {
            k == 0 || keys[order[k] as usize][..prefix] != keys[order[k - 1] as usize][..prefix]
        })
        .collect();
    let data_cols: Vec<usize> = (0..input.data_width()).collect();
    for threads in [1, 2, 8] {
        let pool = Pool::new(threads);
        let runs = KeyRuns::build(
            input,
            group_cols,
            order_cols,
            Stage::Sort,
            &pool,
            &ExecContext::unbounded(),
        )
        .unwrap();
        assert_eq!(runs.order(), order, "{what}: order at {threads} threads");
        assert_eq!(runs.starts(), starts, "{what}: starts at {threads} threads");
        let permutation = input
            .sort_keys_with(&data_cols, &vars, &pool)
            .sorted_permutation_with(input.len(), &pool);
        assert_eq!(
            permutation, order,
            "{what}: permutation at {threads} threads"
        );
    }
}

/// The column types of the zoo.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Int,
    Float,
    Str,
    Date,
    Bool,
    IntFloat,
}

const KINDS: [Kind; 6] = [
    Kind::Int,
    Kind::Float,
    Kind::Str,
    Kind::Date,
    Kind::Bool,
    Kind::IntFloat,
];

/// One cell of a `kind` column: a small pool of values per kind (so keys
/// repeat), the corners included — `i64::MIN` / `MAX` and integers beyond
/// 2⁵³, `±0.0`, NaN, `±∞` and integral floats, the empty string.
fn zoo_cell(kind: Kind, with_nulls: bool, rng: &mut SmallRng) -> Value {
    const INTS: [i64; 9] = [
        i64::MIN,
        -(1 << 53) - 1,
        -3,
        0,
        2,
        7,
        (1 << 53) + 1,
        (1 << 53) + 2,
        i64::MAX,
    ];
    const FLOATS: [f64; 10] = [
        f64::NEG_INFINITY,
        -2.5,
        -0.0,
        0.0,
        2.0,
        2.5,
        7.0,
        9.007199254740992e15,
        f64::INFINITY,
        f64::NAN,
    ];
    const STRS: [&str; 5] = ["", "Joe", "Li", "Mo", "a longer string value"];
    if with_nulls && rng.next_u64().is_multiple_of(5) {
        return Value::Null;
    }
    let pick = rng.next_u64() as usize;
    match kind {
        Kind::Int => Value::Int(INTS[pick % INTS.len()]),
        Kind::Float => Value::Float(FLOATS[pick % FLOATS.len()]),
        Kind::Str => Value::str(STRS[pick % STRS.len()]),
        Kind::Date => Value::Date([-400, -1, 0, 9_000, 12_345][pick % 5]),
        Kind::Bool => Value::Bool(pick.is_multiple_of(2)),
        Kind::IntFloat if pick.is_multiple_of(2) => Value::Int(INTS[(pick / 2) % INTS.len()]),
        Kind::IntFloat => Value::Float(FLOATS[(pick / 2) % FLOATS.len()]),
    }
}

/// How a generated relation's rows are arranged.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Random,
    Presorted,
    Reversed,
    AllEqual,
}

/// A relation of `rows` rows over one column per `(kind, with_nulls)` and
/// `vars` lineage columns of small variable ids, arranged as `shape` says.
fn zoo_relation(
    columns: &[(Kind, bool)],
    vars: usize,
    rows: usize,
    shape: Shape,
    seed: u64,
) -> Annotated {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut generated: Vec<AnnotatedRow> = (0..rows)
        .map(|_| {
            let data = columns
                .iter()
                .map(|&(kind, nulls)| zoo_cell(kind, nulls, &mut rng))
                .collect();
            let lineage = (0..vars)
                .map(|_| (Variable(rng.next_u64() % 11), 0.5))
                .collect();
            AnnotatedRow::new(Tuple::new(data), lineage)
        })
        .collect();
    let by_value = |a: &AnnotatedRow, b: &AnnotatedRow| {
        let vars = |r: &AnnotatedRow| r.lineage.iter().map(|l| l.0).collect::<Vec<_>>();
        a.data.cmp(&b.data).then(vars(a).cmp(&vars(b)))
    };
    match shape {
        Shape::Random => {}
        Shape::Presorted => generated.sort_by(by_value),
        Shape::Reversed => generated.sort_by(|a, b| by_value(b, a)),
        Shape::AllEqual => {
            if let Some(first) = generated.first().cloned() {
                generated.fill(first);
            }
        }
    }
    // The declared type is not enforced on `Annotated`; the cells decide.
    let names: Vec<String> = (0..columns.len()).map(|c| format!("c{c}")).collect();
    let pairs: Vec<(&str, DataType)> = names.iter().map(|n| (n.as_str(), DataType::Int)).collect();
    let relations = (0..vars).map(|v| format!("R{v}")).collect();
    let mut input = Annotated::new(Schema::from_pairs(&pairs).unwrap(), relations);
    for row in generated {
        input.push(row);
    }
    input
}

#[test]
fn sort_matches_a_stable_sort_on_the_three_word_encoding_across_the_type_zoo() {
    // Sizes on both sides of the radix kernel's small-input constant (256)
    // and of the parallel fan-out cutoff.
    let cutoff = pdb_par::SEQUENTIAL_CUTOFF;
    let sizes = [0, 1, 2, 255, 256, 257, cutoff - 1, cutoff, cutoff + 1, 1500];
    let shapes = [
        Shape::Random,
        Shape::Presorted,
        Shape::Reversed,
        Shape::AllEqual,
    ];
    let mut case = 0u64;
    for kind in KINDS {
        for with_nulls in [false, true] {
            for (si, &rows) in sizes.iter().enumerate() {
                // Every size sees every shape and every count of trailing
                // variable words over the kinds and null settings.
                case += 1;
                let shape = shapes[(case as usize + si) % shapes.len()];
                let vars = (case as usize / 2 + si) % 4;
                let input = zoo_relation(&[(kind, with_nulls)], vars, rows, shape, case);
                let what = format!("{kind:?} nulls={with_nulls} rows={rows} {shape:?} vars={vars}");
                assert_sort_matches_reference(&input, vars / 2, &what);
            }
        }
    }
    // Several columns at once, single-variant and mixed side by side.
    for (seed, shape) in shapes.into_iter().enumerate() {
        let columns = [
            (Kind::Str, false),
            (Kind::Int, seed % 2 == 0),
            (Kind::IntFloat, false),
            (Kind::Date, false),
        ];
        let input = zoo_relation(&columns, 2, 1300, shape, 1000 + seed as u64);
        assert_sort_matches_reference(&input, 1, &format!("four columns {shape:?}"));
    }
}

#[test]
fn keys_wider_than_128_bits_sort_like_the_reference_too() {
    // Three columns using their whole 64-bit range cannot be packed: the
    // comparator path must give the reference's order and runs.
    let mut rng = SmallRng::seed_from_u64(19);
    let schema = Schema::from_pairs(&[
        ("a", DataType::Int),
        ("b", DataType::Float),
        ("c", DataType::Int),
    ])
    .unwrap();
    let mut input = Annotated::new(schema, vec!["R".into()]);
    for i in 0..700u64 {
        let a = [i64::MIN, -1, 1, i64::MAX][(rng.next_u64() % 4) as usize];
        let b = [f64::NEG_INFINITY, -1.5e300, 0.0, 1.5e300][(rng.next_u64() % 4) as usize];
        let c = [i64::MIN, 0, i64::MAX][(rng.next_u64() % 3) as usize];
        input.push(AnnotatedRow::new(
            Tuple::new(vec![Value::Int(a), Value::Float(b), Value::Int(c)]),
            vec![(Variable(i % 5), 0.5)],
        ));
    }
    assert_sort_matches_reference(&input, 0, "wide key");
    assert_sort_matches_reference(&input, 1, "wide key, grouped variable");
}

#[test]
fn a_key_of_exactly_128_bits_keeps_its_row_index_beside_it() {
    // Two full-range integer columns fill a `u128`: the key still packs,
    // with no bit left for the row index, which rides next to it.
    let mut rng = SmallRng::seed_from_u64(128);
    let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).unwrap();
    let mut input = Annotated::new(schema, vec![]);
    for _ in 0..900 {
        let mut pick = || [i64::MIN, -7, 0, 7, i64::MAX][(rng.next_u64() % 5) as usize];
        let (a, b) = (pick(), pick());
        input.push(AnnotatedRow::new(
            Tuple::new(vec![Value::Int(a), Value::Int(b)]),
            vec![],
        ));
    }
    assert_sort_matches_reference(&input, 0, "128-bit key");
}

// ---------------------------------------------------------------------------
// Inputs that arrive sorted: `KeyRuns::build`'s pass over adjacent rows.
// ---------------------------------------------------------------------------

/// A relation of one row per `(data cells, variables)` item, `vars` lineage
/// columns wide.
fn relation_of(columns: usize, vars: usize, rows: Vec<(Vec<Value>, Vec<u64>)>) -> Annotated {
    let names: Vec<String> = (0..columns).map(|c| format!("c{c}")).collect();
    let pairs: Vec<(&str, DataType)> = names.iter().map(|n| (n.as_str(), DataType::Int)).collect();
    let relations = (0..vars).map(|v| format!("R{v}")).collect();
    let mut input = Annotated::new(Schema::from_pairs(&pairs).unwrap(), relations);
    for (data, variables) in rows {
        assert_eq!((data.len(), variables.len()), (columns, vars));
        let lineage = variables.into_iter().map(|v| (Variable(v), 0.5)).collect();
        input.push(AnnotatedRow::new(Tuple::new(data), lineage));
    }
    input
}

#[test]
fn inputs_that_arrive_sorted_match_the_reference_too() {
    // Every shape is held to the same stable `sort_by` as the zoo above,
    // whether the adjacent-row pass carries it to the end (identity
    // permutation, run starts from the pass) or hands it to the key path at
    // the first pair it does not replay.
    for n in [0usize, 1, 2, 255, 256, 257, 1500] {
        let int = |i: usize| Value::Int(i as i64);
        let check = |what: &str, input: Annotated, group_vars: usize| {
            assert_eq!(input.len(), n, "{what}");
            assert_sort_matches_reference(&input, group_vars, &format!("{what}, {n} rows"));
        };

        // Strictly ascending: one run per row.
        let rows = |i| (vec![int(i)], vec![(i % 7) as u64]);
        check(
            "strictly ascending",
            relation_of(1, 1, (0..n).map(rows).collect()),
            0,
        );
        check(
            "strictly ascending, grouped",
            relation_of(1, 1, (0..n).map(rows).collect()),
            1,
        );

        // Ascending with duplicate data; inside a data group the group
        // variable ascends with ties and the order variable ascends,
        // descends (the pass gives up) or ties.
        for name in ["ascending", "descending", "tied"] {
            let order_variable = |i: usize| match name {
                "ascending" => i as u64,
                "descending" => (n - i) as u64,
                _ => 3,
            };
            for group_vars in 0..=2 {
                let rows = |i| (vec![int(i / 6)], vec![(i / 2) as u64, order_variable(i)]);
                check(
                    &format!("duplicate data, {name} variables, {group_vars} grouping"),
                    relation_of(1, 2, (0..n).map(rows).collect()),
                    group_vars,
                );
            }
        }

        // Ascending except the last row.
        let rows = |i| {
            (
                vec![int(if i + 1 == n { 0 } else { i + 1 })],
                vec![i as u64],
            )
        };
        check(
            "ascending but the last row",
            relation_of(1, 1, (0..n).map(rows).collect()),
            0,
        );

        // Ascending in `Value`'s order with a `Null` first, and with `Int`s
        // beside `Float`s: mixed cells, sorted by the key path.
        let rows = |i| (vec![if i == 0 { Value::Null } else { int(i) }], vec![0]);
        check(
            "a NULL first",
            relation_of(1, 1, (0..n).map(rows).collect()),
            0,
        );
        let rows = |i| (vec![int(i / 2), Value::Null], vec![i as u64]);
        check(
            "a NULL column",
            relation_of(2, 1, (0..n).map(rows).collect()),
            0,
        );
        let rows = |i: usize| {
            let cell = if i.is_multiple_of(2) {
                int(i / 2)
            } else {
                Value::Float(i as f64 / 2.0)
            };
            (vec![cell], vec![0])
        };
        check(
            "Int beside Float",
            relation_of(1, 1, (0..n).map(rows).collect()),
            0,
        );

        // Floats: `-0.0` and `0.0` are one value, NaNs are one value and
        // the greatest.
        let rows = |i: usize| {
            let f = match (i * 4 / n.max(1), i % 2) {
                (0, _) => -1.0e9 + i as f64,
                (1, 0) => -0.0,
                (1, _) => 0.0,
                (2, _) => i as f64,
                _ => f64::NAN,
            };
            (vec![Value::Float(f)], vec![i as u64])
        };
        check(
            "signed zeros and NaNs",
            relation_of(1, 1, (0..n).map(rows).collect()),
            0,
        );

        // Equal strings held in distinct `Arc`s compare by content.
        let rows = |i| (vec![Value::str(format!("s{:05}", i / 3))], vec![i as u64]);
        check(
            "equal strings, distinct Arcs",
            relation_of(1, 1, (0..n).map(rows).collect()),
            0,
        );

        // Several typed columns at once, the last deciding.
        let rows = |i: usize| {
            let data = vec![
                Value::Bool(i * 2 >= n),
                Value::Date((i / 50) as i32 - 3),
                Value::str(if i % 50 < 25 { "a" } else { "b" }),
                int(i % 25),
            ];
            (data, vec![0])
        };
        check(
            "four ascending columns",
            relation_of(4, 1, (0..n).map(rows).collect()),
            0,
        );

        // A Boolean query's answer: no data column, one ascending variable.
        let rows = |i| (vec![], vec![10 + i as u64]);
        check(
            "no data, ascending variable",
            relation_of(0, 1, (0..n).map(rows).collect()),
            0,
        );
        check(
            "no data, grouped variable",
            relation_of(0, 1, (0..n).map(rows).collect()),
            1,
        );
    }
}

#[test]
fn an_owned_collapse_moves_the_rows_a_borrowed_one_copies() {
    // The in-place move — exemplars swapped forward or set aside, the other
    // rows dropped, the arena shrunk — equals the gather into a fresh arena
    // on every shape of the zoo, with no, one or two data columns (strings
    // and NULLs among them), runs of every length and every pool size.
    let cutoff = pdb_par::SEQUENTIAL_CUTOFF;
    let shapes = [
        Shape::Random,
        Shape::Presorted,
        Shape::Reversed,
        Shape::AllEqual,
    ];
    let columns = [(Kind::Str, true), (Kind::Int, false)];
    let ctx = ExecContext::unbounded();
    for case in 0..24usize {
        let rows = [0, 1, 7, 300, cutoff + 1, 1500][case % 6];
        let (shape, width) = (shapes[case % 4], case % 3);
        let input = zoo_relation(&columns[..width], 2, rows, shape, 7000 + case as u64);
        let group_cols: &[usize] = if case % 5 < 2 { &[0] } else { &[] };
        let fold = |input: &Annotated, run: usize, rows: &[u32]| {
            let last = input.row(rows[rows.len() - 1] as usize);
            Ok((last.lineage[1].0, run as f64))
        };
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let runs = KeyRuns::build(&input, group_cols, &[1], Stage::Aggregate, &pool, &ctx);
            let runs = runs.unwrap();
            let collapse = |input: Cow<'_, Annotated>| {
                runs.collapse(input, &[0, 1], 1, Stage::Aggregate, &pool, &ctx, fold)
                    .unwrap()
            };
            assert_eq!(
                collapse(Cow::Owned(input.clone())),
                collapse(Cow::Borrowed(&input)),
                "{rows} rows {shape:?}, {width} columns, {threads} threads"
            );
        }
    }
}
