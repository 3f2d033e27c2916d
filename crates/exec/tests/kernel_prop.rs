//! Property tests for the PR 7 vectorization endgame.
//!
//! * **Kernel vs scalar oracle** — the bitmask predicate kernels must agree
//!   with the row-at-a-time path for every [`CompareOp`] (including `In`),
//!   every null pattern, and row counts that straddle chunk boundaries.
//!   (In debug builds the columnar scan additionally cross-checks every
//!   masked chunk against the retained `PredEval` scalar oracle, so each of
//!   these runs validates the kernels twice over.)
//! * **Bloom no-false-negatives** — a per-chunk bloom filter may only err on
//!   the side of *keeping* a chunk: every value pushed into a zone map must
//!   probe positive, else an `Eq`/`In` scan would silently drop rows.
//! * **Late materialization** — carrying string head columns as dictionary
//!   ranks through join → sort → dedup and decoding only the final answer
//!   must be bitwise-identical to the eager row path at 1/2/4/8 threads.
//! * **Interval kernel vs oracle at every word width** — integer, date and
//!   dictionary columns are packed at `u8`/`u16`/`u32`/`u64` words over a
//!   base; for every operator and `In`, with constants below the base, at
//!   it, inside, at the maximum, above it, at `i64::MIN` / `i64::MAX`,
//!   float constants against integers (NaN, ±0.0, 2⁵³ + 1), absent strings
//!   and constants of other types, each chunk's kernel mask must equal the
//!   scalar oracle's row by row ([`ChunkPredicate`]) — in release builds
//!   too, where the scan's own debug cross-check is compiled out — and the
//!   scan must equal the row path.
//! * **`IN` lists of every length at every width** — lists of 0, 1, 2, 63,
//!   64, 65 and 5 000 constants, dense enough for the kernel's bitmap or
//!   sparse enough for its sorted words, with repeats, NULL, the frame's
//!   ends, values beyond them, constants of other types and absent
//!   strings: the kernel mask equals the oracle's and the scan the row
//!   path's.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use std::sync::Arc;

use pdb_exec::columnar::{scan_filter_project_columnar_ctx, ChunkPredicate};
use pdb_exec::{evaluate_join_order_ctx, ops, ExecContext};
use pdb_par::Pool;
use pdb_query::{CompareOp, ConjunctiveQuery, Predicate};
use pdb_storage::columnar::{Packed, ZoneMap, ZoneMapBuilder};
use pdb_storage::{
    Catalog, ColumnData, ColumnarData, ColumnarTable, DataType, NullBitmap, ProbTable, Schema,
    Tuple, Value, Variable,
};

const POOLS: [usize; 4] = [1, 2, 4, 8];

/// Every scan here runs ungoverned: the subjects are backing and pool size.
const CTX: ExecContext = ExecContext::unbounded();

fn names(ns: &[&str]) -> Vec<String> {
    ns.iter().map(|s| s.to_string()).collect()
}

/// A table whose columns cover the kernel-relevant shapes: clustered ints,
/// dictionary strings, floats with NULL / NaN / -0.0, dates, bools, and an
/// all-NULL column. `null_den` tunes the null pattern from dense to absent.
fn kernel_table(seed: u64, rows: usize, null_den: u32) -> ProbTable {
    let mut rng = SmallRng::seed_from_u64(seed);
    let schema = Schema::from_pairs(&[
        ("i", DataType::Int),
        ("s", DataType::Str),
        ("f", DataType::Float),
        ("d", DataType::Date),
        ("b", DataType::Bool),
        ("n", DataType::Int),
    ])
    .unwrap();
    let strings = ["", "ash", "birch", "cedar", "oak", "pine"];
    let mut t = ProbTable::new(schema);
    for r in 0..rows {
        fn v(rng: &mut SmallRng, null_den: u32, value: Value) -> Value {
            if null_den > 0 && rng.gen_range(0..null_den) == 0 {
                Value::Null
            } else {
                value
            }
        }
        let iv = Value::Int(r as i64 / 5 + rng.gen_range(0..3i64));
        let i = v(&mut rng, null_den, iv);
        let sv = Value::str(strings[rng.gen_range(0..strings.len())]);
        let s = v(&mut rng, null_den, sv);
        let f = match rng.gen_range(0..8u32) {
            0 => Value::Float(f64::NAN),
            1 => Value::Float(-0.0),
            _ => {
                let fv = Value::Float(rng.gen_range(-24..24i64) as f64 / 4.0);
                v(&mut rng, null_den, fv)
            }
        };
        let d = v(&mut rng, null_den, Value::Date(9_000 + (r as i32 / 7)));
        let bv = Value::Bool(rng.gen_bool(0.5));
        let b = v(&mut rng, null_den, bv);
        t.insert(
            Tuple::new(vec![i, s, f, d, b, Value::Null]),
            Variable(r as u64),
            0.05 + (r % 17) as f64 / 18.0,
        )
        .unwrap();
    }
    t
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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All operators × all columns (= all kernels) × null patterns ×
    /// chunk-boundary offsets: the masked columnar scan is bitwise-identical
    /// to the row path.
    #[test]
    fn kernels_agree_with_the_scalar_path_at_chunk_boundaries(
        seed in 1u64..u64::MAX / 2,
        chunks in 1usize..4,
        offset in 0usize..3, // rows = chunks*64 - 1, exact, or + 1
        null_den in 0u32..5, // 0 = no nulls, 1 = all-null-ish, 2.. = sparse
        op_a in 0u32..6,
        op_b in 0u32..6,
        col_b in 0usize..5,
        i_const in -20i64..220,
        threads in 0usize..4,
    ) {
        let rows = (chunks * 64 + offset).saturating_sub(1);
        let row = kernel_table(seed, rows, null_den);
        let col = ColumnarTable::from_prob_table_chunked(&row, &Pool::new(2), 64).unwrap();

        // One predicate on the clustered int column (zone-map range pruning)
        // plus one on a rotating second column (each typed kernel in turn).
        let p_a = Predicate::new("R", "i", compare_op(op_a), i_const);
        let p_b = match col_b {
            0 => Predicate::new("R", "s", compare_op(op_b), "cedar"),
            1 => Predicate::new("R", "f", compare_op(op_b), 1.25f64),
            2 => Predicate::new("R", "d", compare_op(op_b), Value::Date(9_010)),
            3 => Predicate::new("R", "b", compare_op(op_b), true),
            _ => Predicate::new("R", "n", compare_op(op_b), 7i64),
        };
        let keep = names(&["i", "s", "f", "d", "b"]);
        for preds in [vec![&p_a], vec![&p_b], vec![&p_a, &p_b]] {
            let want = ops::scan_filter_project(&row, "R", &preds, &keep).unwrap();
            let got = scan_filter_project_columnar_ctx(
                &col, "R", &preds, &keep, &Pool::new(POOLS[threads]), &CTX,
            ).unwrap();
            prop_assert_eq!(&got, &want, "{:?}", preds);
        }
    }

    /// `In` probes with present, absent, and NULL members agree with the
    /// row path and never drop rows (bloom filters only ever *keep*).
    /// Degenerate lists — empty, or NULLs only — must select nothing on
    /// both paths, never panic or select everything.
    #[test]
    fn in_kernels_agree_with_the_scalar_path(
        seed in 1u64..u64::MAX / 2,
        rows in 1usize..300,
        null_den in 0u32..5,
        members in proptest::collection::vec(-10i64..60, 0..6),
        list_kind in 0u32..3, // 0: ints only, 1: ints + NULL, 2: NULLs only
        threads in 0usize..4,
    ) {
        let row = kernel_table(seed, rows, null_den);
        let col = ColumnarTable::from_prob_table_chunked(&row, &Pool::new(2), 64).unwrap();
        let mut list: Vec<Value> = if list_kind == 2 {
            members.iter().map(|_| Value::Null).collect()
        } else {
            members.iter().map(|m| Value::Int(*m)).collect()
        };
        if list_kind == 1 {
            list.push(Value::Null);
        }
        let degenerate = list.iter().all(Value::is_null); // empty or all-NULL
        let p_i = Predicate::is_in("R", "i", list);
        if degenerate {
            let preds = [&p_i];
            let got = scan_filter_project_columnar_ctx(
                &col, "R", &preds, &names(&["i"]), &Pool::new(POOLS[threads]), &CTX,
            ).unwrap();
            prop_assert!(got.is_empty(), "degenerate IN list must select nothing");
        }
        let p_s = Predicate::is_in("R", "s", ["oak", "yew", ""]);
        let keep = names(&["i", "s"]);
        for preds in [vec![&p_i], vec![&p_s], vec![&p_i, &p_s]] {
            let want = ops::scan_filter_project(&row, "R", &preds, &keep).unwrap();
            let got = scan_filter_project_columnar_ctx(
                &col, "R", &preds, &keep, &Pool::new(POOLS[threads]), &CTX,
            ).unwrap();
            prop_assert_eq!(&got, &want, "{:?}", preds);
        }
    }

    /// Every value pushed into a zone map probes positive afterwards: the
    /// bloom filter has no false negatives, for any mix of types.
    #[test]
    fn bloom_filters_never_report_a_present_value_absent(
        ints in proptest::collection::vec(-1_000i64..1_000, 0..80),
        floats in proptest::collection::vec(-100i64..100, 0..40),
        strs in proptest::collection::vec((0usize..8, 0u32..1_000), 0..40),
        nulls in 0usize..8,
    ) {
        let mut values: Vec<Value> = Vec::new();
        values.extend(ints.iter().map(|i| Value::Int(*i)));
        values.extend(floats.iter().map(|f| Value::Float(*f as f64 / 8.0)));
        let words = ["", "a", "ash", "birch", "cedar", "oak", "pine", "yew"];
        values.extend(
            strs.iter()
                .map(|(w, n)| Value::str(format!("{}{n}", words[*w]))),
        );
        let mut b = ZoneMapBuilder::new();
        for v in &values {
            b.push(v);
        }
        for _ in 0..nulls {
            b.push_null();
        }
        let zone: ZoneMap = b.finish();
        for v in &values {
            prop_assert!(zone.may_contain(v), "false negative for {v:?}");
        }
        // Int/Float keys are unified like `Value`'s total order: a float
        // probe for a stored int (and vice versa) must also hit.
        for i in &ints {
            prop_assert!(zone.may_contain(&Value::Float(*i as f64)));
        }
    }

    /// Late string materialization end to end: a join query with string
    /// head columns over a columnar catalog is bitwise-identical to the
    /// eager row path at every thread count.
    #[test]
    fn late_materialization_is_bitwise_identical_across_threads(
        seed in 1u64..u64::MAX / 2,
        r_rows in 1usize..300,
        s_rows in 1usize..120,
        cutoff in -10i64..80,
    ) {
        let r = kernel_table(seed, r_rows, 4);
        let mut s = ProbTable::new(
            Schema::from_pairs(&[("i", DataType::Int), ("tag", DataType::Str)]).unwrap(),
        );
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
        for j in 0..s_rows {
            s.insert(
                Tuple::new(vec![
                    Value::Int(rng.gen_range(0..60i64)),
                    Value::str(if j % 3 == 0 { "keep" } else { "drop" }),
                ]),
                Variable(100_000 + j as u64),
                0.5,
            )
            .unwrap();
        }

        let row_catalog = Catalog::new();
        row_catalog.register_table("R", r.clone()).unwrap();
        row_catalog.register_table("S", s.clone()).unwrap();
        let col_catalog = Catalog::new();
        col_catalog
            .register_columnar("R", ColumnarTable::from_prob_table_chunked(&r, &Pool::new(2), 64).unwrap())
            .unwrap();
        col_catalog
            .register_columnar("S", ColumnarTable::from_prob_table_chunked(&s, &Pool::new(2), 64).unwrap())
            .unwrap();

        // `s` and `tag` are string head attributes carried as ranks on the
        // columnar path; `i` is the join attribute and stays eager.
        let q = ConjunctiveQuery::build(
            &[("R", &["i", "s"]), ("S", &["i", "tag"])],
            &["s", "tag"],
            vec![Predicate::new("R", "i", CompareOp::Lt, cutoff)],
        )
        .unwrap();
        let order = names(&["R", "S"]);
        let want =
            evaluate_join_order_ctx(&q, &row_catalog, &order, &Pool::sequential(), &CTX).unwrap();
        for threads in POOLS {
            let got =
                evaluate_join_order_ctx(&q, &col_catalog, &order, &Pool::new(threads), &CTX)
                    .unwrap();
            prop_assert_eq!(&got, &want, "{} threads", threads);
        }
    }
}

/// Value spans at each word width's edges: `u8` holds 0 and 255, `u16`
/// 256 and 65 535, `u32` 65 536 and 2³² − 1, `u64` 2³² and the full `i64`
/// range, where `max − min` overflows `i64`.
const SPANS: [u64; 8] = [
    0,
    255,
    256,
    65_535,
    65_536,
    u32::MAX as u64,
    1 << 32,
    u64::MAX,
];

/// Dictionary sizes on both sides of the `u8` / `u16` code boundary.
const DICTS: [usize; 4] = [1, 2, 256, 257];

/// `i INT`, `d DATE`, `s STR`, `b BOOL` over `rows` rows cut into 64-row
/// chunks: `i` spans `base..=base + span`, `d` the same span (at most the
/// `u32` one) at an end of the `i32` days, `s` draws from a dictionary of
/// `dict` strings `w00000`, `w00002`, … (even numbers, so odd ones are
/// absent). Both ends of each range occur; one row in `null_den` is NULL
/// (0: none), holding its column's smallest value under the NULL so the
/// width stays the span's.
fn width_table(
    seed: u64,
    span: u64,
    base: i64,
    high_days: bool,
    dict: usize,
    null_den: u32,
    rows: usize,
) -> ColumnarTable {
    let mut rng = SmallRng::seed_from_u64(seed);
    let days = span.min(u32::MAX as u64);
    let day0 = if high_days {
        i32::MAX as i64 - days as i64
    } else {
        i32::MIN as i64
    };
    let at = |b: i64, r: usize, span: u64, rng: &mut SmallRng| match r {
        0 => b,
        1 => b.wrapping_add(span as i64),
        _ => b.wrapping_add(rng.gen_range(0..=span) as i64),
    };
    let mut nulls = [
        NullBitmap::new(rows),
        NullBitmap::new(rows),
        NullBitmap::new(rows),
        NullBitmap::new(rows),
    ];
    let (mut i, mut d, mut s, mut b) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in 0..rows {
        i.push(at(base, r, span, &mut rng));
        d.push(at(day0, r, days, &mut rng));
        s.push(if r == 0 {
            dict as i64 - 1
        } else {
            rng.gen_range(0..dict as i64)
        });
        b.push(rng.gen_bool(0.5));
        for bitmap in &mut nulls {
            if r > 1 && null_den > 0 && rng.gen_range(0..null_den) == 0 {
                bitmap.set_null(r);
            }
        }
    }
    let [ni, nd, ns, nb] = nulls;
    let low = |values: &mut Vec<i64>, nulls: &NullBitmap| {
        let min = *values.iter().min().unwrap();
        (0..values.len())
            .filter(|&r| nulls.is_null(r))
            .for_each(|r| values[r] = min);
        values.iter().copied().collect::<Packed>()
    };
    let columns = vec![
        ColumnData::Int {
            values: low(&mut i, &ni),
            nulls: ni,
        },
        ColumnData::Date {
            values: low(&mut d, &nd),
            nulls: nd,
        },
        ColumnData::Str {
            dict: (0..dict)
                .map(|k| Arc::from(format!("w{:05}", 2 * k)))
                .collect(),
            codes: low(&mut s, &ns),
            nulls: ns,
        },
        ColumnData::Bool {
            values: b,
            nulls: nb,
        },
    ];
    let schema = Schema::from_pairs(&[
        ("i", DataType::Int),
        ("d", DataType::Date),
        ("s", DataType::Str),
        ("b", DataType::Bool),
    ])
    .unwrap();
    let data = ColumnarData::from_columns(schema, 64, columns, &Pool::new(2)).unwrap();
    let vars: Vec<Variable> = (0..rows as u64).map(Variable).collect();
    ColumnarTable::new(Arc::new(data), vars, vec![0.5; rows]).unwrap()
}

/// The constants each column is probed with: around its frame, at the ends
/// of `i64`, and of other types (`Value::cmp` orders those by type rank).
fn probes(table: &ColumnarTable, c: usize) -> Vec<Value> {
    let packed = table.column(c).packed();
    let (lo, hi) = packed.map_or((0, 1), |p| {
        let values = p.decode(0..p.len());
        (*values.iter().min().unwrap(), *values.iter().max().unwrap())
    });
    let around = [
        lo.checked_sub(1),
        Some(lo),
        Some(((i128::from(lo) + i128::from(hi)) / 2) as i64),
        Some(hi),
        hi.checked_add(1),
    ];
    let around = around.into_iter().flatten();
    let mut probes = vec![Value::Null, Value::Int(7), Value::str("w00001")];
    match c {
        0 => {
            probes.extend(around.chain([i64::MIN, i64::MAX]).map(Value::Int));
            let two53 = (1i64 << 53) as f64;
            probes.extend(
                [
                    f64::NAN,
                    0.0,
                    -0.0,
                    two53,
                    (1i64 << 53) as f64 + 2.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    lo as f64 + 0.5,
                    hi as f64 - 0.5,
                    ((1i64 << 53) + 1) as f64,
                ]
                .map(Value::Float),
            );
        }
        1 => probes.extend(
            around
                .chain([i32::MIN.into(), i32::MAX.into()])
                .map(|d| Value::Date(d.clamp(i32::MIN.into(), i32::MAX.into()) as i32)),
        ),
        2 => {
            let ColumnData::Str { dict, .. } = table.column(2) else {
                unreachable!()
            };
            probes.extend(
                dict.iter()
                    .take(3)
                    .chain(dict.last())
                    .map(|s| Value::Str(s.clone())),
            );
            probes.extend(["", "a", "w", "w00003", "w99999x", "z"].map(Value::str));
        }
        _ => probes.extend([false, true].map(Value::Bool)),
    }
    probes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every operator and `In`, against every column of a table packed at
    /// one word width: the interval kernel's mask of every chunk equals the
    /// scalar oracle's, and the scan equals the row path.
    #[test]
    fn the_interval_kernel_agrees_with_the_oracle_at_every_width(
        seed in 1u64..u64::MAX / 2,
        span in 0usize..SPANS.len(),
        base_kind in 0usize..4,
        high_days in proptest::bool::ANY,
        dict in 0usize..DICTS.len(),
        null_den in 0u32..4,
        rows in 130usize..200,
    ) {
        let span = SPANS[span];
        // A negative base, a small one, the lowest, and the highest the span allows.
        let base = match base_kind {
            _ if span == u64::MAX => i64::MIN,
            0 => -((span / 2) as i64) - 1,
            1 => 1_000,
            2 => i64::MIN,
            _ => i64::MAX - span as i64,
        };
        let table = width_table(seed, span, base, high_days, DICTS[dict], null_den, rows);
        let row = table.to_prob_table().unwrap();
        let keep = names(&["i", "d", "s", "b"]);
        for (c, attr) in ["i", "d", "s", "b"].into_iter().enumerate() {
            let probes = probes(&table, c);
            let mut preds: Vec<Predicate> = (0..6)
                .flat_map(|op| probes.iter().map(move |v| Predicate::new("R", attr, compare_op(op), v.clone())))
                .collect();
            preds.push(Predicate::is_in("R", attr, probes.iter().skip(1).step_by(2).cloned()));
            preds.push(Predicate::is_in("R", attr, probes.iter().cloned()));
            for pred in &preds {
                let check = ChunkPredicate::new(&table, pred).unwrap();
                for k in 0..table.num_chunks() {
                    let (kernel, oracle) = check.masks(k);
                    prop_assert_eq!(kernel, oracle, "{:?} chunk {}", pred, k);
                }
            }
            for pred in preds.iter().step_by(5) {
                let preds = [pred];
                let want = ops::scan_filter_project(&row, "R", &preds, &keep).unwrap();
                let got = scan_filter_project_columnar_ctx(&table, "R", &preds, &keep, &Pool::new(2), &CTX).unwrap();
                prop_assert_eq!(&got, &want, "{:?}", pred);
            }
        }
    }
}

/// An `IN` list of `n` constants for column `c` of `table` (a
/// [`width_table`]): members drawn from a window of words above the
/// column's smallest value — `n` wide (the kernel's bitmap), `64 n + 64`
/// wide (its sorted words) or the whole frame — with both window ends in
/// the list, every eighth constant repeating an earlier one, a NULL, and
/// every eighth one of the column's [`probes`] (other types, absent
/// strings, values beyond the frame).
fn in_list(
    table: &ColumnarTable,
    c: usize,
    n: usize,
    window: usize,
    rng: &mut SmallRng,
) -> Vec<Value> {
    let (lo, hi) = table.column(c).packed().map_or((0, 1), |p| {
        let values = p.decode(0..p.len());
        (*values.iter().min().unwrap(), *values.iter().max().unwrap())
    });
    let frame = (i128::from(hi) - i128::from(lo)) as u64;
    let width = match window {
        0 => n as u64,
        1 => 64 * n as u64 + 64,
        _ => frame,
    }
    .min(frame);
    let at = |w: u64| match table.column(c) {
        ColumnData::Int { .. } => Value::Int(lo.wrapping_add(w as i64)),
        ColumnData::Date { .. } => Value::Date((lo + w as i64) as i32),
        ColumnData::Str { dict, .. } => Value::Str(dict[(lo + w as i64) as usize].clone()),
        _ => Value::Bool(w == 1),
    };
    let probes = probes(table, c);
    let mut list: Vec<Value> = Vec::with_capacity(n);
    for k in 0..n {
        let v = match k {
            0 => at(0),
            1 => at(width),
            3 => Value::Null,
            _ if k % 8 == 2 => list[rng.gen_range(0..k)].clone(),
            _ if k % 8 == 5 => probes[rng.gen_range(0..probes.len())].clone(),
            _ => at(rng.gen_range(0..=width)),
        };
        list.push(v);
    }
    list
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `IN` lists of every length the kernel's word set distinguishes,
    /// against every column of a table packed at one word width: the kernel
    /// mask of every chunk equals the scalar oracle's, and the scan equals
    /// the row path.
    #[test]
    fn in_lists_agree_with_the_oracle_at_every_width_and_length(
        seed in 1u64..u64::MAX / 2,
        span in 0usize..SPANS.len(),
        base_kind in 0usize..4,
        high_days in proptest::bool::ANY,
        dict in 0usize..DICTS.len(),
        null_den in 0u32..4,
        rows in 130usize..200,
        window in 0usize..3,
    ) {
        let span = SPANS[span];
        let base = match base_kind {
            _ if span == u64::MAX => i64::MIN,
            0 => -((span / 2) as i64) - 1,
            1 => 1_000,
            2 => i64::MIN,
            _ => i64::MAX - span as i64,
        };
        let table = width_table(seed, span, base, high_days, DICTS[dict], null_den, rows);
        let row = table.to_prob_table().unwrap();
        let keep = names(&["i", "d", "s", "b"]);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x1f);
        for (c, attr) in ["i", "d", "s", "b"].into_iter().enumerate() {
            for n in [0, 1, 2, 63, 64, 65, 5_000] {
                let pred = Predicate::is_in("R", attr, in_list(&table, c, n, window, &mut rng));
                let check = ChunkPredicate::new(&table, &pred).unwrap();
                for k in 0..table.num_chunks() {
                    let (kernel, oracle) = check.masks(k);
                    prop_assert_eq!(kernel, oracle, "{} IN of {} chunk {}", attr, n, k);
                }
                let preds = [&pred];
                let want = ops::scan_filter_project(&row, "R", &preds, &keep).unwrap();
                let got = scan_filter_project_columnar_ctx(&table, "R", &preds, &keep, &Pool::new(2), &CTX).unwrap();
                prop_assert_eq!(&got, &want, "{} IN of {}", attr, n);
            }
        }
    }
}
