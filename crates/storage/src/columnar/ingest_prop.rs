//! The row-major ingest held to the two-pass build it replaced, and the
//! typed statistics kernel held to `ZoneMap::build`.
//!
//! [`reference`] is that build, verbatim: per column, one pass for the
//! canonical-variant check and the chunks' `BTreeSet`s of strings, one pass
//! to fill — a `binary_search` per string cell — and `ZoneMapBuilder` for
//! every chunk, where [`ColumnarTable::from_table`] runs the typed kernel.
//! So `==` between the two (columns, dictionaries, null bitmaps, every
//! [`ZoneMap`] field) is the statement that ingest still produces the table
//! it produced before.

use std::sync::Arc;

use pdb_par::Pool;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use super::zone::KeySet;
use super::{
    bloom_key_str, chunk_zone, ColumnData, ColumnarBuilder, ColumnarTable, NullBitmap, ZoneMap,
};
use crate::error::StorageError;
use crate::schema::{DataType, Schema};
use crate::table::{ProbTable, Table};
use crate::tuple::Tuple;
use crate::value::Value;
use crate::variable::Variable;

mod reference {
    use std::collections::BTreeSet;
    use std::sync::Arc;

    use pdb_par::Pool;

    use super::super::{
        zone, ChunkRepr, ColumnData, ColumnarData, ColumnarTable, NullBitmap, ZoneMap,
    };
    use crate::schema::DataType;
    use crate::table::ProbTable;
    use crate::value::Value;

    /// `from_prob_table_chunked` as it was (the chunk size is the caller's
    /// to validate).
    pub fn ingest(table: &ProbTable, pool: &Pool, chunk_rows: usize) -> ColumnarTable {
        let rows = table.len();
        let schema = table.schema().clone();
        let chunks = chunk_ranges(rows, chunk_rows);
        let mut columns = Vec::with_capacity(schema.len());
        let mut zones = Vec::with_capacity(schema.len());
        for (c, col) in schema.columns().iter().enumerate() {
            let cell = |r: usize| table.rows()[r].value(c);
            let (data, zone) = build_column(col.data_type, rows, &chunks, &cell, pool);
            columns.push(data);
            zones.push(zone);
        }
        ColumnarTable {
            data: Arc::new(ColumnarData {
                schema,
                len: rows,
                chunk_rows,
                columns,
                zones,
            }),
            vars: table.vars().to_vec().into(),
            probs: table.probs().to_vec(),
        }
    }

    /// The chunk ranges covering `0..rows` at `chunk_rows` rows per chunk.
    fn chunk_ranges(rows: usize, chunk_rows: usize) -> Vec<std::ops::Range<usize>> {
        (0..rows.div_ceil(chunk_rows))
            .map(|k| (k * chunk_rows)..((k + 1) * chunk_rows).min(rows))
            .collect()
    }

    /// Builds one column: typed storage when every non-null value is the
    /// canonical variant of `data_type`, [`ColumnData::Mixed`] otherwise, plus
    /// the per-chunk zone maps. Chunk-parallel; identical at every pool size.
    fn build_column<'a>(
        data_type: DataType,
        rows: usize,
        chunks: &[std::ops::Range<usize>],
        cell: &(impl Fn(usize) -> &'a Value + Sync),
        pool: &Pool,
    ) -> (ColumnData, Vec<ZoneMap>) {
        // Pass 1 (parallel): canonical-variant check, and the distinct strings
        // per chunk for dictionary columns.
        let scans: Vec<(bool, BTreeSet<&'a str>)> = pool.map_ranges(chunks, |range| {
            let mut canonical = true;
            let mut strings: BTreeSet<&'a str> = BTreeSet::new();
            for r in range {
                let v = cell(r);
                canonical &= ColumnData::is_canonical(data_type, v);
                if data_type == DataType::Str {
                    if let Value::Str(s) = v {
                        strings.insert(s);
                    }
                }
            }
            (canonical, strings)
        });
        if !scans.iter().all(|(c, _)| *c) {
            // Mixed storage: keep the original values verbatim.
            let mut values = vec![Value::Null; rows];
            let cuts: Vec<usize> = chunks.iter().map(|c| c.start).collect();
            let zones = pool.map_slices_mut(&mut values, &cuts, |k, slice| {
                let range = chunks[k].clone();
                for (i, r) in range.clone().enumerate() {
                    slice[i] = cell(r).clone();
                }
                ZoneMap::build(slice.iter())
            });
            return (ColumnData::Mixed { values }, zones);
        }

        match data_type {
            DataType::Int => build_typed(rows, chunks, pool, 0i64, cell, |v| match v {
                Value::Int(i) => Some(*i),
                _ => None,
            }),
            DataType::Float => build_typed(rows, chunks, pool, 0f64, cell, |v| match v {
                Value::Float(f) => Some(*f),
                _ => None,
            }),
            DataType::Date => build_typed(rows, chunks, pool, 0i32, cell, |v| match v {
                Value::Date(d) => Some(*d),
                _ => None,
            }),
            DataType::Bool => build_typed(rows, chunks, pool, false, cell, |v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            }),
            DataType::Str => build_str(rows, chunks, pool, cell, scans),
        }
    }

    /// A native element type of a typed column: maps back to the canonical
    /// `Value` variant (for zone-map bounds) and wraps a filled vector into its
    /// [`ColumnData`] variant.
    trait Native: Copy + Send + Sync {
        fn to_value(self) -> Value;
        fn into_column(values: Vec<Self>, nulls: NullBitmap) -> ColumnData;
    }
    impl Native for i64 {
        fn to_value(self) -> Value {
            Value::Int(self)
        }
        fn into_column(values: Vec<Self>, nulls: NullBitmap) -> ColumnData {
            let values = values.into_iter().collect();
            ColumnData::Int { values, nulls }
        }
    }
    impl Native for f64 {
        fn to_value(self) -> Value {
            Value::Float(self)
        }
        fn into_column(values: Vec<Self>, nulls: NullBitmap) -> ColumnData {
            ColumnData::Float { values, nulls }
        }
    }
    impl Native for i32 {
        fn to_value(self) -> Value {
            Value::Date(self)
        }
        fn into_column(values: Vec<Self>, nulls: NullBitmap) -> ColumnData {
            let values = values.into_iter().collect();
            ColumnData::Date { values, nulls }
        }
    }
    impl Native for bool {
        fn to_value(self) -> Value {
            Value::Bool(self)
        }
        fn into_column(values: Vec<Self>, nulls: NullBitmap) -> ColumnData {
            ColumnData::Bool { values, nulls }
        }
    }

    /// Chunk-parallel fill of one typed column vector + null bitmap + zone maps.
    fn build_typed<'a, T: Native>(
        rows: usize,
        chunks: &[std::ops::Range<usize>],
        pool: &Pool,
        zero: T,
        cell: &(impl Fn(usize) -> &'a Value + Sync),
        extract: impl Fn(&Value) -> Option<T> + Sync,
    ) -> (ColumnData, Vec<ZoneMap>) {
        let mut values = vec![zero; rows];
        let mut nulls = NullBitmap::new(rows);
        let value_cuts: Vec<usize> = chunks.iter().map(|c| c.start).collect();
        // Chunk sizes are multiples of 64, so chunk k owns bitmap words
        // [start / 64, end / 64) exclusively.
        let word_cuts: Vec<usize> = chunks.iter().map(|c| c.start / 64).collect();
        let zones = pool.map_slices2_mut(
            &mut values,
            &value_cuts,
            nulls.words_mut(),
            &word_cuts,
            |k, vseg, wseg| {
                let range = chunks[k].clone();
                // The builder computes bounds under Value's total order (NaN
                // greatest, -0.0 == 0.0 — exactly what Value::cmp yields on the
                // canonical variants), plus the bloom filter and distinct hint.
                let mut stats = zone::ZoneMapBuilder::new();
                for (i, r) in range.clone().enumerate() {
                    match extract(cell(r)) {
                        Some(v) => {
                            vseg[i] = v;
                            stats.push(&v.to_value());
                        }
                        None => {
                            wseg[i / 64] |= 1 << (i % 64);
                            stats.push_null();
                        }
                    }
                }
                stats.finish()
            },
        );
        (T::into_column(values, nulls), zones)
    }

    /// Chunk-parallel build of an order-preserving dictionary column: the
    /// per-chunk distinct-string sets from pass 1 are merged and ranked, then
    /// every chunk encodes its codes against the canonical dictionary.
    fn build_str<'a>(
        rows: usize,
        chunks: &[std::ops::Range<usize>],
        pool: &Pool,
        cell: &(impl Fn(usize) -> &'a Value + Sync),
        scans: Vec<(bool, BTreeSet<&'a str>)>,
    ) -> (ColumnData, Vec<ZoneMap>) {
        // Merge: the union of the per-chunk sets, already sorted — ranks are
        // independent of chunking, so the dictionary is identical at every
        // thread count.
        let mut merged: BTreeSet<&'a str> = BTreeSet::new();
        for (_, set) in &scans {
            merged.extend(set.iter().copied());
        }
        let ordered: Vec<&'a str> = merged.into_iter().collect();
        let dict: Vec<Arc<str>> = ordered.iter().map(|s| Arc::from(*s)).collect();

        let mut codes = vec![0u32; rows];
        let mut nulls = NullBitmap::new(rows);
        let code_cuts: Vec<usize> = chunks.iter().map(|c| c.start).collect();
        let word_cuts: Vec<usize> = chunks.iter().map(|c| c.start / 64).collect();
        let zones = pool.map_slices2_mut(
            &mut codes,
            &code_cuts,
            nulls.words_mut(),
            &word_cuts,
            |k, cseg, wseg| {
                let range = chunks[k].clone();
                let mut min_code: Option<u32> = None;
                let mut max_code: Option<u32> = None;
                let mut null_count = 0usize;
                let mut seen_codes: Vec<u32> = Vec::new();
                for (i, r) in range.clone().enumerate() {
                    match cell(r) {
                        Value::Str(s) => {
                            let code = ordered
                                .binary_search(&s.as_ref())
                                .expect("every string was collected in pass 1")
                                as u32;
                            cseg[i] = code;
                            seen_codes.push(code);
                            if min_code.is_none_or(|m| code < m) {
                                min_code = Some(code);
                            }
                            if max_code.is_none_or(|m| code > m) {
                                max_code = Some(code);
                            }
                        }
                        _ => {
                            wseg[i / 64] |= 1 << (i % 64);
                            null_count += 1;
                        }
                    }
                }
                // Bloom + distinct over the chunk's distinct codes: each
                // distinct string is hashed exactly once. The distinct hint
                // counts distinct hash keys, matching ZoneMapBuilder.
                seen_codes.sort_unstable();
                seen_codes.dedup();
                let mut keys: Vec<u64> = seen_codes
                    .iter()
                    .map(|&c| zone::bloom_key_str(&dict[c as usize]))
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                let mut bloom = [0u64; zone::BLOOM_WORDS];
                for &key in &keys {
                    zone::bloom_insert(&mut bloom, key);
                }
                let repr = if seen_codes.is_empty() {
                    ChunkRepr::Hetero
                } else {
                    ChunkRepr::Str
                };
                let distinct = keys.len() as u32;
                ZoneMap {
                    min: min_code.map(|c| Value::Str(dict[c as usize].clone())),
                    max: max_code.map(|c| Value::Str(dict[c as usize].clone())),
                    null_count,
                    rows: range.len(),
                    bloom: zone::saturate_bloom(bloom, distinct),
                    distinct,
                    repr,
                }
            },
        );
        let codes = codes.into_iter().collect();
        (ColumnData::Str { dict, codes, nulls }, zones)
    }
}

const TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Float,
    DataType::Str,
    DataType::Date,
    DataType::Bool,
];

/// Row counts on both sides of a chunk boundary at either chunk size.
const ROWS: [usize; 12] = [0, 1, 63, 64, 65, 127, 129, 1023, 1024, 1025, 2047, 2049];

/// A table of `columns` random types. One cell in `null_den` is NULL (0:
/// none). Strings come three ways, so every interning path runs: a clone of
/// a shared `Arc`, a fresh allocation of the same text, a near-unique text.
/// With `plant`, two cells of every FLOAT and DATE column hold the `Int`
/// those types admit beside their canonical variant: one in any row, so a
/// column can turn mixed in its first chunk, and one in the second half of
/// the rows, so a column cut into pieces can meet it after typed chunks.
fn random_table(seed: u64, columns: usize, rows: usize, null_den: u32, plant: bool) -> ProbTable {
    let mut rng = TestRng::seed_from_u64(seed);
    let types: Vec<DataType> = (0..columns)
        .map(|_| TYPES[rng.gen_range(0..TYPES.len())])
        .collect();
    let pairs: Vec<(String, DataType)> = (0..columns).map(|c| format!("c{c}")).zip(types).collect();
    let named: Vec<(&str, DataType)> = pairs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let shared: Vec<Value> = ["", "ash", "birch", "cedar"].map(Value::str).to_vec();
    let planted = [
        rng.gen_range(0..rows.max(1)),
        rng.gen_range(rows / 2..rows.max(1)),
    ];
    let mut table = ProbTable::new(Schema::from_pairs(&named).unwrap());
    for r in 0..rows {
        let cells = named.iter().map(|&(_, data_type)| {
            if null_den > 0 && rng.gen_range(0..null_den) == 0 {
                return Value::Null;
            }
            match data_type {
                DataType::Float | DataType::Date if plant && planted.contains(&r) => Value::Int(7),
                DataType::Int => Value::Int(r as i64 / 5 - rng.gen_range(0..3i64)),
                DataType::Float if rng.gen_range(0..8) == 0 => Value::Float(-0.0),
                DataType::Float => Value::Float(rng.gen_range(-24..24i64) as f64 / 4.0),
                DataType::Str => match rng.gen_range(0..3) {
                    0 => shared[rng.gen_range(0..shared.len())].clone(),
                    1 => Value::str(shared[rng.gen_range(0..shared.len())].to_string()),
                    _ => Value::from(format!("s{}", rng.gen_range(0..rows.max(1) * 2))),
                },
                DataType::Date => Value::Date(9_000 + r as i32 / 7),
                DataType::Bool => Value::Bool(rng.gen_bool(0.5)),
            }
        });
        let prob = 0.05 + (r % 17) as f64 / 18.0;
        table
            .insert(Tuple::new(cells.collect()), Variable(r as u64), prob)
            .unwrap();
    }
    table
}

/// `built` against `expected` column by column first, so a failure names
/// the column and chunk; float columns by their bits; then as wholes.
fn assert_same(
    built: &ColumnarTable,
    expected: &ColumnarTable,
    table: &ProbTable,
) -> Result<(), TestCaseError> {
    for (c, col) in table.schema().columns().iter().enumerate() {
        prop_assert_eq!(
            built.column(c),
            expected.column(c),
            "column {} ({})",
            c,
            col.data_type
        );
        if let (ColumnData::Float { values, .. }, ColumnData::Float { values: old, .. }) =
            (built.column(c), expected.column(c))
        {
            // `f64: PartialEq` cannot tell -0.0 from 0.0; the bits can.
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(values), bits(old), "column {} bits", c);
        }
        // A planted `Int` (unless a NULL took its cell) makes the column mixed.
        let planted = table
            .rows()
            .iter()
            .any(|row| matches!(row.value(c), Value::Int(_)));
        if planted && matches!(col.data_type, DataType::Float | DataType::Date) {
            let mixed = matches!(built.column(c), ColumnData::Mixed { .. });
            prop_assert!(mixed, "column {} holds a planted Int", c);
        }
        for k in 0..expected.num_chunks() {
            let (got, want): (&ZoneMap, &ZoneMap) = (built.zone(c, k), expected.zone(c, k));
            prop_assert_eq!(got, want, "column {} chunk {}", c, k);
        }
    }
    prop_assert!(built == expected, "tables differ outside columns and zones");
    Ok(())
}

/// Piece sizes on both sides of both chunk sizes; `None` cuts at seeded
/// random points instead.
const PIECES: [Option<usize>; 8] = [
    Some(1),
    Some(63),
    Some(64),
    Some(65),
    Some(1023),
    Some(1024),
    Some(1025),
    None,
];

/// `0..rows` cut into consecutive pieces of `piece` rows, or at random
/// points drawn from `seed`.
fn cut(rows: usize, piece: Option<usize>, seed: u64) -> Vec<std::ops::Range<usize>> {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let mut start = 0;
    while start < rows {
        let end = (start + piece.unwrap_or_else(|| rng.gen_range(1..1100))).min(rows);
        out.push(start..end);
        start = end;
    }
    out
}

/// `table` pushed to a builder piece by piece. With `fresh`, every piece is
/// a copy whose strings are new allocations, dropped before the next piece
/// is made, so a later piece's strings can take a dropped piece's addresses.
fn build_in_pieces(
    table: &ProbTable,
    pieces: &[std::ops::Range<usize>],
    fresh: bool,
    pool: &Pool,
    chunk_rows: usize,
) -> ColumnarTable {
    let mut builder = ColumnarBuilder::new(table.schema().clone(), chunk_rows, pool).unwrap();
    for piece in pieces {
        let rows = &table.rows()[piece.clone()];
        if fresh {
            let copy: Vec<Tuple> = rows
                .iter()
                .map(|row| {
                    let cells = row.values().iter().map(|v| match v {
                        Value::Str(s) => Value::str(s),
                        v => v.clone(),
                    });
                    Tuple::new(cells.collect())
                })
                .collect();
            builder.push(&copy);
        } else {
            builder.push(rows);
        }
    }
    let (vars, probs) = (table.vars().to_vec(), table.probs().to_vec());
    ColumnarTable::new(Arc::new(builder.finish()), vars, probs).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_sweep_builds_the_table_the_two_pass_build_built(
        seed in 1u64..u64::MAX / 2,
        columns in 1usize..7,
        rows in 0usize..ROWS.len(),
        null_den in 0u32..5,
        plant in proptest::bool::ANY,
        big_chunks in proptest::bool::ANY,
        threads in 0usize..3,
    ) {
        let table = random_table(seed, columns, ROWS[rows], null_den, plant);
        let chunk_rows = if big_chunks { 1024 } else { 64 };
        let pool = Pool::new([1, 2, 8][threads]);
        let expected = reference::ingest(&table, &Pool::sequential(), chunk_rows);
        let built = ColumnarTable::from_prob_table_chunked(&table, &pool, chunk_rows).unwrap();
        assert_same(&built, &expected, &table)?;
        prop_assert!(built.to_prob_table().unwrap() == table, "round trip");

        if big_chunks {
            let (vars, probs) = (table.vars().to_vec(), table.probs().to_vec());
            let borrowed = ColumnarTable::from_table(table.data(), vars, probs, &pool).unwrap();
            prop_assert!(borrowed == expected, "from_table");
        }
    }

    #[test]
    fn any_cut_into_pieces_builds_the_table_one_push_builds(
        seed in 1u64..u64::MAX / 2,
        columns in 1usize..7,
        rows in 0usize..ROWS.len(),
        null_den in 0u32..5,
        plant in proptest::bool::ANY,
        big_chunks in proptest::bool::ANY,
        threads in 0usize..3,
        piece in 0usize..PIECES.len(),
        fresh in proptest::bool::ANY,
    ) {
        let table = random_table(seed, columns, ROWS[rows], null_den, plant);
        let chunk_rows = if big_chunks { 1024 } else { 64 };
        let pool = Pool::new([1, 2, 8][threads]);
        let pieces = cut(table.len(), PIECES[piece], seed);
        let built = build_in_pieces(&table, &pieces, fresh, &pool, chunk_rows);
        let expected = reference::ingest(&table, &Pool::sequential(), chunk_rows);
        assert_same(&built, &expected, &table)?;
        let whole = if big_chunks {
            let (vars, probs) = (table.vars().to_vec(), table.probs().to_vec());
            ColumnarTable::from_table(table.data(), vars, probs, &pool).unwrap()
        } else {
            ColumnarTable::from_prob_table_chunked(&table, &pool, chunk_rows).unwrap()
        };
        prop_assert!(built == whole, "one push");
    }
}

/// Chunk lengths the kernel is held to the definition at.
const KERNEL_ROWS: [usize; 5] = [1, 63, 64, 65, 1024];

/// A typed column of `rows` rows of type `TYPES[ty]`. One cell in `null_den`
/// is NULL (0: none, 1: all). With `wide`, integers sit beyond ±2⁵³, where
/// neighbours share an `f64` and so a bloom key, floats mix NaN and the
/// infinities in, and strings and dates spread over more values than a
/// filter holds before it saturates. String codes are ranks into a sorted
/// dictionary, as after the finish.
fn random_column(seed: u64, ty: usize, rows: usize, null_den: u32, wide: bool) -> ColumnData {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut nulls = NullBitmap::new(rows);
    for r in 0..rows {
        if null_den == 1 || (null_den > 1 && rng.gen_range(0..null_den) == 0) {
            nulls.set_null(r);
        }
    }
    let span = if wide { 4 * rows as i64 + 80 } else { 12 };
    match TYPES[ty] {
        DataType::Int => {
            let base = if wide { 1i64 << 53 } else { 0 };
            let values = (0..rows)
                .map(|_| rng.gen_range(-3i64..4) * base + rng.gen_range(-span..span))
                .collect();
            ColumnData::Int { values, nulls }
        }
        DataType::Float => {
            // Narrow columns lie on one side of zero, so a bound is a tie of
            // -0.0 and 0.0 in whichever order they came.
            let special = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY];
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let values = (0..rows)
                .map(|_| match rng.gen_range(0..10) {
                    k @ 0..=4 if wide => special[k],
                    k @ 0..=3 => special[1 + k % 2],
                    _ if wide => rng.gen_range(-span..span) as f64 / 4.0,
                    _ => sign * rng.gen_range(1..span) as f64 / 4.0,
                })
                .collect();
            ColumnData::Float { values, nulls }
        }
        DataType::Date => {
            let values = (0..rows)
                .map(|_| rng.gen_range(-span..span) as i32)
                .collect();
            ColumnData::Date { values, nulls }
        }
        DataType::Bool => {
            let values = (0..rows).map(|_| rng.gen_bool(0.5)).collect();
            ColumnData::Bool { values, nulls }
        }
        DataType::Str => {
            let mut dict: Vec<Arc<str>> = (0..span).map(|i| Arc::from(format!("s{i}"))).collect();
            dict.sort();
            let codes = (0..rows).map(|_| rng.gen_range(0..span as u32)).collect();
            ColumnData::Str { dict, codes, nulls }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_kernel_summarises_a_typed_chunk_as_the_definition_does(
        seed in 1u64..u64::MAX / 2,
        rows in 0usize..KERNEL_ROWS.len(),
        offset in 0usize..3,
        null_den in 0u32..4,
        wide in proptest::bool::ANY,
    ) {
        // The chunk starts after `offset` others of 64 or 1 024 rows; one
        // scratch set summarises every chunk of every type in turn.
        let offset = [0, 64, 1024][offset];
        let rows = KERNEL_ROWS[rows];
        let mut set = KeySet::default();
        for ty in 0..TYPES.len() {
            let column = random_column(seed, ty, offset + rows, null_den, wide);
            let keys: Vec<u64> = match &column {
                ColumnData::Str { dict, .. } => dict.iter().map(|s| bloom_key_str(s)).collect(),
                _ => Vec::new(),
            };
            for chunk in [0..offset, offset..offset + rows] {
            let decoded: Vec<Value> = chunk.clone().map(|r| column.value(r)).collect();
            let want = ZoneMap::build(decoded.iter());
            let got = chunk_zone(&column, &keys, chunk, &mut set);
            prop_assert_eq!(&got, &want);
            // `Value`'s `==` cannot tell -0.0 from 0.0: the first-seen tie
            // shows in the debug text.
            prop_assert_eq!(format!("{:?}", got.min), format!("{:?}", want.min));
            prop_assert_eq!(format!("{:?}", got.max), format!("{:?}", want.max));
            }
        }
    }
}

#[test]
fn a_string_column_meeting_another_variant_in_a_later_piece_turns_mixed() {
    // `Table::rows_mut` leaves the schema to its caller, so a STR column can
    // hold an `Int`; the builder must decode the typed chunks before it.
    let schema = Schema::from_pairs(&[("s", DataType::Str), ("k", DataType::Int)]).unwrap();
    let names = ["ash", "birch", "cedar"].map(Value::str);
    let mut table = Table::new(schema.clone());
    for r in 0..300i64 {
        let name = match r {
            250 => Value::Int(250),
            _ if r % 7 == 0 => Value::Null,
            _ => names[r as usize % names.len()].clone(),
        };
        table.rows_mut().push(Tuple::new(vec![name, Value::Int(r)]));
    }
    let mut builder = ColumnarBuilder::new(schema, 64, &Pool::new(2)).unwrap();
    for piece in table.rows().chunks(100) {
        builder.push(piece);
    }
    let data = builder.finish();
    let values: Vec<Value> = table
        .rows()
        .iter()
        .map(|row| row.value(0).clone())
        .collect();
    assert_eq!(
        data.columns[0],
        ColumnData::Mixed {
            values: values.clone()
        }
    );
    let zones: Vec<ZoneMap> = values
        .chunks(64)
        .map(|chunk| ZoneMap::build(chunk.iter()))
        .collect();
    assert_eq!(data.zones[0], zones);
    assert!(matches!(data.columns[1], ColumnData::Int { .. }));
    assert_eq!(data.to_table(), table);
}

fn two_rows() -> Table {
    let schema = Schema::from_pairs(&[("s", DataType::Str)]).unwrap();
    Table::from_rows(schema, vec![crate::tuple!["a"], crate::tuple!["b"]]).unwrap()
}

#[test]
fn dictionary_strings_are_copies_not_the_rows_allocations() {
    // A dictionary entry sharing the row's `Arc` would pin the generator's
    // heap block by block after the rows are dropped.
    let table = two_rows();
    let vars = vec![Variable(0), Variable(1)];
    let col = ColumnarTable::from_table(&table, vars, vec![0.5, 1.0], &Pool::sequential()).unwrap();
    let ColumnData::Str { dict, .. } = col.column(0) else {
        panic!("a string column");
    };
    let Value::Str(source) = table.rows()[0].value(0) else {
        panic!("a string cell");
    };
    assert_eq!(dict[0], *source);
    assert!(!Arc::ptr_eq(&dict[0], source));
}

#[test]
fn from_table_rejects_a_probability_outside_the_unit_interval() {
    let vars = vec![Variable(0), Variable(1)];
    for bad in [0.0, 1.5, f64::NAN] {
        let probs = vec![0.5, bad];
        let got = ColumnarTable::from_table(&two_rows(), vars.clone(), probs, &Pool::sequential());
        assert!(
            matches!(got, Err(StorageError::InvalidProbability(_))),
            "{bad}"
        );
    }
}

#[test]
#[should_panic(expected = "a (V, P) pair per row")]
fn from_table_panics_on_a_missing_annotation() {
    let _ = ColumnarTable::from_table(
        &two_rows(),
        vec![Variable(0)],
        vec![0.5],
        &Pool::sequential(),
    );
}

#[test]
#[should_panic(expected = "one cell per column")]
fn a_row_that_lost_a_cell_is_refused() {
    // `Table::rows_mut` leaves the schema to its caller; a short row must
    // not ingest as zeros.
    let mut table = two_rows();
    table.rows_mut()[1] = Tuple::empty();
    let vars = vec![Variable(0), Variable(1)];
    let _ = ColumnarTable::from_table(&table, vars, vec![0.5, 0.5], &Pool::sequential());
}
