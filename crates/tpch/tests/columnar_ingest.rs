//! The columnar catalog against the builds it replaced, its sharing, and
//! the typed front door the generator builds it through.
//!
//! `probabilistic_catalog_columnar` registers tables that share the
//! generator's columns and only draw their variables and probabilities.
//! Replayed here table by table, with the same seed, over the decoded row
//! view `TpchData::table`: every catalog table must be `==` — columns,
//! dictionaries, zone maps, variables, probabilities — to
//! `ColumnarTable::from_table` over those rows, and to the clone, annotate
//! and convert build the set-up once took. At SF 0.01 `Item` has 60-odd
//! chunks and its dictionaries span them.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pdb_par::Pool;
use pdb_storage::columnar::{Packed, Words};
use pdb_storage::{
    ColumnData, ColumnarBuilder, ColumnarData, ColumnarTable, DataType, NullBitmap, ProbTable,
    Schema, StorageBacking, StorageError, Tuple, Value, Variable, VariableGenerator,
};
use pdb_tpch::{probabilistic_catalog_columnar, TpchData, TpchScale};

#[test]
fn all_nine_tables_equal_the_clone_annotate_convert_build() {
    for scale in [TpchScale::tiny(), TpchScale::new(0.01)] {
        every_table_equals_the_row_builds(scale);
    }
}

fn every_table_equals_the_row_builds(scale: TpchScale) {
    let data = TpchData::generate(scale);
    let catalog = probabilistic_catalog_columnar(&data, 1).unwrap();
    let mut rng = SmallRng::seed_from_u64(1);
    let mut gen = VariableGenerator::new();
    let pool = Pool::from_env();
    for (name, _) in data.tables() {
        let table = data.table(name);
        let prob = ProbTable::from_table(table.clone(), &mut gen, |_| {
            let p: f64 = rng.gen_range(0.05..=1.0);
            (p * 100.0).round() / 100.0
        })
        .unwrap();
        let (vars, probs) = (prob.vars().to_vec(), prob.probs().to_vec());
        let from_rows = ColumnarTable::from_table(&table, vars, probs, &pool).unwrap();
        let StorageBacking::Columnar(got) = catalog.backing(name).unwrap() else {
            panic!("{name} is columnar");
        };
        assert_eq!(*got, from_rows, "{name}: from_table");
        assert_eq!(
            *got,
            ColumnarTable::from_prob_table(&prob, &pool).unwrap(),
            "{name}: from_prob_table"
        );
    }
}

#[test]
fn every_catalog_table_shares_the_generated_columns() {
    let data = TpchData::generate(TpchScale::tiny());
    let catalog = probabilistic_catalog_columnar(&data, 1).unwrap();
    assert_eq!(data.tables().count(), 9);
    for (name, columns) in data.tables() {
        let StorageBacking::Columnar(got) = catalog.backing(name).unwrap() else {
            panic!("{name} is columnar");
        };
        assert!(
            Arc::ptr_eq(got.data(), columns),
            "{name} copies its columns"
        );
    }
}

/// `k INT, s STR`: the shape every front-door test below feeds.
fn schema() -> Schema {
    Schema::from_pairs(&[("k", DataType::Int), ("s", DataType::Str)]).unwrap()
}

fn ints(values: Vec<i64>) -> ColumnData {
    let nulls = NullBitmap::new(values.len());
    let values = values.into_iter().collect();
    ColumnData::Int { values, nulls }
}

/// Codes into the unranked dictionary `["b", "a", "b", "unused"]`.
fn strs(codes: Vec<u32>) -> ColumnData {
    let dict = ["b", "a", "b", "unused"].map(Arc::from).to_vec();
    let nulls = NullBitmap::new(codes.len());
    let codes = codes.into_iter().collect();
    ColumnData::Str { dict, codes, nulls }
}

fn from_columns(columns: Vec<ColumnData>) -> Result<ColumnarData, StorageError> {
    ColumnarData::from_columns(schema(), 64, columns, &Pool::new(2))
}

#[test]
fn from_columns_builds_the_table_the_builder_builds() {
    // A repeated and an unused dictionary entry, and a NULL whose code is
    // out of range: the finish ranks the strings used and zeroes the code.
    let mut column = strs((0..130).map(|r| if r == 7 { 99 } else { r % 3 }).collect());
    if let ColumnData::Str { nulls, .. } = &mut column {
        nulls.set_null(7);
    }
    let got = from_columns(vec![ints((0..130).collect()), column]).unwrap();
    let rows: Vec<Tuple> = (0..130)
        .map(|r| {
            let s = match r {
                7 => Value::Null,
                _ => Value::str(["b", "a", "b"][r % 3]),
            };
            Tuple::new(vec![Value::Int(r as i64), s])
        })
        .collect();
    let mut builder = ColumnarBuilder::new(schema(), 64, &Pool::sequential()).unwrap();
    builder.push(&rows);
    assert_eq!(got, builder.finish());
    let (vars, probs) = ((0..130).map(Variable).collect::<Vec<_>>(), vec![0.5; 130]);
    let table = ColumnarTable::new(Arc::new(got), vars, probs).unwrap();
    let ColumnData::Str { dict, codes, .. } = table.column(1) else {
        panic!("a string column");
    };
    assert_eq!(dict, &["a", "b"].map(Arc::from).to_vec());
    assert_eq!(codes.get(7), 0);
}

#[test]
fn from_columns_refuses_a_column_of_the_wrong_length() {
    let got = from_columns(vec![ints(vec![1, 2, 3]), strs(vec![0, 1])]);
    assert_eq!(
        got,
        Err(StorageError::ColumnLength {
            column: "s".into(),
            expected: 3,
            actual: 2
        })
    );
    // A null bitmap sized for other rows is a wrong length too.
    let nulls = NullBitmap::new(200);
    let short = ColumnData::Int {
        values: [1, 2].into_iter().collect(),
        nulls,
    };
    let got = from_columns(vec![short, strs(vec![0, 1])]);
    assert_eq!(
        got,
        Err(StorageError::ColumnLength {
            column: "k".into(),
            expected: 2,
            actual: 256
        })
    );
}

#[test]
fn from_columns_refuses_storage_of_another_type() {
    let floats = ColumnData::Float {
        values: vec![1.0],
        nulls: NullBitmap::new(1),
    };
    let got = from_columns(vec![floats, strs(vec![0])]);
    assert_eq!(
        got,
        Err(StorageError::ColumnType {
            column: "k".into(),
            expected: DataType::Int
        })
    );
    let mixed = ColumnData::Mixed {
        values: vec![Value::str("a")],
    };
    let got = from_columns(vec![ints(vec![1]), mixed]);
    assert_eq!(
        got,
        Err(StorageError::ColumnType {
            column: "s".into(),
            expected: DataType::Str
        })
    );
}

#[test]
fn from_columns_refuses_a_code_outside_the_dictionary() {
    let got = from_columns(vec![ints(vec![1, 2, 3]), strs(vec![0, 4, 1])]);
    assert_eq!(
        got,
        Err(StorageError::CodeOutOfRange {
            column: "s".into(),
            code: 4,
            dictionary: 4
        })
    );
}

#[test]
fn item_and_ord_columns_pack_at_the_width_their_ranges_need() {
    let data = TpchData::generate(TpchScale::new(0.01));
    let catalog = probabilistic_catalog_columnar(&data, 1).unwrap();
    // Bytes a row per column in schema order (`None`: an `f64` column),
    // then the variables'.
    let ord = [Some(2), Some(2), Some(1), None, Some(2), Some(1)];
    let item = [
        Some(2), // okey 1..=15 000
        Some(1), // linenumber 1..=7
        Some(2), // pkey 1..=2 000
        Some(1), // skey 1..=100
        Some(1), // quantity 1..=50
        None,
        None,
        Some(2), // shipdate, 2 400-odd days
        Some(1), // returnflag, 3 codes
        Some(1), // shipmode, 7 codes
    ];
    for (name, widths, vars) in [("Ord", &ord[..], 2), ("Item", &item[..], 2)] {
        let StorageBacking::Columnar(table) = catalog.backing(name).unwrap() else {
            panic!("{name} is columnar");
        };
        let got: Vec<Option<usize>> = (0..table.schema().len())
            .map(|c| table.column(c).packed().map(Packed::width))
            .collect();
        assert_eq!(got, widths, "{name}");
        assert_eq!(table.vars().width(), vars, "{name} variables");
    }
}

#[test]
fn from_columns_refuses_a_word_outside_its_frame() {
    // u8 words over `i64::MAX - 1`: the third reaches past `i64::MAX`.
    let wrapped = ColumnData::Int {
        values: Packed::from_parts(i64::MAX - 1, Words::U8(vec![0, 1, 2])),
        nulls: NullBitmap::new(3),
    };
    let got = from_columns(vec![wrapped, strs(vec![0, 1, 0])]);
    let column = "k".to_string();
    assert_eq!(got, Err(StorageError::WordOutOfFrame { column, row: 2 }));
    // A date is an `i32` count of days.
    let days = ColumnData::Date {
        values: [0, i64::from(i32::MAX) + 1].into_iter().collect(),
        nulls: NullBitmap::new(2),
    };
    let schema = Schema::from_pairs(&[("d", DataType::Date)]).unwrap();
    let got = ColumnarData::from_columns(schema, 64, vec![days], &Pool::sequential());
    let column = "d".to_string();
    assert_eq!(got, Err(StorageError::WordOutOfFrame { column, row: 1 }));
    // A code below the dictionary, from a negative base.
    let codes = Packed::from_parts(-1, Words::U8(vec![1, 2, 0]));
    let nulls = NullBitmap::new(3);
    let dict = ["a", "b"].map(Arc::from).to_vec();
    let below = ColumnData::Str { dict, codes, nulls };
    let got = from_columns(vec![ints(vec![1, 2, 3]), below]);
    let column = "s".to_string();
    let want = StorageError::CodeOutOfRange {
        column,
        code: -1,
        dictionary: 2,
    };
    assert_eq!(got, Err(want));
}
