//! Typed columns and null bitmaps — the physical layer of
//! [`crate::columnar::ColumnarTable`].
//!
//! Each attribute is stored as one dense typed column plus a null bitmap.
//! Integers, dates (days since 1970-01-01) and dictionary codes are
//! [`Packed`]: a base plus one `u8`/`u16`/`u32`/`u64` word per row, the
//! narrowest that holds the column's range. Floats stay `f64` and booleans
//! `bool`. The variant is chosen from the column's [`DataType`] **only when
//! every non-null stored value is the canonical [`Value`] variant of that
//! type**; columns mixing representations (legal under
//! [`DataType::admits`], e.g. `Value::Int` stored in a `FLOAT` column) fall
//! back to [`ColumnData::Mixed`], which keeps the original `Value`s so that
//! decoding reproduces the row representation **bitwise** — the columnar
//! scan's determinism contract is that its output equals the row-at-a-time
//! scan exactly, value enum variants included.
//!
//! Strings are dictionary-encoded with an **order-preserving** dictionary:
//! `dict` is sorted lexicographically and row `r`'s code is the rank of its
//! string, so comparing codes compares strings and the per-chunk min/max
//! codes double as zone-map bounds.

use std::ops::RangeInclusive;
use std::sync::Arc;

use super::packed::Packed;
use crate::error::{StorageError, StorageResult};
use crate::schema::{Column, DataType};
use crate::value::Value;

/// A null bitmap: bit `r` is set iff row `r` is SQL NULL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullBitmap {
    words: Vec<u64>,
}

impl NullBitmap {
    /// An all-valid bitmap sized for `rows` rows.
    pub fn new(rows: usize) -> NullBitmap {
        NullBitmap {
            words: vec![0; rows.div_ceil(64)],
        }
    }

    /// Marks row `r` as NULL.
    #[inline]
    pub fn set_null(&mut self, r: usize) {
        self.words[r / 64] |= 1 << (r % 64);
    }

    /// Whether row `r` is NULL.
    #[inline]
    pub fn is_null(&self, r: usize) -> bool {
        self.words[r / 64] & (1 << (r % 64)) != 0
    }

    /// Number of NULL rows in `range` (callers keep ranges word-aligned for
    /// the popcount fast path, but any range is correct).
    pub fn count_nulls(&self, range: std::ops::Range<usize>) -> usize {
        if range.start.is_multiple_of(64) && range.end.is_multiple_of(64) {
            return self.words[range.start / 64..range.end / 64]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum();
        }
        range.filter(|&r| self.is_null(r)).count()
    }

    /// Whether the bitmap is sized for exactly `rows` rows, with no bit set
    /// beyond them.
    fn fits(&self, rows: usize) -> bool {
        self.words.len() == rows.div_ceil(64)
            && self
                .words
                .last()
                .is_none_or(|w| rows.is_multiple_of(64) || w >> (rows % 64) == 0)
    }

    /// Sizes the bitmap for `rows` rows; new rows are valid.
    pub(super) fn resize(&mut self, rows: usize) {
        self.words.resize(rows.div_ceil(64), 0);
    }

    /// The backing words (64 rows per word). Exposed so parallel ingest can
    /// fill disjoint chunk-aligned word ranges in place.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// The backing words, read-only (64 rows per word). The columnar scan's
    /// bitmask kernels AND `!words` into their selection masks so NULL rows
    /// fail every predicate without a per-row branch.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// One attribute's values, stored as a typed column plus the null bitmap.
///
/// For every variant the column has one (possibly meaningless, for NULL
/// rows) entry per row; NULL-ness lives exclusively in the bitmap.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit integers.
    Int { values: Packed, nulls: NullBitmap },
    /// 64-bit floats, stored bit-exactly (NaN payloads included).
    Float { values: Vec<f64>, nulls: NullBitmap },
    /// Dictionary-encoded strings: `dict` sorted lexicographically,
    /// `codes.get(r)` the rank of row `r`'s string (0 for NULL rows).
    Str {
        dict: Vec<Arc<str>>,
        codes: Packed,
        nulls: NullBitmap,
    },
    /// Days since 1970-01-01, each within `i32`.
    Date { values: Packed, nulls: NullBitmap },
    /// Booleans.
    Bool {
        values: Vec<bool>,
        nulls: NullBitmap,
    },
    /// Escape hatch for columns whose stored values are not uniformly the
    /// canonical variant of the declared type (e.g. integers in a FLOAT
    /// column): the original `Value`s, kept verbatim.
    Mixed { values: Vec<Value> },
}

impl ColumnData {
    /// Reconstructs row `r`'s value exactly as the row representation stores
    /// it.
    #[inline]
    pub fn value(&self, r: usize) -> Value {
        match self {
            ColumnData::Int { values, nulls } => {
                if nulls.is_null(r) {
                    Value::Null
                } else {
                    Value::Int(values.get(r))
                }
            }
            ColumnData::Float { values, nulls } => {
                if nulls.is_null(r) {
                    Value::Null
                } else {
                    Value::Float(values[r])
                }
            }
            ColumnData::Str { dict, codes, nulls } => {
                if nulls.is_null(r) {
                    Value::Null
                } else {
                    Value::Str(dict[codes.get(r) as usize].clone())
                }
            }
            ColumnData::Date { values, nulls } => {
                if nulls.is_null(r) {
                    Value::Null
                } else {
                    Value::Date(values.get(r) as i32)
                }
            }
            ColumnData::Bool { values, nulls } => {
                if nulls.is_null(r) {
                    Value::Null
                } else {
                    Value::Bool(values[r])
                }
            }
            ColumnData::Mixed { values } => values[r].clone(),
        }
    }

    /// The packed storage of an integer or date column, or of a string
    /// column's codes.
    pub fn packed(&self) -> Option<&Packed> {
        match self {
            ColumnData::Int { values, .. }
            | ColumnData::Date { values, .. }
            | ColumnData::Str { codes: values, .. } => Some(values),
            _ => None,
        }
    }

    /// Whether row `r` is NULL.
    #[inline]
    pub fn is_null(&self, r: usize) -> bool {
        match self {
            ColumnData::Int { nulls, .. }
            | ColumnData::Float { nulls, .. }
            | ColumnData::Str { nulls, .. }
            | ColumnData::Date { nulls, .. }
            | ColumnData::Bool { nulls, .. } => nulls.is_null(r),
            ColumnData::Mixed { values } => values[r].is_null(),
        }
    }

    /// Number of distinct values in the column, NULL counted as one value —
    /// the count [`crate::TableStats`] takes of the row representation
    /// ([`crate::value::sort_distinct`]; the planner's statistics source).
    pub fn distinct_count(&self, rows: usize) -> usize {
        let has_null = (0..rows).any(|r| self.is_null(r));
        let non_null = match self {
            ColumnData::Int { values, nulls } | ColumnData::Date { values, nulls } => {
                distinct_keys(nulls, rows, |r| values.get(r) as u64)
            }
            // Fold -0.0 onto 0.0 and all NaNs together, matching `Value`'s
            // total order (one distinct NaN, -0.0 == 0.0).
            ColumnData::Float { values, nulls } => distinct_keys(nulls, rows, |r| {
                let f = values[r];
                if f.is_nan() {
                    f64::NAN.to_bits()
                } else if f == 0.0 {
                    0.0f64.to_bits()
                } else {
                    f.to_bits()
                }
            }),
            // The dictionary is exactly the distinct non-null strings.
            ColumnData::Str { dict, .. } => dict.len(),
            ColumnData::Bool { values, nulls } => {
                let mut seen = [false; 2];
                for r in (0..rows).filter(|&r| !nulls.is_null(r)) {
                    seen[values[r] as usize] = true;
                }
                seen[0] as usize + seen[1] as usize
            }
            ColumnData::Mixed { values } => {
                // Counts NULL as one value, so return directly.
                let mut values: Vec<&Value> = values[..rows].iter().collect();
                crate::value::sort_distinct(&mut values);
                return values.len();
            }
        };
        non_null + has_null as usize
    }

    /// Number of rows stored.
    pub(super) fn rows(&self) -> usize {
        match self {
            ColumnData::Int { values, .. } | ColumnData::Date { values, .. } => values.len(),
            ColumnData::Float { values, .. } => values.len(),
            ColumnData::Str { codes, .. } => codes.len(),
            ColumnData::Bool { values, .. } => values.len(),
            ColumnData::Mixed { values } => values.len(),
        }
    }

    /// Checks that `self` is typed storage of `column`'s declared type
    /// holding `rows` rows, whose valid string cells index its dictionary.
    pub(super) fn check(&self, column: &Column, rows: usize) -> StorageResult<()> {
        let name = || column.name.clone();
        let nulls = match (self, column.data_type) {
            (ColumnData::Int { nulls, .. }, DataType::Int)
            | (ColumnData::Float { nulls, .. }, DataType::Float)
            | (ColumnData::Str { nulls, .. }, DataType::Str)
            | (ColumnData::Date { nulls, .. }, DataType::Date)
            | (ColumnData::Bool { nulls, .. }, DataType::Bool) => nulls,
            (_, expected) => {
                let column = name();
                return Err(StorageError::ColumnType { column, expected });
            }
        };
        let held = self.rows();
        let actual = if nulls.fits(held) {
            held
        } else {
            64 * nulls.words.len()
        };
        if actual != rows {
            let (column, expected) = (name(), rows);
            return Err(StorageError::ColumnLength {
                column,
                expected,
                actual,
            });
        }
        let Some(packed) = self.packed() else {
            return Ok(());
        };
        let wrapped = packed.first_wrapped().or_else(|| match self {
            ColumnData::Date { values, .. } => {
                first_outside(values, i32::MIN.into()..=i32::MAX.into(), |_| true)
            }
            _ => None,
        });
        if let Some(row) = wrapped {
            let column = name();
            return Err(StorageError::WordOutOfFrame { column, row });
        }
        if let ColumnData::Str { dict, codes, .. } = self {
            let valid = |r: usize| !nulls.is_null(r);
            if let Some(row) = first_outside(codes, 0..=dict.len() as i64 - 1, valid) {
                let (column, dictionary) = (name(), dict.len());
                let code = codes.get(row);
                return Err(StorageError::CodeOutOfRange {
                    column,
                    code,
                    dictionary,
                });
            }
        }
        Ok(())
    }

    /// Grows or cuts the column to `rows` rows; new rows are valid zeros
    /// (NULL in a mixed column).
    pub(super) fn resize(&mut self, rows: usize) {
        match self {
            ColumnData::Int { values, .. } | ColumnData::Date { values, .. } => values.resize(rows),
            ColumnData::Float { values, .. } => values.resize(rows, 0.0),
            ColumnData::Str { codes, .. } => codes.resize(rows),
            ColumnData::Bool { values, .. } => values.resize(rows, false),
            ColumnData::Mixed { values } => values.resize(rows, Value::Null),
        }
        if let Some(nulls) = self.nulls_mut() {
            nulls.resize(rows);
        }
    }

    /// The null bitmap, unless the column is mixed.
    pub(super) fn nulls_mut(&mut self) -> Option<&mut NullBitmap> {
        match self {
            ColumnData::Int { nulls, .. }
            | ColumnData::Float { nulls, .. }
            | ColumnData::Str { nulls, .. }
            | ColumnData::Date { nulls, .. }
            | ColumnData::Bool { nulls, .. } => Some(nulls),
            ColumnData::Mixed { .. } => None,
        }
    }

    /// Puts a packed column in canonical form and gives back the capacity
    /// growth left beyond the column's rows.
    pub(super) fn finish(&mut self) {
        match self {
            ColumnData::Int { values, .. }
            | ColumnData::Date { values, .. }
            | ColumnData::Str { codes: values, .. } => {
                values.canonicalize();
                values.shrink_to_fit()
            }
            ColumnData::Float { values, .. } => values.shrink_to_fit(),
            ColumnData::Bool { values, .. } => values.shrink_to_fit(),
            ColumnData::Mixed { values } => values.shrink_to_fit(),
        }
        if let Some(nulls) = self.nulls_mut() {
            nulls.words.shrink_to_fit();
        }
    }

    /// Whether `value` is the canonical variant for a column of `data_type`
    /// (NULL is canonical everywhere).
    pub fn is_canonical(data_type: DataType, value: &Value) -> bool {
        matches!(
            (data_type, value),
            (_, Value::Null)
                | (DataType::Int, Value::Int(_))
                | (DataType::Float, Value::Float(_))
                | (DataType::Str, Value::Str(_))
                | (DataType::Date, Value::Date(_))
                | (DataType::Bool, Value::Bool(_))
        )
    }
}

/// The first row `r` with `counted(r)` whose value lies outside `domain`;
/// rows are read one by one only when the column's bounds leave it.
fn first_outside(
    packed: &Packed,
    domain: RangeInclusive<i64>,
    counted: impl Fn(usize) -> bool,
) -> Option<usize> {
    let (min, max) = packed.bounds()?;
    if domain.contains(&min) && domain.contains(&max) {
        return None;
    }
    (0..packed.len()).find(|&r| counted(r) && !domain.contains(&packed.get(r)))
}

/// Number of distinct keys among the non-null rows: `key` maps a row to a
/// `u64` that is equal exactly when the stored values are.
fn distinct_keys(nulls: &NullBitmap, rows: usize, key: impl Fn(usize) -> u64) -> usize {
    let mut keys: Vec<u64> = (0..rows).filter(|&r| !nulls.is_null(r)).map(key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_and_count() {
        let mut b = NullBitmap::new(200);
        for r in [0, 63, 64, 127, 199] {
            b.set_null(r);
        }
        assert!(b.is_null(64));
        assert!(!b.is_null(1));
        assert_eq!(b.count_nulls(0..200), 5);
        assert_eq!(b.count_nulls(0..64), 2); // word-aligned popcount path
        assert_eq!(b.count_nulls(1..64), 1); // unaligned fallback
    }

    #[test]
    fn typed_columns_round_trip_values() {
        let mut nulls = NullBitmap::new(3);
        nulls.set_null(1);
        let col = ColumnData::Int {
            values: [7, 0, -2].into_iter().collect(),
            nulls,
        };
        assert_eq!(col.value(0), Value::Int(7));
        assert_eq!(col.value(1), Value::Null);
        assert_eq!(col.value(2), Value::Int(-2));
        assert!(col.is_null(1));
        assert_eq!(col.distinct_count(3), 3); // {7, -2, NULL}
    }

    #[test]
    fn string_column_decodes_through_the_dictionary() {
        let dict: Vec<Arc<str>> = vec![Arc::from("a"), Arc::from("b")];
        let col = ColumnData::Str {
            dict,
            codes: [1, 0, 1].into_iter().collect(),
            nulls: NullBitmap::new(3),
        };
        assert_eq!(col.value(0), Value::str("b"));
        assert_eq!(col.value(1), Value::str("a"));
        assert_eq!(col.distinct_count(3), 2);
    }

    #[test]
    fn float_distinct_folds_negative_zero_and_nans() {
        let col = ColumnData::Float {
            values: vec![0.0, -0.0, f64::NAN, f64::NAN, 1.5],
            nulls: NullBitmap::new(5),
        };
        // {0.0, NaN, 1.5}
        assert_eq!(col.distinct_count(5), 3);
    }

    #[test]
    fn date_and_bool_distinct_skip_null_slots() {
        // Row 1 is NULL: its (meaningless) slot value must not be counted.
        let mut nulls = NullBitmap::new(4);
        nulls.set_null(1);
        let col = ColumnData::Date {
            values: [-3, 99, 10, -3].into_iter().collect(),
            nulls: nulls.clone(),
        };
        assert_eq!(col.distinct_count(4), 3); // {-3, 10, NULL}
        let col = ColumnData::Bool {
            values: vec![true, false, true, true],
            nulls,
        };
        assert_eq!(col.distinct_count(4), 2); // {true, NULL}
        let col = ColumnData::Bool {
            values: vec![true, false],
            nulls: NullBitmap::new(2),
        };
        assert_eq!(col.distinct_count(2), 2);
    }

    #[test]
    fn mixed_column_keeps_original_variants() {
        let col = ColumnData::Mixed {
            values: vec![Value::Int(2), Value::Float(2.0), Value::Null],
        };
        assert_eq!(col.value(0), Value::Int(2));
        assert!(matches!(col.value(1), Value::Float(_)));
        // Counted as an `IN` list counts: Int(2) and Float(2.0) are two
        // spellings, {2, 2.0, NULL}.
        assert_eq!(col.distinct_count(3), 3);
        assert!(col.is_null(2));
    }

    #[test]
    fn canonical_variant_check() {
        assert!(ColumnData::is_canonical(
            DataType::Float,
            &Value::Float(1.0)
        ));
        assert!(!ColumnData::is_canonical(DataType::Float, &Value::Int(1)));
        assert!(ColumnData::is_canonical(DataType::Float, &Value::Null));
        assert!(ColumnData::is_canonical(DataType::Date, &Value::Date(3)));
        assert!(!ColumnData::is_canonical(DataType::Date, &Value::Int(3)));
    }
}
