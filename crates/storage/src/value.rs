//! Scalar values stored in relations.
//!
//! The value model is intentionally small: the SPROUT paper only needs
//! integers (keys, variable identifiers), floating-point numbers (prices,
//! discounts, probabilities), strings (names, comments), dates, and NULL for
//! outer-join-free completeness. Dates are stored as days since 1970-01-01 so
//! that range predicates reduce to integer comparisons.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single scalar value.
///
/// `Value` implements a *total* ordering (NULL < Int/Float < Str < Date <
/// Bool) so that tuples can be sorted deterministically, which the
/// confidence-computation operator relies on. Integers and floats compare
/// numerically against each other.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN is normalised to compare greater than all other
    /// floats so ordering stays total.
    Float(f64),
    /// Interned UTF-8 string; `Arc` keeps copies of wide tuples cheap.
    Str(Arc<str>),
    /// Days since 1970-01-01.
    Date(i32),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Builds a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Returns true if the value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the value as an `i64` if it is an integer or date.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Date(d) => Some(*d as i64),
            _ => None,
        }
    }

    /// Returns the value as an `f64` if it is numeric.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Date(d) => Some(*d as f64),
            _ => None,
        }
    }

    /// Returns the value as a `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the value as a `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Rank used to order values of different types; keeps `cmp` total.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Str(_) => 2,
            Value::Date(_) => 3,
            Value::Bool(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => total_f64_cmp(*a, *b),
            (Int(a), Float(b)) => total_f64_cmp(*a as f64, *b),
            (Float(a), Int(b)) => total_f64_cmp(*a, *b as f64),
            (Str(a), Str(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(i) => {
                1u8.hash(state);
                // Hash integers through their float bit pattern when integral
                // so that Int(2) and Float(2.0) — which compare equal — hash
                // identically.
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                1u8.hash(state);
                normal_bits(*f).hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                3u8.hash(state);
                d.hash(state);
            }
            Value::Bool(b) => {
                4u8.hash(state);
                b.hash(state);
            }
        }
    }
}

/// Total order on f64 with NaN greatest and -0.0 == 0.0 — the float
/// normalization [`Value::cmp`] uses. Public so downstream typed fast paths
/// (the columnar predicate loops) compare native `f64`s with **exactly**
/// this order instead of re-implementing it.
pub fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
    }
}

/// `Value`'s order with every number compared as its `f64`: a coarsening of
/// `Value::cmp` that is a total order. `Value::cmp` compares two integers
/// exactly, so beyond ±2⁵³ it is not transitive against floats.
pub fn numeric_cmp(a: &Value, b: &Value) -> Ordering {
    let number = |v: &Value| match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    };
    match (number(a), number(b)) {
        (Some(x), Some(y)) => total_f64_cmp(x, y),
        _ => a.cmp(b),
    }
}

/// Sorts `values` ascending and drops duplicates: the normal form of an `IN`
/// list, and how a distinct count counts (NULL, if present, is one value).
/// Numbers equal as `f64`s ([`numeric_cmp`]) sort integers (exactly) before
/// floats, so the order is total and only identical spellings are
/// duplicates — `Int(2)` and `Float(2.0)` are two values here.
pub fn sort_distinct<V: std::borrow::Borrow<Value>>(values: &mut Vec<V>) {
    let is_float = |v: &Value| matches!(v, Value::Float(_));
    values.sort_by(|a, b| {
        let (a, b) = (a.borrow(), b.borrow());
        (numeric_cmp(a, b).then_with(|| is_float(a).cmp(&is_float(b)))).then_with(|| a.cmp(b))
    });
    values.dedup_by(|a, b| {
        let (a, b) = (a.borrow(), b.borrow());
        is_float(a) == is_float(b) && a == b
    });
}

/// Bit pattern used for hashing floats consistently with `total_f64_cmp`:
/// NaNs collapse onto one pattern and `-0.0` onto `0.0`, so equal floats
/// (under the total order) always share bits. Used by `Value`'s `Hash` and
/// by the per-chunk bloom filters.
pub(crate) fn normal_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else if f == 0.0 {
        0.0f64.to_bits()
    } else {
        f.to_bits()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "date({d})"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_ordering() {
        assert!(Value::Int(1) < Value::Int(2));
        assert_eq!(Value::Int(7), Value::Int(7));
    }

    #[test]
    fn mixed_numeric_ordering() {
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(2.5) > Value::Int(2));
        assert_eq!(Value::Int(2), Value::Float(2.0));
    }

    #[test]
    fn mixed_numeric_hash_consistent_with_eq() {
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::str(""));
    }

    #[test]
    fn string_ordering() {
        assert!(Value::str("Joe") < Value::str("Li"));
        assert_eq!(Value::str("Mo"), Value::str("Mo"));
    }

    #[test]
    fn nan_is_total() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(nan > Value::Float(f64::INFINITY));
    }

    #[test]
    fn negative_zero_equals_zero() {
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
    }

    #[test]
    fn display_round_trip_is_readable() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("abc").to_string(), "abc");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Float(0.5).as_float(), Some(0.5));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Date(10).as_int(), Some(10));
        assert!(Value::Null.is_null());
        assert_eq!(Value::str("x").as_int(), None);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(0.25), Value::Float(0.25));
        assert_eq!(Value::from("s"), Value::str("s"));
        assert_eq!(Value::from(String::from("s")), Value::str("s"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
