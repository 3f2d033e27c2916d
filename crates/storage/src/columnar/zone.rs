//! Per-chunk zone statistics: min/max bounds, null counts, blocked bloom
//! filters, distinct-count hints, and representation tags for a column's
//! values within one row group.
//!
//! The bounds are kept as [`Value`]s and are ordered by `Value`'s **total**
//! order (NULL < numbers < strings < dates < booleans, NaN greatest among
//! floats, `-0.0 == 0.0`) — exactly the order constant predicates evaluate
//! under, so a pruning decision made against the bounds can never disagree
//! with a per-row evaluation. NULLs are excluded from the bounds (they fail
//! every comparison predicate) and tracked in `null_count` instead; a chunk
//! of only NULLs has no bounds at all.
//!
//! The v2 statistics extend pruning beyond ranges:
//!
//! - **Blocked bloom filter** (`bloom`): every distinct non-null value of
//!   the chunk is hashed through [`bloom_key`] and sets two bits inside one
//!   64-bit block of a 256-bit filter. [`ZoneMap::may_contain`] therefore
//!   has **no false negatives**: if it returns `false`, no row of the chunk
//!   equals the probed value, and an `Eq`/`In` scan can skip the chunk (or
//!   a `Ne` scan can take it wholesale when the chunk is also null-free).
//! - **Distinct hint** (`distinct`): the number of distinct [`bloom_key`]s
//!   in the chunk — equal values always share a key, so the hint never
//!   exceeds the true distinct count (hash collisions can only lower it).
//!   [`ZoneMapBuilder`], the definition, sorts and dedups the keys;
//!   [`typed_zone`] counts them in a reused open-addressing [`KeySet`].
//! - **Representation tag** (`repr`): the uniform non-null [`Value`]
//!   variant of the chunk, if there is one. Typed columns are uniform by
//!   construction; for `Mixed` columns the tag is what lets the scan run a
//!   typed kernel over a chunk that happens to be uniformly typed instead
//!   of falling back to per-row `Value` dispatch.
//!
//! All three are built from the chunk's value *set*, so they are identical
//! at every ingest thread count (bloom insertion is bitwise OR — order
//! independent).
//!
//! Typed columns are summarised by the kernel [`typed_zone`] from a chunk's
//! cells and null words, with no `Value` per cell; `Mixed` columns by
//! [`ZoneMapBuilder`]. Both build the same `ZoneMap` from the same values.

use std::cmp::Ordering;

use crate::value::{normal_bits, Value};

/// Words in the per-chunk blocked bloom filter (256 bits total).
pub const BLOOM_WORDS: usize = 4;

/// Distinct-key count above which the filter is stored *saturated* (all
/// bits set). With two bits per key in 256 bits, a chunk holding more than
/// ~64 distinct values has most bits set anyway: nearly every absent probe
/// false-positives, so the filter is pure per-probe overhead. The sentinel
/// makes [`ZoneMap::may_contain`] answer `true` without hashing, and lets
/// planners ([`ZoneMap::bloom_saturated`]) see at build time that equality
/// pruning will not help on this chunk.
pub const BLOOM_SATURATION_DISTINCT: u32 = 64;

/// The saturation rule shared by every ingest path: past
/// [`BLOOM_SATURATION_DISTINCT`] distinct keys the filter collapses to the
/// all-ones sentinel (still no false negatives — it admits everything).
pub fn saturate_bloom(bloom: [u64; BLOOM_WORDS], distinct: u32) -> [u64; BLOOM_WORDS] {
    if distinct > BLOOM_SATURATION_DISTINCT {
        [u64::MAX; BLOOM_WORDS]
    } else {
        bloom
    }
}

/// The uniform non-null value variant of a chunk, if any.
///
/// `Hetero` means the chunk mixes variants (or has no non-null values at
/// all — such chunks are pruned before the tag is ever consulted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkRepr {
    /// Every non-null value is `Value::Int`.
    Int,
    /// Every non-null value is `Value::Float`.
    Float,
    /// Every non-null value is `Value::Str`.
    Str,
    /// Every non-null value is `Value::Date`.
    Date,
    /// Every non-null value is `Value::Bool`.
    Bool,
    /// Mixed variants (or all-null).
    Hetero,
}

impl ChunkRepr {
    /// The representation tag of a single non-null value.
    fn of(v: &Value) -> ChunkRepr {
        match v {
            Value::Null => ChunkRepr::Hetero,
            Value::Int(_) => ChunkRepr::Int,
            Value::Float(_) => ChunkRepr::Float,
            Value::Str(_) => ChunkRepr::Str,
            Value::Date(_) => ChunkRepr::Date,
            Value::Bool(_) => ChunkRepr::Bool,
        }
    }
}

/// The summary of one column over one chunk of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// Smallest non-null value in the chunk, under `Value`'s total order.
    /// `None` iff every row of the chunk is NULL.
    pub min: Option<Value>,
    /// Largest non-null value in the chunk (for floats this makes NaN the
    /// maximum whenever one is present, mirroring `Value`'s NaN-greatest
    /// normalization).
    pub max: Option<Value>,
    /// Number of NULL rows in the chunk.
    pub null_count: usize,
    /// Number of rows in the chunk.
    pub rows: usize,
    /// Blocked bloom filter over the [`bloom_key`]s of every non-null value
    /// in the chunk. No false negatives: absent key ⇒ absent value.
    pub bloom: [u64; BLOOM_WORDS],
    /// Number of distinct [`bloom_key`]s among the chunk's non-null values —
    /// a deterministic lower-bound hint on the true distinct count.
    pub distinct: u32,
    /// Uniform non-null value variant of the chunk, if any.
    pub repr: ChunkRepr,
}

impl ZoneMap {
    /// Builds the zone statistics of `values`, skipping NULLs.
    pub fn build<'a>(values: impl Iterator<Item = &'a Value>) -> ZoneMap {
        let mut b = ZoneMapBuilder::new();
        for v in values {
            b.push(v);
        }
        b.finish()
    }

    /// Whether every row of the chunk is NULL (no comparison predicate can
    /// select anything from it).
    pub fn all_null(&self) -> bool {
        self.null_count == self.rows
    }

    /// Bloom probe: whether the chunk *may* contain a row equal to `v`.
    ///
    /// `false` is definitive (the filter has every non-null value of the
    /// chunk inserted, so there are no false negatives); `true` means the
    /// scan must look. NULL never matches an equality predicate, so probing
    /// NULL returns `false`.
    pub fn may_contain(&self, v: &Value) -> bool {
        if self.bloom_saturated() {
            // Skip the hash entirely: a saturated filter admits every
            // non-null probe anyway.
            return !matches!(v, Value::Null);
        }
        match bloom_key(v) {
            None => false,
            Some(key) => bloom_probe(&self.bloom, key),
        }
    }

    /// Whether the chunk's filter was saturated at build time (more than
    /// [`BLOOM_SATURATION_DISTINCT`] distinct keys): every non-null probe
    /// answers `true`, so equality pruning cannot skip this chunk.
    pub fn bloom_saturated(&self) -> bool {
        self.bloom == [u64::MAX; BLOOM_WORDS]
    }
}

/// Incremental [`ZoneMap`] construction; used by the chunk-parallel ingest
/// paths so every representation computes the statistics the same way.
#[derive(Debug)]
pub struct ZoneMapBuilder {
    min: Option<Value>,
    max: Option<Value>,
    null_count: usize,
    rows: usize,
    bloom: [u64; BLOOM_WORDS],
    keys: Vec<u64>,
    repr: Option<ChunkRepr>,
}

impl Default for ZoneMapBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ZoneMapBuilder {
    /// An empty builder.
    pub fn new() -> ZoneMapBuilder {
        ZoneMapBuilder {
            min: None,
            max: None,
            null_count: 0,
            rows: 0,
            bloom: [0; BLOOM_WORDS],
            keys: Vec::new(),
            repr: None,
        }
    }

    /// Records one row's value.
    pub fn push(&mut self, v: &Value) {
        self.rows += 1;
        let Some(key) = bloom_key(v) else {
            self.null_count += 1;
            return;
        };
        bloom_insert(&mut self.bloom, key);
        self.keys.push(key);
        let tag = ChunkRepr::of(v);
        match self.repr {
            None => self.repr = Some(tag),
            Some(r) if r == tag => {}
            Some(_) => self.repr = Some(ChunkRepr::Hetero),
        }
        if self.min.as_ref().is_none_or(|m| v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v > m) {
            self.max = Some(v.clone());
        }
    }

    /// Records one NULL row.
    pub fn push_null(&mut self) {
        self.rows += 1;
        self.null_count += 1;
    }

    /// Finishes the statistics.
    pub fn finish(mut self) -> ZoneMap {
        self.keys.sort_unstable();
        self.keys.dedup();
        let distinct = self.keys.len() as u32;
        ZoneMap {
            min: self.min,
            max: self.max,
            null_count: self.null_count,
            rows: self.rows,
            bloom: saturate_bloom(self.bloom, distinct),
            distinct,
            repr: self.repr.unwrap_or(ChunkRepr::Hetero),
        }
    }
}

/// The normalized 64-bit hash key of a value: equal values (under `Value`'s
/// total order, including `Int(2) == Float(2.0)`, `-0.0 == 0.0`, and
/// NaN == NaN) always produce equal keys. `None` for NULL, which never
/// participates in equality pruning.
pub fn bloom_key(v: &Value) -> Option<u64> {
    Some(match v {
        Value::Null => return None,
        // Numbers hash through their normalized f64 bit pattern so that
        // cross-variant equal values agree (Value::cmp compares Int against
        // Float through f64 as well).
        Value::Int(i) => float_key(*i as f64),
        Value::Float(f) => float_key(*f),
        Value::Str(s) => bloom_key_str(s),
        Value::Date(d) => date_key(*d),
        Value::Bool(b) => bool_key(*b),
    })
}

/// [`bloom_key`] of `Value::Float(f)`, and of `Value::Int` through `f64`.
pub(crate) fn float_key(f: f64) -> u64 {
    mix(mix(SEED, 1), normal_bits(f))
}

/// [`bloom_key`] of `Value::Date(d)`.
pub(crate) fn date_key(d: i32) -> u64 {
    mix(mix(SEED, 3), d as u32 as u64)
}

/// [`bloom_key`] of `Value::Bool(b)`.
pub(crate) fn bool_key(b: bool) -> u64 {
    mix(mix(SEED, 4), b as u64)
}

/// [`bloom_key`] of `Value::Str(s)` without constructing the `Value`; the
/// dictionary ingest path hashes each distinct string exactly once.
pub fn bloom_key_str(s: &str) -> u64 {
    mix(mix(SEED, 2), hash_bytes(s.as_bytes()))
}

const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The typed statistics kernel: the [`ZoneMap`] of one chunk of a typed
/// column, `==` to [`ZoneMap::build`] over its decoded values.
///
/// `cells` holds one cell per row, valid or not, and bit `i` of `nulls` is
/// set iff row `i` is NULL. A valid cell decodes to `value(cell)`, whose
/// [`bloom_key`] is `key(cell)` and whose place in `Value`'s total order is
/// given by `cmp`. The bounds keep the first-seen cell on ties, as
/// [`ZoneMapBuilder`] does. `set` is scratch, reused from call to call.
pub(crate) fn typed_zone<T: Copy>(
    cells: &[T],
    nulls: &[u64],
    key: impl Fn(T) -> u64,
    cmp: impl Fn(&T, &T) -> Ordering,
    value: impl Fn(T) -> Value,
    set: &mut KeySet,
) -> ZoneMap {
    debug_assert_eq!(nulls.len(), cells.len().div_ceil(64), "a word per 64 rows");
    set.clear(cells.len());
    let mut bloom = [0; BLOOM_WORDS];
    let mut bounds: Option<(T, T)> = None;
    let mut valid = 0;
    for (block, word) in cells.chunks(64).zip(nulls) {
        for (_, cell) in block.iter().enumerate().filter(|(i, _)| word >> i & 1 == 0) {
            valid += 1;
            let k = key(*cell);
            if set.insert(k) {
                bloom_insert(&mut bloom, k);
            }
            match &mut bounds {
                None => bounds = Some((*cell, *cell)),
                Some((min, _)) if cmp(cell, min) == Ordering::Less => *min = *cell,
                Some((_, max)) if cmp(cell, max) == Ordering::Greater => *max = *cell,
                Some(_) => {}
            }
        }
    }
    let (min, max) = (bounds.map(|b| value(b.0)), bounds.map(|b| value(b.1)));
    ZoneMap {
        repr: min.as_ref().map_or(ChunkRepr::Hetero, ChunkRepr::of),
        min,
        max,
        null_count: cells.len() - valid,
        rows: cells.len(),
        bloom: saturate_bloom(bloom, set.len),
        distinct: set.len,
    }
}

/// The distinct [`bloom_key`]s of a chunk, in open addressing. A slot is
/// picked by the high bits of a multiply, which every key bit reaches: the
/// keys of small integers differ in their high bits only. Zero marks an
/// empty slot, so the key 0 is tracked apart.
#[derive(Debug, Default)]
pub(crate) struct KeySet {
    slots: Vec<u64>,
    shift: u32,
    zero: bool,
    /// Distinct keys inserted since the last `clear`.
    len: u32,
}

impl KeySet {
    /// Empties the set, sized for `keys` keys at most half full.
    fn clear(&mut self, keys: usize) {
        let slots = (2 * keys).next_power_of_two().max(16);
        self.slots.clear();
        self.slots.resize(slots, 0);
        self.shift = u64::BITS - slots.trailing_zeros();
        (self.zero, self.len) = (false, 0);
    }

    /// Inserts `key`; whether it was new.
    fn insert(&mut self, key: u64) -> bool {
        let new = if key == 0 {
            !std::mem::replace(&mut self.zero, true)
        } else {
            let mask = self.slots.len() - 1;
            let mut slot = ((key ^ key >> 32).wrapping_mul(SEED) >> self.shift) as usize;
            while self.slots[slot] != 0 && self.slots[slot] != key {
                slot = (slot + 1) & mask;
            }
            std::mem::replace(&mut self.slots[slot], key) == 0
        };
        self.len += new as u32;
        new
    }
}

/// Sets the two filter bits of `key` (both inside one 64-bit block).
pub fn bloom_insert(bloom: &mut [u64; BLOOM_WORDS], key: u64) {
    let (w, mask) = bloom_slot(key);
    bloom[w] |= mask;
}

/// Tests the two filter bits of `key`.
pub fn bloom_probe(bloom: &[u64; BLOOM_WORDS], key: u64) -> bool {
    let (w, mask) = bloom_slot(key);
    bloom[w] & mask == mask
}

#[inline]
fn bloom_slot(key: u64) -> (usize, u64) {
    // Finalize before slotting: the multiply in `mix` disperses *upward*
    // (bit `i` of a product depends only on bits `0..=i` of the operands),
    // so keys whose inputs differ only in high bits — e.g. the f64 bit
    // patterns of small integers, whose mantissa low bits are all zero —
    // would share their low 14 bits and land in one slot. Folding the high
    // half down twice around a second odd multiply makes every input bit
    // reach the slot bits.
    let k = (key ^ (key >> 32)).wrapping_mul(0xd6e8_feb8_6659_fd93);
    let k = k ^ (k >> 32);
    let b1 = k & 63;
    let b2 = (k >> 6) & 63;
    let w = ((k >> 12) & (BLOOM_WORDS as u64 - 1)) as usize;
    (w, (1u64 << b1) | (1u64 << b2))
}

#[inline]
fn mix(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = mix(SEED, bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let mut tail = 0u64;
    for (i, b) in chunks.remainder().iter().enumerate() {
        tail |= (*b as u64) << (8 * i);
    }
    mix(h, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_skip_nulls() {
        let vals = [Value::Null, Value::Int(3), Value::Int(-1), Value::Null];
        let z = ZoneMap::build(vals.iter());
        assert_eq!(z.min, Some(Value::Int(-1)));
        assert_eq!(z.max, Some(Value::Int(3)));
        assert_eq!(z.null_count, 2);
        assert_eq!(z.rows, 4);
        assert!(!z.all_null());
        assert_eq!(z.distinct, 2);
        assert_eq!(z.repr, ChunkRepr::Int);
    }

    #[test]
    fn all_null_chunk_has_no_bounds() {
        let vals = [Value::Null, Value::Null];
        let z = ZoneMap::build(vals.iter());
        assert_eq!(z.min, None);
        assert_eq!(z.max, None);
        assert!(z.all_null());
        assert_eq!(z.distinct, 0);
        assert_eq!(z.bloom, [0; BLOOM_WORDS]);
        assert!(!z.may_contain(&Value::Int(1)));
    }

    #[test]
    fn nan_is_the_float_maximum() {
        // `Value`'s total order normalizes NaN greater than every float;
        // the zone bounds must agree or a `> c` predicate could wrongly
        // skip a chunk whose only matches are NaNs.
        let vals = [
            Value::Float(1.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
        ];
        let z = ZoneMap::build(vals.iter());
        assert_eq!(z.min, Some(Value::Float(1.0)));
        assert!(matches!(z.max, Some(Value::Float(f)) if f.is_nan()));
        // NaN == NaN under the total order, so the bloom must agree.
        assert!(z.may_contain(&Value::Float(f64::NAN)));
    }

    #[test]
    fn negative_zero_folds_onto_zero() {
        let vals = [Value::Float(-0.0), Value::Float(0.0)];
        let z = ZoneMap::build(vals.iter());
        // -0.0 == 0.0 under the total order: either representative is a
        // correct bound, and both compare equal to every constant the same
        // way.
        assert_eq!(z.min, Some(Value::Float(0.0)));
        assert_eq!(z.max, Some(Value::Float(0.0)));
        assert_eq!(z.distinct, 1);
        assert!(z.may_contain(&Value::Float(-0.0)));
        assert!(z.may_contain(&Value::Float(0.0)));
    }

    #[test]
    fn string_bounds_are_lexicographic() {
        let vals = [Value::str("Mo"), Value::str("Joe"), Value::str("Li")];
        let z = ZoneMap::build(vals.iter());
        assert_eq!(z.min, Some(Value::str("Joe")));
        assert_eq!(z.max, Some(Value::str("Mo")));
        assert_eq!(z.repr, ChunkRepr::Str);
        assert_eq!(z.distinct, 3);
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let vals: Vec<Value> = (0..500).map(|i| Value::Int(i * 7 - 100)).collect();
        let z = ZoneMap::build(vals.iter());
        for v in &vals {
            assert!(z.may_contain(v), "{v} wrongly reported absent");
        }
        assert!(!z.may_contain(&Value::Null));
    }

    #[test]
    fn high_cardinality_chunks_saturate_at_build_time() {
        // Past the cliff the filter is the all-ones sentinel: probes answer
        // `true` without hashing, and the saturation is visible to planners.
        let vals: Vec<Value> = (0..200).map(Value::Int).collect();
        let z = ZoneMap::build(vals.iter());
        assert!(z.distinct > BLOOM_SATURATION_DISTINCT);
        assert!(z.bloom_saturated());
        assert_eq!(z.bloom, [u64::MAX; BLOOM_WORDS]);
        assert!(z.may_contain(&Value::Int(12345)));
        assert!(!z.may_contain(&Value::Null));

        // At or below the threshold the filter still prunes.
        let vals: Vec<Value> = (0..BLOOM_SATURATION_DISTINCT as i64)
            .map(Value::Int)
            .collect();
        let z = ZoneMap::build(vals.iter());
        assert!(!z.bloom_saturated());
        let misses = (0..100)
            .filter(|i| !z.may_contain(&Value::Int(100_000 + i)))
            .count();
        assert!(misses > 50, "only {misses}/100 absent integers pruned");
    }

    #[test]
    fn an_unsaturated_filter_can_never_equal_the_sentinel() {
        // ≤64 keys set at most 128 of the 256 bits, so all-ones is reachable
        // only through `saturate_bloom`: the sentinel is unambiguous.
        let mut bloom = [0u64; BLOOM_WORDS];
        for i in 0..BLOOM_SATURATION_DISTINCT as u64 {
            bloom_insert(&mut bloom, i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        assert_ne!(bloom, [u64::MAX; BLOOM_WORDS]);
        assert_eq!(saturate_bloom(bloom, BLOOM_SATURATION_DISTINCT), bloom);
        assert_eq!(
            saturate_bloom(bloom, BLOOM_SATURATION_DISTINCT + 1),
            [u64::MAX; BLOOM_WORDS]
        );
    }

    #[test]
    fn bloom_prunes_absent_values_on_small_chunks() {
        // A chunk with few distinct values leaves most filter bits clear:
        // probing values outside the set must usually miss.
        let vals = [Value::str("PROMO"), Value::str("STEEL")];
        let z = ZoneMap::build(vals.iter());
        let misses = (0..100)
            .filter(|i| !z.may_contain(&Value::str(format!("other-{i}"))))
            .count();
        assert!(misses > 90, "only {misses}/100 absent values pruned");
    }

    #[test]
    fn bloom_disperses_small_integer_keys() {
        // Small integers hash through f64 bit patterns whose low mantissa
        // bits are all zero; without a finalizer in `bloom_slot` they would
        // all land in one slot and every absent probe would false-positive.
        let vals = [Value::Int(0), Value::Int(10)];
        let z = ZoneMap::build(vals.iter());
        let misses = (0..100)
            .filter(|i| !z.may_contain(&Value::Int(1000 + i)))
            .count();
        assert!(misses > 90, "only {misses}/100 absent integers pruned");
        assert!(z.may_contain(&Value::Int(10)));
        assert!(z.may_contain(&Value::Float(10.0)));
    }

    #[test]
    fn bloom_keys_agree_across_equal_variants() {
        assert_eq!(bloom_key(&Value::Int(2)), bloom_key(&Value::Float(2.0)));
        assert_eq!(
            bloom_key(&Value::Float(-0.0)),
            bloom_key(&Value::Float(0.0))
        );
        assert_ne!(bloom_key(&Value::Int(5)), bloom_key(&Value::Date(5)));
        assert_eq!(bloom_key(&Value::Null), None);
    }

    #[test]
    fn repr_tags_uniform_and_mixed_chunks() {
        let z = ZoneMap::build([Value::Int(1), Value::Null, Value::Int(2)].iter());
        assert_eq!(z.repr, ChunkRepr::Int);
        let z = ZoneMap::build([Value::Int(1), Value::Float(2.0)].iter());
        assert_eq!(z.repr, ChunkRepr::Hetero);
        let z = ZoneMap::build([Value::Null].iter());
        assert_eq!(z.repr, ChunkRepr::Hetero);
        let z = ZoneMap::build([Value::Date(3)].iter());
        assert_eq!(z.repr, ChunkRepr::Date);
    }

    #[test]
    fn distinct_hint_counts_normalized_keys() {
        let vals = [
            Value::Int(2),
            Value::Float(2.0), // equal to Int(2) — one key
            Value::Int(3),
            Value::Int(3),
        ];
        let z = ZoneMap::build(vals.iter());
        assert_eq!(z.distinct, 2);
    }
}
