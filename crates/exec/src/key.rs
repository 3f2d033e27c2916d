//! Normalized key encoding for the relational hot path.
//!
//! Joins, sorts and duplicate elimination over [`Value`] columns are the
//! inner loops of every plan. A sort normalizes a row's key columns into a
//! flat run of `u64` words *once*, so its hot loops reduce to comparing and
//! radix-sorting machine words. A join needs only equality, so it keeps no
//! second copy of its keys: [`join_row_hash`] hashes a row's key cells where
//! they lie, and [`join_equal`] compares two cells there. Grouping rows by
//! hash ([`group_row_hash`]) is the same hash with NULL cells kept.
//!
//! # Cell widths
//!
//! * A **mixed** cell is [`CELL_WIDTH`] words `(type class, primary,
//!   tie-break)` whose lexicographic order matches [`Value`]'s total order:
//!   numbers map through an order-preserving `f64 → u64` bit transform with
//!   an exact-integer tie-break, so `Int(2)` and `Float(2.0)` — which
//!   compare equal as values — encode identically. The mixed cell is also
//!   the definition of join equality: [`join_equal`] holds exactly when two
//!   cells' mixed encodings are equal (strings by content), and
//!   [`join_hash`] gives equal cells one hash word, an integral float
//!   hashing as its integer, because the two sides of a join may spell the
//!   same number differently.
//! * A sort-key column ([`SortKeys`]) whose cells all carry **one variant**
//!   takes **one** order-preserving word per cell instead: `Int` and `Date`
//!   the sign-flipped integer, `Float` the float transform, `Str` the rank,
//!   `Bool` the bit. Only a column that really mixes variants (`Int` beside
//!   `Float`, anything beside `Null`) keeps the three-word cell.
//! * Sort keys map strings through a dictionary to an **order-preserving
//!   rank**.
//!
//! The one-word and the three-word encoding of a single-variant column order
//! — and equate — its rows identically, so which one a column gets never
//! shows in a permutation or a run boundary: the type class is constant; for
//! integers the primary word `f64(i)` is monotone in `i`, so `(primary,
//! tie-break = i)` sorts as `i` alone; for floats the tie-break is a function
//! of the primary; strings, dates and booleans have no tie-break.
//!
//! The mixed encoding agrees with `Value`'s comparison everywhere except
//! integers beyond ±2⁵³ compared against floats, where `Value`'s own
//! ordering is not transitive; the normalized form resolves those ties by
//! exact integer value instead.
//!
//! # Sorting
//!
//! [`SortKeys::sorted_permutation_with`] range-compresses each word column
//! to the bits its `max − min` needs and, when a row's compressed words fit
//! 128 bits, packs them into one machine word and sorts that with a stable
//! LSD radix sort over the used bits only. Keys wider than 128 bits after
//! compression — several full-range float columns, say — take a comparator
//! merge sort over the word runs. Both yield the same stable permutation at
//! every thread count.
//!
//! # One body at every pool size
//!
//! [`SortKeys::build_with`] and the packed radix sort each have one body.
//! The pool decides how many contiguous chunks the rows are cut into —
//! `Pool::for_items(rows)`'s thread count for the encoder, so an input
//! under the fan-out cutoff is one chunk — and which worker runs each; one
//! chunk runs the same passes inline. Sort keys are bit-identical at every
//! chunking.

use std::borrow::Borrow;

use pdb_storage::Value;

/// Words per mixed cell: `(type class, primary order, tie-break)`.
pub const CELL_WIDTH: usize = 3;

/// Order-preserving bit transform for floats (NaN canonicalized greatest,
/// `-0.0` folded onto `0.0`), matching `Value`'s total float order.
#[inline]
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

/// Order-preserving bit transform for signed integers.
#[inline]
fn ordered_i64(i: i64) -> u64 {
    (i as u64) ^ (1 << 63)
}

/// The type class word of a NULL's mixed cell.
const NULL_CLASS: u64 = 0;

/// The type class word of a string's mixed cell.
const STR_CLASS: u64 = 2;

/// Encodes one mixed cell given a resolved string code. Returns
/// `(class, primary, tiebreak)`; the type class equals `Value`'s type rank
/// so cross-type comparisons order the same way.
#[inline]
fn encode_cell(v: &Value, str_code: u64) -> [u64; CELL_WIDTH] {
    match v {
        Value::Null => [NULL_CLASS, 0, 0],
        Value::Int(i) => [1, ordered_f64(*i as f64), ordered_i64(*i)],
        Value::Float(f) => {
            // The tie-break only matters when the primary order ties, i.e.
            // when the float is the image of an integer; casting recovers
            // that integer (saturating casts agree for equal primaries).
            let tie = if f.is_nan() {
                0
            } else {
                ordered_i64(*f as i64)
            };
            [1, ordered_f64(*f), tie]
        }
        Value::Str(_) => [STR_CLASS, str_code, 0],
        Value::Date(d) => [3, ordered_i64(*d as i64), 0],
        Value::Bool(b) => [4, *b as u64, 0],
    }
}

/// Encodes one cell of a single-variant column: the one word of
/// [`encode_cell`] that varies within the column (the exact integer for
/// `Int`, whose primary is a monotone function of it).
#[inline]
fn encode_word(v: &Value, str_code: u64) -> u64 {
    match v {
        Value::Null => 0,
        Value::Int(i) => ordered_i64(*i),
        Value::Float(f) => ordered_f64(*f),
        Value::Str(_) => str_code,
        Value::Date(d) => ordered_i64(*d as i64),
        Value::Bool(b) => *b as u64,
    }
}

/// How the [`encode_word`]s of two cells of one non-`Null` variant compare,
/// without a dictionary: strings by content, which is their rank order.
/// `None` for a `Null` or a pair of different variants, whose column would
/// take mixed cells.
#[inline]
pub(crate) fn cmp_one_variant(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
        (Value::Float(a), Value::Float(b)) => Some(ordered_f64(*a).cmp(&ordered_f64(*b))),
        (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
        (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
        (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
        _ => None,
    }
}

/// The bit of a value's variant in a column's variant mask.
#[inline]
fn variant_bit(v: &Value) -> u8 {
    match v {
        Value::Null => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 4,
        Value::Str(_) => 8,
        Value::Date(_) => 16,
        Value::Bool(_) => 32,
    }
}

/// Words per cell of a sort-key column whose cells carry the variants in
/// `mask`: one when they all share a variant, [`CELL_WIDTH`] when they mix.
fn cell_words(mask: u8) -> usize {
    if mask.count_ones() <= 1 {
        1
    } else {
        CELL_WIDTH
    }
}

// ---------------------------------------------------------------------------
// The string interner of the sort keys.
// ---------------------------------------------------------------------------

/// An open-addressing string interner (FxHash, linear probing) assigning
/// insertion-order ids: one hash and (usually) one probe per string. Sort
/// keys turn the ids into order-preserving ranks once over the distinct
/// strings.
#[derive(Default)]
struct FxStrInterner<'a> {
    /// Slot values are `id + 1`; 0 marks an empty slot. Power-of-two sized,
    /// unallocated until the first string arrives.
    slots: Vec<u32>,
    strs: Vec<&'a str>,
}

/// FxHash-style mix over the bytes of a string.
#[inline]
fn hash_str(s: &str) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15 ^ s.len() as u64;
    let bytes = s.as_bytes();
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    let mut tail = 0u64;
    for &b in chunks.remainder() {
        tail = (tail << 8) | b as u64;
    }
    (h.rotate_left(5) ^ tail).wrapping_mul(K)
}

impl<'a> FxStrInterner<'a> {
    #[inline]
    fn intern(&mut self, s: &'a str) -> u32 {
        if self.strs.len() * 2 >= self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash_str(s) as usize & mask;
        loop {
            match self.slots[i] {
                0 => {
                    let id = self.strs.len() as u32;
                    self.strs.push(s);
                    self.slots[i] = id + 1;
                    return id;
                }
                slot => {
                    let id = slot - 1;
                    if self.strs[id as usize] == s {
                        return id;
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(64);
        let mask = new_len - 1;
        let mut slots = vec![0u32; new_len];
        for (id, s) in self.strs.iter().enumerate() {
            let mut i = hash_str(s) as usize & mask;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = id as u32 + 1;
        }
        self.slots = slots;
    }

    /// Insertion-id → lexicographic rank over the interned strings.
    fn ranks(&self) -> Vec<u64> {
        let mut by_str: Vec<u32> = (0..self.strs.len() as u32).collect();
        by_str.sort_unstable_by_key(|&id| self.strs[id as usize]);
        let mut ranks = vec![0u64; self.strs.len()];
        for (rank, &id) in by_str.iter().enumerate() {
            ranks[id as usize] = rank as u64;
        }
        ranks
    }
}

// ---------------------------------------------------------------------------
// Sort keys: order-preserving, dictionary-ranked strings.
// ---------------------------------------------------------------------------

/// Flat, order-preserving sort keys: one run of `data_words() + extra` words
/// per row, comparable with plain `u64`-slice comparison.
pub struct SortKeys {
    words: Vec<u64>,
    width: usize,
    data_words: usize,
}

/// What one pass over a range of rows learns about a sort-key column: the
/// variants its cells carry and the dictionary of its strings.
#[derive(Default)]
struct ColumnSurvey<'a> {
    mask: u8,
    strings: FxStrInterner<'a>,
}

/// The first encoding pass over rows `range`, into `out` (which holds
/// exactly those rows at `surveys.len() + extra` words each): every data
/// cell as the one word of a single-variant column — a string as its
/// insertion id in the column's survey, until ranks are known — then the
/// `extra` words. Records each column's variants on the way, so the common
/// case (no column mixes variants) reads every `Value` once.
fn encode_narrow<'a>(
    out: &mut [u64],
    range: std::ops::Range<usize>,
    surveys: &mut [ColumnSurvey<'a>],
    extra: usize,
    mut cell_at: impl FnMut(usize, usize) -> &'a Value,
    mut extra_at: impl FnMut(usize, usize) -> u64,
) {
    let mut at = 0;
    for r in range {
        for (c, survey) in surveys.iter_mut().enumerate() {
            let v = cell_at(r, c);
            survey.mask |= variant_bit(v);
            out[at] = match v {
                Value::Str(s) => survey.strings.intern(s) as u64,
                v => encode_word(v, 0),
            };
            at += 1;
        }
        for e in 0..extra {
            out[at] = extra_at(r, e);
            at += 1;
        }
    }
}

/// Finishes a narrow encoding none of whose columns mixes variants: the
/// cells of a column with a dictionary are all strings, and their ids
/// (`ranks[c]` maps id → rank; empty without strings) become ranks in place.
fn rank_strings(words: &mut [u64], width: usize, ranks: &[Vec<u64>]) {
    for (c, ranks) in ranks.iter().enumerate() {
        if !ranks.is_empty() {
            for row in words.chunks_exact_mut(width) {
                row[c] = ranks[row[c] as usize];
            }
        }
    }
}

impl SortKeys {
    /// Builds sort keys for `rows` over the cells selected by `cell_at`
    /// (`columns` cells per row), appending `extra` trailing words per row
    /// filled by `extra_at` (used for lineage-variable sort columns).
    ///
    /// Strings are ranked per column across all rows, so the resulting
    /// order matches `Value`'s lexicographic string order. A column takes
    /// one word per cell when all its cells share a variant and
    /// [`CELL_WIDTH`] words otherwise (see the module documentation).
    ///
    /// The rows are cut into `pool.for_items(rows)`'s thread count of
    /// contiguous chunks, and both passes run per chunk: every chunk encodes
    /// its rows directly into its disjoint sub-slice of the key buffer
    /// against its own per-column survey, and the per-chunk surveys are
    /// merged (variant masks by union; dictionaries in chunk order, the first
    /// chunk's seeding the column's) into one interner per column whose
    /// **rank** assignment — a sort over the distinct strings, independent of
    /// insertion order — each chunk then applies to its slice. The words are
    /// bit-identical at every thread count, because cell widths and ranks
    /// depend only on the column's variant and distinct-string *sets*.
    pub fn build_with<'a, C, E>(
        rows: usize,
        columns: usize,
        extra: usize,
        cell_at: C,
        extra_at: E,
        pool: &pdb_par::Pool,
    ) -> SortKeys
    where
        C: Fn(usize, usize) -> &'a Value + Sync,
        E: Fn(usize, usize) -> u64 + Sync,
    {
        let ranges = pdb_par::even_ranges(rows, pool.for_items(rows).threads());
        // Pass 1: each chunk encodes as if no column mixed variants, learning
        // on the way whether one does (a string as its id in the chunk's
        // survey, until ranks are known).
        let width = columns + extra;
        let mut words = vec![0u64; rows * width];
        let cuts: Vec<usize> = ranges.iter().map(|r| r.start * width).collect();
        let mut chunk_surveys: Vec<Vec<ColumnSurvey<'a>>> =
            pool.map_slices_mut(&mut words, &cuts, |ci, slice| {
                let mut surveys = Vec::new();
                surveys.resize_with(columns, ColumnSurvey::default);
                encode_narrow(
                    slice,
                    ranges[ci].clone(),
                    &mut surveys,
                    extra,
                    &cell_at,
                    &extra_at,
                );
                surveys
            });
        // Merge (O(distinct strings)): the first chunk's dictionary is the
        // column's, and every later chunk's strings are interned into it in
        // chunk order; each chunk gets its local-id → rank table.
        let mut cell_widths = Vec::with_capacity(columns);
        let mut chunk_ranks: Vec<Vec<Vec<u64>>> = vec![Vec::with_capacity(columns); ranges.len()];
        for c in 0..columns {
            let mask = chunk_surveys.iter().fold(0, |mask, s| mask | s[c].mask);
            let mut canonical = std::mem::take(&mut chunk_surveys[0][c].strings);
            let mut canonical_ids: Vec<Vec<u32>> = vec![(0..canonical.strs.len() as u32).collect()];
            for surveys in &chunk_surveys[1..] {
                let strs = &surveys[c].strings.strs;
                canonical_ids.push(strs.iter().map(|s| canonical.intern(s)).collect());
            }
            let ranks = canonical.ranks();
            for (local_ranks, ids) in chunk_ranks.iter_mut().zip(canonical_ids) {
                local_ranks.push(ids.into_iter().map(|id| ranks[id as usize]).collect());
            }
            cell_widths.push(cell_words(mask));
        }
        if cell_widths.iter().all(|&w| w == 1) {
            pool.map_slices_mut(&mut words, &cuts, |ci, slice| {
                rank_strings(slice, width, &chunk_ranks[ci]);
            });
            return SortKeys {
                words,
                width,
                data_words: columns,
            };
        }
        // Pass 2, only with a mixed column: each chunk re-encodes into its
        // slice of the wider buffer.
        let mut keys = SortKeys::zeroed(rows, &cell_widths, extra);
        let wide_cuts: Vec<usize> = ranges.iter().map(|r| r.start * keys.width).collect();
        pool.map_slices_mut(&mut keys.words, &wide_cuts, |ci, slice| {
            encode_rows(
                slice,
                ranges[ci].clone(),
                &cell_widths,
                extra,
                &cell_at,
                |r, c| chunk_ranks[ci][c][words[r * width + c] as usize],
                &extra_at,
            );
        });
        keys
    }

    /// All-zero keys of the layout `cell_widths` and `extra` describe.
    fn zeroed(rows: usize, cell_widths: &[usize], extra: usize) -> SortKeys {
        let data_words: usize = cell_widths.iter().sum();
        let width = data_words + extra;
        SortKeys {
            words: vec![0u64; rows * width],
            width,
            data_words,
        }
    }

    /// Bytes a sort of `rows` rows over `columns` cells and `extra` words
    /// may hold at once: the key words (a mixed cell per column at most) and
    /// the widest packed sort buffer with its radix scratch.
    pub fn sort_bytes(rows: usize, columns: usize, extra: usize) -> usize {
        let key_words = columns * CELL_WIDTH + extra;
        let packed = 2 * std::mem::size_of::<(u128, u32)>();
        rows * (key_words * std::mem::size_of::<u64>() + packed)
    }

    /// Words per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Words per row taken by the data columns; the `extra` words follow.
    pub fn data_words(&self) -> usize {
        self.data_words
    }

    /// The key run of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.width..(r + 1) * self.width]
    }

    /// A stable-sorted permutation of `0..rows` by key run, using the
    /// default worker pool ([`pdb_par::Pool::from_env`], degraded to
    /// sequential for small inputs). The permutation is identical at every
    /// thread count (chunked stable sort + tie-stable merge), so callers
    /// need not care how many workers ran.
    pub fn sorted_permutation(&self, rows: usize) -> Vec<u32> {
        self.sorted_permutation_with(rows, &pdb_par::Pool::from_env().for_items(rows))
    }

    /// [`SortKeys::sorted_permutation`] with an explicit worker pool.
    ///
    /// Each word column is range-compressed to the bits of its `max − min`;
    /// trailing columns that already ascend in input order are left out of
    /// the sort altogether (a stable sort on the columns before them leaves
    /// their ties in input order, which *is* their order — a base table's
    /// variable column after a scan). When what remains fits 128 bits each
    /// row packs into one machine word, with the row index in the bits below
    /// the key if there is room and beside it otherwise, so packed values
    /// are distinct and their ascending order is the stable sort order.
    /// Packed keys that come out already ascending skip the sort; otherwise
    /// they are radix-sorted over the key bits alone, in contiguous chunks
    /// merged pairwise when the pool has more than one thread. Wider keys
    /// fall back to the comparator-based stable chunk-merge sort over the
    /// word runs. Every path yields the identical permutation.
    pub fn sorted_permutation_with(&self, rows: usize, pool: &pdb_par::Pool) -> Vec<u32> {
        SortKeys::sorted_runs(self, rows, 0, pool).0
    }

    /// [`SortKeys::sorted_permutation_with`]'s permutation, and the sorted
    /// positions where the first `prefix_words` words of the run change
    /// (position 0 included) — the grouping shell's runs, cut on the sorted
    /// packed words. Only columns past the prefix are candidates for being
    /// left out of the sort. Keys handed over by value are freed once every
    /// row is packed for the radix sort.
    ///
    /// # Panics
    /// If `prefix_words` exceeds [`SortKeys::width`].
    pub(crate) fn sorted_runs(
        keys: impl Borrow<SortKeys>,
        rows: usize,
        prefix_words: usize,
        pool: &pdb_par::Pool,
    ) -> (Vec<u32>, Vec<usize>) {
        if rows == 0 {
            return (Vec::new(), Vec::new());
        }
        if let Some(packing) = keys.borrow().packing(rows, prefix_words) {
            let total_bits = packing.key_bits + packing.row_bits;
            return if total_bits <= u64::BITS {
                SortKeys::pack_sort_cut::<u64>(keys, rows, &packing, packing.row_bits, pool)
            } else if total_bits <= u128::BITS {
                SortKeys::pack_sort_cut::<u128>(keys, rows, &packing, packing.row_bits, pool)
            } else {
                SortKeys::pack_sort_cut::<(u128, u32)>(keys, rows, &packing, 0, pool)
            };
        }
        let keys = keys.borrow();
        let order = pdb_par::sorted_permutation_by(rows, pool, |a, b| {
            keys.row(a as usize).cmp(keys.row(b as usize))
        });
        let starts = (0..rows)
            .filter(|&k| {
                k == 0
                    || keys.row(order[k] as usize)[..prefix_words]
                        != keys.row(order[k - 1] as usize)[..prefix_words]
            })
            .collect();
        (order, starts)
    }

    /// How the rows pack into one machine word each, or `None` when the
    /// range-compressed key is wider than 128 bits.
    fn packing(&self, rows: usize, prefix_words: usize) -> Option<Packing> {
        let w = self.width;
        // Per word column: the value range actually used, and whether the
        // column ascends in input order.
        let mut mins = self.row(0).to_vec();
        let mut maxs = mins.clone();
        let mut ascending = vec![true; w];
        for r in 1..rows {
            let (prev, run) = (self.row(r - 1), self.row(r));
            for c in 0..w {
                mins[c] = mins[c].min(run[c]);
                maxs[c] = maxs[c].max(run[c]);
                ascending[c] &= prev[c] <= run[c];
            }
        }
        let mut sorted_words = w;
        while sorted_words > prefix_words && ascending[sorted_words - 1] {
            sorted_words -= 1;
        }
        let col_bits: Vec<u32> = (0..sorted_words)
            .map(|c| u64::BITS - (maxs[c] - mins[c]).leading_zeros())
            .collect();
        let key_bits: u32 = col_bits.iter().sum();
        let prefix_bits: u32 = col_bits[..prefix_words].iter().sum();
        mins.truncate(sorted_words);
        (key_bits <= u128::BITS).then_some(Packing {
            mins,
            col_bits,
            key_bits,
            prefix_bits,
            row_bits: u64::BITS - (rows as u64 - 1).leading_zeros(),
        })
    }

    /// Packs every row of `keys` as `T` (the row index in the `low_bits`
    /// bits below the key, or beside it when `low_bits` is 0), drops `keys`,
    /// sorts, and cuts the runs.
    fn pack_sort_cut<T: PackedKey>(
        keys: impl Borrow<SortKeys>,
        rows: usize,
        packing: &Packing,
        low_bits: u32,
        pool: &pdb_par::Pool,
    ) -> (Vec<u32>, Vec<usize>) {
        let mut packed: Vec<T> = Vec::with_capacity(rows);
        let mut sorted_already = true;
        for r in 0..rows {
            let run = keys.borrow().row(r);
            let mut key = T::ZERO;
            for (c, &bits) in packing.col_bits.iter().enumerate() {
                if bits > 0 {
                    key = key.push_bits(bits, run[c] - packing.mins[c]);
                }
            }
            let key = key.with_row(low_bits, r as u32);
            if let Some(&prev) = packed.last() {
                sorted_already &= prev < key;
            }
            packed.push(key);
        }
        drop(keys);
        if !sorted_already {
            sort_packed(&mut packed, low_bits, packing.key_bits, pool);
        }
        // One walk of the sorted words yields the permutation and the runs:
        // the grouping prefix is the top `prefix_bits` bits of the key.
        let prefix_shift =
            (packing.prefix_bits > 0).then(|| low_bits + packing.key_bits - packing.prefix_bits);
        let mut order = Vec::with_capacity(rows);
        let mut starts = Vec::new();
        let mut prev = packed[0];
        for (k, &key) in packed.iter().enumerate() {
            order.push(key.row(low_bits));
            if k == 0 || prefix_shift.is_some_and(|shift| key.differs_above(prev, shift)) {
                starts.push(k);
            }
            prev = key;
        }
        (order, starts)
    }
}

/// The second encoding pass, over rows `range` into `out` (which holds
/// exactly those rows): per data column one word or one mixed cell as
/// `cell_widths` says, then the `extra` words. `str_code(r, c)` resolves a
/// string cell's rank.
fn encode_rows<'a>(
    out: &mut [u64],
    range: std::ops::Range<usize>,
    cell_widths: &[usize],
    extra: usize,
    mut cell_at: impl FnMut(usize, usize) -> &'a Value,
    mut str_code: impl FnMut(usize, usize) -> u64,
    mut extra_at: impl FnMut(usize, usize) -> u64,
) {
    let mut at = 0;
    for r in range {
        for (c, &cell_width) in cell_widths.iter().enumerate() {
            let v = cell_at(r, c);
            let code = match v {
                Value::Str(_) => str_code(r, c),
                _ => 0,
            };
            if cell_width == 1 {
                out[at] = encode_word(v, code);
            } else {
                out[at..at + CELL_WIDTH].copy_from_slice(&encode_cell(v, code));
            }
            at += cell_width;
        }
        for e in 0..extra {
            out[at] = extra_at(r, e);
            at += 1;
        }
    }
}

/// The range compression [`SortKeys::sorted_runs`] packs rows with: per
/// sorted word column its minimum and the bits of its range.
struct Packing {
    mins: Vec<u64>,
    col_bits: Vec<u32>,
    /// Sum of `col_bits`.
    key_bits: u32,
    /// Sum of the `col_bits` of the grouping prefix: the top bits of the key.
    prefix_bits: u32,
    /// Bits of the largest row index.
    row_bits: u32,
}

/// A range-compressed key run and its row index in one `Copy` value whose
/// `Ord` is the stable sort order: the row index sits in the low bits of the
/// word, below the key, or beside it in a tuple when the word has no room.
trait PackedKey: Copy + Ord + Send + Sync {
    const ZERO: Self;
    /// Appends a key field: `(key << bits) | value`.
    fn push_bits(self, bits: u32, value: u64) -> Self;
    /// Attaches the row index once the key is complete: in `low_bits` bits
    /// below it, or beside it (`low_bits` is 0).
    fn with_row(self, low_bits: u32, row: u32) -> Self;
    /// The row index [`PackedKey::with_row`] attached.
    fn row(self, low_bits: u32) -> u32;
    /// The digit `(word >> shift) & mask` of the word the key sits in.
    fn digit(self, shift: u32, mask: usize) -> usize;
    /// Whether the two words differ at or above bit `shift`.
    fn differs_above(self, other: Self, shift: u32) -> bool;
}

macro_rules! packed_key_with_row_below {
    ($word:ty) => {
        impl PackedKey for $word {
            const ZERO: Self = 0;
            #[inline]
            fn push_bits(self, bits: u32, value: u64) -> Self {
                (self << bits) | value as $word
            }
            #[inline]
            fn with_row(self, low_bits: u32, row: u32) -> Self {
                (self << low_bits) | row as $word
            }
            #[inline]
            fn row(self, low_bits: u32) -> u32 {
                (self as u64 & ((1u64 << low_bits) - 1)) as u32
            }
            #[inline]
            fn digit(self, shift: u32, mask: usize) -> usize {
                (self >> shift) as usize & mask
            }
            #[inline]
            fn differs_above(self, other: Self, shift: u32) -> bool {
                (self ^ other) >> shift != 0
            }
        }
    };
}
packed_key_with_row_below!(u64);
packed_key_with_row_below!(u128);

impl PackedKey for (u128, u32) {
    const ZERO: Self = (0, 0);
    #[inline]
    fn push_bits(self, bits: u32, value: u64) -> Self {
        (self.0.push_bits(bits, value), 0)
    }
    #[inline]
    fn with_row(self, _low_bits: u32, row: u32) -> Self {
        (self.0, row)
    }
    #[inline]
    fn row(self, _low_bits: u32) -> u32 {
        self.1
    }
    #[inline]
    fn digit(self, shift: u32, mask: usize) -> usize {
        self.0.digit(shift, mask)
    }
    #[inline]
    fn differs_above(self, other: Self, shift: u32) -> bool {
        self.0.differs_above(other.0, shift)
    }
}

/// Below this many values a comparison sort on the packed words beats the
/// radix sort's histograms.
const RADIX_MIN_ROWS: usize = 256;

/// Widest digit of the radix sort: 2¹¹ counters per pass stay in L1.
const RADIX_DIGIT_BITS: u32 = 11;

/// Sorts packed keys ascending — the stable order of the rows, since the
/// row index breaks every tie. The key occupies bits `low_bits..low_bits +
/// key_bits` of the word [`PackedKey::digit`] reads; the row index is never
/// a digit. An LSD radix sort: the key bits are cut into the fewest equal
/// digits of at most [`RADIX_DIGIT_BITS`] bits, one pass counts all of them,
/// and every digit that is not constant over the input costs one stable
/// scatter between the slice and a scratch copy.
fn radix_sort<T: PackedKey>(values: &mut [T], low_bits: u32, key_bits: u32) {
    let n = values.len();
    if n < RADIX_MIN_ROWS || key_bits == 0 {
        values.sort_unstable();
        return;
    }
    let passes = key_bits.div_ceil(RADIX_DIGIT_BITS);
    let digit_bits = key_bits.div_ceil(passes);
    let buckets = 1usize << digit_bits;
    let shift_of = |pass: usize| low_bits + pass as u32 * digit_bits;
    let mut counts = vec![0u32; passes as usize * buckets];
    for v in values.iter() {
        for (pass, histogram) in counts.chunks_exact_mut(buckets).enumerate() {
            histogram[v.digit(shift_of(pass), buckets - 1)] += 1;
        }
    }
    let mut scratch = values.to_vec();
    let mut in_scratch = false;
    for (pass, histogram) in counts.chunks_exact_mut(buckets).enumerate() {
        if histogram.iter().any(|&count| count as usize == n) {
            continue;
        }
        let mut offset = 0u32;
        for count in histogram.iter_mut() {
            offset += std::mem::replace(count, offset);
        }
        let (src, dst): (&[T], &mut [T]) = if in_scratch {
            (&scratch, &mut *values)
        } else {
            (&*values, &mut scratch)
        };
        for &v in src {
            let slot = &mut histogram[v.digit(shift_of(pass), buckets - 1)];
            dst[*slot as usize] = v;
            *slot += 1;
        }
        in_scratch = !in_scratch;
    }
    if in_scratch {
        values.copy_from_slice(&scratch);
    }
}

/// Deterministic sort of distinct packed keys: the pool's contiguous chunks
/// are [`radix_sort`]ed in place by its workers, then merged pairwise
/// between `values` and one scratch buffer, the left run winning ties.
/// Values are distinct (each carries its row index), so the result is their
/// unique ascending order at every thread count.
fn sort_packed<T: PackedKey>(values: &mut [T], low_bits: u32, key_bits: u32, pool: &pdb_par::Pool) {
    let mut runs = pdb_par::even_ranges(values.len(), pool.threads());
    let cuts: Vec<usize> = runs.iter().map(|r| r.start).collect();
    pool.map_slices_mut(values, &cuts, |_, run| radix_sort(run, low_bits, key_bits));
    let mut scratch: Vec<T> = Vec::new();
    let mut in_scratch = false;
    // Pairwise merge rounds: each round merges runs 2i and 2i + 1 from one
    // buffer into the same positions of the other.
    while runs.len() > 1 {
        let merged: Vec<std::ops::Range<usize>> = (runs.chunks(2))
            .map(|pair| pair[0].start..pair[pair.len() - 1].end)
            .collect();
        let cuts: Vec<usize> = merged.iter().map(|r| r.start).collect();
        scratch.resize(values.len(), T::ZERO);
        let (src, dst): (&[T], &mut [T]) = if in_scratch {
            (&scratch, &mut *values)
        } else {
            (&*values, &mut scratch)
        };
        pool.map_slices_mut(dst, &cuts, |i, out| {
            let pair = &runs[2 * i..(2 * i + 2).min(runs.len())];
            let a = &src[pair[0].clone()];
            let b = pair.get(1).map_or(&[][..], |r| &src[r.clone()]);
            let (mut i, mut j) = (0, 0);
            for slot in out.iter_mut() {
                *slot = if j == b.len() || (i < a.len() && a[i] <= b[j]) {
                    i += 1;
                    a[i - 1]
                } else {
                    j += 1;
                    b[j - 1]
                };
            }
        });
        in_scratch = !in_scratch;
        runs = merged;
    }
    if in_scratch {
        values.copy_from_slice(&scratch);
    }
}

// ---------------------------------------------------------------------------
// Join keys: hashed and compared in place.
// ---------------------------------------------------------------------------

/// The class word a join cell's hash mixes in: numbers (integers and floats
/// alike, since the two sides of a join may spell one number differently),
/// strings, dates, booleans.
#[inline]
fn join_class(class: u64) -> u64 {
    class.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The hash word of one join-key cell, or `None` for a NULL, which makes its
/// row unjoinable (SQL join semantics). Equal cells under [`join_equal`]
/// hash alike: an `Int` hashes as its integer, and so does a `Float` equal
/// to one; any other float hashes as its order-preserving bits (NaN
/// canonical, `-0.0` folded onto `0.0`); a string by its content, a date and
/// a boolean by value. The variant class is mixed in.
#[inline]
pub fn join_hash(v: &Value) -> Option<u64> {
    Some(match v {
        Value::Null => return None,
        Value::Int(i) => join_class(1) ^ ordered_i64(*i),
        Value::Float(f) => {
            // `f as i64` saturates, so 2⁶³ equals `i64::MAX` here exactly as
            // its mixed cell does.
            let i = *f as i64;
            join_class(1)
                ^ if i as f64 == *f {
                    ordered_i64(i)
                } else {
                    ordered_f64(*f)
                }
        }
        Value::Str(s) => join_class(STR_CLASS) ^ hash_str(s),
        Value::Date(d) => join_class(3) ^ ordered_i64(*d as i64),
        Value::Bool(b) => join_class(4) ^ *b as u64,
    })
}

/// Whether two join-key cells are equal: exactly when their mixed cells
/// (the three-word sort-key cell, see the module documentation) are,
/// strings compared by content. An `Int` equals the
/// `Float` of its value when that float casts back to it (so `2⁵³ + 1`
/// equals no float, and `i64::MAX` equals `2⁶³`); floats equal by value with
/// `-0.0 == 0.0` and NaN equal to NaN; a date never equals a number. Two
/// NULLs are equal cells, but [`join_hash`] keeps their rows out of a join.
#[inline]
pub fn join_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(a), Value::Int(b)) => a == b,
        (Value::Int(i), Value::Float(f)) | (Value::Float(f), Value::Int(i)) => {
            *i as f64 == *f && *f as i64 == *i
        }
        (Value::Float(a), Value::Float(b)) => ordered_f64(*a) == ordered_f64(*b),
        (Value::Str(a), Value::Str(b)) => a == b,
        (Value::Date(a), Value::Date(b)) => a == b,
        (Value::Bool(a), Value::Bool(b)) => a == b,
        (Value::Null, Value::Null) => true,
        _ => false,
    }
}

/// 2⁶⁴ over the golden ratio: the seed and the multiplier of a row hash.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Mixes one cell's hash word into a row hash.
#[inline]
fn mix_cell(h: u64, cell: u64) -> u64 {
    (h.rotate_left(5) ^ cell).wrapping_mul(GOLDEN)
}

/// The hash of a row's join key, its cells' [`join_hash`] words mixed in
/// order, or `None` when a cell is NULL. A key of no cells — a product's —
/// hashes to one constant.
///
/// Each step multiplies by 2⁶⁴ over the golden ratio (Fibonacci hashing):
/// the join buckets on the hash's high bits, and those spread consecutive
/// integer keys evenly: 1 000 consecutive keys fill 880 of 1 024 buckets,
/// where random keys fill about 630 and FxHash's multiplier 362.
#[inline]
pub fn join_row_hash<'a>(cells: impl IntoIterator<Item = &'a Value>) -> Option<u64> {
    cells
        .into_iter()
        .try_fold(GOLDEN, |h, v| Some(mix_cell(h, join_hash(v)?)))
}

/// The hash of a row's grouping key: [`join_row_hash`] with a NULL cell
/// hashed to its type class word instead of excluding the row. Grouping
/// puts NULLs together — two NULL cells are [`join_equal`] — where a join
/// keeps them out, so rows whose cells are pairwise [`join_equal`] hash
/// alike here.
#[inline]
pub fn group_row_hash<'a>(cells: impl IntoIterator<Item = &'a Value>) -> u64 {
    cells.into_iter().fold(GOLDEN, |h, v| {
        mix_cell(h, join_hash(v).unwrap_or(join_class(NULL_CLASS)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn cmp_encoded(a: &Value, b: &Value) -> Ordering {
        // Encode through a two-row sort-key table so string ranking applies.
        let vals = [a.clone(), b.clone()];
        let keys = SortKeys::build_with(
            2,
            1,
            0,
            |r, _| &vals[r],
            |_, _| 0,
            &pdb_par::Pool::sequential(),
        );
        keys.row(0).cmp(keys.row(1))
    }

    #[test]
    fn encoding_matches_value_order() {
        let samples = [
            Value::Null,
            Value::Int(-3),
            Value::Int(0),
            Value::Int(2),
            Value::Float(-2.5),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(2.0),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::str("Joe"),
            Value::str("Li"),
            Value::str(""),
            Value::Date(10),
            Value::Date(-1),
            Value::Bool(false),
            Value::Bool(true),
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(
                    cmp_encoded(a, b),
                    a.cmp(b),
                    "encoded order diverges for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn int_float_equality_survives_encoding() {
        assert_eq!(
            cmp_encoded(&Value::Int(2), &Value::Float(2.0)),
            Ordering::Equal
        );
        assert_ne!(
            cmp_encoded(&Value::Int(2), &Value::Float(2.1)),
            Ordering::Equal
        );
    }

    #[test]
    fn join_keys_match_value_equality() {
        let row_hash = |cells: &[Value]| join_row_hash(cells);
        // Float(2.0) finds Int(2), and 2.1 does not equal it.
        assert!(join_equal(&Value::Float(2.0), &Value::Int(2)));
        assert_eq!(row_hash(&[Value::Float(2.0)]), row_hash(&[Value::Int(2)]));
        assert!(!join_equal(&Value::Float(2.1), &Value::Int(2)));
        // Strings compare by content, whichever allocation holds them.
        let (x, also_x) = (Value::str("x"), Value::str(String::from("x")));
        assert!(join_equal(&x, &also_x));
        assert_eq!(row_hash(std::slice::from_ref(&x)), row_hash(&[also_x]));
        assert!(!join_equal(&x, &Value::str("y")));
        // NULL keys never join, on either side of a key of any width.
        assert_eq!(row_hash(&[Value::Null]), None);
        assert_eq!(row_hash(&[Value::Int(1), Value::Null]), None);
        assert!(row_hash(&[Value::Int(1), x]).is_some());
        // The cells of a key are mixed in order, and a key of no cells (a
        // product) is one constant.
        assert_ne!(
            row_hash(&[Value::Int(1), Value::Int(2)]),
            row_hash(&[Value::Int(2), Value::Int(1)])
        );
        assert_eq!(row_hash(&[]), row_hash(&[]));
    }

    #[test]
    fn group_keys_hash_join_equal_rows_alike_nulls_included() {
        let spellings = [
            [Value::Int(2), Value::Null],
            [Value::Float(2.0), Value::Null],
        ];
        assert!(spellings[0]
            .iter()
            .zip(&spellings[1])
            .all(|(a, b)| join_equal(a, b)));
        assert_eq!(group_row_hash(&spellings[0]), group_row_hash(&spellings[1]));
        assert_eq!(
            group_row_hash(&[Value::Float(0.0), Value::Float(f64::NAN)]),
            group_row_hash(&[Value::Float(-0.0), Value::Float(-f64::NAN)])
        );
        // A key without NULLs hashes as the join hashes it; the NULL is a
        // cell of its own, and cells still mix in order.
        let key = [Value::Int(1), Value::str("x")];
        assert_eq!(Some(group_row_hash(&key)), join_row_hash(&key));
        assert_ne!(
            group_row_hash(&[Value::Null, Value::Int(1)]),
            group_row_hash(&[Value::Int(1), Value::Null])
        );
        assert_ne!(group_row_hash(&[Value::Null]), group_row_hash(&[]));
    }

    #[test]
    fn sorted_permutation_is_stable() {
        let vals = [Value::Int(1), Value::Int(0), Value::Int(1), Value::Int(0)];
        let keys = SortKeys::build_with(
            4,
            1,
            0,
            |r, _| &vals[r],
            |_, _| 0,
            &pdb_par::Pool::sequential(),
        );
        assert_eq!(keys.sorted_permutation(4), vec![1, 3, 0, 2]);
    }

    #[test]
    fn packed_radix_path_matches_comparator_stable_sort() {
        // Small ranges (ints + repeated strings + a variable extra) pack
        // into one u64; the permutation must equal a reference stable sort
        // at every thread count.
        let strings = ["N", "A", "R", "N", "A"];
        let rows = 4096;
        let vals: Vec<[Value; 2]> = (0..rows)
            .map(|r| {
                [
                    Value::Int((r as i64 * 37) % 19),
                    Value::str(strings[r % strings.len()]),
                ]
            })
            .collect();
        let keys = SortKeys::build_with(
            rows,
            2,
            1,
            |r, c| &vals[r][c],
            |r, _| ((r * 61) % 23) as u64,
            &pdb_par::Pool::sequential(),
        );
        let mut expected: Vec<u32> = (0..rows as u32).collect();
        expected.sort_by(|&a, &b| keys.row(a as usize).cmp(keys.row(b as usize)));
        for threads in [1, 2, 4, 8] {
            let got = keys.sorted_permutation_with(rows, &pdb_par::Pool::new(threads));
            assert_eq!(got, expected, "{threads} threads");
        }
    }

    #[test]
    fn wide_keys_fall_back_to_the_comparator_sort() {
        // Full-range floats exhaust the 64-bit budget, forcing the
        // comparator fallback; the result must still be the stable order.
        let rows = 512;
        let vals: Vec<[Value; 2]> = (0..rows)
            .map(|r| {
                [
                    Value::Float(((r as f64) - 300.0) * 1.37e9),
                    Value::Float(1.0 / (1.0 + r as f64)),
                ]
            })
            .collect();
        let keys = SortKeys::build_with(
            rows,
            2,
            1,
            |r, c| &vals[r][c],
            |r, _| (rows - r) as u64,
            &pdb_par::Pool::sequential(),
        );
        let mut expected: Vec<u32> = (0..rows as u32).collect();
        expected.sort_by(|&a, &b| keys.row(a as usize).cmp(keys.row(b as usize)));
        for threads in [1, 4] {
            let got = keys.sorted_permutation_with(rows, &pdb_par::Pool::new(threads));
            assert_eq!(got, expected, "{threads} threads");
        }
    }

    #[test]
    fn the_largest_catalogue_aggregation_packs_into_one_machine_word() {
        // `Item(okey, skey)` at SF 0.05 — the eager plan's per-table
        // aggregation under Q21: 300 934 rows, two integer columns and the
        // table's variable column. A three-word cell per column (the float
        // image of the integers alone spans 50-odd bits) overflowed the
        // 128-bit packing and took the comparator sort; one word per column
        // is 19 + 9 bits here, and the variable, ascending after a scan,
        // needs no sorting at all.
        let rows = 300_934usize;
        let vals: Vec<[Value; 2]> = (0..rows)
            .map(|r| {
                let okey = (r as i64 / 4) * 4 + 1;
                [Value::Int(okey), Value::Int((r as i64 * 7919) % 500 + 1)]
            })
            .collect();
        let keys = SortKeys::build_with(
            rows,
            2,
            1,
            |r, c| &vals[r][c],
            |r, _| 1_000_000 + r as u64,
            &pdb_par::Pool::sequential(),
        );
        assert_eq!((keys.width(), keys.data_words()), (3, 2));
        let packing = keys.packing(rows, 2).expect("packs");
        assert_eq!(packing.col_bits, [19, 9]);
        assert!(packing.key_bits + packing.row_bits <= u64::BITS);
        // A variable column that does not ascend is sorted, and still fits.
        let keys = SortKeys::build_with(
            rows,
            2,
            1,
            |r, c| &vals[r][c],
            |r, _| (rows - r) as u64,
            &pdb_par::Pool::sequential(),
        );
        let packing = keys.packing(rows, 2).expect("packs");
        assert_eq!(packing.col_bits, [19, 9, 19]);
        assert!(packing.key_bits + packing.row_bits <= u128::BITS);
        // The fallback test above really is wider than any packing.
        let floats: Vec<[Value; 2]> = (0..512)
            .map(|r| {
                [
                    Value::Float(((r as f64) - 300.0) * 1.37e9),
                    Value::Float(1.0 / (1.0 + r as f64)),
                ]
            })
            .collect();
        let keys = SortKeys::build_with(
            512,
            2,
            1,
            |r, c| &floats[r][c],
            |r, _| (512 - r) as u64,
            &pdb_par::Pool::sequential(),
        );
        assert!(keys.packing(512, 0).is_none());
    }
}
