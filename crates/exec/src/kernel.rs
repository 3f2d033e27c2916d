//! Branch-free compare-to-bitmask predicate kernels for the columnar scan.
//!
//! Each kernel fills a **selection bitmask** for one chunk of a typed
//! column: bit `i` of word `i / 64` is set iff row `chunk_start + i`
//! satisfies the compiled predicate. A 1024-row chunk is 16 `u64` words.
//! The loops are chunked, branch-free `mask |= (cmp as u64) << bit` folds
//! the autovectorizer reliably lifts. There are two: [`fill_f64`] for
//! floats, and the **interval kernel** [`fill_words`] for every
//! [`Packed`](pdb_storage::columnar::Packed)
//! column — integers, dates and dictionary ranks, at whichever word width
//! the column has — and for booleans (`false < true`, one-bit words). Over
//! words every comparison is an interval `lo ≤ w ≤ hi`, possibly negated
//! (for `Ne`), or a constant mask ([`WordTest`]): the constant is shifted
//! by the column's `−base`, a float constant against integers becomes the
//! integers it orders above and below, and a string constant's insertion
//! point and presence give the ranks. Constant-dependent cases (NaN
//! constants, absent dictionary strings, constants outside the column's
//! frame) are decided *before* the loop, never inside it. An `IN` list is
//! one test too: the words of every value a member equals, as an exact
//! bitmap over the members' span, one bit-test a row, whenever the bitmap
//! takes at most [`BITMAP_WORDS`] words (128 KiB, cache-sized) or no more
//! words than there are members; past that, the sorted words and a binary
//! search ([`WordTest::set`]).
//!
//! Semantics replay `CompareOp::eval` ∘ `Value::cmp` exactly: NaN compares
//! greatest among floats (and equal to itself), `-0.0 == 0.0`, dictionary
//! ranks order like their strings, and NULL fails everything (callers AND
//! the null bitmap out afterwards with [`and_not_nulls`]). The scalar
//! oracle of `crate::columnar` (`ChunkPredicate::oracle_mask`) is what
//! these kernels are property-tested against.
//!
//! Masks compose bitwise: conjunctions AND per-predicate masks. Survivor
//! counts are popcounts and the gather iterates set bits — no per-row `Vec`
//! growth anywhere.

use pdb_query::CompareOp;
use pdb_storage::columnar::Word;

/// Number of mask words needed for a `len`-row chunk.
#[inline]
pub fn mask_words(len: usize) -> usize {
    len.div_ceil(64)
}

/// Core fold: `out[w]` bit `i` ⇔ `pred(values[w * 64 + i])`. Bits at or
/// beyond `values.len()` stay clear.
#[inline(always)]
fn fill<T: Copy>(values: &[T], out: &mut [u64], pred: impl Fn(T) -> bool) {
    debug_assert_eq!(out.len(), mask_words(values.len()));
    for (seg, word) in values.chunks(64).zip(out.iter_mut()) {
        let mut w = 0u64;
        for (i, &v) in seg.iter().enumerate() {
            w |= (pred(v) as u64) << i;
        }
        *word = w;
    }
}

/// Index-driven fold for representations without a native slice (`Mixed`
/// columns): `out[w]` bit `i` ⇔ `pred(w * 64 + i)` for indices below `len`.
#[inline(always)]
pub fn fill_with(len: usize, out: &mut [u64], pred: impl Fn(usize) -> bool) {
    debug_assert_eq!(out.len(), mask_words(len));
    for (w, word) in out.iter_mut().enumerate() {
        let base = w * 64;
        let n = (len - base).min(64);
        let mut m = 0u64;
        for i in 0..n {
            m |= (pred(base + i) as u64) << i;
        }
        *word = m;
    }
}

/// Constant-result mask (cross-type-class comparisons, NULL constants):
/// every in-range bit gets `value`.
pub fn fill_const(value: bool, len: usize, out: &mut [u64]) {
    debug_assert_eq!(out.len(), mask_words(len));
    if !value {
        out.fill(0);
        return;
    }
    out.fill(!0u64);
    if !len.is_multiple_of(64) {
        if let Some(last) = out.last_mut() {
            *last = (1u64 << (len % 64)) - 1;
        }
    }
}

/// `f64` column vs float constant under the total order (NaN greatest and
/// equal to itself, `-0.0 == 0.0`). The NaN-constant case is hoisted; for
/// finite/infinite constants IEEE comparisons agree with the total order
/// except that NaN rows rank `Greater` — folded in branch-free.
pub fn fill_f64(values: &[f64], c: f64, op: CompareOp, out: &mut [u64]) {
    if c.is_nan() {
        match op {
            CompareOp::Eq | CompareOp::In | CompareOp::Ge => fill(
                values,
                out,
                #[inline(always)]
                |v| v.is_nan(),
            ),
            CompareOp::Ne | CompareOp::Lt => fill(
                values,
                out,
                #[inline(always)]
                |v| !v.is_nan(),
            ),
            CompareOp::Le => fill_const(true, values.len(), out),
            CompareOp::Gt => fill_const(false, values.len(), out),
        }
        return;
    }
    match op {
        CompareOp::Eq | CompareOp::In => fill(
            values,
            out,
            #[inline(always)]
            |v| v == c,
        ),
        CompareOp::Ne => fill(
            values,
            out,
            #[inline(always)]
            |v| v != c,
        ),
        CompareOp::Lt => fill(
            values,
            out,
            #[inline(always)]
            |v| v < c,
        ),
        CompareOp::Le => fill(
            values,
            out,
            #[inline(always)]
            |v| v <= c,
        ),
        CompareOp::Gt => fill(
            values,
            out,
            #[inline(always)]
            |v| v > c || v.is_nan(),
        ),
        CompareOp::Ge => fill(
            values,
            out,
            #[inline(always)]
            |v| v >= c || v.is_nan(),
        ),
    }
}

/// The bitmap words an `IN` set may always take, whatever its member count:
/// 2¹⁴ words, 128 KiB, a span of 2²⁰ words. A set of more members may take
/// one word a member.
pub const BITMAP_WORDS: u64 = 1 << 14;

/// A comparison over the words of a
/// [`Packed`](pdb_storage::columnar::Packed) column (or a boolean
/// column, whose words are its values): every row answers
/// the same, a row matches iff its word lies in `lo..=hi` (iff it does
/// not, with `negate`), or iff its word is in a set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WordTest {
    /// Every row matches (`true`) or none does.
    Const(bool),
    /// `(lo ≤ w ≤ hi) != negate`.
    Interval { lo: u64, hi: u64, negate: bool },
    /// `w` is in the set whose bit `w − lo` is set.
    Bitmap { lo: u64, bits: Vec<u64> },
    /// `w` is one of the set's words, ascending.
    Sorted(Vec<u64>),
}

impl WordTest {
    /// The test of `(lo ≤ v ≤ hi) != negate` over values `v = base + w` of
    /// words `w ≤ top`: the interval is shifted by `−base` and clipped to
    /// the words, and one that misses them all or covers them all is a
    /// constant.
    pub fn new(base: i64, top: u64, lo: i128, hi: i128, negate: bool) -> WordTest {
        let (base, top) = (i128::from(base), i128::from(top));
        let (lo, hi) = ((lo - base).max(0), (hi - base).min(top));
        if lo > hi {
            WordTest::Const(negate)
        } else if lo == 0 && hi == top {
            WordTest::Const(!negate)
        } else {
            let (lo, hi) = (lo as u64, hi as u64);
            WordTest::Interval { lo, hi, negate }
        }
    }

    /// The test of membership in `words` (any order, repeats allowed) over
    /// words `≤ top`: a constant or an interval when the words are
    /// consecutive, else a bitmap over their span when it takes at most
    /// `max(members, BITMAP_WORDS)` words, else the sorted words. A bitmap
    /// answers a row with one bit-test where the sorted words take a binary
    /// search, so a few members over a wide span still take the bitmap while
    /// it stays cache-sized.
    pub fn set(mut words: Vec<u64>, top: u64) -> WordTest {
        words.sort_unstable();
        words.dedup();
        let (Some(&lo), Some(&hi)) = (words.first(), words.last()) else {
            return WordTest::Const(false);
        };
        let span = hi - lo;
        if span == words.len() as u64 - 1 {
            return WordTest::new(0, top, lo.into(), hi.into(), false);
        }
        if span / 64 >= (words.len() as u64).max(BITMAP_WORDS) {
            return WordTest::Sorted(words);
        }
        let mut bits = vec![0u64; (span / 64 + 1) as usize];
        for w in words {
            bits[((w - lo) / 64) as usize] |= 1 << ((w - lo) % 64);
        }
        WordTest::Bitmap { lo, bits }
    }

    /// The heap bytes the test holds (a set's bitmap or word list): up to
    /// `8 · max(members, BITMAP_WORDS)` for a bitmap.
    pub fn heap_bytes(&self) -> usize {
        match self {
            WordTest::Bitmap { bits: words, .. } | WordTest::Sorted(words) => {
                std::mem::size_of_val(words.as_slice())
            }
            _ => 0,
        }
    }
}

/// The interval kernel — one loop for every packed representation
/// (integers, dates, dictionary ranks) at every width, and for booleans:
/// bit `i` of `out` ⇔ `words[i]` passes `test`.
pub fn fill_words<W: Word>(words: &[W], test: &WordTest, out: &mut [u64]) {
    match test {
        WordTest::Const(value) => fill_const(*value, words.len(), out),
        WordTest::Interval { lo, hi, negate } => {
            let (lo, hi, negate) = (W::of(*lo), W::of(*hi), *negate);
            fill(
                words,
                out,
                #[inline(always)]
                |w| ((w >= lo) & (w <= hi)) != negate,
            )
        }
        WordTest::Bitmap { lo, bits } => fill(
            words,
            out,
            #[inline(always)]
            |w| {
                let d = w.offset().wrapping_sub(*lo);
                bits.get((d / 64) as usize)
                    .is_some_and(|b| b >> (d % 64) & 1 == 1)
            },
        ),
        WordTest::Sorted(set) => fill(
            words,
            out,
            #[inline(always)]
            |w| set.binary_search(&w.offset()).is_ok(),
        ),
    }
}

/// Clears mask bits of NULL rows: `mask &= !nulls`, word by word. The null
/// words cover the same chunk (chunk starts are 64-aligned).
pub fn and_not_nulls(mask: &mut [u64], null_words: &[u64]) {
    for (m, &n) in mask.iter_mut().zip(null_words) {
        *m &= !n;
    }
}

/// Conjunction: `acc &= m`.
pub fn and_into(acc: &mut [u64], m: &[u64]) {
    for (a, &b) in acc.iter_mut().zip(m) {
        *a &= b;
    }
}

/// Survivor count of a mask.
pub fn popcount(mask: &[u64]) -> usize {
    mask.iter().map(|w| w.count_ones() as usize).sum()
}

/// Iterates the set bit positions of one word, ascending.
#[derive(Debug, Clone)]
pub struct BitIter(pub u64);

impl Iterator for BitIter {
    type Item = usize;
    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

/// Iterates the global row indices selected by a chunk mask, ascending
/// (`start` is the chunk's first row).
pub fn mask_rows(start: usize, mask: &[u64]) -> impl Iterator<Item = usize> + Clone + '_ {
    mask.iter()
        .enumerate()
        .flat_map(move |(w, &word)| BitIter(word).map(move |b| start + w * 64 + b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_storage::columnar::Packed;

    #[test]
    fn fill_const_clears_tail_bits() {
        let mut m = vec![0u64; 2];
        fill_const(true, 70, &mut m);
        assert_eq!(popcount(&m), 70);
        assert_eq!(m[1], (1 << 6) - 1);
        fill_const(false, 70, &mut m);
        assert_eq!(popcount(&m), 0);
    }

    #[test]
    fn interval_kernel_matches_direct_compare() {
        let words: Vec<u8> = (0..130).map(|i| (i * 7 % 91) as u8).collect();
        for (lo, hi, negate) in [
            (0, 3, false),
            (3, 3, true),
            (10, 90, false),
            (40, 255, true),
        ] {
            let mut m = vec![0u64; mask_words(words.len())];
            fill_words(&words, &WordTest::Interval { lo, hi, negate }, &mut m);
            for (i, &w) in words.iter().enumerate() {
                let want = (lo <= w.into() && u64::from(w) <= hi) != negate;
                assert_eq!(m[i / 64] >> (i % 64) & 1 == 1, want, "{lo}..={hi} row {i}");
            }
            assert_eq!(m[2] >> 2, 0, "bits past the rows stay clear");
        }
    }

    #[test]
    fn f64_kernel_ranks_nan_greatest() {
        let values = [1.0, f64::NAN, -0.0, f64::INFINITY];
        let mut m = vec![0u64; 1];
        fill_f64(&values, 0.0, CompareOp::Gt, &mut m);
        // NaN > 0.0 under the total order; -0.0 is not.
        assert_eq!(m[0], 0b1011);
        fill_f64(&values, 0.0, CompareOp::Eq, &mut m);
        assert_eq!(m[0], 0b0100); // -0.0 == 0.0
        fill_f64(&values, f64::NAN, CompareOp::Eq, &mut m);
        assert_eq!(m[0], 0b0010); // NaN == NaN
        fill_f64(&values, f64::NAN, CompareOp::Le, &mut m);
        assert_eq!(m[0], 0b1111); // everything ≤ NaN
        fill_f64(&values, f64::NAN, CompareOp::Lt, &mut m);
        assert_eq!(m[0], 0b1101); // everything but NaN itself
    }

    #[test]
    fn word_tests_shift_by_the_base_and_clip_to_the_width() {
        let column: Packed = [10i64, 12, 300].into_iter().collect(); // u16 over 10
        let (min, max) = (i128::from(i64::MIN), i128::from(i64::MAX));
        let interval = |lo, hi, negate| WordTest::Interval { lo, hi, negate };
        assert_eq!(
            WordTest::new(column.base(), column.top(), 11, 20, false),
            interval(1, 10, false)
        );
        assert_eq!(
            WordTest::new(column.base(), column.top(), min, 12, true),
            interval(0, 2, true)
        );
        assert_eq!(
            WordTest::new(column.base(), column.top(), 300, max, false),
            interval(290, 65_535, false)
        );
        // Below the base, or past the widest word: no row is inside.
        assert_eq!(
            WordTest::new(column.base(), column.top(), min, 9, false),
            WordTest::Const(false)
        );
        assert_eq!(
            WordTest::new(column.base(), column.top(), 5, 9, true),
            WordTest::Const(true)
        );
        assert_eq!(
            WordTest::new(column.base(), column.top(), 65_546, max, false),
            WordTest::Const(false)
        );
        // Every word the width holds: every row is.
        assert_eq!(
            WordTest::new(column.base(), column.top(), min, max, false),
            WordTest::Const(true)
        );
        assert_eq!(
            WordTest::new(column.base(), column.top(), 10, 65_545, true),
            WordTest::Const(false)
        );
    }

    #[test]
    fn word_sets_are_bitmaps_up_to_a_cache_sized_span() {
        // Consecutive words are an interval, every word of the width a
        // constant, and no word none.
        assert_eq!(WordTest::set(vec![5, 3, 4, 4], 255), interval(3, 5));
        assert_eq!(WordTest::set(vec![1, 0], 1), WordTest::Const(true));
        assert_eq!(WordTest::set(Vec::new(), 255), WordTest::Const(false));
        // Two members take a bitmap as long as it is at most 2¹⁴ words: a
        // span of 2²⁰ words. One word further they take the sorted list.
        let last = 10 + (BITMAP_WORDS * 64 - 1);
        let bitmap = WordTest::set(vec![10, 137, last], u64::MAX);
        assert!(matches!(
            bitmap,
            WordTest::Bitmap { lo: 10, ref bits } if bits.len() as u64 == BITMAP_WORDS
        ));
        assert_eq!(bitmap.heap_bytes(), 128 << 10);
        let sorted = WordTest::set(vec![last + 1, 137, 10], u64::MAX);
        assert_eq!(sorted, WordTest::Sorted(vec![10, 137, last + 1]));
        assert_eq!(sorted.heap_bytes(), 24);
        // Past 2¹⁴ members a set may take one word a member: 2¹⁴ + 1
        // members 64 apart are a bitmap, and one more word of span is not.
        let spread: Vec<u64> = (0..=BITMAP_WORDS).map(|m| m * 64).collect();
        assert!(matches!(
            WordTest::set(spread.clone(), u64::MAX),
            WordTest::Bitmap { ref bits, .. } if bits.len() as u64 == BITMAP_WORDS + 1
        ));
        let mut wider = spread;
        *wider.last_mut().unwrap() += 64;
        assert!(matches!(
            WordTest::set(wider, u64::MAX),
            WordTest::Sorted(_)
        ));
        // Both tests select the same rows.
        let words: Vec<u64> = (0..200).chain([last, last + 1]).collect();
        for test in [bitmap, sorted] {
            let mut m = vec![0u64; mask_words(words.len())];
            fill_words(&words, &test, &mut m);
            let hits: Vec<u64> = mask_rows(0, &m).map(|i| words[i]).collect();
            assert!(
                hits == [10, 137, last] || hits == [10, 137, last + 1],
                "{test:?}: {hits:?}"
            );
        }
    }

    fn interval(lo: u64, hi: u64) -> WordTest {
        WordTest::Interval {
            lo,
            hi,
            negate: false,
        }
    }

    #[test]
    fn null_words_clear_mask_bits() {
        let mut m = vec![0b1111u64];
        and_not_nulls(&mut m, &[0b0101]);
        assert_eq!(m[0], 0b1010);
    }

    #[test]
    fn mask_rows_iterates_set_bits_in_order() {
        let mask = [0b1001u64, 0b10];
        let rows: Vec<usize> = mask_rows(128, &mask).collect();
        assert_eq!(rows, vec![128, 131, 128 + 65]);
        assert_eq!(popcount(&mask), 3);
    }
}
