//! Frame-of-reference integer storage: the one physical form of every
//! integer, date, dictionary-code and variable column.
//!
//! A [`Packed`] column stores a `base` and one unsigned word per row; row
//! `r` holds `base + words[r]`. The words are the narrowest of `u8`, `u16`,
//! `u32` and `u64` that holds the column's range, so `Item.linenumber`
//! (1..=7) takes a byte a row where an `i64` took eight. `u64` words, with
//! wrapping arithmetic, cover the whole `i64` range: there is no wide
//! fallback, only the widest case of the same container.
//!
//! A column's *frame* is the values its base and width can hold,
//! `base ..= base + W::MAX` (capped at `i64::MAX`); putting a value outside
//! it is a typed [`StorageError::OutOfDomain`], never a wrapped word. The
//! *canonical* form — `base` the smallest value, the width the narrowest
//! that holds `max − min` — is a function of the values alone, so columns
//! holding the same values are `==` however they were built.

use std::ops::Range;

use crate::error::{StorageError, StorageResult};

/// One word width of a [`Packed`] column. Booleans are one-bit words, so
/// the interval kernel over words serves boolean columns too.
pub trait Word: Copy + Ord + Send + Sync + 'static {
    /// The largest offset a word holds.
    const MAX: u64;
    /// The word's offset from the base.
    fn offset(self) -> u64;
    /// The word of `offset`, which is at most [`Word::MAX`].
    fn of(offset: u64) -> Self;
}

macro_rules! word {
    ($($t:ty),*) => {$(
        impl Word for $t {
            const MAX: u64 = <$t>::MAX as u64;
            #[inline(always)]
            fn offset(self) -> u64 {
                self as u64
            }
            #[inline(always)]
            fn of(offset: u64) -> $t {
                offset as $t
            }
        }
    )*};
}
word!(u8, u16, u32, u64);

impl Word for bool {
    const MAX: u64 = 1;
    #[inline(always)]
    fn offset(self) -> u64 {
        self.into()
    }
    #[inline(always)]
    fn of(offset: u64) -> bool {
        offset != 0
    }
}

/// The words of a [`Packed`] column, at its one width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Words {
    /// One byte a row.
    U8(Vec<u8>),
    /// Two bytes a row.
    U16(Vec<u16>),
    /// Four bytes a row.
    U32(Vec<u32>),
    /// Eight bytes a row: any `i64` range.
    U64(Vec<u64>),
}

/// Evaluates `$body` with `$w` bound to the word vector of `$words` (a
/// [`Words`], by value or reference): the width is matched once and the
/// body is compiled once per width.
#[macro_export]
macro_rules! with_words {
    ($words:expr, $w:ident => $body:expr) => {
        match $words {
            $crate::columnar::Words::U8($w) => $body,
            $crate::columnar::Words::U16($w) => $body,
            $crate::columnar::Words::U32($w) => $body,
            $crate::columnar::Words::U64($w) => $body,
        }
    };
}

/// A frame-of-reference integer column: row `r` holds `base + words[r]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packed {
    base: i64,
    words: Words,
}

impl Default for Packed {
    /// The canonical empty column.
    fn default() -> Packed {
        Packed::from_parts(0, Words::U8(Vec::new()))
    }
}

impl Packed {
    /// An empty column whose frame holds every value of `min..=max` at the
    /// narrowest width, with room for `capacity` rows.
    ///
    /// # Panics
    /// If `min > max`.
    pub fn with_domain(min: i64, max: i64, capacity: usize) -> Packed {
        assert!(min <= max, "an empty domain");
        let words = match max.wrapping_sub(min) as u64 {
            0..=0xff => Words::U8(Vec::with_capacity(capacity)),
            0x100..=0xffff => Words::U16(Vec::with_capacity(capacity)),
            0x1_0000..=0xffff_ffff => Words::U32(Vec::with_capacity(capacity)),
            _ => Words::U64(Vec::with_capacity(capacity)),
        };
        Packed::from_parts(min, words)
    }

    /// The `len` consecutive values `start`, `start + 1`, …
    pub fn sequence(start: i64, len: usize) -> Packed {
        let start = if len == 0 { 0 } else { start }; // canonical when empty
        let mut packed = Packed::with_domain(start, start + len.max(1) as i64 - 1, len);
        with_words!(&mut packed.words, w => extend(w, 0..len as u64));
        packed
    }

    /// A column of `words` over `base`, as given: not checked against its
    /// frame and not made canonical (a table's finish does both).
    pub fn from_parts(base: i64, words: Words) -> Packed {
        Packed { base, words }
    }

    /// The base every word is an offset from.
    pub fn base(&self) -> i64 {
        self.base
    }

    /// The words, at their one width.
    pub fn words(&self) -> &Words {
        &self.words
    }

    /// The largest offset the width holds.
    pub fn top(&self) -> u64 {
        with_words!(&self.words, w => top_of(w))
    }

    /// Bytes per word: 1, 2, 4 or 8.
    pub fn width(&self) -> usize {
        self.top().count_ones() as usize / 8
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        with_words!(&self.words, w => w.len())
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `r`'s value.
    #[inline]
    pub fn get(&self, r: usize) -> i64 {
        let offset = with_words!(&self.words, w => w[r].offset());
        self.base.wrapping_add(offset as i64)
    }

    /// The values of rows `range`, the width matched once.
    pub fn decode(&self, range: Range<usize>) -> Vec<i64> {
        let at = |x: u64| self.base.wrapping_add(x as i64);
        with_words!(&self.words, w => w[range].iter().map(|x| at(x.offset())).collect())
    }

    /// The offset of `value` from the base, if the frame holds it.
    fn offset_of(&self, value: i64) -> StorageResult<u64> {
        let offset = value.wrapping_sub(self.base) as u64;
        if value < self.base || offset > self.top() {
            return Err(self.out_of_domain(value));
        }
        Ok(offset)
    }

    /// The error of putting `value`, outside the frame.
    #[cold]
    fn out_of_domain(&self, value: i64) -> StorageError {
        let max = (self.base as i128 + self.top() as i128).min(i64::MAX.into()) as i64;
        let min = self.base;
        StorageError::OutOfDomain { value, min, max }
    }

    /// Appends `value`. Inlined into every caller, so each call site
    /// matches its own column's width: the generator writes every packed
    /// cell through here.
    ///
    /// # Errors
    /// [`StorageError::OutOfDomain`] if `value` is outside the frame.
    #[inline(always)]
    pub fn push(&mut self, value: i64) -> StorageResult<()> {
        let offset = value.wrapping_sub(self.base) as u64;
        if value >= self.base && with_words!(&mut self.words, w => push_within(w, offset)) {
            return Ok(());
        }
        Err(self.out_of_domain(value))
    }

    /// Sets row `r` to `value`, which the frame must hold.
    pub(crate) fn set(&mut self, r: usize, value: i64) {
        let offset = self.offset_of(value).expect("the frame holds the value");
        with_words!(&mut self.words, w => w[r] = Word::of(offset));
    }

    /// Grows or cuts the column to `rows` rows; new rows hold 0, which the
    /// frame must hold.
    pub(crate) fn resize(&mut self, rows: usize) {
        let zero = self.offset_of(0).expect("the frame holds 0");
        with_words!(&mut self.words, w => w.resize(rows, Word::of(zero)));
    }

    /// The first row whose word reaches past `i64::MAX` from the base: a
    /// valid column's every row decodes without wrapping.
    pub(crate) fn first_wrapped(&self) -> Option<usize> {
        let room = (i64::MAX as i128 - self.base as i128) as u64;
        if self.top() <= room {
            return None; // no word of this width reaches past `i64::MAX`
        }
        with_words!(&self.words, w => w.iter().position(|x| x.offset() > room))
    }

    /// The smallest and the largest value, unless the column is empty. The
    /// words order like the values on a column that does not wrap.
    pub(crate) fn bounds(&self) -> Option<(i64, i64)> {
        let (lo, hi) = with_words!(&self.words, w => word_bounds(w)?);
        Some((
            self.base.wrapping_add(lo as i64),
            self.base.wrapping_add(hi as i64),
        ))
    }

    /// Rewrites a column that does not wrap in canonical form: rebased in
    /// place when the width stays, copied once when it narrows.
    pub(crate) fn canonicalize(&mut self) {
        let Some((min, max)) = self.bounds() else {
            *self = Packed::default();
            return;
        };
        let shift = min.wrapping_sub(self.base) as u64;
        if Packed::with_domain(min, max, 0).top() != self.top() {
            let mut narrow = Packed::with_domain(min, max, self.len());
            for r in 0..self.len() {
                narrow
                    .push(self.get(r))
                    .expect("a value lies within the bounds");
            }
            *self = narrow;
        } else if shift != 0 {
            with_words!(&mut self.words, w => w.iter_mut().for_each(|x| *x = Word::of(x.offset() - shift)));
            self.base = min;
        }
    }

    /// Gives back capacity beyond the rows.
    pub(crate) fn shrink_to_fit(&mut self) {
        with_words!(&mut self.words, w => w.shrink_to_fit());
    }

    /// The base and the words, for rewrites in place.
    pub(crate) fn parts_mut(&mut self) -> (&mut i64, &mut Words) {
        (&mut self.base, &mut self.words)
    }
}

/// Appends the word of `offset` if the width holds it; whether it did.
#[inline(always)]
fn push_within<W: Word>(words: &mut Vec<W>, offset: u64) -> bool {
    let fits = offset <= W::MAX;
    if fits {
        words.push(W::of(offset));
    }
    fits
}

/// The offsets of the smallest and the largest word, in one pass.
fn word_bounds<W: Word>(words: &[W]) -> Option<(u64, u64)> {
    let first = *words.first()?;
    let (lo, hi) = (words.iter()).fold((first, first), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    Some((lo.offset(), hi.offset()))
}

/// Appends the words of `offsets`, each at most [`Word::MAX`].
fn extend<W: Word>(words: &mut Vec<W>, offsets: impl Iterator<Item = u64>) {
    words.extend(offsets.map(W::of));
}

/// [`Word::MAX`] of `W`.
fn top_of<W: Word>(_: &[W]) -> u64 {
    W::MAX
}

/// Packs values canonically.
impl<T: Into<i64>> FromIterator<T> for Packed {
    fn from_iter<I: IntoIterator<Item = T>>(values: I) -> Packed {
        let mut packed = Packed::with_domain(i64::MIN, i64::MAX, 0);
        for v in values {
            packed
                .push(v.into())
                .expect("the widest frame holds every value");
        }
        packed.canonicalize();
        packed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every value, and the width and base they pack at.
    fn assert_packs(values: &[i64], width: usize) {
        let packed: Packed = values.iter().copied().collect();
        let decoded: Vec<i64> = (0..values.len()).map(|r| packed.get(r)).collect();
        assert_eq!(decoded, values, "{values:?}");
        assert_eq!(packed.decode(0..values.len()), values);
        assert_eq!(packed.width(), width, "{values:?}");
        assert_eq!(packed.base(), *values.iter().min().unwrap());
        assert_eq!(packed.first_wrapped(), None);
    }

    #[test]
    fn values_round_trip_at_every_width_boundary() {
        let spans: [(u64, usize); 7] = [
            (0, 1),
            (255, 1),
            (256, 2),
            (65_535, 2),
            (65_536, 4),
            (u32::MAX as u64, 4),
            (1 << 32, 8),
        ];
        for (span, width) in spans {
            let top = i64::MAX - span as i64;
            for base in [0, -1, -(span as i64) / 2, i64::MIN, top] {
                let max = base + span as i64;
                assert_packs(&[max, base, base + span as i64 / 2, max], width);
            }
        }
        // `max − min` overflows `i64`: the u64 words wrap their way there.
        assert_packs(&[i64::MAX, i64::MIN, 0, -1, i64::MIN + 1], 8);
        assert_packs(&[i32::MIN.into(), i32::MAX.into()], 4);
    }

    #[test]
    fn the_packed_form_is_a_function_of_the_values() {
        let values = [70i64, -3, 250, 9];
        let canonical: Packed = values.iter().copied().collect();
        for (min, max) in [
            (-3, 250),
            (-300, 1_000),
            (i64::MIN, i64::MAX),
            (-10, 70_000),
        ] {
            let mut framed = Packed::with_domain(min, max, 0);
            for v in values {
                framed.push(v).unwrap();
            }
            assert_eq!(framed.width(), Packed::with_domain(min, max, 0).width());
            framed.canonicalize();
            assert_eq!(framed, canonical, "framed over {min}..={max}");
        }
        assert_eq!(canonical.width(), 1); // 253 between the bounds
        assert_eq!(Packed::sequence(5, 0), Packed::default());
        assert_eq!(
            Packed::sequence(-2, 3),
            [-2i64, -1, 0].into_iter().collect()
        );
        assert_eq!(Packed::sequence(0, 256).width(), 1);
        assert_eq!(Packed::sequence(0, 257).width(), 2);
    }

    #[test]
    fn a_value_outside_the_frame_is_an_error_not_a_wrapped_word() {
        let mut packed = Packed::with_domain(1, 7, 0); // u8 words over 1
        packed.push(256).unwrap(); // the frame is 1..=256
        for value in [0, 257, i64::MIN, i64::MAX] {
            let got = packed.push(value);
            let want = StorageError::OutOfDomain {
                value,
                min: 1,
                max: 256,
            };
            assert_eq!(got, Err(want));
        }
        let mut top = Packed::with_domain(i64::MAX - 3, i64::MAX, 0);
        let got = top.push(i64::MIN);
        assert!(matches!(
            got,
            Err(StorageError::OutOfDomain { max: i64::MAX, .. })
        ));
        assert_eq!(packed.len(), 1);
        // Words past `i64::MAX` from their base wrap, and are found.
        let wrapped = Packed::from_parts(i64::MAX - 1, Words::U8(vec![0, 1, 2, 0]));
        assert_eq!(wrapped.first_wrapped(), Some(2));
    }

    #[test]
    fn booleans_are_one_bit_words() {
        assert_eq!((bool::of(0), bool::of(1)), (false, true));
        assert_eq!(
            (false.offset(), true.offset(), <bool as Word>::MAX),
            (0, 1, 1)
        );
    }
}
