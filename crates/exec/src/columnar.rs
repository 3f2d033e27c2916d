//! Vectorized fused scans over columnar base tables: bitmask predicate
//! kernels, zone-statistics chunk skipping, and (optionally) late string
//! materialization.
//!
//! This is the columnar fast path of [`crate::ops::scan`] /
//! [`crate::ops::scan_filter_project`]: the scan runs chunk-at-a-time over a
//! [`ColumnarTable`],
//!
//! 1. **prunes** each chunk against the per-column zone statistics — the
//!    `[min, max]` range decides ordered predicates, the per-chunk bloom
//!    filter decides `Eq`/`Ne`/`In` membership (no false negatives, so an
//!    absent probe skips the chunk outright), and a chunk the statistics
//!    prove *entirely* matching (null-free, range inside the predicate)
//!    needs no per-row evaluation at all. An `IN` list is sorted, so one
//!    binary search finds the members inside `[min, max]`, and only those
//!    are probed against the bloom filter;
//! 2. runs **compare-to-bitmask kernels** ([`crate::kernel`]) over the
//!    remaining chunks — each predicate is compiled once into a typed
//!    comparison (`PredEval`) against the column's physical representation:
//!    over a packed column (integers, `i32` days, dictionary ranks, each a
//!    base plus `u8`/`u16`/`u32`/`u64` words) and a boolean one it becomes
//!    a word interval or a constant ([`kernel::WordTest`]), over floats an
//!    `f64` comparison; a branch-free loop fills a 16×`u64` selection
//!    bitmask per 1024-row chunk, the null bitmap is AND-ed out, and
//!    conjunctions AND their masks. An `IN` list over a packed or boolean
//!    column is **one** pass too: the words its members equal form one
//!    exact set (a bitmap over their span, or sorted words once the bitmap
//!    would pass `max(members, 2¹⁴)` words) that the interval kernel reads
//!    — however long the
//!    list, which is what makes an eager plan's key-set filters
//!    (`sprout_plan::eager`) cheap. Over floats and `Mixed` columns an
//!    `IN` binary-searches the sorted list per row. `Mixed` columns
//!    consult the per-chunk representation tag and run a typed loop
//!    whenever the chunk is uniformly typed, falling back to per-row
//!    `Value` evaluation only on genuinely heterogeneous chunks;
//! 3. **gathers** only the projected columns of the survivors straight into
//!    the output's pre-sized arena segments (sized by mask popcounts —
//!    never a per-row `Vec` push), iterating set mask bits with one typed
//!    loop per (column, segment), a packed column's width matched once per
//!    segment. Dictionary columns can be gathered as
//!    **ranks** (`Value::Int` codes) instead of decoded `Arc<str>`s; ranks
//!    order exactly like their strings, which is what lets the late
//!    materialization path carry them through join → sort → dedup and
//!    decode only final answers.
//!
//! The determinism contract of the PR-4 pipeline is preserved **exactly**:
//! the output — values (enum variants included), lineage, row order — is
//! bitwise-identical to the row-at-a-time scan over the equivalent
//! [`ProbTable`](pdb_storage::ProbTable), at every thread count. The
//! compiled predicates and kernels replay `CompareOp::eval` ∘ `Value::cmp`
//! case by case (including NaN-greatest float normalization, cross-type
//! rank ordering and NULL-fails-everything), the zone statistics are built
//! from the same total order, and `PredEval` is retained as the scalar
//! oracle: debug builds re-check every chunk's mask against it row by row,
//! and [`ChunkPredicate`] exposes both masks to property tests.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use pdb_govern::{Counter, ExecContext, Stage};
use pdb_par::Pool;
use pdb_query::{CompareOp, Predicate};
use pdb_storage::columnar::{ChunkRepr, Packed, Word};
use pdb_storage::{
    total_f64_cmp, with_words, ColumnData, ColumnarTable, NullBitmap, Value, Variable, ZoneMap,
};

use crate::annotated::Annotated;
use crate::error::{ExecError, ExecResult};
use crate::kernel;

/// Counters describing how much work zone-statistics pruning saved in one
/// scan.
///
/// A thin view over the pdb-obs counter set: when the [`ExecContext`]
/// carries a collector, the same numbers are tallied as the
/// `Counter::Chunks*` / `Counter::Rows*` metrics — this struct remains for
/// callers of [`scan_filter_project_columnar_ranked_ctx`] that want
/// per-scan numbers without wiring up observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnarScanStats {
    /// Chunks in the table.
    pub chunks: usize,
    /// Chunks skipped entirely from their zone statistics.
    pub chunks_skipped: usize,
    /// Of the skipped chunks, how many only the bloom filter could prune
    /// (the min/max range alone was inconclusive).
    pub chunks_bloom_skipped: usize,
    /// Chunks whose zone statistics proved every row matches (no per-row
    /// work).
    pub chunks_full: usize,
    /// Input rows.
    pub rows_in: usize,
    /// Surviving rows.
    pub rows_out: usize,
}

impl ColumnarScanStats {
    /// Fraction of chunks skipped from zone statistics alone.
    pub fn skip_rate(&self) -> f64 {
        if self.chunks == 0 {
            0.0
        } else {
            self.chunks_skipped as f64 / self.chunks as f64
        }
    }
}

/// What the zone statistics prove about one predicate over one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prune {
    /// No row of the chunk can satisfy the predicate.
    Skip,
    /// Every row of the chunk satisfies the predicate (requires a NULL-free
    /// chunk: NULL fails every comparison).
    Full,
    /// Undecided: evaluate per row.
    Partial,
}

/// Zone-map decision for `op constant` over a chunk summarised by `zone`,
/// from the `[min, max]` bounds alone.
///
/// Sound because the bounds and `CompareOp::eval` order values by the same
/// total order (`Value::cmp`): if even `max` compares below an `>` constant,
/// no row can exceed it, and so on. All-NULL chunks fail every predicate.
fn prune_chunk(zone: &ZoneMap, op: CompareOp, constant: &Value) -> Prune {
    if constant.is_null() {
        // `CompareOp::eval` is false whenever either side is NULL.
        return Prune::Skip;
    }
    let (Some(min), Some(max)) = (&zone.min, &zone.max) else {
        return Prune::Skip; // all rows NULL
    };
    let lo = min.cmp(constant);
    let hi = max.cmp(constant);
    let no_nulls = zone.null_count == 0;
    let full = |cond: bool| {
        if cond && no_nulls {
            Prune::Full
        } else {
            Prune::Partial
        }
    };
    match op {
        CompareOp::Eq | CompareOp::In => {
            if hi == Ordering::Less || lo == Ordering::Greater {
                Prune::Skip
            } else {
                full(lo == Ordering::Equal && hi == Ordering::Equal)
            }
        }
        CompareOp::Ne => {
            if lo == Ordering::Equal && hi == Ordering::Equal {
                Prune::Skip
            } else {
                full(hi == Ordering::Less || lo == Ordering::Greater)
            }
        }
        CompareOp::Lt => {
            if lo != Ordering::Less {
                Prune::Skip
            } else {
                full(hi == Ordering::Less)
            }
        }
        CompareOp::Le => {
            if lo == Ordering::Greater {
                Prune::Skip
            } else {
                full(hi != Ordering::Greater)
            }
        }
        CompareOp::Gt => {
            if hi != Ordering::Greater {
                Prune::Skip
            } else {
                full(lo == Ordering::Greater)
            }
        }
        CompareOp::Ge => {
            if hi == Ordering::Less {
                Prune::Skip
            } else {
                full(lo != Ordering::Less)
            }
        }
    }
}

/// [`prune_chunk`] sharpened by the chunk's bloom filter. Returns the
/// decision plus whether the bloom filter (not the range) made a `Skip`
/// possible.
///
/// - `Eq`: range-inconclusive but the probe is absent ⇒ no row equals the
///   constant ⇒ `Skip` (the filter has no false negatives).
/// - `Ne`: probe absent and the chunk null-free ⇒ *every* row differs ⇒
///   `Full`.
fn prune_one(zone: &ZoneMap, op: CompareOp, constant: &Value) -> (Prune, bool) {
    let base = prune_chunk(zone, op, constant);
    match (op, base) {
        (CompareOp::Eq | CompareOp::In, Prune::Partial) if !zone.may_contain(constant) => {
            (Prune::Skip, true)
        }
        (CompareOp::Ne, Prune::Partial) if zone.null_count == 0 && !zone.may_contain(constant) => {
            (Prune::Full, false)
        }
        _ => (base, false),
    }
}

/// Pruning decision for one compiled predicate. An `IN` list skips a
/// chunk when no member lies in `[min, max]` (one binary search of the
/// sorted list, [`Predicate::members_within`]) or the bloom filter holds
/// none of those that do, and takes a null-free chunk whole when a member
/// equals both its bounds.
fn prune_pred(zone: &ZoneMap, cp: &CompiledPred<'_>) -> (Prune, bool) {
    let p = cp.pred;
    if p.op != CompareOp::In {
        return prune_one(zone, p.op, &p.constant);
    }
    let (Some(min), Some(max)) = (&zone.min, &zone.max) else {
        return (Prune::Skip, false); // all rows NULL
    };
    let inside = || p.members_within(min, max);
    if inside().next().is_none() {
        (Prune::Skip, false)
    } else if min == max && inside().any(|c| c == min && c == max) {
        let full = zone.null_count == 0;
        (if full { Prune::Full } else { Prune::Partial }, false)
    } else if inside().any(|c| zone.may_contain(c)) {
        (Prune::Partial, false)
    } else {
        (Prune::Skip, true)
    }
}

/// One predicate compiled against one column's physical representation:
/// yields the `Value::cmp` ordering of a non-null row against the constant
/// without constructing a `Value`. This is the scalar oracle; the bitmask
/// kernels evaluate the same comparison as a [`kernel::WordTest`] over a
/// packed column's words ([`PredEval::thresholds`]) or a float or boolean
/// loop, and debug builds verify every mask against it.
enum PredEval<'a> {
    /// The constant is NULL: every row fails.
    AllFalse,
    /// Constant of a different type class: `Value::cmp` falls back to the
    /// type rank, so every non-null row compares the same way.
    ConstOrd(Ordering),
    /// Integer column vs integer constant (exact integer comparison —
    /// `Value::cmp` never goes through floats for Int/Int).
    IntInt(i64),
    /// Integer column vs float constant (`Value::cmp` compares through f64).
    IntFloat(f64),
    /// `f64` column vs numeric constant (integers cast, as `Value::cmp`
    /// does).
    FloatNum(f64),
    /// Date column vs date constant.
    DateDate(i32),
    /// Dictionary column vs string constant: `ip` is the constant's
    /// insertion point in the sorted dictionary, `present` whether it
    /// occurs. Codes are ranks, so `code < ip` ⇔ the string sorts below
    /// the constant.
    StrRank { ip: u32, present: bool },
    /// `bool` column vs boolean constant.
    BoolBool(bool),
    /// Mixed column: evaluate on the stored `Value` directly (the kernel
    /// layer specializes per chunk through the representation tag).
    Mixed(&'a Value),
    /// An `IN` list: a row matches iff [`Predicate::matches`] its value.
    Member(&'a Predicate),
}

/// One decoded non-null cell of a typed column, as the oracle compares it:
/// a packed column's value (integer, date or rank), a float or a boolean.
#[derive(Clone, Copy)]
enum Cell {
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl PredEval<'_> {
    /// Compiles `constant` against `column`'s representation.
    fn compile<'a>(column: &ColumnData, constant: &'a Value) -> PredEval<'a> {
        use PredEval::*;
        if constant.is_null() {
            return AllFalse;
        }
        match (column, constant) {
            (ColumnData::Mixed { .. }, _) => Mixed(constant),
            (ColumnData::Int { .. }, Value::Int(c)) => IntInt(*c),
            (ColumnData::Int { .. }, Value::Float(c)) => IntFloat(*c),
            (ColumnData::Float { .. }, Value::Float(c)) => FloatNum(*c),
            (ColumnData::Float { .. }, Value::Int(c)) => FloatNum(*c as f64),
            (ColumnData::Date { .. }, Value::Date(c)) => DateDate(*c),
            (ColumnData::Bool { .. }, Value::Bool(c)) => BoolBool(*c),
            (ColumnData::Str { dict, .. }, Value::Str(c)) => {
                let ip = dict.partition_point(|s| s.as_ref() < c.as_ref());
                let present = dict.get(ip).is_some_and(|s| s.as_ref() == c.as_ref());
                StrRank {
                    ip: ip as u32,
                    present,
                }
            }
            // Different type classes: Value::cmp orders by type rank, the
            // same way for every non-null row of the column.
            (col, c) => {
                let probe = representative(col);
                ConstOrd(probe.cmp(c))
            }
        }
    }

    /// The `Value::cmp` ordering of a non-null cell against the constant.
    #[inline]
    fn ordering(&self, cell: Cell) -> Option<Ordering> {
        match (self, cell) {
            (PredEval::AllFalse, _) => None,
            (PredEval::ConstOrd(ord), _) => Some(*ord),
            (PredEval::IntInt(c), Cell::Int(x)) => Some(x.cmp(c)),
            (PredEval::IntFloat(c), Cell::Int(x)) => Some(total_f64_cmp(x as f64, *c)),
            (PredEval::FloatNum(c), Cell::Float(x)) => Some(total_f64_cmp(x, *c)),
            (PredEval::DateDate(c), Cell::Int(x)) => Some(x.cmp(&i64::from(*c))),
            (PredEval::BoolBool(c), Cell::Bool(x)) => Some(x.cmp(c)),
            (PredEval::StrRank { ip, present }, Cell::Int(code)) => {
                let ip = i64::from(*ip);
                Some(if code < ip {
                    Ordering::Less
                } else if *present && code == ip {
                    Ordering::Equal
                } else {
                    Ordering::Greater
                })
            }
            _ => unreachable!("PredEval compiled for this column"),
        }
    }

    /// `(a, b)`: the first value that compares at or above the constant and
    /// the first that compares above it, for the comparisons a packed column
    /// evaluates. The values `Value::cmp` orders `Less` are those below `a`,
    /// `Equal` those in `a..b`, `Greater` the rest — so every operator is an
    /// interval of values. An integer compared with a float constant goes
    /// through `f64`, which is monotone: its two thresholds are found by
    /// bisection (a NaN constant, greatest, leaves every integer below it).
    fn thresholds(&self) -> Option<(i128, i128)> {
        let next = |x: i128| (x, x + 1);
        Some(match *self {
            PredEval::IntInt(c) => next(c.into()),
            PredEval::DateDate(c) => next(c.into()),
            PredEval::BoolBool(c) => next(c.into()),
            PredEval::StrRank { ip, present } => (ip.into(), i128::from(ip) + i128::from(present)),
            PredEval::IntFloat(c) => (first_int(|v| v as f64 >= c), first_int(|v| v as f64 > c)),
            _ => return None,
        })
    }

    /// The oracle's mask of `op` over `range` of `column`, row by row: a
    /// NULL row fails, any other passes iff its [`PredEval::ordering`]
    /// satisfies `op` (`CompareOp::eval` on a `Mixed` column). A packed
    /// column's rows are decoded once for the chunk.
    fn oracle_mask(&self, column: &ColumnData, op: CompareOp, range: Range<usize>) -> Vec<u64> {
        let (start, n) = (range.start, range.len());
        let mut out = vec![0; kernel::mask_words(n)];
        if let PredEval::Member(p) = self {
            kernel::fill_with(n, &mut out, |i| p.matches(&column.value(start + i)));
            return out;
        }
        let pass = |i: usize, cell: Cell| {
            !column.is_null(start + i) && self.ordering(cell).is_some_and(|o| op_ord(op, o))
        };
        match column {
            ColumnData::Mixed { values } => kernel::fill_with(n, &mut out, |i| match self {
                PredEval::Mixed(c) => op.eval(&values[start + i], c),
                _ => false,
            }),
            ColumnData::Float { values, .. } => {
                kernel::fill_with(n, &mut out, |i| pass(i, Cell::Float(values[start + i])))
            }
            ColumnData::Bool { values, .. } => {
                kernel::fill_with(n, &mut out, |i| pass(i, Cell::Bool(values[start + i])))
            }
            ColumnData::Int { values, .. }
            | ColumnData::Date { values, .. }
            | ColumnData::Str { codes: values, .. } => {
                let cells = values.decode(range);
                kernel::fill_with(n, &mut out, |i| pass(i, Cell::Int(cells[i])))
            }
        }
        out
    }
}

/// The first `i64` at which the monotone `pred` holds, or `i64::MAX + 1`.
fn first_int(pred: impl Fn(i64) -> bool) -> i128 {
    let (mut lo, mut hi) = (i128::from(i64::MIN), i128::from(i64::MAX) + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid as i64) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// The word test of `op` over words `w ≤ top` holding `base + w`, from the
/// constant's thresholds `(a, b)` ([`PredEval::thresholds`]).
fn word_test((base, top): (i64, u64), op: CompareOp, (a, b): (i128, i128)) -> kernel::WordTest {
    let (min, max) = (i128::from(i64::MIN), i128::from(i64::MAX));
    let (lo, hi, negate) = match op {
        CompareOp::Eq | CompareOp::In => (a, b - 1, false),
        CompareOp::Ne => (a, b - 1, true),
        CompareOp::Lt => (min, a - 1, false),
        CompareOp::Le => (min, b - 1, false),
        CompareOp::Gt => (b, max, false),
        CompareOp::Ge => (a, max, false),
    };
    kernel::WordTest::new(base, top, lo, hi, negate)
}

/// Whether an ordering outcome satisfies `op` (`In` behaves as `Eq`
/// against a single constant).
#[inline]
fn op_ord(op: CompareOp, ord: Ordering) -> bool {
    match op {
        CompareOp::Eq | CompareOp::In => ord == Ordering::Equal,
        CompareOp::Ne => ord != Ordering::Equal,
        CompareOp::Lt => ord == Ordering::Less,
        CompareOp::Le => ord != Ordering::Greater,
        CompareOp::Gt => ord == Ordering::Greater,
        CompareOp::Ge => ord != Ordering::Less,
    }
}

/// A non-null `Value` of the column's type class, for cross-type-class rank
/// comparisons (the concrete payload never matters there).
fn representative(column: &ColumnData) -> Value {
    match column {
        ColumnData::Int { .. } => Value::Int(0),
        ColumnData::Float { .. } => Value::Float(0.0),
        ColumnData::Str { .. } => Value::str(""),
        ColumnData::Date { .. } => Value::Date(0),
        ColumnData::Bool { .. } => Value::Bool(false),
        ColumnData::Mixed { .. } => unreachable!("mixed columns evaluate Values directly"),
    }
}

/// One predicate compiled for the scan: the predicate, its column
/// position, its [`PredEval`] (an `IN` list's is [`PredEval::Member`]),
/// and its [`kernel::WordTest`] when the column is packed or boolean.
struct CompiledPred<'a> {
    pred: &'a Predicate,
    col: usize,
    eval: PredEval<'a>,
    test: Option<kernel::WordTest>,
}

impl<'a> CompiledPred<'a> {
    /// Compiles `p` against column `col` of `table`. Over words, an `IN`
    /// list is the set of words its members equal: each member's `Eq`
    /// interval ([`PredEval::thresholds`]), clipped to the frame.
    fn new(table: &ColumnarTable, p: &'a Predicate, col: usize) -> CompiledPred<'a> {
        let column = table.column(col);
        let frame = match column {
            ColumnData::Bool { .. } => Some((0, 1)),
            _ => column.packed().map(|p| (p.base(), p.top())),
        };
        let (eval, test) = if p.op == CompareOp::In {
            let test = frame.map(|(base, top)| {
                let mut words = Vec::new();
                for c in p.constants() {
                    if let Some((a, b)) = PredEval::compile(column, c).thresholds() {
                        let lo = (a - i128::from(base)).max(0);
                        let hi = (b - 1 - i128::from(base)).min(top.into());
                        words.extend((lo..=hi).map(|w| w as u64));
                    }
                }
                kernel::WordTest::set(words, top)
            });
            (PredEval::Member(p), test)
        } else {
            let eval = PredEval::compile(column, &p.constant);
            let test = frame.and_then(|frame| Some(word_test(frame, p.op, eval.thresholds()?)));
            (eval, test)
        };
        CompiledPred {
            pred: p,
            col,
            eval,
            test,
        }
    }

    /// The scalar oracle's mask over `range`.
    fn oracle_mask(&self, table: &ColumnarTable, range: Range<usize>) -> Vec<u64> {
        (self.eval).oracle_mask(table.column(self.col), self.pred.op, range)
    }
}

/// One predicate compiled against a columnar table as the scan compiles it,
/// for checking the kernels against the scalar oracle: debug builds of the
/// scan hold the two masks equal on every chunk they mask, and property
/// tests do so in release builds too.
pub struct ChunkPredicate<'a> {
    table: &'a ColumnarTable,
    compiled: CompiledPred<'a>,
}

impl<'a> ChunkPredicate<'a> {
    /// Compiles `predicate` against `table`.
    ///
    /// # Errors
    /// Fails if the predicate's attribute is not a column of `table`.
    pub fn new(table: &'a ColumnarTable, predicate: &'a Predicate) -> ExecResult<Self> {
        let col = (table.schema().index_of(&predicate.attribute))
            .map_err(|_| ExecError::UnknownColumn(predicate.attribute.clone()))?;
        let compiled = CompiledPred::new(table, predicate, col);
        Ok(ChunkPredicate { table, compiled })
    }

    /// Chunk `k`'s selection masks: the kernels' (NULL rows cleared), then
    /// the scalar oracle's.
    pub fn masks(&self, k: usize) -> (Vec<u64>, Vec<u64>) {
        let range = self.table.chunk_range(k);
        let mut kernel = vec![0; kernel::mask_words(range.len())];
        build_pred_mask(self.table, k, &self.compiled, &mut kernel);
        (kernel, self.compiled.oracle_mask(self.table, range))
    }
}

/// The survivors of one chunk.
enum ChunkSurvivors {
    /// Zone statistics proved the chunk empty.
    Skipped,
    /// Every row survives (`Full` on all predicates, or no predicates).
    All(std::ops::Range<usize>),
    /// Selection bitmask relative to the chunk start; `count` is its
    /// popcount.
    Mask {
        start: usize,
        words: Vec<u64>,
        count: usize,
    },
}

impl ChunkSurvivors {
    fn count(&self) -> usize {
        match self {
            ChunkSurvivors::Skipped => 0,
            ChunkSurvivors::All(r) => r.len(),
            ChunkSurvivors::Mask { count, .. } => *count,
        }
    }
}

/// The chunk's null-bitmap words, for typed columns (chunk starts are
/// 64-aligned, so the slice is exact). `Mixed` columns carry NULLs inline.
fn null_words<'a>(column: &'a ColumnData, range: &std::ops::Range<usize>) -> Option<&'a [u64]> {
    let nulls = match column {
        ColumnData::Int { nulls, .. }
        | ColumnData::Float { nulls, .. }
        | ColumnData::Str { nulls, .. }
        | ColumnData::Date { nulls, .. }
        | ColumnData::Bool { nulls, .. } => nulls,
        ColumnData::Mixed { .. } => return None,
    };
    let w0 = range.start / 64;
    Some(&nulls.words()[w0..w0 + kernel::mask_words(range.len())])
}

/// Fills `out` with the selection mask of one compiled comparison over one
/// chunk: the interval kernel over a packed or boolean column's words when
/// the comparison has a word `test`, else the float kernel, the mixed
/// chunk loops, or an `IN` list's per-row binary search. NULL handling for
/// typed columns happens in the caller (one `and_not_nulls` per
/// predicate); `Mixed` chunks fail NULL rows inline.
fn eval_mask(
    column: &ColumnData,
    repr: ChunkRepr,
    eval: &PredEval<'_>,
    test: Option<&kernel::WordTest>,
    op: CompareOp,
    range: Range<usize>,
    out: &mut [u64],
) {
    match (test, eval, column) {
        (Some(test), _, ColumnData::Bool { values, .. }) => {
            kernel::fill_words(&values[range], test, out)
        }
        (Some(test), _, column) => {
            let words = column
                .packed()
                .expect("a word test of a packed column")
                .words();
            with_words!(words, w => kernel::fill_words(&w[range], test, out))
        }
        (None, PredEval::AllFalse, _) => kernel::fill_const(false, range.len(), out),
        (None, PredEval::ConstOrd(ord), _) => {
            kernel::fill_const(op_ord(op, *ord), range.len(), out)
        }
        (None, PredEval::FloatNum(c), ColumnData::Float { values, .. }) => {
            kernel::fill_f64(&values[range], *c, op, out)
        }
        (None, PredEval::Mixed(c), ColumnData::Mixed { values }) => {
            mixed_chunk_mask(&values[range], repr, op, c, out)
        }
        (None, PredEval::Member(p), column) => kernel::fill_with(range.len(), out, |i| {
            p.matches(&column.value(range.start + i))
        }),
        _ => unreachable!("PredEval compiled for this column"),
    }
}

/// Selection mask over a `Mixed` chunk. The per-chunk representation tag
/// lets uniformly-typed chunks run a typed loop (one enum-variant check per
/// row, no `Value::cmp` dispatch); only genuinely heterogeneous chunks fall
/// back to full per-row `Value` evaluation.
fn mixed_chunk_mask(
    vals: &[Value],
    repr: ChunkRepr,
    op: CompareOp,
    constant: &Value,
    out: &mut [u64],
) {
    let n = vals.len();
    match (repr, constant) {
        (ChunkRepr::Int, Value::Int(c)) => kernel::fill_with(
            n,
            out,
            |i| matches!(&vals[i], Value::Int(x) if op_ord(op, x.cmp(c))),
        ),
        (ChunkRepr::Int, Value::Float(c)) => kernel::fill_with(
            n,
            out,
            |i| matches!(&vals[i], Value::Int(x) if op_ord(op, total_f64_cmp(*x as f64, *c))),
        ),
        (ChunkRepr::Float, Value::Float(c)) => kernel::fill_with(
            n,
            out,
            |i| matches!(&vals[i], Value::Float(x) if op_ord(op, total_f64_cmp(*x, *c))),
        ),
        (ChunkRepr::Float, Value::Int(c)) => {
            let cf = *c as f64;
            kernel::fill_with(
                n,
                out,
                |i| matches!(&vals[i], Value::Float(x) if op_ord(op, total_f64_cmp(*x, cf))),
            )
        }
        (ChunkRepr::Date, Value::Date(c)) => kernel::fill_with(
            n,
            out,
            |i| matches!(&vals[i], Value::Date(x) if op_ord(op, x.cmp(c))),
        ),
        (ChunkRepr::Bool, Value::Bool(c)) => kernel::fill_with(
            n,
            out,
            |i| matches!(&vals[i], Value::Bool(x) if op_ord(op, x.cmp(c))),
        ),
        (ChunkRepr::Str, Value::Str(c)) => kernel::fill_with(
            n,
            out,
            |i| matches!(&vals[i], Value::Str(s) if op_ord(op, s.as_ref().cmp(c.as_ref()))),
        ),
        (ChunkRepr::Hetero, _) => kernel::fill_with(n, out, |i| op.eval(&vals[i], constant)),
        // Uniform chunk, constant of a different type class: every non-null
        // row compares by type rank, the same way.
        (_, _) => {
            let probe = repr_representative(repr);
            let res = op_ord(op, probe.cmp(constant));
            kernel::fill_with(n, out, |i| !vals[i].is_null() && res)
        }
    }
}

/// A non-null `Value` of a uniform chunk representation's type class.
fn repr_representative(repr: ChunkRepr) -> Value {
    match repr {
        ChunkRepr::Int => Value::Int(0),
        ChunkRepr::Float => Value::Float(0.0),
        ChunkRepr::Str => Value::str(""),
        ChunkRepr::Date => Value::Date(0),
        ChunkRepr::Bool => Value::Bool(false),
        ChunkRepr::Hetero => unreachable!("hetero chunks take the per-row path"),
    }
}

/// Builds the full selection mask of one predicate over chunk `k` into
/// `out`, then ANDs the null bitmap out for typed columns.
fn build_pred_mask(table: &ColumnarTable, k: usize, cp: &CompiledPred<'_>, out: &mut [u64]) {
    let (column, range) = (table.column(cp.col), table.chunk_range(k));
    let repr = table.zone(cp.col, k).repr;
    let test = cp.test.as_ref();
    eval_mask(column, repr, &cp.eval, test, cp.pred.op, range.clone(), out);
    // Typed kernels evaluate the (meaningless) stored natives of NULL rows;
    // clear them in one pass. Mixed chunks already failed NULLs per row.
    if let Some(nw) = null_words(column, &range) {
        kernel::and_not_nulls(out, nw);
    }
}

/// Scalar-oracle check of one chunk's mask: row `r` survives iff every
/// compiled predicate matches under [`PredEval`] (`IN`:
/// [`Predicate::matches`]). Debug builds assert this for every masked
/// chunk.
#[cfg(debug_assertions)]
fn mask_agrees_with_oracle(
    table: &ColumnarTable,
    compiled: &[CompiledPred<'_>],
    range: &Range<usize>,
    mask: &[u64],
) -> bool {
    let mut want = vec![0; mask.len()];
    kernel::fill_const(true, range.len(), &mut want);
    for cp in compiled {
        kernel::and_into(&mut want, &cp.oracle_mask(table, range.clone()));
    }
    want == mask
}

/// Fused scan → filter → project over a columnar table on an explicit
/// worker pool under a governor context. Equivalent — bitwise, including row
/// order — to [`crate::ops::scan_filter_project_ctx`] over the row
/// representation. Checkpoints at every phase-1 chunk (`scan.chunk`) and
/// phase-2 gather segment (`scan.gather`), and memory accounting for the
/// survivor arenas.
///
/// # Errors
/// Fails if a predicate or kept attribute is missing from the table schema,
/// or with [`ExecError::Governed`] when the governor interrupts the scan.
pub fn scan_filter_project_columnar_ctx(
    table: &ColumnarTable,
    relation: &str,
    predicates: &[&Predicate],
    keep: &[String],
    pool: &Pool,
    ctx: &ExecContext,
) -> ExecResult<Annotated> {
    let ranked = vec![false; keep.len()];
    scan_filter_project_columnar_ranked_ctx(table, relation, predicates, keep, &ranked, pool, ctx)
        .map(|(a, _, _)| a)
}

/// The full scan entry point: like [`scan_filter_project_columnar_ctx`], but
/// columns whose `ranked` flag is set **and** which are dictionary-encoded
/// are gathered as dictionary ranks (`Value::Int(code)`) instead of decoded
/// strings — the late-materialization representation. The second return
/// value holds, per kept column, the dictionary to decode ranks through
/// (`Some` exactly for the columns gathered ranked); the third the scan's
/// pruning counters.
///
/// Ranks are order-identical to their strings (the dictionary is sorted),
/// so joins, sorts and duplicate elimination over ranked columns produce
/// exactly the row set and order the decoded path would; callers decode at
/// the final gather ([`crate::pipeline`]).
///
/// # Errors
/// Fails if a predicate or kept attribute is missing from the table schema,
/// or with [`ExecError::Governed`] when the governor interrupts the scan.
#[allow(clippy::type_complexity)]
pub fn scan_filter_project_columnar_ranked_ctx(
    table: &ColumnarTable,
    relation: &str,
    predicates: &[&Predicate],
    keep: &[String],
    ranked: &[bool],
    pool: &Pool,
    ctx: &ExecContext,
) -> ExecResult<(Annotated, Vec<Option<Arc<[Arc<str>]>>>, ColumnarScanStats)> {
    assert_eq!(ranked.len(), keep.len(), "one ranked flag per kept column");
    let keep_positions: Vec<usize> = keep
        .iter()
        .map(|a| {
            table
                .schema()
                .index_of(a)
                .map_err(|_| ExecError::UnknownColumn(a.clone()))
        })
        .collect::<ExecResult<_>>()?;
    let pred_positions: Vec<usize> = predicates
        .iter()
        .map(|p| {
            table
                .schema()
                .index_of(&p.attribute)
                .map_err(|_| ExecError::UnknownColumn(p.attribute.clone()))
        })
        .collect::<ExecResult<_>>()?;
    let schema = table
        .schema()
        .project(&keep.iter().map(|s| s.as_str()).collect::<Vec<_>>())?;

    // Compile each predicate against its column's physical representation;
    // an IN list's word set is charged to the scan.
    let compiled: Vec<CompiledPred<'_>> = (predicates.iter().zip(&pred_positions))
        .map(|(p, &c)| CompiledPred::new(table, p, c))
        .collect();
    let set_bytes = (compiled.iter().filter_map(|cp| cp.test.as_ref()))
        .map(kernel::WordTest::heap_bytes)
        .sum();
    ctx.account(Stage::Scan, set_bytes)?;

    // Which kept columns are gathered as dictionary ranks, and their
    // decode dictionaries.
    let dicts: Vec<Option<Arc<[Arc<str>]>>> = keep_positions
        .iter()
        .zip(ranked)
        .map(|(&c, &want)| match (want, table.column(c)) {
            (true, ColumnData::Str { dict, .. }) => Some(Arc::from(dict.as_slice())),
            _ => None,
        })
        .collect();
    let rank_col: Vec<bool> = dicts.iter().map(Option::is_some).collect();

    // Phase 1 (parallel over chunks): prune on zone statistics, then
    // bitmask kernels over undecided chunks.
    let chunk_ids: Vec<usize> = (0..table.num_chunks()).collect();
    let survivors: Vec<(ChunkSurvivors, bool)> = pool
        .try_map(&chunk_ids, |_, &k| {
            ctx.checkpoint(Stage::Scan, "scan.chunk", k)?;
            let range = table.chunk_range(k);
            let mut all_full = true;
            let mut partial: Vec<&CompiledPred<'_>> = Vec::new();
            for cp in &compiled {
                match prune_pred(table.zone(cp.col, k), cp) {
                    (Prune::Skip, by_bloom) => return Ok((ChunkSurvivors::Skipped, by_bloom)),
                    (Prune::Full, _) => {}
                    (Prune::Partial, _) => {
                        all_full = false;
                        partial.push(cp);
                    }
                }
            }
            if all_full {
                return Ok((ChunkSurvivors::All(range), false));
            }
            // Selection bitmask: first undecided predicate fills it, the
            // rest AND theirs in. Fixed-size allocations per chunk, never
            // per row.
            let words = kernel::mask_words(range.len());
            let mut acc = vec![0u64; words];
            let mut pm = vec![0u64; words];
            for (i, cp) in partial.iter().enumerate() {
                if i == 0 {
                    build_pred_mask(table, k, cp, &mut acc);
                } else {
                    build_pred_mask(table, k, cp, &mut pm);
                    kernel::and_into(&mut acc, &pm);
                    if kernel::popcount(&acc) == 0 {
                        break;
                    }
                }
            }
            #[cfg(debug_assertions)]
            debug_assert!(
                mask_agrees_with_oracle(table, &compiled, &range, &acc),
                "kernel mask disagrees with the PredEval scalar oracle (chunk {k})"
            );
            let count = kernel::popcount(&acc);
            Ok((
                ChunkSurvivors::Mask {
                    start: range.start,
                    words: acc,
                    count,
                },
                false,
            ))
        })
        .map_err(|f| ExecError::from_task_failure(Stage::Scan, f))?;

    let stats = ColumnarScanStats {
        chunks: survivors.len(),
        chunks_skipped: survivors
            .iter()
            .filter(|(s, _)| matches!(s, ChunkSurvivors::Skipped))
            .count(),
        chunks_bloom_skipped: survivors.iter().filter(|(_, b)| *b).count(),
        chunks_full: survivors
            .iter()
            .filter(|(s, _)| matches!(s, ChunkSurvivors::All(_)))
            .count(),
        rows_in: table.len(),
        rows_out: survivors.iter().map(|(s, _)| s.count()).sum(),
    };
    ctx.tally(Counter::RowsScanned, stats.rows_in as u64);
    ctx.tally(Counter::RowsEmitted, stats.rows_out as u64);
    ctx.tally(Counter::ChunksScanned, stats.chunks as u64);
    ctx.tally(Counter::ChunksSkipped, stats.chunks_skipped as u64);
    ctx.tally(
        Counter::ChunksBloomSkipped,
        stats.chunks_bloom_skipped as u64,
    );
    ctx.tally(Counter::ChunksFull, stats.chunks_full as u64);
    ctx.tally(
        Counter::ChunksPartial,
        (stats.chunks - stats.chunks_skipped - stats.chunks_full) as u64,
    );

    // Phase 2: exact-size output (survivor popcounts), disjoint in-place
    // segment writes, chunk order = input order.
    let (offsets, total) = pdb_par::exclusive_prefix_sum(survivors.iter().map(|(s, _)| s.count()));
    ctx.account(
        Stage::Scan,
        total
            * (schema.len() * std::mem::size_of::<Value>()
                + std::mem::size_of::<(Variable, f64)>()),
    )?;
    let mut out = Annotated::with_placeholder_rows(schema, vec![relation.to_string()], total);
    let dw = out.data_width();
    let data_cuts: Vec<usize> = offsets.iter().map(|o| o * dw).collect();
    let lineage_cuts: Vec<usize> = offsets.clone();
    let (data, lineage) = out.arena_segments_mut();
    pool.try_map_slices2_mut(data, &data_cuts, lineage, &lineage_cuts, |k, dseg, lseg| {
        ctx.checkpoint(Stage::Scan, "scan.gather", k)?;
        match &survivors[k].0 {
            ChunkSurvivors::Skipped => {}
            ChunkSurvivors::All(range) => {
                for (j, &c) in keep_positions.iter().enumerate() {
                    gather_column(table.column(c), range.clone(), rank_col[j], dseg, j, dw);
                }
                gather_lineage(table, range.clone(), lseg);
            }
            ChunkSurvivors::Mask { start, words, .. } => {
                for (j, &c) in keep_positions.iter().enumerate() {
                    gather_column(
                        table.column(c),
                        kernel::mask_rows(*start, words),
                        rank_col[j],
                        dseg,
                        j,
                        dw,
                    );
                }
                gather_lineage(table, kernel::mask_rows(*start, words), lseg);
            }
        }
        Ok(())
    })
    .map_err(|f| ExecError::from_task_failure(Stage::Scan, f))?;
    Ok((out, dicts, stats))
}

/// Gathers one projected column of a chunk's survivors into the output
/// segment: one typed loop per (column, segment) — the column's
/// representation, and a packed column's word width, are matched once, not
/// once per cell. `ranked` gathers dictionary columns as rank codes
/// (`Value::Int`) instead of cloning `Arc<str>`s.
fn gather_column(
    column: &ColumnData,
    rows: impl Iterator<Item = usize>,
    ranked: bool,
    dseg: &mut [Value],
    j: usize,
    dw: usize,
) {
    let cells = dseg.iter_mut().skip(j).step_by(dw);
    match column {
        ColumnData::Int { values, nulls } => gather_packed(values, nulls, rows, cells, Value::Int),
        ColumnData::Date { values, nulls } => {
            gather_packed(values, nulls, rows, cells, |d| Value::Date(d as i32))
        }
        ColumnData::Str { codes, nulls, .. } if ranked => {
            gather_packed(codes, nulls, rows, cells, Value::Int)
        }
        ColumnData::Str { dict, codes, nulls } => {
            let decode = |code: i64| Value::Str(dict[code as usize].clone());
            gather_packed(codes, nulls, rows, cells, decode)
        }
        ColumnData::Float { values, nulls } => {
            for (cell, r) in cells.zip(rows) {
                *cell = if nulls.is_null(r) {
                    Value::Null
                } else {
                    Value::Float(values[r])
                };
            }
        }
        ColumnData::Bool { values, nulls } => {
            for (cell, r) in cells.zip(rows) {
                *cell = if nulls.is_null(r) {
                    Value::Null
                } else {
                    Value::Bool(values[r])
                };
            }
        }
        ColumnData::Mixed { values } => {
            for (cell, r) in cells.zip(rows) {
                *cell = values[r].clone();
            }
        }
    }
}

/// [`gather_column`] of a packed column, the width matched once: a valid
/// row `r` becomes `value(base + words[r])`.
fn gather_packed<'a>(
    packed: &Packed,
    nulls: &NullBitmap,
    rows: impl Iterator<Item = usize>,
    cells: impl Iterator<Item = &'a mut Value>,
    value: impl Fn(i64) -> Value,
) {
    let base = packed.base();
    with_words!(packed.words(), w => {
        for (cell, r) in cells.zip(rows) {
            *cell = if nulls.is_null(r) {
                Value::Null
            } else {
                value(base.wrapping_add(w[r].offset() as i64))
            };
        }
    })
}

/// Writes the `(variable, probability)` pair of each of `rows` to
/// `lineage`, the variables' word width matched once.
fn gather_lineage(
    table: &ColumnarTable,
    rows: impl Iterator<Item = usize>,
    lineage: &mut [(Variable, f64)],
) {
    let (vars, probs) = (table.vars(), table.probs());
    let base = vars.base();
    with_words!(vars.words(), w => {
        for (slot, r) in lineage.iter_mut().zip(rows) {
            *slot = (Variable(base.wrapping_add(w[r].offset() as i64) as u64), probs[r]);
        }
    })
}

/// Plain columnar scan (no predicates): decodes the `attributes` columns of
/// every row. Bitwise-identical to [`crate::ops::scan_ctx`] over the row
/// representation; governed like [`scan_filter_project_columnar_ctx`].
///
/// # Errors
/// Fails if an attribute is missing from the table's schema, or with
/// [`ExecError::Governed`] when the governor interrupts the scan.
pub fn scan_columnar_ctx(
    table: &ColumnarTable,
    relation: &str,
    attributes: &[String],
    pool: &Pool,
    ctx: &ExecContext,
) -> ExecResult<Annotated> {
    scan_filter_project_columnar_ctx(table, relation, &[], attributes, pool, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_storage::{tuple, DataType, ProbTable, Schema, Tuple, Variable};

    fn s(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// The unranked, ungoverned scan with its pruning counters.
    fn scan_stats(
        table: &ColumnarTable,
        relation: &str,
        predicates: &[&Predicate],
        keep: &[String],
        pool: &Pool,
    ) -> ExecResult<(Annotated, ColumnarScanStats)> {
        let ranked = vec![false; keep.len()];
        let ctx = ExecContext::unbounded();
        scan_filter_project_columnar_ranked_ctx(
            table, relation, predicates, keep, &ranked, pool, &ctx,
        )
        .map(|(a, _, stats)| (a, stats))
    }

    fn scan_plain(
        table: &ColumnarTable,
        relation: &str,
        predicates: &[&Predicate],
        keep: &[String],
        pool: &Pool,
    ) -> ExecResult<Annotated> {
        scan_stats(table, relation, predicates, keep, pool).map(|(a, _)| a)
    }

    /// 256 rows over four 64-row chunks; `k` ascending so chunks have
    /// disjoint key ranges, `name` cycling, `price` with NULLs.
    fn sample() -> (ProbTable, ColumnarTable) {
        let schema = Schema::from_pairs(&[
            ("k", DataType::Int),
            ("name", DataType::Str),
            ("price", DataType::Float),
        ])
        .unwrap();
        let names = ["Joe", "Li", "Mo"];
        let mut t = ProbTable::new(schema);
        for r in 0..256usize {
            let price = if r % 5 == 0 {
                Value::Null
            } else {
                Value::Float((r % 16) as f64 / 2.0)
            };
            t.insert(
                Tuple::new(vec![
                    Value::Int(r as i64),
                    Value::str(names[r % names.len()]),
                    price,
                ]),
                Variable(r as u64),
                0.5,
            )
            .unwrap();
        }
        let c = ColumnarTable::from_prob_table_chunked(&t, &Pool::sequential(), 64).unwrap();
        (t, c)
    }

    #[test]
    fn columnar_scan_equals_row_scan() {
        let (row, col) = sample();
        let want = crate::ops::scan(&row, "R", &s(&["k", "name", "price"])).unwrap();
        for threads in [1, 2, 4, 8] {
            let got = scan_columnar_ctx(
                &col,
                "R",
                &s(&["k", "name", "price"]),
                &Pool::new(threads),
                &ExecContext::unbounded(),
            )
            .unwrap();
            assert_eq!(got, want, "{threads} threads");
        }
        assert!(scan_columnar_ctx(
            &col,
            "R",
            &s(&["zzz"]),
            &Pool::new(2),
            &ExecContext::unbounded()
        )
        .is_err());
    }

    #[test]
    fn zone_maps_skip_out_of_range_chunks() {
        let (row, col) = sample();
        // k < 64 touches exactly the first of four chunks.
        let pred = Predicate::new("R", "k", CompareOp::Lt, 64i64);
        let preds = [&pred];
        let (got, stats) = scan_stats(&col, "R", &preds, &s(&["k"]), &Pool::new(4)).unwrap();
        let want = crate::ops::scan_filter_project(&row, "R", &preds, &s(&["k"])).unwrap();
        assert_eq!(got, want);
        assert_eq!(stats.chunks, 4);
        assert_eq!(stats.chunks_skipped, 3);
        // The surviving chunk is fully covered by the zone map: no per-row
        // predicate work at all.
        assert_eq!(stats.chunks_full, 1);
        assert_eq!(stats.rows_out, 64);
        assert!((stats.skip_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn predicates_that_skip_every_chunk_yield_an_empty_result() {
        let (row, col) = sample();
        let pred = Predicate::new("R", "k", CompareOp::Gt, 10_000i64);
        let preds = [&pred];
        let (got, stats) = scan_stats(&col, "R", &preds, &s(&["k"]), &Pool::new(2)).unwrap();
        assert!(got.is_empty());
        assert_eq!(stats.chunks_skipped, 4);
        assert_eq!(
            got,
            crate::ops::scan_filter_project(&row, "R", &preds, &s(&["k"])).unwrap()
        );
    }

    #[test]
    fn every_operator_and_type_agrees_with_the_row_path() {
        let (row, col) = sample();
        let constants = [
            Value::Int(100),
            Value::Float(3.5),
            Value::str("Li"),
            Value::str("Lz"),
            Value::Null,
            Value::Date(5),
        ];
        let ops_ = [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ];
        for attr in ["k", "name", "price"] {
            for c in &constants {
                for op in ops_ {
                    let pred = Predicate::new("R", attr, op, c.clone());
                    let preds = [&pred];
                    let want =
                        crate::ops::scan_filter_project(&row, "R", &preds, &s(&["k", "name"]))
                            .unwrap();
                    let got =
                        scan_plain(&col, "R", &preds, &s(&["k", "name"]), &Pool::new(4)).unwrap();
                    assert_eq!(got, want, "{attr} {op:?} {c:?}");
                }
            }
        }
    }

    #[test]
    fn in_predicates_agree_with_the_row_path_and_prune() {
        let (row, col) = sample();
        // Values drawn from the first and third chunks only.
        let pred = Predicate::is_in("R", "k", [3i64, 140, 150]);
        let preds = [&pred];
        let want = crate::ops::scan_filter_project(&row, "R", &preds, &s(&["k", "name"])).unwrap();
        assert_eq!(want.len(), 3);
        for threads in [1, 2, 8] {
            let (got, stats) =
                scan_stats(&col, "R", &preds, &s(&["k", "name"]), &Pool::new(threads)).unwrap();
            assert_eq!(got, want, "{threads} threads");
            // Chunks 1 ([64,128)) and 3 ([192,256)) hold none of the listed
            // keys: min/max range pruning alone removes them.
            assert_eq!(stats.chunks_skipped, 2, "{threads} threads");
        }
        // IN over strings, including absent alternatives.
        let pred = Predicate::is_in("R", "name", ["Mo", "Nope", "Joe"]);
        let preds = [&pred];
        let want = crate::ops::scan_filter_project(&row, "R", &preds, &s(&["k"])).unwrap();
        let got = scan_plain(&col, "R", &preds, &s(&["k"]), &Pool::new(4)).unwrap();
        assert_eq!(got, want);
        // NULL alternatives match nothing; an all-NULL list skips everything.
        let pred = Predicate::is_in("R", "k", [Value::Null]);
        let preds = [&pred];
        let (got, stats) = scan_stats(&col, "R", &preds, &s(&["k"]), &Pool::new(2)).unwrap();
        assert!(got.is_empty());
        assert_eq!(stats.chunks_skipped, 4);
    }

    #[test]
    fn bloom_filters_skip_absent_equality_probes() {
        // Two distinct strings per 64-row chunk, disjoint across chunks —
        // every chunk's [min, max] range covers "name-0150" but only one
        // chunk actually contains it.
        let schema = Schema::from_pairs(&[("name", DataType::Str)]).unwrap();
        let mut t = ProbTable::new(schema);
        for r in 0..256usize {
            t.insert(
                Tuple::new(vec![Value::str(format!("name-{:04}", (r / 32) * 50))]),
                Variable(r as u64),
                0.5,
            )
            .unwrap();
        }
        let col = ColumnarTable::from_prob_table_chunked(&t, &Pool::sequential(), 64).unwrap();
        let pred = Predicate::new("R", "name", CompareOp::Eq, "name-0150");
        let preds = [&pred];
        let (got, stats) = scan_stats(&col, "R", &preds, &s(&["name"]), &Pool::new(4)).unwrap();
        let want = crate::ops::scan_filter_project(&t, "R", &preds, &s(&["name"])).unwrap();
        assert_eq!(got, want);
        assert_eq!(got.len(), 32);
        // Chunk 0 holds 0000/0050, chunk 1 holds 0100/0150, chunk 2 holds
        // 0200/0250, chunk 3 holds 0300/0350. Range pruning removes chunks
        // 0 and 3 (constant outside [min,max]); chunk 2's range [0200,0250]
        // also excludes 0150 — only the bloom filter is needed nowhere.
        // Probe an absent value *inside* a chunk's range instead:
        let pred = Predicate::new("R", "name", CompareOp::Eq, "name-0120");
        let preds = [&pred];
        let (got, stats2) = scan_stats(&col, "R", &preds, &s(&["name"]), &Pool::new(4)).unwrap();
        assert!(got.is_empty());
        // "name-0120" sorts inside chunk 1's [0100, 0150] range, so min/max
        // cannot prune it — the bloom filter must.
        assert_eq!(stats2.chunks_skipped, 4);
        assert!(stats2.chunks_bloom_skipped >= 1, "{stats2:?}");
        assert_eq!(stats.chunks_skipped, 3);
    }

    #[test]
    fn bloom_ne_promotes_chunks_to_full() {
        // A null-free chunk that provably does not contain the constant
        // satisfies `Ne` wholesale: no per-row work.
        let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
        let mut t = ProbTable::new(schema);
        for r in 0..128usize {
            // Chunk 0: {0, 10}; chunk 1: {100, 110}. Two distinct keys per
            // chunk keep the bloom filters sparse.
            let v = (r / 64 * 100 + (r % 2) * 10) as i64;
            t.insert(tuple![v], Variable(r as u64), 0.5).unwrap();
        }
        let col = ColumnarTable::from_prob_table_chunked(&t, &Pool::sequential(), 64).unwrap();
        // 5 lies inside chunk 0's [0, 10] range but occurs nowhere.
        let pred = Predicate::new("R", "v", CompareOp::Ne, 5i64);
        let preds = [&pred];
        let (got, stats) = scan_stats(&col, "R", &preds, &s(&["v"]), &Pool::new(2)).unwrap();
        assert_eq!(got.len(), 128);
        assert_eq!(
            got,
            crate::ops::scan_filter_project(&t, "R", &preds, &s(&["v"])).unwrap()
        );
        // Both chunks are Full: chunk 1 from its range alone (5 < 100),
        // chunk 0 only via the bloom filter (5 ∈ [0, 10] but absent).
        assert_eq!(stats.chunks_full, 2);
    }

    #[test]
    fn saturated_blooms_keep_scans_exact_on_high_cardinality_columns() {
        // 128 distinct ints per chunk — past the ~64-key cliff the filter is
        // stored as the all-ones sentinel: probes cannot prune, but results
        // must still be exact, and `Ne` must not wrongly promote to Full.
        let schema = Schema::from_pairs(&[("v", DataType::Int)]).unwrap();
        let mut t = ProbTable::new(schema);
        for r in 0..256usize {
            t.insert(tuple![r as i64 * 2], Variable(r as u64), 0.5)
                .unwrap();
        }
        let col = ColumnarTable::from_prob_table_chunked(&t, &Pool::sequential(), 128).unwrap();
        for k in 0..2 {
            assert!(col.zone(0, k).bloom_saturated(), "chunk {k}");
        }
        // Absent value inside chunk 0's range: only row evaluation decides.
        let pred = Predicate::new("R", "v", CompareOp::Eq, 5i64);
        let preds = [&pred];
        let (got, stats) = scan_stats(&col, "R", &preds, &s(&["v"]), &Pool::new(2)).unwrap();
        assert!(got.is_empty());
        assert_eq!(stats.chunks_bloom_skipped, 0);
        // Present values still come back exactly.
        let pred = Predicate::is_in("R", "v", [0i64, 254, 510]);
        let preds = [&pred];
        let got = scan_plain(&col, "R", &preds, &s(&["v"]), &Pool::new(4)).unwrap();
        assert_eq!(
            got,
            crate::ops::scan_filter_project(&t, "R", &preds, &s(&["v"])).unwrap()
        );
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn conjunctions_intersect_survivor_lists() {
        let (row, col) = sample();
        let p1 = Predicate::new("R", "k", CompareOp::Ge, 32i64);
        let p2 = Predicate::new("R", "name", CompareOp::Eq, "Joe");
        let p3 = Predicate::new("R", "price", CompareOp::Gt, 2.0f64);
        let preds = [&p1, &p2, &p3];
        let want = crate::ops::scan_filter_project(&row, "R", &preds, &s(&["k", "price"])).unwrap();
        for threads in [1, 3, 8] {
            let got =
                scan_plain(&col, "R", &preds, &s(&["k", "price"]), &Pool::new(threads)).unwrap();
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn nan_chunks_are_never_wrongly_skipped() {
        // A chunk whose only values above the constant are NaNs must stay:
        // Value's total order ranks NaN greatest, so `> c` selects NaN rows
        // on the row path and the zone max (NaN) must keep the chunk alive.
        let schema = Schema::from_pairs(&[("x", DataType::Float)]).unwrap();
        let mut t = ProbTable::new(schema);
        for r in 0..128usize {
            let x = if r >= 64 && r % 8 == 0 {
                f64::NAN
            } else {
                (r % 10) as f64 / 10.0 // all < 1.0
            };
            t.insert(tuple![x], Variable(r as u64), 0.5).unwrap();
        }
        let col = ColumnarTable::from_prob_table_chunked(&t, &Pool::sequential(), 64).unwrap();
        for (op, c) in [
            (CompareOp::Gt, Value::Float(5.0)),
            (CompareOp::Ge, Value::Float(f64::INFINITY)),
            (CompareOp::Eq, Value::Float(f64::NAN)),
            (CompareOp::Le, Value::Float(f64::NAN)),
            (CompareOp::Ne, Value::Float(f64::NAN)),
        ] {
            let pred = Predicate::new("R", "x", op, c.clone());
            let preds = [&pred];
            let want = crate::ops::scan_filter_project(&t, "R", &preds, &s(&["x"])).unwrap();
            let (got, stats) = scan_stats(&col, "R", &preds, &s(&["x"]), &Pool::new(4)).unwrap();
            assert_eq!(got, want, "{op:?} {c:?}");
            if op == CompareOp::Gt {
                // The NaN-free chunk is skippable, the NaN chunk is not.
                assert_eq!(stats.chunks_skipped, 1, "{op:?}");
                assert_eq!(stats.rows_out, 8, "{op:?}");
            }
        }
    }

    #[test]
    fn all_null_chunks_are_skipped_for_every_predicate() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).unwrap();
        let mut t = ProbTable::new(schema);
        for r in 0..128usize {
            let v = if r < 64 {
                Value::Null
            } else {
                Value::Int(r as i64)
            };
            t.insert(Tuple::new(vec![v]), Variable(r as u64), 0.5)
                .unwrap();
        }
        let col = ColumnarTable::from_prob_table_chunked(&t, &Pool::sequential(), 64).unwrap();
        let pred = Predicate::new("R", "x", CompareOp::Ge, 0i64);
        let preds = [&pred];
        let (got, stats) = scan_stats(&col, "R", &preds, &s(&["x"]), &Pool::new(2)).unwrap();
        assert_eq!(stats.chunks_skipped, 1);
        assert_eq!(
            got,
            crate::ops::scan_filter_project(&t, "R", &preds, &s(&["x"])).unwrap()
        );
    }

    #[test]
    fn cross_type_constants_follow_value_rank_order() {
        let (row, col) = sample();
        // An Int constant against the Str column: Value::cmp orders by type
        // rank (Str > Int), so Gt keeps everything and Lt nothing.
        for (op, c) in [
            (CompareOp::Gt, Value::Int(5)),
            (CompareOp::Lt, Value::Int(5)),
            (CompareOp::Eq, Value::Bool(true)),
            (CompareOp::Ne, Value::Date(3)),
        ] {
            let pred = Predicate::new("R", "name", op, c.clone());
            let preds = [&pred];
            let want = crate::ops::scan_filter_project(&row, "R", &preds, &s(&["k"])).unwrap();
            let got = scan_plain(&col, "R", &preds, &s(&["k"]), &Pool::new(2)).unwrap();
            assert_eq!(got, want, "{op:?} {c:?}");
        }
    }

    #[test]
    fn mixed_columns_with_uniform_chunks_agree_with_the_row_path() {
        // A FLOAT column holding one stray Int: chunk 0 is uniformly Float
        // (typed loop through the repr tag), chunk 1 is heterogeneous
        // (per-row fallback). Both must agree with the row path exactly.
        let schema = Schema::from_pairs(&[("x", DataType::Float)]).unwrap();
        let mut t = ProbTable::new(schema);
        for r in 0..128usize {
            let v = if r == 100 {
                Value::Int(3)
            } else if r % 11 == 0 {
                Value::Null
            } else {
                Value::Float((r % 9) as f64 - 4.0)
            };
            t.insert(Tuple::new(vec![v]), Variable(r as u64), 0.5)
                .unwrap();
        }
        let col = ColumnarTable::from_prob_table_chunked(&t, &Pool::sequential(), 64).unwrap();
        assert!(matches!(col.column(0), ColumnData::Mixed { .. }));
        for op in [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ] {
            for c in [
                Value::Float(0.0),
                Value::Int(3),
                Value::Float(-4.0),
                Value::str("zz"),
            ] {
                let pred = Predicate::new("R", "x", op, c.clone());
                let preds = [&pred];
                let want = crate::ops::scan_filter_project(&t, "R", &preds, &s(&["x"])).unwrap();
                let got = scan_plain(&col, "R", &preds, &s(&["x"]), &Pool::new(3)).unwrap();
                assert_eq!(got, want, "{op:?} {c:?}");
            }
        }
    }

    #[test]
    fn ranked_scan_gathers_codes_and_decodes_back() {
        let (_, col) = sample();
        let pred = Predicate::new("R", "k", CompareOp::Lt, 10i64);
        let preds = [&pred];
        let keep = s(&["k", "name"]);
        let (plain, dicts0, _) = scan_filter_project_columnar_ranked_ctx(
            &col,
            "R",
            &preds,
            &keep,
            &[false, false],
            &Pool::new(2),
            &ExecContext::unbounded(),
        )
        .unwrap();
        assert!(dicts0.iter().all(Option::is_none));
        let (ranked, dicts, _) = scan_filter_project_columnar_ranked_ctx(
            &col,
            "R",
            &preds,
            &keep,
            &[true, true],
            &Pool::new(2),
            &ExecContext::unbounded(),
        )
        .unwrap();
        // Only the Str column is rankable.
        assert!(dicts[0].is_none());
        let dict = dicts[1].as_ref().unwrap();
        assert_eq!(ranked.len(), plain.len());
        for (rr, pr) in ranked.iter().zip(plain.iter()) {
            assert_eq!(rr.data[0], pr.data[0]);
            let Value::Int(code) = rr.data[1] else {
                panic!("ranked cell should be an Int code");
            };
            assert_eq!(Value::Str(dict[code as usize].clone()), pr.data[1]);
            assert_eq!(rr.lineage, pr.lineage);
        }
        // Rank order is string order: sorting by code sorts by string.
        let mut by_code: Vec<(i64, Value)> = ranked
            .iter()
            .zip(plain.iter())
            .map(|(rr, pr)| {
                let Value::Int(c) = rr.data[1] else { panic!() };
                (c, pr.data[1].clone())
            })
            .collect();
        by_code.sort_by_key(|(c, _)| *c);
        let strings: Vec<&Value> = by_code.iter().map(|(_, s)| s).collect();
        assert!(strings.windows(2).all(|w| w[0] <= w[1]));
    }
}
