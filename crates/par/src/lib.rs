//! # pdb-par
//!
//! A small scoped-thread worker pool for deterministic data-parallel
//! fan-out. This is the sanctioned thread pool of the workspace: it has no
//! crates.io dependencies (the build environment is offline) and is built
//! entirely on [`std::thread::scope`], so borrowed inputs can be shared with
//! workers without `'static` bounds or reference counting.
//!
//! Design rules every helper here follows:
//!
//! * **Determinism.** Results are returned in task order no matter how many
//!   workers ran or how the OS scheduled them. Callers that partition work at
//!   independent boundaries (e.g. bags of duplicate answer tuples) therefore
//!   get bitwise-identical output at every thread count.
//! * **Sequential degradation.** With one thread, one task, or an empty task
//!   list the pool runs inline on the calling thread — no spawn, no
//!   synchronization, no allocation beyond the result vector. Code using the
//!   pool never needs a separate sequential path.
//! * **Self-balancing.** Workers pull task indices from a shared atomic
//!   counter, so skewed task sizes do not idle workers that finish early.
//!   ([`Pool::map_slices_mut`] is the one exception: disjoint `&mut`
//!   sub-slices cannot be re-claimed through a cursor, so each worker gets a
//!   contiguous slice group up front — callers pass roughly one slice per
//!   worker, typically cut by [`partition_by_weight`].)
//!
//! [`Pool::from_env`] reads the `SPROUT_THREADS` environment variable — the
//! engine-wide thread-count knob — and falls back to
//! [`std::thread::available_parallelism`].

use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Environment variable controlling the default worker count.
pub const THREADS_ENV: &str = "SPROUT_THREADS";

/// Why a `try_map*` fan-out failed.
///
/// Work-item closures run under [`std::panic::catch_unwind`], so a panicking
/// item is reported here instead of tearing down the process — the pool (a
/// per-call [`std::thread::scope`]) is always left reusable. When several
/// items fail before the cooperative abort stops the remaining workers, the
/// failure with the **lowest item index** among those observed is reported;
/// with a single failing item (the fault-injection case) the report is
/// therefore fully deterministic.
#[derive(Debug)]
pub enum TaskFailure<E> {
    /// The closure returned `Err` for work item `item`.
    Err {
        /// Index of the failing work item.
        item: usize,
        /// The error the closure returned.
        error: E,
    },
    /// The closure panicked on work item `item`.
    Panic {
        /// Index of the panicking work item.
        item: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl<E> TaskFailure<E> {
    /// Index of the work item the failure is attributed to.
    pub fn item(&self) -> usize {
        match self {
            TaskFailure::Err { item, .. } | TaskFailure::Panic { item, .. } => *item,
        }
    }
}

/// Renders a caught panic payload for [`TaskFailure::Panic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Below this many items a fan-out is not worth a thread spawn:
/// [`Pool::for_items`] degrades to the sequential pool. Callers holding an
/// explicit pool bypass the gate — tests and benchmarks use that to exercise
/// the parallel path on small inputs.
pub const SEQUENTIAL_CUTOFF: usize = 512;

/// A worker-pool configuration: how many OS threads a fan-out may use.
///
/// The pool is a *policy*, not a set of live threads: workers are spawned
/// per [`Pool::map`] call inside a [`std::thread::scope`] and joined before
/// it returns, so there is no global state, shutdown ordering, or channel
/// plumbing to manage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: NonZeroUsize,
}

impl Pool {
    /// A pool using exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: NonZeroUsize::new(threads.max(1)).expect("max(1) is non-zero"),
        }
    }

    /// The single-threaded pool: every `map` runs inline on the caller.
    pub fn sequential() -> Pool {
        Pool::new(1)
    }

    /// The default pool: `SPROUT_THREADS` if set to a positive integer,
    /// otherwise the machine's available parallelism.
    pub fn from_env() -> Pool {
        let configured = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        match configured {
            Some(n) => Pool::new(n),
            None => Pool::new(
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1),
            ),
        }
    }

    /// Number of worker threads a fan-out may use.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// This pool, degraded to [`Pool::sequential`] when the workload is too
    /// small ([`SEQUENTIAL_CUTOFF`] items) for thread spawns to pay off.
    /// Results are identical either way; this is purely a latency guard for
    /// the convenience entry points that pick the pool themselves.
    pub fn for_items(&self, items: usize) -> Pool {
        if items < SEQUENTIAL_CUTOFF {
            Pool::sequential()
        } else {
            *self
        }
    }

    /// Applies `f` to every task and returns the results **in task order**:
    /// the infallible call of [`Pool::try_map`], which does the work.
    ///
    /// # Panics on worker panic
    /// If `f` panics on a task, this call panics on the calling thread
    /// (naming the task) after all workers have stopped.
    pub fn map<T, R, F>(&self, tasks: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        match self.try_map(tasks, |_, task| Ok::<R, std::convert::Infallible>(f(task))) {
            Ok(results) => results,
            Err(TaskFailure::Panic { item, message }) => {
                panic!("pdb-par worker panicked on task {item}: {message}")
            }
            Err(TaskFailure::Err { error, .. }) => match error {},
        }
    }

    /// [`Pool::map`] over index ranges: applies `f` to each range in
    /// `ranges`, returning results in range order. Convenience wrapper for
    /// the partition-then-fan-out pattern.
    pub fn map_ranges<R, F>(&self, ranges: &[Range<usize>], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        self.map(ranges, |r| f(r.clone()))
    }

    /// Applies `f(item_index, task)` to every task and returns the results
    /// in task order, or the first (lowest-indexed observed)
    /// [`TaskFailure`].
    ///
    /// Workers claim tasks through a shared atomic cursor (self-balancing)
    /// and collect `(index, result)` pairs locally; the pairs are placed back
    /// into task order after the scope joins, so the output is independent of
    /// scheduling. Runs inline when the pool is sequential or there are
    /// fewer than two tasks.
    ///
    /// Each work item runs under `catch_unwind`, so a panicking closure
    /// yields [`TaskFailure::Panic`] instead of unwinding through the pool;
    /// the remaining workers stop claiming items through a cooperative abort
    /// flag. On `Err` the partial results are dropped — a failed fan-out
    /// never exposes partially-computed output. The governed operators are
    /// built on this: their checkpoint errors propagate out of the closure
    /// as `Err`, and injected panics surface as `Panic`.
    pub fn try_map<T, R, E, F>(&self, tasks: &[T], f: F) -> Result<Vec<R>, TaskFailure<E>>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        let workers = self.threads().min(tasks.len());
        if workers <= 1 {
            let mut out = Vec::with_capacity(tasks.len());
            for (i, task) in tasks.iter().enumerate() {
                out.push(run_item(&f, i, task)?);
            }
            return Ok(out);
        }
        let cursor = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let worker = |ok: &mut Vec<(usize, R)>| -> Option<TaskFailure<E>> {
            loop {
                if abort.load(Ordering::Relaxed) {
                    return None;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let task = tasks.get(i)?;
                match run_item(&f, i, task) {
                    Ok(r) => ok.push((i, r)),
                    Err(failure) => {
                        abort.store(true, Ordering::Relaxed);
                        return Some(failure);
                    }
                }
            }
        };
        type TaskOutcome<R, E> = (Vec<(usize, R)>, Option<TaskFailure<E>>);
        let collected: Vec<TaskOutcome<R, E>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        let failure = worker(&mut local);
                        (local, failure)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pdb-par worker harness never panics"))
                .collect()
        });
        let mut slots: Vec<Option<R>> = Vec::with_capacity(tasks.len());
        slots.resize_with(tasks.len(), || None);
        let mut first_failure: Option<TaskFailure<E>> = None;
        for (oks, failure) in collected {
            if let Some(f) = failure {
                if first_failure.as_ref().is_none_or(|b| f.item() < b.item()) {
                    first_failure = Some(f);
                }
            }
            for (i, r) in oks {
                slots[i] = Some(r);
            }
        }
        if let Some(failure) = first_failure {
            return Err(failure);
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every task index was claimed exactly once"))
            .collect())
    }

    /// [`Pool::try_map`] over index ranges (`f(range_index, range)`).
    pub fn try_map_ranges<R, E, F>(
        &self,
        ranges: &[Range<usize>],
        f: F,
    ) -> Result<Vec<R>, TaskFailure<E>>
    where
        R: Send,
        E: Send,
        F: Fn(usize, Range<usize>) -> Result<R, E> + Sync,
    {
        self.try_map(ranges, |i, r| f(i, r.clone()))
    }

    /// Splits `data` at the ascending cut offsets `bounds`
    /// (`bounds[0] == 0`; slice `i` spans `bounds[i]..bounds[i + 1]`, the
    /// last slice runs to `data.len()`) and applies `f(slice_index, slice)`
    /// to every sub-slice, each on exactly one worker. Results come back in
    /// slice order.
    ///
    /// This is the mutable counterpart of [`Pool::map_ranges`]: workers get
    /// disjoint `&mut` sub-slices of one pre-sized buffer, so chunked
    /// producers (e.g. parallel key encoding) write their output in place
    /// instead of returning per-chunk vectors that must be concatenated.
    ///
    /// # Panics on worker panic
    /// If a slice closure panics, this call panics on the calling thread
    /// (naming the slice) after all workers have stopped — it **never
    /// returns normally** with some segments written and others not, so a
    /// half-written buffer can only be observed by code that deliberately
    /// catches the panic. Callers that catch must treat `data` as poisoned
    /// and discard it; use [`Pool::try_map_slices_mut`] to get the same
    /// guarantee as an `Err` return instead of a panic.
    pub fn map_slices_mut<T, R, F>(&self, data: &mut [T], bounds: &[usize], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        // One buffer is the two-buffer combinator with an empty aux side.
        let aux_bounds = vec![0usize; bounds.len()];
        let mut aux: [(); 0] = [];
        self.map_slices2_mut(data, bounds, &mut aux, &aux_bounds, |i, slice, _aux| {
            f(i, slice)
        })
    }

    /// Fallible, panic-isolated [`Pool::map_slices_mut`]: the closure
    /// returns `Result`, and a failing or panicking slice yields the
    /// lowest-indexed observed [`TaskFailure`] after the cooperative abort
    /// stops the remaining workers.
    ///
    /// On `Err`, segments that already ran **have been written**: the caller
    /// owns `data` and must discard it (the governed operators drop the
    /// placeholder arenas on error, so a partially-written relation is never
    /// observable downstream).
    pub fn try_map_slices_mut<T, R, E, F>(
        &self,
        data: &mut [T],
        bounds: &[usize],
        f: F,
    ) -> Result<Vec<R>, TaskFailure<E>>
    where
        T: Send,
        R: Send,
        E: Send,
        F: Fn(usize, &mut [T]) -> Result<R, E> + Sync,
    {
        let aux_bounds = vec![0usize; bounds.len()];
        let mut aux: [(); 0] = [];
        self.try_map_slices2_mut(data, bounds, &mut aux, &aux_bounds, |i, slice, _aux| {
            f(i, slice)
        })
    }

    /// [`Pool::map_slices_mut`] over **two** parallel buffers: splits `data`
    /// at `data_bounds` and `aux` at `aux_bounds` (same number of cuts, same
    /// conventions as [`Pool::map_slices_mut`]) and applies
    /// `f(slice_index, data_slice, aux_slice)` to every aligned sub-slice
    /// pair. Results come back in slice order.
    ///
    /// This is the combinator behind parallel writes into an arena-backed
    /// relation: the data arena and the lineage arena have different strides,
    /// so one cut offset per arena is needed, but slice `i` of both arenas
    /// belongs to the same row range and must be handed to the same worker.
    ///
    /// # Panics on worker panic
    /// Same poisoned-state contract as [`Pool::map_slices_mut`]: a panicking
    /// slice closure makes this call panic on the calling thread (after the
    /// cooperative abort stops the remaining workers) instead of returning
    /// normally, so partially-written buffers are never silently observable.
    pub fn map_slices2_mut<T, U, R, F>(
        &self,
        data: &mut [T],
        data_bounds: &[usize],
        aux: &mut [U],
        aux_bounds: &[usize],
        f: F,
    ) -> Vec<R>
    where
        T: Send,
        U: Send,
        R: Send,
        F: Fn(usize, &mut [T], &mut [U]) -> R + Sync,
    {
        match self.try_map_slices2_mut(data, data_bounds, aux, aux_bounds, |i, d, a| {
            Ok::<R, std::convert::Infallible>(f(i, d, a))
        }) {
            Ok(results) => results,
            Err(TaskFailure::Panic { item, message }) => {
                panic!("pdb-par worker panicked on slice {item}: {message}")
            }
            Err(TaskFailure::Err { error, .. }) => match error {},
        }
    }

    /// Fallible, panic-isolated [`Pool::map_slices2_mut`]; see
    /// [`Pool::try_map_slices_mut`] for the failure contract (on `Err` both
    /// buffers may be partially written and must be discarded).
    pub fn try_map_slices2_mut<T, U, R, E, F>(
        &self,
        data: &mut [T],
        data_bounds: &[usize],
        aux: &mut [U],
        aux_bounds: &[usize],
        f: F,
    ) -> Result<Vec<R>, TaskFailure<E>>
    where
        T: Send,
        U: Send,
        R: Send,
        E: Send,
        F: Fn(usize, &mut [T], &mut [U]) -> Result<R, E> + Sync,
    {
        let n = data_bounds.len();
        assert_eq!(
            n,
            aux_bounds.len(),
            "both bounds lists must cut the same number of slices"
        );
        if n == 0 {
            return Ok(Vec::new());
        }
        let data_slices = split_at_bounds(data, data_bounds);
        let aux_slices = split_at_bounds(aux, aux_bounds);
        let pairs: Vec<SlicePair<'_, T, U>> = data_slices
            .into_iter()
            .zip(aux_slices)
            .enumerate()
            .map(|(i, (d, a))| (i, d, a))
            .collect();
        let workers = self.threads().min(n);
        if workers <= 1 {
            let mut out = Vec::with_capacity(n);
            for (i, d, a) in pairs {
                out.push(run_slice_pair(&f, i, d, a)?);
            }
            return Ok(out);
        }
        // Hand each worker a contiguous group of slice pairs; collect
        // `(index, result)` pairs and place them back in slice order. A
        // failure flips the abort flag so other workers stop before their
        // next pair.
        let mut groups: Vec<Vec<SlicePair<'_, T, U>>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, d, a) in pairs {
            groups[i * workers / n].push((i, d, a));
        }
        let f = &f;
        let abort = AtomicBool::new(false);
        let abort_ref = &abort;
        type SliceOutcome<R, E> = (Vec<(usize, R)>, Option<TaskFailure<E>>);
        let collected: Vec<SliceOutcome<R, E>> = std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .into_iter()
                .map(|group| {
                    scope.spawn(move || {
                        let mut oks = Vec::with_capacity(group.len());
                        let mut failure = None;
                        for (i, d, a) in group {
                            if abort_ref.load(Ordering::Relaxed) {
                                break;
                            }
                            match run_slice_pair(f, i, d, a) {
                                Ok(r) => oks.push((i, r)),
                                Err(e) => {
                                    abort_ref.store(true, Ordering::Relaxed);
                                    failure = Some(e);
                                    break;
                                }
                            }
                        }
                        (oks, failure)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pdb-par worker harness never panics"))
                .collect()
        });
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut first_failure: Option<TaskFailure<E>> = None;
        for (oks, failure) in collected {
            if let Some(f) = failure {
                if first_failure.as_ref().is_none_or(|b| f.item() < b.item()) {
                    first_failure = Some(f);
                }
            }
            for (i, r) in oks {
                slots[i] = Some(r);
            }
        }
        if let Some(failure) = first_failure {
            return Err(failure);
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every slice index was visited exactly once"))
            .collect())
    }
}

/// Runs one `try_map` work item under `catch_unwind`.
fn run_item<T, R, E, F>(f: &F, i: usize, task: &T) -> Result<R, TaskFailure<E>>
where
    F: Fn(usize, &T) -> Result<R, E>,
{
    match catch_unwind(AssertUnwindSafe(|| f(i, task))) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(error)) => Err(TaskFailure::Err { item: i, error }),
        Err(payload) => Err(TaskFailure::Panic {
            item: i,
            message: panic_message(payload),
        }),
    }
}

/// Runs one `try_map_slices2_mut` slice pair under `catch_unwind`.
fn run_slice_pair<T, U, R, E, F>(
    f: &F,
    i: usize,
    d: &mut [T],
    a: &mut [U],
) -> Result<R, TaskFailure<E>>
where
    F: Fn(usize, &mut [T], &mut [U]) -> Result<R, E>,
{
    match catch_unwind(AssertUnwindSafe(|| f(i, d, a))) {
        Ok(Ok(r)) => Ok(r),
        Ok(Err(error)) => Err(TaskFailure::Err { item: i, error }),
        Err(payload) => Err(TaskFailure::Panic {
            item: i,
            message: panic_message(payload),
        }),
    }
}

/// One indexed pair of aligned mutable sub-slices handed to a
/// [`Pool::map_slices2_mut`] worker.
type SlicePair<'a, T, U> = (usize, &'a mut [T], &'a mut [U]);

/// Splits `data` at the ascending cut offsets `bounds` (`bounds[0] == 0`,
/// last slice runs to `data.len()`) into disjoint mutable sub-slices.
fn split_at_bounds<'a, T>(data: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    debug_assert_eq!(bounds.first().copied(), Some(0), "bounds must start at 0");
    debug_assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(bounds.last().copied().unwrap_or(0) <= data.len());
    let mut slices = Vec::with_capacity(bounds.len());
    let mut rest = data;
    let mut prev = 0usize;
    for &cut in &bounds[1..] {
        let (head, tail) = rest.split_at_mut(cut - prev);
        slices.push(head);
        prev = cut;
        rest = tail;
    }
    slices.push(rest);
    slices
}

/// `parts` contiguous, even-sized ranges covering `0..n`, clamped to at most
/// one per item and at least one range (`n == 0` yields a single empty
/// range). The uniform-weight chunking every parallel encoder/scanner uses;
/// for skewed work, cut by [`partition_by_weight`] instead.
pub fn even_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    (0..parts)
        .map(|c| (n * c / parts)..(n * (c + 1) / parts))
        .collect()
}

/// Exclusive prefix sum of per-chunk output counts: returns the write
/// offsets each chunk's output starts at (`offsets[i] = counts[0] + … +
/// counts[i-1]`) plus the total. The stitch-in-chunk-order primitive of the
/// two-phase (count, then write-in-place) parallel operators.
pub fn exclusive_prefix_sum(counts: impl IntoIterator<Item = usize>) -> (Vec<usize>, usize) {
    let mut offsets = Vec::new();
    let mut total = 0usize;
    for c in counts {
        offsets.push(total);
        total += c;
    }
    (offsets, total)
}

/// The independent-or merge `1 − (1 − p)(1 − acc)`: the probability that at
/// least one of two *independent* events fires.
///
/// The operand order matches the accumulator update of SPROUT's Fig. 8
/// streaming machine (`allP ← 1 − (1 − crtP)(1 − allP)`) exactly, so a left
/// fold of per-partition probabilities through this function replays the
/// sequential machine's root accumulation **bitwise** — the property the
/// intra-bag split relies on to stay identical to the unsplit scan.
#[inline]
pub fn independent_or(p: f64, acc: f64) -> f64 {
    1.0 - (1.0 - p) * (1.0 - acc)
}

/// Folds independent-event probabilities with [`independent_or`] in a fixed
/// left-deep shape (iteration order, accumulator seeded with `0.0`).
///
/// The reduction shape depends only on the *data* (the partition list),
/// never on how many workers produced the partials, so the result is
/// bitwise-identical at every thread count — and bitwise-identical to a
/// sequential scan that folded the same values as it went.
#[inline]
pub fn independent_or_fold(probs: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = 0.0;
    for p in probs {
        acc = independent_or(p, acc);
    }
    acc
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

/// Partitions `0..bounds.len()` groups into at most `parts` contiguous
/// ranges of roughly equal *weight*, where group `g` spans the half-open
/// item interval `[bounds[g], bounds[g + 1])` and `total` is the overall
/// item count (`bounds` holds the group start offsets, sorted ascending,
/// with `bounds[0] == 0`).
///
/// This is the bag-partitioning primitive: groups (bags of duplicate answer
/// tuples, pre-aggregation groups) are independent units of work whose sizes
/// can be wildly skewed, so the split is balanced by item count, not by
/// group count. Returned ranges index into `bounds` (i.e. they are group
/// ranges), are **never zero-width**, and concatenate to `0..bounds.len()`.
///
/// The part count is clamped by the *item* count as well as the group count:
/// when items ≪ workers (a handful of rows spread over many requested
/// parts, possibly with zero-item groups in `bounds`) the split degrades to
/// at most one part per item instead of fanning empty work units out to
/// idle workers.
pub fn partition_by_weight(bounds: &[usize], total: usize, parts: usize) -> Vec<Range<usize>> {
    let groups = bounds.len();
    if groups == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, groups).min(total.max(1));
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 0..parts {
        if start >= groups {
            break;
        }
        // Ideal end of this part in item space; find the first group whose
        // start offset reaches it. The last part always takes the rest.
        let end = if p + 1 == parts {
            groups
        } else {
            let target = (total * (p + 1)) / parts;
            let mut end = start + 1;
            while end < groups && bounds[end] < target {
                end += 1;
            }
            end
        };
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Stable parallel sort of `0..len` by a key comparator: returns the same
/// permutation a sequential stable sort would, at every thread count.
///
/// The index space is split into contiguous chunks, each chunk is stably
/// sorted by a worker, and sorted chunks are merged pairwise (left chunk
/// wins ties, preserving ascending input order among equal keys — exactly
/// stable-sort semantics, since chunk `k`'s indices all precede chunk
/// `k+1`'s).
pub fn sorted_permutation_by<F>(len: usize, pool: &Pool, compare: F) -> Vec<u32>
where
    F: Fn(u32, u32) -> std::cmp::Ordering + Sync,
{
    let chunks = pool.threads().min(len.max(1));
    if chunks <= 1 || len < 2 {
        let mut order: Vec<u32> = (0..len as u32).collect();
        order.sort_by(|&a, &b| compare(a, b));
        return order;
    }
    let chunk_ranges = even_ranges(len, chunks);
    let mut runs: Vec<Vec<u32>> = pool.map_ranges(&chunk_ranges, |r| {
        let mut order: Vec<u32> = (r.start as u32..r.end as u32).collect();
        order.sort_by(|&a, &b| compare(a, b));
        order
    });
    // Pairwise merge rounds; each round's merges are themselves fanned out.
    while runs.len() > 1 {
        let pairs: Vec<(Vec<u32>, Vec<u32>)> = {
            let mut pairs = Vec::with_capacity(runs.len().div_ceil(2));
            let mut iter = runs.drain(..);
            while let Some(a) = iter.next() {
                match iter.next() {
                    Some(b) => pairs.push((a, b)),
                    None => pairs.push((a, Vec::new())),
                }
            }
            pairs
        };
        runs = pool.map(&pairs, |(a, b)| merge_runs(a, b, &compare));
    }
    runs.pop().unwrap_or_default()
}

fn merge_runs<F>(a: &[u32], b: &[u32], compare: &F) -> Vec<u32>
where
    F: Fn(u32, u32) -> std::cmp::Ordering,
{
    if b.is_empty() {
        return a.to_vec();
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        // `a` comes from earlier input positions: it wins ties (stability).
        if compare(a[i], b[j]) != std::cmp::Ordering::Greater {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_task_order_at_every_thread_count() {
        let tasks: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = tasks.iter().map(|t| t * 2).collect();
        for threads in [1, 2, 3, 4, 8] {
            let pool = Pool::new(threads);
            assert_eq!(pool.map(&tasks, |t| t * 2), expected, "{threads} threads");
        }
    }

    #[test]
    fn map_handles_empty_and_single_task_lists() {
        let pool = Pool::new(8);
        assert!(pool.map(&Vec::<usize>::new(), |t| *t).is_empty());
        assert_eq!(pool.map(&[41], |t| t + 1), vec![42]);
    }

    #[test]
    fn map_ranges_runs_each_range() {
        let pool = Pool::new(4);
        let ranges = vec![0..3, 3..7, 7..7, 7..10];
        let sums = pool.map_ranges(&ranges, |r| r.sum::<usize>());
        assert_eq!(sums, vec![3, 18, 0, 24]);
    }

    #[test]
    fn pool_construction_clamps_and_reads_env() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::sequential().threads(), 1);
        assert!(Pool::from_env().threads() >= 1);
        assert!(Pool::default().threads() >= 1);
    }

    #[test]
    fn for_items_gates_small_workloads() {
        let pool = Pool::new(8);
        assert_eq!(pool.for_items(SEQUENTIAL_CUTOFF - 1).threads(), 1);
        assert_eq!(pool.for_items(SEQUENTIAL_CUTOFF).threads(), 8);
    }

    #[test]
    fn partition_by_weight_balances_skewed_groups() {
        // Group sizes 1, 1, 98, 1, 1 over 102 items: the heavy group must
        // not drag every light group into one part.
        let bounds = vec![0, 1, 2, 100, 101];
        let parts = partition_by_weight(&bounds, 102, 3);
        assert_eq!(parts.iter().map(|r| r.len()).sum::<usize>(), bounds.len());
        assert_eq!(parts[0].start, 0);
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
        }
        assert!(parts.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn partition_by_weight_degenerate_inputs() {
        assert!(partition_by_weight(&[], 0, 4).is_empty());
        assert_eq!(partition_by_weight(&[0], 5, 4), vec![0..1]);
        // More parts than groups: one group per part.
        let parts = partition_by_weight(&[0, 2, 4], 6, 16);
        assert_eq!(parts, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn partition_by_weight_never_returns_zero_width_partitions() {
        // Regression: items ≪ workers. Three 1-item groups split across 16
        // requested parts must yield exactly three 1-group, 1-item parts —
        // no zero-width (or zero-item) ranges.
        let parts = partition_by_weight(&[0, 1, 2], 3, 16);
        assert_eq!(parts, vec![0..1, 1..2, 2..3]);
        for r in &parts {
            assert!(!r.is_empty(), "zero-width partition {r:?}");
        }
        // Zero-item groups present and fewer items than requested parts: the
        // part count is capped by the item count, so no part can cover only
        // empty groups.
        let bounds = vec![0, 0, 1, 1, 2];
        let parts = partition_by_weight(&bounds, 2, 16);
        assert_eq!(parts.iter().map(|r| r.len()).sum::<usize>(), bounds.len());
        assert!(parts.len() <= 2);
        for r in &parts {
            assert!(!r.is_empty(), "zero-width partition {r:?}");
            let items = bounds.get(r.end).copied().unwrap_or(2) - bounds[r.start];
            assert!(items >= 1, "partition {r:?} covers zero items");
        }
        // An empty total degrades to a single part spanning everything.
        assert_eq!(partition_by_weight(&[0, 0, 0], 0, 8), vec![0..3]);
        // Exhaustive sweep over small shapes: every returned range is
        // non-empty and the ranges tile the group index space.
        for groups in 1usize..6 {
            for per_group in 0usize..3 {
                let bounds: Vec<usize> = (0..groups).map(|g| g * per_group).collect();
                let total = groups * per_group;
                for workers in 1usize..10 {
                    let parts = partition_by_weight(&bounds, total, workers);
                    assert!(parts.iter().all(|r| !r.is_empty()));
                    assert_eq!(parts.first().map(|r| r.start), Some(0));
                    assert_eq!(parts.last().map(|r| r.end), Some(groups));
                    for w in parts.windows(2) {
                        assert_eq!(w[0].end, w[1].start);
                    }
                }
            }
        }
    }

    #[test]
    fn map_slices_mut_writes_disjoint_chunks_in_order() {
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let mut data = vec![0usize; 100];
            let bounds = vec![0, 10, 10, 55, 99];
            let sums = pool.map_slices_mut(&mut data, &bounds, |i, slice| {
                for v in slice.iter_mut() {
                    *v = i + 1;
                }
                slice.len()
            });
            assert_eq!(sums, vec![10, 0, 45, 44, 1], "{threads} threads");
            let expected: Vec<usize> = (0..100)
                .map(|k| match k {
                    0..=9 => 1,
                    10..=54 => 3,
                    55..=98 => 4,
                    _ => 5,
                })
                .collect();
            assert_eq!(data, expected, "{threads} threads");
        }
        let pool = Pool::new(4);
        let mut empty: Vec<u8> = Vec::new();
        assert!(pool
            .map_slices_mut(&mut empty, &[], |_, _: &mut [u8]| 0)
            .is_empty());
    }

    #[test]
    fn map_slices2_mut_writes_aligned_disjoint_chunks() {
        // Two arenas with different strides (3 and 2 items per "row"): the
        // same row-range cuts map to different element offsets per arena,
        // and every aligned pair must reach the same worker in slice order.
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let rows = 50usize;
            let mut data = vec![0usize; rows * 3];
            let mut aux = vec![0usize; rows * 2];
            let row_cuts = [0usize, 7, 7, 30, 49];
            let data_bounds: Vec<usize> = row_cuts.iter().map(|r| r * 3).collect();
            let aux_bounds: Vec<usize> = row_cuts.iter().map(|r| r * 2).collect();
            let lens =
                pool.map_slices2_mut(&mut data, &data_bounds, &mut aux, &aux_bounds, |i, d, a| {
                    assert_eq!(d.len() * 2, a.len() * 3, "aligned row ranges");
                    for v in d.iter_mut() {
                        *v = i + 1;
                    }
                    for v in a.iter_mut() {
                        *v = 10 * (i + 1);
                    }
                    (d.len(), a.len())
                });
            assert_eq!(
                lens,
                vec![(21, 14), (0, 0), (69, 46), (57, 38), (3, 2)],
                "{threads} threads"
            );
            let slice_of = |row: usize| match row {
                0..=6 => 1,
                7..=29 => 3,
                30..=48 => 4,
                _ => 5,
            };
            for r in 0..rows {
                assert!(data[r * 3..(r + 1) * 3].iter().all(|&v| v == slice_of(r)));
                assert!(aux[r * 2..(r + 1) * 2]
                    .iter()
                    .all(|&v| v == 10 * slice_of(r)));
            }
        }
        let pool = Pool::new(4);
        let (mut a, mut b): (Vec<u8>, Vec<u8>) = (Vec::new(), Vec::new());
        assert!(pool
            .map_slices2_mut(&mut a, &[], &mut b, &[], |_, _: &mut [u8], _: &mut [u8]| 0)
            .is_empty());
    }

    #[test]
    fn even_ranges_tile_the_index_space() {
        for (n, parts) in [
            (0usize, 4usize),
            (1, 4),
            (10, 3),
            (10, 1),
            (3, 16),
            (100, 7),
        ] {
            let ranges = even_ranges(n, parts);
            assert!(!ranges.is_empty());
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(n));
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "n {n} parts {parts}");
            }
            if n > 0 {
                assert!(ranges.iter().all(|r| !r.is_empty()), "n {n} parts {parts}");
            }
        }
    }

    #[test]
    fn exclusive_prefix_sum_yields_chunk_write_offsets() {
        let (offsets, total) = exclusive_prefix_sum([3usize, 0, 5, 1]);
        assert_eq!(offsets, vec![0, 3, 3, 8]);
        assert_eq!(total, 9);
        let (offsets, total) = exclusive_prefix_sum(std::iter::empty());
        assert!(offsets.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn independent_or_fold_replays_the_sequential_recurrence_bitwise() {
        let probs: Vec<f64> = (0..1000)
            .map(|i| ((i * 37 + 11) % 97) as f64 / 97.0)
            .collect();
        // The reference: Fig. 8's root accumulator update applied in order.
        let mut acc = 0.0f64;
        for &p in &probs {
            acc = 1.0 - (1.0 - p) * (1.0 - acc);
        }
        assert_eq!(
            independent_or_fold(probs.iter().copied()).to_bits(),
            acc.to_bits()
        );
        // Splitting the fold into an arbitrary prefix/suffix and re-folding
        // the concatenated per-partition values is the same fold: partials
        // are per-partition, not per-chunk, so chunking cannot perturb it.
        for cut in [0, 1, 500, 999, 1000] {
            let (a, b) = probs.split_at(cut);
            let rejoined: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
            assert_eq!(
                independent_or_fold(rejoined.iter().copied()).to_bits(),
                acc.to_bits(),
                "cut {cut}"
            );
        }
        assert_eq!(independent_or_fold([]), 0.0);
        assert_eq!(independent_or(0.25, 0.0), 1.0 - (1.0 - 0.25) * 1.0);
    }

    #[test]
    fn sorted_permutation_matches_sequential_stable_sort() {
        // Keys with many duplicates so stability is observable.
        let keys: Vec<u32> = (0..1000).map(|i| (i * 37 + 11) % 10).collect();
        let compare = |a: u32, b: u32| keys[a as usize].cmp(&keys[b as usize]);
        let mut expected: Vec<u32> = (0..keys.len() as u32).collect();
        expected.sort_by(|&a, &b| compare(a, b));
        for threads in [1, 2, 3, 4, 8] {
            let pool = Pool::new(threads);
            let got = sorted_permutation_by(keys.len(), &pool, compare);
            assert_eq!(got, expected, "{threads} threads");
        }
    }

    /// Runs `f` with the default panic hook silenced, so expected injected
    /// panics don't spam test output.
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(hook);
        r
    }

    #[test]
    fn try_map_matches_map_on_the_happy_path() {
        let tasks: Vec<usize> = (0..600).collect();
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let want = pool.map(&tasks, |t| t * 3);
            let got = pool
                .try_map(&tasks, |i, t| {
                    assert_eq!(i, *t);
                    Ok::<usize, ()>(t * 3)
                })
                .unwrap();
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn try_map_reports_closure_errors_with_their_item() {
        let tasks: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let err = pool
                .try_map(&tasks, |i, t| {
                    if *t == 42 {
                        Err(format!("bad item {i}"))
                    } else {
                        Ok(*t)
                    }
                })
                .unwrap_err();
            match err {
                TaskFailure::Err { item, error } => {
                    assert_eq!(item, 42, "{threads} threads");
                    assert_eq!(error, "bad item 42");
                }
                other => panic!("expected Err failure, got {other:?}"),
            }
            // The pool stays reusable after a failed fan-out.
            assert_eq!(pool.try_map(&tasks, |_, t| Ok::<_, ()>(*t)).unwrap(), tasks);
        }
    }

    #[test]
    fn try_map_isolates_worker_panics_and_leaves_the_pool_reusable() {
        let tasks: Vec<usize> = (0..200).collect();
        quiet_panics(|| {
            for threads in [1, 2, 4, 8] {
                let pool = Pool::new(threads);
                let err = pool
                    .try_map(&tasks, |_, t| {
                        if *t == 7 {
                            panic!("injected panic on {t}");
                        }
                        Ok::<usize, ()>(*t)
                    })
                    .unwrap_err();
                match err {
                    TaskFailure::Panic { item, message } => {
                        assert_eq!(item, 7, "{threads} threads");
                        assert!(message.contains("injected panic on 7"), "{message}");
                    }
                    other => panic!("expected Panic failure, got {other:?}"),
                }
                // Pool is reusable: the scope joined every worker cleanly.
                let doubled = pool.try_map(&tasks, |_, t| Ok::<_, ()>(t * 2)).unwrap();
                assert_eq!(doubled[7], 14, "{threads} threads");
            }
        });
    }

    #[test]
    fn try_map_reports_the_lowest_indexed_failure_when_single() {
        // With exactly one failing item the reported failure is fully
        // deterministic at every thread count (the fault-injection case).
        let tasks: Vec<usize> = (0..500).collect();
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let err = pool
                .try_map(&tasks, |i, _| if i == 123 { Err(i) } else { Ok(()) })
                .unwrap_err();
            assert_eq!(err.item(), 123, "{threads} threads");
        }
    }

    #[test]
    fn try_map_ranges_passes_range_indices() {
        let pool = Pool::new(4);
        let ranges = even_ranges(100, 7);
        let got = pool
            .try_map_ranges(&ranges, |i, r| Ok::<_, ()>((i, r.len())))
            .unwrap();
        for (i, (ri, len)) in got.iter().enumerate() {
            assert_eq!(i, *ri);
            assert_eq!(*len, ranges[i].len());
        }
    }

    #[test]
    fn try_map_slices_mut_err_means_discard_the_buffer() {
        // The poisoned-state contract: on Err, segments that ran were
        // written; the caller must discard the buffer. The combinator must
        // report the failure (never return Ok) and stay reusable.
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let mut data = vec![0usize; 100];
            let bounds = vec![0, 25, 50, 75];
            let err = pool
                .try_map_slices_mut(&mut data, &bounds, |i, slice| {
                    if i == 2 {
                        return Err("slice 2 refused");
                    }
                    for v in slice.iter_mut() {
                        *v = i + 1;
                    }
                    Ok(())
                })
                .unwrap_err();
            match err {
                TaskFailure::Err { item, error } => {
                    assert_eq!(item, 2, "{threads} threads");
                    assert_eq!(error, "slice 2 refused");
                }
                other => panic!("expected Err failure, got {other:?}"),
            }
            // Reusable afterwards; a clean run writes every segment.
            let mut fresh = vec![0usize; 100];
            pool.try_map_slices_mut(&mut fresh, &bounds, |i, slice| {
                for v in slice.iter_mut() {
                    *v = i + 1;
                }
                Ok::<_, ()>(())
            })
            .unwrap();
            assert!(fresh.iter().all(|&v| v >= 1));
        }
    }

    #[test]
    fn map_slices_mut_panics_rather_than_returning_a_poisoned_buffer() {
        // Satellite regression: a worker panic must never let
        // `map_slices_mut` return *normally* with some segments written and
        // others not. The call panics on the calling thread (naming the
        // slice), and the buffer is only observable to code that
        // deliberately catches — which must then discard it.
        quiet_panics(|| {
            for threads in [1, 2, 4, 8] {
                let pool = Pool::new(threads);
                let mut data = vec![0usize; 80];
                let bounds = vec![0, 20, 40, 60];
                let result = catch_unwind(AssertUnwindSafe(|| {
                    pool.map_slices_mut(&mut data, &bounds, |i, slice| {
                        if i == 1 {
                            panic!("injected slice panic");
                        }
                        for v in slice.iter_mut() {
                            *v = 1;
                        }
                    });
                }));
                let payload = result.expect_err("worker panic must propagate, not be swallowed");
                let message = panic_message(payload);
                assert!(
                    message.contains("slice 1") && message.contains("injected slice panic"),
                    "{threads} threads: {message}"
                );
                // The pool (scoped threads) survived and is reusable.
                let mut fresh = vec![0usize; 80];
                pool.map_slices_mut(&mut fresh, &bounds, |_, slice| {
                    for v in slice.iter_mut() {
                        *v = 7;
                    }
                });
                assert!(fresh.iter().all(|&v| v == 7), "{threads} threads");
            }
        });
    }

    #[test]
    fn try_map_slices2_mut_happy_path_matches_infallible() {
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let rows = 50usize;
            let mut data = vec![0usize; rows * 3];
            let mut aux = vec![0usize; rows * 2];
            let row_cuts = [0usize, 7, 7, 30, 49];
            let data_bounds: Vec<usize> = row_cuts.iter().map(|r| r * 3).collect();
            let aux_bounds: Vec<usize> = row_cuts.iter().map(|r| r * 2).collect();
            let lens = pool
                .try_map_slices2_mut(&mut data, &data_bounds, &mut aux, &aux_bounds, |i, d, a| {
                    for v in d.iter_mut() {
                        *v = i + 1;
                    }
                    for v in a.iter_mut() {
                        *v = 10 * (i + 1);
                    }
                    Ok::<_, ()>((d.len(), a.len()))
                })
                .unwrap();
            assert_eq!(
                lens,
                vec![(21, 14), (0, 0), (69, 46), (57, 38), (3, 2)],
                "{threads} threads"
            );
        }
    }

    #[test]
    fn sorted_permutation_tiny_inputs() {
        let pool = Pool::new(4);
        assert!(sorted_permutation_by(0, &pool, |_, _| std::cmp::Ordering::Equal).is_empty());
        assert_eq!(
            sorted_permutation_by(1, &pool, |_, _| std::cmp::Ordering::Equal),
            vec![0]
        );
    }
}
