//! The streaming confidence-computation algorithm for 1scan signatures
//! (paper, Fig. 8 and Section V.C).
//!
//! The answer relation is sorted by its data columns followed by the variable
//! columns in preorder of the signature's 1scanTree (Example V.12). One
//! sequential scan then suffices: every node of the 1scanTree keeps a running
//! probability `crtP` for its current partition and an accumulated
//! probability `allP` over finished partitions; `propagate_prob` updates them
//! in postorder whenever the leftmost changed variable column is found, and
//! nodes are disabled while old partitions re-occur (many-to-many
//! relationships) so that no work is repeated.
//!
//! # Engine layout (PR 2)
//!
//! The run-time 1scanTree is a `FlatScan`: preorder-flattened parallel
//! arrays (`first_child` / `next_sibling` links plus a `subtree_end` index
//! per node) walked iteratively in **reverse preorder**, which visits every
//! descendant before its ancestor — the postorder dependency Fig. 8 needs —
//! with zero allocation per row. Re-seeding or disabling a subtree is a loop
//! over the contiguous preorder range `node+1 .. subtree_end[node]` instead
//! of a recursive descent cloning `children` vectors.
//!
//! The driver never copies the answer relation: [`one_scan_confidences`]
//! groups it through the engine's grouping shell ([`pdb_exec::KeyRuns`]: a
//! sorted row-index permutation and the runs of equal data, from normalized
//! `u64` sort keys or — for an answer already in that order — from one pass
//! over adjacent rows; the same shell the pre-aggregations and the eager
//! plan use) and scans *through* the permutation — O(rows) extra index
//! words instead of a second copy of the arenas. Consecutive rows of the
//! same distinct answer tuple form a *bag* (one run of the shell); bags are
//! independent, so the permutation is partitioned at bag boundaries and
//! fanned out across a [`pdb_par::Pool`] of scoped threads. An answer whose
//! 1scanTree is a single leaf skips the shell (see *Answers that arrive in
//! variable order* below).
//!
//! # Intra-bag splitting (PR 3)
//!
//! Bag-level fan-out cannot help an answer of one (or a handful of) huge
//! bag(s) — a Boolean join query's, or a low-distinct-value projection's —
//! and a bag used to be evaluated by exactly one worker. A bag *can* be
//! split further, though: the root of the 1scanTree
//! combines its partitions (runs of one root variable) with an independent
//! `⊗` — the `allP ← 1 − (1 − crtP)(1 − allP)` fold — so the sorted row
//! range of a huge bag is cut at **root-variable boundaries** into
//! weight-balanced sub-ranges ([`pdb_par::partition_by_weight`]), each
//! sub-range is scanned by its own worker with the machine *yielding* the
//! root's per-partition fold inputs instead of folding them
//! (`FlatScan::scan_bag_partials`), and the driver replays the fold over
//! the concatenated partials with [`pdb_par::independent_or`] in partition
//! order. The reduction shape depends only on the data (one leaf per root
//! partition, folded left-deep), never on the worker count, and every fold
//! step is the exact f64 expression the sequential machine executes — so
//! the split result is **bitwise-identical** to the unsplit scan and to
//! itself at every `SPROUT_THREADS` value. [`SplitPolicy`] sets the row
//! threshold (default [`INTRA_BAG_SPLIT_THRESHOLD`]); a bag whose rows all
//! share one root variable has no boundary to cut at and falls back to the
//! sequential scan.
//!
//! # Unified bag + intra-bag scheduling (PR 4)
//!
//! Bags and huge-bag sub-ranges no longer run as alternating segments (fan
//! out a run of small bags, barrier, split one huge bag with the whole
//! pool, barrier, …): `unit_confidences` flattens ordinary bags and the
//! root-boundary sub-ranges of *all* huge bags into **one** work-item list,
//! weight-balances it by row count ([`pdb_par::partition_by_weight`]), and
//! fans it out once — so many medium-huge bags overlap across workers.
//! Root-partition boundaries are read off the root's lineage column — the
//! first preorder column, so one source serves the sorting and the
//! presorted entry point alike — chunked across the pool, and a unit test
//! pins the chunk stitching against one sequential prefix scan on
//! adversarial duplicate runs. The same scheduler drives the multi-scan
//! pre-aggregation groups.
//!
//! # Answers that arrive in variable order
//!
//! A 1scanTree of one leaf — signature `R*`, a single-relation query — folds
//! each bag's distinct variables left-deep in variable order,
//! `crtP ← independent_or(p, crtP)`, and sorts only to bring a bag's rows
//! together in that order. A scan emits a base table's rows in row order,
//! whose variables ascend, so such an answer is folded in one pass over its
//! rows as they arrive. Each row's data cells are hashed
//! ([`pdb_exec::key::group_row_hash`], equal cells by
//! [`pdb_exec::key::join_equal`]) to a bag, which keeps its first row, its
//! `crtP`, its last variable and its row count; a row that repeats its
//! bag's last variable is a duplicate derivation and adds nothing. Each bag
//! is finished with `independent_or(crtP, 0.0)`, as `FlatScan::flush`
//! finishes a leaf root, and only the bags' first rows are sorted, so bags
//! come out in the order the shell gives them. With `⊕(p, acc)` for
//! `independent_or`:
//!
//! ```text
//!  arrival order                one pass                      first rows sorted
//!  row  data    var  p          bag  its crtP after the row   tuple   confidence
//!   0   (N, O)  x1   p1  ──►    0    ⊕(p1, 0)                 (A, F)  ⊕(⊕(p2, 0), 0)
//!   1   (A, F)  x2   p2  ──►    1    ⊕(p2, 0)                 (N, O)  ⊕(⊕(p5, ⊕(p3, ⊕(p1, 0))), 0)
//!   2   (N, O)  x3   p3  ──►    0    ⊕(p3, ⊕(p1, 0))          (R, F)  ⊕(⊕(p4, 0), 0)
//!   3   (R, F)  x4   p4  ──►    2    ⊕(p4, 0)
//!   4   (R, F)  x4   p4  ──►    2    (x4 again: skipped)
//!   5   (N, O)  x5   p5  ──►    0    ⊕(p5, ⊕(p3, ⊕(p1, 0)))
//! ```
//!
//! That is the sorted scan's expression term for term, so the confidences
//! are the same bits. The pass is sequential at every pool size: a leaf
//! root's intra-bag split only defers this same chain to the fold of its
//! partials. A row whose variable is below its bag's last stops the pass,
//! and the answer takes the sort. The bag table is charged to the governor
//! under [`Stage::Confidence`] before it is allocated, and again at every
//! doubling; nothing is allocated per row. The pass runs checkpoint
//! `conf.fold` `b` at row `b · 1024`, the bag counters are tallied as the
//! scheduler tallies them, and a multi-node 1scanTree — and every
//! pre-aggregation step — keeps the shell and the scheduler.

use pdb_exec::key::{group_row_hash, join_equal, SortKeys};
use pdb_exec::ops::SEQ_CHECK_EVERY;
use pdb_exec::{Annotated, KeyRuns, RowRef};
use pdb_govern::{Counter, ExecContext, Stage};
use pdb_par::{independent_or, independent_or_fold, partition_by_weight, Pool};
use pdb_query::{OneScanTree, Signature};
use pdb_storage::{Tuple, Value, Variable};

use crate::error::{ConfError, ConfResult};

const NIL: u32 = u32::MAX;

/// Default minimum number of rows in a single bag before the intra-bag
/// split engages. Matches [`pdb_par::SEQUENTIAL_CUTOFF`]: below it a bag is
/// too small for fan-out bookkeeping to pay off.
pub const INTRA_BAG_SPLIT_THRESHOLD: usize = pdb_par::SEQUENTIAL_CUTOFF;

/// Tuning knob for intra-bag parallelism: how many rows a single bag of
/// duplicate answer tuples must have before its sorted row range is split
/// at root-variable boundaries and fanned out across the pool.
///
/// The policy is a pure performance knob — confidences are bitwise-identical
/// whether or not a bag is split, and at every thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitPolicy {
    /// Minimum rows in one bag before splitting engages.
    pub min_rows: usize,
}

impl SplitPolicy {
    /// Splits bags of at least `min_rows` rows (benchmarks and tests use
    /// small values to exercise the split on tiny inputs).
    pub fn at(min_rows: usize) -> SplitPolicy {
        SplitPolicy { min_rows }
    }

    /// Never splits a bag: every bag is scanned sequentially by one worker.
    /// The control the split-determinism tests compare against.
    pub fn never() -> SplitPolicy {
        SplitPolicy {
            min_rows: usize::MAX,
        }
    }
}

impl Default for SplitPolicy {
    fn default() -> Self {
        SplitPolicy {
            min_rows: INTRA_BAG_SPLIT_THRESHOLD,
        }
    }
}

/// The run-time 1scanTree, flattened into preorder parallel arrays.
///
/// The arena is laid out in preorder, so a node's array index doubles as its
/// variable column's position in the sort order (the `index` of Fig. 8) and
/// each subtree occupies the contiguous index range
/// `[node, subtree_end[node])`.
#[derive(Debug, Clone)]
pub(crate) struct FlatScan {
    /// Preorder position → index of the node's variable column in the
    /// annotated input's lineage.
    lineage_col: Vec<u32>,
    /// First child (arena index) or [`NIL`] for leaves.
    first_child: Vec<u32>,
    /// Next sibling (arena index) or [`NIL`].
    next_sibling: Vec<u32>,
    /// One past the last preorder index of the node's subtree.
    subtree_end: Vec<u32>,
    /// Fig. 8 run-time state, one entry per node.
    enabled: Vec<bool>,
    crt_p: Vec<f64>,
    all_p: Vec<f64>,
}

impl FlatScan {
    /// Builds the flattened machine for `tree`, mapping each node to the
    /// lineage column of its table in `answer`.
    pub(crate) fn new(tree: &OneScanTree, answer: &Annotated) -> ConfResult<FlatScan> {
        let mut machine = FlatScan {
            lineage_col: Vec::new(),
            first_child: Vec::new(),
            next_sibling: Vec::new(),
            subtree_end: Vec::new(),
            enabled: Vec::new(),
            crt_p: Vec::new(),
            all_p: Vec::new(),
        };
        machine.push_subtree(tree, answer)?;
        Ok(machine)
    }

    fn push_subtree(&mut self, tree: &OneScanTree, answer: &Annotated) -> ConfResult<u32> {
        let col = answer
            .relation_index(&tree.table)
            .map_err(|_| ConfError::MissingLineage(tree.table.clone()))?;
        let idx = self.lineage_col.len() as u32;
        self.lineage_col.push(col as u32);
        self.first_child.push(NIL);
        self.next_sibling.push(NIL);
        self.subtree_end.push(0);
        self.enabled.push(true);
        self.crt_p.push(0.0);
        self.all_p.push(0.0);
        let mut prev_child = NIL;
        for child in &tree.children {
            let c = self.push_subtree(child, answer)?;
            if prev_child == NIL {
                self.first_child[idx as usize] = c;
            } else {
                self.next_sibling[prev_child as usize] = c;
            }
            prev_child = c;
        }
        self.subtree_end[idx as usize] = self.lineage_col.len() as u32;
        Ok(idx)
    }

    /// Number of nodes (= tracked variable columns).
    pub(crate) fn len(&self) -> usize {
        self.lineage_col.len()
    }

    /// Preorder positions → lineage columns: the variable columns in the
    /// order the scan needs them sorted.
    pub(crate) fn preorder_cols(&self) -> Vec<usize> {
        self.lineage_col.iter().map(|&c| c as usize).collect()
    }

    /// Resets every node for a new bag of duplicates.
    #[inline]
    fn reset(&mut self) {
        self.enabled.fill(true);
        self.crt_p.fill(0.0);
        self.all_p.fill(0.0);
    }

    /// The preorder position of the leftmost variable column whose variable
    /// differs between two rows, or `None` if all tracked columns coincide
    /// (a duplicate derivation). Checked in preorder, so the comparison
    /// exits at position 0 — the common case on sorted many-row bags —
    /// without touching the remaining columns.
    #[inline]
    fn leftmost_changed(
        &self,
        prev: &[(Variable, f64)],
        current: &[(Variable, f64)],
    ) -> Option<usize> {
        for (pos, &col) in self.lineage_col.iter().enumerate() {
            if prev[col as usize].0 != current[col as usize].0 {
                return Some(pos);
            }
        }
        None
    }

    /// Whether the 1scanTree's root has no children (e.g. signature `R*`).
    ///
    /// A leaf root accumulates its variables directly into `crtP` (one
    /// partition for the whole bag), so the split driver replays a
    /// *per-variable* fold plus the final `flush` step; an internal root
    /// accumulates closed partitions into `allP`, a per-partition fold.
    #[inline]
    pub(crate) fn root_is_leaf(&self) -> bool {
        self.first_child[0] == NIL
    }

    /// The `propagate prob` procedure of Fig. 8 for a row whose leftmost
    /// changed variable column (in preorder positions) is `i`.
    ///
    /// The recursive postorder of the paper is realised as one reverse
    /// preorder sweep: every descendant has a larger arena index than its
    /// ancestors, so iterating `(i..len).rev()` closes children before their
    /// parent reads `allP`, exactly like the recursion — and nodes below `i`
    /// are skipped wholesale instead of being visited and ignored.
    #[inline]
    fn propagate(&mut self, i: usize, lineage: &[(Variable, f64)]) {
        // `Vec::new()` never allocates; the `false` instantiation compiles
        // the yield branches away entirely, leaving the PR-2 hot path.
        self.propagate_impl::<false>(i, lineage, &mut Vec::new());
    }

    /// [`FlatScan::propagate`], monomorphized over whether the **root**'s
    /// fold inputs are yielded to `partials` instead of being folded.
    ///
    /// With `YIELD_ROOT`, the values the sequential machine would combine at
    /// the root — each closed partition's `crtP · ∏ children allP` for an
    /// internal root, each new variable's probability for a leaf root — are
    /// pushed to `partials` in scan order and the root accumulator is left
    /// untouched. The intra-bag split driver replays the fold over the
    /// concatenated partials of all sub-ranges, reproducing the unsplit
    /// result bitwise. Every non-root node behaves identically in both
    /// instantiations.
    #[inline]
    fn propagate_impl<const YIELD_ROOT: bool>(
        &mut self,
        i: usize,
        lineage: &[(Variable, f64)],
        partials: &mut Vec<f64>,
    ) {
        for node in (i..self.len()).rev() {
            if !self.enabled[node] {
                continue;
            }
            let row_prob = lineage[self.lineage_col[node] as usize].1;
            let first = self.first_child[node];
            if first == NIL && node == i {
                if YIELD_ROOT && node == 0 {
                    // Leaf root: yield the raw fold input of
                    // `crtP ← 1 − (1 − crtP)(1 − p)`; the driver replays it.
                    partials.push(row_prob);
                    continue;
                }
                // A new variable extends the current partition of this leaf.
                // The shared `independent_or` keeps this the exact f64
                // expression the split driver replays.
                let crt = self.crt_p[node];
                self.crt_p[node] = independent_or(row_prob, crt);
                continue;
            }
            // Close the current partition: fold the children's accumulated
            // probabilities into it and add it to the finished partitions.
            let mut crt = self.crt_p[node];
            let mut c = first;
            while c != NIL {
                crt *= self.all_p[c as usize];
                c = self.next_sibling[c as usize];
            }
            if YIELD_ROOT && node == 0 {
                // Internal root: yield the closed partition instead of
                // folding it into `allP`.
                partials.push(crt);
            } else {
                let all = self.all_p[node];
                self.all_p[node] = independent_or(crt, all);
            }
            let descendants = node + 1..self.subtree_end[node] as usize;
            if node == i {
                // A new partition of this node starts: re-seed it and all its
                // descendants from the current row.
                for d in descendants {
                    self.enabled[d] = true;
                    self.all_p[d] = 0.0;
                    self.crt_p[d] = lineage[self.lineage_col[d] as usize].1;
                }
                self.crt_p[node] = row_prob;
            } else {
                // An old partition of this node re-occurs next; disable the
                // whole subtree until an ancestor starts a new partition.
                self.enabled[node] = false;
                for d in descendants {
                    self.enabled[d] = false;
                }
            }
        }
    }

    /// Closes every open partition at the end of a bag and returns the exact
    /// probability of the bag (the root's `allP`).
    #[inline]
    fn flush(&mut self) -> f64 {
        self.flush_impl::<false>(&mut Vec::new())
    }

    /// [`FlatScan::flush`], monomorphized like
    /// [`FlatScan::propagate_impl`]: with `YIELD_ROOT` the root's last open
    /// partition is pushed to `partials` (internal root) or left to the
    /// driver's replay (leaf root, whose per-variable inputs were already
    /// yielded) and the return value is meaningless.
    #[inline]
    fn flush_impl<const YIELD_ROOT: bool>(&mut self, partials: &mut Vec<f64>) -> f64 {
        for node in (0..self.len()).rev() {
            // Disabling cascades to whole subtrees, so skipping a disabled
            // node skips nothing the recursion would have updated.
            if !self.enabled[node] {
                continue;
            }
            let mut crt = self.crt_p[node];
            let mut c = self.first_child[node];
            while c != NIL {
                crt *= self.all_p[c as usize];
                c = self.next_sibling[c as usize];
            }
            if YIELD_ROOT && node == 0 {
                if !self.root_is_leaf() {
                    partials.push(crt);
                }
                return 0.0;
            }
            let all = self.all_p[node];
            self.all_p[node] = independent_or(crt, all);
        }
        self.all_p[0]
    }

    /// Scans one bag of duplicate derivations (row indices into `answer`, in
    /// the one-scan sort order) and returns its exact probability.
    pub(crate) fn scan_bag(&mut self, answer: &Annotated, rows: &[u32]) -> f64 {
        self.reset();
        let mut prev: Option<RowRef<'_>> = None;
        for &r in rows {
            let row = answer.row(r as usize);
            match prev {
                None => self.propagate(0, row.lineage),
                Some(p) => {
                    if let Some(i) = self.leftmost_changed(p.lineage, row.lineage) {
                        self.propagate(i, row.lineage);
                    }
                    // Identical lineage in every column: a duplicate
                    // derivation, nothing to add.
                }
            }
            prev = Some(row);
        }
        self.flush()
    }

    /// Scans a contiguous sub-range of a bag (rows must start at a
    /// root-partition boundary) and appends the root's fold inputs to
    /// `partials` instead of folding them; see
    /// [`FlatScan::propagate_impl`]. Used by the intra-bag split driver.
    pub(crate) fn scan_bag_partials(
        &mut self,
        answer: &Annotated,
        rows: &[u32],
        partials: &mut Vec<f64>,
    ) {
        self.reset();
        let mut prev: Option<RowRef<'_>> = None;
        for &r in rows {
            let row = answer.row(r as usize);
            match prev {
                None => self.propagate_impl::<true>(0, row.lineage, partials),
                Some(p) => {
                    if let Some(i) = self.leftmost_changed(p.lineage, row.lineage) {
                        self.propagate_impl::<true>(i, row.lineage, partials);
                    }
                }
            }
            prev = Some(row);
        }
        self.flush_impl::<true>(partials);
    }
}

/// Root-partition start offsets of the bag `rows` (offset 0 plus every `k`
/// whose root variable — lineage column `root_col` — differs from row
/// `k − 1`'s), over `pool.for_items(rows.len())`'s thread count of chunks.
/// Chunk boundaries stitch exactly: a chunk's first row is compared against
/// the previous chunk's last row, so the offsets are identical to one
/// prefix scan at every thread count (pinned by a unit test).
pub(crate) fn root_partition_starts(
    answer: &Annotated,
    rows: &[u32],
    root_col: usize,
    pool: &Pool,
) -> Vec<usize> {
    let root_of = |row: u32| answer.row(row as usize).lineage[root_col].0;
    let ranges = pdb_par::even_ranges(rows.len(), pool.for_items(rows.len()).threads());
    let per_chunk: Vec<Vec<usize>> = pool.map_ranges(&ranges, |range| {
        let mut prev = root_of(rows[range.start.saturating_sub(1)]);
        let mut starts = Vec::new();
        for k in range {
            let v = root_of(rows[k]);
            if v != prev {
                starts.push(k);
                prev = v;
            }
        }
        starts
    });
    let mut starts = vec![0usize];
    for chunk in per_chunk {
        starts.extend(chunk);
    }
    starts
}

/// Evaluates one huge bag by splitting its sorted row range at root-variable
/// boundaries into weight-balanced sub-ranges, scanning each on its own
/// worker, and replaying the root's `independent_or` fold over the
/// concatenated per-partition partials in partition order.
///
/// The reduction shape (one leaf per root partition, folded left-deep) is a
/// function of the data alone, and each fold step is the exact expression
/// the sequential machine executes, so the result is bitwise-identical to
/// [`FlatScan::scan_bag`] — at every pool size. A bag whose rows all share
/// one root variable cannot be split and falls back to the sequential scan.
///
/// The production path schedules sub-ranges through [`unit_confidences`]
/// instead, which overlaps many huge bags; this standalone driver is kept
/// for the adversarial split unit tests.
#[cfg(test)]
pub(crate) fn split_bag_confidence(
    machine: &FlatScan,
    answer: &Annotated,
    rows: &[u32],
    pool: &Pool,
) -> f64 {
    let part_starts = root_partition_starts(answer, rows, machine.preorder_cols()[0], pool);
    if part_starts.len() == 1 {
        // Every row carries the same root variable: unsplittable.
        return machine.clone().scan_bag(answer, rows);
    }
    let chunks = partition_by_weight(&part_starts, rows.len(), pool.threads());
    let partial_lists: Vec<Vec<f64>> = pool.map_ranges(&chunks, |parts| {
        let mut machine = machine.clone();
        let lo = part_starts[parts.start];
        let hi = part_starts.get(parts.end).copied().unwrap_or(rows.len());
        let mut partials = Vec::new();
        machine.scan_bag_partials(answer, &rows[lo..hi], &mut partials);
        partials
    });
    fold_partials(machine, partial_lists.iter().flatten().copied())
}

/// Folds the concatenated per-partition partials of one split unit — the
/// exact left-deep `independent_or` replay of Fig. 8's root accumulation.
///
/// An internal root's fresh sub-machine closes an *empty* partition on
/// its first row, so every sub-range but the first contributes a leading
/// `0.0` partial the sequential fold performs only once. Folding `0.0`
/// is a bitwise no-op here: every accumulator value is either exactly
/// `0.0` or of the form `fl(1 − t)` with `t ∈ [0, 1]`, for which
/// `1 − (1 − 0)(1 − acc)` reproduces `acc` exactly (`1 − acc` is exact by
/// Sterbenz for `acc ≥ 0.5`, and for `acc < 0.5` the value `1 − acc = t`
/// is itself representable) — so the replay stays bit-identical.
#[inline]
fn fold_partials(machine: &FlatScan, partials: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = independent_or_fold(partials);
    if machine.root_is_leaf() {
        // Mirror the unsplit flush: the leaf root's accumulated crtP is
        // folded into an allP of exactly 0.0.
        acc = independent_or(acc, 0.0);
    }
    acc
}

/// One work item of the unified schedule: a contiguous row sub-range
/// (`lo..hi` into the sorted permutation) of one unit — a bag of duplicate
/// answer tuples or a pre-aggregation group.
struct WorkItem {
    unit: u32,
    lo: usize,
    hi: usize,
    /// Sub-range of a split unit (yields the root's fold inputs) rather
    /// than a whole unit (folds inline).
    split: bool,
}

enum ItemResult {
    Whole(f64),
    Partials(Vec<f64>),
}

/// The unified bag + intra-bag scheduler: evaluates every unit of the sorted
/// permutation and returns one probability per unit, in unit order.
///
/// Ordinary units are one work item each; units at or above the
/// [`SplitPolicy`] threshold are cut at root-variable boundaries (read off
/// the root's lineage column) into weight-balanced sub-range items.
/// All items — whole units and sub-ranges alike — then form **one**
/// row-weight-balanced global schedule ([`partition_by_weight`]), so many
/// medium-huge units overlap across workers instead of being evaluated one
/// at a time with a barrier in between (the pre-PR-4 behavior).
///
/// Determinism: an item's result depends only on its row range, and a split
/// unit's partials are per root partition — concatenating them in item
/// order yields the same list however the sub-ranges were cut — so the
/// probabilities are bitwise-identical at every thread count, and identical
/// to the unsplit scan. The pool decides only how a unit is cut: checkpoint
/// `conf.bag` `u` runs once, where unit `u` starts, and a panicking item is
/// isolated, at every pool size.
pub(crate) fn unit_confidences(
    machine: &FlatScan,
    answer: &Annotated,
    order: &[u32],
    unit_starts: &[usize],
    pool: &Pool,
    policy: SplitPolicy,
    ctx: &ExecContext,
) -> ConfResult<Vec<f64>> {
    let n = unit_starts.len();
    let unit_range =
        |u: usize| unit_starts[u]..unit_starts.get(u + 1).copied().unwrap_or(order.len());
    if ctx.obs().is_some() {
        // Bag counters: the unit count and the number of units of at least
        // `SplitPolicy::min_rows` rows and at least two, duplicates
        // included.
        // Both depend only on the sorted permutation and the policy — how
        // many sub-ranges a huge unit actually splits into depends on the
        // pool size and is deliberately not counted.
        let threshold = policy.min_rows.max(2);
        ctx.tally(Counter::ConfBags, n as u64);
        ctx.tally(
            Counter::ConfHugeBags,
            (0..n).filter(|&u| unit_range(u).len() >= threshold).count() as u64,
        );
    }
    // Build the global work-item list. The root's variable is the first
    // preorder column, which is where the rows of a unit are sorted first.
    let root_col = machine.preorder_cols()[0];
    let threshold = policy.min_rows.max(2);
    let mut items: Vec<WorkItem> = Vec::with_capacity(n);
    for u in 0..n {
        let range = unit_range(u);
        let len = range.len();
        let whole = WorkItem {
            unit: u as u32,
            lo: range.start,
            hi: range.end,
            split: false,
        };
        // A unit is cut into at most one sub-range per worker, and finding
        // the cut points costs a pass over its rows and a vector of up to
        // one entry per row: with no second worker there is nothing to cut.
        if len < threshold || pool.threads() < 2 {
            items.push(whole);
            continue;
        }
        let part_starts = root_partition_starts(answer, &order[range.clone()], root_col, pool);
        let cuts = partition_by_weight(&part_starts, len, pool.threads());
        if cuts.len() == 1 {
            // Every row carries the same root variable: unsplittable.
            items.push(whole);
            continue;
        }
        for parts in cuts {
            items.push(WorkItem {
                unit: u as u32,
                lo: range.start + part_starts[parts.start],
                hi: range.start + part_starts.get(parts.end).copied().unwrap_or(len),
                split: true,
            });
        }
    }
    // One weight-balanced fan-out over all items; each worker walks its
    // contiguous item range with a single machine clone.
    let item_bounds: Vec<usize> = {
        let mut bounds = Vec::with_capacity(items.len());
        let mut offset = 0usize;
        for item in &items {
            bounds.push(offset);
            offset += item.hi - item.lo;
        }
        bounds
    };
    let worker_ranges = partition_by_weight(&item_bounds, order.len(), pool.threads());
    let results: Vec<Vec<ItemResult>> = pool
        .try_map_ranges(&worker_ranges, |_, item_range| {
            let mut machine = machine.clone();
            let mut out = Vec::with_capacity(item_range.len());
            for item in &items[item_range] {
                if item.lo == unit_starts[item.unit as usize] {
                    ctx.checkpoint(Stage::Confidence, "conf.bag", item.unit as usize)?;
                }
                let rows = &order[item.lo..item.hi];
                if item.split {
                    let mut partials = Vec::new();
                    machine.scan_bag_partials(answer, rows, &mut partials);
                    out.push(ItemResult::Partials(partials));
                } else {
                    out.push(ItemResult::Whole(machine.scan_bag(answer, rows)));
                }
            }
            Ok(out)
        })
        .map_err(|f| ConfError::from_task_failure(Stage::Confidence, f))?;
    // Merge in item order: whole-unit results pass through; a split unit
    // folds the concatenated partials of its (contiguous) items.
    let mut probs = vec![0.0f64; n];
    let mut pending: Vec<f64> = Vec::new();
    let mut pending_unit: Option<u32> = None;
    for (item, result) in items.iter().zip(results.into_iter().flatten()) {
        if pending_unit.is_some_and(|u| u != item.unit) {
            let u = pending_unit.take().expect("checked is_some");
            probs[u as usize] = fold_partials(machine, pending.drain(..));
        }
        match result {
            ItemResult::Whole(p) => probs[item.unit as usize] = p,
            ItemResult::Partials(partials) => {
                pending_unit = Some(item.unit);
                pending.extend(partials);
            }
        }
    }
    if let Some(u) = pending_unit {
        probs[u as usize] = fold_partials(machine, pending.drain(..));
    }
    Ok(probs)
}

/// Builds the `(distinct answer tuple, confidence)` output of `n` bags —
/// bag `b`'s tuple is that of row `first_row(b)`, its confidence `prob(b)`
/// — chunked evenly across the pool (results concatenate in bag order).
fn collect_bag_results(
    answer: &Annotated,
    n: usize,
    first_row: impl Fn(usize) -> usize + Sync,
    prob: impl Fn(usize) -> f64 + Sync,
    pool: &Pool,
) -> Vec<(Tuple, f64)> {
    let ranges = pdb_par::even_ranges(n, pool.threads());
    let chunks: Vec<Vec<(Tuple, f64)>> = pool.map_ranges(&ranges, |bags| {
        bags.map(|b| (answer.row(first_row(b)).data_tuple(), prob(b)))
            .collect()
    });
    chunks.into_iter().flatten().collect()
}

/// One bag of [`fold_in_arrival_order`]: a distinct answer tuple and the
/// leaf root's running fold over its rows so far.
struct ArrivalBag<'a> {
    /// [`group_row_hash`] of the bag's data cells, kept for regrowing.
    hash: u64,
    /// The data cells of the bag's first row, which a later row's cells
    /// are compared against.
    data: &'a [Value],
    /// The bag's first row, the row its tuple is read from.
    first: u32,
    /// Rows seen, duplicate derivations included.
    rows: u32,
    /// The variable of the last row folded in.
    last: Variable,
    /// The leaf root's `crtP`.
    crt_p: f64,
}

/// Slots of the first [`ArrivalBags`] table.
const ARRIVAL_SLOTS: usize = 16;

/// The bags of [`fold_in_arrival_order`] behind an open-addressing table
/// (linear probing; a slot holds `bag id + 1`, 0 when empty; a bag's home
/// slot is its hash's high bits). At most half the slots are used, and the
/// table doubles when a new bag would pass that.
struct ArrivalBags<'a> {
    slots: Vec<u32>,
    bags: Vec<ArrivalBag<'a>>,
}

impl<'a> ArrivalBags<'a> {
    /// Bytes of a table of `slots` slots with room for its bags.
    fn bytes(slots: usize) -> usize {
        slots * std::mem::size_of::<u32>() + slots / 2 * std::mem::size_of::<ArrivalBag>()
    }

    /// A table of `slots` slots, charged to `ctx` before it is allocated.
    fn with_slots(slots: usize, ctx: &ExecContext) -> ConfResult<ArrivalBags<'a>> {
        ctx.account(Stage::Confidence, ArrivalBags::bytes(slots))?;
        Ok(ArrivalBags {
            slots: vec![0; slots],
            bags: Vec::with_capacity(slots / 2),
        })
    }

    /// The home slot of `hash`.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The bag of a row whose data cells `data` hash to `hash`: `Ok(bag
    /// id)` if they are pairwise [`join_equal`] to a bag's first row's,
    /// otherwise `Err(slot)`, the empty slot a new bag takes.
    #[inline]
    fn find(&self, data: &[Value], hash: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut s = self.home(hash);
        loop {
            let id = match self.slots[s] {
                0 => return Err(s),
                id => id as usize - 1,
            };
            let bag = &self.bags[id];
            if bag.hash == hash && bag.data.iter().zip(data).all(|(a, b)| join_equal(a, b)) {
                return Ok(id);
            }
            s = (s + 1) & mask;
        }
    }

    /// The first empty slot from `hash`'s home slot on.
    fn empty_slot(&self, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut s = self.home(hash);
        while self.slots[s] != 0 {
            s = (s + 1) & mask;
        }
        s
    }

    /// Puts `bag` at the empty slot `slot`.
    fn insert(&mut self, slot: usize, bag: ArrivalBag<'a>) {
        self.slots[slot] = self.bags.len() as u32 + 1;
        self.bags.push(bag);
    }

    /// Opens a bag at the empty slot `slot` that [`ArrivalBags::find`]
    /// returned, doubling the table first when it is half full.
    fn open(&mut self, slot: usize, bag: ArrivalBag<'a>, ctx: &ExecContext) -> ConfResult<()> {
        if self.bags.len() < self.slots.len() / 2 {
            self.insert(slot, bag);
            return Ok(());
        }
        let mut grown = ArrivalBags::with_slots(2 * self.slots.len(), ctx)?;
        for old in self.bags.drain(..).chain([bag]) {
            grown.insert(grown.empty_slot(old.hash), old);
        }
        *self = grown;
        Ok(())
    }
}

/// The one-pass fold of an answer whose 1scanTree is a single leaf, over
/// its rows in input order; `var_col` is the leaf's lineage column. Each
/// row joins the bag of its data cells and extends the bag's `crtP` with
/// `independent_or(p, crtP)`, unless it repeats the bag's last variable (a
/// duplicate derivation). The bags come back in first-seen order with
/// their `crtP` unfinished, or `None` at the first row whose variable is
/// below its bag's last: a bag's variables must ascend for this fold to be
/// the one the sorted scan makes. Checkpoint `conf.fold` `b` runs at row
/// `b ·` [`SEQ_CHECK_EVERY`], the operators' row-block rule.
fn fold_in_arrival_order<'a>(
    answer: &'a Annotated,
    var_col: usize,
    ctx: &ExecContext,
) -> ConfResult<Option<Vec<ArrivalBag<'a>>>> {
    let mut table = ArrivalBags::with_slots(ARRIVAL_SLOTS, ctx)?;
    for (r, row) in answer.iter().enumerate() {
        if r.is_multiple_of(SEQ_CHECK_EVERY) {
            ctx.checkpoint(Stage::Confidence, "conf.fold", r / SEQ_CHECK_EVERY)?;
        }
        let (var, p) = row.lineage[var_col];
        let hash = group_row_hash(row.data);
        match table.find(row.data, hash) {
            Ok(id) => {
                let bag = &mut table.bags[id];
                bag.rows += 1;
                if var.0 < bag.last.0 {
                    return Ok(None);
                }
                if var != bag.last {
                    bag.last = var;
                    bag.crt_p = independent_or(p, bag.crt_p);
                }
            }
            Err(slot) => {
                let bag = ArrivalBag {
                    hash,
                    data: row.data,
                    first: r as u32,
                    rows: 1,
                    last: var,
                    crt_p: independent_or(p, 0.0),
                };
                table.open(slot, bag, ctx)?;
            }
        }
    }
    Ok(Some(table.bags))
}

/// [`one_scan_confidences_ctx`] for a 1scanTree of one leaf (signature
/// `R*`), folded in arrival order ([`fold_in_arrival_order`]) instead of
/// sorted: `None` when a bag's variables descend, and the answer must take
/// the sort. Each bag is one left-deep `independent_or` chain in variable
/// order, finished as [`FlatScan::flush`] finishes a leaf root — the sorted
/// scan's expression, so the result is the same bits at every pool size.
/// The bags are emitted in the order of their first rows' sort keys, the
/// order [`KeyRuns`] gives them.
fn arrival_order_confidences(
    answer: &Annotated,
    var_col: usize,
    pool: &Pool,
    policy: SplitPolicy,
    ctx: &ExecContext,
) -> ConfResult<Option<Vec<(Tuple, f64)>>> {
    // One task: the fold runs inline at every pool size, with a panic in it
    // isolated as in the bag scheduler.
    let folded = Pool::sequential()
        .try_map(&[answer], |_, answer| {
            fold_in_arrival_order(answer, var_col, ctx)
        })
        .map_err(|f| ConfError::from_task_failure(Stage::Confidence, f))?;
    let Some(bags) = folded.into_iter().next().flatten() else {
        return Ok(None);
    };
    if ctx.obs().is_some() {
        // The counters `unit_confidences` tallies for the same bags.
        let threshold = policy.min_rows.max(2);
        ctx.tally(Counter::ConfBags, bags.len() as u64);
        ctx.tally(
            Counter::ConfHugeBags,
            bags.iter().filter(|b| b.rows as usize >= threshold).count() as u64,
        );
    }
    let pool = &pool.for_items(bags.len());
    let dw = answer.data_width();
    ctx.account(Stage::Confidence, SortKeys::sort_bytes(bags.len(), dw, 0))?;
    let keys = SortKeys::build_with(bags.len(), dw, 0, |b, c| &bags[b].data[c], |_, _| 0, pool);
    let order = keys.sorted_permutation_with(bags.len(), pool);
    let bag = |k: usize| &bags[order[k] as usize];
    Ok(Some(collect_bag_results(
        answer,
        order.len(),
        |k| bag(k).first as usize,
        |k| independent_or(bag(k).crt_p, 0.0),
        pool,
    )))
}

/// Computes `(distinct answer tuple, confidence)` pairs for a signature with
/// the 1scan property using one scan over the sorted answer (Fig. 8),
/// parallelised over bags of duplicates with the default worker pool and
/// [`SplitPolicy`].
///
/// The input is *not* copied: a row-index permutation is sorted into the
/// one-scan order (data columns, then variable columns in preorder of the
/// 1scanTree) and the scan walks through it. Callers holding an already
/// physically sorted answer can use [`one_scan_confidences_presorted_tuned`].
///
/// # Errors
/// Fails if the signature lacks the 1scan property or references a relation
/// without a lineage column.
pub fn one_scan_confidences(
    answer: &Annotated,
    signature: &Signature,
) -> ConfResult<Vec<(Tuple, f64)>> {
    one_scan_confidences_ctx(
        answer,
        signature,
        &Pool::from_env().for_items(answer.len()),
        SplitPolicy::default(),
        &ExecContext::unbounded(),
    )
}

/// [`one_scan_confidences`] on an explicit worker pool, with an explicit
/// intra-bag [`SplitPolicy`], under a governor [`ExecContext`]: the bag
/// scheduler runs a cancellation / deadline checkpoint at every bag
/// (`conf.bag`) — the arrival-order fold of a one-leaf 1scanTree every
/// 1 024 rows (`conf.fold`) — and an interrupted scan surfaces as
/// [`ConfError::Governed`]. Confidences are bitwise-identical for every pool
/// size *and* every policy — the policy only decides how much of the pool a
/// huge bag can use — and a governed run that completes is
/// bitwise-identical to an ungoverned one.
///
/// # Errors
/// Fails if the signature lacks the 1scan property or references a relation
/// without a lineage column, or with [`ConfError::Governed`] when the
/// governor interrupts the scan.
pub fn one_scan_confidences_ctx(
    answer: &Annotated,
    signature: &Signature,
    pool: &Pool,
    policy: SplitPolicy,
    ctx: &ExecContext,
) -> ConfResult<Vec<(Tuple, f64)>> {
    if answer.is_empty() {
        return Ok(Vec::new());
    }
    let tree = one_scan_tree(signature)?;
    let machine = FlatScan::new(&tree, answer)?;
    if machine.root_is_leaf() {
        let var_col = machine.preorder_cols()[0];
        if let Some(confidences) = arrival_order_confidences(answer, var_col, pool, policy, ctx)? {
            return Ok(confidences);
        }
    }
    // Bags are the runs of equal data values; within a bag the rows follow
    // the 1scanTree's preorder variable columns.
    let runs = KeyRuns::build(
        answer,
        &[],
        &machine.preorder_cols(),
        Stage::Confidence,
        pool,
        ctx,
    )?;
    let probs = unit_confidences(
        &machine,
        answer,
        runs.order(),
        runs.starts(),
        pool,
        policy,
        ctx,
    )?;
    let (order, starts) = (runs.order(), runs.starts());
    Ok(collect_bag_results(
        answer,
        starts.len(),
        |b| order[starts[b]] as usize,
        |b| probs[b],
        pool,
    ))
}

/// Sorts an annotated answer into the order required by
/// [`one_scan_confidences_presorted_tuned`]: data columns first, then the variable
/// columns of the signature's 1scanTree in preorder (Example V.12).
///
/// # Errors
/// Fails if the signature lacks the 1scan property or references a missing
/// relation.
pub fn sort_for_signature(answer: &mut Annotated, signature: &Signature) -> ConfResult<()> {
    let tree = one_scan_tree(signature)?;
    let data_cols: Vec<String> = answer
        .schema()
        .names()
        .into_iter()
        .map(|s| s.to_string())
        .collect();
    answer.sort_for_confidence(&data_cols, &tree.preorder())?;
    Ok(())
}

/// Like [`one_scan_confidences_ctx`] (ungoverned) but assumes the input is
/// already physically sorted into the one-scan order
/// ([`sort_for_signature`]), so the sort and the scan can be timed apart.
///
/// Bag boundaries are detected with [`pdb_storage::Value`] equality here,
/// versus normalized-key equality in [`one_scan_confidences_ctx`]. The two
/// agree everywhere except integers beyond ±2⁵³ compared against floats —
/// the corner where `Value`'s own ordering is not transitive (see
/// [`pdb_exec::key`]); the key-based variant resolves those by exact
/// integer value.
///
/// # Errors
/// Fails if the signature lacks the 1scan property or references a relation
/// without a lineage column.
pub fn one_scan_confidences_presorted_tuned(
    answer: &Annotated,
    signature: &Signature,
    pool: &Pool,
    policy: SplitPolicy,
) -> ConfResult<Vec<(Tuple, f64)>> {
    if answer.is_empty() {
        return Ok(Vec::new());
    }
    let tree = one_scan_tree(signature)?;
    let machine = FlatScan::new(&tree, answer)?;
    let order: Vec<u32> = (0..answer.len() as u32).collect();
    let mut bag_starts = vec![0usize];
    for k in 1..answer.len() {
        if answer.row(k).data != answer.row(k - 1).data {
            bag_starts.push(k);
        }
    }
    let probs = unit_confidences(
        &machine,
        answer,
        &order,
        &bag_starts,
        pool,
        policy,
        &ExecContext::unbounded(),
    )?;
    Ok(collect_bag_results(
        answer,
        bag_starts.len(),
        |b| bag_starts[b],
        |b| probs[b],
        pool,
    ))
}

fn one_scan_tree(signature: &Signature) -> ConfResult<OneScanTree> {
    if !signature.is_one_scan() {
        return Err(ConfError::NotOneScan(signature.to_string()));
    }
    OneScanTree::build(signature).map_err(ConfError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grp::grp_confidences;
    use pdb_exec::fixtures::{fig1_catalog, fig1_catalog_with_keys};
    use pdb_exec::pipeline::evaluate_join_order;
    use pdb_query::cq::intro_query_q;
    use pdb_query::reduct::query_signature;
    use pdb_query::FdSet;
    use pdb_storage::tuple;
    use pdb_testkit::brute_force_confidences;

    fn order(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// The ungoverned engine on an explicit pool and split policy.
    fn one_scan(
        answer: &Annotated,
        signature: &Signature,
        pool: &Pool,
        policy: SplitPolicy,
    ) -> ConfResult<Vec<(Tuple, f64)>> {
        one_scan_confidences_ctx(answer, signature, pool, policy, &ExecContext::unbounded())
    }

    fn tpch_fds(catalog: &pdb_storage::Catalog) -> FdSet {
        FdSet::from_catalog_decls(&catalog.fds())
    }

    #[test]
    fn intro_query_with_keys_runs_in_one_scan_and_matches_example_v13() {
        let catalog = fig1_catalog_with_keys();
        let q = intro_query_q();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        let sig = query_signature(&q, &tpch_fds(&catalog)).unwrap();
        assert!(sig.is_one_scan());
        let conf = one_scan_confidences(&answer, &sig).unwrap();
        assert_eq!(conf.len(), 1);
        assert_eq!(conf[0].0, tuple!["1995-01-10"]);
        assert!((conf[0].1 - 0.0028).abs() < 1e-12);
    }

    #[test]
    fn rejects_signatures_without_the_one_scan_property() {
        let catalog = fig1_catalog();
        let q = intro_query_q().boolean_version();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        // Without FDs the Boolean query's signature is (Cust*(Ord*Item*)*)*.
        let sig = query_signature(&q, &FdSet::empty()).unwrap();
        assert!(!sig.is_one_scan());
        assert!(matches!(
            one_scan_confidences(&answer, &sig),
            Err(ConfError::NotOneScan(_))
        ));
    }

    #[test]
    fn agrees_with_grp_and_brute_force_on_wider_selections() {
        // Drop the selective predicates so every customer contributes and the
        // answer has several distinct tuples with several derivations each.
        let catalog = fig1_catalog_with_keys();
        let mut q = intro_query_q();
        q.predicates.clear();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Ord", "Item", "Cust"])).unwrap();
        let sig = query_signature(&q, &tpch_fds(&catalog)).unwrap();
        assert!(sig.is_one_scan());
        let ours = one_scan_confidences(&answer, &sig).unwrap();
        let reference = grp_confidences(&answer, &sig).unwrap();
        let oracle = brute_force_confidences(&answer);
        assert_eq!(ours.len(), oracle.len());
        for ((t1, p1), ((t2, p2), (t3, p3))) in ours.iter().zip(reference.iter().zip(oracle.iter()))
        {
            assert_eq!(t1, t2);
            assert_eq!(t1, t3);
            assert!((p1 - p3).abs() < 1e-9, "{t1}: one-scan {p1} vs oracle {p3}");
            assert!((p2 - p3).abs() < 1e-9, "{t1}: grp {p2} vs oracle {p3}");
        }
    }

    #[test]
    fn boolean_query_produces_a_single_probability() {
        let catalog = fig1_catalog_with_keys();
        let q = intro_query_q().boolean_version();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        let sig = query_signature(&q, &tpch_fds(&catalog)).unwrap();
        let conf = one_scan_confidences(&answer, &sig).unwrap();
        assert_eq!(conf.len(), 1);
        assert_eq!(conf[0].0, Tuple::empty());
        assert!((conf[0].1 - 0.0028).abs() < 1e-12);
    }

    #[test]
    fn empty_answer_is_empty() {
        let catalog = fig1_catalog_with_keys();
        let mut q = intro_query_q();
        q.predicates[0].constant = pdb_storage::Value::str("Nobody");
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        let sig = query_signature(&q, &tpch_fds(&catalog)).unwrap();
        assert!(one_scan_confidences(&answer, &sig).unwrap().is_empty());
    }

    #[test]
    fn presorted_variant_requires_external_sort() {
        let catalog = fig1_catalog_with_keys();
        let mut q = intro_query_q();
        q.predicates.clear();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        let sig = query_signature(&q, &tpch_fds(&catalog)).unwrap();
        let mut sorted = answer.clone();
        sort_for_signature(&mut sorted, &sig).unwrap();
        let a = one_scan_confidences_presorted_tuned(
            &sorted,
            &sig,
            &Pool::from_env(),
            SplitPolicy::default(),
        )
        .unwrap();
        let b = one_scan_confidences(&answer, &sig).unwrap();
        assert_eq!(a.len(), b.len());
        for ((t1, p1), (t2, p2)) in a.iter().zip(b.iter()) {
            assert_eq!(t1, t2);
            assert!((p1 - p2).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_pools_are_bitwise_identical_to_sequential() {
        let catalog = fig1_catalog_with_keys();
        let mut q = intro_query_q();
        q.predicates.clear();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        let sig = query_signature(&q, &tpch_fds(&catalog)).unwrap();
        let sequential =
            one_scan(&answer, &sig, &Pool::sequential(), SplitPolicy::default()).unwrap();
        for threads in [2, 4, 8] {
            let parallel =
                one_scan(&answer, &sig, &Pool::new(threads), SplitPolicy::default()).unwrap();
            assert_eq!(sequential.len(), parallel.len());
            for ((t1, p1), (t2, p2)) in sequential.iter().zip(parallel.iter()) {
                assert_eq!(t1, t2, "{threads} threads");
                assert_eq!(p1.to_bits(), p2.to_bits(), "{threads} threads: {t1}");
            }
        }
    }

    // -- Intra-bag split machinery (PR 3) ---------------------------------

    use pdb_exec::AnnotatedRow;
    use pdb_storage::{DataType, Schema, Value};

    /// A Boolean-shaped single bag over relations R (root) and S (child)
    /// with signature `(R S*)*`: `parts` root partitions, `parts[i]` rows
    /// each, variables ascending so the identity permutation is the
    /// one-scan sort order. Within a partition, child variables repeat in
    /// runs (`dup_runs` duplicates of each full row) so split targets can
    /// land inside duplicate-key runs.
    fn internal_root_bag(parts: &[usize], dup_runs: usize) -> (Annotated, Signature) {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let mut answer = Annotated::new(schema, vec!["R".into(), "S".into()]);
        let mut var = 0u64;
        for (pi, &len) in parts.iter().enumerate() {
            var += 1;
            let root = Variable(var);
            let root_p = 0.1 + 0.8 * ((pi % 7) as f64) / 7.0;
            for s in 0..len {
                var += 1;
                let child = Variable(var);
                let child_p = 0.05 + 0.9 * ((s % 11) as f64) / 11.0;
                for _ in 0..dup_runs.max(1) {
                    answer.push(AnnotatedRow::new(
                        pdb_storage::tuple![7i64],
                        vec![(root, root_p), (child, child_p)],
                    ));
                }
            }
        }
        let sig = Signature::star(Signature::concat(vec![
            Signature::table("R"),
            Signature::star(Signature::table("S")),
        ]));
        assert!(sig.is_one_scan());
        (answer, sig)
    }

    fn machine_for(answer: &Annotated, sig: &Signature) -> FlatScan {
        FlatScan::new(&OneScanTree::build(sig).unwrap(), answer).unwrap()
    }

    #[test]
    fn split_points_landing_mid_duplicate_run_snap_to_partition_boundaries() {
        // Skewed partitions with 3-row duplicate runs: the weight-balanced
        // targets of 2/3/4/8-way splits all land inside duplicate runs, and
        // must snap to root-variable boundaries without perturbing the
        // result by a single bit.
        let (answer, sig) = internal_root_bag(&[1, 7, 2, 9, 1, 4], 3);
        let machine = machine_for(&answer, &sig);
        let rows: Vec<u32> = (0..answer.len() as u32).collect();
        let unsplit = machine.clone().scan_bag(&answer, &rows);
        for threads in [2, 3, 4, 8] {
            let split = split_bag_confidence(&machine, &answer, &rows, &Pool::new(threads));
            assert_eq!(
                split.to_bits(),
                unsplit.to_bits(),
                "{threads} threads: split {split} vs unsplit {unsplit}"
            );
        }
        // And through the public API with a tiny threshold.
        let never = one_scan(&answer, &sig, &Pool::sequential(), SplitPolicy::never()).unwrap();
        for threads in [1, 2, 4, 8] {
            let split = one_scan(&answer, &sig, &Pool::new(threads), SplitPolicy::at(2)).unwrap();
            assert_eq!(split.len(), never.len());
            for ((t1, p1), (t2, p2)) in split.iter().zip(never.iter()) {
                assert_eq!(t1, t2);
                assert_eq!(p1.to_bits(), p2.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn all_rows_one_root_variable_falls_back_to_the_sequential_scan() {
        // One root partition only: nothing to split on.
        let (answer, sig) = internal_root_bag(&[40], 2);
        let machine = machine_for(&answer, &sig);
        let rows: Vec<u32> = (0..answer.len() as u32).collect();
        let unsplit = machine.clone().scan_bag(&answer, &rows);
        for threads in [2, 8] {
            let split = split_bag_confidence(&machine, &answer, &rows, &Pool::new(threads));
            assert_eq!(split.to_bits(), unsplit.to_bits(), "{threads} threads");
        }
    }

    #[test]
    fn empty_and_single_row_bags_survive_aggressive_split_policies() {
        // Empty answer through the tuned API.
        let catalog = fig1_catalog_with_keys();
        let mut q = intro_query_q();
        q.predicates[0].constant = Value::str("Nobody");
        let empty = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        let sig = query_signature(&q, &tpch_fds(&catalog)).unwrap();
        assert!(one_scan(&empty, &sig, &Pool::new(8), SplitPolicy::at(0))
            .unwrap()
            .is_empty());
        // A single-row bag: the split driver's boundary scan finds one
        // partition and falls back.
        let (answer, sig) = internal_root_bag(&[1], 1);
        let machine = machine_for(&answer, &sig);
        let rows = vec![0u32];
        let unsplit = machine.clone().scan_bag(&answer, &rows);
        let split = split_bag_confidence(&machine, &answer, &rows, &Pool::new(8));
        assert_eq!(split.to_bits(), unsplit.to_bits());
        // And a 0-row-threshold policy cannot split 1-row bags (min 2).
        let tuned = one_scan(&answer, &sig, &Pool::new(8), SplitPolicy::at(0)).unwrap();
        assert_eq!(tuned.len(), 1);
        assert_eq!(tuned[0].1.to_bits(), unsplit.to_bits());
    }

    #[test]
    fn bag_exactly_at_the_default_threshold_splits_and_stays_bitwise_identical() {
        // A Boolean leaf-root bag (signature R*) of exactly 512 rows whose
        // variables descend in row order, so it takes the sort: the default
        // policy engages the split at >= INTRA_BAG_SPLIT_THRESHOLD. The
        // same rows with their variables ascending are folded in arrival
        // order, to the same bits.
        assert_eq!(INTRA_BAG_SPLIT_THRESHOLD, 512);
        let schema = Schema::from_pairs(&[]).unwrap();
        let mut descending = Annotated::new(schema.clone(), vec!["R".into()]);
        let mut ascending = Annotated::new(schema, vec!["R".into()]);
        let p = |v: u64| 0.001 + 0.7 * ((v % 131) as f64) / 131.0;
        for v in 0..512u64 {
            let row = |v: u64| AnnotatedRow::new(Tuple::empty(), vec![(Variable(v + 1), p(v))]);
            descending.push(row(511 - v));
            ascending.push(row(v));
        }
        let sig = Signature::star(Signature::table("R"));
        assert!(sig.is_one_scan());
        let unsplit = one_scan(&descending, &sig, &Pool::new(4), SplitPolicy::never()).unwrap();
        for threads in [1, 2, 4, 8] {
            for answer in [&descending, &ascending] {
                let split =
                    one_scan(answer, &sig, &Pool::new(threads), SplitPolicy::default()).unwrap();
                assert_eq!(split.len(), 1);
                assert_eq!(split[0].0, Tuple::empty());
                assert_eq!(
                    split[0].1.to_bits(),
                    unsplit[0].1.to_bits(),
                    "{threads} threads"
                );
            }
        }
        // Closed form for R*: 1 − ∏(1 − p_i).
        let expected = 1.0 - (0..512).fold(1.0, |acc, v| acc * (1.0 - p(v)));
        assert!((unsplit[0].1 - expected).abs() < 1e-12);
    }

    /// Like [`internal_root_bag`] but with `bags` distinct answer tuples —
    /// the many-medium-huge-bags shape the unified scheduler overlaps.
    fn multi_bag_answer(bags: usize, parts: &[usize], dup_runs: usize) -> (Annotated, Signature) {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let mut answer = Annotated::new(schema, vec!["R".into(), "S".into()]);
        let mut var = 0u64;
        for bag in 0..bags {
            for (pi, &len) in parts.iter().enumerate() {
                var += 1;
                let root = Variable(var);
                let root_p = 0.1 + 0.8 * ((pi % 7) as f64) / 7.0;
                for s in 0..len {
                    var += 1;
                    let child = Variable(var);
                    let child_p = 0.05 + 0.9 * ((s % 11) as f64) / 11.0;
                    for _ in 0..dup_runs.max(1) {
                        answer.push(AnnotatedRow::new(
                            pdb_storage::tuple![bag as i64],
                            vec![(root, root_p), (child, child_p)],
                        ));
                    }
                }
            }
        }
        let sig = Signature::star(Signature::concat(vec![
            Signature::table("R"),
            Signature::star(Signature::table("S")),
        ]));
        assert!(sig.is_one_scan());
        (answer, sig)
    }

    #[test]
    fn chunked_root_boundaries_pin_the_sequential_prefix_scan() {
        // Adversarial duplicate runs: uneven partitions with 3-row duplicate
        // runs, large enough (>= SEQUENTIAL_CUTOFF rows) that the chunked
        // scan engages and chunk cuts land inside duplicate runs.
        let (answer, sig) = internal_root_bag(&[1, 199, 1, 1, 150, 248], 3);
        assert!(answer.len() >= pdb_par::SEQUENTIAL_CUTOFF);
        let machine = machine_for(&answer, &sig);
        let preorder = machine.preorder_cols();
        let runs = KeyRuns::build(
            &answer,
            &[],
            &preorder,
            Stage::Confidence,
            &Pool::sequential(),
            &ExecContext::unbounded(),
        )
        .unwrap();
        let order = runs.order();
        let root_col = preorder[0];
        // One sequential prefix scan is the pin.
        let expected = root_partition_starts(&answer, order, root_col, &Pool::sequential());
        assert!(expected.len() > 1, "bag must have several root partitions");
        for threads in [1, 4] {
            let chunked = root_partition_starts(&answer, order, root_col, &Pool::new(threads));
            assert_eq!(chunked, expected, "{threads} threads");
        }
        // Sub-slices (as the scheduler cuts them) agree too, including a
        // slice starting mid-bag at a non-boundary row.
        for range in [0..600, 37..411, 599..1800] {
            let rows = &order[range.clone()];
            let chunked = root_partition_starts(&answer, rows, root_col, &Pool::new(4));
            let sequential = root_partition_starts(&answer, rows, root_col, &Pool::sequential());
            assert_eq!(chunked, sequential, "range {range:?}");
        }
    }

    #[test]
    fn many_medium_huge_bags_schedule_bitwise_identically() {
        // Seven bags of ~90 rows each with a tiny split threshold: the
        // unified scheduler interleaves sub-ranges of several huge bags in
        // one weight-balanced fan-out, and must still reproduce the
        // sequential unsplit scan bit for bit.
        let (answer, sig) = multi_bag_answer(7, &[1, 9, 2, 17, 1, 14], 2);
        let reference = one_scan(&answer, &sig, &Pool::sequential(), SplitPolicy::never()).unwrap();
        assert_eq!(reference.len(), 7);
        for threads in [1, 2, 4, 8] {
            for policy in [
                SplitPolicy::at(16),
                SplitPolicy::at(2),
                SplitPolicy::default(),
            ] {
                let got = one_scan(&answer, &sig, &Pool::new(threads), policy).unwrap();
                assert_eq!(got.len(), reference.len());
                for ((t1, p1), (t2, p2)) in got.iter().zip(reference.iter()) {
                    assert_eq!(t1, t2, "{threads} threads");
                    assert_eq!(
                        p1.to_bits(),
                        p2.to_bits(),
                        "{threads} threads, policy {policy:?}: {t1}"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_machine_matches_the_oracle_under_another_join_order() {
        let catalog = fig1_catalog_with_keys();
        let mut q = intro_query_q();
        q.predicates.clear();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Item", "Ord", "Cust"])).unwrap();
        let sig = query_signature(&q, &tpch_fds(&catalog)).unwrap();
        let flat = one_scan_confidences(&answer, &sig).unwrap();
        let oracle = brute_force_confidences(&answer);
        assert_eq!(flat.len(), oracle.len());
        for ((t1, p1), (t2, p2)) in flat.iter().zip(oracle.iter()) {
            assert_eq!(t1, t2);
            assert!(
                (p1 - p2).abs() < 1e-12,
                "{t1}: one-scan {p1} vs oracle {p2}"
            );
        }
    }
}
