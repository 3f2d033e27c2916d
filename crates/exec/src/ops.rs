//! Relational operators over lineage-annotated results.
//!
//! All operators are materialising: they consume an [`Annotated`] input and
//! produce a new one. The paper's central observation — that keeping the
//! variable columns makes every join order legal — means these operators are
//! completely standard; the probabilistic machinery lives in `pdb-conf`.
//!
//! Since PR 1 the operators are allocation-lean: output rows are appended to
//! the result's flat arenas by slice-append (see [`crate::annotated`]), join
//! keys are normalized to flat `u64` runs computed once per row (see
//! [`crate::key`]) instead of per-probe `Vec<Value>` clones, and duplicate
//! elimination is sort-based over the same normalized keys, composing with
//! the sort the one-scan confidence operator requires anyway.
//!
//! # Morsel-driven parallelism (PR 4)
//!
//! Every operator of the relational hot path fans out on the
//! [`pdb_par::Pool`] it is handed. The contract is the one the whole
//! workspace obeys: **the output is bitwise-identical at every thread
//! count** — same values, same lineage, same row order — and identical to
//! the sequential (and retained row-at-a-time reference) implementation,
//! because every parallel operator reproduces the exact sequential emit
//! order:
//!
//! * **Scan / project** — the output row count is known up front, so the
//!   result is allocated exactly and contiguous row ranges are written in
//!   place by disjoint workers ([`Annotated::arena_segments_mut`] +
//!   [`pdb_par::Pool::map_slices2_mut`]).
//! * **Filter / fused scan-filter-project** — two phases: chunks first
//!   collect their surviving row indices (per-chunk scratch), the survivor
//!   counts are prefix-summed into per-chunk write offsets
//!   ([`pdb_par::exclusive_prefix_sum`]), and each chunk then materialises
//!   its survivors into its disjoint arena segment. Stitching is by chunk
//!   order — exactly input order — with no post-hoc copy.
//! * **Natural join** — a radix-partitioned hash join: build-side keys are
//!   encoded in parallel ([`crate::key::JoinKeys::build_side_with`]), rows
//!   are scattered into `2^bits` partitions by the high bits of their key
//!   hash, per-partition chained indexes (flat `heads` / `next` arrays
//!   bucketed by the hash's next high bits) are built in parallel, and probe
//!   morsels (contiguous left-row ranges) probe in parallel, each emitting
//!   its `(left row, right row)` matches in ascending order. Because every
//!   partition's chain replays build rows ascending and morsels stitch in
//!   left-row order, the final emit order is exactly the sequential nested
//!   order — `(left row, right row)` lexicographic — at every thread count.
//!
//! The row-at-a-time reference join the tests compare against lives in
//! [`crate::baseline`].
//!
//! # One governed spelling per operator
//!
//! Each hot-path operator has one real entry point, `op_ctx(input…, pool,
//! ctx)`, taking the worker pool and a [`pdb_govern::ExecContext`]; the bare
//! `op(input…)` is the same call on [`pdb_par::Pool::from_env`] (degraded to
//! sequential for small inputs) with [`ExecContext::unbounded`], kept for
//! tests, examples and doc-tests. Operators outside the governed hot path
//! (`filter`, `distinct`, `sort_dedup`) come as bare + `_with(pool)`.
//!
//! Under a context a cooperative cancellation / deadline
//! checkpoint runs at every morsel boundary (phase-1 survivor chunks and
//! phase-2 segment writes of the fused scan, probe morsels and stitch
//! segments of the join, write segments of the project — and every
//! [`SEQ_CHECK_EVERY`] rows on the sequential fallbacks), and the output
//! arenas are charged against the governor's memory budget before they are
//! allocated. Checkpoints only ever **stop** work — they never reorder it —
//! so a governed run that completes is bitwise-identical to an ungoverned
//! one; under [`ExecContext::unbounded`] every checkpoint is an inert null
//! check. A worker that panics
//! inside a governed operator is isolated by [`pdb_par::Pool::try_map`] and
//! friends and surfaces as [`pdb_govern::SproutError::WorkerPanic`]; the
//! partially-written output is discarded and the pool stays reusable.

use pdb_govern::{Counter, ExecContext, Stage};
use pdb_par::{even_ranges, Pool};
use pdb_query::Predicate;
use pdb_storage::{ProbTable, Schema, StorageBacking, Value, Variable};

use crate::annotated::Annotated;
use crate::error::{ExecError, ExecResult};
use crate::key::{JoinInterner, JoinKeys, CELL_WIDTH, UNJOINABLE};

/// Probe morsels per worker in the partitioned join: more morsels than
/// workers lets the pool's self-balancing cursor absorb skewed match counts.
const MORSELS_PER_WORKER: usize = 4;

/// Row period of the governor checkpoints on sequential fallback paths: the
/// parallel paths checkpoint once per morsel/segment, the sequential paths
/// every this many rows, so cancellation latency stays bounded at
/// `SPROUT_THREADS=1` too.
pub const SEQ_CHECK_EVERY: usize = 1024;

/// Bytes of a result's flat arenas: `rows` rows of `dw` data values and `lw`
/// lineage pairs. Charged against the governor's memory budget before
/// [`Annotated::with_placeholder_rows`] allocates them.
pub(crate) fn arena_bytes(rows: usize, dw: usize, lw: usize) -> usize {
    rows * (dw * std::mem::size_of::<Value>() + lw * std::mem::size_of::<(Variable, f64)>())
}

/// Bytes of a join's build side over `rows` rows of `key_cols` key columns:
/// per row the mixed key cells, the hash and the chain link, plus `buckets`
/// chain heads. Charged under [`Stage::Join`] before the keys are encoded.
fn build_side_bytes(rows: usize, key_cols: usize, buckets: usize) -> usize {
    let key_row = (key_cols * CELL_WIDTH + 1) * std::mem::size_of::<u64>();
    rows * (key_row + std::mem::size_of::<u32>()) + buckets * std::mem::size_of::<u32>()
}

/// The default pool of the plain operator entry points: `SPROUT_THREADS`
/// workers, degraded to sequential below the fan-out cutoff.
fn pool_for(rows: usize) -> Pool {
    Pool::from_env().for_items(rows)
}

/// Resolved column positions of a scan over a base table.
struct ScanLayout {
    keep_positions: Vec<usize>,
    pred_positions: Vec<usize>,
    schema: Schema,
}

fn scan_layout(
    table: &ProbTable,
    predicates: &[&Predicate],
    keep: &[String],
) -> ExecResult<ScanLayout> {
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
    Ok(ScanLayout {
        keep_positions,
        pred_positions,
        schema,
    })
}

/// Writes table row `r`, projected onto `positions`, at row slot `k` of a
/// disjoint arena segment pair.
#[inline]
fn write_table_row(
    table: &ProbTable,
    r: usize,
    positions: &[usize],
    k: usize,
    data_seg: &mut [Value],
    lineage_seg: &mut [(Variable, f64)],
) {
    let (row, var, prob) = table.triple(r);
    let base = k * positions.len();
    for (j, &p) in positions.iter().enumerate() {
        data_seg[base + j] = row.value(p).clone();
    }
    lineage_seg[k] = (var, prob);
}

/// Scans a tuple-independent table into an annotated result, keeping only the
/// attributes named in `attributes` (in that order). The lineage column is
/// labelled `relation`. Chunked across the default worker pool for large
/// tables; the result is identical at every thread count.
///
/// # Errors
/// Fails if an attribute is missing from the table's schema.
pub fn scan(table: &ProbTable, relation: &str, attributes: &[String]) -> ExecResult<Annotated> {
    scan_ctx(
        table,
        relation,
        attributes,
        &pool_for(table.len()),
        &ExecContext::unbounded(),
    )
}

/// [`scan`] on an explicit worker pool under a governor context: contiguous
/// row ranges are materialised in place by disjoint workers (the output size
/// is known up front, so there is no stitch copy), with checkpoints at every
/// write segment (`scan.write`, sequential fallback every
/// [`SEQ_CHECK_EVERY`] rows at `scan.morsel`) and memory accounting for the
/// output arenas.
///
/// # Errors
/// Fails if an attribute is missing from the table's schema, or with
/// [`ExecError::Governed`] when the governor interrupts the scan.
pub fn scan_ctx(
    table: &ProbTable,
    relation: &str,
    attributes: &[String],
    pool: &Pool,
    ctx: &ExecContext,
) -> ExecResult<Annotated> {
    let layout = scan_layout(table, &[], attributes)?;
    let rows = table.len();
    ctx.tally(Counter::RowsScanned, rows as u64);
    ctx.tally(Counter::RowsEmitted, rows as u64);
    ctx.account(Stage::Scan, arena_bytes(rows, layout.schema.len(), 1))?;
    if pool.threads() <= 1 || rows < 2 {
        let mut out = Annotated::with_row_capacity(layout.schema, vec![relation.to_string()], rows);
        for i in 0..rows {
            if i % SEQ_CHECK_EVERY == 0 {
                ctx.checkpoint(Stage::Scan, "scan.morsel", i / SEQ_CHECK_EVERY)?;
            }
            let (row, var, prob) = table.triple(i);
            out.push_projected_row(
                crate::annotated::RowRef {
                    data: row.values(),
                    lineage: &[(var, prob)],
                },
                &layout.keep_positions,
            );
        }
        return Ok(out);
    }
    let ranges = even_ranges(rows, pool.threads());
    let mut out = Annotated::with_placeholder_rows(layout.schema, vec![relation.to_string()], rows);
    let dw = out.data_width();
    let data_cuts: Vec<usize> = ranges.iter().map(|r| r.start * dw).collect();
    let lineage_cuts: Vec<usize> = ranges.iter().map(|r| r.start).collect();
    let (data, lineage) = out.arena_segments_mut();
    pool.try_map_slices2_mut(
        data,
        &data_cuts,
        lineage,
        &lineage_cuts,
        |ci, dseg, lseg| {
            ctx.checkpoint(Stage::Scan, "scan.write", ci)?;
            for (k, r) in ranges[ci].clone().enumerate() {
                write_table_row(table, r, &layout.keep_positions, k, dseg, lseg);
            }
            Ok(())
        },
    )
    .map_err(|f| ExecError::from_task_failure(Stage::Scan, f))?;
    Ok(out)
}

/// Fused scan → filter → project in one pass over the base table: evaluates
/// the constant predicates against the stored row and materialises only the
/// `keep` columns of the survivors, into a pre-sized output. Equivalent to
/// `project(filter*(scan(..)))` without the two intermediate relations —
/// the batch restructuring of the lazy-plan pipeline.
///
/// # Errors
/// Fails if a predicate or kept attribute is missing from the table schema.
pub fn scan_filter_project(
    table: &ProbTable,
    relation: &str,
    predicates: &[&Predicate],
    keep: &[String],
) -> ExecResult<Annotated> {
    scan_filter_project_ctx(
        table,
        relation,
        predicates,
        keep,
        &pool_for(table.len()),
        &ExecContext::unbounded(),
    )
}

/// [`scan_filter_project`] on an explicit worker pool under a governor
/// context: chunks first collect their surviving row indices, the counts are
/// prefix-summed into write offsets, and every chunk materialises its
/// survivors into its disjoint arena segment — input order, no post-hoc
/// copy. Checkpoints at every phase-1 survivor chunk (`scan.morsel`) and
/// phase-2 write segment (`scan.write`), sequential fallback every
/// [`SEQ_CHECK_EVERY`] rows, and memory accounting for the survivor arenas.
///
/// # Errors
/// Fails if a predicate or kept attribute is missing from the table schema,
/// or with [`ExecError::Governed`] when the governor interrupts the scan.
pub fn scan_filter_project_ctx(
    table: &ProbTable,
    relation: &str,
    predicates: &[&Predicate],
    keep: &[String],
    pool: &Pool,
    ctx: &ExecContext,
) -> ExecResult<Annotated> {
    let layout = scan_layout(table, predicates, keep)?;
    let rows = table.len();
    ctx.tally(Counter::RowsScanned, rows as u64);
    let survives = |i: usize| {
        let (row, _, _) = table.triple(i);
        predicates
            .iter()
            .zip(&layout.pred_positions)
            .all(|(pred, &pos)| pred.matches(row.value(pos)))
    };
    if pool.threads() <= 1 || rows < 2 {
        // One pass cannot know the survivor count, so the arenas are
        // reserved — and charged — for every scanned row.
        ctx.account(Stage::Scan, arena_bytes(rows, layout.schema.len(), 1))?;
        let mut out = Annotated::with_row_capacity(layout.schema, vec![relation.to_string()], rows);
        for i in 0..rows {
            if i % SEQ_CHECK_EVERY == 0 {
                ctx.checkpoint(Stage::Scan, "scan.morsel", i / SEQ_CHECK_EVERY)?;
            }
            if !survives(i) {
                continue;
            }
            let (row, var, prob) = table.triple(i);
            out.push_projected_row(
                crate::annotated::RowRef {
                    data: row.values(),
                    lineage: &[(var, prob)],
                },
                &layout.keep_positions,
            );
        }
        ctx.tally(Counter::RowsEmitted, out.len() as u64);
        return Ok(out);
    }
    let ranges = even_ranges(rows, pool.threads());
    // Phase 1: per-chunk survivor lists (the only per-chunk scratch).
    let survivors: Vec<Vec<u32>> = pool
        .try_map_ranges(&ranges, |ci, range| {
            ctx.checkpoint(Stage::Scan, "scan.morsel", ci)?;
            Ok(range.filter(|&i| survives(i)).map(|i| i as u32).collect())
        })
        .map_err(|f| ExecError::from_task_failure(Stage::Scan, f))?;
    // Phase 2: exact-size output, disjoint in-place segment writes.
    let (offsets, total) = pdb_par::exclusive_prefix_sum(survivors.iter().map(|s| s.len()));
    ctx.account(Stage::Scan, arena_bytes(total, layout.schema.len(), 1))?;
    let mut out =
        Annotated::with_placeholder_rows(layout.schema, vec![relation.to_string()], total);
    let dw = out.data_width();
    let data_cuts: Vec<usize> = offsets.iter().map(|o| o * dw).collect();
    let lineage_cuts: Vec<usize> = offsets.clone();
    let (data, lineage) = out.arena_segments_mut();
    pool.try_map_slices2_mut(
        data,
        &data_cuts,
        lineage,
        &lineage_cuts,
        |ci, dseg, lseg| {
            ctx.checkpoint(Stage::Scan, "scan.write", ci)?;
            for (k, &r) in survivors[ci].iter().enumerate() {
                write_table_row(table, r as usize, &layout.keep_positions, k, dseg, lseg);
            }
            Ok(())
        },
    )
    .map_err(|f| ExecError::from_task_failure(Stage::Scan, f))?;
    ctx.tally(Counter::RowsEmitted, total as u64);
    Ok(out)
}

/// [`scan_ctx`] over either storage representation: row backings run the
/// row-at-a-time scan, columnar backings decode through
/// [`crate::columnar::scan_columnar_ctx`]. The output is bitwise-identical
/// across backings (values, lineage, row order).
///
/// # Errors
/// Fails if an attribute is missing from the table's schema, or with
/// [`ExecError::Governed`] when the governor interrupts the scan.
pub fn scan_backing_ctx(
    backing: &StorageBacking,
    relation: &str,
    attributes: &[String],
    pool: &Pool,
    ctx: &ExecContext,
) -> ExecResult<Annotated> {
    match backing {
        StorageBacking::Row(t) => scan_ctx(t, relation, attributes, pool, ctx),
        StorageBacking::Columnar(t) => {
            crate::columnar::scan_columnar_ctx(t, relation, attributes, pool, ctx)
        }
    }
}

/// [`scan_filter_project_ctx`] over either storage representation: columnar
/// backings take the vectorized fast path — zone-map chunk skipping plus
/// typed per-column predicate loops — and produce the **identical** result.
/// Both backings run their checkpoints (`scan.morsel`/`scan.write` on row
/// backings, `scan.chunk`/`scan.gather` on columnar backings).
///
/// # Errors
/// Fails if a predicate or kept attribute is missing from the table schema,
/// or with [`ExecError::Governed`] when the governor interrupts the scan.
pub fn scan_filter_project_backing_ctx(
    backing: &StorageBacking,
    relation: &str,
    predicates: &[&Predicate],
    keep: &[String],
    pool: &Pool,
    ctx: &ExecContext,
) -> ExecResult<Annotated> {
    match backing {
        StorageBacking::Row(t) => scan_filter_project_ctx(t, relation, predicates, keep, pool, ctx),
        StorageBacking::Columnar(t) => crate::columnar::scan_filter_project_columnar_ctx(
            t, relation, predicates, keep, pool, ctx,
        ),
    }
}

/// Filters rows by a constant predicate.
///
/// # Errors
/// Fails if the predicate's attribute is not a data column of the input.
pub fn filter(input: &Annotated, predicate: &Predicate) -> ExecResult<Annotated> {
    filter_with(input, predicate, &pool_for(input.len()))
}

/// [`filter`] with an explicit worker pool (two-phase survivor collection,
/// like [`scan_filter_project_ctx`]).
///
/// # Errors
/// Fails if the predicate's attribute is not a data column of the input.
pub fn filter_with(input: &Annotated, predicate: &Predicate, pool: &Pool) -> ExecResult<Annotated> {
    let idx = input.column_index(&predicate.attribute)?;
    let rows = input.len();
    if pool.threads() <= 1 || rows < 2 {
        let mut out =
            Annotated::with_row_capacity(input.schema().clone(), input.relations().to_vec(), rows);
        for row in input.iter() {
            if predicate.matches(row.value(idx)) {
                out.push_row(row.data, row.lineage);
            }
        }
        return Ok(out);
    }
    let ranges = even_ranges(rows, pool.threads());
    let survivors: Vec<Vec<u32>> = pool.map_ranges(&ranges, |range| {
        range
            .filter(|&i| predicate.matches(input.row(i).value(idx)))
            .map(|i| i as u32)
            .collect()
    });
    let (offsets, total) = pdb_par::exclusive_prefix_sum(survivors.iter().map(|s| s.len()));
    let mut out =
        Annotated::with_placeholder_rows(input.schema().clone(), input.relations().to_vec(), total);
    let dw = out.data_width();
    let lw = out.lineage_width();
    let data_cuts: Vec<usize> = offsets.iter().map(|o| o * dw).collect();
    let lineage_cuts: Vec<usize> = offsets.iter().map(|o| o * lw).collect();
    let (data, lineage) = out.arena_segments_mut();
    pool.map_slices2_mut(
        data,
        &data_cuts,
        lineage,
        &lineage_cuts,
        |ci, dseg, lseg| {
            for (k, &r) in survivors[ci].iter().enumerate() {
                let row = input.row(r as usize);
                dseg[k * dw..(k + 1) * dw].clone_from_slice(row.data);
                lseg[k * lw..(k + 1) * lw].copy_from_slice(row.lineage);
            }
        },
    );
    Ok(out)
}

/// Projects the data columns onto `attributes` (in order), keeping all
/// lineage columns. Duplicates are *not* eliminated — that is the confidence
/// operator's job.
///
/// # Errors
/// Fails on unknown columns.
pub fn project(input: &Annotated, attributes: &[String]) -> ExecResult<Annotated> {
    project_ctx(
        input,
        attributes,
        &pool_for(input.len()),
        &ExecContext::unbounded(),
    )
}

/// [`project`] on an explicit worker pool under a governor context: the
/// output size equals the input size, so contiguous row ranges are written
/// in place by disjoint workers. Checkpoints at every write segment
/// (`project.write`, sequential fallback every [`SEQ_CHECK_EVERY`] rows) and
/// memory accounting for the output arenas.
///
/// # Errors
/// Fails on unknown columns, or with [`ExecError::Governed`] when the
/// governor interrupts the projection.
pub fn project_ctx(
    input: &Annotated,
    attributes: &[String],
    pool: &Pool,
    ctx: &ExecContext,
) -> ExecResult<Annotated> {
    let positions: Vec<usize> = attributes
        .iter()
        .map(|a| input.column_index(a))
        .collect::<ExecResult<_>>()?;
    let schema = input
        .schema()
        .project(&attributes.iter().map(|s| s.as_str()).collect::<Vec<_>>())?;
    let rows = input.len();
    ctx.account(
        Stage::Project,
        arena_bytes(rows, schema.len(), input.lineage_width()),
    )?;
    if pool.threads() <= 1 || rows < 2 {
        let mut out = Annotated::with_row_capacity(schema, input.relations().to_vec(), rows);
        for (i, row) in input.iter().enumerate() {
            if i % SEQ_CHECK_EVERY == 0 {
                ctx.checkpoint(Stage::Project, "project.write", i / SEQ_CHECK_EVERY)?;
            }
            out.push_projected_row(row, &positions);
        }
        return Ok(out);
    }
    let ranges = even_ranges(rows, pool.threads());
    let mut out = Annotated::with_placeholder_rows(schema, input.relations().to_vec(), rows);
    let dw = out.data_width();
    let lw = out.lineage_width();
    let data_cuts: Vec<usize> = ranges.iter().map(|r| r.start * dw).collect();
    let lineage_cuts: Vec<usize> = ranges.iter().map(|r| r.start * lw).collect();
    let (data, lineage) = out.arena_segments_mut();
    pool.try_map_slices2_mut(
        data,
        &data_cuts,
        lineage,
        &lineage_cuts,
        |ci, dseg, lseg| {
            ctx.checkpoint(Stage::Project, "project.write", ci)?;
            for (k, r) in ranges[ci].clone().enumerate() {
                let row = input.row(r);
                for (j, &p) in positions.iter().enumerate() {
                    dseg[k * dw + j] = row.data[p].clone();
                }
                lseg[k * lw..(k + 1) * lw].copy_from_slice(row.lineage);
            }
            Ok(())
        },
    )
    .map_err(|f| ExecError::from_task_failure(Stage::Project, f))?;
    Ok(out)
}

impl Annotated {
    /// [`project_ctx`] of a relation the caller owns — what a plan does
    /// between its own operators. When `attributes` are the schema's columns
    /// in order the projection changes nothing and the relation is handed
    /// back as it is: no copy, no charge against the memory budget, no
    /// `project.write` checkpoint. Any other column list is [`project_ctx`].
    ///
    /// # Errors
    /// Those of [`project_ctx`].
    pub fn into_projection_ctx(
        self,
        attributes: &[String],
        pool: &Pool,
        ctx: &ExecContext,
    ) -> ExecResult<Annotated> {
        let columns = self.schema().columns();
        if columns.iter().map(|c| &c.name).eq(attributes) {
            return Ok(self);
        }
        project_ctx(&self, attributes, pool, ctx)
    }
}

/// Resolves the shared/output columns of a natural join. Shared columns are
/// the names occurring on both sides; the output schema is the left schema
/// followed by the right-only columns.
pub(crate) struct JoinLayout {
    pub left_key_idx: Vec<usize>,
    pub right_key_idx: Vec<usize>,
    pub right_only_idx: Vec<usize>,
    pub schema: Schema,
    pub relations: Vec<String>,
}

pub(crate) fn join_layout(left: &Annotated, right: &Annotated) -> ExecResult<JoinLayout> {
    for r in right.relations() {
        if left.relations().contains(r) {
            return Err(ExecError::DuplicateRelation(r.clone()));
        }
    }
    let left_names = left.schema().names();
    let right_names = right.schema().names();
    let shared: Vec<&str> = left_names
        .iter()
        .copied()
        .filter(|n| right_names.contains(n))
        .collect();
    let left_key_idx: Vec<usize> = shared
        .iter()
        .map(|n| left.column_index(n))
        .collect::<ExecResult<_>>()?;
    let right_key_idx: Vec<usize> = shared
        .iter()
        .map(|n| right.column_index(n))
        .collect::<ExecResult<_>>()?;
    let right_only_idx: Vec<usize> = right_names
        .iter()
        .enumerate()
        .filter(|(_, n)| !shared.contains(n))
        .map(|(i, _)| i)
        .collect();

    let mut schema_cols = left.schema().columns().to_vec();
    for &i in &right_only_idx {
        schema_cols.push(right.schema().column(i).clone());
    }
    let schema = Schema::new(schema_cols)?;
    let mut relations = left.relations().to_vec();
    relations.extend(right.relations().iter().cloned());
    Ok(JoinLayout {
        left_key_idx,
        right_key_idx,
        right_only_idx,
        schema,
        relations,
    })
}

/// Natural hash join on all shared data column names. The output schema is
/// the left schema followed by the right-only columns; the lineage columns of
/// both inputs are concatenated.
///
/// The join key of every build-side row is normalized once into a flat `u64`
/// run with a precomputed hash; probing encodes the probe key into a reused
/// scratch buffer and compares machine words. The inner loop appends to the
/// output arenas by slice-append: **no `Tuple` or `Vec<Value>` is allocated
/// per probed row** (verified by `tests/alloc_count.rs`). With a
/// multi-threaded pool the join is radix-partitioned (see [`natural_join_ctx`]);
/// the emit order — `(left row, right row)` lexicographic — is identical
/// either way.
///
/// # Errors
/// Fails if the inputs share a lineage relation (self-join).
pub fn natural_join(left: &Annotated, right: &Annotated) -> ExecResult<Annotated> {
    natural_join_ctx(
        left,
        right,
        &pool_for(left.len().max(right.len())),
        &ExecContext::unbounded(),
    )
}

/// [`natural_join`] on an explicit worker pool under a governor context: a
/// **radix-partitioned parallel hash join**. Build-side keys are encoded in parallel, scattered
/// into partitions by the high bits of their hash, and indexed per partition
/// in parallel; probe morsels (contiguous left-row ranges) then probe in
/// parallel and their matches are materialised into disjoint output
/// segments in morsel order. Every partition chain replays build rows in
/// ascending order, so the output is the exact sequential nested emit —
/// `(left row, right row)` lexicographic — bitwise-identical at every
/// thread count and to the row-at-a-time reference join
/// ([`crate::baseline::natural_join_rowwise`]).
///
/// Checkpoints at every probe morsel (`join.probe`) and stitch segment
/// (`join.write`), sequential fallback every [`SEQ_CHECK_EVERY`] probe rows,
/// and memory accounting for the build side (key words, hashes, chain
/// index), the radix scatter buffer and the output arenas.
///
/// # Errors
/// Fails if the inputs share a lineage relation (self-join), or with
/// [`ExecError::Governed`] when the governor interrupts the join.
pub fn natural_join_ctx(
    left: &Annotated,
    right: &Annotated,
    pool: &Pool,
    ctx: &ExecContext,
) -> ExecResult<Annotated> {
    let layout = join_layout(left, right)?;
    let out = if pool.threads() <= 1 || left.is_empty() || right.is_empty() {
        natural_join_sequential(left, right, layout, ctx)?
    } else {
        natural_join_partitioned(left, right, layout, pool, ctx)?
    };
    ctx.tally(Counter::JoinProbes, left.len() as u64);
    ctx.tally(Counter::JoinMatches, out.len() as u64);
    Ok(out)
}

/// Cartesian product (the natural join of inputs sharing no column is exactly
/// this, but an explicit function keeps call sites readable).
///
/// # Errors
/// Fails if the inputs share a lineage relation.
pub fn cross_product(left: &Annotated, right: &Annotated) -> ExecResult<Annotated> {
    natural_join(left, right)
}

const JOIN_NIL: u32 = u32::MAX;

/// A chained hash index over the entries `0..n` of a join's build side, in
/// two flat arrays: `heads[bucket]` is the lowest entry whose hash falls in
/// the bucket and `next[entry]` the next higher one ([`JOIN_NIL`] ends the
/// chain), so every chain replays its entries ascending. A bucket is a run
/// of high bits of the key hash — already a mix, not rehashed — and may
/// chain entries of different hashes: a probe compares the stored hash
/// before the key words.
struct ChainIndex {
    heads: Vec<u32>,
    next: Vec<u32>,
    /// High hash bits spent before the bucket bits (the radix partition).
    skip_bits: u32,
    /// `64 − log2(heads.len())`.
    bucket_shift: u32,
}

impl ChainIndex {
    /// Indexes entries `0..entries`, skipping those `hash_of` reports
    /// [`UNJOINABLE`]. Entries are linked in reverse so chains ascend.
    fn build(entries: usize, skip_bits: u32, hash_of: impl Fn(usize) -> u64) -> ChainIndex {
        let buckets = ChainIndex::buckets(entries);
        let mut index = ChainIndex {
            heads: vec![JOIN_NIL; buckets],
            next: vec![JOIN_NIL; entries],
            skip_bits,
            bucket_shift: u64::BITS - buckets.trailing_zeros(),
        };
        for entry in (0..entries).rev() {
            let h = hash_of(entry);
            if h != UNJOINABLE {
                let bucket = index.bucket(h);
                index.next[entry] = index.heads[bucket];
                index.heads[bucket] = entry as u32;
            }
        }
        index
    }

    /// Chain heads of an index over `entries` entries.
    fn buckets(entries: usize) -> usize {
        entries.next_power_of_two().max(2)
    }

    #[inline]
    fn bucket(&self, hash: u64) -> usize {
        ((hash << self.skip_bits) >> self.bucket_shift) as usize
    }

    /// The first entry of the chain `hash` falls in, or [`JOIN_NIL`].
    #[inline]
    fn first(&self, hash: u64) -> u32 {
        self.heads[self.bucket(hash)]
    }
}

/// The single-index sequential join (the PR-1 hot path), used by sequential
/// pools and empty inputs.
fn natural_join_sequential(
    left: &Annotated,
    right: &Annotated,
    layout: JoinLayout,
    ctx: &ExecContext,
) -> ExecResult<Annotated> {
    let key_cols = layout.right_key_idx.len();
    // The match count is unknown up front: the initial reservation is
    // charged before it is allocated, and rows emitted beyond it are charged
    // at every checkpoint of the probe loop.
    let row_bytes = arena_bytes(1, layout.schema.len(), layout.relations.len());
    let mut charged_rows = left.len().max(right.len());
    ctx.account(Stage::Join, charged_rows * row_bytes)?;
    let mut out = Annotated::with_row_capacity(layout.schema, layout.relations, charged_rows);

    // Build side: normalize all right-side keys once and index them with
    // a chained hash table over flat arrays, so building allocates no
    // per-key buckets.
    let buckets = ChainIndex::buckets(right.len());
    ctx.account(
        Stage::Join,
        build_side_bytes(right.len(), key_cols, buckets),
    )?;
    let mut interner = JoinInterner::new();
    let keys = JoinKeys::build_side(right.len(), key_cols, &mut interner, |r, c| {
        &right.row(r).data[layout.right_key_idx[c]]
    });
    let index = ChainIndex::build(right.len(), 0, |r| keys.hash(r));

    // Probe side: encode each left key into a reused scratch buffer.
    let mut scratch: Vec<u64> = Vec::with_capacity(key_cols * CELL_WIDTH);
    for li in 0..left.len() {
        if li % SEQ_CHECK_EVERY == 0 {
            ctx.checkpoint(Stage::Join, "join.probe", li / SEQ_CHECK_EVERY)?;
            charge_growth(ctx, out.len(), &mut charged_rows, row_bytes)?;
        }
        let lrow = left.row(li);
        let Some(h) = JoinKeys::probe_row(&interner, key_cols, &mut scratch, |c| {
            &lrow.data[layout.left_key_idx[c]]
        }) else {
            continue;
        };
        let mut ri = index.first(h);
        while ri != JOIN_NIL {
            let r = ri as usize;
            if keys.hash(r) == h && keys.row(r) == scratch.as_slice() {
                out.push_join_row(lrow, right.row(r), &layout.right_only_idx);
            }
            ri = index.next[r];
        }
    }
    charge_growth(ctx, out.len(), &mut charged_rows, row_bytes)?;
    Ok(out)
}

/// Charges the join output rows emitted beyond the `charged_rows` already
/// accounted for.
fn charge_growth(
    ctx: &ExecContext,
    rows: usize,
    charged_rows: &mut usize,
    row_bytes: usize,
) -> ExecResult<()> {
    if rows > *charged_rows {
        ctx.account(Stage::Join, (rows - *charged_rows) * row_bytes)?;
        *charged_rows = rows;
    }
    Ok(())
}

/// One radix partition of the build side: its rows (ascending), plus a
/// chained hash index over local positions whose chains replay ascending.
struct PartIndex {
    rows: Vec<u32>,
    index: ChainIndex,
}

/// Radix partition count and bit width for a parallel join on `threads`
/// workers: a couple of partitions per worker so per-partition index builds
/// balance, capped to keep per-chunk scatter lists small.
fn radix_partitions(threads: usize) -> (usize, u32) {
    let parts = (threads * 2).next_power_of_two().clamp(2, 64);
    (parts, parts.trailing_zeros())
}

/// The partition of a key hash: its `bits` high bits (the FxHash-style mix
/// concentrates entropy in the high bits of the final multiply).
#[inline]
fn radix_of(hash: u64, bits: u32) -> usize {
    (hash >> (64 - bits)) as usize
}

fn natural_join_partitioned(
    left: &Annotated,
    right: &Annotated,
    layout: JoinLayout,
    pool: &Pool,
    ctx: &ExecContext,
) -> ExecResult<Annotated> {
    let JoinLayout {
        left_key_idx,
        right_key_idx,
        right_only_idx,
        schema,
        relations,
    } = layout;
    let key_cols = right_key_idx.len();

    // Build-side keys, encoded in parallel; the interner is shared with the
    // probe side (lookup only from here on). The partitions' indexes hold
    // one chain link per row and, each rounding its share of the rows up to
    // a power of two, at most `2 · (rows + parts)` heads between them.
    let (parts, bits) = radix_partitions(pool.threads());
    ctx.account(
        Stage::Join,
        build_side_bytes(right.len(), key_cols, 2 * (right.len() + parts)),
    )?;
    let mut interner = JoinInterner::new();
    let keys = JoinKeys::build_side_with(
        right.len(),
        key_cols,
        &mut interner,
        |r, c| &right.row(r).data[right_key_idx[c]],
        pool,
    );

    // Scatter, as a counting sort over per-chunk histograms: chunks first
    // count their joinable rows per partition, the counts prefix-sum into
    // exact write offsets inside ONE flat buffer (chunk-major, grouped by
    // partition within each chunk region), and each chunk then scatters its
    // rows in place — no per-(chunk, partition) list allocations, bounded
    // by `tests/alloc_count.rs`. Rows stay ascending within every chunk's
    // partition group because the scatter walks the chunk in row order.
    let scatter_ranges = even_ranges(right.len(), pool.threads());
    let histograms: Vec<Vec<u32>> = pool.map_ranges(&scatter_ranges, |range| {
        let mut hist = vec![0u32; parts];
        for r in range {
            let h = keys.hash(r);
            if h != UNJOINABLE {
                hist[radix_of(h, bits)] += 1;
            }
        }
        hist
    });
    let (chunk_offsets, total_joinable) = pdb_par::exclusive_prefix_sum(
        histograms
            .iter()
            .map(|h| h.iter().map(|&c| c as usize).sum()),
    );
    ctx.account(Stage::Join, total_joinable * std::mem::size_of::<u32>())?;
    let mut scattered = vec![0u32; total_joinable];
    pool.map_slices_mut(&mut scattered, &chunk_offsets, |ci, seg| {
        // Exclusive prefix over this chunk's histogram = each partition's
        // write cursor within the chunk's region.
        let mut cursors = vec![0u32; parts];
        let mut acc = 0u32;
        for (p, cursor) in cursors.iter_mut().enumerate() {
            *cursor = acc;
            acc += histograms[ci][p];
        }
        for r in scatter_ranges[ci].clone() {
            let h = keys.hash(r);
            if h != UNJOINABLE {
                let p = radix_of(h, bits);
                seg[cursors[p] as usize] = r as u32;
                cursors[p] += 1;
            }
        }
    });

    // Per-partition chained indexes, built in parallel: partition p's rows
    // are its groups of every chunk region, in chunk order — exactly the
    // concatenation the per-chunk lists used to produce. Chains are linked
    // in reverse so they replay local positions — and therefore global rows
    // — ascending, exactly like the sequential single-index build.
    let part_ids: Vec<usize> = (0..parts).collect();
    let indexes: Vec<PartIndex> = pool.map(&part_ids, |&p| {
        let size: usize = histograms.iter().map(|h| h[p] as usize).sum();
        let mut rows: Vec<u32> = Vec::with_capacity(size);
        for (ci, hist) in histograms.iter().enumerate() {
            let start = chunk_offsets[ci] + hist[..p].iter().map(|&c| c as usize).sum::<usize>();
            rows.extend_from_slice(&scattered[start..start + hist[p] as usize]);
        }
        let index = ChainIndex::build(rows.len(), bits, |local| keys.hash(rows[local] as usize));
        PartIndex { rows, index }
    });

    // Probe: morsels of contiguous left rows, each collecting its
    // `(left row, right row)` matches — ascending within a morsel because
    // left rows are walked in order and chains replay ascending.
    let morsels = even_ranges(left.len(), pool.threads() * MORSELS_PER_WORKER);
    let matches: Vec<Vec<(u32, u32)>> = pool
        .try_map_ranges(&morsels, |mi, range| {
            ctx.checkpoint(Stage::Join, "join.probe", mi)?;
            let mut scratch: Vec<u64> = Vec::with_capacity(key_cols * CELL_WIDTH);
            let mut out: Vec<(u32, u32)> = Vec::new();
            for li in range {
                let lrow = left.row(li);
                let Some(h) = JoinKeys::probe_row(&interner, key_cols, &mut scratch, |c| {
                    &lrow.data[left_key_idx[c]]
                }) else {
                    continue;
                };
                let part = &indexes[radix_of(h, bits)];
                let mut local = part.index.first(h);
                while local != JOIN_NIL {
                    let l = local as usize;
                    let r = part.rows[l] as usize;
                    if keys.hash(r) == h && keys.row(r) == scratch.as_slice() {
                        out.push((li as u32, r as u32));
                    }
                    local = part.index.next[l];
                }
            }
            Ok(out)
        })
        .map_err(|f| ExecError::from_task_failure(Stage::Join, f))?;

    // Stitch: morsel match counts prefix-sum into exact write offsets; each
    // morsel materialises its matches into its disjoint arena segment.
    let (offsets, total) = pdb_par::exclusive_prefix_sum(matches.iter().map(|m| m.len()));
    ctx.account(
        Stage::Join,
        arena_bytes(
            total,
            schema.len(),
            left.lineage_width() + right.lineage_width(),
        ),
    )?;
    let mut out = Annotated::with_placeholder_rows(schema, relations, total);
    let dw = out.data_width();
    let lw = out.lineage_width();
    let left_dw = left.data_width();
    let left_lw = left.lineage_width();
    let data_cuts: Vec<usize> = offsets.iter().map(|o| o * dw).collect();
    let lineage_cuts: Vec<usize> = offsets.iter().map(|o| o * lw).collect();
    let (data, lineage) = out.arena_segments_mut();
    pool.try_map_slices2_mut(
        data,
        &data_cuts,
        lineage,
        &lineage_cuts,
        |mi, dseg, lseg| {
            ctx.checkpoint(Stage::Join, "join.write", mi)?;
            for (k, &(li, ri)) in matches[mi].iter().enumerate() {
                let lrow = left.row(li as usize);
                let rrow = right.row(ri as usize);
                let dbase = k * dw;
                dseg[dbase..dbase + left_dw].clone_from_slice(lrow.data);
                for (j, &i) in right_only_idx.iter().enumerate() {
                    dseg[dbase + left_dw + j] = rrow.data[i].clone();
                }
                let lbase = k * lw;
                lseg[lbase..lbase + left_lw].copy_from_slice(lrow.lineage);
                lseg[lbase + left_lw..lbase + lw].copy_from_slice(rrow.lineage);
            }
            Ok(())
        },
    )
    .map_err(|f| ExecError::from_task_failure(Stage::Join, f))?;
    Ok(out)
}

/// Eliminates duplicate data tuples, keeping the first input row of each
/// group (lineage of the survivors is arbitrary). Used to produce the plain
/// answer relation, e.g. for the "time to compute the tuples" measurements
/// of Fig. 10, and by the deterministic (non-probabilistic) baseline.
///
/// Since PR 1 this is **sort-based**: rows are ordered by their normalized
/// data keys and runs of equal keys collapse to their first (in input order)
/// row. The output is therefore sorted by data tuple, the same order the
/// confidence operator's sort produces on the data columns. Key build,
/// permutation sort **and** the collapse scan all fan out on the default
/// pool (the collapse is chunked boundary detection with stitched chunk
/// edges; see `collapse_sorted`); the result is bitwise-identical at
/// every thread count.
pub fn distinct(input: &Annotated) -> Annotated {
    distinct_with(input, &pool_for(input.len()))
}

/// [`distinct`] with an explicit worker pool.
pub fn distinct_with(input: &Annotated, pool: &Pool) -> Annotated {
    let all_cols: Vec<usize> = (0..input.data_width()).collect();
    let keys = input.sort_keys_with(&all_cols, &[], pool);
    let order = keys.sorted_permutation_with(input.len(), pool);
    collapse_sorted(input, &order, pool, |prev, row| {
        keys.row(prev) == keys.row(row)
    })
}

/// Collapses runs of duplicate rows in an already-sorted permutation:
/// row `order[k]` survives iff `k == 0` or `is_duplicate(order[k-1],
/// order[k])` is false, and survivors are emitted in permutation order.
///
/// This replays the sequential collapse exactly **provided `is_duplicate`
/// is an equivalence on each equal-key run** (duplicate rows are *fully*
/// equal to the survivor they collapse into, so comparing against the
/// immediately preceding row is the same as comparing against the last
/// survivor — the form the sequential scan used). Under that contract the
/// scan is chunkable: each chunk detects its survivors independently, with
/// its leading edge stitched against the last row of the previous chunk.
///
/// Two phases like every parallel operator here: per-chunk survivor lists,
/// prefix-summed write offsets, disjoint in-place segment writes.
fn collapse_sorted(
    input: &Annotated,
    order: &[u32],
    pool: &Pool,
    is_duplicate: impl Fn(usize, usize) -> bool + Sync,
) -> Annotated {
    let positions = even_ranges(order.len(), pool.threads());
    // Phase 1: chunked boundary detection. Position k's predecessor is
    // order[k - 1] even across chunk edges (read-only, so chunks stitch
    // without synchronisation).
    let survivors: Vec<Vec<u32>> = pool.map_ranges(&positions, |range| {
        range
            .filter(|&k| k == 0 || !is_duplicate(order[k - 1] as usize, order[k] as usize))
            .map(|k| order[k])
            .collect()
    });
    // Phase 2: exact-size output, disjoint in-place segment writes.
    let (offsets, total) = pdb_par::exclusive_prefix_sum(survivors.iter().map(|s| s.len()));
    let mut out =
        Annotated::with_placeholder_rows(input.schema().clone(), input.relations().to_vec(), total);
    let dw = out.data_width();
    let lw = out.lineage_width();
    let data_cuts: Vec<usize> = offsets.iter().map(|o| o * dw).collect();
    let lineage_cuts: Vec<usize> = offsets.iter().map(|o| o * lw).collect();
    let (data, lineage) = out.arena_segments_mut();
    pool.map_slices2_mut(
        data,
        &data_cuts,
        lineage,
        &lineage_cuts,
        |ci, dseg, lseg| {
            for (k, &r) in survivors[ci].iter().enumerate() {
                let row = input.row(r as usize);
                dseg[k * dw..(k + 1) * dw].clone_from_slice(row.data);
                lseg[k * lw..(k + 1) * lw].copy_from_slice(row.lineage);
            }
        },
    );
    out
}

/// Sorts `input` into the confidence order (`data_columns`, then the
/// variables of `relation_order`) **and** drops exact duplicates — rows
/// equal on every data column and every lineage pair. Exact duplicates are
/// duplicate derivations the one-scan operator would skip anyway
/// (Fig. 8 treats identical lineage as "nothing to add"), so removing them
/// here preserves all confidences while shrinking the scan; the surviving
/// rows keep the exact preorder sort contract the operator requires
/// (verified by a regression test in `pdb-conf`).
///
/// # Errors
/// Fails on unknown columns or relations.
pub fn sort_dedup(
    input: &Annotated,
    data_columns: &[String],
    relation_order: &[String],
) -> ExecResult<Annotated> {
    sort_dedup_with(input, data_columns, relation_order, &pool_for(input.len()))
}

/// [`sort_dedup`] with an explicit worker pool. Key build, permutation sort
/// and the collapse scan all fan out; the result is bitwise-identical at
/// every thread count.
///
/// The sequential collapse compared each row against the *last survivor*;
/// the chunked collapse compares against the *immediately preceding* row.
/// The two agree because "exact duplicate" — equal sort key, equal data,
/// equal lineage variables — is transitive: a dropped row is fully equal to
/// the survivor it collapsed into, so comparing against it is comparing
/// against the survivor.
///
/// # Errors
/// Fails on unknown columns or relations.
pub fn sort_dedup_with(
    input: &Annotated,
    data_columns: &[String],
    relation_order: &[String],
    pool: &Pool,
) -> ExecResult<Annotated> {
    let col_idx: Vec<usize> = data_columns
        .iter()
        .map(|c| input.column_index(c))
        .collect::<ExecResult<_>>()?;
    let rel_idx: Vec<usize> = relation_order
        .iter()
        .map(|r| input.relation_index(r))
        .collect::<ExecResult<_>>()?;
    // One key build, one permutation sort, one chunked collapse — the input
    // is never cloned or permuted in place.
    let keys = input.sort_keys_with(&col_idx, &rel_idx, pool);
    let order = keys.sorted_permutation_with(input.len(), pool);
    Ok(collapse_sorted(input, &order, pool, |prev, row| {
        // Candidate duplicates share a sort key; confirm on the full row
        // (all data columns and all lineage variables, not just the sorted
        // ones) before dropping.
        keys.row(prev) == keys.row(row) && {
            let prow = input.row(prev);
            let rrow = input.row(row);
            prow.data == rrow.data
                && prow
                    .lineage
                    .iter()
                    .zip(rrow.lineage.iter())
                    .all(|(a, b)| a.0 == b.0)
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotated::AnnotatedRow;
    use crate::fixtures::{fig1_cust, fig1_item, fig1_ord};
    use pdb_query::CompareOp;
    use pdb_storage::{tuple, DataType, Tuple, Value, Variable};

    fn s(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn scan_projects_and_annotates() {
        let cust = fig1_cust();
        let a = scan(&cust, "Cust", &s(&["ckey", "cname"])).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.relations(), &["Cust".to_string()]);
        assert_eq!(a.row(0).lineage, &[(Variable(0), 0.1)]);
        // Scanning a missing column fails.
        assert!(scan(&cust, "Cust", &s(&["missing"])).is_err());
    }

    #[test]
    fn filter_applies_predicates() {
        let cust = fig1_cust();
        let a = scan(&cust, "Cust", &s(&["ckey", "cname"])).unwrap();
        let joe = filter(&a, &Predicate::new("Cust", "cname", CompareOp::Eq, "Joe")).unwrap();
        assert_eq!(joe.len(), 1);
        assert_eq!(joe.row(0).data_tuple(), tuple![1i64, "Joe"]);
        let none = filter(&a, &Predicate::new("Cust", "ckey", CompareOp::Gt, 100i64)).unwrap();
        assert!(none.is_empty());
        assert!(filter(&a, &Predicate::new("Cust", "zzz", CompareOp::Eq, 1i64)).is_err());
    }

    #[test]
    fn natural_join_matches_on_shared_columns() {
        let cust = scan(&fig1_cust(), "Cust", &s(&["ckey", "cname"])).unwrap();
        let ord = scan(&fig1_ord(), "Ord", &s(&["okey", "ckey", "odate"])).unwrap();
        let joined = natural_join(&cust, &ord).unwrap();
        // Every order has a matching customer, so all 6 orders survive.
        assert_eq!(joined.len(), 6);
        assert_eq!(
            joined.schema().names(),
            vec!["ckey", "cname", "okey", "odate"]
        );
        assert_eq!(joined.relations(), &["Cust".to_string(), "Ord".to_string()]);
        // Lineage pairs are concatenated left-then-right, contiguously in
        // the arena.
        assert_eq!(joined.row(0).lineage.len(), 2);
        assert_eq!(joined.lineage_arena().len(), 12);
    }

    #[test]
    fn join_rejects_self_joins() {
        let cust = scan(&fig1_cust(), "Cust", &s(&["ckey", "cname"])).unwrap();
        assert!(matches!(
            natural_join(&cust, &cust),
            Err(ExecError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn join_without_shared_columns_is_a_product() {
        let cust = scan(&fig1_cust(), "Cust", &s(&["cname"])).unwrap();
        let ord = scan(&fig1_ord(), "Ord", &s(&["odate"])).unwrap();
        let product = cross_product(&cust, &ord).unwrap();
        assert_eq!(product.len(), 4 * 6);
    }

    #[test]
    fn join_agrees_with_rowwise_baseline() {
        let cust = scan(&fig1_cust(), "Cust", &s(&["ckey", "cname"])).unwrap();
        let ord = scan(&fig1_ord(), "Ord", &s(&["okey", "ckey", "odate"])).unwrap();
        let fast = natural_join(&cust, &ord).unwrap();
        let slow = crate::baseline::natural_join_rowwise(&cust, &ord).unwrap();
        // Same rows in the same order: both emit (left row, right row)
        // lexicographically.
        assert_eq!(fast, slow);
    }

    #[test]
    fn parallel_operators_are_identical_to_sequential() {
        let cust_t = fig1_cust();
        let ord_t = fig1_ord();
        let pred = Predicate::new("Ord", "okey", CompareOp::Gt, 1i64);
        let ctx = ExecContext::unbounded();
        let seq_pool = Pool::sequential();
        for threads in [2, 3, 4, 8] {
            let pool = Pool::new(threads);
            // Scan.
            let seq = scan(&cust_t, "Cust", &s(&["ckey", "cname"])).unwrap();
            let par = scan_ctx(&cust_t, "Cust", &s(&["ckey", "cname"]), &pool, &ctx).unwrap();
            assert_eq!(seq, par, "scan at {threads} threads");
            // Fused scan-filter-project.
            let preds = [&pred];
            let seq_sfp =
                scan_filter_project(&ord_t, "Ord", &preds, &s(&["okey", "ckey"])).unwrap();
            let par_sfp =
                scan_filter_project_ctx(&ord_t, "Ord", &preds, &s(&["okey", "ckey"]), &pool, &ctx)
                    .unwrap();
            assert_eq!(seq_sfp, par_sfp, "scan_filter_project at {threads} threads");
            // Filter + project over an annotated input.
            let ord = scan(&ord_t, "Ord", &s(&["okey", "ckey", "odate"])).unwrap();
            let seq_f = filter(&ord, &pred).unwrap();
            let par_f = filter_with(&ord, &pred, &pool).unwrap();
            assert_eq!(seq_f, par_f, "filter at {threads} threads");
            let seq_p = project(&ord, &s(&["odate", "ckey"])).unwrap();
            let par_p = project_ctx(&ord, &s(&["odate", "ckey"]), &pool, &ctx).unwrap();
            assert_eq!(seq_p, par_p, "project at {threads} threads");
            // Join (including the product shape).
            let cust = scan(&cust_t, "Cust", &s(&["ckey", "cname"])).unwrap();
            let seq_j = natural_join_ctx(&cust, &ord, &seq_pool, &ctx).unwrap();
            let par_j = natural_join_ctx(&cust, &ord, &pool, &ctx).unwrap();
            assert_eq!(seq_j, par_j, "join at {threads} threads");
            let cust_p = project(&cust, &s(&["cname"])).unwrap();
            let ord_p = project(&ord, &s(&["odate"])).unwrap();
            let seq_x = natural_join_ctx(&cust_p, &ord_p, &seq_pool, &ctx).unwrap();
            let par_x = natural_join_ctx(&cust_p, &ord_p, &pool, &ctx).unwrap();
            assert_eq!(seq_x, par_x, "product at {threads} threads");
        }
    }

    #[test]
    fn null_keys_never_join() {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]).unwrap();
        let mut left_table = ProbTable::new(schema.clone());
        left_table
            .insert(Tuple::new(vec![Value::Null]), Variable(0), 0.5)
            .unwrap();
        let mut right_table = ProbTable::new(schema);
        right_table
            .insert(Tuple::new(vec![Value::Null]), Variable(1), 0.5)
            .unwrap();
        let l = scan(&left_table, "L", &s(&["k"])).unwrap();
        let r = scan(&right_table, "R", &s(&["k"])).unwrap();
        assert!(natural_join(&l, &r).unwrap().is_empty());
        // The partitioned path skips NULL keys the same way.
        assert!(
            natural_join_ctx(&l, &r, &Pool::new(4), &ExecContext::unbounded())
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn the_join_charges_its_build_side_under_the_join_stage() {
        use pdb_govern::{GovernorBuilder, SproutError};
        // A budget that exactly fits the two scans leaves the join nothing:
        // its first allocation fails, under its own stage, on one thread and
        // on the partitioned path.
        let (cust, ord) = (fig1_cust(), fig1_ord());
        for threads in [1, 2] {
            let pool = Pool::new(threads);
            let measure = GovernorBuilder::new().build();
            let scans = |ctx: &ExecContext| {
                let l = scan_ctx(&cust, "Cust", &s(&["ckey", "cname"]), &pool, ctx).unwrap();
                let r = scan_ctx(&ord, "Ord", &s(&["okey", "ckey"]), &pool, ctx).unwrap();
                (l, r)
            };
            scans(&ExecContext::governed(&measure));
            let gov = GovernorBuilder::new()
                .memory_budget(measure.memory_used())
                .build();
            let ctx = ExecContext::governed(&gov);
            let (l, r) = scans(&ctx);
            match natural_join_ctx(&l, &r, &pool, &ctx) {
                Err(ExecError::Governed(SproutError::MemoryBudgetExceeded {
                    stage: Stage::Join,
                    ..
                })) => {}
                other => panic!("{threads} threads: expected MemoryBudgetExceeded, got {other:?}"),
            }
        }
        // A build side of NULL keys scatters nothing and matches nothing, so
        // on the partitioned path its key words, hashes and chain indexes
        // are all the join holds — and all it charges.
        let schema = Schema::from_pairs(&[("k", DataType::Int)]).unwrap();
        let side = |relation: &str| {
            let mut t = Annotated::new(schema.clone(), vec![relation.to_string()]);
            for v in 0..5 {
                t.push(AnnotatedRow::new(
                    Tuple::new(vec![Value::Null]),
                    vec![(Variable(v), 0.5)],
                ));
            }
            t
        };
        let gov = GovernorBuilder::new().build();
        let joined = natural_join_ctx(
            &side("L"),
            &side("R"),
            &Pool::new(2),
            &ExecContext::governed(&gov),
        );
        assert!(joined.unwrap().is_empty());
        let (parts, _) = radix_partitions(2);
        assert_eq!(gov.memory_used(), build_side_bytes(5, 1, 2 * (5 + parts)));
    }

    #[test]
    fn mixed_numeric_keys_join_like_values_compare() {
        // Int(2) joins Float(2.0) — Value::eq equates them, so must the
        // normalized keys.
        let int_schema = Schema::from_pairs(&[("k", DataType::Int)]).unwrap();
        let float_schema = Schema::from_pairs(&[("k", DataType::Float)]).unwrap();
        let mut lt = ProbTable::new(int_schema);
        lt.insert(tuple![2i64], Variable(0), 0.5).unwrap();
        lt.insert(tuple![3i64], Variable(1), 0.5).unwrap();
        let mut rt = ProbTable::new(float_schema);
        rt.insert(tuple![2.0f64], Variable(2), 0.5).unwrap();
        rt.insert(tuple![2.5f64], Variable(3), 0.5).unwrap();
        let l = scan(&lt, "L", &s(&["k"])).unwrap();
        let r = scan(&rt, "R", &s(&["k"])).unwrap();
        let joined = natural_join(&l, &r).unwrap();
        assert_eq!(joined.len(), 1);
        assert_eq!(
            joined.row(0).lineage,
            &[(Variable(0), 0.5), (Variable(2), 0.5)]
        );
    }

    #[test]
    fn project_keeps_lineage_and_duplicates() {
        let ord = scan(&fig1_ord(), "Ord", &s(&["okey", "ckey", "odate"])).unwrap();
        let p = project(&ord, &s(&["ckey"])).unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.schema().names(), vec!["ckey"]);
        assert_eq!(p.relations().len(), 1);
        assert_eq!(distinct(&p).len(), 3);
        assert!(project(&ord, &s(&["nope"])).is_err());
    }

    #[test]
    fn an_owned_projection_that_keeps_every_column_in_place_is_a_move() {
        use pdb_govern::GovernorBuilder;
        let ord = scan(&fig1_ord(), "Ord", &s(&["okey", "ckey", "odate"])).unwrap();
        let pool = Pool::sequential();
        // The schema in order: the very arenas come back, with nothing
        // charged and no checkpoint run.
        let gov = GovernorBuilder::new().memory_budget(0).build();
        let ctx = ExecContext::governed(&gov);
        let owned = ord.clone();
        let arena = owned.lineage_arena().as_ptr();
        let kept = owned
            .into_projection_ctx(&s(&["okey", "ckey", "odate"]), &pool, &ctx)
            .unwrap();
        assert_eq!(kept.lineage_arena().as_ptr(), arena);
        assert_eq!(kept, ord);
        assert_eq!((gov.memory_used(), gov.checkpoints_seen()), (0, 0));
        // Any other column list is `project_ctx`: reordered, narrowed, and
        // failing on an unknown column.
        let ctx = ExecContext::unbounded();
        for attrs in [s(&["ckey", "okey", "odate"]), s(&["okey", "ckey"]), s(&[])] {
            let owned = ord
                .clone()
                .into_projection_ctx(&attrs, &pool, &ctx)
                .unwrap();
            assert_eq!(owned, project_ctx(&ord, &attrs, &pool, &ctx).unwrap());
        }
        assert!(ord.into_projection_ctx(&s(&["nope"]), &pool, &ctx).is_err());
    }

    #[test]
    fn distinct_is_sorted_and_keeps_first_occurrence() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let mut t = Annotated::new(schema, vec!["R".into()]);
        for (a, var) in [(2i64, 0u64), (1, 1), (2, 2), (1, 3)] {
            t.push(AnnotatedRow::new(tuple![a], vec![(Variable(var), 0.5)]));
        }
        let d = distinct(&t);
        assert_eq!(d.len(), 2);
        // Output ordered by data; survivors are the earliest input rows.
        assert_eq!(d.row(0).data_tuple(), tuple![1i64]);
        assert_eq!(d.row(0).lineage[0].0, Variable(1));
        assert_eq!(d.row(1).data_tuple(), tuple![2i64]);
        assert_eq!(d.row(1).lineage[0].0, Variable(0));
    }

    #[test]
    fn sort_dedup_drops_exact_duplicates_only() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let mut t = Annotated::new(schema, vec!["R".into(), "S".into()]);
        let rows = [
            (1i64, 1u64, 7u64),
            (1, 1, 7), // exact duplicate of the first row
            (1, 1, 8), // same data, different lineage: kept
            (2, 1, 7), // different data: kept
        ];
        for (a, r, s_) in rows {
            t.push(AnnotatedRow::new(
                tuple![a],
                vec![(Variable(r), 0.5), (Variable(s_), 0.5)],
            ));
        }
        let d = sort_dedup(&t, &s(&["a"]), &s(&["R", "S"])).unwrap();
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn intro_join_produces_two_derivations_of_the_answer() {
        // Fig. 1: the answer to Q consists of one distinct tuple
        // (1995-01-10) with two derivations (items z1, z2).
        let cust = filter(
            &scan(&fig1_cust(), "Cust", &s(&["ckey", "cname"])).unwrap(),
            &Predicate::new("Cust", "cname", CompareOp::Eq, "Joe"),
        )
        .unwrap();
        let ord = scan(&fig1_ord(), "Ord", &s(&["okey", "ckey", "odate"])).unwrap();
        let item = filter(
            &scan(&fig1_item(), "Item", &s(&["okey", "ckey", "discount"])).unwrap(),
            &Predicate::new("Item", "discount", CompareOp::Gt, 0.0),
        )
        .unwrap();
        let co = natural_join(&cust, &ord).unwrap();
        let all = natural_join(&co, &item).unwrap();
        let answer = project(&all, &s(&["odate"])).unwrap();
        assert_eq!(answer.len(), 2);
        assert_eq!(answer.distinct_data().len(), 1);
        let item_col = answer.relation_index("Item").unwrap();
        let mut vars: Vec<u64> = answer.iter().map(|r| r.lineage[item_col].0 .0).collect();
        vars.sort_unstable();
        assert_eq!(vars, vec![200, 201]);
    }
}
