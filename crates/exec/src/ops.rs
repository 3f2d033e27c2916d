//! Relational operators over lineage-annotated results.
//!
//! All operators are materialising: they consume an [`Annotated`] input and
//! produce a new one. The paper's central observation — that keeping the
//! variable columns makes every join order legal — means these operators are
//! completely standard; the probabilistic machinery lives in `pdb-conf`.
//!
//! The operators are allocation-lean: output rows land in the result's flat
//! arenas (see [`crate::annotated`]), and a join hashes and compares its key
//! cells where they lie ([`crate::key::join_row_hash`],
//! [`crate::key::join_equal`]) instead of copying them or cloning a
//! `Vec<Value>` per probe. Grouping and duplicate elimination are
//! [`crate::KeyRuns`]' job, not an operator's.
//!
//! # One body per operator
//!
//! Every operator has one governed entry point, `op_ctx(input…, pool, ctx)`,
//! taking the worker pool and a [`pdb_govern::ExecContext`], with **one
//! body**: the pool decides which worker runs a piece of the work, never
//! what the work, its checkpoints or its charges are. The bare `op(input…)`
//! is the same call on [`pdb_par::Pool::from_env`] (degraded to one worker
//! for small inputs) with [`ExecContext::unbounded`], kept for tests,
//! examples and doc-tests.
//!
//! * **Fused scan-filter-project** (of which the plain scan is the call
//!   with no predicates) — two phases: contiguous row ranges first collect
//!   their surviving row indices, the survivor counts are prefix-summed into
//!   write offsets ([`pdb_par::exclusive_prefix_sum`]), and each range then
//!   materialises its survivors into its disjoint segment of the exactly
//!   sized result ([`Annotated::arena_segments_mut`] +
//!   [`pdb_par::Pool::try_map_slices2_mut`]). Stitching is by range order —
//!   exactly input order — with no post-hoc copy.
//! * **Project** — the output row count is the input's, so contiguous row
//!   ranges are written in place the same way.
//! * **Natural join** — the smaller side is indexed and the larger one
//!   streams through the index in morsels (contiguous row ranges); a morsel
//!   of left rows emits its matches, those of right rows are regrouped by
//!   left row first. Exactly sized fragments are appended in order: `(left
//!   row, right row)` lexicographic, the join's nested loop, with only the
//!   data columns the caller keeps ([`natural_join_project_ctx`]).
//!
//! The output is therefore **bitwise-identical at every thread count** —
//! same values, same lineage, same row order — and so is what a governor
//! sees of a completed run: every row loop checkpoints on the global row
//! block (row `r` starts block `r /` [`SEQ_CHECK_EVERY`], inside whatever
//! range the pool handed its worker), and every charge against the memory
//! budget is a function of the operator's input and output sizes. Checkpoints
//! only ever **stop** work — they never reorder it — so a governed run that
//! completes is bitwise-identical to an ungoverned one; under
//! [`ExecContext::unbounded`] every checkpoint is an inert null check. All
//! work items run through [`pdb_par::Pool::try_map`] and friends, which
//! isolate a panicking item at every pool size: it surfaces as
//! [`pdb_govern::SproutError::WorkerPanic`], the partially-written output is
//! discarded and the pool stays reusable.

use std::sync::atomic::{AtomicUsize, Ordering};

use pdb_govern::{Counter, ExecContext, Stage};
use pdb_par::{even_ranges, Pool};
use pdb_query::Predicate;
use pdb_storage::{ProbTable, Schema, StorageBacking, Value, Variable};

use crate::annotated::Annotated;
use crate::error::{ExecError, ExecResult};
use crate::key::{join_equal, join_row_hash};

/// The checkpoint period of every row loop: the loop over rows `0..n` of an
/// operator's input (or output) runs checkpoint `b` of its site when it
/// reaches row `b · SEQ_CHECK_EVERY`, whichever worker holds that row — so
/// the `(site, index)` pairs a query passes, and their number, do not depend
/// on the pool.
pub const SEQ_CHECK_EVERY: usize = 1024;

/// Runs checkpoint `row / SEQ_CHECK_EVERY` of `site` if `row` starts a block.
#[inline]
pub(crate) fn checkpoint_row(
    ctx: &ExecContext,
    stage: Stage,
    site: &str,
    row: usize,
) -> ExecResult<()> {
    if row.is_multiple_of(SEQ_CHECK_EVERY) {
        ctx.checkpoint(stage, site, row / SEQ_CHECK_EVERY)?;
    }
    Ok(())
}

/// Bytes of a result's flat arenas: `rows` rows of `dw` data values and `lw`
/// lineage pairs. Charged against the governor's memory budget before
/// [`Annotated::with_placeholder_rows`] allocates them.
pub(crate) fn arena_bytes(rows: usize, dw: usize, lw: usize) -> usize {
    rows * (dw * std::mem::size_of::<Value>() + lw * std::mem::size_of::<(Variable, f64)>())
}

/// The default pool of the plain operator entry points: `SPROUT_THREADS`
/// workers, degraded to one below the fan-out cutoff.
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

/// [`scan`] on an explicit worker pool under a governor context:
/// [`scan_filter_project_ctx`] with no predicates.
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
    scan_filter_project_ctx(table, relation, &[], attributes, pool, ctx)
}

/// Fused scan → filter → project in one pass over the base table: evaluates
/// the constant predicates against the stored row and materialises only the
/// `keep` columns of the survivors, into a pre-sized output. Equivalent to
/// projecting the filtered scan without the two intermediate relations —
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
/// context: row ranges first collect their surviving row indices
/// (checkpointing `scan.morsel` on the table's row blocks), the counts are
/// prefix-summed into write offsets, the survivor arenas — exactly sized —
/// are charged to the memory budget, and every range materialises its
/// survivors into its disjoint arena segment (checkpointing `scan.write` on
/// the output's row blocks) — input order, no post-hoc copy.
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
    ctx.tally(Counter::RowsScanned, table.len() as u64);
    let ranges = even_ranges(table.len(), pool.threads());
    // Phase 1: per-range survivor lists (the only per-range scratch).
    let survivors: Vec<Vec<u32>> = pool
        .try_map_ranges(&ranges, |_, range| {
            let mut kept = Vec::new();
            for i in range {
                checkpoint_row(ctx, Stage::Scan, "scan.morsel", i)?;
                let (row, _, _) = table.triple(i);
                let survives = predicates
                    .iter()
                    .zip(&layout.pred_positions)
                    .all(|(pred, &pos)| pred.matches(row.value(pos)));
                if survives {
                    kept.push(i as u32);
                }
            }
            Ok(kept)
        })
        .map_err(|f| ExecError::from_task_failure(Stage::Scan, f))?;
    // Phase 2: exact-size output, disjoint in-place segment writes.
    let (offsets, total) = pdb_par::exclusive_prefix_sum(survivors.iter().map(|s| s.len()));
    ctx.tally(Counter::RowsEmitted, total as u64);
    ctx.account(Stage::Scan, arena_bytes(total, layout.schema.len(), 1))?;
    let mut out =
        Annotated::with_placeholder_rows(layout.schema, vec![relation.to_string()], total);
    let dw = out.data_width();
    let data_cuts: Vec<usize> = offsets.iter().map(|o| o * dw).collect();
    let (data, lineage) = out.arena_segments_mut();
    pool.try_map_slices2_mut(data, &data_cuts, lineage, &offsets, |ci, dseg, lseg| {
        for (k, &r) in survivors[ci].iter().enumerate() {
            checkpoint_row(ctx, Stage::Scan, "scan.write", offsets[ci] + k)?;
            let (row, var, prob) = table.triple(r as usize);
            for (j, &p) in layout.keep_positions.iter().enumerate() {
                dseg[k * dw + j] = row.value(p).clone();
            }
            lseg[k] = (var, prob);
        }
        Ok(())
    })
    .map_err(|f| ExecError::from_task_failure(Stage::Scan, f))?;
    Ok(out)
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
/// output size equals the input size, so its arenas are charged to the
/// memory budget up front and contiguous row ranges are written in place by
/// disjoint workers, checkpointing `project.write` on the row blocks.
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
            for (k, r) in ranges[ci].clone().enumerate() {
                checkpoint_row(ctx, Stage::Project, "project.write", r)?;
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

/// Resolves the shared columns of a natural join — the names occurring on
/// both sides — and its lineage columns, the left's then the right's.
pub(crate) struct JoinLayout {
    pub left_key_idx: Vec<usize>,
    pub right_key_idx: Vec<usize>,
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
    let mut relations = left.relations().to_vec();
    relations.extend(right.relations().iter().cloned());
    Ok(JoinLayout {
        left_key_idx,
        right_key_idx,
        relations,
    })
}

/// Natural hash join on all shared data column names (the Cartesian product
/// when there are none). The output schema is the left schema followed by
/// the right-only columns; the lineage columns of both inputs are
/// concatenated.
///
/// The build side's key cells are hashed where they lie into one chained
/// index; a probe row hashes its own cells the same way and compares them in
/// place against each chain entry. The inner loop appends to the output
/// arenas by slice-append: **no `Tuple` or `Vec<Value>` is allocated per
/// probed row** (verified by `tests/alloc_count.rs`). The emit order is
/// `(left row, right row)` lexicographic.
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

/// [`natural_join`] on an explicit worker pool under a governor context:
/// [`natural_join_project_ctx`] keeping every column, with its errors.
pub fn natural_join_ctx(
    left: &Annotated,
    right: &Annotated,
    pool: &Pool,
    ctx: &ExecContext,
) -> ExecResult<Annotated> {
    let all: Vec<String> = left.join_names(right).map(String::from).collect();
    natural_join_project_ctx(left, right, &all, pool, ctx)
}

/// [`natural_join_ctx`] writing only the data columns `keep` names, in that
/// order: bitwise the join followed by [`project_ctx`]`(keep)`.
///
/// The side with fewer rows — the right one on a tie — is indexed in one
/// chained hash index on [`join_row_hash`] of each row's key cells (a NULL
/// leaves the row out); chains replay rows ascending and no key is copied.
/// The other side streams through in one morsel per worker, matching the
/// `(left row, right row)` pairs whose key cells are all [`join_equal`].
/// Found by left row, a morsel's pairs are in order and it emits them;
/// found by right row, they are listed, regrouped by a stable counting sort
/// on the left row (`regroup_by_left`) and emitted piece by piece. The
/// fragments, sized to their pairs, are appended in order: `(left row,
/// right row)` lexicographic, the join's nested loop at every thread count.
///
/// ```text
///  right indexed (right ≤ left rows)     left indexed (left < right rows)
///  stream left rows, morsels m0 | m1:    stream right rows, morsels m0 | m1:
///    (0,4) (0,9) (1,2) | (7,3) (8,3)       (5,0) (2,1) (5,1) | (2,7) (0,8)
///    each morsel emits its own pairs       regrouped: (0,8) (2,1) (2,7) (5,0) (5,1)
/// ```
///
/// Checkpoints `join.probe` on the streamed side's row blocks. Charged
/// under [`Stage::Join`]: 4 bytes a head and a link of the index before
/// `ChainIndex::build` allocates it; `left.len()` output rows of the kept
/// columns before the probe — `max(left, indexed rows)`, as the indexed
/// side is never the larger — and at every checkpoint the matches beyond.
///
/// # Errors
/// Fails if the inputs share a lineage relation (self-join) or `keep` names
/// a column neither side has, or with [`ExecError::Governed`] when the
/// governor interrupts the join.
pub fn natural_join_project_ctx(
    left: &Annotated,
    right: &Annotated,
    keep: &[String],
    pool: &Pool,
    ctx: &ExecContext,
) -> ExecResult<Annotated> {
    let layout = join_layout(left, right)?;
    // Each kept column as a position in the left row's values followed by
    // the right row's.
    let mut columns = Vec::with_capacity(keep.len());
    let mut sources = Vec::with_capacity(keep.len());
    for a in keep {
        let (side, offset) = match left.column_index(a) {
            Ok(_) => (left, 0),
            Err(_) => (right, left.data_width()),
        };
        let c = side.column_index(a)?;
        columns.push(side.schema().column(c).clone());
        sources.push(offset + c);
    }
    let schema = Schema::new(columns)?;
    let row_bytes = arena_bytes(1, schema.len(), layout.relations.len());
    let index_left = left.len() < right.len();
    let (indexed, indexed_cols, streamed, streamed_cols) = if index_left {
        (left, &layout.left_key_idx, right, &layout.right_key_idx)
    } else {
        (right, &layout.right_key_idx, left, &layout.left_key_idx)
    };
    let index = ChainIndex::build(
        indexed.len(),
        streamed.len(),
        |i| join_row_hash(key_cells(indexed, indexed_cols, i)),
        ctx,
    )?;
    let reserved = left.len();
    ctx.account(Stage::Join, reserved * row_bytes)?;
    // Charges the part of `fresh` newly listed matches that takes the
    // join's total past the reservation: summed over the morsels that is
    // `total − reserved`, however the matches were spread over them.
    let listed = AtomicUsize::new(0);
    let charge = |fresh: usize| {
        let before = listed.fetch_add(fresh, Ordering::Relaxed);
        let beyond = (before + fresh).saturating_sub(before.max(reserved));
        ctx.account(Stage::Join, beyond * row_bytes)
    };

    // Fragments are sized to their pairs: capacity no row writes would,
    // once freed, be where later allocations land and fault pages in.
    let emit = |pairs: &[(u32, u32)]| {
        let (schema, relations) = (schema.clone(), layout.relations.clone());
        let mut out = Annotated::with_row_capacity(schema, relations, pairs.len());
        for &(li, ri) in pairs {
            out.push_join_row(left.row(li as usize), right.row(ri as usize), &sources);
        }
        out
    };

    // Streamed rows are walked in order and chains replay ascending.
    let morsels = even_ranges(streamed.len(), pool.threads());
    let probed = pool
        .try_map_ranges(&morsels, |_, morsel| {
            let mut matches: Vec<(u32, u32)> = Vec::new();
            let mut charged = 0;
            for s in morsel {
                if s.is_multiple_of(SEQ_CHECK_EVERY) {
                    ctx.checkpoint(Stage::Join, "join.probe", s / SEQ_CHECK_EVERY)?;
                    charge(matches.len() - charged)?;
                    charged = matches.len();
                }
                let streamed_key = key_cells(streamed, streamed_cols, s);
                let Some(h) = join_row_hash(streamed_key.clone()) else {
                    continue;
                };
                let s = s as u32;
                index.for_each_row(h, |i| {
                    let indexed_key = key_cells(indexed, indexed_cols, i as usize);
                    if streamed_key
                        .clone()
                        .zip(indexed_key)
                        .all(|(a, b)| join_equal(a, b))
                    {
                        matches.push(if index_left { (i, s) } else { (s, i) });
                    }
                });
            }
            charge(matches.len() - charged)?;
            // Pairs found by left row are in order: emit them here.
            let fragment = (!index_left).then(|| emit(&std::mem::take(&mut matches)));
            Ok::<_, ExecError>((matches, fragment))
        })
        .map_err(|f| ExecError::from_task_failure(Stage::Join, f))?;
    let fragments: Vec<Annotated> = if index_left {
        let mut lists = probed.into_iter().map(|(list, _)| list);
        let mut pairs = lists.next().expect("even_ranges yields a morsel");
        lists.for_each(|list| pairs.extend(list));
        regroup_by_left(&mut pairs, index.next);
        let emit_pool = pool.for_items(pairs.len());
        let pieces = even_ranges(pairs.len(), emit_pool.threads());
        emit_pool
            .try_map_ranges(&pieces, |_, piece| Ok::<_, ExecError>(emit(&pairs[piece])))
            .map_err(|f| ExecError::from_task_failure(Stage::Join, f))?
    } else {
        probed.into_iter().filter_map(|p| p.1).collect()
    };
    let mut fragments = fragments.into_iter();
    let mut out = fragments
        .next()
        .expect("even_ranges yields at least one range");
    fragments.for_each(|fragment| out.append(fragment));
    ctx.tally(Counter::JoinProbes, left.len() as u64);
    ctx.tally(Counter::JoinMatches, out.len() as u64);
    Ok(out)
}

/// The key cells `cols` of row `row` of `side`.
fn key_cells<'a>(
    side: &'a Annotated,
    cols: &'a [usize],
    row: usize,
) -> impl Iterator<Item = &'a Value> + Clone {
    let data = side.row(row).data;
    cols.iter().map(move |&c| &data[c])
}

/// Sorts `(left row, right row)` pairs listed in right-row order by left
/// row, stably and in place, in O(pairs + left rows): `counts` (a slot per
/// left row: the left side's index links, which the probe no longer needs)
/// places each pair, whose left row it overwrites; the pair is cycled
/// there, and the left rows are written back run by run.
fn regroup_by_left(pairs: &mut [(u32, u32)], mut counts: Vec<u32>) {
    u32::try_from(pairs.len()).expect("a join lists fewer than 2^32 matches");
    counts.fill(0);
    for &(l, _) in pairs.iter() {
        counts[l as usize] += 1;
    }
    let mut start = 0;
    for count in &mut counts {
        (*count, start) = (start, start + *count);
    }
    for pair in pairs.iter_mut() {
        let place = &mut counts[pair.0 as usize];
        (pair.0, *place) = (*place, *place + 1);
    }
    // Each swap puts a pair in its place; `counts[l]` now ends left row
    // `l`'s run.
    for i in 0..pairs.len() {
        while pairs[i].0 as usize != i {
            pairs.swap(i, pairs[i].0 as usize);
        }
    }
    let mut run = 0;
    for (l, &end) in counts.iter().enumerate() {
        pairs[run..end as usize]
            .iter_mut()
            .for_each(|p| p.0 = l as u32);
        run = end as usize;
    }
}

const JOIN_NIL: u32 = u32::MAX;

/// A chained hash index over a join's smaller side, in flat arrays:
/// `heads[bucket]` is the first row whose hash falls in the bucket and
/// `next[row]` the one after it ([`JOIN_NIL`] ends the chain), linked from
/// the highest row down so every chain replays its rows ascending. A bucket
/// is a run of high bits of the key hash — already a mix — and may chain
/// rows of different keys: a probe compares every entry's key cells.
struct ChainIndex {
    heads: Vec<u32>,
    next: Vec<u32>,
    /// `64 − log2(heads.len())`.
    bucket_shift: u32,
}

impl ChainIndex {
    /// Indexes the `rows` rows that `hash_of` finds joinable (not `None`)
    /// for `streamed_rows` (no fewer) rows to probe, with 8 chain heads a
    /// row but no more than a head a streamed row: a streamed key the index
    /// lacks finds an empty head 7 times in 8, where at one head a row it
    /// would walk a chain of other keys about every other time, a branch no
    /// predictor learns. Charges `ctx` under [`Stage::Join`] for the heads
    /// and the links, 4 bytes each, before allocating them.
    fn build(
        rows: usize,
        streamed_rows: usize,
        hash_of: impl Fn(usize) -> Option<u64>,
        ctx: &ExecContext,
    ) -> ExecResult<ChainIndex> {
        let buckets = (8 * rows).min(streamed_rows).next_power_of_two().max(2);
        ctx.account(Stage::Join, (buckets + rows) * 4)?;
        let bucket_shift = u64::BITS - buckets.trailing_zeros();
        let (mut heads, mut next) = (vec![JOIN_NIL; buckets], vec![JOIN_NIL; rows]);
        for row in (0..rows).rev() {
            let Some(h) = hash_of(row) else { continue };
            let bucket = (h >> bucket_shift) as usize;
            next[row] = heads[bucket];
            heads[bucket] = row as u32;
        }
        Ok(ChainIndex {
            heads,
            next,
            bucket_shift,
        })
    }

    /// Calls `f` with every row in the chain `hash` falls in, ascending.
    #[inline]
    fn for_each_row(&self, hash: u64, mut f: impl FnMut(u32)) {
        let mut row = self.heads[(hash >> self.bucket_shift) as usize];
        while row != JOIN_NIL {
            f(row);
            row = self.next[row as usize];
        }
    }
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
        let filtered =
            |pred: Predicate| scan_filter_project(&cust, "Cust", &[&pred], &s(&["ckey", "cname"]));
        let joe = filtered(Predicate::new("Cust", "cname", CompareOp::Eq, "Joe")).unwrap();
        assert_eq!(joe.len(), 1);
        assert_eq!(joe.row(0).data_tuple(), tuple![1i64, "Joe"]);
        let none = filtered(Predicate::new("Cust", "ckey", CompareOp::Gt, 100i64)).unwrap();
        assert!(none.is_empty());
        assert!(filtered(Predicate::new("Cust", "zzz", CompareOp::Eq, 1i64)).is_err());
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
        let product = natural_join(&cust, &ord).unwrap();
        assert_eq!(product.len(), 4 * 6);
    }

    #[test]
    fn join_agrees_with_rowwise_baseline() {
        let cust = scan(&fig1_cust(), "Cust", &s(&["ckey", "cname"])).unwrap();
        let ord = scan(&fig1_ord(), "Ord", &s(&["okey", "ckey", "odate"])).unwrap();
        let fast = natural_join(&cust, &ord).unwrap();
        // The join row at a time: every (left row, right row) pair in that
        // order whose `ckey`s match, Cust's columns then Ord's others.
        let mut slow = Annotated::new(fast.schema().clone(), fast.relations().to_vec());
        for l in cust.iter() {
            for r in ord.iter() {
                if l.data[0] == r.data[1] {
                    let data = [l.data, &[r.data[0].clone(), r.data[2].clone()]].concat();
                    slow.push_row(&data, &[l.lineage, r.lineage].concat());
                }
            }
        }
        assert_eq!(slow.len(), 6);
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
            // Project over an annotated input.
            let ord = scan(&ord_t, "Ord", &s(&["okey", "ckey", "odate"])).unwrap();
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
        // At every pool size.
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
        // its first allocation fails, under its own stage, at every pool
        // size.
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
        // A join charges its index, 4 bytes a chain head and a link of the
        // smaller side (8 heads a row of it, but no more than a head a row
        // of the other, in powers of two), and the output it reserves,
        // `left.len()` rows, then the matches beyond that — the same bytes
        // whatever the pool.
        let schema = Schema::from_pairs(&[("k", DataType::Int)]).unwrap();
        let side = |relation: &str, keys: &[Value]| {
            let mut t = Annotated::new(schema.clone(), vec![relation.to_string()]);
            for (v, k) in keys.iter().enumerate() {
                t.push(AnnotatedRow::new(
                    Tuple::new(vec![k.clone()]),
                    vec![(Variable(v as u64), 0.5)],
                ));
            }
            t
        };
        let u32s = |n: usize| n * std::mem::size_of::<u32>();
        let nulls = vec![Value::Null; 5];
        let large: Vec<Value> = (0..1000).map(Value::Int).collect();
        let small = vec![Value::Int(3), Value::Null, Value::Int(700)];
        let ones = |n: usize| vec![Value::Int(1); n];
        for (left, right, rows, bytes) in [
            // Equal sides: the right one is indexed.
            (
                nulls.clone(),
                nulls.clone(),
                0,
                u32s(8 + 5) + arena_bytes(5, 1, 2),
            ),
            // The smaller side is indexed, on the left and on the right;
            // the reservation is the left side's rows either way.
            (
                small.clone(),
                large.clone(),
                2,
                u32s(32 + 3) + arena_bytes(3, 1, 2),
            ),
            (large, small, 2, u32s(32 + 3) + arena_bytes(1000, 1, 2)),
            (
                nulls.clone(),
                ones(40),
                0,
                u32s(64 + 5) + arena_bytes(5, 1, 2),
            ),
            // 20 matches past a reservation of 2 left rows; 16 heads for 10
            // streamed rows.
            (ones(2), ones(10), 20, u32s(16 + 2) + arena_bytes(20, 1, 2)),
        ] {
            for threads in [1, 2, 8] {
                let gov = GovernorBuilder::new().build();
                let joined = natural_join_ctx(
                    &side("L", &left),
                    &side("R", &right),
                    &Pool::new(threads),
                    &ExecContext::governed(&gov),
                )
                .unwrap();
                assert_eq!(joined.len(), rows);
                assert_eq!(
                    gov.memory_used(),
                    bytes,
                    "{} against {} rows, {threads} threads",
                    left.len(),
                    right.len()
                );
            }
        }
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
        assert_eq!(p.distinct_data().len(), 3);
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
    fn intro_join_produces_two_derivations_of_the_answer() {
        // Fig. 1: the answer to Q consists of one distinct tuple
        // (1995-01-10) with two derivations (items z1, z2).
        let joe = Predicate::new("Cust", "cname", CompareOp::Eq, "Joe");
        let cust =
            scan_filter_project(&fig1_cust(), "Cust", &[&joe], &s(&["ckey", "cname"])).unwrap();
        let ord = scan(&fig1_ord(), "Ord", &s(&["okey", "ckey", "odate"])).unwrap();
        let discounted = Predicate::new("Item", "discount", CompareOp::Gt, 0.0);
        let item = scan_filter_project(
            &fig1_item(),
            "Item",
            &[&discounted],
            &s(&["okey", "ckey", "discount"]),
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
