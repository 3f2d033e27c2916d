//! The grouping shell: rows sorted on normalized keys, cut into runs, one
//! output row per run.
//!
//! Every operator that aggregates an [`Annotated`] relation — the one-scan
//! confidence operator's bags, a multi-scan pre-aggregation's groups, the
//! eager plan's per-table and per-join aggregations — needs the same two
//! things first: a sorted row-index permutation, and the positions where the
//! grouping prefix of the sort key changes. [`KeyRuns`] builds them once, and
//! [`KeyRuns::collapse`] is the shared "one output row per run" writer. What
//! differs between the callers is only the *fold* that turns a run's rows
//! into a `(representative variable, probability)` pair. Both halves charge
//! what they allocate to the caller's memory budget, under the caller's
//! [`Stage`].
//!
//! # Inputs that arrive sorted
//!
//! Much of what reaches the shell is already in key order: a Boolean query's
//! answer is its base table's variables ascending, a table scanned in
//! primary-key order groups to one row per key. [`KeyRuns::build`] therefore
//! first makes one pass over adjacent rows, comparing their cells in key
//! order — two cells of one variant as [`crate::key`]'s one-word encoding
//! orders them (`Int` / `Date` / `Bool` exactly, `Float` through the float
//! transform, `Str` by content), then the group and the order variables. If
//! no pair descends the permutation is the identity and the run starts come
//! from that pass: no [`crate::key::SortKeys`] is built. The first
//! descending pair ends the pass, and so does a `Null` or a pair of
//! different variants (their column would take mixed cells, whose order the
//! pass does not replay); the input then takes the key path whole —
//! normalized keys, one radix sort of the packed words, the boundaries read
//! off the sorted words. Either way the result is the stable sort's, so
//! which path ran never shows in it. Trailing order variables that already
//! ascend in input order get no key word: a stable sort leaves them as they
//! are.
//!
//! [`KeyRuns::collapse`] copies no data value of an input it owns: each
//! run's first row is moved inside the input's data arena, which is then
//! shrunk to the runs, and only the lineage arena is written afresh.
//!
//! Runs come in ascending key order, which is `Value`'s order on the data
//! columns — the order a `BTreeMap<Tuple, _>` iterates in — except in the
//! one corner [`crate::key`] documents (integers beyond ±2⁵³ against
//! floats), which no catalogue query reaches. A column of integers alone
//! orders by exact value, as it does beside floats.

use std::borrow::Cow;
use std::cmp::Ordering;

use pdb_govern::{ExecContext, Stage};
use pdb_par::{partition_by_weight, Pool};
use pdb_storage::{Value, Variable};

use crate::annotated::Annotated;
use crate::error::{ExecError, ExecResult};
use crate::key::{cmp_one_variant, SortKeys};
use crate::ops::arena_bytes;

/// A relation's rows sorted on `(data columns, group variables, order
/// variables)` and cut into runs of rows equal on `(data columns, group
/// variables)`. Identical at every pool size: the permutation is the stable
/// sort order (ties keep input order).
pub struct KeyRuns {
    order: Vec<u32>,
    starts: Vec<usize>,
}

/// Bytes of the permutation and the run starts of `rows` rows (one run per
/// row at most).
fn index_bytes(rows: usize) -> usize {
    rows * (std::mem::size_of::<u32>() + std::mem::size_of::<usize>())
}

/// The run starts of an `input` whose rows already ascend on `(data columns,
/// group variables, order variables)`: one pass over adjacent rows. `None`
/// at the first pair that descends, holds a `Null` or differs in variant.
fn ascending_run_starts(
    input: &Annotated,
    group_cols: &[usize],
    order_cols: &[usize],
) -> Option<Vec<usize>> {
    let mut starts = Vec::new();
    if !input.is_empty() {
        starts.push(0);
    }
    for r in 1..input.len() {
        let (prev, row) = (input.row(r - 1), input.row(r));
        let mut prefix = Ordering::Equal;
        for (a, b) in prev.data.iter().zip(row.data) {
            prefix = cmp_one_variant(a, b)?;
            if prefix.is_ne() {
                break;
            }
        }
        let variables = |cols: &[usize]| {
            cols.iter()
                .map(|&c| prev.lineage[c].0 .0.cmp(&row.lineage[c].0 .0))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        };
        let prefix = prefix.then_with(|| variables(group_cols));
        match prefix.then_with(|| variables(order_cols)) {
            Ordering::Greater => return None,
            _ if prefix.is_lt() => starts.push(r),
            _ => {}
        }
    }
    Some(starts)
}

impl KeyRuns {
    /// Sorts a row-index permutation of `input` by all its data columns,
    /// then the variables of the lineage columns `group_cols`, then those of
    /// `order_cols`, and cuts it where a data column or a `group_cols`
    /// variable changes. The input is neither copied nor permuted. The
    /// permutation and the run starts are charged to `ctx`'s memory budget
    /// under `stage` before anything is allocated; the key, sort and radix
    /// buffers only when the input does not arrive sorted (see the module
    /// documentation).
    ///
    /// # Errors
    /// [`ExecError::Governed`] when the buffers exceed the memory budget.
    pub fn build(
        input: &Annotated,
        group_cols: &[usize],
        order_cols: &[usize],
        stage: Stage,
        pool: &Pool,
        ctx: &ExecContext,
    ) -> ExecResult<KeyRuns> {
        ctx.account(stage, index_bytes(input.len()))?;
        if let Some(starts) = ascending_run_starts(input, group_cols, order_cols) {
            let order = (0..input.len() as u32).collect();
            return Ok(KeyRuns { order, starts });
        }
        let col_idx: Vec<usize> = (0..input.data_width()).collect();
        // Trailing order variables that already ascend in input order (a
        // base table's, after a scan) are as a stable sort leaves them.
        let var = |r: usize, c: usize| input.row(r).lineage[c].0;
        let descends = |&c: &usize| (1..input.len()).any(|r| var(r - 1, c) > var(r, c));
        let order_cols = &order_cols[..order_cols.iter().rposition(descends).map_or(0, |e| e + 1)];
        let rel_idx: Vec<usize> = group_cols.iter().chain(order_cols).copied().collect();
        ctx.account(
            stage,
            SortKeys::sort_bytes(input.len(), col_idx.len(), rel_idx.len()),
        )?;
        let keys = input.sort_keys_with(&col_idx, &rel_idx, pool);
        // Runs are cut on the normalized key prefix — the top bits of the
        // sorted packed words, no `Value` dispatch.
        let prefix_words = keys.data_words() + group_cols.len();
        let (order, starts) = SortKeys::sorted_runs(keys, input.len(), prefix_words, pool);
        Ok(KeyRuns { order, starts })
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether there are no runs (the input had no rows).
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The sorted permutation: `order()[k]` is the input row at sorted
    /// position `k`.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// The sorted position each run starts at, ascending.
    pub fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// The input rows of run `run`, in sort order.
    pub fn rows(&self, run: usize) -> &[u32] {
        let end = self
            .starts
            .get(run + 1)
            .copied()
            .unwrap_or(self.order.len());
        &self.order[self.starts[run]..end]
    }

    /// Collapses every run to one output row, in run order: the data values
    /// and the lineage columns `kept_cols` of the run's first row (in sort
    /// order), with column `slot` — one of `kept_cols` — replaced by
    /// `fold(input, run, rows)`. Runs are weight-balanced across the pool by
    /// row count and written in place into disjoint arena segments; `fold`
    /// runs exactly once per run, in ascending run order within a segment.
    ///
    /// A borrowed `input` has every run's first row copied into a fresh data
    /// arena; an owned one has it moved inside its own once the folds are
    /// done (see the module documentation). The arenas the output allocates
    /// are charged to `ctx`'s memory budget under `stage` beforehand.
    ///
    /// # Errors
    /// [`ExecError::Governed`] when the output exceeds the memory budget;
    /// the first error `fold` returns; a panicking `fold` is isolated into
    /// [`pdb_govern::SproutError::WorkerPanic`] naming `stage`, at every
    /// pool size. The partially written output is dropped either way.
    #[allow(clippy::too_many_arguments)]
    pub fn collapse(
        &self,
        input: Cow<'_, Annotated>,
        kept_cols: &[usize],
        slot: usize,
        stage: Stage,
        pool: &Pool,
        ctx: &ExecContext,
        fold: impl Fn(&Annotated, usize, &[u32]) -> ExecResult<(Variable, f64)> + Sync,
    ) -> ExecResult<Annotated> {
        let source: &Annotated = &input;
        // Data values copied per run: none when the arena is kept.
        let owned = matches!(input, Cow::Owned(_));
        let dw = if owned { 0 } else { source.data_width() };
        let lw = kept_cols.len();
        ctx.account(stage, arena_bytes(self.len(), dw, lw))?;
        let mut data = vec![Value::Null; self.len() * dw];
        let mut lineage = vec![(Variable(0), 0.0); self.len() * lw];
        let chunks = partition_by_weight(&self.starts, self.order.len(), pool.threads());
        let data_cuts: Vec<usize> = chunks.iter().map(|c| c.start * dw).collect();
        let lineage_cuts: Vec<usize> = chunks.iter().map(|c| c.start * lw).collect();
        pool.try_map_slices2_mut(
            &mut data,
            &data_cuts,
            &mut lineage,
            &lineage_cuts,
            |ci, dseg, lseg| {
                for (local, run) in chunks[ci].clone().enumerate() {
                    let rows = self.rows(run);
                    let folded = fold(source, run, rows)?;
                    let exemplar = source.row(rows[0] as usize);
                    dseg[local * dw..(local + 1) * dw].clone_from_slice(&exemplar.data[..dw]);
                    for (e, &c) in kept_cols.iter().enumerate() {
                        lseg[local * lw + e] = if c == slot {
                            folded
                        } else {
                            exemplar.lineage[c]
                        };
                    }
                }
                Ok(())
            },
        )
        .map_err(|f| ExecError::from_task_failure(stage, f))?;
        let relations = kept_cols
            .iter()
            .map(|&c| source.relations()[c].clone())
            .collect();
        let exemplar = |run: usize| self.order[self.starts[run]] as usize;
        Ok(match input {
            Cow::Owned(owned) => owned.into_rows(self.len(), exemplar, relations, lineage),
            Cow::Borrowed(input) => {
                Annotated::from_arenas(input.schema().clone(), relations, self.len(), data, lineage)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotated::AnnotatedRow;
    use pdb_storage::{tuple, DataType, Schema, Tuple, Value};

    fn relation(rows: &[(i64, u64, u64)]) -> Annotated {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).unwrap();
        let mut t = Annotated::new(schema, vec!["R".into(), "S".into()]);
        for &(a, r, s) in rows {
            t.push(AnnotatedRow::new(
                tuple![a],
                vec![(Variable(r), 0.5), (Variable(s), 0.25)],
            ));
        }
        t
    }

    const UNGOVERNED: ExecContext = ExecContext::unbounded();

    fn build_runs(
        input: &Annotated,
        group_cols: &[usize],
        order_cols: &[usize],
        pool: &Pool,
    ) -> KeyRuns {
        KeyRuns::build(
            input,
            group_cols,
            order_cols,
            Stage::Aggregate,
            pool,
            &UNGOVERNED,
        )
        .unwrap()
    }

    /// Collapses with the fold "(min S variable, run length)".
    fn collapse_counting(runs: &KeyRuns, input: &Annotated, pool: &Pool) -> Annotated {
        runs.collapse(
            Cow::Borrowed(input),
            &[0, 1],
            1,
            Stage::Aggregate,
            pool,
            &UNGOVERNED,
            |input, _, rows| {
                let min = rows
                    .iter()
                    .map(|&r| input.row(r as usize).lineage[1].0)
                    .min()
                    .expect("runs are non-empty");
                Ok((min, rows.len() as f64))
            },
        )
        .unwrap()
    }

    #[test]
    fn empty_input_has_no_runs_and_collapses_to_nothing() {
        let input = relation(&[]);
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let runs = build_runs(&input, &[0], &[1], &pool);
            assert!(runs.is_empty());
            assert_eq!(runs.len(), 0);
            assert!(runs.order().is_empty());
            let out = collapse_counting(&runs, &input, &pool);
            assert!(out.is_empty());
            assert_eq!(out.relations(), input.relations());
        }
    }

    #[test]
    fn one_run_keeps_the_first_sorted_row_and_the_folded_slot() {
        // All rows share the data value and the group variable; the order
        // column sorts them 3, 7, 9 — so the exemplar is input row 2.
        let input = relation(&[(5, 1, 9), (5, 1, 7), (5, 1, 3)]);
        let runs = build_runs(&input, &[0], &[1], &Pool::sequential());
        assert_eq!(runs.len(), 1);
        assert_eq!(runs.starts(), &[0]);
        assert_eq!(runs.rows(0), &[2, 1, 0]);
        let out = collapse_counting(&runs, &input, &Pool::sequential());
        assert_eq!(out.len(), 1);
        assert_eq!(out.row(0).data_tuple(), tuple![5i64]);
        assert_eq!(
            out.row(0).lineage,
            &[(Variable(1), 0.5), (Variable(3), 3.0)]
        );
    }

    #[test]
    fn singleton_runs_come_out_in_ascending_key_order() {
        let input = relation(&[(3, 1, 1), (1, 1, 1), (2, 2, 1), (2, 1, 1)]);
        let runs = build_runs(&input, &[0], &[], &Pool::sequential());
        assert_eq!(runs.len(), 4);
        assert_eq!(runs.order(), &[1, 3, 2, 0]);
        assert_eq!(runs.starts(), &[0, 1, 2, 3]);
        // Dropping the group column merges the two rows with a = 2, in
        // input order (the sort is stable).
        let by_data = build_runs(&input, &[], &[], &Pool::sequential());
        assert_eq!(by_data.len(), 3);
        assert_eq!(by_data.rows(1), &[2, 3]);
        // Only the slot column survives when it is the only kept column.
        let out = by_data
            .collapse(
                Cow::Borrowed(&input),
                &[0],
                0,
                Stage::Aggregate,
                &Pool::sequential(),
                &UNGOVERNED,
                |_, run, _| Ok((Variable(run as u64), 1.0)),
            )
            .unwrap();
        assert_eq!(out.relations(), &["R".to_string()]);
        let slots: Vec<u64> = out.iter().map(|r| r.lineage[0].0 .0).collect();
        assert_eq!(slots, vec![0, 1, 2]);
    }

    #[test]
    fn a_boolean_head_is_one_run_of_every_row_in_input_order() {
        // No data columns and no group columns: prefix width 0.
        let schema = Schema::from_pairs(&[]).unwrap();
        let mut input = Annotated::new(schema, vec!["R".into()]);
        for v in [4u64, 2, 8] {
            input.push(AnnotatedRow::new(Tuple::empty(), vec![(Variable(v), 0.5)]));
        }
        let runs = build_runs(&input, &[], &[], &Pool::sequential());
        assert_eq!(runs.len(), 1);
        assert_eq!(runs.rows(0), &[0, 1, 2]);
        let sorted = build_runs(&input, &[], &[0], &Pool::sequential());
        assert_eq!(sorted.len(), 1);
        assert_eq!(sorted.rows(0), &[1, 0, 2]);
    }

    #[test]
    fn runs_and_collapse_are_identical_at_every_pool_size() {
        // Enough rows for the chunked key build and sort to engage, with
        // strings, a skewed group and duplicate keys.
        let schema = Schema::from_pairs(&[("s", DataType::Str), ("a", DataType::Int)]).unwrap();
        let mut input = Annotated::new(schema, vec!["R".into(), "S".into()]);
        let names = ["N", "A", "R", "N"];
        for i in 0..3000u64 {
            let a = if i % 3 == 0 { 0 } else { (i % 41) as i64 };
            input.push(AnnotatedRow::new(
                Tuple::new(vec![Value::str(names[(i % 4) as usize]), Value::Int(a)]),
                vec![(Variable(i % 17), 0.5), (Variable((i * 7) % 29), 0.25)],
            ));
        }
        let reference = build_runs(&input, &[0], &[1], &Pool::sequential());
        let collapsed = collapse_counting(&reference, &input, &Pool::sequential());
        assert_eq!(collapsed.len(), reference.len());
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            let runs = build_runs(&input, &[0], &[1], &pool);
            assert_eq!(runs.order(), reference.order(), "{threads} threads");
            assert_eq!(runs.starts(), reference.starts(), "{threads} threads");
            assert_eq!(
                collapse_counting(&runs, &input, &pool),
                collapsed,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn a_failing_or_panicking_fold_surfaces_as_an_error_at_every_pool_size() {
        use pdb_govern::SproutError;
        let input = relation(&[(1, 1, 1), (2, 1, 1), (3, 1, 1)]);
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let runs = build_runs(&input, &[], &[], &pool);
            let failed = runs.collapse(
                Cow::Borrowed(&input),
                &[0],
                0,
                Stage::Aggregate,
                &pool,
                &UNGOVERNED,
                |_, run, _| {
                    if run == 1 {
                        Err(ExecError::UnknownColumn("boom".into()))
                    } else {
                        Ok((Variable(0), 0.0))
                    }
                },
            );
            assert_eq!(failed, Err(ExecError::UnknownColumn("boom".into())));
            // Owned, and every run a single row in input order: the
            // arena-moving collapse isolates a panicking fold all the same.
            let panicked = runs.collapse(
                Cow::Owned(input.clone()),
                &[0],
                0,
                Stage::Aggregate,
                &pool,
                &UNGOVERNED,
                |_, _, _| panic!("fold blew up"),
            );
            assert!(matches!(
                panicked,
                Err(ExecError::Governed(SproutError::WorkerPanic {
                    stage: Stage::Aggregate,
                    ..
                }))
            ));
        }
    }

    #[test]
    fn build_and_collapse_charge_the_memory_budget_under_the_callers_stage() {
        use pdb_govern::{GovernorBuilder, SproutError};
        let input = relation(&[(1, 1, 1), (2, 1, 1), (2, 1, 2)]);
        let pool = Pool::sequential();
        let exceeded = |result: ExecResult<()>, stage: Stage| match result {
            Err(ExecError::Governed(SproutError::MemoryBudgetExceeded { stage: s, .. })) => {
                assert_eq!(s, stage)
            }
            other => panic!("expected MemoryBudgetExceeded, got {other:?}"),
        };
        let tight = GovernorBuilder::new().memory_budget(1).build();
        let built = KeyRuns::build(
            &input,
            &[],
            &[0],
            Stage::Sort,
            &pool,
            &ExecContext::governed(&tight),
        );
        exceeded(built.map(|_| ()), Stage::Sort);
        // Runs built ungoverned, collapsed under a budget their two output
        // rows (one data value and one lineage pair each) do not fit.
        let runs = build_runs(&input, &[], &[0], &pool);
        let tight = GovernorBuilder::new().memory_budget(1).build();
        let ctx = ExecContext::governed(&tight);
        let collapsed = runs.collapse(
            Cow::Borrowed(&input),
            &[0],
            0,
            Stage::Aggregate,
            &pool,
            &ctx,
            |_, _, _| Ok((Variable(0), 0.0)),
        );
        exceeded(collapsed.map(|_| ()), Stage::Aggregate);
        assert_eq!(tight.memory_used(), arena_bytes(2, 1, 1));

        // The charges follow the allocations. An input that arrives sorted
        // builds no key words: only the permutation and the run starts are
        // charged, and a budget that fits exactly those suffices.
        let sorted = relation(&[(1, 1, 1), (2, 1, 1), (2, 1, 2), (3, 1, 1)]);
        let exact = GovernorBuilder::new()
            .memory_budget(index_bytes(sorted.len()))
            .build();
        let runs = KeyRuns::build(
            &sorted,
            &[],
            &[1],
            Stage::Sort,
            &pool,
            &ExecContext::governed(&exact),
        )
        .unwrap();
        assert_eq!(runs.order(), &[0, 1, 2, 3]);
        assert_eq!(runs.starts(), &[0, 1, 3]);
        assert_eq!(exact.memory_used(), index_bytes(4));
        // The same rows out of order take the key path, which charges its
        // key words and sort buffers on top — under the same stage.
        let shuffled = relation(&[(2, 1, 2), (1, 1, 1), (3, 1, 1), (2, 1, 1)]);
        let exact = GovernorBuilder::new().memory_budget(index_bytes(4)).build();
        let built = KeyRuns::build(
            &shuffled,
            &[],
            &[1],
            Stage::Sort,
            &pool,
            &ExecContext::governed(&exact),
        );
        exceeded(built.map(|_| ()), Stage::Sort);
        assert_eq!(
            exact.memory_used(),
            index_bytes(4) + SortKeys::sort_bytes(4, 1, 1)
        );

        // An owned input whose runs are its rows in order keeps its data
        // arena: the collapse charges the lineage arena alone. Borrowed, the
        // same runs copy the data and charge it.
        let keyed = relation(&[(1, 1, 1), (2, 1, 1), (3, 1, 1)]);
        let runs = build_runs(&keyed, &[], &[0], &pool);
        let fold = |input: &Annotated, _: usize, rows: &[u32]| {
            Ok((input.row(rows[0] as usize).lineage[1].0, 1.0))
        };
        let copied_gov = GovernorBuilder::new().build();
        let ctx = ExecContext::governed(&copied_gov);
        let copied = runs
            .collapse(
                Cow::Borrowed(&keyed),
                &[1],
                1,
                Stage::Aggregate,
                &pool,
                &ctx,
                fold,
            )
            .unwrap();
        assert_eq!(copied_gov.memory_used(), arena_bytes(3, 1, 1));
        let moved_gov = GovernorBuilder::new()
            .memory_budget(arena_bytes(3, 0, 1))
            .build();
        let ctx = ExecContext::governed(&moved_gov);
        let moved = runs
            .collapse(
                Cow::Owned(keyed.clone()),
                &[1],
                1,
                Stage::Aggregate,
                &pool,
                &ctx,
                fold,
            )
            .unwrap();
        assert_eq!(moved_gov.memory_used(), arena_bytes(3, 0, 1));
        assert_eq!(moved, copied);
    }

    #[test]
    fn integers_beyond_two_to_the_53_group_by_exact_value() {
        // The corner where key order and `Value` order part: 2^53 and
        // 2^53 + 1 are distinct integers (two runs) although both compare
        // equal to the float 2^53 under `Value`'s ordering.
        let big = 1i64 << 53;
        let input = relation(&[(big + 1, 1, 1), (big, 1, 1), (big + 1, 1, 1)]);
        let runs = build_runs(&input, &[], &[], &Pool::sequential());
        assert_eq!(runs.len(), 2);
        assert_eq!(runs.rows(0), &[1]);
        assert_eq!(runs.rows(1), &[0, 2]);
    }
}
