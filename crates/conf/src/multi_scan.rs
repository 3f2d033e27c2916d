//! Multi-scan confidence computation for signatures without the 1scan
//! property (Example V.11, Proposition V.10).
//!
//! The scan schedule derived from the signature lists pre-aggregation
//! signatures, each of which *does* have the 1scan property. Every
//! pre-aggregation is evaluated in its own pass: the answer is grouped by the
//! data columns and the variable columns of the relations *not* covered by
//! the step, the step's probability is computed with the streaming algorithm
//! of Fig. 8 restricted to its own 1scanTree, and the group collapses to a
//! single row whose surviving lineage column (the step's leftmost table)
//! carries a representative variable and the computed probability — exactly
//! the `min(V) / prob(P)` convention of Fig. 5. After all pre-aggregations
//! the remaining signature has the 1scan property and a final scan finishes
//! the computation.
//!
//! Since PR 2 a pre-aggregation pass never copies or permutes its input:
//! grouping runs through the engine's grouping shell ([`pdb_exec::KeyRuns`]:
//! normalized `u64` sort keys, a sorted row-index permutation, runs of equal
//! key prefix — shared with the one-scan operator and the eager plan), the
//! per-group probability comes from the flat iterative Fig. 8 machine, and
//! groups fan out across the worker pool (groups are independent and
//! results stay in group order, so the output is identical at every thread
//! count). Since PR 3 a *huge group* — the Boolean / low-distinct shape,
//! where group-level fan-out degenerates to one worker — is split further
//! at the boundaries of its step-root variable ([`SplitPolicy`],
//! bitwise-identical results at every thread count); since PR 4 ordinary
//! groups and all huge-group sub-ranges are scheduled together through
//! [`crate::one_scan`]'s unified weight-balanced scheduler (boundaries read
//! off the step root's lineage column) and the collapsed output rows are
//! written in place into disjoint arena segments
//! ([`pdb_exec::KeyRuns::collapse`]).

use std::borrow::Cow;
use std::collections::BTreeSet;

use pdb_exec::{Annotated, KeyRuns};
use pdb_govern::{ExecContext, Stage};
use pdb_par::Pool;
use pdb_query::{OneScanTree, Signature};
use pdb_storage::Tuple;

#[cfg(doc)]
use crate::error::ConfError;
use crate::error::ConfResult;
use crate::one_scan::{one_scan_confidences_ctx, unit_confidences, FlatScan, SplitPolicy};

/// Computes `(distinct answer tuple, confidence)` pairs for an arbitrary
/// signature by scheduling `scan_count()` scans, using the default worker
/// pool and [`SplitPolicy`].
///
/// # Errors
/// Fails if the signature references relations missing from the answer.
pub fn multi_scan_confidences(
    answer: &Annotated,
    signature: &Signature,
) -> ConfResult<Vec<(Tuple, f64)>> {
    multi_scan_confidences_ctx(
        answer,
        signature,
        &Pool::from_env().for_items(answer.len()),
        SplitPolicy::default(),
        &ExecContext::unbounded(),
    )
}

/// [`multi_scan_confidences`] on an explicit worker pool, with an explicit
/// intra-bag [`SplitPolicy`] (applied to every pre-aggregation pass and the
/// final scan), under a governor [`ExecContext`]: every pass runs its
/// `conf.bag` checkpoints, and an interrupted pass surfaces as
/// [`ConfError::Governed`]. Results are bitwise-identical for every pool
/// size and policy, and a governed run that completes is bitwise-identical
/// to an ungoverned one.
///
/// # Errors
/// Fails if the signature references relations missing from the answer, or
/// with [`ConfError::Governed`] when the governor interrupts a scan.
pub fn multi_scan_confidences_ctx(
    answer: &Annotated,
    signature: &Signature,
    pool: &Pool,
    policy: SplitPolicy,
    ctx: &ExecContext,
) -> ConfResult<Vec<(Tuple, f64)>> {
    if answer.is_empty() {
        return Ok(Vec::new());
    }
    let schedule = signature.scan_schedule();
    let mut current: Option<Annotated> = None;
    for step in &schedule.pre_aggregations {
        // The answer is borrowed; every later input is the pass's own.
        let input = current.take().map_or(Cow::Borrowed(answer), Cow::Owned);
        current = Some(apply_pre_aggregation_ctx(input, step, pool, policy, ctx)?);
    }
    let input = current.as_ref().unwrap_or(answer);
    one_scan_confidences_ctx(input, &schedule.final_signature, pool, policy, ctx)
}

/// Executes one pre-aggregation `[step]` on the default worker pool and
/// [`SplitPolicy`]; see [`apply_pre_aggregation_ctx`].
///
/// # Errors
/// Fails if the step references relations missing from the input.
pub fn apply_pre_aggregation(input: &Annotated, step: &Signature) -> ConfResult<Annotated> {
    apply_pre_aggregation_ctx(
        Cow::Borrowed(input),
        step,
        &Pool::from_env().for_items(input.len()),
        SplitPolicy::default(),
        &ExecContext::unbounded(),
    )
}

/// Executes one pre-aggregation `[step]`: groups the input by the data
/// columns and the lineage columns of relations outside the step, computes
/// the step's probability per group, and collapses each group to one row in
/// which the step's leftmost table carries the representative variable and
/// the aggregated probability; the step's other lineage columns are dropped.
///
/// A group at or above the [`SplitPolicy`]'s row threshold is split at the
/// boundaries of the step root's variable and scanned by several workers,
/// with the per-partition partials folded back deterministically (see
/// [`crate::one_scan`]) — so a pre-aggregation whose input collapses into
/// one giant group still scales with cores. The output is bitwise-identical
/// for every pool size and policy; the pass runs the `conf.bag` checkpoints
/// of [`multi_scan_confidences_ctx`]. An owned `input` is compacted in place
/// ([`KeyRuns::collapse`]).
///
/// # Errors
/// Fails if the step references relations missing from the input, or with
/// [`ConfError::Governed`] when the governor interrupts the pass.
pub fn apply_pre_aggregation_ctx(
    input: Cow<'_, Annotated>,
    step: &Signature,
    pool: &Pool,
    policy: SplitPolicy,
    ctx: &ExecContext,
) -> ConfResult<Annotated> {
    let step_tables: BTreeSet<String> = step.tables().into_iter().collect();
    let source: &Annotated = &input;
    let leftmost_col = source.relation_index(step.leftmost_table())?;
    let other_cols: Vec<usize> = (0..source.lineage_width())
        .filter(|&c| !step_tables.contains(&source.relations()[c]))
        .collect();

    // The step's own streaming machine, over the step signature's 1scanTree.
    let tree = OneScanTree::build(step)?;
    let machine = FlatScan::new(&tree, source)?;

    // Rows of the same (data values, other-relation variables) group form a
    // run and, within a run, follow the order the step's streaming
    // evaluation requires.
    let runs = KeyRuns::build(
        source,
        &other_cols,
        &machine.preorder_cols(),
        Stage::Confidence,
        pool,
        ctx,
    )?;

    // Per-group probabilities through the unified bag + intra-bag scheduler:
    // ordinary groups and the sub-ranges of huge groups (cut at the step
    // root's variable boundaries — the root is the first preorder column,
    // right after the grouping prefix) form one weight-balanced schedule,
    // so many medium-huge groups overlap.
    let probs = unit_confidences(
        &machine,
        source,
        runs.order(),
        runs.starts(),
        pool,
        policy,
        ctx,
    )?;

    // Collapse: one output row per group keeping the data schema and every
    // relation except the step's non-leftmost tables (the input's relative
    // column order preserved), with the step's leftmost table carrying the
    // group's representative variable (the minimum, Fig. 5's `min(V)`) and
    // the aggregated probability.
    let kept_cols: Vec<usize> = (0..source.lineage_width())
        .filter(|&c| c == leftmost_col || other_cols.contains(&c))
        .collect();
    let fold = |input: &Annotated, g: usize, rows: &[u32]| {
        let representative = rows
            .iter()
            .map(|&r| input.row(r as usize).lineage[leftmost_col].0)
            .min()
            .expect("group is non-empty");
        Ok((representative, probs[g]))
    };
    Ok(runs.collapse(
        input,
        &kept_cols,
        leftmost_col,
        Stage::Confidence,
        pool,
        ctx,
        fold,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grp::grp_confidences;
    use pdb_exec::fixtures::fig1_catalog;
    use pdb_exec::pipeline::evaluate_join_order;
    use pdb_query::cq::intro_query_q;
    use pdb_query::reduct::query_signature;
    use pdb_query::FdSet;
    use pdb_storage::tuple;
    use pdb_testkit::brute_force_confidences;

    fn order(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn non_one_scan_signature_needs_multiple_scans_and_is_exact() {
        // Without key constraints the Boolean intro query's signature is
        // (Cust*(Ord*Item*)*)*, which needs 3 scans (Example V.11).
        let catalog = fig1_catalog();
        let q = intro_query_q().boolean_version();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        let sig = query_signature(&q, &FdSet::empty()).unwrap();
        assert_eq!(sig.scan_count(), 3);
        let conf = multi_scan_confidences(&answer, &sig).unwrap();
        assert_eq!(conf.len(), 1);
        assert!((conf[0].1 - 0.0028).abs() < 1e-12);
    }

    #[test]
    fn multi_scan_handles_one_scan_signatures_too() {
        let catalog = fig1_catalog();
        let q = intro_query_q();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        // Without FDs the non-Boolean reduct still needs 2 scans; with the
        // per-bag refinement the final confidence must match the oracle.
        let sig = query_signature(&q, &FdSet::empty()).unwrap();
        let conf = multi_scan_confidences(&answer, &sig).unwrap();
        assert_eq!(conf.len(), 1);
        assert_eq!(conf[0].0, tuple!["1995-01-10"]);
        assert!((conf[0].1 - 0.0028).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_grp_and_brute_force_without_selections() {
        let catalog = fig1_catalog();
        let mut q = intro_query_q();
        q.predicates.clear();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Ord", "Item", "Cust"])).unwrap();
        let sig = query_signature(&q, &FdSet::empty()).unwrap();
        let ours = multi_scan_confidences(&answer, &sig).unwrap();
        let reference = grp_confidences(&answer, &sig).unwrap();
        let oracle = brute_force_confidences(&answer);
        assert_eq!(ours.len(), oracle.len());
        for ((t1, p1), ((t2, p2), (t3, p3))) in ours.iter().zip(reference.iter().zip(oracle.iter()))
        {
            assert_eq!(t1, t2);
            assert_eq!(t1, t3);
            assert!(
                (p1 - p3).abs() < 1e-9,
                "{t1}: multi-scan {p1} vs oracle {p3}"
            );
            assert!((p2 - p3).abs() < 1e-9, "{t1}: grp {p2} vs oracle {p3}");
        }
    }

    #[test]
    fn pre_aggregation_reduces_row_count() {
        let catalog = fig1_catalog();
        let mut q = intro_query_q();
        q.predicates.clear();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        let step = Signature::star(Signature::table("Item"));
        let reduced = apply_pre_aggregation(&answer, &step).unwrap();
        assert!(reduced.len() < answer.len());
        assert_eq!(reduced.relations(), answer.relations());
    }

    #[test]
    fn parallel_pre_aggregation_is_identical_to_sequential() {
        let catalog = fig1_catalog();
        let mut q = intro_query_q();
        q.predicates.clear();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        let step = Signature::star(Signature::table("Item"));
        let ctx = ExecContext::unbounded();
        let sequential = apply_pre_aggregation_ctx(
            Cow::Borrowed(&answer),
            &step,
            &Pool::sequential(),
            SplitPolicy::default(),
            &ctx,
        )
        .unwrap();
        for threads in [2, 4, 8] {
            let parallel = apply_pre_aggregation_ctx(
                Cow::Borrowed(&answer),
                &step,
                &Pool::new(threads),
                SplitPolicy::default(),
                &ctx,
            )
            .unwrap();
            assert_eq!(sequential, parallel, "{threads} threads");
        }
        // And the full multi-scan pipeline agrees at every thread count.
        let sig = query_signature(&q, &FdSet::empty()).unwrap();
        let seq = multi_scan_confidences_ctx(
            &answer,
            &sig,
            &Pool::sequential(),
            SplitPolicy::default(),
            &ctx,
        )
        .unwrap();
        for threads in [2, 4, 8] {
            let par = multi_scan_confidences_ctx(
                &answer,
                &sig,
                &Pool::new(threads),
                SplitPolicy::default(),
                &ctx,
            )
            .unwrap();
            assert_eq!(seq.len(), par.len());
            for ((t1, p1), (t2, p2)) in seq.iter().zip(par.iter()) {
                assert_eq!(t1, t2);
                assert_eq!(p1.to_bits(), p2.to_bits(), "{threads} threads: {t1}");
            }
        }
    }

    #[test]
    fn empty_answer_short_circuits() {
        let catalog = fig1_catalog();
        let mut q = intro_query_q();
        q.predicates[0].constant = pdb_storage::Value::str("Nobody");
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        let sig = query_signature(&q, &FdSet::empty()).unwrap();
        assert!(multi_scan_confidences(&answer, &sig).unwrap().is_empty());
    }
}
