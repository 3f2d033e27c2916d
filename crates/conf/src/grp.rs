//! The GRP-sequence semantics of the confidence operator (Fig. 5).
//!
//! The operator is "semantically equivalent to a sequence of standard
//! distinct and group-by operators that work on the variable and probability
//! columns of probabilistic tables". This module implements exactly that
//! translation: every star of the signature becomes one aggregation (`GRP`)
//! that groups on all remaining columns and combines the probabilities of the
//! grouped variable column; every concatenation becomes a propagation step
//! that multiplies probability columns and drops the absorbed ones (Fig. 6).
//!
//! This is the reference implementation: simple, obviously faithful to the
//! paper, and the semantics the low-level one-scan operator is tested
//! against (`tests/property.rs`, [`crate::Strategy::GrpSemantics`]).
//!
//! Every aggregation group contains the answer's data columns in its key, so
//! no group ever spans two distinct answer tuples. Bags of duplicates are
//! therefore independent, and [`grp_confidences_with`] fans contiguous bag
//! ranges out across the worker pool — with identical results at every
//! thread count.

use std::collections::BTreeMap;

use pdb_exec::Annotated;
use pdb_lineage::independent_or;
use pdb_par::{partition_by_weight, Pool};
use pdb_query::Signature;
use pdb_storage::{Tuple, Variable};

use crate::error::{ConfError, ConfResult};

/// One bag of duplicates: the distinct data tuple plus the answer row
/// indices of its derivations.
type Bag = (Tuple, Vec<u32>);

/// Working representation: data tuple plus one `(variable, probability)` pair
/// per still-active relation column.
struct WorkTable {
    relations: Vec<String>,
    rows: Vec<(Tuple, Vec<(Variable, f64)>)>,
}

impl WorkTable {
    fn relation_index(&self, name: &str) -> ConfResult<usize> {
        self.relations
            .iter()
            .position(|r| r == name)
            .ok_or_else(|| ConfError::MissingLineage(name.to_string()))
    }

    /// The aggregation step `Jα*K` for the variable column of `relation`:
    /// group by the data columns and every *other* variable column, choose
    /// the minimal variable of the group as representative (`min(V)` in
    /// Fig. 5) and combine the probabilities of the group's *distinct*
    /// variables as independent events (`prob(P)`).
    fn aggregate(&mut self, relation: &str) -> ConfResult<()> {
        type GroupKey = (Tuple, Vec<Variable>);
        let idx = self.relation_index(relation)?;
        let mut groups: BTreeMap<GroupKey, BTreeMap<Variable, f64>> = BTreeMap::new();
        let mut exemplars: BTreeMap<GroupKey, Vec<(Variable, f64)>> = BTreeMap::new();
        for (data, lineage) in &self.rows {
            let others: Vec<Variable> = lineage
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != idx)
                .map(|(_, (v, _))| *v)
                .collect();
            let key = (data.clone(), others);
            groups
                .entry(key.clone())
                .or_default()
                .insert(lineage[idx].0, lineage[idx].1);
            exemplars.entry(key).or_insert_with(|| lineage.clone());
        }
        let mut rows = Vec::with_capacity(groups.len());
        for (key, members) in groups {
            let mut lineage = exemplars
                .remove(&key)
                .expect("every group has an exemplar row");
            let representative = *members.keys().next().expect("groups are non-empty");
            let prob = independent_or(members.values().copied());
            lineage[idx] = (representative, prob);
            rows.push((key.0, lineage));
        }
        self.rows = rows;
        Ok(())
    }

    /// The propagation step `JαβK`: multiply the probability column of
    /// `source` into the probability column of `target` and drop `source`.
    fn propagate(&mut self, target: &str, source: &str) -> ConfResult<()> {
        let target_idx = self.relation_index(target)?;
        let source_idx = self.relation_index(source)?;
        for (_, lineage) in &mut self.rows {
            lineage[target_idx].1 *= lineage[source_idx].1;
            lineage.remove(source_idx);
        }
        self.relations.remove(source_idx);
        Ok(())
    }
}

/// Recursively evaluates the signature, returning the relation whose
/// variable/probability column carries the result of the evaluated
/// subexpression (the "last table encountered in the bottom-up traversal" of
/// Fig. 5).
fn eval(sig: &Signature, table: &mut WorkTable) -> ConfResult<String> {
    match sig {
        Signature::Table(r) => Ok(r.clone()),
        Signature::Star(inner) => {
            let rel = eval(inner, table)?;
            table.aggregate(&rel)?;
            Ok(rel)
        }
        Signature::Concat(parts) => {
            // Fig. 5 evaluates β before α in JαβK: process right-to-left.
            let mut evaluated = Vec::with_capacity(parts.len());
            for part in parts.iter().rev() {
                evaluated.push(eval(part, table)?);
            }
            evaluated.reverse();
            let target = evaluated[0].clone();
            for source in &evaluated[1..] {
                table.propagate(&target, source)?;
            }
            Ok(target)
        }
    }
}

/// Computes `(distinct answer tuple, confidence)` pairs by executing the
/// signature as a sequence of aggregation and propagation steps (Fig. 5/6),
/// using the default worker pool.
///
/// # Errors
/// Fails if the signature references a relation without a lineage column in
/// `answer`.
pub fn grp_confidences(answer: &Annotated, signature: &Signature) -> ConfResult<Vec<(Tuple, f64)>> {
    grp_confidences_with(answer, signature, &Pool::from_env().for_items(answer.len()))
}

/// [`grp_confidences`] with an explicit worker pool. Rows are partitioned
/// into bags of duplicates (distinct data tuples, in tuple order), the GRP
/// sequence runs per contiguous bag range, and the per-range results
/// concatenate in bag order — identical output at every pool size.
///
/// # Errors
/// Fails if the signature references a relation without a lineage column in
/// `answer`.
pub fn grp_confidences_with(
    answer: &Annotated,
    signature: &Signature,
    pool: &Pool,
) -> ConfResult<Vec<(Tuple, f64)>> {
    if answer.is_empty() {
        return Ok(Vec::new());
    }
    // Bags as row-index lists: rows are cloned into WorkTables only once,
    // by the worker that owns the bag.
    let mut bags: BTreeMap<Tuple, Vec<u32>> = BTreeMap::new();
    for (i, row) in answer.iter().enumerate() {
        bags.entry(row.data_tuple()).or_default().push(i as u32);
    }
    let bags: Vec<Bag> = bags.into_iter().collect();
    let mut bag_starts = Vec::with_capacity(bags.len());
    let mut total = 0usize;
    for (_, rows) in &bags {
        bag_starts.push(total);
        total += rows.len();
    }
    let chunks = partition_by_weight(&bag_starts, total, pool.threads());
    let per_chunk: Vec<ConfResult<Vec<(Tuple, f64)>>> = pool.map_ranges(&chunks, |range| {
        grp_over_bags(answer, &bags[range], signature)
    });
    let mut out = Vec::with_capacity(bags.len());
    for chunk in per_chunk {
        out.extend(chunk?);
    }
    Ok(out)
}

/// Runs the full GRP sequence over a contiguous slice of bags. Because every
/// aggregation key includes the data tuple, evaluating a subset of bags is
/// exactly the global evaluation restricted to them.
fn grp_over_bags(
    answer: &Annotated,
    bags: &[Bag],
    signature: &Signature,
) -> ConfResult<Vec<(Tuple, f64)>> {
    let mut table = WorkTable {
        relations: answer.relations().to_vec(),
        rows: bags
            .iter()
            .flat_map(|(tuple, rows)| {
                rows.iter()
                    .map(move |&i| (tuple.clone(), answer.row(i as usize).lineage.to_vec()))
            })
            .collect(),
    };
    let result_rel = eval(signature, &mut table)?;
    let result_idx = table.relation_index(&result_rel)?;
    // One final grouping on the data columns: with a correct signature every
    // bag of duplicates has been reduced to a single row; if several rows
    // remain their representative variables describe independent events and
    // are combined accordingly.
    let mut out: BTreeMap<Tuple, Vec<f64>> = BTreeMap::new();
    for (data, lineage) in &table.rows {
        out.entry(data.clone())
            .or_default()
            .push(lineage[result_idx].1);
    }
    Ok(out
        .into_iter()
        .map(|(tuple, probs)| {
            let p = if probs.len() == 1 {
                probs[0]
            } else {
                independent_or(probs)
            };
            (tuple, p)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn intro_query_without_fds_matches_example_v1() {
        let catalog = fig1_catalog();
        let q = intro_query_q();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        let sig = query_signature(&q, &FdSet::empty()).unwrap();
        let conf = grp_confidences(&answer, &sig).unwrap();
        assert_eq!(conf.len(), 1);
        assert_eq!(conf[0].0, tuple!["1995-01-10"]);
        assert!((conf[0].1 - 0.0028).abs() < 1e-12);
    }

    #[test]
    fn refined_signature_with_keys_gives_the_same_confidence() {
        let catalog = fig1_catalog_with_keys();
        let q = intro_query_q();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Item", "Ord", "Cust"])).unwrap();
        let fds = FdSet::from_catalog_decls(&catalog.fds());
        let sig = query_signature(&q, &fds).unwrap();
        assert_eq!(sig.scan_count(), 1);
        let conf = grp_confidences(&answer, &sig).unwrap();
        assert_eq!(conf.len(), 1);
        assert!((conf[0].1 - 0.0028).abs() < 1e-12);
    }

    #[test]
    fn agrees_with_brute_force_on_fig1_variants() {
        // Compare against the oracle on several query variants (different
        // selection constants produce different duplicate structures).
        let catalog = fig1_catalog();
        for (name, discount) in [("Joe", 0.0), ("Dan", 0.0), ("Li", 0.05), ("Mo", 0.0)] {
            let mut q = intro_query_q();
            q.predicates[0].constant = pdb_storage::Value::str(name);
            q.predicates[1].constant = pdb_storage::Value::Float(discount);
            let answer =
                evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
            let sig = query_signature(&q, &FdSet::empty()).unwrap();
            let ours = grp_confidences(&answer, &sig).unwrap();
            let oracle = brute_force_confidences(&answer);
            assert_eq!(ours.len(), oracle.len(), "query for {name}");
            for ((t1, p1), (t2, p2)) in ours.iter().zip(oracle.iter()) {
                assert_eq!(t1, t2);
                assert!((p1 - p2).abs() < 1e-9, "{name}: {p1} vs {p2}");
            }
        }
    }

    #[test]
    fn parallel_grp_is_identical_to_sequential() {
        let catalog = fig1_catalog();
        let mut q = intro_query_q();
        q.predicates.clear();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        let sig = query_signature(&q, &FdSet::empty()).unwrap();
        let seq = grp_confidences_with(&answer, &sig, &pdb_par::Pool::sequential()).unwrap();
        for threads in [2, 4, 8] {
            let par = grp_confidences_with(&answer, &sig, &pdb_par::Pool::new(threads)).unwrap();
            assert_eq!(seq.len(), par.len());
            for ((t1, p1), (t2, p2)) in seq.iter().zip(par.iter()) {
                assert_eq!(t1, t2);
                assert_eq!(p1.to_bits(), p2.to_bits(), "{threads} threads: {t1}");
            }
        }
    }

    #[test]
    fn empty_answer_produces_no_rows() {
        let catalog = fig1_catalog();
        let mut q = intro_query_q();
        q.predicates[0].constant = pdb_storage::Value::str("Nobody");
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        let sig = query_signature(&q, &FdSet::empty()).unwrap();
        assert!(grp_confidences(&answer, &sig).unwrap().is_empty());
    }

    #[test]
    fn missing_lineage_column_is_reported() {
        let catalog = fig1_catalog();
        let q = intro_query_q();
        let answer = evaluate_join_order(&q, &catalog, &order(&["Cust", "Ord", "Item"])).unwrap();
        let sig = Signature::star(Signature::table("Nation"));
        assert!(matches!(
            grp_confidences(&answer, &sig),
            Err(ConfError::MissingLineage(_))
        ));
    }
}
