//! The recursive one-scan reference implementation (the same role
//! `pdb_exec::baseline` plays for the join).
//!
//! This is the Fig. 8 machine written the obvious way: a recursive
//! `propagate`/`flush` over an arena of nodes that own `children` vectors —
//! cloned on every visit, i.e. O(rows × nodes) allocations per scan — driven
//! over a full sorted *copy* of the answer relation. The flat, iterative,
//! permutation-scanning engine in [`crate::one_scan`] is what runs in
//! production; the test suite asserts the two agree.

use pdb_exec::{Annotated, RowRef};
use pdb_query::{OneScanTree, Signature};
use pdb_storage::{Tuple, Variable};

use crate::error::{ConfError, ConfResult};

/// A node of the run-time 1scanTree, stored in preorder in an arena.
#[derive(Debug, Clone)]
struct Node {
    /// Index of this node's variable column in the annotated input's lineage.
    lineage_col: usize,
    /// Children, as arena indices.
    children: Vec<usize>,
    enabled: bool,
    crt_p: f64,
    all_p: f64,
}

/// Run-time state of the recursive one-scan operator.
#[derive(Debug)]
struct ScanState {
    nodes: Vec<Node>,
}

impl ScanState {
    fn new(tree: &OneScanTree, answer: &Annotated) -> ConfResult<ScanState> {
        let mut nodes = Vec::new();
        build_arena(tree, answer, &mut nodes)?;
        Ok(ScanState { nodes })
    }

    fn reset(&mut self) {
        for n in &mut self.nodes {
            n.enabled = true;
            n.crt_p = 0.0;
            n.all_p = 0.0;
        }
    }

    fn propagate(&mut self, node: usize, i: usize, row: RowRef<'_>) {
        for child_pos in 0..self.nodes[node].children.len() {
            let child = self.nodes[node].children[child_pos];
            self.propagate(child, i, row);
        }
        let index = node; // preorder arena layout: arena index == column index
        if !self.nodes[node].enabled || index < i {
            return;
        }
        let is_leaf = self.nodes[node].children.is_empty();
        let row_prob = row.lineage[self.nodes[node].lineage_col].1;
        if is_leaf && index == i {
            let crt = self.nodes[node].crt_p;
            self.nodes[node].crt_p = 1.0 - (1.0 - crt) * (1.0 - row_prob);
        } else {
            let children = self.nodes[node].children.clone();
            let mut crt = self.nodes[node].crt_p;
            for c in children {
                crt *= self.nodes[c].all_p;
            }
            let all = self.nodes[node].all_p;
            self.nodes[node].all_p = 1.0 - (1.0 - crt) * (1.0 - all);
            if index == i {
                self.for_each_descendant(node, |state, d| {
                    let col = state.nodes[d].lineage_col;
                    state.nodes[d].enabled = true;
                    state.nodes[d].all_p = 0.0;
                    state.nodes[d].crt_p = row.lineage[col].1;
                });
                self.nodes[node].crt_p = row_prob;
            } else {
                self.nodes[node].enabled = false;
                self.for_each_descendant(node, |state, d| {
                    state.nodes[d].enabled = false;
                });
            }
        }
    }

    fn flush(&mut self) -> f64 {
        self.flush_node(0);
        self.nodes[0].all_p
    }

    fn flush_node(&mut self, node: usize) {
        for child_pos in 0..self.nodes[node].children.len() {
            let child = self.nodes[node].children[child_pos];
            self.flush_node(child);
        }
        if !self.nodes[node].enabled {
            return;
        }
        let children = self.nodes[node].children.clone();
        let mut crt = self.nodes[node].crt_p;
        for c in children {
            crt *= self.nodes[c].all_p;
        }
        let all = self.nodes[node].all_p;
        self.nodes[node].all_p = 1.0 - (1.0 - crt) * (1.0 - all);
    }

    fn for_each_descendant(&mut self, node: usize, mut f: impl FnMut(&mut ScanState, usize)) {
        let mut stack: Vec<usize> = self.nodes[node].children.clone();
        while let Some(d) = stack.pop() {
            stack.extend(self.nodes[d].children.iter().copied());
            f(self, d);
        }
    }
}

fn build_arena(tree: &OneScanTree, answer: &Annotated, arena: &mut Vec<Node>) -> ConfResult<usize> {
    let lineage_col = answer
        .relation_index(&tree.table)
        .map_err(|_| ConfError::MissingLineage(tree.table.clone()))?;
    let idx = arena.len();
    arena.push(Node {
        lineage_col,
        children: Vec::new(),
        enabled: true,
        crt_p: 0.0,
        all_p: 0.0,
    });
    for child in &tree.children {
        let child_idx = build_arena(child, answer, arena)?;
        arena[idx].children.push(child_idx);
    }
    Ok(idx)
}

/// The reference one-scan pipeline: physically materialise a sorted copy of
/// the answer (sequential comparator sort over the normalized key runs, not
/// the packed radix path the engine uses, so the two share as little as
/// possible), then run the recursive Fig. 8 machine over it.
///
/// # Errors
/// Fails if the signature lacks the 1scan property or references a relation
/// without a lineage column.
pub fn one_scan_confidences_recursive(
    answer: &Annotated,
    signature: &Signature,
) -> ConfResult<Vec<(Tuple, f64)>> {
    if !signature.is_one_scan() {
        return Err(ConfError::NotOneScan(signature.to_string()));
    }
    let tree = OneScanTree::build(signature).map_err(ConfError::from)?;
    let col_idx: Vec<usize> = (0..answer.data_width()).collect();
    let rel_idx: Vec<usize> = tree
        .preorder()
        .iter()
        .map(|r| {
            answer
                .relation_index(r)
                .map_err(|_| ConfError::MissingLineage(r.clone()))
        })
        .collect::<ConfResult<_>>()?;
    // The reference stays sequential whatever `SPROUT_THREADS` says.
    let keys = answer.sort_keys_with(&col_idx, &rel_idx, &pdb_par::Pool::sequential());
    let order =
        pdb_par::sorted_permutation_by(answer.len(), &pdb_par::Pool::sequential(), |a, b| {
            keys.row(a as usize).cmp(keys.row(b as usize))
        });
    let mut sorted = Annotated::with_row_capacity(
        answer.schema().clone(),
        answer.relations().to_vec(),
        answer.len(),
    );
    for &i in &order {
        let row = answer.row(i as usize);
        sorted.push_row(row.data, row.lineage);
    }
    scan_sorted(&sorted, &tree)
}

/// The recursive scan over an already physically sorted answer.
fn scan_sorted(answer: &Annotated, tree: &OneScanTree) -> ConfResult<Vec<(Tuple, f64)>> {
    if answer.is_empty() {
        return Ok(Vec::new());
    }
    let mut state = ScanState::new(tree, answer)?;
    let preorder_cols: Vec<usize> = state.nodes.iter().map(|n| n.lineage_col).collect();

    let mut out = Vec::new();
    let mut prev: Option<RowRef<'_>> = None;
    for row in answer.iter() {
        match prev {
            None => {
                state.reset();
                state.propagate(0, 0, row);
            }
            Some(p) if p.data != row.data => {
                out.push((p.data_tuple(), state.flush()));
                state.reset();
                state.propagate(0, 0, row);
            }
            Some(p) => {
                if let Some(i) = leftmost_changed(&preorder_cols, p, row) {
                    state.propagate(0, i, row);
                }
            }
        }
        prev = Some(row);
    }
    if let Some(p) = prev {
        out.push((p.data_tuple(), state.flush()));
    }
    Ok(out)
}

fn leftmost_changed(
    preorder_cols: &[usize],
    prev: RowRef<'_>,
    current: RowRef<'_>,
) -> Option<usize> {
    for (pos, &col) in preorder_cols.iter().enumerate() {
        let a: Variable = prev.lineage[col].0;
        let b: Variable = current.lineage[col].0;
        if a != b {
            return Some(pos);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_confidences;
    use pdb_exec::fixtures::fig1_catalog_with_keys;
    use pdb_exec::pipeline::evaluate_join_order;
    use pdb_query::cq::intro_query_q;
    use pdb_query::reduct::query_signature;
    use pdb_query::FdSet;

    #[test]
    fn recursive_baseline_still_matches_the_oracle() {
        let catalog = fig1_catalog_with_keys();
        let mut q = intro_query_q();
        q.predicates.clear();
        let order: Vec<String> = ["Cust", "Ord", "Item"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let answer = evaluate_join_order(&q, &catalog, &order).unwrap();
        let fds = FdSet::from_catalog_decls(&catalog.fds());
        let sig = query_signature(&q, &fds).unwrap();
        let ours = one_scan_confidences_recursive(&answer, &sig).unwrap();
        let oracle = brute_force_confidences(&answer);
        assert_eq!(ours.len(), oracle.len());
        for ((t1, p1), (t2, p2)) in ours.iter().zip(oracle.iter()) {
            assert_eq!(t1, t2);
            assert!((p1 - p2).abs() < 1e-9);
        }
    }
}
