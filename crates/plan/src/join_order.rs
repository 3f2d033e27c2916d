//! Join ordering.
//!
//! Lazy plans are free to use whatever join order the optimizer likes best
//! (that is the point of the paper); safe plans are not. This module provides
//! both: a greedy cost-based order seeded by the most selective relation, and
//! the query-tree-driven order that eager/safe plans follow (children of a
//! node are joined before the node's result joins its siblings, i.e. the
//! Fig. 2 shape where `Ord ⋈ Item` is computed before `Cust` is brought in).

use std::collections::BTreeSet;

use pdb_query::{ConjunctiveQuery, QueryTree};
use pdb_storage::Catalog;

use crate::error::PlanResult;
use crate::stats::Statistics;

/// A greedy, selectivity-driven join order: start from the relation with the
/// smallest filtered cardinality, then repeatedly add the connected relation
/// with the smallest estimated join result (falling back to the smallest
/// disconnected relation when no connected one exists). A single-relation
/// query has one possible order and reads no statistics.
///
/// # Errors
/// Fails if a referenced table is missing from the catalog.
pub fn greedy_join_order(query: &ConjunctiveQuery, catalog: &Catalog) -> PlanResult<Vec<String>> {
    if let [atom] = query.relations.as_slice() {
        catalog.backing(&atom.name)?;
        return Ok(vec![atom.name.clone()]);
    }
    let stats = Statistics::collect(query, catalog)?;
    let mut remaining: Vec<String> = query
        .relation_names()
        .into_iter()
        .map(|s| s.to_string())
        .collect();
    let mut order: Vec<String> = Vec::with_capacity(remaining.len());

    // Seed: the most selective relation; equal output estimates fall back
    // to the cheaper scan (the columnar zone statistics' chunk-distinct
    // hints estimate how many chunks an Eq/In probe actually reads).
    remaining.sort_by(|a, b| {
        stats
            .filtered_cardinality(query, a)
            .total_cmp(&stats.filtered_cardinality(query, b))
            .then_with(|| {
                stats
                    .scan_cost(query, a)
                    .total_cmp(&stats.scan_cost(query, b))
            })
    });
    let seed = remaining.remove(0);
    let mut current_card = stats.filtered_cardinality(query, &seed);
    order.push(seed);

    while !remaining.is_empty() {
        let connected: Vec<usize> = remaining
            .iter()
            .enumerate()
            .filter(|(_, r)| shares_attribute(query, &order, r))
            .map(|(i, _)| i)
            .collect();
        let candidates: Vec<usize> = if connected.is_empty() {
            (0..remaining.len()).collect()
        } else {
            connected
        };
        let best = candidates
            .into_iter()
            .min_by(|&a, &b| {
                let ca = stats.join_cardinality(query, &order, current_card, &remaining[a]);
                let cb = stats.join_cardinality(query, &order, current_card, &remaining[b]);
                ca.total_cmp(&cb)
            })
            .expect("remaining is non-empty");
        let next = remaining.remove(best);
        current_card = stats.join_cardinality(query, &order, current_card, &next);
        order.push(next);
    }
    Ok(order)
}

fn shares_attribute(query: &ConjunctiveQuery, chosen: &[String], candidate: &str) -> bool {
    let Some(cand) = query.relation(candidate) else {
        return false;
    };
    let cand_attrs: BTreeSet<&String> = cand.attributes.iter().collect();
    chosen.iter().any(|c| {
        query
            .relation(c)
            .map(|atom| atom.attributes.iter().any(|a| cand_attrs.contains(a)))
            .unwrap_or(false)
    })
}

/// The join order induced by a query tree: a post-order traversal in which
/// every subtree is fully joined before its result meets its siblings. This
/// is the restrictive order safe plans must use (Fig. 2: `Ord ⋈ Item` first,
/// `Cust` last when `Cust` is the first child).
pub fn tree_join_order(tree: &QueryTree) -> Vec<String> {
    match tree {
        QueryTree::Leaf { relation, .. } => vec![relation.clone()],
        QueryTree::Inner { children, .. } => {
            // Deeper subtrees first: MystiQ computes the nested (unselective)
            // joins before bringing in the selective single tables.
            let mut ordered: Vec<&QueryTree> = children.iter().collect();
            ordered.sort_by_key(|c| std::cmp::Reverse(c.depth()));
            ordered.iter().flat_map(|c| tree_join_order(c)).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_exec::fixtures::fig1_catalog;
    use pdb_query::cq::intro_query_q;
    use pdb_query::reduct::FdReduct;
    use pdb_query::FdSet;

    #[test]
    fn greedy_order_starts_with_the_selective_customer() {
        let catalog = fig1_catalog();
        let q = intro_query_q();
        let order = greedy_join_order(&q, &catalog).unwrap();
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], "Cust");
        // All relations appear exactly once.
        let set: BTreeSet<&String> = order.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn greedy_order_handles_queries_without_predicates() {
        let catalog = fig1_catalog();
        let mut q = intro_query_q();
        q.predicates.clear();
        let order = greedy_join_order(&q, &catalog).unwrap();
        assert_eq!(order.len(), 3);
        // Smallest table first.
        assert_eq!(order[0], "Cust");
    }

    #[test]
    fn tree_order_joins_the_deep_subquery_first() {
        let q = intro_query_q();
        let reduct = FdReduct::compute(&q.boolean_version(), &FdSet::empty());
        let tree = reduct.tree().unwrap();
        let order = tree_join_order(&tree);
        // The Ord–Item subtree is deeper than the Cust leaf, so MystiQ joins
        // Ord and Item before Cust — the unselective join the paper calls out.
        assert_eq!(order.len(), 3);
        assert_eq!(order[2], "Cust");
        assert!(order[..2].contains(&"Ord".to_string()));
        assert!(order[..2].contains(&"Item".to_string()));
    }

    #[test]
    fn missing_tables_are_reported() {
        let catalog = pdb_storage::Catalog::new();
        let q = intro_query_q();
        assert!(greedy_join_order(&q, &catalog).is_err());
    }

    #[test]
    fn single_relation_queries_are_ordered_without_statistics() {
        let single =
            ConjunctiveQuery::build(&[("Cust", &["ckey", "cname"])], &["cname"], vec![]).unwrap();
        assert_eq!(
            greedy_join_order(&single, &fig1_catalog()).unwrap(),
            vec!["Cust".to_string()]
        );
        // The shortcut still checks that the table exists.
        assert!(matches!(
            greedy_join_order(&single, &pdb_storage::Catalog::new()),
            Err(crate::PlanError::Storage(
                pdb_storage::StorageError::UnknownTable(_)
            ))
        ));
    }
}
