//! The library workloads' operations: which TPC-H query, under which plan
//! family and policy, how often per pass.

use std::sync::Arc;

use pdb_query::ConjunctiveQuery;
use pdb_tpch::tpch_query;
use sprout::{ApproxPolicy, PlanKind, Pool, QueryObs, QueryOptions};

use super::rng::Rng;

/// Bracket width every `unsafe_bounds` op asks for.
pub const BOUNDS_EPS: f64 = 1e-3;

/// Per-tuple Shannon-frontier cap on `unsafe_bounds` and on the server's
/// bounds op. The engine's default (16 MiB) puts one pass at 7 s (B8 4.6 s,
/// B9 2.3 s); a quarter of it keeps the same entangled-bag refinement loop
/// running to its cap while a pass fits the driver's run length several
/// times over.
pub const FRONTIER_BUDGET: usize = 4 << 20;

/// The same cap under `--smoke`, where the whole suite has ten seconds.
pub const SMOKE_FRONTIER_BUDGET: usize = 1 << 20;

/// One distinct operation of a library workload.
#[derive(Debug, Clone)]
pub struct OpSpec {
    /// `<query id>` or `<query id>.<plan>`.
    pub id: String,
    /// TPC-H catalogue id, shared by the plan variants of one query.
    pub query_id: &'static str,
    /// The query.
    pub query: ConjunctiveQuery,
    /// Plan family.
    pub kind: PlanKind,
    /// Approximation policy (`unsafe_bounds` and the server's bounds op).
    pub policy: Option<ApproxPolicy>,
    /// Per-tuple Shannon-frontier cap, for ops with a policy.
    pub frontier_budget: usize,
}

impl OpSpec {
    /// The options bundle this op runs under.
    pub fn options(&self, pool: Pool, seed: u64, obs: Option<Arc<QueryObs>>) -> QueryOptions {
        QueryOptions {
            kind: Some(self.kind.clone()),
            policy: self.policy,
            pool: Some(pool),
            seed,
            frontier_budget: self.policy.map(|_| Some(self.frontier_budget)),
            obs,
            ..QueryOptions::default()
        }
    }
}

fn query(id: &str) -> ConjunctiveQuery {
    tpch_query(id)
        .and_then(|entry| entry.query)
        .unwrap_or_else(|| panic!("TPC-H query {id} is in the catalogue"))
}

fn op(query_id: &'static str, plan: &str, kind: PlanKind, policy: Option<ApproxPolicy>) -> OpSpec {
    OpSpec {
        id: if plan.is_empty() {
            query_id.to_string()
        } else {
            format!("{query_id}.{plan}")
        },
        query_id,
        query: query(query_id),
        kind,
        policy,
        frontier_budget: FRONTIER_BUDGET,
    }
}

/// The relation a hybrid plan pushes down: the first of Item / Psupp / Ord
/// the query mentions.
fn pushed_relation(q: &ConjunctiveQuery) -> Vec<String> {
    let rels = q.relation_names();
    ["Item", "Psupp", "Ord"]
        .iter()
        .find(|t| rels.contains(*t))
        .map(|t| vec![t.to_string()])
        .unwrap_or_default()
}

/// A library workload's distinct ops and how many times each runs per pass.
pub fn workload_ops(workload: &str, smoke: bool) -> (Vec<OpSpec>, Vec<usize>) {
    match workload {
        "scan_conf" => {
            let ops: Vec<OpSpec> = ["1", "B1", "6", "B6", "B14", "15", "B19", "16", "20"]
                .into_iter()
                .map(|id| op(id, "", PlanKind::Lazy, None))
                .collect();
            let repeats = vec![1; ops.len()];
            (ops, repeats)
        }
        "join_plans" => {
            let mut ops = Vec::new();
            for id in ["2", "3", "7", "10", "11", "18", "21", "B17"] {
                ops.push(op(id, "lazy", PlanKind::Lazy, None));
                ops.push(op(id, "eager", PlanKind::Eager, None));
            }
            for id in ["3", "18"] {
                let pushed = pushed_relation(&query(id));
                ops.push(op(id, "hybrid", PlanKind::Hybrid(pushed), None));
            }
            for id in ["15", "16"] {
                ops.push(op(id, "mystiq", PlanKind::Mystiq, None));
            }
            let repeats = vec![1; ops.len()];
            (ops, repeats)
        }
        "unsafe_bounds" => {
            let policy = Some(ApproxPolicy::Bounds { eps: BOUNDS_EPS });
            let ops: Vec<OpSpec> = ["8", "9", "B9", "B8"]
                .into_iter()
                .map(|id| OpSpec {
                    frontier_budget: if smoke {
                        SMOKE_FRONTIER_BUDGET
                    } else {
                        FRONTIER_BUDGET
                    },
                    ..op(id, "", PlanKind::Lazy, policy)
                })
                .collect();
            (ops, vec![4, 4, 1, 1])
        }
        other => panic!("{other} is not a library workload"),
    }
}

/// The op order of one pass (indices into the distinct ops), fixed by the
/// seed and the same on every pass, so passes compare bitwise.
pub fn pass_order(repeats: &[usize], seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = repeats
        .iter()
        .enumerate()
        .flat_map(|(i, &n)| std::iter::repeat_n(i, n))
        .collect();
    Rng::new(seed, 1).shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_the_issue_op_counts() {
        assert_eq!(workload_ops("scan_conf", false).0.len(), 9);
        let (ops, _) = workload_ops("join_plans", false);
        assert_eq!(ops.len(), 20);
        assert!(ops
            .iter()
            .any(|o| o.id == "3.hybrid" && o.kind == PlanKind::Hybrid(vec!["Item".into()])));
        let (ops, repeats) = workload_ops("unsafe_bounds", false);
        assert_eq!(ops.len(), 4);
        assert_eq!(pass_order(&repeats, 1).len(), 10);
        assert_eq!(pass_order(&repeats, 1), pass_order(&repeats, 1));
    }
}
