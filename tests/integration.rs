//! Workspace-level integration tests: the paper's worked examples, end to
//! end, through the public `sprout` API.

use sprout::{PlanKind, SproutDb, Strategy};

use pdb_exec::fixtures;
use pdb_exec::pipeline::evaluate_join_order;
use pdb_query::cq::{intro_query_q, intro_query_q_prime};
use pdb_query::reduct::query_signature;
use pdb_query::FdSet;
use pdb_storage::tuple;
use pdb_testkit::brute_force_confidences;

/// Every plan family and every operator strategy computes the confidence
/// 0.0028 for the guiding query (Example V.1 / Example V.13), and so does the
/// test kit's brute-force oracle.
#[test]
fn guiding_query_all_plans_and_strategies_agree() {
    let db = SproutDb::from_catalog(fixtures::fig1_catalog_with_keys());
    let q = intro_query_q();

    let kinds = [
        PlanKind::Lazy,
        PlanKind::Eager,
        PlanKind::Hybrid(vec!["Item".to_string()]),
        PlanKind::Hybrid(vec!["Item".to_string(), "Ord".to_string()]),
        PlanKind::Mystiq,
        PlanKind::MystiqLogSpace,
    ];
    for kind in kinds {
        let report = db.query(&q, kind.clone()).unwrap();
        assert_eq!(report.distinct_tuples, 1, "{kind}");
        assert_eq!(report.confidences[0].0, tuple!["1995-01-10"], "{kind}");
        let tolerance = if kind == PlanKind::MystiqLogSpace {
            0.05
        } else {
            1e-9
        };
        assert!(
            (report.confidences[0].1 - 0.0028).abs() < tolerance,
            "{kind}: {}",
            report.confidences[0].1
        );
    }

    // The operator strategies on the lazily computed answer.
    let order: Vec<String> = ["Cust", "Ord", "Item"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let answer = evaluate_join_order(&q, db.catalog(), &order).unwrap();
    let oracle = brute_force_confidences(&answer);
    assert_eq!(oracle.len(), 1);
    assert!(
        (oracle[0].1 - 0.0028).abs() < 1e-9,
        "oracle: {}",
        oracle[0].1
    );
    let fds = FdSet::from_catalog_decls(&db.catalog().fds());
    let op = sprout::ConfidenceOperator::new(query_signature(&q, &fds).unwrap());
    for strategy in [Strategy::Auto, Strategy::OneScan, Strategy::GrpSemantics] {
        let conf = op.compute(&answer, strategy).unwrap();
        assert!((conf[0].1 - 0.0028).abs() < 1e-9, "{strategy}");
    }
}

/// Section I / Section IV: Q' is #P-hard in general but tractable under the
/// TPC-H functional dependency, and computes the same answer as Q.
#[test]
fn fd_rewriting_makes_the_hard_query_tractable() {
    let with_keys = SproutDb::from_catalog(fixtures::fig1_catalog_with_keys());
    let without_keys = SproutDb::from_catalog(fixtures::fig1_catalog());
    let q_prime = intro_query_q_prime();

    assert!(!without_keys.is_tractable(&q_prime));
    assert!(with_keys.is_tractable(&q_prime));

    let q_report = with_keys.query(&intro_query_q(), PlanKind::Lazy).unwrap();
    let qp_report = with_keys.query(&q_prime, PlanKind::Lazy).unwrap();
    assert_eq!(q_report.confidences.len(), qp_report.confidences.len());
    for ((t1, p1), (t2, p2)) in q_report
        .confidences
        .iter()
        .zip(qp_report.confidences.iter())
    {
        assert_eq!(t1, t2);
        assert!((p1 - p2).abs() < 1e-12);
    }
}

/// The signature refinement of Example III.2 and the scan counts of
/// Example V.11, observed through the public API.
#[test]
fn signatures_and_scan_counts_match_the_paper() {
    let with_keys = SproutDb::from_catalog(fixtures::fig1_catalog_with_keys());
    let without_keys = SproutDb::from_catalog(fixtures::fig1_catalog());
    let q = intro_query_q();

    let refined = with_keys.signature(&q).unwrap();
    assert_eq!(refined.to_string(), "(Cust (Ord Item*)*)*");
    assert_eq!(refined.scan_count(), 1);

    let unrefined = without_keys.signature(&q.boolean_version()).unwrap();
    assert_eq!(unrefined.to_string(), "(Cust* (Ord* Item*)*)*");
    assert_eq!(unrefined.scan_count(), 3);
}

/// Confidences are true probabilities: monotone under adding more evidence
/// and always within [0, 1].
#[test]
fn confidences_are_probabilities() {
    let db = SproutDb::from_catalog(fixtures::fig1_catalog_with_keys());
    let mut q = intro_query_q();
    q.predicates.clear();
    let report = db.query(&q, PlanKind::Lazy).unwrap();
    assert!(!report.confidences.is_empty());
    for (tuple, p) in &report.confidences {
        assert!(*p > 0.0 && *p <= 1.0, "{tuple} has confidence {p}");
    }
}
