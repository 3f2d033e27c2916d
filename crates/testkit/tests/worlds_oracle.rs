//! The brute-force oracle against possible-world semantics.
//!
//! `brute_force_confidences` Shannon-expands the lineage the engine's join
//! pipeline annotates an answer with. Its ground truth is the definition of
//! a confidence (paper, Section II.A): the probability mass of the worlds
//! whose instance holds the tuple in its answer. On the Fig. 1 database — 16
//! tuples, 65 536 worlds — each world is instantiated, the query is
//! evaluated on it by a nested loop, and the two must agree.

use std::collections::{BTreeMap, BTreeSet};

use pdb_exec::fixtures::{fig1_catalog, fig1_cust, fig1_item, fig1_ord};
use pdb_exec::pipeline::evaluate_join_order;
use pdb_query::cq::{intro_query_q, intro_query_q_prime};
use pdb_query::ConjunctiveQuery;
use pdb_storage::{tuple, Table, Tuple, Value};
use pdb_testkit::brute_force_confidences;
use pdb_testkit::worlds::enumerate_worlds;

/// The answer of `q` on a deterministic instance, by its definition.
fn answers(q: &ConjunctiveQuery, instance: &BTreeMap<&str, Table>) -> BTreeSet<Tuple> {
    let mut out = BTreeSet::new();
    extend(q, instance, 0, &BTreeMap::new(), &mut out);
    out
}

/// Binds the atoms from `atom` on, one row of each at a time, in query
/// order: a row joins when it agrees on every attribute bound already (no
/// NULL equals anything) and passes its atom's predicates; a binding of
/// every atom contributes its head.
fn extend(
    q: &ConjunctiveQuery,
    instance: &BTreeMap<&str, Table>,
    atom: usize,
    bound: &BTreeMap<&str, Value>,
    out: &mut BTreeSet<Tuple>,
) {
    let Some(relation) = q.relations.get(atom) else {
        out.insert(Tuple::new(
            q.head.iter().map(|a| bound[a.as_str()].clone()).collect(),
        ));
        return;
    };
    let table = &instance[relation.name.as_str()];
    for row in table.rows() {
        let value = |a: &str| row.value(table.schema().index_of(a).expect("an attribute"));
        let agrees = relation.attributes.iter().all(|a| {
            bound
                .get(a.as_str())
                .is_none_or(|b| !b.is_null() && b == value(a))
        });
        let predicates = q.predicates.iter().filter(|p| p.relation == relation.name);
        if agrees && predicates.clone().all(|p| p.matches(value(&p.attribute))) {
            let mut bound = bound.clone();
            for a in &relation.attributes {
                bound.insert(a, value(a).clone());
            }
            extend(q, instance, atom + 1, &bound, out);
        }
    }
}

#[test]
fn brute_force_confidences_are_the_possible_worlds_probabilities_on_fig1() {
    let (cust, ord, item) = (fig1_cust(), fig1_ord(), fig1_item());
    let queries = [
        intro_query_q(),
        intro_query_q().boolean_version(),
        intro_query_q_prime(),
        intro_query_q_prime().boolean_version(),
    ];
    // Per query, per answer tuple: the mass of the worlds that answer it.
    let mut by_worlds = vec![BTreeMap::<Tuple, f64>::new(); queries.len()];
    let worlds = enumerate_worlds(&[&cust, &ord, &item]);
    assert_eq!(worlds.len(), 1 << 16);
    for world in &worlds {
        let instance = BTreeMap::from([
            ("Cust", world.instantiate(&cust)),
            ("Ord", world.instantiate(&ord)),
            ("Item", world.instantiate(&item)),
        ]);
        for (q, mass) in queries.iter().zip(&mut by_worlds) {
            for t in answers(q, &instance) {
                *mass.entry(t).or_default() += world.probability;
            }
        }
    }
    // The paper's worked example, from the worlds alone.
    assert!((by_worlds[0][&tuple!["1995-01-10"]] - 0.0028).abs() < 1e-12);

    let catalog = fig1_catalog();
    let order = ["Cust", "Ord", "Item"].map(String::from);
    for (q, want) in queries.iter().zip(&by_worlds) {
        let answer = evaluate_join_order(q, &catalog, &order).unwrap();
        let got = brute_force_confidences(&answer);
        assert_eq!(got.len(), want.len(), "{q}");
        for ((t, p), (world_t, world_p)) in got.iter().zip(want) {
            assert_eq!(t, world_t, "{q}");
            assert!(
                (p - world_p).abs() <= 1e-12,
                "{q}: {t} has {p} from its lineage and {world_p} from the worlds"
            );
        }
    }
}
