//! The eager and the MystiQ plan's answers on every hierarchical catalogue
//! query, pinned bit for bit.
//!
//! `EagerPlan::execute` and `SafePlan::execute` promise the same tuples, the
//! same row order and the same confidence *bits* on both storage backings
//! and at every pool size. `eager_pin.txt` holds one digest (values +
//! confidence bits + row order) per plan family and query (TPC-H SF 0.01,
//! seed 1): the eager lines generated at the commit before the eager
//! aggregations moved onto the engine's grouping shell, the `mystiq` lines
//! at the commit before the safe plan moved onto the eager plan's tree walk.
//! So a change to how the aggregations group, order or fold their rows fails
//! here — in tier-1, not only in `sprout_bench`'s golden digests. A
//! deliberate change of the arithmetic regenerates the file from the tables
//! these tests print on a mismatch.

use std::sync::OnceLock;

use pdb_query::{ConjunctiveQuery, FdSet};
use pdb_storage::Catalog;
use pdb_testkit::Fnv1a;
use pdb_tpch::{
    case_study_queries, fig12_query_c, fig12_query_d, probabilistic_catalog,
    probabilistic_catalog_columnar, selectivity_query_a, selectivity_query_b, tpch_query, TpchData,
    TpchScale,
};
use sprout_plan::eager::EagerPlan;
use sprout_plan::safe::SafePlan;
use sprout_plan::{PlanError, PlanResult, Pool};

const PINNED: &str = include_str!("eager_pin.txt");

/// Every conjunctive query `pdb_tpch::queries` can build (the list
/// `join_order_pin.rs` pins the join orders of).
fn catalogue() -> Vec<(String, ConjunctiveQuery)> {
    let mut out: Vec<(String, ConjunctiveQuery)> = case_study_queries()
        .into_iter()
        .chain(["B5", "B8", "B9"].map(|id| tpch_query(id).expect("in the catalogue")))
        .filter_map(|entry| Some((entry.id, entry.query?)))
        .collect();
    out.push(("A".to_string(), selectivity_query_a(1000.0)));
    out.push(("B".to_string(), selectivity_query_b(100_000.0)));
    out.push(("C".to_string(), fig12_query_c()));
    out.push(("D".to_string(), fig12_query_d()));
    out
}

/// FNV-1a over the answer in order: each tuple's `Debug` form (which tells
/// `Int(2)` from `Float(2.0)`) and the raw bits of its confidence.
fn digest(answer: &[(pdb_storage::Tuple, f64)]) -> u64 {
    let mut h = Fnv1a::default();
    for (tuple, p) in answer {
        h.eat(format!("{tuple:?}").as_bytes());
        h.eat(&p.to_bits().to_le_bytes());
    }
    h.finish()
}

/// One line per catalogue query: `prefix`, the query id, then the row count
/// and digest of the answer `run` computes — or `no <family> plan` for a
/// query whose FD-reduct is not hierarchical.
fn answer_table(
    prefix: &str,
    family: &str,
    run: impl Fn(&ConjunctiveQuery) -> PlanResult<Vec<(pdb_storage::Tuple, f64)>>,
) -> String {
    catalogue()
        .iter()
        .map(|(id, query)| match run(query) {
            Ok(answer) => format!(
                "{prefix}{id}: {} rows {:016x}\n",
                answer.len(),
                digest(&answer)
            ),
            Err(PlanError::UnsafeQuery { .. }) => format!("{prefix}{id}: no {family} plan\n"),
            Err(e) => panic!("{prefix}{id}: the {family} plan failed: {e}"),
        })
        .collect()
}

fn eager_table(catalog: &Catalog, pool: Pool) -> String {
    let fds = FdSet::from_catalog_decls(&catalog.fds());
    answer_table("", "eager", |q| {
        EagerPlan::build(q, &fds)?.with_pool(pool).execute(catalog)
    })
}

/// The MystiQ safe plan with the stable aggregation.
fn mystiq_table(catalog: &Catalog, pool: Pool) -> String {
    let fds = FdSet::from_catalog_decls(&catalog.fds());
    answer_table("mystiq ", "safe", |q| {
        SafePlan::build(q, &fds)?.with_pool(pool).execute(catalog)
    })
}

/// The pinned lines of one family: MystiQ's carry the `mystiq ` prefix.
fn pinned(mystiq: bool) -> String {
    PINNED
        .lines()
        .filter(|line| line.starts_with("mystiq ") == mystiq)
        .map(|line| format!("{line}\n"))
        .collect()
}

/// The columnar and the row catalog (TPC-H SF 0.01, seed 1), built once for
/// both tests.
fn catalogs() -> &'static (Catalog, Catalog) {
    static CATALOGS: OnceLock<(Catalog, Catalog)> = OnceLock::new();
    CATALOGS.get_or_init(|| {
        let data = TpchData::generate(TpchScale::new(0.01));
        (
            probabilistic_catalog_columnar(&data, 1).expect("columnar catalog"),
            probabilistic_catalog(&data, 1).expect("row catalog"),
        )
    })
}

/// Holds `table` to `pinned` on both backings at pools 1 and 8.
fn assert_pinned(table: fn(&Catalog, Pool) -> String, pinned: &str) {
    let (columnar, row) = catalogs();
    let got = table(columnar, Pool::new(1));
    assert_eq!(
        got, pinned,
        "a pinned answer moved; if intended, replace its lines of eager_pin.txt with:\n{got}"
    );
    assert_eq!(table(columnar, Pool::new(8)), pinned, "columnar, 8");
    assert_eq!(table(row, Pool::new(1)), pinned, "row, 1 thread");
    assert_eq!(table(row, Pool::new(8)), pinned, "row, 8 threads");
}

#[test]
fn eager_answers_match_the_pinned_digests_on_both_backings_and_pool_sizes() {
    assert_pinned(eager_table, &pinned(false));
}

#[test]
fn mystiq_answers_match_the_pinned_digests_on_both_backings_and_pool_sizes() {
    assert_pinned(mystiq_table, &pinned(true));
}
