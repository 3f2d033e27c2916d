//! The fallback plan's brackets on the unsafe catalogue queries, pinned bit
//! for bit.
//!
//! `FallbackPlan::execute` under `Bounds { eps }` promises the same tuples,
//! the same `lo` / `hi` *bits* and the same number of refinement rounds at
//! every pool size for a fixed seed. `anytime_pin.txt` holds one digest per
//! query for Q8, Q9, B8 and B9 (TPC-H SF 0.01, catalog seed 1, refinement
//! seed 1, `eps = 1e-3`, the benchmark's 4 MiB frontier cap), generated at
//! the commit before read-once factorization went near-linear. Every step of
//! a refinement round decides a bit — the shape of the read-once tree, the
//! candidate list the seeded tie-break indexes, the clause order of the
//! crude bounds, the structural frontier cap — so a change to any of them
//! fails here, in tier-1, not only in `sprout_bench`'s golden digests. A
//! deliberate change of the brackets regenerates the file from the table
//! this test prints on a mismatch.
//!
//! Cost: 7 s in a debug build for both pool sizes (66 s at the commit that
//! generated the table, which is why tier-1 had no such test before).

use pdb_storage::Catalog;
use pdb_testkit::Fnv1a;
use pdb_tpch::{probabilistic_catalog_columnar, tpch_query, TpchData, TpchScale};
use sprout_plan::fallback::FallbackPlan;
use sprout_plan::{ApproxPolicy, Pool};

const PINNED: &str = include_str!("anytime_pin.txt");

/// `sprout_bench`'s `unsafe_bounds` settings.
const EPS: f64 = 1e-3;
const FRONTIER_BUDGET: usize = 4 << 20;
const SEED: u64 = 1;

/// One line per query: answer count, how many answers needed refinement,
/// total rounds, and an FNV-1a digest over each answer's tuple (`Debug`
/// form), `lo` bits, `hi` bits and rounds, in answer order.
fn anytime_table(catalog: &Catalog, pool: Pool) -> String {
    ["8", "9", "B8", "B9"]
        .iter()
        .map(|id| {
            let query = tpch_query(id)
                .and_then(|entry| entry.query)
                .unwrap_or_else(|| panic!("TPC-H query {id} is in the catalogue"));
            let answer = FallbackPlan::build(&query, catalog, ApproxPolicy::Bounds { eps: EPS })
                .unwrap_or_else(|e| panic!("{id}: building the fallback plan failed: {e}"))
                .with_pool(pool)
                .with_seed(SEED)
                .with_frontier_budget(Some(FRONTIER_BUDGET))
                .execute(catalog)
                .unwrap_or_else(|e| panic!("{id}: fallback plan failed: {e}"));
            let mut h = Fnv1a::default();
            for t in &answer {
                h.eat(format!("{:?}", t.tuple).as_bytes());
                h.eat(&t.lo.to_bits().to_le_bytes());
                h.eat(&t.hi.to_bits().to_le_bytes());
                h.eat(&(t.rounds as u64).to_le_bytes());
            }
            let refined = answer.iter().filter(|t| t.rounds > 0).count();
            let rounds: usize = answer.iter().map(|t| t.rounds).sum();
            format!(
                "{id}: {} answers {refined} refined {rounds} rounds {:016x}\n",
                answer.len(),
                h.finish()
            )
        })
        .collect()
}

#[test]
fn anytime_brackets_match_the_pinned_digests_at_both_pool_sizes() {
    let data = TpchData::generate(TpchScale::new(0.01));
    let catalog = probabilistic_catalog_columnar(&data, 1).expect("columnar catalog");
    let got = anytime_table(&catalog, Pool::new(1));
    assert_eq!(
        got, PINNED,
        "a bracket moved; if intended, replace anytime_pin.txt with:\n{got}"
    );
    assert_eq!(anytime_table(&catalog, Pool::new(8)), PINNED, "8 threads");
}
