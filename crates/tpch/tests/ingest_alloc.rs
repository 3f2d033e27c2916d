//! Peak heap during columnar set-up, held to the size of what it builds.
//!
//! `probabilistic_catalog_columnar` reads the generator's rows in place: it
//! allocates the columns, the zone maps, the variables and the probabilities
//! it keeps, and per-chunk scratch. It used to clone each table and copy the
//! clone into a `ProbTable` first — two row-format copies of `Item` alive at
//! once, several times the finished catalog. The test kit's counting
//! allocator, tracking live bytes, keeps that detour from coming back
//! unnoticed.

use pdb_testkit::alloc::{live_bytes, peak_bytes, serial};
use pdb_tpch::{probabilistic_catalog_columnar, TpchData, TpchScale};

#[global_allocator]
static GLOBAL: pdb_testkit::alloc::Counting = pdb_testkit::alloc::Counting;

#[test]
fn columnar_set_up_peaks_within_half_again_of_the_catalog_it_keeps() {
    let _serial = serial();
    let data = TpchData::generate(TpchScale::new(0.01));
    let entry = live_bytes();
    let (catalog, peak) =
        peak_bytes(|| probabilistic_catalog_columnar(&data, 1).expect("columnar catalog"));
    let kept = live_bytes() - entry;
    assert_eq!(catalog.total_tuples(), data.total_tuples());
    assert!(
        2 * peak <= 3 * kept,
        "set-up peaked at {peak} bytes above entry to keep {kept}: something copies the rows again"
    );
}
