//! Peak heap during columnar set-up, held to the size of what it builds.
//!
//! `TpchData::generate` streams each relation's rows through a columnar
//! builder a few chunks at a time, and `probabilistic_catalog_columnar`
//! shares the finished columns, adding only the variables and
//! probabilities. So from before the generator runs until the catalog
//! stands, the live heap is what the catalog keeps plus per-piece scratch
//! of at most 8 chunks per relation, whatever the thread count. Generating row tables
//! first — the whole database as `Vec<Value>` rows beside the columns — peaks
//! at several times the catalog; the test kit's counting allocator, tracking
//! live bytes, keeps any such copy from coming back unnoticed.

use pdb_testkit::alloc::{live_bytes, peak_bytes, serial};
use pdb_tpch::{probabilistic_catalog_columnar, TpchData, TpchScale};

#[global_allocator]
static GLOBAL: pdb_testkit::alloc::Counting = pdb_testkit::alloc::Counting;

#[test]
fn columnar_set_up_peaks_within_half_again_of_the_catalog_it_keeps() {
    let _serial = serial();
    let entry = live_bytes();
    let ((data, catalog), peak) = peak_bytes(|| {
        let data = TpchData::generate(TpchScale::new(0.01));
        let catalog = probabilistic_catalog_columnar(&data, 1).expect("columnar catalog");
        (data, catalog)
    });
    let tuples = data.total_tuples();
    drop(data);
    let kept = live_bytes() - entry;
    assert_eq!(catalog.total_tuples(), tuples);
    assert!(
        2 * peak <= 3 * kept,
        "set-up peaked at {peak} bytes above entry to keep {kept}: something copies the rows"
    );
}
