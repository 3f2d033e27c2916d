//! Peak heap during columnar set-up, held to the size of what it builds.
//!
//! `TpchData::generate` draws each relation straight into typed vectors,
//! reserved for their final length, which become the relation's columns
//! without a copy; `probabilistic_catalog_columnar` shares the finished
//! columns, adding only the variables and probabilities. So from before the
//! generator runs until the catalog stands, the live heap is what the
//! catalog keeps plus a few chunks of scratch, whatever the thread count:
//! measured at 1.00 × on one thread and on eight. Generating row tables
//! first — the whole database as `Vec<Value>` rows beside the columns —
//! peaked at 4.07 ×, and streaming rows through a row builder in pieces of
//! up to 8 chunks at up to 1.33 × (eight threads); the test kit's counting
//! allocator, tracking live bytes, keeps any such copy from coming back
//! unnoticed.
//!
//! What the catalog keeps is held too. Integer, date, dictionary-code and
//! variable columns are packed — a base plus the narrowest words that hold
//! each column's range — so at SF 0.01 the catalog keeps 3 278 189 bytes
//! where, with 8-byte integers and variables and 4-byte dates and codes, it
//! kept 6 794 371: 48 %, at 1.00 × peak on one thread and on eight. A
//! column that goes back to wide words fails here.

use pdb_testkit::alloc::{live_bytes, peak_bytes, serial};
use pdb_tpch::{probabilistic_catalog_columnar, TpchData, TpchScale};

#[global_allocator]
static GLOBAL: pdb_testkit::alloc::Counting = pdb_testkit::alloc::Counting;

#[test]
fn columnar_set_up_peaks_within_five_percent_of_the_catalog_it_keeps() {
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
        20 * peak <= 21 * kept,
        "set-up peaked at {peak} bytes above entry to keep {kept}: something copies the columns"
    );
    assert!(
        100 * kept <= 55 * WIDE_CATALOG_BYTES,
        "the SF 0.01 catalog keeps {kept} bytes, over 55 % of the {WIDE_CATALOG_BYTES} \
         its columns took at 8 bytes an integer and 4 a date or code"
    );
}

/// The bytes the SF 0.01 columnar catalog kept when every integer and
/// variable took 8 bytes a row and every date and dictionary code 4.
const WIDE_CATALOG_BYTES: usize = 6_794_371;
