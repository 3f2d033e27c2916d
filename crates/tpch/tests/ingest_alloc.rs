//! Peak heap during columnar set-up, held to the size of what it builds.
//!
//! `probabilistic_catalog_columnar` reads the generator's rows in place: it
//! allocates the columns, the zone maps, the variables and the probabilities
//! it keeps, and per-chunk scratch. It used to clone each table and copy the
//! clone into a `ProbTable` first — two row-format copies of `Item` alive at
//! once, several times the finished catalog. A tracking global allocator
//! (the pattern of `exec/tests/alloc_count.rs`, counting live bytes) keeps
//! that detour from coming back unnoticed. This file holds one test, so no
//! other test's allocations are charged to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pdb_tpch::{probabilistic_catalog_columnar, TpchData, TpchScale};

struct TrackingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

#[test]
fn columnar_set_up_peaks_within_half_again_of_the_catalog_it_keeps() {
    let data = TpchData::generate(TpchScale::new(0.01));
    let entry = LIVE.load(Ordering::Relaxed);
    PEAK.store(entry, Ordering::Relaxed);
    let catalog = probabilistic_catalog_columnar(&data, 1).expect("columnar catalog");
    let peak = PEAK.load(Ordering::Relaxed) - entry;
    let kept = LIVE.load(Ordering::Relaxed) - entry;
    assert_eq!(catalog.total_tuples(), data.total_tuples());
    assert!(
        2 * peak <= 3 * kept,
        "set-up peaked at {peak} bytes above entry to keep {kept}: something copies the rows again"
    );
}
