//! Peak scratch memory of [`factorize`], measured with a counting allocator.
//!
//! The frontier cap and the governor charge the anytime loop for the
//! formulas it keeps, not for what a `factorize` call allocates on the side,
//! so that scratch has to stay a small multiple of the formula itself. The
//! co-component search used to ask for a dense `n × ⌈n/64⌉`-word adjacency
//! matrix: 6.6 MB on a 7 272-variable bag, 1.25 GB on the 100 000-variable
//! chain below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use pdb_lineage::{factorize, Clause, Dnf, Factorization};
use pdb_storage::Variable;

struct PeakAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // The old block stays live until the copy is done.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// The counters are process-wide and the test harness runs tests on parallel
/// threads: every test holds this lock for its whole body so another test's
/// allocations are never charged to its measurement.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed assertion in another test poisons the lock; the counters
    // themselves are still consistent.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The most bytes live during `f` beyond those live when it started.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - before)
}

/// What the frontier charges for a formula: its clauses and their variables.
fn formula_bytes(dnf: &Dnf) -> usize {
    let clause = |c: &Clause| std::mem::size_of::<Clause>() + std::mem::size_of_val(c.vars());
    dnf.clauses().iter().map(clause).sum()
}

#[test]
fn a_blocked_chain_over_100_000_variables_factorizes_in_linear_scratch() {
    let _serial = serial();
    // x₁x₂ ∨ x₂x₃ ∨ … : one ∨-component (consecutive clauses share a
    // variable) and one co-component (the complement of a path is
    // connected), so the whole chain is the witness.
    let chain = Dnf::new((0..99_999u64).map(|i| Clause::new([Variable(i), Variable(i + 1)])));
    let input = formula_bytes(&chain);
    let (result, peak) = peak_bytes(|| factorize(&chain));
    match result {
        Factorization::Blocked(witness) => assert_eq!(witness.len(), chain.len()),
        other => panic!("expected blocked, got {other:?}"),
    }
    // Ids, one CSR in clause order, one in canonical order with its ranks,
    // the scratch — the permutation, the occurrence index, the per-variable
    // search state — then the stuck clause set, and after the scratch is
    // freed the witness, which is a formula as large as the input (3.2 ×
    // the input at the peak; 3.0 × when the decomposition consumed a copy of
    // the formula and freed its index between steps).
    assert!(
        peak <= 4 * input,
        "factorize peaked at {peak} bytes on a {input}-byte formula"
    );
}
