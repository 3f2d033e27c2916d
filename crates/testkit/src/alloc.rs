//! The counting global allocator of the allocation tests.
//!
//! A test binary installs it with one line,
//!
//! ```text
//! #[global_allocator]
//! static GLOBAL: pdb_testkit::alloc::Counting = pdb_testkit::alloc::Counting;
//! ```
//!
//! and measures a closure with [`allocations`] (how many blocks it asks for),
//! [`allocations_of_at_least`] (how many of them are large) or
//! [`peak_bytes`] (how far its live heap rises). The counters are
//! process-wide and the test harness runs tests on parallel threads, so
//! every measuring test holds [`serial`] for its whole body.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Counts every allocation and reallocation, and the bytes live.
pub struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Blocks of at least [`LARGE_BYTES`] bytes (none while it is `usize::MAX`).
static LARGE: AtomicUsize = AtomicUsize::new(0);
static LARGE_BYTES: AtomicUsize = AtomicUsize::new(usize::MAX);

fn grow(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if bytes >= LARGE_BYTES.load(Ordering::Relaxed) {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method passes the caller's contract through to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
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

static SERIAL: Mutex<()> = Mutex::new(());

/// Held by a test for its whole body, so another test's allocations are
/// never charged to its measurement.
pub fn serial() -> MutexGuard<'static, ()> {
    // A failed assertion in another test poisons the lock; the counters
    // themselves are still consistent.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `f`'s result and the allocations and reallocations it made.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// `f`'s result and the allocations and reallocations of at least `bytes`
/// bytes it made.
pub fn allocations_of_at_least<T>(bytes: usize, f: impl FnOnce() -> T) -> (T, usize) {
    LARGE.store(0, Ordering::Relaxed);
    LARGE_BYTES.store(bytes, Ordering::Relaxed);
    let out = f();
    LARGE_BYTES.store(usize::MAX, Ordering::Relaxed);
    (out, LARGE.load(Ordering::Relaxed))
}

/// The bytes live now.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// `f`'s result and the most bytes live during it beyond those live when it
/// started.
pub fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = live_bytes();
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - before)
}
