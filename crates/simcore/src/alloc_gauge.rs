//! A counting global allocator for allocation-regression gates.
//!
//! The simulation is deterministic and single-threaded, so the number
//! of allocator calls for a fixed scenario is a stable, reproducible
//! metric — and "zero allocations per steady-state round" is a property
//! a test can assert exactly. This module promotes the PR-3 counting
//! allocator (formerly private to `e10-romio/tests/alloc_count.rs`)
//! into a reusable gauge that any bin or test can install:
//!
//! ```ignore
//! use e10_simcore::alloc_gauge::{self, CountingAlloc};
//!
//! #[global_allocator]
//! static A: CountingAlloc = CountingAlloc;
//!
//! let (n, _) = alloc_gauge::count(|| expensive_scenario());
//! println!("allocator calls: {n}");
//! ```
//!
//! Counting covers `alloc` and `realloc` (a `realloc` is a fresh
//! allocator round-trip even when it resizes in place); `dealloc` is
//! free. The counter and the enable flag are per-thread: every
//! simulation runs on exactly one thread, so "this thread's window" is
//! exactly "this run" — concurrent libtest threads or bench pool
//! workers never leak allocations into each other's counts.
//!
//! When `CountingAlloc` is *not* installed as the global allocator the
//! helpers still run the closure; they just report 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// SipHash under fixed keys, for a `HashMap` a simulation both inserts
/// into and removes from. A table that has seen removals grows when
/// its tombstones run out, not its entries, and where a tombstone
/// falls depends on the hash values: under `RandomState`'s per-map
/// random keys the number of allocator calls is no longer a function
/// of the run (a volume that cycles 16 files came out one call over
/// about once in a thousand runs, which the repo benchmark's
/// repetition check reports as a failed run).
pub type FixedState = BuildHasherDefault<DefaultHasher>;

static BT_LO: AtomicU64 = AtomicU64::new(u64::MAX);
static BT_HI: AtomicU64 = AtomicU64::new(u64::MAX);

// `const`-initialised `Cell`s of `Copy` types: no lazy init and no
// destructor, so touching them from inside the allocator can neither
// allocate nor observe a torn-down slot.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static IN_HOOK: Cell<bool> = const { Cell::new(false) };
}

/// Debug aid for allocation hunts: print a backtrace for every counted
/// allocation whose ordinal falls in `[lo, hi)`. `RUST_BACKTRACE=1`
/// must be set for symbols. The range is process-wide (ordinals are
/// per-thread); disabled (the default) it costs one atomic load per
/// counted allocation.
pub fn trace_range(lo: u64, hi: u64) {
    BT_LO.store(lo, Ordering::Relaxed);
    BT_HI.store(hi, Ordering::Relaxed);
}

fn note_alloc() {
    if !COUNTING.get() {
        return;
    }
    let n = ALLOCS.get();
    ALLOCS.set(n + 1);
    if n >= BT_LO.load(Ordering::Relaxed) && n < BT_HI.load(Ordering::Relaxed) {
        IN_HOOK.with(|f| {
            if !f.get() {
                f.set(true);
                eprintln!(
                    "alloc #{n} at:\n{}",
                    std::backtrace::Backtrace::force_capture()
                );
                f.set(false);
            }
        });
    }
}

/// A `System`-backed allocator that counts `alloc`/`realloc` calls
/// while counting is enabled. Install with `#[global_allocator]`.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

impl CountingAlloc {
    /// `const` constructor so the static can note its installation.
    /// (Installation detection relies on the first `alloc` call; this
    /// exists for symmetry and future flags.)
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

/// Allocator calls this thread has counted since its last [`reset`].
pub fn allocs() -> u64 {
    ALLOCS.get()
}

/// Zero this thread's counter.
pub fn reset() {
    ALLOCS.set(0);
}

/// Enable counting on this thread (idempotent).
pub fn enable() {
    COUNTING.set(true);
}

/// Disable counting on this thread (idempotent).
pub fn disable() {
    COUNTING.set(false);
}

/// Count allocator calls across `f`, returning `(calls, f())`.
///
/// Resets the counter, so it measures `f` alone; nesting is not
/// supported (the inner `count` would clobber the outer window).
pub fn count<R>(f: impl FnOnce() -> R) -> (u64, R) {
    reset();
    enable();
    let out = f();
    disable();
    (allocs(), out)
}
