//! A counting global allocator for allocation-budget tests.
//!
//! [`Counting`] forwards to [`System`] and counts, per thread, every
//! allocation and reallocation and the bytes each one requests. Because
//! the counters are thread-local, tests running in parallel in one binary
//! cannot pollute each other's counts. It also keeps one process-wide
//! gauge, [`live_bytes`]: the bytes allocated and not yet freed by any
//! thread, for tests that must see memory another thread holds. A test
//! binary opts in by declaring the static itself:
//!
//! ```
//! use mg_testkit::alloc::{counts, Counting};
//!
//! #[global_allocator]
//! static GLOBAL: Counting = Counting;
//!
//! fn main() {
//!     let (a0, b0) = counts();
//!     let v = vec![1u8; 16];
//!     let (a1, b1) = counts();
//!     assert_eq!((a1 - a0, b1 - b0), (1, 16));
//!     drop(v);
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to [`System`], counting every allocation and reallocation the
/// current thread makes and the bytes each one requests.
pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Bytes allocated and not yet freed, by every thread.
static LIVE: AtomicU64 = AtomicU64::new(0);

fn note_alloc(bytes: usize) {
    // `try_with`: the slots may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Allocations (and reallocations) made by the current thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// `(allocations, bytes requested)` by the current thread so far.
pub fn counts() -> (u64, u64) {
    (allocs(), BYTES.with(Cell::get))
}

/// Bytes allocated and not yet freed, by every thread of the process.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Adds `bytes` to the live gauge when the allocation behind `ptr`
/// succeeded, and hands `ptr` back.
fn note_live(ptr: *mut u8, bytes: usize) -> *mut u8 {
    if !ptr.is_null() {
        LIVE.fetch_add(bytes as u64, Ordering::Relaxed);
    }
    ptr
}

// SAFETY: every method forwards to `System` unchanged; counting touches only
// const-initialized thread-local `Cell`s and one atomic, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        note_live(System.alloc(layout), layout.size())
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        note_live(System.alloc_zeroed(layout), layout.size())
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        let moved = System.realloc(ptr, layout, new_size);
        // A failed realloc leaves the old block in place.
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        note_live(moved, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}
