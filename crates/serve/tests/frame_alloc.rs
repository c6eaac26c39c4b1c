//! What `read_frame` allocates, counted by a std-only global allocator.
//!
//! The allocator counts only the calling thread's allocations and the
//! bytes they request, and this file holds nothing else, so tests running
//! in parallel cannot pollute a count. A frame's length prefix is a claim
//! by the peer; the buffer must grow with the bytes that actually arrive.

use mg_serve::wire::{read_frame, write_frame, MAX_FRAME};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::ErrorKind;

/// Forwards to [`System`], counting every allocation and reallocation the
/// current thread makes and the bytes each one requests.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc(bytes: usize) {
    // `try_with`: the slots may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// `(allocations, bytes requested)` by the current thread so far.
fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

// SAFETY: every method forwards to `System` unchanged; counting touches only
// const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Reads one frame from `wire`, returning the result and the
/// `(allocations, bytes requested)` the read made.
fn counted_read(wire: &[u8]) -> (std::io::Result<Option<Vec<u8>>>, (u64, u64)) {
    let mut r = wire;
    let (a0, b0) = counts();
    let got = read_frame(&mut r);
    let (a1, b1) = counts();
    (got, (a1 - a0, b1 - b0))
}

/// A peer that claims a maximal frame, sends 16 bytes and hangs up gets
/// `UnexpectedEof`, and the claim never turns into a 64 MiB buffer.
#[test]
fn a_maximal_claim_with_a_short_payload_allocates_little() {
    let mut wire = (MAX_FRAME as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&[0xAB; 16]);
    let (got, (_, bytes)) = counted_read(&wire);
    assert_eq!(got.unwrap_err().kind(), ErrorKind::UnexpectedEof);
    assert!(bytes < 2 << 20, "requested {bytes} bytes for 16 received");
}

/// An honest 64 KiB frame round-trips in exactly one allocation of exactly
/// its payload length.
#[test]
fn an_honest_64_kib_frame_round_trips_in_one_allocation() {
    let payload: Vec<u8> = (0..64 << 10).map(|i| (i * 31 % 251) as u8).collect();
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    let (got, (allocs, bytes)) = counted_read(&wire);
    assert_eq!(got.unwrap().as_deref(), Some(payload.as_slice()));
    assert_eq!((allocs, bytes), (1, payload.len() as u64));
}

/// A frame larger than the first reservation still arrives whole: the
/// buffer grows as bytes are read.
#[test]
fn a_frame_past_the_first_reservation_round_trips() {
    let payload: Vec<u8> = (0..3 << 20).map(|i| (i * 7 % 253) as u8).collect();
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    let (got, _) = counted_read(&wire);
    assert_eq!(got.unwrap().as_deref(), Some(payload.as_slice()));
}
