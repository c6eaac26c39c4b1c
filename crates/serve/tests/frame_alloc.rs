//! What `read_frame` and decoding a frame allocate, counted by
//! mg-testkit's counting global allocator.
//!
//! The allocator counts only the calling thread's allocations and the
//! bytes they request, and this file holds nothing else, so tests running
//! in parallel cannot pollute a count. A frame's length prefix is a claim
//! by the peer; the buffer must grow with the bytes that actually arrive.

use mg_dcf::{Dest, Frame, FrameKind};
use mg_obs::{JournalFormat, JournalReader, JournalWriter, Obs, ObsMeta, ObsSink};
use mg_serve::wire::{read_frame, write_frame, MAX_FRAME};
use mg_sim::{SimDuration, SimTime};
use mg_testkit::alloc::{allocs, counts, Counting};
use std::io::ErrorKind;

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

/// One framed chunk of `n` events from a static monitor's stream. Every
/// fifth event is a one-pair `Ranging`; the others cycle through channel
/// edges, two decoded frames and a garble, so chunks of any length share
/// the same frame and ranging tables.
fn static_chunk(n: u64) -> Vec<u8> {
    let meta = ObsMeta {
        tagged: 3,
        vantages: vec![4],
        pair_distance: 240.0,
        seed: 1,
        params: vec![("kind".into(), "pair".into())],
    };
    let frame = |kind| Frame {
        src: 3,
        dst: Dest::Unicast(4),
        duration: SimDuration::from_nanos(300_000),
        kind,
    };
    let mut w = JournalWriter::new(JournalFormat::Binary, &meta);
    for i in 0..n {
        let at = SimTime::from_nanos(1_000 + i * 7_000);
        w.ingest(&match i % 5 {
            0 => Obs::Ranging {
                from: 3,
                to: [(4, [150.0, 240.0][(i / 5 % 2) as usize])].into_iter().collect(),
                at,
            },
            1 | 3 => Obs::ChannelEdge { node: 4, busy: i % 5 == 1, at },
            2 => Obs::Decoded {
                at: 4,
                frame: frame(if i % 2 == 0 { FrameKind::Cts } else { FrameKind::Ack }),
                start: at,
                end: at + SimDuration::from_nanos(500),
            },
            _ => Obs::Garbled { at: 4, now: at },
        });
    }
    let mut wire = Vec::new();
    write_frame(&mut wire, &w.finish()).unwrap();
    wire
}

/// Allocations made by reading `wire`'s one frame, opening it as a journal
/// and decoding every event; also returns the event count.
fn decode_allocs(wire: &[u8]) -> (u64, usize) {
    let mut r = wire;
    let a0 = allocs();
    let payload = read_frame(&mut r).unwrap().expect("one frame");
    let reader = JournalReader::from_bytes(payload).expect("opens");
    let mut n = 0;
    for o in reader.events() {
        o.expect("decodes");
        n += 1;
    }
    (allocs() - a0, n)
}

/// Decoding a static monitor's chunk costs a fixed number of allocations
/// (the frame buffer, the header and the tables), however many events and
/// one-pair `Ranging` snapshots the chunk holds.
#[test]
fn a_static_chunk_decodes_in_allocations_independent_of_its_length() {
    let (small, n_small) = decode_allocs(&static_chunk(1_024));
    let (large, n_large) = decode_allocs(&static_chunk(4_096));
    assert_eq!((n_small, n_large), (1_024, 4_096));
    assert_eq!(small, large, "1,024 events: {small} allocations; 4,096 events: {large}");
}
