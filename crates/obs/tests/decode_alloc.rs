//! What decoding a binary journal allocates, counted by mg-testkit's
//! counting global allocator.
//!
//! The allocator counts only the calling thread's allocations, and this
//! file holds nothing else, so tests running in parallel cannot pollute a
//! count.

use mg_dcf::{Dest, Frame, FrameKind, MacSdu, RtsFields};
use mg_obs::{JournalFormat, JournalReader, Obs, ObsJournal, ObsMeta};
use mg_sim::{SimDuration, SimTime};
use mg_testkit::alloc::{allocs, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A journal with every event kind and every frame kind, including empty
/// and non-empty ranging vectors.
fn journal() -> ObsJournal {
    let mut j = ObsJournal::new(ObsMeta {
        tagged: 3,
        vantages: vec![4, 9],
        pair_distance: 240.0,
        seed: 11,
        params: vec![("kind".into(), "grid".into())],
    });
    for i in 0..3_000u64 {
        let at = SimTime::from_nanos(1_000 + i * 9_000);
        let kind = match i % 4 {
            0 => FrameKind::Rts(RtsFields {
                seq_off_wire: (i % 512) as u16,
                attempt: (i % 7) as u8,
                md: [(i % 251) as u8; 16],
            }),
            1 => FrameKind::Cts,
            2 => FrameKind::Data {
                sdu: MacSdu {
                    id: i,
                    dst: Dest::Unicast(4),
                    payload_len: 512,
                },
            },
            _ => FrameKind::Ack,
        };
        let frame = Frame {
            src: (i % 20) as usize,
            dst: Dest::Unicast(9),
            duration: SimDuration::from_nanos(300_000),
            kind,
        };
        let end = at + SimDuration::from_nanos(500);
        j.push(match i % 7 {
            0 => Obs::ChannelEdge {
                node: 4,
                busy: i % 2 == 0,
                at,
            },
            1 => Obs::TxStart {
                src: 9,
                frame,
                at,
                end,
            },
            2 => Obs::Decoded {
                at: 4,
                frame,
                start: at,
                end,
            },
            3 => Obs::Garbled { at: 9, now: at },
            4 => Obs::Ranging {
                from: 3,
                to: vec![(4, 100.0 + (i % 13) as f64), (9, 210.5)],
                at,
            },
            5 => Obs::Ranging {
                from: 3,
                to: vec![],
                at,
            },
            _ => Obs::ChannelEdge {
                node: 9,
                busy: true,
                at,
            },
        });
    }
    j
}

/// Iterating a binary journal allocates exactly once per `Obs::Ranging`
/// event whose vector is non-empty (the vector the event owns), and never
/// for any other event.
#[test]
fn binary_events_allocate_only_for_ranging_vectors() {
    let j = journal();
    let reader = JournalReader::from_bytes(j.encode(JournalFormat::Binary)).expect("opens");
    let mut events = reader.events();
    let (mut n, mut owned) = (0, 0);
    loop {
        let a0 = allocs();
        let Some(r) = events.next() else { break };
        let made = allocs() - a0;
        let o = r.expect("decodes");
        let want = u64::from(matches!(&o, Obs::Ranging { to, .. } if !to.is_empty()));
        assert_eq!(made, want, "event {n}: {o:?}");
        assert_eq!(o, j.events()[n]);
        n += 1;
        owned += want;
    }
    assert_eq!(n, j.len());
    assert!(owned > 0 && owned < n as u64);
}
