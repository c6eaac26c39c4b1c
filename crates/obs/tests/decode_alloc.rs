//! What decoding a binary journal allocates, counted by mg-testkit's
//! counting global allocator.
//!
//! The allocator counts only the calling thread's allocations, and this
//! file holds nothing else, so tests running in parallel cannot pollute a
//! count.

use mg_dcf::{Dest, Frame, FrameKind, MacSdu, RtsFields};
use mg_obs::{Distances, JournalFormat, JournalReader, Obs, ObsJournal, ObsMeta};
use mg_sim::{SimDuration, SimTime};
use mg_testkit::alloc::{allocs, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A journal with every event kind and every frame kind, and ranging
/// snapshots of 0, 1, 2 and 4 pairs (inline) and of 5 and 111 pairs
/// (spilled).
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
                to: (0..[1, 2, 4, 5, 111][(i / 7 % 5) as usize])
                    .map(|v| (4 + v, 100.0 + ((i + v as u64) % 13) as f64))
                    .collect(),
                at,
            },
            5 => Obs::Ranging {
                from: 3,
                to: Distances::new(),
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
/// event whose snapshot spills past the inline slots (the vector the event
/// owns), and never for any other event.
#[test]
fn binary_events_allocate_only_for_spilled_snapshots() {
    let j = journal();
    let reader = JournalReader::from_bytes(j.encode(JournalFormat::Binary)).expect("opens");
    let mut events = reader.events();
    let (mut n, mut owned, mut sizes) = (0, 0, Vec::new());
    loop {
        let a0 = allocs();
        let Some(r) = events.next() else { break };
        let made = allocs() - a0;
        let o = r.expect("decodes");
        let want = match &o {
            Obs::Ranging { to, .. } => {
                if !sizes.contains(&to.len()) {
                    sizes.push(to.len());
                }
                u64::from(to.len() > Distances::INLINE)
            }
            _ => 0,
        };
        assert_eq!(made, want, "event {n}: {o:?}");
        assert_eq!(o, j.events()[n]);
        n += 1;
        owned += want;
    }
    assert_eq!(n, j.len());
    assert!(owned > 0 && owned < n as u64);
    sizes.sort_unstable();
    assert_eq!(sizes, [0, 1, 2, 4, 5, 111]);
}
