//! Property-based tests for the Obs codec and journal (mg-testkit harness).
//! Every byte is written by `JournalWriter` and read by `JournalReader`,
//! the crate's one encoder and one decoder. JSONL is export-only: its
//! bytes are pinned against goldens and refused by the reader.

use mg_dcf::{Dest, Frame, FrameKind, MacSdu, RtsFields};
use mg_obs::{
    Distances, JournalError, JournalFormat, JournalReader, JournalWriter, Obs, ObsJournal, ObsMeta,
    ObsSink,
};
use mg_sim::{SimDuration, SimTime};
use mg_testkit::prop::{check, Gen, TkResult};
use mg_testkit::{tk_assert, tk_assert_eq};

fn gen_dest(g: &mut Gen) -> Dest {
    if g.bool() {
        Dest::Broadcast
    } else {
        Dest::Unicast(g.usize_in(0..200))
    }
}

fn gen_frame(g: &mut Gen) -> Frame {
    let kind = match g.u8_in(0..4) {
        0 => {
            let mut md = [0u8; 16];
            for b in md.iter_mut() {
                *b = g.any_u8();
            }
            FrameKind::Rts(RtsFields {
                seq_off_wire: g.u16_in(0..(1 << 13)),
                attempt: g.u8_in(0..8),
                md,
            })
        }
        1 => FrameKind::Cts,
        2 => FrameKind::Data {
            sdu: MacSdu {
                id: g.any_u64() >> 12,
                dst: gen_dest(g),
                payload_len: g.u16_in(0..2312),
            },
        },
        _ => FrameKind::Ack,
    };
    Frame {
        src: g.usize_in(0..200),
        dst: gen_dest(g),
        duration: SimDuration::from_nanos(g.u64_in(0..10_000_000_000)),
        kind,
    }
}

fn gen_time(g: &mut Gen) -> SimTime {
    SimTime::from_nanos(g.u64_in(0..1_000_000_000_000))
}

fn gen_obs(g: &mut Gen) -> Obs {
    match g.u8_in(0..5) {
        0 => Obs::ChannelEdge {
            node: g.usize_in(0..200),
            busy: g.bool(),
            at: gen_time(g),
        },
        1 => Obs::TxStart {
            src: g.usize_in(0..200),
            frame: gen_frame(g),
            at: gen_time(g),
            end: gen_time(g),
        },
        2 => Obs::Decoded {
            at: g.usize_in(0..200),
            frame: gen_frame(g),
            start: gen_time(g),
            end: gen_time(g),
        },
        3 => Obs::Garbled {
            at: g.usize_in(0..200),
            now: gen_time(g),
        },
        _ => Obs::Ranging {
            from: g.usize_in(0..200),
            to: g.vec(0..6, |g| (g.usize_in(0..200), g.f64_in(0.1..500.0))).into(),
            at: gen_time(g),
        },
    }
}

/// A header a detector session can be built from: the readers refuse the
/// others (`hostile_headers_are_refused`), so vantages skip the tagged node.
fn gen_meta(g: &mut Gen) -> ObsMeta {
    let tagged = g.usize_in(0..200);
    ObsMeta {
        tagged,
        vantages: g.vec(1..5, |g| {
            let v = g.usize_in(0..199);
            if v >= tagged {
                v + 1
            } else {
                v
            }
        }),
        pair_distance: g.f64_in(1.0..500.0),
        seed: g.any_u64(),
        params: g.vec(0..4, |g| {
            (format!("k{}", g.u8_in(0..10)), format!("v{}", g.any_u8()))
        }),
    }
}

fn gen_journal(g: &mut Gen, max_events: usize) -> ObsJournal {
    let mut j = ObsJournal::new(gen_meta(g));
    for _ in 0..g.usize_in(0..max_events) {
        j.push(gen_obs(g));
    }
    j
}

/// Decodes a whole journal through the reader, as a test failure on error.
fn read(bytes: Vec<u8>) -> Result<ObsJournal, mg_testkit::TkError> {
    JournalReader::from_bytes(bytes)
        .and_then(|r| r.read_journal())
        .map_err(|e| mg_testkit::TkError::Fail(format!("decode: {e}")))
}

/// `encode ∘ decode ≡ id` for single events of every kind, through a
/// one-event binary journal.
#[test]
fn obs_codec_round_trips() {
    check("obs_codec_round_trips", |g: &mut Gen| -> TkResult {
        let mut j = ObsJournal::new(gen_meta(g));
        j.push(gen_obs(g));
        tk_assert_eq!(read(j.encode(JournalFormat::Binary))?, j);
        Ok(())
    });
}

/// The magic error every buffer without the binary magic gets.
fn no_magic(bytes: Vec<u8>) -> bool {
    matches!(
        JournalReader::from_bytes(bytes).err(),
        Some(JournalError::Corrupt { offset: 0, what }) if what.contains("MGOBSJ magic")
    )
}

/// The JSONL export is pinned byte for byte, so it cannot drift unnoticed
/// now that no decoder reads it back: `fixed_journal()` against a golden
/// file, and the frame kinds and broadcast destinations that journal
/// lacks against an inline one. The reader refuses the export.
#[test]
fn jsonl_export_is_pinned() {
    let golden: &[u8] = include_bytes!("fixed_journal.jsonl");
    let text = fixed_journal().encode(JournalFormat::Jsonl);
    assert!(text == golden, "{}", String::from_utf8_lossy(&text));
    assert!(no_magic(text));

    let mut j = ObsJournal::new(ObsMeta {
        tagged: 0,
        vantages: vec![1],
        pair_distance: 0.5,
        seed: u64::MAX,
        params: vec![("note".into(), "quote \" and \\ and é".into())],
    });
    let at = SimTime::from_nanos(7);
    let data = |dst| Frame {
        src: 2,
        dst: Dest::Unicast(1),
        duration: SimDuration::from_nanos(44),
        kind: FrameKind::Data {
            sdu: MacSdu {
                id: 9,
                dst,
                payload_len: 512,
            },
        },
    };
    j.push(Obs::TxStart {
        src: 2,
        frame: data(Dest::Unicast(5)),
        at,
        end: at,
    });
    j.push(Obs::Decoded {
        at: 1,
        frame: data(Dest::Broadcast),
        start: at,
        end: at,
    });
    let ack = Frame {
        src: 1,
        dst: Dest::Broadcast,
        duration: SimDuration::ZERO,
        kind: FrameKind::Ack,
    };
    j.push(Obs::TxStart {
        src: 1,
        frame: ack,
        at,
        end: at,
    });
    assert_eq!(
        String::from_utf8(j.encode(JournalFormat::Jsonl)).unwrap(),
        concat!(
            r#"{"tagged":0,"vantages":[1],"pair_distance":0.5,"seed":"18446744073709551615","params":[["note","quote \" and \\ and é"]]}"#,
            "\n",
            r#"["tx",2,7,7,{"src":2,"dst":1,"dur":44,"kind":{"data":{"id":9,"dst":5,"len":512}}}]"#,
            "\n",
            r#"["rx",1,7,7,{"src":2,"dst":1,"dur":44,"kind":{"data":{"id":9,"dst":null,"len":512}}}]"#,
            "\n",
            r#"["tx",1,7,7,{"src":1,"dst":null,"dur":0,"kind":"ack"}]"#,
            "\n",
        )
    );
}

/// Anything without the binary magic is refused at open with one typed
/// error naming the magic: empty input, text, a JSONL header alone, a
/// JSONL journal with a truncated event, a JSONL header of a million
/// nested `[`, and a cut-off magic.
#[test]
fn malformed_journals_are_rejected() {
    let good = ObsJournal::new(ObsMeta {
        tagged: 0,
        vantages: vec![1],
        pair_distance: 240.0,
        seed: 7,
        params: vec![],
    });
    let mut text = String::from_utf8(good.encode(JournalFormat::Jsonl)).unwrap();
    text.push_str("[\"edge\",1,true]\n"); // truncated event
    let deep = "[".repeat(1 << 20);
    for bad in ["", "not json\n", "{\"tagged\":1}\n", &text, &deep, "MGOBS"] {
        assert!(no_magic(bad.into()), "{:?}", &bad[..bad.len().min(40)]);
    }
    let shown = JournalReader::from_bytes(text.into_bytes())
        .err()
        .expect("refused")
        .to_string();
    assert_eq!(
        shown,
        "corrupt journal at byte 0: not a binary journal: no MGOBSJ magic (JSONL is export-only)"
    );
}

/// A header no detector session can be built from is refused at open,
/// with a typed error naming the header: a pair distance that is negative
/// or not finite, no vantages, or the tagged node among them.
#[test]
fn hostile_headers_are_refused() {
    let good = ObsMeta {
        tagged: 3,
        vantages: vec![1, 5],
        pair_distance: 240.0,
        seed: 7,
        params: vec![],
    };
    let hostile = [
        ObsMeta {
            pair_distance: -5.0,
            ..good.clone()
        },
        ObsMeta {
            pair_distance: f64::NAN,
            ..good.clone()
        },
        ObsMeta {
            pair_distance: f64::NEG_INFINITY,
            ..good.clone()
        },
        ObsMeta {
            vantages: vec![],
            ..good.clone()
        },
        ObsMeta {
            vantages: vec![1, 3, 5],
            ..good.clone()
        },
    ];
    let open = |meta: &ObsMeta| {
        let mut j = ObsJournal::new(meta.clone());
        j.push(Obs::Garbled {
            at: 1,
            now: SimTime::from_micros(5),
        });
        JournalReader::from_bytes(j.encode(JournalFormat::Binary)).err()
    };
    for meta in &hostile {
        match open(meta) {
            Some(JournalError::Corrupt { what, .. }) => assert!(what.contains("header"), "{what}"),
            other => panic!("{meta:?}: {other:?}"),
        }
    }
    assert_eq!(open(&good), None);
    // A zero distance (co-located pair) is a valid header.
    assert_eq!(
        open(&ObsMeta {
            pair_distance: 0.0,
            ..good
        }),
        None
    );
}

/// A writer's atomic save round-trips through the filesystem in binary,
/// and saves the JSONL export as exactly the bytes `encode` renders, which
/// the reader refuses for their missing magic.
#[test]
fn save_load_round_trips() {
    let mut j = ObsJournal::new(ObsMeta {
        tagged: 3,
        vantages: vec![4, 9],
        pair_distance: 123.456,
        seed: 42,
        params: vec![("kind".into(), "grid".into())],
    });
    j.push(Obs::ChannelEdge {
        node: 4,
        busy: true,
        at: SimTime::from_nanos(1_000),
    });
    j.push(Obs::Garbled {
        at: 9,
        now: SimTime::from_nanos(2_500),
    });
    let dir = std::env::temp_dir().join(format!("mg-obs-test-{}", std::process::id()));
    for format in [JournalFormat::Jsonl, JournalFormat::Binary] {
        let path = dir.join("nested").join(format!("run.{}", format.name()));
        let mut w = JournalWriter::new(format, j.meta());
        j.replay(&mut w);
        w.save(&path).expect("save");
        assert_eq!(std::fs::read(&path).expect("saved"), j.encode(format));
        if format == JournalFormat::Jsonl {
            assert!(no_magic(std::fs::read(&path).unwrap()));
            continue;
        }
        let reader = JournalReader::open(&path).expect("open");
        assert_eq!(reader.len(), j.len());
        assert_eq!(reader.read_journal().expect("load"), j);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Binary `encode ∘ decode ≡ id` on random Obs tapes, and the encoding is
/// deterministic (equal journals → byte-identical buffers).
#[test]
fn binary_round_trips() {
    check("binary_round_trips", |g: &mut Gen| -> TkResult {
        let j = gen_journal(g, 40);
        let bytes = j.encode(JournalFormat::Binary);
        let reader = JournalReader::from_bytes(bytes.clone())
            .map_err(|e| mg_testkit::TkError::Fail(format!("open: {e}")))?;
        tk_assert_eq!(reader.meta(), j.meta());
        let back = reader
            .read_journal()
            .map_err(|e| mg_testkit::TkError::Fail(format!("decode: {e}")))?;
        tk_assert_eq!(back, j);
        tk_assert_eq!(back.encode(JournalFormat::Binary), bytes);
        Ok(())
    });
}

/// The writer fed as an `ObsSink` (a recorder writing straight through it)
/// produces exactly the whole-journal encoding, in both formats.
#[test]
fn streaming_writer_matches_whole_journal_encode() {
    check("streaming_writer_matches_encode", |g: &mut Gen| -> TkResult {
        let j = gen_journal(g, 30);
        for format in [JournalFormat::Jsonl, JournalFormat::Binary] {
            let mut w = JournalWriter::new(format, j.meta());
            j.replay(&mut w);
            tk_assert_eq!(w.len(), j.len());
            tk_assert_eq!(w.finish(), j.encode(format));
        }
        Ok(())
    });
}

/// A fixed journal of a few dozen events that fills every section: each
/// event kind, repeated frames and ranging vectors (table hits), an empty
/// ranging vector, and backward timestamp steps.
fn fixed_journal() -> ObsJournal {
    let mut j = ObsJournal::new(ObsMeta {
        tagged: 3,
        vantages: vec![4, 9, 130],
        pair_distance: 187.5,
        seed: 0x5eed_0000_0000_0042,
        params: vec![("kind".into(), "grid".into()), ("pm".into(), "60".into())],
    });
    for i in 0..40u64 {
        let t = SimTime::from_nanos(1_000_000 + i * 37_000);
        let rts = Frame {
            src: 3,
            dst: Dest::Unicast(7),
            duration: SimDuration::from_nanos(400_000),
            kind: FrameKind::Rts(RtsFields {
                seq_off_wire: (i / 4) as u16,
                attempt: (i % 3) as u8,
                md: [i as u8; 16],
            }),
        };
        j.push(match i % 6 {
            0 => Obs::ChannelEdge {
                node: 4,
                busy: i % 12 == 0,
                at: t,
            },
            1 => Obs::TxStart {
                src: 9,
                frame: rts,
                at: t,
                end: t + SimDuration::from_nanos(352),
            },
            2 => Obs::Decoded {
                at: 130,
                frame: Frame {
                    kind: FrameKind::Cts,
                    ..rts
                },
                // Decoded carries its start time: a backward step.
                start: SimTime::from_nanos(1_000 + i),
                end: t,
            },
            3 => Obs::Garbled { at: 4, now: t },
            4 => Obs::Ranging {
                from: 3,
                to: if i % 4 == 0 {
                    vec![(4, 120.25), (9, 240.5)].into()
                } else {
                    vec![(130, 75.0)].into()
                },
                at: t,
            },
            _ => Obs::Ranging {
                from: 3,
                to: Distances::new(),
                at: t,
            },
        });
    }
    j
}

/// Truncated or bit-flipped binary journals yield typed errors — never a
/// panic, never a silent partial read. The checksum folds 8-byte words, and
/// a change confined to one word always changes it, so every single-bit
/// flip is detected: exhaustively on a fixed journal, at random on
/// generated ones.
#[test]
fn corrupt_binary_journals_are_rejected() {
    let bytes = fixed_journal().encode(JournalFormat::Binary);
    for at in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << bit;
            let r = JournalReader::from_bytes(flipped).and_then(|r| r.read_journal());
            assert!(r.is_err(), "bit {bit} of byte {at} flipped undetected");
        }
    }

    check("corrupt_binary_rejected", |g: &mut Gen| -> TkResult {
        let j = gen_journal(g, 20);
        let bytes = j.encode(JournalFormat::Binary);

        // Truncation at any length is refused at open: the reader never
        // silently yields a short stream.
        let cut = g.usize_in(0..bytes.len());
        tk_assert!(
            JournalReader::from_bytes(bytes[..cut].to_vec()).is_err(),
            "truncated binary journal (cut at {cut}) was accepted"
        );

        // A single flipped bit anywhere is caught by the checksum (or an
        // earlier structural check), as a typed error.
        if !bytes.is_empty() {
            let mut flipped = bytes.clone();
            let at = g.usize_in(0..flipped.len());
            flipped[at] ^= 1 << g.u8_in(0..8);
            let r = JournalReader::from_bytes(flipped).and_then(|r| r.read_journal());
            tk_assert!(
                r.is_err(),
                "bit flip at byte {at} went undetected"
            );
        }
        Ok(())
    });
}

/// Transcoding to JSONL (binary → decode → JSONL export) writes exactly
/// the bytes a direct JSONL encode of the journal does.
#[test]
fn transcode_round_trips() {
    check("transcode_round_trips", |g: &mut Gen| -> TkResult {
        let j = gen_journal(g, 25);
        let reader = JournalReader::from_bytes(j.encode(JournalFormat::Binary))
            .map_err(|e| mg_testkit::TkError::Fail(format!("bin: {e}")))?;
        let mut w = JournalWriter::new(JournalFormat::Jsonl, reader.meta());
        reader
            .replay_into(&mut w)
            .map_err(|e| mg_testkit::TkError::Fail(format!("bin: {e}")))?;
        tk_assert_eq!(w.finish(), j.encode(JournalFormat::Jsonl));
        Ok(())
    });
}

/// A future layout version, and the retired v1 (which carried a
/// per-vantage index block), are refused with a typed `Version` error,
/// before any trailer interpretation.
#[test]
fn future_versions_are_refused() {
    let j = ObsJournal::new(ObsMeta {
        tagged: 0,
        vantages: vec![1],
        pair_distance: 10.0,
        seed: u64::MAX, // full-range seed: only representable as a real u64
        params: vec![],
    });
    for version in [3, 1] {
        let mut bytes = j.encode(JournalFormat::Binary);
        bytes[6] = version; // version field follows the 6-byte magic, little-endian
        assert_eq!(
            JournalReader::from_bytes(bytes).err(),
            Some(JournalError::Version {
                found: u16::from(version)
            })
        );
    }
}

/// The binary header stores the seed as a real u64 (satellite: no decimal
/// string detour), and `param_parsed` gives consumers typed provenance.
#[test]
fn seed_and_params_are_typed() {
    let j = ObsJournal::new(ObsMeta {
        tagged: 0,
        vantages: vec![1],
        pair_distance: 10.0,
        seed: u64::MAX,
        params: vec![("pm".into(), "60".into()), ("rate".into(), "banana".into())],
    });
    let back = JournalReader::from_bytes(j.encode(JournalFormat::Binary))
        .and_then(|r| r.read_journal())
        .expect("binary roundtrip");
    assert_eq!(back.meta().seed, u64::MAX);
    assert_eq!(back.meta().param_parsed::<u64>("pm"), Some(60));
    assert_eq!(back.meta().param_parsed::<f64>("pm"), Some(60.0));
    assert_eq!(back.meta().param_parsed::<u64>("rate"), None); // malformed
    assert_eq!(back.meta().param_parsed::<u64>("absent"), None);
    // The JSONL export keeps the seed-as-decimal-string quirk.
    let text = String::from_utf8(j.encode(JournalFormat::Jsonl)).unwrap();
    assert!(text.contains(&format!("\"seed\":\"{}\"", u64::MAX)));
}

/// replay() feeds every event, in order.
#[test]
fn replay_preserves_order() {
    struct Collect(Vec<Obs>);
    impl ObsSink for Collect {
        fn ingest(&mut self, obs: &Obs) {
            self.0.push(obs.clone());
        }
    }
    let mut j = ObsJournal::new(ObsMeta {
        tagged: 0,
        vantages: vec![1],
        pair_distance: 1.0,
        seed: 1,
        params: vec![],
    });
    for i in 0..5u64 {
        j.push(Obs::Garbled {
            at: 1,
            now: SimTime::from_nanos(i * 10),
        });
    }
    let mut c = Collect(Vec::new());
    j.replay(&mut c);
    assert_eq!(c.0.as_slice(), j.events());
}

// ---------------------------------------------------------------------------
// Decoder fuzz: mutations the checksum cannot catch
// ---------------------------------------------------------------------------

/// Trailer size of format v2: events end, event count and total length
/// (u64 each), the checksum, and the 4-byte end magic.
const TRAILER: usize = 8 * 4 + 4;

/// Event tag bytes of format v2.
const TAG_TX: u8 = 2;
const TAG_GARBLE: u8 = 4;
const TAG_RNG: u8 = 5;

/// FNV-1a 64 over 8-byte little-endian words, then byte-wise over the
/// tail: the journal checksum of DESIGN.md §6.1, written out again here so
/// the tests can seal journals they edit.
fn fnv64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Rewrites the checksum of an edited binary journal. The checksum covers
/// everything before its own field, the trailer's last 12 bytes.
fn reseal(bytes: &mut [u8]) {
    let at = bytes.len() - 12;
    let sum = fnv64(&bytes[..at]);
    bytes[at..at + 8].copy_from_slice(&sum.to_le_bytes());
}

/// Where the events section of a journal with `meta` starts: the events
/// end of an empty journal with the same header.
fn events_start(meta: &ObsMeta) -> usize {
    let empty = ObsJournal::new(meta.clone()).encode(JournalFormat::Binary);
    let at = empty.len() - TRAILER;
    u64::from_le_bytes(empty[at..at + 8].try_into().unwrap()) as usize
}

/// How the decode of a resealed journal ended.
#[derive(Debug)]
enum Outcome {
    /// `from_bytes` refused it: the table parse failed.
    Refused,
    /// It opened, and an event failed.
    Failed,
    /// It opened, and every event decoded.
    Whole,
}

/// Decodes a journal whose container (length, version, checksum) is valid
/// to the end, holding the decoder to its contract: every failure is a
/// typed `JournalError::Corrupt`, and after the first one the iterator
/// yields nothing more. A panic fails the caller.
fn decode_resealed(bytes: Vec<u8>) -> Result<Outcome, String> {
    let reader = match JournalReader::from_bytes(bytes) {
        Ok(r) => r,
        Err(JournalError::Corrupt { .. }) => return Ok(Outcome::Refused),
        Err(e) => return Err(format!("open failed with {e:?}, not Corrupt")),
    };
    let mut events = reader.events();
    let mut n = 0;
    while let Some(r) = events.next() {
        match r {
            Ok(_) => n += 1,
            Err(JournalError::Corrupt { .. }) => {
                return match events.next() {
                    None => Ok(Outcome::Failed),
                    Some(more) => Err(format!("event {n} failed, then the iterator gave {more:?}")),
                };
            }
            Err(e) => return Err(format!("event {n} failed with {e:?}, not Corrupt")),
        }
    }
    if n != reader.len() {
        return Err(format!("{n} events decoded of {}", reader.len()));
    }
    Ok(Outcome::Whole)
}

/// One to three bytes of the events or tables section changed and the
/// checksum rewritten, on random journals and on `fixed_journal()`: the
/// decoder sees the damage. Every outcome is a clean decode or a typed
/// `Corrupt` error, from `from_bytes` or from `events()`, and iteration
/// stops at the first error.
#[test]
fn resealed_section_mutations_fail_typed() {
    let fixed = fixed_journal();
    check("resealed_section_mutations_fail_typed", |g: &mut Gen| -> TkResult {
        let j = if g.bool() { fixed.clone() } else { gen_journal(g, 30) };
        let mut bytes = j.encode(JournalFormat::Binary);
        let (start, end) = (events_start(j.meta()), bytes.len() - TRAILER);
        for _ in 0..g.usize_in(1..4) {
            let at = g.usize_in(start..end);
            bytes[at] ^= g.u8_in(1..255);
        }
        reseal(&mut bytes);
        decode_resealed(bytes).map_err(mg_testkit::TkError::Fail)?;
        Ok(())
    });
}

/// Every byte of `fixed_journal()`'s events and tables sections, flipped in
/// its low bit, its high bit and all eight, then resealed: each outcome
/// keeps the contract, and the sweep reaches the table parse (refusals),
/// the event decoder (failures mid-stream) and journals that still decode.
#[test]
fn resealed_mutations_reach_the_event_decoder() {
    let j = fixed_journal();
    let bytes = j.encode(JournalFormat::Binary);
    let (start, end) = (events_start(j.meta()), bytes.len() - TRAILER);
    let (mut refused, mut failed, mut whole) = (0, 0, 0);
    for at in start..end {
        for flip in [0x01, 0x80, 0xFF] {
            let mut m = bytes.clone();
            m[at] ^= flip;
            reseal(&mut m);
            match decode_resealed(m) {
                Ok(Outcome::Refused) => refused += 1,
                Ok(Outcome::Failed) => failed += 1,
                Ok(Outcome::Whole) => whole += 1,
                Err(e) => panic!("byte {at} ^ {flip:#04x}: {e}"),
            }
        }
    }
    assert!(refused > 0 && failed > 0 && whole > 0, "{refused} {failed} {whole}");
}

/// A binary journal assembled around hand-written `events` (`n_events` of
/// them) and `tables`, under `fixed_journal()`'s header, with a valid
/// trailer.
fn assemble(events: &[u8], n_events: u64, tables: &[u8]) -> Vec<u8> {
    let meta = fixed_journal().meta().clone();
    let start = events_start(&meta);
    let mut b = ObsJournal::new(meta).encode(JournalFormat::Binary)[..start].to_vec();
    b.extend_from_slice(events);
    let events_end = b.len() as u64;
    b.extend_from_slice(tables);
    let total_len = (b.len() + TRAILER) as u64;
    for word in [events_end, n_events, total_len] {
        b.extend_from_slice(&word.to_le_bytes());
    }
    let sum = fnv64(&b);
    b.extend_from_slice(&sum.to_le_bytes());
    b.extend_from_slice(b"MGE1");
    b
}

/// Hand-built faults in the one event of an otherwise valid journal each
/// end its decode at that event with `Corrupt`: a varint whose continuation
/// runs past the events section (into the tables, which a reader capped at
/// the section end never reads), an 11-byte varint, a frame and a ranging
/// id past their (empty) tables, and an unknown tag.
#[test]
fn hand_built_event_faults_are_corrupt() {
    const NO_TABLES: &[u8] = &[0, 0]; // no frames, no ranging vectors
    let ok = JournalReader::from_bytes(assemble(&[TAG_GARBLE, 9, 4], 1, NO_TABLES))
        .and_then(|r| r.read_journal())
        .expect("a well-formed hand-built journal decodes");
    assert_eq!(ok.events(), [Obs::Garbled { at: 9, now: SimTime::from_nanos(2) }]);

    let mut long_varint = vec![TAG_GARBLE, 9];
    long_varint.extend([0xFF; 10]);
    long_varint.push(0x01);
    let cases: [(&str, Vec<u8>); 5] = [
        ("continuation past the section end", vec![TAG_GARBLE, 9, 0x80]),
        ("11-byte varint", long_varint),
        ("frame id past the frame table", vec![TAG_TX, 9, 0, 0, 0]),
        ("ranging id past the ranging table", vec![TAG_RNG, 3, 0, 0]),
        ("unknown tag", vec![6, 9, 0]),
    ];
    for (what, events) in cases {
        let reader = JournalReader::from_bytes(assemble(&events, 1, NO_TABLES))
            .unwrap_or_else(|e| panic!("{what}: the container is valid, yet {e}"));
        let got: Vec<_> = reader.events().collect();
        assert!(
            matches!(got.as_slice(), [Err(JournalError::Corrupt { .. })]),
            "{what}: {got:?}"
        );
    }
}
