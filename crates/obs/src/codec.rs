//! Journal I/O: the one codec for [`Obs`] journals.
//!
//! The observation journal is the currency of the whole pipeline — the
//! CLI's `--record`/`--replay` files, the `mgd` wire chunks. Every byte of
//! it is written by one encoder and read by one decoder, in both formats:
//!
//! * [`JournalFormat`] — the two encodings ([`Jsonl`] for debugging and
//!   export, [`Binary`] for production), with magic-based auto-detection.
//! * [`JournalWriter`] — streaming, event-at-a-time encoding (it is an
//!   [`ObsSink`], so a recorder can write straight through it), finished by
//!   [`JournalWriter::finish`] or an atomic tmp+rename
//!   [`JournalWriter::save`]. [`ObsJournal::encode`] is a loop over it.
//! * [`JournalReader`] — sniffs the format, validates the container, then
//!   decodes lazily: [`JournalReader::events`] streams one event at a time
//!   and [`JournalReader::read_journal`] materializes an [`ObsJournal`].
//!
//! # Binary format v2
//!
//! Following the `dot15d4-frame` idiom — fixed headers plus in-place field
//! views over one buffer, no intermediate frame structs — the binary layout
//! is a single contiguous buffer of four sections:
//!
//! ```text
//! header   magic "MGOBSJ" | version u16 | ObsMeta (seed as a real u64)
//! events   per event: tag byte, varint node ids, zigzag-varint timestamp
//!          deltas, varint refs into the two tables below
//! tables   interned frame table (each distinct frame encoded once), then
//!          the interned ranging-vector table (distances as raw f64 bits)
//! trailer  events_end u64 | n_events u64 | total_len u64 | fnv64 | "MGE1"
//! ```
//!
//! Timestamps are encoded as zigzag varint deltas against the previous
//! event's primary instant (wrapping 64-bit arithmetic, so the round trip
//! is exact for *any* `u64` pair). Frames and ranging vectors are interned:
//! a tagged RTS decoded at thirty nodes costs one table entry plus thirty
//! 2-byte references, which is where the ≥7× size win over JSONL comes
//! from. Decoding an event copies its table entry out; a ranging entry of
//! at most [`Distances::INLINE`] pairs is copied inline, so the events of a
//! static monitor's journal decode without a heap allocation. The trailer
//! pins the total length and a word-wise FNV-1a 64 checksum over
//! everything before it, so truncation and bit rot are *detected* — a
//! damaged journal yields a typed [`JournalError`], never a silent partial
//! read.
//!
//! Decoding reads each field through a cursor whose slice ends at its
//! section's end (the events section for events, the trailer for the
//! tables), so a corrupt varint fails instead of reading a neighbor. Field
//! reads are inlined, and a failure travels as a small `Copy` fault (offset,
//! a fixed description, the offending number). The typed
//! [`JournalError::Corrupt`] is built from it once, where [`Events`] or
//! [`JournalReader::from_bytes`] hands it to the caller, so the per-event
//! path never carries an error that owns a `String`.
//!
//! Versioning: the `version` field is bumped on any layout change; readers
//! reject versions they do not know ([`JournalError::Version`]) instead of
//! guessing. Version 1 (which carried a per-vantage index block) is
//! refused too. JSONL journals carry no version — their schema is the
//! `mg_trace::json` rendering of [`ObsMeta`] and [`Obs`], kept stable as
//! the debug/export format (including the seed-as-decimal-string quirk).
//!
//! [`Jsonl`]: JournalFormat::Jsonl
//! [`Binary`]: JournalFormat::Binary

use crate::{Distances, NodeId, Obs, ObsJournal, ObsMeta, ObsSink};
use mg_dcf::{Dest, Frame, FrameKind, MacSdu, RtsFields};
use mg_sim::{SimDuration, SimTime};
use mg_trace::json::Json;
use std::collections::HashMap;
use std::path::Path;

/// First bytes of every binary journal.
const MAGIC: &[u8; 6] = b"MGOBSJ";
/// Last bytes of every binary journal (part of the fixed-width trailer).
const END_MAGIC: &[u8; 4] = b"MGE1";
/// Current binary layout version.
const VERSION: u16 = 2;
/// Trailer size: events end, event count and total length (u64 each) +
/// fnv64 checksum + end magic.
const TRAILER: usize = 8 * 4 + END_MAGIC.len();

/// Event tag bytes (the carrier-sense edge state is folded into the tag).
const TAG_EDGE_IDLE: u8 = 0;
const TAG_EDGE_BUSY: u8 = 1;
const TAG_TX: u8 = 2;
const TAG_RX: u8 = 3;
const TAG_GARBLE: u8 = 4;
const TAG_RNG: u8 = 5;

/// Frame flag byte: kind in bits 0-1, destination modes in bits 2-3.
const KIND_RTS: u8 = 0;
const KIND_CTS: u8 = 1;
const KIND_DATA: u8 = 2;
const KIND_ACK: u8 = 3;
const FLAG_DST_BCAST: u8 = 1 << 2;
const FLAG_SDU_BCAST: u8 = 1 << 3;

/// An on-disk journal encoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JournalFormat {
    /// Line-oriented JSON: meta header line, one event per line. The
    /// human-readable debug/export codec; diffs cleanly.
    Jsonl,
    /// Binary format v2: compact (interned tables, varint deltas) and
    /// checksummed. The production codec.
    Binary,
}

impl JournalFormat {
    /// Parses a CLI/user-facing format name (`"jsonl"` or `"bin"`).
    pub fn parse(s: &str) -> Option<JournalFormat> {
        match s.trim().to_ascii_lowercase().as_str() {
            "jsonl" => Some(JournalFormat::Jsonl),
            "bin" | "binary" => Some(JournalFormat::Binary),
            _ => None,
        }
    }

    /// The user-facing name (`"jsonl"` / `"bin"`).
    pub fn name(self) -> &'static str {
        match self {
            JournalFormat::Jsonl => "jsonl",
            JournalFormat::Binary => "bin",
        }
    }

    /// Detects the format of raw journal bytes by magic sniffing: anything
    /// starting with the binary magic is [`Binary`], everything else is
    /// treated as (and then validated as) [`Jsonl`].
    ///
    /// [`Binary`]: JournalFormat::Binary
    /// [`Jsonl`]: JournalFormat::Jsonl
    pub fn sniff(bytes: &[u8]) -> JournalFormat {
        if bytes.len() >= MAGIC.len() && &bytes[..MAGIC.len()] == MAGIC {
            JournalFormat::Binary
        } else {
            JournalFormat::Jsonl
        }
    }
}

impl std::fmt::Display for JournalFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a journal could not be read. Every decode failure is typed — a
/// damaged journal is reported, never silently truncated or misparsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// The underlying file could not be read.
    Io(String),
    /// The byte length disagrees with the length pinned in the trailer
    /// (or the buffer is too short to hold a journal at all).
    Truncated {
        /// Length the trailer (or the minimum layout) requires.
        expected: u64,
        /// Length actually present.
        actual: u64,
    },
    /// The FNV-1a 64 checksum over the body does not match the trailer.
    Checksum {
        /// Checksum stored in the trailer.
        expected: u64,
        /// Checksum recomputed from the bytes.
        actual: u64,
    },
    /// The binary layout version is not the one this reader understands
    /// (a newer layout, or a retired one such as v1).
    Version {
        /// Version found in the header.
        found: u16,
    },
    /// Structurally invalid binary content at `offset`.
    Corrupt {
        /// Byte offset where decoding failed.
        offset: usize,
        /// What went wrong.
        what: String,
    },
    /// Invalid JSONL content on `line` (1-based).
    Syntax {
        /// Line number of the offending line.
        line: usize,
        /// What went wrong.
        what: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Truncated { expected, actual } => {
                write!(f, "journal truncated: {actual} bytes, expected {expected}")
            }
            JournalError::Checksum { expected, actual } => write!(
                f,
                "journal checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
            ),
            JournalError::Version { found } => {
                write!(f, "unsupported binary journal version {found} (reader knows {VERSION})")
            }
            JournalError::Corrupt { offset, what } => {
                write!(f, "corrupt journal at byte {offset}: {what}")
            }
            JournalError::Syntax { line, what } => {
                write!(f, "journal line {line}: {what}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

// ---------------------------------------------------------------------------
// Primitive encoders
// ---------------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag over a *wrapping* u64 difference: exact for any pair of `u64`
/// instants, short for small forward or backward steps.
fn put_time_delta(out: &mut Vec<u8>, prev: u64, t: u64) {
    let d = t.wrapping_sub(prev) as i64;
    put_varint(out, ((d << 1) ^ (d >> 63)) as u64);
}

/// Why binary content failed to decode: where, a fixed description, and the
/// offending number when there is one. It is `Copy` and owns nothing, so
/// the decoder passes it through `?` at the cost of a few register moves;
/// [`corrupt`] turns it into the typed [`JournalError::Corrupt`] once, at
/// the boundary, and only after decoding has failed.
#[derive(Clone, Copy, Debug)]
struct Fault {
    /// Byte offset of the field that failed.
    offset: usize,
    /// What went wrong.
    what: &'static str,
    /// The value the check rejected, if the description names one.
    value: Option<u64>,
}

/// The one place a [`Fault`] becomes a [`JournalError`].
#[cold]
#[inline(never)]
fn corrupt(f: Fault) -> JournalError {
    let what = match f.value {
        Some(v) => format!("{} ({v})", f.what),
        None => f.what.to_string(),
    };
    JournalError::Corrupt { offset: f.offset, what }
}

/// A read position inside one section of a binary journal. `bytes` ends
/// at the section end, so no read, however corrupt the varint, can reach
/// into a neighboring section.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at `pos` over `bytes[..end]`.
    fn new(bytes: &'a [u8], pos: usize, end: usize) -> Cursor<'a> {
        Cursor { bytes: &bytes[..end], pos }
    }

    /// Bytes left before the section end.
    fn left(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn fault(&self, what: &'static str) -> Fault {
        Fault { offset: self.pos, what, value: None }
    }

    fn fault_on(&self, what: &'static str, value: u64) -> Fault {
        Fault { offset: self.pos, what, value: Some(value) }
    }

    #[inline(always)]
    fn u8(&mut self) -> Result<u8, Fault> {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(self.fault("unexpected end of section")),
        }
    }

    #[inline(always)]
    fn take(&mut self, n: usize) -> Result<&'a [u8], Fault> {
        if self.left() < n {
            return Err(self.fault_on("field needs more bytes than the section holds", n as u64));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline(always)]
    fn varint(&mut self) -> Result<u64, Fault> {
        // Most node ids and table refs fit one byte.
        match self.bytes.get(self.pos) {
            Some(&b) if b & 0x80 == 0 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.varint_long(),
        }
    }

    /// A varint of up to 10 bytes (bits past the 64th are dropped). The
    /// cursor moves only when the whole varint lies inside the section.
    #[inline(always)]
    fn varint_long(&mut self) -> Result<u64, Fault> {
        let mut v: u64 = 0;
        for (i, shift) in (0..64).step_by(7).enumerate() {
            let Some(&b) = self.bytes.get(self.pos + i) else {
                return Err(self.fault("varint runs past the section end"));
            };
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(v);
            }
        }
        Err(self.fault("varint longer than 64 bits"))
    }

    #[inline(always)]
    fn time_delta(&mut self, prev: u64) -> Result<u64, Fault> {
        let z = self.varint()?;
        let d = ((z >> 1) as i64) ^ -((z & 1) as i64);
        Ok(prev.wrapping_add(d as u64))
    }

    #[inline(always)]
    fn u64_le(&mut self) -> Result<u64, Fault> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    fn f64_le(&mut self) -> Result<f64, Fault> {
        Ok(f64::from_bits(self.u64_le()?))
    }

    fn string(&mut self) -> Result<String, Fault> {
        let n = self.varint()? as usize;
        let pos = self.pos;
        let s = self.take(n)?;
        std::str::from_utf8(s)
            .map(str::to_string)
            .map_err(|_| Fault { offset: pos, what: "bad utf-8 in a header string", value: None })
    }
}

/// FNV-1a 64 over 8-byte little-endian words, then byte-wise over the
/// tail.
///
/// For a fixed word `w`, each step `h ← (h ⊕ w)·p` is a bijection of `h`
/// (`p` is odd), and for a fixed `h` it is injective in `w`. So a change
/// confined to one word — every single-bit flip — changes the final hash.
fn fnv64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes"))).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

// ---------------------------------------------------------------------------
// Frame / ranging-vector encoders (table entry payloads)
// ---------------------------------------------------------------------------

fn encode_frame(out: &mut Vec<u8>, f: &Frame) {
    let mut flags = match &f.kind {
        FrameKind::Rts(_) => KIND_RTS,
        FrameKind::Cts => KIND_CTS,
        FrameKind::Data { .. } => KIND_DATA,
        FrameKind::Ack => KIND_ACK,
    };
    if f.dst == Dest::Broadcast {
        flags |= FLAG_DST_BCAST;
    }
    if let FrameKind::Data { sdu } = &f.kind {
        if sdu.dst == Dest::Broadcast {
            flags |= FLAG_SDU_BCAST;
        }
    }
    out.push(flags);
    put_varint(out, f.src as u64);
    if let Dest::Unicast(n) = f.dst {
        put_varint(out, n as u64);
    }
    put_varint(out, f.duration.as_nanos());
    match &f.kind {
        FrameKind::Rts(r) => {
            put_varint(out, u64::from(r.seq_off_wire));
            out.push(r.attempt);
            out.extend_from_slice(&r.md);
        }
        FrameKind::Data { sdu } => {
            put_varint(out, sdu.id);
            put_varint(out, u64::from(sdu.payload_len));
            if let Dest::Unicast(n) = sdu.dst {
                put_varint(out, n as u64);
            }
        }
        FrameKind::Cts | FrameKind::Ack => {}
    }
}

fn decode_frame(c: &mut Cursor<'_>) -> Result<Frame, Fault> {
    let flags = c.u8()?;
    let src = c.varint()? as NodeId;
    let dst = if flags & FLAG_DST_BCAST != 0 {
        Dest::Broadcast
    } else {
        Dest::Unicast(c.varint()? as NodeId)
    };
    let duration = SimDuration::from_nanos(c.varint()?);
    let kind = match flags & 0x3 {
        KIND_RTS => {
            let seq = c.varint()?;
            let seq_off_wire =
                u16::try_from(seq).map_err(|_| c.fault_on("rts seq exceeds u16", seq))?;
            let attempt = c.u8()?;
            let md: [u8; 16] = c.take(16)?.try_into().expect("16 bytes");
            FrameKind::Rts(RtsFields { seq_off_wire, attempt, md })
        }
        KIND_CTS => FrameKind::Cts,
        KIND_DATA => {
            let id = c.varint()?;
            let len = c.varint()?;
            let payload_len =
                u16::try_from(len).map_err(|_| c.fault_on("payload length exceeds u16", len))?;
            let sdu_dst = if flags & FLAG_SDU_BCAST != 0 {
                Dest::Broadcast
            } else {
                Dest::Unicast(c.varint()? as NodeId)
            };
            FrameKind::Data { sdu: MacSdu { id, dst: sdu_dst, payload_len } }
        }
        _ => FrameKind::Ack,
    };
    Ok(Frame { src, dst, duration, kind })
}

fn encode_ranging_vec(out: &mut Vec<u8>, to: &[(NodeId, f64)]) {
    put_varint(out, to.len() as u64);
    for &(v, d) in to {
        put_varint(out, v as u64);
        out.extend_from_slice(&d.to_bits().to_le_bytes());
    }
}

fn decode_ranging_vec(c: &mut Cursor<'_>) -> Result<Distances, Fault> {
    let n = c.varint()?;
    if n > (c.left() / 9) as u64 {
        // Each pair is at least 9 bytes; reject absurd counts before
        // allocating.
        return Err(c.fault_on("ranging vector claims more pairs than fit", n));
    }
    let n = n as usize;
    let mut to = Distances::new();
    to.reserve(n);
    for _ in 0..n {
        let v = c.varint()? as NodeId;
        let d = c.f64_le()?;
        to.push((v, d));
    }
    Ok(to)
}

/// The primary instant of an event — the running delta base of the stream.
fn primary_time(o: &Obs) -> u64 {
    match o {
        Obs::ChannelEdge { at, .. } => at.as_nanos(),
        Obs::TxStart { at, .. } => at.as_nanos(),
        Obs::Decoded { start, .. } => start.as_nanos(),
        Obs::Garbled { now, .. } => now.as_nanos(),
        Obs::Ranging { at, .. } => at.as_nanos(),
    }
}

// ---------------------------------------------------------------------------
// JSONL line encoders (the `mg_trace::json` rendering of ObsMeta and Obs)
// ---------------------------------------------------------------------------

/// The meta header line of a JSONL journal.
fn meta_to_json(meta: &ObsMeta) -> Json {
    Json::obj([
        ("tagged", Json::from(meta.tagged as u64)),
        (
            "vantages",
            Json::Arr(
                meta.vantages
                    .iter()
                    .map(|&v| Json::from(v as u64))
                    .collect(),
            ),
        ),
        ("pair_distance", Json::Num(meta.pair_distance)),
        // Decimal string: a full-range u64 seed does not fit a JSON
        // number (f64 loses precision past 2^53).
        ("seed", Json::Str(meta.seed.to_string())),
        (
            "params",
            Json::Arr(
                meta.params
                    .iter()
                    .map(|(k, v)| Json::Arr(vec![Json::Str(k.clone()), Json::Str(v.clone())]))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes [`meta_to_json`] output; `None` on any mismatch.
fn meta_from_json(v: &Json) -> Option<ObsMeta> {
    let vantages = v
        .get("vantages")?
        .as_arr()?
        .iter()
        .map(|n| Some(n.as_u64()? as NodeId))
        .collect::<Option<Vec<_>>>()?;
    let params = v
        .get("params")?
        .as_arr()?
        .iter()
        .map(|p| match p.as_arr()? {
            [k, val] => Some((k.as_str()?.to_string(), val.as_str()?.to_string())),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some(ObsMeta {
        tagged: v.get("tagged")?.as_u64()? as NodeId,
        vantages,
        pair_distance: v.get("pair_distance")?.as_f64()?,
        seed: v.get("seed")?.as_str()?.parse().ok()?,
        params,
    })
}

fn dest_to_json(d: Dest) -> Json {
    match d {
        Dest::Unicast(n) => Json::from(n as u64),
        Dest::Broadcast => Json::Null,
    }
}

fn dest_from_json(v: &Json) -> Option<Dest> {
    match v {
        Json::Null => Some(Dest::Broadcast),
        _ => Some(Dest::Unicast(v.as_u64()? as NodeId)),
    }
}

fn md_to_hex(md: &[u8; 16]) -> String {
    let mut s = String::with_capacity(32);
    for b in md {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn md_from_hex(s: &str) -> Option<[u8; 16]> {
    if s.len() != 32 || !s.is_ascii() {
        return None;
    }
    let mut md = [0u8; 16];
    for (i, chunk) in s.as_bytes().chunks_exact(2).enumerate() {
        md[i] = u8::from_str_radix(std::str::from_utf8(chunk).ok()?, 16).ok()?;
    }
    Some(md)
}

/// Serializes one frame (wire-visible fields only, which is all a frame
/// has) following `mg_trace::json` conventions.
fn frame_to_json(f: &Frame) -> Json {
    let kind = match &f.kind {
        FrameKind::Rts(r) => Json::obj([(
            "rts",
            Json::obj([
                ("seq", Json::from(u64::from(r.seq_off_wire))),
                ("att", Json::from(u64::from(r.attempt))),
                ("md", Json::Str(md_to_hex(&r.md))),
            ]),
        )]),
        FrameKind::Cts => Json::Str("cts".into()),
        FrameKind::Data { sdu } => Json::obj([(
            "data",
            Json::obj([
                ("id", Json::from(sdu.id)),
                ("dst", dest_to_json(sdu.dst)),
                ("len", Json::from(u64::from(sdu.payload_len))),
            ]),
        )]),
        FrameKind::Ack => Json::Str("ack".into()),
    };
    Json::obj([
        ("src", Json::from(f.src as u64)),
        ("dst", dest_to_json(f.dst)),
        ("dur", Json::from(f.duration.as_nanos())),
        ("kind", kind),
    ])
}

/// Decodes [`frame_to_json`] output; `None` on any mismatch.
fn frame_from_json(v: &Json) -> Option<Frame> {
    let kind_json = v.get("kind")?;
    let kind = match kind_json.as_str() {
        Some("cts") => FrameKind::Cts,
        Some("ack") => FrameKind::Ack,
        Some(_) => return None,
        None => {
            if let Some(r) = kind_json.get("rts") {
                FrameKind::Rts(RtsFields {
                    seq_off_wire: u16::try_from(r.get("seq")?.as_u64()?).ok()?,
                    attempt: u8::try_from(r.get("att")?.as_u64()?).ok()?,
                    md: md_from_hex(r.get("md")?.as_str()?)?,
                })
            } else if let Some(d) = kind_json.get("data") {
                FrameKind::Data {
                    sdu: MacSdu {
                        id: d.get("id")?.as_u64()?,
                        dst: dest_from_json(d.get("dst")?)?,
                        payload_len: u16::try_from(d.get("len")?.as_u64()?).ok()?,
                    },
                }
            } else {
                return None;
            }
        }
    };
    Some(Frame {
        src: v.get("src")?.as_u64()? as NodeId,
        dst: dest_from_json(v.get("dst")?)?,
        duration: SimDuration::from_nanos(v.get("dur")?.as_u64()?),
        kind,
    })
}

/// Serializes one event as a compact tagged array. Virtual instants are
/// u64 nanoseconds (all < 2⁵³, so exact in a JSON number); distances use
/// the shortest-round-trip `f64` rendering.
fn obs_to_json(o: &Obs) -> Json {
    match o {
        Obs::ChannelEdge { node, busy, at } => Json::Arr(vec![
            Json::Str("edge".into()),
            Json::from(*node as u64),
            Json::Bool(*busy),
            Json::from(at.as_nanos()),
        ]),
        Obs::TxStart { src, frame, at, end } => Json::Arr(vec![
            Json::Str("tx".into()),
            Json::from(*src as u64),
            Json::from(at.as_nanos()),
            Json::from(end.as_nanos()),
            frame_to_json(frame),
        ]),
        Obs::Decoded { at, frame, start, end } => Json::Arr(vec![
            Json::Str("rx".into()),
            Json::from(*at as u64),
            Json::from(start.as_nanos()),
            Json::from(end.as_nanos()),
            frame_to_json(frame),
        ]),
        Obs::Garbled { at, now } => Json::Arr(vec![
            Json::Str("garble".into()),
            Json::from(*at as u64),
            Json::from(now.as_nanos()),
        ]),
        Obs::Ranging { from, to, at } => Json::Arr(vec![
            Json::Str("rng".into()),
            Json::from(*from as u64),
            Json::from(at.as_nanos()),
            Json::Arr(
                to.iter()
                    .map(|&(v, d)| Json::Arr(vec![Json::from(v as u64), Json::Num(d)]))
                    .collect(),
            ),
        ]),
    }
}

/// Decodes [`obs_to_json`] output; `None` on any mismatch.
fn obs_from_json(v: &Json) -> Option<Obs> {
    let arr = v.as_arr()?;
    let tag = arr.first()?.as_str()?;
    match (tag, arr) {
        ("edge", [_, node, busy, at]) => Some(Obs::ChannelEdge {
            node: node.as_u64()? as NodeId,
            busy: busy.as_bool()?,
            at: SimTime::from_nanos(at.as_u64()?),
        }),
        ("tx", [_, src, at, end, frame]) => Some(Obs::TxStart {
            src: src.as_u64()? as NodeId,
            frame: frame_from_json(frame)?,
            at: SimTime::from_nanos(at.as_u64()?),
            end: SimTime::from_nanos(end.as_u64()?),
        }),
        ("rx", [_, at, start, end, frame]) => Some(Obs::Decoded {
            at: at.as_u64()? as NodeId,
            frame: frame_from_json(frame)?,
            start: SimTime::from_nanos(start.as_u64()?),
            end: SimTime::from_nanos(end.as_u64()?),
        }),
        ("garble", [_, at, now]) => Some(Obs::Garbled {
            at: at.as_u64()? as NodeId,
            now: SimTime::from_nanos(now.as_u64()?),
        }),
        ("rng", [_, from, at, to]) => Some(Obs::Ranging {
            from: from.as_u64()? as NodeId,
            to: to
                .as_arr()?
                .iter()
                .map(|p| match p.as_arr()? {
                    [n, d] => Some((n.as_u64()? as NodeId, d.as_f64()?)),
                    _ => None,
                })
                .collect::<Option<Distances>>()?,
            at: SimTime::from_nanos(at.as_u64()?),
        }),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// A streaming, format-agnostic journal encoder.
///
/// Events are encoded as they are pushed — the writer never materializes an
/// [`ObsJournal`] — and [`JournalWriter::finish`] appends the format's
/// closing sections (for binary: the interned tables and the checksummed
/// trailer). It implements [`ObsSink`], so any observation producer can
/// write a journal directly.
pub struct JournalWriter {
    inner: WriterInner,
    n_events: u64,
}

enum WriterInner {
    Jsonl(String),
    Binary(Box<BinWriter>),
}

struct BinWriter {
    buf: Vec<u8>,
    prev_time: u64,
    /// Interned encodings → table id, plus the table in insertion order.
    frames: HashMap<Vec<u8>, u64>,
    frame_order: Vec<Vec<u8>>,
    rangings: HashMap<Vec<u8>, u64>,
    ranging_order: Vec<Vec<u8>>,
}

impl JournalWriter {
    /// A writer for the given format and run identity.
    pub fn new(format: JournalFormat, meta: &ObsMeta) -> JournalWriter {
        let inner = match format {
            JournalFormat::Jsonl => {
                let mut text = meta_to_json(meta).render();
                text.push('\n');
                WriterInner::Jsonl(text)
            }
            JournalFormat::Binary => {
                let mut buf = Vec::with_capacity(4096);
                buf.extend_from_slice(MAGIC);
                buf.extend_from_slice(&VERSION.to_le_bytes());
                put_varint(&mut buf, meta.tagged as u64);
                put_varint(&mut buf, meta.vantages.len() as u64);
                for &v in &meta.vantages {
                    put_varint(&mut buf, v as u64);
                }
                buf.extend_from_slice(&meta.pair_distance.to_bits().to_le_bytes());
                // The one place the seed is stored as what it is: a u64.
                buf.extend_from_slice(&meta.seed.to_le_bytes());
                put_varint(&mut buf, meta.params.len() as u64);
                for (k, v) in &meta.params {
                    put_varint(&mut buf, k.len() as u64);
                    buf.extend_from_slice(k.as_bytes());
                    put_varint(&mut buf, v.len() as u64);
                    buf.extend_from_slice(v.as_bytes());
                }
                WriterInner::Binary(Box::new(BinWriter {
                    buf,
                    prev_time: 0,
                    frames: HashMap::new(),
                    frame_order: Vec::new(),
                    rangings: HashMap::new(),
                    ranging_order: Vec::new(),
                }))
            }
        };
        JournalWriter { inner, n_events: 0 }
    }

    /// Events written so far.
    pub fn len(&self) -> usize {
        self.n_events as usize
    }

    /// True when no event has been written yet.
    pub fn is_empty(&self) -> bool {
        self.n_events == 0
    }

    /// Encodes one event (events must be pushed in virtual-time order, as
    /// the recorder produces them).
    pub fn push(&mut self, o: &Obs) {
        self.n_events += 1;
        match &mut self.inner {
            WriterInner::Jsonl(text) => {
                text.push_str(&obs_to_json(o).render());
                text.push('\n');
            }
            WriterInner::Binary(w) => w.push(o),
        }
    }

    /// Finishes the journal and returns its bytes (for binary: the tables
    /// and the checksummed trailer are appended here).
    pub fn finish(self) -> Vec<u8> {
        match self.inner {
            WriterInner::Jsonl(text) => text.into_bytes(),
            WriterInner::Binary(w) => w.finish(self.n_events),
        }
    }

    /// Finishes the journal and writes it atomically: bytes go to
    /// `<path>.tmp.<pid>`, then a rename over `path`. Parent directories
    /// are created as needed.
    pub fn save(self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, &self.finish())
    }
}

impl ObsSink for JournalWriter {
    fn ingest(&mut self, obs: &Obs) {
        self.push(obs);
    }
}

impl BinWriter {
    fn intern(
        map: &mut HashMap<Vec<u8>, u64>,
        order: &mut Vec<Vec<u8>>,
        encoded: Vec<u8>,
    ) -> u64 {
        if let Some(&id) = map.get(&encoded) {
            return id;
        }
        let id = order.len() as u64;
        order.push(encoded.clone());
        map.insert(encoded, id);
        id
    }

    fn push(&mut self, o: &Obs) {
        let base = self.prev_time;
        let buf = &mut self.buf;
        match o {
            Obs::ChannelEdge { node, busy, at } => {
                buf.push(if *busy { TAG_EDGE_BUSY } else { TAG_EDGE_IDLE });
                put_varint(buf, *node as u64);
                put_time_delta(buf, base, at.as_nanos());
            }
            Obs::TxStart { src, frame, at, end } => {
                buf.push(TAG_TX);
                put_varint(buf, *src as u64);
                put_time_delta(buf, base, at.as_nanos());
                put_varint(buf, end.as_nanos().wrapping_sub(at.as_nanos()));
                let mut enc = Vec::new();
                encode_frame(&mut enc, frame);
                let id = Self::intern(&mut self.frames, &mut self.frame_order, enc);
                put_varint(&mut self.buf, id);
            }
            Obs::Decoded { at, frame, start, end } => {
                buf.push(TAG_RX);
                put_varint(buf, *at as u64);
                put_time_delta(buf, base, start.as_nanos());
                put_varint(buf, end.as_nanos().wrapping_sub(start.as_nanos()));
                let mut enc = Vec::new();
                encode_frame(&mut enc, frame);
                let id = Self::intern(&mut self.frames, &mut self.frame_order, enc);
                put_varint(&mut self.buf, id);
            }
            Obs::Garbled { at, now } => {
                buf.push(TAG_GARBLE);
                put_varint(buf, *at as u64);
                put_time_delta(buf, base, now.as_nanos());
            }
            Obs::Ranging { from, to, at } => {
                buf.push(TAG_RNG);
                put_varint(buf, *from as u64);
                put_time_delta(buf, base, at.as_nanos());
                let mut enc = Vec::new();
                encode_ranging_vec(&mut enc, to);
                let id = Self::intern(&mut self.rangings, &mut self.ranging_order, enc);
                put_varint(&mut self.buf, id);
            }
        }
        self.prev_time = primary_time(o);
    }

    fn finish(mut self, n_events: u64) -> Vec<u8> {
        let events_end = self.buf.len() as u64;
        // Frame table, then ranging table.
        put_varint(&mut self.buf, self.frame_order.len() as u64);
        for enc in &self.frame_order {
            self.buf.extend_from_slice(enc);
        }
        put_varint(&mut self.buf, self.ranging_order.len() as u64);
        for enc in &self.ranging_order {
            self.buf.extend_from_slice(enc);
        }
        // Trailer: events section end, event count, pinned total length,
        // checksum over everything before the checksum field, end magic.
        let total_len = (self.buf.len() + TRAILER) as u64;
        self.buf.extend_from_slice(&events_end.to_le_bytes());
        self.buf.extend_from_slice(&n_events.to_le_bytes());
        self.buf.extend_from_slice(&total_len.to_le_bytes());
        let checksum = fnv64(&self.buf);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf.extend_from_slice(END_MAGIC);
        self.buf
    }
}

/// Writes `bytes` to `path` atomically (tmp file + rename), creating parent
/// directories as needed, so a killed writer never leaves a torn file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A validated, lazily-decoding journal reader.
///
/// [`JournalReader::open`]/[`from_bytes`] sniff the format and validate the
/// container up front — for binary journals the trailer length, checksum,
/// header, section bounds and tables are all verified before any event is
/// decoded, so truncation or bit rot surfaces as a typed [`JournalError`]
/// at open time. In both formats a header no detector session can be built
/// from (a pair distance that is not a finite number ≥ 0, no vantages, or
/// the tagged node among them) is refused there too. Event decoding itself
/// is streaming: [`events`] walks the stream one event at a time.
///
/// [`from_bytes`]: JournalReader::from_bytes
/// [`events`]: JournalReader::events
pub struct JournalReader {
    meta: ObsMeta,
    bytes: Vec<u8>,
    inner: ReaderInner,
}

enum ReaderInner {
    Jsonl {
        /// Byte offset of the first event line.
        events_at: usize,
        n_events: usize,
    },
    Binary(Box<BinState>),
}

struct BinState {
    events_start: usize,
    events_end: usize,
    n_events: u64,
    frames: Vec<Frame>,
    rangings: Vec<Distances>,
}

impl JournalReader {
    /// Opens and validates the journal at `path`, auto-detecting its format
    /// by magic sniffing.
    pub fn open(path: &Path) -> Result<JournalReader, JournalError> {
        let bytes = std::fs::read(path)
            .map_err(|e| JournalError::Io(format!("cannot read {}: {e}", path.display())))?;
        JournalReader::from_bytes(bytes)
    }

    /// Validates raw journal bytes, auto-detecting the format.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<JournalReader, JournalError> {
        match JournalFormat::sniff(&bytes) {
            JournalFormat::Binary => Self::from_binary(bytes),
            JournalFormat::Jsonl => Self::from_jsonl_bytes(bytes),
        }
    }

    fn from_jsonl_bytes(bytes: Vec<u8>) -> Result<JournalReader, JournalError> {
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| JournalError::Syntax { line: 1, what: format!("not utf-8: {e}") })?;
        let mut head = None;
        let mut events_at = 0;
        let mut n_events = 0;
        let mut offset = 0;
        for line in text.split_inclusive('\n') {
            offset += line.len();
            if line.trim().is_empty() {
                continue;
            }
            if head.is_none() {
                head = Some(line.trim_end_matches('\n').to_string());
                events_at = offset;
            } else {
                n_events += 1;
            }
        }
        let head = head.ok_or(JournalError::Syntax { line: 1, what: "empty journal".into() })?;
        let meta_json = Json::parse(&head)
            .map_err(|e| JournalError::Syntax { line: 1, what: format!("{e}") })?;
        let meta = meta_from_json(&meta_json)
            .ok_or(JournalError::Syntax { line: 1, what: "not a meta header".into() })?;
        if let Err(what) = meta.check() {
            return Err(JournalError::Syntax { line: 1, what: what.into() });
        }
        Ok(JournalReader { meta, bytes, inner: ReaderInner::Jsonl { events_at, n_events } })
    }

    fn from_binary(bytes: Vec<u8>) -> Result<JournalReader, JournalError> {
        let min = MAGIC.len() + 2 + TRAILER;
        if bytes.len() < min {
            return Err(JournalError::Truncated {
                expected: min as u64,
                actual: bytes.len() as u64,
            });
        }
        // Version first: another layout's trailer (v1's, or a newer one's)
        // cannot be trusted by this reader, so it must be rejected before
        // any trailer interpretation.
        let version =
            u16::from_le_bytes(bytes[MAGIC.len()..MAGIC.len() + 2].try_into().expect("2 bytes"));
        if version != VERSION {
            return Err(JournalError::Version { found: version });
        }
        let len = bytes.len();
        if &bytes[len - END_MAGIC.len()..] != END_MAGIC {
            // A clean truncation chops the end magic off first.
            return Err(JournalError::Truncated { expected: len as u64 + 1, actual: len as u64 });
        }
        let trailer_at = len - TRAILER;
        let mut t = Cursor::new(&bytes, trailer_at, len);
        let mut word = || t.u64_le().map_err(corrupt);
        let events_end = word()? as usize;
        let n_events = word()?;
        let total_len = word()?;
        if total_len != len as u64 {
            return Err(JournalError::Truncated { expected: total_len, actual: len as u64 });
        }
        let stored_sum = word()?;
        let actual_sum = fnv64(&bytes[..len - 12]);
        if stored_sum != actual_sum {
            return Err(JournalError::Checksum { expected: stored_sum, actual: actual_sum });
        }
        let (meta, state) =
            parse_sections(&bytes, trailer_at, events_end, n_events).map_err(corrupt)?;
        Ok(JournalReader { meta, bytes, inner: ReaderInner::Binary(Box::new(state)) })
    }

    /// The detected format.
    pub fn format(&self) -> JournalFormat {
        match &self.inner {
            ReaderInner::Jsonl { .. } => JournalFormat::Jsonl,
            ReaderInner::Binary(_) => JournalFormat::Binary,
        }
    }

    /// The journal header.
    pub fn meta(&self) -> &ObsMeta {
        &self.meta
    }

    /// Total journal size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        match &self.inner {
            ReaderInner::Jsonl { n_events, .. } => *n_events,
            ReaderInner::Binary(b) => b.n_events as usize,
        }
    }

    /// True when the journal holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Streams the journal's events in order, decoding one at a time.
    pub fn events(&self) -> Events<'_> {
        match &self.inner {
            ReaderInner::Jsonl { events_at, .. } => Events(EventsInner::Jsonl {
                // Validated as UTF-8 at open.
                rest: std::str::from_utf8(&self.bytes[*events_at..]).expect("validated utf-8"),
                line: 2,
            }),
            ReaderInner::Binary(b) => Events(EventsInner::Binary {
                state: b,
                c: Cursor::new(&self.bytes, b.events_start, b.events_end),
                prev_time: 0,
                remaining: b.n_events,
            }),
        }
    }

    /// Decodes the whole journal into an in-memory [`ObsJournal`].
    pub fn read_journal(&self) -> Result<ObsJournal, JournalError> {
        let mut j = ObsJournal::new(self.meta.clone());
        for r in self.events() {
            j.push(r?);
        }
        Ok(j)
    }

    /// Streams every event, in order, into `sink` — one decoded event in
    /// flight at a time, the journal never materialized in memory. This is
    /// the single ingest route shared by `detect --replay`, `journal info
    /// --deltas` and the `mgd` daemon. Returns the number of events fed; a
    /// decode error (truncation, bit rot, bad line) aborts with the typed
    /// cause, leaving `sink` partially fed.
    pub fn replay_into(&self, sink: &mut impl ObsSink) -> Result<usize, JournalError> {
        let mut n = 0usize;
        for r in self.events() {
            sink.ingest(&r?);
            n += 1;
        }
        Ok(n)
    }
}

/// Parses the header, checks the section bounds and decodes the interned
/// tables of a binary journal whose container (length, version, checksum)
/// is already valid. Reads are capped at the trailer.
fn parse_sections(
    bytes: &[u8],
    trailer_at: usize,
    events_end: usize,
    n_events: u64,
) -> Result<(ObsMeta, BinState), Fault> {
    // Header → meta.
    let header_at = MAGIC.len() + 2;
    let mut c = Cursor::new(bytes, header_at, trailer_at);
    let tagged = c.varint()? as NodeId;
    let nv = c.varint()?;
    if nv > trailer_at as u64 {
        return Err(c.fault_on("vantage count exceeds journal size", nv));
    }
    let mut vantages = Vec::with_capacity(nv as usize);
    for _ in 0..nv {
        vantages.push(c.varint()? as NodeId);
    }
    let pair_distance = c.f64_le()?;
    let seed = c.u64_le()?;
    let np = c.varint()?;
    if np > trailer_at as u64 {
        return Err(c.fault_on("param count exceeds journal size", np));
    }
    let mut params = Vec::with_capacity(np as usize);
    for _ in 0..np {
        let k = c.string()?;
        let v = c.string()?;
        params.push((k, v));
    }
    let meta = ObsMeta { tagged, vantages, pair_distance, seed, params };
    if let Err(what) = meta.check() {
        return Err(Fault { offset: header_at, what, value: None });
    }
    let events_start = c.pos;
    if events_end < events_start || events_end > trailer_at {
        return Err(c.fault_on("events section end outside the body", events_end as u64));
    }
    // Every event takes at least one byte.
    if n_events > (events_end - events_start) as u64 {
        return Err(c.fault_on("event count exceeds the events section's bytes", n_events));
    }

    // Tables live between the events section and the trailer.
    let mut c = Cursor::new(bytes, events_end, trailer_at);
    let nf = c.varint()?;
    if nf > (trailer_at - events_end) as u64 {
        return Err(c.fault_on("frame table claims too many entries", nf));
    }
    let mut frames = Vec::with_capacity(nf as usize);
    for _ in 0..nf {
        frames.push(decode_frame(&mut c)?);
    }
    let nr = c.varint()?;
    if nr > (trailer_at - events_end) as u64 {
        return Err(c.fault_on("ranging table claims too many entries", nr));
    }
    let mut rangings = Vec::with_capacity(nr as usize);
    for _ in 0..nr {
        rangings.push(decode_ranging_vec(&mut c)?);
    }
    if c.pos != trailer_at {
        return Err(c.fault("tables do not end at the trailer"));
    }
    Ok((meta, BinState { events_start, events_end, n_events, frames, rangings }))
}

/// Decodes one event at `c` and moves `prev_time` to its primary instant.
#[inline]
fn decode_event(c: &mut Cursor<'_>, state: &BinState, prev_time: &mut u64) -> Result<Obs, Fault> {
    let tag = c.u8()?;
    let obs = match tag {
        TAG_EDGE_IDLE | TAG_EDGE_BUSY => {
            let node = c.varint()? as NodeId;
            let at = c.time_delta(*prev_time)?;
            *prev_time = at;
            Obs::ChannelEdge { node, busy: tag == TAG_EDGE_BUSY, at: SimTime::from_nanos(at) }
        }
        TAG_TX => {
            let src = c.varint()? as NodeId;
            let at = c.time_delta(*prev_time)?;
            let dur = c.varint()?;
            let frame = lookup_frame(c, state)?;
            *prev_time = at;
            Obs::TxStart {
                src,
                frame,
                at: SimTime::from_nanos(at),
                end: SimTime::from_nanos(at.wrapping_add(dur)),
            }
        }
        TAG_RX => {
            let at_node = c.varint()? as NodeId;
            let start = c.time_delta(*prev_time)?;
            let dur = c.varint()?;
            let frame = lookup_frame(c, state)?;
            *prev_time = start;
            Obs::Decoded {
                at: at_node,
                frame,
                start: SimTime::from_nanos(start),
                end: SimTime::from_nanos(start.wrapping_add(dur)),
            }
        }
        TAG_GARBLE => {
            let at_node = c.varint()? as NodeId;
            let now = c.time_delta(*prev_time)?;
            *prev_time = now;
            Obs::Garbled { at: at_node, now: SimTime::from_nanos(now) }
        }
        TAG_RNG => {
            let from = c.varint()? as NodeId;
            let at = c.time_delta(*prev_time)?;
            let at_id = c.pos;
            let id = c.varint()?;
            let Some(to) = state.rangings.get(id as usize) else {
                let what = "ranging table id out of range";
                return Err(Fault { offset: at_id, what, value: Some(id) });
            };
            *prev_time = at;
            Obs::Ranging { from, to: to.clone(), at: SimTime::from_nanos(at) }
        }
        other => {
            let value = Some(u64::from(other));
            return Err(Fault { offset: c.pos - 1, what: "unknown event tag", value });
        }
    };
    Ok(obs)
}

#[inline(always)]
fn lookup_frame(c: &mut Cursor<'_>, state: &BinState) -> Result<Frame, Fault> {
    let at_id = c.pos;
    let id = c.varint()?;
    match state.frames.get(id as usize) {
        Some(f) => Ok(*f),
        None => Err(Fault { offset: at_id, what: "frame table id out of range", value: Some(id) }),
    }
}

/// Streaming event iterator over a [`JournalReader`] — decodes one event
/// per `next()` call, in journal order. After the first decode error the
/// iterator is exhausted (a damaged journal is never partially trusted).
pub struct Events<'a>(EventsInner<'a>);

enum EventsInner<'a> {
    Jsonl {
        /// Remaining text (event lines).
        rest: &'a str,
        /// 1-based line number of the next line.
        line: usize,
    },
    Binary {
        /// The interned tables.
        state: &'a BinState,
        /// The events section, positioned at the next event.
        c: Cursor<'a>,
        /// Running delta base.
        prev_time: u64,
        /// Events left to decode.
        remaining: u64,
    },
}

impl Iterator for Events<'_> {
    type Item = Result<Obs, JournalError>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            EventsInner::Jsonl { rest, line } => loop {
                let cur: &str = rest;
                if cur.is_empty() {
                    return None;
                }
                let (l, tail) = match cur.find('\n') {
                    Some(i) => (&cur[..i], &cur[i + 1..]),
                    None => (cur, ""),
                };
                let this_line = *line;
                *rest = tail;
                *line += 1;
                if l.trim().is_empty() {
                    continue;
                }
                let parsed = match Json::parse(l) {
                    Ok(v) => v,
                    Err(e) => {
                        *rest = "";
                        return Some(Err(JournalError::Syntax {
                            line: this_line,
                            what: format!("{e}"),
                        }));
                    }
                };
                return Some(match obs_from_json(&parsed) {
                    Some(o) => Ok(o),
                    None => {
                        *rest = "";
                        Err(JournalError::Syntax { line: this_line, what: "bad event".into() })
                    }
                });
            },
            EventsInner::Binary { state, c, prev_time, remaining } => {
                let end = c.bytes.len();
                let fault = if *remaining == 0 {
                    if c.pos == end {
                        return None;
                    }
                    c.fault("event count ends before the events section")
                } else if c.pos >= end {
                    c.fault("events section ends before the event count")
                } else {
                    match decode_event(c, state, prev_time) {
                        Ok(o) => {
                            *remaining -= 1;
                            return Some(Ok(o));
                        }
                        Err(f) => f,
                    }
                };
                *remaining = 0;
                c.pos = end;
                Some(Err(corrupt(fault)))
            }
        }
    }
}
