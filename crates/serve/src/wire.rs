//! The `mgd` stream protocol: length-prefixed, self-contained binary
//! journal chunks.
//!
//! A journal stream on the wire is a sequence of **frames**:
//!
//! ```text
//! [u32 LE payload length][payload bytes]  ...repeated...  [u32 LE 0]
//! ```
//!
//! Every non-empty payload is a complete binary-format journal (header +
//! events + trailer) produced by [`JournalWriter`] — exactly the encoding
//! `journal transcode` writes to disk. Reusing the whole container per
//! chunk instead of inventing a bare event framing buys three things:
//!
//! * **validation for free** — each chunk passes the reader's magic,
//!   trailer and checksum checks, so truncation and bit rot on the wire are
//!   caught by the same typed [`JournalError`]s as on disk;
//! * **self-identification** — every chunk carries the stream's
//!   [`ObsMeta`](mg_obs::ObsMeta), so the first frame alone tells the daemon which detector
//!   session to open;
//! * **streamability** — the binary format's trailer sits at the end of a
//!   *file*, which would otherwise force the sender to finish the journal
//!   before transmitting anything.
//!
//! The zero-length frame marks end-of-stream: the server closes the
//! detector session, writes the plain-text detection report back, and
//! closes the connection.

use mg_obs::{JournalError, JournalFormat, JournalReader, JournalWriter};
use std::io::{self, Read, Write};

/// Upper bound on a single frame payload. Large enough for any sane chunk
/// (a 64 MiB binary chunk is tens of millions of events), small enough that
/// a corrupted length prefix cannot trigger a multi-gigabyte allocation.
pub const MAX_FRAME: usize = 64 << 20;

/// The most a frame's buffer reserves before any payload byte arrives; it
/// grows past this only as bytes are actually read, so a peer that claims
/// [`MAX_FRAME`] and then stalls pins at most this much.
const FIRST_RESERVE: usize = 1 << 20;

/// A wire-protocol failure: transport I/O or journal-payload validation.
#[derive(Debug)]
pub enum WireError {
    /// The transport failed (connection reset, short read…).
    Io(io::Error),
    /// A frame payload failed journal validation (truncation, checksum…).
    Journal(JournalError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Journal(e) => write!(f, "wire payload error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<JournalError> for WireError {
    fn from(e: JournalError) -> Self {
        WireError::Journal(e)
    }
}

/// Writes one non-empty frame. Payloads over [`MAX_FRAME`] are refused —
/// the peer would reject them anyway.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.is_empty() || payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload must be 1..={MAX_FRAME} bytes, got {}", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Writes the end-of-stream marker (a zero-length frame).
pub fn write_end(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&0u32.to_le_bytes())
}

/// Reads one frame. `Ok(None)` is the end-of-stream marker; an oversized
/// length prefix is `InvalidData` (a corrupted or hostile peer), a short
/// read is `UnexpectedEof`. The payload buffer grows with the bytes
/// received, not with the length claimed.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut hdr = [0u8; 4];
    r.read_exact(&mut hdr)?;
    let len = u32::from_le_bytes(hdr) as usize;
    if len == 0 {
        return Ok(None);
    }
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = Vec::with_capacity(len.min(FIRST_RESERVE));
    r.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame cut short: {} of {len} payload bytes", buf.len()),
        ));
    }
    Ok(Some(buf))
}

/// Streams a whole journal as chunked frames followed by the end marker:
/// what `journal send` and the ci gate put on the wire. Every chunk holds
/// at most `chunk` events; an *empty* journal still sends one meta-only
/// chunk so the server learns the stream's identity. Returns the number of
/// events sent.
pub fn send_journal(
    w: &mut impl Write,
    reader: &JournalReader,
    chunk: usize,
) -> Result<u64, WireError> {
    let chunk = chunk.max(1);
    let meta = reader.meta();
    let mut jw = JournalWriter::new(JournalFormat::Binary, meta);
    let mut sent = 0u64;
    let mut framed = false;
    for ev in reader.events() {
        jw.push(&ev?);
        sent += 1;
        if jw.len() >= chunk {
            let full = std::mem::replace(&mut jw, JournalWriter::new(JournalFormat::Binary, meta));
            write_frame(w, &full.finish())?;
            framed = true;
        }
    }
    if !jw.is_empty() || !framed {
        write_frame(w, &jw.finish())?;
    }
    write_end(w)?;
    w.flush()?;
    Ok(sent)
}
