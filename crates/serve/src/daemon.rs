//! The multi-stream detection daemon: demultiplexes many concurrent
//! journal streams into one incremental [`DetectorSession`] per
//! `(stream, sender, vantage)` and emits typed deltas as JSONL.
//!
//! ## Architecture
//!
//! ```text
//! producers (sockets / files / pipes / bench)
//!      │  StreamHandle::push — batches, Block or Shed policy      ▲
//!      ▼                                                          │
//! bounded queues (one std sync_channel per worker)                │ drained
//!      │  Job::{Open, Events, Close, Abort}                       │ batches
//!      ▼                                                          │ (spares)
//! worker threads — sessions: HashMap<stream id, DetectorSession> ─┘
//!      │  DiagnosisDelta JSONL → shared subscriber sink
//!      ▼
//! StreamReport (render_report — byte-identical to `detect --replay`)
//! ```
//!
//! A stream is pinned to one worker (`stream id % workers`), so events of
//! one stream are processed in recorded order with no cross-thread
//! synchronization on the session. Each session is built by
//! [`SessionSpec::from_meta`], the *same* constructor `detect --replay`
//! uses; the per-monitor members inside the pooled session are exactly the
//! paper's one-detector-per-`(sender, vantage)` decomposition. Because
//! detection is deterministic in the event order of its own stream, a
//! report produced here is byte-identical to an offline replay of the same
//! journal — the property the ci socket gate diffs.
//!
//! ## Back-pressure
//!
//! Queues are bounded ([`ServeConfig::queue_cap`] jobs per worker). The
//! [`Policy`] decides what a full queue does to the producer: **Block**
//! parks it (lossless, default), **Shed** drops the batch at the producer
//! and accounts it in the stream's drop counter, which travels into
//! [`StreamReport::dropped`] and the daemon-wide [`ServeStats`]. Opens,
//! closes and aborts always block: they are never shed.
//!
//! ## Abandoned streams
//!
//! A [`StreamHandle`] dropped without [`StreamHandle::close`] (a connection
//! that failed mid-stream) aborts its stream: the worker frees the session
//! at once, renders no report, casts no quorum vote and counts the stream
//! in [`ServeStats::abandoned`].
//!
//! ## Batch recycling
//!
//! Batches flow back: a worker clears each batch it has ingested and
//! returns it to a spare list shared through the [`Daemon`]. A handle takes
//! a spare on its first push after a hand-off, or allocates one at full
//! [`ServeConfig::batch`] capacity when none is free, so a steady-state
//! hand-off allocates nothing and no batch regrows from zero. Closed and
//! idle handles hold no spare. The list keeps at most eight batches per
//! worker and frees any excess, so a burst cannot pin `workers × queue_cap`
//! batches.

use crate::wire::{self, WireError};
use mg_detect::{render_report, Diagnosis, DetectorSession, SessionSpec};
use mg_obs::{JournalReader, Obs, ObsMeta};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// The worker count a default [`ServeConfig`] resolves to: the host's
/// available parallelism, falling back to 2 when the platform cannot
/// report it. `mgd` echoes this resolved value at startup.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2)
}

/// What a producer does when its worker queue is full.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Policy {
    /// Park the producer until space frees up: lossless back-pressure.
    #[default]
    Block,
    /// Drop the batch at the producer and account it: bounded latency.
    Shed,
}

impl Policy {
    /// Parses `block`/`shed` (the `--policy` flag values).
    pub fn parse(s: &str) -> Option<Policy> {
        match s {
            "block" => Some(Policy::Block),
            "shed" => Some(Policy::Shed),
            _ => None,
        }
    }

    /// The flag spelling of this policy.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Block => "block",
            Policy::Shed => "shed",
        }
    }
}

/// Daemon construction knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads draining session work (streams are sharded across
    /// them by stream id).
    pub workers: usize,
    /// Bounded queue capacity per worker, in jobs (one job ≈ one batch).
    pub queue_cap: usize,
    /// Events buffered per [`StreamHandle`] before a queue hand-off.
    pub batch: usize,
    /// Full-queue behavior at the producers.
    pub policy: Policy,
    /// Emit [`mg_detect::DiagnosisDelta`] JSONL to the subscriber sink.
    pub deltas: bool,
    /// Override the sessions' rank-sum sample size (`detect --samples`).
    pub sample_size: Option<usize>,
    /// Cross-stream conviction quorum: when `Some(k)`, every stream that
    /// closes with a flagged verdict casts one vote against its tagged
    /// node, and [`Daemon::quorum_report`] convicts suspects with at least
    /// `k` distinct flagged streams.
    pub quorum: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: default_workers(),
            queue_cap: 1024,
            batch: 256,
            policy: Policy::Block,
            deltas: false,
            sample_size: None,
            quorum: None,
        }
    }
}

/// The terminal state of one served stream, rendered when it closes.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// The daemon-assigned stream id.
    pub stream: u64,
    /// The stream's tagged (monitored) node.
    pub tagged: usize,
    /// Events the producer pushed (accepted + shed).
    pub events: u64,
    /// Events shed at the producer under [`Policy::Shed`].
    pub dropped: u64,
    /// The aggregate verdict.
    pub flagged: bool,
    /// The final diagnosis snapshot.
    pub diagnosis: Diagnosis,
    /// The `samples`/`tests`/`checks`/`verdict` block, byte-identical to
    /// `detect --replay` on the same journal ([`render_report`]).
    pub report: String,
}

/// Daemon-wide counters returned by [`Daemon::shutdown`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Streams opened over the daemon's lifetime.
    pub streams: u64,
    /// Events ingested by detector sessions.
    pub events: u64,
    /// Diagnosis deltas emitted.
    pub deltas: u64,
    /// Events shed at producers (reported at stream close).
    pub dropped: u64,
    /// Streams whose handle was dropped unclosed (the producer failed
    /// mid-stream). Each such session is freed when its handle drops.
    pub abandoned: u64,
}

type DeltaSink = Arc<Mutex<Box<dyn Write + Send>>>;

/// Drained batches the spare list keeps per worker; any excess is freed.
const SPARES_PER_WORKER: usize = 8;

/// Drained batch buffers on their way back from workers to producers.
struct Spares {
    list: Mutex<Vec<Vec<Obs>>>,
    /// Most batches kept.
    cap: usize,
    /// Capacity of a fresh batch ([`ServeConfig::batch`]).
    batch: usize,
}

impl Spares {
    /// A recycled empty batch, or a fresh one at full batch capacity.
    fn take(&self) -> Vec<Obs> {
        let spare = self.list.lock().expect("spare list lock").pop();
        spare.unwrap_or_else(|| Vec::with_capacity(self.batch))
    }

    /// Clears a drained batch and keeps it, unless the list is full.
    fn put(&self, mut batch: Vec<Obs>) {
        batch.clear();
        let mut list = self.list.lock().expect("spare list lock");
        if list.len() < self.cap {
            list.push(batch);
        }
    }
}

enum Job {
    Open {
        stream: u64,
        meta: Box<ObsMeta>,
    },
    Events {
        stream: u64,
        batch: Vec<Obs>,
    },
    Close {
        stream: u64,
        dropped: u64,
        reply: mpsc::Sender<StreamReport>,
    },
    /// The stream's handle was dropped unclosed.
    Abort {
        stream: u64,
    },
}

/// The serving engine: owns the worker threads and their queues. Producers
/// interact through [`StreamHandle`]s; [`Daemon::shutdown`] closes the
/// queues, drains them and joins every worker.
pub struct Daemon {
    cfg: ServeConfig,
    txs: Vec<SyncSender<Job>>,
    workers: Vec<JoinHandle<WorkerStats>>,
    next_stream: AtomicU64,
    /// Per-suspect set of streams that closed flagged (quorum mode only).
    votes: Option<VoteMap>,
    spares: Arc<Spares>,
}

type VoteMap = Arc<Mutex<BTreeMap<usize, BTreeSet<u64>>>>;

impl Daemon {
    /// Starts the workers. `delta_out`, when given, receives one JSONL line
    /// per [`mg_detect::DiagnosisDelta`] (tagged with its stream id) if
    /// `cfg.deltas` is set.
    pub fn start(cfg: ServeConfig, delta_out: Option<Box<dyn Write + Send>>) -> Daemon {
        let sink: Option<DeltaSink> =
            delta_out.filter(|_| cfg.deltas).map(|w| Arc::new(Mutex::new(w)));
        let votes: Option<VoteMap> =
            cfg.quorum.map(|_| Arc::new(Mutex::new(BTreeMap::new())));
        let n_workers = cfg.workers.max(1);
        let spares = Arc::new(Spares {
            list: Mutex::new(Vec::new()),
            cap: SPARES_PER_WORKER * n_workers,
            batch: cfg.batch.max(1),
        });
        let mut txs = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..n_workers {
            let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_cap.max(1));
            let sink = sink.clone();
            let votes = votes.clone();
            let spares = spares.clone();
            let sample_size = cfg.sample_size;
            txs.push(tx);
            workers.push(std::thread::spawn(move || {
                worker(rx, sample_size, sink, votes, &spares)
            }));
        }
        Daemon {
            cfg,
            txs,
            workers,
            next_stream: AtomicU64::new(1),
            votes,
            spares,
        }
    }

    /// The config the daemon was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The cross-stream quorum tally, one line per accused node, in node
    /// order — `None` unless the daemon runs with [`ServeConfig::quorum`].
    /// A suspect is convicted when at least `k` *distinct streams* closed
    /// flagged against it; below the quorum it stays cleared. Call after
    /// the streams of interest have closed (a close is synchronous: its
    /// report reply proves the vote landed).
    pub fn quorum_report(&self) -> Option<String> {
        use std::fmt::Write as _;
        let k = self.cfg.quorum?;
        let votes = self.votes.as_ref()?.lock().expect("vote map lock");
        let mut out = String::new();
        if votes.is_empty() {
            let _ = writeln!(out, "quorum   : k = {k}, no stream flagged any node");
            return Some(out);
        }
        for (suspect, streams) in votes.iter() {
            let n = streams.len();
            let _ = writeln!(
                out,
                "quorum   : k = {k}, {n} stream(s) flagged node {suspect} -> {}",
                if n >= k { "CONVICTED" } else { "below quorum, cleared" }
            );
        }
        Some(out)
    }

    /// Opens a new stream described by `meta` and returns its producer
    /// handle. The open itself always uses blocking back-pressure — a
    /// session must exist before events can be shed *meaningfully*. A
    /// `meta` that fails [`ObsMeta::check`] opens no session: the worker
    /// skips the stream's events and its [`StreamHandle::close`] returns
    /// `None`.
    pub fn open(&self, meta: ObsMeta) -> StreamHandle {
        let id = self.next_stream.fetch_add(1, Ordering::Relaxed);
        let tx = self.txs[(id as usize) % self.txs.len()].clone();
        let _ = tx.send(Job::Open {
            stream: id,
            meta: Box::new(meta),
        });
        StreamHandle {
            id,
            tx,
            policy: self.cfg.policy,
            batch_cap: self.spares.batch,
            buf: Vec::new(),
            spares: self.spares.clone(),
            events: 0,
            dropped: 0,
            closed: false,
        }
    }

    /// Closes every queue, drains the remaining jobs and joins the workers.
    /// Returning at all *is* the drain proof: a worker only exits once
    /// every handle on its queue is gone and the queue is empty. A worker
    /// that panicked has already reported on stderr, and the jobs queued to
    /// it were dropped with its queue; the totals count the workers that
    /// exited.
    pub fn shutdown(self) -> ServeStats {
        drop(self.txs);
        let mut total = ServeStats::default();
        for w in self.workers {
            let Ok(s) = w.join() else {
                continue;
            };
            total.streams += s.streams;
            total.events += s.events;
            total.deltas += s.deltas;
            total.dropped += s.dropped;
            total.abandoned += s.abandoned;
        }
        total
    }
}

/// Producer-side handle to one open stream: batches events and applies the
/// daemon's back-pressure policy at the queue boundary. Dropping it without
/// [`close`](StreamHandle::close) aborts the stream and frees its session.
pub struct StreamHandle {
    id: u64,
    tx: SyncSender<Job>,
    policy: Policy,
    batch_cap: usize,
    /// The batch being filled; capacity 0 between a hand-off and the next
    /// push.
    buf: Vec<Obs>,
    spares: Arc<Spares>,
    events: u64,
    dropped: u64,
    /// Set by `close`, so the drop that follows sends no abort.
    closed: bool,
}

impl StreamHandle {
    /// The daemon-assigned stream id.
    pub fn stream_id(&self) -> u64 {
        self.id
    }

    /// Appends one event; hands a full batch to the worker queue.
    pub fn push(&mut self, obs: Obs) {
        if self.buf.capacity() == 0 {
            self.buf = self.spares.take();
        }
        self.buf.push(obs);
        self.events += 1;
        if self.buf.len() >= self.batch_cap {
            self.flush();
        }
    }

    /// Pushes the current partial batch through the queue (respecting the
    /// policy). A no-op when the buffer is empty.
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.buf);
        let n = batch.len() as u64;
        let job = Job::Events {
            stream: self.id,
            batch,
        };
        match self.policy {
            Policy::Block => {
                if self.tx.send(job).is_err() {
                    self.dropped += n;
                }
            }
            Policy::Shed => {
                if self.tx.try_send(job).is_err() {
                    self.dropped += n;
                }
            }
        }
    }

    /// Events pushed so far (accepted + shed).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Events shed so far under [`Policy::Shed`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Flushes, closes the stream and returns its final report. `None`
    /// if the stream has no session (its header failed
    /// [`ObsMeta::check`]) or its worker is gone (shut down, or panicked
    /// before it reached this close).
    pub fn close(mut self) -> Option<StreamReport> {
        self.flush();
        self.closed = true;
        let (rtx, rrx) = mpsc::channel();
        // Close is never shed: the producer must learn the verdict.
        self.tx
            .send(Job::Close {
                stream: self.id,
                dropped: self.dropped,
                reply: rtx,
            })
            .ok()?;
        rrx.recv().ok()
    }
}

impl Drop for StreamHandle {
    fn drop(&mut self) {
        if !self.closed {
            // Like Open and Close, an abort is never shed.
            let _ = self.tx.send(Job::Abort { stream: self.id });
        }
    }
}

#[derive(Default)]
struct WorkerStats {
    streams: u64,
    events: u64,
    deltas: u64,
    dropped: u64,
    abandoned: u64,
}

struct StreamState {
    meta: ObsMeta,
    session: DetectorSession,
    events: u64,
}

fn worker(
    rx: Receiver<Job>,
    sample_size: Option<usize>,
    sink: Option<DeltaSink>,
    votes: Option<VoteMap>,
    spares: &Spares,
) -> WorkerStats {
    let mut sessions: HashMap<u64, StreamState> = HashMap::new();
    let mut stats = WorkerStats::default();
    let mut lines = String::new();
    while let Ok(job) = rx.recv() {
        match job {
            Job::Open { stream, meta } => {
                // A header no session can be built from opens none: the
                // stream's events and close then find no session, as for
                // an unknown stream, and the worker lives on.
                if meta.check().is_err() {
                    continue;
                }
                let mut spec = SessionSpec::from_meta(&meta);
                if let Some(n) = sample_size {
                    spec = spec.with_sample_size(n);
                }
                sessions.insert(
                    stream,
                    StreamState {
                        meta: *meta,
                        session: spec.build(),
                        events: 0,
                    },
                );
                stats.streams += 1;
            }
            Job::Events { stream, batch } => {
                let Some(s) = sessions.get_mut(&stream) else {
                    continue;
                };
                s.events += batch.len() as u64;
                stats.events += batch.len() as u64;
                for obs in &batch {
                    for d in s.session.ingest(obs) {
                        stats.deltas += 1;
                        if sink.is_some() {
                            // `{"stream":N,` + the delta object's own body.
                            let body = d.to_json().render();
                            lines.push_str(&format!("{{\"stream\":{stream},{}\n", &body[1..]));
                        }
                    }
                }
                if let (Some(sink), false) = (&sink, lines.is_empty()) {
                    let mut w = sink.lock().expect("delta sink lock");
                    let _ = w.write_all(lines.as_bytes());
                    lines.clear();
                }
                spares.put(batch);
            }
            Job::Close {
                stream,
                dropped,
                reply,
            } => {
                let Some(s) = sessions.remove(&stream) else {
                    continue;
                };
                stats.dropped += dropped;
                let diag = s.session.diagnosis();
                if let (Some(votes), true) = (&votes, diag.is_flagged()) {
                    let mut map = votes.lock().expect("vote map lock");
                    map.entry(s.meta.tagged).or_default().insert(stream);
                }
                let report = render_report(s.meta.tagged, sample_size.unwrap_or(50), false, &diag);
                let _ = reply.send(StreamReport {
                    stream,
                    tagged: s.meta.tagged,
                    // Pushed = accepted (worker-side) + shed (producer-side).
                    events: s.events + dropped,
                    dropped,
                    flagged: diag.is_flagged(),
                    diagnosis: diag,
                    report,
                });
            }
            Job::Abort { stream } => {
                // No report, no vote; a stream whose header opened no
                // session has nothing to free.
                if sessions.remove(&stream).is_some() {
                    stats.abandoned += 1;
                }
            }
        }
    }
    if let Some(sink) = &sink {
        let mut w = sink.lock().expect("delta sink lock");
        let _ = w.flush();
    }
    stats
}

/// Serves one framed connection (socket, pipe — anything `Read + Write`):
/// reads chunked journal frames until the end marker, feeds them into a
/// daemon stream, then writes the final detection report back and returns
/// it. `Ok(None)` means the peer sent no frames at all.
///
/// A transport or validation error abandons the stream: the dropped handle
/// frees its session, counted in [`ServeStats::abandoned`].
pub fn serve_connection<S: Read + Write>(
    conn: &mut S,
    daemon: &Daemon,
) -> Result<Option<StreamReport>, WireError> {
    let mut handle: Option<StreamHandle> = None;
    while let Some(payload) = wire::read_frame(conn)? {
        let reader = JournalReader::from_bytes(payload)?;
        let h = handle.get_or_insert_with(|| daemon.open(reader.meta().clone()));
        for ev in reader.events() {
            h.push(ev?);
        }
    }
    let Some(h) = handle else {
        return Ok(None);
    };
    let report = h.close();
    if let Some(r) = &report {
        conn.write_all(r.report.as_bytes())?;
        conn.flush()?;
    }
    Ok(report)
}
