//! # mg-serve — serving the detector: many streams, one daemon
//!
//! Everything below the `mgd` binary: the length-prefixed
//! [wire protocol](wire) whose frames are self-contained binary journal
//! chunks, and the [daemon engine](daemon) that demultiplexes concurrent
//! journal streams into incremental [`mg_detect::DetectorSession`]s and
//! emits [`mg_detect::DiagnosisDelta`] JSONL to subscribers. Each worker
//! drains one bounded `std::sync::mpsc::sync_channel` with explicit
//! block/shed back-pressure, and a stream whose producer fails mid-stream
//! frees its session when its handle drops.
//!
//! The load-bearing invariant: a report produced by the daemon for a
//! stream is **byte-identical** to `detect --replay` over the same journal
//! — both build their detector through [`mg_detect::SessionSpec::from_meta`]
//! and render through [`mg_detect::render_report`]. The ci socket gate
//! diffs exactly this.
//!
//! ## Quick start
//!
//! ```
//! use mg_serve::{Daemon, ServeConfig};
//! use mg_obs::{Obs, ObsMeta};
//! use mg_sim::SimTime;
//!
//! let daemon = Daemon::start(ServeConfig::default(), None);
//! let meta = ObsMeta {
//!     tagged: 0, vantages: vec![1], pair_distance: 240.0, seed: 7,
//!     params: vec![("kind".into(), "grid".into())],
//! };
//! let mut stream = daemon.open(meta);
//! stream.push(Obs::ChannelEdge { node: 1, busy: true, at: SimTime::from_micros(10) });
//! let report = stream.close().expect("daemon alive");
//! assert!(!report.flagged);
//! let stats = daemon.shutdown();
//! assert_eq!(stats.events, 1);
//! ```

#![warn(missing_docs)]

pub mod daemon;
pub mod wire;

pub use daemon::{
    default_workers, serve_connection, Daemon, Policy, ServeConfig, ServeStats, StreamHandle,
    StreamReport,
};
pub use wire::{read_frame, send_journal, write_end, write_frame, WireError, MAX_FRAME};
