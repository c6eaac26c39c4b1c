//! `mg-quorum` — collaborative detection over the single-vantage detector.
//!
//! The paper's monitor is a *single* vantage deciding alone. One lying or
//! broken monitor therefore decides alone too. This crate makes the verdict
//! collective:
//!
//! 1. Every quorum member runs an unmodified one-member detector
//!    ([`mg_detect::DetectorSession`]) at its own vantage, fed the shared
//!    observation stream (monitors filter by vantage internally, so one
//!    stream serves all members unchanged).
//! 2. Local evidence — a deterministic conviction or a rejected rank-sum
//!    test — becomes a typed [`Accusation`] gossiped to every peer over a
//!    seeded lossy, delayed [`GossipChannel`].
//! 3. Each member tallies *distinct accusers* per suspect and convicts on a
//!    **k-of-n quorum**. Votes are deduplicated by accuser, so `f`
//!    Byzantine monitors contribute at most `f` votes anywhere: honest
//!    members stay silent on a well-behaved node, hence `f < k` implies
//!    zero false convictions — exactly the bound the ci.sh Byzantine gate
//!    pins at PM = 0.
//!
//! Byzantine behavior is a seeded fault layer
//! ([`mg_fault::QuorumFaults`]): each vantage draws a
//! [`MonitorRole`] — honest, false-accuser, mute or
//! flip — from its private `(plan seed, vantage)` stream, so equal plans
//! replay the exact same adversary byte for byte.
//!
//! ```
//! use mg_quorum::QuorumSpec;
//! use mg_detect::MonitorConfig;
//!
//! let template = MonitorConfig::grid_paper(0, 1, 240.0);
//! let mut q = QuorumSpec::new(0, &[(1, 240.0), (2, 300.0)], template, 2).build();
//! // feed the shared Obs stream ... then:
//! q.finish();
//! assert!(!q.is_flagged()); // nothing observed, nobody convicted
//! ```

#![warn(missing_docs)]

mod accusation;
mod channel;
mod session;

pub use accusation::{Accusation, EvidenceKind};
pub use channel::{GossipChannel, GossipConfig, GossipCounts};
pub use mg_fault::{MonitorRole, QuorumFaults};
pub use session::{members_from_journal, QuorumSession, QuorumSpec};
