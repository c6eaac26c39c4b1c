//! # mg-dcf — IEEE 802.11 DCF with verifiable back-off
//!
//! A faithful event-driven implementation of the 802.11 **Distributed
//! Coordination Function** (the MAC the paper attacks and defends), plus the
//! paper's Section 4 modifications:
//!
//! * CSMA/CA with physical *and* virtual (NAV) carrier sense;
//! * slotted back-off with freeze/resume, DIFS/EIFS deference, binary
//!   exponential contention-window growth, and the standard retry limits;
//! * the RTS/CTS/DATA/ACK four-way handshake (plus broadcast frames);
//! * **verifiable back-off**: every back-off value is drawn from the node's
//!   MAC-address-seeded [`mg_crypto::VerifiableSequence`], and every RTS
//!   carries the paper's modified fields ([`RtsFields`]): the 13-bit
//!   sequence offset, the 3-bit attempt number, and the MD5 digest of the
//!   DATA frame to follow (Fig. 2 of the paper);
//! * pluggable [`BackoffPolicy`] — the compliant policy and the misbehavior
//!   models the paper evaluates (percentage-of-misbehavior scaling, constant
//!   windows, non-standard distributions, attempt-number cheating).
//!
//! The MAC is written sans-I/O: it consumes *events* (timer fires, channel
//! edges, decoded frames) and appends *actions* ([`MacAction`]) to a buffer
//! the caller owns and reuses: arm/disarm a timer, start a transmission,
//! deliver a packet upward. The surrounding
//! world (`mg-net`) wires those actions to the event queue and the shared
//! medium — which also makes every protocol rule unit-testable in isolation.

#![warn(missing_docs)]

mod dcf;
mod frame;
mod policy;
mod timing;

pub use dcf::{DcfMac, MacAction, MacSnapshot, MacState, MacStats, Timer};
pub use frame::{sdu_digest, Dest, Frame, FrameKind, MacSdu, RtsFields};
pub use policy::BackoffPolicy;
pub use timing::MacTiming;

/// Index of a node in the simulation (matches `mg_phy::NodeId`).
pub type NodeId = usize;
