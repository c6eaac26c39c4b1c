//! # mg-sim — deterministic discrete-event simulation kernel
//!
//! The substrate under the whole `manet-guard` stack. ns-2 (which the paper
//! uses) is an event-driven simulator with a central scheduler; this crate
//! provides the same service in safe Rust:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual clock with **nanosecond**
//!   resolution (IEEE 802.11 timing constants such as the 20 µs slot, 10 µs
//!   SIFS and fractional-slot DIFS all stay exactly representable).
//! * [`Scheduler`] — a binary-heap event queue with strictly deterministic
//!   FIFO tie-breaking for events scheduled at the same instant, plus O(1)
//!   lazy cancellation.
//! * [`rng`] — self-contained, reproducible random-number streams
//!   ([`rng::SplitMix64`], [`rng::Xoshiro256`]) and a [`rng::RngDirectory`]
//!   that derives independent per-node / per-purpose streams from a single
//!   run seed, so any simulation run can be replayed bit-for-bit.
//!
//! # Example
//!
//! ```
//! use mg_sim::{Scheduler, SimDuration, SimTime};
//!
//! let mut sched: Scheduler<&'static str> = Scheduler::new();
//! sched.schedule_in(SimDuration::from_micros(20), "slot boundary");
//! sched.schedule_in(SimDuration::from_micros(10), "sifs elapsed");
//! let (t, ev) = sched.pop().expect("an event is pending");
//! assert_eq!(ev, "sifs elapsed");
//! assert_eq!(t, SimTime::from_micros(10));
//! ```

#![warn(missing_docs)]

pub mod rng;
mod scheduler;
mod time;

pub use scheduler::{EventHandle, Scheduler};
pub use time::{SimDuration, SimTime};
