//! # mg-testkit — the in-tree test toolkit
//!
//! This workspace builds with **zero external dependencies** (see README.md,
//! "Hermetic builds"), so the usual `proptest`/`criterion` layer is replaced
//! by this crate:
//!
//! * [`prop`] — a minimal property-testing harness: seeded case generation
//!   on top of `mg-sim`'s reproducible RNG, a configurable case count,
//!   failure shrinking by halving the recorded raw draws, and the failing
//!   seed printed on every failure so a case can be replayed exactly;
//! * [`mod@bench`] — a wall-clock micro-benchmark runner with automatic
//!   iteration calibration, for `harness = false` bench binaries;
//! * [`alloc`] — a thread-local counting global allocator for tests that
//!   pin an allocation budget, plus a process-wide live-bytes gauge (each
//!   test binary declares the static).
//!
//! ## Writing a property
//!
//! ```
//! use mg_testkit::prop::{check, Gen, TkResult};
//! use mg_testkit::tk_assert;
//!
//! fn prop_add_commutes(g: &mut Gen) -> TkResult {
//!     let a = g.u64_in(0..1_000);
//!     let b = g.u64_in(0..1_000);
//!     tk_assert!(a + b == b + a, "{a} + {b}");
//!     Ok(())
//! }
//!
//! check("add_commutes", prop_add_commutes);
//! ```
//!
//! Knobs (environment variables):
//!
//! | variable | default | meaning |
//! |----------|---------|---------|
//! | `TESTKIT_CASES` | 64 | accepted cases per property |
//! | `TESTKIT_SEED` | fixed | base seed for the whole run |
//! | `MG_BENCH_MS` | 300 | target wall-clock milliseconds per benchmark |

#![warn(missing_docs)]

pub mod alloc;
pub mod bench;
pub mod prop;

pub use prop::{check, check_with, Config, Gen, TkError, TkResult};
