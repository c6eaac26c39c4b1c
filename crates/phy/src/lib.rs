//! # mg-phy — the wireless physical layer
//!
//! Models exactly what the paper's ns-2 setup models:
//!
//! * [`PropagationModel`] — free-space, two-ray ground, and the log-normal
//!   **shadowing** model of the paper (`P_r(d)/P_r(d0) [dB] = −10·β·
//!   log10(d/d0) + X_σ`); the paper's experiments use β = 2, σ = 0 (free
//!   space), with σ > 0 available for fading studies.
//! * [`RadioParams`] — transmit power and the two reception thresholds that
//!   create the paper's two concentric disks: the **transmission range**
//!   (250 m, frames decodable) and the **carrier-sensing / interference
//!   range** (550 m, channel merely perceived busy). Plus a 10 dB capture
//!   threshold, as in ns-2.
//! * [`Medium`] — the shared channel: tracks concurrent transmissions,
//!   answers per-node carrier-sense queries, reports busy/idle **edges**
//!   (which drive both the MAC back-off freeze logic and the monitor's slot
//!   statistics), and adjudicates per-receiver reception outcomes
//!   (decoded / collided / sensed-only) using SINR capture. Transmission
//!   footprints are discovered through a [`MediumIndex`] — a cell-grid
//!   spatial index by default, with the naive full scan kept compiled and
//!   byte-identical for differential testing.
//!
//! # Example
//!
//! ```
//! use mg_geom::Vec2;
//! use mg_phy::{Medium, PropagationModel, RadioParams};
//! use mg_sim::{rng::Xoshiro256, SimTime};
//!
//! let prop = PropagationModel::free_space();
//! let radio = RadioParams::calibrated(&prop, 250.0, 550.0);
//! let positions = vec![Vec2::new(0.0, 0.0), Vec2::new(240.0, 0.0)];
//! let mut medium = Medium::new(prop, radio, positions);
//! let mut rng = Xoshiro256::new(1);
//!
//! let (tx, edges) = medium.begin_tx(0, SimTime::ZERO, &mut rng);
//! assert!(edges.iter().any(|e| e.node == 1 && e.busy)); // neighbor senses it
//! let ended = medium.end_tx(tx, SimTime::from_micros(272));
//! assert!(ended.outcome_of(1).is_decoded()); // and decodes it (240 m < 250 m)
//! ```

#![warn(missing_docs)]

mod index;
mod medium;
mod propagation;
mod radio;

pub use medium::{EdgeChange, EndedTx, Medium, MediumIndex, RxOutcome, TxId};
pub use propagation::PropagationModel;
pub use radio::{dbm_to_mw, mw_to_dbm, RadioParams};

/// Index of a node in the simulation (dense, assigned at construction).
pub type NodeId = usize;
