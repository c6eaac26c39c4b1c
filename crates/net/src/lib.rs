//! # mg-net — the MANET network layer and simulation world
//!
//! Everything above the MAC and below the experiments:
//!
//! * [`World`] — the simulation driver: owns the event queue (`mg-sim`), the
//!   shared medium (`mg-phy`) and one [`mg_dcf::DcfMac`] per node, executes
//!   MAC actions, routes receptions, and feeds a pluggable [`NetObserver`]
//!   (the detection framework of `mg-detect` is one such observer).
//! * [`TrafficModel`] / [`SourceCfg`] — Poisson, CBR and saturated traffic
//!   generators (the paper evaluates Poisson and CBR and finds them
//!   equivalent at equal intensity).
//! * [`RandomWaypoint`] — the paper's mobility model (0–20 m/s uniform,
//!   configurable pause times, 3000 m × 3000 m field).
//! * [`AodvLite`] — a compact AODV (RREQ/RREP + hop-count routes) for the
//!   multi-hop example; the paper's Table 1 lists AODV as the routing
//!   protocol even though its measured flows are single-hop.
//! * [`ScenarioConfig`] — a serializable description of a full experiment
//!   (Table 1 defaults) and [`Scenario`] — the builder that turns it into a
//!   ready-to-run [`World`].

#![warn(missing_docs)]

mod aodv;
mod config;
mod mobility;
mod observers;
mod traffic;
mod world;

pub use aodv::{AodvLite, NetMsg, RouteEntry, RouterAction};
pub use config::{MobilityCfg, ScenarioConfig, TopologyCfg, TrafficKind};
pub use mobility::RandomWaypoint;
pub use observers::{Fanout, MetricsObserver, TraceEntry, TraceObserver};
pub use traffic::{DstPolicy, SourceCfg, TrafficModel};
pub use world::{NetObserver, Scenario, World};

/// Index of a node in the simulation.
pub type NodeId = usize;
