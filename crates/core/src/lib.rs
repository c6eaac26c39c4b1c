//! # mg-detect — detecting MAC-layer back-off timer violations
//!
//! The paper's contribution: a **combined deterministic + statistical
//! framework** by which every node in an ad hoc network can tell whether a
//! neighbor honors the IEEE 802.11 back-off rules, with no access point and
//! no trusted arbiter.
//!
//! ## How it works
//!
//! 1. **Verifiable sequences** (`mg-crypto`): every node's back-off values
//!    come from a public PRS seeded by its MAC address; every RTS commits to
//!    a sequence offset, attempt number and DATA digest. A monitor replays
//!    the tagged node's PRS and knows the *dictated* value of every draw.
//! 2. **Deterministic checks** ([`Violation`]): sequence-offset reuse,
//!    attempt-number cheating (caught via the MD5 digest), and countdowns
//!    that are blatantly short during fully-observable periods.
//! 3. **Statistical inference** ([`Monitor`], judged by [`MonitorPool`]):
//!    when interference makes the tagged node's channel view unobservable,
//!    the monitor estimates it:
//!    traffic intensity ρ by the paper's ARMA filter (Eq. 6), local node
//!    density à la Bianchi–Tinnirello ([`DensityEstimator`]), the
//!    conditional probabilities `p_{B|I}`/`p_{I|B}` from the geometric model
//!    ([`AnalyticModel`], Eqs. 3–5), and finally the *estimated observed*
//!    back-off of every transmission (Eqs. 1–2). A one-sided **Wilcoxon
//!    rank-sum test** compares the estimated population against the dictated
//!    one; rejection ⇒ the neighbor transmits earlier than its timers allow.
//!
//! ## Quick start
//!
//! ```
//! use mg_detect::{MonitorConfig, ScenarioBuilder, WorldMonitors};
//! use mg_net::{ScenarioConfig, Scenario, SourceCfg};
//! use mg_dcf::BackoffPolicy;
//! use mg_sim::SimTime;
//!
//! // Tagged sender S and monitor R at the center of the paper's grid.
//! let scenario = Scenario::new(ScenarioConfig {
//!     sim_secs: 20, rate_pps: 2.0, ..ScenarioConfig::grid_paper(1)
//! });
//! let (s, r) = scenario.tagged_pair();
//! let mut b = ScenarioBuilder::new(scenario);
//! let attacker = b.attacker(s);
//! let watch = b.monitor(MonitorConfig::grid_paper(s, r, 240.0));
//! b.source(SourceCfg::saturated(s, r));
//! let mut world = b.build();
//! world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm: 80 });
//! world.run_until(SimTime::from_secs(20));
//! assert!(world.monitors().diagnosis(watch).is_flagged());
//! ```

#![warn(missing_docs)]

mod analysis;
mod channel;
mod density;
mod monitor;
mod pool;
mod record;
mod scenario;
mod session;

pub use analysis::AnalyticModel;
pub use channel::{ChannelTracker, JointTracker};
pub use density::DensityEstimator;
pub use monitor::{Diagnosis, Monitor, MonitorConfig, NodeCounts, Violation};
pub use mg_fault::{FaultPlan, ObsFaults};
pub use mg_obs::{
    JournalError, JournalFormat, JournalReader, JournalWriter, Obs, ObsJournal, ObsMeta, ObsSink,
};
pub use pool::MonitorPool;
pub use record::ObsRecorder;
pub use scenario::{
    Assembly, AttackerHandle, MonitorHandle, Monitors, ScenarioBuilder, WorldMonitors, WorldProbe,
};
pub use session::{
    render_report, template_from_meta, DetectorSession, DiagnosisDelta, SessionSpec,
};

/// Index of a node in the simulation.
pub type NodeId = usize;
