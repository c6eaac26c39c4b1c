//! # manet-guard
//!
//! A complete, from-scratch Rust implementation of
//!
//! > *Detecting MAC Layer Back-off Timer Violations in Mobile Ad Hoc
//! > Networks* — Lolla, Law, Krishnamurthy, Ravishankar, Manjunath
//! > (IEEE ICDCS 2006)
//!
//! including every substrate the paper runs on: a deterministic
//! discrete-event simulator, a wireless PHY with distinct transmission
//! (250 m) and carrier-sensing (550 m) ranges, a full IEEE 802.11 DCF MAC
//! with the paper's verifiable-back-off extensions, traffic generators,
//! random-waypoint mobility, AODV-lite routing — and, on top, the paper's
//! contribution: a combined deterministic + statistical detector of back-off
//! timer violations.
//!
//! ## Layout
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`sim`] | `mg-sim` | virtual clock, event queue, reproducible RNG streams |
//! | [`geom`] | `mg-geom` | circle/lens areas, the A1–A5 region model, placement |
//! | [`stats`] | `mg-stats` | Wilcoxon rank-sum, Welch t, ARMA filter, summaries |
//! | [`crypto`] | `mg-crypto` | MD5 (RFC 1321), the verifiable back-off PRS |
//! | [`phy`] | `mg-phy` | propagation models, radio thresholds, shared medium |
//! | [`mac`] | `mg-dcf` | the 802.11 DCF MAC + misbehavior policies |
//! | [`net`] | `mg-net` | the simulation world, traffic, mobility, AODV-lite |
//! | [`obs`] | `mg-obs` | the monitor's typed observation alphabet + record/replay journals |
//! | [`trace`] | `mg-trace` | structured event journal, per-node metrics |
//! | [`fault`] | `mg-fault` | deterministic fault injection for chaos testing |
//! | [`detect`] | `mg-detect` | **the detection framework** (the paper's contribution) |
//! | [`quorum`] | `mg-quorum` | collaborative detection: accusation gossip, k-of-n conviction |
//! | [`serve`] | `mg-serve` | the `mgd` daemon: multi-stream demux, bounded per-worker queues, wire protocol |
//!
//! ## Quickstart
//!
//! Catch a node that counts down only 25 % of its dictated back-off:
//!
//! ```
//! use manet_guard::prelude::*;
//!
//! // The paper's 7×8 grid, light Poisson background traffic.
//! let scenario = Scenario::new(ScenarioConfig {
//!     sim_secs: 20,
//!     rate_pps: 2.0,
//!     ..ScenarioConfig::grid_paper(7)
//! });
//! let (s, r) = scenario.tagged_pair();
//!
//! // Declare the roles: an attacker and the paper's monitor at its neighbor.
//! let mut builder = ScenarioBuilder::new(scenario);
//! let attacker = builder.attacker(s);
//! let watch = builder.monitor(MonitorConfig::grid_paper(s, r, 240.0));
//! builder.source(SourceCfg::saturated(s, r));
//!
//! let mut world = builder.build();
//! world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm: 75 });
//! world.run_until(SimTime::from_secs(20));
//!
//! let diagnosis = world.monitors().diagnosis(watch);
//! assert!(diagnosis.is_flagged(), "{diagnosis:?}");
//! ```
//!
//! ## Observability
//!
//! Every layer emits structured events into an optional ring-buffer journal
//! and counts into per-node metrics — both zero-cost when disabled. Ask the
//! builder for them:
//!
//! ```
//! use manet_guard::prelude::*;
//!
//! let scenario = Scenario::new(ScenarioConfig {
//!     sim_secs: 2, rate_pps: 2.0, ..ScenarioConfig::grid_paper(7)
//! });
//! let (s, r) = scenario.tagged_pair();
//! let mut builder = ScenarioBuilder::new(scenario);
//! builder.monitor(MonitorConfig::grid_paper(s, r, 240.0));
//! builder.source(SourceCfg::saturated(s, r));
//! builder.trace(TraceConfig::default()); // journal MAC/net/monitor events
//! builder.metrics();                     // per-node counters + histograms
//!
//! let mut world = builder.build();
//! world.run_until(SimTime::from_secs(2));
//!
//! let jsonl = world.tracer().to_jsonl();          // one JSON object per line
//! let snapshot = world.metrics().snapshot();      // counters + histograms
//! assert!(!jsonl.is_empty());
//! assert!(snapshot.total(Counter::TxFrames) > 0);
//! ```

#![warn(missing_docs)]

pub use mg_crypto as crypto;
pub use mg_dcf as mac;
pub use mg_detect as detect;
pub use mg_fault as fault;
pub use mg_geom as geom;
pub use mg_net as net;
pub use mg_obs as obs;
pub use mg_phy as phy;
pub use mg_quorum as quorum;
pub use mg_serve as serve;
pub use mg_sim as sim;
pub use mg_stats as stats;
pub use mg_trace as trace;

/// The types almost every user needs, in one import.
pub mod prelude {
    pub use mg_dcf::{BackoffPolicy, Dest, Frame, FrameKind, MacSdu, MacTiming};
    pub use mg_detect::{
        render_report, template_from_meta, AnalyticModel, Assembly, AttackerHandle,
        DetectorSession, Diagnosis, DiagnosisDelta, FaultPlan, JournalError, JournalFormat,
        JournalReader, JournalWriter, Monitor, MonitorConfig, MonitorHandle, MonitorPool, Monitors,
        NodeCounts, Obs, ObsFaults, ObsJournal, ObsMeta, ObsRecorder, ObsSink, ScenarioBuilder,
        SessionSpec, Violation, WorldMonitors, WorldProbe,
    };
    pub use mg_geom::{PreclusionRule, RegionModel, Vec2};
    pub use mg_net::{
        MobilityCfg, NetObserver, Scenario, ScenarioConfig, SourceCfg, TopologyCfg, TrafficKind,
        TrafficModel, World,
    };
    pub use mg_phy::{Medium, MediumIndex, PropagationModel, RadioParams};
    pub use mg_quorum::{
        members_from_journal, Accusation, EvidenceKind, MonitorRole, QuorumFaults, QuorumSession,
        QuorumSpec,
    };
    pub use mg_serve::{Daemon, Policy, ServeConfig, ServeStats, StreamReport};
    pub use mg_sim::{SimDuration, SimTime};
    pub use mg_stats::wilcoxon::{rank_sum_test, Alternative};
    pub use mg_trace::{Counter, Level, Metrics, MetricsSnapshot, Subsystem, TraceConfig, Tracer};
}
