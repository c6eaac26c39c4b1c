//! # mg-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the full
//! index), all built on the helpers here:
//!
//! * [`BenchConfig`] — the shared environment knobs, read and validated
//!   once per binary;
//! * [`Load`] — the three offered-load levels the paper evaluates, mapped to
//!   background source rates for this simulator (measured ρ is always
//!   reported next to the nominal level);
//! * [`detection_trial`] — one full simulation with a tagged (possibly
//!   misbehaving) node and the paper's monitor, returning test/violation
//!   counts — plus [`detection_trial_fanout_faulted`], which attaches one
//!   monitor per sample size to a *single* world, so a figure sweeping
//!   sample sizes simulates each (point, seed) once instead of once per
//!   size, and [`detection_trial_with_cfg_faulted`] for a fully explicit
//!   config; the mobile worlds of Figs. 5(d)/6(b) run through
//!   [`mobile_detection_trial_fanout_faulted`];
//! * [`conditional_probability_run`] — the Figure 3/4 measurement: empirical
//!   `p_{B|I}` / `p_{I|B}` from a [`mg_detect::JointTracker`];
//! * [`sweep_or_exit`] — every binary's grid, drained cold by the
//!   [`mg_runner`] work-stealing pool with per-cell fault isolation;
//! * [`table`] — aligned-table output, mirrored to CSV and JSON files.
//!
//! ## Environment knobs
//!
//! All read through [`BenchConfig::from_env`]; malformed values abort with
//! an error naming the variable.
//!
//! | variable | default | meaning |
//! |----------|---------|---------|
//! | `MG_TRIALS` | 8 | independent seeds per parameter point |
//! | `MG_SIM_SECS` | 120 | virtual seconds per trial |
//! | `MG_CSV_DIR` | unset | when set, each binary also writes CSV here |
//! | `MG_JSON_DIR` | unset | when set, each binary also writes JSON here |
//! | `MG_FAULT_PROFILE` | unset | fault-injection plan (see [`FaultPlan::parse`]) |
//! | `MG_FAULT_SEED` | unset | overrides the fault plan's seed |
//! | `MG_MEDIUM_INDEX` | `grid` | medium spatial index: `grid` or `naive` |

#![warn(missing_docs)]

use mg_dcf::BackoffPolicy;
use mg_detect::{
    Assembly, JointTracker, MonitorConfig, MonitorHandle, NodeCounts, ObsJournal, ObsMeta,
    ObsRecorder, ScenarioBuilder, WorldMonitors, WorldProbe,
};
use mg_net::{NetObserver, Scenario, ScenarioConfig, SourceCfg, World};
use mg_sim::{SimDuration, SimTime};
use mg_trace::MetricsSnapshot;

pub use mg_detect::FaultPlan;
pub use mg_trace::json;

pub mod config;
pub mod table;

pub use config::BenchConfig;

/// The paper's three offered-load levels, mapped to background Poisson/CBR
/// rates for this simulator. The mapping was chosen so the *measured* busy
/// fraction at the central monitor lands near the nominal level; every
/// experiment prints the measured value alongside.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Load {
    /// Nominal ρ ≈ 0.3.
    Low,
    /// Nominal ρ ≈ 0.6.
    Medium,
    /// Nominal ρ ≈ 0.9.
    High,
}

impl Load {
    /// All three levels in paper order.
    pub fn all() -> [Load; 3] {
        [Load::Low, Load::Medium, Load::High]
    }

    /// The nominal traffic intensity this level stands for.
    pub fn nominal(&self) -> f64 {
        match self {
            Load::Low => 0.3,
            Load::Medium => 0.6,
            Load::High => 0.9,
        }
    }

    /// Background per-source packet rate realizing the level (without the
    /// tagged node's saturated flow, which adds its own share).
    ///
    /// Note: this simulator's channel saturates near a measured busy
    /// fraction of ~0.6 from background alone (interference-range collisions
    /// put a hard ceiling on spatial reuse); `High` therefore sits at the
    /// heaviest pre-collapse operating point rather than a literal ρ = 0.9.
    /// Every experiment reports the measured ρ next to the nominal label.
    pub fn rate_pps(&self) -> f64 {
        match self {
            Load::Low => 0.8,
            Load::Medium => 4.0,
            Load::High => 8.0,
        }
    }
}

impl std::fmt::Display for Load {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.1}", self.nominal())
    }
}

/// Outcome of one detection trial.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrialOutcome {
    /// Hypothesis tests run.
    pub tests: u64,
    /// Tests rejecting H0.
    pub rejections: u64,
    /// Deterministic violations recorded.
    pub violations: u64,
    /// Back-off samples collected.
    pub samples: u64,
    /// Anomalous observations held below the monitor's confirmation
    /// threshold (nonzero only under observation-fault injection).
    pub uncertain: u64,
    /// Measured overall busy fraction at the monitor.
    pub rho: f64,
    /// Stack-wide counters and histograms from the trial's metrics.
    pub metrics: MetricsSnapshot,
}

impl TrialOutcome {
    /// Merges another outcome (for aggregation across seeds).
    pub fn merge(&mut self, o: &TrialOutcome) {
        self.tests += o.tests;
        self.rejections += o.rejections;
        self.violations += o.violations;
        self.samples += o.samples;
        self.uncertain += o.uncertain;
        self.rho += o.rho; // divide by trial count at the end
        self.metrics.merge(&o.metrics);
    }

    /// Rejection rate (detection probability under H1, misdiagnosis
    /// probability under H0).
    pub fn rejection_rate(&self) -> f64 {
        if self.tests == 0 {
            0.0
        } else {
            self.rejections as f64 / self.tests as f64
        }
    }
}

/// One static world, one monitor per requested sample size.
///
/// This is the fan-out at the heart of the sample-size figures: the world's
/// evolution is independent of the monitors (observers are strictly
/// read-only), so `sample_sizes.len()` monitors on one simulation measure
/// exactly what `sample_sizes.len()` identical simulations would — at 1/N
/// the cost. Outcomes come back in `sample_sizes` order, each carrying the
/// same world-metrics snapshot.
fn detection_trial_multi(
    cfg: ScenarioConfig,
    pm: u8,
    sample_sizes: &[usize],
    statistical_only: bool,
    faults: &FaultPlan,
) -> Vec<TrialOutcome> {
    let secs = cfg.sim_secs;
    let scenario = Scenario::new(cfg);
    let (s, r) = scenario.tagged_pair();
    let d = scenario.positions()[s].distance(scenario.positions()[r]);
    let mut mc = MonitorConfig::grid_paper(s, r, d);
    if statistical_only {
        mc.blatant_check = false;
    }
    if matches!(scenario.config().topology, mg_net::TopologyCfg::Random { .. }) {
        mc.counts = NodeCounts::FromDensity;
    }
    let mut b = ScenarioBuilder::new(scenario);
    let attacker = b.attacker(s);
    let watches: Vec<_> = sample_sizes
        .iter()
        .map(|&ss| b.monitor(mc.with_sample_size(ss)))
        .collect();
    b.source(SourceCfg::saturated(s, r));
    b.metrics();
    if !faults.is_noop() {
        b.fault(faults.clone());
    }
    let mut world = b.build();
    if pm > 0 {
        world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm });
    }
    world.run_until(SimTime::from_secs(secs));
    outcomes(&world, &watches)
}

/// One outcome per monitor in `watches` order, each carrying the same
/// world-metrics snapshot.
fn outcomes(world: &World<Assembly>, watches: &[MonitorHandle]) -> Vec<TrialOutcome> {
    let metrics = world.metrics().snapshot();
    watches
        .iter()
        .map(|&w| {
            let diag = world.monitors().diagnosis(w);
            TrialOutcome {
                tests: diag.tests_run as u64,
                rejections: diag.rejections as u64,
                violations: diag.violations as u64,
                samples: diag.samples_collected as u64,
                uncertain: diag.uncertain as u64,
                rho: diag.measured_rho,
                metrics,
            }
        })
        .collect()
}

/// Like [`detection_trial`] but with a fully explicit [`ScenarioConfig`],
/// and a [`FaultPlan`] injected at the monitor's observation boundary.
///
/// `seed` overrides `cfg.seed`, so sweeping seeds over a fixed base config
/// does what it says.
pub fn detection_trial_with_cfg_faulted(
    seed: u64,
    cfg: ScenarioConfig,
    pm: u8,
    sample_size: usize,
    statistical_only: bool,
    faults: &FaultPlan,
) -> TrialOutcome {
    let cfg = ScenarioConfig { seed, ..cfg };
    detection_trial_multi(cfg, pm, &[sample_size], statistical_only, faults)[0]
}

/// Runs one static detection trial: the paper's Figure 5 (PM > 0) and
/// Figure 6 (PM = 0) measurement.
pub fn detection_trial(
    seed: u64,
    load: Load,
    pm: u8,
    sample_size: usize,
    secs: u64,
    statistical_only: bool,
    cfg_base: ScenarioConfig,
) -> TrialOutcome {
    let faults = FaultPlan::default();
    detection_trial_fanout_faulted(
        seed,
        load,
        pm,
        &[sample_size],
        secs,
        statistical_only,
        cfg_base,
        &faults,
    )
    .remove(0)
}

/// [`detection_trial`] fanned out over several sample sizes on one world
/// (one simulation, one monitor per size, outcomes in `sample_sizes`
/// order), with a [`FaultPlan`] injected at every monitor's observation
/// boundary (chaos testing). The world itself runs unchanged; pass
/// `FaultPlan::default()` for a fault-free trial.
#[allow(clippy::too_many_arguments)]
pub fn detection_trial_fanout_faulted(
    seed: u64,
    load: Load,
    pm: u8,
    sample_sizes: &[usize],
    secs: u64,
    statistical_only: bool,
    cfg_base: ScenarioConfig,
    faults: &FaultPlan,
) -> Vec<TrialOutcome> {
    let cfg = ScenarioConfig {
        sim_secs: secs,
        rate_pps: load.rate_pps(),
        seed,
        ..cfg_base
    };
    detection_trial_multi(cfg, pm, sample_sizes, statistical_only, faults)
}

/// Runs one mobile detection trial (Figures 5(d)/6(b)) per sample size on
/// one world: random topology, random waypoint, and one
/// [`mg_detect::MonitorPool`] per size with range-based handoff, with a
/// [`FaultPlan`] injected at every pool member's observation boundary.
pub fn mobile_detection_trial_fanout_faulted(
    seed: u64,
    load: Load,
    pm: u8,
    sample_sizes: &[usize],
    secs: u64,
    pause: SimDuration,
    faults: &FaultPlan,
) -> Vec<TrialOutcome> {
    let cfg = ScenarioConfig {
        sim_secs: secs,
        rate_pps: load.rate_pps(),
        seed,
        ..ScenarioConfig::mobile_paper(seed, pause)
    };
    let scenario = Scenario::new(cfg);
    let (s, r) = scenario.tagged_pair();
    let vantages: Vec<usize> = (0..scenario.positions().len()).filter(|&v| v != s).collect();
    let mut template = MonitorConfig::random_paper(s, r, 240.0);
    // Under mobility the vantage's collision environment diverges from the
    // tagged node's, so the EIFS compensation over-subtracts and becomes a
    // false-alarm source; run it conservative (see EXPERIMENTS.md).
    template.eifs_weight = 0.0;
    // Distance-scaled calibration tracks the elected vantage's proximity
    // (close vantages share almost all of the tagged node's channel view).
    template.counts = NodeCounts::SimCalibrated;
    let mut b = ScenarioBuilder::new(scenario);
    let attacker = b.attacker(s);
    let watches: Vec<_> = sample_sizes
        .iter()
        .map(|&ss| b.monitor_pool(template.with_sample_size(ss), &vantages))
        .collect();
    // The tagged flow follows whichever neighbor is currently in range.
    b.source(SourceCfg {
        node: s,
        model: mg_net::TrafficModel::Saturated,
        dst: mg_net::DstPolicy::StickyRandomNeighbor,
        payload_len: 512,
    });
    b.metrics();
    if !faults.is_noop() {
        b.fault(faults.clone());
    }
    let mut world = b.build();
    if pm > 0 {
        world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm });
    }
    world.run_until(SimTime::from_secs(secs));
    outcomes(&world, &watches)
}

/// Simulates the static detection world for `(seed, cfg, pm)` **once** and
/// records the monitored pair's observation stream.
///
/// The exclusion set (`attacker` + `reserve`) matches what
/// [`detection_trial_with_cfg_faulted`] derives from its monitor registration, so
/// background sources land on the same nodes and the world evolves
/// byte-identically to a monitored run — observers are strictly read-only.
/// The returned journal can then be replayed into any number of detector
/// configurations (a [`mg_detect::SessionSpec`] session fed through
/// [`ObsJournal::replay`]): the ablation binaries record each world once
/// per process and replay it for every knob.
pub fn record_detection_world(seed: u64, cfg: ScenarioConfig, pm: u8) -> ObsJournal {
    let cfg = ScenarioConfig { seed, ..cfg };
    let secs = cfg.sim_secs;
    let scenario = Scenario::new(cfg);
    let (s, r) = scenario.tagged_pair();
    let d = scenario.positions()[s].distance(scenario.positions()[r]);
    let mut b = ScenarioBuilder::new(scenario);
    let attacker = b.attacker(s);
    b.reserve(r);
    b.source(SourceCfg::saturated(s, r));
    let meta = ObsMeta {
        tagged: s,
        vantages: vec![r],
        pair_distance: d,
        seed,
        params: vec![("pm".into(), pm.to_string())],
    };
    let mut world = b.probe(ObsRecorder::new(meta)).build();
    if pm > 0 {
        world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm });
    }
    world.run_until(SimTime::from_secs(secs));
    world.probe().journal().clone()
}

/// What one collaborative-detection trial observed: the quorum's verdict
/// plus the realized Byzantine cast and the gossip volume behind it.
///
/// `byzantine` is the *realized* count — roles are drawn per vantage from
/// the fault plan's fractions, so a `lie=0.25` cell can materialize 0..n
/// liars. The false-conviction assertion in `bench_quorum` conditions on
/// this realized count, not the nominal fraction: only trials with fewer
/// than `k` liars carry the zero-false-conviction guarantee.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuorumOutcome {
    /// True when an *honest* member convicted the tagged node.
    pub convicted: bool,
    /// Distinct accusers against the tagged node at the best-informed
    /// honest member.
    pub votes: u64,
    /// Quorum size (members actually built).
    pub members: u64,
    /// Realized Byzantine members (roles drawn from the fault plan).
    pub byzantine: u64,
    /// Accusation copies delivered to members other than their accuser.
    pub gossip_delivered: u64,
}

/// Simulates the static detection world for `(seed, cfg, pm)` once and
/// records the observation streams of the quorum's member vantages: the
/// closest `members_cap` non-tagged nodes still inside *decode* range of
/// the tagged node (a monitor must decode its RTS/CTS exchange). The
/// journal header carries each member's measured distance as a `dist.<v>`
/// parameter, so [`mg_quorum::members_from_journal`] rebuilds the exact
/// live geometry on replay — this is the quorum analogue of
/// [`record_detection_world`].
pub fn record_quorum_world(
    seed: u64,
    cfg: ScenarioConfig,
    pm: u8,
    members_cap: usize,
) -> ObsJournal {
    let cfg = ScenarioConfig { seed, ..cfg };
    let secs = cfg.sim_secs;
    let tx_range = cfg.tx_range;
    let scenario = Scenario::new(cfg);
    let (s, r) = scenario.tagged_pair();
    let pos = scenario.positions();
    let mut members: Vec<(usize, f64)> = (0..pos.len())
        .filter(|&v| v != s)
        .map(|v| (v, pos[s].distance(pos[v])))
        .filter(|&(_, d)| d <= tx_range)
        .collect();
    members.sort_by(|a, b| {
        a.1.partial_cmp(&b.1).expect("finite distance").then(a.0.cmp(&b.0))
    });
    members.truncate(members_cap);
    assert!(!members.is_empty(), "no vantage within decode range of node {s}");
    let mut b = ScenarioBuilder::new(scenario);
    let attacker = b.attacker(s);
    for &(v, _) in &members {
        b.reserve(v);
    }
    b.source(SourceCfg::saturated(s, r));
    let mut params = vec![("pm".into(), pm.to_string())];
    for &(v, d) in &members {
        params.push((format!("dist.{v}"), d.to_string()));
    }
    let meta = ObsMeta {
        tagged: s,
        vantages: members.iter().map(|&(v, _)| v).collect(),
        pair_distance: members[0].1,
        seed,
        params,
    };
    let mut world = b.probe(ObsRecorder::new(meta)).build();
    if pm > 0 {
        world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm });
    }
    world.run_until(SimTime::from_secs(secs));
    world.probe().journal().clone()
}

/// Replays a [`record_quorum_world`] journal into a gossiping
/// [`mg_quorum::QuorumSession`] with conviction threshold `k` and the
/// Byzantine cast drawn from `faults`, and reports the collaborative
/// verdict. Pure detector-side work: sweeping `k` or the Byzantine
/// fraction re-runs this, never the simulation.
pub fn quorum_trial_from_journal(
    journal: &ObsJournal,
    sample_size: usize,
    k: usize,
    faults: &FaultPlan,
) -> QuorumOutcome {
    let meta = journal.meta();
    let members = mg_quorum::members_from_journal(journal);
    assert!(
        members.len() >= k,
        "quorum k={k} exceeds the {} recorded vantages",
        members.len()
    );
    let template = MonitorConfig::grid_paper(meta.tagged, members[0].0, members[0].1)
        .with_sample_size(sample_size);
    let mut q = mg_quorum::QuorumSpec::new(meta.tagged, &members, template, k)
        .with_faults(faults.clone())
        .build();
    journal.replay(&mut q);
    QuorumOutcome {
        convicted: q.is_flagged(),
        votes: q.votes_against(meta.tagged) as u64,
        members: members.len() as u64,
        byzantine: q.byzantine_count() as u64,
        gossip_delivered: q.delivered(),
    }
}

/// Runs a sweep through [`mg_runner::try_sweep`] under the config's
/// runner-layer faults (injected panics), degrading gracefully on trial
/// failures: every poisoned cell is reported on stderr, and the process
/// exits with status 1 *before* any table is emitted — a partially-failed
/// sweep never masquerades as a clean figure.
/// Fault-free sweeps return all results in task order.
pub fn sweep_or_exit<T: Sync, R: Send>(
    bc: &BenchConfig,
    tasks: &[T],
    run: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let results = mg_runner::try_sweep(tasks, &bc.fault.runner, run);
    let mut failed = 0usize;
    let mut ok = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok(v) => ok.push(v),
            Err(e) => {
                failed += 1;
                eprintln!("mg-bench: error: {e}");
            }
        }
    }
    if failed > 0 {
        eprintln!("mg-bench: {failed} sweep cell(s) failed; no tables emitted");
        std::process::exit(1);
    }
    ok
}

/// Observer measuring the Figure 3/4 conditional probabilities for a pair.
pub struct JointProbe {
    s: usize,
    r: usize,
    /// The joint carrier-sense statistics.
    pub joint: JointTracker,
}

impl JointProbe {
    /// Probes the pair (s, r).
    pub fn new(s: usize, r: usize) -> Self {
        JointProbe {
            s,
            r,
            joint: JointTracker::new(),
        }
    }
}

impl NetObserver for JointProbe {
    fn on_channel_edge(&mut self, node: usize, busy: bool, now: SimTime) {
        if node == self.s {
            self.joint.on_s_edge(busy, now);
        }
        if node == self.r {
            self.joint.on_r_edge(busy, now);
        }
    }
    fn on_tx_start(&mut self, src: usize, _f: &mg_dcf::Frame, now: SimTime, end: SimTime) {
        if src == self.s {
            self.joint.on_s_tx(now, end);
        }
        if src == self.r {
            self.joint.on_r_tx(now, end);
        }
    }
}

/// Result of one conditional-probability measurement run.
#[derive(Clone, Copy, Debug)]
pub struct CondProbPoint {
    /// Measured monitor-side traffic intensity.
    pub rho: f64,
    /// Empirical `P(S busy | R idle)`.
    pub p_bi: f64,
    /// Empirical `P(S idle | R busy)`.
    pub p_ib: f64,
    /// The probed pair's distance (m).
    pub pair_distance: f64,
}

/// One Figure 3/4 simulation point: all nodes compliant, measure the joint
/// statistics of the central pair.
pub fn conditional_probability_run(
    seed: u64,
    rate_pps: f64,
    secs: u64,
    cfg_base: ScenarioConfig,
) -> CondProbPoint {
    let cfg = ScenarioConfig {
        sim_secs: secs,
        rate_pps,
        seed,
        ..cfg_base
    };
    let scenario = Scenario::new(cfg);
    let (s, r) = scenario.tagged_pair();
    let pair_distance = scenario.positions()[s].distance(scenario.positions()[r]);
    // No roles declared: the probed pair keeps its background traffic, same
    // as the old empty exclusion list.
    let b = ScenarioBuilder::new(scenario).probe(JointProbe::new(s, r));
    let mut world = b.build();
    world.run_until(SimTime::from_secs(secs));
    let now = world.now();
    let probe = world.probe_mut();
    probe.joint.finish(now);
    CondProbPoint {
        rho: probe.joint.r_rho(),
        p_bi: probe.joint.p_busy_given_idle(),
        p_ib: probe.joint.p_idle_given_busy(),
        pair_distance,
    }
}

/// Averages conditional-probability points into `(rho, p_bi, p_ib, dist)`.
pub fn aggregate_points(points: &[CondProbPoint]) -> (f64, f64, f64, f64) {
    if points.is_empty() {
        return (0.0, 0.0, 0.0, 0.0);
    }
    let n = points.len() as f64;
    (
        points.iter().map(|p| p.rho).sum::<f64>() / n,
        points.iter().map(|p| p.p_bi).sum::<f64>() / n,
        points.iter().map(|p| p.p_ib).sum::<f64>() / n,
        points.iter().map(|p| p.pair_distance).sum::<f64>() / n,
    )
}

/// Aggregates trial outcomes over seeds.
pub fn aggregate(outcomes: &[TrialOutcome]) -> TrialOutcome {
    let mut total = TrialOutcome::default();
    for o in outcomes {
        total.merge(o);
    }
    if !outcomes.is_empty() {
        total.rho /= outcomes.len() as f64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_base() -> ScenarioConfig {
        BenchConfig::default().grid_base()
    }

    #[test]
    fn loads_are_ordered() {
        assert!(Load::Low.rate_pps() < Load::Medium.rate_pps());
        assert!(Load::Medium.rate_pps() < Load::High.rate_pps());
        assert_eq!(Load::all().len(), 3);
    }

    #[test]
    fn detection_trial_smoke() {
        let o = detection_trial(1, Load::Low, 90, 10, 10, false, grid_base());
        assert!(o.samples > 0, "{o:?}");
        assert!(o.violations > 0, "PM=90 must trip the blatant check: {o:?}");
        assert!(
            o.metrics.total(mg_trace::Counter::TxFrames) > 0,
            "trials must carry a metrics snapshot: {o:?}"
        );
    }

    #[test]
    fn fanout_matches_single_monitor_runs() {
        // One world with four monitors must measure exactly what four
        // identical worlds with one monitor each measure — and the outcomes
        // must not depend on sample-size registration order.
        let sizes = [10usize, 25, 50];
        let plan = FaultPlan::default();
        let fanout = |sizes: &[usize]| {
            detection_trial_fanout_faulted(3, Load::Low, 60, sizes, 10, false, grid_base(), &plan)
        };
        let fanned = fanout(&sizes);
        for (i, &ss) in sizes.iter().enumerate() {
            let solo = detection_trial(3, Load::Low, 60, ss, 10, false, grid_base());
            assert_eq!(fanned[i].tests, solo.tests, "ss={ss}");
            assert_eq!(fanned[i].rejections, solo.rejections, "ss={ss}");
            assert_eq!(fanned[i].violations, solo.violations, "ss={ss}");
            assert_eq!(fanned[i].samples, solo.samples, "ss={ss}");
            assert!((fanned[i].rho - solo.rho).abs() < 1e-12, "ss={ss}");
        }
        let reversed: Vec<usize> = sizes.iter().rev().copied().collect();
        let back = fanout(&reversed);
        for (i, o) in back.iter().rev().enumerate() {
            assert_eq!(o.tests, fanned[i].tests);
            assert_eq!(o.samples, fanned[i].samples);
        }
    }

    #[test]
    fn fanout_matches_single_monitor_runs_under_faults() {
        // The fan-out equivalence must survive fault injection: each
        // attached monitor derives its fault stream from (plan seed,
        // vantage) alone, so a monitor sees the same drops/deafness whether
        // it shares a world with three siblings or runs alone.
        let plan = FaultPlan::parse("seed=11,loss=0.1,deaf=50:10").expect("valid spec");
        let sizes = [10usize, 25, 50];
        let fanned = detection_trial_fanout_faulted(
            3,
            Load::Low,
            60,
            &sizes,
            10,
            false,
            grid_base(),
            &plan,
        );
        for (i, &ss) in sizes.iter().enumerate() {
            let solo = detection_trial_fanout_faulted(
                3,
                Load::Low,
                60,
                &[ss],
                10,
                false,
                grid_base(),
                &plan,
            )
            .remove(0);
            assert_eq!(fanned[i].tests, solo.tests, "ss={ss}");
            assert_eq!(fanned[i].violations, solo.violations, "ss={ss}");
            assert_eq!(fanned[i].samples, solo.samples, "ss={ss}");
            assert_eq!(fanned[i].uncertain, solo.uncertain, "ss={ss}");
            assert!((fanned[i].rho - solo.rho).abs() < 1e-12, "ss={ss}");
        }
        // And the plan must actually bite: fewer samples than fault-free.
        let clean = detection_trial_fanout_faulted(
            3,
            Load::Low,
            60,
            &sizes,
            10,
            false,
            grid_base(),
            &FaultPlan::default(),
        );
        assert!(
            fanned.iter().map(|o| o.samples).sum::<u64>()
                < clean.iter().map(|o| o.samples).sum::<u64>(),
            "a 10% loss + deafness plan must suppress some observations"
        );
    }

    #[test]
    fn replay_reproduces_a_simulated_trial() {
        // The replay tier's contract at the bench level: recording the world
        // once and replaying the journal yields the same outcome as the
        // monitored simulation it stands in for.
        let cfg = ScenarioConfig {
            sim_secs: 10,
            rate_pps: Load::Medium.rate_pps(),
            seed: 42,
            ..grid_base()
        };
        let plan = FaultPlan::default();
        let live = detection_trial_with_cfg_faulted(42, cfg, 90, 25, false, &plan);
        let journal = record_detection_world(42, cfg, 90);
        let scenario = Scenario::new(ScenarioConfig { seed: 42, ..cfg });
        let (s, r) = scenario.tagged_pair();
        let d = scenario.positions()[s].distance(scenario.positions()[r]);
        let mc = MonitorConfig::grid_paper(s, r, d).with_sample_size(25);
        let meta = journal.meta();
        let mut session = mg_detect::SessionSpec::pool(meta.tagged, &meta.vantages, mc).build();
        journal.replay(&mut session);
        let diag = session.diagnosis();
        assert_eq!(diag.tests_run as u64, live.tests);
        assert_eq!(diag.rejections as u64, live.rejections);
        assert_eq!(diag.violations as u64, live.violations);
        assert_eq!(diag.samples_collected as u64, live.samples);
        assert_eq!(
            diag.measured_rho.to_bits(),
            live.rho.to_bits(),
            "replayed rho must be bit-identical"
        );
    }

    #[test]
    fn with_cfg_honors_the_seed_argument() {
        let base = grid_base();
        let cfg = ScenarioConfig { sim_secs: 10, rate_pps: 0.8, seed: 999, ..base };
        let plan = FaultPlan::default();
        let trial = |seed| detection_trial_with_cfg_faulted(seed, cfg, 0, 10, true, &plan);
        let (a, b, c) = (trial(5), trial(5), trial(6));
        assert_eq!(a.samples, b.samples, "same seed ⇒ same trial");
        assert!(
            a.samples != c.samples || (a.rho - c.rho).abs() > 1e-12,
            "different seeds must differ somewhere: {a:?} vs {c:?}"
        );
    }

    #[test]
    fn conditional_probability_smoke() {
        let p = conditional_probability_run(1, 4.0, 10, grid_base());
        assert!(p.rho > 0.0 && p.rho < 1.0);
        assert!(p.p_bi >= 0.0 && p.p_bi <= 1.0);
    }

    #[test]
    fn aggregate_averages_rho() {
        let a = TrialOutcome {
            tests: 2,
            rejections: 1,
            violations: 0,
            samples: 10,
            rho: 0.4,
            ..TrialOutcome::default()
        };
        let b = TrialOutcome {
            tests: 2,
            rejections: 2,
            violations: 3,
            samples: 10,
            rho: 0.6,
            ..TrialOutcome::default()
        };
        let agg = aggregate(&[a, b]);
        assert_eq!(agg.tests, 4);
        assert_eq!(agg.rejections, 3);
        assert!((agg.rho - 0.5).abs() < 1e-12);
        assert!((agg.rejection_rate() - 0.75).abs() < 1e-12);
    }
}
