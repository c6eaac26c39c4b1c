//! Cross-crate behavioral tests: claims the paper makes about the *system*
//! (not just the detector) verified end-to-end.

use manet_guard::detect::JointTracker;
use manet_guard::prelude::*;
use manet_guard::stats::signed_rank::signed_rank_test;
use manet_guard::trace::EventKind;

/// Measures the channel intensity a traffic mix produces at the central
/// pair, plus the empirical conditionals.
fn measure(cfg: ScenarioConfig, secs: u64) -> (f64, f64, f64) {
    struct Probe {
        s: usize,
        r: usize,
        joint: JointTracker,
    }
    impl NetObserver for Probe {
        fn on_channel_edge(&mut self, node: usize, busy: bool, now: SimTime) {
            if node == self.s {
                self.joint.on_s_edge(busy, now);
            }
            if node == self.r {
                self.joint.on_r_edge(busy, now);
            }
        }
        fn on_tx_start(&mut self, src: usize, _f: &Frame, now: SimTime, end: SimTime) {
            if src == self.s {
                self.joint.on_s_tx(now, end);
            }
            if src == self.r {
                self.joint.on_r_tx(now, end);
            }
        }
    }
    let scenario = Scenario::new(cfg);
    let (s, r) = scenario.tagged_pair();
    let probe = Probe {
        s,
        r,
        joint: JointTracker::new(),
    };
    // No roles declared: the probe only listens, nothing is excluded.
    let b = ScenarioBuilder::new(scenario).probe(probe);
    let mut world = b.build();
    world.run_until(SimTime::from_secs(secs));
    let now = world.now();
    let p = world.probe_mut();
    p.joint.finish(now);
    (
        p.joint.r_rho(),
        p.joint.p_busy_given_idle(),
        p.joint.p_idle_given_busy(),
    )
}

#[test]
fn cbr_and_poisson_agree_at_equal_intensity() {
    // Paper, Section 5: "The results from both the cases were found to be
    // almost identical when the traffic intensities were identical."
    let base = ScenarioConfig {
        sim_secs: 40,
        rate_pps: 4.0,
        ..ScenarioConfig::grid_paper(3)
    };
    let (rho_p, pbi_p, _) = measure(
        ScenarioConfig {
            traffic: TrafficKind::Poisson,
            ..base
        },
        40,
    );
    let (rho_c, pbi_c, _) = measure(
        ScenarioConfig {
            traffic: TrafficKind::Cbr,
            ..base
        },
        40,
    );
    assert!(
        (rho_p - rho_c).abs() < 0.12,
        "intensities diverge: poisson {rho_p} vs cbr {rho_c}"
    );
    assert!(
        (pbi_p - pbi_c).abs() < 0.12,
        "conditionals diverge: {pbi_p} vs {pbi_c}"
    );
}

#[test]
fn conditional_probabilities_rise_and_fall_with_load() {
    // The headline shapes of Figures 3(a)/3(b).
    let at = |rate: f64| {
        measure(
            ScenarioConfig {
                sim_secs: 40,
                rate_pps: rate,
                ..ScenarioConfig::grid_paper(5)
            },
            40,
        )
    };
    let (rho_lo, pbi_lo, pib_lo) = at(1.0);
    let (rho_hi, pbi_hi, pib_hi) = at(8.0);
    assert!(rho_lo < rho_hi, "{rho_lo} vs {rho_hi}");
    assert!(pbi_lo < pbi_hi, "Fig 3a shape: {pbi_lo} vs {pbi_hi}");
    assert!(pib_lo > pib_hi, "Fig 3b shape: {pib_lo} vs {pib_hi}");
}

#[test]
fn analysis_tracks_simulation_at_calibration_point() {
    // Fig. 3's validation claim, against this simulator's calibration.
    let (rho, pbi_sim, pib_sim) = measure(
        ScenarioConfig {
            sim_secs: 60,
            rate_pps: 6.0,
            ..ScenarioConfig::grid_paper(9)
        },
        60,
    );
    let model = AnalyticModel {
        n: 0.5,
        k: 0.5,
        m: 0.5,
        j: 0.5,
        ..AnalyticModel::grid_paper(240.0, 550.0, PreclusionRule::sim_calibrated())
    };
    let pbi_ana = model.p_busy_given_idle(rho);
    assert!(
        (pbi_sim - pbi_ana).abs() < 0.1,
        "p_BI: sim {pbi_sim} vs analysis {pbi_ana} at rho {rho}"
    );
    // p_IB: the global measurement runs higher than the window-conditioned
    // calibration (documented); just require the same order of magnitude.
    let pib_ana = model.p_idle_given_busy(rho);
    assert!(
        pib_sim > pib_ana * 0.5 && pib_sim < pib_ana * 4.0,
        "p_IB: sim {pib_sim} vs analysis {pib_ana}"
    );
}

#[test]
fn throughput_capture_grows_with_pm() {
    // The attack's payoff is monotone in PM (extension ext_fairness's core).
    let share = |pm: u8| {
        let positions = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(200.0, 0.0),
            Vec2::new(100.0, 170.0),
        ];
        let mut w: World<()> = World::new(
            positions,
            PropagationModel::free_space(),
            250.0,
            550.0,
            MacTiming::paper_default(),
            17,
            (),
        );
        if pm > 0 {
            w.set_policy(0, BackoffPolicy::Scaled { pm });
        }
        w.add_source(SourceCfg::saturated(0, 1));
        w.add_source(SourceCfg::saturated(1, 2));
        w.add_source(SourceCfg::saturated(2, 0));
        w.run_until(SimTime::from_secs(8));
        let d: Vec<f64> = (0..3).map(|i| w.mac(i).stats().delivered as f64).collect();
        d[0] / d.iter().sum::<f64>()
    };
    let fair = share(0);
    let mild = share(50);
    let brutal = share(95);
    assert!(fair < 0.45, "honest share {fair}");
    assert!(mild > fair, "{mild} vs {fair}");
    assert!(brutal > mild, "{brutal} vs {mild}");
    assert!(brutal > 0.6, "PM=95 should dominate: {brutal}");
}

#[test]
fn detection_survives_shadowing() {
    // Extension: σ = 4 dB log-normal fading, blatant cheater still caught.
    let scenario = Scenario::new(ScenarioConfig {
        sim_secs: 40,
        rate_pps: 1.0,
        propagation: PropagationModel::shadowing(2.0, 4.0),
        ..ScenarioConfig::grid_paper(23)
    });
    let (s, r) = scenario.tagged_pair();
    let mut mc = MonitorConfig::grid_paper(s, r, 240.0);
    mc.sample_size = 25;
    let mut b = ScenarioBuilder::new(scenario);
    let attacker = b.attacker(s);
    let watch = b.monitor(mc);
    b.source(SourceCfg::saturated(s, r));
    let mut world = b.build();
    world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm: 85 });
    world.run_until(SimTime::from_secs(40));
    assert!(
        world.monitors().diagnosis(watch).is_flagged(),
        "{:?}",
        world.monitors().diagnosis(watch)
    );
}

#[test]
fn signed_rank_judge_works_end_to_end() {
    // The paired signed-rank test (an extension; the pool judges with the
    // paper's rank-sum) over the batches the pool judged: the static
    // member's samples as the monitor traced them, 25 at a time, at
    // α = 0.01.
    let run = |pm: u8| {
        let scenario = Scenario::new(ScenarioConfig {
            sim_secs: 40,
            rate_pps: 2.0,
            ..ScenarioConfig::grid_paper(29)
        });
        let (s, r) = scenario.tagged_pair();
        let mut mc = MonitorConfig::grid_paper(s, r, 240.0);
        mc.sample_size = 25;
        mc.blatant_check = false;
        let mut b = ScenarioBuilder::new(scenario);
        let attacker = b.attacker(s);
        b.monitor(mc);
        b.source(SourceCfg::saturated(s, r));
        b.trace(TraceConfig {
            sched: Level::Off,
            phy: Level::Off,
            mac: Level::Off,
            net: Level::Off,
            ..TraceConfig::default()
        });
        let mut world = b.build();
        if pm > 0 {
            world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm });
        }
        world.run_until(SimTime::from_secs(40));
        assert_eq!(world.tracer().dropped(), 0, "the ring must hold every sample");
        let samples: Vec<(f64, f64)> = world
            .tracer()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::MonitorSample { dictated, estimated } => Some((dictated, estimated)),
                _ => None,
            })
            .collect();
        let batches = samples.chunks_exact(25);
        let tests_run = batches.len();
        let rejections = batches
            .filter(|batch| {
                let (xs, ys): (Vec<f64>, Vec<f64>) = batch.iter().copied().unzip();
                signed_rank_test(&ys, &xs, Alternative::Less).p_value < 0.01
            })
            .count();
        Diagnosis {
            tests_run,
            rejections,
            ..Diagnosis::default()
        }
    };
    // The paired test is sharper under H1 but — unlike the paper's unpaired
    // rank-sum — sensitive to the estimator's asymmetric noise under H0 (it
    // tests symmetry of the differences, which estimation bias breaks).
    // That fragility is exactly why the detector judges with the rank-sum;
    // here we assert the qualitative contract: clearly separates H1 from H0.
    let h0 = run(0);
    let h1 = run(70);
    assert!(h1.rejections > 0, "{h1:?}");
    assert!(
        h1.rejection_rate() > 3.0 * h0.rejection_rate().max(0.01),
        "H1 {h1:?} vs H0 {h0:?}"
    );
}

#[test]
fn routing_and_mobility_coexist() {
    // AODV keeps delivering while nodes wander (route repair via re-flood is
    // out of scope, so keep speeds low and the chain short-lived).
    let positions: Vec<Vec2> = (0..5).map(|i| Vec2::new(i as f64 * 180.0, 500.0)).collect();
    let mut world: World<()> = World::new(
        positions,
        PropagationModel::free_space(),
        250.0,
        550.0,
        MacTiming::paper_default(),
        31,
        (),
    );
    world.enable_routing();
    world.enable_mobility(0.0, 1.0, SimDuration::from_secs(5), 1000.0, 1000.0);
    for app in 0..10 {
        world.send_routed(0, 4, app);
    }
    world.run_until(SimTime::from_secs(10));
    assert!(
        world.app_delivered >= 8,
        "only {}/10 routed packets arrived",
        world.app_delivered
    );
}
