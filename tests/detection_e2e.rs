//! End-to-end detection tests: the full stack (event kernel → PHY → DCF →
//! traffic → monitor) against every attacker model the paper describes.

use manet_guard::prelude::*;
use manet_guard::trace::EventKind;

/// Builds the paper's grid with a tagged pair, runs `secs`, returns the
/// monitor's diagnosis.
fn run_grid(
    policy: Option<BackoffPolicy>,
    secs: u64,
    rate_pps: f64,
    seed: u64,
    tune: impl FnOnce(&mut MonitorConfig),
) -> Diagnosis {
    let scenario = Scenario::new(ScenarioConfig {
        sim_secs: secs,
        rate_pps,
        ..ScenarioConfig::grid_paper(seed)
    });
    let (s, r) = scenario.tagged_pair();
    let mut mc = MonitorConfig::grid_paper(s, r, 240.0);
    mc.sample_size = 25;
    tune(&mut mc);
    let mut b = ScenarioBuilder::new(scenario);
    let attacker = b.attacker(s);
    let watch = b.monitor(mc);
    b.source(SourceCfg::saturated(s, r));
    let mut world = b.build();
    if let Some(p) = policy {
        world.set_policy(attacker.id(), p);
    }
    world.run_until(SimTime::from_secs(secs));
    world.monitors().diagnosis(watch)
}

#[test]
fn compliant_node_is_never_flagged() {
    for seed in [1, 2, 3] {
        let d = run_grid(None, 60, 2.0, seed, |_| {});
        assert_eq!(d.violations, 0, "seed {seed}: {d:?}");
        // The paper's false-alarm budget is < 1% of tests; over the handful
        // of tests a 60 s run yields, that means zero.
        assert!(
            d.rejection_rate() < 0.02,
            "seed {seed}: false alarms {d:?}"
        );
        assert!(d.tests_run >= 5, "seed {seed}: too few tests ({d:?})");
    }
}

#[test]
fn scaled_cheater_is_flagged_statistically_and_deterministically() {
    let d = run_grid(Some(BackoffPolicy::Scaled { pm: 60 }), 60, 2.0, 4, |_| {});
    assert!(d.rejections > 0, "{d:?}");
    assert!(d.violations > 0, "{d:?}");
}

#[test]
fn fixed_backoff_cheater_is_flagged() {
    // Always two slots, regardless of the dictated draw.
    let d = run_grid(Some(BackoffPolicy::Fixed { slots: 2 }), 60, 2.0, 5, |_| {});
    assert!(d.is_flagged(), "{d:?}");
    assert!(d.rejections > 0, "statistical path must fire: {d:?}");
}

#[test]
fn alt_distribution_cheater_is_flagged() {
    // Private uniform draws from a narrow, non-growing window.
    let d = run_grid(
        Some(BackoffPolicy::AltDistribution { cw: 7 }),
        60,
        2.0,
        6,
        |_| {},
    );
    assert!(d.is_flagged(), "{d:?}");
}

#[test]
fn attempt_cheater_is_caught_by_md_check() {
    // Counts down honestly but always announces attempt #1 so its window
    // never widens. Only the deterministic MD5/attempt check can see this.
    // Needs retransmissions, so run under heavier background traffic.
    let d = run_grid(Some(BackoffPolicy::AttemptCheat), 60, 6.0, 7, |_| {});
    assert!(d.violations > 0, "MD/attempt check must fire: {d:?}");
    // And the statistical path must NOT be the one firing (its countdowns
    // are honest).
    assert!(
        d.rejection_rate() < 0.05,
        "attempt cheat should not shift the back-off statistics: {d:?}"
    );
}

#[test]
fn mild_misbehavior_needs_bigger_samples() {
    // PM = 30 at sample size 10 vs 100 — the paper's accuracy/speed
    // trade-off: the bigger history must reject at least as often.
    let small = run_grid(Some(BackoffPolicy::Scaled { pm: 30 }), 90, 1.0, 8, |m| {
        m.sample_size = 10;
        m.blatant_check = false;
    });
    let large = run_grid(Some(BackoffPolicy::Scaled { pm: 30 }), 90, 1.0, 8, |m| {
        m.sample_size = 100;
        m.blatant_check = false;
    });
    assert!(
        large.rejection_rate() >= small.rejection_rate(),
        "small: {small:?}\nlarge: {large:?}"
    );
    assert!(large.rejections > 0, "{large:?}");
}

#[test]
fn two_simultaneous_attackers_are_both_caught() {
    // Paper footnote 7: the scheme handles small numbers of malicious nodes.
    let scenario = Scenario::new(ScenarioConfig {
        sim_secs: 60,
        rate_pps: 1.0,
        ..ScenarioConfig::grid_paper(11)
    });
    let (s1, r1) = scenario.tagged_pair();
    // Second attacker: a node far from the first (corner region).
    let s2 = 0;
    let r2 = 1;
    let mc1 = MonitorConfig::grid_paper(s1, r1, 240.0);
    let mc2 = MonitorConfig::grid_paper(s2, r2, 240.0);
    let mut b = ScenarioBuilder::new(scenario);
    let a1 = b.attacker(s1);
    let w1 = b.monitor(mc1);
    let a2 = b.attacker(s2);
    let w2 = b.monitor(mc2);
    b.source(SourceCfg::saturated(s1, r1));
    b.source(SourceCfg::saturated(s2, r2));
    let mut world = b.build();
    world.set_policy(a1.id(), BackoffPolicy::Scaled { pm: 70 });
    world.set_policy(a2.id(), BackoffPolicy::Scaled { pm: 70 });
    world.run_until(SimTime::from_secs(60));

    let d1 = world.monitors().diagnosis(w1);
    let d2 = world.monitors().diagnosis(w2);
    assert!(d1.is_flagged(), "attacker 1 missed: {d1:?}");
    assert!(d2.is_flagged(), "attacker 2 missed: {d2:?}");
}

#[test]
fn basic_access_evasion_is_flagged() {
    // An attacker that disables RTS/CTS entirely (legacy basic access)
    // never announces its back-off draws — the statistical detector gets no
    // samples. The UnverifiedData deterministic check catches the pattern.
    let scenario = Scenario::new(ScenarioConfig {
        sim_secs: 30,
        rate_pps: 1.0,
        ..ScenarioConfig::grid_paper(21)
    });
    let (s, r) = scenario.tagged_pair();
    let mut mc = MonitorConfig::grid_paper(s, r, 240.0);
    mc.sample_size = 25;
    let mut b = ScenarioBuilder::new(scenario);
    let attacker = b.attacker(s);
    let watch = b.monitor(mc);
    b.source(SourceCfg::saturated(s, r));
    b.trace(TraceConfig {
        sched: Level::Off,
        phy: Level::Off,
        mac: Level::Off,
        net: Level::Off,
        ..TraceConfig::default()
    });
    let mut world = b.build();
    world.set_rts_threshold(s, u32::MAX); // never send RTS
    world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm: 80 });
    world.run_until(SimTime::from_secs(30));
    // The monitor traces each violation it flags, by kind.
    let flagged: Vec<&str> = world
        .tracer()
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::MonitorViolation { kind } => Some(kind),
            _ => None,
        })
        .collect();
    assert!(
        flagged.contains(&"unverified_data"),
        "{flagged:?} {:?}",
        world.monitors().diagnosis(watch)
    );
    // And honest RTS users never trip it (covered by
    // compliant_node_is_never_flagged, which asserts zero violations).
}

#[test]
fn detection_is_reproducible() {
    let a = run_grid(Some(BackoffPolicy::Scaled { pm: 50 }), 30, 2.0, 33, |_| {});
    let b = run_grid(Some(BackoffPolicy::Scaled { pm: 50 }), 30, 2.0, 33, |_| {});
    assert_eq!(a, b);
}
