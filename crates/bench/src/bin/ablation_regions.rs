//! Ablation: how the preclusion-zone construction (the part of the paper's
//! Figure 1 geometry that must be reconstructed) affects the detector.
//!
//! For each [`PreclusionRule`] the table reports the false-alarm rate
//! (compliant tagged node) and detection rate at PM = 50, at medium load.
//!
//! Replay-backed: the region construction is a detector knob, so each
//! `(PM, seed)` world is simulated **once** (journal cached) and replayed
//! into the four region variants — a 4× cut in simulated worlds.
//!
//! ```text
//! cargo run --release -p mg-bench --bin ablation_regions
//! ```

use mg_bench::sweep::{journal_codec, journal_key, outcome_codec, SCHEMA};
use mg_bench::table::{p3, Table};
use mg_bench::{
    aggregate, record_detection_world, sweep_or_exit, BenchConfig, Load, TrialOutcome,
};
use mg_detect::{MonitorConfig, NodeCounts, ObsJournal, SessionSpec};
use mg_geom::PreclusionRule;
use mg_net::ScenarioConfig;
use mg_runner::CacheKey;
use std::collections::HashMap;

const SS: usize = 25;

fn world_cfg(seed: u64, secs: u64) -> ScenarioConfig {
    ScenarioConfig {
        sim_secs: secs,
        rate_pps: Load::Medium.rate_pps(),
        seed,
        ..ScenarioConfig::grid_paper(seed)
    }
}

fn replay_trial(journal: &ObsJournal, rule: PreclusionRule, counts: NodeCounts) -> TrialOutcome {
    let meta = journal.meta();
    let (s, r) = (meta.tagged, meta.vantages[0]);
    let mut mc = MonitorConfig::grid_paper(s, r, 240.0);
    mc.sample_size = SS;
    mc.preclusion = rule;
    mc.counts = counts;
    mc.blatant_check = false;
    let mut session = SessionSpec::pool(s, &meta.vantages, mc).build();
    journal.replay(&mut session);
    let d = session.diagnosis();
    TrialOutcome {
        tests: d.tests_run as u64,
        rejections: d.rejections as u64,
        violations: d.violations as u64,
        samples: d.samples_collected as u64,
        rho: d.measured_rho,
        ..TrialOutcome::default()
    }
}

fn main() {
    let bc = BenchConfig::from_env_or_exit();
    let runner = bc.runner();
    let variants: [(&str, PreclusionRule, NodeCounts); 4] = [
        ("mirror (n=k=5)", PreclusionRule::Mirror, NodeCounts::FixedPaper),
        (
            "centroid (n=k=5)",
            PreclusionRule::Centroid,
            NodeCounts::FixedPaper,
        ),
        (
            "paper-calibrated (n=k=5)",
            PreclusionRule::paper_calibrated(),
            NodeCounts::FixedPaper,
        ),
        (
            "sim-calibrated (default)",
            PreclusionRule::sim_calibrated(),
            NodeCounts::SimCalibrated,
        ),
    ];
    let pms: [(u8, u64); 3] = [(0, 6000), (50, 6100), (90, 6200)];

    // Sweep 1 — the worlds: one recorded journal per (PM, seed) cell.
    let mut worlds = Vec::new();
    for &(pm, base) in &pms {
        for i in 0..bc.trials {
            worlds.push((pm, base + i));
        }
    }
    let journals: Vec<ObsJournal> = sweep_or_exit(
        &runner,
        &worlds,
        |&(pm, seed)| journal_key(&world_cfg(seed, bc.sim_secs), pm),
        journal_codec(),
        |&(pm, seed)| record_detection_world(seed, world_cfg(seed, bc.sim_secs), pm),
    );
    let by_world: HashMap<(u8, u64), &ObsJournal> =
        worlds.iter().copied().zip(journals.iter()).collect();

    // Sweep 2 — the knob: replay every world into each region variant.
    let mut tasks = Vec::new();
    for (vi, _) in variants.iter().enumerate() {
        for &(pm, base) in &pms {
            for i in 0..bc.trials {
                tasks.push((vi, pm, base + i));
            }
        }
    }
    let results: Vec<TrialOutcome> = sweep_or_exit(
        &runner,
        &tasks,
        |&(vi, pm, seed)| {
            let (_, rule, counts) = variants[vi];
            CacheKey::new("ablation-regions", SCHEMA)
                .field("cfg", world_cfg(seed, bc.sim_secs))
                .field("pm", pm)
                .field("rule", rule)
                .field("counts", counts)
                .field("sample_size", SS)
        },
        outcome_codec(),
        |&(vi, pm, seed)| {
            let (_, rule, counts) = variants[vi];
            replay_trial(by_world[&(pm, seed)], rule, counts)
        },
    );

    let mut t = Table::new(
        &format!("Ablation: region construction (sample size {SS}, load 0.6)"),
        &["rule", "false alarms", "detect PM=50", "detect PM=90"],
    );
    for (vi, (name, _, _)) in variants.iter().enumerate() {
        let agg_for = |pm: u8| {
            let outcomes: Vec<TrialOutcome> = tasks
                .iter()
                .zip(&results)
                .filter(|((v, p, _), _)| *v == vi && *p == pm)
                .map(|(_, o)| *o)
                .collect();
            aggregate(&outcomes)
        };
        t.row(vec![
            name.to_string(),
            p3(agg_for(0).rejection_rate()),
            p3(agg_for(50).rejection_rate()),
            p3(agg_for(90).rejection_rate()),
        ]);
    }
    t.emit_with("ablation_regions", &bc);
    println!("(a model mismatched to the physics inflates false alarms; see EXPERIMENTS.md)");
    eprintln!(
        "{} worlds simulated, {} detector configurations replayed",
        worlds.len(),
        tasks.len()
    );
    eprintln!("{}", runner.summary());
}
