//! Ablation: sensitivity to the ARMA smoothing parameter α (paper Eq. 6).
//!
//! The paper uses α = 0.995 "as in previous systems" and claims results are
//! not very sensitive to α as long as α ≈ 1. This binary checks that claim:
//! false-alarm and detection rates across α ∈ {0.5, 0.9, 0.99, 0.995, 0.999}.
//!
//! Replay-backed: α is a detector knob, not a world knob, so each
//! `(PM, seed)` world is simulated **once** (its observation stream recorded
//! to a cached [`mg_detect::ObsJournal`]) and replayed into the five α
//! configurations — a 5× cut in simulated worlds.
//!
//! ```text
//! cargo run --release -p mg-bench --bin ablation_alpha
//! ```

use mg_bench::sweep::{journal_codec, journal_key, outcome_codec, SCHEMA};
use mg_bench::table::{p3, Table};
use mg_bench::{
    aggregate, record_detection_world, sweep_or_exit, BenchConfig, Load, TrialOutcome,
};
use mg_detect::{MonitorConfig, ObsJournal, SessionSpec};
use mg_net::ScenarioConfig;
use mg_runner::CacheKey;
use std::collections::HashMap;

fn world_cfg(seed: u64, secs: u64) -> ScenarioConfig {
    ScenarioConfig {
        sim_secs: secs,
        rate_pps: Load::Medium.rate_pps(),
        seed,
        ..ScenarioConfig::grid_paper(seed)
    }
}

fn replay_trial(journal: &ObsJournal, arma_alpha: f64) -> TrialOutcome {
    let meta = journal.meta();
    let (s, r) = (meta.tagged, meta.vantages[0]);
    let mut mc = MonitorConfig::grid_paper(s, r, 240.0);
    mc.sample_size = 25;
    mc.arma_alpha = arma_alpha;
    mc.blatant_check = false;
    let mut session = SessionSpec::pool(s, &meta.vantages, mc).build();
    journal.replay(&mut session);
    let d = session.diagnosis();
    // The column of interest: the ARMA-smoothed *background* intensity, not
    // the overall busy fraction — it is the α-dependent estimate.
    let rho_bg = session.pool().monitor(r).map(|m| m.rho()).unwrap_or(0.0);
    TrialOutcome {
        tests: d.tests_run as u64,
        rejections: d.rejections as u64,
        violations: d.violations as u64,
        samples: d.samples_collected as u64,
        rho: rho_bg,
        ..TrialOutcome::default()
    }
}

fn main() {
    let bc = BenchConfig::from_env_or_exit();
    let runner = bc.runner();
    let alphas = [0.5, 0.9, 0.99, 0.995, 0.999];
    let pms: [(u8, u64); 3] = [(0, 8000), (50, 8100), (90, 8200)];

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

    // Sweep 2 — the knob: replay every world into each α, no re-simulation.
    let mut tasks = Vec::new();
    for &alpha in &alphas {
        for &(pm, base) in &pms {
            for i in 0..bc.trials {
                tasks.push((alpha, pm, base + i));
            }
        }
    }
    let results: Vec<TrialOutcome> = sweep_or_exit(
        &runner,
        &tasks,
        |&(alpha, pm, seed)| {
            CacheKey::new("ablation-alpha", SCHEMA)
                .field("cfg", world_cfg(seed, bc.sim_secs))
                .field("pm", pm)
                .field("alpha", alpha)
                .field("sample_size", 25usize)
        },
        outcome_codec(),
        |&(alpha, pm, seed)| replay_trial(by_world[&(pm, seed)], alpha),
    );

    let mut t = Table::new(
        "Ablation: ARMA smoothing alpha (Eq. 6; paper uses 0.995)",
        &["alpha", "false alarms", "detect PM=50", "detect PM=90", "rho_bg"],
    );
    for &alpha in &alphas {
        let agg_for = |pm: u8| {
            let outcomes: Vec<TrialOutcome> = tasks
                .iter()
                .zip(&results)
                .filter(|((a, p, _), _)| *a == alpha && *p == pm)
                .map(|(_, o)| *o)
                .collect();
            aggregate(&outcomes)
        };
        let fa = agg_for(0);
        t.row(vec![
            format!("{alpha}"),
            p3(fa.rejection_rate()),
            p3(agg_for(50).rejection_rate()),
            p3(agg_for(90).rejection_rate()),
            p3(fa.rho),
        ]);
    }
    t.emit_with("ablation_alpha", &bc);
    println!("(the paper's claim: performance is flat in alpha for alpha close to 1)");
    eprintln!(
        "{} worlds simulated, {} detector configurations replayed",
        worlds.len(),
        tasks.len()
    );
    eprintln!("{}", runner.summary());
}
