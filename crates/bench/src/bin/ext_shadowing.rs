//! Extension: detection under log-normal shadowing (fading).
//!
//! The paper motivates the shadowing channel model "to take into account
//! long-term fading effects present in real channels" but runs its
//! experiments at σ_dB = 0 (free space). This binary turns the fading on:
//! false-alarm and detection rates at σ_dB ∈ {0, 2, 4, 8}, medium load.
//! Fading blurs the 250 m / 550 m disks per-packet, so both the monitor's
//! observations and the region geometry get noisier.
//!
//! ```text
//! cargo run --release -p mg-bench --bin ext_shadowing
//! ```

use mg_bench::table::{p3, Table};
use mg_bench::{
    aggregate, detection_trial_with_cfg_faulted, sweep_or_exit, BenchConfig, Load, TrialOutcome,
};
use mg_net::ScenarioConfig;
use mg_phy::PropagationModel;

fn main() {
    let bc = BenchConfig::from_env_or_exit();
    let sigmas = [0.0, 2.0, 4.0, 8.0];
    let pms: [(u8, u64); 3] = [(0, 9000), (50, 9100), (90, 9200)];

    let base_for = |sigma: f64| ScenarioConfig {
        sim_secs: bc.sim_secs,
        rate_pps: Load::Medium.rate_pps(),
        propagation: PropagationModel::shadowing(2.0, sigma),
        ..ScenarioConfig::grid_paper(0)
    };

    let mut tasks = Vec::new();
    for &sigma in &sigmas {
        for &(pm, seed_base) in &pms {
            for i in 0..bc.trials {
                tasks.push((sigma, pm, seed_base + i));
            }
        }
    }
    let results: Vec<TrialOutcome> = sweep_or_exit(&bc, &tasks, |&(sigma, pm, seed)| {
        detection_trial_with_cfg_faulted(seed, base_for(sigma), pm, 25, true, &bc.fault)
    });

    let mut t = Table::new(
        "Extension: detection under log-normal shadowing (load 0.6, sample size 25)",
        &["sigma_dB", "false alarms", "detect PM=50", "detect PM=90", "rho"],
    );
    for &sigma in &sigmas {
        let agg_for = |pm: u8| {
            let outcomes: Vec<TrialOutcome> = tasks
                .iter()
                .zip(&results)
                .filter(|((s, p, _), _)| *s == sigma && *p == pm)
                .map(|(_, o)| *o)
                .collect();
            aggregate(&outcomes)
        };
        let fa = agg_for(0);
        t.row(vec![
            format!("{sigma}"),
            p3(fa.rejection_rate()),
            p3(agg_for(50).rejection_rate()),
            p3(agg_for(90).rejection_rate()),
            p3(fa.rho),
        ]);
    }
    t.emit_with("ext_shadowing", &bc);
    println!("(fading degrades both ranges per-packet; the detector should degrade gracefully)");
}
