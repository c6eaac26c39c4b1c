//! Ablation: Wilcoxon rank-sum versus Welch's t-test.
//!
//! The paper argues the rank-sum test is the right tool because back-off
//! samples are not Gaussian. This binary replays the *same* collected
//! samples through both tests and compares false-alarm and detection rates.
//!
//! Replay-backed: each `(PM, seed)` world is simulated **once**, its
//! observation stream recorded to an in-memory [`mg_detect::ObsJournal`],
//! and the raw (dictated, estimated) samples are read from the static
//! vantage's sample deltas while the journal replays into a detector
//! session.
//!
//! ```text
//! cargo run --release -p mg-bench --bin ablation_tests
//! ```

use mg_bench::table::{p3, Table};
use mg_bench::{record_detection_world, sweep_or_exit, BenchConfig, Load};
use mg_detect::{DiagnosisDelta, MonitorConfig, ObsJournal, SessionSpec};
use mg_net::ScenarioConfig;
use mg_stats::signed_rank::signed_rank_test;
use mg_stats::ttest::welch_t_test;
use mg_stats::wilcoxon::{rank_sum_test, Alternative};
use std::collections::HashMap;

fn world_cfg(seed: u64, secs: u64) -> ScenarioConfig {
    ScenarioConfig {
        sim_secs: secs,
        rate_pps: Load::Medium.rate_pps(),
        seed,
        ..ScenarioConfig::grid_paper(seed)
    }
}

/// Extracts raw (dictated, estimated) samples by replaying one journal.
fn collect(journal: &ObsJournal) -> Vec<(f64, f64)> {
    let meta = journal.meta();
    let (s, r) = (meta.tagged, meta.vantages[0]);
    let mc = MonitorConfig::grid_paper(s, r, 240.0);
    let mut session = SessionSpec::pool(s, &meta.vantages, mc).build();
    let mut samples = Vec::new();
    for o in journal.events() {
        samples.extend(session.ingest(o).filter_map(|d| match d {
            DiagnosisDelta::SampleAccepted { vantage, dictated, estimated, .. } if vantage == r => {
                Some((dictated, estimated))
            }
            _ => None,
        }));
    }
    samples
}

/// Rejection rates of all three tests over tumbling batches of `ss` samples.
fn rates(samples: &[(f64, f64)], ss: usize, alpha: f64) -> (f64, f64, f64, usize) {
    let mut wil = 0usize;
    let mut tt = 0usize;
    let mut sr = 0usize;
    let mut n = 0usize;
    for batch in samples.chunks_exact(ss) {
        let xs: Vec<f64> = batch.iter().map(|&(x, _)| x).collect();
        let ys: Vec<f64> = batch.iter().map(|&(_, y)| y).collect();
        if rank_sum_test(&ys, &xs, Alternative::Less).p_value < alpha {
            wil += 1;
        }
        if welch_t_test(&ys, &xs, Alternative::Less).p_value < alpha {
            tt += 1;
        }
        if signed_rank_test(&ys, &xs, Alternative::Less).p_value < alpha {
            sr += 1;
        }
        n += 1;
    }
    if n == 0 {
        (0.0, 0.0, 0.0, 0)
    } else {
        (
            wil as f64 / n as f64,
            tt as f64 / n as f64,
            sr as f64 / n as f64,
            n,
        )
    }
}

fn main() {
    let bc = BenchConfig::from_env_or_exit();
    let alpha = 0.01;
    let ss = 25;
    let pms: [u8; 5] = [0, 25, 50, 75, 90];

    // Sweep 1 — the worlds: one recorded journal per (PM, seed) cell.
    let mut worlds = Vec::new();
    for &pm in &pms {
        for i in 0..bc.trials {
            worlds.push((pm, 7000 + pm as u64 + i));
        }
    }
    let journals: Vec<ObsJournal> = sweep_or_exit(&bc, &worlds, |&(pm, seed)| {
        record_detection_world(seed, world_cfg(seed, bc.sim_secs), pm)
    });
    let by_world: HashMap<(u8, u64), &ObsJournal> =
        worlds.iter().copied().zip(journals.iter()).collect();

    // Sweep 2 — sample extraction: replay each journal once.
    let tasks = worlds.clone();
    let all: Vec<Vec<(f64, f64)>> = sweep_or_exit(&bc, &tasks, |&(pm, seed)| {
        collect(by_world[&(pm, seed)])
    });

    let mut t = Table::new(
        &format!(
            "Ablation: rank-sum vs Welch t vs signed-rank (alpha {alpha}, sample size {ss}, load 0.6)"
        ),
        &["PM%", "rank-sum (paper)", "welch-t", "signed-rank (paired)", "tests"],
    );
    for &pm in &pms {
        let mut wil_sum = 0.0;
        let mut tt_sum = 0.0;
        let mut sr_sum = 0.0;
        let mut tests = 0usize;
        let mut weighted = 0.0;
        for samples in tasks
            .iter()
            .zip(&all)
            .filter(|((p, _), _)| *p == pm)
            .map(|(_, s)| s)
        {
            let (w, tt_rate, sr_rate, n) = rates(samples, ss, alpha);
            wil_sum += w * n as f64;
            tt_sum += tt_rate * n as f64;
            sr_sum += sr_rate * n as f64;
            tests += n;
            weighted += n as f64;
        }
        let (w, tt_rate, sr_rate) = if weighted > 0.0 {
            (wil_sum / weighted, tt_sum / weighted, sr_sum / weighted)
        } else {
            (0.0, 0.0, 0.0)
        };
        t.row(vec![
            format!("{pm}"),
            p3(w),
            p3(tt_rate),
            p3(sr_rate),
            format!("{tests}"),
        ]);
    }
    t.emit_with("ablation_tests", &bc);
    println!(
        "(PM=0 row is the false-alarm rate; the paper prefers the rank-sum for its          distribution-freeness; the paired signed-rank is this repository's extension)"
    );
    eprintln!(
        "{} worlds simulated, {} sample streams replayed",
        worlds.len(),
        tasks.len()
    );
}
