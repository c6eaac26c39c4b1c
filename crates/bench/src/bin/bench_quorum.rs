//! Collaborative detection: detection / false-conviction probability of the
//! k-of-n accusation quorum vs the conviction threshold `k` and the
//! Byzantine (lying) monitor fraction.
//!
//! Replay-backed, like the ablation binaries: the quorum threshold and the
//! Byzantine cast are detector-side knobs, so each `(PM, seed)` world is
//! simulated **once** — its member vantages' observation streams recorded
//! to an in-memory multi-vantage journal — and replayed into every `(k, lie)`
//! configuration, a 9× cut in simulated worlds.
//!
//! The load-bearing assertion: **fewer than `k` lying accusers must never
//! convict a compliant node.** Conviction needs `k` *distinct* accusers,
//! honest monitors of a PM = 0 node stay silent (no deterministic
//! violations, and the rank-sum test holds its size), so `f < k` liars
//! cannot reach the quorum on their own. Roles are drawn per vantage from
//! the plan's fractions, so the assertion conditions on the *realized*
//! liar count of each trial, not the nominal fraction; any violating cell
//! is named on stderr and the binary exits 1. Results go to
//! `BENCH_quorum.json` (override with `MG_BENCH_OUT`).
//!
//! ```text
//! cargo run --release -p mg-bench --bin bench_quorum
//! ```

use mg_bench::table::{f2, p3, Table};
use mg_bench::{
    quorum_trial_from_journal, record_quorum_world, sweep_or_exit, BenchConfig, FaultPlan, Load,
    QuorumOutcome,
};
use mg_detect::ObsJournal;
use mg_net::ScenarioConfig;
use mg_trace::json::Json;
use std::collections::HashMap;

const SS: usize = 25;
/// The paper's grid offers exactly 4 vantages inside decode range (240 m
/// spacing, 250 m transmission range): the tagged node's row/column
/// neighbors. Every quorum in this sweep is k-of-4.
const MEMBERS: usize = 4;
const KS: [usize; 3] = [1, 2, 3];
/// Nominal Byzantine (FalseAccuser) fractions; realized counts vary per
/// seed and are what the table and the assertion report.
const LIES: [f64; 3] = [0.0, 0.25, 0.45];
const PMS: [(u8, u64); 2] = [(0, 9700), (75, 9800)];

fn world_cfg(bc: &BenchConfig, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        sim_secs: bc.sim_secs,
        rate_pps: Load::Medium.rate_pps(),
        seed,
        ..bc.grid_base()
    }
}

/// The Byzantine cast for one `(lie, seed)` cell: role fractions from the
/// sweep axis, role seed from the trial so every seed draws its own cast.
fn cast(lie: f64, seed: u64) -> FaultPlan {
    if lie == 0.0 {
        FaultPlan::default()
    } else {
        FaultPlan::parse(&format!("lie={lie}"))
            .expect("built-in lie spec parses")
            .with_seed(seed)
    }
}

fn main() {
    let bc = BenchConfig::from_env_or_exit();

    // Sweep 1 — the worlds: one recorded multi-vantage journal per
    // (PM, seed) cell.
    let mut worlds = Vec::new();
    for &(pm, base) in &PMS {
        for i in 0..bc.trials {
            worlds.push((pm, base + i));
        }
    }
    let journals: Vec<ObsJournal> = sweep_or_exit(&bc, &worlds, |&(pm, seed)| {
        record_quorum_world(seed, world_cfg(&bc, seed), pm, MEMBERS)
    });
    let by_world: HashMap<(u8, u64), &ObsJournal> =
        worlds.iter().copied().zip(journals.iter()).collect();

    // Sweep 2 — the knobs: replay every world into each (k, lie) cell.
    let mut tasks = Vec::new();
    for &k in &KS {
        for &lie in &LIES {
            for &(pm, base) in &PMS {
                for i in 0..bc.trials {
                    tasks.push((k, lie, pm, base + i));
                }
            }
        }
    }
    let results: Vec<QuorumOutcome> = sweep_or_exit(&bc, &tasks, |&(k, lie, pm, seed)| {
        quorum_trial_from_journal(by_world[&(pm, seed)], SS, k, &cast(lie, seed))
    });

    let mut t = Table::new(
        &format!(
            "Collaborative detection: k-of-{MEMBERS} quorum vs Byzantine fraction \
             (grid, load 0.6, sample size {SS})"
        ),
        &["k", "lie", "PM%", "convict", "mean liars", "f<k trials", "false convictions"],
    );
    let mut cells = Vec::new();
    let mut bad_cells: Vec<String> = Vec::new();
    for &k in &KS {
        for &lie in &LIES {
            for &(pm, _) in &PMS {
                let cell: Vec<&QuorumOutcome> = tasks
                    .iter()
                    .zip(&results)
                    .filter(|(&(tk, tl, tp, _), _)| tk == k && tl == lie && tp == pm)
                    .map(|(_, o)| o)
                    .collect();
                let trials = cell.len() as u64;
                let convictions = cell.iter().filter(|o| o.convicted).count() as u64;
                let liars: u64 = cell.iter().map(|o| o.byzantine).sum();
                let below_k = cell.iter().filter(|o| (o.byzantine as usize) < k).count() as u64;
                // The guarantee under test: a trial whose realized liar
                // count stays below k must never convict a compliant node.
                let false_convictions = if pm == 0 {
                    cell.iter()
                        .filter(|o| o.convicted && (o.byzantine as usize) < k)
                        .count() as u64
                } else {
                    0
                };
                if false_convictions > 0 {
                    bad_cells.push(format!(
                        "k={k} lie={lie} PM={pm}: {false_convictions} false conviction(s) \
                         across {below_k} trial(s) with fewer than {k} realized liars"
                    ));
                }
                t.row(vec![
                    format!("{k}"),
                    format!("{lie}"),
                    format!("{pm}"),
                    p3(convictions as f64 / trials.max(1) as f64),
                    f2(liars as f64 / trials.max(1) as f64),
                    format!("{below_k}"),
                    format!("{false_convictions}"),
                ]);
                cells.push(Json::obj([
                    ("k", Json::from(k as u64)),
                    ("lie", Json::Num(lie)),
                    ("pm", Json::from(pm as u64)),
                    ("trials", Json::from(trials)),
                    ("convictions", Json::from(convictions)),
                    ("mean_liars", Json::Num(liars as f64 / trials.max(1) as f64)),
                    ("trials_below_k", Json::from(below_k)),
                    ("false_convictions", Json::from(false_convictions)),
                ]));
            }
        }
    }
    t.emit_with("bench_quorum", &bc);
    println!(
        "(trials with fewer than k realized liars must show 0 false convictions at PM=0 — \
         enforced; cells where liars reach k are the f >= k regime the bound does not cover)"
    );

    let gossip_delivered: u64 = results.iter().map(|o| o.gossip_delivered).sum();
    let json = Json::obj([
        (
            "bench",
            Json::from("quorum: k-of-n conviction vs Byzantine monitor fraction"),
        ),
        ("members", Json::from(MEMBERS as u64)),
        ("sample_size", Json::from(SS as u64)),
        ("sim_secs", Json::from(bc.sim_secs)),
        ("trials_per_cell", Json::from(bc.trials)),
        ("detection_vs_k", Json::Arr(cells)),
        ("gossip_delivered", Json::from(gossip_delivered)),
        ("false_conviction_cells", Json::from(bad_cells.len() as u64)),
        ("pass", Json::Bool(bad_cells.is_empty())),
    ]);
    let path = std::env::var("MG_BENCH_OUT").unwrap_or_else(|_| "BENCH_quorum.json".into());
    if let Err(e) = std::fs::write(&path, format!("{}\n", json.render())) {
        eprintln!("bench_quorum: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
    if !bad_cells.is_empty() {
        for cell in &bad_cells {
            eprintln!("bench_quorum: FALSE CONVICTION — {cell}");
        }
        std::process::exit(1);
    }
}
