//! Macro-benchmark: world-size scaling of the medium's spatial index.
//!
//! Sweeps a (nodes × attackers × seed) grid of large worlds — each at the
//! paper's node density via [`ScenarioConfig::large_world`] — twice, once
//! per [`MediumIndex`] strategy. Every cell must *fire the exact same
//! number of events and flag the exact same diagnoses* under both
//! strategies (the index is an execution detail;
//! `tests/diff_index.rs` and `tests/trace_determinism.rs` prove full
//! byte-identity), so the only thing allowed to differ is wall-clock. The
//! events/sec comparison is written to `BENCH_world_scale.json` (override
//! the path with `MG_BENCH_OUT`), together with the host's core count.
//!
//! Cells run *sequentially* on the main thread: parallel cells would
//! contend for the cores being timed.
//!
//! ```text
//! MG_TRIALS=1 MG_SIM_SECS=2 cargo run --release -p mg-bench --bin bench_world_scale
//! ```
//!
//! Extra knobs: `MG_WORLD_NODES` (comma list, default `112,500,1000,2000`)
//! and `MG_WORLD_ATTACKERS` (comma list, default `1,4`). Every attacker
//! count must fit on every world size.

use mg_bench::BenchConfig;
use mg_dcf::BackoffPolicy;
use mg_detect::{ScenarioBuilder, WorldMonitors};
use mg_net::{Scenario, ScenarioConfig};
use mg_phy::MediumIndex;
use mg_sim::SimTime;
use mg_trace::json::Json;
use std::time::Instant;

/// What one simulated world reports back.
#[derive(Clone, Copy)]
struct CellResult {
    /// Scheduler events fired — must match across index strategies.
    events: u64,
    /// Wall-clock for build + run, milliseconds.
    ms: f64,
    /// Monitor pools whose diagnosis flagged their attacker.
    flagged: u64,
}

/// One row of the sweep table: a (nodes, attackers) point with the timing
/// of both index strategies.
struct Point {
    nodes: usize,
    attackers: usize,
    events: u64,
    naive_ms: f64,
    grid_ms: f64,
    naive_eps: f64,
    grid_eps: f64,
    speedup: f64,
}

/// Builds and runs one large world end to end: `attackers` cheaters spread
/// across the node range, one monitor pool per cheater, background CBR
/// load at the paper's density.
fn run_cell(
    nodes: usize,
    attackers: usize,
    seed: u64,
    secs: u64,
    index: MediumIndex,
) -> CellResult {
    let t0 = Instant::now();
    let cfg = ScenarioConfig {
        sim_secs: secs,
        medium_index: index,
        ..ScenarioConfig::large_world(seed, nodes)
    };
    let scenario = Scenario::new(cfg);
    let mut b = ScenarioBuilder::new(scenario);
    let atks = b.attackers(attackers);
    let tagged: Vec<usize> = atks.iter().map(|a| a.id()).collect();
    let watch = b.monitor_mesh(&tagged);
    let mut world = b.build();
    for a in &atks {
        world.set_policy(a.id(), BackoffPolicy::Scaled { pm: 70 });
    }
    world.run_until(SimTime::from_secs(secs));
    let flagged = watch
        .iter()
        .filter(|&&h| world.monitors().diagnosis(h).is_flagged())
        .count() as u64;
    CellResult {
        events: world.events_fired(),
        ms: t0.elapsed().as_secs_f64() * 1e3,
        flagged,
    }
}

/// A comma-separated list of positive integers from the environment,
/// default on unset.
fn list_var(name: &str, default: &[usize]) -> Result<Vec<usize>, String> {
    match std::env::var(name) {
        Err(_) => Ok(default.to_vec()),
        Ok(raw) => raw
            .split(',')
            .map(|s| match s.trim().parse() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!(
                    "invalid {name} value {raw:?}: expected comma-separated positive integers"
                )),
            })
            .collect(),
    }
}

/// The (nodes, attackers) axes, validated up front: every attacker count
/// must fit on the smallest world, or the sweep would panic mid-run.
fn axes() -> Result<(Vec<usize>, Vec<usize>), String> {
    let nodes = list_var("MG_WORLD_NODES", &[112, 500, 1000, 2000])?;
    let attackers = list_var("MG_WORLD_ATTACKERS", &[1, 4])?;
    let fewest = nodes.iter().min().expect("parsed lists are non-empty");
    let most = attackers.iter().max().expect("parsed lists are non-empty");
    if most > fewest {
        return Err(format!(
            "invalid MG_WORLD_ATTACKERS value: {most} attackers do not fit on {fewest} nodes (MG_WORLD_NODES)"
        ));
    }
    Ok((nodes, attackers))
}

fn main() {
    let bc = BenchConfig::from_env_or_exit();
    let (node_sizes, attacker_counts) = axes().unwrap_or_else(|e| {
        eprintln!("mg-bench: {e}");
        std::process::exit(2);
    });
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    let mut points = Vec::new();
    for &nodes in &node_sizes {
        for &attackers in &attacker_counts {
            let mut naive = Vec::new();
            let mut grid = Vec::new();
            for trial in 0..bc.trials {
                let seed = 9000 + trial;
                // One cell at a time keeps the measurement serial; Grid
                // immediately after Naive on the same world keeps the
                // machine-state comparison as local as possible.
                naive.push(run_cell(nodes, attackers, seed, bc.sim_secs, MediumIndex::Naive));
                grid.push(run_cell(nodes, attackers, seed, bc.sim_secs, MediumIndex::Grid));
            }
            for (a, b) in naive.iter().zip(&grid) {
                assert_eq!(
                    a.events, b.events,
                    "{nodes} nodes / {attackers} attackers: index modes diverged"
                );
                assert_eq!(
                    a.flagged, b.flagged,
                    "{nodes} nodes / {attackers} attackers: diagnoses diverged"
                );
            }
            let events: u64 = naive.iter().map(|c| c.events).sum();
            let ms_of = |cells: &[CellResult]| cells.iter().map(|c| c.ms).sum::<f64>();
            let eps_of = |ms: f64| events as f64 / (ms / 1e3).max(1e-9);
            let naive_ms = ms_of(&naive);
            let grid_ms = ms_of(&grid);
            let (naive_eps, grid_eps) = (eps_of(naive_ms), eps_of(grid_ms));
            let speedup = naive_ms / grid_ms.max(1e-9);
            println!(
                "{nodes:>5} nodes x {attackers} attackers: {events:>9} events | naive {naive_ms:>9.1} ms ({naive_eps:>10.0} ev/s) | grid {grid_ms:>8.1} ms ({grid_eps:>10.0} ev/s) | speedup {speedup:.2}x"
            );
            points.push(Point {
                nodes,
                attackers,
                events,
                naive_ms,
                grid_ms,
                naive_eps,
                grid_eps,
                speedup,
            });
        }
    }

    // Headline number: speedup at the largest world swept.
    let max_nodes = *node_sizes.iter().max().expect("non-empty node list");
    let headline = points
        .iter()
        .filter(|p| p.nodes == max_nodes)
        .map(|p| p.speedup)
        .fold(f64::INFINITY, f64::min);

    let round1 = |x: f64| (x * 10.0).round() / 10.0;
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let cells: Vec<Json> = points
        .iter()
        .map(|p| {
            Json::obj([
                ("nodes", Json::from(p.nodes as u64)),
                ("attackers", Json::from(p.attackers as u64)),
                ("events", Json::from(p.events)),
                ("naive_ms", Json::Num(round1(p.naive_ms))),
                ("grid_ms", Json::Num(round1(p.grid_ms))),
                ("naive_events_per_sec", Json::Num(p.naive_eps.round())),
                ("grid_events_per_sec", Json::Num(p.grid_eps.round())),
                ("speedup", Json::Num(round2(p.speedup))),
            ])
        })
        .collect();
    let json = Json::obj([
        (
            "bench",
            Json::from("world_scale: naive vs grid medium index"),
        ),
        ("trials", Json::from(bc.trials)),
        ("sim_secs", Json::from(bc.sim_secs)),
        ("cores", Json::from(cores as u64)),
        ("cells", Json::Arr(cells)),
        ("max_nodes", Json::from(max_nodes as u64)),
        ("speedup_at_max_nodes", Json::Num(round2(headline))),
    ]);
    let path = std::env::var("MG_BENCH_OUT").unwrap_or_else(|_| "BENCH_world_scale.json".into());
    std::fs::write(&path, format!("{}\n", json.render())).unwrap_or_else(|e| {
        eprintln!("bench_world_scale: cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("speedup at {max_nodes} nodes: {headline:.2}x ({cores} core(s))");
    println!("wrote {path}");
}
