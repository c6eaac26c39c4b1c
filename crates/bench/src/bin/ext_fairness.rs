//! Extension: the attack's payoff — throughput capture versus PM.
//!
//! The paper's introduction motivates everything with bandwidth starvation
//! but never plots it. This binary does: three mutually-in-range saturated
//! senders, one misbehaving at increasing PM; reported are the attacker's
//! throughput share, the victims' residual throughput, and Jain's fairness
//! index.
//!
//! ```text
//! cargo run --release -p mg-bench --bin ext_fairness
//! ```

use mg_bench::table::{f2, p3, Table};
use mg_bench::{sweep_or_exit, BenchConfig};
use mg_dcf::{BackoffPolicy, MacTiming};
use mg_geom::Vec2;
use mg_net::{SourceCfg, World};
use mg_phy::PropagationModel;
use mg_sim::SimTime;

fn round(seed: u64, pm: u8, secs: u64) -> [u64; 3] {
    let positions = vec![
        Vec2::new(0.0, 0.0),
        Vec2::new(200.0, 0.0),
        Vec2::new(100.0, 170.0),
    ];
    let mut world: World<()> = World::new(
        positions,
        PropagationModel::free_space(),
        250.0,
        550.0,
        MacTiming::paper_default(),
        seed,
        (),
    );
    if pm > 0 {
        world.set_policy(0, BackoffPolicy::Scaled { pm });
    }
    world.add_source(SourceCfg::saturated(0, 1));
    world.add_source(SourceCfg::saturated(1, 2));
    world.add_source(SourceCfg::saturated(2, 0));
    world.run_until(SimTime::from_secs(secs));
    [
        world.mac(0).stats().delivered,
        world.mac(1).stats().delivered,
        world.mac(2).stats().delivered,
    ]
}

fn jain(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sumsq: f64 = xs.iter().map(|x| x * x).sum();
    if sumsq == 0.0 {
        1.0
    } else {
        sum * sum / (xs.len() as f64 * sumsq)
    }
}

fn main() {
    let bc = BenchConfig::from_env_or_exit();
    let secs = bc.sim_secs.min(30);
    let pms: [u8; 7] = [0, 25, 50, 75, 90, 95, 100];

    let mut tasks = Vec::new();
    for &pm in &pms {
        for i in 0..bc.trials {
            tasks.push((pm, 9800 + pm as u64 + i));
        }
    }
    let results: Vec<[u64; 3]> = sweep_or_exit(&bc, &tasks, |&(pm, seed)| round(seed, pm, secs));

    let mut t = Table::new(
        "Extension: throughput capture vs PM (3 saturated contenders)",
        &[
            "PM%",
            "attacker pkts/s",
            "victim pkts/s (each)",
            "attacker share",
            "jain fairness",
        ],
    );
    for &pm in &pms {
        let rounds: Vec<[u64; 3]> = tasks
            .iter()
            .zip(&results)
            .filter(|((p, _), _)| *p == pm)
            .map(|(_, r)| *r)
            .collect();
        let mut tot = [0f64; 3];
        for r in &rounds {
            for i in 0..3 {
                tot[i] += r[i] as f64;
            }
        }
        let per_sec = secs as f64 * rounds.len() as f64;
        let rates: Vec<f64> = tot.iter().map(|d| d / per_sec).collect();
        let total: f64 = rates.iter().sum();
        t.row(vec![
            format!("{pm}"),
            f2(rates[0]),
            f2((rates[1] + rates[2]) / 2.0),
            p3(if total > 0.0 { rates[0] / total } else { 0.0 }),
            p3(jain(&rates)),
        ]);
    }
    t.emit_with("ext_fairness", &bc);
    println!("(the attack the detector exists to stop: share -> 1, fairness -> 1/3 as PM grows)");
}
