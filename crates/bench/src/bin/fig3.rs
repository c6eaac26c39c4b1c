//! Regenerates **Figure 3** — the conditional probabilities `P(S busy | R
//! idle)` (3a) and `P(S idle | R busy)` (3b) versus traffic intensity, for
//! Poisson traffic on the 7×8 grid: simulation measurements next to the
//! analytic model (paper parameterization and this simulator's calibrated
//! parameterization).
//!
//! ```text
//! cargo run --release -p mg-bench --bin fig3
//! ```

use mg_bench::table::{p3, Table};
use mg_bench::{
    aggregate_points, conditional_probability_run, sweep_or_exit, BenchConfig, CondProbPoint,
};
use mg_detect::AnalyticModel;
use mg_geom::PreclusionRule;

fn main() {
    let bc = BenchConfig::from_env_or_exit();
    // Background rates sweeping the achievable intensity range.
    let rates = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 18.0, 25.0];
    let secs = bc.sim_secs.min(120);

    let paper = AnalyticModel::grid_paper(240.0, 550.0, PreclusionRule::paper_calibrated());

    let mut t3a = Table::new(
        "Figure 3(a): P(S busy | R idle) vs traffic intensity — Poisson, grid",
        &["rho(meas)", "sim", "analysis(paper)", "analysis(calibrated)"],
    );
    let mut t3b = Table::new(
        "Figure 3(b): P(S idle | R busy) vs traffic intensity — Poisson, grid",
        &["rho(meas)", "sim", "analysis(paper)", "analysis(calibrated)"],
    );

    // The whole figure as one flat (rate × seed) grid.
    let mut tasks = Vec::new();
    for &rate in &rates {
        for i in 0..bc.trials {
            tasks.push((rate, 1000 + i));
        }
    }
    let results: Vec<CondProbPoint> = sweep_or_exit(&bc, &tasks, |&(rate, seed)| {
        conditional_probability_run(seed, rate, secs, bc.grid_base())
    });

    for &rate in &rates {
        let points: Vec<CondProbPoint> = tasks
            .iter()
            .zip(&results)
            .filter(|((r, _), _)| *r == rate)
            .map(|(_, p)| *p)
            .collect();
        let (rho, p_bi, p_ib, dist) = aggregate_points(&points);
        // The simulator-calibrated analysis, at the probed pair's distance.
        let calibrated = AnalyticModel {
            n: 0.5,
            k: 0.5,
            m: 0.5,
            j: 0.5,
            ..AnalyticModel::grid_paper(dist, 550.0, PreclusionRule::sim_calibrated_for(dist))
        };
        t3a.row(vec![
            p3(rho),
            p3(p_bi),
            p3(paper.p_busy_given_idle(rho)),
            p3(calibrated.p_busy_given_idle(rho)),
        ]);
        t3b.row(vec![
            p3(rho),
            p3(p_ib),
            p3(paper.p_idle_given_busy(rho)),
            p3(calibrated.p_idle_given_busy(rho)),
        ]);
    }
    t3a.emit_with("fig3a", &bc);
    t3b.emit_with("fig3b", &bc);
    println!(
        "(trials per point: {}, {secs}s simulated each; expected shape: 3a rises with rho, 3b falls)",
        bc.trials
    );
}
