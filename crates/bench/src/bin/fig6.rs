//! Regenerates **Figure 6** — probability of misdiagnosis (false alarm)
//! versus sample size, with every node well-behaved:
//!
//! * 6(a) static grid at loads {0.3, 0.6, 0.9};
//! * 6(b) mobile scenario (`--mobile`) at load 0.6.
//!
//! Sample sizes fan out over a single world per (load, seed) point: the
//! monitors are read-only, so one simulation carries one monitor per sample
//! size instead of being re-run once per size. Tasks drain through the
//! mg-runner sweep engine.
//!
//! ```text
//! cargo run --release -p mg-bench --bin fig6             # 6(a)
//! cargo run --release -p mg-bench --bin fig6 -- --mobile # 6(b)
//! ```

use mg_bench::table::{p3, Table};
use mg_bench::{
    aggregate, detection_trial_fanout_faulted, mobile_detection_trial_fanout_faulted,
    sweep_or_exit, BenchConfig, Load, TrialOutcome,
};
use mg_sim::SimDuration;
use mg_trace::MetricsSnapshot;

const SAMPLE_SIZES: [usize; 5] = [10, 25, 50, 75, 100];

fn main() {
    let bc = BenchConfig::from_env_or_exit();
    let mobile = std::env::args().any(|a| a == "--mobile");

    if mobile {
        let tasks: Vec<u64> = (0..bc.trials).map(|i| 4000 + i).collect();
        let results: Vec<Vec<TrialOutcome>> = sweep_or_exit(&bc, &tasks, |&seed| {
            mobile_detection_trial_fanout_faulted(
                seed,
                Load::Medium,
                0,
                &SAMPLE_SIZES,
                bc.sim_secs,
                SimDuration::ZERO,
                &bc.fault,
            )
        });
        let mut t = Table::new(
            "Figure 6(b): P(misdiagnosis) vs sample size — mobile (RWP), load 0.6",
            &["sample size", "P(misdiagnosis)", "tests", "false viol"],
        );
        let mut figure_metrics = MetricsSnapshot::default();
        for (si, &ss) in SAMPLE_SIZES.iter().enumerate() {
            let outcomes: Vec<TrialOutcome> = results.iter().map(|v| v[si]).collect();
            let agg = aggregate(&outcomes);
            if si == 0 {
                // One world per seed: count its metrics once, not per size.
                figure_metrics.merge(&agg.metrics);
            }
            t.row(vec![
                format!("{ss}"),
                p3(agg.rejection_rate()),
                format!("{}", agg.tests),
                format!("{}", agg.violations),
            ]);
        }
        t.meta("metrics", figure_metrics.to_json());
        t.emit_with("fig6b", &bc);
    } else {
        // Flat (load × seed) grid; sample sizes ride along on each world.
        let mut tasks = Vec::new();
        for load in Load::all() {
            for i in 0..bc.trials {
                tasks.push((load, 5000 + i));
            }
        }
        let results: Vec<Vec<TrialOutcome>> = sweep_or_exit(&bc, &tasks, |&(load, seed)| {
            detection_trial_fanout_faulted(
                seed,
                load,
                0,
                &SAMPLE_SIZES,
                bc.sim_secs,
                false,
                bc.grid_base(),
                &bc.fault,
            )
        });
        let mut t = Table::new(
            "Figure 6(a): P(misdiagnosis) vs sample size — static grid, all compliant",
            &[
                "sample size",
                "load 0.3",
                "load 0.6",
                "load 0.9",
                "tests(0.3/0.6/0.9)",
                "false viol",
            ],
        );
        let mut figure_metrics = MetricsSnapshot::default();
        for (si, &ss) in SAMPLE_SIZES.iter().enumerate() {
            let mut rates = Vec::new();
            let mut tests = Vec::new();
            let mut viols = 0;
            for load in Load::all() {
                let outcomes: Vec<TrialOutcome> = tasks
                    .iter()
                    .zip(&results)
                    .filter(|((l, _), _)| *l == load)
                    .map(|(_, v)| v[si])
                    .collect();
                let agg = aggregate(&outcomes);
                if si == 0 {
                    figure_metrics.merge(&agg.metrics);
                }
                rates.push(p3(agg.rejection_rate()));
                tests.push(format!("{}", agg.tests));
                viols += agg.violations;
            }
            t.row(vec![
                format!("{ss}"),
                rates[0].clone(),
                rates[1].clone(),
                rates[2].clone(),
                tests.join("/"),
                format!("{viols}"),
            ]);
        }
        t.meta("metrics", figure_metrics.to_json());
        t.emit_with("fig6a", &bc);
    }
    println!(
        "(paper: misdiagnosis < 0.01 at n=10, shrinking with sample size; \
         'false viol' counts deterministic violations against compliant nodes — must be 0)"
    );
}
