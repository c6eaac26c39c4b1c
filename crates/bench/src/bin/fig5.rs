//! Regenerates **Figure 5** — probability of correct diagnosis versus the
//! percentage of misbehavior (PM), for sample sizes {10, 25, 50, 100}:
//!
//! * 5(a) load ≈ 0.3, 5(b) load ≈ 0.6, 5(c) load ≈ 0.9 — static grid;
//! * 5(d) mobile scenario (`--mobile`), load ≈ 0.6.
//!
//! The statistical detector alone is measured (as in the paper's hypothesis
//! test evaluation); an extra column reports how often the deterministic
//! "blatant countdown" check *also* fired per 100 back-off windows — the
//! part of the framework the paper calls immediate detection.
//!
//! The whole figure is one flat (panel × PM × seed) task grid drained by
//! the mg-runner sweep engine; each task simulates *one* world carrying one
//! monitor per sample size.
//!
//! ```text
//! cargo run --release -p mg-bench --bin fig5            # 5(a)-(c)
//! cargo run --release -p mg-bench --bin fig5 -- --mobile # 5(d)
//! MG_TRIALS=20 MG_SIM_SECS=300 ... for higher fidelity
//! ```

use mg_bench::table::{p3, Table};
use mg_bench::{
    aggregate, detection_trial_fanout_faulted, mobile_detection_trial_fanout_faulted,
    sweep_or_exit, BenchConfig, Load, TrialOutcome,
};
use mg_sim::SimDuration;
use mg_trace::MetricsSnapshot;

const SAMPLE_SIZES: [usize; 4] = [10, 25, 50, 100];
const PMS: [u8; 10] = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

struct Panel {
    load: Load,
    mobile: bool,
    slug: &'static str,
    title: &'static str,
}

#[derive(Clone, Copy)]
struct Task {
    panel: usize,
    pm: u8,
    seed: u64,
}

fn main() {
    let bc = BenchConfig::from_env_or_exit();
    let mobile = std::env::args().any(|a| a == "--mobile");

    let panels: Vec<Panel> = if mobile {
        vec![Panel {
            load: Load::Medium,
            mobile: true,
            slug: "fig5d",
            title: "Figure 5(d): P(correct diagnosis) vs PM — mobile (RWP), load 0.6",
        }]
    } else {
        vec![
            Panel {
                load: Load::Low,
                mobile: false,
                slug: "fig5a",
                title: "Figure 5(a): P(correct diagnosis) vs PM — static grid, load 0.3",
            },
            Panel {
                load: Load::Medium,
                mobile: false,
                slug: "fig5b",
                title: "Figure 5(b): P(correct diagnosis) vs PM — static grid, load 0.6",
            },
            Panel {
                load: Load::High,
                mobile: false,
                slug: "fig5c",
                title: "Figure 5(c): P(correct diagnosis) vs PM — static grid, load 0.9",
            },
        ]
    };

    // One flat grid for the whole figure: threads never idle at a
    // parameter-point boundary waiting for a slow trial elsewhere.
    let mut tasks = Vec::new();
    for (panel, _) in panels.iter().enumerate() {
        for &pm in &PMS {
            for i in 0..bc.trials {
                tasks.push(Task { panel, pm, seed: 3000 + pm as u64 * 17 + i });
            }
        }
    }

    let results: Vec<Vec<TrialOutcome>> = sweep_or_exit(&bc, &tasks, |t| {
        let p = &panels[t.panel];
        if p.mobile {
            mobile_detection_trial_fanout_faulted(
                t.seed,
                p.load,
                t.pm,
                &SAMPLE_SIZES,
                bc.sim_secs,
                SimDuration::ZERO,
                &bc.fault,
            )
        } else {
            detection_trial_fanout_faulted(
                t.seed,
                p.load,
                t.pm,
                &SAMPLE_SIZES,
                bc.sim_secs,
                false,
                bc.grid_base(),
                &bc.fault,
            )
        }
    });

    for (pi, p) in panels.iter().enumerate() {
        let mut t = Table::new(
            p.title,
            &["PM%", "n=10", "n=25", "n=50", "n=100", "rho", "blatant/100win"],
        );
        let mut figure_metrics = MetricsSnapshot::default();
        for &pm in &PMS {
            let per_seed: Vec<&Vec<TrialOutcome>> = tasks
                .iter()
                .zip(&results)
                .filter(|(task, _)| task.panel == pi && task.pm == pm)
                .map(|(_, r)| r)
                .collect();
            let mut cells = vec![format!("{pm}")];
            for si in 0..SAMPLE_SIZES.len() {
                let outcomes: Vec<TrialOutcome> = per_seed.iter().map(|v| v[si]).collect();
                cells.push(p3(aggregate(&outcomes).rejection_rate()));
            }
            // The world-level measurements (ρ, blatant violations, metrics)
            // are per simulation, not per monitor: all sample sizes share
            // one world, so take them once per seed — and check that the
            // fan-out really did measure the same world everywhere.
            let world_level: Vec<TrialOutcome> = per_seed
                .iter()
                .map(|v| {
                    for o in v.iter() {
                        assert_eq!(
                            o.rho.to_bits(),
                            v[0].rho.to_bits(),
                            "per-sample-size outcomes must agree on the shared world's rho"
                        );
                        assert_eq!(o.violations, v[0].violations);
                    }
                    v[0]
                })
                .collect();
            let agg = aggregate(&world_level);
            figure_metrics.merge(&agg.metrics);
            cells.push(p3(agg.rho));
            let blatant = if agg.samples > 0 {
                agg.violations as f64 * 100.0 / agg.samples as f64
            } else {
                0.0
            };
            cells.push(p3(blatant));
            t.row(cells);
        }
        t.meta("metrics", figure_metrics.to_json());
        t.emit_with(p.slug, &bc);
    }
    println!(
        "(expected shape: detection rises with PM and with sample size; \
         the paper reports >0.8 at PM=65 even with n=10 and ~1 at PM=25 with n=100)"
    );
}
