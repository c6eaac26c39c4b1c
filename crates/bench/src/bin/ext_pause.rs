//! Extension: mobility pause-time sweep.
//!
//! Table 1 lists pause times {0, 50, 100, 200, 300} s for the random
//! waypoint model, but the paper shows a single mobile curve. This binary
//! sweeps the pause time: 0 s is perpetual motion (hardest — constant
//! monitor handoff), 300 s is effectively static.
//!
//! ```text
//! cargo run --release -p mg-bench --bin ext_pause
//! ```

use mg_bench::table::{p3, Table};
use mg_bench::{
    aggregate, mobile_detection_trial_fanout_faulted, sweep_or_exit, BenchConfig, Load,
    TrialOutcome,
};
use mg_sim::SimDuration;

fn main() {
    let bc = BenchConfig::from_env_or_exit();
    let pauses: [u64; 5] = [0, 50, 100, 200, 300];
    let pms: [(u8, u64); 3] = [(0, 9500), (50, 9600), (90, 9700)];

    let mut tasks = Vec::new();
    for &pause_s in &pauses {
        for &(pm, base) in &pms {
            for i in 0..bc.trials {
                tasks.push((pause_s, pm, base + pause_s + i));
            }
        }
    }
    let results: Vec<TrialOutcome> = sweep_or_exit(&bc, &tasks, |&(pause_s, pm, seed)| {
        mobile_detection_trial_fanout_faulted(
            seed,
            Load::Medium,
            pm,
            &[25],
            bc.sim_secs,
            SimDuration::from_secs(pause_s),
            &bc.fault,
        )
        .remove(0)
    });

    let mut t = Table::new(
        "Extension: pause-time sweep — mobile detection, load 0.6, sample size 25",
        &["pause (s)", "false alarms", "detect PM=50", "detect PM=90", "tests(fa)"],
    );
    for &pause_s in &pauses {
        let agg_for = |pm: u8| {
            let outcomes: Vec<TrialOutcome> = tasks
                .iter()
                .zip(&results)
                .filter(|((ps, p, _), _)| *ps == pause_s && *p == pm)
                .map(|(_, o)| *o)
                .collect();
            aggregate(&outcomes)
        };
        let fa = agg_for(0);
        t.row(vec![
            format!("{pause_s}"),
            p3(fa.rejection_rate()),
            p3(agg_for(50).rejection_rate()),
            p3(agg_for(90).rejection_rate()),
            format!("{}", fa.tests),
        ]);
    }
    t.emit_with("ext_pause", &bc);
    println!("(the paper notes mobility roughly doubles the samples needed; long pauses should recover the static behaviour)");
}
