//! Extension: detector robustness under fault injection (chaos testing).
//!
//! Sweeps a set of [`FaultPlan`] profiles against the static-grid detection
//! scenario at PM ∈ {0, 75} and reports how the framework degrades: detect
//! rate, deterministic violations, *uncertain* observations (anomalies held
//! below the confirmation threshold) and the number of frames the injector
//! ate.
//!
//! The load-bearing assertion: **pure observation-loss faults must never
//! manufacture deterministic accusations against a compliant node.** A
//! dropped RTS only lengthens the gap between consecutive commitments —
//! sequence offsets still advance feasibly, attempt counters still match —
//! so for every drop-only profile this binary *asserts* zero violations at
//! PM = 0 and exits nonzero otherwise. Corruption profiles get no such
//! guarantee (flipped commitment bits are indistinguishable from cheating
//! at the wire level); for those the table shows the confirmation gate
//! converting would-be false accusations into uncertainty.
//!
//! ```text
//! cargo run --release -p mg-bench --bin ext_faults
//! ```

use mg_bench::table::{p3, Table};
use mg_bench::{
    aggregate, detection_trial_fanout_faulted, sweep_or_exit, BenchConfig, FaultPlan, Load,
    TrialOutcome,
};
use mg_trace::Counter;

const SS: usize = 25;
const PMS: [u8; 2] = [0, 75];

struct Profile {
    name: &'static str,
    spec: &'static str,
    /// Drop-only profiles can never fabricate a deterministic violation;
    /// assert that at PM = 0.
    assert_clean: bool,
}

const PROFILES: [Profile; 7] = [
    Profile { name: "clean", spec: "off", assert_clean: true },
    Profile { name: "rts-drop", spec: "seed=42,drop=0.15", assert_clean: true },
    Profile { name: "flat-loss", spec: "seed=42,loss=0.10", assert_clean: true },
    Profile { name: "deafness", spec: "seed=42,deaf=250:25", assert_clean: true },
    Profile { name: "light", spec: "light,seed=42", assert_clean: true },
    Profile { name: "rts-corrupt", spec: "seed=42,corrupt=0.05", assert_clean: false },
    Profile { name: "heavy", spec: "heavy,seed=42", assert_clean: false },
];

fn main() {
    let bc = BenchConfig::from_env_or_exit();
    let plans: Vec<FaultPlan> = PROFILES
        .iter()
        .map(|p| FaultPlan::parse(p.spec).expect("built-in profile specs parse"))
        .collect();

    let mut tasks = Vec::new();
    for (pi, _) in PROFILES.iter().enumerate() {
        for &pm in &PMS {
            for i in 0..bc.trials {
                tasks.push((pi, pm, 9900 + pm as u64 * 13 + i));
            }
        }
    }
    let results: Vec<Vec<TrialOutcome>> = sweep_or_exit(&bc, &tasks, |&(pi, pm, seed)| {
        detection_trial_fanout_faulted(
            seed,
            Load::Medium,
            pm,
            &[SS],
            bc.sim_secs,
            false,
            bc.grid_base(),
            &plans[pi],
        )
    });

    let mut t = Table::new(
        &format!("Extension: detection under fault injection (load 0.6, sample size {SS})"),
        &["profile", "PM%", "detect", "violations", "uncertain", "samples", "frames eaten"],
    );
    let mut false_accusations = 0u64;
    for (pi, p) in PROFILES.iter().enumerate() {
        for &pm in &PMS {
            let outcomes: Vec<TrialOutcome> = tasks
                .iter()
                .zip(&results)
                .filter(|((i, m, _), _)| *i == pi && *m == pm)
                .map(|(_, v)| v[0])
                .collect();
            let agg = aggregate(&outcomes);
            if p.assert_clean && pm == 0 && agg.violations > 0 {
                eprintln!(
                    "ext_faults: FALSE ACCUSATION — drop-only profile {:?} produced {} \
                     deterministic violation(s) against a compliant node",
                    p.name, agg.violations
                );
                false_accusations += agg.violations;
            }
            t.row(vec![
                p.name.to_string(),
                format!("{pm}"),
                p3(agg.rejection_rate()),
                format!("{}", agg.violations),
                format!("{}", agg.uncertain),
                format!("{}", agg.samples),
                format!("{}", agg.metrics.total(Counter::FaultDrops)),
            ]);
        }
    }
    t.emit_with("ext_faults", &bc);
    println!(
        "(drop-only profiles must show 0 violations at PM=0 — enforced; corruption profiles \
         route anomalies into the 'uncertain' column via the confirmation gate)"
    );
    if false_accusations > 0 {
        std::process::exit(1);
    }
}
