//! End-to-end resumability: a fig5-style sweep that is interrupted part-way
//! and then resumed against the same cache directory must produce
//! byte-identical results to an uninterrupted run — without redoing the
//! work that already completed.

use mg_bench::sweep::{detection_key, outcomes_codec};
use mg_bench::{detection_trial_fanout, BenchConfig, FaultPlan, Load, TrialOutcome};
use mg_net::ScenarioConfig;
use mg_runner::{Cache, CacheKey, CacheMode, Runner};
use mg_trace::json::Json;

const SECS: u64 = 3;
const SIZES: [usize; 2] = [5, 10];

/// A miniature fig5 grid: (PM, seed) tasks, each fanned over two sample
/// sizes on one world.
fn tasks() -> Vec<(u8, u64)> {
    let mut t = Vec::new();
    for &pm in &[0u8, 60] {
        for i in 0..2u64 {
            t.push((pm, 3000 + u64::from(pm) * 17 + i));
        }
    }
    t
}

fn key(&(pm, seed): &(u8, u64)) -> CacheKey {
    let cfg = ScenarioConfig {
        sim_secs: SECS,
        rate_pps: Load::Medium.rate_pps(),
        seed,
        ..BenchConfig::default().grid_base()
    };
    detection_key("detection", &cfg, pm, &SIZES, false, &FaultPlan::default())
}

fn run(&(pm, seed): &(u8, u64)) -> Vec<TrialOutcome> {
    detection_trial_fanout(
        seed,
        Load::Medium,
        pm,
        &SIZES,
        SECS,
        false,
        BenchConfig::default().grid_base(),
    )
}

/// The exact bytes a binary would persist for these results.
fn render(results: &[Vec<TrialOutcome>]) -> String {
    let codec = outcomes_codec();
    Json::Arr(results.iter().map(|r| (codec.encode)(r)).collect()).render()
}

#[test]
fn interrupted_sweep_resumes_to_identical_results() {
    let base = std::env::temp_dir().join(format!("mg-sweep-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let tasks = tasks();

    // The reference: one uninterrupted cold run.
    let cold = Runner::new(Cache::new(base.join("fresh"), CacheMode::ReadWrite));
    let reference = cold.sweep(&tasks, key, outcomes_codec(), run);
    assert_eq!(cold.misses(), tasks.len() as u64);

    // "Interrupt" a sweep: only the first half of the grid completes.
    let half = tasks.len() / 2;
    let interrupted = Runner::new(Cache::new(base.join("resumed"), CacheMode::ReadWrite));
    interrupted.sweep(&tasks[..half], key, outcomes_codec(), run);
    assert_eq!(interrupted.misses(), half as u64);

    // Resume: a brand-new runner over the same directory finishes the job,
    // replaying the completed half instead of recomputing it.
    let resume = Runner::new(Cache::new(base.join("resumed"), CacheMode::ReadWrite));
    let resumed_results = resume.sweep(&tasks, key, outcomes_codec(), run);
    assert_eq!(resume.hits(), half as u64, "completed tasks must replay");
    assert_eq!(resume.misses(), (tasks.len() - half) as u64);

    // The resumed sweep's output is byte-identical to the uninterrupted one.
    assert_eq!(render(&resumed_results), render(&reference));

    let _ = std::fs::remove_dir_all(&base);
}
