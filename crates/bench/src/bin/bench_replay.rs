//! Micro-benchmark: re-simulate vs. record-once/replay for the
//! `ablation_alpha` workload, through the binary journal codec.
//!
//! Runs the same `(α × PM × seed)` grid twice — once the pre-replay way
//! (one full monitored simulation per cell) and once the replay-backed way
//! (one recorded world per `(PM, seed)`, replayed into every α). The replay
//! path is measured through the serialization boundary: encode every
//! journal in binary, decode it back (that is what an `--replay` costs),
//! and replay the decoded journal into every α. Outcomes must be identical
//! across both paths — replay is exact, not an approximation. The JSONL
//! export of every journal is encoded too, for its time and its size next
//! to the binary one; nothing reads it back.
//!
//! The wall-clock comparison, size-on-disk and decode-throughput columns go
//! to `BENCH_replay.json` (override the path with `MG_BENCH_OUT`). The
//! headline `speedup` is the end-to-end figure:
//! `resimulate / (record + encode + decode + replay)`.
//!
//! ```text
//! MG_TRIALS=2 MG_SIM_SECS=20 cargo run --release -p mg-bench --bin bench_replay
//! ```

use mg_bench::{record_detection_world, BenchConfig, Load, TrialOutcome};
use mg_dcf::BackoffPolicy;
use mg_detect::{
    JournalFormat, JournalReader, MonitorConfig, ObsJournal, ScenarioBuilder, SessionSpec,
    WorldMonitors,
};
use mg_net::{Scenario, ScenarioConfig, SourceCfg};
use mg_sim::SimTime;
use mg_trace::json::Json;
use std::time::Instant;

fn world_cfg(seed: u64, secs: u64) -> ScenarioConfig {
    ScenarioConfig {
        sim_secs: secs,
        rate_pps: Load::Medium.rate_pps(),
        seed,
        ..ScenarioConfig::grid_paper(seed)
    }
}

fn monitor_cfg(s: usize, r: usize, arma_alpha: f64) -> MonitorConfig {
    let mut mc = MonitorConfig::grid_paper(s, r, 240.0);
    mc.sample_size = 25;
    mc.arma_alpha = arma_alpha;
    mc.blatant_check = false;
    mc
}

fn outcome(d: &mg_detect::Diagnosis) -> TrialOutcome {
    TrialOutcome {
        tests: d.tests_run as u64,
        rejections: d.rejections as u64,
        violations: d.violations as u64,
        samples: d.samples_collected as u64,
        rho: d.measured_rho,
        ..TrialOutcome::default()
    }
}

/// The pre-replay path: one full monitored simulation per grid cell.
fn simulate_trial(seed: u64, pm: u8, arma_alpha: f64, secs: u64) -> TrialOutcome {
    let scenario = Scenario::new(world_cfg(seed, secs));
    let (s, r) = scenario.tagged_pair();
    let mut b = ScenarioBuilder::new(scenario);
    let attacker = b.attacker(s);
    let watch = b.monitor(monitor_cfg(s, r, arma_alpha));
    b.source(SourceCfg::saturated(s, r));
    let mut world = b.build();
    if pm > 0 {
        world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm });
    }
    world.run_until(SimTime::from_secs(secs));
    outcome(&world.monitors().diagnosis(watch))
}

/// The replay path's per-α half: journal → fresh monitor → diagnosis.
fn replay_trial(journal: &ObsJournal, arma_alpha: f64) -> TrialOutcome {
    let meta = journal.meta();
    let mc = monitor_cfg(meta.tagged, meta.vantages[0], arma_alpha);
    let mut session = SessionSpec::pool(meta.tagged, &meta.vantages, mc).build();
    journal.replay(&mut session);
    outcome(&session.diagnosis())
}

fn assert_outcomes_equal(a: &[TrialOutcome], b: &[TrialOutcome], cells: &[(f64, u8, u64)]) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.tests, y.tests, "cell {i}: {:?}", cells[i]);
        assert_eq!(x.rejections, y.rejections, "cell {i}: {:?}", cells[i]);
        assert_eq!(x.violations, y.violations, "cell {i}: {:?}", cells[i]);
        assert_eq!(x.samples, y.samples, "cell {i}: {:?}", cells[i]);
        assert_eq!(x.rho.to_bits(), y.rho.to_bits(), "cell {i}: {:?}", cells[i]);
    }
}

fn round1(v: f64) -> Json {
    Json::Num((v * 10.0).round() / 10.0)
}

fn main() {
    let bc = BenchConfig::from_env_or_exit();
    let alphas = [0.5, 0.9, 0.99, 0.995, 0.999];
    let pms: [(u8, u64); 3] = [(0, 8000), (50, 8100), (90, 8200)];

    let mut cells = Vec::new();
    for &alpha in &alphas {
        for &(pm, base) in &pms {
            for i in 0..bc.trials {
                cells.push((alpha, pm, base + i));
            }
        }
    }

    // Path A — re-simulate every cell.
    let t0 = Instant::now();
    let resimulated: Vec<TrialOutcome> = cells
        .iter()
        .map(|&(alpha, pm, seed)| simulate_trial(seed, pm, alpha, bc.sim_secs))
        .collect();
    let resimulate_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Path B — record each world once…
    let t1 = Instant::now();
    let mut journals = Vec::new();
    for &(pm, base) in &pms {
        for i in 0..bc.trials {
            let seed = base + i;
            journals.push(((pm, seed), record_detection_world(seed, world_cfg(seed, bc.sim_secs), pm)));
        }
    }
    let record_ms = t1.elapsed().as_secs_f64() * 1e3;

    // …then push it through the binary codec: encode, decode back through
    // the full validating path (trailer, checksum, tables) — what an
    // `--replay` pays — and replay into every α.
    let t2 = Instant::now();
    let encoded: Vec<Vec<u8>> = journals.iter().map(|(_, j)| j.encode(JournalFormat::Binary)).collect();
    let encode_ms = t2.elapsed().as_secs_f64() * 1e3;
    let bytes: u64 = encoded.iter().map(|b| b.len() as u64).sum();
    let t3 = Instant::now();
    let decoded: Vec<ObsJournal> = encoded
        .into_iter()
        .map(|b| {
            JournalReader::from_bytes(b)
                .and_then(|r| r.read_journal())
                .unwrap_or_else(|e| panic!("binary journal failed to decode: {e}"))
        })
        .collect();
    let decode_ms = t3.elapsed().as_secs_f64() * 1e3;
    let t4 = Instant::now();
    let replayed: Vec<TrialOutcome> = cells
        .iter()
        .map(|&(alpha, pm, seed)| {
            let i = journals
                .iter()
                .position(|((p, s), _)| *p == pm && *s == seed)
                .expect("every cell's world was recorded");
            replay_trial(&decoded[i], alpha)
        })
        .collect();
    let replay_ms = t4.elapsed().as_secs_f64() * 1e3;
    // Both paths must land on identical outcomes — replay is exact, not an
    // approximation.
    assert_outcomes_equal(&resimulated, &replayed, &cells);

    // The JSONL export, for its encode time and size only.
    let t5 = Instant::now();
    let jsonl_bytes: u64 = journals
        .iter()
        .map(|(_, j)| j.encode(JournalFormat::Jsonl).len() as u64)
        .sum();
    let jsonl_encode_ms = t5.elapsed().as_secs_f64() * 1e3;

    let size_ratio = jsonl_bytes as f64 / (bytes as f64).max(1.0);
    let decode_mb_s = (bytes as f64 / 1e6) / (decode_ms / 1e3).max(1e-9);
    let speedup = resimulate_ms / (record_ms + encode_ms + decode_ms + replay_ms).max(1e-9);
    let json = Json::obj([
        ("bench", Json::from("ablation_alpha: re-simulate vs record+replay (binary codec; JSONL export size)")),
        ("trials", Json::from(bc.trials)),
        ("sim_secs", Json::from(bc.sim_secs)),
        ("cells", Json::from(cells.len() as u64)),
        ("worlds_resimulated", Json::from(cells.len() as u64)),
        ("worlds_recorded", Json::from(journals.len() as u64)),
        ("resimulate_ms", round1(resimulate_ms)),
        ("record_ms", round1(record_ms)),
        ("jsonl", Json::obj([("encode_ms", round1(jsonl_encode_ms)), ("bytes", Json::from(jsonl_bytes))])),
        (
            "bin",
            Json::obj([
                ("encode_ms", round1(encode_ms)),
                ("decode_ms", round1(decode_ms)),
                ("replay_ms", round1(replay_ms)),
                ("bytes", Json::from(bytes)),
                ("decode_mb_s", round1(decode_mb_s)),
            ]),
        ),
        ("size_ratio", Json::Num((size_ratio * 100.0).round() / 100.0)),
        ("replay_ms", round1(decode_ms + replay_ms)),
        ("speedup", Json::Num((speedup * 100.0).round() / 100.0)),
    ]);
    let path = std::env::var("MG_BENCH_OUT").unwrap_or_else(|_| "BENCH_replay.json".into());
    std::fs::write(&path, format!("{}\n", json.render())).unwrap_or_else(|e| {
        eprintln!("bench_replay: cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!(
        "re-simulate {} cells: {:.1} ms | record {} worlds: {:.1} ms",
        cells.len(),
        resimulate_ms,
        journals.len(),
        record_ms,
    );
    println!("jsonl: {jsonl_bytes} B, encode {jsonl_encode_ms:.1} ms (export only)");
    println!(
        "bin  : {} B ({size_ratio:.2}x smaller), encode {:.1} ms, decode {:.1} ms ({:.1} MB/s), replay {:.1} ms -> {:.2}x",
        bytes, encode_ms, decode_ms, decode_mb_s, replay_ms, speedup,
    );
    println!("wrote {path}");
}
