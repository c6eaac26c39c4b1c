//! Cache keys and codecs wiring trial results through [`mg_runner`].
//!
//! Every experiment binary flattens its (parameter-point × seed) grid into
//! tasks and drains them through [`mg_runner::Runner::sweep`]. The pieces
//! here make that uniform:
//!
//! * [`SCHEMA`] — the result-schema version baked into every key. Bump it
//!   when the *meaning* of a trial outcome changes without its config
//!   changing (estimator fixes, new outcome fields) to invalidate the whole
//!   cache at once.
//! * [`detection_key`] / [`cond_key`] — canonical keys over the *resolved*
//!   [`ScenarioConfig`] (every field participates via `Debug`, so any
//!   change to topology, rates, seed or timing invalidates the entry) plus
//!   the monitor-side parameters.
//! * [`outcome_codec`] / [`outcomes_codec`] / [`cond_codec`] — strict
//!   [`Codec`]s for the trial result types; a cached entry that fails to
//!   decode is recomputed, never trusted.

use crate::{CondProbPoint, FaultPlan, QuorumOutcome, TrialOutcome};
use mg_detect::{base64_to_bytes, bytes_to_base64, JournalFormat, JournalReader, ObsJournal};
use mg_net::ScenarioConfig;
use mg_runner::{CacheKey, Codec};
use mg_trace::json::Json;
use mg_trace::MetricsSnapshot;

/// Result-schema version for every mg-bench cache key.
///
/// v2: [`TrialOutcome`] gained the `uncertain` counter and detection keys
/// gained the fault plan. v3: the journal cache tier — ablation binaries
/// record each world's observation stream once and replay it per knob.
/// v4: journal entries switched from the JSON tree to the framed binary v1
/// codec (base64-wrapped inside the JSON cache carrier).
/// v5: binary v2 journals (no per-vantage index, word-wise checksum), so
/// cached v1 entries miss by key instead of failing decode.
pub const SCHEMA: u64 = 5;

/// Key for one detection trial (or one fanned-out trial when `sample_sizes`
/// has several entries). `cfg` must be the fully resolved config — seed,
/// duration and rate already substituted — so the key covers every knob.
/// The fault plan participates too: a faulted sweep and a clean one must
/// never share a cache entry.
pub fn detection_key(
    experiment: &str,
    cfg: &ScenarioConfig,
    pm: u8,
    sample_sizes: &[usize],
    statistical_only: bool,
    faults: &FaultPlan,
) -> CacheKey {
    CacheKey::new(experiment, SCHEMA)
        .field("cfg", cfg)
        .field("pm", pm)
        .field("sample_sizes", sample_sizes)
        .field("statistical_only", statistical_only)
        .field("faults", faults)
}

/// Key for one Figure 3/4 conditional-probability run.
pub fn cond_key(experiment: &str, cfg: &ScenarioConfig) -> CacheKey {
    CacheKey::new(experiment, SCHEMA).field("cfg", cfg)
}

/// Key for one recorded observation journal (the second cache tier).
///
/// Deliberately *not* named after the experiment: a journal depends only on
/// the world — resolved config and cheating intensity — so every binary
/// sweeping detector knobs over the same `(cfg, pm)` cell shares one entry.
pub fn journal_key(cfg: &ScenarioConfig, pm: u8) -> CacheKey {
    CacheKey::new("detection-world", SCHEMA)
        .field("cfg", cfg)
        .field("pm", pm)
}

/// Key for one recorded multi-vantage quorum world (the journal tier of
/// `bench_quorum`). Distinct from [`journal_key`]: a quorum journal
/// records `members` vantages with per-member `dist.<v>` geometry, so it
/// must never share an entry with the single-vantage detection worlds.
pub fn quorum_journal_key(cfg: &ScenarioConfig, pm: u8, members: usize) -> CacheKey {
    CacheKey::new("quorum-world", SCHEMA)
        .field("cfg", cfg)
        .field("pm", pm)
        .field("members", members)
}

/// Key for one collaborative-detection (quorum) replay trial. The fault
/// plan participates because it carries the Byzantine cast — lie/mute/flip
/// fractions *and* the role seed — so two casts never share an entry.
pub fn quorum_key(
    experiment: &str,
    cfg: &ScenarioConfig,
    pm: u8,
    sample_size: usize,
    members: usize,
    k: usize,
    faults: &FaultPlan,
) -> CacheKey {
    CacheKey::new(experiment, SCHEMA)
        .field("cfg", cfg)
        .field("pm", pm)
        .field("sample_size", sample_size)
        .field("members", members)
        .field("k", k)
        .field("faults", faults)
}

/// Codec for a [`QuorumOutcome`].
pub fn quorum_codec() -> Codec<QuorumOutcome> {
    Codec {
        encode: |o| {
            Json::obj([
                ("convicted", Json::Bool(o.convicted)),
                ("votes", Json::from(o.votes)),
                ("members", Json::from(o.members)),
                ("byzantine", Json::from(o.byzantine)),
                ("gossip_sent", Json::from(o.gossip_sent)),
                ("gossip_dropped", Json::from(o.gossip_dropped)),
                ("gossip_delivered", Json::from(o.gossip_delivered)),
            ])
        },
        decode: |v| {
            Some(QuorumOutcome {
                convicted: v.get("convicted")?.as_bool()?,
                votes: v.get("votes")?.as_u64()?,
                members: v.get("members")?.as_u64()?,
                byzantine: v.get("byzantine")?.as_u64()?,
                gossip_sent: v.get("gossip_sent")?.as_u64()?,
                gossip_dropped: v.get("gossip_dropped")?.as_u64()?,
                gossip_delivered: v.get("gossip_delivered")?.as_u64()?,
            })
        },
    }
}

/// Codec for a recorded [`ObsJournal`]: binary format v2, base64-wrapped
/// because the mg-runner cache stores JSON documents. The binary layer's
/// own checksum rides inside the entry, so a corrupted cache file fails
/// decode (→ counted miss, recompute) instead of being trusted.
pub fn journal_codec() -> Codec<ObsJournal> {
    Codec {
        encode: |j| Json::Str(bytes_to_base64(&j.encode(JournalFormat::Binary))),
        decode: |v| {
            let bytes = base64_to_bytes(v.as_str()?)?;
            JournalReader::from_bytes(bytes).and_then(|r| r.read_journal()).ok()
        },
    }
}

fn outcome_to_json(o: &TrialOutcome) -> Json {
    Json::obj([
        ("tests", Json::from(o.tests)),
        ("rejections", Json::from(o.rejections)),
        ("violations", Json::from(o.violations)),
        ("samples", Json::from(o.samples)),
        ("uncertain", Json::from(o.uncertain)),
        ("rho", Json::Num(o.rho)),
        ("metrics", o.metrics.to_json()),
    ])
}

fn outcome_from_json(v: &Json) -> Option<TrialOutcome> {
    Some(TrialOutcome {
        tests: v.get("tests")?.as_u64()?,
        rejections: v.get("rejections")?.as_u64()?,
        violations: v.get("violations")?.as_u64()?,
        samples: v.get("samples")?.as_u64()?,
        uncertain: v.get("uncertain")?.as_u64()?,
        rho: v.get("rho")?.as_f64()?,
        metrics: MetricsSnapshot::from_json(v.get("metrics")?)?,
    })
}

/// Codec for a single [`TrialOutcome`].
pub fn outcome_codec() -> Codec<TrialOutcome> {
    Codec {
        encode: outcome_to_json,
        decode: outcome_from_json,
    }
}

/// Codec for a fanned-out `Vec<TrialOutcome>` (one per sample size).
pub fn outcomes_codec() -> Codec<Vec<TrialOutcome>> {
    Codec {
        encode: |os| Json::Arr(os.iter().map(outcome_to_json).collect()),
        decode: |v| v.as_arr()?.iter().map(outcome_from_json).collect(),
    }
}

/// Codec for a [`CondProbPoint`].
pub fn cond_codec() -> Codec<CondProbPoint> {
    Codec {
        encode: |p| {
            Json::obj([
                ("rho", Json::Num(p.rho)),
                ("p_bi", Json::Num(p.p_bi)),
                ("p_ib", Json::Num(p.p_ib)),
                ("pair_distance", Json::Num(p.pair_distance)),
            ])
        },
        decode: |v| {
            Some(CondProbPoint {
                rho: v.get("rho")?.as_f64()?,
                p_bi: v.get("p_bi")?.as_f64()?,
                p_ib: v.get("p_ib")?.as_f64()?,
                pair_distance: v.get("pair_distance")?.as_f64()?,
            })
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mg_trace::Counter;

    #[test]
    fn outcome_codec_round_trips() {
        let mut o = TrialOutcome {
            tests: 7,
            rejections: 3,
            violations: 1,
            samples: 250,
            uncertain: 4,
            rho: 0.3141592653589793,
            ..TrialOutcome::default()
        };
        o.metrics.totals[Counter::TxFrames.index()] = 1234;
        let codec = outcome_codec();
        let back = (codec.decode)(&(codec.encode)(&o)).expect("round trip");
        assert_eq!(back.tests, o.tests);
        assert_eq!(back.samples, o.samples);
        assert_eq!(back.uncertain, o.uncertain);
        assert_eq!(back.rho.to_bits(), o.rho.to_bits(), "f64 must survive exactly");
        assert_eq!(back.metrics.total(Counter::TxFrames), 1234);
    }

    #[test]
    fn outcomes_codec_preserves_order_and_rejects_partial_decode() {
        let os: Vec<TrialOutcome> = (0..4)
            .map(|i| TrialOutcome { tests: i, ..TrialOutcome::default() })
            .collect();
        let codec = outcomes_codec();
        let back = (codec.decode)(&(codec.encode)(&os)).expect("round trip");
        assert_eq!(back.iter().map(|o| o.tests).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // One corrupt element poisons the whole vector (→ recompute).
        let mut arr = match (codec.encode)(&os) {
            Json::Arr(v) => v,
            other => panic!("expected array, got {other:?}"),
        };
        arr[2] = Json::Null;
        assert!((codec.decode)(&Json::Arr(arr)).is_none());
    }

    #[test]
    fn detection_keys_cover_the_resolved_config() {
        let base = crate::BenchConfig::default().grid_base();
        let noop = FaultPlan::default();
        let chaos = FaultPlan::parse("seed=5,loss=0.1").expect("valid spec");
        let a = detection_key("fig5", &ScenarioConfig { seed: 1, ..base }, 50, &[10, 25], true, &noop);
        let b = detection_key("fig5", &ScenarioConfig { seed: 2, ..base }, 50, &[10, 25], true, &noop);
        let c = detection_key("fig5", &ScenarioConfig { seed: 1, ..base }, 60, &[10, 25], true, &noop);
        let d = detection_key("fig5", &ScenarioConfig { seed: 1, ..base }, 50, &[10], true, &noop);
        let e = detection_key("fig5", &ScenarioConfig { seed: 1, ..base }, 50, &[10, 25], false, &noop);
        let f = detection_key("fig6", &ScenarioConfig { seed: 1, ..base }, 50, &[10, 25], true, &noop);
        let g = detection_key("fig5", &ScenarioConfig { seed: 1, ..base }, 50, &[10, 25], true, &chaos);
        let all = [&a, &b, &c, &d, &e, &f, &g];
        for (i, x) in all.iter().enumerate() {
            for y in &all[i + 1..] {
                assert_ne!(x.hash(), y.hash(), "{} vs {}", x.text(), y.text());
            }
        }
        assert!(a.text().contains("seed: 1"), "resolved cfg must appear: {}", a.text());
    }
}
