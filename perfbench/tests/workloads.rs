//! Tiny-size runs of every workload, and the benchmark's definition file
//! against the metric tables. Run with `--release`: the workloads simulate.

use manet_guard::trace::json::Json;
use perfbench::{
    run, serve, world, Outcome, Run, Scale, Workload, END_TO_END, OVERHEAD, PER_LAYER,
};

fn tiny(w: Workload, trace: bool) -> Outcome {
    let out = run(
        w,
        &Run {
            seed: 7,
            seconds: 0.0,
            trace,
            scale: Scale::Tiny,
        },
    );
    assert!(out.attempted > 0, "{}: nothing checked", w.name());
    assert_eq!(out.failed, 0, "{}: error_rate must be 0: {out:?}", w.name());
    assert!(out.correct(), "{}: {:?}", w.name(), out.mismatches);
    out
}

/// The metrics a traced run of `w` must measure (nonzero); the rest of
/// [`PER_LAYER`] reads 0 for layers the workload does not exercise.
fn exercised(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::PaperGrid | Workload::LargeWorld => &[
            "sim.events",
            "sim.ns_per_event",
            "net.run_s",
            "net.self_s",
            "net.enqueued",
            "mac.tx_frames",
            "phy.rx_decoded",
            "detect.calls",
            "detect.useful_frac",
            "detect.self_s",
            "detect.ns_per_call",
            "detect.samples",
            "proc.peak_rss_mb",
        ],
        Workload::ServeFanin => &[
            "detect.samples",
            "detect.tests",
            "obs.encode_s",
            "obs.bytes_per_event",
            "obs.decode_s",
            "obs.decode_mb_per_s",
            "serve.read_frame_s",
            "serve.frames",
            "serve.push_s",
            "serve.handoffs",
            "serve.flush_p50_us",
            "serve.flush_p99_us",
            "serve.close_s",
            "serve.events",
            "proc.peak_rss_mb",
        ],
    }
}

fn emits_every_metric(w: Workload) {
    let plain = tiny(w, false);
    let metrics = plain.metrics(false);
    assert_eq!(metrics.len(), END_TO_END.len());
    for (name, value, _) in metrics {
        assert!(
            value > 0.0 && value.is_finite(),
            "{}: {name} = {value}",
            w.name()
        );
    }

    let traced = tiny(w, true);
    let metrics = traced.metrics(true);
    let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
    let expected: Vec<&str> = PER_LAYER.iter().chain([&OVERHEAD]).map(|m| m.0).collect();
    assert_eq!(names, expected);
    for name in exercised(w) {
        assert!(
            traced.values.get(name).is_some_and(|&v| v > 0.0),
            "{}: {name} not measured",
            w.name()
        );
    }
    assert!(traced.values["trace.overhead_frac"].is_finite());

    let line = Json::parse(&traced.to_json(true)).expect("the result line is JSON");
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
}

#[test]
fn paper_grid_emits_every_metric() {
    emits_every_metric(Workload::PaperGrid);
}

#[test]
fn large_world_emits_every_metric() {
    emits_every_metric(Workload::LargeWorld);
}

#[test]
fn serve_fanin_emits_every_metric() {
    emits_every_metric(Workload::ServeFanin);
}

#[test]
fn equal_seeds_generate_equal_inputs() {
    for scale in [Scale::Full, Scale::Tiny] {
        let grid = |s| format!("{:?}", world::Spec::paper_grid(s, scale));
        let large = |s| format!("{:?}", world::Spec::large_world(s, scale));
        assert_eq!(grid(3), grid(3));
        assert_eq!(large(3), large(3));
        assert_eq!(serve::Spec::new(3, scale), serve::Spec::new(3, scale));
        assert_ne!(grid(3), grid(4));
        assert_ne!(large(3), large(4));
        assert_ne!(serve::Spec::new(3, scale), serve::Spec::new(4, scale));
    }
}

/// `BENCHMARK.json` names exactly the metrics this crate emits, and only
/// workloads it runs.
#[test]
fn benchmark_json_matches_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("{key} is a list")
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), owned(&END_TO_END));
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().copied().chain([OVERHEAD]).collect();
    assert_eq!(list("per_layer"), owned(&per_layer));
    let workloads = list("workloads");
    assert!(workloads.len() >= 2);
    for (name, _) in workloads {
        assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
    }
}
