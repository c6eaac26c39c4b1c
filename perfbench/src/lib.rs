//! The repository benchmark: three fixed workloads, end-to-end metrics from
//! untraced repetitions and per-layer metrics from a traced run.
//!
//! Every repetition of a workload does the same, seed-determined amount of
//! work, so the counts it reports (events, samples, tests, frames…) repeat
//! exactly; only wall-clock figures vary. A run repeats until its time
//! budget is spent and reports medians across repetitions. On a shared
//! host, contention from other tenants slows whole runs down for minutes at
//! a time, so each untraced repetition is preceded by a `calibrate`
//! kernel, and the end-to-end times are rescaled by the run's median
//! calibration time against `CAL_REF_S` (see `README.md`). The traced run
//! alternates untraced and traced repetitions of the same seed: the counts
//! of both must agree, and their wall-clock ratio is the tracing overhead.
//! Spans are taken around the calls this crate makes into the library's
//! public API — nothing inside the library is instrumented.
//!
//! Why each workload exists, and which layer metric should move which
//! end-to-end metric, is written down in `README.md` next to this crate.

pub mod serve;
pub mod world;

use manet_guard::trace::json::Json;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// End-to-end metrics `(name, unit)`, reported by untraced runs of every
/// workload. None of them can be zero.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("sim_secs_per_s", "sim-s/s"),
    ("obs_per_s", "Obs/s"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs of every
/// workload. A layer a workload does not exercise, or cannot time from the
/// outside, reads 0 there.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("net.run_s", "s"),
    ("net.self_s", "s"),
    ("net.enqueued", "count"),
    ("net.delivered", "count"),
    ("net.dropped", "count"),
    ("mac.tx_frames", "count"),
    ("mac.backoff_freezes", "count"),
    ("phy.rx_decoded", "count"),
    ("phy.rx_garbled", "count"),
    ("detect.calls", "count"),
    ("detect.useful_frac", "ratio"),
    ("detect.self_s", "s"),
    ("detect.ns_per_call", "ns"),
    ("detect.samples", "count"),
    ("detect.tests", "count"),
    ("detect.violations", "count"),
    ("obs.encode_s", "s"),
    ("obs.bytes_per_event", "B"),
    ("obs.decode_s", "s"),
    ("obs.decode_mb_per_s", "MB/s"),
    ("serve.read_frame_s", "s"),
    ("serve.frames", "count"),
    ("serve.push_s", "s"),
    ("serve.handoffs", "count"),
    ("serve.flush_p50_us", "us"),
    ("serve.flush_p99_us", "us"),
    ("serve.close_s", "s"),
    ("serve.events", "count"),
    ("serve.dropped", "count"),
    ("serve.abandoned", "count"),
    ("proc.peak_rss_mb", "MB"),
];

/// The overhead metric every traced run adds to [`PER_LAYER`].
pub const OVERHEAD: (&str, &str) = ("trace.overhead_frac", "ratio");

/// Fewest repetitions of each kind a run makes, however short its budget:
/// enough for a median of set-up times.
pub(crate) const MIN_REPS: usize = 3;

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 7×8 grid with the Fig. 5 four-monitor fan-out.
    PaperGrid,
    /// 2000 clustered nodes, 8 tagged nodes watched through `monitor_mesh`.
    LargeWorld,
    /// Recorded journals fanned into the `mgd` engine over 128 streams.
    ServeFanin,
}

impl Workload {
    /// Every workload `--workload` accepts. `BENCHMARK.json` lists the ones
    /// the benchmark runs (see `README.md` for `large_world`).
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::LargeWorld,
        Workload::ServeFanin,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::LargeWorld => "large_world",
            Workload::ServeFanin => "serve_fanin",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size. `Full` is the benchmark; `Tiny` runs the same code paths at a
/// size the crate's tests can afford.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Test sizes.
    Tiny,
}

/// One invocation of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    /// Seed every input derives from.
    pub seed: u64,
    /// Wall-clock budget; a run stops repeating once it is spent.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// What one run of a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks made.
    pub attempted: u64,
    /// Output checks that failed.
    pub failed: u64,
    /// Counts that should have repeated exactly but did not.
    pub mismatches: Vec<String>,
    /// Untraced repetitions made.
    pub reps: usize,
    /// The run's host slowdown against the reference host: its median
    /// calibration-kernel time over the reference host's.
    pub slowdown: f64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Every check passed and every count repeated.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }

    /// The metrics this run reports, `(name, value, unit)`: [`END_TO_END`]
    /// for an untraced run, [`PER_LAYER`] plus [`OVERHEAD`] for a traced one.
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let table: Vec<(&str, &str)> = if trace {
            PER_LAYER.iter().copied().chain([OVERHEAD]).collect()
        } else {
            END_TO_END.to_vec()
        };
        table
            .into_iter()
            .map(|(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self, trace: bool) -> String {
        let metrics = self.metrics(trace).into_iter().map(|(name, value, unit)| {
            (
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

/// Runs `workload` once.
pub fn run(workload: Workload, r: &Run) -> Outcome {
    match workload {
        Workload::PaperGrid => world::run(
            &world::worlds(r.seed, |s| world::Spec::paper_grid(s, r.scale)),
            r,
        ),
        Workload::LargeWorld => world::run(
            &world::worlds(r.seed, |s| world::Spec::large_world(s, r.scale)),
            r,
        ),
        Workload::ServeFanin => serve::run(&serve::Spec::new(r.seed, r.scale), r),
    }
}

/// What the [`calibrate`] kernel takes on the reference host: end-to-end
/// times are reported as if measured there.
pub(crate) const CAL_REF_S: f64 = 0.020;

/// Times a fixed allocation-heavy kernel built only from `std`: hash-map
/// inserts into growing vectors and a bounded binary heap, about 1 MB
/// live. Other tenants' contention slows it much as it slows the workloads,
/// and nothing in it depends on the library under test, so a change to the
/// library cannot move it.
pub(crate) fn calibrate() -> Duration {
    let t = Instant::now();
    for round in 0..4u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15 ^ round;
        let mut buckets: HashMap<u64, Vec<u64>, BuildHasherDefault<DefaultHasher>> =
            HashMap::default();
        let mut heap = BinaryHeap::new();
        for i in 0..50_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            buckets.entry(x % 12_500).or_default().push(i);
            heap.push(Reverse(x >> 16));
            if heap.len() > 5_000 {
                heap.pop();
            }
        }
        black_box((&buckets, &heap));
    }
    t.elapsed()
}

/// The repetitions of one run.
pub(crate) struct Reps<T> {
    pub(crate) plain: Vec<T>,
    /// Empty unless the run is traced.
    pub(crate) traced: Vec<T>,
    /// How much slower than the reference host this run's host was: the
    /// median [`calibrate`] time over [`CAL_REF_S`].
    pub(crate) slowdown: f64,
}

impl<T> Reps<T> {
    /// The median of duration `f` over the untraced repetitions, in seconds
    /// on the reference host.
    pub(crate) fn reference_s(&self, f: impl Fn(&T) -> Duration) -> f64 {
        median_s(self.plain.iter().map(f)) / self.slowdown
    }

    /// The median of rate `f` (per host second) over the untraced
    /// repetitions, per second on the reference host.
    pub(crate) fn reference_rate(&self, f: impl Fn(&T) -> f64) -> f64 {
        median(self.plain.iter().map(f).collect()) * self.slowdown
    }
}

/// Repeats `rep` until `r.seconds` have passed and at least [`MIN_REPS`]
/// ran, timing [`calibrate`] before each untraced repetition. A traced run
/// follows untraced repetition `i` (`rep(i, false)`) with a traced one of
/// the same inputs (`rep(i, true)`), so both kinds see the same machine
/// state.
pub(crate) fn repeat<T>(r: &Run, mut rep: impl FnMut(usize, bool) -> T) -> Reps<T> {
    let start = Instant::now();
    let (mut plain, mut traced, mut cal) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let i = plain.len();
        cal.push(calibrate());
        plain.push(rep(i, false));
        if r.trace {
            traced.push(rep(i, true));
        }
        if plain.len() >= MIN_REPS && start.elapsed().as_secs_f64() >= r.seconds {
            let slowdown = median_s(cal) / CAL_REF_S;
            return Reps {
                plain,
                traced,
                slowdown,
            };
        }
    }
}

/// Median (nearest rank).
pub(crate) fn median(xs: Vec<f64>) -> f64 {
    quantile(xs, 0.5)
}

/// Median of durations, in seconds.
pub(crate) fn median_s(ds: impl IntoIterator<Item = Duration>) -> f64 {
    median(ds.into_iter().map(|d| d.as_secs_f64()).collect())
}

/// The `q`-quantile (0..=1) of `xs` by nearest rank; 0 when empty.
pub(crate) fn quantile(mut xs: Vec<f64>, q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Median over repetition pairs of `traced / plain − 1`: each traced
/// repetition ran the same inputs right after its untraced partner.
pub(crate) fn overhead(pairs: impl Iterator<Item = (Duration, Duration)>) -> f64 {
    median(
        pairs
            .map(|(plain, traced)| traced.as_secs_f64() / plain.as_secs_f64())
            .collect(),
    ) - 1.0
}

/// The process's peak resident set (`VmHWM`), in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("peak RSS needs /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kb / 1024.0
}

/// Adds a mismatch to `out` unless every item equals the first.
pub(crate) fn check_repeats<T: PartialEq + std::fmt::Debug>(
    what: &str,
    items: &[T],
    out: &mut Vec<String>,
) {
    if let Some(first) = items.first() {
        for (i, it) in items.iter().enumerate().skip(1) {
            if it != first {
                out.push(format!(
                    "{what}: repetition {i} counted {it:?}, repetition 0 counted {first:?}"
                ));
            }
        }
    }
}
