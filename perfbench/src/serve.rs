//! The `serve_fanin` workload: recorded paper-grid journals, framed for the
//! wire, fanned into the `mgd` engine over many streams by one generator
//! thread. No simulation runs in the timed phase.

use crate::{
    check_repeats, median_s, overhead, peak_rss_mb, quantile, repeat, Outcome, Run, Scale,
};
use manet_guard::detect::{render_report, SessionSpec};
use manet_guard::net::ScenarioConfig;
use manet_guard::obs::{JournalFormat, JournalReader, Obs};
use manet_guard::serve::{read_frame, send_journal, Daemon, ServeConfig, ServeStats};
use mg_bench::{record_detection_world, Load};
use std::io::Cursor;
use std::time::{Duration, Instant};

/// Events per wire frame, as `journal send` chunks them.
const CHUNK: usize = 4096;

/// The workload, derived from the seed before anything is timed.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// Journals to record, `(scenario, pm)`: two cheating, two compliant.
    pub journals: Vec<(ScenarioConfig, u8)>,
    /// Concurrent streams; stream `i` replays journal `i % journals.len()`.
    pub streams: usize,
}

impl Spec {
    /// Four paper-grid journals at medium load, fed to 128 streams.
    pub fn new(seed: u64, scale: Scale) -> Spec {
        let (sim_secs, streams) = match scale {
            Scale::Full => (30, 128),
            Scale::Tiny => (5, 8),
        };
        let journals = [75, 0, 75, 0]
            .into_iter()
            .enumerate()
            .map(|(i, pm)| {
                let cfg = ScenarioConfig {
                    sim_secs,
                    rate_pps: Load::Medium.rate_pps(),
                    ..ScenarioConfig::grid_paper(seed.wrapping_mul(4).wrapping_add(i as u64))
                };
                (cfg, pm)
            })
            .collect();
        Spec { journals, streams }
    }
}

/// One recorded journal, ready to put on the wire.
struct Input {
    /// `send_journal` output: frames of [`CHUNK`] events and the end marker.
    framed: Vec<u8>,
    events: u64,
    sim_secs: u64,
    /// What an offline session replay of the journal reports.
    report: String,
}

/// Records, encodes and replays every journal of `spec` offline.
fn setup(spec: &Spec) -> (Vec<Input>, Duration) {
    let mut encode = Duration::ZERO;
    let inputs = spec
        .journals
        .iter()
        .map(|&(cfg, pm)| {
            let journal = record_detection_world(cfg.seed, cfg, pm);
            let t = Instant::now();
            let reader = JournalReader::from_bytes(journal.encode(JournalFormat::Binary))
                .expect("a freshly encoded journal decodes");
            let mut framed = Vec::new();
            send_journal(&mut framed, &reader, CHUNK).expect("framing into memory cannot fail");
            encode += t.elapsed();
            let mut session = SessionSpec::from_meta(journal.meta()).build();
            for o in journal.events() {
                session.ingest(o);
            }
            Input {
                framed,
                events: journal.len() as u64,
                sim_secs: cfg.sim_secs,
                report: render_report(journal.meta().tagged, 50, false, &session.diagnosis()),
            }
        })
        .collect();
    (inputs, encode)
}

/// Counts a pass must reproduce exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Counts {
    frames: u64,
    events: u64,
    samples: u64,
    tests: u64,
    violations: u64,
}

/// Where a traced pass spent its generator thread's time.
#[derive(Default)]
struct Layers {
    encode: Duration,
    read: Duration,
    decode: Duration,
    payload_bytes: u64,
    /// One entry per push that handed a full batch to a worker queue.
    handoffs: Vec<Duration>,
    close: Duration,
}

/// One repetition: set-up, then one pass of every stream through a fresh
/// daemon.
struct Rep {
    setup: Duration,
    wall: Duration,
    obs: u64,
    sim_secs: u64,
    failed: u64,
    counts: Counts,
    stats: ServeStats,
    /// Wire bytes and events of the recorded journals (each once).
    framed_bytes: u64,
    journal_events: u64,
    layers: Layers,
}

struct Feed<'a> {
    input: &'a Input,
    cursor: Cursor<&'a [u8]>,
    handle: Option<manet_guard::serve::StreamHandle>,
    done: bool,
}

/// Runs `f`, adding its wall time to `acc` when `on`.
fn timed<T>(on: bool, acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t = Instant::now();
    let v = f();
    *acc += t.elapsed();
    v
}

fn rep(spec: &Spec, traced: bool) -> Rep {
    let t0 = Instant::now();
    let (inputs, encode) = setup(spec);
    let setup = t0.elapsed();
    let mut l = Layers {
        encode,
        ..Layers::default()
    };
    let cfg = ServeConfig::default();
    let batch = cfg.batch.max(1) as u64;
    let daemon = Daemon::start(cfg, None);
    let mut feeds: Vec<Feed> = (0..spec.streams)
        .map(|i| {
            let input = &inputs[i % inputs.len()];
            Feed {
                input,
                cursor: Cursor::new(&input.framed[..]),
                handle: None,
                done: false,
            }
        })
        .collect();
    let mut counts = Counts {
        frames: 0,
        events: 0,
        samples: 0,
        tests: 0,
        violations: 0,
    };
    let mut failed = 0;
    let mut open = feeds.len();
    let t1 = Instant::now();
    // Closed loop, one frame per stream per turn: read_frame → decode →
    // push, and at a stream's end marker close it and check its report.
    while open > 0 {
        for f in feeds.iter_mut().filter(|f| !f.done) {
            let frame = timed(traced, &mut l.read, || read_frame(&mut f.cursor));
            let payload = match frame {
                Ok(Some(payload)) => payload,
                Ok(None) => {
                    f.done = true;
                    open -= 1;
                    let report = f
                        .handle
                        .take()
                        .and_then(|h| timed(traced, &mut l.close, || h.close()));
                    match report {
                        Some(r) if r.report == f.input.report => {
                            counts.samples += r.diagnosis.samples_collected as u64;
                            counts.tests += r.diagnosis.tests_run as u64;
                            counts.violations += r.diagnosis.violations as u64;
                        }
                        _ => failed += 1,
                    }
                    continue;
                }
                Err(_) => {
                    // The stream is abandoned: its session stays open and
                    // the daemon counts it at shutdown.
                    f.done = true;
                    open -= 1;
                    failed += 1;
                    continue;
                }
            };
            counts.frames += 1;
            l.payload_bytes += payload.len() as u64;
            let decoded = timed(traced, &mut l.decode, || {
                let reader = JournalReader::from_bytes(payload)?;
                let events = reader.events().collect::<Result<Vec<Obs>, _>>()?;
                Ok::<_, manet_guard::obs::JournalError>((reader, events))
            });
            let Ok((reader, events)) = decoded else {
                f.done = true;
                open -= 1;
                failed += 1;
                continue;
            };
            counts.events += events.len() as u64;
            let h = f
                .handle
                .get_or_insert_with(|| daemon.open(reader.meta().clone()));
            for o in events {
                // Only a push that fills a batch hands it to a worker queue
                // (and may block there); time just those.
                if traced && (h.events() + 1) % batch == 0 {
                    let t = Instant::now();
                    h.push(o);
                    l.handoffs.push(t.elapsed());
                } else {
                    h.push(o);
                }
            }
        }
    }
    let wall = t1.elapsed();
    let stats = daemon.shutdown();
    Rep {
        setup,
        wall,
        obs: feeds.iter().map(|f| f.input.events).sum(),
        sim_secs: feeds.iter().map(|f| f.input.sim_secs).sum(),
        failed,
        counts,
        stats,
        framed_bytes: inputs.iter().map(|i| i.framed.len() as u64).sum(),
        journal_events: inputs.iter().map(|i| i.events).sum(),
        layers: l,
    }
}

/// Runs `serve_fanin`: repetitions until the budget is spent, checks, then
/// the end-to-end or per-layer metrics.
pub(crate) fn run(spec: &Spec, r: &Run) -> Outcome {
    let mut out = Outcome::default();
    let reps = repeat(r, |_, traced| rep(spec, traced));
    let (plain, traced) = (&reps.plain, &reps.traced);
    out.reps = plain.len();
    out.slowdown = reps.slowdown;
    for rep in plain.iter().chain(traced) {
        out.attempted += spec.streams as u64;
        out.failed += rep.failed;
        let s = rep.stats;
        if s.events != rep.obs || s.dropped != 0 || s.abandoned != 0 {
            out.mismatches.push(format!(
                "daemon ingested {} of {} events ({s:?})",
                s.events, rep.obs
            ));
        }
    }
    let all: Vec<&Counts> = plain.iter().chain(traced).map(|rep| &rep.counts).collect();
    check_repeats("serve counts", &all, &mut out.mismatches);
    let v = &mut out.values;
    if !r.trace {
        let secs = |rep: &Rep| rep.wall.as_secs_f64();
        v.insert("setup_s", reps.reference_s(|rep| rep.setup));
        v.insert(
            "sim_secs_per_s",
            reps.reference_rate(|rep| rep.sim_secs as f64 / secs(rep)),
        );
        v.insert(
            "obs_per_s",
            reps.reference_rate(|rep| rep.obs as f64 / secs(rep)),
        );
        return out;
    }
    let c = &traced[0].counts;
    let s = traced[0].stats;
    let decode_s = median_s(traced.iter().map(|rep| rep.layers.decode));
    let handoffs: Vec<f64> = traced
        .iter()
        .flat_map(|rep| rep.layers.handoffs.iter().map(|d| d.as_secs_f64() * 1e6))
        .collect();
    v.insert("detect.samples", c.samples as f64);
    v.insert("detect.tests", c.tests as f64);
    v.insert("detect.violations", c.violations as f64);
    v.insert(
        "obs.encode_s",
        median_s(traced.iter().map(|rep| rep.layers.encode)),
    );
    v.insert(
        "obs.bytes_per_event",
        traced[0].framed_bytes as f64 / traced[0].journal_events as f64,
    );
    v.insert("obs.decode_s", decode_s);
    v.insert(
        "obs.decode_mb_per_s",
        traced[0].layers.payload_bytes as f64 / 1e6 / decode_s,
    );
    v.insert(
        "serve.read_frame_s",
        median_s(traced.iter().map(|rep| rep.layers.read)),
    );
    v.insert("serve.frames", c.frames as f64);
    v.insert(
        "serve.push_s",
        median_s(traced.iter().map(|rep| rep.layers.handoffs.iter().sum())),
    );
    v.insert("serve.handoffs", traced[0].layers.handoffs.len() as f64);
    v.insert("serve.flush_p50_us", quantile(handoffs.clone(), 0.5));
    v.insert("serve.flush_p99_us", quantile(handoffs, 0.99));
    v.insert(
        "serve.close_s",
        median_s(traced.iter().map(|rep| rep.layers.close)),
    );
    v.insert("serve.events", s.events as f64);
    v.insert("serve.dropped", s.dropped as f64);
    v.insert("serve.abandoned", s.abandoned as f64);
    v.insert("proc.peak_rss_mb", peak_rss_mb());
    v.insert(
        "trace.overhead_frac",
        overhead(plain.iter().zip(traced).map(|(p, t)| (p.wall, t.wall))),
    );
    out
}
