//! `manet-guard` — command-line front end.
//!
//! ```text
//! manet-guard demo                      quick demonstration (grid, PM=75)
//! manet-guard detect [OPTIONS]          run one detection scenario
//! manet-guard journal info FILE         inspect a recorded Obs journal
//!                     [--deltas]        …and print its DiagnosisDelta JSONL
//! manet-guard journal transcode IN OUT  re-encode a journal
//! manet-guard journal send FILE --to HOST:PORT [--chunk N]
//!                                       stream a journal to a running mgd
//! manet-guard params                    print the Table 1 parameters
//!
//! detect options:
//!   --pm <0-100>      percentage of misbehavior        [default: 50]
//!   --rate <pps>      background packets/s per source  [default: 2.0]
//!   --secs <s>        simulated seconds                [default: 60]
//!   --seed <n>        run seed                         [default: 1]
//!   --samples <n,..>  back-off samples per test        [default: 50]
//!                     a comma-separated list fans out one monitor per
//!                     size over a single simulated world
//!   --random          random 112-node topology instead of the grid
//!   --mobile          add random-waypoint mobility (implies --random)
//!   --no-blatant      disable the deterministic timing check
//!   --faults <spec>   inject observation faults at every monitor
//!                     (e.g. "light", "heavy,seed=7", "loss=0.1,deaf=250:25");
//!                     with --quorum the spec's lie/mute/flip knobs also
//!                     seed adversarial monitor roles
//!   --quorum <k>      collaborative detection: monitor from up to 2k+1
//!                     in-range vantages, gossip accusations between them,
//!                     and convict only on k distinct accusers. Composes
//!                     with --replay (members come from the journal header)
//!                     but not with --mobile or a multi-size --samples list
//!   --trace <file>    write the event journal as JSONL to <file>
//!   --metrics         print stack-wide counters and histograms
//!   --record <file>   also record the monitors' observation stream as an
//!                     ObsJournal for later --replay
//!   --journal-format <jsonl|bin>
//!                     journal encoding for --record and `journal
//!                     transcode` [default: bin]; jsonl is a write-only
//!                     export that no command reads back
//!   --replay <file>   skip simulation: replay a recorded binary journal
//!                     into fresh monitors. The journal fixes the world, so
//!                     --replay rejects every world knob (--pm, --rate,
//!                     --secs, --seed, --random, --mobile, --record,
//!                     --trace, --metrics) and --journal-format; it
//!                     composes with --samples, --no-blatant and --faults
//! ```
//!
//! Unrecognized arguments are an error (exit code 2), never silently
//! ignored — a typo'd `--sedd 7` must not run the default seed.

use manet_guard::prelude::*;
use manet_guard::serve;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("demo") => parse_detect(&["--pm".into(), "75".into()]).map(detect),
        Some("detect") => parse_detect(&args[1..]).map(detect),
        Some("journal") => journal_cmd(&args[1..]),
        Some("params") => {
            if let Some(extra) = args.get(1) {
                Err(format!("unrecognized argument: {extra}"))
            } else {
                params();
                Ok(())
            }
        }
        Some(other) => Err(format!("unrecognized command: {other}")),
        None => Err("missing command".into()),
    };
    if let Err(msg) = result {
        eprintln!("error: {msg}");
        eprint!("{}", USAGE);
        std::process::exit(2);
    }
}

const USAGE: &str = "\
manet-guard: back-off timer violation detection (ICDCS 2006 reproduction)

usage:
  manet-guard demo
  manet-guard detect [--pm N] [--rate PPS] [--secs S] [--seed N]
                     [--samples N[,N..]] [--random] [--mobile]
                     [--no-blatant] [--faults SPEC] [--quorum K]
                     [--trace FILE] [--metrics] [--record FILE]
                     [--journal-format jsonl|bin]
  manet-guard detect --replay FILE [--samples N[,N..]] [--no-blatant]
                     [--faults SPEC] [--quorum K]
  manet-guard journal info FILE [--deltas]
  manet-guard journal transcode IN OUT [--journal-format jsonl|bin]
  manet-guard journal send FILE --to HOST:PORT [--chunk N]
  manet-guard params
";

struct DetectOpts {
    pm: u8,
    rate: f64,
    secs: u64,
    seed: u64,
    samples: Vec<usize>,
    random: bool,
    mobile: bool,
    no_blatant: bool,
    faults: FaultPlan,
    quorum: Option<usize>,
    trace: Option<String>,
    metrics: bool,
    record: Option<String>,
    replay: Option<String>,
    journal_format: JournalFormat,
}

/// Strict parser for `detect` arguments: every flag must be recognized and
/// every value must parse, otherwise the whole invocation is rejected.
/// `--replay` additionally rejects any flag that would contradict the
/// recorded world.
fn parse_detect(args: &[String]) -> Result<DetectOpts, String> {
    let mut o = DetectOpts {
        pm: 50,
        rate: 2.0,
        secs: 60,
        seed: 1,
        samples: vec![50],
        random: false,
        mobile: false,
        no_blatant: false,
        faults: FaultPlan::default(),
        quorum: None,
        trace: None,
        metrics: false,
        record: None,
        replay: None,
        journal_format: JournalFormat::Binary,
    };
    let mut seen: Vec<&'static str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag: &'static str = match a.as_str() {
            "--pm" => {
                o.pm = value(&mut it, a)?;
                if o.pm > 100 {
                    return Err(format!("invalid value for --pm: {} (must be 0-100)", o.pm));
                }
                "--pm"
            }
            "--rate" => {
                o.rate = value(&mut it, a)?;
                if !(o.rate.is_finite() && o.rate > 0.0) {
                    let r = o.rate;
                    return Err(format!(
                        "invalid value for --rate: {r} (must be finite and above 0)"
                    ));
                }
                "--rate"
            }
            "--secs" => {
                o.secs = value(&mut it, a)?;
                "--secs"
            }
            "--seed" => {
                o.seed = value(&mut it, a)?;
                "--seed"
            }
            "--samples" => {
                o.samples = samples_list(&raw_value(&mut it, a)?)?;
                "--samples"
            }
            "--random" => {
                o.random = true;
                "--random"
            }
            "--mobile" => {
                o.mobile = true;
                "--mobile"
            }
            "--no-blatant" => {
                o.no_blatant = true;
                "--no-blatant"
            }
            "--faults" => {
                let spec = raw_value(&mut it, a)?;
                o.faults = FaultPlan::parse(&spec)
                    .map_err(|e| format!("invalid value for --faults: {e}"))?;
                "--faults"
            }
            "--quorum" => {
                o.quorum = Some(value(&mut it, a)?);
                "--quorum"
            }
            "--trace" => {
                o.trace = Some(raw_value(&mut it, a)?);
                "--trace"
            }
            "--metrics" => {
                o.metrics = true;
                "--metrics"
            }
            "--record" => {
                o.record = Some(raw_value(&mut it, a)?);
                "--record"
            }
            "--replay" => {
                o.replay = Some(raw_value(&mut it, a)?);
                "--replay"
            }
            "--journal-format" => {
                o.journal_format = journal_format_value(&mut it, a)?;
                "--journal-format"
            }
            other => return Err(format!("unrecognized argument: {other}")),
        };
        seen.push(flag);
    }
    if let Some(k) = o.quorum {
        if k == 0 {
            return Err("invalid value for --quorum: 0 (need at least 1 accuser)".into());
        }
        if o.samples.len() > 1 {
            return Err("--quorum monitors one sample size: give --samples a single value".into());
        }
        if o.mobile {
            return Err("--quorum conflicts with --mobile: quorum members monitor from fixed vantages".into());
        }
    }
    if seen.contains(&"--replay") {
        // The journal fixes the world; only detector-side knobs compose.
        const WORLD_FLAGS: [&str; 9] = [
            "--record",
            "--pm",
            "--rate",
            "--secs",
            "--seed",
            "--random",
            "--mobile",
            "--trace",
            "--metrics",
        ];
        for c in WORLD_FLAGS {
            if seen.contains(&c) {
                return Err(format!(
                    "--replay conflicts with {c}: the recorded journal fixes the world"
                ));
            }
        }
        if seen.contains(&"--journal-format") {
            return Err(
                "--replay conflicts with --journal-format: replay reads binary journals only"
                    .into(),
            );
        }
    }
    Ok(o)
}

/// Parses the `--samples` value: one size, or a comma-separated list of
/// sizes that all monitor the same run.
fn samples_list(v: &str) -> Result<Vec<usize>, String> {
    let sizes: Vec<usize> = v
        .split(',')
        .map(|p| p.trim().parse::<usize>().map_err(|_| p))
        .collect::<Result<_, _>>()
        .map_err(|p| format!("invalid value for --samples: {p:?}"))?;
    if sizes.is_empty() || sizes.contains(&0) {
        return Err(format!("invalid value for --samples: {v}"));
    }
    Ok(sizes)
}

/// Parses a `--journal-format` value; anything but `jsonl`/`bin` is a
/// usage error (exit 2), matching the other flags' conventions.
fn journal_format_value(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<JournalFormat, String> {
    let v = raw_value(it, flag)?;
    JournalFormat::parse(&v)
        .ok_or_else(|| format!("invalid value for {flag}: {v} (expected jsonl or bin)"))
}

fn raw_value<'a>(
    it: &mut std::slice::Iter<'a, String>,
    flag: &str,
) -> Result<String, String> {
    match it.next() {
        Some(v) if !v.starts_with("--") => Ok(v.clone()),
        _ => Err(format!("{flag} requires a value")),
    }
}

fn value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    let v = raw_value(it, flag)?;
    v.parse()
        .map_err(|_| format!("invalid value for {flag}: {v}"))
}

fn params() {
    for (name, cfg) in [
        ("grid", ScenarioConfig::grid_paper(0)),
        ("random", ScenarioConfig::random_paper(0)),
    ] {
        println!("[{name} topology]");
        for (k, v) in cfg.table1_rows() {
            println!("  {k:<30} {v}");
        }
        println!();
    }
}

/// The per-monitor result block, shared verbatim by the live path, the
/// replay path and the `mgd` daemon — the ci.sh gates diff these lines
/// byte-for-byte, so the single producer is [`render_report`].
fn report_diagnosis(attacker_node: usize, sample_size: usize, multi: bool, diag: &Diagnosis) {
    print!("{}", render_report(attacker_node, sample_size, multi, diag));
}

/// Runs the built world and prints the detection report. Generic over the
/// probe so the `--record` path (recorder installed) shares it with the
/// plain one.
fn run_and_report<P: NetObserver>(
    world: &mut World<Assembly<P>>,
    o: &DetectOpts,
    attacker: AttackerHandle,
    attacker_node: usize,
    watches: &[(usize, MonitorHandle)],
) {
    if o.pm > 0 {
        world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm: o.pm });
    }

    let t0 = std::time::Instant::now();
    world.run_until(SimTime::from_secs(o.secs));
    let wall = t0.elapsed();

    println!(
        "run      : {}s virtual in {wall:.2?} ({} events)",
        o.secs,
        world.events_fired()
    );
    println!(
        "load     : measured rho = {:.2}",
        world.monitors().diagnosis(watches[0].1).measured_rho
    );
    for &(n, watch) in watches {
        let diag = world.monitors().diagnosis(watch);
        report_diagnosis(attacker_node, n, watches.len() > 1, &diag);
    }

    emit_trace_metrics(world, o);
}

/// Prints the `--trace` file and `--metrics` lines a finished world owes —
/// shared by the per-monitor and quorum live paths.
fn emit_trace_metrics<P: NetObserver>(world: &World<Assembly<P>>, o: &DetectOpts) {
    if let Some(path) = &o.trace {
        let tracer = world.tracer();
        match std::fs::write(path, tracer.to_jsonl()) {
            Ok(()) => println!(
                "trace    : {} events written to {path} ({} dropped by ring)",
                tracer.len(),
                tracer.dropped()
            ),
            Err(e) => {
                eprintln!("error: cannot write trace to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if o.metrics {
        println!("metrics  : {}", world.metrics().snapshot().to_json().render());
    }
}

/// `--record`: writes the recorded journal atomically in `format`, or
/// exits 1 naming the path.
fn save_recording(journal: &ObsJournal, path: &str, format: JournalFormat) {
    let bytes = journal.encode(format);
    match manet_guard::obs::codec::write_atomic(std::path::Path::new(path), &bytes) {
        Ok(()) => println!(
            "record   : {} observations written to {path} ({format} format)",
            journal.len()
        ),
        Err(e) => {
            eprintln!("error: cannot write journal to {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// `detect --quorum K` (live): simulate once with an observation recorder
/// over up to `2K+1` in-range vantages, then replay the recorded journal
/// into a [`QuorumSession`] — accusation gossip, k-of-n conviction — and
/// print its collaborative verdict. The journal (saved by `--record`)
/// replays into the identical verdict via `detect --replay --quorum K`.
fn quorum_detect(o: &DetectOpts, k: usize) {
    let mut cfg = if o.random {
        ScenarioConfig::random_paper(o.seed)
    } else {
        ScenarioConfig::grid_paper(o.seed)
    };
    cfg.sim_secs = o.secs;
    cfg.rate_pps = o.rate;

    let scenario = Scenario::new(cfg);
    let (attacker_node, primary) = scenario.tagged_pair();
    // Member set: the closest non-tagged nodes that can still *decode* the
    // tagged node's frames (transmission range, not just carrier sensing),
    // capped at 2k+1 so an honest majority can out-vote k-1 liars.
    let pos = scenario.positions();
    let mut members: Vec<(usize, f64)> = (0..pos.len())
        .filter(|&v| v != attacker_node)
        .map(|v| (v, pos[attacker_node].distance(pos[v])))
        .filter(|&(_, d)| d <= cfg.tx_range)
        .collect();
    members.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distance").then(a.0.cmp(&b.0)));
    members.truncate(2 * k + 1);
    if members.len() < k {
        eprintln!(
            "error: --quorum {k} needs {k} in-range monitors, topology offers {}",
            members.len()
        );
        std::process::exit(1);
    }

    println!(
        "scenario : {} nodes, static, background {} pkt/s x {} sources",
        pos.len(),
        o.rate,
        cfg.source_count,
    );
    println!(
        "attacker : node {attacker_node} (PM = {}%), quorum: {} monitor(s), k = {k}",
        o.pm,
        members.len()
    );

    let mc = if o.random {
        MonitorConfig::random_paper(attacker_node, members[0].0, members[0].1)
    } else {
        MonitorConfig::grid_paper(attacker_node, members[0].0, members[0].1)
    };
    let mc = MonitorConfig {
        blatant_check: !o.no_blatant,
        ..mc.with_sample_size(o.samples[0])
    };

    let mut builder = ScenarioBuilder::new(scenario);
    let attacker = builder.attacker(attacker_node);
    for &(v, _) in &members {
        builder.reserve(v);
    }
    builder.source(SourceCfg::saturated(attacker_node, primary));
    if !o.faults.is_noop() {
        println!("faults   : {:?}", o.faults);
    }
    if o.trace.is_some() {
        builder.trace(TraceConfig::verbose());
    }
    if o.metrics {
        builder.metrics();
    }

    // The header carries each member's measured distance (`dist.<v>`), so a
    // --replay of this journal rebuilds the exact same member geometry.
    let kind = if o.random { "random" } else { "grid" };
    let mut params = vec![
        ("kind".into(), kind.into()),
        ("pm".into(), o.pm.to_string()),
        ("rate".into(), o.rate.to_string()),
        ("secs".into(), o.secs.to_string()),
    ];
    for &(v, d) in &members {
        params.push((format!("dist.{v}"), d.to_string()));
    }
    let meta = ObsMeta {
        tagged: attacker_node,
        vantages: members.iter().map(|&(v, _)| v).collect(),
        pair_distance: members[0].1,
        seed: o.seed,
        params,
    };
    let mut world = builder.probe(ObsRecorder::new(meta)).build();
    if o.pm > 0 {
        world.set_policy(attacker.id(), BackoffPolicy::Scaled { pm: o.pm });
    }

    let t0 = std::time::Instant::now();
    world.run_until(SimTime::from_secs(o.secs));
    println!(
        "run      : {}s virtual in {:.2?} ({} events)",
        o.secs,
        t0.elapsed(),
        world.events_fired()
    );

    // The quorum gossips through the world's tracer and metrics, so it
    // replays before they are written out.
    let journal = world.probe().journal();
    let mut q = QuorumSpec::new(attacker_node, &members, mc, k)
        .with_faults(o.faults.clone())
        .with_trace(world.tracer().clone(), world.metrics().clone())
        .build();
    journal.replay(&mut q);
    emit_trace_metrics(&world, o);
    if let Some(path) = &o.record {
        save_recording(journal, path, o.journal_format);
    }
    print!("{}", q.report());
}

/// `detect --replay`: no simulation — open the binary journal, build one
/// fresh monitor (pool) per requested sample size, and stream the recorded
/// observations through each without ever materializing the journal in
/// memory.
fn replay_detect(o: &DetectOpts, path: &str) {
    let reader = match JournalReader::open(std::path::Path::new(path)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot load journal from {path}: {e}");
            std::process::exit(1);
        }
    };
    let meta = reader.meta().clone();
    let attacker_node = meta.tagged;
    let primary = meta.vantages[0];
    let pm: u8 = meta.param_parsed("pm").unwrap_or(0);

    // The same derivation the mgd daemon and `journal info --deltas` use:
    // one journal, one monitor template, whoever the consumer is.
    let mut mc = template_from_meta(&meta);
    if o.no_blatant {
        mc.blatant_check = false;
    }

    println!(
        "replay   : {path} ({} format, {} events, {} vantage(s), world seed {})",
        JournalFormat::Binary,
        reader.len(),
        meta.vantages.len(),
        meta.seed
    );
    if let Some(k) = o.quorum {
        // Collaborative replay: materialize the journal (the member set
        // needs its geometry before the first event), then stream it into
        // one gossiping QuorumSession.
        let journal = reader.read_journal().unwrap_or_else(|e| {
            eprintln!("error: journal {path} is damaged: {e}");
            std::process::exit(1);
        });
        let members = members_from_journal(&journal);
        if members.len() < k {
            eprintln!(
                "error: --quorum {k} needs {k} members, journal {path} records {}",
                members.len()
            );
            std::process::exit(1);
        }
        println!(
            "attacker : node {attacker_node} (PM = {pm}%), quorum: {} monitor(s), k = {k}",
            members.len()
        );
        if !o.faults.is_noop() {
            println!("faults   : {:?}", o.faults);
        }
        let t0 = std::time::Instant::now();
        let mut q = QuorumSpec::new(attacker_node, &members, mc.with_sample_size(o.samples[0]), k)
            .with_faults(o.faults.clone())
            .build();
        journal.replay(&mut q);
        println!(
            "run      : {} events replayed into {} collaborating monitor(s) in {:.2?}",
            journal.len(),
            members.len(),
            t0.elapsed()
        );
        print!("{}", q.report());
        return;
    }

    println!("attacker : node {attacker_node} (PM = {pm}%), monitor: node {primary}");
    if !o.faults.is_noop() {
        println!("faults   : {:?}", o.faults);
    }

    let t0 = std::time::Instant::now();
    let sessions: Vec<(usize, DetectorSession)> = o
        .samples
        .iter()
        .map(|&n| {
            let mut session = SessionSpec::pool(meta.tagged, &meta.vantages, mc)
                .with_sample_size(n)
                .with_faults(o.faults.clone())
                .build();
            if let Err(e) = reader.replay_into(&mut session) {
                eprintln!("error: journal {path} is damaged: {e}");
                std::process::exit(1);
            }
            (n, session)
        })
        .collect();
    println!(
        "run      : {} events replayed into {} monitor(s) in {:.2?}",
        reader.len(),
        sessions.len(),
        t0.elapsed()
    );
    println!(
        "load     : measured rho = {:.2}",
        sessions[0].1.diagnosis().measured_rho
    );
    for (n, session) in &sessions {
        report_diagnosis(attacker_node, *n, sessions.len() > 1, &session.diagnosis());
    }
}

/// `manet-guard journal …`: inspect or re-encode recorded Obs journals.
/// Usage errors return `Err` (exit 2 with usage); damaged journals and I/O
/// failures exit 1 with a message — never a panic.
fn journal_cmd(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("info") => {
            let mut deltas = false;
            let mut file: Option<&String> = None;
            for a in &args[1..] {
                match a.as_str() {
                    "--deltas" => deltas = true,
                    _ if file.is_none() && !a.starts_with("--") => file = Some(a),
                    other => return Err(format!("unrecognized argument: {other}")),
                }
            }
            let Some(path) = file else {
                return Err("journal info takes exactly one FILE".into());
            };
            journal_info(path, deltas);
            Ok(())
        }
        Some("send") => {
            let mut to: Option<String> = None;
            let mut chunk = 4096usize;
            let mut file: Option<&String> = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--to" => to = Some(raw_value(&mut it, a)?),
                    "--chunk" => {
                        chunk = value(&mut it, a)?;
                        if chunk == 0 {
                            return Err("invalid value for --chunk: 0".into());
                        }
                    }
                    _ if file.is_none() && !a.starts_with("--") => file = Some(a),
                    other => return Err(format!("unrecognized argument: {other}")),
                }
            }
            let Some(path) = file else {
                return Err("journal send takes a FILE".into());
            };
            let Some(addr) = to else {
                return Err("journal send requires --to HOST:PORT".into());
            };
            journal_send(path, &addr, chunk);
            Ok(())
        }
        Some("transcode") => {
            if args.len() < 3 {
                return Err("journal transcode takes IN and OUT paths".into());
            }
            let mut format = JournalFormat::Binary;
            let mut it = args[3..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--journal-format" => format = journal_format_value(&mut it, a)?,
                    other => return Err(format!("unrecognized argument: {other}")),
                }
            }
            journal_transcode(&args[1], &args[2], format);
            Ok(())
        }
        Some(other) => Err(format!("unrecognized journal subcommand: {other}")),
        None => Err("journal requires a subcommand (info | transcode | send)".into()),
    }
}

fn open_journal_or_exit(path: &str) -> JournalReader {
    JournalReader::open(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("error: cannot load journal from {path}: {e}");
        std::process::exit(1);
    })
}

fn journal_info(path: &str, deltas: bool) {
    let r = open_journal_or_exit(path);
    let meta = r.meta();
    println!("journal  : {path}");
    println!("format   : {}", JournalFormat::Binary);
    println!("size     : {} bytes", r.size_bytes());
    println!("events   : {}", r.len());
    println!("tagged   : node {}", meta.tagged);
    println!(
        "vantages : {} ({})",
        meta.vantages.len(),
        meta.vantages
            .iter()
            .take(8)
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("distance : {}", meta.pair_distance);
    println!("seed     : {}", meta.seed);
    for (k, v) in &meta.params {
        println!("param    : {k} = {v}");
    }
    if deltas {
        journal_deltas(&r, path);
    }
}

/// `journal info --deltas`: stream the journal through an incremental
/// [`DetectorSession`] and print every [`DiagnosisDelta`] as one JSON line
/// — the same lines an `mgd` subscriber would see for this stream.
fn journal_deltas(r: &JournalReader, path: &str) {
    struct Printer {
        session: DetectorSession,
        emitted: u64,
    }
    impl ObsSink for Printer {
        fn ingest(&mut self, obs: &Obs) {
            for d in self.session.ingest(obs) {
                println!("{}", d.to_json().render());
                self.emitted += 1;
            }
        }
    }
    let mut p = Printer {
        session: SessionSpec::from_meta(r.meta()).build(),
        emitted: 0,
    };
    if let Err(e) = r.replay_into(&mut p) {
        eprintln!("error: journal {path} is damaged: {e}");
        std::process::exit(1);
    }
    println!("deltas   : {} emitted", p.emitted);
}

/// `journal send`: stream a journal to a running `mgd` daemon over the
/// mg-serve wire protocol and print the daemon's detection report — which
/// is byte-identical to `detect --replay` of the same file.
fn journal_send(path: &str, addr: &str, chunk: usize) {
    use std::io::Read;
    let r = open_journal_or_exit(path);
    let mut sock = match std::net::TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let sent = match serve::send_journal(&mut sock, &r, chunk) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: cannot send journal {path} to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let mut response = String::new();
    if let Err(e) = sock.read_to_string(&mut response) {
        eprintln!("error: no report from {addr}: {e}");
        std::process::exit(1);
    }
    println!("sent     : {sent} event(s) from {path} to {addr}");
    print!("{response}");
}

/// Streams `input` into `output` re-encoded as `format` — one event in
/// flight at a time, the journal is never materialized.
fn journal_transcode(input: &str, output: &str, format: JournalFormat) {
    let r = open_journal_or_exit(input);
    let mut w = JournalWriter::new(format, r.meta());
    for ev in r.events() {
        match ev {
            Ok(o) => w.push(&o),
            Err(e) => {
                eprintln!("error: journal {input} is damaged: {e}");
                std::process::exit(1);
            }
        }
    }
    let n = w.len();
    match w.save(std::path::Path::new(output)) {
        Ok(()) => println!("transcode: {n} events {input} -> {output} ({format} format)"),
        Err(e) => {
            eprintln!("error: cannot write journal to {output}: {e}");
            std::process::exit(1);
        }
    }
}

fn detect(o: DetectOpts) {
    if let Some(path) = o.replay.clone() {
        replay_detect(&o, &path);
        return;
    }
    if let Some(k) = o.quorum {
        quorum_detect(&o, k);
        return;
    }
    let random = o.random || o.mobile;
    let mut cfg = if o.mobile {
        ScenarioConfig::mobile_paper(o.seed, SimDuration::ZERO)
    } else if random {
        ScenarioConfig::random_paper(o.seed)
    } else {
        ScenarioConfig::grid_paper(o.seed)
    };
    cfg.sim_secs = o.secs;
    cfg.rate_pps = o.rate;

    let scenario = Scenario::new(cfg);
    let (attacker_node, vantage) = scenario.tagged_pair();
    println!(
        "scenario : {} nodes, {}, background {} pkt/s x {} sources",
        scenario.positions().len(),
        if o.mobile { "mobile (RWP 0-20 m/s)" } else { "static" },
        o.rate,
        cfg.source_count,
    );
    println!(
        "attacker : node {attacker_node} (PM = {}%), monitor: node {vantage}",
        o.pm
    );

    let d = scenario.positions()[attacker_node].distance(scenario.positions()[vantage]);
    let mut mc = if random {
        MonitorConfig::random_paper(attacker_node, vantage, d)
    } else {
        MonitorConfig::grid_paper(attacker_node, vantage, d)
    };
    if o.no_blatant {
        mc.blatant_check = false;
    }

    let mut builder = ScenarioBuilder::new(scenario);
    let attacker = builder.attacker(attacker_node);
    if o.mobile {
        // Under mobility, monitor from every candidate neighbor with
        // range-based handoff (the paper's Section 5 scheme).
        mc.eifs_weight = 0.0;
        mc.counts = NodeCounts::SimCalibrated;
    }
    let vantages: Vec<usize> = (0..builder.scenario().positions().len())
        .filter(|&v| v != attacker_node)
        .collect();
    // One world, one monitor per requested sample size: a multi-size
    // `--samples` list shares a single simulation instead of re-running it.
    let watches: Vec<(usize, MonitorHandle)> = o
        .samples
        .iter()
        .map(|&n| {
            let mc = mc.with_sample_size(n);
            let handle = if o.mobile {
                builder.monitor_pool(mc, &vantages)
            } else {
                builder.monitor(mc)
            };
            (n, handle)
        })
        .collect();
    builder.source(SourceCfg::saturated(attacker_node, vantage));
    if !o.faults.is_noop() {
        println!("faults   : {:?}", o.faults);
        builder.fault(o.faults.clone());
    }
    if o.trace.is_some() {
        builder.trace(TraceConfig::verbose());
    }
    if o.metrics {
        builder.metrics();
    }

    if let Some(path) = o.record.clone() {
        // The recorder watches the same vantage set as the monitors; the
        // journal header carries the world facts a --replay needs to
        // rebuild an equivalent monitor template.
        let kind = if o.mobile {
            "mobile"
        } else if random {
            "random"
        } else {
            "grid"
        };
        let meta = ObsMeta {
            tagged: attacker_node,
            vantages: if o.mobile { vantages.clone() } else { vec![vantage] },
            pair_distance: d,
            seed: o.seed,
            params: vec![
                ("kind".into(), kind.into()),
                ("pm".into(), o.pm.to_string()),
                ("rate".into(), o.rate.to_string()),
                ("secs".into(), o.secs.to_string()),
            ],
        };
        let mut world = builder.probe(ObsRecorder::new(meta)).build();
        run_and_report(&mut world, &o, attacker, attacker_node, &watches);
        save_recording(world.probe().journal(), &path, o.journal_format);
    } else {
        let mut world = builder.build();
        run_and_report(&mut world, &o, attacker, attacker_node, &watches);
    }
}
