//! `mgd` — the detection daemon.
//!
//! ```text
//! mgd --listen ADDR [OPTIONS]           serve framed journal streams over TCP
//! mgd --journal FILE [--journal FILE..] serve journal files (one stream each)
//! mgd --stdin                           serve one binary journal from stdin
//!
//! options:
//!   --workers N        worker threads          [default: available parallelism]
//!   --queue-cap N      bounded queue capacity per worker  [default: 1024]
//!   --batch N          events per queue hand-off          [default: 256]
//!   --policy block|shed  full-queue behavior              [default: block]
//!   --samples N        rank-sum sample size override
//!   --quorum K         convict a node once K distinct streams flag it
//!   --deltas           print DiagnosisDelta JSONL to stdout
//! ```
//!
//! In socket mode the daemon prints `listening on HOST:PORT` (the *bound*
//! port — `--listen 127.0.0.1:0` picks a free one) and serves until
//! SIGTERM/SIGINT, then stops accepting, finishes in-flight connections,
//! drains every queue and exits 0 with a `shutdown :` summary line. Each
//! connection speaks the mg-serve wire protocol (length-prefixed binary
//! journal chunks, zero frame = end) and receives the plain-text detection
//! report — byte-identical to `detect --replay` of the same journal — as
//! the response.

use mg_obs::JournalReader;
use mg_serve::{serve_connection, Daemon, Policy, ServeConfig};
use std::io::Read;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
mgd: multi-stream back-off violation detection daemon

usage:
  mgd --listen HOST:PORT [--workers N] [--queue-cap N] [--batch N]
      [--policy block|shed] [--samples N] [--quorum K] [--deltas]
  mgd --journal FILE [--journal FILE ...] [options]
  mgd --stdin [options]
";

// Minimal raw signal hookup: the workspace is hermetic (no libc crate), and
// all the handler does is flip an AtomicBool — async-signal-safe.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

enum Mode {
    Listen(String),
    Files(Vec<String>),
    Stdin,
}

struct Opts {
    mode: Mode,
    cfg: ServeConfig,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut cfg = ServeConfig::default();
    let mut listen: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut use_stdin = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => listen = Some(raw_value(&mut it, a)?),
            "--journal" => files.push(raw_value(&mut it, a)?),
            "--stdin" => use_stdin = true,
            "--workers" => cfg.workers = parsed(&mut it, a)?,
            "--queue-cap" => cfg.queue_cap = parsed(&mut it, a)?,
            "--batch" => cfg.batch = parsed(&mut it, a)?,
            "--samples" => cfg.sample_size = Some(parsed(&mut it, a)?),
            "--quorum" => cfg.quorum = Some(parsed(&mut it, a)?),
            "--policy" => {
                let v = raw_value(&mut it, a)?;
                cfg.policy = Policy::parse(&v)
                    .ok_or_else(|| format!("invalid value for --policy: {v} (expected block or shed)"))?;
            }
            "--deltas" => cfg.deltas = true,
            other => return Err(format!("unrecognized argument: {other}")),
        }
    }
    if cfg.workers == 0 || cfg.queue_cap == 0 || cfg.batch == 0 {
        return Err("--workers, --queue-cap and --batch must be at least 1".into());
    }
    if cfg.sample_size == Some(0) {
        return Err("--samples must be at least 1".into());
    }
    if cfg.quorum == Some(0) {
        return Err("--quorum must be at least 1".into());
    }
    let mode = match (listen, files.is_empty(), use_stdin) {
        (Some(addr), true, false) => Mode::Listen(addr),
        (None, false, false) => Mode::Files(files),
        (None, true, true) => Mode::Stdin,
        (None, true, false) => return Err("one of --listen, --journal or --stdin is required".into()),
        _ => return Err("--listen, --journal and --stdin are mutually exclusive".into()),
    };
    Ok(Opts { mode, cfg })
}

fn raw_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    match it.next() {
        Some(v) if !v.starts_with("--") => Ok(v.clone()),
        _ => Err(format!("{flag} requires a value")),
    }
}

fn parsed<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    let v = raw_value(it, flag)?;
    v.parse()
        .map_err(|_| format!("invalid value for {flag}: {v}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    let delta_out: Option<Box<dyn std::io::Write + Send>> = if opts.cfg.deltas {
        Some(Box::new(std::io::stdout()))
    } else {
        None
    };
    let daemon = Daemon::start(opts.cfg, delta_out);
    // The resolved count (the default tracks the host's parallelism).
    println!("workers  : {} worker thread(s)", daemon.config().workers);
    match opts.mode {
        Mode::Listen(addr) => listen(&addr, daemon),
        Mode::Files(files) => serve_files(&files, daemon),
        Mode::Stdin => serve_stdin(daemon),
    }
}

fn report_shutdown(daemon: Daemon) {
    // Every stream of interest has closed by now (closes are synchronous),
    // so the quorum tally is final.
    if let Some(lines) = daemon.quorum_report() {
        print!("{lines}");
    }
    // `shutdown` blocks until every worker has drained its queue and
    // exited; reaching the print *is* the drain proof.
    let stats = daemon.shutdown();
    println!(
        "shutdown : {} stream(s), {} event(s), {} delta(s), {} dropped, {} abandoned, queues drained",
        stats.streams, stats.events, stats.deltas, stats.dropped, stats.abandoned
    );
}

fn serve_files(files: &[String], daemon: Daemon) {
    for path in files {
        let reader = match JournalReader::open(std::path::Path::new(path)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: cannot load journal from {path}: {e}");
                std::process::exit(1);
            }
        };
        serve_reader(&reader, path, &daemon);
    }
    report_shutdown(daemon);
}

fn serve_stdin(daemon: Daemon) {
    let mut bytes = Vec::new();
    if let Err(e) = std::io::stdin().lock().read_to_end(&mut bytes) {
        eprintln!("error: cannot read stdin: {e}");
        std::process::exit(1);
    }
    let reader = match JournalReader::from_bytes(bytes) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: stdin is not a journal: {e}");
            std::process::exit(1);
        }
    };
    serve_reader(&reader, "<stdin>", &daemon);
    report_shutdown(daemon);
}

fn serve_reader(reader: &JournalReader, label: &str, daemon: &Daemon) {
    let mut stream = daemon.open(reader.meta().clone());
    let id = stream.stream_id();
    for ev in reader.events() {
        match ev {
            Ok(o) => stream.push(o),
            Err(e) => {
                eprintln!("error: journal {label} is damaged: {e}");
                std::process::exit(1);
            }
        }
    }
    let Some(report) = stream.close() else {
        eprintln!("error: daemon lost stream #{id}");
        std::process::exit(1);
    };
    println!(
        "stream   : #{id} {label} ({} event(s), {} dropped)",
        report.events, report.dropped
    );
    print!("{}", report.report);
}

fn listen(addr: &str, daemon: Daemon) {
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
        signal(SIGINT, on_term as *const () as usize);
    }
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let bound = listener.local_addr().expect("bound listener has an address");
    println!("listening on {bound}");
    // The gate script parses the line above before sending journals.
    use std::io::Write;
    let _ = std::io::stdout().flush();
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");

    let daemon = Arc::new(daemon);
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !TERM.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((sock, peer)) => {
                let daemon = daemon.clone();
                handlers.push(std::thread::spawn(move || {
                    let mut sock = sock;
                    // A wedged peer must not block SIGTERM drain forever.
                    let _ = sock.set_read_timeout(Some(Duration::from_secs(30)));
                    let _ = sock.set_nodelay(true);
                    match serve_connection(&mut sock, &daemon) {
                        Ok(Some(report)) => println!(
                            "stream   : #{} from {peer} ({} event(s), {} dropped)",
                            report.stream, report.events, report.dropped
                        ),
                        Ok(None) => eprintln!("warn: {peer} sent no frames"),
                        Err(e) => eprintln!("warn: stream from {peer} failed: {e}"),
                    }
                }));
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                eprintln!("error: accept failed: {e}");
                break;
            }
        }
    }
    drop(listener);
    for h in handlers {
        let _ = h.join();
    }
    let daemon = Arc::try_unwrap(daemon)
        .unwrap_or_else(|_| unreachable!("all connection handlers joined"));
    report_shutdown(daemon);
}
