//! `serve-bench` — client driver measuring one pass against a running
//! daemon.
//!
//! ```text
//! serve-bench --connect <socket> [--requests <n>] [--model <name>]
//!             [--replies <path>] [--shutdown]
//! ```
//!
//! Sends `--requests` schedule requests to the daemon listening on
//! `<socket>`, prints the sustained rate with the daemon's p50/p99 and
//! warm-hit counts, optionally dumps the raw reply lines for
//! byte-comparison, and optionally shuts the daemon down afterwards. A
//! pass in which the daemon reports errors exits 1.
//!
//! `--help` lists the flags and runs nothing; a missing `--connect`, any
//! other argument or a malformed value exits 2.

use std::io;
use std::path::Path;
use std::time::Duration;

use cim_bench::cli::{self, Flag, UsageError};
use cim_serve::{Client, Op, Request, RetryPolicy, StatsSnapshot};
use cim_tune::{Clock, SystemClock};

const FLAGS: &[Flag] = &[
    Flag::value("--requests", "n", "requests per pass (default 24)"),
    Flag::value("--model", "name", "model to schedule (default fig5)"),
    Flag::value("--connect", "socket", "the daemon to drive (required)"),
    Flag::value("--replies", "path", "dump the raw reply lines"),
    Flag::switch("--shutdown", "stop the daemon after the pass"),
];

/// The request list of one pass: `n` requests cycling over the four
/// strategies and two duplication budgets (6 distinct keys).
fn request_lines(n: usize, model: &str) -> Vec<String> {
    let strategies = ["layer-by-layer", "xinf", "wdup", "wdup+xinf"];
    (0..n)
        .map(|i| {
            let strategy = strategies[i % strategies.len()];
            let x = if strategy.starts_with("wdup") { 1 + (i / 4) % 2 } else { 0 };
            let req = Request::schedule(&format!("req-{i}"), model, strategy, x);
            serde_json::to_string(&req).expect("requests serialize")
        })
        .collect()
}

struct PassResult {
    replies: Vec<String>,
    stats: StatsSnapshot,
    elapsed: Duration,
}

/// Sends every line, collects raw replies, fetches stats, optionally
/// shuts the daemon down. I/O and protocol failures surface as typed
/// errors instead of panics; the typed control requests ride the
/// client's seeded retry loop, so a load-shedding or briefly wedged
/// daemon doesn't abort the whole pass.
fn drive(client: &mut Client, lines: &[String], shutdown: bool) -> io::Result<PassResult> {
    let retry = RetryPolicy::default();
    let clock = SystemClock::new();
    let mut replies = Vec::with_capacity(lines.len());
    for line in lines {
        replies.push(client.request_line(line)?);
    }
    let elapsed = clock.now();
    let stats_resp = client.request_with_retry(&Request::bare("bench-stats", Op::Stats), &retry)?;
    let stats = stats_resp
        .as_stats()
        .ok_or_else(|| io::Error::other(format!("stats reply carried no snapshot: {stats_resp:?}")))?
        .clone();
    if shutdown {
        let ack = client.request(&Request::bare("bench-shutdown", Op::Shutdown))?;
        if !matches!(ack.body, cim_serve::ResponseBody::Shutdown) {
            return Err(io::Error::other(format!(
                "shutdown not acknowledged, got {ack:?}"
            )));
        }
    }
    Ok(PassResult {
        replies,
        stats,
        elapsed,
    })
}

fn rps(n: usize, elapsed: Duration) -> f64 {
    if elapsed > Duration::ZERO {
        n as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    }
}

fn connect_with_retry(socket: &Path) -> io::Result<Client> {
    for _ in 0..200 {
        if let Ok(client) = Client::connect_unix(socket) {
            return Ok(client);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err(io::Error::new(
        io::ErrorKind::TimedOut,
        format!("daemon at {} never became connectable", socket.display()),
    ))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("serve-bench: {e}");
        std::process::exit(1);
    }
}

fn run() -> io::Result<()> {
    let flags = cli::parse_env(FLAGS);
    let missing = UsageError::Missing("--connect");
    let socket = flags.check(flags.value("--connect").ok_or(missing));
    let requests: usize = flags.check(flags.get("--requests")).unwrap_or(24);
    let model = flags.value("--model").unwrap_or("fig5");
    let lines = request_lines(requests, model);

    // Retry the connect: CI starts the daemon in the background and
    // races it.
    let mut client = connect_with_retry(Path::new(socket))?;
    let pass = drive(&mut client, &lines, flags.switch("--shutdown"))?;
    if let Some(path) = flags.value("--replies") {
        std::fs::write(path, pass.replies.join("\n") + "\n")
            .map_err(|e| io::Error::other(format!("write {path}: {e}")))?;
    }
    if pass.stats.errors != 0 {
        return Err(io::Error::other(format!(
            "{} of {requests} requests failed, stats: {:?}",
            pass.stats.errors, pass.stats
        )));
    }
    println!(
        "serve-bench: {} requests in {:?} ({:.1} req/s), p50 {} ns, p99 {} ns, warm {} store + {} cache",
        requests,
        pass.elapsed,
        rps(requests, pass.elapsed),
        pass.stats.p50_ns,
        pass.stats.p99_ns,
        pass.stats.warm_store,
        pass.stats.warm_cache,
    );
    Ok(())
}
