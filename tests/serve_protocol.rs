//! End-to-end daemon protocol suite: a real `cim-serve` daemon in a
//! *separate process* (this test binary re-executed, filtered down to
//! [`child_serve_daemon`]), driven over its Unix socket by [`Client`].
//!
//! The central property: replaying the same request stream against a
//! cold daemon and then a fresh warm daemon sharing the same
//! `--cache-dir` produces **byte-identical** reply lines, with the warm
//! generation answering from the persistent store.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use clsa_cim::serve::{
    Client, Daemon, DaemonOptions, EngineOptions, ErrorCode, Op, Request, Response,
    ResponseBody, StatsSnapshot,
};

const SOCKET_ENV: &str = "CIM_SERVE_IT_SOCKET";
const CACHE_ENV: &str = "CIM_SERVE_IT_CACHE";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cim_serve_it_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Not a test of its own: becomes the *daemon process* when the parent
/// re-executes this test binary with [`SOCKET_ENV`] set. In a normal
/// `cargo test` run (env unset) it is a no-op.
#[test]
fn child_serve_daemon() {
    let Ok(socket) = std::env::var(SOCKET_ENV) else {
        return;
    };
    let daemon = Daemon::bind(DaemonOptions {
        engine: EngineOptions {
            jobs: 2,
            max_queue: 64,
            tenant_quota: None,
        },
        cache_dir: std::env::var(CACHE_ENV).ok().map(PathBuf::from),
        ..DaemonOptions::at(PathBuf::from(socket))
    })
    .expect("daemon binds");
    daemon.run().expect("daemon runs to shutdown");
}

fn spawn_daemon(socket: &Path, cache: Option<&Path>) -> Child {
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.args(["child_serve_daemon", "--exact", "--test-threads=1"])
        .env(SOCKET_ENV, socket)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(cache) = cache {
        cmd.env(CACHE_ENV, cache);
    }
    cmd.spawn().expect("daemon child spawns")
}

/// Polls until the daemon's socket accepts — the child needs a moment to
/// re-exec and bind.
fn connect(socket: &Path) -> Client {
    for _ in 0..1000 {
        if let Ok(client) = Client::connect_unix(socket) {
            return client;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("daemon at {} never became connectable", socket.display());
}

/// The request stream both generations replay: all four strategies plus
/// one happens-after-tagged request.
fn request_lines() -> Vec<String> {
    [
        Request::schedule("r0", "fig5", "layer-by-layer", 0),
        Request::schedule("r1", "fig5", "xinf", 0),
        Request::schedule("r2", "fig5", "wdup", 1),
        Request::schedule("r3", "fig5", "wdup+xinf", 1),
        Request {
            after: vec!["r1".into()],
            ..Request::schedule("r4", "fig5", "xinf", 0)
        },
    ]
    .iter()
    .map(|r| serde_json::to_string(r).expect("requests serialize"))
    .collect()
}

/// One daemon generation: spawn the child, replay `lines`, fetch stats,
/// shut down, reap. Returns the raw reply lines plus the final snapshot.
fn generation(socket: &Path, cache: &Path) -> (Vec<String>, StatsSnapshot) {
    let mut child = spawn_daemon(socket, Some(cache));
    let mut client = connect(socket);
    let replies: Vec<String> = request_lines()
        .iter()
        .map(|line| client.request_line(line).expect("request answered"))
        .collect();
    let stats = client
        .request(&Request::bare("stats", Op::Stats))
        .expect("stats answered")
        .as_stats()
        .expect("stats body")
        .clone();
    let ack = client
        .request(&Request::bare("bye", Op::Shutdown))
        .expect("shutdown acknowledged");
    assert!(matches!(ack.body, ResponseBody::Shutdown), "got {ack:?}");
    let status = child.wait().expect("child waited");
    assert!(status.success(), "daemon process failed: {status:?}");
    (replies, stats)
}

#[test]
fn daemon_cold_then_warm_is_byte_identical() {
    let dir = tmp_dir("coldwarm");
    let cache = dir.join("store");

    let (cold_replies, cold_stats) = generation(&dir.join("cold.sock"), &cache);
    let (warm_replies, warm_stats) = generation(&dir.join("warm.sock"), &cache);

    assert_eq!(
        cold_replies, warm_replies,
        "warm replies must be byte-identical to the cold generation's"
    );

    // Cold generation computed everything.
    assert_eq!(cold_stats.ok, 5, "cold stats: {cold_stats:?}");
    assert_eq!(cold_stats.errors, 0, "cold stats: {cold_stats:?}");
    assert_eq!(cold_stats.warm_store, 0, "cold stats: {cold_stats:?}");

    // Warm generation answered the untagged requests straight from the
    // store; the tagged r4 still dispatched (happens-after) but resolved
    // to a store hit instead of recomputing.
    assert_eq!(warm_stats.warm_store, 4, "warm stats: {warm_stats:?}");
    assert_eq!(warm_stats.ok, 5, "warm stats: {warm_stats:?}");
    assert_eq!(warm_stats.errors, 0, "warm stats: {warm_stats:?}");
    assert!(
        warm_stats.store_hits >= 5,
        "every warm answer is a store hit: {warm_stats:?}"
    );

    // The replies themselves are well-formed and carry the contract.
    let parsed: Vec<Response> = cold_replies
        .iter()
        .map(|line| serde_json::from_str(line).expect("reply parses"))
        .collect();
    for (i, resp) in parsed.iter().enumerate() {
        assert_eq!(resp.id, format!("r{i}"));
        let reply = resp.as_schedule().unwrap_or_else(|| panic!("r{i} ok: {resp:?}"));
        assert!(reply.makespan_cycles > 0);
        assert_eq!(reply.makespan_ns, reply.makespan_cycles * 1400, "t_MVM = 1400 ns");
    }
    assert_eq!(
        parsed[4].as_schedule().expect("r4 ok").observed,
        vec!["r1".to_string()],
        "r4 observed its happens-after dependency"
    );
    // r1 and r4 share a configuration — identical payload bytes modulo
    // the echoed id and the observed tags.
    assert_eq!(
        parsed[1].as_schedule().expect("r1").makespan_cycles,
        parsed[4].as_schedule().expect("r4").makespan_cycles,
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn daemon_answers_typed_errors_and_ping_over_the_wire() {
    let dir = tmp_dir("errors");
    let socket = dir.join("daemon.sock");
    let mut child = spawn_daemon(&socket, None);
    let mut client = connect(&socket);

    // An unparseable line gets a typed bad_request with an empty id —
    // the connection stays usable afterwards.
    let raw = client
        .request_line("this is not json")
        .expect("garbage answered");
    let resp: Response = serde_json::from_str(&raw).expect("error reply parses");
    assert_eq!(resp.id, "");
    assert_eq!(resp.as_error().expect("typed").code, ErrorCode::BadRequest);

    let unknown_model = client
        .request(&Request::schedule("e1", "not-a-model", "xinf", 0))
        .expect("answered");
    assert_eq!(
        unknown_model.as_error().expect("typed").code,
        ErrorCode::UnknownModel
    );

    let unknown_strategy = client
        .request(&Request::schedule("e2", "fig5", "sideways", 0))
        .expect("answered");
    assert_eq!(
        unknown_strategy.as_error().expect("typed").code,
        ErrorCode::UnknownStrategy
    );

    let pong = client
        .request(&Request::bare("p1", Op::Ping))
        .expect("answered");
    assert_eq!(pong.id, "p1");
    assert!(matches!(pong.body, ResponseBody::Pong), "got {pong:?}");

    let stats = client
        .request(&Request::bare("s1", Op::Stats))
        .expect("answered")
        .as_stats()
        .expect("stats body")
        .clone();
    assert_eq!(stats.submitted, 2, "only parseable schedule requests count");
    assert_eq!(stats.errors, 2, "both rejections typed and counted");

    let ack = client
        .request(&Request::bare("bye", Op::Shutdown))
        .expect("answered");
    assert!(matches!(ack.body, ResponseBody::Shutdown));
    let status = child.wait().expect("child waited");
    assert!(status.success(), "daemon process failed: {status:?}");
    let _ = fs::remove_dir_all(&dir);
}

/// The `--tcp` transport speaks the same protocol as the Unix socket:
/// one `schedule` request answered over TCP is byte-identical to the
/// same request answered over the Unix socket. Request ids are unique
/// per daemon, so each transport gets its own fresh in-process daemon.
#[test]
fn tcp_reply_matches_the_unix_socket_reply() {
    let dir = tmp_dir("tcp");
    let line = serde_json::to_string(&Request::schedule("t1", "fig5", "wdup+xinf", 1))
        .expect("request serializes");
    // Asks `line`, then shuts the daemon down over the same connection.
    let ask = |mut client: Client| {
        let reply = client.request_line(&line).expect("schedule answered");
        let ack = client
            .request(&Request::bare("bye", Op::Shutdown))
            .expect("shutdown answered");
        assert!(matches!(ack.body, ResponseBody::Shutdown), "got {ack:?}");
        reply
    };

    let socket = dir.join("unix.sock");
    let daemon = Daemon::bind(DaemonOptions::at(&socket)).expect("unix daemon binds");
    let server = std::thread::spawn(move || daemon.run());
    let via_unix = ask(connect(&socket));
    server.join().expect("daemon thread").expect("daemon runs to shutdown");

    let daemon = Daemon::bind(DaemonOptions {
        tcp: Some("127.0.0.1:0".into()),
        ..DaemonOptions::at(dir.join("tcp.sock"))
    })
    .expect("tcp daemon binds");
    let addr = daemon.tcp_addr().expect("tcp listener bound");
    let server = std::thread::spawn(move || daemon.run());
    let via_tcp = ask(Client::connect_tcp(addr).expect("tcp connects"));
    server.join().expect("daemon thread").expect("daemon runs to shutdown");

    let reply: Response = serde_json::from_str(&via_tcp).expect("reply parses");
    assert!(reply.as_error().is_none(), "schedule failed: {via_tcp}");
    assert_eq!(via_tcp, via_unix, "the transport must not change the reply bytes");
    let _ = fs::remove_dir_all(&dir);
}
