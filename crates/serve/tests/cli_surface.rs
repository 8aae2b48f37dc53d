//! The command-line contract of `cim-serve` and `serve-bench`: `--help`
//! exits 0, lists each flag and runs nothing; an unknown flag (and, for
//! `serve-bench`, a missing `--connect`) exits 2 with an error naming it;
//! a pass the daemon answers with errors exits 1 without panicking.

use std::process::{Command, Stdio};

const DAEMON_FLAGS: &[&str] = &[
    "--socket",
    "--tcp",
    "--max-queue",
    "--tenant-quota",
    "--jobs",
    "--cache-dir",
    "--read-timeout-ms",
    "--max-line-bytes",
    "--fault-seed",
    "--fault-rate",
    "--fault-delay-ms",
];

const DRIVER_FLAGS: &[&str] = &[
    "--requests",
    "--model",
    "--connect",
    "--replies",
    "--shutdown",
];

/// A fresh, empty working directory, so a binary that wrongly runs its
/// work leaves evidence behind.
fn scratch_cwd(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cim_serve_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `exe --help` and each rejected argument list (with the text its
/// error must name) in an empty directory.
fn check(tag: &str, exe: &str, flags: &[&str], rejected: &[(&[&str], &str)]) {
    let cwd = scratch_cwd(tag);
    let help = Command::new(exe)
        .arg("--help")
        .current_dir(&cwd)
        .output()
        .expect("spawns");
    let stdout = String::from_utf8_lossy(&help.stdout);
    assert_eq!(
        help.status.code(),
        Some(0),
        "{exe}: {}",
        String::from_utf8_lossy(&help.stderr)
    );
    for flag in flags {
        assert!(
            stdout.contains(flag),
            "{exe} --help does not list {flag}:\n{stdout}"
        );
    }

    for (args, named) in rejected {
        let bad = Command::new(exe)
            .args(*args)
            .current_dir(&cwd)
            .output()
            .expect("spawns");
        let stderr = String::from_utf8_lossy(&bad.stderr);
        assert_eq!(bad.status.code(), Some(2), "{exe} {args:?}: {stderr}");
        assert!(stderr.contains(named), "{exe} {args:?}: {stderr}");
    }
    let left = std::fs::read_dir(&cwd).expect("cwd readable").count();
    assert_eq!(left, 0, "{exe} left files behind");
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn cim_serve_cli_surface() {
    check(
        "daemon",
        env!("CARGO_BIN_EXE_cim-serve"),
        DAEMON_FLAGS,
        &[(&["--definitely-not-a-flag"], "--definitely-not-a-flag")],
    );
}

#[test]
fn serve_bench_cli_surface() {
    check(
        "bench",
        env!("CARGO_BIN_EXE_serve-bench"),
        DRIVER_FLAGS,
        &[
            (&["--definitely-not-a-flag"], "--definitely-not-a-flag"),
            (&["--json", "x"], "--json"),
            (&[], "missing --connect"),
        ],
    );
}

#[test]
fn serve_bench_exits_1_when_the_daemon_answers_with_errors() {
    let cwd = scratch_cwd("errors");
    let socket = cwd.join("cim.sock");
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_cim-serve"))
        .arg("--socket")
        .arg(&socket)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let bench = Command::new(env!("CARGO_BIN_EXE_serve-bench"))
        .arg("--connect")
        .arg(&socket)
        .args(["--model", "nosuch", "--requests", "2", "--shutdown"])
        .output()
        .expect("serve-bench spawns");
    let stderr = String::from_utf8_lossy(&bench.stderr);
    let reported = stderr.contains("serve-bench: 2 of 2 requests failed");
    // A pass that got as far as the error report also sent --shutdown;
    // any other outcome leaves the daemon running.
    if !reported {
        let _ = daemon.kill();
    }
    let _ = daemon.wait();
    assert_eq!(bench.status.code(), Some(1), "serve-bench: {stderr}");
    assert!(reported, "serve-bench: {stderr}");
    let _ = std::fs::remove_dir_all(&cwd);
}
