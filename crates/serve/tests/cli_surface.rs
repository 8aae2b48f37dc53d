//! The command-line contract of `cim-serve` and `serve-bench`: `--help`
//! exits 0, lists each flag and runs nothing; an unknown flag exits 2
//! with an error naming it.

use std::process::Command;

const CIM_SERVE_FLAGS: &[&str] = &[
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

const SERVE_BENCH_FLAGS: &[&str] = &[
    "--requests",
    "--model",
    "--jobs",
    "--cache-dir",
    "--json",
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

fn check(tag: &str, exe: &str, flags: &[&str]) {
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
    assert!(
        !cwd.join("BENCH_serve.json").exists(),
        "{exe} --help ran the benchmark and wrote BENCH_serve.json"
    );

    let bad = Command::new(exe)
        .arg("--definitely-not-a-flag")
        .current_dir(&cwd)
        .output()
        .expect("spawns");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert_eq!(bad.status.code(), Some(2), "{exe}: {stderr}");
    assert!(
        stderr.contains("--definitely-not-a-flag"),
        "{exe}: {stderr}"
    );
    let left = std::fs::read_dir(&cwd).expect("cwd readable").count();
    assert_eq!(left, 0, "{exe} left files behind");
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn cim_serve_cli_surface() {
    check("daemon", env!("CARGO_BIN_EXE_cim-serve"), CIM_SERVE_FLAGS);
}

#[test]
fn serve_bench_cli_surface() {
    check(
        "bench",
        env!("CARGO_BIN_EXE_serve-bench"),
        SERVE_BENCH_FLAGS,
    );
}
