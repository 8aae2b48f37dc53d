//! The command-line contract of every `cim-bench` binary: `--help` exits
//! 0 and lists each flag the binary reads, and an unknown flag, a missing
//! or unknown operand, or an out-of-range value exits 2 with an error
//! naming it. Neither runs any work.

use std::process::Command;

/// Every binary with the flags its table must keep.
const BINARIES: &[(&str, &[&str])] = &[
    (env!("CARGO_BIN_EXE_table1"), &["--json"]),
    (env!("CARGO_BIN_EXE_table2"), &["--json", "--jobs"]),
    (env!("CARGO_BIN_EXE_fig5_minimal"), &["--jobs"]),
    (
        env!("CARGO_BIN_EXE_fig6"),
        &[
            "--part",
            "--json",
            "--jobs",
            "--cache-dir",
            "--shard",
            "--resume",
            "--fault-seed",
            "--fault-rate",
            "--fault-delay-ms",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_fig7"),
        &[
            "--json",
            "--jobs",
            "--cache-dir",
            "--shard",
            "--resume",
            "--fault-seed",
            "--fault-rate",
            "--fault-delay-ms",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_inspect"),
        &[
            "<model>",
            "--x",
            "--wdup",
            "--wdup-exact",
            "--lbl",
            "--sets",
            "--gantt",
            "--critical",
            "--json",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_lint-schedule"),
        &["<model>", "--x", "--wdup", "--lbl", "--sets", "--json"],
    ),
    (
        env!("CARGO_BIN_EXE_autotune"),
        &[
            "--model",
            "--space",
            "--strategy",
            "--budget",
            "--wall-secs",
            "--batch",
            "--seed",
            "--jobs",
            "--cache-dir",
            "--json",
            "--shard",
            "--resume",
            "--fault-seed",
            "--fault-rate",
            "--fault-delay-ms",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_fabric-sim"),
        &[
            "--tenants",
            "--stagger",
            "--seed",
            "--policy",
            "--bandwidth",
            "--capacity-pes",
            "--reload",
            "--extra-pes",
            "--jobs",
            "--json",
            "--mix-sweep",
            "--cache-dir",
            "--fault-seed",
            "--fault-rate",
            "--fault-delay-ms",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_ablation"),
        &["<study>", "--json", "--jobs"],
    ),
];

fn run(exe: &str, args: &[&str]) -> std::process::Output {
    Command::new(exe)
        .args(args)
        .output()
        .expect("binary spawns")
}

/// Asserts a usage error: exit 2, nothing on stdout, and each of
/// `needles` on stderr.
fn assert_usage_error(exe: &str, args: &[&str], needles: &[&str]) {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{exe} {args:?} ran work before rejecting its arguments"
    );
    for needle in needles {
        assert!(stderr.contains(needle), "{exe} {args:?}: {stderr}");
    }
}

#[test]
fn unknown_flag_exits_2_and_names_it() {
    for (exe, _) in BINARIES {
        assert_usage_error(
            exe,
            &["--definitely-not-a-flag"],
            &["--definitely-not-a-flag"],
        );
    }
    let fabric_sim = env!("CARGO_BIN_EXE_fabric-sim");
    assert_usage_error(fabric_sim, &["--bench"], &["unknown flag `--bench`"]);
}

#[test]
fn help_exits_0_and_lists_every_flag() {
    for (exe, flags) in BINARIES {
        let out = run(exe, &["--help"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{exe}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        for flag in *flags {
            assert!(
                stdout.contains(flag),
                "{exe} --help does not list {flag}:\n{stdout}"
            );
        }
        assert!(stdout.contains("--help"), "{exe}: {stdout}");
    }
}

#[test]
fn ablation_without_a_known_study_exits_2() {
    let exe = env!("CARGO_BIN_EXE_ablation");
    let studies = ["granularity", "duplication", "noc", "bitslice", "batching"];
    assert_usage_error(exe, &[], &studies);
    assert_usage_error(exe, &["--jobs", "1"], &["missing <study>"]);
    assert_usage_error(exe, &["bogus"], &studies);
    assert_usage_error(exe, &["bogus"], &["invalid <study> `bogus`"]);
}

#[test]
fn zero_sets_exits_2_before_any_work() {
    for exe in [
        env!("CARGO_BIN_EXE_inspect"),
        env!("CARGO_BIN_EXE_lint-schedule"),
    ] {
        let args = ["TinyYOLOv4", "--sets", "0"];
        assert_usage_error(exe, &args, &["--sets", "must be at least 1"]);
    }
}
