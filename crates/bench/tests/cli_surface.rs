//! The command-line contract of every `cim-bench` binary: `--help` exits
//! 0 and lists each flag the binary reads, and an unknown flag exits 2
//! with an error naming it. Neither runs any work.

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
            "--bench",
            "--mix-sweep",
            "--cache-dir",
            "--fault-seed",
            "--fault-rate",
            "--fault-delay-ms",
        ],
    ),
    (
        env!("CARGO_BIN_EXE_ablation_batching"),
        &["--json", "--jobs"],
    ),
    (
        env!("CARGO_BIN_EXE_ablation_bitslice"),
        &["--json", "--jobs"],
    ),
    (
        env!("CARGO_BIN_EXE_ablation_duplication"),
        &["--json", "--jobs"],
    ),
    (
        env!("CARGO_BIN_EXE_ablation_granularity"),
        &["--json", "--jobs"],
    ),
    (env!("CARGO_BIN_EXE_ablation_noc"), &["--json", "--jobs"]),
];

fn run(exe: &str, arg: &str) -> std::process::Output {
    Command::new(exe).arg(arg).output().expect("binary spawns")
}

#[test]
fn unknown_flag_exits_2_and_names_it() {
    for (exe, _) in BINARIES {
        let out = run(exe, "--definitely-not-a-flag");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe}: {stderr}");
        assert!(
            stderr.contains("--definitely-not-a-flag"),
            "{exe}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{exe} ran work before rejecting its flags"
        );
    }
}

#[test]
fn help_exits_0_and_lists_every_flag() {
    for (exe, flags) in BINARIES {
        let out = run(exe, "--help");
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
