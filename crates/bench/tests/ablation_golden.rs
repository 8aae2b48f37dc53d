//! Byte-exact regression suite for the five `ablation_*` binaries: each
//! runs with `--jobs 2 --json <tmp>` and its export must equal the
//! committed `tests/golden/ablation_<name>.json` at the workspace root.
//! The outputs do not depend on `--jobs` or the build profile.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn assert_matches_golden(name: &str, exe: &str) {
    let dir = std::env::temp_dir().join(format!("cim_ablation_golden_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let out = dir.join(format!("{name}.json"));
    let run = Command::new(exe)
        .args(["--jobs", "2", "--json"])
        .arg(&out)
        .output()
        .expect("ablation binary spawns");
    assert!(
        run.status.success(),
        "{name} exited with {}: {}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );

    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("{name}.json"));
    let golden = fs::read_to_string(&golden).expect("committed golden readable");
    let actual = fs::read_to_string(&out).expect("ablation wrote its --json export");
    assert!(actual == golden, "{name} drifted from tests/golden/{name}.json");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn ablation_batching_matches_golden() {
    assert_matches_golden("ablation_batching", env!("CARGO_BIN_EXE_ablation_batching"));
}

#[test]
fn ablation_bitslice_matches_golden() {
    assert_matches_golden("ablation_bitslice", env!("CARGO_BIN_EXE_ablation_bitslice"));
}

#[test]
fn ablation_duplication_matches_golden() {
    assert_matches_golden("ablation_duplication", env!("CARGO_BIN_EXE_ablation_duplication"));
}

#[test]
fn ablation_granularity_matches_golden() {
    assert_matches_golden("ablation_granularity", env!("CARGO_BIN_EXE_ablation_granularity"));
}

#[test]
fn ablation_noc_matches_golden() {
    assert_matches_golden("ablation_noc", env!("CARGO_BIN_EXE_ablation_noc"));
}
