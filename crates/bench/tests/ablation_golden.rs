//! Byte-exact regression suite for the five `ablation` studies: each runs
//! as `ablation <study> --jobs N --json <tmp>` at `--jobs 1` and at
//! `--jobs 2`, and both exports must equal the committed
//! `tests/golden/ablation_<study>.json` at the workspace root. The
//! outputs do not depend on `--jobs` or the build profile.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn assert_matches_golden(study: &str) {
    let name = format!("ablation_{study}");
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("{name}.json"));
    let golden = fs::read_to_string(&golden).expect("committed golden readable");
    for jobs in ["1", "2"] {
        let dir = std::env::temp_dir().join(format!(
            "cim_ablation_golden_{study}_j{jobs}_{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let out = dir.join(format!("{name}.json"));
        let run = Command::new(env!("CARGO_BIN_EXE_ablation"))
            .args([study, "--jobs", jobs, "--json"])
            .arg(&out)
            .output()
            .expect("ablation binary spawns");
        assert!(
            run.status.success(),
            "ablation {study} --jobs {jobs} exited with {}: {}",
            run.status,
            String::from_utf8_lossy(&run.stderr)
        );
        let actual = fs::read_to_string(&out).expect("ablation wrote its --json export");
        assert!(
            actual == golden,
            "ablation {study} --jobs {jobs} drifted from tests/golden/{name}.json"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn ablation_batching_matches_golden() {
    assert_matches_golden("batching");
}

#[test]
fn ablation_bitslice_matches_golden() {
    assert_matches_golden("bitslice");
}

#[test]
fn ablation_duplication_matches_golden() {
    assert_matches_golden("duplication");
}

#[test]
fn ablation_granularity_matches_golden() {
    assert_matches_golden("granularity");
}

#[test]
fn ablation_noc_matches_golden() {
    assert_matches_golden("noc");
}
