//! Workspace discovery: find the root, enumerate `.rs` files, classify
//! them, and run the lint over everything.
//!
//! The walk deliberately excludes `vendor/` — the offline stand-ins mirror
//! *external* crates' public APIs (`rand`, `proptest`, `parking_lot`, …),
//! which legitimately use wall clocks and hash maps; the determinism
//! contract this linter enforces is about the workspace's own code. It
//! also skips `target/` and dot-directories.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{lint_source, Diagnostic, FileKind};

/// Ascends from `start` to the first directory that looks like the
/// workspace root (has both a `Cargo.toml` and a `crates/` directory).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Classifies a workspace-relative path. `None` means the file is out of
/// scope (not Rust, vendored, generated).
pub fn classify(rel: &Path) -> Option<FileKind> {
    if rel.extension().and_then(|e| e.to_str()) != Some("rs") {
        return None;
    }
    let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    if parts
        .iter()
        .any(|p| *p == "vendor" || *p == "target" || p.starts_with('.'))
    {
        return None;
    }
    if parts.iter().any(|p| *p == "tests" || *p == "benches") {
        return Some(FileKind::TestOrBench);
    }
    if parts.contains(&"examples") {
        return Some(FileKind::Example);
    }
    if parts.windows(2).any(|w| w == ["src", "bin"]) {
        return Some(FileKind::Bin);
    }
    if parts.windows(2).any(|w| w == ["src", "lib.rs"]) {
        return Some(FileKind::LibRoot);
    }
    if parts.contains(&"src") {
        return Some(FileKind::Lib);
    }
    // Stray root-level .rs files (build scripts would land here).
    Some(FileKind::Bin)
}

/// Enumerates every in-scope `.rs` file under `root`, sorted by relative
/// path so diagnostics (and the binary's exit report) are deterministic.
///
/// # Errors
///
/// Propagates directory-walk I/O failures.
pub fn workspace_rs_files(root: &Path) -> io::Result<Vec<(PathBuf, FileKind)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with('.') || name == "vendor" || name == "target" {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if let Ok(rel) = path.strip_prefix(root) {
                if let Some(kind) = classify(rel) {
                    out.push((rel.to_path_buf(), kind));
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every in-scope file under `root`, returning all diagnostics
/// sorted by `(file, line, col)`.
///
/// # Errors
///
/// Propagates I/O failures reading the tree.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for (rel, kind) in workspace_rs_files(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        out.extend(lint_source(&rel_str, kind, &src));
    }
    out.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_layout() {
        let cases = [
            ("crates/core/src/lib.rs", Some(FileKind::LibRoot)),
            ("crates/core/src/schedule.rs", Some(FileKind::Lib)),
            ("src/lib.rs", Some(FileKind::LibRoot)),
            ("crates/bench/src/bin/fig6.rs", Some(FileKind::Bin)),
            ("crates/bench/benches/schedule_core.rs", Some(FileKind::TestOrBench)),
            ("tests/golden_artifacts.rs", Some(FileKind::TestOrBench)),
            ("examples/quickstart.rs", Some(FileKind::Example)),
            ("vendor/serde/src/lib.rs", None),
            ("target/debug/build/x.rs", None),
            ("README.md", None),
        ];
        for (path, expected) in cases {
            assert_eq!(classify(Path::new(path)), expected, "{path}");
        }
    }

    #[test]
    fn root_discovery_ascends() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root exists");
        assert!(root.join("crates").is_dir());
        assert!(root.join("Cargo.toml").is_file());
    }
}
