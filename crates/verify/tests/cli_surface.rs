//! `cim-lint` accepts exactly `--root`, `--interleave`, `--list-rules`,
//! `--json` and `--help`; anything else is a usage error (exit 2).

use std::process::Command;

fn cim_lint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cim-lint"))
        .args(args)
        .output()
        .expect("cim-lint spawns")
}

#[test]
fn unknown_argument_exits_2_even_beside_list_rules() {
    let out = cim_lint(&["--bogus", "--list-rules"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bogus"));
    assert!(
        out.stdout.is_empty(),
        "no rule table before the usage error"
    );

    let missing = cim_lint(&["--root"]);
    assert_eq!(missing.status.code(), Some(2));
}

#[test]
fn help_and_list_rules_exit_0() {
    let help = cim_lint(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&help.stdout);
    for flag in ["--root", "--interleave", "--list-rules", "--json"] {
        assert!(usage.contains(flag), "usage lacks {flag}: {usage}");
    }
    assert_eq!(cim_lint(&["--list-rules"]).status.code(), Some(0));
}
