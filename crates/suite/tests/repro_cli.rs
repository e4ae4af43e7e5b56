//! Argument handling of the `repro` command-line tool.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn what_a_command_does_not_read_exits_2_naming_it() {
    let ok = repro(&["dot", "figure1"]);
    assert!(ok.status.success());
    assert!(String::from_utf8_lossy(&ok.stdout).starts_with("digraph"));

    for (args, want) in [
        (
            &["dot", "figure1", "--bogus-flag", "7"][..],
            "unknown flag --bogus-flag for `dot`",
        ),
        (
            &["dot", "figure1", "--budget-ms", "5"],
            "unknown flag --budget-ms",
        ),
        (&["dot", "figure1", "extra"], "unexpected argument `extra`"),
        (
            &["row", "Biostat", "--bogus-flag", "7"],
            "unknown flag --bogus-flag",
        ),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing is printed");
    }
}
