//! Command-line contract of `repro`: bad input prints a diagnostic on
//! stderr and exits 2 without running anything.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn unknown_figure_target_exits_2_and_lists_every_target() {
    let out = repro(&["figure", "fig99"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown target 'fig99'"), "{err}");
    for target in [
        "table1",
        "fig6",
        "fig18",
        "mapping",
        "faults",
        "generations",
        "all",
    ] {
        assert!(err.contains(target), "hint omits '{target}': {err}");
    }
}

#[test]
fn unknown_target_is_rejected_before_any_target_runs() {
    let out = repro(&["figure", "table1", "fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "table1 ran before the bad target was rejected"
    );
}

#[test]
fn unknown_command_and_no_command_exit_2() {
    for args in [&["fig7"][..], &[]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: repro"), "{err}");
    }
}
