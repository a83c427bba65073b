//! Command-line contract of `repro`: bad input prints a diagnostic on
//! stderr and exits 2 without running anything; `figure` prints its
//! paper checks.

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
        "ablations",
        "mapping",
        "faults",
        "generations",
        "pim",
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
fn figure_tables_print_their_paper_checks() {
    let out = repro(&["figure", "table1", "table2"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ok_rows = stdout.lines().filter(|l| l.starts_with("  [ok]")).count();
    assert_eq!(ok_rows, 4, "{stdout}");
}

#[test]
fn figure_rejects_json() {
    let path = std::env::temp_dir().join("repro-figure-json-rejected.json");
    let _ = std::fs::remove_file(&path);
    let out = repro(&[
        "figure",
        "table1",
        "--json",
        path.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("figure writes no JSON artifact"), "{err}");
    assert!(out.stdout.is_empty(), "table1 ran before the rejection");
    assert!(!path.exists(), "figure wrote {}", path.display());
}

/// Asserts that `args` print the usage and exit 2 without running.
fn assert_usage_exit_2(args: &[&str]) {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(2), "args {args:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage: repro"), "{err}");
    assert!(out.stdout.is_empty(), "{args:?} ran before the rejection");
}

#[test]
fn sanitize_extra_argument_exits_2() {
    assert_usage_exit_2(&["sanitize", "--bogus"]);
}

#[test]
fn faults_extra_argument_exits_2() {
    assert_usage_exit_2(&["faults", "noisy-link", "--bogus"]);
}

#[test]
fn unknown_command_and_no_command_exit_2() {
    for args in [&["fig7"][..], &[]] {
        assert_usage_exit_2(args);
    }
}

#[test]
fn openloop_cube_count_outside_1_to_8_exits_2() {
    for cubes in ["0", "9"] {
        let out = repro(&["openloop", "--quick", "--cubes", cubes]);
        assert_eq!(out.status.code(), Some(2), "--cubes {cubes}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--cubes must be in 1..=8"), "{err}");
        assert!(out.stdout.is_empty(), "--cubes {cubes} ran a sweep");
    }
}

#[test]
fn openloop_unknown_policy_exits_2() {
    let out = repro(&["openloop", "fastest-first"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown policy 'fastest-first'"), "{err}");
}

#[test]
fn openloop_unknown_fault_scenario_exits_2() {
    let out = repro(&["openloop", "--faults", "meteor-strike"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scenario 'meteor-strike'"), "{err}");
}

#[test]
fn faults_unknown_scenario_exits_2() {
    let out = repro(&["faults", "meteor-strike"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scenario 'meteor-strike'"), "{err}");
    assert!(out.stdout.is_empty(), "a scenario ran before the rejection");
}

#[test]
fn chain_zero_frame_span_exits_2() {
    let out = repro(&[
        "chain",
        "--cubes",
        "2",
        "--frame-us",
        "0",
        "--dashboard-headless",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--frame-us must be at least 1"), "{err}");
    assert!(
        out.stdout.is_empty(),
        "a dashboard ran before the rejection"
    );
}
