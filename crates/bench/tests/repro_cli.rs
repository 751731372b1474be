//! `repro`'s argument errors: each prints the usage and exits 2 before any
//! figure runs, so none of these tests simulates anything.

use std::process::Command;

/// Runs `repro` with `args` and asserts that it exits 2 with the usage.
fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}:\n{stderr}");
    assert!(stderr.starts_with("usage: repro"), "{args:?}:\n{stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn two_names_are_a_usage_error() {
    assert_usage_error(&["fig_rowhammer", "table1_platforms"]);
    assert_usage_error(&["all", "all"]);
}

#[test]
fn an_unknown_or_missing_name_is_a_usage_error() {
    assert_usage_error(&["fig9_nonexistent"]);
    assert_usage_error(&[]);
    assert_usage_error(&["--device-seed", "1"]);
}

#[test]
fn a_missing_or_bad_device_seed_is_a_usage_error() {
    assert_usage_error(&["all", "--device-seed"]);
    assert_usage_error(&["all", "--device-seed", "seven"]);
    assert_usage_error(&["all", "--device-seed", "0xZZ"]);
    assert_usage_error(&["all", "--device-seed", "-1"]);
}

#[test]
fn a_repeated_device_seed_is_a_usage_error() {
    let twice = ["--device-seed", "1", "--device-seed", "2"];
    assert_usage_error(&[&["table1_platforms"], &twice[..]].concat());
    assert_usage_error(&[&["all"], &twice[..]].concat());
}
