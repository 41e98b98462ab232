//! The `hopper` binary end to end: the shared argument reader, usage and
//! exit codes, on tiny runs.

use hopper::experiment::KEYS;
use std::process::{Command, Output};

fn hopper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hopper"))
        .args(args)
        .output()
        .expect("the hopper binary starts")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

const TINY: &[&str] = &[
    "--jobs",
    "5",
    "--machines",
    "10",
    "--interactive",
    "--seed",
    "3",
];

#[test]
fn unknown_flag_exits_2_with_usage() {
    let out = hopper(&["central", "--bogus", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown argument: --bogus"),
        "{}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));
}

#[test]
fn seed_flag_takes_exactly_one_seed() {
    let out = hopper(&["central", "--seed", "1,2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--seed takes one seed"),
        "{}",
        stderr(&out)
    );
    // A seed list reaching a single run by any other route is refused too.
    let out = hopper(&["central", "seeds=1,2"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn newly_flagged_key_runs_as_its_key() {
    let flagged = stdout(&hopper(
        &[&["central", "--fixed-tasks", "3"], TINY].concat(),
    ));
    let keyed = stdout(&hopper(&[&["central", "fixed_tasks=3"], TINY].concat()));
    let free = stdout(&hopper(&[&["central"], TINY].concat()));
    assert!(flagged.contains("on 5 jobs"), "{flagged}");
    assert_eq!(flagged, keyed);
    assert_ne!(flagged, free, "--fixed-tasks changed nothing");
}

#[test]
fn key_value_arguments_override_a_spec_file_wherever_it_sits() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("cli-override.spec");
    std::fs::write(&path, "jobs=9\nmachines=10\ninteractive=true\nseeds=3").unwrap();
    let path = path.to_str().unwrap();
    let before = stdout(&hopper(&["central", "jobs=5", "--spec", path]));
    let after = stdout(&hopper(&["central", "--spec", path, "jobs=5"]));
    assert!(before.contains("on 5 jobs"), "{before}");
    assert_eq!(before, after);
    let sweep = |args: &[&str]| {
        stdout(&hopper(
            &[&["sweep", "--axis", "policy=srpt", "--csv"], args].concat(),
        ))
    };
    let before = sweep(&["jobs=5", "--spec", path]);
    assert_eq!(before, sweep(&["--spec", path, "jobs=5"]));
    assert_eq!(before.lines().count(), 2, "{before}");
    assert!(
        before.lines().nth(1).unwrap().starts_with("srpt,3,5,"),
        "{before}"
    );
}

#[test]
fn usage_lists_every_key_flag() {
    let out = hopper(&["--help"]);
    assert!(out.status.success());
    let usage = stderr(&out);
    for key in KEYS {
        assert!(usage.contains(&key.flag()), "usage lacks {}", key.flag());
    }
    for flag in [
        "--scan-ms",
        "--fixed-tasks",
        "--schedulers",
        "--spec-min-elapsed-ms",
    ] {
        assert!(usage.contains(flag), "usage lacks {flag}");
    }
}

#[test]
fn single_run_rejects_another_engine() {
    for args in [
        &["central", "--engine", "decentral"][..],
        &["decentral", "engine=central"][..],
    ] {
        let out = hopper(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains("drop the engine= setting"),
            "{}",
            stderr(&out)
        );
    }
}

#[test]
fn bad_argument_is_reported_by_name() {
    for args in [
        &["central", "--jobs", "x"][..],
        &["sweep", "--axis", "util=0.5", "jobs=0"][..],
    ] {
        let out = hopper(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        assert!(err.contains("jobs") && !err.contains("line"), "{err}");
    }
}
