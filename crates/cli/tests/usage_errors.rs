//! The `cahd-cli` binary on contradictory flags: a flag the run would
//! ignore is a usage error (exit 2), not a silently different release.

use std::path::Path;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    let demo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/demo.dat");
    Command::new(env!("CARGO_BIN_EXE_cahd-cli"))
        .arg(args[0])
        .arg(demo)
        .args(&args[1..])
        .output()
        .expect("cahd-cli runs")
}

const NO_RCM: [&str; 5] = ["--p", "4", "--sensitive", "14,26,28", "--no-rcm"];

#[test]
fn no_rcm_rejects_every_ordering_flag() {
    for (command, extra) in [
        ("anonymize", &["--ordering", "bfs"][..]),
        ("anonymize", &["--rowgraph", "implicit"][..]),
        ("anonymize", &["--hub-cap", "2"][..]),
        ("profile", &["--rowgraph", "explicit", "--hub-cap", "2"][..]),
    ] {
        let mut argv = vec![command];
        argv.extend(NO_RCM);
        argv.extend(extra);
        let out = cli(&argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--no-rcm"), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} wrote a release");
    }
}

#[test]
fn no_rcm_alone_still_anonymizes() {
    let out = cli(&[&["anonymize"][..], &NO_RCM].concat());
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

/// More than `MAX_R` group-by items would overflow the cell index: both
/// commands that run a query workload refuse `--r` above it up front.
#[test]
fn group_by_items_beyond_the_cell_bound_are_rejected() {
    let release = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/demo_release.json");
    let release = release.to_str().unwrap();
    for argv in [
        &["evaluate", release, "--r", "21"][..],
        &["profile", "--p", "4", "--r", "25"][..],
    ] {
        let out = cli(argv);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--r"), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
    }
}
