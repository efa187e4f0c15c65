//! The `cahd-cli` binary on hostile release files: a bad input must end
//! in exit code 1 with a diagnosis, never in a panic or an abort.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use cahd_core::{AnonymizedGroup, PublishedDataset};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures")
        .join(name)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cahd_hostile_{}_{name}", std::process::id()))
}

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cahd-cli"))
        .args(args)
        .output()
        .expect("cahd-cli runs")
}

#[test]
fn nesting_bomb_is_a_parse_error_not_a_crash() {
    let bomb = tmp("bomb.json");
    std::fs::write(&bomb, "[".repeat(400_000)).unwrap();
    let out = cli(&["report", bomb.to_str().unwrap()]);
    std::fs::remove_file(&bomb).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nesting"), "{stderr}");
}

/// A copy of the demo release with an id far beyond `n_items`, unsorted
/// ids and repeated ids in its QID rows.
fn tampered_rows(name: &str) -> PathBuf {
    let text = std::fs::read_to_string(fixture("demo_release.json")).unwrap();
    let mut release: PublishedDataset = serde_json::from_str(&text).unwrap();
    let rows = &mut release.groups[0].qid_rows;
    rows[0].push(u32::MAX);
    rows[1].reverse();
    let repeated = rows[1].clone();
    rows[1].extend(repeated);
    let last = release.groups.len() - 1;
    release.groups[last].qid_rows[0] = vec![u32::MAX, 7, 7, 0, u32::MAX];

    let tampered = tmp(name);
    std::fs::write(&tampered, serde_json::to_string(&release).unwrap()).unwrap();
    tampered
}

/// Every pass, band-quality's overlap count included, must run to a
/// report that names the tampering.
#[test]
fn check_survives_tampered_qid_rows() {
    let tampered = tampered_rows("tampered_rows.json");
    let data = fixture("demo.dat");
    let out = cli(&[
        "check",
        data.to_str().unwrap(),
        tampered.to_str().unwrap(),
        "--p",
        "4",
        "--json",
    ]);
    std::fs::remove_file(&tampered).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CAHD-Q001"), "{stdout}");
    assert!(stdout.contains("band-quality"), "{stdout}");
}

/// The KL workload and the attack replay read the same rows through the
/// release index: both must finish (exit 0 or 1), never panic.
#[test]
fn evaluate_and_attack_survive_tampered_qid_rows() {
    let tampered = tampered_rows("tampered_rows_eval.json");
    let data = fixture("demo.dat");
    let (data, release) = (data.to_str().unwrap(), tampered.to_str().unwrap());
    let runs = [
        cli(&["evaluate", data, release, "--queries", "50", "--attack"]),
        cli(&["attack", data, release, "--p", "4", "--json"]),
        cli(&["attack", data, release, release, "--p", "4", "--k", "1,2,3"]),
    ];
    std::fs::remove_file(&tampered).ok();
    for out in runs {
        assert!(matches!(out.status.code(), Some(0 | 1)), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

/// A group that publishes no rows yet claims a sensitive count holds
/// nothing: it must not turn the KL of its queries into `a·0/0` and from
/// there into a perfect score, so the release evaluates exactly like the
/// clean one.
#[test]
fn rowless_group_with_counts_does_not_move_the_kl() {
    let text = std::fs::read_to_string(fixture("demo_release.json")).unwrap();
    let mut release: PublishedDataset = serde_json::from_str(&text).unwrap();
    release.groups.push(AnonymizedGroup {
        members: vec![],
        qid_rows: vec![],
        sensitive_counts: vec![(14, 1)],
    });
    let tampered = tmp("rowless_group.json");
    std::fs::write(&tampered, serde_json::to_string(&release).unwrap()).unwrap();
    let data = fixture("demo.dat");
    let evaluate = |release: &Path| {
        cli(&[
            "evaluate",
            data.to_str().unwrap(),
            release.to_str().unwrap(),
        ])
    };
    let (clean, hostile) = (evaluate(&fixture("demo_release.json")), evaluate(&tampered));
    std::fs::remove_file(&tampered).ok();
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");
    assert_eq!(hostile.status.code(), Some(0), "{hostile:?}");
    assert_eq!(hostile.stdout, clean.stdout);
}
