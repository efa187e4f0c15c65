//! Self-test: every workload at a tiny scale, traced and untraced, must
//! report no failed operation and print exactly the metrics
//! `BENCHMARK.json` names, with their units; the same seed must give the
//! same release and another seed another one; and a release corrupted in
//! memory must raise the failure count without aborting the run.
//!
//! Run with `cargo test --release --manifest-path workflow-bench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

const WORKLOADS: [&str; 3] = ["bms1-audit", "bms2-publish", "bms1-compare"];

/// A fresh output directory per test: tests run in parallel.
fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("workflow-bench-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the benchmark at scale 0.02 and returns the parsed last line.
fn bench(out: &Path, workload: &str, seed: u64, trace: u8, extra: &[&str]) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_cahd-workflow-bench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.2",
            "--trace",
            &trace.to_string(),
            "--scale",
            "0.02",
        ])
        .arg("--out-dir")
        .arg(out)
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn num(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::Num(n)) => *n,
        other => panic!("`{key}` is not a number: {other:?}"),
    }
}

fn object(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(entries) => entries,
        other => panic!("expected an object, got {other:?}"),
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(items)) = spec.get(list) else {
        panic!("BENCHMARK.json has no `{list}` list");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("malformed metric {m:?}"),
        })
        .collect()
}

fn assert_clean_with_metrics(line: &Value, expected: &[(String, String)], what: &str) {
    assert_eq!(
        line.get("correct"),
        Some(&Value::Bool(true)),
        "{what}: {line:?}"
    );
    assert!(num(line, "attempted") >= 1.0, "{what}: nothing attempted");
    assert_eq!(num(line, "failed"), 0.0, "{what}: failed_share must be 0");
    let metrics = object(line.get("metrics").expect("metrics"));
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| match m.get("unit") {
            Some(Value::Str(u)) => {
                assert!(num(m, "value").is_finite(), "{what}: {name} is not finite");
                (name.clone(), u.clone())
            }
            _ => panic!("{what}: {name} has no unit"),
        })
        .collect();
    assert_eq!(
        printed, expected,
        "{what}: metrics differ from BENCHMARK.json"
    );
}

#[test]
fn every_workload_prints_every_declared_metric_without_failures() {
    let out = out_dir("metrics");
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in WORKLOADS {
        let line = bench(&out, w, 7, 0, &[]);
        assert_clean_with_metrics(&line, &end_to_end, &format!("{w} --trace 0"));
        let metrics = line.get("metrics").expect("metrics");
        for name in [
            "setup_s",
            "workflow_s",
            "publish_s",
            "evaluate_s",
            "peak_heap_mib",
        ] {
            assert!(
                num(metrics.get(name).unwrap(), "value") > 0.0,
                "{w}: {name} is 0"
            );
        }
        let traced = bench(&out, w, 7, 1, &[]);
        assert_clean_with_metrics(&traced, &per_layer, &format!("{w} --trace 1"));

        // The digest log now holds seed 7: the same seed must reproduce
        // the release bytes, another seed must not. Either mismatch would
        // count as a failed operation. The deterministic per-layer metrics
        // (counts, shares, KL) must repeat exactly.
        let again = bench(&out, w, 7, 1, &[]);
        assert_clean_with_metrics(&again, &per_layer, &format!("{w} seed 7 again"));
        for (name, unit) in &per_layer {
            if ["ms", "s", "MiB"].contains(&unit.as_str()) {
                continue;
            }
            let value = |l: &Value| num(l.get("metrics").unwrap().get(name).unwrap(), "value");
            assert_eq!(
                value(&traced),
                value(&again),
                "{w}: {name} changed between runs"
            );
        }
        let other = bench(&out, w, 8, 0, &[]);
        assert_clean_with_metrics(&other, &end_to_end, &format!("{w} seed 8"));
    }
}

#[test]
fn a_corrupted_release_counts_as_failures_without_aborting() {
    let out = out_dir("corrupt");
    for trace in [0, 1] {
        let line = bench(&out, "bms1-audit", 7, trace, &["--corrupt-release"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        let failed = num(&line, "failed");
        let attempted = num(&line, "attempted");
        assert!(
            failed > 0.0 && failed < attempted,
            "failed {failed} of {attempted}"
        );
    }
}
