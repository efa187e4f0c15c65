//! Paper-scale workflow benchmark of the CAHD workspace.
//!
//! ```text
//! cahd-workflow-bench --workload <bms1-audit|bms2-publish|bms1-compare|all>
//!     --seed N --seconds S --trace <0|1> [--scale F] [--out-dir DIR] [--corrupt-release]
//! ```
//!
//! Each run sets up its inputs from the seed, runs one untimed warm-up
//! iteration of the workload's chain, then iterations back to back (a
//! closed loop with one client) until `--seconds` have passed. Every
//! output is checked; failures are counted, never fatal. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics of
//! the traced run (`--trace 1`). See README.md in this directory.

mod chain;
mod run;
mod spans;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use cahd_obs::TrackingAllocator;
use serde_json::Value;

use run::{run, Metric, RunConfig, RunReport};
use workload::{Workload, P, PIPELINE_OVERRIDES, RANDOM_M};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// The end-to-end metrics of `BENCHMARK.json`, in its order. `mean_kl`
/// and the stage times only some workloads have (`audit_s`, `attack_s`)
/// are printed, not listed: `mean_kl` follows the seeded queries, which
/// spread it wider than any bound allows, and a listed metric must be
/// measured, and non-zero, on every workload.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "workflow_s",
    "publish_s",
    "evaluate_s",
    "peak_heap_mib",
    "leftover_share",
];

/// The per-layer metrics of `BENCHMARK.json`, in its order: the ones every
/// workload reports. Layers only one workload calls are printed only.
const PER_LAYER: [&str; 26] = [
    "data.read_dat_ms",
    "sparse.row_graph_ms",
    "sparse.row_graph_peak_mib",
    "sparse.degree_work",
    "sparse.degree_sum",
    "sparse.useful_ratio",
    "rcm.order_ms",
    "rcm.columns_ms",
    "rcm.bandwidth_after",
    "core.permute_ms",
    "core.group_ms",
    "core.verify_ms",
    "core.groups",
    "core.leftover_rows",
    "core.group_peak_mib",
    "json.encode_ms",
    "json.release_bytes",
    "eval.queries_ms",
    "eval.kl_ms",
    "eval.mean_kl",
    "check.pair_work",
    "check.diagnostics",
    "eval.attack_trials",
    "baselines.groups",
    "unattributed_ms",
    "trace_overhead_s",
];

const USAGE: &str =
    "usage: cahd-workflow-bench --workload <bms1-audit|bms2-publish|bms1-compare|all> \
--seed N --seconds S --trace <0|1> [--scale F] [--out-dir DIR] [--corrupt-release]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    out_dir: PathBuf,
    corrupt_release: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = 1.0f64;
    let mut out_dir = None;
    let mut corrupt_release = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-release" {
            corrupt_release = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value).ok_or_else(|| bad("a workload name"))?]
                });
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--scale" => {
                scale = value.parse().map_err(|_| bad("a number"))?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(bad("a scale in (0, 1]"));
                }
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("{f} is required");
    let out_dir = out_dir.unwrap_or_else(|| {
        std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(
                || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
                PathBuf::from,
            )
            .join("workflow-bench")
    });
    Ok(Args {
        workloads: workloads.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        scale,
        out_dir,
        corrupt_release,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = PIPELINE_OVERRIDES
        .iter()
        .find(|v| std::env::var_os(v).is_some())
    {
        eprintln!("error: {var} is set; the benchmark measures the pinned default pipeline");
        return ExitCode::from(2);
    }
    for &workload in &args.workloads {
        let cfg = RunConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            scale: args.scale,
            corrupt_release: args.corrupt_release,
            out_dir: args.out_dir.clone(),
        };
        match run(&cfg) {
            Ok(report) => {
                print_human(&cfg, &report);
                println!("{}", json_line(&cfg, &report));
            }
            Err(e) => {
                eprintln!("error: {} set-up failed: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn print_human(cfg: &RunConfig, report: &RunReport) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "workflow-bench {} | seed {} | scale {} | p {P}, random-m {RANDOM_M}, threads 1, no shards, \
         ordering rcm, rowgraph auto, kernel adaptive | nproc {nproc} | {profile} build",
        cfg.workload.name(),
        cfg.seed,
        cfg.scale,
    );
    if cfg.trace {
        println!(
            "traced run: {} traced + {} untraced iterations after 1 warm-up; layer times are \
             medians of self time",
            report.traced_iterations, report.untraced_iterations
        );
    } else {
        println!(
            "tracing off: {} timed iterations after 1 warm-up; times are medians",
            report.untraced_iterations
        );
    }
    for m in &report.metrics {
        println!(
            "  {:<34} {:>16.6} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let failed_share = report.ops.failed as f64 / report.ops.attempted.max(1) as f64;
    println!(
        "  {:<34} {:>16.6} {:<8} ({} of {} operations failed)",
        "failed_share", failed_share, "fraction", report.ops.failed, report.ops.attempted
    );
    if let Some(path) = &report.span_file {
        println!("spans: {}", path.display());
    }
}

fn json_line(cfg: &RunConfig, report: &RunReport) -> String {
    let names: &[&str] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = names
        .iter()
        .map(|&name| {
            let m: &Metric = report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .expect("every listed metric is computed");
            (
                name.to_string(),
                Value::Object(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(report.ops.failed == 0)),
        ("attempted".into(), Value::Num(report.ops.attempted as f64)),
        ("failed".into(), Value::Num(report.ops.failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree always serializes")
}
