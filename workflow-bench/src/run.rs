//! One run of one workload: set-up, a warm-up iteration, then iterations
//! back to back for the requested time, and the metrics they give.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::chain::{ensure, fnv1a, iteration, Ctx, IterOut, Ops, Runner, FNV_OFFSET};
use crate::spans::{SpanLog, UNATTRIBUTED};
use crate::workload::{attack_plan, pipeline_config, setup, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Timed iterations per run at least, however long they take, so that
/// every median has three samples.
const MIN_ITERATIONS: usize = 3;

const MIB: f64 = 1024.0 * 1024.0;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Profile scale (1.0 = paper scale).
    pub scale: f64,
    /// Corrupt the CAHD release in memory (negative self-test).
    pub corrupt_release: bool,
    /// Directory for the span file and the digest log.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value is the median of (1 for counts).
    pub samples: usize,
}

/// The outcome of a run.
#[derive(Debug)]
pub struct RunReport {
    /// The metrics of this run, named as in `BENCHMARK.json`, followed by
    /// the ones only this workload has (printed, not in the JSON line).
    pub metrics: Vec<Metric>,
    /// Operation counters.
    pub ops: Ops,
    /// Timed untraced iterations.
    pub untraced_iterations: usize,
    /// Timed traced iterations.
    pub traced_iterations: usize,
    /// Where the spans were written (traced runs).
    pub span_file: Option<PathBuf>,
}

/// Runs one workload. Returns `Err` only when set-up fails; failures
/// after set-up are counted in the report.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let w = cfg.workload;
    let mut ops = Ops::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    let mut dat_digest = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        let start = Instant::now();
        let inp = setup(w, cfg.scale, cfg.seed)?;
        setup_s.push(start.elapsed().as_secs_f64());
        let d = fnv1a(FNV_OFFSET, &inp.dat);
        ops.check(
            "setup.repeat",
            ensure(
                dat_digest.is_none_or(|d0| d0 == d),
                "set-up is not deterministic",
            ),
        );
        dat_digest = Some(d);
        inputs = Some(inp);
    }
    let inputs = inputs.expect("SETUP_REPEATS > 0");
    let ctx = Ctx {
        workload: w,
        inputs: &inputs,
        seed: cfg.seed,
        config: pipeline_config(),
        plan: attack_plan(cfg.seed),
        corrupt_release: cfg.corrupt_release,
    };

    let log = SpanLog::new();
    let mut runner = Runner { ops, log: None };
    // The first release decode in a process is markedly slower than the
    // later ones, so one untimed iteration comes first.
    let warm = iteration(&ctx, &mut runner);
    let reference = warm.cahd_json;
    let ref_digest = warm.digest;
    let mut untraced: Vec<IterOut> = Vec::new();
    let mut traced: Vec<IterOut> = Vec::new();
    let start = Instant::now();
    loop {
        let out = iteration(&ctx, &mut runner);
        check_digest(&mut runner.ops, &out, ref_digest);
        untraced.push(out);
        if cfg.trace {
            log.set_iteration(traced.len() as u32);
            runner.log = Some(&log);
            let out = iteration(&ctx, &mut runner);
            runner.log = None;
            check_digest(&mut runner.ops, &out, ref_digest);
            runner.ops.check(
                "stepwise-identical",
                ensure(
                    out.cahd_json.is_some() && out.cahd_json == reference,
                    "the step-by-step pipeline's release differs from Anonymizer::anonymize's",
                ),
            );
            traced.push(out);
        }
        if start.elapsed().as_secs_f64() >= cfg.seconds && untraced.len() >= MIN_ITERATIONS {
            break;
        }
    }
    let mut ops = runner.ops;
    if let Some(d) = ref_digest {
        let path = cfg.out_dir.join("digests.tsv");
        let key = format!("{}\t{}", w.name(), cfg.scale);
        ops.check(
            "digest-log",
            check_digest_log(&path, &key, cfg.seed, d, cfg.corrupt_release),
        );
    }

    let mut metrics = Vec::new();
    let mut span_file = None;
    if cfg.trace {
        metrics = layer_metrics(w, &log, &traced, &untraced);
        let path = cfg
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", w.name(), cfg.seed));
        ops.check(
            "span-file",
            log.write_jsonl(&path)
                .map_err(|e| format!("{}: {e}", path.display())),
        );
        span_file = Some(path);
    } else {
        metrics.push(median_metric("setup_s", "s", &setup_s));
        let times = |f: fn(&IterOut) -> f64| untraced.iter().map(f).collect::<Vec<_>>();
        metrics.push(median_metric(
            "workflow_s",
            "s",
            &times(|o| o.times.workflow),
        ));
        metrics.push(median_metric("publish_s", "s", &times(|o| o.times.publish)));
        metrics.push(median_metric(
            "evaluate_s",
            "s",
            &times(|o| o.times.evaluate),
        ));
        metrics.push(median_metric(
            "peak_heap_mib",
            "MiB",
            &times(|o| o.peak_bytes as f64 / MIB),
        ));
        let first = &untraced[0];
        metrics.push(count_metric("mean_kl", "nat", first.mean_kl.unwrap_or(0.0)));
        metrics.push(count_metric(
            "leftover_share",
            "fraction",
            leftover_share(first),
        ));
        if w.audits() {
            metrics.push(median_metric("audit_s", "s", &times(|o| o.times.audit)));
        }
        if w.attacks() {
            metrics.push(median_metric("attack_s", "s", &times(|o| o.times.attack)));
        }
    }
    Ok(RunReport {
        metrics,
        ops,
        untraced_iterations: untraced.len(),
        traced_iterations: traced.len(),
        span_file,
    })
}

fn check_digest(ops: &mut Ops, out: &IterOut, reference: Option<u64>) {
    ops.check(
        "release-digest",
        ensure(
            out.digest.is_some() && out.digest == reference,
            "the release bytes differ between iterations of one run",
        ),
    );
}

/// Compares `digest` with the digests earlier runs logged under `key`:
/// the same seed must give the same release bytes, another seed other
/// bytes. Logs the digest on first sight. Corrupted runs only compare.
fn check_digest_log(
    path: &Path,
    key: &str,
    seed: u64,
    digest: u64,
    corrupted: bool,
) -> Result<(), String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let mut seen = false;
    for line in text.lines() {
        let mut f = line.rsplitn(3, '\t');
        let (Some(d), Some(s), Some(k)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if k != key {
            continue;
        }
        let same_seed = s == seed.to_string();
        let same_digest = d == format!("{digest:016x}");
        if same_seed && !same_digest && !corrupted {
            return Err(format!(
                "seed {seed} gave other release bytes in an earlier run"
            ));
        }
        if !same_seed && same_digest {
            return Err(format!("seeds {s} and {seed} gave the same release bytes"));
        }
        seen |= same_seed;
    }
    if seen || corrupted {
        return Ok(());
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, format!("{text}{key}\t{seed}\t{digest:016x}\n"))
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Per-layer metrics of a traced run: medians over the traced iterations
/// of each layer's self time, the layers' peaks and the work counts.
fn layer_metrics(
    w: Workload,
    log: &SpanLog,
    traced: &[IterOut],
    untraced: &[IterOut],
) -> Vec<Metric> {
    let totals = log.layer_totals();
    let self_ms = |layer: &str| -> Vec<f64> {
        totals
            .values()
            .map(|t| t.get(layer).map_or(0.0, |l| l.self_ns as f64 / 1e6))
            .collect()
    };
    let peak_mib = |layer: &str| -> Vec<f64> {
        totals
            .values()
            .map(|t| t.get(layer).map_or(0.0, |l| l.peak_bytes as f64 / MIB))
            .collect()
    };
    let c = traced[0].counts;
    let first = &traced[0];
    let mut m = vec![
        median_metric("data.read_dat_ms", "ms", &self_ms("data.read_dat")),
        median_metric("sparse.row_graph_ms", "ms", &self_ms("sparse.row_graph")),
        median_metric(
            "sparse.row_graph_peak_mib",
            "MiB",
            &peak_mib("sparse.row_graph"),
        ),
        count_metric("sparse.degree_work", "count", c.degree_work as f64),
        count_metric("sparse.degree_sum", "count", c.degree_sum as f64),
        count_metric(
            "sparse.useful_ratio",
            "fraction",
            c.degree_sum as f64 / c.degree_work.max(1) as f64,
        ),
        median_metric("rcm.order_ms", "ms", &self_ms("rcm.order")),
        median_metric("rcm.columns_ms", "ms", &self_ms("rcm.columns")),
        count_metric("rcm.bandwidth_after", "count", c.bandwidth_after as f64),
        median_metric("core.permute_ms", "ms", &self_ms("core.permute")),
        median_metric("core.group_ms", "ms", &self_ms("core.group")),
        median_metric("core.verify_ms", "ms", &self_ms("core.verify")),
        count_metric("core.groups", "count", first.groups as f64),
        count_metric("core.leftover_rows", "count", first.leftover_rows as f64),
        median_metric("core.group_peak_mib", "MiB", &peak_mib("core.group")),
        median_metric("json.encode_ms", "ms", &self_ms("json.encode")),
        count_metric(
            "json.release_bytes",
            "bytes",
            first.cahd_json.as_ref().map_or(0, String::len) as f64,
        ),
        median_metric("eval.queries_ms", "ms", &self_ms("eval.queries")),
        median_metric("eval.kl_ms", "ms", &self_ms("eval.kl")),
        count_metric("eval.mean_kl", "nat", first.mean_kl.unwrap_or(0.0)),
        count_metric("check.pair_work", "count", c.pair_work as f64),
        count_metric("check.diagnostics", "count", c.diagnostics as f64),
        count_metric("eval.attack_trials", "count", c.attack_trials as f64),
        count_metric("baselines.groups", "count", c.pm_groups as f64),
        median_metric("unattributed_ms", "ms", &self_ms(UNATTRIBUTED)),
        Metric {
            name: "trace_overhead_s".into(),
            value: median(&traced.iter().map(|o| o.times.workflow).collect::<Vec<_>>())
                - median(
                    &untraced
                        .iter()
                        .map(|o| o.times.workflow)
                        .collect::<Vec<_>>(),
                ),
            unit: "s",
            samples: traced.len(),
        },
    ];
    // Layers this workload alone calls: printed, not in the JSON line.
    if w.audits() {
        m.push(median_metric(
            "json.decode_ms",
            "ms",
            &self_ms("json.decode"),
        ));
        m.push(median_metric(
            "json.decode_peak_mib",
            "MiB",
            &peak_mib("json.decode"),
        ));
        let mut passes: BTreeMap<&str, ()> = BTreeMap::new();
        for t in totals.values() {
            for name in t.keys().filter(|n| n.starts_with("check.")) {
                passes.insert(name, ());
            }
        }
        for name in passes.keys() {
            m.push(median_metric(&format!("{name}_ms"), "ms", &self_ms(name)));
        }
    }
    if w.attacks() {
        for a in ["background", "linkage", "intersection", "vulnerable"] {
            let span = format!("eval.attack.{a}");
            m.push(median_metric(&format!("{span}_ms"), "ms", &self_ms(&span)));
        }
    }
    if w.compares() {
        m.push(median_metric(
            "baselines.perm_mondrian_ms",
            "ms",
            &self_ms("baselines.perm_mondrian"),
        ));
    }
    m
}

fn leftover_share(out: &IterOut) -> f64 {
    out.leftover_rows as f64 / out.rows.max(1) as f64
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn median_metric(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
    Metric {
        name: name.to_string(),
        value: median(samples),
        unit,
        samples: samples.len(),
    }
}

fn count_metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples: 1,
    }
}
