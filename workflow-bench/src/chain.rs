//! One iteration of a workload's chain, with every output checked.
//!
//! An untraced iteration calls the entry points `cahd-cli` calls:
//! `Anonymizer::anonymize`, `Registry::run`, one `run_attack_suite` with
//! the whole plan. A traced iteration calls the same layers one public
//! function at a time, inside spans: the pipeline step by step, each
//! check pass through `Registry::passes`, each attacker alone. Both
//! produce the same outputs, and the run checks that they do.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cahd_baselines::{perm_mondrian, PmConfig};
use cahd_check::{default_registry, CheckInput, Severity};
use cahd_core::{cahd, verify_published, Anonymizer, AnonymizerConfig, PublishedDataset};
use cahd_data::{io, TransactionSet};
use cahd_eval::{
    evaluate_workload, generate_workload_seeded, posterior_violations, run_attack_suite,
    unique_match_violations, AttackPlan, AttackReport, AttackTarget,
};
use cahd_obs::memtrack;
use cahd_rcm::band_order;
use cahd_rcm::unsym::order_columns;
use cahd_sparse::{rect_band_stats, ParNeighborOracle, Permutation, RowGraph};

use crate::spans::{Kind, SpanLog};
use crate::workload::{Inputs, Workload, P, QUERY_R};

/// What every iteration of one run shares.
pub struct Ctx<'a> {
    /// The workload being run.
    pub workload: Workload,
    /// The run's inputs.
    pub inputs: &'a Inputs,
    /// The workload seed (queries and attacks derive from it).
    pub seed: u64,
    /// The pinned pipeline configuration.
    pub config: AnonymizerConfig,
    /// The pinned attack plan.
    pub plan: AttackPlan,
    /// Point one `members` entry of the CAHD release out of range right
    /// after anonymizing: the negative case of the self-test.
    pub corrupt_release: bool,
}

/// Operation counters of a run.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted: layer calls plus stand-alone checks.
    pub attempted: u64,
    /// Operations whose call failed, panicked or whose output was wrong.
    pub failed: u64,
    reported: u32,
}

impl Ops {
    /// Counts a stand-alone correctness check as one operation.
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.fail(name, &msg);
        }
    }

    fn fail(&mut self, name: &str, msg: &str) {
        self.failed += 1;
        // Enough to diagnose; a systematic failure would repeat per iteration.
        if self.reported < 20 {
            self.reported += 1;
            eprintln!("workflow-bench: {name} failed: {msg}");
        }
    }
}

/// Returns `Err(msg)` unless `cond` holds.
pub fn ensure(cond: bool, msg: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg.to_string())
    }
}

fn accept<T>(_: &T) -> Result<(), String> {
    Ok(())
}

/// Runs operations, counting failures, inside spans when a log is set.
pub struct Runner<'a> {
    /// The run's operation counters.
    pub ops: Ops,
    /// The span log of a traced iteration; `None` when tracing is off.
    pub log: Option<&'a SpanLog>,
}

impl Runner<'_> {
    /// One operation: `call` into a layer (inside a layer span when
    /// tracing), then `check` its output outside the span. An error or a
    /// panic in either counts as a failed operation and the run goes on;
    /// the output is returned only when it passed its check.
    fn op<T>(
        &mut self,
        layer: &str,
        call: impl FnOnce() -> Result<T, String>,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) -> Option<T> {
        self.ops.attempted += 1;
        let guarded = || catch_unwind(AssertUnwindSafe(call));
        let called = match self.log {
            Some(log) => log.record(Kind::Layer, layer, guarded),
            None => guarded(),
        };
        let result = match called {
            Ok(Ok(v)) => match catch_unwind(AssertUnwindSafe(|| check(&v))) {
                Ok(Ok(())) => Ok(v),
                Ok(Err(msg)) => Err(msg),
                Err(_) => Err("the output check panicked".to_string()),
            },
            Ok(Err(msg)) => Err(msg),
            Err(_) => Err("panicked".to_string()),
        };
        result.map_err(|msg| self.ops.fail(layer, &msg)).ok()
    }

    /// Runs one stage of the chain (inside a stage span when tracing) and
    /// returns its result with its wall time in seconds.
    fn stage<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let start = Instant::now();
        let out = match self.log {
            Some(log) => log.record(Kind::Stage, name, || f(self)),
            None => f(self),
        };
        (out, start.elapsed().as_secs_f64())
    }
}

/// Stage wall times of one iteration, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Times {
    /// The whole iteration.
    pub workflow: f64,
    /// Read, anonymize, verify and encode, over every release.
    pub publish: f64,
    /// Decode and check.
    pub audit: f64,
    /// Query generation and KL over every release.
    pub evaluate: f64,
    /// The adversary suite.
    pub attack: f64,
}

/// Work counts of one traced iteration, computed by the benchmark from the
/// layers' inputs and outputs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Σ over items of support²: what the exact degree pass enumerates.
    pub degree_work: u64,
    /// Σ over rows of the distinct-neighbour degree.
    pub degree_sum: u64,
    /// Rectangular bandwidth after the reordering.
    pub bandwidth_after: u64,
    /// Σ over decoded groups of C(|G|, 2): the band-quality pass's pairs.
    pub pair_work: u64,
    /// Diagnostics of every check pass, all severities.
    pub diagnostics: u64,
    /// Monte-Carlo trials over every attack curve point.
    pub attack_trials: u64,
    /// Groups of the PermMondrian release.
    pub pm_groups: u64,
}

/// What one iteration produced.
#[derive(Debug, Default)]
pub struct IterOut {
    /// Stage wall times.
    pub times: Times,
    /// Allocator high-water mark of an untraced iteration, in bytes.
    pub peak_bytes: u64,
    /// FNV-1a digest of every published release's JSON bytes.
    pub digest: Option<u64>,
    /// The CAHD release's JSON bytes.
    pub cahd_json: Option<String>,
    /// Groups of the CAHD release.
    pub groups: u64,
    /// Rows of the CAHD release's final (leftover) group.
    pub leftover_rows: u64,
    /// Rows of the dataset.
    pub rows: u64,
    /// Mean KL of the CAHD release over the workload's queries.
    pub mean_kl: Option<f64>,
    /// Traced-only work counts.
    pub counts: Counts,
}

/// Runs one iteration of the workload's chain. Tracing is on when the
/// runner has a span log.
pub fn iteration(ctx: &Ctx<'_>, r: &mut Runner<'_>) -> IterOut {
    let start = Instant::now();
    let traced = r.log.is_some();
    if !traced {
        memtrack::reset_peak();
    }
    let mut out = IterOut::default();
    match r.log {
        Some(log) => log.record(Kind::Iteration, "iteration", || chain(ctx, r, &mut out)),
        None => chain(ctx, r, &mut out),
    }
    out.times.workflow = start.elapsed().as_secs_f64();
    if !traced {
        out.peak_bytes = memtrack::stats().peak_bytes;
    }
    out
}

/// The releases one publish stage produced.
struct Published {
    data: TransactionSet,
    cahd: PublishedDataset,
    cahd_json: String,
    pm: Option<(PublishedDataset, String)>,
}

fn chain(ctx: &Ctx<'_>, r: &mut Runner<'_>, out: &mut IterOut) {
    let w = ctx.workload;
    let (published, t) = r.stage("publish", |r| publish(ctx, r, out));
    out.times.publish = t;
    let Some(pubd) = published else { return };
    let mut digest = fnv1a(FNV_OFFSET, pubd.cahd_json.as_bytes());
    if let Some((_, pm_json)) = &pubd.pm {
        digest = fnv1a(digest, pm_json.as_bytes());
    }
    out.digest = Some(digest);
    out.groups = pubd.cahd.n_groups() as u64;
    out.leftover_rows = pubd.cahd.groups.last().map_or(0, |g| g.size() as u64);
    out.rows = pubd.data.n_transactions() as u64;

    let decoded = if w.audits() {
        let (decoded, t) = r.stage("audit", |r| audit(ctx, r, &pubd, out));
        out.times.audit = t;
        match decoded {
            Some(d) => Some(d),
            None => return,
        }
    } else {
        None
    };
    let mut releases: Vec<(&str, &PublishedDataset)> = match &decoded {
        Some(d) => vec![("release", d)],
        None => vec![("cahd", &pubd.cahd)],
    };
    if let Some((pm, _)) = &pubd.pm {
        releases.push(("pm", pm));
    }
    let ((), t) = r.stage("evaluate", |r| evaluate(ctx, r, &pubd.data, &releases, out));
    out.times.evaluate = t;
    if w.attacks() {
        let ((), t) = r.stage("attack", |r| attack(ctx, r, &pubd.data, &releases, out));
        out.times.attack = t;
    }
    out.cahd_json = Some(pubd.cahd_json);
}

fn publish(ctx: &Ctx<'_>, r: &mut Runner<'_>, out: &mut IterOut) -> Option<Published> {
    let inp = ctx.inputs;
    let data = r.op(
        "data.read_dat",
        || io::read_dat(&inp.dat[..], None).map_err(|e| e.to_string()),
        |d| {
            ensure(
                *d == inp.data,
                "read_dat returned another dataset than the one encoded",
            )
        },
    )?;
    let mut cahd_release = if r.log.is_some() {
        anonymize_stepwise(ctx, r, &data, out)?
    } else {
        r.op(
            "core.anonymize",
            || {
                Anonymizer::new(ctx.config)
                    .anonymize(&data, &inp.sensitive)
                    .map(|res| res.published)
                    .map_err(|e| e.to_string())
            },
            accept,
        )?
    };
    if ctx.corrupt_release {
        let n = data.n_transactions() as u32;
        if let Some(m) = cahd_release
            .groups
            .first_mut()
            .and_then(|g| g.members.first_mut())
        {
            *m = n + 7;
        }
    }
    let cahd_json = verify_and_encode(r, &data, ctx, &cahd_release)?;
    let pm = if ctx.workload.compares() {
        let pm = r.op(
            "baselines.perm_mondrian",
            || {
                perm_mondrian(&data, &inp.sensitive, &PmConfig::new(P))
                    .map(|(release, _)| release)
                    .map_err(|e| e.to_string())
            },
            accept,
        )?;
        out.counts.pm_groups = pm.n_groups() as u64;
        let json = verify_and_encode(r, &data, ctx, &pm)?;
        Some((pm, json))
    } else {
        None
    };
    Some(Published {
        data,
        cahd: cahd_release,
        cahd_json,
        pm,
    })
}

fn verify_and_encode(
    r: &mut Runner<'_>,
    data: &TransactionSet,
    ctx: &Ctx<'_>,
    release: &PublishedDataset,
) -> Option<String> {
    r.op(
        "core.verify",
        || verify_published(data, &ctx.inputs.sensitive, release, P).map_err(|e| e.to_string()),
        accept,
    );
    r.op(
        "json.encode",
        || serde_json::to_string(release).map_err(|e| e.to_string()),
        accept,
    )
}

/// `Anonymizer::anonymize` one public function at a time, for the
/// sequential pipeline `pipeline_config` pins: row graph, band order,
/// column order and band statistics, row permutation, group formation,
/// and the mapping of members back to the input order.
fn anonymize_stepwise(
    ctx: &Ctx<'_>,
    r: &mut Runner<'_>,
    data: &TransactionSet,
    out: &mut IterOut,
) -> Option<PublishedDataset> {
    let a = data.matrix();
    let opts = ctx.config.rcm;
    let row_perm = {
        let rg = r.op(
            "sparse.row_graph",
            || {
                Ok(RowGraph::build_with_threads(
                    a,
                    opts.edge_budget,
                    opts.threads,
                ))
            },
            accept,
        )?;
        out.counts.degree_work = a
            .col_counts()
            .iter()
            .map(|&k| (k as u64) * (k as u64))
            .sum();
        out.counts.degree_sum = (0..rg.n_vertices()).map(|v| rg.degree(v) as u64).sum();
        r.op(
            "rcm.order",
            || Ok(band_order(&rg, opts.ordering, opts.threads)),
            accept,
        )?
    };
    let after = r.op(
        "rcm.columns",
        || {
            let col_perm = order_columns(a, &row_perm, opts.column_order);
            let id_rows = Permutation::identity(a.n_rows());
            let id_cols = Permutation::identity(a.n_cols());
            // The pipeline reports the band before and after; both are
            // part of the work it does.
            std::hint::black_box(rect_band_stats(a, &id_rows, &id_cols));
            Ok(rect_band_stats(a, &row_perm, &col_perm))
        },
        accept,
    )?;
    out.counts.bandwidth_after = after.max_diag_distance as u64;
    let work = r.op("core.permute", || Ok(data.permute(&row_perm)), accept)?;
    let (mut release, _) = r.op(
        "core.group",
        || cahd(&work, &ctx.inputs.sensitive, &ctx.config.cahd).map_err(|e| e.to_string()),
        accept,
    )?;
    r.op(
        "core.permute",
        || {
            for g in &mut release.groups {
                for m in &mut g.members {
                    *m = row_perm.new_to_old(*m as usize) as u32;
                }
            }
            Ok(())
        },
        accept,
    )?;
    Some(release)
}

fn audit(
    ctx: &Ctx<'_>,
    r: &mut Runner<'_>,
    pubd: &Published,
    out: &mut IterOut,
) -> Option<PublishedDataset> {
    let decoded = r.op(
        "json.decode",
        || serde_json::from_str::<PublishedDataset>(&pubd.cahd_json).map_err(|e| e.to_string()),
        |d| {
            ensure(
                *d == pubd.cahd,
                "the decoded release differs from the published one",
            )
        },
    )?;
    out.counts.pair_work = decoded
        .groups
        .iter()
        .map(|g| {
            let s = g.size() as u64;
            s * s.saturating_sub(1) / 2
        })
        .sum();
    let input = CheckInput {
        data: &pubd.data,
        sensitive: &ctx.inputs.sensitive,
        published: &decoded,
        p: P,
        trace: None,
        attack: Some(&ctx.plan),
    };
    let no_errors = |diags: &Vec<cahd_check::Diagnostic>| {
        let errors: Vec<&str> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.code)
            .collect();
        ensure(errors.is_empty(), &format!("error diagnostics {errors:?}"))
    };
    if r.log.is_some() {
        let registry = default_registry();
        for pass in registry.passes() {
            let diags = r.op(
                &format!("check.{}", pass.name()),
                || {
                    let mut diags = Vec::new();
                    pass.run(&input, &mut diags);
                    Ok(diags)
                },
                no_errors,
            );
            out.counts.diagnostics += diags.map_or(0, |d| d.len() as u64);
        }
    } else {
        let diags = r.op(
            "check.registry",
            || Ok(default_registry().run(&input).diagnostics),
            no_errors,
        );
        out.counts.diagnostics = diags.map_or(0, |d| d.len() as u64);
    }
    Some(decoded)
}

fn evaluate(
    ctx: &Ctx<'_>,
    r: &mut Runner<'_>,
    data: &TransactionSet,
    releases: &[(&str, &PublishedDataset)],
    out: &mut IterOut,
) {
    let inp = ctx.inputs;
    let Some(queries) = r.op(
        "eval.queries",
        || {
            Ok(generate_workload_seeded(
                data,
                &inp.sensitive,
                QUERY_R,
                ctx.workload.n_queries(),
                ctx.seed,
            ))
        },
        |q| {
            ensure(
                *q == inp.queries,
                "the generated queries differ from set-up's",
            )
        },
    ) else {
        return;
    };
    for (i, (name, release)) in releases.iter().enumerate() {
        let summary = r.op(
            "eval.kl",
            || Ok(evaluate_workload(data, release, &queries)),
            |s| {
                ensure(
                    s.n_queries > 0 && s.mean_kl.is_finite() && s.max_kl.is_finite(),
                    &format!("KL of `{name}` is not finite over a non-empty workload"),
                )
            },
        );
        if i == 0 {
            out.mean_kl = summary.map(|s| s.mean_kl);
        }
    }
}

fn attack(
    ctx: &Ctx<'_>,
    r: &mut Runner<'_>,
    data: &TransactionSet,
    releases: &[(&str, &PublishedDataset)],
    out: &mut IterOut,
) {
    let sensitive = &ctx.inputs.sensitive;
    let mut targets = vec![AttackTarget::raw()];
    targets.extend(
        releases
            .iter()
            .map(|(n, rel)| AttackTarget::release(n, rel)),
    );
    let plan = &ctx.plan;
    let gate = |report: &AttackReport| {
        let mut v = posterior_violations(report, P, plan.tolerance);
        v.extend(unique_match_violations(report, plan.max_unique_match_rate));
        ensure(v.is_empty(), &v.join("; "))
    };
    let plans: Vec<(String, AttackPlan)> = if r.log.is_some() {
        plan.attackers
            .iter()
            .map(|a| {
                let alone = plan.clone().with_attackers(vec![a.clone()]);
                (format!("eval.attack.{a}"), alone)
            })
            .collect()
    } else {
        vec![("eval.attack".to_string(), plan.clone())]
    };
    for (name, plan) in &plans {
        let report = r.op(
            name,
            || Ok(run_attack_suite(data, sensitive, P, &targets, plan)),
            gate,
        );
        out.counts.attack_trials += report.map_or(0, |rep| {
            rep.curves
                .iter()
                .flat_map(|c| &c.points)
                .map(|pt| pt.trials as u64)
                .sum()
        });
    }
}

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64-bit digest over `bytes`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
