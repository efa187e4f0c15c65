//! The three workloads, their pinned configuration, and set-up: the
//! inputs every iteration of a run reuses.

use cahd_core::{AnonymizerConfig, CahdConfig, KernelMode, ParallelConfig};
use cahd_data::{io, profiles, ItemId, SensitiveSet, TransactionSet};
use cahd_eval::{generate_workload_seeded, AttackPlan, GroupByQuery};
use cahd_rcm::{OrderingStrategy, RowGraphMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Privacy degree of every release.
pub const P: usize = 10;
/// Number of sensitive items, drawn at random (`--random-m 10`).
pub const RANDOM_M: usize = 10;
/// QID items per group-by query.
pub const QUERY_R: usize = 4;

/// Seed of the generated profile and of the sensitive-item draw: the
/// dataset and sensitive set of the ROADMAP baseline (`generate bms1|bms2
/// --seed 42`, then `anonymize --random-m 10 --seed 42`).
///
/// Which items are sensitive, and the row order, set the size of CAHD's
/// leftover group, and with it the cost of the checks that are quadratic
/// in a group's size: over generator seeds 1 to 5 the BMS1 leftover share
/// ranged from 0.06 to 0.52, and over row orders from 0.23 to 0.32. A
/// run-to-run comparison needs the same work on every seed, so the
/// workload seed relabels the items instead (see [`setup`]).
pub const DATA_SEED: u64 = 42;

/// Environment variables that would override the pinned pipeline.
pub const PIPELINE_OVERRIDES: [&str; 4] = [
    "CAHD_ORDERING",
    "CAHD_ROWGRAPH",
    "CAHD_HUB_CAP",
    "CAHD_KERNEL",
];

/// A workload: one data profile and one chain of layer calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// BMS1-like data; publish, then decode, check, evaluate and attack
    /// the release: the auditor's layers dominate.
    Bms1Audit,
    /// BMS2-like data; publish and evaluate the in-memory release: the
    /// exact degree pass of the row graph dominates.
    Bms2Publish,
    /// BMS1-like data; CAHD and PermMondrian releases, both verified,
    /// evaluated and attacked: the `eval` layer dominates.
    Bms1Compare,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::Bms1Audit,
        Workload::Bms2Publish,
        Workload::Bms1Compare,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bms1Audit => "bms1-audit",
            Workload::Bms2Publish => "bms2-publish",
            Workload::Bms1Compare => "bms1-compare",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the release is decoded and checked.
    pub fn audits(self) -> bool {
        self == Workload::Bms1Audit
    }

    /// Whether a PermMondrian release is published next to CAHD's.
    pub fn compares(self) -> bool {
        self == Workload::Bms1Compare
    }

    /// Whether the adversary suite runs.
    pub fn attacks(self) -> bool {
        self != Workload::Bms2Publish
    }

    /// Group-by queries per evaluated release.
    pub fn n_queries(self) -> usize {
        match self {
            Workload::Bms1Compare => 500,
            Workload::Bms1Audit | Workload::Bms2Publish => 100,
        }
    }

    fn generate(self, scale: f64, seed: u64) -> TransactionSet {
        match self {
            Workload::Bms2Publish => profiles::bms2_like(scale, seed),
            Workload::Bms1Audit | Workload::Bms1Compare => profiles::bms1_like(scale, seed),
        }
    }
}

/// The CAHD pipeline, every knob written out: one thread, no shards, RCM
/// ordering over the automatically chosen row graph, no hub cap, and the
/// adaptive similarity kernel.
pub fn pipeline_config() -> AnonymizerConfig {
    let mut cfg = AnonymizerConfig::with_privacy_degree(P)
        .with_parallel(ParallelConfig::new(1, 1))
        .with_ordering(OrderingStrategy::Rcm)
        .with_rowgraph(RowGraphMode::Auto)
        .with_hub_cap(None);
    cfg.cahd = CahdConfig::new(P).with_kernel(KernelMode::Adaptive);
    cfg
}

/// The attack plan, written out so that a change to
/// `AttackPlan::default()` does not change the measured work.
pub fn attack_plan(seed: u64) -> AttackPlan {
    AttackPlan {
        seed,
        ks: vec![1, 2],
        trials: 200,
        phi: 1.5,
        wrong_items: 0,
        epsilon: 0.05,
        tolerance: 1e-9,
        max_unique_match_rate: 1.0,
        attackers: ["background", "linkage", "intersection", "vulnerable"]
            .map(String::from)
            .to_vec(),
    }
}

/// Everything a run's iterations read, held in memory.
pub struct Inputs {
    /// The generated profile encoded as `.dat` bytes.
    pub dat: Vec<u8>,
    /// The dataset `io::read_dat` must return for `dat`.
    pub data: TransactionSet,
    /// The sensitive items, drawn with [`DATA_SEED`].
    pub sensitive: SensitiveSet,
    /// The queries `generate_workload_seeded` must return.
    pub queries: Vec<GroupByQuery>,
}

/// Generates the profile and draws the sensitive items with
/// [`DATA_SEED`], then relabels the items with a permutation drawn from
/// `seed`, encodes the rows, and generates the queries from `seed`.
///
/// The relabeling permutes item ids within each decimal width (0–9,
/// 10–99, ...), so the encoded sizes stay the same. Row similarity, and
/// with it the band order and every group, does not depend on item ids,
/// so every seed asks for the same work; the release bytes still differ,
/// as do the queries and the attack samples.
pub fn setup(w: Workload, scale: f64, seed: u64) -> Result<Inputs, String> {
    let profile = w.generate(scale, DATA_SEED);
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    let drawn = SensitiveSet::select_random(&profile, RANDOM_M, P, &mut rng)
        .map_err(|e| format!("select_random: {e}"))?;
    let label = relabeling(profile.n_items(), seed);
    let rows: Vec<Vec<ItemId>> = profile
        .iter()
        .map(|row| row.iter().map(|&i| label[i as usize]).collect())
        .collect();
    let mut dat = Vec::new();
    io::write_dat(
        &mut dat,
        &TransactionSet::from_rows(&rows, profile.n_items()),
    )
    .map_err(|e| format!("write_dat: {e}"))?;
    let data = io::read_dat(&dat[..], None).map_err(|e| format!("read_dat: {e}"))?;
    let sensitive_items = drawn.items().iter().map(|&i| label[i as usize]).collect();
    let sensitive = SensitiveSet::new(sensitive_items, data.n_items());
    let queries = generate_workload_seeded(&data, &sensitive, QUERY_R, w.n_queries(), seed);
    if queries.is_empty() {
        return Err("no queries could be generated".into());
    }
    Ok(Inputs {
        dat,
        data,
        sensitive,
        queries,
    })
}

/// A permutation of `0..n` drawn from `seed` that keeps every id's
/// number of decimal digits.
fn relabeling(n: usize, seed: u64) -> Vec<ItemId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut label: Vec<ItemId> = (0..n as ItemId).collect();
    let mut lo = 0usize;
    let mut hi = 10usize;
    while lo < n {
        let class = &mut label[lo..hi.min(n)];
        for i in (1..class.len()).rev() {
            class.swap(i, rng.gen_range(0..i + 1));
        }
        lo = hi;
        hi *= 10;
    }
    label
}
