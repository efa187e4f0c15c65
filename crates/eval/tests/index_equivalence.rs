//! The release index against the per-query scans it replaced, and the
//! semantics it pins for hostile rows.
//!
//! * Indexed KL (the workload runner and [`ReleaseIndex::estimated_pdf`])
//!   equals the [`actual_pdf`]/[`estimated_pdf`] oracle bit for bit, on
//!   random releases rich in duplicate QID rows, empty rows, groups
//!   that lack the queried item and groups with counts but no rows
//!   (which hold nothing), under queries of up to 9 group-by items.
//! * Hostile rows: ids `>= n_items` never match, and unsorted or repeated
//!   rows are read as sets — every consumer of the index sees a hostile
//!   release exactly as it sees the release of the normalized rows.

use cahd_core::{AnonymizedGroup, PublishedDataset};
use cahd_data::{ItemId, SensitiveSet, TransactionSet};
use cahd_eval::{
    actual_pdf, average_relative_error, derive_seed, estimated_pdf, kl_divergence,
    run_attack_suite, workload_kls, AttackPlan, AttackTarget, GroupByQuery, ReleaseIndex,
    DEFAULT_SMOOTHING,
};
use proptest::prelude::*;

const N_ITEMS: usize = 12;
const SENSITIVE: [ItemId; 2] = [10, 11];

fn arb_data() -> impl Strategy<Value = TransactionSet> {
    collection::vec(collection::vec(0u32..N_ITEMS as u32, 0..5), 1..40)
        .prop_map(|rows| TransactionSet::from_rows(&rows, N_ITEMS))
}

/// Group specs: the pool rows each group publishes, and its counts of the
/// two sensitive items (zero counts are left out of the summary).
fn arb_groups() -> impl Strategy<Value = Vec<(Vec<usize>, (u32, u32))>> {
    collection::vec(
        (collection::vec(0usize..64, 0..12), (0u32..4, 0u32..4)),
        1..12,
    )
}

fn release_from_pool(
    pool: &[Vec<ItemId>],
    groups: &[(Vec<usize>, (u32, u32))],
) -> PublishedDataset {
    PublishedDataset {
        n_items: N_ITEMS,
        sensitive_items: SENSITIVE.to_vec(),
        groups: groups
            .iter()
            .map(|(picks, (c10, c11))| AnonymizedGroup {
                members: (0..picks.len() as u32).collect(),
                qid_rows: picks
                    .iter()
                    .map(|&k| pool[k % pool.len()].clone())
                    .collect(),
                sensitive_counts: [(10, *c10), (11, *c11)]
                    .into_iter()
                    .filter(|&(_, c)| c > 0)
                    .collect(),
            })
            .collect(),
    }
}

/// Queries over the items `0..10`, each group-by list in a seeded order;
/// item 9 is never sensitive, so its queries have no estimate. Lists of
/// up to 9 items give cell masks wider than 4 bits.
fn queries_of(specs: &[(u32, Vec<u32>, u64)]) -> Vec<GroupByQuery> {
    specs
        .iter()
        .map(|(s, qid, seed)| {
            let mut qid: Vec<u32> = qid.iter().copied().filter(|&q| q != *s).collect();
            qid.sort_unstable();
            qid.dedup();
            qid.sort_by_key(|&q| derive_seed(*seed, u64::from(q)));
            GroupByQuery::new(*s, qid)
        })
        .collect()
}

fn arb_queries() -> impl Strategy<Value = Vec<(u32, Vec<u32>, u64)>> {
    collection::vec(
        (9u32..12, collection::vec(0u32..10, 0..10), 0u64..1 << 40),
        1..12,
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The release with every row normalized: in-universe ids, sorted, once.
fn normalized(release: &PublishedDataset) -> PublishedDataset {
    let mut out = release.clone();
    for row in out.groups.iter_mut().flat_map(|g| g.qid_rows.iter_mut()) {
        row.retain(|&i| (i as usize) < N_ITEMS);
        row.sort_unstable();
        row.dedup();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_kl_matches_the_scan_oracle_bitwise(
        data in arb_data(),
        pool in collection::vec(collection::btree_set(0u32..10, 0..7), 1..24),
        groups in arb_groups(),
        specs in arb_queries(),
    ) {
        let pool: Vec<Vec<ItemId>> = pool.into_iter().map(|s| s.into_iter().collect()).collect();
        let release = release_from_pool(&pool, &groups);
        let queries = queries_of(&specs);
        let index = ReleaseIndex::new(&release, N_ITEMS);
        let kls = workload_kls(&data, &release, &queries);
        let mut are_total = 0.0;
        let mut are_n = 0usize;
        for (q, kl) in queries.iter().zip(&kls) {
            let est = estimated_pdf(&release, q);
            prop_assert_eq!(index.estimated_pdf(q).map(|e| bits(&e)), est.as_ref().map(|e| bits(e)));
            // Groups with counts but no rows hold nothing: no `a·0/0`.
            prop_assert!(est.iter().flatten().all(|e| !e.is_nan()));
            let oracle = match (actual_pdf(&data, q), est) {
                (Some(act), Some(est)) => {
                    for (&a, &e) in act.iter().zip(&est) {
                        if a > 0.0 {
                            are_total += (e - a).abs() / a;
                            are_n += 1;
                        }
                    }
                    Some(kl_divergence(&act, &est, DEFAULT_SMOOTHING))
                }
                _ => None,
            };
            prop_assert_eq!(kl.map(f64::to_bits), oracle.map(f64::to_bits));
            prop_assert!(kl.is_none_or(|k| !k.is_nan()));
        }
        let are = average_relative_error(&data, &release, &queries);
        prop_assert_eq!(are.map(f64::to_bits), (are_n > 0).then(|| (are_total / are_n as f64).to_bits()));
    }

    #[test]
    fn hostile_sensitive_summaries_read_like_the_oracle(
        pool in collection::vec(collection::btree_set(0u32..10, 0..4), 1..24),
        groups in collection::vec(
            (collection::vec(0usize..64, 1..8), collection::vec((9u32..12, 1u32..4), 0..5)),
            1..8,
        ),
        specs in arb_queries(),
    ) {
        // Unsorted summaries with repeated items: a query reads whatever
        // count `sensitive_count_of` finds, once per group.
        let pool: Vec<Vec<ItemId>> = pool.into_iter().map(|s| s.into_iter().collect()).collect();
        let release = PublishedDataset {
            n_items: N_ITEMS,
            sensitive_items: SENSITIVE.to_vec(),
            groups: groups
                .iter()
                .map(|(picks, counts)| AnonymizedGroup {
                    members: (0..picks.len() as u32).collect(),
                    qid_rows: picks.iter().map(|&k| pool[k % pool.len()].clone()).collect(),
                    sensitive_counts: counts.clone(),
                })
                .collect(),
        };
        let index = ReleaseIndex::new(&release, N_ITEMS);
        for q in queries_of(&specs) {
            prop_assert_eq!(
                index.estimated_pdf(&q).map(|e| bits(&e)),
                estimated_pdf(&release, &q).map(|e| bits(&e))
            );
        }
    }

    #[test]
    fn hostile_rows_read_as_normalized_sets(
        data in arb_data(),
        pool in collection::vec(collection::vec(0usize..10, 0..6), 1..24),
        groups in arb_groups(),
        specs in arb_queries(),
        seed in 0u64..1 << 40,
    ) {
        // Unsorted rows, repeated ids and ids at or far beyond `n_items`.
        const IDS: [ItemId; 10] = [3, 0, 7, 1, 5, 12, 300, 1 << 24, u32::MAX - 1, u32::MAX];
        let pool: Vec<Vec<ItemId>> =
            pool.iter().map(|row| row.iter().map(|&k| IDS[k]).collect()).collect();
        let hostile = release_from_pool(&pool, &groups);
        let clean = normalized(&hostile);
        let queries = queries_of(&specs);
        let kl_bits = |r: &PublishedDataset| -> Vec<Option<u64>> {
            workload_kls(&data, r, &queries).into_iter().map(|k| k.map(f64::to_bits)).collect()
        };
        prop_assert_eq!(kl_bits(&hostile), kl_bits(&clean));
        let sensitive = SensitiveSet::new(SENSITIVE.to_vec(), N_ITEMS);
        let plan = AttackPlan { seed, ks: vec![1, 2], trials: 16, ..AttackPlan::default() };
        let attack = |r: &PublishedDataset| {
            let targets = [AttackTarget::release("a", r), AttackTarget::release("b", &clean)];
            serde_json::to_string(&run_attack_suite(&data, &sensitive, 2, &targets, &plan)).unwrap()
        };
        prop_assert_eq!(attack(&hostile), attack(&clean));
    }
}

#[test]
fn ids_beyond_the_universe_never_match() {
    let release = PublishedDataset {
        n_items: N_ITEMS,
        sensitive_items: SENSITIVE.to_vec(),
        groups: vec![AnonymizedGroup {
            members: vec![0, 1],
            qid_rows: vec![vec![1, 12, 300, u32::MAX], vec![u32::MAX]],
            sensitive_counts: vec![(10, 1)],
        }],
    };
    let index = ReleaseIndex::new(&release, N_ITEMS);
    assert_eq!(index.row(0), &[1]);
    assert_eq!(index.row(1), &[] as &[ItemId]);
    for id in [12, 300, u32::MAX] {
        assert!(index.postings(id).is_empty(), "id {id}");
    }
    let mut rows = Vec::new();
    index.rows_with_all(&[1, u32::MAX], &mut rows);
    assert!(rows.is_empty());
    // The out-of-universe ids do not move a query's cells: both rows of
    // the group sit where the clean rows would.
    let est = index
        .estimated_pdf(&GroupByQuery::new(10, vec![1]))
        .unwrap();
    assert_eq!(est, vec![0.5, 0.5]);
    assert_eq!(index.content_of(1), 0);
}

#[test]
fn unsorted_and_repeated_rows_read_as_sets() {
    let release = PublishedDataset {
        n_items: N_ITEMS,
        sensitive_items: SENSITIVE.to_vec(),
        groups: vec![AnonymizedGroup {
            members: vec![0, 1, 2],
            qid_rows: vec![vec![5, 3, 3], vec![3, 5], vec![5, 5, 5]],
            sensitive_counts: vec![(11, 1)],
        }],
    };
    let index = ReleaseIndex::new(&release, N_ITEMS);
    assert_eq!(index.row(0), &[3, 5]);
    assert_eq!(index.row(2), &[5]);
    assert_eq!(index.postings(3), &[0, 1]);
    assert_eq!(index.postings(5), &[0, 1, 2]);
    // The reversed, repeated row and the clean one are one content.
    assert_eq!(index.content_of(0), index.content_of(1));
    assert_ne!(index.content_of(0), index.content_of(2));
    let est = index
        .estimated_pdf(&GroupByQuery::new(11, vec![3, 5]))
        .unwrap();
    assert_eq!(est, vec![0.0, 0.0, 1.0 / 3.0, 2.0 / 3.0]);
}
