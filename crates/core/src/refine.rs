//! Local-search refinement of anonymized groups.
//!
//! CAHD is greedy: once a group forms, its membership is final. A cheap
//! post-pass can recover some of the utility the greedy pass left behind:
//! try swapping members between *nearby* groups (nearby in release order,
//! which follows the band order, so candidates are already similar) and
//! keep a swap when it increases the total intra-group QID overlap — the
//! same objective CAHD's candidate selection maximizes — without violating
//! the per-group sensitive-frequency bound.
//!
//! Swaps preserve group sizes, and privacy is re-checked explicitly for
//! both groups before a swap is applied, so the refined release satisfies
//! the same degree `p` and re-verifies like any other.

use cahd_data::{ItemId, SensitiveSet, TransactionSet};

use crate::group::{AnonymizedGroup, PublishedDataset};
use crate::invariant::strict_invariant;

/// Outcome counters of a refinement pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Swaps evaluated.
    pub swaps_tried: usize,
    /// Swaps that improved the objective and were kept.
    pub swaps_applied: usize,
    /// Total objective gain (QID-overlap units).
    pub objective_gain: u64,
    /// Full sweeps over the group sequence.
    pub sweeps: usize,
}

/// The intra-group similarity objective: total pairwise QID overlap
/// within groups, summed over the release. Higher is better; this is the
/// quantity CAHD's candidate selection maximizes greedily.
///
/// One counting pass, O(nnz), by the identity
/// `sum over pairs |a ∩ b| = sum over items C(c, 2)`, where `c` counts the
/// group's rows holding the item. Rows are read as sets (a repeated id
/// counts once, id order is irrelevant), which is exactly the pairwise
/// overlap on the strictly increasing rows every release carries. Ids are
/// only compared, never used as indices or sizes, so a tampered release
/// with out-of-range ids costs the same as a genuine one.
pub fn intra_group_overlap(published: &PublishedDataset) -> u64 {
    let mut entries: Vec<(ItemId, u32)> = Vec::new();
    let mut scratch = Vec::new();
    let mut total = 0u64;
    for g in &published.groups {
        entries.clear();
        for (r, row) in (0u32..).zip(&g.qid_rows) {
            entries.extend(row.iter().map(|&item| (item, r)));
        }
        sort_by_item(&mut entries, &mut scratch);
        // The sort is stable, so within one item's run the row indices
        // ascend and a row's repeats of the item are adjacent.
        for run in entries.chunk_by(|a, b| a.0 == b.0) {
            let rows = 1 + run.windows(2).filter(|w| w[0].1 != w[1].1).count() as u64;
            total += rows * (rows - 1) / 2;
        }
    }
    total
}

/// Stable LSD radix sort of `(item, row)` entries by item, one byte per
/// pass; a byte on which every entry agrees costs only its count.
fn sort_by_item(entries: &mut Vec<(ItemId, u32)>, scratch: &mut Vec<(ItemId, u32)>) {
    for shift in [0, 8, 16, 24] {
        let bucket = |item: ItemId| (item >> shift) as usize & 0xff;
        let mut offsets = [0usize; 256];
        for &(item, _) in entries.iter() {
            offsets[bucket(item)] += 1;
        }
        if offsets.contains(&entries.len()) {
            continue;
        }
        let mut start = 0;
        for slot in &mut offsets {
            (*slot, start) = (start, start + *slot);
        }
        scratch.clear();
        scratch.resize(entries.len(), (0, 0));
        for &e in entries.iter() {
            let b = bucket(e.0);
            scratch[offsets[b]] = e;
            offsets[b] += 1;
        }
        std::mem::swap(entries, scratch);
    }
}

fn overlap(a: &[ItemId], b: &[ItemId]) -> u64 {
    let (mut i, mut j, mut n) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Sum of a row's overlap with every other row of a group, skipping index
/// `skip` (use `usize::MAX` to include all rows).
fn affinity(group: &AnonymizedGroup, row: &[ItemId], skip: usize) -> u64 {
    group
        .qid_rows
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != skip)
        .map(|(_, r)| overlap(row, r))
        .sum()
}

/// Whether replacing the member carrying `outgoing` ranks by one carrying
/// `incoming` ranks keeps every sensitive item within `|G| / p`.
fn swap_keeps_privacy(
    group: &AnonymizedGroup,
    outgoing: &[usize],
    incoming: &[usize],
    sensitive: &SensitiveSet,
    p: usize,
) -> bool {
    let size = group.size();
    for &r in incoming {
        let item = sensitive.items()[r];
        let current = group.sensitive_count_of(item) as usize;
        let leaving = usize::from(outgoing.contains(&r));
        if (current - leaving + 1) * p > size {
            return false;
        }
    }
    true
}

/// Adjusts a group's sensitive summary for one member leaving (`out`) and
/// one joining (`inc`).
fn adjust_counts(
    group: &mut AnonymizedGroup,
    out: &[usize],
    inc: &[usize],
    sensitive: &SensitiveSet,
) {
    let mut counts: Vec<(ItemId, i64)> = group
        .sensitive_counts
        .iter()
        .map(|&(i, c)| (i, c as i64))
        .collect();
    let bump = |item: ItemId, delta: i64, counts: &mut Vec<(ItemId, i64)>| match counts
        .binary_search_by_key(&item, |&(i, _)| i)
    {
        Ok(k) => counts[k].1 += delta,
        Err(k) => counts.insert(k, (item, delta)),
    };
    for &r in out {
        bump(sensitive.items()[r], -1, &mut counts);
    }
    for &r in inc {
        bump(sensitive.items()[r], 1, &mut counts);
    }
    group.sensitive_counts = counts
        .into_iter()
        .filter(|&(_, c)| c > 0)
        .map(|(i, c)| (i, c as u32))
        .collect();
}

/// Groups larger than this multiple of the typical group are skipped:
/// refinement is quadratic in group size, and the one oversized group a
/// CAHD release can contain (the leftover fallback) would dominate the
/// cost for negligible benefit.
const MAX_REFINE_GROUP: usize = 64;

/// Refines `published` in place by member swaps between nearby groups,
/// returning the pass statistics.
///
/// `window` controls how many following groups each group trades with
/// (1 = immediate neighbor); `max_sweeps` bounds the hill-climbing passes
/// (stops earlier when a sweep makes no progress). `data` provides the
/// per-member sensitive items (the release only stores aggregates).
/// Groups larger than an internal cap (notably CAHD's leftover fallback
/// group) are left untouched.
pub fn refine_groups(
    published: &mut PublishedDataset,
    data: &TransactionSet,
    sensitive: &SensitiveSet,
    p: usize,
    window: usize,
    max_sweeps: usize,
) -> RefineStats {
    let member_sens =
        |id: u32| -> Vec<usize> { sensitive.split_transaction(data.transaction(id as usize)).1 };
    let mut stats = RefineStats::default();
    for _ in 0..max_sweeps {
        stats.sweeps += 1;
        let mut improved = false;
        for gi in 0..published.groups.len() {
            for gj in (gi + 1)..(gi + 1 + window).min(published.groups.len()) {
                let (left, right) = published.groups.split_at_mut(gj);
                let ga = &mut left[gi];
                let gb = &mut right[0];
                if ga.size() > MAX_REFINE_GROUP || gb.size() > MAX_REFINE_GROUP {
                    continue;
                }
                let mut best: Option<(i64, usize, usize)> = None;
                for a in 0..ga.qid_rows.len() {
                    for b in 0..gb.qid_rows.len() {
                        stats.swaps_tried += 1;
                        let row_a = &ga.qid_rows[a];
                        let row_b = &gb.qid_rows[b];
                        let gain = affinity(ga, row_b, a) as i64 + affinity(gb, row_a, b) as i64
                            - affinity(ga, row_a, a) as i64
                            - affinity(gb, row_b, b) as i64;
                        if gain <= best.map_or(0, |(g, _, _)| g) {
                            continue;
                        }
                        let sens_a = member_sens(ga.members[a]);
                        let sens_b = member_sens(gb.members[b]);
                        if swap_keeps_privacy(ga, &sens_a, &sens_b, sensitive, p)
                            && swap_keeps_privacy(gb, &sens_b, &sens_a, sensitive, p)
                        {
                            best = Some((gain, a, b));
                        }
                    }
                }
                if let Some((gain, a, b)) = best {
                    let sens_a = member_sens(ga.members[a]);
                    let sens_b = member_sens(gb.members[b]);
                    std::mem::swap(&mut ga.members[a], &mut gb.members[b]);
                    let row_a = std::mem::take(&mut ga.qid_rows[a]);
                    let row_b = std::mem::take(&mut gb.qid_rows[b]);
                    ga.qid_rows[a] = row_b;
                    gb.qid_rows[b] = row_a;
                    adjust_counts(ga, &sens_a, &sens_b, sensitive);
                    adjust_counts(gb, &sens_b, &sens_a, sensitive);
                    strict_invariant!(
                        ga.satisfies(p) && gb.satisfies(p),
                        "an applied swap must preserve privacy degree p"
                    );
                    stats.swaps_applied += 1;
                    stats.objective_gain += gain as u64;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_published;
    use proptest::prelude::*;

    /// The former pairwise-merge objective, kept as the oracle for the
    /// counting pass.
    fn pairwise_overlap(published: &PublishedDataset) -> u64 {
        let mut total = 0u64;
        for g in &published.groups {
            for a in 0..g.qid_rows.len() {
                for b in (a + 1)..g.qid_rows.len() {
                    total += overlap(&g.qid_rows[a], &g.qid_rows[b]);
                }
            }
        }
        total
    }

    /// A release whose groups draw their rows from a small pool, so large
    /// groups are full of duplicate rows. Only `qid_rows` matters here.
    fn release_from_pool(pool: &[Vec<ItemId>], groups: &[Vec<usize>]) -> PublishedDataset {
        PublishedDataset {
            n_items: 24,
            sensitive_items: Vec::new(),
            groups: groups
                .iter()
                .map(|picks| AnonymizedGroup {
                    members: (0..picks.len() as u32).collect(),
                    qid_rows: picks
                        .iter()
                        .map(|&k| pool[k % pool.len()].clone())
                        .collect(),
                    sensitive_counts: Vec::new(),
                })
                .collect(),
        }
    }

    fn arb_groups() -> impl Strategy<Value = Vec<Vec<usize>>> {
        collection::vec(collection::vec(0usize..64, 0..160), 1..5)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn counting_overlap_matches_pairwise_merge(
            pool in collection::vec(collection::btree_set(0u32..24, 0..8), 1..40),
            groups in arb_groups(),
        ) {
            let pool: Vec<Vec<ItemId>> = pool.into_iter().map(|s| s.into_iter().collect()).collect();
            let release = release_from_pool(&pool, &groups);
            prop_assert_eq!(intra_group_overlap(&release), pairwise_overlap(&release));
        }

        #[test]
        fn hostile_rows_count_as_sets(
            pool in collection::vec(collection::vec(0usize..8, 0..8), 1..40),
            groups in arb_groups(),
        ) {
            // Unsorted rows, repeated ids and ids far beyond `n_items`.
            const IDS: [ItemId; 8] = [3, 0, 7, 300, 1 << 24, u32::MAX - 1, u32::MAX, 0x00ff_ff00];
            let pool: Vec<Vec<ItemId>> =
                pool.iter().map(|row| row.iter().map(|&k| IDS[k]).collect()).collect();
            let release = release_from_pool(&pool, &groups);
            let mut as_sets = release.clone();
            for row in as_sets.groups.iter_mut().flat_map(|g| g.qid_rows.iter_mut()) {
                row.sort_unstable();
                row.dedup();
            }
            prop_assert_eq!(intra_group_overlap(&release), pairwise_overlap(&as_sets));
        }
    }

    /// Two groups built badly on purpose: each mixes the two QID blocks.
    fn mixed_release() -> (TransactionSet, SensitiveSet, PublishedDataset) {
        let data = TransactionSet::from_rows(
            &[
                vec![0, 1, 8], // block A, sensitive
                vec![4, 5],    // block B
                vec![0, 1],    // block A
                vec![4, 5, 9], // block B, sensitive
            ],
            10,
        );
        let sens = SensitiveSet::new(vec![8, 9], 10);
        let published = PublishedDataset {
            n_items: 10,
            sensitive_items: vec![8, 9],
            groups: vec![
                AnonymizedGroup::from_members(&data, &sens, &[0, 1]),
                AnonymizedGroup::from_members(&data, &sens, &[2, 3]),
            ],
        };
        (data, sens, published)
    }

    #[test]
    fn refinement_improves_objective_and_stays_private() {
        let (data, sens, mut published) = mixed_release();
        let before = intra_group_overlap(&published);
        assert_eq!(before, 0); // blocks are mixed: zero overlap
        let stats = refine_groups(&mut published, &data, &sens, 2, 1, 5);
        assert!(stats.swaps_applied >= 1, "{stats:?}");
        let after = intra_group_overlap(&published);
        assert!(after > before, "after {after} <= before {before}");
        verify_published(&data, &sens, &published, 2).unwrap();
        // The blocks should now be grouped together.
        let g0: Vec<u32> = published.groups[0].members.clone();
        assert!(g0 == vec![0, 2] || g0 == vec![2, 0] || g0 == vec![1, 3] || g0 == vec![3, 1]);
    }

    #[test]
    fn refinement_never_violates_privacy_bound() {
        // Both sensitive transactions share item 8; putting them in one
        // group would violate p = 2 — the privacy check must block it even
        // if it improved overlap.
        let data =
            TransactionSet::from_rows(&[vec![0, 1, 8], vec![2, 3], vec![0, 1, 8], vec![2, 3]], 10);
        let sens = SensitiveSet::new(vec![8], 10);
        let mut published = PublishedDataset {
            n_items: 10,
            sensitive_items: vec![8],
            groups: vec![
                AnonymizedGroup::from_members(&data, &sens, &[0, 1]),
                AnonymizedGroup::from_members(&data, &sens, &[2, 3]),
            ],
        };
        refine_groups(&mut published, &data, &sens, 2, 1, 5);
        verify_published(&data, &sens, &published, 2).unwrap();
    }

    #[test]
    fn already_optimal_release_unchanged() {
        let (data, sens, mut published) = mixed_release();
        refine_groups(&mut published, &data, &sens, 2, 1, 5);
        let snapshot = published.clone();
        let stats = refine_groups(&mut published, &data, &sens, 2, 1, 5);
        assert_eq!(stats.swaps_applied, 0);
        assert_eq!(published, snapshot);
    }

    #[test]
    fn objective_gain_matches_measured_delta() {
        let (data, sens, mut published) = mixed_release();
        let before = intra_group_overlap(&published);
        let stats = refine_groups(&mut published, &data, &sens, 2, 1, 5);
        let after = intra_group_overlap(&published);
        assert_eq!(after - before, stats.objective_gain);
    }

    #[test]
    fn window_zero_is_a_no_op() {
        let (data, sens, mut published) = mixed_release();
        let stats = refine_groups(&mut published, &data, &sens, 2, 0, 5);
        assert_eq!(stats.swaps_tried, 0);
    }
}
