//! Actual and estimated PDFs of a sensitive item over query cells.
//!
//! *Actual* (from the original data): the fraction of `s`'s occurrences
//! falling into each cell. *Estimated* (from the published groups): eq. (2)
//! of the paper — within a group `G` holding `a` occurrences of `s`, each
//! member matching a cell contributes `a / |G|` expected occurrences,
//! because every assignment of the permuted sensitive items to members is
//! equally likely.

use cahd_core::PublishedDataset;
use cahd_data::TransactionSet;

use crate::cells::{cell_of, n_cells};
use crate::query::GroupByQuery;

/// The actual PDF of `query.sensitive` over the query's cells, computed
/// from the original data. Returns `None` when the sensitive item never
/// occurs (the PDF is undefined).
pub fn actual_pdf(data: &TransactionSet, query: &GroupByQuery) -> Option<Vec<f64>> {
    let mut counts = vec![0u64; n_cells(query.r())];
    let mut total = 0u64;
    for txn in data.iter() {
        if txn.binary_search(&query.sensitive).is_ok() {
            counts[cell_of(txn, &query.qid) as usize] += 1;
            total += 1;
        }
    }
    if total == 0 {
        return None;
    }
    Some(counts.iter().map(|&c| c as f64 / total as f64).collect())
}

/// The estimated PDF of `query.sensitive` over the query's cells, computed
/// from the published groups via eq. (2). Returns `None` when the item
/// never occurs in the release.
///
/// A group without QID rows has no member to spread its count over
/// (`a·0/0`): it contributes neither rows nor a count, so a query whose
/// every holder is such a group returns `None` too.
///
/// Published QID rows contain no sensitive items, so the query's QID items
/// are matched directly against them; the caller must not put sensitive
/// items into the group-by list ([`GroupByQuery::new`] enforces the queried
/// sensitive item, and the workload generator excludes all of `S`).
pub fn estimated_pdf(published: &PublishedDataset, query: &GroupByQuery) -> Option<Vec<f64>> {
    let nc = n_cells(query.r());
    let mut est = vec![0f64; nc];
    let mut total = 0u64;
    let mut b = vec![0u64; nc];
    for group in &published.groups {
        let a = group.sensitive_count_of(query.sensitive);
        if a == 0 || group.qid_rows.is_empty() {
            continue;
        }
        total += a as u64;
        b.iter_mut().for_each(|x| *x = 0);
        for row in &group.qid_rows {
            b[cell_of(row, &query.qid) as usize] += 1;
        }
        let g = group.size() as f64;
        for (e, &bc) in est.iter_mut().zip(&b) {
            *e += a as f64 * bc as f64 / g;
        }
    }
    if total == 0 {
        return None;
    }
    let t = total as f64;
    est.iter_mut().for_each(|e| *e /= t);
    Some(est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_core::AnonymizedGroup;
    use cahd_data::SensitiveSet;

    /// The paper's Fig. 2 scenario: pregnancy test (item 4) over cream
    /// (item 2) and meat (item 1), with the Fig. 1 data.
    fn fig1() -> (TransactionSet, SensitiveSet) {
        // items: 0 wine, 1 meat, 2 cream, 3 strawberries, 4 preg (S), 5 viagra (S)
        let data = TransactionSet::from_rows(
            &[
                vec![0, 1, 5], // Bob
                vec![0, 1],    // David
                vec![0, 1, 2], // Ellen
                vec![1, 3],    // Andrea
                vec![2, 3, 4], // Claire
            ],
            6,
        );
        (data, SensitiveSet::new(vec![4, 5], 6))
    }

    fn fig1_published(data: &TransactionSet, sens: &SensitiveSet) -> PublishedDataset {
        // The paper's Fig. 1c groups: {Bob, David, Ellen} and {Andrea, Claire}.
        PublishedDataset {
            n_items: 6,
            sensitive_items: sens.items().to_vec(),
            groups: vec![
                AnonymizedGroup::from_members(data, sens, &[0, 1, 2]),
                AnonymizedGroup::from_members(data, sens, &[3, 4]),
            ],
        }
    }

    #[test]
    fn actual_pdf_matches_fig2() {
        let (data, _) = fig1();
        // query: sensitive 4 (pregnancy) over (cream=2, meat=1)
        let q = GroupByQuery::new(4, vec![2, 1]);
        let act = actual_pdf(&data, &q).unwrap();
        // Claire (cream yes, meat no) is the only occurrence: cell 0b01.
        assert_eq!(act, vec![0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn estimated_pdf_matches_fig2() {
        let (data, sens) = fig1();
        let pub_ = fig1_published(&data, &sens);
        let q = GroupByQuery::new(4, vec![2, 1]);
        let est = estimated_pdf(&pub_, &q).unwrap();
        // Group {Andrea, Claire} has a=1; Andrea -> (cream no, meat yes) =
        // cell 0b10, Claire -> (cream yes, meat no) = cell 0b01; each gets
        // 1 * 1/2 = 0.5, matching the paper's "50%" discussion.
        assert!((est[0b01] - 0.5).abs() < 1e-12);
        assert!((est[0b10] - 0.5).abs() < 1e-12);
        assert_eq!(est[0b00], 0.0);
        assert_eq!(est[0b11], 0.0);
    }

    #[test]
    fn identical_qid_groups_reconstruct_exactly() {
        // If all group members share the same cell, estimation is exact.
        let data = TransactionSet::from_rows(&[vec![0, 3], vec![0], vec![1], vec![1]], 4);
        let sens = SensitiveSet::new(vec![3], 4);
        let pub_ = PublishedDataset {
            n_items: 4,
            sensitive_items: vec![3],
            groups: vec![
                AnonymizedGroup::from_members(&data, &sens, &[0, 1]),
                AnonymizedGroup::from_members(&data, &sens, &[2, 3]),
            ],
        };
        let q = GroupByQuery::new(3, vec![0]);
        let act = actual_pdf(&data, &q).unwrap();
        let est = estimated_pdf(&pub_, &q).unwrap();
        assert_eq!(act, est); // both [0, 1]
    }

    #[test]
    fn pdfs_sum_to_one() {
        let (data, sens) = fig1();
        let pub_ = fig1_published(&data, &sens);
        for q in [
            GroupByQuery::new(4, vec![0, 1, 2, 3]),
            GroupByQuery::new(5, vec![2, 3]),
        ] {
            let act: f64 = actual_pdf(&data, &q).unwrap().iter().sum();
            let est: f64 = estimated_pdf(&pub_, &q).unwrap().iter().sum();
            assert!((act - 1.0).abs() < 1e-9, "act sums to {act}");
            assert!((est - 1.0).abs() < 1e-9, "est sums to {est}");
        }
    }

    #[test]
    fn absent_item_gives_none() {
        let (data, sens) = fig1();
        let pub_ = fig1_published(&data, &sens);
        let data2 = TransactionSet::from_rows(&[vec![0]], 6);
        let q = GroupByQuery::new(4, vec![1]);
        assert!(actual_pdf(&data2, &q).is_none());
        let empty_pub = PublishedDataset {
            n_items: 6,
            sensitive_items: vec![4],
            groups: vec![],
        };
        assert!(estimated_pdf(&empty_pub, &q).is_none());
        // sanity: the real ones are Some
        assert!(actual_pdf(&data, &q).is_some());
        assert!(estimated_pdf(&pub_, &q).is_some());
    }
}
