//! The release index: one pass over a release's published QID rows that
//! the KL evaluation and every adversary share.
//!
//! Built once per release and data universe, it holds
//!
//! * the flat QID rows in publication order, with a row → group map;
//! * for each item, the sorted posting list of flat rows containing it;
//! * a content id per row: the rank of the row's item set among the
//!   release's distinct item sets in lexicographic order, assigned on
//!   first use by sorting the rows (no hash map), so sorted content-id
//!   vectors of two releases can be intersected by comparing the sets
//!   they name;
//! * per item, the groups whose sensitive summary holds it, with counts.
//!
//! A query or attack trial then costs the lengths of the posting lists it
//! reads instead of a scan over every published row.
//!
//! **Hostile rows.** A release file may carry rows that are not strictly
//! increasing, or ids beyond the data's universe. Every row is read as a
//! set: a repeated id counts once and id order is irrelevant. Ids
//! `>= n_items` are dropped, so they never match a query or a known item,
//! and no allocation is ever sized by an id read from the release.
//! A group that publishes no QID rows yet claims sensitive counts would
//! spread them over no member (`a·0/0`): it holds no item, so it adds
//! neither rows nor a count to a query, and a query whose every holder is
//! such a group is skipped, as for an item no group holds.

use std::cell::OnceCell;
use std::ops::Range;

use cahd_core::PublishedDataset;
use cahd_data::{ItemId, SensitiveSet, TransactionSet};

use crate::cells::n_cells;
use crate::query::GroupByQuery;

/// Posting lists, group ranges and content ids over one release's QID
/// rows (see the module docs).
#[derive(Debug)]
pub struct ReleaseIndex {
    /// Row `r`'s items are `items[row_start[r]..row_start[r + 1]]`:
    /// sorted, distinct and below the universe size.
    row_start: Vec<usize>,
    items: Vec<ItemId>,
    /// The group each row belongs to.
    row_group: Vec<u32>,
    /// Group `g` owns the rows `group_start[g]..group_start[g + 1]`.
    group_start: Vec<usize>,
    /// Item `i`'s rows are `post_rows[post_start[i]..post_start[i + 1]]`.
    post_start: Vec<usize>,
    post_rows: Vec<u32>,
    /// Content ids, sorted out on first use (only the intersection
    /// attacker reads them).
    contents: OnceCell<Contents>,
    /// `(item, group, count)` for every group whose sensitive summary
    /// holds `item`, sorted by item, then group.
    holders: Vec<(ItemId, u32, u32)>,
}

impl ReleaseIndex {
    /// Indexes `published` over the item universe `0..n_items` (the
    /// data's, not the release's own claim).
    pub fn new(published: &PublishedDataset, n_items: usize) -> Self {
        let rows = published.groups.iter().flat_map(|g| &g.qid_rows);
        let mut builder = Builder::new(
            n_items,
            published.groups.len(),
            rows.clone().count(),
            rows.map(Vec::len).sum(),
        );
        for g in &published.groups {
            for row in &g.qid_rows {
                builder.push_row(row);
            }
            builder.end_group();
        }
        let mut holders: Vec<(ItemId, u32, u32)> = Vec::new();
        for (gi, g) in (0u32..).zip(&published.groups) {
            // A group without rows has no member to carry its counts.
            if g.qid_rows.is_empty() {
                continue;
            }
            for &(item, _) in &g.sensitive_counts {
                // The count a query of `item` reads, whatever the order
                // of the summary.
                let a = g.sensitive_count_of(item);
                if a > 0 {
                    holders.push((item, gi, a));
                }
            }
        }
        holders.sort_unstable();
        holders.dedup();
        builder.finish(holders)
    }

    /// Indexes the raw data's QID rows (each transaction minus its
    /// sensitive items), one group per transaction.
    pub fn raw(data: &TransactionSet, sensitive: &SensitiveSet) -> Self {
        let n = data.n_transactions();
        let mut builder = Builder::new(data.n_items(), n, n, data.total_items());
        for txn in data.iter() {
            builder.push_row_filtered(txn, |i| !sensitive.contains(i));
            builder.end_group();
        }
        builder.finish(Vec::new())
    }

    /// Number of indexed rows.
    pub fn n_rows(&self) -> usize {
        self.row_group.len()
    }

    /// Row `r`'s item set, sorted.
    pub fn row(&self, r: usize) -> &[ItemId] {
        &self.items[self.row_start[r]..self.row_start[r + 1]]
    }

    /// The group row `r` belongs to.
    pub fn group_of(&self, r: usize) -> usize {
        self.row_group[r] as usize
    }

    /// The groups holding `rows` (ascending), each with how many of the
    /// rows it holds, in group order.
    pub fn group_counts<'r>(
        &'r self,
        rows: &'r [u32],
    ) -> impl Iterator<Item = (usize, usize)> + 'r {
        rows.chunk_by(|&x, &y| self.row_group[x as usize] == self.row_group[y as usize])
            .map(|run| (self.group_of(run[0] as usize), run.len()))
    }

    /// The rows of group `g`.
    fn group_rows(&self, g: usize) -> Range<usize> {
        self.group_start[g]..self.group_start[g + 1]
    }

    /// The rows containing `item`, ascending (empty beyond the universe).
    pub fn postings(&self, item: ItemId) -> &[u32] {
        let i = item as usize;
        if i + 1 >= self.post_start.len() {
            return &[];
        }
        &self.post_rows[self.post_start[i]..self.post_start[i + 1]]
    }

    /// Row `r`'s content id: equal ids, equal item sets.
    pub fn content_of(&self, r: usize) -> u32 {
        self.contents().content[r]
    }

    /// The item set with content id `c`.
    pub fn content_items(&self, c: u32) -> &[ItemId] {
        self.row(self.contents().content_row[c as usize] as usize)
    }

    /// Content ids: the ranks of the distinct item sets, by sorting rows.
    fn contents(&self) -> &Contents {
        self.contents.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.n_rows() as u32).collect();
            order.sort_unstable_by(|&x, &y| self.row(x as usize).cmp(self.row(y as usize)));
            let mut content = vec![0u32; order.len()];
            let mut content_row: Vec<u32> = Vec::new();
            for (j, &r) in order.iter().enumerate() {
                if j == 0 || self.row(order[j - 1] as usize) != self.row(r as usize) {
                    content_row.push(r);
                }
                content[r as usize] = content_row.len() as u32 - 1;
            }
            Contents {
                content,
                content_row,
            }
        })
    }

    /// `(item, group, count)` for the groups whose sensitive summary holds
    /// `item`, in group order.
    fn holders(&self, item: ItemId) -> &[(ItemId, u32, u32)] {
        let lo = self.holders.partition_point(|h| h.0 < item);
        let hi = lo + self.holders[lo..].partition_point(|h| h.0 == item);
        &self.holders[lo..hi]
    }

    /// Writes into `out` the rows containing every item of `known`,
    /// ascending. Every row matches an empty `known`.
    pub fn rows_with_all(&self, known: &[ItemId], out: &mut Vec<u32>) {
        out.clear();
        let Some((first, _)) = known
            .iter()
            .enumerate()
            .min_by_key(|&(_, &i)| self.postings(i).len())
        else {
            out.extend(0..self.n_rows() as u32);
            return;
        };
        out.extend_from_slice(self.postings(known[first]));
        for (j, &item) in known.iter().enumerate() {
            if j == first || out.is_empty() {
                continue;
            }
            let mut rest = self.postings(item);
            out.retain(|&r| {
                rest = &rest[rest.partition_point(|&x| x < r)..];
                rest.first() == Some(&r)
            });
        }
    }

    /// The estimated PDF of `query.sensitive` over the query's cells,
    /// eq. (2): the same value, bit for bit, as
    /// [`crate::reconstruct::estimated_pdf`] on a release of well-formed
    /// rows, at the cost of one walk over the query's QID posting lists.
    pub fn estimated_pdf(&self, query: &GroupByQuery) -> Option<Vec<f64>> {
        self.estimated_pdf_with(query, &mut PdfScratch::default())
    }

    /// [`Self::estimated_pdf`] on caller-owned scratch, so a workload
    /// sizes it once. Per query it costs the query's postings, the rows
    /// they touch in holder groups, the holders and the `2^r` cells:
    ///
    /// 1. mark the groups that hold the sensitive item;
    /// 2. walk the QID postings, OR-ing each cell bit into the mask of
    ///    every row of a holder group;
    /// 3. bucket the touched rows by holder (a counting sort; holders are
    ///    in group order);
    /// 4. per holder, add `a·b/|g|` to the cells its rows fall in, and to
    ///    cell 0 for its untouched rows.
    ///
    /// Each cell still sums its terms in group order. The skipped terms
    /// are `+0.0`, and adding `+0.0` to a cell that is never `-0.0` is
    /// exact, so the result is that of the per-group loop over all cells.
    pub(crate) fn estimated_pdf_with(
        &self,
        query: &GroupByQuery,
        scratch: &mut PdfScratch,
    ) -> Option<Vec<f64>> {
        let nc = n_cells(query.r());
        let holders = self.holders(query.sensitive);
        if holders.is_empty() {
            return None;
        }
        scratch.fit(self.group_start.len() - 1, self.n_rows(), nc);
        let PdfScratch {
            holder_of,
            mask,
            touched,
            by_holder,
            end,
            count,
            cells,
        } = scratch;
        for (h, &(_, g, _)) in (0u32..).zip(holders) {
            holder_of[g as usize] = h;
        }
        let holder_of_row = |r: u32| holder_of[self.row_group[r as usize] as usize];
        for (bit, &q) in query.qid.iter().enumerate() {
            for &r in self.postings(q) {
                if holder_of_row(r) == NO_HOLDER {
                    continue;
                }
                let m = &mut mask[r as usize];
                if *m == 0 {
                    touched.push(r);
                }
                *m |= 1 << bit;
            }
        }
        // Counting sort: `end[h]` counts, then starts, then ends holder
        // `h`'s bucket.
        end.clear();
        end.resize(holders.len(), 0);
        for &r in touched.iter() {
            end[holder_of_row(r) as usize] += 1;
        }
        let mut sum = 0;
        for e in end.iter_mut() {
            let n = *e;
            *e = sum;
            sum += n;
        }
        by_holder.resize(touched.len(), 0);
        for &r in touched.iter() {
            let e = &mut end[holder_of_row(r) as usize];
            by_holder[*e as usize] = r;
            *e += 1;
        }

        let mut est = vec![0f64; nc];
        let mut total = 0u64;
        let mut start = 0;
        for (&(_, g, a), &stop) in holders.iter().zip(end.iter()) {
            let rows = &by_holder[start as usize..stop as usize];
            start = stop;
            for &r in rows {
                let c = mask[r as usize];
                if count[c as usize] == 0 {
                    cells.push(c);
                }
                count[c as usize] += 1;
            }
            total += u64::from(a);
            let size = self.group_rows(g as usize).len();
            let g = size as f64;
            // Touched rows have a non-zero mask: cell 0 holds the rest.
            est[0] += f64::from(a) * (size - rows.len()) as f64 / g;
            for c in cells.drain(..) {
                let c = c as usize;
                est[c] += f64::from(a) * f64::from(count[c]) / g;
                count[c] = 0;
            }
        }
        for &r in touched.iter() {
            mask[r as usize] = 0;
        }
        touched.clear();
        for &(_, g, _) in holders {
            holder_of[g as usize] = NO_HOLDER;
        }
        let t = total as f64;
        est.iter_mut().for_each(|e| *e /= t);
        Some(est)
    }
}

/// [`PdfScratch::holder_of`] of a group that holds no queried item.
const NO_HOLDER: u32 = u32::MAX;

/// Scratch of [`ReleaseIndex::estimated_pdf_with`], grown to one index and
/// reused across queries: between queries every entry is empty again
/// (`NO_HOLDER`, 0 or cleared).
#[derive(Debug, Default)]
pub(crate) struct PdfScratch {
    /// Per group: its position among the query's holders.
    holder_of: Vec<u32>,
    /// Per row: the cell bits of the query items it holds.
    mask: Vec<u32>,
    /// The rows with a non-zero mask, in walk order, and bucketed by
    /// holder: holder `h`'s rows are `by_holder[end[h - 1]..end[h]]`
    /// (from 0 for the first).
    touched: Vec<u32>,
    by_holder: Vec<u32>,
    end: Vec<u32>,
    /// Per cell: the current holder's rows in it, and the cells it set.
    count: Vec<u32>,
    cells: Vec<u32>,
}

impl PdfScratch {
    fn fit(&mut self, n_groups: usize, n_rows: usize, n_cells: usize) {
        if self.holder_of.len() < n_groups {
            self.holder_of.resize(n_groups, NO_HOLDER);
        }
        if self.mask.len() < n_rows {
            self.mask.resize(n_rows, 0);
        }
        if self.count.len() < n_cells {
            self.count.resize(n_cells, 0);
        }
    }
}

/// Content id of each row, and one row carrying each id.
#[derive(Debug)]
struct Contents {
    content: Vec<u32>,
    content_row: Vec<u32>,
}

/// Accumulates normalized rows and group boundaries, then builds the
/// postings and content ids in one pass each.
struct Builder {
    n_items: usize,
    row_start: Vec<usize>,
    items: Vec<ItemId>,
    row_group: Vec<u32>,
    group_start: Vec<usize>,
}

impl Builder {
    /// A builder sized for `n_groups` groups of `n_rows` rows holding at
    /// most `max_items` ids in all, so the index carries no growth slack.
    fn new(n_items: usize, n_groups: usize, n_rows: usize, max_items: usize) -> Self {
        let mut row_start = Vec::with_capacity(n_rows + 1);
        row_start.push(0);
        let mut group_start = Vec::with_capacity(n_groups + 1);
        group_start.push(0);
        Builder {
            n_items,
            row_start,
            items: Vec::with_capacity(max_items),
            row_group: Vec::with_capacity(n_rows),
            group_start,
        }
    }

    fn push_row(&mut self, row: &[ItemId]) {
        self.push_row_filtered(row, |_| true);
    }

    /// Appends the set of `row`'s ids that are inside the universe and
    /// pass `keep`.
    fn push_row_filtered(&mut self, row: &[ItemId], keep: impl Fn(ItemId) -> bool) {
        let start = self.items.len();
        let n_items = self.n_items;
        self.items.extend(
            row.iter()
                .copied()
                .filter(|&i| (i as usize) < n_items && keep(i)),
        );
        let tail = &mut self.items[start..];
        if !tail.windows(2).all(|w| w[0] < w[1]) {
            tail.sort_unstable();
            let mut kept = start;
            for j in start..self.items.len() {
                if j == start || self.items[j] != self.items[kept - 1] {
                    self.items[kept] = self.items[j];
                    kept += 1;
                }
            }
            self.items.truncate(kept);
        }
        self.row_start.push(self.items.len());
        self.row_group.push((self.group_start.len() - 1) as u32);
    }

    fn end_group(&mut self) {
        self.group_start.push(self.row_group.len());
    }

    fn finish(mut self, holders: Vec<(ItemId, u32, u32)>) -> ReleaseIndex {
        // Ids outside the universe (or sensitive, for raw rows) were
        // dropped, so the id buffer may be short of its capacity.
        self.items.shrink_to_fit();
        let n_rows = self.row_group.len();
        // Postings by counting sort: rows are visited in order, so every
        // list comes out ascending.
        let mut post_start = vec![0usize; self.n_items + 1];
        for &i in &self.items {
            post_start[i as usize + 1] += 1;
        }
        for i in 0..self.n_items {
            post_start[i + 1] += post_start[i];
        }
        let mut fill = post_start.clone();
        let mut post_rows = vec![0u32; self.items.len()];
        for r in 0..n_rows {
            for &i in &self.items[self.row_start[r]..self.row_start[r + 1]] {
                post_rows[fill[i as usize]] = r as u32;
                fill[i as usize] += 1;
            }
        }
        ReleaseIndex {
            row_start: self.row_start,
            items: self.items,
            row_group: self.row_group,
            group_start: self.group_start,
            post_start,
            post_rows,
            contents: OnceCell::new(),
            holders,
        }
    }
}

#[cfg(test)]
mod tests {
    use cahd_core::AnonymizedGroup;

    use super::*;
    use crate::cells::MAX_R;
    use crate::reconstruct;

    const S: ItemId = 20;

    fn group(qid_rows: Vec<Vec<ItemId>>, count: u32) -> AnonymizedGroup {
        AnonymizedGroup {
            members: (0..qid_rows.len() as u32).collect(),
            qid_rows,
            sensitive_counts: vec![(S, count)],
        }
    }

    fn release(groups: Vec<AnonymizedGroup>) -> PublishedDataset {
        PublishedDataset {
            n_items: S as usize + 1,
            sensitive_items: vec![S],
            groups,
        }
    }

    /// Index and scan oracle agree bit for bit; returns the PDF.
    fn pdf(release: &PublishedDataset, query: &GroupByQuery) -> Option<Vec<f64>> {
        let index = ReleaseIndex::new(release, release.n_items);
        let est = index.estimated_pdf(query);
        let bits = |v: &Option<Vec<f64>>| {
            v.as_ref()
                .map(|e| e.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(
            bits(&est),
            bits(&reconstruct::estimated_pdf(release, query))
        );
        est
    }

    #[test]
    fn no_group_by_items_is_one_cell() {
        let r = release(vec![
            group(vec![vec![0], vec![1, 2]], 1),
            group(vec![vec![3]], 2),
        ]);
        assert_eq!(pdf(&r, &GroupByQuery::new(S, vec![])), Some(vec![1.0]));
    }

    #[test]
    fn a_holder_no_posting_touches_fills_cell_zero() {
        // The second group holds the item, but none of its rows holds a
        // queried item: its whole count lands in cell 0.
        let r = release(vec![
            group(vec![vec![0, 1], vec![1]], 1),
            group(vec![vec![5], vec![]], 3),
        ]);
        let est = pdf(&r, &GroupByQuery::new(S, vec![0, 1])).unwrap();
        assert_eq!(est, vec![0.75, 0.0, 0.125, 0.125]);
    }

    #[test]
    fn rowless_holders_carry_no_count() {
        let empty = group(vec![], 4);
        let r = release(vec![
            empty.clone(),
            group(vec![vec![0], vec![1]], 1),
            empty.clone(),
        ]);
        assert_eq!(
            pdf(&r, &GroupByQuery::new(S, vec![0])),
            Some(vec![0.5, 0.5])
        );
        assert_eq!(
            pdf(&release(vec![empty]), &GroupByQuery::new(S, vec![0])),
            None
        );
    }

    #[test]
    fn twenty_items_over_a_thousand_holders() {
        // Every group publishes the same two rows, one with the first ten
        // query items and one with the last ten, so each row's cell gets
        // half of every group's count.
        let low: Vec<ItemId> = (0..10).collect();
        let high: Vec<ItemId> = (10..20).collect();
        let groups = (0..1_200)
            .map(|k| group(vec![low.clone(), high.clone()], 1 + k % 3))
            .collect();
        let r = release(groups);
        let index = ReleaseIndex::new(&r, r.n_items);
        let est = index
            .estimated_pdf(&GroupByQuery::new(S, (0..MAX_R as ItemId).collect()))
            .unwrap();
        assert_eq!(est.len(), 1 << MAX_R);
        let (lo, hi) = ((1 << 10) - 1, ((1 << 10) - 1) << 10);
        assert_eq!((est[lo], est[hi]), (0.5, 0.5));
        let rest = est.iter().enumerate().filter(|&(c, _)| c != lo && c != hi);
        assert!(rest.map(|(_, e)| e).all(|&e| e == 0.0));
    }
}
