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
    /// rows, at the cost of the query's QID posting lists restricted to
    /// the groups that hold the sensitive item.
    pub fn estimated_pdf(&self, query: &GroupByQuery) -> Option<Vec<f64>> {
        let nc = n_cells(query.r());
        let mut est = vec![0f64; nc];
        let mut b = vec![0u64; nc];
        let mut total = 0u64;
        let mut rest: Vec<&[u32]> = query.qid.iter().map(|&q| self.postings(q)).collect();
        // (row, cell bit) of the group's rows holding some QID item.
        let mut hits: Vec<(u32, u32)> = Vec::new();
        for &(_, g, a) in self.holders(query.sensitive) {
            let rows = self.group_rows(g as usize);
            hits.clear();
            for (bit, list) in rest.iter_mut().enumerate() {
                *list = &list[list.partition_point(|&r| (r as usize) < rows.start)..];
                let inside = list.partition_point(|&r| (r as usize) < rows.end);
                hits.extend(list[..inside].iter().map(|&r| (r, 1u32 << bit)));
                *list = &list[inside..];
            }
            hits.sort_unstable();
            b.iter_mut().for_each(|x| *x = 0);
            let mut matched = 0u64;
            for run in hits.chunk_by(|x, y| x.0 == y.0) {
                b[run.iter().fold(0, |cell, &(_, bit)| cell | bit) as usize] += 1;
                matched += 1;
            }
            b[0] += rows.len() as u64 - matched;
            total += u64::from(a);
            let g = rows.len() as f64;
            for (e, &bc) in est.iter_mut().zip(&b) {
                *e += f64::from(a) * bc as f64 / g;
            }
        }
        if total == 0 {
            return None;
        }
        let t = total as f64;
        est.iter_mut().for_each(|e| *e /= t);
        Some(est)
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
