//! Alternative row-ordering strategies.
//!
//! The paper's future work proposes "dimensionality-reduction techniques
//! for more effective anonymization". This module implements two such
//! orderings as drop-in alternatives to RCM, so their band quality and
//! downstream anonymization utility can be compared (see the
//! `ext-orderings` experiment):
//!
//! * [`minhash_order`] — per-row MinHash signatures sorted
//!   lexicographically: rows with high Jaccard similarity receive similar
//!   signatures and end up nearby. Linear time, no graph construction.
//!   [`cluster_order`] is the same sort over a pinned hash family: the
//!   `--ordering cluster` strategy.
//! * [`lexicographic_order`] — rows sorted by their item lists. A cheap
//!   straw-man that clusters shared *prefixes* only.
//!
//! Both return a [`Permutation`] in the same convention as
//! [`crate::reverse_cuthill_mckee`].

use cahd_sparse::{CsrMatrix, Permutation};

/// Strategy selector used by comparison harnesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowOrder {
    /// Keep the input order.
    Identity,
    /// Reverse Cuthill-McKee on the `A x A^T` pattern (the paper's method).
    Rcm,
    /// MinHash-signature lexicographic order.
    MinHash,
    /// Sort rows by item list.
    Lexicographic,
    /// Gibbs–Poole–Stockmeyer on the `A x A^T` pattern (see [`crate::gps`]).
    Gps,
}

impl RowOrder {
    /// Every strategy, for sweeps.
    pub const ALL: [RowOrder; 5] = [
        RowOrder::Identity,
        RowOrder::Rcm,
        RowOrder::Gps,
        RowOrder::MinHash,
        RowOrder::Lexicographic,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            RowOrder::Identity => "identity",
            RowOrder::Rcm => "rcm",
            RowOrder::MinHash => "minhash",
            RowOrder::Lexicographic => "lex",
            RowOrder::Gps => "gps",
        }
    }

    /// Computes the row permutation of `a` under this strategy.
    /// `seed` only affects [`RowOrder::MinHash`].
    pub fn order(self, a: &CsrMatrix, seed: u64) -> Permutation {
        match self {
            RowOrder::Identity => Permutation::identity(a.n_rows()),
            RowOrder::Rcm => {
                let g = cahd_sparse::RowGraph::build(a, cahd_sparse::RowGraph::DEFAULT_EDGE_BUDGET);
                crate::band_order(&g, crate::OrderingStrategy::Rcm, 1)
            }
            RowOrder::MinHash => minhash_order(a, 8, seed),
            RowOrder::Lexicographic => lexicographic_order(a),
            RowOrder::Gps => {
                let g = cahd_sparse::RowGraph::build(a, cahd_sparse::RowGraph::DEFAULT_EDGE_BUDGET);
                crate::gps::gibbs_poole_stockmeyer(&g)
            }
        }
    }
}

/// SplitMix64: cheap, well-distributed 64-bit mixer for the hash families.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Orders rows by lexicographic comparison of their `n_hashes`-long MinHash
/// signatures. Empty rows sort last; ties keep input order (stable).
///
/// # Panics
/// Panics if `n_hashes == 0`.
pub fn minhash_order(a: &CsrMatrix, n_hashes: usize, seed: u64) -> Permutation {
    assert!(n_hashes > 0, "need at least one hash function");
    signature_order(a, n_hashes, seed, 1)
}

/// Fixed seed of the [`cluster_order`] hash family. Pinned so the
/// cluster strategy is a pure function of the matrix — reproducible
/// across runs, machines and thread counts.
pub const CLUSTER_SEED: u64 = 0xCA4D_07D3;

/// Number of MinHash functions used by [`cluster_order`]. Sixteen
/// signatures give enough resolution to co-locate high-Jaccard rows
/// while keeping the signature pass a small multiple of `nnz`.
pub const CLUSTER_HASHES: usize = 16;

/// The cluster-then-order strategy ([`crate::OrderingStrategy::Cluster`]):
/// [`minhash_order`] with the pinned [`CLUSTER_HASHES`]/[`CLUSTER_SEED`]
/// family, its signatures computed in parallel over row chunks. Skips the
/// `A x A^T` graph entirely, so its cost is
/// `O(nnz * CLUSTER_HASHES + n log n)` regardless of row-similarity
/// density.
///
/// Output is byte-identical at every `threads` value: each row's
/// signature is a pure function of its items, and the final sort breaks
/// signature ties by row id.
pub fn cluster_order(a: &CsrMatrix, threads: usize) -> Permutation {
    signature_order(a, CLUSTER_HASHES, CLUSTER_SEED, threads)
}

/// The one MinHash signature sort behind [`minhash_order`] and
/// [`cluster_order`]: per-row signatures filled by up to `threads`
/// workers over contiguous row chunks, then rows sorted by signature with
/// row id breaking ties.
fn signature_order(a: &CsrMatrix, h: usize, seed: u64, threads: usize) -> Permutation {
    let n = a.n_rows();
    let hash_seeds: Vec<u64> = (0..h as u64)
        .map(|k| splitmix64(seed ^ k.wrapping_mul(0xA24BAED4963EE407)))
        .collect();
    // Signature matrix, row-major.
    let mut sig = vec![u64::MAX; n * h];
    let fill = |rows: std::ops::Range<usize>, sig: &mut [u64]| {
        for (row_off, r) in rows.enumerate() {
            let s = &mut sig[row_off * h..(row_off + 1) * h];
            for &item in a.row(r) {
                for (k, &hs) in hash_seeds.iter().enumerate() {
                    let v = splitmix64(hs ^ item as u64);
                    if v < s[k] {
                        s[k] = v;
                    }
                }
            }
        }
    };
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        fill(0..n, &mut sig);
    } else {
        let chunk_rows = n.div_ceil(threads);
        std::thread::scope(|scope| {
            for (wi, sig_chunk) in sig.chunks_mut(chunk_rows * h).enumerate() {
                let lo = wi * chunk_rows;
                let hi = (lo + chunk_rows).min(n);
                let fill = &fill;
                scope.spawn(move || fill(lo..hi, sig_chunk));
            }
        });
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&x, &y| {
        let sx = &sig[x as usize * h..(x as usize + 1) * h];
        let sy = &sig[y as usize * h..(y as usize + 1) * h];
        sx.cmp(sy).then(x.cmp(&y))
    });
    // cahd-lint: allow(L003, reason = "order is a sort of 0..n, which is a permutation by construction")
    Permutation::from_new_to_old(order).expect("sorted indices are a permutation")
}

/// Orders rows by their sorted item lists (empty rows first).
pub fn lexicographic_order(a: &CsrMatrix) -> Permutation {
    let mut order: Vec<u32> = (0..a.n_rows() as u32).collect();
    order.sort_by(|&x, &y| a.row(x as usize).cmp(a.row(y as usize)).then(x.cmp(&y)));
    // cahd-lint: allow(L003, reason = "order is a sort of 0..n, which is a permutation by construction")
    Permutation::from_new_to_old(order).expect("sorted indices are a permutation")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks() -> CsrMatrix {
        // Interleaved two-block data, as in the unsym tests.
        CsrMatrix::from_rows(
            &[
                vec![0, 1],
                vec![3, 4],
                vec![1, 2],
                vec![4, 5],
                vec![0, 2],
                vec![3, 5],
            ],
            6,
        )
    }

    fn positions(p: &Permutation, rows: &[usize]) -> Vec<usize> {
        let mut v: Vec<usize> = rows.iter().map(|&r| p.old_to_new(r)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn minhash_groups_similar_rows() {
        let a = blocks();
        let p = minhash_order(&a, 16, 7);
        let pa = positions(&p, &[0, 2, 4]);
        assert!(
            pa == vec![0, 1, 2] || pa == vec![3, 4, 5],
            "block A positions {pa:?}"
        );
    }

    #[test]
    fn minhash_is_deterministic_per_seed() {
        let a = blocks();
        assert_eq!(
            minhash_order(&a, 8, 1).new_to_old_slice(),
            minhash_order(&a, 8, 1).new_to_old_slice()
        );
    }

    #[test]
    fn identical_rows_are_adjacent_under_minhash() {
        let a = CsrMatrix::from_rows(&[vec![5], vec![1, 2], vec![5], vec![1, 2]], 6);
        let p = minhash_order(&a, 8, 3);
        assert_eq!(
            p.old_to_new(0).abs_diff(p.old_to_new(2)),
            1,
            "identical rows must be neighbors"
        );
        assert_eq!(p.old_to_new(1).abs_diff(p.old_to_new(3)), 1);
    }

    #[test]
    fn lexicographic_sorts_by_items() {
        let a = CsrMatrix::from_rows(&[vec![2], vec![0, 1], vec![], vec![0]], 3);
        let p = lexicographic_order(&a);
        // Empty first, then [0], [0,1], [2].
        assert_eq!(p.new_to_old_slice(), &[2, 3, 1, 0]);
    }

    #[test]
    fn all_strategies_produce_valid_permutations() {
        let a = blocks();
        for strat in RowOrder::ALL {
            let p = strat.order(&a, 11);
            assert_eq!(p.len(), a.n_rows(), "{}", strat.name());
            assert!(p.then(&p.inverse()).is_identity());
        }
        assert!(RowOrder::Identity.order(&a, 0).is_identity());
    }

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<_> = RowOrder::ALL.iter().map(|o| o.name()).collect();
        assert_eq!(names.len(), RowOrder::ALL.len());
    }

    #[test]
    fn cluster_order_is_minhash_order_with_the_pinned_family() {
        let a = blocks();
        assert_eq!(
            cluster_order(&a, 3).new_to_old_slice(),
            minhash_order(&a, CLUSTER_HASHES, CLUSTER_SEED).new_to_old_slice()
        );
    }

    #[test]
    fn cluster_order_is_thread_count_invariant() {
        let a = blocks();
        let reference = cluster_order(&a, 1);
        for threads in [2usize, 3, 8] {
            assert_eq!(
                reference.new_to_old_slice(),
                cluster_order(&a, threads).new_to_old_slice(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn cluster_order_groups_blocks() {
        // Two blocks of high-Jaccard rows (pairwise similarity >= 1/2),
        // interleaved in the input: signatures must co-locate each block.
        let a = CsrMatrix::from_rows(
            &[
                vec![0, 1, 2],
                vec![4, 5, 6],
                vec![0, 1, 2],
                vec![4, 5, 6],
                vec![0, 1, 3],
                vec![4, 5, 7],
            ],
            8,
        );
        let p = cluster_order(&a, 2);
        let pa = positions(&p, &[0, 2, 4]);
        assert!(
            pa == vec![0, 1, 2] || pa == vec![3, 4, 5],
            "block A positions {pa:?}"
        );
    }

    #[test]
    fn cluster_order_valid_on_edge_shapes() {
        for rows in [vec![], vec![vec![], vec![]], vec![vec![0u32, 1], vec![]]] {
            let a = CsrMatrix::from_rows(&rows, 4);
            let p = cluster_order(&a, 4);
            assert_eq!(p.len(), rows.len());
            assert!(p.then(&p.inverse()).is_identity());
        }
    }
}
