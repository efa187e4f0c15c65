//! Ready-made dataset profiles mirroring the paper's workloads.
//!
//! The BMS-WebView datasets are not redistributable; these profiles
//! configure the Quest-style generator to match their published
//! characteristics (Table I): transaction count, item universe, average
//! and maximum transaction length. Sparsity and the skewed, correlated
//! item-usage structure come from the Quest model itself. All profiles are
//! deterministic given a seed and support a `scale` factor on the
//! transaction count so the experiment suite can be run quickly.

use crate::quest::{QuestConfig, QuestGenerator};
use crate::transaction::TransactionSet;

/// Quest configuration matching BMS-WebView-1 (59,602 transactions, 497
/// items, avg length 2.5, max length 267).
pub fn bms1_config(scale: f64) -> QuestConfig {
    QuestConfig {
        n_transactions: scaled(59_602, scale),
        n_items: 497,
        avg_txn_len: 2.1, // calibrated: dedup/corruption shrink baskets
        max_txn_len: 267,
        n_patterns: 450,
        avg_pattern_len: 2.5,
        correlation: 0.5,
        corruption_mean: 0.5,
        corruption_sd: 0.1,
        item_skew: 0.0,
        tail_prob: 0.004,
        tail_len_mean: 55.0,
    }
}

/// Quest configuration matching BMS-WebView-2 (77,512 transactions, 3,340
/// items, avg length 5.0, max length 161).
pub fn bms2_config(scale: f64) -> QuestConfig {
    QuestConfig {
        n_transactions: scaled(77_512, scale),
        n_items: 3_340,
        avg_txn_len: 4.0,
        max_txn_len: 161,
        n_patterns: 800,
        avg_pattern_len: 3.5,
        correlation: 0.5,
        corruption_mean: 0.5,
        corruption_sd: 0.1,
        item_skew: 0.0,
        tail_prob: 0.008,
        tail_len_mean: 45.0,
    }
}

/// The Fig. 6 workload: a square 1000 x 1000 matrix with ~20 items per
/// transaction and a controllable correlation degree (0.1 / 0.5 / 0.9 in
/// the paper).
pub fn fig6_config(correlation: f64) -> QuestConfig {
    QuestConfig {
        n_transactions: 1_000,
        n_items: 1_000,
        avg_txn_len: 20.0,
        max_txn_len: usize::MAX,
        n_patterns: 60,
        avg_pattern_len: 8.0,
        correlation,
        corruption_mean: 0.35,
        corruption_sd: 0.1,
        item_skew: 0.0,
        tail_prob: 0.0,
        tail_len_mean: 50.0,
    }
}

/// A deliberately dense workload for the similarity-kernel benchmarks:
/// a narrow 400-item universe with ~60 items per transaction, so nearly
/// every QID row crosses the adaptive kernel's density threshold (see
/// `cahd_core::kernel`) and candidate scoring runs on the packed-bitset
/// path. `scale` applies to the 16,000-transaction baseline.
pub fn dense_config(scale: f64) -> QuestConfig {
    QuestConfig {
        n_transactions: scaled(16_000, scale),
        n_items: 400,
        avg_txn_len: 60.0,
        max_txn_len: usize::MAX,
        n_patterns: 40,
        avg_pattern_len: 12.0,
        correlation: 0.5,
        corruption_mean: 0.35,
        corruption_sd: 0.1,
        item_skew: 0.0,
        tail_prob: 0.0,
        tail_len_mean: 50.0,
    }
}

/// A Quest workload two orders of magnitude past the BMS references:
/// four million transactions over a two-million-item universe (one
/// million rows at the full-mode snapshot scale 0.25) — the shape of a
/// URL-universe clickstream. This is what the implicit row-graph
/// backend exists for: materializing `A x A^T` here means hundreds of
/// millions of edges, while the inverted index walks the same graph
/// from ~tens of MB of postings. The universe is wide and the rows
/// short and untailed on purpose: the implicit backend's one-shot exact
/// degree pass costs up to `sum(support^2)` over the items (its traversals
/// are segment-deduplicated down to O(nnz) per sweep), so item supports
/// must grow slowly with the row count for million-row orderings to
/// stay in seconds.
pub fn quest_xl_config(scale: f64) -> QuestConfig {
    QuestConfig {
        n_transactions: scaled(4_000_000, scale),
        n_items: 2_000_000,
        avg_txn_len: 4.0,
        max_txn_len: 24,
        n_patterns: 100_000,
        avg_pattern_len: 3.0,
        correlation: 0.5,
        corruption_mean: 0.5,
        corruption_sd: 0.1,
        item_skew: 0.0,
        tail_prob: 0.0,
        tail_len_mean: 50.0,
    }
}

/// Generates a BMS1-like dataset.
pub fn bms1_like(scale: f64, seed: u64) -> TransactionSet {
    QuestGenerator::new(bms1_config(scale), seed).generate()
}

/// Generates a BMS2-like dataset.
pub fn bms2_like(scale: f64, seed: u64) -> TransactionSet {
    QuestGenerator::new(bms2_config(scale), seed).generate()
}

/// Generates the Fig. 6 workload for a given correlation degree.
pub fn fig6_like(correlation: f64, seed: u64) -> TransactionSet {
    QuestGenerator::new(fig6_config(correlation), seed).generate()
}

/// Generates the dense kernel-benchmark workload.
pub fn dense_like(scale: f64, seed: u64) -> TransactionSet {
    QuestGenerator::new(dense_config(scale), seed).generate()
}

/// Generates the million-row implicit-ordering workload.
pub fn quest_xl_like(scale: f64, seed: u64) -> TransactionSet {
    QuestGenerator::new(quest_xl_config(scale), seed).generate()
}

fn scaled(n: usize, scale: f64) -> usize {
    assert!(scale > 0.0, "scale must be positive");
    ((n as f64 * scale).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DatasetStats;

    #[test]
    fn bms1_profile_matches_table1_shape() {
        let t = bms1_like(0.05, 7);
        let s = DatasetStats::compute(&t);
        assert_eq!(s.transactions, (59_602f64 * 0.05).round() as usize);
        assert_eq!(s.items, 497);
        assert!(s.max_length <= 267);
        assert!(
            s.avg_length > 1.5 && s.avg_length < 4.0,
            "avg {}",
            s.avg_length
        );
    }

    #[test]
    fn bms2_profile_matches_table1_shape() {
        let t = bms2_like(0.03, 7);
        let s = DatasetStats::compute(&t);
        assert_eq!(s.items, 3_340);
        assert!(s.max_length <= 161);
        assert!(
            s.avg_length > 3.0 && s.avg_length < 7.5,
            "avg {}",
            s.avg_length
        );
    }

    #[test]
    fn fig6_profile_is_square_and_dense_enough() {
        let t = fig6_like(0.5, 3);
        let s = DatasetStats::compute(&t);
        assert_eq!(s.transactions, 1_000);
        assert_eq!(s.items, 1_000);
        assert!(
            s.avg_length > 10.0 && s.avg_length < 30.0,
            "avg {}",
            s.avg_length
        );
    }

    #[test]
    fn dense_profile_crosses_the_kernel_density_threshold() {
        let t = dense_like(0.0125, 3);
        let s = DatasetStats::compute(&t);
        assert_eq!(s.transactions, 200);
        assert_eq!(s.items, 400);
        // words = ceil(400 / 64) = 7; dense eligibility needs 4*len >= 7,
        // i.e. rows of >= 2 items — the average must sit far above that.
        assert!(s.avg_length > 20.0, "avg {}", s.avg_length);
    }

    #[test]
    fn quest_xl_profile_is_short_row_and_wide() {
        // A 1/400 slice of the full-scale workload keeps the test cheap
        // while pinning the shape knobs that bound implicit-enumeration
        // cost: short untailed rows over a wide universe.
        let t = quest_xl_like(0.25 / 400.0, 7);
        let s = DatasetStats::compute(&t);
        assert_eq!(s.transactions, 2_500);
        assert_eq!(s.items, 2_000_000);
        assert!(s.max_length <= 24);
        assert!(
            s.avg_length > 2.0 && s.avg_length < 7.0,
            "avg {}",
            s.avg_length
        );
    }

    #[test]
    fn scale_changes_only_transaction_count() {
        let a = bms1_like(0.02, 1);
        let b = bms1_like(0.04, 1);
        assert_eq!(b.n_transactions(), 2 * a.n_transactions());
        assert_eq!(a.n_items(), b.n_items());
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_panics() {
        bms1_like(0.0, 1);
    }
}
