//! Ordering-equivalence harness for the frontier-parallel engine.
//!
//! The properties the parallel ordering subsystem must uphold:
//!
//! 1. **Byte-identity of RCM**: [`band_order`] under
//!    [`OrderingStrategy::Rcm`] equals the sequential reference
//!    [`reverse_cuthill_mckee`] exactly — same bytes — at every thread
//!    count in `{1, 2, 8}` and with the parallel claim path forced onto
//!    *every* frontier (`frontier_min = 1`), so the equivalence is proven
//!    for the parallel code itself, not for a sequential fallback.
//! 2. **Validity of every strategy**: `rcm`, `bfs` and `cluster` each
//!    emit a bijective permutation that keeps every connected component
//!    contiguous (graph strategies) on random sparse graphs including
//!    disconnected, star, path and empty-row shapes.
//! 3. **Counter identities**: `rcm.frontier_parallel +
//!    rcm.frontier_sequential == rcm.levels >= rcm.bfs_levels`, at every
//!    thread count — the `CAHD-O001` contract.
//!
//! The `CAHD_TEST_THREADS` environment variable (used by the CI matrix)
//! adds one more thread count to every sweep.

use cahd_obs::Recorder;
use cahd_rcm::{band_order_with, reverse_cuthill_mckee, OrderingStrategy};
use cahd_sparse::Graph;
use proptest::prelude::*;

/// Thread counts every determinism check sweeps: the fixed `{1, 2, 8}` of
/// the harness spec plus an optional override from `CAHD_TEST_THREADS`.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
    if let Ok(v) = std::env::var("CAHD_TEST_THREADS") {
        if let Ok(extra) = v.trim().parse::<usize>() {
            if extra >= 1 && !counts.contains(&extra) {
                counts.push(extra);
            }
        }
    }
    counts
}

/// Random sparse graphs, biased toward interesting shapes: plain random
/// edge sets (which naturally include disconnected pieces and isolated
/// vertices), stars, paths, and graphs whose first vertices have no
/// edges at all (the "empty row" shape of transaction data).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        0usize..4,
        2usize..40,
        2usize..16,
        proptest::collection::vec((0u32..40, 0u32..40), 0..80),
    )
        .prop_map(|(kind, n, iso, raw_edges)| {
            let clamp = |edges: &[(u32, u32)], m: usize, shift: u32| -> Vec<(u32, u32)> {
                edges
                    .iter()
                    .map(|&(a, b)| (a % m as u32 + shift, b % m as u32 + shift))
                    .collect()
            };
            match kind {
                // Plain random edge set: naturally includes disconnected
                // pieces and isolated vertices.
                0 => Graph::from_edges(n, &clamp(&raw_edges, n, 0)),
                // Star: one hub, n-1 leaves.
                1 => {
                    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
                    Graph::from_edges(n, &edges)
                }
                // Path.
                2 => {
                    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
                    Graph::from_edges(n, &edges)
                }
                // `iso` leading vertices stay edge-free (the "empty row"
                // shape of transaction data); the rest is random.
                _ => Graph::from_edges(iso + n, &clamp(&raw_edges, n, iso as u32)),
            }
        })
}

/// Positions of each component's vertices must be contiguous in the new
/// order: the engine processes components one after another.
fn components_contiguous(g: &Graph, p: &cahd_sparse::Permutation) -> bool {
    let (comp, k) = g.connected_components();
    let mut lo = vec![usize::MAX; k];
    let mut hi = vec![0usize; k];
    let mut size = vec![0usize; k];
    for (v, &cv) in comp.iter().enumerate() {
        let c = cv as usize;
        let pos = p.old_to_new(v);
        lo[c] = lo[c].min(pos);
        hi[c] = hi[c].max(pos);
        size[c] += 1;
    }
    (0..k).all(|c| size[c] == 0 || hi[c] - lo[c] + 1 == size[c])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parallel_rcm_is_byte_identical_to_sequential_reference(g in arb_graph()) {
        let reference = reverse_cuthill_mckee(&g);
        for threads in thread_counts() {
            // frontier_min = 1 forces the bid/claim path onto every level.
            for frontier_min in [1usize, 2] {
                let p = band_order_with(
                    &g,
                    OrderingStrategy::Rcm,
                    threads,
                    frontier_min,
                    &Recorder::disabled(),
                );
                prop_assert_eq!(
                    reference.new_to_old_slice(),
                    p.new_to_old_slice(),
                    "threads={} frontier_min={}",
                    threads,
                    frontier_min
                );
            }
        }
    }

    #[test]
    fn every_strategy_emits_a_valid_component_contiguous_permutation(g in arb_graph()) {
        for strategy in OrderingStrategy::ALL {
            for threads in thread_counts() {
                let p = band_order_with(
                    &g,
                    strategy,
                    threads,
                    1,
                    &Recorder::disabled(),
                );
                prop_assert_eq!(p.len(), g.n_vertices(), "{}", strategy.name());
                prop_assert!(
                    p.then(&p.inverse()).is_identity(),
                    "{} not bijective", strategy.name()
                );
                prop_assert!(
                    components_contiguous(&g, &p),
                    "{} split a component", strategy.name()
                );
            }
        }
    }

    #[test]
    fn counters_satisfy_o001_identities_at_every_thread_count(g in arb_graph()) {
        for strategy in OrderingStrategy::ALL {
            let mut seen: Option<(u64, u64, u64, u64, u64)> = None;
            for threads in thread_counts() {
                let rec = Recorder::new();
                band_order_with(&g, strategy, threads, 2, &rec);
                let report = rec.snapshot();
                let counter = |c: &str| report.counter_or_zero(c);
                let tuple = (
                    counter("rcm.components"),
                    counter("rcm.bfs_levels"),
                    counter("rcm.levels"),
                    counter("rcm.frontier_parallel"),
                    counter("rcm.frontier_sequential"),
                );
                prop_assert_eq!(tuple.3 + tuple.4, tuple.2, "split identity, threads={}", threads);
                prop_assert!(tuple.2 >= tuple.1, "levels >= bfs_levels, threads={}", threads);
                if let Some(prev) = seen {
                    prop_assert_eq!(prev, tuple, "thread-variant counters at {}", threads);
                }
                seen = Some(tuple);
            }
        }
    }
}
