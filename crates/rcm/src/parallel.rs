//! Frontier-parallel band-reducing ordering.
//!
//! The classic Cuthill-McKee loop looks inherently serial — a BFS queue
//! where each dequeued vertex appends its unvisited neighbors sorted by
//! `(degree, id)`. It is not: the queue decomposes into BFS *levels*, and
//! within one level the ordering rule is exactly
//!
//! > level `k+1` = for each parent of level `k` **in order**: the fresh
//! > neighbors *claimed* by that parent (a vertex is claimed by its
//! > first-in-order parent), sorted within the parent — by `(degree, id)`
//! > in the CM pass, by `id` in plain level-structure builds.
//!
//! Every quantity in that rule — claim ownership, degrees, ids — is a pure
//! function of the graph and the previous level (a *set*-determined rule,
//! independent of the order any oracle happens to enumerate neighbors
//! in), so a level can be expanded by any number of workers over any
//! [`ParNeighborOracle`] and reassembled deterministically:
//!
//! 1. **Bid** (parallel): each worker owns a contiguous chunk of parents;
//!    for each parent position `p` and unvisited neighbor `w` it performs
//!    `owner[w].fetch_min(p)`. After a barrier, `owner[w]` is the claiming
//!    parent of `w` — the same parent the sequential loop would claim.
//! 2. **Claim** (parallel): each worker re-enumerates its parents'
//!    neighbors, keeps the ones it owns (`owner[w] == p`), marks them
//!    visited, resets `owner[w]` for the next level, and sorts them
//!    within each parent. Re-enumerating instead of replaying a recorded
//!    bid buffer keeps the expansion's footprint at O(frontier), not
//!    O(frontier *edges*) — on clique-heavy transaction graphs the edge
//!    count of one frontier reaches tens of millions.
//! 3. **Concatenate** (sequential): worker outputs are appended in worker
//!    index order, which is parent order.
//!
//! The result is **byte-identical to the sequential reference at every
//! thread count and for every representation** (explicit or implicit row
//! graph) — proven by the `ordering_equivalence` and
//! `representation_equivalence` proptest suites. The same engine builds
//! the George–Liu level structures of the pseudo-peripheral search, so
//! the whole ordering phase parallelizes, not just the final CM pass.
//!
//! Workers query the oracle through caller-owned [`OracleScratch`]es —
//! one per worker, allocated once per ordering by the driver — so the
//! implicit row graph's stamped dedup needs no interior mutability and no
//! locks. Every expansion (and each bid/claim phase) is declared as one
//! oracle *segment* via [`ParNeighborOracle::begin_segment`], letting the
//! implicit graph walk each item's posting clique at most once per
//! segment: the first parent holding an item reaches the clique's every
//! row, so later parents could only re-find visited vertices. That keeps
//! a whole frontier expansion at O(nnz) enumeration cost where naive
//! per-parent enumeration pays sum(support^2).
//!
//! # Counter determinism
//!
//! The engine emits `rcm.levels` (total frontier expansions over every
//! BFS it runs) split into `rcm.frontier_parallel` +
//! `rcm.frontier_sequential` by *eligibility* — whether the frontier
//! reached [`PARALLEL_FRONTIER_MIN`] — never by the actual thread count.
//! A run with `threads = 1` therefore reports the same counters as a run
//! with `threads = 8`, keeping the trace-invariance property suite and
//! the `CAHD-O001` identities (`frontier_parallel + frontier_sequential
//! == levels`, `levels >= bfs_levels`) valid for any machine. The
//! counters are also representation-invariant: explicit and implicit
//! oracles produce identical level sets, hence identical counts.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Barrier;

use cahd_obs::Recorder;
use cahd_sparse::{OracleScratch, ParNeighborOracle, Permutation};

use crate::level::LevelStructure;
use crate::peripheral::george_liu_iterate;
use crate::strategy::OrderingStrategy;

/// Frontier width at and above which an expansion is *eligible* for the
/// parallel path (and counted as `rcm.frontier_parallel`). Below it the
/// per-level spawn/barrier overhead outweighs the work; 256 parents keep
/// even degree-1 chains worth splitting eight ways.
pub const PARALLEL_FRONTIER_MIN: usize = 256;

/// Thread count below which [`band_order_traced`] keeps even eligible
/// frontiers on the sequential path: the bid/claim protocol's overhead
/// (two traversals, two barriers, per-level spawns) roughly costs one
/// extra frontier traversal, so splitting it fewer than four ways is a
/// net loss. Output is byte-identical on both paths, and counters
/// classify by frontier width, so the cutoff is invisible outside wall
/// time.
pub const PARALLEL_THREADS_MIN: usize = 4;

/// Ordering-phase counters accumulated by the frontier engine. All fields
/// are pure functions of the graph and the strategy — never of thread
/// scheduling — so they are reproducible across machines and layouts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct FrontierStats {
    /// Connected components ordered.
    components: u64,
    /// Total levels of the final pseudo-peripheral level structures,
    /// summed over components (the paper's rooted-level-structure depth).
    bfs_levels: u64,
    /// Total frontier expansions over every BFS performed (pseudo-
    /// peripheral probes and the CM pass).
    levels: u64,
    /// Expansions whose frontier reached [`PARALLEL_FRONTIER_MIN`].
    parallel: u64,
    /// Expansions below the eligibility threshold.
    sequential: u64,
}

impl FrontierStats {
    /// Records one frontier expansion of `frontier` parents under the
    /// eligibility threshold `frontier_min`.
    fn record(&mut self, frontier: usize, frontier_min: usize) {
        self.levels += 1;
        if frontier >= frontier_min {
            self.parallel += 1;
        } else {
            self.sequential += 1;
        }
    }

    /// Flushes the ordering counters into `rec` (zero counters are
    /// dropped by the recorder).
    fn flush_to(&self, rec: &Recorder) {
        rec.add("rcm.components", self.components);
        rec.add("rcm.bfs_levels", self.bfs_levels);
        rec.add("rcm.levels", self.levels);
        rec.add("rcm.frontier_parallel", self.parallel);
        rec.add("rcm.frontier_sequential", self.sequential);
    }
}

/// What the per-level claim step does with each parent's claimed batch.
/// Both variants sort by a set-determined key, so the output never
/// depends on the oracle's neighbor enumeration order.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Within {
    /// Sort by vertex `id` (level-structure builds; the reference
    /// [`LevelStructure::build`] applies the same rule).
    Id,
    /// Sort by `(degree, id)` (the Cuthill-McKee rule).
    DegreeThenId,
}

/// Which traversal the driver runs after the pseudo-peripheral search.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BandKind {
    /// Full Cuthill-McKee pass from the pseudo-peripheral root.
    Cm,
    /// Reuse the root's level structure directly as the ordering.
    Bfs,
}

impl BandKind {
    /// Maps the public strategy onto a graph-level traversal. `Cluster`
    /// is a matrix-level strategy dispatched before any graph exists (see
    /// [`crate::unsym`]); if a cluster request reaches the graph engine
    /// anyway it degrades to the nearest graph-level strategy.
    fn of(strategy: OrderingStrategy) -> BandKind {
        match strategy {
            OrderingStrategy::Rcm => BandKind::Cm,
            OrderingStrategy::Bfs | OrderingStrategy::Cluster => BandKind::Bfs,
        }
    }
}

/// Pushes one parent's fresh batch onto `out` under the within-parent
/// rule. `fresh` holds `(key, w)` pairs; for [`Within::Id`] the key *is*
/// the id (duplicated into the pair for a single sort codepath).
fn flush_fresh(fresh: &mut Vec<(u32, u32)>, out: &mut Vec<u32>) {
    fresh.sort_unstable();
    out.extend(fresh.iter().map(|&(_, w)| w));
    fresh.clear();
}

/// The within-parent sort key of a fresh vertex.
#[inline]
fn fresh_key<G: ParNeighborOracle>(g: &G, w: u32, within: Within) -> (u32, u32) {
    match within {
        Within::Id => (w, w),
        Within::DegreeThenId => (g.degree(w as usize) as u32, w),
    }
}

/// Expands one frontier on the calling thread — the below-threshold path
/// of the driver: claim-by-first-parent in parent order, which is exactly
/// the claim-by-minimum-parent rule the parallel path computes. Relaxed
/// loads/stores on one thread compile to plain memory operations.
///
/// The expansion is one oracle *segment*: the implicit row graph walks
/// each item's posting clique at most once per level — sound because the
/// first parent holding an item reaches the whole clique, so later
/// parents could only re-find visited rows (the marks filter the
/// duplicates and `v` itself either way).
#[allow(clippy::too_many_arguments)]
fn expand_atomic_seq<G: ParNeighborOracle>(
    g: &G,
    parents: &[u32],
    mark: &[AtomicU32],
    stamp: u32,
    within: Within,
    scratch: &mut OracleScratch,
    fresh: &mut Vec<(u32, u32)>,
    out: &mut Vec<u32>,
) {
    g.begin_segment(scratch);
    for &v in parents {
        g.visit_neighbors(v as usize, scratch, &mut |w| {
            if mark[w as usize].load(Ordering::Relaxed) != stamp {
                mark[w as usize].store(stamp, Ordering::Relaxed);
                fresh.push(fresh_key(g, w, within));
            }
        });
        flush_fresh(fresh, out);
    }
}

/// The parallel frontier expansion (module docs, steps 1–3).
///
/// `owner` must be `u32::MAX` everywhere on entry; the claim step restores
/// that invariant — every bid-on vertex has exactly one claiming parent,
/// and that parent's worker resets the slot. Other workers racing on the
/// slot read either the final minimum (not their parent) or the reset
/// `u32::MAX`; both mean "not mine", so the reset is safe under `Relaxed`
/// ordering — the barrier separates all bids from all claims. Within one
/// worker, a vertex bid on by several of its parents is claimed by the
/// first (the owner reset makes the later re-encounters read MAX).
///
/// `scratches` must hold at least `min(threads, parents.len())` entries;
/// worker `i` gets exclusive use of `scratches[i]`.
#[allow(clippy::too_many_arguments)]
fn expand_atomic_par<G: ParNeighborOracle>(
    g: &G,
    parents: &[u32],
    mark: &[AtomicU32],
    owner: &[AtomicU32],
    stamp: u32,
    within: Within,
    threads: usize,
    scratches: &mut [OracleScratch],
    out: &mut Vec<u32>,
) {
    // Derive the worker count back from the chunk size: with a plain
    // `threads.min(len)` the ceiling division can leave trailing workers
    // with an empty (out-of-range) slice, and a worker that panics before
    // the barrier strands every other worker at `barrier.wait()`.
    let chunk = parents
        .len()
        .div_ceil(threads.min(parents.len()).max(1))
        .max(1);
    let n_workers = parents.len().div_ceil(chunk).max(1);
    let barrier = Barrier::new(n_workers);
    let claimed: Vec<Vec<u32>> = std::thread::scope(|scope| {
        let handles: Vec<_> = scratches[..n_workers]
            .iter_mut()
            .enumerate()
            .map(|(wi, scratch)| {
                let barrier = &barrier;
                let lo = wi * chunk;
                let hi = (lo + chunk).min(parents.len());
                scope.spawn(move || {
                    // Bid: fetch_min resolves racing parents to the
                    // minimum position — the sequential claimant. Each
                    // phase is one oracle segment, so a segment-dedup
                    // oracle presents each unvisited vertex at the first
                    // chunk parent adjacent to it — the worker's minimum
                    // position, which is all fetch_min needs from this
                    // worker.
                    g.begin_segment(scratch);
                    for (off, &v) in parents[lo..hi].iter().enumerate() {
                        let pos = (lo + off) as u32;
                        g.visit_neighbors(v as usize, scratch, &mut |w| {
                            if mark[w as usize].load(Ordering::Relaxed) != stamp {
                                owner[w as usize].fetch_min(pos, Ordering::Relaxed);
                            }
                        });
                    }
                    barrier.wait();
                    // Claim: re-traverse (a fresh segment) and keep owned
                    // vertices, grouped per parent. A vertex this worker
                    // owns is re-encountered at exactly the owning
                    // position: the global minimum lies in this chunk, so
                    // it *is* the worker's first adjacent parent. Vertices
                    // owned elsewhere (or already visited) fail the owner
                    // check and fall out.
                    let mut mine: Vec<u32> = Vec::new();
                    let mut fresh: Vec<(u32, u32)> = Vec::new();
                    g.begin_segment(scratch);
                    for (off, &v) in parents[lo..hi].iter().enumerate() {
                        let pos = (lo + off) as u32;
                        g.visit_neighbors(v as usize, scratch, &mut |w| {
                            if owner[w as usize].load(Ordering::Relaxed) == pos {
                                owner[w as usize].store(u32::MAX, Ordering::Relaxed);
                                mark[w as usize].store(stamp, Ordering::Relaxed);
                                fresh.push(fresh_key(g, w, within));
                            }
                        });
                        flush_fresh(&mut fresh, &mut mine);
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    // cahd-lint: allow(L003, reason = "worker panics only propagate caller bugs; the closure itself performs no fallible operations")
                    .expect("frontier worker panicked")
            })
            .collect()
    });
    for c in claimed {
        out.extend_from_slice(&c);
    }
}

/// Builds the level structure rooted at `root` with the atomic frontier
/// engine, switching per level between the parallel and sequential paths
/// by eligibility. Identical output to [`LevelStructure::build`].
#[allow(clippy::too_many_arguments)]
fn build_levels_atomic<G: ParNeighborOracle>(
    g: &G,
    root: u32,
    mark: &[AtomicU32],
    owner: &[AtomicU32],
    stamp: u32,
    threads: usize,
    frontier_min: usize,
    scratches: &mut [OracleScratch],
    stats: &mut FrontierStats,
) -> LevelStructure {
    mark[root as usize].store(stamp, Ordering::Relaxed);
    let mut verts: Vec<u32> = vec![root];
    let mut offsets: Vec<usize> = vec![0];
    let mut current: Vec<u32> = vec![root];
    let mut next: Vec<u32> = Vec::new();
    let mut fresh: Vec<(u32, u32)> = Vec::new();
    loop {
        offsets.push(verts.len());
        stats.record(current.len(), frontier_min);
        next.clear();
        if current.len() >= frontier_min && threads > 1 {
            expand_atomic_par(
                g,
                &current,
                mark,
                owner,
                stamp,
                Within::Id,
                threads,
                scratches,
                &mut next,
            );
        } else {
            expand_atomic_seq(
                g,
                &current,
                mark,
                stamp,
                Within::Id,
                &mut scratches[0],
                &mut fresh,
                &mut next,
            );
        }
        if next.is_empty() {
            break;
        }
        verts.extend_from_slice(&next);
        std::mem::swap(&mut current, &mut next);
    }
    LevelStructure::from_raw(root, verts, offsets)
}

/// Appends the Cuthill-McKee ordering of `root`'s component to `order`
/// using the atomic frontier engine. Identical output to
/// the reference [`crate::cuthill_mckee`].
#[allow(clippy::too_many_arguments)]
fn cm_component_atomic<G: ParNeighborOracle>(
    g: &G,
    root: u32,
    mark: &[AtomicU32],
    owner: &[AtomicU32],
    stamp: u32,
    threads: usize,
    frontier_min: usize,
    scratches: &mut [OracleScratch],
    stats: &mut FrontierStats,
    order: &mut Vec<u32>,
) {
    mark[root as usize].store(stamp, Ordering::Relaxed);
    let mut current: Vec<u32> = vec![root];
    let mut next: Vec<u32> = Vec::new();
    let mut fresh: Vec<(u32, u32)> = Vec::new();
    loop {
        stats.record(current.len(), frontier_min);
        next.clear();
        if current.len() >= frontier_min && threads > 1 {
            expand_atomic_par(
                g,
                &current,
                mark,
                owner,
                stamp,
                Within::DegreeThenId,
                threads,
                scratches,
                &mut next,
            );
        } else {
            expand_atomic_seq(
                g,
                &current,
                mark,
                stamp,
                Within::DegreeThenId,
                &mut scratches[0],
                &mut fresh,
                &mut next,
            );
        }
        order.extend_from_slice(&current);
        if next.is_empty() {
            break;
        }
        std::mem::swap(&mut current, &mut next);
    }
}

/// The atomic (thread-capable) full-graph driver: per component, a
/// George–Liu pseudo-peripheral search followed by the strategy's
/// traversal. Components are processed in order of their smallest vertex
/// id, exactly like the reference [`crate::cuthill_mckee`].
///
/// Oracle scratches are allocated here, once per ordering — one per
/// worker — and reused across every frontier of every component.
fn order_vertices_atomic<G: ParNeighborOracle>(
    g: &G,
    kind: BandKind,
    threads: usize,
    frontier_min: usize,
    stats: &mut FrontierStats,
) -> Vec<u32> {
    let n = g.n_vertices();
    let mark: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let owner: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    let mut scratches: Vec<OracleScratch> = (0..threads.max(1)).map(|_| g.new_scratch()).collect();
    let mut stamp = 0u32;
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut in_order = vec![false; n];
    for start in 0..n {
        if in_order[start] {
            continue;
        }
        let (root, levels) = {
            let stamp = &mut stamp;
            let stats = &mut *stats;
            let scratches = &mut scratches;
            let (mark, owner) = (&mark, &owner);
            george_liu_iterate(
                |w| g.degree(w as usize),
                move |r| {
                    *stamp += 1;
                    build_levels_atomic(
                        g,
                        r,
                        mark,
                        owner,
                        *stamp,
                        threads,
                        frontier_min,
                        scratches,
                        stats,
                    )
                },
                start as u32,
            )
        };
        stats.components += 1;
        stats.bfs_levels += levels.n_levels() as u64;
        match kind {
            BandKind::Cm => {
                stamp += 1;
                let before = order.len();
                cm_component_atomic(
                    g,
                    root,
                    &mark,
                    &owner,
                    stamp,
                    threads,
                    frontier_min,
                    &mut scratches,
                    stats,
                    &mut order,
                );
                for &v in &order[before..] {
                    in_order[v as usize] = true;
                }
            }
            BandKind::Bfs => {
                for &v in levels.vertices() {
                    in_order[v as usize] = true;
                }
                order.extend_from_slice(levels.vertices());
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    order
}

/// Computes the reversed band ordering of `g` under `strategy` with up to
/// `threads` frontier workers.
///
/// Under [`OrderingStrategy::Rcm`] the result is byte-identical to
/// [`crate::reverse_cuthill_mckee`] at every thread count and for every
/// oracle representation (the `ordering_equivalence` and
/// `representation_equivalence` suites prove this); the other strategies
/// are deterministic but cheaper orders with looser band quality.
pub fn band_order<G: ParNeighborOracle>(
    g: &G,
    strategy: OrderingStrategy,
    threads: usize,
) -> Permutation {
    band_order_traced(g, strategy, threads, &Recorder::disabled())
}

/// [`band_order`] recording the ordering counters (`rcm.components`,
/// `rcm.bfs_levels`, `rcm.levels`, `rcm.frontier_parallel`,
/// `rcm.frontier_sequential`) into `rec`. The counters are functions of
/// the graph and strategy only — identical at every thread count.
///
/// The requested thread count is clamped to the machine's available
/// parallelism — extra workers on an oversubscribed host only add spawn
/// and barrier latency — and below [`PARALLEL_THREADS_MIN`] effective
/// workers the expansion runs sequentially even on eligible frontiers:
/// with so few workers the bid/claim protocol costs more than it splits
/// (the second traversal plus two barriers roughly match one extra
/// traversal). The output is byte-identical at every worker count, and
/// the counters classify by frontier *width*, so neither cutoff is
/// visible outside wall time.
pub fn band_order_traced<G: ParNeighborOracle>(
    g: &G,
    strategy: OrderingStrategy,
    threads: usize,
    rec: &Recorder,
) -> Permutation {
    let capped = threads.min(
        std::thread::available_parallelism()
            .map(usize::from)
            .unwrap_or(usize::MAX),
    );
    let workers = if capped >= PARALLEL_THREADS_MIN {
        capped
    } else {
        1
    };
    band_order_with(g, strategy, workers, PARALLEL_FRONTIER_MIN, rec)
}

/// [`band_order_traced`] with an explicit parallel-eligibility threshold.
///
/// Production code always passes [`PARALLEL_FRONTIER_MIN`]; the override
/// exists so the equivalence suites can force the parallel claim path on
/// graphs far smaller than the production threshold. Counters are
/// computed under the *given* threshold, preserving the `CAHD-O001`
/// identities.
pub fn band_order_with<G: ParNeighborOracle>(
    g: &G,
    strategy: OrderingStrategy,
    threads: usize,
    frontier_min: usize,
    rec: &Recorder,
) -> Permutation {
    let mut stats = FrontierStats::default();
    let order = order_vertices_atomic(
        g,
        BandKind::of(strategy),
        threads.max(1),
        frontier_min.max(1),
        &mut stats,
    );
    stats.flush_to(rec);
    // The paper's Fig. 4 step 14: "output R in reverse order".
    // cahd-lint: allow(L003, reason = "the component sweep pushes each vertex exactly once (debug_assert_eq in the driver)")
    let p = Permutation::from_new_to_old(order).expect("band order visits every vertex");
    p.reversed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rcm::reverse_cuthill_mckee;
    use cahd_sparse::bandwidth::graph_band_stats;
    use cahd_sparse::Graph;

    fn graphs() -> Vec<(&'static str, Graph)> {
        let mut grid_edges = Vec::new();
        let idx = |r: usize, c: usize| (r * 6 + c) as u32;
        for r in 0..6 {
            for c in 0..6 {
                if c + 1 < 6 {
                    grid_edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < 6 {
                    grid_edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        vec![
            (
                "path",
                Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),
            ),
            (
                "star",
                Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
            ),
            // A frontier of 9 at 8 threads exercises ceiling-division
            // chunking where a naive worker count leaves a trailing
            // worker with an out-of-range slice (regression: deadlock).
            (
                "star9",
                Graph::from_edges(10, &(1..10u32).map(|v| (0, v)).collect::<Vec<_>>()),
            ),
            (
                "disconnected",
                Graph::from_edges(8, &[(0, 1), (2, 3), (3, 4), (6, 7)]),
            ),
            ("isolated", Graph::from_edges(3, &[])),
            ("empty", Graph::from_edges(0, &[])),
            ("grid6", Graph::from_edges(36, &grid_edges)),
        ]
    }

    #[test]
    fn rcm_strategy_matches_reference_at_any_thread_count() {
        for (name, g) in graphs() {
            let reference = reverse_cuthill_mckee(&g);
            for threads in [1usize, 2, 8] {
                // frontier_min = 1 forces the parallel claim path onto
                // every level of these small graphs.
                let p =
                    band_order_with(&g, OrderingStrategy::Rcm, threads, 1, &Recorder::disabled());
                assert_eq!(
                    reference.new_to_old_slice(),
                    p.new_to_old_slice(),
                    "{name} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn all_strategies_emit_valid_permutations() {
        for (name, g) in graphs() {
            for strategy in OrderingStrategy::ALL {
                let p = band_order(&g, strategy, 2);
                assert_eq!(p.len(), g.n_vertices(), "{name}/{}", strategy.name());
                assert!(
                    p.then(&p.inverse()).is_identity(),
                    "{name}/{}",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn counters_are_thread_count_invariant_and_consistent() {
        for (name, g) in graphs() {
            let mut reports = Vec::new();
            for threads in [1usize, 2, 8] {
                let rec = Recorder::new();
                band_order_with(&g, OrderingStrategy::Rcm, threads, 2, &rec);
                let report = rec.snapshot();
                let counter = |c: &str| report.counter_or_zero(c);
                assert_eq!(
                    counter("rcm.frontier_parallel") + counter("rcm.frontier_sequential"),
                    counter("rcm.levels"),
                    "{name} at {threads} threads"
                );
                assert!(
                    counter("rcm.levels") >= counter("rcm.bfs_levels"),
                    "{name} at {threads} threads"
                );
                reports.push((
                    counter("rcm.components"),
                    counter("rcm.bfs_levels"),
                    counter("rcm.levels"),
                    counter("rcm.frontier_parallel"),
                    counter("rcm.frontier_sequential"),
                ));
            }
            assert!(
                reports.windows(2).all(|w| w[0] == w[1]),
                "{name}: counters varied with thread count: {reports:?}"
            );
        }
    }

    #[test]
    fn bfs_strategy_bandwidth_is_reasonable_on_path() {
        // A path ordered by pure BFS from a peripheral end is optimal.
        let g = Graph::from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
            ],
        );
        let p = band_order(&g, OrderingStrategy::Bfs, 1);
        assert_eq!(graph_band_stats(&g, &p).bandwidth, 1);
    }

    #[test]
    fn golden_bandwidth_bounds_per_strategy() {
        // 6x6 grid: optimal bandwidth 6. RCM must reach <= 7; BFS from a
        // corner stays within the level-structure width bound (<= 11).
        let (_, grid) = graphs()
            .into_iter()
            .find(|(n, _)| *n == "grid6")
            .expect("grid6 fixture");
        let rcm_bw =
            graph_band_stats(&grid, &band_order(&grid, OrderingStrategy::Rcm, 2)).bandwidth;
        assert!(rcm_bw <= 7, "rcm bandwidth {rcm_bw}");
        let bfs_bw =
            graph_band_stats(&grid, &band_order(&grid, OrderingStrategy::Bfs, 2)).bandwidth;
        assert!(bfs_bw <= 11, "bfs bandwidth {bfs_bw}");
        assert!(rcm_bw <= bfs_bw, "rcm {rcm_bw} worse than bfs {bfs_bw}");
    }

    #[test]
    fn implicit_oracle_matches_explicit_through_the_engine() {
        // A clique-heavy bipartite-ish pattern: rows share items heavily,
        // so the implicit enumeration order differs wildly from the
        // explicit (sorted) order — the canonical within-parent sort must
        // absorb the difference for both strategies.
        let rows: Vec<Vec<u32>> = (0..40u32)
            .map(|i| vec![i % 4, 4 + i % 7, 11 + (i / 3) % 5])
            .collect();
        let a = cahd_sparse::CsrMatrix::from_rows(&rows, 16);
        let ex = RowGraph::build_explicit(&a);
        let im = cahd_sparse::ImplicitRowGraph::new(&a);
        for strategy in [OrderingStrategy::Rcm, OrderingStrategy::Bfs] {
            let reference = band_order(&ex, strategy, 1);
            for threads in [1usize, 8] {
                let p = band_order_with(&im, strategy, threads, 1, &Recorder::disabled());
                assert_eq!(
                    reference.new_to_old_slice(),
                    p.new_to_old_slice(),
                    "{} at {threads} threads",
                    strategy.name()
                );
            }
        }
    }

    use cahd_sparse::RowGraph;
}
