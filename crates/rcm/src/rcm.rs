//! The reference (Reverse) Cuthill-McKee ordering.
//!
//! For each connected component, in order of its smallest vertex id, a
//! pseudo-peripheral root is located ([`crate::peripheral`]) and the
//! component is ordered by the loop of the paper's Fig. 4: a BFS from the
//! root in which the unvisited neighbors of each dequeued vertex are
//! appended in order of increasing degree. Processing the queue
//! front-to-back reproduces exactly the "for each vertex of the previous
//! level, sort its unvisited neighbors by degree and append" formulation.
//! Reversing the concatenated ordering gives RCM, which is known to never
//! worsen — and usually improve — the *profile* relative to plain CM while
//! keeping the same bandwidth.
//!
//! This textbook queue is the crate's single reference oracle: production
//! code orders through the frontier engine ([`crate::band_order`]), and the
//! equivalence suites pin the engine's bytes to this function on every
//! representation and thread count.

use cahd_sparse::{OracleScratch, ParNeighborOracle, Permutation};

use crate::peripheral::pseudo_peripheral_with_scratch;

/// Appends the Cuthill-McKee ordering of the component containing `root`
/// to `order`, stamping every vertex it appends (the `mark`/`stamp`
/// convention of [`crate::level::LevelStructure::build`]).
fn cuthill_mckee_component(
    g: &impl ParNeighborOracle,
    root: u32,
    order: &mut Vec<u32>,
    mark: &mut [u32],
    stamp: u32,
    scratch: &mut OracleScratch,
) {
    debug_assert_eq!(mark.len(), g.n_vertices());
    mark[root as usize] = stamp;
    let mut head = order.len();
    order.push(root);
    let mut nbrs: Vec<u32> = Vec::new();
    let mut fresh: Vec<(usize, u32)> = Vec::new(); // (degree, vertex)
    while head < order.len() {
        let v = order[head] as usize;
        head += 1;
        nbrs.clear();
        g.neighbors_scratch(v, scratch, &mut nbrs);
        fresh.clear();
        for &w in &nbrs {
            if mark[w as usize] != stamp {
                mark[w as usize] = stamp;
                fresh.push((g.degree(w as usize), w));
            }
        }
        // Increasing degree; vertex id breaks ties deterministically.
        fresh.sort_unstable();
        order.extend(fresh.iter().map(|&(_, w)| w));
    }
}

/// Computes the (non-reversed) Cuthill-McKee ordering of `g`.
///
/// Returned as a [`Permutation`] whose `new_to_old` view is the ordering.
/// Components are processed in order of their smallest vertex id.
pub fn cuthill_mckee(g: &impl ParNeighborOracle) -> Permutation {
    let n = g.n_vertices();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    // Visited marks are shared between the peripheral search (which must
    // not leak marks into the CM pass) and the CM pass itself, using the
    // stamp convention: stamps strictly increase, so each traversal sees a
    // clean slate.
    let mut mark = vec![0u32; n];
    let mut stamp = 0u32;
    let mut scratch = g.new_scratch();
    let mut in_order = vec![false; n];
    for start in 0..n {
        if in_order[start] {
            continue;
        }
        let (root, _) =
            pseudo_peripheral_with_scratch(g, start as u32, &mut mark, &mut stamp, &mut scratch);
        stamp += 1;
        let before = order.len();
        cuthill_mckee_component(g, root, &mut order, &mut mark, stamp, &mut scratch);
        for &v in &order[before..] {
            in_order[v as usize] = true;
        }
    }
    debug_assert_eq!(order.len(), n);
    // cahd-lint: allow(L003, reason = "the component sweep pushes each vertex exactly once (debug_assert_eq above)")
    Permutation::from_new_to_old(order).expect("CM visits every vertex exactly once")
}

/// Computes the Reverse Cuthill-McKee permutation of `g` (the paper's
/// Fig. 4, step 14: "output R in reverse order").
///
/// # Examples
///
/// ```
/// use cahd_rcm::reverse_cuthill_mckee;
/// use cahd_sparse::bandwidth::graph_band_stats;
/// use cahd_sparse::{Graph, Permutation};
///
/// // A path graph with scrambled labels has bandwidth 3 as labeled...
/// let g = Graph::from_edges(4, &[(0, 3), (3, 1), (1, 2)]);
/// let before = graph_band_stats(&g, &Permutation::identity(4)).bandwidth;
/// assert_eq!(before, 3);
/// // ...RCM relabels it down to the optimal 1.
/// let p = reverse_cuthill_mckee(&g);
/// assert_eq!(graph_band_stats(&g, &p).bandwidth, 1);
/// ```
pub fn reverse_cuthill_mckee(g: &impl ParNeighborOracle) -> Permutation {
    cuthill_mckee(g).reversed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_sparse::bandwidth::graph_band_stats;
    use cahd_sparse::Graph;

    fn cm(g: &Graph, root: u32) -> Vec<u32> {
        let mut order = Vec::new();
        let mut mark = vec![0u32; g.n_vertices()];
        cuthill_mckee_component(g, root, &mut order, &mut mark, 1, &mut g.new_scratch());
        order
    }

    #[test]
    fn path_in_order() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(cm(&g, 0), vec![0, 1, 2, 3]);
        assert_eq!(cm(&g, 3), vec![3, 2, 1, 0]);
    }

    #[test]
    fn degree_sorting_within_level() {
        // Root 0 adjacent to 1 (degree 1) and 2 (degree 2): 1 comes first.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (2, 3)]);
        assert_eq!(cm(&g, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn only_component_of_root() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(cm(&g, 0), vec![0, 1]);
    }

    #[test]
    fn tie_broken_by_vertex_id() {
        // 1 and 2 both have degree 1 from root 0.
        let g = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        assert_eq!(cm(&g, 0), vec![0, 1, 2]);
    }

    #[test]
    fn appends_after_existing_order() {
        let g = Graph::from_edges(3, &[(1, 2)]);
        let mut order = vec![0u32];
        let mut mark = vec![0u32; 3];
        mark[0] = 1;
        cuthill_mckee_component(&g, 1, &mut order, &mut mark, 1, &mut g.new_scratch());
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn shuffled_path_recovers_bandwidth_one() {
        // Path relabeled badly: 3-0-4-1-2 chain.
        let g = Graph::from_edges(5, &[(3, 0), (0, 4), (4, 1), (1, 2)]);
        let id = Permutation::identity(5);
        let before = graph_band_stats(&g, &id).bandwidth;
        assert!(before > 1);
        let p = reverse_cuthill_mckee(&g);
        let after = graph_band_stats(&g, &p).bandwidth;
        assert_eq!(after, 1);
    }

    #[test]
    fn grid_graph_bandwidth_bounded() {
        // 5x5 grid graph: optimal bandwidth is 5; RCM should reach <= 6.
        let n = 5;
        let mut edges = Vec::new();
        let idx = |r: usize, c: usize| (r * n + c) as u32;
        for r in 0..n {
            for c in 0..n {
                if c + 1 < n {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < n {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        let g = Graph::from_edges(n * n, &edges);
        let p = reverse_cuthill_mckee(&g);
        let s = graph_band_stats(&g, &p);
        assert!(s.bandwidth <= 6, "bandwidth {}", s.bandwidth);
    }

    #[test]
    fn disconnected_components_all_ordered() {
        let g = Graph::from_edges(6, &[(0, 1), (3, 4), (4, 5)]);
        let p = reverse_cuthill_mckee(&g);
        assert_eq!(p.len(), 6);
        // Valid permutation is implied by construction; check bandwidth is 1.
        assert_eq!(graph_band_stats(&g, &p).bandwidth, 1);
    }

    #[test]
    fn reverse_is_reversal_of_cm() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let cm = cuthill_mckee(&g);
        let rcm = reverse_cuthill_mckee(&g);
        for v in 0..4 {
            assert_eq!(rcm.old_to_new(v), 3 - cm.old_to_new(v));
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        let p = reverse_cuthill_mckee(&g);
        assert!(p.is_empty());
    }

    #[test]
    fn rcm_profile_not_worse_than_cm() {
        // Classic property: RCM profile <= CM profile.
        let g = Graph::from_edges(
            8,
            &[
                (0, 2),
                (0, 5),
                (1, 3),
                (2, 6),
                (3, 7),
                (5, 6),
                (6, 7),
                (1, 4),
            ],
        );
        let cm = cuthill_mckee(&g);
        let rcm = reverse_cuthill_mckee(&g);
        let pc = graph_band_stats(&g, &cm).profile;
        let pr = graph_band_stats(&g, &rcm).profile;
        assert!(pr <= pc, "rcm profile {pr} > cm profile {pc}");
    }
}
