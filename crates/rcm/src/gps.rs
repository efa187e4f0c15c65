//! The Gibbs–Poole–Stockmeyer (GPS) bandwidth-reduction algorithm.
//!
//! GPS is the other classic bandwidth heuristic the paper cites (\[9\],
//! Gibbs, Poole & Stockmeyer, SIAM J. Numer. Anal. 1976). It differs from
//! RCM in two ways:
//!
//! 1. it locates *both* endpoints `(u, v)` of a pseudo-diameter and builds
//!    the two opposing level structures `L(u)`, `L(v)`;
//! 2. it merges them into a combined level assignment of smaller *width*
//!    (each vertex may sit at level `l_u(w)` or `ecc - l_v(w)`; connected
//!    components of the disagreeing vertices are assigned wholesale to
//!    whichever side keeps levels small), then numbers vertices level by
//!    level in increasing-degree order.
//!
//! On many graphs GPS matches RCM's bandwidth with a smaller profile and
//! fewer level-structure rebuilds; here it serves as an alternative
//! ordering for the band-matrix phase, ablatable against RCM (the
//! `rcm/aat_representation`-style benches and `ext-orderings` harness
//! accept any [`cahd_sparse::Permutation`]).

use cahd_sparse::{OracleScratch, ParNeighborOracle, Permutation};

use crate::level::LevelStructure;
use crate::peripheral::pseudo_peripheral_with_scratch;

/// Computes the GPS ordering of `g`, returned like
/// [`crate::reverse_cuthill_mckee`] (the `new_to_old` view is the vertex
/// ordering). Handles disconnected graphs component by component.
pub fn gibbs_poole_stockmeyer(g: &impl ParNeighborOracle) -> Permutation {
    let n = g.n_vertices();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut mark = vec![0u32; n];
    let mut stamp = 0u32;
    let mut scratch = g.new_scratch();
    let mut assigned = vec![false; n];

    for start in 0..n {
        if assigned[start] {
            continue;
        }
        // --- Step 1: pseudo-diameter endpoints u (root) and v. ---
        let (_u, lu) =
            pseudo_peripheral_with_scratch(g, start as u32, &mut mark, &mut stamp, &mut scratch);
        let v = *lu
            .last_level()
            .iter()
            .min_by_key(|&&w| (g.degree(w as usize), w))
            // cahd-lint: allow(L003, reason = "a BFS level structure rooted at u always has a non-empty last level (it contains u at minimum)")
            .expect("non-empty level");
        stamp += 1;
        let lv = LevelStructure::build(g, v, &mut mark, stamp, &mut scratch);
        let ecc = lu.eccentricity();

        // --- Step 2: combined level assignment. ---
        // Level from u and reversed level from v; vertices where the two
        // agree are fixed, the rest are assigned by component.
        let comp_verts = lu.vertices();
        let mut level_u = vec![usize::MAX; n];
        let mut level_v = vec![usize::MAX; n];
        for k in 0..lu.n_levels() {
            for &w in lu.level(k) {
                level_u[w as usize] = k;
            }
        }
        for k in 0..lv.n_levels() {
            for &w in lv.level(k) {
                level_v[w as usize] = lv.eccentricity() - k;
            }
        }
        let mut level = vec![usize::MAX; n];
        let mut undecided: Vec<u32> = Vec::new();
        for &w in comp_verts {
            let (a, b) = (level_u[w as usize], level_v[w as usize]);
            if a == b {
                level[w as usize] = a;
            } else {
                undecided.push(w);
            }
        }
        if !undecided.is_empty() {
            assign_undecided(
                g,
                &undecided,
                &level_u,
                &level_v,
                &mut level,
                ecc,
                &mut scratch,
            );
        }

        // --- Step 3: number level by level, by increasing degree within a
        // level, parents first (stable BFS-like sweep). ---
        let n_levels = ecc + 1;
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n_levels];
        for &w in comp_verts {
            let l = level[w as usize].min(n_levels - 1);
            buckets[l].push(w);
        }
        for bucket in &mut buckets {
            bucket.sort_by_key(|&w| (g.degree(w as usize), w));
        }
        for bucket in buckets {
            for w in bucket {
                debug_assert!(!assigned[w as usize]);
                assigned[w as usize] = true;
                order.push(w);
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    // cahd-lint: allow(L003, reason = "the component sweep pushes each vertex exactly once (debug_assert_eq above)")
    Permutation::from_new_to_old(order).expect("GPS visits every vertex once")
}

/// Assigns the vertices where `L(u)` and `L(v)` disagree: each connected
/// component of the undecided subgraph goes wholesale to the side (u-levels
/// or v-levels) whose level sizes it inflates less — the GPS width
/// criterion.
fn assign_undecided(
    g: &impl ParNeighborOracle,
    undecided: &[u32],
    level_u: &[usize],
    level_v: &[usize],
    level: &mut [usize],
    ecc: usize,
    scratch: &mut OracleScratch,
) {
    // Current level populations from the already-fixed vertices.
    let n = level.len();
    let n_levels = ecc + 1;
    let mut pop = vec![0usize; n_levels];
    for w in 0..n {
        if level[w] != usize::MAX {
            pop[level[w].min(n_levels - 1)] += 1;
        }
    }
    let mut in_undecided = vec![false; n];
    for &w in undecided {
        in_undecided[w as usize] = true;
    }
    let mut seen = vec![false; n];
    let mut queue: Vec<u32> = Vec::new();
    let mut nbrs: Vec<u32> = Vec::new();
    // Components in decreasing size order matter in the original; a simple
    // discovery order keeps the implementation lean and near-optimal in
    // practice.
    for &s in undecided {
        if seen[s as usize] {
            continue;
        }
        // Collect the component.
        queue.clear();
        queue.push(s);
        seen[s as usize] = true;
        let mut head = 0;
        while head < queue.len() {
            let w = queue[head] as usize;
            head += 1;
            nbrs.clear();
            g.neighbors_scratch(w, scratch, &mut nbrs);
            for &x in &nbrs {
                if in_undecided[x as usize] && !seen[x as usize] {
                    seen[x as usize] = true;
                    queue.push(x);
                }
            }
        }
        // Width increase if assigned to u-levels vs v-levels.
        let score = |pick_u: bool| -> usize {
            let mut delta = pop.clone();
            for &w in &queue {
                let l = if pick_u {
                    level_u[w as usize]
                } else {
                    level_v[w as usize]
                };
                delta[l.min(n_levels - 1)] += 1;
            }
            delta.into_iter().max().unwrap_or(0)
        };
        let pick_u = score(true) <= score(false);
        for &w in &queue {
            let l = if pick_u {
                level_u[w as usize]
            } else {
                level_v[w as usize]
            };
            level[w as usize] = l;
            pop[l.min(n_levels - 1)] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_sparse::bandwidth::graph_band_stats;
    use cahd_sparse::Graph;

    #[test]
    fn path_graph_optimal() {
        let g = Graph::from_edges(6, &[(3, 0), (0, 5), (5, 1), (1, 4), (4, 2)]);
        let p = gibbs_poole_stockmeyer(&g);
        assert_eq!(graph_band_stats(&g, &p).bandwidth, 1);
    }

    #[test]
    fn grid_graph_bounded() {
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
        let p = gibbs_poole_stockmeyer(&g);
        let b = graph_band_stats(&g, &p).bandwidth;
        assert!(b <= 7, "bandwidth {b}");
    }

    #[test]
    fn disconnected_graph_complete() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (4, 5)]);
        let p = gibbs_poole_stockmeyer(&g);
        assert_eq!(p.len(), 7);
        assert!(p.then(&p.inverse()).is_identity());
    }

    #[test]
    fn star_graph() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let p = gibbs_poole_stockmeyer(&g);
        // Star bandwidth is at best 2 with center in the middle.
        assert!(graph_band_stats(&g, &p).bandwidth <= 3);
    }

    #[test]
    fn single_vertex_and_empty() {
        let g = Graph::from_edges(1, &[]);
        assert_eq!(gibbs_poole_stockmeyer(&g).len(), 1);
        let e = Graph::from_edges(0, &[]);
        assert!(gibbs_poole_stockmeyer(&e).is_empty());
    }

    #[test]
    fn comparable_to_rcm_on_random_sparse() {
        use crate::rcm::reverse_cuthill_mckee;
        // Deterministic pseudo-random sparse graph.
        let n = 60u32;
        let mut edges = Vec::new();
        let mut x = 12345u64;
        for _ in 0..150 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (x >> 33) as u32 % n;
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) as u32 % n;
            edges.push((u, v));
        }
        let g = Graph::from_edges(n as usize, &edges);
        let gps = gibbs_poole_stockmeyer(&g);
        let rcm = reverse_cuthill_mckee(&g);
        let b_gps = graph_band_stats(&g, &gps).bandwidth;
        let b_rcm = graph_band_stats(&g, &rcm).bandwidth;
        // GPS must be in the same quality class (within 2x of RCM here).
        assert!(b_gps <= b_rcm * 2, "gps {b_gps} vs rcm {b_rcm}");
    }
}
