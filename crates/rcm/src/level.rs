//! Rooted BFS level structures.
//!
//! A level structure `L(v) = {L0, L1, ..., Lh}` partitions the component of
//! `v` by BFS distance from `v`. Its *eccentricity* `h` and *width*
//! `max |Li|` drive the pseudo-peripheral root search: RCM wants a root of
//! (nearly) maximal eccentricity, because deep, narrow level structures
//! produce orderings with small bandwidth.

use cahd_sparse::{OracleScratch, ParNeighborOracle};

/// A BFS level structure rooted at some vertex, confined to that vertex's
/// connected component.
#[derive(Clone, Debug)]
pub struct LevelStructure {
    root: u32,
    /// Concatenated vertices, level by level (each level in parent
    /// order, each parent's batch ascending).
    verts: Vec<u32>,
    /// `offsets[k]..offsets[k+1]` indexes level `k` in `verts`.
    offsets: Vec<usize>,
}

impl LevelStructure {
    /// Builds the level structure rooted at `root`.
    ///
    /// `mark`/`stamp` implement O(1) reusable visited flags: a vertex is
    /// visited iff `mark[v] == stamp`. The caller increments `stamp` between
    /// unrelated traversals and keeps `mark.len() == g.n_vertices()`.
    /// `scratch` must come from `g.new_scratch()`.
    ///
    /// Each parent's fresh neighbors are appended in ascending id order,
    /// so the level order is a function of the graph alone, never of the
    /// order the oracle enumerates neighbors in (the frontier engine's
    /// within-parent rule).
    pub fn build(
        g: &impl ParNeighborOracle,
        root: u32,
        mark: &mut [u32],
        stamp: u32,
        scratch: &mut OracleScratch,
    ) -> Self {
        debug_assert_eq!(mark.len(), g.n_vertices());
        let mut verts: Vec<u32> = vec![root];
        let mut offsets: Vec<usize> = vec![0];
        mark[root as usize] = stamp;
        let mut level_start = 0usize;
        let mut nbrs: Vec<u32> = Vec::new();
        while level_start < verts.len() {
            let level_end = verts.len();
            offsets.push(level_end);
            for i in level_start..level_end {
                let v = verts[i] as usize;
                nbrs.clear();
                g.neighbors_scratch(v, scratch, &mut nbrs);
                let fresh_start = verts.len();
                for &w in &nbrs {
                    if mark[w as usize] != stamp {
                        mark[w as usize] = stamp;
                        verts.push(w);
                    }
                }
                verts[fresh_start..].sort_unstable();
            }
            if verts.len() == level_end {
                break; // no new level
            }
            level_start = level_end;
        }
        LevelStructure {
            root,
            verts,
            offsets,
        }
    }

    /// Convenience constructor that allocates its own visited flags and
    /// oracle scratch.
    pub fn rooted_at(g: &impl ParNeighborOracle, root: u32) -> Self {
        let mut mark = vec![0u32; g.n_vertices()];
        Self::build(g, root, &mut mark, 1, &mut g.new_scratch())
    }

    /// Assembles a level structure from pre-computed parts (the parallel
    /// frontier engine builds `verts`/`offsets` itself). `offsets` must
    /// follow the [`LevelStructure::build`] convention: `offsets[k]` is
    /// the start of level `k` in `verts`, with a final entry equal to
    /// `verts.len()`.
    pub(crate) fn from_raw(root: u32, verts: Vec<u32>, offsets: Vec<usize>) -> Self {
        debug_assert!(offsets.len() >= 2);
        debug_assert_eq!(*offsets.last().unwrap_or(&0), verts.len());
        LevelStructure {
            root,
            verts,
            offsets,
        }
    }

    /// The root vertex.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Number of levels (`h + 1` where `h` is the eccentricity).
    pub fn n_levels(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The eccentricity of the root within its component.
    pub fn eccentricity(&self) -> usize {
        self.n_levels() - 1
    }

    /// The largest level size.
    pub fn width(&self) -> usize {
        (0..self.n_levels())
            .map(|k| self.level(k).len())
            .max()
            .unwrap_or(0)
    }

    /// Total number of vertices reached (the size of the component).
    pub fn n_vertices(&self) -> usize {
        self.verts.len()
    }

    /// The vertices of level `k`, in parent order (each parent's batch
    /// ascending).
    pub fn level(&self, k: usize) -> &[u32] {
        &self.verts[self.offsets[k]..self.offsets[k + 1]]
    }

    /// The deepest level.
    pub fn last_level(&self) -> &[u32] {
        self.level(self.n_levels() - 1)
    }

    /// All reached vertices in BFS order.
    pub fn vertices(&self) -> &[u32] {
        &self.verts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cahd_sparse::Graph;

    #[test]
    fn fresh_neighbors_appended_in_id_order() {
        // The implicit graph lists row 0's neighbors item by item: row 3
        // (item 0) before rows 1 and 2 (item 1). The level must not care.
        let a = cahd_sparse::CsrMatrix::from_rows(&[vec![0, 1], vec![1], vec![1], vec![0]], 2);
        let im = cahd_sparse::ImplicitRowGraph::new(&a);
        let mut listed = Vec::new();
        im.neighbors_scratch(0, &mut im.new_scratch(), &mut listed);
        assert_eq!(listed, vec![3, 1, 2]);
        let l = LevelStructure::rooted_at(&im, 0);
        assert_eq!(l.level(1), &[1, 2, 3]);
    }

    #[test]
    fn path_levels() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let l = LevelStructure::rooted_at(&g, 0);
        assert_eq!(l.n_levels(), 4);
        assert_eq!(l.eccentricity(), 3);
        assert_eq!(l.width(), 1);
        assert_eq!(l.level(2), &[2]);
        assert_eq!(l.last_level(), &[3]);
        assert_eq!(l.n_vertices(), 4);
    }

    #[test]
    fn star_from_center_and_leaf() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let center = LevelStructure::rooted_at(&g, 0);
        assert_eq!(center.eccentricity(), 1);
        assert_eq!(center.width(), 4);
        let leaf = LevelStructure::rooted_at(&g, 1);
        assert_eq!(leaf.eccentricity(), 2);
        assert_eq!(leaf.width(), 3);
    }

    #[test]
    fn stays_in_component() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]);
        let l = LevelStructure::rooted_at(&g, 0);
        assert_eq!(l.n_vertices(), 2);
        assert!(!l.vertices().contains(&2));
    }

    #[test]
    fn isolated_vertex() {
        let g = Graph::from_edges(3, &[(1, 2)]);
        let l = LevelStructure::rooted_at(&g, 0);
        assert_eq!(l.n_levels(), 1);
        assert_eq!(l.eccentricity(), 0);
        assert_eq!(l.n_vertices(), 1);
    }

    #[test]
    fn reusable_marks() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut mark = vec![0u32; 3];
        let mut scratch = g.new_scratch();
        let a = LevelStructure::build(&g, 0, &mut mark, 1, &mut scratch);
        let b = LevelStructure::build(&g, 2, &mut mark, 2, &mut scratch);
        assert_eq!(a.eccentricity(), 2);
        assert_eq!(b.eccentricity(), 2);
    }
}
