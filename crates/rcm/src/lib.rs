//! Reverse Cuthill-McKee (RCM) bandwidth reduction.
//!
//! Implements the band-matrix reorganization of Section III of the CAHD
//! paper:
//!
//! * [`level::LevelStructure`] — rooted BFS level structures,
//! * [`peripheral`] — the George–Liu pseudo-peripheral root finder (the
//!   paper's "compute pseudo-diameter" step),
//! * [`rcm`] — the textbook queue Cuthill-McKee of the paper's Fig. 4
//!   over all components, plus the final reversal: the single reference
//!   oracle the equivalence suites compare the production engine against,
//! * [`unsym`] — bandwidth reduction for *unsymmetric* (rectangular)
//!   matrices via the `A x A^T` pattern (Fig. 5 of the paper), including the
//!   column-ordering strategies used for reporting and visualization,
//! * [`ordering`] — alternative row orderings (one MinHash signature sort,
//!   which also backs `--ordering cluster`, and lexicographic) implementing the paper's dimensionality-reduction
//!   future-work direction, comparable against RCM,
//! * [`gps`] — the Gibbs–Poole–Stockmeyer algorithm (the other classic
//!   bandwidth reducer the paper cites), as an ablatable alternative,
//! * [`parallel`] — the production ordering engine: level-set
//!   Cuthill-McKee and BFS with deterministic claim-by-minimum-parent
//!   reassembly, byte-identical to the reference at every thread count,
//! * [`strategy`] — the [`OrderingStrategy`] run-time selector
//!   (`--ordering {rcm,bfs,cluster}` / `CAHD_ORDERING`).
//!
//! Everything here works against the one neighbor trait,
//! [`cahd_sparse::ParNeighborOracle`]: the oracle is `Sync` and all working
//! memory lives in a caller-owned [`cahd_sparse::OracleScratch`], so the
//! engine runs in parallel and the reference runs with one scratch, on
//! the materialized adjacency and on the inverted-index (implicit)
//! representation alike. Both order each parent's fresh neighbors by a
//! set-determined key, so no output depends on the order an oracle
//! enumerates neighbors in. Representation is selected by
//! [`cahd_sparse::RowGraphMode`] (`--rowgraph {auto,explicit,implicit}` /
//! `CAHD_ROWGRAPH`).

pub mod gps;
pub mod level;
pub mod ordering;
pub mod parallel;
pub mod peripheral;
pub mod rcm;
pub mod strategy;
pub mod unsym;

pub use cahd_sparse::{resolve_hub_cap, RowGraphMode};
pub use gps::gibbs_poole_stockmeyer;
pub use level::LevelStructure;
pub use ordering::{
    cluster_order, lexicographic_order, minhash_order, RowOrder, CLUSTER_HASHES, CLUSTER_SEED,
};
pub use parallel::{
    band_order, band_order_traced, band_order_with, PARALLEL_FRONTIER_MIN, PARALLEL_THREADS_MIN,
};
pub use peripheral::pseudo_peripheral;
pub use rcm::{cuthill_mckee, reverse_cuthill_mckee};
pub use strategy::OrderingStrategy;
pub use unsym::{
    reduce_unsymmetric, reduce_unsymmetric_traced, AatMethod, BandReduction, ColumnOrder,
    UnsymOptions,
};
