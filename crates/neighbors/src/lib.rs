//! Nearest-neighbor search substrate for the `iim` workspace.
//!
//! Everything neighbor-shaped in the paper goes through `NN(t, F, k)`: the
//! kNN/kNNE/LOESS/ILLS baselines, IIM's learning neighbors (`ℓ`), IIM's
//! imputation neighbors (`k`), and the adaptive sweep which needs *all*
//! prefixes `NN(tᵢ, F, 1) ⊂ NN(tᵢ, F, 2) ⊂ …` at once.
//!
//! * [`dist`] — the paper's Formula 1 distance (Euclidean over the complete
//!   attributes, normalized by `|F|`).
//! * [`brute`] — exact top-k scans; the shape the paper's complexity
//!   analysis assumes ("advanced indexing ... is not the focus of this
//!   study").
//! * [`vptree`] — an owned, storable vantage-point tree for the large-`n`
//!   experiments (SN has 100k tuples) and for online serving; its
//!   metric-space pruning bounds the whole distance at every
//!   dimensionality.
//! * [`index`] — [`NeighborIndex`]: the brute/vp selection every hot
//!   path (IIM serving, the kNN-family baselines, order construction)
//!   runs on, with bit-identical results across variants.
//! * [`orders`] — fully sorted per-tuple neighbor orders, precomputed once
//!   and shared across the adaptive sweep (§V-A1 "precompute once the
//!   nearest neighbors for all tuples").

pub mod brute;
pub mod dist;
pub mod heap;
pub mod index;
pub mod orders;
pub mod vptree;

pub use brute::{knn, knn_into, Neighbor};
pub use dist::{euclidean_f, euclidean_full, sq_dist_f, sq_dist_many, sq_dist_on};
pub use heap::KnnScratch;
pub use index::{auto_choice, rebuild_threshold, IndexChoice, NeighborIndex};
pub use orders::NeighborOrders;
pub use vptree::VpTree;
