//! # iim — Imputation via Individual Models
//!
//! A from-scratch Rust implementation of
//! *Learning Individual Models for Imputation* (Zhang, Song, Sun, Wang;
//! ICDE 2019), including the thirteen comparison baselines of the paper's
//! Table II, the downstream clustering/classification applications of its
//! Table VII, calibrated synthetic analogs of its nine evaluation
//! datasets, and an experiment harness regenerating every table and
//! figure of its evaluation section.
//!
//! ## The method in one paragraph
//!
//! Missing numerical values defeat the two classic imputation families in
//! different ways: value-averaging over nearest neighbors (kNN) fails
//! under **sparsity** (no neighbor holds a similar value), and regression
//! with one shared model (GLR/LOESS) fails under **heterogeneity** (no one
//! model fits all tuples). IIM learns a small ridge-regression model
//! **per complete tuple** over that tuple's ℓ nearest neighbors
//! (Algorithm 1), imputes an incomplete tuple by evaluating the individual
//! models of its k nearest complete neighbors at the tuple's observed
//! attributes (Algorithm 2), and combines the k candidate values with
//! mutual-voting weights that suppress outlying suggestions. The number ℓ
//! is chosen **per tuple** by validating candidate models against the
//! complete tuples they would impute (Algorithm 3), with incremental
//! Gram-matrix maintenance making the sweep constant-time per step
//! (Proposition 3). kNN and GLR fall out as the ℓ = 1 and ℓ = n special
//! cases (Propositions 1–2).
//!
//! ## Quick start: learn once, impute many
//!
//! The protocol mirrors the paper's phase split ("the offline learning
//! phase only needs to be processed once", §VI-B3): `fit` learns a model
//! offline, the returned [`FittedImputer`](data::FittedImputer) serves any
//! number of online queries.
//!
//! ```
//! use iim::prelude::*;
//!
//! // The paper's Figure 1: two streets of check-ins. tx = (5.0, ?) has
//! // true A2 = 1.8.
//! let (relation, tx) = iim::data::paper_fig1();
//!
//! let imputer = PerAttributeImputer::new(Iim::new(IimConfig {
//!     k: 3,
//!     ..IimConfig::default()
//! }));
//!
//! // Offline phase, once — the relation is fully complete; nothing needs
//! // imputing yet.
//! let fitted = imputer.fit(&relation).unwrap();
//!
//! // Online phase, per query: `None` marks the cell to impute.
//! let served = fitted.impute_one(&tx).unwrap();
//! assert!((served[1] - 1.8).abs() < 0.7); // kNN value-averaging is off by 1.6
//!
//! // Whole-relation batch imputation is the same machinery:
//! // `impute(&rel)` ≡ `fit` on the missing attributes + `impute_all`.
//! let mut incomplete = relation.clone();
//! incomplete.push_row_opt(&tx);
//! let filled = imputer.impute(&incomplete).unwrap();
//! assert_eq!(filled.missing_count(), 0);
//! ```
//!
//! ### Migrating from the batch-only trait (pre-fit/serve)
//!
//! * `Imputer::impute(&rel)` still exists — it is now a blanket convenience
//!   over `fit_targets` + `impute_all`. Semantics are unchanged for the
//!   deterministic methods; BLR and PMM now key their per-query randomness
//!   by the query's bit pattern instead of a shared sequential RNG stream
//!   (the serving contract: same fitted model + same query ⇒ same answer),
//!   so their imputed values differ from pre-fit/serve releases for the
//!   same seed, and identical query rows receive identical draws.
//! * `Imputer::impute_timed` is gone: time the phases yourself around
//!   [`Imputer::fit_targets`](data::Imputer::fit_targets) (offline) and
//!   [`FittedImputer::impute_all`](data::FittedImputer::impute_all)
//!   (online), accumulating into
//!   [`PhaseTimings`](data::PhaseTimings) — see `iim-bench`'s
//!   `run_lineup` for the pattern.
//! * Methods implementing the trait now provide `fit_targets` (offline
//!   learning, returning a `Box<dyn FittedImputer>`) instead of `impute`;
//!   per-attribute methods keep implementing
//!   [`AttrEstimator`](data::AttrEstimator) and inherit everything through
//!   [`PerAttributeImputer`](data::PerAttributeImputer).
//!
//! ## Parallelism
//!
//! Both phases are embarrassingly parallel — the paper learns one model
//! per tuple and serves each query independently — and every crate fans
//! its hot loops out through one substrate, [`exec`] (`iim-exec`):
//!
//! * **Configuration.** Worker count resolves, in order, from the CLI's
//!   `--threads`, programmatic [`exec::set_default_threads`], the
//!   `IIM_THREADS` environment variable, and the available parallelism.
//!   [`IimConfig::threads`](core::IimConfig) still overrides per learning
//!   call (`0` = process default). Maps smaller than
//!   [`exec::DEFAULT_SERIAL_CUTOFF`] run inline on the caller.
//! * **Determinism.** Every parallel path is a pure indexed map — results
//!   land at their own index and float reductions stay serial — so output
//!   is **bitwise-identical for every worker count**. This is
//!   property-tested per method in `tests/fit_serve.rs` (a 4-worker
//!   `impute_all` equals the serial one cell-for-cell) and asserted on
//!   whole filled relations by the spec runner (`iim bench run`).
//! * **What runs in parallel.** Offline: individual-model learning and
//!   the adaptive ℓ sweep (per tuple), neighbor-order construction (per
//!   point), per-target fits in
//!   [`PerAttributeImputer`](data::PerAttributeImputer), and the per-row
//!   inner loops of SVD/IFC/ILLS/ERACER. Online:
//!   [`FittedImputer::impute_batch`](data::FittedImputer) and
//!   [`FittedImputer::impute_all`](data::FittedImputer) fan queries out;
//!   one fitted model also serves many threads directly (`Send + Sync`,
//!   validated by a cross-thread bitwise test).
//! * **Measured.** `iim bench run crates/bench/specs/parallel_grid.toml`
//!   records every method's offline/online wall-clock at 1 vs 4 threads
//!   into `bench_results/BENCH_parallel_grid.json`, asserting that both
//!   thread counts fill each relation bitwise the same. The file records
//!   `available_cores`, so re-run it to capture another machine's
//!   scaling.
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`core`] | `iim-core` | IIM itself: learning, imputation, adaptive ℓ, incremental computation |
//! | [`data`] | `iim-data` | relations, missing-value injection, metrics, the [`Imputer`](data::Imputer) protocol |
//! | [`baselines`] | `iim-baselines` | Mean, kNN, kNNE, IFC, GMM, SVD, ILLS, GLR, LOESS, BLR, ERACER, PMM, XGB |
//! | [`neighbors`] | `iim-neighbors` | Formula-1 distances, brute/VP-tree kNN, neighbor orders |
//! | [`exec`] | `iim-exec` | deterministic parallel maps, the process-wide worker pool |
//! | [`linalg`] | `iim-linalg` | dense kernels: Cholesky/LU, Jacobi eigen, thin SVD, ridge, Gram accumulators |
//! | [`ml`] | `iim-ml` | k-means + purity, kNN classifier + F1 (Table VII) |
//! | [`datagen`] | `iim-datagen` | calibrated analogs of ASF, CCS, CCPP, SN, PHASE, CA, DA, MAM, HEP |
//! | [`persist`] | `iim-persist` | versioned binary model snapshots (save/load every fitted imputer bit-exactly) |
//! | [`serve`] | `iim-serve` | std-only HTTP/1.1 daemon over a micro-batching queue |
//!
//! Experiments: `cargo run -p iim-bench --release --bin all` regenerates
//! every table and figure into `bench_results/`.
//!
//! ## Deployment
//!
//! The offline phase survives the process: [`persist`] snapshots any
//! fitted lineup model to a checksummed, versioned binary file whose
//! loaded form serves **bitwise-identical** fills, and [`serve`] turns it
//! into a long-lived HTTP daemon (`iim fit --save model.iim` /
//! `iim serve model.iim`). See the README's *Deployment* section for the
//! format guarantees and an example curl session.

pub use iim_baselines as baselines;
pub use iim_core as core;
pub use iim_data as data;
pub use iim_datagen as datagen;
pub use iim_exec as exec;
pub use iim_linalg as linalg;
pub use iim_ml as ml;
pub use iim_neighbors as neighbors;
pub use iim_persist as persist;
pub use iim_serve as serve;

pub mod methods;

/// The types most applications need.
pub mod prelude {
    pub use iim_baselines::all_baselines;
    pub use iim_core::{AdaptiveConfig, Iim, IimConfig, IimModel, Learning, Weighting};
    pub use iim_data::{
        AttrTask, FeatureSelection, FittedImputer, GroundTruth, ImputeError, Imputer, MissingCell,
        PerAttributeImputer, PhaseTimings, Relation, RowOpt, Schema,
    };
}
