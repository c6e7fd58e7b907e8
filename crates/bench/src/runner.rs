//! The runner/executor split: expand a [`Spec`] into cells, execute each
//! through the shared harness, collect an envelope.
//!
//! [`expand`] is the pure half — the cross-product of (dataset ×
//! missing-rate × index × method × threads) as [`PlannedCell`]s, in a
//! deterministic order — and [`run`] is the effectful half: for each
//! planned cell it generates the dataset, injects the workload, sets the
//! process thread count, warms up, and records `repeats` timed samples of
//! the offline/online phases plus the RMS error through
//! [`score_cell`].
//!
//! Two invariants are enforced while running, not just documented:
//!
//! - **Determinism across threads**: when a spec sweeps thread counts,
//!   the RMS error of every (dataset, rate, index, method) point must be
//!   bitwise identical across them (the workspace-wide reproducibility
//!   contract). A mismatch panics — that is a product bug, not noise.
//! - **Determinism across repeats**: RMSE is recorded once per cell, after
//!   asserting every repeat produced the same value.

use crate::datasets::PaperData;
use crate::harness::{method_lineup_with, score_cell};
use crate::result::{BenchResult, Cell};
use crate::spec::Spec;
use iim_data::inject::inject_attr;
use iim_data::FeatureSelection;
use iim_neighbors::IndexChoice;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// One expanded experiment point, before execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedCell {
    /// Dataset to generate.
    pub dataset: PaperData,
    /// Fraction of tuples made incomplete.
    pub missing_rate: f64,
    /// Neighbor index variant.
    pub index: IndexChoice,
    /// Method name (validated against the lineup).
    pub method: String,
    /// Worker-thread count.
    pub threads: usize,
}

/// Expands the spec's cross-product in deterministic order: dataset,
/// then missing-rate, then index, then method, then threads (threads
/// innermost so the determinism check sees adjacent cells).
pub fn expand(spec: &Spec) -> Vec<PlannedCell> {
    let mut cells = Vec::new();
    for &dataset in &spec.datasets {
        for &missing_rate in &spec.missing_rates {
            for &index in &spec.index {
                for method in &spec.methods {
                    for &threads in &spec.threads {
                        cells.push(PlannedCell {
                            dataset,
                            missing_rate,
                            index,
                            method: method.clone(),
                            threads,
                        });
                    }
                }
            }
        }
    }
    cells
}

/// Executes the spec and returns the filled envelope.
///
/// Methods that report a workload as unsupported (the paper's "-"
/// entries, e.g. SVD on two attributes) are skipped with a stderr note —
/// the envelope simply has no cell for them, which `diff` reports as a
/// warning rather than a failure.
///
/// Progress goes to stderr, one line per executed cell.
pub fn run(spec: &Spec) -> BenchResult {
    spec.validate().expect("spec validated before running");
    let mut result =
        BenchResult::new(&spec.name, spec.warmup, spec.repeats).with_spec(spec.to_toml());
    // (dataset, rate, index, method) -> rmse bits from the first thread
    // count that ran the point.
    let mut rmse_by_point: HashMap<String, u64> = HashMap::new();

    for &dataset in &spec.datasets {
        let clean = dataset.generate(spec.n, spec.seed);
        let n = clean.n_rows();
        for &missing_rate in &spec.missing_rates {
            let mut rel = clean.clone();
            let am = rel.arity() - 1;
            let n_inc = ((missing_rate * n as f64).ceil() as usize).clamp(1, n / 2);
            let truth = inject_attr(&mut rel, am, n_inc, &mut StdRng::seed_from_u64(spec.seed));
            let targets = rel.incomplete_attrs();
            for &index in &spec.index {
                let lineup =
                    method_lineup_with(spec.k, spec.seed, n, FeatureSelection::AllOthers, index);
                for method_name in &spec.methods {
                    let method = lineup
                        .iter()
                        .find(|m| m.name() == method_name)
                        .expect("spec methods validated against the lineup");
                    for &threads in &spec.threads {
                        iim_exec::set_default_threads(threads);
                        let point = format!(
                            "{} rate={missing_rate} index={} method={method_name}",
                            dataset.name(),
                            index.name()
                        );
                        for _ in 0..spec.warmup {
                            score_cell(&**method, &rel, &truth, &targets);
                        }
                        let mut offline = Vec::with_capacity(spec.repeats);
                        let mut online = Vec::with_capacity(spec.repeats);
                        let mut rmse: Option<f64> = None;
                        let mut supported = true;
                        for rep in 0..spec.repeats {
                            let score = score_cell(&**method, &rel, &truth, &targets);
                            let Some(r) = score.rmse else {
                                supported = false;
                                break;
                            };
                            match rmse {
                                None => rmse = Some(r),
                                Some(prev) => assert_eq!(
                                    prev.to_bits(),
                                    r.to_bits(),
                                    "{point}: rmse drifted between repeat {} and {rep}",
                                    rep - 1,
                                ),
                            }
                            offline.push(score.timings.offline.as_secs_f64());
                            online.push(score.timings.online.as_secs_f64());
                        }
                        if !supported {
                            eprintln!("[bench] skip {point}: unsupported workload");
                            continue;
                        }
                        let rmse = rmse.expect("repeats >= 1");
                        match rmse_by_point.entry(point.clone()) {
                            std::collections::hash_map::Entry::Vacant(e) => {
                                e.insert(rmse.to_bits());
                            }
                            std::collections::hash_map::Entry::Occupied(e) => assert_eq!(
                                *e.get(),
                                rmse.to_bits(),
                                "{point}: rmse differs across thread counts",
                            ),
                        }
                        result.push(
                            Cell::new()
                                .coord_str("dataset", dataset.name())
                                .coord_str("method", method_name)
                                .coord_num("missing_rate", missing_rate)
                                .coord_num("threads", threads as f64)
                                .coord_str("index", index.name())
                                .coord_num("n", n as f64)
                                .coord_num("k", spec.k as f64)
                                .metric("offline_s", offline)
                                .metric("online_s", online)
                                .metric("rmse", vec![rmse]),
                        );
                        eprintln!("[bench] {point} threads={threads} done");
                    }
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> Spec {
        Spec {
            name: "tiny".to_string(),
            methods: vec!["Mean".to_string(), "kNN".to_string()],
            datasets: vec![PaperData::Asf],
            missing_rates: vec![0.05],
            threads: vec![1],
            repeats: 2,
            warmup: 0,
            n: Some(120),
            ..Spec::default()
        }
    }

    #[test]
    fn expand_orders_threads_innermost() {
        let mut spec = tiny_spec();
        spec.threads = vec![1, 2];
        let cells = expand(&spec);
        assert_eq!(cells.len(), 4);
        assert_eq!((cells[0].method.as_str(), cells[0].threads), ("Mean", 1));
        assert_eq!((cells[1].method.as_str(), cells[1].threads), ("Mean", 2));
        assert_eq!((cells[2].method.as_str(), cells[2].threads), ("kNN", 1));
    }

    #[test]
    fn runs_a_tiny_spec_end_to_end() {
        let spec = tiny_spec();
        let result = run(&spec);
        assert_eq!(result.cells.len(), 2);
        assert_eq!(result.name, "tiny");
        assert!(result.machine.available_cores >= 1);
        for cell in &result.cells {
            assert_eq!(cell.metric_named("offline_s").unwrap().samples.len(), 2);
            assert_eq!(cell.metric_named("rmse").unwrap().samples.len(), 1);
            assert!(cell.metric_named("rmse").unwrap().samples[0].is_finite());
        }
        // The envelope round-trips through its own JSON.
        let back = BenchResult::from_json_text(&result.render()).expect("round trip");
        assert_eq!(back, result);
    }
}
