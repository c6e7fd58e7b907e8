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
//! One invariant is enforced while running, not just documented: an IIM
//! fill depends only on the k neighbours and their individual models, so
//! neither the neighbour index nor the worker count may change a value.
//! The runner keeps the first filled relation of every (dataset, rate,
//! method) point and asserts that each later repeat, thread count and
//! index fills it bitwise the same (missing cells compare equal). A
//! mismatch panics — that is a product bug, not noise. RMSE, a function
//! of the fill, is recorded once per cell.

use crate::datasets::PaperData;
use crate::harness::{method_lineup_with, score_cell};
use crate::result::{BenchResult, Cell};
use crate::spec::Spec;
use iim_data::inject::inject_attr;
use iim_data::{FeatureSelection, Relation};
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
/// then missing-rate, then index, then method, then threads — the order
/// [`run`] executes cells in.
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

    for &dataset in &spec.datasets {
        let clean = dataset.generate(spec.n, spec.seed);
        let n = clean.n_rows();
        for &missing_rate in &spec.missing_rates {
            let mut rel = clean.clone();
            let am = rel.arity() - 1;
            let n_inc = ((missing_rate * n as f64).ceil() as usize).clamp(1, n / 2);
            let truth = inject_attr(&mut rel, am, n_inc, &mut StdRng::seed_from_u64(spec.seed));
            let targets = rel.incomplete_attrs();
            // method -> the first fill of this (dataset, rate) point, which
            // every later repeat, thread count and index must reproduce.
            let mut first_fill: HashMap<&str, Relation> = HashMap::new();
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
                        let cell = format!(
                            "{} rate={missing_rate} index={} method={method_name} \
                             threads={threads}",
                            dataset.name(),
                            index.name()
                        );
                        for _ in 0..spec.warmup {
                            score_cell(&**method, &rel, &truth, &targets);
                        }
                        let mut offline = Vec::with_capacity(spec.repeats);
                        let mut online = Vec::with_capacity(spec.repeats);
                        let mut rmse = None;
                        for rep in 0..spec.repeats {
                            let score = score_cell(&**method, &rel, &truth, &targets);
                            let (Some(r), Some(filled)) = (score.rmse, score.filled) else {
                                break;
                            };
                            match first_fill.get(method_name.as_str()) {
                                None => {
                                    first_fill.insert(method_name, filled);
                                }
                                Some(first) => assert!(
                                    *first == filled,
                                    "{cell} repeat {rep}: filled relation differs from the \
                                     point's first fill",
                                ),
                            }
                            rmse = Some(r);
                            offline.push(score.timings.offline.as_secs_f64());
                            online.push(score.timings.online.as_secs_f64());
                        }
                        let Some(rmse) = rmse else {
                            eprintln!("[bench] skip {cell}: unsupported workload");
                            continue;
                        };
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
                        eprintln!("[bench] {cell} done");
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
    use crate::result::Coord;

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

    #[test]
    fn fills_agree_across_thread_counts_and_indexes() {
        let spec = Spec {
            methods: vec!["IIM".to_string(), "kNN".to_string()],
            threads: vec![1, 2],
            index: vec![IndexChoice::Brute, IndexChoice::VpTree],
            repeats: 1,
            n: Some(600),
            ..tiny_spec()
        };
        let result = run(&spec);
        assert_eq!(result.cells.len(), 8);
        for method in ["IIM", "kNN"] {
            let coord = ("method".to_string(), Coord::Str(method.to_string()));
            let bits: Vec<u64> = result
                .cells
                .iter()
                .filter(|c| c.id.contains(&coord))
                .map(|c| c.metric_named("rmse").unwrap().samples[0].to_bits())
                .collect();
            assert_eq!(bits.len(), 4, "{method}: 2 thread counts x 2 indexes");
            assert!(bits.iter().all(|&b| b == bits[0]), "{method}: {bits:?}");
        }
    }
}
