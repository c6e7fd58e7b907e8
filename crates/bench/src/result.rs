//! The one versioned, machine-tagged bench-result envelope.
//!
//! Every JSON file the bench surface emits — runner output, the bespoke
//! serving/learn/serve_load/registry_load executors, CI gate runs — uses
//! this schema, so [`diff`](crate::diff) can compare any two result files
//! regardless of which experiment produced them.
//!
//! # Schema (version 1)
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "name": "ci_quick",
//!   "machine": {
//!     "available_cores": 1,
//!     "cpu_model": "...",
//!     "os": "linux",
//!     "rustc": "rustc 1.95.0 ...",
//!     "git_commit": "b9ca9f0"
//!   },
//!   "warmup_policy": {"warmup": 1, "repeats": 3},
//!   "spec_toml": "name = \"ci_quick\"\n...",
//!   "note": "free-form context",
//!   "cells": [
//!     {
//!       "id": {"dataset": "ASF", "method": "IIM", "missing_rate": 0.05,
//!              "threads": 1, "index": "auto", "n": 300},
//!       "metrics": {
//!         "offline_s": {"samples": [0.11, 0.10], "mean": 0.105,
//!                        "min": 0.10, "max": 0.11, "p50": 0.105},
//!         "rmse": {"samples": [8.08], "mean": 8.08, ...}
//!       }
//!     }
//!   ]
//! }
//! ```
//!
//! A **cell** is one executed experiment point: its `id` is the coordinate
//! map that [`diff`](crate::diff) matches on (order-insensitive), and each
//! metric carries the raw `samples` plus derived summary stats (the stats
//! are redundant — recomputed from samples on load — but keep the files
//! grep-able without a calculator).
//!
//! # Machine tags
//!
//! `available_cores` is detected, never asserted: a result produced on a
//! 1-core CI box says so, so thread-scaling speedups of ≈1× there read as
//! honest rather than wrong. `rustc` and `git_commit`
//! are best-effort (running the tools at capture time) and degrade to
//! `"unknown"` off-repo.
//!
//! # Version check
//!
//! [`BenchResult::load`] reads schema-v1 envelopes only. A file with any
//! other `schema_version`, or with none (the pre-envelope `BENCH_*.json`
//! shapes, none of which remain committed), is a typed
//! [`LoadError::Shape`].

use crate::json::{Json, JsonError};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Version stamped into every emitted envelope.
pub const SCHEMA_VERSION: u64 = 1;

/// Where a result ran: detected at capture time, recorded verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    /// `std::thread::available_parallelism` at capture time.
    pub available_cores: usize,
    /// CPU model string (from `/proc/cpuinfo`; `"unknown"` elsewhere).
    pub cpu_model: String,
    /// `std::env::consts::OS`.
    pub os: String,
    /// `rustc --version` output (`"unknown"` if the tool is absent).
    pub rustc: String,
    /// `git rev-parse --short HEAD` (`"unknown"` off-repo).
    pub git_commit: String,
}

impl Machine {
    /// Detects the current machine's tags.
    pub fn detect() -> Machine {
        let available_cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Machine {
            available_cores,
            cpu_model,
            os: std::env::consts::OS.to_string(),
            rustc: capture_cmd("rustc", &["--version"]),
            git_commit: capture_cmd("git", &["rev-parse", "--short", "HEAD"]),
        }
    }
}

fn capture_cmd(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One metric's raw samples; summary stats are derived views.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Raw per-repeat samples in capture order (never empty).
    pub samples: Vec<f64>,
}

impl Metric {
    /// Wraps samples (must be non-empty).
    pub fn new(samples: Vec<f64>) -> Metric {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        Metric { samples }
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Smallest sample — the noise-floor estimate the gate compares by
    /// default (minimum wall-clock is the classic less-noisy statistic).
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Median (mean of the middle two for even counts).
    pub fn p50(&self) -> f64 {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        }
    }
}

/// One coordinate value in a cell id: a name (dataset, method, index) or
/// a number (n, threads, missing_rate).
#[derive(Debug, Clone, PartialEq)]
pub enum Coord {
    /// A named coordinate.
    Str(String),
    /// A numeric coordinate.
    Num(f64),
}

impl fmt::Display for Coord {
    /// Numbers print integer-style when integral (`n=1500`, not `n=1500.0`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Coord::Str(s) => write!(f, "{s}"),
            Coord::Num(n) if *n == n.trunc() && n.abs() < 1e15 => write!(f, "{}", *n as i64),
            Coord::Num(n) => write!(f, "{n}"),
        }
    }
}

/// One executed experiment point: coordinates plus measured metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Coordinate map identifying the cell (insertion-ordered for
    /// rendering; matching is order-insensitive via [`Cell::key`]).
    pub id: Vec<(String, Coord)>,
    /// Measured metrics by name.
    pub metrics: Vec<(String, Metric)>,
}

impl Cell {
    /// An empty cell to build up with the `coord_*`/`metric` methods.
    pub fn new() -> Cell {
        Cell {
            id: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Adds a named coordinate.
    pub fn coord_str(mut self, key: &str, value: &str) -> Cell {
        self.id
            .push((key.to_string(), Coord::Str(value.to_string())));
        self
    }

    /// Adds a numeric coordinate.
    pub fn coord_num(mut self, key: &str, value: f64) -> Cell {
        self.id.push((key.to_string(), Coord::Num(value)));
        self
    }

    /// Adds a metric from raw samples.
    pub fn metric(mut self, name: &str, samples: Vec<f64>) -> Cell {
        self.metrics.push((name.to_string(), Metric::new(samples)));
        self
    }

    /// Canonical identity string: `key=value` pairs sorted by key. Two
    /// cells with the same coordinates in any order produce the same key —
    /// this is what the gate joins on.
    pub fn key(&self) -> String {
        let mut pairs: Vec<String> = self.id.iter().map(|(k, v)| format!("{k}={v}")).collect();
        pairs.sort();
        pairs.join(" ")
    }

    /// Looks up a metric by name.
    pub fn metric_named(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }
}

impl Default for Cell {
    fn default() -> Self {
        Cell::new()
    }
}

/// A complete result file: envelope metadata plus cells.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Envelope schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Experiment name (the spec's or the executor's).
    pub name: String,
    /// Capture-time machine tags.
    pub machine: Machine,
    /// Untimed warm-up executions per cell.
    pub warmup: usize,
    /// Timed samples per cell.
    pub repeats: usize,
    /// The producing spec in TOML form, when a spec drove the run.
    pub spec_toml: Option<String>,
    /// Free-form context.
    pub note: Option<String>,
    /// The executed cells.
    pub cells: Vec<Cell>,
}

impl BenchResult {
    /// A fresh envelope tagged with the current machine.
    pub fn new(name: &str, warmup: usize, repeats: usize) -> BenchResult {
        BenchResult {
            schema_version: SCHEMA_VERSION,
            name: name.to_string(),
            machine: Machine::detect(),
            warmup,
            repeats,
            spec_toml: None,
            note: None,
            cells: Vec::new(),
        }
    }

    /// Attaches the producing spec (provenance in the file).
    pub fn with_spec(mut self, toml: String) -> BenchResult {
        self.spec_toml = Some(toml);
        self
    }

    /// Attaches a free-form note.
    pub fn with_note(mut self, note: &str) -> BenchResult {
        self.note = Some(note.to_string());
        self
    }

    /// Appends a cell.
    pub fn push(&mut self, cell: Cell) {
        self.cells.push(cell);
    }

    /// Renders the envelope to schema-v1 JSON text.
    pub fn render(&self) -> String {
        let mut root = vec![
            (
                "schema_version".to_string(),
                Json::Num(SCHEMA_VERSION as f64),
            ),
            ("name".to_string(), Json::Str(self.name.clone())),
            (
                "machine".to_string(),
                Json::Obj(vec![
                    (
                        "available_cores".to_string(),
                        Json::Num(self.machine.available_cores as f64),
                    ),
                    (
                        "cpu_model".to_string(),
                        Json::Str(self.machine.cpu_model.clone()),
                    ),
                    ("os".to_string(), Json::Str(self.machine.os.clone())),
                    ("rustc".to_string(), Json::Str(self.machine.rustc.clone())),
                    (
                        "git_commit".to_string(),
                        Json::Str(self.machine.git_commit.clone()),
                    ),
                ]),
            ),
            (
                "warmup_policy".to_string(),
                Json::Obj(vec![
                    ("warmup".to_string(), Json::Num(self.warmup as f64)),
                    ("repeats".to_string(), Json::Num(self.repeats as f64)),
                ]),
            ),
        ];
        if let Some(toml) = &self.spec_toml {
            root.push(("spec_toml".to_string(), Json::Str(toml.clone())));
        }
        if let Some(note) = &self.note {
            root.push(("note".to_string(), Json::Str(note.clone())));
        }
        let cells = self
            .cells
            .iter()
            .map(|cell| {
                let id = cell
                    .id
                    .iter()
                    .map(|(k, v)| {
                        let jv = match v {
                            Coord::Str(s) => Json::Str(s.clone()),
                            Coord::Num(n) => Json::Num(*n),
                        };
                        (k.clone(), jv)
                    })
                    .collect();
                let metrics = cell
                    .metrics
                    .iter()
                    .map(|(name, m)| {
                        (
                            name.clone(),
                            Json::Obj(vec![
                                (
                                    "samples".to_string(),
                                    Json::Arr(m.samples.iter().map(|&s| Json::Num(s)).collect()),
                                ),
                                ("mean".to_string(), Json::Num(m.mean())),
                                ("min".to_string(), Json::Num(m.min())),
                                ("max".to_string(), Json::Num(m.max())),
                                ("p50".to_string(), Json::Num(m.p50())),
                            ]),
                        )
                    })
                    .collect();
                Json::Obj(vec![
                    ("id".to_string(), Json::Obj(id)),
                    ("metrics".to_string(), Json::Obj(metrics)),
                ])
            })
            .collect();
        root.push(("cells".to_string(), Json::Arr(cells)));
        Json::Obj(root).render()
    }

    /// Writes the envelope to `path`, creating parent directories.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.render())
    }

    /// Writes `bench_results/BENCH_<name>.json`, returning the path.
    pub fn write_named(&self) -> io::Result<PathBuf> {
        let path = crate::report::results_dir().join(format!("BENCH_{}.json", self.name));
        self.write_to(&path)?;
        Ok(path)
    }

    /// Loads a schema-v1 result file (see the module docs).
    pub fn load(path: &Path) -> Result<BenchResult, LoadError> {
        let text = std::fs::read_to_string(path).map_err(|e| LoadError::Io {
            path: path.to_path_buf(),
            error: e.to_string(),
        })?;
        Self::from_json_text(&text)
    }

    /// Parses result-file text (see [`BenchResult::load`]).
    pub fn from_json_text(text: &str) -> Result<BenchResult, LoadError> {
        let root = Json::parse(text).map_err(LoadError::Json)?;
        match root.get("schema_version").and_then(Json::as_f64) {
            Some(v) if v == SCHEMA_VERSION as f64 => from_v1(&root),
            Some(v) => Err(LoadError::Shape(format!(
                "unsupported schema_version {v} (this build reads {SCHEMA_VERSION})"
            ))),
            None => Err(shape("missing `schema_version` (pre-envelope file)")),
        }
    }
}

/// Why a result file failed to load.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadError {
    /// The file could not be read.
    Io {
        /// The offending path.
        path: PathBuf,
        /// The OS error text.
        error: String,
    },
    /// The file is not valid JSON.
    Json(JsonError),
    /// The JSON does not match any known result shape.
    Shape(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io { path, error } => write!(f, "cannot read {}: {error}", path.display()),
            LoadError::Json(e) => write!(f, "{e}"),
            LoadError::Shape(msg) => write!(f, "unrecognized result shape: {msg}"),
        }
    }
}

impl std::error::Error for LoadError {}

fn shape(msg: &str) -> LoadError {
    LoadError::Shape(msg.to_string())
}

fn from_v1(root: &Json) -> Result<BenchResult, LoadError> {
    let name = root
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| shape("missing `name`"))?
        .to_string();
    let machine = root
        .get("machine")
        .ok_or_else(|| shape("missing `machine`"))?;
    let mstr = |key: &str| {
        machine
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    let machine = Machine {
        available_cores: machine
            .get("available_cores")
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as usize,
        cpu_model: mstr("cpu_model"),
        os: mstr("os"),
        rustc: mstr("rustc"),
        git_commit: mstr("git_commit"),
    };
    let policy = root.get("warmup_policy");
    let pnum = |key: &str| {
        policy
            .and_then(|p| p.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as usize
    };
    let cells = root
        .get("cells")
        .and_then(Json::as_arr)
        .ok_or_else(|| shape("missing `cells` array"))?
        .iter()
        .map(v1_cell)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(BenchResult {
        schema_version: SCHEMA_VERSION,
        name,
        machine,
        warmup: pnum("warmup"),
        repeats: pnum("repeats"),
        spec_toml: root
            .get("spec_toml")
            .and_then(Json::as_str)
            .map(str::to_string),
        note: root.get("note").and_then(Json::as_str).map(str::to_string),
        cells,
    })
}

fn v1_cell(v: &Json) -> Result<Cell, LoadError> {
    let id = v
        .get("id")
        .and_then(Json::as_obj)
        .ok_or_else(|| shape("cell missing `id` object"))?
        .iter()
        .map(|(k, jv)| {
            let coord = match jv {
                Json::Str(s) => Coord::Str(s.clone()),
                Json::Num(n) => Coord::Num(*n),
                other => {
                    return Err(shape(&format!(
                        "coord `{k}` is not a string or number: {other:?}"
                    )))
                }
            };
            Ok((k.clone(), coord))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let metrics = v
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| shape("cell missing `metrics` object"))?
        .iter()
        .map(|(name, mv)| {
            let samples: Vec<f64> = match mv.get("samples").and_then(Json::as_arr) {
                Some(arr) => arr.iter().filter_map(Json::as_f64).collect(),
                // A bare number is accepted as a one-sample metric.
                None => mv.as_f64().into_iter().collect(),
            };
            if samples.is_empty() {
                return Err(shape(&format!("metric `{name}` has no samples")));
            }
            Ok((name.clone(), Metric::new(samples)))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Cell { id, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> BenchResult {
        let mut r = BenchResult {
            schema_version: SCHEMA_VERSION,
            name: "unit".to_string(),
            machine: Machine {
                available_cores: 4,
                cpu_model: "test-cpu".to_string(),
                os: "linux".to_string(),
                rustc: "rustc 1.95.0".to_string(),
                git_commit: "abc1234".to_string(),
            },
            warmup: 1,
            repeats: 3,
            spec_toml: Some("name = \"unit\"\n".to_string()),
            note: Some("unit fixture".to_string()),
            cells: Vec::new(),
        };
        r.push(
            Cell::new()
                .coord_str("dataset", "ASF")
                .coord_str("method", "IIM")
                .coord_num("threads", 1.0)
                .metric("offline_s", vec![0.5, 0.4, 0.6])
                .metric("rmse", vec![8.08]),
        );
        r
    }

    #[test]
    fn envelope_round_trips() {
        let r = sample_result();
        let text = r.render();
        let back = BenchResult::from_json_text(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn metric_summaries() {
        let m = Metric::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 4.0);
        assert_eq!(m.p50(), 2.5);
        assert_eq!(Metric::new(vec![5.0, 1.0, 3.0]).p50(), 3.0);
    }

    #[test]
    fn cell_key_is_order_insensitive() {
        let a = Cell::new()
            .coord_str("dataset", "ASF")
            .coord_num("n", 100.0);
        let b = Cell::new()
            .coord_num("n", 100.0)
            .coord_str("dataset", "ASF");
        assert_eq!(a.key(), b.key());
        assert_eq!(a.key(), "dataset=ASF n=100");
    }

    #[test]
    fn future_schema_versions_are_rejected_with_a_typed_error() {
        for text in [
            r#"{"schema_version": 99, "name": "x", "cells": []}"#,
            // No version at all: a pre-envelope file.
            r#"{"k": 10, "cells": [{"n": 1000, "online_s": 0.002}]}"#,
        ] {
            assert!(matches!(
                BenchResult::from_json_text(text).unwrap_err(),
                LoadError::Shape(_)
            ));
        }
    }
}
