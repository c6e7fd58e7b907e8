//! The declarative experiment spec: what to run, expressed as data.
//!
//! A spec names a cross-product of (methods × datasets × missing-rates ×
//! threads × index × repeats) plus workload knobs (`n`, `k`, `seed`,
//! warm-up policy). Specs come from a TOML file (the committed presets
//! under `crates/bench/specs/`) or from `iim bench run` CLI flags; either
//! way they land in one [`Spec`] value that the [runner](crate::runner)
//! expands into cells.
//!
//! The parser handles the TOML subset the presets need — `key = value`
//! lines with strings, numbers, booleans, and single-line arrays, plus
//! `#` comments — because the workspace is dependency-free by policy.
//! Everything a spec names is validated up front against the real
//! registries ([`KNOWN_METHODS`], [`PaperData::ALL`],
//! [`IndexChoice::parse`]): an unknown method or dataset is a typed
//! [`SpecError`], never a panic halfway through a run.

use crate::datasets::PaperData;
use iim_neighbors::IndexChoice;
use std::fmt;

/// The method names a spec may request: IIM plus the Table II baselines,
/// exactly the lineup [`method_lineup`](crate::harness::method_lineup)
/// builds.
pub const KNOWN_METHODS: [&str; 14] = [
    "IIM", "Mean", "kNN", "kNNE", "IFC", "GMM", "SVD", "ILLS", "GLR", "LOESS", "BLR", "ERACER",
    "PMM", "XGB",
];

/// A declarative experiment: the full cross-product the runner executes.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Spec name; becomes the default result-file stem (`BENCH_<name>`).
    pub name: String,
    /// Methods to score, validated against [`KNOWN_METHODS`].
    pub methods: Vec<String>,
    /// Datasets to run over.
    pub datasets: Vec<PaperData>,
    /// Fractions of tuples made incomplete (e.g. `0.05` = the paper's 5%).
    pub missing_rates: Vec<f64>,
    /// Worker-thread counts to sweep.
    pub threads: Vec<usize>,
    /// Neighbor-index variants to sweep.
    pub index: Vec<IndexChoice>,
    /// Timed samples recorded per cell.
    pub repeats: usize,
    /// Untimed warm-up executions per cell before the timed repeats.
    pub warmup: usize,
    /// Dataset-size override; `None` = each dataset's harness default.
    pub n: Option<usize>,
    /// Master RNG seed for generation and injection.
    pub seed: u64,
    /// Imputation-neighbor count.
    pub k: usize,
}

impl Default for Spec {
    fn default() -> Self {
        Spec {
            name: "adhoc".to_string(),
            methods: vec!["IIM".to_string()],
            datasets: vec![PaperData::Asf],
            missing_rates: vec![0.05],
            threads: vec![1],
            index: vec![IndexChoice::Auto],
            repeats: 3,
            warmup: 1,
            n: None,
            seed: 42,
            k: 10,
        }
    }
}

/// Why a spec failed to parse or validate. Every variant carries the
/// offending token so the CLI can print an actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A line was not `key = value` / comment / blank.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A key the spec format does not define.
    UnknownKey(String),
    /// A value with the wrong type or range for its key.
    BadValue {
        /// The key being assigned.
        key: String,
        /// What was expected.
        message: String,
    },
    /// A method name outside [`KNOWN_METHODS`].
    UnknownMethod(String),
    /// A dataset name outside [`PaperData::ALL`].
    UnknownDataset(String),
    /// An index name [`IndexChoice::parse`] rejects.
    UnknownIndex(String),
    /// A list field was left empty, or repeats was zero.
    Empty(&'static str),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax { line, message } => write!(f, "spec line {line}: {message}"),
            SpecError::UnknownKey(k) => write!(f, "unknown spec key `{k}`"),
            SpecError::BadValue { key, message } => write!(f, "bad value for `{key}`: {message}"),
            SpecError::UnknownMethod(m) => {
                write!(
                    f,
                    "unknown method `{m}` (known: {})",
                    KNOWN_METHODS.join(", ")
                )
            }
            SpecError::UnknownDataset(d) => {
                let names: Vec<&str> = PaperData::ALL.iter().map(|d| d.name()).collect();
                write!(f, "unknown dataset `{d}` (known: {})", names.join(", "))
            }
            SpecError::UnknownIndex(i) => {
                write!(f, "unknown index `{i}` (known: auto, brute, vptree)")
            }
            SpecError::Empty(field) => write!(f, "spec field `{field}` must not be empty/zero"),
        }
    }
}

impl std::error::Error for SpecError {}

/// One raw TOML value from the subset grammar.
#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    Str(String),
    Num(f64),
    Bool(bool),
    Arr(Vec<TomlValue>),
}

impl Spec {
    /// Parses and validates a spec from TOML-subset text.
    pub fn parse(text: &str) -> Result<Spec, SpecError> {
        let mut spec = Spec::default();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = match raw.find('#') {
                // `#` starts a comment unless inside a string; the preset
                // grammar keeps `#` out of strings so a plain split is safe.
                Some(pos) if !raw[..pos].contains('"') => &raw[..pos],
                _ => raw,
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                return Err(SpecError::Syntax {
                    line: line_no,
                    message: "sections are not part of the spec format; use top-level keys"
                        .to_string(),
                });
            }
            let (key, value) = line.split_once('=').ok_or_else(|| SpecError::Syntax {
                line: line_no,
                message: "expected `key = value`".to_string(),
            })?;
            let key = key.trim();
            let value = parse_value(value.trim()).map_err(|message| SpecError::Syntax {
                line: line_no,
                message,
            })?;
            spec.set(key, value)?;
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Assigns one `key = value` pair (shared by the file parser and the
    /// CLI flag overrides, which funnel through the same typed checks).
    fn set(&mut self, key: &str, value: TomlValue) -> Result<(), SpecError> {
        match key {
            "name" => self.name = string_value(key, value)?,
            "methods" => self.methods = string_list(key, value)?,
            "datasets" => {
                self.datasets = string_list(key, value)?
                    .iter()
                    .map(|name| parse_dataset(name))
                    .collect::<Result<_, _>>()?;
            }
            "missing_rates" => {
                let rates = num_list(key, value)?;
                for &r in &rates {
                    if !(0.0..1.0).contains(&r) || r <= 0.0 {
                        return Err(SpecError::BadValue {
                            key: key.to_string(),
                            message: format!("rate {r} outside (0, 1)"),
                        });
                    }
                }
                self.missing_rates = rates;
            }
            "threads" => {
                self.threads = num_list(key, value)?
                    .into_iter()
                    .map(|v| usize_value(key, v))
                    .collect::<Result<_, _>>()?;
                if self.threads.contains(&0) {
                    return Err(SpecError::BadValue {
                        key: key.to_string(),
                        message: "thread counts must be positive".to_string(),
                    });
                }
            }
            "index" => {
                self.index = string_list(key, value)?
                    .iter()
                    .map(|name| {
                        IndexChoice::parse(name)
                            .ok_or_else(|| SpecError::UnknownIndex(name.clone()))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "repeats" => self.repeats = usize_value(key, num_value(key, value)?)?,
            "warmup" => self.warmup = usize_value(key, num_value(key, value)?)?,
            "n" => self.n = Some(usize_value(key, num_value(key, value)?)?),
            "seed" => self.seed = usize_value(key, num_value(key, value)?)? as u64,
            "k" => self.k = usize_value(key, num_value(key, value)?)?,
            other => return Err(SpecError::UnknownKey(other.to_string())),
        }
        Ok(())
    }

    /// Applies a CLI-style override (`--methods IIM,kNN` → `("methods",
    /// "IIM,kNN")`). Comma-separated values become lists; scalar keys take
    /// the value as-is.
    pub fn set_from_flag(&mut self, key: &str, raw: &str) -> Result<(), SpecError> {
        let value = match key {
            "methods" | "datasets" | "index" => TomlValue::Arr(
                raw.split(',')
                    .map(|s| TomlValue::Str(s.trim().to_string()))
                    .collect(),
            ),
            "missing_rates" | "threads" => TomlValue::Arr(
                raw.split(',')
                    .map(|s| {
                        s.trim().parse::<f64>().map(TomlValue::Num).map_err(|_| {
                            SpecError::BadValue {
                                key: key.to_string(),
                                message: format!("`{s}` is not a number"),
                            }
                        })
                    })
                    .collect::<Result<_, _>>()?,
            ),
            "name" => TomlValue::Str(raw.to_string()),
            _ => TomlValue::Num(raw.parse::<f64>().map_err(|_| SpecError::BadValue {
                key: key.to_string(),
                message: format!("`{raw}` is not a number"),
            })?),
        };
        self.set(key, value)?;
        self.validate()
    }

    /// Re-checks cross-field invariants (list non-emptiness, known
    /// method names, `n >= 2`) — run after any mutation path.
    pub fn validate(&self) -> Result<(), SpecError> {
        for m in &self.methods {
            if !KNOWN_METHODS.contains(&m.as_str()) {
                return Err(SpecError::UnknownMethod(m.clone()));
            }
        }
        if self.methods.is_empty() {
            return Err(SpecError::Empty("methods"));
        }
        if self.datasets.is_empty() {
            return Err(SpecError::Empty("datasets"));
        }
        if self.missing_rates.is_empty() {
            return Err(SpecError::Empty("missing_rates"));
        }
        if self.threads.is_empty() {
            return Err(SpecError::Empty("threads"));
        }
        if self.index.is_empty() {
            return Err(SpecError::Empty("index"));
        }
        if self.repeats == 0 {
            return Err(SpecError::Empty("repeats"));
        }
        if let Some(n) = self.n.filter(|&n| n < 2) {
            return Err(SpecError::BadValue {
                key: "n".to_string(),
                message: format!("{n} rows; need at least 2 (one incomplete, one complete)"),
            });
        }
        Ok(())
    }

    /// Renders the spec back to its TOML-subset text (round-trips through
    /// [`Spec::parse`]); embedded in result files for provenance.
    pub fn to_toml(&self) -> String {
        let strs = |items: &[String]| {
            items
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut out = format!("name = \"{}\"\n", self.name);
        out.push_str(&format!("methods = [{}]\n", strs(&self.methods)));
        let ds: Vec<String> = self.datasets.iter().map(|d| d.name().to_string()).collect();
        out.push_str(&format!("datasets = [{}]\n", strs(&ds)));
        let rates: Vec<String> = self.missing_rates.iter().map(|r| format!("{r}")).collect();
        out.push_str(&format!("missing_rates = [{}]\n", rates.join(", ")));
        let threads: Vec<String> = self.threads.iter().map(|t| t.to_string()).collect();
        out.push_str(&format!("threads = [{}]\n", threads.join(", ")));
        let idx: Vec<String> = self.index.iter().map(|i| i.name().to_string()).collect();
        out.push_str(&format!("index = [{}]\n", strs(&idx)));
        out.push_str(&format!("repeats = {}\n", self.repeats));
        out.push_str(&format!("warmup = {}\n", self.warmup));
        if let Some(n) = self.n {
            out.push_str(&format!("n = {n}\n"));
        }
        out.push_str(&format!("seed = {}\n", self.seed));
        out.push_str(&format!("k = {}\n", self.k));
        out
    }
}

/// Case-insensitive dataset lookup against [`PaperData::ALL`].
pub fn parse_dataset(name: &str) -> Result<PaperData, SpecError> {
    PaperData::ALL
        .iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .copied()
        .ok_or_else(|| SpecError::UnknownDataset(name.to_string()))
}

fn parse_value(text: &str) -> Result<TomlValue, String> {
    if text.is_empty() {
        return Err("missing value".to_string());
    }
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| "unterminated string".to_string())?;
        if inner.contains('"') {
            return Err("embedded quotes are not supported".to_string());
        }
        return Ok(TomlValue::Str(inner.to_string()));
    }
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| "unterminated array (arrays must be single-line)".to_string())?;
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(TomlValue::Arr(Vec::new()));
        }
        return inner
            .split(',')
            .map(|item| parse_value(item.trim()))
            .collect::<Result<Vec<_>, _>>()
            .map(TomlValue::Arr);
    }
    match text {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    text.parse::<f64>()
        .map(TomlValue::Num)
        .map_err(|_| format!("`{text}` is not a string, number, bool, or array"))
}

fn string_value(key: &str, v: TomlValue) -> Result<String, SpecError> {
    match v {
        TomlValue::Str(s) => Ok(s),
        _ => Err(SpecError::BadValue {
            key: key.to_string(),
            message: "expected a string".to_string(),
        }),
    }
}

fn num_value(key: &str, v: TomlValue) -> Result<f64, SpecError> {
    match v {
        TomlValue::Num(n) => Ok(n),
        _ => Err(SpecError::BadValue {
            key: key.to_string(),
            message: "expected a number".to_string(),
        }),
    }
}

fn string_list(key: &str, v: TomlValue) -> Result<Vec<String>, SpecError> {
    match v {
        TomlValue::Arr(items) => items
            .into_iter()
            .map(|item| string_value(key, item))
            .collect(),
        TomlValue::Str(s) => Ok(vec![s]),
        _ => Err(SpecError::BadValue {
            key: key.to_string(),
            message: "expected an array of strings".to_string(),
        }),
    }
}

fn num_list(key: &str, v: TomlValue) -> Result<Vec<f64>, SpecError> {
    match v {
        TomlValue::Arr(items) => items.into_iter().map(|item| num_value(key, item)).collect(),
        TomlValue::Num(n) => Ok(vec![n]),
        _ => Err(SpecError::BadValue {
            key: key.to_string(),
            message: "expected an array of numbers".to_string(),
        }),
    }
}

fn usize_value(key: &str, v: f64) -> Result<usize, SpecError> {
    if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 {
        Ok(v as usize)
    } else {
        Err(SpecError::BadValue {
            key: key.to_string(),
            message: format!("`{v}` is not a non-negative integer"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: &str = r#"
# A full spec exercising every key.
name = "quick"
methods = ["IIM", "kNN", "Mean"]
datasets = ["ASF", "CCS"]
missing_rates = [0.05, 0.1]
threads = [1, 2]
index = ["auto", "brute"]
repeats = 2
warmup = 1
n = 300
seed = 7
k = 5
"#;

    #[test]
    fn parses_a_full_spec() {
        let spec = Spec::parse(FULL).unwrap();
        assert_eq!(spec.name, "quick");
        assert_eq!(spec.methods, ["IIM", "kNN", "Mean"]);
        assert_eq!(spec.datasets, [PaperData::Asf, PaperData::Ccs]);
        assert_eq!(spec.missing_rates, [0.05, 0.1]);
        assert_eq!(spec.threads, [1, 2]);
        assert_eq!(spec.index, [IndexChoice::Auto, IndexChoice::Brute]);
        assert_eq!((spec.repeats, spec.warmup), (2, 1));
        assert_eq!(spec.n, Some(300));
        assert_eq!((spec.seed, spec.k), (7, 5));
    }

    #[test]
    fn round_trips_through_to_toml() {
        let spec = Spec::parse(FULL).unwrap();
        let again = Spec::parse(&spec.to_toml()).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn unknown_method_is_a_typed_error() {
        let err = Spec::parse("methods = [\"IIM\", \"SuperImputer\"]").unwrap_err();
        assert_eq!(err, SpecError::UnknownMethod("SuperImputer".to_string()));
    }

    #[test]
    fn unknown_dataset_is_a_typed_error() {
        let err = Spec::parse("datasets = [\"MNIST\"]").unwrap_err();
        assert_eq!(err, SpecError::UnknownDataset("MNIST".to_string()));
    }

    #[test]
    fn unknown_index_is_a_typed_error() {
        let err = Spec::parse("index = [\"btree\"]").unwrap_err();
        assert_eq!(err, SpecError::UnknownIndex("btree".to_string()));
    }

    #[test]
    fn unknown_key_is_a_typed_error() {
        let err = Spec::parse("cores = 4").unwrap_err();
        assert_eq!(err, SpecError::UnknownKey("cores".to_string()));
    }

    #[test]
    fn bad_syntax_reports_the_line() {
        let err = Spec::parse("name = \"ok\"\nnot a kv line\n").unwrap_err();
        match err {
            SpecError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_out_of_range_rates_and_zero_threads() {
        assert!(matches!(
            Spec::parse("missing_rates = [1.5]").unwrap_err(),
            SpecError::BadValue { .. }
        ));
        assert!(matches!(
            Spec::parse("threads = [0]").unwrap_err(),
            SpecError::BadValue { .. }
        ));
        assert_eq!(
            Spec::parse("repeats = 0").unwrap_err(),
            SpecError::Empty("repeats")
        );
        assert!(matches!(
            Spec::parse("n = 1").unwrap_err(),
            SpecError::BadValue { .. }
        ));
    }

    #[test]
    fn flag_overrides_reuse_the_same_validation() {
        let mut spec = Spec::default();
        spec.set_from_flag("methods", "IIM,kNN").unwrap();
        assert_eq!(spec.methods, ["IIM", "kNN"]);
        spec.set_from_flag("threads", "1,4").unwrap();
        assert_eq!(spec.threads, [1, 4]);
        assert!(matches!(
            spec.set_from_flag("methods", "Nope").unwrap_err(),
            SpecError::UnknownMethod(_)
        ));
        assert!(matches!(
            spec.set_from_flag("datasets", "ASF,XX").unwrap_err(),
            SpecError::UnknownDataset(_)
        ));
    }

    #[test]
    fn dataset_names_are_case_insensitive() {
        let spec = Spec::parse("datasets = [\"asf\", \"Ca\"]").unwrap();
        assert_eq!(spec.datasets, [PaperData::Asf, PaperData::Ca]);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec = Spec::parse("# header\n\nseed = 9 # trailing\n").unwrap();
        assert_eq!(spec.seed, 9);
    }
}
