//! The run's result: human-readable metric lines, then the JSON line.

use iim_bench::json::Json;

/// The end-to-end metrics every untraced run reports, in order, with
/// their units (as declared in `BENCHMARK.json`).
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("fit_s", "s"), ("p50_us", "us")];

/// The per-layer metrics every traced run reports, in order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.http.parse_us", "us"),
    ("serve.http.write_us", "us"),
    ("data.csv.decode_us", "us"),
    ("data.csv.encode_us", "us"),
    ("serve.batch.roundtrip_us", "us"),
    ("serve.batch.hop_us", "us"),
    ("serve.batch.learn_us", "us"),
    ("core.impute_one_us", "us"),
    ("core.impute_batch_us", "us"),
    ("core.absorb_us", "us"),
    ("core.adaptive_ms", "ms"),
    ("core.gram_sweep_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.sweep_points", "count"),
    ("core.chosen_ell_mean", "count"),
    ("neighbors.index_build_ms", "ms"),
    ("neighbors.orders_ms", "ms"),
    ("neighbors.knn_us", "us"),
    ("exec.map_overhead_us", "us"),
    ("exec.scaling", "ratio"),
    ("persist.save_ms", "ms"),
    ("persist.inspect_us", "us"),
    ("persist.append_delta_us", "us"),
    ("persist.snapshot_bytes", "bytes"),
    ("net.residual_us", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("trace.overhead_us", "us"),
];

/// One reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The workload-specific name this value carries (e.g.
    /// `impute_p50_us`), printed beside the generic one.
    pub alias: Option<&'static str>,
}

/// Everything a successful run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations sent to the system under test.
    pub attempted: u64,
    /// Operations that failed or were refused (a 503 or a timeout counts).
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Informational lines (phase counts, reconciliation), printed first.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            alias: None,
        });
    }

    /// Records a metric that also goes by a workload-specific name.
    pub fn metric_as(&mut self, name: &str, alias: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            alias: Some(alias),
        });
    }

    /// Refuses a result that does not report exactly the declared
    /// metrics, or with a metric that could not be measured (a latency
    /// quantile that falls on failed requests is infinite).
    pub fn validate(&self, traced: bool) -> Result<(), String> {
        let declared = if traced { PER_LAYER } else { END_TO_END };
        let reported: Vec<(&str, &str)> = self
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect();
        if reported != declared {
            return Err(format!(
                "reported metrics {reported:?}, declared {declared:?}"
            ));
        }
        match self.metrics.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!(
                "metric {} is {}: too many requests failed to measure it",
                m.name, m.value
            )),
            None => Ok(()),
        }
    }

    /// Prints a measured value that is not one of the gated metrics
    /// (a tail percentile or a rate too noisy to gate on, or another unit).
    pub fn info(&mut self, name: &str, value: f64, unit: &str) {
        self.notes
            .push(format!("{name} = {value} {unit} (reported, not gated)"));
    }

    /// `failed / attempted`.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result object.
    pub fn json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]);
                (m.name.clone(), value)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Prints the notes and metric lines, then the JSON line last.
    pub fn print(&self, workload: &str) {
        for note in &self.notes {
            println!("{workload}: {note}");
        }
        println!(
            "{workload}: fail_frac = {} ({} failed of {} attempted)",
            self.fail_frac(),
            self.failed,
            self.attempted
        );
        for m in &self.metrics {
            match m.alias {
                Some(alias) => {
                    println!("{workload}: {alias} = {} {} [{}]", m.value, m.unit, m.name)
                }
                None => println!("{workload}: {} = {} {}", m.name, m.value, m.unit),
            }
        }
        // `render` indents; its line breaks are all between tokens, since
        // strings escape theirs, so dropping them leaves one JSON line.
        let line: String = self.json().render().lines().map(str::trim_start).collect();
        println!("{line}");
    }
}
