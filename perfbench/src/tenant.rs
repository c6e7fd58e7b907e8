//! Seeded inputs for the daemon workloads: the tenant's training
//! relation, query rows, learn rows, and the CSV bodies that carry them.

use crate::client::Client;
use crate::daemon::Daemon;
use crate::stats::median;
use crate::Args;
use iim_core::{AdaptiveConfig, Iim, IimConfig, Learning};
use iim_data::csv;
use iim_data::{FittedImputer, Imputer, PerAttributeImputer, Relation, Schema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;

/// Tenant training tuples.
pub const TENANT_N: usize = 10_000;
/// Tenant attributes.
pub const TENANT_M: usize = 4;
/// Set-ups per run of a daemon workload; `setup_s` and `fit_s` are their
/// medians.
pub const SETUPS: usize = 5;
/// Imputation neighbors.
pub const TENANT_K: usize = 10;

/// The tenant's IIM configuration: adaptive ℓ (Algorithm 3) with
/// stepping 5 up to ℓ = 200, k = 10 imputation and validation neighbors.
pub fn tenant_config() -> IimConfig {
    IimConfig {
        k: TENANT_K,
        learning: Learning::Adaptive(AdaptiveConfig {
            step: 5,
            ell_max: Some(200),
            validation_k: Some(TENANT_K),
            ..AdaptiveConfig::default()
        }),
        ..IimConfig::default()
    }
}

/// The tenant's imputer: one IIM model per attribute.
pub fn tenant_imputer() -> PerAttributeImputer<Iim> {
    PerAttributeImputer::new(Iim::new(tenant_config()))
}

/// A seeded stream of tuples from one linear-plus-noise relation: a
/// latent `x ~ U(0, 100)` and `A_j = 0.3·(j+1)·x + U(-0.5, 0.5)`.
pub struct Source {
    rng: StdRng,
    m: usize,
}

impl Source {
    /// A stream for `seed`; distinct `stream` ids give independent
    /// streams of the same relation.
    pub fn new(seed: u64, stream: u64, m: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream),
            m,
        }
    }

    /// One complete tuple.
    pub fn tuple(&mut self) -> Vec<f64> {
        let x: f64 = self.rng.gen_range(0.0..100.0);
        (0..self.m)
            .map(|j| 0.3 * (j + 1) as f64 * x + self.rng.gen_range(-0.5..0.5))
            .collect()
    }

    /// One query: a tuple with one attribute blanked, rotating the hole.
    pub fn query(&mut self, i: usize) -> Vec<Option<f64>> {
        let hole = i % self.m;
        self.tuple()
            .into_iter()
            .enumerate()
            .map(|(j, v)| (j != hole).then_some(v))
            .collect()
    }
}

/// The tenant's training relation for `seed`.
pub fn relation(seed: u64, n: usize, m: usize) -> Relation {
    let mut src = Source::new(seed, 0, m);
    let rows: Vec<Vec<f64>> = (0..n).map(|_| src.tuple()).collect();
    Relation::from_rows(Schema::anonymous(m), &rows)
}

/// `count` query rows from an independent stream.
pub fn queries(seed: u64, stream: u64, m: usize, count: usize) -> Vec<Vec<Option<f64>>> {
    let mut src = Source::new(seed, stream, m);
    (0..count).map(|i| src.query(i)).collect()
}

/// `count` complete tuples for `/learn`, from an independent stream.
pub fn learn_rows(seed: u64, stream: u64, m: usize, count: usize) -> Vec<Vec<f64>> {
    let mut src = Source::new(seed, stream, m);
    (0..count).map(|_| src.tuple()).collect()
}

/// The tenant's column names.
pub fn names(m: usize) -> Vec<String> {
    Schema::anonymous(m).names().to_vec()
}

/// One CSV data line; missing cells are empty.
pub fn csv_line(row: &[Option<f64>]) -> String {
    let cells: Vec<String> = row
        .iter()
        .map(|c| c.map_or(String::new(), |v| format!("{v}")))
        .collect();
    cells.join(",")
}

/// A request body: the header line plus one line per row.
pub fn csv_body(names: &[String], rows: &[Vec<Option<f64>>]) -> Vec<u8> {
    let mut body = names.join(",");
    body.push('\n');
    for row in rows {
        body.push_str(&csv_line(row));
        body.push('\n');
    }
    body.into_bytes()
}

/// A `/learn` body for complete rows.
pub fn learn_body(names: &[String], rows: &[Vec<f64>]) -> Vec<u8> {
    let opt: Vec<Vec<Option<f64>>> = rows
        .iter()
        .map(|r| r.iter().copied().map(Some).collect())
        .collect();
    csv_body(names, &opt)
}

/// The response body the daemon must send for `rows`: the header, then
/// `format_row(impute_one(row))` per row — computed in-process.
pub fn expected_body(
    fitted: &dyn FittedImputer,
    names: &[String],
    rows: &[Vec<Option<f64>>],
) -> Result<Vec<u8>, String> {
    let mut body = names.join(",");
    body.push('\n');
    for row in rows {
        let filled = fitted
            .impute_one(row)
            .map_err(|e| format!("in-process impute_one failed: {e}"))?;
        body.push_str(&csv::format_row(&filled));
        body.push('\n');
    }
    Ok(body.into_bytes())
}

/// Fits the tenant on `rel`.
pub fn fit(rel: &Relation) -> Result<Box<dyn FittedImputer>, String> {
    tenant_imputer()
        .fit(rel)
        .map_err(|e| format!("tenant fit failed: {e}"))
}

/// The snapshot bytes of a fitted model, with its schema.
pub fn snapshot(fitted: &dyn FittedImputer, names: &[String]) -> Result<Vec<u8>, String> {
    iim_persist::save_to_vec_with_schema(fitted, names)
        .map_err(|e| format!("snapshot save failed: {e}"))
}

/// A fitted tenant, its snapshot, and the daemon serving it.
pub struct Served {
    pub fitted: Box<dyn FittedImputer>,
    pub snapshot: Vec<u8>,
    pub daemon: Daemon,
}

/// The set-up of a daemon workload, [`SETUPS`] times (once when traced):
/// fit the tenant, save its snapshot to `path`, start `iim serve
/// SERVE_ARGS` until it answers, then send `first` when given (the
/// registry activates a tenant on its first request). Returns the last
/// set-up with the median set-up and fit times, in seconds.
pub fn set_up(
    args: &Args,
    rel: &Relation,
    path: &Path,
    serve_args: &[String],
    first: Option<&[u8]>,
) -> Result<(Served, f64, f64), String> {
    let names = names(rel.arity());
    let times = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(times);
    let mut fit_s = Vec::with_capacity(times);
    let mut served = None;
    for _ in 0..times {
        // The previous daemon is stopped before the next set-up starts.
        drop(served.take());
        let t0 = Instant::now();
        let fitted = fit(rel)?;
        fit_s.push(t0.elapsed().as_secs_f64());
        let snapshot = snapshot(&*fitted, &names)?;
        iim_persist::save_bytes_path(path, &snapshot).map_err(|e| format!("save: {e}"))?;
        let daemon = Daemon::start(&args.iim, serve_args)?;
        if let Some(request) = first {
            let reply = Client::connect(daemon.addr)
                .and_then(|mut c| c.call(request))
                .map_err(|e| format!("first request: {e}"))?;
            if reply.status != 200 {
                return Err(format!("first request answered {}", reply.status));
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        served = Some(Served {
            fitted,
            snapshot,
            daemon,
        });
    }
    let served = served.expect("at least one set-up");
    Ok((served, median(&setup_s), median(&fit_s)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(queries(3, 1, 4, 20), queries(3, 1, 4, 20));
        assert_ne!(queries(3, 1, 4, 20), queries(4, 1, 4, 20));
        assert_ne!(learn_rows(3, 2, 4, 5), learn_rows(3, 3, 4, 5));
        let q = queries(3, 1, 4, 8);
        assert!(q
            .iter()
            .all(|r| r.iter().filter(|c| c.is_none()).count() == 1));
    }

    #[test]
    fn csv_lines_round_trip_through_the_parser() {
        let rows = queries(9, 1, 4, 50);
        let body = String::from_utf8(csv_body(&names(4), &rows)).unwrap();
        let mut lines = body.lines();
        assert_eq!(
            csv::parse_header(lines.next().unwrap()),
            Schema::anonymous(4).names()
        );
        for (line, row) in lines.zip(&rows) {
            let parsed = csv::parse_row(line, 4, 2).unwrap();
            let bits =
                |r: &[Option<f64>]| r.iter().map(|c| c.map(f64::to_bits)).collect::<Vec<_>>();
            assert_eq!(bits(&parsed), bits(row));
        }
    }
}
