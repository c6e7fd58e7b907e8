//! The traced run: every per-layer metric, timed from outside around the
//! layer's public call, on the workload's own inputs.
//!
//! Each call is wrapped in a span ([`crate::trace`]); a layer's metric is
//! the median of its spans. Nothing inside the program is instrumented.

use crate::client::post_bytes;
use crate::interactive::RATE_RPS;
use crate::loadgen::{self, finish_phases, Phase, Prepared};
use crate::report::Outcome;
use crate::stats::{median, quantile};
use crate::trace::{write_run_trace, Tracer};
use crate::{threads, Args};
use iim_core::incremental::ModelSweep;
use iim_core::{adaptive_learn, incremental::sweep_values, IimConfig, Learning};
use iim_data::{csv, AttrTask, FittedImputer, Relation};
use iim_exec::Pool;
use iim_neighbors::brute::FeatureMatrix;
use iim_neighbors::{NeighborIndex, NeighborOrders};
use iim_serve::{Batcher, QueryBlock};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

/// Rows in the batch-impute probe (crosses `DEFAULT_SERIAL_CUTOFF`).
pub const BATCH_ROWS: usize = 512;

/// Items in the pool-overhead probe: one past `DEFAULT_SERIAL_CUTOFF`,
/// so the pool takes its parallel path.
const MAP_ITEMS: usize = iim_exec::DEFAULT_SERIAL_CUTOFF + 1;

/// The offline phase of one target attribute: what `IimModel::learn`
/// sees.
pub struct FitProbe {
    pub fm: FeatureMatrix,
    pub ys: Vec<f64>,
    pub cfg: IimConfig,
}

impl FitProbe {
    /// The probe for `target` of `rel` (features: every other attribute).
    pub fn new(rel: &Relation, target: usize, cfg: IimConfig) -> Self {
        let features: Vec<usize> = (0..rel.arity()).filter(|&j| j != target).collect();
        let task = AttrTask::new(rel, features, target);
        let fm = FeatureMatrix::gather(rel, &task.features, &task.train_rows);
        let ys = task
            .train_rows
            .iter()
            .map(|&r| task.target_value(r as usize))
            .collect();
        Self { fm, ys, cfg }
    }
}

/// Everything the layer probes run on.
pub struct Inputs<'a> {
    pub probe: FitProbe,
    pub fitted: &'a dyn FittedImputer,
    pub snapshot: &'a [u8],
    pub names: &'a [String],
    /// Single-tuple queries (one missing cell each).
    pub singles: &'a [Vec<Option<f64>>],
    /// Complete tuples to learn ([`LEARNS`] of them).
    pub learns: &'a [Vec<f64>],
    /// The daemon's impute route for this workload.
    pub route: &'a str,
    /// The daemon, for the HTTP reconciliation probe.
    pub addr: SocketAddr,
}

/// Learn rows each traced run supplies (one learn or absorb call each).
pub const LEARNS: usize = 500;

/// Calls per probe of a microsecond-scale layer.
const CALLS: usize = 4000;

/// Share of `--seconds` each of the two HTTP probe phases runs.
const PROBE_SHARE: f64 = 0.3;

/// The traced run: every layer probe and the HTTP reconciliation, after
/// the workload's (checked) warm-up. The spans are written out at the end.
pub fn traced(
    args: &Args,
    dir: &Path,
    inputs: &Inputs<'_>,
    warm: Phase,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(Instant::now());
    finish_phases(&mut out, &[("warm-up", warm)])?;
    measure(args, dir, inputs, &mut tracer, &mut out)?;
    write_run_trace(args, &tracer, &mut out);
    Ok(out)
}

/// Times `f` `reps` times inside spans named `name`; returns the median
/// in µs.
fn timed<R>(
    tracer: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut(usize) -> R,
) -> f64 {
    for i in 0..reps {
        let id = tracer.open(name, None, i as u64);
        black_box(f(i));
        tracer.close(id);
    }
    median(&tracer.micros_of(name))
}

/// Bitwise equality of two filled rows.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn load(snapshot: &[u8]) -> Result<Box<dyn FittedImputer>, String> {
    iim_persist::load_from_slice(snapshot).map_err(|e| format!("snapshot load failed: {e}"))
}

/// Runs every layer probe and the HTTP reconciliation; records the
/// per-layer metrics in `out`.
fn measure(
    args: &Args,
    dir: &Path,
    inp: &Inputs<'_>,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let threads = threads();
    let probe_time = args.seconds.mul_f64(PROBE_SHARE);
    let m = inp.names.len();
    let header = inp.names.join(",");
    let lines: Vec<String> = inp
        .singles
        .iter()
        .map(|r| crate::tenant::csv_line(r))
        .collect();
    let n_q = inp.singles.len();
    let pool = Pool::new(threads);

    // iim-serve::http
    let requests: Vec<Vec<u8>> = inp
        .singles
        .iter()
        .map(|r| {
            post_bytes(
                inp.route,
                &crate::tenant::csv_body(inp.names, std::slice::from_ref(r)),
            )
        })
        .collect();
    // Each probe's result is checked (once before timing, or every call
    // after it), so a layer that fails fast cannot pass for a fast layer.
    let parsed = iim_serve::http::RequestReader::new()
        .read_request(&mut &requests[0][..])
        .map_err(|e| format!("captured request does not parse: {e}"))?;
    if parsed.map(|r| r.body) != Some(crate::tenant::csv_body(inp.names, &inp.singles[..1])) {
        return Err("captured request parses to a different body".into());
    }
    let parse = timed(tracer, "serve.http.parse", CALLS, |i| {
        iim_serve::http::RequestReader::new()
            .read_request(&mut &requests[i % n_q][..])
            .map(|r| r.map(|r| r.body.len()))
            .ok()
    });
    let filled: Vec<Vec<f64>> = inp
        .singles
        .iter()
        .map(|r| inp.fitted.impute_one(r))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("impute_one failed: {e}"))?;
    let bodies: Vec<Vec<u8>> = filled
        .iter()
        .map(|v| format!("{header}\n{}\n", csv::format_row(v)).into_bytes())
        .collect();
    let mut buf = Vec::with_capacity(512);
    let write = timed(tracer, "serve.http.write", CALLS, |i| {
        buf.clear();
        iim_serve::http::write_response(
            &mut buf,
            200,
            "OK",
            "text/csv",
            true,
            &[],
            &bodies[i % n_q],
        );
        buf.len()
    });

    // iim-data::csv
    let mut cells: Vec<Option<f64>> = Vec::with_capacity(m);
    csv::parse_row_into(&lines[0], m, 2, &mut cells).map_err(|e| format!("csv decode: {e}"))?;
    if cells != inp.singles[0] {
        return Err("csv decode does not round-trip a query".into());
    }
    let decode = timed(tracer, "data.csv.decode", CALLS, |i| {
        cells.clear();
        let names = csv::parse_header(&header);
        csv::parse_row_into(&lines[i % n_q], names.len(), 2, &mut cells)
            .map(|()| cells.len())
            .ok()
    });
    let encode = timed(tracer, "data.csv.encode", CALLS, |i| {
        csv::format_row(&filled[i % n_q])
    });

    // iim-core serving
    let impute_one = timed(tracer, "core.impute_one", CALLS, |i| {
        inp.fitted.impute_one(&inp.singles[i % n_q]).ok()
    });
    let batch: Vec<&[Option<f64>]> = (0..BATCH_ROWS).map(|i| &inp.singles[i % n_q][..]).collect();
    let mut batch_out = Vec::new();
    let impute_batch = timed(tracer, "core.impute_batch", 40, |_| {
        batch_out.push(inp.fitted.impute_batch_on(&pool, &batch));
    });
    for rows in batch_out {
        let rows = rows.map_err(|e| format!("impute_batch_on failed: {e}"))?;
        if !(0..BATCH_ROWS).all(|i| same_bits(&rows[i], &filled[i % n_q])) {
            return Err("impute_batch_on serves different fills than impute_one".into());
        }
    }

    // iim-serve::batch
    let batcher = Batcher::start(load(inp.snapshot)?, threads, None)
        .map_err(|e| format!("batcher start failed: {e}"))?;
    let blocks: Vec<QueryBlock> = (0..CALLS)
        .map(|i| {
            let mut b = QueryBlock::with_capacity(m, 1);
            b.cells_mut().extend_from_slice(&inp.singles[i % n_q]);
            b
        })
        .collect();
    let mut blocks = blocks.into_iter();
    let mut block_out = Vec::with_capacity(CALLS);
    let roundtrip = timed(tracer, "serve.batch.roundtrip", CALLS, |_| {
        block_out.push(batcher.impute_block(blocks.next().expect("one block per call")));
    });
    drop(batcher);
    for (i, rows) in block_out.into_iter().enumerate() {
        let rows = rows.map_err(|e| format!("impute_block rejected: {e:?}"))?;
        match &rows[..] {
            [Ok(row)] if same_bits(row, &filled[i % n_q]) => {}
            _ => return Err("impute_block serves different fills than impute_one".into()),
        }
    }
    let n_learn = inp.learns.len();
    let learner = Batcher::start(load(inp.snapshot)?, threads, None)
        .map_err(|e| format!("batcher start failed: {e}"))?;
    let mut learn_out = Vec::with_capacity(n_learn);
    let batch_learn = timed(tracer, "serve.batch.learn", n_learn, |i| {
        learn_out.push(learner.learn(vec![inp.learns[i].clone()]));
    });
    drop(learner);
    for (i, reply) in learn_out.into_iter().enumerate() {
        match reply {
            Ok(Ok(absorbed)) if absorbed == i + 1 => {}
            other => return Err(format!("learn {} of the probe replied {other:?}", i + 1)),
        }
    }
    let mut absorber = load(inp.snapshot)?;
    let absorb = timed(tracer, "core.absorb", n_learn, |i| {
        absorber.absorb(&inp.learns[i]).is_ok()
    });
    if absorber.absorbed() != n_learn {
        return Err(format!(
            "absorb probe absorbed {} of {n_learn} rows",
            absorber.absorbed()
        ));
    }

    // iim-neighbors and the offline phase of iim-core
    let probe = &inp.probe;
    let index_build = timed(tracer, "neighbors.index_build", 5, |_| {
        NeighborIndex::build(probe.fm.clone(), probe.cfg.index).len()
    }) / 1e3;
    let index = NeighborIndex::build(probe.fm.clone(), probe.cfg.index);
    let n = index.len();
    let knn = timed(tracer, "neighbors.knn", CALLS, |i| {
        index.knn(index.matrix().point((i * 7919) % n), probe.cfg.k)
    });
    let Learning::Adaptive(acfg) = &probe.cfg.learning else {
        return Err("the fit probe needs an adaptive configuration".into());
    };
    let vk = acfg.validation_k.unwrap_or(probe.cfg.k).max(1);
    let depth = acfg.ell_max.map_or(n, |e| e.min(n)).max(vk.min(n)).max(1);
    let orders_ms = timed(tracer, "neighbors.orders", 3, |_| {
        NeighborOrders::build_from_index(&pool, &index, depth).depth()
    }) / 1e3;
    let orders = NeighborOrders::build_from_index(&pool, &index, depth);
    let fm = index.matrix();
    let ys = &probe.ys;
    let alpha = probe.cfg.alpha;
    let adaptive_at = |threads: usize| adaptive_learn(fm, ys, &orders, vk, acfg, alpha, threads);
    let swept = sweep_values(n, acfg.step, acfg.ell_max.map(|e| e.min(orders.depth())));
    // The Gram sweep alone: every candidate model of every tuple, as
    // Algorithm 3 builds them, without validating any.
    let sweep_only = || {
        pool.parallel_map_indexed(n, |i| {
            let mut sweep =
                ModelSweep::new(fm, ys, orders.neighbors_of(i), alpha, acfg.incremental);
            for &ell in &swept {
                black_box(sweep.model_at(ell));
            }
        })
        .len()
    };
    // Adaptive, sweep-only, and 1-thread adaptive runs alternate, so a
    // slow stretch of the machine hits all three alike.
    let mut outcome = None;
    for round in 0..5 {
        let id = tracer.open("core.adaptive", None, round);
        outcome = Some(black_box(adaptive_at(threads)));
        tracer.close(id);
        tracer.span("core.gram_sweep", None, round, sweep_only);
        tracer.span("core.adaptive.serial", None, round, || {
            adaptive_at(1).models.len()
        });
    }
    let outcome = outcome.expect("five rounds");
    let adaptive_ms = median(&tracer.micros_of("core.adaptive")) / 1e3;
    let sweep_ms = median(&tracer.micros_of("core.gram_sweep")) / 1e3;
    let serial_ms = median(&tracer.micros_of("core.adaptive.serial")) / 1e3;
    let chosen_mean = outcome.chosen_ell.iter().map(|&e| e as f64).sum::<f64>() / n as f64;

    // iim-exec
    let parallel = timed(tracer, "exec.map.parallel", 2000, |_| {
        pool.parallel_map_indexed(MAP_ITEMS, black_box)
    });
    let serial = timed(tracer, "exec.map.serial", 2000, |_| {
        (0..MAP_ITEMS).map(black_box).collect::<Vec<_>>()
    });

    // iim-persist
    let save_ms = timed(tracer, "persist.save", 5, |_| {
        iim_persist::save_to_vec(inp.fitted).map(|b| b.len()).ok()
    }) / 1e3;
    let inspect = timed(tracer, "persist.inspect", 50, |_| {
        iim_persist::inspect(inp.snapshot).is_ok()
    });
    let delta_path = dir.join("delta-probe.iim");
    iim_persist::save_bytes_path(&delta_path, inp.snapshot)
        .map_err(|e| format!("probe snapshot write: {e}"))?;
    let n_append = inp.learns.len().min(100);
    let append = timed(tracer, "persist.append_delta", n_append, |i| {
        iim_persist::append_delta_path(&delta_path, std::slice::from_ref(&inp.learns[i])).is_ok()
    });
    let replayed = iim_persist::load_path(&delta_path).map_err(|e| format!("probe reload: {e}"))?;
    if replayed.absorbed() != n_append {
        return Err(format!(
            "delta probe replayed {} of {n_append} rows",
            replayed.absorbed()
        ));
    }

    // HTTP reconciliation: the same open loop untraced, then traced.
    let prepared: Vec<Prepared> = requests
        .into_iter()
        .zip(bodies)
        .map(|(bytes, expected)| Prepared { bytes, expected })
        .collect();
    let (plain, _) = loadgen::open_loop(inp.addr, &prepared, RATE_RPS, probe_time, 2, None)?;
    let (traced, spans) = loadgen::open_loop(
        inp.addr,
        &prepared,
        RATE_RPS,
        probe_time,
        2,
        Some(tracer.epoch()),
    )?;
    for phase in [&plain, &traced] {
        if let Some(wrong) = &phase.wrong {
            return Err(wrong.clone());
        }
        out.attempted += phase.sent;
        out.failed += phase.failed;
    }
    if let Some(spans) = spans {
        tracer.absorb(spans);
    }
    out.notes.push(plain.summary("probe untraced"));
    out.notes.push(traced.summary("probe traced"));
    loadgen::check_lag(&plain)?;
    let p50 = quantile(&plain.latencies_us, 0.5);
    let layers = parse + decode + roundtrip + encode + write;
    let residual = p50 - layers;
    out.notes.push(format!(
        "reconciliation: impute p50 {p50:.1} us = http.parse {parse:.2} + csv.decode {decode:.2} \
         + batch.roundtrip {roundtrip:.2} (of which core.impute_one {impute_one:.2}) + csv.encode {encode:.2} \
         + http.write {write:.2} + net.residual {residual:.1}"
    ));

    out.metric("serve.http.parse_us", parse, "us");
    out.metric("serve.http.write_us", write, "us");
    out.metric("data.csv.decode_us", decode, "us");
    out.metric("data.csv.encode_us", encode, "us");
    out.metric("serve.batch.roundtrip_us", roundtrip, "us");
    out.metric("serve.batch.hop_us", roundtrip - impute_one, "us");
    out.metric("serve.batch.learn_us", batch_learn, "us");
    out.metric("core.impute_one_us", impute_one, "us");
    out.metric("core.impute_batch_us", impute_batch, "us");
    out.metric("core.absorb_us", absorb, "us");
    out.metric("core.adaptive_ms", adaptive_ms, "ms");
    out.metric("core.gram_sweep_ms", sweep_ms, "ms");
    out.metric("core.validate_ms", adaptive_ms - sweep_ms, "ms");
    out.metric("core.sweep_points", (n * swept.len()) as f64, "count");
    out.metric("core.chosen_ell_mean", chosen_mean, "count");
    out.metric("neighbors.index_build_ms", index_build, "ms");
    out.metric("neighbors.orders_ms", orders_ms, "ms");
    out.metric("neighbors.knn_us", knn, "us");
    out.metric("exec.map_overhead_us", parallel - serial, "us");
    out.metric("exec.scaling", serial_ms / adaptive_ms, "ratio");
    out.metric("persist.save_ms", save_ms, "ms");
    out.metric("persist.inspect_us", inspect, "us");
    out.metric("persist.append_delta_us", append, "us");
    out.metric("persist.snapshot_bytes", inp.snapshot.len() as f64, "bytes");
    out.metric("net.residual_us", residual, "us");
    out.metric("loadgen.lag_p99_us", quantile(&plain.lag_us, 0.99), "us");
    out.metric(
        "trace.overhead_us",
        quantile(&traced.latencies_us, 0.5) - p50,
        "us",
    );
    Ok(())
}
