//! `interactive`: single-tuple `POST /impute` against the shipped
//! `iim serve model.iim` daemon, over keep-alive connections. Each cycle
//! runs an open loop at a fixed offered rate on two connections, a closed
//! loop on one connection, and a closed loop on two connections.
//!
//! The gated latency comes from the one-connection closed loop. The
//! other two phases are printed but not gated, because their figures are
//! bimodal on a 2-vCPU host. When both connections' requests reach
//! the batcher together, it sleeps `COALESCE_WINDOW` (50 µs) before each
//! batch. Such a sleep often oversleeps by milliseconds on a virtual CPU,
//! and the replies then leave together, so the two clients stay in step.
//! For the same seed, the two-connection closed loop ran either at
//! 17–19k or at 4–5k requests/s for a whole run, and at 5k/s the open
//! loop's p50 was then either about 0.1 ms or 40–160 ms.

use crate::layers::{self, FitProbe};
use crate::loadgen::{self, check_lag, finish_phases, prepare, Phase};
use crate::report::Outcome;
use crate::stats::quantile;
use crate::tenant::{self, Served, TENANT_M, TENANT_N};
use crate::{threads, Args};
use std::path::Path;
use std::time::Duration;

/// The open loop's offered rate, requests per second over both
/// connections. A constant, never derived from a run, so a faster program
/// does not get a harder workload. On a 2-vCPU x86-64 VM the closed loop
/// reached 20–29k requests/s; at 12k/s (about half) the p99 swung between
/// 0.9 and 2.8 ms from run to run, at 5k/s it held at 110–190 µs. At 2k/s
/// the generator's own sleeps overshot (send lag p99 1.6–2.5 ms), because
/// an idle vCPU wakes slowly. A slower, busier 2-vCPU host saturated at
/// 5k/s (open-loop p50 1–6 ms), which is why no gated metric comes from
/// the open loop.
pub const RATE_RPS: f64 = 5000.0;

/// Connections of the open loop and of the second closed loop.
pub const CONNS: usize = 2;

/// Distinct single-tuple queries cycled through.
const QUERY_POOL: usize = 2048;

/// Each ungated phase is cut into this many equal slices; a latency
/// quantile or a rate is the median of its per-slice values.
pub const WINDOWS: usize = 10;

/// Slices of the gated one-connection closed loop: at 20 s a run, each
/// holds about 0.1 s and 1,300 requests, so a stall of the host that lasts
/// a few milliseconds moves one slice and not the median.
const SINGLE_SLICES: usize = 100;

/// The timed part runs this many cycles of the three phases, each phase
/// on fresh connections, so a slow stretch of the host hits all phases
/// alike rather than one whole phase.
const CYCLES: u32 = 5;

/// Closed-loop warm-up before anything is timed.
pub const WARM_UP: Duration = Duration::from_millis(300);

/// Shares of `--seconds` spent in the open loop, the one-connection
/// closed loop (the gated one), and the two-connection closed loop.
const SHARES: [f64; 3] = [0.25, 0.5, 0.25];

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let names = tenant::names(TENANT_M);
    let rel = tenant::relation(args.seed, TENANT_N, TENANT_M);
    let queries = tenant::queries(args.seed, 1, TENANT_M, QUERY_POOL);
    let model_path = dir.join("model.iim");
    let serve_args = vec![
        model_path.display().to_string(),
        "--threads".to_string(),
        threads().to_string(),
    ];

    let (served, setup_s, fit_s) = tenant::set_up(args, &rel, &model_path, &serve_args, None)?;
    let Served {
        fitted,
        snapshot,
        daemon,
    } = served;
    let reqs = prepare(&*fitted, &names, "/impute", &queries)?;
    // Warm-up (checked and counted, not timed).
    let warm = loadgen::closed_loop(daemon.addr, &reqs, WARM_UP, CONNS)?;

    if args.trace {
        let learns = tenant::learn_rows(args.seed, 2, TENANT_M, layers::LEARNS);
        let inputs = layers::Inputs {
            probe: FitProbe::new(&rel, 0, tenant::tenant_config()),
            fitted: &*fitted,
            snapshot: &snapshot,
            names: &names,
            singles: &queries,
            learns: &learns,
            route: "/impute",
            addr: daemon.addr,
        };
        return layers::traced(args, dir, &inputs, warm);
    }

    let mut open = Phase::default();
    let mut single = Phase::default();
    let mut pair = Phase::default();
    let segment = |share: f64| args.seconds.mul_f64(share) / CYCLES;
    for _ in 0..CYCLES {
        let (part, _) = loadgen::open_loop(
            daemon.addr,
            &reqs,
            RATE_RPS,
            segment(SHARES[0]),
            CONNS,
            None,
        )?;
        open.append(part);
        single.append(loadgen::closed_loop(
            daemon.addr,
            &reqs,
            segment(SHARES[1]),
            1,
        )?);
        pair.append(loadgen::closed_loop(
            daemon.addr,
            &reqs,
            segment(SHARES[2]),
            CONNS,
        )?);
    }
    check_lag(&open)?;
    let open_p50 = open.windowed_quantile(WINDOWS, 0.5);
    let open_p99 = open.windowed_quantile(WINDOWS, 0.99);
    let lag99 = quantile(&open.lag_us, 0.99);
    let p50 = single.windowed_quantile(SINGLE_SLICES, 0.5);
    let p99 = single.windowed_quantile(SINGLE_SLICES, 0.99);
    let rps = single.windowed_rate(SINGLE_SLICES);
    let pair_rps = pair.windowed_rate(WINDOWS);
    let mut out = Outcome::default();
    out.notes.push(format!(
        "open loop at {RATE_RPS} rps: {} requests sent late behind a slow response, generator lag p99 {lag99:.1} us",
        open.backlogged
    ));
    finish_phases(
        &mut out,
        &[
            ("warm-up", warm),
            ("open loop", open),
            ("closed loop, 1 connection", single),
            ("closed loop, 2 connections", pair),
        ],
    )?;
    out.info("impute_p50_us", open_p50, "us");
    out.info("impute_p99_us", open_p99, "us");
    out.info("single_p99_us", p99, "us");
    out.info("single_rps", rps, "1/s");
    out.info("pair_rps", pair_rps, "1/s");
    out.metric("setup_s", setup_s, "s");
    out.metric("fit_s", fit_s, "s");
    out.metric_as("p50_us", "single_p50_us", p50, "us");

    Ok(out)
}
