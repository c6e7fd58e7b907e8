//! `bulk_learn`: the registry daemon (`iim serve --models-dir`) with one
//! IIM tenant that checkpoints every learn. Connection 1 POSTs 512-row
//! impute batches in a closed loop; connection 2 alternates a one-tuple
//! `/learn` with a single-tuple `/impute`, also closed loop.
//!
//! Checks: every learn reply counts the absorbs so far; every single
//! impute equals the in-process reference at the absorb state its learn
//! left; every batch equals the reference at some absorb state inside the
//! window of learns acknowledged before it was sent and sent before it
//! was answered; and the snapshot reloaded after the run replays exactly
//! the acknowledged learns.

use crate::checks::{durability, fnv64};
use crate::client::{post_bytes, Client};
use crate::interactive::{WARM_UP, WINDOWS};
use crate::layers::{self, FitProbe, BATCH_ROWS};
use crate::loadgen::{self, finish_phases, Phase};
use crate::report::Outcome;
use crate::tenant::{self, Served, TENANT_M, TENANT_N};
use crate::{threads, Args};
use iim_data::{csv, FittedImputer};
use iim_exec::Pool;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const TENANT: &str = "tenant";
/// Learn rows generated per run (more than a run can send).
const MAX_LEARNS: usize = 100_000;
const SINGLE_POOL: usize = 1024;
/// The run is cut into this many segments, each on fresh connections, so
/// the way the two loops happen to interleave on one pair of connections
/// does not decide a whole run.
const SEGMENTS: u32 = 5;

/// One batch response: the absorb-state window it must match.
#[derive(Clone, Debug)]
pub struct BatchObs {
    /// Learns acknowledged before the batch was sent.
    pub lo: usize,
    /// Learns sent before the batch was answered.
    pub hi: usize,
    pub hash: u64,
}

/// One single-tuple impute issued right after learn `state` was
/// acknowledged.
#[derive(Clone, Debug)]
pub struct SingleObs {
    pub state: usize,
    pub query: usize,
    pub hash: u64,
}

/// What connection 2 saw.
#[derive(Default)]
struct LearnSide {
    learns: Phase,
    singles: Vec<SingleObs>,
    acked: usize,
    in_doubt: usize,
    /// A learn failed: no later learn is sent.
    stopped: bool,
    error: Option<String>,
}

pub fn batch_body(
    fitted: &dyn FittedImputer,
    header: &str,
    rows: &[&[Option<f64>]],
    pool: &Pool,
) -> Result<u64, String> {
    let filled = fitted
        .impute_batch_on(pool, rows)
        .map_err(|e| format!("reference impute failed: {e}"))?;
    let mut body = String::with_capacity(rows.len() * 64);
    body.push_str(header);
    body.push('\n');
    for v in &filled {
        body.push_str(&csv::format_row(v));
        body.push('\n');
    }
    Ok(fnv64(body.as_bytes()))
}

/// What the replay needs: the tenant before any learn, and the inputs
/// the run sent.
#[derive(Clone, Copy)]
pub struct Replay<'a> {
    /// The snapshot the daemon started from.
    pub base: &'a [u8],
    pub names: &'a [String],
    /// The learn rows, in the order connection 2 sent them.
    pub learns: &'a [Vec<f64>],
    /// The rows of the impute batch connection 1 sends.
    pub batch: &'a [Vec<Option<f64>>],
    /// The single-tuple queries connection 2 cycles through.
    pub singles: &'a [Vec<Option<f64>>],
    pub threads: usize,
}

/// Replays the learns in-process from the base snapshot and checks every
/// observation against the reference at its absorb state(s).
///
/// The reference output of the batch is computed at most once per absorb
/// state and kept (as a hash). A batch matches when any computed state of
/// its window gives its hash. The first replay computes the state `lo + 1`
/// of every window, where most batches match: a batch usually queues
/// behind the learn in flight when it was sent, and windows overlap so much
/// that their neighbours' states cover most of the rest. A second replay
/// computes every state not yet computed in the windows of the batches
/// still unmatched; a batch that matches none of its window fails.
pub fn replay_check(
    replay: &Replay<'_>,
    batches: &[BatchObs],
    single_obs: &[SingleObs],
) -> Result<(usize, usize), String> {
    let Replay {
        base,
        names,
        learns,
        batch,
        singles,
        threads,
    } = *replay;
    let pool = Pool::new(threads);
    let header = names.join(",");
    let rows: Vec<&[Option<f64>]> = batch.iter().map(Vec::as_slice).collect();
    let last = batches
        .iter()
        .map(|b| b.hi)
        .chain(single_obs.iter().map(|s| s.state))
        .max()
        .unwrap_or(0);
    if last > learns.len() || batches.iter().any(|b| b.lo > b.hi) {
        return Err(format!(
            "observation window beyond the {} learns sent",
            learns.len()
        ));
    }
    let mut singles_at: BTreeMap<usize, Vec<&SingleObs>> = BTreeMap::new();
    for s in single_obs {
        singles_at.entry(s.state).or_default().push(s);
    }
    // Reference batch hash per computed absorb state.
    let mut outputs: BTreeMap<usize, u64> = BTreeMap::new();
    let mut unmatched: Vec<usize> = (0..batches.len()).collect();
    let mut wanted: BTreeSet<usize> = batches.iter().map(|b| (b.lo + 1).min(b.hi)).collect();
    let mut first = true;
    let mut replays = 0;
    while first || !unmatched.is_empty() {
        replays += 1;
        let upto = if first {
            last
        } else {
            *wanted.last().expect("unmatched batches want a state")
        };
        let mut model =
            iim_persist::load_from_slice(base).map_err(|e| format!("base snapshot: {e}"))?;
        for j in 0..=upto {
            if first {
                for s in singles_at.get(&j).into_iter().flatten() {
                    let want = tenant::expected_body(
                        &*model,
                        names,
                        std::slice::from_ref(&singles[s.query]),
                    )?;
                    if fnv64(&want) != s.hash {
                        return Err(format!(
                            "single impute after learn {j}: response differs from the in-process reference"
                        ));
                    }
                }
            }
            if wanted.contains(&j) {
                outputs.insert(j, batch_body(&*model, &header, &rows, &pool)?);
            }
            if j < upto {
                model
                    .absorb(&learns[j])
                    .map_err(|e| format!("reference absorb {j} failed: {e}"))?;
            }
        }
        first = false;
        wanted.clear();
        let mut still = Vec::new();
        for i in unmatched {
            let b = &batches[i];
            if outputs.range(b.lo..=b.hi).any(|(_, &h)| h == b.hash) {
                continue;
            }
            let missing: Vec<usize> = (b.lo..=b.hi).filter(|j| !outputs.contains_key(j)).collect();
            if missing.is_empty() {
                return Err(format!(
                    "batch {i}: response matches no absorb state in [{}, {}]",
                    b.lo, b.hi
                ));
            }
            wanted.extend(missing);
            still.push(i);
        }
        unmatched = still;
    }
    Ok((outputs.len(), replays))
}

/// Parses `{"absorbed":1,"total_absorbed":N}`.
fn total_absorbed(body: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.split("\"total_absorbed\":").nth(1)?;
    rest.trim_start()
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let threads = threads();
    let names = tenant::names(TENANT_M);
    let rel = tenant::relation(args.seed, TENANT_N, TENANT_M);
    let batch = tenant::queries(args.seed, 3, TENANT_M, BATCH_ROWS);
    let singles = tenant::queries(args.seed, 4, TENANT_M, SINGLE_POOL);
    let learns = tenant::learn_rows(args.seed, 5, TENANT_M, MAX_LEARNS);
    let models_dir = dir.join("models");
    let model_path = models_dir.join(format!("{TENANT}.iim"));
    let impute_route = format!("/models/{TENANT}/impute");
    let learn_route = format!("/models/{TENANT}/learn");
    let serve_args = vec![
        "--models-dir".to_string(),
        models_dir.display().to_string(),
        "--threads".to_string(),
        threads.to_string(),
    ];
    let single_reqs: Vec<Vec<u8>> = singles
        .iter()
        .map(|q| {
            post_bytes(
                &impute_route,
                &tenant::csv_body(&names, std::slice::from_ref(q)),
            )
        })
        .collect();

    std::fs::create_dir_all(&models_dir).map_err(|e| format!("models dir: {e}"))?;
    let (served, setup_s, fit_s) =
        tenant::set_up(args, &rel, &model_path, &serve_args, Some(&single_reqs[0]))?;
    let Served {
        fitted,
        snapshot: base,
        mut daemon,
    } = served;

    if args.trace {
        let reqs = loadgen::prepare(&*fitted, &names, &impute_route, &singles)?;
        let warm = loadgen::closed_loop(daemon.addr, &reqs, WARM_UP, 2)?;
        let inputs = layers::Inputs {
            probe: FitProbe::new(&rel, 0, tenant::tenant_config()),
            fitted: &*fitted,
            snapshot: &base,
            names: &names,
            singles: &singles,
            learns: &learns[..layers::LEARNS],
            route: &impute_route,
            addr: daemon.addr,
        };
        return layers::traced(args, dir, &inputs, warm);
    }

    let batch_req = post_bytes(&impute_route, &tenant::csv_body(&names, &batch));
    let learn_reqs: Vec<Vec<u8>> = learns
        .iter()
        .map(|r| {
            post_bytes(
                &learn_route,
                &tenant::learn_body(&names, std::slice::from_ref(r)),
            )
        })
        .collect();
    let acked = AtomicUsize::new(0);
    let sent = AtomicUsize::new(0);
    let mut batch_phase = Phase::default();
    let mut batch_obs = Vec::new();
    let mut side = LearnSide::default();
    let mut singles_phase = Phase::default();
    let start = Instant::now();
    let addr = daemon.addr;
    // Both connections reconnect at each segment boundary. Times count
    // from `start`, so the slices run over the segments back to back.
    for segment in 1..=SEGMENTS {
        let deadline = start
            + args
                .seconds
                .mul_f64(f64::from(segment) / f64::from(SEGMENTS));
        let (batch_phase, batch_obs, side, singles_phase) = (
            &mut batch_phase,
            &mut batch_obs,
            &mut side,
            &mut singles_phase,
        );
        let (batch_side, learn_side) = std::thread::scope(|s| {
            let batches = s.spawn(|| -> Result<(), String> {
                let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                while Instant::now() < deadline {
                    let lo = acked.load(Ordering::SeqCst);
                    let t0 = Instant::now();
                    let result = client.call(&batch_req);
                    let done = Instant::now();
                    let hi = sent.load(Ordering::SeqCst);
                    if let Ok(resp) = &result {
                        if resp.status == 200 {
                            batch_obs.push(BatchObs {
                                lo,
                                hi,
                                hash: fnv64(&resp.body),
                            });
                        }
                    }
                    let micros = done.duration_since(t0).as_secs_f64() * 1e6;
                    // Bodies are checked by the replay, not byte-compared here.
                    let at = done.duration_since(start).as_secs_f64();
                    batch_phase.account(batch_phase.sent, &result, None, micros, at);
                }
                Ok(())
            });
            let learner = s.spawn(|| -> Result<(), String> {
                let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                while Instant::now() < deadline && !side.stopped && side.acked < learns.len() {
                    let i = side.acked;
                    sent.store(i + 1, Ordering::SeqCst);
                    let t0 = Instant::now();
                    let result = client.call(&learn_reqs[i]);
                    let done = Instant::now();
                    let micros = done.duration_since(t0).as_secs_f64() * 1e6;
                    let ok = match &result {
                        Ok(resp) if resp.status == 200 => {
                            let total = total_absorbed(&resp.body);
                            if total != Some(i + 1) {
                                side.error = Some(format!(
                                    "learn {i}: reply {:?} does not count {} absorbs",
                                    String::from_utf8_lossy(&resp.body),
                                    i + 1
                                ));
                            }
                            true
                        }
                        Ok(_) => false,
                        Err(_) => {
                            side.in_doubt = 1;
                            false
                        }
                    };
                    let at = done.duration_since(start).as_secs_f64();
                    side.learns.account(i as u64, &result, None, micros, at);
                    if !ok || side.error.is_some() {
                        // A failed learn leaves the absorb state uncertain;
                        // stop learning so every later check stays exact.
                        side.stopped = true;
                        break;
                    }
                    side.acked = i + 1;
                    acked.store(i + 1, Ordering::SeqCst);
                    let q = i % singles.len();
                    let result = client.call(&single_reqs[q]);
                    if let Ok(resp) = &result {
                        if resp.status == 200 {
                            side.singles.push(SingleObs {
                                state: i + 1,
                                query: q,
                                hash: fnv64(&resp.body),
                            });
                        }
                    }
                    singles_phase.account(i as u64, &result, None, 0.0, 0.0);
                }
                Ok(())
            });
            (
                batches.join().expect("batch thread panicked"),
                learner.join().expect("learn thread panicked"),
            )
        });
        batch_side?;
        learn_side?;
    }
    batch_phase.elapsed = start.elapsed().min(args.seconds);
    side.learns.elapsed = batch_phase.elapsed;
    side.learns.sent += singles_phase.sent;
    side.learns.succeeded += singles_phase.succeeded;
    side.learns.failed += singles_phase.failed;
    if let Some(e) = side.error {
        return Err(e);
    }
    daemon.stop();
    drop(daemon);

    let mut out = Outcome::default();
    let reloaded = durability(&model_path, side.acked, side.in_doubt)?;
    let t_check = Instant::now();
    let replay = Replay {
        base: &base,
        names: &names,
        learns: &learns,
        batch: &batch,
        singles: &singles,
        threads,
    };
    let (states, replays) = replay_check(&replay, &batch_obs, &side.singles)?;
    out.notes.push(format!(
        "learns acknowledged {}, replayed from the snapshot {reloaded}; {} batches and {} single imputes \
         matched the replayed reference ({states} reference batches over {replays} replays, {:.2}s)",
        side.acked,
        batch_obs.len(),
        side.singles.len(),
        t_check.elapsed().as_secs_f64()
    ));

    let learn_p50 = side.learns.windowed_quantile(WINDOWS, 0.5);
    let learn_p99 = side.learns.windowed_quantile(WINDOWS, 0.99);
    let fills = batch_phase.windowed_rate(WINDOWS) * BATCH_ROWS as f64;
    finish_phases(
        &mut out,
        &[
            ("batch imputes", batch_phase),
            ("learns + single imputes", side.learns),
        ],
    )?;

    out.metric("setup_s", setup_s, "s");
    out.metric("fit_s", fit_s, "s");
    out.metric_as("p50_us", "learn_p50_us", learn_p50, "us");
    out.info("learn_p99_us", learn_p99, "us");
    out.info("batch_fills_per_s", fills, "1/s");
    Ok(out)
}
