//! Load generation against the daemon over keep-alive connections: an
//! open loop (requests due on a fixed schedule, each timed from when it
//! was due) and a closed loop (each connection sends its next request as
//! soon as the previous one is answered).
//!
//! Every response is checked byte for byte against its expected body. A
//! non-200 status (a `503` refusal included) or an I/O error or timeout
//! counts as failed and enters the latency percentiles as infinitely
//! late; a `200` with the wrong body is a correctness failure.

use crate::client::{post_bytes, Client, Response};
use crate::report::Outcome;
use crate::stats::{median, quantile};
use crate::tenant;
use crate::trace::Tracer;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One prepared request and the exact body its response must carry.
pub struct Prepared {
    pub bytes: Vec<u8>,
    pub expected: Vec<u8>,
}

/// Generator self-lag (µs, p99) above which an open-loop phase is
/// refused: its latencies would measure the generator, not the daemon.
pub const MAX_LAG_P99_US: f64 = 2_000.0;

/// What one phase saw.
#[derive(Default)]
pub struct Phase {
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
    /// Per request, in µs; failed requests are `+inf`.
    pub latencies_us: Vec<f64>,
    /// Per request (parallel to `latencies_us`): seconds from the phase
    /// start to when it was due (open loop) or answered (closed loop).
    pub at_s: Vec<f64>,
    /// Open loop only: how late the generator itself sent each request
    /// (µs past the later of its due time and the connection being free).
    pub lag_us: Vec<f64>,
    /// Open loop only: requests sent after their due time because the
    /// connection was still waiting on an earlier response.
    pub backlogged: u64,
    pub elapsed: Duration,
    /// The first wrong response, if any (a correctness failure).
    pub wrong: Option<String>,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.sent += other.sent;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
        self.latencies_us.extend(other.latencies_us);
        self.at_s.extend(other.at_s);
        self.lag_us.extend(other.lag_us);
        self.backlogged += other.backlogged;
        if self.wrong.is_none() {
            self.wrong = other.wrong;
        }
    }

    /// Appends a later segment of the same phase: its times continue
    /// this phase's timeline, so the slices of [`Phase::windowed_quantile`]
    /// and [`Phase::windowed_rate`] run over the segments back to back.
    pub fn append(&mut self, mut other: Phase) {
        let offset = self.elapsed.as_secs_f64();
        for at in &mut other.at_s {
            *at += offset;
        }
        self.elapsed += other.elapsed;
        self.merge(other);
    }

    /// Accounts one response (or transport error) for request `id`;
    /// with `expected`, a `200` must carry exactly that body.
    pub fn account(
        &mut self,
        id: u64,
        result: &std::io::Result<Response>,
        expected: Option<&[u8]>,
        micros: f64,
        at_s: f64,
    ) {
        self.sent += 1;
        self.at_s.push(at_s);
        match result {
            Ok(resp) if resp.status == 200 => {
                if let Some(want) = expected.filter(|want| resp.body != *want) {
                    self.wrong.get_or_insert_with(|| {
                        format!(
                            "request {id}: response body differs from the in-process reference \
                             (got {:?}, want {:?})",
                            String::from_utf8_lossy(&resp.body),
                            String::from_utf8_lossy(want)
                        )
                    });
                }
                self.succeeded += 1;
                self.latencies_us.push(micros);
            }
            Ok(_) | Err(_) => {
                self.failed += 1;
                self.latencies_us.push(f64::INFINITY);
            }
        }
    }

    /// The latencies of each of `windows` equal slices of the phase.
    fn windows(&self, windows: usize) -> Vec<Vec<f64>> {
        let span = self.elapsed.as_secs_f64().max(1e-9);
        let mut out = vec![Vec::new(); windows];
        for (&lat, &at) in self.latencies_us.iter().zip(&self.at_s) {
            let w = ((at / span) * windows as f64) as usize;
            out[w.min(windows - 1)].push(lat);
        }
        out
    }

    /// The median over `windows` equal slices of the phase of each
    /// slice's `q`-quantile latency: one stalled slice moves it less than
    /// it moves the quantile of the whole phase.
    pub fn windowed_quantile(&self, windows: usize, q: f64) -> f64 {
        let per: Vec<f64> = self
            .windows(windows)
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| quantile(w, q))
            .collect();
        median(&per)
    }

    /// The median over `windows` equal slices of the phase of each
    /// slice's completed requests per second.
    pub fn windowed_rate(&self, windows: usize) -> f64 {
        let slice = self.elapsed.as_secs_f64() / windows as f64;
        let per: Vec<f64> = self
            .windows(windows)
            .iter()
            .map(|w| w.iter().filter(|l| l.is_finite()).count() as f64 / slice)
            .collect();
        median(&per)
    }

    /// One summary line.
    pub fn summary(&self, name: &str) -> String {
        format!(
            "{name}: sent {} succeeded {} failed {} in {:.3}s",
            self.sent,
            self.succeeded,
            self.failed,
            self.elapsed.as_secs_f64()
        )
    }
}

/// Sleeps until `due`. The last stretch yields instead of sleeping, since
/// a timer sleep overshoots by tens of microseconds.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(80);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Open loop: `rate` requests per second in total, spread round-robin
/// over `conns` connections for `duration`. Request `i` is due at
/// `start + i / rate` and uses `reqs[i % reqs.len()]`.
pub fn open_loop(
    addr: SocketAddr,
    reqs: &[Prepared],
    rate: f64,
    duration: Duration,
    conns: usize,
    epoch: Option<Instant>,
) -> Result<(Phase, Option<Tracer>), String> {
    let total = (rate * duration.as_secs_f64()).floor() as u64;
    let interval = 1.0 / rate;
    let start = Instant::now() + Duration::from_millis(5);
    let results: Vec<Result<(Phase, Option<Tracer>), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut tracer = epoch.map(Tracer::new);
                    let mut phase = Phase::default();
                    let mut free_at = start;
                    let mut i = c as u64;
                    while i < total {
                        let due = start + Duration::from_secs_f64(i as f64 * interval);
                        wait_until(due);
                        let ready = due.max(free_at);
                        let sent = Instant::now();
                        if free_at > due {
                            phase.backlogged += 1;
                        }
                        phase
                            .lag_us
                            .push(sent.saturating_duration_since(ready).as_secs_f64() * 1e6);
                        let req = &reqs[(i % reqs.len() as u64) as usize];
                        let result = client.call(&req.bytes);
                        let done = Instant::now();
                        free_at = done;
                        if let Some(t) = tracer.as_mut() {
                            t.record("loadgen.request", due, done, i);
                        }
                        let micros = done.duration_since(due).as_secs_f64() * 1e6;
                        let at = due.duration_since(start).as_secs_f64();
                        phase.account(i, &result, Some(&req.expected), micros, at);
                        i += conns as u64;
                    }
                    Ok((phase, tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    let mut tracer: Option<Tracer> = epoch.map(Tracer::new);
    for r in results {
        let (p, t) = r?;
        phase.merge(p);
        if let (Some(all), Some(t)) = (tracer.as_mut(), t) {
            all.absorb(t);
        }
    }
    phase.elapsed = duration;
    Ok((phase, tracer))
}

/// Closed loop: each of `conns` connections sends back to back for
/// `duration`, cycling through `reqs` from its own offset.
pub fn closed_loop(
    addr: SocketAddr,
    reqs: &[Prepared],
    duration: Duration,
    conns: usize,
) -> Result<Phase, String> {
    let start = Instant::now();
    let deadline = start + duration;
    let results: Vec<Result<Phase, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut phase = Phase::default();
                    let mut i = c as u64;
                    while Instant::now() < deadline {
                        let req = &reqs[(i % reqs.len() as u64) as usize];
                        let t0 = Instant::now();
                        let result = client.call(&req.bytes);
                        let done = Instant::now();
                        let micros = done.duration_since(t0).as_secs_f64() * 1e6;
                        let at = done.duration_since(start).as_secs_f64();
                        phase.account(i, &result, Some(&req.expected), micros, at);
                        i += conns as u64;
                    }
                    Ok(phase)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut phase = Phase::default();
    for r in results {
        phase.merge(r?);
    }
    phase.elapsed = start.elapsed().min(duration);
    Ok(phase)
}

/// Refuses an open-loop phase whose generator fell behind its schedule.
pub fn check_lag(phase: &Phase) -> Result<(), String> {
    let lag = quantile(&phase.lag_us, 0.99);
    if lag > MAX_LAG_P99_US {
        return Err(format!(
            "load generator fell behind its schedule (lag p99 {lag:.0} us > {MAX_LAG_P99_US} us); \
             refusing to report latency"
        ));
    }
    Ok(())
}

/// Prepared single-tuple requests with their expected bodies.
pub fn prepare(
    fitted: &dyn iim_data::FittedImputer,
    names: &[String],
    route: &str,
    queries: &[Vec<Option<f64>>],
) -> Result<Vec<Prepared>, String> {
    queries
        .iter()
        .map(|q| {
            let rows = std::slice::from_ref(q);
            Ok(Prepared {
                bytes: post_bytes(route, &tenant::csv_body(names, rows)),
                expected: tenant::expected_body(fitted, names, rows)?,
            })
        })
        .collect()
}

/// Fails on any wrong response; adds every phase to the counts.
pub fn finish_phases(out: &mut Outcome, phases: &[(&str, Phase)]) -> Result<(), String> {
    for (name, phase) in phases {
        if let Some(wrong) = &phase.wrong {
            return Err(format!("{name}: {wrong}"));
        }
        out.attempted += phase.sent;
        out.failed += phase.failed;
        out.notes.push(phase.summary(name));
    }
    Ok(())
}
