//! The micro-batching queue between HTTP connections and the compute
//! pool.
//!
//! Connection threads enqueue jobs and block on a reply channel; a single
//! batcher thread **owns the fitted model** and drains the queue in
//! arrival order. Impute jobs coalesce: consecutive impute jobs fan the
//! union of their rows out on the shared [`iim_exec::Pool`] — one
//! `impute_one` per row, each worker reusing its per-thread serving
//! scratch — and the result slices route back to the waiting connections.
//! Learn jobs are **barriers**: every impute enqueued before a learn is
//! answered by the pre-absorb model, every impute after it by the
//! post-absorb model, and no impute ever observes a half-applied batch.
//!
//! Coalescing concurrent requests into one `parallel_map_indexed` keeps
//! the pool saturated under many small requests (the classic
//! request-batching trade: latency of one queue hop for throughput), while
//! a single in-flight request still occupies every worker. The window is
//! **adaptive**: a wake that finds a single queued job flushes
//! immediately (the interactive latency path), while a multi-job backlog
//! — the signature of a burst — lingers [`COALESCE_WINDOW`] to sweep
//! stragglers into the same batch. Because
//! `impute_one` is a pure function of the fitted state and the query, the
//! batching boundaries can never change an answer — a row imputes to the
//! same bits whether it arrived alone or sandwiched between strangers —
//! and because learns serialize through the same queue, a served fill is
//! always bitwise-equal to some serial absorb/impute interleaving.
//!
//! **Hot swap** rides the same barrier mechanism: [`Batcher::swap`]
//! enqueues a job that replaces the owned model between coalesced
//! batches. Every impute enqueued before the swap is answered by the old
//! model, every impute after it by the new one, and no response ever
//! mixes cells from two versions. When the swap carries a staged snapshot
//! file, the atomic rename happens *inside* the barrier — after the old
//! model's final checkpoint flush, before the first request against the
//! new model — so the snapshot on disk and the live model can never
//! disagree about which version absorbed a tuple.
//!
//! **Bounded admission**: the queue holds at most
//! [`Batcher::max_queue`] jobs. A submit against a full queue returns
//! [`SubmitRejected::Overloaded`] immediately instead of queueing —
//! the daemon turns that into a fast `503` + `Retry-After`, which
//! under sustained overload is strictly better than an unbounded
//! backlog whose every entry times out. Swap jobs bypass the cap: they
//! are one-off control-plane operations, and rejecting them under the
//! very load they are meant to relieve would be self-defeating.

use iim_data::{FittedImputer, ImputeError, RowOpt};
use iim_exec::Pool;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the batcher lingers after waking to a **multi-job** backlog,
/// letting stragglers join the coalesced batch instead of paying their own
/// flush. A single-job wake (the interactive latency path) never lingers.
pub const COALESCE_WINDOW: Duration = Duration::from_micros(50);

/// Default cap on queued jobs (see [`Batcher::set_max_queue`]). Each
/// entry is one request's worth of rows; at serving throughput a backlog
/// this deep already means seconds of latency, so deeper queues only
/// convert overload into timeouts.
pub const DEFAULT_MAX_QUEUE: usize = 1024;

/// Why a submit was refused without enqueueing anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitRejected {
    /// The batcher is shutting down (or its thread died); no future
    /// submit will succeed.
    Shutdown,
    /// The job queue is at [`Batcher::max_queue`]; the caller should
    /// shed the request (`503` + `Retry-After`) and let the client
    /// retry.
    Overloaded,
}

/// A request's query rows in one flat buffer: `rows × arity` cells in row
/// order, no per-row allocation. The daemon's CSV parser appends cells
/// straight into [`QueryBlock::cells_mut`], and the batcher serves each
/// row as a borrowed `&RowOpt` slice — the wire-to-scratch path allocates
/// exactly one buffer per request regardless of row count.
#[derive(Debug, Default)]
pub struct QueryBlock {
    cells: Vec<Option<f64>>,
    arity: usize,
}

impl QueryBlock {
    /// An empty block with room for `rows` rows.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        Self {
            cells: Vec::with_capacity(arity * rows),
            arity,
        }
    }

    /// Complete rows currently stored.
    pub fn len(&self) -> usize {
        self.cells.len().checked_div(self.arity).unwrap_or(0)
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i` as a borrowed slice.
    pub fn row(&self, i: usize) -> &RowOpt {
        &self.cells[i * self.arity..(i + 1) * self.arity]
    }

    /// The flat cell buffer, for parsers that append whole rows in place.
    /// The caller keeps the length a multiple of the block's arity;
    /// a partial trailing row is truncated away at submit.
    pub fn cells_mut(&mut self) -> &mut Vec<Option<f64>> {
        &mut self.cells
    }
}

/// Per-row outcome: the completed row or the typed impute error.
pub type RowResult = Result<Vec<f64>, ImputeError>;

/// Outcome of one learn job: the model's total absorbed-tuple count after
/// the batch, or the index of the first failing row with its typed error
/// (rows before the failure stay absorbed — absorbs are applied in order).
pub type LearnReply = Result<usize, (usize, ImputeError)>;

/// Where (and how often) the batcher appends delta records for absorbed
/// tuples, keeping the snapshot on disk loadable into the live model.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// The snapshot file to append [`iim_persist`] delta records to —
    /// normally the file the model was loaded from.
    pub path: PathBuf,
    /// Flush after this many absorbed tuples (`1` = every learn job).
    /// Remaining buffered tuples flush once more at shutdown.
    pub every: usize,
    /// When the snapshot loaded with a torn tail
    /// ([`iim_persist::SnapshotInfo::recovered_at`]), the valid-prefix
    /// length to truncate the file back to before the first append —
    /// otherwise the next delta record would land after the damage and
    /// harden it into an unrecoverable interior error.
    pub truncate_to: Option<u64>,
}

/// Outcome of a swap job: the new model's absorbed-tuple count, or why
/// the staged file could not be moved into place (the old model keeps
/// serving).
pub type SwapReply = Result<usize, String>;

enum Job {
    Impute {
        rows: QueryBlock,
        reply: mpsc::Sender<Vec<RowResult>>,
    },
    Learn {
        rows: Vec<Vec<f64>>,
        reply: mpsc::Sender<LearnReply>,
    },
    Swap {
        model: Box<dyn FittedImputer>,
        /// `(tmp, dst)`: rename `tmp` over `dst` inside the barrier, after
        /// the outgoing model's checkpoint flush. A rename failure aborts
        /// the swap (the old model keeps serving).
        staged: Option<(PathBuf, PathBuf)>,
        /// Checkpoint config for the incoming model (replaces the old one).
        checkpoint: Option<CheckpointConfig>,
        reply: mpsc::Sender<SwapReply>,
    },
}

/// Serving metadata mirrored out of the owned model so `/info` never has
/// to queue behind compute. Updated by the batcher thread inside the swap
/// barrier, so readers see either the old triple or the new one — never a
/// mix.
struct Meta {
    model_name: String,
    arity: usize,
    can_absorb: bool,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
    /// Queue cap (see [`Batcher::set_max_queue`]); `0` = unbounded.
    max_queue: AtomicUsize,
}

/// Locks the queue, recovering from poisoning: the batcher thread's
/// poison guard marks the queue shut down whenever that thread dies, so
/// a poisoned lock still reads a consistent "refuse new work" state.
/// Connection threads must answer 503, not propagate a panic.
fn lock_queue(shared: &Shared) -> MutexGuard<'_, Queue> {
    match shared.queue.lock() {
        Ok(q) => q,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The micro-batching executor: owns the fitted model, the compute pool,
/// and the batcher thread.
pub struct Batcher {
    shared: Arc<Shared>,
    absorbed: Arc<AtomicUsize>,
    meta: Arc<Mutex<Meta>>,
    worker: Option<JoinHandle<()>>,
}

/// Reads the metadata mirror, tolerating poisoning (a dead batcher
/// thread leaves the last consistent triple in place).
fn lock_meta(meta: &Mutex<Meta>) -> MutexGuard<'_, Meta> {
    match meta.lock() {
        Ok(m) => m,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Batcher {
    /// Starts the batcher thread serving `model` on a pool of `threads`
    /// workers (`0` = the process default, see
    /// [`iim_exec::default_threads`]). The batcher takes ownership of the
    /// model — all serving *and* learning goes through the queue.
    ///
    /// # Errors
    ///
    /// Fails only when the batcher thread cannot be spawned.
    pub fn start(
        model: Box<dyn FittedImputer>,
        threads: usize,
        checkpoint: Option<CheckpointConfig>,
    ) -> std::io::Result<Self> {
        let pool = if threads > 0 {
            Pool::new(threads)
        } else {
            iim_exec::global()
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            available: Condvar::new(),
            max_queue: AtomicUsize::new(DEFAULT_MAX_QUEUE),
        });
        let absorbed = Arc::new(AtomicUsize::new(model.absorbed()));
        let meta = Arc::new(Mutex::new(Meta {
            model_name: model.name().to_string(),
            arity: model.arity(),
            can_absorb: model.can_absorb(),
        }));
        let worker_shared = Arc::clone(&shared);
        let worker_absorbed = Arc::clone(&absorbed);
        let worker_meta = Arc::clone(&meta);
        let worker = std::thread::Builder::new()
            .name("iim-serve-batcher".into())
            .spawn(move || {
                batcher_loop(
                    worker_shared,
                    model,
                    pool,
                    checkpoint,
                    worker_absorbed,
                    worker_meta,
                )
            })?;
        Ok(Self {
            shared,
            absorbed,
            meta,
            worker: Some(worker),
        })
    }

    /// The served model's method name.
    pub fn model_name(&self) -> String {
        lock_meta(&self.meta).model_name.clone()
    }

    /// The served model's attribute count.
    pub fn arity(&self) -> usize {
        lock_meta(&self.meta).arity
    }

    /// Whether the served model supports
    /// [`absorb`](FittedImputer::absorb).
    pub fn can_absorb(&self) -> bool {
        lock_meta(&self.meta).can_absorb
    }

    /// Tuples absorbed by the served model so far (including any delta
    /// rows replayed at snapshot load).
    pub fn absorbed(&self) -> usize {
        self.absorbed.load(Ordering::SeqCst)
    }

    /// The queue cap: submits beyond this many queued jobs are refused
    /// with [`SubmitRejected::Overloaded`]. `0` = unbounded.
    pub fn max_queue(&self) -> usize {
        self.shared.max_queue.load(Ordering::SeqCst)
    }

    /// Sets the queue cap (`0` = unbounded). Defaults to
    /// [`DEFAULT_MAX_QUEUE`].
    pub fn set_max_queue(&self, cap: usize) {
        self.shared.max_queue.store(cap, Ordering::SeqCst);
    }

    fn submit(&self, job: Job) -> Result<(), SubmitRejected> {
        // Swap is control-plane: it bypasses the overload cap (rejecting
        // the operation meant to relieve load would be self-defeating).
        let data_plane = !matches!(job, Job::Swap { .. });
        {
            let mut queue = lock_queue(&self.shared);
            if queue.shutdown {
                return Err(SubmitRejected::Shutdown);
            }
            let cap = self.shared.max_queue.load(Ordering::SeqCst);
            if data_plane && cap > 0 && queue.jobs.len() >= cap {
                return Err(SubmitRejected::Overloaded);
            }
            queue.jobs.push_back(job);
        }
        self.shared.available.notify_one();
        Ok(())
    }

    /// Enqueues `rows` without blocking; the receiver yields their
    /// results, in order. The registry enqueues under its tenant lock and
    /// receives outside it, so one tenant's slow batch never stalls
    /// another tenant's requests.
    ///
    /// Fails only when the batcher is shutting down or the queue is at
    /// its cap. Once enqueued, the job is always answered — even through
    /// shutdown, the batcher drains its queue before exiting.
    pub fn submit_impute_block(
        &self,
        rows: QueryBlock,
    ) -> Result<mpsc::Receiver<Vec<RowResult>>, SubmitRejected> {
        let (tx, rx) = mpsc::channel();
        self.submit(Job::Impute { rows, reply: tx }).map(|()| rx)
    }

    /// Non-blocking variant of [`Batcher::learn`]; same contract as
    /// [`Batcher::submit_impute_block`].
    pub fn submit_learn(
        &self,
        rows: Vec<Vec<f64>>,
    ) -> Result<mpsc::Receiver<LearnReply>, SubmitRejected> {
        let (tx, rx) = mpsc::channel();
        self.submit(Job::Learn { rows, reply: tx }).map(|()| rx)
    }

    /// Blocking [`Batcher::submit_impute_block`]: enqueues `rows` and
    /// waits for their results, in order.
    ///
    /// Fails only when the batcher is shutting down or the queue is at
    /// its cap ([`SubmitRejected`]).
    pub fn impute_block(&self, rows: QueryBlock) -> Result<Vec<RowResult>, SubmitRejected> {
        self.submit_impute_block(rows)?
            .recv()
            .map_err(|_| SubmitRejected::Shutdown)
    }

    /// Enqueues complete tuples for absorption and blocks until the model
    /// has applied them (in row order, serialized against every other
    /// job).
    ///
    /// Fails only when the batcher is shutting down or the queue is at
    /// its cap ([`SubmitRejected`]).
    pub fn learn(&self, rows: Vec<Vec<f64>>) -> Result<LearnReply, SubmitRejected> {
        self.submit_learn(rows)?
            .recv()
            .map_err(|_| SubmitRejected::Shutdown)
    }

    /// Atomically replaces the served model (and optionally its snapshot
    /// file and checkpoint config) between micro-batches. Blocks until the
    /// swap is applied: every request enqueued before this call is
    /// answered by the old model, every request enqueued after it returns
    /// by the new one, and no response mixes the two.
    ///
    /// With `staged = Some((tmp, dst))`, `tmp` is durably renamed over
    /// `dst` inside the barrier — after the outgoing model's last
    /// checkpoint flush, with a parent-directory fsync so the publish
    /// survives power loss — so delta records always land in the file of
    /// the model that absorbed them. A rename failure aborts the swap
    /// (`Err` with the OS error; the old model, file, and checkpoint
    /// stay in service).
    ///
    /// Fails only when the batcher is shutting down — swaps are
    /// control-plane jobs and bypass the queue cap.
    pub fn swap(
        &self,
        model: Box<dyn FittedImputer>,
        staged: Option<(PathBuf, PathBuf)>,
        checkpoint: Option<CheckpointConfig>,
    ) -> Result<SwapReply, SubmitRejected> {
        let (tx, rx) = mpsc::channel();
        self.submit(Job::Swap {
            model,
            staged,
            checkpoint,
            reply: tx,
        })?;
        rx.recv().map_err(|_| SubmitRejected::Shutdown)
    }

    /// Signals the batcher thread to exit once the queue drains.
    pub fn shutdown(&self) {
        let mut queue = lock_queue(&self.shared);
        queue.shutdown = true;
        drop(queue);
        self.shared.available.notify_all();
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Flushes one coalesced impute batch: the union of all pending impute
/// jobs' rows, one deterministic indexed map over the pool, slices routed
/// back to their connections.
fn flush_imputes(
    model: &dyn FittedImputer,
    pool: &Pool,
    jobs: &mut Vec<(QueryBlock, mpsc::Sender<Vec<RowResult>>)>,
) {
    if jobs.is_empty() {
        return;
    }
    // Union of all rows, then one deterministic indexed map over the
    // pool. Row order within the union is job order — irrelevant to
    // the results (impute_one is pure) but kept stable anyway.
    let flat: Vec<&RowOpt> = jobs
        .iter()
        .flat_map(|(rows, _)| (0..rows.len()).map(move |i| rows.row(i)))
        .collect();
    let results: Vec<RowResult> =
        pool.parallel_map_indexed(flat.len(), |i| model.impute_one(flat[i]));

    // Move each job's slice of results out (no per-row clone on the
    // serving hot path).
    let mut results = results.into_iter();
    for (rows, reply) in jobs.drain(..) {
        let slice: Vec<RowResult> = results.by_ref().take(rows.len()).collect();
        // A receiver that hung up (client disconnected) is not an
        // error for the batch.
        let _ = reply.send(slice);
    }
}

/// Buffers absorbed tuples between checkpoint flushes.
struct CheckpointState {
    cfg: CheckpointConfig,
    pending: Vec<Vec<f64>>,
}

impl CheckpointState {
    /// Appends the pending tuples to the snapshot as one delta record.
    /// An append failure keeps the rows buffered (retried on the next
    /// flush) — the live model is already ahead of the disk either way,
    /// and dropping the in-memory copy would make the gap permanent.
    ///
    /// When the snapshot loaded with a torn tail
    /// ([`CheckpointConfig::truncate_to`]), the first flush truncates
    /// the file back to the valid boundary before appending; appending
    /// after the damage instead would harden the recoverable tail into
    /// an unrecoverable interior error.
    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        if let Some(len) = self.cfg.truncate_to {
            match iim_persist::truncate_deltas_path(&self.cfg.path, len) {
                Ok(()) => self.cfg.truncate_to = None,
                Err(e) => {
                    eprintln!(
                        "iim-serve: torn-tail repair of {} (truncate to {len}) failed ({e}); \
                         {} tuples still buffered",
                        self.cfg.path.display(),
                        self.pending.len()
                    );
                    return;
                }
            }
        }
        match iim_persist::append_delta_path(&self.cfg.path, &self.pending) {
            Ok(()) => self.pending.clear(),
            Err(e) => {
                eprintln!(
                    "iim-serve: checkpoint append to {} failed ({e}); {} tuples still buffered",
                    self.cfg.path.display(),
                    self.pending.len()
                );
            }
        }
    }
}

fn batcher_loop(
    shared: Arc<Shared>,
    mut model: Box<dyn FittedImputer>,
    pool: Pool,
    checkpoint: Option<CheckpointConfig>,
    absorbed: Arc<AtomicUsize>,
    meta: Arc<Mutex<Meta>>,
) {
    // If this thread dies for ANY reason — normal shutdown or a panic
    // unwinding out of a worker via the pool's join — the guard marks the
    // queue shut down and drops every pending job's reply sender, so
    // blocked and future `Batcher::impute_block` calls fail (the
    // daemon answers 503) instead of hanging forever on a reply that can
    // never come.
    struct PoisonGuard(Arc<Shared>);
    impl Drop for PoisonGuard {
        fn drop(&mut self) {
            let mut queue = lock_queue(&self.0);
            queue.shutdown = true;
            queue.jobs.clear();
        }
    }
    let _guard = PoisonGuard(Arc::clone(&shared));
    let mut checkpoint = checkpoint.map(|cfg| CheckpointState {
        cfg,
        pending: Vec::new(),
    });
    loop {
        // Collect every job currently queued (micro-batch = the backlog).
        let mut jobs: Vec<Job> = {
            let mut queue = lock_queue(&shared);
            while queue.jobs.is_empty() && !queue.shutdown {
                queue = match shared.available.wait(queue) {
                    Ok(q) => q,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
            if queue.jobs.is_empty() && queue.shutdown {
                // Normal shutdown: nothing in flight; flush any absorbed
                // tuples still buffered for the checkpoint and exit.
                if let Some(cp) = checkpoint.as_mut() {
                    cp.flush();
                }
                return;
            }
            queue.jobs.drain(..).collect()
        };

        // Adaptive coalescing: waking to more than one queued job means
        // requests arrive faster than batches flush, so linger one short
        // window and sweep the stragglers into this batch — they'd only
        // queue behind it anyway, and a bigger union keeps the pool
        // saturated. A single-job wake (the interactive path) skips the
        // wait entirely, so idle-connection latency never pays for it.
        // Batching boundaries cannot change answers (impute_one is pure),
        // so the window is a pure throughput knob.
        if jobs.len() > 1 {
            std::thread::sleep(COALESCE_WINDOW);
            let mut queue = lock_queue(&shared);
            jobs.extend(queue.jobs.drain(..));
        }

        // Process the backlog in arrival order: impute jobs coalesce,
        // learn jobs act as barriers between coalesced batches.
        let mut imputes: Vec<(QueryBlock, mpsc::Sender<Vec<RowResult>>)> = Vec::new();
        for job in jobs {
            match job {
                Job::Impute { rows, reply } => imputes.push((rows, reply)),
                Job::Learn { rows, reply } => {
                    flush_imputes(model.as_ref(), &pool, &mut imputes);
                    let mut outcome: LearnReply = Ok(0);
                    for (i, row) in rows.iter().enumerate() {
                        if let Err(e) = model.absorb(row) {
                            outcome = Err((i, e));
                            break;
                        }
                        absorbed.store(model.absorbed(), Ordering::SeqCst);
                        if let Some(cp) = checkpoint.as_mut() {
                            cp.pending.push(row.clone());
                            if cp.pending.len() >= cp.cfg.every.max(1) {
                                cp.flush();
                            }
                        }
                    }
                    if outcome.is_ok() {
                        outcome = Ok(model.absorbed());
                    }
                    let _ = reply.send(outcome);
                }
                Job::Swap {
                    model: next,
                    staged,
                    checkpoint: next_cp,
                    reply,
                } => {
                    // Barrier: answer everything queued before the swap
                    // with the outgoing model, and put its last absorbed
                    // tuples on disk before the file changes hands.
                    flush_imputes(model.as_ref(), &pool, &mut imputes);
                    if let Some(cp) = checkpoint.as_mut() {
                        cp.flush();
                    }
                    if let Some((tmp, dst)) = staged {
                        // Fail point: the barrier rename itself (e.g. the
                        // registry directory vanished between stage and
                        // swap). The abort path below must leave the old
                        // model serving.
                        let renamed = if iim_faults::check("registry.swap.rename").is_some() {
                            Err(iim_persist::PersistError::from(std::io::Error::other(
                                "fault injected: registry.swap.rename",
                            )))
                        } else {
                            iim_persist::rename_durable(&tmp, &dst)
                        };
                        if let Err(e) = renamed {
                            // Abort: old model, file, and checkpoint stay
                            // in service; the caller sees why.
                            let _ = reply.send(Err(format!(
                                "staging {} over {} failed: {e}",
                                tmp.display(),
                                dst.display()
                            )));
                            continue;
                        }
                    }
                    model = next;
                    checkpoint = next_cp.map(|cfg| CheckpointState {
                        cfg,
                        pending: Vec::new(),
                    });
                    absorbed.store(model.absorbed(), Ordering::SeqCst);
                    {
                        let mut m = lock_meta(&meta);
                        m.model_name = model.name().to_string();
                        m.arity = model.arity();
                        m.can_absorb = model.can_absorb();
                    }
                    let _ = reply.send(Ok(model.absorbed()));
                }
            }
        }
        flush_imputes(model.as_ref(), &pool, &mut imputes);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use iim_data::{Imputer, PerAttributeImputer};
    use std::sync::Barrier;

    /// The IIM (k = 3) fit of the paper's Figure 1 relation; deterministic,
    /// so a second call stands in for the model a batcher owns.
    pub(crate) fn fitted() -> Box<dyn FittedImputer> {
        let (rel, _) = iim_data::paper_fig1();
        PerAttributeImputer::new(iim_core::Iim::new(iim_core::IimConfig {
            k: 3,
            ..Default::default()
        }))
        .fit(&rel)
        .unwrap()
    }

    fn start(threads: usize) -> Batcher {
        Batcher::start(fitted(), threads, None).unwrap()
    }

    /// A block of `arity`-wide rows from their cells, in row order.
    pub(crate) fn block(arity: usize, cells: &[Option<f64>]) -> QueryBlock {
        let mut block = QueryBlock::with_capacity(arity, cells.len() / arity.max(1));
        block.cells_mut().extend_from_slice(cells);
        block
    }

    /// The served fill of one query row.
    fn fill(batcher: &Batcher, row: &[Option<f64>]) -> Vec<f64> {
        batcher.impute_block(block(row.len(), row)).unwrap()[0]
            .clone()
            .unwrap()
    }

    #[test]
    fn batched_results_match_direct_serving() {
        // Deterministic fit: a second fit of the same config is the same
        // model, so it stands in for the one the batcher owns.
        let reference = fitted();
        let batcher = start(2);
        let cells: Vec<Option<f64>> = (0..40).flat_map(|i| [Some(i as f64 * 0.2), None]).collect();
        let rows = block(2, &cells);
        assert_eq!(rows.len(), 40);
        let got = batcher.impute_block(rows).unwrap();
        assert_eq!(got.len(), 40);
        for (row, out) in cells.chunks(2).zip(&got) {
            let direct = reference.impute_one(row).unwrap();
            let out = out.as_ref().unwrap();
            assert_eq!(out.len(), direct.len());
            for (a, b) in out.iter().zip(&direct) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn concurrent_jobs_all_answered() {
        let batcher = Arc::new(start(2));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let batcher = Arc::clone(&batcher);
                scope.spawn(move || {
                    let cells: Vec<Option<f64>> = (0..5)
                        .flat_map(|i| [Some((t * 5 + i) as f64 * 0.1), None])
                        .collect();
                    let got = batcher.impute_block(block(2, &cells)).unwrap();
                    assert_eq!(got.len(), 5);
                    for r in got {
                        assert!(r.unwrap()[1].is_finite());
                    }
                });
            }
        });
    }

    #[test]
    fn per_row_errors_do_not_poison_the_batch() {
        // Serves like `fitted()`, but its first impute parks the batcher
        // between two barrier waits, so the jobs submitted meanwhile are
        // all queued when it next drains: they coalesce into one flush.
        struct Gated {
            inner: Box<dyn FittedImputer>,
            gate: Arc<Barrier>,
            tripped: AtomicUsize,
        }
        impl FittedImputer for Gated {
            fn name(&self) -> &str {
                self.inner.name()
            }
            fn arity(&self) -> usize {
                self.inner.arity()
            }
            fn impute_one(&self, row: &RowOpt) -> RowResult {
                if self.tripped.fetch_add(1, Ordering::SeqCst) == 0 {
                    self.gate.wait(); // the batcher is inside a flush
                    self.gate.wait(); // the test has queued both jobs
                }
                self.inner.impute_one(row)
            }
        }
        let gate = Arc::new(Barrier::new(2));
        let model = Gated {
            inner: fitted(),
            gate: Arc::clone(&gate),
            tripped: AtomicUsize::new(0),
        };
        let batcher = Batcher::start(Box::new(model), 1, None).unwrap();
        let parked = batcher
            .submit_impute_block(block(2, &[Some(4.5), None]))
            .unwrap();
        gate.wait();
        let good_cells = [Some(1.0), None, Some(2.0), None];
        let good = batcher.submit_impute_block(block(2, &good_cells)).unwrap();
        let bad = batcher.submit_impute_block(block(1, &[Some(1.0)])).unwrap();
        gate.wait();

        assert_eq!(parked.recv().unwrap().len(), 1);
        let bad = bad.recv().unwrap();
        assert_eq!(bad.len(), 1);
        assert!(matches!(bad[0], Err(ImputeError::ArityMismatch { .. })));
        let good = good.recv().unwrap();
        let reference = fitted();
        assert_eq!(good.len(), 2);
        for (row, out) in good_cells.chunks(2).zip(&good) {
            let direct = reference.impute_one(row).unwrap();
            assert_eq!(out.as_ref().unwrap()[1].to_bits(), direct[1].to_bits());
        }
    }

    #[test]
    fn learn_absorbs_and_changes_subsequent_fills() {
        let batcher = start(1);
        assert!(batcher.can_absorb());
        assert_eq!(batcher.absorbed(), 0);
        let q = [Some(4.5), None];
        let before = fill(&batcher, &q);

        let reply = batcher.learn(vec![vec![4.6, 2.0], vec![5.4, 1.5]]).unwrap();
        assert_eq!(reply, Ok(2));
        assert_eq!(batcher.absorbed(), 2);

        // A reference model absorbing the same rows serves the same bits.
        let mut reference = fitted();
        reference.absorb(&[4.6, 2.0]).unwrap();
        reference.absorb(&[5.4, 1.5]).unwrap();
        let after = fill(&batcher, &q);
        let direct = reference.impute_one(&q).unwrap();
        assert_eq!(after[1].to_bits(), direct[1].to_bits());
        assert_ne!(before[1].to_bits(), after[1].to_bits());
    }

    #[test]
    fn learn_errors_are_positional_and_partial() {
        let batcher = start(1);
        let reply = batcher
            .learn(vec![vec![1.0, 2.0], vec![f64::NAN, 0.0], vec![3.0, 4.0]])
            .unwrap();
        // Row 0 absorbed, row 1 rejected, row 2 never attempted.
        assert!(matches!(reply, Err((1, ImputeError::Unsupported(_)))));
        assert_eq!(batcher.absorbed(), 1);
    }

    #[test]
    fn learn_checkpoints_delta_records() {
        let dir = std::env::temp_dir().join(format!("iim-batch-cp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.iim");
        let fitted = fitted();
        iim_persist::save_path(fitted.as_ref(), &path).unwrap();
        let batcher = Batcher::start(
            fitted,
            1,
            Some(CheckpointConfig {
                path: path.clone(),
                every: 1,
                truncate_to: None,
            }),
        )
        .unwrap();
        let reply = batcher.learn(vec![vec![4.6, 2.0], vec![0.4, 5.1]]).unwrap();
        assert_eq!(reply, Ok(2));
        // every=1 ⇒ both rows are on disk before the reply, no shutdown
        // flush needed.
        let bytes = std::fs::read(&path).unwrap();
        let info = iim_persist::inspect(&bytes).unwrap();
        assert_eq!(info.absorbed_rows, 2);
        let (loaded, _) = iim_persist::load_from_slice_with_info(&bytes).unwrap();
        assert_eq!(loaded.absorbed(), 2);
        drop(batcher);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_panicking_model_poisons_the_batcher_instead_of_wedging_it() {
        struct Panicker;
        impl FittedImputer for Panicker {
            fn name(&self) -> &str {
                "Panicker"
            }
            fn arity(&self) -> usize {
                1
            }
            fn impute_one(&self, _row: &iim_data::RowOpt) -> RowResult {
                panic!("model bug");
            }
        }
        let batcher = Batcher::start(Box::new(Panicker), 1, None).unwrap();
        // The panicking batch itself and every later request must resolve
        // (to an error → a 503 upstream), never hang.
        assert_eq!(
            batcher.impute_block(block(1, &[None])),
            Err(SubmitRejected::Shutdown)
        );
        assert_eq!(
            batcher.impute_block(block(1, &[None])),
            Err(SubmitRejected::Shutdown)
        );
    }

    #[test]
    fn swap_is_a_barrier_and_updates_metadata() {
        let batcher = start(2);
        let q = [Some(4.5), None];
        let before = fill(&batcher, &q);

        // Swap in a model that has absorbed two extra tuples; requests
        // after the swap returns must serve the new model's bits.
        let mut next = fitted();
        next.absorb(&[4.6, 2.0]).unwrap();
        next.absorb(&[5.4, 1.5]).unwrap();
        let expected = next.impute_one(&q).unwrap();
        assert_eq!(batcher.swap(next, None, None), Ok(Ok(2)));
        assert_eq!(batcher.absorbed(), 2);
        assert_eq!(batcher.model_name(), "IIM");

        let after = fill(&batcher, &q);
        assert_eq!(after[1].to_bits(), expected[1].to_bits());
        assert_ne!(before[1].to_bits(), after[1].to_bits());
    }

    #[test]
    fn swap_rename_failure_keeps_the_old_model() {
        let batcher = start(1);
        let q = [Some(4.5), None];
        let before = fill(&batcher, &q);

        let mut next = fitted();
        next.absorb(&[4.6, 2.0]).unwrap();
        let missing = std::env::temp_dir().join("iim-swap-no-such-staged-file");
        let dst = std::env::temp_dir().join("iim-swap-dst");
        let reply = batcher.swap(next, Some((missing, dst)), None).unwrap();
        assert!(reply.is_err(), "rename of a missing tmp must fail the swap");
        assert_eq!(batcher.absorbed(), 0);

        let after = fill(&batcher, &q);
        assert_eq!(before[1].to_bits(), after[1].to_bits());
    }

    #[test]
    fn swap_renames_the_staged_file_inside_the_barrier() {
        let dir = std::env::temp_dir().join(format!("iim-swap-stage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tmp = dir.join(".model.tmp");
        let dst = dir.join("model.iim");
        std::fs::write(&tmp, b"staged-bytes").unwrap();
        std::fs::write(&dst, b"old-bytes").unwrap();

        let batcher = start(1);
        let reply = batcher
            .swap(fitted(), Some((tmp.clone(), dst.clone())), None)
            .unwrap();
        assert_eq!(reply, Ok(0));
        assert!(!tmp.exists());
        assert_eq!(std::fs::read(&dst).unwrap(), b"staged-bytes");
        drop(batcher);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_refuses_new_work() {
        let batcher = start(1);
        batcher.shutdown();
        assert_eq!(
            batcher.impute_block(block(2, &[Some(1.0), None])),
            Err(SubmitRejected::Shutdown)
        );
        assert_eq!(
            batcher.learn(vec![vec![1.0, 2.0]]),
            Err(SubmitRejected::Shutdown)
        );
    }

    #[test]
    fn a_full_queue_sheds_instead_of_growing() {
        // Cap the queue at 1 while the batcher is wedged behind a slow
        // job; the second and third submits must be refused immediately
        // with Overloaded, not queued.
        struct Slow;
        impl FittedImputer for Slow {
            fn name(&self) -> &str {
                "Slow"
            }
            fn arity(&self) -> usize {
                1
            }
            fn impute_one(&self, _row: &iim_data::RowOpt) -> RowResult {
                std::thread::sleep(Duration::from_millis(200));
                Ok(vec![0.0])
            }
        }
        let batcher = Batcher::start(Box::new(Slow), 1, None).unwrap();
        assert_eq!(batcher.max_queue(), DEFAULT_MAX_QUEUE);
        batcher.set_max_queue(1);
        // First job occupies the batcher; give it time to be drained off
        // the queue, then fill the single queue slot.
        let first = batcher.submit_impute_block(block(1, &[None])).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let second = batcher.submit_impute_block(block(1, &[None])).unwrap();
        assert_eq!(
            batcher.submit_impute_block(block(1, &[None])).map(|_| ()),
            Err(SubmitRejected::Overloaded)
        );
        assert_eq!(
            batcher.learn(vec![vec![1.0]]).map(|_| ()),
            Err(SubmitRejected::Overloaded)
        );
        // Everything actually enqueued is still answered.
        assert_eq!(first.recv().unwrap().len(), 1);
        assert_eq!(second.recv().unwrap().len(), 1);
    }
}
