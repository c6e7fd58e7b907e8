//! Multi-tenant model registry: named, versioned snapshots on disk, each
//! served by its own micro-batching [`Batcher`] once touched.
//!
//! The filesystem is the source of truth: a model named `prices` is the
//! file `<dir>/prices.iim` (an `iim-persist` snapshot, any supported
//! format version). The registry keeps at most `max_resident` models live
//! at once; a request for a cold model **activates** it transparently
//! (read + validate-then-view load + batcher spawn) and the
//! least-recently-used tenant is evicted to make room.
//!
//! Single-model serving (`iim serve MODEL.iim`) is a registry without a
//! directory ([`Registry::single`]): nothing activates, stages or
//! deletes, so its one tenant, [`DEFAULT_MODEL`], is never evicted.
//!
//! # Consistency contract
//!
//! * **Hot swap is atomic.** [`Registry::stage`] on a resident model
//!   validates the incoming snapshot, writes it to a temp file, and hands
//!   both to [`Batcher::swap`]: the rename over the live file happens
//!   inside the batcher's barrier, after the outgoing model's final
//!   checkpoint flush. Every request is therefore answered by exactly one
//!   model version — bitwise equal to some serial interleaving of
//!   requests and the swap — and the file on disk never disagrees with
//!   the live model about which version absorbed a tuple.
//! * **Eviction drops no requests.** Tenants are removed from the map
//!   under the registry lock but dropped outside it; a [`Batcher`] drains
//!   its whole queue before its thread exits, so requests already
//!   enqueued on an evicted tenant still get answers.
//! * **Eviction loses no learns.** Every resident tenant checkpoints with
//!   `every = 1`: each absorbed tuple is appended to the model's snapshot
//!   as a delta record inside the learn barrier, so reactivation replays
//!   the model to the exact state eviction tore down (the standing
//!   snapshot-load bitwise guarantee).
//!
//! Activation and staging hold the registry lock (a big model load briefly
//! blocks other tenants' *enqueue*, not their in-flight compute); imputes
//! and learns enqueue under the lock and block on their reply outside it,
//! so tenants never serialize behind each other's batches.

use crate::batch::{
    Batcher, CheckpointConfig, LearnReply, QueryBlock, RowResult, SubmitRejected, DEFAULT_MAX_QUEUE,
};
use iim_data::FittedImputer;
use iim_persist::PersistError;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// The tenant `POST /impute` and `POST /learn` serve: the one model of a
/// [`Registry::single`], or `<dir>/default.iim` in a models directory.
pub const DEFAULT_MODEL: &str = "default";

/// Registry configuration.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Directory holding `<name>.iim` snapshots.
    pub dir: PathBuf,
    /// Maximum number of models resident (batcher live) at once; colder
    /// models are evicted LRU and reactivate on demand.
    pub max_resident: usize,
    /// Worker threads per tenant pool (`0` = the shared process default).
    pub threads: usize,
    /// Per-tenant micro-batch queue cap ([`Batcher::set_max_queue`]):
    /// submits beyond it are shed as [`RegistryError::Overloaded`].
    /// `0` = unbounded. Default [`DEFAULT_MAX_QUEUE`].
    pub max_queue: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            dir: PathBuf::from("models"),
            max_resident: 4,
            threads: 0,
            max_queue: DEFAULT_MAX_QUEUE,
        }
    }
}

/// Why a registry operation failed; the HTTP layer maps each variant to a
/// status code.
#[derive(Debug)]
pub enum RegistryError {
    /// Model names are `[A-Za-z0-9_-]`, 1–64 chars — anything else could
    /// escape the registry directory or collide with its temp files.
    BadName(String),
    /// No `<name>.iim` in the registry directory.
    UnknownModel(String),
    /// The snapshot failed validation (staging) or load (activation).
    Load(PersistError),
    /// Filesystem trouble reading/writing the registry directory.
    Io(std::io::Error),
    /// A query header that doesn't match the model's recorded schema —
    /// imputing it would silently transpose features.
    SchemaMismatch {
        /// Column names the query sent.
        query: Vec<String>,
        /// Column names the model was trained on.
        model: Vec<String>,
    },
    /// The tenant's batcher is gone (panicked model or shutdown).
    Unavailable,
    /// The tenant's micro-batch queue is at its cap; the request was shed
    /// without running. Retrying is always safe.
    Overloaded,
    /// A staged swap could not be applied; the old model keeps serving.
    StageFailed(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::BadName(n) => {
                write!(f, "bad model name {n:?}: use 1-64 of [A-Za-z0-9_-]")
            }
            RegistryError::UnknownModel(n) => write!(f, "no model named {n:?} in the registry"),
            RegistryError::Load(e) => write!(f, "snapshot rejected: {e}"),
            RegistryError::Io(e) => write!(f, "registry io error: {e}"),
            RegistryError::SchemaMismatch { query, model } => write!(
                f,
                "query header {query:?} does not match the model's schema {model:?}"
            ),
            RegistryError::Unavailable => write!(f, "model backend unavailable"),
            RegistryError::Overloaded => write!(f, "model queue full; retry shortly"),
            RegistryError::StageFailed(why) => write!(f, "stage failed: {why}"),
        }
    }
}

impl From<std::io::Error> for RegistryError {
    fn from(e: std::io::Error) -> Self {
        RegistryError::Io(e)
    }
}

impl From<SubmitRejected> for RegistryError {
    fn from(e: SubmitRejected) -> Self {
        match e {
            SubmitRejected::Overloaded => RegistryError::Overloaded,
            SubmitRejected::Shutdown => RegistryError::Unavailable,
        }
    }
}

/// A [`PersistError`] raised while writing registry files is filesystem
/// trouble, not a bad snapshot.
fn persist_io(e: PersistError) -> RegistryError {
    match e {
        PersistError::Io(io) => RegistryError::Io(io),
        other => RegistryError::Load(other),
    }
}

/// One model's registry card, as reported by [`Registry::info`] and
/// [`Registry::list`].
#[derive(Debug, Clone)]
pub struct ModelInfo {
    /// Registry name (the file stem).
    pub name: String,
    /// Fitted method (e.g. `"IIM"`).
    pub method: String,
    /// Snapshot container format version on disk (2 = owned parse,
    /// 3 = validate-then-view).
    pub snapshot_version: u16,
    /// Whether a batcher is live for this model right now.
    pub resident: bool,
    /// Attribute count; known only while resident (a cold card comes
    /// from the snapshot header, which does not record it).
    pub arity: Option<usize>,
    /// Whether the model supports `POST /learn`.
    pub can_absorb: bool,
    /// Absorbed-delta count: live total when resident, delta rows on disk
    /// otherwise (equal by the eviction-loses-no-learns contract).
    pub absorbed: usize,
    /// Training column names recorded in the snapshot (may be empty).
    pub schema: Vec<String>,
}

/// Outcome of [`Registry::stage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageOutcome {
    /// The staged model's method name.
    pub method: String,
    /// True when a live tenant was hot-swapped to the new version (false:
    /// the file was replaced cold and will serve on next activation).
    pub swapped: bool,
}

struct Tenant {
    batcher: Batcher,
    schema: Arc<[String]>,
    version: u16,
    last_used: u64,
}

struct Inner {
    resident: HashMap<String, Tenant>,
    /// Logical LRU clock: bumped on every tenant touch.
    clock: u64,
}

/// See the [module docs](self).
pub struct Registry {
    /// `None` for a [`Registry::single`]: no files, one resident tenant.
    dir: Option<PathBuf>,
    max_resident: usize,
    threads: usize,
    max_queue: usize,
    /// Torn-tail snapshot recoveries observed at load and across
    /// activations (the daemon reports this as `GET /info`'s
    /// `"recovered"`).
    recovered: AtomicUsize,
    inner: Mutex<Inner>,
}

fn lock_inner(inner: &Mutex<Inner>) -> MutexGuard<'_, Inner> {
    match inner.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

impl Registry {
    /// Opens (creating if needed) the registry directory. Models load
    /// lazily — opening an empty or huge directory costs the same.
    pub fn open(cfg: RegistryConfig) -> std::io::Result<Arc<Self>> {
        std::fs::create_dir_all(&cfg.dir)?;
        Ok(Arc::new(Self {
            dir: Some(cfg.dir),
            max_resident: cfg.max_resident.max(1),
            threads: cfg.threads,
            max_queue: cfg.max_queue,
            recovered: AtomicUsize::new(0),
            inner: Mutex::new(Inner {
                resident: HashMap::new(),
                clock: 0,
            }),
        }))
    }

    /// A registry without a directory whose one resident tenant,
    /// [`DEFAULT_MODEL`], is the already-loaded `model` (`iim serve
    /// MODEL.iim`); its batcher starts here. `schema`, `snapshot_version`
    /// and `recovered` (torn tails dropped) describe the snapshot it came
    /// from; an empty schema checks only arity. Of `limits`, only
    /// `threads` and `max_queue` are read.
    ///
    /// # Errors
    ///
    /// Fails only when the batcher thread cannot be spawned.
    pub fn single(
        model: Box<dyn FittedImputer>,
        schema: Vec<String>,
        snapshot_version: u16,
        recovered: usize,
        checkpoint: Option<CheckpointConfig>,
        limits: &RegistryConfig,
    ) -> std::io::Result<Arc<Self>> {
        let batcher = Batcher::start(model, limits.threads, checkpoint)?;
        batcher.set_max_queue(limits.max_queue);
        let tenant = Tenant {
            batcher,
            schema: schema.into(),
            version: snapshot_version,
            last_used: 0,
        };
        Ok(Arc::new(Self {
            dir: None,
            max_resident: 1,
            threads: limits.threads,
            max_queue: limits.max_queue,
            recovered: AtomicUsize::new(recovered),
            inner: Mutex::new(Inner {
                resident: HashMap::from([(DEFAULT_MODEL.to_string(), tenant)]),
                clock: 0,
            }),
        }))
    }

    /// The registry directory (`None` for a [`Registry::single`]).
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The resident cap.
    pub fn max_resident(&self) -> usize {
        self.max_resident
    }

    /// Worker threads per tenant pool (`0` resolved to the process default).
    pub fn threads(&self) -> usize {
        iim_exec::Pool::new(self.threads).threads()
    }

    /// The per-tenant micro-batch queue cap every tenant enforces
    /// ([`Batcher::set_max_queue`]; `0` = unbounded).
    pub fn max_queue(&self) -> usize {
        self.max_queue
    }

    /// Torn-tail snapshot recoveries observed while loading models (each
    /// one means a crash left a truncated delta tail that loading dropped
    /// and the next checkpoint repaired).
    pub fn recovered(&self) -> usize {
        self.recovered.load(Ordering::Relaxed)
    }

    /// `<dir>/<name>.iim` for a valid `name`. A registry without a
    /// directory has no files, so every name is unknown to it.
    fn path_for(&self, name: &str) -> Result<PathBuf, RegistryError> {
        if !valid_name(name) {
            return Err(RegistryError::BadName(name.to_string()));
        }
        match &self.dir {
            Some(dir) => Ok(dir.join(format!("{name}.iim"))),
            None => Err(RegistryError::UnknownModel(name.to_string())),
        }
    }

    /// Model names present on disk, sorted (none without a directory).
    pub fn names(&self) -> Result<Vec<String>, RegistryError> {
        let Some(dir) = &self.dir else {
            return Ok(Vec::new());
        };
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("iim") {
                continue;
            }
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                if valid_name(stem) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// `(models on disk, resident now)` — the registry summary for
    /// `GET /info`.
    pub fn summary(&self) -> (usize, usize) {
        let on_disk = self.names().map(|n| n.len()).unwrap_or(0);
        let resident = lock_inner(&self.inner).resident.len();
        (on_disk, resident)
    }

    /// Registry cards for every model on disk, sorted by name.
    pub fn list(&self) -> Result<Vec<ModelInfo>, RegistryError> {
        self.names()?.iter().map(|n| self.info(n)).collect()
    }

    /// One model's card. Never activates the model: a cold model's card
    /// comes from [`iim_persist::inspect`] on its file.
    pub fn info(&self, name: &str) -> Result<ModelInfo, RegistryError> {
        if let Some(t) = lock_inner(&self.inner).resident.get(name) {
            return Ok(ModelInfo {
                name: name.to_string(),
                method: t.batcher.model_name(),
                snapshot_version: t.version,
                resident: true,
                arity: Some(t.batcher.arity()),
                can_absorb: t.batcher.can_absorb(),
                absorbed: t.batcher.absorbed(),
                schema: t.schema.to_vec(),
            });
        }
        let path = self.path_for(name)?;
        let bytes = read_model(&path, name)?;
        let info = iim_persist::inspect(&bytes).map_err(RegistryError::Load)?;
        Ok(ModelInfo {
            name: name.to_string(),
            method: info.method,
            snapshot_version: info.version,
            resident: false,
            arity: None,
            // Absorb support is a property of the fitted method; without
            // activating we report what the snapshot carries: a model that
            // already absorbed rows certainly can, others say false until
            // resident.
            can_absorb: info.absorbed_rows > 0,
            absorbed: info.absorbed_rows,
            schema: info.schema,
        })
    }

    /// Runs `f` on the (activated, LRU-bumped) tenant under the registry
    /// lock. `f` must not block — submit jobs and return receivers.
    /// Evicted tenants are dropped (draining) after the lock is released.
    fn with_tenant<R>(&self, name: &str, f: impl FnOnce(&Tenant) -> R) -> Result<R, RegistryError> {
        let mut inner = lock_inner(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        // Resident names were validated when they activated, so the hot
        // path needs neither the check nor the file path.
        if let Some(tenant) = inner.resident.get_mut(name) {
            tenant.last_used = clock;
            return Ok(f(tenant));
        }
        let path = self.path_for(name)?;
        let bytes = read_model(&path, name)?;
        let (model, info) =
            iim_persist::load_from_slice_with_info(&bytes).map_err(RegistryError::Load)?;
        if info.recovered_at.is_some() {
            self.recovered.fetch_add(1, Ordering::Relaxed);
        }
        let batcher = Batcher::start(
            model,
            self.threads,
            // every = 1: each absorbed tuple hits disk inside the learn
            // barrier, making eviction lossless. A torn tail the load
            // recovered past is truncated away before the next delta
            // lands, so damage never precedes a valid record.
            Some(CheckpointConfig {
                path,
                every: 1,
                truncate_to: info.recovered_at,
            }),
        )?;
        batcher.set_max_queue(self.max_queue);
        let tenant = Tenant {
            batcher,
            schema: info.schema.into(),
            version: info.version,
            last_used: clock,
        };
        // Make room: evict least-recently-used tenants down below the cap.
        let mut evicted: Vec<Tenant> = Vec::new();
        while inner.resident.len() >= self.max_resident {
            let Some(coldest) = inner
                .resident
                .iter()
                .min_by_key(|(_, t)| t.last_used)
                .map(|(n, _)| n.clone())
            else {
                break;
            };
            evicted.extend(inner.resident.remove(&coldest));
        }
        let out = f(&tenant);
        inner.resident.insert(name.to_string(), tenant);
        // Dropping a Batcher drains its queue (answering anything already
        // enqueued) and flushes its checkpoint — outside the lock, so a
        // slow drain never stalls other tenants.
        drop(inner);
        drop(evicted);
        Ok(out)
    }

    fn check_schema(schema: &[String], header: &[String]) -> Result<(), RegistryError> {
        if !schema.is_empty() && header != schema {
            return Err(RegistryError::SchemaMismatch {
                query: header.to_vec(),
                model: schema.to_vec(),
            });
        }
        Ok(())
    }

    /// Imputes `rows` against model `name`, activating it if cold.
    /// `header` is validated against the snapshot's recorded schema.
    pub fn impute_block(
        &self,
        name: &str,
        header: &[String],
        rows: QueryBlock,
    ) -> Result<Vec<RowResult>, RegistryError> {
        let rx = self.with_tenant(name, |t| {
            Self::check_schema(&t.schema, header)?;
            t.batcher
                .submit_impute_block(rows)
                .map_err(RegistryError::from)
        })??;
        rx.recv().map_err(|_| RegistryError::Unavailable)
    }

    /// Absorbs complete tuples into model `name`, activating it if cold.
    /// Each tuple is checkpointed to the model's snapshot before the
    /// reply, so a subsequent eviction or restart replays it.
    pub fn learn(
        &self,
        name: &str,
        header: &[String],
        rows: Vec<Vec<f64>>,
    ) -> Result<LearnReply, RegistryError> {
        let rx = self.with_tenant(name, |t| {
            Self::check_schema(&t.schema, header)?;
            t.batcher.submit_learn(rows).map_err(RegistryError::from)
        })??;
        rx.recv().map_err(|_| RegistryError::Unavailable)
    }

    /// Stages snapshot `bytes` as model `name`: validate (full load —
    /// checksum, bounds, delta replay), write to a temp file in the
    /// registry directory, then move it into place. If the model is
    /// resident, the move and the model replacement happen atomically
    /// inside the tenant's swap barrier (zero dropped or mixed requests);
    /// otherwise the temp file is renamed directly.
    pub fn stage(&self, name: &str, bytes: &[u8]) -> Result<StageOutcome, RegistryError> {
        let dst = self.path_for(name)?;
        // Fail point: a snapshot that passes checksum but is rejected by
        // validation (e.g. a format the build can't serve).
        if iim_faults::check("registry.stage.validate").is_some() {
            return Err(RegistryError::StageFailed(
                "fault injected: registry.stage.validate".into(),
            ));
        }
        let (model, info) =
            iim_persist::load_from_slice_with_info(bytes).map_err(RegistryError::Load)?;
        let method = model.name().to_string();
        let tmp = dst.with_file_name(format!(".{name}.iim.tmp"));
        // Durable staging: the temp file is fsynced before any rename can
        // publish it, so a crash never leaves a half-written snapshot
        // under the model's name. A failed write must not leave the
        // half-written temp file behind either — the next stage would
        // still overwrite it, but a crashed one would leak it.
        let write_outcome = if iim_faults::check("registry.stage.temp_write").is_some() {
            Err(PersistError::from(std::io::Error::other(
                "fault injected: registry.stage.temp_write",
            )))
        } else {
            iim_persist::write_file_durable(&tmp, bytes)
        };
        if let Err(e) = write_outcome {
            std::fs::remove_file(&tmp).ok();
            return Err(persist_io(e));
        }

        let mut inner = lock_inner(&self.inner);
        let swapped = match inner.resident.get_mut(name) {
            Some(tenant) => {
                let outcome = tenant.batcher.swap(
                    model,
                    Some((tmp.clone(), dst.clone())),
                    Some(CheckpointConfig {
                        path: dst.clone(),
                        every: 1,
                        truncate_to: None,
                    }),
                );
                match outcome {
                    Ok(Ok(_)) => {
                        tenant.schema = info.schema.into();
                        tenant.version = info.version;
                        true
                    }
                    Ok(Err(why)) => {
                        std::fs::remove_file(&tmp).ok();
                        return Err(RegistryError::StageFailed(why));
                    }
                    Err(_) => {
                        std::fs::remove_file(&tmp).ok();
                        return Err(RegistryError::Unavailable);
                    }
                }
            }
            None => {
                iim_persist::rename_durable(&tmp, &dst).map_err(persist_io)?;
                false
            }
        };
        Ok(StageOutcome { method, swapped })
    }

    /// Removes model `name`: its tenant (if resident) is torn down
    /// gracefully (in-flight requests drain) and its file deleted.
    pub fn delete(&self, name: &str) -> Result<(), RegistryError> {
        let path = self.path_for(name)?;
        let tenant = {
            let mut inner = lock_inner(&self.inner);
            inner.resident.remove(name)
        };
        drop(tenant); // drains outside the lock
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(RegistryError::UnknownModel(name.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Signals every resident tenant's batcher to stop accepting work
    /// (their queues still drain). Used by graceful daemon shutdown.
    pub fn shutdown(&self) {
        let inner = lock_inner(&self.inner);
        for tenant in inner.resident.values() {
            tenant.batcher.shutdown();
        }
    }
}

fn read_model(path: &Path, name: &str) -> Result<Vec<u8>, RegistryError> {
    match std::fs::read(path) {
        Ok(b) => Ok(b),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Err(RegistryError::UnknownModel(name.to_string()))
        }
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests::{block, fitted};

    fn snapshot_bytes() -> Vec<u8> {
        iim_persist::save_to_vec_with_schema(
            fitted().as_ref(),
            &["A1".to_string(), "A2".to_string()],
        )
        .unwrap()
    }

    fn temp_registry(tag: &str, max_resident: usize) -> Arc<Registry> {
        let dir = std::env::temp_dir().join(format!("iim-registry-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Registry::open(RegistryConfig {
            dir,
            max_resident,
            threads: 1,
            ..Default::default()
        })
        .unwrap()
    }

    fn cleanup(reg: &Registry) {
        std::fs::remove_dir_all(reg.dir().unwrap()).ok();
    }

    /// The served fill of one query row against model `name`.
    fn fill(reg: &Registry, name: &str, header: &[String], cells: &[Option<f64>]) -> Vec<f64> {
        reg.impute_block(name, header, block(cells.len(), cells))
            .unwrap()[0]
            .clone()
            .unwrap()
    }

    #[test]
    fn stage_list_impute_delete_round_trip() {
        let reg = temp_registry("crud", 2);
        assert!(reg.names().unwrap().is_empty());

        let out = reg.stage("prices", &snapshot_bytes()).unwrap();
        assert_eq!(out.method, "IIM");
        assert!(!out.swapped);
        assert_eq!(reg.names().unwrap(), vec!["prices"]);

        let header = vec!["A1".to_string(), "A2".to_string()];
        let served = fill(&reg, "prices", &header, &[Some(5.0), None]);
        let direct = fitted().impute_one(&[Some(5.0), None]).unwrap();
        assert_eq!(served[1].to_bits(), direct[1].to_bits());

        let info = reg.info("prices").unwrap();
        assert!(info.resident);
        assert_eq!(info.method, "IIM");
        assert_eq!(info.snapshot_version, iim_persist::FORMAT_VERSION);

        reg.delete("prices").unwrap();
        assert!(matches!(
            reg.impute_block("prices", &header, block(2, &[Some(5.0), None])),
            Err(RegistryError::UnknownModel(_))
        ));
        cleanup(&reg);
    }

    #[test]
    fn bad_names_and_unknown_models_are_typed() {
        let reg = temp_registry("names", 2);
        for bad in ["", "a/b", "../up", "a b", &"x".repeat(65)] {
            assert!(matches!(reg.info(bad), Err(RegistryError::BadName(_))));
        }
        assert!(matches!(
            reg.info("ghost"),
            Err(RegistryError::UnknownModel(_))
        ));
        assert!(matches!(
            reg.delete("ghost"),
            Err(RegistryError::UnknownModel(_))
        ));
        cleanup(&reg);
    }

    #[test]
    fn schema_mismatch_is_rejected_before_serving() {
        let reg = temp_registry("schema", 2);
        reg.stage("m", &snapshot_bytes()).unwrap();
        let reordered = vec!["A2".to_string(), "A1".to_string()];
        assert!(matches!(
            reg.impute_block("m", &reordered, block(2, &[None, Some(5.0)])),
            Err(RegistryError::SchemaMismatch { .. })
        ));
        cleanup(&reg);
    }

    #[test]
    fn lru_eviction_is_transparent_and_lossless() {
        let reg = temp_registry("lru", 1);
        reg.stage("a", &snapshot_bytes()).unwrap();
        reg.stage("b", &snapshot_bytes()).unwrap();
        let header = vec!["A1".to_string(), "A2".to_string()];
        let q = [Some(4.5), None];

        // Touch a, learn into it, then touch b (evicting a at cap 1).
        let before = fill(&reg, "a", &header, &q);
        assert_eq!(
            reg.learn("a", &header, vec![vec![4.6, 2.0]]).unwrap(),
            Ok(1)
        );
        let after_learn = fill(&reg, "a", &header, &q);
        assert_ne!(before[1].to_bits(), after_learn[1].to_bits());

        let _ = fill(&reg, "b", &header, &q);
        assert!(!reg.info("a").unwrap().resident);
        assert!(reg.info("b").unwrap().resident);

        // Reactivating a replays the checkpointed learn: same bits as the
        // live model served before eviction.
        let revived = fill(&reg, "a", &header, &q);
        assert_eq!(after_learn[1].to_bits(), revived[1].to_bits());
        assert_eq!(reg.info("a").unwrap().absorbed, 1);
        cleanup(&reg);
    }

    #[test]
    fn stage_hot_swaps_a_resident_model() {
        let reg = temp_registry("swap", 2);
        reg.stage("m", &snapshot_bytes()).unwrap();
        let header = vec!["A1".to_string(), "A2".to_string()];
        let q = [Some(4.5), None];
        let v1 = fill(&reg, "m", &header, &q);

        // Build a distinguishable second version (two tuples absorbed).
        let mut next = fitted();
        next.absorb(&[4.6, 2.0]).unwrap();
        next.absorb(&[5.4, 1.5]).unwrap();
        let expected = next.impute_one(&[Some(4.5), None]).unwrap();
        let v2_bytes = iim_persist::save_to_vec_with_schema(
            next.as_ref(),
            &["A1".to_string(), "A2".to_string()],
        )
        .unwrap();

        let out = reg.stage("m", &v2_bytes).unwrap();
        assert!(out.swapped);
        let v2 = fill(&reg, "m", &header, &q);
        assert_eq!(v2[1].to_bits(), expected[1].to_bits());
        assert_ne!(v1[1].to_bits(), v2[1].to_bits());
        // The file on disk is the new version too.
        let disk = std::fs::read(reg.dir().unwrap().join("m.iim")).unwrap();
        assert_eq!(disk, v2_bytes);
        cleanup(&reg);
    }

    #[test]
    fn a_single_model_registry_serves_default_and_touches_no_files() {
        let header = vec!["A1".to_string(), "A2".to_string()];
        let reg = Registry::single(
            fitted(),
            header.clone(),
            iim_persist::FORMAT_VERSION,
            0,
            None,
            &RegistryConfig::default(),
        )
        .unwrap();
        assert!(reg.dir().is_none());
        let q = [Some(5.0), None];
        let direct = fitted().impute_one(&q).unwrap();
        assert_eq!(
            fill(&reg, DEFAULT_MODEL, &header, &q)[1].to_bits(),
            direct[1].to_bits()
        );

        // No directory: no other model, and nothing to stage or delete.
        assert!(matches!(
            reg.impute_block("other", &header, block(2, &q)),
            Err(RegistryError::UnknownModel(_))
        ));
        assert!(matches!(
            reg.stage(DEFAULT_MODEL, &snapshot_bytes()),
            Err(RegistryError::UnknownModel(_))
        ));
        assert!(matches!(
            reg.delete(DEFAULT_MODEL),
            Err(RegistryError::UnknownModel(_))
        ));
        assert_eq!(reg.info(DEFAULT_MODEL).unwrap().arity, Some(2));
        assert_eq!(
            fill(&reg, DEFAULT_MODEL, &header, &q)[1].to_bits(),
            direct[1].to_bits()
        );
    }

    #[test]
    fn garbage_bytes_never_reach_the_registry() {
        let reg = temp_registry("garbage", 2);
        assert!(matches!(
            reg.stage("m", b"not a snapshot"),
            Err(RegistryError::Load(_))
        ));
        assert!(reg.names().unwrap().is_empty());
        // No temp litter either.
        let leftovers: Vec<_> = std::fs::read_dir(reg.dir().unwrap()).unwrap().collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        cleanup(&reg);
    }
}
