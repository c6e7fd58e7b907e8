//! Crash-safety and fault-injection properties, end to end:
//!
//! * **Torn tails are total**: truncating a snapshot's *final* delta
//!   record at every byte offset, or flipping any single byte inside it,
//!   loads the valid prefix — bitwise, with `recovered_at` reporting the
//!   repair point — while corruption *before* a valid record stays a
//!   typed [`iim_persist::PersistError`]. Recovery never invents data:
//!   the loaded model is exactly the prefix model.
//! * **Repair round-trips through real files**: `truncate_deltas_path`
//!   cuts a torn tail so subsequent appends land on a clean boundary.
//! * With `--features faults`, the `iim-faults` fail points drive the
//!   same paths the kill-based e2e legs exercise, in-process: a partial
//!   append tears the file exactly like a crash, fsync failures surface
//!   as errors instead of silent data loss, and a daemon hammered with
//!   accept failures, write stalls, and overload sheds load with `503` +
//!   `Retry-After` while every *completed* response stays bitwise
//!   correct.
//! * **A failed hot swap is a no-op**: killing `Registry::stage` at
//!   validation, the durable temp write, or the barrier rename leaves the
//!   old model serving (memory and disk) with no temp-file litter, and
//!   the same stage succeeds once the fault clears.

use iim::prelude::*;

/// The paper's Fig. 1 model, the same fixture the persist and serve
/// suites use, so expected fills are directly comparable.
fn fitted() -> Box<dyn FittedImputer> {
    let (rel, _) = iim_data::paper_fig1();
    PerAttributeImputer::new(Iim::new(IimConfig {
        k: 3,
        ..Default::default()
    }))
    .fit(&rel)
    .unwrap()
}

fn base_snapshot() -> Vec<u8> {
    iim_persist::save_to_vec_with_schema(fitted().as_ref(), &["A1".to_string(), "A2".to_string()])
        .unwrap()
}

const QUERY: [Option<f64>; 2] = [Some(4.3), None];

/// The bitwise fill the model produces after absorbing `rows`.
fn reference_fill(rows: &[Vec<f64>]) -> u64 {
    let mut model = fitted();
    for row in rows {
        model.absorb(row).unwrap();
    }
    model.impute_one(&QUERY).unwrap()[1].to_bits()
}

fn fill_of(model: &dyn FittedImputer) -> u64 {
    model.impute_one(&QUERY).unwrap()[1].to_bits()
}

const REC1: [[f64; 2]; 2] = [[4.6, 2.0], [5.4, 1.5]];
const REC2: [[f64; 2]; 1] = [[6.1, 2.4]];

fn rec1() -> Vec<Vec<f64>> {
    REC1.iter().map(|r| r.to_vec()).collect()
}

fn rec2() -> Vec<Vec<f64>> {
    REC2.iter().map(|r| r.to_vec()).collect()
}

/// `(bytes, base_len, boundary)`: a snapshot with two delta records;
/// `boundary` is where record 1 ends and the final record begins.
fn two_record_snapshot() -> (Vec<u8>, usize, usize) {
    let mut bytes = base_snapshot();
    let base_len = bytes.len();
    bytes.extend_from_slice(&iim_persist::encode_delta(&rec1()));
    let boundary = bytes.len();
    bytes.extend_from_slice(&iim_persist::encode_delta(&rec2()));
    (bytes, base_len, boundary)
}

#[test]
fn every_truncation_of_the_final_record_recovers_the_prefix_bitwise() {
    let (bytes, _, boundary) = two_record_snapshot();
    let prefix_fill = reference_fill(&rec1());

    // Cut the file everywhere inside the final record: a crash mid-append
    // can stop after any byte. Every cut must load the prefix model.
    for cut in boundary..bytes.len() {
        let (model, info) = iim_persist::load_from_slice_with_info(&bytes[..cut])
            .unwrap_or_else(|e| panic!("cut at {cut} must recover, got {e}"));
        if cut == boundary {
            assert_eq!(info.recovered_at, None, "clean boundary is not a recovery");
        } else {
            assert_eq!(info.recovered_at, Some(boundary as u64), "cut at {cut}");
        }
        assert_eq!(model.absorbed(), rec1().len(), "cut at {cut}");
        assert_eq!(fill_of(model.as_ref()), prefix_fill, "cut at {cut}");
    }

    // The intact file replays both records and reports no recovery.
    let (model, info) = iim_persist::load_from_slice_with_info(&bytes).unwrap();
    assert_eq!(info.recovered_at, None);
    let mut both = rec1();
    both.extend(rec2());
    assert_eq!(fill_of(model.as_ref()), reference_fill(&both));
}

#[test]
fn every_byte_flip_of_the_final_record_recovers_the_prefix_bitwise() {
    let (bytes, _, boundary) = two_record_snapshot();
    let prefix_fill = reference_fill(&rec1());

    // Flip every byte of the final record in turn. Each flip breaks the
    // record's magic, length, payload, or checksum — all torn-tail
    // classes — so the load must fall back to the valid prefix, bitwise.
    for offset in boundary..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[offset] ^= 0xFF;
        let (model, info) = iim_persist::load_from_slice_with_info(&damaged)
            .unwrap_or_else(|e| panic!("flip at {offset} must recover, got {e}"));
        assert_eq!(info.recovered_at, Some(boundary as u64), "flip at {offset}");
        assert_eq!(fill_of(model.as_ref()), prefix_fill, "flip at {offset}");
    }
}

#[test]
fn corruption_before_a_valid_record_is_a_typed_error() {
    let (bytes, base_len, boundary) = two_record_snapshot();

    // Damage inside record 1 — with the valid final record still behind
    // it — is not a torn tail: refusing beats silently dropping acked
    // learns. Flip a payload byte (past the 8-byte magic and 8-byte
    // length, so the record still *parses* far enough to fail its
    // checksum rather than its framing).
    let mut damaged = bytes.clone();
    damaged[base_len + 17] ^= 0xFF;
    let err = iim_persist::load_from_slice_with_info(&damaged)
        .err()
        .expect("interior corruption must refuse to load");
    assert!(
        matches!(
            err,
            iim_persist::PersistError::ChecksumMismatch { .. }
                | iim_persist::PersistError::Truncated { .. }
                | iim_persist::PersistError::Corrupt { .. }
        ),
        "{err:?}"
    );

    // Truncating *base* payload (before any delta) is likewise hard.
    assert!(iim_persist::load_from_slice_with_info(&bytes[..base_len - 3]).is_err());
    let _ = boundary;
}

#[test]
fn truncate_deltas_path_repairs_a_torn_file_for_future_appends() {
    let dir = std::env::temp_dir().join(format!("iim-crashrec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repair.iim");

    // A real file with one good record and a torn half-record tail.
    iim_persist::save_bytes_path(&path, &base_snapshot()).unwrap();
    iim_persist::append_delta_path(&path, &rec1()).unwrap();
    let good_len = std::fs::metadata(&path).unwrap().len();
    let torn = iim_persist::encode_delta(&rec2());
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(&torn[..torn.len() / 2]).unwrap();
    drop(f);

    // Loading recovers to the good prefix and reports where.
    let bytes = std::fs::read(&path).unwrap();
    let (_, info) = iim_persist::load_from_slice_with_info(&bytes).unwrap();
    assert_eq!(info.recovered_at, Some(good_len));

    // Repair, then append: the new record lands on a clean boundary and
    // the file loads with both records — and no recovery to report.
    iim_persist::truncate_deltas_path(&path, good_len).unwrap();
    iim_persist::append_delta_path(&path, &rec2()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let (model, info) = iim_persist::load_from_slice_with_info(&bytes).unwrap();
    assert_eq!(info.recovered_at, None);
    let mut both = rec1();
    both.extend(rec2());
    assert_eq!(fill_of(model.as_ref()), reference_fill(&both));

    // Truncation refuses to *extend* a file (that would fabricate bytes).
    let err = iim_persist::truncate_deltas_path(&path, 1 << 40);
    assert!(err.is_err());
    std::fs::remove_dir_all(&dir).ok();
}

/// Fault-injection suite: only meaningful with the fail points compiled
/// in (`cargo test --features faults --test crash_recovery`).
#[cfg(feature = "faults")]
mod faults {
    use super::*;
    use iim_faults::FaultAction;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::sync::Mutex;

    /// Fault activations are process-global; serialize the tests that
    /// arm them so one test's faults never fire in another.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        match SERIAL.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn a_partial_append_tears_the_tail_and_recovery_repairs_it() {
        let _g = lock();
        iim_faults::clear_all();
        let dir = std::env::temp_dir().join(format!("iim-crashrec-partial-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.iim");
        iim_persist::save_bytes_path(&path, &base_snapshot()).unwrap();
        iim_persist::append_delta_path(&path, &rec1()).unwrap();
        let good_len = std::fs::metadata(&path).unwrap().len();

        // The injected crash: the next append writes half a record and
        // fails — exactly the bytes a SIGKILL mid-write leaves behind.
        iim_faults::activate(
            "persist.append.partial_write",
            FaultAction::Partial,
            Some(1),
        );
        assert!(iim_persist::append_delta_path(&path, &rec2()).is_err());
        assert!(std::fs::metadata(&path).unwrap().len() > good_len);

        // Restart: load recovers the acked prefix, repair truncates the
        // damage, and the retried append then succeeds cleanly.
        let bytes = std::fs::read(&path).unwrap();
        let (model, info) = iim_persist::load_from_slice_with_info(&bytes).unwrap();
        assert_eq!(info.recovered_at, Some(good_len));
        assert_eq!(fill_of(model.as_ref()), reference_fill(&rec1()));
        iim_persist::truncate_deltas_path(&path, good_len).unwrap();
        iim_persist::append_delta_path(&path, &rec2()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let (_, info) = iim_persist::load_from_slice_with_info(&bytes).unwrap();
        assert_eq!(info.recovered_at, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_fsync_failure_surfaces_as_an_error_not_silent_loss() {
        let _g = lock();
        iim_faults::clear_all();
        let dir = std::env::temp_dir().join(format!("iim-crashrec-fsync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fsync.iim");

        // Durable save refuses to report success when fsync fails, and
        // the target name is never published (the temp never renamed).
        iim_faults::activate("persist.fsync.err", FaultAction::Err, Some(1));
        assert!(iim_persist::save_bytes_path(&path, &base_snapshot()).is_err());
        assert!(!path.exists(), "a failed durable save must not publish");

        // With the fault exhausted the same call succeeds, and an append
        // whose fsync fails reports the error while leaving the file
        // loadable (the record is either durable or reported lost).
        iim_persist::save_bytes_path(&path, &base_snapshot()).unwrap();
        iim_faults::activate("persist.fsync.err", FaultAction::Err, Some(1));
        assert!(iim_persist::append_delta_path(&path, &rec1()).is_err());
        let bytes = std::fs::read(&path).unwrap();
        assert!(iim_persist::load_from_slice_with_info(&bytes).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn http(addr: std::net::SocketAddr, request: &str) -> std::io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
        stream.write_all(request.as_bytes())?;
        stream.shutdown(std::net::Shutdown::Write)?;
        let mut out = String::new();
        stream.read_to_string(&mut out)?;
        Ok(out)
    }

    fn post_impute(addr: std::net::SocketAddr) -> std::io::Result<String> {
        let body = "A1,A2\n4.3,\n";
        http(
            addr,
            &format!(
                "POST /impute HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    #[test]
    fn a_hammered_daemon_under_faults_only_ever_answers_correctly() {
        let _g = lock();
        iim_faults::clear_all();
        let server = iim_serve::Server::bind(
            fitted(),
            &iim_serve::ServeConfig {
                addr: "127.0.0.1:0".into(),
                threads: 2,
                schema: vec!["A1".to_string(), "A2".to_string()],
                write_timeout: std::time::Duration::from_secs(5),
                ..Default::default()
            },
        )
        .unwrap();
        let handle = server.spawn().unwrap();
        let addr = handle.addr();
        let expected = format!("{}", f64::from_bits(reference_fill(&[])));

        // Drop some connections at accept and stall some writes; every
        // response that *completes* must still carry the reference fill.
        iim_faults::activate("serve.accept.err", FaultAction::Err, Some(3));
        iim_faults::activate("serve.write.stall", FaultAction::Stall, Some(5));
        let mut completed = 0;
        for _ in 0..20 {
            let Ok(resp) = post_impute(addr) else {
                continue; // the injected accept failure reset us
            };
            if resp.is_empty() {
                continue;
            }
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
            assert!(resp.contains(&expected), "wrong fill under faults: {resp}");
            completed += 1;
        }
        assert!(completed >= 10, "faults starved the hammer: {completed}/20");
        iim_faults::clear_all();
        handle.shutdown();
    }

    #[test]
    fn an_over_cap_connection_is_shed_with_retry_after() {
        let _g = lock();
        iim_faults::clear_all();
        let server = iim_serve::Server::bind(
            fitted(),
            &iim_serve::ServeConfig {
                addr: "127.0.0.1:0".into(),
                threads: 1,
                max_connections: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let handle = server.spawn().unwrap();
        let addr = handle.addr();

        // Hold one admitted keep-alive connection at the cap...
        let mut held = TcpStream::connect(addr).unwrap();
        held.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut buf = [0u8; 256];
        let n = held.read(&mut buf).unwrap();
        assert!(std::str::from_utf8(&buf[..n]).unwrap().contains("200 OK"));

        // ...then every further connection is shed, fast and explicitly.
        let resp = http(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        assert!(resp.contains("Retry-After: 1"), "{resp}");

        // Releasing the held connection frees the slot again.
        drop(held);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let resp = http(addr, "GET /info HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            if resp.starts_with("HTTP/1.1 200") {
                assert!(resp.contains("\"shed\":"), "{resp}");
                break;
            }
            assert!(std::time::Instant::now() < deadline, "slot never freed");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        handle.shutdown();
    }

    /// A hot swap that dies at any of its three stations — validation,
    /// the durable temp write, the barrier rename — must be a no-op:
    /// typed error to the caller, the old model still serving (memory
    /// *and* disk), and no temp-file litter. With the fault cleared, the
    /// very same stage succeeds and the new model takes over.
    #[test]
    fn a_failed_hot_swap_leaves_the_old_model_serving_and_no_litter() {
        let _g = lock();
        iim_faults::clear_all();
        let dir = std::env::temp_dir().join(format!("iim-crashrec-swap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let registry = iim_serve::Registry::open(iim_serve::RegistryConfig {
            dir: dir.clone(),
            ..Default::default()
        })
        .unwrap();

        // v1 = the base model; v2 = the same model plus rec1's tuples,
        // which changes the fill for QUERY — so "which version answered"
        // is observable from a single impute.
        let v1 = base_snapshot();
        let mut v2 = base_snapshot();
        v2.extend_from_slice(&iim_persist::encode_delta(&rec1()));
        let v1_fill = reference_fill(&[]);
        let v2_fill = reference_fill(&rec1());
        assert_ne!(v1_fill, v2_fill, "fixture must distinguish versions");

        registry.stage("m", &v1).unwrap();
        let header = vec!["A1".to_string(), "A2".to_string()];
        let fill = |registry: &iim_serve::Registry| -> u64 {
            let mut rows = iim_serve::QueryBlock::with_capacity(QUERY.len(), 1);
            rows.cells_mut().extend_from_slice(&QUERY);
            registry.impute_block("m", &header, rows).unwrap()[0]
                .as_ref()
                .expect("impute must keep serving")[1]
                .to_bits()
        };
        assert_eq!(fill(&registry), v1_fill);

        for point in [
            "registry.stage.validate",
            "registry.stage.temp_write",
            "registry.swap.rename",
        ] {
            iim_faults::activate(point, FaultAction::Err, Some(1));
            let err = registry.stage("m", &v2).expect_err(point);
            assert!(
                matches!(
                    err,
                    iim_serve::RegistryError::StageFailed(_) | iim_serve::RegistryError::Io(_)
                ),
                "{point}: unexpected error {err}"
            );
            // Old model keeps serving in memory...
            assert_eq!(fill(&registry), v1_fill, "{point}: in-memory model changed");
            // ...and on disk (a restart would still load v1)...
            let bytes = std::fs::read(dir.join("m.iim")).unwrap();
            let (model, _) = iim_persist::load_from_slice_with_info(&bytes).unwrap();
            assert_eq!(fill_of(model.as_ref()), v1_fill, "{point}: disk changed");
            // ...and the aborted stage leaves no temp file behind.
            assert!(
                !dir.join(".m.iim.tmp").exists(),
                "{point}: temp-file litter"
            );
        }

        // Faults exhausted: the identical stage now goes through whole.
        let outcome = registry.stage("m", &v2).unwrap();
        assert!(outcome.swapped, "tenant should be resident");
        assert_eq!(fill(&registry), v2_fill);
        let bytes = std::fs::read(dir.join("m.iim")).unwrap();
        let (model, _) = iim_persist::load_from_slice_with_info(&bytes).unwrap();
        assert_eq!(fill_of(model.as_ref()), v2_fill);

        registry.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
