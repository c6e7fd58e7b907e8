//! The benchmark's own tests: its checks must catch what they claim to.

use crate::bulk_learn::{batch_body, replay_check, BatchObs, Replay, SingleObs};
use crate::checks::{durability, fnv64};
use crate::client::post_bytes;
use crate::interactive::WINDOWS;
use crate::loadgen::{closed_loop, finish_phases, open_loop, prepare, Phase, Prepared};
use crate::report::Outcome;
use crate::tenant;
use iim_data::FittedImputer;
use iim_exec::Pool;
use iim_serve::{ServeConfig, Server};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Duration;

const M: usize = 4;

/// A small fitted tenant and its snapshot.
fn tiny_tenant() -> (Box<dyn FittedImputer>, Vec<u8>) {
    let rel = tenant::relation(1, 300, M);
    let fitted = tenant::fit(&rel).expect("fit");
    let snapshot = tenant::snapshot(&*fitted, &tenant::names(M)).expect("snapshot");
    (fitted, snapshot)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn a_corrupted_reference_byte_fails_the_interactive_check() {
    let (fitted, snapshot) = tiny_tenant();
    let names = tenant::names(M);
    let server = Server::bind(
        iim_persist::load_from_slice(&snapshot).expect("load"),
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            schema: names.clone(),
            ..ServeConfig::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let queries = tenant::queries(1, 1, M, 16);
    let reqs = prepare(&*fitted, &names, "/impute", &queries).expect("prepare");
    let clean =
        closed_loop(server.addr(), &reqs, Duration::from_millis(100), 2).expect("clean run");
    assert!(clean.succeeded >= 16 && clean.failed == 0);
    assert!(clean.wrong.is_none(), "{:?}", clean.wrong);
    finish_phases(&mut Outcome::default(), &[("clean", clean)]).expect("clean references pass");

    let mut corrupted = reqs;
    let last_digit = corrupted[5].expected.len() - 2;
    corrupted[5].expected[last_digit] ^= 1;
    let phase = closed_loop(server.addr(), &corrupted, Duration::from_millis(100), 2).expect("run");
    assert!(
        phase.wrong.is_some(),
        "a one-byte difference must be caught"
    );
    assert!(finish_phases(&mut Outcome::default(), &[("corrupted", phase)]).is_err());
    server.shutdown();
}

/// A server that answers every request on `conns` connections with a
/// `503` refusal, as the daemon does when its queue is full.
fn refusing_server(conns: usize) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        std::thread::scope(|s| {
            for _ in 0..conns {
                let (mut stream, _) = listener.accept().expect("accept");
                s.spawn(move || {
                    let mut reader = iim_serve::http::RequestReader::new();
                    while let Ok(Some(_)) = reader.read_request(&mut stream) {
                        let mut out = Vec::new();
                        iim_serve::http::write_response(
                            &mut out,
                            503,
                            "Service Unavailable",
                            "text/plain",
                            true,
                            &[("Retry-After", "1")],
                            b"overloaded\n",
                        );
                        if std::io::Write::write_all(&mut stream, &out).is_err() {
                            break;
                        }
                    }
                });
            }
        });
    });
    (addr, handle)
}

#[test]
fn a_refused_request_counts_as_failed_and_is_not_skipped() {
    let (addr, server) = refusing_server(2);
    let body = b"A1,A2\n1,\n".to_vec();
    let reqs = vec![Prepared {
        bytes: post_bytes("/impute", &body),
        expected: b"A1,A2\n1,2\n".to_vec(),
    }];
    let (phase, _) =
        open_loop(addr, &reqs, 2_000.0, Duration::from_millis(50), 2, None).expect("run");
    server.join().expect("refusing server");
    assert_eq!(phase.sent, 100, "every scheduled request is sent");
    assert_eq!(phase.failed, phase.sent);
    assert_eq!(phase.succeeded, 0);
    assert!(
        phase.wrong.is_none(),
        "a refusal is a failure, not a wrong answer"
    );
    let p50 = phase.windowed_quantile(WINDOWS, 0.5);
    let mut out = Outcome::default();
    finish_phases(&mut out, &[("refused", phase)]).expect("refusals are not wrong answers");
    assert_eq!((out.attempted, out.failed), (100, 100));
    assert_eq!(out.fail_frac(), 1.0);
    for &(name, unit) in crate::report::END_TO_END {
        out.metric(name, if name == "p50_us" { p50 } else { 1.0 }, unit);
    }
    let refused = out
        .validate(false)
        .expect_err("no latency is reported from refused requests");
    assert!(refused.contains("p50_us"), "{refused}");
}

#[test]
fn appended_segments_continue_one_timeline() {
    let segment = |latency: f64| Phase {
        sent: 2,
        succeeded: 2,
        latencies_us: vec![latency; 2],
        at_s: vec![0.2, 0.7],
        elapsed: Duration::from_secs(1),
        ..Phase::default()
    };
    let mut phase = Phase::default();
    phase.append(segment(10.0));
    phase.append(segment(30.0));
    assert_eq!(phase.at_s, [0.2, 0.7, 1.2, 1.7]);
    assert_eq!(phase.elapsed, Duration::from_secs(2));
    assert_eq!((phase.sent, phase.succeeded), (4, 4));
    // One slice per segment: the slice medians are 10 and 30.
    assert_eq!(phase.windowed_quantile(2, 0.5), 20.0);
    assert_eq!(phase.windowed_rate(2), 2.0);
}

#[test]
fn a_dropped_learn_fails_the_durability_check() {
    let (_, snapshot) = tiny_tenant();
    let dir = scratch_dir("durability");
    let path = dir.join("tenant.iim");
    iim_persist::save_bytes_path(&path, &snapshot).expect("save");
    let learns = tenant::learn_rows(1, 5, M, 3);
    // Three learns acknowledged, but only two reached the snapshot.
    for row in &learns[..2] {
        iim_persist::append_delta_path(&path, std::slice::from_ref(row)).expect("append");
    }
    assert!(durability(&path, 3, 0).is_err());
    assert_eq!(durability(&path, 2, 0), Ok(2));
    assert_eq!(
        durability(&path, 1, 1),
        Ok(2),
        "one learn in doubt may have landed"
    );
    std::fs::remove_dir_all(dir).expect("cleanup");
}

#[test]
fn replay_check_places_each_batch_in_its_window() {
    let (_, snapshot) = tiny_tenant();
    let names = tenant::names(M);
    let header = names.join(",");
    let batch = tenant::queries(1, 3, M, 8);
    // Each learned tuple sits on a batch query (its missing cell set far
    // off), so every absorb moves that query's fill.
    let learns: Vec<Vec<f64>> = batch[..3]
        .iter()
        .map(|q| q.iter().map(|c| c.unwrap_or(500.0)).collect())
        .collect();
    // The single query is batch query 1, which learn 1 moves.
    let singles = batch[1..2].to_vec();
    let rows: Vec<&[Option<f64>]> = batch.iter().map(Vec::as_slice).collect();
    let pool = Pool::new(1);
    let mut model = iim_persist::load_from_slice(&snapshot).expect("load");
    let mut at = Vec::new();
    let mut single_at = Vec::new();
    for row in &learns {
        at.push(batch_body(&*model, &header, &rows, &pool).expect("batch"));
        let body = tenant::expected_body(&*model, &names, std::slice::from_ref(&singles[0]))
            .expect("single");
        single_at.push(fnv64(&body));
        model.absorb(row).expect("absorb");
    }
    at.push(batch_body(&*model, &header, &rows, &pool).expect("batch"));
    assert!(
        at.windows(2).all(|w| w[0] != w[1]),
        "each absorb changes the batch"
    );
    let batches = vec![
        BatchObs {
            lo: 0,
            hi: 2,
            hash: at[2],
        },
        BatchObs {
            lo: 1,
            hi: 1,
            hash: at[1],
        },
        BatchObs {
            lo: 3,
            hi: 3,
            hash: at[3],
        },
    ];
    let ok_single = vec![SingleObs {
        state: 1,
        query: 0,
        hash: single_at[1],
    }];
    let replay = Replay {
        base: &snapshot,
        names: &names,
        learns: &learns,
        batch: &batch,
        singles: &singles,
        threads: 1,
    };
    replay_check(&replay, &batches, &ok_single).expect("consistent run");

    let outside = vec![BatchObs {
        lo: 0,
        hi: 1,
        hash: at[2],
    }];
    assert!(replay_check(&replay, &outside, &[]).is_err());
    let stale_single = vec![SingleObs {
        state: 2,
        query: 0,
        hash: single_at[1],
    }];
    assert!(replay_check(&replay, &[], &stale_single).is_err());
}

#[test]
fn the_reported_metrics_are_the_declared_ones() {
    use crate::report::{END_TO_END, PER_LAYER};
    use iim_bench::json::Json;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let spec = Json::parse(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(END_TO_END));
    assert_eq!(listed("per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, ["interactive", "offline_fit"]);
}
