//! **Snapshot + daemon baseline**: offline fit, snapshot save/load
//! latency, snapshot size, and served queries/sec through the real
//! `iim-serve` HTTP daemon, recorded to `bench_results/BENCH_serve.json`.
//!
//! Every cell asserts, in-bench, that the **loaded** snapshot serves
//! fills bitwise-identical to the in-process fitted model — the
//! `iim-persist` deployment contract — before any timing is recorded, so
//! a regression in fidelity fails the bench rather than skewing it.
//!
//! Two serving shapes are measured against the daemon:
//!
//! * `http_batch_qps` — client threads POST CSV batches (the bulk
//!   re-imputation shape); throughput amortizes HTTP parsing across rows.
//! * `http_single_us` / `http_single_p50_us` — one-row POSTs over a
//!   **persistent keep-alive connection** (the interactive shape): mean
//!   and median request→response latency with no per-request TCP setup,
//!   the honest floor of the daemon's hot path.
//!
//! ```text
//! cargo run -p iim-bench --release --bin serve_load [-- --quick --seed 42]
//! ```

use iim_bench::{Args, BenchResult, Table};
use iim_core::{AdaptiveConfig, Iim, IimConfig, Learning};
use iim_data::{Imputer, PerAttributeImputer, Relation, Schema};
use iim_serve::{ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write as _};
use std::net::TcpStream;
use std::time::Instant;

/// Linear-plus-noise training relation —
/// enough structure that fitted models are non-degenerate.
fn training_relation(n: usize, m: usize, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let x = i as f64 * 0.1;
            (0..m)
                .map(|j| x * (j + 1) as f64 * 0.3 + rng.gen_range(-0.5..0.5))
                .collect()
        })
        .collect();
    Relation::from_rows(Schema::anonymous(m), &rows)
}

/// Query rows in CSV form (header + rows, one missing attribute each) and
/// as parsed rows for the in-process reference.
fn query_batch(n_queries: usize, m: usize, seed: u64) -> (String, Vec<Vec<Option<f64>>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let names: Vec<String> = (1..=m).map(|j| format!("A{j}")).collect();
    let mut csv = names.join(",") + "\n";
    let mut rows = Vec::with_capacity(n_queries);
    for i in 0..n_queries {
        let hole = i % m;
        let row: Vec<Option<f64>> = (0..m)
            .map(|j| {
                if j == hole {
                    None
                } else {
                    Some((rng.gen_range(0.0..100.0f64) * 1e4).round() / 1e4)
                }
            })
            .collect();
        let line: Vec<String> = row
            .iter()
            .map(|c| c.map_or(String::new(), |v| format!("{v}")))
            .collect();
        csv.push_str(&line.join(","));
        csv.push('\n');
        rows.push(row);
    }
    (csv, rows)
}

/// A persistent keep-alive HTTP client: one TCP connection, many
/// requests, each response framed by its `Content-Length` (the daemon
/// keeps the connection open by default, so relying on server-close would
/// deadlock — and would also re-pay TCP setup per request).
struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect daemon");
        stream.set_nodelay(true).expect("nodelay");
        HttpClient {
            stream,
            buf: Vec::with_capacity(4096),
        }
    }

    /// One POST /impute over the persistent connection; returns the
    /// response body.
    fn post_impute(&mut self, body: &str) -> String {
        write!(
            self.stream,
            "POST /impute HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send request");
        self.read_response()
    }

    /// Reads exactly one Content-Length-framed response from the stream,
    /// carrying any over-read bytes to the next call.
    fn read_response(&mut self) -> String {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let mut chunk = [0u8; 4096];
            let got = self.stream.read(&mut chunk).expect("read response head");
            assert!(got > 0, "daemon closed mid-response");
            self.buf.extend_from_slice(&chunk[..got]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        assert!(
            head.starts_with("HTTP/1.1 200"),
            "non-200 from daemon: {}",
            head.lines().next().unwrap_or("<empty>")
        );
        let content_length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().expect("content-length value"))
            })
            .expect("response missing Content-Length");
        let mut body = self.buf.split_off(head_end);
        self.buf.clear();
        if body.len() > content_length {
            self.buf = body.split_off(content_length);
        } else {
            let base = body.len();
            body.resize(content_length, 0);
            self.stream
                .read_exact(&mut body[base..])
                .expect("read response body");
        }
        String::from_utf8(body).expect("utf8 body")
    }
}

struct Cell {
    method: String,
    n: usize,
    offline_s: f64,
    save_s: f64,
    snapshot_bytes: usize,
    load_s: f64,
    http_batch_qps: f64,
    http_single_us: f64,
    http_single_p50_us: f64,
}

fn main() {
    let args = Args::parse();
    let m = 4usize;
    let (ns, n_queries, n_single, clients): (&[usize], usize, usize, usize) = if args.quick {
        (&[300], 120, 30, 2)
    } else {
        (&[1_000, 10_000], 2_000, 200, 4)
    };
    let methods: Vec<(&str, Box<dyn Imputer>)> = vec![
        (
            "IIM",
            Box::new(PerAttributeImputer::new(Iim::new(IimConfig {
                k: 10,
                learning: Learning::Adaptive(AdaptiveConfig {
                    step: 5,
                    ell_max: Some(200),
                    validation_k: Some(10),
                    ..AdaptiveConfig::default()
                }),
                ..IimConfig::default()
            }))),
        ),
        (
            "kNN",
            Box::new(PerAttributeImputer::new(iim_baselines::Knn::new(10))),
        ),
        ("SVD", Box::new(iim_baselines::SvdImpute::default())),
    ];

    let mut cells: Vec<Cell> = Vec::new();
    for &n in ns {
        let capped = args.n.map_or(n, |cap| n.min(cap));
        let rel = training_relation(capped, m, args.seed ^ capped as u64);
        let (csv_batch, query_rows) = query_batch(n_queries, m, args.seed.wrapping_add(99));
        for (name, method) in &methods {
            // Offline fit.
            let t0 = Instant::now();
            let fitted = method.fit(&rel).expect("fit");
            let offline_s = t0.elapsed().as_secs_f64();

            // Snapshot save / load.
            let t1 = Instant::now();
            let bytes = iim_persist::save_to_vec(fitted.as_ref()).expect("save snapshot");
            let save_s = t1.elapsed().as_secs_f64();
            let t2 = Instant::now();
            let loaded = iim_persist::load_from_slice(&bytes).expect("load snapshot");
            let load_s = t2.elapsed().as_secs_f64();

            // Fidelity gate: the loaded model must serve the same bits.
            for row in &query_rows {
                let a = fitted.impute_one(row).expect("serve fitted");
                let b = loaded.impute_one(row).expect("serve loaded");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{name}: loaded snapshot diverged from the fitted model"
                    );
                }
            }

            // Daemon throughput over the loaded snapshot.
            let server = Server::bind(
                loaded,
                &ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    threads: args.threads.unwrap_or(0),
                    ..ServeConfig::default()
                },
            )
            .expect("bind daemon");
            let addr = server.local_addr().expect("daemon addr");
            let handle = server.spawn().expect("spawn daemon");

            // Batched: `clients` threads each replay the whole batch once
            // over their own keep-alive connection.
            let t3 = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..clients {
                    scope.spawn(|| {
                        let mut client = HttpClient::connect(addr);
                        let body = client.post_impute(&csv_batch);
                        assert!(body.lines().count() > n_queries / 2);
                    });
                }
            });
            let batch_wall = t3.elapsed().as_secs_f64();
            let http_batch_qps = (n_queries * clients) as f64 / batch_wall.max(1e-12);

            // Single-tuple: sequential one-row POSTs down one persistent
            // connection, per-request latency recorded for mean and p50
            // (p50 ignores the occasional scheduler hiccup a 1-core box
            // injects into the mean). One warm-up request pays the lazy
            // costs (batcher thread wake, allocator warm-up) outside the
            // timed loop.
            let header = csv_batch.lines().next().expect("header");
            let single_bodies: Vec<String> = csv_batch
                .lines()
                .skip(1)
                .take(n_single)
                .map(|line| format!("{header}\n{line}\n"))
                .collect();
            let mut client = HttpClient::connect(addr);
            if let Some(body) = single_bodies.first() {
                client.post_impute(body);
            }
            let mut lat_us: Vec<f64> = Vec::with_capacity(single_bodies.len());
            for body in &single_bodies {
                let t4 = Instant::now();
                client.post_impute(body);
                lat_us.push(t4.elapsed().as_secs_f64() * 1e6);
            }
            let http_single_us = lat_us.iter().sum::<f64>() / lat_us.len().max(1) as f64;
            let mut sorted = lat_us.clone();
            sorted.sort_by(f64::total_cmp);
            let http_single_p50_us = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
            drop(client);

            handle.shutdown();
            eprintln!(
                "[serve_load] {name} n={capped}: offline {offline_s:.3}s, snapshot {} B \
                 (save {save_s:.4}s, load {load_s:.4}s), {http_batch_qps:.0} qps batched, \
                 {http_single_us:.0} us mean / {http_single_p50_us:.0} us p50 per keep-alive request",
                bytes.len(),
            );
            cells.push(Cell {
                method: name.to_string(),
                n: capped,
                offline_s,
                save_s,
                snapshot_bytes: bytes.len(),
                load_s,
                http_batch_qps,
                http_single_us,
                http_single_p50_us,
            });
        }
    }

    let mut table = Table::new(vec![
        "method",
        "n",
        "offline_s",
        "save_s",
        "snapshot_B",
        "load_s",
        "load_speedup",
        "batch_qps",
        "single_us",
        "single_p50_us",
    ]);
    let mut result = BenchResult::new("serve", 0, 1).with_note(&format!(
        "fit -> save -> load -> HTTP serve over iim-serve; loaded snapshots asserted \
         bitwise-identical to the fitted models before timing. load replaces the offline \
         phase on restart: load_s vs offline_s is the deploy-time win; qps measured against \
         the real daemon ({n_queries} queries x {clients} client threads) incl. HTTP + \
         micro-batching overhead; single-tuple latencies over one persistent keep-alive \
         connection.",
    ));
    for c in &cells {
        let speedup = c.offline_s / c.load_s.max(1e-12);
        table.push(vec![
            c.method.clone(),
            c.n.to_string(),
            Table::secs(c.offline_s),
            Table::secs(c.save_s),
            c.snapshot_bytes.to_string(),
            Table::secs(c.load_s),
            format!("{speedup:.0}x"),
            format!("{:.0}", c.http_batch_qps),
            format!("{:.0}", c.http_single_us),
            format!("{:.0}", c.http_single_p50_us),
        ]);
        result.push(
            iim_bench::Cell::new()
                .coord_str("method", &c.method)
                .coord_num("n", c.n as f64)
                .coord_num("m", m as f64)
                .metric("offline_s", vec![c.offline_s])
                .metric("save_s", vec![c.save_s])
                .metric("load_s", vec![c.load_s])
                .metric("snapshot_bytes", vec![c.snapshot_bytes as f64])
                .metric("http_batch_qps", vec![c.http_batch_qps])
                .metric("http_single_us", vec![c.http_single_us])
                .metric("http_single_p50_us", vec![c.http_single_p50_us]),
        );
    }
    let path = result.write_named().expect("write BENCH_serve.json");

    table.print("Snapshot + daemon baseline (loaded snapshots bitwise-identical to fitted models)");
    println!("wrote {}", path.display());
}
