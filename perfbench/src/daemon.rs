//! Runs the shipped `iim serve` binary as a child process.

use crate::client::Client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the daemon may take to print its address.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<Vec<String>>>,
}

impl Daemon {
    /// Starts `iim serve ARGS... --addr 127.0.0.1:0` and waits until it
    /// answers `GET /healthz`.
    pub fn start(iim: &Path, args: &[String]) -> Result<Self, String> {
        let mut child = Command::new(iim)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", iim.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = std::sync::mpsc::channel::<String>();
        // The reader thread forwards the first line naming the address,
        // then keeps draining so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut lines = Vec::new();
            let mut sent = false;
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if !sent && line.contains(" on http://") {
                    let _ = tx.send(line.clone());
                    sent = true;
                }
                lines.push(line);
            }
            lines
        });
        let mut daemon = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            drain: Some(drain),
        };
        let line = rx.recv_timeout(START_TIMEOUT).map_err(|_| {
            let log = daemon.stop();
            format!("daemon did not start: {}", log.join(" | "))
        })?;
        daemon.addr = line
            .split(" on http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("cannot parse daemon address from {line:?}"))?;
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let healthy = Client::connect(daemon.addr)
                .and_then(|mut c| c.get("/healthz"))
                .is_ok_and(|r| r.status == 200);
            if healthy {
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                return Err("daemon never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Kills the daemon, waits for it, and returns its stderr lines.
    pub fn stop(&mut self) -> Vec<String> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.drain
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}
