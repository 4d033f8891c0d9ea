//! The `seedbd` child process: launch with its default flags on an
//! ephemeral port, talk to it over HTTP, read its peak RSS, stop it.

use seedb_server::client;
use seedb_util::Json;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a launch may take to print its listening address.
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `seedbd`. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: String,
}

impl Daemon {
    /// Starts `seedbd` with its default flags (only the port differs:
    /// 0 lets the kernel pick a free one) and waits for its listening
    /// address on stderr.
    pub fn launch(binary: &str) -> Result<Daemon, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {binary}: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = std::sync::mpsc::channel();
        // The log pipe must keep draining for the daemon's whole life, or
        // the daemon blocks writing its request log.
        let drain = std::thread::spawn(move || {
            let mut reader = BufReader::new(stderr);
            let mut line = String::new();
            let mut sent = false;
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                if !sent {
                    if let Some(addr) = listening_addr(&line) {
                        let _ = tx.send(addr);
                        sent = true;
                    }
                }
                line.clear();
            }
            let _ = reader.read_to_end(&mut Vec::new());
        });
        let mut daemon = Daemon {
            child,
            drain: Some(drain),
            addr: String::new(),
        };
        match rx.recv_timeout(LAUNCH_TIMEOUT) {
            Ok(addr) => daemon.addr = addr,
            Err(_) => return Err("seedbd did not report a listening address".into()),
        }
        Ok(daemon)
    }

    /// One request; `(status, body, round trip)`.
    pub fn call(&self, method: &str, path: &str, body: Option<&str>) -> Reply {
        let start = Instant::now();
        let result = client::request(self.addr.as_str(), method, path, body);
        let rtt = start.elapsed();
        match result {
            Ok((status, body)) => Reply { status, body, rtt },
            Err(e) => Reply {
                status: 0,
                body: e.to_string(),
                rtt,
            },
        }
    }

    /// `GET /statz`, parsed.
    pub fn statz(&self) -> Result<Json, String> {
        let reply = self.call("GET", "/statz", None);
        if reply.status != 200 {
            return Err(format!("/statz: HTTP {} {}", reply.status, reply.body));
        }
        Json::parse(&reply.body)
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// A finished HTTP exchange. Status 0 means the request failed at the
/// transport level (the body then holds the error).
pub struct Reply {
    pub status: u16,
    pub body: String,
    pub rtt: Duration,
}

/// The address in seedbd's `listening` log line.
fn listening_addr(line: &str) -> Option<String> {
    let j = Json::parse(line.trim()).ok()?;
    if j.get("event").and_then(Json::as_str) != Some("listening") {
        return None;
    }
    j.get("addr").and_then(Json::as_str).map(str::to_owned)
}
