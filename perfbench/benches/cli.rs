//! Driving the `barre` binary the way people use it: `trace`, `report`,
//! `sweep --supervise`, and a `serve` daemon with one closed-loop client
//! on one persistent connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// How long any single exchange with the daemon may take before the
/// benchmark gives up on it (the longest cold cell runs about a second).
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Runs `barre <args>` to completion; its stdout on success, or a
/// description of the failure (exit status and stderr tail).
pub fn run(bin: &Path, args: &[String]) -> Result<String, String> {
    let out = Command::new(bin)
        .args(args)
        .env("BARRE_LOG", "warn")
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    if out.status.success() {
        Ok(String::from_utf8_lossy(&out.stdout).into_owned())
    } else {
        let err = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = err.lines().rev().take(3).collect();
        Err(format!(
            "barre {} exited with {}: {}",
            args.join(" "),
            out.status,
            tail.join(" | ")
        ))
    }
}

/// The cycle count `barre trace` prints (`traced app/mode seed=N: C cycles, …`).
pub fn traced_cycles(out: &str) -> Option<u64> {
    let line = out.lines().find(|l| l.starts_with("traced "))?;
    let (_, rest) = line.split_once(": ")?;
    rest.split_whitespace().next()?.parse().ok()
}

/// A running `barre serve`; killed and reaped when dropped.
pub struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts the daemon on an ephemeral port with `workers` simulation
    /// workers and an empty result cache in `cache_dir`.
    pub fn start(bin: &Path, cache_dir: &Path, workers: usize) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--host", "127.0.0.1", "--port", "0", "--workers"])
            .arg(workers.to_string())
            .arg("--cache-dir")
            .arg(cache_dir)
            .env("BARRE_LOG", "warn")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start barre serve: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|s| BufReader::new(s).read_line(&mut line));
        let mut d = Daemon {
            child,
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("listening on ")) {
            (Some(Ok(_)), Some(addr)) => {
                d.addr = addr.to_string();
                Ok(d)
            }
            _ => Err(format!("barre serve did not start: {line:?}")),
        }
    }

    pub fn connect(&self) -> Result<Client, String> {
        let s =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream: s, reader })
    }

    /// `GET /stats` on the daemon's HTTP shim: the body.
    pub fn stats(&self) -> Result<String, String> {
        let mut s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.write_all(b"GET /stats HTTP/1.1\r\nHost: perfbench\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let mut doc = String::new();
        s.read_to_string(&mut doc).map_err(|e| e.to_string())?;
        let (head, body) = doc.split_once("\r\n\r\n").ok_or("no HTTP body")?;
        if !head.starts_with("HTTP/1.1 200") {
            return Err(format!("/stats answered {:?}", head.lines().next()));
        }
        Ok(body.to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One persistent JSONL connection to the daemon.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Sends one request line and waits for its response line.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        let mut msg = String::with_capacity(line.len() + 1);
        msg.push_str(line);
        msg.push('\n');
        self.stream
            .write_all(msg.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(resp.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Reads a `"key":value` scalar out of a one-line JSON document without
/// the program's own parser (the benchmark times that parser; it does
/// not rely on it to check outputs).
pub fn json_field<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = doc.find(&pat)? + pat.len();
    let rest = &doc[start..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// `(count, mean)` of the daemon's request-latency histogram in `/stats`.
pub fn stats_latency(body: &str) -> Option<(u64, f64)> {
    let lat = &body[body.find("\"latency_ms\":")?..];
    Some((
        json_field(lat, "count")?.parse().ok()?,
        json_field(lat, "mean")?.parse().ok()?,
    ))
}

/// A fresh, empty directory under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let d = root.join(name);
    if d.exists() {
        std::fs::remove_dir_all(&d).map_err(|e| format!("clear {}: {e}", d.display()))?;
    }
    std::fs::create_dir_all(&d).map_err(|e| format!("create {}: {e}", d.display()))?;
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_traced_cycles() {
        let out =
            "traced gups/F-Barre-2Merge seed=7: 2136215 cycles, 4 span(s) recorded\nstage ...";
        assert_eq!(traced_cycles(out), Some(2_136_215));
        assert_eq!(traced_cycles("nothing"), None);
    }

    #[test]
    fn reads_json_fields_and_stats() {
        let r =
            r#"{"status":"ok","fingerprint":"ab","digest":"00ff","metrics":{"total_cycles":5}}"#;
        assert_eq!(json_field(r, "status"), Some("ok"));
        assert_eq!(json_field(r, "digest"), Some("00ff"));
        assert_eq!(json_field(r, "total_cycles"), Some("5"));
        let s = r#"{"queue":{"depth":0},"latency_ms":{"count":9,"mean":0.111,"p50":0}}"#;
        assert_eq!(stats_latency(s), Some((9, 0.111)));
    }
}
