//! A minimal hand-rolled HTTP/1.1 shim for the health endpoints.
//!
//! Just enough of the protocol for `curl`/load-balancer probes:
//! `GET /healthz` (always 200 while the process lives), `GET /readyz`
//! (503 once a drain starts), `GET /stats` (the counters JSON), and
//! `GET /metrics` (Prometheus text exposition, format 0.0.4). Every
//! response closes the connection; request headers are read and
//! discarded. Anything fancier belongs behind a real proxy.
//!
//! [`serve_conn`] runs one connection for either daemon: JSONL
//! request/response lines, or one HTTP exchange with this shim, told
//! apart by the first line.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::signal::shutting_down;

/// `Content-Type` for the JSON endpoints.
const CT_JSON: &str = "application/json";

/// `Content-Type` for `/metrics` (Prometheus text exposition).
const CT_METRICS: &str = barre_obs::metrics::CONTENT_TYPE;

/// One connection: JSONL request/response until EOF, or a single HTTP
/// exchange (closed after its response). `on_line` answers one request
/// line; `None` closes the connection without a reply. `stats_body` and
/// `metrics_body` render `/stats` and `/metrics` on demand. Read
/// timeouts keep the thread responsive to drain signals.
pub fn serve_conn(
    stream: TcpStream,
    mut on_line: impl FnMut(&str) -> Option<String>,
    stats_body: impl FnOnce() -> String,
    metrics_body: impl FnOnce() -> String,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let Ok(mut out) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    line.clear();
                    continue;
                }
                if looks_like_http(trimmed) {
                    let first = trimmed.to_string();
                    answer_http(&first, &mut reader, &mut out, stats_body, metrics_body);
                    return;
                }
                let Some(resp) = on_line(trimmed) else {
                    return;
                };
                line.clear();
                if write_line(&mut out, &resp).is_err() {
                    return;
                }
            }
            // Timeout with a partial line still buffered in `line`: keep
            // accumulating on the next pass.
            Err(e) if is_timeout(&e) => {
                if shutting_down() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Answers the HTTP shim for one already-read request line, discarding
/// headers, writing the response, and closing.
fn answer_http(
    first_line: &str,
    reader: &mut impl BufRead,
    out: &mut TcpStream,
    stats_body: impl FnOnce() -> String,
    metrics_body: impl FnOnce() -> String,
) {
    // Drain headers until the blank line (bounded; clients are trusted
    // probes, not adversaries, but don't loop forever).
    let mut line = String::new();
    for _ in 0..128 {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim().is_empty() => break,
            Ok(_) => {}
            Err(e) if is_timeout(&e) => continue,
            Err(_) => return,
        }
    }
    let (code, reason, content_type, body) = match parse_request_line(first_line) {
        Some((method, path)) => route(method, path, shutting_down(), stats_body, metrics_body),
        None => (
            400,
            "Bad Request",
            CT_JSON,
            "{\"error\":\"bad request\"}".to_string(),
        ),
    };
    let _ = out.write_all(render_http(code, reason, content_type, &body).as_bytes());
    let _ = out.flush();
}

/// Sends one JSONL line: `line` and its `\n` in a single `write_all`,
/// then a flush. Writing the newline separately would make it a second
/// small TCP segment, which waits on the peer's delayed ACK (~40 ms).
///
/// # Errors
///
/// The socket's write or flush error.
pub fn write_line(out: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    out.write_all(buf.as_bytes())?;
    out.flush()
}

/// Splits an HTTP request line (`"GET /stats HTTP/1.1"`) into method and
/// path; `None` when it isn't one.
fn parse_request_line(line: &str) -> Option<(&str, &str)> {
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/") {
        return None;
    }
    Some((method, path))
}

/// Whether a protocol line opens an HTTP exchange (vs a JSONL request).
fn looks_like_http(line: &str) -> bool {
    line.starts_with("GET ") || line.starts_with("HEAD ") || line.starts_with("POST ")
}

/// Renders a complete HTTP/1.1 response with the given `Content-Type`.
fn render_http(code: u16, reason: &str, content_type: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Routes a health-endpoint path to `(code, reason, content_type,
/// body)`. `stats_body` and `metrics_body` are rendered lazily — only
/// the endpoint asked for pays for its snapshot.
fn route(
    method: &str,
    path: &str,
    draining: bool,
    stats_body: impl FnOnce() -> String,
    metrics_body: impl FnOnce() -> String,
) -> (u16, &'static str, &'static str, String) {
    if method != "GET" && method != "HEAD" {
        return (
            405,
            "Method Not Allowed",
            CT_JSON,
            "{\"error\":\"method not allowed\"}".to_string(),
        );
    }
    match path {
        "/healthz" => (200, "OK", CT_JSON, "{\"status\":\"ok\"}".to_string()),
        "/readyz" => {
            if draining {
                (
                    503,
                    "Service Unavailable",
                    CT_JSON,
                    "{\"ready\":false,\"reason\":\"draining\"}".to_string(),
                )
            } else {
                (200, "OK", CT_JSON, "{\"ready\":true}".to_string())
            }
        }
        "/stats" => (200, "OK", CT_JSON, stats_body()),
        "/metrics" => (200, "OK", CT_METRICS, metrics_body()),
        _ => (
            404,
            "Not Found",
            CT_JSON,
            "{\"error\":\"not found\"}".to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse() {
        assert_eq!(
            parse_request_line("GET /healthz HTTP/1.1"),
            Some(("GET", "/healthz"))
        );
        assert_eq!(parse_request_line("{\"app\":\"gups\"}"), None);
        assert!(looks_like_http("GET /stats HTTP/1.1"));
        assert!(!looks_like_http("{\"app\":\"gups\"}"));
    }

    #[test]
    fn routes_cover_health_ready_stats_metrics() {
        let none = String::new;
        let (code, _, ct, body) = route("GET", "/healthz", true, none, none);
        assert_eq!((code, ct, body.contains("ok")), (200, CT_JSON, true));
        let (code, _, _, _) = route("GET", "/readyz", false, none, none);
        assert_eq!(code, 200);
        let (code, _, _, body) = route("GET", "/readyz", true, none, none);
        assert_eq!((code, body.contains("draining")), (503, true));
        let (code, _, ct, body) = route("GET", "/stats", false, || "{\"x\":1}".to_string(), none);
        assert_eq!((code, ct, body.as_str()), (200, CT_JSON, "{\"x\":1}"));
        let (code, _, ct, body) = route("GET", "/metrics", false, none, || {
            "# HELP x y\n".to_string()
        });
        assert_eq!(
            (code, ct, body.as_str()),
            (200, "text/plain; version=0.0.4", "# HELP x y\n")
        );
        let (code, _, _, _) = route("GET", "/nope", false, none, none);
        assert_eq!(code, 404);
        let (code, _, _, _) = route("PUT", "/healthz", false, none, none);
        assert_eq!(code, 405);
    }

    #[test]
    fn responses_carry_content_length_and_type() {
        let r = render_http(200, "OK", CT_JSON, "{\"a\":1}");
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(r.contains("Content-Type: application/json\r\n"));
        assert!(r.contains("Content-Length: 7\r\n"));
        assert!(r.ends_with("{\"a\":1}"));
        let m = render_http(200, "OK", CT_METRICS, "x 1\n");
        assert!(m.contains("Content-Type: text/plain; version=0.0.4\r\n"));
    }
}
