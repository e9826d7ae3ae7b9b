//! The daemon itself: accept loop, connection handlers, worker pool,
//! and the graceful-drain sequence.
//!
//! One thread per connection reads JSONL requests (or answers the HTTP
//! health shim); validated requests pass through cache → breaker →
//! admission queue to a fixed pool of worker threads, each of which
//! executes jobs in crash-isolated children (`barre run --metrics-json`)
//! under the per-request deadline with supervisor-style retry
//! classification. See the crate docs for the full request path.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::attempt::{backoff_delay, run_attempt};
use crate::breaker::CircuitBreaker;
use crate::cache::ResultCache;
use crate::http;
use crate::queue::{BoundedQueue, PushError};
use crate::request::{parse_request, render_ok, render_reject, render_shed, ValidRequest};
use crate::signal::{install_drain_handlers, shutting_down};
use crate::stats::{bump, Gauges, ServeStats};
use barre_obs::log as olog;
use barre_obs::Field;
use barre_system::{metrics_from_json, JournalEvent};

/// How the daemon runs: bind address, worker pool size, queue bound,
/// cache location, default deadline, retry budget, breaker threshold.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind host (default `127.0.0.1`).
    pub host: String,
    /// Bind port; `0` picks an ephemeral port (printed on stdout).
    pub port: u16,
    /// Worker threads; `None` resolves like the sweep pool
    /// (`BARRE_JOBS`, then all cores).
    pub workers: Option<usize>,
    /// Admission-queue capacity (requests beyond it are shed).
    pub queue_cap: usize,
    /// Directory holding the cache index journal.
    pub cache_dir: PathBuf,
    /// Default per-request wall-clock deadline (queue wait + attempts);
    /// requests may override with `timeout_ms`.
    pub timeout: Duration,
    /// Transient-failure retries per request (attempts = retries + 1).
    pub retries: u32,
    /// Circuit-breaker threshold: consecutive terminal failures before a
    /// fingerprint is quarantined (0 disables).
    pub breaker_threshold: u32,
    /// Structured-log sink (`--log-file`); `None` keeps stderr.
    pub log_file: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            host: "127.0.0.1".to_string(),
            port: 7341,
            workers: None,
            queue_cap: 64,
            cache_dir: PathBuf::from("serve-cache"),
            timeout: Duration::from_secs(60),
            retries: 1,
            breaker_threshold: 3,
            log_file: None,
        }
    }
}

/// One admitted request awaiting a worker.
struct Job {
    req: ValidRequest,
    enqueued: Instant,
    reply: mpsc::Sender<String>,
}

/// Everything the accept loop, connection threads, and workers share.
struct Shared {
    opts: ServeOptions,
    program: PathBuf,
    cache: ResultCache,
    breaker: CircuitBreaker,
    stats: ServeStats,
    queue: BoundedQueue<Job>,
    workers: usize,
}

impl Shared {
    fn stats_body(&self) -> String {
        self.stats.render(&Gauges {
            queue_depth: self.queue.depth(),
            queue_cap: self.queue.cap(),
            workers: self.workers,
            cache_entries: self.cache.len(),
            cache_evictions: self.cache.evictions(),
            breaker_open: self.breaker.open_count(),
            draining: shutting_down(),
        })
    }

    /// Deterministic-enough shed hint: queue residence estimate from the
    /// observed mean service time, capped at a minute.
    fn retry_after_ms(&self) -> u64 {
        let depth = self.queue.depth() as u64;
        let workers = self.workers.max(1) as u64;
        ((depth / workers) + 1)
            .saturating_mul(self.stats.mean_service_ms())
            .min(60_000)
    }

    fn metrics_body(&self) -> String {
        self.stats.render_prometheus(&Gauges {
            queue_depth: self.queue.depth(),
            queue_cap: self.queue.cap(),
            workers: self.workers,
            cache_entries: self.cache.len(),
            cache_evictions: self.cache.evictions(),
            breaker_open: self.breaker.open_count(),
            draining: shutting_down(),
        })
    }

    fn render_cached(&self, rec: &barre_system::JournalRecord, id: Option<&str>) -> String {
        match &rec.event {
            JournalEvent::Done {
                digest,
                hist_digest,
                metrics,
                ..
            } => render_ok(
                id,
                &rec.fingerprint,
                &rec.label,
                digest,
                hist_digest.as_deref().unwrap_or(""),
                &barre_system::metrics_to_json(metrics),
            ),
            // Unreachable for cache records; answer something sane.
            _ => render_reject(id, "error", 500, "cache record shape"),
        }
    }
}

/// Runs one admitted job to a terminal response: cache re-check, breaker
/// re-check, then child attempts under the request deadline with
/// supervisor retry classification.
fn execute_job(sh: &Shared, job: &Job) -> String {
    let req = &job.req;
    let id = req.id.as_deref();
    let fp = &req.fingerprint;
    // Duplicate requests admitted before the first finished: serve the
    // cached result the moment it exists.
    if let Some(rec) = sh.cache.get(fp) {
        bump(&sh.stats.cache_hits);
        return sh.render_cached(&rec, id);
    }
    if sh.breaker.is_open(fp) {
        bump(&sh.stats.quarantined);
        return render_reject(
            id,
            "quarantined",
            503,
            "fingerprint quarantined by circuit breaker",
        );
    }
    let budget = req
        .timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(sh.opts.timeout);
    let deadline = job.enqueued + budget;
    let max_attempts = sh.opts.retries.saturating_add(1);
    let mut attempt = 1u32;
    loop {
        let now = Instant::now();
        if now >= deadline {
            bump(&sh.stats.timeouts);
            sh.breaker.record_failure(fp);
            return render_reject(id, "timeout", 504, "deadline exceeded");
        }
        let remaining = deadline - now;
        let a = run_attempt(&sh.program, &req.child_args, Some(remaining));
        if a.exit == "ok" {
            let parsed = a
                .stdout
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .ok_or_else(|| "empty child output".to_string())
                .and_then(metrics_from_json);
            match parsed {
                Ok(metrics) => {
                    sh.breaker.record_success(fp);
                    bump(&sh.stats.ok_cold);
                    let rec = sh.cache.insert(fp, &req.label, metrics);
                    return sh.render_cached(&rec, id);
                }
                Err(why) => {
                    // Zero exit, unreadable metrics: protocol failure,
                    // retried like any transient fault.
                    if attempt < max_attempts {
                        bump(&sh.stats.retries);
                        let now = Instant::now();
                        if now < deadline {
                            std::thread::sleep(backoff_delay(attempt).min(deadline - now));
                        }
                        attempt += 1;
                        continue;
                    }
                    bump(&sh.stats.failed_transient);
                    sh.breaker.record_failure(fp);
                    return render_reject(id, "failed", 500, &format!("badoutput:{why}"));
                }
            }
        }
        if a.exit == "timeout" {
            bump(&sh.stats.timeouts);
            sh.breaker.record_failure(fp);
            return render_reject(id, "timeout", 504, "deadline exceeded");
        }
        let detail = a
            .stderr
            .lines()
            .find_map(|l| l.strip_prefix("error: "))
            .unwrap_or(&a.exit)
            .to_string();
        if !a.transient {
            bump(&sh.stats.failed_permanent);
            sh.breaker.record_failure(fp);
            return render_reject(id, "failed", 422, &format!("{} ({})", detail, a.exit));
        }
        if attempt < max_attempts {
            bump(&sh.stats.retries);
            let now = Instant::now();
            if now < deadline {
                std::thread::sleep(backoff_delay(attempt).min(deadline - now));
            }
            attempt += 1;
            continue;
        }
        bump(&sh.stats.failed_transient);
        sh.breaker.record_failure(fp);
        return render_reject(id, "failed", 500, &format!("{} ({})", detail, a.exit));
    }
}

fn worker_loop(sh: &Shared) {
    while let Some(job) = sh.queue.pop() {
        let resp = execute_job(sh, &job);
        // A vanished requester (dropped connection) is not an error.
        let _ = job.reply.send(resp);
    }
}

/// Handles one JSONL request line end-to-end, returning the response.
fn handle_request_line(sh: &Shared, line: &str) -> String {
    bump(&sh.stats.received);
    let req = match parse_request(line) {
        Ok(r) => r,
        Err(why) => {
            bump(&sh.stats.invalid);
            return render_reject(None, "error", 400, &why);
        }
    };
    let id = req.id.clone();
    let id = id.as_deref();
    if sh.breaker.is_open(&req.fingerprint) {
        bump(&sh.stats.quarantined);
        return render_reject(
            id,
            "quarantined",
            503,
            "fingerprint quarantined by circuit breaker",
        );
    }
    if let Some(rec) = sh.cache.get(&req.fingerprint) {
        bump(&sh.stats.cache_hits);
        return sh.render_cached(&rec, id);
    }
    if shutting_down() {
        bump(&sh.stats.rejected_draining);
        return render_reject(id, "draining", 503, "daemon is draining");
    }
    let (tx, rx) = mpsc::channel();
    let job = Job {
        req,
        enqueued: Instant::now(),
        reply: tx,
    };
    match sh.queue.push(job) {
        Ok(depth) => sh.stats.record_depth(depth as u64),
        Err(PushError::Full(job)) => {
            bump(&sh.stats.shed);
            return render_shed(job.req.id.as_deref(), sh.retry_after_ms());
        }
        Err(PushError::Closed(job)) => {
            bump(&sh.stats.rejected_draining);
            return render_reject(job.req.id.as_deref(), "draining", 503, "daemon is draining");
        }
    }
    // The worker always sends exactly one response per admitted job; a
    // recv error means the worker pool died, which only happens when the
    // process is being torn down anyway.
    rx.recv()
        .unwrap_or_else(|_| render_reject(id, "error", 500, "worker pool unavailable"))
}

/// Streams one completed request's trace summary as a debug-level
/// structured log event — the fields a fleet dashboard tails: status,
/// fingerprint, and wall-clock latency. The response line is already
/// canonical JSON, so the fields are read back out of it rather than
/// threaded through every return path of [`handle_request_line`].
fn log_request_summary(resp: &str, ms: u64) {
    if !olog::enabled(olog::Level::Debug) {
        return;
    }
    let parsed = barre_trace::json::Json::parse(resp);
    let field = |k: &str| {
        parsed
            .as_ref()
            .ok()
            .and_then(|v| v.get(k))
            .and_then(barre_trace::json::Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    let (status, fp) = (field("status"), field("fingerprint"));
    olog::debug(
        "serve",
        "request",
        &[
            ("fp", Field::S(&fp)),
            ("status", Field::S(&status)),
            ("ms", Field::U(ms)),
        ],
        &format!("request {status} in {ms}ms"),
    );
}

/// One connection, timing and logging every request it answers.
fn handle_conn(sh: &Shared, stream: TcpStream) {
    http::serve_conn(
        stream,
        |line| {
            let started = Instant::now();
            let resp = handle_request_line(sh, line);
            let ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
            sh.stats.record_latency_ms(ms);
            log_request_summary(&resp, ms);
            Some(resp)
        },
        || sh.stats_body(),
        || sh.metrics_body(),
    );
}

/// Runs the daemon until a drain signal, then drains and exits.
/// Returns the process exit code: 0 after a graceful drain, 1 on a
/// startup or flush failure.
pub fn run_serve(opts: &ServeOptions) -> i32 {
    install_drain_handlers();
    if let Some(path) = &opts.log_file {
        if let Err(why) = olog::set_log_file(path) {
            olog::error("serve", "log_file_failed", &[], &format!("error: {why}"));
            return 1;
        }
    }
    let (cache, warm) = match ResultCache::open(&opts.cache_dir) {
        Ok(c) => c,
        Err(e) => {
            olog::error(
                "serve",
                "cache_open_failed",
                &[],
                &format!(
                    "error: cannot open cache at {}: {e}",
                    opts.cache_dir.display()
                ),
            );
            return 1;
        }
    };
    if warm.loaded > 0 || warm.skipped_lines > 0 || warm.evicted > 0 {
        olog::info(
            "serve",
            "cache_warm_loaded",
            &[
                ("loaded", Field::U(warm.loaded as u64)),
                ("skipped", Field::U(warm.skipped_lines as u64)),
                ("evicted", Field::U(warm.evicted as u64)),
            ],
            &format!(
                "cache: warm-loaded {} entr{} ({} line(s) skipped, {} evicted by digest)",
                warm.loaded,
                if warm.loaded == 1 { "y" } else { "ies" },
                warm.skipped_lines,
                warm.evicted
            ),
        );
    }
    let program = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            olog::error(
                "serve",
                "startup_failed",
                &[],
                &format!("error: cannot resolve own binary: {e}"),
            );
            return 1;
        }
    };
    let listener = match TcpListener::bind((opts.host.as_str(), opts.port)) {
        Ok(l) => l,
        Err(e) => {
            olog::error(
                "serve",
                "bind_failed",
                &[],
                &format!("error: cannot bind {}:{}: {e}", opts.host, opts.port),
            );
            return 1;
        }
    };
    let addr = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            olog::error(
                "serve",
                "startup_failed",
                &[],
                &format!("error: cannot resolve bound address: {e}"),
            );
            return 1;
        }
    };
    if listener.set_nonblocking(true).is_err() {
        olog::error(
            "serve",
            "startup_failed",
            &[],
            "error: cannot set listener nonblocking",
        );
        return 1;
    }
    let workers = barre_sim::pool::resolve_jobs(opts.workers);
    let sh = Arc::new(Shared {
        opts: opts.clone(),
        program,
        cache,
        breaker: CircuitBreaker::new(opts.breaker_threshold),
        stats: ServeStats::new(),
        queue: BoundedQueue::new(opts.queue_cap),
        workers,
    });
    let mut worker_handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        let sh = Arc::clone(&sh);
        worker_handles.push(std::thread::spawn(move || worker_loop(&sh)));
    }
    // The startup handshake scripts and tests key on: the actual bound
    // address (which resolves `--port 0`), flushed before serving.
    println!("listening on {addr}");
    let _ = std::io::stdout().flush();

    let mut conn_handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let sh = Arc::clone(&sh);
                conn_handles.push(std::thread::spawn(move || handle_conn(&sh, stream)));
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
        // Reap finished connection threads so a long-lived daemon's
        // handle list stays proportional to live connections.
        conn_handles.retain(|h| !h.is_finished());
    }

    // Graceful drain: stop admitting (queue.close), let workers finish
    // what was admitted, let connection threads flush their responses,
    // then persist the compacted cache index.
    olog::info(
        "serve",
        "drain_begin",
        &[],
        "drain: signal received; finishing in-flight work",
    );
    sh.queue.close();
    for h in worker_handles {
        let _ = h.join();
    }
    for h in conn_handles {
        let _ = h.join();
    }
    match sh.cache.flush_compacted() {
        Ok(n) => {
            olog::info(
                "serve",
                "drain_cache_flushed",
                &[("entries", Field::U(n as u64))],
                &format!(
                    "drain: cache index flushed ({n} entr{})",
                    if n == 1 { "y" } else { "ies" }
                ),
            );
            0
        }
        Err(e) => {
            olog::error(
                "serve",
                "cache_flush_failed",
                &[],
                &format!("error: cache flush failed: {e}"),
            );
            1
        }
    }
}
