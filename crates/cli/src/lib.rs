//! Argument parsing and command dispatch for the `barre` CLI.
//!
//! The binary front end for the Barre Chord model: list the workloads,
//! run one experiment, or sweep every application under a translation
//! mode — without writing any Rust. Kept dependency-free (hand-rolled
//! parsing) so the workspace stays within its offline crate budget.
//!
//! ```text
//! barre list
//! barre table2 [--paper]
//! barre run   --app gups --mode fbarre [--seed 7] [--ptws 8] [--paper]
//! barre sweep --mode barre [--apps gups,spmv] [--policy coda]
//! barre pair  --a gemv --b gups --mode fbarre
//! barre chaos --app gups --mode barre [--rates 0.001,0.01,0.05]
//! barre bench [--json] [--quick] [--jobs 8] [--out BENCH_sweep.json]
//! barre merge --out merged shard-a/ shard-b/ [BENCH_a.json ...]
//! ```
//!
//! Sweep-shaped commands (`sweep`, `chaos`, `bench`) fan their
//! independent runs across the `barre_sim::pool` worker pool; `--jobs 1`
//! (or `BARRE_JOBS=1`) forces the serial path and produces identical
//! output.
//!
//! With `--supervise` (or any of `--journal`, `--resume`, `--timeout`,
//! `--retries`), `sweep` and `chaos` instead run every job in a
//! crash-isolated child process — see [`supervisor`] — journaling each
//! transition so an interrupted campaign resumes with byte-identical
//! output.

use barre_obs::log as olog;
use barre_obs::Field;
use barre_system::{
    chaos_jobs, run_app, run_batch, run_pair, run_spec, speedup, summary_line, sweep_jobs,
    BatchJob, LabeledJob, MmuKind, RunMetrics, SimError, SystemConfig, TranslationMode,
};
use barre_workloads::{AppId, AppPair};

// Request-vocabulary helpers live with the daemon's validator so the CLI
// and `barre serve` resolve names identically; re-exported here for the
// existing callers.
pub use barre_serve::request::{app_by_name, mode_by_name, page_size_by_name, policy_by_name};

pub mod lint_cmd;
pub mod supervisor;
pub mod trace_cmd;

/// A parsed CLI invocation.
#[derive(Debug, Clone)]
pub enum Command {
    /// `barre list` — print the workload table.
    List,
    /// `barre table2` — print the active configuration.
    Table2 { cfg: Box<SystemConfig> },
    /// `barre run` — run one app under one mode, print a summary line.
    Run {
        app: AppId,
        cfg: Box<SystemConfig>,
        seed: u64,
        baseline: bool,
        /// Print only the canonical metrics JSON line (the `barre serve`
        /// child protocol); failures exit with [`SimError::exit_code`].
        metrics_json: bool,
    },
    /// `barre sweep` — run a set of apps, print speedups vs baseline.
    Sweep {
        apps: Vec<AppId>,
        cfg: Box<SystemConfig>,
        seed: u64,
        jobs: Option<usize>,
        /// Crash-isolated supervision (`--supervise` and friends).
        sup: Option<supervisor::SuperviseOpts>,
        /// Remote dispatch through a `barre queue` coordinator
        /// (`--dispatch host:port`).
        dispatch: Option<DispatchOpts>,
        /// Hidden child mode: run exactly this job of the sweep's job
        /// list and print its metrics as canonical JSON.
        job_index: Option<usize>,
    },
    /// `barre pair` — co-run two apps (§VII-I).
    Pair {
        pair: AppPair,
        cfg: Box<SystemConfig>,
        seed: u64,
    },
    /// `barre chaos` — sweep ATS fault-injection rates for one app.
    Chaos {
        app: AppId,
        cfg: Box<SystemConfig>,
        seed: u64,
        rates: Vec<f64>,
        jobs: Option<usize>,
        /// Crash-isolated supervision (`--supervise` and friends).
        sup: Option<supervisor::SuperviseOpts>,
        /// Remote dispatch through a `barre queue` coordinator
        /// (`--dispatch host:port`).
        dispatch: Option<DispatchOpts>,
        /// Hidden child mode (see [`Command::Sweep::job_index`]).
        job_index: Option<usize>,
    },
    /// `barre merge` — fold per-shard journals and `BENCH_sweep.json`
    /// fragments into one trajectory, detecting digest conflicts.
    Merge {
        out: std::path::PathBuf,
        inputs: Vec<std::path::PathBuf>,
    },
    /// `barre bench` — timed smoke sweep with serial/parallel cross-check.
    Bench {
        quick: bool,
        json: bool,
        jobs: Option<usize>,
        out: std::path::PathBuf,
        /// `--gate <ratio>`: exit nonzero when any mode is more than
        /// `ratio` times slower than the same app's baseline.
        gate: Option<f64>,
    },
    /// `barre lint` — run the determinism & panic-safety analyzer.
    Lint { opts: lint_cmd::LintOpts },
    /// `barre trace` — run one app with the lifecycle tracer and export
    /// the trace (Chrome-trace JSON, or JSONL when `--out` ends in
    /// `.jsonl`).
    Trace {
        app: AppId,
        cfg: Box<SystemConfig>,
        seed: u64,
        out: std::path::PathBuf,
        opts: barre_trace::TraceOptions,
    },
    /// `barre report` — print per-stage latency percentiles and the
    /// slowest journeys of a trace export (or summarize a journal).
    Report {
        input: std::path::PathBuf,
        top: usize,
    },
    /// `barre report --fleet` — stitch per-process fleet-trace files
    /// (`BARRE_FLEET_TRACE`) from a distributed sweep into one
    /// Perfetto/Chrome-trace timeline keyed by correlation id.
    FleetReport {
        dirs: Vec<std::path::PathBuf>,
        out: Option<std::path::PathBuf>,
    },
    /// `barre report --bench-diff` — compare two `BENCH_sweep.json`
    /// documents cell by cell and flag throughput regressions.
    BenchDiff {
        old: std::path::PathBuf,
        new: std::path::PathBuf,
        threshold: f64,
    },
    /// `barre serve` — long-running simulation daemon (JSONL over TCP
    /// plus an HTTP health shim); see [`barre_serve`].
    Serve {
        opts: Box<barre_serve::ServeOptions>,
    },
    /// `barre queue` — lease-based shared job-queue coordinator for
    /// multi-node sweeps; see [`barre_serve::jobq`].
    Queue {
        opts: Box<barre_serve::jobq::QueueOptions>,
    },
    /// `barre worker` — pull jobs from a queue coordinator under
    /// time-bounded leases and execute them in crash-isolated children.
    Worker {
        opts: Box<barre_serve::jobq::WorkerOptions>,
    },
    /// `barre help`.
    Help,
}

/// How a dispatched sweep reaches its coordinator: address, client-side
/// journal location, and the child argument list job fingerprints (and
/// worker re-execution) are derived from — the same derivation the
/// supervisor uses, so serial and dispatched runs of one command line
/// agree on every fingerprint.
#[derive(Debug, Clone)]
pub struct DispatchOpts {
    /// Coordinator address (`host:port`).
    pub addr: String,
    /// Where to write the terminal records, in job order (same default
    /// as the supervisor's journal).
    pub journal: std::path::PathBuf,
    /// Base argument list for remote children (supervisor/dispatch
    /// flags stripped); workers append `--job-index <i>`.
    pub child_args: Vec<String>,
}

/// Errors produced while parsing arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

/// Default `--gate` ratio: no mode may run more than this many times
/// slower than the same app's baseline (the ISSUE-8 perf contract).
pub const DEFAULT_BENCH_GATE: f64 = 5.0;

/// Default `--bench-diff` regression threshold. Wall-clock comparisons
/// across CI runs are noisy, so the default is deliberately generous;
/// tighten with `--threshold` on quiet machines.
pub const DEFAULT_BENCH_DIFF_THRESHOLD: f64 = 1.5;

/// Parses the full argument list (without the program name).
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first unknown command, flag or
/// value.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    // `merge` is the one command with positional operands (the shard
    // inputs), so it gets its own tiny parser.
    if cmd == "merge" {
        let mut out: Option<std::path::PathBuf> = None;
        let mut inputs = Vec::new();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--out" => {
                    i += 1;
                    let v = args
                        .get(i)
                        .cloned()
                        .ok_or_else(|| err("flag --out needs a value"))?;
                    out = Some(std::path::PathBuf::from(v));
                }
                flag if flag.starts_with("--") => {
                    return Err(err(format!("unknown flag {flag}")));
                }
                path => inputs.push(std::path::PathBuf::from(path)),
            }
            i += 1;
        }
        if inputs.is_empty() {
            return Err(err(
                "merge needs at least one journal or bench-report input",
            ));
        }
        return Ok(Command::Merge {
            out: out.unwrap_or_else(|| std::path::PathBuf::from("merged")),
            inputs,
        });
    }
    // `report` also takes positional operands: the trace or journal,
    // or two bench reports under `--bench-diff`.
    if cmd == "report" {
        let mut paths: Vec<std::path::PathBuf> = Vec::new();
        let mut top = trace_cmd::DEFAULT_TOP;
        let mut bench_diff = false;
        let mut fleet = false;
        let mut out: Option<std::path::PathBuf> = None;
        let mut threshold: Option<f64> = None;
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--fleet" => fleet = true,
                "--out" => {
                    i += 1;
                    let v = args
                        .get(i)
                        .cloned()
                        .ok_or_else(|| err("flag --out needs a value"))?;
                    out = Some(std::path::PathBuf::from(v));
                }
                "--top" => {
                    i += 1;
                    let v = args
                        .get(i)
                        .cloned()
                        .ok_or_else(|| err("flag --top needs a value"))?;
                    top = v.parse().map_err(|_| err(format!("bad top count {v}")))?;
                }
                "--bench-diff" => bench_diff = true,
                "--threshold" => {
                    i += 1;
                    let v = args
                        .get(i)
                        .cloned()
                        .ok_or_else(|| err("flag --threshold needs a value"))?;
                    let r: f64 = v.parse().map_err(|_| err(format!("bad threshold {v}")))?;
                    if !r.is_finite() || r <= 0.0 {
                        return Err(err(format!("threshold {v} must be positive")));
                    }
                    threshold = Some(r);
                }
                flag if flag.starts_with("--") => {
                    return Err(err(format!("unknown flag {flag}")));
                }
                path => paths.push(std::path::PathBuf::from(path)),
            }
            i += 1;
        }
        if fleet {
            if bench_diff {
                return Err(err("--fleet and --bench-diff are mutually exclusive"));
            }
            if threshold.is_some() {
                return Err(err("--threshold only applies to --bench-diff"));
            }
            if paths.is_empty() {
                return Err(err("--fleet needs at least one trace directory"));
            }
            return Ok(Command::FleetReport { dirs: paths, out });
        }
        if out.is_some() {
            return Err(err("--out only applies to --fleet"));
        }
        if bench_diff {
            let mut it = paths.into_iter();
            let (old, new) = match (it.next(), it.next(), it.next()) {
                (Some(old), Some(new), None) => (old, new),
                _ => return Err(err("--bench-diff needs exactly two bench-report paths")),
            };
            return Ok(Command::BenchDiff {
                old,
                new,
                threshold: threshold.unwrap_or(DEFAULT_BENCH_DIFF_THRESHOLD),
            });
        }
        if threshold.is_some() {
            return Err(err("--threshold only applies to --bench-diff"));
        }
        let mut it = paths.into_iter();
        let input = it
            .next()
            .ok_or_else(|| err("report needs a trace or journal path"))?;
        if let Some(extra) = it.next() {
            return Err(err(format!("unexpected operand {}", extra.display())));
        }
        return Ok(Command::Report { input, top });
    }
    // `serve` has its own flag vocabulary (daemon knobs, not simulation
    // knobs), so it too gets a dedicated parser.
    if cmd == "serve" {
        let mut opts = barre_serve::ServeOptions::default();
        let mut i = 1;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = |i: &mut usize| -> Result<String, ParseError> {
                *i += 1;
                args.get(*i)
                    .cloned()
                    .ok_or_else(|| err(format!("flag {flag} needs a value")))
            };
            match flag {
                "--host" => opts.host = value(&mut i)?,
                "--port" => {
                    let v = value(&mut i)?;
                    opts.port = v.parse().map_err(|_| err(format!("bad port {v}")))?;
                }
                "--workers" => {
                    let v = value(&mut i)?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| err(format!("bad worker count {v}")))?;
                    if n == 0 {
                        return Err(err("--workers must be at least 1"));
                    }
                    opts.workers = Some(n);
                }
                "--queue-cap" => {
                    let v = value(&mut i)?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| err(format!("bad queue capacity {v}")))?;
                    if n == 0 {
                        return Err(err("--queue-cap must be at least 1"));
                    }
                    opts.queue_cap = n;
                }
                "--cache-dir" => opts.cache_dir = std::path::PathBuf::from(value(&mut i)?),
                "--timeout" => {
                    let v = value(&mut i)?;
                    let secs: f64 = v.parse().map_err(|_| err(format!("bad timeout {v}")))?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(err(format!("timeout {v} must be positive seconds")));
                    }
                    opts.timeout = std::time::Duration::from_secs_f64(secs);
                }
                "--retries" => {
                    let v = value(&mut i)?;
                    opts.retries = v.parse().map_err(|_| err(format!("bad retry count {v}")))?;
                }
                "--breaker" => {
                    let v = value(&mut i)?;
                    opts.breaker_threshold = v
                        .parse()
                        .map_err(|_| err(format!("bad breaker threshold {v}")))?;
                }
                "--log-file" => opts.log_file = Some(std::path::PathBuf::from(value(&mut i)?)),
                other => return Err(err(format!("unknown flag {other}"))),
            }
            i += 1;
        }
        return Ok(Command::Serve {
            opts: Box::new(opts),
        });
    }
    // `queue` and `worker` are daemons too, with their own small flag
    // vocabularies (lease protocol knobs, not simulation knobs).
    if cmd == "queue" {
        let mut opts = barre_serve::jobq::QueueOptions::default();
        let mut i = 1;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = |i: &mut usize| -> Result<String, ParseError> {
                *i += 1;
                args.get(*i)
                    .cloned()
                    .ok_or_else(|| err(format!("flag {flag} needs a value")))
            };
            match flag {
                "--host" => opts.host = value(&mut i)?,
                "--port" => {
                    let v = value(&mut i)?;
                    opts.port = v.parse().map_err(|_| err(format!("bad port {v}")))?;
                }
                "--journal" => opts.journal = std::path::PathBuf::from(value(&mut i)?),
                "--lease" => {
                    let v = value(&mut i)?;
                    let secs: f64 = v.parse().map_err(|_| err(format!("bad lease {v}")))?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(err(format!("lease {v} must be positive seconds")));
                    }
                    opts.lease = std::time::Duration::from_secs_f64(secs);
                }
                "--max-leases" => {
                    let v = value(&mut i)?;
                    opts.max_leases = v
                        .parse()
                        .map_err(|_| err(format!("bad lease budget {v}")))?;
                }
                "--log-file" => opts.log_file = Some(std::path::PathBuf::from(value(&mut i)?)),
                other => return Err(err(format!("unknown flag {other}"))),
            }
            i += 1;
        }
        return Ok(Command::Queue {
            opts: Box::new(opts),
        });
    }
    if cmd == "worker" {
        let mut opts = barre_serve::jobq::WorkerOptions::default();
        let mut connected = false;
        let mut i = 1;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = |i: &mut usize| -> Result<String, ParseError> {
                *i += 1;
                args.get(*i)
                    .cloned()
                    .ok_or_else(|| err(format!("flag {flag} needs a value")))
            };
            match flag {
                "--connect" => {
                    opts.connect = value(&mut i)?;
                    connected = true;
                }
                "--name" => opts.name = Some(value(&mut i)?),
                "--jobs" => {
                    let v = value(&mut i)?;
                    let n: usize = v.parse().map_err(|_| err(format!("bad job count {v}")))?;
                    if n == 0 {
                        return Err(err("--jobs must be at least 1"));
                    }
                    opts.slots = n;
                }
                "--timeout" => {
                    let v = value(&mut i)?;
                    let secs: f64 = v.parse().map_err(|_| err(format!("bad timeout {v}")))?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(err(format!("timeout {v} must be positive seconds")));
                    }
                    opts.timeout = Some(std::time::Duration::from_secs_f64(secs));
                }
                "--log-file" => opts.log_file = Some(std::path::PathBuf::from(value(&mut i)?)),
                other => return Err(err(format!("unknown flag {other}"))),
            }
            i += 1;
        }
        if !connected {
            return Err(err("worker needs --connect <host:port>"));
        }
        return Ok(Command::Worker {
            opts: Box::new(opts),
        });
    }
    // `lint` grew its own flag vocabulary in PR 7 (baseline files, SARIF,
    // autofix, waiver budgets) that collides with the simulation flags
    // (`--baseline` means something else entirely to `run`), so it gets a
    // dedicated parser too.
    if cmd == "lint" {
        let mut opts = lint_cmd::LintOpts::default();
        let mut i = 1;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = |i: &mut usize| -> Result<String, ParseError> {
                *i += 1;
                args.get(*i)
                    .cloned()
                    .ok_or_else(|| err(format!("flag {flag} needs a value")))
            };
            match flag {
                "--json" => opts.json = true,
                "--sarif" => opts.sarif = true,
                "--fix" => opts.fix = true,
                "--no-baseline" => opts.no_baseline = true,
                "--write-baseline" => opts.write_baseline = true,
                "--parallel-readiness" => opts.readiness = true,
                "--root" => opts.root = std::path::PathBuf::from(value(&mut i)?),
                "--baseline" => opts.baseline = Some(std::path::PathBuf::from(value(&mut i)?)),
                "--changed-since" => opts.changed_since = Some(value(&mut i)?),
                "--max-waivers" => {
                    let v = value(&mut i)?;
                    opts.max_waivers = v
                        .parse()
                        .map_err(|_| err(format!("bad waiver budget {v}")))?;
                }
                other => return Err(err(format!("unknown flag {other}"))),
            }
            i += 1;
        }
        if opts.json && opts.sarif {
            return Err(err("--json and --sarif are mutually exclusive"));
        }
        if opts.no_baseline && opts.baseline.is_some() {
            return Err(err("--no-baseline conflicts with --baseline <file>"));
        }
        return Ok(Command::Lint { opts });
    }
    // `--paper`/`--smoke` pick the base configuration wherever they
    // appear (the last one wins); every other config flag applies on
    // top of it, so no flag is lost to a preset given after it.
    let mut cfg = match args
        .iter()
        .rev()
        .find(|a| *a == "--paper" || *a == "--smoke")
    {
        Some(p) if p == "--paper" => SystemConfig::paper(),
        Some(_) => barre_system::smoke_config(),
        None => SystemConfig::scaled(),
    };
    let mut seed = 0x15CA_2024u64;
    let mut app = None;
    let mut apps: Option<Vec<AppId>> = None;
    let mut pair_a = None;
    let mut pair_b = None;
    let mut baseline = false;
    let mut metrics_json = false;
    let mut rates: Option<Vec<f64>> = None;
    let mut json = false;
    let mut jobs: Option<usize> = None;
    let mut quick = false;
    let mut gate: Option<f64> = None;
    let mut out: Option<std::path::PathBuf> = None;
    let mut supervise = false;
    let mut dispatch_addr: Option<String> = None;
    let mut journal: Option<std::path::PathBuf> = None;
    let mut resume: Option<std::path::PathBuf> = None;
    let mut timeout: Option<std::time::Duration> = None;
    let mut retries: Option<u32> = None;
    let mut job_index: Option<usize> = None;
    let mut window: Option<usize> = None;
    let mut filter = barre_trace::StageMask::all();

    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |i: &mut usize| -> Result<String, ParseError> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| err(format!("flag {flag} needs a value")))
        };
        match flag {
            "--paper" | "--smoke" => {}
            "--supervise" => supervise = true,
            "--dispatch" => dispatch_addr = Some(value(&mut i)?),
            "--journal" => journal = Some(std::path::PathBuf::from(value(&mut i)?)),
            "--resume" => resume = Some(std::path::PathBuf::from(value(&mut i)?)),
            "--timeout" => {
                let v = value(&mut i)?;
                let secs: f64 = v.parse().map_err(|_| err(format!("bad timeout {v}")))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(err(format!("timeout {v} must be positive seconds")));
                }
                timeout = Some(std::time::Duration::from_secs_f64(secs));
            }
            "--retries" => {
                let v = value(&mut i)?;
                retries = Some(v.parse().map_err(|_| err(format!("bad retry count {v}")))?);
            }
            "--job-index" => {
                let v = value(&mut i)?;
                job_index = Some(v.parse().map_err(|_| err(format!("bad job index {v}")))?);
            }
            "--baseline" => baseline = true,
            "--metrics-json" => metrics_json = true,
            "--json" => json = true,
            "--quick" => quick = true,
            "--gate" => {
                // Optional value: `--gate` alone means the default ratio.
                gate = Some(DEFAULT_BENCH_GATE);
                if let Some(v) = args.get(i + 1).filter(|v| !v.starts_with("--")) {
                    let r: f64 = v.parse().map_err(|_| err(format!("bad gate ratio {v}")))?;
                    if !r.is_finite() || r <= 0.0 {
                        return Err(err(format!("gate ratio {v} must be positive")));
                    }
                    gate = Some(r);
                    i += 1;
                }
            }
            "--out" => out = Some(std::path::PathBuf::from(value(&mut i)?)),
            "--jobs" => {
                let v = value(&mut i)?;
                let n: usize = v.parse().map_err(|_| err(format!("bad job count {v}")))?;
                if n == 0 {
                    return Err(err("--jobs must be at least 1"));
                }
                jobs = Some(n);
            }
            "--gmmu" => cfg.mmu = MmuKind::Gmmu,
            "--migration" => cfg.migration = Some(Default::default()),
            "--app" => {
                let v = value(&mut i)?;
                app = Some(app_by_name(&v).ok_or_else(|| err(format!("unknown app {v}")))?);
            }
            "--a" => {
                let v = value(&mut i)?;
                pair_a = Some(app_by_name(&v).ok_or_else(|| err(format!("unknown app {v}")))?);
            }
            "--b" => {
                let v = value(&mut i)?;
                pair_b = Some(app_by_name(&v).ok_or_else(|| err(format!("unknown app {v}")))?);
            }
            "--apps" => {
                let v = value(&mut i)?;
                if v == "all" {
                    apps = Some(AppId::all().to_vec());
                } else {
                    let mut list = Vec::new();
                    for part in v.split(',') {
                        list.push(
                            app_by_name(part).ok_or_else(|| err(format!("unknown app {part}")))?,
                        );
                    }
                    apps = Some(list);
                }
            }
            "--mode" => {
                let v = value(&mut i)?;
                cfg.mode = mode_by_name(&v).ok_or_else(|| err(format!("unknown mode {v}")))?;
            }
            "--policy" => {
                let v = value(&mut i)?;
                cfg.policy =
                    policy_by_name(&v).ok_or_else(|| err(format!("unknown policy {v}")))?;
            }
            "--page-size" => {
                let v = value(&mut i)?;
                cfg.page_size =
                    page_size_by_name(&v).ok_or_else(|| err(format!("unknown page size {v}")))?;
            }
            "--ptws" => {
                let v = value(&mut i)?;
                cfg.ptws = if v == "inf" {
                    None
                } else {
                    Some(v.parse().map_err(|_| err(format!("bad PTW count {v}")))?)
                };
            }
            "--chiplets" => {
                let v = value(&mut i)?;
                let n: usize = v
                    .parse()
                    .map_err(|_| err(format!("bad chiplet count {v}")))?;
                cfg.topology = cfg.topology.with_chiplets(n);
            }
            "--frames" => {
                let v = value(&mut i)?;
                let n: usize = v.parse().map_err(|_| err(format!("bad frame count {v}")))?;
                if n == 0 {
                    return Err(err("--frames must be at least 1"));
                }
                cfg.frames_per_chiplet = Some(n);
            }
            "--seed" => {
                let v = value(&mut i)?;
                seed = v.parse().map_err(|_| err(format!("bad seed {v}")))?;
            }
            "--rates" => {
                let v = value(&mut i)?;
                let mut list = Vec::new();
                for part in v.split(',') {
                    let r: f64 = part
                        .parse()
                        .map_err(|_| err(format!("bad fault rate {part}")))?;
                    if !(0.0..=1.0).contains(&r) {
                        return Err(err(format!("fault rate {part} outside [0, 1]")));
                    }
                    list.push(r);
                }
                rates = Some(list);
            }
            "--window" => {
                let v = value(&mut i)?;
                let n: usize = v.parse().map_err(|_| err(format!("bad window {v}")))?;
                if n == 0 {
                    return Err(err("--window must be at least 1"));
                }
                window = Some(n);
            }
            "--filter" => {
                let v = value(&mut i)?;
                // Accept both `--filter ptw,fill` and the documented
                // `--filter stage=ptw,fill` form.
                let list = v.strip_prefix("stage=").unwrap_or(&v);
                filter = barre_trace::StageMask::parse(list)
                    .ok_or_else(|| err(format!("unknown stage in filter {v}")))?;
            }
            name if cmd == "trace" && !name.starts_with("--") && app.is_none() => {
                app = Some(app_by_name(name).ok_or_else(|| err(format!("unknown app {name}")))?);
            }
            other => return Err(err(format!("unknown flag {other}"))),
        }
        i += 1;
    }

    // `--dispatch` hands the sweep to a remote queue coordinator: the
    // workers own supervision there, so the local supervisor flags are
    // either repurposed (`--journal`/`--resume` name the client-side
    // journal) or rejected.
    let dispatch = if let Some(addr) = dispatch_addr {
        if supervise {
            return Err(err("--supervise and --dispatch are mutually exclusive"));
        }
        if timeout.is_some() || retries.is_some() {
            return Err(err(
                "--timeout/--retries are supervisor and worker flags; with --dispatch the workers own them",
            ));
        }
        Some(DispatchOpts {
            addr,
            journal: resume
                .clone()
                .or_else(|| journal.clone())
                .unwrap_or_else(|| std::path::PathBuf::from("sweep-journal")),
            child_args: strip_supervisor_flags(args),
        })
    } else {
        None
    };
    // Any supervision flag opts the sweep into the crash-isolated path;
    // `--resume` doubles as the journal location.
    let sup = if dispatch.is_none()
        && (supervise
            || journal.is_some()
            || resume.is_some()
            || timeout.is_some()
            || retries.is_some())
    {
        if let (Some(j), Some(r)) = (&journal, &resume) {
            if j != r {
                return Err(err("--journal and --resume disagree; pass just one"));
            }
        }
        Some(supervisor::SuperviseOpts {
            journal: resume
                .clone()
                .or(journal)
                .unwrap_or_else(|| std::path::PathBuf::from("sweep-journal")),
            resume: resume.is_some(),
            timeout,
            retries: retries.unwrap_or(2),
            child_args: strip_supervisor_flags(args),
        })
    } else {
        None
    };

    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List),
        "table2" => Ok(Command::Table2 { cfg: Box::new(cfg) }),
        "run" => Ok(Command::Run {
            app: app.ok_or_else(|| err("run needs --app <name>"))?,
            cfg: Box::new(cfg),
            seed,
            baseline,
            metrics_json,
        }),
        "sweep" => Ok(Command::Sweep {
            apps: apps.unwrap_or_else(|| AppId::all().to_vec()),
            cfg: Box::new(cfg),
            seed,
            jobs,
            sup,
            dispatch,
            job_index,
        }),
        "pair" => Ok(Command::Pair {
            pair: AppPair {
                a: pair_a.ok_or_else(|| err("pair needs --a <name>"))?,
                b: pair_b.ok_or_else(|| err("pair needs --b <name>"))?,
            },
            cfg: Box::new(cfg),
            seed,
        }),
        "chaos" => Ok(Command::Chaos {
            app: app.ok_or_else(|| err("chaos needs --app <name>"))?,
            cfg: Box::new(cfg),
            seed,
            rates: rates.unwrap_or_else(|| vec![0.0, 0.001, 0.01, 0.05]),
            jobs,
            sup,
            dispatch,
            job_index,
        }),
        "bench" => Ok(Command::Bench {
            quick,
            json,
            jobs,
            out: out.unwrap_or_else(|| std::path::PathBuf::from("BENCH_sweep.json")),
            gate,
        }),
        "trace" => Ok(Command::Trace {
            app: app.ok_or_else(|| err("trace needs an app (positional or --app <name>)"))?,
            cfg: Box::new(cfg),
            seed,
            out: out.unwrap_or_else(|| std::path::PathBuf::from("trace.json")),
            opts: barre_trace::TraceOptions {
                window: window.unwrap_or_else(|| barre_trace::TraceOptions::default().window),
                filter,
            },
        }),
        other => Err(err(format!("unknown command {other}"))),
    }
}

/// The original argument list minus supervisor-only flags — what a
/// crash-isolated child is re-executed with (plus `--job-index <i>`).
/// `--jobs` is stripped too: it does not change any job's simulation, so
/// keeping it out makes job fingerprints stable across worker counts.
/// `--dispatch` likewise, so a dispatched sweep and a local supervised
/// run of the same command line agree on every job fingerprint.
fn strip_supervisor_flags(args: &[String]) -> Vec<String> {
    let mut out = Vec::with_capacity(args.len());
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--supervise" => {}
            "--journal" | "--resume" | "--timeout" | "--retries" | "--job-index" | "--jobs"
            | "--dispatch" => {
                i += 1;
            }
            other => out.push(other.to_string()),
        }
        i += 1;
    }
    out
}

/// Usage text.
pub const USAGE: &str = "\
barre — Barre Chord MCM-GPU translation model

USAGE:
  barre list                              list the 19 workloads
  barre table2 [--paper]                  print the configuration
  barre run   --app <name> [flags]        run one app (baseline compare with --baseline)
  barre sweep [--apps a,b,c|all] [flags]  speedups vs baseline per app
  barre pair  --a <name> --b <name>       co-run two apps (multi-programming)
  barre chaos --app <name> [flags]        sweep ATS drop rates (fault injection)
  barre bench [--json] [--quick] [flags]  timed smoke sweep + serial/parallel cross-check
  barre merge --out <dir> <inputs...>     fold shard journals / bench reports into one
  barre lint  [flags]                     determinism & panic-safety analyzer
                                          (exit 0 clean, 1 violations, 2 usage/budget error)
  barre trace <app> [flags]               run one app traced; write trace.json (Perfetto-loadable)
  barre report <trace|journal> [--top n]  per-stage p50/p95/p99 tables + slowest journeys
  barre report --bench-diff <old> <new>   compare two BENCH_sweep.json files; exit 1 on
                                          regressions beyond --threshold (default 1.5x)
  barre report --fleet <dirs...> [--out p] stitch BARRE_FLEET_TRACE'd per-process trace files
                                          into one Perfetto timeline (default fleet-trace.json)
  barre serve [flags]                     simulation daemon: JSONL requests over TCP, HTTP shim
                                          (/healthz /readyz /stats /metrics), verified result cache
  barre queue [flags]                     lease-based shared job-queue coordinator with a
                                          write-ahead journal (crash-restartable) and an HTTP
                                          shim (/healthz /readyz /stats /metrics)
  barre worker --connect <host:port>      pull jobs from a queue coordinator under leases,
                                          heartbeat to keep them, run them crash-isolated

FLAGS:
  --mode <baseline|valkyrie|least|shared-l2|barre|fbarre|fbarre1|fbarre4>
  --policy <lasp|coda|rr|chunking>     --page-size <4k|64k|2m>
  --ptws <n|inf>                       --chiplets <n>
  --gmmu                               --migration
  --paper                              --smoke (small fast configuration)
  --seed <n>
  --rates <r1,r2,...>                  chaos drop-rate sweep (default 0,0.001,0.01,0.05)
  --jobs <n>                           worker threads for sweep/chaos/bench
                                       (default: BARRE_JOBS env, then all cores; 1 = serial)
  --quick                              bench: 3-app subset instead of the balanced 9
  --gate [ratio]                       bench: exit 1 if any mode is more than ratio times
                                       slower than baseline (default 5.0)
  --threshold <ratio>                  report --bench-diff: regression cutoff (default 1.5)
  --out <path>                         bench: report path (default BENCH_sweep.json)
                                       merge: output directory (default merged/)
                                       trace: export path (default trace.json; .jsonl = compact)
  --window <n>                         trace: span-ring retention (default 65536 spans)
  --filter stage=<s1,s2,...>           trace: stages kept in the span ring (histograms
                                       always cover every stage); names as in the report
  --top <n>                            report: slowest journeys shown (default 10)
  --out <path>                         report --fleet: timeline path (default fleet-trace.json)

OBSERVABILITY:
  BARRE_LOG=<error|warn|info|debug|trace>  stderr structured-log threshold (default info);
                                       daemon/worker/dispatch diagnostics are one JSON
                                       object per line (ts_ms, level, component, event, msg)
  BARRE_FLEET_TRACE=<dir>              fleet processes append span events to
                                       <dir>/fleet-<role>-<pid>.trace.jsonl; stitch with
                                       `barre report --fleet <dir>`
  --log-file <path>                    serve/queue/worker: append structured logs to <path>
                                       instead of stderr

LINT FLAGS:
  --root <dir>                         workspace to analyze (default .)
  --json | --sarif                     barre-lint/2 JSON or SARIF 2.1.0 (mutually exclusive)
  --baseline <file>                    accepted-findings file (default <root>/lint-baseline.json)
  --no-baseline                        ignore any baseline file
  --write-baseline                     regenerate the baseline from current findings
  --changed-since <rev>                only report findings in files changed since <rev>
  --max-waivers <n>                    inline-waiver budget (default 5; exit 2 on breach)
  --fix                                apply safe autofixes (W001 scaffold, D002 clock rewrite)
  --parallel-readiness                 append the R001 audit report (ROADMAP item 2 gate)

SUPERVISOR FLAGS (sweep, chaos):
  --supervise                          run each job in a crash-isolated child process
  --journal <dir|file.jsonl>           write-ahead journal location (default sweep-journal/)
  --resume <dir|file.jsonl>            skip jobs journaled as done, rerun the rest;
                                       output is byte-identical to an uninterrupted run
  --timeout <secs>                     per-job wall-clock budget (kill + retry on expiry)
  --retries <n>                        transient-failure retries per job (default 2);
                                       permanent failures (exit 64) are never retried
  --dispatch <host:port>               run the sweep on a `barre queue` coordinator instead
                                       of locally; workers execute, results and the journal
                                       come back byte-identical to a serial supervised run

SERVE FLAGS:
  --host <addr> --port <n>             bind address (default 127.0.0.1:7341; port 0 = ephemeral,
                                       the chosen address is printed as `listening on ...`)
  --workers <n>                        simulation worker threads (default: BARRE_JOBS, then cores)
  --queue-cap <n>                      admission-queue bound; beyond it requests are shed with a
                                       429-style response and a retry_after_ms hint (default 64)
  --cache-dir <dir>                    verified result-cache location (default serve-cache/)
  --timeout <secs>                     default per-request deadline, queue wait included
                                       (default 60; requests may override with timeout_ms)
  --retries <n>                        serve: transient-failure retries per request (default 1)
  --breaker <n>                        quarantine a config fingerprint after n consecutive
                                       failures (default 3; 0 disables the circuit breaker)

QUEUE FLAGS:
  --host <addr> --port <n>             bind address (default 127.0.0.1:7342; port 0 = ephemeral,
                                       printed as `listening on ...`)
  --journal <dir|file.jsonl>           write-ahead journal location (default queue-journal/);
                                       restart with the same journal to resume
  --lease <secs>                       lease duration before an unheartbeated job is
                                       re-dispatched (default 10)
  --max-leases <n>                     quarantine a job as poison after n burned leases
                                       (default 3; 0 disables quarantine)

WORKER FLAGS:
  --connect <host:port>                queue coordinator to pull jobs from (required)
  --name <id>                          worker identity stamped on journal records
                                       (default worker-<pid>; BARRE_WORKER_ID also works)
  --jobs <n>                           concurrent job slots (default 1)
  --timeout <secs>                     per-job wall-clock budget (kill + report on expiry)
";

/// Reports a simulation failure on stderr and yields the error exit code.
fn report(err: &SimError) -> i32 {
    eprintln!("error: {err}");
    1
}

/// Hidden child mode (`--job-index i`): re-derive the sweep's job list
/// from the same command line, run exactly job `i`, and print its
/// metrics as one line of canonical JSON for the supervisor to journal.
/// Failures exit with [`SimError::exit_code`] so the supervisor can tell
/// permanent configuration bugs from transient-shaped faults.
fn run_child_job(labeled: &[LabeledJob], index: usize) -> i32 {
    let Some(l) = labeled.get(index) else {
        eprintln!(
            "error: --job-index {index} out of range ({} jobs)",
            labeled.len()
        );
        return supervisor::EXIT_USAGE;
    };
    child_test_hooks(index);
    let (spec, cfg, seed) = l.job.clone();
    match run_spec(spec, &cfg, seed) {
        Ok(m) => {
            println!("{}", barre_system::metrics_to_json(&m));
            0
        }
        Err(e) => {
            eprintln!("error: {}: {e}", l.label);
            e.exit_code()
        }
    }
}

/// Failure-injection hooks for the supervisor's integration tests.
/// `BARRE_TEST_KILL="<i>:<sentinel>"` SIGKILLs child `i` once (the
/// sentinel file marks the kill as spent, so retries and resumes
/// proceed); `BARRE_TEST_HANG="<i>"` hangs child `i` forever to exercise
/// the watchdog timeout. No-ops unless those variables are set.
fn child_test_hooks(index: usize) {
    if let Ok(spec) = std::env::var("BARRE_TEST_KILL") {
        if let Some((idx, sentinel)) = spec.split_once(':') {
            if idx.parse() == Ok(index) && !std::path::Path::new(sentinel).exists() {
                let _ = std::fs::write(sentinel, b"killed\n");
                supervisor::kill_self();
            }
        }
    }
    if let Ok(v) = std::env::var("BARRE_TEST_HANG") {
        if v.parse() == Ok(index) {
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }
}

/// Runs a labeled job list either inline on the worker pool or under the
/// crash-isolated supervisor, returning one [`RunMetrics`] per job in
/// input order. `Err` carries the process exit code; failure details
/// have already been printed to stderr, keeping stdout byte-identical
/// across inline, supervised and resumed runs.
fn collect_metrics(
    labeled: &[LabeledJob],
    jobs: Option<usize>,
    sup: Option<&supervisor::SuperviseOpts>,
) -> Result<Vec<RunMetrics>, i32> {
    let threads = barre_sim::pool::resolve_jobs(jobs);
    let Some(sup) = sup else {
        let batch: Vec<BatchJob> = labeled.iter().map(|l| l.job.clone()).collect();
        let results = run_batch(batch, threads).map_err(|e| report(&e))?;
        let mut out = Vec::with_capacity(labeled.len());
        for (l, res) in labeled.iter().zip(results) {
            match res {
                Ok(m) => out.push(m),
                Err(e) => {
                    eprintln!("error: {}: {e}", l.label);
                    return Err(1);
                }
            }
        }
        return Ok(out);
    };
    let run = match supervisor::run_supervised(labeled, threads, sup) {
        Ok(r) => r,
        Err(e) => {
            olog::error("supervisor", "run_failed", &[], &format!("error: {e}"));
            return Err(1);
        }
    };
    let journal = supervisor::journal_file_of(&sup.journal);
    if run.resumed > 0 {
        olog::info(
            "supervisor",
            "resumed",
            &[("jobs", Field::U(run.resumed as u64))],
            &format!(
                "resumed {} finished job(s) from {}",
                run.resumed,
                journal.display()
            ),
        );
    }
    for f in &run.failures {
        olog::warn(
            "supervisor",
            "job_failed",
            &[("label", Field::S(&f.label))],
            &f.to_string(),
        );
    }
    if run.interrupted {
        olog::warn(
            "supervisor",
            "interrupted",
            &[],
            &format!(
                "interrupted: in-flight jobs drained and journaled; rerun with --resume {} to finish",
                journal.display()
            ),
        );
        return Err(supervisor::interrupt_exit_code());
    }
    if !run.failures.is_empty() {
        olog::error(
            "supervisor",
            "jobs_failed",
            &[
                ("failed", Field::U(run.failures.len() as u64)),
                ("total", Field::U(labeled.len() as u64)),
            ],
            &format!(
                "{} of {} job(s) failed; the rest completed and are journaled in {}",
                run.failures.len(),
                labeled.len(),
                journal.display()
            ),
        );
        return Err(1);
    }
    let metrics: Vec<RunMetrics> = run.results.into_iter().flatten().collect();
    if metrics.len() != labeled.len() {
        eprintln!(
            "error: supervisor returned {} of {} results",
            metrics.len(),
            labeled.len()
        );
        return Err(1);
    }
    Ok(metrics)
}

/// Runs a labeled job list through a remote `barre queue` coordinator,
/// returning one [`RunMetrics`] per job in input order. The counterpart
/// of [`collect_metrics`]'s supervised path: failures and poison
/// verdicts go to stderr in the supervisor's format, stdout stays
/// byte-identical to a local run.
fn collect_dispatched(labeled: &[LabeledJob], d: &DispatchOpts) -> Result<Vec<RunMetrics>, i32> {
    supervisor::install_drain_handlers();
    let jobs: Vec<barre_serve::jobq::JobSpec> = labeled
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let mut args = d.child_args.clone();
            args.push("--job-index".to_string());
            args.push(i.to_string());
            barre_serve::jobq::JobSpec {
                fingerprint: supervisor::job_fingerprint(&d.child_args, i, &l.label),
                label: l.label.clone(),
                args,
                // One correlation id per job, minted at the dispatch
                // origin — the root of the cross-process trace.
                corr: Some(barre_obs::corr_id()),
            }
        })
        .collect();
    let journal = supervisor::journal_file_of(&d.journal);
    let outcome = match barre_serve::jobq::dispatch_sweep(&d.addr, &jobs, &journal) {
        Ok(o) => o,
        Err(e) => {
            olog::error("dispatch", "sweep_failed", &[], &format!("error: {e}"));
            return Err(1);
        }
    };
    if outcome.interrupted {
        return Err(supervisor::interrupt_exit_code());
    }
    for f in &outcome.failures {
        if f.quarantined {
            olog::warn(
                "dispatch",
                "job_quarantined",
                &[("label", Field::S(&f.label))],
                &format!(
                    "POISON {} quarantined after {} lease(s): {}",
                    f.label, f.attempts, f.exit
                ),
            );
        } else {
            olog::warn(
                "dispatch",
                "job_failed",
                &[("label", Field::S(&f.label))],
                &format!(
                    "FAILED {} after {} attempt(s): {}",
                    f.label, f.attempts, f.exit
                ),
            );
        }
    }
    if !outcome.failures.is_empty() {
        olog::error(
            "dispatch",
            "jobs_failed",
            &[
                ("failed", Field::U(outcome.failures.len() as u64)),
                ("total", Field::U(labeled.len() as u64)),
            ],
            &format!(
                "{} of {} job(s) failed; the rest completed and are journaled in {}",
                outcome.failures.len(),
                labeled.len(),
                journal.display()
            ),
        );
        return Err(1);
    }
    let metrics: Vec<RunMetrics> = outcome.results.into_iter().flatten().collect();
    if metrics.len() != labeled.len() {
        olog::error(
            "dispatch",
            "results_incomplete",
            &[],
            &format!(
                "error: coordinator returned {} of {} results",
                metrics.len(),
                labeled.len()
            ),
        );
        return Err(1);
    }
    Ok(metrics)
}

/// Renders the sweep speedup table. One shared renderer keeps inline,
/// supervised and resumed runs byte-identical on stdout.
fn render_sweep(apps: &[AppId], cfg: &SystemConfig, metrics: &[RunMetrics]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<8} {:>12} {:>12} {:>9}",
        "app",
        "base cy",
        format!("{} cy", cfg.mode.label()),
        "speedup"
    );
    let mut ratios = Vec::new();
    for (app, pair) in apps.iter().zip(metrics.chunks_exact(2)) {
        let sp = speedup(&pair[0], &pair[1]);
        ratios.push(sp);
        let _ = writeln!(
            s,
            "{:<8} {:>12} {:>12} {:>8.3}x",
            app.name(),
            pair[0].total_cycles,
            pair[1].total_cycles,
            sp
        );
    }
    let _ = writeln!(
        s,
        "geomean: {:.3}x",
        barre_system::geomean(ratios.iter().copied())
    );
    s
}

/// Renders the chaos fault-injection table (shared renderer, see
/// [`render_sweep`]).
fn render_chaos(rates: &[f64], metrics: &[RunMetrics]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<8} {:>10} {:>8} {:>8} {:>9} {:>10} {:>12}",
        "drop", "cycles", "faults", "retries", "timeouts", "fallbacks", "ATS"
    );
    for (rate, m) in rates.iter().zip(metrics) {
        let _ = writeln!(
            s,
            "{:<8} {:>10} {:>8} {:>8} {:>9} {:>10} {:>12}",
            format!("{rate}"),
            m.total_cycles,
            m.faults_injected,
            m.ats_retries,
            m.ats_timeouts,
            m.fallback_translations,
            m.ats_requests
        );
    }
    s
}

/// `barre merge`: folds shard journals (directories or `.jsonl` files)
/// and `BENCH_sweep.json` fragments (`.json` files) into one output
/// directory, refusing to merge shards whose completed runs disagree.
fn run_merge(out: &std::path::Path, inputs: &[std::path::PathBuf]) -> i32 {
    let mut journal_shards: Vec<Vec<barre_system::JournalRecord>> = Vec::new();
    let mut bench_docs: Vec<String> = Vec::new();
    let mut skipped_total = 0usize;
    for p in inputs {
        if p.extension().is_some_and(|e| e == "json") {
            match std::fs::read_to_string(p) {
                Ok(doc) => bench_docs.push(doc),
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", p.display());
                    return 1;
                }
            }
        } else {
            let path = supervisor::journal_file_of(p);
            // Lenient read: a shard that survived a crash may carry torn
            // or corrupt lines anywhere, not just at the tail. Skipped
            // lines are surfaced, never silently dropped.
            match barre_system::read_journal_lenient(&path) {
                Ok((recs, skipped)) => {
                    if skipped > 0 {
                        eprintln!(
                            "warning: {}: skipped {skipped} corrupt line(s)",
                            path.display()
                        );
                        skipped_total = skipped_total.saturating_add(skipped);
                    }
                    journal_shards.push(recs);
                }
                Err(e) => {
                    eprintln!("error: cannot read journal {}: {e}", path.display());
                    return 1;
                }
            }
        }
    }
    let (journal_out, bench_out) = if out.extension().is_some_and(|e| e == "jsonl") {
        let dir = out
            .parent()
            .map(std::path::Path::to_path_buf)
            .unwrap_or_default();
        (out.to_path_buf(), dir.join("BENCH_sweep.json"))
    } else {
        (
            out.join(barre_system::JOURNAL_FILE),
            out.join("BENCH_sweep.json"),
        )
    };
    if let Some(dir) = journal_out.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return 1;
        }
    }
    if !journal_shards.is_empty() {
        let mut merged = match barre_system::merge_journals(&journal_shards) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        // The merged journal is worker-agnostic: strip the identity
        // stamps so a distributed run's merge is byte-identical to a
        // serial run's, and report the attribution on stderr instead.
        let mut by_worker: std::collections::BTreeMap<String, usize> =
            std::collections::BTreeMap::new();
        for r in &mut merged {
            if let barre_system::JournalEvent::Done { worker, .. } = &mut r.event {
                if let Some(w) = worker.take() {
                    *by_worker.entry(w).or_insert(0) += 1;
                }
            }
        }
        if !by_worker.is_empty() {
            let attribution: Vec<String> =
                by_worker.iter().map(|(w, n)| format!("{w}: {n}")).collect();
            eprintln!("workers: {}", attribution.join(", "));
        }
        let mut doc = String::with_capacity(merged.len() * 256);
        for r in &merged {
            doc.push_str(&r.to_line());
            doc.push('\n');
        }
        if let Err(e) = std::fs::write(&journal_out, doc) {
            eprintln!("error: cannot write {}: {e}", journal_out.display());
            return 1;
        }
        let done = merged
            .iter()
            .filter(|r| matches!(r.event, barre_system::JournalEvent::Done { .. }))
            .count();
        let skipped_note = if skipped_total > 0 {
            format!(", {skipped_total} line(s) skipped")
        } else {
            String::new()
        };
        println!(
            "merged {} journal shard(s): {} record(s), {} done{} -> {}",
            journal_shards.len(),
            merged.len(),
            done,
            skipped_note,
            journal_out.display()
        );
    }
    if !bench_docs.is_empty() {
        let merged = match barre_bench::wallclock::merge_reports(&bench_docs) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        if let Err(e) = std::fs::write(&bench_out, merged) {
            eprintln!("error: cannot write {}: {e}", bench_out.display());
            return 1;
        }
        println!(
            "merged {} bench report(s) -> {}",
            bench_docs.len(),
            bench_out.display()
        );
    }
    0
}

/// Executes a parsed command, printing to stdout. Returns the process
/// exit code (0 on success, 1 when the simulation reports a
/// [`SimError`]).
pub fn execute(cmd: Command) -> i32 {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            0
        }
        Command::List => {
            println!(
                "{:<8} {:<20} {:>12} {:>6}",
                "abbr", "name", "paper MPKI", "class"
            );
            for a in AppId::all() {
                println!(
                    "{:<8} {:<20} {:>12.3} {:>6}",
                    a.name(),
                    a.full_name(),
                    a.paper_mpki(),
                    a.category()
                );
            }
            0
        }
        Command::Table2 { cfg } => {
            print!("{}", cfg.table2());
            0
        }
        Command::Run {
            app,
            cfg,
            seed,
            baseline,
            metrics_json,
        } => {
            // Deadline-test hook for the serve integration tests: a child
            // that never finishes, so the daemon's watchdog must kill it.
            if std::env::var("BARRE_TEST_RUN_HANG").is_ok() {
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
            if metrics_json {
                // The `barre serve` child protocol: exactly one line of
                // canonical metrics JSON on success; SimError exit codes
                // tell the daemon permanent from transient failures.
                return match run_app(app, &cfg, seed) {
                    Ok(m) => {
                        println!("{}", barre_system::metrics_to_json(&m));
                        0
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        e.exit_code()
                    }
                };
            }
            let m = match run_app(app, &cfg, seed) {
                Ok(m) => m,
                Err(e) => return report(&e),
            };
            println!(
                "{}",
                summary_line(&format!("{app}/{}", cfg.mode.label()), &m)
            );
            if baseline {
                let base_cfg = (*cfg.clone()).with_mode(TranslationMode::Baseline);
                let b = match run_app(app, &base_cfg, seed) {
                    Ok(b) => b,
                    Err(e) => return report(&e),
                };
                println!("{}", summary_line(&format!("{app}/baseline"), &b));
                println!("speedup: {:.3}x", speedup(&b, &m));
            }
            0
        }
        Command::Sweep {
            apps,
            cfg,
            seed,
            jobs,
            sup,
            dispatch,
            job_index,
        } => {
            // Every execution path — inline pool, supervised children,
            // remote dispatch, `--job-index` replay — derives its work
            // from this one job list, so a job index means the same
            // simulation everywhere.
            let labeled = sweep_jobs(&apps, &cfg, seed);
            if let Some(index) = job_index {
                return run_child_job(&labeled, index);
            }
            let metrics = match &dispatch {
                Some(d) => collect_dispatched(&labeled, d),
                None => collect_metrics(&labeled, jobs, sup.as_ref()),
            };
            let metrics = match metrics {
                Ok(m) => m,
                Err(code) => return code,
            };
            print!("{}", render_sweep(&apps, &cfg, &metrics));
            0
        }
        Command::Pair { pair, cfg, seed } => {
            let m: RunMetrics = match run_pair(pair, &cfg, seed) {
                Ok(m) => m,
                Err(e) => return report(&e),
            };
            println!("{}", summary_line(&pair.label(), &m));
            0
        }
        Command::Lint { opts } => lint_cmd::run_lint(&opts),
        Command::Chaos {
            app,
            cfg,
            seed,
            rates,
            jobs,
            sup,
            dispatch,
            job_index,
        } => {
            let labeled = chaos_jobs(app, &cfg, seed, &rates);
            if let Some(index) = job_index {
                return run_child_job(&labeled, index);
            }
            let metrics = match &dispatch {
                Some(d) => collect_dispatched(&labeled, d),
                None => collect_metrics(&labeled, jobs, sup.as_ref()),
            };
            let metrics = match metrics {
                Ok(m) => m,
                Err(code) => return code,
            };
            print!("{}", render_chaos(&rates, &metrics));
            0
        }
        Command::Trace {
            app,
            cfg,
            seed,
            out,
            opts,
        } => trace_cmd::run_trace(app, &cfg, seed, &out, &opts),
        Command::Report { input, top } => trace_cmd::run_report(&input, top),
        Command::FleetReport { dirs, out } => trace_cmd::run_fleet_report(&dirs, out.as_deref()),
        Command::BenchDiff {
            old,
            new,
            threshold,
        } => {
            let read = |p: &std::path::Path| match std::fs::read_to_string(p) {
                Ok(doc) => Some(doc),
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", p.display());
                    None
                }
            };
            let (Some(old_doc), Some(new_doc)) = (read(&old), read(&new)) else {
                return 1;
            };
            match barre_bench::wallclock::diff_reports(&old_doc, &new_doc, threshold) {
                Ok(diff) => {
                    print!("{}", diff.render());
                    i32::from(!diff.regressions().is_empty())
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        Command::Serve { opts } => barre_serve::run_serve(&opts),
        Command::Queue { opts } => barre_serve::jobq::run_queue(&opts),
        Command::Worker { opts } => barre_serve::jobq::run_worker(&opts),
        Command::Merge { out, inputs } => run_merge(&out, &inputs),
        Command::Bench {
            quick,
            json,
            jobs,
            out,
            gate,
        } => {
            let threads = barre_sim::pool::resolve_jobs(jobs);
            let r = match barre_bench::wallclock::run_bench(quick, threads) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            };
            let doc = r.to_json();
            if let Err(e) = std::fs::write(&out, &doc) {
                eprintln!("error: cannot write {}: {e}", out.display());
                return 1;
            }
            if json {
                print!("{doc}");
            } else {
                print!("{}", r.summary());
                println!("report written to {}", out.display());
            }
            if let Some(ratio) = gate {
                let violations = r.gate_violations(ratio);
                if !violations.is_empty() {
                    for v in &violations {
                        eprintln!("gate: {v}");
                    }
                    eprintln!("gate: {} cell(s) beyond {ratio:.1}x", violations.len());
                    return 1;
                }
                println!("gate: all modes within {ratio:.1}x of baseline");
            }
            // Serial/parallel divergence is a determinism bug — fail.
            i32::from(!r.divergent.is_empty())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Command, ParseError> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_run() {
        let cmd = p(&["run", "--app", "gups", "--mode", "fbarre", "--seed", "7"]).unwrap();
        match cmd {
            Command::Run { app, cfg, seed, .. } => {
                assert_eq!(app, AppId::Gups);
                assert_eq!(seed, 7);
                assert!(matches!(cfg.mode, TranslationMode::FBarre(_)));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_sweep_subset() {
        let cmd = p(&["sweep", "--apps", "gemv,gups", "--mode", "barre"]).unwrap();
        match cmd {
            Command::Sweep { apps, cfg, .. } => {
                assert_eq!(apps, vec![AppId::Gemv, AppId::Gups]);
                assert_eq!(cfg.mode, TranslationMode::Barre);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_pair_and_topology() {
        let cmd = p(&["pair", "--a", "gemv", "--b", "gups", "--chiplets", "8"]).unwrap();
        match cmd {
            Command::Pair { pair, cfg, .. } => {
                assert_eq!(pair.a, AppId::Gemv);
                assert_eq!(cfg.topology.n_chiplets, 8);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_chaos_rates() {
        let cmd = p(&["chaos", "--app", "gups", "--rates", "0,0.01"]).unwrap();
        match cmd {
            Command::Chaos { app, rates, .. } => {
                assert_eq!(app, AppId::Gups);
                assert_eq!(rates, vec![0.0, 0.01]);
            }
            other => panic!("wrong command {other:?}"),
        }
        // Defaults kick in without --rates; bad rates are rejected.
        assert!(matches!(
            p(&["chaos", "--app", "gups"]).unwrap(),
            Command::Chaos { .. }
        ));
        assert!(p(&["chaos", "--app", "gups", "--rates", "1.5"]).is_err());
        assert!(p(&["chaos", "--rates", "0.1"]).is_err());
    }

    #[test]
    fn parses_queue_flags() {
        match p(&[
            "queue",
            "--port",
            "0",
            "--journal",
            "/tmp/q",
            "--lease",
            "2.5",
            "--max-leases",
            "5",
        ])
        .unwrap()
        {
            Command::Queue { opts } => {
                assert_eq!(opts.port, 0);
                assert_eq!(opts.journal, std::path::PathBuf::from("/tmp/q"));
                assert_eq!(opts.lease, std::time::Duration::from_secs_f64(2.5));
                assert_eq!(opts.max_leases, 5);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["queue", "--lease", "0"]).is_err());
        assert!(p(&["queue", "--lease", "nope"]).is_err());
        assert!(p(&["queue", "--apps", "gemv"]).is_err());
    }

    #[test]
    fn parses_worker_flags() {
        match p(&[
            "worker",
            "--connect",
            "127.0.0.1:7342",
            "--name",
            "w1",
            "--jobs",
            "3",
            "--timeout",
            "4",
        ])
        .unwrap()
        {
            Command::Worker { opts } => {
                assert_eq!(opts.connect, "127.0.0.1:7342");
                assert_eq!(opts.name.as_deref(), Some("w1"));
                assert_eq!(opts.slots, 3);
                assert_eq!(opts.timeout, Some(std::time::Duration::from_secs(4)));
            }
            other => panic!("wrong command {other:?}"),
        }
        // --connect is mandatory; zero slots and bad budgets are rejected.
        assert!(p(&["worker"]).is_err());
        assert!(p(&["worker", "--connect", "h:1", "--jobs", "0"]).is_err());
        assert!(p(&["worker", "--connect", "h:1", "--timeout", "-1"]).is_err());
    }

    #[test]
    fn parses_dispatch_and_rejects_conflicts() {
        match p(&[
            "sweep",
            "--apps",
            "gemv",
            "--dispatch",
            "127.0.0.1:7342",
            "--journal",
            "/tmp/shard.jsonl",
        ])
        .unwrap()
        {
            Command::Sweep { sup, dispatch, .. } => {
                let d = dispatch.expect("dispatch parsed");
                assert!(sup.is_none(), "dispatch must not also supervise locally");
                assert_eq!(d.addr, "127.0.0.1:7342");
                assert_eq!(d.journal, std::path::PathBuf::from("/tmp/shard.jsonl"));
                // The child args a worker replays must not re-dispatch.
                assert!(!d.child_args.iter().any(|a| a == "--dispatch"));
                assert!(!d.child_args.iter().any(|a| a == "127.0.0.1:7342"));
            }
            other => panic!("wrong command {other:?}"),
        }
        match p(&["chaos", "--app", "gups", "--dispatch", "h:1"]).unwrap() {
            Command::Chaos { dispatch, .. } => assert!(dispatch.is_some()),
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["sweep", "--dispatch", "h:1", "--supervise"]).is_err());
        assert!(p(&["sweep", "--dispatch", "h:1", "--timeout", "5"]).is_err());
        assert!(p(&["sweep", "--dispatch", "h:1", "--retries", "1"]).is_err());
    }

    #[test]
    fn rejects_unknowns() {
        assert!(p(&["run", "--app", "nosuch"]).is_err());
        assert!(p(&["run"]).is_err());
        assert!(p(&["frobnicate"]).is_err());
        assert!(p(&["run", "--app", "gups", "--mode", "warp-drive"]).is_err());
        assert!(p(&["run", "--app"]).is_err());
    }

    #[test]
    fn flag_helpers_cover_all_labels() {
        for m in [
            "baseline",
            "valkyrie",
            "least",
            "shared-l2",
            "barre",
            "fbarre",
            "fbarre1",
            "fbarre4",
        ] {
            assert!(mode_by_name(m).is_some(), "{m}");
        }
        for pol in ["lasp", "coda", "rr", "chunking"] {
            assert!(policy_by_name(pol).is_some(), "{pol}");
        }
        for ps in ["4k", "64k", "2m"] {
            assert!(page_size_by_name(ps).is_some(), "{ps}");
        }
        assert_eq!(app_by_name("gesm"), Some(AppId::Gesm));
        assert_eq!(app_by_name("zzz"), None);
    }

    #[test]
    fn ptws_inf_parses() {
        let cmd = p(&["run", "--app", "gemv", "--ptws", "inf"]).unwrap();
        match cmd {
            Command::Run { cfg, .. } => assert_eq!(cfg.ptws, None),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn empty_args_is_help() {
        assert!(matches!(p(&[]).unwrap(), Command::Help));
    }

    #[test]
    fn parses_bench_and_jobs() {
        match p(&[
            "bench",
            "--json",
            "--quick",
            "--jobs",
            "8",
            "--out",
            "/tmp/b.json",
        ])
        .unwrap()
        {
            Command::Bench {
                quick,
                json,
                jobs,
                out,
                gate,
            } => {
                assert!(quick && json);
                assert_eq!(jobs, Some(8));
                assert_eq!(out, std::path::PathBuf::from("/tmp/b.json"));
                assert_eq!(gate, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        match p(&["bench"]).unwrap() {
            Command::Bench {
                quick,
                json,
                jobs,
                gate,
                ..
            } => {
                assert!(!quick && !json);
                assert_eq!(jobs, None);
                assert_eq!(gate, None);
            }
            other => panic!("wrong command {other:?}"),
        }
        match p(&["sweep", "--apps", "gemv", "--jobs", "2"]).unwrap() {
            Command::Sweep { jobs, .. } => assert_eq!(jobs, Some(2)),
            other => panic!("wrong command {other:?}"),
        }
        match p(&["chaos", "--app", "gups", "--jobs", "4"]).unwrap() {
            Command::Chaos { jobs, .. } => assert_eq!(jobs, Some(4)),
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["bench", "--jobs", "0"]).is_err());
        assert!(p(&["bench", "--jobs", "many"]).is_err());
        assert!(p(&["bench", "--out"]).is_err());
    }

    #[test]
    fn parses_bench_gate() {
        // Bare flag takes the default ratio; a following flag is not a value.
        match p(&["bench", "--gate", "--quick"]).unwrap() {
            Command::Bench { gate, quick, .. } => {
                assert_eq!(gate, Some(DEFAULT_BENCH_GATE));
                assert!(quick);
            }
            other => panic!("wrong command {other:?}"),
        }
        match p(&["bench", "--gate", "3.5"]).unwrap() {
            Command::Bench { gate, .. } => assert_eq!(gate, Some(3.5)),
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["bench", "--gate", "abc"]).is_err());
        assert!(p(&["bench", "--gate", "0"]).is_err());
        assert!(p(&["bench", "--gate", "-2"]).is_err());
    }

    #[test]
    fn parses_trace() {
        // Positional app, documented `stage=` filter form, window.
        match p(&[
            "trace",
            "gups",
            "--mode",
            "fbarre",
            "--window",
            "128",
            "--filter",
            "stage=ptw,fill",
            "--out",
            "/tmp/t.jsonl",
        ])
        .unwrap()
        {
            Command::Trace {
                app,
                cfg,
                out,
                opts,
                ..
            } => {
                assert_eq!(app, AppId::Gups);
                assert!(matches!(cfg.mode, TranslationMode::FBarre(_)));
                assert_eq!(out, std::path::PathBuf::from("/tmp/t.jsonl"));
                assert_eq!(opts.window, 128);
                assert!(opts.filter.contains(barre_trace::Stage::Ptw));
                assert!(!opts.filter.contains(barre_trace::Stage::TlbL1));
            }
            other => panic!("wrong command {other:?}"),
        }
        // --app form and defaults.
        match p(&["trace", "--app", "gemv"]).unwrap() {
            Command::Trace { app, out, opts, .. } => {
                assert_eq!(app, AppId::Gemv);
                assert_eq!(out, std::path::PathBuf::from("trace.json"));
                assert_eq!(opts.window, 65_536);
                assert!(opts.filter.contains(barre_trace::Stage::TlbL1));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["trace"]).is_err());
        assert!(p(&["trace", "nosuch"]).is_err());
        assert!(p(&["trace", "gups", "--filter", "warp-core"]).is_err());
        assert!(p(&["trace", "gups", "--window", "0"]).is_err());
    }

    #[test]
    fn parses_report() {
        match p(&["report", "trace.json"]).unwrap() {
            Command::Report { input, top } => {
                assert_eq!(input, std::path::PathBuf::from("trace.json"));
                assert_eq!(top, trace_cmd::DEFAULT_TOP);
            }
            other => panic!("wrong command {other:?}"),
        }
        match p(&["report", "--top", "3", "sweep-journal"]).unwrap() {
            Command::Report { input, top } => {
                assert_eq!(input, std::path::PathBuf::from("sweep-journal"));
                assert_eq!(top, 3);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["report"]).is_err());
        assert!(p(&["report", "a", "b"]).is_err());
        assert!(p(&["report", "--top", "many", "t.json"]).is_err());
    }

    #[test]
    fn parses_bench_diff() {
        match p(&["report", "--bench-diff", "old.json", "new.json"]).unwrap() {
            Command::BenchDiff {
                old,
                new,
                threshold,
            } => {
                assert_eq!(old, std::path::PathBuf::from("old.json"));
                assert_eq!(new, std::path::PathBuf::from("new.json"));
                assert_eq!(threshold, DEFAULT_BENCH_DIFF_THRESHOLD);
            }
            other => panic!("wrong command {other:?}"),
        }
        match p(&["report", "--bench-diff", "a", "b", "--threshold", "1.1"]).unwrap() {
            Command::BenchDiff { threshold, .. } => assert_eq!(threshold, 1.1),
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["report", "--bench-diff", "only-one"]).is_err());
        assert!(p(&["report", "--bench-diff", "a", "b", "c"]).is_err());
        assert!(p(&["report", "--bench-diff", "a", "b", "--threshold", "0"]).is_err());
        // --threshold without --bench-diff is rejected.
        assert!(p(&["report", "t.json", "--threshold", "1.2"]).is_err());
    }

    #[test]
    fn parses_lint() {
        match p(&["lint"]).unwrap() {
            Command::Lint { opts } => {
                assert_eq!(opts.root, std::path::PathBuf::from("."));
                assert!(!opts.json && !opts.sarif && !opts.fix);
                assert_eq!(opts.max_waivers, 5);
                assert!(opts.baseline.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
        match p(&["lint", "--json", "--root", "/tmp/ws"]).unwrap() {
            Command::Lint { opts } => {
                assert_eq!(opts.root, std::path::PathBuf::from("/tmp/ws"));
                assert!(opts.json);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(p(&["lint", "--root"]).is_err());
    }

    #[test]
    fn parses_lint_analyzer_flags() {
        match p(&[
            "lint",
            "--sarif",
            "--baseline",
            "bl.json",
            "--changed-since",
            "origin/main",
            "--max-waivers",
            "9",
            "--parallel-readiness",
        ])
        .unwrap()
        {
            Command::Lint { opts } => {
                assert!(opts.sarif && opts.readiness);
                assert_eq!(opts.baseline, Some(std::path::PathBuf::from("bl.json")));
                assert_eq!(opts.changed_since.as_deref(), Some("origin/main"));
                assert_eq!(opts.max_waivers, 9);
            }
            other => panic!("wrong command {other:?}"),
        }
        // --json and --sarif are two serializations of the same report.
        assert!(p(&["lint", "--json", "--sarif"]).is_err());
        assert!(p(&["lint", "--no-baseline", "--baseline", "b.json"]).is_err());
        assert!(p(&["lint", "--max-waivers", "lots"]).is_err());
        assert!(p(&["lint", "--frobnicate"]).is_err());
    }

    #[test]
    fn presets_keep_config_flags_in_any_position() {
        let cfg_of = |args: &[&str]| match p(args).unwrap() {
            Command::Run { cfg, .. } => format!("{cfg:?}"),
            other => panic!("wrong command {other:?}"),
        };
        assert_eq!(
            cfg_of(&["run", "--app", "pr", "--migration", "--smoke"]),
            cfg_of(&["run", "--app", "pr", "--smoke", "--migration"])
        );
        let flags = [
            "--migration",
            "--gmmu",
            "--chiplets",
            "2",
            "--ptws",
            "4",
            "--policy",
            "coda",
            "--page-size",
            "64k",
            "--frames",
            "4096",
            "--mode",
            "fbarre",
        ];
        for preset in ["--smoke", "--paper"] {
            let base = ["run", "--app", "pr", preset];
            let first: Vec<&str> = base.iter().chain(&flags).copied().collect();
            let last: Vec<&str> = base[..3]
                .iter()
                .chain(&flags)
                .chain([&preset])
                .copied()
                .collect();
            assert_eq!(cfg_of(&first), cfg_of(&last), "{preset}");
            assert_ne!(cfg_of(&first), cfg_of(&base), "{preset}: flags must apply");
        }
    }
}
