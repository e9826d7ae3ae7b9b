//! Same-host benchmark of the Barre Chord simulator.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --barre <path to the barre binary> --root <repository root>`
//!
//! For the workload's (app, mode, config) cells it
//! 1. runs every cell in-process through `barre_system`'s public API
//!    (an untimed warm-up pass, then timed rounds);
//! 2. drives the `barre` binary for `trace`, `report`,
//!    `sweep --supervise` and `serve` on the same cells, once per round;
//! 3. checks every output, and prints each metric by name with its
//!    unit; the last line is one JSON object.
//!
//! Rounds interleave all paths across the run and each figure is built
//! from per-cell medians over the rounds, so a slow phase of a shared
//! host moves one round, not one path. Everything is timed from this
//! single thread. `--trace 1` records the benchmark's own spans around
//! each layer call on alternate rounds and reports the per-layer
//! metrics; `--trace 0` reports the end-to-end metrics.

mod checks;
mod cli;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use barre_system::{build_machine, metrics_digest, trace_app, Json, RunMetrics};
use barre_trace::export::{chrome_trace, jsonl, TraceMeta};
use barre_trace::{LatencyHistogram, Stage, TraceOptions, TraceRecorder};

use checks::Ledger;
use spans::Spans;
use stats::median;
use workload::{Cell, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    barre: PathBuf,
    root: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(flag.trim_start_matches("--").to_string(), v.clone());
    }
    let get = |k: &str| {
        kv.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let name = get("workload")?;
    let workload = workload::by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: get("seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace,
        barre: PathBuf::from(get("barre")?),
        root: PathBuf::from(get("root")?),
        commit: kv
            .get("commit")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = args
        .root
        .join(".bench_build")
        .join("perfbench-work")
        .join(format!("{}-{}", args.workload.name, std::process::id()));
    let result = cli::fresh_dir(&work, "").and_then(|_| Bench::new(&args, &work).run());
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Per-round samples: name → (round, value).
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<(u32, f64)>>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, round: u32, v: f64) {
        self.0.entry(name.into()).or_default().push((round, v));
    }

    fn values(&self, name: &str, keep: impl Fn(u32) -> bool) -> Vec<f64> {
        self.0
            .get(name)
            .map(|v| v.iter().filter(|(r, _)| keep(*r)).map(|p| p.1).collect())
            .unwrap_or_default()
    }

    /// Samples of the timed rounds (round 0 is the warm-up).
    fn all(&self, name: &str) -> Vec<f64> {
        self.values(name, |r| r > 0)
    }

    fn median(&self, name: &str) -> f64 {
        median(&self.all(name)).unwrap_or(0.0)
    }
}

/// What each round's checks compare against, fixed by the warm-up.
struct Reference {
    metrics: Vec<RunMetrics>,
    digests: Vec<String>,
    report_table: Vec<checks::StageRow>,
    chrome_path: PathBuf,
    jsonl_path: PathBuf,
}

struct Bench<'a> {
    args: &'a Args,
    w: &'a Workload,
    cells: Vec<Cell>,
    work: &'a Path,
    ledger: Ledger,
    spans: Spans,
    samples: Samples,
}

impl<'a> Bench<'a> {
    fn new(args: &'a Args, work: &'a Path) -> Self {
        Bench {
            args,
            w: &args.workload,
            cells: args.workload.cells(),
            work,
            ledger: Ledger::default(),
            spans: Spans::new(args.trace),
            samples: Samples::default(),
        }
    }

    fn seed_args(&self) -> Vec<String> {
        vec!["--seed".into(), self.args.seed.to_string()]
    }

    fn probe(&self) -> usize {
        self.cells
            .iter()
            .position(|c| c.app == self.w.probe_app && c.mode == "fbarre")
            .expect("the probe app is one of the workload's apps")
    }

    fn run(mut self) -> Result<bool, String> {
        println!(
            "perfbench workload={} seed={} seconds={} trace={}",
            self.w.name,
            self.args.seed,
            self.args.seconds,
            u8::from(self.args.trace)
        );
        println!(
            "host: {}",
            host_fingerprint(&self.args.root, &self.args.commit)
        );

        let reference = self.warm_up()?;
        let traced = if self.args.trace {
            Some(self.trace_cells(&reference)?)
        } else {
            None
        };

        let started = Instant::now();
        let budget = Duration::from_secs(self.args.seconds);
        let mut round = 0u32;
        let mut last = Duration::ZERO;
        while round == 0 || started.elapsed() + last <= budget {
            round += 1;
            self.spans.set_round(round);
            // Alternate rounds record spans, so the traced and untraced
            // rounds of one run show the tracer's own cost.
            self.spans.set_recording(self.args.trace && round % 2 == 1);
            let t = Instant::now();
            self.timed_round(round, &reference, traced.as_ref())?;
            last = t.elapsed();
        }
        let measured = started.elapsed().as_secs_f64();
        let peak_rss_mb = peak_rss_mb();

        let mut e2e = Metrics::default();
        self.end_to_end(&reference, peak_rss_mb, &mut e2e);
        let mut layer = Metrics::default();
        if let Some(t) = &traced {
            self.per_layer(&reference, t, &mut layer);
            let path = self.args.root.join(".bench_build").join("perfbench-spans");
            let file = path.join(format!("{}-seed{}.jsonl", self.w.name, self.args.seed));
            std::fs::create_dir_all(&path)
                .and_then(|_| std::fs::write(&file, self.spans.to_jsonl()))
                .map_err(|e| format!("write spans: {e}"))?;
            println!(
                "spans: {} written to {}",
                self.spans.spans().len(),
                file.display()
            );
            println!("tracing overhead: {}", self.tracing_overhead());
        }

        println!("rounds: {round} in {measured:.2} s");
        println!("operations (attempted/failed): {}", self.ledger.summary());
        for f in self.ledger.failures() {
            println!("FAILED {f}");
        }
        println!(
            "{:<36} {:>14} {:<6} {:>10}",
            "metric", "value", "unit", "iqr/med"
        );
        for (name, m) in e2e.0.iter().chain(layer.0.iter()) {
            let spread = m
                .spread
                .map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0));
            println!("{name:<36} {:>14.6} {:<6} {spread:>10}", m.value, m.unit);
        }
        for line in self.tail_notes() {
            println!("{line}");
        }
        let shown = if self.args.trace { &layer } else { &e2e };
        let correct = self.ledger.correct();
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.ledger.attempted(),
            self.ledger.failed(),
            shown.to_json()
        );
        Ok(correct)
    }

    /// Untimed warm-up: every cell once in-process (the reference
    /// metrics), `barre trace` exports of the probe cell, and one report.
    fn warm_up(&mut self) -> Result<Reference, String> {
        let mut metrics = Vec::new();
        for i in 0..self.cells.len() {
            let (m, _, _) = self.run_cell(i)?;
            let c = &self.cells[i];
            let errs = checks::counter_identities(&c.label(), &m, self.w.migration);
            self.ledger.checks("counter identities", errs);
            metrics.push(m);
        }
        for (a, app) in self.w.apps.iter().enumerate() {
            let runs: Vec<(String, &RunMetrics)> = (0..workload::MODES.len())
                .map(|k| (self.cells[a * 3 + k].label(), &metrics[a * 3 + k]))
                .collect();
            let runs: Vec<(&str, &RunMetrics)> =
                runs.iter().map(|(l, m)| (l.as_str(), *m)).collect();
            let errs = checks::same_work_across_modes(&runs);
            self.ledger
                .checks(&format!("{app} work across modes"), errs);
        }
        let digests: Vec<String> = metrics.iter().map(metrics_digest).collect();

        let p = self.probe();
        let mut paths = Vec::new();
        for ext in ["json", "jsonl"] {
            let path = self.work.join(format!("probe.{ext}"));
            let mut a = vec![
                "trace".to_string(),
                self.w.probe_app.to_string(),
                "--mode".into(),
                "fbarre".into(),
            ];
            a.extend(self.w.cli_flags());
            a.extend(self.seed_args());
            a.extend([
                "--window".into(),
                workload::TRACE_WINDOW.to_string(),
                "--out".into(),
                path.display().to_string(),
            ]);
            let out = cli::run(&self.args.barre, &a);
            let ok = self.ledger.op("cli_trace", out.is_ok(), || {
                out.clone().err().unwrap_or_default()
            });
            if ok {
                let cycles = out.as_ref().ok().and_then(|o| cli::traced_cycles(o));
                let want = metrics[p].total_cycles;
                let errs = match cycles {
                    Some(c) if c == want => vec![],
                    c => vec![format!(
                        "barre trace printed {c:?} cycles, in-process run {want}"
                    )],
                };
                self.ledger.checks("barre trace cycles", errs);
            }
            paths.push(path);
        }
        let report_table = match self.report(0, "jsonl", &paths[1]) {
            Some(rows) => {
                let errs = checks::stage_counts_match(&rows, &metrics[p]);
                self.ledger.checks("report stage counts", errs);
                rows
            }
            None => Vec::new(),
        };
        let jsonl_path = paths.pop().expect("two paths");
        let chrome_path = paths.pop().expect("two paths");
        Ok(Reference {
            metrics,
            digests,
            report_table,
            chrome_path,
            jsonl_path,
        })
    }

    /// Builds and runs cell `i`: (metrics, build time, run time).
    fn run_cell(&mut self, i: usize) -> Result<(RunMetrics, f64, f64), String> {
        let c = self.cells[i].clone();
        let label = c.label();
        let seed = self.args.seed;
        let (result, _) = self.spans.time("cell", &label, |sp| {
            let (machine, tb) = sp.time("build_machine", &label, |_| {
                build_machine(&[c.app.spec()], &c.cfg, seed)
            });
            let machine = machine?;
            let (m, tr) = sp.time("Machine::run", &label, |_| machine.run());
            Ok::<_, barre_system::SimError>((m?, tb.as_secs_f64(), tr.as_secs_f64()))
        });
        let result = result.map_err(|e| format!("{label}: {e}"));
        self.ledger.op("cells", result.is_ok(), || {
            result.as_ref().err().cloned().unwrap_or_default()
        });
        result
    }

    /// `--trace 1` set-up: every cell once under the program's own
    /// recorder (`trace_app`), for the stage histograms and event-queue
    /// counters, and to check that tracing is passive.
    fn trace_cells(&mut self, r: &Reference) -> Result<Traced, String> {
        let mut t = Traced::default();
        for (i, c) in self.cells.clone().iter().enumerate() {
            let label = c.label();
            let opts = TraceOptions {
                window: workload::TRACE_WINDOW,
                ..TraceOptions::default()
            };
            let seed = self.args.seed;
            let (res, _) = self.spans.time("trace_app", &label, |_| {
                trace_app(c.app, &c.cfg, seed, &opts)
            });
            let ok = self.ledger.op("cells", res.is_ok(), || {
                format!("{label} traced: {:?}", res.as_ref().err())
            });
            if !ok {
                continue;
            }
            let (m, rec) = res.map_err(|e| e.to_string())?;
            let errs = checks::digests_agree(
                &label,
                &r.digests[i],
                &[("traced run", &metrics_digest(&m))],
            );
            self.ledger.checks("tracing is passive", errs);
            for s in Stage::ALL {
                t.stages
                    .entry(s.name())
                    .or_default()
                    .merge(rec.stage_histogram(s));
            }
            if let Some(last) = rec.samples().last() {
                t.queue_spills += last.queue_spills;
                t.queue_growths += last.queue_growths;
            }
            if i == self.probe() {
                t.probe = Some(rec);
            }
        }
        Ok(t)
    }

    /// One timed round over every path.
    fn timed_round(
        &mut self,
        round: u32,
        r: &Reference,
        traced: Option<&Traced>,
    ) -> Result<(), String> {
        for i in 0..self.cells.len() {
            let label = self.cells[i].label();
            let (m, tb, tr) = self.run_cell(i)?;
            let errs =
                checks::digests_agree(&label, &r.digests[i], &[("timed run", &metrics_digest(&m))]);
            self.ledger.checks("deterministic", errs);
            self.samples.push(format!("build/{label}"), round, tb);
            self.samples.push(format!("run/{label}"), round, tr);
        }
        for (kind, path) in [("chrome", &r.chrome_path), ("jsonl", &r.jsonl_path)] {
            if let Some(rows) = self.report(round, kind, path) {
                let errs = if rows == r.report_table {
                    vec![]
                } else {
                    vec![format!(
                        "{kind} report's stage table differs from the warm-up's"
                    )]
                };
                self.ledger.checks("report tables agree", errs);
            }
        }
        if let Some(t) = traced {
            self.exports(round, r, t);
        }
        self.supervised_sweep(round, r)?;
        self.serve_session(round, r)?;
        Ok(())
    }

    /// `barre report <file>`, timed; its stage table when it succeeded.
    fn report(
        &mut self,
        round: u32,
        kind: &'static str,
        path: &Path,
    ) -> Option<Vec<checks::StageRow>> {
        let a = self.args;
        let argv = ["report".to_string(), path.display().to_string()];
        let (out, d) = self
            .spans
            .time("barre report", kind, |_| cli::run(&a.barre, &argv));
        self.samples
            .push(format!("report/{kind}"), round, d.as_secs_f64());
        let table = out.and_then(|o| checks::parse_stage_table(&o));
        let ok = self.ledger.op("reports", table.is_ok(), || {
            format!(
                "{}: {}",
                path.display(),
                table.clone().err().unwrap_or_default()
            )
        });
        ok.then(|| table.ok()).flatten()
    }

    /// In-process export of the probe cell's trace in both formats, and
    /// the program's JSON reader on the Chrome export (the reader
    /// `barre report` uses).
    fn exports(&mut self, round: u32, r: &Reference, t: &Traced) {
        let Some(rec) = t.probe.as_deref() else {
            return;
        };
        let c = &self.cells[self.probe()];
        let meta = TraceMeta {
            app: c.app.name().to_string(),
            mode: c.cfg.mode.label(),
            seed: self.args.seed,
            window: workload::TRACE_WINDOW as u64,
        };
        let (doc, d) = self.spans.time("export::chrome_trace", "probe", |_| {
            chrome_trace(rec, &meta)
        });
        self.samples.push("export_chrome", round, d.as_secs_f64());
        let (lines, d) = self
            .spans
            .time("export::jsonl", "probe", |_| jsonl(rec, &meta));
        self.samples.push("export_jsonl", round, d.as_secs_f64());
        self.samples
            .push("chrome_mb", round, doc.len() as f64 / 1e6);
        let (parsed, d) = self
            .spans
            .time("Json::parse", "chrome", |_| Json::parse(&doc));
        self.samples.push("json_parse", round, d.as_secs_f64());
        self.ledger.op("json_parse", parsed.is_ok(), || {
            format!("{:?}", parsed.err())
        });
        let same = |p: &Path, s: &str| std::fs::read_to_string(p).is_ok_and(|f| f == s);
        let mut errs = Vec::new();
        if !same(&r.chrome_path, &doc) || !same(&r.jsonl_path, &lines) {
            errs.push("in-process export differs from the barre trace file".to_string());
        }
        self.ledger.checks("exports agree", errs);
    }

    /// `barre sweep --supervise --mode fbarre` over the workload's apps:
    /// one child process per (app, baseline|fbarre) job, plus the journal.
    fn supervised_sweep(&mut self, round: u32, r: &Reference) -> Result<(), String> {
        let a = self.args;
        let dir = cli::fresh_dir(self.work, &format!("journal-{round}"))?;
        let apps: Vec<String> = self.w.apps.iter().map(|a| a.to_string()).collect();
        let mut argv: Vec<String> = [
            "sweep",
            "--supervise",
            "--jobs",
            "1",
            "--timeout",
            "120",
            "--journal",
        ]
        .map(String::from)
        .to_vec();
        argv.push(dir.display().to_string());
        argv.extend([
            "--apps".to_string(),
            apps.join(","),
            "--mode".into(),
            "fbarre".into(),
        ]);
        argv.extend(self.w.cli_flags());
        argv.extend(self.seed_args());
        let (out, d) = self.spans.time("barre sweep --supervise", "fbarre", |_| {
            cli::run(&a.barre, &argv)
        });
        self.samples.push("sweep", round, d.as_secs_f64());
        let journal =
            std::fs::read_to_string(dir.join(barre_system::JOURNAL_FILE)).unwrap_or_default();
        let done: BTreeMap<&str, &str> = journal
            .lines()
            .filter(|l| cli::json_field(l, "event") == Some("done"))
            .filter_map(|l| Some((cli::json_field(l, "label")?, cli::json_field(l, "digest")?)))
            .collect();
        let mut rows = Vec::new();
        for (k, app) in self.w.apps.iter().enumerate() {
            let (base, fb) = (k * 3, k * 3 + 2);
            for i in [base, fb] {
                let label = self.cells[i].label();
                let got = done.get(label.as_str()).copied();
                if self.ledger.op("supervised_jobs", got.is_some(), || {
                    format!("{label}: no done record ({:?})", out.as_ref().err())
                }) {
                    let errs = checks::digests_agree(
                        &label,
                        &r.digests[i],
                        &[("journal", got.unwrap_or(""))],
                    );
                    self.ledger.checks("supervised digests", errs);
                }
            }
            rows.push((
                app.to_string(),
                r.metrics[base].total_cycles,
                r.metrics[fb].total_cycles,
            ));
        }
        if let Ok(o) = &out {
            let errs = checks::sweep_output_matches(o, &rows, speedups(&r.metrics).1);
            self.ledger.checks("sweep table and geomean", errs);
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    /// A fresh `barre serve` (empty cache, one worker), one client on
    /// one persistent connection: the probe cell cold, then repeated.
    fn serve_session(&mut self, round: u32, r: &Reference) -> Result<(), String> {
        let a = self.args;
        let cache = cli::fresh_dir(self.work, &format!("serve-cache-{round}"))?;
        let daemon = cli::Daemon::start(&a.barre, &cache, 1);
        let Ok(daemon) = daemon else {
            self.ledger
                .op("serve_start", false, || daemon.err().unwrap_or_default());
            return Ok(());
        };
        self.ledger.op("serve_start", true, String::new);
        let mut client = match daemon.connect() {
            Ok(c) => c,
            Err(e) => {
                self.ledger.op("serve_connect", false, || e);
                return Ok(());
            }
        };
        let p = self.probe();
        let req = self
            .w
            .serve_request(self.w.probe_app, "fbarre", self.args.seed);
        let (cold, d) = self
            .spans
            .time("serve request", "cold", |_| client.request(&req));
        self.samples
            .push("serve_cold", round, d.as_secs_f64() * 1e3);
        let Some(cold) = self.serve_status(cold) else {
            return Ok(());
        };
        let digest = cli::json_field(&cold, "digest").unwrap_or("");
        let errs = checks::digests_agree("serve", &r.digests[p], &[("serve", digest)]);
        self.ledger.checks("serve digest", errs);

        let before = self.stats(&daemon);
        for _ in 0..workload::CACHED_REQUESTS {
            let (resp, d) = self
                .spans
                .time("serve request", "cached", |_| client.request(&req));
            self.samples
                .push("serve_cached", round, d.as_secs_f64() * 1e3);
            if let Some(resp) = self.serve_status(resp) {
                let errs = if resp == cold {
                    vec![]
                } else {
                    vec!["cached response differs from the cold one".to_string()]
                };
                self.ledger.checks("serve cache byte-identity", errs);
            }
        }
        let after = self.stats(&daemon);
        if let (Some((c1, m1)), Some((c2, m2))) = (before, after) {
            if c2 > c1 {
                let handler = (m2 * c2 as f64 - m1 * c1 as f64) / (c2 - c1) as f64;
                self.samples.push("handler_ms", round, handler.max(0.0));
            }
        }
        drop(client);
        drop(daemon);
        let _ = std::fs::remove_dir_all(&cache);
        Ok(())
    }

    /// Counts a serve response under its status; the line when `ok`.
    fn serve_status(&mut self, resp: Result<String, String>) -> Option<String> {
        let status = match &resp {
            Ok(line) => cli::json_field(line, "status")
                .unwrap_or("unparsable")
                .to_string(),
            Err(_) => "transport".to_string(),
        };
        let ok = status == "ok";
        self.ledger
            .op(&format!("serve_{status}"), ok, || format!("{resp:?}"));
        ok.then(|| resp.ok()).flatten()
    }

    fn stats(&mut self, daemon: &cli::Daemon) -> Option<(u64, f64)> {
        let (body, _) = self.spans.time("/stats", "", |_| daemon.stats());
        let lat = body.as_ref().ok().and_then(|b| cli::stats_latency(b));
        self.ledger
            .op("serve_stats", lat.is_some(), || format!("{body:?}"));
        lat
    }

    /// Per-cell median over rounds of `build/…` or `run/…`.
    fn cell_medians(&self, what: &str) -> Vec<f64> {
        self.cells
            .iter()
            .map(|c| self.samples.median(&format!("{what}/{}", c.label())))
            .collect()
    }

    /// Per-round sum over cells of `build/…` or `run/…` (rounds where
    /// every cell has a sample).
    fn round_sums(&self, what: &str, keep: impl Fn(u32) -> bool + Copy) -> Vec<f64> {
        let per_cell: Vec<Vec<f64>> = self
            .cells
            .iter()
            .map(|c| self.samples.values(&format!("{what}/{}", c.label()), keep))
            .collect();
        let n = per_cell.iter().map(Vec::len).min().unwrap_or(0);
        (0..n)
            .map(|k| per_cell.iter().map(|v| v[k]).sum())
            .collect()
    }

    fn end_to_end(&self, r: &Reference, rss: f64, m: &mut Metrics) {
        let wi: u64 = r.metrics.iter().map(|m| m.warp_instructions).sum();
        let run: f64 = self.cell_medians("run").iter().sum();
        let per_round: Vec<f64> = self
            .round_sums("run", |r| r > 0)
            .iter()
            .map(|s| wi as f64 / s)
            .collect();
        m.add(
            "warp_inst_per_s",
            wi as f64 / run,
            "1/s",
            stats::iqr_share(&per_round),
        );
        let setup: f64 = self.cell_medians("build").iter().sum();
        m.add(
            "setup_s",
            setup,
            "s",
            stats::iqr_share(&self.round_sums("build", |r| r > 0)),
        );
        m.add("peak_rss_mb", rss, "MB", None);
        let (barre, fbarre) = speedups(&r.metrics);
        m.add("fbarre_speedup", fbarre, "x", None);
        m.add("barre_speedup", barre, "x", None);
        for (name, key, unit) in [
            ("report_s", "report/chrome", "s"),
            ("serve_cold_ms", "serve_cold", "ms"),
            ("serve_cached_ms", "serve_cached", "ms"),
            ("supervised_sweep_s", "sweep", "s"),
        ] {
            m.add(
                name,
                self.samples.median(key),
                unit,
                stats::iqr_share(&self.samples.all(key)),
            );
        }
    }

    /// Median over traced rounds of the spans `name`/`key`, seconds.
    fn span_median(&self, name: &str, key: &str) -> f64 {
        median(&self.spans.durations(name, key)).unwrap_or(0.0)
    }

    fn per_layer(&self, r: &Reference, t: &Traced, m: &mut Metrics) {
        let sum = |f: fn(&RunMetrics) -> u64| r.metrics.iter().map(f).sum::<u64>() as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let labels: Vec<String> = self.cells.iter().map(Cell::label).collect();
        let span_sum = |name: &str, cells: &[&String]| -> f64 {
            cells.iter().map(|l| self.span_median(name, l)).sum()
        };
        let all: Vec<&String> = labels.iter().collect();
        let run = span_sum("Machine::run", &all);
        let events = sum(|m| m.events_processed);
        let wi = sum(|m| m.warp_instructions);
        m.add(
            "system.build_machine_s",
            span_sum("build_machine", &all),
            "s",
            None,
        );
        m.add("system.run_s", run, "s", None);
        m.add(
            "system.run_ns_per_event",
            ratio(run * 1e9, events),
            "ns",
            None,
        );
        m.add("sim.events", events, "count", None);
        m.add(
            "sim.events_per_kwarp_inst",
            ratio(events * 1e3, wi),
            "count",
            None,
        );
        m.add("sim.queue_spills", t.queue_spills as f64, "count", None);
        m.add("sim.queue_growths", t.queue_growths as f64, "count", None);
        let counters: [Counter; 12] = [
            ("tlb.l1_lookups", |m| m.l1_tlb_lookups, "count"),
            ("tlb.l1_misses", |m| m.l1_tlb_misses, "count"),
            ("tlb.l2_misses", |m| m.l2_tlb_misses, "count"),
            ("iommu.ats_requests", |m| m.ats_requests, "count"),
            ("iommu.walks", |m| m.walks, "count"),
            ("iommu.ptw_busy_cycles", |m| m.ptw_busy_cycles, "cycles"),
            (
                "iommu.pw_queue_rejections",
                |m| m.pw_queue_rejections,
                "count",
            ),
            (
                "core.coalesced_translations",
                |m| m.coalesced_translations,
                "count",
            ),
            (
                "core.intra_mcm_translations",
                |m| m.intra_mcm_translations,
                "count",
            ),
            ("filters.updates_sent", |m| m.filter_updates_sent, "count"),
            (
                "filters.updates_dropped",
                |m| m.filter_updates_dropped,
                "count",
            ),
            ("filters.peer_probes", |m| m.peer_probes, "count"),
        ];
        for (name, f, unit) in counters {
            m.add(name, sum(f), unit, None);
        }
        let mut ats: BTreeMap<u64, u64> = BTreeMap::new();
        for run in &r.metrics {
            for (bound, n) in run.ats_latency.buckets() {
                *ats.entry(bound).or_default() += n;
            }
        }
        let ats: Vec<(u64, u64)> = ats.into_iter().collect();
        for (name, q) in [
            ("iommu.ats_latency_p50_cy", 0.5),
            ("iommu.ats_latency_p99_cy", 0.99),
        ] {
            let v = stats::pow2_quantile(&ats, q).unwrap_or(0);
            m.add(name, v as f64, "cycles", None);
        }
        let probes = sum(|m| m.peer_probes);
        let probe_ok = ratio(probes - sum(|m| m.peer_probe_nacks), probes);
        m.add("filters.peer_probe_success_ratio", probe_ok, "ratio", None);
        let lcf = ratio(sum(|m| m.lcf_true_hits), sum(|m| m.lcf_hits));
        m.add("filters.lcf_true_hit_ratio", lcf, "ratio", None);
        m.add("gpu.mesh_bytes", sum(|m| m.mesh_bytes), "bytes", None);
        let remote = ratio(sum(|m| m.remote_data_accesses), sum(|m| m.data_accesses));
        m.add("gpu.remote_data_ratio", remote, "ratio", None);
        m.add("mapping.migrations", sum(|m| m.migrations), "count", None);
        for (which, q) in [("p50", 0.5), ("p99", 0.99)] {
            for s in Stage::ALL {
                let h = t.stages.get(s.name()).filter(|h| h.count() > 0);
                let v = h.map_or(0, |h| h.quantile(q)) as f64;
                m.add(
                    format!("trace.stage_{which}_cy.{}", s.name()),
                    v,
                    "cycles",
                    None,
                );
            }
        }
        // `trace_app` runs once per cell, in the set-up (round 0).
        let traced: f64 = self
            .spans
            .spans()
            .iter()
            .filter(|s| s.name == "trace_app")
            .map(spans::Span::secs)
            .sum();
        m.add("trace.run_traced_s", traced, "s", None);
        let host = [
            ("trace.export_chrome_s", "export::chrome_trace", "probe"),
            ("trace.export_jsonl_s", "export::jsonl", "probe"),
        ];
        for (name, span, key) in host {
            m.add(name, self.span_median(span, key), "s", None);
        }
        m.add(
            "trace.chrome_mb",
            self.samples.median("chrome_mb"),
            "MB",
            None,
        );
        m.add(
            "system.json_parse_s",
            self.span_median("Json::parse", "chrome"),
            "s",
            None,
        );
        m.add(
            "cli.report_jsonl_s",
            self.span_median("barre report", "jsonl"),
            "s",
            None,
        );
        // The supervised sweep runs the baseline and F-Barre cells.
        let swept: Vec<&String> = labels
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 1)
            .map(|p| p.1)
            .collect();
        let inproc = span_sum("build_machine", &swept) + span_sum("Machine::run", &swept);
        let sweep = self.span_median("barre sweep --supervise", "fbarre");
        let per_job = (sweep - inproc) * 1e3 / swept.len() as f64;
        m.add("cli.supervisor_job_ms", per_job, "ms", None);
        let handler = self.samples.median("handler_ms");
        m.add("serve.handler_ms", handler, "ms", None);
        let cached = self.span_median("serve request", "cached") * 1e3;
        m.add("serve.transport_ms", cached - handler, "ms", None);
        let probe = &labels[self.probe()];
        let probe_inproc =
            self.span_median("build_machine", probe) + self.span_median("Machine::run", probe);
        let cold = self.span_median("serve request", "cold");
        m.add(
            "serve.cold_overhead_ms",
            (cold - probe_inproc) * 1e3,
            "ms",
            None,
        );
    }

    /// In-process pass time on traced rounds against untraced ones.
    fn tracing_overhead(&self) -> String {
        let pass = |keep: fn(u32) -> bool| -> Option<f64> {
            let b = self.round_sums("build", keep);
            let r = self.round_sums("run", keep);
            let both: Vec<f64> = b.iter().zip(&r).map(|(x, y)| x + y).collect();
            median(&both)
        };
        match (pass(|r| r % 2 == 1), pass(|r| r > 0 && r % 2 == 0)) {
            (Some(t), Some(u)) => format!(
                "in-process pass {t:.4} s traced vs {u:.4} s untraced ({:+.2}%)",
                (t - u) / u * 100.0
            ),
            _ => "n/a (needs a traced and an untraced round)".to_string(),
        }
    }

    /// Sample counts and tail percentiles of the per-request timings,
    /// and the two known slow paths side by side.
    fn tail_notes(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, key) in [
            ("serve_cached_ms", "serve_cached"),
            ("serve_cold_ms", "serve_cold"),
            ("report_s", "report/chrome"),
            ("supervised_sweep_s", "sweep"),
        ] {
            let v = self.samples.all(key);
            let mut line = format!(
                "{name}: n={} median={:.4}",
                v.len(),
                median(&v).unwrap_or(0.0)
            );
            // The highest percentile with at least ten samples beyond it.
            for (p, min_n) in [(0.9, 100), (0.75, 40)] {
                if v.len() >= min_n {
                    let mut s = v.clone();
                    s.sort_by(f64::total_cmp);
                    let idx = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len()) - 1;
                    let _ = write!(line, " p{}={:.4}", (p * 100.0) as u32, s[idx]);
                    break;
                }
            }
            out.push(line);
        }
        out.push(format!(
            "slow paths: report chrome {:.4} s vs jsonl {:.4} s on the same trace; serve cached {:.3} ms vs handler {:.3} ms",
            self.samples.median("report/chrome"),
            self.samples.median("report/jsonl"),
            self.samples.median("serve_cached"),
            self.samples.median("handler_ms"),
        ));
        out
    }
}

/// `(barre, fbarre)` geomean speedups over the apps: baseline cycles ÷
/// mode cycles, computed here from `total_cycles` (cells are app-major:
/// baseline, barre, fbarre).
fn speedups(metrics: &[RunMetrics]) -> (f64, f64) {
    let ratios = |k: usize| -> Vec<f64> {
        metrics
            .chunks_exact(3)
            .map(|c| c[0].total_cycles as f64 / c[k].total_cycles as f64)
            .collect()
    };
    (
        stats::geomean(&ratios(1)).unwrap_or(0.0),
        stats::geomean(&ratios(2)).unwrap_or(0.0),
    )
}

/// A per-layer count: metric name, the `RunMetrics` field summed over
/// the cells, unit.
type Counter = (&'static str, fn(&RunMetrics) -> u64, &'static str);

/// What the `--trace 1` set-up pass collects.
#[derive(Default)]
struct Traced {
    stages: BTreeMap<&'static str, LatencyHistogram>,
    queue_spills: u64,
    queue_growths: u64,
    probe: Option<Box<TraceRecorder>>,
}

struct Metric {
    value: f64,
    unit: &'static str,
    spread: Option<f64>,
}

/// Metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(String, Metric)>);

impl Metrics {
    fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        spread: Option<f64>,
    ) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((
            name.into(),
            Metric {
                value,
                unit,
                spread,
            },
        ));
    }

    fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, m)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.value, m.unit
            );
        }
        s.push('}');
        s
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU model, core count, rustc version, commit and a digest of the
/// simulator's sources: enough to tell a slower machine from a slower
/// program.
fn host_fingerprint(root: &Path, commit: &str) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown cpu".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "rustc unknown".into());
    format!(
        "cpu=\"{cpu}\" nproc={nproc} rustc=\"{rustc}\" commit={commit} sources={}",
        source_digest(root)
    )
}

/// FNV-1a over the paths and bytes of every file under `crates/` and
/// the root manifests, in sorted order.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f).display().to_string();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
