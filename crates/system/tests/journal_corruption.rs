//! Property-style corruption tests for the journal readers.
//!
//! A write-ahead journal's failure mode is not "clean file or no file" —
//! it is torn tails, bit rot, duplicated appends from a crashed retry,
//! and editor accidents. These tests machine-generate those corruptions
//! from a seeded in-test RNG and pin the contract on both readers:
//!
//! * [`barre_system::read_journal`] (strict, sweep resume): never
//!   panics — every corruption maps to `Ok` (tolerated torn tail) or
//!   `Err(Malformed)`, nothing else.
//! * [`barre_system::read_journal_lenient`] + [`verified_done_index`]
//!   (the serve cache loader): never errors on corrupt *content*,
//!   skips-and-counts bad lines, and never yields a `done` record whose
//!   digest fails verification — a digest-failing record must be
//!   dropped, not served.
//! * [`barre_trace::json::Json::parse`] (the codec under both): seeded
//!   truncations, bit flips and garbage splices over the journal, trace
//!   and lint document shapes always come back `Ok` or `Err`.

use std::path::PathBuf;

use barre_system::{
    metrics_digest, metrics_hist_digest, read_journal, read_journal_lenient, verified_done_index,
    JournalError, JournalEvent, JournalRecord, JournalWriter, RunMetrics,
};
use barre_trace::export::{chrome_trace, TraceMeta};
use barre_trace::json::Json;
use barre_trace::{Stage, StageMask, TraceOptions, Tracer};

/// Deterministic split-mix style generator so every corruption is
/// reproducible from its seed — no ambient entropy in tests either.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn metrics(cycles: u64) -> RunMetrics {
    let mut m = RunMetrics {
        total_cycles: cycles,
        walks: cycles / 10,
        ..Default::default()
    };
    m.ats_latency.record(cycles);
    m.ats_latency.record(cycles / 2 + 1);
    m.vpn_gap.record(3);
    m
}

/// Writes a clean journal of `n` jobs (start + done each) and returns
/// its bytes.
fn clean_journal(dir: &std::path::Path, n: usize) -> Vec<u8> {
    let path = dir.join("journal.jsonl");
    let writer = JournalWriter::open(&path).expect("open journal");
    for i in 0..n {
        let fp = format!("fp{i:02}");
        let label = format!("app{i}/barre");
        writer
            .append(&JournalRecord {
                fingerprint: fp.clone(),
                label: label.clone(),
                event: JournalEvent::Start { attempt: 1 },
            })
            .expect("start");
        let m = Box::new(metrics(100 + i as u64 * 37));
        writer
            .append(&JournalRecord {
                fingerprint: fp,
                label,
                event: JournalEvent::Done {
                    attempts: 1,
                    exit: "ok".to_string(),
                    digest: metrics_digest(&m),
                    hist_digest: Some(metrics_hist_digest(&m)),
                    worker: None,
                    metrics: m,
                },
            })
            .expect("done");
    }
    std::fs::read(&path).expect("read back")
}

/// One seeded corruption of a clean journal body.
fn corrupt(rng: &mut Rng, clean: &[u8]) -> Vec<u8> {
    let mut bytes = clean.to_vec();
    match rng.below(4) {
        // Torn tail / mid-file truncation at an arbitrary byte.
        0 => {
            let cut = rng.below(bytes.len());
            bytes.truncate(cut);
        }
        // Single bit flip anywhere (steering clear of flipping a byte
        // into `\n`, which would just split a line).
        1 => {
            let at = rng.below(bytes.len());
            let bit = 1u8 << rng.below(8);
            if bytes[at] ^ bit != b'\n' && bytes[at] != b'\n' {
                bytes[at] ^= bit;
            } else {
                bytes[at] = b'#';
            }
        }
        // Duplicate one whole line mid-file (a crashed retry re-append).
        2 => {
            let lines: Vec<&[u8]> = clean.split(|&b| b == b'\n').collect();
            let pick = rng.below(lines.len().saturating_sub(1));
            let insert_at = rng.below(lines.len().saturating_sub(1));
            let mut out = Vec::with_capacity(bytes.len() * 2);
            for (i, line) in lines.iter().enumerate() {
                if line.is_empty() {
                    continue;
                }
                out.extend_from_slice(line);
                out.push(b'\n');
                if i == insert_at {
                    out.extend_from_slice(lines[pick]);
                    out.push(b'\n');
                }
            }
            bytes = out;
        }
        // Splice a garbage line into the middle.
        _ => {
            let newlines: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter_map(|(i, &b)| (b == b'\n').then_some(i))
                .collect();
            let at = newlines[rng.below(newlines.len())] + 1;
            let garbage: &[u8] = match rng.below(3) {
                0 => b"{\"event\":\"done\",\"finge\n",
                1 => b"!!! NOT JSON !!!\n",
                _ => b"{\"event\":\"unknown\",\"fingerprint\":\"x\",\"label\":\"y\"}\n",
            };
            bytes.splice(at..at, garbage.iter().copied());
        }
    }
    bytes
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("barre-jcorrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

#[test]
fn corrupted_journals_never_panic_and_never_serve_bad_digests() {
    let dir = tmpdir("prop");
    let clean = clean_journal(&dir, 6);
    let path = dir.join("corrupt.jsonl");
    for seed in 0..64u64 {
        let mut rng = Rng(seed);
        let bytes = corrupt(&mut rng, &clean);
        std::fs::write(&path, &bytes).expect("write corrupt");

        // Strict reader: Ok (torn-tail tolerated), Malformed (interior
        // corruption), or Io (bit rot broke UTF-8) — it must classify,
        // not crash.
        match read_journal(&path) {
            Ok(_) | Err(JournalError::Malformed { .. }) | Err(JournalError::Io(_)) => {}
            Err(other) => panic!("seed {seed}: unexpected strict error {other}"),
        }

        // Lenient reader: corruption is never an error, only skips.
        let (records, _skipped) =
            read_journal_lenient(&path).unwrap_or_else(|e| panic!("seed {seed}: lenient {e}"));

        // The cache loader must keep only digest-true done records.
        let (index, _dropped) = verified_done_index(&records);
        for rec in index.values() {
            match &rec.event {
                JournalEvent::Done {
                    digest,
                    hist_digest,
                    metrics,
                    ..
                } => {
                    assert_eq!(
                        *digest,
                        metrics_digest(metrics),
                        "seed {seed}: served a digest-failing record"
                    );
                    if let Some(h) = hist_digest {
                        assert_eq!(
                            *h,
                            metrics_hist_digest(metrics),
                            "seed {seed}: served a hist-digest-failing record"
                        );
                    }
                }
                other => panic!("seed {seed}: non-done record in done index: {other:?}"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicated_done_records_resolve_last_wins_without_error() {
    let dir = tmpdir("dup");
    let clean = clean_journal(&dir, 3);
    let text = String::from_utf8(clean).expect("utf8");
    // Re-append every done line once more, mid-file and at the end.
    let done_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"event\":\"done\""))
        .collect();
    let mut doubled = text.clone();
    for l in &done_lines {
        doubled.push_str(l);
        doubled.push('\n');
    }
    let path = dir.join("doubled.jsonl");
    std::fs::write(&path, &doubled).expect("write");
    let (records, skipped) = read_journal_lenient(&path).expect("lenient");
    assert_eq!(skipped, 0);
    let (index, dropped) = verified_done_index(&records);
    assert_eq!(dropped, 0);
    assert_eq!(
        index.len(),
        3,
        "one entry per fingerprint, duplicates folded"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bitflipped_metrics_are_dropped_from_the_verified_index() {
    let dir = tmpdir("flip");
    let clean = clean_journal(&dir, 2);
    let text = String::from_utf8(clean).expect("utf8");
    // Corrupt fp00's recorded cycles: still valid JSON, digest now lies.
    let flipped = text.replace("\"total_cycles\":100,", "\"total_cycles\":104,");
    assert_ne!(text, flipped, "corruption must land");
    let path = dir.join("flipped.jsonl");
    std::fs::write(&path, &flipped).expect("write");
    let (records, skipped) = read_journal_lenient(&path).expect("lenient");
    assert_eq!(skipped, 0, "the line still parses");
    let (index, dropped) = verified_done_index(&records);
    assert_eq!(dropped, 1, "digest mismatch must be dropped");
    assert!(!index.contains_key("fp00"));
    assert!(index.contains_key("fp01"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small Chrome-trace export: spans on two chiplets plus histograms.
fn trace_doc() -> String {
    let mut t = Tracer::recording(&TraceOptions {
        window: 16,
        filter: StageMask::all(),
    });
    for (i, stage) in Stage::ALL.iter().enumerate() {
        let i = i as u64;
        t.span(*stage, i, (i % 2) as u16, 10 * i, 10 * i + 7 + i * i);
    }
    let rec = t.take_recorder().expect("recording tracer");
    let meta = TraceMeta {
        app: "gups".into(),
        mode: "fbarre".into(),
        seed: 7,
        window: 16,
    };
    chrome_trace(&rec, &meta)
}

/// The codec itself, on the three document shapes it reads in practice:
/// it must return (`Ok` or `Err`) on every mutation, never panic or
/// overflow the stack.
#[test]
fn json_reader_never_panics_on_mutated_documents() {
    let dir = tmpdir("json");
    let journal = String::from_utf8(clean_journal(&dir, 2)).expect("utf8");
    let done_line = journal
        .lines()
        .find(|l| l.contains("\"event\":\"done\""))
        .expect("a done record")
        .to_string();
    let shapes = [
        ("journal", done_line),
        ("trace", trace_doc()),
        (
            "lint",
            include_str!("../../../lint-baseline.json").to_string(),
        ),
    ];
    let deep = "[".repeat(100_000);
    let garbage: [&[u8]; 9] = [
        deep.as_bytes(),
        b"{\"a\":{\"a\":{\"a\":",
        b"\\u",
        b"\\ud800",
        b"\"",
        b"\\",
        b",,]}",
        b"-1e",
        b"\xff\xfe\x00",
    ];
    for (shape, doc) in &shapes {
        assert!(
            Json::parse(doc).is_ok(),
            "{shape}: clean document must parse"
        );
        let bytes = doc.as_bytes();
        for seed in 0..64u64 {
            let mut rng = Rng(seed ^ 0x4a53_4f4e);
            let parses = |b: &[u8]| Json::parse(&String::from_utf8_lossy(b)).is_ok();

            // A cut document is only complete if all it lost was the
            // trailing whitespace.
            let at = rng.below(bytes.len());
            let whole = bytes[at..].iter().all(u8::is_ascii_whitespace);
            assert_eq!(
                parses(&bytes[..at]),
                whole,
                "{shape} seed {seed}: cut at {at}"
            );

            // Bit flips and splices (including nesting far past the cap)
            // may go either way; returning at all is the property.
            let mut flipped = bytes.to_vec();
            for _ in 0..=rng.below(3) {
                let at = rng.below(flipped.len());
                flipped[at] ^= 1u8 << rng.below(8);
            }
            parses(&flipped);
            let mut spliced = bytes.to_vec();
            let at = rng.below(spliced.len() + 1);
            let junk = garbage[rng.below(garbage.len())];
            spliced.splice(at..at, junk.iter().copied());
            parses(&spliced);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
