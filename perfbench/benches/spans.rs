//! The benchmark's own tracer: one span (name, key, start, end, parent)
//! around each call into a layer, kept in memory and written out when
//! the run ends. With recording off, [`Spans::time`] still measures
//! the call, so the untimed and timed paths run the same code.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer entry point, e.g. `build_machine`.
    pub name: &'static str,
    /// What the call worked on (a cell label, a file kind); may be empty.
    pub key: String,
    /// Timed round the span belongs to (0 = set-up and warm-up).
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Spans::spans`].
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder.
pub struct Spans {
    recording: bool,
    t0: Instant,
    round: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(recording: bool) -> Self {
        Self {
            recording,
            t0: Instant::now(),
            round: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Runs `f`, returning its result and its wall time; records a span
    /// named `name` (a child of the innermost open span) when recording.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        key: &str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, Duration) {
        let slot = self.recording.then(|| {
            self.spans.push(Span {
                name,
                key: key.to_string(),
                round: self.round,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            let i = self.spans.len() - 1;
            self.open.push(i);
            i
        });
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = slot {
            self.open.pop();
            self.spans[i].start_ns = self.since_t0(start);
            self.spans[i].end_ns = self.since_t0(end);
        }
        (out, end - start)
    }

    fn since_t0(&self, t: Instant) -> u64 {
        u64::try_from((t - self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of the spans called `name` with key `key`,
    /// per timed round (round 0 excluded).
    pub fn durations(&self, name: &str, key: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.key == key && s.round > 0)
            .map(Span::secs)
            .collect()
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"key\":\"{}\",\"round\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.key, s.round, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_rounds() {
        let mut sp = Spans::new(true);
        sp.set_round(1);
        let (v, _) = sp.time("outer", "a", |sp| sp.time("inner", "b", |_| 7).0);
        assert_eq!(v, 7);
        let s = sp.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(sp.durations("inner", "b").len(), 1);
        assert_eq!(sp.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn recording_off_still_times() {
        let mut sp = Spans::new(false);
        let (_, d) = sp.time("x", "", |_| std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
        assert!(sp.spans().is_empty());
    }
}
