//! Output checks and per-run accounting.
//!
//! Every check is either computed apart from the program (the geomean,
//! the report-table parse) or follows from a property the method must
//! have (conservation of translations, work independent of the
//! translation mode, the same simulation giving the same digest on
//! every path). None compares against a recorded output.

use std::collections::BTreeMap;

use barre_system::RunMetrics;

/// Attempted and failed operations per kind, plus the failed checks'
/// descriptions.
#[derive(Debug, Default)]
pub struct Ledger {
    kinds: BTreeMap<String, (u64, u64)>,
    failures: Vec<String>,
}

impl Ledger {
    /// Counts one operation of `kind`; a failure is described by `why`.
    pub fn op(&mut self, kind: &str, ok: bool, why: impl FnOnce() -> String) -> bool {
        let e = self.kinds.entry(kind.to_string()).or_default();
        e.0 += 1;
        if !ok {
            e.1 += 1;
            self.failures.push(format!("{kind}: {}", why()));
        }
        ok
    }

    /// Counts one check per item of `errors` plus one for the group;
    /// each error is a failed check.
    pub fn checks(&mut self, what: &str, errors: Vec<String>) {
        if errors.is_empty() {
            self.op("checks", true, String::new);
        }
        for e in errors {
            self.op("checks", false, || format!("{what}: {e}"));
        }
    }

    pub fn attempted(&self) -> u64 {
        self.kinds.values().map(|k| k.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.kinds.values().map(|k| k.1).sum()
    }

    /// True while no check has failed.
    pub fn correct(&self) -> bool {
        self.kinds.get("checks").is_none_or(|k| k.1 == 0)
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// `kind attempted/failed` per kind, one line.
    pub fn summary(&self) -> String {
        self.kinds
            .iter()
            .map(|(k, (a, f))| format!("{k} {a}/{f}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Warp instructions, warp memory instructions and data accesses depend
/// on the app and seed only, never on the translation mode.
pub fn same_work_across_modes(runs: &[(&str, &RunMetrics)]) -> Vec<String> {
    let Some((first_label, first)) = runs.first() else {
        return vec!["no runs".to_string()];
    };
    let key = |m: &RunMetrics| {
        (
            m.warp_instructions,
            m.warp_mem_instructions,
            m.data_accesses,
        )
    };
    runs.iter()
        .filter(|(_, m)| key(m) != key(first))
        .map(|(l, m)| {
            format!(
                "{l} did (warp inst, warp mem inst, data accesses) {:?}, {first_label} {:?}",
                key(m),
                key(first)
            )
        })
        .collect()
}

/// Conservation of translations along the path: every L1 miss is an L2
/// lookup, and every ATS request is answered by exactly one walk or one
/// calculation. Without migration every L2 miss also leaves the chiplet
/// as an ATS request or is resolved inside the MCM; migration's
/// shootdowns break that last identity, so `migration` skips it.
pub fn counter_identities(label: &str, m: &RunMetrics, migration: bool) -> Vec<String> {
    let mut e = Vec::new();
    if m.l1_tlb_misses != m.l2_tlb_lookups {
        e.push(format!(
            "{label}: l1_tlb_misses {} != l2_tlb_lookups {}",
            m.l1_tlb_misses, m.l2_tlb_lookups
        ));
    }
    if m.ats_requests != m.walks + m.coalesced_translations {
        e.push(format!(
            "{label}: ats_requests {} != walks {} + coalesced {}",
            m.ats_requests, m.walks, m.coalesced_translations
        ));
    }
    if !migration && m.l2_tlb_misses != m.ats_requests + m.intra_mcm_translations {
        e.push(format!(
            "{label}: l2_tlb_misses {} != ats_requests {} + intra_mcm {}",
            m.l2_tlb_misses, m.ats_requests, m.intra_mcm_translations
        ));
    }
    if m.total_cycles == 0 || m.warp_instructions == 0 {
        e.push(format!("{label}: empty run"));
    }
    e
}

/// Equal digests on every path that ran the same simulation.
pub fn digests_agree(what: &str, expected: &str, got: &[(&str, &str)]) -> Vec<String> {
    got.iter()
        .filter(|(_, d)| *d != expected)
        .map(|(path, d)| format!("{what}: {path} digest {d} != in-process {expected}"))
        .collect()
}

/// One row of `barre report`'s stage table.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    pub stage: String,
    pub count: u64,
    /// The rest of the row (p50 … max) as printed.
    pub rest: Vec<String>,
}

/// Parses the stage table out of `barre report`/`barre trace` output:
/// the rows after the `stage count p50 …` header, up to the first line
/// that is not a row.
pub fn parse_stage_table(out: &str) -> Result<Vec<StageRow>, String> {
    let mut lines = out.lines().skip_while(|l| !l.starts_with("stage "));
    lines.next().ok_or("no stage table")?;
    let mut rows = Vec::new();
    for l in lines {
        let f: Vec<&str> = l.split_whitespace().collect();
        let Some(count) = f.get(1).and_then(|c| c.parse::<u64>().ok()) else {
            break;
        };
        if f.len() != 7 {
            break;
        }
        rows.push(StageRow {
            stage: f[0].to_string(),
            count,
            rest: f[2..].iter().map(|s| s.to_string()).collect(),
        });
    }
    if rows.is_empty() {
        return Err("empty stage table".to_string());
    }
    Ok(rows)
}

/// The stage counts must equal the counters of the same (untraced) run:
/// each L1 lookup is one `tlb-l1` stage, each L2 lookup one `tlb-l2`,
/// each ATS request one `ats-pcie`.
pub fn stage_counts_match(rows: &[StageRow], m: &RunMetrics) -> Vec<String> {
    let want = [
        ("tlb-l1", m.l1_tlb_lookups),
        ("tlb-l2", m.l2_tlb_lookups),
        ("ats-pcie", m.ats_requests),
    ];
    want.iter()
        .filter_map(|&(stage, n)| match rows.iter().find(|r| r.stage == stage) {
            Some(r) if r.count == n => None,
            Some(r) => Some(format!("report {stage} count {} != run's {n}", r.count)),
            None => Some(format!("report has no {stage} row")),
        })
        .collect()
}

/// Checks `barre sweep` output against the in-process runs: each app's
/// baseline and mode cycles, and the printed geomean against the
/// benchmark's own (to the printed 3 decimals).
pub fn sweep_output_matches(out: &str, rows: &[(String, u64, u64)], geomean: f64) -> Vec<String> {
    let mut e = Vec::new();
    for (app, base, new) in rows {
        let found = out.lines().any(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            f.len() == 4 && f[0] == app && f[1].parse() == Ok(*base) && f[2].parse() == Ok(*new)
        });
        if !found {
            e.push(format!("sweep row for {app} is not {base} {new}"));
        }
    }
    let printed = out
        .lines()
        .find_map(|l| l.strip_prefix("geomean: "))
        .and_then(|g| g.trim_end_matches('x').parse::<f64>().ok());
    match printed {
        Some(p) if (p - geomean).abs() <= 0.0005 + 1e-9 => {}
        Some(p) => e.push(format!("sweep geomean {p} != benchmark's {geomean:.6}")),
        None => e.push("sweep printed no geomean".to_string()),
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> RunMetrics {
        RunMetrics {
            total_cycles: 1000,
            warp_instructions: 500,
            warp_mem_instructions: 100,
            data_accesses: 90,
            l1_tlb_lookups: 90,
            l1_tlb_misses: 40,
            l2_tlb_lookups: 40,
            l2_tlb_misses: 30,
            ats_requests: 20,
            walks: 15,
            coalesced_translations: 5,
            intra_mcm_translations: 10,
            ..Default::default()
        }
    }

    const REPORT: &str = "app=gups mode=F-Barre-2Merge seed=1 window=8 spans: 1 recorded\n\
        event queue: 1 spill(s)\n\
        stage           count       p50       p95       p99        mean       max\n\
        cu-issue           90       207      1023      1407       336.6      6469\n\
        tlb-l1             90         1         1         1         1.0         1\n\
        tlb-l2             40        10        10        10        10.0        10\n\
        pec                 0         -         -         -           -         -\n\
        ats-pcie           20       831      1023      1151       846.5      1974\n\
        top 10 slowest journeys (cu-issue spans):\n";

    #[test]
    fn sound_run_passes_every_check() {
        let m = run();
        assert!(counter_identities("c", &m, false).is_empty());
        let rows = parse_stage_table(REPORT).unwrap();
        assert_eq!(rows.len(), 5);
        assert!(stage_counts_match(&rows, &m).is_empty());
        let mut l = Ledger::default();
        l.checks("identities", counter_identities("c", &m, false));
        assert!(l.correct());
        assert_eq!((l.attempted(), l.failed()), (1, 0));
    }

    #[test]
    fn counter_off_by_one_is_a_failed_check() {
        let mut m = run();
        m.l2_tlb_lookups += 1;
        let mut l = Ledger::default();
        l.checks("identities", counter_identities("c", &m, false));
        assert!(!l.correct());
        assert_eq!(l.failed(), 1);
        let mut m = run();
        m.walks -= 1;
        assert_eq!(counter_identities("c", &m, true).len(), 1);
        let mut m = run();
        m.intra_mcm_translations += 1;
        assert_eq!(counter_identities("c", &m, false).len(), 1);
        assert!(counter_identities("c", &m, true).is_empty());
    }

    #[test]
    fn flipped_digest_is_a_failed_check() {
        let mut l = Ledger::default();
        l.checks(
            "digests",
            digests_agree("gups", "00ff", &[("journal", "00ff"), ("serve", "00fe")]),
        );
        assert!(!l.correct());
        assert_eq!(l.failures().len(), 1);
        assert!(digests_agree("g", "a", &[("journal", "a")]).is_empty());
    }

    #[test]
    fn report_with_one_count_changed_is_a_failed_check() {
        let changed = REPORT.replace("ats-pcie           20", "ats-pcie           21");
        let rows = parse_stage_table(&changed).unwrap();
        let mut l = Ledger::default();
        l.checks("report", stage_counts_match(&rows, &run()));
        assert!(!l.correct());
        assert_ne!(rows, parse_stage_table(REPORT).unwrap());
    }

    #[test]
    fn mode_dependent_work_is_a_failed_check() {
        let a = run();
        let mut b = run();
        b.data_accesses += 1;
        assert!(same_work_across_modes(&[("a", &a), ("b", &a)]).is_empty());
        assert_eq!(same_work_across_modes(&[("a", &a), ("b", &b)]).len(), 1);
    }

    #[test]
    fn sweep_output_is_checked_row_by_row_and_by_geomean() {
        let out = "app           base cy   fbarre cy   speedup\n\
                   gups          2000        1000    2.000x\n\
                   spmv           800         400    2.000x\n\
                   geomean: 2.000x\n";
        let rows = vec![
            ("gups".to_string(), 2000, 1000),
            ("spmv".to_string(), 800, 400),
        ];
        assert!(sweep_output_matches(out, &rows, 2.0).is_empty());
        assert_eq!(sweep_output_matches(out, &rows, 2.01).len(), 1);
        let rows = vec![("gups".to_string(), 2001, 1000)];
        assert_eq!(sweep_output_matches(out, &rows, 2.0).len(), 1);
    }
}
