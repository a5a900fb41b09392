//! Bit-identity, checked by a machine: the one executable spec that a
//! campaign's output is a pure function of its seed and configuration.
//!
//! `GOLDEN.json` (repository root) records, for a small fixed matrix of
//! campaign configurations, three digests: everything the campaign
//! prints (the played-session dump, all figures, the failure report);
//! every retained [`SessionRecord`] at full precision, played or not,
//! its counters included; and the counter totals. Adding a counter moves
//! the last two and leaves the first as proof that nothing printed
//! moved. `repro golden --check` recomputes the matrix and names the
//! first configuration that differs; `repro golden --record` rewrites
//! the file. A change that *means* to alter behaviour bumps the file's
//! `epoch` and re-records in the same commit, so "bit-identical" and
//! "deliberately different" are both explicit states of the repository.
//!
//! Checking the matrix at one worker and at several, in a debug build
//! and a release build, is the whole contract: both sides match the
//! committed digests, so `--jobs 1` equals `--jobs k` and debug equals
//! release (whose debug-only slow paths assert that the skipped work was
//! a no-op), and both equal history.

use std::fmt::Write as _;

use rv_sim::{FaultScenario, Fnv};
use rv_study::{run_campaign_with_records, GatewayPolicy, SessionRecord, StudyData, StudyParams};

use crate::analysis::dump_table;
use crate::figures::all_figures;

/// The matrix's population scale (≈ 130 sessions a configuration) on the
/// default seed: small enough for a debug-build test, large enough that
/// every transport, outcome class and fault kind occurs.
pub const SCALE: f64 = 0.05;

/// The configurations: `(name, seed, faults, replicas)`, the seed `None`
/// for the default. Faults off/on × replicas 1/2 (two replicas sit
/// behind the nearest-healthy gateway), plus a second seed with faults
/// on a single server, where hardened clients stream to their watch
/// limit.
pub const CONFIGS: [(&str, Option<u64>, bool, u8); 5] = [
    ("faults=off replicas=1", None, false, 1),
    ("faults=on replicas=1", None, true, 1),
    ("faults=off replicas=2", None, false, 2),
    ("faults=on replicas=2", None, true, 2),
    ("seed=777 faults=on replicas=1", Some(777), true, 1),
];

/// One configuration's three fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digests {
    /// Dump, figures and failure report.
    pub artifacts: u64,
    /// Counter names and totals.
    pub counters: u64,
    /// Every retained record, in plan order, at full precision.
    pub records: u64,
}

/// Fingerprints a finished campaign (one run with records retained).
pub fn digests(data: &StudyData) -> Digests {
    let mut artifacts = Fnv::default();
    artifacts.field(dump_table(data).as_bytes());
    for fig in all_figures(data) {
        artifacts.field(fig.id.as_bytes());
        artifacts.field(fig.body.as_bytes());
    }
    artifacts.field(data.failure_report().to_string().as_bytes());
    let mut counters = Fnv::default();
    for (counter, value) in data.summary.counters.iter() {
        counters.field(counter.name().as_bytes());
        counters.field(&value.to_le_bytes());
    }
    Digests {
        artifacts: artifacts.finish(),
        counters: counters.finish(),
        records: records_digest(data.records().unwrap_or_default()),
    }
}

/// What the dump rounds and the aggregates never read — metrics at full
/// precision, unplayed attempts, ratings, per-record counters — hashed
/// through each record's `Debug` form.
fn records_digest(records: &[SessionRecord]) -> u64 {
    let mut digest = Fnv::default();
    let mut line = String::new();
    for record in records {
        line.clear();
        let _ = write!(line, "{record:?}");
        digest.field(line.as_bytes());
    }
    digest.finish()
}

/// Runs the matrix on `jobs` workers (the digests do not depend on it).
pub fn compute(jobs: usize) -> Result<Vec<(&'static str, Digests)>, String> {
    let run = |&(name, seed, faults, replicas): &(&'static str, Option<u64>, bool, u8)| {
        let mut params = StudyParams {
            scale: SCALE,
            jobs,
            replicas,
            ..StudyParams::default()
        };
        if let Some(seed) = seed {
            params.seed = seed;
        }
        if faults {
            params.faults = FaultScenario::default_on();
        }
        if replicas > 1 {
            params.gateway = GatewayPolicy::NearestHealthy;
        }
        let data = run_campaign_with_records(params).map_err(|e| format!("{name}: {e}"))?;
        Ok((name, digests(&data)))
    };
    CONFIGS.iter().map(run).collect()
}

/// The file's text for `epoch` and `rows`: one configuration a line, so
/// a diff of the file names what moved.
pub fn render(epoch: u32, rows: &[(&str, Digests)]) -> String {
    let mut out = format!("{{\n  \"epoch\": {epoch},\n  \"scale\": {SCALE},\n  \"configs\": [\n");
    for (i, (name, d)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"config\": \"{name}\", \"artifacts\": \"{:016x}\", \"counters\": \"{:016x}\", \"records\": \"{:016x}\"}}{comma}",
            d.artifacts, d.counters, d.records
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The string value of `"key": "value"` on `line`.
fn quoted<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.split_once(&format!("\"{key}\": \""))?.1;
    Some(rest.split_once('"')?.0)
}

/// Reads back what [`render`] wrote: the epoch and the rows.
pub fn parse(text: &str) -> Result<(u32, Vec<(String, Digests)>), String> {
    let epoch = text
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"epoch\": "))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
        .ok_or("no \"epoch\" line")?;
    let hex = |line, key| quoted(line, key).and_then(|v| u64::from_str_radix(v, 16).ok());
    let mut rows = Vec::new();
    for line in text.lines().filter(|l| l.contains("\"config\"")) {
        let row = (|| {
            let digests = Digests {
                artifacts: hex(line, "artifacts")?,
                counters: hex(line, "counters")?,
                records: hex(line, "records")?,
            };
            Some((quoted(line, "config")?.to_string(), digests))
        })();
        rows.push(row.ok_or_else(|| format!("unreadable config line: {line}"))?);
    }
    Ok((epoch, rows))
}

/// Recomputes the matrix and compares it with `golden` (the file's
/// text), naming the first configuration that differs and which digest.
pub fn check(golden: &str, jobs: usize) -> Result<(), String> {
    let (epoch, recorded) = parse(golden)?;
    let now = compute(jobs)?;
    if recorded.len() != now.len() {
        return Err(format!(
            "GOLDEN.json lists {} configs, the matrix has {}",
            recorded.len(),
            now.len()
        ));
    }
    for ((was_name, was), (name, is)) in recorded.iter().zip(&now) {
        let what = match (was_name != name, was.artifacts != is.artifacts) {
            (true, _) => format!("is listed as {was_name:?}"),
            (_, true) => format!(
                "dump/figures/failure report differ: recorded {:016x}, now {:016x}",
                was.artifacts, is.artifacts
            ),
            _ if was.records != is.records => format!(
                "records differ (dump/figures/failure report identical): recorded {:016x}, now {:016x}",
                was.records, is.records
            ),
            _ if was.counters != is.counters => format!(
                "counter totals differ (everything else identical): recorded {:016x}, now {:016x}",
                was.counters, is.counters
            ),
            _ => continue,
        };
        return Err(format!(
            "{name:?} {what} (epoch {epoch}); if the change is meant, \
             `repro golden --record --epoch {}` and commit GOLDEN.json",
            epoch + 1
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_file_text_round_trips() {
        let rows = [
            (
                CONFIGS[0].0,
                Digests {
                    artifacts: 0x1,
                    counters: u64::MAX,
                    records: 0x42,
                },
            ),
            (
                CONFIGS[3].0,
                Digests {
                    artifacts: 0xdead_beef,
                    counters: 0,
                    records: 0xfeed,
                },
            ),
        ];
        let text = render(7, &rows);
        let (epoch, back) = parse(&text).unwrap();
        assert_eq!(epoch, 7);
        let back: Vec<_> = back.iter().map(|(n, d)| (n.as_str(), *d)).collect();
        assert_eq!(back, rows);
        assert!(parse("{}").is_err());
        assert!(parse(&text.replace("00000000deadbeef", "xyz")).is_err());
    }
}
