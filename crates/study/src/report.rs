//! The campaign-level failure report.
//!
//! The paper's Section IV leads with the fraction of clip plays that were
//! *unsuccessful* — never connected, died mid-stream, or came back
//! unusable — before any quality figure is computed over the survivors.
//! [`FailureReport`] is that accounting for a simulated campaign: every
//! attempt bucketed by its [`SessionOutcome`](rv_tracer::SessionOutcome)
//! label, with failure rates broken down by server, server country, and
//! negotiated transport, plus the resilience ledger (sessions that
//! retried, sessions that fell back from UDP to TCP).

use std::collections::BTreeMap;

use rv_rtsp::TransportKind;

use crate::accumulate::{FailureTallies, OutcomeTally};
use crate::campaign::SessionRecord;

/// Outcome counts for one group of attempts (a server, a country, a
/// transport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureBreakdown {
    /// Group label (server name, country, transport).
    pub label: String,
    /// Attempts in the group.
    pub attempts: usize,
    /// Clean plays.
    pub played: usize,
    /// Plays that limped home (retries, rebuffer storms, TCP fallback).
    pub degraded: usize,
    /// Everything else: unavailable, blocked, timed out, server down,
    /// starved, aborted, failed.
    pub unsuccessful: usize,
}

impl FailureBreakdown {
    fn new(label: String) -> Self {
        FailureBreakdown {
            label,
            attempts: 0,
            played: 0,
            degraded: 0,
            unsuccessful: 0,
        }
    }

    fn add(&mut self, r: &SessionRecord) {
        self.attempts += 1;
        if !r.played() {
            self.unsuccessful += 1;
        } else if r.metrics.outcome == rv_tracer::SessionOutcome::Played {
            self.played += 1;
        } else {
            self.degraded += 1;
        }
    }

    /// Unsuccessful attempts as a fraction of all attempts.
    pub fn failure_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.unsuccessful as f64 / self.attempts as f64
        }
    }
}

/// The failure taxonomy of a whole campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureReport {
    /// Total clip-play attempts.
    pub attempts: usize,
    /// Count per outcome label, alphabetical (deterministic).
    pub outcomes: Vec<(&'static str, usize)>,
    /// Sessions that played only after at least one connection retry.
    pub retried: usize,
    /// Sessions that renegotiated UDP down to TCP mid-stream.
    pub fallbacks: usize,
    /// Per-server breakdown, in roster-name order.
    pub by_server: Vec<FailureBreakdown>,
    /// Per-server-country breakdown.
    pub by_country: Vec<FailureBreakdown>,
    /// Per-negotiated-transport breakdown. Attempts that never reached
    /// transport negotiation (unavailable clips) are excluded here; they
    /// still count in every other table.
    pub by_transport: Vec<FailureBreakdown>,
}

impl FailureReport {
    /// Builds the report from streaming [`FailureTallies`] — the one-pass
    /// path: every attempt was folded into the tallies as it finished,
    /// so no record scan happens here. The tallies' `BTreeMap`s
    /// carry the same orderings the record scan produced, so both
    /// constructors yield identical reports.
    pub fn from_tallies(tallies: &FailureTallies) -> Self {
        let breakdown = |label: String, t: &OutcomeTally| FailureBreakdown {
            label,
            attempts: t.attempts as usize,
            played: t.played as usize,
            degraded: t.degraded as usize,
            unsuccessful: t.unsuccessful as usize,
        };
        FailureReport {
            attempts: tallies.outcomes.values().map(|n| *n as usize).sum(),
            outcomes: tallies
                .outcomes
                .iter()
                .map(|(label, n)| (*label, *n as usize))
                .collect(),
            retried: tallies.retried as usize,
            fallbacks: tallies.fallbacks as usize,
            by_server: tallies
                .by_server
                .iter()
                .map(|(name, t)| breakdown(name.to_string(), t))
                .collect(),
            by_country: tallies
                .by_country
                .iter()
                .map(|(name, t)| breakdown(name.to_string(), t))
                .collect(),
            by_transport: tallies
                .by_transport
                .iter()
                .map(|(name, t)| breakdown(name.to_string(), t))
                .collect(),
        }
    }

    /// Tallies `records` into the report. Grouping maps are ordered, so
    /// the report is as deterministic as the records themselves.
    pub fn from_records(records: &[SessionRecord]) -> Self {
        let mut outcomes: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut retried = 0;
        let mut fallbacks = 0;
        let mut by_server: BTreeMap<&str, FailureBreakdown> = BTreeMap::new();
        let mut by_country: BTreeMap<&str, FailureBreakdown> = BTreeMap::new();
        let mut by_transport: BTreeMap<&'static str, FailureBreakdown> = BTreeMap::new();

        for r in records {
            *outcomes.entry(r.metrics.outcome.label()).or_insert(0) += 1;
            if let rv_tracer::SessionOutcome::PlayedDegraded {
                retries, fell_back, ..
            } = r.metrics.outcome
            {
                retried += usize::from(retries > 0);
                fallbacks += usize::from(fell_back);
            }
            by_server
                .entry(r.server_name)
                .or_insert_with(|| FailureBreakdown::new(r.server_name.to_string()))
                .add(r);
            let country = r.server_country.ident();
            by_country
                .entry(country)
                .or_insert_with(|| FailureBreakdown::new(country.to_string()))
                .add(r);
            if r.available {
                let proto = match r.metrics.protocol {
                    TransportKind::Udp => "udp",
                    TransportKind::Tcp => "tcp",
                };
                by_transport
                    .entry(proto)
                    .or_insert_with(|| FailureBreakdown::new(proto.to_string()))
                    .add(r);
            }
        }

        FailureReport {
            attempts: records.len(),
            outcomes: outcomes.into_iter().collect(),
            retried,
            fallbacks,
            by_server: by_server.into_values().collect(),
            by_country: by_country.into_values().collect(),
            by_transport: by_transport.into_values().collect(),
        }
    }

    /// Total unsuccessful attempts.
    pub fn unsuccessful(&self) -> usize {
        self.by_server.iter().map(|b| b.unsuccessful).sum()
    }

    /// Campaign-wide unsuccessful fraction — the number the paper
    /// reports before any figure.
    pub fn failure_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.unsuccessful() as f64 / self.attempts as f64
        }
    }
}

fn breakdown_table(
    f: &mut std::fmt::Formatter<'_>,
    heading: &str,
    rows: &[FailureBreakdown],
) -> std::fmt::Result {
    writeln!(
        f,
        "{heading:<24} {:>8} {:>7} {:>9} {:>7} {:>7}",
        "attempts", "played", "degraded", "failed", "rate"
    )?;
    for b in rows {
        writeln!(
            f,
            "{:<24} {:>8} {:>7} {:>9} {:>7} {:>6.1}%",
            b.label,
            b.attempts,
            b.played,
            b.degraded,
            b.unsuccessful,
            b.failure_rate() * 100.0,
        )?;
    }
    Ok(())
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "failure report: {} attempts, {} unsuccessful ({:.1}%), {} retried, {} fell back to TCP",
            self.attempts,
            self.unsuccessful(),
            self.failure_rate() * 100.0,
            self.retried,
            self.fallbacks,
        )?;
        writeln!(f)?;
        writeln!(f, "{:<24} {:>8} {:>7}", "outcome", "count", "share")?;
        for (label, count) in &self.outcomes {
            writeln!(
                f,
                "{label:<24} {count:>8} {:>6.1}%",
                *count as f64 / self.attempts.max(1) as f64 * 100.0
            )?;
        }
        writeln!(f)?;
        breakdown_table(f, "by server", &self.by_server)?;
        writeln!(f)?;
        breakdown_table(f, "by server country", &self.by_country)?;
        writeln!(f)?;
        breakdown_table(f, "by transport", &self.by_transport)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, run_campaign_with_records, StudyParams};
    use rv_sim::FaultScenario;

    #[test]
    fn report_accounts_for_every_attempt() {
        let data = run_campaign(StudyParams {
            scale: 0.04,
            ..StudyParams::default()
        })
        .unwrap();
        let report = data.failure_report();
        assert_eq!(report.attempts, data.summary.jobs_planned);
        let outcome_total: usize = report.outcomes.iter().map(|(_, c)| c).sum();
        assert_eq!(outcome_total, report.attempts);
        let server_total: usize = report.by_server.iter().map(|b| b.attempts).sum();
        assert_eq!(server_total, report.attempts);
        // Fault-free campaigns still fail some attempts (unavailable
        // clips, firewalled users), never via the fault taxonomy.
        assert!(report.unsuccessful() > 0);
        assert_eq!(report.retried, 0);
        assert_eq!(report.fallbacks, 0);
        let line = report.to_string();
        assert!(line.contains("by server"), "{line}");
        assert!(line.contains("by transport"), "{line}");
    }

    #[test]
    fn tallies_and_records_build_identical_reports() {
        for faults in [FaultScenario::off(), FaultScenario::default_on()] {
            let data = run_campaign_with_records(StudyParams {
                scale: 0.04,
                faults,
                ..StudyParams::default()
            })
            .unwrap();
            let from_records = FailureReport::from_records(data.records().unwrap());
            let from_tallies = FailureReport::from_tallies(&data.aggregates.failures);
            assert_eq!(from_records, from_tallies);
        }
    }

    #[test]
    fn faults_raise_the_failure_rate() {
        let base = StudyParams {
            scale: 0.08,
            ..StudyParams::default()
        };
        let clean = run_campaign(base).unwrap();
        let faulted = run_campaign(StudyParams {
            faults: FaultScenario::default_on(),
            ..base
        })
        .unwrap();
        // Streaming path: reports come straight off the tallies.
        let clean_report = clean.failure_report();
        let fault_report = faulted.failure_report();
        assert!(
            fault_report.failure_rate() > clean_report.failure_rate(),
            "faults {:.3} vs clean {:.3}",
            fault_report.failure_rate(),
            clean_report.failure_rate()
        );
        // The taxonomy's fault-only labels appear.
        let labels: Vec<&str> = fault_report.outcomes.iter().map(|(l, _)| *l).collect();
        assert!(
            labels.iter().any(|l| *l == "served-down-or-timed-out"
                || *l == "timed-out"
                || *l == "server-down"
                || *l == "starved"),
            "{labels:?}"
        );
    }
}
