//! RealData-style analysis over campaign records.
//!
//! The paper's Notes section promises "an accompanying analysis tool called
//! RealData"; this module is its equivalent: group-by summaries and filters
//! over [`SessionRecord`]s, exposed through the `realdata` binary. This is
//! deliberately a record-level tool — it needs campaigns run through
//! [`run_campaign_with_records`](rv_study::run_campaign_with_records), the
//! opt-in O(sessions)-memory path; the figures pipeline itself runs on
//! streaming aggregates and never touches records.

use rv_stats::{table, Summary};
use rv_study::{SessionRecord, StudyData};

/// The dimensions a summary can group by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupBy {
    /// End-host connection class (Figures 12, 13, 21, 27).
    Connection,
    /// Data transport (Figures 16–18, 24).
    Protocol,
    /// Server site (Figure 10).
    Server,
    /// Server figure region (Figures 14, 22).
    ServerRegion,
    /// User figure region (Figures 15, 23).
    UserRegion,
    /// User country (Figure 7).
    Country,
    /// PC class (Figure 19).
    Pc,
}

impl GroupBy {
    /// All dimensions, for CLI listings.
    pub const ALL: [GroupBy; 7] = [
        GroupBy::Connection,
        GroupBy::Protocol,
        GroupBy::Server,
        GroupBy::ServerRegion,
        GroupBy::UserRegion,
        GroupBy::Country,
        GroupBy::Pc,
    ];

    /// The CLI name of this dimension.
    pub fn name(self) -> &'static str {
        match self {
            GroupBy::Connection => "connection",
            GroupBy::Protocol => "protocol",
            GroupBy::Server => "server",
            GroupBy::ServerRegion => "server-region",
            GroupBy::UserRegion => "user-region",
            GroupBy::Country => "country",
            GroupBy::Pc => "pc",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<GroupBy> {
        GroupBy::ALL.iter().copied().find(|g| g.name() == s)
    }

    /// The group label of one record.
    pub fn key(self, r: &SessionRecord) -> String {
        match self {
            GroupBy::Connection => r.connection.name().to_string(),
            GroupBy::Protocol => r.metrics.protocol.to_string(),
            GroupBy::Server => r.server_name.to_string(),
            GroupBy::ServerRegion => r.server_region.name().to_string(),
            GroupBy::UserRegion => r.user_region.name().to_string(),
            GroupBy::Country => r.user_country.name().to_string(),
            GroupBy::Pc => r.pc.name().to_string(),
        }
    }
}

/// Aggregate statistics of one group of played sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSummary {
    /// The group label.
    pub key: String,
    /// Played sessions in the group.
    pub sessions: usize,
    /// Mean measured frame rate.
    pub mean_fps: f64,
    /// Median measured frame rate.
    pub median_fps: f64,
    /// Fraction of sessions below 3 fps.
    pub below_3fps: f64,
    /// Median jitter in ms over sessions that have one.
    pub median_jitter_ms: Option<f64>,
    /// Mean bandwidth, kbps.
    pub mean_kbps: f64,
    /// Mean rating over rated sessions in the group, if any.
    pub mean_rating: Option<f64>,
}

/// Groups the played records by `dim` and summarizes each group,
/// sorted by group label.
pub fn summarize_by(data: &StudyData, dim: GroupBy) -> Vec<GroupSummary> {
    let mut groups: std::collections::BTreeMap<String, Vec<&SessionRecord>> = Default::default();
    for r in data.played() {
        groups.entry(dim.key(r)).or_default().push(r);
    }
    groups
        .into_iter()
        .map(|(key, recs)| {
            let fps: Vec<f64> = recs.iter().map(|r| r.metrics.frame_rate).collect();
            let fps_summary = Summary::from_samples(&fps).expect("group is nonempty");
            let jitter: Vec<f64> = recs.iter().filter_map(|r| r.metrics.jitter_ms).collect();
            let kbps: Vec<f64> = recs.iter().map(|r| r.metrics.bandwidth_kbps).collect();
            let ratings: Vec<f64> = recs
                .iter()
                .filter_map(|r| r.rating.map(f64::from))
                .collect();
            GroupSummary {
                key,
                sessions: recs.len(),
                mean_fps: fps_summary.mean(),
                median_fps: fps_summary.median(),
                below_3fps: fps_summary.fraction_below(3.0),
                median_jitter_ms: Summary::from_samples(&jitter).map(|s| s.median()),
                mean_kbps: kbps.iter().sum::<f64>() / kbps.len() as f64,
                mean_rating: if ratings.is_empty() {
                    None
                } else {
                    Some(ratings.iter().sum::<f64>() / ratings.len() as f64)
                },
            }
        })
        .collect()
}

/// Renders group summaries as an aligned table.
pub fn render_summaries(dim: GroupBy, summaries: &[GroupSummary]) -> String {
    use std::fmt::Write as _;
    let header = [
        dim.name(),
        "n",
        "mean fps",
        "med fps",
        "<3fps",
        "med jit(ms)",
        "kbps",
        "rating",
    ];
    let mut out = String::new();
    table(&mut out, header.len(), summaries.iter(), |out, row, col| {
        let Some(s) = row else {
            return out.write_str(header[col]);
        };
        match col {
            0 => out.write_str(&s.key),
            1 => write!(out, "{}", s.sessions),
            2 => write!(out, "{:.1}", s.mean_fps),
            3 => write!(out, "{:.1}", s.median_fps),
            4 => write!(out, "{:.0}%", s.below_3fps * 100.0),
            5 => match s.median_jitter_ms {
                Some(j) => write!(out, "{j:.0}"),
                None => out.write_str("-"),
            },
            6 => write!(out, "{:.0}", s.mean_kbps),
            _ => match s.mean_rating {
                Some(r) => write!(out, "{r:.1}"),
                None => out.write_str("-"),
            },
        }
    });
    out
}

/// The `repro dump` table: a header, then one space-separated row per
/// played session (records must have been retained: without them, the
/// header alone).
pub fn dump_table(data: &StudyData) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "user conn pc server proto enc_kbps fps jitter bw_kbps lost rebuf dropped startup recov\n",
    );
    for r in data.played() {
        let m = &r.metrics;
        let _ = writeln!(
            out,
            "{} {:?} {:.2} {} {} {} {:.1} {} {:.0} {} {} {} {:.1} {}",
            r.user_id,
            r.connection,
            r.pc.cpu_power(),
            r.server_name,
            match m.protocol {
                rv_rtsp::TransportKind::Udp => "udp",
                rv_rtsp::TransportKind::Tcp => "tcp",
            },
            m.encoded_bps / 1000,
            m.frame_rate,
            m.jitter_ms.map(|j| format!("{j:.0}")).unwrap_or("-".into()),
            m.bandwidth_kbps,
            m.packets_lost,
            m.rebuffer_events,
            m.frames_dropped,
            m.startup_delay.map(|d| d.as_secs_f64()).unwrap_or(-1.0),
            m.frames_recovered,
        );
    }
    out
}

/// One line of the per-session CSV export (RealTracer uploaded records to
/// WPI as flat rows; this is the equivalent schema).
pub fn csv_header() -> &'static str {
    "user,country,state,region,connection,pc,server,server_region,clip,available,outcome,\
     protocol,encoded_kbps,encoded_fps,fps,jitter_ms,kbps,frames_played,frames_dropped,\
     packets_lost,rebuffer_events,rating"
}

/// Formats one record as a CSV row matching [`csv_header`].
pub fn csv_row(r: &SessionRecord) -> String {
    let m = &r.metrics;
    format!(
        "{},{},{},{},{},{},{},{},{},{},{:?},{},{},{},{:.2},{},{:.1},{},{},{},{},{}",
        r.user_id,
        r.user_country.name(),
        r.user_state.unwrap_or(""),
        r.user_region.name(),
        r.connection.name(),
        r.pc.name(),
        r.server_name,
        r.server_region.name(),
        r.clip_name,
        r.available,
        m.outcome,
        m.protocol,
        m.encoded_bps / 1000,
        m.encoded_fps,
        m.frame_rate,
        m.jitter_ms.map_or(String::new(), |j| format!("{j:.1}")),
        m.bandwidth_kbps,
        m.frames_played,
        m.frames_dropped,
        m.packets_lost,
        m.rebuffer_events,
        r.rating.map_or(String::new(), |v| v.to_string()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_study::{run_campaign_with_records, StudyParams};

    fn data() -> StudyData {
        run_campaign_with_records(StudyParams {
            scale: 0.03,
            ..StudyParams::default()
        })
        .unwrap()
    }

    #[test]
    fn groupby_names_roundtrip() {
        for g in GroupBy::ALL {
            assert_eq!(GroupBy::parse(g.name()), Some(g));
        }
        assert_eq!(GroupBy::parse("nonsense"), None);
    }

    #[test]
    fn summaries_cover_all_played_sessions() {
        let d = data();
        let summaries = summarize_by(&d, GroupBy::Connection);
        let total: usize = summaries.iter().map(|s| s.sessions).sum();
        assert_eq!(total, d.played().count());
        for s in &summaries {
            assert!(s.mean_fps >= 0.0);
            assert!((0.0..=1.0).contains(&s.below_3fps));
        }
    }

    #[test]
    fn protocol_grouping_has_two_groups() {
        let d = data();
        let summaries = summarize_by(&d, GroupBy::Protocol);
        let keys: Vec<&str> = summaries.iter().map(|s| s.key.as_str()).collect();
        assert!(keys.contains(&"UDP") && keys.contains(&"TCP"));
    }

    #[test]
    fn render_produces_header_and_rows() {
        let d = data();
        let out = render_summaries(GroupBy::Connection, &summarize_by(&d, GroupBy::Connection));
        assert!(out.contains("connection"));
        assert!(out.contains("mean fps"));
        assert!(out.lines().count() >= 3);
    }

    #[test]
    fn csv_rows_have_fixed_width() {
        let d = data();
        let cols = csv_header().split(',').count();
        for r in d.records().unwrap().iter().take(50) {
            assert_eq!(csv_row(r).split(',').count(), cols, "row: {}", csv_row(r));
        }
    }
}
