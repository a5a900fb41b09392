//! Regenerates every figure of the paper from campaign data.
//!
//! One generator per figure (1, 5–28) plus the Section IV aggregate table.
//! Each returns a [`FigureOutput`]: a text rendering (CDF plot + data
//! series, bar chart, or scatter summary) and the headline statistics the
//! paper reports for that figure, so EXPERIMENTS.md can compare
//! paper-vs-measured directly.
//!
//! Every figure is computed from the streaming [`CampaignAggregates`] —
//! never from retained records — so figure generation works on the
//! constant-memory campaign path at any scale. Composition figures
//! (5–10, 16, agg) read exact counts; distribution figures (11–27) read
//! [`QuantileSketch`]es (~1 % relative quantile accuracy, exact
//! count/mean/extrema); the scatter figure (28) reads exact co-moments.

use rv_media::{Clip, ContentKind};
use rv_sim::{SimDuration, SimTime};
use rv_stats::{bar_chart, cdf_plot, table, Cdf, QuantileSketch};
use rv_study::{
    build_population, server_roster, CampaignAggregates, ConnectionClass, PcClass, ServerRegion,
    StudyData, UserRegion, BANDWIDTH_BINS,
};

/// A regenerated figure: identifier, caption, and text body.
#[derive(Debug, Clone)]
pub struct FigureOutput {
    /// Stable id, e.g. `fig11`.
    pub id: &'static str,
    /// The paper's caption, abbreviated.
    pub title: &'static str,
    /// Printable body: headline stats, plot, and data series.
    pub body: String,
}

/// All figure ids, in paper order.
pub const FIGURE_IDS: [&str; 26] = [
    "fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
    "fig25", "fig26", "fig27", "fig28", "agg",
];

/// Generates one figure by id. `None` for an unknown id.
pub fn figure(id: &str, data: &StudyData) -> Option<FigureOutput> {
    let agg = &data.aggregates;
    Some(match id {
        "fig1" => fig1(),
        "fig5" => fig5(agg),
        "fig6" => fig6(agg),
        "fig7" => bar_figure(
            "fig7",
            "Video clips played by users from each country",
            &agg.user_countries,
        ),
        "fig8" => bar_figure(
            "fig8",
            "Video clips served by RealServers from each country",
            &agg.server_countries,
        ),
        "fig9" => bar_figure(
            "fig9",
            "Video clips played by U.S. users from each state",
            &agg.us_states,
        ),
        "fig10" => fig10(agg),
        "fig11" => fig11(agg),
        "fig12" => sketch_figure(
            "fig12",
            "CDF of frame rate for different end-host network configurations",
            keyed_series(&ConnectionClass::ALL, |c| c.name(), &agg.fps_by_connection),
            " fps",
            &[3.0, 15.0],
        ),
        "fig13" => sketch_figure(
            "fig13",
            "CDF of bandwidth for different end-host network configurations",
            keyed_series(&ConnectionClass::ALL, |c| c.name(), &agg.bw_by_connection),
            " kbps",
            &[50.0, 250.0],
        ),
        "fig14" => sketch_figure(
            "fig14",
            "CDF of frame rate for RealServers in different geographic regions",
            keyed_series(&ServerRegion::ALL, |c| c.name(), &agg.fps_by_server_region),
            " fps",
            &[3.0, 15.0],
        ),
        "fig15" => sketch_figure(
            "fig15",
            "CDF of frame rate for users in different geographic regions",
            keyed_series(&UserRegion::ALL, |c| c.name(), &agg.fps_by_user_region),
            " fps",
            &[3.0, 15.0],
        ),
        "fig16" => fig16(agg),
        "fig17" => sketch_figure(
            "fig17",
            "CDF of frame rate for transport protocols",
            protocol_series(&agg.fps_by_protocol),
            " fps",
            &[3.0, 15.0],
        ),
        "fig18" => sketch_figure(
            "fig18",
            "CDF of bandwidth for transport protocols",
            protocol_series(&agg.bw_by_protocol),
            " kbps",
            &[50.0, 250.0],
        ),
        "fig19" => sketch_figure(
            "fig19",
            "CDF of frame rate for classes of user PCs",
            keyed_series(&PcClass::ALL, |c| c.name(), &agg.fps_by_pc),
            " fps",
            &[3.0, 15.0],
        ),
        "fig20" => fig20(agg),
        "fig21" => sketch_figure(
            "fig21",
            "CDF of jitter for different network configurations",
            keyed_series(
                &ConnectionClass::ALL,
                |c| c.name(),
                &agg.jitter_by_connection,
            ),
            " ms",
            &[50.0, 300.0],
        ),
        "fig22" => sketch_figure(
            "fig22",
            "CDF of jitter for RealServers in different geographic regions",
            keyed_series(
                &ServerRegion::ALL,
                |c| c.name(),
                &agg.jitter_by_server_region,
            ),
            " ms",
            &[50.0, 300.0],
        ),
        "fig23" => sketch_figure(
            "fig23",
            "CDF of jitter for users in different geographic regions",
            keyed_series(&UserRegion::ALL, |c| c.name(), &agg.jitter_by_user_region),
            " ms",
            &[50.0, 300.0],
        ),
        "fig24" => sketch_figure(
            "fig24",
            "CDF of jitter for transport protocols",
            protocol_series(&agg.jitter_by_protocol),
            " ms",
            &[50.0, 300.0],
        ),
        "fig25" => fig25(agg),
        "fig26" => fig26(agg),
        "fig27" => sketch_figure(
            "fig27",
            "CDF of quality for different end-host network configurations",
            keyed_series(
                &ConnectionClass::ALL,
                |c| c.name(),
                &agg.ratings_by_connection,
            ),
            "",
            &[3.0, 7.0],
        ),
        "fig28" => fig28(agg),
        "agg" => aggregate(data),
        _ => return None,
    })
}

/// Generates every figure.
pub fn all_figures(data: &StudyData) -> Vec<FigureOutput> {
    FIGURE_IDS
        .iter()
        .map(|id| figure(id, data).expect("known id"))
        .collect()
}

// ---------- sketch rendering helpers ----------

/// Pulls one sketch per stratum in figure order, empty sketches for
/// strata the campaign never observed.
fn keyed_series<K: Ord + Copy>(
    keys: &[K],
    name: impl Fn(K) -> &'static str,
    map: &std::collections::BTreeMap<K, QuantileSketch>,
) -> Vec<(String, QuantileSketch)> {
    keys.iter()
        .map(|k| {
            (
                name(*k).to_string(),
                map.get(k).cloned().unwrap_or_default(),
            )
        })
        .collect()
}

/// Transport series, TCP first (the paper's ordering).
fn protocol_series(
    map: &std::collections::BTreeMap<&'static str, QuantileSketch>,
) -> Vec<(String, QuantileSketch)> {
    ["TCP", "UDP"]
        .iter()
        .map(|p| (p.to_string(), map.get(p).cloned().unwrap_or_default()))
        .collect()
}

/// Renders a multi-series CDF figure from sketches: plot + per-series
/// headline stats. The sketch counterpart of the old record-path
/// `cdf_figure`, with the same layout.
fn sketch_figure(
    id: &'static str,
    title: &'static str,
    series: Vec<(String, QuantileSketch)>,
    unit: &str,
    thresholds: &[f64],
) -> FigureOutput {
    let mut body = String::new();
    let mut plots: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    let lo = 0.0;
    let hi = series
        .iter()
        .filter_map(|(_, s)| s.max())
        .fold(1.0f64, f64::max);
    let mut stats_rows: Vec<Vec<String>> = Vec::new();
    for (name, sketch) in &series {
        if sketch.is_empty() {
            let mut row = vec![name.clone(), "0".into(), "-".into(), "-".into()];
            row.extend(thresholds.iter().map(|_| "-".to_string()));
            stats_rows.push(row);
            continue;
        }
        let mut row = vec![
            name.clone(),
            sketch.count().to_string(),
            format!("{:.2}", sketch.mean().expect("nonempty")),
            format!("{:.2}", sketch.quantile(0.5).expect("nonempty")),
        ];
        for t in thresholds {
            row.push(format!("{:.1}%", sketch.at(*t) * 100.0));
        }
        stats_rows.push(row);
        plots.push((name.clone(), sketch.series_on_grid(lo, hi, 56)));
    }
    let mut header = vec!["series", "n", "mean", "median"];
    let thr_labels: Vec<String> = thresholds.iter().map(|t| format!("F({t}{unit})")).collect();
    header.extend(thr_labels.iter().map(String::as_str));
    body.push_str(&table(&header, &stats_rows));
    body.push('\n');
    let plot_refs: Vec<(&str, &[(f64, f64)])> = plots
        .iter()
        .map(|(n, p)| (n.as_str(), p.as_slice()))
        .collect();
    if !plot_refs.is_empty() {
        body.push_str(&cdf_plot(&plot_refs, 64, 16));
    }
    FigureOutput { id, title, body }
}

// ---------- Figure 1: buffering & playout timeline ----------

fn fig1() -> FigureOutput {
    // A single broadband session, sampled once a second: coded vs. current
    // bandwidth and frame rate, showing the prebuffer burst and smooth
    // playout (the paper's Figure 1).
    let mut rng = rv_sim::SimRng::seed_from_u64(0xF161);
    let pop = build_population(&mut rng, 1.0);
    let user = pop
        .participants
        .iter()
        .find(|u| {
            u.connection == ConnectionClass::DslCable
                && u.firewall == rv_rtsp::FirewallPolicy::Open
                && u.pc.cpu_power() > 0.9
        })
        .expect("population has healthy DSL users");
    let roster = server_roster();
    let site = roster.iter().find(|s| s.name == "US/CNN").expect("CNN");
    let clip = std::sync::Arc::new(Clip::new(
        "fig1-clip.rm",
        SimDuration::from_secs(300),
        ContentKind::News,
    ));
    let mut world = rv_study::build_session_world_gw(
        user,
        site,
        &clip,
        SimDuration::from_secs(70),
        0xF161_0001,
        &rv_sim::FaultPlan::none(),
        None,
        &mut rv_tracer::WorldScratch::default(),
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut prev_bytes = 0u64;
    let mut prev_frames = 0usize;
    for sec in 1..=70u64 {
        world.run(SimTime::from_secs(sec));
        let stats = world.client.events();
        let played: Vec<_> = stats.iter().filter(|e| e.played_at.is_some()).collect();
        let frames_now = played.len();
        // Server-sent bytes proxy for delivered bytes (loss-free broadband
        // path); used consistently so per-second deltas never go negative.
        let bytes = world.server.stats().bytes_sent;
        let bw_kbps = (bytes.saturating_sub(prev_bytes)) as f64 * 8.0 / 1e3;
        let fps = (frames_now - prev_frames) as f64;
        // Coded values of the rung currently being streamed.
        let (coded_bw, coded_fps) = world
            .server
            .current_rung()
            .map(|rung| {
                let enc = &clip.ladder.rungs()[rung];
                (enc.total_bps / 1000, enc.frame_rate)
            })
            .unwrap_or((0, 0.0));
        rows.push(vec![
            sec.to_string(),
            coded_bw.to_string(),
            format!("{bw_kbps:.0}"),
            format!("{coded_fps:.1}"),
            format!("{fps:.0}"),
        ]);
        prev_bytes = bytes;
        prev_frames = frames_now;
        if world.client.is_done() {
            break;
        }
    }
    let playback_start = world
        .client
        .metrics()
        .and_then(|m| m.startup_delay)
        .map(|d| format!("{:.1}", d.as_secs_f64()))
        .unwrap_or_else(|| "?".into());
    let mut body = format!(
        "Buffering and playout of one DSL RealVideo session.\n\
         Playout begins after {playback_start} s of buffering (paper: ~13 s).\n\n"
    );
    body.push_str(&table(
        &[
            "t(s)",
            "coded bw (kbps)",
            "current bw (kbps)",
            "coded fps",
            "current fps",
        ],
        &rows,
    ));
    FigureOutput {
        id: "fig1",
        title: "Buffering and playout of a RealVideo clip",
        body,
    }
}

// ---------- Figures 5–9: campaign composition ----------

fn fig5(agg: &CampaignAggregates) -> FigureOutput {
    // Per-user attempt counts are exact integers in the aggregates, so
    // this CDF is exact, not sketched.
    let counts: Vec<f64> = agg.plays_per_user.values().map(|c| *c as f64).collect();
    let cdf = Cdf::from_samples(&counts).expect("users exist");
    let mut body = format!(
        "Users: {}   median clips/user: {:.0}   max: {:.0} (playlist holds 98)\n\n",
        cdf.count(),
        cdf.quantile(0.5),
        cdf.max()
    );
    let series = cdf.series_on_grid(0.0, 100.0, 51);
    body.push_str(&cdf_plot(&[("clips/user", &series)], 64, 16));
    FigureOutput {
        id: "fig5",
        title: "CDF of video clips played per user",
        body,
    }
}

fn fig6(agg: &CampaignAggregates) -> FigureOutput {
    // Every participant appears (users who rated nothing count as zero).
    let counts: Vec<f64> = agg
        .plays_per_user
        .keys()
        .map(|user| agg.rated_by(*user) as f64)
        .collect();
    let cdf = Cdf::from_samples(&counts).expect("users exist");
    let mut body = format!(
        "Users: {}   median rated clips/user: {:.0}   max: {:.0}\n\n",
        cdf.count(),
        cdf.quantile(0.5),
        cdf.max()
    );
    let series = cdf.series_on_grid(0.0, 35.0, 36);
    body.push_str(&cdf_plot(&[("rated/user", &series)], 64, 16));
    FigureOutput {
        id: "fig6",
        title: "CDF of video clips rated per user",
        body,
    }
}

fn bar_figure(
    id: &'static str,
    title: &'static str,
    counts: &rv_stats::CategoryCount,
) -> FigureOutput {
    let items: Vec<(&str, f64)> = counts
        .by_count_ascending()
        .into_iter()
        .map(|(k, v)| (k, v as f64))
        .collect();
    FigureOutput {
        id,
        title,
        body: bar_chart(&items, 48),
    }
}

fn fig10(agg: &CampaignAggregates) -> FigureOutput {
    let mut items: Vec<(&str, f64)> = agg
        .attempts_by_server
        .by_name()
        .into_iter()
        .map(|(name, total)| {
            (
                name,
                agg.unavailable_by_server.get(name) as f64 / total as f64,
            )
        })
        .collect();
    items.sort_by(|a, b| a.0.cmp(b.0));
    let overall = agg.unavailable as f64 / agg.total_attempts as f64;
    let mut body = format!("Overall unavailable fraction: {overall:.3} (paper: ~0.10)\n\n");
    body.push_str(&bar_chart(&items, 48));
    FigureOutput {
        id: "fig10",
        title: "Fraction of unavailable clips per server",
        body,
    }
}

// ---------- Figures 11–19: frame rate & bandwidth ----------

fn fig11(agg: &CampaignAggregates) -> FigureOutput {
    let fps = &agg.fps;
    let mut out = sketch_figure(
        "fig11",
        "CDF of frame rate for all video clips",
        vec![("all clips".to_string(), fps.clone())],
        " fps",
        &[3.0, 15.0, 24.0],
    );
    out.body = format!(
        "mean {:.1} fps (paper: 10)   <3 fps: {:.0}% (paper: ~25%)   \
         >=15 fps: {:.0}% (paper: ~25%)   >=24 fps: {:.1}% (paper: <1%)\n\n{}",
        fps.mean().unwrap_or(0.0),
        fps.at(3.0) * 100.0,
        (1.0 - fps.at(15.0 - 1e-9)) * 100.0,
        (1.0 - fps.at(24.0 - 1e-9)) * 100.0,
        out.body
    );
    out
}

fn fig16(agg: &CampaignAggregates) -> FigureOutput {
    let counts = &agg.protocol_played;
    let udp = counts.fraction("UDP");
    let body = format!(
        "UDP: {:.1}% (paper: ~56%)   TCP: {:.1}% (paper: ~44%)\n\n{}",
        udp * 100.0,
        (1.0 - udp) * 100.0,
        bar_chart(
            &[
                ("UDP", counts.get("UDP") as f64),
                ("TCP", counts.get("TCP") as f64)
            ],
            48
        )
    );
    FigureOutput {
        id: "fig16",
        title: "Fraction of transport protocols observed",
        body,
    }
}

// ---------- Figures 20–25: jitter ----------

fn fig20(agg: &CampaignAggregates) -> FigureOutput {
    let jitter = &agg.jitter;
    let mut out = sketch_figure(
        "fig20",
        "CDF of overall jitter",
        vec![("all clips".to_string(), jitter.clone())],
        " ms",
        &[50.0, 300.0],
    );
    out.body = format!(
        "jitter <=50 ms: {:.0}% (paper: ~50%)   >=300 ms: {:.0}% (paper: ~15%)\n\n{}",
        jitter.at(50.0) * 100.0,
        (1.0 - jitter.at(300.0)) * 100.0,
        out.body
    );
    out
}

fn fig25(agg: &CampaignAggregates) -> FigureOutput {
    let names = ["< 10K", "10K - 100K", "> 100K"];
    let series = (0u8..3)
        .map(|b| {
            (
                names[usize::from(b)].to_string(),
                agg.jitter_by_bw_bucket.get(&b).cloned().unwrap_or_default(),
            )
        })
        .collect();
    sketch_figure(
        "fig25",
        "CDF of jitter for observed bandwidth",
        series,
        " ms",
        &[50.0, 300.0],
    )
}

// ---------- Figures 26–28: perceptual quality ----------

fn fig26(agg: &CampaignAggregates) -> FigureOutput {
    let ratings = &agg.ratings;
    let mut out = sketch_figure(
        "fig26",
        "CDF of overall quality",
        vec![("ratings".to_string(), ratings.clone())],
        "",
        &[2.0, 5.0, 8.0],
    );
    out.body = format!(
        "rated clips: {}   mean rating: {:.2} (paper: ~5, near-uniform CDF)\n\n{}",
        ratings.count(),
        ratings.mean().unwrap_or(0.0),
        out.body
    );
    out
}

fn fig28(agg: &CampaignAggregates) -> FigureOutput {
    let q = &agg.quality;
    let mut body = format!(
        "points: {}   pearson r: {}   slope: {} rating/kbps\n\
         low ratings (<=2) at high bandwidth (>250 kbps): {} of {}\n\
         (paper: weak correlation, slight upward trend, no low ratings at high bandwidth)\n\n",
        q.moments.n,
        q.moments
            .pearson()
            .map_or("-".to_string(), |v| format!("{v:.3}")),
        q.moments
            .slope()
            .map_or("-".to_string(), |s| format!("{s:+.4}")),
        q.high_bw_low_rating,
        q.high_bw,
    );
    // Scatter summary: mean rating per bandwidth bin.
    let mut rows = Vec::new();
    for ((lo, hi), (n, rating_sum)) in BANDWIDTH_BINS.iter().zip(&q.bins) {
        let mean = rating_sum
            .mean(*n)
            .map_or("-".to_string(), |m| format!("{m:.2}"));
        rows.push(vec![format!("{lo:.0}-{hi:.0}"), n.to_string(), mean]);
    }
    body.push_str(&table(&["bandwidth (kbps)", "n", "mean rating"], &rows));
    FigureOutput {
        id: "fig28",
        title: "Quality rating vs. network bandwidth",
        body,
    }
}

// ---------- Section IV aggregates ----------

fn aggregate(data: &StudyData) -> FigureOutput {
    let agg = &data.aggregates;
    let rows = vec![
        vec![
            "participants".into(),
            data.participants.to_string(),
            "63".into(),
        ],
        vec![
            "clip plays (sessions)".into(),
            agg.total_attempts.to_string(),
            "~2855".into(),
        ],
        vec![
            "clips watched & rated".into(),
            agg.rated.to_string(),
            "~388".into(),
        ],
        vec![
            "user countries".into(),
            agg.user_countries.by_name().len().to_string(),
            "12".into(),
        ],
        vec![
            "servers".into(),
            agg.attempts_by_server.by_name().len().to_string(),
            "11".into(),
        ],
        vec![
            "server countries".into(),
            agg.server_countries.by_name().len().to_string(),
            "8".into(),
        ],
        vec![
            "unavailable fraction".into(),
            format!("{:.3}", agg.unavailable as f64 / agg.total_attempts as f64),
            "~0.10".into(),
        ],
        vec![
            "played successfully".into(),
            agg.played.to_string(),
            "-".into(),
        ],
        vec![
            "firewall-excluded volunteers".into(),
            data.excluded_users.to_string(),
            "\"several\"".into(),
        ],
        vec![
            "blocked sessions recorded".into(),
            agg.blocked.to_string(),
            "0".into(),
        ],
    ];
    FigureOutput {
        id: "agg",
        title: "Section IV aggregates: paper vs. reproduction",
        body: table(&["quantity", "measured", "paper"], &rows),
    }
}

// ---------- gateway-tier figures ----------

/// The gateway-tier figures: quality vs replica count, replica load skew,
/// and failover recovery. These need a replica *sweep* — one campaign per
/// replica count — rather than a single run, so they are generated by
/// `repro gateway` and deliberately not part of [`FIGURE_IDS`]: `repro
/// all` output is unchanged by the gateway tier.
pub fn gateway_figures(sweep: &[(u8, StudyData)]) -> Vec<FigureOutput> {
    use rv_sim::Counter;
    use std::fmt::Write as _;

    let mut quality_rows = Vec::new();
    for (replicas, data) in sweep {
        let agg = &data.aggregates;
        let outcome = |label: &str| agg.failures.outcomes.get(label).copied().unwrap_or(0);
        quality_rows.push(vec![
            replicas.to_string(),
            agg.played.to_string(),
            agg.ratings.mean().map_or("-".into(), |m| format!("{m:.2}")),
            agg.fps.mean().map_or("-".into(), |m| format!("{m:.2}")),
            outcome("server-down").to_string(),
            outcome("rejected").to_string(),
            agg.counters.get(Counter::GatewayRedirects).to_string(),
            agg.counters.get(Counter::Failovers).to_string(),
        ]);
    }
    let quality = table(
        &[
            "replicas",
            "played",
            "mean rating",
            "mean fps",
            "server-down",
            "rejected",
            "redirects",
            "failovers",
        ],
        &quality_rows,
    );

    let mut skew = String::new();
    for (replicas, data) in sweep {
        let agg = &data.aggregates;
        let total: u64 = agg.replica_sessions.values().sum();
        let _ = writeln!(skew, "replicas={replicas} (played {total})");
        for k in 0..*replicas {
            let n = agg.replica_sessions.get(&k).copied().unwrap_or(0);
            let share = if total > 0 {
                100.0 * n as f64 / total as f64
            } else {
                0.0
            };
            let _ = writeln!(skew, "  replica {k}: {n:>6} sessions ({share:>5.1} %)");
        }
    }

    let mut recovery = String::new();
    for (replicas, data) in sweep {
        let s = &data.aggregates.failover_recovery;
        if s.is_empty() {
            let _ = writeln!(
                recovery,
                "replicas={replicas}: no recovered crash failovers"
            );
        } else {
            let _ = writeln!(
                recovery,
                "replicas={replicas}: n={} mean={:.0} ms p50={:.0} ms p95={:.0} ms max={:.0} ms",
                s.count(),
                s.mean().unwrap_or(0.0),
                s.quantile(0.5).unwrap_or(0.0),
                s.quantile(0.95).unwrap_or(0.0),
                s.max().unwrap_or(0.0),
            );
        }
    }

    vec![
        FigureOutput {
            id: "gw1",
            title: "Quality and failure mix vs. replica count (faulted)",
            body: quality,
        },
        FigureOutput {
            id: "gw2",
            title: "Replica load skew: played sessions per replica",
            body: skew,
        },
        FigureOutput {
            id: "gw3",
            title: "Failover recovery time: crash redirect to first media",
            body: recovery,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_study::{run_campaign, StudyParams};

    fn data() -> StudyData {
        // The streaming path: figures never need retained records.
        run_campaign(StudyParams {
            scale: 0.03,
            ..StudyParams::default()
        })
        .unwrap()
    }

    #[test]
    fn every_figure_generates() {
        let d = data();
        assert!(d.records.is_none(), "figures must not need records");
        for id in FIGURE_IDS {
            let f = figure(id, &d).expect("known id");
            assert!(!f.body.is_empty(), "{id} empty");
            assert_eq!(f.id, id);
        }
        assert!(figure("fig2", &d).is_none());
    }

    #[test]
    fn fig11_headline_mentions_key_stats() {
        let d = data();
        let f = figure("fig11", &d).unwrap();
        assert!(f.body.contains("mean"));
        assert!(f.body.contains("fps"));
    }

    #[test]
    fn fig16_shares_sum_to_hundred() {
        let d = data();
        let f = figure("fig16", &d).unwrap();
        assert!(f.body.contains("UDP"));
        assert!(f.body.contains("TCP"));
    }

    #[test]
    fn all_figures_yields_26() {
        let d = data();
        assert_eq!(all_figures(&d).len(), 26);
    }
}
