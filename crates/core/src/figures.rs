//! Regenerates every figure of the paper from campaign data.
//!
//! One generator per figure (1, 5–28) plus the Section IV aggregate table.
//! Each renders a body into one pre-sized `String`: a text rendering (CDF
//! plot + data series, bar chart, or scatter summary) and the headline
//! statistics the paper reports for that figure, so EXPERIMENTS.md can
//! compare paper-vs-measured directly. [`figure`] and [`all_figures`]
//! wrap it in a [`FigureOutput`] with its id and caption.
//!
//! Every figure is computed from the streaming
//! [`CampaignAggregates`](rv_study::CampaignAggregates) — never from
//! retained records — so figure generation works on the
//! constant-memory campaign path at any scale. Composition figures
//! (5–10, 16, agg) read exact counts; distribution figures (11–27) read
//! [`QuantileSketch`]es (~1 % relative quantile accuracy, exact
//! count/mean/extrema); the scatter figure (28) reads exact co-moments.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::OnceLock;

use rv_media::{Clip, ContentKind};
use rv_sim::{SimDuration, SimTime};
use rv_stats::{bar_chart, cdf_plot, table, CategoryCount, Cdf, Grid, QuantileSketch};
use rv_study::{
    build_population, server_roster, ConnectionClass, PcClass, ServerRegion, StudyData, UserRegion,
    BANDWIDTH_BINS,
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

/// One figure: its id, the paper's caption, and what renders its body.
type Generator = (&'static str, &'static str, fn(&StudyData) -> String);

/// Every figure, in paper order.
const FIGURES: [Generator; 26] = [
    ("fig1", "Buffering and playout of a RealVideo clip", fig1),
    ("fig5", "CDF of video clips played per user", fig5),
    ("fig6", "CDF of video clips rated per user", fig6),
    (
        "fig7",
        "Video clips played by users from each country",
        |d| bar_figure(&d.aggregates.user_countries),
    ),
    (
        "fig8",
        "Video clips served by RealServers from each country",
        |d| bar_figure(&d.aggregates.server_countries),
    ),
    (
        "fig9",
        "Video clips played by U.S. users from each state",
        |d| bar_figure(&d.aggregates.us_states),
    ),
    ("fig10", "Fraction of unavailable clips per server", fig10),
    ("fig11", "CDF of frame rate for all video clips", fig11),
    (
        "fig12",
        "CDF of frame rate for different end-host network configurations",
        |d| by_connection(&d.aggregates.fps_by_connection, FPS),
    ),
    (
        "fig13",
        "CDF of bandwidth for different end-host network configurations",
        |d| by_connection(&d.aggregates.bw_by_connection, KBPS),
    ),
    (
        "fig14",
        "CDF of frame rate for RealServers in different geographic regions",
        |d| by_server_region(&d.aggregates.fps_by_server_region, FPS),
    ),
    (
        "fig15",
        "CDF of frame rate for users in different geographic regions",
        |d| by_user_region(&d.aggregates.fps_by_user_region, FPS),
    ),
    ("fig16", "Fraction of transport protocols observed", fig16),
    ("fig17", "CDF of frame rate for transport protocols", |d| {
        by_protocol(&d.aggregates.fps_by_protocol, FPS)
    }),
    ("fig18", "CDF of bandwidth for transport protocols", |d| {
        by_protocol(&d.aggregates.bw_by_protocol, KBPS)
    }),
    ("fig19", "CDF of frame rate for classes of user PCs", |d| {
        sketch_figure(
            keyed_series(&PcClass::ALL, PcClass::name, &d.aggregates.fps_by_pc),
            FPS,
        )
    }),
    ("fig20", "CDF of overall jitter", fig20),
    (
        "fig21",
        "CDF of jitter for different network configurations",
        |d| by_connection(&d.aggregates.jitter_by_connection, MS),
    ),
    (
        "fig22",
        "CDF of jitter for RealServers in different geographic regions",
        |d| by_server_region(&d.aggregates.jitter_by_server_region, MS),
    ),
    (
        "fig23",
        "CDF of jitter for users in different geographic regions",
        |d| by_user_region(&d.aggregates.jitter_by_user_region, MS),
    ),
    ("fig24", "CDF of jitter for transport protocols", |d| {
        by_protocol(&d.aggregates.jitter_by_protocol, MS)
    }),
    ("fig25", "CDF of jitter for observed bandwidth", fig25),
    ("fig26", "CDF of overall quality", fig26),
    (
        "fig27",
        "CDF of quality for different end-host network configurations",
        |d| by_connection(&d.aggregates.ratings_by_connection, RATING),
    ),
    ("fig28", "Quality rating vs. network bandwidth", fig28),
    (
        "agg",
        "Section IV aggregates: paper vs. reproduction",
        aggregate,
    ),
];

/// All figure ids, in paper order.
pub const FIGURE_IDS: [&str; 26] = {
    let mut ids = [""; 26];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = FIGURES[i].0;
        i += 1;
    }
    ids
};

/// Room for the longest body but Figure 1's (≈ 2,000 bytes at any
/// scale), so a figure renders into the one buffer it starts with.
const BODY_CAPACITY: usize = 2048;

fn generate(&(id, title, body): &Generator, data: &StudyData) -> FigureOutput {
    FigureOutput {
        id,
        title,
        body: body(data),
    }
}

/// Generates one figure by id. `None` for an unknown id.
pub fn figure(id: &str, data: &StudyData) -> Option<FigureOutput> {
    FIGURES
        .iter()
        .find(|figure| figure.0 == id)
        .map(|figure| generate(figure, data))
}

/// Generates every figure.
pub fn all_figures(data: &StudyData) -> Vec<FigureOutput> {
    FIGURES
        .iter()
        .map(|figure| generate(figure, data))
        .collect()
}

// ---------- sketch rendering helpers ----------

/// What a stratum the campaign never observed plots as.
static EMPTY: QuantileSketch = QuantileSketch::new();

/// A CDF figure's unit and the x values its `F(x)` columns read.
type Cuts = (&'static str, &'static [f64]);

const FPS: Cuts = (" fps", &[3.0, 15.0]);
const KBPS: Cuts = (" kbps", &[50.0, 250.0]);
const MS: Cuts = (" ms", &[50.0, 300.0]);
const RATING: Cuts = ("", &[3.0, 7.0]);

/// One borrowed sketch per stratum in figure order, the empty sketch
/// for strata the campaign never observed.
fn keyed_series<'a, K: Ord + Copy>(
    keys: &'static [K],
    name: fn(K) -> &'static str,
    map: &'a BTreeMap<K, QuantileSketch>,
) -> impl Iterator<Item = (&'static str, &'a QuantileSketch)> + Clone {
    keys.iter()
        .map(move |k| (name(*k), map.get(k).unwrap_or(&EMPTY)))
}

fn by_connection(map: &BTreeMap<ConnectionClass, QuantileSketch>, cuts: Cuts) -> String {
    sketch_figure(
        keyed_series(&ConnectionClass::ALL, ConnectionClass::name, map),
        cuts,
    )
}

fn by_server_region(map: &BTreeMap<ServerRegion, QuantileSketch>, cuts: Cuts) -> String {
    sketch_figure(
        keyed_series(&ServerRegion::ALL, ServerRegion::name, map),
        cuts,
    )
}

fn by_user_region(map: &BTreeMap<UserRegion, QuantileSketch>, cuts: Cuts) -> String {
    sketch_figure(keyed_series(&UserRegion::ALL, UserRegion::name, map), cuts)
}

/// Transport series, TCP first (the paper's ordering).
fn by_protocol(map: &BTreeMap<&'static str, QuantileSketch>, cuts: Cuts) -> String {
    let series = ["TCP", "UDP"]
        .into_iter()
        .map(|p| (p, map.get(p).unwrap_or(&EMPTY)));
    sketch_figure(series, cuts)
}

/// A multi-series CDF figure's body, rendered from sketches.
fn sketch_figure<'a>(
    series: impl Iterator<Item = (&'static str, &'a QuantileSketch)> + Clone,
    cuts: Cuts,
) -> String {
    let mut body = String::with_capacity(BODY_CAPACITY);
    sketch_body(&mut body, series, cuts);
    body
}

/// Appends a multi-series CDF figure to `out`: per-series headline
/// stats, then a plot of the series that observed anything.
fn sketch_body<'a>(
    out: &mut String,
    series: impl Iterator<Item = (&'static str, &'a QuantileSketch)> + Clone,
    (unit, thresholds): Cuts,
) {
    const STATS: [&str; 4] = ["series", "n", "mean", "median"];
    let columns = STATS.len() + thresholds.len();
    table(out, columns, series.clone(), |out, row, col| {
        let Some((name, sketch)) = row else {
            return match STATS.get(col) {
                Some(label) => out.write_str(label),
                None => write!(out, "F({}{unit})", thresholds[col - STATS.len()]),
            };
        };
        // An empty sketch has no mean and no median: its row is dashes.
        match (col, sketch.mean(), sketch.quantile(0.5)) {
            (0, ..) => out.write_str(name),
            (1, ..) => write!(out, "{}", sketch.count()),
            (2, Some(mean), _) => write!(out, "{mean:.2}"),
            (3, _, Some(median)) => write!(out, "{median:.2}"),
            (col, Some(_), _) if col >= STATS.len() => {
                let t = thresholds[col - STATS.len()];
                write!(out, "{:.1}%", sketch.at(t) * 100.0)
            }
            _ => out.write_str("-"),
        }
    });
    out.push('\n');
    let hi = series
        .clone()
        .filter_map(|(_, s)| s.max())
        .fold(1.0f64, f64::max);
    let plotted = series
        .filter(|(_, s)| !s.is_empty())
        .map(|(name, s)| (name, |x| s.at(x)));
    if plotted.clone().next().is_some() {
        let grid = Grid {
            lo: 0.0,
            hi,
            points: 56,
        };
        cdf_plot(out, plotted, grid, 64, 16);
    }
}

/// Prints an optional number with the format's precision and sign, or
/// `-` when there is none.
struct Dash(Option<f64>);

impl fmt::Display for Dash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(v) => fmt::Display::fmt(&v, f),
            None => f.write_str("-"),
        }
    }
}

// ---------- Figure 1: buffering & playout timeline ----------

/// Figure 1's body. It reads nothing of the campaign (a population and
/// a 70 s session from fixed seeds), so it is simulated once a process.
fn fig1(_: &StudyData) -> String {
    static BODY: OnceLock<String> = OnceLock::new();
    BODY.get_or_init(simulate_fig1).clone()
}

fn simulate_fig1() -> String {
    // A single broadband session, sampled once a second: coded vs. current
    // bandwidth and frame rate, showing the prebuffer burst and smooth
    // playout (the paper's Figure 1).
    let mut rng = rv_sim::SimRng::seed_from_u64(0xF161);
    let pop = build_population(&mut rng, 1.0);
    let user = pop.participants.iter().find(|u| {
        u.connection == ConnectionClass::DslCable
            && u.firewall == rv_rtsp::FirewallPolicy::Open
            && u.pc.cpu_power() > 0.9
    });
    let roster = server_roster();
    let site = roster.iter().find(|s| s.name == "US/CNN");
    let (Some(user), Some(site)) = (user, site) else {
        // Unreachable with the fixed seed and roster, which a test pins.
        return "No healthy DSL user or no US/CNN server to replay.\n".to_owned();
    };
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
        let frames_now = stats.iter().filter(|e| e.played_at.is_some()).count();
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
    const HEADER: [&str; 5] = [
        "t(s)",
        "coded bw (kbps)",
        "current bw (kbps)",
        "coded fps",
        "current fps",
    ];
    // Rendered once a process, so its cells stay strings.
    table(&mut body, HEADER.len(), rows.iter(), |out, row, col| {
        out.write_str(row.map_or(HEADER[col], |cells| &cells[col]))
    });
    body
}

// ---------- Figures 5–9: campaign composition ----------

/// A per-user count CDF: a headline naming `what`, then the plot. Exact,
/// not sketched: per-user counts are exact integers in the aggregates.
fn per_user_cdf(counts: &[f64], what: &str, note: &str, grid: Grid, series: &str) -> String {
    let mut body = String::with_capacity(BODY_CAPACITY);
    let Some(cdf) = Cdf::from_samples(counts) else {
        body.push_str("Users: 0\n\n(no data)\n");
        return body;
    };
    let _ = write!(
        body,
        "Users: {}   median {what}: {:.0}   max: {:.0}{note}\n\n",
        cdf.count(),
        cdf.quantile(0.5),
        cdf.max()
    );
    cdf_plot(
        &mut body,
        std::iter::once((series, |x| cdf.at(x))),
        grid,
        64,
        16,
    );
    body
}

fn fig5(data: &StudyData) -> String {
    let agg = &data.aggregates;
    let counts: Vec<f64> = agg.plays_per_user.values().map(|c| *c as f64).collect();
    let grid = Grid {
        lo: 0.0,
        hi: 100.0,
        points: 51,
    };
    per_user_cdf(
        &counts,
        "clips/user",
        " (playlist holds 98)",
        grid,
        "clips/user",
    )
}

fn fig6(data: &StudyData) -> String {
    let agg = &data.aggregates;
    // Every participant appears (users who rated nothing count as zero).
    let counts: Vec<f64> = agg
        .plays_per_user
        .keys()
        .map(|user| agg.rated_by(*user) as f64)
        .collect();
    let grid = Grid {
        lo: 0.0,
        hi: 35.0,
        points: 36,
    };
    per_user_cdf(&counts, "rated clips/user", "", grid, "rated/user")
}

fn bar_figure(counts: &CategoryCount) -> String {
    let items = counts.by_count_ascending();
    let mut body = String::with_capacity(BODY_CAPACITY);
    bar_chart(&mut body, items.iter().map(|&(k, v)| (k, v as f64)), 48);
    body
}

fn fig10(data: &StudyData) -> String {
    let agg = &data.aggregates;
    let overall = agg.unavailable as f64 / agg.total_attempts as f64;
    let mut body = String::with_capacity(BODY_CAPACITY);
    let _ = write!(
        body,
        "Overall unavailable fraction: {overall:.3} (paper: ~0.10)\n\n"
    );
    let items = agg.attempts_by_server.iter().map(|(name, total)| {
        (
            name,
            agg.unavailable_by_server.get(name) as f64 / total as f64,
        )
    });
    bar_chart(&mut body, items, 48);
    body
}

// ---------- Figures 11–19: frame rate & bandwidth ----------

fn fig11(data: &StudyData) -> String {
    let agg = &data.aggregates;
    let fps = &agg.fps;
    let mut body = String::with_capacity(BODY_CAPACITY);
    let _ = write!(
        body,
        "mean {:.1} fps (paper: 10)   <3 fps: {:.0}% (paper: ~25%)   \
         >=15 fps: {:.0}% (paper: ~25%)   >=24 fps: {:.1}% (paper: <1%)\n\n",
        fps.mean().unwrap_or(0.0),
        fps.at(3.0) * 100.0,
        (1.0 - fps.at(15.0 - 1e-9)) * 100.0,
        (1.0 - fps.at(24.0 - 1e-9)) * 100.0,
    );
    sketch_body(
        &mut body,
        std::iter::once(("all clips", fps)),
        (" fps", &[3.0, 15.0, 24.0]),
    );
    body
}

fn fig16(data: &StudyData) -> String {
    let agg = &data.aggregates;
    let counts = &agg.protocol_played;
    let udp = counts.fraction("UDP");
    let mut body = String::with_capacity(BODY_CAPACITY);
    let _ = write!(
        body,
        "UDP: {:.1}% (paper: ~56%)   TCP: {:.1}% (paper: ~44%)\n\n",
        udp * 100.0,
        (1.0 - udp) * 100.0,
    );
    let items = [
        ("UDP", counts.get("UDP") as f64),
        ("TCP", counts.get("TCP") as f64),
    ];
    bar_chart(&mut body, items.into_iter(), 48);
    body
}

// ---------- Figures 20–25: jitter ----------

fn fig20(data: &StudyData) -> String {
    let agg = &data.aggregates;
    let jitter = &agg.jitter;
    let mut body = String::with_capacity(BODY_CAPACITY);
    let _ = write!(
        body,
        "jitter <=50 ms: {:.0}% (paper: ~50%)   >=300 ms: {:.0}% (paper: ~15%)\n\n",
        jitter.at(50.0) * 100.0,
        (1.0 - jitter.at(300.0)) * 100.0,
    );
    sketch_body(&mut body, std::iter::once(("all clips", jitter)), MS);
    body
}

fn fig25(data: &StudyData) -> String {
    let agg = &data.aggregates;
    let names = ["< 10K", "10K - 100K", "> 100K"];
    let series = (0u8..)
        .zip(names)
        .map(|(bucket, name)| (name, agg.jitter_by_bw_bucket.get(&bucket).unwrap_or(&EMPTY)));
    sketch_figure(series, MS)
}

// ---------- Figures 26–28: perceptual quality ----------

fn fig26(data: &StudyData) -> String {
    let agg = &data.aggregates;
    let ratings = &agg.ratings;
    let mut body = String::with_capacity(BODY_CAPACITY);
    let _ = write!(
        body,
        "rated clips: {}   mean rating: {:.2} (paper: ~5, near-uniform CDF)\n\n",
        ratings.count(),
        ratings.mean().unwrap_or(0.0),
    );
    sketch_body(
        &mut body,
        std::iter::once(("ratings", ratings)),
        ("", &[2.0, 5.0, 8.0]),
    );
    body
}

fn fig28(data: &StudyData) -> String {
    let agg = &data.aggregates;
    let q = &agg.quality;
    let mut body = String::with_capacity(BODY_CAPACITY);
    let _ = write!(
        body,
        "points: {}   pearson r: {:.3}   slope: {:+.4} rating/kbps\n\
         low ratings (<=2) at high bandwidth (>250 kbps): {} of {}\n\
         (paper: weak correlation, slight upward trend, no low ratings at high bandwidth)\n\n",
        q.moments.n,
        Dash(q.moments.pearson()),
        Dash(q.moments.slope()),
        q.high_bw_low_rating,
        q.high_bw,
    );
    // Scatter summary: mean rating per bandwidth bin.
    const HEADER: [&str; 3] = ["bandwidth (kbps)", "n", "mean rating"];
    let bins = BANDWIDTH_BINS.iter().zip(&q.bins);
    table(&mut body, HEADER.len(), bins, |out, row, col| match row {
        None => out.write_str(HEADER[col]),
        Some(((lo, hi), (n, rating_sum))) => match col {
            0 => write!(out, "{lo:.0}-{hi:.0}"),
            1 => write!(out, "{n}"),
            _ => write!(out, "{:.2}", Dash(rating_sum.mean(*n))),
        },
    });
    body
}

// ---------- Section IV aggregates ----------

fn aggregate(data: &StudyData) -> String {
    let agg = &data.aggregates;
    let unavailable = agg.unavailable as f64 / agg.total_attempts as f64;
    let rows: [(&str, &dyn fmt::Display, &str); 10] = [
        ("participants", &data.participants, "63"),
        ("clip plays (sessions)", &agg.total_attempts, "~2855"),
        ("clips watched & rated", &agg.rated, "~388"),
        ("user countries", &agg.user_countries.len(), "12"),
        ("servers", &agg.attempts_by_server.len(), "11"),
        ("server countries", &agg.server_countries.len(), "8"),
        (
            "unavailable fraction",
            &format_args!("{unavailable:.3}"),
            "~0.10",
        ),
        ("played successfully", &agg.played, "-"),
        (
            "firewall-excluded volunteers",
            &data.excluded_users,
            "\"several\"",
        ),
        ("blocked sessions recorded", &agg.blocked, "0"),
    ];
    const HEADER: [&str; 3] = ["quantity", "measured", "paper"];
    let mut body = String::with_capacity(BODY_CAPACITY);
    table(
        &mut body,
        HEADER.len(),
        rows.iter(),
        |out, row, col| match (row, col) {
            (None, _) => out.write_str(HEADER[col]),
            (Some((quantity, _, _)), 0) => out.write_str(quantity),
            (Some((_, measured, _)), 1) => write!(out, "{measured}"),
            (Some((_, _, paper)), _) => out.write_str(paper),
        },
    );
    body
}

// ---------- gateway-tier figures ----------

/// The gateway-tier figures: quality vs replica count, replica load skew,
/// and failover recovery. These need a replica *sweep* — one campaign per
/// replica count — rather than a single run, so they are generated by
/// `repro gateway` and deliberately not part of [`FIGURE_IDS`]: `repro
/// all` output is unchanged by the gateway tier.
pub fn gateway_figures(sweep: &[(u8, StudyData)]) -> Vec<FigureOutput> {
    use rv_sim::Counter;

    const HEADER: [&str; 8] = [
        "replicas",
        "played",
        "mean rating",
        "mean fps",
        "server-down",
        "rejected",
        "redirects",
        "failovers",
    ];
    let mut quality = String::new();
    table(&mut quality, HEADER.len(), sweep.iter(), |out, row, col| {
        let Some((replicas, data)) = row else {
            return out.write_str(HEADER[col]);
        };
        let agg = &data.aggregates;
        let outcome = |label: &str| agg.failures.outcomes.get(label).copied().unwrap_or(0);
        match col {
            0 => write!(out, "{replicas}"),
            1 => write!(out, "{}", agg.played),
            2 => write!(out, "{:.2}", Dash(agg.ratings.mean())),
            3 => write!(out, "{:.2}", Dash(agg.fps.mean())),
            4 => write!(out, "{}", outcome("server-down")),
            5 => write!(out, "{}", outcome("rejected")),
            6 => write!(out, "{}", agg.counters.get(Counter::GatewayRedirects)),
            _ => write!(out, "{}", agg.counters.get(Counter::Failovers)),
        }
    });

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

    #[test]
    fn fig1_finds_its_user_and_server_and_plays() {
        // The fixed seed's population has a healthy open DSL user and the
        // roster has US/CNN: `simulate_fig1`'s fallback never renders.
        let body = simulate_fig1();
        assert!(body.starts_with("Buffering and playout"), "{body}");
        assert!(body.lines().count() > 60);
    }

    #[test]
    fn bodies_fit_their_first_buffer() {
        let d = data();
        // Figure 1 renders once a process; it is not sized.
        for f in all_figures(&d).iter().filter(|f| f.id != "fig1") {
            assert!(
                f.body.len() <= BODY_CAPACITY,
                "{} is {} bytes",
                f.id,
                f.body.len()
            );
        }
    }
}
