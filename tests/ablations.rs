//! The four design-decision ablations of DESIGN.md §3, one session each
//! with one mechanism changed, at fixed seeds:
//!
//! * SureStream ladder vs. single-rate encoding (decision 4);
//! * FEC parity on vs. off (the paper's error-correcting packets);
//! * prebuffer depth, 1 s → 16 s (decision 5, Figures 1 and 20);
//! * TFRC rate control vs. a sender pinned at 350 kbps (decision 3, the
//!   Figure 18 mechanism).
//!
//! The test prints every row as the markdown table EXPERIMENTS.md
//! ("Ablations") shows, then asserts the direction DESIGN.md claims where
//! the rows show one. FEC's difference is within one session's noise, so
//! its rows are printed, not asserted. Campaign-level ablations (ROADMAP
//! item 7) are to replace these single sessions.
//!
//! ```text
//! cargo test --release --test ablations -- --nocapture
//! ```

use rv_media::{Clip, ContentKind, SureStream};
use rv_net::{CongestionParams, LinkParams};
use rv_server::{ServerConfig, TfrcConfig};
use rv_sim::{SimDuration, SimTime};
use rv_tracer::{two_host_world, ClientConfig, SessionMetrics};

/// Runs one 200 s session on a two-host world.
fn session(
    path: LinkParams,
    clip: &Clip,
    seed: u64,
    cfg_fn: impl FnOnce(&mut ClientConfig, &mut ServerConfig),
) -> SessionMetrics {
    two_host_world(path, clip.clone(), seed, cfg_fn).run(SimTime::from_secs(200))
}

/// A 350 kbps path with random loss and moderate cross traffic: the
/// ladder and rate-control ablations' path.
fn congested_path() -> LinkParams {
    LinkParams::lan()
        .rate(350_000.0)
        .delay(SimDuration::from_millis(60))
        .queue(48 * 1024)
        .loss(0.005)
        .cross_traffic(CongestionParams::moderate(), 0.04)
}

fn news(name: &str) -> Clip {
    Clip::new(name, SimDuration::from_secs(300), ContentKind::News)
}

fn jitter(m: &SessionMetrics) -> f64 {
    m.jitter_ms.expect("a played session has a jitter")
}

/// Prints one table row.
fn row(ablation: &str, setting: &str, m: &SessionMetrics) {
    println!(
        "| {ablation} | {setting} | {:.1} | {} | {:.0} | {} | {} | {} |",
        m.frame_rate,
        m.jitter_ms.map_or("-".into(), |j| format!("{j:.0}")),
        m.bandwidth_kbps,
        m.packets_lost,
        m.frames_recovered,
        m.rebuffer_events,
    );
}

#[test]
fn each_ablation_moves_the_way_design_md_says() {
    println!("| ablation | setting | fps | jitter (ms) | kbps | packets lost | frames recovered | rebuffers |");
    println!("|---|---|---|---|---|---|---|---|");

    // Decision 4: the ladder against one 300 kbps encoding, both capped
    // at a 384 kbps client preset.
    let ladder = |clip: &Clip| {
        session(congested_path(), clip, 0xAB1, |cl, _| {
            cl.max_bandwidth_bps = 384_000;
        })
    };
    let adaptive = ladder(&news("a.rm"));
    let single = ladder(&Clip::with_ladder(
        "s.rm",
        SimDuration::from_secs(300),
        ContentKind::News,
        SureStream::single(300_000),
    ));
    row("ladder", "SureStream", &adaptive);
    row("ladder", "single-rate 300 kbps", &single);

    // Parity packets every 8 data packets, or none, at 2 % random loss.
    let lossy = LinkParams::lan()
        .rate(400_000.0)
        .delay(SimDuration::from_millis(40))
        .loss(0.02)
        .queue(64 * 1024);
    let fec = |group: usize| {
        session(lossy, &news("f.rm"), 0xAB2, |_, s| {
            s.fec_group = group;
        })
    };
    row("fec", "group 8", &fec(8));
    row("fec", "off", &fec(0));

    // Decision 5: client prebuffer (and the server's lead five seconds
    // past it) under heavy cross traffic.
    let heavy = LinkParams::lan()
        .rate(500_000.0)
        .delay(SimDuration::from_millis(60))
        .queue(256 * 1024)
        .cross_traffic(CongestionParams::heavy(), 0.0);
    let prebuffer: Vec<(u64, SessionMetrics)> = [1, 4, 8, 16]
        .into_iter()
        .map(|secs| {
            let m = session(heavy, &news("p.rm"), 0xAB3, |cl, s| {
                cl.playout.prebuffer = SimDuration::from_secs(secs);
                s.buffer_lead = SimDuration::from_secs(secs + 5);
                cl.max_bandwidth_bps = 300_000;
            });
            row("prebuffer", &format!("{secs} s"), &m);
            (secs, m)
        })
        .collect();

    // Decision 3: TFRC against a controller pinned at 350 kbps whatever
    // the receiver reports say.
    let rate_control = |tfrc: TfrcConfig| {
        session(congested_path(), &news("r.rm"), 0xAB4, |cl, s| {
            cl.max_bandwidth_bps = 384_000;
            s.tfrc = tfrc;
        })
    };
    let responsive = rate_control(TfrcConfig::default());
    let pinned = rate_control(TfrcConfig {
        min_rate_bps: 350_000.0,
        max_rate_bps: 350_000.0,
        ..TfrcConfig::default()
    });
    row("rate control", "TFRC", &responsive);
    row("rate control", "pinned 350 kbps", &pinned);

    assert!(
        adaptive.frame_rate > single.frame_rate && jitter(&adaptive) < jitter(&single),
        "the ladder must beat single-rate on both frame rate and jitter: {adaptive:?} vs {single:?}"
    );
    let (_, shallow) = &prebuffer[0];
    for (secs, deeper) in &prebuffer[1..] {
        assert!(
            jitter(deeper) < jitter(shallow),
            "a {secs} s prebuffer must hide more jitter than 1 s: {deeper:?} vs {shallow:?}"
        );
    }
    // Tenfold, not merely fewer: the rows read 26 against 1,088, and a
    // controller that ignores its receiver reports still loses 214.
    assert!(
        responsive.packets_lost * 10 < pinned.packets_lost,
        "TFRC must lose far fewer packets than a pinned sender: {responsive:?} vs {pinned:?}"
    );
}
