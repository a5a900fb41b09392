//! SureStream adaptation in action: a mid-session congestion episode forces
//! the server down the encoding ladder and back up, visible in a per-second
//! timeline — the mechanism of the paper's Section II.C.
//!
//! ```text
//! cargo run --release --example surestream_demo
//! ```

use rv_media::{Clip, ContentKind};
use rv_net::{CongestionParams, LinkParams};
use rv_sim::{SimDuration, SimTime};
use rv_tracer::two_host_world;

fn main() {
    // A 600 kbps path with aggressive background cross traffic: long
    // congestion episodes squeeze the stream repeatedly.
    let congestion = CongestionParams {
        mean_level: 0.35,
        variability: 0.25,
        mean_epoch: SimDuration::from_secs(6),
        burst_prob: 0.15,
    };
    let params = LinkParams::lan()
        .rate(600_000.0)
        .delay(SimDuration::from_millis(50))
        .queue(64 * 1024)
        .cross_traffic(congestion, 0.05);
    let clip = Clip::new(
        "concert.rm",
        SimDuration::from_secs(300),
        ContentKind::Music,
    );
    let mut world = two_host_world(params, clip, 0x5117, |c, _| {
        c.watch_limit = SimDuration::from_secs(90);
        c.max_bandwidth_bps = 512_000;
    });

    println!("t(s)  rung  allowed(kbps)  loss     sent   thinned  played");
    let mut prev_rung = usize::MAX;
    for sec in 1..=95u64 {
        world.run(SimTime::from_secs(sec));
        let stats = world.server.stats();
        let played = world
            .client
            .events()
            .iter()
            .filter(|e| e.played_at.is_some())
            .count();
        if let Some(rung) = world.server.current_rung() {
            let marker = if rung != prev_rung { " <-- switch" } else { "" };
            prev_rung = rung;
            println!(
                "{sec:4}  {rung:4}  {:13.0}  {:.4}  {:5}  {:7}  {played:6}{marker}",
                world.server.allowed_bps() / 1e3,
                world.server.debug_loss(),
                stats.frames_sent,
                stats.frames_thinned,
            );
        }
        if world.client.is_done() {
            break;
        }
    }
    let m = world.run(SimTime::from_secs(200));
    let stats = world.server.stats();
    println!(
        "\nsession: {:.1} fps, jitter {} ms, {} down-switches, {} up-switches, {} thinned frames",
        m.frame_rate,
        m.jitter_ms.map_or("-".into(), |j| format!("{j:.0}")),
        stats.switches_down,
        stats.switches_up,
        stats.frames_thinned,
    );
}
