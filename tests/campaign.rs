//! Cross-crate integration: the full campaign pipeline, from world model
//! through sessions to figures, checked against the paper's headline
//! claims at reduced scale. The shape checks read the streaming
//! aggregates — what `repro` computes every figure from — so they run the
//! constant-memory path.

use realvideo_core::{all_figures, figure};
use rv_sim::Counter;
use rv_study::{run_campaign, CampaignAggregates, ConnectionClass, StudyParams, UserRegion};

fn params() -> StudyParams {
    StudyParams {
        scale: 0.08,
        ..StudyParams::default()
    }
}

fn campaign() -> rv_study::StudyData {
    run_campaign(params()).expect("campaign runs")
}

fn aggregates() -> CampaignAggregates {
    campaign().aggregates
}

#[test]
fn campaign_structure_matches_study() {
    let data = campaign();
    assert_eq!(data.participants, 63);
    let agg = &data.aggregates;
    assert_eq!(agg.user_countries.len(), 12, "12 user countries");
    assert!(
        agg.attempts_by_server.len() >= 9,
        "most of the 11 servers visited"
    );
    assert!(data.summary.counters.get(Counter::PacketsDelivered) > 0);
}

#[test]
fn unavailability_is_about_ten_percent() {
    let agg = aggregates();
    let frac = agg.unavailable as f64 / agg.total_attempts as f64;
    assert!((0.04..0.20).contains(&frac), "unavailable fraction {frac}");
}

#[test]
fn overall_frame_rate_shape_matches_figure_11() {
    let fps = aggregates().fps;
    let mean = fps.mean().expect("played sessions");
    // Paper: mean 10 fps, ~25% below 3 fps, ~25% at or above 15 fps,
    // <1% at full-motion rates. Tolerances are generous: reduced scale.
    assert!((6.0..13.0).contains(&mean), "mean fps {mean}");
    assert!(
        (0.10..0.40).contains(&fps.at(3.0)),
        "below 3 fps: {}",
        fps.at(3.0)
    );
    let at_least_15 = 1.0 - fps.at(15.0 - 1e-9);
    assert!(
        (0.08..0.40).contains(&at_least_15),
        ">=15 fps: {at_least_15}"
    );
    let full_motion = 1.0 - fps.at(24.0 - 1e-9);
    assert!(full_motion < 0.05, "full motion fraction {full_motion}");
}

#[test]
fn modem_is_clearly_worse_than_broadband() {
    let agg = aggregates();
    let mean = |class: ConnectionClass| agg.fps_by_connection[&class].mean().unwrap();
    let modem = mean(ConnectionClass::Modem56k);
    let dsl = mean(ConnectionClass::DslCable);
    let lan = mean(ConnectionClass::T1Lan);
    assert!(modem < dsl * 0.6, "modem {modem} vs dsl {dsl}");
    // Paper: DSL/cable roughly matches T1/LAN.
    assert!(
        (dsl - lan).abs() < dsl.max(lan) * 0.5,
        "dsl {dsl} vs lan {lan}"
    );
}

#[test]
fn jitter_shape_matches_figure_20() {
    let jitter = aggregates().jitter;
    assert!(!jitter.is_empty(), "jitter samples");
    // Paper: just over 50% imperceptible (<=50 ms), ~15% >=300 ms.
    assert!(
        (0.30..0.70).contains(&jitter.at(50.0)),
        "imperceptible fraction {}",
        jitter.at(50.0)
    );
    let bad = 1.0 - jitter.at(300.0);
    assert!((0.05..0.40).contains(&bad), "heavy-jitter fraction {bad}");
}

#[test]
fn transport_split_is_roughly_half_and_half() {
    let agg = aggregates();
    assert_eq!(agg.protocol_played.total(), agg.played);
    let frac = agg.protocol_played.fraction("UDP");
    // Paper: ~56% UDP / 44% TCP.
    assert!((0.38..0.70).contains(&frac), "UDP fraction {frac}");
}

#[test]
fn udp_bandwidth_tracks_tcp_bandwidth() {
    let agg = aggregates();
    let mean_bw = |proto| agg.bw_by_protocol[proto].mean().unwrap();
    let (udp, tcp) = (mean_bw("UDP"), mean_bw("TCP"));
    // Figure 18: comparable means (application-layer congestion control).
    assert!(
        udp / tcp > 0.5 && udp / tcp < 2.0,
        "udp {udp} kbps vs tcp {tcp} kbps"
    );
}

#[test]
fn australia_nz_users_see_the_worst_frame_rates() {
    let agg = aggregates();
    let below3 = |region: UserRegion| agg.fps_by_user_region[&region].at(3.0);
    let aus = below3(UserRegion::AustraliaNz);
    let europe = below3(UserRegion::Europe);
    // Figure 15's ordering.
    assert!(aus > europe, "aus/nz {aus} vs europe {europe}");
}

#[test]
fn ratings_center_near_five() {
    let ratings = aggregates().ratings;
    assert!(
        ratings.count() > 30,
        "enough rated clips: {}",
        ratings.count()
    );
    let mean = ratings.mean().unwrap();
    assert!((3.5..6.5).contains(&mean), "mean rating {mean}");
}

#[test]
fn every_figure_renders_from_campaign_data() {
    let data = campaign();
    let figures = all_figures(&data);
    assert_eq!(figures.len(), 26);
    for f in &figures {
        assert!(!f.body.trim().is_empty(), "{} is empty", f.id);
    }
    // Spot-check one known body.
    let f16 = figure("fig16", &data).unwrap();
    assert!(f16.body.contains("UDP") && f16.body.contains("TCP"));
}
