//! The user population: 63 volunteers in 12 countries.
//!
//! Per-country user counts and clip totals follow Figure 7; the
//! Massachusetts-heavy US state distribution follows Figure 9; connection
//! classes, PC classes, firewalls, and rating behavior are sampled from
//! era-calibrated distributions (see `params.rs` for the figure each knob
//! is calibrated against).

use rv_rtsp::{FirewallPolicy, TransportPreference};
use rv_sim::{SimRng, Weights};
use rv_tracer::RaterProfile;

use crate::geography::{user_region, Country, UserRegion};

/// End-host network class (Figures 12, 13, 21, 27).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConnectionClass {
    /// 56k dial-up modem.
    Modem56k,
    /// DSL or cable modem.
    DslCable,
    /// Corporate T1 / campus LAN.
    T1Lan,
}

impl ConnectionClass {
    /// All classes, figure order.
    pub const ALL: [ConnectionClass; 3] = [
        ConnectionClass::Modem56k,
        ConnectionClass::DslCable,
        ConnectionClass::T1Lan,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ConnectionClass::Modem56k => "56k Modem",
            ConnectionClass::DslCable => "DSL/Cable",
            ConnectionClass::T1Lan => "T1/LAN",
        }
    }
}

/// End-host PC class (Figure 19's memory + CPU buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PcClass {
    /// Intel Pentium MMX, 24 MB — the paper's clearly-worst machines.
    PentiumMmx24,
    /// Pentium II, 32 MB.
    PentiumII32,
    /// Intel Celeron, 64–96 MB.
    Celeron64_96,
    /// Pentium II, 128–256 MB.
    PentiumII128_256,
    /// AMD, 320–512 MB.
    Amd320_512,
    /// Pentium III, 256–512 MB.
    PentiumIII256_512,
}

impl PcClass {
    /// All classes, roughly ascending power.
    pub const ALL: [PcClass; 6] = [
        PcClass::PentiumMmx24,
        PcClass::PentiumII32,
        PcClass::Celeron64_96,
        PcClass::PentiumII128_256,
        PcClass::Amd320_512,
        PcClass::PentiumIII256_512,
    ];

    /// Display name (as Figure 19 labels them).
    pub fn name(self) -> &'static str {
        match self {
            PcClass::PentiumMmx24 => "Pentium MMX / 24MB",
            PcClass::PentiumII32 => "Pentium II / 32MB",
            PcClass::Celeron64_96 => "Celeron / 64-96MB",
            PcClass::PentiumII128_256 => "Pentium II / 128-256MB",
            PcClass::Amd320_512 => "AMD / 320-512MB",
            PcClass::PentiumIII256_512 => "Pentium III / 256-512MB",
        }
    }

    /// Decode-speed factor for the player's CPU model. Only the MMX/24MB
    /// class is slow enough to bottleneck decoding (the paper's finding);
    /// the others differ modestly and non-monotonically.
    pub fn cpu_power(self) -> f64 {
        match self {
            PcClass::PentiumMmx24 => 0.10,
            PcClass::PentiumII32 => 0.55,
            PcClass::Celeron64_96 => 0.80,
            PcClass::PentiumII128_256 => 0.95,
            PcClass::Amd320_512 => 1.05,
            PcClass::PentiumIII256_512 => 1.10,
        }
    }
}

/// One study participant.
#[derive(Debug, Clone)]
pub struct UserProfile {
    /// Stable user id.
    pub id: u32,
    /// Home country.
    pub country: Country,
    /// US state (two-letter) for US users, Figure 9.
    pub state: Option<&'static str>,
    /// Access network class.
    pub connection: ConnectionClass,
    /// PC class.
    pub pc: PcClass,
    /// Client-side firewall.
    pub firewall: FirewallPolicy,
    /// RealPlayer transport preference.
    pub transport_pref: TransportPreference,
    /// Downstream access rate, bits/second (the user's actual line).
    pub access_down_bps: f64,
    /// Upstream access rate, bits/second.
    pub access_up_bps: f64,
    /// Rating disposition.
    pub rater: RaterProfile,
    /// Number of clips this user plays (Figure 5).
    pub clips_to_play: u32,
    /// Number of clips this user rates (Figure 6).
    pub clips_to_rate: u32,
}

impl UserProfile {
    /// The user's figure region.
    pub fn region(&self) -> UserRegion {
        user_region(self.country)
    }
}

/// Per-country population targets: (country, users, total clips played).
/// Totals are Figure 7's bar labels; user counts apportion the paper's 63
/// participants in proportion.
pub const COUNTRY_TARGETS: [(Country, u32, u32); 12] = [
    (Country::Us, 45, 2100),
    (Country::China, 3, 142),
    (Country::Germany, 3, 131),
    (Country::France, 2, 115),
    (Country::Australia, 2, 98),
    (Country::Canada, 2, 84),
    (Country::Uk, 1, 59),
    (Country::Uae, 1, 55),
    (Country::Romania, 1, 47),
    (Country::NewZealand, 1, 32),
    (Country::India, 1, 16),
    (Country::Egypt, 1, 8),
];

/// US states and weights from Figure 9 (Massachusetts dominates).
pub const US_STATE_WEIGHTS: [(&str, f64); 17] = [
    ("VA", 8.0),
    ("WA", 12.0),
    ("ME", 16.0),
    ("TN", 22.0),
    ("CT", 30.0),
    ("NH", 40.0),
    ("CO", 50.0),
    ("IL", 60.0),
    ("TX", 75.0),
    ("CA", 90.0),
    ("WI", 100.0),
    ("DE", 110.0),
    ("MD", 120.0),
    ("MN", 140.0),
    ("NC", 200.0),
    ("FL", 320.0),
    ("MA", 1050.0),
];

/// Connection-class mix by region. The US/Canada and Europe samples skew
/// toward broadband and office LANs (the study was solicited through
/// computer-science colleagues); Australia/NZ and Asia volunteers were
/// mostly on modems — the mechanism behind Figure 15's orderings.
fn connection_weights(region: UserRegion) -> &'static Weights<3> {
    const US_CANADA: Weights<3> = Weights::new([0.25, 0.40, 0.35]);
    const EUROPE: Weights<3> = Weights::new([0.30, 0.30, 0.40]);
    const ASIA: Weights<3> = Weights::new([0.55, 0.15, 0.30]);
    const AUSTRALIA_NZ: Weights<3> = Weights::new([0.85, 0.05, 0.10]);
    match region {
        UserRegion::UsCanada => &US_CANADA,
        UserRegion::Europe => &EUROPE,
        UserRegion::Asia => &ASIA,
        UserRegion::AustraliaNz => &AUSTRALIA_NZ,
    }
}

/// [`US_STATE_WEIGHTS`]' weights, in its order.
const US_STATES: Weights<17> = {
    let mut weights = [0.0; 17];
    let mut i = 0;
    while i < weights.len() {
        weights[i] = US_STATE_WEIGHTS[i].1;
        i += 1;
    }
    Weights::new(weights)
};

/// PC-class mix (era-typical: mostly recent machines, a tail of relics).
/// Modem households skew old — people who had not upgraded their access
/// generally had not upgraded their PC either.
const PC_WEIGHTS_BROADBAND: Weights<6> = Weights::new([0.03, 0.07, 0.18, 0.30, 0.17, 0.25]);
const PC_WEIGHTS_MODEM: Weights<6> = Weights::new([0.22, 0.22, 0.22, 0.18, 0.08, 0.08]);

/// The study population: the 63 analyzable participants plus the
/// volunteers whose firewalls blocked RTSP entirely (the paper removed
/// them from every analysis but notes they existed).
#[derive(Debug, Clone)]
pub struct Population {
    /// Participants whose data enters the analysis.
    pub participants: Vec<UserProfile>,
    /// Volunteers excluded because RTSP was blocked.
    pub excluded: Vec<UserProfile>,
}

/// Builds the full participant roster, deterministically from `rng`.
///
/// `scale` in `(0, 1]` shrinks every user's clip count proportionally (for
/// fast test runs); 1.0 reproduces Figure 7's totals exactly. Above 1,
/// the population is replicated: the base 63-user roster is built at
/// per-replica fraction `scale / ceil(scale)` and cloned `ceil(scale)`
/// times with an id stride of 1,000,000, so total session count grows
/// ∝ `scale` while every stratum proportion (country, connection, PC,
/// firewall, rating mix) stays exactly identical — the scaling knob for
/// constant-memory campaign studies.
pub fn build_population(rng: &mut SimRng, scale: f64) -> Population {
    assert!(
        scale > 0.0 && scale.is_finite(),
        "scale must be positive and finite"
    );
    let replicas = if scale <= 1.0 { 1 } else { scale.ceil() as u32 };
    let scale = scale / f64::from(replicas);
    let mut users = Vec::new();
    let mut id = 0;
    for (country, n_users, total_clips) in COUNTRY_TARGETS {
        let clip_counts = apportion_clips(rng, n_users, total_clips);
        for clips in clip_counts {
            let region = user_region(country);
            let connection = ConnectionClass::ALL[rng.pick(connection_weights(region))];
            let pc_weights = if connection == ConnectionClass::Modem56k {
                &PC_WEIGHTS_MODEM
            } else {
                &PC_WEIGHTS_BROADBAND
            };
            let pc = PcClass::ALL[rng.pick(pc_weights)];
            // Corporate LANs sit behind firewalls that often block UDP
            // (RTSP-blocking volunteers are generated separately below —
            // the paper excluded them from all analysis).
            // Corporate firewalls blocked UDP most often, but home NAT
            // gateways and ISP filters did too — the paper's TCP share is
            // spread across all connection classes (its Figure 17 finds
            // TCP and UDP frame-rate distributions nearly identical, which
            // requires the two populations to look alike).
            let block_udp_prob = match connection {
                ConnectionClass::T1Lan => 0.40,
                ConnectionClass::DslCable => 0.08,
                ConnectionClass::Modem56k => 0.20,
            };
            let firewall = if rng.chance(block_udp_prob) {
                FirewallPolicy::BlockUdp
            } else {
                FirewallPolicy::Open
            };
            let (access_down_bps, access_up_bps) = match connection {
                // Many 2001 dial-up users still connected at 28.8–33.6k, and
                // line quality degraded nominal 56k modems well below 50k.
                // Long rural loops made Australian/NZ and Asian dialup
                // worse still.
                ConnectionClass::Modem56k => {
                    let (lo, hi) = match region {
                        UserRegion::AustraliaNz => (18_000.0, 33_600.0),
                        UserRegion::Asia => (20_000.0, 38_000.0),
                        _ => (24_000.0, 48_000.0),
                    };
                    (rng.range(lo..hi), 28_800.0)
                }
                ConnectionClass::DslCable => (rng.range(256_000.0..512_000.0), 128_000.0),
                ConnectionClass::T1Lan => (1_544_000.0, 1_544_000.0),
            };
            let transport_pref = if rng.chance(0.05) {
                TransportPreference::ForceTcp
            } else {
                TransportPreference::Auto
            };
            let state = (country == Country::Us).then(|| US_STATE_WEIGHTS[rng.pick(&US_STATES)].0);
            let clips_to_play = ((f64::from(clips) * scale).round() as u32).max(1);
            // Figure 6: half the users rated ~3 clips, some none, a few many.
            let clips_to_rate = if rng.chance(0.18) {
                0
            } else if rng.chance(0.55) {
                3
            } else {
                rng.range(4..=20u32).min(clips_to_play)
            };
            users.push(UserProfile {
                id,
                country,
                state,
                connection,
                pc,
                firewall,
                transport_pref,
                access_down_bps,
                access_up_bps,
                rater: RaterProfile::sample(rng),
                clips_to_play,
                clips_to_rate: clips_to_rate.min(clips_to_play),
            });
            id += 1;
        }
    }
    // "Several users that tried to participate were behind firewalls that
    // did not allow RTSP packets through" — model them as a handful of
    // extra volunteers the analysis drops.
    let excluded = (0..4)
        .map(|i| {
            let mut u = users[rng.range(0..users.len())].clone();
            u.id = 1000 + i;
            u.firewall = FirewallPolicy::BlockRtsp;
            u.connection = ConnectionClass::T1Lan;
            u
        })
        .collect();
    // Replication happens after every RNG draw, so a replicated
    // population is the base population (at the per-replica fraction)
    // repeated verbatim: identical strata, disjoint user ids (the base
    // roster and the excluded volunteers all sit far below the stride).
    if replicas > 1 {
        let base = users.clone();
        for r in 1..replicas {
            users.extend(base.iter().map(|u| {
                let mut c = u.clone();
                c.id = u.id + r * 1_000_000;
                c
            }));
        }
    }
    Population {
        participants: users,
        excluded,
    }
}

/// Splits `total` clips among `n` users with a Figure 5-like spread
/// (median ≈ 40, max 98, a tail of small counts), preserving the total.
fn apportion_clips(rng: &mut SimRng, n: u32, total: u32) -> Vec<u32> {
    if n == 1 {
        return vec![total.min(98)];
    }
    // Log-normal weights create the long-tail spread.
    let weights: Vec<f64> = (0..n).map(|_| rng.log_normal(0.0, 0.55)).collect();
    let wsum: f64 = weights.iter().sum();
    let mut counts: Vec<u32> = weights
        .iter()
        .map(|w| ((w / wsum) * f64::from(total)).round().clamp(2.0, 98.0) as u32)
        .collect();
    // Repair rounding / clamping drift toward the exact total.
    let mut diff = i64::from(total) - counts.iter().map(|c| i64::from(*c)).sum::<i64>();
    let mut i = 0;
    while diff != 0 && i < 10_000 {
        let idx = i % counts.len();
        if diff > 0 && counts[idx] < 98 {
            counts[idx] += 1;
            diff -= 1;
        } else if diff < 0 && counts[idx] > 2 {
            counts[idx] -= 1;
            diff += 1;
        }
        i += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population(seed: u64) -> Vec<UserProfile> {
        let mut rng = SimRng::seed_from_u64(seed);
        build_population(&mut rng, 1.0).participants
    }

    #[test]
    fn sixty_three_users_twelve_countries() {
        let users = population(1);
        assert_eq!(users.len(), 63);
        let mut rng = SimRng::seed_from_u64(1);
        let pop = build_population(&mut rng, 1.0);
        assert!(!pop.excluded.is_empty());
        assert!(pop
            .excluded
            .iter()
            .all(|u| u.firewall == FirewallPolicy::BlockRtsp));
        let countries: std::collections::BTreeSet<Country> =
            users.iter().map(|u| u.country).collect();
        assert_eq!(countries.len(), 12);
    }

    #[test]
    fn clip_totals_match_figure_7() {
        let users = population(2);
        for (country, _, total) in COUNTRY_TARGETS {
            let got: u32 = users
                .iter()
                .filter(|u| u.country == country)
                .map(|u| u.clips_to_play)
                .sum();
            assert_eq!(got, total, "country {country:?}");
        }
    }

    #[test]
    fn us_users_have_states_others_do_not() {
        let users = population(3);
        for u in &users {
            assert_eq!(u.state.is_some(), u.country == Country::Us);
        }
        // Massachusetts dominates.
        let ma = users.iter().filter(|u| u.state == Some("MA")).count();
        let us = users.iter().filter(|u| u.country == Country::Us).count();
        assert!(ma * 2 >= us / 2, "MA users {ma} of {us}");
    }

    #[test]
    fn clips_per_user_in_figure_5_range() {
        let users = population(4);
        for u in &users {
            assert!((1..=98).contains(&u.clips_to_play), "{}", u.clips_to_play);
            assert!(u.clips_to_rate <= u.clips_to_play);
        }
        // Median near 40 (Figure 5: half the users played 40+).
        let mut counts: Vec<u32> = users.iter().map(|u| u.clips_to_play).collect();
        counts.sort_unstable();
        let median = counts[counts.len() / 2];
        assert!((25..=60).contains(&median), "median {median}");
    }

    #[test]
    fn aus_nz_users_mostly_modems() {
        // Aggregate over many seeds: the regional skew must be visible.
        let mut aus_modem = 0;
        let mut aus_total = 0;
        for seed in 0..30 {
            for u in population(seed) {
                if u.region() == UserRegion::AustraliaNz {
                    aus_total += 1;
                    if u.connection == ConnectionClass::Modem56k {
                        aus_modem += 1;
                    }
                }
            }
        }
        let frac = f64::from(aus_modem) / f64::from(aus_total);
        assert!(frac > 0.55, "AU/NZ modem fraction {frac}");
    }

    #[test]
    fn scale_shrinks_counts() {
        let mut rng = SimRng::seed_from_u64(5);
        let full = build_population(&mut rng, 1.0).participants;
        let mut rng = SimRng::seed_from_u64(5);
        let small = build_population(&mut rng, 0.1).participants;
        let full_total: u32 = full.iter().map(|u| u.clips_to_play).sum();
        let small_total: u32 = small.iter().map(|u| u.clips_to_play).sum();
        assert!(small_total < full_total / 5);
        assert!(small.iter().all(|u| u.clips_to_play >= 1));
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn zero_scale_rejected() {
        let mut rng = SimRng::seed_from_u64(6);
        build_population(&mut rng, 0.0);
    }

    #[test]
    fn scale_above_one_replicates_with_identical_strata() {
        let mut rng = SimRng::seed_from_u64(7);
        let base = build_population(&mut rng, 1.0);
        let mut rng = SimRng::seed_from_u64(7);
        let big = build_population(&mut rng, 3.0);
        assert_eq!(big.participants.len(), base.participants.len() * 3);
        // Exactly the base roster, repeated with an id stride.
        for (i, u) in big.participants.iter().enumerate() {
            let b = &base.participants[i % base.participants.len()];
            let replica = (i / base.participants.len()) as u32;
            assert_eq!(u.id, b.id + replica * 1_000_000);
            assert_eq!(u.country, b.country);
            assert_eq!(u.connection, b.connection);
            assert_eq!(u.pc, b.pc);
            assert_eq!(u.clips_to_play, b.clips_to_play);
            assert_eq!(u.clips_to_rate, b.clips_to_rate);
        }
        // Exclusions are not replicated.
        assert_eq!(big.excluded.len(), base.excluded.len());
        // Ids never collide.
        let ids: std::collections::BTreeSet<u32> = big.participants.iter().map(|u| u.id).collect();
        assert_eq!(ids.len(), big.participants.len());
    }

    #[test]
    fn fractional_scale_above_one_grows_sessions_proportionally() {
        let mut rng = SimRng::seed_from_u64(8);
        let full: u32 = build_population(&mut rng, 1.0)
            .participants
            .iter()
            .map(|u| u.clips_to_play)
            .sum();
        let mut rng = SimRng::seed_from_u64(8);
        let grown: u32 = build_population(&mut rng, 2.5)
            .participants
            .iter()
            .map(|u| u.clips_to_play)
            .sum();
        // 2.5× the sessions, within per-user rounding slack.
        let ratio = f64::from(grown) / f64::from(full);
        assert!((2.2..=2.8).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn deterministic_population() {
        let a = population(9);
        let b = population(9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.country, y.country);
            assert_eq!(x.clips_to_play, y.clips_to_play);
            assert_eq!(x.connection, y.connection);
        }
    }
}
