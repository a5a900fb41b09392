//! Geography: countries, regions, and the inter-region path model.
//!
//! The paper groups servers into five regions (Figure 14) and users into
//! four (Figure 15). Paths between regions differ in propagation delay,
//! baseline loss, and congestion level — the 2001 Internet's transoceanic
//! links were the dominant quality differentiator on the user side.

use rv_net::CongestionParams;
use rv_sim::SimDuration;

/// Countries appearing in the study (12 user countries + 8 server countries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Country {
    Australia,
    Brazil,
    Canada,
    China,
    Egypt,
    France,
    Germany,
    India,
    Italy,
    Japan,
    NewZealand,
    Romania,
    Uae,
    Uk,
    Us,
}

impl Country {
    /// Display name used in figure output.
    pub fn name(self) -> &'static str {
        match self {
            Country::Australia => "Australia",
            Country::Brazil => "Brazil",
            Country::Canada => "Canada",
            Country::China => "China",
            Country::Egypt => "Egypt",
            Country::France => "France",
            Country::Germany => "Germany",
            Country::India => "India",
            Country::Italy => "Italy",
            Country::Japan => "Japan",
            Country::NewZealand => "New Zealand",
            Country::Romania => "Romania",
            Country::Uae => "UAE",
            Country::Uk => "UK",
            Country::Us => "US",
        }
    }

    /// The variant's name as `{:?}` prints it: the failure report's
    /// by-country key, without formatting one per session.
    pub fn ident(self) -> &'static str {
        match self {
            Country::Australia => "Australia",
            Country::Brazil => "Brazil",
            Country::Canada => "Canada",
            Country::China => "China",
            Country::Egypt => "Egypt",
            Country::France => "France",
            Country::Germany => "Germany",
            Country::India => "India",
            Country::Italy => "Italy",
            Country::Japan => "Japan",
            Country::NewZealand => "NewZealand",
            Country::Romania => "Romania",
            Country::Uae => "Uae",
            Country::Uk => "Uk",
            Country::Us => "Us",
        }
    }
}

/// The paper's five server regions (Figure 14's grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ServerRegion {
    /// China + Japan.
    Asia,
    /// Brazil.
    Brazil,
    /// US + Canada.
    UsCanada,
    /// Australia.
    Australia,
    /// UK + Italy.
    Europe,
}

impl ServerRegion {
    /// All server regions, figure order.
    pub const ALL: [ServerRegion; 5] = [
        ServerRegion::Asia,
        ServerRegion::Brazil,
        ServerRegion::UsCanada,
        ServerRegion::Australia,
        ServerRegion::Europe,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ServerRegion::Asia => "Asia",
            ServerRegion::Brazil => "Brazil",
            ServerRegion::UsCanada => "US/Canada",
            ServerRegion::Australia => "Australia",
            ServerRegion::Europe => "Europe",
        }
    }
}

/// The paper's four user regions (Figure 15's grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UserRegion {
    /// Australia + New Zealand.
    AustraliaNz,
    /// US + Canada.
    UsCanada,
    /// China, India, UAE (and Egypt, grouped with the Middle East).
    Asia,
    /// UK, France, Germany, Romania.
    Europe,
}

impl UserRegion {
    /// All user regions, figure order.
    pub const ALL: [UserRegion; 4] = [
        UserRegion::AustraliaNz,
        UserRegion::UsCanada,
        UserRegion::Asia,
        UserRegion::Europe,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            UserRegion::AustraliaNz => "Australia/NewZealand",
            UserRegion::UsCanada => "US/Canada",
            UserRegion::Asia => "Asia",
            UserRegion::Europe => "Europe",
        }
    }
}

/// Maps a user's country to its figure region.
pub fn user_region(country: Country) -> UserRegion {
    match country {
        Country::Australia | Country::NewZealand => UserRegion::AustraliaNz,
        Country::Us | Country::Canada => UserRegion::UsCanada,
        Country::China | Country::India | Country::Uae | Country::Egypt => UserRegion::Asia,
        _ => UserRegion::Europe,
    }
}

/// Maps a server's country to its figure region.
pub fn server_region(country: Country) -> ServerRegion {
    match country {
        Country::China | Country::Japan => ServerRegion::Asia,
        Country::Brazil => ServerRegion::Brazil,
        Country::Us | Country::Canada => ServerRegion::UsCanada,
        Country::Australia => ServerRegion::Australia,
        _ => ServerRegion::Europe,
    }
}

/// A continental zone used for path computation (finer than the figure
/// regions: Japan routes differently from China, Egypt from the UK).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Zone {
    /// North America.
    Na,
    /// South America.
    Sa,
    /// Western + Eastern Europe.
    Eu,
    /// East + South Asia, Middle East.
    As,
    /// Australia + New Zealand.
    Oc,
}

/// The zone a country routes through.
pub fn zone(country: Country) -> Zone {
    match country {
        Country::Us | Country::Canada => Zone::Na,
        Country::Brazil => Zone::Sa,
        Country::Uk
        | Country::France
        | Country::Germany
        | Country::Italy
        | Country::Romania
        | Country::Egypt => Zone::Eu,
        Country::China | Country::India | Country::Japan | Country::Uae => Zone::As,
        Country::Australia | Country::NewZealand => Zone::Oc,
    }
}

/// Properties of the transit path between two zones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathProfile {
    /// One-way propagation delay of the transit leg.
    pub delay: SimDuration,
    /// Baseline (non-congestive) packet loss on the path.
    pub base_loss: f64,
    /// Background cross-traffic intensity.
    pub congestion: CongestionParams,
    /// Extra loss at full congestion.
    pub congestion_loss: f64,
}

/// The 2001-era path profile between two zones.
///
/// Delay values approximate great-circle + routing-inefficiency one-way
/// figures; loss and congestion encode the era's notoriously poor
/// transpacific and South-American transit and the relatively clean
/// intra-US and intra-European paths.
pub fn path_profile(a: Zone, b: Zone) -> PathProfile {
    use Zone::*;
    let (delay_ms, base_loss, congestion, congestion_loss) = match (a, b) {
        (Na, Na) => (25, 0.001, CongestionParams::light(), 0.01),
        (Eu, Eu) => (20, 0.002, CongestionParams::light(), 0.015),
        (As, As) => (45, 0.008, CongestionParams::moderate(), 0.03),
        (Oc, Oc) => (20, 0.003, CongestionParams::light(), 0.02),
        (Sa, Sa) => (25, 0.006, CongestionParams::moderate(), 0.03),
        (Na, Eu) | (Eu, Na) => (45, 0.004, CongestionParams::light(), 0.02),
        (Na, As) | (As, Na) => (85, 0.010, CongestionParams::moderate(), 0.04),
        (Na, Oc) | (Oc, Na) => (90, 0.008, CongestionParams::moderate(), 0.04),
        (Na, Sa) | (Sa, Na) => (70, 0.008, CongestionParams::moderate(), 0.04),
        (Eu, As) | (As, Eu) => (95, 0.012, CongestionParams::moderate(), 0.04),
        (Eu, Oc) | (Oc, Eu) => (150, 0.012, CongestionParams::moderate(), 0.05),
        (Eu, Sa) | (Sa, Eu) => (95, 0.010, CongestionParams::moderate(), 0.04),
        (As, Oc) | (Oc, As) => (80, 0.012, CongestionParams::heavy(), 0.05),
        (As, Sa) | (Sa, As) => (160, 0.015, CongestionParams::heavy(), 0.05),
        (Oc, Sa) | (Sa, Oc) => (160, 0.015, CongestionParams::heavy(), 0.06),
    };
    PathProfile {
        delay: SimDuration::from_millis(delay_ms),
        base_loss,
        congestion,
        congestion_loss,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_user_country_has_a_region() {
        for c in [
            Country::Australia,
            Country::Canada,
            Country::China,
            Country::Egypt,
            Country::France,
            Country::Germany,
            Country::India,
            Country::NewZealand,
            Country::Romania,
            Country::Uae,
            Country::Uk,
            Country::Us,
        ] {
            let _ = user_region(c); // must not panic
        }
        assert_eq!(user_region(Country::NewZealand), UserRegion::AustraliaNz);
        assert_eq!(user_region(Country::Egypt), UserRegion::Asia);
        assert_eq!(user_region(Country::Romania), UserRegion::Europe);
    }

    #[test]
    fn country_ident_is_its_debug_name() {
        for c in [
            Country::Australia,
            Country::Brazil,
            Country::Canada,
            Country::China,
            Country::Egypt,
            Country::France,
            Country::Germany,
            Country::India,
            Country::Italy,
            Country::Japan,
            Country::NewZealand,
            Country::Romania,
            Country::Uae,
            Country::Uk,
            Country::Us,
        ] {
            assert_eq!(c.ident(), format!("{c:?}"));
        }
    }

    #[test]
    fn server_regions_match_figure_14_grouping() {
        assert_eq!(server_region(Country::Japan), ServerRegion::Asia);
        assert_eq!(server_region(Country::China), ServerRegion::Asia);
        assert_eq!(server_region(Country::Brazil), ServerRegion::Brazil);
        assert_eq!(server_region(Country::Italy), ServerRegion::Europe);
        assert_eq!(server_region(Country::Canada), ServerRegion::UsCanada);
    }

    #[test]
    fn path_profile_is_symmetric() {
        for a in [Zone::Na, Zone::Sa, Zone::Eu, Zone::As, Zone::Oc] {
            for b in [Zone::Na, Zone::Sa, Zone::Eu, Zone::As, Zone::Oc] {
                assert_eq!(path_profile(a, b), path_profile(b, a));
            }
        }
    }

    #[test]
    fn transoceanic_paths_are_worse_than_domestic() {
        let domestic = path_profile(Zone::Na, Zone::Na);
        let transpacific = path_profile(Zone::Na, Zone::Oc);
        assert!(transpacific.delay > domestic.delay);
        assert!(transpacific.base_loss > domestic.base_loss);
    }

    #[test]
    fn intra_us_is_cleanest() {
        let na = path_profile(Zone::Na, Zone::Na);
        for (a, b) in [
            (Zone::As, Zone::As),
            (Zone::Eu, Zone::Oc),
            (Zone::Na, Zone::As),
        ] {
            let p = path_profile(a, b);
            assert!(p.base_loss >= na.base_loss);
        }
    }
}
