//! The gateway tier: deterministic replica selection for a server site.
//!
//! A site may deploy several replicas of its RealServer (a `StudyParams`
//! knob; default 1, i.e. exactly the single-server study). The gateway
//! is not a simulated box — it is the deterministic routing *decision*
//! made at session start: given the site, the user's zone, and a derived
//! seed, it produces the order in which the client will try replicas,
//! plus each replica's seeded standing load. "Healthy" is discovered at
//! runtime: the client walks the order and hops past replicas that
//! refuse, reset, or answer 453 Busy.

use rv_sim::SimRng;

use crate::geography::{path_profile, Zone};

/// How the gateway orders a site's replicas for a new session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayPolicy {
    /// Fixed plan order, replica 0 first — the pre-gateway behavior.
    Sticky,
    /// Closest replica first, by the zone-pair transit delay between the
    /// user and the zone each replica is deployed in.
    NearestHealthy,
    /// Least standing load first; the seeded background load stands in
    /// for the occupancy a real gateway would poll.
    LeastLoaded,
}

impl GatewayPolicy {
    /// Parse a CLI spelling of a policy.
    pub fn parse(s: &str) -> Option<GatewayPolicy> {
        match s {
            "sticky" => Some(GatewayPolicy::Sticky),
            "nearest" => Some(GatewayPolicy::NearestHealthy),
            "least-loaded" => Some(GatewayPolicy::LeastLoaded),
            _ => None,
        }
    }

    /// The canonical spelling accepted by [`parse`](GatewayPolicy::parse).
    pub fn name(self) -> &'static str {
        match self {
            GatewayPolicy::Sticky => "sticky",
            GatewayPolicy::NearestHealthy => "nearest",
            GatewayPolicy::LeastLoaded => "least-loaded",
        }
    }
}

/// Everything the world builder needs to stand up one session's cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewaySpec {
    /// Replica count, clamped to at least 1.
    pub replicas: u8,
    /// Selection policy.
    pub policy: GatewayPolicy,
    /// Per-replica session capacity; 0 disables admission control.
    pub capacity: u32,
    /// Derived per-session seed for loads (and nothing else).
    pub seed: u64,
}

/// The zone replica `k` of a site is deployed in. Replica 0 sits in the
/// site's own zone; further replicas rotate through the remaining zones,
/// so a 2-replica US site has one domestic and one overseas box.
pub fn replica_zone(site_zone: Zone, k: u8) -> Zone {
    const CYCLE: [Zone; 5] = [Zone::Na, Zone::Eu, Zone::As, Zone::Oc, Zone::Sa];
    let base = CYCLE.iter().position(|z| *z == site_zone).unwrap_or(0);
    CYCLE[(base + usize::from(k)) % CYCLE.len()]
}

/// Compute the routing decision for one session into recycled storage:
/// `order` is refilled with the replica indices in the order the client
/// should try them, and `loads` with each replica's seeded standing load
/// (indexed by replica, not order). Allocates only past the most
/// replicas the two vectors held.
///
/// Loads are drawn from a fresh generator over `spec.seed` only — the
/// session's own RNG streams are untouched, so enabling the gateway
/// cannot perturb any other draw. With admission control on
/// (`capacity > 0`) loads land in `0..=capacity`, so some replicas start
/// full and SETUPs against them bounce with 453; without it a small
/// `0..4` load exists purely as a `LeastLoaded` signal.
pub fn route(
    spec: &GatewaySpec,
    site_zone: Zone,
    user_zone: Zone,
    order: &mut Vec<u8>,
    loads: &mut Vec<u32>,
) {
    let n = spec.replicas.max(1);
    let mut rng = SimRng::seed_from_u64(spec.seed);
    loads.clear();
    loads.extend((0..n).map(|_| {
        if spec.capacity > 0 {
            rng.range(0..spec.capacity + 1)
        } else {
            rng.range(0..4u32)
        }
    }));
    order.clear();
    order.extend(0..n);
    // Every key ends in the replica index, so no two are equal and the
    // unstable sort (which never allocates) orders as a stable one would.
    match spec.policy {
        GatewayPolicy::Sticky => {}
        GatewayPolicy::NearestHealthy => {
            order.sort_unstable_by_key(|&k| {
                (path_profile(user_zone, replica_zone(site_zone, k)).delay, k)
            });
        }
        GatewayPolicy::LeastLoaded => {
            order.sort_unstable_by_key(|&k| (loads[usize::from(k)], k));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `route` into fresh vectors: the order and the loads.
    fn plan(spec: &GatewaySpec, site_zone: Zone, user_zone: Zone) -> (Vec<u8>, Vec<u32>) {
        let (mut order, mut loads) = (Vec::new(), Vec::new());
        route(spec, site_zone, user_zone, &mut order, &mut loads);
        (order, loads)
    }

    fn spec(replicas: u8, policy: GatewayPolicy, capacity: u32) -> GatewaySpec {
        GatewaySpec {
            replicas,
            policy,
            capacity,
            seed: 7,
        }
    }

    #[test]
    fn sticky_keeps_plan_order() {
        let (order, loads) = plan(&spec(4, GatewayPolicy::Sticky, 0), Zone::Na, Zone::Eu);
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(loads.len(), 4);
    }

    #[test]
    fn nearest_prefers_the_users_zone() {
        // US site, EU user: replica 1 of a Na site rotates into Eu, the
        // user's own zone, and must be tried first.
        let (order, _) = plan(
            &spec(2, GatewayPolicy::NearestHealthy, 0),
            Zone::Na,
            Zone::Eu,
        );
        assert_eq!(order[0], 1);
    }

    #[test]
    fn least_loaded_sorts_by_load_then_index() {
        let (order, loads) = plan(&spec(4, GatewayPolicy::LeastLoaded, 8), Zone::Na, Zone::Na);
        for pair in order.windows(2) {
            let (a, b) = (usize::from(pair[0]), usize::from(pair[1]));
            assert!(loads[a] < loads[b] || (loads[a] == loads[b] && pair[0] < pair[1]));
        }
    }

    #[test]
    fn loads_respect_the_capacity_band() {
        let (_, loads) = plan(&spec(8, GatewayPolicy::Sticky, 3), Zone::As, Zone::As);
        assert!(loads.iter().all(|&l| l <= 3));
        let (_, loads) = plan(&spec(8, GatewayPolicy::Sticky, 0), Zone::As, Zone::As);
        assert!(loads.iter().all(|&l| l < 4));
    }

    /// The same spec routes the same way, also into storage a wider
    /// plan left behind.
    #[test]
    fn routing_is_deterministic_in_the_seed() {
        let (narrow, wide) = (
            spec(4, GatewayPolicy::LeastLoaded, 6),
            spec(8, GatewayPolicy::Sticky, 9),
        );
        let fresh = plan(&narrow, Zone::Eu, Zone::Oc);
        assert_eq!(plan(&narrow, Zone::Eu, Zone::Oc), fresh);
        let (mut order, mut loads) = plan(&wide, Zone::Na, Zone::Na);
        route(&narrow, Zone::Eu, Zone::Oc, &mut order, &mut loads);
        assert_eq!((order, loads), fresh);
    }

    #[test]
    fn replica_zones_rotate_from_the_site_zone() {
        assert_eq!(replica_zone(Zone::Na, 0), Zone::Na);
        assert_eq!(replica_zone(Zone::Na, 1), Zone::Eu);
        assert_eq!(replica_zone(Zone::Sa, 1), Zone::Na);
    }
}
