//! Replays a [`FaultPlan`] into a running session world.
//!
//! The plan is abstract (segments, times, policies); this module grounds
//! it: a [`FaultLinkMap`] names the concrete links realizing each path
//! segment, and the [`FaultInjector`] fires the plan's events — link
//! down/up, loss-burst on/off, server crash/restart — at their scheduled
//! instants as the harness drives the world. A world with an empty plan
//! (every fault-free campaign) holds an idle injector, whose cost per
//! instant is one bounds check. A world's injector is recycled with it:
//! `FaultInjector::renew` grounds the next plan on the last one's queue.

use rv_net::LinkId;
use rv_sim::{FaultPlan, FaultSegment, OutagePolicy, SimTime};

/// Which concrete links realize each abstract fault segment in this
/// world's topology. Both directions of a duplex leg belong in its list:
/// an access-link outage severs upstream and downstream alike.
#[derive(Debug, Clone, Default)]
pub struct FaultLinkMap {
    /// The user's access leg.
    pub client_access: Vec<LinkId>,
    /// The inter-cloud transit leg.
    pub transit: Vec<LinkId>,
    /// The server's access leg.
    pub server_access: Vec<LinkId>,
}

impl FaultLinkMap {
    fn links(&self, seg: FaultSegment) -> &[LinkId] {
        match seg {
            FaultSegment::ClientAccess => &self.client_access,
            FaultSegment::Transit => &self.transit,
            FaultSegment::ServerAccess => &self.server_access,
        }
    }
}

/// One grounded fault event, ready to apply.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultAction {
    LinkDown(LinkId, OutagePolicy),
    LinkUp(LinkId),
    BurstOn(LinkId, u32),
    BurstOff(LinkId),
    ServerCrash(u8),
    ServerRestart(u8),
}

/// A time-ordered queue of grounded fault events.
#[derive(Debug, Default)]
pub struct FaultInjector {
    events: Vec<(SimTime, FaultAction)>,
    next: usize,
}

impl FaultInjector {
    /// Grounds `plan` against `map`. Events at equal times apply in plan
    /// order (the sort is stable), so injection is deterministic.
    pub fn new(plan: &FaultPlan, map: &FaultLinkMap) -> Self {
        let mut injector = FaultInjector::default();
        injector.renew(plan, map);
        injector
    }

    /// Grounds `plan` against `map` on this injector's storage, as
    /// [`FaultInjector::new`] would: it allocates only for a plan with
    /// more events than any it held before.
    pub(crate) fn renew(&mut self, plan: &FaultPlan, map: &FaultLinkMap) {
        self.disarm();
        let events = &mut self.events;
        for o in &plan.link_outages {
            for &l in map.links(o.segment) {
                events.push((o.start, FaultAction::LinkDown(l, o.policy)));
                events.push((o.end, FaultAction::LinkUp(l)));
            }
        }
        for b in &plan.loss_bursts {
            for &l in map.links(b.segment) {
                events.push((b.start, FaultAction::BurstOn(l, b.loss_ppm)));
                events.push((b.end, FaultAction::BurstOff(l)));
            }
        }
        for c in &plan.server_crashes {
            events.push((c.at, FaultAction::ServerCrash(c.replica)));
            if let Some(d) = c.restart_after {
                events.push((c.at + d, FaultAction::ServerRestart(c.replica)));
            }
        }
        events.sort_by_key(|(t, _)| *t);
    }

    /// Drops every event, keeping the storage: an idle injector.
    pub(crate) fn disarm(&mut self) {
        self.events.clear();
        self.next = 0;
    }

    /// When the next unapplied event fires, if any remain.
    pub fn next_wake(&self) -> Option<SimTime> {
        self.events.get(self.next).map(|(t, _)| *t)
    }

    /// Pops the next event due at or before `now`.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<FaultAction> {
        match self.events.get(self.next) {
            Some(&(t, a)) if t <= now => {
                self.next += 1;
                Some(a)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv_sim::{LinkOutage, ServerCrash, SimDuration};

    #[test]
    fn injector_orders_and_drains_events() {
        let plan = FaultPlan {
            link_outages: vec![LinkOutage {
                segment: FaultSegment::ClientAccess,
                start: SimTime::from_secs(5),
                end: SimTime::from_secs(9),
                policy: OutagePolicy::DropInFlight,
            }],
            loss_bursts: vec![],
            server_crashes: vec![ServerCrash {
                at: SimTime::from_secs(2),
                restart_after: Some(SimDuration::from_secs(4)),
                replica: 0,
            }],
            udp_blackhole: false,
        };
        let map = FaultLinkMap {
            client_access: vec![LinkId(0), LinkId(1)],
            ..FaultLinkMap::default()
        };
        let mut inj = FaultInjector::new(&plan, &map);
        // crash@2, restart@6 interleave with down@5 ×2 links and up@9 ×2.
        assert_eq!(inj.next_wake(), Some(SimTime::from_secs(2)));
        assert!(matches!(
            inj.pop_due(SimTime::from_secs(2)),
            Some(FaultAction::ServerCrash(0))
        ));
        assert!(inj.pop_due(SimTime::from_secs(2)).is_none());
        assert!(matches!(
            inj.pop_due(SimTime::from_secs(5)),
            Some(FaultAction::LinkDown(LinkId(0), OutagePolicy::DropInFlight))
        ));
        assert!(matches!(
            inj.pop_due(SimTime::from_secs(5)),
            Some(FaultAction::LinkDown(LinkId(1), _))
        ));
        assert!(matches!(
            inj.pop_due(SimTime::from_secs(6)),
            Some(FaultAction::ServerRestart(0))
        ));
        assert!(matches!(
            inj.pop_due(SimTime::from_secs(100)),
            Some(FaultAction::LinkUp(LinkId(0)))
        ));
        assert!(matches!(
            inj.pop_due(SimTime::from_secs(100)),
            Some(FaultAction::LinkUp(LinkId(1)))
        ));
        assert!(inj.pop_due(SimTime::from_secs(100)).is_none());
        assert_eq!(inj.next_wake(), None);
    }

    /// An injector renewed after another plan, part drained, queues
    /// exactly what a new one would.
    #[test]
    fn renew_equals_new() {
        let map = FaultLinkMap {
            client_access: vec![LinkId(0), LinkId(1)],
            transit: vec![LinkId(2), LinkId(3)],
            ..FaultLinkMap::default()
        };
        let outage = |segment, start| LinkOutage {
            segment,
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(start + 3),
            policy: OutagePolicy::CarryInFlight,
        };
        let a = FaultPlan {
            link_outages: vec![outage(FaultSegment::ClientAccess, 4)],
            ..FaultPlan::none()
        };
        let b = FaultPlan {
            link_outages: vec![outage(FaultSegment::Transit, 1)],
            server_crashes: vec![ServerCrash {
                at: SimTime::from_secs(1),
                restart_after: None,
                replica: 1,
            }],
            ..FaultPlan::none()
        };
        let mut injector = FaultInjector::new(&a, &map);
        assert!(injector.pop_due(SimTime::from_secs(5)).is_some());
        injector.renew(&b, &map);
        let fresh = FaultInjector::new(&b, &map);
        assert_eq!(format!("{injector:?}"), format!("{fresh:?}"));
        injector.disarm();
        assert_eq!(injector.next_wake(), None);
    }

    #[test]
    fn empty_plan_builds_an_idle_injector() {
        let inj = FaultInjector::new(&FaultPlan::none(), &FaultLinkMap::default());
        assert_eq!(inj.next_wake(), None);
    }
}
