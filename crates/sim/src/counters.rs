//! Campaign counter registry: a fixed, enum-indexed set of u64 tallies.
//!
//! Components already keep deterministic per-session statistics (link
//! drop causes, TCP retransmits, playout rebuffer time, ...). A
//! [`CounterSet`] is the campaign-wide rollup of those statistics: one
//! `u64` per [`Counter`], collected once per finished session and folded
//! through the accumulator path with [`CounterSet::merge`] (element-wise
//! add). Addition is commutative and associative, so the totals are
//! bit-identical across any worker count and merge order — the same
//! merge law the rest of the aggregates obey.

/// One campaign-wide tally. The discriminant indexes [`CounterSet`];
/// the order here is the order counters print and serialize in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Packets discarded by a link's random-loss process.
    DropsLoss,
    /// Packets discarded by a full link queue.
    DropsQueue,
    /// Packets discarded or flushed by a link outage.
    DropsOutage,
    /// Packets delivered across all links.
    PacketsDelivered,
    /// TCP segments retransmitted (fast + timeout).
    TcpRetransmits,
    /// TCP retransmission-timer expiries.
    TcpRtoTimeouts,
    /// TCP dup-ACK fast retransmits.
    TcpFastRetransmits,
    /// Playout buffer underruns (rebuffer events).
    RebufferEvents,
    /// Total playback time spent stalled, in microseconds.
    RebufferMicros,
    /// Server rate-controller switches to a higher rung.
    RungSwitchesUp,
    /// Server rate-controller switches to a lower rung.
    RungSwitchesDown,
    /// Video frames dropped by server-side stream thinning.
    FramesThinned,
    /// Client session retries after a watchdog teardown.
    SessionRetries,
    /// Client UDP→TCP data-transport fallbacks.
    TransportFallbacks,
    /// Server process crashes (fault injection).
    ServerCrashes,
    /// Gateway re-routes of a session to another replica (any reason).
    GatewayRedirects,
    /// Gateway redirects caused by a replica crash or dead replica
    /// (subset of `GatewayRedirects`; the rest are admission redirects).
    Failovers,
    /// SETUPs refused by a replica at capacity (453 Busy).
    AdmissionRejects,
    /// Wire-head exposures (each link's wire — its packets propagating
    /// toward the far end — was once a separate delay line): a push onto
    /// an empty wire or in front of its head, or an arrival that uncovers
    /// a successor — the heads the network's delivery merge must track.
    DelaylineHeadUpdates,
    /// Packets that joined a busy wire behind an earlier head, with no
    /// scheduler interaction at all.
    DelaylineBypassPackets,
}

impl Counter {
    /// Number of counters in the registry.
    pub const COUNT: usize = 20;

    /// Every counter, in registry (serialization) order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::DropsLoss,
        Counter::DropsQueue,
        Counter::DropsOutage,
        Counter::PacketsDelivered,
        Counter::TcpRetransmits,
        Counter::TcpRtoTimeouts,
        Counter::TcpFastRetransmits,
        Counter::RebufferEvents,
        Counter::RebufferMicros,
        Counter::RungSwitchesUp,
        Counter::RungSwitchesDown,
        Counter::FramesThinned,
        Counter::SessionRetries,
        Counter::TransportFallbacks,
        Counter::ServerCrashes,
        Counter::GatewayRedirects,
        Counter::Failovers,
        Counter::AdmissionRejects,
        Counter::DelaylineHeadUpdates,
        Counter::DelaylineBypassPackets,
    ];

    /// Stable snake_case name used in the campaign summary, bench JSON,
    /// and the CI counter-snapshot diff.
    pub fn name(self) -> &'static str {
        match self {
            Counter::DropsLoss => "drops_loss",
            Counter::DropsQueue => "drops_queue",
            Counter::DropsOutage => "drops_outage",
            Counter::PacketsDelivered => "packets_delivered",
            Counter::TcpRetransmits => "tcp_retransmits",
            Counter::TcpRtoTimeouts => "tcp_rto_timeouts",
            Counter::TcpFastRetransmits => "tcp_fast_retransmits",
            Counter::RebufferEvents => "rebuffer_events",
            Counter::RebufferMicros => "rebuffer_micros",
            Counter::RungSwitchesUp => "rung_switches_up",
            Counter::RungSwitchesDown => "rung_switches_down",
            Counter::FramesThinned => "frames_thinned",
            Counter::SessionRetries => "session_retries",
            Counter::TransportFallbacks => "transport_fallbacks",
            Counter::ServerCrashes => "server_crashes",
            Counter::GatewayRedirects => "gateway_redirects",
            Counter::Failovers => "failovers",
            Counter::AdmissionRejects => "admission_rejects",
            Counter::DelaylineHeadUpdates => "delayline_head_updates",
            Counter::DelaylineBypassPackets => "delayline_bypass_packets",
        }
    }
}

/// A fixed array of campaign counters. `merge` is element-wise add — the
/// whole aggregation law, which is what makes campaign totals independent
/// of worker count and merge order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSet {
    vals: [u64; Counter::COUNT],
}

impl Default for CounterSet {
    fn default() -> Self {
        CounterSet::new()
    }
}

impl CounterSet {
    /// An all-zero counter set.
    pub const fn new() -> Self {
        CounterSet {
            vals: [0; Counter::COUNT],
        }
    }

    /// Adds `n` to counter `c`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.vals[c as usize] += n;
    }

    /// Current value of counter `c`.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    /// Folds `other` into `self` by element-wise addition.
    pub fn merge(&mut self, other: &CounterSet) {
        for (a, b) in self.vals.iter_mut().zip(other.vals.iter()) {
            *a += *b;
        }
    }

    /// `(counter, value)` pairs in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL
            .iter()
            .map(move |c| (*c, self.vals[*c as usize]))
    }

    /// `true` when every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.vals.iter().all(|v| *v == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_order_is_stable() {
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?} out of registry order");
        }
    }

    #[test]
    fn merge_is_elementwise_add() {
        let mut a = CounterSet::new();
        a.add(Counter::DropsLoss, 3);
        a.add(Counter::RebufferMicros, 1_000_000);
        let mut b = CounterSet::new();
        b.add(Counter::DropsLoss, 4);
        b.add(Counter::TcpRetransmits, 9);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab.get(Counter::DropsLoss), 7);
        assert_eq!(ab.get(Counter::TcpRetransmits), 9);
        assert_eq!(ab.get(Counter::RebufferMicros), 1_000_000);
        assert!(!ab.is_zero());
        assert!(CounterSet::new().is_zero());
    }
}
