//! The metric names, units and bounds — one table that `BENCHMARK.json`
//! must agree with (`rvbench smoke` checks it does).
//!
//! Every number is either **host** (what the simulator costs on this
//! machine; noisy, bounded) or **sim** (what the modelled 2001 Internet
//! did; deterministic in the seed, and identical between two commits that
//! claim only a speed-up).

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`; negative
    /// when it is better.
    pub fn worse_by(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (old - new) / old.abs(),
            Better::Lower => (new - old) / old.abs(),
        }
    }
}

/// One metric: name, unit, direction. End-to-end metrics carry a
/// regression bound; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which an end-to-end metric may
    /// worsen before a change counts as a regression (0 for per-layer
    /// metrics, which are not gated).
    pub bound: f64,
    /// Host or sim, and whether the value repeats exactly.
    pub kind: Kind,
}

/// What a number measures. Every number the benchmark prints carries one
/// of these labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What the simulator costs on this machine: a time, a rate or a
    /// memory peak, subject to the box's noise.
    Host,
    /// A host cost that is a pure function of the seed on one thread (an
    /// allocation count): two runs of one commit agree exactly.
    HostExact,
    /// What the modelled 2001 Internet did: deterministic in the seed, and
    /// identical between two commits that claim only a speed-up.
    Sim,
}

impl Kind {
    /// Label for the printed tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::HostExact => "host, exact",
            Kind::Sim => "sim",
        }
    }
}

impl Metric {
    /// Whether two runs of one commit on one seed must agree exactly.
    pub fn exact(&self) -> bool {
        self.kind != Kind::Host
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    kind: Kind,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        kind,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{Host, HostExact, Sim};

/// End-to-end metrics, reported per workload with tracing off.
///
/// A bound has to cover what ten runs on ten different seeds spread by on
/// the box the baseline was taken on (README, "Why the bounds are what
/// they are"): the time metrics by 14–18% of their median, because this
/// shared two-core VM drifts by a tenth and more between back-to-back runs
/// of one binary, and the memory and allocation metrics by 2–12%, because
/// a different seed is a different population. For one seed the exact
/// metrics repeat, and `rvbench compare` lists any that moved at all.
pub const END_TO_END: [Metric; 8] = [
    e2e("sessions_per_sec", "sessions/s", Higher, 0.25, Host),
    e2e("cpu_s_per_ksession", "s", Lower, 0.25, Host),
    e2e("peak_rss_mb", "MiB", Lower, 0.25, Host),
    e2e("allocs_per_session", "count", Lower, 0.10, HostExact),
    e2e("alloc_bytes_per_session", "bytes", Lower, 0.25, HostExact),
    e2e("setup_s", "s", Lower, 0.25, Host),
    e2e("session_sim_s", "sim_s", Lower, 0.10, Sim),
    e2e("completed_share", "fraction", Higher, 0.001, Sim),
];

/// Per-layer metrics, reported per workload from the traced pass. A layer
/// is a crate; the prefix names it.
pub const PER_LAYER: [Metric; 49] = [
    layer("study.plan_us", "us", Lower, Host),
    layer("study.worldbuild_cold_us", "us", Lower, Host),
    layer("study.worldbuild_us_per_session", "us", Lower, Host),
    layer(
        "study.worldbuild_allocs_per_session",
        "count",
        Lower,
        HostExact,
    ),
    layer("study.retire_us_per_session", "us", Lower, Host),
    layer("study.accumulate_ns_per_session", "ns", Lower, Host),
    layer("study.merge_us", "us", Lower, Host),
    layer("study.session_host_us_p50", "us", Lower, Host),
    layer("study.session_host_us_p99", "us", Lower, Host),
    layer("study.session_host_us_max", "us", Lower, Host),
    layer("study.executor_idle_share", "fraction", Lower, Host),
    layer("study.executor_busy_skew", "fraction", Lower, Host),
    layer("tracer.run_us_per_session", "us", Lower, Host),
    layer("tracer.instants_per_session", "count", Lower, Sim),
    layer("tracer.settle_rounds_per_instant", "count", Lower, Sim),
    layer("tracer.inert_instant_share", "fraction", Lower, Sim),
    layer("tracer.driver_self_share", "fraction", Lower, Host),
    layer("tracer.next_wake_ns_per_instant", "ns", Lower, Host),
    layer("tracer.replica_arm_share", "fraction", Lower, Host),
    layer("tracer.client_poll_share", "fraction", Lower, Host),
    layer("tracer.client_poll_ns", "ns/call", Lower, Host),
    layer("tracer.client_poll_useful_share", "fraction", Higher, Sim),
    layer("tracer.mirror_ok", "bool", Higher, Sim),
    layer("tracer.mirror_coverage", "fraction", Higher, Sim),
    layer("server.poll_share", "fraction", Lower, Host),
    layer("server.poll_ns", "ns/call", Lower, Host),
    layer("server.poll_useful_share", "fraction", Higher, Sim),
    layer("server.allocs_per_session", "count", Lower, HostExact),
    layer("server.alloc_bytes_per_session", "bytes", Lower, HostExact),
    layer("net.poll_share", "fraction", Lower, Host),
    layer("net.poll_ns", "ns/call", Lower, Host),
    layer("net.poll_useful_share", "fraction", Higher, Sim),
    layer("net.ns_per_packet", "ns", Lower, Host),
    layer("net.packets_per_session", "count", Lower, Sim),
    layer("net.kernel_forward_ns_per_pkt", "ns", Lower, Host),
    layer("net.kernel_bottleneck_ns_per_pkt", "ns", Lower, Host),
    layer("transport.poll_share", "fraction", Lower, Host),
    layer("transport.client_poll_ns", "ns/call", Lower, Host),
    layer("transport.server_poll_ns", "ns/call", Lower, Host),
    layer("transport.poll_useful_share", "fraction", Higher, Sim),
    layer("transport.retransmits_per_session", "count", Lower, Sim),
    layer(
        "transport.kernel_bulk_clean_mib_per_s",
        "MiB/s",
        Higher,
        Host,
    ),
    layer(
        "transport.kernel_bulk_lossy_mib_per_s",
        "MiB/s",
        Higher,
        Host,
    ),
    layer("rtsp.kernel_encode_ns", "ns", Lower, Host),
    layer("rtsp.kernel_decode_ns", "ns", Lower, Host),
    layer("media.kernel_schedule_60s_us", "us", Lower, Host),
    layer("media.kernel_packetize_ns", "ns", Lower, Host),
    layer("player.kernel_playout_ns_per_frame", "ns", Lower, Host),
    layer("core.figures_ms", "ms", Lower, Host),
];

/// Whether `name` is spelled as the benchmark contract requires: starts
/// with a letter or digit, then at most 63 more of letters, digits, `_`,
/// `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is spelled as the benchmark contract requires.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the widest bound");
    }

    #[test]
    fn worse_by_follows_direction() {
        assert!((Higher.worse_by(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((Lower.worse_by(100.0, 90.0) + 0.1).abs() < 1e-12);
        assert_eq!(Lower.worse_by(0.0, 5.0), 0.0);
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("net.poll_ns"));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("MiB/s"));
        assert!(!valid_unit("host µs"));
        assert!(!valid_unit(""));
    }
}
