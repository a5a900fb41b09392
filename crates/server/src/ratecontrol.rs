//! Application-layer congestion control for UDP streams.
//!
//! RealSystem's UDP streams responded to congestion at the application
//! layer — the paper's Figure 18 shows UDP session bandwidth tracking TCP's
//! closely (slightly above it, i.e. "responsive but perhaps not strictly
//! TCP-friendly"). We model that with a TFRC-style controller: the client
//! reports loss and receive rate roughly once a second; the server computes
//! the TCP-equation throughput for the measured RTT and loss and caps the
//! stream rate there, probing gently upward when the path is clean.

use std::fmt;

use rv_sim::{SimDuration, SimTime};

/// A receiver report, carried on the control channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceiverReport {
    /// Fraction of packets lost in the report interval, `[0, 1]`.
    pub loss_rate: f64,
    /// Application receive rate over the interval, bits/second.
    pub recv_rate_bps: f64,
}

/// The `loss:recv` form of a SET_PARAMETER header value, rendered in
/// place by whoever writes the header: the once-a-second report path
/// does not allocate.
impl fmt::Display for ReceiverReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}:{:.1}", self.loss_rate, self.recv_rate_bps)
    }
}

impl ReceiverReport {
    /// Parses the `loss:recv` form.
    pub fn parse(s: &str) -> Option<ReceiverReport> {
        let (loss, rate) = s.split_once(':')?;
        let loss_rate: f64 = loss.parse().ok()?;
        let recv_rate_bps: f64 = rate.parse().ok()?;
        if !(0.0..=1.0).contains(&loss_rate) || !recv_rate_bps.is_finite() || recv_rate_bps < 0.0 {
            return None;
        }
        Some(ReceiverReport {
            loss_rate,
            recv_rate_bps,
        })
    }
}

/// Packet size used in the throughput equation, bytes.
const PACKET_BYTES: f64 = 1_000.0;
/// Multiplicative probe step per clean report (no loss).
const PROBE_GAIN: f64 = 1.22;
/// EWMA weight of the newest loss sample.
const LOSS_SMOOTHING: f64 = 0.4;

/// Controller bounds: what the rate-control ablation pins and
/// `open_stream` caps per stream. The equation's packet size
/// (`PACKET_BYTES` 1,000), the clean-report probe step (`PROBE_GAIN`
/// 1.22) and the loss EWMA weight (`LOSS_SMOOTHING` 0.4) are constants
/// in this module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TfrcConfig {
    /// Lower bound on the allowed rate (one packet per RTT floor stands in
    /// for TCP's one-segment minimum), bits/second.
    pub min_rate_bps: f64,
    /// Upper bound on the allowed rate, bits/second.
    pub max_rate_bps: f64,
}

impl Default for TfrcConfig {
    fn default() -> Self {
        TfrcConfig {
            min_rate_bps: 10_000.0,
            max_rate_bps: 600_000.0,
        }
    }
}

/// TFRC-like sender rate controller.
#[derive(Debug, Clone)]
pub struct TfrcController {
    cfg: TfrcConfig,
    allowed_bps: f64,
    smoothed_loss: f64,
    /// TFRC slow-start: double per clean report until the first loss.
    slow_start: bool,
    last_report: Option<SimTime>,
}

impl TfrcController {
    /// Creates a controller starting at `initial_bps`.
    ///
    /// If the configured bounds cross (a per-session cap below the floor,
    /// e.g. a low-bandwidth client), the floor wins and the controller
    /// degenerates to a fixed rate.
    pub fn new(cfg: TfrcConfig, initial_bps: f64) -> Self {
        let cfg = TfrcConfig {
            max_rate_bps: cfg.max_rate_bps.max(cfg.min_rate_bps),
            ..cfg
        };
        TfrcController {
            cfg,
            allowed_bps: initial_bps.clamp(cfg.min_rate_bps, cfg.max_rate_bps),
            smoothed_loss: 0.0,
            slow_start: true,
            last_report: None,
        }
    }

    /// The current allowed sending rate, bits/second.
    pub fn allowed_bps(&self) -> f64 {
        self.allowed_bps
    }

    /// The smoothed loss estimate.
    pub fn smoothed_loss(&self) -> f64 {
        self.smoothed_loss
    }

    /// The TCP throughput equation (simplified Mathis form):
    /// `rate = 1.22 * MSS / (RTT * sqrt(p))`, in bits/second.
    pub fn tcp_equation(&self, rtt: SimDuration, loss: f64) -> f64 {
        let rtt_s = rtt.as_secs_f64().max(0.005);
        let p = loss.max(1e-4);
        1.22 * PACKET_BYTES * 8.0 / (rtt_s * p.sqrt())
    }

    /// Applies a receiver report with the current RTT estimate (taken from
    /// the control connection's SRTT). Returns the new allowed rate.
    pub fn on_report(&mut self, now: SimTime, report: ReceiverReport, rtt: SimDuration) -> f64 {
        self.last_report = Some(now);
        let w = LOSS_SMOOTHING;
        self.smoothed_loss = (1.0 - w) * self.smoothed_loss + w * report.loss_rate;

        if self.smoothed_loss > 0.005 {
            // Congestion: leave slow-start and cap at the TCP-equation
            // rate, never far above what the receiver actually saw arrive.
            self.slow_start = false;
            let eq = self.tcp_equation(rtt, self.smoothed_loss);
            // Never above what actually arrived: sending faster than the
            // bottleneck delivers only builds queues.
            let ceiling = report.recv_rate_bps;
            self.allowed_bps = eq.min(ceiling.max(self.cfg.min_rate_bps));
        } else if self.slow_start {
            // Slow-start: double per clean report, like TFRC's initial
            // phase (the paper's Figure 1 initial bandwidth burst).
            let base = self.allowed_bps.max(report.recv_rate_bps);
            self.allowed_bps = base * 2.0;
        } else {
            // Steady state: gentle multiplicative probe.
            let base = self.allowed_bps.max(report.recv_rate_bps);
            self.allowed_bps = base * PROBE_GAIN;
        }
        self.allowed_bps = self
            .allowed_bps
            .clamp(self.cfg.min_rate_bps, self.cfg.max_rate_bps);
        self.allowed_bps
    }

    /// Halves the rate when reports stop arriving (feedback starvation is
    /// itself a congestion signal), at most once per `interval`.
    pub fn on_report_timeout(&mut self) {
        self.slow_start = false;
        self.allowed_bps = (self.allowed_bps / 2.0).max(self.cfg.min_rate_bps);
    }

    /// Time of the most recent report.
    pub fn last_report(&self) -> Option<SimTime> {
        self.last_report
    }
}

/// A byte-granularity token bucket used to pace UDP packets at the allowed
/// rate.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_bps: f64,
    burst_bytes: f64,
    tokens: f64,
    last_fill: SimTime,
}

impl TokenBucket {
    /// Creates a bucket with the given rate and burst (in bytes).
    pub fn new(rate_bps: f64, burst_bytes: f64) -> Self {
        TokenBucket {
            rate_bps,
            burst_bytes,
            tokens: burst_bytes,
            last_fill: SimTime::ZERO,
        }
    }

    /// Updates the fill rate.
    pub fn set_rate(&mut self, rate_bps: f64) {
        self.rate_bps = rate_bps.max(0.0);
    }

    /// The current rate.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_fill).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate_bps / 8.0).min(self.burst_bytes);
        self.last_fill = now;
    }

    /// Refills to `now` and reports whether `bytes` could be spent,
    /// spending nothing: all a refused [`TokenBucket::try_consume`] does.
    /// Asking again at the same `now` refills by `0.0` — nothing.
    pub fn covers(&mut self, now: SimTime, bytes: u32) -> bool {
        self.refill(now);
        self.tokens >= f64::from(bytes)
    }

    /// Attempts to spend `bytes`; `true` on success.
    pub fn try_consume(&mut self, now: SimTime, bytes: u32) -> bool {
        let covered = self.covers(now, bytes);
        if covered {
            self.tokens -= f64::from(bytes);
        }
        covered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips() {
        let r = ReceiverReport {
            loss_rate: 0.031,
            recv_rate_bps: 123_456.7,
        };
        // The wire form is pinned: six decimals of loss, one of rate.
        assert_eq!(r.to_string(), "0.031000:123456.7");
        assert_eq!(ReceiverReport::parse(&r.to_string()), Some(r));
    }

    #[test]
    fn report_parse_rejects_garbage() {
        assert!(ReceiverReport::parse("").is_none());
        assert!(ReceiverReport::parse("abc:1").is_none());
        assert!(ReceiverReport::parse("1.5:100").is_none()); // loss > 1
        assert!(ReceiverReport::parse("0.1:-5").is_none());
        assert!(ReceiverReport::parse("0.1").is_none());
    }

    #[test]
    fn clean_reports_probe_upward() {
        let mut c = TfrcController::new(TfrcConfig::default(), 20_000.0);
        // Slow-start doubles per clean report until the configured ceiling.
        let r1 = c.on_report(
            SimTime::from_secs(1),
            ReceiverReport {
                loss_rate: 0.0,
                recv_rate_bps: 20_000.0,
            },
            SimDuration::from_millis(80),
        );
        assert!((r1 - 40_000.0).abs() < 1.0, "doubled: {r1}");
        let mut last = r1;
        for i in 2..8 {
            let rate = c.on_report(
                SimTime::from_secs(i),
                ReceiverReport {
                    loss_rate: 0.0,
                    recv_rate_bps: last,
                },
                SimDuration::from_millis(80),
            );
            assert!(
                rate >= last,
                "never decreases on clean reports: {rate} vs {last}"
            );
            last = rate;
        }
        // ...and saturates at the ceiling.
        assert!((last - TfrcConfig::default().max_rate_bps).abs() < 1.0);
    }

    #[test]
    fn loss_caps_at_tcp_equation() {
        let mut c = TfrcController::new(TfrcConfig::default(), 400_000.0);
        let rtt = SimDuration::from_millis(100);
        // Repeated 5% loss reports.
        let mut rate = 0.0;
        for i in 0..8 {
            rate = c.on_report(
                SimTime::from_secs(i),
                ReceiverReport {
                    loss_rate: 0.05,
                    recv_rate_bps: 300_000.0,
                },
                rtt,
            );
        }
        let eq = c.tcp_equation(rtt, c.smoothed_loss());
        assert!(rate <= eq * 1.01, "rate {rate} above equation {eq}");
        assert!(rate < 400_000.0, "must back off from initial");
    }

    #[test]
    fn rate_respects_bounds() {
        let cfg = TfrcConfig::default();
        let mut c = TfrcController::new(cfg, 1e9);
        assert!(c.allowed_bps() <= cfg.max_rate_bps);
        for i in 0..30 {
            c.on_report(
                SimTime::from_secs(i),
                ReceiverReport {
                    loss_rate: 0.5,
                    recv_rate_bps: 100.0,
                },
                SimDuration::from_secs(2),
            );
        }
        assert!(c.allowed_bps() >= cfg.min_rate_bps);
    }

    #[test]
    fn crossed_bounds_degenerate_to_fixed_rate() {
        // A per-session cap below the configured floor must not panic
        // (f64::clamp panics when min > max); the floor wins.
        let cfg = TfrcConfig {
            min_rate_bps: 350_000.0,
            max_rate_bps: 326_000.0,
        };
        let mut c = TfrcController::new(cfg, 400_000.0);
        assert_eq!(c.allowed_bps(), 350_000.0);
        c.on_report(
            SimTime::from_secs(1),
            ReceiverReport {
                loss_rate: 0.1,
                recv_rate_bps: 100_000.0,
            },
            SimDuration::from_millis(100),
        );
        assert_eq!(c.allowed_bps(), 350_000.0);
    }

    #[test]
    fn report_timeout_halves() {
        let mut c = TfrcController::new(TfrcConfig::default(), 200_000.0);
        c.on_report_timeout();
        assert!((c.allowed_bps() - 100_000.0).abs() < 1.0);
    }

    #[test]
    fn equation_decreases_with_rtt_and_loss() {
        let c = TfrcController::new(TfrcConfig::default(), 1.0);
        let base = c.tcp_equation(SimDuration::from_millis(50), 0.01);
        assert!(c.tcp_equation(SimDuration::from_millis(200), 0.01) < base);
        assert!(c.tcp_equation(SimDuration::from_millis(50), 0.04) < base);
        // 4x loss → ~2x lower (sqrt).
        let quarter = c.tcp_equation(SimDuration::from_millis(50), 0.04);
        assert!((base / quarter - 2.0).abs() < 0.05);
    }

    #[test]
    fn token_bucket_paces_rate() {
        let mut tb = TokenBucket::new(80_000.0, 2_000.0); // 10 KB/s, 2 KB burst
        let t0 = SimTime::from_secs(1);
        // Burst drains first.
        assert!(tb.try_consume(t0, 1000));
        assert!(tb.try_consume(t0, 1000));
        assert!(!tb.try_consume(t0, 1000));
        // After 100 ms, 1 KB refilled.
        let t1 = t0 + SimDuration::from_millis(100);
        assert!(tb.try_consume(t1, 1000));
        assert!(!tb.try_consume(t1, 1));
    }

    #[test]
    fn rate_change_applies() {
        let mut tb = TokenBucket::new(8_000.0, 2_000.0);
        let t0 = SimTime::from_secs(1);
        assert!(tb.try_consume(t0, 2_000));
        tb.set_rate(80_000.0);
        // At 80 kbps, 1000 bytes refill in 100 ms (old rate would give 100).
        let t1 = t0 + SimDuration::from_millis(100);
        assert!(
            tb.try_consume(t1, 1000),
            "new rate should refill 1000 bytes in 100ms"
        );
        assert!(!tb.try_consume(t1, 100));
    }
}
