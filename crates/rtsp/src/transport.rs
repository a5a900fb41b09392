//! Data-transport negotiation.
//!
//! RealSystem auto-configured the data channel: players preferred UDP,
//! servers could force TCP interleaving, and firewalls could block UDP or
//! RTSP entirely. The paper (Figure 16) observed ~56 % UDP / ~44 % TCP as
//! the net result. This module models the Transport header and the
//! negotiation outcome.

use std::fmt;

/// The transport finally carrying stream data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Datagrams on a dedicated UDP port pair.
    Udp,
    /// Interleaved on the control TCP connection (or a second TCP stream).
    Tcp,
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransportKind::Udp => "UDP",
            TransportKind::Tcp => "TCP",
        })
    }
}

/// What the player asks for (the RealPlayer "auto configuration" default
/// lets the endpoints decide; users could override).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportPreference {
    /// Try UDP first, fall back to TCP.
    Auto,
    /// Only UDP.
    ForceUdp,
    /// Only TCP.
    ForceTcp,
}

/// What the client-side network permits (NAT/firewall behavior).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirewallPolicy {
    /// Everything passes.
    Open,
    /// Inbound UDP dropped; TCP fine (common corporate firewall).
    BlockUdp,
    /// RTSP itself blocked — the session cannot even start. The paper
    /// excluded such users from analysis.
    BlockRtsp,
}

/// A parsed/serializable RTSP Transport header value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportSpec {
    /// Chosen or requested transport.
    pub kind: TransportKind,
    /// The client's data port (UDP) or 0 for interleaved TCP.
    pub client_port: u16,
    /// The server's data port, filled in by the server's reply.
    pub server_port: Option<u16>,
}

impl TransportSpec {
    /// A client UDP request.
    pub fn udp(client_port: u16) -> Self {
        TransportSpec {
            kind: TransportKind::Udp,
            client_port,
            server_port: None,
        }
    }

    /// A client TCP (interleaved) request.
    pub fn tcp() -> Self {
        TransportSpec {
            kind: TransportKind::Tcp,
            client_port: 0,
            server_port: None,
        }
    }

    /// Parses a Transport header value.
    pub fn parse(value: &str) -> Option<TransportSpec> {
        let mut parts = value.split(';');
        let proto = parts.next()?;
        // The last four bytes, if they are text: `/udp` or `/tcp`, any case.
        let suffix = proto.len().checked_sub(4).and_then(|at| proto.get(at..))?;
        let kind = if suffix.eq_ignore_ascii_case("/udp") {
            TransportKind::Udp
        } else if suffix.eq_ignore_ascii_case("/tcp") {
            TransportKind::Tcp
        } else {
            return None;
        };
        let mut spec = TransportSpec {
            kind,
            client_port: 0,
            server_port: None,
        };
        for part in parts {
            if let Some(v) = part.strip_prefix("client_port=") {
                spec.client_port = v.parse().ok()?;
            } else if let Some(v) = part.strip_prefix("server_port=") {
                spec.server_port = Some(v.parse().ok()?);
            }
            // "interleaved" and unknown parameters are tolerated.
        }
        Some(spec)
    }
}

/// The Transport header value, e.g.
/// `x-real-rdt/udp;client_port=5002;server_port=6970`.
impl fmt::Display for TransportSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            TransportKind::Udp => write!(f, "x-real-rdt/udp;client_port={}", self.client_port)?,
            TransportKind::Tcp => f.write_str("x-real-rdt/tcp;interleaved")?,
        }
        match self.server_port {
            Some(port) => write!(f, ";server_port={port}"),
            None => Ok(()),
        }
    }
}

/// Why a session could not be established at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegotiationError {
    /// The firewall blocks RTSP: no session, user excluded from the study.
    RtspBlocked,
    /// Client insisted on UDP but the path forbids it.
    UdpImpossible,
    /// Client insisted on TCP but the server only serves UDP (rare).
    TcpImpossible,
}

/// Resolves the data transport, mirroring RealSystem's auto-configuration:
/// the client proposes, the firewall constrains, the server disposes.
///
/// `server_prefers_udp` models the server-side choice for Auto clients —
/// RealServer picked UDP when it believed the path supported it.
pub fn negotiate(
    pref: TransportPreference,
    firewall: FirewallPolicy,
    server_prefers_udp: bool,
) -> Result<TransportKind, NegotiationError> {
    if firewall == FirewallPolicy::BlockRtsp {
        return Err(NegotiationError::RtspBlocked);
    }
    let udp_possible = firewall != FirewallPolicy::BlockUdp;
    match pref {
        TransportPreference::ForceUdp => {
            if udp_possible {
                Ok(TransportKind::Udp)
            } else {
                Err(NegotiationError::UdpImpossible)
            }
        }
        TransportPreference::ForceTcp => Ok(TransportKind::Tcp),
        TransportPreference::Auto => {
            if udp_possible && server_prefers_udp {
                Ok(TransportKind::Udp)
            } else {
                Ok(TransportKind::Tcp)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_udp() {
        let spec = TransportSpec {
            kind: TransportKind::Udp,
            client_port: 5002,
            server_port: Some(6970),
        };
        assert_eq!(TransportSpec::parse(&spec.to_string()), Some(spec));
    }

    #[test]
    fn spec_round_trips_tcp() {
        let spec = TransportSpec::tcp();
        let parsed = TransportSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(parsed.kind, TransportKind::Tcp);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(TransportSpec::parse("rtp/avp"), None);
        assert_eq!(TransportSpec::parse(""), None);
        assert_eq!(TransportSpec::parse("x/udp;client_port=notanumber"), None);
    }

    #[test]
    fn auto_prefers_udp_when_open() {
        assert_eq!(
            negotiate(TransportPreference::Auto, FirewallPolicy::Open, true),
            Ok(TransportKind::Udp)
        );
    }

    #[test]
    fn auto_falls_back_to_tcp_behind_udp_block() {
        assert_eq!(
            negotiate(TransportPreference::Auto, FirewallPolicy::BlockUdp, true),
            Ok(TransportKind::Tcp)
        );
    }

    #[test]
    fn auto_respects_server_tcp_choice() {
        assert_eq!(
            negotiate(TransportPreference::Auto, FirewallPolicy::Open, false),
            Ok(TransportKind::Tcp)
        );
    }

    #[test]
    fn forced_udp_fails_behind_firewall() {
        assert_eq!(
            negotiate(
                TransportPreference::ForceUdp,
                FirewallPolicy::BlockUdp,
                true
            ),
            Err(NegotiationError::UdpImpossible)
        );
        assert_eq!(
            negotiate(TransportPreference::ForceUdp, FirewallPolicy::Open, false),
            Ok(TransportKind::Udp)
        );
    }

    #[test]
    fn rtsp_block_kills_everything() {
        for pref in [
            TransportPreference::Auto,
            TransportPreference::ForceTcp,
            TransportPreference::ForceUdp,
        ] {
            assert_eq!(
                negotiate(pref, FirewallPolicy::BlockRtsp, true),
                Err(NegotiationError::RtspBlocked)
            );
        }
    }

    #[test]
    fn forced_tcp_always_works_when_rtsp_passes() {
        assert_eq!(
            negotiate(
                TransportPreference::ForceTcp,
                FirewallPolicy::BlockUdp,
                true
            ),
            Ok(TransportKind::Tcp)
        );
    }
}
