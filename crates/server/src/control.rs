//! The control plane: connection recovery, RTSP requests on the control
//! connection, and the events they queue for the pump. It has no clock:
//! it acts only on what [`RealServer::control_idle`] reads.

use std::sync::Arc;

use rv_media::Clip;
use rv_net::Addr;
use rv_rtsp::{ServerHandler, ServerSession, Status, TransportKind, TransportSpec};
use rv_sim::trace::{self, TraceEvent};
use rv_sim::{SimDuration, SimTime};
use rv_transport::Stack;

use crate::catalog::Catalog;
use crate::pump::{ActiveStream, Outlet};
use crate::ratecontrol::ReceiverReport;
use crate::server::{RealServer, ServerConfig};

/// The SET_PARAMETER header carrying receiver reports.
pub const REPORT_PARAM: &str = "x-receiver-report";

/// Decisions + state shared with the RTSP handler callbacks.
#[derive(Debug)]
pub(crate) struct ServerCore {
    pub(crate) catalog: Catalog,
    pub(crate) prefers_udp: bool,
    data_udp_port: u16,
    /// Admission limit (0 = unlimited) and standing occupancy; a SETUP
    /// with no free slot gets 453 instead of a silently degraded stream.
    capacity: u32,
    pub(crate) occupancy: u32,
    pub(crate) admission_rejects: u64,
    client_max_bps: Option<u32>,
    pub(crate) negotiated: Option<TransportSpec>,
    /// A PLAY not yet applied, with the clip it named — `None` when the
    /// catalog has no such clip, which applying still counts as work.
    pending_play: Option<Option<Arc<Clip>>>,
    pending_teardown: bool,
    pub(crate) pending_reports: Vec<ReceiverReport>,
}

impl ServerCore {
    /// A handler serving `catalog` with no session yet.
    pub(crate) fn new(cfg: &ServerConfig, catalog: Catalog) -> Self {
        ServerCore {
            catalog,
            prefers_udp: cfg.prefers_udp,
            data_udp_port: cfg.data_udp_port,
            capacity: cfg.capacity,
            occupancy: cfg.background_sessions,
            admission_rejects: 0,
            client_max_bps: None,
            negotiated: None,
            pending_play: None,
            pending_teardown: false,
            pending_reports: Vec::new(),
        }
    }
}

impl ServerHandler for ServerCore {
    fn describe(&mut self, url: &str, body: &mut Vec<u8>) -> bool {
        match self.catalog.get(clip_name(url)) {
            Some(clip) => {
                clip.describe_into(body);
                true
            }
            None => false,
        }
    }

    fn client_bandwidth(&mut self, bps: u32) {
        self.client_max_bps = Some(bps);
    }

    fn setup(&mut self, _url: &str, requested: TransportSpec) -> Result<TransportSpec, Status> {
        if self.capacity > 0 && self.occupancy >= self.capacity {
            self.admission_rejects += 1;
            return Err(Status::NOT_ENOUGH_BANDWIDTH);
        }
        let spec = match requested.kind {
            TransportKind::Udp if self.prefers_udp => TransportSpec {
                server_port: Some(self.data_udp_port),
                ..requested
            },
            // Client asked for TCP, or this server downgrades UDP to TCP.
            _ => TransportSpec::tcp(),
        };
        self.negotiated = Some(spec);
        Ok(spec)
    }

    fn play(&mut self, url: &str) {
        // Resolved now, while the URL is still in the decoder's buffer:
        // the catalog does not change under a session.
        self.pending_play = Some(self.catalog.get(clip_name(url)).cloned());
    }

    fn set_parameter(&mut self, _url: &str, name: &str, value: &str) {
        if name.eq_ignore_ascii_case(REPORT_PARAM) {
            if let Some(report) = ReceiverReport::parse(value) {
                self.pending_reports.push(report);
            }
        }
    }

    fn teardown(&mut self, _url: &str) {
        self.pending_teardown = true;
    }
}

/// Extracts the clip name from an rtsp:// URL (the final path component).
pub(crate) fn clip_name(url: &str) -> &str {
    url.rsplit('/').next().unwrap_or(url)
}

impl RealServer {
    /// Whether the control plane provably has nothing to do: it acts only
    /// on bytes the control socket can read, bytes the decoder still
    /// holds, a socket error to recover from, or an event a handled
    /// message left pending.
    pub(crate) fn control_idle(&self, stack: &Stack) -> bool {
        let ctrl = stack.tcp_ref(self.ctrl);
        ctrl.recv_available() == 0
            && !ctrl.has_error()
            && !stack.tcp_ref(self.data_tcp).has_error()
            && self.scratch.decoder.buffered() == 0
            && self.core.pending_play.is_none()
            && !self.core.pending_teardown
            && self.core.pending_reports.is_empty()
    }

    /// Connection recovery, RTSP requests, and the events they queue.
    /// Returns units of work done.
    pub(crate) fn poll_control(&mut self, now: SimTime, stack: &mut Stack) -> usize {
        let mut work = self.recover_connections(stack);
        let unadmitted = self.core.negotiated.is_none();
        work += self.pump_control(stack);
        if unadmitted {
            if let Some(spec) = self.core.negotiated {
                trace::emit(now, || TraceEvent::ServerAdmit {
                    transport: match spec.kind {
                        TransportKind::Udp => "udp",
                        TransportKind::Tcp => "tcp",
                    },
                });
            }
        }
        work + self.apply_control_events(now, stack)
    }

    /// Forgets everything one client's session left behind — stream,
    /// negotiation, pending control events, RTSP state, undecoded bytes —
    /// the wipe a process crash and a dead control connection share.
    pub(crate) fn drop_session(&mut self) {
        self.retire_stream();
        self.core.negotiated = None;
        self.core.client_max_bps = None;
        self.core.pending_play = None;
        self.core.pending_teardown = false;
        self.core.pending_reports.clear();
        self.rtsp = ServerSession::new();
        self.scratch.decoder.renew();
    }

    /// A client that aborted (RST) kills its session: the daemon recycles
    /// the connection state and returns to listening for a fresh client.
    /// Fault-free sessions never RST, so this never fires without faults.
    fn recover_connections(&mut self, stack: &mut Stack) -> usize {
        let mut work = 0;
        if stack.tcp(self.ctrl).take_error().is_some() {
            // The control connection died: the whole session is gone.
            self.drop_session();
            stack.tcp(self.ctrl).reset();
            stack.tcp(self.ctrl).listen();
            work += 1;
        }
        if stack.tcp(self.data_tcp).take_error().is_some() {
            if let Some(ActiveStream {
                outlet: Outlet::Tcp,
                ..
            }) = self.stream
            {
                self.retire_stream();
            }
            stack.tcp(self.data_tcp).reset();
            stack.tcp(self.data_tcp).listen();
            work += 1;
        }
        work
    }

    fn pump_control(&mut self, stack: &mut Stack) -> usize {
        let mut handled = 0;
        let decoder = &mut self.scratch.decoder;
        stack
            .tcp(self.ctrl)
            .recv_with(usize::MAX, &mut |chunk| decoder.feed(chunk));
        loop {
            match self.scratch.decoder.next_message() {
                Ok(Some(msg)) => {
                    self.scratch.ctrl_buf.clear();
                    self.rtsp
                        .on_request(&mut self.core, &msg, &mut self.scratch.ctrl_buf);
                    stack.tcp(self.ctrl).send(&self.scratch.ctrl_buf);
                    handled += 1;
                }
                Ok(None) => break,
                Err(_) => {
                    self.stats.control_errors += 1;
                    break;
                }
            }
        }
        handled
    }

    fn apply_control_events(&mut self, now: SimTime, stack: &mut Stack) -> usize {
        let mut applied = 0;
        if self.core.pending_teardown {
            self.core.pending_teardown = false;
            self.retire_stream();
            applied += 1;
        }
        if let Some(clip) = self.core.pending_play.take() {
            if let Some(clip) = clip {
                self.start_stream(now, stack, clip);
            }
            applied += 1;
        }
        let rtt = stack
            .tcp_ref(self.ctrl)
            .srtt()
            .unwrap_or(SimDuration::from_millis(200));
        for report in self.core.pending_reports.drain(..) {
            self.tfrc.on_report(now, report, rtt);
            applied += 1;
        }
        applied
    }

    /// Applies a PLAY of `clip`: resolves what was negotiated into the
    /// client's datagram address (UDP) and its connection speed, and
    /// opens the stream.
    fn start_stream(&mut self, now: SimTime, stack: &Stack, clip: Arc<Clip>) {
        let Some(spec) = self.core.negotiated else {
            return; // PLAY without SETUP: session machine already rejected
        };
        let client = match spec.kind {
            TransportKind::Udp => {
                // Infallible because a UDP SETUP and its PLAY are decoded
                // only from bytes the control socket delivered, and a
                // socket forgets its peer only in `abort` / `reset`,
                // which this server calls only beside `drop_session`
                // (`crash`, `recover_connections`) — and that discards
                // the negotiation and any pending PLAY.
                let peer = stack.tcp_ref(self.ctrl).remote();
                let host = peer.expect("control connection is established").host;
                Some(Addr::new(host, spec.client_port))
            }
            TransportKind::Tcp => None,
        };
        let client_bps = f64::from(self.core.client_max_bps.unwrap_or(300_000));
        self.open_stream(now, clip, client, client_bps);
    }
}
