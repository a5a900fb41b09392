//! Client and server RTSP session state machines.
//!
//! These machines own CSeq bookkeeping and legal-transition enforcement;
//! the application layers (rv-server, rv-tracer) supply the decisions via
//! [`ServerHandler`] and drive the client through explicit request methods.
//! Both sides write their messages straight into the caller's staging
//! buffer and read the peer's through a borrowed [`MessageView`].

use std::fmt;
use std::ops::Range;

use crate::message::{MessageView, Method, StartLine, Status, Writer};
use crate::transport::TransportSpec;

/// Progress of a client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientState {
    /// Nothing sent yet.
    Init,
    /// DESCRIBE outstanding.
    Describing,
    /// Description received; SETUP outstanding.
    SettingUp,
    /// Transport agreed; PLAY outstanding.
    Starting,
    /// Stream is playing.
    Playing,
    /// TEARDOWN outstanding.
    TearingDown,
    /// Session over.
    Done,
    /// Server refused or protocol violation.
    Failed,
}

/// What a client learned from a server response. Owns no heap: the
/// description is lent from the message it arrived in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientEvent<'a> {
    /// DESCRIBE succeeded; the body is the presentation description.
    Described(&'a [u8]),
    /// The clip is unavailable (404 and friends).
    Unavailable(Status),
    /// SETUP succeeded with the final transport.
    SetUp(TransportSpec),
    /// PLAY succeeded; data will flow.
    Started,
    /// TEARDOWN acknowledged.
    TornDown,
    /// The reply to a SET_PARAMETER report: expected once a report, and
    /// of no consequence to the session.
    ReportAcked,
    /// The response violated the protocol or arrived out of order.
    ProtocolError(ProtocolError),
}

/// How a response broke the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolError {
    /// A request arrived where a response was expected.
    NotAResponse,
    /// A response with no request outstanding.
    Unsolicited,
    /// A response whose CSeq is not the outstanding request's (stale).
    CSeqMismatch,
    /// A successful SETUP reply carrying no parsable Transport.
    SetupWithoutTransport,
    /// A reply to a method the client never has outstanding.
    UnexpectedResponse,
}

/// A request the session's state does not allow. Nothing was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfOrder {
    /// The refused call.
    pub call: &'static str,
    /// The state it was made in.
    pub state: ClientState,
}

impl fmt::Display for OutOfOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}() out of order in {:?}", self.call, self.state)
    }
}

impl std::error::Error for OutOfOrder {}

/// Client-side RTSP session.
#[derive(Debug)]
pub struct ClientSession {
    url: String,
    state: ClientState,
    cseq: u32,
    /// CSeq of the outstanding request, if any.
    pending: Option<(u32, Method)>,
    /// CSeqs from the oldest unacknowledged report to the newest sent.
    reports: Range<u32>,
    /// The session id the server assigned at SETUP, while `has_session`;
    /// otherwise just storage.
    session_id: String,
    has_session: bool,
}

impl ClientSession {
    /// Creates a session for `url`.
    pub fn new(url: &str) -> Self {
        ClientSession {
            url: url.to_string(),
            state: ClientState::Init,
            cseq: 0,
            pending: None,
            reports: 0..0,
            session_id: String::new(),
            has_session: false,
        }
    }

    /// Returns to [`ClientSession::new`]`(url)`'s state, keeping the
    /// storage of its two strings: a session renewed for a URL no longer
    /// than the last allocates nothing.
    pub fn renew(&mut self, url: &str) {
        let mut own = std::mem::take(&mut self.url);
        let mut session_id = std::mem::take(&mut self.session_id);
        own.clear();
        own.push_str(url);
        session_id.clear();
        *self = ClientSession {
            url: own,
            session_id,
            ..ClientSession::new("")
        };
    }

    /// Bytes of storage held: the URL and session-id strings.
    pub fn retained_bytes(&self) -> usize {
        self.url.capacity() + self.session_id.capacity()
    }

    /// Current state.
    pub fn state(&self) -> ClientState {
        self.state
    }

    /// The session id the server assigned at SETUP.
    pub fn session_id(&self) -> Option<&str> {
        self.has_session.then_some(self.session_id.as_str())
    }

    fn allow(&self, call: &'static str, legal: bool) -> Result<(), OutOfOrder> {
        let state = self.state;
        legal.then_some(()).ok_or(OutOfOrder { call, state })
    }

    /// Starts the next request: its start line and CSeq.
    fn start<'a>(&mut self, method: Method, out: &'a mut Vec<u8>) -> Writer<'a> {
        self.cseq += 1;
        Writer::request(out, method, &self.url).header("CSeq", self.cseq)
    }

    /// Starts a request whose reply the state machine waits for.
    fn request<'a>(&mut self, method: Method, out: &'a mut Vec<u8>) -> Writer<'a> {
        let writer = self.start(method, out);
        self.pending = Some((self.cseq, method));
        self.with_session(writer)
    }

    fn with_session<'a>(&self, writer: Writer<'a>) -> Writer<'a> {
        match self.session_id() {
            Some(id) => writer.header("Session", id),
            None => writer,
        }
    }

    /// Writes the DESCRIBE request, advertising the player's connection
    /// speed as a Bandwidth header when given. Legal only in `Init`.
    pub fn describe(
        &mut self,
        bandwidth_bps: Option<u32>,
        out: &mut Vec<u8>,
    ) -> Result<(), OutOfOrder> {
        self.allow("describe", self.state == ClientState::Init)?;
        self.state = ClientState::Describing;
        let writer = self.request(Method::Describe, out);
        match bandwidth_bps {
            Some(bps) => writer.header("Bandwidth", bps).finish(),
            None => writer.finish(),
        }
        Ok(())
    }

    /// Writes the SETUP request with the transport the player wants.
    pub fn setup(&mut self, spec: TransportSpec, out: &mut Vec<u8>) -> Result<(), OutOfOrder> {
        self.allow("setup", self.state == ClientState::SettingUp)?;
        let writer = self.request(Method::Setup, out);
        writer.header("Transport", spec).finish();
        Ok(())
    }

    /// Writes the PLAY request.
    pub fn play(&mut self, out: &mut Vec<u8>) -> Result<(), OutOfOrder> {
        self.allow("play", self.state == ClientState::Starting)?;
        self.request(Method::Play, out).finish();
        Ok(())
    }

    /// Writes a SETUP that renegotiates the transport mid-session (the
    /// RealPlayer UDP→TCP fallback). Legal while playing or starting: the
    /// session drops back to `SettingUp`, the server answers with a fresh
    /// session id, and the client must PLAY again before data resumes.
    pub fn resetup(&mut self, spec: TransportSpec, out: &mut Vec<u8>) -> Result<(), OutOfOrder> {
        let active = matches!(self.state, ClientState::Playing | ClientState::Starting);
        self.allow("resetup", active)?;
        self.state = ClientState::SettingUp;
        self.setup(spec, out)
    }

    /// Writes a SET_PARAMETER carrying an application parameter (used for
    /// receiver statistics feedback on UDP sessions), `value` rendered in
    /// place. Legal only while playing; does not change state, and its
    /// reply comes back as [`ClientEvent::ReportAcked`].
    pub fn set_parameter(
        &mut self,
        name: &str,
        value: impl fmt::Display,
        out: &mut Vec<u8>,
    ) -> Result<(), OutOfOrder> {
        self.allow("set_parameter", self.state == ClientState::Playing)?;
        let writer = self.start(Method::SetParameter, out).header(name, value);
        self.with_session(writer).finish();
        if self.reports.is_empty() {
            self.reports.start = self.cseq;
        }
        self.reports.end = self.cseq + 1;
        Ok(())
    }

    /// Writes the TEARDOWN request (legal from any state).
    pub fn teardown(&mut self, out: &mut Vec<u8>) {
        self.state = ClientState::TearingDown;
        self.request(Method::Teardown, out).finish();
    }

    /// Processes a server response, advancing the state machine.
    pub fn on_response<'a>(&mut self, msg: &MessageView<'a>) -> ClientEvent<'a> {
        let StartLine::Response { status } = msg.start() else {
            self.state = ClientState::Failed;
            return ClientEvent::ProtocolError(ProtocolError::NotAResponse);
        };
        // CSeq must match the outstanding request; replies to reports
        // (which leave `pending` alone) and stale responses are named
        // and leave the state machine where it was.
        let cseq: Option<u32> = msg.header("CSeq").and_then(|v| v.parse().ok());
        let method = match self.pending {
            Some((want, method)) if cseq == Some(want) => method,
            pending => {
                return match cseq {
                    Some(cseq) if self.reports.contains(&cseq) => {
                        self.reports.start = cseq + 1;
                        ClientEvent::ReportAcked
                    }
                    _ if pending.is_none() => {
                        ClientEvent::ProtocolError(ProtocolError::Unsolicited)
                    }
                    _ => ClientEvent::ProtocolError(ProtocolError::CSeqMismatch),
                };
            }
        };
        self.pending = None;

        let (state, event) = match (method, status.is_success()) {
            (Method::Describe, true) => {
                (ClientState::SettingUp, ClientEvent::Described(msg.body()))
            }
            (Method::Setup, true) => {
                let id = msg.header("Session");
                self.has_session = id.is_some();
                self.session_id.clear();
                self.session_id.push_str(id.unwrap_or_default());
                match msg.header("Transport").and_then(TransportSpec::parse) {
                    Some(spec) => (ClientState::Starting, ClientEvent::SetUp(spec)),
                    None => (
                        ClientState::Failed,
                        ClientEvent::ProtocolError(ProtocolError::SetupWithoutTransport),
                    ),
                }
            }
            (Method::Play, true) => (ClientState::Playing, ClientEvent::Started),
            (Method::Describe | Method::Setup | Method::Play, false) => {
                (ClientState::Failed, ClientEvent::Unavailable(status))
            }
            (Method::Teardown, _) => (ClientState::Done, ClientEvent::TornDown),
            _ => (
                ClientState::Failed,
                ClientEvent::ProtocolError(ProtocolError::UnexpectedResponse),
            ),
        };
        self.state = state;
        event
    }
}

/// A session for the empty URL, holding nothing: storage for
/// [`ClientSession::renew`].
impl Default for ClientSession {
    fn default() -> Self {
        ClientSession::new("")
    }
}

/// The server application's decisions, invoked by [`ServerSession`].
pub trait ServerHandler {
    /// Writes the presentation description for `url` onto the end of
    /// `body` and returns `true`; or writes nothing and returns `false`
    /// → 404.
    fn describe(&mut self, url: &str, body: &mut Vec<u8>) -> bool;
    /// Observes the client's advertised maximum bandwidth (the RealPlayer
    /// "connection speed" setting, sent as a Bandwidth header). Default: ignore.
    fn client_bandwidth(&mut self, _bps: u32) {}
    /// Decides the final transport (may downgrade UDP→TCP), or an error
    /// status refusing the setup.
    fn setup(&mut self, url: &str, requested: TransportSpec) -> Result<TransportSpec, Status>;
    /// Starts streaming. Always succeeds in this model.
    fn play(&mut self, url: &str);
    /// Receives a client parameter (receiver reports etc.).
    fn set_parameter(&mut self, url: &str, name: &str, value: &str);
    /// Stops streaming.
    fn teardown(&mut self, url: &str);
}

/// Server-side RTSP session: validates requests and produces responses,
/// delegating decisions to a [`ServerHandler`].
#[derive(Debug, Default)]
pub struct ServerSession {
    /// Sessions set up so far; the live one's id is `sess-{this}`.
    session_counter: u32,
    live: bool,
}

impl ServerSession {
    /// A fresh server session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handles one request, writing the response to send onto `out`.
    pub fn on_request<H: ServerHandler>(
        &mut self,
        handler: &mut H,
        msg: &MessageView<'_>,
        out: &mut Vec<u8>,
    ) {
        let StartLine::Request { method, url } = msg.start() else {
            return Writer::response(out, Status(400)).finish();
        };
        let cseq = msg.header("CSeq").unwrap_or("0");
        if let Some(bw) = msg.header("Bandwidth").and_then(|v| v.parse().ok()) {
            handler.client_bandwidth(bw);
        }
        let respond = |out, status: Status| Writer::response(out, status).header("CSeq", cseq);

        let status = match method {
            Method::Options => {
                let public = "DESCRIBE, SETUP, PLAY, PAUSE, TEARDOWN, SET_PARAMETER";
                return respond(out, Status::OK).header("Public", public).finish();
            }
            Method::Describe => {
                // The body is written first, where the response will
                // start, then rotated behind the head written after it:
                // the bytes `Writer::body` would write, staged nowhere.
                let start = out.len();
                if handler.describe(url, out) {
                    let len = out.len() - start;
                    respond(&mut *out, Status::OK)
                        .header("Content-Length", len)
                        .finish();
                    return out[start..].rotate_left(len);
                }
                out.truncate(start);
                Status::NOT_FOUND
            }
            Method::Setup => {
                let requested = msg.header("Transport").and_then(TransportSpec::parse);
                match requested.map(|spec| handler.setup(url, spec)) {
                    Some(Ok(spec)) => {
                        self.session_counter += 1;
                        self.live = true;
                        return respond(out, Status::OK)
                            .header("Session", format_args!("sess-{}", self.session_counter))
                            .header("Transport", spec)
                            .finish();
                    }
                    Some(Err(status)) => status,
                    None => Status::UNSUPPORTED_TRANSPORT,
                }
            }
            Method::Play if self.session_matches(msg.header("Session")) => {
                handler.play(url);
                Status::OK
            }
            Method::Play => Status(454), // Session Not Found
            Method::Pause => Status::OK,
            Method::SetParameter => {
                // Every non-CSeq/Session header is an application parameter.
                for (k, v) in msg.headers() {
                    if !k.eq_ignore_ascii_case("cseq") && !k.eq_ignore_ascii_case("session") {
                        handler.set_parameter(url, k, v);
                    }
                }
                Status::OK
            }
            Method::Teardown => {
                handler.teardown(url);
                self.live = false;
                Status::OK
            }
        };
        respond(out, status).finish()
    }

    /// Whether `got` spells the live session's id, `sess-{counter}` in
    /// canonical decimal — compared without rendering it.
    fn session_matches(&self, got: Option<&str>) -> bool {
        let digits = got.and_then(|id| id.strip_prefix("sess-"));
        self.live
            && digits.is_some_and(|d| {
                !d.starts_with(['0', '+']) && d.parse() == Ok(self.session_counter)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Decoder, Message};
    use crate::transport::TransportKind;

    /// A scripted handler for tests.
    struct TestHandler {
        clip_exists: bool,
        force_tcp: bool,
        played: bool,
        torn_down: bool,
        params: Vec<(String, String)>,
    }

    impl Default for TestHandler {
        fn default() -> Self {
            TestHandler {
                clip_exists: true,
                force_tcp: false,
                played: false,
                torn_down: false,
                params: Vec::new(),
            }
        }
    }

    impl ServerHandler for TestHandler {
        fn describe(&mut self, _url: &str, body: &mut Vec<u8>) -> bool {
            if self.clip_exists {
                body.extend_from_slice(b"sdp-body");
            }
            self.clip_exists
        }
        fn setup(&mut self, _url: &str, requested: TransportSpec) -> Result<TransportSpec, Status> {
            if self.force_tcp {
                Ok(TransportSpec::tcp())
            } else {
                Ok(TransportSpec {
                    server_port: Some(6970),
                    ..requested
                })
            }
        }
        fn play(&mut self, _url: &str) {
            self.played = true;
        }
        fn set_parameter(&mut self, _url: &str, name: &str, value: &str) {
            self.params.push((name.to_string(), value.to_string()));
        }
        fn teardown(&mut self, _url: &str) {
            self.torn_down = true;
        }
    }

    /// The two directions of a control connection: a staging buffer
    /// and the peer's decoder each.
    #[derive(Default)]
    struct Wire {
        req: Vec<u8>,
        resp: Vec<u8>,
        to_server: Decoder,
        to_client: Decoder,
    }

    impl Wire {
        /// Carries the request in `req` to the server and its reply
        /// back; returns what the client made of it.
        fn exchange<'a>(
            &'a mut self,
            client: &mut ClientSession,
            server: &mut ServerSession,
            handler: &mut TestHandler,
        ) -> ClientEvent<'a> {
            self.to_server.feed(&self.req);
            self.req.clear();
            let msg = self.to_server.next_message().unwrap().unwrap();
            self.resp.clear();
            server.on_request(handler, &msg, &mut self.resp);
            self.to_client.feed(&self.resp);
            let reply = self.to_client.next_message().unwrap().unwrap();
            client.on_response(&reply)
        }

        /// The server's reply to a hand-built request.
        fn ask(
            &mut self,
            server: &mut ServerSession,
            h: &mut TestHandler,
            req: &Message,
        ) -> Message {
            self.resp.clear();
            server.on_request(h, &req.view().unwrap(), &mut self.resp);
            let mut dec = Decoder::new();
            dec.feed(&self.resp);
            let reply = dec.next_message().unwrap().unwrap();
            let StartLine::Response { status } = reply.start() else {
                panic!("expected response, got {reply:?}");
            };
            reply
                .headers()
                .fold(Message::response(status), |m, (k, v)| m.with_header(k, v))
        }
    }

    fn full_handshake(handler: &mut TestHandler) -> (ClientSession, ServerSession, Wire) {
        let mut client = ClientSession::new("rtsp://srv/clip.rm");
        let mut server = ServerSession::new();
        let mut wire = Wire::default();

        client.describe(None, &mut wire.req).unwrap();
        assert_eq!(
            wire.exchange(&mut client, &mut server, handler),
            ClientEvent::Described(b"sdp-body")
        );

        client
            .setup(TransportSpec::udp(5002), &mut wire.req)
            .unwrap();
        match wire.exchange(&mut client, &mut server, handler) {
            ClientEvent::SetUp(_) => {}
            other => panic!("expected SetUp, got {other:?}"),
        }

        client.play(&mut wire.req).unwrap();
        assert_eq!(
            wire.exchange(&mut client, &mut server, handler),
            ClientEvent::Started
        );
        assert_eq!(client.state(), ClientState::Playing);
        (client, server, wire)
    }

    #[test]
    fn full_session_lifecycle() {
        let mut h = TestHandler::default();
        let (mut client, mut server, mut wire) = full_handshake(&mut h);
        assert!(h.played);

        client.teardown(&mut wire.req);
        assert_eq!(
            wire.exchange(&mut client, &mut server, &mut h),
            ClientEvent::TornDown
        );
        assert_eq!(client.state(), ClientState::Done);
        assert!(h.torn_down);
    }

    #[test]
    fn missing_clip_gives_unavailable() {
        let mut h = TestHandler {
            clip_exists: false,
            ..TestHandler::default()
        };
        let mut client = ClientSession::new("rtsp://srv/missing.rm");
        let mut server = ServerSession::new();
        let mut wire = Wire::default();
        client.describe(None, &mut wire.req).unwrap();
        assert_eq!(
            wire.exchange(&mut client, &mut server, &mut h),
            ClientEvent::Unavailable(Status::NOT_FOUND)
        );
        assert_eq!(client.state(), ClientState::Failed);
    }

    #[test]
    fn server_can_downgrade_to_tcp() {
        let mut h = TestHandler {
            force_tcp: true,
            ..TestHandler::default()
        };
        let mut client = ClientSession::new("rtsp://srv/clip.rm");
        let mut server = ServerSession::new();
        let mut wire = Wire::default();
        client.describe(None, &mut wire.req).unwrap();
        wire.exchange(&mut client, &mut server, &mut h);
        client
            .setup(TransportSpec::udp(5002), &mut wire.req)
            .unwrap();
        match wire.exchange(&mut client, &mut server, &mut h) {
            ClientEvent::SetUp(spec) => assert_eq!(spec.kind, TransportKind::Tcp),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn resetup_renegotiates_transport_midstream() {
        let mut h = TestHandler {
            force_tcp: true,
            ..TestHandler::default()
        };
        let (mut client, mut server, mut wire) = full_handshake(&mut h);
        let old_id = client.session_id().unwrap().to_string();

        // Black-holed UDP: the player re-SETUPs over the live control channel.
        client.resetup(TransportSpec::tcp(), &mut wire.req).unwrap();
        match wire.exchange(&mut client, &mut server, &mut h) {
            ClientEvent::SetUp(spec) => assert_eq!(spec.kind, TransportKind::Tcp),
            other => panic!("{other:?}"),
        }
        let new_id = client.session_id().unwrap().to_string();
        assert_ne!(old_id, new_id, "re-SETUP must mint a fresh session id");

        h.played = false;
        client.play(&mut wire.req).unwrap();
        assert_eq!(
            wire.exchange(&mut client, &mut server, &mut h),
            ClientEvent::Started
        );
        assert_eq!(client.state(), ClientState::Playing);
        assert!(h.played);
    }

    #[test]
    fn play_without_setup_session_is_rejected() {
        let mut h = TestHandler::default();
        let mut server = ServerSession::new();
        // Forge a PLAY with a bogus session header.
        let req = Message::request(Method::Play, "rtsp://srv/clip.rm")
            .with_header("CSeq", "9")
            .with_header("Session", "sess-999");
        let resp = Wire::default().ask(&mut server, &mut h, &req);
        assert_eq!(
            resp,
            Message::response(Status(454)).with_header("CSeq", "9")
        );
        assert!(!h.played);

        // The live id matches only as the server spelt it, and not once
        // the session is torn down.
        let (_, mut server, mut wire) = full_handshake(&mut h);
        h.played = false;
        for (id, status) in [
            ("sess-01", 454),
            ("sess-+1", 454),
            ("sess-2", 454),
            ("sess-1", 200),
        ] {
            let req =
                Message::request(Method::Play, "rtsp://srv/clip.rm").with_header("Session", id);
            let resp = wire.ask(&mut server, &mut h, &req);
            assert_eq!(
                resp.view().unwrap().start(),
                StartLine::Response {
                    status: Status(status)
                }
            );
            assert_eq!(h.played, status == 200, "{id}");
        }
        let down = Message::request(Method::Teardown, "rtsp://srv/clip.rm");
        wire.ask(&mut server, &mut h, &down);
        let req =
            Message::request(Method::Play, "rtsp://srv/clip.rm").with_header("Session", "sess-1");
        let resp = wire.ask(&mut server, &mut h, &req);
        assert_eq!(
            resp,
            Message::response(Status(454)).with_header("CSeq", "0")
        );
    }

    #[test]
    fn set_parameter_reaches_handler() {
        let mut h = TestHandler::default();
        let (mut client, mut server, mut wire) = full_handshake(&mut h);
        client
            .set_parameter("x-loss-rate", "0.031", &mut wire.req)
            .unwrap();
        // Its reply is named for what it is, not an error.
        assert_eq!(
            wire.exchange(&mut client, &mut server, &mut h),
            ClientEvent::ReportAcked
        );
        assert_eq!(
            h.params,
            vec![("x-loss-rate".to_string(), "0.031".to_string())]
        );
        // Still playing: feedback must not disturb the session.
        assert_eq!(client.state(), ClientState::Playing);

        // Acknowledged once: the same reply again is unsolicited. And a
        // report's reply overtaken by a TEARDOWN is still a report's reply.
        let again = Message::response(Status::OK).with_header("CSeq", "4");
        assert_eq!(
            client.on_response(&again.view().unwrap()),
            ClientEvent::ProtocolError(ProtocolError::Unsolicited)
        );
        client
            .set_parameter("x-loss-rate", 0.5, &mut wire.req)
            .unwrap();
        client.teardown(&mut wire.req);
        assert_eq!(
            wire.exchange(&mut client, &mut server, &mut h),
            ClientEvent::ReportAcked
        );
        assert_eq!(client.state(), ClientState::TearingDown);
        assert_eq!(
            client.on_response(&again.view().unwrap()),
            ClientEvent::ProtocolError(ProtocolError::CSeqMismatch)
        );
    }

    #[test]
    fn cseq_mismatch_is_flagged() {
        let mut client = ClientSession::new("rtsp://srv/c");
        client.describe(None, &mut Vec::new()).unwrap();
        let bogus = Message::response(Status::OK).with_header("CSeq", "42");
        assert_eq!(
            client.on_response(&bogus.view().unwrap()),
            ClientEvent::ProtocolError(ProtocolError::CSeqMismatch)
        );
        assert_eq!(client.state(), ClientState::Describing);
        let request = Message::request(Method::Play, "rtsp://srv/c");
        assert_eq!(
            client.on_response(&request.view().unwrap()),
            ClientEvent::ProtocolError(ProtocolError::NotAResponse)
        );
        assert_eq!(client.state(), ClientState::Failed);
    }

    /// The typed error, unwrapped by a caller that chose to, says what
    /// the old `assert!` said.
    #[test]
    #[should_panic(expected = "setup() out of order")]
    fn setup_before_describe_panics() {
        let mut client = ClientSession::new("rtsp://srv/c");
        let refused = client.setup(TransportSpec::udp(5002), &mut Vec::new());
        refused.unwrap_or_else(|err| panic!("{err}"));
    }

    #[test]
    fn out_of_order_requests_are_refused_and_write_nothing() {
        let mut client = ClientSession::new("rtsp://srv/c");
        let mut out = Vec::new();
        let refused = |call, state| Err(OutOfOrder { call, state });
        assert_eq!(
            client.setup(TransportSpec::udp(5002), &mut out),
            refused("setup", ClientState::Init)
        );
        assert_eq!(client.play(&mut out), refused("play", ClientState::Init));
        assert_eq!(
            client.resetup(TransportSpec::tcp(), &mut out),
            refused("resetup", ClientState::Init)
        );
        assert_eq!(
            client.set_parameter("x", 1, &mut out),
            refused("set_parameter", ClientState::Init)
        );
        // Refused calls write nothing and spend no CSeq.
        assert!(out.is_empty());
        client.describe(None, &mut out).unwrap();
        assert!(out.ends_with(b"CSeq: 1\r\n\r\n"));
        let err = client.describe(None, &mut out).unwrap_err();
        assert_eq!(err.to_string(), "describe() out of order in Describing");
    }

    #[test]
    fn options_lists_methods() {
        let mut h = TestHandler::default();
        let mut server = ServerSession::new();
        let req = Message::request(Method::Options, "*").with_header("CSeq", "1");
        let resp = Wire::default().ask(&mut server, &mut h, &req);
        assert!(resp.header("Public").unwrap().contains("SETUP"));
    }
}
