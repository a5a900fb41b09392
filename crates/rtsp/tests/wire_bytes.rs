//! The bytes on the control connection, pinned: every message kind the
//! client and the server emit, against literals recorded from the last
//! build that assembled an owned message and then encoded it (PR 22).
//! Header order, spelling, number formats and CRLFs are what every
//! packet, digest and dump downstream of the control channel rests on.

use rv_rtsp::{
    ClientEvent, ClientSession, Decoder, Message, Method, ServerHandler, ServerSession, Status,
    TransportSpec,
};

const URL: &str = "rtsp://srv.example/us_cnn-clip08.rm";
const SDP: &[u8] = b"c=news\nd=60000\ns=total:34000;audio:8000;fps:7;dim:176x132;ki:40\n";

/// Serves [`SDP`] unless told the clip is gone; grants what was asked
/// (on port 6970) unless told a verdict.
#[derive(Default)]
struct Handler {
    missing: bool,
    verdict: Option<Result<TransportSpec, Status>>,
}

impl ServerHandler for Handler {
    fn describe(&mut self, _url: &str, body: &mut Vec<u8>) -> bool {
        if !self.missing {
            body.extend_from_slice(SDP);
        }
        !self.missing
    }
    fn setup(&mut self, _url: &str, requested: TransportSpec) -> Result<TransportSpec, Status> {
        self.verdict.unwrap_or(Ok(TransportSpec {
            server_port: Some(6970),
            ..requested
        }))
    }
    fn play(&mut self, _url: &str) {}
    fn set_parameter(&mut self, _url: &str, _name: &str, _value: &str) {}
    fn teardown(&mut self, _url: &str) {}
}

/// One client, one server, and the control connection between them.
struct Pair {
    client: ClientSession,
    server: ServerSession,
    handler: Handler,
    req: Vec<u8>,
    resp: Vec<u8>,
    to_server: Decoder,
    to_client: Decoder,
}

fn text(bytes: &[u8]) -> String {
    bytes.escape_ascii().to_string()
}

impl Pair {
    fn new() -> Pair {
        Pair {
            client: ClientSession::new(URL),
            server: ServerSession::new(),
            handler: Handler::default(),
            req: Vec::new(),
            resp: Vec::new(),
            to_server: Decoder::new(),
            to_client: Decoder::new(),
        }
    }

    /// Has the client `write` a request, checks its bytes, hands them to
    /// the server, checks the reply's bytes, and hands those back.
    fn exchange(
        &mut self,
        what: &str,
        write: impl FnOnce(&mut ClientSession, &mut Vec<u8>),
        request: &[u8],
        reply: &[u8],
    ) {
        self.req.clear();
        write(&mut self.client, &mut self.req);
        assert_eq!(text(&self.req), text(request), "{what}: request");
        self.to_server.feed(&self.req);
        let msg = self.to_server.next_message().unwrap().unwrap();
        self.resp.clear();
        self.server
            .on_request(&mut self.handler, &msg, &mut self.resp);
        assert_eq!(text(&self.resp), text(reply), "{what}: reply");
        self.to_client.feed(&self.resp);
        let msg = self.to_client.next_message().unwrap().unwrap();
        let event = self.client.on_response(&msg);
        assert!(
            !matches!(event, ClientEvent::ProtocolError(_)),
            "{what}: {event:?}"
        );
    }

    /// The server's reply to a hand-built request.
    fn reply_to(&mut self, request: &Message) -> String {
        self.resp.clear();
        let view = request.view().unwrap();
        self.server
            .on_request(&mut self.handler, &view, &mut self.resp);
        text(&self.resp)
    }
}

#[test]
fn every_message_kind_matches_the_recorded_wire_bytes() {
    // A UDP session: the five handshake messages, a report, the
    // black-holed-UDP renegotiation, and the teardown.
    let mut pair = Pair::new();
    pair.exchange(
        "DESCRIBE",
        |c, out| c.describe(Some(384_000), out).unwrap(),
        b"DESCRIBE rtsp://srv.example/us_cnn-clip08.rm RTSP/1.0\r\nCSeq: 1\r\nBandwidth: 384000\r\n\r\n",
        b"RTSP/1.0 200 OK\r\nCSeq: 1\r\nContent-Length: 64\r\n\r\nc=news\nd=60000\ns=total:34000;audio:8000;fps:7;dim:176x132;ki:40\n",
    );
    pair.exchange(
        "SETUP udp",
        |c, out| c.setup(TransportSpec::udp(5002), out).unwrap(),
        b"SETUP rtsp://srv.example/us_cnn-clip08.rm RTSP/1.0\r\nCSeq: 2\r\nTransport: x-real-rdt/udp;client_port=5002\r\n\r\n",
        b"RTSP/1.0 200 OK\r\nCSeq: 2\r\nSession: sess-1\r\nTransport: x-real-rdt/udp;client_port=5002;server_port=6970\r\n\r\n",
    );
    pair.exchange(
        "PLAY",
        |c, out| c.play(out).unwrap(),
        b"PLAY rtsp://srv.example/us_cnn-clip08.rm RTSP/1.0\r\nCSeq: 3\r\nSession: sess-1\r\n\r\n",
        b"RTSP/1.0 200 OK\r\nCSeq: 3\r\n\r\n",
    );
    // The report value as `rv_server::ReceiverReport` renders it.
    let report = format_args!("{:.6}:{:.1}", 0.0132f64, 87214.53f64).to_string();
    pair.exchange(
        "SET_PARAMETER report",
        |c, out| c.set_parameter("x-receiver-report", &report, out).unwrap(),
        b"SET_PARAMETER rtsp://srv.example/us_cnn-clip08.rm RTSP/1.0\r\nCSeq: 4\r\nx-receiver-report: 0.013200:87214.5\r\nSession: sess-1\r\n\r\n",
        b"RTSP/1.0 200 OK\r\nCSeq: 4\r\n\r\n",
    );
    pair.handler.verdict = Some(Ok(TransportSpec::tcp()));
    pair.exchange(
        "re-SETUP tcp",
        |c, out| c.resetup(TransportSpec::tcp(), out).unwrap(),
        b"SETUP rtsp://srv.example/us_cnn-clip08.rm RTSP/1.0\r\nCSeq: 5\r\nSession: sess-1\r\nTransport: x-real-rdt/tcp;interleaved\r\n\r\n",
        b"RTSP/1.0 200 OK\r\nCSeq: 5\r\nSession: sess-2\r\nTransport: x-real-rdt/tcp;interleaved\r\n\r\n",
    );
    pair.exchange(
        "PLAY again",
        |c, out| c.play(out).unwrap(),
        b"PLAY rtsp://srv.example/us_cnn-clip08.rm RTSP/1.0\r\nCSeq: 6\r\nSession: sess-2\r\n\r\n",
        b"RTSP/1.0 200 OK\r\nCSeq: 6\r\n\r\n",
    );
    pair.exchange(
        "TEARDOWN",
        |c, out| c.teardown(out),
        b"TEARDOWN rtsp://srv.example/us_cnn-clip08.rm RTSP/1.0\r\nCSeq: 7\r\nSession: sess-2\r\n\r\n",
        b"RTSP/1.0 200 OK\r\nCSeq: 7\r\n\r\n",
    );

    // A TCP session's SETUP, and the refusals: 404, 453, 461, 454, 400.
    let mut pair = Pair::new();
    pair.handler.missing = true;
    pair.exchange(
        "DESCRIBE, no Bandwidth, clip missing",
        |c, out| c.describe(None, out).unwrap(),
        b"DESCRIBE rtsp://srv.example/us_cnn-clip08.rm RTSP/1.0\r\nCSeq: 1\r\n\r\n",
        b"RTSP/1.0 404 Not Found\r\nCSeq: 1\r\n\r\n",
    );
    let mut pair = Pair::new();
    pair.exchange(
        "DESCRIBE",
        |c, out| c.describe(None, out).unwrap(),
        b"DESCRIBE rtsp://srv.example/us_cnn-clip08.rm RTSP/1.0\r\nCSeq: 1\r\n\r\n",
        b"RTSP/1.0 200 OK\r\nCSeq: 1\r\nContent-Length: 64\r\n\r\nc=news\nd=60000\ns=total:34000;audio:8000;fps:7;dim:176x132;ki:40\n",
    );
    pair.handler.verdict = Some(Err(Status::NOT_ENOUGH_BANDWIDTH));
    pair.exchange(
        "SETUP tcp, server full",
        |c, out| c.setup(TransportSpec::tcp(), out).unwrap(),
        b"SETUP rtsp://srv.example/us_cnn-clip08.rm RTSP/1.0\r\nCSeq: 2\r\nTransport: x-real-rdt/tcp;interleaved\r\n\r\n",
        b"RTSP/1.0 453 Not Enough Bandwidth\r\nCSeq: 2\r\n\r\n",
    );
    let setup = Message::request(Method::Setup, URL);
    let unparsable = setup
        .clone()
        .with_header("CSeq", "2")
        .with_header("Transport", "rtp/avp");
    for (what, request, reply) in [
        (
            "461",
            unparsable,
            &b"RTSP/1.0 461 Unsupported Transport\r\nCSeq: 2\r\n\r\n"[..],
        ),
        (
            "461, no CSeq to echo",
            setup,
            b"RTSP/1.0 461 Unsupported Transport\r\nCSeq: 0\r\n\r\n",
        ),
        (
            "454",
            Message::request(Method::Play, URL)
                .with_header("CSeq", "9")
                .with_header("Session", "sess-999"),
            b"RTSP/1.0 454 Unknown\r\nCSeq: 9\r\n\r\n",
        ),
        (
            "OPTIONS",
            Message::request(Method::Options, "*").with_header("CSeq", "1"),
            b"RTSP/1.0 200 OK\r\nCSeq: 1\r\nPublic: DESCRIBE, SETUP, PLAY, PAUSE, TEARDOWN, SET_PARAMETER\r\n\r\n",
        ),
        (
            "PAUSE",
            Message::request(Method::Pause, URL).with_header("CSeq", "4"),
            b"RTSP/1.0 200 OK\r\nCSeq: 4\r\n\r\n",
        ),
        (
            "400 to a response",
            Message::response(Status::OK),
            b"RTSP/1.0 400 Unknown\r\n\r\n",
        ),
    ] {
        assert_eq!(pair.reply_to(&request), text(reply), "{what}");
    }
}
