//! RTSP message model and text codec.
//!
//! RealServer spoke RTSP (RFC 2326) on its control connection. The codec
//! here parses and serializes the realistic wire format — request line,
//! headers, CRLF framing, optional body with Content-Length — because the
//! control connection runs over the simulated TCP byte stream and must
//! survive arbitrary segmentation.

use std::fmt;
use std::fmt::Write as _;

use crate::smallstr::SmallStr;

/// RTSP request methods used by the streaming session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Capability query.
    Options,
    /// Retrieve the clip's presentation description (SureStream ladder).
    Describe,
    /// Establish a transport for a stream.
    Setup,
    /// Start playout.
    Play,
    /// Pause playout.
    Pause,
    /// End the session.
    Teardown,
    /// Mid-session parameter change (stream switches, reports).
    SetParameter,
}

impl Method {
    /// All methods, for iteration in tests.
    pub const ALL: [Method; 7] = [
        Method::Options,
        Method::Describe,
        Method::Setup,
        Method::Play,
        Method::Pause,
        Method::Teardown,
        Method::SetParameter,
    ];

    fn as_str(self) -> &'static str {
        match self {
            Method::Options => "OPTIONS",
            Method::Describe => "DESCRIBE",
            Method::Setup => "SETUP",
            Method::Play => "PLAY",
            Method::Pause => "PAUSE",
            Method::Teardown => "TEARDOWN",
            Method::SetParameter => "SET_PARAMETER",
        }
    }

    fn from_str(s: &str) -> Option<Method> {
        Some(match s {
            "OPTIONS" => Method::Options,
            "DESCRIBE" => Method::Describe,
            "SETUP" => Method::Setup,
            "PLAY" => Method::Play,
            "PAUSE" => Method::Pause,
            "TEARDOWN" => Method::Teardown,
            "SET_PARAMETER" => Method::SetParameter,
            _ => return None,
        })
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An RTSP status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16);

impl Status {
    /// 200 OK.
    pub const OK: Status = Status(200);
    /// 404: the clip is not available.
    pub const NOT_FOUND: Status = Status(404);
    /// 453: server out of capacity.
    pub const NOT_ENOUGH_BANDWIDTH: Status = Status(453);
    /// 461: requested transport not supported.
    pub const UNSUPPORTED_TRANSPORT: Status = Status(461);

    /// Human-readable reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            404 => "Not Found",
            453 => "Not Enough Bandwidth",
            461 => "Unsupported Transport",
            _ => "Unknown",
        }
    }

    /// `true` for 2xx.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }
}

/// An RTSP message: request or response, headers, optional body.
///
/// Headers live in a `Vec` in insertion order with [`SmallStr`]
/// name/value storage: building or parsing a typical control message
/// costs one allocation (the header vector) instead of a `String` pair
/// plus a map node per header. Lookup stays case-insensitive; setting an
/// existing name replaces its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A client request.
    Request {
        /// The method.
        method: Method,
        /// The target URL, e.g. `rtsp://server/clip.rm`.
        url: SmallStr,
        /// Header fields (names case-preserved, lookup case-insensitive).
        headers: Vec<(SmallStr, SmallStr)>,
        /// Message body.
        body: Vec<u8>,
    },
    /// A server response.
    Response {
        /// Status code.
        status: Status,
        /// Header fields.
        headers: Vec<(SmallStr, SmallStr)>,
        /// Message body.
        body: Vec<u8>,
    },
}

impl Message {
    /// Builds a bodyless request.
    pub fn request(method: Method, url: &str) -> Message {
        Message::Request {
            method,
            url: SmallStr::from(url),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Builds a bodyless response.
    pub fn response(status: Status) -> Message {
        Message::Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn set_header(&mut self, name: &str, value: SmallStr) {
        let headers = self.headers_mut();
        match headers.iter_mut().find(|(k, _)| k.as_str() == name) {
            Some((_, v)) => *v = value,
            None => headers.push((SmallStr::from(name), value)),
        }
    }

    /// Adds a header (builder style). Setting a name twice replaces the
    /// first value. Accepts `&str` or an owned [`SmallStr`] (the latter
    /// moves in without re-copying a spilled value).
    pub fn with_header(mut self, name: &str, value: impl Into<SmallStr>) -> Message {
        self.set_header(name, value.into());
        self
    }

    /// Adds a header rendering `value` through [`fmt::Display`] — the
    /// `CSeq`/`Bandwidth` path, with no intermediate `String`.
    pub fn with_header_display(mut self, name: &str, value: impl fmt::Display) -> Message {
        self.set_header(name, SmallStr::from_display(value));
        self
    }

    /// Sets the body and Content-Length (builder style).
    pub fn with_body(mut self, body: Vec<u8>) -> Message {
        self.set_header("Content-Length", SmallStr::from_display(body.len()));
        match &mut self {
            Message::Request { body: b, .. } | Message::Response { body: b, .. } => *b = body,
        }
        self
    }

    /// The message headers, in insertion (and wire) order.
    pub fn headers(&self) -> &[(SmallStr, SmallStr)] {
        match self {
            Message::Request { headers, .. } | Message::Response { headers, .. } => headers,
        }
    }

    fn headers_mut(&mut self) -> &mut Vec<(SmallStr, SmallStr)> {
        match self {
            Message::Request { headers, .. } | Message::Response { headers, .. } => headers,
        }
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers()
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The message body.
    pub fn body(&self) -> &[u8] {
        match self {
            Message::Request { body, .. } | Message::Response { body, .. } => body,
        }
    }

    /// Serializes to the RTSP wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Serializes onto the end of `out`, so a send loop can reuse one
    /// staging buffer across messages.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut text = WriteBytes(out);
        match self {
            Message::Request { method, url, .. } => {
                write!(text, "{method} {url} RTSP/1.0\r\n").expect("Vec write never errors");
            }
            Message::Response { status, .. } => {
                write!(text, "RTSP/1.0 {} {}\r\n", status.0, status.reason())
                    .expect("Vec write never errors");
            }
        }
        for (k, v) in self.headers() {
            write!(text, "{k}: {v}\r\n").expect("Vec write never errors");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(self.body());
    }
}

/// `fmt::Write` adapter over a byte buffer (RTSP text is ASCII; UTF-8
/// passes through byte-for-byte).
struct WriteBytes<'a>(&'a mut Vec<u8>);

impl fmt::Write for WriteBytes<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Errors the decoder can report for malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The start line was not a valid request or response line.
    BadStartLine(String),
    /// A header line had no colon.
    BadHeader(String),
    /// Content-Length was not a number.
    BadContentLength(String),
    /// The method is not one we speak.
    UnknownMethod(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadStartLine(l) => write!(f, "bad start line: {l:?}"),
            DecodeError::BadHeader(l) => write!(f, "bad header line: {l:?}"),
            DecodeError::BadContentLength(v) => write!(f, "bad Content-Length: {v:?}"),
            DecodeError::UnknownMethod(m) => write!(f, "unknown method: {m:?}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Incremental decoder over a TCP byte stream: feed bytes in arbitrary
/// chunks, pop complete messages.
///
/// Consumed bytes are tracked with a cursor rather than drained per
/// message, so a burst of pipelined messages walks the buffer once
/// instead of memmoving the tail after each one.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    pos: usize,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards all buffered bytes, keeping the buffer's capacity — a
    /// reset decoder behaves like a fresh one but feeds into warm memory.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }

    /// Appends received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 4096 {
            // Compact a long-consumed prefix so a perpetually incomplete
            // tail cannot grow the buffer without bound.
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet forming a complete message.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Attempts to decode one complete message. Returns `Ok(None)` when more
    /// bytes are needed.
    pub fn next_message(&mut self) -> Result<Option<Message>, DecodeError> {
        let buf = &self.buf[self.pos..];
        // Find the header/body separator.
        let Some(header_end) = find_crlf_crlf(buf) else {
            return Ok(None);
        };
        // Borrowed when the header block is valid UTF-8 (always, for our
        // own encoder's output); lossily copied only for invalid input.
        let header_text = String::from_utf8_lossy(&buf[..header_end]);
        let mut lines = header_text.split("\r\n");
        let start = lines.next().unwrap_or_default();

        // A header-level error consumes the header block it was found in:
        // the message cannot be framed (its body length is unknown), and
        // leaving `pos` in front of it would hand every later call the
        // same bad block again.
        let body_start = header_end + 4;

        let mut headers: Vec<(SmallStr, SmallStr)> = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                self.pos += body_start;
                return Err(DecodeError::BadHeader(line.to_string()));
            };
            let (name, value) = (name.trim(), value.trim());
            match headers.iter_mut().find(|(k, _)| k.as_str() == name) {
                Some((_, v)) => *v = SmallStr::from(value),
                None => headers.push((SmallStr::from(name), SmallStr::from(value))),
            }
        }

        let content_length = match headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        {
            Some((_, v)) => match v.parse::<usize>() {
                Ok(n) => n,
                Err(_) => {
                    self.pos += body_start;
                    return Err(DecodeError::BadContentLength(v.to_string()));
                }
            },
            None => 0,
        };

        // `body_start <= buf.len()`; compared this way round a hostile
        // Content-Length near `usize::MAX` cannot overflow the sum.
        if buf.len() - body_start < content_length {
            return Ok(None); // body incomplete
        }
        let body = buf[body_start..body_start + content_length].to_vec();

        // Parse the start line.
        let msg = if let Some(rest) = start.strip_prefix("RTSP/1.0 ") {
            let mut parts = rest.splitn(2, ' ');
            match parts.next().and_then(|c| c.parse::<u16>().ok()) {
                Some(code) => Ok(Message::Response {
                    status: Status(code),
                    headers,
                    body,
                }),
                None => Err(DecodeError::BadStartLine(start.to_string())),
            }
        } else {
            let mut parts = start.split(' ');
            let method_str = parts.next().unwrap_or_default();
            match (parts.next(), parts.next()) {
                (Some(url), Some("RTSP/1.0")) => match Method::from_str(method_str) {
                    Some(method) => Ok(Message::Request {
                        method,
                        url: SmallStr::from(url),
                        headers,
                        body,
                    }),
                    None => Err(DecodeError::UnknownMethod(method_str.to_string())),
                },
                _ => Err(DecodeError::BadStartLine(start.to_string())),
            }
        };
        self.pos += body_start + content_length;
        msg.map(Some)
    }
}

fn find_crlf_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let msg = Message::request(Method::Describe, "rtsp://srv/clip.rm")
            .with_header("CSeq", "1")
            .with_header("User-Agent", "RealTracer/1.0");
        let bytes = msg.encode();
        let mut dec = Decoder::new();
        dec.feed(&bytes);
        let got = dec.next_message().unwrap().unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn response_with_body_round_trips() {
        let msg = Message::response(Status::OK)
            .with_header("CSeq", "2")
            .with_body(b"v=0\r\nm=video".to_vec());
        let bytes = msg.encode();
        let mut dec = Decoder::new();
        dec.feed(&bytes);
        let got = dec.next_message().unwrap().unwrap();
        assert_eq!(got.body(), b"v=0\r\nm=video");
        assert_eq!(got.header("content-length"), Some("12"));
    }

    #[test]
    fn decoder_handles_arbitrary_segmentation() {
        let msg = Message::request(Method::Setup, "rtsp://s/c")
            .with_header("Transport", "udp;client_port=5000")
            .with_body(b"0123456789".to_vec());
        let bytes = msg.encode();
        // Feed one byte at a time.
        let mut dec = Decoder::new();
        let mut decoded = None;
        for b in &bytes {
            dec.feed(std::slice::from_ref(b));
            if let Some(m) = dec.next_message().unwrap() {
                decoded = Some(m);
            }
        }
        assert_eq!(decoded.unwrap(), msg);
    }

    #[test]
    fn decoder_handles_pipelined_messages() {
        let a = Message::request(Method::Play, "rtsp://s/c").with_header("CSeq", "3");
        let b = Message::request(Method::Teardown, "rtsp://s/c").with_header("CSeq", "4");
        let mut bytes = a.encode();
        bytes.extend(b.encode());
        let mut dec = Decoder::new();
        dec.feed(&bytes);
        assert_eq!(dec.next_message().unwrap().unwrap(), a);
        assert_eq!(dec.next_message().unwrap().unwrap(), b);
        assert_eq!(dec.next_message().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn incomplete_message_returns_none() {
        let mut dec = Decoder::new();
        dec.feed(b"DESCRIBE rtsp://s/c RTSP/1.0\r\nCSeq: 1\r\n");
        assert_eq!(dec.next_message().unwrap(), None);
        dec.feed(b"\r\n");
        assert!(dec.next_message().unwrap().is_some());

        // A body length no buffer can reach is "incomplete" too, not an
        // overflow.
        let mut dec = Decoder::new();
        dec.feed(b"PLAY rtsp://s/c RTSP/1.0\r\nContent-Length: 18446744073709551615\r\n\r\n");
        assert_eq!(dec.next_message().unwrap(), None);
    }

    #[test]
    fn bad_inputs_are_errors() {
        let mut dec = Decoder::new();
        dec.feed(b"NONSENSE\r\n\r\n");
        assert!(matches!(
            dec.next_message(),
            Err(DecodeError::BadStartLine(_))
        ));

        let mut dec = Decoder::new();
        dec.feed(b"FETCH rtsp://s/c RTSP/1.0\r\n\r\n");
        assert!(matches!(
            dec.next_message(),
            Err(DecodeError::UnknownMethod(_))
        ));

        let mut dec = Decoder::new();
        dec.feed(b"PLAY rtsp://s/c RTSP/1.0\r\nContent-Length: abc\r\n\r\n");
        assert!(matches!(
            dec.next_message(),
            Err(DecodeError::BadContentLength(_))
        ));

        let mut dec = Decoder::new();
        dec.feed(b"PLAY rtsp://s/c RTSP/1.0\r\nno-colon-here\r\n\r\n");
        assert!(matches!(dec.next_message(), Err(DecodeError::BadHeader(_))));
    }

    #[test]
    fn header_errors_consume_the_bad_message() {
        let good = Message::request(Method::Play, "rtsp://s/c").with_header("CSeq", "3");
        for bad in [
            &b"PLAY rtsp://s/c RTSP/1.0\r\nno-colon-here\r\n\r\n"[..],
            &b"PLAY rtsp://s/c RTSP/1.0\r\nContent-Length: abc\r\n\r\n"[..],
        ] {
            let mut dec = Decoder::new();
            dec.feed(bad);
            dec.feed(&good.encode());
            assert!(dec.next_message().is_err());
            // Reported once: the next call is past the bad block.
            assert_eq!(dec.next_message().unwrap().unwrap(), good);
            assert_eq!(dec.next_message().unwrap(), None);
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn all_methods_round_trip() {
        for m in Method::ALL {
            let msg = Message::request(m, "rtsp://s/c");
            let mut dec = Decoder::new();
            dec.feed(&msg.encode());
            assert_eq!(dec.next_message().unwrap().unwrap(), msg);
        }
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let msg = Message::request(Method::Options, "rtsp://s/c").with_header("CSeq", "9");
        assert_eq!(msg.header("cseq"), Some("9"));
        assert_eq!(msg.header("CSEQ"), Some("9"));
        assert_eq!(msg.header("missing"), None);
    }

    #[test]
    fn status_helpers() {
        assert!(Status::OK.is_success());
        assert!(!Status::NOT_FOUND.is_success());
        assert_eq!(Status::NOT_FOUND.reason(), "Not Found");
        assert_eq!(Status(599).reason(), "Unknown");
    }
}
