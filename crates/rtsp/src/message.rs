//! RTSP wire format: one writer, one view.
//!
//! RealServer spoke RTSP (RFC 2326) on its control connection. The codec
//! here parses and serializes the realistic wire format — request line,
//! headers, CRLF framing, optional body with Content-Length — because the
//! control connection runs over the simulated TCP byte stream and must
//! survive arbitrary segmentation. Every message is written by
//! [`Writer`] straight into a buffer its caller reuses, and read by
//! [`MessageView`] straight out of the [`Decoder`]'s buffer.

use std::fmt;
use std::fmt::Write as _;

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

/// Longest header block (start line and header lines, up to the blank
/// line) the decoder will frame. Ours run to ~130 bytes.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// Largest `Content-Length` the decoder will wait for. A presentation
/// description is a few hundred bytes.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// The one encoder: writes a message's wire bytes onto the end of the
/// caller's buffer — a start line, then `name: value` lines in call
/// order, then [`Writer::finish`] or [`Writer::body`] closes the header
/// block. Nothing is staged or owned in between, so a message written
/// into a warm buffer allocates nothing.
#[derive(Debug)]
#[must_use = "a message is framed only once `finish` or `body` closes its header block"]
pub struct Writer<'a>(&'a mut Vec<u8>);

impl<'a> Writer<'a> {
    /// Starts a request.
    pub fn request(out: &'a mut Vec<u8>, method: Method, url: &str) -> Self {
        Writer(out).put(format_args!("{method} {url} RTSP/1.0\r\n"))
    }

    /// Starts a response.
    pub fn response(out: &'a mut Vec<u8>, status: Status) -> Self {
        Writer(out).put(format_args!(
            "RTSP/1.0 {} {}\r\n",
            status.0,
            status.reason()
        ))
    }

    /// Adds one header line, `value` rendered in place.
    pub fn header(self, name: &str, value: impl fmt::Display) -> Self {
        self.put(format_args!("{name}: {value}\r\n"))
    }

    /// Closes a bodyless message.
    pub fn finish(self) {
        self.0.extend_from_slice(b"\r\n");
    }

    /// Closes the message with `body` and its `Content-Length`.
    pub fn body(self, body: &[u8]) {
        let out = self.header("Content-Length", body.len()).0;
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(body);
    }

    fn put(mut self, text: fmt::Arguments<'_>) -> Self {
        // Infallible because the sink below never errors: an `Err` could
        // only be a `Display` impl's own, which truncates that value.
        let _ = self.write_fmt(text);
        self
    }
}

/// RTSP text is ASCII; UTF-8 passes through byte-for-byte.
impl fmt::Write for Writer<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// What a message's first line says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartLine<'a> {
    /// A client request for `url`, e.g. `rtsp://server/clip.rm`.
    Request {
        /// The method.
        method: Method,
        /// The target URL.
        url: &'a str,
    },
    /// A server response.
    Response {
        /// Status code.
        status: Status,
    },
}

impl<'a> StartLine<'a> {
    fn parse(line: &'a str) -> Result<Self, DecodeError> {
        if let Some(rest) = line.strip_prefix("RTSP/1.0 ") {
            let code = rest.split(' ').next().and_then(|c| c.parse().ok());
            let status = Status(code.ok_or(DecodeError::BadStartLine)?);
            return Ok(StartLine::Response { status });
        }
        let mut parts = line.split(' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some(method), Some(url), Some("RTSP/1.0")) => {
                let method = Method::from_str(method).ok_or(DecodeError::UnknownMethod)?;
                Ok(StartLine::Request { method, url })
            }
            _ => Err(DecodeError::BadStartLine),
        }
    }
}

/// The one parser's result: a message read in place, borrowed from the
/// bytes it was framed in (the [`Decoder`]'s buffer, or a [`Message`]'s
/// own). It owns nothing and copies nothing.
///
/// Headers keep wire order and spelling; names and values are trimmed.
/// A hostile peer may repeat a name, and the view answers as a map keyed
/// on exact spelling would: **lines repeating a spelling collapse into
/// the first such line's place with the last one's value**, and
/// [`header`](Self::header), case-insensitive, **returns the first entry
/// that matches**. So `A: 1`, `a: 2`, `A: 3` reads `[(A, 3), (a, 2)]` and
/// `header("a")` is `3`.
#[derive(Debug, Clone, Copy)]
pub struct MessageView<'a> {
    start: StartLine<'a>,
    /// The header lines between the start line and the blank line.
    head: &'a str,
    body: &'a [u8],
}

/// Trimmed `(name, value)` of each header line, repeats and all.
fn lines(head: &str) -> impl Iterator<Item = (&str, &str)> {
    head.split("\r\n")
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim(), value.trim()))
}

fn lookup<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    let mut found: Option<(&str, &str)> = None;
    for (n, v) in lines(head) {
        match found {
            None if n.eq_ignore_ascii_case(name) => found = Some((n, v)),
            Some((spelling, _)) if n == spelling => found = Some((n, v)),
            _ => {}
        }
    }
    found.map(|(_, value)| value)
}

impl<'a> MessageView<'a> {
    /// The request or status line.
    pub fn start(&self) -> StartLine<'a> {
        self.start
    }

    /// Header entries in wire order (see the type's duplicate rule).
    pub fn headers(&self) -> impl Iterator<Item = (&'a str, &'a str)> + 'a {
        let head = self.head;
        lines(head)
            .enumerate()
            .filter(move |&(i, (name, _))| !lines(head).take(i).any(|(n, _)| n == name))
            .map(move |(i, (name, value))| {
                let later = lines(head).skip(i + 1).filter(|&(n, _)| n == name);
                (name, later.last().map_or(value, |(_, v)| v))
            })
    }

    /// Case-insensitive header lookup (see the type's duplicate rule).
    pub fn header(&self, name: &str) -> Option<&'a str> {
        lookup(self.head, name)
    }

    /// The message body.
    pub fn body(&self) -> &'a [u8] {
        self.body
    }
}

impl PartialEq for MessageView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start && self.body == other.body && self.headers().eq(other.headers())
    }
}

impl PartialEq<Message> for MessageView<'_> {
    fn eq(&self, other: &Message) -> bool {
        other.view().is_some_and(|view| view == *self)
    }
}

/// How far [`parse`] got with the bytes it was shown.
enum Parsed<'a> {
    /// No whole message yet: the first `scanned` bytes hold no header
    /// terminator, and nothing changes before `want` bytes are in.
    Partial { scanned: usize, want: usize },
    /// A message, and the bytes it took.
    Whole(MessageView<'a>, usize),
    /// An error, and the bytes to discard with it.
    Bad(DecodeError, usize),
}

/// Frames and parses the message at the front of `buf`, resuming the
/// terminator search `scanned` bytes in.
///
/// A header-level error consumes the header block it was found in: the
/// message cannot be framed (its body length is unknown), and leaving it
/// in front would hand every later call the same bad block. A start-line
/// error consumes the whole framed message; a size-limit error, all of
/// `buf` — a peer that far gone has no message boundary left to find.
fn parse(buf: &[u8], scanned: usize) -> Parsed<'_> {
    let from = scanned.min(buf.len());
    let terminator = buf[from..].windows(4).position(|w| w == b"\r\n\r\n");
    let Some(head_end) = terminator.map(|at| from + at) else {
        if buf.len() >= MAX_HEADER_BYTES + 4 {
            return Parsed::Bad(DecodeError::HeaderTooLarge, buf.len());
        }
        return Parsed::Partial {
            scanned: buf.len().saturating_sub(3),
            want: buf.len() + 1,
        };
    };
    if head_end > MAX_HEADER_BYTES {
        return Parsed::Bad(DecodeError::HeaderTooLarge, buf.len());
    }
    let body_start = head_end + 4;
    let Ok(block) = std::str::from_utf8(&buf[..head_end]) else {
        return Parsed::Bad(DecodeError::NotUtf8, body_start);
    };
    let (start, head) = block.split_once("\r\n").unwrap_or((block, ""));
    let colonless = |line: &str| !line.is_empty() && !line.contains(':');
    if head.split("\r\n").any(colonless) {
        return Parsed::Bad(DecodeError::BadHeader, body_start);
    }
    let body_len = match lookup(head, "content-length").map(str::parse::<usize>) {
        None => 0,
        Some(Ok(n)) if n <= MAX_BODY_BYTES => n,
        Some(Ok(_)) => return Parsed::Bad(DecodeError::BodyTooLarge, buf.len()),
        Some(Err(_)) => return Parsed::Bad(DecodeError::BadContentLength, body_start),
    };
    let end = body_start + body_len;
    if buf.len() < end {
        return Parsed::Partial {
            scanned: head_end,
            want: end,
        };
    }
    match StartLine::parse(start) {
        Ok(start) => {
            let body = &buf[body_start..end];
            Parsed::Whole(MessageView { start, head, body }, end)
        }
        Err(err) => Parsed::Bad(err, end),
    }
}

/// An owned message — its wire bytes — for tests and benches: built
/// through [`Writer`], read through [`MessageView`]. A session never
/// makes one; it writes into, and reads out of, buffers it already has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    wire: Vec<u8>,
    /// Where the body starts: just past the blank line.
    body_at: usize,
}

impl Message {
    fn framed(wire: Vec<u8>) -> Message {
        let body_at = wire.len();
        Message { wire, body_at }
    }

    /// Builds a bodyless request.
    pub fn request(method: Method, url: &str) -> Message {
        let mut wire = Vec::new();
        Writer::request(&mut wire, method, url).finish();
        Message::framed(wire)
    }

    /// Builds a bodyless response.
    pub fn response(status: Status) -> Message {
        let mut wire = Vec::new();
        Writer::response(&mut wire, status).finish();
        Message::framed(wire)
    }

    /// Adds a header line (builder style), `value` rendered in place.
    pub fn with_header(mut self, name: &str, value: impl fmt::Display) -> Message {
        let body = self.wire.split_off(self.body_at);
        self.wire.truncate(self.body_at - 2); // reopen the header block
        Writer(&mut self.wire).header(name, value).finish();
        self.body_at = self.wire.len();
        self.wire.extend_from_slice(&body);
        self
    }

    /// Sets the body and Content-Length (builder style).
    pub fn with_body(mut self, body: Vec<u8>) -> Message {
        self.wire.truncate(self.body_at - 2);
        Writer(&mut self.wire).body(&body);
        self.body_at = self.wire.len() - body.len();
        self
    }

    /// Reads the message in place; `None` if what was built is not one
    /// well-formed message (a header value holding a blank line, say).
    pub fn view(&self) -> Option<MessageView<'_>> {
        match parse(&self.wire, 0) {
            Parsed::Whole(view, used) if used == self.wire.len() => Some(view),
            _ => None,
        }
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.view()?.header(name)
    }

    /// The message body.
    pub fn body(&self) -> &[u8] {
        &self.wire[self.body_at..]
    }

    /// The RTSP wire format.
    pub fn encode(&self) -> Vec<u8> {
        self.wire.clone()
    }

    /// Serializes onto the end of `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.wire);
    }
}

/// Errors the decoder can report for malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The start line was not a valid request or response line.
    BadStartLine,
    /// A header line had no colon.
    BadHeader,
    /// Content-Length was not a number.
    BadContentLength,
    /// The method is not one we speak.
    UnknownMethod,
    /// The header block was not UTF-8.
    NotUtf8,
    /// No blank line within [`MAX_HEADER_BYTES`].
    HeaderTooLarge,
    /// A Content-Length above [`MAX_BODY_BYTES`].
    BodyTooLarge,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DecodeError::BadStartLine => "bad start line",
            DecodeError::BadHeader => "header line without a colon",
            DecodeError::BadContentLength => "bad Content-Length",
            DecodeError::UnknownMethod => "unknown method",
            DecodeError::NotUtf8 => "header block is not UTF-8",
            DecodeError::HeaderTooLarge => "header block exceeds MAX_HEADER_BYTES",
            DecodeError::BodyTooLarge => "Content-Length exceeds MAX_BODY_BYTES",
        })
    }
}

impl std::error::Error for DecodeError {}

/// Incremental decoder over a TCP byte stream: feed bytes in arbitrary
/// chunks, read complete messages in place.
///
/// Consumed bytes are tracked with a cursor rather than drained per
/// message, so a burst of pipelined messages walks the buffer once
/// instead of memmoving the tail after each one; and what an incomplete
/// message already taught the decoder (`scanned`, `want`) is kept, so
/// bytes dribbled in one at a time are each looked at once.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    pos: usize,
    /// Bytes past `pos` known to hold no header terminator.
    scanned: usize,
    /// Bytes past `pos` that must be buffered before anything can change.
    want: usize,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns to [`Decoder::new`]'s state, keeping the buffer's capacity:
    /// every buffered byte is dropped, and the next feed goes into warm
    /// memory.
    pub fn renew(&mut self) {
        self.buf.clear();
        (self.pos, self.scanned, self.want) = (0, 0, 0);
    }

    /// Bytes of buffer storage held.
    pub fn retained_bytes(&self) -> usize {
        self.buf.capacity()
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

    /// Attempts to decode one complete message, borrowed from the
    /// decoder's buffer until the next `feed` / `next_message`. Returns
    /// `Ok(None)` when more bytes are needed; an `Err` has discarded the
    /// bytes it names (see [`DecodeError`]), so the next call moves on.
    pub fn next_message(&mut self) -> Result<Option<MessageView<'_>>, DecodeError> {
        if self.buffered() < self.want {
            return Ok(None);
        }
        // Cursor updates are spelled out per arm: the view borrows `buf`.
        match parse(&self.buf[self.pos..], self.scanned) {
            Parsed::Partial { scanned, want } => {
                (self.scanned, self.want) = (scanned, want);
                Ok(None)
            }
            Parsed::Whole(view, used) => {
                (self.pos, self.scanned, self.want) = (self.pos + used, 0, 0);
                Ok(Some(view))
            }
            Parsed::Bad(err, used) => {
                (self.pos, self.scanned, self.want) = (self.pos + used, 0, 0);
                Err(err)
            }
        }
    }
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
        // Feed one byte at a time: nothing before the last byte, all of
        // it after.
        let mut dec = Decoder::new();
        let (last, rest) = bytes.split_last().unwrap();
        for b in rest {
            dec.feed(std::slice::from_ref(b));
            assert_eq!(dec.next_message(), Ok(None));
        }
        dec.feed(std::slice::from_ref(last));
        assert_eq!(dec.next_message().unwrap().unwrap(), msg);
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

        // A body shorter than its Content-Length is incomplete, and the
        // decoder waits for exactly the missing bytes.
        let mut dec = Decoder::new();
        dec.feed(b"PLAY rtsp://s/c RTSP/1.0\r\nContent-Length: 3\r\n\r\nab");
        assert_eq!(dec.next_message().unwrap(), None);
        dec.feed(b"c");
        assert_eq!(dec.next_message().unwrap().unwrap().body(), b"abc");
    }

    #[test]
    fn bad_inputs_are_errors() {
        let mut dec = Decoder::new();
        dec.feed(b"NONSENSE\r\n\r\n");
        assert_eq!(dec.next_message(), Err(DecodeError::BadStartLine));

        let mut dec = Decoder::new();
        dec.feed(b"FETCH rtsp://s/c RTSP/1.0\r\n\r\n");
        assert_eq!(dec.next_message(), Err(DecodeError::UnknownMethod));

        let mut dec = Decoder::new();
        dec.feed(b"PLAY rtsp://s/c RTSP/1.0\r\nContent-Length: abc\r\n\r\n");
        assert_eq!(dec.next_message(), Err(DecodeError::BadContentLength));

        let mut dec = Decoder::new();
        dec.feed(b"PLAY rtsp://s/c RTSP/1.0\r\nno-colon-here\r\n\r\n");
        assert_eq!(dec.next_message(), Err(DecodeError::BadHeader));

        let mut dec = Decoder::new();
        dec.feed(b"PLAY rtsp://s/\xff RTSP/1.0\r\nCSeq: 1\r\n\r\n");
        assert_eq!(dec.next_message(), Err(DecodeError::NotUtf8));
    }

    /// A peer that never ends its header block, or promises a body no
    /// peer will send, is cut off at a fixed size with everything
    /// buffered discarded — however the bytes were segmented.
    #[test]
    fn oversized_messages_are_typed_errors_that_discard_the_buffer() {
        let endless = b"X-Pad: 0123456789abcdef\r\n".repeat(MAX_HEADER_BYTES / 25 + 2);
        for chunk in [1, 7, endless.len()] {
            let mut dec = Decoder::new();
            dec.feed(b"PLAY rtsp://s/c RTSP/1.0\r\n");
            let mut errors = 0;
            for piece in endless.chunks(chunk) {
                dec.feed(piece);
                match dec.next_message() {
                    Ok(None) => assert!(dec.buffered() < MAX_HEADER_BYTES + 4 + chunk),
                    Err(err) => {
                        assert_eq!(err, DecodeError::HeaderTooLarge);
                        assert_eq!(dec.buffered(), 0);
                        errors += 1;
                    }
                    Ok(Some(msg)) => panic!("framed {msg:?}"),
                }
            }
            assert!(errors >= 1, "chunk {chunk}");
        }

        // One-shot and terminated, but past the limit: the same error.
        let mut dec = Decoder::new();
        dec.feed(b"PLAY rtsp://s/c RTSP/1.0\r\n");
        dec.feed(&endless);
        dec.feed(b"\r\n");
        assert_eq!(dec.next_message(), Err(DecodeError::HeaderTooLarge));
        assert_eq!(dec.buffered(), 0);

        // The largest body is waited for; one byte more is refused at once.
        let mut dec = Decoder::new();
        let ask = |n: usize| format!("PLAY rtsp://s/c RTSP/1.0\r\nContent-Length: {n}\r\n\r\n");
        dec.feed(ask(MAX_BODY_BYTES).as_bytes());
        assert_eq!(dec.next_message(), Ok(None));
        dec.renew();
        for n in [MAX_BODY_BYTES + 1, usize::MAX] {
            dec.feed(ask(n).as_bytes());
            dec.feed(b"trailing");
            assert_eq!(dec.next_message(), Err(DecodeError::BodyTooLarge));
            assert_eq!(dec.buffered(), 0);
        }
    }

    /// The separator scan resumes where it stopped: a header block
    /// dribbled in a byte at a time is looked at once, not once a byte.
    #[test]
    fn dribbled_header_block_is_scanned_once() {
        let mut dec = Decoder::new();
        dec.feed(b"PLAY rtsp://s/c RTSP/1.0\r\nCSeq: 1");
        assert_eq!(dec.next_message(), Ok(None));
        assert_eq!(
            (dec.scanned, dec.want),
            (dec.buffered() - 3, dec.buffered() + 1)
        );
        // Nothing new: the call does not even look.
        assert_eq!(dec.next_message(), Ok(None));
        dec.feed(b"\r\nContent-Length: 4\r\n\r\nab");
        assert_eq!(dec.next_message(), Ok(None));
        // Header block found; only the body's last byte can matter now.
        assert_eq!(dec.want, dec.buffered() + 2);
        dec.feed(b"c");
        assert_eq!(dec.next_message(), Ok(None));
        dec.feed(b"d");
        assert_eq!(dec.next_message().unwrap().unwrap().body(), b"abcd");
        assert_eq!((dec.scanned, dec.want, dec.buffered()), (0, 0, 0));
    }

    /// The duplicate rule the view documents, against the map-by-exact-
    /// spelling answer the owned parse used to give.
    #[test]
    fn hostile_duplicate_headers_read_as_the_owned_parse_did() {
        let mut dec = Decoder::new();
        dec.feed(
            b"SET_PARAMETER rtsp://s/c RTSP/1.0\r\nA: 1\r\nCSeq: 7\r\na: 2\r\n A :3 \r\n\
              cseq: 8\r\nCSeq: 9\r\nb:\r\n\r\n",
        );
        let msg = dec.next_message().unwrap().unwrap();
        // Same spelling: one entry, where the first stood, last value.
        // Different case: separate entries.
        let entries: Vec<_> = msg.headers().collect();
        assert_eq!(
            entries,
            [
                ("A", "3"),
                ("CSeq", "9"),
                ("a", "2"),
                ("cseq", "8"),
                ("b", "")
            ]
        );
        // Lookup ignores case and returns the first entry that matches.
        assert_eq!(msg.header("a"), Some("3"));
        assert_eq!(msg.header("A"), Some("3"));
        assert_eq!(msg.header("CSEQ"), Some("9"));
        assert_eq!(msg.header("cseq"), Some("9"));
        assert_eq!(msg.header("B"), Some(""));
        assert_eq!(msg.header("c"), None);

        // A lower-case spelling first: it is the one lookups find.
        dec.feed(b"RTSP/1.0 200 OK\r\ncseq: 1\r\nCSeq: 2\r\ncseq: 3\r\n\r\n");
        let msg = dec.next_message().unwrap().unwrap();
        assert_eq!(msg.header("CSeq"), Some("3"));
        assert_eq!(
            msg.headers().collect::<Vec<_>>(),
            [("cseq", "3"), ("CSeq", "2")]
        );
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
