//! Property-based tests for the RTSP codec: the decoder survives hostile
//! bytes (past its size limits too), framing is independent of TCP
//! segmentation, and what the writer wrote is what the view reads.

use proptest::prelude::*;
use rv_rtsp::{
    Decoder, Message, Method, StartLine, Status, Writer, MAX_BODY_BYTES, MAX_HEADER_BYTES,
};

/// Fragments a hostile peer would splice together: framing, start-line
/// and header pieces, numbers at and past every integer limit, invalid
/// UTF-8.
const SOUP: [&[u8]; 23] = [
    b"\r\n",
    b"\r\n\r\n",
    b"\r",
    b"\n",
    b" ",
    b":",
    b": ",
    b"RTSP/1.0",
    b"RTSP/1.0 ",
    b"PLAY ",
    b"SET_PARAMETER ",
    b"FETCH ",
    b"rtsp://s/c ",
    b"Content-Length",
    b"content-length: ",
    b"200",
    b"65536",
    b"-1",
    b"18446744073709551615",
    b"\r\nContent-Length: 18446744073709551615\r\n\r\n",
    b"\r\nContent-Length: 65536\r\n\r\n",
    b"\r\nContent-Length: 65537\r\n\r\n",
    b"\xff\xc3",
];

/// Feeds `bytes` in `chunk`-sized pieces, draining the decoder after each
/// piece; returns how many results (messages or errors) came out.
fn drain(dec: &mut Decoder, bytes: &[u8], chunk: usize) -> usize {
    let mut results = 0;
    for piece in bytes.chunks(chunk.max(1)) {
        dec.feed(piece);
        // Every `Some` and every `Err` consumes at least the four bytes
        // of a header terminator (or, past a size limit, everything), so
        // the buffer bounds the loop.
        for _ in 0..=dec.buffered() {
            match dec.next_message() {
                Ok(None) => break,
                Ok(Some(_)) | Err(_) => results += 1,
            }
        }
        assert!(matches!(dec.next_message(), Ok(None)), "decoder livelocked");
        // What stays buffered is one incomplete message, within limits.
        assert!(dec.buffered() < MAX_HEADER_BYTES + 8 + MAX_BODY_BYTES);
    }
    results
}

const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-";
const VALUE_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789;=/.,-_ :";

/// `len` bytes drawn from `alphabet` by `picks` (cycled), never starting
/// or ending on a space — the decoder trims header names and values.
fn text(alphabet: &[u8], picks: &[u8], len: usize) -> String {
    let mut s: String = (0..len)
        .map(|i| alphabet[usize::from(picks[i % picks.len()]) % alphabet.len()] as char)
        .collect();
    if s.starts_with(' ') {
        s.replace_range(..1, "x");
    }
    if s.ends_with(' ') {
        s.replace_range(len - 1.., "x");
    }
    s
}

/// A message with `headers.len()` distinct headers of the given
/// `(name_len, value_len)` sizes (`name_len >= 3`, room for the index
/// prefix) and a `body_len`-byte body.
fn message(kind: u8, headers: &[(usize, usize)], picks: &[u8], body_len: usize) -> Message {
    let mut msg = if kind < 7 {
        Message::request(
            Method::ALL[usize::from(kind)],
            "rtsp://srv.example/clip08.rm",
        )
    } else {
        Message::response([Status::OK, Status::NOT_FOUND, Status(599)][usize::from(kind) % 3])
    };
    for (i, &(name_len, value_len)) in headers.iter().enumerate() {
        // The index prefix keeps names distinct: a repeated name would
        // replace, not add.
        let name = format!("h{i}-{}", text(NAME_CHARS, &picks[i..], name_len));
        let value = text(VALUE_CHARS, &picks[i + 1..], value_len);
        msg = msg.with_header(&name[..name_len], value.as_str());
    }
    if body_len > 0 {
        let body = (0..body_len).map(|i| picks[i % picks.len()]).collect();
        msg = msg.with_body(body);
    }
    msg
}

proptest! {
    /// Whatever arrives on the control connection — random bytes, or RTSP
    /// fragments spliced at random, or either of those after more padding
    /// than a header block may hold — the decoder returns messages, typed
    /// errors or "need more", always makes progress, and never buffers
    /// more than one message's worth.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        raw in prop::collection::vec(any::<u8>(), 0..200),
        soup in prop::collection::vec(0usize..SOUP.len() + 4, 0..40),
        chunk in 1usize..64,
        pad in 0usize..3 * MAX_HEADER_BYTES / 2,
    ) {
        // Soup indices past the table splice in a run of the raw bytes.
        let mut bytes = Vec::new();
        for (i, &piece) in soup.iter().enumerate() {
            match SOUP.get(piece) {
                Some(fragment) => bytes.extend_from_slice(fragment),
                None => bytes.extend(raw.iter().skip(i).take(piece)),
            }
        }
        let mut dec = Decoder::new();
        drain(&mut dec, &raw, chunk);
        dec.renew();
        let fed = bytes.len();
        drain(&mut dec, &bytes, chunk);
        prop_assert!(dec.buffered() <= fed);
        // Past the header limit: the padding is refused, not hoarded.
        let padded = pad >= MAX_HEADER_BYTES + 4;
        dec.renew();
        let results = drain(&mut dec, &vec![b'x'; pad], chunk * 64);
        prop_assert_eq!(results > 0, padded);
        drain(&mut dec, &bytes, chunk);
        // A reset decoder is a fresh one, whatever it was fed before.
        dec.renew();
        let good = Message::request(Method::Play, "rtsp://s/c").with_header("CSeq", "3");
        dec.feed(&good.encode());
        prop_assert!(dec.next_message().unwrap().unwrap() == good);
    }

    /// TCP may cut the stream anywhere: a message fed in two pieces split
    /// at any byte decodes to exactly what one feed decodes to, and never
    /// before its last byte arrives.
    #[test]
    fn split_at_every_byte_boundary_matches_one_shot_decode(
        kind in 0u8..10,
        headers in prop::collection::vec((3usize..40, 0usize..40), 0..5),
        picks in prop::collection::vec(any::<u8>(), 48..64),
        body_len in 0usize..40,
    ) {
        let msg = message(kind, &headers, &picks, body_len);
        let bytes = msg.encode();
        let mut one_shot = Decoder::new();
        one_shot.feed(&bytes);
        prop_assert!(one_shot.next_message().unwrap().unwrap() == msg);
        prop_assert_eq!(one_shot.buffered(), 0);

        for cut in 0..bytes.len() {
            let mut dec = Decoder::new();
            dec.feed(&bytes[..cut]);
            prop_assert_eq!(dec.next_message(), Ok(None), "complete at {} of {}", cut, bytes.len());
            dec.feed(&bytes[cut..]);
            prop_assert!(dec.next_message().unwrap().unwrap() == msg, "cut at {}", cut);
            prop_assert_eq!(dec.next_message(), Ok(None));
            prop_assert_eq!(dec.buffered(), 0);
        }
    }

    /// Header names and values of 29 to 33 bytes (the sizes that used to
    /// straddle a small-string inline limit) come back off the wire
    /// equal, in order, through a staging buffer that already holds
    /// another message.
    #[test]
    fn headers_straddling_the_inline_limit_round_trip(
        kind in 0u8..10,
        headers in prop::collection::vec((29usize..34, 29usize..34), 1..6),
        picks in prop::collection::vec(any::<u8>(), 48..64),
        body_len in 0usize..8,
    ) {
        let msg = message(kind, &headers, &picks, body_len);
        let built = msg.view().unwrap();
        let sized = built.headers().filter(|(name, _)| *name != "Content-Length");
        for ((name, value), &(name_len, value_len)) in sized.zip(&headers) {
            prop_assert_eq!(name.len(), name_len);
            prop_assert_eq!(value.len(), value_len);
        }
        let first = Message::response(Status::OK).with_header("CSeq", 7);
        let mut staged = first.encode();
        let first_len = staged.len();
        msg.encode_into(&mut staged);
        prop_assert_eq!(&staged[first_len..], &msg.encode()[..]);

        let mut dec = Decoder::new();
        dec.feed(&staged);
        prop_assert!(dec.next_message().unwrap().unwrap() == first);
        let got = dec.next_message().unwrap().unwrap();
        prop_assert!(got.headers().eq(built.headers()));
        for (name, value) in built.headers() {
            prop_assert_eq!(got.header(&name.to_ascii_uppercase()), Some(value));
        }
        prop_assert!(got == msg);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// Writer → decoder → view: a run of messages written back to back
    /// into one staging buffer, cut into arbitrary segments, reads back
    /// message by message as exactly the start lines, headers (order and
    /// spelling) and bodies that were written — and each appears only
    /// with the segment that completes it.
    #[test]
    fn written_messages_read_back_over_any_segmentation(
        shapes in prop::collection::vec(
            (0u8..10, prop::collection::vec((3usize..40, 0usize..40), 0..5), 0usize..300),
            1..6,
        ),
        picks in prop::collection::vec(any::<u8>(), 48..64),
        cuts in prop::collection::vec(1usize..90, 1..40),
    ) {
        let expected: Vec<Message> = shapes
            .iter()
            .map(|(kind, headers, body_len)| message(*kind, headers, &picks, *body_len))
            .collect();
        // The same messages again, through the writer by hand.
        let mut wire = Vec::new();
        let mut ends = Vec::new();
        for msg in &expected {
            let view = msg.view().unwrap();
            let mut w = match view.start() {
                StartLine::Request { method, url } => Writer::request(&mut wire, method, url),
                StartLine::Response { status } => Writer::response(&mut wire, status),
            };
            for (name, value) in view.headers().filter(|(name, _)| *name != "Content-Length") {
                w = w.header(name, value);
            }
            if view.body().is_empty() { w.finish() } else { w.body(view.body()) }
            ends.push(wire.len());
        }
        prop_assert_eq!(&wire, &expected.iter().flat_map(Message::encode).collect::<Vec<u8>>());

        let mut dec = Decoder::new();
        let (mut fed, mut seen) = (0, 0);
        let mut cuts = cuts.iter().cycle();
        while fed < wire.len() {
            let upto = (fed + cuts.next().unwrap()).min(wire.len());
            dec.feed(&wire[fed..upto]);
            fed = upto;
            while let Some(got) = dec.next_message().unwrap() {
                prop_assert!(got == expected[seen], "message {}", seen);
                prop_assert!(ends[seen] <= fed, "message {} read before its last byte", seen);
                seen += 1;
            }
            prop_assert_eq!(seen, ends.iter().filter(|&&end| end <= fed).count());
        }
        prop_assert_eq!(seen, expected.len());
        prop_assert_eq!(dec.buffered(), 0);
    }
}
