//! Property-based tests for the RTSP codec: the decoder survives hostile
//! bytes, framing is independent of TCP segmentation, and headers on
//! either side of `SmallStr`'s 31-byte inline limit survive the wire.

use proptest::prelude::*;
use rv_rtsp::{Decoder, Message, Method, Status};

/// Fragments a hostile peer would splice together: framing, start-line
/// and header pieces, numbers at and past every integer limit, invalid
/// UTF-8.
const SOUP: [&[u8]; 21] = [
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
    b"\xff\xc3",
];

/// Feeds `bytes` in `chunk`-sized pieces, draining the decoder after each
/// piece; returns how many results (messages or errors) came out.
fn drain(dec: &mut Decoder, bytes: &[u8], chunk: usize) -> usize {
    let mut results = 0;
    for piece in bytes.chunks(chunk.max(1)) {
        dec.feed(piece);
        // Every `Some` and every `Err` consumes at least the four bytes
        // of a header terminator, so the buffer bounds the loop.
        for _ in 0..=dec.buffered() {
            match dec.next_message() {
                Ok(None) => break,
                Ok(Some(_)) | Err(_) => results += 1,
            }
        }
        assert!(matches!(dec.next_message(), Ok(None)), "decoder livelocked");
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
    /// fragments spliced at random — the decoder returns messages, typed
    /// errors or "need more", and always makes progress.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        raw in prop::collection::vec(any::<u8>(), 0..200),
        soup in prop::collection::vec(0usize..SOUP.len() + 4, 0..40),
        chunk in 1usize..64,
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
        dec.reset();
        let fed = bytes.len();
        drain(&mut dec, &bytes, chunk);
        prop_assert!(dec.buffered() <= fed);
        // A reset decoder is a fresh one, whatever it was fed before.
        dec.reset();
        let good = Message::request(Method::Play, "rtsp://s/c").with_header("CSeq", "3");
        dec.feed(&good.encode());
        prop_assert_eq!(dec.next_message(), Ok(Some(good)));
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
        prop_assert_eq!(one_shot.next_message(), Ok(Some(msg.clone())));
        prop_assert_eq!(one_shot.buffered(), 0);

        for cut in 0..bytes.len() {
            let mut dec = Decoder::new();
            dec.feed(&bytes[..cut]);
            prop_assert_eq!(dec.next_message(), Ok(None), "complete at {} of {}", cut, bytes.len());
            dec.feed(&bytes[cut..]);
            prop_assert_eq!(dec.next_message(), Ok(Some(msg.clone())), "cut at {}", cut);
            prop_assert_eq!(dec.next_message(), Ok(None));
            prop_assert_eq!(dec.buffered(), 0);
        }
    }

    /// Header names and values from two bytes under `SmallStr`'s 31-byte
    /// inline limit to two over it — stored inline, spilled, or one of
    /// each — come back off the wire equal, in order, through a staging
    /// buffer that already holds another message.
    #[test]
    fn headers_straddling_the_inline_limit_round_trip(
        kind in 0u8..10,
        headers in prop::collection::vec((29usize..34, 29usize..34), 1..6),
        picks in prop::collection::vec(any::<u8>(), 48..64),
        body_len in 0usize..8,
    ) {
        let msg = message(kind, &headers, &picks, body_len);
        for ((name, value), &(name_len, value_len)) in msg.headers().iter().zip(&headers) {
            prop_assert_eq!(name.len(), name_len);
            prop_assert_eq!(value.len(), value_len);
        }
        let first = Message::response(Status::OK).with_header_display("CSeq", 7);
        let mut staged = first.encode();
        let first_len = staged.len();
        msg.encode_into(&mut staged);
        prop_assert_eq!(&staged[first_len..], &msg.encode()[..]);

        let mut dec = Decoder::new();
        dec.feed(&staged);
        prop_assert_eq!(dec.next_message(), Ok(Some(first)));
        let got = dec.next_message().unwrap().unwrap();
        prop_assert_eq!(got.headers(), msg.headers());
        for (name, value) in msg.headers() {
            prop_assert_eq!(got.header(&name.to_ascii_uppercase()), Some(value.as_str()));
        }
        prop_assert_eq!(got, msg);
        prop_assert_eq!(dec.buffered(), 0);
    }
}
