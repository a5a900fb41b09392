//! Property-based tests: the media codec round-trips under any field
//! values, packetization conserves bytes, frame schedules keep their
//! invariants for every encoding/content/duration combination, and a
//! schedule generated on demand answers as the whole table does.

use proptest::prelude::*;
use rv_media::{
    packetize_frame, standard_rung, Clip, ContentKind, Frame, FrameSchedule, LazySchedule,
    MediaPacket, PacketKind, StreamDepacketizer, SureStream, MAX_PAYLOAD,
};
use rv_sim::SimDuration;

fn arb_kind() -> impl Strategy<Value = PacketKind> {
    prop_oneof![
        Just(PacketKind::Video),
        Just(PacketKind::Audio),
        Just(PacketKind::Parity),
        Just(PacketKind::EndOfStream),
    ]
}

fn arb_content() -> impl Strategy<Value = ContentKind> {
    prop_oneof![
        Just(ContentKind::News),
        Just(ContentKind::Sports),
        Just(ContentKind::Music),
        Just(ContentKind::Talk),
    ]
}

/// The body of `schedule_invariants`, shared with its pinned case.
fn check_schedule_invariants(
    total_bps: u32,
    content: ContentKind,
    secs: u64,
    seed: u64,
) -> Result<(), String> {
    let enc = standard_rung(total_bps);
    let s = FrameSchedule::generate(&enc, content, SimDuration::from_secs(secs), seed);
    prop_assert!(!s.is_empty());
    for w in s.frames().windows(2) {
        prop_assert!(w[1].pts > w[0].pts);
    }
    prop_assert!(s.frames().iter().all(|f| f.size > 0));
    // Fencepost: a clip of duration D can hold floor(D/interval)+1
    // frames, so the realized rate may exceed the encoded rate by up
    // to one frame per clip.
    prop_assert!(s.actual_fps() <= s.encoded_fps() + 1.0 / secs as f64 + 0.01);
    // First frame is a keyframe (decoder bootstrap).
    prop_assert!(s.frames()[0].key);
    Ok(())
}

/// The one failure `schedule_invariants` ever recorded, before its bound
/// allowed for the fencepost: a one-second clip holds one frame more than
/// its encoded rate says. (It was a line in a `.proptest-regressions` file
/// that the in-tree proptest shim never reads.)
#[test]
fn schedule_invariants_hold_at_the_one_second_fencepost() {
    let seed = 9_498_202_279_035_939_763;
    check_schedule_invariants(320_001, ContentKind::Sports, 1, seed).unwrap();
}

proptest! {
    /// Every representable packet survives an encode/decode round trip.
    #[test]
    fn media_packet_roundtrip(
        kind in arb_kind(),
        key in any::<bool>(),
        rung in any::<u8>(),
        frame_index in any::<u32>(),
        frag_index in any::<u16>(),
        frag_count in any::<u16>(),
        pts_micros in any::<u64>(),
        group_id in any::<u32>(),
        seq in any::<u32>(),
        payload_len in 0u16..2000,
    ) {
        let pkt = MediaPacket {
            kind, key, rung, frame_index, frag_index, frag_count,
            pts_micros, group_id, seq, payload_len,
        };
        let bytes = pkt.encode();
        prop_assert_eq!(bytes.len(), pkt.wire_len());
        let (decoded, used) = MediaPacket::decode(&bytes).expect("decodes");
        prop_assert_eq!(decoded, pkt);
        prop_assert_eq!(used, bytes.len());
    }

    /// Packetization conserves the frame's bytes and fragment numbering.
    #[test]
    fn packetize_conserves_bytes(size in 1u32..40_000, index in any::<u32>(), key in any::<bool>()) {
        let frame = Frame {
            index,
            pts: SimDuration::from_millis(10),
            size,
            key,
        };
        let pkts = packetize_frame(&frame, 2, 9);
        let total: u32 = pkts.iter().map(|p| u32::from(p.payload_len)).sum();
        prop_assert_eq!(total, size);
        let n = pkts.len() as u16;
        for (i, p) in pkts.iter().enumerate() {
            prop_assert_eq!(p.frag_index, i as u16);
            prop_assert_eq!(p.frag_count, n);
            prop_assert!(usize::from(p.payload_len) <= MAX_PAYLOAD);
            prop_assert_eq!(p.key, key);
        }
    }

    /// A stream of encoded packets fed through the depacketizer in chunks of
    /// any size reproduces the original sequence.
    #[test]
    fn depacketizer_reassembles_any_chunking(
        sizes in prop::collection::vec(1u32..5_000, 1..8),
        chunk in 1usize..97,
    ) {
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            let frame = Frame {
                index: i as u32,
                pts: SimDuration::from_millis(i as u64 * 100),
                size: *size,
                key: i == 0,
            };
            for p in packetize_frame(&frame, 0, i as u32) {
                wire.extend(p.encode());
                expected.push(p);
            }
        }
        let mut d = StreamDepacketizer::new();
        let mut got = Vec::new();
        for c in wire.chunks(chunk) {
            d.feed(c);
            while let Some(p) = d.next_packet() {
                got.push(p);
            }
        }
        prop_assert_eq!(got, expected);
        prop_assert_eq!(d.buffered(), 0);
    }

    /// Frame schedules: strictly increasing pts, nonzero sizes, realized
    /// rate never exceeding the encoded rate, for any content/duration.
    #[test]
    fn schedule_invariants(
        total_bps in 15_000u32..500_000,
        content in arb_content(),
        secs in 1u64..180,
        seed in any::<u64>(),
    ) {
        check_schedule_invariants(total_bps, content, secs, seed)?;
    }

    /// The executable spec of [`LazySchedule`]: under any interleaving of
    /// its two questions — indices and times past the clip's end and
    /// times that *are* a frame's `pts` (what a rung switch asks)
    /// included — every answer is the whole table's, the prefix grows
    /// exactly as far as the answer needs (to index `i`; to the first
    /// `pts >= t`; never past the clip's end), and stepping what is left
    /// to the end gives the whole table frame for frame.
    #[test]
    fn lazy_schedule_answers_as_the_whole_table(
        total_bps in 15_000u32..500_000,
        content in arb_content(),
        millis in 0u64..900_000,
        seed in any::<u64>(),
        questions in prop::collection::vec((0u8..3, any::<u32>()), 0..24),
    ) {
        let enc = standard_rung(total_bps);
        let duration = SimDuration::from_millis(millis);
        let whole = FrameSchedule::generate(&enc, content, duration, seed);
        let mut lazy = LazySchedule::start(&enc, content, duration, seed, Vec::new());
        let mut needed = 0;
        for (kind, q) in questions {
            let at = match (kind, whole.frames().get(q as usize % whole.len().max(1))) {
                (0, _) => None,
                (1, Some(frame)) => Some(frame.pts),
                // Any time up to a tenth past the clip's end.
                _ => Some(SimDuration::from_micros(u64::from(q) % (millis * 1_100 + 2))),
            };
            let reached = if let Some(t) = at {
                let i = lazy.first_frame_at(t);
                prop_assert_eq!(i, whole.first_frame_at(t));
                i
            } else {
                // Any index up to a tenth past the clip's end.
                let i = q as usize % (whole.len() + whole.len() / 10 + 2);
                prop_assert_eq!(lazy.frame(i), whole.frames().get(i).copied());
                i
            };
            needed = needed.max(reached + 1);
            prop_assert_eq!(lazy.generated(), needed.min(whole.len()));
        }
        prop_assert_eq!(lazy.finish(), whole);
    }

    /// The DESCRIBE body round-trips for any ladder subset.
    #[test]
    fn describe_roundtrip(
        rates in prop::collection::btree_set(15_000u32..500_000, 1..6),
        content in arb_content(),
        secs in 1u64..600,
    ) {
        let ladder = SureStream::new(rates.iter().map(|r| standard_rung(*r)).collect());
        let clip = Clip::with_ladder("c.rm", SimDuration::from_secs(secs), content, ladder);
        let body = clip.describe();
        let parsed = Clip::parse_description("c.rm", &body).expect("parses");
        prop_assert_eq!(parsed, clip);
    }

    /// Ladder selection picks the best fitting rung for any bandwidth.
    #[test]
    fn ladder_select_is_best_fit(
        rates in prop::collection::btree_set(15_000u32..500_000, 1..6),
        available in 0.0f64..600_000.0,
    ) {
        let ladder = SureStream::new(rates.iter().map(|r| standard_rung(*r)).collect());
        let idx = ladder.select(available);
        let chosen = f64::from(ladder.rungs()[idx].total_bps);
        if chosen > available {
            // Nothing fits: must be the lowest rung.
            prop_assert_eq!(idx, 0);
        } else {
            // Best fit: no higher rung also fits.
            for r in &ladder.rungs()[idx + 1..] {
                prop_assert!(f64::from(r.total_bps) > available);
            }
        }
    }
}
