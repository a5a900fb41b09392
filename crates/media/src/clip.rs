//! Clips, encodings, and SureStream ladders.
//!
//! Content producers encoded each RealVideo clip at several target
//! bandwidths ("SureStream"); the server picks a stream per client and can
//! switch mid-playout. A fixed share of each encoding feeds the audio
//! codec, the remainder the video track — the paper's Section II.C
//! describes exactly this budget split.

use rv_sim::SimDuration;

/// Content category; drives the action profile of the frame schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentKind {
    /// Anchors and interviews: low action, steady frame sizes.
    News,
    /// High motion, frequent scene changes.
    Sports,
    /// Music television: bursty action.
    Music,
    /// Talking heads: lowest action.
    Talk,
}

impl ContentKind {
    /// All kinds, for catalog construction.
    pub const ALL: [ContentKind; 4] = [
        ContentKind::News,
        ContentKind::Sports,
        ContentKind::Music,
        ContentKind::Talk,
    ];

    /// Mean action level in `[0, 1]`: scales scene frame rates.
    pub fn mean_action(self) -> f64 {
        match self {
            ContentKind::News => 0.72,
            ContentKind::Sports => 0.92,
            ContentKind::Music => 0.82,
            ContentKind::Talk => 0.58,
        }
    }

    fn tag(self) -> &'static str {
        match self {
            ContentKind::News => "news",
            ContentKind::Sports => "sports",
            ContentKind::Music => "music",
            ContentKind::Talk => "talk",
        }
    }

    fn from_tag(s: &str) -> Option<ContentKind> {
        Some(match s {
            "news" => ContentKind::News,
            "sports" => ContentKind::Sports,
            "music" => ContentKind::Music,
            "talk" => ContentKind::Talk,
            _ => return None,
        })
    }
}

/// One encoding of a clip: a rung of the SureStream ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Encoding {
    /// Total target bandwidth, audio + video, bits/second.
    pub total_bps: u32,
    /// Audio codec share, bits/second.
    pub audio_bps: u32,
    /// Encoded (maximum) video frame rate, frames/second.
    pub frame_rate: f64,
    /// Frame dimensions, informational.
    pub width: u16,
    /// Frame height.
    pub height: u16,
    /// Keyframe every this many frames.
    pub keyframe_interval: u32,
}

impl Encoding {
    /// Bits/second left for video after the audio codec takes its share.
    pub fn video_bps(&self) -> u32 {
        self.total_bps.saturating_sub(self.audio_bps)
    }

    /// Average video bytes per frame at the encoded rate.
    pub fn mean_frame_bytes(&self) -> u32 {
        (f64::from(self.video_bps()) / self.frame_rate / 8.0).max(1.0) as u32
    }
}

/// The standard 2001-era encoding rungs, from 28.8-modem to broadband.
/// Bandwidths and frame rates follow the RealProducer guidance the paper
/// cites (e.g. a 20 Kbps clip with a 5 Kbps voice codec leaves 15 Kbps of
/// video).
pub fn standard_rung(total_bps: u32) -> Encoding {
    // Audio share and fps grow with the bandwidth tier.
    let (audio_bps, frame_rate, w, h) = match total_bps {
        0..=22_000 => (5_000, 7.5, 176, 132),
        22_001..=37_000 => (8_500, 10.0, 176, 132),
        37_001..=90_000 => (11_000, 15.0, 240, 180),
        90_001..=180_000 => (16_000, 15.0, 320, 240),
        180_001..=320_000 => (20_000, 24.0, 320, 240),
        _ => (32_000, 30.0, 480, 360),
    };
    Encoding {
        total_bps,
        audio_bps,
        frame_rate,
        width: w,
        height: h,
        keyframe_interval: 60,
    }
}

/// A multi-rate SureStream ladder, rungs sorted by ascending bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct SureStream {
    rungs: Vec<Encoding>,
}

impl SureStream {
    /// Builds a ladder; rungs are sorted by total bandwidth.
    ///
    /// Panics on an empty rung list.
    pub fn new(mut rungs: Vec<Encoding>) -> Self {
        assert!(!rungs.is_empty(), "SureStream needs at least one rung");
        rungs.sort_by_key(|r| r.total_bps);
        SureStream { rungs }
    }

    /// The classic six-rung production ladder, 28.8-modem through broadband.
    pub fn standard() -> Self {
        SureStream::new(
            [20_000, 34_000, 80_000, 150_000, 300_000, 450_000]
                .into_iter()
                .map(standard_rung)
                .collect(),
        )
    }

    /// A single-rate "ladder" (no SureStream) for ablation experiments and
    /// for the many 2001 sites that encoded only one stream.
    pub fn single(total_bps: u32) -> Self {
        SureStream::new(vec![standard_rung(total_bps)])
    }

    /// A broadband-only ladder: sites that never encoded modem rungs.
    pub fn broadband_only() -> Self {
        SureStream::new(
            [80_000, 150_000, 300_000, 450_000]
                .into_iter()
                .map(standard_rung)
                .collect(),
        )
    }

    /// The rungs, ascending.
    pub fn rungs(&self) -> &[Encoding] {
        &self.rungs
    }

    /// The top rung, the fastest: the last, which exists because
    /// [`SureStream::new`] refuses an empty ladder.
    pub fn top(&self) -> &Encoding {
        &self.rungs[self.rungs.len() - 1]
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// Always false: construction forbids empty ladders.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of the best rung whose total bandwidth fits within
    /// `available_bps`; the lowest rung if none fit.
    pub fn select(&self, available_bps: f64) -> usize {
        let mut best = 0;
        for (i, rung) in self.rungs.iter().enumerate() {
            if f64::from(rung.total_bps) <= available_bps {
                best = i;
            }
        }
        best
    }
}

/// A clip in a server's catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct Clip {
    /// Clip name (the path component of its rtsp:// URL).
    pub name: String,
    /// Full duration of the recorded content.
    pub duration: SimDuration,
    /// What the clip shows.
    pub content: ContentKind,
    /// Its encodings.
    pub ladder: SureStream,
}

impl Clip {
    /// A standard-ladder clip.
    pub fn new(name: &str, duration: SimDuration, content: ContentKind) -> Self {
        Clip::with_ladder(name, duration, content, SureStream::standard())
    }

    /// A clip with an explicit encoding ladder.
    pub fn with_ladder(
        name: &str,
        duration: SimDuration,
        content: ContentKind,
        ladder: SureStream,
    ) -> Self {
        Clip {
            name: name.to_string(),
            duration,
            content,
            ladder,
        }
    }

    /// Serializes the presentation description (the DESCRIBE body): an
    /// SDP-inspired line protocol listing content kind, duration, and the
    /// ladder.
    pub fn describe(&self) -> Vec<u8> {
        let mut body = Vec::new();
        self.describe_into(&mut body);
        body
    }

    /// [`Clip::describe`] written onto the end of `out`, each value
    /// rendered in place: into a warm buffer, no allocation.
    pub fn describe_into(&self, out: &mut Vec<u8>) {
        use std::io::Write;
        // Infallible because `Vec<u8>`'s `io::Write` never fails and every
        // value rendered is a number or a static tag.
        let _ = write!(
            out,
            "c={}\nd={}\n",
            self.content.tag(),
            self.duration.as_millis()
        );
        for r in &self.ladder.rungs {
            let _ = writeln!(
                out,
                "s=total:{};audio:{};fps:{};dim:{}x{};ki:{}",
                r.total_bps, r.audio_bps, r.frame_rate, r.width, r.height, r.keyframe_interval
            );
        }
    }

    /// Parses a presentation description produced by [`Clip::describe`].
    /// Returns `None` on any malformed line.
    pub fn parse_description(name: &str, body: &[u8]) -> Option<Clip> {
        let mut rungs = Vec::new();
        let (duration, content) = Clip::parse_description_into(body, &mut rungs)?;
        Some(Clip {
            name: name.to_string(),
            duration,
            content,
            ladder: SureStream::new(rungs),
        })
    }

    /// [`Clip::parse_description`] into storage the caller keeps: the
    /// ladder replaces `rungs`' contents, sorted as [`SureStream::new`]
    /// sorts it, and the duration and content kind are returned. On a
    /// malformed description (or one with no rung) `rungs` is left
    /// empty and the answer is `None`. A client that parses into the
    /// same vector every session allocates only for a longer ladder.
    pub fn parse_description_into(
        body: &[u8],
        rungs: &mut Vec<Encoding>,
    ) -> Option<(SimDuration, ContentKind)> {
        rungs.clear();
        let parsed = parse_lines(body, rungs);
        if parsed.is_none() {
            rungs.clear();
        }
        parsed
    }
}

fn parse_lines(body: &[u8], rungs: &mut Vec<Encoding>) -> Option<(SimDuration, ContentKind)> {
    let text = std::str::from_utf8(body).ok()?;
    let mut content = None;
    let mut duration = None;
    // Sized once: a fresh ladder is one allocation, not one per doubling.
    rungs.reserve(text.lines().filter(|l| l.starts_with("s=")).count());
    for line in text.lines() {
        if let Some(tag) = line.strip_prefix("c=") {
            content = Some(ContentKind::from_tag(tag)?);
        } else if let Some(ms) = line.strip_prefix("d=") {
            duration = Some(SimDuration::from_millis(ms.parse().ok()?));
        } else if let Some(spec) = line.strip_prefix("s=") {
            rungs.push(parse_rung(spec)?);
        } else if !line.is_empty() {
            return None;
        }
    }
    if rungs.is_empty() {
        return None;
    }
    // `SureStream::new`'s order; a short slice sorts without allocating.
    rungs.sort_by_key(|r| r.total_bps);
    Some((duration?, content?))
}

fn parse_rung(spec: &str) -> Option<Encoding> {
    let mut total = None;
    let mut audio = None;
    let mut fps = None;
    let mut dim = None;
    let mut ki = None;
    for field in spec.split(';') {
        let (k, v) = field.split_once(':')?;
        match k {
            "total" => total = Some(v.parse().ok()?),
            "audio" => audio = Some(v.parse().ok()?),
            "fps" => fps = Some(v.parse().ok()?),
            "dim" => {
                let (w, h) = v.split_once('x')?;
                dim = Some((w.parse().ok()?, h.parse().ok()?));
            }
            "ki" => ki = Some(v.parse().ok()?),
            _ => return None,
        }
    }
    let (width, height) = dim?;
    Some(Encoding {
        total_bps: total?,
        audio_bps: audio?,
        frame_rate: fps?,
        width,
        height,
        keyframe_interval: ki?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audio_share_leaves_video_budget() {
        let e = standard_rung(20_000);
        assert_eq!(e.audio_bps, 5_000);
        assert_eq!(e.video_bps(), 15_000);
        // 15 kbps at 7.5 fps = 250 bytes/frame.
        assert_eq!(e.mean_frame_bytes(), 250);
    }

    #[test]
    fn ladder_sorts_and_selects() {
        let ladder = SureStream::new(vec![
            standard_rung(300_000),
            standard_rung(20_000),
            standard_rung(80_000),
        ]);
        let rates: Vec<u32> = ladder.rungs().iter().map(|r| r.total_bps).collect();
        assert_eq!(rates, vec![20_000, 80_000, 300_000]);
        assert_eq!(ladder.select(500_000.0), 2);
        assert_eq!(ladder.select(100_000.0), 1);
        assert_eq!(ladder.select(25_000.0), 0);
        // Below the lowest rung: still the lowest rung.
        assert_eq!(ladder.select(1_000.0), 0);
    }

    #[test]
    fn standard_ladder_has_six_rungs() {
        let l = SureStream::standard();
        assert_eq!(l.len(), 6);
        assert!(l
            .rungs()
            .windows(2)
            .all(|w| w[0].total_bps < w[1].total_bps));
    }

    #[test]
    #[should_panic(expected = "at least one rung")]
    fn empty_ladder_panics() {
        SureStream::new(vec![]);
    }

    #[test]
    fn description_round_trips() {
        let clip = Clip::new("news1.rm", SimDuration::from_secs(300), ContentKind::News);
        let body = clip.describe();
        let parsed = Clip::parse_description("news1.rm", &body).unwrap();
        assert_eq!(parsed, clip);
    }

    #[test]
    fn parse_into_reuses_the_ladder_and_empties_it_on_garbage() {
        let clip = Clip::with_ladder(
            "c.rm",
            SimDuration::from_secs(60),
            ContentKind::Sports,
            SureStream::broadband_only(),
        );
        let mut rungs = SureStream::standard().rungs().to_vec();
        let (duration, content) = Clip::parse_description_into(&clip.describe(), &mut rungs)
            .expect("a description parses");
        assert_eq!((duration, content), (clip.duration, clip.content));
        assert_eq!(rungs, clip.ladder.rungs());
        assert!(Clip::parse_description_into(
            b"c=news\ns=total:1;audio:1;fps:1;dim:1x1;ki:1\nbad\n",
            &mut rungs
        )
        .is_none());
        assert!(rungs.is_empty());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Clip::parse_description("x", b"garbage line\n").is_none());
        assert!(Clip::parse_description("x", b"c=news\nd=notanumber\n").is_none());
        assert!(Clip::parse_description("x", b"c=news\nd=1000\n").is_none()); // no rungs
        assert!(Clip::parse_description(
            "x",
            b"c=noexist\nd=1000\ns=total:1;audio:1;fps:1;dim:1x1;ki:1\n"
        )
        .is_none());
    }

    #[test]
    fn higher_tiers_get_higher_fps() {
        assert!(standard_rung(300_000).frame_rate > standard_rung(20_000).frame_rate);
        assert!(standard_rung(500_000).frame_rate >= 30.0);
    }

    #[test]
    fn content_kinds_have_ordered_action() {
        assert!(ContentKind::Sports.mean_action() > ContentKind::News.mean_action());
        assert!(ContentKind::News.mean_action() > ContentKind::Talk.mean_action());
    }
}
