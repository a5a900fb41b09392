//! Frame schedules: the sequence of video frames an encoding produces.
//!
//! RealVideo encoders varied the frame rate with scene content — "keeping
//! the frame rate up in high-action scenes, and reducing it in low-action
//! scenes" (paper, Section V) — so an encoded clip intentionally has a mix
//! of frame rates. The generator models scenes with exponentially
//! distributed lengths and per-scene action levels, then emits frames whose
//! sizes track the video bitrate budget with keyframes every
//! `keyframe_interval` frames.
//!
//! There is one generator, `LazySchedule::step`, and two ways to hold
//! what it produced: a [`LazySchedule`] — the frames generated so far plus
//! the state to resume from, answering only questions it can extend itself
//! to answer — and a [`FrameSchedule`], the whole clip's table, which is a
//! lazy schedule stepped to the end.

use rv_sim::{SimDuration, SimRng};

use crate::clip::{ContentKind, Encoding};

/// One encoded video frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    /// Position in the schedule (decode order == presentation order).
    pub index: u32,
    /// Presentation time relative to clip start.
    pub pts: SimDuration,
    /// Encoded size in bytes.
    pub size: u32,
    /// `true` for keyframes (independently decodable).
    pub key: bool,
}

/// A frame schedule generated on demand: a prefix of the clip's frame
/// table and the generator that resumes after it.
///
/// The prefix is the spec: whatever has been generated equals the same
/// leading frames of [`FrameSchedule::generate`]'s table, and every answer
/// equals the one that table gives — a question about frames not generated
/// yet extends the prefix first, never answers from it as if it were the
/// clip. A streaming session that watches a minute of a ten-minute clip
/// so pays for the frames it streams, not the clip it names.
#[derive(Debug, Clone)]
pub struct LazySchedule {
    /// The generated prefix, in presentation order.
    frames: Vec<Frame>,
    rng: SimRng,
    /// Presentation time of the next frame to generate.
    t: SimDuration,
    /// The current scene: where it ends, its frame spacing and its mean
    /// frame size.
    scene_end: SimDuration,
    interval: SimDuration,
    frame_bytes: f64,
    duration: SimDuration,
    // What the generator reads of the encoding and the content.
    encoded_fps: f64,
    base_interval: SimDuration,
    mean_bytes: f64,
    keyframe_interval: u32,
    mean_action: f64,
}

impl LazySchedule {
    /// Starts the schedule for `encoding` over `duration` of `content`
    /// with nothing generated yet. Deterministic in `seed`; the same clip
    /// always encodes identically.
    ///
    /// `storage` is where the prefix will live — capacity, not state: it
    /// is cleared here, and [`LazySchedule::into_storage`] hands it back
    /// for the next schedule to start on.
    pub fn start(
        encoding: &Encoding,
        content: ContentKind,
        duration: SimDuration,
        seed: u64,
        mut storage: Vec<Frame>,
    ) -> LazySchedule {
        storage.clear();
        LazySchedule {
            frames: storage,
            rng: SimRng::seed_from_u64(seed),
            t: SimDuration::ZERO,
            scene_end: SimDuration::ZERO,
            interval: SimDuration::ZERO,
            frame_bytes: 0.0,
            duration,
            encoded_fps: encoding.frame_rate,
            base_interval: SimDuration::from_secs_f64(1.0 / encoding.frame_rate),
            mean_bytes: f64::from(encoding.mean_frame_bytes()),
            keyframe_interval: encoding.keyframe_interval,
            mean_action: content.mean_action(),
        }
    }

    /// The generator: appends the clip's next frame to the prefix, or
    /// returns `false` at the clip's end.
    fn step(&mut self) -> bool {
        if self.t >= self.duration {
            return false;
        }
        if self.t >= self.scene_end {
            // A scene: exponential length (mean 8 s), its own action level.
            let scene_len = self
                .rng
                .exp_duration(SimDuration::from_secs(8))
                .clamp(SimDuration::from_secs(2), SimDuration::from_secs(30));
            self.scene_end = (self.t + scene_len).min(self.duration);
            let action = (self.mean_action + self.rng.normal(0.0, 0.12)).clamp(0.3, 1.0);
            // Low action → encoder emits fewer frames; budget per frame grows
            // so the bitrate stays near target.
            self.interval = self.base_interval.mul_f64(1.0 / action);
            self.frame_bytes = self.mean_bytes / action;
        }
        let index = self.frames.len() as u32;
        let key = index.is_multiple_of(self.keyframe_interval);
        // Keyframes cost ~3x a delta frame; delta frames vary ±30 %.
        let size = if key {
            self.frame_bytes * 3.0
        } else {
            self.frame_bytes * self.rng.range(0.7..1.3)
        };
        self.frames.push(Frame {
            index,
            pts: self.t,
            size: size.max(16.0) as u32,
            key,
        });
        self.t += self.interval;
        true
    }

    /// Frame `i` of the clip, or `None` when the clip has no such frame.
    /// Extends the prefix as far as index `i`, no further.
    pub fn frame(&mut self, i: usize) -> Option<Frame> {
        while self.frames.len() <= i && self.step() {}
        self.frames.get(i).copied()
    }

    /// Index of the clip's first frame with `pts >= t`, or the clip's
    /// frame count when there is none. Extends the prefix to that frame
    /// (or to the clip's end), no further.
    pub fn first_frame_at(&mut self, t: SimDuration) -> usize {
        while self.frames.last().is_none_or(|f| f.pts < t) && self.step() {}
        self.frames.partition_point(|f| f.pts < t)
    }

    /// How many frames have been generated so far — a fact about this
    /// schedule's work, not about the clip.
    pub fn generated(&self) -> usize {
        self.frames.len()
    }

    /// Steps to the clip's end: the whole table.
    pub fn finish(mut self) -> FrameSchedule {
        // One allocation, not a doubling chain: frames are never closer
        // than the base interval (`action <= 1` only stretches it).
        let left = self.duration.saturating_sub(self.t);
        let at_most = left.as_micros() / self.base_interval.as_micros().max(1) + 1;
        self.frames.reserve(at_most as usize);
        while self.step() {}
        FrameSchedule {
            frames: self.frames,
            duration: self.duration,
            encoded_fps: self.encoded_fps,
        }
    }

    /// Retires the schedule, keeping the prefix's storage, emptied, for
    /// the next [`LazySchedule::start`].
    pub fn into_storage(mut self) -> Vec<Frame> {
        self.frames.clear();
        self.frames
    }
}

/// The full frame sequence of one encoding of one clip.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameSchedule {
    frames: Vec<Frame>,
    duration: SimDuration,
    encoded_fps: f64,
}

impl FrameSchedule {
    /// Generates the schedule for `encoding` over `duration` of `content`:
    /// a [`LazySchedule`] stepped to the end.
    ///
    /// Deterministic in `seed`; the same clip always encodes identically.
    pub fn generate(
        encoding: &Encoding,
        content: ContentKind,
        duration: SimDuration,
        seed: u64,
    ) -> FrameSchedule {
        LazySchedule::start(encoding, content, duration, seed, Vec::new()).finish()
    }

    /// All frames in presentation order.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when the schedule has no frames (zero-length clip).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The clip duration this schedule covers.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// The nominal encoded frame rate.
    pub fn encoded_fps(&self) -> f64 {
        self.encoded_fps
    }

    /// The realized average frame rate of the schedule (≤ encoded, because
    /// low-action scenes reduce it).
    pub fn actual_fps(&self) -> f64 {
        if self.duration.is_zero() {
            0.0
        } else {
            self.frames.len() as f64 / self.duration.as_secs_f64()
        }
    }

    /// Index of the first frame with `pts >= t`, or `len()` past the end.
    pub fn first_frame_at(&self, t: SimDuration) -> usize {
        self.frames.partition_point(|f| f.pts < t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clip::standard_rung;

    fn schedule(total_bps: u32, content: ContentKind, secs: u64) -> FrameSchedule {
        FrameSchedule::generate(
            &standard_rung(total_bps),
            content,
            SimDuration::from_secs(secs),
            42,
        )
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = schedule(80_000, ContentKind::News, 60);
        let b = schedule(80_000, ContentKind::News, 60);
        assert_eq!(a, b);
    }

    /// FNV-1a over every field of every frame.
    fn table_digest(s: &FrameSchedule) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for f in s.frames() {
            for word in [
                u64::from(f.index),
                f.pts.as_micros(),
                u64::from(f.size),
                u64::from(f.key),
            ] {
                h = (h ^ word).wrapping_mul(0x1_0000_01b3);
            }
        }
        h
    }

    /// The generator draws what it drew when it was two nested loops, in
    /// that order (scene header when `t` reaches `scene_end`, then one
    /// `range` per non-key frame): these digests were taken from that
    /// code, and every recorded campaign dump rests on the same tables.
    #[test]
    fn tables_are_the_ones_the_nested_loops_generated() {
        let news = schedule(80_000, ContentKind::News, 60);
        let sports = schedule(450_000, ContentKind::Sports, 600);
        let talk = schedule(20_000, ContentKind::Talk, 7);
        assert_eq!(
            (news.len(), table_digest(&news)),
            (753, 0xb6a0_5620_d62d_aa8f)
        );
        assert_eq!(
            (sports.len(), table_digest(&sports)),
            (16_536, 0xaffc_ec87_1ecd_4729)
        );
        assert_eq!(
            (talk.len(), table_digest(&talk)),
            (35, 0xc971_45eb_1a6f_97c7)
        );
    }

    #[test]
    fn pts_is_strictly_increasing() {
        let s = schedule(150_000, ContentKind::Sports, 60);
        assert!(s.frames().windows(2).all(|w| w[1].pts > w[0].pts));
        assert_eq!(s.frames()[0].pts, SimDuration::ZERO);
    }

    #[test]
    fn actual_fps_below_encoded_but_reasonable() {
        let s = schedule(80_000, ContentKind::News, 120);
        let encoded = s.encoded_fps();
        let actual = s.actual_fps();
        assert!(
            actual <= encoded + 0.01,
            "actual {actual} encoded {encoded}"
        );
        assert!(actual > encoded * 0.35, "actual {actual} too low");
    }

    /// What lets `generate` reserve once: frames are never closer than
    /// the base interval, whatever the scenes' action levels.
    #[test]
    fn frame_count_stays_inside_the_up_front_reserve() {
        for kind in [ContentKind::Sports, ContentKind::Talk, ContentKind::News] {
            for bps in [20_000, 80_000, 450_000] {
                let s = schedule(bps, kind, 300);
                let base = SimDuration::from_secs_f64(1.0 / s.encoded_fps());
                let reserve = s.duration().as_micros() / base.as_micros() + 1;
                assert!(s.len() as u64 <= reserve, "{} > {reserve}", s.len());
                assert!(s.frames.capacity() as u64 >= reserve);
            }
        }
    }

    #[test]
    fn lazy_schedule_generates_only_as_far_as_the_answer_needs() {
        let secs = SimDuration::from_secs;
        let whole = schedule(80_000, ContentKind::News, 600);
        let mut lazy = LazySchedule::start(
            &standard_rung(80_000),
            ContentKind::News,
            secs(600),
            42,
            Vec::new(),
        );
        assert_eq!(lazy.generated(), 0);
        assert_eq!(lazy.frame(9), Some(whole.frames()[9]));
        assert_eq!(lazy.generated(), 10);
        let at_16s = lazy.first_frame_at(secs(16));
        assert_eq!(at_16s, whole.first_frame_at(secs(16)));
        assert_eq!(lazy.generated(), at_16s + 1);
        // Questions about the prefix generate nothing.
        assert_eq!(lazy.frame(3), Some(whole.frames()[3]));
        assert_eq!(lazy.first_frame_at(secs(1)), whole.first_frame_at(secs(1)));
        assert_eq!(lazy.generated(), at_16s + 1);
        // Past the end the answer is the clip's, not the prefix's.
        assert_eq!(lazy.frame(whole.len()), None);
        assert_eq!(lazy.generated(), whole.len());
        assert_eq!(lazy.first_frame_at(secs(601)), whole.len());
    }

    #[test]
    fn sports_has_more_frames_than_talk() {
        let sports = schedule(80_000, ContentKind::Sports, 120);
        let talk = schedule(80_000, ContentKind::Talk, 120);
        assert!(sports.len() > talk.len());
    }

    #[test]
    fn bitrate_tracks_video_budget() {
        let enc = standard_rung(150_000);
        let s = FrameSchedule::generate(&enc, ContentKind::News, SimDuration::from_secs(120), 7);
        let bytes: u64 = s.frames().iter().map(|f| u64::from(f.size)).sum();
        let bps = bytes as f64 * 8.0 / 120.0;
        let target = f64::from(enc.video_bps());
        // Keyframe overhead pushes realized above target somewhat.
        assert!(
            bps > target * 0.8 && bps < target * 1.6,
            "bps {bps} target {target}"
        );
    }

    #[test]
    fn keyframes_appear_at_interval() {
        let s = schedule(80_000, ContentKind::Music, 60);
        let keys: Vec<u32> = s
            .frames()
            .iter()
            .filter(|f| f.key)
            .map(|f| f.index)
            .collect();
        assert!(!keys.is_empty());
        assert_eq!(keys[0], 0);
        for k in &keys {
            assert_eq!(k % 60, 0);
        }
        // Keyframes are bigger than their neighbors on average.
        let key_mean: f64 = s
            .frames()
            .iter()
            .filter(|f| f.key)
            .map(|f| f.size as f64)
            .sum::<f64>()
            / keys.len() as f64;
        let delta_mean: f64 = s
            .frames()
            .iter()
            .filter(|f| !f.key)
            .map(|f| f.size as f64)
            .sum::<f64>()
            / (s.len() - keys.len()) as f64;
        assert!(key_mean > delta_mean * 2.0);
    }

    #[test]
    fn zero_duration_is_empty() {
        let s = schedule(80_000, ContentKind::News, 0);
        assert!(s.is_empty());
        assert_eq!(s.actual_fps(), 0.0);
    }

    #[test]
    fn first_frame_at_partitions() {
        let s = schedule(80_000, ContentKind::News, 60);
        assert_eq!(s.first_frame_at(SimDuration::ZERO), 0);
        let i = s.first_frame_at(SimDuration::from_secs(30));
        assert!(i > 0 && i < s.len());
        assert!(s.frames()[i].pts >= SimDuration::from_secs(30));
        assert!(s.frames()[i - 1].pts < SimDuration::from_secs(30));
        assert_eq!(s.first_frame_at(SimDuration::from_secs(600)), s.len());
    }
}
