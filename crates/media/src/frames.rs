//! Frame schedules: the sequence of video frames an encoding produces.
//!
//! RealVideo encoders varied the frame rate with scene content — "keeping
//! the frame rate up in high-action scenes, and reducing it in low-action
//! scenes" (paper, Section V) — so an encoded clip intentionally has a mix
//! of frame rates. The generator models scenes with exponentially
//! distributed lengths and per-scene action levels, then emits frames whose
//! sizes track the video bitrate budget with keyframes every
//! `keyframe_interval` frames.

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

/// The full frame sequence of one encoding of one clip.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameSchedule {
    frames: Vec<Frame>,
    duration: SimDuration,
    encoded_fps: f64,
}

impl FrameSchedule {
    /// Generates the schedule for `encoding` over `duration` of `content`.
    ///
    /// Deterministic in `seed`; the same clip always encodes identically.
    pub fn generate(
        encoding: &Encoding,
        content: ContentKind,
        duration: SimDuration,
        seed: u64,
    ) -> FrameSchedule {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut t = SimDuration::ZERO;
        let mut index = 0u32;
        let base_interval = SimDuration::from_secs_f64(1.0 / encoding.frame_rate);
        // One allocation, not a doubling chain: frames are never closer
        // than the base interval (`action <= 1` only stretches it).
        let at_most = duration.as_micros() / base_interval.as_micros().max(1) + 1;
        let mut frames = Vec::with_capacity(at_most as usize);
        let mean_bytes = f64::from(encoding.mean_frame_bytes());

        while t < duration {
            // A scene: exponential length (mean 8 s), its own action level.
            let scene_len = rng
                .exp_duration(SimDuration::from_secs(8))
                .clamp(SimDuration::from_secs(2), SimDuration::from_secs(30));
            let scene_end = (t + scene_len).min(duration);
            let action = (content.mean_action() + rng.normal(0.0, 0.12)).clamp(0.3, 1.0);
            // Low action → encoder emits fewer frames; budget per frame grows
            // so the bitrate stays near target.
            let interval = base_interval.mul_f64(1.0 / action);
            let frame_bytes = mean_bytes / action;

            while t < scene_end {
                let key = index.is_multiple_of(encoding.keyframe_interval);
                // Keyframes cost ~3x a delta frame; delta frames vary ±30 %.
                let size = if key {
                    frame_bytes * 3.0
                } else {
                    frame_bytes * rng.range(0.7..1.3)
                };
                frames.push(Frame {
                    index,
                    pts: t,
                    size: size.max(16.0) as u32,
                    key,
                });
                index += 1;
                t += interval;
            }
        }

        FrameSchedule {
            frames,
            duration,
            encoded_fps: encoding.frame_rate,
        }
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

    /// Total encoded bytes.
    pub fn total_bytes(&self) -> u64 {
        self.frames.iter().map(|f| u64::from(f.size)).sum()
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
    fn sports_has_more_frames_than_talk() {
        let sports = schedule(80_000, ContentKind::Sports, 120);
        let talk = schedule(80_000, ContentKind::Talk, 120);
        assert!(sports.len() > talk.len());
    }

    #[test]
    fn bitrate_tracks_video_budget() {
        let enc = standard_rung(150_000);
        let s = FrameSchedule::generate(&enc, ContentKind::News, SimDuration::from_secs(120), 7);
        let bps = s.total_bytes() as f64 * 8.0 / 120.0;
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
