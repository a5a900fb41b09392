//! The playout engine: buffering, the playout clock, rebuffer halts, and
//! the CPU decode model.
//!
//! This is where the paper's two headline metrics are produced. A frame's
//! *playout instant* is `max(due time, completion time)` — frames that
//! arrive on time play exactly on their presentation schedule, late frames
//! play late (that is jitter), and frames later than the grace window are
//! dropped. An emptied buffer halts playback for up to 20 seconds while it
//! refills, exactly as RealPlayer did (paper, Section II.B).

use std::collections::VecDeque;

use rv_sim::trace::{self, TraceEvent};
use rv_sim::{SimDuration, SimTime};

use crate::reassembly::CompleteFrame;

/// How late a frame may be and still play.
const LATE_GRACE: SimDuration = SimDuration::from_millis(400);
/// Fixed decode cost per frame at cpu_power = 1.
const DECODE_BASE: SimDuration = SimDuration::from_millis(25);
/// Additional decode cost per KiB of frame data at cpu_power = 1.
const DECODE_PER_KIB: SimDuration = SimDuration::from_millis(2);

/// Playout engine parameters: the buffering thresholds the prebuffer
/// ablation sweeps and the tests shorten. The late-frame grace
/// (`LATE_GRACE` 400 ms) and the decode model's cost per frame
/// (`DECODE_BASE` 25 ms) and per KiB (`DECODE_PER_KIB` 2 ms) are
/// constants in this module.
#[derive(Debug, Clone, Copy)]
pub struct PlayoutConfig {
    /// Media to accumulate before playout starts.
    pub prebuffer: SimDuration,
    /// Give up waiting and start anyway after this long.
    pub prebuffer_timeout: SimDuration,
    /// Maximum rebuffer halt (RealPlayer: up to 20 s).
    pub rebuffer_halt: SimDuration,
    /// Media to accumulate before resuming from a rebuffer.
    pub rebuffer_target: SimDuration,
}

impl Default for PlayoutConfig {
    fn default() -> Self {
        PlayoutConfig {
            prebuffer: SimDuration::from_secs(8),
            prebuffer_timeout: SimDuration::from_secs(20),
            rebuffer_halt: SimDuration::from_secs(20),
            rebuffer_target: SimDuration::from_secs(4),
        }
    }
}

/// Lifecycle of the playout engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayoutState {
    /// Filling the initial buffer.
    Buffering,
    /// Playing frames.
    Playing,
    /// Buffer emptied mid-play; halted while it refills.
    Rebuffering,
    /// Source ended and buffer drained.
    Ended,
}

/// One played or dropped frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlayoutEvent {
    /// Encoder frame index.
    pub frame_index: u32,
    /// Rung the frame came from.
    pub rung: u8,
    /// Presentation timestamp.
    pub pts: SimDuration,
    /// When it actually played (`None` = dropped).
    pub played_at: Option<SimTime>,
    /// Why it dropped, when it did.
    pub drop_reason: Option<DropReason>,
}

/// Why a frame was not played.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Arrived after its deadline plus grace.
    Late,
    /// CPU still busy decoding the previous frame.
    Decode,
}

/// Playout counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlayoutStats {
    /// Frames played.
    pub frames_played: u64,
    /// Frames dropped for lateness.
    pub dropped_late: u64,
    /// Frames dropped because the CPU could not keep up.
    pub dropped_decode: u64,
    /// Rebuffer halts.
    pub rebuffer_events: u64,
    /// Total wall time spent halted.
    pub rebuffer_time: SimDuration,
    /// Wall time the playout clock started, if it did.
    pub playback_started_at: Option<SimTime>,
    /// Accumulated decode busy time (CPU utilization numerator).
    pub decode_busy: SimDuration,
}

#[derive(Debug, Clone, Copy)]
struct Buffered {
    frame: CompleteFrame,
}

/// The playout engine.
#[derive(Debug)]
pub struct Playout {
    cfg: PlayoutConfig,
    /// Relative decode speed: 1.0 = typical new PC, lower = slower.
    cpu_power: f64,
    state: PlayoutState,
    /// Frames awaiting playout, sorted by pts micros. Frames arrive
    /// near-ordered and leave strictly from the front, so a sorted ring
    /// buffer (binary-search insert near the back, `pop_front` drain)
    /// replaces a `BTreeMap` with zero steady-state allocation.
    buffer: VecDeque<(u64, Buffered)>,
    session_start: Option<SimTime>,
    /// Wall instant corresponding to `origin` media time.
    epoch: SimTime,
    origin: SimDuration,
    /// Media pts of the last frame handed to playout (for span math).
    cursor: SimDuration,
    /// When the current halt began; read only while `Rebuffering`, and
    /// set on every entry to it.
    rebuffer_since: SimTime,
    decode_ready_at: SimTime,
    source_ended: bool,
    stats: PlayoutStats,
}

impl Playout {
    /// Creates an engine; `cpu_power` scales decode speed (1.0 = modern
    /// 2001 PC, ~0.1 = an old Pentium MMX with scarce RAM). A `cpu_power`
    /// that is not positive (or NaN) is a PC that never finishes a decode:
    /// the first frame plays, every later one drops for
    /// [`DropReason::Decode`].
    pub fn new(cfg: PlayoutConfig, cpu_power: f64) -> Self {
        Playout {
            cfg,
            cpu_power: if cpu_power > 0.0 { cpu_power } else { 0.0 },
            state: PlayoutState::Buffering,
            buffer: VecDeque::new(),
            session_start: None,
            epoch: SimTime::ZERO,
            origin: SimDuration::ZERO,
            cursor: SimDuration::ZERO,
            rebuffer_since: SimTime::ZERO,
            decode_ready_at: SimTime::ZERO,
            source_ended: false,
            stats: PlayoutStats::default(),
        }
    }

    /// Returns to [`Playout::new`]`(cfg, cpu_power)`'s state, keeping the
    /// frame buffer's storage.
    pub fn renew(&mut self, cfg: PlayoutConfig, cpu_power: f64) {
        let mut buffer = std::mem::take(&mut self.buffer);
        buffer.clear();
        *self = Playout {
            buffer,
            ..Playout::new(cfg, cpu_power)
        };
    }

    /// Bytes of frame-buffer storage held.
    pub(crate) fn retained_bytes(&self) -> usize {
        self.buffer.capacity() * std::mem::size_of::<(u64, Buffered)>()
    }

    /// Current state.
    pub fn state(&self) -> PlayoutState {
        self.state
    }

    /// Counters.
    pub fn stats(&self) -> PlayoutStats {
        self.stats
    }

    /// Media span buffered ahead of the cursor.
    pub fn buffered_span(&self) -> SimDuration {
        match self.buffer.back() {
            Some(&(last, _)) => SimDuration::from_micros(last).saturating_sub(self.cursor),
            None => SimDuration::ZERO,
        }
    }

    /// Tells the engine no more frames will arrive.
    pub fn source_ended(&mut self) {
        self.source_ended = true;
    }

    /// Accepts a completed frame.
    pub fn push_frame(&mut self, now: SimTime, frame: CompleteFrame) {
        if self.session_start.is_none() {
            self.session_start = Some(now);
        }
        // Duplicate pts (e.g. rung-switch overlap): first one wins.
        let pts_us = frame.pts.as_micros();
        let pos = self.buffer.partition_point(|(p, _)| *p < pts_us);
        if self.buffer.get(pos).is_none_or(|(p, _)| *p != pts_us) {
            self.buffer.insert(pos, (pts_us, Buffered { frame }));
        }
    }

    /// Media time currently due, when playing.
    fn media_clock(&self, now: SimTime) -> SimDuration {
        self.origin + now.saturating_since(self.epoch)
    }

    /// Advances the engine, emitting playout events.
    pub fn poll(&mut self, now: SimTime) -> Vec<PlayoutEvent> {
        let mut events = Vec::new();
        self.poll_into(now, &mut events);
        events
    }

    /// The earliest instant at which a poll can change state or emit an
    /// event, absent further [`Playout::push_frame`] /
    /// [`Playout::source_ended`] calls. *Exact*, unlike the conservative
    /// [`Playout::next_wake`]: every poll strictly before it is a no-op,
    /// and a poll at it (when finite) is not. [`SimTime::ZERO`] means
    /// "the next poll acts"; [`SimTime::MAX`] means only a push can wake
    /// the engine.
    pub fn idle_until(&self) -> SimTime {
        // A drained source ends the engine on the next poll from any
        // live state except a `Buffering` that never saw a frame.
        let drained = self.source_ended && self.buffer.is_empty();
        match self.state {
            PlayoutState::Buffering => match self.session_start {
                None => SimTime::MAX,
                Some(_) if self.buffered_span() >= self.cfg.prebuffer || drained => SimTime::ZERO,
                Some(_) if self.buffer.is_empty() => SimTime::MAX,
                Some(start) => start + self.cfg.prebuffer_timeout,
            },
            PlayoutState::Playing => match self.buffer.front() {
                Some(&(pts_us, _)) => {
                    let ahead = SimDuration::from_micros(pts_us).saturating_sub(self.origin);
                    self.epoch + ahead
                }
                None if drained => SimTime::ZERO,
                None => {
                    // Starvation needs `clock > cursor + grace`: strictly
                    // after the edge, hence the extra microsecond.
                    let edge = self.cursor + LATE_GRACE;
                    if edge < self.origin {
                        SimTime::ZERO
                    } else {
                        self.epoch + (edge - self.origin) + SimDuration::from_micros(1)
                    }
                }
            },
            PlayoutState::Rebuffering => {
                if self.buffered_span() >= self.cfg.rebuffer_target || drained {
                    SimTime::ZERO
                } else if self.buffer.is_empty() {
                    SimTime::MAX
                } else {
                    self.rebuffer_since + self.cfg.rebuffer_halt
                }
            }
            PlayoutState::Ended => SimTime::MAX,
        }
    }

    /// [`Playout::poll`] appending events to `out`, so a driver loop can
    /// reuse one buffer for the whole session.
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<PlayoutEvent>) {
        // Executable spec of `idle_until`: debug builds hold every poll
        // before it to having emitted nothing and gone nowhere.
        let idle = cfg!(debug_assertions) && now < self.idle_until();
        let (events, state) = (out.len(), self.state);
        match self.state {
            PlayoutState::Buffering => self.poll_buffering(now),
            PlayoutState::Playing => self.poll_playing(now, out),
            PlayoutState::Rebuffering => self.poll_rebuffering(now),
            PlayoutState::Ended => {}
        }
        debug_assert!(
            !idle || (out.len() == events && self.state == state),
            "playout acted at {now:?}, before its idle_until"
        );
    }

    fn poll_buffering(&mut self, now: SimTime) {
        let Some(start) = self.session_start else {
            return; // nothing arrived yet
        };
        let ready = self.buffered_span() >= self.cfg.prebuffer
            || now.saturating_since(start) >= self.cfg.prebuffer_timeout;
        match self.buffer.front() {
            // Playout begins at the earliest buffered frame.
            Some(&(first, _)) if ready => {
                let first = SimDuration::from_micros(first);
                self.origin = first;
                self.cursor = first;
                self.epoch = now;
                self.state = PlayoutState::Playing;
                self.stats.playback_started_at = Some(now);
            }
            None if self.source_ended => self.state = PlayoutState::Ended,
            _ => {}
        }
    }

    fn poll_playing(&mut self, now: SimTime, events: &mut Vec<PlayoutEvent>) {
        let clock = self.media_clock(now);

        while let Some(&(pts_us, Buffered { frame })) = self.buffer.front() {
            let pts = SimDuration::from_micros(pts_us);
            if pts > clock {
                break;
            }
            self.buffer.pop_front();
            self.cursor = pts;
            // A straggler pushed after playout began, with a pts older
            // than the origin, is due at the epoch itself: it then falls
            // to the late-drop rule below like any other overdue frame.
            let due_wall = self.epoch + pts.saturating_sub(self.origin);
            // The frame plays when due and present: the later of its
            // deadline and its arrival-completion time.
            let play_at = due_wall.max(frame.completed_at);

            if play_at.saturating_since(due_wall) > LATE_GRACE {
                self.stats.dropped_late += 1;
                events.push(PlayoutEvent {
                    frame_index: frame.index,
                    rung: frame.rung,
                    pts,
                    played_at: None,
                    drop_reason: Some(DropReason::Late),
                });
                continue;
            }
            // Decode model: a slow CPU still busy with the previous frame
            // drops this one (RealPlayer's scalable-video client behavior).
            if play_at < self.decode_ready_at {
                self.stats.dropped_decode += 1;
                events.push(PlayoutEvent {
                    frame_index: frame.index,
                    rung: frame.rung,
                    pts,
                    played_at: None,
                    drop_reason: Some(DropReason::Decode),
                });
                continue;
            }
            let decode = (DECODE_BASE + DECODE_PER_KIB.mul_f64(f64::from(frame.size) / 1024.0))
                .mul_f64(1.0 / self.cpu_power);
            // Saturating: a PC with no decode power finishes never.
            self.decode_ready_at = play_at.saturating_add(decode);
            self.stats.decode_busy = self.stats.decode_busy.saturating_add(decode);
            self.stats.frames_played += 1;
            events.push(PlayoutEvent {
                frame_index: frame.index,
                rung: frame.rung,
                pts,
                played_at: Some(play_at),
                drop_reason: None,
            });
        }

        if self.buffer.is_empty() {
            if self.source_ended {
                self.state = PlayoutState::Ended;
            } else if clock > self.cursor + LATE_GRACE {
                // Nothing left although the clock marched past the last
                // frame: the buffer starved.
                self.state = PlayoutState::Rebuffering;
                self.rebuffer_since = now;
                self.stats.rebuffer_events += 1;
                trace::emit(now, || TraceEvent::RebufferStart);
            }
        }
    }

    fn poll_rebuffering(&mut self, now: SimTime) {
        let halted = now.saturating_since(self.rebuffer_since);
        let ready =
            self.buffered_span() >= self.cfg.rebuffer_target || halted >= self.cfg.rebuffer_halt;
        match self.buffer.front() {
            // Resume: the playout clock skips the halt.
            Some(&(first, _)) if ready => {
                let first = SimDuration::from_micros(first);
                self.origin = first;
                self.cursor = first;
                self.epoch = now;
                self.state = PlayoutState::Playing;
            }
            None if self.source_ended => self.state = PlayoutState::Ended,
            _ => return,
        }
        self.stats.rebuffer_time += halted;
        trace::emit(now, || TraceEvent::RebufferEnd {
            stalled_us: halted.as_micros(),
        });
    }

    /// When the engine next needs polling.
    pub fn next_wake(&self, now: SimTime) -> Option<SimTime> {
        match self.state {
            PlayoutState::Buffering => self
                .session_start
                .map(|s| (s + self.cfg.prebuffer_timeout).max(now + SimDuration::from_millis(50))),
            PlayoutState::Playing => self.buffer.front().map(|&(pts_us, _)| {
                // A straggler that arrived with pts earlier than the playout
                // origin is already overdue; saturating keeps its wake-up in
                // the present instead of panicking on time underflow.
                let ahead = SimDuration::from_micros(pts_us).saturating_sub(self.origin);
                (self.epoch + ahead).max(now + SimDuration::from_millis(1))
            }),
            PlayoutState::Rebuffering => Some(
                (self.rebuffer_since + self.cfg.rebuffer_halt)
                    .max(now + SimDuration::from_millis(50)),
            ),
            PlayoutState::Ended => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(pts_ms: u64, completed_at: SimTime) -> CompleteFrame {
        CompleteFrame {
            index: pts_ms as u32,
            rung: 0,
            pts: SimDuration::from_millis(pts_ms),
            size: 1000,
            key: false,
            completed_at,
        }
    }

    fn engine() -> Playout {
        Playout::new(
            PlayoutConfig {
                prebuffer: SimDuration::from_secs(2),
                prebuffer_timeout: SimDuration::from_secs(10),
                rebuffer_target: SimDuration::from_secs(1),
                ..PlayoutConfig::default()
            },
            1.0,
        )
    }

    /// Feeds frames at 10 fps, completed as they "arrive" in real time.
    fn feed(p: &mut Playout, start_ms: u64, count: u64, arrive_offset_ms: u64) {
        for i in 0..count {
            let pts = start_ms + i * 100;
            let arrival = SimTime::from_millis(pts + arrive_offset_ms);
            p.push_frame(arrival, frame(pts, arrival));
        }
    }

    #[test]
    fn starts_after_prebuffer_fills() {
        let mut p = engine();
        assert_eq!(p.state(), PlayoutState::Buffering);
        // 2 s of media arrive instantly.
        for i in 0..21 {
            p.push_frame(
                SimTime::from_millis(10),
                frame(i * 100, SimTime::from_millis(10)),
            );
        }
        p.poll(SimTime::from_millis(20));
        assert_eq!(p.state(), PlayoutState::Playing);
        assert_eq!(
            p.stats().playback_started_at,
            Some(SimTime::from_millis(20))
        );
    }

    #[test]
    fn prebuffer_timeout_forces_start() {
        let mut p = engine();
        p.push_frame(SimTime::from_millis(5), frame(0, SimTime::from_millis(5)));
        p.poll(SimTime::from_secs(5));
        assert_eq!(p.state(), PlayoutState::Buffering);
        p.poll(SimTime::from_secs(11));
        assert_eq!(p.state(), PlayoutState::Playing);
    }

    #[test]
    fn on_time_frames_play_on_schedule() {
        let mut p = engine();
        feed(&mut p, 0, 30, 0); // all present from t=pts
        p.poll(SimTime::from_millis(100)); // starts: epoch=100ms, origin=0
        let events = p.poll(SimTime::from_millis(1100));
        // Frames with pts <= 1s have played exactly at epoch + pts.
        let played: Vec<_> = events.iter().filter(|e| e.played_at.is_some()).collect();
        assert!(played.len() >= 9, "played {}", played.len());
        for e in &played {
            assert_eq!(
                e.played_at.unwrap(),
                SimTime::from_millis(100) + (e.pts - SimDuration::ZERO)
            );
        }
    }

    #[test]
    fn late_frame_plays_late_within_grace() {
        let mut p = engine();
        feed(&mut p, 0, 21, 0);
        p.poll(SimTime::from_millis(0));
        assert_eq!(p.state(), PlayoutState::Playing);
        // A frame due at 2.1 s arrives 200 ms late (grace is 400 ms).
        let arrival = SimTime::from_millis(2100 + 200);
        p.push_frame(arrival, frame(2100, arrival));
        let events = p.poll(SimTime::from_millis(2400));
        let late = events
            .iter()
            .find(|e| e.pts == SimDuration::from_millis(2100))
            .unwrap();
        assert_eq!(late.played_at, Some(arrival));
    }

    #[test]
    fn very_late_frame_drops() {
        let mut p = engine();
        feed(&mut p, 0, 21, 0);
        p.poll(SimTime::from_millis(0));
        let arrival = SimTime::from_millis(2100 + 900); // 900 ms late
        p.push_frame(arrival, frame(2100, arrival));
        let events = p.poll(SimTime::from_secs(4));
        let e = events
            .iter()
            .find(|e| e.pts == SimDuration::from_millis(2100))
            .unwrap();
        assert_eq!(e.drop_reason, Some(DropReason::Late));
        assert!(p.stats().dropped_late >= 1);
    }

    #[test]
    fn straggler_older_than_the_origin_is_due_at_the_epoch() {
        let mut p = engine();
        feed(&mut p, 1000, 21, 0);
        p.poll(SimTime::from_secs(3)); // starts: epoch = 3 s, origin = 1 s
        assert_eq!(p.state(), PlayoutState::Playing);
        // Older than the origin and inside the grace window of the
        // epoch: plays on arrival.
        let soon = SimTime::from_millis(3200);
        p.push_frame(soon, frame(500, soon));
        let events = p.poll(soon);
        assert_eq!(events[0].pts, SimDuration::from_millis(500));
        assert_eq!(events[0].played_at, Some(soon));
        // Past the grace window: the ordinary late drop.
        let late = SimTime::from_millis(3900);
        p.push_frame(late, frame(600, late));
        let events = p.poll(late);
        assert_eq!(events[0].pts, SimDuration::from_millis(600));
        assert_eq!(events[0].drop_reason, Some(DropReason::Late));
    }

    #[test]
    fn starving_buffer_rebuffers_and_resumes() {
        let mut p = engine();
        feed(&mut p, 0, 21, 0); // 2 s of media
        p.poll(SimTime::ZERO);
        assert_eq!(p.state(), PlayoutState::Playing);
        // Play everything out, then the clock marches on with no data.
        p.poll(SimTime::from_secs(3));
        assert_eq!(p.state(), PlayoutState::Rebuffering);
        assert_eq!(p.stats().rebuffer_events, 1);
        // New data arrives: 1 s span triggers resume.
        for i in 0..11 {
            let t = SimTime::from_secs(4);
            p.push_frame(t, frame(5000 + i * 100, t));
        }
        p.poll(SimTime::from_secs(4));
        assert_eq!(p.state(), PlayoutState::Playing);
        assert!(p.stats().rebuffer_time >= SimDuration::from_millis(900));
        // Subsequent playout uses the shifted clock.
        let events = p.poll(SimTime::from_secs(5));
        assert!(events.iter().any(|e| e.played_at.is_some()));
    }

    #[test]
    fn slow_cpu_drops_decode_frames() {
        let cfg = PlayoutConfig {
            prebuffer: SimDuration::from_secs(2),
            ..PlayoutConfig::default()
        };
        let mut slow = Playout::new(cfg, 0.12); // ~25ms+2ms/KiB over 0.12 → >200ms per frame
        feed(&mut slow, 0, 100, 0); // 10 fps
        slow.poll(SimTime::ZERO);
        slow.poll(SimTime::from_secs(12));
        let s = slow.stats();
        assert!(s.dropped_decode > 0, "slow CPU should drop frames");
        // Effective rate well under the 10 fps offered.
        assert!(
            s.frames_played < 60,
            "slow CPU played {} of 100",
            s.frames_played
        );
    }

    #[test]
    fn fast_cpu_plays_everything() {
        let mut p = engine();
        feed(&mut p, 0, 100, 0);
        p.poll(SimTime::ZERO);
        p.source_ended();
        p.poll(SimTime::from_secs(12));
        assert_eq!(p.stats().dropped_decode, 0);
        assert_eq!(p.stats().frames_played, 100);
        assert_eq!(p.state(), PlayoutState::Ended);
    }

    #[test]
    fn ends_when_source_ends_and_drains() {
        let mut p = engine();
        feed(&mut p, 0, 21, 0);
        p.poll(SimTime::ZERO);
        p.source_ended();
        p.poll(SimTime::from_secs(3));
        assert_eq!(p.state(), PlayoutState::Ended);
        assert!(p.poll(SimTime::from_secs(4)).is_empty());
    }

    #[test]
    fn duplicate_pts_keeps_first() {
        let mut p = engine();
        let t = SimTime::from_millis(1);
        let mut f1 = frame(100, t);
        f1.rung = 1;
        let mut f2 = frame(100, t);
        f2.rung = 2;
        p.push_frame(t, f1);
        p.push_frame(t, f2);
        p.source_ended();
        let mut rungs = Vec::new();
        for secs in [11, 12] {
            rungs.extend(p.poll(SimTime::from_secs(secs)).iter().map(|e| e.rung));
        }
        assert_eq!(rungs, [1]);
    }
}
