//! Schedule storage: the frame schedules a stream has started, one per
//! rung it visited, and the recycled tables the next stream's start on.
//!
//! The streaming rung's schedule is in the stream; [`RungSchedules`] holds
//! the others parked, and the storage under all of them once the stream
//! dies. Everything here is capacity ([`crate::ServerScratch`]): which
//! frames a schedule answers with never depends on what it was built on.

use rv_media::{Clip, Frame, LazySchedule};

use crate::server::RealServer;

/// Per-rung schedule slots for the one stream a server carries.
#[derive(Debug, Default)]
pub(crate) struct RungSchedules {
    /// The current stream's schedules for the rungs it is *not* on, one
    /// slot per rung, each generated as far as the pump got while it was
    /// on that rung; the streaming rung's slot is empty. SureStream
    /// oscillates between adjacent rungs for the life of a stream, so a
    /// revisit resumes the parked schedule instead of generating its
    /// prefix again. Emptied into `storage` wherever the stream dies.
    pub(crate) parked: Vec<Option<LazySchedule>>,
    /// Retired schedules' frame tables, emptied, one slot per rung: the
    /// storage the next schedule of that rung starts on. Kept by rung
    /// because a rung's frame rate sizes its table — once a rung has
    /// served its longest stream, starting a schedule on it allocates
    /// nothing.
    pub(crate) storage: Vec<Vec<Frame>>,
}

impl RungSchedules {
    /// The schedule of `clip` at `rung`, nothing generated yet, on the
    /// rung's recycled storage. `clip_seed` makes encodings deterministic
    /// per server. A stream's first schedule finds nothing parked (the
    /// stream before it was retired) and makes a slot per rung.
    pub(crate) fn start(&mut self, clip: &Clip, rung: usize, clip_seed: u64) -> LazySchedule {
        let rungs = clip.ladder.len();
        self.parked.resize_with(rungs, || None);
        if self.storage.len() < rungs {
            self.storage.resize_with(rungs, Vec::new);
        }
        let enc = &clip.ladder.rungs()[rung];
        let seed = clip_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(hash_name(&clip.name))
            .wrapping_add(rung as u64);
        let storage = std::mem::take(&mut self.storage[rung]);
        LazySchedule::start(enc, clip.content, clip.duration, seed, storage)
    }

    /// Moves a stream from rung `from` to rung `to`: parks `current`
    /// where it got to and puts `to`'s schedule in its place — resumed if
    /// the stream has been on that rung before, started otherwise.
    pub(crate) fn switch(
        &mut self,
        current: &mut LazySchedule,
        clip: &Clip,
        (from, to): (usize, usize),
        clip_seed: u64,
    ) {
        debug_assert_ne!(from, to, "the streaming rung has no parked schedule");
        let resumed = match self.parked[to].take() {
            Some(parked) => parked,
            None => self.start(clip, to, clip_seed),
        };
        self.parked[from] = Some(std::mem::replace(current, resumed));
    }
}

impl RealServer {
    /// Ends the stream, if there is one, keeping the storage under every
    /// schedule it started — the one streaming and the ones parked — for
    /// the next PLAY's schedules, and its FEC buffer for the next
    /// stream's. Every place a stream dies goes through here.
    pub(crate) fn retire_stream(&mut self) {
        let Some(mut stream) = self.stream.take() else {
            return;
        };
        stream.fec_buf.clear();
        self.scratch.fec_buf = stream.fec_buf;
        let schedules = &mut self.scratch.schedules;
        schedules.parked[stream.rung] = Some(stream.schedule);
        for (slot, schedule) in schedules.storage.iter_mut().zip(schedules.parked.drain(..)) {
            if let Some(schedule) = schedule {
                *slot = schedule.into_storage();
            }
        }
    }
}

pub(crate) fn hash_name(name: &str) -> u64 {
    // FNV-1a: stable across runs and platforms.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}
