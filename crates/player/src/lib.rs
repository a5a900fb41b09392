//! # rv-player — the RealPlayer core equivalent
//!
//! Consumes media packets from either transport, reassembles frames
//! ([`Assembler`], with XOR-parity FEC recovery), and plays them through a
//! buffered playout engine ([`Playout`]) with prebuffering, 20-second
//! rebuffer halts, a late-frame grace window, and a CPU decode model that
//! makes old PCs drop frames — the mechanisms behind the paper's frame
//! rate (Figs 11–19) and jitter (Figs 20–25) distributions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod playout;
mod reassembly;

pub use playout::{DropReason, Playout, PlayoutConfig, PlayoutEvent, PlayoutState, PlayoutStats};
pub use reassembly::{Assembler, CompleteFrame, ReassemblyStats};

use rv_media::MediaPacket;
use rv_sim::{SimDuration, SimTime};

/// A complete receiving player: depacketization + reassembly + playout.
///
/// A player is also recyclable storage: [`Player::renew`] takes one that
/// has played a session back to [`Player::new`]'s state — every counter,
/// clock, frame and group gone — with the buffers it grew, so the next
/// session on it allocates only where its traffic outgrows the last.
#[derive(Debug)]
pub struct Player {
    assembler: Assembler,
    playout: Playout,
    frame_scratch: Vec<CompleteFrame>,
}

impl Player {
    /// Creates a player; `cpu_power` scales the decode model (1.0 = typical
    /// new 2001 PC; see [`Playout::new`] for one that is not positive).
    pub fn new(cfg: PlayoutConfig, cpu_power: f64) -> Self {
        Player {
            assembler: Assembler::new(),
            playout: Playout::new(cfg, cpu_power),
            frame_scratch: Vec::new(),
        }
    }

    /// Returns to [`Player::new`]`(cfg, cpu_power)`'s state, keeping the
    /// storage the reassembly maps, the playout buffer and the frame
    /// scratch grew.
    pub fn renew(&mut self, cfg: PlayoutConfig, cpu_power: f64) {
        self.assembler.renew();
        self.playout.renew(cfg, cpu_power);
        self.frame_scratch.clear();
    }

    /// Bytes of storage the player holds: what a warm player carries from
    /// one session into the next.
    pub fn retained_bytes(&self) -> usize {
        self.assembler.retained_bytes()
            + self.playout.retained_bytes()
            + self.frame_scratch.capacity() * std::mem::size_of::<CompleteFrame>()
    }

    /// Feeds one received media packet.
    pub fn on_packet(&mut self, now: SimTime, pkt: MediaPacket) {
        self.frame_scratch.clear();
        self.assembler
            .on_packet_into(now, pkt, &mut self.frame_scratch);
        for frame in self.frame_scratch.drain(..) {
            self.playout.push_frame(now, frame);
        }
        if self.assembler.eos() {
            self.playout.source_ended();
        }
    }

    /// Signals that the transport was torn down (no more packets).
    pub fn end_of_source(&mut self) {
        self.playout.source_ended();
    }

    /// Advances playout, returning frame events.
    pub fn poll(&mut self, now: SimTime) -> Vec<PlayoutEvent> {
        let mut events = Vec::new();
        self.poll_into(now, &mut events);
        events
    }

    /// [`Player::poll`] appending events to `out`, so a session loop can
    /// reuse one event buffer instead of allocating per poll.
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<PlayoutEvent>) {
        let start = out.len();
        self.playout.poll_into(now, out);
        // Partial frames whose deadline passed will never play; drop them.
        if let Some(last) = out[start..]
            .iter()
            .rev()
            .find_map(|e| e.played_at.is_some().then_some(e.pts))
        {
            self.assembler
                .expire_before(last.saturating_sub(SimDuration::from_secs(1)));
        }
    }

    /// Playout state.
    pub fn state(&self) -> PlayoutState {
        self.playout.state()
    }

    /// Playout counters.
    pub fn playout_stats(&self) -> PlayoutStats {
        self.playout.stats()
    }

    /// Receive-side counters.
    pub fn reassembly_stats(&self) -> ReassemblyStats {
        self.assembler.stats()
    }

    /// Buffered media ahead of the playout cursor.
    pub fn buffered_span(&self) -> SimDuration {
        self.playout.buffered_span()
    }

    /// Drains the interval counters for a receiver report:
    /// `(loss_rate, bytes_received)` since the last call.
    pub fn take_interval(&mut self) -> (f64, u64) {
        self.assembler.take_interval()
    }

    /// The earliest instant at which [`Player::poll_into`] can do anything,
    /// absent further packets (see [`Playout::idle_until`]; reassembly has
    /// no clock of its own).
    pub fn idle_until(&self) -> SimTime {
        self.playout.idle_until()
    }

    /// When the player next needs polling.
    pub fn next_wake(&self, now: SimTime) -> Option<SimTime> {
        self.playout.next_wake(now)
    }
}

/// A default-configured player on a typical PC, holding nothing.
impl Default for Player {
    fn default() -> Self {
        Player::new(PlayoutConfig::default(), 1.0)
    }
}
