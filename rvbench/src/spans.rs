//! The span store of the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions. They live in a `Vec` sized before
//! the pass starts — recording never allocates, so allocation deltas taken
//! at the same boundaries stay exact — and are written out as JSON lines
//! when the pass ends. A span that would not fit is counted as dropped,
//! never grown into.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// What a span covers. The crate prefix is the layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// One planned session, build to observe.
    Session,
    /// `CampaignPlan::user_jobs`.
    UserJobs,
    /// `gateway_spec`.
    GatewaySpec,
    /// `build_session_world_gw`.
    WorldBuild,
    /// `SessionWorld::run`, or its mirror.
    Run,
    /// `SessionWorld::counters`.
    Counters,
    /// `rate`.
    Rate,
    /// `SessionWorld::retire`.
    Retire,
    /// `CampaignAggregates::observe`.
    Observe,
    /// One sampled instant of the mirrored settle loop.
    Instant,
    /// `Network::poll`.
    NetPoll,
    /// Client `Stack::poll`.
    ClientStackPoll,
    /// Server `Stack::poll`.
    ServerStackPoll,
    /// `RealServer::poll`.
    ServerPoll,
    /// `TracerClient::poll`.
    ClientPoll,
    /// A replica's `Stack::poll`.
    ReplicaStackPoll,
    /// A replica's `RealServer::poll`.
    ReplicaServerPoll,
    /// The `earliest([...])` fan-in over every component's `next_wake`.
    NextWake,
}

impl SpanName {
    /// Name as written to the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Session => "study.session",
            SpanName::UserJobs => "study.user_jobs",
            SpanName::GatewaySpec => "study.gateway_spec",
            SpanName::WorldBuild => "study.build_session_world_gw",
            SpanName::Run => "tracer.run",
            SpanName::Counters => "tracer.counters",
            SpanName::Rate => "tracer.rate",
            SpanName::Retire => "tracer.retire",
            SpanName::Observe => "study.observe",
            SpanName::Instant => "tracer.instant",
            SpanName::NetPoll => "net.poll",
            SpanName::ClientStackPoll => "transport.client_poll",
            SpanName::ServerStackPoll => "transport.server_poll",
            SpanName::ServerPoll => "server.poll",
            SpanName::ClientPoll => "tracer.client_poll",
            SpanName::ReplicaStackPoll => "transport.replica_poll",
            SpanName::ReplicaServerPoll => "server.replica_poll",
            SpanName::NextWake => "tracer.next_wake",
        }
    }
}

/// "No parent".
pub const NO_PARENT: u32 = u32::MAX;

/// The identifier every span of one session shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionKey {
    /// Which of the workload's campaigns (participant ids repeat across
    /// them).
    pub campaign: u8,
    /// Participant id.
    pub user_id: u32,
    /// Position in that participant's play sequence.
    pub clip_seq: u32,
}

/// One recorded span. Its id is its index in the store.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What it covers.
    pub name: SpanName,
    /// Nanoseconds from the store's epoch.
    pub start_ns: u64,
    /// Nanoseconds from the store's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The session it belongs to.
    pub key: SessionKey,
}

/// Pre-sized, append-only span storage.
#[derive(Debug)]
pub struct SpanStore {
    spans: Vec<Span>,
    epoch: Instant,
    /// Spans that did not fit.
    pub dropped: u64,
}

impl SpanStore {
    /// A store with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanStore {
            spans: Vec::with_capacity(capacity),
            epoch: Instant::now(),
            dropped: 0,
        }
    }

    /// Nanoseconds from the epoch to `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its id, or [`NO_PARENT`] when the
    /// store is full (children of a dropped span then hang off nothing,
    /// which the reader can see).
    pub fn push(
        &mut self,
        name: SpanName,
        start: Instant,
        end: Instant,
        parent: u32,
        key: SessionKey,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            key,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose children are recorded before it ends; close it
    /// with [`SpanStore::close`].
    pub fn open(&mut self, name: SpanName, start: Instant, parent: u32, key: SessionKey) -> u32 {
        self.push(name, start, start, parent, key)
    }

    /// Sets the end of a span opened with [`SpanStore::open`].
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Times `f` as one span under `parent`; returns its result and the
    /// measured nanoseconds.
    pub fn timed<T>(
        &mut self,
        name: SpanName,
        parent: u32,
        key: SessionKey,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(name, start, end, parent, key);
        (out, end.duration_since(start).as_nanos() as u64)
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`: to a file of this
    /// process's own beside it, renamed when whole, so a reader never sees
    /// half of one.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let partial = path.with_extension(format!("{}.partial", std::process::id()));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&partial)?);
        for (id, s) in self.spans.iter().enumerate() {
            write!(out, "{{\"id\": {id}, \"parent\": ")?;
            if s.parent == NO_PARENT {
                write!(out, "null")?;
            } else {
                write!(out, "{}", s.parent)?;
            }
            writeln!(
                out,
                ", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"campaign\": {}, \"user\": {}, \"clip_seq\": {}}}",
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.key.campaign,
                s.key.user_id,
                s.key.clip_seq
            )?;
        }
        out.flush()?;
        drop(out);
        std::fs::rename(&partial, path)
    }
}

/// Cost of one clock pair — the nanoseconds an empty span measures —
/// averaged over `pairs` of them. Subtracted from every child span: at
/// ~50–150 ns per layer call it is not small beside the thing timed.
pub fn calibrate_clock_pair(pairs: u32) -> f64 {
    let mut total = 0u128;
    for _ in 0..pairs {
        let start = Instant::now();
        let end = Instant::now();
        total += std::hint::black_box(end.duration_since(start)).as_nanos();
    }
    total as f64 / f64::from(pairs.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_store_drops_instead_of_growing() {
        let key = SessionKey {
            campaign: 0,
            user_id: 1,
            clip_seq: 2,
        };
        let mut store = SpanStore::with_capacity(2);
        let root = store.open(SpanName::Session, Instant::now(), NO_PARENT, key);
        let ((), ns) = store.timed(SpanName::Run, root, key, || {});
        assert!(ns < 1_000_000_000);
        assert_eq!(
            store.push(SpanName::Retire, Instant::now(), Instant::now(), root, key),
            NO_PARENT
        );
        store.close(root, Instant::now());
        assert_eq!((store.spans().len(), store.dropped), (2, 1));
        assert_eq!(store.spans()[1].parent, root);
        assert!(store.spans()[0].end_ns >= store.spans()[1].end_ns);
    }

    #[test]
    fn clock_pair_is_small_and_positive() {
        let ns = calibrate_clock_pair(10_000);
        assert!(ns > 0.0 && ns < 10_000.0, "{ns}");
    }
}
