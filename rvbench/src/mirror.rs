//! The mirrored settle loop: `SessionWorld::run`, re-driven from outside
//! through the world's public fields so each layer call can be counted and
//! timed without touching the program.
//!
//! The loop below keeps the poll order, the `needs_poll` gates, the
//! 64-round guard and the `earliest([...])` wake of
//! `rv_tracer::SessionWorld::run` line for line. Only sessions with an
//! empty fault plan can be driven this way (the fault injector is
//! private); for those, `run` applies no faults and the two loops are the
//! same program. `tests/mirror.rs` and the traced pass's own pre-flight
//! check hold it to bit-identical `SessionMetrics` and `CounterSet`.
//!
//! Every instant is counted. Every [`STRIDE`]th instant is also timed,
//! in one of two ways. A *whole* sample reads the clock twice,
//! around the instant: that is the clean cost of an instant, from which
//! the run's time and — as the residual once the layers are taken out —
//! the driver's own time are estimated. A *detailed* sample also times
//! every layer call inside the instant, giving each layer's cost per call
//! and the nested spans of the trace file; its own total is inflated by
//! the ~18 clock reads inside a ~400 ns instant and is not used. Timing
//! every call of every instant would nearly double the wall (a clock pair
//! costs about as much as a poll), so the stride is what keeps the traced
//! pass within a few percent of the untraced one.

use std::time::Instant;

use rv_sim::{alloc_stats, earliest, SimDuration, SimTime};
use rv_tracer::{SessionMetrics, SessionOutcome, SessionWorld};

use crate::spans::{SessionKey, SpanName, SpanStore, NO_PARENT};

/// One instant in this many is timed. Deterministic, so two traced passes
/// time the same instants.
pub const STRIDE: u64 = 16;

/// One timed instant in this many is timed in detail; the others whole. A
/// detailed sample costs nine times the clock reads of a whole one, and a
/// full-size pass still takes a few hundred thousand of them.
pub const DETAILED_EVERY: u64 = 4;

/// The things a settle round calls, as the ledger indexes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Call {
    /// `Network::poll`.
    Net,
    /// Client `Stack::poll`.
    ClientStack,
    /// Server `Stack::poll`.
    ServerStack,
    /// `RealServer::poll`.
    ServerApp,
    /// `TracerClient::poll`.
    ClientApp,
    /// A replica's `Stack::poll`.
    ReplicaStack,
    /// A replica's `RealServer::poll`.
    ReplicaApp,
    /// The `next_wake` fan-in (driver code, timed to size it).
    NextWake,
}

/// Number of [`Call`] kinds.
pub const CALLS: usize = 8;

impl Call {
    fn span(self) -> SpanName {
        match self {
            Call::Net => SpanName::NetPoll,
            Call::ClientStack => SpanName::ClientStackPoll,
            Call::ServerStack => SpanName::ServerStackPoll,
            Call::ServerApp => SpanName::ServerPoll,
            Call::ClientApp => SpanName::ClientPoll,
            Call::ReplicaStack => SpanName::ReplicaStackPoll,
            Call::ReplicaApp => SpanName::ReplicaServerPoll,
            Call::NextWake => SpanName::NextWake,
        }
    }
}

/// Counts and sampled time for one kind of call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Calls issued, every instant.
    pub calls: u64,
    /// Calls that returned work (> 0).
    pub useful: u64,
    /// Calls that were timed (those on sampled instants).
    pub timed_calls: u64,
    /// Measured nanoseconds of the timed calls, clock pair included.
    pub timed_ns: u64,
}

/// What the mirror counted and timed across every session it drove.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Sessions driven.
    pub sessions: u64,
    /// Instants visited.
    pub instants: u64,
    /// Settle rounds run.
    pub rounds: u64,
    /// Instants whose first settle round moved nothing.
    pub inert_instants: u64,
    /// Instants timed whole (two clock reads, nothing timed inside).
    pub whole_instants: u64,
    /// Measured nanoseconds of those, one clock pair each included.
    pub whole_instant_ns: u64,
    /// Instants timed in detail (every layer call inside timed too).
    pub detailed_instants: u64,
    /// Per-call counts and times.
    pub calls: [CallStats; CALLS],
    /// Allocations made inside `RealServer::poll` (primary), every call.
    pub server_allocs: u64,
    /// Bytes allocated inside `RealServer::poll` (primary), every call.
    pub server_alloc_bytes: u64,
    /// Instants seen so far by this ledger; drives the sampling stride
    /// across session boundaries.
    tick: u64,
    /// Replica `(app_ran, poll_app)` flags, kept for their capacity.
    replica_flags: Vec<(bool, bool)>,
}

impl Ledger {
    /// Stats of one call kind.
    pub fn call(&self, call: Call) -> &CallStats {
        &self.calls[call as usize]
    }
}

/// Where a mirrored session's spans go.
#[derive(Debug)]
pub struct SpanSink<'a> {
    /// The store.
    pub store: &'a mut SpanStore,
    /// The session's `tracer.run` span.
    pub parent: u32,
    /// The session's key.
    pub key: SessionKey,
}

/// Ends the timing of one call that began at `start`: reads the clock,
/// adds the pair to `stats`, and keeps the span when there is a sink.
#[inline]
fn record_timed(
    stats: &mut CallStats,
    sink: &mut Option<SpanSink<'_>>,
    kind: Call,
    start: Instant,
    instant_span: u32,
) {
    let end = Instant::now();
    stats.timed_calls += 1;
    stats.timed_ns += end.duration_since(start).as_nanos() as u64;
    if let Some(s) = sink {
        s.store.push(kind.span(), start, end, instant_span, s.key);
    }
}

/// One instant of `SessionWorld::run`, call for call: settles all work at
/// `now`, then — unless the session is over — picks the next instant.
/// Returns that next instant, or `None` when the client is done or the
/// deadline has passed.
///
/// Counts every call. `DETAILED` also times each one and, with a sink,
/// records it under `instant_span`; it is a compile-time switch so that
/// the fifteen untimed instants in sixteen run a loop with no clock code
/// in it at all.
fn instant<const DETAILED: bool>(
    world: &mut SessionWorld,
    now: SimTime,
    deadline: SimTime,
    flags: &mut [(bool, bool)],
    ledger: &mut Ledger,
    sink: &mut Option<SpanSink<'_>>,
    instant_span: u32,
) -> Option<SimTime> {
    macro_rules! call {
        ($kind:expr, $e:expr) => {{
            let stats = &mut ledger.calls[$kind as usize];
            let handled = if DETAILED {
                let start = Instant::now();
                let handled = $e;
                record_timed(stats, sink, $kind, start, instant_span);
                handled
            } else {
                $e
            };
            stats.calls += 1;
            stats.useful += u64::from(handled > 0);
            handled
        }};
    }

    let mut client_app_ran = false;
    let mut server_app_ran = false;
    let mut poll_client_app = true;
    let mut poll_server_app = true;
    flags.fill((false, true));
    for round in 0..64 {
        ledger.rounds += 1;
        let mut moved = call!(Call::Net, world.net.poll(now));
        if world.client_stack.needs_poll(&world.net, now) || client_app_ran {
            let handled = call!(
                Call::ClientStack,
                world.client_stack.poll(now, &mut world.net)
            );
            client_app_ran = false;
            poll_client_app |= handled > 0;
            moved += handled;
        }
        if world.server_stack.needs_poll(&world.net, now) || server_app_ran {
            let handled = call!(
                Call::ServerStack,
                world.server_stack.poll(now, &mut world.net)
            );
            server_app_ran = false;
            poll_server_app |= handled > 0;
            moved += handled;
        }
        if poll_server_app {
            poll_server_app = false;
            let (allocs, bytes) = alloc_stats::snapshot();
            let worked = call!(
                Call::ServerApp,
                world.server.poll(now, &mut world.server_stack)
            );
            let (allocs_after, bytes_after) = alloc_stats::snapshot();
            ledger.server_allocs += allocs_after - allocs;
            ledger.server_alloc_bytes += bytes_after - bytes;
            server_app_ran |= worked > 0;
            moved += worked;
        }
        if poll_client_app {
            poll_client_app = false;
            let worked = call!(
                Call::ClientApp,
                world.client.poll(now, &mut world.client_stack)
            );
            client_app_ran |= worked > 0;
            moved += worked;
        }
        for ((stack, server), (app_ran, poll_app)) in
            world.replicas.iter_mut().zip(flags.iter_mut())
        {
            if stack.needs_poll(&world.net, now) || *app_ran {
                let handled = call!(Call::ReplicaStack, stack.poll(now, &mut world.net));
                *app_ran = false;
                *poll_app |= handled > 0;
                moved += handled;
            }
            if *poll_app {
                *poll_app = false;
                let worked = call!(Call::ReplicaApp, server.poll(now, stack));
                *app_ran |= worked > 0;
                moved += worked;
            }
            if stack.needs_poll(&world.net, now) || *app_ran {
                let handled = call!(Call::ReplicaStack, stack.poll(now, &mut world.net));
                *app_ran = false;
                *poll_app |= handled > 0;
                moved += handled;
            }
        }
        if world.client_stack.needs_poll(&world.net, now) || client_app_ran {
            let handled = call!(
                Call::ClientStack,
                world.client_stack.poll(now, &mut world.net)
            );
            client_app_ran = false;
            poll_client_app |= handled > 0;
            moved += handled;
        }
        if world.server_stack.needs_poll(&world.net, now) || server_app_ran {
            let handled = call!(
                Call::ServerStack,
                world.server_stack.poll(now, &mut world.net)
            );
            server_app_ran = false;
            poll_server_app |= handled > 0;
            moved += handled;
        }
        if moved == 0 {
            if round == 0 {
                ledger.inert_instants += 1;
            }
            break;
        }
    }
    if world.client.is_done() || now >= deadline {
        return None;
    }
    let wake_start = DETAILED.then(Instant::now);
    let mut wake = earliest([
        world.net.next_wake(),
        world.client_stack.next_wake(),
        world.server_stack.next_wake(),
        world.server.next_wake(now),
        world.client.next_wake(now),
    ]);
    for (stack, server) in &world.replicas {
        wake = earliest([wake, stack.next_wake(), server.next_wake(now)]);
    }
    let stats = &mut ledger.calls[Call::NextWake as usize];
    if let Some(start) = wake_start {
        record_timed(stats, sink, Call::NextWake, start, instant_span);
    }
    stats.calls += 1;
    stats.useful += u64::from(wake.is_some());
    let step_floor = now + SimDuration::from_micros(1);
    Some(wake.unwrap_or(deadline).min(deadline).max(step_floor))
}

/// Drives `world` until the client finishes or `deadline` passes, exactly
/// as `SessionWorld::run` would, folding counts and sampled times into
/// `ledger`. With a `sink`, the sampled instants' spans are kept too.
///
/// Only for worlds with no fault injector armed (an empty fault plan).
pub fn run_mirrored(
    world: &mut SessionWorld,
    deadline: SimTime,
    ledger: &mut Ledger,
    mut sink: Option<SpanSink<'_>>,
) -> SessionMetrics {
    ledger.sessions += 1;
    let mut flags = std::mem::take(&mut ledger.replica_flags);
    flags.clear();
    flags.resize(world.replicas.len(), (false, true));
    let mut now = world.now;
    loop {
        // Of every four samples, three are whole and the fourth detailed.
        let detailed = ledger
            .tick
            .is_multiple_of(STRIDE)
            .then_some(ledger.tick / STRIDE % DETAILED_EVERY == DETAILED_EVERY - 1);
        ledger.tick += 1;
        ledger.instants += 1;
        let next = match detailed {
            None => instant::<false>(
                world, now, deadline, &mut flags, ledger, &mut sink, NO_PARENT,
            ),
            Some(detailed) => {
                let start = Instant::now();
                let span = match &mut sink {
                    Some(s) => s.store.open(SpanName::Instant, start, s.parent, s.key),
                    None => NO_PARENT,
                };
                let next = if detailed {
                    instant::<true>(world, now, deadline, &mut flags, ledger, &mut sink, span)
                } else {
                    instant::<false>(world, now, deadline, &mut flags, ledger, &mut sink, span)
                };
                let end = Instant::now();
                if detailed {
                    ledger.detailed_instants += 1;
                } else {
                    ledger.whole_instants += 1;
                    ledger.whole_instant_ns += end.duration_since(start).as_nanos() as u64;
                }
                if let Some(s) = &mut sink {
                    s.store.close(span, end);
                }
                next
            }
        };
        match next {
            Some(next) => now = next,
            None => break,
        }
    }
    world.now = now;
    ledger.replica_flags = flags;
    world.client.metrics().cloned().unwrap_or_else(|| {
        SessionMetrics::failed(
            SessionOutcome::Failed,
            world
                .client
                .transport()
                .unwrap_or(rv_rtsp::TransportKind::Tcp),
        )
    })
}
