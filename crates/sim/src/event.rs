//! A time-ordered event queue with stable FIFO tie-breaking.
//!
//! The queue is generic over the event payload so each layer of the system
//! can define its own event vocabulary. Two events scheduled for the same
//! instant pop in the order they were pushed — without that guarantee,
//! heap-internal ordering would leak nondeterminism into the simulation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A scheduled occurrence: a payload due at an instant.
///
/// Ordering (and equality) consider only `(at, seq)` — the payload is cargo.
/// Since `seq` is unique per queue, ordering is total without constraining
/// the payload type.
#[derive(Debug, Clone)]
pub struct Scheduled<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Monotone sequence number assigned at push time; breaks ties.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (then
        // first-pushed) event is at the top.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic priority queue of future events.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// The instant of the earliest pending event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop()
    }

    /// Removes and returns the earliest event only if it is due at or before
    /// `now`. The workhorse of poll-style drivers:
    /// `while let Some(ev) = q.pop_due(now) { ... }`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Scheduled<E>> {
        if self.next_time()? <= now {
            self.heap.pop()
        } else {
            None
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// Folds optional wake-up times down to the earliest one.
///
/// Poll-based components report `Option<SimTime>` ("wake me then" or "I'm
/// idle"); drivers combine them with this helper. Equal to
/// `times.into_iter().flatten().min()`, spelled as a scalar loop: over a
/// by-value array the adapter chain reloads the array with wide loads
/// straddling the narrower stores that built it — a store-forwarding
/// stall per call, on a function drivers call every instant.
pub fn earliest<I>(times: I) -> Option<SimTime>
where
    I: IntoIterator<Item = Option<SimTime>>,
{
    let mut min = SimTime::MAX;
    let mut any = false;
    for t in times.into_iter().flatten() {
        any = true;
        min = min.min(t);
    }
    any.then_some(min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop().unwrap().event, "a");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().event, i);
        }
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "early");
        q.push(SimTime::from_secs(5), "late");
        let now = SimTime::from_secs(2);
        assert_eq!(q.pop_due(now).unwrap().event, "early");
        assert!(q.pop_due(now).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1u8);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.next_time(), None);
    }

    #[test]
    fn earliest_folds_options() {
        let a = Some(SimTime::from_secs(4));
        let b = None;
        let c = Some(SimTime::from_secs(2));
        assert_eq!(earliest([a, b, c]), Some(SimTime::from_secs(2)));
        assert_eq!(earliest([None, None]), None);
        assert_eq!(earliest(std::iter::empty()), None);
        // A wake at the end of time is still a wake, not "idle".
        assert_eq!(earliest([None, Some(SimTime::MAX)]), Some(SimTime::MAX));
        assert_eq!(earliest([Some(SimTime::MAX), a]), a);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        let base = SimTime::from_secs(10);
        q.push(base + SimDuration::from_millis(30), 3u32);
        q.push(base + SimDuration::from_millis(10), 1);
        assert_eq!(q.pop().unwrap().event, 1);
        q.push(base + SimDuration::from_millis(20), 2);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
    }
}
