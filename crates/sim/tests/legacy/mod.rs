//! The seed repository's event-queue implementation, kept as a test-only
//! reference model: `std::collections::BinaryHeap` plus two per-operation
//! `HashSet`s. The production queue (`acm_sim::event::EventQueue`) replaced
//! it with an implicit 4-ary heap over a generation-tagged slot arena; the
//! differential property test in `properties.rs` pits the two against each
//! other on random workloads.

use acm_sim::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Opaque handle identifying a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

struct Entry<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The seed's cancellable, deterministic future-event list.
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Sequence numbers still awaiting delivery (not fired, not cancelled).
    pending: HashSet<u64>,
    /// Cancelled-but-still-in-heap entries, skipped lazily on pop.
    cancelled: HashSet<u64>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: HashSet::new(),
            cancelled: HashSet::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`. Returns a handle for cancellation.
    pub fn schedule(&mut self, at: SimTime, payload: T) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
        self.pending.insert(seq);
        EventId(seq)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.pending.remove(&id.0) {
            self.cancelled.insert(id.0);
            true
        } else {
            false
        }
    }

    /// Removes and returns the earliest live event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            self.pending.remove(&entry.seq);
            return Some((entry.at, entry.payload));
        }
        None
    }

    /// Timestamp of the earliest live event, if any, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if self.cancelled.contains(&entry.seq) {
                let seq = entry.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
            } else {
                return Some(entry.at);
            }
        }
        None
    }

    /// Number of live (not cancelled) pending events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Discards all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.pending.clear();
        self.cancelled.clear();
    }
}
