//! A deterministic future-event queue.
//!
//! [`EventQueue`] orders events by scheduled time, breaking ties by
//! insertion order (FIFO), so two runs with the same inputs dequeue events
//! identically — a requirement for reproducible experiments.
//!
//! The heap holds 24-byte `(time, seq, slot)` keys over a slab of
//! payloads, so a sift moves a key, never an event (`zmail-core` asserts
//! its `Event`'s 144 bytes). A popped slot goes on a free list for the
//! next `schedule`: the slab is as long as the queue's peak depth.

use crate::clock::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A time-ordered queue of future events.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// `seq` is unique, so the comparison never reaches `slot` and the
    /// payload needs no `Ord`.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Payloads by slot; `None` exactly at the slots in `free`.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    seq: u64,
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
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.heap.push(Reverse((time, self.seq, slot)));
        self.seq += 1;
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((time, _, slot)) = self.heap.pop()?;
        self.free.push(slot);
        let event = self.slab[slot as usize]
            .take()
            .expect("a key's slot is full");
        Some((time, event))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Removes *every* event scheduled at the earliest pending time —
    /// one tick's ready set — in FIFO order. The parallel-within-tick
    /// engine partitions this batch by footprint; popping the whole tick
    /// keeps the batch identical to what serial `pop` calls would see.
    pub fn pop_tick(&mut self) -> Option<(SimTime, Vec<E>)> {
        let time = self.peek_time()?;
        let mut events = Vec::new();
        while self.peek_time() == Some(time) {
            events.push(self.pop().expect("peeked").1);
        }
        Some((time, events))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.schedule(t(5), 0);
        assert_eq!(q.pop(), Some((t(5), 0)));
        q.schedule(t(7), 2);
        assert_eq!(q.pop(), Some((t(7), 2)));
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_does_not_consume() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(t(3), ());
        assert_eq!(q.peek_time(), Some(t(3)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_tick_takes_exactly_one_timestamp_fifo() {
        let mut q = EventQueue::new();
        q.schedule(t(5), "b");
        q.schedule(t(2), "a1");
        q.schedule(t(2), "a2");
        q.schedule(t(2), "a3");
        assert_eq!(q.pop_tick(), Some((t(2), vec!["a1", "a2", "a3"])));
        assert_eq!(q.pop_tick(), Some((t(5), vec!["b"])));
        assert_eq!(q.pop_tick(), None);
    }

    #[test]
    fn payload_needs_no_ord() {
        // f64 is not Ord; this compiles and runs because payloads are never
        // compared.
        let mut q = EventQueue::new();
        q.schedule(t(1), 0.5f64);
        q.schedule(t(1), f64::NAN);
        assert_eq!(q.len(), 2);
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, 0.5);
    }
}

#[cfg(test)]
mod model {
    use super::*;
    use crate::clock::SimDuration;
    use proptest::prelude::*;

    /// Neither `Ord` nor `Copy`: the queue may only move it.
    #[derive(Debug, Clone, PartialEq)]
    struct Payload(String, f64);

    /// The reference: pending `(time, insertion index, payload)`, kept
    /// stably sorted by the first two.
    #[derive(Debug, Clone, Default)]
    struct Model {
        pending: Vec<(SimTime, u64, Payload)>,
        inserted: u64,
    }

    impl Model {
        fn schedule(&mut self, time: SimTime, payload: Payload) {
            self.pending.push((time, self.inserted, payload));
            self.inserted += 1;
            self.pending.sort_by_key(|&(time, index, _)| (time, index));
        }

        fn pop(&mut self) -> Option<(SimTime, Payload)> {
            (!self.pending.is_empty()).then(|| {
                let (time, _, payload) = self.pending.remove(0);
                (time, payload)
            })
        }

        fn pop_tick(&mut self) -> Option<(SimTime, Vec<Payload>)> {
            let time = self.pending.first()?.0;
            let ready = self.pending.iter().take_while(|p| p.0 == time).count();
            let tick = self.pending.drain(..ready).map(|p| p.2).collect();
            Some((time, tick))
        }
    }

    /// Applies `op` to queue and model alike and compares what they
    /// answer; `serial` names the payload an op schedules.
    fn step(
        queue: &mut EventQueue<Payload>,
        model: &mut Model,
        (op, secs): (u8, u64),
        serial: usize,
    ) -> Result<(), TestCaseError> {
        match op {
            // Scheduling is the likeliest op, so the queue gets deep
            // enough for pops to free slots in the middle of the slab.
            0..=4 => {
                let time = SimTime::ZERO + SimDuration::from_secs(secs);
                let payload = Payload(format!("event {serial}"), serial as f64 / 2.0);
                queue.schedule(time, payload.clone());
                model.schedule(time, payload);
            }
            5..=7 => prop_assert_eq!(queue.pop(), model.pop()),
            _ => prop_assert_eq!(queue.pop_tick(), model.pop_tick()),
        }
        prop_assert_eq!(queue.peek_time(), model.pending.first().map(|p| p.0));
        prop_assert_eq!(queue.len(), model.pending.len());
        prop_assert_eq!(queue.is_empty(), model.pending.is_empty());
        // Every popped slot is reused before the slab grows.
        prop_assert_eq!(queue.slab.len(), queue.len() + queue.free.len());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Interleaved `schedule`/`pop`/`pop_tick` against the sorted
        /// vector, few distinct times so ties are the common case; then a
        /// clone and its original part ways, each against its own model.
        #[test]
        fn the_queue_is_a_stably_sorted_vector(
            ops in proptest::collection::vec((0u8..10, 0u64..6), 0..120),
            fork in proptest::collection::vec(((0u8..10, 0u64..6), (0u8..10, 0u64..6)), 0..40),
        ) {
            let (mut queue, mut model) = (EventQueue::new(), Model::default());
            let mut peak = 0;
            for (serial, &op) in ops.iter().enumerate() {
                step(&mut queue, &mut model, op, serial)?;
                peak = peak.max(queue.len());
                prop_assert_eq!(queue.slab.len(), peak);
            }
            let (mut cloned, mut cloned_model) = (queue.clone(), model.clone());
            for (serial, &(ours, theirs)) in fork.iter().enumerate() {
                step(&mut queue, &mut model, ours, ops.len() + 2 * serial)?;
                step(&mut cloned, &mut cloned_model, theirs, ops.len() + 2 * serial + 1)?;
            }
            while let Some(popped) = queue.pop() {
                prop_assert_eq!(Some(popped), model.pop());
            }
            prop_assert_eq!(cloned.pop_tick(), cloned_model.pop_tick());
        }
    }
}
