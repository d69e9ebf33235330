//! A deterministic future-event queue.
//!
//! [`EventQueue`] orders events by scheduled time, breaking ties by
//! insertion order (FIFO), so two runs with the same inputs dequeue events
//! identically — a requirement for reproducible experiments.
//!
//! Keys are 24-byte `(time, seq, slot)` triples over a slab of payloads,
//! so the queue moves a key, never an event (`zmail-core` asserts its
//! `Event`'s 144 bytes). A popped slot goes on a free list for the next
//! `schedule`: the slab is as long as the queue's peak depth since it
//! last drained. A pop that drains a slab grown past `KEEP_SLOTS` drops
//! the slab, the free list, the run and the heap, so a burst scheduled up
//! front (E17's 200,010 events) does not hold its memory after it has run.
//!
//! The keys live in two places, after the ladder queue's observation
//! (Tang, Goh & Thng, ACM TOMACS 2005) that work which arrives in order
//! need not be sorted again. A key whose time is at or after the time of
//! the last key in the sorted *run* is appended to it — `seq` only
//! grows, so the run stays sorted by `(time, seq)` — and any other key
//! goes to a binary heap. A pop takes the smaller of the run's front and
//! the heap's top. Every key is unique, so that is the same total order
//! one heap gives, and a caller that schedules in time order (a trace
//! loaded up front) pops in O(1).

use crate::clock::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// `(time, seq, slot)`: `seq` is unique, so a comparison never reaches
/// `slot` and the payload needs no `Ord`.
type Key = (SimTime, u64, u32);

/// Slab length a drained queue keeps its storage at: one longer is given
/// back when the last pending event pops. A queue that never grows past
/// it keeps its slab, so draining and refilling it allocates nothing.
const KEEP_SLOTS: usize = 4096;

/// A time-ordered queue of future events.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Keys scheduled in order, ascending by `(time, seq)`.
    run: VecDeque<Key>,
    /// Keys scheduled earlier in time than the run's last key was.
    heap: BinaryHeap<Reverse<Key>>,
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
            run: VecDeque::new(),
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
        let key = (time, self.seq, slot);
        match self.run.back() {
            Some(&(last, _, _)) if time < last => self.heap.push(Reverse(key)),
            _ => self.run.push_back(key),
        }
        self.seq += 1;
    }

    /// Removes and returns the earliest event, FIFO among ties.
    // Inlined into `Simulation::step`: called there out of line, it cost
    // the protocol world's trace run ≈5 % of its wall time.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let from_run = match (self.run.front(), self.heap.peek()) {
            (Some(run), Some(Reverse(heap))) => run < heap,
            (run, _) => run.is_some(),
        };
        let (time, _, slot) = if from_run {
            self.run.pop_front()
        } else {
            self.heap.pop().map(|Reverse(key)| key)
        }?;
        let event = self.slab[slot as usize]
            .take()
            .expect("a key's slot is full");
        if self.is_empty() && self.slab.len() > KEEP_SLOTS {
            self.run = VecDeque::new();
            self.heap = BinaryHeap::new();
            self.slab = Vec::new();
            self.free = Vec::new();
        } else {
            self.free.push(slot);
        }
        Some((time, event))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let run = self.run.front().map(|&(t, _, _)| t);
        let heap = self.heap.peek().map(|Reverse((t, _, _))| *t);
        match (run, heap) {
            (Some(run), Some(heap)) => Some(run.min(heap)),
            (run, heap) => run.or(heap),
        }
    }

    /// Removes *every* event scheduled at the earliest pending time —
    /// one tick's ready set — in FIFO order: the events that as many
    /// `pop` calls would return.
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
        self.run.len() + self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
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

    /// A burst past `KEEP_SLOTS` gives its storage back when the last
    /// event pops; a queue that stayed under it keeps its slab for reuse.
    /// Either way the sequence numbers carry on.
    #[test]
    fn a_drained_queue_above_the_floor_holds_no_storage() {
        let mut q = EventQueue::new();
        for i in 0..KEEP_SLOTS as u64 + 1 {
            q.schedule(t(i % 7), i);
        }
        q.schedule(t(0), u64::MAX); // behind the run: the heap is used too
        while q.len() > 1 {
            q.pop();
        }
        assert!(
            q.slab.capacity() > KEEP_SLOTS,
            "nothing is given back early"
        );
        q.pop();
        assert!(q.is_empty());
        assert_eq!(
            (
                q.slab.capacity(),
                q.free.capacity(),
                q.run.capacity(),
                q.heap.capacity()
            ),
            (0, 0, 0, 0)
        );
        assert_eq!(q.seq, KEEP_SLOTS as u64 + 2);
        q.schedule(t(3), 9);
        assert_eq!(q.pop(), Some((t(3), 9)));

        for i in 0..KEEP_SLOTS as u64 {
            q.schedule(t(i), i);
        }
        while q.pop().is_some() {}
        assert_eq!((q.slab.len(), q.free.len()), (KEEP_SLOTS, KEEP_SLOTS));
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

#[cfg(test)]
mod heap_model {
    use super::*;
    use crate::clock::SimDuration;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        /// One key at a time from a small range: ties and keys behind
        /// the run's last one are common.
        Schedule(u64),
        /// Keys at `from`, `from + step`, …: what the run is for.
        Burst {
            from: u64,
            step: u64,
            count: usize,
        },
        Pop,
        PopTick,
        /// A burst that grows the slab past `KEEP_SLOTS`, so the next
        /// drain gives the storage back.
        Flood {
            from: u64,
            step: u64,
        },
        /// Pops to empty, then schedules a burst of `count` again.
        DrainRefill {
            from: u64,
            step: u64,
            count: usize,
        },
    }

    /// An op, with a [`Op::Flood`] one time in 24 if `floods`, else none
    /// (a flood is 4,097 schedules: too many for every case).
    fn op(floods: bool) -> impl Strategy<Value = Op> {
        let kinds = if floods { 24 } else { 23 };
        (0..kinds, 0u64..8, 0u64..3, 1usize..12).prop_map(|(kind, from, step, count)| match kind {
            0..=7 => Op::Schedule(from),
            8..=11 => Op::Burst { from, step, count },
            12..=17 => Op::Pop,
            18..=20 => Op::PopTick,
            21..=22 => Op::DrainRefill { from, step, count },
            _ => Op::Flood { from, step },
        })
    }

    /// Run plus heap against one binary heap of `(time, serial)` keys,
    /// where the payload is the serial: every pop answers the same
    /// `(time, payload)`, and `peek_time`, `len` and `is_empty` agree
    /// after every op; a drain gives the storage back exactly when the
    /// slab had grown past `KEEP_SLOTS`.
    fn replay(ops: Vec<Op>) -> Result<(), TestCaseError> {
        let at = |secs| SimTime::ZERO + SimDuration::from_secs(secs);
        let mut queue = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut serial = 0u64;
        let mut schedule =
            |queue: &mut EventQueue<u64>, model: &mut BinaryHeap<Reverse<(SimTime, u64)>>, secs| {
                queue.schedule(at(secs), serial);
                model.push(Reverse((at(secs), serial)));
                serial += 1;
            };
        for op in ops {
            match op {
                Op::Schedule(secs) => schedule(&mut queue, &mut model, secs),
                Op::Burst { from, step, count } => {
                    for i in 0..count as u64 {
                        schedule(&mut queue, &mut model, from + i * step);
                    }
                }
                Op::Flood { from, step } => {
                    for i in 0..KEEP_SLOTS as u64 + 1 {
                        schedule(&mut queue, &mut model, from + i % 5 * step);
                    }
                    prop_assert!(queue.slab.len() > KEEP_SLOTS);
                }
                Op::DrainRefill { from, step, count } => {
                    let slab = queue.slab.len();
                    while let Some(popped) = queue.pop() {
                        prop_assert_eq!(Some(popped), model.pop().map(|Reverse(key)| key));
                    }
                    prop_assert!(model.is_empty());
                    if slab > KEEP_SLOTS {
                        prop_assert_eq!(queue.slab.capacity(), 0);
                    } else {
                        prop_assert_eq!(queue.slab.len(), slab);
                    }
                    for i in 0..count as u64 {
                        schedule(&mut queue, &mut model, from + i * step);
                    }
                }
                Op::Pop => {
                    let expected = model.pop().map(|Reverse(key)| key);
                    prop_assert_eq!(queue.pop(), expected);
                }
                Op::PopTick => {
                    let expected = model.peek().map(|&Reverse((time, _))| time).map(|time| {
                        let mut tick = Vec::new();
                        while model.peek().is_some_and(|Reverse((t, _))| *t == time) {
                            tick.push(model.pop().expect("peeked").0 .1);
                        }
                        (time, tick)
                    });
                    prop_assert_eq!(queue.pop_tick(), expected);
                }
            }
            prop_assert_eq!(queue.peek_time(), model.peek().map(|Reverse((t, _))| *t));
            prop_assert_eq!(queue.len(), model.len());
            prop_assert_eq!(queue.is_empty(), model.is_empty());
            prop_assert_eq!(queue.slab.len(), queue.len() + queue.free.len());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn run_and_heap_pop_what_one_heap_pops(ops in proptest::collection::vec(op(false), 0..150)) {
            replay(ops)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn floods_drain_to_what_one_heap_pops(ops in proptest::collection::vec(op(true), 0..150)) {
            replay(ops)?;
        }
    }
}
