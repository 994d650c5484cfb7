//! Deterministic future-event list.
//!
//! A discrete-event simulation advances by repeatedly popping the earliest
//! scheduled event. Determinism requires a total order even among events
//! scheduled for the *same* instant; we break ties by a sequence number.
//! External arrivals ([`EventQueue::schedule_arrival`]) draw theirs from a
//! range below every internally scheduled event's, so at equal timestamps
//! arrivals pop first, in arrival order, whenever they were enqueued; the
//! remaining events pop in the order they were scheduled (FIFO). Feeding
//! a trace in slices therefore pops exactly as enqueueing it up front.
//!
//! # Calendar-queue implementation
//!
//! Fleet-scale replays push tens of millions of events through this queue,
//! so since PR 6 the backing store is a *calendar queue* (Brown 1988): a
//! ring of time buckets of fixed width, plus a binary-heap overflow for
//! events beyond the wheel's horizon. Scheduling an in-horizon event is an
//! O(1) append to its bucket; popping sorts one bucket at a time into a
//! staging area and pops from its end, which is O(1) amortized because each
//! event is sorted exactly once in a bucket-sized batch. Far-future events
//! (keep-alive deadlines, trace arrivals hours ahead) wait in the overflow
//! heap and migrate into buckets when the wheel re-anchors, costing the
//! same O(log n) they would in a plain heap — so the calendar queue is
//! never worse than the `BinaryHeap` it replaced and is allocation- and
//! comparison-free for the dense near-future traffic that dominates a
//! replay.
//!
//! The observable contract is property-tested against a `BinaryHeap`
//! model: pops come out in strictly increasing `(time, seq)` order, i.e.
//! time order with arrivals-first, then FIFO, tie-breaking.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled on the future-event list, pairing a timestamp and a
/// tie-breaking sequence number with the payload.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Global scheduling order, used to break timestamp ties.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

// BinaryHeap is a max-heap; reverse the ordering to pop the earliest
// (time, seq) first.
impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}
impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Number of buckets on the wheel. With 1 ms buckets the wheel spans
/// ~1 s of virtual time — wide enough that deploy/exec/redispatch traffic
/// stays on the wheel while trace arrivals hours ahead overflow to the heap.
const BUCKETS: usize = 1024;
/// Bucket width in microseconds (1 ms).
const BUCKET_WIDTH_MICROS: u64 = 1_000;
/// First sequence number of internally scheduled events; arrivals count
/// up from 0 below it.
const INTERNAL_SEQ_BASE: u64 = 1 << 63;

/// A deterministic priority queue of timestamped events.
///
/// Events with equal timestamps are returned arrivals first, then in
/// insertion order, which makes every simulation in this workspace
/// reproducible bit-for-bit from its seed.
///
/// # Example
///
/// ```
/// use xanadu_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(3), "c");
/// q.schedule(SimTime::from_millis(1), "a");
/// q.schedule(SimTime::from_millis(1), "b"); // same instant as "a"
///
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(3), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The bucket currently being drained, sorted *descending* by
    /// `(time, seq)` so the earliest event pops from the end. Invariant:
    /// non-empty whenever `len > 0`, and every event outside `staging`
    /// orders after every event inside it.
    staging: Vec<ScheduledEvent<E>>,
    /// The wheel: bucket `i` holds events in
    /// `[anchor + i·width, anchor + (i+1)·width)`, unsorted.
    buckets: Vec<Vec<ScheduledEvent<E>>>,
    /// Next wheel bucket to stage; buckets before `cursor` are empty.
    cursor: usize,
    /// Virtual time (µs) at the start of bucket 0's window.
    anchor: u64,
    /// Events at or beyond the wheel horizon, in a min-ordered heap.
    overflow: BinaryHeap<ScheduledEvent<E>>,
    len: usize,
    /// High-water mark of `len` since creation.
    peak: usize,
    next_seq: u64,
    next_arrival_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            staging: Vec::new(),
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            cursor: 0,
            anchor: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            peak: 0,
            next_seq: INTERNAL_SEQ_BASE,
            next_arrival_seq: 0,
        }
    }

    /// Creates an empty queue pre-sized for roughly `capacity` pending
    /// events, so a replay that schedules its whole trace up front never
    /// regrows the overflow heap mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = Self::new();
        q.reserve(capacity);
        q
    }

    /// Reserves capacity for at least `additional` more scheduled events.
    pub fn reserve(&mut self, additional: usize) {
        // Trace-driven replays park almost everything in the overflow heap
        // (arrivals span hours; the wheel spans ~1 s), so that is where the
        // reservation pays off. A slice also goes to the staging vector,
        // which absorbs every event on its way out.
        self.overflow.reserve(additional);
        let per_bucket = additional / BUCKETS;
        if per_bucket > 0 {
            for b in &mut self.buckets {
                b.reserve(per_bucket);
            }
        }
    }

    /// Schedules `event` to fire at `time`. Returns the sequence number
    /// assigned to the event (useful for logging/cancellation schemes built
    /// on top).
    pub fn schedule(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(ScheduledEvent { time, seq, event })
    }

    /// Schedules an external arrival at `time`. At equal timestamps it
    /// pops before every [`schedule`](Self::schedule)d event, even one
    /// enqueued earlier, and after every arrival enqueued before it.
    pub fn schedule_arrival(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_arrival_seq;
        self.next_arrival_seq += 1;
        debug_assert!(self.next_arrival_seq < INTERNAL_SEQ_BASE);
        self.insert(ScheduledEvent { time, seq, event })
    }

    fn insert(&mut self, s: ScheduledEvent<E>) -> u64 {
        let seq = s.seq;
        self.place(s);
        self.len += 1;
        self.peak = self.peak.max(self.len);
        self.settle();
        seq
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.staging.pop()?;
        self.len -= 1;
        self.settle();
        Some((s.time, s.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.staging.last().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The most events ever pending at once since the queue was created.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every pending event.
    pub fn clear(&mut self) {
        self.staging.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        self.overflow.clear();
        self.cursor = 0;
        self.anchor = 0;
        self.len = 0;
    }

    /// Removes all pending events matching `pred`, returning how many were
    /// removed. Used by JIT deployment to cancel planned provisioning when a
    /// prediction miss is detected (§3.2.2 of the paper).
    pub fn cancel_where<F: FnMut(&E) -> bool>(&mut self, mut pred: F) -> usize {
        let mut kept = Vec::with_capacity(self.len);
        let mut removed = 0usize;
        for s in self.drain_all() {
            if pred(&s.event) {
                removed += 1;
            } else {
                kept.push(s);
            }
        }
        self.rebuild(kept);
        removed
    }

    /// Removes all pending events matching `pred` and returns them (with
    /// their scheduled times) in scheduling order. Unlike
    /// [`cancel_where`](Self::cancel_where), the caller gets the removed
    /// payloads back — fault recovery uses this to re-dispatch invocations
    /// that were waiting on a worker that just crashed.
    pub fn drain_where<F: FnMut(&E) -> bool>(&mut self, mut pred: F) -> Vec<(SimTime, E)> {
        let mut kept = Vec::with_capacity(self.len);
        let mut removed = Vec::new();
        for s in self.drain_all() {
            if pred(&s.event) {
                removed.push(s);
            } else {
                kept.push(s);
            }
        }
        self.rebuild(kept);
        removed.sort_by_key(|s| (s.time, s.seq));
        removed.into_iter().map(|s| (s.time, s.event)).collect()
    }

    /// Places an already-sequenced event into staging, a wheel bucket, or
    /// the overflow heap according to its timestamp.
    fn place(&mut self, s: ScheduledEvent<E>) {
        let t = s.time.as_micros();
        // Everything strictly before the staged window's end belongs in
        // staging (including "late" events scheduled for already-passed
        // windows — the simulation never does this, but the API allows it).
        // The u128 widening keeps the comparison exact even when the anchor
        // sits near u64::MAX (SimTime::MAX keep-alive sentinels).
        let staged_end = self.anchor as u128 + self.cursor as u128 * BUCKET_WIDTH_MICROS as u128;
        if (t as u128) < staged_end {
            let at = self
                .staging
                .partition_point(|e| (e.time, e.seq) > (s.time, s.seq));
            self.staging.insert(at, s);
        } else {
            // t >= staged_end >= anchor, so this subtraction cannot wrap.
            let idx = ((t - self.anchor) / BUCKET_WIDTH_MICROS) as usize;
            if idx < self.buckets.len() {
                self.buckets[idx].push(s);
            } else {
                self.overflow.push(s);
            }
        }
    }

    /// Restores the invariant that `staging` is non-empty whenever events
    /// are pending: advances the cursor to the next occupied bucket, sorting
    /// it into staging, and re-anchors the wheel from the overflow heap when
    /// a full rotation is exhausted.
    fn settle(&mut self) {
        if !self.staging.is_empty() || self.len == 0 {
            return;
        }
        loop {
            while self.cursor < self.buckets.len() && self.buckets[self.cursor].is_empty() {
                self.cursor += 1;
            }
            if self.cursor < self.buckets.len() {
                std::mem::swap(&mut self.staging, &mut self.buckets[self.cursor]);
                self.cursor += 1;
                self.staging
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
                return;
            }
            // Wheel exhausted: every pending event is in the overflow heap
            // (all at or beyond the old horizon). Re-anchor so the earliest
            // lands in bucket 0 and migrate one wheel-span of events.
            debug_assert!(!self.overflow.is_empty(), "len > 0 but no events stored");
            let min_t = self
                .overflow
                .peek()
                .expect("len > 0 but no events stored")
                .time
                .as_micros();
            self.anchor = min_t - min_t % BUCKET_WIDTH_MICROS;
            self.cursor = 0;
            while let Some(head) = self.overflow.peek() {
                let t = head.time.as_micros();
                let idx = ((t - self.anchor) / BUCKET_WIDTH_MICROS) as usize;
                if idx >= self.buckets.len() {
                    break;
                }
                let s = self.overflow.pop().expect("peeked");
                self.buckets[idx].push(s);
            }
        }
    }

    /// Empties every internal container into one unordered vector,
    /// resetting the wheel. Cold path shared by `cancel_where`/`drain_where`.
    fn drain_all(&mut self) -> Vec<ScheduledEvent<E>> {
        let mut all = Vec::with_capacity(self.len);
        all.append(&mut self.staging);
        for b in &mut self.buckets {
            all.append(b);
        }
        all.extend(self.overflow.drain());
        self.cursor = 0;
        self.anchor = 0;
        self.len = 0;
        all
    }

    /// Re-inserts events (which keep their original sequence numbers) after
    /// a `drain_all`, re-anchoring the wheel at the earliest timestamp.
    fn rebuild(&mut self, events: Vec<ScheduledEvent<E>>) {
        if let Some(min_t) = events.iter().map(|s| s.time.as_micros()).min() {
            self.anchor = min_t - min_t % BUCKET_WIDTH_MICROS;
        }
        self.len = events.len();
        for s in events {
            self.place(s);
        }
        self.settle();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &ms in &[50u64, 10, 30, 20, 40] {
            q.schedule(SimTime::from_millis(ms), ms);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn equal_timestamps_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn arrivals_pop_before_internal_events_at_the_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(1_500);
        q.schedule(t, "internal-a");
        q.schedule_arrival(t, "arrival-1");
        q.schedule(t, "internal-b");
        q.schedule_arrival(t, "arrival-2");
        q.schedule_arrival(SimTime::from_micros(1_499), "earlier");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            [
                "earlier",
                "arrival-1",
                "arrival-2",
                "internal-a",
                "internal-b"
            ]
        );
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        assert_eq!(q.len(), 1);
        assert!(q.pop().is_some());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn cancel_where_removes_matching_and_preserves_order() {
        let mut q = EventQueue::new();
        let t = SimTime::ZERO;
        for i in 0..10 {
            q.schedule(t + SimDuration::from_millis(i), i);
        }
        let removed = q.cancel_where(|e| e % 2 == 0);
        assert_eq!(removed, 5);
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn cancel_preserves_fifo_for_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..6 {
            q.schedule(t, i);
        }
        q.cancel_where(|e| *e == 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 4, 5]);
    }

    #[test]
    fn drain_where_returns_removed_in_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2);
        for i in 0..8 {
            // Interleave equal and distinct timestamps.
            q.schedule(t + SimDuration::from_millis(i / 2), i);
        }
        let removed = q.drain_where(|e| e % 2 == 0);
        assert_eq!(
            removed,
            vec![
                (t, 0),
                (t + SimDuration::from_millis(1), 2),
                (t + SimDuration::from_millis(2), 4),
                (t + SimDuration::from_millis(3), 6),
            ]
        );
        let kept: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(kept, vec![1, 3, 5, 7]);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn sequence_numbers_are_unique_and_increasing() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::ZERO, ());
        let b = q.schedule(SimTime::ZERO, ());
        assert!(b > a);
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        // Events hours ahead (trace arrivals) park in the overflow heap and
        // come back in order after the wheel re-anchors many times over.
        let mut q = EventQueue::new();
        let times = [
            SimTime::from_hours(5),
            SimTime::from_micros(3),
            SimTime::from_hours(1),
            SimTime::from_secs(2),
            SimTime::from_millis(900),
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut sorted: Vec<SimTime> = times.to_vec();
        sorted.sort();
        let popped: Vec<SimTime> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        // Pop some, then schedule events relative to the popped time — the
        // simulation's actual access pattern.
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.schedule(SimTime::from_millis(i * 7), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, i)) = q.pop() {
            assert!(t >= last, "time went backwards");
            last = t;
            popped += 1;
            if i % 3 == 0 {
                q.schedule(t + SimDuration::from_micros(i * 11 + 1), 1000 + i);
            }
        }
        assert_eq!(popped, 50 + 17);
    }

    #[test]
    fn simtime_max_sentinel_is_schedulable() {
        // Keep-alive code uses SimTime::MAX as a "never due" deadline; the
        // wheel's re-anchoring math must not overflow on it.
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "never");
        q.schedule(SimTime::from_millis(1), "soon");
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "soon")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "never")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(1 << 16);
        q.reserve(1024);
        q.schedule(SimTime::from_millis(2), "b");
        q.schedule(SimTime::from_millis(1), "a");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(2), "b")));
    }

    #[test]
    fn past_events_after_pop_still_order_correctly() {
        // The API does not forbid scheduling before the last popped time;
        // such events must pop before everything later, FIFO among equals.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "late");
        assert_eq!(q.pop().unwrap().1, "late");
        q.schedule(SimTime::from_secs(1), "past");
        q.schedule(SimTime::from_secs(20), "future");
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "future");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    /// Reference model: a plain `BinaryHeap` keyed by `(time, internal,
    /// schedule order)`, so arrivals win timestamp ties and each class is
    /// FIFO. Pop order must be identical.
    struct HeapModel {
        heap: BinaryHeap<Reverse<(SimTime, bool, u64, u32)>>,
        order: u64,
    }

    impl HeapModel {
        fn new() -> Self {
            HeapModel {
                heap: BinaryHeap::new(),
                order: 0,
            }
        }
        fn schedule(&mut self, time: SimTime, internal: bool, event: u32) {
            self.order += 1;
            self.heap.push(Reverse((time, internal, self.order, event)));
        }
        fn pop(&mut self) -> Option<(SimTime, u32)> {
            self.heap.pop().map(|Reverse((t, _, _, e))| (t, e))
        }
        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|Reverse((t, ..))| *t)
        }
        fn cancel_where<F: FnMut(&u32) -> bool>(&mut self, mut pred: F) -> usize {
            let before = self.heap.len();
            let kept: Vec<_> = self
                .heap
                .drain()
                .filter(|Reverse((.., e))| !pred(e))
                .collect();
            self.heap = kept.into();
            before - self.heap.len()
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Schedule(u64),
        Arrive(u64),
        Pop,
        CancelMod(u32),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Mix of near-future (on-wheel), coarse duplicate timestamps (tie
        // breaking, arrivals against internal events), far-future
        // (overflow heap), pops, and cancels.
        (0u32..12, 0u64..5_000_000, 2u32..5).prop_map(|(kind, t, m)| match kind {
            0..=3 => Op::Schedule(t),
            4 => Op::Schedule((t % 64) * 1_000),
            5 => Op::Schedule((t % 4) * 3_600_000_000),
            6..=8 => Op::Pop,
            9 => Op::CancelMod(m),
            10 => Op::Arrive((t % 64) * 1_000),
            _ => Op::Arrive(t),
        })
    }

    proptest! {
        #[test]
        fn pop_order_matches_binary_heap_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
            let mut q = EventQueue::new();
            let mut model = HeapModel::new();
            let mut payload = 0u32;
            let mut peak = 0;
            for op in ops {
                match op {
                    Op::Schedule(t) => {
                        q.schedule(SimTime::from_micros(t), payload);
                        model.schedule(SimTime::from_micros(t), true, payload);
                        payload += 1;
                    }
                    Op::Arrive(t) => {
                        q.schedule_arrival(SimTime::from_micros(t), payload);
                        model.schedule(SimTime::from_micros(t), false, payload);
                        payload += 1;
                    }
                    Op::Pop => {
                        prop_assert_eq!(q.pop(), model.pop());
                    }
                    Op::CancelMod(m) => {
                        let a = q.cancel_where(|e| e % m == 0);
                        let b = model.cancel_where(|e| e % m == 0);
                        prop_assert_eq!(a, b);
                    }
                }
                prop_assert_eq!(q.len(), model.heap.len());
                peak = peak.max(q.len());
                prop_assert_eq!(q.peak(), peak);
                prop_assert_eq!(q.peek_time(), model.peek_time());
            }
            // Drain both to the end: full order must agree.
            loop {
                let (a, b) = (q.pop(), model.pop());
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
