//! A stable discrete-event queue.
//!
//! Events are popped in nondecreasing time order; events scheduled for the
//! same instant are popped in the order they were pushed (FIFO). That
//! stability is what makes whole-simulation determinism cheap: no hash-map
//! iteration order or heap tie ambiguity ever leaks into results.
//!
//! # Two tiers
//!
//! Every push takes the next sequence number, and the pop order is the
//! total order on `(time, seq)`. The queue stores events in two tiers:
//!
//! - the **near tier** holds events due in `[now, now + NEAR_MS)`, one FIFO
//!   list per millisecond on a ring of [`NEAR_MS`] buckets, with a `u64`
//!   occupancy mask that finds the earliest bucket in O(1). Every list
//!   lives in one shared node slab with a free list;
//! - the **far tier** is a binary heap keyed `(time, seq)` that holds
//!   everything else: later events and (in release builds) pushes into
//!   the past.
//!
//! A bucket only ever holds one instant and is appended in push order, so
//! its FIFO order is seq order; [`EventQueue::pop`] compares the ring's
//! head with the heap's top on the full `(time, seq)` key. The pop order
//! is therefore exactly that of a single heap. The split pays because a
//! decentralized run's messages are almost all one network hop (1 ms)
//! ahead, while the queue's depth is mostly far-future task completions:
//! a message now costs a list append and unlink instead of two sifts
//! through thousands of completions. DESIGN.md, "Event queue", has the
//! full argument.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Width of the near tier in milliseconds: events due in
/// `[now, now + NEAR_MS)` go to a per-millisecond bucket, later ones to
/// the heap. One bit per bucket fills the `u64` occupancy mask. Public so
/// tests can aim pushes at the ring's edges; it is not a setting.
pub const NEAR_MS: u64 = u64::BITS as u64;

/// End-of-list marker for slab indices.
const NIL: u32 = u32::MAX;

/// An event plus its scheduling metadata, as stored in the far tier.
#[derive(Debug, Clone)]
pub struct EventEntry<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic insertion sequence number; breaks same-time ties FIFO.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> PartialEq for EventEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for EventEntry<E> {}

impl<E> PartialOrd for EventEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for EventEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One near-tier bucket: a FIFO list threaded through the node slab.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// A slab node: a linked near-tier event, or (with `event: None`) a free
/// slot whose `next` threads the free list.
#[derive(Debug)]
struct Node<E> {
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// The bucket an instant maps to.
fn bucket_of(t: SimTime) -> usize {
    (t.0 % NEAR_MS) as usize
}

/// A discrete-event priority queue with stable (FIFO) tie-breaking.
///
/// The queue also tracks the simulation clock: [`EventQueue::pop`] advances
/// `now` to the popped event's time, and pushing an event strictly in the
/// past panics in debug builds (an event sourced from time *t* may fire at
/// *t* — zero-latency self-messages are common in schedulers).
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Far tier: every event that was outside `[now, now + NEAR_MS)` when
    /// pushed, or was spilled from the ring.
    heap: BinaryHeap<EventEntry<E>>,
    /// Near tier: bucket `t % NEAR_MS` lists the events due at `t`, for
    /// every `t` in `[now, now + NEAR_MS)`. Boxed so the queue stays a
    /// few words wide inside a driver's state: inline, the 512-byte ring
    /// measurably slowed the central driver, which barely uses it.
    buckets: Box<[Bucket; NEAR_MS as usize]>,
    /// Bit `b` is set iff bucket `b` is non-empty.
    occupied: u64,
    /// Node slab shared by every bucket; it grows to the peak number of
    /// live near events and recycles through `free`.
    nodes: Vec<Node<E>>,
    /// Head of the slab's free list.
    free: u32,
    /// Events in the near tier.
    near_len: usize,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            buckets: Box::new([EMPTY; NEAR_MS as usize]),
            occupied: 0,
            nodes: Vec::new(),
            free: NIL,
            near_len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.near_len
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever pushed (diagnostics).
    pub fn pushed(&self) -> u64 {
        self.next_seq
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Debug-panics if `at` is before the current clock; the engine never
    /// rewrites history.
    pub fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        // A past `at` wraps to a huge offset and goes to the heap.
        if at.0.wrapping_sub(self.now.0) < NEAR_MS {
            self.push_near(at, seq, event);
        } else {
            self.heap.push(EventEntry {
                time: at,
                seq,
                event,
            });
        }
    }

    /// Schedule `event` at `delay` after the current clock.
    pub fn push_after(&mut self, delay: SimTime, event: E) {
        self.push(self.now + delay, event);
    }

    /// Pop the earliest event, advancing the clock to its time.
    ///
    /// An event earlier than the clock (pushed into the past in a release
    /// build, or passed by [`EventQueue::advance_to`]) still pops in
    /// `(time, seq)` order and moves the clock back to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if let Some((t, b)) = self.near_head() {
            let head = self.buckets[b].head;
            let near_first = match self.heap.peek() {
                Some(top) => (t, self.nodes[head as usize].seq) < (top.time, top.seq),
                None => true,
            };
            if near_first {
                let (_, event) = self.unlink_head(b);
                self.now = t;
                return Some((t, event));
            }
        }
        let entry = self.heap.pop()?;
        if entry.time < self.now {
            // The ring's bucket times are relative to `now`: empty it
            // before the clock moves back.
            self.spill_before(SimTime::MAX);
        }
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let near = self.near_head().map(|(t, _)| t);
        let far = self.heap.peek().map(|e| e.time);
        near.into_iter().chain(far).min()
    }

    /// Advance the clock to `t` without popping an event.
    ///
    /// For drivers that merge an external event source (e.g. a lazy
    /// arrival stream) with this queue: delivering a source event at `t`
    /// must advance the clock the same way popping a queued event at `t`
    /// would, so that subsequent [`EventQueue::push_after`] calls are
    /// relative to the right instant. Near-tier events due before `t`
    /// move to the heap first, so a bucket never holds two instants; they
    /// stay pending. Panics on rewinding the clock, in every build: the
    /// ring's bucket times are relative to `now`, so a rewind would
    /// misorder events silently.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "clock rewound: advance_to {t:?} from {:?}",
            self.now
        );
        if t > self.now && self.occupied != 0 {
            self.spill_before(t);
        }
        self.now = t;
    }

    /// Drop every pending event (the clock is unchanged).
    pub fn clear(&mut self) {
        self.heap.clear();
        *self.buckets = [EMPTY; NEAR_MS as usize];
        self.occupied = 0;
        self.nodes.clear();
        self.free = NIL;
        self.near_len = 0;
    }

    /// Time and bucket of the earliest non-empty near-tier bucket.
    fn near_head(&self) -> Option<(SimTime, usize)> {
        if self.occupied == 0 {
            return None;
        }
        // Rotating right by `now`'s bucket moves the bit of the bucket due
        // at `t` to position `t - now`.
        let offset = self
            .occupied
            .rotate_right(bucket_of(self.now) as u32)
            .trailing_zeros();
        let t = SimTime(self.now.0 + u64::from(offset));
        Some((t, bucket_of(t)))
    }

    /// Append an event due at `at` (within the ring window) to its bucket.
    ///
    /// Kept out of line: inlined into every push site, it measurably
    /// slowed the central driver, whose pushes are nearly all far.
    #[inline(never)]
    fn push_near(&mut self, at: SimTime, seq: u64, event: E) {
        let node = Node {
            seq,
            next: NIL,
            event: Some(event),
        };
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("near tier holds fewer than u32::MAX events");
            self.nodes.push(node);
            idx
        } else {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        let b = bucket_of(at);
        let bucket = &mut self.buckets[b];
        if bucket.tail == NIL {
            bucket.head = idx;
            self.occupied |= 1 << b;
        } else {
            self.nodes[bucket.tail as usize].next = idx;
        }
        bucket.tail = idx;
        self.near_len += 1;
    }

    /// Unlink the head of non-empty bucket `b`, returning its seq and
    /// event and recycling its node.
    fn unlink_head(&mut self, b: usize) -> (u64, E) {
        let idx = self.buckets[b].head;
        let node = &mut self.nodes[idx as usize];
        let event = node.event.take().expect("a linked node holds an event");
        let next = std::mem::replace(&mut node.next, self.free);
        let seq = node.seq;
        self.free = idx;
        let bucket = &mut self.buckets[b];
        bucket.head = next;
        if next == NIL {
            bucket.tail = NIL;
            self.occupied &= !(1 << b);
        }
        self.near_len -= 1;
        (seq, event)
    }

    /// Move every near-tier event due before `limit` to the heap, keeping
    /// its `(time, seq)` key.
    #[cold]
    #[inline(never)]
    fn spill_before(&mut self, limit: SimTime) {
        while let Some((t, b)) = self.near_head() {
            if t >= limit {
                break;
            }
            while self.buckets[b].head != NIL {
                let (seq, event) = self.unlink_head(b);
                self.heap.push(EventEntry {
                    time: t,
                    seq,
                    event,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_millis(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime::from_millis(5), i)));
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(42));
    }

    #[test]
    fn push_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), 0u32);
        q.pop();
        q.push_after(SimTime::from_millis(5), 1u32);
        assert_eq!(q.pop(), Some((SimTime::from_millis(15), 1)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    #[cfg(debug_assertions)]
    fn pushing_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), ());
        q.pop();
        q.push(SimTime::from_millis(5), ());
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(7), ());
        q.push(SimTime::from_millis(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pushed(), 2);
    }

    #[test]
    fn zero_latency_self_message_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), 0u8);
        q.pop();
        // An event may fire at the current instant.
        q.push(q.now(), 1u8);
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), 1)));
    }

    /// Drain `q`, returning every `(time, payload)` in pop order.
    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(u64, E)> {
        std::iter::from_fn(|| q.pop().map(|(t, e)| (t.0, e))).collect()
    }

    #[test]
    fn one_ms_messages_use_the_ring() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5_000), 0);
        for i in 1..=3 {
            q.push_after(SimTime::from_millis(1), i);
        }
        assert_eq!(q.near_len, 3);
        assert_eq!(q.heap.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(drain(&mut q), vec![(1, 1), (1, 2), (1, 3), (5_000, 0)]);
    }

    #[test]
    fn same_instant_tie_between_tiers_pops_the_lower_seq() {
        let mut q = EventQueue::new();
        // At now = 0 instant 100 is beyond the ring: seq 0 goes to the heap.
        q.push(SimTime::from_millis(100), "heap");
        q.push(SimTime::from_millis(50), "tick");
        assert_eq!(q.pop(), Some((SimTime::from_millis(50), "tick")));
        // At now = 50 the same instant is near: seqs 2 and 3 go to the ring.
        q.push(SimTime::from_millis(100), "ring-a");
        q.push(SimTime::from_millis(100), "ring-b");
        assert_eq!((q.heap.len(), q.near_len), (1, 2));
        assert_eq!(
            drain(&mut q),
            vec![(100, "heap"), (100, "ring-a"), (100, "ring-b")]
        );
    }

    #[test]
    fn ring_head_beats_a_later_heap_top() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(NEAR_MS), "far");
        q.push(SimTime::from_millis(NEAR_MS - 1), "near");
        assert_eq!((q.heap.len(), q.near_len), (1, 1));
        assert_eq!(drain(&mut q), vec![(NEAR_MS - 1, "near"), (NEAR_MS, "far")]);
    }

    #[test]
    fn mask_wraps_around_the_ring() {
        let mut q = EventQueue::new();
        let start = NEAR_MS - 4;
        q.push(SimTime::from_millis(start), 0);
        q.pop();
        // Offsets 0..NEAR_MS from `start` cover bucket indices that wrap
        // past the end of the ring; push them in a scrambled order.
        let mut times: Vec<u64> = (0..NEAR_MS).map(|k| start + (k * 37) % NEAR_MS).collect();
        times.push(start + NEAR_MS); // one past the window: heap
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i);
        }
        assert_eq!(q.occupied, u64::MAX);
        assert_eq!((q.near_len, q.heap.len()), (NEAR_MS as usize, 1));
        let popped: Vec<u64> = drain(&mut q).into_iter().map(|(t, _)| t).collect();
        let want: Vec<u64> = (start..=start + NEAR_MS).collect();
        assert_eq!(popped, want);
        assert_eq!(q.occupied, 0);
        // The slab kept its nodes for reuse.
        assert_eq!(q.nodes.len(), NEAR_MS as usize);
        q.push_after(SimTime::from_millis(1), 99);
        assert_eq!(q.nodes.len(), NEAR_MS as usize);
        assert_eq!(
            q.pop(),
            Some((SimTime::from_millis(start + NEAR_MS + 1), 99))
        );
    }

    #[test]
    fn advance_to_spills_passed_ring_entries_to_the_heap() {
        let mut q = EventQueue::new();
        for (t, e) in [(5, "a"), (10, "b"), (20, "c"), (10, "d")] {
            q.push(SimTime::from_millis(t), e);
        }
        assert_eq!(q.near_len, 4);
        q.advance_to(SimTime::from_millis(12));
        // 5 and 10 were passed: they moved to the heap and stay pending.
        assert_eq!((q.near_len, q.heap.len()), (1, 3));
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
        q.push_after(SimTime::from_millis(1), "e");
        // Every event still pops in (time, seq) order.
        assert_eq!(
            drain(&mut q),
            vec![(5, "a"), (10, "b"), (10, "d"), (13, "e"), (20, "c")]
        );
    }

    #[test]
    fn advance_to_keeps_unpassed_ring_entries_near() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(3), 0);
        q.push(SimTime::from_millis(40), 1);
        q.advance_to(SimTime::from_millis(3));
        q.advance_to(SimTime::from_millis(30));
        assert_eq!((q.near_len, q.heap.len()), (1, 1));
        q.push_after(SimTime::from_millis(NEAR_MS - 1), 2);
        assert_eq!(drain(&mut q), vec![(3, 0), (40, 1), (30 + NEAR_MS - 1, 2)]);
    }

    #[test]
    #[should_panic(expected = "clock rewound")]
    fn advance_to_rewind_panics_in_every_build() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_millis(10));
        q.advance_to(SimTime::from_millis(9));
    }

    #[test]
    fn clear_empties_both_tiers_and_the_queue_stays_usable() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1), 1);
        q.push(SimTime::from_millis(2), 2);
        q.push(SimTime::from_millis(10_000), 3);
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), SimTime::from_millis(1));
        assert_eq!(q.pushed(), 3);
        q.push_after(SimTime::from_millis(1), 4);
        q.push_after(SimTime::from_millis(1), 5);
        q.push(SimTime::from_millis(9_000), 6);
        assert_eq!(drain(&mut q), vec![(2, 4), (2, 5), (9_000, 6)]);
    }
}
