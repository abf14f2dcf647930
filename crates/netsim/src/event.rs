//! The deterministic event engine.
//!
//! The queue is a total order over pending events by `(time, sequence)`:
//! events scheduled for the same instant fire in insertion order, which
//! makes the whole simulation reproducible bit-for-bit.
//!
//! [`EventQueue`] keeps its events in two parts, and every pop takes the
//! `(time, seq)`-minimum of the two heads:
//!
//! * **Link rails** hold the per-packet events. A directed channel
//!   serializes one packet at a time, so it has **at most one** pending
//!   `ChannelIdle` (the departure of the packet being serialized), and
//!   its deliveries leave in FIFO order: each arrival is `done + delay`,
//!   where `done` is non-decreasing and `delay` is a link constant. That
//!   holds under brownouts (which only stretch `done`) and under link
//!   flaps (which drop, never reorder); `Channel::serialize_spans`
//!   states it at the source. Each channel's rail is a one-slot
//!   departure plus a `VecDeque` of deliveries with their payload
//!   inline. One more rail carries host-local sends ([`LinkId::NONE`]),
//!   which are always scheduled at the current time and so also arrive
//!   in order. A small index-min-heap over rails — one entry per channel
//!   with pending events, topology-sized rather than event-sized —
//!   yields the earliest rail head, so the per-packet cost is two deque
//!   operations and a near-top fixup instead of full-depth heap sifts.
//! * **One binary heap** holds timers, agent messages and faults, as
//!   compact entries of at most 40 bytes (`event_size_stays_small`):
//!   sifts copy whole entries, so their size multiplies heap traffic.
//!
//! Both rail invariants — one pending departure per channel, and
//! strictly increasing `(time, seq)` along each rail — are asserted on
//! every schedule, release builds included. A violation is a simulator
//! bug; letting it through would silently reorder events.
//!
//! ## Capacity release
//!
//! Large scenarios grow the engine's internal buffers to their peak
//! event population. When the queue drains (and on explicit
//! [`EventQueue::shrink_to_fit`] calls) any oversized buffer is returned
//! to the allocator, so a process running many scenarios back to back
//! holds peak memory only while the peak scenario runs.

use crate::link::LinkId;
use crate::node::NodeId;
use crate::packet::Packet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A packet in flight: the payload of [`EventKind::Deliver`].
///
/// Besides the packet itself, a delivery remembers which channel carried
/// it (`via`) and that channel's incarnation (`epoch`) at serialization
/// time, so fault injection can cut packets that were on the wire when a
/// link went down: the arrival handler drops any delivery whose stamped
/// epoch no longer matches the channel's. Host-local sends use
/// [`LinkId::NONE`] and are never cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Receiving node.
    pub node: NodeId,
    /// The channel the packet crossed ([`LinkId::NONE`] for local sends).
    pub via: LinkId,
    /// The channel's epoch when serialization started.
    pub epoch: u32,
    /// The packet.
    pub pkt: Packet,
}

/// What happens when an event fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A packet finishes propagation and arrives.
    Deliver(Delivery),
    /// A directed channel finishes serializing its current packet and may
    /// start the next one.
    ChannelIdle {
        /// The channel that became idle.
        link: LinkId,
    },
    /// An agent-scheduled timer fires; `agent` is the agent index and
    /// `token` an opaque value the agent chose.
    Timer {
        /// Owning agent (index into the simulator's agent table).
        agent: u32,
        /// Opaque discriminator chosen by the agent.
        token: u64,
    },
    /// An agent-to-agent message (e.g. a workload driver commanding a
    /// transport endpoint, or an endpoint reporting completion).
    Message {
        /// Receiving agent index.
        to: u32,
        /// Sending agent index.
        from: u32,
        /// Opaque payload.
        token: u64,
    },
    /// An installed fault fires; `index` points into the simulator's
    /// fault table (see [`crate::fault::FaultPlan`]).
    Fault {
        /// Index into the simulator's installed-fault table.
        index: u32,
    },
}

/// A scheduled event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// When the event fires.
    pub at: SimTime,
    /// Insertion sequence number (tie-break).
    pub seq: u64,
    /// The action.
    pub kind: EventKind,
}

/// Buffers at or below this capacity are kept across drains; bigger
/// ones are released (see module docs, *Capacity release*).
const KEEP_CAPACITY: usize = 64;

/// The event kinds that live in the heap, without the fat `Deliver`
/// variant.
#[derive(Debug)]
enum HeapKind {
    Timer { agent: u32, token: u64 },
    Message { to: u32, from: u32, token: u64 },
    Fault { index: u32 },
}

/// A heap entry, min-ordered by `(at, seq)`.
#[derive(Debug)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    kind: HeapKind,
}

impl HeapEntry {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }

    fn into_event(self) -> Event {
        let kind = match self.kind {
            HeapKind::Timer { agent, token } => EventKind::Timer { agent, token },
            HeapKind::Message { to, from, token } => EventKind::Message { to, from, token },
            HeapKind::Fault { index } => EventKind::Fault { index },
        };
        Event {
            at: self.at,
            seq: self.seq,
            kind,
        }
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for HeapEntry {}

/// An in-flight delivery riding a link rail (payload inline: deque
/// pushes don't sift, so fat entries cost one copy each way).
#[derive(Debug)]
struct RailDelivery {
    at: SimTime,
    seq: u64,
    d: Delivery,
}

/// One directed channel's pending events: the (single) departure of the
/// packet being serialized, and the FIFO of packets on the wire.
#[derive(Debug, Default)]
struct Rail {
    departure: Option<(SimTime, u64)>,
    deliveries: VecDeque<RailDelivery>,
}

impl Rail {
    fn head_key(&self) -> Option<(SimTime, u64)> {
        let del = self.deliveries.front().map(|r| (r.at, r.seq));
        match (self.departure, del) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// The rail index of `link`: channel `i` rides rail `i + 1`, and
/// host-local sends ([`LinkId::NONE`], `u32::MAX`) wrap to rail 0.
fn rail_of(link: LinkId) -> usize {
    link.0.wrapping_add(1) as usize
}

/// Sentinel for "not in the rail index heap".
const ABSENT: u32 = u32::MAX;

/// An index-min-heap entry: a rail's head `(time, seq)` key, cached,
/// plus the rail it belongs to. Caching the key keeps sift comparisons
/// inside the heap array instead of chasing into `rails` twice per
/// comparison.
#[derive(Debug, Clone, Copy)]
struct RailEntry {
    at: SimTime,
    seq: u64,
    rail: u32,
}

impl RailEntry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Per-link rails under an index-min-heap keyed by each rail's head
/// `(time, seq)`.
#[derive(Debug, Default)]
struct Rails {
    rails: Vec<Rail>,
    heap: Vec<RailEntry>,
    /// `pos[rail] == ABSENT` when the rail has no pending events.
    pos: Vec<u32>,
}

impl Rails {
    fn ensure(&mut self, ri: usize) {
        if ri >= self.rails.len() {
            self.rails.resize_with(ri + 1, Rail::default);
            self.pos.resize(ri + 1, ABSENT);
        }
    }

    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].rail as usize] = a as u32;
        self.pos[self.heap[b].rail as usize] = b as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].key() < self.heap[parent].key() {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let mut best = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.heap.len() && self.heap[child].key() < self.heap[best].key() {
                    best = child;
                }
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    /// Re-positions rail `ri` in the index heap after its head changed,
    /// refreshing the cached key.
    fn reindex(&mut self, ri: usize) {
        let head = self.rails[ri].head_key();
        match (self.pos[ri], head) {
            (ABSENT, Some((at, seq))) => {
                let i = self.heap.len();
                self.heap.push(RailEntry {
                    at,
                    seq,
                    rail: ri as u32,
                });
                self.pos[ri] = i as u32;
                self.sift_up(i);
            }
            (ABSENT, None) => {}
            (p, Some((at, seq))) => {
                let p = p as usize;
                self.heap[p].at = at;
                self.heap[p].seq = seq;
                self.sift_up(p);
                self.sift_down(p);
            }
            (p, None) => {
                let p = p as usize;
                let last = self.heap.len() - 1;
                if p != last {
                    self.swap(p, last);
                }
                self.heap.pop();
                self.pos[ri] = ABSENT;
                if p < self.heap.len() {
                    self.sift_up(p);
                    self.sift_down(p);
                }
            }
        }
    }

    fn push_departure(&mut self, link: LinkId, at: SimTime, seq: u64) {
        let ri = rail_of(link);
        self.ensure(ri);
        let rail = &mut self.rails[ri];
        assert!(
            rail.departure.is_none(),
            "second pending ChannelIdle on {link:?}: a channel serializes one packet at a time"
        );
        let old = rail.head_key();
        rail.departure = Some((at, seq));
        if old != rail.head_key() {
            self.reindex(ri);
        }
    }

    fn push_delivery(&mut self, at: SimTime, seq: u64, d: Delivery) {
        let ri = rail_of(d.via);
        self.ensure(ri);
        let rail = &mut self.rails[ri];
        if let Some(tail) = rail.deliveries.back() {
            assert!(
                (tail.at, tail.seq) < (at, seq),
                "out-of-order delivery on {:?}: arrives at {at:?}, before the rail tail at {:?}",
                d.via,
                tail.at
            );
        }
        let old = rail.head_key();
        rail.deliveries.push_back(RailDelivery { at, seq, d });
        if old != rail.head_key() {
            self.reindex(ri);
        }
    }

    #[inline]
    fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.first().map(RailEntry::key)
    }

    /// Pops the earliest rail event; the caller has established that
    /// one exists.
    fn pop_min(&mut self) -> Event {
        let ri = self.heap[0].rail as usize;
        let rail = &mut self.rails[ri];
        let take_departure = match (rail.departure, rail.deliveries.front()) {
            (Some(a), Some(b)) => a < (b.at, b.seq),
            (departure, _) => departure.is_some(),
        };
        let ev = if take_departure {
            let (at, seq) = rail.departure.take().expect("checked");
            let link = LinkId((ri as u32).wrapping_sub(1));
            Event {
                at,
                seq,
                kind: EventKind::ChannelIdle { link },
            }
        } else {
            let r = rail.deliveries.pop_front().expect("indexed rail is empty");
            Event {
                at: r.at,
                seq: r.seq,
                kind: EventKind::Deliver(r.d),
            }
        };
        self.reindex(ri);
        ev
    }

    fn capacity(&self) -> usize {
        self.rails
            .iter()
            .map(|r| r.deliveries.capacity())
            .filter(|&c| c > KEEP_CAPACITY)
            .sum()
    }

    fn release(&mut self) {
        for r in &mut self.rails {
            if r.deliveries.capacity() > KEEP_CAPACITY {
                r.deliveries.shrink_to_fit();
            }
        }
    }
}

/// The simulation's event queue: link rails plus one binary heap, under
/// one `(time, seq)` order (see the module docs).
#[derive(Debug, Default)]
pub struct EventQueue {
    next_seq: u64,
    len: usize,
    heap: BinaryHeap<HeapEntry>,
    rails: Rails,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` to fire at `at`.
    ///
    /// # Panics
    /// Panics if a `ChannelIdle` is scheduled while the same channel
    /// still has one pending, or if a delivery arrives before a pending
    /// delivery over the same channel (see the module docs).
    #[inline]
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let kind = match kind {
            EventKind::Deliver(d) => return self.rails.push_delivery(at, seq, d),
            EventKind::ChannelIdle { link } => return self.rails.push_departure(link, at, seq),
            EventKind::Timer { agent, token } => HeapKind::Timer { agent, token },
            EventKind::Message { to, from, token } => HeapKind::Message { to, from, token },
            EventKind::Fault { index } => HeapKind::Fault { index },
        };
        self.heap.push(HeapEntry { at, seq, kind });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_before(SimTime::MAX)
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `deadline`; later events stay queued.
    ///
    /// Peek and pop are fused: the run loop calls this once per event,
    /// so the min-across-parts comparison happens exactly once.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<Event> {
        let heap = self.heap.peek().map(HeapEntry::key);
        let (at, take_rail) = match (self.rails.peek_key(), heap) {
            (Some(r), Some(h)) if r < h => (r.0, true),
            (_, Some(h)) => (h.0, false),
            (Some(r), None) => (r.0, true),
            (None, None) => return None,
        };
        if at > deadline {
            return None;
        }
        let ev = if take_rail {
            self.rails.pop_min()
        } else {
            self.heap.pop().expect("peeked").into_event()
        };
        self.len -= 1;
        if self.len == 0 {
            self.maybe_release();
        }
        Some(ev)
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap = self.heap.peek().map(HeapEntry::key);
        match (self.rails.peek_key(), heap) {
            (Some(r), Some(h)) => Some(r.min(h).0),
            (r, h) => r.or(h).map(|k| k.0),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate retained capacity, in event-sized slots — the
    /// observable the capacity-release tests bound.
    pub fn capacity(&self) -> usize {
        self.heap.capacity() + self.rails.capacity()
    }

    /// Releases oversized internal buffers (see module docs). Called
    /// automatically whenever the queue drains; harmless mid-run.
    pub fn shrink_to_fit(&mut self) {
        if self.heap.capacity() > KEEP_CAPACITY {
            self.heap.shrink_to_fit();
        }
        self.rails.release();
    }

    fn maybe_release(&mut self) {
        if self.capacity() > 4 * KEEP_CAPACITY {
            self.shrink_to_fit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use std::collections::BTreeMap;

    fn timer(agent: u32, token: u64) -> EventKind {
        EventKind::Timer { agent, token }
    }

    fn deliver(via: LinkId, token: u64) -> EventKind {
        EventKind::Deliver(Delivery {
            node: NodeId(1),
            via,
            epoch: 0,
            pkt: Packet::data(FlowId(1), NodeId(0), NodeId(1), token * 100, 100),
        })
    }

    /// The reference queue the equivalence tests compare against: every
    /// event in one ordered map keyed by `(time, seq)`.
    #[derive(Default)]
    struct Reference {
        next_seq: u64,
        events: BTreeMap<(SimTime, u64), EventKind>,
    }

    impl Reference {
        fn schedule(&mut self, at: SimTime, kind: EventKind) {
            self.events.insert((at, self.next_seq), kind);
            self.next_seq += 1;
        }

        fn pop(&mut self) -> Option<Event> {
            let ((at, seq), kind) = self.events.pop_first()?;
            Some(Event { at, seq, kind })
        }
    }

    /// Drives the queue and the reference through the same schedule,
    /// the way the simulator would: at most one pending departure per
    /// link, in-order deliveries per link, local sends and messages at
    /// the current time, timers near and seconds out, faults, and
    /// interleaved pops that advance the clock. Asserts every pop
    /// matches and returns how many events popped.
    fn drive(ops: impl IntoIterator<Item = (u64, u8)>) -> usize {
        const LINKS: usize = 4;
        let mut q = EventQueue::new();
        let mut reference = Reference::default();
        let mut now = 0u64;
        let mut departing = [false; LINKS];
        let mut tail = [0u64; LINKS];
        let mut popped = 0;
        let mut pop = |q: &mut EventQueue,
                       reference: &mut Reference,
                       now: &mut u64,
                       departing: &mut [bool; LINKS]|
         -> bool {
            let (got, want) = (q.pop(), reference.pop());
            assert_eq!(got, want, "divergence at pop {popped}");
            let Some(e) = got else { return false };
            popped += 1;
            assert!(e.at.0 >= *now, "time went backwards");
            *now = e.at.0;
            if let EventKind::ChannelIdle { link } = e.kind {
                departing[link.index()] = false;
            }
            true
        };
        for (i, (r, op)) in ops.into_iter().enumerate() {
            let i = i as u64;
            // Quantize offsets so same-instant ties are common.
            let near = now + (r % 5_000) / 1_000 * 1_000;
            let li = (r / 7) as usize % LINKS;
            let link = LinkId(li as u32);
            let mut both = |at: u64, kind: EventKind| {
                q.schedule(SimTime(at), kind.clone());
                reference.schedule(SimTime(at), kind);
            };
            match op % 10 {
                0 if !departing[li] => {
                    departing[li] = true;
                    both(near, EventKind::ChannelIdle { link });
                }
                0..=2 => {
                    tail[li] = tail[li].max(near);
                    both(tail[li], deliver(link, i));
                }
                3 => both(now, deliver(LinkId::NONE, i)),
                4 => both(near, timer(0, i)),
                5 => both(now + 3_000_000_000 + r % 1_000, timer(1, i)),
                6 => both(
                    now,
                    EventKind::Message {
                        to: 0,
                        from: 1,
                        token: i,
                    },
                ),
                7 => both(near, EventKind::Fault { index: i as u32 }),
                _ => {
                    pop(&mut q, &mut reference, &mut now, &mut departing);
                }
            }
        }
        while pop(&mut q, &mut reference, &mut now, &mut departing) {}
        assert!(q.is_empty());
        popped
    }

    #[test]
    fn event_size_stays_small() {
        // Heap sifts copy whole entries; a fat entry (e.g. an inline
        // ~56-byte packet) multiplies the event loop's memory traffic.
        assert!(
            std::mem::size_of::<HeapEntry>() <= 40,
            "HeapEntry grew to {} bytes",
            std::mem::size_of::<HeapEntry>()
        );
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), timer(0, 1));
        q.schedule(SimTime(20), timer(0, 2));
        q.schedule(SimTime(20), timer(0, 3));
        q.schedule(SimTime(30), timer(0, 4));
        assert!(q.pop_before(SimTime(5)).is_none());
        assert_eq!(q.pop_before(SimTime(20)).unwrap().at, SimTime(10));
        // Deadline is inclusive, ties still pop in insertion order.
        let e2 = q.pop_before(SimTime(20)).unwrap();
        let e3 = q.pop_before(SimTime(20)).unwrap();
        assert!(e2.seq < e3.seq);
        assert!(q.pop_before(SimTime(20)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(SimTime::MAX).unwrap().at, SimTime(30));
        assert!(q.pop_before(SimTime::MAX).is_none());
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), timer(0, 3));
        q.schedule(SimTime(10), timer(0, 1));
        q.schedule(SimTime(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for token in 0..100 {
            q.schedule(SimTime(5), timer(0, token));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn near_and_far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        let times = [
            0u64,
            1,
            5_000,
            4_100_000,
            8_400_000,
            8_400_001,
            100_000_000,
            3_000_000_000, // seconds out
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), timer(0, i as u64));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at.0).collect();
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }

    #[test]
    fn peek_time_tracks_minimum() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime(42), timer(0, 0));
        q.schedule(SimTime(7), timer(0, 1));
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime(42)));
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime(1), timer(0, 0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn drain_releases_capacity() {
        let mut q = EventQueue::new();
        for i in 0..100_000u64 {
            q.schedule(SimTime(i * 13 % 50_000), timer(0, i));
        }
        assert!(q.capacity() >= 50_000, "queue should have grown");
        while q.pop().is_some() {}
        assert!(
            q.capacity() <= 4 * KEEP_CAPACITY,
            "retained {} slots after drain",
            q.capacity()
        );
    }

    #[test]
    #[should_panic(expected = "second pending ChannelIdle")]
    fn second_departure_on_a_busy_link_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), EventKind::ChannelIdle { link: LinkId(3) });
        q.schedule(SimTime(20), EventKind::ChannelIdle { link: LinkId(3) });
    }

    #[test]
    #[should_panic(expected = "out-of-order delivery")]
    fn delivery_before_the_rail_tail_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(100), deliver(LinkId(1), 0));
        q.schedule(SimTime(99), deliver(LinkId(1), 1));
    }

    /// A deterministic mixed workload for the equivalence test.
    fn mixed_op(i: u64) -> (u64, u8) {
        // Simple LCG so the pattern is fixed but irregular.
        let x = i
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 16, (x >> 8) as u8)
    }

    #[test]
    fn engines_pop_identically_on_mixed_traffic() {
        let popped = drive((0..4_000u64).map(mixed_op));
        // Every scheduled event popped, through rails and heap alike.
        assert!(popped > 3_000, "only {popped} events popped");
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Popping always yields a non-decreasing time sequence, and
            /// equal-time events preserve insertion order.
            #[test]
            fn total_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(SimTime(t), timer(0, i as u64));
                }
                let mut prev: Option<Event> = None;
                while let Some(e) = q.pop() {
                    if let Some(p) = &prev {
                        prop_assert!(p.at <= e.at);
                        if p.at == e.at {
                            prop_assert!(p.seq < e.seq);
                        }
                    }
                    prev = Some(e);
                }
            }

            /// Rails-plus-heap pops in exactly the reference order on
            /// random schedule/pop interleavings (see [`drive`]).
            #[test]
            fn engine_equivalence(ops in proptest::collection::vec((0u64..30_000_000, 0u8..10), 1..300)) {
                drive(ops);
            }
        }
    }
}
