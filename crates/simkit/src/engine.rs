//! The discrete-event engine.
//!
//! The scheduler is an **intrusive slab timing wheel**: a hierarchical
//! timing wheel (Varghese & Lauck) whose buckets are linked lists threaded
//! through one slab of nodes, so an event is written once (into its node,
//! at `push`) and read once (out of it, at `pop`); everything in between
//! moves 4-byte indices.
//!
//! **Geometry.** Level 0 is 4096 one-nanosecond slots under a two-level
//! occupancy bitmap, so a packet fabric's 52–1700 ns delays file directly
//! into the slot they fire from. Above it nine 64-slot levels bucket
//! times by the 6-bit digit at bit `12 + 6k`, covering every `u64`
//! timestamp with no overflow list. A time files at the level of the
//! highest digit in which it differs from the cursor, which makes slots
//! unambiguous without modular wraparound: a digit *behind* the cursor's
//! implies a difference higher up. The fixed tables are under 40 KB.
//!
//! **Nodes.** All pending events live in one `Vec<Node<E>>`; a slot is a
//! `(head, tail)` pair of node indices and freed nodes form an intrusive
//! free list, so steady-state scheduling allocates nothing and reuses the
//! node just popped. `push` is one node write plus a tail link, a cascade
//! relinks a slot's list one or more levels down without touching the
//! events, and `pop` unlinks the head of the level-0 slot under the
//! cursor. Events are `Copy` and the engine never looks inside one:
//! `push` is inlined so the caller's fields are stored straight into the
//! node, and `pop` copies the payload out as one block (with an
//! `Option<E>` in the node the compiler splits each event into tag and
//! body, and reassembling the two stalls every pop).
//!
//! **FIFO among simultaneous events.** Lists only ever grow at the tail.
//! A slot receives one cascade batch, in list order, when the cursor
//! enters the window above it, and direct inserts only once the cursor is
//! inside that window — after the batch. So
//! by induction every list is in push order; a level-0 slot holds one
//! timestamp; and an event scheduled for `now` from inside a handler
//! appends to the very list being drained. Simultaneous events therefore
//! fire in the order they were scheduled, exactly as a
//! `BinaryHeap<(time, seq)>` would pop them
//! (`timing_wheel_matches_heap_order`; the `goldens/` depend on it).
//! [`Simulator::step_shuffled`] is the test-only way round that order: it
//! fires a uniformly drawn one of the earliest instant's events, so a
//! result that depends on the tie-break shows up as a difference.
//!
//! Components do not hold references to each other: a single *world* type
//! (e.g. `netsim::NetWorld`) owns them all and dispatches events to them,
//! scheduling follow-ups through [`EventContext`] — no `Rc<RefCell<..>>`
//! aliasing, a few bit operations per event, no dynamic dispatch.

use crate::rng::SimRng;
use crate::time::SimTime;

/// Bits of the level-0 digit: 4096 one-nanosecond slots.
const L0_BITS: u32 = 12;
/// Level-0 slots.
const L0_SLOTS: usize = 1 << L0_BITS;
/// Occupancy words covering level 0.
const L0_WORDS: usize = L0_SLOTS / 64;
/// Bits per upper-level digit: 64 slots, one occupancy word, per level.
const BITS: u32 = 6;
/// Upper levels: ⌈(64 − 12) / 6⌉ = 9 six-bit digits cover the rest of a
/// `u64` timestamp, so arbitrarily far-future events land in a top-level
/// slot instead of a separate overflow queue.
const UPPER: usize = 9;
/// End of the free list.
const NIL: u32 = u32::MAX;

/// One slab node: a pending event or a free node.
#[derive(Debug)]
struct Node<E> {
    time: SimTime,
    /// Next node in this slot's list (meaningless in the tail node), or
    /// in the free list.
    next: u32,
    event: E,
}

/// A wheel slot: first and last node of its list. Only meaningful while
/// the slot's occupancy bit is set.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    head: u32,
    tail: u32,
}

/// Scheduling interface handed to event handlers while they run.
///
/// Holds the current simulation time and the pending-event queue; handlers
/// use it to schedule follow-up events.
pub struct EventContext<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E: Copy> EventContext<'a, E> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — time travel indicates a logic error
    /// in the caller and must never be silently reordered.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: now={} at={}",
            self.now,
            at
        );
        self.queue.push(at, event);
    }
}

/// The pending-event queue: the intrusive slab timing wheel.
struct EventQueue<E> {
    /// Every pending event, plus the free nodes.
    nodes: Vec<Node<E>>,
    /// Head of the free list threaded through [`Node::next`].
    free: u32,
    /// Level 0's slots, then each upper level's 64.
    slots: Vec<Slot>,
    /// One bit per slot, in `slots` order: word `w` covers slots
    /// `64 w ..`, so upper level `k` is word `L0_WORDS + k`.
    occupied: [u64; L0_WORDS + UPPER],
    /// One bit per non-zero level-0 word of `occupied`.
    l0_summary: u64,
    /// Wheel position (ns): every linked node is at `time >= cursor`, and
    /// the cursor never passes the simulator's clock.
    cursor: u64,
    /// Pending events.
    live: usize,
    peak: usize,
}

impl<E: Copy> EventQueue<E> {
    fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            slots: vec![Slot::default(); L0_SLOTS + (UPPER << BITS)],
            occupied: [0; L0_WORDS + UPPER],
            l0_summary: 0,
            cursor: 0,
            live: 0,
            peak: 0,
        }
    }

    /// Write `event` into a node (a recycled one when any is free) and
    /// link it into the wheel. Inlined so the caller builds the event in
    /// place instead of copying it in.
    #[inline(always)]
    fn push(&mut self, time: SimTime, event: E) {
        let node = Node {
            time,
            next: NIL,
            event,
        };
        let index = self.free;
        // `NIL` is past any slab length, so an empty free list reads as
        // out of range.
        let index = if let Some(reused) = self.nodes.get_mut(index as usize) {
            self.free = reused.next;
            *reused = node;
            index
        } else {
            let fresh = u32::try_from(self.nodes.len()).ok().filter(|&i| i != NIL);
            self.nodes.push(node);
            fresh.expect("over 4G pending events")
        };
        self.link(index, time.as_ns());
        self.live += 1;
        self.peak = self.peak.max(self.live);
    }

    /// Append node `index`, due at `t`, to the list of the slot `t` files
    /// under: level 0 when `t` is within the cursor's 4096 ns window, else
    /// the upper level of the highest digit where `t` and the cursor
    /// differ.
    fn link(&mut self, index: u32, t: u64) {
        debug_assert!(t >= self.cursor, "insert before wheel cursor");
        let x = t ^ self.cursor;
        let slot = if x < L0_SLOTS as u64 {
            let slot = (t & (L0_SLOTS as u64 - 1)) as usize;
            self.l0_summary |= 1 << (slot >> 6);
            slot
        } else {
            let level = (63 - x.leading_zeros() - L0_BITS) / BITS;
            let digit = (t >> (L0_BITS + BITS * level)) & 63;
            L0_SLOTS + ((level as usize) << BITS) + digit as usize
        };
        let (word, bit) = (&mut self.occupied[slot >> 6], 1u64 << (slot & 63));
        if *word & bit == 0 {
            *word |= bit;
            self.slots[slot] = Slot {
                head: index,
                tail: index,
            };
        } else {
            let tail = std::mem::replace(&mut self.slots[slot].tail, index);
            self.nodes[tail as usize].next = index;
        }
    }

    /// The first occupied level-0 slot at or after the cursor's.
    #[inline]
    fn next_l0_slot(&self) -> Option<usize> {
        let from = (self.cursor & (L0_SLOTS as u64 - 1)) as usize;
        let word = from >> 6;
        let hits = self.occupied[word] & (!0u64 << (from & 63));
        if hits != 0 {
            return Some((word << 6) | hits.trailing_zeros() as usize);
        }
        let later = self.l0_summary & ((!0u64 << word) << 1);
        if later == 0 {
            return None;
        }
        let word = later.trailing_zeros() as usize;
        Some((word << 6) | self.occupied[word].trailing_zeros() as usize)
    }

    /// Remove and return the earliest event `(time, event)` if it is due
    /// at or before `limit`; `None` when there is none. The cursor never
    /// moves past `limit`, so after `run_until` the clock may run ahead of
    /// the cursor but never behind it.
    fn pop_until(&mut self, limit: u64) -> Option<(SimTime, E)> {
        'scan: while self.live > 0 {
            if let Some(slot) = self.next_l0_slot() {
                let t = (self.cursor & !(L0_SLOTS as u64 - 1)) | slot as u64;
                if t > limit {
                    return None;
                }
                self.cursor = t;
                let Slot { head, tail } = self.slots[slot];
                let node = &mut self.nodes[head as usize];
                debug_assert_eq!(node.time.as_ns(), t, "level-0 slot holds one timestamp");
                let event = node.event;
                let next = std::mem::replace(&mut node.next, self.free);
                self.free = head;
                if head != tail {
                    self.slots[slot].head = next;
                } else {
                    let word = &mut self.occupied[slot >> 6];
                    *word &= !(1u64 << (slot & 63));
                    if *word == 0 {
                        self.l0_summary &= !(1u64 << (slot >> 6));
                    }
                }
                self.live -= 1;
                return Some((SimTime::from_ns(t), event));
            }
            // Level 0 is empty from the cursor on: cascade the next
            // occupied upper slot. Lower levels always hold earlier times
            // (an occupied upper slot is past the cursor's digit there,
            // which puts its whole window later).
            for level in 0..UPPER {
                let shift = L0_BITS + BITS * level as u32;
                let from = (self.cursor >> shift) & 63;
                let hits = self.occupied[L0_WORDS + level] & (!0u64 << from);
                if hits == 0 {
                    continue;
                }
                let digit = hits.trailing_zeros() as u64;
                let above = shift + BITS;
                let window = if above >= 64 {
                    0
                } else {
                    (self.cursor >> above) << above
                };
                let start = window | (digit << shift);
                if start > limit {
                    return None;
                }
                // Move the cursor to the window start and relink the
                // slot's nodes, in list order, one level (or more) down.
                self.cursor = start;
                self.occupied[L0_WORDS + level] &= !(1u64 << digit);
                let Slot { head, tail } = self.slots[L0_SLOTS + (level << BITS) + digit as usize];
                let mut index = head;
                loop {
                    let node = &self.nodes[index as usize];
                    let next = node.next;
                    self.link(index, node.time.as_ns());
                    if index == tail {
                        continue 'scan;
                    }
                    index = next;
                }
            }
            unreachable!("live events but an empty wheel");
        }
        None
    }

    /// The earliest event, as `pop_until(u64::MAX)` returns it, but drawn
    /// uniformly from every event due at that instant: the rest of them
    /// are the level-0 slot it came from, which holds one timestamp. The
    /// draw swaps payloads, so the slot's list keeps its shape.
    fn pop_shuffled(&mut self, rng: &mut SimRng) -> Option<(SimTime, E)> {
        let (time, first) = self.pop_until(u64::MAX)?;
        let slot = (time.as_ns() & (L0_SLOTS as u64 - 1)) as usize;
        if self.occupied[slot >> 6] & (1 << (slot & 63)) == 0 {
            return Some((time, first));
        }
        let Slot { head, tail } = self.slots[slot];
        let (mut ties, mut index) = (1, head);
        while index != tail {
            index = self.nodes[index as usize].next;
            ties += 1;
        }
        let pick = rng.index(ties + 1);
        if pick == ties {
            return Some((time, first));
        }
        index = head;
        for _ in 0..pick {
            index = self.nodes[index as usize].next;
        }
        let node = &mut self.nodes[index as usize];
        Some((time, std::mem::replace(&mut node.event, first)))
    }
}

/// A world owns every simulated component and dispatches events to them.
pub trait EventHandler {
    /// The event payload type routed through the queue: a small `Copy`
    /// message, stored in and copied out of a slab node.
    type Event: Copy;

    /// Handle one event. `ctx` exposes the current time and scheduling.
    fn handle_event(&mut self, event: Self::Event, ctx: &mut EventContext<'_, Self::Event>);
}

/// The simulator: an event queue plus a clock, driving a world.
pub struct Simulator<W: EventHandler> {
    queue: EventQueue<W::Event>,
    now: SimTime,
    processed: u64,
    /// The world being simulated; public so callers can inspect and mutate
    /// component state between runs.
    pub world: W,
}

impl<W: EventHandler> Simulator<W> {
    /// Create a simulator at time zero around `world`.
    pub fn new(world: W) -> Self {
        Simulator {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            world,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.live
    }

    /// Largest number of simultaneously pending events seen so far — the
    /// queue-pressure figure the perf trajectory records per scenario.
    pub fn peak_pending(&self) -> usize {
        self.queue.peak
    }

    /// Schedule an event at absolute time `at` (must be ≥ now).
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        assert!(at >= self.now, "scheduling into the past");
        self.queue.push(at, event);
    }

    /// Schedule an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: W::Event) {
        self.queue.push(self.now + delay, event);
    }

    /// Process a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        self.step_until(SimTime::MAX)
    }

    /// Process the earliest event if it is due at or before `limit`.
    #[inline]
    fn step_until(&mut self, limit: SimTime) -> bool {
        let Some((time, event)) = self.queue.pop_until(limit.as_ns()) else {
            return false;
        };
        debug_assert!(time >= self.now, "event from the past in queue");
        self.now = time;
        self.processed += 1;
        let mut ctx = EventContext {
            now: self.now,
            queue: &mut self.queue,
        };
        self.world.handle_event(event, &mut ctx);
        true
    }

    /// [`Simulator::step`] with the tie-break drawn from `rng`: of the
    /// events due at the earliest pending instant, a uniformly chosen one
    /// fires, not the first scheduled. For tests that hold a result
    /// independent of the order of simultaneous events; `step` and the
    /// `run*` loops never draw.
    pub fn step_shuffled(&mut self, rng: &mut SimRng) -> bool {
        let Some((time, event)) = self.queue.pop_shuffled(rng) else {
            return false;
        };
        self.now = time;
        self.processed += 1;
        let mut ctx = EventContext {
            now: time,
            queue: &mut self.queue,
        };
        self.world.handle_event(event, &mut ctx);
        true
    }

    /// Run until the queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until simulated time exceeds `until` or the queue empties.
    /// Events at exactly `until` are processed. The clock is left at
    /// `max(now, until)` so subsequent scheduling is relative to `until`.
    pub fn run_until(&mut self, until: SimTime) {
        while self.step_until(until) {}
        if self.now < until {
            self.now = until;
        }
    }

    /// [`Simulator::run_until`] that also stops, with the clock at that
    /// event's time, as soon as an event leaves at most `idle` events
    /// pending, and then returns `true`; `false` means `until` was reached
    /// as `run_until` reaches it. At least one due event is processed
    /// before the queue is looked at, so calling again always makes
    /// progress. For worlds whose own clock keeps `idle` events pending
    /// for ever: what is left then is the clock alone.
    pub fn run_until_idle(&mut self, until: SimTime, idle: usize) -> bool {
        while self.step_until(until) {
            if self.queue.live <= idle {
                return true;
            }
        }
        if self.now < until {
            self.now = until;
        }
        false
    }

    /// Run until at most `max_events` more events have been processed or the
    /// queue empties. Returns the number of events processed by this call.
    pub fn run_events(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that records the order events arrive in.
    struct Recorder {
        log: Vec<(u64, u32)>,
    }

    impl EventHandler for Recorder {
        type Event = u32;
        fn handle_event(&mut self, event: u32, ctx: &mut EventContext<'_, u32>) {
            self.log.push((ctx.now().as_ns(), event));
            // Event 1 spawns two children to exercise in-handler scheduling.
            if event == 1 {
                ctx.schedule_in(SimTime::from_ns(5), 10);
                ctx.schedule_in(SimTime::from_ns(5), 11);
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulator::new(Recorder { log: vec![] });
        sim.schedule_at(SimTime::from_ns(30), 3);
        sim.schedule_at(SimTime::from_ns(10), 1);
        sim.schedule_at(SimTime::from_ns(20), 2);
        sim.run();
        assert_eq!(
            sim.world.log,
            vec![(10, 1), (15, 10), (15, 11), (20, 2), (30, 3)]
        );
        assert_eq!(sim.events_processed(), 5);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut sim = Simulator::new(Recorder { log: vec![] });
        for i in 0..100u32 {
            sim.schedule_at(SimTime::from_ns(7), 100 + i);
        }
        sim.run();
        let order: Vec<u32> = sim.world.log.iter().map(|&(_, e)| e).collect();
        assert_eq!(order, (100..200).collect::<Vec<_>>());
    }

    /// Shuffled steps keep time order and fire every event once, and each
    /// of an instant's ties comes first about equally often.
    #[test]
    fn shuffled_steps_draw_among_ties_only() {
        let mut rng = SimRng::new(9);
        let mut first = [0u32; 4];
        for _ in 0..4_000 {
            let mut sim = Simulator::new(Recorder { log: vec![] });
            sim.schedule_at(SimTime::from_ns(5_000), 1);
            for e in [2, 3, 4] {
                sim.schedule_at(SimTime::from_ns(5_000), e);
            }
            sim.schedule_at(SimTime::from_ns(9_000), 5);
            while sim.step_shuffled(&mut rng) {}
            let log = &sim.world.log;
            assert_eq!(log.len(), 7);
            assert!(log.windows(2).all(|w| w[0].0 <= w[1].0), "{log:?}");
            let mut events: Vec<u32> = log.iter().map(|&(_, e)| e).collect();
            events.sort_unstable();
            assert_eq!(events, [1, 2, 3, 4, 5, 10, 11]);
            assert_eq!(log[6], (9_000, 5));
            first[log[0].1 as usize - 1] += 1;
        }
        assert!(
            first.iter().all(|&n| (900..1_100).contains(&n)),
            "{first:?}"
        );
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim = Simulator::new(Recorder { log: vec![] });
        sim.schedule_at(SimTime::from_ns(10), 2);
        sim.schedule_at(SimTime::from_ns(100), 3);
        sim.run_until(SimTime::from_ns(50));
        assert_eq!(sim.world.log, vec![(10, 2)]);
        assert_eq!(sim.now(), SimTime::from_ns(50));
        assert_eq!(sim.pending(), 1);
        sim.run();
        assert_eq!(sim.world.log.len(), 2);
    }

    #[test]
    fn run_until_inclusive_boundary() {
        let mut sim = Simulator::new(Recorder { log: vec![] });
        sim.schedule_at(SimTime::from_ns(50), 2);
        sim.run_until(SimTime::from_ns(50));
        assert_eq!(sim.world.log, vec![(50, 2)]);
    }

    /// A periodic event (a clock) beside a burst of work: the run stops at
    /// the event that leaves the clock alone, not at the horizon, and a
    /// second call processes one tick before it looks again.
    #[test]
    fn run_until_idle_stops_when_only_the_clock_is_left() {
        struct Clock {
            ticks: u32,
            work: u32,
        }
        impl EventHandler for Clock {
            type Event = u32;
            fn handle_event(&mut self, event: u32, ctx: &mut EventContext<'_, u32>) {
                if event == 0 {
                    self.ticks += 1;
                    ctx.schedule_in(SimTime::from_ns(10), 0);
                } else {
                    self.work += 1;
                }
            }
        }
        let mut sim = Simulator::new(Clock { ticks: 0, work: 0 });
        sim.schedule_at(SimTime::ZERO, 0);
        sim.schedule_at(SimTime::from_ns(25), 1);
        sim.schedule_at(SimTime::from_ns(47), 1);
        let horizon = SimTime::from_ns(1_000);
        assert!(sim.run_until_idle(horizon, 1));
        assert_eq!(sim.now(), SimTime::from_ns(47));
        assert_eq!((sim.world.work, sim.world.ticks, sim.pending()), (2, 5, 1));
        assert!(sim.run_until_idle(horizon, 1));
        assert_eq!((sim.now(), sim.world.ticks), (SimTime::from_ns(50), 6));
        // Never idle enough: the horizon, exactly as `run_until` leaves it.
        assert!(!sim.run_until_idle(horizon, 0));
        assert_eq!((sim.now(), sim.pending()), (horizon, 1));
        assert_eq!(sim.world.ticks, 101);
    }

    #[test]
    fn run_events_budget() {
        let mut sim = Simulator::new(Recorder { log: vec![] });
        for i in 0..10 {
            sim.schedule_at(SimTime::from_ns(i), i as u32 + 100);
        }
        assert_eq!(sim.run_events(4), 4);
        assert_eq!(sim.world.log.len(), 4);
        assert_eq!(sim.run_events(100), 6);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulator::new(Recorder { log: vec![] });
        sim.schedule_at(SimTime::from_ns(10), 1);
        sim.run();
        sim.schedule_at(SimTime::from_ns(5), 2);
    }

    #[test]
    fn empty_queue_step_false() {
        let mut sim = Simulator::new(Recorder { log: vec![] });
        assert!(!sim.step());
        assert_eq!(sim.pending(), 0);
    }

    /// The cascade-order trap: an event filed far ahead (level > 0, low
    /// seq) and one filed directly at the same timestamp later (level 0,
    /// higher seq) must still fire in seq order after the first cascades
    /// down. The wheel guarantees it structurally: a direct insert into
    /// a window's level-0 slot can only happen once the cursor is inside
    /// that window, i.e. strictly after the cascade filed its entries.
    #[test]
    fn cascaded_and_direct_same_time_keep_fifo() {
        let mut sim = Simulator::new(Recorder { log: vec![] });
        // Same timestamp, scheduled at wildly different distances: 101
        // is filed at a high level, 102 directly near the cursor once
        // time advances.
        sim.schedule_at(SimTime::from_ns(1 << 20), 101); // far: level 3
        sim.schedule_at(SimTime::from_ns(60), 100); // nudges the cursor
        sim.run_until(SimTime::from_ns(1 << 19));
        sim.schedule_at(SimTime::from_ns(1 << 20), 102); // near: lower level
        sim.run();
        let order: Vec<u32> = sim.world.log.iter().map(|&(_, e)| e).collect();
        assert_eq!(
            order,
            vec![100, 101, 102],
            "seq order across cascade depths"
        );
    }

    #[test]
    fn far_future_events_cross_every_level() {
        let mut sim = Simulator::new(Recorder { log: vec![] });
        // One event per wheel level, including the top (shift 60).
        let mut times: Vec<u64> = (0..11).map(|k| 1u64 << (6 * k)).collect();
        times.push(u64::MAX - 1);
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::from_ns(t), 100 + i as u32);
        }
        sim.run();
        let got: Vec<u64> = sim.world.log.iter().map(|&(t, _)| t).collect();
        assert_eq!(got, times, "popped in time order across all levels");
        assert_eq!(sim.events_processed(), 12);
    }

    /// A batch filed three levels up is relinked three times on its way
    /// down (its timestamps have a non-zero digit at every level), with
    /// same-time rivals appended behind it at each stage: everything still
    /// fires in (time, scheduling) order.
    #[test]
    fn cascade_preserves_order_across_levels() {
        let mut sim = Simulator::new(Recorder { log: vec![] });
        let at = |t: u64| SimTime::from_ns(t);
        let (l3, l2, l1) = (1u64 << 24, 1u64 << 18, 1u64 << 12);
        let base = l3 + 2 * l2 + 2 * l1;
        for (i, t) in [base + 5, base + 5, base + 4101, base]
            .into_iter()
            .enumerate()
        {
            sim.schedule_at(at(t), 100 + i as u32);
        }
        // Still outside the batch's level-3 window.
        sim.schedule_at(at(l3 - l2), 50);
        sim.run_until(at(l3 - l2));
        sim.schedule_at(at(base + 5), 200);
        // Inside it, outside its level-2 window.
        sim.schedule_at(at(l3 + 7), 51);
        sim.run_until(at(l3 + 7));
        sim.schedule_at(at(base + 5), 201);
        // Inside that, outside its level-1 window.
        sim.schedule_at(at(l3 + 2 * l2 + 9), 52);
        sim.run_until(at(l3 + 2 * l2 + 9));
        sim.schedule_at(at(base), 202);
        sim.schedule_at(at(base + 5), 203);
        sim.run();
        let order: Vec<u32> = sim.world.log.iter().map(|&(_, e)| e).collect();
        assert_eq!(
            order,
            vec![50, 51, 52, 103, 202, 100, 101, 200, 201, 203, 102]
        );
    }

    /// `run_until` must not let the wheel run ahead of the clock: an event
    /// scheduled between two calls, earlier than the one `run_until`
    /// stopped short of, still fires first.
    #[test]
    fn schedule_between_run_until_calls() {
        let mut sim = Simulator::new(Recorder { log: vec![] });
        sim.schedule_at(SimTime::from_ns(10), 101);
        sim.schedule_at(SimTime::from_ns(100), 103);
        sim.schedule_at(SimTime::from_ns(70_000), 104);
        sim.run_until(SimTime::from_ns(50));
        sim.schedule_at(SimTime::from_ns(60), 102);
        sim.run_until(SimTime::from_ns(5_000));
        sim.schedule_at(SimTime::from_ns(5_000), 105);
        sim.run();
        assert_eq!(
            sim.world.log,
            vec![
                (10, 101),
                (60, 102),
                (100, 103),
                (5_000, 105),
                (70_000, 104)
            ]
        );
    }

    #[test]
    fn peak_pending_high_water() {
        let mut sim = Simulator::new(Recorder { log: vec![] });
        for i in 0..50 {
            sim.schedule_at(SimTime::from_ns(100 + i), i as u32);
        }
        assert_eq!(sim.peak_pending(), 50);
        sim.run();
        assert_eq!(sim.pending(), 0);
        assert_eq!(sim.peak_pending(), 50, "peak survives the drain");
    }

    /// Churn through far more events than are ever pending at once: the
    /// slab stays at the high-water mark and `peak_pending` counts events,
    /// not nodes touched.
    #[test]
    fn slab_reuse_leaves_peak_pending_alone() {
        let mut sim = Simulator::new(Recorder { log: vec![] });
        for round in 0..200u64 {
            for i in 0..5 {
                sim.schedule_in(SimTime::from_ns(1 + i * 977), (100 + round * 5 + i) as u32);
            }
            sim.run_events(5);
        }
        assert_eq!(sim.events_processed(), 1000);
        assert_eq!(sim.peak_pending(), 5);
        assert_eq!(sim.queue.nodes.len(), 5, "nodes recycled, not appended");
    }

    /// What the packet simulator pays per pending event: a 16-byte,
    /// 8-aligned event (`netsim::NetEvent`'s shape) makes a 32-byte node.
    #[test]
    fn node_size_is_pinned() {
        assert!(std::mem::size_of::<Node<[u64; 2]>>() <= 32);
        let fixed = std::mem::size_of::<EventQueue<[u64; 2]>>()
            + std::mem::size_of::<Slot>() * (L0_SLOTS + (UPPER << BITS));
        assert!(fixed < 40 * 1024, "fixed tables are {fixed} B");
    }
}
