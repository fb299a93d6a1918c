//! A hierarchical timing wheel — the event queue's scheduling core.
//!
//! The classic binary-heap event queue costs `O(log n)` per operation and
//! moves entries around on every sift. Discrete-event simulators with large
//! pending-event populations (dense timer sets, thousands of in-flight
//! packets) do better with the hashed hierarchical timing wheel of Varghese
//! & Lauck: `O(1)` schedule, `O(1)` amortized pop, entries written once per
//! residence level.
//!
//! ## Geometry
//!
//! Time in nanoseconds is quantized to **ticks** of `2^10` ns (1.024 µs —
//! finer than any serialization delay the experiments produce, so slot
//! collisions stay small). Ticks are split byte-wise across **4 levels ×
//! 256 slots**: level 0 spans 256 ticks (~262 µs), level 1 spans 256×256
//! ticks (~67 ms), level 2 ~17 s, level 3 ~73 min. Events beyond the
//! 4-level horizon (or past tick `2^32`) wait in a small overflow heap.
//!
//! An entry is placed by the **first differing byte** between its tick and
//! the wheel cursor: if tick and cursor agree above byte 0 the entry goes
//! in level 0 at slot `tick & 255`; if they agree above byte 1 it goes in
//! level 1 at slot `(tick >> 8) & 255`; and so on. When the cursor enters a
//! higher-level slot's window, the slot is **cascaded**: its entries are
//! re-placed relative to the new cursor and land at a strictly lower level.
//! This lazy re-placement preserves the key invariant — *level 0 always
//! holds exactly the entries of the cursor's current 256-tick window, so
//! the first occupied level-0 slot contains the global minimum*.
//!
//! ## Determinism contract
//!
//! Pops come out ordered by `(time, seq)` where `seq` is a monotone
//! per-wheel sequence number assigned at schedule time — byte-for-byte the
//! ordering of the binary-heap queue it replaces ([`BaselineHeapQueue`],
//! kept for equivalence testing and benchmarks). Entries scheduled in the
//! past (before the cursor) are clamped into the cursor's slot; the
//! `(time, seq)` sort inside the slot still yields them in exactly the
//! order the heap would.
//!
//! All entries living in the wheel's slots share one slab: a `Vec` of
//! nodes, each an entry plus the index of the next node in its slot, with
//! freed nodes threaded onto a free list for reuse. The slab grows to the
//! peak number of entries ever in the slots at once and never shrinks, so
//! steady-state scheduling allocates nothing. Each slot is a small `Copy`
//! header over an intrusive list kept ascending by `(time, seq)` from
//! `head`, caching the list's length and its minimum and last keys. The
//! common schedule patterns — same-tick FIFO bursts (monotone `seq`) and
//! clamped stragglers — append at the tail or prepend at the head without
//! disturbing the order; anything else appends and marks the slot
//! unsorted, and the slot is sorted on its first pop. The cached minimum
//! is exact either way, so reading a slot's earliest time never scans it,
//! and a cascade relinks nodes into lower slots without copying a payload.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// log2 of the tick quantum in nanoseconds (tick = `time >> TICK_SHIFT`).
const TICK_SHIFT: u32 = 10;
/// log2 of slots per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; ticks beyond `2^(LEVELS*8)` defer to the overflow heap.
const LEVELS: usize = 4;
/// The null node index: end of a slot's list or of the free list.
const NIL: u32 = u32::MAX;

/// One pending entry, ordered by `(time, seq)`.
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    time: u64,
    seq: u64,
    value: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// Overflow-heap wrapper ordered by `(time, seq)` only.
#[derive(Debug)]
struct HeapEntry<T>(Entry<T>);

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

/// One slab node: an entry and the next node of its slot's list (or of
/// the free list, once freed).
#[derive(Debug, Clone, Copy)]
struct Node<T> {
    entry: Entry<T>,
    next: u32,
}

/// One wheel slot: the header of an intrusive list of `len` slab nodes,
/// ascending by `(time, seq)` from `head` unless `sorted` is false, in
/// which case the next pop sorts it. `min` is the exact minimum key
/// either way; `last` is the key at `tail`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
    len: u32,
    sorted: bool,
    min: (u64, u64),
    last: (u64, u64),
}

impl Slot {
    const EMPTY: Slot = Slot {
        head: NIL,
        tail: NIL,
        len: 0,
        sorted: true,
        min: (0, 0),
        last: (0, 0),
    };
}

/// One level: 256 slot headers plus a 256-bit occupancy bitmap for
/// find-first-set scans.
#[derive(Debug)]
struct Level {
    slots: [Slot; SLOTS],
    occupied: [u64; SLOTS / 64],
}

impl Level {
    const EMPTY: Level = Level {
        slots: [Slot::EMPTY; SLOTS],
        occupied: [0; SLOTS / 64],
    };

    fn mark(&mut self, i: usize) {
        self.occupied[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self.occupied[i / 64] &= !(1 << (i % 64));
    }

    /// First occupied slot index `>= from`, if any.
    fn first_occupied_from(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = self.occupied[word] & (u64::MAX << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= SLOTS / 64 {
                return None;
            }
            bits = self.occupied[word];
        }
    }
}

/// Counters describing the wheel's internal work — exported as telemetry
/// gauges/counters by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Higher-level slots cascaded (drained and re-placed) so far.
    pub cascades: u64,
    /// Entries moved by those cascades.
    pub cascaded_entries: u64,
    /// Schedules deferred to the overflow heap (beyond the 4-level
    /// horizon).
    pub deferred: u64,
}

/// Hierarchical 4×256 timing wheel with a deterministic `(time, seq)`
/// pop order. See the module docs for the placement and cascade rules.
#[derive(Debug)]
pub struct TimerWheel<T> {
    levels: Box<[Level; LEVELS]>,
    /// Every entry in a slot lives here; see the module docs.
    nodes: Vec<Node<T>>,
    /// Head of the free-node list threaded through `Node::next`.
    free: u32,
    /// Reused buffer for sorting an unsorted slot.
    scratch: Vec<(u64, u32)>,
    overflow: BinaryHeap<Reverse<HeapEntry<T>>>,
    /// Tick of the most recent pop (placement reference point).
    cursor: u64,
    next_seq: u64,
    len: usize,
    stats: WheelStats,
}

impl<T: Copy> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> TimerWheel<T> {
    /// Empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        TimerWheel {
            levels: Box::new([Level::EMPTY; LEVELS]),
            nodes: Vec::new(),
            free: NIL,
            scratch: Vec::new(),
            overflow: BinaryHeap::new(),
            cursor: 0,
            next_seq: 0,
            len: 0,
            stats: WheelStats::default(),
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Internal work counters.
    pub fn stats(&self) -> WheelStats {
        self.stats
    }

    /// Schedule `value` at absolute `time` (nanoseconds). Entries at equal
    /// times pop FIFO (monotone sequence tie-break).
    pub fn schedule(&mut self, time: u64, value: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.place(Entry { time, seq, value });
    }

    /// Level and slot for an entry at `time` relative to the current
    /// cursor, or `None` past the 4-level horizon.
    fn slot_for(&self, time: u64) -> Option<(usize, usize)> {
        // Entries in the past are clamped into the cursor's slot; the
        // (time, seq) sort inside the slot restores the heap's order.
        let tick = (time >> TICK_SHIFT).max(self.cursor);
        let x = tick ^ self.cursor;
        let level = if x < 1 << SLOT_BITS {
            0
        } else if x < 1 << (2 * SLOT_BITS) {
            1
        } else if x < 1 << (3 * SLOT_BITS) {
            2
        } else if x < 1 << (4 * SLOT_BITS) {
            3
        } else {
            return None;
        };
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        Some((level, slot))
    }

    /// Place one new or promoted entry relative to the current cursor,
    /// in a slab node or, past the horizon, in the overflow heap.
    fn place(&mut self, e: Entry<T>) {
        let Some((level, slot)) = self.slot_for(e.time) else {
            self.stats.deferred += 1;
            self.overflow.push(Reverse(HeapEntry(e)));
            return;
        };
        let n = self.alloc(e);
        self.link(level, slot, n);
    }

    /// Re-place node `n` during a cascade: relink it into its new slot.
    /// A cascaded entry always lands at a strictly lower level, so the
    /// overflow arm only keeps the placement rule total.
    fn relink(&mut self, n: u32) {
        let e = self.nodes[n as usize].entry;
        match self.slot_for(e.time) {
            Some((level, slot)) => self.link(level, slot, n),
            None => {
                self.release(n);
                self.place(e);
            }
        }
    }

    /// A node holding `entry`, taken from the free list or appended.
    fn alloc(&mut self, entry: Entry<T>) -> u32 {
        let node = Node { entry, next: NIL };
        if self.free != NIL {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            return n;
        }
        let n = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&n| n != NIL)
            // lint: allow(panic): 2^32 - 1 pending entries exceed any memory
            .expect("timer wheel slab full");
        self.nodes.push(node);
        n
    }

    /// Return node `n` to the free list.
    fn release(&mut self, n: u32) {
        self.nodes[n as usize].next = self.free;
        self.free = n;
    }

    /// Link node `n` into slot `i` of `level`, keeping the list ascending
    /// when the key extends either end.
    fn link(&mut self, level: usize, i: usize, n: u32) {
        let key = self.nodes[n as usize].entry.key();
        self.nodes[n as usize].next = NIL;
        let l = &mut self.levels[level];
        let slot = &mut l.slots[i];
        if slot.head == NIL {
            *slot = Slot {
                head: n,
                tail: n,
                len: 1,
                sorted: true,
                min: key,
                last: key,
            };
            l.mark(i);
            return;
        }
        slot.len += 1;
        if key >= slot.last {
            self.nodes[slot.tail as usize].next = n;
            slot.tail = n;
            slot.last = key;
        } else if key <= slot.min {
            self.nodes[n as usize].next = slot.head;
            slot.head = n;
            slot.min = key;
        } else {
            self.nodes[slot.tail as usize].next = n;
            slot.tail = n;
            slot.last = key;
            slot.sorted = false;
        }
    }

    /// Sort the list of slot `i` of `level` ascending by `(time, seq)`.
    fn sort_slot(&mut self, level: usize, i: usize) {
        let slot = &mut self.levels[level].slots[i];
        let run = &mut self.scratch;
        let mut n = slot.head;
        while n != NIL {
            let node = &self.nodes[n as usize];
            run.push((node.entry.time, n));
            n = node.next;
        }
        sort_run(run, &self.nodes);
        for w in run.windows(2) {
            self.nodes[w[0].1 as usize].next = w[1].1;
        }
        if let (Some(&(_, head)), Some(&(_, tail))) = (run.first(), run.last()) {
            self.nodes[tail as usize].next = NIL;
            slot.head = head;
            slot.tail = tail;
            slot.sorted = true;
            slot.last = self.nodes[tail as usize].entry.key();
        }
        run.clear();
    }

    /// Byte `level` of the cursor (the scan base for that level).
    fn base(&self, level: usize) -> usize {
        ((self.cursor >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
    }

    /// Pop the minimum-`(time, seq)` entry, advancing the cursor.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.pop_due(u64::MAX)
    }

    /// Pop the minimum-`(time, seq)` entry if its time is at most
    /// `limit`; otherwise leave the wheel as it is and return `None`.
    ///
    /// One scan replaces [`TimerWheel::peek_time`] followed by
    /// [`TimerWheel::pop`], with the same effect: a higher-level slot is
    /// cascaded, or an overflow epoch promoted, only when its earliest
    /// entry is due, so [`WheelStats`] after `pop_due(limit)` equal the
    /// stats after `peek_time() <= limit` then `pop()`.
    pub fn pop_due(&mut self, limit: u64) -> Option<(u64, T)> {
        'scan: loop {
            // Level 0 holds exactly the current 256-tick window; its first
            // occupied slot contains the global minimum.
            if let Some(i) = self.levels[0].first_occupied_from(self.base(0)) {
                let slot = self.levels[0].slots[i];
                if slot.min.0 > limit {
                    return None;
                }
                if !slot.sorted {
                    self.sort_slot(0, i);
                }
                let slot = &mut self.levels[0].slots[i];
                let n = slot.head;
                let Node { entry: e, next } = self.nodes[n as usize];
                slot.head = next;
                slot.len -= 1;
                if next == NIL {
                    *slot = Slot::EMPTY;
                    self.levels[0].clear(i);
                } else {
                    slot.min = self.nodes[next as usize].entry.key();
                }
                self.release(n);
                self.len -= 1;
                self.cursor = self.cursor.max(e.time >> TICK_SHIFT);
                return Some((e.time, e.value));
            }
            // Level 0 exhausted: cascade the next occupied higher-level
            // slot into the lower levels and retry — but only if it holds
            // a due entry (it holds the global minimum).
            for level in 1..LEVELS {
                if let Some(j) = self.levels[level].first_occupied_from(self.base(level)) {
                    let slot = self.levels[level].slots[j];
                    if slot.min.0 > limit {
                        return None;
                    }
                    self.levels[level].slots[j] = Slot::EMPTY;
                    self.levels[level].clear(j);
                    // Move the cursor to the start of that slot's window:
                    // keep bytes above `level`, set byte `level` to j, zero
                    // the rest.
                    let w = SLOT_BITS * level as u32;
                    self.cursor = ((self.cursor >> (w + SLOT_BITS)) << (w + SLOT_BITS))
                        | (j as u64) << w;
                    self.stats.cascades += 1;
                    self.stats.cascaded_entries += u64::from(slot.len);
                    let mut n = slot.head;
                    while n != NIL {
                        let next = self.nodes[n as usize].next;
                        self.relink(n);
                        n = next;
                    }
                    continue 'scan;
                }
            }
            // All wheels empty: promote the next overflow epoch, if any.
            let epoch = match self.overflow.peek() {
                Some(Reverse(HeapEntry(e))) if e.time <= limit => {
                    (e.time >> TICK_SHIFT) >> (SLOT_BITS * 4)
                }
                _ => return None,
            };
            self.cursor = epoch << (SLOT_BITS * 4);
            while let Some(Reverse(HeapEntry(e))) = self.overflow.peek() {
                if (e.time >> TICK_SHIFT) >> (SLOT_BITS * 4) != epoch {
                    break;
                }
                let e = *e;
                self.overflow.pop();
                self.place(e);
            }
        }
    }

    /// Time of the minimum pending entry, without mutating. A read-only
    /// version of the [`TimerWheel::pop`] scan: the first occupied slot of
    /// the lowest non-empty level holds the global minimum.
    pub fn peek_time(&self) -> Option<u64> {
        for (level, l) in self.levels.iter().enumerate() {
            if let Some(i) = l.first_occupied_from(self.base(level)) {
                return Some(l.slots[i].min.0);
            }
        }
        self.overflow.peek().map(|Reverse(HeapEntry(e))| e.time)
    }

    /// Every pending entry as `(time, &value)`, in pop order: exactly
    /// the sequence repeated [`TimerWheel::pop`] calls would return.
    /// Borrows only; the caller decides what to clone.
    ///
    /// The wheel already stores entries nearly in order, so no global
    /// sort is needed: every level-`L` entry is later than every
    /// level-`(L-1)` entry, a level's occupied slots are in tick order
    /// from the cursor upward, and overflow entries come after all of
    /// them. Each slot is read from its head (lists are kept ascending);
    /// a slot marked unsorted is sorted on its own, as is the overflow
    /// heap. Walks the occupancy bitmaps, so the cost scales with pending
    /// entries, not with the 1024 slots of the wheel.
    ///
    /// The slots are laid out back to back in that order and all their
    /// lists are walked at once, one node per list per round: the loads
    /// of a round are independent, so their cache misses overlap instead
    /// of queueing behind each other as a list-at-a-time walk would.
    pub fn in_order(&self) -> Vec<(u64, &T)> {
        let mut run = vec![(0, NIL); self.len - self.overflow.len()];
        let mut cursors: Vec<(u32, usize)> = Vec::new();
        let mut unsorted = Vec::new();
        let mut at = 0;
        for l in self.levels.iter() {
            for (w, &bits) in l.occupied.iter().enumerate() {
                let mut b = bits;
                while b != 0 {
                    let slot = &l.slots[(w << 6) | b.trailing_zeros() as usize];
                    b &= b - 1;
                    cursors.push((slot.head, at));
                    let end = at + slot.len as usize;
                    if !slot.sorted {
                        unsorted.push(at..end);
                    }
                    at = end;
                }
            }
        }
        while !cursors.is_empty() {
            cursors.retain_mut(|(n, at)| {
                let node = &self.nodes[*n as usize];
                run[*at] = (node.entry.time, *n);
                *at += 1;
                *n = node.next;
                *n != NIL
            });
        }
        for r in unsorted {
            sort_run(&mut run[r], &self.nodes);
        }
        let mut overflow: Vec<&Entry<T>> =
            self.overflow.iter().map(|Reverse(HeapEntry(e))| e).collect();
        overflow.sort_unstable_by_key(|e| e.key());
        let mut out = Vec::with_capacity(self.len);
        out.extend(run.iter().map(|&(time, n)| (time, &self.nodes[n as usize].entry.value)));
        out.extend(overflow.into_iter().map(|e| (e.time, &e.value)));
        out
    }
}

/// Sort one slot's `(time, node)` pairs by `(time, seq)`: by time, then
/// each run of equal times by the nodes' sequence numbers. Sorting
/// 16-byte pairs on one word costs less than carrying the full key.
fn sort_run<T>(run: &mut [(u64, u32)], nodes: &[Node<T>]) {
    run.sort_unstable_by_key(|&(time, _)| time);
    for ties in run.chunk_by_mut(|a, b| a.0 == b.0) {
        if ties.len() > 1 {
            ties.sort_unstable_by_key(|&(_, n)| nodes[n as usize].entry.seq);
        }
    }
}

/// The binary-heap event queue the wheel replaced, kept as the reference
/// implementation: the propcheck equivalence suite drives both with
/// identical schedules and asserts identical pop order, and the
/// microbenches race them head-to-head.
#[derive(Debug)]
pub struct BaselineHeapQueue<T> {
    heap: BinaryHeap<Reverse<HeapEntry<T>>>,
    next_seq: u64,
}

impl<T> Default for BaselineHeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BaselineHeapQueue<T> {
    /// Empty queue.
    pub fn new() -> Self {
        BaselineHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `value` at absolute `time` (nanoseconds).
    pub fn schedule(&mut self, time: u64, value: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(HeapEntry(Entry { time, seq, value })));
    }

    /// Time of the earliest pending entry.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(HeapEntry(e))| e.time)
    }

    /// Pop the earliest pending entry.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|Reverse(HeapEntry(e))| (e.time, e.value))
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut w = TimerWheel::new();
        // One entry per level's range, scheduled out of order.
        let times = [
            5 << TICK_SHIFT,                   // level 0
            300 << TICK_SHIFT,                 // level 1
            70_000 << TICK_SHIFT,              // level 2
            20_000_000 << TICK_SHIFT,          // level 3
            (1u64 << 33) << TICK_SHIFT,        // overflow
            7,                                 // sub-tick, level 0
        ];
        for &t in times.iter().rev() {
            w.schedule(t, t);
        }
        assert_eq!(w.len(), times.len());
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        for want in sorted {
            let (t, v) = w.pop().expect("entry");
            assert_eq!(t, want);
            assert_eq!(v, want);
        }
        assert!(w.is_empty());
        assert!(w.pop().is_none());
        let st = w.stats();
        assert!(st.cascades > 0, "higher levels must have cascaded");
        assert_eq!(st.deferred, 1);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut w = TimerWheel::new();
        for i in 0..1000u64 {
            w.schedule(123_456, i);
        }
        for i in 0..1000u64 {
            assert_eq!(w.pop(), Some((123_456, i)));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut w = TimerWheel::new();
        assert_eq!(w.peek_time(), None);
        for &t in &[9_000_000u64, 50, 4_000, 1u64 << 45] {
            w.schedule(t, t);
        }
        while let Some(peek) = w.peek_time() {
            let (t, _) = w.pop().expect("peeked");
            assert_eq!(peek, t);
        }
    }

    #[test]
    fn past_schedules_clamp_but_keep_heap_order() {
        let mut w = TimerWheel::new();
        let mut h = BaselineHeapQueue::new();
        // Advance the wheel cursor far forward…
        w.schedule(1 << 30, 0u64);
        h.schedule(1 << 30, 0u64);
        assert_eq!(w.pop(), h.pop());
        // …then schedule into the past, twice, out of order.
        for &t in &[5_000u64, 100, 2 << 30, 7] {
            w.schedule(t, t);
            h.schedule(t, t);
        }
        for _ in 0..4 {
            assert_eq!(w.pop(), h.pop());
        }
    }

    #[test]
    fn interleaved_schedule_pop_matches_heap() {
        let mut w = TimerWheel::new();
        let mut h = BaselineHeapQueue::new();
        // Deterministic scramble covering re-entrant scheduling around the
        // cursor, duplicates, and multi-level spreads.
        let mut x = 0x9E3779B97F4A7C15u64;
        for round in 0..5_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let t = (x >> 16) % 50_000_000;
            w.schedule(t, round);
            h.schedule(t, round);
            if round % 3 == 0 {
                assert_eq!(w.pop(), h.pop());
            }
        }
        loop {
            let (a, b) = (w.pop(), h.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn in_order_walk_matches_pops_across_levels() {
        let mut w = TimerWheel::new();
        for &t in &[1u64 << 50, 5_000_000, 10, 300 << TICK_SHIFT, 12, 11] {
            w.schedule(t, t);
        }
        let walked: Vec<u64> = w.in_order().into_iter().map(|(t, _)| t).collect();
        let popped: Vec<u64> = std::iter::from_fn(|| w.pop()).map(|(t, _)| t).collect();
        assert_eq!(walked, popped);
        assert_eq!(walked, [10, 11, 12, 300 << TICK_SHIFT, 5_000_000, 1 << 50]);
    }

    #[test]
    fn pop_due_never_cascades_past_its_limit() {
        let mut w = TimerWheel::new();
        w.schedule(300 << TICK_SHIFT, 0u64);
        w.schedule(1u64 << 50, 1);
        let before = w.stats();
        assert_eq!(w.pop_due((300 << TICK_SHIFT) - 1), None);
        assert_eq!(w.stats(), before, "nothing due, nothing cascaded");
        assert_eq!(w.pop_due(300 << TICK_SHIFT), Some((300 << TICK_SHIFT, 0)));
        assert_eq!(w.stats().cascades, 1);
        assert_eq!(w.pop_due(u64::MAX - 1), Some((1 << 50, 1)));
        assert_eq!(w.pop_due(u64::MAX), None);
    }

    #[test]
    fn dense_same_tick_bursts_stay_cheap() {
        // Same-tick FIFO bursts take the append fast path; verify the
        // slot never goes unsorted (O(1) pops).
        let mut w = TimerWheel::new();
        for i in 0..10_000u64 {
            w.schedule(42, i);
        }
        let slot = w.levels[0].slots[0];
        assert!(slot.sorted, "FIFO burst must stay sorted");
        assert_eq!((slot.min, slot.last), ((42, 0), (42, 9_999)));
        for i in 0..10_000u64 {
            assert_eq!(w.pop(), Some((42, i)));
        }
    }

    #[test]
    fn ties_in_an_unsorted_slot_stay_fifo() {
        // Scrambled schedules over five distinct times in one slot, at
        // level 0 and at level 1 (cascaded before it pops): the slot goes
        // unsorted, and its sort must break every tie by schedule order,
        // both for the in-order walk and for pops.
        for base in [0, 300 << TICK_SHIFT] {
            let mut w = TimerWheel::new();
            let mut h = BaselineHeapQueue::new();
            for i in 0..300u64 {
                let t = base + (i * 7_919) % 5 * 100;
                w.schedule(t, i);
                h.schedule(t, i);
            }
            let walked: Vec<(u64, u64)> = w.in_order().into_iter().map(|(t, &v)| (t, v)).collect();
            let want: Vec<(u64, u64)> = std::iter::from_fn(|| h.pop()).collect();
            assert_eq!(walked, want);
            let popped: Vec<(u64, u64)> = std::iter::from_fn(|| w.pop()).collect();
            assert_eq!(popped, want);
        }
    }

    #[test]
    fn cascades_relink_without_growing_the_slab() {
        let mut w = TimerWheel::new();
        for i in 0..1_000u64 {
            w.schedule((300 + i % 7) << TICK_SHIFT, i);
        }
        assert_eq!(w.nodes.len(), 1_000);
        assert_eq!(w.pop().map(|(t, _)| t), Some(300 << TICK_SHIFT));
        assert_eq!(w.stats().cascaded_entries, 1_000);
        assert_eq!(w.nodes.len(), 1_000, "a cascade moves nodes, not entries");
    }

    dui_stats::prop_check! {
        fn slab_never_outgrows_the_peak_pending_count(g) {
            // Arbitrary schedules (sub-tick to past the horizon, some
            // clamped into the past) interleaved with pops: freed nodes
            // are reused before the slab grows, so it never holds more
            // nodes than were ever pending at once.
            let mut w: TimerWheel<u64> = TimerWheel::new();
            let mut clock = 0u64;
            let mut peak = 0usize;
            for payload in 0..g.usize(1..400) as u64 {
                if g.u8(0..3) != 0 {
                    let bits = 10 + 8 * g.u32(0..6);
                    let delta = g.u64(0..1 << bits);
                    let t = if g.u8(0..4) == 0 {
                        clock.saturating_sub(delta)
                    } else {
                        clock.saturating_add(delta)
                    };
                    w.schedule(t, payload);
                } else if let Some((t, _)) = w.pop() {
                    clock = clock.max(t);
                }
                peak = peak.max(w.len());
                dui_stats::prop_assert!(
                    w.nodes.len() <= peak,
                    "slab {} > peak pending {}",
                    w.nodes.len(),
                    peak
                );
            }
            // Drained, every node is back on the free list.
            while w.pop().is_some() {}
            let mut free = 0;
            let mut n = w.free;
            while n != NIL {
                free += 1;
                n = w.nodes[n as usize].next;
            }
            dui_stats::prop_assert_eq!(free, w.nodes.len());
        }
    }
}
