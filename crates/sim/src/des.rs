//! The discrete-event engine: a virtual clock plus an ordered event queue.
//!
//! An event's *bucket* is `at_ms >> BUCKET_MS_LOG2`, 65.536 s of virtual
//! time. Pending events wait in three tiers by how far their bucket is
//! from the one being drained, the *near* bucket:
//!
//! * the near tier holds the near bucket's events (and, clamped to the
//!   clock, earlier ones): those pending when the clock reached the bucket
//!   as one run, sorted once when the bucket is promoted, and those
//!   scheduled into it since in a small heap;
//! * the *slots* hold each later bucket of the aligned block of 2^10
//!   buckets (~18.6 h) that contains the near one, one unsorted list per
//!   bucket in scheduling order, so an event due within the block is filed
//!   once and sorted once;
//! * the *levels* hold every later event in spans of time that double in
//!   width with their distance from that block (a radix heap's layout) and
//!   split a span only when the clock reaches it.
//!
//! A pop takes the run's next event, or the root of a heap that holds only
//! the late arrivals of one bucket; a push is a shift, an XOR and an append.
//! Neither depends on how many events are pending. An event is sorted
//! once, and filed once unless it is due beyond the near block, when it
//! moves down a level per split it is part of until it reaches a slot.
//!
//! A queue built with [`EventQueue::until`] knows the run's end: an event
//! due after it is never stored, since no pop could return it. A fleet
//! that schedules each device's next wake-up whether or not the day has
//! room for it then holds only the wake-ups that fire.

/// An event scheduled into the near bucket after it was promoted. Ties
/// break by insertion order, making runs fully deterministic.
struct Scheduled<E> {
    at_ms: u64,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    /// The heap order, `(at_ms, seq)` packed so one branch-free compare
    /// decides it (due times are as good as random to a branch predictor).
    /// `seq` is unique, so no two keys compare equal and the pop order is a
    /// property of the keys alone, not of the heap's shape.
    fn key(&self) -> u128 {
        (self.at_ms as u128) << 64 | self.seq as u128
    }
}

/// Children per heap node: a node's four children (32 bytes each for a
/// fleet event) span two or three adjacent cache lines (8 and 16 measured
/// slower: they add more compares per level than they save levels).
const ARITY: usize = 4;

/// An event's bucket is `at_ms >> BUCKET_MS_LOG2` (65.536 s of virtual
/// time): one bucket of a million-device day is a few thousand events.
const BUCKET_MS_LOG2: u32 = 16;

/// A block is `2^SLOT_LOG2` buckets, each with its own slot.
const SLOT_LOG2: u32 = 10;

/// Slots: one for each bucket of the near bucket's block.
const SLOTS: usize = 1 << SLOT_LOG2;

/// Levels: one for each bit above the block's in which a bucket can differ
/// from the near one.
const LEVELS: usize = (u64::BITS - BUCKET_MS_LOG2 - SLOT_LOG2) as usize;

/// Bits of a run key below an event's time within its bucket: the event's
/// index in the run.
const INDEX_BITS: u32 = u64::BITS - BUCKET_MS_LOG2;

/// Runs at least this long are sorted by counting, shorter ones by
/// comparison (the two cost alike at a few hundred keys).
const RADIX_MIN: usize = 256;

/// Far-tier entries per chunk: 2 KB of 32-byte entries. A list wastes half
/// a chunk on average, where one growing `Vec` wastes a third of its length.
const CHUNK: usize = 64;

/// A list of `(at_ms, event)` in scheduling order, in chunks of up to
/// [`CHUNK`]; no entry has a `seq`, its place is one.
type Chunks<E> = Vec<Vec<(u64, E)>>;

/// A deterministic event queue with a virtual clock. [`EventQueue::new`]
/// keeps every event; [`EventQueue::until`] keeps only those due at or
/// before its end, which is inclusive, as [`EventQueue::next_before`]'s
/// horizon is.
pub struct EventQueue<E> {
    /// Near tier, first part: the near bucket's events that were pending
    /// when it was promoted, in scheduling order, each taken when it pops.
    run: Vec<Option<E>>,
    /// The run's pop order: for each event, its time within the bucket
    /// above its index in `run`, sorted; `order[next..]` are still pending.
    order: Vec<u64>,
    next: usize,
    /// Scratch space for sorting `order`.
    spare: Vec<u64>,
    /// Near tier, second part: every event scheduled at or before the near
    /// bucket since it was promoted, as an implicit `ARITY`-ary min-heap
    /// on [`Scheduled::key`] (the children of node `i` are
    /// `ARITY * i + 1 ..= ARITY * i + ARITY`). Each was scheduled after
    /// every event of the run.
    heap: Vec<Scheduled<E>>,
    /// The bucket being drained; the clock's own bucket is never later.
    near_bucket: u64,
    /// Far tier: a later bucket's events wait in the list [`Self::home`]
    /// names, the first [`SLOTS`] slots and then [`LEVELS`] levels. A
    /// bucket of the near one's block has its own slot; any other waits at
    /// the level numbered by the highest bit in which it differs from
    /// `near_bucket`, so level `l` spans `2^(l + SLOT_LOG2)` buckets and no
    /// event of a slot or a lower level is due after one of a higher.
    far: Box<[Chunks<E>]>,
    /// Emptied chunks, their capacity kept for the next list that grows.
    pool: Vec<Vec<(u64, E)>>,
    /// The last due time a stored event may have.
    end_ms: u64,
    /// Events pending, and the most ever pending at once.
    len: usize,
    peak_len: usize,
    now_ms: u64,
    seq: u64,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time 0 that keeps every event.
    pub fn new() -> Self {
        EventQueue::until(u64::MAX)
    }

    /// Creates an empty queue at time 0 that drops every event due after
    /// `end_ms`: one that can pop nothing later than `end_ms`.
    pub fn until(end_ms: u64) -> Self {
        EventQueue {
            run: Vec::new(),
            order: Vec::new(),
            next: 0,
            spare: Vec::new(),
            heap: Vec::new(),
            near_bucket: 0,
            far: std::iter::repeat_with(Vec::new)
                .take(SLOTS + LEVELS)
                .collect(),
            pool: Vec::new(),
            end_ms,
            len: 0,
            peak_len: 0,
            now_ms: 0,
            seq: 0,
            processed: 0,
        }
    }

    /// Schedules an event at an absolute virtual time. Events scheduled in
    /// the past fire "now" (time never goes backwards); one due after the
    /// queue's end is dropped.
    pub fn schedule_at(&mut self, at_ms: u64, event: E) {
        let at_ms = at_ms.max(self.now_ms);
        if at_ms > self.end_ms {
            return;
        }
        if at_ms >> BUCKET_MS_LOG2 <= self.near_bucket {
            self.push_near(at_ms, event);
        } else {
            self.push_far(at_ms, event);
        }
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
    }

    /// Schedules an event after a delay; a delay that overflows the clock
    /// is as late as the clock goes.
    pub fn schedule_in(&mut self, delay_ms: u64, event: E) {
        self.schedule_at(self.now_ms.saturating_add(delay_ms), event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn next(&mut self) -> Option<(u64, E)> {
        self.next_before(u64::MAX)
    }

    /// Pops the next event only if it is due at or before `horizon_ms`.
    pub fn next_before(&mut self, horizon_ms: u64) -> Option<(u64, E)> {
        if self.next == self.order.len() && self.heap.is_empty() {
            self.promote(horizon_ms);
        }
        let run_next = self.order.get(self.next).map(|&key| {
            let at_ms = self.near_bucket << BUCKET_MS_LOG2 | key >> INDEX_BITS;
            (at_ms, (key & ((1 << INDEX_BITS) - 1)) as usize)
        });
        // A heap event was scheduled after every event of the run, so the
        // run wins a tie.
        let from_run =
            run_next.filter(|&(run_ms, _)| self.heap.first().is_none_or(|s| run_ms <= s.at_ms));
        let at_ms = match from_run {
            Some((at_ms, _)) => at_ms,
            None => self.heap.first()?.at_ms,
        };
        if at_ms > horizon_ms {
            return None;
        }
        let event = match from_run {
            Some((_, index)) => {
                self.next += 1;
                self.run[index].take().expect("a run event pops once")
            }
            None => self.pop_heap(),
        };
        self.now_ms = at_ms;
        self.len -= 1;
        self.processed += 1;
        Some((at_ms, event))
    }

    /// The most events that were ever pending at once.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Total events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Adds an event of the near tier to the heap under the next `seq`.
    fn push_near(&mut self, at_ms: u64, event: E) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Scheduled { at_ms, seq, event });
        self.sift_up(self.heap.len() - 1);
    }

    /// The far list that holds a bucket later than the near one: its slot
    /// if the two share a block, else the level of the highest bit in which
    /// they differ.
    fn home(&self, bucket: u64) -> usize {
        let apart = bucket ^ self.near_bucket;
        if apart < SLOTS as u64 {
            (bucket % SLOTS as u64) as usize
        } else {
            SLOTS + (apart.ilog2() - SLOT_LOG2) as usize
        }
    }

    /// Appends an event of a later bucket to its far list.
    fn push_far(&mut self, at_ms: u64, event: E) {
        let home = self.home(at_ms >> BUCKET_MS_LOG2);
        let chunks = &mut self.far[home];
        if chunks.last().is_none_or(|chunk| chunk.len() == CHUNK) {
            let spare = self.pool.pop();
            chunks.push(spare.unwrap_or_else(|| Vec::with_capacity(CHUNK)));
        }
        let chunk = chunks
            .last_mut()
            .expect("a chunk with room was just ensured");
        chunk.push((at_ms, event));
    }

    /// With the near tier empty, makes the bucket of the earliest far event
    /// the near one and sorts its events into the run, unless that event is
    /// due after `horizon_ms` (then nothing changes). The first far list in
    /// use after the near bucket's slot holds it. A slot is one bucket, in
    /// scheduling order. A level's entries move, in the order they were
    /// scheduled, into the run (the new near bucket's) or into the slots
    /// and lower levels (all empty) where the new near bucket puts them;
    /// higher levels differ from the old and the new near bucket in the
    /// same bit. So a bucket's events stay together and in order, later
    /// arrivals queue behind them, and run indices follow scheduling order.
    fn promote(&mut self, horizon_ms: u64) {
        let near_slot = (self.near_bucket % SLOTS as u64) as usize;
        let Some(home) = (near_slot + 1..self.far.len()).find(|&i| !self.far[i].is_empty()) else {
            return;
        };
        let bucket = if home < SLOTS {
            self.near_bucket - near_slot as u64 + home as u64
        } else {
            earliest_ms(&self.far[home]) >> BUCKET_MS_LOG2
        };
        // Only a horizon inside the bucket asks for its earliest event.
        let last_ms = bucket << BUCKET_MS_LOG2 | ((1 << BUCKET_MS_LOG2) - 1);
        if last_ms > horizon_ms && earliest_ms(&self.far[home]) > horizon_ms {
            return;
        }
        self.near_bucket = bucket;
        // Every event of the old run has popped.
        self.run.clear();
        self.order.clear();
        self.next = 0;
        for mut chunk in std::mem::take(&mut self.far[home]) {
            for (at_ms, event) in chunk.drain(..) {
                if at_ms >> BUCKET_MS_LOG2 == bucket {
                    self.push_run(at_ms, event);
                } else {
                    self.push_far(at_ms, event);
                }
            }
            self.pool.push(chunk);
        }
        self.sort_order();
    }

    /// Adds an event of the bucket being promoted to the run, and its key
    /// to the order.
    fn push_run(&mut self, at_ms: u64, event: E) {
        let within_ms = at_ms & ((1 << BUCKET_MS_LOG2) - 1);
        self.order
            .push(within_ms << INDEX_BITS | self.run.len() as u64);
        self.run.push(Some(event));
    }

    /// Sorts the run's keys: by time, and ties by index, which is
    /// scheduling order. Keys are unique, so an unstable sort does it; a
    /// long run takes a stable counting sort on each byte of the time
    /// instead (its keys are in index order already), several times
    /// cheaper at a few thousand keys.
    fn sort_order(&mut self) {
        if self.order.len() < RADIX_MIN {
            self.order.sort_unstable();
            return;
        }
        for shift in [INDEX_BITS, INDEX_BITS + 8] {
            let digit = |key: u64| (key >> shift) as usize & 0xFF;
            let mut starts = [0; 256];
            for &key in &self.order {
                starts[digit(key)] += 1;
            }
            let mut sum = 0;
            for start in &mut starts {
                (sum, *start) = (sum + *start, sum);
            }
            self.spare.clear();
            self.spare.resize(self.order.len(), 0);
            for &key in &self.order {
                let start = &mut starts[digit(key)];
                self.spare[*start] = key;
                *start += 1;
            }
            std::mem::swap(&mut self.order, &mut self.spare);
        }
    }

    /// Removes the heap's root: the last element takes its place and sinks.
    fn pop_heap(&mut self) -> E {
        let s = self.heap.swap_remove(0);
        let mut i = 0;
        while let Some(child) = self.min_child(i) {
            if self.heap[i].key() <= self.heap[child].key() {
                break;
            }
            self.heap.swap(i, child);
            i = child;
        }
        s.event
    }

    /// Index of the smallest child of node `i`, if it has any.
    fn min_child(&self, i: usize) -> Option<usize> {
        let first = ARITY * i + 1;
        let children = self.heap.get(first..(first + ARITY).min(self.heap.len()))?;
        let (offset, _) = children.iter().enumerate().min_by_key(|(_, s)| s.key())?;
        Some(first + offset)
    }

    /// Moves node `i` up until its parent is no larger.
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() <= self.heap[i].key() {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }
}

/// The earliest due time in a far list that is not empty.
fn earliest_ms<E>(chunks: &Chunks<E>) -> u64 {
    let times = chunks.iter().flatten().map(|&(at_ms, _)| at_ms);
    times.min().expect("a far list keeps no empty chunk")
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<E> EventQueue<E> {
        /// The current virtual time.
        pub(crate) fn now_ms(&self) -> u64 {
            self.now_ms
        }

        /// Number of pending events.
        pub(crate) fn len(&self) -> usize {
            self.len
        }

        /// Whether the queue is empty.
        pub(crate) fn is_empty(&self) -> bool {
            self.len == 0
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule_at(10, 1);
        q.schedule_at(10, 2);
        q.schedule_at(10, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.next().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule_at(100, ());
        let _ = q.next();
        assert_eq!(q.now_ms(), 100);
        // Scheduling in the past clamps to now.
        q.schedule_at(50, ());
        let (t, _) = q.next().unwrap();
        assert_eq!(t, 100);
        assert_eq!(q.now_ms(), 100);
    }

    #[test]
    fn next_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule_at(100, "x");
        assert!(q.next_before(99).is_none());
        assert_eq!(q.next_before(100).unwrap().1, "x");
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(100, "first");
        let _ = q.next();
        q.schedule_in(50, "second");
        assert_eq!(q.next().unwrap().0, 150);
        assert_eq!(q.processed(), 2);
    }

    #[test]
    fn a_never_delay_is_the_far_future_not_the_past() {
        let mut q = EventQueue::new();
        q.schedule_at(100, "first");
        let _ = q.next();
        q.schedule_in(u64::MAX, "never");
        q.schedule_in(1, "soon");
        assert_eq!(q.next(), Some((101, "soon")));
        assert_eq!(q.next(), Some((u64::MAX, "never")));
    }

    /// ~1 000 events pending while a million pass through ~8 000 buckets
    /// and seven block edges: the chunks a promoted slot or a split level
    /// held are the ones the next slots fill. A level is split only when
    /// the clock leaves a block, whose slots have by then handed back every
    /// chunk they held, so the slots the split fills (up to sixteen buckets
    /// ahead) draw on those and the chunks ever allocated stay within a few
    /// of the peak in use.
    #[test]
    fn emptied_chunks_are_reused_not_regrown() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let (mut peak_in_use, mut popped) = (0, 0);
        for i in 0..1_000_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Up to sixteen buckets ahead of the clock.
            q.schedule_in(x >> 44, i);
            if q.len() > 1_000 {
                popped += u64::from(q.next().is_some());
            }
            let in_use: usize = q.far.iter().map(Vec::len).sum();
            peak_in_use = peak_in_use.max(in_use);
            assert!(q.pool.len() + in_use <= peak_in_use + 5, "event {i}");
            let far: usize = q.far.iter().flatten().map(Vec::len).sum();
            assert_eq!(
                q.len(),
                q.order.len() - q.next + q.heap.len() + far,
                "event {i}"
            );
        }
        assert!(
            q.now_ms() >> (BUCKET_MS_LOG2 + SLOT_LOG2) >= 7,
            "{}",
            q.now_ms()
        );
        assert!(peak_in_use < 40, "{peak_in_use} chunks for ~1 000 events");
        popped += std::iter::from_fn(|| q.next()).count() as u64;
        assert_eq!((popped, q.processed(), q.len()), (1_000_000, 1_000_000, 0));
    }
}

/// The queue against a deliberately trivial model: a `BTreeMap` keyed by
/// `(at_ms, seq)`, whose first entry is by definition the next event.
#[cfg(test)]
mod model_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        At(u64),
        In(u64),
        Next,
        NextBefore(u64),
    }

    struct Model {
        pending: BTreeMap<(u64, u64), usize>,
        end_ms: u64,
        peak_len: usize,
        now_ms: u64,
        seq: u64,
        processed: u64,
    }

    impl Model {
        fn until(end_ms: u64) -> Model {
            Model {
                pending: BTreeMap::new(),
                end_ms,
                peak_len: 0,
                now_ms: 0,
                seq: 0,
                processed: 0,
            }
        }

        fn schedule_at(&mut self, at_ms: u64, event: usize) {
            self.seq += 1;
            let at_ms = at_ms.max(self.now_ms);
            if at_ms <= self.end_ms {
                self.pending.insert((at_ms, self.seq), event);
                self.peak_len = self.peak_len.max(self.pending.len());
            }
        }

        fn next_before(&mut self, horizon_ms: u64) -> Option<(u64, usize)> {
            let entry = self.pending.first_entry()?;
            let (at_ms, _) = *entry.key();
            if at_ms > horizon_ms {
                return None;
            }
            self.now_ms = at_ms;
            self.processed += 1;
            Some((at_ms, entry.remove()))
        }
    }

    /// Applies `ops` to a queue that keeps every event and its model,
    /// comparing every pop and every observable after each step, then
    /// drains both.
    fn check(ops: impl IntoIterator<Item = Op>) {
        check_until(u64::MAX, ops);
    }

    /// [`check`] for a queue and a model that drop what is due after
    /// `end_ms`.
    fn check_until(end_ms: u64, ops: impl IntoIterator<Item = Op>) {
        let mut queue: EventQueue<usize> = EventQueue::until(end_ms);
        let mut model = Model::until(end_ms);
        let mut step = |i: usize, op: Op| {
            match op {
                Op::At(at_ms) => {
                    queue.schedule_at(at_ms, i);
                    model.schedule_at(at_ms, i);
                }
                Op::In(delay_ms) => {
                    queue.schedule_in(delay_ms, i);
                    model.schedule_at(model.now_ms + delay_ms, i);
                }
                Op::Next => assert_eq!(queue.next(), model.next_before(u64::MAX), "op {i}"),
                Op::NextBefore(horizon_ms) => assert_eq!(
                    queue.next_before(horizon_ms),
                    model.next_before(horizon_ms),
                    "op {i}"
                ),
            }
            assert_eq!(queue.now_ms(), model.now_ms, "op {i}");
            assert_eq!(queue.len(), model.pending.len(), "op {i}");
            assert_eq!(queue.is_empty(), model.pending.is_empty(), "op {i}");
            assert_eq!(queue.processed(), model.processed, "op {i}");
            assert_eq!(queue.peak_len(), model.peak_len, "op {i}");
            queue.len()
        };
        let (mut steps, mut pending) = (0, 0);
        for op in ops {
            pending = step(steps, op);
            steps += 1;
        }
        while pending > 0 {
            pending = step(steps, Op::Next);
            steps += 1;
        }
    }

    /// Times cluster in 0..300 so that many are tied, in the past or due
    /// now; a few are far in the future.
    fn any_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..300).prop_map(Op::At),
            (0u64..300).prop_map(Op::At),
            (1u64 << 40..1u64 << 41).prop_map(Op::At),
            (0u64..50).prop_map(Op::In),
            Just(Op::Next),
            Just(Op::Next),
            (0u64..400).prop_map(Op::NextBefore),
        ]
    }

    /// 65 536 ms, the span of times a queue may hold apart from later ones.
    const SPAN: u64 = 1 << 16;

    /// 2^26 ms (~18.6 h), 1 024 spans: a block of spans a queue may file
    /// apart from later blocks.
    const BLOCK: u64 = 1 << 26;

    /// A time within 2 ms of one of the first six multiples of [`SPAN`]
    /// (thirty values in all, so ties are the rule).
    fn edge(i: u64) -> u64 {
        (i / 5 * SPAN + i % 5).saturating_sub(2)
    }

    /// A time within 2 ms of one of the first six multiples of [`BLOCK`].
    fn block_edge(i: u64) -> u64 {
        (i / 5 * BLOCK + i % 5).saturating_sub(2)
    }

    /// Times straddle multiples of [`SPAN`] and of [`BLOCK`]: behind the
    /// clock (clamped), tied, just before and just after an edge the clock
    /// is about to cross or has just crossed, relative delays that land on
    /// either side of the next edge, horizons that fall between the clock
    /// and the next pending event, and two times so far out that nothing
    /// may be sized by the distance to them.
    fn edge_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..30).prop_map(|i| Op::At(edge(i))),
            (0u64..30).prop_map(|i| Op::At(edge(i))),
            (0u64..30).prop_map(|i| Op::At(block_edge(i))),
            (0u64..3).prop_map(Op::In),
            (0u64..5).prop_map(|d| Op::In(SPAN - 2 + d)),
            (0u64..5).prop_map(|d| Op::In(BLOCK - 2 + d)),
            prop_oneof![Just(1u64 << 40), Just(1u64 << 62)].prop_map(Op::At),
            Just(Op::Next),
            Just(Op::Next),
            (0u64..30).prop_map(|i| Op::NextBefore(edge(i))),
            (0u64..30).prop_map(|i| Op::NextBefore(edge(i))),
            (0u64..30).prop_map(|i| Op::NextBefore(block_edge(i))),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_interleavings_match_the_model(
            ops in proptest::collection::vec(any_op(), 0..400),
            end_ms in 0u64..400,
        ) {
            check(ops.clone());
            check_until(end_ms, ops);
        }

        #[test]
        fn interleavings_across_span_edges_match_the_model(
            ops in proptest::collection::vec(edge_op(), 0..400),
            end in 0u64..30,
        ) {
            check(ops.clone());
            check_until(edge(end), ops.clone());
            check_until(block_edge(end), ops);
        }
    }

    /// The end is inclusive: an event due at it fires, one due a
    /// millisecond later is never stored, and one scheduled behind the
    /// clock is clamped to it and fires.
    #[test]
    fn a_queue_keeps_what_is_due_by_its_end_and_drops_the_rest() {
        let mut q = EventQueue::until(SPAN);
        q.schedule_at(SPAN, "at the end");
        q.schedule_at(SPAN + 1, "after the end");
        q.schedule_in(SPAN + 1, "after the end, relative");
        assert_eq!((q.len(), q.peak_len()), (1, 1));
        assert_eq!(q.next(), Some((SPAN, "at the end")));
        q.schedule_at(3, "behind the clock");
        assert_eq!(q.len(), 1);
        assert_eq!(q.next(), Some((SPAN, "behind the clock")));
        assert_eq!((q.next(), q.processed(), q.len()), (None, 2, 0));
        let ops = [
            Op::At(SPAN + 1),
            Op::At(SPAN),
            Op::Next,
            Op::At(0),
            Op::In(1),
        ];
        check_until(SPAN, ops);
    }

    /// The edge cases by name, in an order a random run would rarely find.
    #[test]
    fn a_horizon_short_of_the_next_span_pops_nothing_and_loses_nothing() {
        let far = [1 << 62, 1 << 40, 1 << 62, 1 << 40];
        let mut ops: Vec<Op> = far.into_iter().map(Op::At).collect();
        ops.extend([
            Op::At(3 * SPAN + 1),
            Op::At(SPAN),
            Op::At(SPAN - 1),
            Op::At(SPAN),
            // Nothing is due by SPAN - 2: every observable stays put.
            Op::NextBefore(SPAN - 2),
            Op::NextBefore(0),
            // SPAN - 1 pops; then pushes into the span it came from: tied
            // with the clock, behind it (clamped), and relative.
            Op::NextBefore(SPAN - 1),
            Op::At(SPAN - 1),
            Op::At(5),
            Op::In(0),
            Op::In(1),
            Op::Next,
            Op::Next,
            Op::Next,
            // The clock is at SPAN - 1 with three events tied at SPAN.
            Op::NextBefore(SPAN - 1),
            Op::Next,
            Op::At(2 * SPAN - 1),
            Op::At(2 * SPAN),
            Op::In(SPAN),
            Op::Next,
            Op::Next,
            // Nothing between here and 2 * SPAN - 1.
            Op::NextBefore(2 * SPAN - 2),
            Op::NextBefore(3 * SPAN),
            Op::NextBefore(3 * SPAN),
            Op::NextBefore(3 * SPAN),
            // Only 3 * SPAN + 1 and the far-future four are left.
            Op::NextBefore(3 * SPAN),
            Op::NextBefore((1 << 40) - 1),
            Op::NextBefore((1 << 40) - 1),
            Op::At(1 << 62),
            Op::NextBefore(1 << 61),
            Op::NextBefore(1 << 61),
            Op::NextBefore(1 << 61),
        ]);
        check(ops);
    }

    /// Events scheduled into the span being drained tie with the ones that
    /// were pending when the clock reached it, and must pop after them.
    #[test]
    fn a_push_into_the_span_being_drained_pops_after_its_ties() {
        check([
            Op::At(SPAN + 5),
            Op::At(SPAN + 7),
            Op::At(SPAN + 5),
            Op::At(SPAN + 7),
            Op::At(2 * SPAN),
            // Pops the first SPAN + 5; the clock is in the second span.
            Op::Next,
            // Tied with a pending event of the span, with the clock
            // (clamped and relative), and with the next time due.
            Op::At(SPAN + 5),
            Op::At(3),
            Op::In(0),
            Op::At(SPAN + 7),
            Op::In(2),
            Op::At(SPAN + 6),
            Op::Next,
            Op::Next,
            // Pushes behind the clock after part of the span has gone.
            Op::At(SPAN + 6),
            Op::In(1),
            Op::At(SPAN + 7),
        ]);
    }

    /// Deep enough (nine levels) that sifts cross many levels both ways:
    /// 100 000 schedules with a pop after every third, then the drain.
    #[test]
    fn a_hundred_thousand_events_match_the_model() {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut ops = Vec::new();
        for i in 0..100_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // One in eight lands on a shared coarse time, so ties run deep.
            let at_ms = if x.is_multiple_of(8) {
                (x >> 60) * 1_000_000
            } else {
                x >> 40
            };
            ops.push(Op::At(at_ms));
            if i % 3 == 2 {
                ops.push(Op::Next);
            }
        }
        check(ops);
    }
}
