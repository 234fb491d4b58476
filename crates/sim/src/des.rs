//! The discrete-event engine: a virtual clock plus an ordered event queue.
//!
//! Pending events wait in two tiers. The *near* tier is a small heap of
//! the events due in the bucket of virtual time now being drained
//! (`at_ms >> BUCKET_MS_LOG2`, or earlier); the *far* tier keeps every later
//! event unsorted, in the order it was scheduled, in spans of time that
//! double in width with their distance from that bucket (a radix heap's
//! layout), and splits a span only when the clock reaches it. A million
//! pending events therefore cost a heap a few thousand deep, not a million.

/// A near-tier event. Ties break by insertion order, making runs fully
/// deterministic.
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

/// Children per heap node: a node's four 40-byte children span three
/// adjacent cache lines (8 and 16 measured slower: they add more compares
/// per level than they save levels).
const ARITY: usize = 4;

/// An event's bucket is `at_ms >> BUCKET_MS_LOG2` (65.536 s of virtual
/// time): one bucket of a million-device day is a few thousand events, a
/// heap that stays in cache (14 to 18 measured alike).
const BUCKET_MS_LOG2: u32 = 16;

/// Far-tier levels: one for each bit in which a bucket can differ from the
/// near one.
const LEVELS: usize = (u64::BITS - BUCKET_MS_LOG2) as usize;

/// Far-tier entries per chunk: 2 KB of 32-byte entries. A level wastes half
/// a chunk on average, where one growing `Vec` wastes a third of its length.
const CHUNK: usize = 64;

/// A deterministic event queue with a virtual clock.
pub struct EventQueue<E> {
    /// Near tier: every pending event whose bucket is at most
    /// `near_bucket`, as an implicit `ARITY`-ary min-heap on
    /// [`Scheduled::key`] (the children of node `i` are
    /// `ARITY * i + 1 ..= ARITY * i + ARITY`).
    heap: Vec<Scheduled<E>>,
    /// The bucket being drained; the clock's own bucket is never later.
    near_bucket: u64,
    /// Far tier: a later bucket's events wait at the level numbered by the
    /// highest bit in which the bucket differs from `near_bucket`, so level
    /// `l` spans `2^l` buckets and no event of a lower level is due after
    /// one of a higher. A level holds `(at_ms, event)` in scheduling order,
    /// in chunks of up to `CHUNK`; no entry has a `seq`, its place is one.
    far: [Vec<Vec<(u64, E)>>; LEVELS],
    far_len: usize,
    /// Emptied chunks, their capacity kept for the next level that grows.
    pool: Vec<Vec<(u64, E)>>,
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
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            near_bucket: 0,
            far: [const { Vec::new() }; LEVELS],
            far_len: 0,
            pool: Vec::new(),
            now_ms: 0,
            seq: 0,
            processed: 0,
        }
    }

    /// The current virtual time.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Schedules an event at an absolute virtual time. Events scheduled in
    /// the past fire "now" (time never goes backwards).
    pub fn schedule_at(&mut self, at_ms: u64, event: E) {
        let at_ms = at_ms.max(self.now_ms);
        if at_ms >> BUCKET_MS_LOG2 <= self.near_bucket {
            self.push_near(at_ms, event);
        } else {
            self.push_far(at_ms, event);
            self.far_len += 1;
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
        if self.heap.is_empty() {
            self.promote(horizon_ms);
        }
        if self.heap.first()?.at_ms > horizon_ms {
            return None;
        }
        // The last element takes the root's place and sinks.
        let s = self.heap.swap_remove(0);
        let mut i = 0;
        while let Some(child) = self.min_child(i) {
            if self.heap[i].key() <= self.heap[child].key() {
                break;
            }
            self.heap.swap(i, child);
            i = child;
        }
        self.now_ms = s.at_ms;
        self.processed += 1;
        Some((s.at_ms, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.far_len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Appends an event of a later bucket to its level of the far tier.
    fn push_far(&mut self, at_ms: u64, event: E) {
        let level = ((at_ms >> BUCKET_MS_LOG2) ^ self.near_bucket).ilog2() as usize;
        let chunks = &mut self.far[level];
        if chunks.last().is_none_or(|chunk| chunk.len() == CHUNK) {
            let spare = self.pool.pop();
            chunks.push(spare.unwrap_or_else(|| Vec::with_capacity(CHUNK)));
        }
        let chunk = chunks
            .last_mut()
            .expect("a chunk with room was just ensured");
        chunk.push((at_ms, event));
    }

    /// With the heap empty, makes the bucket of the earliest far event the
    /// near one, unless that event is due after `horizon_ms`. The event is
    /// in the lowest level in use; the level's entries move, in the order
    /// they were scheduled, into the heap (that bucket's, under fresh
    /// `seq`s) or down to the lower levels (all empty) where the new near
    /// bucket puts them, and higher levels differ from the old and the new
    /// near bucket in the same bit. So a bucket's events stay together and
    /// in order, later arrivals queue behind them, and ties pop as if the
    /// bucket had been in the heap all along.
    fn promote(&mut self, horizon_ms: u64) {
        let Some(level) = self.far.iter().position(|chunks| !chunks.is_empty()) else {
            return;
        };
        let times = self.far[level].iter().flatten().map(|(at_ms, _)| *at_ms);
        let earliest_ms = times.min().expect("a level keeps no empty chunk");
        if earliest_ms > horizon_ms {
            return;
        }
        self.near_bucket = earliest_ms >> BUCKET_MS_LOG2;
        for mut chunk in std::mem::take(&mut self.far[level]) {
            for (at_ms, event) in chunk.drain(..) {
                if at_ms >> BUCKET_MS_LOG2 == self.near_bucket {
                    self.push_near(at_ms, event);
                    self.far_len -= 1;
                } else {
                    self.push_far(at_ms, event);
                }
            }
            self.pool.push(chunk);
        }
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

#[cfg(test)]
mod tests {
    use super::*;

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

    /// ~1 000 events pending while a million pass through ~8 000 buckets:
    /// the chunks a split level held are the ones the next levels fill. A
    /// level hands its chunks back one at a time while it is split, so one
    /// chunk for each lower level it fills (sixteen buckets span at most
    /// five levels) is extra for that long.
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
            assert_eq!(q.len(), q.heap.len() + far, "event {i}");
        }
        assert!(q.now_ms() >> BUCKET_MS_LOG2 > 5_000, "{}", q.now_ms());
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

    #[derive(Default)]
    struct Model {
        pending: BTreeMap<(u64, u64), usize>,
        now_ms: u64,
        seq: u64,
        processed: u64,
    }

    impl Model {
        fn schedule_at(&mut self, at_ms: u64, event: usize) {
            self.seq += 1;
            self.pending
                .insert((at_ms.max(self.now_ms), self.seq), event);
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

    /// Applies `ops` to both, comparing every pop and every observable
    /// after each step, then drains both.
    fn check(ops: impl IntoIterator<Item = Op>) {
        let mut queue: EventQueue<usize> = EventQueue::new();
        let mut model = Model::default();
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

    /// A time within 2 ms of one of the first six multiples of [`SPAN`]
    /// (thirty values in all, so ties are the rule).
    fn edge(i: u64) -> u64 {
        (i / 5 * SPAN + i % 5).saturating_sub(2)
    }

    /// Times straddle multiples of [`SPAN`]: behind the clock (clamped),
    /// tied, just before and just after an edge the clock is about to
    /// cross or has just crossed, relative delays that land on either side
    /// of the next edge, horizons that fall between the clock and the next
    /// pending event, and two times so far out that nothing may be sized by
    /// the distance to them.
    fn edge_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..30).prop_map(|i| Op::At(edge(i))),
            (0u64..30).prop_map(|i| Op::At(edge(i))),
            (0u64..3).prop_map(Op::In),
            (0u64..5).prop_map(|d| Op::In(SPAN - 2 + d)),
            prop_oneof![Just(1u64 << 40), Just(1u64 << 62)].prop_map(Op::At),
            Just(Op::Next),
            Just(Op::Next),
            (0u64..30).prop_map(|i| Op::NextBefore(edge(i))),
            (0u64..30).prop_map(|i| Op::NextBefore(edge(i))),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_interleavings_match_the_model(
            ops in proptest::collection::vec(any_op(), 0..400),
        ) {
            check(ops);
        }

        #[test]
        fn interleavings_across_span_edges_match_the_model(
            ops in proptest::collection::vec(edge_op(), 0..400),
        ) {
            check(ops);
        }
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
