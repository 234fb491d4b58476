//! Event-queue gate: ns per pop plus push of [`EventQueue`] as the number
//! of pending events grows, and one million-device day of
//! [`fl_sim::fleet::run`]. Per-case lines go to stderr and the JSON
//! document to stdout; nothing is written to disk, so the committed
//! `BENCH_des.json` is refreshed by a redirect:
//!
//! ```text
//! cargo run --release -q -p fl-bench --bin bench_des > BENCH_des.json
//! ```
//!
//! Each queue shape holds a fixed number of events, due uniformly over the
//! next six hours (a fleet's spread of wake-ups), and times pops that each
//! schedule one replacement, due uniformly over the six hours after the
//! popped event. The two shapes, 10 000 and 1 000 000 pending, are timed in
//! turns, so a fast or slow spell of the host falls on both; a queue whose
//! cost per event grows with what is pending shows as a slope between
//! them, and the run exits non-zero when the large shape's median costs
//! over [`gate::DES_MAX_SLOPE`] times the small one's. The `day` row is the
//! `fleet_des` workload's fleet (1 000 000 devices, seed 5): the best of
//! three runs, the events one pops, the most it held pending and the
//! standard normals it evaluated (`fl_ml::rng::normals`, this thread's
//! count); the run also exits non-zero when the events are not
//! [`gate::DES_DAY_EVENTS`], the peak is over
//! [`gate::DES_DAY_PEAK_PENDING`] or the normals are over
//! [`gate::DES_DAY_NORMALS`]. Run it on an otherwise idle machine.

use fl_bench::fleet_experiments::fleet_config;
use fl_bench::gate::{self, DesCase as Case, DesDay, DES_PENDING};
use fl_bench::Scale;
use fl_core::round::RoundConfig;
use fl_ml::rng;
use fl_sim::des::EventQueue;
use fl_sim::fleet::{self, FleetConfig};
use std::hint::black_box;
use std::time::Instant;

/// Six hours: the spread of due times ahead of the clock.
const SPREAD_MS: u64 = 6 * 3_600_000;
/// Pops (each with its push) per turn.
const OPS: u32 = 1_000_000;
/// Timed turns per shape; one untimed turn each comes first.
const TURNS: usize = 7;

/// A queue held at one depth, and the generator of its due times.
struct Shape {
    queue: EventQueue<u64>,
    x: u64,
}

impl Shape {
    fn new(pending: usize) -> Shape {
        let mut shape = Shape {
            queue: EventQueue::new(),
            x: pending as u64,
        };
        for e in 0..pending as u64 {
            let delay = shape.delay();
            shape.queue.schedule_in(delay, e);
        }
        shape
    }

    /// A delay uniform over [`SPREAD_MS`] (a 64-bit LCG's high half,
    /// scaled).
    fn delay(&mut self) -> u64 {
        self.x = self
            .x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.x >> 32) * SPREAD_MS) >> 32
    }

    /// Ns per pop plus push over [`OPS`] of them.
    fn turn(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..OPS {
            let (_, e) = self.queue.next().expect("the queue is never empty");
            let delay = self.delay();
            self.queue.schedule_in(delay, black_box(e));
        }
        started.elapsed().as_nanos() as f64 / f64::from(OPS)
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() -> Result<(), String> {
    let mut shapes = DES_PENDING.map(Shape::new);
    let mut times: [Vec<f64>; 2] = Default::default();
    for turn in 0..=TURNS {
        for (shape, times) in shapes.iter_mut().zip(&mut times) {
            let ns = shape.turn();
            if turn > 0 {
                times.push(ns);
            }
        }
    }
    let cases: Vec<Case> = DES_PENDING
        .iter()
        .zip(times)
        .map(|(&pending, times)| Case {
            pending,
            ns_per_event: median(times),
        })
        .collect();
    for case in &cases {
        eprintln!(
            "pop + push at {:>9} pending: {:>6.1} ns (median of {TURNS} turns of {OPS})",
            case.pending, case.ns_per_event
        );
    }
    drop(shapes);

    // The figures' fleet at `fleet_des`'s size and goal.
    let quick = fleet_config(Scale::Quick);
    let config = FleetConfig {
        devices: 1_000_000,
        days: 1,
        round: RoundConfig {
            goal_count: 300,
            ..quick.round
        },
        seed: 5,
        ..quick
    };
    let (mut best_ms, mut events, mut peak_pending, mut rounds) = (f64::INFINITY, 0, 0, 0);
    let mut normals = 0;
    for _ in 0..3 {
        let normals_before = rng::normals();
        let started = Instant::now();
        let (report, popped, peak) = fleet::run_counting_events(black_box(&config));
        best_ms = best_ms.min(started.elapsed().as_secs_f64() * 1e3);
        normals = rng::normals() - normals_before;
        (events, peak_pending, rounds) = (popped, peak, report.rounds.len());
    }
    eprintln!(
        "a 1 000 000-device day: {best_ms:.1} ms (best of 3), {events} events, \
         {peak_pending} pending at most, {rounds} rounds, {normals} normals"
    );

    let rows: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                "    {{\"pending\": {}, \"turns\": {TURNS}, \"ops_per_turn\": {OPS}, \
                 \"ns_per_event\": {:.1}}}",
                c.pending, c.ns_per_event
            )
        })
        .collect();
    println!(
        "{{\n  \"bench\": \"des_queue\",\n  \"spread_ms\": {SPREAD_MS},\n  \"cases\": [\n{}\n  ],\n  \
         \"day\":\n    {{\"devices\": {}, \"seed\": {}, \"best_ms\": {best_ms:.1}, \"events\": {events}, \"peak_pending\": {peak_pending}, \"rounds\": {rounds}, \"normals\": {normals}}}\n}}",
        rows.join(",\n"),
        config.devices,
        config.seed,
    );

    gate::des(&cases)?;
    gate::des_day(&DesDay {
        events,
        peak_pending,
        normals,
    })
}
