//! `fleet_des`: the discrete-event fleet simulator on a million devices.
//! One thread, no actors, no wire bytes: the control for every live-path
//! change and the hot loop of the repository's other product.

use fl_benchmark::{fleet_config, Trace};
use fl_sim::fleet::{run, FleetReport};
use std::time::{Duration, Instant};

pub const DEVICES: u64 = 1_000_000;
/// One measured run simulates one day: the whole diurnal cycle.
pub const DAYS: u64 = 1;
/// Measured runs for each requested second; at least two, to compare.
const RUNS_PER_SECOND: f64 = 0.5;
const WARMUP_DEVICES: u64 = 20_000;

/// The counts a run must reproduce exactly on the same seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub started: u64,
    pub committed: u64,
    pub checkins: u64,
    pub turned_away: u64,
    pub incorporated: u64,
    pub reported: u64,
    pub upload_bytes: u64,
    pub download_bytes: u64,
}

impl Counts {
    fn of(report: &FleetReport) -> Counts {
        let (mut incorporated, mut reported) = (0, 0);
        for r in &report.rounds {
            if let fl_core::RoundOutcome::Committed {
                incorporated: i,
                aborted,
                ..
            } = r.outcome
            {
                incorporated += i as u64;
                reported += (i + aborted) as u64;
            }
        }
        Counts {
            started: report.rounds.len() as u64,
            committed: report.committed_rounds() as u64,
            checkins: report.checkins.0 + report.checkins.1,
            turned_away: report.checkins.1,
            incorporated,
            reported,
            upload_bytes: report.traffic.upload_bytes(),
            download_bytes: report.traffic.download_bytes(),
        }
    }
}

#[derive(Debug)]
pub struct FleetRun {
    pub setup: Vec<Duration>,
    /// Wall time and counts of each measured run, in order.
    pub runs: Vec<(Duration, Counts)>,
    pub trace: Option<Trace>,
}

/// Sets up `setups` times (config build plus a 20k-device one-day run),
/// then runs the million-device day again and again on the same seed;
/// every second run records a span when `traced`.
pub fn run_fleet(seed: u64, seconds: u64, setups: usize, traced: bool) -> FleetRun {
    let mut setup = Vec::new();
    let mut measured = fleet_config(DEVICES, DAYS, seed);
    for _ in 0..setups {
        let started = Instant::now();
        measured = fleet_config(DEVICES, DAYS, seed);
        std::hint::black_box(run(&fleet_config(WARMUP_DEVICES, 1, seed)));
        setup.push(started.elapsed());
    }
    let mut trace = traced.then(|| Trace::new(Instant::now()));
    let mut runs = Vec::new();
    for i in 0..((RUNS_PER_SECOND * seconds as f64).round() as u64).max(2) {
        let started = Instant::now();
        let report = run(std::hint::black_box(&measured));
        let ended = Instant::now();
        if let Some(trace) = trace.as_mut().filter(|_| i % 2 == 1) {
            trace.record("round", None, i, started, ended);
        }
        runs.push((ended - started, Counts::of(&report)));
    }
    FleetRun { setup, runs, trace }
}
