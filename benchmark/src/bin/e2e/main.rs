//! `e2e`: the four end-to-end workloads.
//!
//! `e2e --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! [--layer-metrics FILE]` runs one workload, checks its outputs, prints
//! every metric by name and unit, and ends with the one-line JSON result.
//! `--trace 0` gives the end-to-end metrics; `--trace 1` records spans on
//! every second round, writes `DIR/trace_W.json`, and gives the per-layer
//! metrics (its own, plus those `layers` left in FILE).

mod fleet;
mod live;

use fl_benchmark::{mean, median, ms, peak_rss_mb, quantile, Args, Metrics, RunResult, Trace};
use live::{Link, LiveRun, LiveSpec, RoundRecord};
use std::collections::BTreeMap;
use std::time::Duration;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

const ROUND_PLAIN_TCP: LiveSpec = LiveSpec {
    populations: 1,
    dim: 4096,
    classes: 64,
    goal: 16,
    overselection: 1.25,
    max_per_shard: 8,
    secagg_k: None,
    checkins: 20,
    share_dropouts: 0,
    selectors: 2,
    shared_budget: false,
    link: Link::Tcp,
    lanes: 2,
    warmup_rounds: 5,
    rounds_per_second: 4.8,
};

const CHECKIN_STORM: LiveSpec = LiveSpec {
    populations: 4,
    dim: 16,
    classes: 4,
    goal: 20,
    overselection: 1.0,
    max_per_shard: 10,
    secagg_k: None,
    checkins: 320,
    share_dropouts: 0,
    selectors: 2,
    shared_budget: true,
    link: Link::Channel,
    lanes: 2,
    warmup_rounds: 100,
    rounds_per_second: 200.0,
};

const ROUND_SECAGG: LiveSpec = LiveSpec {
    populations: 1,
    dim: 256,
    classes: 16,
    goal: 64,
    overselection: 1.0,
    max_per_shard: 16,
    secagg_k: Some(8),
    checkins: 64,
    share_dropouts: 4,
    selectors: 1,
    shared_budget: false,
    link: Link::Channel,
    lanes: 1,
    warmup_rounds: 20,
    rounds_per_second: 40.0,
};

/// Rounds per population of the reference storm that fills the live-layer
/// rows of `fleet_des`'s traced run, which has no live round of its own.
const REFERENCE_ROUNDS: u64 = 100;

fn live_spec(workload: &str) -> Option<&'static LiveSpec> {
    match workload {
        "round_plain_tcp" => Some(&ROUND_PLAIN_TCP),
        "checkin_storm" => Some(&CHECKIN_STORM),
        "round_secagg" => Some(&ROUND_SECAGG),
        _ => None,
    }
}

/// Sums the lanes' views of each population-round and checks them against
/// the workload's expected split, then the final checkpoint. Returns
/// (sessions attempted, failed): a round that breaks any expectation fails
/// all its sessions.
fn audit(spec: &LiveSpec, run: &LiveRun) -> (u64, u64) {
    let mut rounds: BTreeMap<(usize, u64), RoundRecord> = BTreeMap::new();
    for r in &run.records {
        rounds
            .entry((r.pop, r.round))
            .and_modify(|sum| {
                sum.checkins += r.checkins;
                sum.configured += r.configured;
                sum.turned_away += r.turned_away;
                sum.accepted += r.accepted;
                sum.refused += r.refused;
                sum.committed &= r.committed;
                sum.params_ok &= r.params_ok;
            })
            .or_insert_with(|| r.clone());
    }
    let target = spec.configured_per_round();
    let (mut attempted, mut failed) = (0, 0);
    for (key, r) in &rounds {
        attempted += r.checkins;
        let ok = r.checkins == spec.checkins as u64
            && r.configured == target
            && r.turned_away == r.checkins - target
            && r.accepted == spec.goal as u64
            && r.refused == target - spec.goal as u64
            && r.committed
            && r.params_ok;
        if !ok {
            eprintln!("oracle: population-round {key:?} broke its expected split: {r:?}");
            failed += r.checkins;
        }
    }
    if !run.final_checkpoint_ok {
        eprintln!("oracle: the checkpoint read back after the last round is wrong");
        failed += 1;
    }
    (attempted, failed)
}

fn round_walls_ms(records: &[RoundRecord]) -> Vec<f64> {
    records.iter().filter_map(|r| r.wall).map(ms).collect()
}

/// Committed rounds per second, robust to a burst of interference from
/// the host: each committing lane's run is cut into `SLICES` equal slices,
/// the lane's rate is the median slice's, and lanes add up.
fn rounds_per_s(records: &[RoundRecord]) -> f64 {
    const SLICES: usize = 16;
    let mut lanes: BTreeMap<u64, Vec<&RoundRecord>> = BTreeMap::new();
    for r in records.iter().filter(|r| r.wall.is_some()) {
        lanes.entry(r.lane).or_default().push(r);
    }
    lanes
        .values()
        .map(|rounds| {
            let slices: Vec<&[&RoundRecord]> =
                rounds.chunks((rounds.len() / SLICES).max(1)).collect();
            let last = rounds[rounds.len() - 1];
            let mut rates: Vec<f64> = (0..slices.len())
                .map(|i| {
                    // A slice ends where the next begins, so the time
                    // between rounds is counted too.
                    let end = slices
                        .get(i + 1)
                        .map_or(last.started + last.wall.unwrap_or_default(), |s| {
                            s[0].started
                        });
                    slices[i].len() as f64 / (end - slices[i][0].started).as_secs_f64()
                })
                .collect();
            median(&mut rates)
        })
        .sum()
}

fn setup_s(setups: &[Duration]) -> f64 {
    median(&mut setups.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

fn live_end_to_end(spec: &LiveSpec, run: &LiveRun) -> RunResult {
    let (attempted, failed) = audit(spec, run);
    let mut walls = round_walls_ms(&run.records);
    let rounds = walls.len() as f64;
    let per_round =
        |f: fn(&RoundRecord) -> u64| run.records.iter().map(f).sum::<u64>() as f64 / rounds;
    let rate = rounds_per_s(&run.records);
    let mut metrics = Metrics::default();
    metrics.push("setup_s", setup_s(&run.setup), "s");
    metrics.push("rounds_per_s", rate, "1/s");
    metrics.push("round_ms_p50", median(&mut walls), "ms");
    metrics.push("checkins_per_s", rate * per_round(|r| r.checkins), "1/s");
    metrics.push(
        "upload_mb_per_s",
        rate * per_round(|r| r.report_bytes) / 1e6,
        "MB/s",
    );
    metrics.push("peak_rss_mb", run.peak_rss_mb, "MB");
    eprintln!("round_ms_p50 is over {rounds} rounds");
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// The rows a traced live run gives: phase spans, shares and exact wire
/// counts per round.
fn live_layers(run: &LiveRun, metrics: &mut Metrics) {
    let trace = run.trace.as_ref().expect("a traced run recorded spans");
    for phase in ["checkin", "configure", "report", "commit"] {
        metrics.push_quantiles(
            &format!("coordinator.phase_{phase}_ms"),
            &mut trace.durations_ms(&format!("phase.{phase}")),
            "ms",
        );
    }
    metrics.push(
        "round.ms_p90",
        quantile(&mut trace.durations_ms("round"), 0.9),
        "ms",
    );
    metrics.push(
        "round.self_ms_p50",
        median(&mut trace.self_ms("round")),
        "ms",
    );
    let sum = |f: fn(&RoundRecord) -> u64| run.records.iter().map(f).sum::<u64>() as f64;
    let rounds = round_walls_ms(&run.records).len() as f64;
    metrics.push(
        "coordinator.straggler_share",
        sum(|r| r.accepted) / sum(|r| r.accepted + r.refused),
        "ratio",
    );
    metrics.push(
        "selector.turned_away_share",
        sum(|r| r.turned_away) / sum(|r| r.checkins),
        "ratio",
    );
    metrics.push(
        "wire.frames_per_round",
        sum(|r| r.wire.frames_sent + r.wire.frames_received) / rounds,
        "count",
    );
    metrics.push(
        "wire.bytes_up_per_round",
        sum(|r| r.wire.bytes_sent) / rounds,
        "B",
    );
    metrics.push(
        "wire.bytes_down_per_round",
        sum(|r| r.wire.bytes_received) / rounds,
        "B",
    );
}

/// What tracing cost: every second round (or simulator run) recorded
/// spans, the rest are the untraced run.
fn push_overhead(metrics: &mut Metrics, traced: &[f64], untraced: &[f64]) {
    metrics.push(
        "trace.overhead_share",
        mean(traced) / mean(untraced) - 1.0,
        "ratio",
    );
}

/// Whether two simulator runs on one seed counted the same; returns
/// (rounds attempted, failed).
fn fleet_audit(run: &fleet::FleetRun) -> (u64, u64) {
    let counts = run.runs[0].1;
    // A round the diurnal trough abandons is an expected outcome, like a
    // straggler's refused report; a run that does not repeat is not.
    let mut failed = 0;
    for (_, other) in &run.runs[1..] {
        if *other != counts {
            eprintln!("oracle: two runs on one seed disagree: {counts:?} vs {other:?}");
            failed += other.started;
        }
    }
    (counts.started * run.runs.len() as u64, failed)
}

fn fleet_end_to_end(run: &fleet::FleetRun) -> RunResult {
    let counts = run.runs[0].1;
    let (attempted, failed) = fleet_audit(run);
    // The runs do identical single-threaded work and the host only ever
    // adds time, in episodes longer than a run: with a handful of runs the
    // fastest is the steady estimate, where a median is not.
    let wall = run
        .runs
        .iter()
        .map(|(w, _)| w.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let mut metrics = Metrics::default();
    metrics.push("setup_s", setup_s(&run.setup), "s");
    metrics.push("rounds_per_s", counts.committed as f64 / wall, "1/s");
    // The simulator has no wall clock per round: this is the fastest run's
    // wall time per simulated committed round.
    metrics.push("round_ms_p50", wall * 1e3 / counts.committed as f64, "ms");
    metrics.push("checkins_per_s", counts.checkins as f64 / wall, "1/s");
    metrics.push(
        "upload_mb_per_s",
        counts.upload_bytes as f64 / 1e6 / wall,
        "MB/s",
    );
    metrics.push("peak_rss_mb", peak_rss_mb(), "MB");
    eprintln!(
        "fleet_des: {} devices x {} day in {:?}: {counts:?}",
        fleet::DEVICES,
        fleet::DAYS,
        run.runs.iter().map(|(w, _)| *w).collect::<Vec<_>>()
    );
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

fn write_trace(out: &str, workload: &str, trace: &Trace) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{out}: {e}"))?;
    let path = format!("{out}/trace_{workload}.json");
    std::fs::write(&path, trace.to_json()).map_err(|e| format!("{path}: {e}"))
}

fn run_workload(args: &Args) -> Result<RunResult, String> {
    let workload = args.get("workload").ok_or("--workload is required")?;
    let seed: u64 = args.parsed("seed", 1)?;
    let seconds: u64 = args.parsed("seconds", 10)?;
    let traced = args.parsed("trace", 0u8)? != 0;
    let out = args.get("out").unwrap_or("benchmark/out");
    let spec = live_spec(workload);
    if spec.is_none() && workload != "fleet_des" {
        return Err(format!("unknown workload {workload:?}"));
    }
    if !traced {
        return Ok(match spec {
            Some(spec) => {
                let rounds = spec.measured_rounds(seconds);
                live_end_to_end(spec, &live::run(spec, seed, SETUPS, rounds, false))
            }
            None => fleet_end_to_end(&fleet::run_fleet(seed, seconds, SETUPS, false)),
        });
    }
    let mut metrics = Metrics::default();
    let (attempted, failed) = match spec {
        Some(spec) => {
            // Half the rounds: `layers` takes the other half of the time.
            let rounds = spec.measured_rounds(seconds).div_ceil(2);
            let run = live::run(spec, seed, 1, rounds, true);
            write_trace(out, workload, run.trace.as_ref().expect("traced"))?;
            live_layers(&run, &mut metrics);
            let walls = |traced: bool| -> Vec<f64> {
                let of_kind = run.records.iter().filter(|r| r.traced == traced);
                of_kind.filter_map(|r| r.wall).map(ms).collect()
            };
            push_overhead(&mut metrics, &walls(true), &walls(false));
            audit(spec, &run)
        }
        None => {
            // Half the seconds: `layers` and the reference storm take
            // the rest.
            let run = fleet::run_fleet(seed, seconds.div_ceil(2), 1, true);
            write_trace(out, workload, run.trace.as_ref().expect("traced"))?;
            let reference = live::run(&CHECKIN_STORM, seed, 1, REFERENCE_ROUNDS, true);
            live_layers(&reference, &mut metrics);
            let walls = |traced: usize| -> Vec<f64> {
                let of_kind = run.runs.iter().skip(traced).step_by(2);
                of_kind.map(|(w, _)| w.as_secs_f64()).collect()
            };
            push_overhead(&mut metrics, &walls(1), &walls(0));
            let (attempted, failed) = fleet_audit(&run);
            (attempted, failed + audit(&CHECKIN_STORM, &reference).1)
        }
    };
    if let Some(path) = args.get("layer-metrics") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        metrics.extend_from_tsv(&text)?;
    }
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

fn main() {
    let result = Args::parse()
        .and_then(|args| run_workload(&args))
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
    for m in &result.metrics.0 {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result.to_json());
    if !result.correct {
        std::process::exit(1);
    }
}
