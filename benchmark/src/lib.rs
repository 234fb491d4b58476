//! What both benchmark binaries share: argument parsing, the metric
//! list and its JSON result line, order statistics, peak RSS, and the
//! in-memory span recorder of the traced run, and the fleet simulator's
//! configuration (the one repository type both binaries build). The
//! measured surface is in the two binaries.

use fl_core::round::RoundConfig;
use fl_sim::fleet::{measured_payload_sizes, FleetConfig, FIG9_CODEC, FIG9_MODEL};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The fleet both `fleet_des` and the `sim.fleet_*` probes simulate, at
/// the given size: FIG9 payload sizes measured from real frames, and a
/// round a little tighter than production's.
pub fn fleet_config(devices: u64, days: u64, seed: u64) -> FleetConfig {
    let (plan_bytes, checkpoint_bytes, update_bytes) =
        measured_payload_sizes(FIG9_MODEL, FIG9_CODEC);
    FleetConfig {
        devices,
        days,
        round: RoundConfig {
            goal_count: 300,
            overselection: 1.3,
            min_goal_fraction: 0.7,
            selection_timeout_ms: 20 * 60_000,
            report_window_ms: 10 * 60_000,
            device_cap_ms: 8 * 60_000,
        },
        plan_bytes,
        checkpoint_bytes,
        update_bytes,
        work_units: 40_000,
        checkin_period_ms: 60_000,
        failure_probability: 0.04,
        seed,
    }
}

/// Every synthetic device update is this delta on every coordinate with
/// weight 1, so after `r` committed rounds every parameter is exactly
/// `r * DELTA` (a power of two keeps the f32 sums and the fixed-point grid
/// exact).
pub const DELTA: f32 = 1.0 / 64.0;

/// `--key value` arguments, in the order given.
#[derive(Debug)]
pub struct Args(Vec<(String, String)>);

impl Args {
    /// Parses the process arguments; every flag takes exactly one value.
    pub fn parse() -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value));
        }
        Ok(Args(pairs))
    }

    /// The value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `--name` parsed, or `default` when the flag is absent.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The metrics of one run, in emission order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        assert!(value.is_finite(), "metric {name} is not a finite number");
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Emits `<prefix>_p50` and `<prefix>_p90` of `samples`.
    pub fn push_quantiles(&mut self, prefix: &str, samples: &mut [f64], unit: &str) {
        self.push(&format!("{prefix}_p50"), quantile(samples, 0.5), unit);
        self.push(&format!("{prefix}_p90"), quantile(samples, 0.9), unit);
    }

    /// Tab-separated `name value unit` lines: how `layers` hands its
    /// metrics to `e2e` for the single result line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(out, "{}\t{}\t{}", m.name, m.value, m.unit);
        }
        out
    }

    /// Appends the metrics of a [`Metrics::to_tsv`] file.
    pub fn extend_from_tsv(&mut self, text: &str) -> Result<(), String> {
        for line in text.lines().filter(|l| !l.is_empty()) {
            let mut cols = line.split('\t');
            match (cols.next(), cols.next().map(str::parse::<f64>), cols.next()) {
                (Some(name), Some(Ok(value)), Some(unit)) => self.push(name, value, unit),
                _ => return Err(format!("malformed metric line {line:?}")),
            }
        }
        Ok(())
    }
}

/// What one run did and measured; printed as the run's last line.
#[derive(Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    /// The one-line JSON object the driver reads.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The `q`-quantile of `samples` (nearest rank); sorts in place.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples`; sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb * 1024.0 / 1e6
}

/// The machine budget of the load generator: at most this many driver
/// threads and this many connections, on any workload.
pub const MAX_LOAD_THREADS: usize = 2;

/// Checks a workload's driver-thread and connection counts against the
/// budget, and warns when the machine has fewer cores than threads (the
/// numbers are then not comparable with the reference box).
pub fn check_load_budget(threads: usize, connections: usize) {
    assert!(
        threads <= MAX_LOAD_THREADS,
        "load generator uses {threads} threads"
    );
    assert!(
        connections <= MAX_LOAD_THREADS,
        "load generator uses {connections} connections"
    );
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < threads {
        eprintln!("warning: {threads} driver threads on {cores} core(s)");
    }
}

/// One recorded interval of the traced run.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<usize>,
    /// The round the span belongs to; spans of one round share it.
    pub round: u64,
    pub start: Duration,
    pub end: Duration,
}

/// Spans kept in memory and written out when the run ends. Times are
/// offsets from the trace's own epoch.
#[derive(Debug)]
pub struct Trace {
    pub epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its index, for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        round: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            round,
            start: start.duration_since(self.epoch),
            end: end.duration_since(self.epoch),
        });
        self.spans.len() - 1
    }

    /// Appends another trace's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.end - s.start))
            .collect()
    }

    /// Self time in ms of every span called `name`: its duration minus
    /// its children's.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| ms((s.end - s.start).saturating_sub(*c)))
            .collect()
    }

    /// The trace as a JSON array, times in microseconds.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"round\": {}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.name,
                s.round,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}
