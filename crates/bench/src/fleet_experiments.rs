//! Fleet-dynamics experiments: Figs. 5–9 and Table 1.

use crate::Scale;
use fl_analytics::dashboard;
use fl_core::round::{RoundConfig, RoundOutcome};
use fl_sim::fleet::{self, FleetConfig, FleetReport};
use std::fmt::Write as _;

/// The fleet configuration used by the figure experiments. Payload sizes
/// are measured from real encoded `fl-wire` frames for the FIG9 workload
/// (see [`fleet::measured_payload_sizes`]), not analytic estimates.
pub fn fleet_config(scale: Scale) -> FleetConfig {
    let (plan_bytes, checkpoint_bytes, update_bytes) =
        fleet::measured_payload_sizes(fleet::FIG9_MODEL, fleet::FIG9_CODEC);
    match scale {
        Scale::Quick => FleetConfig {
            devices: 2_000,
            days: 2,
            round: RoundConfig {
                goal_count: 30,
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
            seed: 42,
        },
        Scale::Full => FleetConfig {
            devices: 20_000,
            days: 3,
            ..fleet_config(Scale::Quick)
        },
    }
}

/// Runs the fleet simulation once (shared by Figs. 5–9 and Table 1).
pub fn run_fleet(scale: Scale) -> FleetReport {
    fleet::run(&fleet_config(scale))
}

/// Fig. 5: round completion rate oscillates with diurnal availability.
pub fn fig5(report: &FleetReport) -> String {
    let mut out = String::new();
    writeln!(out, "=== Figure 5: Round Completion Rate ===").unwrap();
    let completions = report.completions.sums();
    let hours: Vec<String> = (0..completions.len())
        .map(|b| format!("{:02}h{:02}", (b / 2) % 24, (b % 2) * 30))
        .collect();
    out.push_str(&dashboard::bar_chart(
        "round completions per 30 min",
        &completions,
        Some(&hours),
        40,
    ));
    let swing = report
        .participating_starts
        .peak_to_trough()
        .unwrap_or(f64::NAN);
    writeln!(
        out,
        "\nparticipating-device peak/trough swing over the day: {swing:.1}x"
    )
    .unwrap();
    writeln!(
        out,
        "paper: \"4x difference between low and high numbers of participating devices\""
    )
    .unwrap();
    out
}

/// Fig. 6: participating vs waiting devices over the simulated days,
/// with the completion-rate series underneath.
pub fn fig6(report: &FleetReport) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "=== Figure 6: Connected Devices Over {} Days ===",
        report.config.days
    )
    .unwrap();
    out.push_str(&dashboard::dual_series(
        "device states (30-min buckets)",
        "participating",
        &report.participating.means(),
        "waiting",
        &report.waiting.means(),
    ));
    out.push_str(&dashboard::dual_series(
        "round outcomes",
        "completions",
        &report.completions.sums(),
        "(same series)",
        &report.completions.sums(),
    ));
    writeln!(
        out,
        "completion rate tracks availability: correlation(waiting, completions) = {:.2}",
        correlation(&report.waiting.means(), &report.completions.sums())
    )
    .unwrap();
    out
}

/// Fig. 7: per-round completed / aborted / dropped-out devices and the
/// day-vs-night drop-out correlation.
pub fn fig7(report: &FleetReport) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "=== Figure 7: Device Participation Outcomes per Round ==="
    )
    .unwrap();
    writeln!(
        out,
        "{:>6} {:>6} {:>10} {:>10} {:>9}",
        "round", "hour", "completed", "aborted", "dropped"
    )
    .unwrap();
    for r in report
        .rounds
        .iter()
        .filter(|r| r.outcome.is_committed())
        .take(30)
    {
        if let RoundOutcome::Committed {
            incorporated,
            aborted,
            dropped_out,
        } = r.outcome
        {
            writeln!(
                out,
                "{:>6} {:>6} {:>10} {:>10} {:>9}",
                r.seq, r.hour_of_day, incorporated, aborted, dropped_out
            )
            .unwrap();
        }
    }
    let committed = report.committed_rounds();
    let (day_drop, night_drop) = report.dropout_by_daypart();
    let (day_rate, night_rate) = report.dropout_rate_by_daypart();
    writeln!(out, "… ({committed} committed rounds total)").unwrap();
    writeln!(
        out,
        "\noverall drop-out rate: {:.1}% (paper: 6-10%)",
        report.dropout_rate() * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "server-visible drop-outs per committed round — day: {day_drop:.2}, night: {night_drop:.2}"
    )
    .unwrap();
    writeln!(
        out,
        "device-side drop-out rate — day: {:.1}%, night: {:.1}% (paper: higher during the day)",
        day_rate * 100.0,
        night_rate * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "over-selection: {:.0}% of goal (paper: 130%)",
        report.config.round.overselection * 100.0
    )
    .unwrap();
    out
}

/// Fig. 8: round run time vs device participation time distributions.
pub fn fig8(report: &FleetReport) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "=== Figure 8: Round Execution and Device Participation Time ==="
    )
    .unwrap();
    let to_minutes = |v: &[u64]| -> Vec<f64> { v.iter().map(|&t| t as f64 / 60_000.0).collect() };
    out.push_str(&dashboard::histogram(
        "round run time (minutes)",
        &to_minutes(&report.round_run_times_ms),
        10,
        40,
    ));
    out.push_str(&dashboard::histogram(
        "device participation time, completed (minutes)",
        &to_minutes(&report.participation_completed_ms),
        10,
        40,
    ));
    out.push_str(&dashboard::histogram(
        "device participation time, aborted (minutes, capped)",
        &to_minutes(&report.participation_aborted_ms),
        10,
        40,
    ));
    let p50 = |v: &[u64]| -> f64 {
        if v.is_empty() {
            return f64::NAN;
        }
        let mut s = v.to_vec();
        s.sort_unstable();
        s[s.len() / 2] as f64 / 60_000.0
    };
    writeln!(
        out,
        "\np50 round run time: {:.1} min; p50 completed-device participation: {:.1} min",
        p50(&report.round_run_times_ms),
        p50(&report.participation_completed_ms)
    )
    .unwrap();
    writeln!(
        out,
        "participation cap: {:.1} min (paper: \"device participation time is capped\")",
        report.config.round.device_cap_ms as f64 / 60_000.0
    )
    .unwrap();
    out
}

/// Fig. 9: server network traffic asymmetry.
pub fn fig9(report: &FleetReport) -> String {
    let mut out = String::new();
    writeln!(out, "=== Figure 9: Server Network Traffic ===").unwrap();
    let t = &report.traffic;
    let gb = |b: u64| b as f64 / 1e9;
    writeln!(out, "{:<28} {:>10}", "flow", "GB").unwrap();
    writeln!(
        out,
        "{:<28} {:>10.2}",
        "download: plans",
        gb(t.plan_bytes())
    )
    .unwrap();
    writeln!(
        out,
        "{:<28} {:>10.2}",
        "download: checkpoints",
        gb(t.checkpoint_bytes())
    )
    .unwrap();
    writeln!(
        out,
        "{:<28} {:>10.2}",
        "upload: updates",
        gb(t.update_bytes())
    )
    .unwrap();
    writeln!(
        out,
        "{:<28} {:>10.2}",
        "total download",
        gb(t.download_bytes())
    )
    .unwrap();
    writeln!(out, "{:<28} {:>10.2}", "total upload", gb(t.upload_bytes())).unwrap();
    writeln!(
        out,
        "\ndownload/upload ratio: {:.1}x (paper: download dominates)",
        t.asymmetry()
    )
    .unwrap();
    writeln!(
        out,
        "cause: each device downloads plan (≈ model size) + checkpoint, uploads a compressed update"
    )
    .unwrap();
    writeln!(
        out,
        "per-participant frame sizes (measured from encoded fl-wire frames): \
         plan {} B, checkpoint {} B, update {} B",
        report.config.plan_bytes, report.config.checkpoint_bytes, report.config.update_bytes
    )
    .unwrap();
    out
}

/// Table 1: session-shape distribution.
pub fn table1(report: &FleetReport) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "=== Table 1: Distribution of On-Device Training Sessions ==="
    )
    .unwrap();
    out.push_str(&report.sessions.to_string());
    writeln!(
        out,
        "\npaper: -v[]+^ 75%, -v[]+# 22%, -v[! 2%  (legend: - checkin, v plan, [ ] train, + upload, ^ ok, # rejected, ! interrupted, * error)"
    )
    .unwrap();
    out
}

/// Pearson correlation of two equal-prefix series.
fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n < 2 {
        return f64::NAN;
    }
    let (a, b) = (&a[..n], &b[..n]);
    let ma = a.iter().sum::<f64>() / n as f64;
    let mb = b.iter().sum::<f64>() / n as f64;
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
    cov / (va.sqrt() * vb.sqrt()).max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fleet_supports_all_figures() {
        let report = run_fleet(Scale::Quick);
        let f5 = fig5(&report);
        assert!(f5.contains("swing"));
        let f6 = fig6(&report);
        assert!(f6.contains("participating"));
        let f7 = fig7(&report);
        assert!(f7.contains("drop-out rate"));
        let f8 = fig8(&report);
        assert!(f8.contains("p50 round run time"));
        let f9 = fig9(&report);
        assert!(f9.contains("download/upload ratio"));
        let t1 = table1(&report);
        assert!(t1.contains("-v[]+^"));
    }

    #[test]
    fn correlation_is_sane() {
        let up: Vec<f64> = (0..10).map(f64::from).collect();
        let down: Vec<f64> = (0..10).map(|i| f64::from(10 - i)).collect();
        assert!(correlation(&up, &up) > 0.99);
        assert!(correlation(&up, &down) < -0.99);
    }
}
