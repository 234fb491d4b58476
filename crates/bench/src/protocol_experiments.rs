//! Protocol experiments: the Fig. 1 round trace, Secure Aggregation cost
//! scaling (Sec. 6), and pace-steering regimes (Sec. 2.3).

use crate::Scale;
use fl_core::round::RoundConfig;
use fl_core::{DeviceId, RoundId};
use fl_ml::rng;
use fl_secagg::protocol::{run_instance, SecAggConfig};
use fl_server::pace::PaceSteering;
use fl_server::round::{RoundEvent, RoundState};
use std::fmt::Write as _;
use std::time::Instant;

/// Fig. 1: a narrated trace of one protocol round, including a rejection
/// and a failure, annotated with the persistence points.
pub fn fig1_round_trace() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "=== Figure 1: Federated Learning Protocol (round trace) ==="
    )
    .unwrap();
    let config = RoundConfig {
        goal_count: 4,
        overselection: 1.5,
        min_goal_fraction: 0.75,
        selection_timeout_ms: 60_000,
        report_window_ms: 120_000,
        device_cap_ms: 100_000,
    };
    writeln!(
        out,
        "[t=     0ms] server reads model checkpoint from persistent storage (1)"
    )
    .unwrap();
    let mut round = RoundState::begin(RoundId(1), config, 0);
    writeln!(
        out,
        "[t=     0ms] selection opens: goal={} target={}",
        config.goal_count,
        config.selection_target()
    )
    .unwrap();
    for i in 0..6u64 {
        let t = 1_000 + i * 500;
        round.on_checkin(DeviceId(i), t);
        writeln!(out, "[t={t:>6}ms] device-{i} checks in -> selected (2)").unwrap();
    }
    // One more arrives after the target is met: rejected.
    let late = round.on_checkin(DeviceId(99), 5_000);
    writeln!(
        out,
        "[t=  5000ms] device-99 checks in -> {late:?} (\"come back later!\")"
    )
    .unwrap();
    for e in round.drain_events() {
        if let RoundEvent::Configured {
            at_ms,
            participants,
        } = e
        {
            writeln!(
                out,
                "[t={at_ms:>6}ms] configuration: model and plan sent to {participants} devices (3)"
            )
            .unwrap();
        }
    }
    // Devices train; one fails, one straggles.
    round.on_dropout(DeviceId(5), 20_000);
    writeln!(
        out,
        "[t= 20000ms] device-5 fails (device or network failure)"
    )
    .unwrap();
    for (i, t) in [(0u64, 30_000u64), (1, 35_000), (2, 40_000), (3, 45_000)] {
        let resp = round.on_report(DeviceId(i), t);
        writeln!(out, "[t={t:>6}ms] device-{i} reports update -> {resp:?}; server aggregates as they arrive (4,5)").unwrap();
    }
    let straggler = round.on_report(DeviceId(4), 50_000);
    writeln!(
        out,
        "[t= 50000ms] device-4 reports late -> {straggler:?} (straggler ignored)"
    )
    .unwrap();
    for e in round.drain_events() {
        if let RoundEvent::Finished { at_ms, outcome } = e {
            writeln!(out, "[t={at_ms:>6}ms] round finished: {outcome:?}").unwrap();
            writeln!(out, "[t={at_ms:>6}ms] server writes global model checkpoint into persistent storage (6)").unwrap();
        }
    }
    out
}

/// One row of the Secure Aggregation cost sweep.
#[derive(Debug, Clone, Copy)]
pub struct SecAggCostPoint {
    /// Devices in the instance.
    pub group_size: usize,
    /// Wall-clock time of a full instance (client + server work).
    pub total_ms: f64,
}

/// Measures full-instance Secure Aggregation cost vs group size.
///
/// Sec. 6: "several costs for Secure Aggregation grow quadratically with
/// the number of users […] in practice, this limits the maximum size of a
/// Secure Aggregation to hundreds of users."
pub fn secagg_cost_sweep(scale: Scale) -> Vec<SecAggCostPoint> {
    let (sizes, dim): (&[usize], usize) = match scale {
        Scale::Quick => (&[4, 8, 16, 32], 256),
        Scale::Full => (&[8, 16, 32, 64, 128], 1_024),
    };
    sizes
        .iter()
        .map(|&n| {
            let config = SecAggConfig::new((2 * n).div_ceil(3).max(2), dim);
            let inputs: Vec<Vec<u64>> = (0..n).map(|i| vec![i as u64; dim]).collect();
            let start = Instant::now();
            let sum = run_instance(config, &inputs, &[], &[], 7).expect("instance succeeds");
            let total_ms = start.elapsed().as_secs_f64() * 1_000.0;
            assert_eq!(sum.len(), dim);
            SecAggCostPoint {
                group_size: n,
                total_ms,
            }
        })
        .collect()
}

/// Formats the SecAgg sweep with a super-linear growth check and the
/// sharding rationale.
pub fn secagg_report(points: &[SecAggCostPoint]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "=== Section 6: Secure Aggregation Cost vs Group Size ==="
    )
    .unwrap();
    writeln!(
        out,
        "{:>10} {:>12} {:>18}",
        "devices", "time (ms)", "ms per device"
    )
    .unwrap();
    for p in points {
        writeln!(
            out,
            "{:>10} {:>12.1} {:>18.3}",
            p.group_size,
            p.total_ms,
            p.total_ms / p.group_size as f64
        )
        .unwrap();
    }
    if points.len() >= 2 {
        let first = &points[0];
        let last = &points[points.len() - 1];
        let size_ratio = last.group_size as f64 / first.group_size as f64;
        let cost_ratio = last.total_ms / first.total_ms.max(1e-9);
        writeln!(
            out,
            "\n{size_ratio:.0}x devices -> {cost_ratio:.1}x cost (super-linear; paper: quadratic server cost)"
        )
        .unwrap();
    }
    writeln!(
        out,
        "mitigation: run one SecAgg instance per Aggregator over groups of size >= k,\nthen sum intermediate aggregates without SecAgg (Sec. 6)"
    )
    .unwrap();
    out
}

/// Pace-steering demonstration: small-population rendezvous concentration
/// vs large-population spreading.
pub fn pace_report() -> String {
    let mut out = String::new();
    writeln!(out, "=== Section 2.3: Pace Steering Regimes ===").unwrap();
    let pace = PaceSteering::new(60_000, 130);
    let mut rng = rng::seeded(3);

    // Small population: devices rejected at scattered times.
    let small: Vec<u64> = (0..500)
        .map(|i| pace.suggest_reconnect(i * 100, 400, 1.0, &mut rng))
        .collect();
    let min = *small.iter().min().unwrap();
    let max = *small.iter().max().unwrap();
    writeln!(
        out,
        "small population (400 devices): 500 rejected devices told to return within a {:.1}s band\n  -> contemporaneous check-ins for the next rendezvous",
        (max - min) as f64 / 1000.0
    )
    .unwrap();

    // Large population: check-in spreading.
    let population = 1_000_000u64;
    let n = 20_000;
    let horizon = 60_000 * (population / 130);
    let mut buckets = [0u32; 24];
    for _ in 0..n {
        let s = pace.suggest_reconnect(0, population, 1.0, &mut rng);
        let b = ((s as f64 / horizon as f64) * 24.0).min(23.0) as usize;
        buckets[b] += 1;
    }
    let max_bucket = *buckets.iter().max().unwrap();
    let mean_bucket = n as f64 / 24.0;
    writeln!(
        out,
        "large population (1M devices): 20k suggestions spread over {:.1}h; max bucket {:.2}x the mean\n  -> no thundering herd",
        horizon as f64 / 3.6e6,
        max_bucket as f64 / mean_bucket
    )
    .unwrap();

    // Diurnal adjustment.
    let offpeak_mean: f64 = (0..2_000)
        .map(|_| pace.suggest_reconnect(0, 100_000, 0.6, &mut rng) as f64)
        .sum::<f64>()
        / 2_000.0;
    let peak_mean: f64 = (0..2_000)
        .map(|_| pace.suggest_reconnect(0, 100_000, 1.8, &mut rng) as f64)
        .sum::<f64>()
        / 2_000.0;
    writeln!(
        out,
        "diurnal awareness: mean reconnect horizon {:.1}h off-peak vs {:.1}h at peak (x{:.1})",
        offpeak_mean / 3.6e6,
        peak_mean / 3.6e6,
        peak_mean / offpeak_mean
    )
    .unwrap();
    out
}

/// Analytic wall-clock model for `rounds` rounds (Sec. 4.3): selection
/// takes `selection_ms` (time to gather the target at the ambient check-in
/// rate), configuration + reporting take `reporting_ms`.
///
/// Sequential: every round pays both phases. Pipelined — Selectors keep
/// selecting while a round reports — only the first round pays a full
/// selection window; afterwards selection for round *i+1* hides entirely
/// under round *i*'s reporting (when `selection_ms ≤ reporting_ms`; any
/// excess spills over).
fn estimate_wallclock(rounds: u64, selection_ms: u64, reporting_ms: u64, pipelined: bool) -> u64 {
    if rounds == 0 {
        return 0;
    }
    if !pipelined {
        rounds * (selection_ms + reporting_ms)
    } else {
        // Steady state: each round is gated by the slower of (its own
        // reporting) and (the next round's selection running underneath).
        selection_ms + rounds * reporting_ms.max(selection_ms)
    }
}

/// Demonstrates the Sec. 4.3 pipelining latency model.
pub fn pipelining_report() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "=== Section 4.3: Pipelining Selection with Reporting ==="
    )
    .unwrap();
    writeln!(
        out,
        "{:>8} {:>16} {:>16} {:>8}",
        "rounds", "sequential (h)", "pipelined (h)", "saving"
    )
    .unwrap();
    for rounds in [10u64, 100, 1000] {
        let seq = estimate_wallclock(rounds, 60_000, 150_000, false);
        let pip = estimate_wallclock(rounds, 60_000, 150_000, true);
        writeln!(
            out,
            "{rounds:>8} {:>16.1} {:>16.1} {:>7.0}%",
            seq as f64 / 3.6e6,
            pip as f64 / 3.6e6,
            (1.0 - pip as f64 / seq as f64) * 100.0
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_trace_narrates_all_six_steps() {
        let trace = fig1_round_trace();
        for marker in ["(1)", "(2)", "(3)", "(4,5)", "(6)"] {
            assert!(trace.contains(marker), "missing step {marker}:\n{trace}");
        }
        assert!(trace.contains("come back later"));
        assert!(trace.contains("Committed"));
    }

    #[test]
    fn secagg_cost_grows_superlinearly() {
        let points = secagg_cost_sweep(Scale::Quick);
        let first = &points[0];
        let last = &points[points.len() - 1];
        let size_ratio = last.group_size as f64 / first.group_size as f64;
        let cost_ratio = last.total_ms / first.total_ms.max(1e-9);
        assert!(
            cost_ratio > size_ratio * 1.3,
            "expected super-linear growth: {size_ratio}x size -> {cost_ratio}x cost"
        );
        assert!(secagg_report(&points).contains("quadratic"));
    }

    #[test]
    fn pace_report_covers_both_regimes() {
        let r = pace_report();
        assert!(r.contains("contemporaneous"));
        assert!(r.contains("thundering"));
        assert!(r.contains("diurnal"));
    }

    #[test]
    fn pipelining_report_shows_savings() {
        let r = pipelining_report();
        assert!(r.contains('%'));
    }

    #[test]
    fn pipelining_hides_selection_latency() {
        // 60s selection, 120s reporting, 100 rounds.
        let sequential = estimate_wallclock(100, 60_000, 120_000, false);
        let pipelined = estimate_wallclock(100, 60_000, 120_000, true);
        assert_eq!(sequential, 100 * 180_000);
        assert_eq!(pipelined, 60_000 + 100 * 120_000);
        // One-third latency saving, as selection fully hides.
        assert!((pipelined as f64) < sequential as f64 * 0.7);
    }

    #[test]
    fn pipelining_bounded_by_slowest_phase() {
        // Selection slower than reporting: throughput limited by selection.
        let pipelined = estimate_wallclock(10, 100_000, 50_000, true);
        assert_eq!(pipelined, 100_000 + 10 * 100_000);
    }

    #[test]
    fn zero_rounds_cost_nothing() {
        assert_eq!(estimate_wallclock(0, 1, 1, true), 0);
        assert_eq!(estimate_wallclock(0, 1, 1, false), 0);
    }
}
