//! Network-chaos sweep at the wire boundary (Sec. 2.2, 4.2): seeded
//! `FaultyTransport` scripts drop, duplicate, reorder, byte-flip, and
//! truncate device report frames in flight through the live sharded
//! topology — plain rounds and SecAgg rounds — while each device drives
//! its `fl_device::session`, re-sending the same `(round, attempt)` key
//! after each silent ack loss.
//!
//! Per seed, the run must hold:
//!
//! * no panic, no hang — every wait is deadline-bounded and every
//!   mangled frame dies as a typed error or a silent drop;
//! * `write_count == 1 + committed` — retries and duplicates never
//!   reach persistent storage;
//! * `incorporated == unique accepted contributions` — the at-most-once
//!   ledger admits each `(device, round, attempt)` key exactly once,
//!   however many times the wire replayed it;
//! * byte-identical [`WireChaosReport::render`] across two replays of
//!   the same seed — a failing seed is a self-contained repro.
//!
//! [`WireChaosReport::render`]: federated::sim::WireChaosReport::render

use federated::sim::{run_wire_chaos, run_wire_chaos_secagg, WireChaosReport};

/// Seeds swept by the plain-round scenario.
const PLAIN_SEEDS: std::ops::Range<u64> = 0..20;
/// Seeds swept by the SecAgg scenario (disjoint from the plain sweep so
/// the two tests between them cover 32 distinct fault scripts).
const SECAGG_SEEDS: std::ops::Range<u64> = 100..112;

fn audit(report: &WireChaosReport, rerun: &WireChaosReport) {
    assert!(
        report.is_clean(),
        "seed {} ({}): violations {:?}\n{}",
        report.seed,
        report.scenario,
        report.violations,
        report.render()
    );
    assert_eq!(
        report.write_count,
        1 + report.committed,
        "seed {}: retried/duplicated reports leaked into storage",
        report.seed
    );
    assert_eq!(
        report.incorporated, report.unique_accepted,
        "seed {}: committed sum incorporated {} contributions but devices hold {} accepted keys",
        report.seed, report.incorporated, report.unique_accepted
    );
    assert_eq!(
        report.render(),
        rerun.render(),
        "seed {}: same fault script, different outcome — the run is not deterministic",
        report.seed
    );
}

#[test]
fn plain_rounds_survive_mangled_report_frames() {
    let mut faulted_seeds = 0;
    for seed in PLAIN_SEEDS {
        let report = run_wire_chaos(seed);
        let rerun = run_wire_chaos(seed);
        audit(&report, &rerun);
        let f = &report.faults;
        if f.dropped + f.duplicated + f.delayed + f.corrupted + f.truncated > 0 {
            faulted_seeds += 1;
        }
    }
    assert!(
        faulted_seeds >= PLAIN_SEEDS.count() / 2,
        "the sweep barely injected anything ({faulted_seeds} faulted seeds) — raise the rate"
    );
}

#[test]
fn secagg_rounds_survive_mangled_report_frames() {
    let mut faulted_seeds = 0;
    for seed in SECAGG_SEEDS {
        let report = run_wire_chaos_secagg(seed);
        let rerun = run_wire_chaos_secagg(seed);
        audit(&report, &rerun);
        let f = &report.faults;
        if f.dropped + f.duplicated + f.delayed + f.corrupted + f.truncated > 0 {
            faulted_seeds += 1;
        }
    }
    assert!(
        faulted_seeds >= SECAGG_SEEDS.count() / 2,
        "the sweep barely injected anything ({faulted_seeds} faulted seeds) — raise the rate"
    );
}
