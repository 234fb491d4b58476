//! Network-chaos sweep at the wire boundary (Sec. 2.2, 4.2): the wire
//! seed of the one live harness, `live::run(Some(seed), 0, secagg)`.
//! Seeded `FaultyTransport` scripts drop, duplicate, reorder, byte-flip,
//! and truncate device report frames in flight through the live tree —
//! plain rounds and SecAgg rounds — while each device drives its
//! `fl_device::session`, re-sending the same `(round, attempt)` key after
//! each silent ack loss.
//!
//! Per seed, the run must pass the harness's one audit (no hang, exactly
//! one commit, `write_count == 1 + committed`, `incorporated ==
//! unique_accepted`, the exact average of six distinct updates,
//! obituaries exactly once) and render byte-identically across two
//! replays — a failing seed is a self-contained repro.

use federated::sim::live::{self, LiveReport};

/// Seeds swept by the plain-round scenario.
const PLAIN_SEEDS: std::ops::Range<u64> = 0..20;
/// Seeds swept by the SecAgg scenario (disjoint from the plain sweep so
/// the two tests between them cover 32 distinct fault scripts).
const SECAGG_SEEDS: std::ops::Range<u64> = 100..112;

fn audit(report: &LiveReport, rerun: &LiveReport) {
    let seed = report.wire_seed;
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(
        report.write_count,
        1 + report.committed,
        "seed {seed:?}: retried/duplicated reports leaked into storage"
    );
    assert_eq!(
        report.incorporated,
        report.unique_accepted(),
        "seed {seed:?}: committed sum incorporated {} contributions but devices hold {} accepted keys",
        report.incorporated,
        report.unique_accepted()
    );
    assert_eq!(
        report.render(),
        rerun.render(),
        "seed {seed:?}: same fault script, different outcome — the run is not deterministic"
    );
}

#[test]
fn plain_rounds_survive_mangled_report_frames() {
    let mut faulted_seeds = 0;
    for seed in PLAIN_SEEDS {
        let report = live::run(Some(seed), 0, false);
        let rerun = live::run(Some(seed), 0, false);
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
        let report = live::run(Some(seed), 0, true);
        let rerun = live::run(Some(seed), 0, true);
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
