//! Seeded schedule exploration of the live actor topology (Sec. 4.2,
//! 4.4).
//!
//! The scenario engine explores *fault* and device-timing schedules on
//! its virtual clock (`scenario::run_with_schedule`); this
//! module explores *delivery* schedules on the real threaded runtime. It
//! installs a [`ScheduleExplorer`] — the `fl-actors` fault-injector that
//! answers `Reorder` for a seeded subset of mailbox deliveries — and
//! drives the full live round from `fl-server` (Selector actor →
//! Coordinator actor → ephemeral Master Aggregator subtree → shared
//! checkpoint store) under the permuted schedule, auditing the standing
//! invariants:
//!
//! * **never hang** — every wait in the scenario is deadline-bounded, and
//!   a missed deadline is a reported violation, not a stuck test;
//! * **exactly one commit** — one round begins and exactly one commit
//!   reaches storage, whatever order the mailboxes drained in;
//! * **storage audit** — `write_count == 1 + committed` (the deployment
//!   write plus one per committed round; per-device updates are never
//!   persisted, Sec. 4.2);
//! * **verifiable sum** — the committed parameters are exactly the
//!   average of the reports the Coordinator accepted: every device
//!   reports a different update, so a sum missing a member (a finalize
//!   that overtook an update in the Master's mailbox) cannot pass;
//! * **obituaries exactly once** — every independent `deaths()`
//!   subscriber sees each actor's obituary exactly once (the invariant
//!   the Sec. 4.4 "respawn happens exactly once" recovery loop hinges
//!   on).
//!
//! All of these are schedule-invariant by design, so
//! [`ExploreReport::render`] is byte-identical across replays of one
//! schedule seed — a failing seed is a self-contained repro, same
//! discipline as `ScenarioOutcome::render`.

use crate::live_round::{run_device, LiveRound};
use fl_actors::{audit_exactly_once, DeathReason};
use fl_core::round::RoundConfig;
use fl_core::DeviceId;
use fl_server::live::{CoordMsg, DeviceConn};
use fl_server::pace::PaceSteering;
use fl_server::shedding::GlobalAdmissionConfig;
use fl_server::topology::{SelectorSpec, TopologyBlueprint};
use std::time::Duration;

/// The task name the explored round trains.
const TASK_NAME: &str = "t";
/// The population the explored coordinator owns.
const POPULATION: &str = "explore/pop";
/// Devices participating in the explored round (equals the round goal).
const DEVICES: u64 = 4;
/// Obituaries the scenario must produce — each exactly once, in every
/// subscriber view: the tree's two long-lived actors plus the round's
/// ephemeral Master Aggregator subtree (one shard for 4 devices).
const EXPECTED_OBITUARIES: &[&str] = &[
    "coordinator-explore/pop",
    "selector-0",
    "coordinator-explore/pop/master-r1",
    "coordinator-explore/pop/master-r1/agg-0",
];
/// Bound on a device's wait for its ack. Nothing is scripted to get
/// lost here, so running it out (and re-sending) is a violation.
const WAIT: Duration = Duration::from_secs(10);
/// How far a SecAgg commit may sit from a cohort mean: fixed-point
/// quantization of the field sum.
const SECAGG_TOLERANCE: f32 = 1e-3;

/// Each device's update coordinate: 1/16, 2/16, 4/16, 8/16. Subset sums
/// of distinct powers of two are distinct, and the closest two subset
/// means are 5e-3 apart, so a committed average names exactly which
/// devices were summed.
const UPDATES: [f32; DEVICES as usize] = [0.0625, 0.125, 0.25, 0.5];

/// Weight-1 average, over a zero model, of the given devices' updates.
fn cohort_mean(devices: impl Iterator<Item = u64>) -> f32 {
    let (sum, n) = devices.fold((0.0, 0.0), |(s, n), i| (s + UPDATES[i as usize], n + 1.0));
    sum / n
}

/// Outcome of one explored schedule. Every field is schedule-invariant
/// (no reorder counts, no tick counts), so [`ExploreReport::render`] is
/// byte-identical across replays of one seed.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Scenario tag (`"live-round"`).
    pub scenario: &'static str,
    /// The explorer seed this schedule was generated from.
    pub schedule_seed: u64,
    /// Rounds committed (must be exactly 1).
    pub committed: u64,
    /// Checkpoint writes observed (must equal `1 + committed`).
    pub write_count: u64,
    /// Obituaries from one subscriber view, sorted by actor name, with
    /// the death-reason kind (`normal` / `panicked`).
    pub obituaries: Vec<(String, String)>,
    /// Invariant violations; empty on a clean run.
    pub violations: Vec<String>,
}

impl ExploreReport {
    /// Whether every invariant held under this schedule.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Canonical text form — byte-identical across replays of one seed.
    pub fn render(&self) -> String {
        let mut out = format!(
            "scenario={} schedule_seed={}\ncommitted={} write_count={}\n",
            self.scenario, self.schedule_seed, self.committed, self.write_count
        );
        for (name, reason) in &self.obituaries {
            out.push_str(&format!("obituary {name} reason={reason}\n"));
        }
        crate::render_violations(&mut out, &self.violations);
        out
    }
}

/// Drives one full live round — check-in, configuration, report,
/// aggregation, commit, shutdown — with every mailbox in the tree
/// subject to seeded delivery reordering (schedule seed 0: the runtime's
/// own order, no explorer installed), and audits the standing
/// invariants. See the module docs for the list.
pub fn explore_live_round(schedule_seed: u64) -> ExploreReport {
    explore_round("live-round", schedule_seed, None)
}

/// [`explore_live_round`] with Secure Aggregation enabled (Sec. 6 over
/// the Sec. 4 tree): devices report fixed-point field vectors, the
/// round's single shard runs the four-round protocol at finalize, and a
/// scripted share-stage dropout forces mask reconstruction — all under
/// the same seeded mailbox reordering, holding the same invariants.
pub fn explore_secagg_live_round(schedule_seed: u64) -> ExploreReport {
    explore_round("secagg-live-round", schedule_seed, Some(2))
}

fn explore_round(
    scenario: &'static str,
    schedule_seed: u64,
    secagg_k: Option<usize>,
) -> ExploreReport {
    let mut report = ExploreReport {
        scenario,
        schedule_seed,
        ..ExploreReport::default()
    };

    let round = RoundConfig {
        goal_count: DEVICES as usize,
        overselection: 1.0,
        min_goal_fraction: 1.0,
        selection_timeout_ms: 5_000,
        report_window_ms: 10_000,
        device_cap_ms: 10_000,
    };
    // One selector, with a shared admission budget and overload telemetry
    // attached so the exploration also exercises those lock sites.
    let blueprint = TopologyBlueprint::new(vec![SelectorSpec::new(
        PaceSteering::new(1_000, 10),
        100,
        1,
        10,
    )])
    .with_global_admission(GlobalAdmissionConfig {
        window_ms: 60_000,
        max_admits_per_window: 100,
    })
    .with_telemetry(Default::default());
    let live =
        LiveRound::spawn(schedule_seed, TASK_NAME, POPULATION, round, secagg_k, None, &blueprint);

    // One client thread per device, on a plain channel: the fault-free
    // case of the wire-chaos device. A different update per device — a
    // constant cohort would hide a missing member.
    let handles: Vec<_> = (0..DEVICES)
        .map(|i| {
            let sel = live.topology.selectors[0].clone();
            let coord = live.coordinator.clone();
            std::thread::spawn(move || {
                let conn = DeviceConn::connect(DeviceId(i), POPULATION, sel, coord);
                let update = UPDATES[i as usize];
                run_device(&conn, DeviceId(i), POPULATION, update, secagg_k.is_some(), WAIT)
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        match h.join() {
            // Nothing was faulted, so any surprise is a violation: one
            // send, no stray reply.
            Ok(Ok(accepted)) if (accepted.sends, accepted.strays) == (1, 0) => {}
            Ok(Ok(accepted)) => report
                .violations
                .push(format!("device {i}: {accepted:?} on a clean wire")),
            Ok(Err(why)) => report.violations.push(format!("device {i}: {why:?}")),
            Err(_) => report.violations.push("device thread panicked".into()),
        }
    }

    // SecAgg: one device vanishes *after* its masked contribution is
    // staged — the expensive recovery path (Shamir mask reconstruction
    // from the survivors' shares) must also hold under every schedule.
    if secagg_k.is_some() {
        let _ = live.coordinator.send(CoordMsg::DeviceDropped {
            device: DeviceId(DEVICES - 1),
            stage: fl_server::aggregator::DropStage::Share,
        });
    }

    live.complete(&mut report.violations);
    let audit = live.shutdown(&mut report.violations);
    report.committed = audit.committed;
    report.write_count = audit.write_count;
    // All four devices average to 15/64 exactly. Under SecAgg device 3's
    // dropout notice and the completion request share the Coordinator's
    // permuted mailbox, so the close either sees the dropout (devices
    // 0..3 average to 7/48, within fixed-point quantization) or
    // overtakes it (all four reports). No other cohort is accepted.
    let legal = [cohort_mean(0..DEVICES - 1), cohort_mean(0..DEVICES)];
    let (averages, tolerance) = if secagg_k.is_some() {
        (&legal[..], SECAGG_TOLERANCE)
    } else {
        (&legal[1..], 0.0)
    };
    let is_average =
        |average: &f32| audit.params.iter().all(|p| (p - average).abs() <= tolerance);
    if !averages.iter().any(is_average) {
        report.violations.push(format!(
            "committed params {:?} are not a cohort average ({averages:?})",
            audit.params
        ));
    }

    // Obituaries exactly once, in every independent subscriber view
    // (each `deaths()` receiver replays the obituary ring, which holds
    // every one of this run's).
    let views: Vec<Vec<_>> = (0..2)
        .map(|_| live.system.deaths().try_iter().collect())
        .collect();
    report
        .violations
        .extend(audit_exactly_once(&views, EXPECTED_OBITUARIES));
    let mut obituaries: Vec<(String, String)> = views[0]
        .iter()
        .map(|o| {
            let reason = match &o.reason {
                DeathReason::Normal => "normal".to_string(),
                DeathReason::Panicked(_) => "panicked".to_string(),
            };
            (o.name.clone(), reason)
        })
        .collect();
    obituaries.sort();
    report.obituaries = obituaries;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explored_live_round_holds_invariants() {
        let report = explore_live_round(3);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.committed, 1);
        assert_eq!(report.write_count, 2);
        assert_eq!(report.obituaries.len(), EXPECTED_OBITUARIES.len());
    }

    #[test]
    fn unperturbed_schedule_is_clean_too() {
        // Seed 0 installs no explorer: the scenario commits on the
        // runtime's own schedule too.
        let report = explore_live_round(0);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn report_is_byte_identical_per_seed() {
        assert_eq!(explore_live_round(5).render(), explore_live_round(5).render());
    }

    #[test]
    fn only_the_two_legal_cohorts_average_within_tolerance() {
        // All 15 non-empty subsets of the four devices, as bit masks: the
        // SecAgg audit accepts the full cohort and the cohort without the
        // scripted drop-out (device 3), and must accept nothing else.
        let legal = [cohort_mean(0..DEVICES - 1), cohort_mean(0..DEVICES)];
        let accepted: Vec<u64> = (1..1u64 << DEVICES)
            .filter(|mask| {
                let mean = cohort_mean((0..DEVICES).filter(|i| mask >> i & 1 == 1));
                legal.iter().any(|l| (mean - l).abs() <= SECAGG_TOLERANCE)
            })
            .collect();
        assert_eq!(accepted, [0b0111, 0b1111]);
    }

    #[test]
    fn explored_secagg_round_reconstructs_masks_and_commits_once() {
        let report = explore_secagg_live_round(3);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.committed, 1);
        assert_eq!(report.write_count, 2);
        assert_eq!(report.obituaries.len(), EXPECTED_OBITUARIES.len());
    }
}
