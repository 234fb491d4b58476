//! The one live harness: a single-population tree on the real threaded
//! runtime, driven through exactly one training round by six
//! `fl_device::session` clients and audited against the paper's
//! robustness claims (Sec. 2.2, 4.2, 4.4).
//!
//! [`crate::chaos`] injects server-side faults on a virtual clock; this
//! module perturbs the live tree along two seeded axes of one [`run`]:
//!
//! * **wire** — every device's uplink runs through a
//!   [`FaultyTransport`] whose seeded script drops, duplicates, reorders,
//!   byte-flips and truncates report frames in flight, while the device
//!   re-sends the same `(round, attempt)` key after each silent ack loss
//!   (`None`: every script delivers every frame);
//! * **schedule** — every mailbox in the tree drains under a
//!   [`ScheduleExplorer`] delivery schedule (seed 0 installs none).
//!
//! One cohort and one tree serve both: six sparse-id devices with
//! distinct power-of-two updates, two Selectors behind one shared global
//! admission budget with overload telemetry on, a Coordinator over an external shared
//! store with a manually acquired lease (so `write_count` can be audited
//! after it is gone), and under SecAgg two Aggregator shards of three at
//! k 2 with the last device dropped after its shares are staged. The one
//! `audit` then requires:
//!
//! * **exactly one commit** with `write_count == 1 + committed`: retries
//!   and duplicates never reach storage (Sec. 4.2);
//! * **at-most-once accounting** — `incorporated == unique_accepted`,
//!   however many times the wire replayed a report — and no scripted
//!   disconnect;
//! * **verifiable sum** — the committed parameters are exactly a legal
//!   cohort's average: distinct updates mean a sum missing a member or
//!   polluted by a mangled frame cannot pass;
//! * **a clean wire is clean** — on a clean script every device sends
//!   once and waits through no stray reply;
//! * **obituaries exactly once** — every independent `deaths()`
//!   subscriber sees each actor the tree implies die exactly once and
//!   normally, and no other actor die (the invariant the Sec. 4.4
//!   exactly-once respawn hinges on).
//!
//! Check-in frames are never faulted (each script's slot 0 delivers), so
//! the cohort is fixed and the fault budget lands on the report/ack
//! exchange; check-in loss is the device-availability axis of
//! [`crate::chaos`]. Frame fates are a pure function of
//! `(wire_seed, device, frame index)`, so [`LiveReport::render`] is
//! byte-identical across replays of one pair of seeds: a failing seed is
//! a self-contained repro.

use fl_actors::{
    audit_exactly_once, ActorSystem, DeathReason, LockingService, Obituary, ScheduleExplorer,
};
use fl_analytics::overload::OverloadMonitorConfig;
use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
use fl_core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use fl_core::round::{RoundConfig, RoundOutcome};
use fl_core::{DeviceId, PopulationName};
use fl_device::session::{Accepted, DeviceSession, Payload};
use fl_ml::rng::derive_seed;
use fl_server::aggregator::DropStage;
use fl_server::coordinator::CoordinatorConfig;
use fl_server::live::{coordinator_lease_name, CoordMsg, CoordinatorActor, DeviceConn};
use fl_server::pace::PaceSteering;
use fl_server::shedding::GlobalAdmissionConfig;
use fl_server::storage::{CheckpointStore, InMemoryCheckpointStore, SharedCheckpointStore};
use fl_server::topology::{self, CompletionError, SelectorSpec, TopologyBlueprint};
use fl_server::wire::{FaultScript, FaultStats, FaultyTransport, FrameFault};
use std::sync::Arc;
use std::time::Duration;

/// The task the live round trains.
const TASK_NAME: &str = "live-train";
/// The population the live Coordinator owns.
const POPULATION: &str = "live/pop";
/// Devices in the cohort (equals the round goal; all of them must land a
/// contribution for the run to be clean).
const DEVICES: u64 = 6;
/// Each device's update coordinate: 1/64 up to 1/2. Subset sums of
/// distinct powers of two are distinct, so a committed average names
/// which devices were summed.
const UPDATES: [f32; DEVICES as usize] = [0.015625, 0.03125, 0.0625, 0.125, 0.25, 0.5];
/// Selectors in the tree; device `i` checks in through selector `i % 2`.
const SELECTORS: usize = 2;
/// Devices per Aggregator shard under SecAgg: sparse ids alternate
/// parity, so sticky `device % shards` routing splits the cohort 3/3.
const SECAGG_SHARD: usize = 3;
/// The SecAgg threshold.
const SECAGG_K: usize = 2;
/// How far a SecAgg commit may sit from a cohort mean: fixed-point
/// quantization of the field sum.
const SECAGG_TOLERANCE: f32 = 1e-3;
/// Scripted fault slots per device — comfortably past the send budget,
/// so every frame a device can ever send has a scripted fate.
const SCRIPT_LEN: u64 = 48;
/// Per-frame fault probability, in thousandths, over slots `1..`.
const FAULT_PER_MILLE: u64 = 100;
/// How long a device waits for the ack to one send before it re-sends
/// the same `(round, attempt)` key. Frame fates are scripted, so an ack
/// either arrives within actor-hop latency (milliseconds) or never —
/// this wait only has to dominate the former by a wide margin for the
/// resend count to be schedule-invariant, and for a clean wire never to
/// see a resend.
const ACK_WAIT: Duration = Duration::from_millis(1_200);
/// How long the harness waits for the round's outcome: the never-hang
/// deadline.
const COMPLETION_WAIT: Duration = Duration::from_secs(20);

/// Fault fates must be a pure function of `(seed, device, slot)`,
/// identical across platforms and replays: two rounds of the house
/// SplitMix64 finalizer ([`derive_seed`] at stream 0).
fn mix(seed: u64, device: u64, slot: u64) -> u64 {
    derive_seed(
        seed ^ derive_seed(device.wrapping_mul(0x0101_0101_0101_0101) ^ slot, 0),
        0,
    )
}

/// Sparse device ids: any two differ in *every* byte, so a one-byte
/// corruption of an id on the wire can never collide with another live
/// device's id (it becomes a ghost the round rejects as NotParticipant).
/// Parity alternates with `i`, keeping `device % shards` routing
/// balanced.
fn device_id(i: u64) -> DeviceId {
    DeviceId((i + 1).wrapping_mul(0x0101_0101_0101_0101))
}

/// The per-device fault script: clean without a wire seed; otherwise
/// slot 0 (the check-in) always delivers and every later slot is
/// independently mangled with probability [`FAULT_PER_MILLE`]/1000,
/// drawn uniformly from the five non-terminal kinds.
fn device_script(wire_seed: Option<u64>, device: u64) -> FaultScript {
    let Some(seed) = wire_seed else {
        return FaultScript::clean();
    };
    let mut faults = vec![FrameFault::Deliver];
    for slot in 1..SCRIPT_LEN {
        let roll = mix(seed, device, slot);
        faults.push(if roll % 1000 < FAULT_PER_MILLE {
            match (roll >> 10) % 5 {
                0 => FrameFault::Drop,
                1 => FrameFault::Duplicate,
                2 => FrameFault::Delay,
                3 => FrameFault::Corrupt,
                _ => FrameFault::Truncate,
            }
        } else {
            FrameFault::Deliver
        });
    }
    FaultScript::scripted(mix(seed, device, 0xFA17), faults)
}

/// Weight-1 average, over a zero model, of the given devices' updates.
fn cohort_mean(devices: impl Iterator<Item = u64>) -> f32 {
    let (sum, n) = devices.fold((0.0, 0.0), |(s, n), i| (s + UPDATES[i as usize], n + 1.0));
    sum / n
}

/// The averages a commit may hold, and how close it must be to one. All
/// six devices average to 21/128 exactly. Under SecAgg the harness sends
/// the last device's dropout notice before the completion request, to the
/// Coordinator's one mailbox: in the runtime's own order the close sees
/// the dropout, and only the first five's average (31/320, within
/// fixed-point quantization) may commit; a permuted schedule may let the
/// request overtake the notice, and the full cohort commit.
fn legal_averages(schedule_seed: u64, secagg: bool) -> (Vec<f32>, f32) {
    let all = cohort_mean(0..DEVICES);
    let survivors = cohort_mean(0..DEVICES - 1);
    match (secagg, schedule_seed) {
        (false, _) => (vec![all], 0.0),
        (true, 0) => (vec![survivors], SECAGG_TOLERANCE),
        (true, _) => (vec![survivors, all], SECAGG_TOLERANCE),
    }
}

/// The actors the tree spawns and retires: the Coordinator, the
/// Selectors, the round's Master and its shards.
fn expected_obituaries(secagg: bool) -> Vec<String> {
    let coordinator = format!("coordinator-{POPULATION}");
    let master = format!("{coordinator}/master-r1");
    let shards = if secagg {
        (DEVICES as usize).div_ceil(SECAGG_SHARD)
    } else {
        1
    };
    let mut names = vec![coordinator, master.clone()];
    names.extend((0..SELECTORS).map(|s| format!("selector-{s}")));
    names.extend((0..shards).map(|j| format!("{master}/agg-{j}")));
    names
}

/// Outcome of one live round. Every rendered field is a function of the
/// run's three arguments, so [`LiveReport::render`] is byte-identical
/// across replays (the committed parameters are audited, not rendered:
/// under SecAgg and a permuted schedule either legal cohort may commit).
#[derive(Debug, Clone, Default)]
pub struct LiveReport {
    /// The fault-script seed; `None` for clean scripts.
    pub wire_seed: Option<u64>,
    /// The delivery-schedule seed; 0 for the runtime's own order.
    pub schedule_seed: u64,
    /// Whether devices reported masked field vectors (Sec. 6).
    pub secagg: bool,
    /// Rounds committed (must be exactly 1).
    pub committed: u64,
    /// Checkpoint writes observed (must equal `1 + committed`).
    pub write_count: u64,
    /// Contributions the committed round incorporated.
    pub incorporated: u64,
    /// Coordinator-side duplicate-report replays (ledger hits).
    pub dup_reports: u64,
    /// Coordinator-side rejected evaluations (ghost keys, mangled
    /// payloads, pinned rejects).
    pub report_rejects: u64,
    /// Report-tagged frames the Coordinator could not decode.
    pub corrupt_frames: u64,
    /// Injector-side fault ledger, summed over all device uplinks.
    pub faults: FaultStats,
    /// Each device's accepted report, by device index (`None`: its
    /// session ended without one).
    pub devices: Vec<Option<Accepted>>,
    /// The committed model parameters.
    pub params: Vec<f32>,
    /// Two independent `deaths()` subscribers' obituaries, each sorted
    /// by actor name.
    pub obituaries: Vec<Vec<Obituary>>,
    /// Invariant violations; empty on a clean run.
    pub violations: Vec<String>,
}

impl LiveReport {
    /// Whether every invariant held.
    // fl-lint: allow(test-only-pub): every seeded sweep of tests/*.rs ends on this audit
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Distinct `(device, round, attempt)` keys acked *accepted* — one
    /// per device when the at-most-once ledger holds.
    // fl-lint: allow(test-only-pub): tests/wire_chaos.rs checks the at-most-once ledger with it
    pub fn unique_accepted(&self) -> u64 {
        self.devices.iter().flatten().count() as u64
    }

    /// Canonical text form — byte-identical across replays.
    // fl-lint: allow(test-only-pub): the live/* lines of tests/render_digests.rs and the replay checks
    pub fn render(&self) -> String {
        let wire = self
            .wire_seed
            .map_or("clean".to_string(), |s| s.to_string());
        let mut out = format!(
            "live wire_seed={wire} schedule_seed={} secagg={}\n",
            self.schedule_seed, self.secagg
        );
        out.push_str(&format!(
            "committed={} write_count={} incorporated={} unique_accepted={}\n",
            self.committed,
            self.write_count,
            self.incorporated,
            self.unique_accepted()
        ));
        out.push_str(&format!(
            "dup_reports={} report_rejects={} corrupt_frames={}\n",
            self.dup_reports, self.report_rejects, self.corrupt_frames
        ));
        let f = &self.faults;
        out.push_str(&format!(
            "faults delivered={} dropped={} duplicated={} delayed={} corrupted={} truncated={}\n",
            f.delivered, f.dropped, f.duplicated, f.delayed, f.corrupted, f.truncated
        ));
        for (i, device) in self.devices.iter().enumerate() {
            let (attempt, sends) = device.as_ref().map_or((0, 0), |a| (a.attempt, a.sends));
            out.push_str(&format!("device {i} attempt={attempt} sends={sends}\n"));
        }
        for obituary in self.obituaries.first().into_iter().flatten() {
            let reason = match obituary.reason {
                DeathReason::Normal => "normal",
                DeathReason::Panicked(_) => "panicked",
            };
            out.push_str(&format!("obituary {} reason={reason}\n", obituary.name));
        }
        crate::render_violations(&mut out, &self.violations);
        out
    }
}

/// Drives one live round — check-in, configuration, report, aggregation,
/// commit, shutdown — under the fault scripts of `wire_seed` (`None`:
/// clean) and the delivery schedule `schedule_seed` (0: none), over
/// plain update frames or, with `secagg`, masked field vectors, and
/// audits it. See the module docs for the invariants.
// fl-lint: allow(test-only-pub): the live harness of tests/wire_chaos.rs, schedule_explore.rs, lock_audit.rs
pub fn run(wire_seed: Option<u64>, schedule_seed: u64, secagg: bool) -> LiveReport {
    let mut report = LiveReport {
        wire_seed,
        schedule_seed,
        secagg,
        ..LiveReport::default()
    };
    let system = ActorSystem::new();
    if schedule_seed != 0 {
        system.install_fault_injector(Arc::new(ScheduleExplorer::new(schedule_seed)));
    }

    let round = RoundConfig {
        goal_count: DEVICES as usize,
        overselection: 1.0,
        min_goal_fraction: 1.0,
        // Selection closes on the 6th check-in (check-ins are never
        // faulted); reporting closes when the goal is reached. The
        // windows only have to outlast the worst deterministic resend
        // chain (a handful of ACK_WAITs).
        selection_timeout_ms: 10_000,
        report_window_ms: 30_000,
        device_cap_ms: 30_000,
    };
    let spec = ModelSpec::Logistic {
        dim: 4,
        classes: 2,
        seed: 0,
    };
    let mut task = FlTask::training(TASK_NAME, POPULATION).with_round(round);
    let mut config = CoordinatorConfig::new(POPULATION, 7);
    if secagg {
        task = task.with_secagg(SECAGG_K);
        config.max_per_shard = SECAGG_SHARD;
    }
    let plan = FlPlan::standard_training(spec, 1, 8, 0.1, CodecSpec::Identity);
    let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);
    let store = SharedCheckpointStore::new(InMemoryCheckpointStore::new());
    let locks = LockingService::new();
    let lease_name = coordinator_lease_name(&config.population);
    let lease = locks
        .acquire(lease_name.clone(), lease_name.clone())
        .expect("this round's own fresh locking service has no other holder");
    let coordinator = CoordinatorActor::with_store(
        config,
        group,
        vec![plan],
        vec![0.0; spec.num_params()],
        locks.clone(),
        lease,
        store.clone(),
    );
    let selector = || SelectorSpec::new(PaceSteering::new(1_000, 10), 100, 1, 10);
    let blueprint = TopologyBlueprint::new((0..SELECTORS).map(|_| selector()).collect())
        .with_global_admission(GlobalAdmissionConfig {
            window_ms: 60_000,
            max_admits_per_window: 100,
        })
        .with_telemetry(OverloadMonitorConfig::default());
    let tree = topology::spawn_multi_topology(&system, vec![(coordinator, 10)], &blueprint);
    let coordinator = tree.coordinators[&PopulationName::new(POPULATION)].clone();

    // One client thread per device, its uplink through a
    // `FaultyTransport` spliced in where a lossy network would sit.
    let handles: Vec<_> = (0..DEVICES)
        .map(|i| {
            let sel = tree.selectors[i as usize % SELECTORS].clone();
            let coord = coordinator.clone();
            std::thread::spawn(move || {
                let id = device_id(i);
                let conn = DeviceConn::connect_through(id, POPULATION, sel, coord, |c| {
                    FaultyTransport::new(c, device_script(wire_seed, i))
                });
                let outcome = DeviceSession::new(id, POPULATION).exchange(
                    |frame| conn.send(frame),
                    |wait| conn.recv(wait),
                    ACK_WAIT,
                    |session| {
                        let update = vec![UPDATES[i as usize]; session.plan().server.expected_dim];
                        let payload = if secagg {
                            Payload::Field(&update)
                        } else {
                            Payload::Identity(&update)
                        };
                        session.report(payload, 1, 0.4, 0.9)
                    },
                );
                (outcome, conn.client().fault_stats())
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let Ok((outcome, faults)) = h.join() else {
            report.devices.push(None);
            report.violations.push(format!("device {i} panicked"));
            continue;
        };
        let f = &mut report.faults;
        f.delivered += faults.delivered;
        f.dropped += faults.dropped;
        f.duplicated += faults.duplicated;
        f.delayed += faults.delayed;
        f.corrupted += faults.corrupted;
        f.truncated += faults.truncated;
        f.disconnects += faults.disconnects;
        if let Err(why) = &outcome {
            report.violations.push(format!("device {i}: {why:?}"));
        }
        report.devices.push(outcome.ok());
    }

    // SecAgg: the last device vanishes *after* its masked contribution
    // is staged — the expensive recovery path (Shamir mask
    // reconstruction from the survivors' shares).
    if secagg {
        let _ = coordinator.send(CoordMsg::DeviceDropped {
            device: device_id(DEVICES - 1),
            stage: DropStage::Share,
        });
    }
    let failure = match topology::complete_round(&coordinator, COMPLETION_WAIT) {
        Ok(RoundOutcome::Committed { incorporated, .. }) => {
            report.incorporated = incorporated as u64;
            None
        }
        Ok(outcome) => Some(format!("round finished uncommitted: {outcome:?}")),
        Err(CompletionError::CoordinatorGone) => Some("coordinator died before completing".into()),
        Err(CompletionError::CommitFailed) => Some("round finished but its commit failed".into()),
        // A hang that an earlier violation already explains is not
        // reported twice.
        Err(CompletionError::TimedOut) if !report.violations.is_empty() => None,
        Err(CompletionError::TimedOut) => {
            Some(format!("round still running after {COMPLETION_WAIT:?}"))
        }
    };
    report.violations.extend(failure);
    if let Some(telemetry) = &tree.telemetry {
        let t = telemetry.lock();
        report.dup_reports = t.dup_reports().sums().iter().sum::<f64>() as u64;
        report.report_rejects = t.report_rejects().sums().iter().sum::<f64>() as u64;
        report.corrupt_frames = t.corrupt_frames().sums().iter().sum::<f64>() as u64;
    }

    tree.shutdown();
    system.join();
    let latest = store.latest(TASK_NAME).ok();
    report.committed = latest.as_ref().map_or(0, |ck| ck.round.0);
    report.write_count = store.write_count();
    report.params = latest.map(|ck| ck.into_params()).unwrap_or_default();
    if locks.lookup(&lease_name).is_some() {
        report
            .violations
            .push("coordinator lease still held after clean shutdown".into());
    }
    // Each `deaths()` receiver replays the obituary ring, which holds
    // every one of this run's.
    report.obituaries = (0..2)
        .map(|_| {
            let mut view: Vec<_> = system.deaths().try_iter().collect();
            view.sort_by(|a, b| a.name.cmp(&b.name));
            view
        })
        .collect();
    let found = audit(&report);
    report.violations.extend(found);
    report
}

/// The invariants of a finished run, read off its report alone (Sec.
/// 4.2, 4.4): exactly one commit; `write_count == 1 + committed` (the
/// deployment write plus one per committed round — per-device updates,
/// retries and duplicates never reach storage); one incorporated
/// contribution per accepted key; no scripted disconnect; the committed
/// parameters a legal cohort's average; one send and no stray reply per
/// device on a clean wire; and in every subscriber view, every obituary
/// the tree implies exactly once, no other, and none of a panic.
fn audit(report: &LiveReport) -> Vec<String> {
    let mut violations = Vec::new();
    if report.committed != 1 {
        violations.push(format!(
            "committed {} rounds, want exactly 1",
            report.committed
        ));
    }
    if report.write_count != 1 + report.committed {
        violations.push(format!(
            "write_count {} != 1 + committed {}",
            report.write_count, report.committed
        ));
    }
    if report.incorporated != report.unique_accepted() {
        violations.push(format!(
            "incorporated {} != unique accepted contributions {}",
            report.incorporated,
            report.unique_accepted()
        ));
    }
    if report.faults.disconnects != 0 {
        violations.push(format!(
            "scripted {} disconnects in a disconnect-free scenario",
            report.faults.disconnects
        ));
    }
    let (averages, tolerance) = legal_averages(report.schedule_seed, report.secagg);
    let is_average = |average: &f32| {
        report
            .params
            .iter()
            .all(|p| (p - average).abs() <= tolerance)
    };
    if !averages.iter().any(is_average) {
        violations.push(format!(
            "committed params {:?} are not a cohort average ({averages:?})",
            report.params
        ));
    }
    if report.wire_seed.is_none() {
        for (i, accepted) in report.devices.iter().enumerate() {
            if let Some(a) = accepted.as_ref().filter(|a| (a.sends, a.strays) != (1, 0)) {
                violations.push(format!("device {i}: {a:?} on a clean wire"));
            }
        }
    }
    let expected = expected_obituaries(report.secagg);
    for (i, view) in report.obituaries.iter().enumerate() {
        for o in view {
            if !expected.contains(&o.name) {
                violations.push(format!(
                    "subscriber {i}: unexpected obituary for {}",
                    o.name
                ));
            }
            if let DeathReason::Panicked(why) = &o.reason {
                violations.push(format!("subscriber {i}: {} panicked: {why}", o.name));
            }
        }
    }
    let expected: Vec<&str> = expected.iter().map(String::as_str).collect();
    violations.extend(audit_exactly_once(&report.obituaries, &expected));
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clean run's report, and the audit's verdict on it after
    /// `damage`.
    fn audit_after(secagg: bool, damage: impl FnOnce(&mut LiveReport)) -> Vec<String> {
        let mut report = run(None, 0, secagg);
        assert!(report.is_clean(), "{}", report.render());
        damage(&mut report);
        audit(&report)
    }

    #[test]
    fn a_clean_wire_commits_the_exact_average() {
        let report = run(None, 0, false);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!((report.committed, report.write_count), (1, 2));
        assert_eq!(
            (report.incorporated, report.unique_accepted()),
            (DEVICES, DEVICES)
        );
        assert!(
            report.params.iter().all(|p| *p == 21.0 / 128.0),
            "{:?}",
            report.params
        );
        assert_eq!(
            report.faults.delivered,
            2 * DEVICES,
            "a check-in and a report each"
        );
    }

    #[test]
    fn audit_flags_a_second_commit() {
        let found = audit_after(false, |r| {
            r.committed = 2;
            r.write_count = 3;
        });
        assert_eq!(found, ["committed 2 rounds, want exactly 1"]);
    }

    #[test]
    fn audit_flags_a_write_beyond_one_per_commit() {
        let found = audit_after(false, |r| r.write_count = 3);
        assert_eq!(found, ["write_count 3 != 1 + committed 1"]);
    }

    #[test]
    fn audit_flags_a_contribution_counted_twice() {
        let found = audit_after(false, |r| r.incorporated = 7);
        assert_eq!(found, ["incorporated 7 != unique accepted contributions 6"]);
    }

    #[test]
    fn audit_flags_a_disconnect() {
        let found = audit_after(false, |r| r.faults.disconnects = 1);
        assert_eq!(
            found,
            ["scripted 1 disconnects in a disconnect-free scenario"]
        );
    }

    #[test]
    fn audit_flags_a_sum_missing_a_member() {
        let mut params = Vec::new();
        let found = audit_after(false, |r| {
            r.params.fill(cohort_mean(1..DEVICES));
            params = r.params.clone();
        });
        assert_eq!(
            found,
            [format!(
                "committed params {params:?} are not a cohort average ([{:?}])",
                cohort_mean(0..DEVICES)
            )]
        );
    }

    #[test]
    fn audit_flags_the_full_cohort_when_the_dropout_came_first() {
        let mut params = Vec::new();
        let found = audit_after(true, |r| {
            r.params.fill(cohort_mean(0..DEVICES));
            params = r.params.clone();
        });
        assert_eq!(
            found,
            [format!(
                "committed params {params:?} are not a cohort average ([{:?}])",
                cohort_mean(0..DEVICES - 1)
            )]
        );
    }

    #[test]
    fn audit_flags_a_resend_on_a_clean_wire() {
        let found = audit_after(false, |r| {
            r.devices[2] = Some(Accepted {
                attempt: 1,
                sends: 2,
                strays: 0,
            })
        });
        assert_eq!(
            found,
            ["device 2: Accepted { attempt: 1, sends: 2, strays: 0 } on a clean wire"]
        );
    }

    #[test]
    fn audit_flags_an_obituary_one_subscriber_missed() {
        let found = audit_after(true, |r| r.obituaries[1].retain(|o| o.name != "selector-1"));
        assert_eq!(
            found,
            ["subscriber 1: obituary for selector-1 delivered 0 times (want exactly 1)"]
        );
    }

    #[test]
    fn audit_flags_an_unexpected_obituary() {
        let found = audit_after(false, |r| {
            r.obituaries[0].push(Obituary {
                name: format!("coordinator-{POPULATION}/master-r2"),
                reason: DeathReason::Normal,
            })
        });
        assert_eq!(
            found,
            [format!(
                "subscriber 0: unexpected obituary for coordinator-{POPULATION}/master-r2"
            )]
        );
    }

    #[test]
    fn audit_flags_a_panicked_actor() {
        let found = audit_after(false, |r| {
            r.obituaries[1][0].reason = DeathReason::Panicked("boom".into())
        });
        assert_eq!(
            found,
            [format!(
                "subscriber 1: coordinator-{POPULATION} panicked: boom"
            )]
        );
    }

    #[test]
    fn scripts_are_seed_stable() {
        let slots = |seed, device| {
            let script = device_script(Some(seed), device);
            (0..SCRIPT_LEN)
                .map(|s| script.fault_for(s))
                .collect::<Vec<_>>()
        };
        for device in 0..DEVICES {
            assert_eq!(slots(9, device), slots(9, device));
        }
        assert_ne!(
            slots(1, 0),
            slots(2, 0),
            "different seeds must mangle differently"
        );
    }

    #[test]
    fn check_in_slot_is_always_clean() {
        for seed in 0..64u64 {
            for device in 0..DEVICES {
                assert_eq!(
                    device_script(Some(seed), device).fault_for(0),
                    FrameFault::Deliver,
                    "slot 0 carries the check-in and must never be faulted"
                );
            }
        }
    }

    #[test]
    fn sparse_ids_survive_any_single_byte_flip() {
        let ids: Vec<u64> = (0..DEVICES).map(|i| device_id(i).0).collect();
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                if i == j {
                    continue;
                }
                for byte in 0..8 {
                    for mask in 1..=255u64 {
                        assert_ne!(
                            a ^ (mask << (8 * byte)),
                            b,
                            "one flipped byte must never alias another device"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn only_the_two_legal_cohorts_average_within_tolerance() {
        // All 63 non-empty subsets of the six devices, as bit masks: the
        // SecAgg audit accepts the cohort without the scripted drop-out
        // (device 5) and, under a permuted schedule, the full cohort, and
        // must accept nothing else.
        let accepted = |schedule_seed| {
            let (legal, tolerance) = legal_averages(schedule_seed, true);
            (1..1u64 << DEVICES)
                .filter(|mask| {
                    let mean = cohort_mean((0..DEVICES).filter(|i| mask >> i & 1 == 1));
                    legal.iter().any(|l| (mean - l).abs() <= tolerance)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(accepted(0), [0b01_1111]);
        assert_eq!(accepted(1), [0b01_1111, 0b11_1111]);
    }
}
