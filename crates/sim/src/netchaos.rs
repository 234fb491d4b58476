//! Network chaos through the live wire boundary (Sec. 2.2, 4.2).
//!
//! [`crate::chaos`] injects *server-side* faults (actor crashes, storage
//! failures) on a virtual clock; this module injects *network* faults on
//! the real threaded topology: every device's uplink runs through a
//! [`FaultyTransport`] whose seeded [`FaultScript`] drops, duplicates,
//! reorders, byte-flips, and truncates report frames in flight, while each
//! device drives its `fl_device::session` (one `(round, attempt)` key,
//! re-sent after each silent ack loss) against the Selector → Coordinator
//! actor tree.
//!
//! [`run_wire_chaos`] / [`run_wire_chaos_secagg`] audit the paper's
//! robustness claims under that mangled traffic:
//!
//! * **no panic, no hang** — every mangled frame surfaces as a typed
//!   error or a silent drop at some endpoint; every wait in the scenario
//!   is deadline-bounded;
//! * **at-most-once accounting** — however many times a report is
//!   retried or duplicated on the wire, the committed round incorporates
//!   exactly one contribution per device
//!   (`incorporated == unique_accepted`);
//! * **storage audit** — `write_count == 1 + committed`: retries and
//!   duplicates never reach persistent storage (Sec. 4.2);
//! * **determinism** — frame fates are a pure function of
//!   `(seed, device, frame index)`, so [`WireChaosReport::render`] is
//!   byte-identical across replays of one seed: a failing sweep seed in
//!   `tests/wire_chaos.rs` is a self-contained repro.
//!
//! Check-in frames are deliberately exempted (each script's slot 0 is
//! [`FrameFault::Deliver`]) so the cohort is fixed and the fault budget
//! lands entirely on the report/ack exchange — the surface the
//! at-most-once ledger exists to protect. Check-in loss is the *device
//! availability* axis, owned by [`crate::chaos`] drop-out bursts.

use crate::live_round::{run_device, LiveRound};
use fl_analytics::overload::OverloadMonitorConfig;
use fl_core::round::{RoundConfig, RoundOutcome};
use fl_core::DeviceId;
use fl_device::session::Accepted;
use fl_ml::rng::derive_seed;
use fl_server::live::DeviceConn;
use fl_server::pace::PaceSteering;
use fl_server::topology::{SelectorSpec, TopologyBlueprint};
use fl_server::wire::{FaultScript, FaultStats, FaultyTransport, FrameFault};
use std::time::Duration;

/// The task every wire-chaos round trains.
const TASK_NAME: &str = "wire-chaos-train";
/// The population every wire-chaos coordinator owns.
const POPULATION: &str = "wire-chaos/pop";
/// Devices in the cohort (equals the round goal; all of them must land a
/// contribution for the run to be clean).
const DEVICES: u64 = 6;
/// Scripted fault slots per device — comfortably past the send budget,
/// so every frame a device can ever send has a scripted fate.
const SCRIPT_LEN: u64 = 48;
/// Per-frame fault probability, in thousandths, over slots `1..`.
const FAULT_PER_MILLE: u64 = 100;
/// How long a device waits for the ack to one send before it re-sends
/// the same `(round, attempt)` key. Frame fates are scripted, so an ack
/// either arrives within actor-hop latency (milliseconds) or never —
/// this wait only has to dominate the former by a wide margin for the
/// resend count to be schedule-invariant.
const ACK_WAIT: Duration = Duration::from_millis(1_200);

/// Fault fates must be a pure function of `(seed, device, slot)`,
/// identical across platforms and replays: two rounds of the house
/// SplitMix64 finalizer ([`derive_seed`] at stream 0).
fn mix(seed: u64, device: u64, slot: u64) -> u64 {
    derive_seed(seed ^ derive_seed(device.wrapping_mul(0x0101_0101_0101_0101) ^ slot, 0), 0)
}

/// Sparse device ids: any two differ in *every* byte, so a one-byte
/// corruption of an id on the wire can never collide with another live
/// device's id (it becomes a ghost the round rejects as NotParticipant).
/// Parity alternates with `i`, keeping `device % shards` routing
/// balanced.
fn device_id(i: u64) -> DeviceId {
    DeviceId((i + 1).wrapping_mul(0x0101_0101_0101_0101))
}

/// The per-device fault script: slot 0 (the check-in) always delivers —
/// see the module docs — and every later slot is independently mangled
/// with probability [`FAULT_PER_MILLE`]/1000, drawn uniformly from the
/// five non-terminal kinds.
fn device_script(seed: u64, device: u64) -> FaultScript {
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

/// Outcome of one wire-chaos round. Every field is deterministic per
/// seed, so [`WireChaosReport::render`] is byte-identical across
/// replays — the property `tests/wire_chaos.rs` sweeps.
#[derive(Debug, Clone, Default)]
pub struct WireChaosReport {
    /// Scenario tag (`"wire-chaos"` / `"secagg-wire-chaos"`).
    pub scenario: &'static str,
    /// The fault-script seed this run was generated from.
    pub seed: u64,
    /// Rounds committed (must be exactly 1).
    pub committed: u64,
    /// Checkpoint writes observed (must equal `1 + committed` — retries
    /// and duplicates never reach storage).
    pub write_count: u64,
    /// Contributions the committed round incorporated.
    pub incorporated: u64,
    /// Distinct `(device, round, attempt)` keys acked *accepted* — one
    /// per device when the at-most-once ledger holds.
    pub unique_accepted: u64,
    /// Coordinator-side duplicate-report replays (ledger hits).
    pub dup_reports: u64,
    /// Coordinator-side rejected evaluations (ghost keys, mangled
    /// payloads, pinned rejects).
    pub report_rejects: u64,
    /// Report-tagged frames the coordinator could not decode.
    pub corrupt_frames: u64,
    /// Injector-side fault ledger, summed over all device uplinks.
    pub faults: FaultStats,
    /// Per-device `(accepted attempt, total sends)`, indexed by device.
    pub device_attempts: Vec<(u32, u32)>,
    /// The committed model parameters — always exactly the cohort
    /// average: the frame integrity trailer guarantees a byte-flipped
    /// frame dies as a typed decode error instead of reaching the sum.
    pub params: Vec<f32>,
    /// Invariant violations; empty on a clean run.
    pub violations: Vec<String>,
}

impl WireChaosReport {
    /// Whether every invariant held under this fault script.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Canonical text form — byte-identical across replays of one seed.
    pub fn render(&self) -> String {
        let mut out = format!(
            "scenario={} seed={}\ncommitted={} write_count={} incorporated={} unique_accepted={}\n",
            self.scenario, self.seed, self.committed, self.write_count, self.incorporated,
            self.unique_accepted
        );
        out.push_str(&format!(
            "dup_reports={} report_rejects={} corrupt_frames={}\n",
            self.dup_reports, self.report_rejects, self.corrupt_frames
        ));
        let f = &self.faults;
        out.push_str(&format!(
            "faults delivered={} dropped={} duplicated={} delayed={} corrupted={} truncated={}\n",
            f.delivered, f.dropped, f.duplicated, f.delayed, f.corrupted, f.truncated
        ));
        for (i, (attempt, sends)) in self.device_attempts.iter().enumerate() {
            out.push_str(&format!("device {i} attempt={attempt} sends={sends}\n"));
        }
        out.push_str("params=[");
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&format!("{p:.6}"));
        }
        out.push_str("]\n");
        crate::render_violations(&mut out, &self.violations);
        out
    }
}

/// Runs one live round over plain `UpdateReport` frames with every
/// device uplink mangled by its seeded fault script. See the module docs
/// for the audited invariants.
pub fn run_wire_chaos(seed: u64) -> WireChaosReport {
    run_wire_chaos_with_schedule(seed, 0, false)
}

/// [`run_wire_chaos`] over `SecAggReport` frames: masked field vectors
/// through two Aggregator shards (`max_per_shard = 3`, sticky
/// `device % shards` routing), same fault scripts, same invariants.
pub fn run_wire_chaos_secagg(seed: u64) -> WireChaosReport {
    run_wire_chaos_with_schedule(seed, 0, true)
}

/// Wire faults x delivery schedule in one run: the fault scripts of
/// `seed` (plain frames, or SecAgg ones) while every mailbox in the tree
/// drains under the [`crate::explore`] delivery schedule seeded `schedule`
/// (0 installs no explorer — the two entry points above). Every invariant
/// still holds under any schedule; the ledger counters of one fault seed
/// may differ from one schedule to the next, since a permuted mailbox can
/// order a duplicate ahead of its original.
pub fn run_wire_chaos_with_schedule(seed: u64, schedule: u64, secagg: bool) -> WireChaosReport {
    let secagg_k = secagg.then_some(2);
    let mut report = WireChaosReport {
        scenario: if secagg { "secagg-wire-chaos" } else { "wire-chaos" },
        seed,
        ..WireChaosReport::default()
    };

    let round = RoundConfig {
        goal_count: DEVICES as usize,
        overselection: 1.0,
        min_goal_fraction: 1.0,
        // Selection closes on the 6th check-in (check-ins are never
        // faulted); reporting closes when the goal is reached. The
        // windows only have to outlast the worst deterministic
        // resend chain (a handful of ACK_WAITs).
        selection_timeout_ms: 10_000,
        report_window_ms: 30_000,
        device_cap_ms: 30_000,
    };
    // Two selectors — the sharded front door; device `i` checks in
    // through selector `i % 2`.
    let blueprint = TopologyBlueprint::new(vec![
        SelectorSpec::new(PaceSteering::new(1_000, 10), 100, 1, 10),
        SelectorSpec::new(PaceSteering::new(1_000, 10), 100, 1, 10),
    ])
    .with_telemetry(OverloadMonitorConfig::default());
    // Under SecAgg, two Aggregator shards: sparse ids alternate parity,
    // so sticky `device % shards` routing splits the cohort 3/3.
    let max_per_shard = secagg_k.map(|_| 3);
    let live = LiveRound::spawn(
        schedule,
        TASK_NAME,
        POPULATION,
        round,
        secagg_k,
        max_per_shard,
        &blueprint,
    );
    let selector_refs = &live.topology.selectors;

    let handles: Vec<_> = (0..DEVICES)
        .map(|i| {
            let sel = selector_refs[(i % selector_refs.len() as u64) as usize].clone();
            let coord = live.coordinator.clone();
            std::thread::spawn(move || {
                // The device's uplink runs through a `FaultyTransport`,
                // spliced in where a lossy network would sit.
                let conn = DeviceConn::connect_through(device_id(i), POPULATION, sel, coord, |c| {
                    FaultyTransport::new(c, device_script(seed, i))
                });
                let outcome = run_device(&conn, device_id(i), POPULATION, 0.5, secagg, ACK_WAIT);
                (outcome, conn.client().fault_stats())
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok((outcome, faults)) => {
                report.faults.delivered += faults.delivered;
                report.faults.dropped += faults.dropped;
                report.faults.duplicated += faults.duplicated;
                report.faults.delayed += faults.delayed;
                report.faults.corrupted += faults.corrupted;
                report.faults.truncated += faults.truncated;
                report.faults.disconnects += faults.disconnects;
                match outcome {
                    Ok(Accepted { attempt, sends, .. }) => {
                        report.unique_accepted += 1;
                        report.device_attempts.push((attempt, sends));
                    }
                    Err(why) => {
                        report.device_attempts.push((0, 0));
                        report.violations.push(format!("device {i}: {why:?}"));
                    }
                }
            }
            Err(_) => report
                .violations
                .push(format!("device {i} thread panicked")),
        }
    }

    if let Some(RoundOutcome::Committed { incorporated, .. }) =
        live.complete(&mut report.violations)
    {
        report.incorporated = incorporated as u64;
    }
    if let Some(telemetry) = &live.topology.telemetry {
        let t = telemetry.lock();
        report.dup_reports = t.dup_reports().sums().iter().sum::<f64>() as u64;
        report.report_rejects = t.report_rejects().sums().iter().sum::<f64>() as u64;
        report.corrupt_frames = t.corrupt_frames().sums().iter().sum::<f64>() as u64;
    }
    // No retried or duplicated report may ever have reached the store.
    let audit = live.shutdown(&mut report.violations);
    report.committed = audit.committed;
    report.write_count = audit.write_count;
    report.params = audit.params;
    // At-most-once: one incorporated contribution per accepted key.
    if report.incorporated != report.unique_accepted {
        report.violations.push(format!(
            "incorporated {} != unique accepted contributions {}",
            report.incorporated, report.unique_accepted
        ));
    }
    if report.faults.disconnects != 0 {
        report.violations.push(format!(
            "scripted {} disconnects in a disconnect-free scenario",
            report.faults.disconnects
        ));
    }
    // The committed model must be the exact cohort average no matter
    // what the scripts did: the frame integrity trailer kills every
    // byte-flipped or truncated frame at decode, so only frames built
    // by a device (all reporting 0.5 per coordinate) can ever reach the
    // sum.
    for p in &report.params {
        if (p - 0.5).abs() > 1e-3 {
            report.violations.push(format!(
                "a mangled frame polluted the committed params: {:?}",
                report.params
            ));
            break;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_seed_commits_the_exact_average() {
        // Seed 0's scripts happen to matter less than the structure: a
        // run is clean whenever every device lands exactly one accepted
        // contribution, whatever the script did to the wire.
        let report = run_wire_chaos(0);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.committed, 1);
        assert_eq!(report.write_count, 2);
        assert_eq!(report.incorporated, DEVICES);
        assert_eq!(report.unique_accepted, DEVICES);
    }

    #[test]
    fn scripts_are_seed_stable() {
        for device in 0..DEVICES {
            for slot in 0..SCRIPT_LEN {
                assert_eq!(
                    device_script(9, device).fault_for(slot),
                    device_script(9, device).fault_for(slot)
                );
            }
        }
        assert_ne!(
            (0..SCRIPT_LEN)
                .map(|s| device_script(1, 0).fault_for(s))
                .collect::<Vec<_>>(),
            (0..SCRIPT_LEN)
                .map(|s| device_script(2, 0).fault_for(s))
                .collect::<Vec<_>>(),
            "different seeds must mangle differently"
        );
    }

    #[test]
    fn check_in_slot_is_always_clean() {
        for seed in 0..64u64 {
            for device in 0..DEVICES {
                assert_eq!(
                    device_script(seed, device).fault_for(0),
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
}
