//! The one live-round scaffold and the one live device
//! [`crate::netchaos`] and [`crate::explore`] share: a single-population
//! tree on the real threaded runtime, driven through exactly one training
//! round by [`run_device`] clients and torn down again.
//!
//! The scaffold owns everything the two harnesses do identically — the
//! task and plan, a Coordinator over an *external* shared store with a
//! manually acquired lease (the wiring a respawned incarnation uses, and
//! the only way a harness can audit `write_count` after the Coordinator
//! is gone), the tree itself (under a seeded mailbox delivery schedule
//! when asked), the device's check-in → configuration → report / resend
//! loop, the bounded completion poll, shutdown, and the storage / lease
//! audit. Each harness keeps what is its own: the transport it puts under
//! its devices (a fault script or none), what it audits, and its report.

use fl_actors::{ActorRef, ActorSystem, LockingService, ScheduleExplorer};
use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
use fl_core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use fl_core::round::{RoundConfig, RoundOutcome};
use fl_core::{DeviceId, PopulationName, RoundId};
use fl_device::UploadSession;
use fl_ml::fixedpoint::{FixedPointEncoder, FixedPointError};
use fl_server::coordinator::CoordinatorConfig;
use fl_server::live::{coordinator_lease_name, CoordMsg, CoordinatorActor, DeviceConn};
use fl_server::storage::{CheckpointStore, InMemoryCheckpointStore, SharedCheckpointStore};
use fl_server::topology::{self, CompletionError, MultiTopology, TopologyBlueprint};
use fl_server::wire::{Transport, WireError, WireMessage};
use std::sync::Arc;
use std::time::Duration;

/// Bound on a device's wait for its configuration.
const CONFIG_WAIT: Duration = Duration::from_secs(10);
/// Bound on total sends of one device's report (resends + fresh
/// attempts). At a ~10% per-frame fault rate the chance of a device
/// exhausting this is negligible; hitting it is reported as a violation.
const MAX_SENDS: u32 = 10;
/// Bound on fresh `(round, attempt)` keys after pinned rejects.
const MAX_ATTEMPTS: u32 = 4;

/// A device's report frame under the `(round, attempt)` at-most-once key:
/// `update` as a fixed-point field vector in a `SecAggReport` when the
/// round runs Secure Aggregation (8 bytes per coordinate, the Sec. 6
/// bandwidth premium), Identity-coded in an `UpdateReport` otherwise.
/// Every `fl-sim` device, simulated or live, uploads through this one
/// constructor.
pub(crate) fn report_frame(
    device: DeviceId,
    population: &PopulationName,
    (round, attempt): (RoundId, u32),
    update: &[f32],
    secagg: bool,
    (weight, loss, accuracy): (u64, f64, f64),
) -> Result<WireMessage, FixedPointError> {
    let population = population.clone();
    Ok(if secagg {
        WireMessage::SecAggReport {
            device,
            round,
            attempt,
            field_vector: FixedPointEncoder::default_for_updates().encode(update)?,
            weight,
            loss,
            accuracy,
            population,
        }
    } else {
        WireMessage::UpdateReport {
            device,
            round,
            attempt,
            update_bytes: CodecSpec::Identity.build().encode(update),
            weight,
            loss,
            accuracy,
            population,
        }
    })
}

/// One device's check-in → configure → report/resend/retry loop, reporting
/// `update` in every coordinate at weight 1. The loop is the
/// reconnect/resume protocol from `fl-device`: a silent ack loss (no
/// verdict within `ack_wait`) re-sends the *same* [`UploadSession`] key
/// (the ledger replays the original verdict), a pinned reject moves to a
/// fresh attempt key, and acks for ghost keys (born of in-flight
/// corruption) are ignored.
///
/// Returns the accepted `(attempt, total sends, stray replies)`, or why
/// the device gave up. Under a scripted wire all three are deterministic
/// per seed (each send's ack either arrives within actor-hop latency or
/// never); on a clean wire anything but `(1, 1, 0)` is a surprise.
pub(crate) fn run_device<T: Transport>(
    conn: &DeviceConn<T>,
    device: DeviceId,
    population: &str,
    update: f32,
    secagg: bool,
    ack_wait: Duration,
) -> Result<(u32, u32, u32), String> {
    conn.check_in().map_err(|_| "selector gone")?;
    let (plan, checkpoint) = match conn.recv(CONFIG_WAIT) {
        Ok(WireMessage::PlanAndCheckpoint {
            plan, checkpoint, ..
        }) => (plan, checkpoint),
        Ok(other) => return Err(format!("unexpected pre-config reply {other:?}")),
        Err(e) => return Err(format!("no configuration: {e}")),
    };
    let dim = plan.server.expected_dim;
    if checkpoint.len() != dim {
        return Err(format!(
            "checkpoint dim {} != plan dim {dim}",
            checkpoint.len()
        ));
    }
    let update = vec![update; dim];
    let population = PopulationName::new(population);

    let mut session = UploadSession::new(checkpoint.round);
    let (mut sends, mut strays) = (0u32, 0u32);
    'send: loop {
        if sends >= MAX_SENDS {
            return Err(format!("send budget exhausted after {sends} sends"));
        }
        sends += 1;
        let key = session.key();
        let frame = report_frame(device, &population, key, &update, secagg, (1, 0.4, 0.9))
            .map_err(|e| format!("fixed-point encode failed: {e}"))?;
        conn.send(&frame).map_err(|_| "coordinator gone")?;
        loop {
            match conn.recv(ack_wait) {
                Ok(WireMessage::ReportAck {
                    accepted,
                    round,
                    attempt,
                    ..
                }) if (round, attempt) == key => {
                    if accepted {
                        return Ok((attempt, sends, strays));
                    }
                    // Pinned reject: this key is burned for good — move
                    // to a fresh attempt key and re-evaluate.
                    if attempt >= MAX_ATTEMPTS {
                        return Err(format!("rejected on all {attempt} attempts"));
                    }
                    session.next_attempt();
                    continue 'send;
                }
                // Stray replies (the coordinator's keyless reject of a
                // frame the integrity trailer killed, or a re-pushed
                // configuration): not ours, keep waiting for the real
                // verdict.
                Ok(_) => {
                    strays += 1;
                    if strays > 64 {
                        return Err("drowned in stray replies".into());
                    }
                }
                // Silent loss: re-send the same key; if the original
                // did land, the ledger replays its ack unchanged.
                Err(WireError::Timeout) => {
                    session.key_for_resend();
                    continue 'send;
                }
                Err(e) => return Err(format!("link died: {e}")),
            }
        }
    }
}

/// A spawned single-population tree with one round to run.
pub(crate) struct LiveRound {
    pub(crate) system: ActorSystem,
    pub(crate) topology: MultiTopology,
    pub(crate) coordinator: ActorRef<CoordMsg>,
    task_name: &'static str,
    store: SharedCheckpointStore<InMemoryCheckpointStore>,
    locks: LockingService<String>,
    lease_name: String,
}

/// What storage held once the tree was gone.
pub(crate) struct StorageAudit {
    /// Rounds committed: the latest checkpoint's round id (deployment
    /// writes r0, each committed round advances it by one).
    pub(crate) committed: u64,
    /// Checkpoint writes observed.
    pub(crate) write_count: u64,
    /// The latest checkpoint's model parameters.
    pub(crate) params: Vec<f32>,
}

impl LiveRound {
    /// Spawns the tree: one Coordinator training `task_name` on a
    /// 4-feature logistic model for `population`, behind the blueprint's
    /// Selectors. A nonzero `schedule_seed` puts every mailbox under that
    /// [`ScheduleExplorer`] delivery schedule; 0 installs none.
    /// `max_per_shard`, when set, overrides the Coordinator's sharding.
    pub(crate) fn spawn(
        schedule_seed: u64,
        task_name: &'static str,
        population: &'static str,
        round: RoundConfig,
        secagg_k: Option<usize>,
        max_per_shard: Option<usize>,
        blueprint: &TopologyBlueprint,
    ) -> Self {
        let system = ActorSystem::new();
        if schedule_seed != 0 {
            system.install_fault_injector(Arc::new(ScheduleExplorer::new(schedule_seed)));
        }
        let spec = ModelSpec::Logistic {
            dim: 4,
            classes: 2,
            seed: 0,
        };
        let mut task = FlTask::training(task_name, population).with_round(round);
        if let Some(k) = secagg_k {
            task = task.with_secagg(k);
        }
        let plan = FlPlan::standard_training(spec, 1, 8, 0.1, CodecSpec::Identity);
        let group = TaskGroup::new(vec![task], TaskSelectionStrategy::Single);

        let store = SharedCheckpointStore::new(InMemoryCheckpointStore::new());
        let locks = LockingService::new();
        let mut config = CoordinatorConfig::new(population, 7);
        if let Some(max_per_shard) = max_per_shard {
            config.max_per_shard = max_per_shard;
        }
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
        let topology = topology::spawn_multi_topology(&system, vec![(coordinator, 10)], blueprint);
        let coordinator = topology.coordinators[&PopulationName::new(population)].clone();
        LiveRound {
            system,
            topology,
            coordinator,
            task_name,
            store,
            locks,
            lease_name,
        }
    }

    /// Polls the round to its outcome off the timer wheel; the bounded
    /// poll count is the never-hang deadline. Anything but a committed
    /// round is a violation.
    pub(crate) fn complete(
        &self,
        max_polls: u32,
        violations: &mut Vec<String>,
    ) -> Option<RoundOutcome> {
        match topology::complete_round(&self.coordinator, max_polls) {
            Ok(outcome) => {
                if !outcome.is_committed() {
                    violations.push(format!("round finished uncommitted: {outcome:?}"));
                }
                return Some(outcome);
            }
            Err(CompletionError::CoordinatorGone) => {
                violations.push("coordinator died before completing".into());
            }
            Err(CompletionError::ReplyHung) => {
                violations.push("TryCompleteRound reply hung".into());
            }
            // A hang that an earlier violation already explains is not
            // reported twice.
            Err(CompletionError::StillRunning(polls)) => {
                if violations.is_empty() {
                    violations.push(format!("round hung past {polls} completion polls"));
                }
            }
        }
        None
    }

    /// Stops the tree, waits for every actor to exit, and audits what is
    /// left (Sec. 4.2): exactly one commit, `write_count == 1 +
    /// committed` (the deployment write plus one per committed round —
    /// per-device updates, retries and duplicates never reach storage),
    /// and population ownership released by the clean shutdown.
    pub(crate) fn shutdown(&self, violations: &mut Vec<String>) -> StorageAudit {
        self.topology.shutdown();
        self.system.join();
        let latest = self.store.latest(self.task_name).ok();
        let audit = StorageAudit {
            committed: latest.as_ref().map_or(0, |ck| ck.round.0),
            write_count: self.store.write_count(),
            params: latest.map(|ck| ck.into_params()).unwrap_or_default(),
        };
        if audit.committed != 1 {
            violations.push(format!(
                "committed {} rounds, want exactly 1",
                audit.committed
            ));
        }
        if audit.write_count != 1 + audit.committed {
            violations.push(format!(
                "write_count {} != 1 + committed {}",
                audit.write_count, audit.committed
            ));
        }
        if self.locks.lookup(&self.lease_name).is_some() {
            violations.push("coordinator lease still held after clean shutdown".into());
        }
        audit
    }
}
