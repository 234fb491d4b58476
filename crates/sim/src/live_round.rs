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
//! when asked), the device (one `fl_device::session` driven over its
//! connection), the bounded wait for the round's outcome, shutdown, and
//! the storage / lease audit. Each harness keeps what is its own: the
//! transport it puts under its devices (a fault script or none), what it
//! audits, and its report.

use fl_actors::{ActorRef, ActorSystem, LockingService, ScheduleExplorer};
use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
use fl_core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use fl_core::round::{RoundConfig, RoundOutcome};
use fl_core::{DeviceId, PopulationName};
use fl_device::session::{Accepted, DeviceSession, End, Payload};
use fl_server::coordinator::CoordinatorConfig;
use fl_server::live::{coordinator_lease_name, CoordMsg, CoordinatorActor, DeviceConn};
use fl_server::storage::{CheckpointStore, InMemoryCheckpointStore, SharedCheckpointStore};
use fl_server::topology::{self, CompletionError, MultiTopology, TopologyBlueprint};
use fl_server::wire::Transport;
use std::sync::Arc;
use std::time::Duration;

/// One device's session, driven to its end over `conn`: it reports
/// `update` in every coordinate at weight 1, as a field vector when the
/// round runs `secagg`, and re-sends the same key after each `ack_wait`
/// without a verdict. Under a scripted wire the [`Accepted`] counts are
/// deterministic per seed (each send's ack either arrives within
/// actor-hop latency or never); on a clean wire anything but one send
/// and no stray is a surprise.
pub(crate) fn run_device<T: Transport>(
    conn: &DeviceConn<T>,
    device: DeviceId,
    population: &str,
    update: f32,
    secagg: bool,
    ack_wait: Duration,
) -> Result<Accepted, End> {
    DeviceSession::new(device, population).exchange(
        |frame| conn.send(frame),
        |wait| conn.recv(wait),
        ack_wait,
        |session| {
            let update = vec![update; session.plan().server.expected_dim];
            let payload = if secagg {
                Payload::Field(&update)
            } else {
                Payload::Identity(&update)
            };
            session.report(payload, 1, 0.4, 0.9)
        },
    )
}

/// How long [`LiveRound::complete`] waits for the round's outcome: the
/// never-hang deadline.
const COMPLETION_WAIT: Duration = Duration::from_secs(20);

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

    /// Waits up to [`COMPLETION_WAIT`] for the round's outcome. Anything
    /// but a committed round is a violation.
    pub(crate) fn complete(&self, violations: &mut Vec<String>) -> Option<RoundOutcome> {
        match topology::complete_round(&self.coordinator, COMPLETION_WAIT) {
            Ok(outcome) => {
                if !outcome.is_committed() {
                    violations.push(format!("round finished uncommitted: {outcome:?}"));
                }
                return Some(outcome);
            }
            Err(CompletionError::CoordinatorGone) => {
                violations.push("coordinator died before completing".into());
            }
            Err(CompletionError::CommitFailed) => {
                violations.push("round finished but its commit failed".into());
            }
            // A hang that an earlier violation already explains is not
            // reported twice.
            Err(CompletionError::TimedOut) => {
                if violations.is_empty() {
                    violations.push(format!("round still running after {COMPLETION_WAIT:?}"));
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
