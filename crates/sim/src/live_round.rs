//! The one live-round scaffold [`crate::netchaos`] and [`crate::explore`]
//! share: a single-population tree on the real threaded runtime, driven
//! through exactly one training round and torn down again.
//!
//! The scaffold owns everything the two harnesses do identically — the
//! task and plan, a Coordinator over an *external* shared store with a
//! manually acquired lease (the wiring a respawned incarnation uses, and
//! the only way a harness can audit `write_count` after the Coordinator
//! is gone), the tree itself, the bounded completion poll, shutdown, and
//! the storage / lease audit. Each harness keeps what is its own: its
//! device threads, what it perturbs (frames in flight; mailbox delivery
//! order), and its report.

use fl_actors::{ActorRef, ActorSystem, LockingService};
use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
use fl_core::population::{FlTask, TaskGroup, TaskSelectionStrategy};
use fl_core::round::{RoundConfig, RoundOutcome};
use fl_core::PopulationName;
use fl_server::coordinator::CoordinatorConfig;
use fl_server::live::{coordinator_lease_name, CoordMsg, CoordinatorActor};
use fl_server::storage::{CheckpointStore, InMemoryCheckpointStore, SharedCheckpointStore};
use fl_server::topology::{self, CompletionError, MultiTopology, TopologyBlueprint};

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
    /// Spawns the tree on `system` (which may already carry a fault
    /// injector): one Coordinator training `task_name` on a 4-feature
    /// logistic model for `population`, behind the blueprint's Selectors.
    /// `max_per_shard`, when set, overrides the Coordinator's sharding.
    pub(crate) fn spawn(
        system: ActorSystem,
        task_name: &'static str,
        population: &'static str,
        round: RoundConfig,
        secagg_k: Option<usize>,
        max_per_shard: Option<usize>,
        blueprint: &TopologyBlueprint,
    ) -> Result<Self, String> {
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
            .ok_or("could not acquire coordinator lease")?;
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
        Ok(LiveRound {
            system,
            topology,
            coordinator,
            task_name,
            store,
            locks,
            lease_name,
        })
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
