//! Shared construction of the paper's server tree (Fig. 3 / Sec. 4.1):
//! N Selectors — each with its own pace controller, admission controller,
//! and per-population quotas, optionally sharing one fleet-wide
//! [`GlobalAdmissionBudget`] — fanning each population's devices into
//! that population's Coordinator, whose training rounds aggregate
//! through an ephemeral Master Aggregator subtree. A single-population
//! deployment is the one-Coordinator case of the same tree.
//!
//! Three harnesses build this tree: the live threaded topology
//! ([`spawn_multi_topology`]), the chaos harness (`fl-sim::chaos`,
//! virtual clock), and the flow-control scenario engine
//! (`fl-sim::scenario`, virtual clock, behind `overload` and `multi`).
//! They used to hand-roll the wiring independently; the blueprint types
//! here are the single source of truth, so a selector knob added for one
//! harness exists in all of them.

use crate::coordinator::{Coordinator, CoordinatorConfig};
use crate::live::{CoordinatorActor, CoordMsg, SelectorActor, SelectorMsg, SharedOverloadMetrics};
use crate::pace::PaceSteering;
use crate::selector::Selector;
use crate::shedding::{AdmissionConfig, GlobalAdmissionBudget, GlobalAdmissionConfig};
use crate::storage::CheckpointStore;
use crossbeam::channel::{unbounded, RecvTimeoutError};
use fl_actors::{ActorRef, ActorSystem};
use fl_analytics::overload::{OverloadMetrics, OverloadMonitorConfig};
use fl_core::plan::FlPlan;
use fl_core::population::TaskGroup;
use fl_core::round::RoundOutcome;
use fl_core::{CoreError, PopulationName};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Everything needed to build one Selector of the tree.
#[derive(Debug, Clone)]
pub struct SelectorSpec {
    /// Pace-steering policy (rendezvous period + target check-ins).
    pub pace: PaceSteering,
    /// Initial population estimate seeding the closed-loop controller.
    pub population_estimate: u64,
    /// Seed for the selector's reservoir-sampling RNG.
    pub seed: u64,
    /// Held-connection quota each population starts with when
    /// [`TopologyBlueprint::build_selectors`] registers it (the
    /// Coordinator may adjust it later).
    pub quota: usize,
    /// Local admission control; `None` accepts everything under quota.
    pub admission: Option<AdmissionConfig>,
    /// Staleness TTL for held connections; `None` never evicts.
    pub stale_after_ms: Option<u64>,
}

impl SelectorSpec {
    /// A spec with no admission control and no staleness eviction.
    pub fn new(pace: PaceSteering, population_estimate: u64, seed: u64, quota: usize) -> Self {
        SelectorSpec {
            pace,
            population_estimate,
            seed,
            quota,
            admission: None,
            stale_after_ms: None,
        }
    }

    /// Adds local admission control (token bucket + queue bound).
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Adds stale-connection eviction.
    pub fn with_staleness(mut self, stale_after_ms: u64) -> Self {
        self.stale_after_ms = Some(stale_after_ms);
        self
    }

    /// Builds the Selector, attaching the shared budget when present. It
    /// serves no population until one is registered with a quota.
    pub fn build(&self, budget: Option<&GlobalAdmissionBudget>) -> Selector {
        let mut selector = Selector::new(self.pace, self.population_estimate, self.seed);
        if let Some(admission) = self.admission {
            selector = selector.with_admission(admission);
        }
        if let Some(ttl) = self.stale_after_ms {
            selector = selector.with_staleness(ttl);
        }
        if let Some(budget) = budget {
            selector = selector.with_global_budget(budget.clone());
        }
        selector
    }
}

/// The deployment a tree's Coordinator owns: its config plus the task
/// group, plans, and initial model it deploys. Kept as data so a respawned
/// or retried incarnation (chaos harness) redeploys the identical thing.
#[derive(Debug, Clone)]
pub struct DeploymentSpec {
    /// Coordinator identity and sharding parameters.
    pub config: CoordinatorConfig,
    /// The task group to deploy.
    pub group: TaskGroup,
    /// One plan per task, in task order.
    pub plans: Vec<FlPlan>,
    /// Initial global model parameters.
    pub initial_params: Vec<f32>,
}

impl DeploymentSpec {
    /// Builds an undeployed [`Coordinator`] over `store`.
    pub fn new_coordinator<S: CheckpointStore>(&self, store: S) -> Coordinator<S> {
        Coordinator::new(self.config.clone(), store)
    }

    /// Deploys this spec on a coordinator. Retryable: a scripted storage
    /// failure leaves the coordinator undeployed and the spec intact.
    ///
    /// # Errors
    ///
    /// Propagates [`Coordinator::deploy`] errors (storage failures,
    /// invalid task groups).
    pub fn deploy_on<S: CheckpointStore>(&self, c: &mut Coordinator<S>) -> Result<(), CoreError> {
        c.deploy(
            self.group.clone(),
            self.plans.clone(),
            self.initial_params.clone(),
        )
    }
}

/// Declarative shape of the Selector layer: per-Selector specs plus the
/// knobs shared across all of them.
#[derive(Debug, Clone)]
pub struct TopologyBlueprint {
    /// One spec per Selector.
    pub selectors: Vec<SelectorSpec>,
    /// Fleet-wide admission budget shared by every Selector; `None`
    /// leaves admission purely local.
    pub global_admission: Option<GlobalAdmissionConfig>,
    /// When set, the live topology records accept/shed/evict/retry
    /// telemetry into a [`SharedOverloadMetrics`] built from this config.
    pub telemetry: Option<OverloadMonitorConfig>,
}

impl TopologyBlueprint {
    /// A blueprint with no global budget and no telemetry.
    pub fn new(selectors: Vec<SelectorSpec>) -> Self {
        TopologyBlueprint {
            selectors,
            global_admission: None,
            telemetry: None,
        }
    }

    /// Shares one fleet-wide admission budget across all Selectors.
    pub fn with_global_admission(mut self, config: GlobalAdmissionConfig) -> Self {
        self.global_admission = Some(config);
        self
    }

    /// Enables overload telemetry in the live topology.
    pub fn with_telemetry(mut self, config: OverloadMonitorConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// Builds the shared budget, if one is configured.
    pub fn build_global_budget(&self) -> Option<GlobalAdmissionBudget> {
        self.global_admission.map(GlobalAdmissionBudget::new)
    }

    /// Builds the Selector layer, every Selector wired to `budget` when
    /// present and serving each of `populations` at its spec's quota.
    /// Virtual-clock harnesses drive these directly; the live topology
    /// wraps them in [`SelectorActor`]s via [`spawn_multi_topology`].
    pub fn build_selectors(
        &self,
        budget: Option<&GlobalAdmissionBudget>,
        populations: &[PopulationName],
    ) -> Vec<Selector> {
        self.selectors
            .iter()
            .map(|spec| {
                let mut selector = spec.build(budget);
                for population in populations {
                    selector.set_population_quota(population.clone(), spec.quota);
                }
                selector
            })
            .collect()
    }
}

/// Handles to a spawned live tree: one Coordinator per population,
/// every Selector routing check-ins by the wire-carried
/// [`PopulationName`].
#[derive(Debug)]
pub struct MultiTopology {
    /// The Selector actors, in blueprint order.
    pub selectors: Vec<ActorRef<SelectorMsg>>,
    /// One Coordinator actor per population, keyed by its name.
    pub coordinators: BTreeMap<PopulationName, ActorRef<CoordMsg>>,
    /// The shared admission budget, when the blueprint configured one.
    /// Every population is registered on it at spawn, so fair-share
    /// reservations exist before the first check-in arrives.
    pub global_budget: Option<GlobalAdmissionBudget>,
    /// Shared overload telemetry, when the blueprint configured it; the
    /// Selector layer records per-population accept/shed/retry series.
    pub telemetry: Option<SharedOverloadMetrics>,
}

impl MultiTopology {
    /// The Coordinator actor owning `population`, if it was spawned.
    pub fn coordinator(&self, population: &PopulationName) -> Option<&ActorRef<CoordMsg>> {
        self.coordinators.get(population)
    }

    /// Asks every actor in the tree to stop. Idempotent send-or-ignore:
    /// an actor that already stopped (or crashed) has a dead mailbox, and
    /// a second `shutdown()` — or one racing an actor's own exit — must
    /// be a no-op, not a panic. Callers that used to `.send(..).unwrap()`
    /// each handle individually turned benign teardown races into test
    /// flakes.
    pub fn shutdown(&self) {
        for s in &self.selectors {
            let _ = s.send(SelectorMsg::Shutdown);
        }
        for c in self.coordinators.values() {
            let _ = c.send(CoordMsg::Shutdown);
        }
    }
}

/// Why [`complete_round`] returned no outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionError {
    /// The Coordinator's mailbox is closed: the actor died mid-round.
    CoordinatorGone,
    /// The round finished but its commit failed (its Master Aggregator
    /// died, or storage refused the checkpoint); nothing was committed.
    CommitFailed,
    /// The round had not finished when the wait ran out.
    TimedOut,
}

/// Waits up to `wait` for `coordinator`'s current round to finish and
/// returns its outcome: one `TryCompleteRound`, which the Coordinator
/// answers when it closes the round (on the goal count or its own phase
/// timeout), and one `recv_timeout` on the calling thread.
///
/// # Errors
///
/// [`CompletionError`] when the Coordinator is gone, the commit failed,
/// or the round is still running after `wait`.
pub fn complete_round(
    coordinator: &ActorRef<CoordMsg>,
    wait: Duration,
) -> Result<RoundOutcome, CompletionError> {
    let (reply, outcome) = unbounded();
    coordinator
        .send(CoordMsg::TryCompleteRound { reply })
        .map_err(|_| CompletionError::CoordinatorGone)?;
    match outcome.recv_timeout(wait) {
        Ok(Some(outcome)) => Ok(outcome),
        Ok(None) => Err(CompletionError::CommitFailed),
        Err(RecvTimeoutError::Timeout) => Err(CompletionError::TimedOut),
        Err(RecvTimeoutError::Disconnected) => Err(CompletionError::CoordinatorGone),
    }
}

/// Spawns the live tree (Sec. 2.1/4.2: "Each population of devices
/// corresponds to a different learning problem" and "The Coordinators
/// are the top-level actors, one per population"): one
/// `"coordinator-<population>"` actor per entry — each already holding
/// its own lease on the shared locking service — plus the blueprint's
/// `"selector-<i>"` layer, with every Selector routing check-ins to the
/// owning population's Coordinator and holding that population against
/// the paired per-selector quota. Every population is registered on the
/// blueprint's shared [`GlobalAdmissionBudget`] by the Selectors that
/// serve it, so cross-population admission fairness is in force from
/// the first check-in. Master Aggregator subtrees are *not* spawned
/// here — each coordinator spawns one per training round and it dies
/// with the round (Sec. 4.1).
///
/// # Panics
///
/// Panics when `coordinators` is empty: a tree with no population has
/// nothing to route to.
pub fn spawn_multi_topology<S: CheckpointStore + Send + 'static>(
    system: &ActorSystem,
    coordinators: Vec<(CoordinatorActor<S>, usize)>,
    blueprint: &TopologyBlueprint,
) -> MultiTopology {
    assert!(
        !coordinators.is_empty(),
        "a topology needs at least one population coordinator"
    );
    let budget = blueprint.build_global_budget();
    let telemetry: Option<SharedOverloadMetrics> = blueprint.telemetry.map(|config| {
        Arc::new(fl_race::Mutex::new(
            crate::live::OVERLOAD_METRICS,
            OverloadMetrics::new(config, 0),
        ))
    });
    let mut coord_refs: BTreeMap<PopulationName, ActorRef<CoordMsg>> = BTreeMap::new();
    let mut routes: Vec<(PopulationName, ActorRef<CoordMsg>, usize)> = Vec::new();
    for (actor, quota) in coordinators {
        let population = actor.population();
        // The coordinator shares the same metric sink as the Selectors so
        // SecAgg shard aborts land next to the admission telemetry.
        let actor = match &telemetry {
            Some(telemetry) => actor.with_telemetry(telemetry.clone()),
            None => actor,
        };
        let coord_ref = system.spawn(format!("coordinator-{population}"), actor);
        coord_refs.insert(population.clone(), coord_ref.clone());
        routes.push((population, coord_ref, quota));
    }
    let selectors = blueprint
        .selectors
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            // A freshly built Selector serves no population, so `new`
            // routes nothing; every route is added by name below.
            let mut actor = SelectorActor::new(spec.build(budget.as_ref()), routes[0].1.clone());
            for (population, coordinator, quota) in &routes {
                actor = actor.with_route(population.clone(), coordinator.clone(), *quota);
            }
            if let Some(telemetry) = &telemetry {
                actor = actor.with_telemetry(telemetry.clone());
            }
            system.spawn(format!("selector-{i}"), actor)
        })
        .collect();
    MultiTopology {
        selectors,
        coordinators: coord_refs,
        global_budget: budget,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blueprint_builds_selectors_sharing_one_budget() {
        let blueprint = TopologyBlueprint::new(
            (0..3)
                .map(|i| {
                    SelectorSpec::new(PaceSteering::new(1_000, 4), 1_000, i, 8)
                        .with_staleness(60_000)
                })
                .collect(),
        )
        .with_global_admission(GlobalAdmissionConfig {
            window_ms: 60_000,
            max_admits_per_window: 5,
        });
        let budget = blueprint.build_global_budget();
        let population = PopulationName::new("pop-blueprint");
        let mut selectors =
            blueprint.build_selectors(budget.as_ref(), std::slice::from_ref(&population));
        assert_eq!(selectors.len(), 3);
        // 9 would-be accepts across three selectors, one shared window of 5.
        for (i, s) in selectors.iter_mut().enumerate() {
            for d in 0..3u64 {
                s.on_checkin_for(&population, fl_core::DeviceId(i as u64 * 10 + d), 1, 1.0);
            }
        }
        let budget = budget.unwrap();
        assert_eq!(budget.registered_populations(), vec![population.clone()]);
        assert_eq!(budget.admitted_total(), 5);
        assert_eq!(budget.shed_total(), 4);
        let accepted: u64 = selectors.iter().map(|s| s.counters_for(&population).0).sum();
        assert_eq!(accepted, 5);
    }

    #[test]
    fn deployment_spec_redeploys_identically() {
        use crate::storage::InMemoryCheckpointStore;
        use fl_core::plan::{CodecSpec, ModelSpec};
        use fl_core::population::{FlTask, TaskSelectionStrategy};

        let spec = ModelSpec::Logistic {
            dim: 4,
            classes: 2,
            seed: 0,
        };
        let deployment = DeploymentSpec {
            config: CoordinatorConfig::new("pop-spec", 7),
            group: TaskGroup::new(
                vec![FlTask::training("t", "pop-spec")],
                TaskSelectionStrategy::Single,
            ),
            plans: vec![FlPlan::standard_training(spec, 1, 8, 0.1, CodecSpec::Identity)],
            initial_params: vec![0.0; spec.num_params()],
        };
        let mut a = deployment.new_coordinator(InMemoryCheckpointStore::new());
        let mut b = deployment.new_coordinator(InMemoryCheckpointStore::new());
        deployment.deploy_on(&mut a).unwrap();
        deployment.deploy_on(&mut b).unwrap();
        assert_eq!(
            a.global_params("t").unwrap(),
            b.global_params("t").unwrap()
        );
    }
}
