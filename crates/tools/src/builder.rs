//! Task definition (Sec. 7.1).
//!
//! "Model engineers begin by defining the FL tasks that they would like to
//! run on a given FL population […]. The configuration of tasks is also
//! written in Python and includes runtime parameters such as the optimal
//! number of devices in a round as well as model hyperparameters like
//! learning rate."

use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
use fl_core::population::{FlTask, PopulationName, TaskGroup, TaskSelectionStrategy};
use fl_core::round::RoundConfig;

/// Builder for an FL training task and its generated plan.
#[derive(Debug, Clone)]
pub struct TaskBuilder {
    name: String,
    population: PopulationName,
    model: ModelSpec,
    learning_rate: f32,
    local_epochs: usize,
    batch_size: usize,
    round: RoundConfig,
}

impl TaskBuilder {
    /// Starts a builder for a training task.
    pub fn training(
        name: impl Into<String>,
        population: impl Into<PopulationName>,
        model: ModelSpec,
    ) -> Self {
        TaskBuilder {
            name: name.into(),
            population: population.into(),
            model,
            learning_rate: 0.1,
            local_epochs: 1,
            batch_size: 16,
            round: RoundConfig::default(),
        }
    }

    /// Sets the local learning rate.
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Sets the number of local epochs.
    pub fn local_epochs(mut self, epochs: usize) -> Self {
        self.local_epochs = epochs;
        self
    }

    /// Sets the local minibatch size.
    pub fn batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch;
        self
    }

    /// Sets the round configuration (goal count, timeouts, …).
    // fl-lint: allow(test-only-pub): tests/train_eval_cycle.rs sets its rounds' goal with it (Sec. 7.1)
    pub fn round(mut self, round: RoundConfig) -> Self {
        self.round = round;
        self
    }

    /// Generates the task and its FL plan ("plans are automatically
    /// generated from the combination of model and configuration supplied
    /// by the model engineer" — Sec. 7.2). The library splits the device
    /// part from the server part automatically.
    pub fn build(&self) -> (FlTask, FlPlan) {
        let task =
            FlTask::training(self.name.clone(), self.population.clone()).with_round(self.round);
        let plan = FlPlan::standard_training(
            self.model,
            self.local_epochs,
            self.batch_size,
            self.learning_rate,
            CodecSpec::Identity,
        );
        (task, plan)
    }

    /// Builds a *task group* sweeping the learning rate — the paper's grid
    /// search example — deployed as an A/B comparison.
    ///
    /// # Panics
    ///
    /// Panics if `rates` is empty.
    // fl-lint: allow(test-only-pub): paper Sec. 7 model-engineer tools (DESIGN.md Sec. 3, fl-tools)
    pub fn learning_rate_grid(&self, rates: &[f32]) -> (TaskGroup, Vec<FlPlan>) {
        assert!(!rates.is_empty(), "grid needs at least one learning rate");
        let mut tasks = Vec::with_capacity(rates.len());
        let mut plans = Vec::with_capacity(rates.len());
        for (i, &lr) in rates.iter().enumerate() {
            let variant = TaskBuilder {
                name: format!("{}/lr-{lr}", self.name),
                learning_rate: lr,
                ..self.clone()
            };
            let (task, plan) = variant.build();
            tasks.push(task);
            plans.push(plan);
            let _ = i;
        }
        let arms = (0..tasks.len()).collect();
        (
            TaskGroup::new(tasks, TaskSelectionStrategy::AbComparison { arms }),
            plans,
        )
    }

    /// Builds the paired evaluation task for this training task, with the
    /// alternating train/eval strategy (Sec. 7.1).
    // fl-lint: allow(test-only-pub): paper Sec. 7 model-engineer tools (DESIGN.md Sec. 3, fl-tools)
    pub fn with_evaluation(&self, train_rounds: u64) -> (TaskGroup, Vec<FlPlan>) {
        let (train_task, train_plan) = self.build();
        let eval_task = FlTask::evaluation(format!("{}/eval", self.name), self.population.clone())
            .with_round(self.round)
            .with_checkpoint_source(self.name.clone());
        let eval_plan = FlPlan::standard_evaluation(self.model);
        (
            TaskGroup::new(
                vec![train_task, eval_task],
                TaskSelectionStrategy::AlternateTrainEval { train_rounds },
            ),
            vec![train_plan, eval_plan],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_core::population::TaskKind;

    fn spec() -> ModelSpec {
        ModelSpec::Logistic {
            dim: 8,
            classes: 3,
            seed: 0,
        }
    }

    #[test]
    fn build_produces_consistent_task_and_plan() {
        let (task, plan) = TaskBuilder::training("t", "pop", spec())
            .learning_rate(0.5)
            .local_epochs(3)
            .batch_size(8)
            .build();
        assert_eq!(task.kind, TaskKind::Training);
        assert_eq!(plan.server.expected_dim, spec().num_params());
        // The generated device plan encodes the hyperparameters.
        let has_train = plan.device.ops.iter().any(|op| {
            matches!(
                op,
                fl_core::plan::PlanOp::Train {
                    epochs: 3,
                    batch_size: 8,
                    ..
                }
            )
        });
        assert!(has_train);
    }

    #[test]
    fn grid_builds_one_task_per_rate() {
        let (group, plans) =
            TaskBuilder::training("t", "pop", spec()).learning_rate_grid(&[0.01, 0.1, 1.0]);
        assert_eq!(group.tasks().len(), 3);
        assert_eq!(plans.len(), 3);
        // A/B rotation visits all arms.
        let names: Vec<&str> = (0..3).map(|r| group.select(r).name.as_str()).collect();
        assert_eq!(names.len(), 3);
        assert!(names.iter().all(|n| n.starts_with("t/lr-")));
        assert_ne!(names[0], names[1]);
    }

    #[test]
    fn with_evaluation_alternates() {
        let (group, plans) = TaskBuilder::training("t", "pop", spec()).with_evaluation(2);
        assert_eq!(plans.len(), 2);
        assert_eq!(group.select(0).kind, TaskKind::Training);
        assert_eq!(group.select(1).kind, TaskKind::Training);
        assert_eq!(group.select(2).kind, TaskKind::Evaluation);
    }

    #[test]
    #[should_panic(expected = "at least one learning rate")]
    fn empty_grid_rejected() {
        let _ = TaskBuilder::training("t", "pop", spec()).learning_rate_grid(&[]);
    }
}
