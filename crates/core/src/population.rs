//! FL populations and FL tasks (Sec. 2.1, Sec. 7.1).
//!
//! "An *FL population* is specified by a globally unique name which
//! identifies the learning problem […]. An *FL task* is a specific
//! computation for an FL population, such as training to be performed with
//! given hyperparameters, or evaluation of trained models on local device
//! data."
//!
//! When multiple tasks are deployed in one population, "the FL service
//! chooses among them using a dynamic strategy that allows alternating
//! between training and evaluation of a single model or A/B comparisons
//! between models" — implemented here as [`TaskSelectionStrategy`].

use serde::{Deserialize, Serialize};
use std::fmt;

/// Globally unique name of an FL population (a learning problem).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PopulationName(String);

impl PopulationName {
    /// Creates a population name.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty (population names are globally unique
    /// identifiers; an empty one is always a bug).
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "population name must be non-empty");
        PopulationName(name)
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for PopulationName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for PopulationName {
    fn from(s: &str) -> Self {
        PopulationName::new(s)
    }
}

/// What kind of computation a task runs on device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    /// Local training producing a model update.
    Training,
    /// Evaluation on held-out local data producing metrics only.
    Evaluation,
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskKind::Training => f.write_str("training"),
            TaskKind::Evaluation => f.write_str("evaluation"),
        }
    }
}

/// A specific computation for an FL population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlTask {
    /// Unique task name within the population.
    pub name: String,
    /// The population this task belongs to.
    pub population: PopulationName,
    /// Training or evaluation.
    pub kind: TaskKind,
    /// Round configuration (goal counts, timeouts, …).
    pub round: crate::round::RoundConfig,
    /// Minimum Secure Aggregation group size `k` (Sec. 6); `None` disables
    /// Secure Aggregation for this task.
    pub secagg_group_size: Option<usize>,
    /// Server-side differential-privacy mechanism (Sec. 6, footnote 2);
    /// `None` disables clipping and noise.
    pub dp: Option<crate::privacy::DpConfig>,
    /// Which task's global checkpoint this task reads. `None` = its own.
    /// Evaluation tasks point at their paired training task so they
    /// evaluate the *trained* model (Sec. 7.1's alternating strategy).
    pub checkpoint_source: Option<String>,
}

impl FlTask {
    /// Creates a training task with default round configuration.
    pub fn training(name: impl Into<String>, population: impl Into<PopulationName>) -> Self {
        FlTask {
            name: name.into(),
            population: population.into(),
            kind: TaskKind::Training,
            round: crate::round::RoundConfig::default(),
            secagg_group_size: None,
            dp: None,
            checkpoint_source: None,
        }
    }

    /// Creates an evaluation task with default round configuration.
    pub fn evaluation(name: impl Into<String>, population: impl Into<PopulationName>) -> Self {
        FlTask {
            name: name.into(),
            population: population.into(),
            kind: TaskKind::Evaluation,
            round: crate::round::RoundConfig::default(),
            secagg_group_size: None,
            dp: None,
            checkpoint_source: None,
        }
    }

    /// Sets the round configuration.
    pub fn with_round(mut self, round: crate::round::RoundConfig) -> Self {
        self.round = round;
        self
    }

    /// Enables Secure Aggregation with minimum group size `k`.
    pub fn with_secagg(mut self, k: usize) -> Self {
        self.secagg_group_size = Some(k);
        self
    }

    /// Enables the server-side DP-FedAvg mechanism.
    pub fn with_dp(mut self, dp: crate::privacy::DpConfig) -> Self {
        self.dp = Some(dp);
        self
    }

    /// Points this task at another task's global checkpoint (evaluation
    /// tasks evaluate their training task's model).
    pub fn with_checkpoint_source(mut self, source: impl Into<String>) -> Self {
        self.checkpoint_source = Some(source.into());
        self
    }
}

impl From<String> for PopulationName {
    fn from(s: String) -> Self {
        PopulationName::new(s)
    }
}

/// How the FL service chooses among multiple tasks deployed in one
/// population (Sec. 7.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskSelectionStrategy {
    /// Always run the single configured task.
    Single,
    /// Alternate between training and evaluation of one model: run
    /// `train_rounds` training rounds, then one evaluation round.
    AlternateTrainEval {
        /// Training rounds between evaluation rounds.
        train_rounds: u64,
    },
    /// A/B comparison: interleave the listed task indices round-robin.
    AbComparison {
        /// Task indices to rotate through.
        arms: Vec<usize>,
    },
}

/// A population's deployed task group plus its selection strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskGroup {
    tasks: Vec<FlTask>,
    strategy: TaskSelectionStrategy,
}

impl TaskGroup {
    /// Creates a task group.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty, if an `AbComparison` arm index is out of
    /// range, or if `AlternateTrainEval` is used without exactly one
    /// training and one evaluation task.
    pub fn new(tasks: Vec<FlTask>, strategy: TaskSelectionStrategy) -> Self {
        assert!(
            !tasks.is_empty(),
            "task group must contain at least one task"
        );
        match &strategy {
            TaskSelectionStrategy::Single => {}
            TaskSelectionStrategy::AlternateTrainEval { .. } => {
                let train = tasks
                    .iter()
                    .filter(|t| t.kind == TaskKind::Training)
                    .count();
                let eval = tasks
                    .iter()
                    .filter(|t| t.kind == TaskKind::Evaluation)
                    .count();
                assert!(
                    train == 1 && eval == 1,
                    "alternate strategy needs exactly one training and one evaluation task"
                );
            }
            TaskSelectionStrategy::AbComparison { arms } => {
                assert!(!arms.is_empty(), "A/B comparison needs at least one arm");
                for &a in arms {
                    assert!(a < tasks.len(), "arm index {a} out of range");
                }
            }
        }
        TaskGroup { tasks, strategy }
    }

    /// The tasks in the group.
    pub fn tasks(&self) -> &[FlTask] {
        &self.tasks
    }

    /// Chooses the task to run for the given global round counter.
    pub fn select(&self, round_counter: u64) -> &FlTask {
        match &self.strategy {
            TaskSelectionStrategy::Single => &self.tasks[0],
            TaskSelectionStrategy::AlternateTrainEval { train_rounds } => {
                let cycle = train_rounds + 1;
                let pos = round_counter % cycle;
                let want = if pos < *train_rounds {
                    TaskKind::Training
                } else {
                    TaskKind::Evaluation
                };
                self.tasks
                    .iter()
                    .find(|t| t.kind == want)
                    .expect("validated at construction")
            }
            TaskSelectionStrategy::AbComparison { arms } => {
                let arm = arms[(round_counter % arms.len() as u64) as usize];
                &self.tasks[arm]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_name_round_trips() {
        let p = PopulationName::new("gboard/next-word");
        assert_eq!(p.as_str(), "gboard/next-word");
        assert_eq!(p.to_string(), "gboard/next-word");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_population_name_rejected() {
        let _ = PopulationName::new("");
    }

    #[test]
    fn single_strategy_always_picks_first() {
        let g = TaskGroup::new(
            vec![FlTask::training("t", "pop")],
            TaskSelectionStrategy::Single,
        );
        assert_eq!(g.select(0).name, "t");
        assert_eq!(g.select(99).name, "t");
    }

    #[test]
    fn alternate_strategy_cycles_train_then_eval() {
        let g = TaskGroup::new(
            vec![
                FlTask::training("train", "pop"),
                FlTask::evaluation("eval", "pop"),
            ],
            TaskSelectionStrategy::AlternateTrainEval { train_rounds: 3 },
        );
        let kinds: Vec<TaskKind> = (0..8).map(|r| g.select(r).kind).collect();
        assert_eq!(
            kinds,
            vec![
                TaskKind::Training,
                TaskKind::Training,
                TaskKind::Training,
                TaskKind::Evaluation,
                TaskKind::Training,
                TaskKind::Training,
                TaskKind::Training,
                TaskKind::Evaluation,
            ]
        );
    }

    #[test]
    fn ab_comparison_rotates_arms() {
        let g = TaskGroup::new(
            vec![FlTask::training("a", "pop"), FlTask::training("b", "pop")],
            TaskSelectionStrategy::AbComparison {
                arms: vec![0, 1, 1],
            },
        );
        assert_eq!(g.select(0).name, "a");
        assert_eq!(g.select(1).name, "b");
        assert_eq!(g.select(2).name, "b");
        assert_eq!(g.select(3).name, "a");
    }

    #[test]
    #[should_panic(expected = "exactly one training")]
    fn alternate_strategy_validates_composition() {
        let _ = TaskGroup::new(
            vec![FlTask::training("t", "pop")],
            TaskSelectionStrategy::AlternateTrainEval { train_rounds: 1 },
        );
    }

    #[test]
    fn task_builders_set_fields() {
        let t = FlTask::training("t", "pop").with_secagg(100);
        assert_eq!(t.kind, TaskKind::Training);
        assert_eq!(t.secagg_group_size, Some(100));
    }
}
