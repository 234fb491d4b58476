//! Versioning, testing, and deployment gates (Sec. 7.3).
//!
//! "An FL task that has been translated into an FL plan is not accepted by
//! the server for deployment unless certain conditions are met. First, it
//! must have been built from auditable, peer reviewed code. Second, it
//! must have bundled test predicates for each FL task that pass in
//! simulation. Third, the resources consumed during testing must be within
//! a safe range of expected resources for the target population. And
//! finally, the FL task tests must pass on every version of the TensorFlow
//! runtime that the FL task claims to support, as verified by testing the
//! FL task's plan in an Android emulator."
//!
//! [`ReleaseGate::check`] enforces all four, running the real device
//! runtime ([`fl_device::FlRuntime`]) at every claimed version on the
//! correspondingly *lowered* plan (the "versioned FL plans" mechanism) and
//! requiring semantic equivalence with the unversioned plan.

use fl_core::plan::{DevicePlan, FlPlan};
use fl_core::{CoreError, FlCheckpoint, RoundId};
use fl_data::store::{InMemoryStore, StoreConfig};
use fl_device::runtime::{ExecutionOutcome, FlRuntime};
use fl_ml::Example;

/// A bundled test predicate: a named check over the simulation outcome.
pub struct TestPredicate {
    /// Predicate name (for failure reports).
    pub name: String,
    /// The check, over (loss, accuracy, update_present).
    #[allow(clippy::type_complexity)]
    pub check: Box<dyn Fn(f64, f64, bool) -> bool + Send + Sync>,
}

impl TestPredicate {
    /// Requires the simulated loss to be below a bound.
    pub fn loss_below(bound: f64) -> Self {
        TestPredicate {
            name: format!("loss < {bound}"),
            check: Box::new(move |loss, _, _| loss < bound),
        }
    }

    /// Requires the simulated accuracy to be at least a bound.
    // fl-lint: allow(test-only-pub): paper Sec. 7 model-engineer tools (DESIGN.md Sec. 3, fl-tools)
    pub fn accuracy_at_least(bound: f64) -> Self {
        TestPredicate {
            name: format!("accuracy >= {bound}"),
            check: Box::new(move |_, acc, _| acc >= bound),
        }
    }

    /// Requires a training plan to actually produce an update.
    pub fn produces_update() -> Self {
        TestPredicate {
            name: "produces update".into(),
            check: Box::new(|_, _, update| update),
        }
    }
}

/// Resource budget for the target population (gate 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceBudget {
    /// Maximum model memory in bytes (params × 4 must fit).
    pub max_model_bytes: usize,
    /// Maximum training work per round (examples × epochs).
    pub max_work_units: u64,
}

impl Default for ResourceBudget {
    fn default() -> Self {
        ResourceBudget {
            max_model_bytes: 64 << 20, // 64 MiB of parameters
            max_work_units: 1_000_000,
        }
    }
}

/// The deployment gate.
pub struct ReleaseGate {
    /// Gate 1: provenance flag (stands in for the code-review audit trail).
    pub built_from_reviewed_code: bool,
    /// Gate 2: bundled test predicates.
    pub predicates: Vec<TestPredicate>,
    /// Gate 3: resource budget.
    pub budget: ResourceBudget,
    /// Gate 4: runtime versions the task claims to support.
    pub claimed_versions: Vec<u32>,
}

/// The result of a release check.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleaseReport {
    /// Whether the plan may be deployed.
    pub accepted: bool,
    /// Human-readable failures (empty iff accepted).
    pub failures: Vec<String>,
    /// The versioned plans generated for each claimed version (present
    /// even on rejection, for debugging).
    pub versioned_plans: Vec<(u32, DevicePlan)>,
}

impl ReleaseGate {
    /// Runs all four gates against the plan using engineer-provided test
    /// data ("FL tasks are validated against engineer-provided test data
    /// and expectations, similar in nature to unit tests").
    ///
    /// # Errors
    ///
    /// Returns an error only for infrastructure failures (e.g. the test
    /// simulation itself erroring); gate *failures* are reported in the
    /// returned [`ReleaseReport`].
    pub fn check(&self, plan: &FlPlan, test_data: &[Example]) -> Result<ReleaseReport, CoreError> {
        let mut failures = Vec::new();
        let mut versioned_plans = Vec::new();

        // Gate 1: provenance.
        if !self.built_from_reviewed_code {
            failures.push("plan was not built from auditable, peer-reviewed code".into());
        }

        // Reference execution with the current runtime.
        let store = InMemoryStore::with_examples(StoreConfig::default(), test_data.to_vec(), 0);
        let init = plan.device.model.instantiate().params().to_vec();
        let checkpoint = FlCheckpoint::new("release-test", RoundId(0), init);
        let runtime = FlRuntime::new(fl_core::plan::CURRENT_RUNTIME_VERSION);
        let reference = runtime.execute(&plan.device, &checkpoint, &store, None)?;
        let (ref_update, ref_loss, ref_acc, ref_work) = match &reference {
            ExecutionOutcome::Completed {
                update_bytes,
                loss,
                accuracy,
                work_units,
                ..
            } => (update_bytes.clone(), *loss, *accuracy, *work_units),
            ExecutionOutcome::Interrupted { .. } => {
                failures.push("reference execution was interrupted".into());
                (None, f64::NAN, f64::NAN, 0)
            }
        };

        // Gate 2: test predicates in simulation.
        for p in &self.predicates {
            if !(p.check)(ref_loss, ref_acc, ref_update.is_some()) {
                failures.push(format!("test predicate failed: {}", p.name));
            }
        }

        // Gate 3: resource budget.
        let model_bytes = plan.server.expected_dim * 4;
        if model_bytes > self.budget.max_model_bytes {
            failures.push(format!(
                "model memory {model_bytes} B exceeds budget {} B",
                self.budget.max_model_bytes
            ));
        }
        if ref_work > self.budget.max_work_units {
            failures.push(format!(
                "training work {ref_work} exceeds budget {}",
                self.budget.max_work_units
            ));
        }

        // Gate 4: version matrix. Each claimed version gets a lowered
        // ("versioned") plan executed in an emulated runtime of that
        // version; results must match the unversioned plan exactly
        // ("versioned and unversioned plans must pass the same release
        // tests, and are therefore treated as semantically equivalent").
        for &version in &self.claimed_versions {
            match plan.device.lower_to_version(version) {
                Ok(lowered) => {
                    let old_runtime = FlRuntime::new(version);
                    match old_runtime.execute(&lowered, &checkpoint, &store, None) {
                        Ok(ExecutionOutcome::Completed { update_bytes, .. }) => {
                            if update_bytes != ref_update {
                                failures.push(format!(
                                    "version {version}: lowered plan diverges from reference"
                                ));
                            }
                        }
                        Ok(ExecutionOutcome::Interrupted { .. }) => {
                            failures.push(format!("version {version}: execution interrupted"));
                        }
                        Err(e) => {
                            failures.push(format!("version {version}: execution failed: {e}"));
                        }
                    }
                    versioned_plans.push((version, lowered));
                }
                Err(e) => failures.push(format!("version {version}: cannot lower plan: {e}")),
            }
        }

        Ok(ReleaseReport {
            accepted: failures.is_empty(),
            failures,
            versioned_plans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_core::plan::{CodecSpec, ModelSpec};

    fn spec() -> ModelSpec {
        ModelSpec::Logistic {
            dim: 2,
            classes: 2,
            seed: 0,
        }
    }

    fn plan() -> FlPlan {
        FlPlan::standard_training(spec(), 2, 4, 0.5, CodecSpec::Identity)
    }

    fn test_data() -> Vec<Example> {
        (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    Example::classification(vec![2.0, 0.0], 0)
                } else {
                    Example::classification(vec![0.0, 2.0], 1)
                }
            })
            .collect()
    }

    fn passing_gate() -> ReleaseGate {
        ReleaseGate {
            built_from_reviewed_code: true,
            predicates: vec![
                TestPredicate::loss_below(2.0),
                TestPredicate::produces_update(),
            ],
            budget: ResourceBudget::default(),
            claimed_versions: vec![1, 2, 3],
        }
    }

    #[test]
    fn good_plan_is_accepted_with_versioned_plans() {
        let report = passing_gate().check(&plan(), &test_data()).unwrap();
        assert!(report.accepted, "failures: {:?}", report.failures);
        assert_eq!(report.versioned_plans.len(), 3);
        // The v1 plan is actually lowered.
        let (v, lowered) = &report.versioned_plans[0];
        assert_eq!(*v, 1);
        assert_eq!(lowered.required_version(), 1);
    }

    #[test]
    fn unreviewed_code_is_rejected() {
        let mut gate = passing_gate();
        gate.built_from_reviewed_code = false;
        let report = gate.check(&plan(), &test_data()).unwrap();
        assert!(!report.accepted);
        assert!(report.failures[0].contains("peer-reviewed"));
    }

    #[test]
    fn failing_predicate_is_rejected_with_name() {
        let mut gate = passing_gate();
        gate.predicates.push(TestPredicate::accuracy_at_least(1.1)); // impossible
        let report = gate.check(&plan(), &test_data()).unwrap();
        assert!(!report.accepted);
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("accuracy >= 1.1")));
    }

    #[test]
    fn resource_hog_is_rejected() {
        let mut gate = passing_gate();
        gate.budget.max_work_units = 10; // 2 epochs × 16 examples = 32 > 10
        let report = gate.check(&plan(), &test_data()).unwrap();
        assert!(!report.accepted);
        assert!(report.failures.iter().any(|f| f.contains("work")));
    }

    #[test]
    fn oversized_model_is_rejected() {
        let mut gate = passing_gate();
        gate.budget.max_model_bytes = 4;
        let report = gate.check(&plan(), &test_data()).unwrap();
        assert!(!report.accepted);
        assert!(report.failures.iter().any(|f| f.contains("memory")));
    }

    #[test]
    fn unsupported_version_claim_is_rejected() {
        let mut gate = passing_gate();
        gate.claimed_versions = vec![0]; // below the oldest supported
        let report = gate.check(&plan(), &test_data()).unwrap();
        assert!(!report.accepted);
        assert!(report.failures.iter().any(|f| f.contains("cannot lower")));
    }
}
