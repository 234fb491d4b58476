//! The FL runtime: plan interpretation (Sec. 3, *Task Execution*).
//!
//! "If the device has been selected, the FL runtime receives the FL plan,
//! queries the app's example store for data requested by the plan, and
//! computes plan-determined model updates and metrics."
//!
//! [`FlRuntime::execute`] interprets the device portion of a plan against
//! an example store: instantiate the model graph, load the checkpoint,
//! query data, run the training loop the plan describes, compute metrics,
//! and build the (codec-encoded) weighted update. Interruptions (the
//! device leaving the idle state mid-run, Sec. 3) abort execution exactly
//! as the paper describes, producing the `-v[!`-shaped sessions of
//! Table 1.

use fl_core::events::DeviceEvent;
use fl_core::plan::{DevicePlan, PlanOp};
use fl_core::{CoreError, FlCheckpoint};
use fl_data::store::{ExampleQuery, ExampleStore};
use fl_ml::linalg::argmax;
use fl_ml::model::Label;
use fl_ml::optim::{Optimizer, Sgd};
use fl_ml::{Example, Model};

/// Injected interruption: the device exits the eligible state partway
/// through plan execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interruption {
    /// Abort before executing the op at this index.
    BeforeOp(usize),
}

/// The result of executing a plan on-device.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutionOutcome {
    /// Execution finished; the report is ready.
    Completed {
        /// Codec-encoded update (`None` for evaluation plans).
        update_bytes: Option<Vec<u8>>,
        /// Update weight = number of local examples used.
        weight: u64,
        /// Mean loss over the plan's metric pass (NaN if never computed).
        loss: f64,
        /// Top-1 accuracy over the metric pass (NaN if never computed).
        accuracy: f64,
        /// Total examples processed across all training epochs — the
        /// simulator converts this to on-device compute time.
        work_units: u64,
        /// Session events contributed by execution, in order.
        events: Vec<DeviceEvent>,
    },
    /// The device was interrupted (left idle/charging, Sec. 3): resources
    /// freed, nothing reported.
    Interrupted {
        /// Index of the op that did not run.
        at_op: usize,
        /// Work done before the interruption.
        work_units: u64,
        /// Session events up to the interruption (ends with
        /// [`DeviceEvent::Interrupted`]).
        events: Vec<DeviceEvent>,
    },
}

/// The device-side FL runtime.
#[derive(Debug, Clone, Copy)]
pub struct FlRuntime {
    /// The TensorFlow-runtime-version stand-in this device ships (plans
    /// must be lowered to ≤ this version, Sec. 7.3).
    pub runtime_version: u32,
}

impl FlRuntime {
    /// Creates a runtime of the given version.
    pub fn new(runtime_version: u32) -> Self {
        FlRuntime { runtime_version }
    }

    /// Executes a device plan against the local example store.
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnsupportedVersion`] if the plan requires a newer
    ///   runtime (the server should have served a versioned plan);
    /// * [`CoreError::Ml`] on model/data mismatches (surfaces as an error
    ///   session, `*` in Table 1).
    pub fn execute(
        &self,
        plan: &DevicePlan,
        checkpoint: &FlCheckpoint,
        store: &dyn ExampleStore,
        interruption: Option<Interruption>,
    ) -> Result<ExecutionOutcome, CoreError> {
        if plan.required_version() > self.runtime_version {
            return Err(CoreError::UnsupportedVersion {
                requested: plan.required_version(),
                oldest_supported: self.runtime_version,
            });
        }
        let mut model = plan.model.instantiate();
        let mut examples: Vec<Example> = Vec::new();
        let mut w0: Vec<f32> = Vec::new();
        let mut loss = f64::NAN;
        let mut accuracy = f64::NAN;
        let mut update_bytes: Option<Vec<u8>> = None;
        let mut work_units: u64 = 0;
        let mut events: Vec<DeviceEvent> = Vec::new();
        let mut training_started = false;

        for (idx, op) in plan.ops.iter().enumerate() {
            if let Some(Interruption::BeforeOp(at)) = interruption {
                if idx == at {
                    events.push(DeviceEvent::Interrupted);
                    return Ok(ExecutionOutcome::Interrupted {
                        at_op: idx,
                        work_units,
                        events,
                    });
                }
            }
            match op {
                PlanOp::LoadCheckpoint => {
                    model.set_params(checkpoint.params())?;
                    w0 = checkpoint.params().to_vec();
                }
                PlanOp::QueryExamples { limit, held_out } => {
                    let mut q = if *held_out {
                        ExampleQuery::evaluation()
                    } else {
                        ExampleQuery::training()
                    };
                    q.limit = *limit;
                    examples = store.query(&q);
                }
                PlanOp::Train {
                    epochs,
                    batch_size,
                    learning_rate,
                } => {
                    if !training_started {
                        events.push(DeviceEvent::TrainingStarted);
                        training_started = true;
                    }
                    let mut opt = Sgd::new(*learning_rate);
                    for _ in 0..(*epochs).max(1) {
                        work_units +=
                            Self::one_epoch(model.as_mut(), &examples, *batch_size, &mut opt)?;
                    }
                }
                PlanOp::TrainEpoch {
                    batch_size,
                    learning_rate,
                } => {
                    if !training_started {
                        events.push(DeviceEvent::TrainingStarted);
                        training_started = true;
                    }
                    let mut opt = Sgd::new(*learning_rate);
                    work_units +=
                        Self::one_epoch(model.as_mut(), &examples, *batch_size, &mut opt)?;
                }
                PlanOp::ComputeLoss => {
                    if !examples.is_empty() {
                        loss = model.loss(&examples)?;
                    }
                }
                PlanOp::ComputeAccuracy => {
                    accuracy = Self::accuracy(model.as_ref(), &examples)?;
                }
                PlanOp::ComputeMetrics => {
                    if !examples.is_empty() {
                        loss = model.loss(&examples)?;
                    }
                    accuracy = Self::accuracy(model.as_ref(), &examples)?;
                }
                PlanOp::BuildUpdate => {
                    if training_started {
                        events.push(DeviceEvent::TrainingCompleted);
                        training_started = false;
                    }
                    let n = examples.len() as f32;
                    let delta: Vec<f32> = model
                        .params()
                        .iter()
                        .zip(&w0)
                        .map(|(w, w0v)| n * (w - w0v))
                        .collect();
                    update_bytes = Some(plan.update_codec.build().encode(&delta));
                }
            }
        }
        if training_started {
            events.push(DeviceEvent::TrainingCompleted);
        }
        Ok(ExecutionOutcome::Completed {
            update_bytes,
            weight: examples.len() as u64,
            loss,
            accuracy,
            work_units,
            events,
        })
    }

    fn one_epoch(
        model: &mut (dyn Model + Send),
        examples: &[Example],
        batch_size: usize,
        opt: &mut Sgd,
    ) -> Result<u64, CoreError> {
        if examples.is_empty() {
            return Ok(0);
        }
        let mut work = 0u64;
        for chunk in examples.chunks(batch_size.max(1)) {
            let (_, grad) = model.loss_and_grad(chunk)?;
            opt.step(model.params_mut(), &grad);
            work += chunk.len() as u64;
        }
        Ok(work)
    }

    fn accuracy(model: &(dyn Model + Send), examples: &[Example]) -> Result<f64, CoreError> {
        if examples.is_empty() {
            return Ok(f64::NAN);
        }
        let mut hits = 0usize;
        for ex in examples {
            let scores = model.predict(ex)?;
            let pred = argmax(&scores).unwrap_or(0);
            let hit = match ex.label() {
                Label::Class(c) => pred == c,
                Label::Token(t) => pred as u32 == t,
                Label::Real(_) => false,
            };
            if hit {
                hits += 1;
            }
        }
        Ok(hits as f64 / examples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
    use fl_core::RoundId;
    use fl_data::store::{InMemoryStore, StoreConfig};

    fn spec() -> ModelSpec {
        ModelSpec::Logistic {
            dim: 2,
            classes: 2,
            seed: 0,
        }
    }

    fn store_with(n: usize) -> InMemoryStore {
        let examples: Vec<Example> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    Example::classification(vec![2.0, 0.0], 0)
                } else {
                    Example::classification(vec![0.0, 2.0], 1)
                }
            })
            .collect();
        InMemoryStore::with_examples(StoreConfig::default(), examples, 0)
    }

    fn checkpoint() -> FlCheckpoint {
        FlCheckpoint::new("t", RoundId(0), vec![0.0; spec().num_params()])
    }

    #[test]
    fn training_plan_produces_a_real_update() {
        let plan = FlPlan::standard_training(spec(), 2, 4, 0.5, CodecSpec::Identity);
        let runtime = FlRuntime::new(3);
        let outcome = runtime
            .execute(&plan.device, &checkpoint(), &store_with(20), None)
            .unwrap();
        match outcome {
            ExecutionOutcome::Completed {
                update_bytes,
                weight,
                loss,
                accuracy,
                work_units,
                events,
            } => {
                let bytes = update_bytes.expect("training produces an update");
                let delta = CodecSpec::Identity
                    .build()
                    .decode(&bytes, spec().num_params())
                    .unwrap();
                assert!(delta.iter().any(|d| d.abs() > 1e-4), "update is non-zero");
                assert_eq!(weight, 16); // 20 examples, 20% held out
                assert!(loss.is_finite());
                assert!(accuracy >= 0.0);
                assert_eq!(work_units, 2 * 16); // 2 epochs over 16 examples
                assert_eq!(
                    events,
                    vec![DeviceEvent::TrainingStarted, DeviceEvent::TrainingCompleted]
                );
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn evaluation_plan_has_metrics_but_no_update() {
        let plan = FlPlan::standard_evaluation(spec());
        let runtime = FlRuntime::new(3);
        let outcome = runtime
            .execute(&plan.device, &checkpoint(), &store_with(20), None)
            .unwrap();
        match outcome {
            ExecutionOutcome::Completed {
                update_bytes,
                accuracy,
                events,
                ..
            } => {
                assert!(update_bytes.is_none());
                assert!(accuracy.is_finite());
                assert!(events.is_empty()); // no training events
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn lowered_plan_produces_equivalent_update() {
        // Sec. 7.3: "Versioned and unversioned plans must pass the same
        // release tests, and are therefore treated as semantically
        // equivalent."
        let plan = FlPlan::standard_training(spec(), 3, 4, 0.5, CodecSpec::Identity);
        let lowered = plan.device.lower_to_version(1).unwrap();
        let store = store_with(20);
        let modern = FlRuntime::new(3)
            .execute(&plan.device, &checkpoint(), &store, None)
            .unwrap();
        let legacy = FlRuntime::new(1)
            .execute(&lowered, &checkpoint(), &store, None)
            .unwrap();
        let get_update = |o: &ExecutionOutcome| match o {
            ExecutionOutcome::Completed { update_bytes, .. } => update_bytes.clone().unwrap(),
            _ => panic!("expected completion"),
        };
        assert_eq!(get_update(&modern), get_update(&legacy));
    }

    #[test]
    fn old_runtime_rejects_new_plan() {
        let plan = FlPlan::standard_training(spec(), 1, 4, 0.5, CodecSpec::Identity);
        let runtime = FlRuntime::new(1); // too old for the fused Train op
        assert!(matches!(
            runtime.execute(&plan.device, &checkpoint(), &store_with(4), None),
            Err(CoreError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn interruption_yields_table_1_shape() {
        let plan = FlPlan::standard_training(spec(), 1, 4, 0.5, CodecSpec::Identity);
        let runtime = FlRuntime::new(3);
        // Interrupt before op 3 (ComputeMetrics), i.e. right after training
        // starts... actually before the Train op completes the plan: ops are
        // [Load, Query, Train, Metrics, BuildUpdate]; interrupt before 3.
        let outcome = runtime
            .execute(
                &plan.device,
                &checkpoint(),
                &store_with(20),
                Some(Interruption::BeforeOp(3)),
            )
            .unwrap();
        match outcome {
            ExecutionOutcome::Interrupted { at_op, events, .. } => {
                assert_eq!(at_op, 3);
                assert_eq!(
                    events,
                    vec![DeviceEvent::TrainingStarted, DeviceEvent::Interrupted]
                );
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn wrong_dimension_checkpoint_errors() {
        let plan = FlPlan::standard_training(spec(), 1, 4, 0.5, CodecSpec::Identity);
        let bad = FlCheckpoint::new("t", RoundId(0), vec![0.0; 3]);
        let runtime = FlRuntime::new(3);
        assert!(matches!(
            runtime.execute(&plan.device, &bad, &store_with(4), None),
            Err(CoreError::Ml(_))
        ));
    }

    #[test]
    fn empty_store_completes_with_zero_weight() {
        let plan = FlPlan::standard_training(spec(), 1, 4, 0.5, CodecSpec::Identity);
        let empty = InMemoryStore::new(StoreConfig::default());
        let outcome = FlRuntime::new(3)
            .execute(&plan.device, &checkpoint(), &empty, None)
            .unwrap();
        match outcome {
            ExecutionOutcome::Completed {
                weight, work_units, ..
            } => {
                assert_eq!(weight, 0);
                assert_eq!(work_units, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quantized_update_decodes_close_to_identity() {
        let q = FlPlan::standard_training(spec(), 2, 4, 0.5, CodecSpec::Quantize { block: 8 });
        let id = FlPlan::standard_training(spec(), 2, 4, 0.5, CodecSpec::Identity);
        let store = store_with(20);
        let run = |plan: &FlPlan, codec: CodecSpec| -> Vec<f32> {
            match FlRuntime::new(3)
                .execute(&plan.device, &checkpoint(), &store, None)
                .unwrap()
            {
                ExecutionOutcome::Completed { update_bytes, .. } => codec
                    .build()
                    .decode(&update_bytes.unwrap(), spec().num_params())
                    .unwrap(),
                _ => panic!(),
            }
        };
        let exact = run(&id, CodecSpec::Identity);
        let quant = run(&q, CodecSpec::Quantize { block: 8 });
        for (a, b) in exact.iter().zip(&quant) {
            assert!((a - b).abs() < 0.05 * (a.abs().max(1.0)), "{a} vs {b}");
        }
    }
}
