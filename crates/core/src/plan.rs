//! FL plans and plan versioning (Sec. 7.2, Sec. 7.3).
//!
//! "An FL plan consists of two parts: one for the device and one for the
//! server. The device portion […] contains, among other things: the
//! TensorFlow graph itself, selection criteria for training data in the
//! example store, instructions on how to batch data and how many epochs to
//! run on the device, labels for the nodes in the graph which represent
//! certain computations […]. The server part contains the aggregation
//! logic."
//!
//! Our graph stand-in is a [`ModelSpec`] (which the device runtime can
//! instantiate into an `fl_ml` model) plus an op list ([`PlanOp`]) the
//! runtime interprets. Sec. 7.3's *versioned plans* are reproduced
//! faithfully: each op carries the runtime version that introduced it, and
//! [`DevicePlan::lower_to_version`] rewrites newer ops into sequences of
//! older ones ("derived from the default (unversioned) FL plan by
//! transforming its computation graph to achieve compatibility with a
//! deployed TensorFlow version").

use crate::error::CoreError;
use fl_ml::compress::{IdentityCodec, PipelineCodec, QuantizeCodec, SubsampleCodec, UpdateCodec};
use fl_ml::models::{EmbeddingLm, LinearRegression, LogisticRegression, Mlp};
use fl_ml::Model;
use serde::{Deserialize, Serialize};

/// The newest runtime version this workspace knows about.
pub const CURRENT_RUNTIME_VERSION: u32 = 3;
/// The oldest runtime version reachable through plan transformations.
pub const OLDEST_SUPPORTED_VERSION: u32 = 1;

/// A declarative model description — the reproduction's "TensorFlow graph".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// Linear regression over `dim` features.
    Linear {
        /// Feature dimension.
        dim: usize,
    },
    /// Softmax classifier.
    Logistic {
        /// Feature dimension.
        dim: usize,
        /// Number of classes.
        classes: usize,
        /// Initialization seed.
        seed: u64,
    },
    /// One-hidden-layer MLP.
    Mlp {
        /// Feature dimension.
        dim: usize,
        /// Hidden width.
        hidden: usize,
        /// Number of classes.
        classes: usize,
        /// Initialization seed.
        seed: u64,
    },
    /// CBOW next-word predictor.
    EmbeddingLm {
        /// Vocabulary size.
        vocab: usize,
        /// Embedding dimension.
        dim: usize,
        /// Initialization seed.
        seed: u64,
    },
}

impl ModelSpec {
    /// Instantiates the model described by the spec.
    pub fn instantiate(&self) -> Box<dyn Model + Send> {
        match *self {
            ModelSpec::Linear { dim } => Box::new(LinearRegression::new(dim)),
            ModelSpec::Logistic { dim, classes, seed } => {
                Box::new(LogisticRegression::new(dim, classes, seed))
            }
            ModelSpec::Mlp {
                dim,
                hidden,
                classes,
                seed,
            } => Box::new(Mlp::new(dim, hidden, classes, seed)),
            ModelSpec::EmbeddingLm { vocab, dim, seed } => {
                Box::new(EmbeddingLm::new(vocab, dim, seed))
            }
        }
    }

    /// Number of parameters the instantiated model will have.
    pub fn num_params(&self) -> usize {
        match *self {
            ModelSpec::Linear { dim } => dim + 1,
            ModelSpec::Logistic { dim, classes, .. } => classes * dim + classes,
            ModelSpec::Mlp {
                dim,
                hidden,
                classes,
                ..
            } => hidden * dim + hidden + classes * hidden + classes,
            ModelSpec::EmbeddingLm { vocab, dim, .. } => 2 * vocab * dim + vocab,
        }
    }
}

/// A serializable description of an update-compression codec.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CodecSpec {
    /// No compression.
    Identity,
    /// Int8 block quantization.
    Quantize {
        /// Block size for per-block scales.
        block: usize,
    },
    /// Seeded random subsampling.
    Subsample {
        /// Fraction of coordinates kept.
        keep: f64,
        /// Mask seed (shared with the server).
        seed: u64,
    },
    /// Subsample then quantize.
    Pipeline {
        /// Fraction of coordinates kept.
        keep: f64,
        /// Mask seed.
        seed: u64,
        /// Quantization block size.
        block: usize,
    },
}

impl CodecSpec {
    /// Builds the codec.
    pub fn build(&self) -> Box<dyn UpdateCodec + Send + Sync> {
        match *self {
            CodecSpec::Identity => Box::new(IdentityCodec),
            CodecSpec::Quantize { block } => Box::new(QuantizeCodec::new(block)),
            CodecSpec::Subsample { keep, seed } => Box::new(SubsampleCodec::new(keep, seed)),
            CodecSpec::Pipeline { keep, seed, block } => {
                Box::new(PipelineCodec::new(keep, seed, block))
            }
        }
    }
}

/// One instruction in the device portion of a plan.
///
/// Each op records the runtime version that introduced it; see
/// [`DevicePlan::lower_to_version`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanOp {
    /// Load the global model parameters from the received checkpoint. (v1)
    LoadCheckpoint,
    /// Query the example store. (v1)
    QueryExamples {
        /// Maximum examples to use (`None` = all).
        limit: Option<usize>,
        /// Query the held-out slice (evaluation tasks).
        held_out: bool,
    },
    /// One epoch of minibatch SGD. (v1)
    TrainEpoch {
        /// Minibatch size.
        batch_size: usize,
        /// Learning rate.
        learning_rate: f32,
    },
    /// Fused multi-epoch training loop. (v3 — newer runtimes fuse the loop;
    /// lowering rewrites it into `epochs` × [`PlanOp::TrainEpoch`].)
    Train {
        /// Number of local epochs.
        epochs: usize,
        /// Minibatch size.
        batch_size: usize,
        /// Learning rate.
        learning_rate: f32,
    },
    /// Compute loss over the selected examples. (v1)
    ComputeLoss,
    /// Compute top-1 accuracy over the selected examples. (v1)
    ComputeAccuracy,
    /// Combined metrics op. (v2 — lowers to `ComputeLoss; ComputeAccuracy`.)
    ComputeMetrics,
    /// Build the weighted update `Δ = n(w − w₀)`. (v1)
    BuildUpdate,
}

impl PlanOp {
    /// The runtime version that introduced this op.
    pub fn min_version(&self) -> u32 {
        match self {
            PlanOp::Train { .. } => 3,
            PlanOp::ComputeMetrics => 2,
            _ => 1,
        }
    }

    /// Rewrites this op into semantically equivalent ops available at
    /// `version`, or `None` if no rewrite exists.
    fn lower(&self, version: u32) -> Option<Vec<PlanOp>> {
        if self.min_version() <= version {
            return Some(vec![self.clone()]);
        }
        match self {
            PlanOp::Train {
                epochs,
                batch_size,
                learning_rate,
            } => {
                // v3 fused loop → repeated v1 epochs.
                let lowered = vec![
                    PlanOp::TrainEpoch {
                        batch_size: *batch_size,
                        learning_rate: *learning_rate,
                    };
                    (*epochs).max(1)
                ];
                Some(lowered)
            }
            PlanOp::ComputeMetrics => Some(vec![PlanOp::ComputeLoss, PlanOp::ComputeAccuracy]),
            _ => None,
        }
    }
}

/// The device portion of an FL plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DevicePlan {
    /// The model to instantiate (the "TensorFlow graph").
    pub model: ModelSpec,
    /// The op sequence the runtime interprets.
    pub ops: Vec<PlanOp>,
    /// Codec for the reported update.
    pub update_codec: CodecSpec,
    /// Size of the serialized graph payload in bytes. In the production
    /// system the plan "is comparable with the global model" in size
    /// (Appendix A, Fig. 9 discussion); plan builders default this to the
    /// model's parameter byte count.
    pub graph_payload_bytes: usize,
}

impl DevicePlan {
    /// The runtime version this plan requires (max over its ops).
    pub fn required_version(&self) -> u32 {
        self.ops
            .iter()
            .map(PlanOp::min_version)
            .max()
            .unwrap_or(OLDEST_SUPPORTED_VERSION)
    }

    /// Produces a versioned plan executable by runtimes at `version`
    /// (Sec. 7.3). Ops newer than `version` are rewritten via the transform
    /// registry; the result is semantically equivalent.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnsupportedVersion`] if an op cannot be lowered
    /// to `version`.
    pub fn lower_to_version(&self, version: u32) -> Result<DevicePlan, CoreError> {
        if version < OLDEST_SUPPORTED_VERSION {
            return Err(CoreError::UnsupportedVersion {
                requested: version,
                oldest_supported: OLDEST_SUPPORTED_VERSION,
            });
        }
        let mut ops = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            // Lower repeatedly until fixed point (a v3 op may lower to v2
            // ops that themselves need lowering to v1).
            let mut pending = vec![op.clone()];
            loop {
                let mut next = Vec::with_capacity(pending.len());
                let mut changed = false;
                for p in &pending {
                    match p.lower(version) {
                        Some(replacement) => {
                            changed |= replacement.len() != 1 || replacement[0] != *p;
                            next.extend(replacement);
                        }
                        None => {
                            return Err(CoreError::UnsupportedVersion {
                                requested: version,
                                oldest_supported: OLDEST_SUPPORTED_VERSION,
                            })
                        }
                    }
                }
                pending = next;
                if !changed {
                    break;
                }
            }
            ops.extend(pending);
        }
        Ok(DevicePlan {
            model: self.model,
            ops,
            update_codec: self.update_codec,
            graph_payload_bytes: self.graph_payload_bytes,
        })
    }
}

/// The server portion of an FL plan: the aggregation logic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerPlan {
    /// Expected update dimension (must equal the model's parameter count).
    pub expected_dim: usize,
    /// Codec the server uses to decode reported updates.
    pub update_codec: CodecSpec,
}

/// A complete FL plan: device part + server part.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlPlan {
    /// The device portion.
    pub device: DevicePlan,
    /// The server portion.
    pub server: ServerPlan,
}

impl FlPlan {
    /// Builds the standard training plan for a model: load, query, train,
    /// metrics, update. This mirrors what `fl-tools`' plan generator emits;
    /// it lives here so server/device tests don't depend on the tooling
    /// crate.
    pub fn standard_training(
        model: ModelSpec,
        epochs: usize,
        batch_size: usize,
        learning_rate: f32,
        codec: CodecSpec,
    ) -> Self {
        let device = DevicePlan {
            model,
            ops: vec![
                PlanOp::LoadCheckpoint,
                PlanOp::QueryExamples {
                    limit: None,
                    held_out: false,
                },
                PlanOp::Train {
                    epochs,
                    batch_size,
                    learning_rate,
                },
                PlanOp::ComputeMetrics,
                PlanOp::BuildUpdate,
            ],
            update_codec: codec,
            graph_payload_bytes: model.num_params() * 4,
        };
        let server = ServerPlan {
            expected_dim: model.num_params(),
            update_codec: codec,
        };
        FlPlan { device, server }
    }

    /// Builds the standard evaluation plan: load, query held-out, metrics.
    pub fn standard_evaluation(model: ModelSpec) -> Self {
        let device = DevicePlan {
            model,
            ops: vec![
                PlanOp::LoadCheckpoint,
                PlanOp::QueryExamples {
                    limit: None,
                    held_out: true,
                },
                PlanOp::ComputeMetrics,
            ],
            update_codec: CodecSpec::Identity,
            graph_payload_bytes: model.num_params() * 4,
        };
        let server = ServerPlan {
            expected_dim: model.num_params(),
            update_codec: CodecSpec::Identity,
        };
        FlPlan { device, server }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ModelSpec {
        ModelSpec::Logistic {
            dim: 4,
            classes: 3,
            seed: 0,
        }
    }

    #[test]
    fn model_spec_param_counts_match_instances() {
        for s in [
            ModelSpec::Linear { dim: 7 },
            spec(),
            ModelSpec::Mlp {
                dim: 5,
                hidden: 9,
                classes: 3,
                seed: 1,
            },
            ModelSpec::EmbeddingLm {
                vocab: 20,
                dim: 4,
                seed: 2,
            },
        ] {
            assert_eq!(s.instantiate().num_params(), s.num_params());
        }
    }

    #[test]
    fn standard_training_plan_requires_v3() {
        let plan = FlPlan::standard_training(spec(), 2, 8, 0.1, CodecSpec::Identity);
        assert_eq!(plan.device.required_version(), 3);
        assert_eq!(plan.server.expected_dim, spec().num_params());
    }

    #[test]
    fn lowering_to_v1_expands_train_and_metrics() {
        let plan = FlPlan::standard_training(spec(), 3, 8, 0.1, CodecSpec::Identity);
        let lowered = plan.device.lower_to_version(1).unwrap();
        assert_eq!(lowered.required_version(), 1);
        let epochs = lowered
            .ops
            .iter()
            .filter(|op| matches!(op, PlanOp::TrainEpoch { .. }))
            .count();
        assert_eq!(epochs, 3);
        assert!(lowered.ops.contains(&PlanOp::ComputeLoss));
        assert!(lowered.ops.contains(&PlanOp::ComputeAccuracy));
        assert!(!lowered
            .ops
            .iter()
            .any(|op| matches!(op, PlanOp::Train { .. })));
    }

    #[test]
    fn lowering_to_v2_keeps_metrics_fused() {
        let plan = FlPlan::standard_training(spec(), 2, 8, 0.1, CodecSpec::Identity);
        let lowered = plan.device.lower_to_version(2).unwrap();
        assert!(lowered.ops.contains(&PlanOp::ComputeMetrics));
        assert!(!lowered
            .ops
            .iter()
            .any(|op| matches!(op, PlanOp::Train { .. })));
    }

    #[test]
    fn lowering_to_current_version_is_identity() {
        let plan = FlPlan::standard_training(spec(), 2, 8, 0.1, CodecSpec::Identity);
        let lowered = plan
            .device
            .lower_to_version(CURRENT_RUNTIME_VERSION)
            .unwrap();
        assert_eq!(lowered, plan.device);
    }

    #[test]
    fn lowering_below_v1_fails() {
        let plan = FlPlan::standard_training(spec(), 1, 8, 0.1, CodecSpec::Identity);
        assert!(matches!(
            plan.device.lower_to_version(0),
            Err(CoreError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn plan_size_is_comparable_to_model_size() {
        let plan = FlPlan::standard_training(
            ModelSpec::EmbeddingLm {
                vocab: 1000,
                dim: 16,
                seed: 0,
            },
            1,
            16,
            0.1,
            CodecSpec::Identity,
        );
        let model_bytes = plan.server.expected_dim * 4;
        let plan_bytes = plan.device.graph_payload_bytes;
        let ratio = plan_bytes as f64 / model_bytes as f64;
        assert!((0.8..1.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn codec_specs_build_working_codecs() {
        let update = vec![0.5f32; 100];
        for spec in [
            CodecSpec::Identity,
            CodecSpec::Quantize { block: 32 },
            CodecSpec::Subsample { keep: 0.5, seed: 1 },
            CodecSpec::Pipeline {
                keep: 0.5,
                seed: 1,
                block: 32,
            },
        ] {
            let codec = spec.build();
            let enc = codec.encode(&update);
            let dec = codec.decode(&enc, 100).unwrap();
            assert_eq!(dec.len(), 100);
        }
    }

    #[test]
    fn evaluation_plan_has_no_training_ops() {
        let plan = FlPlan::standard_evaluation(spec());
        assert!(!plan
            .device
            .ops
            .iter()
            .any(|op| matches!(op, PlanOp::Train { .. } | PlanOp::TrainEpoch { .. })));
        assert!(!plan
            .device
            .ops
            .iter()
            .any(|op| matches!(op, PlanOp::BuildUpdate)));
    }
}
