//! `fl-ml` — the machine-learning substrate for the `federated` workspace.
//!
//! The production system described in *Towards Federated Learning at Scale:
//! System Design* (Bonawitz et al., SysML 2019) trains TensorFlow models on
//! device. This crate is the reproduction's stand-in for TensorFlow: a small,
//! deterministic, dependency-light ML library providing exactly what the
//! federated protocol needs —
//!
//! * [`model::Model`] — a trait for models with hand-derived gradients
//!   ([`models::linear`], [`models::logistic`], [`models::mlp`],
//!   [`models::embedding_lm`]) plus a classical [`models::ngram`] baseline,
//! * [`optim`] — SGD and the FedAvg client's weighted update (Appendix B
//!   of the paper),
//! * [`metrics`] — streaming moments and approximate order statistics
//!   (Sec. 7.4 "approximate order statistics and moments like mean"),
//! * [`compress`] — model-update compression codecs (Sec. 11 "Bandwidth"),
//! * [`fixedpoint`] — fixed-point quantization used to embed real-valued
//!   updates into the Secure Aggregation field (Sec. 6).
//!
//! Everything is deterministic given seeds, so federated experiments are
//! exactly reproducible.
//!
//! # Example
//!
//! ```
//! use fl_ml::models::logistic::LogisticRegression;
//! use fl_ml::model::{Example, Model};
//! use fl_ml::optim::{Optimizer, Sgd};
//!
//! let mut model = LogisticRegression::new(2, 2, 7);
//! let batch = vec![
//!     Example::classification(vec![1.0, 0.0], 0),
//!     Example::classification(vec![0.0, 1.0], 1),
//! ];
//! let mut opt = Sgd::new(0.5);
//! for _ in 0..100 {
//!     let (_, grad) = model.loss_and_grad(&batch).unwrap();
//!     opt.step(model.params_mut(), &grad);
//! }
//! let (loss, _) = model.loss_and_grad(&batch).unwrap();
//! assert!(loss < 0.1);
//! ```

pub mod compress;
pub mod fixedpoint;
pub mod linalg;
pub mod metrics;
pub mod model;
pub mod models;
pub mod optim;
pub mod rng;

pub use model::{Example, Label, MlError, Model};
