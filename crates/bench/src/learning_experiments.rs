//! Learning experiments: the Sec. 8 next-word-prediction result and the
//! Sec. 9 clients-per-round convergence claim.

use crate::Scale;
use fl_core::plan::{CodecSpec, ModelSpec};
use fl_data::synth::classification::{self, ClassificationConfig};
use fl_data::synth::text::{self, TextConfig};
use fl_ml::metrics::topk_recall;
use fl_ml::models::ngram::NgramLm;
use fl_sim::training::{run_centralized, run_federated, TrainingRunConfig};
use std::fmt::Write as _;

/// Results of the next-word-prediction experiment (Sec. 8).
#[derive(Debug, Clone)]
pub struct NwpResult {
    /// Top-1 recall of the n-gram baseline.
    pub ngram_recall: f64,
    /// Top-1 recall of the FL-trained neural model.
    pub fl_recall: f64,
    /// Top-1 recall of the centrally trained neural model.
    pub central_recall: f64,
    /// Top-3 recall of the FL model (extra diagnostic).
    pub fl_top3_recall: f64,
    /// (round, recall) convergence trajectory of the FL run.
    pub trajectory: Vec<(u64, f64)>,
}

/// Runs the next-word-prediction experiment.
///
/// Paper numbers: n-gram 13.0% → FL RNN 16.4% top-1 recall, with the FL
/// model matching a server-trained model. The reproduction checks the
/// *shape*: neural-FL beats n-gram, FL ≈ centralized.
///
/// # Panics
///
/// Panics on internal simulation errors (deterministic given the seed).
pub fn next_word_prediction(scale: Scale) -> NwpResult {
    let (text_config, rounds, clients) = match scale {
        Scale::Quick => (
            TextConfig {
                users: 80,
                vocab: 300,
                sentences_per_user: 25,
                ..Default::default()
            },
            40,
            20,
        ),
        Scale::Full => (
            TextConfig {
                users: 400,
                vocab: 1_000,
                sentences_per_user: 40,
                ..Default::default()
            },
            150,
            50,
        ),
    };
    let data = text::generate(&text_config);

    // Baseline: interpolated n-gram trained centrally on the pooled data
    // (a server-side baseline has access to whatever data the operator
    // has; we give it the same corpus so the comparison is generous).
    let mut ngram = NgramLm::with_default_lambdas(text_config.vocab);
    ngram
        .observe_all(data.centralized().iter())
        .expect("corpus is valid");
    let ngram_recall = ngram
        .top1_recall(&data.test_set)
        .expect("non-empty test set");

    // FL-trained CBOW model.
    let model = ModelSpec::EmbeddingLm {
        vocab: text_config.vocab,
        dim: 16,
        seed: 11,
    };
    let config = TrainingRunConfig {
        model,
        rounds,
        clients_per_round: clients,
        local_epochs: 2,
        batch_size: 16,
        learning_rate: 0.8,
        codec: CodecSpec::Identity,
        dropout_probability: 0.06,
        eval_every: (rounds / 8).max(1),
        seed: 5,
        ..Default::default()
    };
    let fl = run_federated(&config, &data.users, &data.test_set).expect("fl run succeeds");
    let fl_recall = fl.final_accuracy();

    // Centralized comparison: same model, pooled data.
    let central_recall = run_centralized(
        model,
        &data.centralized(),
        &data.test_set,
        (config.local_epochs as u64 * rounds * clients as u64 / text_config.users as u64)
            .clamp(3, 30) as usize,
        16,
        0.8,
        3,
    )
    .expect("centralized run succeeds");

    // Extra diagnostic: top-3 recall of the FL model.
    let mut m = model.instantiate();
    m.set_params(&fl.final_params).expect("dimensions match");
    let fl_top3_recall = topk_recall(m.as_ref(), &data.test_set, 3).expect("test set non-empty");

    NwpResult {
        ngram_recall,
        fl_recall,
        central_recall,
        fl_top3_recall,
        trajectory: fl.history.iter().map(|p| (p.round, p.accuracy)).collect(),
    }
}

/// Formats the NWP experiment results.
pub fn nwp_report(result: &NwpResult) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "=== Section 8: Next-Word Prediction (Gboard-style) ==="
    )
    .unwrap();
    writeln!(out, "{:<34} {:>8}", "model", "top-1 recall").unwrap();
    writeln!(
        out,
        "{:<34} {:>11.1}%",
        "n-gram baseline (central)",
        result.ngram_recall * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "{:<34} {:>11.1}%",
        "CBOW trained with FedAvg (FL)",
        result.fl_recall * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "{:<34} {:>11.1}%",
        "CBOW trained centrally",
        result.central_recall * 100.0
    )
    .unwrap();
    writeln!(
        out,
        "{:<34} {:>11.1}%",
        "FL model, top-3 recall",
        result.fl_top3_recall * 100.0
    )
    .unwrap();
    writeln!(out, "\nconvergence trajectory (round, recall):").unwrap();
    for (round, recall) in &result.trajectory {
        writeln!(out, "  round {round:>4}: {:.1}%", recall * 100.0).unwrap();
    }
    writeln!(out, "\npaper shape: FL beats the n-gram baseline (13.0% -> 16.4%) and matches the server-trained model").unwrap();
    out
}

/// One row of the clients-per-round sweep.
#[derive(Debug, Clone, Copy)]
pub struct KClientsPoint {
    /// Clients per round (K).
    pub clients: usize,
    /// Test accuracy after the fixed round budget.
    pub accuracy: f64,
}

/// Clients-per-round sweep (Sec. 9: "for most models receiving updates
/// from a few hundred devices per FL round is sufficient (…diminishing
/// improvements in the convergence rate from training on larger numbers
/// of devices)").
///
/// # Panics
///
/// Panics on internal simulation errors.
pub fn kclients_sweep(scale: Scale) -> Vec<KClientsPoint> {
    let (users, rounds, ks): (usize, u64, &[usize]) = match scale {
        Scale::Quick => (120, 12, &[2, 5, 10, 20, 40]),
        Scale::Full => (600, 25, &[2, 5, 10, 25, 50, 100, 200]),
    };
    let data = classification::generate(&ClassificationConfig {
        users,
        examples_per_user: 30,
        separation: 1.6,
        noise: 1.1,
        label_skew: 0.7,
        ..Default::default()
    });
    ks.iter()
        .map(|&k| {
            let config = TrainingRunConfig {
                rounds,
                clients_per_round: k,
                learning_rate: 0.15,
                local_epochs: 1,
                dropout_probability: 0.05,
                eval_every: 0,
                seed: 31,
                ..Default::default()
            };
            let report = run_federated(&config, &data.users, &data.test_set).expect("run succeeds");
            KClientsPoint {
                clients: k,
                accuracy: report.final_accuracy(),
            }
        })
        .collect()
}

/// Formats the K-clients sweep.
pub fn kclients_report(points: &[KClientsPoint]) -> String {
    let mut out = String::new();
    writeln!(out, "=== Section 9: Convergence vs Clients per Round ===").unwrap();
    writeln!(out, "{:>10} {:>12}", "K clients", "accuracy").unwrap();
    for p in points {
        writeln!(out, "{:>10} {:>11.1}%", p.clients, p.accuracy * 100.0).unwrap();
    }
    if points.len() >= 3 {
        let first_gain = points[1].accuracy - points[0].accuracy;
        let last_gain = points[points.len() - 1].accuracy - points[points.len() - 2].accuracy;
        writeln!(
            out,
            "\nmarginal gain small-K: {:+.1}pp, large-K: {:+.1}pp (paper: diminishing returns beyond a few hundred)",
            first_gain * 100.0,
            last_gain * 100.0
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nwp_shape_matches_paper() {
        let r = next_word_prediction(Scale::Quick);
        // FL neural model beats the n-gram baseline…
        assert!(
            r.fl_recall > r.ngram_recall,
            "FL {:.3} must beat ngram {:.3}",
            r.fl_recall,
            r.ngram_recall
        );
        // …and is in the centralized model's ballpark.
        assert!(
            (r.fl_recall - r.central_recall).abs() < 0.10,
            "FL {:.3} vs central {:.3}",
            r.fl_recall,
            r.central_recall
        );
        assert!(r.fl_top3_recall >= r.fl_recall);
        let report = nwp_report(&r);
        assert!(report.contains("top-1 recall"));
    }

    #[test]
    fn kclients_shows_diminishing_returns() {
        let points = kclients_sweep(Scale::Quick);
        assert_eq!(points.len(), 5);
        // More clients never hurts much…
        let first = points.first().unwrap().accuracy;
        let last = points.last().unwrap().accuracy;
        assert!(last >= first - 0.05, "K sweep degraded: {first} -> {last}");
        // …and the top end is flat: doubling K at the high end gains less
        // than the first jump.
        let early_gain = points[1].accuracy - points[0].accuracy;
        let late_gain = points[4].accuracy - points[3].accuracy;
        assert!(
            late_gain <= early_gain.max(0.02) + 0.02,
            "no diminishing returns: early {early_gain}, late {late_gain}"
        );
        let report = kclients_report(&points);
        assert!(report.contains("accuracy"));
    }
}
