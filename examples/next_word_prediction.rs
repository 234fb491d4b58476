//! The Sec. 8 Gboard-style workload: next-word prediction with FedAvg,
//! compared against an n-gram baseline and a centrally trained model.
//!
//! ```text
//! cargo run --release --example next_word_prediction
//! ```
//!
//! The paper reports top-1 recall improving from 13.0% (n-gram) to 16.4%
//! (federated RNN), with the federated model matching a server-trained
//! one. This example reproduces the *shape* of that result on synthetic
//! keyboard-like text: a neural model trained with Federated Averaging on
//! non-IID per-user data beats the count-based baseline and lands within
//! noise of the same model trained centrally. It also demonstrates proxy
//! pre-training (Sec. 7.1).

use federated::core::plan::ModelSpec;
use federated::data::synth::text::{generate, TextConfig};
use federated::ml::models::ngram::NgramLm;
use federated::sim::training::{run_centralized, run_federated, TrainingRunConfig};
use federated::tools::simulate::pretrain_on_proxy;

fn main() {
    let text_config = TextConfig {
        users: 150,
        vocab: 400,
        sentences_per_user: 30,
        ..Default::default()
    };
    let data = generate(&text_config);
    println!(
        "corpus: {} users, {} on-device examples, vocab {}",
        data.users.len(),
        data.total_examples(),
        text_config.vocab
    );

    // Baseline 1: interpolated trigram LM trained on the pooled corpus.
    let mut ngram = NgramLm::with_default_lambdas(text_config.vocab);
    ngram.observe_all(data.centralized().iter()).unwrap();
    let ngram_recall = ngram.top1_recall(&data.test_set).unwrap();
    println!(
        "n-gram baseline top-1 recall:      {:>5.1}%",
        ngram_recall * 100.0
    );

    // The federated model: a CBOW next-word predictor.
    let model = ModelSpec::EmbeddingLm {
        vocab: text_config.vocab,
        dim: 16,
        seed: 11,
    };

    // Optional: pre-train on proxy data (Sec. 7.1), as production models
    // sometimes are before FL refinement.
    let pretrained = pretrain_on_proxy(model, &data.proxy_corpus, 2, 16, 0.5).unwrap();
    println!("pre-trained on {} proxy examples", data.proxy_corpus.len());
    let _ = pretrained; // the federated run below starts fresh for a clean comparison

    // Federated training.
    let config = TrainingRunConfig {
        model,
        rounds: 60,
        clients_per_round: 30,
        local_epochs: 2,
        batch_size: 16,
        learning_rate: 0.8,
        dropout_probability: 0.06,
        eval_every: 10,
        seed: 5,
        ..Default::default()
    };
    let fl = run_federated(&config, &data.users, &data.test_set).unwrap();
    println!("\nfederated convergence:");
    for p in &fl.history {
        println!(
            "  round {:>3}: top-1 recall {:>5.1}%",
            p.round,
            p.accuracy * 100.0
        );
    }
    println!(
        "FL model top-1 recall:             {:>5.1}%",
        fl.final_accuracy() * 100.0
    );

    // Baseline 2: the same model trained centrally on pooled data.
    let central =
        run_centralized(model, &data.centralized(), &data.test_set, 10, 16, 0.8, 3).unwrap();
    println!(
        "centrally trained top-1 recall:    {:>5.1}%",
        central * 100.0
    );

    println!(
        "\npaper shape check: FL ({:.1}%) > n-gram ({:.1}%), FL ≈ central ({:.1}%)",
        fl.final_accuracy() * 100.0,
        ngram_recall * 100.0,
        central * 100.0
    );
}
