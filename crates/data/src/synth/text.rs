//! Topic-clustered Markov text for next-word prediction (Sec. 8).
//!
//! The generator has a *cluster-level* ground truth: every token belongs to
//! one of `clusters` topics, and the distribution of the next token depends
//! on the cluster of the immediately preceding token, not its identity.
//! Within the target cluster, tokens are drawn from a Zipf distribution.
//!
//! That structure is what gives the neural CBOW model its paper-shaped edge
//! over the n-gram baseline: the n-gram must observe each exact `(w₁,w₂)`
//! context to predict well, while an embedding model can generalize across
//! tokens of the same cluster — mirroring why the Gboard RNN beats the
//! n-gram (top-1 recall 13.0% → 16.4%) on sparse long-tail contexts.
//!
//! Users are non-IID: each user has a preferred topic mixture. A *proxy
//! corpus* (Sec. 7.1) is produced by re-sampling with a perturbed topic
//! prior — "similar in shape […] but drawn from a different distribution".

use fl_ml::rng;
use fl_ml::Example;
use rand::rngs::StdRng;
use rand::RngExt;

/// Configuration for the text generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TextConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Number of topic clusters.
    pub clusters: usize,
    /// Probability the next token follows the cluster transition rule
    /// (the remainder is uniform noise).
    pub coherence: f64,
    /// Number of users.
    pub users: usize,
    /// Sentences per user (mean; varies ±50%).
    pub sentences_per_user: usize,
    /// Tokens per sentence.
    pub sentence_len: usize,
    /// Topics each user prefers.
    pub topics_per_user: usize,
    /// Zipf exponent for within-cluster token frequencies.
    pub zipf_exponent: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for TextConfig {
    fn default() -> Self {
        TextConfig {
            vocab: 500,
            clusters: 10,
            coherence: 0.85,
            users: 100,
            sentences_per_user: 30,
            sentence_len: 12,
            topics_per_user: 3,
            zipf_exponent: 1.1,
            seed: 7,
        }
    }
}

/// The generated federated text dataset.
#[derive(Debug, Clone)]
pub struct FederatedText {
    /// Per-user next-token examples (context window of 2).
    pub users: Vec<Vec<Example>>,
    /// Held-out IID test examples drawn from the global distribution.
    pub test_set: Vec<Example>,
    /// A distribution-shifted proxy corpus (centralized, Sec. 7.1).
    pub proxy_corpus: Vec<Example>,
    /// The configuration that produced the data.
    pub config: TextConfig,
}

impl FederatedText {
    /// Total number of training examples across users.
    pub fn total_examples(&self) -> usize {
        self.users.iter().map(Vec::len).sum()
    }

    /// All on-device examples flattened (for the centralized comparison of
    /// Sec. 8: "matches the performance of a server-trained" model).
    pub fn centralized(&self) -> Vec<Example> {
        self.users.iter().flatten().cloned().collect()
    }
}

/// The ground-truth language source: cluster transition table + Zipf
/// within-cluster token distributions.
#[derive(Debug, Clone)]
struct Source {
    config: TextConfig,
    /// For each cluster of the preceding token, the favored next cluster.
    transition: Vec<usize>,
    /// Cumulative Zipf weights for within-cluster rank sampling.
    zipf_cdf: Vec<f64>,
}

impl Source {
    fn new(config: &TextConfig) -> Self {
        let mut rng = rng::seeded_stream(config.seed, 0xC0FFEE);
        // A derangement-ish permutation keeps transitions informative
        // (every cluster maps somewhere specific).
        let transition = (0..config.clusters)
            .map(|_| rng.random_range(0..config.clusters))
            .collect();
        let per_cluster = config.vocab / config.clusters;
        let mut zipf_cdf = Vec::with_capacity(per_cluster.max(1));
        let mut acc = 0.0;
        for rank in 0..per_cluster.max(1) {
            acc += 1.0 / ((rank + 1) as f64).powf(config.zipf_exponent);
            zipf_cdf.push(acc);
        }
        Source {
            config: *config,
            transition,
            zipf_cdf,
        }
    }

    fn cluster_of(&self, token: u32) -> usize {
        token as usize % self.config.clusters
    }

    /// Samples a token from a cluster (Zipf over the cluster's members).
    fn token_in_cluster(&self, cluster: usize, rng: &mut StdRng) -> u32 {
        let total = *self.zipf_cdf.last().unwrap();
        let target = rng.random::<f64>() * total;
        let rank = self
            .zipf_cdf
            .iter()
            .position(|&c| c >= target)
            .unwrap_or(self.zipf_cdf.len() - 1);
        // Token ids for a cluster are {cluster, cluster + C, cluster + 2C, …}.
        (cluster + rank * self.config.clusters) as u32 % self.config.vocab as u32
    }

    /// Samples the next token given the preceding tokens (first-order in
    /// the cluster space: the last token's cluster determines the favored
    /// next cluster).
    fn next(&self, _w1: u32, w2: u32, rng: &mut StdRng) -> u32 {
        if rng.random::<f64>() < self.config.coherence {
            let c = self.transition[self.cluster_of(w2)];
            self.token_in_cluster(c, rng)
        } else {
            rng.random_range(0..self.config.vocab as u32)
        }
    }

    /// Generates one sentence starting from the given topic set, returning
    /// next-token examples with a context window of 2.
    fn sentence(&self, topics: &[usize], rng: &mut StdRng) -> Vec<Example> {
        let start_topic = topics[rng.random_range(0..topics.len())];
        let mut w1 = self.token_in_cluster(start_topic, rng);
        let mut w2 = self.token_in_cluster(self.cluster_of(w1), rng);
        let mut out = Vec::with_capacity(self.config.sentence_len);
        for _ in 0..self.config.sentence_len {
            let next = self.next(w1, w2, rng);
            out.push(Example::next_token(vec![w1, w2], next));
            w1 = w2;
            w2 = next;
        }
        out
    }
}

/// Generates the federated text dataset.
///
/// # Panics
///
/// Panics on degenerate configurations (zero counts, more topics per user
/// than clusters, vocabulary smaller than cluster count).
pub fn generate(config: &TextConfig) -> FederatedText {
    assert!(config.vocab >= config.clusters && config.clusters > 0);
    assert!(config.topics_per_user > 0 && config.topics_per_user <= config.clusters);
    assert!(config.users > 0 && config.sentences_per_user > 0 && config.sentence_len > 0);
    let source = Source::new(config);

    let mut users = Vec::with_capacity(config.users);
    for u in 0..config.users {
        let mut rng = rng::seeded_stream(config.seed, 1 + u as u64);
        // Preferred topics: a random subset.
        let topics = rng::reservoir_sample(&mut rng, config.clusters, config.topics_per_user);
        let count = ((config.sentences_per_user as f64) * (0.5 + rng.random::<f64>()))
            .round()
            .max(1.0) as usize;
        let mut data = Vec::new();
        for _ in 0..count {
            data.extend(source.sentence(&topics, &mut rng));
        }
        users.push(data);
    }

    // Global test set: all topics equally likely.
    let all_topics: Vec<usize> = (0..config.clusters).collect();
    let mut test_rng = rng::seeded_stream(config.seed, 0xDEAD);
    let mut test_set = Vec::new();
    while test_set.len() < 2000 {
        test_set.extend(source.sentence(&all_topics, &mut test_rng));
    }
    test_set.truncate(2000);

    // Proxy corpus (Sec. 7.1): "similar in shape […] but drawn from a
    // different distribution". Same vocabulary and underlying structure,
    // but much noisier (lower coherence — think Wikipedia text as proxy
    // for keyboard text) and with a narrowed topic prior.
    let proxy_source = Source::new(&TextConfig {
        coherence: config.coherence * 0.55,
        ..*config
    });
    let proxy_topics: Vec<usize> = vec![0, 1 % config.clusters];
    let mut proxy_rng = rng::seeded_stream(config.seed, 0xBEEF);
    let mut proxy_corpus = Vec::new();
    while proxy_corpus.len() < 4000 {
        proxy_corpus.extend(proxy_source.sentence(&proxy_topics, &mut proxy_rng));
    }
    proxy_corpus.truncate(4000);

    FederatedText {
        users,
        test_set,
        proxy_corpus,
        config: *config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_valid_examples() {
        let data = generate(&TextConfig::default());
        assert_eq!(data.users.len(), 100);
        assert_eq!(data.test_set.len(), 2000);
        assert_eq!(data.proxy_corpus.len(), 4000);
        for ex in data.users.iter().flatten().chain(&data.test_set) {
            if let Example::NextToken { context, next } = ex {
                assert_eq!(context.len(), 2);
                assert!(context.iter().all(|&t| t < 500));
                assert!(*next < 500);
            } else {
                panic!("wrong example kind");
            }
        }
    }

    #[test]
    fn is_deterministic() {
        let a = generate(&TextConfig::default());
        let b = generate(&TextConfig::default());
        assert_eq!(a.users[3], b.users[3]);
        assert_eq!(a.test_set, b.test_set);
    }

    #[test]
    fn coherent_text_is_predictable_by_ngram() {
        use fl_ml::models::ngram::NgramLm;
        let config = TextConfig {
            users: 50,
            coherence: 0.95,
            ..Default::default()
        };
        let data = generate(&config);
        let mut lm = NgramLm::with_default_lambdas(config.vocab);
        lm.observe_all(data.centralized().iter()).unwrap();
        let recall = lm.top1_recall(&data.test_set).unwrap();
        // Far above the 1/500 random baseline.
        assert!(recall > 0.05, "recall {recall}");
    }

    #[test]
    fn incoherent_text_is_not_predictable() {
        use fl_ml::models::ngram::NgramLm;
        let config = TextConfig {
            users: 20,
            coherence: 0.0,
            ..Default::default()
        };
        let data = generate(&config);
        let mut lm = NgramLm::with_default_lambdas(config.vocab);
        lm.observe_all(data.centralized().iter()).unwrap();
        let recall = lm.top1_recall(&data.test_set).unwrap();
        assert!(recall < 0.05, "recall {recall}");
    }

    #[test]
    fn proxy_corpus_differs_from_device_distribution() {
        let data = generate(&TextConfig::default());
        // Compare cluster histograms of proxy vs test set.
        let hist = |exs: &[Example]| {
            let mut h = [0.0f64; 10];
            for ex in exs {
                if let Example::NextToken { next, .. } = ex {
                    h[*next as usize % 10] += 1.0;
                }
            }
            let total: f64 = h.iter().sum();
            h.iter().map(|v| v / total).collect::<Vec<_>>()
        };
        let hp = hist(&data.proxy_corpus);
        let ht = hist(&data.test_set);
        let tv: f64 = hp.iter().zip(&ht).map(|(a, b)| (a - b).abs()).sum::<f64>() / 2.0;
        assert!(tv > 0.1, "total variation {tv}");
    }

    #[test]
    fn users_have_distinct_topic_profiles() {
        let data = generate(&TextConfig::default());
        let profile = |exs: &[Example]| {
            let mut h = vec![0usize; 10];
            for ex in exs {
                if let Example::NextToken { context, .. } = ex {
                    h[context[0] as usize % 10] += 1;
                }
            }
            h
        };
        let p0 = profile(&data.users[0]);
        let p1 = profile(&data.users[1]);
        assert_ne!(p0, p1);
    }
}
