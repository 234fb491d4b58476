//! The on-device example store (Sec. 3).
//!
//! "The device's first responsibility in on-device learning is to maintain
//! a repository of locally collected data for model training and evaluation.
//! Applications are responsible for making their data available to the FL
//! runtime as an *example store* by implementing an API we provide. […] We
//! recommend that applications limit the total storage footprint of their
//! example stores, and automatically remove old data after a pre-designated
//! expiration time."
//!
//! [`ExampleStore`] is that API; [`InMemoryStore`] is the provided utility
//! implementation with footprint limits and expiration. Timestamps are
//! plain `u64` milliseconds so stores work identically under the simulated
//! clock of `fl-sim` and a wall clock.

use fl_ml::Example;

/// Query issued by the FL runtime against a store, derived from the FL
/// plan's "selection criteria for training data in the example store"
/// (Sec. 7.2).
#[derive(Debug, Clone, PartialEq)]
pub struct ExampleQuery {
    /// Maximum number of examples to return (`None` = all).
    pub limit: Option<usize>,
    /// Only return examples at least this fresh (absolute ms timestamp).
    pub min_timestamp_ms: Option<u64>,
    /// Skip the newest examples to form a held-out set (used by
    /// evaluation tasks, which compute "quality metrics from held out data
    /// that wasn't used for training").
    pub held_out: bool,
    /// Fraction of the store reserved as held-out data (default 0.2).
    pub held_out_fraction: f64,
}

impl Default for ExampleQuery {
    fn default() -> Self {
        ExampleQuery {
            limit: None,
            min_timestamp_ms: None,
            held_out: false,
            held_out_fraction: 0.2,
        }
    }
}

impl ExampleQuery {
    /// Query for all training examples.
    pub fn training() -> Self {
        ExampleQuery::default()
    }

    /// Query for the held-out slice.
    pub fn evaluation() -> Self {
        ExampleQuery {
            held_out: true,
            ..ExampleQuery::default()
        }
    }
}

/// The example-store API provided to applications (Sec. 3, Fig. 2).
pub trait ExampleStore {
    /// Appends an example observed at `now_ms`.
    fn append(&mut self, example: Example, now_ms: u64);

    /// Returns examples matching the query. Training queries exclude the
    /// held-out slice; evaluation queries return only it.
    fn query(&self, query: &ExampleQuery) -> Vec<Example>;

    /// Number of stored examples.
    fn len(&self) -> usize;

    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes expired or over-budget data given the current time.
    /// Returns how many examples were evicted.
    fn prune(&mut self, now_ms: u64) -> usize;
}

/// Configuration for [`InMemoryStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Maximum total footprint in bytes (oldest evicted first).
    pub max_bytes: usize,
    /// Examples older than this are evicted on [`ExampleStore::prune`].
    pub expiration_ms: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_bytes: 4 << 20,                   // 4 MiB
            expiration_ms: 30 * 24 * 3600 * 1000, // 30 days
        }
    }
}

/// An in-memory example store with footprint limits and expiration —
/// the reproduction's analogue of the SQLite-backed stores the paper
/// suggests applications use.
#[derive(Debug, Clone, Default)]
pub struct InMemoryStore {
    config: StoreConfig,
    /// (timestamp, example), oldest first.
    entries: Vec<(u64, Example)>,
    bytes: usize,
}

impl InMemoryStore {
    /// Creates a store with the given configuration.
    pub fn new(config: StoreConfig) -> Self {
        InMemoryStore {
            config,
            entries: Vec::new(),
            bytes: 0,
        }
    }

    /// Creates a store and fills it with examples all stamped `now_ms`.
    pub fn with_examples(config: StoreConfig, examples: Vec<Example>, now_ms: u64) -> Self {
        let mut store = InMemoryStore::new(config);
        for ex in examples {
            store.append(ex, now_ms);
        }
        store
    }

    /// Current approximate footprint in bytes.
    // fl-lint: allow(test-only-pub): tests/device_behaviour.rs checks the footprint bound with it
    pub fn footprint_bytes(&self) -> usize {
        self.bytes
    }

    fn held_out_split(&self, fraction: f64) -> usize {
        let held = (self.entries.len() as f64 * fraction).round() as usize;
        self.entries.len().saturating_sub(held)
    }
}

impl ExampleStore for InMemoryStore {
    fn append(&mut self, example: Example, now_ms: u64) {
        self.bytes += example.approx_bytes();
        self.entries.push((now_ms, example));
        // Enforce the footprint limit immediately, evicting oldest first.
        while self.bytes > self.config.max_bytes && self.entries.len() > 1 {
            let (_, old) = self.entries.remove(0);
            self.bytes -= old.approx_bytes();
        }
    }

    fn query(&self, query: &ExampleQuery) -> Vec<Example> {
        let split = self.held_out_split(query.held_out_fraction);
        let slice: &[(u64, Example)] = if query.held_out {
            &self.entries[split..]
        } else {
            &self.entries[..split]
        };
        let mut out: Vec<Example> = slice
            .iter()
            .filter(|(ts, _)| query.min_timestamp_ms.is_none_or(|min| *ts >= min))
            .map(|(_, ex)| ex.clone())
            .collect();
        if let Some(limit) = query.limit {
            out.truncate(limit);
        }
        out
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn prune(&mut self, now_ms: u64) -> usize {
        let cutoff = now_ms.saturating_sub(self.config.expiration_ms);
        let before = self.entries.len();
        let mut bytes = self.bytes;
        self.entries.retain(|(ts, ex)| {
            let keep = *ts >= cutoff;
            if !keep {
                bytes -= ex.approx_bytes();
            }
            keep
        });
        self.bytes = bytes;
        before - self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ex(n: usize) -> Example {
        Example::classification(vec![0.0; n], 0)
    }

    #[test]
    fn append_and_query_round_trip() {
        let mut s = InMemoryStore::new(StoreConfig::default());
        for i in 0..10 {
            s.append(ex(4), i);
        }
        assert_eq!(s.len(), 10);
        let train = s.query(&ExampleQuery::training());
        let eval = s.query(&ExampleQuery::evaluation());
        assert_eq!(train.len(), 8); // 20% held out
        assert_eq!(eval.len(), 2);
    }

    #[test]
    fn footprint_limit_evicts_oldest() {
        let config = StoreConfig {
            max_bytes: 100,
            ..Default::default()
        };
        let mut s = InMemoryStore::new(config);
        for i in 0..20 {
            s.append(ex(4), i); // 24 bytes each
        }
        assert!(s.footprint_bytes() <= 100);
        assert!(s.len() < 20);
    }

    #[test]
    fn prune_removes_expired() {
        let config = StoreConfig {
            expiration_ms: 1000,
            ..Default::default()
        };
        let mut s = InMemoryStore::new(config);
        s.append(ex(2), 0);
        s.append(ex(2), 500);
        s.append(ex(2), 1500);
        let evicted = s.prune(2000);
        assert_eq!(evicted, 2); // ts 0 and 500 are older than 2000 - 1000
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn prune_tracks_bytes() {
        let config = StoreConfig {
            expiration_ms: 10,
            ..Default::default()
        };
        let mut s = InMemoryStore::new(config);
        s.append(ex(4), 0);
        let b = s.footprint_bytes();
        assert!(b > 0);
        s.prune(1000);
        assert_eq!(s.footprint_bytes(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn min_timestamp_filters() {
        let mut s = InMemoryStore::new(StoreConfig::default());
        for i in 0..10u64 {
            s.append(ex(1), i * 100);
        }
        let q = ExampleQuery {
            min_timestamp_ms: Some(500),
            held_out_fraction: 0.0,
            ..ExampleQuery::training()
        };
        assert_eq!(s.query(&q).len(), 5);
    }

    #[test]
    fn limit_truncates() {
        let mut s = InMemoryStore::new(StoreConfig::default());
        for i in 0..10 {
            s.append(ex(1), i);
        }
        assert_eq!(
            s.query(&ExampleQuery {
                limit: Some(3),
                ..ExampleQuery::training()
            })
            .len(),
            3
        );
    }

    #[test]
    fn held_out_and_training_are_disjoint_and_cover() {
        let mut s = InMemoryStore::new(StoreConfig::default());
        for i in 0..25 {
            s.append(Example::classification(vec![i as f32], 0), i as u64);
        }
        let train = s.query(&ExampleQuery::training());
        let eval = s.query(&ExampleQuery::evaluation());
        assert_eq!(train.len() + eval.len(), 25);
        for t in &train {
            assert!(!eval.contains(t));
        }
    }
}
