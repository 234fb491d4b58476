//! Persistent checkpoint storage (Sec. 4.2, Fig. 1 steps 2 and 6).
//!
//! "Server reads model checkpoint from persistent storage" at round start
//! and "writes global model checkpoint into persistent storage" only after
//! full aggregation. The store's write counter lets tests assert the
//! paper's key property: *per-device updates are never persisted* — one
//! write per committed round, nothing else.

use fl_core::{CoreError, FlCheckpoint};
use fl_race::{Mutex, Site};
use std::collections::HashMap;
use std::sync::Arc;

/// The shared store's lock is a leaf: commits and audits run while
/// holding no other site (rank table in DESIGN.md §7).
const CHECKPOINT_STORE: Site = Site::new("server/storage.checkpoint_store", 50);

/// Abstract checkpoint storage.
pub trait CheckpointStore {
    /// Commits a round's fully-aggregated checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StorageFailure`] if the write did not take
    /// effect. A failed commit must leave the previously committed
    /// checkpoint intact and must not increment
    /// [`write_count`](CheckpointStore::write_count): the caller treats the round as
    /// lost and the last successful checkpoint stays authoritative.
    fn commit(&mut self, checkpoint: FlCheckpoint) -> Result<(), CoreError>;

    /// Loads the latest committed checkpoint for a task.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownTask`] if nothing was ever committed.
    fn latest(&self, task_name: &str) -> Result<FlCheckpoint, CoreError>;

    /// Number of commit operations performed (the audit counter).
    fn write_count(&self) -> u64;
}

/// In-memory store keeping the latest checkpoint per task, standing in
/// for the production system's distributed storage.
#[derive(Debug, Default)]
pub struct InMemoryCheckpointStore {
    latest: HashMap<String, FlCheckpoint>,
    writes: u64,
}

impl InMemoryCheckpointStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CheckpointStore for InMemoryCheckpointStore {
    fn commit(&mut self, checkpoint: FlCheckpoint) -> Result<(), CoreError> {
        self.writes += 1;
        self.latest.insert(checkpoint.task_name.clone(), checkpoint);
        Ok(())
    }

    fn latest(&self, task_name: &str) -> Result<FlCheckpoint, CoreError> {
        self.latest
            .get(task_name)
            .cloned()
            .ok_or_else(|| CoreError::UnknownTask(task_name.to_string()))
    }

    fn write_count(&self) -> u64 {
        self.writes
    }
}

/// A cloneable, thread-safe handle to a checkpoint store. The production
/// system's persistent storage is external to any actor (Sec. 4.2), so it
/// survives coordinator crashes; this wrapper gives the live topology the
/// same property — every clone (each coordinator incarnation, plus the
/// test harness) sees one underlying store.
#[derive(Debug, Default)]
pub struct SharedCheckpointStore<S> {
    inner: Arc<Mutex<S>>,
}

impl<S> Clone for SharedCheckpointStore<S> {
    fn clone(&self) -> Self {
        SharedCheckpointStore {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<S: CheckpointStore> SharedCheckpointStore<S> {
    /// Wraps `inner` in a shared handle.
    pub fn new(inner: S) -> Self {
        SharedCheckpointStore {
            inner: Arc::new(Mutex::new(CHECKPOINT_STORE, inner)),
        }
    }
}

impl<S: CheckpointStore> CheckpointStore for SharedCheckpointStore<S> {
    fn commit(&mut self, checkpoint: FlCheckpoint) -> Result<(), CoreError> {
        self.inner.lock().commit(checkpoint)
    }

    fn latest(&self, task_name: &str) -> Result<FlCheckpoint, CoreError> {
        self.inner.lock().latest(task_name)
    }

    fn write_count(&self) -> u64 {
        self.inner.lock().write_count()
    }
}

/// A fault-injecting wrapper over any [`CheckpointStore`]: a scripted set
/// of write attempts fail with [`CoreError::StorageFailure`] while leaving
/// the inner store untouched (the write never happened). Attempts are
/// 1-based and count *calls to `commit`*, successful or not, so a chaos
/// plan like "fail the 2nd write" replays identically from a seed.
#[derive(Debug)]
pub struct FaultyCheckpointStore<S> {
    inner: S,
    attempts: u64,
    fail_on: std::collections::BTreeSet<u64>,
}

impl<S: CheckpointStore> FaultyCheckpointStore<S> {
    /// Wraps `inner`; `fail_on` lists the 1-based commit attempts that
    /// must fail.
    pub fn new(inner: S, fail_on: impl IntoIterator<Item = u64>) -> Self {
        FaultyCheckpointStore {
            inner,
            attempts: 0,
            fail_on: fail_on.into_iter().collect(),
        }
    }
}

impl<S: CheckpointStore> CheckpointStore for FaultyCheckpointStore<S> {
    fn commit(&mut self, checkpoint: FlCheckpoint) -> Result<(), CoreError> {
        self.attempts += 1;
        if self.fail_on.contains(&self.attempts) {
            return Err(CoreError::StorageFailure(format!(
                "injected write failure on attempt {}",
                self.attempts
            )));
        }
        self.inner.commit(checkpoint)
    }

    fn latest(&self, task_name: &str) -> Result<FlCheckpoint, CoreError> {
        self.inner.latest(task_name)
    }

    fn write_count(&self) -> u64 {
        self.inner.write_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_core::RoundId;

    #[test]
    fn commit_then_latest_round_trips() {
        let mut store = InMemoryCheckpointStore::new();
        let ck = FlCheckpoint::new("t", RoundId(3), vec![1.0, 2.0]);
        store.commit(ck.clone()).unwrap();
        assert_eq!(store.latest("t").unwrap(), ck);
        assert_eq!(store.write_count(), 1);
    }

    #[test]
    fn latest_returns_most_recent() {
        let mut store = InMemoryCheckpointStore::new();
        store
            .commit(FlCheckpoint::new("t", RoundId(1), vec![1.0]))
            .unwrap();
        store
            .commit(FlCheckpoint::new("t", RoundId(2), vec![2.0]))
            .unwrap();
        assert_eq!(store.latest("t").unwrap().round, RoundId(2));
        assert_eq!(store.write_count(), 2);
    }

    #[test]
    fn unknown_task_errors() {
        let store = InMemoryCheckpointStore::new();
        assert!(matches!(
            store.latest("nope"),
            Err(CoreError::UnknownTask(_))
        ));
    }

    #[test]
    fn faulty_store_fails_scripted_attempts_without_side_effects() {
        let mut store = FaultyCheckpointStore::new(InMemoryCheckpointStore::new(), [2]);
        store
            .commit(FlCheckpoint::new("t", RoundId(1), vec![1.0]))
            .unwrap();
        let err = store
            .commit(FlCheckpoint::new("t", RoundId(2), vec![2.0]))
            .unwrap_err();
        assert!(matches!(err, CoreError::StorageFailure(_)));
        // The failed write left no trace: counter unchanged, latest intact.
        assert_eq!(store.write_count(), 1);
        assert_eq!(store.latest("t").unwrap().round, RoundId(1));
        // Attempt 3 is unscripted and succeeds.
        store
            .commit(FlCheckpoint::new("t", RoundId(2), vec![2.0]))
            .unwrap();
        assert_eq!(store.write_count(), 2);
    }

    #[test]
    fn tasks_are_isolated() {
        let mut store = InMemoryCheckpointStore::new();
        store
            .commit(FlCheckpoint::new("a", RoundId(1), vec![1.0]))
            .unwrap();
        store
            .commit(FlCheckpoint::new("b", RoundId(9), vec![2.0]))
            .unwrap();
        assert_eq!(store.latest("a").unwrap().round, RoundId(1));
        assert_eq!(store.latest("b").unwrap().round, RoundId(9));
    }
}
