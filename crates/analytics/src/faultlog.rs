//! The fault/recovery event log consumed by the chaos harness.
//!
//! Every injected fault and every observed recovery action is recorded as
//! a [`FaultLogEntry`] stamped with the DES virtual clock. The log is
//! fully deterministic — entries are appended in simulation order and
//! [`FaultLog::render`] produces a canonical text form — so two runs of
//! the same fault-plan seed must yield *byte-identical* renderings. That
//! property is what turns a chaos failure into a replayable bug report:
//! re-running the seed reproduces the exact interleaving.

/// One fault or recovery observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultLogEntry {
    /// Virtual time of the observation (ms).
    pub at_ms: u64,
    /// Short machine-readable kind, e.g. `inject.master-crash` or
    /// `recover.respawn`.
    pub kind: String,
    /// Human-readable detail (deterministic: no addresses, no wall time).
    pub detail: String,
}

/// An append-only, deterministically renderable log of faults and
/// recoveries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    entries: Vec<FaultLogEntry>,
}

impl FaultLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        FaultLog::default()
    }

    /// Appends one observation.
    pub fn record(&mut self, at_ms: u64, kind: impl Into<String>, detail: impl Into<String>) {
        self.entries.push(FaultLogEntry {
            at_ms,
            kind: kind.into(),
            detail: detail.into(),
        });
    }

    /// Entries of a given kind prefix (e.g. `inject.` or `recover.`).
    // fl-lint: allow(test-only-pub): tests/chaos_sweep.rs counts injected faults with it
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a FaultLogEntry> {
        self.entries
            .iter()
            .filter(move |e| e.kind.starts_with(prefix))
    }

    /// Canonical text rendering: one `t=<ms> <kind> <detail>` line per
    /// entry. Byte-identical across replays of the same seed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!("t={} {} {}\n", e.at_ms, e.kind, e.detail));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders_in_order() {
        let mut log = FaultLog::new();
        log.record(10, "inject.master-crash", "round 3 failed");
        log.record(12, "recover.respawn", "winner epoch=2");
        assert_eq!(log.entries.len(), 2);
        assert!(!log.entries.is_empty());
        assert_eq!(
            log.render(),
            "t=10 inject.master-crash round 3 failed\nt=12 recover.respawn winner epoch=2\n"
        );
        assert_eq!(log.with_prefix("inject.").count(), 1);
        assert_eq!(log.with_prefix("recover.").count(), 1);
    }

    #[test]
    fn rendering_is_reproducible() {
        let build = || {
            let mut log = FaultLog::new();
            for i in 0..50u64 {
                log.record(i * 7, "inject.dropout-burst", format!("k={}", i % 3));
            }
            log.render()
        };
        assert_eq!(build(), build());
    }
}
