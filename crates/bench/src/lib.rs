//! `fl-bench` — figure/table regeneration and the four bench gates.
//!
//! Each experiment in EXPERIMENTS.md has a function here that produces the
//! corresponding figure or table as text; the `figures` binary dispatches
//! to them, and the workspace integration tests assert their qualitative
//! claims. The `bench_wire`, `bench_selector`, `bench_secagg` and
//! `bench_des` binaries are `scripts/check.sh` gates whose floors are
//! stated in [`gate`]; they print JSON on stdout and write no file. Where a hot path's speed is
//! recorded is `benchmark/` (the `layers` rows), not this crate; the
//! `e2e_floor` binary holds a short run of each `benchmark/` workload to
//! [`gate::e2e`].

pub mod fleet_experiments;
pub mod gate;
pub mod learning_experiments;
pub mod protocol_experiments;

/// Scale knob for experiments: `Quick` finishes in seconds (CI/tests),
/// `Full` approaches the paper's scales (use `--release`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small fleets / few rounds, for tests and smoke runs.
    Quick,
    /// Paper-scale parameters.
    Full,
}

impl Scale {
    /// Parses from a CLI flag.
    pub fn from_flag(quick: bool) -> Self {
        if quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}
