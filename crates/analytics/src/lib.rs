//! `fl-analytics` — the analytics layer (Sec. 5).
//!
//! "We rely on analytics to understand what is actually going on in the
//! field, and monitor devices' health statistics. […] These log entries do
//! not contain any personally identifiable information. They are
//! aggregated and presented in dashboards to be analyzed, and fed into
//! automatic time-series monitors that trigger alerts on substantial
//! deviations."
//!
//! * [`timeseries`] — windowed counters and rate series;
//! * [`sessions`] — session-shape aggregation (Table 1) from device event
//!   logs;
//! * [`monitor`] — deviation monitors (z-score alerts over sliding
//!   windows);
//! * [`overload`] — accept/shed/retry telemetry for the flow-control loop
//!   (Sec. 2.3), with deviation and absolute-ceiling alerts on the
//!   per-bucket shed fraction;
//! * [`dashboard`] — ASCII chart rendering for terminal dashboards (the
//!   `figures` binary uses this to draw Figs. 5–9);
//! * [`faultlog`] — the deterministic fault/recovery event log written by
//!   the chaos harness (replayable byte-for-byte from a seed).
//!
//! Bytes on the wire are not aggregated here: every transport endpoint
//! counts its own frames and bytes in an [`fl_wire::WireStats`], and a
//! caller sums endpoints with its `Add`.

// Release-gate lints of this crate (DESIGN.md Sec. 7).
#![deny(
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr
)]

pub mod dashboard;
pub mod faultlog;
pub mod monitor;
pub mod overload;
pub mod sessions;
pub mod timeseries;

pub use faultlog::{FaultLog, FaultLogEntry};
pub use monitor::{Alert, DeviationMonitor};
pub use overload::{OverloadMetrics, OverloadMonitorConfig};
pub use sessions::SessionShapeTable;
pub use timeseries::TimeSeries;
