//! Selector admission-path gate: ns per [`Selector::on_checkin_for`] as
//! the number of tenant populations sharing one Selector grows. Per-case
//! lines go to stderr and the JSON document to stdout; nothing is
//! written to disk, so the committed `BENCH_selector.json` is refreshed
//! by a redirect:
//!
//! ```text
//! cargo run --release -q -p fl-bench --bin bench_selector > BENCH_selector.json
//! ```
//!
//! Each case drives a fresh Selector with unique device check-ins
//! round-robined across N populations, draining held connections with
//! [`Selector::forward_devices_for`] every `drain_every` arrivals so
//! the accept path (pace loop → token bucket → per-population quota →
//! global fair-share budget → insert) dominates. The drain cadence is
//! the second axis: at 512 the held set stays small, at 8 192 it grows
//! sixteen-fold, so any per-check-in work proportional to the held set
//! shows as a slope between the two columns and its absence as a flat
//! line. The run exits non-zero when that slope passes
//! [`gate::SELECTOR_MAX_SLOPE`] at any population count.

use fl_bench::gate::{self, SelectorCase as Case, DRAIN_CADENCES};
use fl_core::{DeviceId, PopulationName};
use fl_server::pace::PaceSteering;
use fl_server::selector::{CheckinDecision, Selector};
use fl_server::shedding::{AdmissionConfig, GlobalAdmissionBudget, GlobalAdmissionConfig};
use std::time::Instant;

/// Builds a Selector tuned so nothing sheds: the token bucket refills
/// far faster than arrivals, the queue bound and quotas sit well above
/// the drained held-set size, and the global budget window is
/// effectively unbounded. Every check-in then exercises the full
/// accept path.
fn build_selector(pops: &[PopulationName], drain_every: u32) -> Selector {
    let budget = GlobalAdmissionBudget::new(GlobalAdmissionConfig {
        window_ms: 60_000,
        max_admits_per_window: 1 << 40,
    });
    let mut selector = Selector::new(PaceSteering::new(60_000, 10_000), 1_000_000, 42)
        .with_admission(AdmissionConfig {
            accepts_per_sec: 1e9,
            burst: 1_000_000,
            max_inflight: 1 << 20,
        })
        .with_global_budget(budget);
    for pop in pops {
        selector.set_population_quota(pop.clone(), drain_every as usize * 4);
    }
    selector
}

fn bench(populations: usize, drain_every: u32, iters: u32) -> Case {
    let pops: Vec<PopulationName> = (0..populations)
        .map(|i| PopulationName::new(format!("bench/pop{i}")))
        .collect();
    let mut selector = build_selector(&pops, drain_every);

    let mut accepted = 0u64;
    let start = Instant::now();
    for i in 0..iters {
        let now_ms = 1 + u64::from(i);
        let pop = &pops[i as usize % pops.len()];
        if let CheckinDecision::Accept =
            selector.on_checkin_for(pop, DeviceId(u64::from(i)), now_ms, 1.0)
        {
            accepted += 1;
        }
        if i % drain_every == drain_every - 1 {
            for pop in &pops {
                let _ = selector.forward_devices_for(pop, drain_every as usize, now_ms);
            }
        }
    }
    let checkin_ns = start.elapsed().as_nanos() as f64 / f64::from(iters);
    Case {
        populations,
        drain_every,
        iters,
        checkin_ns,
        accept_fraction: accepted as f64 / f64::from(iters),
    }
}

fn main() -> Result<(), String> {
    const ITERS: u32 = 200_000;
    const WARMUP: u32 = 10_000;

    let mut cases: Vec<Case> = Vec::new();
    for populations in [1usize, 2, 8] {
        for drain_every in DRAIN_CADENCES {
            // One warm-up pass per shape, then the measured pass — same
            // discipline as bench_wire.
            let _ = bench(populations, drain_every, WARMUP);
            let case = bench(populations, drain_every, ITERS);
            eprintln!(
                "on_checkin_for ({populations} population{}, drain every {drain_every:>5}): \
                 {:>7.1} ns/check-in, {:>5.1}% accepted",
                if populations == 1 { " " } else { "s" },
                case.checkin_ns,
                case.accept_fraction * 100.0,
            );
            cases.push(case);
        }
    }

    let rows: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                "    {{\"populations\": {}, \"drain_every\": {}, \"iters\": {}, \
                 \"checkin_ns\": {:.1}, \"accept_fraction\": {:.4}}}",
                c.populations, c.drain_every, c.iters, c.checkin_ns, c.accept_fraction,
            )
        })
        .collect();
    println!(
        "{{\n  \"bench\": \"selector_checkin\",\n  \"cases\": [\n{}\n  ]\n}}",
        rows.join(",\n")
    );

    gate::selector(&cases)
}
