//! Cross-commit render oracle: a digest of every seeded harness report,
//! pinned in `render_digests.txt`.
//!
//! The sweeps' own "byte-identical" checks compare two replays of the
//! *same* build, which cannot catch a refactor that shifts an RNG draw,
//! reorders an event, or moves a counter. This fixture is the same
//! comparison across commits: a change that claims to keep behaviour
//! must leave it untouched. A change that means to alter a report
//! regenerates it deliberately and says so:
//!
//! ```text
//! cargo test --test render_digests -- --ignored regenerate
//! ```

use federated::core::round::RoundConfig;
use federated::sim::chaos;
use federated::sim::fleet::{self, FleetConfig};
use federated::sim::multi::{self, MultiTenantConfig};
use federated::sim::overload::{self, OverloadConfig};
use federated::sim::scenario::ScenarioConfig;
use federated::sim::{
    explore_live_round, explore_secagg_live_round, run_chaos_with_schedule, run_wire_chaos,
    run_wire_chaos_secagg, FaultPlan,
};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// FNV-1a 64: the fixture only has to notice a changed byte, and the
/// length printed beside it makes a digest collision irrelevant.
fn digest(render: &str) -> u64 {
    render.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn line(harness: &str, seed: u64, render: &str) -> String {
    format!(
        "{harness} seed={seed} fnv1a64={:016x} bytes={}\n",
        digest(render),
        render.len()
    )
}

fn render_fixture() -> String {
    let mut out = String::from(
        "# FNV-1a 64 digest and length of each seeded report render.\n\
         # A behaviour-preserving change leaves every line as it is.\n\
         # Regenerate deliberately:\n\
         #   cargo test --test render_digests -- --ignored regenerate\n",
    );
    let plain = ScenarioConfig::chaos(None);
    for report in chaos::sweep(&chaos::default_seeds(), &plain) {
        out.push_str(&line("chaos/plain", report.seed, &report.render()));
    }
    for report in chaos::sweep(&chaos::default_secagg_seeds(), &ScenarioConfig::chaos(Some(2))) {
        out.push_str(&line("chaos/secagg", report.seed, &report.render()));
    }
    let scenarios: [(&str, fn(u64) -> OverloadConfig); 4] = [
        ("overload/thundering_herd", OverloadConfig::thundering_herd),
        ("overload/flash_crowd", OverloadConfig::flash_crowd),
        (
            "overload/secagg_flash_crowd",
            OverloadConfig::secagg_flash_crowd,
        ),
        ("overload/diurnal_ramp", OverloadConfig::diurnal_ramp),
    ];
    for (name, make) in scenarios {
        for report in overload::sweep(&overload::default_seeds(), make) {
            out.push_str(&line(name, report.seed, &report.render()));
        }
    }
    let tenancies: [(&str, fn(u64) -> MultiTenantConfig); 2] = [
        ("multi/flash_vs_steady", MultiTenantConfig::flash_vs_steady),
        ("multi/single", MultiTenantConfig::single),
    ];
    for (name, make) in tenancies {
        for report in multi::sweep(&multi::default_seeds(), make) {
            out.push_str(&line(name, report.seed, &report.render()));
        }
    }
    // The 32 fault scripts `tests/wire_chaos.rs` sweeps.
    for seed in 0..20 {
        out.push_str(&line(
            "wire_chaos/plain",
            seed,
            &run_wire_chaos(seed).render(),
        ));
    }
    for seed in 100..112 {
        out.push_str(&line(
            "wire_chaos/secagg",
            seed,
            &run_wire_chaos_secagg(seed).render(),
        ));
    }
    // A sample of the 64-schedule sweeps in `tests/schedule_explore.rs`.
    for seed in [0, 7, 31, 63] {
        out.push_str(&line(
            "explore/live_round",
            seed,
            &explore_live_round(seed).render(),
        ));
    }
    for seed in [0, 31] {
        out.push_str(&line(
            "explore/secagg_live_round",
            seed,
            &explore_secagg_live_round(seed).render(),
        ));
    }
    for (plan, schedule) in [(11, 3), (23, 17), (47, 40)] {
        out.push_str(&line(
            &format!("explore/chaos plan={plan}"),
            schedule,
            &run_chaos_with_schedule(&FaultPlan::generate(plan, plain.horizon_ms), &plain, schedule)
                .render(),
        ));
    }
    for seed in [5, 17, 42] {
        out.push_str(&line("fleet/day", seed, &fleet_render(seed)));
    }
    out
}

/// Two days of a 5 000-device fleet on the benchmark's `fleet_des` round
/// shape, goal scaled from 300 to 30 for the smaller fleet. The session
/// table is hash-ordered under `Debug`, so it is taken out and rendered
/// through its sorted `Display`; everything else is the report's `Debug`.
fn fleet_render(seed: u64) -> String {
    // The default config already carries the measured FIG9 payload sizes
    // and the 60 s check-in period the benchmark uses.
    let mut report = fleet::run(&FleetConfig {
        devices: 5_000,
        days: 2,
        round: RoundConfig {
            goal_count: 30,
            overselection: 1.3,
            min_goal_fraction: 0.7,
            selection_timeout_ms: 20 * 60_000,
            report_window_ms: 10 * 60_000,
            device_cap_ms: 8 * 60_000,
        },
        work_units: 40_000,
        failure_probability: 0.04,
        seed,
        ..FleetConfig::default()
    });
    let sessions = std::mem::take(&mut report.sessions);
    format!("{report:?}\n{sessions}")
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("render_digests.txt")
}

/// One `family/* N of M drifted` line per family with a drifted line, a
/// family being the harness name up to its first `/`, so a regeneration
/// can be checked to move only the families it names.
fn drift_by_family(expected: &str, actual: &str) -> String {
    let mut families: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (want, got) in expected.lines().zip(actual.lines()) {
        if want.starts_with('#') {
            continue;
        }
        let family = families
            .entry(want.split('/').next().unwrap_or(want))
            .or_default();
        family.0 += usize::from(want != got);
        family.1 += 1;
    }
    families
        .iter()
        .filter(|(_, (drifted, _))| *drifted > 0)
        .map(|(name, (drifted, of))| format!("{name}/* {drifted} of {of} drifted\n"))
        .collect()
}

#[test]
fn renders_match_the_committed_digests() {
    let expected = std::fs::read_to_string(fixture_path())
        .expect("render_digests.txt missing — run the ignored `regenerate` test");
    let actual = render_fixture();
    let drifted: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  committed: {want}\n  this tree: {got}"))
        .collect();
    assert!(
        drifted.is_empty() && expected.lines().count() == actual.lines().count(),
        "{} report render(s) drifted from the committed digests:\n{}{}",
        drifted.len(),
        drift_by_family(&expected, &actual),
        drifted.join("\n")
    );
}

/// Rewrites the fixture. Ignored so it never runs in a normal sweep.
#[test]
#[ignore = "rewrites the digest fixture; run deliberately with --ignored"]
fn regenerate() {
    std::fs::write(fixture_path(), render_fixture()).expect("write fixture");
}
