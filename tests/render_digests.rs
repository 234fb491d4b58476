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
use federated::sim::fleet::{self, FleetConfig};
use federated::sim::scenario::{self, ScenarioConfig};
use federated::sim::{chaos, live, multi, overload};
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

/// A family of engine runs: its name, its config per seed, its seeds.
type EngineFamily = (&'static str, fn(u64) -> ScenarioConfig, Vec<u64>);

fn render_fixture() -> String {
    let mut out = String::from(
        "# FNV-1a 64 digest and length of each seeded report render.\n\
         # A behaviour-preserving change leaves every line as it is.\n\
         # Regenerate deliberately:\n\
         #   cargo test --test render_digests -- --ignored regenerate\n",
    );
    let engine_configs: [EngineFamily; 8] = [
        (
            "chaos/plain",
            |seed| ScenarioConfig::chaos_seed(None, seed),
            chaos::default_seeds(),
        ),
        (
            "chaos/secagg",
            |seed| ScenarioConfig::chaos_seed(Some(2), seed),
            chaos::default_secagg_seeds(),
        ),
        (
            "overload/thundering_herd",
            ScenarioConfig::thundering_herd,
            overload::default_seeds(),
        ),
        (
            "overload/flash_crowd",
            ScenarioConfig::flash_crowd,
            overload::default_seeds(),
        ),
        (
            "overload/secagg_flash_crowd",
            ScenarioConfig::secagg_flash_crowd,
            overload::default_seeds(),
        ),
        (
            "overload/diurnal_ramp",
            ScenarioConfig::diurnal_ramp,
            overload::default_seeds(),
        ),
        (
            "multi/flash_vs_steady",
            ScenarioConfig::flash_vs_steady,
            multi::default_seeds(),
        ),
        (
            "multi/single",
            ScenarioConfig::single,
            multi::default_seeds(),
        ),
    ];
    for (name, make, seeds) in engine_configs {
        for seed in seeds {
            out.push_str(&line(name, seed, &scenario::run(&make(seed)).render()));
        }
    }
    // The live harness: the 32 fault scripts `tests/wire_chaos.rs` sweeps,
    // then a sample of the 64-schedule sweeps in `tests/schedule_explore.rs`.
    for (name, seeds, wire, secagg) in [
        ("live/wire", (0..20).collect(), true, false),
        ("live/wire_secagg", (100..112).collect(), true, true),
        ("live/schedule", vec![0, 7, 31, 63], false, false),
        ("live/schedule_secagg", vec![0, 31], false, true),
    ] {
        for seed in seeds {
            let report = if wire {
                live::run(Some(seed), 0, secagg)
            } else {
                live::run(None, seed, secagg)
            };
            out.push_str(&line(name, seed, &report.render()));
        }
    }
    for (plan, schedule) in [(11, 3), (23, 17), (47, 40)] {
        out.push_str(&line(
            &format!("explore/chaos plan={plan}"),
            schedule,
            &scenario::run_with_schedule(&ScenarioConfig::chaos_seed(None, plan), schedule)
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
