//! The bench gates of `scripts/check.sh`: what each `bench_*` binary
//! measures per case and the one floor its run must clear, and the floor
//! under a short run of each `benchmark/` workload. The verdicts are pure
//! functions of what was measured, so a regressed case and the committed
//! `BENCH_*.json` rows can be fed to them in tests: a gate that stops
//! gating fails `cargo test -p fl-bench`.

/// One `bench_wire` case: `UpdateReport` encode/decode at one size.
pub struct WireCase {
    /// f32 parameters in the update.
    pub params: usize,
    /// Bytes in the encoded frame.
    pub frame_bytes: usize,
    /// Frames timed each way.
    pub iters: u32,
    /// Mean encode time.
    pub encode_ns_per_frame: f64,
    /// Frame bytes encoded per second.
    pub encode_mb_per_s: f64,
    /// Mean decode time.
    pub decode_ns_per_frame: f64,
    /// Frame bytes decoded per second.
    pub decode_mb_per_s: f64,
}

/// Floor for the largest `bench_wire` case (1M parameters), both ways.
/// The word-at-a-time digests of v4 and v5 run several times above it;
/// the byte-serial v3 digest ran at under half of it (686-688 MB/s, the
/// `before` rows `BENCH_wire.json` kept until v5).
pub const WIRE_FLOOR_MB_PER_S: f64 = 1_500.0;

/// `bench_wire`'s verdict: the largest case encodes and decodes at
/// [`WIRE_FLOOR_MB_PER_S`] or better.
pub fn wire(cases: &[WireCase]) -> Result<(), String> {
    let largest = cases.last().ok_or("no case was measured")?;
    let slowest = largest.encode_mb_per_s.min(largest.decode_mb_per_s);
    if slowest < WIRE_FLOOR_MB_PER_S {
        return Err(format!(
            "{} params moved at {slowest:.1} MB/s, under the {WIRE_FLOOR_MB_PER_S} MB/s floor",
            largest.params
        ));
    }
    Ok(())
}

/// `bench_wire`'s digest row, as far as its gate reads it: the frame
/// digest on a 1 MiB buffer, dispatched and as its portable build.
pub struct DigestRow {
    /// The CPU has AVX2, so the dispatch picks a vector build.
    pub avx2: bool,
    /// `fl_wire::checksum` throughput.
    pub dispatched_gb_per_s: f64,
    /// `fl_wire::checksum_portable` throughput.
    pub portable_gb_per_s: f64,
}

/// The dispatched 1 MiB digest's required advantage over the portable
/// build on a CPU with AVX2. The AVX2 build reads ~2x and the AVX-512
/// one 4-6x; a lost `#[target_feature]` reads ~1x.
pub const DIGEST_MIN_SPEEDUP: f64 = 1.5;

/// `bench_wire`'s digest verdict: where the CPU has AVX2, the dispatched
/// digest runs at least [`DIGEST_MIN_SPEEDUP`] times the portable build.
pub fn digest(row: &DigestRow) -> Result<(), String> {
    if row.avx2 && row.dispatched_gb_per_s < DIGEST_MIN_SPEEDUP * row.portable_gb_per_s {
        return Err(format!(
            "the dispatched 1 MiB digest ran at {:.1} GB/s against the portable build's {:.1}, \
             under the {DIGEST_MIN_SPEEDUP}x an AVX2 CPU must reach",
            row.dispatched_gb_per_s, row.portable_gb_per_s
        ));
    }
    Ok(())
}

/// `bench_wire`'s `configuration_tcp` row: ten Configurations of one
/// `round_plain_tcp`-sized plan down one loopback connection.
pub struct ConfigurationTcp {
    /// Parameters of the model (and of the plan's graph payload).
    pub model_params: usize,
    /// Bytes of the first Configuration, which carries the plan.
    pub full_bytes: usize,
    /// Bytes of the last one, sent to a connection that holds the plan.
    pub warm_bytes: usize,
    /// The encoded checkpoint's size.
    pub checkpoint_bytes: usize,
    /// The population name's length.
    pub population_bytes: usize,
    /// Best pass's time per Configuration, send and decode.
    pub ns_per_device: f64,
}

/// What a warm Configuration carries besides its checkpoint and
/// population name: header (8), plan digest (8), the checkpoint's length
/// (4), the name's length (2) and trailer (8).
pub const CONFIGURATION_ENVELOPE: usize = 30;

/// `bench_wire`'s `configuration_tcp` verdict: a warm Configuration is no
/// more than its checkpoint, population and [`CONFIGURATION_ENVELOPE`], so
/// the connection did not carry the plan again.
pub fn configuration_tcp(row: &ConfigurationTcp) -> Result<(), String> {
    let most = row.checkpoint_bytes + row.population_bytes + CONFIGURATION_ENVELOPE;
    if row.warm_bytes > most {
        return Err(format!(
            "a warm Configuration of {} params took {} B, over the {most} B of its checkpoint, \
             population and envelope: the connection carried the plan again",
            row.model_params, row.warm_bytes
        ));
    }
    Ok(())
}

/// One `bench_selector` case: the accept path at one population count
/// and one drain cadence.
pub struct SelectorCase {
    /// Populations sharing the Selector.
    pub populations: usize,
    /// Check-ins between drains of the held set.
    pub drain_every: u32,
    /// Check-ins timed.
    pub iters: u32,
    /// Mean time per check-in.
    pub checkin_ns: f64,
    /// Share of check-ins accepted.
    pub accept_fraction: f64,
}

/// Drain cadences `bench_selector` measures: a small and a sixteen-fold
/// larger held set.
pub const DRAIN_CADENCES: [u32; 2] = [512, 8_192];

/// Ceiling on ns per check-in at the large held set over the small one.
/// The admission path reads 1.35-1.54x; a scan of the held set on every
/// check-in read 9-13x.
pub const SELECTOR_MAX_SLOPE: f64 = 4.0;

/// `bench_selector`'s verdict: every case timed the accept path, and at
/// each population count the large-held-set case costs at most
/// [`SELECTOR_MAX_SLOPE`] times the small one.
pub fn selector(cases: &[SelectorCase]) -> Result<(), String> {
    if let Some(shed) = cases.iter().find(|c| c.accept_fraction <= 0.99) {
        return Err(format!(
            "{} populations, drain every {}: timed shedding, not the accept path",
            shed.populations, shed.drain_every
        ));
    }
    let [small, large] = DRAIN_CADENCES;
    for held_few in cases.iter().filter(|c| c.drain_every == small) {
        let populations = held_few.populations;
        let held_many = cases
            .iter()
            .find(|c| c.populations == populations && c.drain_every == large)
            .ok_or(format!(
                "{populations} populations: no drain-every-{large} case"
            ))?;
        let slope = held_many.checkin_ns / held_few.checkin_ns;
        if slope > SELECTOR_MAX_SLOPE {
            return Err(format!(
                "{populations} populations: {:.1} ns per check-in at drain every {large} is \
                 {slope:.1}x the {:.1} ns at {small}, over the {SELECTOR_MAX_SLOPE}x ceiling",
                held_many.checkin_ns, held_few.checkin_ns
            ));
        }
    }
    Ok(())
}

/// One `bench_secagg` case: a cohort finalized as one SecAgg group and
/// as fixed-size groups.
pub struct SecAggCase {
    /// Devices in the cohort.
    pub devices: usize,
    /// Finalize time with every device in one group.
    pub single_group_ms: f64,
    /// Finalize time split into fixed groups.
    pub sharded_ms: f64,
}

/// The sharded layout's required advantage at the largest `bench_secagg`
/// cohort (64 devices). Far below the asymptotic one (~cohort / group;
/// the committed row reads 4.9x), so it trips when the mitigation itself
/// is broken, not on a noisy run.
pub const SECAGG_MIN_SPEEDUP: f64 = 1.5;

/// `bench_secagg`'s verdict: at the largest cohort one quadratic group
/// costs at least [`SECAGG_MIN_SPEEDUP`] times the fixed groups.
pub fn secagg(cases: &[SecAggCase]) -> Result<(), String> {
    let largest = cases.last().ok_or("no case was measured")?;
    if largest.single_group_ms < SECAGG_MIN_SPEEDUP * largest.sharded_ms {
        return Err(format!(
            "quadratic-cost mitigation regressed: one group of {} took {:.2} ms vs {:.2} ms \
             sharded, expected at least a {SECAGG_MIN_SPEEDUP}x advantage",
            largest.devices, largest.single_group_ms, largest.sharded_ms
        ));
    }
    Ok(())
}

/// One `bench_des` case: an event popped and one pushed, at one depth.
pub struct DesCase {
    /// Events pending throughout.
    pub pending: usize,
    /// Median time per pop plus push over the timed turns.
    pub ns_per_event: f64,
}

/// Queue depths `bench_des` times: ten thousand and a million pending.
pub const DES_PENDING: [usize; 2] = [10_000, 1_000_000];

/// Ceiling on ns per event at a million pending over ten thousand. Sorted
/// runs and indexed slots read 0.9-1.4x; a heap of each bucket's few
/// thousand events over levels that file an event four or five times read
/// 1.6-2.6x.
pub const DES_MAX_SLOPE: f64 = 1.5;

/// `bench_des`'s verdict: an event at a million pending costs at most
/// [`DES_MAX_SLOPE`] times one at ten thousand.
pub fn des(cases: &[DesCase]) -> Result<(), String> {
    let [few, many] = DES_PENDING.map(|pending| {
        cases
            .iter()
            .find(|c| c.pending == pending)
            .ok_or(format!("no case at {pending} pending"))
    });
    let (few, many) = (few?, many?);
    let slope = many.ns_per_event / few.ns_per_event;
    if slope > DES_MAX_SLOPE {
        return Err(format!(
            "{:.1} ns per event at {} pending is {slope:.2}x the {:.1} ns at {}, over the \
             {DES_MAX_SLOPE}x ceiling",
            many.ns_per_event, many.pending, few.ns_per_event, few.pending
        ));
    }
    Ok(())
}

/// `bench_des`'s `day` row: one million-device day of `fl_sim::fleet`
/// (`fleet_des`'s fleet, seed 5).
pub struct DesDay {
    /// Events the day popped.
    pub events: u64,
    /// The most events pending at once.
    pub peak_pending: usize,
    /// Standard normals the day evaluated (`fl_ml::rng::normals`).
    pub normals: u64,
}

/// Events the day pops. The simulation is deterministic, so any other
/// count is a changed simulation, not noise.
pub const DES_DAY_EVENTS: u64 = 1_393_370;

/// Ceiling on the day's pending events: the bootstrap's wake-ups that fall
/// inside the day. A queue that also stored every wake-up due after the
/// day's end peaked at 1 000 010.
pub const DES_DAY_PEAK_PENDING: usize = 874_609;

/// Ceiling on the standard normals the day evaluates, all of them the
/// availability model's: what it evaluates since a device-day's normals
/// are evaluated only when a query compares them. When every lookup
/// evaluated all of its device-day's normals, the day read 4 396 636.
pub const DES_DAY_NORMALS: u64 = 2_728_670;

/// `bench_des`'s day verdict: the day popped exactly [`DES_DAY_EVENTS`],
/// never held more than [`DES_DAY_PEAK_PENDING`] pending and evaluated at
/// most [`DES_DAY_NORMALS`] normals.
pub fn des_day(day: &DesDay) -> Result<(), String> {
    if day.events != DES_DAY_EVENTS {
        return Err(format!(
            "the day popped {} events, not the {DES_DAY_EVENTS} pinned",
            day.events
        ));
    }
    if day.peak_pending > DES_DAY_PEAK_PENDING {
        return Err(format!(
            "the day held {} events pending, over the {DES_DAY_PEAK_PENDING} ceiling",
            day.peak_pending
        ));
    }
    if day.normals > DES_DAY_NORMALS {
        return Err(format!(
            "the day evaluated {} normals, over the {DES_DAY_NORMALS} ceiling",
            day.normals
        ));
    }
    Ok(())
}

/// `rounds_per_s` floor per `benchmark/` workload: half the highest
/// change median among the last [`E2E_FLOOR_ENTRIES`] `BENCH_e2e.json`
/// entries that measured it, rounded to a whole round/s (a unit test
/// holds the two equal, so an entry that raises a median raises its
/// floor). The highest, not the latest: an entry measured in one of the
/// host's slow spells would otherwise lower every floor with no change
/// to the code. Those spells cost a run up to 40 %, so these catch a
/// twofold slowdown, not a drift; a gain or a loss of less is read from
/// alternating pairs.
pub const E2E_FLOORS: [(&str, f64); 4] = [
    ("round_plain_tcp", 33.0),
    ("checkin_storm", 948.0),
    ("round_secagg", 198.0),
    ("fleet_des", 598.0),
];

/// Ledger entries an [`E2E_FLOORS`] value looks back over.
pub const E2E_FLOOR_ENTRIES: usize = 3;

/// The `e2e-floor` verdict on the JSON line that ends one run of
/// `benchmark/run.sh --workload W`: its output oracle held, no operation
/// failed, and it ran at the workload's [`E2E_FLOORS`] rate or better.
pub fn e2e(workload: &str, result: &str) -> Result<(), String> {
    let (_, floor) = E2E_FLOORS
        .iter()
        .find(|(name, _)| *name == workload)
        .ok_or(format!("no floor is set for workload {workload:?}"))?;
    for held in ["\"correct\": true", "\"failed\": 0,"] {
        if !result.contains(held) {
            return Err(format!("the run does not end with {held} in: {result}"));
        }
    }
    let rate: f64 = result
        .split_once("\"rounds_per_s\": {\"value\": ")
        .and_then(|(_, rest)| rest.split([',', '}']).next()?.parse().ok())
        .ok_or(format!("no rounds_per_s in: {result}"))?;
    if rate < *floor {
        return Err(format!(
            "{rate:.1} rounds/s is under the {floor} rounds/s floor"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The numeric fields of every one-line `{"key": number, ...}` row
    /// of a committed snapshot, in order (the bins print one case a line).
    fn rows(doc: &str) -> Vec<BTreeMap<&str, f64>> {
        doc.lines()
            .filter_map(|line| {
                let row = line.trim().trim_end_matches(',');
                row.strip_prefix('{')?.strip_suffix('}')
            })
            .map(|row| {
                row.split(", ")
                    .filter_map(|field| {
                        let (key, value) = field.split_once(": ")?;
                        Some((key.trim_matches('"'), value.parse().ok()?))
                    })
                    .collect()
            })
            .collect()
    }

    fn committed_wire() -> Vec<WireCase> {
        let cases: Vec<WireCase> = rows(include_str!("../../../BENCH_wire.json"))
            .iter()
            // The digest row is gated on its own.
            .filter(|row| row.contains_key("params"))
            .map(|row| WireCase {
                params: row["params"] as usize,
                frame_bytes: row["frame_bytes"] as usize,
                iters: row["iters"] as u32,
                encode_ns_per_frame: row["encode_ns_per_frame"],
                encode_mb_per_s: row["encode_mb_per_s"],
                decode_ns_per_frame: row["decode_ns_per_frame"],
                decode_mb_per_s: row["decode_mb_per_s"],
            })
            .collect();
        assert_eq!(cases.len(), 3);
        cases
    }

    fn committed_digest() -> DigestRow {
        let doc = include_str!("../../../BENCH_wire.json");
        let row = rows(doc)
            .into_iter()
            .find(|row| row.contains_key("dispatched_gb_per_s_1mib"))
            .expect("a digest row");
        DigestRow {
            avx2: doc.contains("\"avx2\": true"),
            dispatched_gb_per_s: row["dispatched_gb_per_s_1mib"],
            portable_gb_per_s: row["portable_gb_per_s_1mib"],
        }
    }

    fn committed_configuration_tcp() -> ConfigurationTcp {
        let row = rows(include_str!("../../../BENCH_wire.json"))
            .into_iter()
            .find(|row| row.contains_key("warm_bytes"))
            .expect("a configuration_tcp row");
        ConfigurationTcp {
            model_params: row["model_params"] as usize,
            full_bytes: row["full_bytes"] as usize,
            warm_bytes: row["warm_bytes"] as usize,
            checkpoint_bytes: row["checkpoint_bytes"] as usize,
            population_bytes: row["population_bytes"] as usize,
            ns_per_device: row["ns_per_device"],
        }
    }

    fn committed_selector() -> Vec<SelectorCase> {
        let cases: Vec<SelectorCase> = rows(include_str!("../../../BENCH_selector.json"))
            .iter()
            .map(|row| SelectorCase {
                populations: row["populations"] as usize,
                drain_every: row["drain_every"] as u32,
                iters: row["iters"] as u32,
                checkin_ns: row["checkin_ns"],
                accept_fraction: row["accept_fraction"],
            })
            .collect();
        assert_eq!(cases.len(), 6);
        cases
    }

    fn committed_secagg() -> Vec<SecAggCase> {
        let cases: Vec<SecAggCase> = rows(include_str!("../../../BENCH_secagg.json"))
            .iter()
            // The kernel and instance rows carry no floor.
            .filter(|row| row.contains_key("single_group_ms"))
            .map(|row| SecAggCase {
                devices: row["devices"] as usize,
                single_group_ms: row["single_group_ms"],
                sharded_ms: row["sharded_ms"],
            })
            .collect();
        assert_eq!(cases.len(), 3);
        cases
    }

    fn committed_des() -> Vec<DesCase> {
        let cases: Vec<DesCase> = rows(include_str!("../../../BENCH_des.json"))
            .iter()
            // The day row carries no floor.
            .filter(|row| row.contains_key("pending"))
            .map(|row| DesCase {
                pending: row["pending"] as usize,
                ns_per_event: row["ns_per_event"],
            })
            .collect();
        assert_eq!(cases.len(), 2);
        cases
    }

    fn committed_des_day() -> DesDay {
        let row = rows(include_str!("../../../BENCH_des.json"))
            .into_iter()
            .find(|row| row.contains_key("events"))
            .expect("a day row");
        DesDay {
            events: row["events"] as u64,
            peak_pending: row["peak_pending"] as usize,
            normals: row["normals"] as u64,
        }
    }

    /// The line a `benchmark/` run ends with, as far as `e2e` reads it.
    fn e2e_result(correct: bool, failed: u32, rounds_per_s: f64) -> String {
        format!(
            "{{\"correct\": {correct}, \"attempted\": 1209, \"failed\": {failed}, \"metrics\": \
             {{\"setup_s\": {{\"value\": 0.2, \"unit\": \"s\"}}, \
             \"rounds_per_s\": {{\"value\": {rounds_per_s}, \"unit\": \"1/s\"}}}}}}"
        )
    }

    /// The change medians of `rounds_per_s` on `workload` in the committed
    /// ledger, one per entry that measured it, latest last.
    fn committed_e2e_medians(workload: &str) -> Vec<f64> {
        let needle = format!("\"workload\": \"{workload}\", \"metric\": \"rounds_per_s\"");
        include_str!("../../../BENCH_e2e.json")
            .lines()
            .filter(|line| line.contains(&needle))
            // A `claimed` line names the pair too, but holds no row.
            .flat_map(rows)
            .map(|row| row["change_median"])
            .collect()
    }

    fn committed_e2e_median(workload: &str) -> f64 {
        *committed_e2e_medians(workload)
            .last()
            .expect("every entry has the row")
    }

    #[test]
    fn every_floor_is_half_the_highest_of_the_last_three_ledger_medians() {
        for (workload, floor) in E2E_FLOORS {
            let medians = committed_e2e_medians(workload);
            let recent = &medians[medians.len().saturating_sub(E2E_FLOOR_ENTRIES)..];
            assert_eq!(
                recent.len(),
                E2E_FLOOR_ENTRIES,
                "{workload}: too few entries"
            );
            let half = recent.iter().copied().fold(f64::NEG_INFINITY, f64::max) / 2.0;
            assert_eq!(
                floor,
                half.round(),
                "{workload}: set the floor to half the highest of the last \
                 {E2E_FLOOR_ENTRIES} medians, {half:.1} rounds/s"
            );
        }
    }

    #[test]
    fn committed_medians_pass_the_e2e_gate() {
        for (workload, _) in E2E_FLOORS {
            let median = committed_e2e_median(workload);
            assert_eq!(e2e(workload, &e2e_result(true, 0, median)), Ok(()));
        }
    }

    #[test]
    fn a_broken_run_or_a_twofold_slowdown_fails_the_e2e_gate() {
        for (workload, floor) in E2E_FLOORS {
            let median = committed_e2e_median(workload);
            assert!(e2e(workload, &e2e_result(false, 0, median)).is_err());
            assert!(e2e(workload, &e2e_result(true, 3, median)).is_err());
            // The floors are half a recent median, so just under one reads
            // as the twofold slowdown it is.
            let why = e2e(workload, &e2e_result(true, 0, 0.98 * floor)).expect_err("under");
            assert!(why.contains("rounds/s floor"), "{why}");
            let no_rate = e2e_result(true, 0, median).replace("rounds_per_s", "rounds");
            assert!(e2e(workload, &no_rate).is_err());
        }
        assert!(e2e("round_robin", &e2e_result(true, 0, 1e9)).is_err());
    }

    #[test]
    fn committed_rows_pass_every_gate() {
        assert_eq!(wire(&committed_wire()), Ok(()));
        assert_eq!(digest(&committed_digest()), Ok(()));
        assert_eq!(configuration_tcp(&committed_configuration_tcp()), Ok(()));
        assert_eq!(selector(&committed_selector()), Ok(()));
        assert_eq!(secagg(&committed_secagg()), Ok(()));
        assert_eq!(des(&committed_des()), Ok(()));
        assert_eq!(des_day(&committed_des_day()), Ok(()));
    }

    #[test]
    fn a_run_that_measured_nothing_fails() {
        assert!(wire(&[]).is_err());
        assert!(secagg(&[]).is_err());
        assert!(des(&[]).is_err());
        assert!(des(&committed_des()[..1]).is_err());
    }

    #[test]
    fn a_cost_that_grows_with_the_queue_fails_the_des_gate() {
        // What one heap per bucket over radix levels read at its worst: an
        // event at a million pending 2.5x one at ten thousand.
        let mut cases = committed_des();
        cases[1].ns_per_event = 2.5 * cases[0].ns_per_event;
        let why = des(&cases).expect_err("2.5x is over the ceiling");
        assert!(why.contains("1000000 pending is 2.50x"), "{why}");
    }

    #[test]
    fn another_event_count_or_a_higher_peak_fails_the_des_day_gate() {
        let committed = committed_des_day();
        for events in [DES_DAY_EVENTS - 1, DES_DAY_EVENTS + 1] {
            let day = DesDay {
                events,
                ..committed
            };
            let why = des_day(&day).expect_err("not the pinned count");
            assert!(why.contains(&format!("popped {events} events")), "{why}");
        }
        // What the queue held when it also stored the wake-ups due after
        // the day's end.
        let why = des_day(&DesDay {
            peak_pending: 1_000_010,
            ..committed
        })
        .expect_err("over the ceiling");
        assert!(why.contains("held 1000010 events pending"), "{why}");
    }

    #[test]
    fn more_normals_than_the_committed_count_fail_the_des_day_gate() {
        let committed = committed_des_day();
        let why = des_day(&DesDay {
            normals: DES_DAY_NORMALS + 1,
            ..committed
        })
        .expect_err("over the ceiling");
        assert!(
            why.contains(&format!("evaluated {} normals", DES_DAY_NORMALS + 1)),
            "{why}"
        );
        // What the day evaluated when every lookup turned all of its
        // device-day's pairs into normals.
        assert!(des_day(&DesDay {
            normals: 4_396_636,
            ..committed
        })
        .is_err());
    }

    #[test]
    fn a_byte_serial_digest_fails_the_wire_gate() {
        // What protocol v3 read at 1M parameters, in either direction.
        for slow in [
            |c: &mut WireCase| c.encode_mb_per_s = 700.0,
            |c: &mut WireCase| c.decode_mb_per_s = 700.0,
        ] {
            let mut cases = committed_wire();
            slow(cases.last_mut().expect("three rows"));
            let why = wire(&cases).expect_err("700 MB/s is under the floor");
            assert!(why.contains("1000000 params moved at 700.0 MB/s"), "{why}");
        }
    }

    #[test]
    fn a_lost_target_feature_fails_the_digest_gate() {
        let committed = committed_digest();
        assert!(committed.avx2, "the snapshot was taken on a CPU with AVX2");
        // A dispatch that lost its `#[target_feature]` runs the portable
        // loop's speed, give or take.
        let lost = DigestRow {
            dispatched_gb_per_s: 1.1 * committed.portable_gb_per_s,
            ..committed
        };
        let why = digest(&lost).expect_err("1.1x is under the required advantage");
        assert!(why.contains("1.5x an AVX2 CPU must reach"), "{why}");
        // Without AVX2 the dispatch has no vector build to pick.
        assert_eq!(
            digest(&DigestRow {
                avx2: false,
                ..lost
            }),
            Ok(())
        );
    }

    #[test]
    fn a_warm_configuration_that_carries_the_plan_fails_the_wire_gate() {
        let committed = committed_configuration_tcp();
        // The warm frame is exactly checkpoint, population and envelope.
        assert_eq!(
            committed.warm_bytes,
            committed.checkpoint_bytes + committed.population_bytes + CONFIGURATION_ENVELOPE
        );
        // What the connection sent before it kept a plan: every
        // Configuration whole.
        let resent = ConfigurationTcp {
            warm_bytes: committed.full_bytes,
            ..committed
        };
        let why = configuration_tcp(&resent).expect_err("the plan was sent again");
        assert!(
            why.contains("262208 params") && why.contains("carried the plan"),
            "{why}"
        );
        let one_more = ConfigurationTcp {
            warm_bytes: committed.warm_bytes + 1,
            ..committed_configuration_tcp()
        };
        assert!(configuration_tcp(&one_more).is_err());
    }

    #[test]
    fn a_held_set_scan_fails_the_selector_gate() {
        // What a scan of the held set on every check-in read: 10x at the
        // sixteen-fold larger held set.
        let mut cases = committed_selector();
        cases[5].checkin_ns = 10.0 * cases[4].checkin_ns;
        let why = selector(&cases).expect_err("10x is over the ceiling");
        assert!(
            why.contains("8 populations") && why.contains("10.0x"),
            "{why}"
        );
    }

    #[test]
    fn a_case_that_sheds_fails_the_selector_gate() {
        let mut cases = committed_selector();
        cases[0].accept_fraction = 0.5;
        assert!(selector(&cases).is_err());
    }

    #[test]
    fn a_lost_sharding_advantage_fails_the_secagg_gate() {
        let mut cases = committed_secagg();
        let largest = cases.last_mut().expect("three rows");
        largest.sharded_ms = largest.single_group_ms / 1.2;
        let why = secagg(&cases).expect_err("1.2x is under the required advantage");
        assert!(why.contains("one group of 64"), "{why}");
    }
}
