//! `layers`: one probe per layer, timed from outside at the workloads' own
//! sizes. `layers --seed N [--out FILE]` prints every metric by name and
//! unit and, with `--out`, leaves them in FILE for `e2e --trace 1`.
//!
//! This binary calls a wider surface than `e2e` (still only the `_for`
//! entry points of the Selector layer). It is built on its own, so a probe
//! that stops compiling takes only these rows away.

mod actors;

use fl_benchmark::{fleet_config, median, Args, Metrics, DELTA};
use fl_core::aggregation::FedAvgAccumulator;
use fl_core::plan::{CodecSpec, FlPlan, ModelSpec};
use fl_core::{DeviceId, FlCheckpoint, PopulationName, RoundId};
use fl_ml::fixedpoint::FixedPointEncoder;
use fl_ml::optim::WeightedUpdate;
use fl_secagg::protocol::{run_instance, SecAggConfig};
use fl_server::aggregator::{AggregationPlan, AggregatorShard, MasterAggregator};
use fl_server::storage::{CheckpointStore, InMemoryCheckpointStore};
use fl_sim::des::EventQueue;
use fl_sim::multi::{run_multi_tenant, MultiTenantConfig};
use fl_wire::{decode, encode, ChannelTransport, Transport, WireMessage};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The large model of `round_plain_tcp` and the SecAgg model of
/// `round_secagg`.
const LARGE: ModelSpec = ModelSpec::Logistic {
    dim: 4096,
    classes: 64,
    seed: 0,
};
const MASKED: ModelSpec = ModelSpec::Logistic {
    dim: 256,
    classes: 16,
    seed: 0,
};

/// Time a probe may spend measuring, split over `BATCHES` batches.
const BUDGET: Duration = Duration::from_millis(100);
const BATCHES: usize = 5;

/// Seconds per call of `op(input)`, each input made by `setup` outside the
/// timed region: the median over batches that share `BUDGET` of wall time
/// (set-up included). A call too long for a batch is timed once.
pub fn per_call_with<T>(mut setup: impl FnMut() -> T, mut op: impl FnMut(T)) -> f64 {
    let mut time = |calls: u64| {
        let mut spent = Duration::ZERO;
        for _ in 0..calls {
            let input = setup();
            let started = Instant::now();
            op(input);
            spent += started.elapsed();
        }
        spent.as_secs_f64() / calls as f64
    };
    // The first call sizes the batches (and takes the cold misses).
    let started = Instant::now();
    let once = time(1);
    let calls = (BUDGET.as_secs_f64() / BATCHES as f64 / started.elapsed().as_secs_f64()) as u64;
    if calls == 0 {
        return once;
    }
    median(&mut (0..BATCHES).map(|_| time(calls)).collect::<Vec<_>>())
}

/// Seconds per call of `op`; short calls are timed many at a time, so the
/// clock does not swamp them.
pub fn per_call(mut op: impl FnMut()) -> f64 {
    let started = Instant::now();
    op();
    let once = started.elapsed().as_secs_f64().max(1e-9);
    let inner = (20e-6 / once).clamp(1.0, 1024.0) as u64;
    per_call_with(
        || (),
        |()| {
            for _ in 0..inner {
                op();
            }
        },
    ) / inner as f64
}

fn population() -> PopulationName {
    PopulationName::new("bench/p0")
}

fn wire_probes(m: &mut Metrics) {
    let update = vec![DELTA; LARGE.num_params()];
    let report = WireMessage::UpdateReport {
        device: DeviceId(7),
        round: RoundId(1),
        attempt: 1,
        update_bytes: CodecSpec::Identity.build().encode(&update),
        weight: 1,
        loss: 0.5,
        accuracy: 0.5,
        population: population(),
    };
    let plan = WireMessage::PlanAndCheckpoint {
        plan: Box::new(FlPlan::standard_training(
            LARGE,
            1,
            16,
            0.1,
            CodecSpec::Identity,
        )),
        checkpoint: Box::new(FlCheckpoint::new("train", RoundId(1), update.clone())),
        population: population(),
    };
    let masked = WireMessage::SecAggReport {
        device: DeviceId(7),
        round: RoundId(1),
        attempt: 1,
        field_vector: FixedPointEncoder::default_for_updates()
            .encode(&vec![DELTA; MASKED.num_params()])
            .expect("DELTA is inside the fixed-point range"),
        weight: 1,
        loss: 0.5,
        accuracy: 0.5,
        population: population(),
    };
    for (name, msg) in [
        ("report_1m", &report),
        ("plan_1m", &plan),
        ("secagg_report", &masked),
    ] {
        let frame = encode(msg).expect("frame encodes");
        let mb = frame.len() as f64 / 1e6;
        let secs = per_call(|| drop(black_box(encode(black_box(msg)))));
        m.push(&format!("wire.encode_{name}_mb_per_s"), mb / secs, "MB/s");
        let secs = per_call(|| drop(black_box(decode(black_box(&frame)))));
        m.push(&format!("wire.decode_{name}_mb_per_s"), mb / secs, "MB/s");
    }
    let checkin = WireMessage::CheckinRequest {
        device: DeviceId(7),
        population: population(),
    };
    let turnaway = WireMessage::ComeBackLater {
        retry_at_ms: 1_000,
        population: population(),
    };
    let frame = encode(&checkin).expect("frame encodes");
    m.push(
        "wire.encode_checkin_ns",
        per_call(|| drop(black_box(encode(black_box(&checkin))))) * 1e9,
        "ns",
    );
    m.push(
        "wire.decode_checkin_ns",
        per_call(|| drop(black_box(decode(black_box(&frame))))) * 1e9,
        "ns",
    );
    // Check-in out, turn-away back, both ends on this thread: two
    // encodes, two channel hops, two decodes.
    let (device, server) = ChannelTransport::pair();
    let wait = Duration::from_secs(5);
    let secs = per_call(|| {
        device.send(&checkin).expect("send");
        black_box(server.recv_timeout(wait).expect("recv"));
        server.send(&turnaway).expect("send");
        black_box(device.recv_timeout(wait).expect("recv"));
    });
    m.push("wire.channel_roundtrip_ns", secs * 1e9, "ns");
    actors::tcp_probes(m, &checkin, &report);
}

fn aggregator_probes(m: &mut Metrics, seed: u64) {
    let n = LARGE.num_params();
    let bytes = CodecSpec::Identity.build().encode(&vec![DELTA; n]);
    let mut shard = AggregatorShard::new(n, CodecSpec::Identity, None);
    let secs = per_call(|| {
        shard
            .accept(DeviceId(1), black_box(&bytes), 1)
            .expect("accept")
    });
    m.push(
        "aggregator.shard_accept_1m_mb_per_s",
        bytes.len() as f64 / 1e6 / secs,
        "MB/s",
    );

    let dim = MASKED.num_params();
    let field = FixedPointEncoder::default_for_updates()
        .encode(&vec![DELTA; dim])
        .expect("DELTA is inside the fixed-point range");
    let staged = || {
        let mut shard = AggregatorShard::new(dim, CodecSpec::Identity, Some(8));
        for d in 0..16 {
            shard
                .accept_field(DeviceId(d), &field, 1)
                .expect("accept_field");
        }
        shard
    };
    let mut shard = staged();
    let mut d = 0;
    let secs = per_call(|| {
        d = (d + 1) % 16;
        shard
            .accept_field(DeviceId(d), black_box(&field), 1)
            .expect("accept_field");
    });
    m.push("aggregator.shard_accept_field_us", secs * 1e6, "us");
    let secs = per_call_with(staged, |shard| {
        black_box(shard.close(&[], &[DeviceId(3)], seed).expect("close"));
    });
    m.push("aggregator.shard_close_secagg_ms", secs * 1e3, "ms");

    // round_plain_tcp's tree: 20 configured at 8 per shard is 3 shards,
    // 16 accepted updates.
    let params = vec![0.0f32; n];
    let secs = per_call_with(
        || {
            let mut master =
                MasterAggregator::new(AggregationPlan::plain(n, 8), CodecSpec::Identity, 20, seed);
            for d in 0..16 {
                master.accept(DeviceId(d), &bytes, 1).expect("accept");
            }
            master
        },
        |master| {
            black_box(master.finalize(&params, &[], &[]).expect("finalize"));
        },
    );
    m.push("aggregator.master_finalize_ms", secs * 1e3, "ms");
}

fn secagg_probes(m: &mut Metrics, seed: u64) {
    // One shard of round_secagg: 16 devices, the update plus its weight.
    let dim = MASKED.num_params() + 1;
    let inputs: Vec<Vec<u64>> = (0..16).map(|d| vec![d + 1; dim]).collect();
    let config = SecAggConfig::new(11, dim);
    for (name, share_dropouts) in [("instance_ms", &[][..]), ("instance_dropout_ms", &[3][..])] {
        let secs = per_call_with(
            || (),
            |()| {
                black_box(
                    run_instance(config, &inputs, &[], share_dropouts, seed).expect("instance"),
                );
            },
        );
        m.push(&format!("secagg.{name}"), secs * 1e3, "ms");
    }
}

fn storage_probes(m: &mut Metrics) {
    let params = vec![DELTA; LARGE.num_params()];
    let mut store = InMemoryCheckpointStore::new();
    let mut round = 0;
    let secs = per_call_with(
        || {
            round += 1;
            FlCheckpoint::new("train", RoundId(round), params.clone())
        },
        |checkpoint| store.commit(checkpoint).expect("commit"),
    );
    m.push("storage.commit_1m_us", secs * 1e6, "us");
    let secs = per_call(|| drop(black_box(store.latest("train").expect("latest"))));
    m.push("storage.latest_1m_us", secs * 1e6, "us");
}

fn core_ml_probes(m: &mut Metrics) {
    let n = LARGE.num_params();
    let update = vec![DELTA; n];
    let mb = (n * 4) as f64 / 1e6;
    let mut acc = FedAvgAccumulator::new(n);
    let secs = per_call_with(
        || WeightedUpdate {
            delta: update.clone(),
            weight: 1,
        },
        |u| acc.accumulate(u).expect("accumulate"),
    );
    m.push("core.fedavg_accumulate_mb_per_s", mb / secs, "MB/s");
    let mut sum = FedAvgAccumulator::new(n);
    let secs = per_call(|| sum.merge(black_box(&acc)).expect("merge"));
    m.push("core.fedavg_merge_1m_ms", secs * 1e3, "ms");
    let codec = CodecSpec::Identity.build();
    let bytes = codec.encode(&update);
    let secs = per_call(|| drop(black_box(codec.decode(black_box(&bytes), n))));
    m.push("ml.identity_decode_mb_per_s", mb / secs, "MB/s");
    let encoder = FixedPointEncoder::default_for_updates();
    let secs = per_call(|| drop(black_box(encoder.encode(black_box(&update)))));
    m.push("ml.fixedpoint_encode_mb_per_s", mb / secs, "MB/s");
}

fn sim_probes(m: &mut Metrics, seed: u64) {
    const EVENTS: u64 = 1_000_000;
    let secs = per_call_with(
        || (),
        |()| {
            let mut queue: EventQueue<u64> = EventQueue::new();
            let mut at = seed;
            for e in 0..EVENTS {
                // A fixed scatter of due times, so the heap reorders.
                at = at
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                queue.schedule_at(at >> 40, e);
            }
            while let Some(event) = queue.next() {
                black_box(event);
            }
        },
    );
    m.push("sim.event_queue_events_per_s", EVENTS as f64 / secs, "1/s");
    for (name, devices) in [("sim.fleet_20k_ms", 20_000), ("sim.fleet_200k_ms", 200_000)] {
        let config = fleet_config(devices, 1, seed);
        let started = Instant::now();
        black_box(fl_sim::fleet::run(black_box(&config)));
        let secs = started.elapsed().as_secs_f64();
        m.push(name, secs * 1e3, "ms");
        if devices == 200_000 {
            m.push("sim.device_days_per_s", devices as f64 / secs, "1/s");
        }
    }
    let config = MultiTenantConfig::flash_vs_steady(seed);
    let started = Instant::now();
    black_box(run_multi_tenant(black_box(&config)));
    m.push(
        "sim.multi_tenant_ms",
        started.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
}

fn main() {
    let args = Args::parse().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let seed: u64 = args.parsed("seed", 1).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let mut metrics = Metrics::default();
    wire_probes(&mut metrics);
    actors::selector_probes(&mut metrics, seed);
    actors::coordinator_probes(&mut metrics, seed);
    aggregator_probes(&mut metrics, seed);
    secagg_probes(&mut metrics, seed);
    storage_probes(&mut metrics);
    actors::actor_probes(&mut metrics);
    core_ml_probes(&mut metrics);
    sim_probes(&mut metrics, seed);
    for m in &metrics.0 {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = args.get("out") {
        if let Err(e) = std::fs::write(path, metrics.to_tsv()) {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        }
    }
}
