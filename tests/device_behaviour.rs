//! Device-level integration: multi-tenancy, eligibility gating, pace
//! steering deferral, attestation at check-in, and storage hygiene —
//! the Sec. 3 behaviours working together.

use federated::core::plan::{CodecSpec, FlPlan, ModelSpec};
use federated::core::PopulationName;
use federated::data::store::{ExampleStore, InMemoryStore, StoreConfig};
use federated::device::attestation;
use federated::device::conditions::DeviceConditions;
use federated::device::runtime::{ExecutionOutcome, FlRuntime};
use federated::device::scheduler::{JobScheduler, TrainingQueue};
use federated::ml::Example;

const FLEET_ROOT: u64 = 0x0123_4567_89AB_CDEF;

fn classification_examples(n: usize) -> Vec<Example> {
    (0..n)
        .map(|i| Example::classification(vec![if i % 2 == 0 { 1.0 } else { -1.0 }, 0.5], i % 2))
        .collect()
}

/// Two apps on one device train two populations strictly one at a time,
/// each against its own example store, with jobs gated on eligibility.
#[test]
fn multitenant_device_trains_two_populations_sequentially() {
    let mut queue = TrainingQueue::default();
    queue.register(PopulationName::new("keyboard/nwp"));
    queue.register(PopulationName::new("settings/ranking"));

    let mut scheduler = JobScheduler::new(60_000);
    let runtime = FlRuntime::new(3);
    let spec = ModelSpec::Logistic {
        dim: 2,
        classes: 2,
        seed: 0,
    };
    let plan = FlPlan::standard_training(spec, 1, 8, 0.1, CodecSpec::Identity);
    let checkpoint = federated::core::FlCheckpoint::new(
        "t",
        federated::core::RoundId(0),
        vec![0.0; spec.num_params()],
    );
    let store_a =
        InMemoryStore::with_examples(StoreConfig::default(), classification_examples(20), 0);
    let store_b =
        InMemoryStore::with_examples(StoreConfig::default(), classification_examples(30), 0);

    let mut trained = Vec::new();
    let mut now = 0u64;
    // Device is in use: nothing runs.
    assert!(!scheduler.poll(now, DeviceConditions::in_use()));
    // Overnight: eligible; two job invocations run the two populations.
    for _ in 0..2 {
        now += 60_000;
        assert!(scheduler.poll(now, DeviceConditions::eligible()));
        let population = queue.start_next().expect("work queued");
        let store = if population.as_str() == "keyboard/nwp" {
            &store_a
        } else {
            &store_b
        };
        // No parallel sessions: starting another must fail while active.
        assert!(queue.start_next().is_none());
        let outcome = runtime
            .execute(&plan.device, &checkpoint, store, None)
            .unwrap();
        assert!(matches!(outcome, ExecutionOutcome::Completed { .. }));
        trained.push(population.as_str().to_string());
        queue.finish_active();
    }
    assert_eq!(trained, vec!["keyboard/nwp", "settings/ranking"]);
}

/// Pace steering's "come back later" defers the device's next job, and the
/// deferral wins over the periodic schedule.
#[test]
fn pace_steering_defers_job_invocations() {
    let mut scheduler = JobScheduler::new(60_000);
    assert!(scheduler.poll(0, DeviceConditions::eligible()));
    // Server rejects the check-in and suggests t = 500_000.
    scheduler.defer_until(500_000);
    assert!(!scheduler.poll(60_000, DeviceConditions::eligible()));
    assert!(!scheduler.poll(499_999, DeviceConditions::eligible()));
    assert!(scheduler.poll(500_000, DeviceConditions::eligible()));
}

/// Attestation: genuine devices pass anonymously; tampered tokens and
/// replays fail (Sec. 3's data-poisoning defence).
#[test]
fn attestation_gates_checkins() {
    let hw = 42_4242;
    let key = attestation::factory_key(FLEET_ROOT, hw);
    // Fresh nonce per check-in.
    for nonce in [1u64, 2, 3] {
        let token = attestation::attest(key, hw, nonce);
        assert!(attestation::verify(FLEET_ROOT, &token, nonce));
    }
    // A compromised device with a guessed key is rejected.
    let fake = attestation::attest(0xBAD, hw, 7);
    assert!(!attestation::verify(FLEET_ROOT, &fake, 7));
    // Replay of an old token against a new nonce is rejected.
    let old = attestation::attest(key, hw, 10);
    assert!(!attestation::verify(FLEET_ROOT, &old, 11));
}

/// Example-store hygiene: expiration and footprint limits hold even while
/// the runtime is querying.
#[test]
fn store_expiration_and_footprint_interact_with_training() {
    let config = StoreConfig {
        max_bytes: 2_000,
        expiration_ms: 10_000,
    };
    let mut store = InMemoryStore::new(config);
    for i in 0..200u64 {
        store.append(
            Example::classification(vec![1.0, -1.0], (i % 2) as usize),
            i * 100,
        );
    }
    assert!(store.footprint_bytes() <= 2_000);
    let before = store.len();
    // Prune at t=25s: everything older than 15s is gone.
    let evicted = store.prune(25_000);
    assert!(evicted > 0);
    assert!(store.len() < before);
    // Training still works on what remains.
    let spec = ModelSpec::Logistic {
        dim: 2,
        classes: 2,
        seed: 0,
    };
    let plan = FlPlan::standard_training(spec, 1, 8, 0.1, CodecSpec::Identity);
    let checkpoint = federated::core::FlCheckpoint::new(
        "t",
        federated::core::RoundId(0),
        vec![0.0; spec.num_params()],
    );
    let outcome = FlRuntime::new(3)
        .execute(&plan.device, &checkpoint, &store, None)
        .unwrap();
    match outcome {
        ExecutionOutcome::Completed { weight, .. } => {
            assert!(weight > 0, "training used the surviving examples")
        }
        other => panic!("unexpected outcome {other:?}"),
    }
}

/// Deployment bar (Sec. 11): devices under 2 GB never see FL code.
#[test]
fn deployment_bar_excludes_small_devices() {
    use federated::device::conditions::DeviceCapabilities;
    let eligible = DeviceCapabilities {
        runtime_version: 3,
        memory_mb: 4096,
    };
    let too_small = DeviceCapabilities {
        runtime_version: 3,
        memory_mb: 1536,
    };
    assert!(eligible.meets_deployment_bar());
    assert!(!too_small.meets_deployment_bar());
}
