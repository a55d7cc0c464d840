//! Property test: stateful crash recovery under arbitrary seed-derived
//! fault plans with snapshots enabled.
//!
//! Write-tagged requests mutate per-actor versioned state while the plan
//! crashes servers (including, sometimes, the snapshot store's own host)
//! across open snapshot rounds. Whatever the interleaving, the paper-level
//! recovery contract must hold: the durable store's per-actor transition
//! counts equal exactly the writes the cluster executed — zero lost, zero
//! duplicated — and every admitted request still terminates exactly once.

use actop_chaos::{install_plan, FaultPlan};
use actop_runtime::{ActorId, AppLogic, Call, Cluster, Reaction, RuntimeConfig, SnapshotConfig};
use actop_sim::{DetRng, Engine, Nanos};
use proptest::prelude::*;

const ACTORS: u64 = 48;
/// Write tag under the default `write_tags = 0b10` mask.
const TAG_WRITE: u32 = 1;

/// Fan-out app whose depth-limited call trees end in write-tagged leaves:
/// tag 2 fans out into tag-1 calls, tag 1 writes and replies, tag 0 is a
/// read. This keeps writes flowing through both direct submissions and
/// remote sub-calls.
struct FanApp;

impl AppLogic for FanApp {
    fn on_request(&self, actor: ActorId, tag: u32, rng: &mut DetRng) -> Reaction {
        if tag < 2 || !rng.chance(0.6) {
            return Reaction::reply(rng.exp(20_000.0), 100);
        }
        let fan = rng.below(3) + 1;
        let calls = (0..fan)
            .map(|i| Call {
                to: ActorId((actor.0 * 7 + i as u64 * 13 + 1) % ACTORS),
                tag: tag - 1,
                bytes: 200,
            })
            .collect();
        Reaction::fan_out(rng.exp(30_000.0), calls, 150)
    }
}

/// Sum of every actor's durable transition count — the store's view of
/// "writes that happened".
fn restored_version_sum(cluster: &Cluster) -> u64 {
    let store = cluster.snapshot_store().expect("snapshots on");
    (0..ACTORS)
        .map(|a| store.restore(a).map_or(0, |p| p.version))
        .sum()
}

fn run(seed: u64, servers: usize, requests: u16, fault_count: usize, interval_ms: u64) -> Cluster {
    let mut config = RuntimeConfig::paper_testbed(seed);
    config.servers = servers;
    // Requests stranded by a crash terminate through the timeout.
    config.request_timeout = Some(Nanos::from_secs(2));
    config.snapshot = Some(SnapshotConfig {
        interval: Nanos::from_millis(interval_ms),
        capture_window: Nanos::from_millis(interval_ms / 2),
        ..SnapshotConfig::default()
    });
    let mut cluster = Cluster::new(config, Box::new(FanApp));
    let mut engine: Engine<Cluster> = Engine::new();

    // Snapshot rounds and the fault plan race over the same 400 ms.
    let horizon = Nanos::from_millis(400);
    cluster.install_snapshots(&mut engine, horizon);
    let plan = FaultPlan::random(seed, servers as u32, horizon, fault_count);
    install_plan(&mut engine, &cluster, &plan, Nanos::ZERO);

    let mut rng = DetRng::stream(seed, 0xC1);
    for i in 0..requests {
        let actor = ActorId(rng.below(ACTORS as usize) as u64);
        // Alternate fan-out writers and direct writes so crashes land on
        // joins and leaf writes alike.
        let tag = if rng.chance(0.5) { 2 } else { TAG_WRITE };
        engine.schedule(
            Nanos::from_micros(i as u64 * 150),
            move |c: &mut Cluster, e| {
                c.submit_client_request(e, actor, tag, 300);
            },
        );
    }
    engine.run(&mut cluster);
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite invariant: random crash times interleaved with snapshot
    /// rounds never lose or duplicate a state transition.
    #[test]
    fn recovery_loses_and_duplicates_nothing(
        seed in any::<u64>(),
        servers in 3usize..6,
        requests in 50u16..400,
        fault_count in 0usize..8,
        interval_ms in 20u64..80,
    ) {
        let cluster = run(seed, servers, requests, fault_count, interval_ms);
        let m = &cluster.metrics;
        prop_assert_eq!(
            m.completed + m.rejected + m.timed_out,
            m.submitted,
            "requests leaked under snapshots + chaos"
        );
        // No lost, no duplicated transitions: the durable journal agrees
        // byte-for-byte with the writes the cluster executed.
        prop_assert_eq!(
            restored_version_sum(&cluster),
            m.state_writes,
            "durable state diverged from executed writes (plan: {})",
            FaultPlan::random(seed, servers as u32, Nanos::from_millis(400), fault_count).to_text()
        );
        // And the live in-memory view agrees with the durable one (the
        // same check the in-plan crash_restore audits run mid-flight).
        prop_assert_eq!(cluster.state_divergence(), None);
        if fault_count == 0 {
            prop_assert_eq!(m.snap_rounds_aborted, 0, "no crash, no aborted rounds");
        }
    }
}

/// The named crash_restore shape end to end: build state, crash a server,
/// recover it, and let the plan's own audit event verify rehydration.
#[test]
fn crash_restore_shape_audits_rehydration() {
    let mut config = RuntimeConfig::paper_testbed(21);
    config.servers = 4;
    config.request_timeout = Some(Nanos::from_secs(2));
    config.snapshot = Some(SnapshotConfig {
        interval: Nanos::from_millis(50),
        capture_window: Nanos::from_millis(10),
        ..SnapshotConfig::default()
    });
    let mut cluster = Cluster::new(config, Box::new(FanApp));
    let mut engine: Engine<Cluster> = Engine::new();
    cluster.install_snapshots(&mut engine, Nanos::from_millis(600));
    let plan = FaultPlan::crash_restore(
        2,
        Nanos::from_millis(150),
        Nanos::from_millis(250),
        Nanos::from_millis(500),
    );
    install_plan(&mut engine, &cluster, &plan, Nanos::ZERO);
    let mut rng = DetRng::stream(21, 0xC1);
    for i in 0..600u64 {
        let actor = ActorId(rng.below(ACTORS as usize) as u64);
        engine.schedule(Nanos::from_micros(i * 500), move |c: &mut Cluster, e| {
            c.submit_client_request(e, actor, TAG_WRITE, 300);
        });
    }
    engine.run(&mut cluster);
    let m = &cluster.metrics;
    assert_eq!(m.server_failures, 1);
    assert!(m.restores > 0, "recovery rehydrated state");
    assert_eq!(restored_version_sum(&cluster), m.state_writes);
}
