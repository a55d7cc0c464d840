//! Asynchronous snapshots and stateful crash recovery (legacy backend).
//!
//! Actors carry versioned state cells mutated by write-tagged requests;
//! every write is journaled to the durable store and periodic marker
//! rounds checkpoint the cluster without stalling service. These tests
//! drive write streams through snapshot rounds and crashes and check the
//! paper-level contract: recovery loses and duplicates exactly zero state
//! transitions, rounds abort cleanly when a crash punctures the cut, and
//! restores defer (rather than serve lost state) while the store server
//! is down.

use actop_runtime::app::FixedCostApp;
use actop_runtime::{ActorId, AppLogic, Cluster, RuntimeConfig, SnapshotConfig};
use actop_sim::{DetRng, Engine, Nanos};

/// The write tag under the default `write_tags = 0b10` mask.
const TAG_WRITE: u32 = 1;

fn app() -> Box<dyn AppLogic> {
    Box::new(FixedCostApp {
        cpu_ns: 30_000.0,
        reply_bytes: 200,
    })
}

fn config(servers: usize, seed: u64) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::paper_testbed(seed);
    cfg.servers = servers;
    cfg.request_timeout = Some(Nanos::from_secs(2));
    cfg.snapshot = Some(SnapshotConfig {
        interval: Nanos::from_millis(50),
        capture_window: Nanos::from_millis(10),
        ..SnapshotConfig::default()
    });
    cfg
}

/// Open-loop write stream against `actors` random actors.
fn stream_writes(engine: &mut Engine<Cluster>, actors: u64, count: u64, gap: Nanos, seed: u64) {
    let mut rng = DetRng::stream(seed, 0x77);
    for i in 0..count {
        let actor = ActorId(rng.range_inclusive(0, actors - 1));
        engine.schedule(gap * i, move |c: &mut Cluster, e| {
            c.submit_client_request(e, actor, TAG_WRITE, 300);
        });
    }
}

/// Sum of every actor's transition count as the store would restore it —
/// the durable view of "transitions that happened".
fn restored_version_sum(cluster: &Cluster, actors: u64) -> u64 {
    let store = cluster.snapshot_store().expect("snapshots on");
    (0..actors)
        .map(|a| store.restore(a).map_or(0, |p| p.version))
        .sum()
}

#[test]
fn rounds_complete_and_checkpoint_state() {
    let mut cluster = Cluster::new(config(4, 1), app());
    let mut engine: Engine<Cluster> = Engine::new();
    let horizon = Nanos::from_millis(400);
    cluster.install_snapshots(&mut engine, horizon);
    stream_writes(&mut engine, 50, 600, Nanos::from_micros(500), 1);
    engine.run(&mut cluster);
    let m = &cluster.metrics;
    assert!(
        m.snap_rounds_completed >= 4,
        "rounds {}",
        m.snap_rounds_completed
    );
    assert_eq!(m.snap_rounds_aborted, 0, "no crash, no aborts");
    assert!(m.snap_captures > 0, "state was checkpointed");
    assert!(m.state_writes > 0);
    assert_eq!(m.state_writes, m.submitted, "every write is a transition");
    let store = cluster.snapshot_store().expect("snapshots on");
    assert_eq!(
        store.complete_rounds().len() as u64,
        m.snap_rounds_completed
    );
    // The periodic checkpoints bound replay debt: the journal tail is
    // only what accumulated since the last complete round.
    assert!(
        store.total_journal_len() < m.state_writes,
        "journals were truncated by commits"
    );
    // Durable view agrees with the in-memory cells transition for
    // transition.
    assert_eq!(restored_version_sum(&cluster, 50), m.state_writes);
}

#[test]
fn crash_recovery_loses_and_duplicates_nothing() {
    let actors = 60;
    let mut cluster = Cluster::new(config(4, 2), app());
    let mut engine: Engine<Cluster> = Engine::new();
    let horizon = Nanos::from_millis(600);
    cluster.install_snapshots(&mut engine, horizon);
    stream_writes(&mut engine, actors, 1_000, Nanos::from_micros(500), 2);
    // Crash a non-store server mid-stream (the store is on server 0):
    // its actors' in-memory cells die and rehydrate on next touch.
    engine.schedule(Nanos::from_millis(200), |c: &mut Cluster, e| {
        c.fail_server(e, 2);
    });
    engine.run(&mut cluster);
    let m = &cluster.metrics;
    assert_eq!(m.server_failures, 1);
    assert!(m.restores > 0, "lost actors rehydrated");
    // Zero lost, zero duplicated transitions: the durable journal's
    // per-actor version count equals the writes the cluster executed.
    assert_eq!(
        restored_version_sum(&cluster, actors),
        m.state_writes,
        "restore must reproduce exactly the executed transitions"
    );
    // Every surviving in-memory cell agrees with its durable image.
    let store = cluster.snapshot_store().expect("snapshots on");
    for a in 0..actors {
        if let Some(cell) = cluster.state_cell(a) {
            let plan = store.restore(a).expect("written actors are journaled");
            assert_eq!((plan.version, plan.value), (cell.version, cell.value));
        }
    }
}

#[test]
fn crash_mid_round_aborts_the_cut() {
    let mut cfg = config(4, 3);
    // A wide-open capture window so the crash lands inside a round.
    cfg.snapshot = Some(SnapshotConfig {
        interval: Nanos::from_millis(100),
        capture_window: Nanos::from_millis(80),
        ..SnapshotConfig::default()
    });
    let mut cluster = Cluster::new(cfg, app());
    let mut engine: Engine<Cluster> = Engine::new();
    let horizon = Nanos::from_millis(500);
    cluster.install_snapshots(&mut engine, horizon);
    stream_writes(&mut engine, 40, 800, Nanos::from_micros(500), 3);
    // First round begins at 100 ms and sweeps at 180 ms: crash at 140 ms.
    engine.schedule(Nanos::from_millis(140), |c: &mut Cluster, e| {
        c.fail_server(e, 1);
    });
    engine.run(&mut cluster);
    let m = &cluster.metrics;
    assert!(m.snap_rounds_aborted >= 1, "the punctured round aborted");
    let store = cluster.snapshot_store().expect("snapshots on");
    assert_eq!(
        store.complete_rounds().len() as u64,
        m.snap_rounds_completed,
        "aborted rounds never commit"
    );
    // Aborted or not, the WAL keeps recovery exact.
    assert_eq!(restored_version_sum(&cluster, 40), m.state_writes);
}

#[test]
fn restores_defer_while_the_store_server_is_down() {
    let mut cluster = Cluster::new(config(3, 4), app());
    let mut engine: Engine<Cluster> = Engine::new();
    let horizon = Nanos::from_secs(1);
    cluster.install_snapshots(&mut engine, horizon);
    // Build up state everywhere, then crash the store server itself: its
    // hosted cells die AND the store becomes unreachable, so their next
    // touch must defer instead of serving from scratch.
    stream_writes(&mut engine, 30, 300, Nanos::from_micros(500), 4);
    engine.schedule(Nanos::from_millis(200), |c: &mut Cluster, e| {
        c.fail_server(e, 0);
    });
    // Keep writing while the store is down, then recover it.
    let mut rng = DetRng::stream(5, 0x77);
    for i in 0..200u64 {
        let actor = ActorId(rng.range_inclusive(0, 29));
        engine.schedule(
            Nanos::from_millis(250) + Nanos::from_micros(i * 500),
            move |c: &mut Cluster, e| {
                c.submit_client_request(e, actor, TAG_WRITE, 300);
            },
        );
    }
    engine.schedule(Nanos::from_millis(400), |c: &mut Cluster, e| {
        c.recover_server(e.now(), 0);
    });
    // A final wave after recovery so deferred actors rehydrate.
    let mut rng = DetRng::stream(6, 0x77);
    for i in 0..200u64 {
        let actor = ActorId(rng.range_inclusive(0, 29));
        engine.schedule(
            Nanos::from_millis(450) + Nanos::from_micros(i * 500),
            move |c: &mut Cluster, e| {
                c.submit_client_request(e, actor, TAG_WRITE, 300);
            },
        );
    }
    engine.run(&mut cluster);
    let m = &cluster.metrics;
    assert!(
        m.restores_deferred > 0,
        "touches while the store was down deferred"
    );
    assert!(m.restores > 0, "deferred actors eventually rehydrated");
    assert_eq!(
        m.completed + m.rejected + m.timed_out,
        m.submitted,
        "deferral must not leak requests"
    );
    assert_eq!(restored_version_sum(&cluster, 30), m.state_writes);
}

#[test]
fn snapshot_runs_are_deterministic() {
    let run = || {
        let mut cluster = Cluster::new(config(4, 7), app());
        let mut engine: Engine<Cluster> = Engine::new();
        let horizon = Nanos::from_millis(500);
        cluster.install_snapshots(&mut engine, horizon);
        stream_writes(&mut engine, 80, 900, Nanos::from_micros(400), 7);
        engine.schedule(Nanos::from_millis(200), |c: &mut Cluster, e| {
            c.fail_server(e, 3);
        });
        engine.run(&mut cluster);
        (
            cluster.metrics.completed,
            cluster.metrics.state_writes,
            cluster.metrics.restores,
            cluster.metrics.snap_rounds_completed,
            cluster.metrics.snap_captures,
            cluster.metrics.snap_inflight,
            restored_version_sum(&cluster, 80),
            cluster.metrics.e2e_latency.quantile(0.99),
        )
    };
    assert_eq!(run(), run());
}

/// A server that stays down through later rounds is outside their cuts:
/// no link to or from it is a channel of the cut, so the messages ever
/// sent to it must not read as in flight. Before in-flight counted only
/// channels between marked servers, every round after the crash added
/// the crashed server's whole receive history (~55 per round here).
#[test]
fn in_flight_counts_only_channels_inside_the_cut() {
    let run = |crash: bool| {
        let mut cluster = Cluster::new(config(4, 2), app());
        let mut engine: Engine<Cluster> = Engine::new();
        cluster.install_snapshots(&mut engine, Nanos::from_millis(600));
        stream_writes(&mut engine, 60, 1_000, Nanos::from_micros(500), 2);
        if crash {
            engine.schedule(Nanos::from_millis(200), |c: &mut Cluster, e| {
                c.fail_server(e, 2);
            });
        }
        engine.run(&mut cluster);
        let m = &cluster.metrics;
        assert!(m.snap_rounds_completed >= 10, "{}", m.snap_rounds_completed);
        m.snap_inflight
    };
    assert_eq!(run(false), 2, "healthy run");
    assert_eq!(run(true), 3, "crashed run");
}
