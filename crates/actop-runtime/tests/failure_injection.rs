//! Failure injection: the virtual-actor fault-tolerance model under crash
//! and recovery.
//!
//! Orleans (and this runtime) treats actors as *virtual*: a server crash
//! destroys activations, not identities. The next message to a lost actor
//! re-activates it on a live server. These tests crash servers mid-run and
//! check that every request is accounted for (completed, rejected, or timed
//! out), that actors redistribute, and that a recovered server rejoins.

use actop_runtime::app::FixedCostApp;
use actop_runtime::{ActorId, AppLogic, Call, Cluster, Reaction, RuntimeConfig};
use actop_sim::{DetRng, Engine, Nanos};

fn counter_app() -> Box<dyn AppLogic> {
    Box::new(FixedCostApp {
        cpu_ns: 30_000.0,
        reply_bytes: 200,
    })
}

fn config(servers: usize, seed: u64) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::paper_testbed(seed);
    cfg.servers = servers;
    cfg.request_timeout = Some(Nanos::from_secs(2));
    cfg
}

/// Open-loop request stream against `actors` random actors.
fn stream_requests(engine: &mut Engine<Cluster>, actors: u64, count: u64, gap: Nanos, seed: u64) {
    let mut rng = DetRng::stream(seed, 0x77);
    for i in 0..count {
        let actor = ActorId(rng.range_inclusive(0, actors - 1));
        engine.schedule(gap * i, move |c: &mut Cluster, e| {
            c.submit_client_request(e, actor, 0, 300);
        });
    }
}

#[test]
fn all_requests_accounted_for_across_a_crash() {
    let mut cluster = Cluster::new(config(4, 1), counter_app());
    let mut engine: Engine<Cluster> = Engine::new();
    stream_requests(&mut engine, 200, 2_000, Nanos::from_micros(500), 1);
    // Crash server 2 in the middle of the stream.
    engine.schedule(Nanos::from_millis(400), |c: &mut Cluster, e| {
        c.fail_server(e, 2);
    });
    engine.run(&mut cluster);
    let m = &cluster.metrics;
    assert_eq!(m.server_failures, 1);
    assert_eq!(
        m.completed + m.rejected + m.timed_out,
        m.submitted,
        "every request must be accounted: completed {} rejected {} timed_out {} submitted {}",
        m.completed,
        m.rejected,
        m.timed_out,
        m.submitted
    );
    // The vast majority completes: only work resident on the crashed
    // server at the instant of the crash is lost.
    assert!(
        m.completed as f64 > 0.95 * m.submitted as f64,
        "completed {} of {}",
        m.completed,
        m.submitted
    );
    // No activations remain on the failed server.
    assert_eq!(cluster.directory.sizes()[2], 0);
}

#[test]
fn actors_reactivate_on_live_servers() {
    let mut cluster = Cluster::new(config(3, 2), counter_app());
    let mut engine: Engine<Cluster> = Engine::new();
    // Activate 60 actors.
    stream_requests(&mut engine, 60, 60, Nanos::from_micros(200), 2);
    engine.run(&mut cluster);
    let victims: Vec<ActorId> = cluster
        .directory
        .vertices_on(1)
        .into_iter()
        .map(ActorId)
        .collect();
    assert!(!victims.is_empty(), "server 1 should host something");
    cluster.fail_server(&mut engine, 1);
    // Touch every lost actor again.
    for (i, actor) in victims.clone().into_iter().enumerate() {
        engine.schedule_after(Nanos::from_micros(i as u64), move |c: &mut Cluster, e| {
            c.submit_client_request(e, actor, 0, 300);
        });
    }
    engine.run(&mut cluster);
    for actor in &victims {
        let home = cluster.locate(*actor).expect("re-activated");
        assert_ne!(home, 1, "must not re-activate on the failed server");
    }
}

#[test]
fn recovered_server_takes_new_activations() {
    let mut cluster = Cluster::new(config(2, 3), counter_app());
    let mut engine: Engine<Cluster> = Engine::new();
    cluster.fail_server(&mut engine, 0);
    // With server 0 down, everything lands on server 1.
    stream_requests(&mut engine, 50, 50, Nanos::from_micros(300), 3);
    engine.run(&mut cluster);
    assert_eq!(cluster.directory.sizes()[0], 0);
    let on_1 = cluster.directory.sizes()[1];
    assert!(on_1 > 0);
    // Recover and activate fresh actors: some must land on server 0 again.
    cluster.recover_server(engine.now(), 0);
    let mut rng = DetRng::stream(3, 0x78);
    for i in 0..50u64 {
        let actor = ActorId(1_000 + rng.range_inclusive(0, 49));
        engine.schedule_after(Nanos::from_micros(i * 300), move |c: &mut Cluster, e| {
            c.submit_client_request(e, actor, 0, 300);
        });
    }
    engine.run(&mut cluster);
    assert!(
        cluster.directory.sizes()[0] > 0,
        "recovered server rejoins placement: sizes {:?}",
        cluster.directory.sizes()
    );
    let m = &cluster.metrics;
    assert_eq!(m.completed + m.rejected + m.timed_out, m.submitted);
}

/// An app whose handler fans out, so joins span the crash.
struct FanApp;
impl AppLogic for FanApp {
    fn on_request(&self, actor: ActorId, tag: u32, _rng: &mut DetRng) -> Reaction {
        if tag == 0 {
            let calls = (1..=4)
                .map(|i| Call {
                    to: ActorId(actor.0 * 100 + i),
                    tag: 1,
                    bytes: 300,
                })
                .collect();
            Reaction::fan_out(40_000.0, calls, 400)
        } else {
            Reaction::reply(15_000.0, 150)
        }
    }
}

#[test]
fn joins_spanning_a_crash_resolve_or_time_out() {
    let mut cluster = Cluster::new(config(4, 5), Box::new(FanApp));
    let mut engine: Engine<Cluster> = Engine::new();
    let mut rng = DetRng::stream(5, 0x79);
    for i in 0..1_500u64 {
        let actor = ActorId(rng.range_inclusive(0, 30));
        engine.schedule(Nanos::from_micros(i * 400), move |c: &mut Cluster, e| {
            c.submit_client_request(e, actor, 0, 300);
        });
    }
    engine.schedule(Nanos::from_millis(250), |c: &mut Cluster, e| {
        c.fail_server(e, 1);
    });
    engine.schedule(Nanos::from_millis(450), |c: &mut Cluster, e| {
        c.fail_server(e, 3);
    });
    engine.run(&mut cluster);
    let m = &cluster.metrics;
    assert_eq!(m.server_failures, 2);
    assert_eq!(m.completed + m.rejected + m.timed_out, m.submitted);
    assert!(m.completed > 0);
    // Some responses inevitably died with their joins.
    assert!(
        m.timed_out > 0 || m.stale_responses > 0 || m.completed == m.submitted,
        "crash effects should be visible or fully absorbed"
    );
}

/// Regression: an actor migrating toward a server that dies mid-transfer
/// must not vanish or double-activate. The in-flight move aborts cleanly,
/// the actor keeps serving from its source, and the location hints left on
/// the source are repaired rather than pointing into the grave.
#[test]
fn migration_racing_a_crash_aborts_cleanly() {
    let mut cfg = config(3, 9);
    cfg.migration_transfer = Some(Nanos::from_millis(5));
    let mut cluster = Cluster::new(cfg, counter_app());
    let mut engine: Engine<Cluster> = Engine::new();
    let actor = ActorId(42);
    // Activate the actor somewhere.
    engine.schedule(Nanos::ZERO, move |c: &mut Cluster, e| {
        c.submit_client_request(e, actor, 0, 300);
    });
    engine.run(&mut cluster);
    let source = cluster.locate(actor).expect("activated");
    let dest = (source + 1) % 3;
    let migrations_before = cluster.metrics.migrations;

    // Start the 5 ms transfer, then crash the destination 1 ms in.
    engine.schedule_after(Nanos::from_millis(1), move |c: &mut Cluster, e| {
        let now = e.now();
        c.migrate_actor(e, now, actor, dest);
        assert_eq!(c.migrations_in_flight(), 1, "transfer must be in flight");
    });
    engine.schedule_after(Nanos::from_millis(2), move |c: &mut Cluster, e| {
        c.fail_server(e, dest);
    });
    // Keep talking to the actor across the abort.
    for i in 0..40u64 {
        engine.schedule_after(
            Nanos::from_millis(3) + Nanos::from_micros(i * 250),
            move |c: &mut Cluster, e| {
                c.submit_client_request(e, actor, 0, 300);
            },
        );
    }
    engine.run(&mut cluster);

    assert_eq!(cluster.metrics.migrations_aborted, 1);
    assert_eq!(cluster.migrations_in_flight(), 0, "no transfer leaked");
    assert_eq!(
        cluster.metrics.migrations, migrations_before,
        "the aborted move must not count as a migration"
    );
    assert_eq!(
        cluster.locate(actor),
        Some(source),
        "actor stays activated at its source — exactly one activation"
    );
    let m = &cluster.metrics;
    assert_eq!(m.completed + m.rejected + m.timed_out, m.submitted);
    assert_eq!(
        m.completed, m.submitted,
        "nothing addressed the dead server"
    );
}

#[test]
fn failure_handling_is_deterministic() {
    let run = || {
        let mut cluster = Cluster::new(config(4, 7), counter_app());
        let mut engine: Engine<Cluster> = Engine::new();
        stream_requests(&mut engine, 100, 1_000, Nanos::from_micros(400), 7);
        engine.schedule(Nanos::from_millis(200), |c: &mut Cluster, e| {
            c.fail_server(e, 0);
        });
        engine.run(&mut cluster);
        (
            cluster.metrics.completed,
            cluster.metrics.timed_out,
            cluster.metrics.e2e_latency.quantile(0.99),
        )
    };
    assert_eq!(run(), run());
}
