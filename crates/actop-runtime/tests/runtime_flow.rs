//! End-to-end behavioral tests of the actor runtime.

use actop_partition::{ExchangeOutcome, PartitionView, PolicyHost, ViewScope};
use actop_runtime::app::FixedCostApp;
use actop_runtime::{
    ActorId, AppLogic, Call, Cluster, ClusterHost, PlacementPolicy, Reaction, ReplicationConfig,
    RuntimeConfig, TraceConfig,
};
use actop_sim::{DetRng, Engine, Nanos};
use actop_trace::HopKind;

fn counter_app() -> Box<dyn AppLogic> {
    Box::new(FixedCostApp {
        cpu_ns: 20_000.0,
        reply_bytes: 200,
    })
}

/// An app where actor 0 fans out to actors 1..=n and gathers replies —
/// the Halo call shape in miniature.
struct FanApp {
    fan: u64,
}

impl AppLogic for FanApp {
    fn on_request(&self, actor: ActorId, _tag: u32, _rng: &mut DetRng) -> Reaction {
        if actor.0 == 0 {
            let calls = (1..=self.fan)
                .map(|i| Call {
                    to: ActorId(i),
                    tag: 1,
                    bytes: 300,
                })
                .collect();
            Reaction::fan_out(30_000.0, calls, 500)
        } else {
            Reaction::reply(10_000.0, 150)
        }
    }
}

fn run_requests(
    config: RuntimeConfig,
    app: Box<dyn AppLogic>,
    targets: &[ActorId],
    gap: Nanos,
) -> Cluster {
    let mut cluster = Cluster::new(config, app);
    let mut engine: Engine<Cluster> = Engine::new();
    for (i, &actor) in targets.iter().enumerate() {
        let at = gap * i as u64;
        engine.schedule(at, move |c: &mut Cluster, e| {
            c.submit_client_request(e, actor, 0, 400);
        });
    }
    engine.run(&mut cluster);
    cluster
}

#[test]
fn single_server_counter_requests_complete() {
    let cluster = run_requests(
        RuntimeConfig::single_server(7),
        counter_app(),
        &(0..100).map(ActorId).collect::<Vec<_>>(),
        Nanos::from_micros(500),
    );
    assert_eq!(cluster.metrics.submitted, 100);
    assert_eq!(cluster.metrics.completed, 100);
    assert_eq!(cluster.metrics.rejected, 0);
    assert!(cluster.is_drained());
    assert_eq!(cluster.metrics.e2e_latency.count(), 100);
    // Latency must at least cover two network hops plus processing.
    let min = cluster.metrics.e2e_latency.min();
    assert!(min > 400_000, "min latency {min} ns");
}

#[test]
fn determinism_same_seed_same_results() {
    let targets: Vec<ActorId> = (0..200).map(ActorId).collect();
    let a = run_requests(
        RuntimeConfig::paper_testbed(42),
        counter_app(),
        &targets,
        Nanos::from_micros(100),
    );
    let b = run_requests(
        RuntimeConfig::paper_testbed(42),
        counter_app(),
        &targets,
        Nanos::from_micros(100),
    );
    assert_eq!(a.metrics.completed, b.metrics.completed);
    assert_eq!(
        a.metrics.e2e_latency.quantile(0.99),
        b.metrics.e2e_latency.quantile(0.99)
    );
    assert_eq!(a.metrics.remote_messages, b.metrics.remote_messages);
}

#[test]
fn fan_out_joins_complete() {
    let mut config = RuntimeConfig::paper_testbed(11);
    config.servers = 4;
    config.record_remote_call_latency = true;
    let cluster = run_requests(
        config,
        Box::new(FanApp { fan: 8 }),
        &vec![ActorId(0); 50],
        Nanos::from_millis(2),
    );
    assert_eq!(cluster.metrics.completed, 50);
    assert!(cluster.is_drained());
    // 8 calls + 8 replies per request, all actor-to-actor.
    let actor_msgs = cluster.metrics.remote_messages + cluster.metrics.local_messages;
    assert_eq!(actor_msgs, 50 * 16);
    // With random placement on 4 servers most calls are remote.
    assert!(
        cluster.metrics.remote_fraction() > 0.5,
        "remote fraction {}",
        cluster.metrics.remote_fraction()
    );
    assert!(cluster.metrics.remote_call_latency.count() > 0);
}

#[test]
fn local_placement_keeps_fanout_local() {
    let mut config = RuntimeConfig::paper_testbed(13);
    config.servers = 4;
    config.placement = PlacementPolicy::Local;
    let cluster = run_requests(
        config,
        Box::new(FanApp { fan: 8 }),
        &vec![ActorId(0); 50],
        Nanos::from_millis(2),
    );
    assert_eq!(cluster.metrics.completed, 50);
    // Callees activate on the caller's server: everything stays local.
    assert_eq!(cluster.metrics.remote_messages, 0);
    assert_eq!(cluster.metrics.local_messages, 50 * 16);
}

#[test]
fn local_calls_are_faster_than_remote() {
    // Same workload, same seed structure; one cluster with co-located
    // actors (local placement), one with hash placement (mostly remote).
    let make = |placement| {
        let mut config = RuntimeConfig::paper_testbed(5);
        config.servers = 8;
        config.placement = placement;
        run_requests(
            config,
            Box::new(FanApp { fan: 8 }),
            &vec![ActorId(0); 200],
            Nanos::from_millis(1),
        )
    };
    let local = make(PlacementPolicy::Local);
    let hashed = make(PlacementPolicy::Hash);
    assert_eq!(local.metrics.completed, 200);
    assert_eq!(hashed.metrics.completed, 200);
    let local_p50 = local.metrics.e2e_latency.quantile(0.5);
    let hashed_p50 = hashed.metrics.e2e_latency.quantile(0.5);
    assert!(
        local_p50 < hashed_p50,
        "local {local_p50} should beat remote {hashed_p50}"
    );
}

#[test]
fn migration_deactivates_and_reactivates_at_hint() {
    let mut config = RuntimeConfig::paper_testbed(3);
    config.servers = 2;
    config.placement = PlacementPolicy::Hash;
    let mut cluster = Cluster::new(config, counter_app());
    let mut engine: Engine<Cluster> = Engine::new();
    let actor = ActorId(77);
    // Activate the actor with one request.
    engine.schedule(Nanos::ZERO, move |c: &mut Cluster, e| {
        c.submit_client_request(e, actor, 0, 100);
    });
    engine.run(&mut cluster);
    let home = cluster.locate(actor).expect("activated");
    let target = 1 - home;
    // Migrate: directory entry drops, hints appear on both servers.
    let now = engine.now();
    cluster.migrate_actor(&mut engine, now, actor, target);
    assert_eq!(cluster.locate(actor), None, "deactivated");
    assert_eq!(cluster.metrics.migrations, 1);
    // The next request re-activates it. The gateway is random; when the
    // gateway is `home` or `target`, the hint routes it to `target`.
    // Drive requests until re-activation and check it landed on a hinted
    // or originating server.
    engine.schedule_after(Nanos::from_millis(1), move |c: &mut Cluster, e| {
        c.submit_client_request(e, actor, 0, 100);
    });
    engine.run(&mut cluster);
    let new_home = cluster.locate(actor).expect("re-activated");
    assert!(new_home < 2);
    assert_eq!(cluster.metrics.completed, 2);
}

#[test]
fn apply_exchange_moves_actors_both_ways() {
    let mut config = RuntimeConfig::paper_testbed(9);
    config.servers = 2;
    config.placement = PlacementPolicy::Hash;
    let mut cluster = Cluster::new(config, counter_app());
    let mut engine: Engine<Cluster> = Engine::new();
    for i in 0..10u64 {
        engine.schedule(Nanos::from_micros(i * 10), move |c: &mut Cluster, e| {
            c.submit_client_request(e, ActorId(i), 0, 100);
        });
    }
    engine.run(&mut cluster);
    // The dense directory speaks raw `u64` ids on the routing path.
    let on0: Vec<ActorId> = cluster
        .directory
        .vertices_on(0)
        .into_iter()
        .map(ActorId)
        .collect();
    let on1: Vec<ActorId> = cluster
        .directory
        .vertices_on(1)
        .into_iter()
        .map(ActorId)
        .collect();
    assert_eq!(on0.len() + on1.len(), 10);
    if on0.is_empty() || on1.is_empty() {
        return; // Degenerate hash split; nothing to exchange.
    }
    let outcome = ExchangeOutcome {
        accepted: vec![on0[0]],
        returned: vec![on1[0]],
        gain: 0,
    };
    let before = cluster.metrics.migrations;
    let now = engine.now();
    // Applied as the exchange policy applies it, through the agents' host.
    let mut host = ClusterHost::new(&mut cluster, &mut engine, now);
    for actor in &outcome.accepted {
        host.migrate(*actor, 1);
    }
    for actor in &outcome.returned {
        host.migrate(*actor, 0);
    }
    host.note_exchange(0, 1);
    assert_eq!(cluster.metrics.migrations, before + 2);
    assert_eq!(cluster.locate(on0[0]), None, "in opportunistic limbo");
    assert!(cluster.servers[0].last_exchange_ns.is_some());
    assert!(cluster.servers[1].last_exchange_ns.is_some());
}

#[test]
fn partition_view_reflects_traffic() {
    let mut config = RuntimeConfig::paper_testbed(21);
    config.servers = 2;
    config.placement = PlacementPolicy::Hash;
    let mut cluster = Cluster::new(config, Box::new(FanApp { fan: 4 }));
    let mut engine: Engine<Cluster> = Engine::new();
    for i in 0..20u64 {
        engine.schedule(Nanos::from_millis(i), |c: &mut Cluster, e| {
            c.submit_client_request(e, ActorId(0), 0, 100);
        });
    }
    engine.run(&mut cluster);
    let home = cluster.locate(ActorId(0)).expect("active");
    let mut view = PartitionView::new();
    cluster.partition_view(home, ViewScope::Full, &mut view);
    let entry = view
        .iter()
        .find(|(a, _)| *a == ActorId(0))
        .expect("actor 0 in its server's view");
    // Actor 0 talked to its four callees (requests + responses).
    assert_eq!(entry.1.len(), 4, "edges: {:?}", entry.1);
    let total_weight: u64 = entry.1.iter().map(|&(_, w)| w).sum();
    assert!(total_weight >= 20 * 4, "weight {total_weight}");
}

#[test]
fn overload_sheds_requests() {
    let mut config = RuntimeConfig::single_server(33);
    config.max_receiver_queue = 5;
    let mut cluster = Cluster::new(
        config,
        Box::new(FixedCostApp {
            cpu_ns: 10_000_000.0, // 10 ms per request: guaranteed backlog.
            reply_bytes: 100,
        }),
    );
    let mut engine: Engine<Cluster> = Engine::new();
    for i in 0..500u64 {
        engine.schedule(Nanos::from_micros(i), |c: &mut Cluster, e| {
            c.submit_client_request(e, ActorId(1), 0, 100);
        });
    }
    engine.run(&mut cluster);
    assert!(cluster.metrics.rejected > 0, "shedding should kick in");
    assert_eq!(
        cluster.metrics.completed + cluster.metrics.rejected,
        cluster.metrics.submitted
    );
    assert!(cluster.is_drained());
}

#[test]
fn thread_reconfiguration_applies_and_unblocks() {
    let mut cluster = Cluster::new(RuntimeConfig::single_server(17), counter_app());
    let mut engine: Engine<Cluster> = Engine::new();
    engine.schedule(Nanos::ZERO, |c: &mut Cluster, e| {
        c.set_stage_threads(e, 0, [2, 3, 1, 1]);
    });
    for i in 0..50u64 {
        engine.schedule(Nanos::from_micros(10 + i), |c: &mut Cluster, e| {
            c.submit_client_request(e, ActorId(4), 0, 100);
        });
    }
    engine.run(&mut cluster);
    assert_eq!(cluster.servers[0].thread_allocation(), [2, 3, 1, 1]);
    assert_eq!(cluster.metrics.completed, 50);
}

#[test]
fn stage_stats_windows_drain() {
    let mut cluster = Cluster::new(RuntimeConfig::single_server(19), counter_app());
    let mut engine: Engine<Cluster> = Engine::new();
    for i in 0..50u64 {
        engine.schedule(Nanos::from_micros(i * 20), |c: &mut Cluster, e| {
            c.submit_client_request(e, ActorId(9), 0, 100);
        });
    }
    engine.run(&mut cluster);
    let now = engine.now();
    let reports = cluster.drain_stage_stats(now, 0);
    // Receiver and worker processed all 50 requests (+1 activation forward
    // executed in the worker).
    assert_eq!(reports[0].arrivals, 50);
    assert!(reports[1].completions >= 50);
    assert!(reports[0].sum_cpu_ns > 0.0);
    assert!(reports[0].sum_wallclock_ns >= reports[0].sum_cpu_ns);
    // A second drain starts fresh.
    let fresh = cluster.drain_stage_stats(now, 0);
    assert_eq!(fresh[0].arrivals, 0);
    assert_eq!(fresh[1].completions, 0);
}

#[test]
fn breakdown_components_cover_latency() {
    let mut config = RuntimeConfig::single_server(23);
    config.record_breakdown = true;
    let cluster = run_requests(
        config,
        counter_app(),
        &(0..100).map(ActorId).collect::<Vec<_>>(),
        Nanos::from_micros(300),
    );
    let breakdown = &cluster.metrics.breakdown;
    assert_eq!(breakdown.requests(), 100);
    let shares = breakdown.shares_pct();
    let names: Vec<&str> = shares.iter().map(|&(n, _)| n).collect();
    for expected in [
        "Recv. queue",
        "Recv. processing",
        "Worker queue",
        "Worker processing",
        "Sender queue",
        "Sender processing",
        "Network",
        "Other",
    ] {
        assert!(names.contains(&expected), "missing component {expected}");
    }
    let total_pct: f64 = shares.iter().map(|&(_, p)| p).sum();
    assert!((total_pct - 100.0).abs() < 1e-6);
    // Average components must sum to the mean end-to-end latency.
    let avg_sum: f64 = breakdown.averages_ns().iter().map(|&(_, v)| v).sum();
    let mean = cluster.metrics.e2e_latency.mean();
    assert!(
        (avg_sum - mean).abs() / mean < 0.02,
        "components {avg_sum} vs mean {mean}"
    );
}

#[test]
fn cpu_utilization_is_sane() {
    let mut cluster = Cluster::new(RuntimeConfig::single_server(29), counter_app());
    let mut engine: Engine<Cluster> = Engine::new();
    let snapshots: Vec<f64> = vec![cluster.busy_core_ns(0)];
    for i in 0..1000u64 {
        engine.schedule(Nanos::from_micros(i * 100), |c: &mut Cluster, e| {
            c.submit_client_request(e, ActorId(2), 0, 100);
        });
    }
    engine.run(&mut cluster);
    let util = cluster.mean_utilization(&snapshots, Nanos::ZERO, engine.now());
    assert!(util > 0.0 && util < 1.0, "utilization {util}");
}

/// `replica_writes` counts client writes that enter through a gateway
/// hosting a replica of their target: the worker stage there sees a
/// replica activation, counts the write, and forwards it to the primary.
/// Writes entering through the primary, or through a server with no
/// activation of the target, are not counted. (The sharded backend pins
/// the same rule in its unit tests.)
#[test]
fn replica_writes_count_writes_entering_through_a_replica_gateway() {
    let mut config = RuntimeConfig::paper_testbed(5);
    config.servers = 3;
    // Tag 0 reads; tag 1 writes. No controller is installed, so the
    // replica set below never changes.
    config.replication = Some(ReplicationConfig::default());
    config.trace = Some(TraceConfig::default());
    let mut cluster = Cluster::new(config, counter_app());
    cluster.directory.place(7, 0);
    cluster.directory.add_replica(7, 1);
    let mut engine: Engine<Cluster> = Engine::new();
    for i in 0..300u64 {
        engine.schedule(Nanos::from_micros(200 * i), |c: &mut Cluster, e| {
            c.submit_client_request(e, ActorId(7), 1, 400);
        });
    }
    engine.run(&mut cluster);

    let mut admitted = [0u64; 3];
    for span in cluster.trace.spans() {
        if span.kind == HopKind::GatewayAdmit {
            admitted[span.server as usize] += 1;
        }
    }
    assert!(admitted.iter().all(|&n| n > 0), "gateways {admitted:?}");
    assert_eq!(cluster.metrics.completed, 300);
    assert_eq!(cluster.metrics.replica_writes, admitted[1]);
    assert_eq!(cluster.metrics.replica_reads, 0);
    assert_eq!(cluster.directory.replicas_of(7), &[1]);
}
