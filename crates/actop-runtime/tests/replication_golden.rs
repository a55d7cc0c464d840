//! The hot-actor replication subsystem pinned absolutely on both backends.
//!
//! The 1-vs-N-shard tests pin the sharded runs only relative to each
//! other, and the replication consistency tests check invariants (one
//! activation after a split → drop round trip), not values. These
//! fingerprints catch any change to what replication does: every
//! `ClusterMetrics` counter, the final replica sets, and every
//! replication span (kind, server, request, aux, time) of a fully sampled
//! trace, plus one digest of every message-lifecycle span (admission,
//! wire, dispatch, forward, loss, retry, shed, stale response,
//! completion). Re-record deliberately with
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -p actop-runtime --test replication_golden -- --nocapture
//! ```

use actop_partition::DenseDirectory;
use actop_runtime::app::FixedCostApp;
use actop_runtime::sharded::{
    fail_server_sharded, install_sharded_hooks, recover_server_sharded,
    submit_client_request_sharded,
};
use actop_runtime::{
    build_sharded, install_replication_sharded, sharded_lookahead, ActorId, AppLogic, Cluster,
    ClusterMetrics, DetectorConfig, ReplicationConfig, RuntimeConfig, SplitThresholds, TraceConfig,
};
use actop_sim::{mix64, ConservativeRunner, DetRng, Engine, Nanos};
use actop_trace::{HopKind, SpanEvent};

const REP_HOPS: [HopKind; 4] = [
    HopKind::Split,
    HopKind::SplitAbort,
    HopKind::ReplicaDrop,
    HopKind::ReplicaRead,
];

/// The two hot actors; every other request goes to a cold one.
const HOT: [u64; 2] = [7, 11];

/// Tag 0 reads, tag 1 writes (the default `read_tags = 0b1`).
const TAG_READ: u32 = 0;
const TAG_WRITE: u32 = 1;

/// A controller that reacts within a few ticks at test scale: 20 ms
/// windows, a trigger at 1% of one server's window capacity, up to three
/// replicas, and a 60 ms cooldown that gates every second decision.
fn replication() -> ReplicationConfig {
    ReplicationConfig {
        read_tags: 0b1,
        thresholds: SplitThresholds {
            capacity_fraction: 0.01,
            drop_fraction: 0.6,
            max_replicas: 3,
        },
        check_interval: Nanos::from_millis(20),
        cooldown: Nanos::from_millis(60),
        min_load_ns: 200_000,
    }
}

/// Every counter by name, the final replica sets and the replication
/// spans (per-kind counts plus an order-sensitive digest of every field).
fn fingerprint(
    m: &ClusterMetrics,
    dir: &DenseDirectory,
    servers: usize,
    spans: &[SpanEvent],
) -> String {
    let mut out: Vec<String> = ClusterMetrics::COUNTERS
        .iter()
        .map(|c| format!("{}={}", c.name, (c.read)(m)))
        .collect();
    let mut replicated: Vec<u64> = (0..servers).flat_map(|s| dir.replicas_on(s)).collect();
    replicated.sort_unstable();
    replicated.dedup();
    for a in replicated {
        out.push(format!(
            "replicas {a}: primary={:?} replicas={:?}",
            dir.server_of(a),
            dir.replicas_of(a)
        ));
    }
    let hops: Vec<&SpanEvent> = spans
        .iter()
        .filter(|s| REP_HOPS.contains(&s.kind))
        .collect();
    for kind in REP_HOPS {
        let count = hops.iter().filter(|s| s.kind == kind).count();
        out.push(format!("spans {}={count}", kind.name()));
    }
    let digest = hops.iter().fold(0u64, |h, s| {
        let h = s
            .kind
            .name()
            .bytes()
            .fold(h, |h, b| mix64(h ^ u64::from(b)));
        [u64::from(s.server), s.request, s.aux, s.t_start.as_nanos()]
            .iter()
            .fold(h, |h, &v| mix64(h ^ v))
    });
    out.push(lifecycle_line(spans));
    out.push(format!("spans digest={digest:016x}"));
    out.join("\n")
}

/// The message-lifecycle spans: admission, wire hops, dispatch, forwards,
/// losses, retries, sheds, stale responses and completions.
const LIFECYCLE_HOPS: [HopKind; 11] = [
    HopKind::GatewayAdmit,
    HopKind::Network,
    HopKind::LocalDispatch,
    HopKind::RemoteDispatch,
    HopKind::Forward,
    HopKind::MsgLost,
    HopKind::Retry,
    HopKind::FailoverRetry,
    HopKind::Shed,
    HopKind::StaleResponse,
    HopKind::ClientDone,
];

/// One line for the message-lifecycle spans: their count and an
/// order-sensitive digest of every field.
fn lifecycle_line(spans: &[SpanEvent]) -> String {
    let hops: Vec<&SpanEvent> = spans
        .iter()
        .filter(|s| LIFECYCLE_HOPS.contains(&s.kind))
        .collect();
    let digest = hops.iter().fold(0u64, |h, s| {
        let h = s
            .kind
            .name()
            .bytes()
            .fold(h, |h, b| mix64(h ^ u64::from(b)));
        [
            u64::from(s.server),
            u64::from(s.stage),
            s.request,
            s.aux,
            s.t_start.as_nanos(),
            s.t_end.as_nanos(),
        ]
        .iter()
        .fold(h, |h, &v| mix64(h ^ v))
    });
    format!("lifecycle spans={} digest={digest:016x}", hops.len())
}

fn check(name: &str, got: &str, want: &str) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN {name}:\n{got}\n");
        return;
    }
    assert_eq!(
        got, want,
        "{name} fingerprint drifted; if intentional, re-record with GOLDEN_PRINT=1"
    );
}

/// The `i`-th request of the shared load: one in three to each hot actor,
/// the rest to 60 cold ones; one in seven writes. A request every 100 µs
/// for the first 300 ms (the hot actors split), then one every 1 ms (they
/// cool down and their replicas drop, one per cooldown).
fn load(i: u64, rng: &mut DetRng) -> (Nanos, ActorId, u32) {
    let at = if i < 3_000 {
        Nanos::from_micros(100 * i)
    } else {
        Nanos::from_millis(300) + Nanos::from_millis(i - 3_000)
    };
    let actor = match i % 3 {
        0 | 1 => HOT[(i % 3) as usize],
        _ => 100 + rng.range_inclusive(0, 59),
    };
    let tag = if i % 7 == 3 { TAG_WRITE } else { TAG_READ };
    (at, ActorId(actor), tag)
}

const REQUESTS: u64 = 3_400;

/// The controller stops before the load does, so replica sets survive to
/// the end of the run.
const CONTROL_HORIZON: Nanos = Nanos::from_millis(370);

fn app() -> FixedCostApp {
    FixedCostApp {
        cpu_ns: 60_000.0,
        reply_bytes: 200,
    }
}

/// Sequential backend. With the detector off, a crash drops replicas
/// through the crash path: at 200 ms the primary of actor 7 dies (every
/// replica of the actors it primaried drops, and any replica it hosted),
/// and recovers at 260 ms; at 330 ms a server hosting a replica of actor
/// 11 dies. With the detector on (and 2 ms split transfer windows), the
/// crash at 200 ms takes a replica host of actor 7, and its replicas drop
/// only when a router suspects it.
fn sequential_run(detector: bool) -> (String, Vec<SpanEvent>) {
    let mut cfg = RuntimeConfig::paper_testbed(3);
    cfg.servers = 4;
    cfg.request_timeout = Some(Nanos::from_secs(2));
    cfg.trace = Some(TraceConfig::default());
    cfg.replication = Some(replication());
    if detector {
        cfg.detector = Some(DetectorConfig::default());
        cfg.migration_transfer = Some(Nanos::from_millis(2));
    }
    let app: Box<dyn AppLogic> = Box::new(app());
    let mut cluster = Cluster::new(cfg, app);
    let mut engine: Engine<Cluster> = Engine::new();
    cluster.install_replication(&mut engine, CONTROL_HORIZON);
    cluster.install_heartbeats(&mut engine, Nanos::from_millis(700));
    let mut rng = DetRng::stream(3, 0x77);
    for i in 0..REQUESTS {
        let (at, actor, tag) = load(i, &mut rng);
        engine.schedule(at, move |c: &mut Cluster, e| {
            c.submit_client_request(e, actor, tag, 300);
        });
    }
    if detector {
        engine.schedule(Nanos::from_millis(200), |c: &mut Cluster, e| {
            let victim = c.directory.replicas_of(HOT[0])[0] as usize;
            c.fail_server(e, victim);
        });
    } else {
        engine.schedule(Nanos::from_millis(200), |c: &mut Cluster, e| {
            let primary = c.directory.server_of(HOT[0]).expect("hot actor placed");
            c.fail_server(e, primary);
            let at = e.now() + Nanos::from_millis(60);
            e.schedule(at, move |c: &mut Cluster, e| {
                c.recover_server(e.now(), primary)
            });
        });
        engine.schedule(Nanos::from_millis(330), |c: &mut Cluster, e| {
            let victim = c.directory.replicas_of(HOT[1])[0] as usize;
            c.fail_server(e, victim);
        });
    }
    engine.run(&mut cluster);
    let m = &cluster.metrics;
    assert!(
        m.splits > 0 && m.replica_drops > 0,
        "splits {} drops {}",
        m.splits,
        m.replica_drops
    );
    assert!(m.replica_reads > 0 && m.replica_writes > 0);
    let spans = cluster.trace.spans().to_vec();
    let fp = fingerprint(m, &cluster.directory, 4, &spans);
    (fp, spans)
}

fn drops_at(spans: &[SpanEvent], keep: impl Fn(Nanos) -> bool) -> usize {
    spans
        .iter()
        .filter(|s| s.kind == HopKind::ReplicaDrop && keep(s.t_start))
        .count()
}

#[test]
fn golden_replication_sequential() {
    let (fp, spans) = sequential_run(false);
    // Both crashes drop replicas at the crash instant.
    for at in [200, 330] {
        let at = Nanos::from_millis(at);
        assert!(drops_at(&spans, |t| t == at) > 0, "no crash drop at {at:?}");
    }
    check("sequential", &fp, SEQUENTIAL);
}

#[test]
fn golden_replication_sequential_detector() {
    let (fp, spans) = sequential_run(true);
    // Controller ticks fire on 5 ms phases; a drop off them is a router
    // dropping a suspected replica.
    let phase = Nanos::from_millis(5).as_nanos();
    assert!(drops_at(&spans, |t| t.as_nanos() % phase != 0) > 0);
    check("sequential-detector", &fp, SEQUENTIAL_DETECTOR);
}

/// Sharded backend, the same load on 6 servers: at 200 ms the primary of
/// actor 7 dies (its replica sets drop through the crash path), and it
/// recovers at 260 ms. Returns the fingerprint (spans in recording order,
/// which one shard makes total) and the replication spans sorted, for the
/// cross-layout comparison.
fn sharded_run(shards: usize, threads: usize) -> (String, Vec<SpanEvent>) {
    let mut config = RuntimeConfig::paper_testbed(11);
    config.servers = 6;
    config.trace = Some(TraceConfig::default());
    config.replication = Some(replication());
    let lookahead = sharded_lookahead(&config);
    let series_bin = config.series_bin_ns;
    let worlds = build_sharded(config, Box::new(app()), shards);
    let mut runner = ConservativeRunner::new(worlds, lookahead);
    install_sharded_hooks(&mut runner);
    install_replication_sharded(&mut runner, CONTROL_HORIZON);
    let mut rng = DetRng::stream(11, 0x77);
    let mut rng_gw = DetRng::stream(11, 0x90);
    let mut rng_net = DetRng::stream(11, 0x91);
    runner.schedule_global(Nanos::ZERO, move |ctx| {
        for i in 0..REQUESTS {
            let (at, actor, tag) = load(i, &mut rng);
            submit_client_request_sharded(ctx, at, actor, tag, 300, i, &mut rng_gw, &mut rng_net);
        }
    });
    runner.schedule_global(Nanos::from_millis(200), |ctx| {
        let dir = ctx.cell(0).world.directory_snapshot();
        let primary = dir.server_of(HOT[0]).expect("hot actor placed");
        fail_server_sharded(ctx, primary);
        ctx.schedule_global(Nanos::from_millis(260), move |ctx| {
            recover_server_sharded(ctx, primary);
        });
    });
    runner.run_until(Nanos::from_millis(700), threads);
    let mut merged = ClusterMetrics::new(series_bin);
    let mut spans = Vec::new();
    for cell in runner.cells() {
        merged.merge_from(cell.world.metrics());
        spans.extend_from_slice(cell.world.trace().spans());
    }
    assert!(merged.splits > 0 && merged.replica_drops > 0);
    assert!(merged.replica_reads > 0 && merged.replica_writes > 0);
    let at = Nanos::from_millis(200);
    assert!(drops_at(&spans, |t| t == at) > 0, "no crash drop");
    let dir = runner.cells()[0].world.directory_snapshot();
    let fp = fingerprint(&merged, &dir, 6, &spans);
    let mut hops: Vec<SpanEvent> = spans
        .into_iter()
        .filter(|s| REP_HOPS.contains(&s.kind))
        .collect();
    hops.sort_by_key(|s| (s.t_start, s.kind.name(), s.server, s.request, s.aux));
    (fp, hops)
}

#[test]
fn golden_replication_sharded() {
    let (one, one_hops) = sharded_run(1, 1);
    check("sharded", &one, SHARDED);
    let (two, two_hops) = sharded_run(2, 2);
    let without_digest = |fp: &str| {
        fp.lines()
            .filter(|l| !l.starts_with("spans digest") && !l.starts_with("lifecycle"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(without_digest(&one), without_digest(&two));
    assert_eq!(one_hops, two_hops, "replication spans at 2 shards");
}

const SEQUENTIAL: &str = r"submitted=3400
completed=3399
rejected=0
timed_out=1
shed_no_live=0
stale_responses=0
remote_messages=0
local_messages=0
forwarded_messages=1763
lost_in_flight=0
net_dropped=0
forward_loop_drops=0
zombie_branches=0
retries=0
retry_backoff_ns=0
retry_budget_exhausted=0
migrations=0
migration_stall_ns=0
migrations_aborted=0
server_failures=2
heartbeats_sent=0
heartbeats_dropped=0
suspicions=0
unsuspicions=0
directory_repairs=0
false_suspicion_repairs=0
slo_alerts_opened=0
slo_alerts_closed=0
splits=10
splits_aborted=0
replica_drops=10
replica_reads=947
replica_writes=107
snap_rounds_started=0
snap_rounds_completed=0
snap_rounds_aborted=0
snap_rounds_skipped=0
snap_captures=0
snap_bytes=0
snap_inflight=0
state_writes=0
restores=0
restore_replayed=0
restores_deferred=0
spans split=10
spans split-abort=0
spans replica-drop=10
spans replica-read=947
lifecycle spans=17094 digest=90b7653ab3f56fa3
spans digest=64307da411aad9b3";

const SEQUENTIAL_DETECTOR: &str = r"submitted=3400
completed=3379
rejected=0
timed_out=21
shed_no_live=0
stale_responses=0
remote_messages=0
local_messages=0
forwarded_messages=1654
lost_in_flight=175
net_dropped=0
forward_loop_drops=0
zombie_branches=0
retries=155
retry_backoff_ns=684107903
retry_budget_exhausted=20
migrations=0
migration_stall_ns=0
migrations_aborted=0
server_failures=1
heartbeats_sent=693
heartbeats_dropped=0
suspicions=3
unsuspicions=0
directory_repairs=15
false_suspicion_repairs=0
slo_alerts_opened=0
slo_alerts_closed=0
splits=6
splits_aborted=0
replica_drops=4
replica_reads=1224
replica_writes=169
snap_rounds_started=0
snap_rounds_completed=0
snap_rounds_aborted=0
snap_rounds_skipped=0
snap_captures=0
snap_bytes=0
snap_inflight=0
state_writes=0
restores=0
restore_replayed=0
restores_deferred=0
replicas 7: primary=Some(0) replicas=[2]
replicas 11: primary=Some(0) replicas=[2]
spans split=6
spans split-abort=0
spans replica-drop=4
spans replica-read=1224
lifecycle spans=17333 digest=de3b0037956ea0db
spans digest=a4a0614069da1938";

const SHARDED: &str = r"submitted=3400
completed=3400
rejected=0
timed_out=0
shed_no_live=0
stale_responses=0
remote_messages=0
local_messages=0
forwarded_messages=2248
lost_in_flight=105
net_dropped=0
forward_loop_drops=0
zombie_branches=0
retries=105
retry_backoff_ns=130439472
retry_budget_exhausted=0
migrations=0
migration_stall_ns=0
migrations_aborted=0
server_failures=1
heartbeats_sent=0
heartbeats_dropped=0
suspicions=0
unsuspicions=0
directory_repairs=0
false_suspicion_repairs=0
slo_alerts_opened=0
slo_alerts_closed=0
splits=8
splits_aborted=0
replica_drops=5
replica_reads=1128
replica_writes=113
snap_rounds_started=0
snap_rounds_completed=0
snap_rounds_aborted=0
snap_rounds_skipped=0
snap_captures=0
snap_bytes=0
snap_inflight=0
state_writes=0
restores=0
restore_replayed=0
restores_deferred=0
replicas 7: primary=Some(1) replicas=[2]
replicas 11: primary=Some(2) replicas=[3, 4]
spans split=8
spans split-abort=0
spans replica-drop=5
spans replica-read=1128
lifecycle spans=18400 digest=9a30ff1feff25f78
spans digest=5b7ded95d2b0864b";
