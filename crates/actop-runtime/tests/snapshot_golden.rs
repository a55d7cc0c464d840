//! The snapshot subsystem pinned absolutely on both backends.
//!
//! The 1-vs-N-shard tests pin the sharded runs only relative to each
//! other, and the recovery tests check invariants (zero lost or
//! duplicated transitions), not values. These fingerprints catch any
//! change to what the snapshot subsystem does: every `ClusterMetrics`
//! counter, the durable store's totals and committed rounds, and every
//! snapshot-hop span (kind, server, request, aux, time) of a fully
//! sampled trace, plus one digest of every message-lifecycle span
//! (admission, wire, dispatch, forward, loss, retry, shed, stale
//! response, completion). Re-record deliberately with
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -p actop-runtime --test snapshot_golden -- --nocapture
//! ```

use actop_runtime::app::FixedCostApp;
use actop_runtime::sharded::{
    fail_server_sharded, install_sharded_hooks, recover_server_sharded,
    submit_client_request_sharded,
};
use actop_runtime::{
    build_sharded, install_snapshots_sharded, sharded_lookahead, ActorId, AppLogic, Call, Cluster,
    ClusterMetrics, Reaction, RuntimeConfig, SnapshotConfig, SnapshotStore, TraceConfig,
};
use actop_sim::{mix64, ConservativeRunner, DetRng, Engine, Nanos};
use actop_trace::{HopKind, SpanEvent};

const SNAP_HOPS: [HopKind; 7] = [
    HopKind::SnapBegin,
    HopKind::SnapMarker,
    HopKind::SnapCapture,
    HopKind::SnapComplete,
    HopKind::SnapAbort,
    HopKind::StateWrite,
    HopKind::Restore,
];

/// Every counter by name, the store's totals, and the snapshot-hop spans
/// (per-kind counts plus an order-sensitive digest of every field).
fn fingerprint(m: &ClusterMetrics, store: &SnapshotStore, spans: &[SpanEvent]) -> String {
    let mut out: Vec<String> = ClusterMetrics::COUNTERS
        .iter()
        .map(|c| format!("{}={}", c.name, (c.read)(m)))
        .collect();
    out.push(format!(
        "store journal_len={} durable_versions={} complete_rounds={:?}",
        store.total_journal_len(),
        store.total_durable_versions(),
        store.complete_rounds()
    ));
    let hops: Vec<&SpanEvent> = spans
        .iter()
        .filter(|s| SNAP_HOPS.contains(&s.kind))
        .collect();
    for kind in SNAP_HOPS {
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

/// The write tag under the default `write_tags = 0b10` mask.
const TAG_WRITE: u32 = 1;

/// Sequential backend: a write stream through 50 ms rounds; server 2
/// crashes mid-round at 203 ms and stays down across every later round;
/// the store server crashes mid-round at 352 ms (its cells die, and
/// their next touches defer while it is down) and recovers at 430 ms.
fn sequential_run() -> String {
    let mut cfg = RuntimeConfig::paper_testbed(2);
    cfg.servers = 4;
    cfg.request_timeout = Some(Nanos::from_secs(2));
    cfg.trace = Some(TraceConfig::default());
    cfg.snapshot = Some(SnapshotConfig {
        interval: Nanos::from_millis(50),
        capture_window: Nanos::from_millis(10),
        ..SnapshotConfig::default()
    });
    let app: Box<dyn AppLogic> = Box::new(FixedCostApp {
        cpu_ns: 30_000.0,
        reply_bytes: 200,
    });
    let mut cluster = Cluster::new(cfg, app);
    let mut engine: Engine<Cluster> = Engine::new();
    cluster.install_snapshots(&mut engine, Nanos::from_millis(700));
    let mut rng = DetRng::stream(2, 0x77);
    for i in 0..1_200u64 {
        let actor = ActorId(rng.range_inclusive(0, 59));
        // Every fourth request reads: it touches (and may restore) state
        // without writing it.
        let tag = if i % 4 == 3 { 0 } else { TAG_WRITE };
        engine.schedule(Nanos::from_micros(500 * i), move |c: &mut Cluster, e| {
            c.submit_client_request(e, actor, tag, 300);
        });
    }
    engine.schedule(Nanos::from_millis(203), |c: &mut Cluster, e| {
        c.fail_server(e, 2);
    });
    engine.schedule(Nanos::from_millis(352), |c: &mut Cluster, e| {
        c.fail_server(e, 0);
    });
    engine.schedule(Nanos::from_millis(430), |c: &mut Cluster, e| {
        c.recover_server(e.now(), 0);
    });
    engine.run(&mut cluster);
    let m = &cluster.metrics;
    assert!(m.snap_rounds_aborted >= 2 && m.snap_rounds_skipped >= 1);
    assert!(m.restores_deferred > 0 && m.restores > 0);
    let store = cluster.snapshot_store().expect("snapshots on");
    fingerprint(m, store, cluster.trace.spans())
}

#[test]
fn golden_snapshots_sequential() {
    check("sequential", &sequential_run(), SEQUENTIAL);
}

/// Requests fan out to a couple of peer actors; peers reply directly.
struct FanApp;

impl AppLogic for FanApp {
    fn on_request(&self, actor: ActorId, tag: u32, rng: &mut DetRng) -> Reaction {
        if tag == 1 {
            let fan = 2 + rng.below(2);
            let calls = (0..fan)
                .map(|j| Call {
                    to: ActorId(100 + (actor.0 * 7 + j as u64) % 9),
                    tag: 0,
                    bytes: 64,
                })
                .collect();
            Reaction::fan_out(4_000.0 + rng.below(2_000) as f64, calls, 128)
        } else {
            Reaction::reply(2_000.0 + rng.below(1_000) as f64, 64)
        }
    }
}

/// Sharded backend, the shape of the sharded unit tests' snapshot chaos
/// case: the store server and server 3 crash inside the round begun at
/// 10 ms, and the store recovers at 29 ms. Returns the fingerprint (spans
/// in recording order, which one shard makes total) and the snapshot
/// spans sorted, for the cross-layout comparison.
fn sharded_run(shards: usize, threads: usize) -> (String, Vec<SpanEvent>) {
    let mut config = RuntimeConfig::paper_testbed(11);
    config.servers = 6;
    config.record_remote_call_latency = true;
    config.series_bin_ns = 10_000_000;
    config.trace = Some(TraceConfig::default());
    config.snapshot = Some(SnapshotConfig {
        interval: Nanos::from_millis(10),
        capture_window: Nanos::from_millis(6),
        ..SnapshotConfig::default()
    });
    let lookahead = sharded_lookahead(&config);
    let series_bin = config.series_bin_ns;
    let worlds = build_sharded(config, Box::new(FanApp), shards);
    let mut runner = ConservativeRunner::new(worlds, lookahead);
    install_sharded_hooks(&mut runner);
    install_snapshots_sharded(&mut runner, Nanos::from_millis(120));
    let mut rng_gw = DetRng::stream(9, 0x90);
    let mut rng_net = DetRng::stream(9, 0x91);
    runner.schedule_global(Nanos::ZERO, move |ctx| {
        for i in 0..500u64 {
            let at = Nanos::from_micros(150 * i);
            submit_client_request_sharded(
                ctx,
                at,
                ActorId(1 + i % 8),
                1,
                256,
                i,
                &mut rng_gw,
                &mut rng_net,
            );
        }
    });
    runner.schedule_global(Nanos::from_millis(14), |ctx| {
        fail_server_sharded(ctx, 0);
        fail_server_sharded(ctx, 3);
    });
    runner.schedule_global(Nanos::from_millis(29), |ctx| {
        recover_server_sharded(ctx, 0);
    });
    runner.run_until(Nanos::from_millis(120), threads);
    let mut merged = ClusterMetrics::new(series_bin);
    let mut spans = Vec::new();
    for cell in runner.cells() {
        merged.merge_from(cell.world.metrics());
        spans.extend_from_slice(cell.world.trace().spans());
    }
    assert!(merged.restores_deferred > 0 && merged.snap_rounds_aborted > 0);
    let fp = runner.cells()[0]
        .world
        .with_snapshot_store(|store| fingerprint(&merged, store, &spans))
        .expect("snapshots on");
    let mut hops: Vec<SpanEvent> = spans
        .into_iter()
        .filter(|s| SNAP_HOPS.contains(&s.kind))
        .collect();
    hops.sort_by_key(|s| (s.t_start, s.kind.name(), s.server, s.request, s.aux));
    (fp, hops)
}

#[test]
fn golden_snapshots_sharded() {
    let (one, one_hops) = sharded_run(1, 1);
    check("sharded", &one, SHARDED);
    let (two, two_hops) = sharded_run(2, 2);
    let counters_and_store = |fp: &str| {
        fp.lines()
            .filter(|l| !l.starts_with("spans digest") && !l.starts_with("lifecycle"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(counters_and_store(&one), counters_and_store(&two));
    assert_eq!(one_hops, two_hops, "snapshot spans at 2 shards");
}

/// The SEDA process spans: every queue wait and every service.
const PROCESS_HOPS: [HopKind; 2] = [HopKind::QueueWait, HopKind::Service];

/// The restart input's extra lines: events executed and the process
/// spans (count plus an order-sensitive digest of every field).
fn process_lines(events: u64, spans: &[SpanEvent]) -> String {
    let hops: Vec<&SpanEvent> = spans
        .iter()
        .filter(|s| PROCESS_HOPS.contains(&s.kind))
        .collect();
    let digest = hops.iter().fold(0u64, |h, s| {
        [
            u64::from(s.kind == HopKind::Service),
            u64::from(s.server),
            u64::from(s.stage),
            s.request,
            s.t_start.as_nanos(),
            s.t_end.as_nanos(),
        ]
        .iter()
        .fold(h, |h, &v| mix64(h ^ v))
    });
    format!(
        "events={events}\nprocess spans={} digest={digest:016x}",
        hops.len()
    )
}

/// The flash-restart input, one shape on both backends: one thread per
/// stage (so items queue), fan-out requests in bursts of four every
/// 200 µs for 20 ms, 5 ms snapshot rounds, and server 1 crashing at 7 ms
/// and booting a fresh process at the same instant. It pins what a
/// restart must discard: the dead process's pending CPU completion (the
/// event count) and its joins (sub-replies in flight reach the fresh
/// process as stale responses), plus every queue-wait and service span.
fn restart_config() -> RuntimeConfig {
    let mut cfg = RuntimeConfig::paper_testbed(5);
    cfg.servers = 4;
    cfg.initial_threads_per_stage = 1;
    cfg.trace = Some(TraceConfig::default());
    cfg.snapshot = Some(SnapshotConfig {
        interval: Nanos::from_millis(5),
        capture_window: Nanos::from_millis(3),
        ..SnapshotConfig::default()
    });
    cfg
}

const RESTART_REQUESTS: u64 = 400;
const RESTART_AT: Nanos = Nanos::from_millis(7);
const RESTART_HORIZON: Nanos = Nanos::from_millis(60);

fn restart_arrival(i: u64) -> (Nanos, ActorId) {
    (Nanos::from_micros(200 * (i / 4)), ActorId(1 + i % 8))
}

fn sequential_restart_run() -> String {
    let mut cfg = restart_config();
    cfg.request_timeout = Some(Nanos::from_millis(30));
    let mut cluster = Cluster::new(cfg, Box::new(FanApp));
    let mut engine: Engine<Cluster> = Engine::new();
    cluster.install_snapshots(&mut engine, RESTART_HORIZON);
    for i in 0..RESTART_REQUESTS {
        let (at, actor) = restart_arrival(i);
        engine.schedule(at, move |c: &mut Cluster, e| {
            c.submit_client_request(e, actor, 1, 256);
        });
    }
    engine.schedule(RESTART_AT, |c: &mut Cluster, e| {
        c.fail_server(e, 1);
        c.recover_server(e.now(), 1);
    });
    engine.run(&mut cluster);
    let m = &cluster.metrics;
    assert_eq!(m.server_failures, 1);
    assert_eq!(m.completed + m.rejected + m.timed_out, m.submitted);
    let store = cluster.snapshot_store().expect("snapshots on");
    let spans = cluster.trace.spans();
    let events = engine.report().events_processed;
    format!(
        "{}\n{}",
        fingerprint(m, store, spans),
        process_lines(events, spans)
    )
}

#[test]
fn golden_restart_sequential() {
    check(
        "restart sequential",
        &sequential_restart_run(),
        RESTART_SEQUENTIAL,
    );
}

fn sharded_restart_run(shards: usize, threads: usize) -> String {
    let config = restart_config();
    let lookahead = sharded_lookahead(&config);
    let series_bin = config.series_bin_ns;
    let worlds = build_sharded(config, Box::new(FanApp), shards);
    let mut runner = ConservativeRunner::new(worlds, lookahead);
    install_sharded_hooks(&mut runner);
    install_snapshots_sharded(&mut runner, RESTART_HORIZON);
    let mut rng_gw = DetRng::stream(5, 0x90);
    let mut rng_net = DetRng::stream(5, 0x91);
    runner.schedule_global(Nanos::ZERO, move |ctx| {
        for i in 0..RESTART_REQUESTS {
            let (at, actor) = restart_arrival(i);
            submit_client_request_sharded(ctx, at, actor, 1, 256, i, &mut rng_gw, &mut rng_net);
        }
    });
    runner.schedule_global(RESTART_AT, |ctx| {
        fail_server_sharded(ctx, 1);
        recover_server_sharded(ctx, 1);
    });
    runner.run_until(RESTART_HORIZON, threads);
    let mut merged = ClusterMetrics::new(series_bin);
    let mut spans = Vec::new();
    let mut events = 0;
    for cell in runner.cells() {
        merged.merge_from(cell.world.metrics());
        spans.extend_from_slice(cell.world.trace().spans());
        events += cell.engine.report().events_processed;
    }
    assert_eq!(merged.server_failures, 1);
    let fp = runner.cells()[0]
        .world
        .with_snapshot_store(|store| fingerprint(&merged, store, &spans))
        .expect("snapshots on");
    format!("{fp}\n{}", process_lines(events, &spans))
}

#[test]
fn golden_restart_sharded() {
    let one = sharded_restart_run(1, 1);
    check("restart sharded", &one, RESTART_SHARDED);
    // Counters and store agree across layouts; span order, and with it
    // the digests, follows the shard split.
    let counters_and_store = |fp: &str| {
        fp.lines()
            .filter(|l| !l.starts_with("spans digest") && !l.starts_with("process spans"))
            .filter(|l| !l.starts_with("lifecycle"))
            .filter(|l| !l.starts_with("events="))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let two = sharded_restart_run(2, 2);
    assert_eq!(counters_and_store(&one), counters_and_store(&two));
}

const RESTART_SEQUENTIAL: &str = r"submitted=400
completed=396
rejected=0
timed_out=4
shed_no_live=0
stale_responses=0
remote_messages=1454
local_messages=533
forwarded_messages=299
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
server_failures=1
heartbeats_sent=0
heartbeats_dropped=0
suspicions=0
unsuspicions=0
directory_repairs=0
false_suspicion_repairs=0
slo_alerts_opened=0
slo_alerts_closed=0
splits=0
splits_aborted=0
replica_drops=0
replica_reads=0
replica_writes=0
snap_rounds_started=12
snap_rounds_completed=11
snap_rounds_aborted=1
snap_rounds_skipped=0
snap_captures=96
snap_bytes=24576
snap_inflight=76
state_writes=397
restores=1
restore_replayed=14
restores_deferred=0
store journal_len=0 durable_versions=397 complete_rounds=[2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
spans snap-begin=12
spans snap-marker=48
spans snap-capture=96
spans snap-complete=11
spans snap-abort=1
spans state-write=397
spans restore=1
lifecycle spans=4634 digest=53595ed8d952d782
spans digest=964f7cf4d8e6e697
events=10324
process spans=13948 digest=c5ce83bfc9ae99b9";

const RESTART_SHARDED: &str = r"submitted=400
completed=376
rejected=0
timed_out=0
shed_no_live=0
stale_responses=10
remote_messages=1976
local_messages=0
forwarded_messages=310
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
server_failures=1
heartbeats_sent=0
heartbeats_dropped=0
suspicions=0
unsuspicions=0
directory_repairs=0
false_suspicion_repairs=0
slo_alerts_opened=0
slo_alerts_closed=0
splits=0
splits_aborted=0
replica_drops=0
replica_reads=0
replica_writes=0
snap_rounds_started=11
snap_rounds_completed=10
snap_rounds_aborted=1
snap_rounds_skipped=0
snap_captures=88
snap_bytes=22528
snap_inflight=88
state_writes=392
restores=1
restore_replayed=14
restores_deferred=0
store journal_len=0 durable_versions=392 complete_rounds=[2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
spans snap-begin=11
spans snap-marker=44
spans snap-capture=88
spans snap-complete=10
spans snap-abort=1
spans state-write=392
spans restore=1
lifecycle spans=5142 digest=d867ebabcf9d434e
spans digest=dfbc8791f67f9328
events=10914
process spans=15940 digest=dc1a56b8a769d589";

const SEQUENTIAL: &str = r"submitted=1200
completed=1199
rejected=0
timed_out=1
shed_no_live=0
stale_responses=0
remote_messages=0
local_messages=0
forwarded_messages=848
lost_in_flight=1
net_dropped=0
forward_loop_drops=0
zombie_branches=0
retries=1
retry_backoff_ns=1236852
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
splits=0
splits_aborted=0
replica_drops=0
replica_reads=0
replica_writes=0
snap_rounds_started=13
snap_rounds_completed=11
snap_rounds_aborted=2
snap_rounds_skipped=1
snap_captures=644
snap_bytes=164864
snap_inflight=2
state_writes=900
restores=33
restore_replayed=40
restores_deferred=136
store journal_len=0 durable_versions=900 complete_rounds=[1, 2, 3, 5, 6, 8, 9, 10, 11, 12, 13]
spans snap-begin=13
spans snap-marker=43
spans snap-capture=644
spans snap-complete=11
spans snap-abort=2
spans state-write=900
spans restore=33
lifecycle spans=6466 digest=bf8f5a019bc21a5b
spans digest=7e42a694a46d1d28";

const SHARDED: &str = r"submitted=500
completed=495
rejected=0
timed_out=0
shed_no_live=0
stale_responses=7
remote_messages=1503
local_messages=1006
forwarded_messages=405
lost_in_flight=86
net_dropped=0
forward_loop_drops=0
zombie_branches=0
retries=79
retry_backoff_ns=98587096
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
splits=0
splits_aborted=0
replica_drops=0
replica_reads=0
replica_writes=0
snap_rounds_started=10
snap_rounds_completed=9
snap_rounds_aborted=1
snap_rounds_skipped=1
snap_captures=80
snap_bytes=20480
snap_inflight=264
state_writes=493
restores=4
restore_replayed=42
restores_deferred=54
store journal_len=0 durable_versions=493 complete_rounds=[2, 3, 4, 5, 6, 7, 8, 9, 10]
spans snap-begin=10
spans snap-marker=51
spans snap-capture=80
spans snap-complete=9
spans snap-abort=1
spans state-write=493
spans restore=4
lifecycle spans=5803 digest=c398d8b4a6e0a3cd
spans digest=941ea1acb0c26501";
