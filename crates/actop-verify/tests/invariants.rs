//! Invariant-checker acceptance against *real* runtime traces: a fully
//! instrumented run under a crash fault plan comes out clean, the JSONL
//! export round-trips to the same verdict, and deliberately corrupted
//! variants of the same trace are rejected with precise reports.

use actop_chaos::{install_plan, CrashWindows, FaultPlan};
use actop_core::experiment::run_steady_state;
use actop_runtime::app::FixedCostApp;
use actop_runtime::{ActorId, Cluster, DetectorConfig, RuntimeConfig, TraceConfig};
use actop_sim::{Engine, Nanos};
use actop_trace::{spans_jsonl, HopKind, SpanEvent};
use actop_verify::{check_events, check_jsonl, CheckerConfig};
use actop_workloads::uniform::{self, UniformWorkload};

const SERVERS: usize = 4;
const WARMUP: Nanos = Nanos::from_secs(2);
const MEASURE: Nanos = Nanos::from_secs(8);
const TIMEOUT: Nanos = Nanos::from_secs(1);
const TRANSFER: Nanos = Nanos::from_millis(2);

/// One instrumented run under a single-crash plan; returns the recorded
/// spans, their JSONL export, and the matching checker config.
fn crashy_run(seed: u64) -> (Vec<SpanEvent>, String, CheckerConfig) {
    let plan = FaultPlan::single_crash(1, Nanos::from_secs(2), Nanos::from_secs(3));
    let duration = WARMUP + MEASURE;
    let (app, workload) = UniformWorkload::build(uniform::counter(800.0, duration, seed));
    let mut rt = RuntimeConfig::paper_testbed(seed);
    rt.servers = SERVERS;
    rt.request_timeout = Some(TIMEOUT);
    rt.migration_transfer = Some(TRANSFER);
    rt.detector = Some(DetectorConfig::default());
    rt.trace = Some(TraceConfig {
        sample_rate: 1.0,
        seed,
        ..TraceConfig::default()
    });
    let mut cluster = Cluster::new(rt, app);
    let mut engine: Engine<Cluster> = Engine::new();
    workload.install(&mut engine);
    cluster.install_heartbeats(&mut engine, duration);
    install_plan(&mut engine, &cluster, &plan, WARMUP);
    run_steady_state(&mut engine, &mut cluster, WARMUP, MEASURE);
    assert_eq!(cluster.trace.dropped_spans(), 0, "trace truncated");

    let cfg = CheckerConfig {
        crash_windows: plan.crash_windows(SERVERS, WARMUP, duration + Nanos::from_secs(5)),
        migration_transfer: Some(TRANSFER),
        open_at_end_grace: TIMEOUT * 2,
        ..CheckerConfig::default()
    };
    let jsonl = spans_jsonl(&cluster.trace);
    (cluster.trace.spans().to_vec(), jsonl, cfg)
}

#[test]
fn instrumented_crash_run_is_clean_and_round_trips_through_jsonl() {
    let (spans, jsonl, cfg) = crashy_run(99);
    let report = check_events(&spans, &cfg);
    assert!(
        report.is_clean(),
        "real trace flagged: {:?}",
        &report.violations[..report.violations.len().min(5)]
    );
    assert!(report.lifecycles > 1_000, "run too small to mean anything");
    assert_eq!(
        report.lifecycles,
        report.terminals + report.in_flight_at_end,
        "every admitted request is accounted for"
    );
    // The crash actually happened and the machinery reacted to it.
    assert_eq!(report.kind_count("server-fail"), 1);
    assert!(report.kind_count("suspect") > 0, "detector never fired");

    // The exported JSONL is the same trace to the checker.
    let reparsed = check_jsonl(&jsonl, &cfg).expect("export parses");
    assert!(reparsed.is_clean());
    assert_eq!(reparsed.events, report.events);
    assert_eq!(reparsed.kind_counts, report.kind_counts);
}

#[test]
fn dropped_terminal_is_rejected() {
    let (mut spans, _jsonl, cfg) = crashy_run(99);
    // Corrupt: drop a completion from the middle of the run. The request
    // id is a slab slot, so either its reuse trips readmit-without-
    // terminal or, failing that, end-of-trace finds the lifecycle open.
    let victim = spans
        .iter()
        .position(|e| e.kind == HopKind::ClientDone)
        .expect("run completed requests");
    let victim_req = spans[victim].request;
    spans.remove(victim);
    let report = check_events(&spans, &cfg);
    assert!(!report.is_clean(), "dropped terminal went unnoticed");
    let v = &report.violations[0];
    assert!(
        v.rule == "readmit-without-terminal" || v.rule == "missing-terminal",
        "unexpected rule {} ({})",
        v.rule,
        v
    );
    assert_eq!(v.request, victim_req, "report names the wrong request: {v}");
}

#[test]
fn service_during_crash_is_rejected() {
    let (mut spans, _jsonl, cfg) = crashy_run(99);
    // Corrupt: teleport one service span onto the crashed server, inside
    // its down window (plan: server 1 down over warmup+[2s, 3s)).
    let victim = spans
        .iter()
        .position(|e| e.kind == HopKind::Service)
        .expect("run recorded service spans");
    let mid = WARMUP + Nanos::from_millis(2_500);
    spans[victim].server = 1;
    spans[victim].t_start = mid;
    spans[victim].t_end = mid + Nanos::from_micros(80);
    let report = check_events(&spans, &cfg);
    let hit = report
        .violations
        .iter()
        .find(|v| v.rule == "service-during-crash")
        .expect("corruption went unnoticed");
    assert_eq!(hit.request, spans[victim].request);
    assert!(hit.detail.contains("server 1"), "imprecise report: {hit}");
}

#[test]
fn reordered_events_are_rejected() {
    let (mut spans, _jsonl, cfg) = crashy_run(99);
    // Corrupt: swap two same-server service records from different halves
    // of the run.
    let on_server_0: Vec<usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == HopKind::Service && e.server == 0)
        .map(|(i, _)| i)
        .collect();
    assert!(on_server_0.len() > 100);
    let (a, b) = (on_server_0[10], on_server_0[on_server_0.len() - 10]);
    spans.swap(a, b);
    let report = check_events(&spans, &cfg);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "time-regression"),
        "reordering went unnoticed: {:?}",
        &report.violations[..report.violations.len().min(3)]
    );
}

#[test]
fn fault_free_run_needs_no_crash_windows() {
    // Same workload, no plan, defaults: clean, and no fault machinery in
    // the trace at all.
    let duration = WARMUP + MEASURE;
    let (app, workload) = UniformWorkload::build(uniform::counter(600.0, duration, 5));
    let mut rt = RuntimeConfig::paper_testbed(5);
    rt.servers = SERVERS;
    rt.request_timeout = Some(TIMEOUT);
    rt.trace = Some(TraceConfig {
        sample_rate: 1.0,
        seed: 5,
        ..TraceConfig::default()
    });
    let mut cluster = Cluster::new(rt, app);
    let mut engine: Engine<Cluster> = Engine::new();
    workload.install(&mut engine);
    run_steady_state(&mut engine, &mut cluster, WARMUP, MEASURE);
    let cfg = CheckerConfig {
        open_at_end_grace: TIMEOUT * 2,
        ..CheckerConfig::default()
    };
    let report = check_events(cluster.trace.spans(), &cfg);
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    for kind in ["server-fail", "suspect", "retry", "shed", "timeout"] {
        assert_eq!(report.kind_count(kind), 0, "unexpected {kind} events");
    }
}

/// A hot-actor split whose transfer window a crash of either endpoint
/// cuts: the split aborts cleanly. Actor 7 sits on server 0 and starts
/// splitting to server 1 at 1 ms with a 50 ms transfer window; server
/// `crashed` dies at 20 ms, inside the window. One `SplitAbort` (primary
/// 0, destination 1) and no `Split`, no replica and nothing in flight.
fn aborted_split(crashed: usize) {
    let mut rt = RuntimeConfig::paper_testbed(7);
    rt.servers = 3;
    rt.migration_transfer = Some(Nanos::from_millis(50));
    rt.trace = Some(TraceConfig::default());
    let app = FixedCostApp {
        cpu_ns: 30_000.0,
        reply_bytes: 200,
    };
    let mut cluster = Cluster::new(rt, Box::new(app));
    cluster.directory.place(7, 0);
    let mut engine: Engine<Cluster> = Engine::new();
    engine.schedule(Nanos::from_millis(1), |c: &mut Cluster, e| {
        c.split_actor(e, e.now(), ActorId(7), 1);
        assert_eq!(c.splits_in_flight(), 1);
    });
    engine.schedule(Nanos::from_millis(20), move |c: &mut Cluster, e| {
        c.fail_server(e, crashed);
    });
    engine.run(&mut cluster);

    assert_eq!(cluster.metrics.splits_aborted, 1);
    assert_eq!(cluster.metrics.splits, 0);
    assert_eq!(cluster.splits_in_flight(), 0);
    assert!(cluster.directory.replicas_of(7).is_empty());
    let aborts: Vec<(u32, u64)> = cluster
        .trace
        .spans()
        .iter()
        .filter(|s| s.kind == HopKind::SplitAbort)
        .map(|s| (s.server, s.aux))
        .collect();
    assert_eq!(aborts, [(0, 1)]);
    let cfg = CheckerConfig {
        crash_windows: CrashWindows {
            windows: (0..3)
                .map(|s| {
                    if s == crashed {
                        vec![(Nanos::from_millis(20), Nanos::from_secs(1))]
                    } else {
                        Vec::new()
                    }
                })
                .collect(),
        },
        migration_transfer: Some(Nanos::from_millis(50)),
        ..CheckerConfig::default()
    };
    let report = check_events(cluster.trace.spans(), &cfg);
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(report.kind_count("split"), 0);
    assert_eq!(report.kind_count("split-abort"), 1);
}

#[test]
fn split_aborts_when_its_destination_crashes() {
    aborted_split(1);
}

#[test]
fn split_aborts_when_its_primary_crashes() {
    aborted_split(0);
}
