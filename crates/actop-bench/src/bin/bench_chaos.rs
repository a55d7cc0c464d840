//! Chaos sweep: the fault-recovery machinery under seed-derived fault
//! plans.
//!
//! Not a paper figure — the paper assumes Orleans' fault tolerance and
//! never injects faults in the evaluation. This bench closes that gap: it
//! drives the Halo workload through a vocabulary of fault plans (single
//! crash + recovery, rolling crashes, a straggler, a gray failure, a soft
//! partition) with the heartbeat failure detector switched on, and reports
//! what an operator would ask about each: goodput over time, tail latency,
//! SLO-violation windows, retry/repair work, and detector accuracy
//! (suspicion vs ground truth, sampled every 100 ms).
//!
//! Everything is deterministic: same seed, same plan, byte-identical
//! output and `BENCH_chaos.json` (the trailing `engine:` line carries wall
//! time and is excluded from determinism diffs). `ACTOP_CHAOS_SMOKE=1`
//! shrinks the sweep to seconds for CI.

use std::fmt::Write as _;

use actop_bench::{
    full_scale, maybe_export_obs, maybe_export_trace, print_engine_line, print_row,
    snapshot_config_from_env, trace_config_from_env, HaloScenario,
};
use actop_chaos::{install_plan, FaultPlan};
use actop_core::controllers::install_actop;
use actop_core::experiment::{run_steady_state, RunSummary};
use actop_obs::{SloKind, SloSpec};
use actop_runtime::sharded::{fail_server_sharded, install_sharded_hooks, recover_server_sharded};
use actop_runtime::{
    build_sharded, install_snapshots_sharded, sharded_lookahead, Cluster, DetectorAccuracy,
    DetectorConfig, ObsConfig, RuntimeConfig,
};
use actop_sim::{ConservativeRunner, Engine, EngineReport, Nanos};
use actop_workloads::halo::HaloConfig;
use actop_workloads::HaloWorkload;

/// Bin-mean end-to-end latency above this marks an SLO-violation window.
const SLO_MS: f64 = 100.0;

/// The declarative SLO the sweep evaluates (via the runtime's telemetry
/// layer, which replaced this bench's hand-rolled window scan).
fn chaos_slo() -> SloSpec {
    SloSpec::new("latency_mean_100ms", SloKind::MeanLatencyBelowMs(SLO_MS))
}

fn smoke() -> bool {
    std::env::var("ACTOP_CHAOS_SMOKE").is_ok_and(|v| v == "1")
}

/// One plan's results, reduced to plain data for reporting.
struct PlanResult {
    name: String,
    summary: RunSummary,
    accuracy: DetectorAccuracy,
    /// `[start_s, end_s)` SLO-violation windows relative to measurement
    /// start, from the telemetry layer's SLO engine.
    windows: Vec<(usize, usize)>,
    /// Per-measurement-bin (goodput_per_s, mean_latency_ms), 1 s bins.
    bins: Vec<(f64, f64)>,
    flight_dumps: usize,
    report: EngineReport,
    /// Recovery-cost columns, present only under `ACTOP_SNAPSHOT=1`.
    snapshot: Option<SnapshotColumns>,
}

/// The snapshot subsystem's state-loss and recovery-cost columns for one
/// plan (`ACTOP_SNAPSHOT=1` runs only). `state_loss` is the in-memory vs
/// durable version delta — zero when the WAL lost nothing and no restore
/// served duplicated transitions — while `restores`/`replayed`/`deferred`
/// price the rehydration work the crashes induced.
#[derive(Debug, PartialEq, Eq)]
struct SnapshotColumns {
    state_writes: u64,
    journal_len: u64,
    durable_versions: u64,
    state_loss: i64,
    restores: u64,
    replayed: u64,
    deferred: u64,
    rounds_completed: u64,
    rounds_aborted: u64,
    rounds_skipped: u64,
    captures: u64,
    bytes: u64,
}

impl SnapshotColumns {
    fn of(m: &actop_runtime::ClusterMetrics, journal_len: u64, durable: u64, loss: i64) -> Self {
        SnapshotColumns {
            state_writes: m.state_writes,
            journal_len,
            durable_versions: durable,
            state_loss: loss,
            restores: m.restores,
            replayed: m.restore_replayed,
            deferred: m.restores_deferred,
            rounds_completed: m.snap_rounds_completed,
            rounds_aborted: m.snap_rounds_aborted,
            rounds_skipped: m.snap_rounds_skipped,
            captures: m.snap_captures,
            bytes: m.snap_bytes,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"state_writes\":{},\"journal_len\":{},\"durable_versions\":{},\"state_loss\":{},\"restores\":{},\"replayed\":{},\"deferred\":{},\"rounds_completed\":{},\"rounds_aborted\":{},\"rounds_skipped\":{},\"captures\":{},\"bytes\":{}}}",
            self.state_writes,
            self.journal_len,
            self.durable_versions,
            self.state_loss,
            self.restores,
            self.replayed,
            self.deferred,
            self.rounds_completed,
            self.rounds_aborted,
            self.rounds_skipped,
            self.captures,
            self.bytes,
        )
    }
}

fn run_plan(scenario: &HaloScenario, plan: &FaultPlan) -> PlanResult {
    let mut cfg = HaloConfig::paper_scale(
        scenario.players,
        scenario.request_rate,
        scenario.duration(),
        scenario.seed,
    );
    if !full_scale() {
        cfg.game_duration_s = (120.0, 180.0);
    }
    let (app, workload) = HaloWorkload::build(cfg);
    let mut rt = RuntimeConfig::paper_testbed(scenario.seed);
    rt.servers = scenario.servers;
    rt.request_timeout = Some(Nanos::from_secs(2));
    rt.detector = Some(DetectorConfig::default());
    rt.migration_transfer = Some(Nanos::from_millis(2));
    rt.series_bin_ns = 1_000_000_000; // 1 s bins for SLO windows.
    rt.snapshot = snapshot_config_from_env();
    rt.trace = trace_config_from_env(scenario.seed);
    rt.obs = Some(ObsConfig {
        slos: vec![chaos_slo()],
        ..ObsConfig::default()
    });
    let mut cluster = Cluster::new(rt, app);
    let mut engine: Engine<Cluster> = Engine::new();
    workload.install(&mut engine);
    install_actop(&mut engine, scenario.servers, &scenario.actop(true, true));
    cluster.install_heartbeats(&mut engine, scenario.duration());
    cluster.install_timeline_sampler(&mut engine, scenario.duration());
    cluster.install_scraper(&mut engine, scenario.duration());
    cluster.install_snapshots(&mut engine, scenario.duration());
    // Plans are authored relative to the measurement window.
    install_plan(&mut engine, &cluster, plan, scenario.warmup);
    cluster.install_accuracy_sampler(
        &mut engine,
        scenario.warmup,
        scenario.duration(),
        Nanos::from_millis(100),
    );

    let summary = run_steady_state(&mut engine, &mut cluster, scenario.warmup, scenario.measure);

    // The measurement-relative violation windows, straight from the SLO
    // engine (`run_steady_state` finalized it).
    let width = 1_000_000_000u64;
    let first = (scenario.warmup.as_nanos() / width) as usize;
    let last = (scenario.duration().as_nanos() / width) as usize;
    let windows: Vec<(usize, usize)> = cluster
        .obs
        .as_ref()
        .expect("chaos runs have telemetry on")
        .slo_engine()
        .windows_in(0, first, last)
        .iter()
        .map(|w| (w.start_bin, w.end_bin))
        .collect();
    // Goodput-over-time bins for the recovery assertions.
    let bins: Vec<(f64, f64)> = cluster
        .metrics
        .latency_series
        .bins()
        .iter()
        .enumerate()
        .filter(|(i, _)| *i >= first && *i < last)
        .map(|(_, b)| (b.count as f64, b.mean() / 1e6))
        .collect();
    let flight_dumps = cluster.trace.flight_dumps().len();
    let report = engine.report();
    maybe_export_trace(&cluster);
    maybe_export_obs(
        &cluster,
        &summary,
        &report,
        &plan.fault_notes(scenario.servers, scenario.warmup, scenario.duration()),
    );
    // Loss is the live-cell vs durable-image delta: zero means no
    // transition was lost or duplicated anywhere (the same invariant the
    // `crash_restore` plan audits mid-run).
    let divergence = cluster
        .state_divergence()
        .map_or(0, |(_, mem, durable)| mem as i64 - durable as i64);
    let snapshot = cluster.snapshot_store().map(|store| {
        SnapshotColumns::of(
            &cluster.metrics,
            store.total_journal_len(),
            store.total_durable_versions(),
            divergence,
        )
    });
    PlanResult {
        name: plan.name.clone(),
        summary,
        accuracy: cluster.detector_accuracy,
        windows,
        bins,
        flight_dumps,
        report,
        snapshot,
    }
}

/// Mean goodput (completions/s) over a bin range.
fn mean_goodput(bins: &[(f64, f64)]) -> f64 {
    if bins.is_empty() {
        return 0.0;
    }
    bins.iter().map(|b| b.0).sum::<f64>() / bins.len() as f64
}

/// Snapshot recovery counters from a sharded Halo chaos run: an ordinary
/// server and then the snapshot store's own host crash across live
/// rounds, and both recover. The acceptance gate asserts the returned
/// vector is identical at shard counts 1 and 4 — recovery cost must be a
/// property of the fault schedule, not of the thread layout.
fn sharded_recovery_counters(shards: usize) -> (SnapshotColumns, u64, u64) {
    let duration = Nanos::from_secs(12);
    let mut cfg = HaloConfig::paper_scale(1_000, 400.0, duration, 231);
    cfg.game_duration_s = (60.0, 90.0);
    let mut rt = RuntimeConfig::paper_testbed(231);
    rt.servers = 4;
    rt.request_timeout = None; // the sharded runtime rejects timeouts
                               // 1 s rounds so the 12 s run sees completes, an abort, and skips.
    rt.snapshot = snapshot_config_from_env().map(|mut s| {
        s.interval = Nanos::from_secs(1);
        s.capture_window = Nanos::from_millis(300);
        s
    });
    let series_bin = rt.series_bin_ns;
    let lookahead = sharded_lookahead(&rt);
    let (app, workload) = HaloWorkload::build(cfg);
    let worlds = build_sharded(rt, app, shards);
    let threads = worlds.len();
    let mut runner = ConservativeRunner::new(worlds, lookahead);
    install_sharded_hooks(&mut runner);
    workload.install(&mut runner);
    install_snapshots_sharded(&mut runner, duration);
    runner.schedule_global(Nanos::from_millis(4_200), |ctx| {
        fail_server_sharded(ctx, 2);
    });
    runner.schedule_global(Nanos::from_millis(5_500), |ctx| {
        recover_server_sharded(ctx, 2);
    });
    // The store's host: rounds skip and restores defer until recovery.
    runner.schedule_global(Nanos::from_millis(7_200), |ctx| {
        fail_server_sharded(ctx, 0);
    });
    runner.schedule_global(Nanos::from_millis(8_500), |ctx| {
        recover_server_sharded(ctx, 0);
    });
    runner.run_until(duration, threads);
    let mut m = actop_runtime::ClusterMetrics::new(series_bin);
    for cell in runner.cells() {
        m.merge_from(cell.world.metrics());
    }
    let (journal, durable) = runner.cells()[0]
        .world
        .with_snapshot_store(|store| (store.total_journal_len(), store.total_durable_versions()))
        .expect("snapshots on");
    // No steady-state reset here, so the executed-writes counter spans
    // the whole run and must equal the durable version sum exactly.
    let loss = m.state_writes as i64 - durable as i64;
    (
        SnapshotColumns::of(&m, journal, durable, loss),
        m.completed,
        m.server_failures,
    )
}

fn main() {
    let scenario = if smoke() {
        HaloScenario {
            players: 2_000,
            request_rate: 600.0,
            servers: 4,
            warmup: Nanos::from_secs(5),
            measure: Nanos::from_secs(20),
            seed: 230,
            game_duration_s: Some((60.0, 90.0)),
        }
    } else {
        HaloScenario::paper(4_000.0, 230)
    };
    let m = scenario.measure;
    let quarter = Nanos(m.as_nanos() / 4);
    let half = Nanos(m.as_nanos() / 2);
    let n = scenario.servers as u32;
    let snapshots_on = snapshot_config_from_env().is_some();
    let mut plans: Vec<FaultPlan> = vec![
        FaultPlan::new("baseline"),
        FaultPlan::single_crash(2, quarter, half),
        FaultPlan::rolling(
            &[0, 1, 2],
            Nanos(m.as_nanos() / 5),
            Nanos(m.as_nanos() / 6),
            Nanos(m.as_nanos() / 10),
        ),
        FaultPlan::straggler(1, 0.25, quarter, Nanos(m.as_nanos() * 3 / 4)),
        FaultPlan::gray(1, quarter, half),
        FaultPlan::partition(n / 2, n, Nanos::from_micros(500), 0.05, quarter, half),
    ];
    if snapshots_on {
        // The named crash_restore shape: crash, recover, and let the
        // plan's own audit event panic the run if state failed to
        // rehydrate from the snapshot store.
        plans.push(FaultPlan::crash_restore(
            2,
            quarter,
            half,
            Nanos(m.as_nanos() * 3 / 4),
        ));
    }

    println!(
        "== Chaos sweep: Halo @ {:.0} req/s on {} servers, detector on, {} plans ==",
        scenario.request_rate,
        scenario.servers,
        plans.len()
    );
    println!(
        "SLO: bin-mean latency <= {SLO_MS:.0} ms over 1 s bins; detector sampled every 100 ms"
    );
    println!();

    let mut results: Vec<PlanResult> = Vec::new();
    for plan in &plans {
        results.push(run_plan(&scenario, plan));
    }

    let mut json = String::from("{\"plans\":[");
    for (i, r) in results.iter().enumerate() {
        let s = &r.summary;
        print_row(&r.name, s);
        let windows = &r.windows;
        let win_str: Vec<String> = windows.iter().map(|&(a, b)| format!("{a}-{b}s")).collect();
        let a = &r.accuracy;
        println!(
            "  slo_violation_windows={} [{}]  detector: samples={} true_suspect={} false_suspect={} missed={} flight_dumps={}",
            windows.len(),
            win_str.join(","),
            a.samples,
            a.true_suspect,
            a.false_suspect,
            a.missed_failure,
            r.flight_dumps,
        );
        if let Some(snap) = &r.snapshot {
            println!(
                "  snapshot: writes={} journal={} durable={} loss={} restores={} replayed={} deferred={} rounds={}c/{}a/{}s captures={} bytes={}",
                snap.state_writes,
                snap.journal_len,
                snap.durable_versions,
                snap.state_loss,
                snap.restores,
                snap.replayed,
                snap.deferred,
                snap.rounds_completed,
                snap.rounds_aborted,
                snap.rounds_skipped,
                snap.captures,
                snap.bytes,
            );
            assert_eq!(
                snap.state_loss, 0,
                "plan {:?} lost or duplicated state: a live cell diverges from its durable image",
                r.name
            );
        }
        if i > 0 {
            json.push(',');
        }
        let windows_json: Vec<String> = windows
            .iter()
            .map(|&(w0, w1)| format!("[{w0},{w1}]"))
            .collect();
        let _ = write!(
            json,
            "{{\"name\":\"{}\",\"submitted\":{},\"completed\":{},\"timed_out\":{},\"rejected\":{},\"goodput_per_s\":{:.1},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"retries\":{},\"retry_backoff_ms\":{:.3},\"directory_repairs\":{},\"false_suspicion_repairs\":{},\"shed_no_live\":{},\"migrations\":{},\"slo_ms\":{SLO_MS},\"slo_violation_windows\":[{}],\"detector\":{{\"samples\":{},\"true_suspect\":{},\"false_suspect\":{},\"missed_failure\":{},\"true_clear\":{}}},\"flight_dumps\":{}{}}}",
            r.name,
            s.submitted,
            s.completed,
            s.timed_out,
            s.rejected,
            s.throughput_per_s,
            s.p50_ms,
            s.p99_ms,
            s.retries,
            s.retry_backoff_ms,
            s.directory_repairs,
            s.false_suspicion_repairs,
            s.shed_no_live,
            s.migrations,
            windows_json.join(","),
            a.samples,
            a.true_suspect,
            a.false_suspect,
            a.missed_failure,
            a.true_clear,
            r.flight_dumps,
            r.snapshot
                .as_ref()
                .map(|snap| format!(",\"snapshot\":{}", snap.json()))
                .unwrap_or_default(),
        );
    }
    json.push(']');
    if snapshots_on {
        // Recovery cost must be a property of the fault schedule, not of
        // the thread layout: the sharded backend's counters at 1 shard
        // (the sequential oracle) and 4 shards must match exactly.
        let (one, completed_1, failures_1) = sharded_recovery_counters(1);
        let (four, completed_4, failures_4) = sharded_recovery_counters(4);
        println!();
        println!(
            "sharded recovery (1 vs 4 shards): completed={completed_1}/{completed_4} failures={failures_1}/{failures_4}"
        );
        println!(
            "  writes={} journal={} durable={} loss={} restores={} replayed={} deferred={} rounds={}c/{}a/{}s",
            one.state_writes,
            one.journal_len,
            one.durable_versions,
            one.state_loss,
            one.restores,
            one.replayed,
            one.deferred,
            one.rounds_completed,
            one.rounds_aborted,
            one.rounds_skipped,
        );
        assert_eq!(
            one, four,
            "snapshot recovery counters diverged across shard counts"
        );
        assert_eq!(
            (completed_1, failures_1),
            (completed_4, failures_4),
            "workload counters diverged across shard counts"
        );
        assert_eq!(one.state_loss, 0, "sharded chaos run lost state");
        let _ = write!(json, ",\"sharded_recovery\":{}", one.json());
    }
    json.push_str("}\n");
    if let Err(e) = std::fs::write("BENCH_chaos.json", &json) {
        eprintln!("could not write BENCH_chaos.json: {e}");
    }

    // Acceptance: the single-crash plan degrades boundedly and recovers
    // fully — goodput over the final fifth of the window (well after the
    // recovery at measure/2) returns to the baseline's level.
    let baseline = &results[0];
    let crash = &results[1];
    let tail = crash.bins.len() - crash.bins.len() / 5;
    let crash_tail = mean_goodput(&crash.bins[tail..]);
    let base_tail = mean_goodput(&baseline.bins[tail..]);
    println!();
    println!(
        "single-crash recovery: tail goodput {crash_tail:.0}/s vs baseline {base_tail:.0}/s ({:.0}% recovered)",
        100.0 * crash_tail / base_tail.max(1.0)
    );
    assert!(
        crash_tail >= 0.8 * base_tail,
        "goodput failed to recover after the crash window: {crash_tail:.0}/s vs baseline {base_tail:.0}/s"
    );
    let conserved = crash.summary.completed + crash.summary.rejected + crash.summary.timed_out;
    let in_flight = crash.summary.submitted.saturating_sub(conserved);
    assert!(
        in_flight < 200,
        "unaccounted requests beyond the in-flight residue: {in_flight}"
    );

    print_engine_line(&results.iter().map(|r| r.report).collect::<Vec<_>>());
}
