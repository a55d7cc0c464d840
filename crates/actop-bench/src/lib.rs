//! Shared scaffolding for the figure/table benches.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation; this library holds the scenario builders and the
//! row printers they share. The default scale is chosen so each bench
//! finishes in tens of seconds on a laptop; set `ACTOP_FULL_SCALE=1` to
//! run at the paper's full population and durations.

use actop_core::controllers::{
    install_actop, ActOpConfig, PartitionAgentConfig, ThreadAgentConfig,
};
use actop_core::experiment::{run_sharded_steady_state, run_steady_state, RunSummary};
use actop_obs::{exposition, FaultNote, ScrapeWriter};
use actop_partition::{MigrationCostConfig, RepartitionPolicyKind, SplitThresholds};
use actop_runtime::sharded::install_sharded_hooks;
use actop_runtime::{
    build_sharded, install_replication_sharded, install_sharded_scrapers,
    install_snapshots_sharded, sharded_lookahead, Cluster, ObsConfig, ReplicationConfig,
    RuntimeConfig, SnapshotConfig, TraceConfig,
};
use actop_sim::{ConservativeRunner, Engine, EngineReport, Nanos};
use actop_workloads::halo::HaloConfig;
use actop_workloads::{HaloWorkload, MemoryAudit, ScaleConfig, ScaleWorkload};

/// Scale knobs for a Halo scenario run.
#[derive(Debug, Clone, Copy)]
pub struct HaloScenario {
    /// Concurrent players.
    pub players: u64,
    /// Cluster-wide client request rate, req/s.
    pub request_rate: f64,
    /// Number of servers.
    pub servers: usize,
    /// Warmup excluded from measurement.
    pub warmup: Nanos,
    /// Measurement window.
    pub measure: Nanos,
    /// Seed.
    pub seed: u64,
    /// Game-duration override in seconds (`None` = the scale default:
    /// 1200–1800 s at full scale, 80–120 s scaled).
    pub game_duration_s: Option<(f64, f64)>,
}

impl HaloScenario {
    /// The paper's headline operating point, at the default bench scale
    /// (or full scale with `ACTOP_FULL_SCALE=1`).
    pub fn paper(request_rate: f64, seed: u64) -> Self {
        if full_scale() {
            HaloScenario {
                players: 100_000,
                request_rate,
                servers: 10,
                warmup: Nanos::from_secs(600),
                measure: Nanos::from_secs(1200),
                seed,
                game_duration_s: None,
            }
        } else {
            HaloScenario {
                players: 20_000,
                request_rate,
                servers: 10,
                warmup: Nanos::from_secs(40),
                measure: Nanos::from_secs(60),
                seed,
                game_duration_s: None,
            }
        }
    }

    /// Total run duration.
    pub fn duration(&self) -> Nanos {
        self.warmup + self.measure
    }

    /// Partition-agent settings scaled to this scenario: the agent must
    /// complete its initial migration wave within the warmup (the paper's
    /// system converges in ~10 minutes of its 60-minute runs; scaled runs
    /// shrink the control intervals proportionally).
    pub fn partition_agent(&self) -> PartitionAgentConfig {
        let interval = Nanos((self.warmup.as_nanos() / 40).max(1_000_000_000));
        PartitionAgentConfig {
            protocol: actop_partition::PartitionConfig {
                candidate_set_size: 128,
                imbalance_tolerance: 64,
                exchange_cooldown_ns: interval.as_nanos() / 2,
                min_total_score: 1,
            },
            interval,
            sketch_age_factor: 0.8,
            policy: env_policy().unwrap_or_default(),
            cost: MigrationCostConfig::default(),
        }
    }

    /// Thread-agent settings scaled to this scenario.
    pub fn thread_agent(&self) -> ThreadAgentConfig {
        ThreadAgentConfig {
            interval: Nanos((self.warmup.as_nanos() / 10).max(1_000_000_000)),
            ..ThreadAgentConfig::default()
        }
    }

    /// The ActOp configuration for this scenario with either optimization
    /// enabled independently.
    pub fn actop(&self, partition: bool, threads: bool) -> ActOpConfig {
        ActOpConfig {
            partition: partition.then(|| self.partition_agent()),
            threads: threads.then(|| self.thread_agent()),
        }
    }
}

/// Whether benches run at the paper's full population and durations.
pub fn full_scale() -> bool {
    std::env::var("ACTOP_FULL_SCALE").is_ok_and(|v| v == "1")
}

// ---------------------------------------------------------------------
// Concurrency knobs. Two independent axes, one story:
//
//  * `ACTOP_WORKERS` — how many *runs* execute concurrently in a sweep
//    ([`parallel_map`]): between-run parallelism. Default: one worker per
//    available core.
//  * `ACTOP_SHARDS` — how many worker threads the conservative-parallel
//    engine uses *inside* one run (the sharded backend): within-run
//    parallelism. Unset means the legacy single-threaded engine;
//    `ACTOP_SHARDS=1` selects the sharded backend's sequential oracle.
//    Applies to the Halo scenario runs ([`run_halo`] routes to
//    [`run_halo_sharded`] when set); the uniform microbenchmarks record
//    per-stage latency breakdowns, which the sharded backend rejects,
//    and always use the legacy engine.
//
// Both are validated the same way: a value that is not a positive
// integer is a configuration error and aborts with a clear message
// (silently ignoring it would run the wrong experiment).
// ---------------------------------------------------------------------

/// Parses one concurrency knob: `None` when unset, `Some(n)` for a
/// positive integer, and a descriptive error otherwise. Pure, for tests;
/// the env-reading wrappers exit on error.
pub fn parse_concurrency(name: &str, raw: Option<&str>) -> Result<Option<usize>, String> {
    match raw {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            Ok(_) => Err(format!("{name}={v:?}: must be a positive integer, not 0")),
            Err(_) => Err(format!("{name}={v:?}: must be a positive integer")),
        },
    }
}

fn concurrency_from_env(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok();
    match parse_concurrency(name, raw.as_deref()) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// The `ACTOP_WORKERS` sweep-parallelism override, validated.
pub fn env_workers() -> Option<usize> {
    concurrency_from_env("ACTOP_WORKERS")
}

/// The `ACTOP_SHARDS` within-run shard count, validated. `None` selects
/// the legacy single-threaded engine.
pub fn env_shards() -> Option<usize> {
    concurrency_from_env("ACTOP_SHARDS")
}

/// Parses the `ACTOP_POLICY` repartitioning-policy knob: `None` when
/// unset (the bench's configured policy applies — the paper's exchange
/// protocol unless the bench says otherwise), a policy kind for a valid
/// name, and a descriptive error for anything else. Pure, for tests; the
/// env-reading wrapper exits on error.
pub fn parse_policy(raw: Option<&str>) -> Result<Option<RepartitionPolicyKind>, String> {
    match raw {
        None => Ok(None),
        Some(v) => RepartitionPolicyKind::parse(v)
            .map(Some)
            .map_err(|e| format!("ACTOP_POLICY: {e}")),
    }
}

/// The `ACTOP_POLICY` repartitioning-policy override, validated.
pub fn env_policy() -> Option<RepartitionPolicyKind> {
    let raw = std::env::var("ACTOP_POLICY").ok();
    match parse_policy(raw.as_deref()) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// The env-configured tracer for a run: `ACTOP_TRACE=<path>` turns
/// tracing on (the run's spans are exported to `<path>` as Chrome trace
/// JSON), `ACTOP_TRACE_SAMPLE=<rate>` sets the head-sampling rate
/// (default 1.0). The sampling seed is tied to the run seed, so the same
/// seed samples the same requests — and emits byte-identical trace files
/// — on every run.
pub fn trace_config_from_env(seed: u64) -> Option<TraceConfig> {
    std::env::var("ACTOP_TRACE").ok()?;
    let sample_rate = match std::env::var("ACTOP_TRACE_SAMPLE") {
        Err(_) => 1.0,
        Ok(v) => v.parse::<f64>().unwrap_or_else(|_| {
            eprintln!("warning: ACTOP_TRACE_SAMPLE={v:?} is not a number; tracing all requests");
            1.0
        }),
    };
    Some(TraceConfig {
        sample_rate,
        seed,
        ..TraceConfig::default()
    })
}

/// Exports a traced run's artifacts if `ACTOP_TRACE` is set and the
/// cluster's tracer is active: Chrome trace JSON at the configured path,
/// a JSONL span dump at `<path>.spans.jsonl`, and the flight-recorder
/// dumps at `<path>.flight.json` (only when any anomaly fired). When one
/// process runs several traced simulations (sweeps), the second and later
/// exports go to `<path>.2`, `<path>.3`, ... — under a parallel sweep
/// that numbering follows completion order, so set `ACTOP_WORKERS=1` when
/// exact file names matter.
pub fn maybe_export_trace(cluster: &Cluster) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static EXPORTS: AtomicUsize = AtomicUsize::new(0);

    let Ok(base) = std::env::var("ACTOP_TRACE") else {
        return;
    };
    if !cluster.trace.enabled() {
        return;
    }
    let nth = EXPORTS.fetch_add(1, Ordering::SeqCst);
    let path = if nth == 0 {
        base.clone()
    } else {
        format!("{base}.{}", nth + 1)
    };
    let write = |path: &str, content: String| {
        if let Err(err) = std::fs::write(path, content) {
            eprintln!("trace export failed for {path}: {err}");
        }
    };
    write(&path, actop_trace::chrome_trace(&cluster.trace));
    write(
        &format!("{path}.spans.jsonl"),
        actop_trace::spans_jsonl(&cluster.trace),
    );
    let dumps = cluster.trace.flight_dumps().len();
    if dumps > 0 {
        write(
            &format!("{path}.flight.json"),
            actop_trace::flight_json(&cluster.trace),
        );
    }
    println!(
        "trace: {path} spans={} dropped={} flight_dumps={} timeline_samples={}",
        cluster.trace.spans().len(),
        cluster.trace.dropped_spans(),
        dumps,
        cluster.trace.timeline.len(),
    );
}

/// The env-configured telemetry for a run: `ACTOP_OBS=<path>` switches on
/// metric scraping + SLO burn-rate alerting (the scrape JSONL and a
/// Prometheus-exposition sibling are exported to `<path>` and `<path>.prom`
/// by [`maybe_export_obs`]); `ACTOP_OBS_INTERVAL_MS=<ms>` overrides the
/// 1 s scrape cadence.
pub fn obs_config_from_env() -> Option<ObsConfig> {
    std::env::var("ACTOP_OBS").ok()?;
    let mut cfg = ObsConfig::default();
    if let Ok(v) = std::env::var("ACTOP_OBS_INTERVAL_MS") {
        match v.parse::<u64>() {
            Ok(ms) if ms > 0 => cfg.scrape_interval = Nanos::from_millis(ms),
            _ => eprintln!(
                "warning: ACTOP_OBS_INTERVAL_MS={v:?} is not a positive integer; scraping every 1 s"
            ),
        }
    }
    Some(cfg)
}

/// Whether `ACTOP_COST=1` switched on per-subsystem cost attribution (the
/// `cost:` table printed by [`print_engine_line`]).
pub fn cost_from_env() -> bool {
    std::env::var("ACTOP_COST").is_ok_and(|v| v == "1")
}

/// The env-configured snapshot subsystem: `ACTOP_SNAPSHOT=1` switches on
/// asynchronous actor snapshots with the kernel defaults (2 s rounds,
/// write tag 1 — Halo's `TAG_POLL`, the scale workload's `TAG_WRITE`);
/// `ACTOP_SNAPSHOT_INTERVAL_MS=<ms>` overrides the round interval, with
/// the capture window scaled to half of it. Unset leaves the subsystem
/// off and every run byte-identical to a build without it.
pub fn snapshot_config_from_env() -> Option<SnapshotConfig> {
    if !std::env::var("ACTOP_SNAPSHOT").is_ok_and(|v| v == "1") {
        return None;
    }
    let mut cfg = SnapshotConfig::default();
    if let Ok(v) = std::env::var("ACTOP_SNAPSHOT_INTERVAL_MS") {
        match v.parse::<u64>() {
            Ok(ms) if ms > 0 => {
                cfg.interval = Nanos::from_millis(ms);
                cfg.capture_window = Nanos::from_millis((ms / 2).max(1));
            }
            _ => eprintln!(
                "warning: ACTOP_SNAPSHOT_INTERVAL_MS={v:?} is not a positive integer; using 2 s rounds"
            ),
        }
    }
    Some(cfg)
}

/// Exports a telemetry-enabled run's artifacts if `ACTOP_OBS` is set: the
/// scrape JSONL document (header, frames, alert/fault/SLO annotations,
/// run summary, engine line) at `<path>` and the Prometheus exposition of
/// the final scrape at `<path>.prom`. Everything written is a pure
/// function of the simulation — same seed, byte-identical files (render
/// the HTML report with `cargo run --bin report -- <path>`). Like
/// [`maybe_export_trace`], a process running several simulations numbers
/// the second and later exports `<path>.2`, `<path>.3`, ...
pub fn maybe_export_obs(
    cluster: &Cluster,
    summary: &RunSummary,
    report: &EngineReport,
    faults: &[FaultNote],
) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static EXPORTS: AtomicUsize = AtomicUsize::new(0);

    let Ok(base) = std::env::var("ACTOP_OBS") else {
        return;
    };
    let Some((jsonl, prom)) = obs_document(cluster, summary, report, faults) else {
        return;
    };
    let obs = cluster.obs.as_ref().expect("obs_document checked");
    let nth = EXPORTS.fetch_add(1, Ordering::SeqCst);
    let path = if nth == 0 {
        base.clone()
    } else {
        format!("{base}.{}", nth + 1)
    };
    let write = |path: &str, content: &str| {
        if let Err(err) = std::fs::write(path, content) {
            eprintln!("obs export failed for {path}: {err}");
        }
    };
    write(&path, &jsonl);
    write(&format!("{path}.prom"), &prom);
    println!(
        "obs: {path} frames={} alerts={} slos={}",
        obs.registry().frames().count(),
        obs.alerts().len(),
        obs.slo_notes().len(),
    );
}

/// Builds a telemetry-enabled run's artifacts in memory: the scrape JSONL
/// document and the Prometheus exposition of the final scrape. `None`
/// when the run had telemetry off. Pure function of the simulation —
/// same seed, byte-identical strings (the property
/// `tests/obs_determinism.rs` pins).
pub fn obs_document(
    cluster: &Cluster,
    summary: &RunSummary,
    report: &EngineReport,
    faults: &[FaultNote],
) -> Option<(String, String)> {
    let obs = cluster.obs.as_ref()?;
    let reg = obs.registry();
    let mut w = ScrapeWriter::new(cluster.config.seed, obs.interval().as_nanos(), reg.defs());
    w.frames(reg);
    for a in obs.alerts() {
        w.alert(a);
    }
    for f in faults {
        w.fault(f);
    }
    for n in obs.slo_notes() {
        w.slo(&n);
    }
    w.summary(&summary.fields());
    // Only deterministic engine quantities belong in the artifact; wall
    // times and sampled costs are machine-dependent and stay on stdout.
    w.engine(&[("events_processed", report.events_processed as f64)]);
    Some((w.finish(), exposition(reg)))
}

/// The Halo workload configuration for a scenario, shared by both engine
/// backends.
fn halo_config(scenario: &HaloScenario) -> HaloConfig {
    let mut cfg = HaloConfig::paper_scale(
        scenario.players,
        scenario.request_rate,
        scenario.duration(),
        scenario.seed,
    );
    if let Some(duration) = scenario.game_duration_s {
        cfg.game_duration_s = duration;
    } else if !full_scale() {
        // Scaled runs shrink the lifecycle with the control intervals so
        // the churn-to-reaction-time ratio matches the paper's: 20–30 min
        // games against a one-minute exchange cooldown become ~150 s games
        // against a one-second cooldown.
        cfg.game_duration_s = (120.0, 180.0);
    }
    cfg
}

/// The runtime configuration for a scenario, shared by both engine
/// backends.
fn halo_runtime(scenario: &HaloScenario) -> RuntimeConfig {
    let mut rt = RuntimeConfig::paper_testbed(scenario.seed);
    rt.servers = scenario.servers;
    rt.record_remote_call_latency = true;
    rt.repartition = env_policy().unwrap_or_default();
    rt.trace = trace_config_from_env(scenario.seed);
    rt.obs = obs_config_from_env();
    rt.cost_attr = cost_from_env();
    rt.snapshot = snapshot_config_from_env();
    if !full_scale() {
        rt.series_bin_ns = 5_000_000_000; // 5 s bins for the short runs.
    }
    rt
}

/// Runs one Halo scenario under the given ActOp configuration and returns
/// the steady-state summary, the engine's self-metrics, and the cluster
/// for follow-up inspection.
///
/// `ACTOP_SHARDS=<n>` reroutes the run to the sharded
/// conservative-parallel backend ([`run_halo_sharded`]); results are then
/// deterministic in the shard count but not comparable event-for-event
/// with the legacy engine.
pub fn run_halo(
    scenario: &HaloScenario,
    actop: &ActOpConfig,
) -> (RunSummary, EngineReport, Cluster) {
    if let Some(shards) = env_shards() {
        return run_halo_sharded(scenario, actop, shards);
    }
    let (app, workload) = HaloWorkload::build(halo_config(scenario));
    let rt = halo_runtime(scenario);
    let cost = rt.cost_attr;
    let mut cluster = Cluster::new(rt, app);
    let mut engine: Engine<Cluster> = Engine::new();
    engine.set_cost_attr(cost);
    workload.install(&mut engine);
    install_actop(&mut engine, scenario.servers, actop);
    cluster.install_timeline_sampler(&mut engine, scenario.duration());
    cluster.install_scraper(&mut engine, scenario.duration());
    cluster.install_snapshots(&mut engine, scenario.duration());
    let summary = run_steady_state(&mut engine, &mut cluster, scenario.warmup, scenario.measure);
    let mut report = engine.report();
    report.attr.merge(cluster.cost_attr());
    maybe_export_trace(&cluster);
    maybe_export_obs(&cluster, &summary, &report, &[]);
    (summary, report, cluster)
}

/// Runs one Halo scenario on the sharded conservative-parallel backend
/// with `shards` shards (and as many worker threads; `1` selects the
/// sequential oracle). The steady-state protocol mirrors
/// [`run_steady_state`]: run the warmup, reset every shard's counters,
/// run the measurement window, summarize.
///
/// The returned [`Cluster`] is a read-only shell for follow-up
/// inspection: it carries the merged per-shard metrics and traces and a
/// snapshot of the shared directory, but its servers never ran.
pub fn run_halo_sharded(
    scenario: &HaloScenario,
    actop: &ActOpConfig,
    shards: usize,
) -> (RunSummary, EngineReport, Cluster) {
    let cfg = halo_config(scenario);
    let rt = halo_runtime(scenario);
    let cost = rt.cost_attr;
    let lookahead = sharded_lookahead(&rt);
    let (app, workload) = HaloWorkload::build(cfg);
    let worlds = build_sharded(rt, app, shards);
    let threads = worlds.len(); // `build_sharded` clamps to [1, servers].
    let mut runner = ConservativeRunner::new(worlds, lookahead);
    for cell in runner.cells_mut() {
        // Sharded attribution covers the engines' heap buckets; the
        // runtime-subsystem buckets are a legacy-engine instrument.
        cell.engine.set_cost_attr(cost);
    }
    install_sharded_hooks(&mut runner);
    workload.install(&mut runner);
    install_actop(&mut runner, scenario.servers, actop);
    install_sharded_scrapers(&mut runner, scenario.duration());
    install_snapshots_sharded(&mut runner, scenario.duration());

    let (summary, shell) = run_sharded_steady_state(
        &mut runner,
        halo_runtime(scenario),
        threads,
        scenario.warmup,
        scenario.measure,
    );
    let report = runner.report();
    maybe_export_trace(&shell);
    maybe_export_obs(&shell, &summary, &report, &[]);
    (summary, report, shell)
}

/// The cluster shape of the million-player scale bench: eight 4-core
/// servers, so a single celebrity actor's demand can exceed one server's
/// capacity while the cluster as a whole has headroom.
///
/// Replication (when on) splits past 20% of one server rather than the
/// kernel default 50%, for two reasons. First, the sketch observes
/// *executed* work, and a saturated server executes at most its capacity
/// — so when celebrities co-locate on a melting server, each one's
/// executed share sits well below 50% even though its offered demand
/// exceeds a whole server. Second, any actor holding more than ~20% of
/// one server is an indivisible chunk that placement cannot balance
/// around once the cluster runs warm. The trigger still clears every
/// non-celebrity actor by two orders of magnitude (the heaviest uniform
/// actor executes well under 1% of a window). The 2 s cooldown (vs the
/// 3 s default) lets a celebrity ladder to its steady replica count
/// within the warmup window; the 100 ms candidate floor keeps ordinary
/// players out of the decision loop entirely.
pub fn scale_runtime(seed: u64, replication: bool) -> RuntimeConfig {
    let mut rt = RuntimeConfig::paper_testbed(seed);
    rt.servers = 8;
    rt.costs.cores_per_server = 4;
    rt.initial_threads_per_stage = 4;
    rt.series_bin_ns = 5_000_000_000;
    rt.trace = trace_config_from_env(seed);
    rt.obs = obs_config_from_env();
    rt.snapshot = snapshot_config_from_env();
    if replication {
        rt.replication = Some(ReplicationConfig {
            thresholds: SplitThresholds {
                capacity_fraction: 0.2,
                // At the replica cap a past-one-server celebrity leaves
                // each replica ~1/8 of the total, which the default 0.6
                // hysteresis would drop (and the primary would immediately
                // re-split — churn that melts the tail). 0.3 keeps the
                // steady per-replica share inside the hold band while idle
                // replicas (flash decay, rotated-away hotspots) still shed.
                drop_fraction: 0.3,
                ..SplitThresholds::default()
            },
            cooldown: Nanos::from_secs(2),
            min_load_ns: 100_000_000,
            ..ReplicationConfig::default()
        });
    }
    rt
}

/// Runs one scale workload on the sharded backend and returns the
/// steady-state summary, the engine report, the merged shell cluster
/// (for replication counters), and the per-player memory audit.
///
/// `cfg.duration` is the total run; the first `warmup` of it is excluded
/// from measurement (counters reset at the warmup boundary, so detection
/// state — replicas, cooldowns — carries over, as it should).
pub fn run_scale(
    cfg: ScaleConfig,
    warmup: Nanos,
    rt: RuntimeConfig,
    shards: usize,
) -> (RunSummary, EngineReport, Cluster, MemoryAudit) {
    assert!(warmup < cfg.duration, "warmup must leave a measure window");
    let measure = cfg.duration - warmup;
    let lookahead = sharded_lookahead(&rt);
    let shell_rt = rt.clone();
    let (app, workload) = ScaleWorkload::build(cfg);
    let worlds = build_sharded(rt, app, shards);
    let threads = worlds.len();
    let mut runner = ConservativeRunner::new(worlds, lookahead);
    install_sharded_hooks(&mut runner);
    workload.install(&mut runner);
    install_replication_sharded(&mut runner, cfg.duration);
    install_sharded_scrapers(&mut runner, cfg.duration);
    install_snapshots_sharded(&mut runner, cfg.duration);

    let (summary, shell) =
        run_sharded_steady_state(&mut runner, shell_rt, threads, warmup, measure);
    let audit = workload.memory_audit();
    let report = runner.report();
    maybe_export_trace(&shell);
    maybe_export_obs(&shell, &summary, &report, &[]);
    (summary, report, shell, audit)
}

/// Runs a single-actor-type workload (counter / heartbeat) on a cluster.
///
/// `threads` fixes the per-stage allocation for the whole run (`None`
/// keeps the Orleans default of one thread per stage per core);
/// `agent` optionally installs a thread-allocation agent.
pub fn run_uniform(
    workload: actop_workloads::UniformConfig,
    mut rt: RuntimeConfig,
    threads: Option<[usize; 4]>,
    agent: Option<ThreadAgentConfig>,
    warmup: Nanos,
    measure: Nanos,
) -> (RunSummary, EngineReport, Cluster) {
    rt.record_breakdown = true;
    if rt.trace.is_none() {
        rt.trace = trace_config_from_env(rt.seed);
    }
    if rt.obs.is_none() {
        rt.obs = obs_config_from_env();
    }
    rt.cost_attr = rt.cost_attr || cost_from_env();
    if rt.snapshot.is_none() {
        rt.snapshot = snapshot_config_from_env();
    }
    let cost = rt.cost_attr;
    let servers = rt.servers;
    let (app, driver) = actop_workloads::UniformWorkload::build(workload);
    let mut cluster = Cluster::new(rt, app);
    let mut engine: Engine<Cluster> = Engine::new();
    engine.set_cost_attr(cost);
    driver.install(&mut engine);
    cluster.install_timeline_sampler(&mut engine, warmup + measure);
    cluster.install_scraper(&mut engine, warmup + measure);
    cluster.install_snapshots(&mut engine, warmup + measure);
    if let Some(alloc) = threads {
        engine.schedule(Nanos::ZERO, move |c: &mut Cluster, e| {
            for server in 0..c.server_count() {
                c.set_stage_threads(e, server, alloc);
            }
        });
    }
    if let Some(agent) = agent {
        install_actop(
            &mut engine,
            servers,
            &ActOpConfig {
                partition: None,
                threads: Some(agent),
            },
        );
    }
    let summary = run_steady_state(&mut engine, &mut cluster, warmup, measure);
    let mut report = engine.report();
    report.attr.merge(cluster.cost_attr());
    maybe_export_trace(&cluster);
    maybe_export_obs(&cluster, &summary, &report, &[]);
    (summary, report, cluster)
}

/// One (variant × seed) cell of a parallel sweep: everything a worker
/// thread needs to run a Halo scenario. Plain data, hence `Send`.
#[derive(Debug, Clone)]
pub struct HaloCell {
    /// Row label carried through to the merged output.
    pub label: String,
    pub scenario: HaloScenario,
    pub actop: ActOpConfig,
}

/// The `Send` outcome of one sweep cell (the cluster, which is not
/// `Send`, is dropped on the worker thread).
#[derive(Debug, Clone)]
pub struct CellResult {
    pub label: String,
    pub summary: RunSummary,
    pub report: EngineReport,
}

/// Fans `jobs` across `std::thread::scope` workers (one per core, capped
/// by job count) and returns results **in input order**, regardless of
/// completion order — so sweep output is identical to a sequential run.
pub fn parallel_map<I, O, F>(jobs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Mutex};

    let n = jobs.len();
    // ACTOP_WORKERS caps (or forces) the pool size; default is one worker
    // per available core. Bad values abort with a clear message.
    let workers = env_workers()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
        .min(n.max(1));
    if workers <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    // Workers claim job indices from a shared cursor and send back
    // (index, result); the collector reassembles by index.
    let cells: Vec<Mutex<Option<I>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, O)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (cells, cursor, f) = (&cells, &cursor, &f);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = cells[i]
                    .lock()
                    .expect("job cell poisoned")
                    .take()
                    .expect("job claimed twice");
                if tx.send((i, f(job))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<O>> = (0..n).map(|_| None).collect();
        for (i, result) in rx {
            out[i] = Some(result);
        }
        out.into_iter()
            .map(|o| o.expect("worker completed every job"))
            .collect()
    })
}

/// Runs every sweep cell in parallel across cores and returns the merged
/// rows in input order. This is the multi-seed harness the figure benches
/// share: simulations are single-threaded and deterministic, so (variant ×
/// seed) cells are embarrassingly parallel.
pub fn run_halo_sweep(cells: Vec<HaloCell>) -> Vec<CellResult> {
    parallel_map(cells, |cell| {
        let (summary, report, _cluster) = run_halo(&cell.scenario, &cell.actop);
        CellResult {
            label: cell.label,
            summary,
            report,
        }
    })
}

/// Prints a labeled summary row in a fixed format shared by the benches.
/// The trailing counters surface the previously-silent anomaly paths:
/// shed requests, timeouts, post-migration forwards, stale responses, and
/// the fault-recovery machinery (retries, directory repairs, false
/// suspicion, total-loss sheds) — all zero on a fault-free run.
pub fn print_row(label: &str, s: &RunSummary) {
    println!(
        "{label:<28} p50={:8.1}ms p95={:8.1}ms p99={:8.1}ms mean={:7.1}ms remote={:5.1}% cpu={:5.1}% thr={:7.0}/s rej={} tmo={} fwd={} stale={} retry={} rep={} fsusp={} shed={}",
        s.p50_ms,
        s.p95_ms,
        s.p99_ms,
        s.mean_ms,
        s.remote_fraction * 100.0,
        s.cpu_utilization * 100.0,
        s.throughput_per_s,
        s.rejected,
        s.timed_out,
        s.forwarded_messages,
        s.stale_responses,
        s.retries,
        s.directory_repairs,
        s.false_suspicion_repairs,
        s.shed_no_live,
    );
}

/// Prints the paper-vs-measured improvement block used by Fig. 10d/10f/11.
pub fn print_improvement(label: &str, baseline: &RunSummary, optimized: &RunSummary) {
    let med = RunSummary::improvement_pct(baseline, optimized, |s| s.p50_ms);
    let p95 = RunSummary::improvement_pct(baseline, optimized, |s| s.p95_ms);
    let p99 = RunSummary::improvement_pct(baseline, optimized, |s| s.p99_ms);
    println!("{label:<28} median={med:6.1}%  p95={p95:6.1}%  p99={p99:6.1}%");
}

/// Merges per-run engine reports and prints the one-line kernel summary
/// every bench binary ends with: total events over the longest run's wall
/// span, with summed CPU time alongside (see [`EngineReport::merge`]).
pub fn print_engine_line(reports: &[EngineReport]) {
    let mut total = EngineReport::default();
    for r in reports {
        total.merge(r);
    }
    println!("{}", total.line());
    // Under `ACTOP_COST=1` the merged per-subsystem attribution follows
    // (all-zero otherwise, in which case `table` stays silent).
    if let Some(table) = total.attr.table() {
        print!("{table}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_durations() {
        let s = HaloScenario::paper(6_000.0, 1);
        assert_eq!(s.duration(), s.warmup + s.measure);
        assert_eq!(s.servers, 10);
    }

    #[test]
    fn concurrency_parsing_accepts_positive_and_rejects_garbage() {
        assert_eq!(parse_concurrency("ACTOP_WORKERS", None), Ok(None));
        assert_eq!(parse_concurrency("ACTOP_WORKERS", Some("4")), Ok(Some(4)));
        assert!(parse_concurrency("ACTOP_WORKERS", Some("0")).is_err());
        assert!(parse_concurrency("ACTOP_SHARDS", Some("-2")).is_err());
        assert!(parse_concurrency("ACTOP_SHARDS", Some("eight")).is_err());
        let err = parse_concurrency("ACTOP_SHARDS", Some("eight")).unwrap_err();
        assert!(err.contains("ACTOP_SHARDS"), "error names the knob: {err}");
    }

    #[test]
    fn policy_parsing_accepts_known_names_and_rejects_garbage() {
        assert_eq!(parse_policy(None), Ok(None));
        assert_eq!(
            parse_policy(Some("actop")),
            Ok(Some(RepartitionPolicyKind::Exchange))
        );
        assert_eq!(
            parse_policy(Some("actop-cost")),
            Ok(Some(RepartitionPolicyKind::ExchangeCostAware))
        );
        assert_eq!(
            parse_policy(Some("dynamic")),
            Ok(Some(RepartitionPolicyKind::DynamicBalanced))
        );
        let err = parse_policy(Some("metis")).unwrap_err();
        assert!(err.contains("ACTOP_POLICY"), "error names the knob: {err}");
        assert!(err.contains("stream"), "error lists the names: {err}");
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        // Early jobs sleep longest, so completion order inverts input
        // order; the output must still match the input.
        let jobs: Vec<u64> = (0..32).collect();
        let out = parallel_map(jobs, |j| {
            std::thread::sleep(std::time::Duration::from_millis(32 - j));
            j * 10
        });
        assert_eq!(out, (0..32).map(|j| j * 10).collect::<Vec<_>>());
    }

    /// The acceptance criterion for the harness: a parallel sweep must
    /// produce byte-identical rows to running the same cells sequentially.
    #[test]
    fn sweep_matches_sequential() {
        let tiny = HaloScenario {
            players: 300,
            request_rate: 120.0,
            servers: 3,
            warmup: Nanos::from_secs(2),
            measure: Nanos::from_secs(4),
            seed: 7,
            game_duration_s: Some((20.0, 30.0)),
        };
        let cells: Vec<HaloCell> = [7u64, 8, 9]
            .iter()
            .map(|&seed| HaloCell {
                label: format!("seed{seed}"),
                scenario: HaloScenario { seed, ..tiny },
                actop: ActOpConfig::default(),
            })
            .collect();
        let sequential: Vec<(RunSummary, u64)> = cells
            .iter()
            .map(|c| {
                let (s, r, _) = run_halo(&c.scenario, &c.actop);
                (s, r.events_processed)
            })
            .collect();
        let parallel = run_halo_sweep(cells);
        assert_eq!(parallel.len(), sequential.len());
        for (p, (s, events)) in parallel.iter().zip(&sequential) {
            assert_eq!(p.summary.completed, s.completed);
            assert_eq!(p.summary.submitted, s.submitted);
            assert_eq!(p.summary.p99_ms.to_bits(), s.p99_ms.to_bits());
            assert_eq!(p.summary.mean_ms.to_bits(), s.mean_ms.to_bits());
            assert_eq!(p.report.events_processed, *events);
        }
        assert_eq!(parallel[0].label, "seed7");
        assert_eq!(parallel[2].label, "seed9");
    }
}
