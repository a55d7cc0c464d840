//! The four workloads, each built explicitly from the repository's public
//! constructors (no environment-reading helpers) and timed from outside.
//!
//! One execution of a workload has two timed phases: set-up (build the
//! workload, the runtime, and install every driver and agent) and the run
//! (first event until the steady-state summary is ready). Everything the
//! simulated service measured goes into [`Outcome::sim`], which is a pure
//! function of (workload, size, seed); host measurements go into
//! [`Outcome::host`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use actop_chaos::{install_plan, FaultPlan};
use actop_core::controllers::{
    install_actop, run_partition_round, run_partition_round_sharded, ActOpConfig,
    PartitionAgentConfig, ThreadAgentConfig, ETA_SIM_CALIBRATED,
};
use actop_core::experiment::run_steady_state;
use actop_partition::{
    MigrationCostConfig, PartitionConfig, RepartitionPolicyKind, SplitThresholds,
};
use actop_runtime::cluster::StageReport;
use actop_runtime::sharded::install_sharded_hooks;
use actop_runtime::{
    build_sharded, install_replication_sharded, install_snapshots_sharded, sharded_lookahead,
    Cluster, ClusterMetrics, DetectorConfig, ObsConfig, ReplicationConfig, RuntimeConfig,
    ShardedCluster, SnapshotConfig, TraceConfig,
};
use actop_seda::estimator::StageKind;
use actop_seda::{ModelDrivenController, ParamEstimator, StageObservation};
use actop_sim::{ConservativeRunner, Engine, EngineReport, Nanos, Subsystem};
use actop_trace::{decompose, HopKind, SpanEvent};
use actop_verify::{check_events, CheckerConfig};
use actop_workloads::halo::HaloConfig;
use actop_workloads::{uniform, HaloWorkload, ScaleConfig, ShardedScaleWorkload, UniformWorkload};

use crate::stats::{cdf_quantile, failed_share, median};

/// Preallocated span buffer of a traced run. Each workload's sample rate
/// is sized so its spans fit: a dropped span fails the run.
const SPAN_CAPACITY: usize = 1 << 21;

/// Shards (and worker threads) of the sharded workload. Fixed, so the
/// simulated schedule never depends on the machine; the runner falls
/// back to one thread on a single core.
const SHARDS: usize = 2;

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Solver calls timed per server when replaying the thread allocator.
const SOLVE_REPEATS: u32 = 200;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Halo presence service at its headline operating point,
    /// both ActOp agents on: every lifecycle layer does real work.
    HaloActop,
    /// The Fig. 4 point: one server at ~98% CPU, default threads, no
    /// agents. SEDA queueing sets the latency; routing, network, sketch
    /// and partitioning are near idle.
    CounterSaturated,
    /// Halo with the failure detector, timeouts, transfer windows,
    /// telemetry and snapshots on, and a crash/restore mid-measurement.
    HaloChaos,
    /// A million players with Zipf celebrities on the sharded backend,
    /// with hot-actor replication and snapshots on.
    ScaleCelebrity,
}

/// How big an execution is: the benchmark's operating point, or a
/// shrunken copy of the same builders that runs in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Bench,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::HaloActop,
        Workload::CounterSaturated,
        Workload::HaloChaos,
        Workload::ScaleCelebrity,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HaloActop => "halo-actop",
            Workload::CounterSaturated => "counter-saturated",
            Workload::HaloChaos => "halo-chaos",
            Workload::ScaleCelebrity => "scale-celebrity",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when `--seed` is not given.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::HaloActop => 110,
            Workload::CounterSaturated => 401,
            Workload::HaloChaos => 230,
            Workload::ScaleCelebrity => 77,
        }
    }

    /// Host seconds budgeted per replication: a run of `--seconds S`
    /// simulates `S / nominal_s` replications (at least one), so its
    /// simulated results depend only on the seed and `S`, never on how
    /// fast the machine happens to be. At the benchmark's 30 s this buys
    /// two Halo replications, three counter or chaos ones and five scale
    /// ones; one replication takes ~12, ~7.5, ~9 and ~5 s on a 2-core
    /// Xeon VM.
    pub fn nominal_s(self) -> f64 {
        match self {
            Workload::HaloActop => 12.0,
            Workload::CounterSaturated => 8.0,
            Workload::HaloChaos => 10.0,
            Workload::ScaleCelebrity => 6.0,
        }
    }

    /// Head-sampling rate of the traced run, sized to keep every span.
    /// Lifecycle events bypass sampling: the sharded workload's snapshot
    /// captures alone fill ~0.8M slots of each shard's buffer.
    fn trace_sample(self) -> f64 {
        match self {
            Workload::ScaleCelebrity => 0.01,
            _ => 0.02,
        }
    }
}

/// Set-up time of one execution, split by what was built.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Building the workload generator and application logic.
    pub workload_s: f64,
    /// Building the runtime and installing drivers, agents and faults.
    pub runtime_s: f64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.workload_s + self.runtime_s
    }
}

/// One execution's measurements.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub setup: Setup,
    /// Host seconds from the first event until the summary was ready.
    pub wall_s: f64,
    /// Simulated results and deterministic counts: must repeat
    /// bit-for-bit for the same (workload, size, seed).
    pub sim: Vec<(&'static str, f64)>,
    /// Host measurements of the layers.
    pub host: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.sim
            .iter()
            .chain(&self.host)
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Builds the workload and drops it: one set-up sample, for workloads
/// whose run is too long to repeat often.
pub fn setup_only(w: Workload, size: Size, seed: u64) -> Setup {
    prepare(w, size, seed, false).1
}

/// Builds and runs one execution. An error names a failed output check.
pub fn execute(w: Workload, size: Size, seed: u64, traced: bool) -> Result<Outcome, String> {
    let (prepared, setup) = prepare(w, size, seed, traced);
    match prepared {
        Prepared::Legacy(run) => run.run(setup, traced),
        Prepared::Sharded(run) => run.run(setup, traced),
    }
}

enum Prepared {
    Legacy(Box<LegacyRun>),
    Sharded(Box<ShardedRun>),
}

fn prepare(w: Workload, size: Size, seed: u64, traced: bool) -> (Prepared, Setup) {
    let trace = traced.then(|| TraceConfig {
        sample_rate: w.trace_sample(),
        seed,
        span_capacity: SPAN_CAPACITY,
        ..TraceConfig::default()
    });
    match w {
        Workload::HaloActop => halo_actop(size, seed, trace),
        Workload::CounterSaturated => counter_saturated(size, seed, trace),
        Workload::HaloChaos => halo_chaos(size, seed, trace),
        Workload::ScaleCelebrity => scale_celebrity(size, seed, trace),
    }
}

// ---------------------------------------------------------------------
// Workload definitions.
// ---------------------------------------------------------------------

/// A Halo operating point.
struct HaloShape {
    players: u64,
    rate: f64,
    servers: usize,
    warmup: Nanos,
    measure: Nanos,
    game_s: (f64, f64),
}

impl HaloShape {
    fn at(size: Size, rate: f64) -> Self {
        match size {
            Size::Bench => HaloShape {
                players: 20_000,
                rate,
                servers: 10,
                warmup: Nanos::from_secs(40),
                measure: Nanos::from_secs(60),
                // Games shrink with the control intervals so churn against
                // the one-second exchange cooldown matches the paper's
                // 20-30 minute games against a one-minute cooldown.
                game_s: (120.0, 180.0),
            },
            Size::Tiny => HaloShape {
                players: 600,
                rate: rate / 30.0,
                servers: 3,
                warmup: Nanos::from_secs(2),
                measure: Nanos::from_secs(4),
                game_s: (20.0, 30.0),
            },
        }
    }

    fn duration(&self) -> Nanos {
        self.warmup + self.measure
    }

    fn config(&self, seed: u64) -> HaloConfig {
        let mut cfg = HaloConfig::paper_scale(self.players, self.rate, self.duration(), seed);
        cfg.game_duration_s = self.game_s;
        cfg
    }

    fn runtime(&self, seed: u64, trace: Option<TraceConfig>) -> RuntimeConfig {
        let mut rt = RuntimeConfig::paper_testbed(seed);
        rt.servers = self.servers;
        rt.record_remote_call_latency = true;
        rt.series_bin_ns = 5_000_000_000;
        rt.cost_attr = trace.is_some();
        rt.trace = trace;
        rt
    }

    /// Both agents, with control intervals scaled to the warmup so the
    /// initial migration wave completes before measurement starts.
    fn agents(&self) -> ActOpConfig {
        let interval = Nanos((self.warmup.as_nanos() / 40).max(1_000_000_000));
        ActOpConfig {
            partition: Some(partition_agent(interval)),
            threads: Some(ThreadAgentConfig {
                interval: Nanos((self.warmup.as_nanos() / 10).max(1_000_000_000)),
                ..ThreadAgentConfig::default()
            }),
        }
    }
}

/// The paper's exchange protocol at a given initiation interval.
fn partition_agent(interval: Nanos) -> PartitionAgentConfig {
    PartitionAgentConfig {
        protocol: PartitionConfig {
            candidate_set_size: 128,
            imbalance_tolerance: 64,
            exchange_cooldown_ns: interval.as_nanos() / 2,
            min_total_score: 1,
        },
        interval,
        sketch_age_factor: 0.8,
        policy: RepartitionPolicyKind::Exchange,
        cost: MigrationCostConfig::default(),
    }
}

fn halo_actop(size: Size, seed: u64, trace: Option<TraceConfig>) -> (Prepared, Setup) {
    let shape = HaloShape::at(size, 6_000.0);
    let cfg = shape.config(seed);
    let rt = shape.runtime(seed, trace);
    let agents = shape.agents();
    let t = Instant::now();
    let (app, workload) = HaloWorkload::build(cfg);
    let workload_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cluster = Cluster::new(rt, app);
    let mut engine = new_engine(&cluster);
    workload.install(&mut engine);
    install_actop(&mut engine, shape.servers, &agents);
    let runtime_s = t.elapsed().as_secs_f64();
    legacy(
        LegacyRun {
            engine,
            cluster,
            warmup: shape.warmup,
            measure: shape.measure,
            agents,
            checker: CheckerConfig::default(),
        },
        workload_s,
        runtime_s,
    )
}

fn counter_saturated(size: Size, seed: u64, trace: Option<TraceConfig>) -> (Prepared, Setup) {
    let (warmup, measure) = match size {
        Size::Bench => (Nanos::from_secs(10), Nanos::from_secs(200)),
        Size::Tiny => (Nanos::from_secs(1), Nanos::from_secs(2)),
    };
    // ~98% of one server's capacity under the default allocation: the
    // relative operating point of the paper's Fig. 4.
    let cfg = uniform::counter(19_800.0, warmup + measure, seed);
    let mut rt = RuntimeConfig::single_server(seed);
    rt.record_breakdown = true;
    rt.cost_attr = trace.is_some();
    rt.trace = trace;
    let t = Instant::now();
    let (app, driver) = UniformWorkload::build(cfg);
    let workload_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cluster = Cluster::new(rt, app);
    let mut engine = new_engine(&cluster);
    driver.install(&mut engine);
    let runtime_s = t.elapsed().as_secs_f64();
    legacy(
        LegacyRun {
            engine,
            cluster,
            warmup,
            measure,
            agents: ActOpConfig::default(),
            checker: CheckerConfig::default(),
        },
        workload_s,
        runtime_s,
    )
}

fn halo_chaos(size: Size, seed: u64, trace: Option<TraceConfig>) -> (Prepared, Setup) {
    let shape = HaloShape::at(size, 4_000.0);
    let cfg = shape.config(seed);
    let timeout = Nanos::from_secs(2);
    let transfer = Nanos::from_millis(2);
    let mut rt = shape.runtime(seed, trace);
    rt.record_remote_call_latency = false;
    rt.request_timeout = Some(timeout);
    rt.detector = Some(DetectorConfig::default());
    rt.migration_transfer = Some(transfer);
    rt.series_bin_ns = 1_000_000_000;
    rt.obs = Some(ObsConfig::default());
    rt.snapshot = Some(SnapshotConfig::default());
    let agents = shape.agents();
    let m = shape.measure.as_nanos();
    let plan = FaultPlan::crash_restore(2, Nanos(m / 4), Nanos(m / 2), Nanos(m * 3 / 4));
    let checker = CheckerConfig {
        crash_windows: plan.crash_windows(shape.servers, shape.warmup, shape.duration()),
        migration_transfer: Some(transfer),
        open_at_end_grace: timeout * 2,
        ..CheckerConfig::default()
    };
    let t = Instant::now();
    let (app, workload) = HaloWorkload::build(cfg);
    let workload_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cluster = Cluster::new(rt, app);
    let mut engine = new_engine(&cluster);
    let horizon = shape.duration();
    workload.install(&mut engine);
    install_actop(&mut engine, shape.servers, &agents);
    cluster.install_heartbeats(&mut engine, horizon);
    cluster.install_scraper(&mut engine, horizon);
    cluster.install_snapshots(&mut engine, horizon);
    // The plan is authored relative to the measurement window; its audit
    // event panics the run if a restore served lost or duplicated state.
    install_plan(&mut engine, &cluster, &plan, shape.warmup);
    cluster.install_accuracy_sampler(&mut engine, shape.warmup, horizon, Nanos::from_millis(100));
    let runtime_s = t.elapsed().as_secs_f64();
    legacy(
        LegacyRun {
            engine,
            cluster,
            warmup: shape.warmup,
            measure: shape.measure,
            agents,
            checker,
        },
        workload_s,
        runtime_s,
    )
}

fn scale_celebrity(size: Size, seed: u64, trace: Option<TraceConfig>) -> (Prepared, Setup) {
    let (players, warmup, measure) = match size {
        // 45 s warmup: the celebrity replica ladder converges in ~15 s of
        // 2 s-cooldown split decisions, and the pre-split backlog drains.
        Size::Bench => (1_000_000, Nanos::from_secs(45), Nanos::from_secs(300)),
        Size::Tiny => (20_000, Nanos::from_secs(2), Nanos::from_secs(4)),
    };
    let cfg = ScaleConfig::celebrity(players, warmup + measure, seed);
    // Eight 4-core servers; replication splits past 20% of one server
    // (the settings of the repository's scale bench).
    let mut rt = RuntimeConfig::paper_testbed(seed);
    rt.servers = 8;
    rt.costs.cores_per_server = 4;
    rt.initial_threads_per_stage = 4;
    rt.series_bin_ns = 5_000_000_000;
    rt.replication = Some(ReplicationConfig {
        thresholds: SplitThresholds {
            capacity_fraction: 0.2,
            drop_fraction: 0.3,
            ..SplitThresholds::default()
        },
        cooldown: Nanos::from_secs(2),
        min_load_ns: 100_000_000,
        ..ReplicationConfig::default()
    });
    rt.snapshot = Some(SnapshotConfig::default());
    rt.cost_attr = trace.is_some();
    rt.trace = trace;
    let servers = rt.servers;
    let cores = rt.costs.cores_per_server;
    let series_bin_ns = rt.series_bin_ns;
    let lookahead = sharded_lookahead(&rt);
    let t = Instant::now();
    let (app, workload) = ShardedScaleWorkload::build(cfg);
    let workload_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let worlds = build_sharded(rt, app, SHARDS);
    let threads = worlds.len();
    let mut runner = ConservativeRunner::new(worlds, lookahead);
    for cell in runner.cells_mut() {
        cell.engine.set_cost_attr(cell.world.trace().enabled());
    }
    install_sharded_hooks(&mut runner);
    workload.install(&mut runner);
    install_replication_sharded(&mut runner, cfg.duration);
    install_snapshots_sharded(&mut runner, cfg.duration);
    let runtime_s = t.elapsed().as_secs_f64();
    let run = ShardedRun {
        runner,
        workload,
        threads,
        servers,
        cores,
        series_bin_ns,
        players,
        warmup,
        measure,
    };
    (
        Prepared::Sharded(Box::new(run)),
        Setup {
            workload_s,
            runtime_s,
        },
    )
}

fn new_engine(cluster: &Cluster) -> Engine<Cluster> {
    let mut engine = Engine::new();
    engine.set_cost_attr(cluster.config.cost_attr);
    engine
}

fn legacy(run: LegacyRun, workload_s: f64, runtime_s: f64) -> (Prepared, Setup) {
    (
        Prepared::Legacy(Box::new(run)),
        Setup {
            workload_s,
            runtime_s,
        },
    )
}

// ---------------------------------------------------------------------
// Running and measuring.
// ---------------------------------------------------------------------

/// A prepared run on the single-threaded engine.
struct LegacyRun {
    engine: Engine<Cluster>,
    cluster: Cluster,
    warmup: Nanos,
    measure: Nanos,
    agents: ActOpConfig,
    checker: CheckerConfig,
}

impl LegacyRun {
    fn run(self, setup: Setup, traced: bool) -> Result<Outcome, String> {
        let LegacyRun {
            mut engine,
            mut cluster,
            warmup,
            measure,
            agents,
            checker,
        } = self;
        let started = Instant::now();
        let summary = run_steady_state(&mut engine, &mut cluster, warmup, measure);
        let mut sim = latency(&cluster.metrics);
        let wall_s = started.elapsed().as_secs_f64();

        if let Some((actor, mem, durable)) = cluster.state_divergence() {
            return Err(format!(
                "state divergence: actor {actor} holds version {mem}, the store {durable}"
            ));
        }
        let mut report = engine.report();
        report.attr.merge(cluster.cost_attr());
        let end = warmup + measure;
        let servers = cluster.server_count();
        sim.extend(counts(
            &cluster.metrics,
            summary.cpu_utilization,
            &report,
            cluster
                .snapshot_store()
                .map_or(0, |s| s.total_journal_len()),
            rounds(&agents, servers, end),
            0,
        ));
        let mut host = setup_metrics(setup);
        host.extend(runner_metrics(&report, &[report.wall_ns], 1, wall_s));
        if traced {
            host.extend(attribution(&report, wall_s));
            let now = engine.now();
            let partition = agents
                .partition
                .unwrap_or_else(|| partition_agent(Nanos::from_secs(1)));
            // Replays run on the end state, after every measurement: a
            // round past the exchange cooldown, so it does real work.
            let later = now + partition.interval;
            let round_us: Vec<f64> = (0..servers)
                .map(|server| {
                    let t = Instant::now();
                    run_partition_round(&mut cluster, &mut engine, later, server, &partition);
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            host.push(("partition.round_us", median(&round_us)));
            let cores = cluster.config.costs.cores_per_server;
            let solve_us: Vec<f64> = (0..servers)
                .map(|server| solve_us(&cluster.drain_stage_stats(now, server), cores))
                .collect();
            host.push(("seda.solve_us", median(&solve_us)));
            let trace = &cluster.trace;
            sim.extend(span_metrics(
                trace.spans(),
                trace.dropped_spans(),
                warmup,
                &checker,
            )?);
        }
        Ok(Outcome {
            setup,
            wall_s,
            sim,
            host,
        })
    }
}

/// A prepared run on the conservative-parallel sharded backend.
struct ShardedRun {
    runner: ConservativeRunner<ShardedCluster>,
    workload: ShardedScaleWorkload,
    threads: usize,
    servers: usize,
    cores: usize,
    series_bin_ns: u64,
    players: u64,
    warmup: Nanos,
    measure: Nanos,
}

impl ShardedRun {
    fn run(self, setup: Setup, traced: bool) -> Result<Outcome, String> {
        let ShardedRun {
            mut runner,
            workload,
            threads,
            servers,
            cores,
            series_bin_ns,
            players,
            warmup,
            measure,
        } = self;
        let end = warmup + measure;
        let started = Instant::now();
        runner.run_until(warmup, threads);
        for cell in runner.cells_mut() {
            cell.world.reset_steady_state();
        }
        runner.run_until(end, threads);
        let mut merged = ClusterMetrics::new(series_bin_ns);
        let mut util = vec![0.0f64; servers];
        for cell in runner.cells() {
            merged.merge_from(cell.world.metrics());
            for (server, u) in cell.world.utilizations(warmup, end) {
                util[server] = u;
            }
        }
        let mut sim = latency(&merged);
        let wall_s = started.elapsed().as_secs_f64();

        let audit = workload.memory_audit();
        if audit.slab_bytes != players * 64 {
            return Err(format!(
                "memory audit: slab holds {} bytes for {players} players, expected {}",
                audit.slab_bytes,
                players * 64
            ));
        }
        // Per-server utilizations reduce in server order, so the mean is
        // independent of how servers are dealt to shards.
        let cpu_util = util.iter().sum::<f64>() / servers as f64;
        let journal_len = runner.cells()[0]
            .world
            .with_snapshot_store(|s| s.total_journal_len())
            .unwrap_or(0);
        let report = runner.report();
        sim.extend(counts(
            &merged,
            cpu_util,
            &report,
            journal_len,
            (0, 0),
            audit.slab_bytes,
        ));
        let busy: Vec<u128> = runner
            .cells()
            .iter()
            .map(|c| c.engine.report().wall_ns)
            .collect();
        let mut host = setup_metrics(setup);
        host.extend(runner_metrics(&report, &busy, threads, wall_s));
        if traced {
            host.extend(attribution(&report, wall_s));
            let now = runner.now();
            let solve: Vec<f64> = runner
                .cells_mut()
                .iter_mut()
                .flat_map(|cell| {
                    let world = &mut cell.world;
                    world
                        .local_servers()
                        .into_iter()
                        .map(|server| solve_us(&world.drain_stage_stats(now, server), cores))
                        .collect::<Vec<_>>()
                })
                .collect();
            host.push(("seda.solve_us", median(&solve)));
            let mut spans: Vec<SpanEvent> = Vec::new();
            let mut dropped = 0;
            for cell in runner.cells() {
                spans.extend_from_slice(cell.world.trace().spans());
                dropped += cell.world.trace().dropped_spans();
            }
            // Each shard records in sim-time order; the checker wants one
            // stream in recording order, so merge the shards' streams by
            // the time each event was recorded (a network span at its
            // send, every other event at its end).
            spans.sort_by_key(|s| match s.kind {
                HopKind::Network => s.t_start,
                _ => s.t_end,
            });
            sim.extend(span_metrics(
                &spans,
                dropped,
                warmup,
                &CheckerConfig::default(),
            )?);
            // The partition replay runs as a serial-phase global at the
            // horizon, after every measurement above.
            let round_us = Rc::new(RefCell::new(Vec::new()));
            let sink = Rc::clone(&round_us);
            let partition = partition_agent(Nanos::from_secs(1));
            runner.schedule_global(end, move |ctx| {
                let later = ctx.now + partition.interval;
                for server in 0..servers {
                    let t = Instant::now();
                    run_partition_round_sharded(ctx, later, server, &partition);
                    sink.borrow_mut().push(t.elapsed().as_secs_f64() * 1e6);
                }
            });
            runner.run_until(end + Nanos(1), threads);
            host.push(("partition.round_us", median(&round_us.borrow())));
        }
        Ok(Outcome {
            setup,
            wall_s,
            sim,
            host,
        })
    }
}

/// Client latency percentiles over the measured window, with their sample
/// count.
fn latency(m: &ClusterMetrics) -> Vec<(&'static str, f64)> {
    let cdf = m.e2e_latency.cdf();
    let ms = |q| cdf_quantile(&cdf, q) / 1e6;
    vec![
        ("sim_p50_ms", ms(0.5)),
        ("sim_p99_ms", ms(0.99)),
        ("sim_p999_ms", ms(0.999)),
        ("sim.requests", m.e2e_latency.count() as f64),
    ]
}

/// Scheduled agent rounds up to `end`: servers start staggered across one
/// interval and tick every interval after, as `install_actop` schedules
/// them.
fn rounds(agents: &ActOpConfig, servers: usize, end: Nanos) -> (u64, u64) {
    let ticks = |interval: Nanos| -> u64 {
        let i = interval.as_nanos();
        (0..servers as u64)
            .map(|s| i * (s + 1) / servers as u64)
            .filter(|&offset| offset <= end.as_nanos())
            .map(|offset| (end.as_nanos() - offset) / i + 1)
            .sum()
    };
    (
        agents.partition.map_or(0, |p| ticks(p.interval)),
        agents.threads.map_or(0, |t| ticks(t.interval)),
    )
}

/// The deterministic counts every workload reports.
fn counts(
    m: &ClusterMetrics,
    cpu_util: f64,
    report: &EngineReport,
    journal_len: u64,
    (partition_rounds, seda_solves): (u64, u64),
    slab_bytes: u64,
) -> Vec<(&'static str, f64)> {
    let failed = failed_share(m.submitted, m.rejected, m.timed_out);
    let n = |v: u64| v as f64;
    vec![
        ("success_share", 1.0 - failed),
        ("sim.events", n(report.events_processed)),
        ("sim.reschedules", n(report.reschedules)),
        ("sim.peak_pending", report.peak_pending as f64),
        ("runtime.cpu_util", cpu_util),
        ("runtime.remote_share", m.remote_fraction()),
        ("runtime.forwards", n(m.forwarded_messages)),
        ("partition.migrations", n(m.migrations)),
        ("partition.rounds", n(partition_rounds)),
        ("seda.solves", n(seda_solves)),
        ("runtime.timeouts", n(m.timed_out)),
        ("runtime.retries", n(m.retries)),
        ("runtime.dir_repairs", n(m.directory_repairs)),
        ("snapshot.state_writes", n(m.state_writes)),
        ("snapshot.journal_len", n(journal_len)),
        ("snapshot.rounds", n(m.snap_rounds_completed)),
        ("snapshot.captures", n(m.snap_captures)),
        ("snapshot.restores", n(m.restores)),
        ("snapshot.replayed", n(m.restore_replayed)),
        ("replication.splits", n(m.splits)),
        ("replication.replica_reads", n(m.replica_reads)),
        ("replication.replica_writes", n(m.replica_writes)),
        ("replication.drops", n(m.replica_drops)),
        ("workloads.slab_mb", slab_bytes as f64 / MIB),
    ]
}

fn setup_metrics(setup: Setup) -> Vec<(&'static str, f64)> {
    vec![
        ("setup.workload_s", setup.workload_s),
        ("setup.runtime_s", setup.runtime_s),
    ]
}

/// Where the run loops' time went: per-engine busy time, the serial
/// phases, and the time worker threads spent waiting at barriers. A
/// single-threaded run is one fully busy "shard".
fn runner_metrics(
    report: &EngineReport,
    busy_ns: &[u128],
    threads: usize,
    wall_s: f64,
) -> Vec<(&'static str, f64)> {
    let secs = |ns: u128| ns as f64 / 1e9;
    let cpu_s = secs(report.cpu_ns);
    let loop_wall_s = secs(report.wall_ns);
    let busy_sum: u128 = busy_ns.iter().sum();
    let busy_max = busy_ns.iter().copied().max().unwrap_or(0);
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let capacity_s = threads as f64 * loop_wall_s;
    vec![
        (
            "sim.ns_per_event",
            wall_s * 1e9 / report.events_processed.max(1) as f64,
        ),
        ("shard.busy_max_s", secs(busy_max)),
        (
            "shard.busy_mean_s",
            secs(busy_sum) / busy_ns.len().max(1) as f64,
        ),
        ("shard.cpu_s", cpu_s),
        ("shard.serial_share", share(cpu_s - secs(busy_sum), cpu_s)),
        (
            "shard.barrier_wait_share",
            share((capacity_s - cpu_s).max(0.0), capacity_s),
        ),
        ("shard.parallelism", share(cpu_s, loop_wall_s)),
    ]
}

/// The cost-attribution buckets: exact op counts and each bucket's
/// sampled wall time as a share of the execution's wall time.
fn attribution(report: &EngineReport, wall_s: f64) -> Vec<(&'static str, f64)> {
    let attr = &report.attr;
    let share = |sub: Subsystem| attr.wall_ns[sub as usize] as f64 / 1e9 / wall_s;
    let ops = |sub: Subsystem| attr.ops[sub as usize] as f64;
    let attributed: f64 = Subsystem::ALL.iter().map(|&s| share(s)).sum();
    vec![
        ("sim.heap_ops", ops(Subsystem::Heap)),
        ("sim.heap_share", share(Subsystem::Heap)),
        ("runtime.routing_ops", ops(Subsystem::Routing)),
        ("runtime.routing_share", share(Subsystem::Routing)),
        ("sketch.ops", ops(Subsystem::Sketch)),
        ("sketch.share", share(Subsystem::Sketch)),
        ("runtime.detector_ops", ops(Subsystem::Detector)),
        ("runtime.detector_share", share(Subsystem::Detector)),
        ("obs.scrape_ops", ops(Subsystem::Scrape)),
        ("obs.scrape_share", share(Subsystem::Scrape)),
        ("trace.record_ops", ops(Subsystem::Tracer)),
        ("trace.record_share", share(Subsystem::Tracer)),
        ("sim.unattributed_share", 1.0 - attributed),
    ]
}

/// Times the model-driven thread allocator on one server's end-state
/// stage statistics: median microseconds per solve.
fn solve_us(reports: &[StageReport; 4], cores: usize) -> f64 {
    let kind = StageKind { blocking: false };
    let mut estimator = ParamEstimator::new(vec![kind; 4], 0.4);
    for (i, r) in reports.iter().enumerate() {
        estimator.observe(
            i,
            StageObservation {
                arrivals: r.arrivals,
                completions: r.completions,
                window_secs: r.window.as_secs_f64().max(1e-9),
                sum_wallclock_secs: r.sum_wallclock_ns / 1e9,
                sum_cpu_secs: r.sum_cpu_ns / 1e9,
            },
        );
    }
    let controller = ModelDrivenController::new(ETA_SIM_CALIBRATED, cores);
    let t = Instant::now();
    for _ in 0..SOLVE_REPEATS {
        black_box(controller.allocate_from(black_box(&estimator)));
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(SOLVE_REPEATS)
}

/// The Fig. 4 decomposition of the sampled requests in the measured
/// window: each stage's queueing and service time, and the network time,
/// as shares of those requests' end-to-end latency. Checks first that the
/// trace is complete and satisfies every lifecycle invariant.
fn span_metrics(
    spans: &[SpanEvent],
    dropped: u64,
    warmup: Nanos,
    checker: &CheckerConfig,
) -> Result<Vec<(&'static str, f64)>, String> {
    if dropped > 0 {
        return Err(format!("tracer dropped {dropped} spans"));
    }
    let report = check_events(spans, checker);
    if !report.is_clean() {
        let first: Vec<String> = report
            .violations
            .iter()
            .take(3)
            .map(ToString::to_string)
            .collect();
        return Err(format!(
            "{} lifecycle violations in the trace, first: {}",
            report.violations.len(),
            first.join("; ")
        ));
    }
    // Request ids are reused slots, so pair each completion with the
    // latest admission of its id, in recording order.
    let mut admitted: HashMap<u64, Nanos> = HashMap::new();
    let mut latency_ns = 0.0;
    for s in spans {
        match s.kind {
            HopKind::GatewayAdmit => {
                admitted.insert(s.request, s.t_start);
            }
            HopKind::ClientDone => {
                if let Some(at) = admitted.remove(&s.request).filter(|_| s.t_start >= warmup) {
                    latency_ns += (s.t_start - at).as_nanos() as f64;
                }
            }
            _ => {}
        }
    }
    let measured: Vec<SpanEvent> = spans
        .iter()
        .filter(|s| s.t_start >= warmup)
        .copied()
        .collect();
    let parts = decompose(&measured);
    let share = |label: &str| {
        parts
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0.0, |&(_, ns)| ns / latency_ns.max(1.0))
    };
    Ok(vec![
        ("trace.spans", spans.len() as f64),
        ("trace.dropped", 0.0),
        ("runtime.queue_share.recv", share("Recv. queue")),
        ("runtime.queue_share.worker", share("Worker queue")),
        ("runtime.queue_share.send", share("Sender queue")),
        ("runtime.service_share.recv", share("Recv. processing")),
        ("runtime.service_share.worker", share("Worker processing")),
        ("runtime.service_share.send", share("Sender processing")),
        ("runtime.net_share", share("Network")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agent_rounds_follow_the_staggered_schedule() {
        let agents = ActOpConfig {
            partition: Some(partition_agent(Nanos::from_secs(1))),
            threads: None,
        };
        // Two servers at offsets 0.5 s and 1 s, ticking every second up
        // to 3 s inclusive: 0.5, 1.5, 2.5 and 1, 2, 3.
        assert_eq!(rounds(&agents, 2, Nanos::from_secs(3)), (6, 0));
        assert_eq!(
            rounds(&ActOpConfig::default(), 2, Nanos::from_secs(3)),
            (0, 0)
        );
    }

    /// A shrunken run of each workload's builders twice: the simulated
    /// results must agree bit-for-bit, traced or not.
    #[test]
    fn tiny_runs_repeat_bit_for_bit() {
        for w in Workload::ALL {
            let a = execute(w, Size::Tiny, 5, false).expect("untraced run passes its checks");
            let b = execute(w, Size::Tiny, 5, true).expect("traced run passes its checks");
            assert!(
                a.get("sim.requests").unwrap() > 0.0,
                "{}: no requests",
                w.name()
            );
            for (name, value) in &a.sim {
                let traced = b.get(name).unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(
                    value.to_bits(),
                    traced.to_bits(),
                    "{}: {name} differs between runs ({value} vs {traced})",
                    w.name()
                );
            }
        }
    }
}
