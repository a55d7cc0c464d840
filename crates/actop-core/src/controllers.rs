//! The per-server ActOp control loops.
//!
//! Both agents are installed as self-rescheduling simulation events. Their
//! control state (parameter estimators, configuration) travels through the
//! event chain as one [`Agent`] value, mirroring a per-server background
//! thread in the real Orleans integration. Each agent is written once,
//! against [`AgentHost`], and runs unchanged on both backends: as an
//! engine event on the sequential [`Cluster`] and as a serial-phase global
//! on the sharded one. Control-plane work is modeled as instantaneous:
//! the paper's protocol exchanges candidate sets of bounded size and its
//! measured overhead is negligible next to data-plane traffic.

use std::ops::Range;

use actop_partition::{
    build_policy, ExchangePolicy, MigrationCostConfig, PartitionConfig, RepartitionPolicy,
    RepartitionPolicyKind,
};
use actop_runtime::{ActorId, AgentHost, Cluster, ClusterHost, ShardedCluster, ShardedHost};
use actop_seda::estimator::StageKind as EstimatorStageKind;
use actop_seda::{ModelDrivenController, ParamEstimator, QueueLengthController, StageObservation};
use actop_sim::{ConservativeRunner, Engine, GlobalCtx, Nanos};

/// Configuration of the partition agent (§4).
#[derive(Debug, Clone, Copy)]
pub struct PartitionAgentConfig {
    /// The protocol tunables (candidate set size `k`, tolerance `delta`,
    /// cooldown).
    pub protocol: PartitionConfig,
    /// How often each server initiates an exchange.
    pub interval: Nanos,
    /// Sketch aging factor applied once per interval (1.0 disables aging).
    pub sketch_age_factor: f64,
    /// Which repartitioning algorithm the agent drives. The default is the
    /// paper's exchange protocol, scheduled byte-identically to the
    /// pre-policy agent.
    pub policy: RepartitionPolicyKind,
    /// Migration-cost amortization settings; consumed only by
    /// [`RepartitionPolicyKind::ExchangeCostAware`].
    pub cost: MigrationCostConfig,
}

impl Default for PartitionAgentConfig {
    fn default() -> Self {
        Self::with_interval(Nanos::from_secs(10))
    }
}

impl PartitionAgentConfig {
    /// An agent with the given exchange interval and a coherent cooldown
    /// (half the interval). The paper's production deployment used a
    /// one-minute cooldown against minute-scale graph churn; scale the
    /// interval with your churn instead of inheriting that constant.
    pub fn with_interval(interval: Nanos) -> Self {
        PartitionAgentConfig {
            protocol: PartitionConfig {
                exchange_cooldown_ns: interval.as_nanos() / 2,
                ..PartitionConfig::default()
            },
            interval,
            sketch_age_factor: 0.8,
            policy: RepartitionPolicyKind::default(),
            cost: MigrationCostConfig::default(),
        }
    }

    /// The same agent driving a different repartitioning policy.
    pub fn with_policy(mut self, policy: RepartitionPolicyKind) -> Self {
        self.policy = policy;
        self
    }
}

/// Which allocator drives the thread agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThreadAllocatorKind {
    /// ActOp's model-driven allocator (Theorem 2 / KKT).
    ModelDriven {
        /// The thread-count penalty `eta`, seconds per thread.
        eta: f64,
    },
    /// The queue-length threshold baseline (§5.1, Fig. 7).
    QueueLength {
        /// Add a thread above this queue length.
        high_watermark: usize,
        /// Remove a thread below this queue length.
        low_watermark: usize,
    },
}

/// The thread penalty `eta` calibrated for the *simulated* testbed, via
/// the paper's own procedure (§6.2): find the empirically optimal
/// allocation at a reference load, then pick the `eta` whose solution
/// matches it. The paper's 100 µs/thread applied to its physical servers;
/// the simulator's multithreading tax is milder, hence the smaller value.
pub const ETA_SIM_CALIBRATED: f64 = 3e-6;

/// Configuration of the thread agent (§5).
#[derive(Debug, Clone, Copy)]
pub struct ThreadAgentConfig {
    /// Re-solve period.
    pub interval: Nanos,
    /// The allocator.
    pub allocator: ThreadAllocatorKind,
    /// Whether the worker stage performs synchronous blocking calls
    /// (selects the estimator's `S0` set, §5.4).
    pub worker_blocking: bool,
    /// EWMA smoothing for the parameter estimates.
    pub smoothing: f64,
}

impl Default for ThreadAgentConfig {
    fn default() -> Self {
        ThreadAgentConfig {
            interval: Nanos::from_secs(5),
            allocator: ThreadAllocatorKind::ModelDriven {
                eta: ETA_SIM_CALIBRATED,
            },
            worker_blocking: false,
            smoothing: 0.4,
        }
    }
}

/// Full ActOp configuration: enable either optimization independently
/// (the paper evaluates them separately in §6.1/§6.2 and together in
/// §6.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct ActOpConfig {
    /// The locality-aware partition agent, if enabled.
    pub partition: Option<PartitionAgentConfig>,
    /// The thread-allocation agent, if enabled.
    pub threads: Option<ThreadAgentConfig>,
}

impl ActOpConfig {
    /// Both optimizations with default settings.
    pub fn full() -> Self {
        ActOpConfig {
            partition: Some(PartitionAgentConfig::default()),
            threads: Some(ThreadAgentConfig::default()),
        }
    }

    /// Only actor partitioning (the §6.1 configuration).
    pub fn partition_only() -> Self {
        ActOpConfig {
            partition: Some(PartitionAgentConfig::default()),
            threads: None,
        }
    }

    /// Only thread allocation (the §6.2 configuration).
    pub fn threads_only() -> Self {
        ActOpConfig {
            partition: None,
            threads: Some(ThreadAgentConfig::default()),
        }
    }
}

/// Installs the configured agents on every server, on either backend's
/// event queue. Agents are staggered across the interval so servers do not
/// act in lockstep.
pub fn install_actop(queue: &mut impl AgentQueue, servers: usize, config: &ActOpConfig) {
    let stagger = |interval: Nanos, server: usize| {
        Nanos(interval.as_nanos() * (server as u64 + 1) / servers as u64)
    };
    if let Some(config) = config.partition {
        let policy = || build_policy(config.policy, config.cost);
        match config.policy {
            // Global policies run one round per interval over every
            // server's view.
            RepartitionPolicyKind::DynamicBalanced | RepartitionPolicyKind::Centralized => {
                let policy = policy();
                queue.schedule(
                    config.interval,
                    Agent(AgentState::GlobalPolicy { config, policy }),
                );
            }
            // One agent per server. The exchange protocol (cost-aware or
            // not) keeps no policy object: each round borrows the host's
            // view buffer.
            kind => {
                let exchange = matches!(
                    kind,
                    RepartitionPolicyKind::Exchange | RepartitionPolicyKind::ExchangeCostAware
                );
                for server in 0..servers {
                    let policy = (!exchange).then(policy);
                    let agent = Agent(AgentState::Partition {
                        server,
                        config,
                        policy,
                    });
                    queue.schedule(stagger(config.interval, server), agent);
                }
            }
        }
    }
    if let Some(config) = config.threads {
        for server in 0..servers {
            let estimator = ParamEstimator::new(
                vec![
                    EstimatorStageKind { blocking: false },
                    EstimatorStageKind {
                        blocking: config.worker_blocking,
                    },
                    EstimatorStageKind { blocking: false },
                    EstimatorStageKind { blocking: false },
                ],
                config.smoothing,
            );
            queue.schedule(
                stagger(config.interval, server),
                Agent(AgentState::Threads {
                    server,
                    config,
                    estimator,
                }),
            );
        }
    }
}

/// One agent's control state, carried from each tick to the next through
/// the event chain. Opaque: [`install_actop`] creates every agent.
pub struct Agent(AgentState);

enum AgentState {
    /// The repartitioning agent of one server (§4): a non-exchange
    /// per-server policy with its state, or `None` for the exchange
    /// protocol, which borrows the host's view buffer.
    Partition {
        server: usize,
        config: PartitionAgentConfig,
        policy: Option<Box<dyn RepartitionPolicy<ActorId>>>,
    },
    /// A global-scope repartitioning policy: one round per interval over
    /// the whole cluster.
    GlobalPolicy {
        config: PartitionAgentConfig,
        policy: Box<dyn RepartitionPolicy<ActorId>>,
    },
    /// The thread allocator of one server (§5), with the parameter
    /// estimates it refines every tick.
    Threads {
        server: usize,
        config: ThreadAgentConfig,
        estimator: ParamEstimator,
    },
}

impl Agent {
    /// Runs one round on `host`, then queues the next one an interval on.
    fn tick<H: AgentHost + AgentQueue>(mut self, host: &mut H) {
        let now = host.now();
        let interval = match &mut self.0 {
            AgentState::Partition {
                server,
                config,
                policy,
            } => {
                if let Some(policy) = policy {
                    policy.round(host, now.as_nanos(), *server, &config.protocol);
                } else {
                    exchange_round(host, *server, config);
                }
                age_sketches(host, config, *server..*server + 1);
                config.interval
            }
            // One interval covers the whole cluster, so every server's
            // sketch ages here.
            AgentState::GlobalPolicy { config, policy } => {
                policy.round(host, now.as_nanos(), 0, &config.protocol);
                age_sketches(host, config, 0..host.servers());
                config.interval
            }
            AgentState::Threads {
                server,
                config,
                estimator,
            } => {
                reallocate_threads(host, *server, config, estimator);
                config.interval
            }
        };
        host.schedule(now + interval, self);
    }
}

/// Where an agent's next tick is queued: either backend's event queue, at
/// install time ([`Engine<Cluster>`], [`ConservativeRunner<ShardedCluster>`])
/// or from inside a tick (their [`AgentHost`]s). A tick runs as an engine
/// event on the sequential backend and as a serial-phase global on the
/// sharded one.
pub trait AgentQueue {
    /// Queues `agent`'s next tick at simulated time `at`.
    fn schedule(&mut self, at: Nanos, agent: Agent);
}

impl AgentQueue for Engine<Cluster> {
    fn schedule(&mut self, at: Nanos, agent: Agent) {
        Engine::schedule(self, at, cluster_tick(agent));
    }
}

impl AgentQueue for ClusterHost<'_> {
    fn schedule(&mut self, at: Nanos, agent: Agent) {
        self.engine.schedule(at, cluster_tick(agent));
    }
}

impl AgentQueue for ConservativeRunner<ShardedCluster> {
    fn schedule(&mut self, at: Nanos, agent: Agent) {
        self.schedule_global(at, sharded_tick(agent));
    }
}

impl AgentQueue for ShardedHost<'_, '_> {
    fn schedule(&mut self, at: Nanos, agent: Agent) {
        self.ctx.schedule_global(at, sharded_tick(agent));
    }
}

fn cluster_tick(agent: Agent) -> impl FnOnce(&mut Cluster, &mut Engine<Cluster>) {
    move |cluster, engine| {
        let now = engine.now();
        agent.tick(&mut ClusterHost::new(cluster, engine, now));
    }
}

fn sharded_tick(agent: Agent) -> impl FnOnce(&mut GlobalCtx<'_, ShardedCluster>) {
    move |ctx| {
        let now = ctx.now;
        agent.tick(&mut ShardedHost::new(ctx, now));
    }
}

/// Executes one initiation of the pairwise protocol on the sequential
/// backend. Public so ablation benches can drive rounds manually. Returns
/// the number of migrations. `now` stays an explicit parameter (it stamps
/// the exchange cooldown) while `engine` schedules migration transfer
/// windows.
pub fn run_partition_round(
    cluster: &mut Cluster,
    engine: &mut Engine<Cluster>,
    now: Nanos,
    initiator: usize,
    config: &PartitionAgentConfig,
) -> usize {
    exchange_round(
        &mut ClusterHost::new(cluster, engine, now),
        initiator,
        config,
    )
}

/// [`run_partition_round`] on the sharded backend, from a global event.
pub fn run_partition_round_sharded(
    ctx: &mut GlobalCtx<'_, ShardedCluster>,
    now: Nanos,
    initiator: usize,
    config: &PartitionAgentConfig,
) -> usize {
    exchange_round(&mut ShardedHost::new(ctx, now), initiator, config)
}

/// One initiation of the pairwise protocol (Alg. 1's initiator side plus
/// the responder's selection) at the host's time. With
/// `config.policy == ExchangeCostAware` every candidate move is charged the
/// measured migration tax; any other kind runs the paper's cost-oblivious
/// protocol (byte-identical to the pre-policy agent). The round borrows the
/// host's view buffer, so repeated rounds reuse it.
fn exchange_round(
    host: &mut impl AgentHost,
    initiator: usize,
    config: &PartitionAgentConfig,
) -> usize {
    let mut policy = ExchangePolicy {
        cost: (config.policy == RepartitionPolicyKind::ExchangeCostAware).then_some(config.cost),
        view: std::mem::take(host.policy_view()),
    };
    let now = host.now().as_nanos();
    let moves = policy.round(host, now, initiator, &config.protocol);
    *host.policy_view() = policy.view;
    moves
}

/// Ages the edge sketches of `servers` by the configured factor, if aging
/// is on.
fn age_sketches(host: &mut impl AgentHost, config: &PartitionAgentConfig, servers: Range<usize>) {
    if config.sketch_age_factor < 1.0 {
        for server in servers {
            host.age_sketch(server, config.sketch_age_factor);
        }
    }
}

/// One thread-agent round for `server`: measure, estimate, re-solve,
/// reconfigure.
fn reallocate_threads(
    host: &mut impl AgentHost,
    server: usize,
    config: &ThreadAgentConfig,
    estimator: &mut ParamEstimator,
) {
    let reports = host.drain_stage_stats(server);
    let current = host.thread_allocation(server);
    let next = match config.allocator {
        ThreadAllocatorKind::ModelDriven { eta } => {
            for (i, report) in reports.iter().enumerate() {
                estimator.observe(
                    i,
                    StageObservation {
                        arrivals: report.arrivals,
                        completions: report.completions,
                        window_secs: report.window.as_secs_f64().max(1e-9),
                        sum_wallclock_secs: report.sum_wallclock_ns / 1e9,
                        sum_cpu_secs: report.sum_cpu_ns / 1e9,
                    },
                );
            }
            let controller = ModelDrivenController::new(eta, host.cores_per_server());
            controller
                .allocate_from(estimator)
                .and_then(|alloc| alloc.try_into().ok())
        }
        ThreadAllocatorKind::QueueLength {
            high_watermark,
            low_watermark,
        } => {
            let controller = QueueLengthController {
                high_watermark,
                low_watermark,
                min_threads: 1,
                max_threads: 64,
            };
            let queues = host.queue_lengths(server);
            controller.step(&queues, &current).try_into().ok()
        }
    };
    if let Some(next) = next {
        if next != current {
            host.set_stage_threads(server, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actop_runtime::app::FixedCostApp;
    use actop_runtime::sharded::install_sharded_hooks;
    use actop_runtime::{
        build_sharded, sharded_lookahead, AppLogic, ClusterMetrics, PlacementPolicy, RuntimeConfig,
    };
    use actop_workloads::halo::HaloConfig;
    use actop_workloads::scale::TrafficShape;
    use actop_workloads::{HaloWorkload, ScaleConfig, ScaleWorkload};

    /// The backend a scenario runs on; the sharded one at 1 shard.
    #[derive(Debug, Clone, Copy)]
    enum Backend {
        Sequential,
        Sharded,
    }

    const BACKENDS: [Backend; 2] = [Backend::Sequential, Backend::Sharded];

    /// A built scenario on either backend, with its agents installed.
    enum World {
        Sequential(Box<Cluster>, Engine<Cluster>),
        Sharded(ConservativeRunner<ShardedCluster>),
    }

    impl World {
        /// A 1-shard runner whose workload `install` schedules.
        fn sharded(
            rt: RuntimeConfig,
            app: Box<dyn AppLogic + Send + Sync>,
            install: impl FnOnce(&mut ConservativeRunner<ShardedCluster>),
        ) -> Self {
            let lookahead = sharded_lookahead(&rt);
            let mut runner = ConservativeRunner::new(build_sharded(rt, app, 1), lookahead);
            install_sharded_hooks(&mut runner);
            install(&mut runner);
            World::Sharded(runner)
        }

        fn install_actop(&mut self, servers: usize, config: &ActOpConfig) {
            match self {
                World::Sequential(_, engine) => install_actop(engine, servers, config),
                World::Sharded(runner) => install_actop(runner, servers, config),
            }
        }

        fn run_until(&mut self, t: Nanos) {
            match self {
                World::Sequential(cluster, engine) => engine.run_until(cluster, t),
                World::Sharded(runner) => runner.run_until(t, 1),
            }
        }

        fn metrics(&self) -> &ClusterMetrics {
            match self {
                World::Sequential(cluster, _) => &cluster.metrics,
                World::Sharded(runner) => runner.cells()[0].world.metrics(),
            }
        }

        fn reset_steady_state(&mut self) {
            match self {
                World::Sequential(cluster, _) => cluster.metrics.reset_steady_state(),
                World::Sharded(runner) => runner.cells_mut()[0].world.reset_steady_state(),
            }
        }

        fn thread_allocation(&self, server: usize) -> [usize; 4] {
            match self {
                World::Sequential(cluster, _) => cluster.servers[server].thread_allocation(),
                World::Sharded(runner) => runner.cells()[0].world.thread_allocation(server),
            }
        }
    }

    fn fast_partition_config() -> PartitionAgentConfig {
        PartitionAgentConfig {
            protocol: PartitionConfig {
                candidate_set_size: 32,
                imbalance_tolerance: 32,
                exchange_cooldown_ns: 0,
                min_total_score: 1,
            },
            interval: Nanos::from_secs(1),
            sketch_age_factor: 1.0,
            policy: RepartitionPolicyKind::Exchange,
            cost: MigrationCostConfig::default(),
        }
    }

    #[test]
    fn partition_agent_reduces_remote_fraction() {
        for backend in BACKENDS {
            partition_agent_reduces_remote_fraction_on(backend);
        }
    }

    fn partition_agent_reduces_remote_fraction_on(backend: Backend) {
        let cfg = HaloConfig::paper_scale(1_000, 400.0, Nanos::from_secs(30), 17);
        let mut rt = RuntimeConfig::paper_testbed(17);
        rt.servers = 4;
        let mut world = match backend {
            Backend::Sequential => {
                let (app, workload) = HaloWorkload::build(cfg);
                let mut engine: Engine<Cluster> = Engine::new();
                workload.install(&mut engine);
                World::Sequential(Box::new(Cluster::new(rt, app)), engine)
            }
            Backend::Sharded => {
                let (app, workload) = HaloWorkload::build(cfg);
                World::sharded(rt, app, |runner| workload.install(runner))
            }
        };
        world.install_actop(
            4,
            &ActOpConfig {
                partition: Some(fast_partition_config()),
                threads: None,
            },
        );
        // Warm up 10 s, then measure the remote share of the rest.
        world.run_until(Nanos::from_secs(10));
        let warm_remote = world.metrics().remote_fraction();
        world.reset_steady_state();
        world.run_until(Nanos::from_secs(30));
        let steady_remote = world.metrics().remote_fraction();
        assert!(
            steady_remote < warm_remote * 0.6,
            "{backend:?}: remote fraction should fall: warmup {warm_remote:.3} steady {steady_remote:.3}"
        );
        assert!(world.metrics().migrations > 0, "{backend:?}");
    }

    #[test]
    fn partition_agent_respects_balance() {
        let cfg = HaloConfig::paper_scale(1_200, 300.0, Nanos::from_secs(25), 19);
        let (app, workload) = HaloWorkload::build(cfg);
        let mut rt = RuntimeConfig::paper_testbed(19);
        rt.servers = 4;
        let mut cluster = Cluster::new(rt, app);
        let mut engine: Engine<Cluster> = Engine::new();
        workload.install(&mut engine);
        let agent = fast_partition_config();
        install_actop(
            &mut engine,
            4,
            &ActOpConfig {
                partition: Some(agent),
                threads: None,
            },
        );
        engine.run_until(&mut cluster, Nanos::from_secs(25));
        let sizes = cluster.server_sizes();
        let max = *sizes.iter().max().unwrap() as i64;
        let min = *sizes.iter().min().unwrap() as i64;
        // Pairwise delta plus drift allowance plus opportunistic-limbo
        // noise: sizes must remain in the same ballpark, not collapse onto
        // one server.
        assert!(
            max - min <= 3 * agent.protocol.imbalance_tolerance as i64 + 32,
            "sizes {sizes:?}"
        );
    }

    #[test]
    fn cooldown_rejects_back_to_back_exchanges() {
        // Two servers, strong pull between them; after one exchange the
        // responder is inside its cooldown window and rejects the next
        // initiation, so no migration happens until the window passes.
        let cfg = HaloConfig::paper_scale(500, 200.0, Nanos::from_secs(12), 41);
        let (app, workload) = HaloWorkload::build(cfg);
        let mut rt = RuntimeConfig::paper_testbed(41);
        rt.servers = 2;
        let mut cluster = Cluster::new(rt, app);
        let mut engine: Engine<Cluster> = Engine::new();
        workload.install(&mut engine);
        // Generate traffic so sketches have signal.
        engine.run_until(&mut cluster, Nanos::from_secs(5));
        let agent = PartitionAgentConfig {
            protocol: PartitionConfig {
                candidate_set_size: 16,
                imbalance_tolerance: 64,
                exchange_cooldown_ns: 60_000_000_000, // One minute, as in §4.2.
                min_total_score: 1,
            },
            interval: Nanos::from_secs(1),
            sketch_age_factor: 1.0,
            policy: RepartitionPolicyKind::Exchange,
            cost: MigrationCostConfig::default(),
        };
        let now = engine.now();
        let first = run_partition_round(&mut cluster, &mut engine, now, 0, &agent);
        assert!(first > 0, "first exchange should move actors");
        let second = run_partition_round(
            &mut cluster,
            &mut engine,
            now + Nanos::from_secs(1),
            1,
            &agent,
        );
        assert_eq!(second, 0, "responder inside cooldown must reject");
        // Past the cooldown the same initiation can succeed again (there
        // is still plenty of remote traffic after one exchange).
        let later = now + Nanos::from_secs(70);
        engine.run_until(&mut cluster, Nanos::from_secs(8));
        let third = run_partition_round(&mut cluster, &mut engine, later, 1, &agent);
        assert!(third > 0, "exchange resumes after cooldown");
    }

    #[test]
    fn thread_agent_reconfigures_under_load() {
        for backend in BACKENDS {
            thread_agent_reconfigures_under_load_on(backend);
        }
    }

    fn thread_agent_reconfigures_under_load_on(backend: Backend) {
        let mut rt = RuntimeConfig::single_server(23);
        rt.initial_threads_per_stage = 8; // Orleans default: way oversized.
                                          // Steady 3 kHz request stream over 1,000 actors.
        let mut world = match backend {
            Backend::Sequential => {
                let cluster = Cluster::new(
                    rt,
                    Box::new(FixedCostApp {
                        cpu_ns: 50_000.0,
                        reply_bytes: 100,
                    }),
                );
                let mut engine: Engine<Cluster> = Engine::new();
                let workload = actop_workloads::uniform::UniformConfig {
                    actors: 1_000,
                    request_rate: 3_000.0,
                    request_bytes: 200,
                    reply_bytes: 100,
                    cpu_ns: 50_000.0,
                    blocking_ns: 0.0,
                    duration: Nanos::from_secs(30),
                    seed: 23,
                };
                let (_, driver) = actop_workloads::UniformWorkload::build(workload);
                driver.install(&mut engine);
                World::Sequential(Box::new(cluster), engine)
            }
            // The sharded backend has no uniform driver; the scale
            // workload's uniform shape issues the same stream (its
            // handler CPU is exponentially jittered around the mean).
            Backend::Sharded => {
                let (app, workload) = ScaleWorkload::build(ScaleConfig {
                    players: 1_000,
                    request_rate_per_player: 3.0,
                    write_fraction: 0.0,
                    request_bytes: 200,
                    reply_bytes: 100,
                    read_cpu_ns: 50_000.0,
                    write_cpu_ns: 50_000.0,
                    state_bytes_per_player: 64,
                    shape: TrafficShape::Uniform,
                    duration: Nanos::from_secs(30),
                    seed: 23,
                });
                World::sharded(rt, app, |runner| workload.install(runner))
            }
        };
        world.install_actop(
            1,
            &ActOpConfig {
                partition: None,
                threads: Some(ThreadAgentConfig {
                    interval: Nanos::from_secs(2),
                    ..ThreadAgentConfig::default()
                }),
            },
        );
        world.run_until(Nanos::from_secs(30));
        let alloc = world.thread_allocation(0);
        assert_ne!(
            alloc,
            [8, 8, 8, 8],
            "{backend:?}: allocation should change: {alloc:?}"
        );
        // The allocation must fit the core budget (beta = 1 everywhere).
        let total: usize = alloc.iter().sum();
        assert!(
            total <= 8,
            "{backend:?}: allocation {alloc:?} exceeds 8 cores"
        );
        assert!(alloc.iter().all(|&t| t >= 1), "{backend:?}: {alloc:?}");
        // The system still keeps up.
        let metrics = world.metrics();
        assert!(
            metrics.completed as f64 >= 0.95 * metrics.submitted as f64,
            "{backend:?}: completed {} of {}",
            metrics.completed,
            metrics.submitted
        );
    }

    #[test]
    fn blocking_workers_get_more_threads_than_cpu_bound_ones() {
        // The §5.2 requirement end to end: two identical services, one
        // whose handlers block on synchronous I/O. The estimator must
        // infer the blocking time via the alpha trick (§5.4) and the
        // solver must hand the blocking worker stage *more* threads (its
        // beta < 1 makes threads cheap in CPU terms).
        let run = |blocking_ns: f64, worker_blocking: bool| {
            let workload = actop_workloads::uniform::UniformConfig {
                actors: 2_000,
                request_rate: 4_000.0,
                request_bytes: 700,
                reply_bytes: 300,
                cpu_ns: 100_000.0,
                blocking_ns,
                duration: Nanos::from_secs(25),
                seed: 37,
            };
            let (app, driver) = actop_workloads::UniformWorkload::build(workload);
            let mut cluster = Cluster::new(RuntimeConfig::single_server(37), app);
            let mut engine: Engine<Cluster> = Engine::new();
            driver.install(&mut engine);
            install_actop(
                &mut engine,
                1,
                &ActOpConfig {
                    partition: None,
                    threads: Some(ThreadAgentConfig {
                        interval: Nanos::from_secs(2),
                        worker_blocking,
                        ..ThreadAgentConfig::default()
                    }),
                },
            );
            engine.run_until(&mut cluster, Nanos::from_secs(25));
            (
                cluster.servers[0].thread_allocation(),
                cluster.metrics.completed,
                cluster.metrics.submitted,
            )
        };
        let (cpu_bound, done_a, sub_a) = run(0.0, false);
        // 1 ms of synchronous blocking per request: the worker stage needs
        // ~4 threads just to cover the wait (lambda * (x + w) = 4.4).
        let (blocking, done_b, sub_b) = run(1_000_000.0, true);
        assert!(
            blocking[1] > cpu_bound[1],
            "blocking workers {blocking:?} vs cpu-bound {cpu_bound:?}"
        );
        assert!(
            blocking[1] >= 5,
            "needs threads to cover the wait: {blocking:?}"
        );
        // Both keep up with the load.
        assert!(done_a as f64 > 0.95 * sub_a as f64);
        assert!(done_b as f64 > 0.95 * sub_b as f64);
    }

    #[test]
    fn queue_length_allocator_also_runs() {
        let mut cluster = Cluster::new(
            RuntimeConfig::single_server(29),
            Box::new(FixedCostApp {
                cpu_ns: 40_000.0,
                reply_bytes: 100,
            }),
        );
        let mut engine: Engine<Cluster> = Engine::new();
        let workload = actop_workloads::uniform::counter(2_000.0, Nanos::from_secs(10), 29);
        let (_, driver) = actop_workloads::UniformWorkload::build(workload);
        driver.install(&mut engine);
        install_actop(
            &mut engine,
            1,
            &ActOpConfig {
                partition: None,
                threads: Some(ThreadAgentConfig {
                    interval: Nanos::from_secs(1),
                    allocator: ThreadAllocatorKind::QueueLength {
                        high_watermark: 100,
                        low_watermark: 10,
                    },
                    worker_blocking: false,
                    smoothing: 0.4,
                }),
            },
        );
        engine.run_until(&mut cluster, Nanos::from_secs(10));
        // With mostly-empty queues the controller walks allocations down.
        let alloc = cluster.servers[0].thread_allocation();
        assert!(alloc.iter().any(|&t| t < 8), "allocation {alloc:?}");
    }

    #[test]
    fn local_placement_plus_partition_agent_rebalances() {
        // Local placement piles everything onto few servers (§3); the
        // exchange protocol only migrates under the balance constraint, so
        // it must not make the skew worse.
        let cfg = HaloConfig::paper_scale(800, 200.0, Nanos::from_secs(20), 31);
        let (app, workload) = HaloWorkload::build(cfg);
        let mut rt = RuntimeConfig::paper_testbed(31);
        rt.servers = 4;
        rt.placement = PlacementPolicy::Local;
        let mut cluster = Cluster::new(rt, app);
        let mut engine: Engine<Cluster> = Engine::new();
        workload.install(&mut engine);
        install_actop(
            &mut engine,
            4,
            &ActOpConfig {
                partition: Some(fast_partition_config()),
                threads: None,
            },
        );
        engine.run_until(&mut cluster, Nanos::from_secs(10));
        let skew_mid: Vec<usize> = cluster.server_sizes();
        engine.run_until(&mut cluster, Nanos::from_secs(20));
        let skew_end: Vec<usize> = cluster.server_sizes();
        let spread = |s: &[usize]| s.iter().max().unwrap() - s.iter().min().unwrap();
        assert!(
            spread(&skew_end) <= spread(&skew_mid) + 64,
            "skew should not explode: {skew_mid:?} -> {skew_end:?}"
        );
    }
}
