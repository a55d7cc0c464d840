//! The per-server ActOp control loops.
//!
//! Both agents are installed as self-rescheduling simulation events. Their
//! control state (parameter estimators, configuration) travels through the
//! event chain, mirroring a per-server background thread in the real
//! Orleans integration. Control-plane work is modeled as instantaneous:
//! the paper's protocol exchanges candidate sets of bounded size and its
//! measured overhead is negligible next to data-plane traffic.

use actop_partition::{
    build_policy, CostSignals, ExchangePolicy, MigrationCostConfig, PartitionConfig, PartitionView,
    PolicyHost, RepartitionPolicy, RepartitionPolicyKind, ViewScope,
};
use actop_runtime::sharded::{
    migrate_actor_sharded, sharded_age_sketch, sharded_age_sketches, sharded_cost_signals,
    sharded_is_failed, sharded_last_exchange, sharded_locate, sharded_note_exchange,
    sharded_partition_view, sharded_policy_view, sharded_server_sizes,
};
use actop_runtime::ActorId;
use actop_runtime::{Cluster, ShardedCluster};
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

/// Installs the configured agents on every server of the cluster. Agents
/// are staggered across the interval so servers do not act in lockstep.
pub fn install_actop(engine: &mut Engine<Cluster>, servers: usize, config: &ActOpConfig) {
    if let Some(partition) = config.partition {
        match partition.policy {
            // The exchange protocol (cost-aware or not) keeps the original
            // per-server tick — the default path schedules byte-identically
            // to the pre-policy agent.
            RepartitionPolicyKind::Exchange | RepartitionPolicyKind::ExchangeCostAware => {
                for server in 0..servers {
                    let offset =
                        Nanos(partition.interval.as_nanos() * (server as u64 + 1) / servers as u64);
                    engine.schedule(offset, move |c: &mut Cluster, e| {
                        partition_tick(c, e, server, partition);
                    });
                }
            }
            RepartitionPolicyKind::OneSided | RepartitionPolicyKind::Stream => {
                for server in 0..servers {
                    let offset =
                        Nanos(partition.interval.as_nanos() * (server as u64 + 1) / servers as u64);
                    let policy = build_policy::<ActorId>(partition.policy, partition.cost);
                    engine.schedule(offset, move |c: &mut Cluster, e| {
                        policy_tick(c, e, server, partition, policy);
                    });
                }
            }
            // Global policies run one round per interval over every
            // server's view; their state travels through the event chain.
            RepartitionPolicyKind::DynamicBalanced | RepartitionPolicyKind::Centralized => {
                let policy = build_policy::<ActorId>(partition.policy, partition.cost);
                engine.schedule(partition.interval, move |c: &mut Cluster, e| {
                    global_policy_tick(c, e, partition, policy);
                });
            }
        }
    }
    if let Some(threads) = config.threads {
        for server in 0..servers {
            let offset = Nanos(threads.interval.as_nanos() * (server as u64 + 1) / servers as u64);
            let estimator = ParamEstimator::new(
                vec![
                    EstimatorStageKind { blocking: false },
                    EstimatorStageKind {
                        blocking: threads.worker_blocking,
                    },
                    EstimatorStageKind { blocking: false },
                    EstimatorStageKind { blocking: false },
                ],
                threads.smoothing,
            );
            engine.schedule(offset, move |c: &mut Cluster, e| {
                thread_tick(c, e, server, threads, estimator);
            });
        }
    }
}

/// One partition-agent round for `server` (Alg. 1's initiator side plus
/// the responder's selection, applied to the cluster).
fn partition_tick(
    cluster: &mut Cluster,
    engine: &mut Engine<Cluster>,
    server: usize,
    config: PartitionAgentConfig,
) {
    let now = engine.now();
    run_partition_round(cluster, engine, now, server, &config);
    if config.sketch_age_factor < 1.0 {
        cluster.servers[server]
            .edge_sketch
            .scale(config.sketch_age_factor);
    }
    engine.schedule_after(config.interval, move |c: &mut Cluster, e| {
        partition_tick(c, e, server, config);
    });
}

/// Executes one initiation of the pairwise protocol. Public so ablation
/// benches can drive rounds manually. Returns the number of migrations.
/// `now` stays an explicit parameter (it stamps the exchange cooldown)
/// while `engine` schedules migration transfer windows.
///
/// With `config.policy == ExchangeCostAware` every candidate move is
/// charged the measured migration tax; any other kind runs the paper's
/// cost-oblivious protocol (byte-identical to the pre-policy agent). The
/// round borrows the cluster's view buffer, so repeated rounds reuse it.
pub fn run_partition_round(
    cluster: &mut Cluster,
    engine: &mut Engine<Cluster>,
    now: Nanos,
    initiator: usize,
    config: &PartitionAgentConfig,
) -> usize {
    let mut policy = exchange_policy(config, std::mem::take(cluster.policy_view()));
    let moves = {
        let mut host = LegacyHost {
            cluster,
            engine,
            now,
        };
        policy.round(&mut host, now.as_nanos(), initiator, &config.protocol)
    };
    *cluster.policy_view() = policy.view;
    moves
}

/// The exchange protocol `config` selects (cost-aware or not), running in
/// a lent view buffer.
fn exchange_policy(
    config: &PartitionAgentConfig,
    view: PartitionView<ActorId>,
) -> ExchangePolicy<ActorId> {
    ExchangePolicy {
        cost: (config.policy == RepartitionPolicyKind::ExchangeCostAware).then_some(config.cost),
        view,
    }
}

/// One round of a non-exchange per-server policy, state moving through the
/// event chain.
fn policy_tick(
    cluster: &mut Cluster,
    engine: &mut Engine<Cluster>,
    server: usize,
    config: PartitionAgentConfig,
    mut policy: Box<dyn RepartitionPolicy<ActorId>>,
) {
    let now = engine.now();
    {
        let mut host = LegacyHost {
            cluster,
            engine,
            now,
        };
        policy.round(&mut host, now.as_nanos(), server, &config.protocol);
    }
    if config.sketch_age_factor < 1.0 {
        cluster.servers[server]
            .edge_sketch
            .scale(config.sketch_age_factor);
    }
    engine.schedule_after(config.interval, move |c: &mut Cluster, e| {
        policy_tick(c, e, server, config, policy);
    });
}

/// One round of a global-scope policy (one interval covers the whole
/// cluster, so every server's sketch ages here).
fn global_policy_tick(
    cluster: &mut Cluster,
    engine: &mut Engine<Cluster>,
    config: PartitionAgentConfig,
    mut policy: Box<dyn RepartitionPolicy<ActorId>>,
) {
    let now = engine.now();
    {
        let mut host = LegacyHost {
            cluster,
            engine,
            now,
        };
        policy.round(&mut host, now.as_nanos(), 0, &config.protocol);
    }
    if config.sketch_age_factor < 1.0 {
        for server in 0..cluster.server_count() {
            cluster.servers[server]
                .edge_sketch
                .scale(config.sketch_age_factor);
        }
    }
    engine.schedule_after(config.interval, move |c: &mut Cluster, e| {
        global_policy_tick(c, e, config, policy);
    });
}

/// [`PolicyHost`] over the sequential cluster: views and placement come
/// from the live directory/sketches, migrations go through
/// [`Cluster::migrate_actor`] (so transfer windows and pinning rules
/// apply), and cost signals are the cluster's measured counters.
struct LegacyHost<'a, 'b> {
    cluster: &'a mut Cluster,
    engine: &'b mut Engine<Cluster>,
    now: Nanos,
}

impl PolicyHost<ActorId> for LegacyHost<'_, '_> {
    fn servers(&self) -> usize {
        self.cluster.server_count()
    }

    fn view(&mut self, server: usize, scope: ViewScope, out: &mut PartitionView<ActorId>) {
        self.cluster.partition_view(server, scope, out);
    }

    fn locate(&mut self, a: &ActorId) -> Option<usize> {
        self.cluster.locate(*a)
    }

    fn sizes(&mut self) -> Vec<usize> {
        self.cluster.server_sizes()
    }

    fn is_failed(&mut self, server: usize) -> bool {
        self.cluster.is_failed(server)
    }

    fn last_exchange_ns(&mut self, server: usize) -> Option<u64> {
        self.cluster.servers[server].last_exchange_ns
    }

    fn migrate(&mut self, a: ActorId, to: usize) {
        self.cluster.migrate_actor(self.engine, self.now, a, to);
    }

    fn note_exchange(&mut self, p: usize, q: usize) {
        let ns = self.now.as_nanos();
        self.cluster.servers[p].last_exchange_ns = Some(ns);
        self.cluster.servers[q].last_exchange_ns = Some(ns);
    }

    fn cost_signals(&mut self) -> CostSignals {
        self.cluster.migration_cost_signals()
    }
}

/// One thread-agent round for `server`: measure, estimate, re-solve,
/// reconfigure.
fn thread_tick(
    cluster: &mut Cluster,
    engine: &mut Engine<Cluster>,
    server: usize,
    config: ThreadAgentConfig,
    mut estimator: ParamEstimator,
) {
    let now = engine.now();
    let reports = cluster.drain_stage_stats(now, server);
    let current: [usize; 4] = cluster.servers[server].thread_allocation();
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
            let cores = cluster.config.costs.cores_per_server;
            let controller = ModelDrivenController::new(eta, cores);
            controller.allocate_from(&estimator).and_then(|alloc| {
                let alloc: [usize; 4] = alloc.try_into().ok()?;
                Some(alloc)
            })
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
            let queues = cluster.servers[server].queue_lengths();
            let next = controller.step(&queues, &current);
            next.try_into().ok()
        }
    };
    if let Some(next) = next {
        if next != current {
            cluster.set_stage_threads(engine, server, next);
        }
    }
    engine.schedule_after(config.interval, move |c: &mut Cluster, e| {
        thread_tick(c, e, server, config, estimator);
    });
}

// ---------------------------------------------------------------------
// The same agents on the sharded (conservative-parallel) backend. The
// control loops are serial-phase globals: they read shard-local sketches
// and the shared directory at barriers, where no window is running, so
// the protocol logic is identical to the sequential version.
// ---------------------------------------------------------------------

/// Installs the configured agents on every server of a sharded cluster.
/// Agents are staggered across the interval so servers do not act in
/// lockstep, exactly as [`install_actop`] does.
pub fn install_actop_sharded(
    runner: &mut ConservativeRunner<ShardedCluster>,
    servers: usize,
    config: &ActOpConfig,
) {
    if let Some(partition) = config.partition {
        match partition.policy {
            RepartitionPolicyKind::Exchange | RepartitionPolicyKind::ExchangeCostAware => {
                for server in 0..servers {
                    let offset =
                        Nanos(partition.interval.as_nanos() * (server as u64 + 1) / servers as u64);
                    runner.schedule_global(offset, move |ctx| {
                        partition_tick_sharded(ctx, server, partition);
                    });
                }
            }
            RepartitionPolicyKind::OneSided | RepartitionPolicyKind::Stream => {
                for server in 0..servers {
                    let offset =
                        Nanos(partition.interval.as_nanos() * (server as u64 + 1) / servers as u64);
                    let policy = build_policy::<ActorId>(partition.policy, partition.cost);
                    runner.schedule_global(offset, move |ctx| {
                        policy_tick_sharded(ctx, server, partition, policy);
                    });
                }
            }
            RepartitionPolicyKind::DynamicBalanced | RepartitionPolicyKind::Centralized => {
                let policy = build_policy::<ActorId>(partition.policy, partition.cost);
                runner.schedule_global(partition.interval, move |ctx| {
                    global_policy_tick_sharded(ctx, partition, policy);
                });
            }
        }
    }
    if let Some(threads) = config.threads {
        for server in 0..servers {
            let offset = Nanos(threads.interval.as_nanos() * (server as u64 + 1) / servers as u64);
            let estimator = ParamEstimator::new(
                vec![
                    EstimatorStageKind { blocking: false },
                    EstimatorStageKind {
                        blocking: threads.worker_blocking,
                    },
                    EstimatorStageKind { blocking: false },
                    EstimatorStageKind { blocking: false },
                ],
                threads.smoothing,
            );
            runner.schedule_global(offset, move |ctx| {
                thread_tick_sharded(ctx, server, threads, estimator);
            });
        }
    }
}

/// One partition-agent round for `server` on the sharded backend.
fn partition_tick_sharded(
    ctx: &mut GlobalCtx<'_, ShardedCluster>,
    server: usize,
    config: PartitionAgentConfig,
) {
    let now = ctx.now;
    run_partition_round_sharded(ctx, now, server, &config);
    if config.sketch_age_factor < 1.0 {
        sharded_age_sketch(ctx, server, config.sketch_age_factor);
    }
    ctx.schedule_global(now + config.interval, move |ctx| {
        partition_tick_sharded(ctx, server, config);
    });
}

/// Executes one initiation of the pairwise protocol on the sharded
/// backend — the same algorithm as [`run_partition_round`], expressed
/// against the serial-phase helpers. Returns the number of migrations.
/// Like [`run_partition_round`], it borrows the backend's view buffer.
pub fn run_partition_round_sharded(
    ctx: &mut GlobalCtx<'_, ShardedCluster>,
    now: Nanos,
    initiator: usize,
    config: &PartitionAgentConfig,
) -> usize {
    let mut policy = exchange_policy(config, std::mem::take(sharded_policy_view(ctx)));
    let servers = sharded_server_sizes(ctx).len();
    let moves = {
        let mut host = ShardedHost { ctx, now, servers };
        policy.round(&mut host, now.as_nanos(), initiator, &config.protocol)
    };
    *sharded_policy_view(ctx) = policy.view;
    moves
}

/// One round of a non-exchange per-server policy on the sharded backend.
fn policy_tick_sharded(
    ctx: &mut GlobalCtx<'_, ShardedCluster>,
    server: usize,
    config: PartitionAgentConfig,
    mut policy: Box<dyn RepartitionPolicy<ActorId>>,
) {
    let now = ctx.now;
    {
        let servers = sharded_server_sizes(ctx).len();
        let mut host = ShardedHost { ctx, now, servers };
        policy.round(&mut host, now.as_nanos(), server, &config.protocol);
    }
    if config.sketch_age_factor < 1.0 {
        sharded_age_sketch(ctx, server, config.sketch_age_factor);
    }
    ctx.schedule_global(now + config.interval, move |ctx| {
        policy_tick_sharded(ctx, server, config, policy);
    });
}

/// One round of a global-scope policy on the sharded backend; the single
/// interval covers the whole cluster, so every server's sketch ages here.
fn global_policy_tick_sharded(
    ctx: &mut GlobalCtx<'_, ShardedCluster>,
    config: PartitionAgentConfig,
    mut policy: Box<dyn RepartitionPolicy<ActorId>>,
) {
    let now = ctx.now;
    {
        let servers = sharded_server_sizes(ctx).len();
        let mut host = ShardedHost { ctx, now, servers };
        policy.round(&mut host, now.as_nanos(), 0, &config.protocol);
    }
    if config.sketch_age_factor < 1.0 {
        sharded_age_sketches(ctx, config.sketch_age_factor);
    }
    ctx.schedule_global(now + config.interval, move |ctx| {
        global_policy_tick_sharded(ctx, config, policy);
    });
}

/// [`PolicyHost`] over the sharded backend. All accessors run in the
/// serial phase (no window in flight), so the shard-local reads and the
/// shared-directory writes behind the `sharded_*` helpers are safe, and
/// migrations commit instantly — there is no transfer window to stall on.
struct ShardedHost<'a, 'b> {
    ctx: &'a mut GlobalCtx<'b, ShardedCluster>,
    now: Nanos,
    /// Precomputed at construction: the trait reads it through `&self`,
    /// but counting servers needs `&mut` access to the context.
    servers: usize,
}

impl PolicyHost<ActorId> for ShardedHost<'_, '_> {
    fn servers(&self) -> usize {
        self.servers
    }

    fn view(&mut self, server: usize, scope: ViewScope, out: &mut PartitionView<ActorId>) {
        sharded_partition_view(self.ctx, server, scope, out);
    }

    fn locate(&mut self, a: &ActorId) -> Option<usize> {
        sharded_locate(self.ctx, *a)
    }

    fn sizes(&mut self) -> Vec<usize> {
        sharded_server_sizes(self.ctx)
    }

    fn is_failed(&mut self, server: usize) -> bool {
        sharded_is_failed(self.ctx, server)
    }

    fn last_exchange_ns(&mut self, server: usize) -> Option<u64> {
        sharded_last_exchange(self.ctx, server)
    }

    fn migrate(&mut self, a: ActorId, to: usize) {
        migrate_actor_sharded(self.ctx, self.now, a, to);
    }

    fn note_exchange(&mut self, p: usize, q: usize) {
        sharded_note_exchange(self.ctx, self.now, p, q);
    }

    fn cost_signals(&mut self) -> CostSignals {
        sharded_cost_signals(self.ctx)
    }
}

/// One thread-agent round for `server` on the sharded backend: measure,
/// estimate, re-solve, reconfigure — all against the shard cell that owns
/// the server.
fn thread_tick_sharded(
    ctx: &mut GlobalCtx<'_, ShardedCluster>,
    server: usize,
    config: ThreadAgentConfig,
    mut estimator: ParamEstimator,
) {
    let now = ctx.now;
    let shared = ctx.cell(0).world.shared();
    let shard = shared.topo.shard_of(server);
    let cell = ctx.cell(shard);
    let reports = cell.world.drain_stage_stats(now, server);
    let current: [usize; 4] = cell.world.thread_allocation(server);
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
            let cores = shared.config.costs.cores_per_server;
            let controller = ModelDrivenController::new(eta, cores);
            controller.allocate_from(&estimator).and_then(|alloc| {
                let alloc: [usize; 4] = alloc.try_into().ok()?;
                Some(alloc)
            })
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
            let queues = cell.world.queue_lengths(server);
            let next = controller.step(&queues, &current);
            next.try_into().ok()
        }
    };
    if let Some(next) = next {
        if next != current {
            let cell = ctx.cell(shard);
            cell.world.set_stage_threads(&mut cell.engine, server, next);
        }
    }
    ctx.schedule_global(now + config.interval, move |ctx| {
        thread_tick_sharded(ctx, server, config, estimator);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use actop_runtime::app::FixedCostApp;
    use actop_runtime::{PlacementPolicy, RuntimeConfig};
    use actop_workloads::halo::HaloConfig;
    use actop_workloads::HaloWorkload;

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
        let cfg = HaloConfig::paper_scale(1_000, 400.0, Nanos::from_secs(30), 17);
        let (app, workload) = HaloWorkload::build(cfg);
        let mut rt = RuntimeConfig::paper_testbed(17);
        rt.servers = 4;
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
        // Warm up 10 s, then measure the remote share of the rest.
        engine.run_until(&mut cluster, Nanos::from_secs(10));
        let warm_remote = cluster.metrics.remote_fraction();
        cluster.metrics.reset_steady_state();
        engine.run_until(&mut cluster, Nanos::from_secs(30));
        let steady_remote = cluster.metrics.remote_fraction();
        assert!(
            steady_remote < warm_remote * 0.6,
            "remote fraction should fall: warmup {warm_remote:.3} steady {steady_remote:.3}"
        );
        assert!(cluster.metrics.migrations > 0);
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
        let mut rt = RuntimeConfig::single_server(23);
        rt.initial_threads_per_stage = 8; // Orleans default: way oversized.
        let mut cluster = Cluster::new(
            rt,
            Box::new(FixedCostApp {
                cpu_ns: 50_000.0,
                reply_bytes: 100,
            }),
        );
        let mut engine: Engine<Cluster> = Engine::new();
        // Steady 3 kHz request stream.
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
        install_actop(
            &mut engine,
            1,
            &ActOpConfig {
                partition: None,
                threads: Some(ThreadAgentConfig {
                    interval: Nanos::from_secs(2),
                    ..ThreadAgentConfig::default()
                }),
            },
        );
        engine.run_until(&mut cluster, Nanos::from_secs(30));
        let alloc = cluster.servers[0].thread_allocation();
        assert_ne!(alloc, [8, 8, 8, 8], "allocation should change: {alloc:?}");
        // The allocation must fit the core budget (beta = 1 everywhere).
        let total: usize = alloc.iter().sum();
        assert!(total <= 8, "allocation {alloc:?} exceeds 8 cores");
        assert!(alloc.iter().all(|&t| t >= 1));
        // The system still keeps up.
        assert!(
            cluster.metrics.completed as f64 >= 0.95 * cluster.metrics.submitted as f64,
            "completed {} of {}",
            cluster.metrics.completed,
            cluster.metrics.submitted
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
