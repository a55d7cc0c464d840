//! The steady-state measurement harness shared by examples and benches.
//!
//! The paper measures after the system reaches steady state (§6.1): the
//! warmup window is excluded, and client latencies, message-locality
//! counters, CPU utilization, and throughput are reported for the
//! measurement window only.

use actop_runtime::app::FixedCostApp;
use actop_runtime::{Cluster, ClusterMetrics, Observability, RuntimeConfig, ShardedCluster};
use actop_sim::{ConservativeRunner, Engine, Nanos};

/// Steady-state measurements over one run window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Median end-to-end latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile end-to-end latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile end-to-end latency, milliseconds.
    pub p99_ms: f64,
    /// Mean end-to-end latency, milliseconds.
    pub mean_ms: f64,
    /// Fraction of actor-to-actor messages that crossed servers.
    pub remote_fraction: f64,
    /// Mean CPU utilization across servers over the window.
    pub cpu_utilization: f64,
    /// Client requests completed in the window.
    pub completed: u64,
    /// Client requests submitted in the window.
    pub submitted: u64,
    /// Client requests shed by overload control in the window.
    pub rejected: u64,
    /// Client requests abandoned by the request timeout in the window.
    pub timed_out: u64,
    /// Messages re-routed after arriving at a server no longer hosting
    /// their target actor (migration races, gateway hops) in the window.
    pub forwarded_messages: u64,
    /// Responses that arrived for an already-abandoned request or join in
    /// the window.
    pub stale_responses: u64,
    /// Actor migrations during the whole run so far.
    pub migrations: u64,
    /// Completed requests per second over the window.
    pub throughput_per_s: f64,
    /// Transport backoff retries scheduled in the window.
    pub retries: u64,
    /// Total backoff delay those retries spent, milliseconds.
    pub retry_backoff_ms: f64,
    /// Directory entries repaired because their host was suspected, in the
    /// window.
    pub directory_repairs: u64,
    /// Directory repairs whose suspected host was in fact alive (false
    /// suspicion), in the window.
    pub false_suspicion_repairs: u64,
    /// Requests shed at admission because no live server remained, in the
    /// window (also counted in `rejected`).
    pub shed_no_live: u64,
    /// SLO burn-rate alerts opened over the whole run (telemetry must be
    /// enabled; zero otherwise).
    pub slo_alerts_opened: u64,
    /// SLO burn-rate alerts closed over the whole run.
    pub slo_alerts_closed: u64,
}

impl RunSummary {
    /// Summarizes one measurement window of `measure` from its metrics
    /// (reset at the window's start) and the servers' mean CPU
    /// utilization over it.
    pub fn from_window(metrics: &ClusterMetrics, cpu_utilization: f64, measure: Nanos) -> Self {
        let hist = &metrics.e2e_latency;
        let quantiles = hist.summary();
        RunSummary {
            p50_ms: quantiles.p50 as f64 / 1e6,
            p95_ms: quantiles.p95 as f64 / 1e6,
            p99_ms: quantiles.p99 as f64 / 1e6,
            mean_ms: hist.mean() / 1e6,
            remote_fraction: metrics.remote_fraction(),
            cpu_utilization,
            completed: metrics.completed,
            submitted: metrics.submitted,
            rejected: metrics.rejected,
            timed_out: metrics.timed_out,
            forwarded_messages: metrics.forwarded_messages,
            stale_responses: metrics.stale_responses,
            migrations: metrics.migrations,
            throughput_per_s: metrics.completed as f64 / measure.as_secs_f64().max(1e-9),
            retries: metrics.retries,
            retry_backoff_ms: metrics.retry_backoff_ns as f64 / 1e6,
            directory_repairs: metrics.directory_repairs,
            false_suspicion_repairs: metrics.false_suspicion_repairs,
            shed_no_live: metrics.shed_no_live,
            slo_alerts_opened: metrics.slo_alerts_opened,
            slo_alerts_closed: metrics.slo_alerts_closed,
        }
    }

    /// Every field by name, counts widened to `f64` (exact: every count
    /// is far below 2^53), in declaration order.
    pub fn fields(&self) -> [(&'static str, f64); 21] {
        [
            ("p50_ms", self.p50_ms),
            ("p95_ms", self.p95_ms),
            ("p99_ms", self.p99_ms),
            ("mean_ms", self.mean_ms),
            ("remote_fraction", self.remote_fraction),
            ("cpu_utilization", self.cpu_utilization),
            ("completed", self.completed as f64),
            ("submitted", self.submitted as f64),
            ("rejected", self.rejected as f64),
            ("timed_out", self.timed_out as f64),
            ("forwarded_messages", self.forwarded_messages as f64),
            ("stale_responses", self.stale_responses as f64),
            ("migrations", self.migrations as f64),
            ("throughput_per_s", self.throughput_per_s),
            ("retries", self.retries as f64),
            ("retry_backoff_ms", self.retry_backoff_ms),
            ("directory_repairs", self.directory_repairs as f64),
            (
                "false_suspicion_repairs",
                self.false_suspicion_repairs as f64,
            ),
            ("shed_no_live", self.shed_no_live as f64),
            ("slo_alerts_opened", self.slo_alerts_opened as f64),
            ("slo_alerts_closed", self.slo_alerts_closed as f64),
        ]
    }

    /// The paper's improvement metric `100 * (1 - optimized/baseline)` for
    /// a latency field selected by `f`.
    pub fn improvement_pct(
        baseline: &RunSummary,
        optimized: &RunSummary,
        f: impl Fn(&RunSummary) -> f64,
    ) -> f64 {
        actop_metrics::stats::improvement_pct(f(baseline), f(optimized))
    }
}

/// Runs the cluster for `warmup` (relative to the current clock), resets
/// the steady-state counters, runs for `measure` more, and summarizes the
/// measurement window.
///
/// The workload and any ActOp agents must already be installed on the
/// engine.
pub fn run_steady_state(
    engine: &mut Engine<Cluster>,
    cluster: &mut Cluster,
    warmup: Nanos,
    measure: Nanos,
) -> RunSummary {
    let warmup_end = engine.now() + warmup;
    engine.run_until(cluster, warmup_end);
    cluster.reset_steady_state();
    let snapshots: Vec<f64> = (0..cluster.server_count())
        .map(|s| cluster.busy_core_ns(s))
        .collect();
    let start = engine.now();
    engine.run_until(cluster, start + measure);
    let now = engine.now();
    // Feed any series bins that closed after the last scrape to the SLO
    // engine so the alert tallies below are complete (no-op without
    // telemetry).
    cluster.finalize_obs(now);

    let cpu = cluster.mean_utilization(&snapshots, start, now);
    RunSummary::from_window(&cluster.metrics, cpu, measure)
}

/// [`run_steady_state`] for the sharded conservative-parallel backend:
/// runs `runner` for `warmup` (relative to its clock), resets every
/// shard's steady-state counters, runs for `measure` more on `threads`
/// worker threads, and summarizes the measurement window.
///
/// The per-shard metrics and traces merge into a returned shell
/// [`Cluster`] built from `config`, so callers inspect them exactly as
/// they would a legacy run's. The shell carries a snapshot of the shared
/// directory and the merged telemetry registry with its SLOs evaluated,
/// but its servers never ran and its application is a placeholder.
pub fn run_sharded_steady_state(
    runner: &mut ConservativeRunner<ShardedCluster>,
    config: RuntimeConfig,
    threads: usize,
    warmup: Nanos,
    measure: Nanos,
) -> (RunSummary, Cluster) {
    let start = runner.now() + warmup;
    runner.run_until(start, threads);
    for cell in runner.cells_mut() {
        cell.world.reset_steady_state();
    }
    let end = start + measure;
    runner.run_until(end, threads);

    let mut shell = Cluster::new(
        config,
        Box::new(FixedCostApp {
            cpu_ns: 0.0,
            reply_bytes: 0,
        }),
    );
    for cell in runner.cells() {
        shell.metrics.merge_from(cell.world.metrics());
        shell.trace.merge_from(cell.world.trace());
    }
    shell.directory = runner.cells()[0].world.directory_snapshot();

    // Per-server utilizations reduced in global server order, so the
    // cluster mean is bit-identical across shard splits (a float sum in
    // shard order would differ in the last ulp).
    let servers = shell.server_count();
    let mut per_server_util = vec![0.0f64; servers];
    for cell in runner.cells() {
        for (server, util) in cell.world.utilizations(start, end) {
            per_server_util[server] = util;
        }
    }
    let cpu = per_server_util.iter().sum::<f64>() / servers as f64;

    // Merge the per-shard telemetry registries and evaluate the SLOs once
    // over the merged series — bin-aligned alert timestamps make this
    // byte-identical to the legacy engine's online alerting.
    let mut merged_obs: Option<Observability> = None;
    for cell in runner.cells_mut() {
        if let Some(obs) = cell.world.take_obs() {
            match merged_obs.as_mut() {
                Some(m) => m.merge_from(&obs),
                None => merged_obs = Some(obs),
            }
        }
    }
    if let Some(obs) = merged_obs {
        shell.adopt_merged_obs(obs, end);
    }
    (RunSummary::from_window(&shell.metrics, cpu, measure), shell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use actop_runtime::RuntimeConfig;
    use actop_workloads::{uniform, UniformWorkload};

    #[test]
    fn steady_state_summary_is_filled() {
        let cfg = uniform::counter(2_000.0, Nanos::from_secs(6), 3);
        let (app, driver) = UniformWorkload::build(cfg);
        let mut cluster = Cluster::new(RuntimeConfig::single_server(3), app);
        let mut engine: Engine<Cluster> = Engine::new();
        driver.install(&mut engine);
        let summary = run_steady_state(
            &mut engine,
            &mut cluster,
            Nanos::from_secs(2),
            Nanos::from_secs(4),
        );
        assert!(summary.completed > 6_000, "completed {}", summary.completed);
        assert!(summary.p50_ms > 0.0);
        assert!(summary.p99_ms >= summary.p95_ms && summary.p95_ms >= summary.p50_ms);
        assert!(summary.cpu_utilization > 0.0 && summary.cpu_utilization < 1.0);
        assert!((summary.throughput_per_s - 2_000.0).abs() < 200.0);
        assert_eq!(summary.rejected, 0);
    }

    #[test]
    fn improvement_metric() {
        let mut a = RunSummary::from_window(&ClusterMetrics::new(1_000), 0.8, Nanos::from_secs(1));
        a.p50_ms = 41.0;
        a.p99_ms = 736.0;
        let b = RunSummary {
            p50_ms: 24.0,
            p99_ms: 225.0,
            ..a
        };
        a.p95_ms = 450.0;
        let gain = RunSummary::improvement_pct(&a, &b, |s| s.p99_ms);
        assert!((gain - 69.4).abs() < 0.5, "gain {gain}");
    }

    #[test]
    fn second_cpu_util_window_is_independent() {
        let cfg = uniform::counter(1_000.0, Nanos::from_secs(4), 5);
        let (app, driver) = UniformWorkload::build(cfg);
        let mut cluster = Cluster::new(RuntimeConfig::single_server(5), app);
        let mut engine: Engine<Cluster> = Engine::new();
        driver.install(&mut engine);
        let s1 = run_steady_state(
            &mut engine,
            &mut cluster,
            Nanos::from_secs(1),
            Nanos::from_secs(1),
        );
        // Second window continues from the clock, no warmup needed.
        let s2 = run_steady_state(&mut engine, &mut cluster, Nanos::ZERO, Nanos::from_secs(1));
        assert!(s1.cpu_utilization > 0.0);
        assert!(s2.cpu_utilization > 0.0);
    }
}
