//! Single-actor-type request/reply workloads (Heartbeat and Counter).
//!
//! Clients send requests to uniformly random actors; each handler burns a
//! fixed CPU cost (optionally blocking on a synchronous call) and replies.
//! This is the workload shape of the paper's Heartbeat service (§6.2) and
//! the counter microbenchmark behind Fig. 4 and Fig. 5.

use actop_runtime::{ActorId, AppLogic, Cluster, Reaction};
use actop_sim::{DetRng, Engine, Nanos};

/// Configuration of a uniform request/reply workload.
#[derive(Debug, Clone, Copy)]
pub struct UniformConfig {
    /// Number of distinct actors.
    pub actors: u64,
    /// Open-loop Poisson request rate, requests per second.
    pub request_rate: f64,
    /// Request payload bytes.
    pub request_bytes: u64,
    /// Response payload bytes.
    pub reply_bytes: u64,
    /// Handler CPU cost, nanoseconds.
    pub cpu_ns: f64,
    /// Handler synchronous-blocking time, nanoseconds (0 = fully async).
    pub blocking_ns: f64,
    /// How long clients keep issuing requests.
    pub duration: Nanos,
    /// Workload seed.
    pub seed: u64,
}

/// The Heartbeat service of §6.2: a monitoring service whose actors store a
/// periodically updated status. Defaults match the single-server
/// experiment at the given request rate.
pub fn heartbeat(request_rate: f64, duration: Nanos, seed: u64) -> UniformConfig {
    UniformConfig {
        actors: 8_000,
        request_rate,
        request_bytes: 700,
        reply_bytes: 300,
        cpu_ns: 150_000.0,
        blocking_ns: 0.0,
        duration,
        seed,
    }
}

/// The §3 counter microbenchmark: 8K actors, an increment per request,
/// 15K requests/second in the paper's breakdown experiment. The handler is
/// genuinely light (a counter increment plus runtime bookkeeping); the
/// heavy stages are serialization on the receive and send paths, as in
/// Orleans.
pub fn counter(request_rate: f64, duration: Nanos, seed: u64) -> UniformConfig {
    UniformConfig {
        actors: 8_000,
        request_rate,
        request_bytes: 600,
        reply_bytes: 600,
        cpu_ns: 60_000.0,
        blocking_ns: 0.0,
        duration,
        seed,
    }
}

/// The built workload: the app half and the driver half.
pub struct UniformWorkload {
    config: UniformConfig,
}

struct UniformApp {
    cpu_ns: f64,
    blocking_ns: f64,
    reply_bytes: u64,
}

impl AppLogic for UniformApp {
    fn on_request(&self, _actor: ActorId, _tag: u32, rng: &mut DetRng) -> Reaction {
        // Exponential service-time jitter around the configured mean.
        Reaction {
            cpu_ns: rng.exp(self.cpu_ns),
            blocking_ns: self.blocking_ns,
            outcome: actop_runtime::Outcome::Reply {
                bytes: self.reply_bytes,
            },
        }
    }
}

impl UniformWorkload {
    /// Creates the workload and its application logic.
    pub fn build(config: UniformConfig) -> (Box<dyn AppLogic>, UniformWorkload) {
        assert!(config.actors > 0, "need at least one actor");
        assert!(config.request_rate > 0.0, "need a positive request rate");
        let app = Box::new(UniformApp {
            cpu_ns: config.cpu_ns,
            blocking_ns: config.blocking_ns,
            reply_bytes: config.reply_bytes,
        });
        (app, UniformWorkload { config })
    }

    /// Schedules the open-loop Poisson request stream.
    pub fn install(&self, engine: &mut Engine<Cluster>) {
        let config = self.config;
        let rng = DetRng::stream(config.seed, 0x10);
        engine.schedule(Nanos::ZERO, move |c: &mut Cluster, e| {
            request_tick(c, e, config, rng);
        });
    }
}

fn request_tick(
    cluster: &mut Cluster,
    engine: &mut Engine<Cluster>,
    config: UniformConfig,
    mut rng: DetRng,
) {
    let actor = ActorId(rng.range_inclusive(0, config.actors - 1));
    cluster.submit_client_request(engine, actor, 0, config.request_bytes);
    let gap = Nanos::from_secs_f64(rng.exp(1.0 / config.request_rate));
    if engine.now() + gap < config.duration {
        engine.schedule_after(gap, move |c: &mut Cluster, e| {
            request_tick(c, e, config, rng);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actop_runtime::RuntimeConfig;

    #[test]
    fn counter_workload_runs_to_completion() {
        let config = counter(2_000.0, Nanos::from_secs(2), 7);
        let (app, workload) = UniformWorkload::build(config);
        let mut cluster = Cluster::new(RuntimeConfig::single_server(7), app);
        let mut engine: Engine<Cluster> = Engine::new();
        workload.install(&mut engine);
        engine.run(&mut cluster);
        // ~4000 requests expected over 2 s at 2 kHz.
        assert!(
            (3_500..4_500).contains(&(cluster.metrics.submitted as i64)),
            "submitted {}",
            cluster.metrics.submitted
        );
        assert_eq!(cluster.metrics.completed, cluster.metrics.submitted);
        assert!(cluster.is_drained());
    }

    #[test]
    fn blocking_variant_holds_threads_not_cpu() {
        let mut config = heartbeat(500.0, Nanos::from_secs(1), 9);
        config.blocking_ns = 2_000_000.0; // 2 ms synchronous wait.
        let (app, workload) = UniformWorkload::build(config);
        let mut cluster = Cluster::new(RuntimeConfig::single_server(9), app);
        let mut engine: Engine<Cluster> = Engine::new();
        workload.install(&mut engine);
        engine.run(&mut cluster);
        assert_eq!(cluster.metrics.completed, cluster.metrics.submitted);
        // Latency must include the blocking wait.
        assert!(cluster.metrics.e2e_latency.quantile(0.5) > 2_000_000);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let config = counter(1_000.0, Nanos::from_secs(1), 21);
            let (app, workload) = UniformWorkload::build(config);
            let mut cluster = Cluster::new(RuntimeConfig::single_server(21), app);
            let mut engine: Engine<Cluster> = Engine::new();
            workload.install(&mut engine);
            engine.run(&mut cluster);
            (
                cluster.metrics.submitted,
                cluster.metrics.e2e_latency.quantile(0.99),
            )
        };
        assert_eq!(run(), run());
    }
}
