//! Runtime configuration.

use actop_obs::{SloKind, SloSpec};
use actop_partition::{RepartitionPolicyKind, SplitThresholds};
use actop_sim::{CostModel, Nanos};
use actop_snapshot::SnapshotConfig;
use actop_trace::TraceConfig;

use crate::detector::DetectorConfig;
use crate::placement::PlacementPolicy;

/// Telemetry configuration: typed metric scraping on a sim-time cadence
/// plus declarative SLO alerting over the cluster's binned series.
///
/// `None` (the default) leaves every telemetry hook at a single branch and
/// draws no randomness, so golden-fingerprint tests are unaffected.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Sim-time interval between registry scrapes.
    pub scrape_interval: Nanos,
    /// Ring-buffer capacity for retained scrape frames; when a run
    /// produces more scrapes than this, the oldest frames drop (and the
    /// drop count is reported).
    pub ring_capacity: usize,
    /// Declarative SLOs, evaluated online as series bins close. Latency
    /// and goodput objectives read the end-to-end latency series;
    /// rate-ceiling objectives read the false-suspicion series.
    pub slos: Vec<SloSpec>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            scrape_interval: Nanos::from_secs(1),
            ring_capacity: 4096,
            slos: vec![SloSpec::new(
                "latency_mean_100ms",
                SloKind::MeanLatencyBelowMs(100.0),
            )],
        }
    }
}

/// Stop-the-world pause model (.NET garbage collection and similar
/// runtime hiccups). The paper's heavy latency tails (baseline p99 of
/// 736 ms against a 41 ms median) ride on such pauses; the simulator can
/// reproduce them with this optional model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HiccupModel {
    /// Mean interval between pauses per server (exponential).
    pub mean_interval: Nanos,
    /// Minimum pause duration (uniform draw).
    pub min_pause: Nanos,
    /// Maximum pause duration.
    pub max_pause: Nanos,
}

impl HiccupModel {
    /// A .NET-era server-GC profile: a pause every ~2 s on average,
    /// lasting 20–80 ms.
    pub fn dotnet_gc() -> Self {
        HiccupModel {
            mean_interval: Nanos::from_secs(2),
            min_pause: Nanos::from_millis(20),
            max_pause: Nanos::from_millis(80),
        }
    }
}

/// Transport retry policy: what a sender does when a delivery dies with a
/// crashed destination or a dropped packet. Exponential backoff with
/// deterministic jitter and a per-message attempt budget; an exhausted
/// budget leaves the root request to its client timeout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// First backoff delay; attempt `k` waits `base * 2^(k-1)`.
    pub base_backoff: Nanos,
    /// Backoff cap.
    pub max_backoff: Nanos,
    /// Jitter as a fraction of the backoff, drawn deterministically from
    /// the fault RNG stream (`0.0` disables jitter).
    pub jitter: f64,
    /// Retry budget per message. `0` disables retries entirely.
    pub max_attempts: u8,
}

impl RetryPolicy {
    /// The delay before delivery attempt `attempts` (1-based): the base
    /// backoff doubled per earlier attempt (the shift capped at 20),
    /// clamped to `max_backoff`, plus a `jitter × unit` share of it.
    /// `unit` is the backend's jitter draw in `[0, 1)`; with zero jitter
    /// it is ignored, so a backend draws it only when `jitter > 0`.
    pub fn backoff(&self, attempts: u8, unit: f64) -> Nanos {
        let shift = u32::from(attempts - 1).min(20);
        let backoff = Nanos::from_nanos(self.base_backoff.as_nanos().saturating_mul(1u64 << shift))
            .min(self.max_backoff);
        let jitter = if self.jitter > 0.0 {
            Nanos::from_nanos_f64(backoff.as_nanos() as f64 * (self.jitter * unit))
        } else {
            Nanos::ZERO
        };
        backoff + jitter
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_backoff: Nanos::from_millis(1),
            max_backoff: Nanos::from_millis(50),
            jitter: 0.5,
            max_attempts: 4,
        }
    }
}

/// Hot-actor replication: split read-mostly hotspots across replicas
/// instead of migrating them (the celebrity / flash-crowd regime, where
/// one actor's demand exceeds any single server's capacity).
///
/// `None` (the default) keeps the single-activation model and every hot
/// path at one branch, so golden-fingerprint tests are unaffected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationConfig {
    /// Bitmask of read-only application tags: bit `t` set means requests
    /// with `tag == t` are side-effect-free and may execute at any
    /// replica. Tags ≥ 64 are always treated as writes.
    pub read_tags: u64,
    /// Split/drop thresholds (capacity fraction, hysteresis, replica cap).
    pub thresholds: SplitThresholds,
    /// Sim-time interval between per-server hot-actor checks. Also the
    /// detection window the load sketch accumulates over.
    pub check_interval: Nanos,
    /// Minimum interval between decisions for one actor. Replica churn is
    /// as costly as migration churn; a cooldown of several windows rides
    /// out flash-crowd ramps.
    pub cooldown: Nanos,
    /// Ignore sketch entries below this guaranteed service demand per
    /// window — noise floor for the heavy-hitter scan.
    pub min_load_ns: u64,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            read_tags: 0b1,
            thresholds: SplitThresholds::default(),
            check_interval: Nanos::from_secs(1),
            cooldown: Nanos::from_secs(3),
            min_load_ns: 1_000_000,
        }
    }
}

impl ReplicationConfig {
    /// True if requests with this tag are read-only under the mask.
    #[inline]
    pub fn is_read(&self, tag: u64) -> bool {
        tag < 64 && (self.read_tags >> tag) & 1 == 1
    }
}

/// Configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of servers (the paper's testbed: 10).
    pub servers: usize,
    /// The cost model (cores, serialization, network, context switching).
    pub costs: CostModel,
    /// Placement policy for new activations.
    pub placement: PlacementPolicy,
    /// Initial threads per SEDA stage. Orleans' default is one thread per
    /// stage per core (§3), i.e. `cores_per_server`.
    pub initial_threads_per_stage: usize,
    /// Run seed; all randomness derives from it.
    pub seed: u64,
    /// Record the per-stage latency breakdown (Fig. 4). Off by default —
    /// it adds per-event accounting.
    pub record_breakdown: bool,
    /// Record remote-call (server-to-server) latencies (Fig. 10c).
    pub record_remote_call_latency: bool,
    /// Capacity of each server's Space-Saving edge sketch (§4.3).
    pub sketch_capacity: usize,
    /// A server rejects new client requests when its receiver queue exceeds
    /// this length (overload shedding; drives the peak-throughput
    /// experiment).
    pub max_receiver_queue: usize,
    /// Width of the time bins used by rate-over-time metrics, nanoseconds.
    pub series_bin_ns: u64,
    /// Client-request timeout. Required for failure-injection runs: a
    /// request whose response was lost to a server crash completes as
    /// `timed_out` instead of leaking. `None` disables timeouts.
    pub request_timeout: Option<Nanos>,
    /// Optional stop-the-world pause model (GC hiccups). `None` disables
    /// pauses (the calibrated default; see DESIGN.md §5).
    pub hiccups: Option<HiccupModel>,
    /// Optional causal request tracing + flight recorder. `None` (the
    /// default) leaves every instrumentation hook at a single branch.
    pub trace: Option<TraceConfig>,
    /// Optional heartbeat-based failure detector. `None` (the default)
    /// keeps the legacy instant-membership model: routing consults ground
    /// truth and `fail_server` purges the directory synchronously. `Some`
    /// makes failure knowledge travel through heartbeats — routing
    /// consults per-server *suspicion*, with detection lag and false
    /// positives. Pair with [`Cluster::install_heartbeats`].
    ///
    /// [`Cluster::install_heartbeats`]: crate::Cluster::install_heartbeats
    pub detector: Option<DetectorConfig>,
    /// Transport retry policy for deliveries that die with a crashed
    /// destination or a dropped packet.
    pub retry: RetryPolicy,
    /// Optional migration transfer time. `None` (the default) keeps
    /// migrations instantaneous; `Some` holds the actor at its source for
    /// the transfer window, during which a crash of either endpoint
    /// aborts the migration cleanly back to the source.
    pub migration_transfer: Option<Nanos>,
    /// Optional telemetry: metric scrapes + SLO alerting. `None` (the
    /// default) disables all of it. Pair with
    /// [`Cluster::install_scraper`](crate::Cluster::install_scraper) (or
    /// the sharded equivalent) to drive scrapes on sim time.
    pub obs: Option<ObsConfig>,
    /// Optional hot-actor replication: detect actors whose sustained
    /// demand exceeds a fraction of one server's capacity and split them
    /// across read replicas. `None` (the default) keeps the
    /// single-activation model. Pair with
    /// [`Cluster::install_replication`](crate::Cluster::install_replication)
    /// or [`install_replication_sharded`](crate::install_replication_sharded)
    /// to drive detection ticks.
    pub replication: Option<ReplicationConfig>,
    /// Optional asynchronous actor snapshots + stateful crash recovery.
    /// `None` (the default) gives actors no durable state and keeps every
    /// snapshot hook at a single branch, so golden-fingerprint tests are
    /// unaffected. `Some` gives each touched actor a versioned state cell
    /// mutated by write-tagged requests, journals every write durably,
    /// runs coordinator-initiated non-blocking snapshot rounds, and
    /// rehydrates re-placed actors after a crash. Pair with
    /// [`Cluster::install_snapshots`](crate::Cluster::install_snapshots)
    /// (or the sharded equivalent) to drive rounds on sim time.
    pub snapshot: Option<SnapshotConfig>,
    /// Opt-in coarse cost attribution: exact per-subsystem op counts plus
    /// sampled wall time for routing, sketch, detector, tracer and scrape
    /// work (heap costs live on the engine). Off by default — wall
    /// sampling is machine-dependent and excluded from deterministic
    /// artifacts.
    pub cost_attr: bool,
    /// Which online repartitioning policy the partition agent drives
    /// (`ACTOP_POLICY` in the bench harness). The default is the paper's
    /// pairwise exchange protocol, byte-identical to the pre-policy
    /// runtime.
    pub repartition: RepartitionPolicyKind,
}

impl RuntimeConfig {
    /// The paper's testbed shape: ten 8-core servers, Orleans default
    /// thread allocation, random placement.
    pub fn paper_testbed(seed: u64) -> Self {
        let costs = CostModel::calibrated();
        RuntimeConfig {
            servers: 10,
            initial_threads_per_stage: costs.cores_per_server,
            costs,
            placement: PlacementPolicy::Random,
            seed,
            record_breakdown: false,
            record_remote_call_latency: false,
            sketch_capacity: 16_384,
            max_receiver_queue: 20_000,
            series_bin_ns: 60 * 1_000_000_000, // One-minute bins, as Fig. 10a.
            request_timeout: None,
            hiccups: None,
            trace: None,
            detector: None,
            retry: RetryPolicy::default(),
            migration_transfer: None,
            obs: None,
            replication: None,
            snapshot: None,
            cost_attr: false,
            repartition: RepartitionPolicyKind::default(),
        }
    }

    /// A single-server configuration (Heartbeat / counter experiments).
    pub fn single_server(seed: u64) -> Self {
        RuntimeConfig {
            servers: 1,
            ..Self::paper_testbed(seed)
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on degenerate settings; configurations are build-time inputs,
    /// not runtime data.
    pub fn validate(&self) {
        assert!(self.servers > 0, "need at least one server");
        assert!(self.initial_threads_per_stage > 0, "need threads per stage");
        assert!(self.sketch_capacity > 0, "need a sketch capacity");
        assert!(self.max_receiver_queue > 0, "need a queue bound");
        assert!(self.series_bin_ns > 0, "need a series bin width");
        assert!(
            (0.0..=1.0).contains(&self.retry.jitter),
            "retry jitter must be a fraction"
        );
        if let Some(o) = &self.obs {
            assert!(o.scrape_interval > Nanos::ZERO, "need a scrape interval");
            assert!(o.ring_capacity > 0, "need frame ring capacity");
        }
        if let Some(r) = self.replication {
            r.thresholds.validate();
            assert!(r.check_interval > Nanos::ZERO, "need a check interval");
            assert!(
                r.cooldown >= r.check_interval,
                "a cooldown shorter than one window cannot damp churn"
            );
        }
        if let Some(s) = self.snapshot {
            s.validate(self.servers);
            if let Some(r) = self.replication {
                assert!(
                    s.write_tags & r.read_tags == 0,
                    "a tag cannot be both a snapshot write and a replication read"
                );
            }
        }
        if let Some(d) = self.detector {
            assert!(
                d.heartbeat_interval > Nanos::ZERO,
                "need a heartbeat interval"
            );
            assert!(
                d.suspect_after >= d.heartbeat_interval,
                "suspecting inside one heartbeat interval flaps constantly"
            );
            assert!(
                d.heartbeat_process_ns >= 0.0,
                "negative heartbeat emission cost"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actop_sim::{mix64, DetRng};

    /// A verbatim copy of the sequential backend's inline backoff, which
    /// `RetryPolicy::backoff` replaced (jitter drawn from the fault
    /// stream).
    fn sequential_inline(policy: RetryPolicy, attempts: u8, rng: &mut DetRng) -> Nanos {
        let shift = u32::from(attempts - 1).min(20);
        let backoff =
            Nanos::from_nanos(policy.base_backoff.as_nanos().saturating_mul(1u64 << shift))
                .min(policy.max_backoff);
        let jitter = if policy.jitter > 0.0 {
            Nanos::from_nanos_f64(backoff.as_nanos() as f64 * rng.uniform(0.0, policy.jitter))
        } else {
            Nanos::ZERO
        };
        backoff + jitter
    }

    /// A verbatim copy of the sharded backend's inline backoff (jitter
    /// from a hash unit).
    fn sharded_inline(policy: RetryPolicy, attempts: u8, unit: f64) -> Nanos {
        let shift = u32::from(attempts - 1).min(20);
        let backoff =
            Nanos::from_nanos(policy.base_backoff.as_nanos().saturating_mul(1u64 << shift))
                .min(policy.max_backoff);
        let jitter = if policy.jitter > 0.0 {
            Nanos::from_nanos_f64(backoff.as_nanos() as f64 * unit * policy.jitter)
        } else {
            Nanos::ZERO
        };
        backoff + jitter
    }

    /// The one formula equals both inline ones: every attempt of the
    /// budget, past the shift cap (attempts beyond 21 on a tiny base),
    /// into the clamp, a saturating multiply, and zero jitter. The
    /// sharded form multiplies `backoff × unit` first, so it agrees
    /// exactly for power-of-two jitter fractions (the default 0.5 among
    /// them); the sequential form agrees for every fraction.
    #[test]
    fn backoff_matches_both_inline_formulas() {
        let default = RetryPolicy::default();
        let policies = [
            default,
            RetryPolicy {
                jitter: 0.0,
                ..default
            },
            RetryPolicy {
                jitter: 0.25,
                max_backoff: Nanos::from_millis(3),
                ..default
            },
            RetryPolicy {
                base_backoff: Nanos::from_nanos(1),
                max_backoff: Nanos::from_secs(3_600),
                jitter: 1.0,
                max_attempts: 30,
            },
            RetryPolicy {
                base_backoff: Nanos::from_nanos(u64::MAX / 2),
                max_backoff: Nanos::from_nanos(u64::MAX / 2),
                jitter: 0.0,
                max_attempts: 3,
            },
        ];
        for (i, policy) in policies.into_iter().enumerate() {
            for attempts in 1..=policy.max_attempts {
                let stream = (i as u64) << 8 | u64::from(attempts);
                let mut old = DetRng::stream(7, stream);
                let mut new = DetRng::stream(7, stream);
                let unit = if policy.jitter > 0.0 { new.unit() } else { 0.0 };
                let want = sequential_inline(policy, attempts, &mut old);
                assert_eq!(
                    policy.backoff(attempts, unit),
                    want,
                    "{policy:?} #{attempts}"
                );
                let h = mix64(stream);
                let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
                let want = sharded_inline(policy, attempts, unit);
                assert_eq!(
                    policy.backoff(attempts, unit),
                    want,
                    "{policy:?} #{attempts}"
                );
            }
        }
        // Past the cap the doubling stops: 2^20 ns plus at most as much
        // jitter.
        let capped = policies[3].backoff(30, 0.0);
        assert_eq!(capped, Nanos::from_nanos(1 << 20));
        // Any fraction draws the sequential jitter identically.
        for jitter in [0.1, 0.3, 0.77] {
            let policy = RetryPolicy { jitter, ..default };
            for attempts in 1..=policy.max_attempts {
                let mut old = DetRng::stream(9, u64::from(attempts));
                let mut new = DetRng::stream(9, u64::from(attempts));
                let want = sequential_inline(policy, attempts, &mut old);
                assert_eq!(policy.backoff(attempts, new.unit()), want);
            }
        }
    }

    #[test]
    fn paper_testbed_shape() {
        let cfg = RuntimeConfig::paper_testbed(1);
        cfg.validate();
        assert_eq!(cfg.servers, 10);
        assert_eq!(cfg.costs.cores_per_server, 8);
        assert_eq!(cfg.initial_threads_per_stage, 8);
        assert_eq!(cfg.placement, PlacementPolicy::Random);
    }

    #[test]
    fn single_server_overrides_count() {
        let cfg = RuntimeConfig::single_server(1);
        cfg.validate();
        assert_eq!(cfg.servers, 1);
    }
}
