//! Million-player scale workloads: skewed, time-varying traffic shapes.
//!
//! The Halo workload models the paper's lifecycle churn; this module
//! models the *load-concentration* regimes that motivate hot-actor
//! replication — a handful of actors absorbing a capacity-breaking share
//! of an otherwise enormous population's traffic:
//!
//! * **Zipf celebrity** — a fixed head of celebrity actors takes a
//!   configurable share of all requests, split among themselves by a
//!   truncated Zipf law. The stationary hotspot: detection has all run
//!   long to find it.
//! * **Flash crowd** — traffic is uniform until a step instant, when a
//!   single actor abruptly captures a peak share (and the aggregate rate
//!   steps up); both decay exponentially back to baseline. Stresses
//!   detection latency and replica-drop hysteresis.
//! * **Diurnal wave** — uniform targeting, sinusoidal aggregate rate.
//!   The no-hotspot control: replication should stay quiet.
//! * **Rotating hotspot** — an adversary re-rolls the hot actor set every
//!   dwell interval, defeating any learned placement. Stresses cooldown
//!   and split/drop churn control.
//!
//! Every shape is a pure function of `(config, sim time, driver RNG)`,
//! so runs are deterministic and — on the sharded backend — independent
//! of shard count by construction (the driver owns its RNG streams, as
//! in [`crate::halo_sharded`]).
//!
//! Requests are single-actor read/write request-replies: `TAG_READ` is
//! side-effect-free (replica-servable under
//! `ReplicationConfig::read_tags = 0b1`), `TAG_WRITE` must execute at
//! the primary. Each player owns a state slab (`ScaleState::slab`)
//! touched by every handler, so the per-player memory footprint of a
//! 1M-player build is real and auditable ([`MemoryAudit`]).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use actop_runtime::sharded::{submit_client_request_sharded, ShardedCluster};
use actop_runtime::{ActorId, AppLogic, Cluster, Outcome, Reaction, ShardApp};
use actop_sim::{ConservativeRunner, DetRng, Engine, GlobalCtx, Nanos, PhaseCell};

/// Read a player's status: side-effect-free, replica-servable.
pub const TAG_READ: u32 = 0;
/// Update a player's status: must execute at the primary activation.
pub const TAG_WRITE: u32 = 1;

/// Width of one request-pump batch on the sharded backend.
const PUMP_INTERVAL_NS: u64 = 1_000_000;

/// The actor id of player `p` (players are the only actor type here).
pub fn scale_actor(p: u64) -> ActorId {
    ActorId(p)
}

/// SplitMix64 finalizer: the deterministic hash behind hotspot rotation.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// How client traffic concentrates over the player population and time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficShape {
    /// Uniform targeting, constant rate.
    Uniform,
    /// A fixed celebrity head takes `celebrity_share` of all requests,
    /// split among the `celebrities` lowest player ids by a truncated
    /// Zipf(`exponent`) law; the rest is uniform over everyone.
    ZipfCelebrity {
        celebrities: u32,
        exponent: f64,
        celebrity_share: f64,
    },
    /// Uniform until `at`; then player `target` captures `peak_share` of
    /// requests and the aggregate rate is multiplied by `rate_boost`,
    /// both decaying exponentially with time constant `decay`.
    FlashCrowd {
        target: u64,
        at: Nanos,
        peak_share: f64,
        decay: Nanos,
        rate_boost: f64,
    },
    /// Uniform targeting; aggregate rate swings sinusoidally by
    /// `swing` (fraction of baseline, `< 1`) over `period`.
    Diurnal { period: Nanos, swing: f64 },
    /// Every `dwell`, an adversary re-rolls `hotspots` hot players
    /// (a deterministic hash of the epoch) that jointly absorb `share`
    /// of requests.
    RotatingHotspot {
        hotspots: u32,
        dwell: Nanos,
        share: f64,
    },
}

/// Configuration of a scale workload run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Player population (one actor each).
    pub players: u64,
    /// Baseline open-loop rate per player, requests per second.
    pub request_rate_per_player: f64,
    /// Fraction of requests that are writes (primary-routed).
    pub write_fraction: f64,
    /// Request payload bytes.
    pub request_bytes: u64,
    /// Response payload bytes.
    pub reply_bytes: u64,
    /// Mean read-handler CPU, nanoseconds (exponentially jittered).
    pub read_cpu_ns: f64,
    /// Mean write-handler CPU, nanoseconds (exponentially jittered).
    pub write_cpu_ns: f64,
    /// Bytes of resident state per player (the audit slab).
    pub state_bytes_per_player: usize,
    /// The traffic shape.
    pub shape: TrafficShape,
    /// How long clients keep issuing requests.
    pub duration: Nanos,
    /// Workload seed.
    pub seed: u64,
}

impl ScaleConfig {
    fn base(players: u64, duration: Nanos, seed: u64, shape: TrafficShape) -> Self {
        ScaleConfig {
            players,
            request_rate_per_player: 0.004,
            write_fraction: 0.05,
            request_bytes: 256,
            reply_bytes: 512,
            read_cpu_ns: 3_200_000.0,
            write_cpu_ns: 4_800_000.0,
            state_bytes_per_player: 64,
            shape,
            duration,
            seed,
        }
    }

    /// The headline scenario: four celebrities take 70% of traffic,
    /// Zipf-split so the top one alone draws ~37% — past one server's
    /// capacity at the million-player operating point.
    pub fn celebrity(players: u64, duration: Nanos, seed: u64) -> Self {
        Self::base(
            players,
            duration,
            seed,
            TrafficShape::ZipfCelebrity {
                celebrities: 4,
                exponent: 1.2,
                celebrity_share: 0.7,
            },
        )
    }

    /// A flash crowd: player 0 captures half of all requests a quarter
    /// of the way in, with the aggregate rate stepping up 1.5x, both
    /// decaying over an eighth of the run.
    pub fn flash_crowd(players: u64, duration: Nanos, seed: u64) -> Self {
        Self::base(
            players,
            duration,
            seed,
            TrafficShape::FlashCrowd {
                target: 0,
                at: Nanos::from_nanos(duration.as_nanos() / 4),
                peak_share: 0.5,
                decay: Nanos::from_nanos((duration.as_nanos() / 8).max(1)),
                rate_boost: 1.5,
            },
        )
    }

    /// A diurnal wave: rate swings ±60% over two full periods.
    pub fn diurnal(players: u64, duration: Nanos, seed: u64) -> Self {
        Self::base(
            players,
            duration,
            seed,
            TrafficShape::Diurnal {
                period: Nanos::from_nanos((duration.as_nanos() / 2).max(1)),
                swing: 0.6,
            },
        )
    }

    /// The rotating-hotspot adversary: two hot players re-rolled eight
    /// times over the run, jointly absorbing half of all requests.
    pub fn rotating(players: u64, duration: Nanos, seed: u64) -> Self {
        Self::base(
            players,
            duration,
            seed,
            TrafficShape::RotatingHotspot {
                hotspots: 2,
                dwell: Nanos::from_nanos((duration.as_nanos() / 8).max(1)),
                share: 0.5,
            },
        )
    }
}

pub(crate) fn validate_scale_config(cfg: &ScaleConfig) {
    assert!(cfg.players > 0, "need at least one player");
    assert!(
        cfg.request_rate_per_player > 0.0,
        "need a positive request rate"
    );
    assert!(
        (0.0..=1.0).contains(&cfg.write_fraction),
        "write_fraction must be a probability"
    );
    assert!(cfg.read_cpu_ns > 0.0 && cfg.write_cpu_ns > 0.0);
    match cfg.shape {
        TrafficShape::Uniform => {}
        TrafficShape::ZipfCelebrity {
            celebrities,
            exponent,
            celebrity_share,
        } => {
            assert!(celebrities > 0, "need at least one celebrity");
            assert!(u64::from(celebrities) <= cfg.players);
            assert!(exponent > 0.0, "Zipf exponent must be positive");
            assert!((0.0..=1.0).contains(&celebrity_share));
        }
        TrafficShape::FlashCrowd {
            target,
            peak_share,
            decay,
            rate_boost,
            ..
        } => {
            assert!(target < cfg.players, "flash target out of range");
            assert!((0.0..=1.0).contains(&peak_share));
            assert!(decay > Nanos::ZERO, "decay must be positive");
            assert!(rate_boost >= 1.0, "rate_boost must not shrink traffic");
        }
        TrafficShape::Diurnal { period, swing } => {
            assert!(period > Nanos::ZERO, "period must be positive");
            assert!(
                (0.0..1.0).contains(&swing),
                "swing must keep the rate positive"
            );
        }
        TrafficShape::RotatingHotspot {
            hotspots,
            dwell,
            share,
        } => {
            assert!(hotspots > 0, "need at least one hotspot");
            assert!(u64::from(hotspots) <= cfg.players);
            assert!(dwell > Nanos::ZERO, "dwell must be positive");
            assert!((0.0..=1.0).contains(&share));
        }
    }
}

/// The deterministic traffic sampler: target picks and rate modulation
/// as pure functions of `(shape, sim time, driver RNG)`.
#[derive(Debug, Clone)]
pub struct ScaleTraffic {
    shape: TrafficShape,
    players: u64,
    /// Cumulative truncated-Zipf distribution over celebrity ranks
    /// (empty unless the shape is `ZipfCelebrity`).
    zipf_cdf: Vec<f64>,
}

impl ScaleTraffic {
    /// Precomputes the sampler for one shape and population.
    pub fn new(shape: TrafficShape, players: u64) -> Self {
        let zipf_cdf = match shape {
            TrafficShape::ZipfCelebrity {
                celebrities,
                exponent,
                ..
            } => {
                let weights: Vec<f64> = (0..celebrities)
                    .map(|k| f64::from(k + 1).powf(-exponent))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        ScaleTraffic {
            shape,
            players,
            zipf_cdf,
        }
    }

    /// Multiplier on the baseline aggregate rate at sim time `now`.
    pub fn rate_multiplier(&self, now: Nanos) -> f64 {
        match self.shape {
            TrafficShape::FlashCrowd {
                at,
                decay,
                rate_boost,
                ..
            } if now >= at => {
                let age = (now.as_nanos() - at.as_nanos()) as f64 / decay.as_nanos() as f64;
                1.0 + (rate_boost - 1.0) * (-age).exp()
            }
            TrafficShape::Diurnal { period, swing } => {
                let phase = now.as_nanos() as f64 / period.as_nanos() as f64;
                1.0 + swing * (phase * std::f64::consts::TAU).sin()
            }
            _ => 1.0,
        }
    }

    /// Picks the target player of one request issued at sim time `now`.
    pub fn pick(&self, now: Nanos, rng: &mut DetRng) -> u64 {
        match self.shape {
            TrafficShape::Uniform | TrafficShape::Diurnal { .. } => {
                rng.below(self.players as usize) as u64
            }
            TrafficShape::ZipfCelebrity {
                celebrity_share, ..
            } => {
                if rng.chance(celebrity_share) {
                    let u = rng.unit();
                    let rank = self.zipf_cdf.partition_point(|&c| c < u);
                    rank.min(self.zipf_cdf.len() - 1) as u64
                } else {
                    rng.below(self.players as usize) as u64
                }
            }
            TrafficShape::FlashCrowd {
                target,
                at,
                peak_share,
                decay,
                ..
            } => {
                let share = if now < at {
                    0.0
                } else {
                    let age = (now.as_nanos() - at.as_nanos()) as f64 / decay.as_nanos() as f64;
                    peak_share * (-age).exp()
                };
                if rng.chance(share) {
                    target
                } else {
                    rng.below(self.players as usize) as u64
                }
            }
            TrafficShape::RotatingHotspot {
                hotspots,
                dwell,
                share,
            } => {
                if rng.chance(share) {
                    let epoch = now.as_nanos() / dwell.as_nanos();
                    let slot = rng.below(hotspots as usize) as u64;
                    mix64(epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ slot) % self.players
                } else {
                    rng.below(self.players as usize) as u64
                }
            }
        }
    }
}

/// Per-run state: the configuration and the per-player memory slab.
pub struct ScaleState {
    pub(crate) cfg: ScaleConfig,
    /// One resident allocation per player, deterministically filled —
    /// handlers read it, so a million-player build carries (and the
    /// audit measures) a genuine per-player footprint.
    slab: Vec<Box<[u8]>>,
}

impl ScaleState {
    fn new(cfg: ScaleConfig) -> Self {
        let slab = (0..cfg.players)
            .map(|p| vec![(mix64(p) & 0xFF) as u8; cfg.state_bytes_per_player].into_boxed_slice())
            .collect();
        ScaleState { cfg, slab }
    }

    fn memory_audit(&self) -> MemoryAudit {
        MemoryAudit {
            players: self.cfg.players,
            slab_bytes: self.slab.iter().map(|s| s.len() as u64).sum(),
            peak_rss_bytes: peak_rss_bytes(),
        }
    }
}

/// The per-player memory accounting of one build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryAudit {
    /// Player population.
    pub players: u64,
    /// Total bytes held by the player state slab.
    pub slab_bytes: u64,
    /// Process peak RSS (`VmHWM`), if the platform exposes it. Wall
    /// truth, not sim state: excluded from determinism comparisons.
    pub peak_rss_bytes: Option<u64>,
}

impl MemoryAudit {
    /// Slab bytes per player.
    pub fn bytes_per_player(&self) -> f64 {
        self.slab_bytes as f64 / self.players.max(1) as f64
    }
}

/// Process peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// The request handler shared by both backends: touch the player's
/// slab, burn the read or write cost, reply.
fn scale_reaction(state: &ScaleState, actor: ActorId, tag: u32, rng: &mut DetRng) -> Reaction {
    let touch = state
        .slab
        .get(actor.0 as usize)
        .map_or(0.0, |s| f64::from(s[0]));
    let mean = match tag {
        TAG_READ => state.cfg.read_cpu_ns,
        TAG_WRITE => state.cfg.write_cpu_ns,
        other => panic!("scale workload got unknown tag {other}"),
    };
    Reaction {
        cpu_ns: rng.exp(mean) + touch,
        blocking_ns: 0.0,
        outcome: Outcome::Reply {
            bytes: state.cfg.reply_bytes,
        },
    }
}

// ---------------------------------------------------------------------
// Sequential backend.
// ---------------------------------------------------------------------

struct ScaleApp {
    state: Rc<RefCell<ScaleState>>,
}

impl AppLogic for ScaleApp {
    fn on_request(&mut self, actor: ActorId, tag: u32, rng: &mut DetRng) -> Reaction {
        scale_reaction(&self.state.borrow(), actor, tag, rng)
    }
}

/// The built scale workload on the sequential backend.
pub struct ScaleWorkload {
    state: Rc<RefCell<ScaleState>>,
}

impl ScaleWorkload {
    /// Creates the workload and its application logic.
    pub fn build(cfg: ScaleConfig) -> (Box<dyn AppLogic>, ScaleWorkload) {
        validate_scale_config(&cfg);
        let state = Rc::new(RefCell::new(ScaleState::new(cfg)));
        let app = Box::new(ScaleApp {
            state: Rc::clone(&state),
        });
        (app, ScaleWorkload { state })
    }

    /// The per-player memory accounting of this build.
    pub fn memory_audit(&self) -> MemoryAudit {
        self.state.borrow().memory_audit()
    }

    /// Schedules the open-loop client request stream.
    pub fn install(&self, engine: &mut Engine<Cluster>) {
        let cfg = self.state.borrow().cfg;
        let pump = SeqPump {
            cfg,
            traffic: ScaleTraffic::new(cfg.shape, cfg.players),
            rng_req: DetRng::stream(cfg.seed, 0x60),
            rng_mix: DetRng::stream(cfg.seed, 0x61),
        };
        engine.schedule(Nanos::ZERO, move |c: &mut Cluster, e| {
            request_tick(c, e, pump);
        });
    }
}

struct SeqPump {
    cfg: ScaleConfig,
    traffic: ScaleTraffic,
    /// Target picks and inter-arrival gaps.
    rng_req: DetRng,
    /// Read/write choice per request.
    rng_mix: DetRng,
}

fn request_tick(cluster: &mut Cluster, engine: &mut Engine<Cluster>, mut pump: SeqPump) {
    let now = engine.now();
    let player = pump.traffic.pick(now, &mut pump.rng_req);
    let tag = if pump.rng_mix.chance(pump.cfg.write_fraction) {
        TAG_WRITE
    } else {
        TAG_READ
    };
    cluster.submit_client_request(engine, scale_actor(player), tag, pump.cfg.request_bytes);
    let rate = pump.cfg.players as f64
        * pump.cfg.request_rate_per_player
        * pump.traffic.rate_multiplier(now);
    let gap = Nanos::from_secs_f64(pump.rng_req.exp(1.0 / rate));
    if now + gap < pump.cfg.duration {
        engine.schedule_after(gap, move |c: &mut Cluster, e| {
            request_tick(c, e, pump);
        });
    }
}

// ---------------------------------------------------------------------
// Sharded backend.
// ---------------------------------------------------------------------

struct ShardScaleApp {
    state: Arc<PhaseCell<ScaleState>>,
}

impl ShardApp for ShardScaleApp {
    fn on_request(&self, actor: ActorId, tag: u32, rng: &mut DetRng) -> Reaction {
        // SAFETY: the slab is never mutated after construction; handlers
        // only read it, so window-phase access is race-free.
        scale_reaction(unsafe { self.state.get() }, actor, tag, rng)
    }

    fn continuation_cpu_ns(&self) -> f64 {
        // Request/reply only — no fan-out, so never consulted.
        0.0
    }
}

/// The built scale workload on the sharded backend.
pub struct ShardedScaleWorkload {
    state: Arc<PhaseCell<ScaleState>>,
}

impl ShardedScaleWorkload {
    /// Creates the workload and its application logic.
    pub fn build(cfg: ScaleConfig) -> (Box<dyn ShardApp>, ShardedScaleWorkload) {
        validate_scale_config(&cfg);
        let state = Arc::new(PhaseCell::new(ScaleState::new(cfg)));
        let app = Box::new(ShardScaleApp {
            state: Arc::clone(&state),
        });
        (app, ShardedScaleWorkload { state })
    }

    /// The per-player memory accounting of this build. Call only while
    /// the runner is idle.
    pub fn memory_audit(&self) -> MemoryAudit {
        // SAFETY: no window phase is live while the runner is idle.
        unsafe { self.state.get() }.memory_audit()
    }

    /// Schedules the batched client request pump as a serial-phase
    /// global, exactly as [`crate::halo_sharded`] does: arrivals of the
    /// next millisecond are pre-drawn with exact timestamps, keeping
    /// parallel windows wide while the driver's RNG streams stay
    /// independent of shard count.
    pub fn install(&self, runner: &mut ConservativeRunner<ShardedCluster>) {
        // SAFETY: the runner has not started; we have exclusive access.
        let cfg = unsafe { self.state.get() }.cfg;
        let pump = ShardPump {
            cfg,
            traffic: ScaleTraffic::new(cfg.shape, cfg.players),
            rng_req: DetRng::stream(cfg.seed, 0x60),
            rng_mix: DetRng::stream(cfg.seed, 0x61),
            rng_gateway: DetRng::stream(cfg.seed, 0x62),
            rng_net: DetRng::stream(cfg.seed, 0x63),
            next_at: Nanos::ZERO,
            next_request: 0,
        };
        runner.schedule_global(Nanos::ZERO, move |ctx| request_pump(pump, ctx));
    }
}

/// Everything the self-rescheduling request pump carries between batches.
struct ShardPump {
    cfg: ScaleConfig,
    traffic: ScaleTraffic,
    /// Target picks and inter-arrival gaps.
    rng_req: DetRng,
    /// Read/write choice per request.
    rng_mix: DetRng,
    /// Gateway selection per request.
    rng_gateway: DetRng,
    /// Client-to-gateway network delay per request.
    rng_net: DetRng,
    /// Timestamp of the next (already drawn into) arrival slot.
    next_at: Nanos,
    /// Monotone request serial.
    next_request: u64,
}

/// The open-loop client request stream, one batch per call.
fn request_pump(mut pump: ShardPump, ctx: &mut GlobalCtx<'_, ShardedCluster>) {
    let batch_end = ctx.now + Nanos::from_nanos(PUMP_INTERVAL_NS);
    while pump.next_at < batch_end && pump.next_at < pump.cfg.duration {
        let player = pump.traffic.pick(pump.next_at, &mut pump.rng_req);
        let tag = if pump.rng_mix.chance(pump.cfg.write_fraction) {
            TAG_WRITE
        } else {
            TAG_READ
        };
        let request = pump.next_request;
        pump.next_request += 1;
        submit_client_request_sharded(
            ctx,
            pump.next_at,
            scale_actor(player),
            tag,
            pump.cfg.request_bytes,
            request,
            &mut pump.rng_gateway,
            &mut pump.rng_net,
        );
        let rate = pump.cfg.players as f64
            * pump.cfg.request_rate_per_player
            * pump.traffic.rate_multiplier(pump.next_at);
        let gap = Nanos::from_secs_f64(pump.rng_req.exp(1.0 / rate));
        pump.next_at += gap;
    }
    if pump.next_at < pump.cfg.duration {
        ctx.schedule_global(batch_end, move |ctx| request_pump(pump, ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actop_runtime::sharded::{build_sharded, install_sharded_hooks, sharded_lookahead};
    use actop_runtime::{ClusterMetrics, RuntimeConfig};

    fn small_cfg(shape: TrafficShape) -> ScaleConfig {
        let mut cfg = ScaleConfig::base(2_000, Nanos::from_secs(2), 11, shape);
        // Enough aggregate traffic for a meaningful 2 s run.
        cfg.request_rate_per_player = 0.5;
        cfg.read_cpu_ns = 200_000.0;
        cfg.write_cpu_ns = 300_000.0;
        cfg
    }

    #[test]
    fn zipf_celebrity_concentrates_on_head() {
        let cfg = ScaleConfig::celebrity(100_000, Nanos::from_secs(10), 5);
        let traffic = ScaleTraffic::new(cfg.shape, cfg.players);
        let mut rng = DetRng::stream(5, 0x60);
        let draws = 40_000;
        let mut head = 0u64;
        let mut celebs = 0u64;
        for _ in 0..draws {
            let p = traffic.pick(Nanos::from_secs(1), &mut rng);
            if p == 0 {
                head += 1;
            }
            if p < 4 {
                celebs += 1;
            }
        }
        let head_share = head as f64 / draws as f64;
        let celeb_share = celebs as f64 / draws as f64;
        // Top celebrity: 0.7 * 1 / (1 + 2^-1.2 + 3^-1.2 + 4^-1.2) ~ 0.37.
        assert!(
            (0.30..0.45).contains(&head_share),
            "head share {head_share}"
        );
        assert!(
            (0.65..0.75).contains(&celeb_share),
            "celebrity share {celeb_share}"
        );
    }

    #[test]
    fn flash_crowd_steps_then_decays() {
        let cfg = ScaleConfig::flash_crowd(100_000, Nanos::from_secs(80), 9);
        let traffic = ScaleTraffic::new(cfg.shape, cfg.players);
        let share_at = |now: Nanos| {
            let mut rng = DetRng::stream(9, 0x60);
            let draws = 8_000;
            let hits = (0..draws)
                .filter(|_| traffic.pick(now, &mut rng) == 0)
                .count();
            hits as f64 / draws as f64
        };
        // Before the step the target is one uniform player in 100K.
        assert!(share_at(Nanos::from_secs(10)) < 0.01);
        // Just after the step it takes ~peak_share of traffic...
        let peak = share_at(Nanos::from_secs(20));
        assert!((0.40..0.60).contains(&peak), "peak share {peak}");
        // ...and four time constants later it has decayed away.
        let late = share_at(Nanos::from_secs(60));
        assert!(late < 0.05, "late share {late}");
        // The rate boost steps and decays alongside.
        assert!((traffic.rate_multiplier(Nanos::from_secs(10)) - 1.0).abs() < 1e-9);
        assert!(traffic.rate_multiplier(Nanos::from_secs(20)) > 1.4);
        assert!(traffic.rate_multiplier(Nanos::from_secs(70)) < 1.05);
    }

    #[test]
    fn diurnal_rate_oscillates_around_baseline() {
        let cfg = ScaleConfig::diurnal(100_000, Nanos::from_secs(100), 3);
        let traffic = ScaleTraffic::new(cfg.shape, cfg.players);
        let samples: Vec<f64> = (0..100)
            .map(|i| traffic.rate_multiplier(Nanos::from_secs(i)))
            .collect();
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        let min = samples.iter().cloned().fold(f64::MAX, f64::min);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(max > 1.5, "max {max}");
        assert!(min < 0.5 && min > 0.0, "min {min}");
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn rotating_hotspot_moves_each_dwell() {
        let cfg = ScaleConfig::rotating(100_000, Nanos::from_secs(80), 7);
        let TrafficShape::RotatingHotspot { dwell, .. } = cfg.shape else {
            unreachable!()
        };
        let traffic = ScaleTraffic::new(
            TrafficShape::RotatingHotspot {
                hotspots: 1,
                dwell,
                share: 1.0,
            },
            cfg.players,
        );
        let mut rng = DetRng::stream(7, 0x60);
        let hot_at = |now: Nanos, rng: &mut DetRng| traffic.pick(now, rng);
        let epochs: Vec<u64> = (0..4)
            .map(|e| hot_at(Nanos::from_nanos(e * dwell.as_nanos() + 1), &mut rng))
            .collect();
        // All four epochs pick distinct hot players.
        let mut unique = epochs.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), epochs.len(), "hotspots {epochs:?}");
        // Within one epoch the (single) hotspot is stable.
        let again = hot_at(Nanos::from_nanos(1), &mut rng);
        assert_eq!(again, epochs[0]);
    }

    #[test]
    fn memory_audit_accounts_the_slab() {
        let mut cfg = small_cfg(TrafficShape::Uniform);
        cfg.players = 1_000;
        cfg.state_bytes_per_player = 64;
        let (_, workload) = ScaleWorkload::build(cfg);
        let audit = workload.memory_audit();
        assert_eq!(audit.slab_bytes, 64_000);
        assert!((audit.bytes_per_player() - 64.0).abs() < 1e-9);
        // Linux exposes VmHWM; the slab is resident, so peak RSS covers it.
        if let Some(rss) = audit.peak_rss_bytes {
            assert!(rss >= audit.slab_bytes);
        }
    }

    #[test]
    fn sequential_scale_run_is_deterministic_and_completes() {
        let run = || {
            let cfg = small_cfg(TrafficShape::ZipfCelebrity {
                celebrities: 4,
                exponent: 1.2,
                celebrity_share: 0.7,
            });
            let (app, workload) = ScaleWorkload::build(cfg);
            let mut cluster = Cluster::new(RuntimeConfig::paper_testbed(11), app);
            let mut engine: Engine<Cluster> = Engine::new();
            workload.install(&mut engine);
            engine.run(&mut cluster);
            assert!(
                cluster.metrics.submitted > 500,
                "{}",
                cluster.metrics.submitted
            );
            assert_eq!(cluster.metrics.completed, cluster.metrics.submitted);
            (
                cluster.metrics.submitted,
                cluster.metrics.e2e_latency.quantile(0.99),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sharded_scale_identical_across_shard_counts() {
        let run = |shards: usize, threads: usize| {
            let cfg = small_cfg(TrafficShape::ZipfCelebrity {
                celebrities: 4,
                exponent: 1.2,
                celebrity_share: 0.7,
            });
            let (app, workload) = ShardedScaleWorkload::build(cfg);
            let rt = RuntimeConfig::paper_testbed(11);
            let series_bin = rt.series_bin_ns;
            let lookahead = sharded_lookahead(&rt);
            let worlds = build_sharded(rt, app, shards);
            let mut runner = ConservativeRunner::new(worlds, lookahead);
            install_sharded_hooks(&mut runner);
            workload.install(&mut runner);
            runner.run_until(cfg.duration + Nanos::from_millis(200), threads);
            let mut merged = ClusterMetrics::new(series_bin);
            for cell in runner.cells() {
                merged.merge_from(cell.world.metrics());
            }
            (
                merged.submitted,
                merged.completed,
                merged.remote_messages,
                merged.local_messages,
                merged.e2e_latency.summary(),
            )
        };
        let base = run(1, 1);
        assert!(base.0 > 500, "submitted {}", base.0);
        assert_eq!(base.0, base.1, "all requests complete");
        for (shards, threads) in [(2, 2), (4, 3)] {
            assert_eq!(base, run(shards, threads), "shards={shards}");
        }
    }
}
