//! Adversarial demand generators for the repartitioning bake-off.
//!
//! Each generator stresses a different weakness of an online
//! repartitioner:
//!
//! * [`DemandPattern::Ring`] — every actor talks to its ring successor.
//!   The optimum is contiguous segments (cut = one edge per server); the
//!   lower bounds for online graph partitioning are proved on exactly
//!   this demand family, which makes it the competitive-ratio fixture.
//! * [`DemandPattern::RotatingHotspot`] — a dense clique of actors that
//!   jumps to the next window of the ID space every period. A partitioner
//!   that chases the clique pays a migration wave per period and the
//!   clique is gone before the wave amortizes.
//! * [`DemandPattern::PairChurn`] — a perfect matching of actor pairs,
//!   redrawn every period. Co-locating a pair saves exactly one edge of
//!   traffic for at most one period; with a realistic transfer window the
//!   move never pays for itself, so a migration-cost-aware objective
//!   should sit still while a cost-oblivious one thrashes.
//!
//! The app half is deliberately light (a fan-out of one or two calls plus
//! a small CPU burn): the bake-off measures communication and migration
//! cost, not compute. The demand state lives in an `Rc<RefCell<..>>`
//! shared between the app and the driver, exactly like [`crate::halo`].

use std::cell::RefCell;
use std::rc::Rc;

use actop_runtime::{ActorId, AppLogic, Call, Cluster, Reaction};
use actop_sim::{DetRng, Engine, Nanos};

/// Tag of a client-facing request (fans out to the actor's demand peers).
pub const TAG_FRONT: u32 = 0;
/// Tag of a peer call (replies immediately).
pub const TAG_PEER: u32 = 1;

/// Which adversarial demand family drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandPattern {
    /// Actor `i` calls actor `(i + 1) mod n` on every request.
    Ring,
    /// A clique of `clique` consecutive actor IDs is hot; the window
    /// advances by its own width every `period`.
    RotatingHotspot {
        /// Hot-window width in actors.
        clique: u64,
        /// How long a window stays hot before rotating.
        period: Nanos,
    },
    /// A perfect matching of actor pairs, redrawn every `period`.
    PairChurn {
        /// How long a matching lasts.
        period: Nanos,
    },
}

impl DemandPattern {
    /// The stable name used in bench artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            DemandPattern::Ring => "ring",
            DemandPattern::RotatingHotspot { .. } => "hotspot",
            DemandPattern::PairChurn { .. } => "churn",
        }
    }
}

/// Configuration of an adversarial workload run.
#[derive(Debug, Clone, Copy)]
pub struct AdversarialConfig {
    /// Number of distinct actors.
    pub actors: u64,
    /// Open-loop Poisson client request rate, requests per second.
    pub request_rate: f64,
    /// How long clients keep issuing requests.
    pub duration: Nanos,
    /// Workload seed.
    pub seed: u64,
    /// The demand family.
    pub pattern: DemandPattern,
}

impl AdversarialConfig {
    /// A bake-off-scale config for `pattern`: enough actors that every
    /// server hosts hundreds, with periods a small multiple of the
    /// partition-agent interval so the adversary outpaces naive chasing.
    pub fn bakeoff(pattern: DemandPattern, duration: Nanos, seed: u64) -> Self {
        AdversarialConfig {
            actors: 4_000,
            request_rate: 2_000.0,
            duration,
            seed,
            pattern,
        }
    }
}

/// Mutable demand state shared by the app and the driver.
struct DemandState {
    /// `PairChurn`: `partner[i]` is `i`'s current peer (an involution).
    partner: Vec<u64>,
    /// `RotatingHotspot`: first actor ID of the hot window.
    hot_start: u64,
}

struct AdversarialApp {
    config: AdversarialConfig,
    state: Rc<RefCell<DemandState>>,
}

impl AppLogic for AdversarialApp {
    fn on_request(&self, actor: ActorId, tag: u32, rng: &mut DetRng) -> Reaction {
        if tag == TAG_PEER {
            return Reaction::reply(rng.exp(5_000.0), 200);
        }
        let n = self.config.actors;
        let calls: Vec<Call> = match self.config.pattern {
            DemandPattern::Ring => vec![Call {
                to: ActorId((actor.0 + 1) % n),
                tag: TAG_PEER,
                bytes: 600,
            }],
            DemandPattern::RotatingHotspot { clique, .. } => {
                // Two distinct peers inside the hot window make the
                // window a dense clique in the sketch.
                let start = self.state.borrow().hot_start;
                let mut peers = Vec::with_capacity(2);
                while peers.len() < 2 {
                    let p = start + rng.range_inclusive(0, clique - 1);
                    let p = ActorId(p % n);
                    if p != actor && !peers.contains(&p) {
                        peers.push(p);
                    }
                }
                peers
                    .into_iter()
                    .map(|to| Call {
                        to,
                        tag: TAG_PEER,
                        bytes: 600,
                    })
                    .collect()
            }
            DemandPattern::PairChurn { .. } => {
                let partner = self.state.borrow().partner[actor.0 as usize];
                vec![Call {
                    to: ActorId(partner),
                    tag: TAG_PEER,
                    bytes: 600,
                }]
            }
        };
        Reaction::fan_out(rng.exp(20_000.0), calls, 300)
    }
}

/// The built workload: the app half and the driver half.
pub struct AdversarialWorkload {
    config: AdversarialConfig,
    state: Rc<RefCell<DemandState>>,
}

impl AdversarialWorkload {
    /// Creates the workload and its application logic.
    pub fn build(config: AdversarialConfig) -> (Box<dyn AppLogic>, AdversarialWorkload) {
        assert!(config.actors >= 4, "need at least four actors");
        assert!(config.request_rate > 0.0, "need a positive request rate");
        if let DemandPattern::RotatingHotspot { clique, .. } = config.pattern {
            assert!(
                clique >= 3 && clique <= config.actors,
                "hot window must hold 3..=actors actors"
            );
        }
        let mut rng = DetRng::stream(config.seed, 0x20);
        let state = Rc::new(RefCell::new(DemandState {
            partner: draw_matching(config.actors, &mut rng),
            hot_start: 0,
        }));
        let app = Box::new(AdversarialApp {
            config,
            state: Rc::clone(&state),
        });
        (app, AdversarialWorkload { config, state })
    }

    /// Schedules the client request stream and the demand rotation.
    pub fn install(&self, engine: &mut Engine<Cluster>) {
        let config = self.config;
        let rng = DetRng::stream(config.seed, 0x21);
        let state = Rc::clone(&self.state);
        engine.schedule(Nanos::ZERO, move |c: &mut Cluster, e| {
            request_tick(c, e, config, Rc::clone(&state), rng);
        });
        match config.pattern {
            DemandPattern::Ring => {}
            DemandPattern::RotatingHotspot { period, .. } => {
                let state = Rc::clone(&self.state);
                engine.schedule(period, move |c: &mut Cluster, e| {
                    rotate_tick(c, e, config, state);
                });
            }
            DemandPattern::PairChurn { period } => {
                let state = Rc::clone(&self.state);
                let rng = DetRng::stream(config.seed, 0x22);
                engine.schedule(period, move |c: &mut Cluster, e| {
                    churn_tick(c, e, config, state, rng);
                });
            }
        }
    }
}

/// A deterministic perfect matching: shuffle the IDs, pair adjacent
/// entries. Odd populations leave the last actor self-paired (its calls
/// are local no-ops for the partitioner, which is fine).
fn draw_matching(actors: u64, rng: &mut DetRng) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..actors).collect();
    // Fisher-Yates off the deterministic stream.
    for i in (1..ids.len()).rev() {
        let j = rng.range_inclusive(0, i as u64) as usize;
        ids.swap(i, j);
    }
    let mut partner = vec![0u64; actors as usize];
    for pair in ids.chunks(2) {
        match *pair {
            [a, b] => {
                partner[a as usize] = b;
                partner[b as usize] = a;
            }
            [a] => partner[a as usize] = a,
            _ => unreachable!("chunks(2)"),
        }
    }
    partner
}

fn request_tick(
    cluster: &mut Cluster,
    engine: &mut Engine<Cluster>,
    config: AdversarialConfig,
    state: Rc<RefCell<DemandState>>,
    mut rng: DetRng,
) {
    let target = match config.pattern {
        // Hot-window actors receive the traffic; everyone else is cold.
        DemandPattern::RotatingHotspot { clique, .. } => {
            let start = state.borrow().hot_start;
            (start + rng.range_inclusive(0, clique - 1)) % config.actors
        }
        _ => rng.range_inclusive(0, config.actors - 1),
    };
    cluster.submit_client_request(engine, ActorId(target), TAG_FRONT, 500);
    let gap = Nanos::from_secs_f64(rng.exp(1.0 / config.request_rate));
    if engine.now() + gap < config.duration {
        engine.schedule_after(gap, move |c: &mut Cluster, e| {
            request_tick(c, e, config, state, rng);
        });
    }
}

fn rotate_tick(
    _cluster: &mut Cluster,
    engine: &mut Engine<Cluster>,
    config: AdversarialConfig,
    state: Rc<RefCell<DemandState>>,
) {
    let DemandPattern::RotatingHotspot { clique, period } = config.pattern else {
        unreachable_pattern()
    };
    {
        let mut s = state.borrow_mut();
        s.hot_start = (s.hot_start + clique) % config.actors;
    }
    if engine.now() + period < config.duration {
        engine.schedule_after(period, move |c: &mut Cluster, e| {
            rotate_tick(c, e, config, state);
        });
    }
}

fn churn_tick(
    _cluster: &mut Cluster,
    engine: &mut Engine<Cluster>,
    config: AdversarialConfig,
    state: Rc<RefCell<DemandState>>,
    mut rng: DetRng,
) {
    let DemandPattern::PairChurn { period } = config.pattern else {
        unreachable_pattern()
    };
    state.borrow_mut().partner = draw_matching(config.actors, &mut rng);
    if engine.now() + period < config.duration {
        engine.schedule_after(period, move |c: &mut Cluster, e| {
            churn_tick(c, e, config, state, rng);
        });
    }
}

fn unreachable_pattern() -> ! {
    unreachable!("tick installed only for its own pattern")
}

#[cfg(test)]
mod tests {
    use super::*;
    use actop_runtime::RuntimeConfig;

    fn run(pattern: DemandPattern) -> Cluster {
        let mut config = AdversarialConfig::bakeoff(pattern, Nanos::from_secs(3), 11);
        config.actors = 400;
        config.request_rate = 800.0;
        let (app, workload) = AdversarialWorkload::build(config);
        let mut rt = RuntimeConfig::paper_testbed(11);
        rt.servers = 4;
        let mut cluster = Cluster::new(rt, app);
        let mut engine: Engine<Cluster> = Engine::new();
        workload.install(&mut engine);
        engine.run(&mut cluster);
        cluster
    }

    #[test]
    fn ring_runs_to_completion() {
        let cluster = run(DemandPattern::Ring);
        assert!(cluster.metrics.submitted > 1_500);
        assert_eq!(cluster.metrics.completed, cluster.metrics.submitted);
        assert!(cluster.is_drained());
    }

    #[test]
    fn hotspot_rotates() {
        let cluster = run(DemandPattern::RotatingHotspot {
            clique: 32,
            period: Nanos::from_millis(500),
        });
        assert_eq!(cluster.metrics.completed, cluster.metrics.submitted);
        assert!(cluster.is_drained());
    }

    #[test]
    fn churn_redraws_pairs() {
        let cluster = run(DemandPattern::PairChurn {
            period: Nanos::from_millis(500),
        });
        assert_eq!(cluster.metrics.completed, cluster.metrics.submitted);
        assert!(cluster.is_drained());
    }

    #[test]
    fn matching_is_an_involution() {
        let mut rng = DetRng::new(3);
        for n in [4u64, 5, 100, 101] {
            let partner = draw_matching(n, &mut rng);
            let mut selfies = 0;
            for i in 0..n as usize {
                let p = partner[i] as usize;
                assert_eq!(partner[p] as usize, i, "partner of partner is self");
                if p == i {
                    selfies += 1;
                }
            }
            assert_eq!(selfies, (n % 2) as usize, "odd population leaves one");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let fingerprint = |c: &Cluster| {
            (
                c.metrics.submitted,
                c.metrics.completed,
                c.metrics.e2e_latency.quantile(0.99),
            )
        };
        let a = run(DemandPattern::PairChurn {
            period: Nanos::from_millis(500),
        });
        let b = run(DemandPattern::PairChurn {
            period: Nanos::from_millis(500),
        });
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
