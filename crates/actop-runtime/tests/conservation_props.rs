//! Property tests: request conservation under arbitrary application
//! behavior, placements, and crash schedules.
//!
//! Whatever the app does (arbitrary fan-out trees), whatever the placement
//! policy, and whenever servers crash: every submitted request must end up
//! exactly once in `completed`, `rejected`, or `timed_out`, and the engine
//! must fully drain.

use actop_runtime::{ActorId, AppLogic, Call, Cluster, PlacementPolicy, Reaction, RuntimeConfig};
use actop_sim::{DetRng, Engine, Nanos};
use proptest::prelude::*;

/// An application whose handlers fan out pseudo-randomly, derived from a
/// per-case seed: depth-limited so trees terminate.
struct RandomApp {
    fan_bias: u8,
}

impl AppLogic for RandomApp {
    fn on_request(&self, actor: ActorId, tag: u32, rng: &mut DetRng) -> Reaction {
        // `tag` carries remaining depth.
        if tag == 0 || !rng.chance(self.fan_bias as f64 / 255.0) {
            return Reaction::reply(rng.exp(20_000.0), 100);
        }
        let fan = rng.below(4) + 1;
        let calls = (0..fan)
            .map(|i| Call {
                to: ActorId((actor.0 * 7 + i as u64 * 13 + 1) % 64),
                tag: tag - 1,
                bytes: 200,
            })
            .collect();
        Reaction::fan_out(rng.exp(30_000.0), calls, 150)
    }
}

#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    servers: usize,
    placement: u8,
    fan_bias: u8,
    requests: u16,
    depth: u32,
    crash_at_us: Option<u32>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        1usize..5,
        0u8..3,
        0u8..200,
        1u16..150,
        0u32..3,
        proptest::option::of(1_000u32..200_000),
    )
        .prop_map(
            |(seed, servers, placement, fan_bias, requests, depth, crash_at_us)| Scenario {
                seed,
                servers,
                placement,
                fan_bias,
                requests,
                depth,
                // Never crash the only server.
                crash_at_us: if servers > 1 { crash_at_us } else { None },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn requests_are_conserved(scenario in arb_scenario()) {
        let mut config = RuntimeConfig::paper_testbed(scenario.seed);
        config.servers = scenario.servers;
        config.placement = match scenario.placement {
            0 => PlacementPolicy::Random,
            1 => PlacementPolicy::Hash,
            _ => PlacementPolicy::Local,
        };
        config.request_timeout = Some(Nanos::from_secs(3));
        let mut cluster = Cluster::new(
            config,
            Box::new(RandomApp {
                fan_bias: scenario.fan_bias,
            }),
        );
        let mut engine: Engine<Cluster> = Engine::new();
        let depth = scenario.depth;
        let mut rng = DetRng::stream(scenario.seed, 0xAB);
        for i in 0..scenario.requests {
            let actor = ActorId(rng.below(64) as u64);
            engine.schedule(
                Nanos::from_micros(i as u64 * 150),
                move |c: &mut Cluster, e| {
                    c.submit_client_request(e, actor, depth, 300);
                },
            );
        }
        if let Some(at) = scenario.crash_at_us {
            let victim = (scenario.seed % scenario.servers as u64) as usize;
            engine.schedule(Nanos::from_micros(at as u64), move |c: &mut Cluster, e| {
                c.fail_server(e, victim);
            });
        }
        engine.run(&mut cluster);
        let m = &cluster.metrics;
        prop_assert_eq!(
            m.completed + m.rejected + m.timed_out,
            m.submitted,
            "completed {} rejected {} timed_out {} submitted {}",
            m.completed, m.rejected, m.timed_out, m.submitted
        );
        // The cluster must fully drain even across a crash: the timeout
        // purges a dead request's joins, and zombie branches (work for
        // already-resolved requests) are dropped instead of minting new
        // state — no leaked handles, ever.
        prop_assert!(
            cluster.is_drained(),
            "leaked in-flight state after drain (crash: {:?})",
            scenario.crash_at_us
        );
        // Without a crash nothing may time out or go stale.
        if scenario.crash_at_us.is_none() {
            prop_assert_eq!(m.timed_out, 0);
            prop_assert_eq!(m.stale_responses, 0);
        }
    }

    /// Actor-to-actor message counts are consistent with the locality
    /// series, and every actor lives on at most one server.
    #[test]
    fn directory_is_single_assignment(scenario in arb_scenario()) {
        let mut config = RuntimeConfig::paper_testbed(scenario.seed);
        config.servers = scenario.servers;
        config.request_timeout = Some(Nanos::from_secs(3));
        let mut cluster = Cluster::new(
            config,
            Box::new(RandomApp {
                fan_bias: scenario.fan_bias,
            }),
        );
        let mut engine: Engine<Cluster> = Engine::new();
        let depth = scenario.depth;
        let mut rng = DetRng::stream(scenario.seed, 0xAC);
        for i in 0..scenario.requests.min(60) {
            let actor = ActorId(rng.below(64) as u64);
            engine.schedule(
                Nanos::from_micros(i as u64 * 200),
                move |c: &mut Cluster, e| {
                    c.submit_client_request(e, actor, depth, 300);
                },
            );
        }
        engine.run(&mut cluster);
        // Sizes sum to the directory population.
        let total: usize = cluster.server_sizes().iter().sum();
        prop_assert_eq!(total, cluster.directory.vertex_count());
        // The locality counters match the series totals.
        let series_count: u64 = cluster
            .metrics
            .remote_share_series
            .bins()
            .iter()
            .map(|b| b.count)
            .sum();
        prop_assert_eq!(
            series_count,
            cluster.metrics.remote_messages + cluster.metrics.local_messages
        );
    }
}
