//! Property test: request conservation under arbitrary seed-derived fault
//! plans, with the failure detector and timed migrations switched on.
//!
//! Whatever faults the plan injects (crashes, recoveries, stragglers, lossy
//! or slow links) and however the detector reacts (suspicion, directory
//! repair, retries), every admitted request must terminate exactly once —
//! `completed + rejected + timed_out == submitted` — and the cluster must
//! fully drain: no leaked join state, no orphaned slab entries, no stage
//! work left behind.

use actop_chaos::{install_plan, FaultPlan};
use actop_runtime::{
    ActorId, AppLogic, Call, Cluster, DetectorConfig, PlacementPolicy, Reaction, RuntimeConfig,
};
use actop_sim::{DetRng, Engine, Nanos};
use proptest::prelude::*;

/// Fan-out app with pseudo-random depth-limited call trees, same shape as
/// the runtime's conservation suite so failures are comparable.
struct FanApp {
    fan_bias: u8,
}

impl AppLogic for FanApp {
    fn on_request(&self, actor: ActorId, tag: u32, rng: &mut DetRng) -> Reaction {
        if tag == 0 || !rng.chance(self.fan_bias as f64 / 255.0) {
            return Reaction::reply(rng.exp(20_000.0), 100);
        }
        let fan = rng.below(3) + 1;
        let calls = (0..fan)
            .map(|i| Call {
                to: ActorId((actor.0 * 7 + i as u64 * 13 + 1) % 48),
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
    fan_bias: u8,
    requests: u16,
    depth: u32,
    fault_count: usize,
    migrations: u8,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        2usize..5,
        0u8..200,
        1u16..120,
        0u32..3,
        0usize..10,
        0u8..6,
    )
        .prop_map(
            |(seed, servers, fan_bias, requests, depth, fault_count, migrations)| Scenario {
                seed,
                servers,
                fan_bias,
                requests,
                depth,
                fault_count,
                migrations,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn requests_are_conserved_under_fault_plans(scenario in arb_scenario()) {
        let mut config = RuntimeConfig::paper_testbed(scenario.seed);
        config.servers = scenario.servers;
        config.placement = PlacementPolicy::Hash;
        // A timeout is mandatory under faults: requests stranded on a host
        // that dies mid-join can only terminate through it.
        config.request_timeout = Some(Nanos::from_secs(2));
        config.detector = Some(DetectorConfig::default());
        config.migration_transfer = Some(Nanos::from_millis(2));
        let mut cluster = Cluster::new(
            config,
            Box::new(FanApp {
                fan_bias: scenario.fan_bias,
            }),
        );
        let mut engine: Engine<Cluster> = Engine::new();

        // Fault plan over the first 400 ms; `random` always heals, so the
        // tail of the run recovers (timeouts mop up anything stranded).
        let horizon = Nanos::from_millis(400);
        let plan = FaultPlan::random(
            scenario.seed,
            scenario.servers as u32,
            horizon,
            scenario.fault_count,
        );
        install_plan(&mut engine, &cluster, &plan, Nanos::ZERO);
        // Heartbeats stop at the horizon so the event queue drains; by then
        // every request has either completed or timed out (2 s timeout).
        cluster.install_heartbeats(&mut engine, Nanos::from_secs(3));

        let depth = scenario.depth;
        let mut rng = DetRng::stream(scenario.seed, 0xC0);
        for i in 0..scenario.requests {
            let actor = ActorId(rng.below(48) as u64);
            engine.schedule(
                Nanos::from_micros(i as u64 * 150),
                move |c: &mut Cluster, e| {
                    c.submit_client_request(e, actor, depth, 300);
                },
            );
        }
        // Explicit migrations racing the fault plan exercise the timed
        // transfer path (commit, abort-on-crash, in-flight dedup).
        let servers = scenario.servers;
        for m in 0..scenario.migrations {
            let actor = ActorId(rng.below(48) as u64);
            let to = rng.below(servers);
            engine.schedule(
                Nanos::from_micros(5_000 + m as u64 * 20_000),
                move |c: &mut Cluster, e| {
                    let now = e.now();
                    c.migrate_actor(e, now, actor, to);
                },
            );
        }

        engine.run(&mut cluster);

        let m = &cluster.metrics;
        prop_assert_eq!(
            m.completed + m.rejected + m.timed_out,
            m.submitted,
            "completed {} rejected {} timed_out {} submitted {} (plan: {})",
            m.completed, m.rejected, m.timed_out, m.submitted, plan.to_text()
        );
        prop_assert!(
            cluster.is_drained(),
            "leaked in-flight state after drain (plan: {})",
            plan.to_text()
        );
        // Shed requests are a subset of rejections.
        prop_assert!(m.shed_no_live <= m.rejected);
        // A plan that never crashes anything can't lose messages to dead
        // hosts, though lossy links may still drop and retry.
        if scenario.fault_count == 0 {
            prop_assert_eq!(m.timed_out, 0, "no faults, nothing may time out");
            prop_assert_eq!(m.net_dropped, 0);
        }
    }
}
