//! The sharded half of the policy differential story: every selectable
//! repartitioning policy must be deterministic in the shard count. The
//! in-vitro half (placement invariants, replay determinism on a
//! [`GraphHost`]) lives in `actop-partition/tests/policy_differential.rs`;
//! this test drives the live sharded runtime and pins that splitting the
//! cluster across conservative-parallel shards never changes what any
//! policy decided — the full [`RunSummary`] stays bit-identical between
//! the sequential oracle (`shards = 1`) and a genuine multi-shard split.
//!
//! [`GraphHost`]: actop_partition::GraphHost

mod common;

use actop_bench::{run_halo_sharded, HaloScenario};
use actop_partition::RepartitionPolicyKind;
use actop_sim::Nanos;
use common::summary_bits;

#[test]
fn every_policy_is_shard_count_invariant() {
    let scenario = HaloScenario {
        players: 300,
        request_rate: 250.0,
        servers: 6,
        warmup: Nanos::from_secs(1),
        measure: Nanos::from_secs(2),
        seed: 21,
        game_duration_s: Some((10.0, 20.0)),
    };
    for kind in RepartitionPolicyKind::ALL {
        let mut actop = scenario.actop(true, false);
        actop
            .partition
            .as_mut()
            .expect("partition agent enabled")
            .policy = kind;
        let (base, base_report, _) = run_halo_sharded(&scenario, &actop, 1);
        assert!(
            base.completed > 200,
            "{kind:?}: completed {}",
            base.completed
        );
        // 7 shards clamp to the 6 servers — still a distinct split from 3.
        for shards in [3usize, 7] {
            let (s, report, _) = run_halo_sharded(&scenario, &actop, shards);
            assert_eq!(
                summary_bits(&base),
                summary_bits(&s),
                "{kind:?}: RunSummary diverged at shards={shards}"
            );
            assert_eq!(
                base_report.events_processed, report.events_processed,
                "{kind:?}: event count diverged at shards={shards}"
            );
        }
    }
}
