//! Golden-summary determinism test: a fixed-seed Halo run must reproduce
//! byte-identical results on every machine and after every refactor of the
//! event kernel.
//!
//! The golden values were recorded from this scenario at the introduction
//! of the indexed event queue; any change to event ordering, RNG streams,
//! or the runtime's scheduling semantics shows up here as a diff. If a
//! change is *intentional* (e.g. a new RNG), re-record by running with
//! `GOLDEN_PRINT=1`:
//!
//! ```sh
//! GOLDEN_PRINT=1 cargo test -p actop-bench --test golden_halo -- --nocapture
//! ```

use actop_bench::{run_halo, run_halo_sharded, HaloScenario};
use actop_core::controllers::ActOpConfig;
use actop_core::experiment::RunSummary;
use actop_partition::RepartitionPolicyKind;
use actop_runtime::Cluster;
use actop_sim::{EngineReport, Nanos};

fn scenario() -> HaloScenario {
    HaloScenario {
        players: 800,
        request_rate: 300.0,
        servers: 4,
        warmup: Nanos::from_secs(4),
        measure: Nanos::from_secs(8),
        seed: 42,
        game_duration_s: Some((30.0, 60.0)),
    }
}

fn fingerprint(actop: &ActOpConfig) -> String {
    fingerprint_of(run_halo(&scenario(), actop))
}

fn fingerprint_of((summary, report, cluster): (RunSummary, EngineReport, Cluster)) -> String {
    format!(
        "submitted={} completed={} rejected={} migrations={} remote={:.6} \
         p50={:.6} p95={:.6} p99={:.6} mean={:.6} events={} final_now={}",
        summary.submitted,
        summary.completed,
        summary.rejected,
        summary.migrations,
        summary.remote_fraction,
        summary.p50_ms,
        summary.p95_ms,
        summary.p99_ms,
        summary.mean_ms,
        report.events_processed,
        cluster.metrics.migrations,
    )
}

#[test]
fn golden_baseline_and_optimized() {
    let base = fingerprint(&ActOpConfig::default());
    let opt = fingerprint(&scenario().actop(true, false));
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN base: {base}");
        println!("GOLDEN opt:  {opt}");
        return;
    }
    assert_eq!(
        base,
        "submitted=2422 completed=2420 rejected=0 migrations=0 remote=0.737308 \
         p50=4.915200 p95=6.225920 p99=6.750208 mean=4.862224 events=227646 final_now=0",
        "baseline fingerprint drifted; if intentional, re-record with GOLDEN_PRINT=1"
    );
    assert_eq!(
        opt,
        "submitted=2422 completed=2421 rejected=0 migrations=636 remote=0.042474 \
         p50=3.047424 p95=4.653056 p99=5.570560 mean=3.173947 events=127976 final_now=636",
        "optimized fingerprint drifted; if intentional, re-record with GOLDEN_PRINT=1"
    );
}

/// The ActOp agents pinned absolutely on both backends: both agents on the
/// sequential engine and on the sharded one (1 and 2 shards), plus one
/// per-server non-exchange policy and one global policy on the sharded
/// backend. The shard-count tests only pin the sharded runs relative to
/// each other; these fingerprints catch a change to what the agents do.
#[test]
fn golden_agents_on_both_backends() {
    let s = scenario();
    let both = s.actop(true, true);
    let with_policy = |kind| {
        let mut actop = s.actop(true, false);
        actop.partition.as_mut().expect("partition agent").policy = kind;
        actop
    };
    let runs = [
        ("legacy both", fingerprint(&both)),
        (
            "sharded1 both",
            fingerprint_of(run_halo_sharded(&s, &both, 1)),
        ),
        (
            "sharded2 both",
            fingerprint_of(run_halo_sharded(&s, &both, 2)),
        ),
        (
            "sharded1 stream",
            fingerprint_of(run_halo_sharded(
                &s,
                &with_policy(RepartitionPolicyKind::Stream),
                1,
            )),
        ),
        (
            "sharded1 dynamic",
            fingerprint_of(run_halo_sharded(
                &s,
                &with_policy(RepartitionPolicyKind::DynamicBalanced),
                1,
            )),
        ),
    ];
    if std::env::var("GOLDEN_PRINT").is_ok() {
        for (name, fp) in &runs {
            println!("GOLDEN {name}: {fp}");
        }
        return;
    }
    let expected = [
        (
            "legacy both",
            "submitted=2422 completed=2421 rejected=0 migrations=651 remote=0.046013 \
             p50=2.392064 p95=3.768320 p99=4.521984 mean=2.526174 events=131339 final_now=651",
        ),
        (
            "sharded1 both",
            "submitted=2422 completed=2421 rejected=0 migrations=657 remote=0.081987 \
             p50=2.588672 p95=4.096000 p99=4.784128 mean=2.696195 events=143265 final_now=657",
        ),
        (
            "sharded2 both",
            "submitted=2422 completed=2421 rejected=0 migrations=657 remote=0.081987 \
             p50=2.588672 p95=4.096000 p99=4.784128 mean=2.696195 events=143265 final_now=657",
        ),
        (
            "sharded1 stream",
            "submitted=2422 completed=2421 rejected=0 migrations=818 remote=0.110704 \
             p50=3.244032 p95=5.177344 p99=5.963776 mean=3.427105 events=142281 final_now=818",
        ),
        (
            "sharded1 dynamic",
            "submitted=2422 completed=2420 rejected=0 migrations=767 remote=0.015060 \
             p50=2.981888 p95=4.259840 p99=5.308416 mean=3.078693 events=122998 final_now=767",
        ),
    ];
    for ((name, fp), (want_name, want)) in runs.iter().zip(expected) {
        assert_eq!(*name, want_name);
        assert_eq!(
            fp, want,
            "{name} fingerprint drifted; if intentional, re-record with GOLDEN_PRINT=1"
        );
    }
}

#[test]
fn run_is_reproducible_within_process() {
    // Same scenario twice in one process: the engine, RNG streams, and
    // runtime must not leak state between runs.
    let a = fingerprint(&ActOpConfig::default());
    let b = fingerprint(&ActOpConfig::default());
    assert_eq!(a, b);
}
