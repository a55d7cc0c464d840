//! Shard-count determinism: the acceptance property of the sharded
//! conservative-parallel backend. One seed must produce **byte-identical**
//! results no matter how many shards the cluster is split into or how many
//! worker threads execute them — across healthy runs, full steady-state
//! measurement, and crash/recovery chaos.
//!
//! Two layers:
//!
//! * [`run_halo_sharded_summary_is_shard_count_invariant`] exercises the
//!   public bench entry point and compares the full [`RunSummary`]
//!   bit-for-bit (f64 fields via `to_bits`).
//! * The proptest and the chaos test drive the runner directly with
//!   tracing on and compare merged metrics *and* the [`TraceDigest`]
//!   fingerprint of every recorded span.

mod common;

use actop_bench::{run_halo_sharded, HaloScenario};
use actop_runtime::sharded::{
    build_sharded, fail_server_sharded, install_sharded_hooks, recover_server_sharded,
    sharded_lookahead,
};
use actop_runtime::{ClusterMetrics, RuntimeConfig, TraceConfig};
use actop_sim::{ConservativeRunner, Nanos};
use actop_verify::{diff_digests, TraceDigest};
use actop_workloads::halo::HaloConfig;
use actop_workloads::HaloWorkload;
use common::summary_bits;
use proptest::prelude::*;

#[test]
fn run_halo_sharded_summary_is_shard_count_invariant() {
    let scenario = HaloScenario {
        players: 300,
        request_rate: 250.0,
        servers: 6,
        warmup: Nanos::from_secs(1),
        measure: Nanos::from_secs(2),
        seed: 21,
        game_duration_s: Some((10.0, 20.0)),
    };
    let actop = scenario.actop(true, true);
    let (base, base_report, _) = run_halo_sharded(&scenario, &actop, 1);
    assert!(base.completed > 200, "completed {}", base.completed);
    assert!(base.migrations > 0, "partition agent must engage");
    // 7 shards clamp to the 6 servers — still a distinct split from 4.
    for shards in [2usize, 4, 7] {
        let (s, report, _) = run_halo_sharded(&scenario, &actop, shards);
        assert_eq!(
            summary_bits(&base),
            summary_bits(&s),
            "RunSummary diverged at shards={shards}"
        );
        assert_eq!(
            base_report.events_processed, report.events_processed,
            "event count diverged at shards={shards}"
        );
    }
}

/// One fault to inject: fail `server` at `at`, recover it at `until`
/// (`None` = stays dead).
#[derive(Debug, Clone, Copy)]
struct Fault {
    server: usize,
    at: Nanos,
    until: Option<Nanos>,
}

/// What one direct run produces: merged steady metrics and the trace
/// fingerprint.
struct Outcome {
    metrics: ClusterMetrics,
    digest: TraceDigest,
}

/// Runs the Halo workload on the sharded backend with tracing on,
/// returning merged metrics and the digest of every span across shards.
fn run_traced(seed: u64, rate: f64, faults: &[Fault], shards: usize, threads: usize) -> Outcome {
    let duration = Nanos::from_secs(2);
    let cfg = HaloConfig::fast_churn(200, rate, duration, seed);
    let (app, workload) = HaloWorkload::build(cfg);
    let mut rt = RuntimeConfig::paper_testbed(seed);
    rt.servers = 6;
    rt.record_remote_call_latency = true;
    rt.trace = Some(TraceConfig {
        sample_rate: 1.0,
        seed,
        ..TraceConfig::default()
    });
    let series_bin = rt.series_bin_ns;
    let lookahead = sharded_lookahead(&rt);
    let worlds = build_sharded(rt, app, shards);
    let mut runner = ConservativeRunner::new(worlds, lookahead);
    install_sharded_hooks(&mut runner);
    workload.install(&mut runner);
    for f in faults {
        let server = f.server;
        runner.schedule_global(f.at, move |ctx| fail_server_sharded(ctx, server));
        if let Some(until) = f.until {
            runner.schedule_global(until, move |ctx| recover_server_sharded(ctx, server));
        }
    }
    // Run past the request stream's end so in-flight work drains.
    runner.run_until(duration + Nanos::from_millis(100), threads);
    let mut metrics = ClusterMetrics::new(series_bin);
    let mut spans = Vec::new();
    for cell in runner.cells() {
        metrics.merge_from(cell.world.metrics());
        assert_eq!(
            cell.world.trace().dropped_spans(),
            0,
            "digest of a truncated trace"
        );
        spans.extend_from_slice(cell.world.trace().spans());
    }
    Outcome {
        metrics,
        digest: TraceDigest::of(&spans),
    }
}

/// Asserts two outcomes are identical, naming the run pair and the first
/// divergent component.
fn assert_same(base: &Outcome, other: &Outcome, label: &str) {
    if let Some(diff) = diff_digests(&base.digest, &other.digest) {
        panic!("trace digest diverged at {label}: {diff}");
    }
    let (a, b) = (&base.metrics, &other.metrics);
    for c in ClusterMetrics::COUNTERS {
        assert_eq!((c.read)(a), (c.read)(b), "{} at {label}", c.name);
    }
    assert_eq!(a.e2e_latency.summary(), b.e2e_latency.summary(), "{label}");
    assert_eq!(
        a.e2e_latency.mean().to_bits(),
        b.e2e_latency.mean().to_bits(),
        "{label}"
    );
    assert_eq!(
        a.remote_call_latency.summary(),
        b.remote_call_latency.summary(),
        "{label}"
    );
    assert_eq!(a.latency_series.bins(), b.latency_series.bins(), "{label}");
    assert_eq!(
        a.remote_share_series.bins(),
        b.remote_share_series.bins(),
        "{label}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random seeds and load levels: the shard split {1, 2, 4, 7} and the
    /// thread count never change what happened.
    #[test]
    fn random_runs_identical_across_shard_and_thread_counts(
        seed in 0u64..1_000,
        rate in 150.0f64..350.0,
    ) {
        let base = run_traced(seed, rate, &[], 1, 1);
        prop_assert!(base.metrics.completed > 100, "completed {}", base.metrics.completed);
        for (shards, threads) in [(2usize, 2usize), (4, 3), (7, 7)] {
            let run = run_traced(seed, rate, &[], shards, threads);
            assert_same(&base, &run, &format!("seed={seed} shards={shards} threads={threads}"));
        }
        // Threaded execution of the *same* split matches its sequential oracle.
        let seq = run_traced(seed, rate, &[], 4, 1);
        let par = run_traced(seed, rate, &[], 4, 4);
        assert_same(&seq, &par, &format!("seed={seed} shards=4 sequential-vs-threaded"));
    }
}

#[test]
fn chaos_runs_identical_across_shard_counts() {
    // Servers 2 and 3 land on different shards at every split below, so
    // the crash/recovery machinery (flight dumps, retries, directory
    // repair, re-placement) crosses shard boundaries.
    let faults = [
        Fault {
            server: 2,
            at: Nanos::from_millis(300),
            until: Some(Nanos::from_millis(800)),
        },
        Fault {
            server: 3,
            at: Nanos::from_millis(400),
            until: None,
        },
    ];
    let base = run_traced(77, 800.0, &faults, 1, 1);
    let m = &base.metrics;
    assert!(m.completed > 100);
    assert_eq!(m.server_failures, 2);
    // Requests whose in-flight work died with a server never resolve (the
    // sharded backend has no request timeouts), so the crash shows up as
    // unresolved requests, retries, or stale/lost messages.
    let unresolved = m.submitted - m.completed - m.rejected;
    assert!(
        m.retries + m.lost_in_flight + m.stale_responses + unresolved > 0,
        "faults must actually disturb traffic (retries {}, lost {}, stale {}, unresolved {unresolved})",
        m.retries,
        m.lost_in_flight,
        m.stale_responses,
    );
    for (shards, threads) in [(2usize, 2usize), (5, 3), (6, 6)] {
        let run = run_traced(77, 800.0, &faults, shards, threads);
        assert_same(
            &base,
            &run,
            &format!("chaos shards={shards} threads={threads}"),
        );
    }
}
