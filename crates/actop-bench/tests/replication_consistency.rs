//! Replication consistency on the scale workload: the replicated path
//! must stay byte-identical across repeated runs and shard splits, a
//! split → drop round-trip must leave the hot actor with exactly one
//! activation, and a fully sampled replicated run must pass every
//! lifecycle invariant (replica reads only inside split → drop windows,
//! one primary per actor, no migration while replicated).
//!
//! Uses the shipped `scale_runtime` replication thresholds verbatim — the
//! point is to pin the bench configuration's behavior, not a synthetic
//! one — so the population sits at 250K players, the smallest sweep point
//! whose top celebrity (~30% of one server) clears the 20% split trigger.

mod common;

use actop_bench::{run_scale, scale_runtime};
use actop_core::experiment::run_steady_state;
use actop_core::RunSummary;
use actop_runtime::{Cluster, ClusterMetrics, TraceConfig};
use actop_sim::{Engine, Nanos};
use actop_verify::{check_events, CheckerConfig};
use actop_workloads::{ScaleConfig, ScaleWorkload};
use common::summary_bits;

const PLAYERS: u64 = 250_000;

/// The replication-specific counters a divergence would hide in even when
/// the latency summary happens to agree.
fn rep_counters(m: &ClusterMetrics) -> [u64; 4] {
    [m.splits, m.replica_drops, m.replica_reads, m.replica_writes]
}

fn celebrity_run(seed: u64, shards: usize) -> (RunSummary, Cluster) {
    let duration = Nanos::from_secs(24);
    let warmup = Nanos::from_secs(10);
    let cfg = ScaleConfig::celebrity(PLAYERS, duration, seed);
    let (summary, _, shell, _) = run_scale(cfg, warmup, scale_runtime(seed, true), shards);
    (summary, shell)
}

#[test]
fn replicated_celebrity_identical_across_runs_and_shard_counts() {
    let (base, base_shell) = celebrity_run(91, 1);
    assert!(
        base_shell.metrics.splits > 0,
        "celebrity never split; the determinism claim would be vacuous"
    );
    assert!(
        base_shell.metrics.replica_reads > 0,
        "splits fired but no read was replica-routed"
    );
    let base_ctr = rep_counters(&base_shell.metrics);

    // Same seed, same shard count: byte-identical.
    let (again, again_shell) = celebrity_run(91, 1);
    assert_eq!(summary_bits(&base), summary_bits(&again), "re-run diverged");
    assert_eq!(base_ctr, rep_counters(&again_shell.metrics));

    // The shard split must not change what happened. 7 clamps to the 8
    // servers unevenly — still a distinct split from 2 and 4.
    for shards in [2usize, 4, 7] {
        let (s, shell) = celebrity_run(91, shards);
        assert_eq!(
            summary_bits(&base),
            summary_bits(&s),
            "RunSummary diverged at shards={shards}"
        );
        assert_eq!(
            base_ctr,
            rep_counters(&shell.metrics),
            "replication counters diverged at shards={shards}"
        );
    }
}

#[test]
fn flash_crowd_split_then_drop_leaves_one_activation() {
    // Flash peaks at duration/4 = 12 s (past the 6 s warmup, so the split
    // is counted) and decays with a 6 s constant, leaving the replicas
    // idle long enough for the drop hysteresis to shed every one of them
    // before the run ends.
    let duration = Nanos::from_secs(48);
    let warmup = Nanos::from_secs(6);
    let cfg = ScaleConfig::flash_crowd(PLAYERS, duration, 92);
    let (_, _, shell, _) = run_scale(cfg, warmup, scale_runtime(92, true), 2);
    let m = &shell.metrics;
    assert!(m.splits > 0, "flash crowd never split");
    assert!(
        m.replica_drops > 0,
        "decayed flash never dropped its replicas"
    );
    assert_eq!(
        m.splits, m.replica_drops,
        "every split must be matched by a drop once the flash decays"
    );
    // Round trip complete: no replica survives anywhere, so every actor —
    // including the flash target — is back to exactly one activation.
    assert_eq!(
        shell.directory.replica_count(),
        0,
        "directory still holds replicas after the flash decayed"
    );
}

#[test]
fn replicated_scale_trace_passes_lifecycle_checks() {
    // Full-sample trace of a replicated celebrity run, fed through the
    // lifecycle checker: proves on a real scale trace (not just synthetic
    // event streams) that reads never land outside a split → drop window,
    // no actor ever has two primaries, and replicated actors never
    // migrate. Runs the legacy single-process backend because its tracer
    // records spans in per-server monotone order, which the checker's
    // stream-order rules require (the sharded backend flushes a request's
    // spans at completion); this is also the only scale-workload coverage
    // the legacy replication path gets.
    let duration = Nanos::from_secs(20);
    let warmup = Nanos::from_secs(6);
    let cfg = ScaleConfig::celebrity(PLAYERS, duration, 93);
    let mut rt = scale_runtime(93, true);
    rt.trace = Some(TraceConfig {
        sample_rate: 1.0,
        seed: 93,
        ..TraceConfig::default()
    });
    let (app, workload) = ScaleWorkload::build(cfg);
    let mut cluster = Cluster::new(rt, app);
    let mut engine: Engine<Cluster> = Engine::new();
    workload.install(&mut engine);
    cluster.install_heartbeats(&mut engine, duration);
    cluster.install_replication(&mut engine, duration);
    let summary = run_steady_state(&mut engine, &mut cluster, warmup, duration - warmup);
    assert!(summary.completed > 0);
    assert_eq!(
        cluster.trace.dropped_spans(),
        0,
        "checking a truncated trace would report phantom violations"
    );
    let report = check_events(cluster.trace.spans(), &CheckerConfig::default());
    assert!(
        report.kind_count("split") > 0,
        "no split recorded; lifecycle coverage would be vacuous"
    );
    assert!(
        report.kind_count("replica-read") > 0,
        "no replica-routed read recorded"
    );
    assert!(
        report.violations.is_empty(),
        "replicated scale trace violated invariants: {:?}",
        &report.violations[..report.violations.len().min(5)]
    );
}
