//! The online-repartitioning bake-off: every selectable policy against
//! the Halo workload and the three adversarial demand families.
//!
//! Each cell runs one `{policy} x {workload}` pair on the legacy engine
//! with a 10 ms migration transfer window, so migrating has a real,
//! measurable price (the transfer-window stall the cost-aware objective
//! charges). The JSON rows record the measurement-window communication
//! (remote/local messages), the migrations and their stall time, the
//! request tail, and a single `total_cost` figure — remote messages plus
//! the stall expressed in remote-message equivalents, the same currency
//! `move_penalty` uses. Two claims are asserted, not just printed:
//!
//! * On repeated-pair churn, the cost-aware exchange must strictly beat
//!   the cost-oblivious one on `total_cost`: the pairs dissolve before a
//!   10 ms transfer amortizes, so the right move is to sit still.
//! * On Halo, the two must land within a few percent of each other: the
//!   Halo graph is stable enough that good moves repay their tax, so the
//!   veto should rarely fire.
//!
//! `ACTOP_REPARTITION_SMOKE=1` shrinks the sweep to the CI probe
//! (exchange policies only, halo + churn, short windows) and writes
//! `BENCH_repartition_smoke.json`. All JSON rows are deterministic; the
//! trailing `{"kind":"engine",...}` row carries wall-clock truth and is
//! excluded from determinism diffs. The smoke probe also writes
//! `BENCH_repartition_gate.json` — the default-policy Halo cell's engine
//! report — which CI feeds to `perf_gate.py` against
//! `scripts/repartition_halo_baseline.json`: the policy plumbing must
//! add no overhead (and change no event count) when the default policy
//! is selected.

use actop_bench::{parallel_map, print_engine_line};
use actop_core::controllers::{install_actop, ActOpConfig, PartitionAgentConfig};
use actop_core::experiment::run_steady_state;
use actop_partition::{MigrationCostConfig, PartitionConfig, RepartitionPolicyKind};
use actop_runtime::{AppLogic, Cluster, RuntimeConfig};
use actop_sim::{Engine, EngineReport, Nanos};
use actop_workloads::halo::HaloConfig;
use actop_workloads::{AdversarialConfig, AdversarialWorkload, DemandPattern, HaloWorkload};

fn repartition_smoke() -> bool {
    std::env::var("ACTOP_REPARTITION_SMOKE").is_ok_and(|v| v == "1")
}

/// One bake-off workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Work {
    Halo,
    Adversarial(DemandPattern),
}

impl Work {
    fn name(&self) -> &'static str {
        match self {
            Work::Halo => "halo",
            Work::Adversarial(p) => p.name(),
        }
    }
}

/// The adversary's rotation period: 2.5 agent intervals, so a policy
/// that chases the demand is always one migration wave behind.
const PERIOD: Nanos = Nanos(2_500_000_000);

fn works(smoke: bool) -> Vec<Work> {
    let hotspot = Work::Adversarial(DemandPattern::RotatingHotspot {
        clique: 64,
        period: PERIOD,
    });
    let churn = Work::Adversarial(DemandPattern::PairChurn { period: PERIOD });
    if smoke {
        vec![Work::Halo, churn]
    } else {
        vec![
            Work::Halo,
            Work::Adversarial(DemandPattern::Ring),
            hotspot,
            churn,
        ]
    }
}

fn policies(smoke: bool) -> Vec<RepartitionPolicyKind> {
    if smoke {
        vec![
            RepartitionPolicyKind::Exchange,
            RepartitionPolicyKind::ExchangeCostAware,
        ]
    } else {
        RepartitionPolicyKind::ALL.to_vec()
    }
}

/// One cell's deterministic outcome.
struct Row {
    policy: RepartitionPolicyKind,
    work: Work,
    json: String,
    total_cost: f64,
    p99_ms: f64,
}

fn run_cell(policy: RepartitionPolicyKind, work: Work, smoke: bool) -> (Row, EngineReport) {
    // Warmup must outlast the cost-aware policy's demand ramp: the aged
    // edge sketches take ~5 intervals to reach steady-state scores, the
    // veto holds until scores clear the migration tax, and the deferred
    // consolidation takes a few more intervals. Measuring before that
    // completes would charge the policy's one-off convergence burst to
    // the steady-state window.
    let (warmup, measure) = if smoke {
        (Nanos::from_secs(12), Nanos::from_secs(8))
    } else {
        (Nanos::from_secs(12), Nanos::from_secs(20))
    };
    let seed = 4242;
    let duration = warmup + measure;

    let mut rt = RuntimeConfig::paper_testbed(seed);
    rt.servers = 8;
    rt.repartition = policy;
    // Migration has a price in this bake-off: the actor is pinned at its
    // source for the transfer window, and every in-window message stalls.
    rt.migration_transfer = Some(Nanos::from_millis(10));
    if !smoke {
        rt.series_bin_ns = 5_000_000_000;
    }

    let (app, halo_workload, adv_workload) = match work {
        Work::Halo => {
            let mut cfg = HaloConfig::paper_scale(2_000, 600.0, duration, seed);
            cfg.game_duration_s = (300.0, 400.0);
            let (app, workload) = HaloWorkload::build(cfg);
            (app as Box<dyn AppLogic>, Some(workload), None)
        }
        Work::Adversarial(pattern) => {
            let (app, workload) =
                AdversarialWorkload::build(AdversarialConfig::bakeoff(pattern, duration, seed));
            (app, None, Some(workload))
        }
    };
    let mut cluster = Cluster::new(rt, app);
    let mut engine: Engine<Cluster> = Engine::new();
    if let Some(w) = &halo_workload {
        w.install(&mut engine);
    }
    if let Some(w) = &adv_workload {
        w.install(&mut engine);
    }
    let agent = PartitionAgentConfig {
        protocol: PartitionConfig {
            candidate_set_size: 64,
            imbalance_tolerance: 32,
            exchange_cooldown_ns: 500_000_000,
            min_total_score: 1,
        },
        interval: Nanos::from_secs(1),
        sketch_age_factor: 0.8,
        policy,
        // A 10 ms transfer is ~55 remote-message equivalents, so the
        // default 8-interval horizon prices a move at ~7 messages per
        // interval: above a churn pair's ~2-message-per-interval savings
        // (veto) and below a Halo game-mate's co-location score (allow).
        cost: MigrationCostConfig::default(),
    };
    install_actop(
        &mut engine,
        8,
        &ActOpConfig {
            partition: Some(agent),
            threads: None,
        },
    );

    // Warm up outside `run_steady_state` so the lifecycle migration
    // counters can be snapshotted at the boundary: `migrations` and
    // `migration_stall_ns` survive the steady-state reset by design.
    engine.run_until(&mut cluster, warmup);
    let warm_migrations = cluster.metrics.migrations;
    let warm_stall_ns = cluster.metrics.migration_stall_ns;
    let summary = run_steady_state(&mut engine, &mut cluster, Nanos::ZERO, measure);
    let report = engine.report();

    let m = &cluster.metrics;
    let migrations = m.migrations - warm_migrations;
    let stall_ns = m.migration_stall_ns - warm_stall_ns;
    // The stall in remote-message equivalents: the same currency the
    // cost-aware objective scores in, so comm and migration tax add.
    let remote_cost_ns = cluster.config.costs.remote_overhead_ns(600).max(1.0);
    let stall_msg_equiv = stall_ns as f64 / remote_cost_ns;
    let total_cost = m.remote_messages as f64 + stall_msg_equiv;

    println!(
        "{:<12} {:<8} | remote {:>8} local {:>8} | migr {:>5} stall {:>8.1}ms | cost {:>10.0} | p99 {:>8.2}ms",
        policy.name(),
        work.name(),
        m.remote_messages,
        m.local_messages,
        migrations,
        stall_ns as f64 / 1e6,
        total_cost,
        summary.p99_ms,
    );
    let json = format!(
        "{{\"policy\":\"{}\",\"workload\":\"{}\",\"remote_msgs\":{},\"local_msgs\":{},\"migrations\":{},\"migration_stall_ms\":{:.3},\"stall_msg_equiv\":{:.1},\"total_cost\":{:.1},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"completed\":{},\"submitted\":{},\"timed_out\":{}}}\n",
        policy.name(),
        work.name(),
        m.remote_messages,
        m.local_messages,
        migrations,
        stall_ns as f64 / 1e6,
        stall_msg_equiv,
        total_cost,
        summary.p50_ms,
        summary.p99_ms,
        summary.completed,
        summary.submitted,
        summary.timed_out,
    );
    (
        Row {
            policy,
            work,
            json,
            total_cost,
            p99_ms: summary.p99_ms,
        },
        report,
    )
}

fn main() {
    let smoke = repartition_smoke();
    let wall_start = std::time::Instant::now();
    println!("== Online repartitioning bake-off ==");
    println!(
        "8 servers, 10ms transfer window, 1s agent interval{}",
        if smoke { " (smoke)" } else { "" }
    );
    println!();

    let cells: Vec<(RepartitionPolicyKind, Work)> = policies(smoke)
        .into_iter()
        .flat_map(|p| works(smoke).into_iter().map(move |w| (p, w)))
        .collect();
    let results = parallel_map(cells, |(policy, work)| run_cell(policy, work, smoke));
    let (rows, reports): (Vec<Row>, Vec<EngineReport>) = results.into_iter().unzip();

    let cost_of = |policy: RepartitionPolicyKind, name: &str| {
        rows.iter()
            .find(|r| r.policy == policy && r.work.name() == name)
            .map(|r| r.total_cost)
            .expect("bake-off cell missing")
    };

    // The headline: against repeated-pair churn the migration tax never
    // amortizes, so the cost-aware exchange must strictly beat the
    // cost-oblivious one on total cost by sitting still.
    let oblivious = cost_of(RepartitionPolicyKind::Exchange, "churn");
    let aware = cost_of(RepartitionPolicyKind::ExchangeCostAware, "churn");
    println!();
    println!("churn total cost: actop {oblivious:.0} vs actop-cost {aware:.0}");
    assert!(
        aware < oblivious,
        "cost-aware exchange must beat cost-oblivious on churn: {aware:.0} vs {oblivious:.0}"
    );

    // On Halo the graph is stable enough for moves to amortize, so the
    // veto should rarely fire and the two must stay within a few percent.
    // The smoke probe's 8 s window leaves both cells with only tens of
    // residual migrations, where a handful of moves swings the ratio, so
    // it gets a proportionally looser bound than the full 20 s window.
    let halo_oblivious = cost_of(RepartitionPolicyKind::Exchange, "halo");
    let halo_aware = cost_of(RepartitionPolicyKind::ExchangeCostAware, "halo");
    let drift = (halo_aware - halo_oblivious).abs() / halo_oblivious.max(1.0);
    let bound = if smoke { 0.5 } else { 0.15 };
    println!(
        "halo total cost: actop {halo_oblivious:.0} vs actop-cost {halo_aware:.0} (drift {:.1}%)",
        drift * 100.0
    );
    assert!(
        drift < bound,
        "cost-aware exchange must stay within noise of cost-oblivious on Halo: drift {:.1}% (bound {:.0}%)",
        drift * 100.0,
        bound * 100.0
    );
    // And both assertions are about cost, not correctness: every cell
    // must still have completed its traffic without timeouts piling up.
    for row in &rows {
        assert!(
            row.p99_ms.is_finite(),
            "{}/{} produced no latency samples",
            row.policy.name(),
            row.work.name()
        );
    }

    let mut json = String::new();
    for row in &rows {
        json.push_str(&row.json);
    }
    println!();
    print_engine_line(&reports);
    let wall_ns = wall_start.elapsed().as_nanos() as u64;
    json.push_str(&format!(
        "{{\"kind\":\"engine\",\"wall_ns\":{wall_ns},\"smoke\":{smoke}}}\n"
    ));
    let out = if smoke {
        "BENCH_repartition_smoke.json"
    } else {
        "BENCH_repartition.json"
    };
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("could not write {out}: {e}");
    }
    println!("wrote {out}");

    if smoke {
        // The perf-gate probe: the default policy's Halo cell, alone, in
        // the first-object shape `perf_gate.py` reads. `events_processed`
        // is deterministic (gated exactly with --check-events);
        // `events_per_sec` is wall-clock and gated with the wide
        // order-of-magnitude floor.
        let (i, _) = rows
            .iter()
            .enumerate()
            .find(|(_, r)| r.policy == RepartitionPolicyKind::Exchange && r.work == Work::Halo)
            .expect("smoke sweep always runs the default-policy Halo cell");
        let report = &reports[i];
        let gate = format!(
            "{{\"policy\":\"actop\",\"workload\":\"halo\",\"events_processed\":{},\"wall_ns\":{},\"cpu_ns\":{},\"events_per_sec\":{:.1}}}\n",
            report.events_processed,
            report.wall_ns,
            report.cpu_ns,
            report.events_per_sec(),
        );
        let gate_out = "BENCH_repartition_gate.json";
        if let Err(e) = std::fs::write(gate_out, &gate) {
            eprintln!("could not write {gate_out}: {e}");
        }
        println!("wrote {gate_out}");
    }
}
