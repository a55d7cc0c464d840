//! §6.1 peak throughput: partitioning doubles the sustainable load.
//!
//! The paper saturates the cluster by raising the request rate until
//! servers start rejecting: the random baseline starts dropping at ~6K
//! requests/s (80% CPU) while ActOp reaches ~12K — a 2× peak-throughput
//! gain from the CPU freed by locality.

use actop_bench::{full_scale, run_halo_sweep, HaloCell, HaloScenario};
use actop_core::controllers::ActOpConfig;
use actop_sim::{EngineReport, Nanos};

/// `ACTOP_PEAK_SMOKE=1` shrinks the ladder to a CI-sized probe (two load
/// levels, short windows, small population) and writes
/// `BENCH_engine_smoke.json` instead of `BENCH_engine.json` — the input
/// of the `scripts/perf_gate.py` regression gate.
fn peak_smoke() -> bool {
    std::env::var("ACTOP_PEAK_SMOKE").is_ok_and(|v| v == "1")
}

/// A load level is sustained when overload shedding stays negligible,
/// goodput tracks the offered rate (neither starving nor draining a
/// backlog), and queueing has not gone pathological.
fn sustained(summary: &actop_core::RunSummary, offered: f64) -> bool {
    let shed = summary.rejected as f64 / summary.submitted.max(1) as f64;
    shed < 0.01
        && summary.throughput_per_s > 0.95 * offered
        && summary.throughput_per_s < 1.05 * offered
        && summary.p99_ms < 1_000.0
}

fn main() {
    println!("== Peak throughput: raise load until servers reject ==");
    println!("paper: baseline saturates ~6K req/s; ActOp sustains ~12K (2x)");
    println!();
    let loads: Vec<f64> = if peak_smoke() {
        vec![2_000.0, 4_000.0]
    } else {
        (1..=9).map(|i| i as f64 * 2_000.0).collect()
    };
    // The whole (variant × load) ladder runs in parallel; the sequential
    // early-break at the first saturated level becomes an early break in
    // the in-order printing walk below, so the output is identical.
    let mut cells = Vec::new();
    for kind in 0..2 {
        for (i, &load) in loads.iter().enumerate() {
            let mut scenario = HaloScenario::paper(load, 190 + i as u64);
            // Saturation probes can be shorter than latency measurements.
            if !full_scale() {
                scenario.warmup = Nanos::from_secs(30);
                scenario.measure = Nanos::from_secs(30);
            }
            if peak_smoke() {
                scenario.players = 2_000;
                scenario.warmup = Nanos::from_secs(5);
                scenario.measure = Nanos::from_secs(10);
            }
            let actop = if kind == 0 {
                ActOpConfig::default()
            } else {
                scenario.actop(true, true)
            };
            cells.push(HaloCell {
                label: format!("{kind}@{load}"),
                scenario,
                actop,
            });
        }
    }
    let results = run_halo_sweep(cells);
    let mut engine_total = EngineReport::default();
    for r in &results {
        engine_total.merge(&r.report);
    }
    let mut peaks = [0.0f64; 2];
    for (kind, label) in [(0, "baseline"), (1, "ActOp (partition+threads)")] {
        println!("--- {label} ---");
        for (i, &load) in loads.iter().enumerate() {
            let summary = &results[kind * loads.len() + i].summary;
            let ok = sustained(summary, load);
            println!(
                "offered {load:>6}/s: goodput {:>6.0}/s shed {:>5.2}% cpu {:>5.1}% p99 {:>8.1}ms {}",
                summary.throughput_per_s,
                100.0 * summary.rejected as f64 / summary.submitted.max(1) as f64,
                summary.cpu_utilization * 100.0,
                summary.p99_ms,
                if ok { "SUSTAINED" } else { "SATURATED" }
            );
            if ok {
                peaks[kind] = load;
            } else {
                break;
            }
        }
        println!();
    }
    println!(
        "peak sustained: baseline {:.0}/s vs ActOp {:.0}/s ({:.1}x)",
        peaks[0],
        peaks[1],
        peaks[1] / peaks[0].max(1.0)
    );
    println!("{}", engine_total.line());
    let mut json = format!(
        "{{\"events_processed\":{},\"cancels\":{},\"reschedules\":{},\"peak_pending\":{},\"wall_ns\":{},\"cpu_ns\":{},\"events_per_sec\":{:.1}}}\n",
        engine_total.events_processed,
        engine_total.cancels,
        engine_total.reschedules,
        engine_total.peak_pending,
        engine_total.wall_ns,
        engine_total.cpu_ns,
        engine_total.events_per_sec(),
    );
    json.push_str(&shard_scaling_rows());
    let out = if peak_smoke() {
        "BENCH_engine_smoke.json"
    } else {
        "BENCH_engine.json"
    };
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("could not write {out}: {e}");
    }
}

/// The headline shard-scaling A/B: one fixed Halo cell run on the sharded
/// conservative-parallel backend at increasing shard counts, one JSON row
/// per count. Shard workers use the whole machine, so the ladder runs
/// sequentially (one run at a time) for honest wall-clock numbers.
fn shard_scaling_rows() -> String {
    use actop_bench::run_halo_sharded;
    let mut out = String::new();
    println!();
    println!("-- sharded engine scaling (same scenario per row) --");
    let mut scenario = HaloScenario::paper(6_000.0, 42);
    if !full_scale() {
        scenario.warmup = Nanos::from_secs(30);
        scenario.measure = Nanos::from_secs(30);
    }
    let ladder: &[usize] = if peak_smoke() {
        scenario.players = 2_000;
        scenario.warmup = Nanos::from_secs(5);
        scenario.measure = Nanos::from_secs(10);
        &[1, 2]
    } else {
        &[1, 2, 4, 8]
    };
    let actop = scenario.actop(true, true);
    let mut base_rate = 0.0f64;
    for &shards in ladder {
        let (_, report, _) = run_halo_sharded(&scenario, &actop, shards);
        let rate = report.events_per_sec();
        if shards == 1 {
            base_rate = rate;
        }
        let speedup = rate / base_rate.max(1.0);
        let windows = report.windows.max(1) as f64;
        println!(
            "shards={shards}: {:.2}M events in {:.2}s wall ({:.2}s cpu) = {:.2}M events/s ({speedup:.2}x), {:.1} events/window, {:.0}% of windows inline",
            report.events_processed as f64 / 1e6,
            report.wall_ns as f64 / 1e9,
            report.cpu_ns as f64 / 1e9,
            rate / 1e6,
            report.events_processed as f64 / windows,
            report.inline_windows as f64 / windows * 100.0,
        );
        out.push_str(&format!(
            "{{\"shards\":{shards},\"events_processed\":{},\"wall_ns\":{},\"cpu_ns\":{},\"events_per_sec\":{rate:.1},\"speedup_vs_1shard\":{speedup:.2},\"windows\":{},\"inline_windows\":{},\"wait_ns\":{}}}\n",
            report.events_processed,
            report.wall_ns,
            report.cpu_ns,
            report.windows,
            report.inline_windows,
            report.wait_ns,
        ));
    }
    out
}
