//! Validates a recorded trace file (CI runs this against short
//! instrumented benches).
//!
//! Two formats, auto-detected by the first byte:
//!
//! * Chrome trace-event JSON (`{`...) — structural validation only
//!   (well-formed JSON, required fields, monotone timestamps per track).
//! * `.spans.jsonl` span dumps — full lifecycle invariant checking via
//!   `actop-verify` (per-server monotone time, exactly one terminal per
//!   admitted request, forward-hop cap, and — when a fault plan is
//!   supplied — no service inside a crash window and no migration
//!   transfer over an endpoint crash).
//!
//! Usage:
//!
//! ```text
//! check_trace <trace.json | trace.spans.jsonl> [options]
//!
//! Options (JSONL mode only):
//!   --plan <file>      fault-plan text (`FaultPlan::to_text` format)
//!   --base-ns <n>      sim time the plan was installed at (default 0)
//!   --horizon-ns <n>   close unrecovered crashes here (default: last
//!                      event time + grace)
//!   --servers <n>      cluster size (default: plan's max server + 1)
//!   --transfer-ns <n>  migration transfer window (default none)
//!   --stall-budget-ns <n>  scored amortization budget per migration:
//!                      flag any commit whose span-measured stall (span
//!                      width, else the transfer window) exceeds it
//!                      (default none)
//!   --grace-ns <n>     open-lifecycle grace at end of trace (default 5 s)
//! ```
//!
//! Exits nonzero if the file is missing, malformed, or violates any
//! invariant; violations are printed one per line.

use std::process::ExitCode;

use actop_chaos::FaultPlan;
use actop_sim::Nanos;
use actop_trace::validate_chrome_trace;
use actop_verify::{check_jsonl, CheckerConfig};

struct Options {
    path: String,
    plan: Option<String>,
    base_ns: u64,
    horizon_ns: Option<u64>,
    servers: Option<usize>,
    transfer_ns: Option<u64>,
    stall_budget_ns: Option<u64>,
    grace_ns: Option<u64>,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        path: String::new(),
        plan: None,
        base_ns: 0,
        horizon_ns: None,
        servers: None,
        transfer_ns: None,
        stall_budget_ns: None,
        grace_ns: None,
    };
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--plan" => opts.plan = Some(value(&mut args, "--plan")?),
            "--base-ns" => {
                opts.base_ns = value(&mut args, "--base-ns")?
                    .parse()
                    .map_err(|e| format!("--base-ns: {e}"))?;
            }
            "--horizon-ns" => {
                opts.horizon_ns = Some(
                    value(&mut args, "--horizon-ns")?
                        .parse()
                        .map_err(|e| format!("--horizon-ns: {e}"))?,
                );
            }
            "--servers" => {
                opts.servers = Some(
                    value(&mut args, "--servers")?
                        .parse()
                        .map_err(|e| format!("--servers: {e}"))?,
                );
            }
            "--transfer-ns" => {
                opts.transfer_ns = Some(
                    value(&mut args, "--transfer-ns")?
                        .parse()
                        .map_err(|e| format!("--transfer-ns: {e}"))?,
                );
            }
            "--stall-budget-ns" => {
                opts.stall_budget_ns = Some(
                    value(&mut args, "--stall-budget-ns")?
                        .parse()
                        .map_err(|e| format!("--stall-budget-ns: {e}"))?,
                );
            }
            "--grace-ns" => {
                opts.grace_ns = Some(
                    value(&mut args, "--grace-ns")?
                        .parse()
                        .map_err(|e| format!("--grace-ns: {e}"))?,
                );
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path if opts.path.is_empty() => opts.path = path.to_string(),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    if opts.path.is_empty() {
        return Err("usage: check_trace <trace.json | trace.spans.jsonl> [options]".into());
    }
    Ok(opts)
}

fn check_spans(text: &str, opts: &Options) -> Result<(), String> {
    let mut cfg = CheckerConfig::default();
    if let Some(grace) = opts.grace_ns {
        cfg.open_at_end_grace = Nanos(grace);
    }
    cfg.migration_transfer = opts.transfer_ns.map(Nanos);
    cfg.stall_budget = opts.stall_budget_ns.map(Nanos);
    if let Some(plan_path) = &opts.plan {
        let plan_text = std::fs::read_to_string(plan_path)
            .map_err(|e| format!("cannot read {plan_path}: {e}"))?;
        let plan = FaultPlan::from_text(&plan_text)?;
        let servers = opts
            .servers
            .or_else(|| plan.max_server().map(|m| m as usize + 1))
            .unwrap_or(0);
        let horizon = opts.horizon_ns.map(Nanos).unwrap_or(Nanos::MAX);
        cfg.crash_windows = plan.crash_windows(servers, Nanos(opts.base_ns), horizon);
    }
    let report = check_jsonl(text, &cfg)?;
    for v in &report.violations {
        eprintln!("  {v}");
    }
    let kinds: Vec<String> = report
        .kind_counts
        .iter()
        .filter(|(_, c)| *c > 0)
        .map(|(n, c)| format!("{n}={c}"))
        .collect();
    println!(
        "{}: {} — {} events, {} lifecycles, {} terminals, {} in flight at end [{}]",
        opts.path,
        if report.is_clean() { "OK" } else { "INVALID" },
        report.events,
        report.lifecycles,
        report.terminals,
        report.in_flight_at_end,
        kinds.join(" ")
    );
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("{} invariant violations", report.violations.len()))
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("check_trace: {err}");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(&opts.path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("check_trace: cannot read {}: {err}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    // Chrome exports are one JSON object; span dumps are JSONL records.
    if text.trim_start().starts_with('{') && !text.trim_start().starts_with("{\"req\"") {
        match validate_chrome_trace(&text) {
            Ok(stats) => {
                println!(
                    "{}: OK — {} events ({} spans, {} instants, {} counters) on {} tracks",
                    opts.path,
                    stats.total_events,
                    stats.complete_spans,
                    stats.instants,
                    stats.counters,
                    stats.tracks
                );
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("check_trace: {}: INVALID — {err}", opts.path);
                ExitCode::FAILURE
            }
        }
    } else {
        match check_spans(&text, &opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("check_trace: {}: {err}", opts.path);
                ExitCode::FAILURE
            }
        }
    }
}
