//! The repository benchmark: one named workload per invocation, its
//! end-to-end metrics (or, traced, its per-layer metrics) printed as one
//! JSON object on the last line of standard output.
//!
//! Host time (what the person running the simulator waits for) and
//! simulated time (what the modelled service's players feel) are kept
//! apart: `wall_s`, `setup_s` and `peak_rss_mb` are host measurements,
//! `sim_*` are simulated and repeat bit-for-bit for a seed. See
//! `benchmark/README.md` for the workloads and the metric map.

mod compare;
mod metrics;
mod stats;
mod workloads;

use std::ffi::OsString;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use actop_trace::{parse_json, Json};

use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::workloads::{execute, setup_only, Size, Workload, MIB};

const USAGE: &str = "usage:
  benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--traced] [--repeat N]
  benchmark compare <parent.jsonl> <change.jsonl> [--spec BENCHMARK.json]
workloads: halo-actop, counter-saturated, halo-chaos, scale-celebrity";

/// Set-up samples one replication takes at least.
const MIN_SETUPS: usize = 5;

/// Host seconds one replication spends taking extra set-up samples after
/// its run. Some workloads set up in microseconds, where only a median
/// over many samples is steady from process to process.
const SETUP_SAMPLING_S: f64 = 0.3;

/// Seed distance between the replications of one run: replication `i` of
/// seed `s` simulates seed `s + i * REPLICA_STRIDE`.
const REPLICA_STRIDE: u64 = 1_000_000;

/// The simulated end-to-end metrics, which a traced execution must
/// reproduce bit-for-bit.
const SIM_E2E: [&str; 4] = ["sim_p50_ms", "sim_p99_ms", "sim_p999_ms", "success_share"];

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    /// Measurement budget: 0 runs one replication in this process; more
    /// runs `seconds / nominal` replications, each in a fresh process.
    seconds: u64,
    traced: bool,
    /// Run this many child processes on consecutive seeds and summarize.
    repeat: Option<u64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut repeat) = (None, 0, false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            traced = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value:?}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?,
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return Err(format!("--trace {value:?}: must be 0 or 1")),
            },
            "--repeat" => match number()? {
                0 => return Err("--repeat 0: need at least one run".into()),
                n => repeat = Some(n),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        traced,
        repeat,
    })
}

/// Names of `ACTOP_*` environment variables. The bench helpers read
/// several of them, so one left exported would silently change the
/// program being measured; the benchmark refuses to run instead.
fn stray_env(vars: impl IntoIterator<Item = (OsString, OsString)>) -> Vec<String> {
    vars.into_iter()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("ACTOP_"))
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let stray = stray_env(std::env::vars_os());
    if !stray.is_empty() {
        eprintln!(
            "error: unset {} first: ACTOP_* variables change the measured program",
            stray.join(", ")
        );
        return ExitCode::from(2);
    }
    if argv.first().map(String::as_str) == Some("compare") {
        return compare_files(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (w, seed) = (args.workload, args.seed);
    if let Some(n) = args.repeat {
        return repeat(&args, n, &exe);
    }
    let result = if args.traced {
        traced_run(w, seed, Size::Bench, || {
            let (_, result) = run_child(&exe, w, seed, 0, false)?;
            Ok(metric_values(&result))
        })
    } else if args.seconds == 0 {
        single_run(w, seed, Size::Bench)
    } else {
        replicated_run(w, seed, args.seconds, &exe)
    };
    match result {
        Ok((attempted, metrics)) => {
            println!("{}", result_json(true, attempted, 0, &metrics));
            ExitCode::SUCCESS
        }
        Err((attempted, msg)) => {
            eprintln!("error: {} seed {seed}: {msg}", w.name());
            println!("{}", result_json(false, attempted, 1, &[]));
            ExitCode::FAILURE
        }
    }
}

/// Metrics of a run, or the number of executions attempted and the
/// failed check.
type RunResult = Result<(usize, Vec<(&'static str, f64)>), (usize, String)>;

/// One replication in this process: the end-to-end metrics of a single
/// execution, with set-up sampled again afterwards until steady.
fn single_run(w: Workload, seed: u64, size: Size) -> RunResult {
    let run = execute(w, size, seed, false).map_err(|e| (1, e))?;
    let rss_mb = actop_workloads::scale::peak_rss_bytes().unwrap_or(0) as f64 / MIB;
    let mut setups = vec![run.setup.total_s()];
    let sampling = Instant::now();
    while setups.len() < MIN_SETUPS || sampling.elapsed().as_secs_f64() < SETUP_SAMPLING_S {
        setups.push(setup_only(w, size, seed).total_s());
    }
    let sim = |name| {
        run.get(name)
            .expect("every execution reports the sim metrics")
    };
    eprintln!(
        "{} seed {seed}: wall {:.3} s, {} events, {} requests in the measured window",
        w.name(),
        run.wall_s,
        sim("sim.events"),
        sim("sim.requests"),
    );
    let mut metrics = vec![
        ("wall_s", run.wall_s),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", rss_mb),
    ];
    metrics.extend(SIM_E2E.map(|name| (name, sim(name))));
    Ok((1, metrics))
}

/// The measured run: `seconds / nominal` replications of the
/// workload on seeds derived from `seed`, each in a fresh child process
/// (a fresh heap and its own peak RSS), summarized by [`aggregate`].
fn replicated_run(w: Workload, seed: u64, seconds: u64, exe: &Path) -> RunResult {
    let k = (seconds as f64 / w.nominal_s()).floor().max(1.0) as u64;
    let mut runs = Vec::new();
    for i in 0..k {
        let replica_seed = seed.wrapping_add(i.wrapping_mul(REPLICA_STRIDE));
        match run_child(exe, w, replica_seed, 0, false) {
            Ok((_, result)) if result.get("correct") == Some(&Json::Bool(true)) => {
                runs.push(metric_values(&result));
            }
            Ok(_) => {
                return Err((
                    i as usize + 1,
                    format!("replication seed {replica_seed} failed"),
                ))
            }
            Err(e) => return Err((i as usize + 1, e)),
        }
    }
    Ok((runs.len(), aggregate(&runs)))
}

/// Summarizes replications by the median of each metric: robust to a
/// host hiccup in one replication and to one seed's rare simulated tail.
fn aggregate(runs: &[Vec<(String, f64)>]) -> Vec<(&'static str, f64)> {
    END_TO_END
        .iter()
        .map(|m| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|(n, _)| n == m.name).map(|&(_, v)| v))
                .collect();
            (m.name, median(&values))
        })
        .collect()
}

/// The per-layer run: the workload with cost attribution and the tracer
/// on (spans kept in memory, never exported), then the same seed untraced
/// through `baseline`. The traced execution must simulate exactly what
/// the untraced one did; its slowdown is the tracing overhead.
fn traced_run(
    w: Workload,
    seed: u64,
    size: Size,
    baseline: impl FnOnce() -> Result<Vec<(String, f64)>, String>,
) -> RunResult {
    let traced = execute(w, size, seed, true).map_err(|e| (1, e))?;
    let base = baseline().map_err(|e| (2, format!("untraced baseline: {e}")))?;
    let base_value = |name: &str| base.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    for name in SIM_E2E {
        let (b, t) = (base_value(name), traced.get(name));
        if b.map(f64::to_bits) != t.map(f64::to_bits) {
            return Err((
                2,
                format!("traced run diverged: {name} {t:?}, untraced {b:?}"),
            ));
        }
    }
    let base_wall = base_value("wall_s").ok_or((2, "baseline without wall_s".to_string()))?;
    let overhead_pct = (traced.wall_s / base_wall - 1.0) * 100.0;
    eprintln!(
        "{} seed {seed}: traced wall {:.3} s, untraced {base_wall:.3} s",
        w.name(),
        traced.wall_s
    );
    let metrics = PER_LAYER
        .iter()
        .map(|m| match m.name {
            "trace.overhead_pct" => Ok((m.name, overhead_pct)),
            name => traced
                .get(name)
                .map(|v| (name, v))
                .ok_or((2, format!("no value for {name}"))),
        })
        .collect::<Result<_, _>>()?;
    Ok((2, metrics))
}

/// Runs this binary on one seed as a child process and returns its result
/// line, raw and parsed. The child's standard error passes through.
fn run_child(
    exe: &Path,
    w: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(String, Json), String> {
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    let result =
        parse_json(&line).map_err(|_| format!("seed {seed} printed no result ({})", out.status))?;
    Ok((line, result))
}

/// The `metrics` of a result line as (name, value) pairs.
fn metric_values(result: &Json) -> Vec<(String, f64)> {
    match result.get("metrics") {
        Some(Json::Obj(metrics)) => metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => Vec::new(),
    }
}

/// The result line: every value printed with all its digits.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, f64)]) -> String {
    let mut body = String::new();
    for (i, (name, value)) in metrics.iter().enumerate() {
        let unit = unit_of(name).expect("printed metrics are declared");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// Runs `n` invocations on consecutive seeds, one after another so each
/// has the machine to itself, prints each result as a row, and ends with
/// the median and quartiles of every metric.
fn repeat(args: &Args, n: u64, exe: &Path) -> ExitCode {
    let name = args.workload.name();
    let mut correct = true;
    let mut values: Vec<(String, Vec<f64>)> = Vec::new();
    for seed in (0..n).map(|i| args.seed.wrapping_add(i)) {
        let (line, result) = match run_child(exe, args.workload, seed, args.seconds, args.traced) {
            Ok(child) => child,
            Err(e) => {
                eprintln!("error: {e}");
                correct = false;
                continue;
            }
        };
        correct &= result.get("correct") == Some(&Json::Bool(true));
        println!(
            "{{\"workload\": \"{name}\", \"seed\": {seed}, \"trace\": {}, \"result\": {line}}}",
            u8::from(args.traced)
        );
        for (metric, v) in metric_values(&result) {
            match values.iter_mut().find(|(k, _)| *k == metric) {
                Some((_, vs)) => vs.push(v),
                None => values.push((metric, vec![v])),
            }
        }
    }
    let declared = if args.traced { PER_LAYER } else { END_TO_END };
    let mut body = String::new();
    for m in declared {
        let Some((_, vs)) = values.iter().find(|(k, _)| k == m.name) else {
            continue;
        };
        let (q1, q3) = quartiles(vs);
        let sep = if body.is_empty() { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"median\": {}, \"q1\": {q1}, \"q3\": {q3}, \"unit\": \"{}\"}}",
            m.name,
            median(vs),
            m.unit
        );
    }
    println!("{{\"workload\": \"{name}\", \"runs\": {n}, \"correct\": {correct}, \"metrics\": {{{body}}}}}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(argv: &[String]) -> ExitCode {
    let (files, spec) = match argv {
        [p, c] => ([p, c], "BENCHMARK.json"),
        [p, c, flag, spec] if flag == "--spec" => ([p, c], spec.as_str()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let report = read(spec).and_then(|spec| {
        let (parent, change) = (read(files[0])?, read(files[1])?);
        compare::compare(&spec, &parent, &change)
    });
    match report {
        Ok((text, worse)) => {
            print!("{text}");
            if worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn stray_actop_variables_are_named() {
        let vars = [("PATH", "/bin"), ("ACTOP_SHARDS", "4"), ("MY_ACTOP_X", "1")]
            .map(|(k, v)| (OsString::from(k), OsString::from(v)));
        assert_eq!(stray_env(vars), vec!["ACTOP_SHARDS".to_string()]);
        assert!(stray_env(Vec::new()).is_empty());
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let a = args("--workload halo-chaos --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::HaloChaos,
                seed: 3,
                seconds: 10,
                traced: true,
                repeat: None,
            }
        );
        let b = args("--workload counter-saturated --traced --repeat 4").unwrap();
        assert_eq!((b.seed, b.traced, b.repeat), (401, true, Some(4)));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("--workload halo-actop --trace 2").is_err());
        assert!(args("--workload halo-actop --seed -1").is_err());
        assert!(args("--workload halo-actop --repeat 0").is_err());
        assert!(args("--workload halo-actop --seconds").is_err());
    }

    #[test]
    fn replications_report_medians() {
        let run = |wall: f64, setup: f64| -> Vec<(String, f64)> {
            [
                ("wall_s", wall),
                ("setup_s", setup),
                ("peak_rss_mb", setup),
                ("sim_p50_ms", wall),
                ("sim_p99_ms", wall),
                ("sim_p999_ms", wall),
                ("success_share", 1.0),
            ]
            .map(|(n, v)| (n.to_string(), v))
            .to_vec()
        };
        let summary = aggregate(&[run(1.0, 5.0), run(2.0, 1.0), run(60.0, 2.0)]);
        let get = |name| summary.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("wall_s"), 2.0);
        assert_eq!(get("sim_p99_ms"), 2.0);
        assert_eq!(get("setup_s"), 2.0);
        assert_eq!(get("peak_rss_mb"), 2.0);
        assert_eq!(get("success_share"), 1.0);
    }

    /// Every workload prints exactly the declared metrics, untraced and
    /// traced, and checks its outputs (run at the shrunken size).
    #[test]
    fn runs_print_exactly_the_declared_metrics() {
        for w in Workload::ALL {
            let names = |r: RunResult| -> Vec<&str> {
                let (attempted, metrics) = r.unwrap_or_else(|(_, e)| panic!("{}: {e}", w.name()));
                assert!(attempted >= 1);
                metrics.iter().map(|(n, _)| *n).collect()
            };
            let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            let layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names(single_run(w, 9, Size::Tiny)), e2e);
            let baseline = || match single_run(w, 9, Size::Tiny) {
                Ok((_, m)) => Ok(m.iter().map(|&(n, v)| (n.to_string(), v)).collect()),
                Err((_, e)) => Err(e),
            };
            assert_eq!(names(traced_run(w, 9, Size::Tiny, baseline)), layer);
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_json(true, 2, 0, &[("wall_s", 1.25), ("sim_p50_ms", 0.5)]);
        let doc = parse_json(&line).unwrap();
        let Json::Obj(map) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(metric_values(&doc)[0], ("sim_p50_ms".to_string(), 0.5));
    }
}
