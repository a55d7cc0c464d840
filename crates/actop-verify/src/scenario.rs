//! Randomized full-runtime scenarios with deterministic shrinking.
//!
//! A [`Scenario`] is one seed-derived point in the space the runtime must
//! survive: a uniform open-loop workload, replying directly or fanning
//! out × a random fault plan × any combination of the failure detector
//! and the two ActOp controllers × a thread allocation. [`run_scenario`] executes it end to end with full
//! trace sampling, feeds the recorded spans through the lifecycle checker
//! ([`crate::invariants`]), and cross-checks request conservation against
//! the run summary. A failing scenario is [`shrink`]-able: a greedy,
//! deterministic pass that repeatedly re-runs smaller variants (drop one
//! fault, disable one controller, halve the load, ...) and keeps the
//! smallest one that still fails — the fuzzer's counterexamples are
//! reproducible from `(seed, shrink budget)` alone.

use actop_chaos::{install_plan, FaultPlan};
use actop_core::controllers::{
    install_actop, ActOpConfig, PartitionAgentConfig, ThreadAgentConfig,
};
use actop_core::experiment::{run_steady_state, RunSummary};
use actop_partition::RepartitionPolicyKind;
use actop_runtime::{
    ActorId, AppLogic, Call, Cluster, DetectorConfig, Reaction, ReplicationConfig, RuntimeConfig,
    SnapshotConfig, SplitThresholds, TraceConfig,
};
use actop_sim::{DetRng, Engine, Nanos};
use actop_workloads::uniform::{UniformConfig, UniformWorkload};

use crate::digest::TraceDigest;
use crate::invariants::{check_events, CheckReport, CheckerConfig};

/// Per-request timeout every scenario runs with; bounds how long a
/// request can stay in flight and therefore the conservation slack.
const SCENARIO_TIMEOUT: Nanos = Nanos::from_secs(1);

/// Migration transfer window, so the migration-over-crash invariant has
/// teeth in every scenario.
const SCENARIO_TRANSFER: Nanos = Nanos::from_millis(2);

/// One point in the scenario space. All fields are plain data so shrink
/// candidates are cheap to derive.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Run seed (workload, placement, sampling all derive from it).
    pub seed: u64,
    /// Cluster size.
    pub servers: usize,
    /// Open-loop request rate, requests/s.
    pub request_rate: f64,
    /// Distinct actors.
    pub actors: u64,
    /// Warmup before the measurement window, seconds.
    pub warmup_secs: f64,
    /// Measurement window, seconds (the fault plan's horizon).
    pub measure_secs: f64,
    /// Heartbeat failure detector on?
    pub detector: bool,
    /// Locality partition controller on?
    pub partition_ctl: bool,
    /// Thread-allocation controller on?
    pub thread_ctl: bool,
    /// Hot-actor replication on? Scenarios run it with thresholds far
    /// below any real deployment's so ordinary uniform actors split, and
    /// the replica lifecycle invariants (one primary, reads only inside
    /// split → drop windows, no migration while replicated) see real
    /// split/read/drop traffic interleaved with faults.
    pub replication: bool,
    /// Asynchronous snapshots on? Snapshot scenarios add a write-tagged
    /// request stream (a tenth of the read rate) so rounds capture real
    /// state transitions, and the snapshot lifecycle invariants see
    /// rounds, captures, and restores interleaved with faults.
    pub snapshot: bool,
    /// Snapshot round interval, milliseconds (used only when `snapshot`).
    pub snapshot_interval_ms: u64,
    /// Which repartitioning policy the partition controller drives (used
    /// only when `partition_ctl`). Every selectable policy must survive
    /// the same chaos the default does.
    pub policy: RepartitionPolicyKind,
    /// Initial threads per SEDA stage.
    pub threads_per_stage: usize,
    /// The fault schedule, authored relative to measurement start.
    pub plan: FaultPlan,
    /// Root requests fan out? Each client read then calls 2–3 random
    /// actors and replies after the join, so the checker sees joins,
    /// actor-to-actor responses and (under faults and timeouts) stale
    /// responses, not only direct replies.
    pub fan_out: bool,
}

impl Scenario {
    /// Derives a scenario from a seed; same seed, same scenario.
    pub fn from_seed(seed: u64) -> Scenario {
        let mut rng = DetRng::stream(seed, 0xF0225CEA);
        let servers = 2 + rng.below(4);
        let request_rate = (rng.uniform(200.0, 1_200.0) * 10.0).round() / 10.0;
        let actors = 500 + rng.range_inclusive(0, 4_000);
        let measure_secs = (rng.uniform(4.0, 10.0) * 10.0).round() / 10.0;
        let detector = rng.chance(0.75);
        let partition_ctl = rng.chance(0.5);
        let thread_ctl = rng.chance(0.5);
        let threads_per_stage = 2 + rng.below(7);
        let fault_count = rng.below(8);
        let plan = FaultPlan::random(
            rng.next_u64(),
            servers as u32,
            Nanos::from_secs_f64(measure_secs),
            fault_count,
        );
        // Drawn after every pre-existing field so adding the replication
        // dimension re-rolled nothing else for already-pinned seeds.
        let replication = rng.chance(0.5);
        // Same rule again: the snapshot dimension draws last so every
        // earlier field keeps its pre-snapshot value for a given seed.
        let snapshot = rng.chance(0.5);
        let snapshot_interval_ms = 100 + rng.below(400) as u64;
        // Last-of-all for the same reason: the policy dimension re-rolls
        // nothing an already-pinned seed drew before it existed.
        let policy = RepartitionPolicyKind::ALL[rng.below(RepartitionPolicyKind::ALL.len())];
        // After the policy for the same reason.
        let fan_out = rng.chance(0.5);
        Scenario {
            seed,
            servers,
            request_rate,
            actors,
            warmup_secs: 2.0,
            measure_secs,
            detector,
            partition_ctl,
            thread_ctl,
            replication,
            snapshot,
            snapshot_interval_ms,
            policy,
            threads_per_stage,
            plan,
            fan_out,
        }
    }

    /// Everything needed to reproduce the scenario by hand, including the
    /// fault plan in its serialized form.
    pub fn describe(&self) -> String {
        format!(
            "seed={:#x} servers={} rate={}/s actors={} warmup={}s measure={}s \
             detector={} partition_ctl={} thread_ctl={} replication={} snapshot={} \
             snap_interval={}ms policy={} threads/stage={} fan_out={}\n{}",
            self.seed,
            self.servers,
            self.request_rate,
            self.actors,
            self.warmup_secs,
            self.measure_secs,
            self.detector,
            self.partition_ctl,
            self.thread_ctl,
            self.replication,
            self.snapshot,
            self.snapshot_interval_ms,
            self.policy.name(),
            self.threads_per_stage,
            self.fan_out,
            self.plan.to_text()
        )
    }

    fn warmup(&self) -> Nanos {
        Nanos::from_secs_f64(self.warmup_secs)
    }

    fn measure(&self) -> Nanos {
        Nanos::from_secs_f64(self.measure_secs)
    }

    fn duration(&self) -> Nanos {
        self.warmup() + self.measure()
    }

    /// Shrink candidates, in try order: structurally smaller variants
    /// first (drop one fault event, drop controllers), then load/size
    /// reductions. Deterministic and finite.
    fn candidates(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for i in 0..self.plan.events.len() {
            let mut c = self.clone();
            c.plan.events.remove(i);
            out.push(c);
        }
        for flag in 0..6 {
            let mut c = self.clone();
            let on = match flag {
                0 => std::mem::replace(&mut c.partition_ctl, false),
                1 => std::mem::replace(&mut c.thread_ctl, false),
                2 => std::mem::replace(&mut c.replication, false),
                3 => std::mem::replace(&mut c.snapshot, false),
                4 => std::mem::replace(&mut c.fan_out, false),
                _ => std::mem::replace(&mut c.detector, false),
            };
            if on {
                out.push(c);
            }
        }
        if self.measure_secs > 2.0 {
            let mut c = self.clone();
            c.measure_secs = (self.measure_secs / 2.0).max(2.0);
            out.push(c);
        }
        if self.request_rate > 100.0 {
            let mut c = self.clone();
            c.request_rate = (self.request_rate / 2.0).max(100.0);
            out.push(c);
        }
        if self.actors > 200 {
            let mut c = self.clone();
            c.actors = (self.actors / 2).max(200);
            out.push(c);
        }
        // Servers the plan never touches are dead weight.
        let needed = self
            .plan
            .max_server()
            .map(|m| (m as usize + 1).max(2))
            .unwrap_or(2);
        if needed < self.servers {
            let mut c = self.clone();
            c.servers = needed;
            out.push(c);
        }
        if self.threads_per_stage > 2 {
            let mut c = self.clone();
            c.threads_per_stage = 2;
            out.push(c);
        }
        out
    }
}

/// What one scenario execution produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The steady-state run summary.
    pub summary: RunSummary,
    /// The lifecycle checker's report over the full-sample trace.
    pub report: CheckReport,
    /// Aggregate trace fingerprint (used by determinism cross-checks).
    pub digest: TraceDigest,
    /// Every failed check, human-readable. Empty = the scenario passed.
    pub failures: Vec<String>,
}

impl ScenarioOutcome {
    /// True when every invariant and cross-check held.
    pub fn is_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The tag the uniform workload's client requests carry: a read, and in
/// a fan-out scenario the root of a call tree.
const ROOT_TAG: u32 = 0;

/// The tag of a fan-out call: neither a read (so never replica-routed)
/// nor a snapshot write.
const LEAF_TAG: u32 = 2;

/// The fan-out scenario's application: a root request computes, calls
/// 2–3 random actors with [`LEAF_TAG`] and replies after the join; every
/// other request (a leaf, a snapshot write) computes and replies. Costs
/// and sizes match the uniform workload's.
struct FanOutApp {
    actors: u64,
}

impl AppLogic for FanOutApp {
    fn on_request(&self, _actor: ActorId, tag: u32, rng: &mut DetRng) -> Reaction {
        let cpu_ns = rng.exp(60_000.0);
        if tag != ROOT_TAG {
            return Reaction::reply(cpu_ns, 600);
        }
        let calls = (0..2 + rng.below(2))
            .map(|_| Call {
                to: ActorId(rng.range_inclusive(0, self.actors - 1)),
                tag: LEAF_TAG,
                bytes: 300,
            })
            .collect();
        Reaction::fan_out(cpu_ns, calls, 600)
    }
}

/// Open-loop Poisson stream of write-tagged (tag 1) requests, the state
/// traffic snapshot scenarios run alongside the uniform read workload.
fn write_tick(
    cluster: &mut Cluster,
    engine: &mut Engine<Cluster>,
    actors: u64,
    rate: f64,
    duration: Nanos,
    mut rng: DetRng,
) {
    let actor = ActorId(rng.range_inclusive(0, actors - 1));
    cluster.submit_client_request(engine, actor, 1, 600);
    let gap = Nanos::from_secs_f64(rng.exp(1.0 / rate));
    if engine.now() + gap < duration {
        engine.schedule_after(gap, move |c: &mut Cluster, e| {
            write_tick(c, e, actors, rate, duration, rng);
        });
    }
}

/// Runs a scenario end to end and checks it.
pub fn run_scenario(sc: &Scenario) -> ScenarioOutcome {
    let (uniform_app, workload) = UniformWorkload::build(UniformConfig {
        actors: sc.actors,
        request_rate: sc.request_rate,
        request_bytes: 600,
        reply_bytes: 600,
        cpu_ns: 60_000.0,
        blocking_ns: 0.0,
        duration: sc.duration(),
        seed: sc.seed,
    });
    let app: Box<dyn AppLogic> = if sc.fan_out {
        Box::new(FanOutApp { actors: sc.actors })
    } else {
        uniform_app
    };
    let mut rt = RuntimeConfig::paper_testbed(sc.seed);
    rt.servers = sc.servers;
    rt.initial_threads_per_stage = sc.threads_per_stage;
    rt.request_timeout = Some(SCENARIO_TIMEOUT);
    rt.migration_transfer = Some(SCENARIO_TRANSFER);
    rt.detector = sc.detector.then(DetectorConfig::default);
    rt.replication = sc.replication.then(|| ReplicationConfig {
        // A 40 us split trigger (1e-5 of a 500 ms x 8-core window) sits
        // inside the per-actor demand range the workload draws span
        // (~1.3-72 us per window), so high-rate scenarios split broadly,
        // low-rate ones barely — and the 0.6 drop hysteresis churns
        // replicas against faults, which is exactly what the replica
        // lifecycle invariants want to see.
        thresholds: SplitThresholds {
            capacity_fraction: 1.0e-5,
            ..SplitThresholds::default()
        },
        check_interval: Nanos::from_millis(500),
        cooldown: Nanos::from_secs(1),
        min_load_ns: 20_000,
        ..ReplicationConfig::default()
    });
    // Default masks keep snapshot write-tags (0b10) and replication
    // read-tags (0b1) disjoint, so both dimensions compose in one run.
    rt.snapshot = sc.snapshot.then(|| SnapshotConfig {
        interval: Nanos::from_millis(sc.snapshot_interval_ms),
        capture_window: Nanos::from_millis(sc.snapshot_interval_ms / 2),
        ..SnapshotConfig::default()
    });
    rt.trace = Some(TraceConfig {
        sample_rate: 1.0, // Every request: the checker wants whole lifecycles.
        seed: sc.seed,
        ..TraceConfig::default()
    });
    let mut cluster = Cluster::new(rt, app);
    let mut engine: Engine<Cluster> = Engine::new();
    workload.install(&mut engine);
    if sc.snapshot {
        // The uniform workload is all tag-0 reads; snapshot rounds with
        // nothing to capture would test nothing. Add a write stream at a
        // tenth of the read rate so every round sees live transitions.
        let rate = (sc.request_rate / 10.0).max(50.0);
        let rng = DetRng::stream(sc.seed, 0x57A7E);
        let (actors, duration) = (sc.actors, sc.duration());
        engine.schedule(Nanos::ZERO, move |c: &mut Cluster, e| {
            write_tick(c, e, actors, rate, duration, rng);
        });
    }
    install_actop(
        &mut engine,
        sc.servers,
        &ActOpConfig {
            partition: sc.partition_ctl.then(|| {
                PartitionAgentConfig::with_interval(Nanos::from_millis(500)).with_policy(sc.policy)
            }),
            threads: sc.thread_ctl.then(ThreadAgentConfig::default),
        },
    );
    cluster.install_heartbeats(&mut engine, sc.duration());
    cluster.install_replication(&mut engine, sc.duration());
    cluster.install_snapshots(&mut engine, sc.duration());
    install_plan(&mut engine, &cluster, &sc.plan, sc.warmup());
    let summary = run_steady_state(&mut engine, &mut cluster, sc.warmup(), sc.measure());

    let checker = CheckerConfig {
        crash_windows: sc.plan.crash_windows(
            sc.servers,
            sc.warmup(),
            // Unrecovered crashes stay down past the run's end.
            sc.duration() + Nanos::from_secs(5),
        ),
        migration_transfer: Some(SCENARIO_TRANSFER),
        // Every commit stalls exactly the transfer window, and that
        // window is what the cost-aware scoring prices moves at — so the
        // window IS the budget, with zero headroom.
        stall_budget: Some(SCENARIO_TRANSFER),
        open_at_end_grace: SCENARIO_TIMEOUT * 2,
        ..CheckerConfig::default()
    };
    let report = check_events(cluster.trace.spans(), &checker);
    let digest = TraceDigest::of(cluster.trace.spans());

    let mut failures = Vec::new();
    if cluster.trace.dropped_spans() > 0 {
        // Checking a truncated trace would report phantom violations.
        failures.push(format!(
            "span buffer overflow: {} events dropped",
            cluster.trace.dropped_spans()
        ));
    } else {
        const MAX_REPORTED: usize = 8;
        for v in report.violations.iter().take(MAX_REPORTED) {
            failures.push(v.to_string());
        }
        if report.violations.len() > MAX_REPORTED {
            failures.push(format!(
                "... and {} more violations",
                report.violations.len() - MAX_REPORTED
            ));
        }
    }
    // Conservation: every submitted request completes, is rejected, or
    // times out, up to the in-flight residue a 1 s timeout allows.
    let accounted = summary.completed + summary.rejected + summary.timed_out;
    let in_flight = summary.submitted.saturating_sub(accounted);
    let slack = (sc.request_rate * 2.0 * SCENARIO_TIMEOUT.as_secs_f64()) as u64 + 500;
    if in_flight > slack {
        failures.push(format!(
            "conservation: {} of {} submitted requests unaccounted (> slack {})",
            in_flight, summary.submitted, slack
        ));
    }

    ScenarioOutcome {
        summary,
        report,
        digest,
        failures,
    }
}

/// Greedily shrinks a failing scenario: re-runs candidate reductions and
/// commits to the first one that still fails, until no reduction fails or
/// the re-run budget is spent. Returns the smallest failing scenario found
/// and its outcome (the input itself if nothing smaller fails).
pub fn shrink(sc: &Scenario, budget: usize) -> (Scenario, ScenarioOutcome) {
    let mut current = sc.clone();
    let mut outcome = run_scenario(&current);
    assert!(
        !outcome.is_ok(),
        "shrink called on a passing scenario: {}",
        current.describe()
    );
    let mut runs = 1usize;
    'outer: while runs < budget {
        for cand in current.candidates() {
            if runs >= budget {
                break 'outer;
            }
            let cand_outcome = run_scenario(&cand);
            runs += 1;
            if !cand_outcome.is_ok() {
                current = cand;
                outcome = cand_outcome;
                continue 'outer; // Restart from the smaller scenario.
            }
        }
        break; // No candidate still fails: local minimum.
    }
    (current, outcome)
}

/// Fuzzer step: derive the scenario for `seed`, run it, and — when it
/// fails — shrink it within `shrink_budget` re-runs. Returns the scenario
/// that should be reported (shrunk on failure) and its outcome.
pub fn fuzz_one(seed: u64, shrink_budget: usize) -> (Scenario, ScenarioOutcome) {
    let sc = Scenario::from_seed(seed);
    let outcome = run_scenario(&sc);
    if outcome.is_ok() {
        (sc, outcome)
    } else {
        shrink(&sc, shrink_budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actop_chaos::Fault;

    #[test]
    fn scenarios_are_seed_deterministic() {
        let a = Scenario::from_seed(42);
        let b = Scenario::from_seed(42);
        assert_eq!(a.describe(), b.describe());
        let c = Scenario::from_seed(43);
        assert_ne!(a.describe(), c.describe());
    }

    #[test]
    fn candidates_are_strictly_smaller_variants() {
        let sc = Scenario::from_seed(7);
        let cands = sc.candidates();
        assert!(!cands.is_empty());
        for c in &cands {
            let smaller = c.plan.events.len() < sc.plan.events.len()
                || (!c.partition_ctl && sc.partition_ctl)
                || (!c.thread_ctl && sc.thread_ctl)
                || (!c.snapshot && sc.snapshot)
                || (!c.fan_out && sc.fan_out)
                || (!c.detector && sc.detector)
                || c.measure_secs < sc.measure_secs
                || c.request_rate < sc.request_rate
                || c.actors < sc.actors
                || c.servers < sc.servers
                || c.threads_per_stage < sc.threads_per_stage;
            assert!(smaller, "candidate is not a reduction");
        }
    }

    #[test]
    fn benign_scenario_runs_clean_and_deterministic() {
        let sc = Scenario {
            seed: 11,
            servers: 3,
            request_rate: 300.0,
            actors: 1_000,
            warmup_secs: 1.0,
            measure_secs: 3.0,
            detector: false,
            partition_ctl: false,
            thread_ctl: false,
            replication: false,
            snapshot: false,
            snapshot_interval_ms: 200,
            policy: RepartitionPolicyKind::Exchange,
            threads_per_stage: 4,
            plan: FaultPlan::new("none"),
            fan_out: false,
        };
        let a = run_scenario(&sc);
        assert!(a.is_ok(), "failures: {:?}", a.failures);
        assert!(a.summary.completed > 0);
        let b = run_scenario(&sc);
        assert_eq!(a.digest, b.digest, "same scenario, same trace");
        assert_eq!(a.summary.completed, b.summary.completed);
    }

    #[test]
    fn replication_scenarios_split_and_stay_clean() {
        // High per-actor rate so the scenario thresholds split real
        // actors: the replica invariants must see live split / read /
        // drop traffic, not vacuously pass on an empty event set.
        let sc = Scenario {
            seed: 23,
            servers: 4,
            request_rate: 1_000.0,
            actors: 400,
            warmup_secs: 1.0,
            measure_secs: 4.0,
            detector: false,
            partition_ctl: false,
            thread_ctl: false,
            replication: true,
            snapshot: false,
            snapshot_interval_ms: 200,
            policy: RepartitionPolicyKind::Exchange,
            threads_per_stage: 4,
            plan: FaultPlan::new("none"),
            fan_out: false,
        };
        let out = run_scenario(&sc);
        assert!(out.is_ok(), "failures: {:?}", out.failures);
        assert!(
            out.report.kind_count("split") > 0,
            "no splits fired; thresholds too high for the workload"
        );
        assert!(
            out.report.kind_count("replica-read") > 0,
            "splits fired but no read was replica-routed"
        );
        let b = run_scenario(&sc);
        assert_eq!(out.digest, b.digest, "replication must stay deterministic");
    }

    #[test]
    fn snapshot_scenarios_capture_under_chaos_and_stay_clean() {
        // A crash + recovery over live snapshot rounds: the checker's
        // snapshot lifecycle pass must see real round / capture / write
        // traffic and still come back clean.
        let sc = Scenario {
            seed: 31,
            servers: 3,
            request_rate: 400.0,
            actors: 600,
            warmup_secs: 1.0,
            measure_secs: 4.0,
            detector: false,
            partition_ctl: false,
            thread_ctl: false,
            replication: false,
            snapshot: true,
            snapshot_interval_ms: 150,
            policy: RepartitionPolicyKind::Exchange,
            threads_per_stage: 4,
            plan: FaultPlan::crash_restore(
                1,
                Nanos::from_millis(500),
                Nanos::from_millis(1_500),
                Nanos::from_secs(3),
            ),
            fan_out: false,
        };
        let out = run_scenario(&sc);
        assert!(out.is_ok(), "failures: {:?}", out.failures);
        assert!(
            out.report.kind_count("state-write") > 0,
            "write stream produced no state transitions"
        );
        assert!(
            out.report.kind_count("snap-capture") > 0,
            "snapshot rounds captured nothing"
        );
        let b = run_scenario(&sc);
        assert_eq!(out.digest, b.digest, "snapshots must stay deterministic");
    }

    #[test]
    fn fan_out_scenarios_join_under_chaos_and_stay_clean() {
        // A crash, then a link slower than the 1 s timeout, under fan-out
        // roots: joins complete, die with their server, and time out
        // before their replies cross the slow link, and the checker must
        // see actor-to-actor traffic and stale responses and stay clean.
        let mut plan = FaultPlan::crash_restore(
            1,
            Nanos::from_millis(500),
            Nanos::from_millis(1_500),
            Nanos::from_secs(3),
        );
        plan.push(
            Nanos::from_millis(2_000),
            Fault::Link {
                a: 0,
                b: 2,
                extra_delay: Nanos::from_millis(1_500),
                drop_prob: 0.0,
            },
        );
        plan.push(Nanos::from_millis(2_300), Fault::LinkClear { a: 0, b: 2 });
        let sc = Scenario {
            seed: 37,
            servers: 3,
            request_rate: 400.0,
            actors: 600,
            warmup_secs: 1.0,
            measure_secs: 4.0,
            detector: false,
            partition_ctl: false,
            thread_ctl: false,
            replication: false,
            snapshot: false,
            snapshot_interval_ms: 200,
            policy: RepartitionPolicyKind::Exchange,
            threads_per_stage: 4,
            plan,
            fan_out: true,
        };
        let out = run_scenario(&sc);
        assert!(out.is_ok(), "failures: {:?}", out.failures);
        assert!(out.summary.completed > 0);
        let mut direct = sc.clone();
        direct.fan_out = false;
        let direct = run_scenario(&direct);
        let calls = |o: &ScenarioOutcome| o.report.kind_count("rpc") + o.report.kind_count("lpc");
        assert!(
            calls(&out) > 2 * calls(&direct),
            "fan-out made no more actor calls: {} vs {}",
            calls(&out),
            calls(&direct)
        );
        assert!(
            out.summary.stale_responses > 0,
            "no response outlived its join"
        );
        let b = run_scenario(&sc);
        assert_eq!(out.digest, b.digest, "fan-out must stay deterministic");
    }
}
