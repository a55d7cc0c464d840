//! Streaming lifecycle-invariant checker over recorded trace events.
//!
//! The runtime's tracer records every observable step of a request's life
//! in simulation time; this module replays a recorded event stream (a live
//! `Tracer`'s spans or a re-imported `.spans.jsonl` file) and enforces the
//! invariants the runtime promises:
//!
//! * **Per-server monotone sim-time** — events are recorded in global
//!   event-loop order, so each server's stream is monotone in its record
//!   time (span end for queue/service spans, span *start* for network
//!   spans, which are recorded at send time with a known arrival).
//! * **Well-formed, well-nested spans** — `t_start ≤ t_end` everywhere;
//!   no activity for a request precedes its admission, and for requests
//!   that complete, none follows the completion.
//! * **Exactly one terminal per admitted lifecycle** — every `admit`
//!   reaches exactly one of done/timeout/shed before the request id is
//!   admitted again (ids are slab handles and recur); requests still in
//!   flight near the end of the trace are exempted by a grace window.
//! * **No work on a dead server** — queue-wait and service spans never
//!   overlap a crash window of the installed
//!   [`FaultPlan`](actop_chaos::FaultPlan) (crashes wipe queues and
//!   cancel in-progress work).
//! * **Migration transfer windows never overlap an endpoint crash** — a
//!   committed migration implies both endpoints were up for the whole
//!   transfer window (crashes abort in-flight migrations).
//! * **Migration stalls stay inside the scored amortization budget** —
//!   when the run's repartitioning policy priced moves (the cost-aware
//!   objective charges each move its measured stall and requires the
//!   gain to amortize it), no committed migration's span-measured stall
//!   may exceed the budget the scoring assumed. A longer stall means the
//!   move was committed on stale pricing.
//! * **Forward-hop bound** — a lifecycle accumulates at most
//!   [`MAX_FORWARD_HOPS`] re-routes (the runtime cuts forwarding loops).
//! * **Replica lifecycle discipline** — hot-actor replication keeps at
//!   most one activation per actor per server and exactly one primary:
//!   a split never lands a replica on the primary's server or a server
//!   already holding one; every split of a replicated actor names the
//!   same primary (the primary is pinned while replicas are live);
//!   replicated actors never migrate; drops only remove live replicas;
//!   and every replica-routed read falls inside a split → drop replica
//!   lifetime. Replica events from different servers interleave across
//!   shard-merged traces, so this family runs as a second, time-ordered
//!   pass.
//! * **Snapshot & stateful-recovery discipline** — per-actor state
//!   transitions are exactly `1..k` with no gap (lost write) or repeat
//!   (duplicated write), even across crashes and restores; a restore's
//!   version always equals the actor's last written version (the journal
//!   reproduces exactly the executed transitions) and names either the
//!   journal (round 0) or a round that committed; snapshot rounds never
//!   overlap, markers and captures land only inside their open round,
//!   each round captures an actor at most once, and complete/abort each
//!   close a round that actually began. Runs as a third time-ordered
//!   pass for the same shard-merge reason.
//!
//! The checker is a library first (tests call [`check_events`] on live
//! tracers) and a CLI second (the `check_trace` binary feeds it JSONL).

use std::collections::{HashMap, HashSet};
use std::fmt;

use actop_chaos::CrashWindows;
use actop_runtime::MAX_FORWARD_HOPS;
use actop_sim::Nanos;
use actop_trace::{parse_spans_jsonl, HopKind, SpanEvent, NO_SERVER};

/// Checker parameters. [`Default`] checks a fault-free, migration-instant
/// trace with the runtime's forward-hop cap and a 5 s in-flight grace.
#[derive(Debug, Clone)]
pub struct CheckerConfig {
    /// Per-server down windows of the fault plan driven during the run
    /// (empty = fault-free).
    pub crash_windows: CrashWindows,
    /// The run's `RuntimeConfig::migration_transfer`, if set: a committed
    /// migration at `t` implies both endpoints were up over `(t-Δ, t)`.
    pub migration_transfer: Option<Nanos>,
    /// The scored amortization budget for one migration's stall, if the
    /// run's repartitioning policy priced its moves: the largest
    /// transfer-window stall a single committed move may impose. The
    /// cost-aware objective charges each move the measured per-move
    /// stall, so a run's budget is the transfer window it was scored
    /// under (plus whatever headroom the caller grants). A migration
    /// span's stall is its own width when the span carries a window,
    /// else [`CheckerConfig::migration_transfer`]. `None` disables the
    /// rule.
    pub stall_budget: Option<Nanos>,
    /// Maximum re-routes per lifecycle.
    pub max_forward_hops: u32,
    /// Lifecycles still open at end-of-trace are violations only when
    /// their admission is older than this, measured from the last record
    /// time in the trace. Runs stop at a horizon with requests genuinely
    /// in flight; anything older than the run's timeout must have
    /// produced a terminal. Set at least `2 × request_timeout`.
    pub open_at_end_grace: Nanos,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            crash_windows: CrashWindows::default(),
            migration_transfer: None,
            stall_budget: None,
            max_forward_hops: MAX_FORWARD_HOPS as u32,
            open_at_end_grace: Nanos::from_secs(5),
        }
    }
}

/// One invariant violation, pinned to the offending event.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Index of the event in recording order (`usize::MAX` for
    /// end-of-trace findings).
    pub index: usize,
    /// The request (or actor, for migration rules) involved.
    pub request: u64,
    /// Stable rule identifier.
    pub rule: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.index == usize::MAX {
            write!(
                f,
                "[end-of-trace] {} req={}: {}",
                self.rule, self.request, self.detail
            )
        } else {
            write!(
                f,
                "[event {}] {} req={}: {}",
                self.index, self.rule, self.request, self.detail
            )
        }
    }
}

/// The checker's verdict over one event stream.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Events examined.
    pub events: usize,
    /// Request lifecycles opened by an admit.
    pub lifecycles: usize,
    /// Terminal events consumed (done / timeout / shed).
    pub terminals: usize,
    /// Lifecycles open at end-of-trace inside the grace window (benign
    /// in-flight residue).
    pub in_flight_at_end: usize,
    /// Events per [`HopKind`], in `HopKind::ALL` order.
    pub kind_counts: Vec<(&'static str, usize)>,
    /// All violations found, in stream order.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Count of a kind by its display name (0 for unknown names).
    pub fn kind_count(&self, name: &str) -> usize {
        self.kind_counts
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, c)| c)
            .unwrap_or(0)
    }
}

/// The record time of an event: the sim time the runtime emitted it.
/// Queue-wait and service spans are recorded at their end (starts are
/// backdated); network spans are recorded at send time with a known
/// arrival; instants have `t_start == t_end`.
fn record_time(ev: &SpanEvent) -> Nanos {
    match ev.kind {
        HopKind::Network => ev.t_start,
        _ => ev.t_end,
    }
}

/// True for kinds whose `request` field is a client-request id (as opposed
/// to lifecycle events, which carry actor or server ids there).
fn is_request_scoped(kind: HopKind) -> bool {
    !kind.is_lifecycle()
}

#[derive(Debug, Clone, Copy)]
struct Life {
    admitted_at: Nanos,
    admit_index: usize,
    forwards: u32,
    /// Latest activity end seen for this lifecycle.
    last_activity: Nanos,
}

/// Replays the replica lifecycle events in time order and enforces the
/// multi-activation discipline: one primary, one activation per server,
/// reads only inside live replica windows. A directory repair
/// ([`HopKind::DirRepair`]) closes the actor's replica window implicitly:
/// the repair drops the primary's entry and the replica set dies with it.
///
/// Shard-merged traces concatenate per-shard streams, so cross-server
/// replica events are not in stream order; this pass sorts by record
/// time, breaking ties so state-opening events (splits) apply before
/// reads and reads before state-closing events (drops).
fn check_replica_lifecycles(events: &[SpanEvent], violations: &mut Vec<Violation>) {
    fn phase(kind: HopKind) -> Option<u8> {
        match kind {
            HopKind::Split => Some(0),
            HopKind::ReplicaRead => Some(1),
            HopKind::ReplicaDrop => Some(2),
            HopKind::DirRepair => Some(2),
            HopKind::Migration => Some(3),
            _ => None,
        }
    }
    let mut ordered: Vec<(usize, u8)> = events
        .iter()
        .enumerate()
        .filter_map(|(i, ev)| phase(ev.kind).map(|p| (i, p)))
        .collect();
    // Migrations without any split in the trace have nothing to violate.
    if !ordered.iter().any(|&(_, p)| p == 0) {
        return;
    }
    ordered.sort_by_key(|&(i, p)| (record_time(&events[i]), p, i));

    // actor -> (pinned primary, live replica servers).
    let mut live: HashMap<u64, (u32, Vec<u32>)> = HashMap::new();
    for (i, _) in ordered {
        let ev = &events[i];
        match ev.kind {
            HopKind::Split => {
                let actor = ev.request;
                let replica = ev.aux as u32;
                if replica == ev.server {
                    violations.push(Violation {
                        index: i,
                        request: actor,
                        rule: "replica-on-primary",
                        detail: format!(
                            "split placed a replica on the primary's server {}",
                            ev.server
                        ),
                    });
                    continue;
                }
                match live.get_mut(&actor) {
                    Some((primary, reps)) => {
                        if *primary != ev.server {
                            violations.push(Violation {
                                index: i,
                                request: actor,
                                rule: "split-primary-conflict",
                                detail: format!(
                                    "split names primary {} but replicas are live under primary {}",
                                    ev.server, primary
                                ),
                            });
                        } else if reps.contains(&replica) {
                            violations.push(Violation {
                                index: i,
                                request: actor,
                                rule: "replica-duplicate",
                                detail: format!("server {replica} already holds a live replica"),
                            });
                        } else {
                            reps.push(replica);
                        }
                    }
                    None => {
                        live.insert(actor, (ev.server, vec![replica]));
                    }
                }
            }
            HopKind::ReplicaDrop => {
                let actor = ev.request;
                let replica = ev.aux as u32;
                let emptied = match live.get_mut(&actor) {
                    Some((_, reps)) if reps.contains(&replica) => {
                        reps.retain(|&r| r != replica);
                        reps.is_empty()
                    }
                    _ => {
                        violations.push(Violation {
                            index: i,
                            request: actor,
                            rule: "drop-without-replica",
                            detail: format!("no live replica on server {replica}"),
                        });
                        false
                    }
                };
                if emptied {
                    // The actor is unsplit again: it may migrate and later
                    // re-split under a new primary.
                    live.remove(&actor);
                }
            }
            HopKind::DirRepair => {
                // A directory repair drops the primary's entry, and the
                // replica set — read-only clones of the lost state — dies
                // with it. The repair event itself closes the replica
                // window; the actor may later re-split under a new
                // primary.
                live.remove(&ev.request);
            }
            HopKind::ReplicaRead => {
                let actor = ev.aux;
                let hosted = live
                    .get(&actor)
                    .is_some_and(|(_, reps)| reps.contains(&ev.server));
                if !hosted {
                    violations.push(Violation {
                        index: i,
                        request: ev.request,
                        rule: "replica-read-outside-window",
                        detail: format!(
                            "read of actor {actor} at server {} with no live replica there",
                            ev.server
                        ),
                    });
                }
            }
            HopKind::Migration => {
                if let Some((_, reps)) = live.get(&ev.request) {
                    violations.push(Violation {
                        index: i,
                        request: ev.request,
                        rule: "migration-of-replicated",
                        detail: format!(
                            "actor migrated with {} live replica(s); the primary is pinned \
                             while replicas are live",
                            reps.len()
                        ),
                    });
                }
            }
            _ => unreachable!("phase() only admits replica lifecycle kinds"),
        }
    }
}

/// Replays the snapshot lifecycle events in time order and enforces the
/// stateful-recovery discipline: contiguous per-actor transitions,
/// restores that reproduce exactly the executed writes from committed
/// rounds only, and well-formed non-overlapping snapshot rounds.
///
/// Like the replica pass, this sorts by record time (shard-merged traces
/// interleave streams), breaking ties causally: a round begins before its
/// markers, a touch restores before it captures before it writes, and a
/// round's sweep captures apply before its commit.
fn check_snapshot_lifecycles(events: &[SpanEvent], violations: &mut Vec<Violation>) {
    fn phase(kind: HopKind) -> Option<u8> {
        match kind {
            HopKind::SnapBegin => Some(0),
            HopKind::SnapMarker => Some(1),
            HopKind::Restore => Some(2),
            HopKind::SnapCapture => Some(3),
            HopKind::StateWrite => Some(4),
            HopKind::SnapComplete => Some(5),
            HopKind::SnapAbort => Some(6),
            _ => None,
        }
    }
    let mut ordered: Vec<(usize, u8)> = events
        .iter()
        .enumerate()
        .filter_map(|(i, ev)| phase(ev.kind).map(|p| (i, p)))
        .collect();
    if ordered.is_empty() {
        return;
    }
    ordered.sort_by_key(|&(i, p)| (record_time(&events[i]), p, i));

    // Capture and restore events pack `(round << 40) | version` in aux.
    const VERSION_MASK: u64 = (1 << 40) - 1;
    let mut open: Option<u64> = None;
    let mut completed: HashSet<u64> = HashSet::new();
    // (round, actor) pairs captured — first-wins, never twice.
    let mut captured: HashSet<(u64, u64)> = HashSet::new();
    // actor -> last written transition counter.
    let mut writes: HashMap<u64, u64> = HashMap::new();
    for (i, _) in ordered {
        let ev = &events[i];
        match ev.kind {
            HopKind::SnapBegin => {
                if let Some(other) = open {
                    violations.push(Violation {
                        index: i,
                        request: ev.request,
                        rule: "snap-overlapping-rounds",
                        detail: format!("round began while round {other} is still open"),
                    });
                }
                open = Some(ev.request);
            }
            HopKind::SnapMarker => {
                if open != Some(ev.request) {
                    violations.push(Violation {
                        index: i,
                        request: ev.request,
                        rule: "snap-marker-outside-round",
                        detail: format!(
                            "server {} marked for round {} which is not open",
                            ev.server, ev.request
                        ),
                    });
                }
            }
            HopKind::SnapCapture => {
                let (round, version) = (ev.aux >> 40, ev.aux & VERSION_MASK);
                if open != Some(round) {
                    violations.push(Violation {
                        index: i,
                        request: ev.request,
                        rule: "snap-capture-outside-round",
                        detail: format!("capture names round {round} which is not open"),
                    });
                } else if !captured.insert((round, ev.request)) {
                    violations.push(Violation {
                        index: i,
                        request: ev.request,
                        rule: "snap-duplicate-capture",
                        detail: format!("round {round} already captured this actor"),
                    });
                }
                let current = writes.get(&ev.request).copied().unwrap_or(0);
                if version != current {
                    violations.push(Violation {
                        index: i,
                        request: ev.request,
                        rule: "snap-capture-version-mismatch",
                        detail: format!(
                            "captured version {version} but the actor's last write is {current}"
                        ),
                    });
                }
            }
            HopKind::StateWrite => {
                let prev = writes.get(&ev.request).copied().unwrap_or(0);
                if ev.aux <= prev {
                    violations.push(Violation {
                        index: i,
                        request: ev.request,
                        rule: "state-transition-duplicate",
                        detail: format!("write produced version {} after {prev}", ev.aux),
                    });
                } else if ev.aux != prev + 1 {
                    violations.push(Violation {
                        index: i,
                        request: ev.request,
                        rule: "state-transition-gap",
                        detail: format!(
                            "write jumped to version {} from {prev}: transitions lost",
                            ev.aux
                        ),
                    });
                }
                writes.insert(ev.request, ev.aux);
            }
            HopKind::SnapComplete => {
                if open == Some(ev.request) {
                    open = None;
                    completed.insert(ev.request);
                } else {
                    violations.push(Violation {
                        index: i,
                        request: ev.request,
                        rule: "snap-complete-without-begin",
                        detail: "commit of a round that is not open".into(),
                    });
                }
            }
            HopKind::SnapAbort => {
                if open == Some(ev.request) {
                    open = None;
                } else {
                    violations.push(Violation {
                        index: i,
                        request: ev.request,
                        rule: "snap-abort-without-begin",
                        detail: "abort of a round that is not open".into(),
                    });
                }
            }
            HopKind::Restore => {
                let (round, version) = (ev.aux >> 40, ev.aux & VERSION_MASK);
                // Round 0 is the journal-only restore source (no complete
                // round yet); any other round must have committed.
                if round != 0 && !completed.contains(&round) {
                    violations.push(Violation {
                        index: i,
                        request: ev.request,
                        rule: "snap-restore-from-incomplete",
                        detail: format!("restore sourced round {round} which never committed"),
                    });
                }
                let current = writes.get(&ev.request).copied().unwrap_or(0);
                if version != current {
                    violations.push(Violation {
                        index: i,
                        request: ev.request,
                        rule: "snap-restore-version-mismatch",
                        detail: format!(
                            "restored version {version} but the actor's last write is {current}: \
                             transitions {}",
                            if version < current {
                                "lost"
                            } else {
                                "duplicated"
                            }
                        ),
                    });
                }
            }
            _ => unreachable!("phase() only admits snapshot lifecycle kinds"),
        }
    }
}

/// Checks an event stream (a `Tracer`'s spans or re-parsed JSONL, in
/// recording order) against every lifecycle invariant.
pub fn check_events(events: &[SpanEvent], cfg: &CheckerConfig) -> CheckReport {
    let mut violations: Vec<Violation> = Vec::new();
    let mut kind_counts: Vec<(&'static str, usize)> =
        HopKind::ALL.iter().map(|k| (k.name(), 0)).collect();
    let mut last_record: HashMap<u32, Nanos> = HashMap::new();
    let mut open: HashMap<u64, Life> = HashMap::new();
    // Requests that have completed at least one full lifecycle, with the
    // kind of their latest terminal (ids recur; a re-admit resets this).
    let mut terminated: HashMap<u64, HopKind> = HashMap::new();
    let mut lifecycles = 0usize;
    let mut terminals = 0usize;
    let mut trace_end = Nanos::ZERO;

    for (i, ev) in events.iter().enumerate() {
        kind_counts[ev.kind as usize].1 += 1;
        let rt = record_time(ev);
        trace_end = trace_end.max(rt);

        // Well-formed interval.
        if ev.t_start > ev.t_end {
            violations.push(Violation {
                index: i,
                request: ev.request,
                rule: "inverted-span",
                detail: format!(
                    "{} t_start {} > t_end {}",
                    ev.kind.name(),
                    ev.t_start.as_nanos(),
                    ev.t_end.as_nanos()
                ),
            });
        }

        // Per-server monotone record time.
        let slot = last_record.entry(ev.server).or_insert(Nanos::ZERO);
        if rt < *slot {
            violations.push(Violation {
                index: i,
                request: ev.request,
                rule: "time-regression",
                detail: format!(
                    "server {} record time {} after {}",
                    ev.server,
                    rt.as_nanos(),
                    slot.as_nanos()
                ),
            });
        } else {
            *slot = rt;
        }

        // No queued or in-service work on a dead server.
        if matches!(ev.kind, HopKind::QueueWait | HopKind::Service)
            && cfg.crash_windows.overlaps(ev.server, ev.t_start, ev.t_end)
        {
            violations.push(Violation {
                index: i,
                request: ev.request,
                rule: "service-during-crash",
                detail: format!(
                    "{} [{}, {}] overlaps a crash window of server {}",
                    ev.kind.name(),
                    ev.t_start.as_nanos(),
                    ev.t_end.as_nanos(),
                    ev.server
                ),
            });
        }

        // Migration commits imply both endpoints lived through the
        // transfer window.
        if ev.kind == HopKind::Migration {
            if let Some(budget) = cfg.stall_budget {
                // The span-measured stall: the span's own width when the
                // recorder gave the commit a window, else the run's
                // configured transfer window (the runtime records
                // commits as instants and keeps the window as run
                // metadata).
                let stall = if ev.t_end > ev.t_start {
                    ev.t_end.saturating_sub(ev.t_start)
                } else {
                    cfg.migration_transfer.unwrap_or(Nanos::ZERO)
                };
                if stall > budget {
                    violations.push(Violation {
                        index: i,
                        request: ev.request,
                        rule: "migration-stall-over-budget",
                        detail: format!(
                            "stall {} ns exceeds the scored amortization budget of {} ns",
                            stall.as_nanos(),
                            budget.as_nanos()
                        ),
                    });
                }
            }
            let from = ev
                .t_start
                .saturating_sub(cfg.migration_transfer.unwrap_or(Nanos::ZERO));
            for endpoint in [ev.server, ev.aux as u32] {
                if cfg.crash_windows.overlaps(endpoint, from, ev.t_end)
                    || cfg.crash_windows.is_down(endpoint, ev.t_end)
                {
                    violations.push(Violation {
                        index: i,
                        request: ev.request,
                        rule: "migration-over-crash",
                        detail: format!(
                            "transfer window [{}, {}] overlaps a crash of server {endpoint}",
                            from.as_nanos(),
                            ev.t_end.as_nanos()
                        ),
                    });
                }
            }
        }

        if !is_request_scoped(ev.kind) {
            continue;
        }

        match ev.kind {
            HopKind::GatewayAdmit => {
                if let Some(life) = open.get(&ev.request) {
                    violations.push(Violation {
                        index: i,
                        request: ev.request,
                        rule: "readmit-without-terminal",
                        detail: format!(
                            "already admitted at event {} ({}) with no terminal since",
                            life.admit_index,
                            life.admitted_at.as_nanos()
                        ),
                    });
                }
                terminated.remove(&ev.request);
                open.insert(
                    ev.request,
                    Life {
                        admitted_at: ev.t_start,
                        admit_index: i,
                        forwards: 0,
                        last_activity: ev.t_end,
                    },
                );
                lifecycles += 1;
            }
            HopKind::ClientDone | HopKind::Timeout | HopKind::Shed => {
                match open.remove(&ev.request) {
                    Some(life) => {
                        terminals += 1;
                        if ev.kind == HopKind::ClientDone && life.last_activity > ev.t_end {
                            violations.push(Violation {
                                index: i,
                                request: ev.request,
                                rule: "activity-after-done",
                                detail: format!(
                                    "span activity at {} exceeds completion at {}",
                                    life.last_activity.as_nanos(),
                                    ev.t_end.as_nanos()
                                ),
                            });
                        }
                        terminated.insert(ev.request, ev.kind);
                    }
                    None => {
                        // The total-cluster-loss path sheds at admission
                        // without recording an admit: a standalone shed at
                        // the client sentinel is one whole lifecycle.
                        if ev.kind == HopKind::Shed && ev.server == NO_SERVER {
                            lifecycles += 1;
                            terminals += 1;
                            terminated.insert(ev.request, ev.kind);
                        } else {
                            violations.push(Violation {
                                index: i,
                                request: ev.request,
                                rule: "terminal-without-admit",
                                detail: format!("{} with no open lifecycle", ev.kind.name()),
                            });
                        }
                    }
                }
            }
            _ => {
                // Non-terminal request activity.
                match open.get_mut(&ev.request) {
                    Some(life) => {
                        if ev.t_start < life.admitted_at {
                            violations.push(Violation {
                                index: i,
                                request: ev.request,
                                rule: "activity-before-admit",
                                detail: format!(
                                    "{} starts at {} before admission at {}",
                                    ev.kind.name(),
                                    ev.t_start.as_nanos(),
                                    life.admitted_at.as_nanos()
                                ),
                            });
                        }
                        life.last_activity = life.last_activity.max(ev.t_end);
                        if ev.kind == HopKind::Forward {
                            life.forwards += 1;
                            if life.forwards > cfg.max_forward_hops {
                                violations.push(Violation {
                                    index: i,
                                    request: ev.request,
                                    rule: "forward-hop-cap",
                                    detail: format!(
                                        "{} forwards exceed the cap of {}",
                                        life.forwards, cfg.max_forward_hops
                                    ),
                                });
                            }
                        }
                    }
                    None => match terminated.get(&ev.request) {
                        // After a timeout the abandoned request's messages
                        // are still in flight; their spans, losses,
                        // retries, and stale responses are legal.
                        Some(HopKind::Timeout) => {}
                        Some(term) => violations.push(Violation {
                            index: i,
                            request: ev.request,
                            rule: "activity-after-terminal",
                            detail: format!(
                                "{} after lifecycle ended with {}",
                                ev.kind.name(),
                                term.name()
                            ),
                        }),
                        None => violations.push(Violation {
                            index: i,
                            request: ev.request,
                            rule: "orphan-activity",
                            detail: format!("{} for a never-admitted request", ev.kind.name()),
                        }),
                    },
                }
            }
        }
    }

    check_replica_lifecycles(events, &mut violations);
    check_snapshot_lifecycles(events, &mut violations);
    // The replica and snapshot passes append out of stream order; restore
    // index order (stable, so same-event findings keep their emission
    // order).
    violations.sort_by_key(|v| v.index);

    // End of trace: open lifecycles are fine only inside the grace window
    // (genuinely in flight at the horizon).
    let mut in_flight_at_end = 0usize;
    let cutoff = trace_end.saturating_sub(cfg.open_at_end_grace);
    let mut stuck: Vec<(&u64, &Life)> = open
        .iter()
        .filter(|(_, life)| life.admitted_at < cutoff)
        .collect();
    stuck.sort_by_key(|(_, life)| life.admit_index);
    for (&request, life) in &stuck {
        violations.push(Violation {
            index: usize::MAX,
            request,
            rule: "missing-terminal",
            detail: format!(
                "admitted at event {} ({}) but no done/timeout/shed by trace end ({})",
                life.admit_index,
                life.admitted_at.as_nanos(),
                trace_end.as_nanos()
            ),
        });
    }
    in_flight_at_end += open.len() - stuck.len();

    CheckReport {
        events: events.len(),
        lifecycles,
        terminals,
        in_flight_at_end,
        kind_counts,
        violations,
    }
}

/// Parses a `.spans.jsonl` document and checks it. Errors are malformed
/// input (not invariant violations — those are in the report).
pub fn check_jsonl(text: &str, cfg: &CheckerConfig) -> Result<CheckReport, String> {
    Ok(check_events(&parse_spans_jsonl(text)?, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Nanos {
        Nanos::from_micros(v)
    }

    fn admit(req: u64, server: u32, at: Nanos) -> SpanEvent {
        SpanEvent::instant(req, HopKind::GatewayAdmit, server, 0, at)
    }

    fn done(req: u64, at: Nanos) -> SpanEvent {
        SpanEvent::instant(req, HopKind::ClientDone, NO_SERVER, 0, at)
    }

    fn service(req: u64, server: u32, t0: Nanos, t1: Nanos) -> SpanEvent {
        SpanEvent {
            request: req,
            kind: HopKind::Service,
            server,
            stage: 1,
            aux: 0,
            t_start: t0,
            t_end: t1,
        }
    }

    #[test]
    fn clean_lifecycle_passes() {
        let events = vec![
            admit(1, 0, us(10)),
            service(1, 0, us(12), us(40)),
            done(1, us(50)),
            admit(1, 0, us(60)), // Slab id reuse after the terminal: legal.
            service(1, 0, us(61), us(80)),
            done(1, us(90)),
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.lifecycles, 2);
        assert_eq!(report.terminals, 2);
        assert_eq!(report.kind_count("service"), 2);
    }

    #[test]
    fn missing_terminal_is_flagged_outside_grace() {
        let cfg = CheckerConfig {
            open_at_end_grace: us(100),
            ..CheckerConfig::default()
        };
        let events = vec![
            admit(1, 0, us(10)), // Stuck: trace runs another 500 us.
            admit(2, 0, us(550)),
            service(2, 0, us(551), us(600)), // Request 2 is in-flight residue.
        ];
        let report = check_events(&events, &cfg);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "missing-terminal");
        assert_eq!(report.violations[0].request, 1);
        assert_eq!(report.in_flight_at_end, 1);
    }

    #[test]
    fn readmit_without_terminal_is_flagged() {
        let events = vec![admit(1, 0, us(10)), admit(1, 0, us(20)), done(1, us(30))];
        let report = check_events(&events, &CheckerConfig::default());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "readmit-without-terminal");
    }

    #[test]
    fn terminal_without_admit_and_standalone_shed() {
        let events = vec![
            done(7, us(10)),
            SpanEvent::instant(9, HopKind::Shed, NO_SERVER, 0, us(20)),
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "terminal-without-admit");
        assert_eq!(report.lifecycles, 1, "the no-live-server shed counts");
        assert_eq!(report.terminals, 1);
    }

    #[test]
    fn time_regression_per_server_is_flagged() {
        let events = vec![
            admit(1, 0, us(50)),
            admit(2, 1, us(20)), // Different server: fine.
            admit(3, 0, us(30)), // Server 0 went backwards.
            done(1, us(60)),
            done(2, us(61)),
            done(3, us(62)),
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "time-regression");
        assert_eq!(report.violations[0].request, 3);
    }

    #[test]
    fn network_spans_use_send_time_for_monotonicity() {
        // A network span is recorded at send time with a future arrival;
        // a later event with an earlier *end* is still in order.
        let events = vec![
            admit(1, 0, us(10)),
            SpanEvent {
                request: 1,
                kind: HopKind::Network,
                server: 0,
                stage: actop_trace::NO_STAGE,
                aux: 1,
                t_start: us(20),
                t_end: us(500), // Arrival far in the future.
            },
            service(1, 0, us(21), us(30)), // Recorded at 30 < 500: legal.
            done(1, us(501)),
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn service_during_crash_window_is_flagged() {
        let mut plan = actop_chaos::FaultPlan::new("t");
        plan.push(us(100), actop_chaos::Fault::Crash { server: 0 });
        plan.push(us(200), actop_chaos::Fault::Recover { server: 0 });
        let cfg = CheckerConfig {
            crash_windows: plan.crash_windows(2, Nanos::ZERO, us(1_000)),
            ..CheckerConfig::default()
        };
        let events = vec![
            admit(1, 1, us(10)),
            service(1, 0, us(120), us(150)), // Inside server 0's crash.
            service(1, 1, us(120), us(150)), // Server 1 is alive: fine.
            done(1, us(160)),
        ];
        let report = check_events(&events, &cfg);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "service-during-crash");
    }

    #[test]
    fn migration_over_crash_is_flagged() {
        let mut plan = actop_chaos::FaultPlan::new("t");
        plan.push(us(100), actop_chaos::Fault::Crash { server: 2 });
        plan.push(us(140), actop_chaos::Fault::Recover { server: 2 });
        let cfg = CheckerConfig {
            crash_windows: plan.crash_windows(3, Nanos::ZERO, us(1_000)),
            migration_transfer: Some(us(50)),
            ..CheckerConfig::default()
        };
        // Commit at 160: transfer window (110, 160) overlaps the crash.
        let bad = SpanEvent::instant(77, HopKind::Migration, 1, 2, us(160));
        let report = check_events(&[bad], &cfg);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "migration-over-crash");
        // Commit at 250: window (200, 250) clears the healed crash.
        let good = SpanEvent::instant(77, HopKind::Migration, 1, 2, us(250));
        assert!(check_events(&[good], &cfg).is_clean());
    }

    #[test]
    fn migration_stall_over_budget_is_flagged() {
        let cfg = CheckerConfig {
            migration_transfer: Some(us(50)),
            stall_budget: Some(us(80)),
            ..CheckerConfig::default()
        };
        // Instant commit: the stall is the configured window (50 us),
        // inside the 80 us budget.
        let instant = SpanEvent::instant(9, HopKind::Migration, 1, 2, us(200));
        assert!(check_events(&[instant], &cfg).is_clean());
        // A windowed commit span measures its own stall: 120 us > 80 us.
        let windowed = SpanEvent {
            request: 9,
            kind: HopKind::Migration,
            server: 1,
            stage: 0,
            aux: 2,
            t_start: us(200),
            t_end: us(320),
        };
        let report = check_events(&[windowed], &cfg);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "migration-stall-over-budget");
        assert_eq!(report.violations[0].request, 9);
        // An instant commit under a window wider than the budget is the
        // same overrun, witnessed through the run metadata.
        let tight = CheckerConfig {
            migration_transfer: Some(us(100)),
            stall_budget: Some(us(80)),
            ..CheckerConfig::default()
        };
        let report = check_events(&[instant], &tight);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "migration-stall-over-budget");
        // No budget, no rule: the windowed span is clean again.
        let off = CheckerConfig {
            migration_transfer: Some(us(50)),
            ..CheckerConfig::default()
        };
        assert!(check_events(&[windowed], &off).is_clean());
    }

    #[test]
    fn forward_hop_cap_is_enforced() {
        let mut events = vec![admit(1, 0, us(10))];
        for i in 0..40 {
            events.push(SpanEvent::instant(
                1,
                HopKind::Forward,
                (i % 3) as u32,
                0,
                us(11 + i),
            ));
        }
        events.push(done(1, us(100)));
        let report = check_events(&events, &CheckerConfig::default());
        let caps: Vec<_> = report
            .violations
            .iter()
            .filter(|v| v.rule == "forward-hop-cap")
            .collect();
        assert_eq!(caps.len(), 40 - MAX_FORWARD_HOPS as usize);
    }

    #[test]
    fn post_timeout_activity_is_legal_but_post_done_is_not() {
        let events = vec![
            admit(1, 0, us(10)),
            SpanEvent::instant(1, HopKind::Timeout, 0, 0, us(100)),
            service(1, 0, us(120), us(150)), // Abandoned work completes.
            SpanEvent::instant(1, HopKind::StaleResponse, 0, 0, us(160)),
            admit(2, 0, us(200)),
            done(2, us(220)),
            service(2, 0, us(230), us(240)), // After done: must not happen.
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "activity-after-terminal");
        assert_eq!(report.violations[0].request, 2);
    }

    #[test]
    fn inverted_span_and_orphan_are_flagged() {
        let events = vec![
            SpanEvent {
                request: 5,
                kind: HopKind::Service,
                server: 0,
                stage: 0,
                aux: 0,
                t_start: us(50),
                t_end: us(40),
            },
            SpanEvent::instant(6, HopKind::Retry, 1, 1, us(60)),
        ];
        let report = check_events(&events, &CheckerConfig::default());
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"inverted-span"));
        assert!(rules.contains(&"orphan-activity"));
    }

    #[test]
    fn lifecycle_events_are_not_request_scoped() {
        // Suspect/unsuspect carry a *server* id in the request field and
        // must not trip the orphan rule.
        let events = vec![
            SpanEvent::instant(3, HopKind::Suspect, 0, 0, us(10)),
            SpanEvent::instant(3, HopKind::Unsuspect, 0, 0, us(20)),
            SpanEvent::instant(0, HopKind::ServerFail, 2, 0, us(30)),
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    fn split(actor: u64, primary: u32, replica: u32, at: Nanos) -> SpanEvent {
        SpanEvent::instant(actor, HopKind::Split, primary, u64::from(replica), at)
    }

    fn drop_rep(actor: u64, primary: u32, replica: u32, at: Nanos) -> SpanEvent {
        SpanEvent::instant(actor, HopKind::ReplicaDrop, primary, u64::from(replica), at)
    }

    fn replica_read(req: u64, actor: u64, server: u32, at: Nanos) -> SpanEvent {
        SpanEvent::instant(req, HopKind::ReplicaRead, server, actor, at)
    }

    #[test]
    fn replica_lifetime_with_reads_inside_is_clean() {
        let events = vec![
            admit(1, 0, us(10)),
            split(42, 0, 2, us(20)),
            replica_read(1, 42, 2, us(30)),
            done(1, us(40)),
            drop_rep(42, 0, 2, us(50)),
            // Unsplit again: the actor may migrate and re-split elsewhere.
            SpanEvent::instant(42, HopKind::Migration, 0, 3, us(60)),
            split(42, 3, 1, us(70)),
            drop_rep(42, 3, 1, us(80)),
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn replica_read_outside_window_is_flagged() {
        let events = vec![
            admit(1, 0, us(10)),
            split(42, 0, 2, us(20)),
            drop_rep(42, 0, 2, us(30)),
            replica_read(1, 42, 2, us(40)), // After the drop: stale routing.
            done(1, us(50)),
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "replica-read-outside-window");
        assert_eq!(report.violations[0].request, 1);
    }

    #[test]
    fn replica_pass_orders_by_time_not_stream_position() {
        // A shard-merged trace concatenates per-shard streams: the read
        // (shard B) can precede the split (shard A) in stream order while
        // following it in sim time. The checker must accept this...
        let events = vec![
            admit(1, 2, us(5)),
            replica_read(1, 42, 2, us(30)),
            done(1, us(40)),
            split(42, 0, 2, us(20)),
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        // ...and still flag a read whose sim time precedes every split.
        let events = vec![
            admit(1, 2, us(5)),
            replica_read(1, 42, 2, us(10)),
            done(1, us(40)),
            split(42, 0, 2, us(20)),
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "replica-read-outside-window");
    }

    #[test]
    fn double_activation_splits_are_flagged() {
        let events = vec![
            split(42, 0, 0, us(10)), // Replica on the primary's own server.
            split(42, 0, 2, us(20)),
            split(42, 0, 2, us(30)), // Same server again: duplicate.
            split(42, 1, 3, us(40)), // Different primary while replicated.
        ];
        let report = check_events(&events, &CheckerConfig::default());
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        assert_eq!(
            rules,
            vec![
                "replica-on-primary",
                "replica-duplicate",
                "split-primary-conflict"
            ]
        );
    }

    #[test]
    fn dir_repair_closes_the_replica_window() {
        // Crash-era lazy knowledge: the primary's entry is repaired away
        // (replicas die with it, no explicit drops), then the actor
        // re-splits under a new primary. Clean — but a read against the
        // dead window is still flagged.
        let events = vec![
            split(42, 0, 2, us(10)),
            // `request` the actor, `server` the observer, `aux` the host.
            SpanEvent::instant(42, HopKind::DirRepair, 3, 0, us(20)),
            split(42, 1, 3, us(30)),
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert!(report.is_clean(), "violations: {:?}", report.violations);

        let events = vec![
            split(42, 0, 2, us(10)),
            admit(7, 2, us(15)),
            SpanEvent::instant(42, HopKind::DirRepair, 3, 0, us(20)),
            replica_read(7, 42, 2, us(30)),
            done(7, us(40)),
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "replica-read-outside-window");
    }

    #[test]
    fn drop_without_replica_is_flagged() {
        let events = vec![
            split(42, 0, 2, us(10)),
            drop_rep(42, 0, 3, us(20)), // Server 3 never held a replica.
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "drop-without-replica");
    }

    #[test]
    fn migration_of_replicated_actor_is_flagged() {
        let events = vec![
            split(42, 0, 2, us(10)),
            SpanEvent::instant(42, HopKind::Migration, 0, 3, us(20)),
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "migration-of-replicated");
        // With no splits anywhere, migrations pay no replica bookkeeping.
        let lone = [SpanEvent::instant(42, HopKind::Migration, 0, 3, us(20))];
        assert!(check_events(&lone, &CheckerConfig::default()).is_clean());
    }

    fn snap_round(id: u64, kind: HopKind, server: u32, aux: u64, at: Nanos) -> SpanEvent {
        SpanEvent::instant(id, kind, server, aux, at)
    }

    fn write(actor: u64, server: u32, version: u64, at: Nanos) -> SpanEvent {
        SpanEvent::instant(actor, HopKind::StateWrite, server, version, at)
    }

    fn capture(actor: u64, server: u32, round: u64, version: u64, at: Nanos) -> SpanEvent {
        SpanEvent::instant(
            actor,
            HopKind::SnapCapture,
            server,
            (round << 40) | version,
            at,
        )
    }

    fn restore(actor: u64, server: u32, round: u64, version: u64, at: Nanos) -> SpanEvent {
        SpanEvent::instant(actor, HopKind::Restore, server, (round << 40) | version, at)
    }

    #[test]
    fn snapshot_lifecycle_with_crash_recovery_is_clean() {
        let events = vec![
            write(7, 1, 1, us(5)),
            snap_round(1, HopKind::SnapBegin, 0, 0, us(10)),
            snap_round(1, HopKind::SnapMarker, 0, 0, us(10)),
            snap_round(1, HopKind::SnapMarker, 1, 0, us(12)),
            // Lazy capture at the pre-write version, then the write.
            capture(7, 1, 1, 1, us(15)),
            write(7, 1, 2, us(15)),
            snap_round(1, HopKind::SnapComplete, 0, 1, us(20)),
            // Crash wipes the cell; restore reproduces the last write
            // from the committed round, then writing resumes.
            restore(7, 2, 1, 2, us(40)),
            write(7, 2, 3, us(40)),
            // A later journal-only restore (round 0) is always legal.
            restore(7, 0, 0, 3, us(60)),
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn lost_and_duplicated_transitions_are_flagged() {
        let events = vec![
            write(7, 1, 1, us(5)),
            write(7, 1, 1, us(10)), // Same version again: duplicated.
            write(7, 1, 3, us(20)), // Skipped 2: lost.
        ];
        let report = check_events(&events, &CheckerConfig::default());
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        assert_eq!(
            rules,
            vec!["state-transition-duplicate", "state-transition-gap"]
        );
    }

    #[test]
    fn restore_version_mismatch_is_flagged() {
        let events = vec![
            write(7, 1, 1, us(5)),
            write(7, 1, 2, us(10)),
            restore(7, 2, 0, 1, us(40)), // Served version 1, lost write 2.
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "snap-restore-version-mismatch");
    }

    #[test]
    fn restore_only_from_complete_rounds() {
        let events = vec![
            write(7, 1, 1, us(5)),
            snap_round(1, HopKind::SnapBegin, 0, 0, us(10)),
            capture(7, 1, 1, 1, us(12)),
            snap_round(1, HopKind::SnapAbort, 1, 0, us(15)),
            restore(7, 2, 1, 1, us(40)), // Round 1 aborted: bad source.
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].rule, "snap-restore-from-incomplete");
    }

    #[test]
    fn round_shape_violations_are_flagged() {
        let events = vec![
            snap_round(1, HopKind::SnapBegin, 0, 0, us(10)),
            snap_round(2, HopKind::SnapBegin, 0, 0, us(20)), // 1 still open.
            snap_round(9, HopKind::SnapMarker, 1, 0, us(21)), // Not open.
            write(7, 1, 1, us(22)),
            capture(7, 1, 2, 1, us(25)),
            capture(7, 1, 2, 1, us(26)), // Captured twice in round 2.
            snap_round(2, HopKind::SnapComplete, 0, 1, us(30)),
            snap_round(2, HopKind::SnapAbort, 0, 0, us(31)), // Closed already.
        ];
        let report = check_events(&events, &CheckerConfig::default());
        let rules: Vec<&str> = report.violations.iter().map(|v| v.rule).collect();
        assert_eq!(
            rules,
            vec![
                "snap-overlapping-rounds",
                "snap-marker-outside-round",
                "snap-duplicate-capture",
                "snap-abort-without-begin"
            ]
        );
    }

    #[test]
    fn snapshot_pass_orders_by_time_not_stream_position() {
        // Shard-merged: the store shard's round events and another
        // shard's writes interleave out of stream order (each server's
        // own stream stays monotone).
        let events = vec![
            capture(7, 1, 1, 1, us(15)),
            write(7, 1, 2, us(15)),
            write(7, 2, 1, us(5)),
            snap_round(1, HopKind::SnapBegin, 0, 0, us(10)),
            snap_round(1, HopKind::SnapComplete, 0, 1, us(20)),
        ];
        let report = check_events(&events, &CheckerConfig::default());
        assert!(report.is_clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn jsonl_entry_point_matches_events() {
        let events = [admit(1, 0, us(10)), done(1, us(50))];
        let jsonl: String = events
            .iter()
            .map(|e| {
                format!(
                    "{{\"req\":{},\"kind\":\"{}\",\"server\":{},\"stage\":{},\"aux\":{},\"t0_ns\":{},\"t1_ns\":{}}}\n",
                    e.request,
                    e.kind.name(),
                    e.server,
                    e.stage,
                    e.aux,
                    e.t_start.as_nanos(),
                    e.t_end.as_nanos()
                )
            })
            .collect();
        let report = check_jsonl(&jsonl, &CheckerConfig::default()).expect("parses");
        assert!(report.is_clean());
        assert_eq!(report.events, 2);
        assert!(check_jsonl("junk", &CheckerConfig::default()).is_err());
    }
}
