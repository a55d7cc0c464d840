//! The cluster: servers, the placement directory, message routing, and
//! request/join bookkeeping.
//!
//! [`Cluster`] is the discrete-event world. Workload drivers inject client
//! requests; every subsequent hop — deserialization, worker execution,
//! serialization, network transfer — is an engine event driven by the
//! server's processor-sharing CPU and stage thread pools. The ActOp
//! controllers interact with the cluster only through the public hooks at
//! the bottom of this file, mirroring how ActOp integrates with Orleans as
//! a runtime extension rather than application code.

use actop_metrics::TimelineSample;
use actop_partition::{decide_split, CostSignals, DenseDirectory, ExchangeOutcome, SplitDecision};
use actop_sim::{mix64, start_next, CostAttr, DetRng, Engine, Nanos, StagePool, Subsystem};
use actop_sketch::fxmap::{fx_map_with_capacity, FxHashMap};
use actop_snapshot::{stragglers, OpenRound, SnapshotConfig, SnapshotStore, StateCell};
use actop_trace::{HopKind, SpanEvent, Tracer, NO_SERVER, NO_STAGE, PROC_LABEL, QUEUE_LABEL};

use crate::app::{AppLogic, Call, Outcome, Reaction};
use crate::config::{HiccupModel, ReplicationConfig, RuntimeConfig};
use crate::detector::{DetectorConfig, FailureDetector, Transition};
use crate::ids::{ActorId, CallId, RequestId, StageKind};
use crate::metrics::ClusterMetrics;
use crate::obs::{DetectorAccuracy, Observability, SloTransition};
use crate::proto::{
    Message, MsgKind, PendingJoin, PostAction, ReplyTarget, RequestMeta, RunningTask, StageItem,
};
use crate::server::Server;
use crate::table::SlabTable;

/// Per-stage observation drained by the thread-allocation controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageReport {
    /// Events that arrived at the stage during the window.
    pub arrivals: u64,
    /// Events whose processing finished during the window.
    pub completions: u64,
    /// Window length.
    pub window: Nanos,
    /// Sum of per-event wallclock processing time, nanoseconds.
    pub sum_wallclock_ns: f64,
    /// Sum of per-event CPU demand, nanoseconds.
    pub sum_cpu_ns: f64,
    /// Time-average queue length over the window.
    pub mean_queue_len: f64,
}

// Breakdown component labels (Fig. 4) are shared with the trace exporter's
// decomposition — `QUEUE_LABEL` / `PROC_LABEL` come from `actop-trace` so
// the two accountings can never drift apart.

/// An injected network degradation on one server pair (symmetric). Applied
/// to every message and heartbeat crossing the pair while installed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Added to every delivery's network delay.
    pub extra_delay: Nanos,
    /// Probability a delivery is dropped outright (drawn from the fault
    /// RNG stream).
    pub drop_prob: f64,
}

/// Messages re-routed more than this many times are dropped: under
/// split-brain suspicion two servers can each believe the other hosts an
/// actor, and the cap converts the resulting ping-pong into a loss the
/// client timeout resolves. Public so the trace invariant checker
/// (`actop-verify`) enforces the same bound on recorded forward chains.
pub const MAX_FORWARD_HOPS: u8 = 32;

/// Normalizes a server pair into the symmetric link-fault key.
#[inline]
fn link_key(a: usize, b: usize) -> (u32, u32) {
    (a.min(b) as u32, a.max(b) as u32)
}

/// Runtime state of the snapshot subsystem (`config.snapshot`).
struct SnapState {
    cfg: SnapshotConfig,
    /// The durable store: per-actor write-ahead journals plus the latest
    /// committed snapshot per actor. Its *data* survives every crash
    /// (stable storage); only access is gated on the store server being
    /// up.
    store: SnapshotStore,
    /// In-memory state cells: actor -> (hosting server, cell). A crash
    /// drops the dead server's cells; restore rebuilds them from the
    /// store. The host hint self-heals at the next touch, so stale hints
    /// after a migration cost at worst a spurious (exact) restore.
    cells: FxHashMap<u64, (u32, StateCell)>,
    /// The open snapshot round, if any.
    round: Option<OpenRound>,
    /// Rounds begun so far — also the round-id source (ids start at 1).
    rounds_started: u64,
    /// Per-actor count of consecutive deferred restores (store down),
    /// driving the deterministic exponential backoff.
    defer_attempts: FxHashMap<u64, u32>,
    /// Per-directed-link sent counters (`src * n + dst`), server-server
    /// payload messages only — the marker-sequencing feed.
    link_sent: Vec<u64>,
    /// Per-directed-link delivered counters, same indexing.
    link_recv: Vec<u64>,
}

/// What the snapshot subsystem decided about a hosted request.
enum SnapTouch {
    /// Serve it; the request pays this much extra CPU (journal/capture)
    /// and blocking time (restore fetch + replay).
    Proceed { cpu_ns: f64, blocking_ns: f64 },
    /// The actor needs a restore but the store server is down: defer the
    /// execute by this backoff.
    Defer(Nanos),
}

/// The simulated cluster (the discrete-event world type).
pub struct Cluster {
    /// Static configuration.
    pub config: RuntimeConfig,
    /// The servers.
    pub servers: Vec<Server>,
    /// The distributed placement directory (actor -> hosting server):
    /// a dense, hash-free table resolved on every message delivery.
    pub directory: DenseDirectory,
    /// Cluster-wide measurements.
    pub metrics: ClusterMetrics,
    /// Causal request tracer + flight recorder (disabled unless
    /// `config.trace` is set; every hook is then a single branch).
    pub trace: Tracer,
    /// Telemetry: metric registry + SLO engine (`config.obs`); `None`
    /// keeps every telemetry hook at a single branch.
    pub obs: Option<Observability>,
    /// Detector-accuracy tallies, fed by
    /// [`Cluster::install_accuracy_sampler`].
    pub detector_accuracy: DetectorAccuracy,
    /// Cluster-side cost attribution (`config.cost_attr`); the engine
    /// carries its own accumulator for heap work, merged at report time.
    attr: CostAttr,
    app: Box<dyn AppLogic>,
    rng_place: DetRng,
    rng_net: DetRng,
    rng_app: DetRng,
    rng_gateway: DetRng,
    /// Fault-path randomness (drop decisions, retry jitter). A dedicated
    /// stream: fault-free runs draw nothing from it, so enabling the fault
    /// machinery does not perturb the default streams.
    rng_fault: DetRng,
    /// Heartbeat network-delay randomness. Dedicated for the same reason:
    /// heartbeats exist only when the detector is configured.
    rng_hb: DetRng,
    failed: Vec<bool>,
    /// Heartbeat-based failure detector (`config.detector`); `None` keeps
    /// the legacy oracle where routing consults `failed` directly.
    detector: Option<FailureDetector>,
    /// Snapshot/restore subsystem (`config.snapshot`); `None` keeps every
    /// snapshot hook at a single branch and draws nothing, so
    /// snapshot-off runs stay byte-identical.
    snap: Option<SnapState>,
    /// Installed link degradations, keyed by normalized server pair.
    link_faults: FxHashMap<(u32, u32), LinkFault>,
    /// Migrations currently in transfer (`config.migration_transfer`):
    /// actor id -> (source, destination). A crash of either endpoint
    /// aborts the entry; the actor stays at its source.
    migrations_in_flight: FxHashMap<u64, (u32, u32)>,
    /// Hot-actor splits currently in transfer: actor id -> (primary,
    /// replica destination). Same abort discipline as migrations: a
    /// crash of either endpoint kills the entry and no replica appears.
    splits_in_flight: FxHashMap<u64, (u32, u32)>,
    /// In-flight fan-out joins, keyed by [`CallId`] slab handle.
    joins: SlabTable<PendingJoin>,
    /// In-flight client requests, keyed by [`RequestId`] slab handle.
    requests: SlabTable<RequestMeta>,
    /// Reused buffer for the tasks one CPU-completion event collects.
    cpu_done_buf: Vec<RunningTask>,
}

impl Cluster {
    /// Builds a cluster from a configuration and the application logic.
    pub fn new(config: RuntimeConfig, app: Box<dyn AppLogic>) -> Self {
        config.validate();
        let servers = (0..config.servers)
            .map(|id| {
                Server::new(
                    id,
                    &config.costs,
                    config.initial_threads_per_stage,
                    config.sketch_capacity,
                )
            })
            .collect();
        let trace = match &config.trace {
            Some(tc) => Tracer::new(config.servers, tc),
            None => Tracer::disabled(),
        };
        let obs = config.obs.as_ref().map(|o| {
            Observability::with_snapshot(
                o,
                config.servers,
                config.series_bin_ns,
                config.snapshot.is_some(),
            )
        });
        let snap = config.snapshot.map(|cfg| SnapState {
            cfg,
            store: SnapshotStore::new(),
            cells: fx_map_with_capacity(0),
            round: None,
            rounds_started: 0,
            defer_attempts: fx_map_with_capacity(0),
            link_sent: vec![0; config.servers * config.servers],
            link_recv: vec![0; config.servers * config.servers],
        });
        Cluster {
            servers,
            directory: DenseDirectory::new(config.servers),
            metrics: ClusterMetrics::new(config.series_bin_ns),
            trace,
            obs,
            detector_accuracy: DetectorAccuracy::default(),
            attr: if config.cost_attr {
                CostAttr::enabled()
            } else {
                CostAttr::default()
            },
            app,
            rng_place: DetRng::stream(config.seed, 0x01),
            rng_net: DetRng::stream(config.seed, 0x02),
            rng_app: DetRng::stream(config.seed, 0x03),
            rng_gateway: DetRng::stream(config.seed, 0x04),
            rng_fault: DetRng::stream(config.seed, 0x05),
            rng_hb: DetRng::stream(config.seed, 0x06),
            failed: vec![false; config.servers],
            detector: config.detector.map(|d| {
                FailureDetector::with_rt(config.servers, d.suspect_after, Nanos::ZERO, d.rt)
            }),
            snap,
            link_faults: fx_map_with_capacity(0),
            migrations_in_flight: fx_map_with_capacity(0),
            splits_in_flight: fx_map_with_capacity(0),
            joins: SlabTable::new(),
            requests: SlabTable::new(),
            cpu_done_buf: Vec::new(),
            config,
        }
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    // ------------------------------------------------------------------
    // Client request injection.
    // ------------------------------------------------------------------

    /// Submits a client request to `to` with application `tag` and payload
    /// `bytes`. The request enters the cluster through a uniformly random
    /// gateway server (clients connect to arbitrary gateways, as in
    /// Orleans) and the response is recorded when it reaches the client.
    pub fn submit_client_request(
        &mut self,
        engine: &mut Engine<Cluster>,
        to: ActorId,
        tag: u32,
        bytes: u64,
    ) -> RequestId {
        let now = engine.now();
        self.metrics.submitted += 1;
        let first = self.rng_gateway.below(self.servers.len());
        let Some(gateway) = self.try_next_live(first) else {
            // Total cluster loss: no gateway accepts the connection. Shed
            // at admission instead of panicking; the returned id is
            // already resolved (stale), like any shed request's.
            self.metrics.rejected += 1;
            self.metrics.shed_no_live += 1;
            let rid = RequestId(self.requests.insert(RequestMeta {
                start: now,
                accounted_ns: 0.0,
                gateway: NO_SERVER,
            }));
            self.requests.remove(rid.0);
            if self.trace.enabled() {
                self.trace
                    .record(SpanEvent::instant(rid.0, HopKind::Shed, NO_SERVER, 0, now));
            }
            return rid;
        };
        let rid = RequestId(self.requests.insert(RequestMeta {
            start: now,
            accounted_ns: 0.0,
            gateway: gateway as u32,
        }));
        if self.trace.enabled() {
            self.record_span(SpanEvent::instant(
                rid.0,
                HopKind::GatewayAdmit,
                gateway as u32,
                0,
                now,
            ));
        }
        if let Some(timeout) = self.config.request_timeout {
            engine.schedule_after(timeout, move |c: &mut Cluster, e| {
                if let Some(meta) = c.requests.remove(rid.0) {
                    c.metrics.timed_out += 1;
                    // Abandon the request's outstanding joins so late
                    // branches cannot resurrect it and the tables drain
                    // (rare bulk purge; never runs on completed requests).
                    c.joins.retain(|j| j.request != rid);
                    if c.trace.enabled() {
                        let at = e.now();
                        c.record_span(SpanEvent::instant(
                            rid.0,
                            HopKind::Timeout,
                            meta.gateway,
                            0,
                            at,
                        ));
                        c.trace
                            .flight_dump(HopKind::Timeout, rid.0, meta.gateway, at);
                    }
                }
            });
        }
        let msg = Message {
            to,
            tag,
            bytes,
            kind: MsgKind::Request {
                reply_to: ReplyTarget::Client(rid),
            },
            request: rid,
            issued_at: now,
            delivered_remotely: true,
            from_actor: None,
            forwarded: false,
            call_was_remote: false,
            attempts: 0,
            hops: 0,
        };
        let delay = self.config.costs.network.delay(&mut self.rng_net, bytes);
        self.account(rid, "Network", delay.as_nanos() as f64);
        if self.trace.enabled() {
            self.record_span(SpanEvent {
                request: rid.0,
                kind: HopKind::Network,
                server: gateway as u32,
                stage: NO_STAGE,
                aux: 0,
                t_start: now,
                t_end: now + delay,
            });
        }
        engine.schedule_after(delay, move |c: &mut Cluster, e| {
            c.wire_arrive(e, gateway, msg)
        });
        rid
    }

    // ------------------------------------------------------------------
    // Message movement.
    // ------------------------------------------------------------------

    /// A message arrives on the wire at `server` and enters the receiver
    /// stage. Client-originated requests are shed when the receiver queue
    /// is over the overload bound.
    fn wire_arrive(&mut self, engine: &mut Engine<Cluster>, server: usize, mut msg: Message) {
        msg.delivered_remotely = true;
        if self.failed[server] {
            // The destination crashed while the message was on the wire.
            // The sender's transport observes the broken delivery and
            // retries requests with backoff against a live server (the
            // virtual actor re-activates there); responses are lost, and
            // the root request eventually times out.
            self.metrics.lost_in_flight += 1;
            if self.trace.enabled() {
                self.record_span(SpanEvent::instant(
                    msg.request.0,
                    HopKind::MsgLost,
                    server as u32,
                    0,
                    engine.now(),
                ));
            }
            match msg.kind {
                MsgKind::Request { .. } => self.schedule_retry(engine, msg, server),
                MsgKind::Response { .. } => {
                    self.metrics.stale_responses += 1;
                    self.note_stale_response(engine.now(), msg.request, server);
                }
            }
            return;
        }
        let is_fresh_client_request = msg.from_actor.is_none()
            && !msg.forwarded
            && matches!(msg.kind, MsgKind::Request { .. });
        if is_fresh_client_request
            && self.servers[server].stages[StageKind::Receiver.index()].queue_len()
                >= self.config.max_receiver_queue
        {
            self.metrics.rejected += 1;
            self.requests.remove(msg.request.0);
            if self.trace.enabled() {
                let at = engine.now();
                self.record_span(SpanEvent::instant(
                    msg.request.0,
                    HopKind::Shed,
                    server as u32,
                    0,
                    at,
                ));
                self.trace
                    .flight_dump(HopKind::Shed, msg.request.0, server as u32, at);
            }
            return;
        }
        self.enqueue(
            engine,
            server,
            StageKind::Receiver.index(),
            StageItem::Deserialize(msg),
        );
    }

    /// Schedules a backoff retry for a request whose delivery to `dead`
    /// failed (crash or drop): exponential backoff with deterministic
    /// jitter, bounded by the per-message attempt budget. The retry
    /// re-enters through a live server's receiver, where the virtual actor
    /// re-activates. Exhausting the budget leaves the root request to its
    /// client timeout.
    #[cold]
    fn schedule_retry(&mut self, engine: &mut Engine<Cluster>, mut msg: Message, dead: usize) {
        if self.requests.get(msg.request.0).is_none() {
            // The root request already resolved (timed out / shed): the
            // branch is a zombie, let it die.
            self.metrics.zombie_branches += 1;
            return;
        }
        let policy = self.config.retry;
        if msg.attempts >= policy.max_attempts {
            self.metrics.retry_budget_exhausted += 1;
            return;
        }
        msg.attempts += 1;
        let shift = u32::from(msg.attempts - 1).min(20);
        let backoff =
            Nanos::from_nanos(policy.base_backoff.as_nanos().saturating_mul(1u64 << shift))
                .min(policy.max_backoff);
        let jitter = if policy.jitter > 0.0 {
            Nanos::from_nanos_f64(
                backoff.as_nanos() as f64 * self.rng_fault.uniform(0.0, policy.jitter),
            )
        } else {
            Nanos::ZERO
        };
        let delay = backoff + jitter;
        self.metrics.retries += 1;
        self.metrics.retry_backoff_ns += delay.as_nanos();
        if self.trace.enabled() {
            self.record_span(SpanEvent::instant(
                msg.request.0,
                HopKind::Retry,
                dead as u32,
                u64::from(msg.attempts),
                engine.now(),
            ));
        }
        engine.schedule_after(delay, move |c: &mut Cluster, e| {
            if c.requests.get(msg.request.0).is_none() {
                c.metrics.zombie_branches += 1;
                return;
            }
            let first = c.rng_gateway.below(c.servers.len());
            match c.try_next_live(first) {
                Some(retry) => {
                    let mut m = msg;
                    m.forwarded = true;
                    if c.trace.enabled() {
                        c.record_span(SpanEvent::instant(
                            m.request.0,
                            HopKind::FailoverRetry,
                            retry as u32,
                            dead as u64,
                            e.now(),
                        ));
                    }
                    c.enqueue(
                        e,
                        retry,
                        StageKind::Receiver.index(),
                        StageItem::Deserialize(m),
                    );
                }
                // Still nobody alive: keep backing off until the budget
                // runs out or a server recovers.
                None => c.schedule_retry(e, msg, dead),
            }
        });
    }

    /// Pushes an item into a stage queue and pumps the server.
    fn enqueue(
        &mut self,
        engine: &mut Engine<Cluster>,
        server: usize,
        stage: usize,
        item: StageItem,
    ) {
        let now = engine.now();
        self.servers[server].stages[stage].push(now, item);
        self.pump(engine, server);
    }

    /// Starts queued items on every stage with a free thread, then
    /// re-arms the CPU completion event. One pass suffices: starting an
    /// item never enqueues one (`prepare` only decides what happens when
    /// the compute phase ends).
    fn pump(&mut self, engine: &mut Engine<Cluster>, server: usize) {
        if self.failed[server] {
            return;
        }
        let now = engine.now();
        let mut from = 0;
        let mut next = self.attr.time(Subsystem::Cpu, || {
            start_next(&mut self.servers[server].stages, &mut from, now)
        });
        while let Some((stage, item, wait)) = next {
            if self.config.record_breakdown {
                let rid = item_request(&item);
                self.account(rid, QUEUE_LABEL[stage], wait.as_nanos() as f64);
            }
            if self.trace.enabled() {
                self.record_span(SpanEvent {
                    request: item_request(&item).0,
                    kind: HopKind::QueueWait,
                    server: server as u32,
                    stage: stage as u8,
                    aux: 0,
                    t_start: now.saturating_sub(wait),
                    t_end: now,
                });
            }
            let (cpu_ns, wait_ns, post, request) = self.prepare(now, server, item);
            let cpu_ns = cpu_ns.max(1.0);
            let task = RunningTask {
                stage,
                post,
                started: now,
                cpu_ns,
                wait_ns,
                request,
            };
            next = self.attr.time(Subsystem::Cpu, || {
                let s = &mut self.servers[server];
                s.cpu.add(now, cpu_ns, task);
                start_next(&mut s.stages, &mut from, now)
            });
        }
        debug_assert!(
            !self.servers[server].stages.iter().any(StagePool::can_start),
            "prepare enqueued work behind the pump"
        );
        self.sync_cpu(engine, server);
    }

    /// Computes a stage item's CPU demand, blocking time, and completion
    /// action. For worker requests this invokes the application handler
    /// (its decision is captured now and applied when the compute phase
    /// ends).
    fn prepare(
        &mut self,
        now: Nanos,
        server: usize,
        item: StageItem,
    ) -> (f64, f64, PostAction, RequestId) {
        let costs = &self.config.costs;
        match item {
            StageItem::Deserialize(msg) => (
                costs.deserialize_ns(msg.bytes),
                0.0,
                PostAction::RouteToWorker(msg),
                msg.request,
            ),
            StageItem::Execute(msg) => {
                let primary = self.directory.server_of(msg.to.0) == Some(server);
                let mut hosted = primary;
                if !hosted
                    && self.config.replication.is_some()
                    && self.directory.replica_hosted(msg.to.0, server)
                {
                    // A replica activation: read-tagged requests and join
                    // continuations execute here; writes fall through to
                    // the forward path (primary-routed).
                    hosted = match msg.kind {
                        MsgKind::Request { .. } => {
                            let read = self
                                .config
                                .replication
                                .as_ref()
                                .expect("checked above")
                                .is_read(u64::from(msg.tag));
                            if read {
                                self.metrics.replica_reads += 1;
                                if self.trace.enabled() {
                                    self.record_span(SpanEvent::instant(
                                        msg.request.0,
                                        HopKind::ReplicaRead,
                                        server as u32,
                                        msg.to.0,
                                        now,
                                    ));
                                }
                            } else {
                                self.metrics.replica_writes += 1;
                            }
                            read
                        }
                        MsgKind::Response { .. } => true,
                    };
                }
                if !hosted {
                    return (
                        self.config.costs.dispatch_fixed_ns,
                        0.0,
                        PostAction::Forward(msg),
                        msg.request,
                    );
                }
                let costs = &self.config.costs;
                let local_copy = if !msg.delivered_remotely && msg.from_actor.is_some() {
                    costs.local_copy_ns(msg.bytes)
                } else {
                    0.0
                };
                match msg.kind {
                    MsgKind::Request { .. } => {
                        // Snapshot hook: restore-or-defer dead state, then
                        // capture + journal writes — before the handler
                        // runs (and before any RNG draw, so a deferred
                        // execute replays identically).
                        let (snap_cpu, snap_wait) = if self.snap.is_some() && primary {
                            match self.snapshot_touch(now, server, msg.to.0, msg.tag) {
                                SnapTouch::Proceed {
                                    cpu_ns,
                                    blocking_ns,
                                } => (cpu_ns, blocking_ns),
                                SnapTouch::Defer(backoff) => {
                                    return (
                                        self.config.costs.dispatch_fixed_ns,
                                        0.0,
                                        PostAction::SnapshotDefer { msg, backoff },
                                        msg.request,
                                    );
                                }
                            }
                        } else {
                            (0.0, 0.0)
                        };
                        let reaction = self.app.on_request(msg.to, msg.tag, &mut self.rng_app);
                        if self.config.replication.is_some() {
                            // Feed the split detector: service demand per
                            // activation over the current window.
                            self.servers[server]
                                .load_sketch
                                .offer(msg.to, reaction.cpu_ns as u64);
                        }
                        (
                            reaction.cpu_ns + local_copy + snap_cpu,
                            reaction.blocking_ns + snap_wait,
                            PostAction::ApplyRequest { msg, reaction },
                            msg.request,
                        )
                    }
                    MsgKind::Response { .. } => (
                        self.app.continuation_cpu_ns() + local_copy,
                        0.0,
                        PostAction::ApplyResponse(msg),
                        msg.request,
                    ),
                }
            }
            StageItem::SerializeRemote { dst, msg } => (
                costs.serialize_ns(msg.bytes),
                0.0,
                PostAction::NetSend { dst, msg },
                msg.request,
            ),
            StageItem::SerializeClient { request, bytes } => (
                costs.serialize_ns(bytes),
                0.0,
                PostAction::ClientReply { request, bytes },
                request,
            ),
        }
    }

    /// Re-arms the pending CPU-completion event to the CPU's current next
    /// completion time.
    ///
    /// Each server keeps exactly one provisional completion event alive.
    /// Under processor sharing, every runnable-set change moves the next
    /// completion time, so this is the hottest queue operation in the
    /// simulator: the event is retargeted in place with
    /// [`Engine::reschedule`] (and scheduled as an allocation-free tick),
    /// never cancelled-and-reboxed.
    fn sync_cpu(&mut self, engine: &mut Engine<Cluster>, server: usize) {
        let next = self.attr.time(Subsystem::Cpu, || {
            self.servers[server].cpu.next_completion()
        });
        match (self.servers[server].cpu_event, next) {
            (Some((at, _)), Some(target)) if at == target => {}
            (Some((_, id)), Some(target)) => {
                engine.reschedule(id, target);
                self.servers[server].cpu_event = Some((target, id));
            }
            (Some((_, id)), None) => {
                engine.cancel(id);
                self.servers[server].cpu_event = None;
            }
            (None, Some(target)) => {
                let id = engine.schedule_tick(target, Self::cpu_tick, server as u64);
                self.servers[server].cpu_event = Some((target, id));
            }
            (None, None) => {}
        }
    }

    /// The CPU-completion event in tick form (payload = server index), so
    /// arming a provisional completion never allocates.
    fn cpu_tick(cluster: &mut Cluster, engine: &mut Engine<Cluster>, server: u64) {
        cluster.cpu_done(engine, server as usize);
    }

    /// The CPU-completion event: collect finished compute phases, run their
    /// blocking waits (if any), finish tasks, and pump.
    fn cpu_done(&mut self, engine: &mut Engine<Cluster>, server: usize) {
        if self.failed[server] {
            return; // The event raced with a crash; the work is gone.
        }
        self.servers[server].cpu_event = None;
        let now = engine.now();
        let mut done = std::mem::take(&mut self.cpu_done_buf);
        self.attr.time(Subsystem::Cpu, || {
            self.servers[server].cpu.drain_completed(now, &mut done)
        });
        for task in done.drain(..) {
            if task.wait_ns > 0.0 {
                let wait = Nanos::from_nanos_f64(task.wait_ns);
                engine.schedule_after(wait, move |c: &mut Cluster, e| {
                    c.task_finished(e, server, task);
                });
            } else {
                self.task_finished(engine, server, task);
            }
        }
        self.cpu_done_buf = done;
        self.pump(engine, server);
    }

    /// A stage task fully finished (compute + blocking wait): free the
    /// thread, record the estimator window, apply the completion action.
    fn task_finished(&mut self, engine: &mut Engine<Cluster>, server: usize, task: RunningTask) {
        if self.failed[server] {
            return; // A blocking wait outlived its server's crash.
        }
        let now = engine.now();
        self.servers[server].stages[task.stage].finish(now);
        let window = &mut self.servers[server].windows[task.stage];
        window.completions += 1;
        window.sum_wallclock_ns += (now - task.started).as_nanos() as f64;
        window.sum_cpu_ns += task.cpu_ns;
        if self.config.record_breakdown {
            self.account(
                task.request,
                PROC_LABEL[task.stage],
                (now - task.started).as_nanos() as f64,
            );
        }
        if self.trace.enabled() {
            self.record_span(SpanEvent {
                request: task.request.0,
                kind: HopKind::Service,
                server: server as u32,
                stage: task.stage as u8,
                aux: 0,
                t_start: task.started,
                t_end: now,
            });
        }
        match task.post {
            PostAction::RouteToWorker(msg) => {
                self.enqueue(
                    engine,
                    server,
                    StageKind::Worker.index(),
                    StageItem::Execute(msg),
                );
            }
            PostAction::ApplyRequest { msg, reaction } => {
                self.apply_request(engine, server, msg, reaction);
            }
            PostAction::ApplyResponse(msg) => {
                self.apply_response(engine, server, msg);
            }
            PostAction::Forward(msg) => {
                self.forward(engine, server, msg);
            }
            PostAction::NetSend { dst, msg } => {
                self.net_send(engine, server, dst, msg);
            }
            PostAction::ClientReply { request, bytes } => {
                let delay = self.config.costs.network.delay(&mut self.rng_net, bytes);
                self.account(request, "Network", delay.as_nanos() as f64);
                if self.trace.enabled() {
                    self.record_span(SpanEvent {
                        request: request.0,
                        kind: HopKind::Network,
                        server: server as u32,
                        stage: NO_STAGE,
                        aux: NO_SERVER as u64,
                        t_start: now,
                        t_end: now + delay,
                    });
                }
                engine.schedule_after(delay, move |c: &mut Cluster, e| {
                    c.complete_request(e.now(), request);
                });
            }
            PostAction::SnapshotDefer { msg, backoff } => {
                self.snapshot_defer(engine, server, msg, backoff);
            }
        }
        self.pump(engine, server);
    }

    /// Puts a server-to-server message on the wire: draws the network
    /// delay, then applies any installed link fault (drop or extra delay)
    /// on the pair. The base delay is always drawn first so fault-free
    /// pairs consume the net RNG stream exactly as before.
    fn net_send(&mut self, engine: &mut Engine<Cluster>, src: usize, dst: usize, msg: Message) {
        let now = engine.now();
        let mut delay = self
            .config
            .costs
            .network
            .delay(&mut self.rng_net, msg.bytes);
        if let Some(fault) = self.link_fault(src, dst) {
            if fault.drop_prob > 0.0 && self.rng_fault.chance(fault.drop_prob) {
                self.metrics.net_dropped += 1;
                if self.trace.enabled() {
                    self.record_span(SpanEvent::instant(
                        msg.request.0,
                        HopKind::MsgLost,
                        dst as u32,
                        src as u64,
                        now,
                    ));
                }
                match msg.kind {
                    MsgKind::Request { .. } => self.schedule_retry(engine, msg, dst),
                    // A dropped response is silently lost; the root
                    // request resolves via its client timeout.
                    MsgKind::Response { .. } => {}
                }
                return;
            }
            delay += fault.extra_delay;
        }
        self.account(msg.request, "Network", delay.as_nanos() as f64);
        if self.trace.enabled() {
            self.record_span(SpanEvent {
                request: msg.request.0,
                kind: HopKind::Network,
                server: src as u32,
                stage: NO_STAGE,
                aux: dst as u64,
                t_start: now,
                t_end: now + delay,
            });
        }
        if let Some(snap) = self.snap.as_mut() {
            let n = self.servers.len();
            snap.link_sent[src * n + dst] += 1;
        }
        engine.schedule_after(delay, move |c: &mut Cluster, e| {
            if let Some(snap) = c.snap.as_mut() {
                // Delivered (not processed): on-the-wire accounting only,
                // so queue losses in a crash never skew the counters.
                let n = c.servers.len();
                snap.link_recv[src * n + dst] += 1;
            }
            if !c.failed[dst] && matches!(msg.kind, MsgKind::Response { .. }) {
                // Service-time suspicion feed: a response delivery is an
                // observed ack of the call issued at `msg.issued_at`.
                // Inert (no state, no draws) unless `detector.rt` is set.
                let rt = e.now().saturating_sub(msg.issued_at).as_nanos();
                if let Some(d) = c.detector.as_mut() {
                    d.note_service_ack(dst, src, rt);
                }
            }
            c.wire_arrive(e, dst, msg);
        });
    }

    /// Applies a request handler's decision.
    fn apply_request(
        &mut self,
        engine: &mut Engine<Cluster>,
        server: usize,
        msg: Message,
        reaction: Reaction,
    ) {
        let MsgKind::Request { reply_to } = msg.kind else {
            unreachable!("apply_request on a response");
        };
        if self.requests.get(msg.request.0).is_none() {
            // The root request resolved (timed out / shed) while this
            // branch sat in queues or retries. Dropping it here keeps
            // abandoned requests from minting fresh joins after the
            // timeout purge, so the call tables always drain.
            self.metrics.zombie_branches += 1;
            return;
        }
        match reaction.outcome {
            Outcome::Reply { bytes } => {
                self.emit_reply(
                    engine,
                    server,
                    msg.to,
                    reply_to,
                    bytes,
                    msg.request,
                    msg.issued_at,
                    msg.call_was_remote,
                );
            }
            Outcome::FanOut { calls, reply_bytes } => {
                if calls.is_empty() {
                    self.emit_reply(
                        engine,
                        server,
                        msg.to,
                        reply_to,
                        reply_bytes,
                        msg.request,
                        msg.issued_at,
                        msg.call_was_remote,
                    );
                    return;
                }
                let cid = CallId(self.joins.insert(PendingJoin {
                    reply_to,
                    actor: msg.to,
                    remaining: calls.len(),
                    reply_bytes,
                    request: msg.request,
                    issued_at: msg.issued_at,
                    call_was_remote: msg.call_was_remote,
                }));
                for call in calls {
                    self.send_request(
                        engine,
                        server,
                        msg.to,
                        call,
                        ReplyTarget::Join(cid),
                        msg.request,
                    );
                }
            }
        }
    }

    /// Issues an actor-to-actor request.
    fn send_request(
        &mut self,
        engine: &mut Engine<Cluster>,
        server: usize,
        from: ActorId,
        call: Call,
        reply_to: ReplyTarget,
        request: RequestId,
    ) {
        let now = engine.now();
        let dst = self.route_request(now, call.to, call.tag, request, server);
        let remote = dst != server;
        self.note_actor_message(now, server, dst, from, call.to);
        if self.trace.enabled() {
            let kind = if remote {
                HopKind::RemoteDispatch
            } else {
                HopKind::LocalDispatch
            };
            self.record_span(SpanEvent {
                request: request.0,
                kind,
                server: server as u32,
                stage: NO_STAGE,
                aux: dst as u64,
                t_start: now,
                t_end: now,
            });
        }
        let msg = Message {
            to: call.to,
            tag: call.tag,
            bytes: call.bytes,
            kind: MsgKind::Request { reply_to },
            request,
            issued_at: now,
            delivered_remotely: remote,
            from_actor: Some(from),
            forwarded: false,
            call_was_remote: remote,
            attempts: 0,
            hops: 0,
        };
        if remote {
            self.enqueue(
                engine,
                server,
                StageKind::ServerSender.index(),
                StageItem::SerializeRemote { dst, msg },
            );
        } else {
            self.enqueue(
                engine,
                server,
                StageKind::Worker.index(),
                StageItem::Execute(msg),
            );
        }
    }

    /// Folds a sub-call response into its join; emits the actor's own reply
    /// when the join completes.
    fn apply_response(&mut self, engine: &mut Engine<Cluster>, server: usize, msg: Message) {
        let MsgKind::Response { target } = msg.kind else {
            unreachable!("apply_response on a request");
        };
        let now = engine.now();
        if self.config.record_remote_call_latency && msg.call_was_remote {
            self.metrics
                .remote_call_latency
                .record((now - msg.issued_at).as_nanos());
        }
        let Some(join) = self.joins.get_mut(target.0) else {
            // The join was lost (crash) or abandoned (timeout).
            self.metrics.stale_responses += 1;
            self.note_stale_response(now, msg.request, server);
            return;
        };
        join.remaining -= 1;
        if join.remaining == 0 {
            let join = self.joins.remove(target.0).expect("join present");
            self.emit_reply(
                engine,
                server,
                join.actor,
                join.reply_to,
                join.reply_bytes,
                join.request,
                join.issued_at,
                join.call_was_remote,
            );
        }
    }

    /// Sends an actor's reply to its caller (client or awaiting join).
    #[allow(clippy::too_many_arguments)]
    fn emit_reply(
        &mut self,
        engine: &mut Engine<Cluster>,
        server: usize,
        from: ActorId,
        reply_to: ReplyTarget,
        bytes: u64,
        request: RequestId,
        orig_issued_at: Nanos,
        orig_was_remote: bool,
    ) {
        match reply_to {
            ReplyTarget::Client(rid) => {
                self.enqueue(
                    engine,
                    server,
                    StageKind::ClientSender.index(),
                    StageItem::SerializeClient {
                        request: rid,
                        bytes,
                    },
                );
            }
            ReplyTarget::Join(cid) => {
                let Some(join) = self.joins.get(cid.0) else {
                    self.metrics.stale_responses += 1;
                    self.note_stale_response(engine.now(), request, server);
                    return;
                };
                let target_actor = join.actor;
                let now = engine.now();
                let dst = self.resolve(now, target_actor, Some(server));
                let remote = dst != server;
                self.note_actor_message(now, server, dst, from, target_actor);
                let msg = Message {
                    to: target_actor,
                    tag: 0,
                    bytes,
                    kind: MsgKind::Response { target: cid },
                    request,
                    issued_at: orig_issued_at,
                    delivered_remotely: remote,
                    from_actor: Some(from),
                    forwarded: false,
                    call_was_remote: orig_was_remote || remote,
                    attempts: 0,
                    hops: 0,
                };
                if remote {
                    self.enqueue(
                        engine,
                        server,
                        StageKind::ServerSender.index(),
                        StageItem::SerializeRemote { dst, msg },
                    );
                } else {
                    self.enqueue(
                        engine,
                        server,
                        StageKind::Worker.index(),
                        StageItem::Execute(msg),
                    );
                }
            }
        }
    }

    /// Re-routes a message whose target actor is not hosted on `server`
    /// (gateway hops, stale deliveries after migration).
    fn forward(&mut self, engine: &mut Engine<Cluster>, server: usize, mut msg: Message) {
        msg.hops = msg.hops.saturating_add(1);
        if msg.hops > MAX_FORWARD_HOPS {
            // Routing ping-pong (split-brain suspicion): cut the loop and
            // let the client timeout resolve the request.
            self.metrics.forward_loop_drops += 1;
            if self.trace.enabled() {
                self.record_span(SpanEvent::instant(
                    msg.request.0,
                    HopKind::MsgLost,
                    server as u32,
                    u64::from(msg.hops),
                    engine.now(),
                ));
            }
            return;
        }
        self.metrics.forwarded_messages += 1;
        msg.forwarded = true;
        let dst = match msg.kind {
            MsgKind::Request { .. } => {
                self.route_request(engine.now(), msg.to, msg.tag, msg.request, server)
            }
            MsgKind::Response { .. } => self.resolve(engine.now(), msg.to, Some(server)),
        };
        if self.trace.enabled() {
            self.record_span(SpanEvent::instant(
                msg.request.0,
                HopKind::Forward,
                server as u32,
                dst as u64,
                engine.now(),
            ));
        }
        if dst == server {
            self.enqueue(
                engine,
                server,
                StageKind::Worker.index(),
                StageItem::Execute(msg),
            );
        } else {
            self.enqueue(
                engine,
                server,
                StageKind::ServerSender.index(),
                StageItem::SerializeRemote { dst, msg },
            );
        }
    }

    /// Records an actor-to-actor message in the locality metrics and both
    /// endpoint servers' edge sketches.
    fn note_actor_message(
        &mut self,
        now: Nanos,
        src_server: usize,
        dst_server: usize,
        from: ActorId,
        to: ActorId,
    ) {
        let remote = src_server != dst_server;
        if remote {
            self.metrics.remote_messages += 1;
        } else {
            self.metrics.local_messages += 1;
        }
        self.metrics
            .remote_share_series
            .record(now.as_nanos(), if remote { 1.0 } else { 0.0 });
        let t = self.attr.begin(Subsystem::Sketch);
        self.servers[src_server].edge_sketch.offer((from, to), 1);
        self.servers[dst_server].edge_sketch.offer((to, from), 1);
        self.attr.end(Subsystem::Sketch, t);
    }

    /// Routes a request about to be dispatched: read-tagged requests on
    /// replicated actors spread across live activations by seeded
    /// rendezvous hashing; writes (and everything else, including every
    /// request while replication is off) take the plain [`Cluster::resolve`]
    /// path to the primary.
    fn route_request(
        &mut self,
        now: Nanos,
        actor: ActorId,
        tag: u32,
        request: RequestId,
        origin: usize,
    ) -> usize {
        if let Some(rep) = self.config.replication {
            if self.directory.has_replicas() && rep.is_read(u64::from(tag)) {
                if let Some(dst) = self.route_read(now, actor, request, origin) {
                    return dst;
                }
            }
        }
        self.resolve(now, actor, Some(origin))
    }

    /// Rendezvous selection over the live activations of a replicated
    /// actor. `None` when the actor is unsplit (or no candidate survives
    /// suspicion filtering) — the caller falls back to `resolve`.
    ///
    /// Selection is a pure hash of `(request, actor, candidate)`: each
    /// request lands on a stable activation (forward chains terminate) and
    /// the population of requests spreads near-uniformly, with no RNG
    /// stream drawn — replication-off runs stay byte-identical.
    ///
    /// Liveness is the origin's *suspicion*, exactly as in `resolve`: a
    /// suspected replica is dropped from the directory at routing time —
    /// the replica-set mirror of the `DirRepair` path for primaries.
    fn route_read(
        &mut self,
        now: Nanos,
        actor: ActorId,
        request: RequestId,
        origin: usize,
    ) -> Option<usize> {
        let primary = self.directory.server_of(actor.0)?;
        let reps = self.directory.replicas_of(actor.0);
        if reps.is_empty() {
            return None;
        }
        let reps: Vec<u32> = reps.to_vec();
        let mut candidates: Vec<u32> = Vec::with_capacity(reps.len() + 1);
        if origin == primary || !self.suspects(origin, primary, now) {
            candidates.push(primary as u32);
        }
        for r in reps {
            let rs = r as usize;
            if origin != rs && self.suspects(origin, rs, now) {
                self.directory.drop_replica(actor.0, rs);
                self.metrics.replica_drops += 1;
                if self.trace.enabled() {
                    // Lifecycle event: `request` carries the actor id,
                    // `server` the primary, `aux` the dropped replica.
                    self.record_span(SpanEvent::instant(
                        actor.0,
                        HopKind::ReplicaDrop,
                        primary as u32,
                        u64::from(r),
                        now,
                    ));
                }
            } else {
                candidates.push(r);
            }
        }
        if candidates.is_empty() {
            return None;
        }
        let salt = mix64(request.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ actor.0);
        candidates
            .into_iter()
            .max_by_key(|&c| mix64(salt ^ (u64::from(c) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .map(|c| c as usize)
    }

    /// Resolves the hosting server for `actor`, activating it if needed:
    /// the directory wins; otherwise the origin server's location hint
    /// (left by a migration, §4.3); otherwise the placement policy.
    ///
    /// Liveness knowledge is the origin server's *suspicion* (its failure
    /// detector under `config.detector`, ground truth otherwise): a
    /// directory entry pointing at a suspected host is repaired — dropped
    /// so the actor re-places — and hints/targets on suspected servers are
    /// skipped. False suspicion therefore causes real, counted damage.
    fn resolve(&mut self, now: Nanos, actor: ActorId, origin: Option<usize>) -> usize {
        let t = self.attr.begin(Subsystem::Routing);
        let target = self.resolve_inner(now, actor, origin);
        self.attr.end(Subsystem::Routing, t);
        target
    }

    /// [`Cluster::resolve`] without the cost-attribution wrapper.
    fn resolve_inner(&mut self, now: Nanos, actor: ActorId, origin: Option<usize>) -> usize {
        if let Some(server) = self.directory.server_of(actor.0) {
            let repair = match origin {
                Some(o) if o != server => self.suspects(o, server, now),
                _ => false,
            };
            if !repair {
                return server;
            }
            self.metrics.directory_repairs += 1;
            if !self.failed[server] {
                self.metrics.false_suspicion_repairs += 1;
                self.metrics.false_suspicion_series.mark(now.as_nanos());
            }
            if self.trace.enabled() {
                // Lifecycle event: `request` carries the actor id,
                // `server` the observer, `aux` the suspected host.
                self.record_span(SpanEvent::instant(
                    actor.0,
                    HopKind::DirRepair,
                    origin.expect("repair implies an origin") as u32,
                    server as u64,
                    now,
                ));
            }
            self.directory.remove(actor.0);
            // Fall through: re-place on a trusted server.
        }
        let mut hinted = None;
        if let Some(o) = origin {
            if let Some(hint) = self.servers[o].take_location_hint(&actor) {
                if !self.suspects(o, hint, now) {
                    hinted = Some(hint);
                }
            }
        }
        let preferred = hinted.unwrap_or_else(|| {
            self.config.placement.choose(
                actor,
                origin.filter(|&o| !self.failed[o]),
                self.servers.len(),
                &mut self.rng_place,
            )
        });
        let target = match (origin, self.detector.is_some()) {
            (Some(o), true) => self.next_unsuspected(o, preferred, now),
            // No detector (or no observer): ground truth, as before. The
            // fallback to `preferred` is unreachable while any caller is
            // itself a live server, but sheds gracefully instead of
            // panicking if that ever changes.
            _ => self.try_next_live(preferred).unwrap_or(preferred),
        };
        self.directory.place(actor.0, target);
        target
    }

    /// Whether `observer` currently distrusts `peer`: the failure
    /// detector's suspicion when configured (transitions are counted and
    /// traced here), ground truth otherwise.
    fn suspects(&mut self, observer: usize, peer: usize, now: Nanos) -> bool {
        if self.detector.is_none() {
            return self.failed[peer];
        }
        let t = self.attr.begin(Subsystem::Detector);
        let (suspected, transition) = self
            .detector
            .as_mut()
            .expect("checked above")
            .check(observer, peer, now);
        self.attr.end(Subsystem::Detector, t);
        if let Some(tr) = transition {
            self.note_suspicion_transition(tr, observer, peer, now);
        }
        suspected
    }

    /// Counts and traces a suspicion-state transition.
    fn note_suspicion_transition(
        &mut self,
        t: Transition,
        observer: usize,
        peer: usize,
        at: Nanos,
    ) {
        match t {
            Transition::Suspected => {
                self.metrics.suspicions += 1;
                if self.trace.enabled() {
                    // Lifecycle event: `request` carries the suspected
                    // server id, `server` the observer.
                    self.record_span(SpanEvent::instant(
                        peer as u64,
                        HopKind::Suspect,
                        observer as u32,
                        0,
                        at,
                    ));
                    self.trace
                        .flight_dump(HopKind::Suspect, peer as u64, observer as u32, at);
                }
            }
            Transition::Cleared => {
                self.metrics.unsuspicions += 1;
                if self.trace.enabled() {
                    self.record_span(SpanEvent::instant(
                        peer as u64,
                        HopKind::Unsuspect,
                        observer as u32,
                        0,
                        at,
                    ));
                }
            }
        }
    }

    /// The first server at or after `preferred` (wrapping) that `observer`
    /// does not suspect; `preferred` itself when the observer suspects the
    /// whole cluster (desperation beats deadlock — the delivery will fail
    /// and retry).
    fn next_unsuspected(&mut self, observer: usize, preferred: usize, now: Nanos) -> usize {
        let n = self.servers.len();
        for i in 0..n {
            let s = (preferred + i) % n;
            if !self.suspects(observer, s, now) {
                return s;
            }
        }
        preferred
    }

    /// Completes a client request: the response reached the client.
    fn complete_request(&mut self, now: Nanos, request: RequestId) {
        let Some(meta) = self.requests.remove(request.0) else {
            return;
        };
        self.metrics.completed += 1;
        if self.trace.enabled() {
            self.record_span(SpanEvent::instant(
                request.0,
                HopKind::ClientDone,
                NO_SERVER,
                0,
                now,
            ));
        }
        let total = (now - meta.start).as_nanos();
        self.metrics.e2e_latency.record(total);
        self.metrics
            .latency_series
            .record(now.as_nanos(), total as f64);
        if let Some(obs) = self.obs.as_mut() {
            obs.observe_latency(total);
        }
        if self.config.record_breakdown {
            let other = (total as f64 - meta.accounted_ns).max(0.0);
            self.metrics.breakdown.add("Other", other);
            self.metrics.breakdown.finish_request();
        }
    }

    /// Records a stale-response trace instant (the join or request the
    /// response targeted is gone — crash, timeout, or shed).
    #[cold]
    #[inline(never)]
    fn note_stale_response(&mut self, now: Nanos, request: RequestId, server: usize) {
        if self.trace.enabled() {
            self.record_span(SpanEvent::instant(
                request.0,
                HopKind::StaleResponse,
                server as u32,
                0,
                now,
            ));
        }
    }

    /// Attributes `ns` of a request's latency to a named component.
    fn account(&mut self, request: RequestId, component: &'static str, ns: f64) {
        if !self.config.record_breakdown {
            return;
        }
        self.metrics.breakdown.add(component, ns);
        if let Some(meta) = self.requests.get_mut(request.0) {
            meta.accounted_ns += ns;
        }
    }

    // ------------------------------------------------------------------
    // ActOp hooks (what the controllers drive).
    // ------------------------------------------------------------------

    /// The server's partition view: its hosted actors with their sampled
    /// edges, sorted by actor for determinism. This is the input the
    /// distributed partitioner's candidate-set selection consumes.
    pub fn partition_view(&self, server: usize) -> Vec<(ActorId, Vec<(ActorId, u64)>)> {
        let sketch = &self.servers[server].edge_sketch;
        let mut by_actor: FxHashMap<ActorId, Vec<(ActorId, u64)>> =
            fx_map_with_capacity(sketch.len());
        for entry in sketch.iter_entries() {
            let (local, peer) = entry.item;
            if self.directory.server_of(local.0) == Some(server) {
                by_actor.entry(local).or_default().push((peer, entry.count));
            }
        }
        let mut out: Vec<(ActorId, Vec<(ActorId, u64)>)> = by_actor.into_iter().collect();
        out.sort_unstable_by_key(|(a, _)| *a);
        for (_, edges) in &mut out {
            edges.sort_unstable_by_key(|&(peer, _)| peer);
        }
        out
    }

    /// Actors hosted per server (the balance-constraint input).
    pub fn server_sizes(&self) -> Vec<usize> {
        self.directory.sizes().to_vec()
    }

    /// Where an actor currently lives (directory view).
    pub fn locate(&self, actor: ActorId) -> Option<usize> {
        self.directory.server_of(actor.0)
    }

    /// The measured migration-cost signals the cost-aware repartitioning
    /// objective consumes: cumulative migrations and transfer-window
    /// stall, an upper bound on move-attributable repair traffic, the
    /// configured transfer window (the estimate's prior), and the CPU
    /// overhead of one remote message at a typical payload (the exchange
    /// rate from stall time into score units).
    pub fn migration_cost_signals(&self) -> CostSignals {
        CostSignals {
            migrations: self.metrics.migrations,
            stall_ns: self.metrics.migration_stall_ns,
            repair_msgs: self.metrics.directory_repairs
                + self.metrics.stale_responses
                + self.metrics.forwarded_messages,
            transfer_ns: self.config.migration_transfer.map_or(0, |t| t.as_nanos()),
            remote_cost_ns: self.config.costs.remote_overhead_ns(600).max(0.0) as u64,
        }
    }

    /// Applies an exchange outcome from the pairwise protocol: accepted
    /// actors migrate initiator → responder, returned actors the other way.
    ///
    /// `now` is passed explicitly (rather than read from the engine) so
    /// controller code can stamp the exchange with its own window time.
    pub fn apply_exchange(
        &mut self,
        engine: &mut Engine<Cluster>,
        now: Nanos,
        initiator: usize,
        responder: usize,
        outcome: &ExchangeOutcome<ActorId>,
    ) {
        for actor in &outcome.accepted {
            self.migrate_actor(engine, now, *actor, responder);
        }
        for actor in &outcome.returned {
            self.migrate_actor(engine, now, *actor, initiator);
        }
        let ns = now.as_nanos();
        self.servers[initiator].last_exchange_ns = Some(ns);
        self.servers[responder].last_exchange_ns = Some(ns);
    }

    /// Migrates an actor. With `config.migration_transfer` unset the move
    /// commits instantly (the legacy model); otherwise the actor stays at
    /// its source for the transfer window and commits when it elapses — a
    /// crash of either endpoint during the window aborts the move cleanly
    /// back to the source (see [`Cluster::fail_server`]).
    pub fn migrate_actor(
        &mut self,
        engine: &mut Engine<Cluster>,
        now: Nanos,
        actor: ActorId,
        to: usize,
    ) {
        let Some(from) = self.directory.server_of(actor.0) else {
            return;
        };
        if from == to {
            return;
        }
        // Replicated actors pin their primary: their load moves by
        // splitting and dropping replicas, not by migration (and a
        // deactivation would discard the whole replica set).
        if self.directory.is_replicated(actor.0)
            || (!self.splits_in_flight.is_empty() && self.splits_in_flight.contains_key(&actor.0))
        {
            return;
        }
        match self.config.migration_transfer {
            None => self.commit_migration(now, actor, from, to),
            Some(transfer) => {
                if self.migrations_in_flight.contains_key(&actor.0)
                    || self.failed[from]
                    || self.failed[to]
                {
                    return;
                }
                self.migrations_in_flight
                    .insert(actor.0, (from as u32, to as u32));
                engine.schedule_after(transfer, move |c: &mut Cluster, e| {
                    c.finish_migration(e.now(), actor);
                });
            }
        }
    }

    /// A migration transfer window elapsed: commit unless a crash aborted
    /// it (entry gone) or the actor moved on in the meantime.
    fn finish_migration(&mut self, now: Nanos, actor: ActorId) {
        let Some((from, to)) = self.migrations_in_flight.remove(&actor.0) else {
            return; // Aborted by fail_server.
        };
        if self.directory.server_of(actor.0) == Some(from as usize)
            && !self.directory.is_replicated(actor.0)
        {
            self.commit_migration(now, actor, from as usize, to as usize);
            // The actor sat pinned at its source for the whole transfer
            // window — the stall the cost-aware objective charges moves.
            if let Some(transfer) = self.config.migration_transfer {
                self.metrics.migration_stall_ns += transfer.as_nanos();
            }
        }
    }

    /// Commits a migration by deactivation + opportunistic re-placement
    /// (§4.3): the directory entry is dropped and both the old and the new
    /// server cache the intended location; the next message re-activates
    /// the actor — at the intended server when it originates from either of
    /// the two, at the originating server otherwise.
    fn commit_migration(&mut self, now: Nanos, actor: ActorId, from: usize, to: usize) {
        if self.trace.enabled() {
            // Lifecycle event: bypasses request sampling; `request` carries
            // the actor id, `aux` the destination server.
            self.record_span(SpanEvent::instant(
                actor.0,
                HopKind::Migration,
                from as u32,
                to as u64,
                now,
            ));
        }
        self.directory.remove(actor.0);
        self.servers[from].cache_location(actor, to);
        self.servers[to].cache_location(actor, to);
        if let Some(snap) = self.snap.as_mut() {
            // The state cell travels with the activation (the transfer
            // window already modeled the copy); the hint self-heals at
            // the next touch if re-activation lands elsewhere.
            if let Some(entry) = snap.cells.get_mut(&actor.0) {
                entry.0 = to as u32;
            }
        }
        self.servers[from]
            .edge_sketch
            .retain(|&(local, _)| local != actor);
        self.metrics.migrations += 1;
        self.metrics.migration_series.mark(now.as_nanos());
    }

    /// Adds a read replica of `actor` on `to` (a hot-actor split). With
    /// `config.migration_transfer` unset the replica materializes
    /// instantly; otherwise after the transfer window — the same state
    /// copy a migration pays — during which a crash of either endpoint
    /// aborts the split cleanly (see [`Cluster::fail_server`]).
    pub fn split_actor(
        &mut self,
        engine: &mut Engine<Cluster>,
        now: Nanos,
        actor: ActorId,
        to: usize,
    ) {
        let Some(from) = self.directory.server_of(actor.0) else {
            return;
        };
        if from == to
            || self.directory.replica_hosted(actor.0, to)
            || self.splits_in_flight.contains_key(&actor.0)
            || self.migrations_in_flight.contains_key(&actor.0)
            || self.failed[to]
        {
            return;
        }
        match self.config.migration_transfer {
            None => self.commit_split(now, actor, from, to),
            Some(transfer) => {
                self.splits_in_flight
                    .insert(actor.0, (from as u32, to as u32));
                engine.schedule_after(transfer, move |c: &mut Cluster, e| {
                    c.finish_split(e.now(), actor);
                });
            }
        }
    }

    /// A split transfer window elapsed: commit unless a crash aborted it
    /// (entry gone), the primary moved, or the replica already exists.
    fn finish_split(&mut self, now: Nanos, actor: ActorId) {
        let Some((from, to)) = self.splits_in_flight.remove(&actor.0) else {
            return; // Aborted by fail_server.
        };
        if self.directory.server_of(actor.0) == Some(from as usize)
            && !self.directory.replica_hosted(actor.0, to as usize)
        {
            self.commit_split(now, actor, from as usize, to as usize);
        }
    }

    /// Commits a split: the replica activation appears in the directory
    /// and rendezvous routing starts spreading reads over it.
    fn commit_split(&mut self, now: Nanos, actor: ActorId, from: usize, to: usize) {
        if self.trace.enabled() {
            // Lifecycle event: `request` carries the actor id, `server`
            // the primary, `aux` the replica's server.
            self.record_span(SpanEvent::instant(
                actor.0,
                HopKind::Split,
                from as u32,
                to as u64,
                now,
            ));
        }
        self.directory.add_replica(actor.0, to);
        self.metrics.splits += 1;
    }

    /// Drops the replica activation of `actor` on `server` (a no-op when
    /// absent, so crash cleanup can sweep unconditionally).
    pub fn drop_replica_actor(&mut self, now: Nanos, actor: ActorId, server: usize) {
        let primary = self.directory.server_of(actor.0);
        if self.directory.drop_replica(actor.0, server) {
            self.metrics.replica_drops += 1;
            if self.trace.enabled() {
                // Lifecycle event: same field conventions as `Split`.
                self.record_span(SpanEvent::instant(
                    actor.0,
                    HopKind::ReplicaDrop,
                    primary.map_or(NO_SERVER, |p| p as u32),
                    server as u64,
                    now,
                ));
            }
        }
    }

    /// Number of splits currently in transfer.
    pub fn splits_in_flight(&self) -> usize {
        self.splits_in_flight.len()
    }

    /// Drains the per-stage observation windows of a server.
    pub fn drain_stage_stats(&mut self, now: Nanos, server: usize) -> [StageReport; 4] {
        let mut out = [StageReport {
            arrivals: 0,
            completions: 0,
            window: Nanos::ZERO,
            sum_wallclock_ns: 0.0,
            sum_cpu_ns: 0.0,
            mean_queue_len: 0.0,
        }; 4];
        for (i, report) in out.iter_mut().enumerate() {
            let pool_stats = self.servers[server].stages[i].drain_stats(now);
            let window = std::mem::take(&mut self.servers[server].windows[i]);
            *report = StageReport {
                arrivals: pool_stats.arrivals,
                completions: window.completions,
                window: pool_stats.window,
                sum_wallclock_ns: window.sum_wallclock_ns,
                sum_cpu_ns: window.sum_cpu_ns,
                mean_queue_len: pool_stats.mean_queue_len(),
            };
        }
        out
    }

    /// Reconfigures a server's per-stage thread allocation, in stage order.
    pub fn set_stage_threads(
        &mut self,
        engine: &mut Engine<Cluster>,
        server: usize,
        allocation: [usize; 4],
    ) {
        let now = engine.now();
        for (i, &threads) in allocation.iter().enumerate() {
            self.servers[server].stages[i].set_threads(now, threads);
        }
        // The multithreading-overhead tax follows the configured total.
        let total: usize = allocation.iter().sum();
        self.servers[server].cpu.set_configured_threads(now, total);
        // Extra threads may unblock queued work immediately (and the CPU
        // completion event must be re-armed for the new rates).
        self.pump(engine, server);
    }

    /// Multiplies every server's edge-sketch counters by `factor`, aging
    /// out stale communication history.
    pub fn age_edge_sketches(&mut self, factor: f64) {
        for server in &mut self.servers {
            server.edge_sketch.scale(factor);
        }
    }

    /// Snapshot of a server's cumulative busy core-nanoseconds (pair two
    /// snapshots to compute utilization over a window).
    pub fn busy_core_ns(&self, server: usize) -> f64 {
        self.servers[server].cpu.busy_core_ns()
    }

    /// Mean CPU utilization across all servers over `[since, now]`, given
    /// the per-server snapshots taken at `since`.
    pub fn mean_utilization(&self, snapshots: &[f64], since: Nanos, now: Nanos) -> f64 {
        assert_eq!(snapshots.len(), self.servers.len(), "snapshot per server");
        let sum: f64 = self
            .servers
            .iter()
            .zip(snapshots)
            .map(|(s, &snap)| s.cpu.utilization_since(snap, since, now))
            .sum();
        sum / self.servers.len() as f64
    }

    /// Installs the configured stop-the-world pause model (if any):
    /// schedules an independent pause/resume loop per server until
    /// `horizon`. Call once after constructing the engine; a no-op when
    /// `config.hiccups` is `None`. The horizon keeps the event queue
    /// drainable — without it the pause loop would keep the simulation
    /// alive forever.
    pub fn install_hiccups(&self, engine: &mut Engine<Cluster>, horizon: Nanos) {
        let Some(model) = self.config.hiccups else {
            return;
        };
        for server in 0..self.servers.len() {
            let rng = DetRng::stream(self.config.seed, 0x500 + server as u64);
            schedule_next_hiccup(engine, server, model, rng, horizon);
        }
    }

    /// Installs the per-server timeline sampler: every
    /// [`actop_trace::TraceConfig::timeline_bin`] it snapshots each
    /// server's queue depths, busy/configured threads, and busy-core
    /// utilization over the elapsed bin into the tracer's timeline. A
    /// no-op when tracing is disabled, so it never perturbs untraced
    /// runs; the horizon keeps the event queue drainable.
    pub fn install_timeline_sampler(&self, engine: &mut Engine<Cluster>, horizon: Nanos) {
        if !self.trace.enabled() || self.trace.timeline_bin() == Nanos::ZERO {
            return;
        }
        let bin = self.trace.timeline_bin();
        let prev: Vec<f64> = self.servers.iter().map(|s| s.cpu.busy_core_ns()).collect();
        schedule_next_timeline_sample(engine, bin, prev, horizon);
    }

    /// Installs the heartbeat loops backing the failure detector: every
    /// server emits a round of heartbeats to all peers each
    /// [`DetectorConfig::heartbeat_interval`], staggered so the cluster
    /// does not beat in lockstep, until `horizon` (which keeps the event
    /// queue drainable). A no-op without `config.detector`. Crashed
    /// servers skip emission but keep their loop, so emission resumes by
    /// itself after [`Cluster::recover_server`].
    pub fn install_heartbeats(&self, engine: &mut Engine<Cluster>, horizon: Nanos) {
        let Some(dc) = self.config.detector else {
            return;
        };
        let n = self.servers.len();
        for server in 0..n {
            let phase =
                Nanos::from_nanos(dc.heartbeat_interval.as_nanos() * server as u64 / n as u64);
            schedule_heartbeat(engine, server, dc, phase, horizon);
        }
    }

    /// Emits one heartbeat round from `server` to every peer. Emission
    /// lags by the configured CPU cost scaled by the sender's *current
    /// slowdown*: a loaded, straggling, or gray-failing server heartbeats
    /// late — the mechanism that turns CPU faults into false suspicion.
    fn emit_heartbeats(&mut self, engine: &mut Engine<Cluster>, server: usize, dc: DetectorConfig) {
        let lag =
            Nanos::from_nanos_f64(dc.heartbeat_process_ns * self.servers[server].cpu.slowdown());
        for peer in 0..self.servers.len() {
            if peer == server {
                continue;
            }
            let mut delay = lag
                + self
                    .config
                    .costs
                    .network
                    .delay(&mut self.rng_hb, dc.heartbeat_bytes);
            if let Some(fault) = self.link_fault(server, peer) {
                if fault.drop_prob > 0.0 && self.rng_fault.chance(fault.drop_prob) {
                    self.metrics.heartbeats_dropped += 1;
                    continue;
                }
                delay += fault.extra_delay;
            }
            self.metrics.heartbeats_sent += 1;
            engine.schedule_after(delay, move |c: &mut Cluster, e| {
                if c.failed[peer] {
                    return; // A dead process hears nothing.
                }
                let at = e.now();
                let transition = c.detector.as_mut().and_then(|d| d.heard(peer, server, at));
                if let Some(t) = transition {
                    c.note_suspicion_transition(t, peer, server, at);
                }
            });
        }
    }

    /// Installs the hot-actor split detector: every
    /// [`ReplicationConfig::check_interval`] each server scans its load
    /// sketch for actors whose sustained service demand exceeds the
    /// configured fraction of one server's capacity and splits them
    /// (or drops replicas of actors that cooled down), staggered across
    /// servers like heartbeats, until `horizon`. A no-op without
    /// `config.replication`.
    pub fn install_replication(&self, engine: &mut Engine<Cluster>, horizon: Nanos) {
        let Some(rep) = self.config.replication else {
            return;
        };
        let n = self.servers.len();
        for server in 0..n {
            let phase = Nanos::from_nanos(rep.check_interval.as_nanos() * server as u64 / n as u64);
            schedule_replication_tick(engine, server, rep, fx_map_with_capacity(0), phase, horizon);
        }
    }

    /// One split-detection tick on `server`: scan the window's load
    /// sketch, decide split/drop/hold per hot actor primaried here, and
    /// reset the window. `cooldowns` carries each actor's
    /// no-decisions-before time across ticks.
    fn replication_tick(
        &mut self,
        engine: &mut Engine<Cluster>,
        server: usize,
        rep: &ReplicationConfig,
        cooldowns: &mut FxHashMap<u64, Nanos>,
    ) {
        if self.failed[server] {
            return; // Sketch state died with the process; nothing to scan.
        }
        let now = engine.now();
        let window_capacity_ns =
            rep.check_interval.as_nanos() * self.config.costs.cores_per_server as u64;
        // Candidates: this window's sustained heavy hitters primaried
        // here, plus every replicated actor primaried here (so cooled
        // actors that fell out of the sketch still get drop decisions).
        let mut candidates: Vec<u64> = self.servers[server]
            .load_sketch
            .sustained_heavy_hitters(rep.min_load_ns)
            .map(|e| e.item.0)
            .filter(|&a| self.directory.server_of(a) == Some(server))
            .collect();
        candidates.extend(self.directory.replicated_primaried_on(server));
        candidates.sort_unstable();
        candidates.dedup();
        for a in candidates {
            if cooldowns.get(&a).is_some_and(|&until| now < until) {
                continue;
            }
            let observed = self.servers[server].load_sketch.lower_bound(&ActorId(a));
            let replicas = self.directory.replicas_of(a).len();
            match decide_split(&rep.thresholds, observed, window_capacity_ns, replicas) {
                SplitDecision::Split => {
                    if let Some(to) = self.split_target(a, replicas, now, server) {
                        self.split_actor(engine, now, ActorId(a), to);
                        cooldowns.insert(a, now + rep.cooldown);
                    }
                }
                SplitDecision::Drop => {
                    // Deterministic victim: the highest replica server id.
                    if let Some(&victim) = self.directory.replicas_of(a).last() {
                        self.drop_replica_actor(now, ActorId(a), victim as usize);
                        cooldowns.insert(a, now + rep.cooldown);
                    }
                }
                SplitDecision::Hold => {}
            }
        }
        self.servers[server].load_sketch.clear();
    }

    /// Picks the replica destination for a split of `a` by rendezvous
    /// over the eligible servers (not the primary, not already a replica,
    /// not distrusted by the primary), keyed by the current replica count
    /// so successive splits spread deterministically.
    fn split_target(
        &mut self,
        a: u64,
        replicas: usize,
        now: Nanos,
        primary: usize,
    ) -> Option<usize> {
        let salt = mix64(a ^ (replicas as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut best: Option<(u64, usize)> = None;
        for c in 0..self.servers.len() {
            if c == primary || self.directory.replica_hosted(a, c) || self.suspects(primary, c, now)
            {
                continue;
            }
            let score = mix64(salt ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, c));
            }
        }
        best.map(|(_, c)| c)
    }

    // ------------------------------------------------------------------
    // Asynchronous snapshots & stateful recovery.
    // ------------------------------------------------------------------

    /// Installs the periodic snapshot coordinator: every
    /// [`SnapshotConfig::interval`] the store server begins an
    /// asynchronous marker round over the live cluster, and
    /// `capture_window` later the round sweeps the untouched remainder
    /// and commits. A no-op without `config.snapshot`; the horizon keeps
    /// the event queue drainable. Rounds are skipped (never queued) while
    /// the store server is down, so the loop survives chaos and resumes
    /// by itself on recovery.
    pub fn install_snapshots(&self, engine: &mut Engine<Cluster>, horizon: Nanos) {
        let Some(snap) = &self.snap else {
            return;
        };
        schedule_snapshot_round(engine, snap.cfg.interval, horizon);
    }

    /// Begins one snapshot round: the store server (the coordinator)
    /// marks itself, markers ride to every live peer, and the sweep that
    /// commits the round is scheduled `capture_window` out. Skipped while
    /// a round is still open or the store server is down.
    fn snapshot_begin(&mut self, engine: &mut Engine<Cluster>) {
        let now = engine.now();
        let n = self.servers.len();
        let snap = self.snap.as_mut().expect("guarded by install");
        let cfg = snap.cfg;
        let coord = cfg.store_server as usize;
        if snap.round.is_some() || self.failed[coord] {
            self.metrics.snap_rounds_skipped += 1;
            return;
        }
        snap.rounds_started += 1;
        let id = snap.rounds_started;
        let mut round = OpenRound::new(id, now, n);
        round.mark(coord, &snap.link_sent, &snap.link_recv);
        snap.round = Some(round);
        self.metrics.snap_rounds_started += 1;
        if self.trace.enabled() {
            // Lifecycle events: `request` carries the round id.
            self.record_span(SpanEvent::instant(
                id,
                HopKind::SnapBegin,
                coord as u32,
                0,
                now,
            ));
            self.record_span(SpanEvent::instant(
                id,
                HopKind::SnapMarker,
                coord as u32,
                0,
                now,
            ));
        }
        // Markers ride the mean network delay: the snapshot machinery
        // must not draw from the shared RNG streams, or enabling it
        // would perturb snapshot-off-identical workload behavior.
        let marker_delay = self.config.costs.network.mean_delay(0);
        for peer in 0..n {
            if peer == coord || self.failed[peer] {
                continue;
            }
            engine.schedule_after(marker_delay, move |c: &mut Cluster, e| {
                c.snapshot_marker(e.now(), id, peer);
            });
        }
        engine.schedule_after(cfg.capture_window, move |c: &mut Cluster, e| {
            c.snapshot_sweep(e.now(), id);
        });
    }

    /// A snapshot marker reaches `server`: it snapshots its per-link
    /// send/receive counters (the round's in-flight accounting) and joins
    /// the cut. Late markers — the round aborted in the meantime — are
    /// ignored, as are markers to a server that crashed in flight.
    fn snapshot_marker(&mut self, now: Nanos, round_id: u64, server: usize) {
        if self.failed[server] {
            return; // Crashed since the marker was sent; the round aborts.
        }
        let Some(snap) = self.snap.as_mut() else {
            return;
        };
        let Some(round) = snap.round.as_mut() else {
            return;
        };
        if round.id != round_id || !round.mark(server, &snap.link_sent, &snap.link_recv) {
            return;
        }
        if self.trace.enabled() {
            self.record_span(SpanEvent::instant(
                round_id,
                HopKind::SnapMarker,
                server as u32,
                0,
                now,
            ));
        }
    }

    /// The capture window of round `round_id` elapsed: capture every
    /// still-untouched state cell at its current value, commit the round
    /// to the durable store (truncating the journals it covers), and
    /// account the round. A no-op when a crash aborted the round.
    fn snapshot_sweep(&mut self, now: Nanos, round_id: u64) {
        let (swept, captures, in_flight, begun_at, cfg) = {
            let snap = self
                .snap
                .as_mut()
                .expect("sweep only scheduled with snapshots");
            let cfg = snap.cfg;
            if snap.round.as_ref().map(|r| r.id) != Some(round_id) {
                return; // Aborted by a crash.
            }
            let mut round = snap.round.take().expect("checked above");
            // Sweep stragglers in actor order so the capture trace is
            // deterministic regardless of map iteration order.
            let swept: Vec<(u64, u32, u64)> = stragglers(&snap.cells, &round.captured)
                .into_iter()
                .map(|(actor, host, cell)| {
                    round.capture(actor, cell.version, cell.value, cfg.state_bytes);
                    (actor, host, cell.version)
                })
                .collect();
            let captures = round.sorted_captures();
            snap.store.commit(round_id, &captures);
            (swept, captures, round.in_flight(), round.begun_at, cfg)
        };
        self.metrics.snap_rounds_completed += 1;
        self.metrics.snap_captures += swept.len() as u64;
        self.metrics.snap_bytes += swept.len() as u64 * cfg.state_bytes;
        self.metrics.snap_inflight += in_flight;
        let duration = now.saturating_sub(begun_at);
        if let Some(obs) = self.obs.as_mut() {
            obs.observe_snap_round(duration.as_nanos());
        }
        if self.trace.enabled() {
            for (actor, host, version) in swept {
                // Lifecycle event: `request` carries the actor id, `aux`
                // packs (round, captured version).
                self.record_span(SpanEvent::instant(
                    actor,
                    HopKind::SnapCapture,
                    host,
                    (round_id << 40) | version,
                    now,
                ));
            }
            self.record_span(SpanEvent::instant(
                round_id,
                HopKind::SnapComplete,
                cfg.store_server,
                captures.len() as u64,
                now,
            ));
        }
    }

    /// The snapshot subsystem's pre-handler hook for a request hosted at
    /// `server`: rehydrates the actor's state cell from the durable store
    /// if the in-memory copy died with a crash (deferring with backoff
    /// while the store server is down), lazily captures the pre-write
    /// state into an open round, and applies write-tagged requests to the
    /// versioned cell, journaling each transition. Draws no RNG.
    fn snapshot_touch(&mut self, now: Nanos, server: usize, actor: u64, tag: u32) -> SnapTouch {
        let store_down = {
            let snap = self.snap.as_ref().expect("guarded by caller");
            self.failed[snap.cfg.store_server as usize]
        };
        let snap = self.snap.as_mut().expect("guarded by caller");
        let cfg = snap.cfg;
        let mut cpu_ns = 0.0;
        let mut blocking_ns = 0.0;
        let mut restore_ev = None;
        let mut capture_ev = None;
        let mut write_ev = None;
        let mut replayed = 0u64;
        if let Some(entry) = snap.cells.get_mut(&actor) {
            // In-memory state exists; self-heal the host hint (it can be
            // stale after a migration whose re-activation landed off the
            // intended destination).
            entry.0 = server as u32;
        } else if let Some(plan) = snap.store.restore(actor) {
            // The in-memory cell died with a crash: rehydrate from the
            // last complete snapshot plus the journal tail — unless the
            // store server is down, in which case the execute defers.
            if store_down {
                let attempts = snap.defer_attempts.entry(actor).or_insert(0);
                *attempts = attempts.saturating_add(1);
                let backoff = cfg.defer_backoff(*attempts);
                self.metrics.restores_deferred += 1;
                return SnapTouch::Defer(backoff);
            }
            snap.defer_attempts.remove(&actor);
            snap.cells.insert(
                actor,
                (
                    server as u32,
                    StateCell {
                        version: plan.version,
                        value: plan.value,
                    },
                ),
            );
            replayed = plan.replayed;
            blocking_ns +=
                cfg.restore_base_ns as f64 + cfg.restore_per_entry_ns as f64 * plan.replayed as f64;
            restore_ev = Some((plan.round, plan.version));
        }
        if cfg.is_write(u64::from(tag)) {
            let entry = snap
                .cells
                .entry(actor)
                .or_insert((server as u32, StateCell::default()));
            // Lazy capture: the first post-marker write at a marked
            // server snapshots the pre-write state, making the round a
            // consistent cut without ever stalling the actor.
            if let Some(round) = snap.round.as_mut() {
                if round.marked[server]
                    && entry.1.version > 0
                    && round.capture(actor, entry.1.version, entry.1.value, cfg.state_bytes)
                {
                    capture_ev = Some((round.id, entry.1.version));
                    cpu_ns += cfg.capture_cpu_ns;
                }
            }
            let version = entry.1.apply_write(actor);
            let value = entry.1.value;
            snap.store.append(actor, version, value);
            cpu_ns += cfg.journal_cpu_ns;
            write_ev = Some(version);
        }
        if restore_ev.is_some() {
            self.metrics.restores += 1;
            self.metrics.restore_replayed += replayed;
        }
        if capture_ev.is_some() {
            self.metrics.snap_captures += 1;
            self.metrics.snap_bytes += cfg.state_bytes;
        }
        if write_ev.is_some() {
            self.metrics.state_writes += 1;
        }
        if self.trace.enabled() {
            // Lifecycle events in causal order: restore before capture
            // before the write itself, all at the touch timestamp.
            if let Some((round, version)) = restore_ev {
                self.record_span(SpanEvent::instant(
                    actor,
                    HopKind::Restore,
                    server as u32,
                    (round << 40) | version,
                    now,
                ));
            }
            if let Some((round, version)) = capture_ev {
                self.record_span(SpanEvent::instant(
                    actor,
                    HopKind::SnapCapture,
                    server as u32,
                    (round << 40) | version,
                    now,
                ));
            }
            if let Some(version) = write_ev {
                self.record_span(SpanEvent::instant(
                    actor,
                    HopKind::StateWrite,
                    server as u32,
                    version,
                    now,
                ));
            }
        }
        SnapTouch::Proceed {
            cpu_ns,
            blocking_ns,
        }
    }

    /// Re-runs a hosted execute whose restore found the store server
    /// down: after the deterministic backoff the message re-enters this
    /// server's worker stage — or the failover retry path, if the server
    /// crashed while waiting.
    #[cold]
    fn snapshot_defer(
        &mut self,
        engine: &mut Engine<Cluster>,
        server: usize,
        msg: Message,
        backoff: Nanos,
    ) {
        engine.schedule_after(backoff, move |c: &mut Cluster, e| {
            if c.requests.get(msg.request.0).is_none() {
                c.metrics.zombie_branches += 1;
                return;
            }
            if c.failed[server] {
                c.schedule_retry(e, msg, server);
                return;
            }
            c.enqueue(
                e,
                server,
                StageKind::Worker.index(),
                StageItem::Execute(msg),
            );
        });
    }

    /// Read-only view of the durable snapshot store (`None` without
    /// `config.snapshot`) — what verification harnesses inspect.
    pub fn snapshot_store(&self) -> Option<&SnapshotStore> {
        self.snap.as_ref().map(|s| &s.store)
    }

    /// The in-memory state cell of `actor`, if the snapshot subsystem is
    /// on and the actor currently has one.
    pub fn state_cell(&self, actor: u64) -> Option<StateCell> {
        self.snap
            .as_ref()
            .and_then(|s| s.cells.get(&actor).map(|&(_, cell)| cell))
    }

    /// The lowest-numbered actor whose in-memory state cell disagrees with
    /// its durable image, as `(actor, memory version, durable version)` —
    /// `None` when every live cell matches the store, or snapshots are
    /// off. The store is ground truth under crash recovery (the journal is
    /// appended in the same touch that bumps the cell), so any divergence
    /// means a restore served lost or duplicated transitions. This is the
    /// check behind the chaos `crash_restore` audit fault.
    pub fn state_divergence(&self) -> Option<(u64, u64, u64)> {
        let snap = self.snap.as_ref()?;
        let mut actors: Vec<u64> = snap.cells.keys().copied().collect();
        actors.sort_unstable();
        for actor in actors {
            let (_, cell) = snap.cells[&actor];
            let durable = snap.store.restore(actor).map_or(0, |p| p.version);
            if cell.version != durable {
                return Some((actor, cell.version, durable));
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Telemetry (metric scrapes, SLO alerting, cost attribution).
    // ------------------------------------------------------------------

    /// Records a span through the cost-attribution wrapper. Call sites
    /// guard on `trace.enabled()` first, so tracer op counts equal spans
    /// recorded.
    #[inline]
    fn record_span(&mut self, ev: SpanEvent) {
        let t = self.attr.begin(Subsystem::Tracer);
        self.trace.record(ev);
        self.attr.end(Subsystem::Tracer, t);
    }

    /// Installs the sim-time metric scraper: every `config.obs`
    /// scrape-interval the registry mirrors the cluster counters, samples
    /// the per-server gauges, snapshots a frame, and feeds newly closed
    /// series bins to the SLO engine (online alerting). A no-op without
    /// `config.obs`; the horizon keeps the event queue drainable. Pair
    /// with [`Cluster::finalize_obs`] after the run.
    pub fn install_scraper(&self, engine: &mut Engine<Cluster>, horizon: Nanos) {
        let Some(obs) = &self.obs else {
            return;
        };
        schedule_scrape(engine, obs.interval(), horizon);
    }

    /// Takes one telemetry scrape at `now`. Driven by
    /// [`Cluster::install_scraper`]; public so harnesses with bespoke
    /// cadences can scrape directly.
    pub fn obs_scrape(&mut self, now: Nanos) {
        let Some(mut obs) = self.obs.take() else {
            return;
        };
        let t = self.attr.begin(Subsystem::Scrape);
        let per_server: Vec<(f64, f64)> = self
            .servers
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let queue: usize = s.queue_lengths().iter().sum();
                (queue as f64, if self.failed[i] { 0.0 } else { 1.0 })
            })
            .collect();
        if self.config.replication.is_some() {
            obs.set_replica_activations(self.directory.replica_count() as f64);
        }
        obs.scrape(now, &self.metrics, &per_server);
        for tr in obs.drain_slos(now, &self.metrics) {
            self.note_slo_transition(tr);
        }
        self.attr.end(Subsystem::Scrape, t);
        self.obs = Some(obs);
    }

    /// Feeds any series bins closed after the last scrape to the SLO
    /// engine. Call once when the run's horizon is reached.
    pub fn finalize_obs(&mut self, now: Nanos) {
        let Some(mut obs) = self.obs.take() else {
            return;
        };
        for tr in obs.drain_slos(now, &self.metrics) {
            self.note_slo_transition(tr);
        }
        self.obs = Some(obs);
    }

    /// Tallies an SLO alert transition and records its lifecycle trace
    /// event. The event timestamp is the close time of the bin that
    /// caused the transition, so online (legacy) and merge-time (sharded)
    /// evaluation emit identical events.
    pub(crate) fn note_slo_transition(&mut self, tr: SloTransition) {
        if tr.open {
            self.metrics.slo_alerts_opened += 1;
        } else {
            self.metrics.slo_alerts_closed += 1;
        }
        if self.trace.enabled() {
            // Lifecycle event: `request` carries the SLO spec index,
            // `aux` the series bin.
            self.record_span(SpanEvent::instant(
                tr.spec as u64,
                if tr.open {
                    HopKind::SloOpen
                } else {
                    HopKind::SloClose
                },
                NO_SERVER,
                tr.bin,
                Nanos::from_nanos(tr.t_ns),
            ));
        }
    }

    /// Adopts a registry merged across shard telemetry and evaluates the
    /// SLOs once over this (shell) cluster's merged series up to `now` —
    /// the sharded counterpart of online alerting. Alert tallies land in
    /// `metrics` and lifecycle trace events in `trace`, with the same
    /// bin-aligned timestamps the legacy path emits.
    pub fn adopt_merged_obs(&mut self, mut obs: Observability, now: Nanos) {
        let transitions = obs.drain_slos(now, &self.metrics);
        self.obs = Some(obs);
        for tr in transitions {
            self.note_slo_transition(tr);
        }
    }

    /// Resets steady-state measurement at the warmup boundary: announces
    /// the reset to the telemetry mirrors (registry counters must stay
    /// monotone) and then clears the request-scoped metrics.
    pub fn reset_steady_state(&mut self) {
        if let Some(obs) = self.obs.as_mut() {
            obs.note_reset(&self.metrics);
        }
        self.metrics.reset_steady_state();
    }

    /// Installs the detector-accuracy sampler: every `every` over
    /// `[start, until]`, each live observer's suspicion of every peer is
    /// compared against ground truth and tallied into
    /// [`Cluster::detector_accuracy`]. Read-only probes — the detector's
    /// transition state is untouched.
    pub fn install_accuracy_sampler(
        &self,
        engine: &mut Engine<Cluster>,
        start: Nanos,
        until: Nanos,
        every: Nanos,
    ) {
        schedule_accuracy_sample(engine, start, until, every);
    }

    /// The cluster-side cost-attribution accumulator (routing, sketch,
    /// detector, tracer, scrape). Merge into the engine's report for the
    /// full picture.
    pub fn cost_attr(&self) -> &CostAttr {
        &self.attr
    }

    // ------------------------------------------------------------------
    // Fault injection (what chaos plans drive).
    // ------------------------------------------------------------------

    /// Scales a server's CPU service rate: `< 1.0` makes it a straggler
    /// (or, near zero, a gray failure — it accepts messages and services
    /// them at a crawl); `1.0` restores full speed. Takes effect
    /// immediately, including for work already in progress.
    pub fn set_server_rate_factor(
        &mut self,
        engine: &mut Engine<Cluster>,
        server: usize,
        factor: f64,
    ) {
        let now = engine.now();
        self.servers[server].cpu.set_rate_factor(now, factor);
        self.sync_cpu(engine, server);
    }

    /// A server's current CPU rate factor.
    pub fn server_rate_factor(&self, server: usize) -> f64 {
        self.servers[server].cpu.rate_factor()
    }

    /// Installs (or replaces) a symmetric link degradation between `a` and
    /// `b`: every message and heartbeat crossing the pair pays
    /// `extra_delay` and is dropped with `drop_prob`.
    pub fn set_link_fault(&mut self, a: usize, b: usize, fault: LinkFault) {
        assert!(a != b, "a link fault needs two distinct servers");
        assert!(
            (0.0..=1.0).contains(&fault.drop_prob),
            "drop probability out of range"
        );
        self.link_faults.insert(link_key(a, b), fault);
    }

    /// Removes the link fault between `a` and `b` (no-op if none).
    pub fn clear_link_fault(&mut self, a: usize, b: usize) {
        self.link_faults.remove(&link_key(a, b));
    }

    /// The installed fault on the `a`–`b` link, if any.
    pub fn link_fault(&self, a: usize, b: usize) -> Option<LinkFault> {
        if self.link_faults.is_empty() {
            return None; // Fast path: fault-free runs never hash.
        }
        self.link_faults.get(&link_key(a, b)).copied()
    }

    /// Read-only probe of the failure detector: whether `observer` would
    /// suspect `peer` at `now`. `None` without a detector. Does not touch
    /// transition state, so accuracy samplers can compare suspicion with
    /// [`Cluster::is_failed`] ground truth without perturbing the run.
    pub fn detector_suspects(&self, observer: usize, peer: usize, now: Nanos) -> Option<bool> {
        self.detector
            .as_ref()
            .map(|d| d.would_suspect(observer, peer, now))
    }

    /// Number of migrations currently in transfer.
    pub fn migrations_in_flight(&self) -> usize {
        self.migrations_in_flight.len()
    }

    /// The first live server at or after `preferred` (wrapping), or `None`
    /// when every server has failed — callers shed instead of panicking on
    /// total cluster loss.
    pub fn try_next_live(&self, preferred: usize) -> Option<usize> {
        let n = self.servers.len();
        (0..n)
            .map(|i| (preferred + i) % n)
            .find(|&s| !self.failed[s])
    }

    /// Whether a server is currently failed.
    pub fn is_failed(&self, server: usize) -> bool {
        self.failed[server]
    }

    /// Crashes a server: its activations, queued messages, and in-progress
    /// work are lost. Virtual actors re-activate on a live server at their
    /// next message (Orleans' fault-tolerance model, §2); requests whose
    /// state died with the server complete via the client timeout.
    pub fn fail_server(&mut self, engine: &mut Engine<Cluster>, server: usize) {
        if self.failed[server] {
            return;
        }
        self.failed[server] = true;
        self.metrics.server_failures += 1;
        let at = engine.now();
        if self.trace.enabled() {
            self.record_span(SpanEvent::instant(
                0,
                HopKind::ServerFail,
                server as u32,
                0,
                at,
            ));
            self.trace
                .flight_dump(HopKind::ServerFail, 0, server as u32, at);
        }
        // Abort in-flight migrations touching the crashed server: the
        // transfer dies with an endpoint and the actor stays at its source
        // (where the source's own directory entry still points).
        if !self.migrations_in_flight.is_empty() {
            let mut aborted: Vec<u64> = self
                .migrations_in_flight
                .iter()
                .filter(|&(_, &(from, to))| from as usize == server || to as usize == server)
                .map(|(&actor, _)| actor)
                .collect();
            aborted.sort_unstable(); // Deterministic abort/trace order.
            for actor in aborted {
                let (from, to) = self
                    .migrations_in_flight
                    .remove(&actor)
                    .expect("collected above");
                self.metrics.migrations_aborted += 1;
                if self.trace.enabled() {
                    // Lifecycle event: `request` carries the actor id,
                    // `server` the source, `aux` the destination.
                    self.record_span(SpanEvent::instant(
                        actor,
                        HopKind::MigrationAbort,
                        from,
                        u64::from(to),
                        at,
                    ));
                }
            }
        }
        // Abort in-flight splits touching the crashed server, with the
        // same discipline: the transfer dies with an endpoint and no
        // replica ever appears.
        if !self.splits_in_flight.is_empty() {
            let mut aborted: Vec<u64> = self
                .splits_in_flight
                .iter()
                .filter(|&(_, &(from, to))| from as usize == server || to as usize == server)
                .map(|(&actor, _)| actor)
                .collect();
            aborted.sort_unstable(); // Deterministic abort/trace order.
            for actor in aborted {
                let (from, to) = self
                    .splits_in_flight
                    .remove(&actor)
                    .expect("collected above");
                self.metrics.splits_aborted += 1;
                if self.trace.enabled() {
                    // Lifecycle event: `request` carries the actor id,
                    // `server` the primary, `aux` the replica destination.
                    self.record_span(SpanEvent::instant(
                        actor,
                        HopKind::SplitAbort,
                        from,
                        u64::from(to),
                        at,
                    ));
                }
            }
        }
        // Snapshot subsystem: any crash aborts the open round — the dead
        // server was part of the cut, so the round can never commit as a
        // consistent one — and the dead server's in-memory state cells
        // die with it. Their durable journals and snapshots survive in
        // the store; restore replays them at the next touch.
        if self.snap.is_some() {
            let aborted = {
                let snap = self.snap.as_mut().expect("checked above");
                let mut dead: Vec<u64> = snap
                    .cells
                    .iter()
                    .filter(|&(_, &(host, _))| host as usize == server)
                    .map(|(&actor, _)| actor)
                    .collect();
                dead.sort_unstable(); // Deterministic drop order.
                for actor in dead {
                    snap.cells.remove(&actor);
                }
                snap.round.take().map(|r| r.id)
            };
            if let Some(id) = aborted {
                self.metrics.snap_rounds_aborted += 1;
                if self.trace.enabled() {
                    // Lifecycle event: `request` carries the round id,
                    // `server` the crash that killed it.
                    self.record_span(SpanEvent::instant(
                        id,
                        HopKind::SnapAbort,
                        server as u32,
                        0,
                        at,
                    ));
                }
            }
        }
        // With the legacy oracle the whole cluster learns of the crash
        // instantly: drop every activation the server hosted. (No location
        // hints: the server crashed, it had no chance to leave forwarding
        // state.) With a failure detector, knowledge travels through
        // missed heartbeats instead — stale directory entries linger until
        // suspicion repairs them, which is exactly the detection-lag cost
        // the chaos benchmarks measure.
        if self.detector.is_none() {
            if self.directory.has_replicas() {
                // Replica activations hosted on the crashed server die
                // with it, and so does every replica of an actor whose
                // primary it hosted (the primary's deactivation discards
                // the whole set) — all recorded as explicit drops so the
                // trace tells a complete replica-lifetime story.
                for actor in self.directory.replicas_on(server) {
                    self.drop_replica_actor(at, ActorId(actor), server);
                }
                for actor in self.directory.vertices_on(server) {
                    for r in self.directory.replicas_of(actor).to_vec() {
                        self.drop_replica_actor(at, ActorId(actor), r as usize);
                    }
                }
            }
            for actor in self.directory.vertices_on(server) {
                self.directory.remove(actor);
            }
        }
        // Lose in-memory state: queues, running tasks, sketches, caches.
        let threads = self.servers[server].thread_allocation();
        if let Some((_, id)) = self.servers[server].cpu_event.take() {
            engine.cancel(id);
        }
        let fresh = Server::new(
            server,
            &self.config.costs,
            self.config.initial_threads_per_stage,
            self.config.sketch_capacity,
        );
        self.servers[server] = fresh;
        let _ = threads; // The replacement process boots with defaults.
    }

    /// Brings a crashed server back (a fresh, empty process) at `now`. New
    /// activations flow to it through the placement policy; the partition
    /// agent rebalances actors onto it over time. The fresh process's
    /// detector rows are reset so it trusts every peer for one grace
    /// period instead of mass-suspecting the cluster at boot; peers keep
    /// suspecting *it* until its heartbeats resume.
    pub fn recover_server(&mut self, now: Nanos, server: usize) {
        self.failed[server] = false;
        if let Some(d) = self.detector.as_mut() {
            d.reset_observer(server, now);
        }
    }

    /// True when no request is in flight anywhere (drained).
    pub fn is_drained(&self) -> bool {
        self.requests.is_empty()
            && self.joins.is_empty()
            && self
                .servers
                .iter()
                .all(|s| s.cpu.is_idle() && s.stages.iter().all(|st| st.is_idle()))
    }
}

/// Schedules a server's next heartbeat round `delay` from now and, when
/// it fires, the one after — the same self-rescheduling, horizon-bounded
/// shape as the hiccup loop. The loop survives the server's crash (a dead
/// server just skips emission) so heartbeats resume on recovery.
fn schedule_heartbeat(
    engine: &mut Engine<Cluster>,
    server: usize,
    dc: DetectorConfig,
    delay: Nanos,
    horizon: Nanos,
) {
    if engine.now() + delay > horizon {
        return;
    }
    engine.schedule_after(delay, move |c: &mut Cluster, e| {
        if !c.failed[server] {
            c.emit_heartbeats(e, server, dc);
        }
        schedule_heartbeat(e, server, dc, dc.heartbeat_interval, horizon);
    });
}

/// Schedules a server's next split-detection tick `delay` from now and,
/// when it fires, the one after — the same self-rescheduling,
/// horizon-bounded shape as the heartbeat loop. The per-actor cooldown
/// map travels through the closure chain, so it needs no cluster field.
fn schedule_replication_tick(
    engine: &mut Engine<Cluster>,
    server: usize,
    rep: ReplicationConfig,
    mut cooldowns: FxHashMap<u64, Nanos>,
    delay: Nanos,
    horizon: Nanos,
) {
    if engine.now() + delay > horizon {
        return;
    }
    engine.schedule_after(delay, move |c: &mut Cluster, e| {
        c.replication_tick(e, server, &rep, &mut cooldowns);
        schedule_replication_tick(e, server, rep, cooldowns, rep.check_interval, horizon);
    });
}

/// Schedules the next snapshot round `delay` from now and, when it fires,
/// the one after — the same self-rescheduling, horizon-bounded shape as
/// the heartbeat loop. The loop outlives crashes (a round is simply
/// skipped while the store server is down), so rounds resume on recovery.
fn schedule_snapshot_round(engine: &mut Engine<Cluster>, delay: Nanos, horizon: Nanos) {
    if engine.now() + delay > horizon {
        return;
    }
    engine.schedule_after(delay, move |c: &mut Cluster, e| {
        c.snapshot_begin(e);
        let interval = c
            .snap
            .as_ref()
            .expect("loop only installed with snapshots")
            .cfg
            .interval;
        schedule_snapshot_round(e, interval, horizon);
    });
}

/// Schedules the next telemetry scrape `interval` from now and, when it
/// fires, the one after — the same self-rescheduling, horizon-bounded
/// shape as the heartbeat loop.
fn schedule_scrape(engine: &mut Engine<Cluster>, interval: Nanos, horizon: Nanos) {
    if engine.now() + interval > horizon {
        return;
    }
    engine.schedule_after(interval, move |c: &mut Cluster, e| {
        c.obs_scrape(e.now());
        schedule_scrape(e, interval, horizon);
    });
}

/// Schedules a detector-accuracy sample at absolute time `at` and, when it
/// fires, the next one `every` later while it stays within `until`.
fn schedule_accuracy_sample(engine: &mut Engine<Cluster>, at: Nanos, until: Nanos, every: Nanos) {
    engine.schedule(at, move |c: &mut Cluster, e| {
        let now = e.now();
        let t = c.attr.begin(Subsystem::Detector);
        c.detector_accuracy.samples += 1;
        let n = c.server_count();
        for obs in 0..n {
            if c.is_failed(obs) {
                continue; // A dead observer routes nothing.
            }
            for peer in 0..n {
                if peer == obs {
                    continue;
                }
                let suspected = c.detector_suspects(obs, peer, now).unwrap_or(false);
                match (suspected, c.is_failed(peer)) {
                    (true, true) => c.detector_accuracy.true_suspect += 1,
                    (true, false) => c.detector_accuracy.false_suspect += 1,
                    (false, true) => c.detector_accuracy.missed_failure += 1,
                    (false, false) => c.detector_accuracy.true_clear += 1,
                }
            }
        }
        c.attr.end(Subsystem::Detector, t);
        let next = at + every;
        if next <= until {
            schedule_accuracy_sample(e, next, until, every);
        }
    });
}

/// Schedules the next pause for `server` and, when it fires, the resume.
fn schedule_next_hiccup(
    engine: &mut Engine<Cluster>,
    server: usize,
    model: HiccupModel,
    mut rng: DetRng,
    horizon: Nanos,
) {
    let gap = Nanos::from_secs_f64(rng.exp(model.mean_interval.as_secs_f64()));
    if engine.now() + gap >= horizon {
        return;
    }
    engine.schedule_after(gap, move |c: &mut Cluster, e| {
        let pause = Nanos::from_nanos(
            rng.range_inclusive(
                model.min_pause.as_nanos(),
                model
                    .max_pause
                    .as_nanos()
                    .max(model.min_pause.as_nanos() + 1),
            ),
        );
        if !c.failed[server] {
            let now = e.now();
            c.servers[server].cpu.pause(now);
            c.sync_cpu(e, server);
        }
        engine_resume(e, server, pause);
        schedule_next_hiccup(e, server, model, rng, horizon);
    });
}

/// Schedules the next timeline sample and, when it fires, the one after:
/// the same self-rescheduling shape as the hiccup loop. `prev` carries the
/// per-server busy-core snapshots from the previous sample, so each bin's
/// utilization is exact.
fn schedule_next_timeline_sample(
    engine: &mut Engine<Cluster>,
    bin: Nanos,
    prev: Vec<f64>,
    horizon: Nanos,
) {
    if engine.now() + bin > horizon {
        return;
    }
    engine.schedule_after(bin, move |c: &mut Cluster, e| {
        let now = e.now();
        let since = now.saturating_sub(bin);
        let mut next_prev = Vec::with_capacity(c.servers.len());
        for (i, &prev_busy) in prev.iter().enumerate() {
            // Scope the `c.servers` borrow so the timeline push can
            // re-borrow `c` mutably.
            let s = &c.servers[i];
            next_prev.push(s.cpu.busy_core_ns());
            let sample = TimelineSample {
                at_ns: now.as_nanos(),
                server: i as u32,
                queue_len: s.queue_lengths().map(|q| q as u32),
                busy_threads: [
                    s.stages[0].busy() as u32,
                    s.stages[1].busy() as u32,
                    s.stages[2].busy() as u32,
                    s.stages[3].busy() as u32,
                ],
                threads: s.thread_allocation().map(|t| t as u32),
                utilization: s.cpu.utilization_since(prev_busy, since, now),
            };
            c.trace.timeline.push(sample);
        }
        schedule_next_timeline_sample(e, bin, next_prev, horizon);
    });
}

/// Schedules the resume event ending a pause.
fn engine_resume(engine: &mut Engine<Cluster>, server: usize, pause: Nanos) {
    engine.schedule_after(pause, move |c: &mut Cluster, e| {
        if !c.failed[server] && c.servers[server].cpu.is_paused() {
            let now = e.now();
            c.servers[server].cpu.resume(now);
            c.pump(e, server);
        }
    });
}

/// The root request of a queued stage item (for breakdown accounting).
fn item_request(item: &StageItem) -> RequestId {
    match item {
        StageItem::Deserialize(m) | StageItem::Execute(m) => m.request,
        StageItem::SerializeRemote { msg, .. } => msg.request,
        StageItem::SerializeClient { request, .. } => *request,
    }
}
