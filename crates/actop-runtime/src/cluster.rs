//! The cluster: servers, the placement directory, message routing, and
//! request/join bookkeeping.
//!
//! [`Cluster`] is the discrete-event world. Workload drivers inject client
//! requests; every subsequent hop — deserialization, worker execution,
//! serialization, network transfer — is an engine event driven by the
//! server's processor-sharing CPU and stage thread pools. The pump and the
//! message lifecycle are shared with the sharded backend
//! (`crate::process`, `crate::lifecycle`); this file supplies the
//! sequential hooks. The ActOp
//! controllers interact with the cluster only through [`ClusterHost`] at
//! the bottom of this file, mirroring how ActOp integrates with Orleans as
//! a runtime extension rather than application code.

use actop_metrics::TimelineSample;
use actop_partition::{CostSignals, DenseDirectory, PartitionView, PolicyHost, ViewScope};
use actop_sim::{CostAttr, DetRng, Engine, Nanos, Subsystem};
use actop_sketch::fxmap::{fx_map_with_capacity, FxHashMap};
use actop_snapshot::{LinkCounters, SnapshotState, SnapshotStore, StateCell, Touch};
use actop_trace::{HopKind, SpanEvent, Tracer, NO_SERVER, NO_STAGE};

use crate::agent::AgentHost;
use crate::app::AppLogic;
use crate::config::{HiccupModel, ReplicationConfig, RuntimeConfig};
use crate::detector::{DetectorConfig, FailureDetector, Transition};
use crate::ids::{ActorId, RequestId, StageKind};
use crate::lifecycle::wire_arrive;
use crate::metrics::{Accounting, ClusterMetrics};
use crate::obs::{DetectorAccuracy, Observability, SloTransition};
use crate::process::{crash, Process, ProcessHost};
use crate::proto::{
    Message, MsgKind, PendingJoin, PostAction, ReplyTarget, RequestMeta, StageItem,
};
use crate::replication::{
    hash, note_replica_drop, note_replica_request, note_split, rendezvous, replica_admits,
    replication_round,
};
use crate::server::Server;
pub use crate::server::StageReport;
use crate::snapshot::{note_begin, note_marker, note_sweep, note_touch};
use crate::table::SlabTable;

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
    /// carries its own accumulator for heap and CPU-model work, merged at
    /// report time.
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
    snap: Option<SnapshotState>,
    /// Per-link message counters, the marker-sequencing feed (empty
    /// without snapshots).
    snap_links: LinkCounters,
    /// Per-actor count of consecutive deferred restores (store down),
    /// driving the deterministic exponential backoff.
    snap_deferrals: FxHashMap<u64, u32>,
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
    /// In-flight fan-out joins, keyed by slab handle.
    joins: SlabTable<PendingJoin>,
    /// In-flight client requests, keyed by [`RequestId`] slab handle.
    requests: SlabTable<RequestMeta>,
    /// View buffer lent to partition rounds whose policy lives only for
    /// the round ([`AgentHost::policy_view`]).
    policy_view: PartitionView<ActorId>,
}

impl Cluster {
    /// Builds a cluster from a configuration and the application logic.
    pub fn new(config: RuntimeConfig, app: Box<dyn AppLogic>) -> Self {
        config.validate();
        let servers = (0..config.servers)
            .map(|id| Server::new(id, &config))
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
            snap: config.snapshot.map(SnapshotState::new),
            snap_links: LinkCounters::new(config.snapshot.map_or(0, |_| config.servers)),
            snap_deferrals: fx_map_with_capacity(0),
            link_faults: fx_map_with_capacity(0),
            migrations_in_flight: fx_map_with_capacity(0),
            splits_in_flight: fx_map_with_capacity(0),
            joins: SlabTable::new(),
            requests: SlabTable::new(),
            policy_view: PartitionView::new(),
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
                    c.joins.retain(|j| j.request != rid.0);
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
                reply_to: ReplyTarget::Client,
            },
            request: rid.0,
            root_start: now,
            issued_at: now,
            delivered_remotely: true,
            from_actor: false,
            forwarded: false,
            call_was_remote: false,
            attempts: 0,
            hops: 0,
        };
        let delay = self.config.costs.network.delay(&mut self.rng_net, bytes);
        self.account(rid.0, "Network", delay.as_nanos() as f64);
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
            wire_arrive(c, e, gateway, msg)
        });
        rid
    }

    // ------------------------------------------------------------------
    // Routing (the hooks in `impl Process` below call these).
    // ------------------------------------------------------------------

    /// Rendezvous selection over the live activations of a replicated
    /// actor. `None` when the actor is unsplit (or no candidate survives
    /// suspicion filtering) — the caller falls back to `resolve`.
    ///
    /// Liveness is the origin's *suspicion*, exactly as in `resolve`: a
    /// suspected replica is dropped from the directory at routing time —
    /// the replica-set mirror of the `DirRepair` path for primaries. The
    /// sorted replica slice is walked by index, so a read allocates
    /// nothing.
    fn route_read(
        &mut self,
        now: Nanos,
        actor: ActorId,
        request: u64,
        origin: usize,
    ) -> Option<usize> {
        let primary = self.directory.server_of(actor.0)?;
        if self.directory.replicas_of(actor.0).is_empty() {
            return None;
        }
        let primary_trusted = origin == primary || !self.suspects(origin, primary, now);
        let mut next = 0;
        let replicas = std::iter::from_fn(|| loop {
            let r = *self.directory.replicas_of(actor.0).get(next)?;
            if origin != r as usize && self.suspects(origin, r as usize, now) {
                self.directory.drop_replica(actor.0, r as usize);
                note_replica_drop(self, now, actor.0, primary as u32, r);
            } else {
                next += 1;
                return Some(r);
            }
        });
        let candidates = primary_trusted
            .then_some(primary as u32)
            .into_iter()
            .chain(replicas);
        rendezvous(hash(actor.0, request), candidates).map(|c| c as usize)
    }

    /// [`Process::resolve`] without the cost-attribution wrapper.
    fn resolve_inner(&mut self, now: Nanos, actor: ActorId, origin: usize) -> usize {
        if let Some(server) = self.directory.server_of(actor.0) {
            if origin == server || !self.suspects(origin, server, now) {
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
                    origin as u32,
                    server as u64,
                    now,
                ));
            }
            self.directory.remove(actor.0);
            // Fall through: re-place on a trusted server.
        }
        let mut hinted = None;
        if let Some(hint) = self.servers[origin].take_location_hint(&actor) {
            if !self.suspects(origin, hint, now) {
                hinted = Some(hint);
            }
        }
        let preferred = hinted.unwrap_or_else(|| {
            self.config.placement.choose(
                actor,
                (!self.failed[origin]).then_some(origin),
                self.servers.len(),
                &mut self.rng_place,
            )
        });
        let target = if self.detector.is_some() {
            self.next_unsuspected(origin, preferred, now)
        } else {
            // No detector: ground truth. The fallback to `preferred` is
            // unreachable while any caller is itself a live server, but
            // sheds gracefully instead of panicking if that ever changes.
            self.try_next_live(preferred).unwrap_or(preferred)
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
    fn complete_request(&mut self, now: Nanos, request: u64) {
        let Some(meta) = self.requests.remove(request) else {
            return;
        };
        self.metrics.completed += 1;
        if self.trace.enabled() {
            self.record_span(SpanEvent::instant(
                request,
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

    /// Attributes `ns` of a request's latency to a named component.
    fn account(&mut self, request: u64, component: &'static str, ns: f64) {
        if !self.config.record_breakdown {
            return;
        }
        self.metrics.breakdown.add(component, ns);
        if let Some(meta) = self.requests.get_mut(request) {
            meta.accounted_ns += ns;
        }
    }

    // ------------------------------------------------------------------
    // ActOp hooks (what the controllers drive).
    // ------------------------------------------------------------------

    /// Refills `out` with the server's partition view: its hosted actors
    /// with their sampled edges, sorted by actor for determinism, kept per
    /// `scope`. This is the input the distributed partitioner's
    /// candidate-set selection consumes.
    pub fn partition_view(
        &self,
        server: usize,
        scope: ViewScope,
        out: &mut PartitionView<ActorId>,
    ) {
        let entries = self.servers[server]
            .edge_sketch
            .iter_entries()
            .map(|e| (e.item.0, e.item.1, e.count));
        out.fill(server, scope, entries, |a| self.directory.server_of(a.0));
    }

    /// Actors hosted per server (the balance-constraint input).
    pub fn server_sizes(&self) -> Vec<usize> {
        self.directory.sizes().to_vec()
    }

    /// Where an actor currently lives (directory view).
    pub fn locate(&self, actor: ActorId) -> Option<usize> {
        self.directory.server_of(actor.0)
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
            snap.rehost(actor.0, to as u32);
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
        note_split(self, now, actor.0, from as u32, to as u32);
        self.directory.add_replica(actor.0, to);
    }

    /// Drops the replica activation of `actor` on `server` (a no-op when
    /// absent, so crash cleanup can sweep unconditionally).
    pub fn drop_replica_actor(&mut self, now: Nanos, actor: ActorId, server: usize) {
        let primary = self.directory.server_of(actor.0);
        if self.directory.drop_replica(actor.0, server) {
            let primary = primary.map_or(NO_SERVER, |p| p as u32);
            note_replica_drop(self, now, actor.0, primary, server as u32);
        }
    }

    /// Number of splits currently in transfer.
    pub fn splits_in_flight(&self) -> usize {
        self.splits_in_flight.len()
    }

    /// Drains the per-stage observation windows of a server.
    pub fn drain_stage_stats(&mut self, now: Nanos, server: usize) -> [StageReport; 4] {
        self.servers[server].drain_stage_stats(now)
    }

    /// Reconfigures a server's per-stage thread allocation, in stage order.
    pub fn set_stage_threads(
        &mut self,
        engine: &mut Engine<Cluster>,
        server: usize,
        allocation: [usize; 4],
    ) {
        Process::set_stage_threads(self, engine, server, allocation);
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

    // ------------------------------------------------------------------
    // Asynchronous snapshots & stateful recovery.
    // ------------------------------------------------------------------

    /// Installs the periodic snapshot coordinator: every
    /// [`SnapshotConfig::interval`](actop_snapshot::SnapshotConfig::interval)
    /// the store server begins an asynchronous marker round over the live
    /// cluster, and `capture_window` later the round sweeps the untouched
    /// remainder and commits. A no-op without `config.snapshot`; the
    /// horizon keeps the event queue drainable. Rounds are skipped (never
    /// queued) while the store server is down, so the loop survives chaos
    /// and resumes by itself on recovery.
    pub fn install_snapshots(&self, engine: &mut Engine<Cluster>, horizon: Nanos) {
        let Some(snap) = &self.snap else {
            return;
        };
        if engine.now() + snap.cfg.interval <= horizon {
            engine.schedule_after(snap.cfg.interval, move |c: &mut Cluster, e| {
                c.snapshot_begin(e, horizon);
            });
        }
    }

    /// Begins one snapshot round (or skips it): the store server (the
    /// coordinator) marks itself, markers ride to every live peer, and the
    /// sweep that commits the round is scheduled `capture_window` out.
    /// Then the next round is scheduled, `interval` out.
    fn snapshot_begin(&mut self, engine: &mut Engine<Cluster>, horizon: Nanos) {
        let now = engine.now();
        let snap = self.snap.as_mut().expect("guarded by install");
        let cfg = snap.cfg;
        let coord = cfg.store_server as usize;
        let begun = snap.begin(now, &self.failed);
        if let Some(id) = begun {
            snap.mark(id, coord, &self.snap_links);
        }
        note_begin(self, now, cfg.store_server, begun);
        if let Some(id) = begun {
            note_marker(self, now, id, coord);
            // Markers ride the mean network delay: the snapshot machinery
            // must not draw from the shared RNG streams, or enabling it
            // would perturb snapshot-off-identical workload behavior. A
            // marker joins the cut with the server's per-link counters as
            // they stand; one that arrives late (the round aborted) or at
            // a server that crashed in flight is ignored.
            let marker_delay = self.config.costs.network.mean_delay(0);
            for peer in (0..self.servers.len()).filter(|&p| p != coord && !self.failed[p]) {
                engine.schedule_after(marker_delay, move |c: &mut Cluster, e| {
                    let snap = c.snap.as_mut().expect("markers only sent with snapshots");
                    if !c.failed[peer] && snap.mark(id, peer, &c.snap_links) {
                        note_marker(c, e.now(), id, peer);
                    }
                });
            }
            // The capture window elapsed: sweep, commit and account the
            // round (a no-op when a crash aborted it).
            engine.schedule_after(cfg.capture_window, move |c: &mut Cluster, e| {
                let snap = c.snap.as_mut().expect("sweep only scheduled");
                if let Some(swept) = snap.sweep(id) {
                    note_sweep(c, &cfg, e.now(), &swept);
                }
            });
        }
        if now + cfg.interval <= horizon {
            engine.schedule_after(cfg.interval, move |c: &mut Cluster, e| {
                c.snapshot_begin(e, horizon);
            });
        }
    }

    /// The snapshot subsystem's pre-handler hook for a request hosted at
    /// `server`: decides ([`SnapshotState::touch`]), applies the effects
    /// at once, and accounts them.
    fn snapshot_touch(&mut self, now: Nanos, server: usize, actor: u64, tag: u32) -> Touch {
        let snap = self.snap.as_mut().expect("guarded by caller");
        let cfg = snap.cfg;
        let down = self.failed[cfg.store_server as usize];
        let deferrals = &mut self.snap_deferrals;
        let touch = snap.touch(actor, server, tag, snap.cell(actor), down, deferrals, false);
        if let Touch::Proceed(t) = &touch {
            snap.apply(actor, server, t);
        }
        note_touch(self, &cfg, now, server, actor, &touch);
        touch
    }

    /// Read-only view of the durable snapshot store (`None` without
    /// `config.snapshot`) — what verification harnesses inspect.
    pub fn snapshot_store(&self) -> Option<&SnapshotStore> {
        self.snap.as_ref().map(|s| &s.store)
    }

    /// The in-memory state cell of `actor`, if the snapshot subsystem is
    /// on and the actor currently has one.
    pub fn state_cell(&self, actor: u64) -> Option<StateCell> {
        self.snap.as_ref().and_then(|s| s.cell(actor))
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
    /// detector, tracer, scrape). Merge into the engine's report (heap and
    /// CPU model, with the engine's accumulator enabled by the same flag)
    /// for the full picture.
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

    /// Whether a server is currently failed.
    pub fn is_failed(&self, server: usize) -> bool {
        self.failed[server]
    }

    /// Crashes a server: its activations, queued messages, and in-progress
    /// work are lost. Virtual actors re-activate on a live server at their
    /// next message (Orleans' fault-tolerance model, §2); requests whose
    /// state died with the server complete via the client timeout.
    pub fn fail_server(&mut self, engine: &mut Engine<Cluster>, server: usize) {
        let now = engine.now();
        crash(&mut ClusterHost::new(self, engine, now), server);
    }

    /// Brings a crashed server back (a fresh, empty process) at `now`. New
    /// activations flow to it through the placement policy; the partition
    /// agent rebalances actors onto it over time. Its detector rows are
    /// reset so it trusts every peer for one grace period; peers keep
    /// suspecting *it* until its heartbeats resume.
    pub fn recover_server(&mut self, now: Nanos, server: usize) {
        self.set_down(now, server, false);
    }

    /// The sequential side of [`ProcessHost::set_down`].
    fn set_down(&mut self, now: Nanos, server: usize, down: bool) {
        self.failed[server] = down;
        if let Some(d) = self.detector.as_mut().filter(|_| !down) {
            d.reset_observer(server, now);
        }
    }

    /// True when no request is in flight anywhere (drained).
    pub fn is_drained(&self) -> bool {
        self.requests.is_empty()
            && self.joins.is_empty()
            && self.servers.iter().all(Server::is_idle)
    }
}

/// [`AgentHost`] over the sequential cluster at `now`: views and placement
/// come from the live directory and sketches, migrations go through
/// [`Cluster::migrate_actor`] (so transfer windows and pinning rules
/// apply), cost signals are the cluster's measured counters, and thread
/// reconfiguration re-pumps through `engine`.
pub struct ClusterHost<'a> {
    cluster: &'a mut Cluster,
    /// The engine, for the events migrations and reconfiguration schedule.
    pub engine: &'a mut Engine<Cluster>,
    now: Nanos,
}

impl<'a> ClusterHost<'a> {
    /// A host over `cluster` whose tick runs at `now`.
    pub fn new(cluster: &'a mut Cluster, engine: &'a mut Engine<Cluster>, now: Nanos) -> Self {
        ClusterHost {
            cluster,
            engine,
            now,
        }
    }
}

impl PolicyHost<ActorId> for ClusterHost<'_> {
    fn servers(&self) -> usize {
        self.cluster.server_count()
    }

    fn view(&mut self, server: usize, scope: ViewScope, out: &mut PartitionView<ActorId>) {
        self.cluster.partition_view(server, scope, out);
    }

    fn locate(&mut self, a: &ActorId) -> Option<usize> {
        self.cluster.locate(*a)
    }

    fn sizes(&mut self) -> Vec<usize> {
        self.cluster.server_sizes()
    }

    fn is_failed(&mut self, server: usize) -> bool {
        self.cluster.is_failed(server)
    }

    fn last_exchange_ns(&mut self, server: usize) -> Option<u64> {
        self.cluster.servers[server].last_exchange_ns
    }

    fn migrate(&mut self, a: ActorId, to: usize) {
        self.cluster.migrate_actor(self.engine, self.now, a, to);
    }

    fn note_exchange(&mut self, p: usize, q: usize) {
        let ns = self.now.as_nanos();
        self.cluster.servers[p].last_exchange_ns = Some(ns);
        self.cluster.servers[q].last_exchange_ns = Some(ns);
    }

    fn cost_signals(&mut self) -> CostSignals {
        ClusterMetrics::cost_signals([&self.cluster.metrics], &self.cluster.config)
    }
}

impl AgentHost for ClusterHost<'_> {
    fn now(&self) -> Nanos {
        self.now
    }

    fn cores_per_server(&self) -> usize {
        self.cluster.config.costs.cores_per_server
    }

    fn policy_view(&mut self) -> &mut PartitionView<ActorId> {
        &mut self.cluster.policy_view
    }

    fn age_sketch(&mut self, server: usize, factor: f64) {
        self.cluster.servers[server].edge_sketch.scale(factor);
    }

    fn drain_stage_stats(&mut self, server: usize) -> [StageReport; 4] {
        self.cluster.drain_stage_stats(self.now, server)
    }

    fn thread_allocation(&mut self, server: usize) -> [usize; 4] {
        self.cluster.servers[server].thread_allocation()
    }

    fn queue_lengths(&mut self, server: usize) -> [usize; 4] {
        self.cluster.servers[server].queue_lengths()
    }

    fn set_stage_threads(&mut self, server: usize, allocation: [usize; 4]) {
        self.cluster
            .set_stage_threads(self.engine, server, allocation);
    }

    fn take_split_candidates(&mut self, server: usize, min_load_ns: u64) -> Vec<(u64, u64)> {
        let c = &mut *self.cluster;
        c.servers[server].take_split_candidates(&c.directory, min_load_ns)
    }

    fn directory(&self) -> &DenseDirectory {
        &self.cluster.directory
    }

    fn suspects(&mut self, observer: usize, peer: usize) -> bool {
        self.cluster.suspects(observer, peer, self.now)
    }

    /// Through [`Cluster::split_actor`], so transfer windows apply.
    fn split(&mut self, actor: ActorId, to: usize) {
        self.cluster.split_actor(self.engine, self.now, actor, to);
    }

    fn drop_replica(&mut self, actor: ActorId, server: usize) {
        self.cluster.drop_replica_actor(self.now, actor, server);
    }
}

impl ProcessHost for ClusterHost<'_> {
    type World = Cluster;

    fn world(&mut self, _server: usize) -> (&mut Cluster, &mut Engine<Cluster>) {
        (self.cluster, self.engine)
    }

    fn set_down(&mut self, server: usize, down: bool) {
        self.cluster.set_down(self.now, server, down);
    }

    fn oracle(&self) -> bool {
        self.cluster.detector.is_none()
    }

    fn directory_mut(&mut self) -> &mut DenseDirectory {
        &mut self.cluster.directory
    }

    /// The transfer dies with an endpoint: the actor stays at its source
    /// (where the source's own directory entry still points) and no
    /// replica ever appears. Lifecycle events: `request` carries the
    /// actor id, `server` the source, `aux` the destination.
    fn abort_transfers(&mut self, server: usize) {
        let (c, at) = (&mut *self.cluster, self.now);
        for (actor, from, to) in take_transfers(&mut c.migrations_in_flight, server) {
            c.metrics.migrations_aborted += 1;
            c.instant(actor, HopKind::MigrationAbort, from, u64::from(to), at);
        }
        for (actor, from, to) in take_transfers(&mut c.splits_in_flight, server) {
            c.metrics.splits_aborted += 1;
            c.instant(actor, HopKind::SplitAbort, from, u64::from(to), at);
        }
    }

    fn snapshot_crash(&mut self, server: usize) -> Option<(&mut Cluster, u64)> {
        let id = self.cluster.snap.as_mut()?.crash(server)?;
        Some((&mut *self.cluster, id))
    }
}

/// Removes the transfers in `in_flight` (actor -> (from, to)) with
/// `server` as an endpoint, returned in actor order: the deterministic
/// abort and trace order.
fn take_transfers(
    in_flight: &mut FxHashMap<u64, (u32, u32)>,
    server: usize,
) -> Vec<(u64, u32, u32)> {
    let server = server as u32;
    let mut taken: Vec<(u64, u32, u32)> = in_flight
        .extract_if(|_, &mut (from, to)| from == server || to == server)
        .map(|(actor, (from, to))| (actor, from, to))
        .collect();
    taken.sort_unstable();
    taken
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
        let now = e.now();
        let host = &mut ClusterHost::new(c, e, now);
        replication_round(host, server..server + 1, &rep, &mut cooldowns);
        schedule_replication_tick(e, server, rep, cooldowns, rep.check_interval, horizon);
    });
}

impl Accounting for Cluster {
    fn metrics(&mut self) -> &mut ClusterMetrics {
        &mut self.metrics
    }

    fn obs(&mut self) -> Option<&mut Observability> {
        self.obs.as_mut()
    }

    #[inline]
    fn span(&mut self, ev: SpanEvent) {
        if self.trace.enabled() {
            self.record_span(ev);
        }
    }
}

/// The sequential hooks: the cluster's servers and failure flags, the
/// breakdown, directory routing of requests and replies, the one join and
/// request tables, link faults on the wire, and gateway-drawn retries.
impl Process for Cluster {
    #[inline]
    fn server(&mut self, id: usize) -> &mut Server {
        &mut self.servers[id]
    }

    #[inline]
    fn is_down(&self, server: usize) -> bool {
        self.failed[server]
    }

    #[inline]
    fn prepare(&mut self, now: Nanos, server: usize, msg: Message) -> (f64, f64, PostAction) {
        let primary = self.directory.server_of(msg.to.0) == Some(server);
        let mut hosted = primary;
        if !hosted {
            // A replica activation: read-tagged requests and join
            // continuations execute here; writes fall through to
            // the forward path (primary-routed).
            let replication = self.config.replication.as_ref();
            if let Some(read) =
                replica_admits(replication, &self.directory, msg.to.0, server, msg.tag)
            {
                hosted = match msg.kind {
                    MsgKind::Request { .. } => {
                        let (request, actor) = (msg.request, msg.to.0);
                        note_replica_request(self, now, server, request, actor, read);
                        read
                    }
                    MsgKind::Response { .. } => true,
                };
            }
        }
        if !hosted {
            return (
                self.config.costs.dispatch_fixed_ns,
                0.0,
                PostAction::Forward(msg),
            );
        }
        let costs = &self.config.costs;
        let local_copy = msg.local_copy_ns(costs);
        match msg.kind {
            MsgKind::Request { .. } => {
                // Snapshot hook: restore-or-defer dead state, then
                // capture + journal writes — before the handler
                // runs (and before any RNG draw, so a deferred
                // execute replays identically).
                let (snap_cpu, snap_wait) = if self.snap.is_some() && primary {
                    match self.snapshot_touch(now, server, msg.to.0, msg.tag) {
                        Touch::Proceed(t) => (t.cpu_ns, t.blocking_ns),
                        Touch::Defer(backoff) => {
                            return (
                                self.config.costs.dispatch_fixed_ns,
                                0.0,
                                PostAction::SnapshotDefer { msg, backoff },
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
                )
            }
            MsgKind::Response { .. } => (
                self.app.continuation_cpu_ns() + local_copy,
                0.0,
                PostAction::ApplyResponse(msg),
            ),
        }
    }

    /// Read-tagged requests on replicated actors spread across live
    /// activations by seeded rendezvous hashing; writes (and everything
    /// else, including every request while replication is off) take the
    /// plain [`Process::resolve`] path to the primary.
    #[inline]
    fn route_request(
        &mut self,
        now: Nanos,
        server: usize,
        actor: ActorId,
        tag: u32,
        request: u64,
    ) -> usize {
        if let Some(rep) = self.config.replication {
            if self.directory.has_replicas() && rep.is_read(u64::from(tag)) {
                if let Some(dst) = self.route_read(now, actor, request, server) {
                    return dst;
                }
            }
        }
        self.resolve(now, server, actor)
    }

    /// The directory wins; otherwise the origin server's location hint
    /// (left by a migration, §4.3); otherwise the placement policy.
    ///
    /// Liveness knowledge is the origin server's *suspicion* (its failure
    /// detector under `config.detector`, ground truth otherwise): a
    /// directory entry pointing at a suspected host is repaired — dropped
    /// so the actor re-places — and hints/targets on suspected servers are
    /// skipped. False suspicion therefore causes real, counted damage.
    #[inline]
    fn resolve(&mut self, now: Nanos, server: usize, actor: ActorId) -> usize {
        let t = self.attr.begin(Subsystem::Routing);
        let target = self.resolve_inner(now, actor, server);
        self.attr.end(Subsystem::Routing, t);
        target
    }

    /// The one cluster-wide table.
    #[inline]
    fn joins(&mut self, _server: usize) -> &mut SlabTable<PendingJoin> {
        &mut self.joins
    }

    /// Stale when the join is gone (crash purge, timeout); else wherever
    /// the directory puts the joining actor now.
    #[inline]
    fn join_reply_dst(
        &mut self,
        now: Nanos,
        server: usize,
        _owner: u32,
        handle: u64,
        actor: ActorId,
    ) -> Option<usize> {
        self.joins.get(handle)?;
        Some(self.resolve(now, server, actor))
    }

    #[inline]
    fn request_open(&mut self, request: u64) -> bool {
        self.requests.get(request).is_some()
    }

    #[inline]
    fn forget_request(&mut self, request: u64) {
        self.requests.remove(request);
    }

    /// Both endpoint offers, inside the sketch's cost attribution.
    #[inline]
    fn offer_edges(&mut self, src: usize, dst: usize, from: ActorId, to: ActorId) {
        let t = self.attr.begin(Subsystem::Sketch);
        self.servers[src].edge_sketch.offer((from, to), 1);
        self.servers[dst].edge_sketch.offer((to, from), 1);
        self.attr.end(Subsystem::Sketch, t);
    }

    /// Draws the network delay, then applies any installed link fault
    /// (drop or extra delay) on the pair. The base delay is always drawn
    /// first so fault-free pairs consume the net RNG stream exactly as
    /// before.
    #[inline]
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
                self.instant(msg.request, HopKind::MsgLost, dst as u32, src as u64, now);
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
        self.span(SpanEvent {
            request: msg.request,
            kind: HopKind::Network,
            server: src as u32,
            stage: NO_STAGE,
            aux: dst as u64,
            t_start: now,
            t_end: now + delay,
        });
        self.snap_links.note_sent(src, dst);
        engine.schedule_after(delay, move |c: &mut Cluster, e| {
            // Delivered (not processed): on-the-wire accounting only.
            c.snap_links.note_recv(src, dst);
            if !c.failed[dst] && matches!(msg.kind, MsgKind::Response { .. }) {
                // Service-time suspicion feed: a response delivery is an
                // observed ack of the call issued at `msg.issued_at`.
                // Inert (no state, no draws) unless `detector.rt` is set.
                let rt = e.now().saturating_sub(msg.issued_at).as_nanos();
                if let Some(d) = c.detector.as_mut() {
                    d.note_service_ack(dst, src, rt);
                }
            }
            wire_arrive(c, e, dst, msg);
        });
    }

    /// The zombie check first (the root request may have resolved), then
    /// the backoff with its jitter drawn from the fault stream. The retry
    /// re-enters through a live server's receiver picked from the gateway
    /// stream when the timer fires, where the virtual actor re-activates.
    /// Exhausting the budget leaves the root request to its client
    /// timeout.
    #[cold]
    fn schedule_retry(&mut self, engine: &mut Engine<Cluster>, mut msg: Message, dead: usize) {
        if !self.request_open(msg.request) {
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
        let unit = if policy.jitter > 0.0 {
            self.rng_fault.unit()
        } else {
            0.0
        };
        let delay = policy.backoff(msg.attempts, unit);
        self.metrics.retries += 1;
        self.metrics.retry_backoff_ns += delay.as_nanos();
        let attempts = u64::from(msg.attempts);
        self.instant(
            msg.request,
            HopKind::Retry,
            dead as u32,
            attempts,
            engine.now(),
        );
        engine.schedule_after(delay, move |c: &mut Cluster, e| {
            if !c.request_open(msg.request) {
                c.metrics.zombie_branches += 1;
                return;
            }
            let first = c.rng_gateway.below(c.servers.len());
            match c.try_next_live(first) {
                Some(retry) => {
                    let mut m = msg;
                    m.forwarded = true;
                    let (at, dead) = (e.now(), dead as u64);
                    c.instant(m.request, HopKind::FailoverRetry, retry as u32, dead, at);
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

    /// The response crosses the client link; the request completes, by
    /// its table entry, when it arrives.
    #[inline]
    fn client_reply(
        &mut self,
        engine: &mut Engine<Cluster>,
        server: usize,
        request: u64,
        _root_start: Nanos,
        bytes: u64,
    ) {
        let now = engine.now();
        let delay = self.config.costs.network.delay(&mut self.rng_net, bytes);
        self.account(request, "Network", delay.as_nanos() as f64);
        self.span(SpanEvent {
            request,
            kind: HopKind::Network,
            server: server as u32,
            stage: NO_STAGE,
            aux: NO_SERVER as u64,
            t_start: now,
            t_end: now + delay,
        });
        engine.schedule_after(delay, move |c: &mut Cluster, e| {
            c.complete_request(e.now(), request);
        });
    }

    /// After the deterministic backoff the message re-enters this
    /// server's worker stage, or the failover retry path if the server
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
            if !c.request_open(msg.request) {
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

    fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    fn tracer(&mut self) -> &mut Tracer {
        &mut self.trace
    }

    fn restart(&mut self, engine: &mut Engine<Cluster>, server: usize) {
        self.servers[server].restart(engine, &self.config);
    }

    #[inline]
    fn charge(&mut self, request: u64, component: &'static str, ns: f64) {
        self.account(request, component, ns);
    }
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
