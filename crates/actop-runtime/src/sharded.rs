//! The sharded cluster: the conservative-parallel backend of the runtime.
//!
//! [`crate::cluster::Cluster`] is one discrete-event world — one event heap,
//! one thread. This module partitions the same simulated cluster across N
//! shards (`server % shards`), each with its own event heap, and runs them
//! under `actop_sim::shard::ConservativeRunner`: shards execute windows of
//! `lookahead` simulated nanoseconds in parallel and exchange cross-server
//! messages at barrier boundaries. The lookahead is the network delay floor
//! ([`actop_sim::NetworkModel::base_ns`]): every server-to-server delivery
//! is at least one lookahead in the future, so no shard can affect another
//! inside a window.
//!
//! # Determinism
//!
//! Results are byte-identical for a fixed seed **regardless of shard count
//! or worker-thread count**. The mechanisms:
//!
//! * Per-server RNG streams (`0x1000 + id` for application draws,
//!   `0x2000 + id` for network draws), so a server's draw sequence depends
//!   only on its own event order, which window boundaries preserve.
//! * All server-to-server messages travel through the runner's outbox and
//!   are injected in `(time, sender, sender-seq)` order at barriers — even
//!   messages whose destination happens to share the sender's shard.
//! * Shared state (the placement directory, the failure flags) is read-only
//!   during windows; writes are buffered and applied in sorted order by the
//!   barrier hook ([`barrier_flush`]). Each server keeps a private overlay
//!   of its own window-local placements so its routing never depends on
//!   what *other* shards did concurrently.
//! * Cross-server edge-sketch offers are buffered and applied at barriers
//!   in sorted, aggregated order; only a server's own offers go in directly.
//!
//! # Deviations from the sequential cluster
//!
//! The sharded backend runs the same server process and message
//! lifecycle as [`crate::cluster::Cluster`] (`crate::process`,
//! `crate::lifecycle`) but not the same event interleaving, so per-run
//! numbers differ between the two backends (distributions agree).
//! Semantic differences, each in a named hook of this module's
//! `impl Process`:
//!
//! * Placement is always identity-hash based (`resolve`; the policy field
//!   is ignored); statistically equivalent to `Random` for fresh actors.
//! * Fan-out joins live on the server that issued the fan-out, and
//!   responses route to that server directly instead of chasing the actor
//!   through the directory (`joins`, `join_reply_dst`). A crash of the
//!   owner loses its joins.
//! * Transport retries pick their failover target deterministically at
//!   schedule time (`schedule_retry`; no shared gateway RNG stream).
//! * Unsupported features are rejected at build time: failure detectors,
//!   hiccups, latency breakdown, request timeouts and migration transfer
//!   windows. Link faults are not a configuration field but a runtime
//!   call on the sequential cluster (`Cluster::set_link_fault`); the
//!   sharded backend has no such call, so nothing can install one.
//! * Snapshots run the same state machine as the legacy backend
//!   (`actop_snapshot::SnapshotState`), but replace its marker protocol
//!   with an **instant cut**: the serial point that begins a round marks
//!   every live server at once, with per-link counters summed over the
//!   shards — no marker chase. Consistency is the same (a barrier is a
//!   consistent cut by construction); only the round's *shape* differs.
//!   Failover retries travel as wires from the crashed server, so they
//!   sit outside every cut, as legacy retries never enter the link
//!   counters at all. Window-local touch effects are buffered per shard
//!   and flushed sorted at the barrier (`flush_snap_ops`). Two smaller
//!   deviations ride along: state cells attach only to directory-hosted
//!   primary executions (a fresh actor's first-window writes carry no
//!   state until its placement commits at the barrier), and a deferred
//!   restore re-enters through the wire (one extra receiver pass per
//!   retry, where the legacy backend re-queues the execute directly).

use std::sync::Arc;

use actop_partition::{CostSignals, DenseDirectory, PartitionView, PolicyHost, ViewScope};
use actop_sim::{
    mix64, ConservativeRunner, DetRng, Engine, GlobalCtx, Nanos, OutMsg, PhaseCell, ShardCell,
    ShardWorld,
};
use actop_sketch::FxHashMap;
use actop_snapshot::{
    Capture, LinkCounters, SnapshotConfig, SnapshotState, SnapshotStore, StateCell, Touch, Touched,
};
use actop_trace::{HopKind, SpanEvent, Tracer, NO_SERVER, NO_STAGE};

use crate::agent::AgentHost;
use crate::app::AppLogic;
use crate::cluster::StageReport;
use crate::config::{ReplicationConfig, RuntimeConfig};
use crate::ids::ActorId;
use crate::lifecycle::wire_arrive;
use crate::metrics::{Accounting, ClusterMetrics};
use crate::obs::Observability;
use crate::process::{crash, Process, ProcessHost};
use crate::proto::{Message, MsgKind, PendingJoin, PostAction, ReplyTarget};
use crate::replication::{
    hash, note_replica_drop, note_replica_request, note_split, rendezvous, replica_admits,
    replication_round,
};
use crate::server::Server;
use crate::snapshot::{note_begin, note_marker, note_sweep, note_touch};
use crate::table::SlabTable;

// ---------------------------------------------------------------------
// Topology and shared state.
// ---------------------------------------------------------------------

/// How servers map onto shards: round-robin by id.
#[derive(Debug, Clone, Copy)]
pub struct ShardTopology {
    /// Total servers in the cluster.
    pub servers: usize,
    /// Number of shards.
    pub shards: usize,
}

impl ShardTopology {
    /// The shard owning `server`.
    #[inline]
    pub fn shard_of(&self, server: usize) -> usize {
        server % self.shards
    }
}

/// State shared by every shard: configuration, the placement directory,
/// and the failure flags. Directory and flags follow the phase discipline:
/// read-only during windows, mutated only from the serial phase.
pub struct ShardCtx {
    /// Static configuration.
    pub config: RuntimeConfig,
    /// Server-to-shard mapping.
    pub topo: ShardTopology,
    pub(crate) directory: PhaseCell<DenseDirectory>,
    pub(crate) failed: PhaseCell<Vec<bool>>,
    /// Shared snapshot/restore state (`config.snapshot`), under the same
    /// phase discipline as the directory: windows read it, per-shard
    /// effects are flushed sorted at barriers, and rounds mutate it from
    /// the serial phase.
    pub(crate) snap: Option<PhaseCell<SnapshotState>>,
    pub(crate) app: Box<dyn AppLogic + Send + Sync>,
    pub(crate) seed_mix: u64,
    pub(crate) lookahead_ns: u64,
}

/// The conservative lookahead implied by a configuration: the network
/// delay floor. Pass this to [`ConservativeRunner::new`].
pub fn sharded_lookahead(config: &RuntimeConfig) -> Nanos {
    Nanos::from_nanos(config.costs.network.base_ns as u64)
}

/// A message on the wire between servers, routed via the runner's outbox.
pub struct Wire {
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) msg: Message,
}

/// A buffered directory placement, applied place-if-vacant at the next
/// barrier. Hinted placements (migration intent) win conflicts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirOp {
    pub actor: u64,
    pub target: u32,
    pub hinted: bool,
    pub src: u32,
}

// ---------------------------------------------------------------------
// Per-server state.
// ---------------------------------------------------------------------

/// One simulated server, owned by exactly one shard: the same [`Server`]
/// as the sequential cluster's plus the state only the sharded backend
/// keeps — the window-local placement overlay, the fan-out joins, and the
/// per-server RNG streams (the determinism anchor: a server draws the
/// same sequence no matter which shard executes it).
pub(crate) struct ServerSlot {
    /// Its sketches take offers in per-server event order, so their
    /// contents are shard-layout invariant.
    pub server: Server,
    /// This server's window-local placements: entries it minted since the
    /// last barrier, not yet in the shared directory. Private per server so
    /// routing never observes another shard's concurrent decisions.
    pub dir_overlay: FxHashMap<u64, u32>,
    pub joins: SlabTable<PendingJoin>,
    pub rng_app: DetRng,
    pub rng_net: DetRng,
    /// Monotone per-sender outbox sequence (injection tie-break).
    pub out_seq: u64,
    /// Busy-core-ns snapshot taken at the steady-state reset.
    pub busy_snapshot: f64,
}

impl ServerSlot {
    fn new(id: usize, config: &RuntimeConfig) -> Self {
        ServerSlot {
            server: Server::new(id, config),
            dir_overlay: FxHashMap::default(),
            joins: SlabTable::new(),
            rng_app: DetRng::stream(config.seed, 0x1000 + id as u64),
            rng_net: DetRng::stream(config.seed, 0x2000 + id as u64),
            out_seq: 0,
            busy_snapshot: 0.0,
        }
    }
}

// ---------------------------------------------------------------------
// The shard world.
// ---------------------------------------------------------------------

/// One shard of the simulated cluster: the servers it owns plus shard-local
/// measurement state. Implements [`ShardWorld`] for the conservative
/// runner; fold per-shard metrics and traces with
/// [`ClusterMetrics::merge_from`] / [`Tracer::merge_from`] after the run.
pub struct ShardedCluster {
    shard: u32,
    ctx: Arc<ShardCtx>,
    /// Global server id -> index into `slots` (`usize::MAX` if not ours).
    pub(crate) local_idx: Vec<usize>,
    pub(crate) slots: Vec<ServerSlot>,
    pub(crate) metrics: ClusterMetrics,
    pub(crate) trace: Tracer,
    /// Shard-local telemetry; every shard registers the identical schema
    /// so registries merge by value summation after the run.
    pub(crate) obs: Option<Observability>,
    outbox: Vec<OutMsg<Wire>>,
    pub(crate) dir_ops: Vec<DirOp>,
    pub(crate) sketch_offers: Vec<(u32, ActorId, ActorId)>,
    /// Window-local working copies of state cells touched by this shard's
    /// servers (an actor's host is unique between barriers, so exactly one
    /// shard writes it): `actor -> (host, cell, lazy capture)`. Flushed
    /// into [`SnapshotState`] at barriers; rounds open and close only at
    /// serial points, so a buffered capture belongs to the open round.
    pub(crate) snap_overlay: FxHashMap<u64, (u32, StateCell, Option<Capture>)>,
    /// Window-local journal appends: `(actor, version, value)`. Flushed
    /// sorted into the shared store at barriers — versions are per-actor
    /// monotone, so the sort is the canonical, layout-invariant order.
    pub(crate) snap_journal_ops: Vec<(u64, u64, u64)>,
    /// Restore-deferral attempt counts (the exponential-backoff input).
    /// Deferred messages re-deliver to the same server, so the counter
    /// stays on one shard.
    pub(crate) snap_defer_attempts: FxHashMap<u64, u32>,
    /// Per-link counts of the wires this shard's servers sent and
    /// received (empty without snapshots; summed over the shards at each
    /// cut).
    pub(crate) snap_links: LinkCounters,
    /// View buffer lent to partition rounds (shard 0's is the one used;
    /// see [`ShardedHost`]).
    policy_view: PartitionView<ActorId>,
}

/// Builds the shard worlds for a configuration. `shards` is clamped to
/// `[1, servers]`; servers are dealt round-robin (`server % shards`).
///
/// # Panics
///
/// Panics when the configuration uses a feature the sharded backend does
/// not support (failure detector, hiccups, breakdown recording, request
/// timeouts, migration transfer windows), when the network delay floor
/// is zero (no conservative lookahead would exist), or when a backoff
/// that re-delivers through the outbox is below that floor: the retry
/// base backoff, or with snapshots the restore backoff.
pub fn build_sharded(
    config: RuntimeConfig,
    app: Box<dyn AppLogic + Send + Sync>,
    shards: usize,
) -> Vec<ShardedCluster> {
    config.validate();
    assert!(
        config.detector.is_none(),
        "sharded runtime does not support failure detectors"
    );
    assert!(
        config.hiccups.is_none(),
        "sharded runtime does not support hiccup injection"
    );
    assert!(
        !config.record_breakdown,
        "sharded runtime does not support latency breakdown recording"
    );
    assert!(
        config.request_timeout.is_none(),
        "sharded runtime does not support request timeouts"
    );
    assert!(
        config.migration_transfer.is_none(),
        "sharded runtime does not support migration transfer windows"
    );
    let lookahead_ns = config.costs.network.base_ns as u64;
    assert!(
        lookahead_ns > 0,
        "sharded runtime needs a positive network delay floor"
    );
    assert!(
        config.retry.base_backoff.as_nanos() >= lookahead_ns,
        "retry base backoff must be at least the network delay floor"
    );
    if let Some(s) = config.snapshot {
        // Restore deferrals re-deliver through the outbox, so the first
        // backoff must already clear the conservative lookahead.
        assert!(
            s.restore_backoff.as_nanos() >= lookahead_ns,
            "snapshot restore backoff must be at least the network delay floor"
        );
    }
    let shards = shards.clamp(1, config.servers);
    let servers = config.servers;
    let series_bin = config.series_bin_ns;
    let trace_cfg = config.trace.clone();
    let seed_mix = mix64(config.seed ^ 0x5aad_ed00_c0ff_ee00);
    let ctx = Arc::new(ShardCtx {
        topo: ShardTopology { servers, shards },
        directory: PhaseCell::new(DenseDirectory::new(servers)),
        failed: PhaseCell::new(vec![false; servers]),
        snap: config
            .snapshot
            .map(|cfg| PhaseCell::new(SnapshotState::new(cfg))),
        app,
        seed_mix,
        lookahead_ns,
        config,
    });
    (0..shards)
        .map(|shard| {
            let slots: Vec<ServerSlot> = (shard..servers)
                .step_by(shards)
                .map(|id| ServerSlot::new(id, &ctx.config))
                .collect();
            let mut local_idx = vec![usize::MAX; servers];
            for (i, slot) in slots.iter().enumerate() {
                local_idx[slot.server.id] = i;
            }
            let trace = match &trace_cfg {
                Some(tc) => Tracer::new(servers, tc),
                None => Tracer::disabled(),
            };
            let obs = ctx.config.obs.as_ref().map(|o| {
                Observability::with_snapshot(o, servers, series_bin, ctx.config.snapshot.is_some())
            });
            ShardedCluster {
                shard: shard as u32,
                ctx: Arc::clone(&ctx),
                local_idx,
                slots,
                metrics: ClusterMetrics::new(series_bin),
                trace,
                obs,
                outbox: Vec::new(),
                dir_ops: Vec::new(),
                sketch_offers: Vec::new(),
                snap_overlay: FxHashMap::default(),
                snap_journal_ops: Vec::new(),
                snap_defer_attempts: FxHashMap::default(),
                snap_links: LinkCounters::new(ctx.snap.as_ref().map_or(0, |_| servers)),
                policy_view: PartitionView::new(),
            }
        })
        .collect()
}

// SAFETY: every event scheduled into a shard's engine captures only `Copy`
// message structs, plain indices, or running tasks (owned plain data) — all
// `Send`. Shared state is reached through `Arc<ShardCtx>`, which is
// `Send + Sync` by construction.
unsafe impl ShardWorld for ShardedCluster {
    type Msg = Wire;

    fn deliver(&mut self, engine: &mut Engine<Self>, at: Nanos, wire: Wire) {
        debug_assert_eq!(
            self.ctx.topo.shard_of(wire.dst as usize),
            self.shard as usize,
            "wire routed to the wrong shard"
        );
        let (src, dst) = (wire.src as usize, wire.dst as usize);
        let msg = wire.msg;
        engine.schedule(at, move |w: &mut ShardedCluster, e| {
            // Delivered-not-processed accounting: bumped even when the
            // destination is down (sent − recv counts on-the-wire only).
            w.snap_links.note_recv(src, dst);
            wire_arrive(w, e, dst, msg)
        });
    }

    fn drain_outbox(&mut self, sink: &mut Vec<OutMsg<Wire>>) {
        sink.append(&mut self.outbox);
    }
}

impl Accounting for ShardedCluster {
    fn metrics(&mut self) -> &mut ClusterMetrics {
        &mut self.metrics
    }

    fn obs(&mut self) -> Option<&mut Observability> {
        self.obs.as_mut()
    }

    #[inline]
    fn span(&mut self, ev: SpanEvent) {
        if self.trace.enabled() {
            self.trace.record(ev);
        }
    }
}

impl ShardedCluster {
    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.shard as usize
    }

    /// The shared cluster state.
    pub fn shared(&self) -> Arc<ShardCtx> {
        Arc::clone(&self.ctx)
    }

    /// This shard's measurements (merge across shards after a run).
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// This shard's tracer (merge across shards after a run).
    pub fn trace(&self) -> &Tracer {
        &self.trace
    }

    /// True when this shard owns `server`.
    pub fn owns_server(&self, server: usize) -> bool {
        self.local_idx.get(server).is_some_and(|&i| i != usize::MAX)
    }

    /// Global ids of the servers this shard owns, ascending.
    pub fn local_servers(&self) -> Vec<usize> {
        self.slots.iter().map(|s| s.server.id).collect()
    }

    /// True when the last window buffered a shared-state effect for the
    /// barrier flush: a directory op, a sketch offer or a snapshot effect.
    fn has_buffered_effects(&self) -> bool {
        !(self.dir_ops.is_empty()
            && self.sketch_offers.is_empty()
            && self.snap_overlay.is_empty()
            && self.snap_journal_ops.is_empty())
    }

    /// Resets latency/counter state for steady-state measurement and
    /// snapshots each local server's busy-core integral. Announces the
    /// reset to the telemetry mirrors first so registry counters stay
    /// monotone.
    pub fn reset_steady_state(&mut self) {
        if let Some(obs) = self.obs.as_mut() {
            obs.note_reset(&self.metrics);
        }
        self.metrics.reset_steady_state();
        for slot in &mut self.slots {
            slot.busy_snapshot = slot.server.cpu.busy_core_ns();
        }
    }

    /// The telemetry scrape cadence, when configured.
    pub fn obs_interval(&self) -> Option<Nanos> {
        self.obs.as_ref().map(|o| o.interval())
    }

    /// Takes this shard's telemetry out (for post-run cross-shard
    /// merging).
    pub fn take_obs(&mut self) -> Option<Observability> {
        self.obs.take()
    }

    /// Takes one telemetry scrape at `now` (serial phase). Counters and
    /// the latency histogram come from shard-local metrics; gauges are
    /// set only for owned servers and left at zero elsewhere, so the
    /// cross-shard gauge *sum* equals the cluster value. `failed` is the
    /// shared ground-truth liveness vector and `replicas` the directory's
    /// replica-activation count, both read by the caller in the serial
    /// phase.
    pub fn obs_scrape(&mut self, now: Nanos, failed: &[bool], replicas: f64) {
        let Some(mut obs) = self.obs.take() else {
            return;
        };
        let per_server: Vec<(f64, f64)> = (0..failed.len())
            .map(|s| {
                if !self.owns_server(s) {
                    return (0.0, 0.0);
                }
                let queue: usize = self.slots[self.slot_idx(s)]
                    .server
                    .queue_lengths()
                    .iter()
                    .sum();
                (queue as f64, if failed[s] { 0.0 } else { 1.0 })
            })
            .collect();
        if self.ctx.config.replication.is_some() && self.owns_server(0) {
            // Cluster-wide gauge: registries merge by value summation, so
            // exactly one shard (the owner of server 0) reports it.
            obs.set_replica_activations(replicas);
        }
        obs.scrape(now, &self.metrics, &per_server);
        // No SLO drain here: sharded SLO evaluation runs once over the
        // *merged* series after the run, producing the same bin-aligned
        // alert stream the legacy backend emits online.
        self.obs = Some(obs);
    }

    /// Each local server's CPU utilization over `[since, now]`, measured
    /// from the steady-state snapshots, keyed by global server id. Callers
    /// must reduce across shards in global server order — a float sum in
    /// shard order would make the cluster mean's low bits depend on the
    /// shard split.
    pub fn utilizations(&self, since: Nanos, now: Nanos) -> Vec<(usize, f64)> {
        self.slots
            .iter()
            .map(|s| {
                (
                    s.server.id,
                    s.server.cpu.utilization_since(s.busy_snapshot, since, now),
                )
            })
            .collect()
    }

    /// A snapshot of the shared placement directory, for post-run
    /// inspection (actor counts, server sizes) by benches.
    ///
    /// Call only while the runner is idle — between `run_until` calls or
    /// after the run — never from inside a window phase.
    pub fn directory_snapshot(&self) -> DenseDirectory {
        // SAFETY: no window phase is live on an idle runner, so nothing
        // holds the cell; see the `PhaseCell` discipline in the module docs.
        unsafe { self.ctx.directory.get() }.clone()
    }

    /// True when nothing is queued, running, or joining on this shard.
    pub fn is_drained(&self) -> bool {
        self.outbox.is_empty()
            && self
                .slots
                .iter()
                .all(|s| s.server.is_idle() && s.joins.is_empty())
    }

    #[inline]
    fn slot_idx(&self, server: usize) -> usize {
        let idx = self.local_idx[server];
        debug_assert_ne!(
            idx,
            usize::MAX,
            "server {server} not on shard {}",
            self.shard
        );
        idx
    }

    // ------------------------------------------------------------------
    // The wire side (the pump is `process.rs`, the lifecycle
    // `lifecycle.rs`).
    // ------------------------------------------------------------------

    /// Queues a server-to-server delivery in the outbox for injection at a
    /// barrier. `src` keys the tie-break sequence; `at` must be at least
    /// one lookahead past the current window.
    fn push_wire(&mut self, at: Nanos, src: usize, dst: usize, msg: Message) {
        self.snap_links.note_sent(src, dst);
        let idx = self.slot_idx(src);
        let slot = &mut self.slots[idx];
        slot.out_seq += 1;
        self.outbox.push(OutMsg {
            at,
            src_server: src as u32,
            src_seq: slot.out_seq,
            dst_shard: self.ctx.topo.shard_of(dst) as u32,
            msg: Wire {
                src: src as u32,
                dst: dst as u32,
                msg,
            },
        });
    }

    /// Completes a client request: the response reached the client.
    fn complete_request(&mut self, now: Nanos, request: u64, root_start: Nanos) {
        self.metrics.completed += 1;
        if self.trace.enabled() {
            self.trace.record(SpanEvent::instant(
                request,
                HopKind::ClientDone,
                NO_SERVER,
                0,
                now,
            ));
        }
        let total = (now - root_start).as_nanos();
        self.metrics.e2e_latency.record(total);
        self.metrics
            .latency_series
            .record(now.as_nanos(), total as f64);
        if let Some(obs) = self.obs.as_mut() {
            obs.observe_latency(total);
        }
    }

    // ------------------------------------------------------------------
    // Snapshots & stateful recovery (the window-phase half; the round
    // lifecycle lives in the serial-phase helpers below).
    // ------------------------------------------------------------------

    /// The snapshot subsystem's pre-handler hook for a directory-hosted
    /// request at `server`: decides ([`SnapshotState::touch`]) against
    /// this window's working copy of the cell, buffers the effects for the
    /// next barrier (shared state is only *read* here), and accounts.
    fn snapshot_touch(&mut self, now: Nanos, server: usize, actor: u64, tag: u32) -> Touch {
        // SAFETY: window-phase reads; writers only in the serial phase.
        let snap = unsafe { self.ctx.snap.as_ref().expect("guarded by caller").get() };
        // SAFETY: as above.
        let failed = unsafe { self.ctx.failed.get() };
        let cfg = snap.cfg;
        // The working copy: this window's overlay entry, else the shared
        // cell as of the last barrier (the host is unique between
        // barriers, so nobody else writes this actor concurrently).
        let (cell, captured) = match self.snap_overlay.get(&actor) {
            Some(&(_, cell, captured)) => (Some(cell), captured),
            None => (snap.cell(actor), None),
        };
        let down = failed[cfg.store_server as usize];
        let deferrals = &mut self.snap_defer_attempts;
        let pending = captured.is_some();
        let touch = snap.touch(actor, server, tag, cell, down, deferrals, pending);
        if let Touch::Proceed(Touched {
            cell: Some(cell),
            capture,
            write,
            ..
        }) = touch
        {
            if write {
                self.snap_journal_ops
                    .push((actor, cell.version, cell.value));
            }
            // Every touch refreshes the overlay entry, which self-heals
            // the host hint at the barrier flush.
            self.snap_overlay
                .insert(actor, (server as u32, cell, capture.or(captured)));
        }
        note_touch(self, &cfg, now, server, actor, &touch);
        touch
    }

    /// Runs `f` against the shared durable snapshot store (`None` without
    /// `config.snapshot`) — what verification harnesses inspect.
    ///
    /// Call only while the runner is idle — between `run_until` calls or
    /// after the run — never from inside a window phase (the same
    /// contract as [`Self::directory_snapshot`]).
    pub fn with_snapshot_store<R>(&self, f: impl FnOnce(&SnapshotStore) -> R) -> Option<R> {
        self.ctx.snap.as_ref().map(|cell| {
            // SAFETY: no window phase is live on an idle runner.
            f(&unsafe { cell.get() }.store)
        })
    }

    /// The in-memory state cell of `actor`, if the snapshot subsystem is
    /// on and the actor currently has one. Same idle-runner contract as
    /// [`Self::with_snapshot_store`].
    pub fn shared_state_cell(&self, actor: u64) -> Option<StateCell> {
        self.ctx.snap.as_ref().and_then(|cell| {
            // SAFETY: no window phase is live on an idle runner.
            unsafe { cell.get() }.cell(actor)
        })
    }

    // ------------------------------------------------------------------
    // ActOp hooks (serial-phase; driven through `ShardedHost`).
    // ------------------------------------------------------------------

    /// Drains the per-stage observation windows of a local server.
    pub fn drain_stage_stats(&mut self, now: Nanos, server: usize) -> [StageReport; 4] {
        let idx = self.slot_idx(server);
        self.slots[idx].server.drain_stage_stats(now)
    }

    /// Current thread allocation of a local server, in stage order.
    pub fn thread_allocation(&self, server: usize) -> [usize; 4] {
        self.slots[self.slot_idx(server)].server.thread_allocation()
    }
}

/// The sharded hooks: a slot's server, the shared failure flags, and the
/// sharded routing (DESIGN.md §12): identity-hash placement, joins on the
/// server that issued the fan-out with replies routed to it, buffered
/// remote sketch offers, the wire through the outbox, and hash-picked
/// retry targets.
impl Process for ShardedCluster {
    #[inline]
    fn server(&mut self, id: usize) -> &mut Server {
        let idx = self.slot_idx(id);
        &mut self.slots[idx].server
    }

    /// Reads the shared flags, which only change at barriers.
    #[inline]
    fn is_down(&self, server: usize) -> bool {
        // SAFETY: `failed` is written only from the serial phase; windows
        // and the serial thread both may read.
        let failed = unsafe { self.ctx.failed.get() };
        failed[server]
    }

    /// Worker requests draw from the *server's* RNG stream.
    #[inline]
    fn prepare(&mut self, now: Nanos, server: usize, msg: Message) -> (f64, f64, PostAction) {
        match msg.kind {
            MsgKind::Request { .. } => {
                // Hosted = directory entry, or our own window-local
                // placement not yet flushed to the directory.
                // SAFETY: window-phase read; writers only at barriers.
                let dir = unsafe { self.ctx.directory.get() };
                let dir_primary = dir.server_of(msg.to.0) == Some(server);
                let mut hosted = match dir.server_of(msg.to.0) {
                    Some(s) => s == server,
                    None => {
                        self.slots[self.local_idx[server]]
                            .dir_overlay
                            .get(&msg.to.0)
                            == Some(&(server as u32))
                    }
                };
                // A replica activation executes reads in place; a write
                // that lands here falls through to the forward path and
                // reaches the primary (replica sets change only at
                // barriers, so this check is shard-layout invariant).
                if !hosted {
                    let replication = self.ctx.config.replication.as_ref();
                    if let Some(read) = replica_admits(replication, dir, msg.to.0, server, msg.tag)
                    {
                        hosted = read;
                        let (request, actor) = (msg.request, msg.to.0);
                        note_replica_request(self, now, server, request, actor, read);
                    }
                }
                if !hosted {
                    return (
                        self.ctx.config.costs.dispatch_fixed_ns,
                        0.0,
                        PostAction::Forward(msg),
                    );
                }
                // Snapshot state attaches only to directory-hosted
                // primary executions: an activation still pending in a
                // window-local overlay may lose its placement conflict
                // at the barrier, so its first-window touches carry no
                // state (a documented deviation from the sequential
                // cluster). The gate makes every state touch happen on
                // the actor's unique host, which is what keeps version
                // sequences exact across shard layouts.
                let (snap_cpu, snap_wait) = if self.ctx.snap.is_some() && dir_primary {
                    match self.snapshot_touch(now, server, msg.to.0, msg.tag) {
                        Touch::Proceed(t) => (t.cpu_ns, t.blocking_ns),
                        Touch::Defer(backoff) => {
                            return (
                                self.ctx.config.costs.dispatch_fixed_ns,
                                0.0,
                                PostAction::SnapshotDefer { msg, backoff },
                            );
                        }
                    }
                } else {
                    (0.0, 0.0)
                };
                let local_copy = msg.local_copy_ns(&self.ctx.config.costs);
                let ctx = &self.ctx;
                let slot = &mut self.slots[self.local_idx[server]];
                let reaction = ctx.app.on_request(msg.to, msg.tag, &mut slot.rng_app);
                if ctx.config.replication.is_some() {
                    slot.server
                        .load_sketch
                        .offer(msg.to, reaction.cpu_ns as u64);
                }
                (
                    reaction.cpu_ns + local_copy + snap_cpu,
                    reaction.blocking_ns + snap_wait,
                    PostAction::ApplyRequest { msg, reaction },
                )
            }
            MsgKind::Response { .. } => {
                // Responses execute on the join's owner server by
                // construction — no hosted check, no forwarding.
                (
                    self.ctx.app.continuation_cpu_ns() + msg.local_copy_ns(&self.ctx.config.costs),
                    0.0,
                    PostAction::ApplyResponse(msg),
                )
            }
        }
    }

    /// Read-tagged requests on replicated actors by rendezvous over their
    /// live activations; writes (and every request while replication is
    /// off) take the plain [`Process::resolve`] path to the primary.
    /// Replica sets and liveness change only at barriers, so the choice
    /// is shard-layout invariant.
    #[inline]
    fn route_request(
        &mut self,
        now: Nanos,
        server: usize,
        actor: ActorId,
        tag: u32,
        request: u64,
    ) -> usize {
        if let Some(rep) = self.ctx.config.replication {
            if rep.is_read(u64::from(tag)) {
                // SAFETY: window-phase read; writers only at barriers.
                let dir = unsafe { self.ctx.directory.get() };
                if let Some(primary) = dir.server_of(actor.0) {
                    let reps = dir.replicas_of(actor.0);
                    if !reps.is_empty() {
                        // Failed servers are purged from the directory
                        // eagerly (serial phase), so every candidate is
                        // live; the filter is cheap insurance.
                        // SAFETY: as in `is_down`.
                        let failed = unsafe { self.ctx.failed.get() };
                        let live = std::iter::once(primary as u32)
                            .chain(reps.iter().copied())
                            .filter(|&c| !failed[c as usize]);
                        if let Some(c) = rendezvous(hash(actor.0, request), live) {
                            return c as usize;
                        }
                    }
                }
            }
        }
        self.resolve(now, server, actor)
    }

    /// Placement is identity-hash based (deterministic without a shared
    /// RNG stream); the new entry is buffered for the next barrier and
    /// mirrored in this server's private overlay.
    #[inline]
    fn resolve(&mut self, _now: Nanos, server: usize, actor: ActorId) -> usize {
        // SAFETY: window-phase read; writers only at barriers.
        let dir = unsafe { self.ctx.directory.get() };
        if let Some(s) = dir.server_of(actor.0) {
            return s;
        }
        let idx = self.local_idx[server];
        if let Some(&s) = self.slots[idx].dir_overlay.get(&actor.0) {
            return s as usize;
        }
        // SAFETY: as for the directory: the failure flags change only from
        // the serial phase.
        let failed = unsafe { self.ctx.failed.get() };
        let hint = self.slots[idx]
            .server
            .take_location_hint(&actor)
            .filter(|&h| !failed[h]);
        let hinted = hint.is_some();
        let preferred = hint.unwrap_or_else(|| {
            (mix64(actor.0 ^ self.ctx.seed_mix) % self.ctx.topo.servers as u64) as usize
        });
        let target = self.try_next_live(preferred).unwrap_or(preferred);
        self.slots[idx].dir_overlay.insert(actor.0, target as u32);
        self.dir_ops.push(DirOp {
            actor: actor.0,
            target: target as u32,
            hinted,
            src: server as u32,
        });
        target
    }

    /// The table of the slot that issued the fan-out.
    #[inline]
    fn joins(&mut self, server: usize) -> &mut SlabTable<PendingJoin> {
        let idx = self.slot_idx(server);
        &mut self.slots[idx].joins
    }

    /// The owner, directly: no directory lookup. A crash of the owner
    /// loses its joins, and the reply then arrives stale.
    #[inline]
    fn join_reply_dst(
        &mut self,
        _now: Nanos,
        _server: usize,
        owner: u32,
        _handle: u64,
        _actor: ActorId,
    ) -> Option<usize> {
        Some(owner as usize)
    }

    /// The source offer goes in directly (the source is local); a remote
    /// destination's offer is buffered for the barrier so sketch update
    /// order is independent of the shard layout.
    #[inline]
    fn offer_edges(&mut self, src: usize, dst: usize, from: ActorId, to: ActorId) {
        let idx = self.slot_idx(src);
        self.slots[idx].server.edge_sketch.offer((from, to), 1);
        if dst == src {
            self.slots[idx].server.edge_sketch.offer((to, from), 1);
        } else {
            self.sketch_offers.push((dst as u32, to, from));
        }
    }

    /// Through the outbox. The network delay floor is the runner's
    /// lookahead, so the delivery is always injectable at a later
    /// barrier.
    #[inline]
    fn net_send(
        &mut self,
        engine: &mut Engine<ShardedCluster>,
        src: usize,
        dst: usize,
        msg: Message,
    ) {
        let now = engine.now();
        let idx = self.slot_idx(src);
        let delay = self
            .ctx
            .config
            .costs
            .network
            .delay(&mut self.slots[idx].rng_net, msg.bytes);
        self.span(SpanEvent {
            request: msg.request,
            kind: HopKind::Network,
            server: src as u32,
            stage: NO_STAGE,
            aux: dst as u64,
            t_start: now,
            t_end: now + delay,
        });
        debug_assert!(
            delay.as_nanos() >= self.ctx.lookahead_ns,
            "network delay below the conservative lookahead"
        );
        self.push_wire(now + delay, src, dst, msg);
    }

    /// Unlike the sequential cluster (which draws the failover target
    /// from the gateway stream when the timer fires), the target is
    /// picked *now*, deterministically from the message identity, and
    /// the retry ships through the outbox — backoff is always at least
    /// the base backoff, which build validation pins above the
    /// lookahead. The jitter is a pure hash of (request, attempt): no
    /// RNG stream, so it cannot depend on cross-server event
    /// interleaving.
    #[cold]
    fn schedule_retry(
        &mut self,
        engine: &mut Engine<ShardedCluster>,
        mut msg: Message,
        dead: usize,
    ) {
        let policy = self.ctx.config.retry;
        if msg.attempts >= policy.max_attempts {
            self.metrics.retry_budget_exhausted += 1;
            return;
        }
        msg.attempts += 1;
        let h = mix64(msg.request ^ mix64(self.ctx.seed_mix ^ u64::from(msg.attempts)));
        let delay = policy.backoff(msg.attempts, (h >> 11) as f64 / (1u64 << 53) as f64);
        self.metrics.retries += 1;
        self.metrics.retry_backoff_ns += delay.as_nanos();
        let now = engine.now();
        let attempts = u64::from(msg.attempts);
        self.instant(msg.request, HopKind::Retry, dead as u32, attempts, now);
        let first = (mix64(
            msg.request ^ mix64(self.ctx.seed_mix.rotate_left(17) ^ u64::from(msg.attempts)),
        ) % self.ctx.topo.servers as u64) as usize;
        // When nobody is live the message bounces off the dead server again
        // and re-enters this retry path with one more attempt consumed.
        let target = self.try_next_live(first).unwrap_or(dead);
        msg.forwarded = true;
        let at = now + delay;
        self.instant(
            msg.request,
            HopKind::FailoverRetry,
            target as u32,
            dead as u64,
            at,
        );
        debug_assert!(delay.as_nanos() >= self.ctx.lookahead_ns);
        self.push_wire(at, dead, target, msg);
    }

    /// The request completes, by its in-message submission time, when
    /// the response arrives. Client-side delivery stays on this shard: no
    /// lookahead constraint.
    #[inline]
    fn client_reply(
        &mut self,
        engine: &mut Engine<ShardedCluster>,
        server: usize,
        request: u64,
        root_start: Nanos,
        bytes: u64,
    ) {
        let now = engine.now();
        let idx = self.slot_idx(server);
        let delay = self
            .ctx
            .config
            .costs
            .network
            .delay(&mut self.slots[idx].rng_net, bytes);
        self.span(SpanEvent {
            request,
            kind: HopKind::Network,
            server: server as u32,
            stage: NO_STAGE,
            aux: NO_SERVER as u64,
            t_start: now,
            t_end: now + delay,
        });
        engine.schedule_after(delay, move |w: &mut ShardedCluster, e| {
            w.complete_request(e.now(), request, root_start);
        });
    }

    /// Re-delivers the execute to this same server through the outbox
    /// (the backoff clears the lookahead by build validation). The
    /// arrival re-enters the receiver stage — a deferral pays one extra
    /// receiver pass here, unlike the sequential cluster's direct worker
    /// re-enqueue. Marking it forwarded keeps the redelivery out of the
    /// fresh-request admission check.
    #[cold]
    fn snapshot_defer(
        &mut self,
        engine: &mut Engine<ShardedCluster>,
        server: usize,
        mut msg: Message,
        backoff: Nanos,
    ) {
        msg.forwarded = true;
        debug_assert!(backoff.as_nanos() >= self.ctx.lookahead_ns);
        self.push_wire(engine.now() + backoff, server, server, msg);
    }

    fn config(&self) -> &RuntimeConfig {
        &self.ctx.config
    }

    fn tracer(&mut self) -> &mut Tracer {
        &mut self.trace
    }

    /// The slot's RNG streams and outbox sequence survive: they belong to
    /// the server identity, and keeping them preserves the per-server
    /// draw order. The placement overlay and the joins die with the
    /// process.
    fn restart(&mut self, engine: &mut Engine<ShardedCluster>, server: usize) {
        let idx = self.slot_idx(server);
        let slot = &mut self.slots[idx];
        slot.server.restart(engine, &self.ctx.config);
        slot.dir_overlay.clear();
        slot.joins = SlabTable::new();
    }
}

// ---------------------------------------------------------------------
// Serial-phase helpers. Holding `&mut GlobalCtx` proves the caller is on
// the serial thread, which is what makes the internal `PhaseCell`
// accesses sound — these functions are the safe API over that discipline.
// ---------------------------------------------------------------------

type Ctx<'a, 'b> = &'a mut GlobalCtx<'b, ShardedCluster>;

fn shared_of(ctx: Ctx<'_, '_>) -> Arc<ShardCtx> {
    ctx.cell(0).world.shared()
}

/// Installs the barrier hook that flushes buffered shared-state effects.
/// Call once on a fresh runner, before running.
pub fn install_sharded_hooks(runner: &mut ConservativeRunner<ShardedCluster>) {
    runner.set_barrier_hook(barrier_flush);
}

/// The barrier hook: applies buffered directory placements (sorted,
/// place-if-vacant, hinted ops first) and cross-server sketch offers
/// (sorted, aggregated), then clears the placement overlays of the
/// shards that placed. Runs after every window, so its cost follows what
/// the window buffered: a window that buffered nothing returns at once.
pub fn barrier_flush(ctx: &mut GlobalCtx<'_, ShardedCluster>) {
    if !ctx.cells().iter().any(|c| c.world.has_buffered_effects()) {
        return;
    }
    let shared = shared_of(ctx);
    let mut ops: Vec<DirOp> = Vec::new();
    let mut offers: Vec<(u32, ActorId, ActorId)> = Vec::new();
    for cell in ctx.cells() {
        if !cell.world.dir_ops.is_empty() {
            // Overlay entries are only made alongside a buffered op.
            ops.append(&mut cell.world.dir_ops);
            for slot in &mut cell.world.slots {
                slot.dir_overlay.clear();
            }
        }
        offers.append(&mut cell.world.sketch_offers);
    }
    if !ops.is_empty() {
        ops.sort_unstable_by_key(|o| (o.actor, !o.hinted, o.target, o.src));
        // SAFETY: serial phase; no window reader is live.
        let dir = unsafe { shared.directory.get_mut() };
        for op in ops {
            if dir.server_of(op.actor).is_none() {
                dir.place(op.actor, op.target as usize);
            }
        }
    }
    if !offers.is_empty() {
        offers.sort_unstable();
        let mut i = 0;
        while i < offers.len() {
            let (dst, to, from) = offers[i];
            let mut j = i + 1;
            while j < offers.len() && offers[j] == (dst, to, from) {
                j += 1;
            }
            let count = (j - i) as u64;
            let cell = ctx.cell(shared.topo.shard_of(dst as usize));
            let idx = cell.world.local_idx[dst as usize];
            cell.world.slots[idx]
                .server
                .edge_sketch
                .offer((to, from), count);
            i = j;
        }
    }
    flush_snap_ops(ctx, &shared);
}

/// Applies every shard's buffered snapshot effects to the shared state,
/// in sorted (layout-invariant) order: overlay cells replace their shared
/// entries, journal appends land in the durable store, and lazy captures
/// join the open round. Runs inside the barrier hook, so every
/// serial-phase global event observes current shared snapshot state.
fn flush_snap_ops(ctx: &mut GlobalCtx<'_, ShardedCluster>, shared: &ShardCtx) {
    let Some(snap_cell) = shared.snap.as_ref() else {
        return;
    };
    let mut cells = Vec::new();
    let mut journal: Vec<(u64, u64, u64)> = Vec::new();
    for cell in ctx.cells() {
        cells.extend(cell.world.snap_overlay.drain());
        journal.append(&mut cell.world.snap_journal_ops);
    }
    // An actor's host is unique between barriers, so each actor appears
    // in at most one shard's buffers; sorting makes the apply order
    // independent of both shard layout and map iteration order.
    cells.sort_unstable_by_key(|&(a, _)| a);
    journal.sort_unstable();
    // SAFETY: serial phase; no window reader is live.
    let snap = unsafe { snap_cell.get_mut() };
    for (a, (host, cell, capture)) in cells {
        snap.cells.insert(a, (host, cell));
        if let Some((round, pre)) = capture {
            snap.capture(round, a, pre);
        }
    }
    for (a, version, value) in journal {
        snap.store.append(a, version, value);
    }
}

/// Submits a client request at `at >= ctx.now` through a uniformly random
/// live gateway. `request` is the caller-minted global serial; the two RNG
/// streams belong to the (serial-phase) workload driver.
#[allow(clippy::too_many_arguments)]
pub fn submit_client_request_sharded(
    ctx: &mut GlobalCtx<'_, ShardedCluster>,
    at: Nanos,
    to: ActorId,
    tag: u32,
    bytes: u64,
    request: u64,
    rng_gateway: &mut DetRng,
    rng_net: &mut DetRng,
) {
    let shared = shared_of(ctx);
    let n = shared.topo.servers;
    let first = rng_gateway.below(n);
    // SAFETY: serial phase.
    let failed = unsafe { shared.failed.get() };
    let gateway = (0..n).map(|i| (first + i) % n).find(|&s| !failed[s]);
    let Some(gateway) = gateway else {
        // Total cluster loss: shed at admission (attributed to shard 0).
        let cell = ctx.cell(0);
        cell.world.metrics.submitted += 1;
        cell.world.metrics.rejected += 1;
        cell.world.metrics.shed_no_live += 1;
        if cell.world.trace.enabled() {
            cell.world
                .trace
                .record(SpanEvent::instant(request, HopKind::Shed, NO_SERVER, 0, at));
        }
        return;
    };
    let delay = shared.config.costs.network.delay(rng_net, bytes);
    let msg = Message {
        to,
        tag,
        bytes,
        kind: MsgKind::Request {
            reply_to: ReplyTarget::Client,
        },
        request,
        root_start: at,
        issued_at: at,
        delivered_remotely: true,
        from_actor: false,
        forwarded: false,
        call_was_remote: false,
        attempts: 0,
        hops: 0,
    };
    let cell = ctx.cell(shared.topo.shard_of(gateway));
    cell.world.metrics.submitted += 1;
    if cell.world.trace.enabled() {
        cell.world.trace.record(SpanEvent::instant(
            request,
            HopKind::GatewayAdmit,
            gateway as u32,
            0,
            at,
        ));
        cell.world.trace.record(SpanEvent {
            request,
            kind: HopKind::Network,
            server: gateway as u32,
            stage: NO_STAGE,
            aux: 0,
            t_start: at,
            t_end: at + delay,
        });
    }
    cell.engine
        .schedule(at + delay, move |w: &mut ShardedCluster, e| {
            wire_arrive(w, e, gateway, msg)
        });
}

/// [`AgentHost`] over the sharded backend at `now`. Agents run as global
/// events, in the serial phase (no window in flight), so the shard-local
/// reads and the shared-directory writes here are safe, and migrations
/// commit instantly: there is no transfer window to stall on.
pub struct ShardedHost<'a, 'b> {
    /// The serial phase the agent runs in.
    pub ctx: &'a mut GlobalCtx<'b, ShardedCluster>,
    now: Nanos,
    shared: Arc<ShardCtx>,
}

impl<'a, 'b> ShardedHost<'a, 'b> {
    /// A host over `ctx` whose tick runs at `now`.
    pub fn new(ctx: &'a mut GlobalCtx<'b, ShardedCluster>, now: Nanos) -> Self {
        let shared = shared_of(ctx);
        ShardedHost { ctx, now, shared }
    }

    /// The shard cell that owns `server`.
    fn cell(&mut self, server: usize) -> &mut ShardCell<ShardedCluster> {
        self.ctx.cell(self.shared.topo.shard_of(server))
    }

    /// `server`'s slot, on whichever shard owns it.
    fn slot(&mut self, server: usize) -> &mut ServerSlot {
        let world = &mut self.cell(server).world;
        let idx = world.slot_idx(server);
        &mut world.slots[idx]
    }
}

impl PolicyHost<ActorId> for ShardedHost<'_, '_> {
    fn servers(&self) -> usize {
        self.shared.topo.servers
    }

    fn view(&mut self, server: usize, scope: ViewScope, out: &mut PartitionView<ActorId>) {
        // SAFETY: serial phase.
        let dir = unsafe { self.shared.directory.get() };
        let world = &self.ctx.cell(self.shared.topo.shard_of(server)).world;
        let entries = world.slots[world.slot_idx(server)]
            .server
            .edge_sketch
            .iter_entries()
            .map(|e| (e.item.0, e.item.1, e.count));
        out.fill(server, scope, entries, |a| dir.server_of(a.0));
    }

    fn locate(&mut self, a: &ActorId) -> Option<usize> {
        // SAFETY: serial phase.
        unsafe { self.shared.directory.get() }.server_of(a.0)
    }

    fn sizes(&mut self) -> Vec<usize> {
        // SAFETY: serial phase.
        unsafe { self.shared.directory.get() }.sizes().to_vec()
    }

    fn is_failed(&mut self, server: usize) -> bool {
        // SAFETY: serial phase.
        let failed = unsafe { self.shared.failed.get() };
        failed[server]
    }

    fn last_exchange_ns(&mut self, server: usize) -> Option<u64> {
        self.slot(server).server.last_exchange_ns
    }

    /// Instant commit (transfer windows are unsupported): deactivation
    /// plus opportunistic re-placement, exactly as the sequential
    /// cluster's `commit_migration`.
    fn migrate(&mut self, actor: ActorId, to: usize) {
        // SAFETY: serial phase.
        let dir = unsafe { self.shared.directory.get_mut() };
        let Some(from) = dir.server_of(actor.0) else {
            return;
        };
        // Replicated actors pin their primary: the replica set would
        // dangle across a re-placement (same rule as the sequential
        // cluster's `migrate_actor`).
        if from == to || dir.is_replicated(actor.0) {
            return;
        }
        dir.remove(actor.0);
        let now = self.now;
        let world = &mut self.cell(from).world;
        if world.trace.enabled() {
            world.trace.record(SpanEvent::instant(
                actor.0,
                HopKind::Migration,
                from as u32,
                to as u64,
                now,
            ));
        }
        let idx = world.slot_idx(from);
        let source = &mut world.slots[idx].server;
        source.cache_location(actor, to);
        source.edge_sketch.retain(|&(local, _)| local != actor);
        world.metrics.migrations += 1;
        world.metrics.migration_series.mark(now.as_nanos());
        self.slot(to).server.cache_location(actor, to);
        if let Some(snap_cell) = self.shared.snap.as_ref() {
            // The state cell travels with the activation, so a crash of
            // `to` drops it. SAFETY: serial phase.
            unsafe { snap_cell.get_mut() }.rehost(actor.0, to as u32);
        }
    }

    fn note_exchange(&mut self, p: usize, q: usize) {
        let ns = self.now.as_nanos();
        for server in [p, q] {
            self.slot(server).server.last_exchange_ns = Some(ns);
        }
    }

    /// Sharded migrations commit instantly, so the stall term and its
    /// transfer-window prior are structurally zero; the cost-aware
    /// objective still charges repair traffic.
    fn cost_signals(&mut self) -> CostSignals {
        let shards = self.ctx.cells().iter().map(|c| &c.world.metrics);
        ClusterMetrics::cost_signals(shards, &self.shared.config)
    }
}

impl AgentHost for ShardedHost<'_, '_> {
    fn now(&self) -> Nanos {
        self.now
    }

    fn cores_per_server(&self) -> usize {
        self.shared.config.costs.cores_per_server
    }

    /// Shard 0's buffer: touched only from the serial phase.
    fn policy_view(&mut self) -> &mut PartitionView<ActorId> {
        &mut self.ctx.cell(0).world.policy_view
    }

    fn age_sketch(&mut self, server: usize, factor: f64) {
        self.slot(server).server.edge_sketch.scale(factor);
    }

    fn drain_stage_stats(&mut self, server: usize) -> [StageReport; 4] {
        let now = self.now;
        self.cell(server).world.drain_stage_stats(now, server)
    }

    fn thread_allocation(&mut self, server: usize) -> [usize; 4] {
        self.slot(server).server.thread_allocation()
    }

    fn queue_lengths(&mut self, server: usize) -> [usize; 4] {
        self.slot(server).server.queue_lengths()
    }

    fn set_stage_threads(&mut self, server: usize, allocation: [usize; 4]) {
        let cell = self.cell(server);
        Process::set_stage_threads(&mut cell.world, &mut cell.engine, server, allocation);
    }

    fn take_split_candidates(&mut self, server: usize, min_load_ns: u64) -> Vec<(u64, u64)> {
        // SAFETY: serial phase.
        let dir = unsafe { self.shared.directory.get() };
        let world = &mut self.ctx.cell(self.shared.topo.shard_of(server)).world;
        let idx = world.slot_idx(server);
        world.slots[idx]
            .server
            .take_split_candidates(dir, min_load_ns)
    }

    fn directory(&self) -> &DenseDirectory {
        // SAFETY: serial phase.
        unsafe { self.shared.directory.get() }
    }

    /// Ground truth: the sharded backend has no failure detector.
    fn suspects(&mut self, _observer: usize, peer: usize) -> bool {
        self.is_failed(peer)
    }

    /// Instant commit, accounted on the shard owning the primary.
    fn split(&mut self, actor: ActorId, to: usize) {
        // SAFETY: serial phase.
        let dir = unsafe { self.shared.directory.get_mut() };
        let primary = dir.server_of(actor.0).expect("split of a placed actor");
        dir.add_replica(actor.0, to);
        let now = self.now;
        let world = &mut self.cell(primary).world;
        note_split(world, now, actor.0, primary as u32, to as u32);
    }

    /// Accounted on the shard owning the primary.
    fn drop_replica(&mut self, actor: ActorId, server: usize) {
        // SAFETY: serial phase.
        let dir = unsafe { self.shared.directory.get_mut() };
        let primary = dir
            .server_of(actor.0)
            .expect("replicated actor has a primary");
        if dir.drop_replica(actor.0, server) {
            let now = self.now;
            let world = &mut self.cell(primary).world;
            note_replica_drop(world, now, actor.0, primary as u32, server as u32);
        }
    }
}

impl ProcessHost for ShardedHost<'_, '_> {
    type World = ShardedCluster;

    fn world(&mut self, server: usize) -> (&mut ShardedCluster, &mut Engine<ShardedCluster>) {
        let cell = self.cell(server);
        (&mut cell.world, &mut cell.engine)
    }

    fn set_down(&mut self, server: usize, down: bool) {
        // SAFETY: serial phase.
        let failed = unsafe { self.shared.failed.get_mut() };
        failed[server] = down;
    }

    /// The sharded backend has no failure detector.
    fn oracle(&self) -> bool {
        true
    }

    fn directory_mut(&mut self) -> &mut DenseDirectory {
        // SAFETY: serial phase.
        unsafe { self.shared.directory.get_mut() }
    }

    /// Accounted on the shard owning the store server.
    fn snapshot_crash(&mut self, server: usize) -> Option<(&mut ShardedCluster, u64)> {
        let (snap, w) = snap_of(self.ctx, &self.shared)?;
        snap.crash(server).map(|id| (w, id))
    }
}

/// Installs the sharded telemetry scraper: a self-rescheduling global
/// event every scrape-interval that scrapes every shard's registry in the
/// serial phase, so frames carry identical timestamps across shards and
/// merge deterministically regardless of the shard count. A no-op without
/// `config.obs`; the horizon keeps the global queue drainable.
pub fn install_sharded_scrapers(runner: &mut ConservativeRunner<ShardedCluster>, horizon: Nanos) {
    let Some(interval) = runner.cells().first().and_then(|c| c.world.obs_interval()) else {
        return;
    };
    let first = runner.now() + interval;
    if first > horizon {
        return;
    }
    runner.schedule_global(first, move |ctx| {
        sharded_scrape_tick(ctx, interval, horizon)
    });
}

/// One global scrape tick: reads the shared liveness vector once, scrapes
/// every shard, and reschedules itself while within the horizon.
fn sharded_scrape_tick(ctx: Ctx<'_, '_>, interval: Nanos, horizon: Nanos) {
    let now = ctx.now;
    let shared = shared_of(ctx);
    // SAFETY: serial phase.
    let failed = unsafe { shared.failed.get() }.clone();
    // SAFETY: serial phase.
    let replicas = unsafe { shared.directory.get() }.replica_count() as f64;
    for cell in ctx.cells() {
        cell.world.obs_scrape(now, &failed, replicas);
    }
    let next = now + interval;
    if next <= horizon {
        ctx.schedule_global(next, move |ctx| sharded_scrape_tick(ctx, interval, horizon));
    }
}

/// Installs the sharded hot-actor replication controller: a
/// self-rescheduling global event every `check_interval` that runs the
/// controller round for every server in id order from the serial phase.
/// Splits and drops commit instantly (the sharded backend has no transfer
/// windows), mutating the shared directory between windows — so replica
/// sets, like placements, only ever change at barriers and routing stays
/// shard-layout invariant. A no-op when `config.replication` is `None`;
/// the horizon keeps the global queue drainable.
pub fn install_replication_sharded(
    runner: &mut ConservativeRunner<ShardedCluster>,
    horizon: Nanos,
) {
    let Some(rep) = runner
        .cells()
        .first()
        .and_then(|c| c.world.shared().config.replication)
    else {
        return;
    };
    let first = runner.now() + rep.check_interval;
    if first > horizon {
        return;
    }
    let cooldowns: FxHashMap<u64, Nanos> = FxHashMap::default();
    runner.schedule_global(first, move |ctx| {
        sharded_replication_tick(ctx, rep, cooldowns, horizon)
    });
}

/// One global replication tick: the controller round over every server,
/// then the next tick. The cooldown map travels through the reschedule
/// chain; it is cluster-wide, where the sequential backend keeps one per
/// server, so the two disagree once an actor's primary moves inside its
/// cooldown (DESIGN.md §12).
fn sharded_replication_tick(
    ctx: Ctx<'_, '_>,
    rep: ReplicationConfig,
    mut cooldowns: FxHashMap<u64, Nanos>,
    horizon: Nanos,
) {
    let now = ctx.now;
    let host = &mut ShardedHost::new(ctx, now);
    replication_round(host, 0..host.servers(), &rep, &mut cooldowns);
    let next = now + rep.check_interval;
    if next <= horizon {
        ctx.schedule_global(next, move |ctx| {
            sharded_replication_tick(ctx, rep, cooldowns, horizon)
        });
    }
}

/// Installs the sharded snapshot coordinator, the twin of
/// [`Cluster::install_snapshots`](crate::Cluster::install_snapshots): a
/// self-rescheduling global event every [`SnapshotConfig::interval`]
/// begins a round from the serial phase.
pub fn install_snapshots_sharded(runner: &mut ConservativeRunner<ShardedCluster>, horizon: Nanos) {
    let Some(cfg) = runner
        .cells()
        .first()
        .and_then(|c| c.world.shared().config.snapshot)
    else {
        return;
    };
    let first = runner.now() + cfg.interval;
    if first > horizon {
        return;
    }
    runner.schedule_global(first, move |ctx| sharded_snapshot_begin(ctx, cfg, horizon));
}

/// The shared snapshot state (`None` without snapshots) and the world of
/// the shard owning the store server, where round outcomes are accounted.
/// Serial phase only.
fn snap_of<'a>(
    ctx: &'a mut GlobalCtx<'_, ShardedCluster>,
    shared: &'a ShardCtx,
) -> Option<(&'a mut SnapshotState, &'a mut ShardedCluster)> {
    // SAFETY: serial phase; no window reader is live.
    let snap = unsafe { shared.snap.as_ref()?.get_mut() };
    let coord = shared.topo.shard_of(snap.cfg.store_server as usize);
    Some((snap, &mut ctx.cell(coord).world))
}

/// Begins one snapshot round (or skips it). The serial point is the cut:
/// every pre-cut event has executed and every cross-server message still
/// traveling sits in an outbox or a scheduled delivery, so every live
/// server joins at once, with the per-link counters summed over the
/// shards. The sweep is scheduled `capture_window` out.
fn sharded_snapshot_begin(ctx: Ctx<'_, '_>, cfg: SnapshotConfig, horizon: Nanos) {
    let now = ctx.now;
    let shared = shared_of(ctx);
    let mut links = LinkCounters::new(shared.topo.servers);
    for cell in ctx.cells() {
        links.add(&cell.world.snap_links);
    }
    // SAFETY: serial phase.
    let failed = unsafe { shared.failed.get() };
    let (snap, w) = snap_of(ctx, &shared).expect("installed with snapshots");
    let begun = snap.begin(now, failed);
    note_begin(w, now, cfg.store_server, begun);
    if let Some(id) = begun {
        for s in (0..failed.len()).filter(|&s| !failed[s]) {
            snap.mark(id, s, &links);
            note_marker(w, now, id, s);
        }
        // The barrier hook has flushed every buffered capture by the time
        // the sweep runs; a crash since the cut makes it a no-op.
        ctx.schedule_global(now + cfg.capture_window, move |ctx| {
            let (now, shared) = (ctx.now, shared_of(ctx));
            let (snap, w) = snap_of(ctx, &shared).expect("installed with snapshots");
            if let Some(sweep) = snap.sweep(id) {
                note_sweep(w, &cfg, now, &sweep);
            }
        });
    }
    let next = now + cfg.interval;
    if next <= horizon {
        ctx.schedule_global(next, move |ctx| sharded_snapshot_begin(ctx, cfg, horizon));
    }
}

/// Crashes a server (see the crash order in `process::crash`): queues,
/// running tasks, sketches, caches, and joins are lost, and its directory
/// entries are purged (the whole cluster learns instantly, the legacy
/// oracle). Virtual actors re-activate elsewhere on their next message.
pub fn fail_server_sharded(ctx: Ctx<'_, '_>, server: usize) {
    let now = ctx.now;
    crash(&mut ShardedHost::new(ctx, now), server);
}

/// Brings a crashed server back as a fresh, empty process.
pub fn recover_server_sharded(ctx: Ctx<'_, '_>, server: usize) {
    let now = ctx.now;
    ShardedHost::new(ctx, now).set_down(server, false);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Call, Reaction};
    use actop_sim::ConservativeRunner;
    use actop_snapshot::{stragglers, OpenRound};

    /// Requests fan out to a couple of peer actors; peers reply directly.
    struct FanApp;

    impl AppLogic for FanApp {
        fn on_request(&self, actor: ActorId, tag: u32, rng: &mut DetRng) -> Reaction {
            if tag == 1 {
                let fan = 2 + rng.below(2);
                let calls = (0..fan)
                    .map(|j| Call {
                        to: ActorId(100 + (actor.0 * 7 + j as u64) % 9),
                        tag: 0,
                        bytes: 64,
                    })
                    .collect();
                Reaction::fan_out(4_000.0 + rng.below(2_000) as f64, calls, 128)
            } else {
                Reaction::reply(2_000.0 + rng.below(1_000) as f64, 64)
            }
        }
    }

    fn test_config(servers: usize) -> RuntimeConfig {
        let mut config = RuntimeConfig::paper_testbed(11);
        config.servers = servers;
        config.record_remote_call_latency = true;
        config.series_bin_ns = 10_000_000;
        config
    }

    fn run_case(shards: usize, threads: usize, requests: u64) -> ClusterMetrics {
        let config = test_config(6);
        let lookahead = sharded_lookahead(&config);
        let series_bin = config.series_bin_ns;
        let worlds = build_sharded(config, Box::new(FanApp), shards);
        let mut runner = ConservativeRunner::new(worlds, lookahead);
        install_sharded_hooks(&mut runner);
        let mut rng_gw = DetRng::stream(42, 0x90);
        let mut rng_net = DetRng::stream(42, 0x91);
        runner.schedule_global(Nanos::ZERO, move |ctx| {
            for i in 0..requests {
                let at = Nanos::from_micros(20 * i);
                submit_client_request_sharded(
                    ctx,
                    at,
                    ActorId(1 + i % 5),
                    1,
                    256,
                    i,
                    &mut rng_gw,
                    &mut rng_net,
                );
            }
        });
        runner.run_until(Nanos::from_millis(300), threads);
        let mut merged = ClusterMetrics::new(series_bin);
        for cell in runner.cells() {
            merged.merge_from(cell.world.metrics());
        }
        merged
    }

    fn run_chaos_case(shards: usize, threads: usize) -> ClusterMetrics {
        let config = test_config(6);
        let lookahead = sharded_lookahead(&config);
        let series_bin = config.series_bin_ns;
        let worlds = build_sharded(config, Box::new(FanApp), shards);
        let mut runner = ConservativeRunner::new(worlds, lookahead);
        install_sharded_hooks(&mut runner);
        let mut rng_gw = DetRng::stream(9, 0x90);
        let mut rng_net = DetRng::stream(9, 0x91);
        runner.schedule_global(Nanos::ZERO, move |ctx| {
            for i in 0..400u64 {
                let at = Nanos::from_micros(100 * i);
                submit_client_request_sharded(
                    ctx,
                    at,
                    ActorId(1 + i % 8),
                    1,
                    256,
                    i,
                    &mut rng_gw,
                    &mut rng_net,
                );
            }
        });
        // Crash two servers on (for shards > 1) different shards, then
        // recover one of them mid-run.
        runner.schedule_global(Nanos::from_millis(8), |ctx| {
            fail_server_sharded(ctx, 2);
            fail_server_sharded(ctx, 3);
        });
        runner.schedule_global(Nanos::from_millis(25), |ctx| {
            recover_server_sharded(ctx, 2);
        });
        runner.run_until(Nanos::from_millis(120), threads);
        let mut merged = ClusterMetrics::new(series_bin);
        for cell in runner.cells() {
            merged.merge_from(cell.world.metrics());
        }
        merged
    }

    /// Every table counter by name, plus the latency counts and shape.
    fn counters(m: &ClusterMetrics) -> Vec<(&'static str, u64)> {
        let mut c: Vec<_> = ClusterMetrics::COUNTERS
            .iter()
            .map(|c| (c.name, (c.read)(m)))
            .collect();
        c.extend([
            ("e2e_latency.count", m.e2e_latency.count()),
            ("remote_call_latency.count", m.remote_call_latency.count()),
            ("e2e_latency.p50", m.e2e_latency.quantile(0.5)),
            ("e2e_latency.max", m.e2e_latency.max()),
        ]);
        c
    }

    #[test]
    fn topology_round_robin() {
        let topo = ShardTopology {
            servers: 10,
            shards: 4,
        };
        assert_eq!(topo.shard_of(0), 0);
        assert_eq!(topo.shard_of(5), 1);
        assert_eq!(topo.shard_of(7), 3);
    }

    #[test]
    fn build_deals_servers_round_robin() {
        let worlds = build_sharded(test_config(10), Box::new(FanApp), 4);
        assert_eq!(worlds.len(), 4);
        assert_eq!(worlds[1].local_servers(), vec![1, 5, 9]);
        assert!(worlds[1].owns_server(5));
        assert!(!worlds[1].owns_server(4));
    }

    #[test]
    #[should_panic(expected = "does not support request timeouts")]
    fn build_rejects_unsupported_features() {
        let mut config = test_config(4);
        config.request_timeout = Some(Nanos::from_millis(100));
        let _ = build_sharded(config, Box::new(FanApp), 2);
    }

    #[test]
    fn sequential_run_completes_requests() {
        let m = run_case(1, 1, 200);
        assert_eq!(m.submitted, 200);
        assert_eq!(m.completed, 200, "all requests drain in a healthy run");
        assert_eq!(m.rejected, 0);
        assert!(m.remote_messages > 0, "fan-outs cross servers");
        assert!(m.e2e_latency.quantile(0.5) > 0);
    }

    #[test]
    fn results_identical_across_shard_counts_and_threads() {
        let base = run_case(1, 1, 200);
        for (shards, threads) in [(2, 2), (3, 3), (6, 2)] {
            let m = run_case(shards, threads, 200);
            assert_eq!(
                counters(&base),
                counters(&m),
                "shards={shards} threads={threads} diverged"
            );
            assert_eq!(base.e2e_latency.summary(), m.e2e_latency.summary());
            assert_eq!(
                base.latency_series.bins(),
                m.latency_series.bins(),
                "latency series diverged at shards={shards}"
            );
            assert_eq!(
                base.remote_share_series.bins(),
                m.remote_share_series.bins()
            );
        }
    }

    #[test]
    fn chaos_results_identical_across_shard_counts() {
        let base = run_chaos_case(1, 1);
        assert_eq!(base.server_failures, 2);
        assert!(base.lost_in_flight > 0, "crashes lose in-flight messages");
        assert!(
            base.completed < base.submitted,
            "some requests die with the crashed servers"
        );
        for (shards, threads) in [(2, 2), (5, 3)] {
            let m = run_chaos_case(shards, threads);
            assert_eq!(
                counters(&base),
                counters(&m),
                "chaos shards={shards} threads={threads} diverged"
            );
            assert_eq!(base.e2e_latency.summary(), m.e2e_latency.summary());
        }
    }

    /// A chaos run with snapshots on: the store server itself crashes
    /// mid-round (forcing an abort, skipped rounds, and deferred
    /// restores) and recovers, so every snapshot code path executes.
    /// Returns the merged metrics plus the durable per-actor version sum
    /// — the store's view of "transitions that happened".
    fn run_snap_chaos_case(shards: usize, threads: usize) -> (ClusterMetrics, u64) {
        let mut config = test_config(6);
        config.snapshot = Some(SnapshotConfig {
            interval: Nanos::from_millis(10),
            capture_window: Nanos::from_millis(6),
            ..SnapshotConfig::default()
        });
        let lookahead = sharded_lookahead(&config);
        let series_bin = config.series_bin_ns;
        let worlds = build_sharded(config, Box::new(FanApp), shards);
        let mut runner = ConservativeRunner::new(worlds, lookahead);
        install_sharded_hooks(&mut runner);
        install_snapshots_sharded(&mut runner, Nanos::from_millis(120));
        let mut rng_gw = DetRng::stream(9, 0x90);
        let mut rng_net = DetRng::stream(9, 0x91);
        runner.schedule_global(Nanos::ZERO, move |ctx| {
            for i in 0..500u64 {
                let at = Nanos::from_micros(150 * i);
                submit_client_request_sharded(
                    ctx,
                    at,
                    ActorId(1 + i % 8),
                    1,
                    256,
                    i,
                    &mut rng_gw,
                    &mut rng_net,
                );
            }
        });
        // Crash the store server (0) inside the round that began at
        // 10 ms (sweep due at 16 ms) plus an ordinary server; recover
        // the store at 29 ms so the 30 ms round runs again.
        runner.schedule_global(Nanos::from_millis(14), |ctx| {
            fail_server_sharded(ctx, 0);
            fail_server_sharded(ctx, 3);
        });
        runner.schedule_global(Nanos::from_millis(29), |ctx| {
            recover_server_sharded(ctx, 0);
        });
        runner.run_until(Nanos::from_millis(120), threads);
        let mut merged = ClusterMetrics::new(series_bin);
        for cell in runner.cells() {
            merged.merge_from(cell.world.metrics());
        }
        let version_sum = runner.cells()[0]
            .world
            .with_snapshot_store(|store| {
                (0..200)
                    .map(|a| store.restore(a).map_or(0, |p| p.version))
                    .sum()
            })
            .expect("snapshots on");
        (merged, version_sum)
    }

    #[test]
    fn snapshot_chaos_recovers_state_and_exercises_every_path() {
        let (m, version_sum) = run_snap_chaos_case(1, 1);
        assert_eq!(m.server_failures, 2);
        assert!(
            m.snap_rounds_completed >= 4,
            "rounds {}",
            m.snap_rounds_completed
        );
        assert!(m.snap_rounds_aborted >= 1, "the punctured round aborted");
        assert!(
            m.snap_rounds_skipped >= 1,
            "rounds skip while the store is down"
        );
        assert!(m.snap_captures > 0, "state was checkpointed");
        assert!(m.restores > 0, "lost actors rehydrated");
        assert!(
            m.restores_deferred > 0,
            "touches while the store was down deferred"
        );
        assert!(m.state_writes > 0);
        // Zero lost, zero duplicated transitions: the durable journal's
        // per-actor version count equals the writes the cluster executed.
        assert_eq!(version_sum, m.state_writes);
    }

    #[test]
    fn snapshot_chaos_identical_across_shard_counts() {
        let base = run_snap_chaos_case(1, 1);
        for (shards, threads) in [(2, 2), (5, 3)] {
            let m = run_snap_chaos_case(shards, threads);
            assert_eq!(
                counters(&base.0),
                counters(&m.0),
                "snapshot chaos shards={shards} threads={threads} diverged"
            );
            assert_eq!(base.1, m.1, "durable state diverged at shards={shards}");
            assert_eq!(base.0.e2e_latency.summary(), m.0.e2e_latency.summary());
        }
    }

    #[test]
    fn snapshot_off_runs_are_unchanged() {
        // The snapshot hook must not perturb a run when disabled: the
        // plain chaos case (snapshot = None) is the baseline everything
        // in `chaos_results_identical_across_shard_counts` pins.
        let m = run_chaos_case(1, 1);
        assert_eq!(m.state_writes, 0);
        assert_eq!(m.snap_rounds_started, 0);
    }

    #[test]
    #[should_panic(expected = "snapshot restore backoff")]
    fn build_rejects_sub_lookahead_restore_backoff() {
        let mut config = test_config(4);
        config.snapshot = Some(SnapshotConfig {
            restore_backoff: Nanos::from_nanos(1),
            ..SnapshotConfig::default()
        });
        let _ = build_sharded(config, Box::new(FanApp), 2);
    }

    /// Answers every request locally.
    struct ReplyApp;

    impl AppLogic for ReplyApp {
        fn on_request(&self, _actor: ActorId, _tag: u32, _rng: &mut DetRng) -> Reaction {
            Reaction::reply(20_000.0, 200)
        }
    }

    /// Client writes to a replicated actor, with the replica set fixed:
    /// returns `replica_writes` and the admissions per gateway.
    fn run_replica_write_case(shards: usize, threads: usize) -> (u64, [u64; 3]) {
        let mut config = test_config(3);
        // Tag 0 reads; tag 1 writes. No controller is installed, so the
        // replica set never changes.
        config.replication = Some(ReplicationConfig::default());
        config.trace = Some(actop_trace::TraceConfig::default());
        let lookahead = sharded_lookahead(&config);
        let worlds = build_sharded(config, Box::new(ReplyApp), shards);
        let mut runner = ConservativeRunner::new(worlds, lookahead);
        install_sharded_hooks(&mut runner);
        let mut rng_gw = DetRng::stream(5, 0x90);
        let mut rng_net = DetRng::stream(5, 0x91);
        runner.schedule_global(Nanos::ZERO, move |ctx| {
            let shared = ctx.cell(0).world.shared();
            // SAFETY: serial phase (inside a global event).
            let dir = unsafe { shared.directory.get_mut() };
            dir.place(7, 0);
            dir.add_replica(7, 1);
            for i in 0..300u64 {
                submit_client_request_sharded(
                    ctx,
                    Nanos::from_micros(200 * i),
                    ActorId(7),
                    1,
                    400,
                    i,
                    &mut rng_gw,
                    &mut rng_net,
                );
            }
        });
        runner.run_until(Nanos::from_millis(200), threads);
        let mut writes = 0;
        let mut admitted = [0u64; 3];
        for cell in runner.cells() {
            writes += cell.world.metrics().replica_writes;
            assert_eq!(cell.world.metrics().replica_reads, 0);
            for span in cell.world.trace().spans() {
                if span.kind == HopKind::GatewayAdmit {
                    admitted[span.server as usize] += 1;
                }
            }
        }
        (writes, admitted)
    }

    /// The sharded twin of the legacy backend's pin: a client write counts
    /// in `replica_writes` exactly when its gateway hosts a replica.
    #[test]
    fn replica_writes_count_writes_entering_through_a_replica_gateway() {
        let (writes, admitted) = run_replica_write_case(1, 1);
        assert!(admitted.iter().all(|&n| n > 0), "gateways {admitted:?}");
        assert_eq!(admitted.iter().sum::<u64>(), 300);
        assert_eq!(writes, admitted[1]);
        assert_eq!(run_replica_write_case(3, 2), (writes, admitted));
    }

    #[test]
    fn migration_helpers_move_actors_and_leave_hints() {
        let config = test_config(4);
        let lookahead = sharded_lookahead(&config);
        let worlds = build_sharded(config, Box::new(FanApp), 2);
        let mut runner = ConservativeRunner::new(worlds, lookahead);
        install_sharded_hooks(&mut runner);
        runner.schedule_global(Nanos::ZERO, |ctx| {
            let shared = ctx.cell(0).world.shared();
            // SAFETY: serial phase (inside a global event).
            unsafe { shared.directory.get_mut() }.place(7, 1);
            let mut host = ShardedHost::new(ctx, Nanos::ZERO);
            host.migrate(ActorId(7), 2);
            assert_eq!(host.locate(&ActorId(7)), None, "migration deactivates");
            let to_cell = ctx.cell(0); // server 2 lives on shard 0 of 2
            let idx = to_cell.world.local_idx[2];
            assert_eq!(
                to_cell.world.slots[idx]
                    .server
                    .location_cache
                    .get(&ActorId(7)),
                Some(&2),
                "destination caches the intended location"
            );
        });
        runner.run_until(Nanos::from_micros(10), 1);
        let migrations: u64 = runner
            .cells()
            .iter()
            .map(|c| c.world.metrics().migrations)
            .sum();
        assert_eq!(migrations, 1);
    }

    /// The sharded round's straggler sweep against the sort-everything
    /// loop it replaced, on a cell map inserted in scrambled actor order
    /// with never-written cells and lazily captured actors.
    #[test]
    fn snapshot_sweep_matches_the_sort_everything_reference() {
        let mut cells: FxHashMap<u64, (u32, StateCell)> = FxHashMap::default();
        for i in 0..400u64 {
            let actor = mix64(i ^ 0x5eed) % 100_000;
            let mut cell = StateCell::default();
            for _ in 0..i % 3 {
                cell.apply_write(actor);
            }
            cells.insert(actor, ((i % 6) as u32, cell));
        }
        let mut lazy: Vec<u64> = cells.keys().copied().filter(|a| a % 4 == 1).collect();
        lazy.sort_unstable();
        let open = || {
            let mut round = OpenRound::new(2, Nanos::ZERO, 6);
            for &a in &lazy {
                round.capture(a, 1, 0xCD, 64);
            }
            round
        };
        let mut reference = open();
        let mut keys: Vec<u64> = cells.keys().copied().collect();
        keys.sort_unstable();
        let mut want = Vec::new();
        for actor in keys {
            let (host, cell) = cells[&actor];
            if cell.version > 0 && reference.capture(actor, cell.version, cell.value, 64) {
                want.push((actor, host, cell.version));
            }
        }
        let mut round = open();
        let swept: Vec<(u64, u32, u64)> = stragglers(&cells, &round.captured)
            .into_iter()
            .map(|(actor, host, cell)| {
                round.capture(actor, cell.version, cell.value, 64);
                (actor, host, cell.version)
            })
            .collect();
        assert!(!swept.is_empty() && swept.len() < cells.len());
        // The swept list is also the SnapCapture span order.
        assert_eq!(swept, want, "swept list");
        let order = |r: &OpenRound| r.captured.iter().map(|(&a, &c)| (a, c)).collect::<Vec<_>>();
        assert_eq!(order(&round), order(&reference), "capture order");
        assert_eq!(round.bytes, reference.bytes);
        let captures = round.sorted_captures();
        assert_eq!(captures, reference.sorted_captures(), "committed captures");
        let (mut a, mut b) = (SnapshotStore::new(), SnapshotStore::new());
        a.commit(2, &captures);
        b.commit(2, &reference.sorted_captures());
        for &actor in cells.keys() {
            assert_eq!(
                a.restore(actor),
                b.restore(actor),
                "committed actor {actor}"
            );
        }
    }
}
