//! The server process, written once for both backends: the SEDA pump
//! (enqueue, start, CPU completion, task completion), thread
//! reconfiguration, and a server's crash. The message lifecycle around
//! the pump (what a started worker item costs, what a finished task does
//! next, client admission and completion) is `crate::lifecycle`. A
//! backend supplies only its hooks ([`Process`], [`ProcessHost`]): its
//! directory and the placements it has not published yet, where a
//! response executes, its snapshot touch, its application and RNG
//! streams, how it routes a request, a forwarded response and a join's
//! reply, where its joins live, how it puts a message on the wire,
//! retries a lost one and defers a snapshot restore, its request table
//! and timeouts, and what survives a restart (DESIGN.md §3, §9, §12).

use actop_partition::DenseDirectory;
use actop_sim::{start_next, DetRng, Engine, Nanos, StagePool, Subsystem};
use actop_snapshot::Touch;
use actop_trace::{HopKind, SpanEvent, Tracer, PROC_LABEL, QUEUE_LABEL};

use crate::agent::AgentHost;
use crate::app::AppLogic;
use crate::config::RuntimeConfig;
use crate::ids::ActorId;
use crate::lifecycle::{dispatch, prepare};
use crate::metrics::Accounting;
use crate::proto::{Message, PendingJoin, PostAction, RunningTask, StageItem};
use crate::replication::crash_drops;
use crate::server::Server;
use crate::snapshot::note_abort;
use crate::table::SlabTable;

/// A backend world as its server processes see it: the sequential
/// `Cluster`, or one shard of the sharded backend (which owns the
/// servers it is asked about). The required methods are the backend's
/// hooks; the provided ones are the pipeline.
pub(crate) trait Process: Accounting + Sized + 'static {
    /// Server `id`.
    fn server(&mut self, id: usize) -> &mut Server;

    /// Whether `server` is down (crashed, not yet recovered).
    fn is_down(&self, server: usize) -> bool;

    /// The first live server at or after `preferred` (wrapping), or
    /// `None` when every server is down: callers shed or back off
    /// instead of panicking on total cluster loss.
    fn try_next_live(&self, preferred: usize) -> Option<usize> {
        let n = self.config().servers;
        (0..n)
            .map(|i| (preferred + i) % n)
            .find(|&s| !self.is_down(s))
    }

    /// The runtime configuration.
    fn config(&self) -> &RuntimeConfig;

    /// The placement directory as this world reads it.
    fn directory(&self) -> &DenseDirectory;

    /// Whether `server` placed `actor` on itself in a placement the
    /// directory does not hold yet. Only the sharded backend defers
    /// placements (to the next barrier).
    #[inline]
    fn pending_placement(&self, _server: usize, _actor: ActorId) -> bool {
        false
    }

    /// Whether a response executes wherever it lands, with no hosted
    /// check: true where replies route straight to the server holding
    /// the join (the sharded backend). Otherwise a response follows the
    /// joining actor and is forwarded when the actor moved.
    #[inline]
    fn responses_execute_where_they_land(&self) -> bool {
        false
    }

    /// The snapshot subsystem's pre-handler hook for a request executing
    /// at `actor`'s primary `server`: `None` with snapshots off, else the
    /// touch (restore-or-defer, lazy capture, journal write), its effects
    /// applied or buffered and accounted.
    fn snapshot_touch(&mut self, now: Nanos, server: usize, actor: u64, tag: u32) -> Option<Touch>;

    /// The application, and the stream `server`'s handlers draw from.
    fn app(&mut self, server: usize) -> (&dyn AppLogic, &mut DetRng);

    /// Draws the network delay of a `bytes` message sent from `server`,
    /// from the stream its sends draw from.
    fn net_delay(&mut self, server: usize, bytes: u64) -> Nanos;

    /// The world's tracer (for flight dumps).
    fn tracer(&mut self) -> &mut Tracer;

    /// Installs a fresh process on crashed `server` ([`Server::restart`]
    /// plus whatever else of the backend's per-server state dies with
    /// the process).
    fn restart(&mut self, engine: &mut Engine<Self>, server: usize);

    /// Attributes `ns` of `request`'s latency to a breakdown component.
    /// Only the sequential backend records the breakdown.
    #[inline]
    fn charge(&mut self, _request: u64, _component: &'static str, _ns: f64) {}

    /// The server a request from `server` to `actor` goes to: read
    /// routing across replicas, else [`Process::resolve`].
    fn route_request(
        &mut self,
        now: Nanos,
        server: usize,
        actor: ActorId,
        tag: u32,
        request: u64,
    ) -> usize;

    /// The server hosting `actor` as `server` sees it, activating the
    /// actor if it has no host.
    fn resolve(&mut self, now: Nanos, server: usize, actor: ActorId) -> usize;

    /// The join table a fan-out issued at `server` goes into.
    fn joins(&mut self, server: usize) -> &mut SlabTable<PendingJoin>;

    /// Where the reply of `server`'s actor to the join `(owner, handle)`
    /// of `actor` goes, or `None` when the join is gone (the reply is
    /// stale).
    fn join_reply_dst(
        &mut self,
        now: Nanos,
        server: usize,
        owner: u32,
        handle: u64,
        actor: ActorId,
    ) -> Option<usize>;

    /// Whether root `request` is still open. A branch of a resolved
    /// request (timed out, shed) is a zombie and dies. Only the
    /// sequential backend keeps a request table.
    #[inline]
    fn request_open(&mut self, _request: u64) -> bool {
        true
    }

    /// Closes root `request`'s entry (it completed or was shed): the
    /// nanoseconds of its latency already charged to named breakdown
    /// components, or `None` when it had already resolved (timed out,
    /// shed). Only the sequential backend keeps a request table.
    #[inline]
    fn close_request(&mut self, _request: u64) -> Option<f64> {
        Some(0.0)
    }

    /// Starts the client's timeout for `request`, just admitted at
    /// `gateway`. Only the sequential backend has request timeouts.
    #[inline]
    fn arm_timeout(&mut self, _engine: &mut Engine<Self>, _request: u64, _gateway: usize) {}

    /// Offers one actor-to-actor message to the endpoint servers' edge
    /// sketches.
    fn offer_edges(&mut self, src: usize, dst: usize, from: ActorId, to: ActorId);

    /// Puts a serialized message from `src` on the wire to `dst`.
    fn net_send(&mut self, engine: &mut Engine<Self>, src: usize, dst: usize, msg: Message);

    /// Retries a request whose delivery to `dead` failed (crash or drop)
    /// after a backoff ([`crate::RetryPolicy::backoff`]), within the
    /// message's attempt budget.
    fn schedule_retry(&mut self, engine: &mut Engine<Self>, msg: Message, dead: usize);

    /// Re-runs an execute at `server` whose restore found the store
    /// server down, after `backoff`.
    fn snapshot_defer(
        &mut self,
        engine: &mut Engine<Self>,
        server: usize,
        msg: Message,
        backoff: Nanos,
    );

    /// Pushes an item into a stage queue and pumps the server.
    fn enqueue(&mut self, engine: &mut Engine<Self>, server: usize, stage: usize, item: StageItem) {
        let now = engine.now();
        self.server(server).stages[stage].push(now, item);
        self.pump(engine, server);
    }

    /// Starts queued items on every stage with a free thread, then
    /// re-arms the CPU completion event. One pass suffices: starting an
    /// item never enqueues one (it only decides what happens when the
    /// compute phase ends).
    fn pump(&mut self, engine: &mut Engine<Self>, server: usize) {
        if self.is_down(server) {
            return;
        }
        let now = engine.now();
        let incarnation = self.server(server).incarnation;
        let mut from = 0;
        let mut next = engine.cost_attr_mut().time(Subsystem::Cpu, || {
            start_next(&mut self.server(server).stages, &mut from, now)
        });
        while let Some((stage, item, wait)) = next {
            let request = item.request();
            self.charge(request, QUEUE_LABEL[stage], wait.as_nanos() as f64);
            self.span(SpanEvent {
                request,
                kind: HopKind::QueueWait,
                server: server as u32,
                stage: stage as u8,
                aux: 0,
                t_start: now.saturating_sub(wait),
                t_end: now,
            });
            let costs = &self.config().costs;
            let (cpu_ns, wait_ns, post) = match item {
                StageItem::Execute(msg) => prepare(self, now, server, msg),
                StageItem::Deserialize(msg) => (
                    costs.deserialize_ns(msg.bytes),
                    0.0,
                    PostAction::RouteToWorker(msg),
                ),
                StageItem::SerializeRemote { dst, msg } => (
                    costs.serialize_ns(msg.bytes),
                    0.0,
                    PostAction::NetSend { dst, msg },
                ),
                StageItem::SerializeClient {
                    request,
                    root_start,
                    bytes,
                } => (
                    costs.serialize_ns(bytes),
                    0.0,
                    PostAction::ClientReply {
                        request,
                        root_start,
                        bytes,
                    },
                ),
            };
            let cpu_ns = cpu_ns.max(1.0);
            let task = RunningTask {
                stage,
                post,
                started: now,
                cpu_ns,
                wait_ns,
                request,
                incarnation,
            };
            next = engine.cost_attr_mut().time(Subsystem::Cpu, || {
                let s = self.server(server);
                s.cpu.add(now, cpu_ns, task);
                start_next(&mut s.stages, &mut from, now)
            });
        }
        debug_assert!(
            !self.server(server).stages.iter().any(StagePool::can_start),
            "prepare enqueued work behind the pump"
        );
        self.sync_cpu(engine, server);
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
    fn sync_cpu(&mut self, engine: &mut Engine<Self>, server: usize) {
        let s = self.server(server);
        let next = engine
            .cost_attr_mut()
            .time(Subsystem::Cpu, || s.cpu.next_completion());
        s.sync_cpu_event(engine, next, cpu_tick::<Self>);
    }

    /// Reconfigures a server's per-stage thread allocation, in stage
    /// order. Extra threads may unblock queued work immediately (and the
    /// CPU completion event must be re-armed for the new rates).
    fn set_stage_threads(
        &mut self,
        engine: &mut Engine<Self>,
        server: usize,
        allocation: [usize; 4],
    ) {
        self.server(server).set_threads(engine.now(), allocation);
        self.pump(engine, server);
    }
}

/// The CPU-completion event in tick form (payload = server id), so
/// arming a provisional completion never allocates.
fn cpu_tick<W: Process>(w: &mut W, engine: &mut Engine<W>, server: u64) {
    cpu_done(w, engine, server as usize);
}

/// The CPU-completion event: collect finished compute phases, run their
/// blocking waits (if any), finish tasks, and pump. A crash cancels the
/// event, so it only ever fires on a live process.
fn cpu_done<W: Process>(w: &mut W, engine: &mut Engine<W>, server: usize) {
    let now = engine.now();
    let s = w.server(server);
    s.cpu_event = None;
    let mut done = std::mem::take(&mut s.done);
    engine
        .cost_attr_mut()
        .time(Subsystem::Cpu, || s.cpu.drain_completed(now, &mut done));
    for task in done.drain(..) {
        if task.wait_ns > 0.0 {
            let wait = Nanos::from_nanos_f64(task.wait_ns);
            engine.schedule_after(wait, move |w: &mut W, e| {
                task_finished(w, e, server, task);
            });
        } else {
            task_finished(w, engine, server, task);
        }
    }
    w.server(server).done = done;
    w.pump(engine, server);
}

/// A stage task fully finished (compute + blocking wait): free the
/// thread, record the estimator window, charge the breakdown, record the
/// service span, apply the completion action and pump. A task from an
/// earlier incarnation of the server's process (its blocking wait
/// outlived a crash, and maybe the recovery after it) died with that
/// process.
fn task_finished<W: Process>(w: &mut W, engine: &mut Engine<W>, server: usize, task: RunningTask) {
    let s = w.server(server);
    if task.incarnation != s.incarnation {
        return;
    }
    let now = engine.now();
    s.stages[task.stage].finish(now);
    let service_ns = (now - task.started).as_nanos() as f64;
    let window = &mut s.windows[task.stage];
    window.completions += 1;
    window.sum_wallclock_ns += service_ns;
    window.sum_cpu_ns += task.cpu_ns;
    w.charge(task.request, PROC_LABEL[task.stage], service_ns);
    w.span(SpanEvent {
        request: task.request,
        kind: HopKind::Service,
        server: server as u32,
        stage: task.stage as u8,
        aux: 0,
        t_start: task.started,
        t_end: now,
    });
    dispatch(w, engine, server, task.post);
    w.pump(engine, server);
}

/// What a crash and a client admission need of a backend beyond
/// [`AgentHost`] (its clock, liveness, directory and replica drops).
pub(crate) trait ProcessHost: AgentHost {
    /// The backend's world type.
    type World: Process;

    /// The world owning `server` (where its crash and the requests it
    /// admits are accounted), and that world's engine.
    fn world(&mut self, server: usize) -> (&mut Self::World, &mut Engine<Self::World>);

    /// Marks `server` down (a crash) or back up (a recovery). A
    /// recovered server runs the fresh process its crash installed; the
    /// sequential backend also resets its failure-detector observer row,
    /// so it trusts every peer for one grace period instead of
    /// mass-suspecting the cluster at boot.
    fn set_down(&mut self, server: usize, down: bool);

    /// Whether ground-truth liveness is the oracle (no failure
    /// detector): the whole cluster then learns of a crash at once.
    fn oracle(&self) -> bool;

    /// The actor directory, for the crash-time purge.
    fn directory_mut(&mut self) -> &mut DenseDirectory;

    /// Aborts the in-flight migrations and splits with `server` as an
    /// endpoint. Only the sequential backend has transfer windows.
    fn abort_transfers(&mut self, _server: usize) {}

    /// Crashes `server` in the snapshot state: the round it aborted, if
    /// any, with the world that accounts snapshot rounds.
    fn snapshot_crash(&mut self, server: usize) -> Option<(&mut Self::World, u64)>;
}

/// Crashes a server: its activations, queued messages, and in-progress
/// work are lost. Virtual actors re-activate on a live server at their
/// next message (Orleans' fault-tolerance model, §2); requests whose
/// state died with the server complete via the client timeout. In order:
/// the flag; the `server_failures` count, the `ServerFail` span and its
/// flight dump; the transfers touching the server; the open snapshot
/// round; under the liveness oracle, the replicas the crash drops and the
/// server's directory entries; and last the restart, a fresh process one
/// incarnation later that stays idle until the server recovers.
pub(crate) fn crash(host: &mut impl ProcessHost, server: usize) {
    if host.is_failed(server) {
        return;
    }
    let now = host.now();
    host.set_down(server, true);
    let (w, _) = host.world(server);
    w.metrics().server_failures += 1;
    w.instant(0, HopKind::ServerFail, server as u32, 0, now);
    let trace = w.tracer();
    if trace.enabled() {
        trace.flight_dump(HopKind::ServerFail, 0, server as u32, now);
    }
    host.abort_transfers(server);
    if let Some((w, id)) = host.snapshot_crash(server) {
        note_abort(w, now, server, id);
    }
    // With the oracle, drop every activation the server hosted. (No
    // location hints: the server crashed, it had no chance to leave
    // forwarding state.) With a failure detector, knowledge travels
    // through missed heartbeats instead: stale directory entries linger
    // until suspicion repairs them, which is exactly the detection-lag
    // cost the chaos benchmarks measure.
    if host.oracle() {
        // Replicas die with their host or their primary, each recorded
        // as an explicit drop so the trace tells a complete
        // replica-lifetime story.
        for (actor, replica) in crash_drops(host.directory(), server) {
            host.drop_replica(ActorId(actor), replica);
        }
        let dir = host.directory_mut();
        for actor in dir.vertices_on(server) {
            dir.remove(actor);
        }
    }
    let (w, engine) = host.world(server);
    w.restart(engine, server);
}
