//! The message lifecycle around the SEDA pump, written once for both
//! backends: a client request's admission, a message's arrival off the
//! wire, the worker execute (hosted check, replica admission, snapshot
//! touch, handler), a handler's reply or fan-out, a sub-call, a response
//! folded into its join, a reply, a forward, the client reply and the
//! request's completion, and the completion dispatch that hands each
//! finished task's action to them (the pump itself is `crate::process`).
//! The directory and pending placements, where a response executes, the
//! snapshot touch, the application and RNG streams, routing, the join and
//! request tables, the wire, retries, timeouts and snapshot deferral are
//! [`Process`] hooks (DESIGN.md §3, §12).

use actop_sim::{Engine, Nanos};
use actop_snapshot::Touch;
use actop_trace::{HopKind, SpanEvent, NO_SERVER, NO_STAGE};

use crate::app::{Call, Outcome, Reaction};
use crate::cluster::MAX_FORWARD_HOPS;
use crate::ids::{ActorId, StageKind};
use crate::metrics::Accounting;
use crate::process::{Process, ProcessHost};
use crate::proto::{Message, MsgKind, PendingJoin, PostAction, ReplyTarget, StageItem};
use crate::replication::{note_replica_request, replica_admits};

/// Admits a client request for `call` at `at` through the first live
/// gateway at or after `first` (the client's draw), or sheds it when
/// every server is down. An admitted request crosses the client link,
/// whose delay `client_delay` draws, and arrives at the gateway's
/// receiver. A shed request is accounted on server 0's world, an
/// admitted one on its gateway's.
pub(crate) fn admit_client_request<H: ProcessHost>(
    host: &mut H,
    at: Nanos,
    first: usize,
    request: u64,
    call: Call,
    client_delay: impl FnOnce(&mut H::World) -> Nanos,
) {
    let Some(gateway) = host.world(0).0.try_next_live(first) else {
        // Total cluster loss: no gateway accepts the connection. Shed at
        // admission instead of panicking; the request is resolved at
        // once, like any shed request.
        let (w, _) = host.world(0);
        let m = w.metrics();
        m.submitted += 1;
        m.rejected += 1;
        m.shed_no_live += 1;
        w.close_request(request);
        w.instant(request, HopKind::Shed, NO_SERVER, 0, at);
        return;
    };
    let (w, engine) = host.world(gateway);
    w.metrics().submitted += 1;
    w.instant(request, HopKind::GatewayAdmit, gateway as u32, 0, at);
    w.arm_timeout(engine, request, gateway);
    let msg = Message {
        to: call.to,
        tag: call.tag,
        bytes: call.bytes,
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
    let delay = client_delay(w);
    w.charge(request, "Network", delay.as_nanos() as f64);
    w.span(SpanEvent {
        request,
        kind: HopKind::Network,
        server: gateway as u32,
        stage: NO_STAGE,
        aux: 0,
        t_start: at,
        t_end: at + delay,
    });
    engine.schedule(at + delay, move |w: &mut H::World, e| {
        wire_arrive(w, e, gateway, msg)
    });
}

/// A started worker item's CPU demand, blocking time and completion
/// action. First where the message executes: a response wherever it
/// lands when the backend says so, else the hosted check; a message
/// `server` does not host is forwarded. Then a request's snapshot touch
/// at the primary and its application handler (the decision is captured
/// now and applied when the compute phase ends) and the load-sketch
/// offer, or a response's join continuation. Never enqueues.
#[inline]
pub(crate) fn prepare<W: Process>(
    w: &mut W,
    now: Nanos,
    server: usize,
    msg: Message,
) -> (f64, f64, PostAction) {
    let executes_here = match msg.kind {
        MsgKind::Response { .. } if w.responses_execute_where_they_land() => Some(false),
        _ => hosted(w, now, server, &msg),
    };
    let Some(primary) = executes_here else {
        return (
            w.config().costs.dispatch_fixed_ns,
            0.0,
            PostAction::Forward(msg),
        );
    };
    let local_copy = msg.local_copy_ns(&w.config().costs);
    match msg.kind {
        MsgKind::Request { .. } => {
            // Snapshot hook: restore-or-defer dead state, then capture +
            // journal writes, before the handler runs (and before any
            // RNG draw, so a deferred execute replays identically). State
            // attaches only to the directory's primary: not to a
            // replica, and not to an activation pending in a sharded
            // window-local placement, which may lose its placement
            // conflict at the barrier. The gate makes every state touch
            // happen on the actor's unique host, which is what keeps
            // version sequences exact across shard layouts.
            let touch = if primary {
                w.snapshot_touch(now, server, msg.to.0, msg.tag)
            } else {
                None
            };
            let (snap_cpu, snap_wait) = match touch {
                None => (0.0, 0.0),
                Some(Touch::Proceed(t)) => (t.cpu_ns, t.blocking_ns),
                Some(Touch::Defer(backoff)) => {
                    return (
                        w.config().costs.dispatch_fixed_ns,
                        0.0,
                        PostAction::SnapshotDefer { msg, backoff },
                    );
                }
            };
            let (app, rng) = w.app(server);
            let reaction = app.on_request(msg.to, msg.tag, rng);
            if w.config().replication.is_some() {
                // Feed the split detector: service demand per activation
                // over the current window.
                w.server(server)
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
            w.app(server).0.continuation_cpu_ns() + local_copy,
            0.0,
            PostAction::ApplyResponse(msg),
        ),
    }
}

/// Whether `server` hosts `msg`'s target actor: `Some(true)` at the
/// directory's primary, `Some(false)` at a placement the directory does
/// not hold yet or at a replica activation that admits the message, and
/// `None` when the message must be forwarded. A replica executes reads
/// and join continuations in place; a write falls through to the
/// forward path and reaches the primary.
#[inline]
fn hosted<W: Process>(w: &mut W, now: Nanos, server: usize, msg: &Message) -> Option<bool> {
    let host = w.directory().server_of(msg.to.0);
    if host == Some(server) {
        return Some(true);
    }
    if host.is_none() && w.pending_placement(server, msg.to) {
        return Some(false);
    }
    let replication = w.config().replication.as_ref();
    let read = replica_admits(replication, w.directory(), msg.to.0, server, msg.tag)?;
    match msg.kind {
        MsgKind::Request { .. } => {
            note_replica_request(w, now, server, msg.request, msg.to.0, read);
            read.then_some(false)
        }
        MsgKind::Response { .. } => Some(false),
    }
}

/// Applies a finished task's completion action.
#[inline]
pub(crate) fn dispatch<W: Process>(
    w: &mut W,
    engine: &mut Engine<W>,
    server: usize,
    post: PostAction,
) {
    match post {
        PostAction::RouteToWorker(msg) => {
            w.enqueue(
                engine,
                server,
                StageKind::Worker.index(),
                StageItem::Execute(msg),
            );
        }
        PostAction::ApplyRequest { msg, reaction } => {
            apply_request(w, engine, server, msg, reaction);
        }
        PostAction::ApplyResponse(msg) => apply_response(w, engine, server, msg),
        PostAction::Forward(msg) => forward(w, engine, server, msg),
        PostAction::NetSend { dst, msg } => w.net_send(engine, server, dst, msg),
        PostAction::ClientReply {
            request,
            root_start,
            bytes,
        } => client_reply(w, engine, server, request, root_start, bytes),
        PostAction::SnapshotDefer { msg, backoff } => {
            w.snapshot_defer(engine, server, msg, backoff);
        }
    }
}

/// A message arrives on the wire at `server` and enters the receiver
/// stage. Client-originated requests are shed when the receiver queue is
/// over the overload bound.
pub(crate) fn wire_arrive<W: Process>(
    w: &mut W,
    engine: &mut Engine<W>,
    server: usize,
    mut msg: Message,
) {
    msg.delivered_remotely = true;
    if w.is_down(server) {
        // The destination crashed while the message was on the wire.
        // The sender's transport observes the broken delivery and
        // retries requests with backoff against a live server (the
        // virtual actor re-activates there); responses are lost, and
        // the root request eventually times out.
        w.metrics().lost_in_flight += 1;
        w.instant(
            msg.request,
            HopKind::MsgLost,
            server as u32,
            0,
            engine.now(),
        );
        match msg.kind {
            MsgKind::Request { .. } => w.schedule_retry(engine, msg, server),
            MsgKind::Response { .. } => note_stale_response(w, engine.now(), msg.request, server),
        }
        return;
    }
    let is_fresh_client_request =
        !msg.from_actor && !msg.forwarded && matches!(msg.kind, MsgKind::Request { .. });
    if is_fresh_client_request
        && w.server(server).stages[StageKind::Receiver.index()].queue_len()
            >= w.config().max_receiver_queue
    {
        w.metrics().rejected += 1;
        w.close_request(msg.request);
        let at = engine.now();
        w.instant(msg.request, HopKind::Shed, server as u32, 0, at);
        let trace = w.tracer();
        if trace.enabled() {
            trace.flight_dump(HopKind::Shed, msg.request, server as u32, at);
        }
        return;
    }
    w.enqueue(
        engine,
        server,
        StageKind::Receiver.index(),
        StageItem::Deserialize(msg),
    );
}

/// Applies a request handler's decision: a reply, or a fan-out whose join
/// replies once every call has answered.
fn apply_request<W: Process>(
    w: &mut W,
    engine: &mut Engine<W>,
    server: usize,
    msg: Message,
    reaction: Reaction,
) {
    let MsgKind::Request { reply_to } = msg.kind else {
        unreachable!("apply_request on a response");
    };
    if !w.request_open(msg.request) {
        // The root request resolved (timed out / shed) while this
        // branch sat in queues or retries. Dropping it here keeps
        // abandoned requests from minting fresh joins after the
        // timeout purge, so the call tables always drain.
        w.metrics().zombie_branches += 1;
        return;
    }
    let (calls, reply_bytes) = match reaction.outcome {
        Outcome::Reply { bytes } => (Vec::new(), bytes),
        Outcome::FanOut { calls, reply_bytes } => (calls, reply_bytes),
    };
    let reply = PendingJoin {
        reply_to,
        actor: msg.to,
        remaining: calls.len(),
        reply_bytes,
        request: msg.request,
        root_start: msg.root_start,
        issued_at: msg.issued_at,
        call_was_remote: msg.call_was_remote,
    };
    if calls.is_empty() {
        emit_reply(w, engine, server, reply);
        return;
    }
    let handle = w.joins(server).insert(reply);
    let reply_to = ReplyTarget::Join {
        owner: server as u32,
        handle,
        actor: msg.to,
    };
    for call in calls {
        send_request(w, engine, server, &msg, call, reply_to);
    }
}

/// Issues an actor-to-actor request: `parent`'s target actor calls
/// `call.to`.
fn send_request<W: Process>(
    w: &mut W,
    engine: &mut Engine<W>,
    server: usize,
    parent: &Message,
    call: Call,
    reply_to: ReplyTarget,
) {
    let now = engine.now();
    let dst = w.route_request(now, server, call.to, call.tag, parent.request);
    let remote = dst != server;
    note_actor_message(w, now, server, dst, parent.to, call.to);
    w.span(SpanEvent {
        request: parent.request,
        kind: if remote {
            HopKind::RemoteDispatch
        } else {
            HopKind::LocalDispatch
        },
        server: server as u32,
        stage: NO_STAGE,
        aux: dst as u64,
        t_start: now,
        t_end: now,
    });
    let msg = Message {
        to: call.to,
        tag: call.tag,
        bytes: call.bytes,
        kind: MsgKind::Request { reply_to },
        request: parent.request,
        root_start: parent.root_start,
        issued_at: now,
        delivered_remotely: remote,
        from_actor: true,
        forwarded: false,
        call_was_remote: remote,
        attempts: 0,
        hops: 0,
    };
    send_to(w, engine, server, dst, msg);
}

/// Folds a sub-call response into its join; emits the joining actor's
/// reply when the join completes.
fn apply_response<W: Process>(w: &mut W, engine: &mut Engine<W>, server: usize, msg: Message) {
    let MsgKind::Response { handle, .. } = msg.kind else {
        unreachable!("apply_response on a request");
    };
    let now = engine.now();
    if w.config().record_remote_call_latency && msg.call_was_remote {
        w.metrics()
            .remote_call_latency
            .record((now - msg.issued_at).as_nanos());
    }
    let joins = w.joins(server);
    let Some(join) = joins.get_mut(handle) else {
        // The join was lost (crash) or abandoned (timeout).
        note_stale_response(w, now, msg.request, server);
        return;
    };
    join.remaining -= 1;
    if join.remaining == 0 {
        let join = joins.remove(handle).expect("join present");
        emit_reply(w, engine, server, join);
    }
}

/// Sends an actor's reply to its caller (the client, or the join awaiting
/// it). `reply` describes it: the join it completes, or the request it
/// answers at once.
fn emit_reply<W: Process>(w: &mut W, engine: &mut Engine<W>, server: usize, reply: PendingJoin) {
    match reply.reply_to {
        ReplyTarget::Client => {
            w.enqueue(
                engine,
                server,
                StageKind::ClientSender.index(),
                StageItem::SerializeClient {
                    request: reply.request,
                    root_start: reply.root_start,
                    bytes: reply.reply_bytes,
                },
            );
        }
        ReplyTarget::Join {
            owner,
            handle,
            actor,
        } => {
            let now = engine.now();
            let Some(dst) = w.join_reply_dst(now, server, owner, handle, actor) else {
                note_stale_response(w, now, reply.request, server);
                return;
            };
            let remote = dst != server;
            note_actor_message(w, now, server, dst, reply.actor, actor);
            let msg = Message {
                to: actor,
                tag: 0,
                bytes: reply.reply_bytes,
                kind: MsgKind::Response { owner, handle },
                request: reply.request,
                root_start: reply.root_start,
                issued_at: reply.issued_at,
                delivered_remotely: remote,
                from_actor: true,
                forwarded: false,
                call_was_remote: reply.call_was_remote || remote,
                attempts: 0,
                hops: 0,
            };
            send_to(w, engine, server, dst, msg);
        }
    }
}

/// Re-routes a message whose target actor is not hosted on `server`
/// (gateway hops, stale deliveries after migration, writes reaching a
/// replica).
fn forward<W: Process>(w: &mut W, engine: &mut Engine<W>, server: usize, mut msg: Message) {
    let now = engine.now();
    msg.hops = msg.hops.saturating_add(1);
    if msg.hops > MAX_FORWARD_HOPS {
        // Routing ping-pong (split-brain suspicion): cut the loop and
        // let the client timeout resolve the request.
        w.metrics().forward_loop_drops += 1;
        let hops = u64::from(msg.hops);
        w.instant(msg.request, HopKind::MsgLost, server as u32, hops, now);
        return;
    }
    w.metrics().forwarded_messages += 1;
    msg.forwarded = true;
    let dst = match msg.kind {
        // Client requests reach their gateway unresolved and route
        // here, so the replica-aware path covers them too.
        MsgKind::Request { .. } => w.route_request(now, server, msg.to, msg.tag, msg.request),
        MsgKind::Response { .. } => w.resolve(now, server, msg.to),
    };
    w.instant(
        msg.request,
        HopKind::Forward,
        server as u32,
        dst as u64,
        now,
    );
    send_to(w, engine, server, dst, msg);
}

/// Sends root `request`'s serialized response from `server` across the
/// client link; the request completes when it arrives.
#[inline]
fn client_reply<W: Process>(
    w: &mut W,
    engine: &mut Engine<W>,
    server: usize,
    request: u64,
    root_start: Nanos,
    bytes: u64,
) {
    let now = engine.now();
    let delay = w.net_delay(server, bytes);
    w.charge(request, "Network", delay.as_nanos() as f64);
    w.span(SpanEvent {
        request,
        kind: HopKind::Network,
        server: server as u32,
        stage: NO_STAGE,
        aux: NO_SERVER as u64,
        t_start: now,
        t_end: now + delay,
    });
    engine.schedule_after(delay, move |w: &mut W, e| {
        complete_request(w, e.now(), request, root_start);
    });
}

/// Root `request`'s response reached the client: closes the request (one
/// that already resolved is ignored), counts it, records `ClientDone`,
/// the end-to-end latency since `root_start` (histogram, series,
/// telemetry) and the breakdown's unattributed remainder ("Other").
fn complete_request<W: Process>(w: &mut W, now: Nanos, request: u64, root_start: Nanos) {
    let Some(accounted_ns) = w.close_request(request) else {
        return;
    };
    w.metrics().completed += 1;
    w.instant(request, HopKind::ClientDone, NO_SERVER, 0, now);
    let total = (now - root_start).as_nanos();
    let m = w.metrics();
    m.e2e_latency.record(total);
    m.latency_series.record(now.as_nanos(), total as f64);
    if let Some(obs) = w.obs() {
        obs.observe_latency(total);
    }
    if w.config().record_breakdown {
        let m = w.metrics();
        m.breakdown
            .add("Other", (total as f64 - accounted_ns).max(0.0));
        m.breakdown.finish_request();
    }
}

/// Hands a message bound for `dst` to `server`'s worker when it is local,
/// else to its server sender.
fn send_to<W: Process>(w: &mut W, engine: &mut Engine<W>, server: usize, dst: usize, msg: Message) {
    let (stage, item) = if dst == server {
        (StageKind::Worker, StageItem::Execute(msg))
    } else {
        (
            StageKind::ServerSender,
            StageItem::SerializeRemote { dst, msg },
        )
    };
    w.enqueue(engine, server, stage.index(), item);
}

/// Records an actor-to-actor message in the locality metrics and both
/// endpoint servers' edge sketches.
fn note_actor_message<W: Process>(
    w: &mut W,
    now: Nanos,
    src: usize,
    dst: usize,
    from: ActorId,
    to: ActorId,
) {
    let remote = src != dst;
    let m = w.metrics();
    if remote {
        m.remote_messages += 1;
    } else {
        m.local_messages += 1;
    }
    m.remote_share_series
        .record(now.as_nanos(), if remote { 1.0 } else { 0.0 });
    w.offer_edges(src, dst, from, to);
}

/// Counts and traces a stale response: the join or request it targeted
/// is gone (crash, timeout, or shed).
#[cold]
#[inline(never)]
fn note_stale_response<W: Process>(w: &mut W, now: Nanos, request: u64, server: usize) {
    w.metrics().stale_responses += 1;
    w.instant(request, HopKind::StaleResponse, server as u32, 0, now);
}
