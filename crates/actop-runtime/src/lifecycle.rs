//! The message lifecycle around the SEDA pump, written once for both
//! backends: a message's arrival off the wire, a handler's reply or
//! fan-out, a sub-call, a response folded into its join, a reply, a
//! forward, and the completion dispatch that hands each finished task's
//! action to them (the pump itself is `crate::process`). Routing, the
//! join tables, the wire, retries, the client reply and snapshot
//! deferral are [`Process`] hooks (DESIGN.md §3, §12).

use actop_sim::{Engine, Nanos};
use actop_trace::{HopKind, SpanEvent, NO_STAGE};

use crate::app::{Call, Outcome, Reaction};
use crate::cluster::MAX_FORWARD_HOPS;
use crate::ids::{ActorId, StageKind};
use crate::process::Process;
use crate::proto::{Message, MsgKind, PendingJoin, PostAction, ReplyTarget, StageItem};

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
        } => w.client_reply(engine, server, request, root_start, bytes),
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
        w.forget_request(msg.request);
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
