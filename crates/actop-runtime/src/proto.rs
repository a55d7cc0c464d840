//! The message protocol, one for both backends.
//!
//! These never appear in the public API: applications speak [`crate::app`]
//! types, and workload drivers speak [`crate::cluster::Cluster`] methods.
//! A [`Message`] carries everything either backend needs to route it and
//! its reply: the root request id and submission time, and for a
//! sub-call the owning server and slab handle of the join awaiting it.
//! The sequential backend fills in the owner and the submission time but
//! routes replies through the directory and keeps its own request table
//! (DESIGN.md §12). [`StageItem`], [`PostAction`] and [`RunningTask`] are
//! what a [`crate::server::Server`]'s stage queues and CPU hold.

use actop_sim::{CostModel, Nanos};

use crate::app::Reaction;
use crate::ids::ActorId;

/// Whom a reply goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplyTarget {
    /// The external client that issued the root request.
    Client,
    /// A pending fan-out join: the server that owns it, its slab handle
    /// there, and the joining actor (the response "goes to" that actor).
    Join {
        /// The server holding the join (the one that issued the fan-out).
        owner: u32,
        /// The join's slab handle in its owner's table.
        handle: u64,
        /// The actor that issued the fan-out.
        actor: ActorId,
    },
}

/// Message kind: a request to be handled or a response to a pending call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MsgKind {
    /// Invoke the target actor's handler; reply to `reply_to`.
    Request {
        /// Reply destination.
        reply_to: ReplyTarget,
    },
    /// A sub-call's reply, to be folded into the join it names.
    Response {
        /// The server holding the join.
        owner: u32,
        /// The join's slab handle in its owner's table.
        handle: u64,
    },
}

/// A message traveling between actors (or from a client gateway). `Copy`
/// so engine closures capturing it stay trivially `Send`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Message {
    /// Destination actor.
    pub(crate) to: ActorId,
    /// Application tag (requests only; 0 for responses).
    pub(crate) tag: u32,
    /// Payload size in bytes.
    pub(crate) bytes: u64,
    /// Request or response.
    pub(crate) kind: MsgKind,
    /// The root client request this message descends from (trace and
    /// breakdown key).
    pub(crate) request: u64,
    /// The root request's submission time at the client, carried so a
    /// backend without a request table can complete it.
    pub(crate) root_start: Nanos,
    /// When the logical call was issued (for remote-call latency).
    pub(crate) issued_at: Nanos,
    /// Whether this delivery crossed servers (drives deserialize cost and
    /// the local-copy rule).
    pub(crate) delivered_remotely: bool,
    /// Whether an actor sent the message (`false` for client-originated
    /// requests): drives the local-copy rule and the fresh-request shed.
    pub(crate) from_actor: bool,
    /// True once the message has been forwarded at least once (forwarded
    /// hops are excluded from edge statistics and the remote-share metric).
    pub(crate) forwarded: bool,
    /// True when the *original* call crossed servers — propagated into the
    /// response so remote-call latency is attributed correctly.
    pub(crate) call_was_remote: bool,
    /// Transport delivery attempts consumed by backoff retries (crashed
    /// destinations, dropped packets). Bounds the retry budget per message.
    pub(crate) attempts: u8,
    /// Times this message has been re-routed (forwards, failovers). Caps
    /// forward loops under split-brain routing: saturates and the message
    /// is dropped rather than ping-ponging forever.
    pub(crate) hops: u8,
}

impl Message {
    /// The argument deep copy its execution pays: only a local
    /// actor-to-actor delivery copies (§3).
    #[inline]
    pub(crate) fn local_copy_ns(&self, costs: &CostModel) -> f64 {
        if !self.delivered_remotely && self.from_actor {
            costs.local_copy_ns(self.bytes)
        } else {
            0.0
        }
    }
}

/// An item sitting in a SEDA stage queue.
#[derive(Debug, Clone)]
pub(crate) enum StageItem {
    /// Receiver: deserialize an inbound message.
    Deserialize(Message),
    /// Worker: execute a request handler or a response continuation.
    Execute(Message),
    /// Server sender: serialize and transmit to another server.
    SerializeRemote {
        /// Destination server.
        dst: usize,
        /// The message to ship.
        msg: Message,
    },
    /// Client sender: serialize a response back to the client.
    SerializeClient {
        /// The completed root request.
        request: u64,
        /// Its submission time (read only by the sharded backend, which
        /// keeps no request table).
        root_start: Nanos,
        /// Response payload size.
        bytes: u64,
    },
}

impl StageItem {
    /// The root request of a queued item (trace and breakdown key).
    #[inline]
    pub(crate) fn request(&self) -> u64 {
        match self {
            StageItem::Deserialize(m) | StageItem::Execute(m) => m.request,
            StageItem::SerializeRemote { msg, .. } => msg.request,
            StageItem::SerializeClient { request, .. } => *request,
        }
    }
}

/// What happens when a stage task's compute (and blocking wait) finishes.
#[derive(Debug, Clone)]
pub(crate) enum PostAction {
    /// Receiver finished deserializing: hand the message to the worker.
    RouteToWorker(Message),
    /// Worker finished a request handler: apply its reaction.
    ApplyRequest {
        /// The processed request message.
        msg: Message,
        /// The handler's decision (captured when the task started).
        reaction: Reaction,
    },
    /// Worker finished a response continuation: fold into the join.
    ApplyResponse(Message),
    /// Worker found the target actor is not hosted here: re-route.
    Forward(Message),
    /// Server sender finished serializing: put the message on the wire.
    NetSend {
        /// Destination server.
        dst: usize,
        /// The message on the wire.
        msg: Message,
    },
    /// Client sender finished serializing: the response leaves the cluster.
    ClientReply {
        /// The completed root request.
        request: u64,
        /// Its submission time (see [`StageItem::SerializeClient`]).
        root_start: Nanos,
        /// Response payload size (drives the network delay).
        bytes: u64,
    },
    /// Worker found the target actor needs a snapshot restore but the
    /// store server is down: re-run the execute after a deterministic
    /// backoff instead of serving with lost state.
    SnapshotDefer {
        /// The message whose execution is deferred.
        msg: Message,
        /// Deterministic backoff before the re-run.
        backoff: Nanos,
    },
}

/// A task currently executing on a server's CPU.
#[derive(Debug, Clone)]
pub(crate) struct RunningTask {
    /// Stage index the task belongs to.
    pub(crate) stage: usize,
    /// Action to apply at completion.
    pub(crate) post: PostAction,
    /// When the task started (thread picked it up).
    pub(crate) started: Nanos,
    /// Pure CPU demand, nanoseconds.
    pub(crate) cpu_ns: f64,
    /// Synchronous blocking time after compute, nanoseconds.
    pub(crate) wait_ns: f64,
    /// Root request, for trace spans and breakdown accounting.
    pub(crate) request: u64,
    /// The incarnation of the server process the task started in: a
    /// blocking wait can outlive its process, and then must not finish
    /// on the next one.
    pub(crate) incarnation: u32,
}

/// A pending fan-out join.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingJoin {
    /// Whom to reply to when the join completes.
    pub reply_to: ReplyTarget,
    /// The actor that issued the fan-out (the reply comes "from" it).
    pub actor: ActorId,
    /// Outstanding sub-replies.
    pub remaining: usize,
    /// Reply payload size.
    pub reply_bytes: u64,
    /// Root request.
    pub request: u64,
    /// The root request's submission time.
    pub root_start: Nanos,
    /// When the original request handler issued the fan-out.
    pub issued_at: Nanos,
    /// Whether the original inbound call was remote.
    pub call_was_remote: bool,
}

/// Per-request bookkeeping for end-to-end latency and breakdown residuals.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RequestMeta {
    /// Submission time at the client.
    pub start: Nanos,
    /// Nanoseconds already attributed to named breakdown components.
    pub accounted_ns: f64,
    /// The gateway server the request entered through (names the flight
    /// ring to dump when the request times out).
    pub gateway: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every stage queue, completion action and engine closure holds a
    /// `Message` by value, on both backends: keep it at 80 bytes.
    #[test]
    fn message_is_80_bytes() {
        assert_eq!(std::mem::size_of::<Message>(), 80);
    }
}
