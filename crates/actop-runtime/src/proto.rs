//! Internal message-protocol types.
//!
//! These never appear in the public API: applications speak [`crate::app`]
//! types, and workload drivers speak [`crate::cluster::Cluster`] methods.
//! [`StageItem`], [`PostAction`] and [`RunningTask`] are generic over the
//! backend's message type ([`Message`] here, the sharded backend's own)
//! and nominally `pub` only because they are the defaults of
//! [`crate::server::Server`]'s type parameters; this module is private,
//! so outside the crate they cannot be named.

use actop_sim::Nanos;

use crate::app::Reaction;
use crate::ids::{ActorId, CallId, RequestId};

/// Whom a reply goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplyTarget {
    /// The external client that issued the root request.
    Client(RequestId),
    /// A pending fan-out join at some actor.
    Join(CallId),
}

/// Message kind: a request to be handled or a response to a pending call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MsgKind {
    /// Invoke the target actor's handler; reply to `reply_to`.
    Request {
        /// Reply destination.
        reply_to: ReplyTarget,
    },
    /// A sub-call's reply, to be folded into the join `target`.
    Response {
        /// The join this response resolves into.
        target: CallId,
    },
}

/// A message traveling between actors (or from a client gateway).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Destination actor.
    pub(crate) to: ActorId,
    /// Application tag (requests only; 0 for responses).
    pub(crate) tag: u32,
    /// Payload size in bytes.
    pub(crate) bytes: u64,
    /// Request or response.
    pub(crate) kind: MsgKind,
    /// The root client request this message descends from.
    pub(crate) request: RequestId,
    /// When the logical call was issued (for remote-call latency).
    pub(crate) issued_at: Nanos,
    /// Whether this delivery crossed servers (drives deserialize cost and
    /// the local-copy rule).
    pub(crate) delivered_remotely: bool,
    /// The sending actor, if any (`None` for client-originated requests).
    pub(crate) from_actor: Option<ActorId>,
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

/// What the shared SEDA stage protocol needs of a backend's message.
pub trait Msg: Copy + 'static {
    /// The root request the message descends from (trace and breakdown key).
    fn request(&self) -> u64;

    /// Payload size in bytes (drives the (de)serialization cost).
    fn bytes(&self) -> u64;
}

impl Msg for Message {
    #[inline]
    fn request(&self) -> u64 {
        self.request.0
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// An item sitting in a SEDA stage queue.
#[derive(Debug, Clone)]
pub enum StageItem<M = Message> {
    /// Receiver: deserialize an inbound message.
    Deserialize(M),
    /// Worker: execute a request handler or a response continuation.
    Execute(M),
    /// Server sender: serialize and transmit to another server.
    SerializeRemote {
        /// Destination server.
        dst: usize,
        /// The message to ship.
        msg: M,
    },
    /// Client sender: serialize a response back to the client.
    SerializeClient {
        /// The completed root request.
        request: u64,
        /// Its submission time, which the sharded backend carries
        /// in-message (it keeps no request table); the sequential
        /// backend reads its table instead and leaves this zero.
        root_start: Nanos,
        /// Response payload size.
        bytes: u64,
    },
}

impl<M: Msg> StageItem<M> {
    /// The root request of a queued item (trace and breakdown key).
    #[inline]
    pub(crate) fn request(&self) -> u64 {
        match self {
            StageItem::Deserialize(m) | StageItem::Execute(m) => m.request(),
            StageItem::SerializeRemote { msg, .. } => msg.request(),
            StageItem::SerializeClient { request, .. } => *request,
        }
    }
}

/// What happens when a stage task's compute (and blocking wait) finishes.
#[derive(Debug, Clone)]
pub enum PostAction<M = Message> {
    /// Receiver finished deserializing: hand the message to the worker.
    RouteToWorker(M),
    /// Worker finished a request handler: apply its reaction.
    ApplyRequest {
        /// The processed request message.
        msg: M,
        /// The handler's decision (captured when the task started).
        reaction: Reaction,
    },
    /// Worker finished a response continuation: fold into the join.
    ApplyResponse(M),
    /// Worker found the target actor is not hosted here: re-route.
    Forward(M),
    /// Server sender finished serializing: put the message on the wire.
    NetSend {
        /// Destination server.
        dst: usize,
        /// The message on the wire.
        msg: M,
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
        msg: M,
        /// Deterministic backoff before the re-run.
        backoff: Nanos,
    },
}

/// A task currently executing on a server's CPU.
#[derive(Debug, Clone)]
pub struct RunningTask<P = PostAction> {
    /// Stage index the task belongs to.
    pub(crate) stage: usize,
    /// Action to apply at completion.
    pub(crate) post: P,
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
    pub request: RequestId,
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
