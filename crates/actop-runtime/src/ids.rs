//! Identifiers used across the runtime.

use std::fmt;

/// A virtual actor identity. Actors are *virtual*: an id is valid before
/// any activation exists, and the runtime activates it on first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u64);

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor-{}", self.0)
    }
}

/// An end-to-end client request.
///
/// The value is an *opaque slab handle* into the cluster's in-flight
/// request table (generation in the high 32 bits, slot in the low 32), not
/// a sequential counter: ids are unique among live requests, and a stale
/// id resolves to nothing, but slots are reused so values recur across a
/// run. Treat it as an identity token only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId(pub u64);

/// The four SEDA stages of a server (§2, Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// Deserializes inbound remote messages and client requests.
    Receiver,
    /// Executes application logic (and response continuations).
    Worker,
    /// Serializes and sends messages to other servers.
    ServerSender,
    /// Serializes and sends responses back to clients.
    ClientSender,
}

impl StageKind {
    /// All stages, in pipeline order.
    pub const ALL: [StageKind; 4] = [
        StageKind::Receiver,
        StageKind::Worker,
        StageKind::ServerSender,
        StageKind::ClientSender,
    ];

    /// Stable index of the stage within a server's stage array.
    pub fn index(self) -> usize {
        match self {
            StageKind::Receiver => 0,
            StageKind::Worker => 1,
            StageKind::ServerSender => 2,
            StageKind::ClientSender => 3,
        }
    }

    /// Display name used in metrics and benches.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Receiver => "receiver",
            StageKind::Worker => "worker",
            StageKind::ServerSender => "server-sender",
            StageKind::ClientSender => "client-sender",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_are_stable_and_distinct() {
        let mut seen = [false; 4];
        for stage in StageKind::ALL {
            assert!(!seen[stage.index()]);
            seen[stage.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn actor_display() {
        assert_eq!(ActorId(7).to_string(), "actor-7");
    }
}
