//! The application-logic interface.
//!
//! An application maps each `(actor, message tag)` to a [`Reaction`]: how
//! much CPU the handler burns, how long it blocks on synchronous calls (if
//! any), and what it does — reply immediately, or fan calls out to other
//! actors and reply once every sub-reply has arrived. This models the
//! Orleans programming pattern the paper's services use (e.g. a Halo game
//! actor broadcasting to its eight players and gathering their replies).

use actop_sim::DetRng;

use crate::ids::ActorId;

/// One outgoing call issued by a handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// Callee actor.
    pub to: ActorId,
    /// Application tag delivered to the callee.
    pub tag: u32,
    /// Argument payload size in bytes (drives serialization/copy costs).
    pub bytes: u64,
}

/// What the handler does after its compute phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Reply to the caller with a payload of `bytes`.
    Reply {
        /// Response payload size in bytes.
        bytes: u64,
    },
    /// Issue `calls` concurrently, await all replies, then reply to the
    /// caller with `reply_bytes`.
    FanOut {
        /// The concurrent sub-calls.
        calls: Vec<Call>,
        /// Response payload size once every sub-reply arrived.
        reply_bytes: u64,
    },
}

/// A handler's full reaction to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Reaction {
    /// CPU nanoseconds of application logic.
    pub cpu_ns: f64,
    /// Nanoseconds blocked on synchronous calls (holds the worker thread
    /// but not a core); 0 for fully asynchronous handlers.
    pub blocking_ns: f64,
    /// What happens after processing.
    pub outcome: Outcome,
}

impl Reaction {
    /// A handler that computes for `cpu_ns` and replies with `bytes`.
    pub fn reply(cpu_ns: f64, bytes: u64) -> Self {
        Reaction {
            cpu_ns,
            blocking_ns: 0.0,
            outcome: Outcome::Reply { bytes },
        }
    }

    /// A handler that computes for `cpu_ns`, fans out `calls`, and replies
    /// with `reply_bytes` after the join.
    pub fn fan_out(cpu_ns: f64, calls: Vec<Call>, reply_bytes: u64) -> Self {
        Reaction {
            cpu_ns,
            blocking_ns: 0.0,
            outcome: Outcome::FanOut { calls, reply_bytes },
        }
    }
}

/// Application logic: the behavior of every actor in the service.
///
/// Handlers must be deterministic given the provided RNG stream; all
/// randomness must come from `rng` so runs stay reproducible.
///
/// The handler takes `&self` on both backends. The sequential
/// [`crate::Cluster`] owns its instance; the sharded backend
/// ([`crate::build_sharded`]) shares one `Send + Sync` instance among
/// every shard, so mutable application state (if any) must live behind a
/// [`actop_sim::PhaseCell`] under the same window discipline as the
/// directory: written only from serial-phase events, read by handlers.
pub trait AppLogic {
    /// Handles a request delivered to `actor`.
    fn on_request(&self, actor: ActorId, tag: u32, rng: &mut DetRng) -> Reaction;

    /// CPU nanoseconds to process one response continuation (gathering a
    /// sub-reply). Defaults to a small fixed cost.
    fn continuation_cpu_ns(&self) -> f64 {
        3_000.0
    }
}

/// A trivial application used by tests: every request costs a fixed CPU
/// time and replies immediately (the §3 counter microbenchmark).
#[derive(Debug, Clone, Copy)]
pub struct FixedCostApp {
    /// Handler CPU cost in nanoseconds.
    pub cpu_ns: f64,
    /// Reply payload bytes.
    pub reply_bytes: u64,
}

impl AppLogic for FixedCostApp {
    fn on_request(&self, _actor: ActorId, _tag: u32, _rng: &mut DetRng) -> Reaction {
        Reaction::reply(self.cpu_ns, self.reply_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaction_constructors() {
        let r = Reaction::reply(1000.0, 64);
        assert_eq!(r.outcome, Outcome::Reply { bytes: 64 });
        assert_eq!(r.blocking_ns, 0.0);
        let calls = vec![Call {
            to: ActorId(1),
            tag: 2,
            bytes: 128,
        }];
        let f = Reaction::fan_out(2000.0, calls.clone(), 256);
        assert_eq!(
            f.outcome,
            Outcome::FanOut {
                calls,
                reply_bytes: 256
            }
        );
    }

    #[test]
    fn fixed_cost_app_replies() {
        let app = FixedCostApp {
            cpu_ns: 5_000.0,
            reply_bytes: 100,
        };
        let mut rng = DetRng::new(1);
        let r = app.on_request(ActorId(1), 0, &mut rng);
        assert_eq!(r.cpu_ns, 5_000.0);
        assert_eq!(r.outcome, Outcome::Reply { bytes: 100 });
        assert!(app.continuation_cpu_ns() > 0.0);
    }
}
