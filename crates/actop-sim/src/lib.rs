//! Deterministic discrete-event simulation kernel for the ActOp reproduction.
//!
//! The paper evaluates ActOp on a ten-server Orleans cluster. This crate is
//! the substitute substrate: a deterministic discrete-event simulator with an
//! explicit cost model for CPU time (processor sharing across cores with a
//! context-switch penalty), SEDA stage queues with bounded thread pools, and
//! a network delay model. All of the queuing and CPU-contention effects the
//! paper measures arise from these components rather than from wall-clock
//! execution, which makes every experiment reproducible from a seed.
//!
//! Components:
//!
//! * [`time`] — nanosecond simulation time.
//! * [`rng`] — seeded, stream-split deterministic randomness.
//! * [`engine`] — the event queue and simulation loop.
//! * [`cpu`] — processor-sharing CPU with context-switch overhead.
//! * [`stage`] — SEDA stage: FIFO queue plus a bounded thread pool.
//! * [`net`] — inter-server network delay model.
//! * [`costs`] — the calibrated cost model shared by all experiments.
//! * [`shard`] — conservative-parallel windowed execution over shards.

pub mod attr;
pub mod costs;
pub mod cpu;
pub mod engine;
pub mod net;
pub mod rng;
pub mod shard;
pub mod stage;
pub mod time;

pub use attr::{CostAttr, Subsystem, SAMPLE_EVERY};
pub use costs::CostModel;
pub use cpu::PsCpu;
pub use engine::{Engine, EngineReport, EventId, TickFn};
pub use net::NetworkModel;
pub use rng::{mix64, DetRng};
pub use shard::{
    ConservativeRunner, GlobalCtx, OutMsg, PhaseCell, ShardCell, ShardWorld, SpinBarrier,
};
pub use stage::{start_next, StagePool, StageStats};
pub use time::Nanos;
