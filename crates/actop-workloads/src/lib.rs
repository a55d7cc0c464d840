//! The workloads of the ActOp evaluation (§3, §6).
//!
//! * [`halo`] — **Halo Presence**: games and players as actors, clients
//!   querying player status; each request triggers the paper's 18-message
//!   fan-out through the player's game. The game lifecycle (matchmaking
//!   from an idle pool, 20–30 minute games, 3–5 games per player, Poisson
//!   player arrivals) produces the ~1%-per-minute communication-graph
//!   churn that stresses the partitioner.
//! * [`uniform`] — single-actor-type request/reply services:
//!   [`uniform::heartbeat`] (the §6.2 thread-allocation benchmark) and
//!   [`uniform::counter`] (the §3 latency-breakdown microbenchmark).
//! * [`scale`] — million-player skewed-traffic generators (Zipf
//!   celebrity, flash crowd, diurnal wave, rotating hotspot) that drive
//!   the hot-actor replication evaluation.
//! * [`adversarial`] — demand families built to defeat online
//!   repartitioners (ring demands, a rotating hot clique, repeated-pair
//!   churn); the fixtures of the repartitioning bake-off.
//!
//! Each workload builds two halves: an [`actop_runtime::AppLogic`]
//! implementation handed to the cluster, and a *driver* that schedules
//! client arrivals and lifecycle churn. [`halo`] and [`scale`] build one
//! `Send + Sync` app and one driver for both backends: the app reads the
//! workload state through an `Arc<PhaseCell<..>>`, driver events write
//! it, and `install` takes either [`Backend`]. Only the client request
//! pump is per backend. The sequential-only workloads ([`uniform`],
//! [`adversarial`]) keep their state in an `Rc<RefCell<..>>`.

pub mod adversarial;
pub mod halo;
pub mod scale;
pub mod uniform;

use actop_runtime::sharded::ShardedCluster;
use actop_runtime::Cluster;
use actop_sim::{ConservativeRunner, Engine};

pub use adversarial::{AdversarialConfig, AdversarialWorkload, DemandPattern};
pub use halo::{HaloConfig, HaloWorkload};
pub use scale::{
    MemoryAudit, ScaleConfig, ScaleTraffic, ScaleWorkload, ShardedScaleWorkload, TrafficShape,
};
pub use uniform::{counter, heartbeat, UniformConfig, UniformWorkload};

/// The simulation backend a workload driver installs on, before it runs:
/// `HaloWorkload::install` and `ScaleWorkload::install` take
/// `impl Into<Backend>`, so either `&mut Engine<Cluster>` or
/// `&mut ConservativeRunner<ShardedCluster>` passes directly.
pub enum Backend<'a> {
    /// The sequential engine: one event heap, one thread.
    Sequential(&'a mut Engine<Cluster>),
    /// The conservative-parallel runner; drivers schedule serial-phase
    /// globals.
    Sharded(&'a mut ConservativeRunner<ShardedCluster>),
}

impl<'a> From<&'a mut Engine<Cluster>> for Backend<'a> {
    fn from(engine: &'a mut Engine<Cluster>) -> Self {
        Backend::Sequential(engine)
    }
}

impl<'a> From<&'a mut ConservativeRunner<ShardedCluster>> for Backend<'a> {
    fn from(runner: &'a mut ConservativeRunner<ShardedCluster>) -> Self {
        Backend::Sharded(runner)
    }
}

/// Width of one sharded request-pump batch: every millisecond a global
/// event pre-draws the next batch of client arrivals with their exact
/// timestamps. Per-request globals would force a barrier per request and
/// serialize the run; the batch keeps windows wide.
const PUMP_INTERVAL_NS: u64 = 1_000_000;
