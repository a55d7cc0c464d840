//! An Orleans-like distributed virtual-actor runtime on a simulated cluster.
//!
//! This crate is the substrate the paper's optimizations plug into. It
//! reproduces the parts of Orleans that matter to ActOp:
//!
//! * **Virtual actors** — actors are identities ([`ActorId`]); the runtime
//!   activates them on demand, places them by a pluggable
//!   [`PlacementPolicy`], and migrates them transparently (deactivation +
//!   opportunistic re-placement driven by per-server location caches,
//!   §4.3).
//! * **SEDA servers** — each server runs the paper's stage pipeline
//!   (receiver → worker → server sender / client sender), every stage with
//!   its own queue and reconfigurable thread pool, all threads sharing the
//!   server's cores under processor sharing (Fig. 2/3).
//! * **RPC vs LPC** — calls to remote actors pay serialization CPU on both
//!   sides plus a network hop; local calls pay only an argument deep copy
//!   (§2, §3).
//! * **Join semantics** — an actor handles a request by replying directly
//!   or by fanning calls out to other actors and replying once all
//!   sub-replies arrive, which is exactly the call shape of the paper's
//!   Halo Presence service.
//! * **Measurement** — end-to-end request latency, remote-call latency,
//!   per-stage latency breakdown (Fig. 4), remote/local message counts,
//!   migration rates, and CPU utilization.
//!
//! Applications implement one trait, [`AppLogic`], for both backends:
//! [`Cluster::new`] takes a boxed instance and [`build_sharded`] a boxed
//! `Send + Sync` one. Workload drivers inject client requests with
//! [`Cluster::submit_client_request`] from scheduled engine events (on the
//! sharded backend, [`sharded::submit_client_request_sharded`] from
//! serial-phase globals). The ActOp controllers (crate `actop-core`) run
//! as periodic events against one trait, [`AgentHost`], which both
//! backends implement: [`ClusterHost`] on the sequential [`Cluster`] and
//! [`ShardedHost`] on the sharded one. Both keep each server's state in
//! the same generic [`server::Server`].

pub mod agent;
pub mod app;
pub mod cluster;
pub mod config;
pub mod detector;
pub mod ids;
pub mod metrics;
pub mod obs;
pub mod placement;
mod process;
pub(crate) mod proto;
mod replication;
pub mod server;
pub mod sharded;
mod snapshot;
pub mod table;

pub use actop_partition::{
    CostSignals, MigrationCostConfig, RepartitionPolicyKind, SplitThresholds,
};
pub use actop_snapshot::{SnapshotConfig, SnapshotStore, StateCell};
pub use actop_trace::{TraceConfig, Tracer};
pub use agent::AgentHost;
pub use app::{AppLogic, Call, Outcome, Reaction};
pub use cluster::{Cluster, ClusterHost, LinkFault, MAX_FORWARD_HOPS};
pub use config::{ObsConfig, ReplicationConfig, RetryPolicy, RuntimeConfig};
pub use detector::{DetectorConfig, FailureDetector, RtSuspicionConfig, Transition};
pub use ids::{ActorId, RequestId, StageKind};
pub use metrics::ClusterMetrics;
pub use obs::{DetectorAccuracy, Observability, SloTransition};
pub use placement::PlacementPolicy;
pub use sharded::{
    build_sharded, install_replication_sharded, install_sharded_scrapers,
    install_snapshots_sharded, sharded_lookahead, ShardCtx, ShardTopology, ShardedCluster,
    ShardedHost,
};
