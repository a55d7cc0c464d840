//! The seam the ActOp agents and the replication controller run against:
//! one trait both simulation backends implement ([`crate::ClusterHost`],
//! [`crate::ShardedHost`]), so each agent (crate `actop-core`) and the
//! controller round are written once.

use actop_partition::{DenseDirectory, PartitionView, PolicyHost};
use actop_sim::Nanos;

use crate::ids::ActorId;
use crate::server::StageReport;

/// A backend as one agent tick sees it, at one simulated instant (control
/// work is instantaneous): the clock, the repartitioning surface
/// ([`PolicyHost`]), sketch aging, each server's SEDA measurements and
/// thread controls, and the replication controller's surface.
pub trait AgentHost: PolicyHost<ActorId> {
    /// The simulated time the tick runs at.
    fn now(&self) -> Nanos;

    /// Cores per server (the thread allocator's budget).
    fn cores_per_server(&self) -> usize;

    /// The view buffer a partition round borrows when its policy does not
    /// outlive the round; the backend keeps it, so rounds reuse it.
    fn policy_view(&mut self) -> &mut PartitionView<ActorId>;

    /// Multiplies a server's edge-sketch counters by `factor`, aging out
    /// stale communication history.
    fn age_sketch(&mut self, server: usize, factor: f64);

    /// Drains a server's per-stage observation windows at [`Self::now`].
    fn drain_stage_stats(&mut self, server: usize) -> [StageReport; 4];

    /// A server's current thread allocation, in stage order.
    fn thread_allocation(&mut self, server: usize) -> [usize; 4];

    /// A server's current queue lengths, in stage order.
    fn queue_lengths(&mut self, server: usize) -> [usize; 4];

    /// Reconfigures a server's per-stage thread allocation, in stage order.
    fn set_stage_threads(&mut self, server: usize, allocation: [usize; 4]);

    /// `server`'s split candidates with their guaranteed load this window
    /// (see `Server::take_split_candidates`); resets the window.
    fn take_split_candidates(&mut self, server: usize, min_load_ns: u64) -> Vec<(u64, u64)>;

    /// The actor directory, for replica reads.
    fn directory(&self) -> &DenseDirectory;

    /// Whether `observer` distrusts `peer`: suspicion where a failure
    /// detector runs, ground truth otherwise.
    fn suspects(&mut self, observer: usize, peer: usize) -> bool;

    /// Adds a read replica of `actor` on `to` (a hot-actor split).
    fn split(&mut self, actor: ActorId, to: usize);

    /// Drops the replica activation of `actor` on `server`, if present.
    fn drop_replica(&mut self, actor: ActorId, server: usize);
}
