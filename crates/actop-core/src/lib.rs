//! ActOp: the paper's primary contribution, wired into the actor runtime.
//!
//! Two independent online controllers run per server, exactly as §4 and §5
//! describe:
//!
//! * the **partition agent** periodically initiates the pairwise
//!   coordination protocol against the server whose candidate set promises
//!   the largest communication-cost reduction, migrating actors
//!   transparently while holding the balance constraint;
//! * the **thread agent** drains each stage's measurement window, estimates
//!   the queuing-model parameters (§5.4), re-solves the latency-optimal
//!   allocation (Theorem 2 / KKT), and reconfigures the stage thread pools.
//!
//! [`install_actop`] attaches either or both controllers to a simulated
//! cluster; [`experiment`] provides the steady-state measurement harness
//! shared by the examples and every figure bench.

pub mod controllers;
pub mod experiment;

// The vendored Fx hasher lives in `actop-sketch` (the bottom of the crate
// stack) so every layer can use it; re-exported here so harnesses and
// tests can reach it as `actop_core::fxmap` without a direct dependency.
pub use actop_sketch::fxmap;

pub use controllers::{install_actop, ActOpConfig, PartitionAgentConfig, ThreadAgentConfig};
pub use experiment::{run_sharded_steady_state, run_steady_state, RunSummary};
