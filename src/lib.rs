//! # ActOp — optimizing distributed actor systems for dynamic services
//!
//! A from-scratch Rust reproduction of *Optimizing Distributed Actor
//! Systems for Dynamic Interactive Services* (EuroSys 2016): a runtime
//! mechanism that cuts the end-to-end latency of actor-based cloud
//! services by (1) migrating frequently-communicating actors onto the same
//! server with a fully distributed balanced graph-partitioning protocol,
//! and (2) re-solving each server's SEDA thread allocation online from a
//! queuing model with a closed-form optimum.
//!
//! This crate is the facade: it re-exports the public API of the workspace
//! crates so applications can depend on `actop` alone.
//!
//! * [`sim`] — deterministic discrete-event substrate (engine, CPU model,
//!   stages, network, cost calibration).
//! * [`metrics`] — histograms, breakdowns, time series.
//! * [`sketch`] — the Space-Saving heavy-edge sampler.
//! * [`partition`] — transfer scores, the pairwise coordination protocol,
//!   and partitioning baselines.
//! * [`seda`] — the queuing model, Theorem 2's allocator, the §5.4
//!   estimator, and the Fig. 7 emulator.
//! * [`runtime`] — the Orleans-like virtual actor runtime.
//! * [`workloads`] — Halo Presence, Heartbeat, and the counter benchmark.
//! * [`core`] — the ActOp controllers and the experiment harness.
//! * [`verify`] — analytic queueing oracles, trace lifecycle invariants,
//!   and the metamorphic scenario fuzzer.
//!
//! # Examples
//!
//! ```
//! use actop::prelude::*;
//!
//! // A 10-server cluster running the counter app with ActOp's thread agent.
//! let workload = actop::workloads::uniform::counter(
//!     2_000.0,
//!     Nanos::from_secs(2),
//!     7,
//! );
//! let (app, driver) = UniformWorkload::build(workload);
//! let mut cluster = Cluster::new(RuntimeConfig::paper_testbed(7), app);
//! let mut engine: Engine<Cluster> = Engine::new();
//! driver.install(&mut engine);
//! install_actop(&mut engine, 10, &ActOpConfig::threads_only());
//! let summary = run_steady_state(
//!     &mut engine,
//!     &mut cluster,
//!     Nanos::from_secs(1),
//!     Nanos::from_secs(1),
//! );
//! assert!(summary.completed > 0);
//! ```

pub use actop_core as core;
pub use actop_metrics as metrics;
pub use actop_partition as partition;
pub use actop_runtime as runtime;
pub use actop_seda as seda;
pub use actop_sim as sim;
pub use actop_sketch as sketch;
pub use actop_verify as verify;
pub use actop_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use actop_core::controllers::{
        install_actop, ActOpConfig, PartitionAgentConfig, ThreadAgentConfig,
    };
    pub use actop_core::experiment::{run_steady_state, RunSummary};
    pub use actop_partition::PartitionConfig;
    pub use actop_runtime::{
        ActorId, AppLogic, Call, Cluster, Outcome, PlacementPolicy, Reaction, RuntimeConfig,
    };
    pub use actop_sim::{CostModel, DetRng, Engine, Nanos};
    pub use actop_workloads::{HaloConfig, HaloWorkload, UniformConfig, UniformWorkload};
}

/// Compiles the README's Rust snippets as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
