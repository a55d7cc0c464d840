//! Locality-aware actor partitioning (§4 of the ActOp paper).
//!
//! Actors are vertices of a weighted communication graph; servers are
//! partitions. The goal is a *balanced* partition minimizing the total
//! weight of edges that cross servers. The paper's algorithm is fully
//! distributed: each server keeps only a sampled list of its heaviest
//! edges, and servers periodically run a *pairwise coordination protocol*
//! (Alg. 1) exchanging small candidate sets of actors.
//!
//! Modules:
//!
//! * [`config`] — tunables: candidate-set size `k`, imbalance tolerance
//!   `delta`, exchange cooldown.
//! * [`view`] — the flat [`PartitionView`] a control round reads: one
//!   server's sampled edges grouped by vertex in reused buffers, in full or
//!   only the vertices that can score.
//! * [`score`] — transfer scores `R_{p,q}(v)` and candidate-set selection.
//! * [`exchange`] — the pairwise protocol: the initiator's proposal and the
//!   responder's greedy two-heap selection of the exchange subsets
//!   `S0 ⊆ S`, `T0 ⊆ T` under the balance constraint.
//! * [`graph`] — a concrete weighted graph + partition used by the static
//!   experiments, Theorem 1 tests, and baselines.
//! * [`dense`] — the hash-free [`DenseDirectory`] the live runtime routes
//!   through on every message delivery.
//! * [`driver`] — a standalone driver running protocol rounds over a static
//!   graph (the setting of Theorem 1).
//! * [`baselines`] — random/hash placement, unilateral (one-sided)
//!   migration, and a centralized greedy refinement partitioner, used as
//!   comparison points and ablations.
//! * [`split`] — hot-actor split decisions: when one actor's demand
//!   exceeds a single server's capacity, replicate it instead of
//!   migrating it.
//! * [`policy`] — the pluggable [`RepartitionPolicy`] trait: the exchange
//!   protocol (optionally migration-cost-aware), one-sided migration, and
//!   centralized refinement as selectable policies over an abstract host.
//! * [`online`] — online comparators with published guarantees: dynamic
//!   balanced partitioning (Räcke/Schmid/Zabrodin style) and streaming
//!   re-partitioning (Le Merrer/Trédan style).

pub mod baselines;
pub mod config;
pub mod dense;
pub mod driver;
pub mod exchange;
pub mod graph;
pub mod online;
pub mod policy;
pub mod score;
pub mod split;
pub mod view;

pub use config::PartitionConfig;
pub use dense::DenseDirectory;
pub use exchange::{select_exchange, select_exchange_with_cost, ExchangeOutcome, ExchangeRequest};
pub use graph::{CommGraph, Partition};
pub use online::{DynamicBalancedConfig, DynamicBalancedPolicy, StreamPolicy};
pub use policy::{
    build_policy, move_penalty, CostSignals, ExchangePolicy, GraphHost, MigrationCostConfig,
    PolicyHost, PolicyScope, RepartitionPolicy, RepartitionPolicyKind,
};
pub use score::{candidate_set, candidate_set_toward, retain_above, transfer_scores, ScoredVertex};
pub use split::{decide as decide_split, SplitDecision, SplitThresholds};
pub use view::{PartitionView, ViewScope};
