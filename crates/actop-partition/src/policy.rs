//! Pluggable online repartitioning policies (ROADMAP item 3).
//!
//! The paper evaluates exactly one repartitioner — the pairwise exchange
//! protocol of §4 — against static placements. This module turns the
//! repartitioner into a policy slot: every algorithm implements
//! [`RepartitionPolicy`] against an abstract [`PolicyHost`], so the same
//! code runs over the live runtime (legacy and sharded backends), over a
//! static [`CommGraph`]/[`Partition`] pair in tests, and inside the
//! bake-off bench. The roster:
//!
//! * [`ExchangePolicy`] — the paper's protocol (the default), optionally
//!   with the migration-cost-aware objective: each selected move-set is
//!   charged the *measured* per-move migration tax (transfer-window stall
//!   plus directory-repair traffic) amortized over a configurable horizon,
//!   so an exchange only commits rounds whose communication savings pay
//!   the tax back ([`move_penalty`]).
//! * [`OneSidedPolicy`] — uncoordinated unilateral migration (§4.2's
//!   rejected design), live-runtime edition of
//!   [`crate::baselines::one_sided_sweep`].
//! * [`CentralizedPolicy`] — gathers every server's sampled view into one
//!   graph and runs [`crate::baselines::centralized_refine`]; the
//!   full-knowledge comparator.
//! * [`crate::online::DynamicBalancedPolicy`] — Räcke/Schmid/Zabrodin-style
//!   dynamic balanced partitioning (merge components on repeated
//!   communication, amortized repartition on capacity violation).
//! * [`crate::online::StreamPolicy`] — Le Merrer/Trédan-style streaming
//!   re-partitioning (greedily re-place the hottest vertices with a
//!   load-sensitive gain).

use std::hash::Hash;

use actop_sketch::FxHashMap;

use crate::config::PartitionConfig;
use crate::exchange::{select_exchange_with_cost, ExchangeRequest};
use crate::graph::{CommGraph, Partition};
use crate::score::{candidate_set, candidate_set_toward, retain_above, total_score};
use crate::view::{PartitionView, ViewScope};

/// Which repartitioning algorithm drives actor placement. Selected via
/// `RuntimeConfig::repartition` / the `ACTOP_POLICY` environment knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepartitionPolicyKind {
    /// The paper's pairwise exchange protocol (the default).
    #[default]
    Exchange,
    /// The exchange protocol with the migration-cost-aware objective.
    ExchangeCostAware,
    /// Uncoordinated unilateral migration (§4.2's rejected design).
    OneSided,
    /// Le Merrer/Trédan-style streaming re-partitioning.
    Stream,
    /// Räcke/Schmid/Zabrodin-style dynamic balanced partitioning.
    DynamicBalanced,
    /// Centralized greedy refinement with full graph knowledge.
    Centralized,
}

impl RepartitionPolicyKind {
    /// Every selectable policy, in bake-off order.
    pub const ALL: [RepartitionPolicyKind; 6] = [
        RepartitionPolicyKind::Exchange,
        RepartitionPolicyKind::ExchangeCostAware,
        RepartitionPolicyKind::OneSided,
        RepartitionPolicyKind::Stream,
        RepartitionPolicyKind::DynamicBalanced,
        RepartitionPolicyKind::Centralized,
    ];

    /// The stable name used by `ACTOP_POLICY` and bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            RepartitionPolicyKind::Exchange => "actop",
            RepartitionPolicyKind::ExchangeCostAware => "actop-cost",
            RepartitionPolicyKind::OneSided => "one-sided",
            RepartitionPolicyKind::Stream => "stream",
            RepartitionPolicyKind::DynamicBalanced => "dynamic",
            RepartitionPolicyKind::Centralized => "centralized",
        }
    }

    /// Parses a policy name (the inverse of [`Self::name`]).
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|k| k.name()).collect();
                format!("unknown policy {s:?}; expected one of {}", names.join(", "))
            })
    }
}

/// Amortization settings of the migration-cost-aware objective: a move's
/// communication savings must repay its migration tax within this many
/// partition-agent intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationCostConfig {
    /// The amortization horizon, in agent intervals. A candidate's score
    /// is demand saved *per interval*, so a smaller horizon demands the
    /// tax back faster and vetoes more moves.
    pub horizon_intervals: u32,
}

impl Default for MigrationCostConfig {
    fn default() -> Self {
        MigrationCostConfig {
            horizon_intervals: 8,
        }
    }
}

/// Cumulative migration-cost measurements a host exposes to the
/// cost-aware objective. All counters are run-lifetime totals; the
/// penalty derives per-move averages from them, so the estimate sharpens
/// as migrations accumulate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostSignals {
    /// Committed migrations so far.
    pub migrations: u64,
    /// Total transfer-window stall paid by those migrations, ns.
    pub stall_ns: u64,
    /// Repair traffic attributed to moves: directory repairs, forwarded
    /// messages, and stale responses (a measured upper bound — activation
    /// races contribute too).
    pub repair_msgs: u64,
    /// The configured transfer window, ns (0 = instant commit). Not part
    /// of the penalty — the tax is priced from measurement — but hosts
    /// report it so verifiers can bound what a single stall may cost.
    pub transfer_ns: u64,
    /// CPU overhead one remote message costs over a local one, ns — the
    /// exchange rate between stall time and score units.
    pub remote_cost_ns: u64,
}

/// The score penalty the cost-aware objective charges each migration: the
/// measured per-move migration tax (stall converted to message-equivalents
/// at `remote_cost_ns`, plus repair messages), amortized over the horizon.
/// An exchange's move-set must save strictly more sampled messages per
/// interval than `moves * penalty` to be worth its migrations.
///
/// Until the first migration commits the penalty is zero: the objective
/// prices moves from *measurement*, not from configuration, so a fresh
/// cluster consolidates exactly like the cost-oblivious protocol (that
/// initial consolidation is precisely the kind of move that amortizes)
/// and the first committed batch establishes the going rate. Seeding the
/// estimate from the configured transfer window instead freezes the
/// policy during the demand-sketch ramp — scores start below any
/// non-zero bar — and defers the whole consolidation into steady state,
/// which costs far more than the handful of unpriced first moves.
pub fn move_penalty(signals: &CostSignals, cost: &MigrationCostConfig) -> i64 {
    let n = signals.migrations;
    if n == 0 {
        return 0;
    }
    let stall_per_move = signals.stall_ns / n;
    let repair_per_move = signals.repair_msgs / n;
    let stall_msgs = stall_per_move / signals.remote_cost_ns.max(1);
    let tax = stall_msgs + repair_per_move;
    let horizon = u64::from(cost.horizon_intervals.max(1));
    (tax.div_ceil(horizon)).min(i64::MAX as u64) as i64
}

/// How a policy wants its control rounds scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyScope {
    /// One staggered round per server per interval (the initiator is the
    /// round's own server).
    PerServer,
    /// One round per interval over a global view (the initiator argument
    /// is ignored).
    Global,
}

/// What a repartition policy can observe and do during one control round.
/// Both runtime backends implement this over their serial-phase hooks;
/// [`GraphHost`] implements it over a static graph for tests and the
/// competitive-ratio harness.
pub trait PolicyHost<V> {
    /// Cluster size.
    fn servers(&self) -> usize;
    /// Refills `out` with `server`'s sampled partition view: hosted
    /// vertices with weighted edges, sorted by vertex (edges sorted by
    /// peer), restricted to `scope`. The caller owns `out` and reuses it
    /// across rounds.
    fn view(&mut self, server: usize, scope: ViewScope, out: &mut PartitionView<V>);
    /// Where a vertex currently lives.
    fn locate(&mut self, v: &V) -> Option<usize>;
    /// Vertices hosted per server (the balance-constraint input).
    fn sizes(&mut self) -> Vec<usize>;
    /// Whether a server is crashed (it neither responds nor receives).
    fn is_failed(&mut self, server: usize) -> bool;
    /// When the server last took part in an exchange, ns.
    fn last_exchange_ns(&mut self, server: usize) -> Option<u64>;
    /// Issues a migration (the host may refuse — pinned or in-flight
    /// vertices stay put; policies re-observe through `locate`).
    fn migrate(&mut self, v: V, to: usize);
    /// Stamps the exchange cooldown on both parties.
    fn note_exchange(&mut self, p: usize, q: usize);
    /// Measured migration-cost signals (defaults to "migration is free",
    /// which zeroes the cost-aware penalty).
    fn cost_signals(&mut self) -> CostSignals {
        CostSignals::default()
    }
}

/// An online repartitioning algorithm, driven in rounds by the control
/// agent. Implementations must be deterministic: same host state, same
/// decisions.
pub trait RepartitionPolicy<V> {
    /// Which selectable kind this policy implements.
    fn kind(&self) -> RepartitionPolicyKind;
    /// How rounds are scheduled.
    fn scope(&self) -> PolicyScope {
        PolicyScope::PerServer
    }
    /// Executes one control round. Returns the number of migrations
    /// issued.
    fn round(
        &mut self,
        host: &mut dyn PolicyHost<V>,
        now_ns: u64,
        initiator: usize,
        config: &PartitionConfig,
    ) -> usize;
}

/// Builds a boxed policy instance for a kind. `cost` only matters for
/// [`RepartitionPolicyKind::ExchangeCostAware`].
pub fn build_policy<V>(
    kind: RepartitionPolicyKind,
    cost: MigrationCostConfig,
) -> Box<dyn RepartitionPolicy<V>>
where
    V: Copy + Eq + Hash + Ord + 'static,
{
    match kind {
        RepartitionPolicyKind::Exchange => Box::new(ExchangePolicy::new(None)),
        RepartitionPolicyKind::ExchangeCostAware => Box::new(ExchangePolicy::new(Some(cost))),
        RepartitionPolicyKind::OneSided => Box::new(OneSidedPolicy::default()),
        RepartitionPolicyKind::Stream => Box::new(crate::online::StreamPolicy::new()),
        RepartitionPolicyKind::DynamicBalanced => {
            Box::new(crate::online::DynamicBalancedPolicy::new(
                crate::online::DynamicBalancedConfig::default(),
            ))
        }
        RepartitionPolicyKind::Centralized => Box::new(CentralizedPolicy::default()),
    }
}

/// The per-server capacity the capacity-aware policies enforce: the
/// balanced share plus the configured imbalance tolerance.
pub(crate) fn capacity_bound(total: usize, servers: usize, config: &PartitionConfig) -> usize {
    total.div_ceil(servers.max(1)) + config.imbalance_tolerance
}

// ---------------------------------------------------------------------
// The paper's exchange protocol as a policy (optionally cost-aware).
// ---------------------------------------------------------------------

/// One initiation of the pairwise protocol (Alg. 1) per round: the
/// initiator scores candidates toward every server, the best-scoring
/// responder runs the joint greedy selection, the first non-empty outcome
/// is applied. With `cost` set, each selected move-set is charged the
/// measured migration tax via [`move_penalty`] and vetoed wholesale when
/// its savings cannot amortize it.
#[derive(Debug, Clone)]
pub struct ExchangePolicy<V> {
    /// Migration-cost-aware objective settings (`None` = the paper's
    /// cost-oblivious objective).
    pub cost: Option<MigrationCostConfig>,
    /// The reused [`ViewScope::Movable`] view buffer: the initiator's view,
    /// then each responder's in turn.
    pub view: PartitionView<V>,
}

impl<V> ExchangePolicy<V> {
    /// The protocol with an empty view buffer.
    pub fn new(cost: Option<MigrationCostConfig>) -> Self {
        ExchangePolicy {
            cost,
            view: PartitionView::default(),
        }
    }
}

impl<V> RepartitionPolicy<V> for ExchangePolicy<V>
where
    V: Copy + Eq + Hash + Ord,
{
    fn kind(&self) -> RepartitionPolicyKind {
        if self.cost.is_some() {
            RepartitionPolicyKind::ExchangeCostAware
        } else {
            RepartitionPolicyKind::Exchange
        }
    }

    fn round(
        &mut self,
        host: &mut dyn PolicyHost<V>,
        now_ns: u64,
        initiator: usize,
        config: &PartitionConfig,
    ) -> usize {
        let servers = host.servers();
        if servers < 2 {
            return 0;
        }
        let view = &mut self.view;
        host.view(initiator, ViewScope::Movable, view);
        if view.is_empty() {
            return 0;
        }
        let penalty = match &self.cost {
            None => 0,
            Some(cost) => move_penalty(&host.cost_signals(), cost),
        };
        let mut sets = candidate_set(view, initiator, servers, config.candidate_set_size, |v| {
            host.locate(v)
        });
        // Prune non-positive scores only — the migration tax is charged
        // against the selected round as a whole inside the exchange, never
        // per candidate (a per-candidate bar splits actor groups and the
        // split halves migrate forever; see `select_exchange_with_cost`).
        retain_above(&mut sets, 0);
        let mut targets: Vec<(usize, i64)> = sets
            .iter()
            .enumerate()
            .filter(|(q, set)| *q != initiator && !set.is_empty())
            .map(|(q, set)| (q, total_score(set)))
            .filter(|&(_, score)| score >= config.min_total_score)
            .collect();
        targets.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        let sizes = host.sizes();
        for (target, _) in targets {
            // Crashed servers neither respond nor receive migrations.
            if host.is_failed(target) {
                continue;
            }
            // §4.2 cooldown: a server that exchanged recently rejects.
            if let Some(last) = host.last_exchange_ns(target) {
                if now_ns.saturating_sub(last) < config.exchange_cooldown_ns {
                    continue;
                }
            }
            host.view(target, ViewScope::Movable, view);
            let own = candidate_set_toward(
                view,
                target,
                servers,
                config.candidate_set_size,
                initiator,
                |v| host.locate(v),
            );
            let request = ExchangeRequest {
                from: initiator,
                from_size: sizes[initiator],
                candidates: sets[target].clone(),
            };
            let outcome = select_exchange_with_cost(&request, sizes[target], &own, config, penalty);
            if outcome.is_empty() {
                continue; // Fall back to the next-best server.
            }
            let moves = outcome.moves();
            for v in &outcome.accepted {
                host.migrate(*v, target);
            }
            for v in &outcome.returned {
                host.migrate(*v, initiator);
            }
            host.note_exchange(initiator, target);
            return moves;
        }
        0
    }
}

// ---------------------------------------------------------------------
// One-sided unilateral migration as a policy.
// ---------------------------------------------------------------------

/// §4.2's rejected design on the live runtime: each round, the initiating
/// server migrates its best-scoring candidates to their preferred servers
/// without asking anyone. No cooldown, no balance negotiation — the
/// baseline the exchange protocol exists to beat.
#[derive(Debug, Clone)]
pub struct OneSidedPolicy<V> {
    /// The reused [`ViewScope::Movable`] view buffer.
    view: PartitionView<V>,
}

impl<V> Default for OneSidedPolicy<V> {
    fn default() -> Self {
        OneSidedPolicy {
            view: PartitionView::default(),
        }
    }
}

impl<V> RepartitionPolicy<V> for OneSidedPolicy<V>
where
    V: Copy + Eq + Hash + Ord,
{
    fn kind(&self) -> RepartitionPolicyKind {
        RepartitionPolicyKind::OneSided
    }

    fn round(
        &mut self,
        host: &mut dyn PolicyHost<V>,
        _now_ns: u64,
        initiator: usize,
        config: &PartitionConfig,
    ) -> usize {
        let servers = host.servers();
        if servers < 2 {
            return 0;
        }
        let view = &mut self.view;
        host.view(initiator, ViewScope::Movable, view);
        if view.is_empty() {
            return 0;
        }
        let sets = candidate_set(view, initiator, servers, config.candidate_set_size, |v| {
            host.locate(v)
        });
        // Each vertex's single best destination, deduped across sets.
        let mut best: FxHashMap<V, (i64, usize)> = FxHashMap::default();
        for (q, set) in sets.iter().enumerate() {
            for c in set {
                let entry = best.entry(c.vertex).or_insert((c.score, q));
                if c.score > entry.0 {
                    *entry = (c.score, q);
                }
            }
        }
        let mut chosen: Vec<(V, i64, usize)> =
            best.into_iter().map(|(v, (s, q))| (v, s, q)).collect();
        chosen.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        chosen.truncate(config.candidate_set_size);
        let mut moves = 0;
        for (v, _, q) in chosen {
            if host.is_failed(q) {
                continue;
            }
            host.migrate(v, q);
            moves += 1;
        }
        moves
    }
}

// ---------------------------------------------------------------------
// Centralized hindsight refinement as a policy.
// ---------------------------------------------------------------------

/// The full-knowledge comparator: gathers every server's sampled view
/// into one [`CommGraph`], runs
/// [`centralized_refine`](crate::baselines::centralized_refine) over the
/// live placement, and applies the diff. Requires the whole graph at one
/// place — exactly what the paper's distributed protocol avoids — so it
/// runs as a single global round per interval.
#[derive(Debug, Clone)]
pub struct CentralizedPolicy<V> {
    /// The reused [`ViewScope::Full`] view buffer, one server at a time.
    view: PartitionView<V>,
}

impl<V> Default for CentralizedPolicy<V> {
    fn default() -> Self {
        CentralizedPolicy {
            view: PartitionView::default(),
        }
    }
}

impl<V> RepartitionPolicy<V> for CentralizedPolicy<V>
where
    V: Copy + Eq + Hash + Ord,
{
    fn kind(&self) -> RepartitionPolicyKind {
        RepartitionPolicyKind::Centralized
    }

    fn scope(&self) -> PolicyScope {
        PolicyScope::Global
    }

    fn round(
        &mut self,
        host: &mut dyn PolicyHost<V>,
        _now_ns: u64,
        _initiator: usize,
        config: &PartitionConfig,
    ) -> usize {
        let servers = host.servers();
        if servers < 2 {
            return 0;
        }
        // Assemble the global sampled graph and the live placement. Each
        // vertex appears in exactly one server's view (views are filtered
        // to directory-confirmed residents); edges sampled from both ends
        // accumulate, which at worst doubles every weight uniformly.
        let mut graph = CommGraph::new();
        let mut partition = Partition::new(servers);
        for server in 0..servers {
            host.view(server, ViewScope::Full, &mut self.view);
            for (v, edges) in self.view.iter() {
                if partition.server_of(&v).is_none() {
                    partition.place(v, server);
                }
                for &(peer, w) in edges {
                    graph.add_edge(v, peer, w);
                }
            }
        }
        // Peers observed only from the far side still need a placement
        // for their edges to count.
        for v in graph.vertices() {
            if partition.server_of(&v).is_none() {
                if let Some(s) = host.locate(&v) {
                    partition.place(v, s);
                }
            }
        }
        let refined = crate::baselines::centralized_refine(
            &graph,
            &mut partition,
            config.imbalance_tolerance,
            config.candidate_set_size,
        );
        if refined == 0 {
            return 0;
        }
        let mut moves = 0;
        for v in graph.vertices() {
            if let (Some(want), Some(have)) = (partition.server_of(&v), host.locate(&v)) {
                if want != have && !host.is_failed(want) {
                    host.migrate(v, want);
                    moves += 1;
                }
            }
        }
        moves
    }
}

// ---------------------------------------------------------------------
// A pure host over a static graph (tests, competitive-ratio harness).
// ---------------------------------------------------------------------

/// A [`PolicyHost`] over a [`CommGraph`] and [`Partition`]: the policy
/// sees the full graph as every server's "sampled" view and migrations
/// apply instantly. Used by the differential proptests and the
/// competitive-ratio harness; also handy for offline what-if analysis.
#[derive(Debug, Clone)]
pub struct GraphHost<V> {
    /// The demand graph backing every view.
    pub graph: CommGraph<V>,
    /// The live assignment migrations mutate.
    pub partition: Partition<V>,
    /// Every migration issued, in order.
    pub moves: Vec<(V, usize)>,
    /// Exchange-cooldown stamps per server.
    pub last_exchange: Vec<Option<u64>>,
    /// Crash flags per server.
    pub failed: Vec<bool>,
    /// Cost signals reported to cost-aware policies. `stall_ns`
    /// accumulates one `transfer_ns` per issued move, mirroring the
    /// runtime's transfer-window accounting.
    pub signals: CostSignals,
}

impl<V: Copy + Eq + Hash + Ord> GraphHost<V> {
    /// Wraps a graph and a starting partition.
    pub fn new(graph: CommGraph<V>, partition: Partition<V>) -> Self {
        let servers = partition.servers();
        GraphHost {
            graph,
            partition,
            moves: Vec::new(),
            last_exchange: vec![None; servers],
            failed: vec![false; servers],
            signals: CostSignals::default(),
        }
    }
}

impl<V: Copy + Eq + Hash + Ord> PolicyHost<V> for GraphHost<V> {
    fn servers(&self) -> usize {
        self.partition.servers()
    }

    fn view(&mut self, server: usize, scope: ViewScope, out: &mut PartitionView<V>) {
        crate::driver::local_view(&self.graph, &self.partition, server, scope, out);
    }

    fn locate(&mut self, v: &V) -> Option<usize> {
        self.partition.server_of(v)
    }

    fn sizes(&mut self) -> Vec<usize> {
        self.partition.sizes().to_vec()
    }

    fn is_failed(&mut self, server: usize) -> bool {
        self.failed[server]
    }

    fn last_exchange_ns(&mut self, server: usize) -> Option<u64> {
        self.last_exchange[server]
    }

    fn migrate(&mut self, v: V, to: usize) {
        if self.partition.server_of(&v).is_none_or(|s| s == to) {
            return;
        }
        self.partition.migrate(&v, to);
        self.moves.push((v, to));
        self.signals.migrations += 1;
        self.signals.stall_ns += self.signals.transfer_ns;
    }

    fn note_exchange(&mut self, p: usize, q: usize) {
        self.last_exchange[p] = Some(0);
        self.last_exchange[q] = Some(0);
    }

    fn cost_signals(&mut self) -> CostSignals {
        self.signals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cliques() -> (CommGraph<u32>, Partition<u32>) {
        // Clique A = {0,1,2}, clique B = {10,11,12}, split badly across
        // two servers.
        let mut g = CommGraph::new();
        for &(a, b) in &[(0u32, 1u32), (0, 2), (1, 2)] {
            g.add_edge(a, b, 10);
        }
        for &(a, b) in &[(10u32, 11u32), (10, 12), (11, 12)] {
            g.add_edge(a, b, 10);
        }
        let mut p = Partition::new(2);
        p.place(0, 0);
        p.place(1, 1);
        p.place(2, 0);
        p.place(10, 1);
        p.place(11, 0);
        p.place(12, 1);
        (g, p)
    }

    fn run_rounds(kind: RepartitionPolicyKind, rounds: usize) -> GraphHost<u32> {
        let (g, p) = two_cliques();
        let mut host = GraphHost::new(g, p);
        let mut policy = build_policy::<u32>(kind, MigrationCostConfig::default());
        let cfg = PartitionConfig {
            exchange_cooldown_ns: 0,
            ..PartitionConfig::for_tests()
        };
        for r in 0..rounds {
            match policy.scope() {
                PolicyScope::PerServer => {
                    for s in 0..host.servers() {
                        policy.round(&mut host, r as u64, s, &cfg);
                    }
                }
                PolicyScope::Global => {
                    policy.round(&mut host, r as u64, 0, &cfg);
                }
            }
        }
        host
    }

    #[test]
    fn every_policy_uncrosses_the_cliques() {
        for kind in RepartitionPolicyKind::ALL {
            let host = run_rounds(kind, 4);
            let cut = host.graph.cut_cost(&host.partition);
            assert_eq!(
                cut,
                0,
                "{}: cut {cut} after rounds, sizes {:?}",
                kind.name(),
                host.partition.sizes()
            );
        }
    }

    #[test]
    fn policies_preserve_vertex_count() {
        for kind in RepartitionPolicyKind::ALL {
            let host = run_rounds(kind, 4);
            assert_eq!(host.partition.vertex_count(), 6, "{}", kind.name());
            assert_eq!(
                host.partition.sizes().iter().sum::<usize>(),
                6,
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in RepartitionPolicyKind::ALL {
            assert_eq!(RepartitionPolicyKind::parse(kind.name()), Ok(kind));
        }
        assert!(RepartitionPolicyKind::parse("metis").is_err());
    }

    #[test]
    fn penalty_zero_without_transfer_or_history() {
        let signals = CostSignals {
            remote_cost_ns: 100_000,
            ..CostSignals::default()
        };
        assert_eq!(move_penalty(&signals, &MigrationCostConfig::default()), 0);
    }

    #[test]
    fn penalty_is_free_until_a_move_is_measured() {
        // A configured transfer window alone prices nothing: the first
        // consolidation must run exactly like the cost-oblivious protocol
        // and establish the measured rate.
        let signals = CostSignals {
            transfer_ns: 50_000_000,
            remote_cost_ns: 100_000,
            ..CostSignals::default()
        };
        assert_eq!(move_penalty(&signals, &MigrationCostConfig::default()), 0);
    }

    #[test]
    fn penalty_tracks_measured_averages() {
        // 10 moves, 500 ms total stall, 80 repair messages: per move
        // 50 ms stall and 8 repairs.
        let signals = CostSignals {
            migrations: 10,
            stall_ns: 500_000_000,
            repair_msgs: 80,
            transfer_ns: 50_000_000,
            remote_cost_ns: 100_000,
        };
        let p = move_penalty(&signals, &MigrationCostConfig::default());
        assert_eq!(p, 64, "stall 500ms/10 = 500 msgs; +8 repairs; ceil(508/8)");
    }

    #[test]
    fn penalty_shrinks_with_longer_horizon() {
        let signals = CostSignals {
            migrations: 1,
            stall_ns: 50_000_000,
            remote_cost_ns: 100_000,
            ..CostSignals::default()
        };
        let short = move_penalty(
            &signals,
            &MigrationCostConfig {
                horizon_intervals: 2,
            },
        );
        let long = move_penalty(
            &signals,
            &MigrationCostConfig {
                horizon_intervals: 32,
            },
        );
        assert!(short > long, "short {short} long {long}");
        assert!(long > 0);
    }

    #[test]
    fn cost_aware_exchange_vetoes_unamortizable_moves() {
        let (g, p) = two_cliques();
        // Edge weight 10 per clique edge: a perfect move saves ~20/round.
        // Report a measured migration tax of 40 message-equivalents per
        // interval: nothing can amortize, so the policy must sit still.
        let mut host = GraphHost::new(g, p);
        host.signals.migrations = 1;
        host.signals.stall_ns = 32_000_000; // 320 msgs / 8 intervals = 40.
        host.signals.remote_cost_ns = 100_000;
        let mut policy = ExchangePolicy::new(Some(MigrationCostConfig::default()));
        let cfg = PartitionConfig {
            exchange_cooldown_ns: 0,
            ..PartitionConfig::for_tests()
        };
        for s in 0..2 {
            let moved = RepartitionPolicy::<u32>::round(&mut policy, &mut host, 0, s, &cfg);
            assert_eq!(moved, 0, "penalty must veto initiator {s}");
        }
        assert!(host.moves.is_empty());
        // Drop the tax to zero: the same graph now repartitions.
        host.signals.stall_ns = 0;
        let moved: usize = (0..2)
            .map(|s| RepartitionPolicy::<u32>::round(&mut policy, &mut host, 0, s, &cfg))
            .sum();
        assert!(moved > 0, "free migration must move");
    }

    #[test]
    fn capacity_bound_is_share_plus_tolerance() {
        let cfg = PartitionConfig {
            imbalance_tolerance: 4,
            ..PartitionConfig::for_tests()
        };
        assert_eq!(capacity_bound(10, 3, &cfg), 8);
        assert_eq!(capacity_bound(9, 3, &cfg), 7);
    }
}
