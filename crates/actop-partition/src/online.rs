//! Online repartitioning comparators with published guarantees.
//!
//! * [`DynamicBalancedPolicy`] — in the style of Räcke, Schmid and
//!   Zabrodin's online balanced (re)partitioning: vertices that
//!   communicate are merged into components, whole components are
//!   co-located, and a component that outgrows the per-server capacity is
//!   dissolved back into singletons (the amortized repartition step that
//!   buys the competitive bound on ring-style demand sequences).
//! * [`StreamPolicy`] — in the style of Le Merrer and Trédan's streaming
//!   re-partitioning: repeatedly pull the hottest local vertices and
//!   re-place each with a load-sensitive streaming heuristic, touching at
//!   most a candidate-set's worth of vertices per round.
//!
//! Both run against the abstract [`PolicyHost`], so they drive the live
//! runtime and the static test harness alike.

use std::hash::Hash;

use actop_sketch::FxHashMap;

use crate::config::PartitionConfig;
use crate::policy::{
    capacity_bound, PolicyHost, PolicyScope, RepartitionPolicy, RepartitionPolicyKind,
};
use crate::view::{PartitionView, ViewScope};

/// Tunables of [`DynamicBalancedPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicBalancedConfig {
    /// Minimum sampled edge weight that counts as "communication" for the
    /// component-merge rule (light edges are noise in a sampled sketch).
    pub merge_threshold: u64,
    /// How many rounds the members of a dissolved component sit out of
    /// merging. This is half of the amortization: after paying a
    /// repartition, the involved vertices cannot immediately re-form the
    /// same oversized component.
    pub freeze_rounds: u32,
    /// How many capacity-violating merge attempts a component absorbs
    /// before it is dissolved. This is the other half of the amortization:
    /// a single violating edge merely fails to merge; only a component
    /// under *persistent* pressure pays the repartition.
    pub violation_patience: u32,
}

impl Default for DynamicBalancedConfig {
    fn default() -> Self {
        DynamicBalancedConfig {
            merge_threshold: 1,
            freeze_rounds: 2,
            violation_patience: 3,
        }
    }
}

/// Räcke/Schmid/Zabrodin-style dynamic balanced partitioning. Global
/// scope: one round per interval over every server's sampled view.
///
/// Per round: (1) merge the components of communicating vertices, heaviest
/// observed edge first, while the union respects the per-server capacity
/// (balanced share + imbalance tolerance); (2) a merge that would violate
/// capacity is refused and charged as *pressure* against both components —
/// a component under persistent pressure is dissolved to singletons and
/// its members frozen for a few rounds (the amortized repartition);
/// (3) pack components onto servers largest-first, each preferring the
/// server that already hosts most of its members, and migrate the
/// stragglers.
#[derive(Debug, Clone)]
pub struct DynamicBalancedPolicy<V> {
    cfg: DynamicBalancedConfig,
    /// Vertex -> component representative (the component's minimum vertex).
    comp: FxHashMap<V, V>,
    /// Vertex -> rounds left in the post-dissolve merge freeze.
    frozen: FxHashMap<V, u32>,
    /// Representative -> accumulated capacity-violation pressure.
    pressure: FxHashMap<V, u32>,
    /// The reused [`ViewScope::Full`] view buffer, one server at a time.
    view: PartitionView<V>,
}

impl<V: Copy + Eq + Hash + Ord> DynamicBalancedPolicy<V> {
    /// Creates the policy with fresh (all-singleton) component state.
    pub fn new(cfg: DynamicBalancedConfig) -> Self {
        DynamicBalancedPolicy {
            cfg,
            comp: FxHashMap::default(),
            frozen: FxHashMap::default(),
            pressure: FxHashMap::default(),
            view: PartitionView::default(),
        }
    }
}

impl<V> RepartitionPolicy<V> for DynamicBalancedPolicy<V>
where
    V: Copy + Eq + Hash + Ord,
{
    fn kind(&self) -> RepartitionPolicyKind {
        RepartitionPolicyKind::DynamicBalanced
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
        // Assemble the observed world: every server's sampled view, with
        // each undirected edge taken at its largest observed estimate.
        let mut home: FxHashMap<V, usize> = FxHashMap::default();
        let mut edges: FxHashMap<(V, V), u64> = FxHashMap::default();
        for server in 0..servers {
            host.view(server, ViewScope::Full, &mut self.view);
            for (v, peers) in self.view.iter() {
                home.entry(v).or_insert(server);
                for &(peer, w) in peers {
                    let key = if v < peer { (v, peer) } else { (peer, v) };
                    let entry = edges.entry(key).or_default();
                    *entry = (*entry).max(w);
                }
            }
        }
        if home.is_empty() {
            return 0;
        }
        let total = home.len();
        let cap = capacity_bound(total, servers, config);

        // Tick the post-dissolve freezes.
        self.frozen.retain(|_, left| {
            *left -= 1;
            *left > 0
        });

        // Components cover exactly the observed vertices; anything that
        // departed since the last round drops out, newcomers start as
        // singletons.
        let mut members: FxHashMap<V, Vec<V>> = FxHashMap::default();
        let mut observed: Vec<V> = home.keys().copied().collect();
        observed.sort_unstable();
        for &v in &observed {
            let rep = self.comp.get(&v).copied().unwrap_or(v);
            members.entry(rep).or_default().push(v);
        }

        // Merge pass, heaviest evidence first (deterministic order).
        let mut ordered: Vec<((V, V), u64)> = edges.into_iter().collect();
        ordered.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for ((a, b), w) in ordered {
            if w < self.cfg.merge_threshold {
                continue;
            }
            if self.frozen.contains_key(&a) || self.frozen.contains_key(&b) {
                continue;
            }
            let ra = self.comp.get(&a).copied().unwrap_or(a);
            let rb = self.comp.get(&b).copied().unwrap_or(b);
            if ra == rb {
                continue;
            }
            // A sampled edge may reference a vertex nobody hosts anymore;
            // such a rep has no member list and cannot merge.
            let sa = members.get(&ra).map_or(0, Vec::len);
            let sb = members.get(&rb).map_or(0, Vec::len);
            if sa == 0 || sb == 0 {
                continue;
            }
            if sa + sb <= cap {
                // Merge into the smaller representative.
                let (keep, gone) = if ra < rb { (ra, rb) } else { (rb, ra) };
                let moved = members.remove(&gone).unwrap_or_default();
                for &v in &moved {
                    self.comp.insert(v, keep);
                }
                members.entry(keep).or_default().extend(moved);
                self.pressure.remove(&gone);
            } else {
                // Capacity violation: refuse the merge and charge both
                // components. A component under persistent pressure pays
                // the amortized repartition — dissolve to singletons and
                // freeze its members so the same overgrowth cannot recur
                // immediately.
                for rep in [ra, rb] {
                    let hits = self.pressure.entry(rep).or_insert(0);
                    *hits += 1;
                    if *hits < self.cfg.violation_patience {
                        continue;
                    }
                    self.pressure.remove(&rep);
                    let Some(vs) = members.remove(&rep) else {
                        continue;
                    };
                    for v in vs {
                        self.comp.insert(v, v);
                        members.entry(v).or_default().push(v);
                        self.frozen.insert(v, self.cfg.freeze_rounds);
                    }
                }
            }
        }
        self.comp.retain(|v, _| home.contains_key(v));
        self.pressure.retain(|rep, _| home.contains_key(rep));

        // Pack components onto servers, largest first, each preferring the
        // server already hosting the plurality of its members.
        let mut comps: Vec<(V, Vec<V>)> = members
            .into_iter()
            .map(|(rep, mut vs)| {
                vs.sort_unstable();
                (rep, vs)
            })
            .collect();
        comps.sort_unstable_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        let mut loads = vec![0usize; servers];
        let mut moves = 0;
        for (_, vs) in comps {
            let mut counts = vec![0usize; servers];
            for v in &vs {
                counts[home[v]] += 1;
            }
            let mut target: Option<usize> = None;
            for s in 0..servers {
                if host.is_failed(s) || loads[s] + vs.len() > cap {
                    continue;
                }
                target = match target {
                    None => Some(s),
                    Some(t) if counts[s] > counts[t] => Some(s),
                    keep => keep,
                };
            }
            // No server fits the whole component: fall back to the least
            // loaded live server (the capacity bound is advisory once the
            // packing itself is infeasible).
            let target = target.or_else(|| {
                (0..servers)
                    .filter(|&s| !host.is_failed(s))
                    .min_by_key(|&s| (loads[s], s))
            });
            let Some(target) = target else {
                return moves; // Every server failed; nothing to do.
            };
            loads[target] += vs.len();
            for v in vs {
                if home[&v] != target {
                    host.migrate(v, target);
                    moves += 1;
                }
            }
        }
        moves
    }
}

/// Le Merrer/Trédan-style streaming re-partitioning. Per-server scope:
/// each round, the initiator re-streams its hottest vertices (highest
/// sampled communication volume) through a load-sensitive placement rule —
/// a vertex goes to the server maximizing `w_to(q) × free_capacity(q)`,
/// which is weighted deterministic greedy in its linear form. At most one
/// candidate-set's worth of vertices moves per round.
#[derive(Debug, Clone)]
pub struct StreamPolicy<V> {
    /// The reused [`ViewScope::Full`] view buffer (the policy keeps no
    /// other state between rounds).
    view: PartitionView<V>,
}

impl<V> StreamPolicy<V> {
    /// Creates the policy.
    pub fn new() -> Self {
        StreamPolicy {
            view: PartitionView::default(),
        }
    }
}

impl<V> Default for StreamPolicy<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> RepartitionPolicy<V> for StreamPolicy<V>
where
    V: Copy + Eq + Hash + Ord,
{
    fn kind(&self) -> RepartitionPolicyKind {
        RepartitionPolicyKind::Stream
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
        host.view(initiator, ViewScope::Full, view);
        if view.is_empty() {
            return 0;
        }
        // Hottest first: total sampled volume, deterministic tie-break.
        let mut hot: Vec<(u64, V, usize)> = view
            .iter()
            .enumerate()
            .map(|(i, (v, edges))| (edges.iter().map(|&(_, w)| w).sum(), v, i))
            .collect();
        hot.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        hot.truncate(config.candidate_set_size);

        let mut loads = host.sizes();
        let total: usize = loads.iter().sum();
        let cap = capacity_bound(total, servers, config);
        let mut moves = 0;
        for (_, v, i) in hot {
            // Re-stream `v`: pull it out of its current server, then place
            // it where attraction × free capacity is largest.
            let Some(from) = host.locate(&v) else {
                continue;
            };
            let mut w_to = vec![0u64; servers];
            for (peer, w) in view.edges(i) {
                if let Some(s) = host.locate(peer) {
                    let w_peer = if *peer == v { 0 } else { *w };
                    if s < servers {
                        w_to[s] += w_peer;
                    }
                }
            }
            loads[from] -= 1;
            let mut best: Option<(u64, usize)> = None;
            for (s, &w) in w_to.iter().enumerate() {
                if host.is_failed(s) || loads[s] >= cap {
                    continue;
                }
                let gain = w.saturating_mul((cap - loads[s]) as u64);
                best = match best {
                    None => Some((gain, s)),
                    Some((bg, bs)) => {
                        // Strictly-better wins; ties keep the incumbent
                        // server (moving on a tie would oscillate).
                        if gain > bg || (gain == bg && s == from && bs != from) {
                            Some((gain, s))
                        } else {
                            Some((bg, bs))
                        }
                    }
                };
            }
            let to = best.map_or(from, |(_, s)| s);
            loads[to] += 1;
            if to != from {
                host.migrate(v, to);
                moves += 1;
            }
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{CommGraph, Partition};
    use crate::policy::GraphHost;

    fn ring(n: u32) -> CommGraph<u32> {
        let mut g = CommGraph::new();
        for i in 0..n {
            g.add_edge(i, (i + 1) % n, 4);
        }
        g
    }

    fn round_robin(n: u32, servers: usize) -> Partition<u32> {
        let mut p = Partition::new(servers);
        for i in 0..n {
            p.place(i, i as usize % servers);
        }
        p
    }

    fn run<V: Copy + Eq + std::hash::Hash + Ord + 'static>(
        policy: &mut dyn RepartitionPolicy<V>,
        host: &mut GraphHost<V>,
        cfg: &PartitionConfig,
        rounds: usize,
    ) {
        for r in 0..rounds {
            match policy.scope() {
                PolicyScope::PerServer => {
                    for s in 0..host.partition.servers() {
                        policy.round(host, r as u64, s, cfg);
                    }
                }
                PolicyScope::Global => {
                    policy.round(host, r as u64, 0, cfg);
                }
            }
        }
    }

    #[test]
    fn dynamic_balanced_groups_ring_segments() {
        // A 12-ring round-robined over 4 servers has every edge cut (cost
        // 48). Contiguous segments of 3 cut only 4 edges (cost 16) — the
        // policy must land at or below a third of the initial cut.
        let g = ring(12);
        let p = round_robin(12, 4);
        let mut host = GraphHost::new(g, p);
        let cfg = PartitionConfig {
            candidate_set_size: 16,
            imbalance_tolerance: 1,
            exchange_cooldown_ns: 0,
            min_total_score: 1,
        };
        let mut policy = DynamicBalancedPolicy::new(DynamicBalancedConfig::default());
        run(&mut policy, &mut host, &cfg, 6);
        let cut = host.graph.cut_cost(&host.partition);
        assert!(cut <= 16, "cut {cut} should reach segment quality");
        let cap = capacity_bound(12, 4, &cfg);
        for &s in host.partition.sizes() {
            assert!(
                s <= cap,
                "sizes {:?} exceed cap {cap}",
                host.partition.sizes()
            );
        }
    }

    #[test]
    fn dynamic_balanced_dissolves_oversized_components() {
        // A 10-clique on 2 servers (cap = 5 + tol): the clique can never
        // co-locate, so the policy must keep sizes within capacity instead
        // of piling everything on one server.
        let mut g = CommGraph::new();
        for a in 0..10u32 {
            for b in (a + 1)..10 {
                g.add_edge(a, b, 2);
            }
        }
        let p = round_robin(10, 2);
        let mut host = GraphHost::new(g, p);
        let cfg = PartitionConfig {
            candidate_set_size: 16,
            imbalance_tolerance: 1,
            exchange_cooldown_ns: 0,
            min_total_score: 1,
        };
        let cap = capacity_bound(10, 2, &cfg);
        let mut policy = DynamicBalancedPolicy::new(DynamicBalancedConfig::default());
        for r in 0..8 {
            policy.round(&mut host, r, 0, &cfg);
            for &s in host.partition.sizes() {
                assert!(s <= cap, "round {r}: sizes {:?}", host.partition.sizes());
            }
            assert_eq!(host.partition.vertex_count(), 10);
        }
    }

    #[test]
    fn stream_respects_capacity() {
        // One hub everyone talks to: stream placement is tempted to pile
        // every vertex onto the hub's server but must stop at capacity.
        let mut g = CommGraph::new();
        for v in 1..=9u32 {
            g.add_edge(0, v, 10);
        }
        let p = round_robin(10, 2);
        let mut host = GraphHost::new(g, p);
        let cfg = PartitionConfig {
            candidate_set_size: 32,
            imbalance_tolerance: 1,
            exchange_cooldown_ns: 0,
            min_total_score: 1,
        };
        let cap = capacity_bound(10, 2, &cfg);
        let mut policy = StreamPolicy::new();
        run(&mut policy, &mut host, &cfg, 4);
        for &s in host.partition.sizes() {
            assert!(
                s <= cap,
                "sizes {:?} exceed cap {cap}",
                host.partition.sizes()
            );
        }
        assert_eq!(host.partition.vertex_count(), 10);
    }

    #[test]
    fn stream_is_idempotent_once_settled() {
        // After enough rounds the placement reaches a fixed point: one
        // more full sweep issues zero migrations (ties keep incumbents).
        let g = ring(8);
        let p = round_robin(8, 2);
        let mut host = GraphHost::new(g, p);
        let cfg = PartitionConfig {
            candidate_set_size: 16,
            imbalance_tolerance: 2,
            exchange_cooldown_ns: 0,
            min_total_score: 1,
        };
        let mut policy = StreamPolicy::new();
        run(&mut policy, &mut host, &cfg, 6);
        let before = host.moves.len();
        run(&mut policy, &mut host, &cfg, 1);
        assert_eq!(host.moves.len(), before, "settled placement must not churn");
    }

    #[test]
    fn policies_skip_failed_servers() {
        let g = ring(6);
        let p = round_robin(6, 3);
        for kind in [
            RepartitionPolicyKind::Stream,
            RepartitionPolicyKind::DynamicBalanced,
        ] {
            let mut host = GraphHost::new(g.clone(), p.clone());
            host.failed[2] = true;
            let cfg = PartitionConfig::for_tests();
            let mut policy = crate::policy::build_policy::<u32>(
                kind,
                crate::policy::MigrationCostConfig::default(),
            );
            for r in 0..4 {
                match policy.scope() {
                    PolicyScope::PerServer => {
                        for s in 0..3 {
                            policy.round(&mut host, r, s, &cfg);
                        }
                    }
                    PolicyScope::Global => {
                        policy.round(&mut host, r, 0, &cfg);
                    }
                }
            }
            for (v, to) in &host.moves {
                assert_ne!(*to, 2, "{}: migrated {v:?} to a failed server", kind.name());
            }
        }
    }
}
