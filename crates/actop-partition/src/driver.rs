//! Standalone driver: the pairwise protocol over a static graph.
//!
//! This is the setting of Theorem 1: a fixed weighted graph, servers
//! repeatedly initiating pairwise exchanges. The driver exposes exactly the
//! mechanics the live runtime uses — candidate sets, ranked targets,
//! responder selection — but reads edges from a complete [`CommGraph`]
//! instead of per-server sketches, so convergence properties can be tested
//! in isolation from sampling noise.

use std::hash::Hash;

use crate::config::PartitionConfig;
use crate::exchange::{select_exchange, ExchangeRequest};
use crate::graph::{CommGraph, Partition};
use crate::score::{candidate_set, candidate_set_toward, total_score, transfer_scores};
use crate::view::{PartitionView, ViewScope};

/// Refills `out` with one server's vertices and their edges, as the
/// protocol consumes them: vertices in order, edges sorted by peer, and
/// with [`ViewScope::Full`] isolated vertices too.
pub fn local_view<V>(
    graph: &CommGraph<V>,
    partition: &Partition<V>,
    server: usize,
    scope: ViewScope,
    out: &mut PartitionView<V>,
) where
    V: Copy + Eq + Hash + Ord,
{
    out.clear();
    for v in partition.vertices_on(server) {
        let edges = graph.neighbors(&v);
        if scope.keeps(&edges, server, |u| partition.server_of(u)) {
            out.push(v, &edges);
        }
    }
}

/// One initiation by server `initiator` (one execution of Alg. 1):
/// builds candidate sets toward every other server, walks the targets in
/// descending anticipated-score order, and applies the first non-empty
/// exchange to `partition`. Returns the number of migrations applied.
pub fn initiate_exchange<V>(
    graph: &CommGraph<V>,
    partition: &mut Partition<V>,
    initiator: usize,
    config: &PartitionConfig,
) -> usize
where
    V: Copy + Eq + Hash + Ord,
{
    let servers = partition.servers();
    let mut view = PartitionView::new();
    local_view(graph, partition, initiator, ViewScope::Movable, &mut view);
    let locate = |v: &V| partition.server_of(v);
    let sets = candidate_set(&view, initiator, servers, config.candidate_set_size, locate);
    // Rank targets by anticipated total score.
    let mut targets: Vec<(usize, i64)> = sets
        .iter()
        .enumerate()
        .filter(|(q, set)| *q != initiator && !set.is_empty())
        .map(|(q, set)| (q, total_score(set)))
        .filter(|&(_, score)| score >= config.min_total_score)
        .collect();
    targets.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    for (target, _) in targets {
        let request = ExchangeRequest {
            from: initiator,
            from_size: partition.sizes()[initiator],
            candidates: sets[target].clone(),
        };
        // Responder builds its own candidates toward the initiator.
        local_view(graph, partition, target, ViewScope::Movable, &mut view);
        let own = candidate_set_toward(
            &view,
            target,
            servers,
            config.candidate_set_size,
            initiator,
            |v| partition.server_of(v),
        );
        let outcome = select_exchange(&request, partition.sizes()[target], &own, config);
        if outcome.is_empty() {
            continue; // Try the next-best target (§4.2 fallback).
        }
        for v in &outcome.accepted {
            partition.migrate(v, target);
        }
        for v in &outcome.returned {
            partition.migrate(v, initiator);
        }
        return outcome.moves();
    }
    0
}

/// Convergence report of [`run_to_convergence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceReport {
    /// Cut cost after each full sweep (all servers initiating once).
    pub cost_history: Vec<u64>,
    /// Migrations applied in each sweep.
    pub moves_history: Vec<usize>,
    /// True when a full sweep produced no migration (a fixed point).
    pub converged: bool,
}

impl ConvergenceReport {
    /// Total migrations across all sweeps.
    pub fn total_moves(&self) -> usize {
        self.moves_history.iter().sum()
    }
}

/// Runs sweeps of the protocol (every server initiates once per sweep)
/// until a sweep makes no move or `max_sweeps` is reached.
pub fn run_to_convergence<V>(
    graph: &CommGraph<V>,
    partition: &mut Partition<V>,
    config: &PartitionConfig,
    max_sweeps: usize,
) -> ConvergenceReport
where
    V: Copy + Eq + Hash + Ord,
{
    let mut report = ConvergenceReport {
        cost_history: vec![graph.cut_cost(partition)],
        moves_history: Vec::new(),
        converged: false,
    };
    for _ in 0..max_sweeps {
        let mut moves = 0;
        for p in 0..partition.servers() {
            moves += initiate_exchange(graph, partition, p, config);
        }
        report.moves_history.push(moves);
        report.cost_history.push(graph.cut_cost(partition));
        if moves == 0 {
            report.converged = true;
            break;
        }
    }
    report
}

/// Checks the local-optimality condition of Theorem 1: every vertex either
/// has no positive transfer score toward any server, or each positive move
/// would break the pairwise balance constraint.
pub fn is_locally_optimal<V>(graph: &CommGraph<V>, partition: &Partition<V>, delta: usize) -> bool
where
    V: Copy + Eq + Hash + Ord,
{
    let servers = partition.servers();
    let sizes = partition.sizes().to_vec();
    for v in graph.vertices() {
        let Some(home) = partition.server_of(&v) else {
            continue;
        };
        let edges = graph.neighbors(&v);
        let scores = transfer_scores(&edges, home, servers, |u| partition.server_of(u));
        for (q, &score) in scores.iter().enumerate() {
            if q == home || score <= 0 {
                continue;
            }
            // A positive move must violate the balance constraint.
            let diff = (sizes[home] as i64 - 1 - (sizes[q] as i64 + 1)).abs();
            if diff <= delta as i64 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two four-cliques split across two servers the wrong way.
    fn crossed_cliques() -> (CommGraph<u32>, Partition<u32>) {
        let mut g = CommGraph::new();
        for group in [0u32, 10] {
            for a in 0..4 {
                for b in (a + 1)..4 {
                    g.add_edge(group + a, group + b, 10);
                }
            }
        }
        // Weak cross-clique edge so the graph is connected.
        g.add_edge(0, 10, 1);
        let mut p = Partition::new(2);
        // Interleave: half of each clique on each server.
        for v in [0u32, 1, 10, 11] {
            p.place(v, 0);
        }
        for v in [2u32, 3, 12, 13] {
            p.place(v, 1);
        }
        (g, p)
    }

    #[test]
    fn exchange_untangles_cliques() {
        let (g, mut p) = crossed_cliques();
        let before = g.cut_cost(&p);
        let report = run_to_convergence(&g, &mut p, &PartitionConfig::for_tests(), 20);
        let after = g.cut_cost(&p);
        assert!(report.converged, "should reach a fixed point");
        assert!(after < before, "cost {before} -> {after}");
        // The optimal cut severs only the weak edge.
        assert_eq!(after, 1);
        // Cliques ended up whole.
        let s0 = p.server_of(&0).unwrap();
        for v in 1..4 {
            assert_eq!(p.server_of(&v), Some(s0));
        }
        let s1 = p.server_of(&10).unwrap();
        for v in 11..14 {
            assert_eq!(p.server_of(&(v as u32)), Some(s1));
        }
        assert_ne!(s0, s1, "balance keeps the cliques apart");
    }

    #[test]
    fn cost_is_monotone_nonincreasing() {
        let (g, mut p) = crossed_cliques();
        let report = run_to_convergence(&g, &mut p, &PartitionConfig::for_tests(), 20);
        for w in report.cost_history.windows(2) {
            assert!(w[1] <= w[0], "cost increased: {:?}", report.cost_history);
        }
    }

    #[test]
    fn balance_is_preserved() {
        let (g, mut p) = crossed_cliques();
        let config = PartitionConfig::for_tests();
        run_to_convergence(&g, &mut p, &config, 20);
        assert!(p.max_imbalance() <= config.imbalance_tolerance);
    }

    #[test]
    fn converged_partition_is_locally_optimal() {
        let (g, mut p) = crossed_cliques();
        let config = PartitionConfig::for_tests();
        let report = run_to_convergence(&g, &mut p, &config, 50);
        assert!(report.converged);
        assert!(is_locally_optimal(&g, &p, config.imbalance_tolerance));
    }

    #[test]
    fn already_optimal_partition_makes_no_move() {
        let (g, mut p) = crossed_cliques();
        let config = PartitionConfig::for_tests();
        run_to_convergence(&g, &mut p, &config, 50);
        let cost = g.cut_cost(&p);
        let report = run_to_convergence(&g, &mut p, &config, 5);
        assert!(report.converged);
        assert_eq!(report.total_moves(), 0);
        assert_eq!(g.cut_cost(&p), cost);
    }

    #[test]
    fn empty_graph_converges_immediately() {
        let g: CommGraph<u32> = CommGraph::new();
        let mut p = Partition::new(3);
        let report = run_to_convergence(&g, &mut p, &PartitionConfig::for_tests(), 5);
        assert!(report.converged);
        assert_eq!(report.cost_history, vec![0, 0]);
    }

    #[test]
    fn local_view_contains_all_local_vertices() {
        let (g, p) = crossed_cliques();
        let mut view = PartitionView::new();
        local_view(&g, &p, 0, ViewScope::Full, &mut view);
        let vertices: Vec<u32> = view.iter().map(|(v, _)| v).collect();
        assert_eq!(vertices, vec![0, 1, 10, 11]);
        // Vertex 0's neighbors include its clique and the weak edge.
        let edges = view.edges(0);
        assert!(edges.contains(&(1, 10)));
        assert!(edges.contains(&(10, 1)));
    }
}
