//! Transfer scores and candidate-set selection (§4.2).
//!
//! The transfer score of vertex `v` (on server `p`) toward server `q` is
//! the communication-cost reduction its migration would achieve:
//!
//! ```text
//! R_{p,q}(v) = sum_{u in V_q} w_{v,u} - sum_{u in V_p} w_{v,u}
//! ```
//!
//! i.e. edges that become local minus edges that become remote. Each server
//! computes scores only from its sampled heavy-edge list, so scores are
//! estimates — the responder side of the protocol re-checks them against
//! its own state before accepting.

use std::hash::Hash;

use crate::view::PartitionView;

/// Per-destination transfer scores for one vertex.
///
/// `edges` are the (sampled) weighted edges of the vertex; `home` is the
/// vertex's current server; `locate` maps a peer vertex to its server, if
/// known (unknown peers are ignored — they contribute to neither term).
///
/// Returns a vector of length `servers` with `R_{home,q}` per server `q`
/// (the entry for `home` itself is 0).
pub fn transfer_scores<V, F>(
    edges: &[(V, u64)],
    home: usize,
    servers: usize,
    mut locate: F,
) -> Vec<i64>
where
    V: Eq + Hash,
    F: FnMut(&V) -> Option<usize>,
{
    let mut per_server = vec![0i64; servers];
    let local_sum = remote_sums(edges, home, &mut per_server, &mut locate);
    for (q, score) in per_server.iter_mut().enumerate() {
        if q == home {
            *score = 0;
        } else {
            *score -= local_sum;
        }
    }
    per_server
}

/// A vertex offered in an exchange, together with its sampled edges so the
/// responder can re-score it and maintain scores during selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoredVertex<V> {
    /// The vertex.
    pub vertex: V,
    /// The initiator's estimated transfer score toward the destination.
    pub score: i64,
    /// The vertex's sampled weighted edges.
    pub edges: Vec<(V, u64)>,
}

/// Selects the candidate set toward each destination server: for every
/// server `q != home`, the up-to-`k` local vertices with the highest
/// positive `R_{home,q}`.
///
/// `view` provides, per local vertex, its sampled edge list; a
/// [`ViewScope::Movable`](crate::view::ViewScope::Movable) view gives the
/// same sets as a full one. Returns one candidate vector per server, each
/// sorted by descending score with deterministic tie-breaking on the
/// vertex itself.
///
/// Scores go into one reused buffer and each server's set is ranked as
/// `(score, index)` pairs; only the `k` survivors copy their edges.
pub fn candidate_set<V, F>(
    view: &PartitionView<V>,
    home: usize,
    servers: usize,
    k: usize,
    mut locate: F,
) -> Vec<Vec<ScoredVertex<V>>>
where
    V: Copy + Eq + Hash + Ord,
    F: FnMut(&V) -> Option<usize>,
{
    let mut ranked: Vec<Vec<(i64, usize)>> = vec![Vec::new(); servers];
    let mut scores = vec![0i64; servers];
    for i in 0..view.len() {
        scores.fill(0);
        let local_sum = remote_sums(view.edges(i), home, &mut scores, &mut locate);
        for (q, &remote) in scores.iter().enumerate() {
            let score = remote - local_sum;
            if q != home && score > 0 {
                ranked[q].push((score, i));
            }
        }
    }
    ranked
        .into_iter()
        .map(|pairs| top_k(view, pairs, k))
        .collect()
}

/// The candidate set toward the single server `target`: equal to
/// `candidate_set(view, home, servers, k, locate)[target]` (empty for
/// `target == home`), without scoring or ranking the other servers. The
/// responder of an exchange only needs its set toward the initiator.
///
/// # Panics
///
/// Panics if `target >= servers`.
pub fn candidate_set_toward<V, F>(
    view: &PartitionView<V>,
    home: usize,
    servers: usize,
    k: usize,
    target: usize,
    mut locate: F,
) -> Vec<ScoredVertex<V>>
where
    V: Copy + Eq + Hash + Ord,
    F: FnMut(&V) -> Option<usize>,
{
    assert!(target < servers, "target {target} out of {servers} servers");
    if target == home {
        return Vec::new();
    }
    let mut ranked = Vec::new();
    let mut scores = vec![0i64; servers];
    for i in 0..view.len() {
        scores.fill(0);
        let local_sum = remote_sums(view.edges(i), home, &mut scores, &mut locate);
        let score = scores[target] - local_sum;
        if score > 0 {
            ranked.push((score, i));
        }
    }
    top_k(view, ranked, k)
}

/// Adds each edge's weight to `per_server[server]` for remote peers and
/// returns the summed weight of peers on `home` (the [`transfer_scores`]
/// accumulation, before subtracting the local sum).
fn remote_sums<V, F>(edges: &[(V, u64)], home: usize, per_server: &mut [i64], locate: &mut F) -> i64
where
    F: FnMut(&V) -> Option<usize>,
{
    let mut local_sum = 0i64;
    for (peer, w) in edges {
        let Some(server) = locate(peer) else {
            continue;
        };
        if server == home {
            local_sum += *w as i64;
        } else if server < per_server.len() {
            per_server[server] += *w as i64;
        }
    }
    local_sum
}

/// Keeps the `k` best `(score, index)` pairs — score descending, then
/// vertex, then view position (so duplicates keep a stable order) — and
/// materializes them with their edges.
fn top_k<V: Copy + Ord>(
    view: &PartitionView<V>,
    mut ranked: Vec<(i64, usize)>,
    k: usize,
) -> Vec<ScoredVertex<V>> {
    ranked.sort_unstable_by(|a, b| {
        b.0.cmp(&a.0)
            .then(view.vertex(a.1).cmp(&view.vertex(b.1)))
            .then(a.1.cmp(&b.1))
    });
    ranked.truncate(k);
    ranked
        .into_iter()
        .map(|(score, i)| ScoredVertex {
            vertex: view.vertex(i),
            score,
            edges: view.edges(i).to_vec(),
        })
        .collect()
}

/// Total anticipated score of a candidate set — what the initiator uses to
/// rank destination servers.
pub fn total_score<V>(candidates: &[ScoredVertex<V>]) -> i64 {
    candidates.iter().map(|c| c.score).sum()
}

/// Drops candidates whose score does not strictly exceed `threshold` from
/// every per-server set. The migration-cost-aware objective prunes offers
/// that could never repay the migration tax before they are even sent; at
/// `threshold = 0` this is a no-op, since [`candidate_set`] only emits
/// positive-score candidates.
pub fn retain_above<V>(sets: &mut [Vec<ScoredVertex<V>>], threshold: i64) {
    if threshold <= 0 {
        return;
    }
    for set in sets {
        set.retain(|c| c.score > threshold);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(rows: &[(u32, Vec<(u32, u64)>)]) -> PartitionView<u32> {
        let mut view = PartitionView::new();
        for (v, edges) in rows {
            view.push(*v, edges);
        }
        view
    }

    #[test]
    fn score_counts_remote_minus_local() {
        // v on server 0; peers: a on 0 (w 5), b on 1 (w 7), c on 1 (w 3),
        // d on 2 (w 4).
        let edges = vec![("a", 5u64), ("b", 7), ("c", 3), ("d", 4)];
        let locate = |peer: &&str| match *peer {
            "a" => Some(0),
            "b" | "c" => Some(1),
            "d" => Some(2),
            _ => None,
        };
        let scores = transfer_scores(&edges, 0, 3, locate);
        assert_eq!(scores[0], 0);
        assert_eq!(scores[1], 10 - 5);
        assert_eq!(scores[2], 4 - 5);
    }

    #[test]
    fn unknown_peers_are_ignored() {
        let edges = vec![("x", 100u64), ("b", 7)];
        let scores = transfer_scores(&edges, 0, 2, |p: &&str| (*p == "b").then_some(1));
        assert_eq!(scores[1], 7);
    }

    #[test]
    fn isolated_vertex_has_zero_scores() {
        let edges: Vec<(u32, u64)> = vec![];
        let scores = transfer_scores(&edges, 0, 4, |_| None);
        assert_eq!(scores, vec![0, 0, 0, 0]);
    }

    #[test]
    fn candidate_set_keeps_top_k_positive() {
        // Three vertices on server 0, all pulled toward server 1 with
        // different strengths; k = 2 keeps the two strongest.
        let vertices = vec![
            (1u32, vec![(10u32, 5u64)]),
            (2, vec![(10, 9)]),
            (3, vec![(10, 7)]),
            (4, vec![(5, 2)]), // Peer on home server: negative score.
        ];
        let locate = |peer: &u32| match peer {
            10 => Some(1),
            5 => Some(0),
            _ => None,
        };
        let sets = candidate_set(&view(&vertices), 0, 2, 2, locate);
        let toward_1: Vec<u32> = sets[1].iter().map(|c| c.vertex).collect();
        assert_eq!(toward_1, vec![2, 3], "top-2 by score");
        assert_eq!(total_score(&sets[1]), 16);
        assert!(sets[0].is_empty(), "no self-candidates");
    }

    #[test]
    fn ties_break_deterministically_by_vertex() {
        let vertices = vec![
            (7u32, vec![(100u32, 5u64)]),
            (3, vec![(100, 5)]),
            (9, vec![(100, 5)]),
        ];
        let sets = candidate_set(&view(&vertices), 0, 2, 2, |p: &u32| {
            (*p == 100).then_some(1)
        });
        let picked: Vec<u32> = sets[1].iter().map(|c| c.vertex).collect();
        assert_eq!(picked, vec![3, 7]);
    }

    #[test]
    fn retain_above_prunes_only_past_the_threshold() {
        let vertices = vec![
            (1u32, vec![(10u32, 5u64)]),
            (2, vec![(10, 9)]),
            (3, vec![(10, 7)]),
        ];
        let full = candidate_set(&view(&vertices), 0, 2, 8, |p: &u32| (*p == 10).then_some(1));

        let mut sets = full.clone();
        retain_above(&mut sets, 0);
        assert_eq!(sets, full, "threshold 0 is a no-op");

        let mut sets = full.clone();
        retain_above(&mut sets, -3);
        assert_eq!(sets, full, "negative thresholds never prune");

        let mut sets = full.clone();
        retain_above(&mut sets, 6);
        let kept: Vec<u32> = sets[1].iter().map(|c| c.vertex).collect();
        assert_eq!(kept, vec![2, 3], "scores 9 and 7 exceed 6; 5 does not");
    }

    #[test]
    fn vertex_with_balanced_edges_not_a_candidate() {
        // Equal weight home and away: score 0, not positive, excluded.
        let vertices = vec![(1u32, vec![(2u32, 5u64), (3u32, 5u64)])];
        let locate = |peer: &u32| match peer {
            2 => Some(0),
            3 => Some(1),
            _ => None,
        };
        let sets = candidate_set(&view(&vertices), 0, 2, 8, locate);
        assert!(sets[1].is_empty());
    }
}
