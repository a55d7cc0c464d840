//! The pairwise coordination protocol (Alg. 1): exchange-subset selection.
//!
//! Initiator `p` sends server `q` an [`ExchangeRequest`] carrying a
//! candidate set `S` of scored vertices (with their sampled edges). The
//! responder `q` builds its own candidate set `T` toward `p` and runs the
//! paper's iterative greedy procedure to jointly pick the accepted subset
//! `S0 ⊆ S` and the returned subset `T0 ⊆ T`:
//!
//! 1. Repeatedly take the candidate with the highest *current* transfer
//!    score across both sets.
//! 2. If moving it would violate the balance constraint
//!    `||V_p| - |V_q|| <= delta`, take the best candidate from the other
//!    set instead.
//! 3. After each move, update the scores of the remaining candidates that
//!    share an edge with the moved vertex: candidates on the same side gain
//!    `2w` (their heavy peer now precedes them), candidates on the opposite
//!    side lose `2w`.
//! 4. Stop when no remaining candidate has a positive score or every move
//!    would break the balance constraint.
//!
//! Only positive-score moves are applied, which is what makes the total
//! communication cost monotone non-increasing (Theorem 1). `q` may end up
//! accepting nothing — e.g. when `p` scored against a stale view — which is
//! the protocol's defense against sampled and outdated graphs.

use actop_sketch::FxHashMap;
use std::hash::Hash;

use crate::config::PartitionConfig;
use crate::score::ScoredVertex;

/// An exchange request from initiator `p` to responder `q`.
#[derive(Debug, Clone)]
pub struct ExchangeRequest<V> {
    /// The initiating server `p`.
    pub from: usize,
    /// `|V_p|` as known to the initiator.
    pub from_size: usize,
    /// The candidate set `S`, scored toward the responder.
    pub candidates: Vec<ScoredVertex<V>>,
}

/// The responder's decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeOutcome<V> {
    /// `S0`: vertices from the initiator the responder accepts (they
    /// migrate `p -> q`).
    pub accepted: Vec<V>,
    /// `T0`: the responder's own vertices transferred back (`q -> p`).
    pub returned: Vec<V>,
    /// The sum of every chosen vertex's transfer score *at the moment it
    /// was selected* (after step-3 updates from earlier moves): the
    /// exchange's estimated per-interval communication savings, in
    /// sampled-score units. This is what the cost-aware veto weighs
    /// against the migration tax.
    pub gain: i64,
}

impl<V> ExchangeOutcome<V> {
    /// True when the exchange moves nothing.
    pub fn is_empty(&self) -> bool {
        self.accepted.is_empty() && self.returned.is_empty()
    }

    /// Total number of migrations in this exchange.
    pub fn moves(&self) -> usize {
        self.accepted.len() + self.returned.len()
    }
}

#[derive(Debug)]
struct Item<V> {
    vertex: V,
    score: i64,
    /// True for `S` (initiator-side) candidates, false for `T`.
    from_initiator: bool,
    taken: bool,
}

/// Runs the responder's greedy selection.
///
/// `own_candidates` is the responder's candidate set `T` toward the
/// initiator (built with [`crate::score::candidate_set_toward`]). Both candidate
/// sets carry sampled edges; the pairwise weights between candidates drive
/// the score updates of step 3.
pub fn select_exchange<V>(
    request: &ExchangeRequest<V>,
    responder_size: usize,
    own_candidates: &[ScoredVertex<V>],
    config: &PartitionConfig,
) -> ExchangeOutcome<V>
where
    V: Copy + Eq + Hash + Ord,
{
    select_exchange_with_cost(request, responder_size, own_candidates, config, 0)
}

/// [`select_exchange`] with a migration-cost penalty, charged at *round*
/// granularity: the greedy selection runs exactly as the paper specifies,
/// and the finished move-set is then accepted only if its total gain
/// strictly exceeds `moves * penalty` — i.e. the round's communication
/// savings amortize its total migration tax within the horizon the
/// penalty was derived for. Otherwise the whole exchange is vetoed and
/// nothing moves.
///
/// The veto is deliberately all-or-nothing rather than per-candidate: a
/// per-candidate score bar splits tightly-coupled actor groups (the
/// high scorers migrate, the rest stay behind), and the split halves
/// then generate above-bar cross-traffic forever — a drip of taxed
/// migrations that never converges. Judging the round as a whole keeps
/// the balance negotiation and group structure of the paper's procedure
/// intact and merely decides whether this round is worth paying for.
///
/// At `penalty = 0` this is exactly the paper's procedure — the default
/// protocol delegates here.
pub fn select_exchange_with_cost<V>(
    request: &ExchangeRequest<V>,
    responder_size: usize,
    own_candidates: &[ScoredVertex<V>],
    config: &PartitionConfig,
    penalty: i64,
) -> ExchangeOutcome<V>
where
    V: Copy + Eq + Hash + Ord,
{
    let mut items: Vec<Item<V>> =
        Vec::with_capacity(request.candidates.len() + own_candidates.len());
    let mut index: FxHashMap<V, usize> = FxHashMap::default();
    for c in &request.candidates {
        index.insert(c.vertex, items.len());
        items.push(Item {
            vertex: c.vertex,
            score: c.score,
            from_initiator: true,
            taken: false,
        });
    }
    for c in own_candidates {
        if index.contains_key(&c.vertex) {
            continue; // A vertex cannot be on both sides; trust our own side.
        }
        index.insert(c.vertex, items.len());
        items.push(Item {
            vertex: c.vertex,
            score: c.score,
            from_initiator: false,
            taken: false,
        });
    }

    // Pairwise weights between candidates, from both edge samples (take the
    // larger estimate when both sides observed the edge).
    let mut pair_w: FxHashMap<(usize, usize), u64> = FxHashMap::default();
    let mut note_edges = |cands: &[ScoredVertex<V>]| {
        for c in cands {
            let Some(&i) = index.get(&c.vertex) else {
                continue;
            };
            for (peer, w) in &c.edges {
                if let Some(&j) = index.get(peer) {
                    if i != j {
                        let key = (i.min(j), i.max(j));
                        let entry = pair_w.entry(key).or_default();
                        *entry = (*entry).max(*w);
                    }
                }
            }
        }
    };
    note_edges(&request.candidates);
    note_edges(own_candidates);

    let mut p_size = request.from_size as i64;
    let mut q_size = responder_size as i64;
    let delta = config.imbalance_tolerance as i64;
    let mut outcome = ExchangeOutcome {
        accepted: Vec::new(),
        returned: Vec::new(),
        gain: 0,
    };

    loop {
        // Balance feasibility per side: an S-move shifts one vertex p -> q,
        // a T-move shifts one q -> p. A move is legal when the post-move
        // pair difference is within `delta`, or when it strictly shrinks an
        // already-excessive difference (otherwise a pair that drifted past
        // `delta` — possible with three or more servers, since the
        // constraint is only checked pairwise — could never recover).
        let pre = (p_size - q_size).abs();
        let s_post = (p_size - 1 - (q_size + 1)).abs();
        let t_post = (p_size + 1 - (q_size - 1)).abs();
        let s_ok = s_post <= delta || s_post < pre;
        let t_ok = t_post <= delta || t_post < pre;
        // Best live candidate per side (deterministic tie-break by vertex).
        let best_of = |side: bool, items: &[Item<V>]| -> Option<usize> {
            let mut best: Option<usize> = None;
            for (i, item) in items.iter().enumerate() {
                if item.taken || item.from_initiator != side || item.score <= 0 {
                    continue;
                }
                best = match best {
                    None => Some(i),
                    Some(b) => {
                        let cur = (items[b].score, std::cmp::Reverse(items[b].vertex));
                        let cand = (item.score, std::cmp::Reverse(item.vertex));
                        if cand > cur {
                            Some(i)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
            best
        };
        let best_s = best_of(true, &items);
        let best_t = best_of(false, &items);

        // Step 1/2: highest score overall, deflecting to the other set when
        // the balance constraint blocks the winner.
        let choice = match (best_s, best_t) {
            (Some(s), Some(t)) => {
                let s_key = (items[s].score, std::cmp::Reverse(items[s].vertex));
                let t_key = (items[t].score, std::cmp::Reverse(items[t].vertex));
                let (first, first_ok, second, second_ok) = if s_key >= t_key {
                    (s, s_ok, t, t_ok)
                } else {
                    (t, t_ok, s, s_ok)
                };
                if first_ok {
                    Some(first)
                } else if second_ok {
                    Some(second)
                } else {
                    None
                }
            }
            (Some(s), None) => s_ok.then_some(s),
            (None, Some(t)) => t_ok.then_some(t),
            (None, None) => None,
        };
        let Some(chosen) = choice else {
            break;
        };

        // Apply the move.
        items[chosen].taken = true;
        outcome.gain += items[chosen].score;
        let moved_side = items[chosen].from_initiator;
        if moved_side {
            p_size -= 1;
            q_size += 1;
            outcome.accepted.push(items[chosen].vertex);
        } else {
            p_size += 1;
            q_size -= 1;
            outcome.returned.push(items[chosen].vertex);
        }

        // Step 3: update remaining candidates sharing an edge with it.
        for (i, item) in items.iter_mut().enumerate() {
            if item.taken || i == chosen {
                continue;
            }
            let key = (i.min(chosen), i.max(chosen));
            let Some(&w) = pair_w.get(&key) else {
                continue;
            };
            let delta_score = 2 * w as i64;
            if item.from_initiator == moved_side {
                item.score += delta_score;
            } else {
                item.score -= delta_score;
            }
        }
    }
    // The cost-aware veto: the round's savings must strictly exceed its
    // total migration tax, or nothing moves.
    if penalty > 0 && outcome.gain <= outcome.moves() as i64 * penalty {
        return ExchangeOutcome {
            accepted: Vec::new(),
            returned: Vec::new(),
            gain: 0,
        };
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(vertex: u32, score: i64, edges: Vec<(u32, u64)>) -> ScoredVertex<u32> {
        ScoredVertex {
            vertex,
            score,
            edges,
        }
    }

    fn config(delta: usize) -> PartitionConfig {
        PartitionConfig {
            imbalance_tolerance: delta,
            ..PartitionConfig::for_tests()
        }
    }

    #[test]
    fn accepts_positive_candidates_within_balance() {
        let request = ExchangeRequest {
            from: 0,
            from_size: 10,
            candidates: vec![cand(1, 5, vec![]), cand(2, 3, vec![])],
        };
        let outcome = select_exchange(&request, 10, &[], &config(4));
        assert_eq!(outcome.accepted, vec![1, 2]);
        assert!(outcome.returned.is_empty());
    }

    #[test]
    fn rejects_non_positive_candidates() {
        let request = ExchangeRequest {
            from: 0,
            from_size: 10,
            candidates: vec![cand(1, 0, vec![]), cand(2, -4, vec![])],
        };
        let outcome = select_exchange(&request, 10, &[], &config(8));
        assert!(outcome.is_empty());
    }

    #[test]
    fn balance_constraint_deflects_to_other_set() {
        // p has 10, q has 10, delta = 2: at most one net S-move before the
        // difference hits 2... then a T-move rebalances and allows more.
        let request = ExchangeRequest {
            from: 0,
            from_size: 10,
            candidates: vec![cand(1, 9, vec![]), cand(2, 8, vec![]), cand(3, 7, vec![])],
        };
        let own = vec![cand(100, 6, vec![]), cand(101, 5, vec![])];
        let outcome = select_exchange(&request, 10, &own, &config(2));
        // Sequence: S(1) ok (9-11); S(2) would make 8-12, blocked, deflect
        // to T(100) (10-10); S(2) ok (9-11); S(3) blocked, deflect T(101)
        // (10-10); S(3) ok (9-11). Balance forces strict alternation.
        assert_eq!(outcome.accepted, vec![1, 2, 3]);
        assert_eq!(outcome.returned, vec![100, 101]);
    }

    #[test]
    fn score_updates_same_side_boost() {
        // Vertices 1 and 2 (both on p) share a heavy edge. Once 1 moves to
        // q, 2's score should rise by 2w and make it eligible.
        let request = ExchangeRequest {
            from: 0,
            from_size: 10,
            candidates: vec![
                cand(1, 10, vec![(2, 6)]),
                cand(2, -5, vec![(1, 6)]), // Not positive initially.
            ],
        };
        let outcome = select_exchange(&request, 10, &[], &config(10));
        // After moving 1: score(2) = -5 + 12 = 7 > 0, accepted.
        assert_eq!(outcome.accepted, vec![1, 2]);
    }

    #[test]
    fn score_updates_opposite_side_penalty() {
        // Vertex 1 on p and vertex 100 on q communicate heavily; moving 1
        // to q must make returning 100 to p unattractive.
        let request = ExchangeRequest {
            from: 0,
            from_size: 10,
            candidates: vec![cand(1, 20, vec![(100, 8)])],
        };
        let own = vec![cand(100, 10, vec![(1, 8)])];
        let outcome = select_exchange(&request, 10, &own, &config(10));
        assert_eq!(outcome.accepted, vec![1]);
        // score(100) = 10 - 16 = -6: stays on q, where vertex 1 now lives.
        assert!(outcome.returned.is_empty());
    }

    #[test]
    fn empty_request_accepts_nothing_but_may_return() {
        // Even with an empty S, q can push its own positive candidates.
        let request = ExchangeRequest {
            from: 0,
            from_size: 10,
            candidates: vec![],
        };
        let own = vec![cand(100, 4, vec![])];
        let outcome = select_exchange(&request, 10, &own, &config(4));
        assert_eq!(outcome.returned, vec![100]);
        assert!(outcome.accepted.is_empty());
    }

    #[test]
    fn severe_imbalance_blocks_everything() {
        // q is already delta-heavier than p; accepting more only worsens it
        // and there is nothing to return.
        let request = ExchangeRequest {
            from: 0,
            from_size: 5,
            candidates: vec![cand(1, 100, vec![])],
        };
        let outcome = select_exchange(&request, 9, &[], &config(2));
        assert!(outcome.is_empty());
    }

    #[test]
    fn rebalancing_flows_through_t_moves() {
        // q much heavier than p: T-moves strictly reduce the pairwise
        // imbalance, so they are allowed even though the post-move
        // difference still exceeds delta; S-moves (which would widen it)
        // stay blocked.
        let request = ExchangeRequest {
            from: 0,
            from_size: 4,
            candidates: vec![cand(1, 50, vec![])],
        };
        let own = vec![cand(100, 3, vec![]), cand(101, 2, vec![])];
        let outcome = select_exchange(&request, 10, &own, &config(2));
        // T(100): (4,10) -> (5,9), diff 6 -> 4: allowed. T(101): (5,9) ->
        // (6,8), diff 2 <= delta: allowed. S(1) would widen the diff at
        // every step and never runs.
        assert_eq!(outcome.returned, vec![100, 101]);
        assert!(outcome.accepted.is_empty());
    }

    #[test]
    fn moderate_imbalance_rebalances_via_t() {
        let request = ExchangeRequest {
            from: 0,
            from_size: 8,
            candidates: vec![cand(1, 50, vec![])],
        };
        let own = vec![cand(100, 3, vec![]), cand(101, 2, vec![])];
        let outcome = select_exchange(&request, 12, &own, &config(2));
        // S(1) 7-13 blocked (diff 6); T(100): 9-11, diff 2, ok. Then S(1):
        // 8-12 diff 4 blocked; T(101): 10-10 ok. Then S(1): 9-11 ok.
        assert_eq!(outcome.returned, vec![100, 101]);
        assert_eq!(outcome.accepted, vec![1]);
    }

    #[test]
    fn zero_penalty_is_the_identity() {
        // The default protocol and the cost-aware one at penalty 0 must be
        // the same procedure (the golden byte-compat hinges on this).
        let request = ExchangeRequest {
            from: 0,
            from_size: 10,
            candidates: vec![
                cand(1, 10, vec![(2, 6)]),
                cand(2, -5, vec![(1, 6)]),
                cand(3, 1, vec![]),
            ],
        };
        let own = vec![cand(100, 4, vec![]), cand(101, 1, vec![])];
        let a = select_exchange(&request, 10, &own, &config(2));
        let b = select_exchange_with_cost(&request, 10, &own, &config(2), 0);
        assert_eq!(a, b);
    }

    #[test]
    fn penalty_vetoes_rounds_that_cannot_amortize() {
        // Selection picks [1, 2] with total gain 5 + 3 = 8 over 2 moves.
        // The veto compares the whole round: at penalty 3 the tax is 6 < 8
        // (kept, group intact — no per-candidate splitting); at penalty 4
        // the tax is 8, not strictly beaten, and nothing moves.
        let request = ExchangeRequest {
            from: 0,
            from_size: 10,
            candidates: vec![cand(1, 5, vec![]), cand(2, 3, vec![])],
        };
        let outcome = select_exchange_with_cost(&request, 10, &[], &config(4), 3);
        assert_eq!(outcome.accepted, vec![1, 2]);
        assert_eq!(outcome.gain, 8);
        let outcome = select_exchange_with_cost(&request, 10, &[], &config(4), 4);
        assert!(outcome.is_empty());
        assert_eq!(outcome.gain, 0);
    }

    #[test]
    fn gain_counts_updated_scores() {
        // Vertex 2's score rises from 4 to 16 once its heavy peer moves;
        // the round's gain is 20 + 16 = 36, so the veto threshold sits at
        // penalty 18 (2 moves), not at the naive 12 from initial scores.
        let request = ExchangeRequest {
            from: 0,
            from_size: 10,
            candidates: vec![cand(1, 20, vec![(2, 6)]), cand(2, 4, vec![(1, 6)])],
        };
        let outcome = select_exchange_with_cost(&request, 10, &[], &config(10), 17);
        assert_eq!(outcome.accepted, vec![1, 2]);
        assert_eq!(outcome.gain, 36);
        let outcome = select_exchange_with_cost(&request, 10, &[], &config(10), 18);
        assert!(outcome.is_empty());
    }

    #[test]
    fn deterministic_tie_break() {
        let request = ExchangeRequest {
            from: 0,
            from_size: 10,
            candidates: vec![cand(5, 7, vec![]), cand(3, 7, vec![])],
        };
        let outcome = select_exchange(&request, 10, &[], &config(10));
        assert_eq!(outcome.accepted, vec![3, 5], "lower vertex id first");
    }
}
