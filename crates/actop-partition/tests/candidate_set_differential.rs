//! Differential test holding the allocation-lean `candidate_set` (one
//! reused score buffer, `(score, index)` ranking, edges cloned only for
//! the top `k`) and the single-target `candidate_set_toward` equal to the
//! original `candidate_set`, kept verbatim below as the reference.
//! Candidate sets decide which actors migrate, so any drift in vertex,
//! score, edges or order would change every replay.

use std::hash::Hash;

use actop_partition::{candidate_set, candidate_set_toward, ScoredVertex};
use proptest::prelude::*;

/// The pre-optimization scoring and selection, verbatim.
mod reference {
    use super::*;

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
        let mut local_sum = 0i64;
        for (peer, w) in edges {
            let Some(server) = locate(peer) else {
                continue;
            };
            if server == home {
                local_sum += *w as i64;
            } else if server < servers {
                per_server[server] += *w as i64;
            }
        }
        for (q, score) in per_server.iter_mut().enumerate() {
            if q == home {
                *score = 0;
            } else {
                *score -= local_sum;
            }
        }
        per_server
    }

    pub fn candidate_set<V, F>(
        vertices: &[(V, Vec<(V, u64)>)],
        home: usize,
        servers: usize,
        k: usize,
        mut locate: F,
    ) -> Vec<Vec<ScoredVertex<V>>>
    where
        V: Copy + Eq + Hash + Ord,
        F: FnMut(&V) -> Option<usize>,
    {
        let mut per_server: Vec<Vec<ScoredVertex<V>>> = vec![Vec::new(); servers];
        for (vertex, edges) in vertices {
            let scores = transfer_scores(edges, home, servers, &mut locate);
            for (q, &score) in scores.iter().enumerate() {
                if q == home || score <= 0 {
                    continue;
                }
                per_server[q].push(ScoredVertex {
                    vertex: *vertex,
                    score,
                    edges: edges.clone(),
                });
            }
        }
        for candidates in &mut per_server {
            candidates.sort_by(|a, b| b.score.cmp(&a.score).then(a.vertex.cmp(&b.vertex)));
            candidates.truncate(k);
        }
        per_server
    }
}

/// A random local view: vertex ids drawn from a small range (so duplicate
/// vertices and score ties are common), each with up to 6 weighted edges
/// to peers in `0..24`.
fn arb_view() -> impl Strategy<Value = Vec<(u8, Vec<(u8, u64)>)>> {
    proptest::collection::vec(
        (0u8..16, proptest::collection::vec((0u8..24, 1u64..6), 0..6)),
        0..40,
    )
}

/// Places peer `p` by a per-case table; `None` entries are unknown peers,
/// and entries at or past `servers` exercise the out-of-range guard.
fn arb_placement() -> impl Strategy<Value = Vec<Option<usize>>> {
    proptest::collection::vec(proptest::option::of(0usize..7), 24..25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `candidate_set` equals the reference per server: same vertices,
    /// scores, edges, and order (score descending, then vertex).
    #[test]
    fn candidate_set_matches_reference(
        view in arb_view(),
        placement in arb_placement(),
        servers in 1usize..7,
        home_pick in 0usize..7,
        k in 0usize..10,
    ) {
        let home = home_pick % servers;
        let locate = |p: &u8| placement[*p as usize];
        let want = reference::candidate_set(&view, home, servers, k, locate);
        let got = candidate_set(&view, home, servers, k, locate);
        prop_assert_eq!(got, want);
    }

    /// `candidate_set_toward(.., t)` equals `reference(..).swap_remove(t)`
    /// for every target `t`, including `home` (always empty).
    #[test]
    fn candidate_set_toward_matches_reference(
        view in arb_view(),
        placement in arb_placement(),
        servers in 1usize..7,
        home_pick in 0usize..7,
        k in 0usize..10,
    ) {
        let home = home_pick % servers;
        let locate = |p: &u8| placement[*p as usize];
        for target in 0..servers {
            let want = reference::candidate_set(&view, home, servers, k, locate).swap_remove(target);
            let got = candidate_set_toward(&view, home, servers, k, target, locate);
            prop_assert_eq!(got, want, "target {}", target);
        }
    }
}
