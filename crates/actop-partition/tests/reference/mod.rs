//! Earlier implementations, kept verbatim as references for the
//! differential tests: the nested partition view every runtime backend
//! built before the flat `PartitionView`, and the original scoring and
//! candidate-set selection over it.

#![allow(dead_code)]

use std::hash::Hash;

use actop_partition::ScoredVertex;
use actop_sketch::fxmap::{fx_map_with_capacity, FxHashMap};
use actop_sketch::SpaceSaving;

/// The nested view both backends' partition views used to build
/// (`Cluster::partition_view` and its sharded twin): `server`'s hosted
/// vertices with their sampled edges, grouped through a hash map, sorted
/// by vertex, each vertex's edges sorted by peer. Verbatim but for the
/// vertex type and the `locate` closure standing in for the directory.
pub fn partition_view<V, F>(
    sketch: &SpaceSaving<(V, V)>,
    server: usize,
    mut locate: F,
) -> Vec<(V, Vec<(V, u64)>)>
where
    V: Copy + Eq + Hash + Ord,
    F: FnMut(&V) -> Option<usize>,
{
    let mut by_actor: FxHashMap<V, Vec<(V, u64)>> = fx_map_with_capacity(sketch.len());
    for entry in sketch.iter_entries() {
        let (local, peer) = entry.item;
        if locate(&local) == Some(server) {
            by_actor.entry(local).or_default().push((peer, entry.count));
        }
    }
    let mut out: Vec<(V, Vec<(V, u64)>)> = by_actor.into_iter().collect();
    out.sort_unstable_by_key(|(a, _)| *a);
    for (_, edges) in &mut out {
        edges.sort_unstable_by_key(|&(peer, _)| peer);
    }
    out
}

/// The pre-optimization transfer scores, verbatim.
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

/// The pre-optimization candidate-set selection over the nested view,
/// verbatim.
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
