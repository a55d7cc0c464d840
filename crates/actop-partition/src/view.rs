//! The flat partition view a control round reads (§4.2).
//!
//! Each server's sampled heavy-edge list is grouped by local vertex into
//! a compressed-sparse-row [`PartitionView`]: the vertices sorted, one
//! `u32` end offset per vertex, and the `(peer, count)` edges of every
//! vertex sorted by peer, all in buffers the owner reuses across rounds.
//! One builder, [`PartitionView::fill`], turns `(local, peer, count)`
//! sketch entries into a view for both runtime backends.
//!
//! # Scopes
//!
//! [`ViewScope::Full`] keeps every vertex. [`ViewScope::Movable`] keeps
//! only vertices with at least one sampled edge to a peer located on
//! another server. That filter is exact for candidate sets: a dropped
//! vertex has no remote weight toward any server, so its transfer score
//! `remote − local` is at most 0 everywhere and
//! [`crate::score::candidate_set`] never emits it. Candidates rank by
//! (score, vertex, input position), and dropping rows keeps the relative
//! order of the rest, so no order changes either.

/// Which vertices a view keeps. Chosen by the policy that reads the view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewScope {
    /// Every hosted vertex, in vertex order (stream, dynamic, centralized).
    Full,
    /// Only hosted vertices with a sampled edge to a peer located on
    /// another server: the only ones a candidate set can contain
    /// (exchange, one-sided).
    Movable,
}

impl ViewScope {
    /// Whether a vertex on `home` with these edges belongs in the view.
    pub(crate) fn keeps<V, F>(self, edges: &[(V, u64)], home: usize, mut locate: F) -> bool
    where
        F: FnMut(&V) -> Option<usize>,
    {
        match self {
            ViewScope::Full => true,
            ViewScope::Movable => edges.iter().any(|(peer, _)| is_remote(locate(peer), home)),
        }
    }
}

/// A peer counts as remote when it is located, and not on `home`.
fn is_remote(located: Option<usize>, home: usize) -> bool {
    located.is_some_and(|s| s != home)
}

/// One server's sampled partition view in compressed-sparse-row form.
///
/// Vertex `i` is `vertices[i]`; its edges are
/// `edges[ends[i - 1]..ends[i]]` (from 0 for `i == 0`). Clearing keeps
/// every buffer's allocation, so a view refilled each round allocates
/// only while it grows.
#[derive(Debug, Clone)]
pub struct PartitionView<V> {
    vertices: Vec<V>,
    ends: Vec<u32>,
    edges: Vec<(V, u64)>,
    /// The builder's reused sort buffer of `(local, peer, count)` rows.
    rows: Vec<(V, V, u64)>,
    /// The builder's reused list of movable local vertices.
    movable: Vec<V>,
}

impl<V> Default for PartitionView<V> {
    fn default() -> Self {
        PartitionView {
            vertices: Vec::new(),
            ends: Vec::new(),
            edges: Vec::new(),
            rows: Vec::new(),
            movable: Vec::new(),
        }
    }
}

impl<V: Copy + Ord> PartitionView<V> {
    /// An empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when the view holds no vertex.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Number of edges over all vertices.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The `i`-th vertex.
    pub fn vertex(&self, i: usize) -> V {
        self.vertices[i]
    }

    /// The sampled `(peer, count)` edges of the `i`-th vertex.
    pub fn edges(&self, i: usize) -> &[(V, u64)] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.edges[start..self.ends[i] as usize]
    }

    /// Every vertex with its edges, in view order.
    pub fn iter(&self) -> impl Iterator<Item = (V, &[(V, u64)])> + '_ {
        (0..self.len()).map(|i| (self.vertex(i), self.edges(i)))
    }

    /// Drops every vertex, keeping the allocations.
    pub fn clear(&mut self) {
        self.vertices.clear();
        self.ends.clear();
        self.edges.clear();
    }

    /// Appends one vertex with its edges. The caller chooses the order;
    /// [`PartitionView::fill`] is the builder that sorts.
    pub fn push(&mut self, vertex: V, edges: &[(V, u64)]) {
        self.edges.extend_from_slice(edges);
        self.vertices.push(vertex);
        self.ends.push(edge_end(self.edges.len()));
    }

    /// Refills the view with `server`'s vertices from sampled
    /// `(local, peer, count)` entries. An entry counts only while `locate`
    /// places its local vertex on `server`; `scope` then decides which
    /// vertices stay (see [`ViewScope`]). Vertices come out sorted, and
    /// each vertex's edges sorted by peer (then count, so duplicate pairs
    /// still order deterministically).
    pub fn fill<I, F>(&mut self, server: usize, scope: ViewScope, entries: I, mut locate: F)
    where
        I: IntoIterator<Item = (V, V, u64)>,
        F: FnMut(&V) -> Option<usize>,
    {
        self.clear();
        self.rows.clear();
        self.movable.clear();
        for (local, peer, count) in entries {
            if locate(&local) != Some(server) {
                continue;
            }
            if scope == ViewScope::Movable && is_remote(locate(&peer), server) {
                self.movable.push(local);
            }
            self.rows.push((local, peer, count));
        }
        if scope == ViewScope::Movable {
            // Only the rows of movable vertices are worth sorting.
            self.movable.sort_unstable();
            self.movable.dedup();
            let movable = &self.movable;
            self.rows
                .retain(|(local, _, _)| movable.binary_search(local).is_ok());
        }
        self.rows.sort_unstable();
        for group in self.rows.chunk_by(|a, b| a.0 == b.0) {
            self.edges
                .extend(group.iter().map(|&(_, peer, count)| (peer, count)));
            self.vertices.push(group[0].0);
            self.ends.push(edge_end(self.edges.len()));
        }
    }
}

/// A row's end offset.
///
/// # Panics
///
/// Panics if a view holds more than `u32::MAX` edges.
fn edge_end(len: usize) -> u32 {
    u32::try_from(len).expect("view edge count fits in u32")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Peers `< 10` live on server 0, `10..20` on server 1, the rest
    /// nowhere.
    fn locate(v: &u32) -> Option<usize> {
        match v {
            0..=9 => Some(0),
            10..=19 => Some(1),
            _ => None,
        }
    }

    fn rows(view: &PartitionView<u32>) -> Vec<(u32, Vec<(u32, u64)>)> {
        view.iter().map(|(v, e)| (v, e.to_vec())).collect()
    }

    const ENTRIES: [(u32, u32, u64); 7] = [
        (2, 11, 4),
        (1, 3, 5),
        (2, 1, 6),
        (12, 2, 9), // Local vertex on server 1: never in server 0's view.
        (3, 40, 2), // Unknown peer: not remote.
        (1, 2, 1),
        (2, 0, 3),
    ];

    #[test]
    fn full_view_groups_and_sorts() {
        let mut view = PartitionView::new();
        view.fill(0, ViewScope::Full, ENTRIES, locate);
        assert_eq!(
            rows(&view),
            vec![
                (1, vec![(2, 1), (3, 5)]),
                (2, vec![(0, 3), (1, 6), (11, 4)]),
                (3, vec![(40, 2)]),
            ]
        );
        assert_eq!(view.edge_count(), 6);
    }

    #[test]
    fn movable_view_keeps_only_vertices_with_a_remote_peer() {
        let mut view = PartitionView::new();
        view.fill(0, ViewScope::Movable, ENTRIES, locate);
        assert_eq!(rows(&view), vec![(2, vec![(0, 3), (1, 6), (11, 4)])]);
        view.fill(1, ViewScope::Movable, ENTRIES, locate);
        assert_eq!(rows(&view), vec![(12, vec![(2, 9)])]);
    }

    #[test]
    fn refill_reuses_the_buffers() {
        // Once grown, a refill moves no buffer: nothing is allocated.
        fn buffers(view: &PartitionView<u32>) -> [(usize, usize); 5] {
            [
                (view.vertices.as_ptr() as usize, view.vertices.capacity()),
                (view.ends.as_ptr() as usize, view.ends.capacity()),
                (view.edges.as_ptr() as usize, view.edges.capacity()),
                (view.rows.as_ptr() as usize, view.rows.capacity()),
                (view.movable.as_ptr() as usize, view.movable.capacity()),
            ]
        }
        let mut view = PartitionView::new();
        view.fill(0, ViewScope::Full, ENTRIES, locate);
        view.fill(1, ViewScope::Movable, ENTRIES, locate);
        let grown = buffers(&view);
        for server in [0, 1] {
            for scope in [ViewScope::Full, ViewScope::Movable] {
                view.fill(server, scope, ENTRIES, locate);
                assert_eq!(buffers(&view), grown);
            }
        }
        view.fill(0, ViewScope::Full, [], locate);
        assert!(view.is_empty());
        assert_eq!(view.edge_count(), 0);
    }

    #[test]
    fn push_appends_rows_in_caller_order() {
        let mut view = PartitionView::new();
        view.push(5u32, &[(1, 2)]);
        view.push(3, &[]);
        view.push(5, &[(7, 1), (0, 4)]);
        assert_eq!(
            rows(&view),
            vec![(5, vec![(1, 2)]), (3, vec![]), (5, vec![(7, 1), (0, 4)])]
        );
    }

    #[test]
    fn scope_keeps_matches_the_builder_filter() {
        let edges = [(3u32, 1u64), (40, 1)];
        assert!(ViewScope::Full.keeps(&edges, 0, locate));
        assert!(!ViewScope::Movable.keeps(&edges, 0, locate));
        assert!(ViewScope::Movable.keeps(&edges, 1, locate));
    }
}
