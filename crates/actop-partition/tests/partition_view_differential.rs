//! Differential test holding the flat `PartitionView` builder equal to the
//! nested view both runtime backends built before it (kept verbatim in
//! `reference/`), over pair-keyed Space-Saving sketches shaped like a
//! server's edge sketch: offers, per-actor drops (a migration's
//! `retain`) and aging (`scale`), with random placements and unknown
//! peers.
//!
//! * The `Full` view equals the reference vertex by vertex and edge by
//!   edge, in order, and the `Movable` view equals the reference rows
//!   with a sampled edge to a peer placed on another server.
//! * Candidate sets over the `Movable` view equal the reference
//!   candidate sets over the full nested view, for every home server and
//!   every target.

mod reference;

use actop_partition::{candidate_set, candidate_set_toward, PartitionView, ViewScope};
use actop_sketch::SpaceSaving;
use proptest::prelude::*;

/// Vertex ids are drawn from `0..VERTICES`.
const VERTICES: u8 = 24;

/// One sketch step.
#[derive(Debug, Clone)]
enum Step {
    /// `offer((local, peer), weight)`.
    Offer(u8, u8, u8),
    /// Drop every edge of one local vertex, as a migration does.
    RetainLocal(u8),
    /// Halve every counter, as the partition agent's aging does.
    Scale,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u8..16, 0..VERTICES, 0..VERTICES, 1u8..9).prop_map(|(kind, a, b, w)| match kind {
        0..=12 => Step::Offer(a, b, w),
        13 | 14 => Step::RetainLocal(a),
        _ => Step::Scale,
    })
}

/// A small sketch (so offers evict) driven through `steps`.
fn sketch_after(capacity: usize, steps: &[Step]) -> SpaceSaving<(u8, u8)> {
    let mut sketch = SpaceSaving::new(capacity);
    for step in steps {
        match *step {
            Step::Offer(a, b, w) => sketch.offer((a, b), u64::from(w)),
            Step::RetainLocal(a) => sketch.retain(|&(local, _)| local != a),
            Step::Scale => sketch.scale(0.5),
        }
    }
    sketch
}

/// Places vertex `v` by a per-case table; `None` entries are unknown
/// vertices, and entries at or past `servers` exercise the out-of-range
/// guard of the scores.
fn arb_placement() -> impl Strategy<Value = Vec<Option<usize>>> {
    proptest::collection::vec(proptest::option::of(0usize..7), VERTICES as usize)
}

/// Fills `out` from the sketch, as both backends do.
fn fill(
    out: &mut PartitionView<u8>,
    sketch: &SpaceSaving<(u8, u8)>,
    server: usize,
    scope: ViewScope,
    placement: &[Option<usize>],
) {
    let entries = sketch.iter_entries().map(|e| (e.item.0, e.item.1, e.count));
    out.fill(server, scope, entries, |v| placement[*v as usize]);
}

fn rows(view: &PartitionView<u8>) -> Vec<(u8, Vec<(u8, u64)>)> {
    view.iter().map(|(v, edges)| (v, edges.to_vec())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// The full view equals the reference nested view on every server,
    /// and the movable view its rows with a remote peer, all refilled in
    /// one reused buffer.
    #[test]
    fn views_match_reference(
        capacity in 4usize..48,
        steps in proptest::collection::vec(arb_step(), 0..160),
        placement in arb_placement(),
        servers in 1usize..7,
    ) {
        let sketch = sketch_after(capacity, &steps);
        let locate = |v: &u8| placement[*v as usize];
        let mut view = PartitionView::new();
        for server in 0..servers {
            let want = reference::partition_view(&sketch, server, locate);
            fill(&mut view, &sketch, server, ViewScope::Full, &placement);
            prop_assert_eq!(rows(&view), want.clone(), "full, server {}", server);

            let remote = |peer: &u8| placement[*peer as usize].is_some_and(|s| s != server);
            let movable: Vec<_> = want
                .into_iter()
                .filter(|(_, edges)| edges.iter().any(|(peer, _)| remote(peer)))
                .collect();
            fill(&mut view, &sketch, server, ViewScope::Movable, &placement);
            prop_assert_eq!(rows(&view), movable, "movable, server {}", server);
        }
    }

    /// Candidate sets over the movable view equal the reference sets over
    /// the full nested view, toward every target from every home.
    #[test]
    fn movable_candidate_sets_match_reference(
        capacity in 4usize..48,
        steps in proptest::collection::vec(arb_step(), 0..160),
        placement in arb_placement(),
        servers in 1usize..7,
        k in 0usize..10,
    ) {
        let sketch = sketch_after(capacity, &steps);
        let locate = |v: &u8| placement[*v as usize];
        let mut view = PartitionView::new();
        for home in 0..servers {
            let nested = reference::partition_view(&sketch, home, locate);
            let want = reference::candidate_set(&nested, home, servers, k, locate);
            fill(&mut view, &sketch, home, ViewScope::Movable, &placement);
            prop_assert!(view.len() <= nested.len());
            let got = candidate_set(&view, home, servers, k, locate);
            prop_assert_eq!(&got, &want, "home {}", home);
            for (target, want) in want.iter().enumerate() {
                let got = candidate_set_toward(&view, home, servers, k, target, locate);
                prop_assert_eq!(&got, want, "home {} target {}", home, target);
            }
        }
    }
}
