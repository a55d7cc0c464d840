//! Differential test holding the allocation-lean `candidate_set` (one
//! reused score buffer, `(score, index)` ranking, edges copied only for
//! the top `k`, read from a flat `PartitionView`) and the single-target
//! `candidate_set_toward` equal to the original `candidate_set` over the
//! nested view, kept verbatim below as the reference.
//! Candidate sets decide which actors migrate, so any drift in vertex,
//! score, edges or order would change every replay.

mod reference;

use actop_partition::{candidate_set, candidate_set_toward, PartitionView};
use proptest::prelude::*;

/// A random local view: vertex ids drawn from a small range (so duplicate
/// vertices and score ties are common), each with up to 6 weighted edges
/// to peers in `0..24`.
fn arb_view() -> impl Strategy<Value = Vec<(u8, Vec<(u8, u64)>)>> {
    proptest::collection::vec(
        (0u8..16, proptest::collection::vec((0u8..24, 1u64..6), 0..6)),
        0..40,
    )
}

/// The same rows, duplicates and order included, as a flat view.
fn flat(view: &[(u8, Vec<(u8, u64)>)]) -> PartitionView<u8> {
    let mut flat = PartitionView::new();
    for (v, edges) in view {
        flat.push(*v, edges);
    }
    flat
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
        let got = candidate_set(&flat(&view), home, servers, k, locate);
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
        let flat = flat(&view);
        for target in 0..servers {
            let want = reference::candidate_set(&view, home, servers, k, locate).swap_remove(target);
            let got = candidate_set_toward(&flat, home, servers, k, target, locate);
            prop_assert_eq!(got, want, "target {}", target);
        }
    }
}
