//! The hot-actor replication subsystem, written once for both backends:
//! the controller round, the rendezvous choice behind split targets and
//! read routing, the worker-stage replica admission, the replicas a crash
//! drops, and the accounting of each lifecycle event. Each backend keeps
//! only its schedule and cooldown scope (DESIGN.md §12, §14).

use std::ops::Range;

use actop_partition::{decide_split, DenseDirectory, SplitDecision};
use actop_sim::{mix64, Nanos};
use actop_sketch::fxmap::FxHashMap;
use actop_trace::HopKind;

use crate::agent::AgentHost;
use crate::config::ReplicationConfig;
use crate::ids::ActorId;
use crate::metrics::Accounting;

/// `mix64(x ^ y·φ)`, the one hash behind every rendezvous salt and score.
#[inline]
pub(crate) fn hash(x: u64, y: u64) -> u64 {
    mix64(x ^ y.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The candidate scoring highest under `salt`: a pure hash, so a read
/// salted by its request and actor lands on a stable activation (forward
/// chains terminate), reads spread near-uniformly, and no RNG stream is
/// drawn. `mix64` is a bijection, so distinct candidates never tie and
/// candidate order does not matter.
#[inline]
pub(crate) fn rendezvous(salt: u64, candidates: impl IntoIterator<Item = u32>) -> Option<u32> {
    candidates
        .into_iter()
        .max_by_key(|&c| hash(salt, u64::from(c) + 1))
}

/// One controller round over `servers` in id order. Each live server's
/// candidates outside their cooldown are split to the rendezvous target
/// (keyed by the replica count; not the primary, not a replica, not
/// distrusted by the primary, tested in that order) or lose their highest
/// replica, and the decided ones start a cooldown.
pub(crate) fn replication_round(
    host: &mut impl AgentHost,
    servers: Range<usize>,
    rep: &ReplicationConfig,
    cooldowns: &mut FxHashMap<u64, Nanos>,
) {
    let now = host.now();
    let n = host.servers() as u32;
    let window_capacity_ns = rep.check_interval.as_nanos() * host.cores_per_server() as u64;
    for server in servers {
        if host.is_failed(server) {
            continue; // Sketch state died with the process; nothing to scan.
        }
        for (a, observed) in host.take_split_candidates(server, rep.min_load_ns) {
            if cooldowns.get(&a).is_some_and(|&until| now < until) {
                continue;
            }
            let replicas = host.directory().replicas_of(a).len();
            match decide_split(&rep.thresholds, observed, window_capacity_ns, replicas) {
                SplitDecision::Split => {
                    let eligible = (0..n).filter(|&c| {
                        let c = c as usize;
                        !(c == server
                            || host.directory().replica_hosted(a, c)
                            || host.suspects(server, c))
                    });
                    if let Some(to) = rendezvous(hash(a, replicas as u64 + 1), eligible) {
                        host.split(ActorId(a), to as usize);
                        cooldowns.insert(a, now + rep.cooldown);
                    }
                }
                SplitDecision::Drop => {
                    if let Some(&victim) = host.directory().replicas_of(a).last() {
                        host.drop_replica(ActorId(a), victim as usize);
                        cooldowns.insert(a, now + rep.cooldown);
                    }
                }
                SplitDecision::Hold => {}
            }
        }
    }
}

/// Replica admission at the worker stage of `server`, which does not
/// host `actor`'s primary: `None` without a replica there, else whether
/// the replica executes the request (a read) or forwards it (a write).
#[inline]
pub(crate) fn replica_admits(
    rep: Option<&ReplicationConfig>,
    dir: &DenseDirectory,
    actor: u64,
    server: usize,
    tag: u32,
) -> Option<bool> {
    let rep = rep?;
    dir.replica_hosted(actor, server)
        .then(|| rep.is_read(u64::from(tag)))
}

/// The `(actor, replica server)` pairs a crash of `server` drops, in
/// order: the replicas it hosted, then every replica of each actor it
/// primaried (the primary's deactivation discards the whole set).
pub(crate) fn crash_drops(dir: &DenseDirectory, server: usize) -> Vec<(u64, usize)> {
    if !dir.has_replicas() {
        return Vec::new();
    }
    let hosted = dir.replicas_on(server).into_iter().map(|a| (a, server));
    let primaried = dir.vertices_on(server).into_iter().flat_map(|a| {
        let replicas = dir.replicas_of(a).iter();
        replicas.map(move |&r| (a, r as usize))
    });
    hosted.chain(primaried).collect()
}

/// A split of `actor` committed (`request` the actor, `server` the
/// primary, `aux` the replica's server).
pub(crate) fn note_split(h: &mut impl Accounting, now: Nanos, actor: u64, primary: u32, to: u32) {
    h.metrics().splits += 1;
    h.instant(actor, HopKind::Split, primary, to.into(), now);
}

/// A replica of `actor` dropped (the `Split` span's field conventions).
pub(crate) fn note_replica_drop(
    h: &mut impl Accounting,
    now: Nanos,
    actor: u64,
    primary: u32,
    replica: u32,
) {
    h.metrics().replica_drops += 1;
    h.instant(actor, HopKind::ReplicaDrop, primary, replica.into(), now);
}

/// A request reached a replica of `actor` on `server`: a read (counted,
/// and traced as `ReplicaRead`) or a write (counted).
#[inline]
pub(crate) fn note_replica_request(
    h: &mut impl Accounting,
    now: Nanos,
    server: usize,
    request: u64,
    actor: u64,
    read: bool,
) {
    if read {
        h.metrics().replica_reads += 1;
        h.instant(request, HopKind::ReplicaRead, server as u32, actor, now);
    } else {
        h.metrics().replica_writes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The split target's old form: a loop keeping the first strictly
    /// higher score.
    fn first_max(salt: u64, candidates: &[u32]) -> Option<u32> {
        let mut best: Option<(u64, u32)> = None;
        for &c in candidates {
            let score = mix64(salt ^ (u64::from(c) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, c));
            }
        }
        best.map(|(_, c)| c)
    }

    /// The read routing's old form: `max_by_key`, which keeps the last of
    /// equal maxima.
    fn last_max(salt: u64, candidates: &[u32]) -> Option<u32> {
        candidates
            .iter()
            .copied()
            .max_by_key(|&c| mix64(salt ^ (u64::from(c) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    #[test]
    fn rendezvous_matches_both_old_forms() {
        for i in 0..2_000u64 {
            let salt = mix64(i);
            let len = (i % 12) as usize;
            let mut candidates: Vec<u32> = (0..len as u64)
                .map(|j| (mix64(i << 8 | j) % 64) as u32)
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            let got = rendezvous(salt, candidates.iter().copied());
            assert_eq!(got, first_max(salt, &candidates), "salt {salt:#x}");
            assert_eq!(got, last_max(salt, &candidates), "salt {salt:#x}");
            // Order does not matter: reversed candidates pick the same.
            let reversed = rendezvous(salt, candidates.iter().rev().copied());
            assert_eq!(got, reversed);
        }
        assert_eq!(rendezvous(1, []), None);
    }

    #[test]
    fn salts_match_the_old_expressions() {
        let (a, replicas, request) = (77u64, 2u64, 123_456u64);
        assert_eq!(
            hash(a, replicas + 1),
            mix64(a ^ (replicas + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        );
        assert_eq!(
            hash(a, request),
            mix64(request.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ a)
        );
    }

    #[test]
    fn crash_drops_list_hosted_replicas_then_primaried_sets() {
        let mut dir = DenseDirectory::new(4);
        for (actor, primary) in [(3, 1), (5, 0), (9, 2), (12, 1)] {
            dir.place(actor, primary);
        }
        dir.add_replica(5, 1);
        dir.add_replica(9, 1);
        dir.add_replica(3, 0);
        dir.add_replica(3, 3);
        dir.add_replica(12, 2);
        assert_eq!(
            crash_drops(&dir, 1),
            [(5, 1), (9, 1), (3, 0), (3, 3), (12, 2)]
        );
        assert!(crash_drops(&DenseDirectory::new(4), 1).is_empty());
    }
}
