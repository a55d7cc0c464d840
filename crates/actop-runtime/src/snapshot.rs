//! The snapshot subsystem's accounting, written once for both backends:
//! each outcome of [`actop_snapshot::SnapshotState`] becomes
//! [`ClusterMetrics`](crate::ClusterMetrics) counts, telemetry and
//! lifecycle spans, in causal order, at an [`Accounting`] host — the
//! sequential `Cluster`, whose spans go through its cost-attribution
//! wrapper, or a shard.

use actop_sim::Nanos;
use actop_snapshot::{SnapshotConfig, Swept, Touch};
use actop_trace::HopKind;

use crate::metrics::Accounting;

/// A round began (`Some(id)`: a `SnapBegin` span whose `request` carries
/// the round id) or was skipped at coordinator `coord`.
pub(crate) fn note_begin(h: &mut impl Accounting, now: Nanos, coord: u32, begun: Option<u64>) {
    let Some(id) = begun else {
        h.metrics().snap_rounds_skipped += 1;
        return;
    };
    h.metrics().snap_rounds_started += 1;
    h.instant(id, HopKind::SnapBegin, coord, 0, now);
}

/// `server` joined the cut of round `id`.
pub(crate) fn note_marker(h: &mut impl Accounting, now: Nanos, id: u64, server: usize) {
    h.instant(id, HopKind::SnapMarker, server as u32, 0, now);
}

/// A touch of `actor` at `server`. Lifecycle spans in causal order —
/// restore before capture before the write itself, all at the touch
/// timestamp; `aux` packs (round, version) for restores and captures.
#[inline]
pub(crate) fn note_touch(
    h: &mut impl Accounting,
    cfg: &SnapshotConfig,
    now: Nanos,
    server: usize,
    actor: u64,
    touch: &Touch,
) {
    let Touch::Proceed(t) = touch else {
        h.metrics().restores_deferred += 1;
        return;
    };
    let m = h.metrics();
    if let Some(plan) = t.restore {
        m.restores += 1;
        m.restore_replayed += plan.replayed;
    }
    if t.capture.is_some() {
        m.snap_captures += 1;
        m.snap_bytes += cfg.state_bytes;
    }
    if t.write {
        m.state_writes += 1;
    }
    let server = server as u32;
    if let Some(plan) = t.restore {
        let aux = (plan.round << 40) | plan.version;
        h.instant(actor, HopKind::Restore, server, aux, now);
    }
    if let Some((round, pre)) = t.capture {
        let aux = (round << 40) | pre.version;
        h.instant(actor, HopKind::SnapCapture, server, aux, now);
    }
    if let Some(cell) = t.cell.filter(|_| t.write) {
        h.instant(actor, HopKind::StateWrite, server, cell.version, now);
    }
}

/// A round committed, with the stragglers its sweep captured: its
/// counts, its duration, a `SnapCapture` span per straggler (`request`
/// the actor, `aux` packing round and version) and the `SnapComplete`
/// span at the coordinator (`aux` the captures committed).
pub(crate) fn note_sweep(
    h: &mut impl Accounting,
    cfg: &SnapshotConfig,
    now: Nanos,
    (round, swept): &Swept,
) {
    let m = h.metrics();
    m.snap_rounds_completed += 1;
    m.snap_captures += swept.len() as u64;
    m.snap_bytes += swept.len() as u64 * cfg.state_bytes;
    m.snap_inflight += round.in_flight();
    if let Some(obs) = h.obs() {
        obs.observe_snap_round(now.saturating_sub(round.begun_at).as_nanos());
    }
    for &(actor, host, version) in swept {
        let aux = (round.id << 40) | version;
        h.instant(actor, HopKind::SnapCapture, host, aux, now);
    }
    let committed = round.captured.len() as u64;
    h.instant(
        round.id,
        HopKind::SnapComplete,
        cfg.store_server,
        committed,
        now,
    );
}

/// A crash of `server` aborted round `id` (`request` carries the round,
/// `server` the crash that killed it).
pub(crate) fn note_abort(h: &mut impl Accounting, now: Nanos, server: usize, id: u64) {
    h.metrics().snap_rounds_aborted += 1;
    h.instant(id, HopKind::SnapAbort, server as u32, 0, now);
}
