//! Asynchronous consistent snapshots of the actor graph, with stateful
//! crash recovery.
//!
//! The runtime gives each stateful actor a versioned [`StateCell`]: a
//! monotone transition counter plus a value that is a deterministic fold
//! of every write applied so far. Writes are journaled to a durable
//! [`SnapshotStore`] (a write-ahead log) the moment they execute;
//! snapshot rounds — coordinator-initiated marker rounds in the
//! Chandy-Lamport style, captured lazily on the first post-marker write
//! so service is never stalled — periodically checkpoint each actor's
//! state and truncate its journal, bounding replay length. On a crash,
//! re-placed actors rehydrate from the last *complete* round plus a
//! journal replay cursor; because the journal is durable, recovery loses
//! and duplicates exactly zero state transitions (the invariant
//! `actop-verify` checks over the trace).
//!
//! This crate is backend-agnostic plumbing: the store, the cells, the
//! round bookkeeping, and the per-link marker-sequencing accounting. The
//! engine wiring (marker events, lazy capture hooks, restore latency)
//! lives with each backend in `actop-runtime`.

use actop_sim::{mix64, Nanos};
use actop_sketch::{FxHashMap, FxHashSet};

/// Snapshot/restore tuning. `None` on the runtime config (the default)
/// disables the whole subsystem and keeps every hook at a single branch,
/// so snapshot-off runs stay byte-identical to builds without it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotConfig {
    /// Sim-time between coordinator-initiated snapshot rounds.
    pub interval: Nanos,
    /// How long a round stays open for lazy captures before the sweep
    /// captures the untouched remainder and commits. Must be shorter than
    /// `interval` so rounds never overlap.
    pub capture_window: Nanos,
    /// Bitmask of application tags that mutate actor state: bit `t` set
    /// means requests with `tag == t` advance the target's state cell.
    /// Tags ≥ 64 never mutate state. Must be disjoint from
    /// `ReplicationConfig::read_tags` when both subsystems are on.
    pub write_tags: u64,
    /// Serialized size of one actor's captured state, bytes (drives the
    /// bytes-captured counters).
    pub state_bytes: u64,
    /// CPU cost added to the write that lazily captures an actor's
    /// pre-write state into an open round.
    pub capture_cpu_ns: f64,
    /// CPU cost added to every state write for the durable journal
    /// append (the WAL tax).
    pub journal_cpu_ns: f64,
    /// Blocking time for a restore's snapshot fetch from the store.
    pub restore_base_ns: u64,
    /// Blocking time per journal entry replayed on top of the snapshot.
    pub restore_per_entry_ns: u64,
    /// Server hosting the snapshot store; also the round coordinator.
    /// The store's *data* is durable (it survives the server's crash),
    /// but while the server is down restores defer with backoff and new
    /// rounds are skipped.
    pub store_server: u32,
    /// First restore-deferral backoff when the store server is down;
    /// attempt `k` waits `base << (k-1)`, capped by `max_restore_backoff`.
    /// Deterministic — no jitter, no RNG draws.
    pub restore_backoff: Nanos,
    /// Restore-deferral backoff cap.
    pub max_restore_backoff: Nanos,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            interval: Nanos::from_secs(2),
            capture_window: Nanos::from_millis(500),
            // Tag 1 is the write tag in both the Halo workload (TAG_POLL:
            // the game actor advances its roster) and the scale workload
            // (TAG_WRITE) — and is disjoint from the default replication
            // read mask (0b1).
            write_tags: 0b10,
            state_bytes: 256,
            capture_cpu_ns: 2_000.0,
            journal_cpu_ns: 400.0,
            restore_base_ns: 200_000,
            restore_per_entry_ns: 2_000,
            store_server: 0,
            restore_backoff: Nanos::from_millis(2),
            max_restore_backoff: Nanos::from_millis(64),
        }
    }
}

impl SnapshotConfig {
    /// True if requests with this tag mutate actor state.
    #[inline]
    pub fn is_write(&self, tag: u64) -> bool {
        tag < 64 && (self.write_tags >> tag) & 1 == 1
    }

    /// Deterministic deferral backoff for restore attempt `attempts`
    /// (1-based), exponential and capped. No jitter: deferral timing must
    /// be identical across engine backends and shard layouts.
    pub fn defer_backoff(&self, attempts: u32) -> Nanos {
        let shift = attempts.saturating_sub(1).min(20);
        Nanos::from_nanos(
            self.restore_backoff
                .as_nanos()
                .saturating_mul(1u64 << shift),
        )
        .min(self.max_restore_backoff)
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on degenerate settings (configurations are build-time
    /// inputs, not runtime data).
    pub fn validate(&self, servers: usize) {
        assert!(self.interval > Nanos::ZERO, "need a snapshot interval");
        assert!(
            Nanos::ZERO < self.capture_window && self.capture_window < self.interval,
            "capture window must fit inside the round interval"
        );
        assert!(self.write_tags != 0, "a snapshot run needs write tags");
        assert!(
            (self.store_server as usize) < servers,
            "store server out of range"
        );
        assert!(self.capture_cpu_ns >= 0.0 && self.journal_cpu_ns >= 0.0);
        assert!(
            self.restore_backoff > Nanos::ZERO && self.max_restore_backoff >= self.restore_backoff,
            "restore backoff must be positive and capped above the base"
        );
    }
}

/// One actor's in-memory durable state: a monotone transition counter and
/// a value that deterministically folds every applied write. Identical
/// write sequences produce identical cells, which is what lets the
/// verifier equate "same version" with "same state".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateCell {
    /// Number of writes applied so far (version 0 = never written).
    pub version: u64,
    /// Deterministic fold of the applied writes.
    pub value: u64,
}

impl StateCell {
    /// Applies one write for `actor`, returning the new version.
    #[inline]
    pub fn apply_write(&mut self, actor: u64) -> u64 {
        self.version += 1;
        self.value = mix64(self.value ^ actor.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.version);
        self.version
    }
}

/// The cells a round's sweep captures when its capture window elapses:
/// every written cell (`version > 0`) the round has not captured yet, as
/// `(actor, host, cell)` in actor order — the deterministic capture and
/// trace order. `cells` maps actor to `(host, cell)`, `captured` is the
/// round's capture set; only the stragglers are sorted, never the whole
/// cell map.
pub fn stragglers(
    cells: &FxHashMap<u64, (u32, StateCell)>,
    captured: &FxHashMap<u64, (u64, u64)>,
) -> Vec<(u64, u32, StateCell)> {
    let mut out: Vec<(u64, u32, StateCell)> = cells
        .iter()
        .filter(|&(actor, &(_, cell))| cell.version > 0 && !captured.contains_key(actor))
        .map(|(&actor, &(host, cell))| (actor, host, cell))
        .collect();
    out.sort_unstable_by_key(|&(actor, ..)| actor);
    out
}

/// One durable journal entry: the cell contents after a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    pub version: u64,
    pub value: u64,
}

/// A committed per-actor snapshot record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapRecord {
    /// The round that captured it (rounds are numbered from 1).
    pub round: u64,
    pub version: u64,
    pub value: u64,
}

/// The outcome of a restore: the state to rehydrate and how much journal
/// had to be replayed on top of the snapshot (the recovery-cost driver).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestorePlan {
    /// The complete round the snapshot came from (0 = journal-only
    /// restore; the actor had writes but no committed snapshot yet).
    pub round: u64,
    pub version: u64,
    pub value: u64,
    /// Journal entries replayed past the snapshot.
    pub replayed: u64,
}

/// The durable snapshot store: per-actor write-ahead journals plus the
/// latest complete per-actor snapshot. The store's contents survive its
/// host server's crash (stable storage); only *access* is lost while the
/// host is down.
#[derive(Debug, Default)]
pub struct SnapshotStore {
    journals: FxHashMap<u64, Vec<JournalEntry>>,
    latest: FxHashMap<u64, SnapRecord>,
    /// Rounds committed as complete, for restore-source validation.
    complete_rounds: Vec<u64>,
}

impl SnapshotStore {
    pub fn new() -> Self {
        SnapshotStore::default()
    }

    /// Appends one write to an actor's durable journal (the WAL step —
    /// happens at write time, unconditionally, which is what makes
    /// recovery exact).
    pub fn append(&mut self, actor: u64, version: u64, value: u64) {
        self.journals
            .entry(actor)
            .or_default()
            .push(JournalEntry { version, value });
    }

    /// Current journal length for an actor (the replay debt a crash of
    /// its host would incur right now).
    pub fn journal_len(&self, actor: u64) -> u64 {
        self.journals.get(&actor).map_or(0, |j| j.len() as u64)
    }

    /// Total journal entries across all actors.
    pub fn total_journal_len(&self) -> u64 {
        self.journals.values().map(|j| j.len() as u64).sum()
    }

    /// Sum of the highest durable version across every actor the store
    /// knows. Versions are per-actor write counters, so this equals the
    /// total number of writes the store can reconstruct — compare with
    /// the cluster's `state_writes` counter to measure state loss (the
    /// WAL makes the difference zero by construction).
    pub fn total_durable_versions(&self) -> u64 {
        let mut actors: FxHashSet<u64> = self.journals.keys().copied().collect();
        actors.extend(self.latest.keys().copied());
        actors
            .into_iter()
            .map(|a| self.restore(a).map_or(0, |p| p.version))
            .sum()
    }

    /// Commits a complete round: each captured actor's snapshot becomes
    /// its restore base and its journal is truncated up to the captured
    /// version. `captures` must be sorted by actor (callers capture in
    /// sorted order for determinism).
    pub fn commit(&mut self, round: u64, captures: &[(u64, u64, u64)]) {
        for &(actor, version, value) in captures {
            self.latest.insert(
                actor,
                SnapRecord {
                    round,
                    version,
                    value,
                },
            );
            if let Some(journal) = self.journals.get_mut(&actor) {
                journal.retain(|e| e.version > version);
                if journal.is_empty() {
                    self.journals.remove(&actor);
                }
            }
        }
        self.complete_rounds.push(round);
    }

    /// Whether a round committed as complete (a legal restore source).
    pub fn round_complete(&self, round: u64) -> bool {
        self.complete_rounds.contains(&round)
    }

    /// Rounds committed as complete, in commit order.
    pub fn complete_rounds(&self) -> &[u64] {
        &self.complete_rounds
    }

    /// The restore plan for an actor: its latest complete snapshot plus a
    /// replay of every journaled write past it. `None` when the store has
    /// nothing for the actor (a fresh actor — no restore needed).
    pub fn restore(&self, actor: u64) -> Option<RestorePlan> {
        let base = self.latest.get(&actor);
        let journal = self.journals.get(&actor);
        let (round, mut version, mut value) = match base {
            Some(rec) => (rec.round, rec.version, rec.value),
            None => (0, 0, 0),
        };
        let mut replayed = 0u64;
        if let Some(entries) = journal {
            for e in entries {
                if e.version > version {
                    version = e.version;
                    value = e.value;
                    replayed += 1;
                }
            }
        }
        if base.is_none() && replayed == 0 {
            return None;
        }
        Some(RestorePlan {
            round,
            version,
            value,
            replayed,
        })
    }
}

/// An in-progress snapshot round: which servers have processed the
/// marker, what has been captured so far, and the per-link send/receive
/// sequence snapshots taken at marker time (the in-flight accounting).
#[derive(Debug)]
pub struct OpenRound {
    /// Round id (numbered from 1).
    pub id: u64,
    /// When the coordinator began the round.
    pub begun_at: Nanos,
    /// Per-server: marker processed (part of the cut).
    pub marked: Vec<bool>,
    /// Captured pre-marker state per actor: `(version, value)`.
    pub captured: FxHashMap<u64, (u64, u64)>,
    /// Bytes captured so far.
    pub bytes: u64,
    /// `sent[src * n + dst]` snapshot taken at `src`'s marker.
    pub sent_at_marker: Vec<u64>,
    /// `recv[src * n + dst]` snapshot taken at `dst`'s marker.
    pub recv_at_marker: Vec<u64>,
}

impl OpenRound {
    pub fn new(id: u64, begun_at: Nanos, servers: usize) -> Self {
        OpenRound {
            id,
            begun_at,
            marked: vec![false; servers],
            captured: FxHashMap::default(),
            bytes: 0,
            sent_at_marker: vec![0; servers * servers],
            recv_at_marker: vec![0; servers * servers],
        }
    }

    /// Records `server`'s marker: snapshot its outbound send counters and
    /// inbound receive counters (per-link marker sequencing). Returns
    /// false if the server was already marked.
    pub fn mark(&mut self, server: usize, sent: &[u64], recv: &[u64]) -> bool {
        if self.marked[server] {
            return false;
        }
        self.marked[server] = true;
        let n = self.marked.len();
        for dst in 0..n {
            self.sent_at_marker[server * n + dst] = sent[server * n + dst];
        }
        for src in 0..n {
            self.recv_at_marker[src * n + server] = recv[src * n + server];
        }
        true
    }

    /// Messages in flight across the cut: per link, sends recorded before
    /// the source's marker minus receives recorded before the
    /// destination's marker (clamped — markers are not FIFO-ordered
    /// against data messages in this model).
    pub fn in_flight(&self) -> u64 {
        self.sent_at_marker
            .iter()
            .zip(&self.recv_at_marker)
            .map(|(&s, &r)| s.saturating_sub(r))
            .sum()
    }

    /// Captures an actor's pre-write state into the round (idempotent:
    /// the first capture wins, later calls are ignored). Returns true if
    /// this call captured.
    pub fn capture(&mut self, actor: u64, version: u64, value: u64, state_bytes: u64) -> bool {
        if self.captured.contains_key(&actor) {
            return false;
        }
        self.captured.insert(actor, (version, value));
        self.bytes += state_bytes;
        true
    }

    /// The round's captures sorted by actor id (the deterministic commit
    /// order).
    pub fn sorted_captures(&self) -> Vec<(u64, u64, u64)> {
        let mut out: Vec<(u64, u64, u64)> = self
            .captured
            .iter()
            .map(|(&a, &(ver, val))| (a, ver, val))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        let cfg = SnapshotConfig::default();
        cfg.validate(4);
        assert!(cfg.is_write(1));
        assert!(!cfg.is_write(0));
        assert!(!cfg.is_write(64));
        assert!(!cfg.is_write(200));
    }

    #[test]
    #[should_panic(expected = "capture window")]
    fn rejects_capture_window_wider_than_interval() {
        let cfg = SnapshotConfig {
            capture_window: Nanos::from_secs(3),
            ..SnapshotConfig::default()
        };
        cfg.validate(4);
    }

    #[test]
    fn defer_backoff_doubles_and_caps() {
        let cfg = SnapshotConfig::default();
        assert_eq!(cfg.defer_backoff(1), Nanos::from_millis(2));
        assert_eq!(cfg.defer_backoff(2), Nanos::from_millis(4));
        assert_eq!(cfg.defer_backoff(3), Nanos::from_millis(8));
        assert_eq!(cfg.defer_backoff(40), Nanos::from_millis(64), "capped");
    }

    #[test]
    fn cells_fold_deterministically() {
        let mut a = StateCell::default();
        let mut b = StateCell::default();
        for _ in 0..5 {
            a.apply_write(7);
            b.apply_write(7);
        }
        assert_eq!(a, b);
        assert_eq!(a.version, 5);
        let mut c = StateCell::default();
        c.apply_write(8);
        assert_ne!(a.value, c.value, "the fold depends on the actor id");
    }

    #[test]
    fn restore_is_snapshot_plus_replay() {
        let mut store = SnapshotStore::new();
        let mut cell = StateCell::default();
        // Three writes journaled, then a snapshot capturing version 2.
        let snap_at_2 = {
            let mut scratch = StateCell::default();
            scratch.apply_write(9);
            scratch.apply_write(9);
            scratch
        };
        for _ in 0..3 {
            let v = cell.apply_write(9);
            store.append(9, v, cell.value);
        }
        store.commit(1, &[(9, snap_at_2.version, snap_at_2.value)]);
        assert!(store.round_complete(1));
        assert_eq!(store.journal_len(9), 1, "entries ≤ v2 truncated");
        let plan = store.restore(9).expect("state exists");
        assert_eq!(plan.round, 1);
        assert_eq!(plan.version, 3);
        assert_eq!(plan.value, cell.value, "replay reproduces the cell");
        assert_eq!(plan.replayed, 1);
    }

    #[test]
    fn journal_only_restore_replays_everything() {
        let mut store = SnapshotStore::new();
        let mut cell = StateCell::default();
        for _ in 0..4 {
            let v = cell.apply_write(3);
            store.append(3, v, cell.value);
        }
        let plan = store.restore(3).expect("journaled");
        assert_eq!(plan.round, 0, "no snapshot yet");
        assert_eq!(plan.version, 4);
        assert_eq!(plan.replayed, 4);
        assert_eq!(store.restore(99), None, "fresh actor: nothing to restore");
    }

    #[test]
    fn round_marks_once_and_accounts_in_flight() {
        let n = 3;
        let mut round = OpenRound::new(1, Nanos::ZERO, n);
        let mut sent = vec![0u64; n * n];
        let mut recv = vec![0u64; n * n];
        // Link 0 -> 1: three sent, one received before the markers.
        sent[1] = 3;
        recv[1] = 1;
        assert!(round.mark(0, &sent, &recv));
        assert!(!round.mark(0, &sent, &recv), "second marker is a no-op");
        assert!(round.mark(1, &sent, &recv));
        assert_eq!(round.in_flight(), 2);
    }

    #[test]
    fn capture_is_first_write_wins() {
        let mut round = OpenRound::new(2, Nanos::ZERO, 2);
        assert!(round.capture(5, 7, 0xAB, 100));
        assert!(!round.capture(5, 8, 0xCD, 100), "already captured");
        assert_eq!(round.bytes, 100);
        assert_eq!(round.sorted_captures(), vec![(5, 7, 0xAB)]);
    }

    #[test]
    fn commit_clears_empty_journals() {
        let mut store = SnapshotStore::new();
        store.append(1, 1, 10);
        store.commit(1, &[(1, 1, 10)]);
        assert_eq!(store.journal_len(1), 0);
        assert_eq!(store.total_journal_len(), 0);
        let plan = store.restore(1).expect("snapshot remains");
        assert_eq!(plan.replayed, 0);
        assert_eq!(plan.version, 1);
    }

    /// A cell map inserted in scrambled actor order, with never-written
    /// cells among the written ones, and the actors a round already
    /// captured lazily (every fifth, written or not).
    fn sweep_fixture() -> (FxHashMap<u64, (u32, StateCell)>, Vec<u64>) {
        let mut cells = FxHashMap::default();
        for i in 0..400u64 {
            let actor = mix64(i) % 100_000;
            let mut cell = StateCell::default();
            for _ in 0..i % 4 {
                cell.apply_write(actor);
            }
            cells.insert(actor, ((i % 7) as u32, cell));
        }
        let mut lazy: Vec<u64> = cells.keys().copied().filter(|a| a % 5 == 0).collect();
        lazy.sort_unstable();
        (cells, lazy)
    }

    #[test]
    fn stragglers_match_the_sort_everything_sweep() {
        let (cells, lazy) = sweep_fixture();
        let open = || {
            let mut round = OpenRound::new(3, Nanos::ZERO, 4);
            for &a in &lazy {
                round.capture(a, 1, 0xAB, 100);
            }
            round
        };
        // The reference: sort every key, skip unwritten cells, capture
        // whatever the round has not yet.
        let mut reference = open();
        let mut keys: Vec<u64> = cells.keys().copied().collect();
        keys.sort_unstable();
        let mut want = Vec::new();
        for actor in keys {
            let (host, cell) = cells[&actor];
            if cell.version > 0 && reference.capture(actor, cell.version, cell.value, 100) {
                want.push((actor, host, cell.version));
            }
        }
        // The sweep as the backends run it.
        let mut round = open();
        let swept: Vec<(u64, u32, u64)> = stragglers(&cells, &round.captured)
            .into_iter()
            .map(|(actor, host, cell)| {
                round.capture(actor, cell.version, cell.value, 100);
                (actor, host, cell.version)
            })
            .collect();
        assert!(!swept.is_empty() && swept.len() < cells.len());
        assert_eq!(swept, want, "swept list (and the capture spans it emits)");
        // Same captures in the same insertion order, hence the same map.
        let order = |r: &OpenRound| r.captured.iter().map(|(&a, &c)| (a, c)).collect::<Vec<_>>();
        assert_eq!(order(&round), order(&reference), "capture order");
        assert_eq!(round.bytes, reference.bytes);
        let captures = round.sorted_captures();
        assert_eq!(captures, reference.sorted_captures());
        let (mut a, mut b) = (SnapshotStore::new(), SnapshotStore::new());
        a.commit(3, &captures);
        b.commit(3, &reference.sorted_captures());
        for &actor in cells.keys() {
            assert_eq!(
                a.restore(actor),
                b.restore(actor),
                "committed actor {actor}"
            );
        }
    }
}
