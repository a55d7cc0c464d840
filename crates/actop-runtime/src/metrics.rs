//! Cluster-wide measurement state.

use actop_metrics::{BinnedSeries, Breakdown, LatencyHistogram};

/// Everything the evaluation section measures, accumulated during a run.
#[derive(Debug)]
pub struct ClusterMetrics {
    /// End-to-end client request latency (Fig. 10b, 10d, 11).
    pub e2e_latency: LatencyHistogram,
    /// Remote actor-to-actor call latency (Fig. 10c): from call issue to
    /// reply processed, for calls that crossed servers.
    pub remote_call_latency: LatencyHistogram,
    /// Per-stage latency breakdown (Fig. 4), when enabled.
    pub breakdown: Breakdown,
    /// Actor-to-actor messages that crossed servers.
    pub remote_messages: u64,
    /// Actor-to-actor messages delivered locally.
    pub local_messages: u64,
    /// Messages re-routed because the target actor was not where the
    /// sender expected (activation races, migrations, gateway hops).
    pub forwarded_messages: u64,
    /// Remote share over time: one sample per actor-to-actor message
    /// (1 = remote, 0 = local), binned (Fig. 10a).
    pub remote_share_series: BinnedSeries,
    /// Actor migrations over time (Fig. 10a).
    pub migration_series: BinnedSeries,
    /// Total actor migrations.
    pub migrations: u64,
    /// Total transfer-window time actors spent pinned at their source
    /// during migrations, nanoseconds — the stall the migration-cost-aware
    /// objective charges against a candidate move. Zero when migrations
    /// are instantaneous.
    pub migration_stall_ns: u64,
    /// Client requests submitted.
    pub submitted: u64,
    /// Client requests completed.
    pub completed: u64,
    /// Client requests rejected by overload shedding.
    pub rejected: u64,
    /// Client requests that timed out (responses lost to a failure).
    pub timed_out: u64,
    /// Responses that arrived for an already-abandoned join (their request
    /// timed out or the join was lost to a crash).
    pub stale_responses: u64,
    /// Server failures injected.
    pub server_failures: u64,
    /// End-to-end latency over time: one sample per completion, so each
    /// bin's count is goodput and each bin's mean is latency — the series
    /// SLO-violation analysis reads.
    pub latency_series: BinnedSeries,
    /// Transport retries scheduled after a delivery died (crashed
    /// destination or dropped packet).
    pub retries: u64,
    /// Total backoff delay spent by those retries, nanoseconds.
    pub retry_backoff_ns: u64,
    /// Messages whose retry budget ran out (the root request resolves via
    /// its client timeout).
    pub retry_budget_exhausted: u64,
    /// Client requests shed at admission because no live server remained.
    /// Also counted in `rejected`, so request conservation stays
    /// `completed + rejected + timed_out == submitted`.
    pub shed_no_live: u64,
    /// Messages that died in flight because their destination crashed
    /// while they were on the wire.
    pub lost_in_flight: u64,
    /// Messages dropped by an injected link fault.
    pub net_dropped: u64,
    /// Heartbeats put on the wire.
    pub heartbeats_sent: u64,
    /// Heartbeats dropped by an injected link fault.
    pub heartbeats_dropped: u64,
    /// Suspicion transitions: a detector marked a peer suspected.
    pub suspicions: u64,
    /// Suspicion transitions cleared (heartbeat heard again).
    pub unsuspicions: u64,
    /// Directory entries dropped because the entry's host was suspected
    /// (the actor re-placed on a trusted server).
    pub directory_repairs: u64,
    /// Directory repairs whose suspected host was in fact alive — the
    /// cost of false suspicion (stragglers, lossy links).
    pub false_suspicion_repairs: u64,
    /// In-flight migrations aborted by a crash of either endpoint.
    pub migrations_aborted: u64,
    /// Messages dropped by the forward-loop hop cap (split-brain routing
    /// flaps; the root request resolves via its client timeout).
    pub forward_loop_drops: u64,
    /// Request branches cancelled because their root request was already
    /// resolved (timed out or shed) when the handler's decision landed.
    pub zombie_branches: u64,
    /// SLO alert episodes opened by the telemetry engine. Lifecycle
    /// counts: an alert that opened during warmup still happened.
    pub slo_alerts_opened: u64,
    /// SLO alert episodes closed by the telemetry engine.
    pub slo_alerts_closed: u64,
    /// False-suspicion repairs over time (one mark per repair whose
    /// suspected host was in fact alive) — the series detector-health
    /// SLOs read.
    pub false_suspicion_series: BinnedSeries,
    /// Hot-actor splits committed (a replica activation added).
    pub splits: u64,
    /// In-flight splits aborted by a crash of either endpoint.
    pub splits_aborted: u64,
    /// Replica activations dropped (demand cooled, host crashed, or host
    /// came under suspicion).
    pub replica_drops: u64,
    /// Read-mostly requests executed at a replica instead of the primary.
    pub replica_reads: u64,
    /// Write requests that reached a worker stage on a server hosting a
    /// replica of their target and were forwarded from there to the
    /// primary. Routing never sends a write to a replica, but a client
    /// request enters through a uniformly random gateway and executes
    /// there when it can, so every client write whose gateway hosts a
    /// replica counts here once. Expected nonzero whenever writes target
    /// replicated actors.
    pub replica_writes: u64,
    /// Snapshot rounds the coordinator opened.
    pub snap_rounds_started: u64,
    /// Snapshot rounds that committed as complete restore sources.
    pub snap_rounds_completed: u64,
    /// Snapshot rounds aborted by a mid-round crash.
    pub snap_rounds_aborted: u64,
    /// Snapshot rounds skipped (a round was still open, or the store
    /// server was down).
    pub snap_rounds_skipped: u64,
    /// Per-actor state captures taken into snapshot rounds.
    pub snap_captures: u64,
    /// Bytes of actor state captured into snapshot rounds.
    pub snap_bytes: u64,
    /// Messages counted in flight across committed snapshot cuts.
    pub snap_inflight: u64,
    /// State-mutating requests applied to durable actor cells.
    pub state_writes: u64,
    /// Re-placed actors rehydrated from the snapshot store.
    pub restores: u64,
    /// Journal entries replayed on top of snapshots during restores.
    pub restore_replayed: u64,
    /// Restores deferred because the snapshot store's server was down.
    pub restores_deferred: u64,
}

impl ClusterMetrics {
    /// Creates empty metrics with the given time-series bin width.
    pub fn new(series_bin_ns: u64) -> Self {
        ClusterMetrics {
            e2e_latency: LatencyHistogram::new(),
            remote_call_latency: LatencyHistogram::new(),
            breakdown: Breakdown::new(),
            remote_messages: 0,
            local_messages: 0,
            forwarded_messages: 0,
            remote_share_series: BinnedSeries::new(series_bin_ns),
            migration_series: BinnedSeries::new(series_bin_ns),
            migrations: 0,
            migration_stall_ns: 0,
            submitted: 0,
            completed: 0,
            rejected: 0,
            timed_out: 0,
            stale_responses: 0,
            server_failures: 0,
            latency_series: BinnedSeries::new(series_bin_ns),
            retries: 0,
            retry_backoff_ns: 0,
            retry_budget_exhausted: 0,
            shed_no_live: 0,
            lost_in_flight: 0,
            net_dropped: 0,
            heartbeats_sent: 0,
            heartbeats_dropped: 0,
            suspicions: 0,
            unsuspicions: 0,
            directory_repairs: 0,
            false_suspicion_repairs: 0,
            migrations_aborted: 0,
            forward_loop_drops: 0,
            zombie_branches: 0,
            slo_alerts_opened: 0,
            slo_alerts_closed: 0,
            false_suspicion_series: BinnedSeries::new(series_bin_ns),
            splits: 0,
            splits_aborted: 0,
            replica_drops: 0,
            replica_reads: 0,
            replica_writes: 0,
            snap_rounds_started: 0,
            snap_rounds_completed: 0,
            snap_rounds_aborted: 0,
            snap_rounds_skipped: 0,
            snap_captures: 0,
            snap_bytes: 0,
            snap_inflight: 0,
            state_writes: 0,
            restores: 0,
            restore_replayed: 0,
            restores_deferred: 0,
        }
    }

    /// Fraction of actor-to-actor messages that were remote.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.remote_messages + self.local_messages;
        if total == 0 {
            0.0
        } else {
            self.remote_messages as f64 / total as f64
        }
    }

    /// Resets the latency/counter state but keeps the time series (used to
    /// exclude warmup from steady-state measurements while still plotting
    /// convergence from time zero).
    pub fn reset_steady_state(&mut self) {
        self.e2e_latency.clear();
        self.remote_call_latency.clear();
        self.breakdown = Breakdown::new();
        self.remote_messages = 0;
        self.local_messages = 0;
        self.forwarded_messages = 0;
        self.submitted = 0;
        self.completed = 0;
        self.rejected = 0;
        self.timed_out = 0;
        self.stale_responses = 0;
        self.retries = 0;
        self.retry_backoff_ns = 0;
        self.retry_budget_exhausted = 0;
        self.shed_no_live = 0;
        self.lost_in_flight = 0;
        self.net_dropped = 0;
        self.directory_repairs = 0;
        self.false_suspicion_repairs = 0;
        self.forward_loop_drops = 0;
        self.zombie_branches = 0;
        self.replica_reads = 0;
        self.replica_writes = 0;
        self.state_writes = 0;
        self.restores = 0;
        self.restore_replayed = 0;
        self.restores_deferred = 0;
        // Heartbeat traffic, suspicion transitions, migration aborts,
        // split/replica-drop counts and snapshot-round counts are
        // cluster-lifecycle counts, not request-scoped: they survive the
        // warmup reset like the time series do.
    }

    /// Folds another shard's metrics into this one: histograms and time
    /// series merge, counters sum. The per-stage `breakdown` is *not*
    /// merged — the sharded runtime does not support breakdown recording,
    /// so there is nothing to fold.
    pub fn merge_from(&mut self, other: &ClusterMetrics) {
        self.e2e_latency.merge(&other.e2e_latency);
        self.remote_call_latency.merge(&other.remote_call_latency);
        self.remote_share_series
            .merge_from(&other.remote_share_series);
        self.migration_series.merge_from(&other.migration_series);
        self.latency_series.merge_from(&other.latency_series);
        self.remote_messages += other.remote_messages;
        self.local_messages += other.local_messages;
        self.forwarded_messages += other.forwarded_messages;
        self.migrations += other.migrations;
        self.migration_stall_ns += other.migration_stall_ns;
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.rejected += other.rejected;
        self.timed_out += other.timed_out;
        self.stale_responses += other.stale_responses;
        self.server_failures += other.server_failures;
        self.retries += other.retries;
        self.retry_backoff_ns += other.retry_backoff_ns;
        self.retry_budget_exhausted += other.retry_budget_exhausted;
        self.shed_no_live += other.shed_no_live;
        self.lost_in_flight += other.lost_in_flight;
        self.net_dropped += other.net_dropped;
        self.heartbeats_sent += other.heartbeats_sent;
        self.heartbeats_dropped += other.heartbeats_dropped;
        self.suspicions += other.suspicions;
        self.unsuspicions += other.unsuspicions;
        self.directory_repairs += other.directory_repairs;
        self.false_suspicion_repairs += other.false_suspicion_repairs;
        self.migrations_aborted += other.migrations_aborted;
        self.forward_loop_drops += other.forward_loop_drops;
        self.zombie_branches += other.zombie_branches;
        self.slo_alerts_opened += other.slo_alerts_opened;
        self.slo_alerts_closed += other.slo_alerts_closed;
        self.false_suspicion_series
            .merge_from(&other.false_suspicion_series);
        self.splits += other.splits;
        self.splits_aborted += other.splits_aborted;
        self.replica_drops += other.replica_drops;
        self.replica_reads += other.replica_reads;
        self.replica_writes += other.replica_writes;
        self.snap_rounds_started += other.snap_rounds_started;
        self.snap_rounds_completed += other.snap_rounds_completed;
        self.snap_rounds_aborted += other.snap_rounds_aborted;
        self.snap_rounds_skipped += other.snap_rounds_skipped;
        self.snap_captures += other.snap_captures;
        self.snap_bytes += other.snap_bytes;
        self.snap_inflight += other.snap_inflight;
        self.state_writes += other.state_writes;
        self.restores += other.restores;
        self.restore_replayed += other.restore_replayed;
        self.restores_deferred += other.restores_deferred;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_fraction() {
        let mut m = ClusterMetrics::new(1_000);
        assert_eq!(m.remote_fraction(), 0.0);
        m.remote_messages = 9;
        m.local_messages = 1;
        assert!((m.remote_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn reset_keeps_series() {
        let mut m = ClusterMetrics::new(1_000);
        m.e2e_latency.record(5);
        m.migration_series.mark(10);
        m.submitted = 3;
        m.reset_steady_state();
        assert!(m.e2e_latency.is_empty());
        assert_eq!(m.submitted, 0);
        assert_eq!(m.migration_series.len(), 1, "series survives reset");
    }

    #[test]
    fn merge_sums_counters_and_series() {
        let mut a = ClusterMetrics::new(1_000);
        a.submitted = 3;
        a.remote_messages = 2;
        a.e2e_latency.record(5);
        a.latency_series.record(10, 5.0);
        let mut b = ClusterMetrics::new(1_000);
        b.submitted = 4;
        b.local_messages = 6;
        b.e2e_latency.record(9);
        b.latency_series.record(2_500, 9.0);
        a.merge_from(&b);
        assert_eq!(a.submitted, 7);
        assert_eq!(a.remote_messages, 2);
        assert_eq!(a.local_messages, 6);
        assert_eq!(a.e2e_latency.count(), 2);
        assert_eq!(a.latency_series.bins()[0].count, 1);
        assert_eq!(a.latency_series.bins()[2].count, 1);
    }

    #[test]
    fn reset_scopes_fault_counters() {
        let mut m = ClusterMetrics::new(1_000);
        m.retries = 4;
        m.shed_no_live = 2;
        m.heartbeats_sent = 100;
        m.suspicions = 3;
        m.migrations_aborted = 1;
        m.splits = 2;
        m.replica_drops = 1;
        m.replica_reads = 40;
        m.snap_rounds_completed = 5;
        m.snap_captures = 12;
        m.state_writes = 30;
        m.restores = 2;
        m.reset_steady_state();
        assert_eq!(m.retries, 0, "request-scoped: reset with warmup");
        assert_eq!(m.shed_no_live, 0, "request-scoped: reset with warmup");
        assert_eq!(m.replica_reads, 0, "request-scoped: reset with warmup");
        assert_eq!(m.state_writes, 0, "request-scoped: reset with warmup");
        assert_eq!(m.restores, 0, "request-scoped: reset with warmup");
        assert_eq!(m.heartbeats_sent, 100, "lifecycle: survives");
        assert_eq!(m.suspicions, 3, "lifecycle: survives");
        assert_eq!(m.migrations_aborted, 1, "lifecycle: survives");
        assert_eq!(m.splits, 2, "lifecycle: survives");
        assert_eq!(m.replica_drops, 1, "lifecycle: survives");
        assert_eq!(m.snap_rounds_completed, 5, "lifecycle: survives");
        assert_eq!(m.snap_captures, 12, "lifecycle: survives");
    }
}
