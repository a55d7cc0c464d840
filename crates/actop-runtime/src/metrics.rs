//! Cluster-wide measurement state.
//!
//! Every `u64` counter is declared once, as a row of the table in the
//! `cluster_metrics!` invocation below. A row names the field, its
//! [`CounterScope`] (zeroed at the warmup boundary or not), and how the
//! telemetry registry exports it: `export("family")` in the core schema,
//! `snapshot("family")` in the snapshot group (registered only when the
//! run has snapshots configured), or `silent` (kept in the metrics, never
//! exported). The table generates the fields, their zero initialisation,
//! the warmup reset, the cross-shard sum and [`ClusterMetrics::COUNTERS`],
//! which the telemetry mirrors and the determinism tests iterate.
//! Histograms, series and the stage breakdown are written by hand next to
//! the table.

use actop_metrics::{BinnedSeries, Breakdown, LatencyHistogram};
use actop_partition::CostSignals;
use actop_sim::Nanos;
use actop_trace::{HopKind, SpanEvent};

use crate::config::RuntimeConfig;
use crate::obs::Observability;

/// When a counter is zeroed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterScope {
    /// Request-scoped: zeroed by
    /// [`ClusterMetrics::reset_steady_state`] at the warmup boundary, so
    /// it counts the measurement window only.
    Request,
    /// Cluster-lifecycle: survives the warmup reset, like the time series
    /// do (an event during warmup still happened).
    Lifecycle,
}

/// One row of the counter table, as [`ClusterMetrics::COUNTERS`] lists it.
#[derive(Debug, Clone, Copy)]
pub struct CounterDef {
    /// The `ClusterMetrics` field name.
    pub name: &'static str,
    /// Whether the warmup reset zeroes it.
    pub scope: CounterScope,
    /// Prometheus family name, or `None` for a silent counter.
    pub export: Option<&'static str>,
    /// Exported with the snapshot group, registered only when the run has
    /// snapshots configured.
    pub snapshot: bool,
    /// Reads the counter.
    pub read: fn(&ClusterMetrics) -> u64,
}

/// Declares `ClusterMetrics`: the hand-written fields with their
/// initialisers, then the counter table. See the module docs.
macro_rules! cluster_metrics {
    (
        $(#[$meta:meta])*
        pub struct ClusterMetrics($bin:ident) {
            $( $(#[doc = $hdoc:literal])* pub $hfield:ident: $hty:ty = $hinit:expr, )*
        }
        counters {
            $( $(#[doc = $doc:literal])* $field:ident: $scope:ident, $kind:ident $(($family:literal))?; )*
        }
    ) => {
        $(#[$meta])*
        pub struct ClusterMetrics {
            $( $(#[doc = $hdoc])* pub $hfield: $hty, )*
            $( $(#[doc = $doc])* pub $field: u64, )*
        }

        impl ClusterMetrics {
            /// Every counter, in table order.
            pub const COUNTERS: &'static [CounterDef] = &[$(
                CounterDef {
                    name: stringify!($field),
                    scope: CounterScope::$scope,
                    export: counter_export!($kind $($family)?),
                    snapshot: counter_export!(@snapshot $kind),
                    read: |m| m.$field,
                },
            )*];

            /// Creates empty metrics with the given time-series bin width.
            pub fn new($bin: u64) -> Self {
                ClusterMetrics {
                    $( $hfield: $hinit, )*
                    $( $field: 0, )*
                }
            }

            fn reset_request_counters(&mut self) {
                $( if CounterScope::$scope == CounterScope::Request {
                    self.$field = 0;
                } )*
            }

            fn sum_counters(&mut self, other: &ClusterMetrics) {
                $( self.$field += other.$field; )*
            }

            /// Every counter, mutably, in table order.
            #[cfg(test)]
            fn counters_mut(&mut self) -> Vec<&mut u64> {
                vec![$( &mut self.$field ),*]
            }
        }
    };
}

/// The export and snapshot-group columns of one table row.
macro_rules! counter_export {
    (export $family:literal) => {
        Some($family)
    };
    (snapshot $family:literal) => {
        Some($family)
    };
    (silent) => {
        None
    };
    (@snapshot snapshot) => {
        true
    };
    (@snapshot $kind:ident) => {
        false
    };
}

cluster_metrics! {
    /// Everything the evaluation section measures, accumulated during a run.
    #[derive(Debug)]
    pub struct ClusterMetrics(series_bin_ns) {
        /// End-to-end client request latency (Fig. 10b, 10d, 11).
        pub e2e_latency: LatencyHistogram = LatencyHistogram::new(),
        /// Remote actor-to-actor call latency (Fig. 10c): from call issue to
        /// reply processed, for calls that crossed servers.
        pub remote_call_latency: LatencyHistogram = LatencyHistogram::new(),
        /// Per-stage latency breakdown (Fig. 4), when enabled.
        pub breakdown: Breakdown = Breakdown::new(),
        /// Remote share over time: one sample per actor-to-actor message
        /// (1 = remote, 0 = local), binned (Fig. 10a).
        pub remote_share_series: BinnedSeries = BinnedSeries::new(series_bin_ns),
        /// Actor migrations over time (Fig. 10a).
        pub migration_series: BinnedSeries = BinnedSeries::new(series_bin_ns),
        /// End-to-end latency over time: one sample per completion, so each
        /// bin's count is goodput and each bin's mean is latency — the series
        /// SLO-violation analysis reads.
        pub latency_series: BinnedSeries = BinnedSeries::new(series_bin_ns),
        /// False-suspicion repairs over time (one mark per repair whose
        /// suspected host was in fact alive) — the series detector-health
        /// SLOs read.
        pub false_suspicion_series: BinnedSeries = BinnedSeries::new(series_bin_ns),
    }
    counters {
        /// Client requests submitted.
        submitted: Request, export("requests_submitted_total");
        /// Client requests completed.
        completed: Request, export("requests_completed_total");
        /// Client requests rejected by overload shedding.
        rejected: Request, export("requests_rejected_total");
        /// Client requests that timed out (responses lost to a failure).
        timed_out: Request, export("requests_timed_out_total");
        /// Client requests shed at admission because no live server remained.
        /// Also counted in `rejected`, so request conservation stays
        /// `completed + rejected + timed_out == submitted`.
        shed_no_live: Request, export("requests_shed_no_live_total");
        /// Responses that arrived for an already-abandoned join (their request
        /// timed out or the join was lost to a crash).
        stale_responses: Request, export("responses_stale_total");
        /// Actor-to-actor messages that crossed servers.
        remote_messages: Request, export("messages_remote_total");
        /// Actor-to-actor messages delivered locally.
        local_messages: Request, export("messages_local_total");
        /// Messages re-routed because the target actor was not where the
        /// sender expected (activation races, migrations, gateway hops).
        forwarded_messages: Request, export("messages_forwarded_total");
        /// Messages that died in flight because their destination crashed
        /// while they were on the wire.
        lost_in_flight: Request, export("messages_lost_in_flight_total");
        /// Messages dropped by an injected link fault.
        net_dropped: Request, export("messages_net_dropped_total");
        /// Messages dropped by the forward-loop hop cap (split-brain routing
        /// flaps; the root request resolves via its client timeout).
        forward_loop_drops: Request, export("forward_loop_drops_total");
        /// Request branches cancelled because their root request was already
        /// resolved (timed out or shed) when the handler's decision landed.
        zombie_branches: Request, export("zombie_branches_total");
        /// Transport retries scheduled after a delivery died (crashed
        /// destination or dropped packet).
        retries: Request, export("retries_total");
        /// Total backoff delay spent by those retries, nanoseconds.
        retry_backoff_ns: Request, silent;
        /// Messages whose retry budget ran out (the root request resolves via
        /// its client timeout).
        retry_budget_exhausted: Request, export("retry_budget_exhausted_total");
        /// Total actor migrations.
        migrations: Lifecycle, export("migrations_total");
        /// Total transfer-window time actors spent pinned at their source
        /// during migrations, nanoseconds — the stall the migration-cost-aware
        /// objective charges against a candidate move. Zero when migrations
        /// are instantaneous.
        migration_stall_ns: Lifecycle, silent;
        /// In-flight migrations aborted by a crash of either endpoint.
        migrations_aborted: Lifecycle, export("migrations_aborted_total");
        /// Server failures injected.
        server_failures: Lifecycle, export("server_failures_total");
        /// Heartbeats put on the wire.
        heartbeats_sent: Lifecycle, export("heartbeats_sent_total");
        /// Heartbeats dropped by an injected link fault.
        heartbeats_dropped: Lifecycle, export("heartbeats_dropped_total");
        /// Suspicion transitions: a detector marked a peer suspected.
        suspicions: Lifecycle, export("suspicions_total");
        /// Suspicion transitions cleared (heartbeat heard again).
        unsuspicions: Lifecycle, export("unsuspicions_total");
        /// Directory entries dropped because the entry's host was suspected
        /// (the actor re-placed on a trusted server).
        directory_repairs: Request, export("directory_repairs_total");
        /// Directory repairs whose suspected host was in fact alive — the
        /// cost of false suspicion (stragglers, lossy links).
        false_suspicion_repairs: Request, export("false_suspicion_repairs_total");
        /// SLO alert episodes opened by the telemetry engine. Lifecycle
        /// counts: an alert that opened during warmup still happened.
        slo_alerts_opened: Lifecycle, silent;
        /// SLO alert episodes closed by the telemetry engine.
        slo_alerts_closed: Lifecycle, silent;
        /// Hot-actor splits committed (a replica activation added).
        splits: Lifecycle, export("splits_total");
        /// In-flight splits aborted by a crash of either endpoint.
        splits_aborted: Lifecycle, export("splits_aborted_total");
        /// Replica activations dropped (demand cooled, host crashed, or host
        /// came under suspicion).
        replica_drops: Lifecycle, export("replica_drops_total");
        /// Read-mostly requests executed at a replica instead of the primary.
        replica_reads: Request, export("replica_reads_total");
        /// Write requests that reached a worker stage on a server hosting a
        /// replica of their target and were forwarded from there to the
        /// primary. Routing never sends a write to a replica, but a client
        /// request enters through a uniformly random gateway and executes
        /// there when it can, so every client write whose gateway hosts a
        /// replica counts here once. Expected nonzero whenever writes target
        /// replicated actors.
        replica_writes: Request, silent;
        /// Snapshot rounds the coordinator opened.
        snap_rounds_started: Lifecycle, snapshot("snap_rounds_started_total");
        /// Snapshot rounds that committed as complete restore sources.
        snap_rounds_completed: Lifecycle, snapshot("snap_rounds_completed_total");
        /// Snapshot rounds aborted by a mid-round crash.
        snap_rounds_aborted: Lifecycle, snapshot("snap_rounds_aborted_total");
        /// Snapshot rounds skipped (a round was still open, or the store
        /// server was down).
        snap_rounds_skipped: Lifecycle, snapshot("snap_rounds_skipped_total");
        /// Per-actor state captures taken into snapshot rounds.
        snap_captures: Lifecycle, snapshot("snap_captures_total");
        /// Bytes of actor state captured into snapshot rounds.
        snap_bytes: Lifecycle, snapshot("snap_bytes_total");
        /// Messages counted in flight across committed snapshot cuts.
        snap_inflight: Lifecycle, snapshot("snap_inflight_total");
        /// State-mutating requests applied to durable actor cells.
        state_writes: Request, snapshot("state_writes_total");
        /// Re-placed actors rehydrated from the snapshot store.
        restores: Request, snapshot("restores_total");
        /// Journal entries replayed on top of snapshots during restores.
        restore_replayed: Request, snapshot("restore_replayed_total");
        /// Restores deferred because the snapshot store's server was down.
        restores_deferred: Request, snapshot("restores_deferred_total");
    }
}

impl ClusterMetrics {
    /// Fraction of actor-to-actor messages that were remote.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.remote_messages + self.local_messages;
        if total == 0 {
            0.0
        } else {
            self.remote_messages as f64 / total as f64
        }
    }

    /// The measured migration-cost signals the cost-aware repartitioning
    /// objective consumes, summed over `shards` (the one cluster's metrics,
    /// or every shard's in shard order): cumulative migrations and
    /// transfer-window stall, an upper bound on move-attributable repair
    /// traffic, the configured transfer window (the estimate's prior), and
    /// the CPU overhead of one remote message at a typical payload (the
    /// exchange rate from stall time into score units).
    pub fn cost_signals<'a>(
        shards: impl IntoIterator<Item = &'a ClusterMetrics>,
        config: &RuntimeConfig,
    ) -> CostSignals {
        let mut signals = CostSignals {
            transfer_ns: config.migration_transfer.map_or(0, |t| t.as_nanos()),
            remote_cost_ns: config.costs.remote_overhead_ns(600).max(0.0) as u64,
            ..CostSignals::default()
        };
        for m in shards {
            signals.migrations += m.migrations;
            signals.stall_ns += m.migration_stall_ns;
            signals.repair_msgs += m.directory_repairs + m.stale_responses + m.forwarded_messages;
        }
        signals
    }

    /// Resets the latency state and the [`CounterScope::Request`] counters
    /// but keeps the time series and the lifecycle counters (used to
    /// exclude warmup from steady-state measurements while still plotting
    /// convergence from time zero).
    pub fn reset_steady_state(&mut self) {
        self.e2e_latency.clear();
        self.remote_call_latency.clear();
        self.breakdown = Breakdown::new();
        self.reset_request_counters();
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
        self.false_suspicion_series
            .merge_from(&other.false_suspicion_series);
        self.sum_counters(other);
    }
}

/// Where the snapshot and replication subsystems account their outcomes
/// (counts, telemetry and lifecycle spans) on either backend: the
/// sequential `Cluster`, whose spans go through its cost-attribution
/// wrapper, or one shard.
pub(crate) trait Accounting {
    fn metrics(&mut self) -> &mut ClusterMetrics;
    fn obs(&mut self) -> Option<&mut Observability>;
    /// Records one span if tracing is on.
    fn span(&mut self, ev: SpanEvent);

    /// Records one instant span if tracing is on.
    #[inline]
    fn instant(&mut self, request: u64, kind: HopKind, server: u32, aux: u64, at: Nanos) {
        self.span(SpanEvent::instant(request, kind, server, aux, at));
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

    /// Metrics whose `i`-th counter (table order) holds `base + i`.
    fn distinct(base: u64) -> ClusterMetrics {
        let mut m = ClusterMetrics::new(1_000);
        for (i, c) in m.counters_mut().into_iter().enumerate() {
            *c = base + i as u64;
        }
        m
    }

    #[test]
    fn merge_sums_counters_and_series() {
        let mut a = distinct(1);
        a.e2e_latency.record(5);
        a.latency_series.record(10, 5.0);
        let mut b = distinct(1_000);
        b.e2e_latency.record(9);
        b.latency_series.record(2_500, 9.0);
        a.merge_from(&b);
        for (i, c) in ClusterMetrics::COUNTERS.iter().enumerate() {
            let i = i as u64;
            assert_eq!((c.read)(&a), (1 + i) + (1_000 + i), "{} sums", c.name);
        }
        assert_eq!(a.e2e_latency.count(), 2);
        assert_eq!(a.latency_series.bins()[0].count, 1);
        assert_eq!(a.latency_series.bins()[2].count, 1);
    }

    #[test]
    fn reset_scopes_fault_counters() {
        let mut m = distinct(1);
        m.reset_steady_state();
        for (i, c) in ClusterMetrics::COUNTERS.iter().enumerate() {
            let expect = match c.scope {
                CounterScope::Request => 0,
                CounterScope::Lifecycle => 1 + i as u64,
            };
            assert_eq!((c.read)(&m), expect, "{} ({:?})", c.name, c.scope);
        }
    }
}
