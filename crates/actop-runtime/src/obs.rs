//! Runtime-side telemetry: the bridge between [`ClusterMetrics`] and the
//! `actop-obs` registry / SLO machinery.
//!
//! [`Observability`] owns a typed metric [`Registry`] mirroring the
//! cluster's counters, per-server gauges, and an end-to-end latency
//! histogram, plus an online [`SloEngine`] fed from the cluster's binned
//! series as bins close. Both cluster backends drive it the same way:
//!
//! * the legacy [`Cluster`](crate::Cluster) scrapes on a sim-time cadence
//!   via [`Cluster::install_scraper`](crate::Cluster::install_scraper)
//!   and evaluates SLOs online (alerts land as trace events during the
//!   run);
//! * the sharded backend scrapes each shard's registry at global barrier
//!   events and merges the registries afterwards; SLO evaluation then
//!   runs once over the *merged* series. Because alerting is a pure
//!   function of the binned series and alert timestamps are bin-aligned,
//!   both paths produce identical alert streams for identical series.
//!
//! Two details keep the artifacts deterministic and merge-correct:
//!
//! * **Counter resets.** `reset_steady_state` zeroes request-scoped
//!   counters at the warmup boundary, but a registry counter must never
//!   go backwards. Each mirrored counter therefore keeps the raw value
//!   last seen and a cumulative accumulator: a raw value below the
//!   previous one is a reset, and the new raw value counts from zero.
//!   The accumulator is a sum of per-shard activity either way, so
//!   merged values are invariant under the shard count.
//! * **Gauge ownership.** A sharded world sets gauges only for servers it
//!   owns and leaves the rest at zero, so the cross-shard gauge *sum*
//!   equals the cluster value and frames merge with the same summation
//!   rule as counters.
//!
//! [`ClusterMetrics`]: crate::ClusterMetrics

use actop_metrics::BinnedSeries;
use actop_obs::{
    latency_bounds_ns, AlertNote, AlertTransition, MetricId, Registry, SloEngine, SloKind, SloNote,
};
use actop_sim::Nanos;

use crate::config::ObsConfig;
use crate::metrics::ClusterMetrics;

/// Detector-accuracy tallies: every sampling tick, each live observer's
/// suspicion of every peer is compared against ground truth. Lives here
/// (not in the benches) so any harness can report detector health.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DetectorAccuracy {
    /// Sampling ticks taken.
    pub samples: u64,
    /// Suspected and actually failed.
    pub true_suspect: u64,
    /// Suspected but alive (false positive).
    pub false_suspect: u64,
    /// Failed but not suspected (detection lag).
    pub missed_failure: u64,
    /// Not suspected and alive.
    pub true_clear: u64,
}

/// One mirrored cluster counter: where it lives in the registry, how to
/// read it, and the reset-safe accumulator state.
struct CounterMirror {
    id: MetricId,
    read: fn(&ClusterMetrics) -> u64,
    /// Raw value at the previous scrape (pre-accumulation).
    prev: u64,
    /// Monotone cumulative value across warmup resets.
    acc: u64,
}

/// An SLO alert transition surfaced to the caller so it can record trace
/// events and tally cluster metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloTransition {
    /// Spec index in the configured `slos` list.
    pub spec: usize,
    /// Bin at which the transition happened.
    pub bin: u64,
    /// Bin-aligned sim time of the transition (bin close time).
    pub t_ns: u64,
    /// `true` for open, `false` for close.
    pub open: bool,
}

/// Telemetry state for one cluster (or one shard of one).
#[derive(Debug)]
pub struct Observability {
    registry: Registry,
    slo: SloEngine,
    interval: Nanos,
    bin_ns: u64,
    /// Series bins already fed to the SLO engine.
    fed_bins: usize,
    counters: Vec<CounterMirror>,
    queue_gauges: Vec<MetricId>,
    up_gauges: Vec<MetricId>,
    /// Cluster-wide replica-activation count (hot-actor splits). Always
    /// registered — an identical schema across backends is a merge
    /// requirement — and simply stays 0 when replication is off. In a
    /// sharded run only the world owning server 0 sets it, so the
    /// cross-shard gauge sum equals the cluster value.
    replica_gauge: MetricId,
    latency_hist: MetricId,
    /// Snapshot round-duration histogram; registered (with the snapshot
    /// counters) only when the run has snapshots configured.
    snap_round_hist: Option<MetricId>,
    alerts: Vec<AlertNote>,
}

impl std::fmt::Debug for CounterMirror {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CounterMirror")
            .field("prev", &self.prev)
            .field("acc", &self.acc)
            .finish()
    }
}

impl Observability {
    /// Builds the registry schema for a cluster of `servers` servers and
    /// an SLO engine over `series_bin_ns`-wide bins. The counter families
    /// are the exported rows of [`ClusterMetrics::COUNTERS`], in table
    /// order: the core group, then — only when `snapshot` is true — the
    /// snapshot group and the round-duration histogram. Conditional
    /// registration keeps the snapshot-off wire schema, and therefore
    /// every golden artifact, byte-identical to builds predating the
    /// subsystem. Every backend with the same `(config, servers,
    /// series_bin_ns, snapshot)` builds an *identical* schema — a
    /// requirement for cross-shard merging; both derive `snapshot` from
    /// `config.snapshot.is_some()`.
    pub fn with_snapshot(
        cfg: &ObsConfig,
        servers: usize,
        series_bin_ns: u64,
        snapshot: bool,
    ) -> Self {
        let mut registry = Registry::new(cfg.ring_capacity);
        let group = |snap: bool| {
            ClusterMetrics::COUNTERS
                .iter()
                .filter(move |c| c.snapshot == snap)
        };
        let exported = group(false).chain(group(true).filter(|_| snapshot));
        let counters: Vec<CounterMirror> = exported
            .filter_map(|c| {
                Some(CounterMirror {
                    id: registry.counter(c.export?, &[]),
                    read: c.read,
                    prev: 0,
                    acc: 0,
                })
            })
            .collect();
        let mut queue_gauges = Vec::with_capacity(servers);
        let mut up_gauges = Vec::with_capacity(servers);
        for s in 0..servers {
            let label = s.to_string();
            queue_gauges.push(registry.gauge("server_queue_depth", &[("server", &label)]));
            up_gauges.push(registry.gauge("server_up", &[("server", &label)]));
        }
        let replica_gauge = registry.gauge("replica_activations", &[]);
        let latency_hist = registry.histogram("e2e_latency_ns", &[], &latency_bounds_ns());
        let snap_round_hist = snapshot
            .then(|| registry.histogram("snapshot_round_duration_ns", &[], &latency_bounds_ns()));
        Observability {
            registry,
            slo: SloEngine::new(cfg.slos.clone(), series_bin_ns),
            interval: cfg.scrape_interval,
            bin_ns: series_bin_ns,
            fed_bins: 0,
            counters,
            queue_gauges,
            up_gauges,
            replica_gauge,
            latency_hist,
            snap_round_hist,
            alerts: Vec::new(),
        }
    }

    /// Records one completed snapshot round's duration. A no-op when the
    /// snapshot schema is not registered.
    #[inline]
    pub fn observe_snap_round(&mut self, duration_ns: u64) {
        if let Some(id) = self.snap_round_hist {
            self.registry.observe(id, duration_ns);
        }
    }

    /// Sets the cluster-wide replica-activation gauge. Call before
    /// [`Observability::scrape`]; sharded worlds that do not own server 0
    /// skip the call and leave the gauge at its zero default.
    pub fn set_replica_activations(&mut self, count: f64) {
        self.registry.set_gauge(self.replica_gauge, count);
    }

    /// The scrape cadence.
    pub fn interval(&self) -> Nanos {
        self.interval
    }

    /// The registry (schema + retained frames + live values).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Alert annotations accumulated by SLO evaluation, in time order.
    pub fn alerts(&self) -> &[AlertNote] {
        &self.alerts
    }

    /// Records one completed end-to-end request latency.
    #[inline]
    pub fn observe_latency(&mut self, total_ns: u64) {
        self.registry.observe(self.latency_hist, total_ns);
    }

    /// Folds the not-yet-scraped raw counter deltas into the cumulative
    /// accumulators and rebases the mirrors to zero. The cluster calls
    /// this *before* `ClusterMetrics::reset_steady_state`, so registry
    /// counters stay monotone — and lossless — across the warmup reset.
    pub fn note_reset(&mut self, metrics: &ClusterMetrics) {
        for c in &mut self.counters {
            let raw = (c.read)(metrics);
            c.acc += raw.saturating_sub(c.prev);
            c.prev = 0;
        }
    }

    /// Takes one scrape at `now`: refreshes the counter mirrors from
    /// `metrics`, sets the per-server `(queue_depth, up)` gauge pairs,
    /// and snapshots a frame. A sharded world passes zeros for servers it
    /// does not own so gauge sums merge to cluster values.
    pub fn scrape(&mut self, now: Nanos, metrics: &ClusterMetrics, per_server: &[(f64, f64)]) {
        assert_eq!(per_server.len(), self.queue_gauges.len(), "gauge arity");
        for c in &mut self.counters {
            let raw = (c.read)(metrics);
            // Defensive: a raw value below the last one means a reset the
            // cluster forgot to announce via `note_reset`; the new raw
            // value counts from zero.
            c.acc += if raw >= c.prev { raw - c.prev } else { raw };
            c.prev = raw;
            self.registry.set_counter(c.id, c.acc);
        }
        for (s, &(queue, up)) in per_server.iter().enumerate() {
            self.registry.set_gauge(self.queue_gauges[s], queue);
            self.registry.set_gauge(self.up_gauges[s], up);
        }
        self.registry.scrape(now.as_nanos());
    }

    /// Feeds every series bin fully closed at `now` to the SLO engine and
    /// returns the alert transitions that caused, oldest first. Latency
    /// and goodput objectives read the end-to-end latency series;
    /// rate-ceiling objectives read the false-suspicion series. Call on
    /// every scrape (online alerting) and once more at the end of the run
    /// to catch bins closed after the last scrape.
    pub fn drain_slos(&mut self, now: Nanos, metrics: &ClusterMetrics) -> Vec<SloTransition> {
        let closed = (now.as_nanos() / self.bin_ns) as usize;
        let mut out = Vec::new();
        while self.fed_bins < closed {
            let bin = self.fed_bins;
            for idx in 0..self.slo.specs().len() {
                let series = match self.slo.specs()[idx].kind {
                    SloKind::RateBelowPerS(_) => &metrics.false_suspicion_series,
                    _ => &metrics.latency_series,
                };
                let obs = bin_obs(series, bin);
                let transition = self.slo.push(idx, obs);
                if transition == AlertTransition::None {
                    continue;
                }
                let open = transition == AlertTransition::Opened;
                let t_ns = (bin as u64 + 1) * self.bin_ns;
                self.alerts.push(AlertNote {
                    slo: self.slo.specs()[idx].name.clone(),
                    open,
                    t_ns,
                    bin: bin as u64,
                });
                out.push(SloTransition {
                    spec: idx,
                    bin: bin as u64,
                    t_ns,
                    open,
                });
            }
            self.fed_bins += 1;
        }
        out
    }

    /// Per-SLO outcome annotations for the export: absolute violation
    /// windows plus alert tallies.
    pub fn slo_notes(&self) -> Vec<SloNote> {
        (0..self.slo.specs().len())
            .map(|idx| SloNote {
                name: self.slo.specs()[idx].name.clone(),
                windows: self
                    .slo
                    .windows(idx)
                    .iter()
                    .map(|w| (w.start_bin as u64, w.end_bin as u64))
                    .collect(),
                opened: self.slo.alerts_opened(idx),
                closed: self.slo.alerts_closed(idx),
            })
            .collect()
    }

    /// The SLO engine (violation windows, episodes, verdicts).
    pub fn slo_engine(&self) -> &SloEngine {
        &self.slo
    }

    /// Folds another shard's registry into this one: frames and live
    /// values sum per slot. The SLO engine is untouched — sharded SLO
    /// evaluation runs once over the merged series afterwards.
    pub fn merge_from(&mut self, other: &Observability) {
        self.registry.merge_from(&other.registry);
    }
}

/// The `(count, sum)` view of one series bin; bins past the series' end
/// are empty.
fn bin_obs(series: &BinnedSeries, bin: usize) -> actop_obs::BinObs {
    let bins = series.bins();
    if bin < bins.len() {
        actop_obs::BinObs {
            count: bins[bin].count as f64,
            sum: bins[bin].sum,
        }
    } else {
        actop_obs::BinObs {
            count: 0.0,
            sum: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actop_obs::{FrameValue, MetricKind, SloSpec};

    fn obs_with(slos: Vec<SloSpec>) -> Observability {
        let cfg = ObsConfig {
            slos,
            ..ObsConfig::default()
        };
        Observability::with_snapshot(&cfg, 2, 1_000_000_000, false)
    }

    fn counter_value(o: &Observability, name: &str) -> u64 {
        let idx = o
            .registry()
            .defs()
            .iter()
            .position(|d| d.name == name)
            .expect("registered");
        let frame = o.registry().frames().last().expect("scraped");
        match &frame.values[idx] {
            FrameValue::Counter(v) => *v,
            other => panic!("not a counter: {other:?}"),
        }
    }

    #[test]
    fn counter_mirror_survives_warmup_reset() {
        let mut o = obs_with(vec![]);
        let mut m = ClusterMetrics::new(1_000_000_000);
        m.submitted = 10;
        o.scrape(Nanos::from_secs(1), &m, &[(0.0, 1.0), (0.0, 1.0)]);
        assert_eq!(counter_value(&o, "requests_submitted_total"), 10);
        // Warmup boundary: 2 more submissions land, then the counter
        // resets (announced), then 15 more — regrowing past the pre-reset
        // raw value.
        m.submitted = 12;
        o.note_reset(&m);
        m.reset_steady_state();
        m.submitted = 15;
        o.scrape(Nanos::from_secs(2), &m, &[(0.0, 1.0), (0.0, 1.0)]);
        assert_eq!(
            counter_value(&o, "requests_submitted_total"),
            27,
            "cumulative and lossless across the reset"
        );
        // An unannounced reset still keeps the counter monotone.
        m.reset_steady_state();
        m.submitted = 3;
        o.scrape(Nanos::from_secs(3), &m, &[(0.0, 1.0), (0.0, 1.0)]);
        assert_eq!(counter_value(&o, "requests_submitted_total"), 30);
    }

    #[test]
    fn reset_accumulation_is_shard_invariant() {
        // One "cluster" vs two "shards" carrying the same activity split:
        // after a mid-run reset on every side, merged counters agree.
        let mut whole = obs_with(vec![]);
        let mut a = obs_with(vec![]);
        let mut b = obs_with(vec![]);
        let mut mw = ClusterMetrics::new(1_000_000_000);
        let mut ma = ClusterMetrics::new(1_000_000_000);
        let mut mb = ClusterMetrics::new(1_000_000_000);
        mw.completed = 9;
        ma.completed = 4;
        mb.completed = 5;
        let zeros = [(0.0, 0.0), (0.0, 0.0)];
        whole.scrape(Nanos::from_secs(1), &mw, &zeros);
        a.scrape(Nanos::from_secs(1), &ma, &zeros);
        b.scrape(Nanos::from_secs(1), &mb, &zeros);
        whole.note_reset(&mw);
        a.note_reset(&ma);
        b.note_reset(&mb);
        mw.reset_steady_state();
        ma.reset_steady_state();
        mb.reset_steady_state();
        mw.completed = 7;
        ma.completed = 6;
        mb.completed = 1;
        whole.scrape(Nanos::from_secs(2), &mw, &zeros);
        a.scrape(Nanos::from_secs(2), &ma, &zeros);
        b.scrape(Nanos::from_secs(2), &mb, &zeros);
        a.merge_from(&b);
        assert_eq!(
            counter_value(&whole, "requests_completed_total"),
            counter_value(&a, "requests_completed_total"),
        );
    }

    #[test]
    fn drain_feeds_closed_bins_and_aligns_alert_times() {
        // An immediately-burning SLO (1-bin windows) opens at bin 0.
        let mut spec = SloSpec::new("lat", SloKind::MeanLatencyBelowMs(100.0));
        spec.burn.short_bins = 1;
        spec.burn.long_bins = 1;
        let mut o = obs_with(vec![spec]);
        let mut m = ClusterMetrics::new(1_000_000_000);
        m.latency_series.record(500_000_000, 200.0 * 1e6);
        // Nothing closed before the first bin boundary.
        assert!(o.drain_slos(Nanos(999_999_999), &m).is_empty());
        let got = o.drain_slos(Nanos::from_secs(3), &m);
        assert_eq!(
            got,
            vec![
                SloTransition {
                    spec: 0,
                    bin: 0,
                    t_ns: 1_000_000_000,
                    open: true
                },
                SloTransition {
                    spec: 0,
                    bin: 1,
                    t_ns: 2_000_000_000,
                    open: false
                },
            ]
        );
        // Re-draining the same horizon is a no-op.
        assert!(o.drain_slos(Nanos::from_secs(3), &m).is_empty());
        assert_eq!(o.alerts().len(), 2);
        assert_eq!(o.slo_notes()[0].opened, 1);
        assert_eq!(o.slo_notes()[0].closed, 1);
    }

    #[test]
    fn snapshot_schema_is_opt_in_and_merges() {
        let cfg = ObsConfig::default();
        let plain = Observability::with_snapshot(&cfg, 2, 1_000_000_000, false);
        let with = Observability::with_snapshot(&cfg, 2, 1_000_000_000, true);
        assert!(
            !plain
                .registry()
                .defs()
                .iter()
                .any(|d| d.name.starts_with("snap_")),
            "snapshot-off schema is untouched"
        );
        assert!(with
            .registry()
            .defs()
            .iter()
            .any(|d| d.name == "snapshot_round_duration_ns"));
        // Two shards with the snapshot schema merge; counters sum.
        let mut a = Observability::with_snapshot(&cfg, 2, 1_000_000_000, true);
        let mut b = Observability::with_snapshot(&cfg, 2, 1_000_000_000, true);
        let mut ma = ClusterMetrics::new(1_000_000_000);
        let mut mb = ClusterMetrics::new(1_000_000_000);
        ma.snap_captures = 3;
        mb.snap_captures = 4;
        let zeros = [(0.0, 0.0), (0.0, 0.0)];
        a.scrape(Nanos::from_secs(1), &ma, &zeros);
        b.scrape(Nanos::from_secs(1), &mb, &zeros);
        a.observe_snap_round(5_000_000);
        a.merge_from(&b);
        assert_eq!(counter_value(&a, "snap_captures_total"), 7);
    }

    /// The counter families on the wire, in registration order.
    fn counter_families(o: &Observability) -> Vec<&str> {
        o.registry()
            .defs()
            .iter()
            .filter(|d| d.kind == MetricKind::Counter)
            .map(|d| d.name.as_str())
            .collect()
    }

    #[test]
    fn counter_wire_schema_is_pinned() {
        const CORE: [&str; 28] = [
            "requests_submitted_total",
            "requests_completed_total",
            "requests_rejected_total",
            "requests_timed_out_total",
            "requests_shed_no_live_total",
            "responses_stale_total",
            "messages_remote_total",
            "messages_local_total",
            "messages_forwarded_total",
            "messages_lost_in_flight_total",
            "messages_net_dropped_total",
            "forward_loop_drops_total",
            "zombie_branches_total",
            "retries_total",
            "retry_budget_exhausted_total",
            "migrations_total",
            "migrations_aborted_total",
            "server_failures_total",
            "heartbeats_sent_total",
            "heartbeats_dropped_total",
            "suspicions_total",
            "unsuspicions_total",
            "directory_repairs_total",
            "false_suspicion_repairs_total",
            "splits_total",
            "splits_aborted_total",
            "replica_drops_total",
            "replica_reads_total",
        ];
        const SNAPSHOT: [&str; 11] = [
            "snap_rounds_started_total",
            "snap_rounds_completed_total",
            "snap_rounds_aborted_total",
            "snap_rounds_skipped_total",
            "snap_captures_total",
            "snap_bytes_total",
            "snap_inflight_total",
            "state_writes_total",
            "restores_total",
            "restore_replayed_total",
            "restores_deferred_total",
        ];
        let cfg = ObsConfig::default();
        let off = Observability::with_snapshot(&cfg, 2, 1_000_000_000, false);
        assert_eq!(counter_families(&off), CORE);
        let on = Observability::with_snapshot(&cfg, 2, 1_000_000_000, true);
        let both: Vec<&str> = CORE.iter().chain(&SNAPSHOT).copied().collect();
        assert_eq!(counter_families(&on), both);
    }

    #[test]
    fn rate_slos_read_the_false_suspicion_series() {
        let mut spec = SloSpec::new("fs", SloKind::RateBelowPerS(1.0));
        spec.burn.short_bins = 1;
        spec.burn.long_bins = 1;
        let mut o = obs_with(vec![spec]);
        let mut m = ClusterMetrics::new(1_000_000_000);
        m.false_suspicion_series.mark(100);
        m.false_suspicion_series.mark(200);
        let got = o.drain_slos(Nanos::from_secs(1), &m);
        assert_eq!(got.len(), 1);
        assert!(got[0].open);
    }
}
