//! Per-server state: the SEDA pipeline, the shared CPU, and local caches.
//! One [`Server`] type serves both backends: its stage queues hold
//! `StageItem`s and its CPU runs `RunningTask`s of the one message
//! protocol (`crate::proto`).

use actop_partition::DenseDirectory;
use actop_sim::{Engine, EventId, Nanos, PsCpu, StagePool, TickFn};
use actop_sketch::{FxHashMap, SpaceSaving};

use crate::config::RuntimeConfig;
use crate::ids::{ActorId, StageKind};
use crate::proto::{RunningTask, StageItem};

/// Per-stage measurement window: wallclock and CPU time of completed
/// events, feeding the §5.4 estimator.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageWindow {
    /// Events completed in the window.
    pub completions: u64,
    /// Sum of per-event wallclock time (start to finish), nanoseconds.
    pub sum_wallclock_ns: f64,
    /// Sum of per-event CPU demand, nanoseconds.
    pub sum_cpu_ns: f64,
}

/// Per-stage observation drained by the thread-allocation controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageReport {
    /// Events that arrived at the stage during the window.
    pub arrivals: u64,
    /// Events whose processing finished during the window.
    pub completions: u64,
    /// Window length.
    pub window: Nanos,
    /// Sum of per-event wallclock processing time, nanoseconds.
    pub sum_wallclock_ns: f64,
    /// Sum of per-event CPU demand, nanoseconds.
    pub sum_cpu_ns: f64,
    /// Time-average queue length over the window.
    pub mean_queue_len: f64,
}

/// One simulated Orleans server.
pub struct Server {
    /// Server index.
    pub id: usize,
    /// The shared-core processor all stage threads run on; each task
    /// carries its stage bookkeeping until its compute phase completes.
    pub(crate) cpu: PsCpu<RunningTask>,
    /// The four SEDA stages, indexed by [`StageKind::index`].
    pub(crate) stages: [StagePool<StageItem>; 4],
    /// The pending CPU-completion event, if any.
    pub(crate) cpu_event: Option<(Nanos, EventId)>,
    /// Reused buffer for the tasks one CPU-completion event collects.
    pub(crate) done: Vec<RunningTask>,
    /// The server's heavy-edge sample: `(local actor, peer actor) -> msgs`.
    pub edge_sketch: SpaceSaving<(ActorId, ActorId)>,
    /// Location hints left behind by migrations (§4.3). Fx-hashed:
    /// iteration order is never observed, only point lookups.
    pub(crate) location_cache: FxHashMap<ActorId, usize>,
    /// Per-stage estimator windows.
    pub(crate) windows: [StageWindow; 4],
    /// Nanosecond timestamp of the last exchange this server took part in
    /// (the §4.2 cooldown).
    pub last_exchange_ns: Option<u64>,
    /// Per-actor service-demand sample over the current replication
    /// detection window: `actor -> cpu ns`. Offered only when hot-actor
    /// replication is enabled; cleared at every detection tick.
    pub load_sketch: SpaceSaving<ActorId>,
    /// How many times this server's process has restarted: each crash
    /// installs a fresh process one incarnation later.
    pub(crate) incarnation: u32,
}

/// Bound on location-cache entries; reaching it evicts the whole cache
/// ("old cached location values are evicted in order to maintain low space
/// overhead", §4.3).
const LOCATION_CACHE_CAP: usize = 65_536;

impl Server {
    /// A freshly booted server process: every stage at the configured
    /// initial thread count, empty queues, sketches and caches.
    pub fn new(id: usize, config: &RuntimeConfig) -> Self {
        let costs = &config.costs;
        let threads = config.initial_threads_per_stage;
        let mut cpu = PsCpu::new(costs.cores_per_server, costs.ctx_switch_coeff);
        cpu.set_configured_threads(Nanos::ZERO, 4 * threads);
        Server {
            id,
            cpu,
            stages: [
                StagePool::new(StageKind::Receiver.name(), threads),
                StagePool::new(StageKind::Worker.name(), threads),
                StagePool::new(StageKind::ServerSender.name(), threads),
                StagePool::new(StageKind::ClientSender.name(), threads),
            ],
            cpu_event: None,
            done: Vec::new(),
            edge_sketch: SpaceSaving::new(config.sketch_capacity),
            location_cache: FxHashMap::default(),
            windows: [StageWindow::default(); 4],
            last_exchange_ns: None,
            load_sketch: SpaceSaving::new(config.sketch_capacity),
            incarnation: 0,
        }
    }

    /// Restarts the process after a crash: cancels its pending CPU
    /// completion and replaces every piece of process state (queues, CPU,
    /// running tasks, sketches, caches) with a fresh boot's, one
    /// incarnation later.
    pub(crate) fn restart<W>(&mut self, engine: &mut Engine<W>, config: &RuntimeConfig) {
        if let Some((_, id)) = self.cpu_event.take() {
            engine.cancel(id);
        }
        *self = Server {
            incarnation: self.incarnation + 1,
            ..Server::new(self.id, config)
        };
    }

    /// Current thread allocation, in stage order.
    pub fn thread_allocation(&self) -> [usize; 4] {
        [
            self.stages[0].threads(),
            self.stages[1].threads(),
            self.stages[2].threads(),
            self.stages[3].threads(),
        ]
    }

    /// Current queue lengths, in stage order.
    pub fn queue_lengths(&self) -> [usize; 4] {
        [
            self.stages[0].queue_len(),
            self.stages[1].queue_len(),
            self.stages[2].queue_len(),
            self.stages[3].queue_len(),
        ]
    }

    /// Drains the per-stage observation windows.
    pub fn drain_stage_stats(&mut self, now: Nanos) -> [StageReport; 4] {
        let mut out = [StageReport {
            arrivals: 0,
            completions: 0,
            window: Nanos::ZERO,
            sum_wallclock_ns: 0.0,
            sum_cpu_ns: 0.0,
            mean_queue_len: 0.0,
        }; 4];
        for (i, report) in out.iter_mut().enumerate() {
            let pool_stats = self.stages[i].drain_stats(now);
            let window = std::mem::take(&mut self.windows[i]);
            *report = StageReport {
                arrivals: pool_stats.arrivals,
                completions: window.completions,
                window: pool_stats.window,
                sum_wallclock_ns: window.sum_wallclock_ns,
                sum_cpu_ns: window.sum_cpu_ns,
                mean_queue_len: pool_stats.mean_queue_len(),
            };
        }
        out
    }

    /// Sets the per-stage thread counts, in stage order. The caller
    /// re-pumps the pipeline, since extra threads may unblock queued work.
    pub(crate) fn set_threads(&mut self, now: Nanos, allocation: [usize; 4]) {
        for (i, &threads) in allocation.iter().enumerate() {
            self.stages[i].set_threads(now, threads);
        }
        // The multithreading-overhead tax follows the configured total.
        let total: usize = allocation.iter().sum();
        self.cpu.set_configured_threads(now, total);
    }

    /// Points the pending CPU-completion event at `next`, the CPU's next
    /// completion: retargets, cancels or arms it as needed. `tick` is the
    /// backend's completion handler; its payload is the server id.
    pub(crate) fn sync_cpu_event<W>(
        &mut self,
        engine: &mut Engine<W>,
        next: Option<Nanos>,
        tick: TickFn<W>,
    ) {
        match (self.cpu_event, next) {
            (Some((at, _)), Some(target)) if at == target => {}
            (Some((_, id)), Some(target)) => {
                engine.reschedule(id, target);
                self.cpu_event = Some((target, id));
            }
            (Some((_, id)), None) => {
                engine.cancel(id);
                self.cpu_event = None;
            }
            (None, Some(target)) => {
                let id = engine.schedule_tick(target, tick, self.id as u64);
                self.cpu_event = Some((target, id));
            }
            (None, None) => {}
        }
    }

    /// True when nothing is queued or running.
    pub(crate) fn is_idle(&self) -> bool {
        self.cpu.is_idle() && self.stages.iter().all(StagePool::is_idle)
    }

    /// Split-detection candidates, sorted and deduplicated: this window's
    /// sustained heavy hitters primaried here (by guaranteed sketch
    /// weight), plus every replicated actor primaried here (so cooled
    /// actors that fell out of the sketch still get drop decisions), each
    /// with its guaranteed load this window. Resets the window.
    pub(crate) fn take_split_candidates(
        &mut self,
        dir: &DenseDirectory,
        min_load_ns: u64,
    ) -> Vec<(u64, u64)> {
        let mut candidates: Vec<u64> = self
            .load_sketch
            .sustained_heavy_hitters(min_load_ns)
            .map(|e| e.item.0)
            .filter(|&a| dir.server_of(a) == Some(self.id))
            .collect();
        candidates.extend(dir.replicated_primaried_on(self.id));
        candidates.sort_unstable();
        candidates.dedup();
        let loads = candidates
            .into_iter()
            .map(|a| (a, self.load_sketch.lower_bound(&ActorId(a))))
            .collect();
        self.load_sketch.clear();
        loads
    }

    /// Inserts a location hint, evicting everything when the cache is full.
    pub(crate) fn cache_location(&mut self, actor: ActorId, server: usize) {
        if self.location_cache.len() >= LOCATION_CACHE_CAP {
            self.location_cache.clear();
        }
        self.location_cache.insert(actor, server);
    }

    /// Looks up (and consumes) a location hint.
    pub(crate) fn take_location_hint(&mut self, actor: &ActorId) -> Option<usize> {
        self.location_cache.remove(actor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_server_shape() {
        let mut config = RuntimeConfig::single_server(0);
        config.initial_threads_per_stage = 8;
        let s = Server::new(3, &config);
        assert_eq!(s.id, 3);
        assert_eq!(s.thread_allocation(), [8, 8, 8, 8]);
        assert_eq!(s.queue_lengths(), [0, 0, 0, 0]);
        assert_eq!(s.cpu.cores(), config.costs.cores_per_server);
    }

    #[test]
    fn location_cache_hint_roundtrip() {
        let mut s = Server::new(0, &RuntimeConfig::single_server(0));
        s.cache_location(ActorId(7), 4);
        assert_eq!(s.take_location_hint(&ActorId(7)), Some(4));
        assert_eq!(s.take_location_hint(&ActorId(7)), None, "hint consumed");
    }
}
