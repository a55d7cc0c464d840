//! Per-server state: the SEDA pipeline, the shared CPU, and local caches.

use actop_sim::{CostModel, EventId, Nanos, PsCpu, StagePool};
use actop_sketch::{FxHashMap, SpaceSaving};

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
}

/// Bound on location-cache entries; reaching it evicts the whole cache
/// ("old cached location values are evicted in order to maintain low space
/// overhead", §4.3).
const LOCATION_CACHE_CAP: usize = 65_536;

impl Server {
    /// Creates a server with every stage at `threads_per_stage` threads.
    pub fn new(
        id: usize,
        costs: &CostModel,
        threads_per_stage: usize,
        sketch_capacity: usize,
    ) -> Self {
        let mut cpu = PsCpu::new(costs.cores_per_server, costs.ctx_switch_coeff);
        cpu.set_configured_threads(Nanos::ZERO, 4 * threads_per_stage);
        Server {
            id,
            cpu,
            stages: [
                StagePool::new(StageKind::Receiver.name(), threads_per_stage),
                StagePool::new(StageKind::Worker.name(), threads_per_stage),
                StagePool::new(StageKind::ServerSender.name(), threads_per_stage),
                StagePool::new(StageKind::ClientSender.name(), threads_per_stage),
            ],
            cpu_event: None,
            edge_sketch: SpaceSaving::new(sketch_capacity),
            location_cache: FxHashMap::default(),
            windows: [StageWindow::default(); 4],
            last_exchange_ns: None,
            load_sketch: SpaceSaving::new(sketch_capacity),
        }
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
        let costs = CostModel::calibrated();
        let s = Server::new(3, &costs, 8, 128);
        assert_eq!(s.id, 3);
        assert_eq!(s.thread_allocation(), [8, 8, 8, 8]);
        assert_eq!(s.queue_lengths(), [0, 0, 0, 0]);
        assert_eq!(s.cpu.cores(), costs.cores_per_server);
    }

    #[test]
    fn location_cache_hint_roundtrip() {
        let costs = CostModel::calibrated();
        let mut s = Server::new(0, &costs, 1, 16);
        s.cache_location(ActorId(7), 4);
        assert_eq!(s.take_location_hint(&ActorId(7)), Some(4));
        assert_eq!(s.take_location_hint(&ActorId(7)), None, "hint consumed");
    }
}
