//! Criterion microbenchmarks of the hot paths underneath every experiment.
//! Each group measures one simulator layer, named after the per-layer
//! split of the repository benchmark:
//!
//! | group | layer |
//! |---|---|
//! | `engine_*` | event engine (heap) |
//! | `routing_*` | routing/directory and the communication sketch |
//! | `pscpu_*` | CPU/SEDA model (processor-sharing CPU) |
//! | `space_saving_*` | communication sketch (offers, `retain`, `scale`; `_fxmap`: the `FxHashMap`-indexed copy) |
//! | `partition_view_4k_entries_*` | partition policy (view build) |
//! | `candidate_set_2k_vertices_*` | partition policy (candidate scoring) |
//! | `histogram_*` | metrics (latency histogram) |
//! | `select_exchange_*` | partition policy (exchange selection) |
//! | `allocate_threads_*` | SEDA thread allocator (Theorem 2 solve) |

use actop_metrics::LatencyHistogram;
use actop_partition::score::ScoredVertex;
use actop_partition::{
    candidate_set, candidate_set_toward, select_exchange, DenseDirectory, ExchangeRequest,
    Partition, PartitionConfig, PartitionView, ViewScope,
};
use actop_runtime::table::SlabTable;
use actop_seda::allocate_threads;
use actop_seda::model::{SedaModel, StageParams, ETA_CALIBRATED};
use actop_sim::{DetRng, Engine, Nanos, PsCpu};
use actop_sketch::SpaceSaving;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// A faithful copy of the event queue the engine had before the indexed
/// heap: a reversed-`Ord` `BinaryHeap` of boxed closures plus a tombstone
/// set for cancellation (cancelled events stay queued and are skipped at
/// pop time). Kept here so the `engine_*_old` benches report honest
/// old-vs-new numbers from a single binary.
mod legacy {
    use actop_sim::Nanos;
    use std::cmp::Ordering;
    use std::collections::{BinaryHeap, HashSet};

    type EventFn<W> = Box<dyn FnOnce(&mut W, &mut LegacyEngine<W>)>;

    struct Scheduled<W> {
        at: Nanos,
        seq: u64,
        f: EventFn<W>,
    }

    impl<W> PartialEq for Scheduled<W> {
        fn eq(&self, other: &Self) -> bool {
            (self.at, self.seq) == (other.at, other.seq)
        }
    }
    impl<W> Eq for Scheduled<W> {}
    impl<W> PartialOrd for Scheduled<W> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<W> Ord for Scheduled<W> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we want earliest first.
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    pub struct LegacyEngine<W> {
        now: Nanos,
        seq: u64,
        queue: BinaryHeap<Scheduled<W>>,
        cancelled: HashSet<u64>,
        processed: u64,
    }

    impl<W> LegacyEngine<W> {
        pub fn new() -> Self {
            LegacyEngine {
                now: Nanos::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                cancelled: HashSet::new(),
                processed: 0,
            }
        }

        pub fn schedule(
            &mut self,
            at: Nanos,
            f: impl FnOnce(&mut W, &mut LegacyEngine<W>) + 'static,
        ) -> u64 {
            let at = at.max(self.now);
            let seq = self.seq;
            self.seq += 1;
            self.queue.push(Scheduled {
                at,
                seq,
                f: Box::new(f),
            });
            seq
        }

        pub fn cancel(&mut self, id: u64) {
            self.cancelled.insert(id);
        }

        pub fn run(&mut self, world: &mut W) {
            while let Some(ev) = self.queue.pop() {
                if self.cancelled.remove(&ev.seq) {
                    continue;
                }
                self.now = ev.at;
                self.processed += 1;
                (ev.f)(world, self);
            }
        }

        pub fn events_processed(&self) -> u64 {
            self.processed
        }
    }
}

/// The steady-state pattern under the processor-sharing CPU model: a fixed
/// set of provisional completion events, each retargeted many times before
/// any fires. Old kernel: cancel + box + push (tombstones pile up). New
/// kernel: `reschedule` in place.
const RETARGET_SERVERS: u64 = 64;
const RETARGET_OPS: u64 = 50_000;

/// Layer: event engine (heap).
fn bench_engine(c: &mut Criterion) {
    c.bench_function("engine_schedule_run_10k", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            for i in 0..10_000u64 {
                engine.schedule(Nanos(i), |w, _| *w += 1);
            }
            let mut world = 0u64;
            engine.run(&mut world);
            black_box(world)
        })
    });

    // Interleaved schedule/pop churn at a steady queue depth, the generic
    // DES workload shape.
    c.bench_function("engine_churn_interleaved_20k", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            fn chain(w: &mut u64, e: &mut Engine<u64>, hops: u64) {
                *w += 1;
                if hops > 0 {
                    let delay = Nanos(1 + (*w * 2_654_435_761) % 1_000);
                    e.schedule_tick_after(delay, chain, hops - 1);
                }
            }
            for i in 0..200u64 {
                engine.schedule_tick(Nanos(i), chain, 99);
            }
            let mut world = 0u64;
            engine.run(&mut world);
            black_box(world)
        })
    });

    c.bench_function("engine_cancel_heavy_old", |b| {
        b.iter(|| {
            let mut engine: legacy::LegacyEngine<u64> = legacy::LegacyEngine::new();
            let mut rng = DetRng::new(99);
            let mut ids: Vec<u64> = (0..RETARGET_SERVERS)
                .map(|s| engine.schedule(Nanos(1_000 + s), |w, _| *w += 1))
                .collect();
            let mut horizon = 1_000u64;
            for op in 0..RETARGET_OPS {
                let server = (op % RETARGET_SERVERS) as usize;
                horizon += rng.below(32) as u64;
                engine.cancel(ids[server]);
                ids[server] = engine.schedule(Nanos(horizon), |w, _| *w += 1);
            }
            let mut world = 0u64;
            engine.run(&mut world);
            black_box((world, engine.events_processed()))
        })
    });

    c.bench_function("engine_cancel_heavy_new", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            fn fire(w: &mut u64, _e: &mut Engine<u64>, _payload: u64) {
                *w += 1;
            }
            let mut rng = DetRng::new(99);
            let ids: Vec<_> = (0..RETARGET_SERVERS)
                .map(|s| engine.schedule_tick(Nanos(1_000 + s), fire, s))
                .collect();
            let mut horizon = 1_000u64;
            for op in 0..RETARGET_OPS {
                let server = (op % RETARGET_SERVERS) as usize;
                horizon += rng.below(32) as u64;
                engine.reschedule(ids[server], Nanos(horizon));
            }
            let mut world = 0u64;
            engine.run(&mut world);
            black_box((world, engine.events_processed()))
        })
    });

    // The reschedule fast path in isolation: small time nudges, so the
    // sift distance stays short.
    c.bench_function("engine_reschedule_nudge_50k", |b| {
        b.iter(|| {
            let mut engine: Engine<u64> = Engine::new();
            fn fire(w: &mut u64, _e: &mut Engine<u64>, _payload: u64) {
                *w += 1;
            }
            let ids: Vec<_> = (0..1_000u64)
                .map(|i| engine.schedule_tick(Nanos(10_000 + i * 100), fire, i))
                .collect();
            for op in 0..50_000u64 {
                let idx = ((op * 2_654_435_761) % 1_000) as usize;
                let nudge = 10_000 + (op % 97) * 100;
                engine.reschedule(ids[idx], Nanos(nudge + idx as u64));
            }
            let mut world = 0u64;
            engine.run(&mut world);
            black_box(world)
        })
    });
}

/// A faithful copy of the `BTreeSet<(count, slot)>` Space-Saving sketch
/// the runtime had before the lazy-min fast path, for honest old-vs-new
/// `routing_sketch_*` numbers (same role as [`legacy`] for the engine).
mod legacy_sketch {
    use std::collections::{BTreeSet, HashMap};
    use std::hash::Hash;

    pub struct SpaceSaving<T> {
        capacity: usize,
        counts: Vec<u64>,
        items: Vec<T>,
        index: HashMap<T, usize>,
        by_count: BTreeSet<(u64, usize)>,
    }

    impl<T: Eq + Hash + Clone> SpaceSaving<T> {
        pub fn new(capacity: usize) -> Self {
            SpaceSaving {
                capacity,
                counts: Vec::new(),
                items: Vec::new(),
                index: HashMap::new(),
                by_count: BTreeSet::new(),
            }
        }

        pub fn len(&self) -> usize {
            self.items.len()
        }

        pub fn offer(&mut self, item: T, weight: u64) {
            if let Some(&slot) = self.index.get(&item) {
                let old = self.counts[slot];
                self.by_count.remove(&(old, slot));
                self.counts[slot] = old + weight;
                self.by_count.insert((old + weight, slot));
                return;
            }
            if self.items.len() < self.capacity {
                let slot = self.items.len();
                self.items.push(item.clone());
                self.counts.push(weight);
                self.index.insert(item, slot);
                self.by_count.insert((weight, slot));
                return;
            }
            let &(min_count, slot) = self.by_count.iter().next().expect("full");
            self.by_count.remove(&(min_count, slot));
            let evicted = std::mem::replace(&mut self.items[slot], item.clone());
            self.counts[slot] = min_count + weight;
            self.index.remove(&evicted);
            self.index.insert(item, slot);
            self.by_count.insert((min_count + weight, slot));
        }
    }
}

/// The per-message routing structures, old vs new: directory lookups
/// (`HashMap` partition vs dense region table), join-table churn
/// (counter-keyed `HashMap` vs generation-tagged slab), and sketch offers
/// (`BTreeSet` min-tracking vs the lazy-min fast path).
///
/// Layer: routing/directory and the communication sketch.
fn bench_routing(c: &mut Criterion) {
    // Two id bands, the Halo shape: players dense at 0.., games at 2^40.
    const PLAYERS: u64 = 20_000;
    const GAME_BASE: u64 = 1 << 40;
    const GAMES: u64 = 1_500;
    let mut rng = DetRng::new(11);
    let lookups: Vec<u64> = (0..50_000)
        .map(|_| {
            if rng.chance(0.8) {
                rng.below(PLAYERS as usize) as u64
            } else {
                GAME_BASE + rng.below(GAMES as usize) as u64
            }
        })
        .collect();

    // The pre-overhaul directory: `Partition`'s assignment map with the
    // standard library's SipHash hasher (today's `Partition` already uses
    // the fx hasher, so a plain `HashMap` is the faithful baseline).
    c.bench_function("routing_directory_lookup_old", |b| {
        let mut dir: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for v in (0..PLAYERS).chain((0..GAMES).map(|g| GAME_BASE + g)) {
            dir.insert(v, (v % 8) as usize);
        }
        b.iter(|| {
            let mut acc = 0usize;
            for v in &lookups {
                acc += dir.get(v).copied().unwrap_or(0);
            }
            black_box(acc)
        })
    });

    // The fx-hashed map the rest of the refactor would have settled for:
    // isolates how much of the directory win is the hasher vs the table.
    c.bench_function("routing_directory_lookup_fx", |b| {
        let mut dir: Partition<u64> = Partition::new(8);
        for v in (0..PLAYERS).chain((0..GAMES).map(|g| GAME_BASE + g)) {
            dir.place(v, (v % 8) as usize);
        }
        b.iter(|| {
            let mut acc = 0usize;
            for v in &lookups {
                acc += dir.server_of(v).unwrap_or(0);
            }
            black_box(acc)
        })
    });

    c.bench_function("routing_directory_lookup_new", |b| {
        let mut dir = DenseDirectory::new(8);
        for v in (0..PLAYERS).chain((0..GAMES).map(|g| GAME_BASE + g)) {
            dir.place(v, (v % 8) as usize);
        }
        b.iter(|| {
            let mut acc = 0usize;
            for v in &lookups {
                acc += dir.server_of(*v).unwrap_or(0);
            }
            black_box(acc)
        })
    });

    // Join-table lifecycle at a steady in-flight population, the cluster's
    // request/join churn shape: insert, resolve a few times, remove.
    const INFLIGHT: usize = 512;
    const CHURN: usize = 20_000;

    c.bench_function("routing_join_resolve_old", |b| {
        b.iter(|| {
            let mut table: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
            let mut next_id = 0u64;
            let mut live: Vec<u64> = Vec::with_capacity(INFLIGHT);
            for _ in 0..INFLIGHT {
                table.insert(next_id, next_id * 3);
                live.push(next_id);
                next_id += 1;
            }
            let mut acc = 0u64;
            for i in 0..CHURN {
                let victim = live[i % INFLIGHT];
                acc += *table.get(&victim).unwrap();
                *table.get_mut(&victim).unwrap() += 1;
                table.remove(&victim);
                table.insert(next_id, next_id * 3);
                live[i % INFLIGHT] = next_id;
                next_id += 1;
            }
            black_box(acc)
        })
    });

    c.bench_function("routing_join_resolve_new", |b| {
        b.iter(|| {
            let mut table: SlabTable<u64> = SlabTable::new();
            let mut next_val = 0u64;
            let mut live: Vec<u64> = Vec::with_capacity(INFLIGHT);
            for _ in 0..INFLIGHT {
                live.push(table.insert(next_val * 3));
                next_val += 1;
            }
            let mut acc = 0u64;
            for i in 0..CHURN {
                let victim = live[i % INFLIGHT];
                acc += *table.get(victim).unwrap();
                *table.get_mut(victim).unwrap() += 1;
                table.remove(victim);
                live[i % INFLIGHT] = table.insert(next_val * 3);
                next_val += 1;
            }
            black_box(acc)
        })
    });

    // Sketch offers on the note_actor_message shape: a capacity-bounded
    // sample under a heavy-tailed edge stream (mostly monitored hits,
    // steady eviction pressure from the tail).
    let mut rng = DetRng::new(13);
    let stream: Vec<u64> = (0..50_000)
        .map(|_| {
            if rng.chance(0.75) {
                rng.below(512) as u64 // hot edges, monitored
            } else {
                rng.below(1 << 20) as u64 // tail, mostly evictions
            }
        })
        .collect();

    c.bench_function("routing_sketch_offer_old", |b| {
        b.iter(|| {
            let mut sketch: legacy_sketch::SpaceSaving<u64> = legacy_sketch::SpaceSaving::new(1024);
            for &item in &stream {
                sketch.offer(item, 1);
            }
            black_box(sketch.len())
        })
    });

    c.bench_function("routing_sketch_offer_new", |b| {
        b.iter(|| {
            let mut sketch: SpaceSaving<u64> = SpaceSaving::new(1024);
            for &item in &stream {
                sketch.offer(item, 1);
            }
            black_box(sketch.len())
        })
    });
}

/// Layer: CPU/SEDA model. A burst of 1K tasks drained to idle.
fn bench_cpu(c: &mut Criterion) {
    c.bench_function("pscpu_1k_tasks", |b| {
        let mut done = Vec::new();
        b.iter(|| {
            let mut cpu = PsCpu::new(8, 0.018);
            cpu.set_configured_threads(Nanos::ZERO, 32);
            let mut t = Nanos::ZERO;
            for i in 0..1_000u64 {
                cpu.add(t, 50_000.0, i);
                t += Nanos(10_000);
                cpu.advance(t);
            }
            while let Some(next) = cpu.next_completion() {
                cpu.advance(next);
                t = next;
            }
            done.clear();
            cpu.drain_completed(t, &mut done);
            black_box(done.len())
        })
    });
}

/// Completion cycles per `pscpu_steady_*` iteration.
const STEADY_CYCLES: u64 = 1_000;

/// Layer: CPU/SEDA model at a fixed runnable count, the runtime's
/// steady-state call pattern: an arrival between completions (`add`), the
/// completion event (`drain_completed`), a replacement task, and the
/// re-arm (`next_completion`) after each.
fn bench_cpu_steady(c: &mut Criterion) {
    for runnable in [4usize, 16, 64] {
        let mut rng = DetRng::new(17);
        let demands: Vec<f64> = (0..4_096).map(|_| 5_000.0 + rng.exp(20_000.0)).collect();
        c.bench_function(&format!("pscpu_steady_{runnable}"), |b| {
            let mut done = Vec::with_capacity(runnable);
            b.iter(|| {
                let mut cpu = PsCpu::new(8, 0.018);
                cpu.set_configured_threads(Nanos::ZERO, 32);
                let mut next_demand = 0usize;
                let mut demand = || {
                    next_demand = (next_demand + 1) % demands.len();
                    demands[next_demand]
                };
                for i in 0..runnable as u64 {
                    cpu.add(Nanos::ZERO, demand(), i);
                }
                let mut now = Nanos::ZERO;
                let mut payload = runnable as u64;
                let mut drained = 0usize;
                for _ in 0..STEADY_CYCLES {
                    let at = cpu.next_completion().expect("runnable tasks");
                    // An arrival halfway to the next completion.
                    now = Nanos(now.as_nanos() + (at.as_nanos() - now.as_nanos()) / 2);
                    cpu.add(now, demand(), payload);
                    payload += 1;
                    now = cpu.next_completion().expect("runnable tasks");
                    cpu.drain_completed(now, &mut done);
                    drained += done.len();
                    done.clear();
                    while cpu.runnable() < runnable {
                        cpu.add(now, demand(), payload);
                        payload += 1;
                    }
                }
                black_box((drained, cpu.busy_core_ns()))
            })
        });
    }
}

/// A verbatim copy of the Space-Saving sketch as it was before its
/// compact slot index, indexed by an `FxHashMap<T, usize>` (the methods
/// the benches call), for honest old-vs-new `space_saving_*` numbers
/// (same role as [`legacy_sketch`] for the `BTreeSet` one).
mod fxmap_sketch {
    use std::hash::Hash;

    use actop_sketch::{FxHashMap, SketchEntry};

    #[derive(Debug, Clone)]
    pub struct SpaceSaving<T> {
        capacity: usize,
        slots: Vec<SketchEntry<T>>,
        index: FxHashMap<T, usize>,
        /// Lower bound on the minimum counter; exact whenever `min_queue`
        /// holds a slot whose counter still equals it.
        min_count: u64,
        /// Slot indices that had `count == min_count` at the last rescan, in
        /// ascending slot order. Consumed front-to-back via `min_cursor`;
        /// stale entries (counter since grown) are skipped at pop time.
        min_queue: Vec<usize>,
        /// Read position in `min_queue`.
        min_cursor: usize,
        /// Number of live slots (`count > 0`); `slots.len() - live` are dead.
        live: usize,
        total_weight: u64,
    }

    impl<T: Eq + Hash + Clone> SpaceSaving<T> {
        /// Creates a sketch monitoring at most `capacity` items.
        ///
        /// # Panics
        ///
        /// Panics if `capacity == 0`.
        pub fn new(capacity: usize) -> Self {
            assert!(capacity > 0, "sketch capacity must be positive");
            SpaceSaving {
                capacity,
                slots: Vec::with_capacity(capacity.min(4096)),
                index: FxHashMap::default(),
                min_count: 0,
                min_queue: Vec::new(),
                min_cursor: 0,
                live: 0,
                total_weight: 0,
            }
        }

        /// Number of currently monitored items.
        pub fn len(&self) -> usize {
            self.live
        }

        /// Invalidates the cached minimum; the next eviction rescans.
        #[inline]
        fn invalidate_min(&mut self) {
            self.min_count = 0;
            self.min_queue.clear();
            self.min_cursor = 0;
        }

        /// The slot holding the minimum counter, breaking ties toward the
        /// smallest slot index (the same order the old `BTreeSet<(count,
        /// slot)>` structure produced). Amortized O(1); O(capacity) when the
        /// candidate queue must be rebuilt.
        fn take_min_slot(&mut self) -> (u64, usize) {
            loop {
                while self.min_cursor < self.min_queue.len() {
                    let slot = self.min_queue[self.min_cursor];
                    self.min_cursor += 1;
                    // Counters only grow between rescans, so a candidate is
                    // either still exactly at the cached minimum or stale.
                    if self.slots[slot].count == self.min_count {
                        return (self.min_count, slot);
                    }
                }
                // Queue exhausted: the true minimum rose. Rescan, collecting
                // every slot at the new minimum in ascending slot order.
                let min = self
                    .slots
                    .iter()
                    .map(|e| e.count)
                    .filter(|&c| c != 0)
                    .min()
                    .expect("take_min_slot on empty sketch");
                self.min_count = min;
                self.min_queue.clear();
                self.min_cursor = 0;
                for (slot, entry) in self.slots.iter().enumerate() {
                    if entry.count == min {
                        self.min_queue.push(slot);
                    }
                }
            }
        }

        /// Offers `weight` units of the item to the stream.
        #[inline]
        pub fn offer(&mut self, item: T, weight: u64) {
            if weight == 0 {
                return;
            }
            self.total_weight += weight;
            if let Some(&slot) = self.index.get(&item) {
                // Monitored hit: pure increment. Min-tracking is lazy — if
                // this slot sits in the candidate queue it becomes stale and
                // is skipped at the next eviction.
                self.slots[slot].count += weight;
                return;
            }
            self.offer_slow(item, weight);
        }

        /// The unmonitored-item path: fill a free slot or evict the minimum.
        fn offer_slow(&mut self, item: T, weight: u64) {
            if self.live < self.capacity {
                if self.slots.len() == self.capacity {
                    self.compact();
                }
                // A fresh slot may undercut the cached minimum; drop the
                // cache rather than splice the new slot into the queue.
                self.invalidate_min();
                self.live += 1;
                let slot = self.slots.len();
                self.slots.push(SketchEntry {
                    item: item.clone(),
                    count: weight,
                    error: 0,
                });
                self.index.insert(item, slot);
                return;
            }
            // Evict the minimum-count item; the newcomer inherits its count as
            // overestimation error. Every slot is live here (`live ==
            // capacity >= slots.len()`).
            let (min_count, slot) = self.take_min_slot();
            let evicted = std::mem::replace(
                &mut self.slots[slot],
                SketchEntry {
                    item: item.clone(),
                    count: min_count + weight,
                    error: min_count,
                },
            );
            self.index.remove(&evicted.item);
            self.index.insert(item, slot);
        }

        /// Multiplies every counter (and error) by `factor` in `[0, 1]`,
        /// dropping entries that reach zero. Periodic scaling makes the sketch
        /// track the recent stream — essential for rapidly changing
        /// communication graphs.
        ///
        /// # Panics
        ///
        /// Panics if `factor` is not in `[0, 1]`.
        pub fn scale(&mut self, factor: f64) {
            assert!(
                (0.0..=1.0).contains(&factor),
                "scale factor must be in [0,1], got {factor}"
            );
            self.invalidate_min();
            self.total_weight = (self.total_weight as f64 * factor) as u64;
            // One order-preserving pass scales the live slots in place and
            // drops the zeroed and the dead ones, keeping the vector's
            // allocation. Aging zeroes many slots, so one index rebuild over
            // the survivors beats a removal per dropped key.
            self.slots.retain_mut(|entry| {
                if entry.count == 0 {
                    return false; // Dead.
                }
                entry.count = (entry.count as f64 * factor) as u64;
                entry.error = (entry.error as f64 * factor) as u64;
                entry.count != 0
            });
            self.live = self.slots.len();
            self.index.clear();
            for (slot, entry) in self.slots.iter().enumerate() {
                self.index.insert(entry.item.clone(), slot);
            }
        }

        /// Keeps only the entries whose item satisfies the predicate (e.g.
        /// drop every edge of an actor that migrated away). Dropped slots die
        /// in place and only their keys leave the index: one predicate call
        /// per slot plus O(dropped) hashing. Compacts once dead slots outnumber
        /// a quarter of the live ones.
        pub fn retain(&mut self, mut pred: impl FnMut(&T) -> bool) {
            let mut dropped = 0;
            for entry in &mut self.slots {
                if entry.count != 0 && !pred(&entry.item) {
                    entry.count = 0;
                    self.index.remove(&entry.item);
                    dropped += 1;
                }
            }
            self.live -= dropped;
            // Compacting at a quarter keeps the next scans short: every
            // `retain` reads every slot, dead ones included.
            if 4 * (self.slots.len() - self.live) > self.live {
                self.compact();
            }
        }

        /// Moves the live entry at slot `from` to slot `to` (swapping whatever
        /// was there to `from`) and repoints its index entry. No-op when the
        /// two coincide.
        #[inline]
        fn move_slot(&mut self, from: usize, to: usize) {
            if from != to {
                self.slots.swap(from, to);
                *self
                    .index
                    .get_mut(&self.slots[to].item)
                    .expect("live slot is indexed") = to;
            }
        }

        /// Drops every dead slot, keeping the live ones in order. Only slots
        /// that move have their index entry rewritten.
        fn compact(&mut self) {
            let mut write = 0;
            for read in 0..self.slots.len() {
                if self.slots[read].count != 0 {
                    self.move_slot(read, write);
                    write += 1;
                }
            }
            self.slots.truncate(write);
            // Queued min candidates pointed at pre-compaction slots.
            self.invalidate_min();
        }
    }
}

/// The sketch operations the `space_saving_*` bodies drive, so that each
/// body runs on today's sketch and on [`fxmap_sketch`]'s copy (suffix
/// `_fxmap`).
trait Sketch<T>: Sized {
    fn new(capacity: usize) -> Self;
    fn offer(&mut self, item: T, weight: u64);
    fn retain(&mut self, pred: impl FnMut(&T) -> bool);
    fn scale(&mut self, factor: f64);
    fn len(&self) -> usize;
}

macro_rules! impl_sketch {
    ($sketch:ident) => {
        impl<T: Eq + std::hash::Hash + Clone> Sketch<T> for $sketch<T> {
            fn new(capacity: usize) -> Self {
                $sketch::new(capacity)
            }
            fn offer(&mut self, item: T, weight: u64) {
                $sketch::offer(self, item, weight)
            }
            fn retain(&mut self, pred: impl FnMut(&T) -> bool) {
                $sketch::retain(self, pred)
            }
            fn scale(&mut self, factor: f64) {
                $sketch::scale(self, factor)
            }
            fn len(&self) -> usize {
                $sketch::len(self)
            }
        }
    };
}

use fxmap_sketch::SpaceSaving as FxMapSketch;
impl_sketch!(SpaceSaving);
impl_sketch!(FxMapSketch);

const ACTORS: u64 = 525;
const EDGES: u64 = 8;

/// `ACTORS × EDGES` edges `(local, peer)`, the halo-actop edge-sketch
/// shape (~4.2K live entries of a 16,384-slot sketch), and a sketch
/// holding them, each at weight `1 + peer % 7`.
fn halo_edges<S: Sketch<(u64, u64)>>() -> (Vec<(u64, u64)>, S) {
    let mut rng = DetRng::new(8);
    let edges: Vec<(u64, u64)> = (0..ACTORS * EDGES)
        .map(|i| (i / EDGES, rng.below(100_000) as u64))
        .collect();
    let mut sketch = S::new(16_384);
    for &edge in &edges {
        sketch.offer(edge, 1 + edge.1 % 7);
    }
    (edges, sketch)
}

/// Layer: communication sketch (Space-Saving offers, `retain`, `scale`),
/// each body on today's sketch and, suffixed `_fxmap`, on the copy with
/// the `FxHashMap` index.
fn bench_sketch(c: &mut Criterion) {
    bench_sketch_on::<SpaceSaving<u64>, SpaceSaving<(u64, u64)>>(c, "");
    bench_sketch_on::<FxMapSketch<u64>, FxMapSketch<(u64, u64)>>(c, "_fxmap");
}

fn bench_sketch_on<S: Sketch<u64>, P: Sketch<(u64, u64)>>(c: &mut Criterion, suffix: &str) {
    // 10K offers of 4,096 items into 1,024 slots: hits and evictions.
    c.bench_function(&format!("space_saving_offer_10k{suffix}"), |b| {
        let mut rng = DetRng::new(5);
        let stream: Vec<(u64, u64)> = (0..10_000).map(|_| (rng.below(4096) as u64, 1)).collect();
        b.iter(|| {
            let mut sketch = S::new(1024);
            for &(item, w) in &stream {
                sketch.offer(item, w);
            }
            black_box(sketch.len())
        })
    });

    // Offer hits: 10K offers of edges the halo-shaped sketch monitors.
    c.bench_function(&format!("space_saving_offer_hit_4k{suffix}"), |b| {
        let (edges, mut sketch) = halo_edges::<P>();
        let mut rng = DetRng::new(9);
        let stream: Vec<(u64, u64)> = (0..10_000).map(|_| edges[rng.below(edges.len())]).collect();
        b.iter(|| {
            for &edge in &stream {
                sketch.offer(edge, 1);
            }
            black_box(sketch.len())
        })
    });

    // Offer misses: 10K never-seen edges into a full 4,096-slot sketch,
    // so every offer probes, misses and evicts.
    c.bench_function(&format!("space_saving_offer_miss_4k{suffix}"), |b| {
        let mut sketch = P::new(4_096);
        let mut next = 0u64;
        b.iter(|| {
            for _ in 0..10_000 {
                sketch.offer((next / 8, next.wrapping_mul(7_919)), 1);
                next += 1;
            }
            black_box(sketch.len())
        })
    });

    // The migration path: drop one migrated actor's ~8 edges, then
    // re-offer them so the population stays put.
    c.bench_function(&format!("space_saving_retain_actor_16k{suffix}"), |b| {
        let (edges, mut sketch) = halo_edges::<P>();
        let mut next = 0;
        b.iter(|| {
            let actor = next % ACTORS;
            next += 1;
            sketch.retain(|&(local, _)| local != actor);
            let own = (actor * EDGES) as usize..((actor + 1) * EDGES) as usize;
            for &edge in &edges[own] {
                sketch.offer(edge, 1 + edge.1 % 7);
            }
            black_box(sketch.len())
        })
    });

    // The per-tick aging: halve every counter (dropping the weight-1
    // edges and rebuilding the index), then re-offer every edge, which
    // brings the sketch back to its steady state.
    c.bench_function(&format!("space_saving_scale_16k{suffix}"), |b| {
        let (edges, mut sketch) = halo_edges::<P>();
        b.iter(|| {
            sketch.scale(0.5);
            for &edge in &edges {
                sketch.offer(edge, 1 + edge.1 % 7);
            }
            black_box(sketch.len())
        })
    });
}

/// Layer: partition policy (view build). One server's edge sketch at the
/// halo-actop shape: ~4K live `(local, peer)` entries of a 16,384-slot
/// sketch over ~2K local vertices. One vertex in seven talks to peers on
/// other servers (the rest only to co-located peers), so the movable
/// view keeps a seventh of the vertices. Each iteration refills a reused
/// view from the sketch, as a partition round does.
fn bench_partition_view(c: &mut Criterion) {
    const LOCALS: usize = 2_048;
    const REMOTE_BASE: u32 = 10_000;
    let mut rng = DetRng::new(10);
    let mut sketch: SpaceSaving<(u32, u32)> = SpaceSaving::new(16_384);
    for _ in 0..4_096 {
        let local = rng.below(LOCALS) as u32;
        let peer = if local.is_multiple_of(7) {
            REMOTE_BASE + rng.below(10_000) as u32
        } else {
            rng.below(LOCALS) as u32
        };
        sketch.offer((local, peer), 1 + rng.below(20) as u64);
    }
    // Locals and their co-located peers on server 0; remote peers spread
    // over servers 1..=9.
    let locate = |v: &u32| {
        Some(if *v < REMOTE_BASE {
            0
        } else {
            1 + *v as usize % 9
        })
    };
    for (name, scope) in [
        ("partition_view_4k_entries_full", ViewScope::Full),
        ("partition_view_4k_entries_movable", ViewScope::Movable),
    ] {
        let mut view = PartitionView::new();
        c.bench_function(name, |b| {
            b.iter(|| {
                let entries = sketch.iter_entries().map(|e| (e.item.0, e.item.1, e.count));
                view.fill(0, scope, entries, locate);
                black_box(view.edge_count())
            })
        });
    }
}

/// Layer: partition policy (candidate scoring). One server's local view at
/// the halo-actop shape: 2,000 vertices with 8 edges each across 10
/// servers, `k` = 128. The initiator builds every destination's set; the
/// responder only its set toward the initiator.
fn bench_candidate_set(c: &mut Criterion) {
    const SERVERS: usize = 10;
    const PEERS: usize = 20_000;
    let mut rng = DetRng::new(9);
    let placement: Vec<usize> = (0..PEERS).map(|_| rng.below(SERVERS)).collect();
    let mut view = PartitionView::new();
    for v in 0..2_000 {
        let edges: Vec<(u32, u64)> = (0..8)
            .map(|_| (rng.below(PEERS) as u32, rng.below(20) as u64 + 1))
            .collect();
        view.push(v, &edges);
    }
    let locate = |p: &u32| Some(placement[*p as usize]);
    c.bench_function("candidate_set_2k_vertices_initiator", |b| {
        b.iter(|| black_box(candidate_set(&view, 0, SERVERS, 128, locate).len()))
    });
    c.bench_function("candidate_set_2k_vertices_responder", |b| {
        b.iter(|| black_box(candidate_set_toward(&view, 3, SERVERS, 128, 0, locate).len()))
    });
}

/// Layer: metrics (latency histogram record and quantiles).
fn bench_hist(c: &mut Criterion) {
    c.bench_function("histogram_record_and_quantile_10k", |b| {
        let mut rng = DetRng::new(6);
        let values: Vec<u64> = (0..10_000).map(|_| (rng.exp(5e6)) as u64).collect();
        b.iter(|| {
            let mut hist = LatencyHistogram::new();
            for &v in &values {
                hist.record(v);
            }
            black_box((hist.quantile(0.5), hist.quantile(0.99)))
        })
    });
}

/// Layer: partition policy (ActOp exchange selection).
fn bench_exchange(c: &mut Criterion) {
    c.bench_function("select_exchange_128_candidates", |b| {
        let mut rng = DetRng::new(7);
        let make_cands = |rng: &mut DetRng, base: u32| -> Vec<ScoredVertex<u32>> {
            (0..128)
                .map(|i| ScoredVertex {
                    vertex: base + i,
                    score: rng.below(100) as i64 + 1,
                    edges: (0..8)
                        .map(|_| (rng.below(4096) as u32, rng.below(20) as u64 + 1))
                        .collect(),
                })
                .collect()
        };
        let incoming = make_cands(&mut rng, 0);
        let own = make_cands(&mut rng, 10_000);
        let request = ExchangeRequest {
            from: 0,
            from_size: 2_000,
            candidates: incoming,
        };
        let config = PartitionConfig {
            candidate_set_size: 128,
            imbalance_tolerance: 64,
            exchange_cooldown_ns: 0,
            min_total_score: 1,
        };
        b.iter(|| black_box(select_exchange(&request, 2_000, &own, &config).moves()))
    });
}

/// Layer: SEDA thread allocator (Theorem 2 closed-form solve).
fn bench_allocator(c: &mut Criterion) {
    c.bench_function("allocate_threads_4_stages", |b| {
        let model = SedaModel::new(
            vec![
                StageParams::cpu_bound(4_000.0, 7_000.0),
                StageParams::cpu_bound(11_000.0, 6_000.0),
                StageParams::cpu_bound(3_500.0, 7_000.0),
                StageParams::cpu_bound(600.0, 9_000.0),
            ],
            8,
            ETA_CALIBRATED,
        )
        .unwrap();
        b.iter(|| black_box(allocate_threads(&model).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_engine,
    bench_routing,
    bench_cpu,
    bench_cpu_steady,
    bench_sketch,
    bench_partition_view,
    bench_candidate_set,
    bench_hist,
    bench_exchange,
    bench_allocator
);
criterion_main!(benches);
