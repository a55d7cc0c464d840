//! Differential test: the processor-sharing CPU and the SEDA stage pool
//! against the implementations they replaced.
//!
//! The reference models are the previous `PsCpu` (a `CpuTaskId` per task,
//! the minimum remaining demand re-folded on every step) and `StagePool`
//! (floating-point integrals, integrated on every `try_start`), kept
//! verbatim below. Both sides consume the same random script, and every
//! observable must agree bit for bit: `next_completion`, completion order
//! and payload identity, `busy_core_ns().to_bits()`, `runnable()`, the
//! rate, and every `StageStats` field (integrals compared by `to_bits`).

use std::collections::HashMap;

use actop_sim::{Nanos, PsCpu, StagePool, StageStats};
use proptest::prelude::*;

/// The `PsCpu` before payloads and the cached minimum.
#[allow(dead_code)]
mod reference_cpu {
    use actop_sim::Nanos;

    /// Identifier of a task running on a [`PsCpu`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct CpuTaskId(u64);

    #[derive(Debug, Clone)]
    struct Task {
        id: CpuTaskId,
        /// Remaining pure-CPU demand in nanoseconds.
        remaining: f64,
    }

    /// Processor-sharing CPU with `cores` cores and a context-switch penalty.
    #[derive(Debug, Clone)]
    pub struct PsCpu {
        cores: f64,
        ctx_coeff: f64,
        /// Total threads configured across the server's stage pools.
        configured_threads: usize,
        /// True while the CPU is stalled by a stop-the-world pause (GC).
        paused: bool,
        /// Service-rate multiplier (1.0 = healthy). Fault injection models CPU
        /// stragglers and gray failures by scaling every task's progress rate:
        /// the server keeps accepting work but services it at `rate_factor`
        /// speed.
        rate_factor: f64,
        tasks: Vec<Task>,
        last_update: Nanos,
        next_id: u64,
        /// Integral of occupied cores over time, in core-nanoseconds.
        busy_core_ns: f64,
        completed: Vec<CpuTaskId>,
    }

    /// Residual demand below this many nanoseconds counts as completed.
    const DONE_EPS: f64 = 1e-3;

    impl PsCpu {
        /// Creates a CPU with the given core count and context-switch
        /// coefficient (`kappa`, slowdown per runnable thread beyond the core
        /// count; `0.0` disables the penalty).
        ///
        /// # Panics
        ///
        /// Panics if `cores == 0` or `ctx_coeff < 0`.
        pub fn new(cores: usize, ctx_coeff: f64) -> Self {
            assert!(cores > 0, "server needs at least one core");
            assert!(ctx_coeff >= 0.0, "negative context-switch coefficient");
            PsCpu {
                cores: cores as f64,
                ctx_coeff,
                configured_threads: cores,
                paused: false,
                rate_factor: 1.0,
                tasks: Vec::new(),
                last_update: Nanos::ZERO,
                next_id: 0,
                busy_core_ns: 0.0,
                completed: Vec::new(),
            }
        }

        /// Updates the total configured thread count (applies progress at the
        /// old rate first). The owner must re-arm its completion event
        /// afterwards, as pending completion times change.
        pub fn set_configured_threads(&mut self, now: Nanos, total: usize) {
            self.advance(now);
            self.configured_threads = total;
        }

        /// Total configured threads.
        pub fn configured_threads(&self) -> usize {
            self.configured_threads
        }

        /// The effective core capacity under the current thread configuration.
        pub fn effective_cores(&self) -> f64 {
            let extra = (self.configured_threads as f64 - self.cores).max(0.0);
            self.cores / (1.0 + self.ctx_coeff * extra)
        }

        /// Begins a stop-the-world pause (e.g. a garbage collection): no task
        /// makes progress until [`PsCpu::resume`], and the cores count as busy
        /// (the collector is using them). The owner must re-arm its completion
        /// event — [`PsCpu::next_completion`] returns `None` while paused.
        pub fn pause(&mut self, now: Nanos) {
            self.advance(now);
            self.paused = true;
        }

        /// Ends a stop-the-world pause.
        pub fn resume(&mut self, now: Nanos) {
            self.advance(now);
            self.paused = false;
        }

        /// Sets the service-rate multiplier (applies progress at the old rate
        /// first). `1.0` restores a healthy CPU; values below `1.0` model a
        /// straggler, values near zero a gray failure. The owner must re-arm
        /// its completion event afterwards, as pending completion times change.
        ///
        /// # Panics
        ///
        /// Panics unless `factor` is finite and positive.
        pub fn set_rate_factor(&mut self, now: Nanos, factor: f64) {
            assert!(
                factor.is_finite() && factor > 0.0,
                "invalid rate factor {factor}"
            );
            self.advance(now);
            self.rate_factor = factor;
        }

        /// The current service-rate multiplier.
        pub fn rate_factor(&self) -> f64 {
            self.rate_factor
        }

        /// True while a stop-the-world pause is in effect.
        pub fn is_paused(&self) -> bool {
            self.paused
        }

        /// Number of physical cores.
        pub fn cores(&self) -> usize {
            self.cores as usize
        }

        /// Number of currently runnable tasks.
        pub fn runnable(&self) -> usize {
            self.tasks.len()
        }

        /// Per-task progress rate (fraction of a dedicated core) with `n`
        /// runnable tasks: `p_eff / max(n, p)`. The `max` term means the
        /// multithreading tax slows *every* task — even a lone one — not just
        /// saturated servers: scheduler wakeup latency and cache pressure from
        /// an oversized thread pool are paid per event, which is why the
        /// paper's Fig. 5 shows over-threading hurting latency well below
        /// saturation.
        fn rate_with(&self, n: usize) -> f64 {
            if n == 0 || self.paused {
                return 0.0;
            }
            self.rate_factor * self.effective_cores() / (n as f64).max(self.cores)
        }

        /// Current per-task progress rate.
        pub fn rate(&self) -> f64 {
            self.rate_with(self.tasks.len())
        }

        /// The current slowdown factor: wall-clock time per unit of CPU demand.
        /// Equals `1.0` when a task has a dedicated core.
        pub fn slowdown(&self) -> f64 {
            let r = self.rate();
            if r == 0.0 {
                1.0
            } else {
                1.0 / r
            }
        }

        /// Advances internal state to `now`, applying progress to all runnable
        /// tasks and moving finished tasks to the completed list.
        ///
        /// Completion boundaries inside the interval are handled exactly: when a
        /// task finishes partway through, the remaining tasks speed up for the
        /// rest of the interval, so callers may advance by arbitrary spans.
        ///
        /// # Panics
        ///
        /// Panics if `now` is earlier than the last update.
        pub fn advance(&mut self, now: Nanos) {
            assert!(now >= self.last_update, "PsCpu time went backwards");
            let mut dt = (now - self.last_update).as_nanos() as f64;
            self.last_update = now;
            while dt > 0.0 && !self.tasks.is_empty() {
                let n = self.tasks.len();
                let rate = self.rate_with(n);
                let min_rem = self
                    .tasks
                    .iter()
                    .map(|t| t.remaining)
                    .fold(f64::INFINITY, f64::min);
                // Time until the earliest completion at the current rate.
                let boundary = min_rem / rate;
                let step = boundary.min(dt);
                let occupied = (n as f64).min(self.cores);
                self.busy_core_ns += occupied * step;
                let progress = rate * step;
                let mut i = 0;
                while i < self.tasks.len() {
                    self.tasks[i].remaining -= progress;
                    if self.tasks[i].remaining <= DONE_EPS {
                        let task = self.tasks.swap_remove(i);
                        self.completed.push(task.id);
                    } else {
                        i += 1;
                    }
                }
                dt -= step;
            }
            // Keep completion order deterministic despite swap_remove.
            self.completed.sort_unstable();
        }

        /// Adds a task with `demand_ns` nanoseconds of pure-CPU work. The caller
        /// must have advanced the CPU to `now` first (this method does so
        /// defensively).
        ///
        /// A zero-demand task completes immediately and is reported by the next
        /// [`PsCpu::take_completed`] call.
        pub fn add(&mut self, now: Nanos, demand_ns: f64) -> CpuTaskId {
            assert!(
                demand_ns.is_finite() && demand_ns >= 0.0,
                "invalid CPU demand {demand_ns}"
            );
            self.advance(now);
            let id = CpuTaskId(self.next_id);
            self.next_id += 1;
            if demand_ns <= DONE_EPS {
                self.completed.push(id);
            } else {
                self.tasks.push(Task {
                    id,
                    remaining: demand_ns,
                });
            }
            id
        }

        /// Removes and returns the tasks that completed up to the last
        /// [`PsCpu::advance`].
        pub fn take_completed(&mut self, now: Nanos) -> Vec<CpuTaskId> {
            self.advance(now);
            std::mem::take(&mut self.completed)
        }

        /// The instant at which the next task will complete if the runnable set
        /// does not change, or `None` when idle. Always strictly later than the
        /// last update (times are rounded up to whole nanoseconds).
        pub fn next_completion(&self) -> Option<Nanos> {
            let rate = self.rate();
            let min_rem = self
                .tasks
                .iter()
                .map(|t| t.remaining)
                .fold(f64::INFINITY, f64::min);
            if !min_rem.is_finite() || rate <= 0.0 {
                return None;
            }
            let dt = (min_rem / rate).ceil().max(1.0) as u64;
            Some(self.last_update + Nanos(dt))
        }

        /// Integral of occupied cores over time (core-nanoseconds) since
        /// construction. Utilization over a window is the difference of two
        /// snapshots divided by `cores * window`.
        pub fn busy_core_ns(&self) -> f64 {
            self.busy_core_ns
        }

        /// Utilization in `[0, 1]` over `[since, now]`, given a snapshot of
        /// [`PsCpu::busy_core_ns`] taken at `since`.
        pub fn utilization_since(&self, busy_at_since: f64, since: Nanos, now: Nanos) -> f64 {
            let window = (now.saturating_sub(since)).as_nanos() as f64;
            if window == 0.0 {
                return 0.0;
            }
            ((self.busy_core_ns - busy_at_since) / (self.cores * window)).clamp(0.0, 1.0)
        }
    }
}

/// The `StagePool` before integer integrals.
#[allow(dead_code)]
mod reference_stage {
    use std::collections::VecDeque;

    use actop_sim::Nanos;

    /// Statistics accumulated by a stage since the last [`StagePool::drain_stats`].
    #[derive(Debug, Clone, Copy, PartialEq, Default)]
    pub struct StageStats {
        /// Items pushed into the queue.
        pub arrivals: u64,
        /// Items handed to a thread.
        pub started: u64,
        /// Items whose processing finished.
        pub completions: u64,
        /// Sum of time items spent queued before starting, in nanoseconds.
        pub total_wait_ns: u128,
        /// Time-weighted integral of the queue length, in item-nanoseconds.
        pub queue_len_integral: f64,
        /// Time-weighted integral of busy threads, in thread-nanoseconds. Divided
        /// by `window × threads` this is the measured stage utilization ρ, the
        /// quantity the analytic M/M/c oracle predicts.
        pub busy_integral: f64,
        /// Length of the observation window.
        pub window: Nanos,
    }

    impl StageStats {
        /// Mean arrival rate over the window, in items per second.
        pub fn arrival_rate_per_sec(&self) -> f64 {
            let secs = self.window.as_secs_f64();
            if secs == 0.0 {
                0.0
            } else {
                self.arrivals as f64 / secs
            }
        }

        /// Mean queue wait per started item, in nanoseconds.
        pub fn mean_wait_ns(&self) -> f64 {
            if self.started == 0 {
                0.0
            } else {
                self.total_wait_ns as f64 / self.started as f64
            }
        }

        /// Time-average queue length over the window.
        pub fn mean_queue_len(&self) -> f64 {
            let ns = self.window.as_nanos() as f64;
            if ns == 0.0 {
                0.0
            } else {
                self.queue_len_integral / ns
            }
        }

        /// Time-average number of busy threads over the window.
        pub fn mean_busy(&self) -> f64 {
            let ns = self.window.as_nanos() as f64;
            if ns == 0.0 {
                0.0
            } else {
                self.busy_integral / ns
            }
        }
    }

    /// A bounded thread pool with a FIFO queue of work items of type `T`.
    #[derive(Debug, Clone)]
    pub struct StagePool<T> {
        name: &'static str,
        threads: usize,
        busy: usize,
        queue: VecDeque<(Nanos, T)>,
        stats: StageStats,
        window_start: Nanos,
        last_update: Nanos,
    }

    impl<T> StagePool<T> {
        /// Creates a stage with the given initial thread count.
        ///
        /// # Panics
        ///
        /// Panics if `threads == 0`.
        pub fn new(name: &'static str, threads: usize) -> Self {
            assert!(threads > 0, "stage {name} needs at least one thread");
            StagePool {
                name,
                threads,
                busy: 0,
                queue: VecDeque::new(),
                stats: StageStats::default(),
                window_start: Nanos::ZERO,
                last_update: Nanos::ZERO,
            }
        }

        /// The stage's display name.
        pub fn name(&self) -> &'static str {
            self.name
        }

        /// Configured thread count.
        pub fn threads(&self) -> usize {
            self.threads
        }

        /// Threads currently processing an item.
        pub fn busy(&self) -> usize {
            self.busy
        }

        /// Items waiting in the queue.
        pub fn queue_len(&self) -> usize {
            self.queue.len()
        }

        /// True when no item is queued or being processed.
        pub fn is_idle(&self) -> bool {
            self.busy == 0 && self.queue.is_empty()
        }

        fn integrate(&mut self, now: Nanos) {
            debug_assert!(now >= self.last_update, "stage time went backwards");
            let dt = (now - self.last_update).as_nanos() as f64;
            self.stats.queue_len_integral += self.queue.len() as f64 * dt;
            self.stats.busy_integral += self.busy as f64 * dt;
            self.last_update = now;
        }

        /// Enqueues an item at `now`.
        pub fn push(&mut self, now: Nanos, item: T) {
            self.integrate(now);
            self.stats.arrivals += 1;
            self.queue.push_back((now, item));
        }

        /// If a thread is free and an item is queued, starts the item and
        /// returns it along with the time it spent queued.
        pub fn try_start(&mut self, now: Nanos) -> Option<(T, Nanos)> {
            if self.busy >= self.threads {
                return None;
            }
            self.integrate(now);
            let (enqueued, item) = self.queue.pop_front()?;
            self.busy += 1;
            let wait = now.saturating_sub(enqueued);
            self.stats.started += 1;
            self.stats.total_wait_ns += wait.as_nanos() as u128;
            Some((item, wait))
        }

        /// Reports that a thread finished its item, freeing it for the next.
        ///
        /// # Panics
        ///
        /// Panics if no thread is busy.
        pub fn finish(&mut self, now: Nanos) {
            assert!(
                self.busy > 0,
                "stage {}: finish with no busy thread",
                self.name
            );
            self.integrate(now);
            self.busy -= 1;
            self.stats.completions += 1;
        }

        /// Reconfigures the thread count. Busy threads above the new count
        /// finish their current item and then retire (the pool simply will not
        /// start new items until `busy` drops below `threads`).
        ///
        /// # Panics
        ///
        /// Panics if `threads == 0`.
        pub fn set_threads(&mut self, now: Nanos, threads: usize) {
            assert!(threads > 0, "stage {} needs at least one thread", self.name);
            self.integrate(now);
            self.threads = threads;
        }

        /// Returns the statistics accumulated since the previous drain and
        /// starts a new observation window.
        pub fn drain_stats(&mut self, now: Nanos) -> StageStats {
            self.integrate(now);
            let mut stats = std::mem::take(&mut self.stats);
            stats.window = now.saturating_sub(self.window_start);
            self.window_start = now;
            stats
        }
    }
}

/// Residual demand at or below which a task counts as done (the
/// reference's threshold; both models share it).
const DONE_EPS: f64 = 1e-3;

/// How a task's demand is drawn: the generic case plus the edges the
/// cached minimum must get right.
#[derive(Debug, Clone, Copy)]
enum Demand {
    /// Completes at admission.
    Zero,
    /// On or around the completion threshold.
    NearEps(usize),
    /// Exactly an earlier demand: simultaneous completions.
    Repeat(usize),
    /// An earlier demand nudged by about the threshold, so one task's
    /// completion leaves another with a residue near it.
    NearTie(usize, usize),
    /// A generic demand, in nanoseconds.
    Fresh(f64),
}

/// One step of the CPU script; every step first moves the clock by `dt`.
#[derive(Debug, Clone, Copy)]
enum CpuOp {
    Add {
        dt: u64,
        demand: Demand,
    },
    Advance {
        dt: u64,
    },
    /// Advance exactly to the provisional completion instant.
    ToNextCompletion,
    Pause {
        dt: u64,
    },
    Resume {
        dt: u64,
    },
    RateFactor {
        dt: u64,
        factor: f64,
    },
    Threads {
        dt: u64,
        total: usize,
    },
    Drain {
        dt: u64,
    },
}

/// Clock steps: often zero or tiny (ties), sometimes long.
fn dt_strategy() -> impl Strategy<Value = u64> {
    (0u8..4, 0u64..3_000_000).prop_map(|(scale, v)| match scale {
        0 => 0,
        1 => v % 16,
        2 => v % 20_000,
        _ => v,
    })
}

fn demand_strategy() -> impl Strategy<Value = Demand> {
    (0u8..8, 0usize..64, 0usize..8, 1.0f64..2e6).prop_map(|(kind, i, j, x)| match kind {
        0 => Demand::Zero,
        1 => Demand::NearEps(j),
        2 => Demand::Repeat(i),
        3 => Demand::NearTie(i, j),
        // Whole nanoseconds, like most of the runtime's cost model.
        4 => Demand::Fresh(x.round()),
        _ => Demand::Fresh(x),
    })
}

/// Rate factors: generic, or dyadic and `DONE_EPS`-sized ones whose
/// products are exact, so residues land exactly on the threshold.
fn factor_strategy() -> impl Strategy<Value = f64> {
    (0u8..8, 0.05f64..2.0).prop_map(|(kind, x)| match kind {
        0 => DONE_EPS,
        1 => 0.5,
        2 => 0.25,
        _ => x,
    })
}

fn cpu_op_strategy() -> impl Strategy<Value = CpuOp> {
    (
        0u8..16,
        dt_strategy(),
        demand_strategy(),
        factor_strategy(),
        1usize..40,
    )
        .prop_map(|(kind, dt, demand, factor, total)| match kind {
            0..=5 => CpuOp::Add { dt, demand },
            6 | 7 => CpuOp::Advance { dt },
            8 | 9 => CpuOp::ToNextCompletion,
            10 => CpuOp::Pause { dt },
            11 => CpuOp::Resume { dt },
            12 => CpuOp::RateFactor { dt, factor },
            13 => CpuOp::Threads { dt, total },
            _ => CpuOp::Drain { dt },
        })
}

/// Resolves a drawn demand against the demands used so far.
fn resolve(demand: Demand, history: &[f64]) -> f64 {
    const NEAR_EPS: [f64; 8] = [0.0, 5e-4, 9.999e-4, DONE_EPS, 1.0001e-3, 1.5e-3, 2e-3, 1.0];
    const NUDGE: [f64; 8] = [DONE_EPS, -DONE_EPS, 5e-4, -5e-4, 2e-3, 1e-9, -1e-9, 1.0];
    let earlier = |i: usize| history.get(i % history.len().max(1)).copied();
    match demand {
        Demand::Zero => 0.0,
        Demand::NearEps(j) => NEAR_EPS[j],
        Demand::Repeat(i) => earlier(i).unwrap_or(1e4),
        Demand::NearTie(i, j) => earlier(i).map_or(1e4, |d| (d + NUDGE[j]).max(0.0)),
        Demand::Fresh(x) => x,
    }
}

/// Both CPU models side by side, with the reference's ids mapped back to
/// admission numbers (the new model's payloads).
struct CpuPair {
    old: reference_cpu::PsCpu,
    new: PsCpu<u64>,
    admitted: HashMap<reference_cpu::CpuTaskId, u64>,
    next: u64,
    now: Nanos,
}

impl CpuPair {
    fn new(cores: usize, ctx: f64, threads: usize) -> Self {
        let mut pair = CpuPair {
            old: reference_cpu::PsCpu::new(cores, ctx),
            new: PsCpu::new(cores, ctx),
            admitted: HashMap::new(),
            next: 0,
            now: Nanos::ZERO,
        };
        pair.old.set_configured_threads(Nanos::ZERO, threads);
        pair.new.set_configured_threads(Nanos::ZERO, threads);
        pair
    }

    fn add(&mut self, demand: f64) {
        let id = self.old.add(self.now, demand);
        self.admitted.insert(id, self.next);
        self.new.add(self.now, demand, self.next);
        self.next += 1;
    }

    /// Drains both and checks the same tasks come back in the same order.
    fn drain(&mut self) -> usize {
        let old: Vec<u64> = self
            .old
            .take_completed(self.now)
            .into_iter()
            .map(|id| self.admitted.remove(&id).expect("reference id admitted"))
            .collect();
        let mut new = Vec::new();
        self.new.drain_completed(self.now, &mut new);
        assert_eq!(old, new, "completion order or payloads diverged");
        new.len()
    }

    fn check(&self, step: usize) {
        let (old, new) = (&self.old, &self.new);
        assert_eq!(
            old.next_completion(),
            new.next_completion(),
            "next_completion, step {step}"
        );
        assert_eq!(old.runnable(), new.runnable(), "runnable, step {step}");
        assert_eq!(
            old.busy_core_ns().to_bits(),
            new.busy_core_ns().to_bits(),
            "busy_core_ns, step {step}"
        );
        assert_eq!(
            old.rate().to_bits(),
            new.rate().to_bits(),
            "rate, step {step}"
        );
        assert_eq!(
            old.effective_cores().to_bits(),
            new.effective_cores().to_bits(),
            "effective_cores, step {step}"
        );
        assert_eq!(
            old.utilization_since(0.0, Nanos::ZERO, self.now).to_bits(),
            new.utilization_since(0.0, Nanos::ZERO, self.now).to_bits(),
            "utilization, step {step}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn pscpu_matches_reference(
        cores in 1usize..9,
        // Half the cases run without the thread tax, where rates are
        // round and residues can land exactly on the threshold.
        ctx in (0u8..2, 0.0f64..0.5).prop_map(|(on, c)| if on == 0 { 0.0 } else { c }),
        threads in 1usize..40,
        ops in proptest::collection::vec(cpu_op_strategy(), 1..200),
    ) {
        let mut pair = CpuPair::new(cores, ctx, threads);
        let mut history: Vec<f64> = Vec::new();
        let mut completed = 0usize;
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                CpuOp::Add { dt, demand } => {
                    pair.now += Nanos(dt);
                    let d = resolve(demand, &history);
                    history.push(d);
                    pair.add(d);
                }
                CpuOp::Advance { dt } => {
                    pair.now += Nanos(dt);
                    pair.old.advance(pair.now);
                    pair.new.advance(pair.now);
                }
                CpuOp::ToNextCompletion => {
                    if let Some(at) = pair.old.next_completion() {
                        pair.now = at;
                        pair.old.advance(at);
                        pair.new.advance(at);
                    }
                }
                CpuOp::Pause { dt } => {
                    pair.now += Nanos(dt);
                    pair.old.pause(pair.now);
                    pair.new.pause(pair.now);
                }
                CpuOp::Resume { dt } => {
                    pair.now += Nanos(dt);
                    pair.old.resume(pair.now);
                    pair.new.resume(pair.now);
                }
                CpuOp::RateFactor { dt, factor } => {
                    pair.now += Nanos(dt);
                    pair.old.set_rate_factor(pair.now, factor);
                    pair.new.set_rate_factor(pair.now, factor);
                }
                CpuOp::Threads { dt, total } => {
                    pair.now += Nanos(dt);
                    pair.old.set_configured_threads(pair.now, total);
                    pair.new.set_configured_threads(pair.now, total);
                }
                CpuOp::Drain { dt } => {
                    pair.now += Nanos(dt);
                    completed += pair.drain();
                }
            }
            pair.check(step);
        }
        // Run both to idle, completion by completion.
        pair.old.resume(pair.now);
        pair.new.resume(pair.now);
        while let Some(at) = pair.old.next_completion() {
            pair.now = at;
            completed += pair.drain();
            pair.check(usize::MAX);
        }
        completed += pair.drain();
        prop_assert_eq!(completed as u64, pair.next, "every task completes once");
        prop_assert!(pair.new.is_idle());
    }
}

/// One step of the stage script; every step first moves the clock by
/// `dt`.
#[derive(Debug, Clone, Copy)]
enum StageOp {
    Push {
        dt: u64,
    },
    TryStart {
        dt: u64,
    },
    /// `try_start` until refused, as the runtime's pump does.
    StartAll {
        dt: u64,
    },
    Finish {
        dt: u64,
    },
    SetThreads {
        dt: u64,
        threads: usize,
    },
    Drain {
        dt: u64,
    },
}

fn stage_op_strategy() -> impl Strategy<Value = StageOp> {
    (0u8..12, dt_strategy(), 1usize..6).prop_map(|(kind, dt, threads)| match kind {
        0..=3 => StageOp::Push { dt },
        4 | 5 => StageOp::TryStart { dt },
        6 => StageOp::StartAll { dt },
        7..=9 => StageOp::Finish { dt },
        10 => StageOp::SetThreads { dt, threads },
        _ => StageOp::Drain { dt },
    })
}

fn assert_stats_equal(old: &reference_stage::StageStats, new: &StageStats) {
    assert_eq!(old.arrivals, new.arrivals, "arrivals");
    assert_eq!(old.started, new.started, "started");
    assert_eq!(old.completions, new.completions, "completions");
    assert_eq!(old.total_wait_ns, new.total_wait_ns, "total_wait_ns");
    assert_eq!(
        old.queue_len_integral.to_bits(),
        new.queue_len_integral.to_bits(),
        "queue_len_integral {} vs {}",
        old.queue_len_integral,
        new.queue_len_integral
    );
    assert_eq!(
        old.busy_integral.to_bits(),
        new.busy_integral.to_bits(),
        "busy_integral {} vs {}",
        old.busy_integral,
        new.busy_integral
    );
    assert_eq!(old.window, new.window, "window");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn stage_pool_matches_reference(
        threads in 1usize..6,
        ops in proptest::collection::vec(stage_op_strategy(), 1..200),
    ) {
        let mut old: reference_stage::StagePool<u64> = reference_stage::StagePool::new("s", threads);
        let mut new: StagePool<u64> = StagePool::new("s", threads);
        let mut now = Nanos::ZERO;
        let mut next_item = 0u64;
        for op in ops {
            match op {
                StageOp::Push { dt } => {
                    now += Nanos(dt);
                    old.push(now, next_item);
                    new.push(now, next_item);
                    next_item += 1;
                }
                StageOp::TryStart { dt } => {
                    now += Nanos(dt);
                    prop_assert_eq!(old.try_start(now), new.try_start(now));
                }
                StageOp::StartAll { dt } => {
                    now += Nanos(dt);
                    loop {
                        let started = old.try_start(now);
                        prop_assert_eq!(started, new.try_start(now));
                        if started.is_none() {
                            break;
                        }
                    }
                }
                StageOp::Finish { dt } => {
                    now += Nanos(dt);
                    if old.busy() > 0 {
                        old.finish(now);
                        new.finish(now);
                    }
                }
                StageOp::SetThreads { dt, threads } => {
                    now += Nanos(dt);
                    old.set_threads(now, threads);
                    new.set_threads(now, threads);
                }
                StageOp::Drain { dt } => {
                    now += Nanos(dt);
                    assert_stats_equal(&old.drain_stats(now), &new.drain_stats(now));
                }
            }
            prop_assert_eq!(old.busy(), new.busy());
            prop_assert_eq!(old.queue_len(), new.queue_len());
            prop_assert_eq!(old.threads(), new.threads());
            prop_assert_eq!(old.is_idle(), new.is_idle());
        }
        now += Nanos(1_000);
        assert_stats_equal(&old.drain_stats(now), &new.drain_stats(now));
    }
}
