//! Processor-sharing CPU model with a context-switch penalty.
//!
//! Each simulated server owns one [`PsCpu`]. Threads that are executing the
//! compute phase of an event are *runnable tasks*; the OS scheduler is
//! modeled as egalitarian processor sharing across `p` cores: with `n`
//! runnable tasks each progresses at rate `min(1, p_eff / n)` where
//!
//! ```text
//! p_eff = p / (1 + kappa * max(0, T - p))
//! ```
//!
//! and `T` is the *configured* thread count across all of the server's
//! stage pools ([`PsCpu::set_configured_threads`]). `kappa` is the
//! multithreading-overhead coefficient: a server configured with more
//! threads than cores loses part of its CPU to context switching, timer and
//! scheduler bookkeeping, and cache pressure — whether or not every thread
//! is busy at this instant. This is the mechanism behind two of the paper's
//! observations: the Fig. 5 heatmap (over-allocating threads to SEDA stages
//! *increases* latency) and the `eta` thread-count regularizer in the
//! allocation objective (*).
//!
//! The model also makes the paper's §5.4 estimation assumption hold by
//! construction: the ready-time-to-compute-time ratio `r_i / x_i` is the
//! same for every stage on a server, because slowdown under processor
//! sharing is uniform across runnable threads.
//!
//! [`PsCpu`] is passive: the owner advances it to the current time, adds
//! tasks, asks for the next provisional completion instant, and schedules or
//! cancels engine events accordingly. Each task carries a payload of type
//! `T` (the owner's record of what the task is for), handed back when the
//! task completes; each drain returns its tasks in the order they were
//! added.
//!
//! The bookkeeping is exact and cheap. The minimum remaining demand is kept
//! up to date rather than re-folded: rounding is monotone, so subtracting
//! the same `progress` from every task leaves the smallest one smallest,
//! and the new minimum is exactly `min - progress`. An advance step is one
//! branch-free subtraction over a contiguous `f64` array, the completion
//! scan runs only when that minimum reaches the completion threshold, and
//! [`PsCpu::next_completion`] is O(1).

use crate::time::Nanos;

/// Processor-sharing CPU with `cores` cores and a context-switch penalty,
/// running tasks that carry a payload of type `T`.
#[derive(Debug, Clone)]
pub struct PsCpu<T> {
    cores: f64,
    ctx_coeff: f64,
    /// Total threads configured across the server's stage pools.
    configured_threads: usize,
    /// `p_eff` under `configured_threads`; recomputed only when the
    /// configuration changes.
    effective_cores: f64,
    /// True while the CPU is stalled by a stop-the-world pause (GC).
    paused: bool,
    /// Service-rate multiplier (1.0 = healthy). Fault injection models CPU
    /// stragglers and gray failures by scaling every task's progress rate:
    /// the server keeps accepting work but services it at `rate_factor`
    /// speed.
    rate_factor: f64,
    /// Remaining pure-CPU demand of each runnable task, in nanoseconds.
    /// Parallel to `tasks`.
    remaining: Vec<f64>,
    /// Admission number and payload of each runnable task.
    tasks: Vec<(u64, T)>,
    /// The smallest entry of `remaining` (`INFINITY` when idle).
    min_remaining: f64,
    last_update: Nanos,
    next_id: u64,
    /// Integral of occupied cores over time, in core-nanoseconds.
    busy_core_ns: f64,
    /// Finished tasks not yet drained, in completion-scan order.
    completed: Vec<(u64, T)>,
}

/// Residual demand below this many nanoseconds counts as completed.
const DONE_EPS: f64 = 1e-3;

/// `p / (1 + kappa * max(0, T - p))`.
fn effective_cores(cores: f64, ctx_coeff: f64, threads: usize) -> f64 {
    let extra = (threads as f64 - cores).max(0.0);
    cores / (1.0 + ctx_coeff * extra)
}

impl<T> PsCpu<T> {
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
        let cores_f = cores as f64;
        PsCpu {
            cores: cores_f,
            ctx_coeff,
            configured_threads: cores,
            effective_cores: effective_cores(cores_f, ctx_coeff, cores),
            paused: false,
            rate_factor: 1.0,
            remaining: Vec::new(),
            tasks: Vec::new(),
            min_remaining: f64::INFINITY,
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
        self.effective_cores = effective_cores(self.cores, self.ctx_coeff, total);
    }

    /// Total configured threads.
    pub fn configured_threads(&self) -> usize {
        self.configured_threads
    }

    /// The effective core capacity under the current thread configuration.
    pub fn effective_cores(&self) -> f64 {
        self.effective_cores
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
        self.remaining.len()
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
        self.rate_factor * self.effective_cores / (n as f64).max(self.cores)
    }

    /// Current per-task progress rate.
    pub fn rate(&self) -> f64 {
        self.rate_with(self.remaining.len())
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
        while dt > 0.0 && !self.remaining.is_empty() {
            let n = self.remaining.len();
            let rate = self.rate_with(n);
            // Time until the earliest completion at the current rate.
            let boundary = self.min_remaining / rate;
            let step = boundary.min(dt);
            let occupied = (n as f64).min(self.cores);
            self.busy_core_ns += occupied * step;
            let progress = rate * step;
            for r in &mut self.remaining {
                *r -= progress;
            }
            // Rounding is monotone, so this is exactly the new minimum.
            self.min_remaining -= progress;
            if self.min_remaining <= DONE_EPS {
                self.collect_completed();
            }
            dt -= step;
        }
    }

    /// Moves every task at or below `DONE_EPS` to the completed list and
    /// re-folds the minimum over the survivors.
    fn collect_completed(&mut self) {
        let mut min = f64::INFINITY;
        let mut i = 0;
        while i < self.remaining.len() {
            if self.remaining[i] <= DONE_EPS {
                self.remaining.swap_remove(i);
                self.completed.push(self.tasks.swap_remove(i));
            } else {
                min = min.min(self.remaining[i]);
                i += 1;
            }
        }
        self.min_remaining = min;
    }

    /// Adds a task with `demand_ns` nanoseconds of pure-CPU work, carrying
    /// `payload`. The caller must have advanced the CPU to `now` first (this
    /// method does so defensively).
    ///
    /// A zero-demand task completes immediately and is reported by the next
    /// [`PsCpu::drain_completed`] call.
    pub fn add(&mut self, now: Nanos, demand_ns: f64, payload: T) {
        assert!(
            demand_ns.is_finite() && demand_ns >= 0.0,
            "invalid CPU demand {demand_ns}"
        );
        self.advance(now);
        let id = self.next_id;
        self.next_id += 1;
        if demand_ns <= DONE_EPS {
            self.completed.push((id, payload));
        } else {
            self.remaining.push(demand_ns);
            self.tasks.push((id, payload));
            self.min_remaining = self.min_remaining.min(demand_ns);
        }
    }

    /// Advances to `now`, then appends the payloads of every task completed
    /// so far to `out`, in the order the tasks were added.
    pub fn drain_completed(&mut self, now: Nanos, out: &mut Vec<T>) {
        self.advance(now);
        if self.completed.len() > 1 {
            self.completed.sort_unstable_by_key(|&(id, _)| id);
        }
        out.extend(self.completed.drain(..).map(|(_, payload)| payload));
    }

    /// True when no task is runnable and none awaits draining.
    pub fn is_idle(&self) -> bool {
        self.tasks.is_empty() && self.completed.is_empty()
    }

    /// The instant at which the next task will complete if the runnable set
    /// does not change, or `None` when idle. Always strictly later than the
    /// last update (times are rounded up to whole nanoseconds).
    pub fn next_completion(&self) -> Option<Nanos> {
        let rate = self.rate();
        if !self.min_remaining.is_finite() || rate <= 0.0 {
            return None;
        }
        let dt = (self.min_remaining / rate).ceil().max(1.0) as u64;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    impl<T> PsCpu<T> {
        fn drained(&mut self, now: Nanos) -> Vec<T> {
            let mut out = Vec::new();
            self.drain_completed(now, &mut out);
            out
        }
    }

    #[test]
    fn single_task_runs_at_full_rate() {
        let mut cpu = PsCpu::new(4, 0.0);
        cpu.add(Nanos::ZERO, 1e6, ()); // 1 ms of CPU.
        assert_eq!(cpu.next_completion(), Some(ms(1)));
        let done = cpu.drained(ms(1));
        assert_eq!(done.len(), 1);
        assert_eq!(cpu.runnable(), 0);
    }

    #[test]
    fn fewer_tasks_than_cores_no_slowdown() {
        let mut cpu = PsCpu::new(4, 0.5);
        for _ in 0..4 {
            cpu.add(Nanos::ZERO, 1e6, ());
        }
        assert!((cpu.rate() - 1.0).abs() < 1e-12);
        assert_eq!(cpu.next_completion(), Some(ms(1)));
    }

    #[test]
    fn oversubscription_shares_processor() {
        let mut cpu = PsCpu::new(2, 0.0);
        for _ in 0..4 {
            cpu.add(Nanos::ZERO, 1e6, ());
        }
        // Four tasks on two cores: each runs at rate 1/2, so 1 ms of demand
        // takes 2 ms of wall clock.
        assert!((cpu.rate() - 0.5).abs() < 1e-12);
        assert_eq!(cpu.next_completion(), Some(ms(2)));
        let done = cpu.drained(ms(2));
        assert_eq!(done.len(), 4);
    }

    #[test]
    fn thread_pressure_penalty_slows_everything() {
        let mut plain = PsCpu::new(2, 0.0);
        let mut penalized = PsCpu::new(2, 0.25);
        plain.set_configured_threads(Nanos::ZERO, 6);
        penalized.set_configured_threads(Nanos::ZERO, 6);
        for _ in 0..6 {
            plain.add(Nanos::ZERO, 1e6, ());
            penalized.add(Nanos::ZERO, 1e6, ());
        }
        // p_eff = 2 / (1 + 0.25 * 4) = 1.0, rate = 1/6 vs plain 2/6.
        assert!(penalized.rate() < plain.rate());
        assert!((penalized.rate() - 1.0 / 6.0).abs() < 1e-12);
        assert!((penalized.effective_cores() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pressure_at_or_below_cores_is_free() {
        let mut cpu: PsCpu<()> = PsCpu::new(4, 0.5);
        cpu.set_configured_threads(Nanos::ZERO, 4);
        assert!((cpu.effective_cores() - 4.0).abs() < 1e-12);
        cpu.set_configured_threads(Nanos::ZERO, 2);
        assert!((cpu.effective_cores() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn arrival_midway_slows_existing_task() {
        let mut cpu = PsCpu::new(1, 0.0);
        cpu.add(Nanos::ZERO, 2e6, ()); // 2 ms demand, alone on 1 core.
        cpu.advance(ms(1)); // 1 ms progressed, 1 ms left.
        cpu.add(ms(1), 1e6, ()); // Now two tasks share the core at rate 1/2.
                                 // First task: 1 ms left at rate 0.5 -> completes at t = 3 ms.
        assert_eq!(cpu.next_completion(), Some(ms(3)));
        let done = cpu.drained(ms(3));
        assert_eq!(done.len(), 2, "both finish together at 3 ms");
    }

    #[test]
    fn zero_demand_completes_immediately() {
        let mut cpu = PsCpu::new(1, 0.0);
        cpu.add(ms(5), 0.0, 7u32);
        assert!(!cpu.is_idle(), "undrained completions keep the CPU busy");
        let done = cpu.drained(ms(5));
        assert_eq!(done, vec![7]);
        assert!(cpu.is_idle());
    }

    #[test]
    fn residue_exactly_at_threshold_completes() {
        // Rate 1e-3 for 1 ns takes exactly 1e-3 off 2e-3 (exactly twice
        // it), leaving a residue of exactly the threshold: done.
        let mut cpu = PsCpu::new(1, 0.0);
        cpu.set_rate_factor(Nanos::ZERO, 1e-3);
        cpu.add(Nanos::ZERO, 2e-3, ());
        assert_eq!(cpu.runnable(), 1);
        cpu.advance(Nanos(1));
        assert_eq!(cpu.runnable(), 0);
        assert_eq!(cpu.drained(Nanos(1)).len(), 1);
    }

    #[test]
    fn busy_integral_tracks_occupied_cores() {
        let mut cpu = PsCpu::new(4, 0.0);
        cpu.add(Nanos::ZERO, 2e6, ());
        cpu.add(Nanos::ZERO, 2e6, ());
        cpu.advance(ms(2));
        // Two tasks occupied two cores for 2 ms.
        let expect = 2.0 * 2e6;
        assert!((cpu.busy_core_ns() - expect).abs() < 1.0);
        // Utilization over the window: 2 of 4 cores -> 0.5.
        let util = cpu.utilization_since(0.0, Nanos::ZERO, ms(2));
        assert!((util - 0.5).abs() < 1e-9);
    }

    #[test]
    fn idle_cpu_reports_no_completion() {
        let cpu: PsCpu<()> = PsCpu::new(2, 0.1);
        assert_eq!(cpu.next_completion(), None);
        assert_eq!(cpu.rate(), 0.0);
        assert_eq!(cpu.slowdown(), 1.0);
    }

    #[test]
    fn completion_order_is_deterministic() {
        let mut a = PsCpu::new(1, 0.0);
        let mut b = PsCpu::new(1, 0.0);
        for cpu in [&mut a, &mut b] {
            for d in [3e5, 1e5, 2e5] {
                cpu.add(Nanos::ZERO, d, d as u64);
            }
        }
        a.advance(ms(1));
        b.advance(ms(1));
        let done = a.drained(ms(1));
        assert_eq!(done, vec![300_000, 100_000, 200_000], "admission order");
        assert_eq!(done, b.drained(ms(1)));
    }

    #[test]
    fn pause_stalls_progress_and_resume_restores_it() {
        let mut cpu = PsCpu::new(2, 0.0);
        cpu.add(Nanos::ZERO, 1e6, ()); // 1 ms of demand.
        cpu.advance(ms(0) + Nanos::from_micros(400));
        cpu.pause(ms(0) + Nanos::from_micros(400));
        assert!(cpu.is_paused());
        assert_eq!(cpu.next_completion(), None, "no completion while paused");
        // A 5 ms pause: no progress.
        cpu.resume(Nanos::from_micros(5_400));
        // 0.6 ms of demand left; completes 0.6 ms after resume.
        assert_eq!(cpu.next_completion(), Some(Nanos::from_micros(6_000)),);
        let done = cpu.drained(Nanos::from_micros(6_000));
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn tasks_added_during_pause_wait_for_resume() {
        let mut cpu = PsCpu::new(1, 0.0);
        cpu.pause(Nanos::ZERO);
        cpu.add(ms(1), 1e6, ());
        assert_eq!(cpu.next_completion(), None);
        cpu.resume(ms(3));
        assert_eq!(cpu.next_completion(), Some(ms(4)));
    }

    #[test]
    fn rate_factor_slows_service() {
        let mut healthy = PsCpu::new(2, 0.0);
        let mut straggler = PsCpu::new(2, 0.0);
        straggler.set_rate_factor(Nanos::ZERO, 0.5);
        healthy.add(Nanos::ZERO, 1e6, ());
        straggler.add(Nanos::ZERO, 1e6, ());
        assert_eq!(healthy.next_completion(), Some(ms(1)));
        // Half speed: the same 1 ms of demand takes 2 ms of wall clock.
        assert_eq!(straggler.next_completion(), Some(ms(2)));
        assert!((straggler.slowdown() - 2.0).abs() < 1e-12);
        assert_eq!(straggler.drained(ms(2)).len(), 1);
    }

    #[test]
    fn rate_factor_change_splits_progress_exactly() {
        let mut cpu = PsCpu::new(1, 0.0);
        cpu.add(Nanos::ZERO, 2e6, ()); // 2 ms of demand.
        cpu.advance(ms(1)); // 1 ms done at full rate.
        cpu.set_rate_factor(ms(1), 0.25); // Remaining 1 ms at quarter speed.
        assert_eq!(cpu.next_completion(), Some(ms(5)));
        // Restoring health mid-flight resumes full speed.
        cpu.advance(ms(3)); // 0.5 ms of the remaining demand done.
        cpu.set_rate_factor(ms(3), 1.0);
        assert_eq!(cpu.rate_factor(), 1.0);
        assert_eq!(cpu.next_completion(), Some(Nanos::from_micros(3_500)));
        assert_eq!(cpu.drained(Nanos::from_micros(3_500)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid rate factor")]
    fn zero_rate_factor_panics() {
        let mut cpu: PsCpu<()> = PsCpu::new(1, 0.0);
        cpu.set_rate_factor(Nanos::ZERO, 0.0);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn advance_backwards_panics() {
        let mut cpu: PsCpu<()> = PsCpu::new(1, 0.0);
        cpu.advance(ms(2));
        cpu.advance(ms(1));
    }

    #[test]
    fn work_conservation_under_churn() {
        // Total CPU demand in must equal busy core time out when the core
        // count is 1 and there is always work.
        let mut cpu = PsCpu::new(1, 0.0);
        let mut t = Nanos::ZERO;
        let mut total_demand = 0.0;
        for step in 1..=20u64 {
            let demand = (step as f64) * 1e4;
            total_demand += demand;
            cpu.add(t, demand, ());
            t += Nanos(7_500 * step);
            cpu.advance(t);
        }
        // Drain.
        while let Some(at) = cpu.next_completion() {
            cpu.advance(at);
            t = at;
        }
        cpu.drained(t);
        assert!(
            (cpu.busy_core_ns() - total_demand).abs() < 10.0,
            "busy {} vs demand {}",
            cpu.busy_core_ns(),
            total_demand
        );
    }
}
