//! A SEDA stage: a FIFO event queue served by a bounded thread pool.
//!
//! Orleans servers (and our simulated ones) process requests as a pipeline
//! of stages — receive, application logic, server send, client send — each
//! with its own queue and a fixed number of threads (§2 of the paper). The
//! pool is passive: the owning server pushes work items, asks whether a
//! thread is free to start the next item, and reports completions. The pool
//! records the statistics the thread allocator needs: arrival rate, queue
//! waits, and a time-weighted queue-length integral.
//!
//! Thread counts are reconfigurable at run time ([`StagePool::set_threads`]);
//! shrinking below the number of busy threads lets the excess threads finish
//! their current item and then retire, exactly like retiring an OS thread
//! after its current work item.

use std::collections::VecDeque;

use crate::time::Nanos;

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
    /// The window's queue-length and busy-thread integrals, in exact
    /// item-nanoseconds: the sum is the same however the window is cut
    /// into integration steps. Converted into `stats` at drain time.
    queue_len_ns: u128,
    busy_ns: u128,
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
            queue_len_ns: 0,
            busy_ns: 0,
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

    /// True when a thread is free and an item is queued.
    pub fn can_start(&self) -> bool {
        self.busy < self.threads && !self.queue.is_empty()
    }

    fn integrate(&mut self, now: Nanos) {
        debug_assert!(now >= self.last_update, "stage time went backwards");
        let dt = u128::from((now - self.last_update).as_nanos());
        self.queue_len_ns += self.queue.len() as u128 * dt;
        self.busy_ns += self.busy as u128 * dt;
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
        // Nothing changes on a refusal, so skipping the integration is
        // exact: the next step covers this span at the same levels.
        if !self.can_start() {
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
        stats.queue_len_integral = std::mem::take(&mut self.queue_len_ns) as f64;
        stats.busy_integral = std::mem::take(&mut self.busy_ns) as f64;
        stats.window = now.saturating_sub(self.window_start);
        self.window_start = now;
        stats
    }
}

/// Starts the next item of a pipeline: the first stage at or after
/// `*from` that can start one starts its oldest item. Returns that stage's
/// index with the item and its queue wait, leaving `*from` at the stage
/// (it may start another); returns `None`, with `*from` past the last
/// stage, when no stage can start anything. Calling it until `None`
/// starts items in the same order as draining each stage in turn.
pub fn start_next<T>(
    stages: &mut [StagePool<T>],
    from: &mut usize,
    now: Nanos,
) -> Option<(usize, T, Nanos)> {
    while let Some(stage) = stages.get_mut(*from) {
        if let Some((item, wait)) = stage.try_start(now) {
            return Some((*from, item, wait));
        }
        *from += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Nanos {
        Nanos::from_micros(v)
    }

    #[test]
    fn fifo_order_and_wait_accounting() {
        let mut stage: StagePool<u32> = StagePool::new("worker", 1);
        stage.push(us(0), 1);
        stage.push(us(10), 2);
        let (item, wait) = stage.try_start(us(20)).expect("thread free");
        assert_eq!(item, 1);
        assert_eq!(wait, us(20));
        // Pool is single-threaded: second item cannot start yet.
        assert!(stage.try_start(us(20)).is_none());
        stage.finish(us(30));
        let (item, wait) = stage.try_start(us(30)).expect("thread freed");
        assert_eq!(item, 2);
        assert_eq!(wait, us(20));
    }

    #[test]
    fn concurrency_limited_by_threads() {
        let mut stage: StagePool<u32> = StagePool::new("recv", 3);
        for i in 0..5 {
            stage.push(us(0), i);
        }
        let mut started = 0;
        while stage.try_start(us(0)).is_some() {
            started += 1;
        }
        assert_eq!(started, 3);
        assert_eq!(stage.busy(), 3);
        assert_eq!(stage.queue_len(), 2);
    }

    #[test]
    fn shrink_below_busy_retires_gracefully() {
        let mut stage: StagePool<u32> = StagePool::new("send", 4);
        for i in 0..4 {
            stage.push(us(0), i);
        }
        while stage.try_start(us(0)).is_some() {}
        assert_eq!(stage.busy(), 4);
        stage.set_threads(us(1), 2);
        stage.push(us(1), 9);
        // No new item starts while busy exceeds the new limit.
        assert!(stage.try_start(us(1)).is_none());
        stage.finish(us(2));
        stage.finish(us(2));
        assert!(stage.try_start(us(2)).is_none(), "still at the limit");
        stage.finish(us(3));
        assert!(stage.try_start(us(3)).is_some(), "below limit again");
    }

    #[test]
    fn stats_window() {
        let mut stage: StagePool<u32> = StagePool::new("w", 1);
        stage.push(us(0), 1);
        stage.push(us(0), 2);
        let _ = stage.try_start(us(5));
        stage.finish(us(10));
        let _ = stage.try_start(us(10));
        stage.finish(us(20));
        let stats = stage.drain_stats(us(100));
        assert_eq!(stats.arrivals, 2);
        assert_eq!(stats.started, 2);
        assert_eq!(stats.completions, 2);
        assert_eq!(stats.window, us(100));
        // Item 1 waited 5 us, item 2 waited 10 us.
        assert_eq!(stats.total_wait_ns, (us(15)).as_nanos() as u128);
        assert!((stats.mean_wait_ns() - us(15).as_nanos() as f64 / 2.0).abs() < 1e-9);
        // Queue length: 2 items during [0,5), 1 during [5,10), 0 after.
        let expect = (2.0 * 5_000.0 + 1.0 * 5_000.0) / 100_000.0;
        assert!((stats.mean_queue_len() - expect).abs() < 1e-9);
        // Busy thread: [5,10) and [10,20) -> 15 us of busy time.
        assert!((stats.mean_busy() - 15_000.0 / 100_000.0).abs() < 1e-9);
        // A fresh window starts empty.
        let stats2 = stage.drain_stats(us(200));
        assert_eq!(stats2.arrivals, 0);
        assert_eq!(stats2.window, us(100));
        assert_eq!(stats2.mean_queue_len(), 0.0);
    }

    #[test]
    fn arrival_rate_per_sec() {
        let mut stage: StagePool<()> = StagePool::new("w", 1);
        for _ in 0..500 {
            stage.push(us(0), ());
        }
        let stats = stage.drain_stats(Nanos::from_millis(500));
        assert!((stats.arrival_rate_per_sec() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats = StageStats::default();
        assert_eq!(stats.arrival_rate_per_sec(), 0.0);
        assert_eq!(stats.mean_wait_ns(), 0.0);
        assert_eq!(stats.mean_queue_len(), 0.0);
    }

    #[test]
    #[should_panic(expected = "finish with no busy thread")]
    fn finish_without_start_panics() {
        let mut stage: StagePool<()> = StagePool::new("w", 1);
        stage.finish(us(0));
    }

    #[test]
    fn start_next_drains_stages_in_order() {
        let mut stages: [StagePool<u32>; 3] = [
            StagePool::new("a", 2),
            StagePool::new("b", 1),
            StagePool::new("c", 1),
        ];
        for (stage, item) in [(0, 1), (2, 2), (0, 3), (0, 4), (1, 5), (1, 6)] {
            stages[stage].push(us(0), item);
        }
        let mut from = 0;
        let mut started = Vec::new();
        while let Some((stage, item, _)) = start_next(&mut stages, &mut from, us(1)) {
            started.push((stage, item));
        }
        // Stage 0 starts two (its thread count), then one each from 1 and 2.
        assert_eq!(started, vec![(0, 1), (0, 3), (1, 5), (2, 2)]);
        assert_eq!(from, 3);
        assert!(!stages.iter().any(StagePool::can_start));
    }

    #[test]
    fn is_idle() {
        let mut stage: StagePool<u32> = StagePool::new("w", 1);
        assert!(stage.is_idle());
        stage.push(us(0), 1);
        assert!(!stage.is_idle());
        let _ = stage.try_start(us(0));
        assert!(!stage.is_idle());
        stage.finish(us(1));
        assert!(stage.is_idle());
    }
}
