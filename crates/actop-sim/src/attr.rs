//! Coarse per-subsystem cost attribution: where does the simulator's
//! wall-clock time actually go?
//!
//! Future perf PRs need a target. [`EngineReport`] says how fast the
//! engine is overall, but not whether the time went to heap maintenance,
//! the CPU/SEDA model, routing-table work, the Space-Saving sketch, the
//! failure detector, or the tracer. [`CostAttr`] answers that with
//! deliberately cheap accounting:
//!
//! * every instrumented operation increments an exact per-subsystem op
//!   counter (deterministic — same run, same counts);
//! * one in [`SAMPLE_EVERY`] operations is wall-clock timed, and the
//!   sampled duration is scaled by the sampling factor, so the per-bucket
//!   wall totals are statistically representative without paying two
//!   `Instant::now()` calls per operation;
//! * each sample has the clock's own cost subtracted, read from an empty
//!   interval timed right after it. A heap or CPU-model operation takes
//!   tens of nanoseconds, about what the two clock reads around it cost,
//!   so uncorrected samples would credit a bucket of short operations
//!   with the clock's time instead of its own.
//!
//! Wall-clock numbers are machine-dependent and **must never** flow into
//! deterministic artifacts (scrape JSONL, HTML reports, golden tests) —
//! they are surfaced only through the opt-in engine cost line. Op counts
//! are deterministic and safe anywhere.
//!
//! Accounting is off by default; when disabled, [`CostAttr::begin`] is a
//! single branch and no counters move, so the uninstrumented hot path is
//! unchanged.
//!
//! [`EngineReport`]: crate::EngineReport

use std::time::Instant;

/// Wall-time sampling factor: one timed operation per this many counted
/// ones. A power of two so the sample test is a mask.
pub const SAMPLE_EVERY: u64 = 64;

/// The subsystems the simulator attributes cost to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subsystem {
    /// Event-queue maintenance: schedule, pop, cancel, reschedule.
    Heap,
    /// Actor routing: directory resolution, placement, forwarding.
    Routing,
    /// The Space-Saving communication sketch.
    Sketch,
    /// The phi-accrual failure detector.
    Detector,
    /// Span recording and the flight recorder.
    Tracer,
    /// Telemetry scrapes and SLO evaluation.
    Scrape,
    /// The processor-sharing CPU and the SEDA stage pools: task admission,
    /// advance, completion drain and stage queue operations. Never wraps
    /// an engine call, so it does not overlap the heap bucket.
    Cpu,
}

impl Subsystem {
    /// Number of subsystems.
    pub const COUNT: usize = 7;

    /// Every subsystem, index order.
    pub const ALL: [Subsystem; Subsystem::COUNT] = [
        Subsystem::Heap,
        Subsystem::Routing,
        Subsystem::Sketch,
        Subsystem::Detector,
        Subsystem::Tracer,
        Subsystem::Scrape,
        Subsystem::Cpu,
    ];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Heap => "heap",
            Subsystem::Routing => "routing",
            Subsystem::Sketch => "sketch",
            Subsystem::Detector => "detector",
            Subsystem::Tracer => "tracer",
            Subsystem::Scrape => "scrape",
            Subsystem::Cpu => "cpu",
        }
    }
}

/// Per-subsystem op counts and sampled wall time. `Copy` so it rides
/// inside [`EngineReport`](crate::EngineReport) unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostAttr {
    /// Whether accounting is active.
    pub enabled: bool,
    /// Exact operation counts per subsystem (deterministic).
    pub ops: [u64; Subsystem::COUNT],
    /// Sampled wall nanoseconds per subsystem, scaled by
    /// [`SAMPLE_EVERY`] (machine-dependent).
    pub wall_ns: [u64; Subsystem::COUNT],
}

impl CostAttr {
    /// An enabled accumulator.
    pub fn enabled() -> Self {
        CostAttr {
            enabled: true,
            ..CostAttr::default()
        }
    }

    /// Counts one operation in `sub`; returns a start stamp when this
    /// operation is one of the sampled ones (the caller passes it back to
    /// [`end`](CostAttr::end)). When disabled this is a single branch.
    #[inline]
    pub fn begin(&mut self, sub: Subsystem) -> Option<Instant> {
        if !self.enabled {
            return None;
        }
        let ops = &mut self.ops[sub as usize];
        *ops += 1;
        (*ops & (SAMPLE_EVERY - 1) == 0).then(Instant::now)
    }

    /// Closes a sampled operation: adds the scaled elapsed time, less what
    /// one more clock read takes right after it (the cost of the clock
    /// itself, paid once inside every sample). The difference may be
    /// negative, so the bucket total saturates at zero.
    #[inline]
    pub fn end(&mut self, sub: Subsystem, started: Option<Instant>) {
        if let Some(t0) = started {
            let t1 = Instant::now();
            let t2 = Instant::now();
            let nanos = |d: std::time::Duration| i64::try_from(d.as_nanos()).unwrap_or(i64::MAX);
            let net = nanos(t1 - t0).saturating_sub(nanos(t2 - t1));
            let bucket = &mut self.wall_ns[sub as usize];
            *bucket = bucket.saturating_add_signed(net.saturating_mul(SAMPLE_EVERY as i64));
        }
    }

    /// Runs `f` as one operation of `sub`. When disabled this is a single
    /// branch around the call.
    #[inline]
    pub fn time<R>(&mut self, sub: Subsystem, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let started = self.begin(sub);
        let out = f();
        self.end(sub, started);
        out
    }

    /// Folds another accumulator in: ops and wall times sum.
    pub fn merge(&mut self, other: &CostAttr) {
        self.enabled |= other.enabled;
        for i in 0..Subsystem::COUNT {
            self.ops[i] += other.ops[i];
            self.wall_ns[i] += other.wall_ns[i];
        }
    }

    /// Total instrumented operations.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// The human-readable cost table the bench binaries print under
    /// `ACTOP_COST=1`, or `None` when accounting never ran. Wall shares
    /// are relative to the instrumented total, not the whole run.
    pub fn table(&self) -> Option<String> {
        if !self.enabled || self.total_ops() == 0 {
            return None;
        }
        let total_wall: u64 = self.wall_ns.iter().sum();
        let mut out = String::from("cost: subsystem        ops   est wall (ms)   share\n");
        for sub in Subsystem::ALL {
            let i = sub as usize;
            if self.ops[i] == 0 {
                continue;
            }
            let share = if total_wall > 0 {
                self.wall_ns[i] as f64 / total_wall as f64 * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "cost: {:<10} {:>12} {:>12.2} {:>6.1}%\n",
                sub.name(),
                self.ops[i],
                self.wall_ns[i] as f64 / 1e6,
                share,
            ));
        }
        out.push_str(&format!(
            "cost: (sampled 1/{SAMPLE_EVERY}; wall estimates are machine-dependent and excluded from deterministic artifacts)\n"
        ));
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_accounting_does_nothing() {
        let mut a = CostAttr::default();
        assert!(a.begin(Subsystem::Heap).is_none());
        a.end(Subsystem::Heap, None);
        assert_eq!(a.total_ops(), 0);
        assert_eq!(a.table(), None);
    }

    #[test]
    fn ops_count_exactly_and_sampling_is_periodic() {
        let mut a = CostAttr::enabled();
        let mut sampled = 0;
        for _ in 0..(SAMPLE_EVERY * 3) {
            if let Some(t) = a.begin(Subsystem::Routing) {
                sampled += 1;
                // Work far above the timer's own cost.
                while t.elapsed() < Duration::from_micros(20) {}
                a.end(Subsystem::Routing, Some(t));
            }
        }
        assert_eq!(a.ops[Subsystem::Routing as usize], SAMPLE_EVERY * 3);
        assert_eq!(sampled, 3, "one sample per {SAMPLE_EVERY} ops");
        // Three scaled 20 us samples, each less a sub-microsecond correction.
        assert!(a.wall_ns[Subsystem::Routing as usize] >= 3 * 19_000 * SAMPLE_EVERY);
    }

    #[test]
    fn merge_sums_and_table_renders() {
        let mut a = CostAttr::enabled();
        for _ in 0..10 {
            let t = a.begin(Subsystem::Heap);
            a.end(Subsystem::Heap, t);
        }
        let mut b = CostAttr::enabled();
        for _ in 0..5 {
            let t = b.begin(Subsystem::Sketch);
            b.end(Subsystem::Sketch, t);
        }
        a.merge(&b);
        assert_eq!(a.ops[Subsystem::Heap as usize], 10);
        assert_eq!(a.ops[Subsystem::Sketch as usize], 5);
        let table = a.table().unwrap();
        assert!(table.contains("heap"));
        assert!(table.contains("sketch"));
        assert!(!table.contains("detector"), "zero buckets stay hidden");
    }

    #[test]
    fn time_counts_only_when_enabled() {
        let mut off = CostAttr::default();
        assert_eq!(off.time(Subsystem::Cpu, || 7), 7);
        assert_eq!(off.total_ops(), 0);
        let mut on = CostAttr::enabled();
        for _ in 0..SAMPLE_EVERY {
            on.time(Subsystem::Cpu, || ());
        }
        assert_eq!(on.ops[Subsystem::Cpu as usize], SAMPLE_EVERY);
        assert!(on.table().unwrap().contains("cpu"));
    }

    #[test]
    fn merge_into_disabled_adopts_enablement() {
        let mut a = CostAttr::default();
        let mut b = CostAttr::enabled();
        let t = b.begin(Subsystem::Tracer);
        b.end(Subsystem::Tracer, t);
        a.merge(&b);
        assert!(a.enabled);
        assert_eq!(a.ops[Subsystem::Tracer as usize], 1);
    }
}
