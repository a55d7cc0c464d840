//! Conservative-parallel windowed execution over sharded worlds.
//!
//! The simulation's servers are partitioned across N *shards*, each with
//! its own [`Engine`] and world state. The network model's deterministic
//! delay floor (`NetworkModel::base_ns`, 250 µs one-way in the datacenter
//! model) is the conservative *lookahead* W: any cross-server effect of an
//! event executed at time `t` lands at `t + W` or later. Time therefore
//! advances in windows `[start, start + W)` — every shard can execute its
//! whole window independently, because nothing another shard does inside
//! the same window can reach it before the window ends.
//!
//! The protocol per window:
//!
//! 1. **Serial phase** (one thread): drain every shard's outbox of
//!    cross-server messages into a staging heap; run the barrier hook
//!    (deterministic application of buffered shared-state effects); run
//!    any *global events* due now (drivers, control agents, fault
//!    injection — they get `&mut` access to every shard); pick the next
//!    window `[start, end)` with `end = min(start + W, next global,
//!    horizon)`; inject staged messages with `at < end` into their target
//!    shards in `(at, src_server, src_seq)` order.
//! 2. **Parallel phase**: every shard runs `Engine::run_before(end)` on
//!    its own thread. No shard touches another shard's state, and shared
//!    state ([`PhaseCell`]) is read-only during this phase.
//!
//! Windows run in timed blocks, each either *inline* (the calling thread
//! runs every shard in shard order) or *threaded* (the protocol above on
//! worker threads); each block takes the mode that measured cheaper per
//! window, so a run never pays for threads that do not pay for
//! themselves. Both modes execute the same windows in the same order.
//!
//! Determinism across shard counts is by construction: window boundaries
//! are a function of global event times and the union of pending event
//! times (both independent of the partitioning); each event executes
//! against state owned by exactly one server; and all cross-server
//! traffic is injected in an order keyed by `(deliver_at, src_server,
//! src_seq)`, never by shard or thread schedule. Running N shards on one
//! thread ([`ConservativeRunner::run_sequential`]) is the *oracle*: the
//! same protocol, zero concurrency, byte-identical results.

use std::cell::UnsafeCell;
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use std::time::{Duration, Instant};

use crate::attr::SAMPLE_EVERY;
use crate::engine::{Engine, EngineReport};
use crate::time::Nanos;

// ---------------------------------------------------------------------
// Phase-gated shared state.
// ---------------------------------------------------------------------

/// Shared state under the window protocol's phase discipline: read by any
/// shard during the parallel phase, written only during the serial phase
/// (when all shards are quiesced at the barrier). The barrier's
/// acquire/release transitions order the accesses.
///
/// Both accessors are `unsafe` because the compiler cannot see the phase
/// discipline; callers assert it.
#[derive(Debug, Default)]
pub struct PhaseCell<T>(UnsafeCell<T>);

// SAFETY: `PhaseCell` hands out `&T` during the parallel phase and
// `&mut T` only during the serial phase; the runner's barriers make those
// phases mutually exclusive and ordered.
unsafe impl<T: Send> Sync for PhaseCell<T> {}

impl<T> PhaseCell<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        PhaseCell(UnsafeCell::new(value))
    }

    /// Shared read access.
    ///
    /// # Safety
    ///
    /// Only call during the parallel phase (no writer exists) or from the
    /// serial phase's single thread.
    pub unsafe fn get(&self) -> &T {
        unsafe { &*self.0.get() }
    }

    /// Exclusive write access.
    ///
    /// # Safety
    ///
    /// Only call from the serial phase's single thread, while no parallel
    /// phase is running and no reference from [`PhaseCell::get`] or
    /// [`PhaseCell::get_mut`] is live.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self) -> &mut T {
        unsafe { &mut *self.0.get() }
    }

    /// Consumes the cell.
    pub fn into_inner(self) -> T {
        self.0.into_inner()
    }
}

// ---------------------------------------------------------------------
// The shard-world contract.
// ---------------------------------------------------------------------

/// A message crossing server boundaries, queued during a window and
/// injected at a later window's opening barrier.
#[derive(Debug, Clone)]
pub struct OutMsg<M> {
    /// Delivery time; must be at least one lookahead past the send time.
    pub at: Nanos,
    /// Sending server (global id) — first injection tie-break.
    pub src_server: u32,
    /// Per-sender monotone sequence — second injection tie-break.
    pub src_seq: u64,
    /// Which shard owns the destination server.
    pub dst_shard: u32,
    /// The payload (carries its own destination server).
    pub msg: M,
}

/// One shard's world: the state of the servers it owns.
///
/// # Safety
///
/// The runner moves shard cells across threads without a `Send` bound on
/// the engine's queued payloads, so implementors promise that every event
/// they schedule into their shard's [`Engine`] captures only `Send` data
/// (function-pointer ticks trivially qualify; boxed closures must not
/// capture `Rc` or other thread-bound state).
pub unsafe trait ShardWorld: Send + Sized + 'static {
    /// The cross-server message type.
    type Msg: Send;

    /// Injects one message at a window-opening barrier. Runs on the
    /// serial thread; must schedule whatever events the delivery implies
    /// at exactly `at`.
    fn deliver(&mut self, engine: &mut Engine<Self>, at: Nanos, msg: Self::Msg);

    /// Moves the shard's pending outbound messages into `sink`. Called
    /// during the serial phase after every window.
    fn drain_outbox(&mut self, sink: &mut Vec<OutMsg<Self::Msg>>);
}

/// One shard: its world plus its event queue.
pub struct ShardCell<W: ShardWorld> {
    pub world: W,
    pub engine: Engine<W>,
}

/// `repr(transparent)` pad so a `&[CellPad<W>]` shared with worker
/// threads can be reborrowed by the serial phase as `&mut [ShardCell<W>]`.
#[repr(transparent)]
struct CellPad<W: ShardWorld>(UnsafeCell<ShardCell<W>>);

// SAFETY: workers touch only their own cells during the parallel phase;
// the serial thread touches any cell only between barriers. `W: Send`
// and the `ShardWorld` contract cover the payloads.
unsafe impl<W: ShardWorld> Sync for CellPad<W> {}

// ---------------------------------------------------------------------
// Barriers.
// ---------------------------------------------------------------------

/// A spinning sense-reversing barrier. Windows are ~microseconds of work
/// per shard — a handful of events under a 250 µs lookahead (7.5 events
/// per window, under 4 per shard, on the 2-shard scale-celebrity
/// benchmark workload) — so parking-based synchronization would dominate;
/// spinning costs nanoseconds. After a bounded spin the waiter yields its
/// timeslice. Windows that thin make even a spinning round trip a large
/// share of a window, which is why [`ConservativeRunner::run_until`]
/// measures whether threading pays at all before using it.
///
/// When participants outnumber the machine's cores the spin premise
/// collapses: some participant is always descheduled, the straggler can
/// only run once a spinner gives up its quantum, and `yield_now` on a
/// loaded runqueue is not a reliable handoff — every barrier degenerates
/// into scheduler quanta burned in a loop (2 shards at 0.2× and 8 shards
/// at 0.03× of 1-shard throughput on a single-core box). [`SpinBarrier::new`]
/// therefore auto-selects a spin-then-*park* mode (mutex + condvar) in
/// that regime, where a waiter that missed the short spin blocks until
/// the releaser's broadcast.
pub struct SpinBarrier {
    n: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    /// Park waiters after a short spin instead of yielding forever —
    /// selected when the participants outnumber the cores.
    park: bool,
    lock: std::sync::Mutex<()>,
    cvar: std::sync::Condvar,
}

/// Spin iterations before a barrier waiter starts yielding.
const SPIN_LIMIT: u32 = 4_096;

/// Spin iterations before an oversubscribed waiter parks. Much shorter
/// than [`SPIN_LIMIT`]: with more runnable threads than cores the release
/// is usually *not* imminent, and every wasted spin is stolen from the
/// thread that would produce it.
const PARK_SPIN_LIMIT: u32 = 128;

impl SpinBarrier {
    /// A barrier for `n` participants, parking automatically when `n`
    /// exceeds the available cores.
    pub fn new(n: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self::with_parking(n, n > cores)
    }

    /// A barrier for `n` participants with the wait mode pinned: `park`
    /// selects spin-then-park, otherwise spin-then-yield.
    pub fn with_parking(n: usize, park: bool) -> Self {
        SpinBarrier {
            n,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            park,
            lock: std::sync::Mutex::new(()),
            cvar: std::sync::Condvar::new(),
        }
    }

    /// Blocks until all `n` participants have arrived.
    pub fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) == self.n - 1 {
            self.count.store(0, Ordering::Relaxed);
            if self.park {
                // Publish the new generation under the lock: a parking
                // waiter re-checks it with the lock held, so it cannot
                // miss the broadcast between its check and its wait.
                let _guard = self.lock.lock().expect("barrier mutex poisoned");
                self.generation.fetch_add(1, Ordering::Release);
                self.cvar.notify_all();
            } else {
                self.generation.fetch_add(1, Ordering::Release);
            }
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            if self.park {
                if spins < PARK_SPIN_LIMIT {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    let mut guard = self.lock.lock().expect("barrier mutex poisoned");
                    while self.generation.load(Ordering::Acquire) == generation {
                        guard = self.cvar.wait(guard).expect("barrier mutex poisoned");
                    }
                    return;
                }
            } else if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Staging and global events.
// ---------------------------------------------------------------------

struct Staged<M>(OutMsg<M>);

impl<M> Staged<M> {
    fn key(&self) -> (Nanos, u32, u64) {
        (self.0.at, self.0.src_server, self.0.src_seq)
    }
}

impl<M> PartialEq for Staged<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for Staged<M> {}
impl<M> PartialOrd for Staged<M> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Staged<M> {
    /// Reversed: `BinaryHeap` is a max-heap and we pop earliest-first.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other.key().cmp(&self.key())
    }
}

/// A global event's closure: runs on the serial thread with access to
/// every shard.
pub type GlobalFn<W> = Box<dyn FnOnce(&mut GlobalCtx<'_, W>)>;

/// The barrier hook's closure: runs on the serial thread at every window
/// boundary, before due globals.
pub type BarrierHook<W> = Box<dyn FnMut(&mut GlobalCtx<'_, W>)>;

struct GlobalEntry<W: ShardWorld> {
    at: Nanos,
    seq: u64,
    f: GlobalFn<W>,
}

impl<W: ShardWorld> PartialEq for GlobalEntry<W> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<W: ShardWorld> Eq for GlobalEntry<W> {}
impl<W: ShardWorld> PartialOrd for GlobalEntry<W> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<W: ShardWorld> Ord for GlobalEntry<W> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// What a global event or barrier hook sees: the current time, every
/// shard, and the ability to schedule further global events.
pub struct GlobalCtx<'a, W: ShardWorld> {
    /// The time this serial phase runs at.
    pub now: Nanos,
    cells: &'a mut [ShardCell<W>],
    queued: &'a mut Vec<(Nanos, GlobalFn<W>)>,
}

impl<W: ShardWorld> GlobalCtx<'_, W> {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// Mutable access to one shard.
    pub fn cell(&mut self, shard: usize) -> &mut ShardCell<W> {
        &mut self.cells[shard]
    }

    /// Mutable access to all shards at once.
    pub fn cells(&mut self) -> &mut [ShardCell<W>] {
        self.cells
    }

    /// Schedules another global event. `at` is clamped to now. Only
    /// global events schedule globals (each is a window boundary); shard
    /// events must never create them.
    pub fn schedule_global(&mut self, at: Nanos, f: impl FnOnce(&mut GlobalCtx<'_, W>) + 'static) {
        self.queued.push((at.max(self.now), Box::new(f)));
    }
}

// ---------------------------------------------------------------------
// The runner.
// ---------------------------------------------------------------------

/// Everything the serial phase owns besides the shard cells themselves —
/// split out so the threaded driver can lend the cells to workers while
/// the coordinator keeps driving this state.
struct RunnerCore<W: ShardWorld> {
    lookahead: Nanos,
    staging: BinaryHeap<Staged<W::Msg>>,
    globals: BinaryHeap<GlobalEntry<W>>,
    global_seq: u64,
    globals_run: u64,
    hook: Option<BarrierHook<W>>,
    now: Nanos,
    outbox_scratch: Vec<OutMsg<W::Msg>>,
    /// The globals a serial-phase callback schedules, lent to each
    /// [`GlobalCtx`] and drained after it so no callback allocates a list.
    queued: Vec<(Nanos, GlobalFn<W>)>,
    /// Windows executed so far, and how many of them ran inline.
    windows: u64,
    inline_windows: u64,
    /// Time every window instead of one in [`SAMPLE_EVERY`] (set while
    /// any shard engine has cost attribution on).
    exact: bool,
    /// Serial-phase and barrier-wait time of the timed windows, scaled by
    /// the sampling factor.
    serial_ns: u128,
    wait_ns: u128,
}

impl<W: ShardWorld> RunnerCore<W> {
    /// Moves the globals a callback scheduled onto the heap, in the order
    /// it scheduled them.
    fn enqueue_queued(&mut self) {
        for (at, f) in self.queued.drain(..) {
            let seq = self.global_seq;
            self.global_seq += 1;
            self.globals.push(GlobalEntry { at, seq, f });
        }
    }

    /// The stopwatch for the next window: running on every window when
    /// timing is exact, else on one window in [`SAMPLE_EVERY`], whose laps
    /// are scaled up to stand for the windows in between.
    fn window_clock(&self) -> Option<Lap> {
        if self.exact {
            Lap::start(1)
        } else if self.windows.is_multiple_of(SAMPLE_EVERY) {
            Lap::start(SAMPLE_EVERY)
        } else {
            None
        }
    }

    /// One serial phase: drain outboxes, run the hook, run due globals,
    /// pick the next window and inject its messages. Returns the window
    /// end, or `None` when nothing remains before `end`.
    fn serial_phase(&mut self, cells: &mut [ShardCell<W>], end: Nanos) -> Option<Nanos> {
        // 1. Drain outboxes into staging.
        let mut scratch = std::mem::take(&mut self.outbox_scratch);
        for cell in cells.iter_mut() {
            cell.world.drain_outbox(&mut scratch);
        }
        for out in scratch.drain(..) {
            debug_assert!(
                out.at >= self.now,
                "cross-server delivery at {} before the barrier at {} — delay under the lookahead?",
                out.at,
                self.now
            );
            self.staging.push(Staged(out));
        }
        self.outbox_scratch = scratch;
        // 2. Barrier hook (buffered shared-state effects).
        if let Some(mut hook) = self.hook.take() {
            let mut ctx = GlobalCtx {
                now: self.now,
                cells,
                queued: &mut self.queued,
            };
            hook(&mut ctx);
            self.enqueue_queued();
            self.hook = Some(hook);
        }
        // 3. Run global events at their exact times until a window opens.
        let window = loop {
            let next_shard = cells.iter().filter_map(|c| c.engine.next_event_at()).min();
            let next_staged = self.staging.peek().map(|s| s.0.at);
            let next_global = self.globals.peek().map(|g| g.at);
            let candidates = [next_shard, next_staged, next_global];
            let Some(next) = candidates.iter().flatten().min().copied() else {
                break None;
            };
            if next >= end {
                break None;
            }
            if next_global == Some(next) {
                // Run every global due at `next`. Globals run before any
                // shard event at the same timestamp, and may enqueue more
                // at the same instant (picked up here in seq order).
                self.now = next;
                // A barrier at `next` means every shard reached `next`:
                // advance idle engines (no shard event is due before
                // `next`, so nothing fires) so serial-phase handlers that
                // read a cell's clock — thread reallocation, stage stats —
                // see the global's time, not a stale window end.
                for cell in cells.iter_mut() {
                    cell.engine.run_before(&mut cell.world, next);
                }
                while self.globals.peek().map(|g| g.at) == Some(next) {
                    let entry = self.globals.pop().expect("peeked");
                    self.globals_run += 1;
                    let mut ctx = GlobalCtx {
                        now: next,
                        cells,
                        queued: &mut self.queued,
                    };
                    (entry.f)(&mut ctx);
                    self.enqueue_queued();
                }
                continue;
            }
            // A window [next, window_end): capped by the lookahead, the
            // next global event, and the horizon.
            let cap = next.checked_add(self.lookahead).unwrap_or(Nanos::MAX);
            let mut window_end = cap.min(end);
            if let Some(g) = self.globals.peek().map(|g| g.at) {
                window_end = window_end.min(g);
            }
            debug_assert!(window_end > next);
            // 4. Inject staged messages due inside the window, in
            // (at, src_server, src_seq) order. Injection happens before
            // the window executes, so injected events take engine seq
            // numbers ahead of anything scheduled during the window — a
            // partition-independent order.
            while self.staging.peek().is_some_and(|s| s.0.at < window_end) {
                let Staged(out) = self.staging.pop().expect("peeked");
                let cell = &mut cells[out.dst_shard as usize];
                cell.world.deliver(&mut cell.engine, out.at, out.msg);
            }
            break Some(window_end);
        };
        match window {
            Some(window_end) => self.now = window_end,
            None => self.now = self.now.max(end),
        }
        window
    }
}

/// A timed window's stopwatch: each [`lap`] returns the time since the
/// previous one, scaled by the sampling factor.
struct Lap {
    at: Instant,
    scale: u64,
}

impl Lap {
    fn start(scale: u64) -> Option<Lap> {
        Some(Lap {
            at: Instant::now(),
            scale,
        })
    }
}

/// The scaled nanoseconds since the clock's last lap, restarting it; zero
/// without a clock read on an untimed window.
fn lap(clock: &mut Option<Lap>) -> u128 {
    let Some(c) = clock else {
        return 0;
    };
    let now = Instant::now();
    let ns = (now - c.at).as_nanos() * u128::from(c.scale);
    c.at = now;
    ns
}

/// Runs one shard's share of a window, crediting its busy time to the
/// shard's engine when the window is timed.
fn run_window<W: ShardWorld>(cell: &mut ShardCell<W>, horizon: Nanos, clock: &mut Option<Lap>) {
    cell.engine.run_before(&mut cell.world, horizon);
    if clock.is_some() {
        cell.engine.record_busy(lap(clock));
    }
}

/// What ends a block besides the horizon: its window count, and for a
/// probe a deadline, checked at the start of each timed window after the
/// first (so a block always makes progress and the check costs no extra
/// clock read).
#[derive(Debug, Clone, Copy)]
struct BlockLimit {
    windows: u64,
    deadline: Option<Instant>,
}

impl BlockLimit {
    /// Whether the block should stop before its `ran`-th window, whose
    /// stopwatch (if the window is timed) is `clock`.
    fn reached(&self, ran: u64, clock: &Option<Lap>) -> bool {
        ran == self.windows
            || (ran > 0 && matches!((self.deadline, clock), (Some(d), Some(c)) if c.at > d))
    }
}

// ---------------------------------------------------------------------
// Choosing how each block of windows runs.
// ---------------------------------------------------------------------

/// Windows per timed block: enough that a threaded block's thread spawns
/// and the block's clock read vanish against its windows, few enough that
/// the choice is revisited every few milliseconds of wall time.
const BLOCK_WINDOWS: u64 = 1_024;

/// After this many blocks in the cheaper mode, one block re-probes the
/// other, so a change in window density is noticed.
const PROBE_EVERY: u32 = 32;

/// How one block of windows executes. Both modes run the same windows in
/// the same order, so the choice never changes a simulated bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The calling thread runs every shard in shard order — the
    /// sequential oracle's loop.
    Inline,
    /// Worker threads run the shards between barriers.
    Threaded,
}

impl Mode {
    fn other(self) -> Mode {
        match self {
            Mode::Inline => Mode::Threaded,
            Mode::Threaded => Mode::Inline,
        }
    }
}

/// Whether threaded blocks may run at all: only with two or more workers
/// on a machine with two or more cores.
fn may_thread(workers: usize, cores: usize) -> bool {
    workers > 1 && cores > 1
}

/// Picks each block's mode from measured wall time per window. Blocks run
/// in the *favourite* mode, whose cost per window is smoothed over its
/// recent blocks; every [`PROBE_EVERY`] blocks one block runs the other
/// mode, and the favourite changes only when that probe is cheaper. The
/// favourite's own swings (a block holding a partition round, a denser
/// patch of windows) therefore never flip the mode by themselves. Block
/// timings are the only input; the first favourite is inline, and the
/// first probe follows the first block.
#[derive(Debug, Clone)]
struct BlockChooser {
    favourite: Mode,
    /// Smoothed nanoseconds per window of the favourite's blocks.
    favourite_cost: Option<f64>,
    /// Favourite blocks since the other mode was last probed.
    since_probe: u32,
}

impl Default for BlockChooser {
    fn default() -> Self {
        BlockChooser {
            favourite: Mode::Inline,
            favourite_cost: None,
            since_probe: PROBE_EVERY,
        }
    }
}

impl BlockChooser {
    /// The next block's mode; always inline unless `threaded_ok`.
    fn next(&self, threaded_ok: bool) -> Mode {
        if !threaded_ok {
            Mode::Inline
        } else if self.favourite_cost.is_some() && self.since_probe >= PROBE_EVERY {
            self.favourite.other()
        } else {
            self.favourite
        }
    }

    /// How long a block of `windows` windows in `mode` may run: unbounded
    /// for the favourite; for a probe, the favourite's time for the whole
    /// block. A probe that has spent that much can no longer come out
    /// cheaper per window, so it stops there, which bounds what a probe
    /// of a badly losing mode costs.
    fn budget(&self, mode: Mode, windows: u64) -> Option<Duration> {
        if mode == self.favourite {
            return None;
        }
        Duration::try_from_secs_f64(self.favourite_cost? * windows as f64 / 1e9).ok()
    }

    /// Records a finished block: `windows` windows in `ns` nanoseconds.
    fn record(&mut self, mode: Mode, windows: u64, ns: u128) {
        if windows == 0 {
            return;
        }
        let cost = ns as f64 / windows as f64;
        if mode == self.favourite {
            let smoothed = self.favourite_cost.map_or(cost, |c| c + (cost - c) / 4.0);
            self.favourite_cost = Some(smoothed);
            self.since_probe += 1;
        } else {
            self.since_probe = 0;
            if self.favourite_cost.is_none_or(|c| cost < c) {
                self.favourite = mode;
                self.favourite_cost = Some(cost);
            }
        }
    }
}

/// The conservative windowed runner over `N` shards. Construct, install
/// initial events (via [`ConservativeRunner::cells_mut`] and
/// [`ConservativeRunner::schedule_global`]), then drive with
/// [`ConservativeRunner::run_until`].
pub struct ConservativeRunner<W: ShardWorld> {
    cells: Vec<ShardCell<W>>,
    core: RunnerCore<W>,
    chooser: BlockChooser,
    /// Wall-clock spanned by `run_until` calls (includes barrier and
    /// serial-phase overhead, unlike the per-shard engine numbers).
    wall_ns: u128,
}

impl<W: ShardWorld> ConservativeRunner<W> {
    /// Builds a runner over the given shard worlds with conservative
    /// lookahead `lookahead` (the network delay floor).
    pub fn new(worlds: Vec<W>, lookahead: Nanos) -> Self {
        assert!(
            lookahead > Nanos::ZERO,
            "conservative lookahead must be positive"
        );
        assert!(!worlds.is_empty(), "need at least one shard");
        ConservativeRunner {
            cells: worlds
                .into_iter()
                .map(|world| ShardCell {
                    world,
                    engine: Engine::new(),
                })
                .collect(),
            core: RunnerCore {
                lookahead,
                staging: BinaryHeap::new(),
                globals: BinaryHeap::new(),
                global_seq: 0,
                globals_run: 0,
                hook: None,
                now: Nanos::ZERO,
                outbox_scratch: Vec::new(),
                queued: Vec::new(),
                windows: 0,
                inline_windows: 0,
                exact: false,
                serial_ns: 0,
                wait_ns: 0,
            },
            chooser: BlockChooser::default(),
            wall_ns: 0,
        }
    }

    /// Current simulation time (the last window boundary reached).
    pub fn now(&self) -> Nanos {
        self.core.now
    }

    /// The conservative lookahead.
    pub fn lookahead(&self) -> Nanos {
        self.core.lookahead
    }

    /// The shards, for installation and post-run inspection.
    pub fn cells_mut(&mut self) -> &mut [ShardCell<W>] {
        &mut self.cells
    }

    /// The shards, read-only.
    pub fn cells(&self) -> &[ShardCell<W>] {
        &self.cells
    }

    /// Consumes the runner, returning the shard worlds.
    pub fn into_worlds(self) -> Vec<W> {
        self.cells.into_iter().map(|c| c.world).collect()
    }

    /// Schedules a global event (serial-phase, all-shard access) at `at`.
    pub fn schedule_global(&mut self, at: Nanos, f: impl FnOnce(&mut GlobalCtx<'_, W>) + 'static) {
        let seq = self.core.global_seq;
        self.core.global_seq += 1;
        self.core.globals.push(GlobalEntry {
            at: at.max(self.core.now),
            seq,
            f: Box::new(f),
        });
    }

    /// Installs the barrier hook, run once per serial phase after the
    /// outboxes drain — the place to apply buffered shared-state effects
    /// in a deterministic order.
    pub fn set_barrier_hook(&mut self, hook: impl FnMut(&mut GlobalCtx<'_, W>) + 'static) {
        self.core.hook = Some(Box::new(hook));
    }

    /// Merged engine report: per-shard counters summed, wall-clock set to
    /// the runner's own elapsed span (barriers included), CPU the sum of
    /// the shard loops plus the serial phases. Global events count as
    /// events.
    ///
    /// The split of CPU time between shard loops, serial phases and
    /// barrier waits is timed on one window in [`SAMPLE_EVERY`] and scaled
    /// up (on every window while cost attribution is on), so the busy
    /// and serial figures are estimates; the wall span is exact.
    pub fn report(&self) -> EngineReport {
        let mut merged = EngineReport::default();
        for cell in &self.cells {
            merged.merge(&cell.engine.report());
        }
        merged.events_processed += self.core.globals_run;
        merged.wall_ns = self.wall_ns;
        merged.cpu_ns += self.core.serial_ns;
        merged.windows = self.core.windows;
        merged.inline_windows = self.core.inline_windows;
        merged.wait_ns = self.core.wait_ns;
        merged
    }

    /// Runs the protocol on the calling thread only — the single-thread
    /// oracle: identical results to any threaded run, no concurrency.
    pub fn run_sequential(&mut self, end: Nanos) {
        self.run_blocks(end, 1, u64::MAX, |_| Mode::Inline);
    }

    /// Runs the protocol with up to `threads` worker threads (shards are
    /// dealt round-robin across workers), never slower than the
    /// sequential oracle by more than the cost of probing: windows run in
    /// timed blocks, each either inline on the calling thread or threaded,
    /// and every block takes whichever mode measured cheaper per window
    /// (see `BlockChooser`). `threads <= 1` — or a machine with a
    /// single core, where worker threads could only interleave through
    /// the scheduler — runs inline only. Results are byte-identical
    /// either way.
    pub fn run_until(&mut self, end: Nanos, threads: usize) {
        let workers = threads.min(self.cells.len());
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let threaded_ok = may_thread(workers, cores);
        self.run_blocks(end, workers, BLOCK_WINDOWS, |chooser| {
            chooser.next(threaded_ok)
        });
    }

    /// Drives blocks of up to `block` windows until nothing remains before
    /// `end`, each in the mode `pick` returns, and feeds every block's
    /// wall time per window back to the chooser — one clock read per
    /// block boundary.
    fn run_blocks(
        &mut self,
        end: Nanos,
        workers: usize,
        block: u64,
        mut pick: impl FnMut(&BlockChooser) -> Mode,
    ) {
        let started = Instant::now();
        self.core.exact = self
            .cells
            .iter_mut()
            .any(|c| c.engine.cost_attr_mut().enabled);
        let mut stamp = started;
        loop {
            let mode = pick(&self.chooser);
            let limit = BlockLimit {
                windows: block,
                deadline: self
                    .chooser
                    .budget(mode, block)
                    .and_then(|budget| stamp.checked_add(budget)),
            };
            let (windows, done) = match mode {
                Mode::Inline => self.inline_block(end, limit),
                Mode::Threaded => self.threaded_block(end, limit, workers),
            };
            let now = Instant::now();
            self.chooser.record(mode, windows, (now - stamp).as_nanos());
            stamp = now;
            if done {
                break;
            }
        }
        for cell in &mut self.cells {
            // Advance quiesced shards' clocks to the horizon.
            cell.engine.run_before(&mut cell.world, end);
        }
        self.wall_ns += started.elapsed().as_nanos();
    }

    /// Runs windows on the calling thread, every shard in shard order,
    /// until `limit` or the horizon. Returns the windows run and whether
    /// the horizon was reached.
    fn inline_block(&mut self, end: Nanos, limit: BlockLimit) -> (u64, bool) {
        let (cells, core) = (&mut self.cells, &mut self.core);
        let mut ran = 0;
        loop {
            let mut clock = core.window_clock();
            if limit.reached(ran, &clock) {
                return (ran, false);
            }
            let Some(horizon) = core.serial_phase(cells, end) else {
                return (ran, true);
            };
            core.serial_ns += lap(&mut clock);
            for cell in cells.iter_mut() {
                run_window(cell, horizon, &mut clock);
            }
            core.windows += 1;
            core.inline_windows += 1;
            ran += 1;
        }
    }

    /// Runs windows with `workers` threads until `limit` or the horizon:
    /// the calling thread runs the serial phases and the worker-0 share of
    /// every window, the other workers live for this block only. Returns
    /// the windows run and whether the horizon was reached.
    fn threaded_block(&mut self, end: Nanos, limit: BlockLimit, workers: usize) -> (u64, bool) {
        let n = self.cells.len();
        let pads: Vec<CellPad<W>> = std::mem::take(&mut self.cells)
            .into_iter()
            .map(|c| CellPad(UnsafeCell::new(c)))
            .collect();
        let window_end = AtomicU64::new(0);
        // The timed window's sampling factor, 0 when untimed.
        let window_scale = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let start_barrier = SpinBarrier::new(workers);
        let end_barrier = SpinBarrier::new(workers);
        let core = &mut self.core;
        let outcome = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers)
                .map(|w| {
                    let (pads, window_end, window_scale) = (&pads, &window_end, &window_scale);
                    let (stop, start_barrier, end_barrier) = (&stop, &start_barrier, &end_barrier);
                    scope.spawn(move || {
                        // A timed window's clock runs on through the
                        // barriers, so the lap after the next start
                        // barrier is this worker's wait.
                        let mut clock = None;
                        let mut wait_ns = 0;
                        loop {
                            start_barrier.wait();
                            wait_ns += lap(&mut clock);
                            if stop.load(Ordering::Acquire) {
                                break wait_ns;
                            }
                            let horizon = Nanos(window_end.load(Ordering::Acquire));
                            clock = match window_scale.load(Ordering::Acquire) {
                                0 => None,
                                scale => Lap::start(scale),
                            };
                            for pad in pads.iter().skip(w).step_by(workers) {
                                // SAFETY: between the start and end
                                // barriers, worker `w` exclusively owns
                                // shards w, w+k, ...
                                let cell = unsafe { &mut *pad.0.get() };
                                run_window(cell, horizon, &mut clock);
                            }
                            end_barrier.wait();
                        }
                    })
                })
                .collect();
            // Coordinator (this thread): serial phases while the workers
            // are parked, plus the worker-0 share of each parallel phase.
            let mut ran = 0;
            let done = loop {
                let mut clock = core.window_clock();
                if limit.reached(ran, &clock) {
                    break false;
                }
                // SAFETY: every worker is parked at `start_barrier`, so
                // the serial phase has exclusive access to all cells.
                // `CellPad` is repr(transparent) over `ShardCell`.
                let cells: &mut [ShardCell<W>] = unsafe {
                    std::slice::from_raw_parts_mut(pads.as_ptr() as *mut ShardCell<W>, n)
                };
                let Some(horizon) = core.serial_phase(cells, end) else {
                    break true;
                };
                core.serial_ns += lap(&mut clock);
                window_end.store(horizon.as_nanos(), Ordering::Release);
                window_scale.store(clock.as_ref().map_or(0, |c| c.scale), Ordering::Release);
                start_barrier.wait();
                core.wait_ns += lap(&mut clock);
                for pad in pads.iter().step_by(workers) {
                    // SAFETY: the worker-0 share of the parallel phase; no
                    // other thread touches these cells.
                    let cell = unsafe { &mut *pad.0.get() };
                    run_window(cell, horizon, &mut clock);
                }
                end_barrier.wait();
                core.wait_ns += lap(&mut clock);
                core.windows += 1;
                ran += 1;
            };
            stop.store(true, Ordering::Release);
            start_barrier.wait();
            for handle in handles {
                core.wait_ns += handle.join().expect("shard worker panicked");
            }
            (ran, done)
        });
        self.cells = pads.into_iter().map(|p| p.0.into_inner()).collect();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A toy sharded world: nine logical servers dealt round-robin across
    /// shards. Each "visit" event logs `(time, tag)` at its server and
    /// forwards a decremented tag to another server one lookahead later
    /// (plus tag-dependent jitter), so chains cross shard boundaries
    /// constantly; some visits also schedule a purely local follow-up
    /// inside the window. The per-server logs are the ground truth that
    /// must not depend on the shard count or thread count.
    const LOOKAHEAD: Nanos = Nanos(250_000);
    const SERVERS: u32 = 9;

    struct ToyMsg {
        dst_server: u32,
        tag: u64,
    }

    struct ToyShard {
        shards: u32,
        logs: BTreeMap<u32, Vec<(u64, u64)>>,
        outbox: Vec<OutMsg<ToyMsg>>,
        out_seq: BTreeMap<u32, u64>,
    }

    fn shard_of(server: u32, shards: u32) -> u32 {
        server % shards
    }

    fn pack(server: u32, tag: u64) -> u64 {
        (u64::from(server) << 32) | tag
    }

    fn visit(w: &mut ToyShard, e: &mut Engine<ToyShard>, data: u64) {
        let server = (data >> 32) as u32;
        let tag = data & 0xffff_ffff;
        let now = e.now();
        w.logs
            .get_mut(&server)
            .expect("event routed to a shard that does not own the server")
            .push((now.as_nanos(), tag));
        if tag > 0 {
            let dst_server = ((u64::from(server) + tag) % u64::from(SERVERS)) as u32;
            let seq = w.out_seq.entry(server).or_insert(0);
            *seq += 1;
            w.outbox.push(OutMsg {
                at: now + LOOKAHEAD + Nanos((tag * 17) % 1_000),
                src_server: server,
                src_seq: *seq,
                dst_shard: shard_of(dst_server, w.shards),
                msg: ToyMsg {
                    dst_server,
                    tag: tag - 1,
                },
            });
            if tag.is_multiple_of(3) {
                e.schedule_tick(now + Nanos(5), mark, pack(server, 1_000 + tag));
            }
        }
    }

    fn mark(w: &mut ToyShard, e: &mut Engine<ToyShard>, data: u64) {
        let server = (data >> 32) as u32;
        let tag = data & 0xffff_ffff;
        w.logs
            .get_mut(&server)
            .unwrap()
            .push((e.now().as_nanos(), tag));
    }

    unsafe impl ShardWorld for ToyShard {
        type Msg = ToyMsg;

        fn deliver(&mut self, engine: &mut Engine<Self>, at: Nanos, msg: ToyMsg) {
            engine.schedule_tick(at, visit, pack(msg.dst_server, msg.tag));
        }

        fn drain_outbox(&mut self, sink: &mut Vec<OutMsg<ToyMsg>>) {
            sink.append(&mut self.outbox);
        }
    }

    fn build(shards: u32) -> ConservativeRunner<ToyShard> {
        let worlds = (0..shards)
            .map(|sh| ToyShard {
                shards,
                logs: (0..SERVERS)
                    .filter(|s| shard_of(*s, shards) == sh)
                    .map(|s| (s, Vec::new()))
                    .collect(),
                outbox: Vec::new(),
                out_seq: BTreeMap::new(),
            })
            .collect();
        let mut runner = ConservativeRunner::new(worlds, LOOKAHEAD);
        for s in 0..SERVERS {
            let sh = shard_of(s, shards) as usize;
            runner.cells_mut()[sh].engine.schedule_tick(
                Nanos(1_000 * u64::from(s + 1)),
                visit,
                pack(s, 12),
            );
        }
        runner
    }

    /// A recurring global event: stamps every server's log, then
    /// reschedules itself `remaining` more times.
    fn global_stamp(ctx: &mut GlobalCtx<'_, ToyShard>, remaining: u64) {
        let now = ctx.now.as_nanos();
        for cell in ctx.cells() {
            for log in cell.world.logs.values_mut() {
                log.push((now, 9_999));
            }
        }
        if remaining > 0 {
            let at = ctx.now + Nanos(700_000);
            ctx.schedule_global(at, move |ctx| global_stamp(ctx, remaining - 1));
        }
    }

    /// Per-server `(time, tag)` logs, keyed by server id.
    type ServerLogs = Vec<(u32, Vec<(u64, u64)>)>;

    fn run_and_collect(shards: u32, threads: usize) -> (ServerLogs, u64) {
        let (logs, report) = collect_with(shards, |runner, end| runner.run_until(end, threads));
        (logs, report.events_processed)
    }

    /// Runs the toy world with `run` (which takes the runner and a
    /// horizon) to 60 ms and then to 200 ms; returns the per-server logs
    /// and the runner's report.
    fn collect_with(
        shards: u32,
        mut run: impl FnMut(&mut ConservativeRunner<ToyShard>, Nanos),
    ) -> (ServerLogs, EngineReport) {
        let mut runner = build(shards);
        runner.schedule_global(Nanos(500_000), |ctx| global_stamp(ctx, 3));
        run(&mut runner, Nanos::from_millis(60));
        run(&mut runner, Nanos::from_millis(200));
        let report = runner.report();
        let mut logs: ServerLogs = Vec::new();
        for world in runner.into_worlds() {
            for (s, log) in world.logs {
                logs.push((s, log));
            }
        }
        logs.sort_by_key(|(s, _)| *s);
        (logs, report)
    }

    #[test]
    fn forced_block_schedules_match_sequential() {
        let (base, base_report) = collect_with(4, |runner, end| runner.run_sequential(end));
        assert_eq!(base_report.inline_windows, base_report.windows);
        for block in [1u64, 3, 7] {
            for first in [Mode::Inline, Mode::Threaded] {
                for threads in [2usize, 4] {
                    // Alternate modes block by block, starting with `first`.
                    let mut mode = first.other();
                    let (logs, report) = collect_with(4, |runner, end| {
                        runner.run_blocks(end, threads, block, |_| {
                            mode = mode.other();
                            mode
                        })
                    });
                    let case = format!("block={block} first={first:?} threads={threads}");
                    assert_eq!(logs, base, "{case}: logs diverged from sequential");
                    assert_eq!(
                        report.events_processed, base_report.events_processed,
                        "{case}: event count diverged"
                    );
                    assert_eq!(report.windows, base_report.windows, "{case}");
                    assert!(
                        report.inline_windows > 0 && report.inline_windows < report.windows,
                        "{case}: both modes ran ({} of {} inline)",
                        report.inline_windows,
                        report.windows
                    );
                }
            }
        }
    }

    #[test]
    fn chooser_runs_the_cheaper_mode_and_reprobes_on_cadence() {
        let mut chooser = BlockChooser::default();
        // One inline block, then the first probe of threading, which
        // costs more per window: inline stays.
        assert_eq!(chooser.next(true), Mode::Inline);
        chooser.record(Mode::Inline, 1_000, 4_000_000);
        assert_eq!(chooser.next(true), Mode::Threaded);
        chooser.record(Mode::Threaded, 1_000, 6_000_000);
        // Inline runs PROBE_EVERY blocks, then threading is probed again.
        // A single slow inline block on the way does not flip the mode.
        for i in 0..PROBE_EVERY {
            assert_eq!(chooser.next(true), Mode::Inline);
            let ns = if i == 5 { 14_000_000 } else { 4_000_000 };
            chooser.record(Mode::Inline, 1_000, ns);
        }
        assert_eq!(chooser.next(true), Mode::Threaded, "probe on cadence");
        // Windows got denser: the probe finds threading cheaper, and it
        // takes over until inline is probed in turn.
        chooser.record(Mode::Threaded, 1_000, 3_000_000);
        for _ in 0..PROBE_EVERY {
            assert_eq!(chooser.next(true), Mode::Threaded);
            chooser.record(Mode::Threaded, 1_000, 3_000_000);
        }
        assert_eq!(chooser.next(true), Mode::Inline, "probe on cadence");
        // Cost is per window: a short probe that took less time in total
        // but more per window does not win.
        chooser.record(Mode::Inline, 10, 40_000);
        assert_eq!(chooser.next(true), Mode::Threaded);
        // A block cut short before any window carries no timing.
        chooser.record(Mode::Inline, 0, 1);
        assert_eq!(chooser.favourite, Mode::Threaded);
        assert_eq!(chooser.since_probe, 0);
    }

    #[test]
    fn a_probe_stops_once_it_has_provably_lost() {
        let mut chooser = BlockChooser::default();
        assert_eq!(chooser.budget(Mode::Inline, 1_000), None, "favourite");
        assert_eq!(chooser.budget(Mode::Threaded, 1_000), None, "no timing yet");
        chooser.record(Mode::Inline, 1_000, 4_000_000);
        assert_eq!(chooser.budget(Mode::Inline, 1_000), None);
        assert_eq!(
            chooser.budget(Mode::Threaded, 1_000),
            Some(Duration::from_millis(4)),
            "the favourite's time for the whole block"
        );
        // Past the deadline a block stops at its next timed window, but
        // never before its first window and never on an untimed one.
        let limit = BlockLimit {
            windows: 1_000,
            deadline: Some(Instant::now()),
        };
        std::thread::sleep(Duration::from_millis(1));
        let timed = Lap::start(1);
        assert!(!limit.reached(0, &timed), "a block always makes progress");
        assert!(limit.reached(1, &timed));
        assert!(!limit.reached(1, &None));
        assert!(limit.reached(1_000, &None), "window count");
        // On a run: with every window timed, an overdue block runs one
        // window and hands back.
        let mut runner = build(3);
        runner.core.exact = true;
        let (ran, done) = runner.inline_block(Nanos::from_millis(50), limit);
        assert_eq!((ran, done), (1, false));
    }

    #[test]
    fn chooser_never_threads_without_workers_or_cores() {
        let mut chooser = BlockChooser::default();
        chooser.record(Mode::Inline, 1_000, 9_000_000);
        chooser.record(Mode::Threaded, 1_000, 1_000);
        assert_eq!(chooser.favourite, Mode::Threaded);
        for _ in 0..(4 * PROBE_EVERY) {
            assert_eq!(chooser.next(false), Mode::Inline);
            chooser.record(Mode::Inline, 1_000, 9_000_000);
        }
        assert!(!may_thread(1, 8), "one worker");
        assert!(!may_thread(0, 8), "no worker");
        assert!(!may_thread(4, 1), "one core");
        assert!(may_thread(2, 2));
        let (_, report) = collect_with(4, |runner, end| runner.run_until(end, 1));
        assert!(report.windows > 0);
        assert_eq!(
            report.inline_windows, report.windows,
            "threads=1 stays inline"
        );
        assert_eq!(report.wait_ns, 0, "no barrier was crossed");
    }

    #[test]
    fn logs_identical_across_shard_counts() {
        let (base, base_events) = run_and_collect(1, 1);
        let entries: usize = base.iter().map(|(_, l)| l.len()).sum();
        assert!(entries > 100, "toy run too small to be meaningful");
        for shards in [2u32, 3, 4, 9] {
            let (logs, events) = run_and_collect(shards, 1);
            assert_eq!(logs, base, "shards={shards} diverged from 1-shard oracle");
            assert_eq!(events, base_events, "shards={shards} event count diverged");
        }
    }

    #[test]
    fn threaded_matches_sequential() {
        let (base, base_events) = run_and_collect(4, 1);
        for threads in [2usize, 4, 8] {
            let (logs, events) = run_and_collect(4, threads);
            assert_eq!(logs, base, "threads={threads} diverged from sequential");
            assert_eq!(
                events, base_events,
                "threads={threads} event count diverged"
            );
        }
    }

    #[test]
    fn globals_run_before_shard_events_at_the_same_instant() {
        let mut runner = build(2);
        // Server 0's first visit fires at exactly 1_000; a global stamped
        // at the same instant must land in the log first.
        runner.schedule_global(Nanos(1_000), |ctx| global_stamp(ctx, 0));
        runner.run_until(Nanos::from_millis(1), 1);
        let worlds = runner.into_worlds();
        let log = &worlds[0].logs[&0];
        assert_eq!(log[0], (1_000, 9_999), "global must precede the visit");
        assert_eq!(log[1], (1_000, 12));
    }

    #[test]
    fn staged_messages_inject_in_source_order() {
        // Two servers on different shards send to the same destination at
        // the same delivery time; injection order must follow src_server
        // then src_seq, not shard iteration or drain order.
        struct Probe {
            log: Vec<(u32, u64)>,
            outbox: Vec<OutMsg<(u32, u64)>>,
        }
        fn record(w: &mut Probe, _e: &mut Engine<Probe>, data: u64) {
            w.log.push(((data >> 32) as u32, data & 0xffff_ffff));
        }
        unsafe impl ShardWorld for Probe {
            type Msg = (u32, u64);
            fn deliver(&mut self, engine: &mut Engine<Self>, at: Nanos, msg: (u32, u64)) {
                engine.schedule_tick(at, record, (u64::from(msg.0) << 32) | msg.1);
            }
            fn drain_outbox(&mut self, sink: &mut Vec<OutMsg<(u32, u64)>>) {
                sink.append(&mut self.outbox);
            }
        }
        let probe = || Probe {
            log: Vec::new(),
            outbox: Vec::new(),
        };
        let mut runner = ConservativeRunner::new(vec![probe(), probe()], LOOKAHEAD);
        let at = Nanos(300_000);
        // Pushed out of order on shard 1; shard 0 sends the middle one.
        runner.cells_mut()[1].world.outbox.extend([
            OutMsg {
                at,
                src_server: 5,
                src_seq: 2,
                dst_shard: 0,
                msg: (5, 2),
            },
            OutMsg {
                at,
                src_server: 5,
                src_seq: 1,
                dst_shard: 0,
                msg: (5, 1),
            },
        ]);
        runner.cells_mut()[0].world.outbox.push(OutMsg {
            at,
            src_server: 2,
            src_seq: 7,
            dst_shard: 0,
            msg: (2, 7),
        });
        runner.run_until(Nanos::from_millis(1), 1);
        let worlds = runner.into_worlds();
        assert_eq!(worlds[0].log, vec![(2, 7), (5, 1), (5, 2)]);
    }

    #[test]
    fn report_merges_shard_work() {
        let mut runner = build(3);
        runner.schedule_global(Nanos(500_000), |ctx| global_stamp(ctx, 1));
        runner.run_until(Nanos::from_millis(50), 1);
        let report = runner.report();
        assert!(report.events_processed > 2, "globals count as events");
        assert!(report.wall_ns > 0);
        assert!(report.cpu_ns > 0);
    }

    #[test]
    fn spin_barrier_synchronizes() {
        for park in [false, true] {
            let barrier = SpinBarrier::with_parking(4, park);
            let counter = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        for round in 1..=50usize {
                            counter.fetch_add(1, Ordering::AcqRel);
                            barrier.wait();
                            assert_eq!(counter.load(Ordering::Acquire), round * 4);
                            barrier.wait();
                        }
                    });
                }
            });
            assert_eq!(counter.load(Ordering::Acquire), 200, "park={park}");
        }
    }

    #[test]
    fn parking_barrier_survives_heavy_oversubscription() {
        // More participants than any test box has cores: with the yield
        // loop this burns scheduler quanta; with parking it completes
        // promptly. Correctness (not timing) is the assertion.
        let n = 32;
        let barrier = SpinBarrier::with_parking(n, true);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..n {
                scope.spawn(|| {
                    for _ in 0..20 {
                        counter.fetch_add(1, Ordering::AcqRel);
                        barrier.wait();
                        assert!(counter.load(Ordering::Acquire).is_multiple_of(n));
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Acquire), n * 20);
    }
}
