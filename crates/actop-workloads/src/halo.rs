//! The Halo Presence workload (§3, §6.1).
//!
//! Two actor types: **players** and **games**. A client status request to a
//! player fans out through the player's game to all eight members:
//!
//! ```text
//! client -> player --POLL--> game --PING--> 8 players
//!                                 <--reply--
//!                  <--reply--
//! client <- player
//! ```
//!
//! One client request therefore produces 18 actor-to-actor messages
//! (1 + 8 requests, 8 + 1 replies), exactly the paper's count.
//!
//! The lifecycle churn matches §6: players arrive as a Poisson process
//! sized for the target concurrent population, idle players wait in a
//! matchmaking pool, eight random pool members form a game, games last
//! 20–30 minutes (uniform), players play 3–5 games and then leave. At the
//! paper's parameters this changes about 1% of the communication graph per
//! minute.

use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

use actop_runtime::sharded::{submit_client_request_sharded, ShardedCluster};
use actop_runtime::{ActorId, AppLogic, Call, Cluster, Reaction};
use actop_sim::{DetRng, Engine, GlobalCtx, Nanos, PhaseCell};

use crate::{Backend, PUMP_INTERVAL_NS};

/// Tag of a client status request to a player.
pub const TAG_STATUS: u32 = 0;
/// Tag of a player's poll of its game.
pub const TAG_POLL: u32 = 1;
/// Tag of a game's broadcast ping to a member.
pub const TAG_PING: u32 = 2;

/// Game actor ids live above this offset; player ids below it.
const GAME_BASE: u64 = 1 << 40;

/// The actor id of player `p`.
pub fn player_actor(p: u64) -> ActorId {
    debug_assert!(p < GAME_BASE);
    ActorId(p)
}

/// The actor id of game `g`.
pub fn game_actor(g: u64) -> ActorId {
    ActorId(GAME_BASE + g)
}

/// Halo Presence configuration.
#[derive(Debug, Clone, Copy)]
pub struct HaloConfig {
    /// Target concurrent players (the paper runs 10K / 100K / 1M).
    pub total_players: u64,
    /// Players per game (8).
    pub players_per_game: usize,
    /// Idle matchmaking-pool target (1000 at paper scale).
    pub idle_pool_target: usize,
    /// Game duration range in seconds (uniform; 1200–1800 in the paper).
    pub game_duration_s: (f64, f64),
    /// Games played per player before leaving (uniform inclusive; 3–5).
    pub games_per_player: (u32, u32),
    /// Client status-request rate, requests per second.
    pub request_rate: f64,
    /// Client request payload bytes.
    pub request_bytes: u64,
    /// Actor-to-actor payload bytes.
    pub payload_bytes: u64,
    /// Mean CPU cost of the player STATUS handler, nanoseconds (handler
    /// times are exponentially distributed around their mean).
    pub status_cpu_ns: f64,
    /// Mean CPU cost of the game POLL (broadcast) handler, nanoseconds.
    pub poll_cpu_ns: f64,
    /// Mean CPU cost of the player PING handler, nanoseconds.
    pub ping_cpu_ns: f64,
    /// CPU cost of processing one gathered sub-reply, nanoseconds.
    pub continuation_cpu_ns: f64,
    /// How long clients keep issuing requests.
    pub duration: Nanos,
    /// Workload seed.
    pub seed: u64,
}

impl HaloConfig {
    /// The paper's parameters at a given scale. `total_players` is the
    /// concurrent population; the pool target scales proportionally
    /// (1000 at 100K players).
    pub fn paper_scale(total_players: u64, request_rate: f64, duration: Nanos, seed: u64) -> Self {
        HaloConfig {
            total_players,
            players_per_game: 8,
            idle_pool_target: ((total_players / 100) as usize).max(8),
            game_duration_s: (1200.0, 1800.0),
            games_per_player: (3, 5),
            request_rate,
            request_bytes: 300,
            payload_bytes: 600,
            status_cpu_ns: 210_000.0,
            poll_cpu_ns: 210_000.0,
            ping_cpu_ns: 180_000.0,
            continuation_cpu_ns: 125_000.0,
            duration,
            seed,
        }
    }

    /// A fast-churn variant for tests: seconds-long games so lifecycle
    /// transitions happen within short runs.
    pub fn fast_churn(total_players: u64, request_rate: f64, duration: Nanos, seed: u64) -> Self {
        HaloConfig {
            game_duration_s: (5.0, 10.0),
            ..Self::paper_scale(total_players, request_rate, duration, seed)
        }
    }

    /// Mean session length in seconds (games per player × mean duration).
    pub fn mean_session_secs(&self) -> f64 {
        let games = (self.games_per_player.0 + self.games_per_player.1) as f64 / 2.0;
        let duration = (self.game_duration_s.0 + self.game_duration_s.1) / 2.0;
        games * duration
    }

    /// Player arrival rate sustaining the target population, players/sec.
    pub fn arrival_rate(&self) -> f64 {
        self.total_players as f64 / self.mean_session_secs()
    }
}

#[derive(Debug, Clone, Copy)]
struct PlayerInfo {
    game: Option<u64>,
    games_left: u32,
}

/// Lifecycle statistics, exposed for tests and convergence benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HaloStats {
    /// Games started (including pre-population).
    pub games_started: u64,
    /// Games that ran to completion.
    pub games_ended: u64,
    /// Players who arrived (including pre-population).
    pub players_arrived: u64,
    /// Players who finished their last game and left.
    pub players_left: u64,
}

/// A lifecycle event the driver queues.
#[derive(Debug, Clone, Copy)]
enum Lifecycle {
    /// One player arrives.
    Arrival,
    /// The game ends.
    GameOver(u64),
}

/// Lifecycle events to queue, in the order they must be queued.
type Queued = Vec<(Nanos, Lifecycle)>;

/// The lifecycle state of the Halo population, shared between the request
/// handlers (which read it) and the driver's lifecycle events (which write
/// it) through an `Arc<PhaseCell<..>>`. On the sharded backend every
/// write happens in a serial-phase global while no window runs; on the
/// sequential backend every event runs on one thread, so the same
/// discipline holds trivially.
struct HaloState {
    cfg: HaloConfig,
    rng: DetRng,
    players: HashMap<u64, PlayerInfo>,
    games: HashMap<u64, Vec<u64>>,
    pool: Vec<u64>,
    alive: Vec<u64>,
    alive_pos: HashMap<u64, usize>,
    next_player: u64,
    next_game: u64,
    stats: HaloStats,
}

impl HaloState {
    fn new(cfg: HaloConfig) -> Self {
        HaloState {
            rng: DetRng::stream(cfg.seed, 0x40),
            players: HashMap::new(),
            games: HashMap::new(),
            pool: Vec::new(),
            alive: Vec::new(),
            alive_pos: HashMap::new(),
            next_player: 0,
            next_game: 0,
            stats: HaloStats::default(),
            cfg,
        }
    }

    fn add_alive(&mut self, p: u64) {
        self.alive_pos.insert(p, self.alive.len());
        self.alive.push(p);
    }

    fn remove_alive(&mut self, p: u64) {
        let Some(pos) = self.alive_pos.remove(&p) else {
            return;
        };
        let last = self.alive.len() - 1;
        self.alive.swap(pos, last);
        self.alive.pop();
        if pos <= last && pos < self.alive.len() {
            self.alive_pos.insert(self.alive[pos], pos);
        }
    }

    fn new_player(&mut self) -> u64 {
        let p = self.next_player;
        self.next_player += 1;
        let (lo, hi) = self.cfg.games_per_player;
        let games_left = self.rng.range_inclusive(lo as u64, hi as u64) as u32;
        self.players.insert(
            p,
            PlayerInfo {
                game: None,
                games_left,
            },
        );
        self.add_alive(p);
        self.pool.push(p);
        self.stats.players_arrived += 1;
        p
    }

    /// Forms one game from random pool members. Returns its id.
    fn form_game(&mut self) -> u64 {
        let g = self.next_game;
        self.next_game += 1;
        let mut members = Vec::with_capacity(self.cfg.players_per_game);
        for _ in 0..self.cfg.players_per_game {
            let idx = self.rng.below(self.pool.len());
            members.push(self.pool.swap_remove(idx));
        }
        for &p in &members {
            if let Some(info) = self.players.get_mut(&p) {
                info.game = Some(g);
            }
        }
        self.games.insert(g, members);
        self.stats.games_started += 1;
        g
    }

    fn can_form_game(&self) -> bool {
        self.pool.len() >= self.cfg.players_per_game && self.pool.len() > self.cfg.idle_pool_target
    }

    fn game_duration(&mut self) -> Nanos {
        let (lo, hi) = self.cfg.game_duration_s;
        Nanos::from_secs_f64(self.rng.uniform(lo, hi))
    }

    /// The lifecycle at time zero: pre-population, then the first arrival.
    fn start(&mut self) -> Queued {
        let mut queued = self.prepopulate();
        queued.extend(self.arrival(Nanos::ZERO));
        queued
    }

    /// Runs `event` at `now`.
    fn run(&mut self, now: Nanos, event: Lifecycle) -> Queued {
        match event {
            Lifecycle::Arrival => self.arrival(now),
            Lifecycle::GameOver(game) => self.game_over(now, game),
        }
    }

    /// Creates the steady-state population at time zero: the idle pool at
    /// its target size, everyone else in games with uniformly residual end
    /// times.
    fn prepopulate(&mut self) -> Queued {
        let mut ends = Vec::new();
        for _ in 0..self.cfg.total_players {
            let p = self.new_player();
            // Pre-populated players are mid-session: their remaining game
            // count is residual (uniform in [1, max]), otherwise departures
            // would lag arrivals and the population would overshoot.
            let hi = self.cfg.games_per_player.1 as u64;
            let remaining = self.rng.range_inclusive(1, hi) as u32;
            if let Some(info) = self.players.get_mut(&p) {
                info.games_left = remaining;
            }
        }
        // Leave the pool at its target; everyone else plays.
        while self.can_form_game() {
            let g = self.form_game();
            // Residual lifetime: uniform over a full game duration.
            let full = self.game_duration();
            let residual = Nanos::from_nanos(self.rng.range_inclusive(1, full.as_nanos().max(2)));
            ends.push((residual, Lifecycle::GameOver(g)));
        }
        ends
    }

    /// One player arrives; matchmaking may start games.
    fn arrival(&mut self, now: Nanos) -> Queued {
        self.new_player();
        let mut queued = self.matchmake(now);
        let gap = Nanos::from_secs_f64(self.rng.exp(1.0 / self.cfg.arrival_rate()));
        if now + gap < self.cfg.duration {
            queued.push((now + gap, Lifecycle::Arrival));
        }
        queued
    }

    /// A game ends: members leave or re-enter the pool; matchmaking
    /// continues.
    fn game_over(&mut self, now: Nanos, game: u64) -> Queued {
        let Some(members) = self.games.remove(&game) else {
            return Vec::new();
        };
        self.stats.games_ended += 1;
        for p in members {
            let Some(info) = self.players.get_mut(&p) else {
                continue;
            };
            info.game = None;
            info.games_left = info.games_left.saturating_sub(1);
            if info.games_left == 0 {
                self.players.remove(&p);
                self.remove_alive(p);
                self.stats.players_left += 1;
            } else {
                self.pool.push(p);
            }
        }
        self.matchmake(now)
    }

    /// Starts games while the pool allows; each ends one game duration
    /// after `now`.
    fn matchmake(&mut self, now: Nanos) -> Queued {
        let mut ends = Vec::new();
        while self.can_form_game() {
            let g = self.form_game();
            ends.push((now + self.game_duration(), Lifecycle::GameOver(g)));
        }
        ends
    }

    /// A uniformly random live player, or `None` if nobody is online.
    fn random_player(&self, rng: &mut DetRng) -> Option<u64> {
        (!self.alive.is_empty()).then(|| self.alive[rng.below(self.alive.len())])
    }
}

/// Workload parameter sanity checks: rejects any configuration whose
/// lifecycle draws could not run.
fn validate_config(cfg: &HaloConfig) {
    assert!(cfg.total_players >= cfg.players_per_game as u64);
    assert!(cfg.players_per_game >= 2);
    assert!(
        cfg.request_rate.is_finite() && cfg.request_rate > 0.0,
        "request_rate must be positive and finite"
    );
    let (lo, hi) = cfg.games_per_player;
    assert!(
        hi > 0 && lo <= hi,
        "games_per_player must be an ordered range with a positive upper end"
    );
    let (lo, hi) = cfg.game_duration_s;
    assert!(
        lo >= 0.0 && lo <= hi && hi.is_finite() && hi > 0.0,
        "game_duration_s must be a finite, ordered, non-negative range with a positive upper end"
    );
}

/// The state handlers read and driver events write; see [`HaloState`].
type Shared = Arc<PhaseCell<HaloState>>;

/// The built Halo Presence workload: its driver, for either backend.
///
/// Neither `Send` nor `Sync`: [`Self::stats`] and the live counts read
/// state that a sharded run writes, so the handle stays on the thread
/// that drives the run and cannot be read while it runs.
///
/// ```compile_fail
/// fn send<T: Send>() {} send::<actop_workloads::HaloWorkload>();
/// ```
/// ```compile_fail
/// fn sync<T: Sync>() {} sync::<actop_workloads::HaloWorkload>();
/// ```
pub struct HaloWorkload {
    state: Shared,
    _thread_bound: PhantomData<*const ()>,
}

/// The request handlers, for either backend.
struct HaloApp {
    state: Shared,
    continuation_cpu_ns: f64,
}

impl AppLogic for HaloApp {
    fn on_request(&self, actor: ActorId, tag: u32, rng: &mut DetRng) -> Reaction {
        // SAFETY: only driver events write the state. On the sharded
        // backend they are serial-phase globals, and handlers run inside
        // windows; on the sequential backend every event runs on one
        // thread and no driver borrow outlives its event.
        let state = unsafe { self.state.get() };
        let cfg = &state.cfg;
        // Handler compute times are exponentially distributed around their
        // configured means, giving realistic service-time variance.
        let mut cost = |mean: f64| rng.exp(mean);
        match tag {
            TAG_STATUS => {
                let player = actor.0;
                let game = state.players.get(&player).and_then(|info| info.game);
                match game.filter(|g| state.games.contains_key(g)) {
                    Some(g) => Reaction::fan_out(
                        cost(cfg.status_cpu_ns),
                        vec![Call {
                            to: game_actor(g),
                            tag: TAG_POLL,
                            bytes: cfg.payload_bytes,
                        }],
                        cfg.request_bytes,
                    ),
                    // Idle or departed player: answer from local state.
                    None => Reaction::reply(cost(cfg.status_cpu_ns * 0.5), cfg.request_bytes),
                }
            }
            TAG_POLL => {
                let game = actor.0 - GAME_BASE;
                match state.games.get(&game) {
                    Some(members) => {
                        let calls = members
                            .iter()
                            .map(|&p| Call {
                                to: player_actor(p),
                                tag: TAG_PING,
                                bytes: cfg.payload_bytes,
                            })
                            .collect();
                        Reaction::fan_out(cost(cfg.poll_cpu_ns), calls, cfg.payload_bytes)
                    }
                    // The game ended while the poll was in flight.
                    None => Reaction::reply(cost(cfg.poll_cpu_ns * 0.5), cfg.payload_bytes),
                }
            }
            TAG_PING => Reaction::reply(cost(cfg.ping_cpu_ns), cfg.payload_bytes),
            other => unreachable!("unknown Halo tag {other}"),
        }
    }

    fn continuation_cpu_ns(&self) -> f64 {
        self.continuation_cpu_ns
    }
}

impl HaloWorkload {
    /// Creates the workload and its application logic. The app serves
    /// either backend: [`Cluster::new`] or
    /// [`actop_runtime::build_sharded`].
    pub fn build(cfg: HaloConfig) -> (Box<dyn AppLogic + Send + Sync>, HaloWorkload) {
        validate_config(&cfg);
        let state = Arc::new(PhaseCell::new(HaloState::new(cfg)));
        let app = Box::new(HaloApp {
            state: Arc::clone(&state),
            continuation_cpu_ns: cfg.continuation_cpu_ns,
        });
        let workload = HaloWorkload {
            state,
            _thread_bound: PhantomData,
        };
        (app, workload)
    }

    /// The lifecycle state, for reading while no event runs.
    fn idle_state(&self) -> &HaloState {
        // SAFETY: callers run while the backend is idle (before or after
        // a run), so no event can be writing the state.
        unsafe { self.state.get() }
    }

    /// Current lifecycle statistics. Call only while the backend is idle
    /// (before or after a run).
    pub fn stats(&self) -> HaloStats {
        self.idle_state().stats
    }

    /// Number of currently live players. Call only while the backend is
    /// idle.
    pub fn live_players(&self) -> usize {
        self.idle_state().alive.len()
    }

    /// Number of currently running games. Call only while the backend is
    /// idle.
    pub fn live_games(&self) -> usize {
        self.idle_state().games.len()
    }

    /// Schedules pre-population, player arrivals, matchmaking churn, and
    /// the client request stream on either backend. One event at time
    /// zero starts the lifecycle and then the backend's request pump. The
    /// lifecycle is the same on both backends; only the pump differs:
    /// one engine event per request on the sequential backend, a 1 ms
    /// batch per serial-phase global on the sharded one.
    pub fn install<'a>(&self, backend: impl Into<Backend<'a>>) {
        let state = Arc::clone(&self.state);
        let seed = self.idle_state().cfg.seed;
        match backend.into() {
            Backend::Sequential(engine) => {
                engine.schedule(Nanos::ZERO, move |_: &mut Cluster, engine| {
                    // SAFETY: the sequential backend runs events on one
                    // thread, and no other borrow is live.
                    let queued = unsafe { state.get_mut() }.start();
                    queue_sequential(&state, engine, queued);
                    request_tick(state, DetRng::stream(seed, 0x41), engine);
                });
            }
            Backend::Sharded(runner) => {
                runner.schedule_global(Nanos::ZERO, move |ctx| {
                    // SAFETY: serial phase (inside a global event).
                    let queued = unsafe { state.get_mut() }.start();
                    queue_sharded(&state, ctx, queued);
                    let pump = Pump {
                        state,
                        rng_req: DetRng::stream(seed, 0x41),
                        rng_gateway: DetRng::stream(seed, 0x42),
                        rng_net: DetRng::stream(seed, 0x43),
                        next_at: Nanos::ZERO,
                        next_request: 0,
                    };
                    request_pump(pump, ctx);
                });
            }
        }
    }
}

/// Queues lifecycle events on the sequential engine.
fn queue_sequential(state: &Shared, engine: &mut Engine<Cluster>, queued: Queued) {
    for (at, event) in queued {
        let state = Arc::clone(state);
        engine.schedule(at, move |_: &mut Cluster, engine| {
            // SAFETY: as in `install`.
            let queued = unsafe { state.get_mut() }.run(engine.now(), event);
            queue_sequential(&state, engine, queued);
        });
    }
}

/// Queues lifecycle events as serial-phase globals.
fn queue_sharded(state: &Shared, ctx: &mut GlobalCtx<'_, ShardedCluster>, queued: Queued) {
    for (at, event) in queued {
        let state = Arc::clone(state);
        ctx.schedule_global(at, move |ctx| {
            // SAFETY: serial phase.
            let queued = unsafe { state.get_mut() }.run(ctx.now, event);
            queue_sharded(&state, ctx, queued);
        });
    }
}

/// The sequential backend's open-loop client status-request stream: one
/// engine event per request.
fn request_tick(state: Shared, mut rng: DetRng, engine: &mut Engine<Cluster>) {
    let (target, gap, bytes, duration_end) = {
        // SAFETY: as in `install`.
        let st = unsafe { state.get() };
        let target = st.random_player(&mut rng);
        let gap = Nanos::from_secs_f64(rng.exp(1.0 / st.cfg.request_rate));
        (target, gap, st.cfg.request_bytes, st.cfg.duration)
    };
    if let Some(player) = target {
        // The submit runs as its own zero-delay event rather than inline
        // here. Submitting directly would change `sim.events` and the
        // order of events at the same instant, so removing the event is a
        // performance change of its own, not part of a refactor.
        engine.schedule(engine.now(), move |c: &mut Cluster, e| {
            c.submit_client_request(e, player_actor(player), TAG_STATUS, bytes);
        });
    }
    if engine.now() + gap < duration_end {
        engine.schedule_after(gap, move |_c: &mut Cluster, e| {
            request_tick(state, rng, e);
        });
    }
}

/// Everything the sharded backend's self-rescheduling request pump carries
/// between batches. The pump draws from its own streams (`0x41` targets
/// and gaps, `0x42` gateway choice, `0x43` client network delay), so the
/// draw sequence is independent of shard count by construction.
struct Pump {
    state: Shared,
    /// Target picks and inter-arrival gaps.
    rng_req: DetRng,
    /// Gateway selection per request.
    rng_gateway: DetRng,
    /// Client-to-gateway network delay per request.
    rng_net: DetRng,
    /// Timestamp of the next (already drawn into) arrival slot.
    next_at: Nanos,
    /// Monotone request serial.
    next_request: u64,
}

/// The sharded backend's open-loop client status-request stream, one
/// batch of [`PUMP_INTERVAL_NS`] per serial-phase global. The only
/// semantic difference from the sequential stream is that a batch's
/// target players are sampled from the alive set at the batch boundary (at
/// most 1 ms stale): statistically irrelevant and equally deterministic.
fn request_pump(mut pump: Pump, ctx: &mut GlobalCtx<'_, ShardedCluster>) {
    let batch_end = ctx.now + Nanos::from_nanos(PUMP_INTERVAL_NS);
    // SAFETY: serial phase; the borrow ends before the pump moves on.
    let st = unsafe { pump.state.get() };
    let (rate, bytes, duration_end) = (st.cfg.request_rate, st.cfg.request_bytes, st.cfg.duration);
    while pump.next_at < batch_end && pump.next_at < duration_end {
        if let Some(player) = st.random_player(&mut pump.rng_req) {
            let request = pump.next_request;
            pump.next_request += 1;
            submit_client_request_sharded(
                ctx,
                pump.next_at,
                player_actor(player),
                TAG_STATUS,
                bytes,
                request,
                &mut pump.rng_gateway,
                &mut pump.rng_net,
            );
        }
        let gap = Nanos::from_secs_f64(pump.rng_req.exp(1.0 / rate));
        pump.next_at += gap;
    }
    if pump.next_at < duration_end {
        ctx.schedule_global(batch_end, move |ctx| request_pump(pump, ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actop_runtime::sharded::{build_sharded, install_sharded_hooks, sharded_lookahead};
    use actop_runtime::{ClusterMetrics, RuntimeConfig};
    use actop_sim::ConservativeRunner;

    /// Runs until the workload's configured duration (not to full drain:
    /// once arrivals stop, the remaining lifecycle would play out and the
    /// population would empty, which is not the steady state the paper
    /// measures).
    fn run_halo(cfg: HaloConfig, rt_seed: u64) -> (Cluster, HaloWorkload) {
        let (app, workload) = HaloWorkload::build(cfg);
        let mut cluster = Cluster::new(RuntimeConfig::paper_testbed(rt_seed), app);
        let mut engine: Engine<Cluster> = Engine::new();
        workload.install(&mut engine);
        let end = cfg.duration;
        engine.run_until(&mut cluster, end);
        (cluster, workload)
    }

    /// The lifecycle after running `cfg` to its horizon on the sequential
    /// cluster: stats, live players, live games.
    fn sequential_lifecycle(cfg: HaloConfig) -> (HaloStats, usize, usize) {
        let (_, workload) = run_halo(cfg, cfg.seed);
        let live = (workload.live_players(), workload.live_games());
        (workload.stats(), live.0, live.1)
    }

    /// The same on the 1-shard sharded runner, to the same horizon.
    fn sharded_lifecycle(cfg: HaloConfig) -> (HaloStats, usize, usize) {
        let (app, workload) = HaloWorkload::build(cfg);
        let rt = RuntimeConfig::paper_testbed(cfg.seed);
        let lookahead = sharded_lookahead(&rt);
        let mut runner = ConservativeRunner::new(build_sharded(rt, app, 1), lookahead);
        install_sharded_hooks(&mut runner);
        workload.install(&mut runner);
        runner.run_until(cfg.duration, 1);
        let live = (workload.live_players(), workload.live_games());
        (workload.stats(), live.0, live.1)
    }

    #[test]
    fn lifecycle_identical_across_backends() {
        // The lifecycle draws only from its own state stream, so request
        // pumps and scheduling differences between the backends must not
        // change who arrives, which games form, or when they end.
        let cfg = HaloConfig::fast_churn(200, 300.0, Nanos::from_secs(2), 7);
        let seq = sequential_lifecycle(cfg);
        assert_eq!(seq, sharded_lifecycle(cfg));
        let pinned = HaloStats {
            games_started: 27,
            games_ended: 2,
            players_arrived: 210,
            players_left: 4,
        };
        assert_eq!(seq.0, pinned);
        // A longer run with heavier churn.
        let cfg = HaloConfig::fast_churn(400, 50.0, Nanos::from_secs(20), 5);
        let seq = sequential_lifecycle(cfg);
        assert!(seq.0.players_left > 0, "fast churn must see departures");
        assert_eq!(seq, sharded_lifecycle(cfg));
    }

    fn valid_cfg() -> HaloConfig {
        HaloConfig::fast_churn(64, 100.0, Nanos::from_secs(1), 3)
    }

    #[test]
    #[should_panic(expected = "games_per_player must be an ordered range")]
    fn inverted_games_per_player_is_rejected() {
        let cfg = HaloConfig {
            games_per_player: (5, 3),
            ..valid_cfg()
        };
        let _ = HaloWorkload::build(cfg);
    }

    #[test]
    #[should_panic(expected = "game_duration_s must be a finite, ordered")]
    fn zero_game_duration_is_rejected() {
        let cfg = HaloConfig {
            game_duration_s: (0.0, 0.0),
            ..valid_cfg()
        };
        let _ = HaloWorkload::build(cfg);
    }

    #[test]
    #[should_panic(expected = "request_rate must be positive and finite")]
    fn infinite_request_rate_is_rejected() {
        let cfg = HaloConfig {
            request_rate: f64::INFINITY,
            ..valid_cfg()
        };
        let _ = HaloWorkload::build(cfg);
    }

    #[test]
    fn every_unrunnable_lifecycle_is_rejected_at_build() {
        let bad = [
            HaloConfig {
                games_per_player: (0, 0),
                ..valid_cfg()
            },
            HaloConfig {
                game_duration_s: (10.0, 5.0),
                ..valid_cfg()
            },
            HaloConfig {
                game_duration_s: (f64::NAN, 5.0),
                ..valid_cfg()
            },
            HaloConfig {
                game_duration_s: (5.0, f64::INFINITY),
                ..valid_cfg()
            },
            HaloConfig {
                game_duration_s: (-10.0, 5.0),
                ..valid_cfg()
            },
            HaloConfig {
                request_rate: f64::NAN,
                ..valid_cfg()
            },
        ];
        for cfg in bad {
            let built = std::panic::catch_unwind(|| HaloWorkload::build(cfg));
            assert!(built.is_err(), "{cfg:?} must be rejected");
        }
        // The boundaries that still run: no games left to play on arrival
        // and instant-start games.
        for cfg in [
            HaloConfig {
                games_per_player: (0, 1),
                ..valid_cfg()
            },
            HaloConfig {
                game_duration_s: (0.0, 5.0),
                ..valid_cfg()
            },
        ] {
            let (_, workload) = run_halo(cfg, 3);
            assert!(workload.stats().games_started > 0, "{cfg:?}");
        }
    }

    #[test]
    fn status_request_produces_eighteen_actor_messages() {
        // One request against a quiet, non-churning population.
        let mut cfg = HaloConfig::paper_scale(64, 0.001, Nanos::from_millis(10), 3);
        cfg.idle_pool_target = 0; // Everyone in games.
        cfg.request_rate = 1.0;
        cfg.duration = Nanos::from_millis(500);
        let (app, workload) = HaloWorkload::build(cfg);
        let mut cluster = Cluster::new(RuntimeConfig::paper_testbed(3), app);
        let mut engine: Engine<Cluster> = Engine::new();
        workload.install(&mut engine);
        engine.run(&mut cluster);
        let completed = cluster.metrics.completed;
        assert!(completed >= 1, "at least one request completed");
        let actor_msgs = cluster.metrics.remote_messages + cluster.metrics.local_messages;
        assert_eq!(
            actor_msgs,
            completed * 18,
            "18 actor messages per status request"
        );
    }

    #[test]
    fn population_reaches_target_and_sustains() {
        let cfg = HaloConfig::fast_churn(400, 50.0, Nanos::from_secs(20), 5);
        let (cluster, workload) = run_halo(cfg, 5);
        // Population stays near the target: arrivals balance departures.
        let live = workload.live_players();
        assert!(
            (300..=520).contains(&live),
            "live players {live} (target 400)"
        );
        let stats = workload.stats();
        assert!(
            stats.games_ended > 0,
            "fast churn must end games: {stats:?}"
        );
        assert!(stats.players_left > 0);
        assert!(cluster.metrics.completed > 500);
    }

    #[test]
    fn graph_churn_rate_matches_paper_at_paper_params() {
        // At paper parameters the communication graph changes ~1%/min:
        // arrival rate = N / (4 games * 25 min) = 1% of N per minute.
        let cfg = HaloConfig::paper_scale(100_000, 6000.0, Nanos::from_secs(60), 1);
        let per_minute = cfg.arrival_rate() * 60.0;
        let pct = per_minute / cfg.total_players as f64 * 100.0;
        assert!(
            (0.8..1.2).contains(&pct),
            "churn {pct}% of players per minute"
        );
    }

    #[test]
    fn idle_pool_hovers_at_target() {
        let cfg = HaloConfig::fast_churn(800, 20.0, Nanos::from_secs(15), 9);
        let (_cluster, workload) = run_halo(cfg, 9);
        let pool = workload.idle_state().pool.len();
        let target = workload.idle_state().cfg.idle_pool_target;
        assert!(
            pool <= target + 8,
            "pool {pool} should hover at target {target}"
        );
    }

    #[test]
    fn deterministic_with_same_seed() {
        let cfg = HaloConfig::fast_churn(200, 30.0, Nanos::from_secs(8), 11);
        let (a, wa) = run_halo(cfg, 11);
        let (b, wb) = run_halo(cfg, 11);
        assert_eq!(a.metrics.completed, b.metrics.completed);
        assert_eq!(a.metrics.remote_messages, b.metrics.remote_messages);
        assert_eq!(wa.stats(), wb.stats());
    }

    #[test]
    fn remote_fraction_is_high_under_random_placement() {
        // The §3 claim: ~90% of actor-to-actor messages are remote with
        // random placement on 10 servers.
        let cfg = HaloConfig::paper_scale(2_000, 200.0, Nanos::from_secs(10), 13);
        let (cluster, _) = run_halo(cfg, 13);
        let fraction = cluster.metrics.remote_fraction();
        assert!(fraction > 0.8, "remote fraction {fraction} should be ~0.9");
    }

    fn run_sharded_halo(
        cfg: HaloConfig,
        rt_seed: u64,
        shards: usize,
        threads: usize,
    ) -> (ClusterMetrics, HaloStats, usize) {
        let (app, workload) = HaloWorkload::build(cfg);
        let rt = RuntimeConfig::paper_testbed(rt_seed);
        let series_bin = rt.series_bin_ns;
        let lookahead = sharded_lookahead(&rt);
        let worlds = build_sharded(rt, app, shards);
        let mut runner = ConservativeRunner::new(worlds, lookahead);
        install_sharded_hooks(&mut runner);
        workload.install(&mut runner);
        // Run past the request stream's end so in-flight requests drain
        // (the message-conservation assertions need a quiesced cluster).
        runner.run_until(cfg.duration + Nanos::from_millis(100), threads);
        let mut merged = ClusterMetrics::new(series_bin);
        for cell in runner.cells() {
            merged.merge_from(cell.world.metrics());
        }
        (merged, workload.stats(), workload.live_players())
    }

    #[test]
    fn sharded_halo_completes_requests_with_full_fanout() {
        let mut cfg = HaloConfig::paper_scale(64, 200.0, Nanos::from_millis(400), 3);
        cfg.idle_pool_target = 0; // Everyone in games: full 18-message shape.
        let (m, _, _) = run_sharded_halo(cfg, 3, 2, 2);
        assert!(m.completed > 10, "completed {}", m.completed);
        let actor_msgs = m.remote_messages + m.local_messages;
        assert_eq!(
            actor_msgs,
            m.completed * 18,
            "18 actor messages per status request"
        );
    }

    #[test]
    fn sharded_halo_identical_across_shard_counts() {
        let cfg = HaloConfig::fast_churn(200, 300.0, Nanos::from_secs(2), 7);
        let (base_m, base_stats, base_live) = run_sharded_halo(cfg, 7, 1, 1);
        assert!(base_m.completed > 100);
        assert!(base_stats.games_ended > 0, "fast churn must end games");
        for (shards, threads) in [(2, 2), (4, 3)] {
            let (m, stats, live) = run_sharded_halo(cfg, 7, shards, threads);
            assert_eq!(base_m.completed, m.completed, "shards={shards}");
            assert_eq!(base_m.submitted, m.submitted);
            assert_eq!(base_m.remote_messages, m.remote_messages);
            assert_eq!(base_m.local_messages, m.local_messages);
            assert_eq!(
                base_m.e2e_latency.summary(),
                m.e2e_latency.summary(),
                "latency distribution diverged at shards={shards}"
            );
            assert_eq!(base_stats, stats);
            assert_eq!(base_live, live);
        }
    }
}
