//! A custom service on the public API: the online chat from the paper's
//! introduction, with rooms and users as actors. Demonstrates how to
//! implement [`AppLogic`] for a new application and how the partitioner
//! co-locates each room with its members.
//!
//! ```sh
//! cargo run --release --example chat_service
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use actop::prelude::*;

const ROOM_BASE: u64 = 1 << 32;
const TAG_POST: u32 = 0; // Client posts a message via a user actor.
const TAG_BROADCAST: u32 = 1; // User actor asks its room to broadcast.
const TAG_DELIVER: u32 = 2; // Room delivers to one member.

/// Room membership: users `r*ROOM_SIZE..(r+1)*ROOM_SIZE` sit in room `r`.
const ROOM_SIZE: u64 = 12;

struct ChatApp {
    posts: Rc<RefCell<u64>>,
}

impl AppLogic for ChatApp {
    fn on_request(&self, actor: ActorId, tag: u32, rng: &mut DetRng) -> Reaction {
        match tag {
            TAG_POST => {
                *self.posts.borrow_mut() += 1;
                let room = actor.0 / ROOM_SIZE;
                Reaction::fan_out(
                    rng.exp(120_000.0),
                    vec![Call {
                        to: ActorId(ROOM_BASE + room),
                        tag: TAG_BROADCAST,
                        bytes: 400,
                    }],
                    128,
                )
            }
            TAG_BROADCAST => {
                let room = actor.0 - ROOM_BASE;
                let members = (0..ROOM_SIZE)
                    .map(|i| Call {
                        to: ActorId(room * ROOM_SIZE + i),
                        tag: TAG_DELIVER,
                        bytes: 400,
                    })
                    .collect();
                Reaction::fan_out(rng.exp(150_000.0), members, 64)
            }
            TAG_DELIVER => Reaction::reply(rng.exp(60_000.0), 32),
            other => unreachable!("unknown chat tag {other}"),
        }
    }
}

fn run(enable_actop: bool, label: &str) {
    let seed = 31;
    let users = 6_000u64;
    let posts = Rc::new(RefCell::new(0u64));
    let app = Box::new(ChatApp {
        posts: Rc::clone(&posts),
    });
    let mut cluster = Cluster::new(RuntimeConfig::paper_testbed(seed), app);
    let mut engine: Engine<Cluster> = Engine::new();

    // An open-loop stream of chat posts from clients to random users.
    fn post_tick(c: &mut Cluster, e: &mut Engine<Cluster>, mut rng: DetRng, users: u64) {
        let user = ActorId(rng.range_inclusive(0, users - 1));
        c.submit_client_request(e, user, TAG_POST, 256);
        let gap = Nanos::from_secs_f64(rng.exp(1.0 / 1_500.0));
        if e.now() + gap < Nanos::from_secs(40) {
            e.schedule_after(gap, move |c, e| post_tick(c, e, rng, users));
        }
    }
    let rng = DetRng::stream(seed, 0x99);
    engine.schedule(Nanos::ZERO, move |c: &mut Cluster, e| {
        post_tick(c, e, rng, users)
    });

    if enable_actop {
        install_actop(
            &mut engine,
            cluster.server_count(),
            &ActOpConfig {
                partition: Some(PartitionAgentConfig::with_interval(Nanos::from_secs(1))),
                threads: None,
            },
        );
    }
    let summary = run_steady_state(
        &mut engine,
        &mut cluster,
        Nanos::from_secs(15),
        Nanos::from_secs(25),
    );
    println!(
        "{label:<20} post latency p50 {:6.2} ms  p99 {:6.2} ms | remote {:4.1}% | {} posts",
        summary.p50_ms,
        summary.p99_ms,
        summary.remote_fraction * 100.0,
        posts.borrow(),
    );
}

fn main() {
    println!(
        "Chat service: {} users in rooms of {ROOM_SIZE}, 1.5K posts/s, 10 servers\n",
        6_000
    );
    run(false, "baseline");
    run(true, "ActOp partitioning");
}
