//! Closed-loop clients driving `seedbd`: each client sends its next
//! request only after the previous reply arrived.

use crate::daemon::{Daemon, Reply};
use crate::gen::{self, Rec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One operation a client performs.
#[derive(Clone, Debug)]
pub enum Op {
    Recommend(Rec),
    /// Upload ingest cycle `cycle`'s CSV under `name`.
    Ingest {
        name: String,
        cycle: u64,
    },
}

/// A completed operation with everything the checks and the replay need.
pub struct Done {
    /// Position in global completion order.
    pub order: u64,
    pub op: Op,
    /// The request body that was sent.
    pub body: String,
    pub reply: Reply,
}

/// When a client stops: after a wall-clock window, or after a fixed
/// number of operations (the self-test, which must repeat exactly).
#[derive(Clone, Copy)]
pub enum Budget {
    Time(Duration),
    Ops(usize),
}

/// The seed of a workload and the streams it draws from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ExploreCold,
    SessionWarm,
    IngestRefresh,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ExploreCold,
        Workload::SessionWarm,
        Workload::IngestRefresh,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreCold => "explore_cold",
            Workload::SessionWarm => "session_warm",
            Workload::IngestRefresh => "ingest_refresh",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients; never more than the 2 cores of the reference
    /// host, so the load generator does not compete with itself.
    pub fn clients(self) -> usize {
        match self {
            Workload::SessionWarm => 2,
            _ => 1,
        }
    }

    /// The operation stream of `client`.
    pub fn stream(self, seed: u64, client: usize) -> Stream {
        match self {
            Workload::ExploreCold => Box::new(gen::explore_stream(seed).map(Op::Recommend)),
            Workload::SessionWarm => {
                Box::new(gen::session_stream(seed, client as u64).map(Op::Recommend))
            }
            Workload::IngestRefresh => Box::new(ingest_cycles(0)),
        }
    }
}

/// Upload-then-recommend cycles from `first` on: each uploads a fresh CSV
/// under one of a few names, then asks for a miss, a hit, and a `k` variant.
pub fn ingest_cycles(first: u64) -> impl Iterator<Item = Op> {
    (first..).flat_map(|cycle| {
        let name = gen::INGEST_NAMES[(cycle % gen::INGEST_NAMES.len() as u64) as usize];
        std::iter::once(Op::Ingest {
            name: name.to_owned(),
            cycle,
        })
        .chain(gen::ingest_requests(name).into_iter().map(Op::Recommend))
    })
}

/// The request body of `op`.
pub fn body_of(op: &Op, seed: u64) -> String {
    match op {
        Op::Recommend(rec) => rec.body(),
        Op::Ingest { name, cycle } => gen::ingest_body(name, &gen::csv_text(seed, *cycle)),
    }
}

/// Sends `op` and waits for the reply.
pub fn send(daemon: &Daemon, body: &str, op: &Op) -> Reply {
    let path = match op {
        Op::Recommend(_) => "/recommend",
        Op::Ingest { .. } => "/datasets",
    };
    daemon.call("POST", path, Some(body))
}

/// A finished load phase: every completed operation and the window length.
pub struct LoadRun {
    pub done: Vec<Done>,
    pub window: Duration,
    /// The host's slowdown around the phase (see `host`); 1 until measured.
    pub slowdown: f64,
}

/// A client's operation stream.
pub type Stream = Box<dyn Iterator<Item = Op> + Send>;

/// Runs `streams` (one per client, each on its own thread) against
/// `daemon` until the budget is spent. An operation started inside the
/// window always completes and counts. The streams resume where they
/// stopped on the next call.
pub fn run(daemon: &Daemon, seed: u64, streams: &mut [Stream], budget: Budget) -> LoadRun {
    let order = AtomicU64::new(0);
    let start = Instant::now();
    let mut done: Vec<Done> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|stream| {
                let order = &order;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let more = match budget {
                            Budget::Time(window) => start.elapsed() < window,
                            Budget::Ops(n) => out.len() < n,
                        };
                        let Some(op) = more.then(|| stream.next()).flatten() else {
                            break;
                        };
                        let body = body_of(&op, seed);
                        let reply = send(daemon, &body, &op);
                        out.push(Done {
                            order: order.fetch_add(1, Ordering::Relaxed),
                            op,
                            body,
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let window = start.elapsed();
    done.sort_by_key(|d| d.order);
    LoadRun {
        done,
        window,
        slowdown: 1.0,
    }
}
