//! The three named workloads and the traffic that drives them.

use crate::client::{self, KeepAlive, Reply};
use crate::openloop::{self, Schedule};
use crate::seeds::{Rng, Zipf};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// `k` of every top-k request.
pub const TOP_K: usize = 10;

#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Closed loop: `clients` keep-alive connections, each sending
    /// `GET /v1/topk` as soon as the previous answer arrived.
    TopKKeepAlive { clients: usize },
    /// Open loop at a fixed rate, one fresh connection per
    /// `GET /v1/topk`, from `senders` threads; one `POST /admin/load`
    /// hot swap at the midpoint of each server slice.
    TopKOneShot { rate_per_s: f64, senders: usize },
    /// Closed loop: one keep-alive connection sending `GET /v1/batch`
    /// with `seeds_per_request` seeds, answered with full score vectors.
    BatchKeepAlive { seeds_per_request: usize },
}

#[derive(Debug, Clone, Copy)]
pub enum SeedLaw {
    /// Zipf with exponent `s` over all nodes.
    Zipf(f64),
    Uniform,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: &'static str,
    pub law: SeedLaw,
    pub traffic: Traffic,
    /// Serve the sharded v3 index paged under this resident cap (MiB)
    /// instead of the fully resident v2 index.
    pub paged_cap_mb: Option<u64>,
    /// Fresh server processes the timed phase is spread over, in equal
    /// slices. More than one where a server's speed depends on state it
    /// settles into at start-up, so a run measures the mix.
    pub servers: usize,
    /// Requests replayed through each layer in the traced run.
    pub trace_items: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "topk_keepalive",
        dataset: "email_like",
        law: SeedLaw::Zipf(1.0),
        traffic: Traffic::TopKKeepAlive { clients: 2 },
        paged_cap_mb: None,
        servers: 1,
        trace_items: 100,
    },
    Workload {
        name: "topk_rmat_oneshot",
        dataset: "rmat_0.7",
        law: SeedLaw::Uniform,
        traffic: Traffic::TopKOneShot { rate_per_s: 100.0, senders: 2 },
        paged_cap_mb: None,
        servers: 5,
        trace_items: 100,
    },
    Workload {
        name: "batch_paged",
        dataset: "web_bs_like",
        law: SeedLaw::Uniform,
        traffic: Traffic::BatchKeepAlive { seeds_per_request: 16 },
        paged_cap_mb: Some(2),
        servers: 5,
        trace_items: 4,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Draws request items (the seeds of one request) for a workload.
pub struct Sampler {
    zipf: Option<Zipf>,
    nodes: usize,
    per_request: usize,
}

impl Workload {
    /// The sampler for a graph of `nodes` nodes under workload seed
    /// `seed`. Every client draws from the same popularity law.
    pub fn sampler(&self, nodes: usize, seed: u64) -> Sampler {
        let zipf = match self.law {
            SeedLaw::Zipf(s) => Some(Zipf::new(nodes, s, &mut Rng::fork(seed, u64::MAX))),
            SeedLaw::Uniform => None,
        };
        let per_request = match self.traffic {
            Traffic::BatchKeepAlive { seeds_per_request } => seeds_per_request,
            _ => 1,
        };
        Sampler { zipf, nodes, per_request }
    }

    pub fn is_batch(&self) -> bool {
        matches!(self.traffic, Traffic::BatchKeepAlive { .. })
    }

    /// The request target for one item.
    pub fn target(&self, item: &[usize]) -> String {
        if self.is_batch() {
            let seeds: Vec<String> = item.iter().map(usize::to_string).collect();
            format!("/v1/batch?graph=g&seeds={}", seeds.join(","))
        } else {
            format!("/v1/topk?graph=g&seed={}&k={TOP_K}", item[0])
        }
    }
}

impl Sampler {
    pub fn item(&self, rng: &mut Rng) -> Vec<usize> {
        (0..self.per_request)
            .map(|_| match &self.zipf {
                Some(z) => z.sample(rng),
                None => rng.below(self.nodes),
            })
            .collect()
    }

    /// The first `count` items of lane `lane`'s sequence.
    pub fn items(&self, seed: u64, lane: u64, count: usize) -> Vec<Vec<usize>> {
        let mut rng = Rng::fork(seed, lane);
        (0..count).map(|_| self.item(&mut rng)).collect()
    }
}

/// One request as the load generator saw it.
pub struct Exchange {
    pub item: Vec<usize>,
    /// When the request started (its due time in the open loop).
    pub start: Instant,
    pub latency_ms: f64,
    /// How late the open-loop generator sent it (0 in a closed loop).
    pub lag_ms: f64,
    pub reply: Result<Reply, String>,
}

/// Everything a timed phase produced.
#[derive(Default)]
pub struct Phase {
    pub exchanges: Vec<Exchange>,
    /// From the first send to the last completion, summed over slices.
    pub elapsed: Duration,
    /// The replies to the midpoint hot swaps, one per slice of the
    /// workload that does them.
    pub swaps: Vec<Result<Reply, String>>,
}

impl Phase {
    pub fn extend(&mut self, other: Phase) {
        self.exchanges.extend(other.exchanges);
        self.elapsed += other.elapsed;
        self.swaps.extend(other.swaps);
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.exchanges.iter().map(|e| e.latency_ms).collect()
    }
}

/// Drives `w` against the server at `addr` for `duration`, drawing
/// requests from the lanes of slice `slice`. The open loop hot-swaps
/// `swap_index` in at the slice's midpoint.
pub fn drive(
    w: &Workload,
    addr: SocketAddr,
    sampler: &Sampler,
    seed: u64,
    slice: u64,
    duration: Duration,
    swap_index: &Path,
) -> Phase {
    let origin = Instant::now();
    let lane = slice * 64 + 1;
    let (mut exchanges, swaps) = match w.traffic {
        Traffic::TopKKeepAlive { clients } => {
            (closed_loop(w, addr, sampler, seed, lane, clients, duration), vec![])
        }
        Traffic::BatchKeepAlive { .. } => {
            (closed_loop(w, addr, sampler, seed, lane, 1, duration), vec![])
        }
        Traffic::TopKOneShot { rate_per_s, senders } => {
            let schedule = Schedule::new(rate_per_s, duration);
            let items = sampler.items(seed, lane, schedule.count);
            std::thread::scope(|scope| {
                let target = format!("/admin/load?graph=g&index={}", swap_index.display());
                let swapper = scope.spawn(move || {
                    std::thread::sleep(duration / 2);
                    client::one_shot(addr, "POST", &target).map_err(|e| e.to_string())
                });
                let timed = openloop::run(&schedule, senders, |i| {
                    client::one_shot(addr, "GET", &w.target(&items[i])).map_err(|e| e.to_string())
                });
                let exchanges = timed
                    .into_iter()
                    .zip(items.iter().enumerate())
                    .map(|((timing, reply), (i, item))| Exchange {
                        item: item.clone(),
                        start: origin + schedule.due(i),
                        latency_ms: timing.latency_ms,
                        lag_ms: timing.lag_ms,
                        reply,
                    })
                    .collect::<Vec<_>>();
                let swap = swapper.join().expect("swap thread panicked");
                (exchanges, vec![swap])
            })
        }
    };
    exchanges.sort_by_key(|e| e.start);
    let elapsed = exchanges
        .iter()
        .map(|e| e.start + Duration::from_secs_f64(e.latency_ms / 1e3) - origin)
        .max()
        .unwrap_or(duration);
    Phase { exchanges, elapsed, swaps }
}

fn closed_loop(
    w: &Workload,
    addr: SocketAddr,
    sampler: &Sampler,
    seed: u64,
    lane: u64,
    clients: usize,
    duration: Duration,
) -> Vec<Exchange> {
    let origin = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut rng = Rng::fork(seed, lane + c as u64);
                    let mut conn = KeepAlive::new(addr);
                    let mut out = Vec::new();
                    while origin.elapsed() < duration {
                        let item = sampler.item(&mut rng);
                        let start = Instant::now();
                        let reply = conn.send("GET", &w.target(&item)).map_err(|e| e.to_string());
                        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
                        out.push(Exchange { item, start, latency_ms, lag_ms: 0.0, reply });
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    })
}
