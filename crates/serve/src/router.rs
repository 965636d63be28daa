//! `mascot-router`'s request work, served from `mascotd`'s event loop
//! ([`crate::server::serve`]).
//!
//! A batch is split by a hash of the load PC over the primaries and
//! written to every node before any reply is read (scatter-then-gather),
//! over one set of upstream connections. A node whose send or receive
//! fails is marked down for good — its state diverges from the replica's
//! once traffic moves — and its slice is re-sent to the replica; a health
//! thread marks nodes down between requests. Upstream I/O blocks the loop,
//! so a hung node stalls the router (DESIGN.md §10). `Stats` answers
//! router-side counters, one pseudo-shard per primary plus the replica.

use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::client::Client;
use crate::server::{serve, Handler, Route};
use crate::wire::{Request, Response, ShardStats, StatsReport, WireError};

/// PC→node multiplier. Deliberately a different odd constant from the
/// shard router inside `mascotd` (`shard.rs`), so the node index and the
/// shard index of a PC stay decorrelated: with the same constant and
/// `nodes == shards`, every PC routed to node `i` would also land on
/// shard `i` of that node, idling the other shards.
const NODE_HASH_MUL: u64 = 0xd1b5_4a32_d192_ed03;

/// Which primary a PC belongs to.
fn node_of(pc: u64, nodes: usize) -> usize {
    ((pc.wrapping_mul(NODE_HASH_MUL) >> 32) % nodes as u64) as usize
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Primary node addresses; the PC→node map is fixed by this list.
    pub nodes: Vec<String>,
    /// Node that takes over the slice of every primary marked down.
    pub replica: Option<String>,
    /// Period of the health thread's `Stats` ping.
    pub health_interval: Duration,
}

/// Serves `listener` as a router until a `Shutdown` has been broadcast and
/// every downstream connection has drained. The health thread runs beside
/// the loop and is joined before this returns. `on_ready` runs once the
/// listener is served. Logs what the router did to stderr on the way out.
///
/// # Errors
///
/// `InvalidInput` when `cfg.nodes` is empty; otherwise a failure to start
/// the health thread or the event loop.
///
/// # Panics
///
/// If the health thread panicked.
pub fn run(listener: TcpListener, cfg: &RouterConfig, on_ready: impl FnOnce()) -> io::Result<()> {
    if cfg.nodes.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "no --node given",
        ));
    }
    let mut router = Router::new(cfg);
    let health = {
        let health = Arc::clone(&router.health);
        let addrs = cfg.nodes.clone();
        let interval = cfg.health_interval;
        std::thread::Builder::new()
            .name("mascot-router-health".to_string())
            .spawn(move || health_loop(&health, &addrs, interval))?
    };
    let served = serve(listener, &mut router, on_ready);
    router.health.stop.store(true, Ordering::Relaxed);
    health.thread().unpark();
    health.join().expect("health thread panicked");
    served?;
    let down = &router.health.down;
    eprintln!(
        "mascot-router: stopped; routed {} items, {} failovers, {} nodes down",
        router.counters.iter().map(|c| c.requests).sum::<u64>(),
        router.failovers,
        down.iter().filter(|d| d.load(Ordering::Relaxed)).count()
    );
    Ok(())
}

/// State shared with the health thread.
#[derive(Debug)]
struct Health {
    /// Sticky per-primary down flags.
    down: Vec<AtomicBool>,
    stop: AtomicBool,
}

impl Health {
    /// Marks a node down; true if this call did the transition (log once).
    fn mark_down(&self, node: usize) -> bool {
        !self.down[node].swap(true, Ordering::Relaxed)
    }
}

/// Pings every live node with `Stats` each interval and marks a node that
/// fails the ping down.
fn health_loop(health: &Health, addrs: &[String], interval: Duration) {
    while !health.stop.load(Ordering::Relaxed) {
        for (node, addr) in addrs.iter().enumerate() {
            if health.down[node].load(Ordering::Relaxed) {
                continue;
            }
            let healthy = Client::connect(addr).is_ok_and(|mut c| c.stats().is_ok());
            if !healthy && health.mark_down(node) {
                eprintln!("mascot-router: health check: node {node} ({addr}) marked down");
            }
        }
        std::thread::park_timeout(interval);
    }
}

/// One backend connection, opened by the first send after it was dropped.
#[derive(Debug)]
struct Upstream {
    addr: String,
    client: Option<Client>,
}

impl Upstream {
    fn send(&mut self, req: &Request) -> Result<(), String> {
        if self.client.is_none() {
            let client = Client::connect(&self.addr);
            self.client = Some(client.map_err(|e| format!("connect {}: {e}", self.addr))?);
        }
        self.io(|c| c.send(req))
    }

    /// Reads the answer to `req`, sent earlier on this connection.
    fn recv(&mut self, req: &Request) -> Result<Response, String> {
        self.io(|c| c.recv(req.opcode()))
    }

    /// Runs `f` on the open connection. An error drops the connection: its
    /// stream can no longer be trusted to be in sync.
    fn io<R>(&mut self, f: impl FnOnce(&mut Client) -> Result<R, WireError>) -> Result<R, String> {
        let result = match &mut self.client {
            Some(c) => f(c).map_err(|e| e.to_string()),
            None => Err("connection lost".to_string()),
        };
        if result.is_err() {
            self.client = None;
        }
        result.map_err(|e| format!("{}: {e}", self.addr))
    }
}

/// One node's slice of a batch: the request carrying its items, whose
/// batch indices are `Router::route`'s run for the node.
#[derive(Debug)]
struct SubBatch {
    node: usize,
    req: Request,
}

/// The router's [`Handler`]. Backends are indexed by slot: the primaries
/// in configured order, then the replica.
#[derive(Debug)]
struct Router {
    /// One per primary, then the replica if one is configured.
    upstreams: Vec<Upstream>,
    primaries: usize,
    health: Arc<Health>,
    /// Router-side counters, one per primary plus the replica's slot
    /// whether or not one is configured; `Stats` answers them as shards.
    counters: Vec<ShardStats>,
    failovers: u64,
    /// The current batch's item indices by node.
    route: Route,
}

impl Handler for Router {
    fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Predict(items) => {
                let answers = match self.scatter_gather(&items, |it| it.pc, Request::Predict) {
                    Ok(a) => a,
                    Err(e) => return Response::Error(format!("predict failed: {e}")),
                };
                let mut out = vec![None; items.len()];
                for (sub, slot, resp) in answers {
                    let idxs = self.route.run(sub.node);
                    let replies = match resp {
                        Response::Predict(r) if r.len() == idxs.len() => r,
                        _ => return mismatch(sub.node, "predict"),
                    };
                    let n = idxs.len() as u64;
                    self.counters[slot].requests += n;
                    self.counters[slot].predicts += n;
                    for (&i, reply) in idxs.iter().zip(replies) {
                        out[i] = Some(reply);
                    }
                }
                Response::Predict(
                    out.into_iter()
                        .map(|r| r.expect("every index filled"))
                        .collect(),
                )
            }
            // Tickets issued by a node that has since failed over land on
            // the replica and count as stale: trained state is lost with
            // the node, requests are not.
            Request::Train(items) => {
                let answers = match self.scatter_gather(&items, |it| it.pc, Request::Train) {
                    Ok(a) => a,
                    Err(e) => return Response::Error(format!("train failed: {e}")),
                };
                let (mut applied, mut stale) = (0, 0);
                for (sub, slot, resp) in answers {
                    let Response::Train {
                        applied: a,
                        stale: s,
                    } = resp
                    else {
                        return mismatch(sub.node, "train");
                    };
                    self.counters[slot].requests += self.route.run(sub.node).len() as u64;
                    self.counters[slot].trains += u64::from(a);
                    applied += a;
                    stale += s;
                }
                Response::Train { applied, stale }
            }
            Request::Stats => Response::Stats(StatsReport {
                shards: self.counters.clone(),
            }),
            Request::Shutdown => self.broadcast_shutdown(),
            Request::Snapshot | Request::Restore(_) => Response::Error(
                "snapshot/restore are per-node operations: address a mascotd directly".to_string(),
            ),
        }
    }
}

fn mismatch(node: usize, op: &str) -> Response {
    Response::Error(format!("node {node} answered {op} with a mismatch"))
}

impl Router {
    fn new(cfg: &RouterConfig) -> Router {
        let n = cfg.nodes.len();
        Router {
            upstreams: cfg
                .nodes
                .iter()
                .chain(&cfg.replica)
                .map(|addr| Upstream {
                    addr: addr.clone(),
                    client: None,
                })
                .collect(),
            primaries: n,
            health: Arc::new(Health {
                down: (0..n).map(|_| AtomicBool::new(false)).collect(),
                stop: AtomicBool::new(false),
            }),
            counters: vec![ShardStats::default(); n + 1],
            failovers: 0,
            route: Route::default(),
        }
    }

    /// The slot serving `node`'s slice: the node while it is up, else the
    /// replica.
    fn backend(&self, node: usize) -> Result<usize, String> {
        if !self.health.down[node].load(Ordering::Relaxed) {
            Ok(node)
        } else if self.upstreams.len() > self.primaries {
            Ok(self.primaries)
        } else {
            Err(format!(
                "node {node} ({}) is down and no --replica is configured",
                self.upstreams[node].addr
            ))
        }
    }

    /// Records a failed send or receive on `slot`. A primary is marked down
    /// so its sub-batch goes to the replica next round; a failed replica
    /// fails the request.
    fn fail(&mut self, node: usize, slot: usize, e: String) -> Result<(), String> {
        if slot == self.primaries {
            return Err(format!("replica {e} (after node {node} failed)"));
        }
        if self.health.mark_down(node) {
            eprintln!("mascot-router: node {node} marked down: {e}");
        }
        self.failovers += 1;
        Ok(())
    }

    /// Splits `items` by node into `self.route` and forwards every
    /// sub-batch, returning each answer with the slot that gave it. On an
    /// error every upstream connection is dropped, so no reply still owed
    /// can be read as the answer to a later request.
    fn scatter_gather<T: Copy>(
        &mut self,
        items: &[T],
        pc_of: impl Fn(&T) -> u64,
        wrap: impl Fn(Vec<T>) -> Request,
    ) -> Result<Vec<(SubBatch, usize, Response)>, String> {
        let n = self.primaries;
        self.route
            .split(n, items.iter().map(|it| node_of(pc_of(it), n)));
        let subs = self
            .route
            .runs()
            .map(|(node, idxs)| SubBatch {
                node,
                req: wrap(idxs.iter().map(|&i| items[i]).collect()),
            })
            .collect();
        self.exchange(subs)
            .inspect_err(|_| self.upstreams.iter_mut().for_each(|u| u.client = None))
    }

    /// Writes every sub-batch, then reads the answers in send order. A
    /// sub-batch whose node failed goes to the replica in a further round.
    fn exchange(
        &mut self,
        mut todo: Vec<SubBatch>,
    ) -> Result<Vec<(SubBatch, usize, Response)>, String> {
        let mut answers = Vec::with_capacity(todo.len());
        while !todo.is_empty() {
            let mut sent = Vec::with_capacity(todo.len());
            let mut retry = Vec::new();
            for sub in todo {
                let slot = self.backend(sub.node)?;
                match self.upstreams[slot].send(&sub.req) {
                    Ok(()) => sent.push((sub, slot)),
                    Err(e) => {
                        self.fail(sub.node, slot, e)?;
                        retry.push(sub);
                    }
                }
            }
            for (sub, slot) in sent {
                match self.upstreams[slot].recv(&sub.req) {
                    Ok(resp) => answers.push((sub, slot, resp)),
                    Err(e) => {
                        self.fail(sub.node, slot, e)?;
                        retry.push(sub);
                    }
                }
            }
            todo = retry;
        }
        Ok(answers)
    }

    /// Sends `Shutdown` to every reachable backend and sums their served
    /// counts. A backend that dies meanwhile has nothing left to drain.
    fn broadcast_shutdown(&mut self) -> Response {
        let (mut served, mut reached) = (0, 0);
        for slot in 0..self.upstreams.len() {
            if slot < self.primaries && self.health.down[slot].load(Ordering::Relaxed) {
                continue;
            }
            let up = &mut self.upstreams[slot];
            let req = Request::Shutdown;
            if let Ok(Response::Shutdown { served: s }) = up.send(&req).and_then(|()| up.recv(&req))
            {
                served += s;
                reached += 1;
            }
        }
        eprintln!("mascot-router: shutdown broadcast reached {reached} backends");
        Response::Shutdown { served }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_map_is_total_and_stable() {
        for nodes in 1..=5 {
            for pc in (0x40_0000u64..0x40_1000).step_by(4) {
                let n = node_of(pc, nodes);
                assert!(n < nodes);
                assert_eq!(n, node_of(pc, nodes), "stable for the same pc");
            }
        }
    }

    #[test]
    fn node_map_spreads_across_nodes() {
        let nodes = 3;
        let mut hits = vec![0u32; nodes];
        for i in 0..4096u64 {
            hits[node_of(0x40_0000 + i * 4, nodes)] += 1;
        }
        for (node, &h) in hits.iter().enumerate() {
            assert!(h > 4096 / 10, "node {node} got only {h}/4096 PCs");
        }
    }
}
