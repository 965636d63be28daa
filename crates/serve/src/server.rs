//! The event loop both binaries serve from: a single-threaded,
//! readiness-driven loop multiplexing every connection over
//! level-triggered `epoll` ([`crate::poll`]), answering each request to
//! completion in place through a [`Handler`].
//!
//! One thread owns the listener, all connections and the handler. Each
//! readable event pulls at most [`READ_CHUNK`] bytes into the connection's
//! [`RecvBuf`] and handles every complete frame it holds: the decoded
//! request goes to [`Handler::handle`], and its response is encoded onto
//! the connection's send buffer before the next frame is parsed.
//! Responses therefore leave strictly in request order with no reassembly
//! state, and clients may pipeline as many requests as they like. Partial
//! reads and writes resume where they stopped — the state machine per
//! connection is exactly `reading frames ⇄ writing responses`, both sides
//! restartable at any byte boundary (DESIGN.md §11).
//!
//! `mascotd`'s handler splits each batch over its owning shards and runs
//! every sub-batch on the loop thread (`ShardPool::predict` /
//! `ShardPool::train`); `mascot-router`'s forwards it to its nodes
//! ([`crate::router`]).
//!
//! Fairness is the level-triggered contract: a connection with more
//! buffered input than one chunk is simply re-reported by the kernel on
//! the next `epoll_wait`, behind every other ready fd, so a hot
//! connection cannot starve thousands of idle ones.
//!
//! Backpressure is per connection: reading pauses when the send buffer
//! crosses [`crate::conn`]'s threshold and resumes at half (hysteresis),
//! so a client that never reads its responses stops being served instead
//! of ballooning server memory. The loop never answers `Busy` — there is
//! no queue to fill — although the wire keeps the status for clients.
//!
//! Shutdown drains: the `Shutdown` response is flushed, the listener is
//! deregistered, idle connections close immediately, and connections with
//! responses still owed get [`DRAIN_GRACE`] to take delivery.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use mascot_predictors::{AnyPredictor, PredictorKind};
use mascot_snapshot::SnapshotFile;

use crate::conn::{Conn, READ_CHUNK};
use crate::poll::{Event, Poller};
use crate::shard::{ShardPool, ShardPoolConfig};
use crate::wire::{
    PredictItem, Request, Response, StatsReport, TrainItem, MAX_SNAPSHOT_FRAME_PAYLOAD,
};

/// Token of the listening socket in the poller.
const TOKEN_LISTENER: u64 = u64::MAX;
/// How long connections still owed responses get to take delivery after a
/// `Shutdown`, before being force-closed.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// Poll tick while draining, so the grace deadline is observed.
const DRAIN_TICK_MS: i32 = 50;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Predictor built on every shard.
    pub kind: PredictorKind,
    /// Shard pool sizing.
    pub pool: ShardPoolConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            kind: PredictorKind::Mascot,
            pool: ShardPoolConfig::default(),
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    pool: ShardPool,
    kind: PredictorKind,
    addr: SocketAddr,
    on_ready: Box<dyn FnOnce() + Send>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("shards", &self.pool.num_shards())
            .finish()
    }
}

impl Server {
    /// Binds the listener and builds the shard pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(cfg: &ServeConfig) -> std::io::Result<Server> {
        Self::bind_with(cfg, None)
    }

    /// Binds the listener and builds the shard pool, seeding each shard
    /// with a pre-built predictor (snapshot warm start) when `predictors`
    /// is given. The pool's shard count follows `predictors.len()` in that
    /// case, overriding `cfg.pool.shards`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_with(
        cfg: &ServeConfig,
        predictors: Option<Vec<AnyPredictor>>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let pool = match predictors {
            Some(p) => ShardPool::with_predictors(p, &cfg.pool),
            None => ShardPool::new(cfg.kind, &cfg.pool),
        };
        Ok(Server {
            listener,
            pool,
            kind: cfg.kind,
            addr,
            on_ready: Box::new(|| {}),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct access to the shard pool (replay warm-up runs before `run`).
    pub fn pool(&self) -> &ShardPool {
        &self.pool
    }

    /// Registers a callback invoked once the listener is registered with
    /// the poller — the earliest point at which the server is actually
    /// accepting under load. `mascotd --port-file` writes its readiness
    /// file here, not before.
    pub fn set_on_ready(&mut self, f: Box<dyn FnOnce() + Send>) {
        self.on_ready = f;
    }

    /// Serves until a `Shutdown` request, then drains every connection and
    /// returns the final statistics.
    pub fn run(self) -> StatsReport {
        self.run_collecting(false).0
    }

    /// Like [`Server::run`], but when `collect_snapshot` is set it also
    /// serializes every shard's final predictor state after the last
    /// connection drains — the shutdown-path checkpoint `mascotd
    /// --snapshot-dir` persists.
    pub fn run_collecting(self, collect_snapshot: bool) -> (StatsReport, Vec<Vec<u8>>) {
        let Server {
            listener,
            pool,
            kind,
            addr: _,
            on_ready,
        } = self;
        serve(listener, &mut ShardHandler { pool: &pool, kind }, on_ready)
            .expect("event loop setup");
        // No connections remain, so no new work can arrive; a snapshot
        // taken now is the final state.
        let payloads = if collect_snapshot {
            pool.snapshot_shards()
        } else {
            Vec::new()
        };
        (pool.shutdown(), payloads)
    }

    /// Runs the server on a background thread; returns the bound address
    /// and the handle yielding the final statistics.
    pub fn spawn(self) -> (SocketAddr, JoinHandle<StatsReport>) {
        let addr = self.local_addr();
        let handle = std::thread::Builder::new()
            .name("mascotd-loop".to_string())
            .spawn(move || self.run())
            .expect("spawn server");
        (addr, handle)
    }
}

/// Answers one decoded request. The event loop owns accept, framing,
/// backpressure and the drain; a handler owns only what a request means.
pub trait Handler {
    /// Answers `req`. After queuing the answer to a `Shutdown`, the loop
    /// stops accepting and drains.
    fn handle(&mut self, req: Request) -> Response;
}

/// Serves `listener` through `handler` on the calling thread until a
/// `Shutdown` has been answered and every connection has drained.
/// `on_ready` runs once the listener is registered with the poller — the
/// earliest point at which connections are actually served.
///
/// # Errors
///
/// Propagates a failure to set up the listener or the poller.
pub fn serve<H: Handler>(
    listener: TcpListener,
    handler: &mut H,
    on_ready: impl FnOnce(),
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
    on_ready();
    EventLoop {
        poller,
        listener,
        conns: Vec::new(),
        free_conns: Vec::new(),
        dead: Vec::new(),
        handler,
        accepting: true,
        draining: false,
        deadline: None,
    }
    .run();
    Ok(())
}

/// The event loop: owns the poller, the listener and the connection slab,
/// and answers requests through the handler it borrows.
struct EventLoop<'a, H> {
    poller: Poller,
    listener: TcpListener,
    conns: Vec<Option<Conn>>,
    free_conns: Vec<usize>,
    /// Slots closed during the current poll batch; recycled only after the
    /// batch, so a stale event can't hit a freshly accepted connection.
    dead: Vec<usize>,
    handler: &'a mut H,
    accepting: bool,
    draining: bool,
    deadline: Option<Instant>,
}

impl<H: Handler> EventLoop<'_, H> {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = if self.draining { DRAIN_TICK_MS } else { -1 };
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => {
                        if self.accepting {
                            self.accept_all();
                        }
                    }
                    token => {
                        let idx = token as usize;
                        if idx >= self.conns.len() || self.conns[idx].is_none() {
                            continue; // closed earlier in this batch
                        }
                        if ev.hangup {
                            self.close_conn(idx);
                            continue;
                        }
                        if ev.readable {
                            self.handle_readable(idx);
                        }
                        if ev.writable {
                            self.service_conn(idx);
                        }
                    }
                }
            }
            self.free_conns.append(&mut self.dead);
            if self.draining {
                if self.conns.iter().all(Option::is_none) {
                    break;
                }
                if self.deadline.is_some_and(|d| Instant::now() >= d) {
                    for idx in 0..self.conns.len() {
                        if self.conns[idx].is_some() {
                            self.close_conn(idx);
                        }
                    }
                    break;
                }
            }
        }
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let idx = match self.free_conns.pop() {
                        Some(i) => {
                            self.conns[i] = Some(Conn::new(stream));
                            i
                        }
                        None => {
                            self.conns.push(Some(Conn::new(stream)));
                            self.conns.len() - 1
                        }
                    };
                    let fd = self.conns[idx].as_ref().expect("just stored").stream.as_raw_fd();
                    if self.poller.add(fd, idx as u64, true, false).is_err() {
                        self.conns[idx] = None;
                        self.free_conns.push(idx);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Transient (ECONNABORTED) and resource (EMFILE) errors
                // alike: stop for this readiness event rather than spin;
                // level-triggered epoll re-reports a non-empty backlog.
                Err(_) => break,
            }
        }
    }

    /// One bounded read, then parse everything complete.
    fn handle_readable(&mut self, idx: usize) {
        {
            let Some(c) = self.conns[idx].as_mut() else { return };
            if !c.reading || c.eof || c.poisoned {
                return; // stale event for a paused/finished reader
            }
            match c.rd.fill(&mut c.stream, READ_CHUNK) {
                Ok(0) => c.eof = true,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
        self.parse_buffered(idx);
        self.service_conn(idx);
    }

    /// Parses and answers every complete frame in the receive buffer,
    /// stopping at backpressure, poison, or drain.
    fn parse_buffered(&mut self, idx: usize) {
        loop {
            let Some(c) = self.conns[idx].as_mut() else { return };
            if c.poisoned || self.draining {
                return;
            }
            if c.should_pause() {
                c.reading = false;
                return;
            }
            let (code, len) = match c.rd.peek_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(e) => {
                    // Framing is unrecoverable mid-stream: report, then
                    // stop parsing and close once the report is delivered.
                    c.poisoned = true;
                    let msg = e.to_string();
                    self.respond(idx, Response::Error(msg));
                    return;
                }
            };
            let decoded = Request::decode(code, c.rd.payload(len));
            c.rd.consume_frame(len);
            match decoded {
                Ok(req) => self.dispatch(idx, req),
                // A well-framed but malformed payload: the stream is still
                // in sync, so answer and keep serving.
                Err(e) => self.respond(idx, Response::Error(e.to_string())),
            }
        }
    }

    /// Runs one request to completion and queues its response.
    fn dispatch(&mut self, idx: usize, req: Request) {
        let shutdown = matches!(req, Request::Shutdown);
        let resp = self.handler.handle(req);
        // Queued first, so the drain keeps this connection open.
        self.respond(idx, resp);
        if shutdown && !self.draining {
            self.begin_drain();
        }
    }

    /// Flushes what the socket accepts, resumes paused parsing when below
    /// the hysteresis threshold, updates epoll interest, and closes
    /// finished connections.
    fn service_conn(&mut self, idx: usize) {
        loop {
            let Some(c) = self.conns[idx].as_mut() else { return };
            if c.wr.flush(&mut c.stream).is_err() {
                self.close_conn(idx);
                return;
            }
            // Resume parsing frames that were already buffered while
            // paused — epoll will not re-report bytes we already hold.
            let resume = !c.reading
                && !c.eof
                && !c.poisoned
                && !self.draining
                && c.may_resume()
                && c.rd.buffered() > 0;
            if !resume {
                break;
            }
            c.reading = true;
            self.parse_buffered(idx);
            if self.conns[idx].is_none() {
                return;
            }
        }
        let Some(c) = self.conns[idx].as_mut() else { return };
        if !c.reading && !c.eof && !c.poisoned && !self.draining && c.may_resume() {
            c.reading = true; // nothing buffered; epoll reports new bytes
        }
        if c.finished() || (self.draining && c.wr.is_empty()) {
            self.close_conn(idx);
        } else {
            self.update_interest(idx);
        }
    }

    /// Appends an encoded response to the connection's send buffer.
    fn respond(&mut self, idx: usize, resp: Response) {
        let frame = encode_or_error(resp);
        if let Some(c) = self.conns[idx].as_mut() {
            c.wr.push(&frame);
        }
    }

    /// Stops accepting and starts the drain clock; connections owed
    /// nothing close now, the rest flush under the deadline.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.deadline = Some(Instant::now() + DRAIN_GRACE);
        self.accepting = false;
        self.poller.delete(self.listener.as_raw_fd());
        for idx in 0..self.conns.len() {
            if self.conns[idx].as_ref().is_some_and(|c| c.wr.is_empty()) {
                self.close_conn(idx);
            }
        }
    }

    /// Mirrors the connection's desired interests into epoll, skipping the
    /// syscall when nothing changed.
    fn update_interest(&mut self, idx: usize) {
        let draining = self.draining;
        let Some(c) = self.conns[idx].as_mut() else { return };
        let want_r = c.reading && !c.eof && !c.poisoned && !draining;
        let want_w = !c.wr.is_empty();
        if want_r != c.reg_read || want_w != c.want_write {
            let _ = self
                .poller
                .modify(c.stream.as_raw_fd(), idx as u64, want_r, want_w);
            c.reg_read = want_r;
            c.want_write = want_w;
        }
    }

    /// Closes a connection.
    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else { return };
        self.poller.delete(conn.stream.as_raw_fd());
        self.dead.push(idx);
    }
}

/// `mascotd`'s request work: each batch split over its owning shards, and
/// every sub-batch run to completion on the loop thread.
struct ShardHandler<'a> {
    pool: &'a ShardPool,
    kind: PredictorKind,
}

impl Handler for ShardHandler<'_> {
    fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Predict(items) => self.predict(&items),
            Request::Train(items) => self.train(&items),
            Request::Stats => Response::Stats(self.pool.stats_report()),
            Request::Shutdown => Response::Shutdown {
                served: self
                    .pool
                    .metrics()
                    .iter()
                    .map(|m| m.requests.load(Ordering::Relaxed))
                    .sum(),
            },
            Request::Snapshot => snapshot_response(self.pool, self.kind),
            Request::Restore(bytes) => restore_response(&bytes, self.pool, self.kind),
        }
    }
}

impl ShardHandler<'_> {
    /// Splits the batch over its owning shards, runs each sub-batch, and
    /// slots the replies back into request order.
    fn predict(&self, items: &[PredictItem]) -> Response {
        let mut out = vec![None; items.len()];
        let pool = self.pool;
        for (shard, idxs) in partition(items, pool.num_shards(), |it| pool.shard_of(it.pc)) {
            let sub: Vec<PredictItem> = idxs.iter().map(|&i| items[i]).collect();
            for (&i, reply) in idxs.iter().zip(pool.predict(shard, &sub)) {
                out[i] = Some(reply);
            }
        }
        Response::Predict(
            out.into_iter()
                .map(|r| r.expect("every item has a shard"))
                .collect(),
        )
    }

    /// Splits the batch over its owning shards and sums their summaries.
    fn train(&self, items: &[TrainItem]) -> Response {
        let (mut applied, mut stale) = (0, 0);
        let pool = self.pool;
        for (shard, idxs) in partition(items, pool.num_shards(), |it| pool.shard_of(it.pc)) {
            let sub: Vec<TrainItem> = idxs.iter().map(|&i| items[i]).collect();
            let (a, s) = pool.train(shard, &sub);
            applied += a;
            stale += s;
        }
        Response::Train { applied, stale }
    }
}

/// Encodes the response, falling back to an `Error` frame (which always
/// encodes — its length is checked at construction) if the response
/// exceeds a wire limit.
fn encode_or_error(resp: Response) -> Vec<u8> {
    match resp.encode_frame() {
        Ok(frame) => frame,
        Err(e) => Response::Error(format!("response encoding failed: {e}"))
            .encode_frame()
            .expect("error response encodes"),
    }
}

/// Seconds since the Unix epoch, 0 when the clock is unavailable.
pub fn unix_now_s() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Decodes a snapshot's per-shard payloads into one predictor per *target*
/// shard, fail-closed: every payload must decode before any state is used.
/// With matching counts each shard's state transfers bit-exactly; otherwise
/// all shards are union-merged and the merged predictor is cloned onto
/// every target shard. Entries live under folded-history hashes, not raw
/// PCs, so a literal re-split is impossible — but queries route by PC, so
/// each target shard only ever *sees* the slice of the union it owns, and
/// the cluster answers exactly like the merged predictor would.
///
/// # Errors
///
/// A human-readable message naming the payload or merge that failed.
pub fn predictors_from_snapshot(
    shards: &[Vec<u8>],
    target: usize,
) -> Result<Vec<AnyPredictor>, String> {
    if shards.is_empty() || target == 0 {
        return Err("snapshot has no shard payloads".to_string());
    }
    let mut decoded = Vec::with_capacity(shards.len());
    for (i, payload) in shards.iter().enumerate() {
        decoded.push(
            AnyPredictor::from_snapshot_bytes(payload)
                .map_err(|e| format!("shard {i} payload: {e}"))?,
        );
    }
    // The container's kind label covers the file as a whole; each payload
    // also self-describes its variant, and a hand-assembled container could
    // disagree with itself. A heterogeneous pool must never be built — even
    // when the counts match and no merge would force the issue.
    if let Some(mixed) = decoded
        .iter()
        .position(|p| std::mem::discriminant(p) != std::mem::discriminant(&decoded[0]))
    {
        return Err(format!(
            "shard {mixed} payload holds a different predictor kind than shard 0"
        ));
    }
    if decoded.len() == target {
        return Ok(decoded);
    }
    // Merge in shard order: conflict resolution decays the incumbent on
    // usefulness ties (an anti-mistraining measure — see DESIGN.md §12),
    // so the order is observable and must be deterministic.
    let mut rest = decoded.into_iter();
    let mut union = rest.next().expect("non-empty checked above");
    for (i, other) in rest.enumerate() {
        union
            .merge_from(&other)
            .map_err(|e| format!("merging shard {}: {e}", i + 1))?;
    }
    Ok(vec![union; target])
}

/// Gathers every shard's serialized state into one `Snapshot` response.
fn snapshot_response(pool: &ShardPool, kind: PredictorKind) -> Response {
    let file = SnapshotFile {
        kind_label: kind.label().into_owned(),
        created_unix_s: unix_now_s(),
        restarts: pool.metrics()[0].restarts.load(Ordering::Relaxed),
        shards: pool.snapshot_shards(),
    };
    let bytes = file.encode();
    if bytes.len() > MAX_SNAPSHOT_FRAME_PAYLOAD {
        return Response::Error("snapshot exceeds the wire payload limit".to_string());
    }
    Response::Snapshot(bytes)
}

/// Validates a `Restore` payload fail-closed, then swaps the decoded
/// (resharded if need be) state into every shard.
fn restore_response(bytes: &[u8], pool: &ShardPool, kind: PredictorKind) -> Response {
    let file = match SnapshotFile::decode(bytes) {
        Ok(f) => f,
        Err(e) => return Response::Error(format!("snapshot rejected: {e}")),
    };
    let expected = kind.label();
    if file.kind_label != expected {
        return Response::Error(format!(
            "snapshot rejected: holds {:?} state, this server runs {:?}",
            file.kind_label, expected
        ));
    }
    let predictors = match predictors_from_snapshot(&file.shards, pool.num_shards()) {
        Ok(p) => p,
        Err(e) => return Response::Error(format!("snapshot rejected: {e}")),
    };
    let restored_entries = pool.restore_shards(predictors);
    pool.set_warm_start(
        unix_now_s().saturating_sub(file.created_unix_s),
        file.restarts,
    );
    Response::Restore { restored_entries }
}

/// Splits a batch's indices over `buckets` owners (shards, or the router's
/// nodes): `(owner, indices)` for every owner of at least one item, indices
/// in batch order.
pub(crate) fn partition<T>(
    items: &[T],
    buckets: usize,
    owner_of: impl Fn(&T) -> usize,
) -> impl Iterator<Item = (usize, Vec<usize>)> {
    let mut by_owner: Vec<Vec<usize>> = vec![Vec::new(); buckets];
    for (i, item) in items.iter().enumerate() {
        by_owner[owner_of(item)].push(i);
    }
    by_owner
        .into_iter()
        .enumerate()
        .filter(|(_, idxs)| !idxs.is_empty())
}
