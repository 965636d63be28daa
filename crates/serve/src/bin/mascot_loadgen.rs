//! `mascot-loadgen` — closed- and open-loop benchmark client for `mascotd`.
//!
//! ```text
//! mascot-loadgen [--addr HOST:PORT | --inproc] [--predictor KIND]
//!                [--shards N] [--threads N] [--connections N] [--batch N]
//!                [--duration-ms N] [--train-every N] [--open-loop FPS]
//!                [--slo-p999-us N] [--soak] [--smoke] [--check]
//!                [--fingerprint-file PATH] [--shutdown]
//! ```
//!
//! Each worker thread multiplexes its share of `--connections` non-blocking
//! sockets over one `epoll` instance (the same [`mascot_serve::poll`] /
//! [`mascot_serve::conn`] plumbing the server's event loop uses), so a few
//! threads can hold thousands of concurrent connections open against the
//! server. Every connection runs one transaction at a time: a predict batch
//! of synthetic loads, followed — every `--train-every`th transaction — by a
//! train request quoting the returned tickets, so the server sees the mixed
//! predict/train traffic a simulator frontend would generate. *Lost*
//! means a request got no response at all, and any non-zero count fails
//! the run.
//!
//! Closed loop (default): an idle connection starts its next transaction
//! immediately; latency is response time. Open loop (`--open-loop FPS`):
//! transactions arrive on a fixed timetable shared across the worker's
//! connections, and latency is measured from the *scheduled* arrival time —
//! if every connection is busy, arrivals queue in a backlog with their
//! stamps intact, so a stalling server accrues queueing delay instead of
//! quietly slowing the offered load (no coordinated omission).
//!
//! `--soak` is the SLO gate `scripts/check.sh` runs: open-loop load over
//! 1024 connections (defaults; all overridable) that fails unless the run
//! finishes with zero lost requests, a clean server drain, and a p999
//! latency at or under `--slo-p999-us`.
//!
//! Like `throughput.rs` and `BENCH_sim_throughput.json`: a default run
//! rewrites `BENCH_serve.json` at the repo root; `--check` compares against
//! the committed file and fails on a large throughput regression or a p999
//! above the committed SLO. Baselines that predate the SLO schema
//! (`connections` / `latency_p999_us` / `slo_p999_us`) are rejected until
//! re-baselined.
//!
//! Control modes (both require `--addr`, and skip the load run):
//! `--fingerprint-file PATH` probes a fixed PC set with predict-only
//! traffic — training nothing, so the probe does not perturb the state it
//! records — and writes one line per PC; two files from behaviorally
//! identical servers are byte-identical, which is how `scripts/check.sh`
//! proves a snapshot/restore cycle preserved the predictor. `--shutdown`
//! sends a graceful shutdown. Both print the server's warm-start counters
//! (`restored_entries` / `snapshot_age_s` / `restarts`) from `Stats`.

use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mascot::prediction::{BypassClass, LoadOutcome, ObservedDependence, StoreDistance};
use mascot_bench::json::{scan_f64_field, JsonObject};
use mascot_predictors::PredictorKind;
use mascot_serve::conn::{RecvBuf, SendBuf, READ_CHUNK};
use mascot_serve::metrics::Histogram;
use mascot_serve::poll::{Event, Poller};
use mascot_serve::shard::ShardPoolConfig;
use mascot_serve::wire::{
    Direction, Opcode, PredictItem, Request, Response, StatsReport, TrainItem, MAX_BATCH,
};
use mascot_serve::{Client, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct synthetic load PCs (spread across shards by the router).
const NUM_PCS: u64 = 4096;
/// Base address of the synthetic PC range.
const PC_BASE: u64 = 0x40_0000;
/// Fraction of trained outcomes that report a dependence.
const DEP_PROBABILITY: f64 = 0.3;

/// Allowed throughput regression vs the committed baseline in `--check`
/// mode. Loopback RPC on a shared machine is noisy, so the gate is loose;
/// the committed number documents the achieved rate.
const REGRESSION_TOLERANCE: f64 = 0.5;

const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");

/// PCs probed by `--fingerprint-file` (first PCs of the load range).
const FINGERPRINT_PCS: u64 = 512;
/// Fixed store sequence for fingerprint probes, far past anything a warmup
/// dispatched: the prediction then depends only on predictor table state.
const FINGERPRINT_STORE_SEQ: u64 = 1 << 40;

/// `--soak` defaults: connection count, open-loop frame rate, run length.
const SOAK_CONNECTIONS: usize = 1024;
const SOAK_FRAME_RATE: u64 = 2000;
const SOAK_DURATION_MS: u64 = 2500;

/// Default p999 SLO in microseconds. Generous on purpose: the gate exists
/// to catch a stalled or head-of-line-blocked server (tail in the seconds),
/// not to benchmark a loaded single-core CI box.
const DEFAULT_SLO_P999_US: f64 = 250_000.0;

/// Grace period after the load deadline for in-flight transactions to
/// drain; anything still unanswered after it counts as lost.
const DRAIN_GRACE_NS: u64 = 2_000_000_000;

#[derive(Clone)]
struct Args {
    addr: Option<String>,
    kind: PredictorKind,
    shards: usize,
    threads: usize,
    connections: usize,
    batch: usize,
    duration: Duration,
    train_every: usize,
    open_loop_qps: Option<u64>,
    slo_p999_us: f64,
    soak: bool,
    smoke: bool,
    check: bool,
    fingerprint_file: Option<String>,
    shutdown: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: None,
            kind: PredictorKind::Mascot,
            shards: 4,
            threads: 4,
            connections: 4,
            batch: 64,
            duration: Duration::from_millis(3000),
            train_every: 1,
            open_loop_qps: None,
            slo_p999_us: DEFAULT_SLO_P999_US,
            soak: false,
            smoke: false,
            check: false,
            fingerprint_file: None,
            shutdown: false,
        }
    }
}

fn usage() -> &'static str {
    "usage: mascot-loadgen [--addr HOST:PORT | --inproc] [--predictor KIND]\n\
    \x20                     [--shards N] [--threads N] [--connections N]\n\
    \x20                     [--batch N] [--duration-ms N] [--train-every N]\n\
    \x20                     [--open-loop FPS] [--slo-p999-us N] [--soak]\n\
    \x20                     [--smoke] [--check]\n\
    \x20                     [--fingerprint-file PATH] [--shutdown]\n\
    Without --addr an in-process server is spawned (--predictor/--shards\n\
    size it). --connections defaults to --threads; each worker thread\n\
    multiplexes its share of the connections (one transaction in flight\n\
    per connection). --open-loop schedules transactions at a fixed frame\n\
    rate and measures latency from the scheduled arrival. --soak is the\n\
    SLO gate: 1024 connections of open-loop load that must finish with\n\
    zero lost, a clean drain, and p999 <= --slo-p999-us. --smoke runs\n\
    short and asserts correctness; --check compares throughput and p999\n\
    against the committed BENCH_serve.json.\n\
    --fingerprint-file probes a fixed PC set (predict-only) and writes one\n\
    line per PC; --shutdown stops the server gracefully. Both are control\n\
    modes: they require --addr, skip the load run, and print the server's\n\
    warm-start counters."
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    // Flags with soak/smoke-dependent defaults: resolved after the scan so
    // explicit values always win regardless of flag order.
    let mut connections: Option<usize> = None;
    let mut duration_ms: Option<u64> = None;
    let mut slo_p999_us: Option<f64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--inproc" => args.addr = None,
            "--predictor" => {
                args.kind = value("--predictor")?
                    .parse::<PredictorKind>()
                    .map_err(|e| e.to_string())?;
            }
            "--shards" => args.shards = parse_positive(&value("--shards")?, "--shards")?,
            "--threads" => args.threads = parse_positive(&value("--threads")?, "--threads")?,
            "--connections" => {
                connections = Some(parse_positive(&value("--connections")?, "--connections")?);
            }
            "--batch" => {
                args.batch = parse_positive(&value("--batch")?, "--batch")?;
                if args.batch > MAX_BATCH {
                    return Err(format!("--batch exceeds wire limit of {MAX_BATCH}"));
                }
            }
            "--duration-ms" => {
                duration_ms =
                    Some(parse_positive(&value("--duration-ms")?, "--duration-ms")? as u64);
            }
            "--train-every" => {
                args.train_every = parse_positive(&value("--train-every")?, "--train-every")?;
            }
            "--open-loop" => {
                args.open_loop_qps =
                    Some(parse_positive(&value("--open-loop")?, "--open-loop")? as u64);
            }
            "--slo-p999-us" => {
                slo_p999_us =
                    Some(parse_positive(&value("--slo-p999-us")?, "--slo-p999-us")? as f64);
            }
            "--soak" => args.soak = true,
            "--smoke" => args.smoke = true,
            "--check" => args.check = true,
            "--fingerprint-file" => {
                args.fingerprint_file = Some(value("--fingerprint-file")?);
            }
            "--shutdown" => args.shutdown = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.soak {
        connections.get_or_insert(SOAK_CONNECTIONS);
        args.open_loop_qps.get_or_insert(SOAK_FRAME_RATE);
        duration_ms.get_or_insert(SOAK_DURATION_MS);
    }
    args.connections = connections.unwrap_or(args.threads);
    args.slo_p999_us = slo_p999_us.unwrap_or(DEFAULT_SLO_P999_US);
    args.duration =
        Duration::from_millis(duration_ms.unwrap_or(if args.smoke { 400 } else { 3000 }));
    if (args.fingerprint_file.is_some() || args.shutdown) && args.addr.is_none() {
        return Err("--fingerprint-file and --shutdown require --addr".to_string());
    }
    Ok(args)
}

fn parse_positive(s: &str, name: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{name} must be a positive integer, got {s:?}"))
}

/// Per-thread tallies, merged after the run.
#[derive(Default)]
struct ThreadTotals {
    predict_items: u64,
    predict_frames: u64,
    train_items: u64,
    lost: u64,
    latency: Histogram,
}

impl ThreadTotals {
    fn merge(&mut self, other: &ThreadTotals) {
        self.predict_items += other.predict_items;
        self.predict_frames += other.predict_frames;
        self.train_items += other.train_items;
        self.lost += other.lost;
        self.latency.merge(&other.latency);
    }
}

fn synth_outcome(rng: &mut StdRng, pc: u64) -> LoadOutcome {
    if rng.random::<f64>() < DEP_PROBABILITY {
        let distance = StoreDistance::new(1 + rng.random::<u32>() % 32).expect("1..=32 in range");
        LoadOutcome::dependent(ObservedDependence {
            distance,
            class: BypassClass::DirectBypass,
            store_pc: pc.wrapping_sub(8),
            branches_between: rng.random::<u32>() % 4,
        })
    } else {
        LoadOutcome::independent()
    }
}

#[inline]
fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Open-loop arrival bookkeeping: a fixed timetable of nanosecond offsets
/// from the run start, no clocks inside. [`ArrivalSchedule::pop_due`] hands
/// out each arrival's *scheduled* time, which is what latency is measured
/// from — the coordinated-omission guard. Pure so the guard is unit-testable
/// without a server (see `open_loop_latency_counts_queueing_delay`).
struct ArrivalSchedule {
    interval_ns: u64,
    issued: u64,
}

impl ArrivalSchedule {
    fn new(interval_ns: u64) -> Self {
        Self {
            interval_ns: interval_ns.max(1),
            issued: 0,
        }
    }

    /// Scheduled time of the next arrival not yet handed out.
    fn next_due(&self) -> u64 {
        self.issued * self.interval_ns
    }

    /// Hands out the next arrival's scheduled time if it is due.
    fn pop_due(&mut self, now_ns: u64) -> Option<u64> {
        let due = self.next_due();
        if due <= now_ns {
            self.issued += 1;
            Some(due)
        } else {
            None
        }
    }
}

/// One connection's transaction state in a multiplexed worker.
enum Phase {
    /// No request outstanding.
    Idle,
    /// A predict batch is in flight. `scheduled_ns` is what latency is
    /// measured from: the scheduled arrival in open loop, the send time in
    /// closed loop.
    AwaitPredict {
        items: Vec<PredictItem>,
        scheduled_ns: u64,
    },
    /// A train batch of `n` items is in flight.
    AwaitTrain { n: u64 },
}

impl Phase {
    /// Items that would count lost if the connection died right now.
    fn outstanding(&self) -> u64 {
        match self {
            Phase::Idle => 0,
            Phase::AwaitPredict { items, .. } => items.len() as u64,
            Phase::AwaitTrain { n } => *n,
        }
    }
}

/// One non-blocking client connection.
struct LoadConn {
    stream: TcpStream,
    rd: RecvBuf,
    wr: SendBuf,
    phase: Phase,
    /// Completed predict transactions (drives `--train-every`).
    txns: u64,
    /// Whether EPOLLOUT is currently registered.
    reg_write: bool,
}

impl LoadConn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            rd: RecvBuf::new(Direction::Response),
            wr: SendBuf::new(),
            phase: Phase::Idle,
            txns: 0,
            reg_write: false,
        }
    }
}

/// Reads whatever the socket has, decodes complete response frames, and
/// advances the transaction state machine. An `Err` poisons the connection
/// (the caller kills it and counts the outstanding items lost).
fn pump_replies(
    conn: &mut LoadConn,
    args: &Args,
    t0: Instant,
    totals: &mut ThreadTotals,
    rng: &mut StdRng,
) -> Result<(), String> {
    match conn.rd.fill(&mut conn.stream, READ_CHUNK) {
        Ok(0) => return Err("server closed the connection".to_string()),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
        Err(e) => return Err(format!("read failed: {e}")),
    }
    loop {
        let (code, len) = match conn.rd.peek_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(()),
            Err(e) => return Err(format!("bad frame: {e}")),
        };
        let expected = match conn.phase {
            Phase::AwaitPredict { .. } => Opcode::Predict,
            Phase::AwaitTrain { .. } => Opcode::Train,
            Phase::Idle => return Err("response with no request outstanding".to_string()),
        };
        let resp = Response::decode(expected, code, conn.rd.payload(len))
            .map_err(|e| format!("bad response: {e}"))?;
        conn.rd.consume_frame(len);
        let phase = std::mem::replace(&mut conn.phase, Phase::Idle);
        match (phase, resp) {
            (
                Phase::AwaitPredict {
                    items,
                    scheduled_ns,
                },
                Response::Predict(replies),
            ) => {
                totals
                    .latency
                    .record_ns(elapsed_ns(t0).saturating_sub(scheduled_ns));
                totals.predict_items += items.len() as u64;
                totals.predict_frames += 1;
                conn.txns += 1;
                if replies.len() != items.len() {
                    return Err("predict reply count mismatch".to_string());
                }
                if conn.txns.is_multiple_of(args.train_every as u64) {
                    // Reply order matches request order: pair tickets with
                    // the items.
                    let trains: Vec<TrainItem> = items
                        .iter()
                        .zip(&replies)
                        .map(|(item, r)| TrainItem {
                            ticket: r.ticket,
                            pc: item.pc,
                            outcome: synth_outcome(rng, item.pc),
                        })
                        .collect();
                    let n = trains.len() as u64;
                    let frame = Request::Train(trains)
                        .encode_frame()
                        .map_err(|e| format!("encode failed: {e}"))?;
                    conn.wr.push(&frame);
                    conn.phase = Phase::AwaitTrain { n };
                }
            }
            (Phase::AwaitTrain { n }, Response::Train { .. }) => totals.train_items += n,
            (_, Response::Error(msg)) => return Err(format!("server error: {msg}")),
            _ => return Err("response kind does not match the outstanding request".to_string()),
        }
    }
}

/// Flushes pending response bytes and mirrors write interest into epoll.
fn flush_conn(conn: &mut LoadConn, token: u64, poller: &Poller) -> io::Result<()> {
    if !conn.wr.is_empty() {
        conn.wr.flush(&mut conn.stream)?;
    }
    let want_write = !conn.wr.is_empty();
    if want_write != conn.reg_write {
        poller.modify(conn.stream.as_raw_fd(), token, true, want_write)?;
        conn.reg_write = want_write;
    }
    Ok(())
}

/// One worker thread: multiplexes its share of the connections over one
/// poller until the deadline, drains in-flight transactions, and reports.
fn worker_loop(addr: &str, args: &Args, worker_id: usize, failed: &AtomicBool) -> ThreadTotals {
    let mut totals = ThreadTotals::default();
    let n_conns =
        args.connections / args.threads + usize::from(worker_id < args.connections % args.threads);
    if n_conns == 0 {
        return totals;
    }
    let fail = |msg: String| {
        eprintln!("mascot-loadgen: worker {worker_id}: {msg}");
        failed.store(true, Ordering::Relaxed);
    };
    let mut poller = match Poller::new() {
        Ok(p) => p,
        Err(e) => {
            fail(format!("epoll_create failed: {e}"));
            return totals;
        }
    };
    let mut conns: Vec<Option<LoadConn>> = Vec::with_capacity(n_conns);
    for token in 0..n_conns {
        let stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                fail(format!("connect {} of {n_conns} failed: {e}", token + 1));
                return totals;
            }
        };
        let _ = stream.set_nodelay(true);
        if let Err(e) = stream
            .set_nonblocking(true)
            .and_then(|()| poller.add(stream.as_raw_fd(), token as u64, true, false))
        {
            fail(format!("failed to register connection: {e}"));
            return totals;
        }
        conns.push(Some(LoadConn::new(stream)));
    }
    let mut live = n_conns;
    let mut rng = StdRng::seed_from_u64(0x10adu64 ^ (worker_id as u64) << 32);
    let mut store_seq = 0u64;
    let duration_ns = args.duration.as_nanos().min(u128::from(u64::MAX)) as u64;
    // This worker offers 1/threads of the open-loop frame rate.
    let mut schedule = args.open_loop_qps.map(|fps| {
        ArrivalSchedule::new((args.threads as u64).saturating_mul(1_000_000_000) / fps.max(1))
    });
    let mut backlog: VecDeque<u64> = VecDeque::new();
    let mut events: Vec<Event> = Vec::new();
    // The arrival clock starts after the connect phase so connection setup
    // is not billed as server queueing delay.
    let t0 = Instant::now();

    loop {
        let now = elapsed_ns(t0);
        if live == 0 {
            break;
        }
        if now >= duration_ns {
            let outstanding: u64 = conns.iter().flatten().map(|c| c.phase.outstanding()).sum();
            if outstanding == 0 {
                break;
            }
            if now >= duration_ns + DRAIN_GRACE_NS {
                totals.lost += outstanding;
                fail(format!("{outstanding} items unanswered at drain deadline"));
                break;
            }
        } else {
            // Pull due arrivals into the backlog; their scheduled stamps
            // survive any wait for a free connection.
            if let Some(sched) = &mut schedule {
                while let Some(s) = sched.pop_due(now) {
                    backlog.push_back(s);
                }
            }
            // Start transactions on idle connections.
            for conn in conns.iter_mut().flatten() {
                if !matches!(conn.phase, Phase::Idle) {
                    continue;
                }
                let scheduled_ns = if schedule.is_some() {
                    match backlog.pop_front() {
                        Some(s) => s,
                        None => break,
                    }
                } else {
                    now
                };
                let items: Vec<PredictItem> = (0..args.batch)
                    .map(|_| {
                        store_seq += 1 + rng.random::<u64>() % 3;
                        PredictItem {
                            pc: PC_BASE + (rng.random::<u64>() % NUM_PCS) * 4,
                            store_seq,
                        }
                    })
                    .collect();
                let frame = Request::Predict(items.clone())
                    .encode_frame()
                    .expect("--batch validated against wire limit");
                conn.wr.push(&frame);
                conn.phase = Phase::AwaitPredict {
                    items,
                    scheduled_ns,
                };
            }
        }
        // Flush queued request bytes (partial writes keep EPOLLOUT armed).
        for (idx, slot) in conns.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else {
                continue;
            };
            if let Err(e) = flush_conn(conn, idx as u64, &poller) {
                let conn = slot.take().expect("checked above");
                totals.lost += conn.phase.outstanding();
                poller.delete(conn.stream.as_raw_fd());
                live -= 1;
                fail(format!("write failed: {e}"));
            }
        }
        // Park until a reply lands or the next open-loop arrival is due.
        let timeout_ms: i32 = if now >= duration_ns {
            10
        } else if let Some(sched) = &schedule {
            let gap_ms = sched.next_due().saturating_sub(now) / 1_000_000;
            gap_ms.clamp(1, 10) as i32
        } else {
            10
        };
        if let Err(e) = poller.wait(&mut events, timeout_ms) {
            fail(format!("epoll_wait failed: {e}"));
            break;
        }
        for &ev in &events {
            let idx = ev.token as usize;
            let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            let mut dead = None;
            if ev.readable || ev.hangup {
                if let Err(msg) = pump_replies(conn, args, t0, &mut totals, &mut rng) {
                    dead = Some(msg);
                }
            }
            if dead.is_none() && ev.writable {
                if let Err(e) = flush_conn(conn, ev.token, &poller) {
                    dead = Some(format!("write failed: {e}"));
                }
            }
            if let Some(msg) = dead {
                let conn = conns[idx].take().expect("resolved above");
                totals.lost += conn.phase.outstanding();
                poller.delete(conn.stream.as_raw_fd());
                live -= 1;
                fail(msg);
            }
        }
    }
    totals
}

/// `--fingerprint-file` / `--shutdown`: a short control session against a
/// remote server instead of a load run. Prints the warm-start counters,
/// optionally writes the prediction fingerprint, optionally shuts the
/// server down (in that order, so a combined invocation fingerprints the
/// state that is about to be checkpointed).
fn control_session(args: &Args) -> Result<(), String> {
    let addr = args.addr.as_deref().expect("checked in parse_args");
    let mut client = Client::connect(addr).map_err(|e| format!("connect failed: {e}"))?;

    let stats = client.stats().map_err(|e| format!("stats failed: {e}"))?;
    // All shards are stamped identically at warm start; take the max so a
    // half-stamped report (which would be a bug) still surfaces a value.
    let restarts = stats.shards.iter().map(|s| s.restarts).max().unwrap_or(0);
    let age = stats
        .shards
        .iter()
        .map(|s| s.snapshot_age_s)
        .max()
        .unwrap_or(0);
    println!(
        "warm: restored_entries={} snapshot_age_s={} restarts={}",
        stats.total_restored(),
        age,
        restarts
    );

    if let Some(path) = &args.fingerprint_file {
        let mut out = String::new();
        let pcs: Vec<u64> = (0..FINGERPRINT_PCS).map(|i| PC_BASE + i * 4).collect();
        for chunk in pcs.chunks(args.batch.min(MAX_BATCH)) {
            let items: Vec<PredictItem> = chunk
                .iter()
                .map(|&pc| PredictItem {
                    pc,
                    store_seq: FINGERPRINT_STORE_SEQ,
                })
                .collect();
            let replies = client
                .predict(items)
                .map_err(|e| format!("predict failed: {e}"))?;
            for (&pc, reply) in chunk.iter().zip(&replies) {
                out.push_str(&format!("{pc:#x} {:?}\n", reply.prediction));
            }
        }
        std::fs::write(path, out).map_err(|e| format!("failed to write {path}: {e}"))?;
        println!("fingerprint: {FINGERPRINT_PCS} pcs -> {path}");
    }

    if args.shutdown {
        let served = client
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        println!("shutdown: served={served}");
    }
    Ok(())
}

struct RunOutcome {
    totals: ThreadTotals,
    elapsed: Duration,
    stats: StatsReport,
    served_at_shutdown: u64,
    drained: StatsReport,
    failed: bool,
}

fn run(args: &Args) -> Result<RunOutcome, String> {
    // In-process server unless pointed at a remote one.
    let (addr, server_handle) = match &args.addr {
        Some(addr) => (addr.clone(), None),
        None => {
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                kind: args.kind,
                pool: ShardPoolConfig {
                    shards: args.shards,
                    ..Default::default()
                },
            };
            let server = Server::bind(&cfg).map_err(|e| format!("bind failed: {e}"))?;
            let (addr, handle) = server.spawn();
            (addr.to_string(), Some(handle))
        }
    };

    let failed = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let workers: Vec<_> = (0..args.threads)
        .map(|worker_id| {
            let addr = addr.clone();
            let args = args.clone();
            let failed = Arc::clone(&failed);
            std::thread::spawn(move || worker_loop(&addr, &args, worker_id, &failed))
        })
        .collect();
    let mut totals = ThreadTotals::default();
    for worker in workers {
        totals.merge(&worker.join().map_err(|_| "client thread panicked")?);
    }
    let elapsed = start.elapsed();

    // Control connection: final server-side stats, then graceful shutdown.
    let mut control = Client::connect(&addr).map_err(|e| format!("control connect failed: {e}"))?;
    let stats = control.stats().map_err(|e| format!("stats failed: {e}"))?;
    let served_at_shutdown = control
        .shutdown()
        .map_err(|e| format!("shutdown failed: {e}"))?;
    let drained = match server_handle {
        Some(handle) => handle.join().map_err(|_| "server thread panicked")?,
        // Remote server: it drains on its own; reuse the last snapshot.
        None => stats.clone(),
    };
    Ok(RunOutcome {
        totals,
        elapsed,
        stats,
        served_at_shutdown,
        drained,
        failed: failed.load(Ordering::Relaxed),
    })
}

fn to_json(args: &Args, out: &RunOutcome, qps: f64) -> String {
    JsonObject::new()
        .str("predictor", &args.kind.label())
        .int("shards", args.shards as u64)
        .int("threads", args.threads as u64)
        .int("connections", args.connections as u64)
        .int("batch", args.batch as u64)
        .int("duration_ms", out.elapsed.as_millis() as u64)
        .str(
            "mode",
            if args.soak {
                "soak"
            } else if args.open_loop_qps.is_some() {
                "open-loop"
            } else {
                "closed-loop"
            },
        )
        .float("predict_items_per_sec", qps, 0)
        .float(
            "predict_frames_per_sec",
            out.totals.predict_frames as f64 / out.elapsed.as_secs_f64(),
            0,
        )
        .int("predict_items", out.totals.predict_items)
        .int("train_items", out.totals.train_items)
        .int("lost", out.totals.lost)
        .float(
            "latency_p50_us",
            out.totals.latency.quantile_ns(0.50) as f64 / 1e3,
            1,
        )
        .float(
            "latency_p99_us",
            out.totals.latency.quantile_ns(0.99) as f64 / 1e3,
            1,
        )
        .float(
            "latency_p999_us",
            out.totals.latency.quantile_ns(0.999) as f64 / 1e3,
            1,
        )
        .float("slo_p999_us", args.slo_p999_us, 1)
        .int("server_requests", out.drained.total_requests())
        .int("server_predicts", out.drained.total_predicts())
        .int("server_trains", out.drained.total_trains())
        .int("server_rejected", out.drained.total_rejected())
        .float("shard_service_p99_us", worst_service_p99_us(&out.stats), 1)
        .render()
}

/// Slowest shard's p99 job service time (from the pre-shutdown snapshot),
/// in microseconds. Percentiles cannot be merged across shards, so the
/// worst shard is the honest summary.
fn worst_service_p99_us(stats: &StatsReport) -> f64 {
    stats
        .shards
        .iter()
        .map(|s| s.service_p99_ns)
        .max()
        .unwrap_or(0) as f64
        / 1e3
}

/// Checks that the server drained at least every item the clients saw
/// answered (it may have done more: a remote server also counts the
/// traffic it served before this run).
fn drain_accounts(out: &RunOutcome) -> Result<(), String> {
    let client_items = out.totals.predict_items + out.totals.train_items;
    if out.drained.total_requests() < client_items {
        return Err(format!(
            "server drained {} items but clients saw {client_items} answered",
            out.drained.total_requests()
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mascot-loadgen: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.fingerprint_file.is_some() || args.shutdown {
        return match control_session(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("mascot-loadgen: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("mascot-loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };

    let qps = out.totals.predict_items as f64 / out.elapsed.as_secs_f64();
    let p999_us = out.totals.latency.quantile_ns(0.999) as f64 / 1e3;
    println!(
        "{} predict items in {:.2}s over {} connections: {:.0} items/s ({:.0} frames/s), \
         p50 {:.1}us p99 {:.1}us p999 {:.1}us, {} trained, {} lost",
        out.totals.predict_items,
        out.elapsed.as_secs_f64(),
        args.connections,
        qps,
        out.totals.predict_frames as f64 / out.elapsed.as_secs_f64(),
        out.totals.latency.quantile_ns(0.50) as f64 / 1e3,
        out.totals.latency.quantile_ns(0.99) as f64 / 1e3,
        p999_us,
        out.totals.train_items,
        out.totals.lost,
    );
    println!(
        "server: {} requests ({} predicts, {} trains, {} rejected) over {} shards; \
         {} served at shutdown",
        out.drained.total_requests(),
        out.drained.total_predicts(),
        out.drained.total_trains(),
        out.drained.total_rejected(),
        out.drained.shards.len(),
        out.served_at_shutdown,
    );
    println!(
        "server: worst-shard p99 job service time {:.1}us",
        worst_service_p99_us(&out.stats)
    );

    if out.failed || out.totals.lost > 0 {
        eprintln!("FAIL: {} lost/unanswered requests", out.totals.lost);
        return ExitCode::FAILURE;
    }

    if args.soak {
        if out.totals.predict_items == 0 {
            eprintln!("FAIL: soak run completed zero transactions");
            return ExitCode::FAILURE;
        }
        if let Err(e) = drain_accounts(&out) {
            eprintln!("FAIL: {e}");
            return ExitCode::FAILURE;
        }
        if p999_us > args.slo_p999_us {
            eprintln!(
                "FAIL: p999 latency {p999_us:.1}us exceeds the {:.0}us SLO",
                args.slo_p999_us
            );
            return ExitCode::FAILURE;
        }
        println!(
            "soak ok: {} connections, zero lost, clean drain, p999 {p999_us:.1}us <= {:.0}us SLO",
            args.connections, args.slo_p999_us
        );
        return ExitCode::SUCCESS;
    }

    if args.smoke {
        if out.totals.predict_items == 0 || qps <= 0.0 {
            eprintln!("FAIL: smoke run achieved zero QPS");
            return ExitCode::FAILURE;
        }
        if let Err(e) = drain_accounts(&out) {
            eprintln!("FAIL: {e}");
            return ExitCode::FAILURE;
        }
        println!("smoke ok: nonzero QPS, zero lost, clean drain");
        return ExitCode::SUCCESS;
    }

    if args.check {
        let baseline = match std::fs::read_to_string(BASELINE_PATH) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("no committed baseline at {BASELINE_PATH}: {e}");
                eprintln!("run mascot-loadgen without --check to create it");
                return ExitCode::from(2);
            }
        };
        let Some(base) = scan_f64_field(&baseline, "predict_items_per_sec") else {
            eprintln!("malformed baseline: missing predict_items_per_sec");
            return ExitCode::from(2);
        };
        let (Some(_), Some(_), Some(base_slo)) = (
            scan_f64_field(&baseline, "connections"),
            scan_f64_field(&baseline, "latency_p999_us"),
            scan_f64_field(&baseline, "slo_p999_us"),
        ) else {
            eprintln!(
                "baseline predates the SLO schema: connections / latency_p999_us / \
                 slo_p999_us missing from {BASELINE_PATH}"
            );
            eprintln!("re-baseline: run mascot-loadgen without --check to rewrite it");
            return ExitCode::from(2);
        };
        let ratio = qps / base;
        println!("baseline: {base:.0} items/s, ratio {ratio:.3}; committed SLO {base_slo:.0}us");
        if ratio < 1.0 - REGRESSION_TOLERANCE {
            eprintln!(
                "FAIL: serve throughput regressed {:.1}% (> {:.0}% tolerance)",
                (1.0 - ratio) * 100.0,
                REGRESSION_TOLERANCE * 100.0
            );
            return ExitCode::FAILURE;
        }
        if p999_us > base_slo {
            eprintln!(
                "FAIL: p999 latency {p999_us:.1}us exceeds the committed {base_slo:.0}us SLO"
            );
            return ExitCode::FAILURE;
        }
        println!("serve throughput and p999 SLO checks passed");
        return ExitCode::SUCCESS;
    }

    let json = to_json(&args, &out, qps);
    if let Err(e) = std::fs::write(BASELINE_PATH, json) {
        eprintln!("failed to write {BASELINE_PATH}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {BASELINE_PATH}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_outcomes_mix_dependences() {
        let mut rng = StdRng::seed_from_u64(1);
        let dependent = (0..1000)
            .filter(|_| synth_outcome(&mut rng, PC_BASE).is_dependent())
            .count();
        assert!(dependent > 100 && dependent < 600, "got {dependent}");
    }

    #[test]
    fn arrival_schedule_is_a_fixed_timetable() {
        // 4 workers sharing 1000 fps -> one arrival per 4ms per worker.
        let mut sched = ArrivalSchedule::new(4_000_000);
        assert_eq!(sched.pop_due(0), Some(0));
        assert_eq!(sched.pop_due(0), None, "next arrival is not due yet");
        assert_eq!(sched.next_due(), 4_000_000);
        // Arrivals missed while the worker was busy all surface, stamped
        // with their scheduled (not actual) times.
        assert_eq!(sched.pop_due(12_000_000), Some(4_000_000));
        assert_eq!(sched.pop_due(12_000_000), Some(8_000_000));
        assert_eq!(sched.pop_due(12_000_000), Some(12_000_000));
        assert_eq!(sched.pop_due(12_000_000), None);
    }

    /// The coordinated-omission guard: a server that stalls for 100ms under
    /// 1ms-interval open-loop load must report ~50ms median latency (the
    /// queueing delay of the backlogged arrivals), not the ~0 a closed-loop
    /// measurement — which would simply stop sending — would report.
    #[test]
    fn open_loop_latency_counts_queueing_delay() {
        let mut sched = ArrivalSchedule::new(1_000_000); // 1ms
        let stall_ns: u64 = 100_000_000; // server answers nothing until t=100ms
        let mut scheduled = Vec::new();
        while let Some(s) = sched.pop_due(stall_ns) {
            scheduled.push(s);
        }
        assert_eq!(scheduled.len(), 101, "arrivals at t=0ms..=100ms inclusive");
        // Every backlogged arrival completes at t=100ms; latency is
        // measured from its scheduled stamp.
        let mut latency = Histogram::new();
        for &s in &scheduled {
            latency.record_ns(stall_ns - s);
        }
        let p50 = latency.quantile_ns(0.50);
        assert!(
            p50 >= 40_000_000,
            "median must reflect ~50ms queueing delay, got {p50}ns"
        );
        let p999 = latency.quantile_ns(0.999);
        assert!(
            p999 >= 90_000_000,
            "tail must reflect the full stall, got {p999}ns"
        );
    }
}
