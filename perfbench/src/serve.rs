//! `serve-loopback`: an in-process `Server` (one shard, MASCOT) on
//! 127.0.0.1 and one client thread on one connection, running a closed
//! loop over the loads of a trace in program order. Each `Predict` batch
//! is followed by a `Train` carrying the trace's ground-truth outcomes.
//! Every pass starts a fresh server, so every pass sees a cold predictor.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use mascot::prediction::{LoadOutcome, ObservedDependence, StoreDistance};
use mascot_predictors::PredictorKind;
use mascot_serve::shard::{ReplySink, ShardJob, ShardReply};
use mascot_serve::wire::{
    self, Opcode, PredictItem, PredictReply, Request, Response, StatsReport, TrainItem, WireError,
};
use mascot_serve::{Client, ServeConfig, Server, ShardPool, ShardPoolConfig};
use mascot_sim::{Trace, TraceDep, UopKind};

use crate::metrics::{peak_rss_mib, Report};
use crate::stats::{median, percentile, ratio, tail_percentile};
use crate::tracing::{Agg, SpanId, Tracer};
use crate::{generate_setups, RunCfg, MIN_REPS};

/// Workload profile of the trace whose loads are served.
pub const BENCH: &str = "perlbench2";
/// Predictor on the shard.
pub const KIND: PredictorKind = PredictorKind::Mascot;
/// Trace length, uops.
pub const UOPS: usize = 1_000_000;
/// Loads per `Predict` request (and per `Train`).
pub const BATCH: usize = 64;

/// One load of the trace as the service sees it.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// The prediction query: PC and the count of older stores.
    pub item: PredictItem,
    /// The trace's ground-truth outcome, sent back as training.
    pub outcome: LoadOutcome,
}

/// The commit-time outcome the simulator would record for a trace
/// dependence: one beyond the 127-store window trains as independent.
fn outcome_of(dep: Option<TraceDep>) -> LoadOutcome {
    match dep.and_then(|d| StoreDistance::new(d.distance).map(|dist| (d, dist))) {
        Some((d, distance)) => LoadOutcome::dependent(ObservedDependence {
            distance,
            class: d.class,
            store_pc: d.store_pc,
            branches_between: d.branches_between,
        }),
        None => LoadOutcome::independent(),
    }
}

/// The loads of `trace` in program order.
pub fn loads_of(trace: &Trace) -> Vec<Load> {
    let mut stores = 0u64;
    let mut loads = Vec::with_capacity(trace.num_loads());
    for uop in &trace.uops {
        match uop.kind {
            UopKind::Store { .. } => stores += 1,
            UopKind::Load { dep, .. } => loads.push(Load {
                item: PredictItem {
                    pc: uop.pc,
                    store_seq: stores,
                },
                outcome: outcome_of(dep),
            }),
            UopKind::Alu | UopKind::Branch { .. } => {}
        }
    }
    loads
}

/// Client-side timing of the wire codec, per frame.
#[derive(Debug, Default)]
struct Codec {
    encode: Agg,
    decode: Agg,
    predict_encode: Agg,
    predict_decode: Agg,
}

/// What one pass measured.
#[derive(Debug, Default)]
struct Pass {
    setup_s: f64,
    wall_s: f64,
    predicted: u64,
    predict_rtt_us: Vec<f64>,
    train_rtt_us: Vec<f64>,
    codec: Codec,
    stats: StatsReport,
}

/// Sends one request and reads its response, timing the round trip from
/// the start of encoding to the end of decoding. With `codec`, encode and
/// decode are timed on their own too.
fn round_trip(
    stream: &mut TcpStream,
    req: &Request,
    op: Opcode,
    codec: Option<&mut Codec>,
) -> Result<(Response, Instant, Duration), WireError> {
    let t0 = Instant::now();
    let frame = req.encode_frame()?;
    let encoded = codec.is_some().then(Instant::now);
    stream.write_all(&frame)?;
    let (code, payload) = wire::read_frame(stream)?.ok_or(WireError::Closed)?;
    let received = codec.is_some().then(Instant::now);
    let resp = Response::decode(op, code, &payload)?;
    let end = Instant::now();
    if let (Some(c), Some(enc), Some(rx)) = (codec, encoded, received) {
        let (e, d) = ((enc - t0).as_nanos() as u64, (end - rx).as_nanos() as u64);
        c.encode.record(e);
        c.decode.record(d);
        if op == Opcode::Predict {
            c.predict_encode.record(e);
            c.predict_decode.record(d);
        }
    }
    Ok((resp, t0, end - t0))
}

/// The closed loop over every load: predict a batch, then train it.
fn client_loop(
    stream: &mut TcpStream,
    loads: &[Load],
    pass: &mut Pass,
    tracer: Option<(&mut Tracer, SpanId)>,
) -> Result<(), String> {
    let traced = tracer.is_some();
    let mut tracer = tracer;
    let mut codec = Codec::default();
    for chunk in loads.chunks(BATCH) {
        let n = chunk.len() as u64;
        let req = Request::Predict(chunk.iter().map(|l| l.item).collect());
        let (resp, t0, rtt) =
            round_trip(stream, &req, Opcode::Predict, traced.then_some(&mut codec))
                .map_err(|e| format!("predict: {e}"))?;
        let replies: Vec<PredictReply> = match resp {
            Response::Predict(r) if r.len() == chunk.len() => r,
            other => return Err(format!("predict of {n} items answered {other:?}")),
        };
        pass.predicted += n;
        pass.predict_rtt_us.push(rtt.as_secs_f64() * 1e6);
        if let Some((t, parent)) = tracer.as_mut() {
            t.record("predict", *parent, t0, rtt);
        }

        let req = Request::Train(
            chunk
                .iter()
                .zip(&replies)
                .map(|(l, r)| TrainItem {
                    ticket: r.ticket,
                    pc: l.item.pc,
                    outcome: l.outcome,
                })
                .collect(),
        );
        let (resp, t0, rtt) = round_trip(stream, &req, Opcode::Train, traced.then_some(&mut codec))
            .map_err(|e| format!("train: {e}"))?;
        match resp {
            Response::Train { applied, stale } if u64::from(applied) == n && stale == 0 => {}
            other => return Err(format!("train of {n} items answered {other:?}")),
        }
        pass.train_rtt_us.push(rtt.as_secs_f64() * 1e6);
        if let Some((t, parent)) = tracer.as_mut() {
            t.record("train", *parent, t0, rtt);
        }
    }
    pass.codec = codec;
    Ok(())
}

/// Whether the host has the two CPUs the pinned placement uses.
fn two_cpus() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
}

/// Restricts the calling thread to `cpu`; threads it spawns afterwards
/// inherit the restriction. Returns whether the kernel accepted it.
fn pin_to_cpu(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: pid 0 names the calling thread, and `mask` is a live,
    // readable u64 whose size is the `cpusetsize` passed with it.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Asks the server at `addr` to shut down over a fresh connection (the
/// recovery path when the benchmark's own connection broke).
fn shutdown_out_of_band(addr: SocketAddr) -> bool {
    Client::connect(addr).is_ok_and(|mut c| c.shutdown().is_ok())
}

/// One pass: start a server, serve every load, shut it down and collect
/// its statistics.
fn run_pass(
    loads: &[Load],
    traced: bool,
    report: &mut Report,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Option<Pass> {
    let mut pass = Pass::default();
    // Every load is one predict item and one train item.
    report.attempted += 2 * loads.len() as u64;
    let span = tracer.open(if traced { "pass_traced" } else { "pass" }, parent);
    let start = tracer.open("server_start", span);
    // The server's shard worker and event loop start on CPU 1 and the
    // client runs on CPU 0, so every pass has the same placement: the
    // scheduler otherwise flips between same-core and cross-core wake-ups,
    // which halves or doubles the round trip from one run to the next.
    let pinned = two_cpus() && pin_to_cpu(1);
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        kind: KIND,
        pool: ShardPoolConfig {
            shards: 1,
            ..ShardPoolConfig::default()
        },
    };
    let server = match Server::bind(&cfg) {
        Ok(s) => s,
        Err(e) => {
            report.failures.push(format!("bind: {e}"));
            return None;
        }
    };
    let (addr, handle) = server.spawn();
    if pinned {
        pin_to_cpu(0);
    }
    let stream = TcpStream::connect(addr).and_then(|s| s.set_nodelay(true).map(|()| s));
    pass.setup_s = tracer.close(start).as_secs_f64();

    let loop_span = tracer.open("client_loop", span);
    let served = match stream {
        Ok(mut stream) => {
            let traced_spans = traced.then_some((&mut *tracer, loop_span));
            client_loop(&mut stream, loads, &mut pass, traced_spans).and_then(
                |()| match round_trip(&mut stream, &Request::Shutdown, Opcode::Shutdown, None) {
                    Ok((Response::Shutdown { .. }, _, _)) => Ok(()),
                    Ok((other, _, _)) => Err(format!("shutdown answered {other:?}")),
                    Err(e) => Err(format!("shutdown: {e}")),
                },
            )
        }
        Err(e) => Err(format!("connect: {e}")),
    };
    pass.wall_s = tracer.close(loop_span).as_secs_f64();
    if let Err(e) = served {
        report.failures.push(e);
        // Without a shutdown the server thread never ends; leave it to
        // process exit rather than block on the join.
        if !shutdown_out_of_band(addr) {
            return None;
        }
    }
    match handle.join() {
        Ok(stats) => pass.stats = stats,
        Err(_) => report.failures.push("server thread panicked".into()),
    }
    tracer.close(span);
    Some(pass)
}

/// Checks a pass's accounting against the loads it served. A pass that
/// fails a check counts every item it carried as failed.
fn check_pass(report: &mut Report, pass: &Pass, loads: u64, mispredictions: u64) {
    let before = report.failures.len();
    let s = &pass.stats;
    let answered = pass.predicted;
    report.check(answered == loads, || {
        format!("answered {answered} of {loads} predicts")
    });
    report.check(s.total_predicts() == answered, || {
        format!(
            "server predicts {} != client items {answered}",
            s.total_predicts()
        )
    });
    report.check(s.total_trains() == loads, || {
        format!("applied trains {} != loads {loads}", s.total_trains())
    });
    let stale: u64 = s.shards.iter().map(|x| x.stale_trains).sum();
    report.check(stale == 0, || format!("{stale} stale trains"));
    report.check(s.total_rejected() == 0, || {
        format!("{} items rejected Busy", s.total_rejected())
    });
    report.check(s.total_mispredictions() == mispredictions, || {
        format!(
            "serve.mispredictions {} differ from the first pass's {mispredictions}",
            s.total_mispredictions()
        )
    });
    if report.failures.len() > before {
        report.failed += 2 * loads;
    }
}

/// Replays the same traffic through `ShardPool::send` + `ReplySink`, with
/// no socket or event loop: the shard's own round trip. Returns the
/// predict round trips in microseconds and the pool's mispredictions.
fn shard_pass(loads: &[Load]) -> Result<(Vec<f64>, u64), String> {
    // Caller and shard share CPU 1, as the event loop and shard do in the
    // served passes.
    let pinned = two_cpus() && pin_to_cpu(1);
    let result = shard_round_trips(loads);
    if pinned {
        pin_to_cpu(0);
    }
    result
}

fn shard_round_trips(loads: &[Load]) -> Result<(Vec<f64>, u64), String> {
    let pool = ShardPool::new(
        KIND,
        &ShardPoolConfig {
            shards: 1,
            ..ShardPoolConfig::default()
        },
    );
    let (tx, rx) = channel();
    let mut rtt_us = Vec::with_capacity(loads.len() / BATCH + 1);
    for chunk in loads.chunks(BATCH) {
        let items: Vec<PredictItem> = chunk.iter().map(|l| l.item).collect();
        let t0 = Instant::now();
        let reply = ReplySink::new(tx.clone());
        pool.send(
            0,
            ShardJob::Predict {
                items,
                tag: 0,
                reply,
            },
        );
        let replies = match rx.recv() {
            Ok((_, ShardReply::Predict(r))) => r,
            other => return Err(format!("shard predict answered {other:?}")),
        };
        rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let items = chunk
            .iter()
            .zip(&replies)
            .map(|(l, r)| TrainItem {
                ticket: r.ticket,
                pc: l.item.pc,
                outcome: l.outcome,
            })
            .collect();
        let reply = ReplySink::new(tx.clone());
        pool.send(
            0,
            ShardJob::Train {
                items,
                tag: 0,
                reply,
            },
        );
        match rx.recv() {
            Ok((_, ShardReply::Train { .. })) => {}
            other => return Err(format!("shard train answered {other:?}")),
        }
    }
    Ok((rtt_us, pool.shutdown().total_mispredictions()))
}

/// Median over passes of a per-pass value.
fn med(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// The tail of a pass's samples by the ten-beyond rule (`0` if none).
fn tail(samples: &[f64]) -> f64 {
    tail_percentile(samples).map_or(0.0, |(_, v)| v)
}

/// Runs the loopback serving workload.
pub fn run(cfg: &RunCfg, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let uops = cfg.uops.unwrap_or(UOPS);
    let root = tracer.open("workload", 0);
    let (gen_setup_s, generate_s, trace, loads) =
        generate_setups(BENCH, cfg.seed, uops, tracer, root, loads_of);
    drop(trace);
    let n_loads = loads.len() as u64;

    let measure = tracer.open("measure", root);
    let start = Instant::now();
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let mut mispredictions = None;
    let min_reps = if cfg.traced { 2 * MIN_REPS } else { MIN_REPS };
    while plain.len() + traced.len() < min_reps || start.elapsed().as_secs_f64() < cfg.seconds {
        let trace_this = cfg.traced && plain.len() > traced.len();
        let Some(pass) = run_pass(&loads, trace_this, &mut report, tracer, measure) else {
            report.failed += 2 * n_loads;
            break;
        };
        let first = *mispredictions.get_or_insert(pass.stats.total_mispredictions());
        check_pass(&mut report, &pass, n_loads, first);
        if !report.failures.is_empty() {
            break;
        }
        if trace_this {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
    }
    tracer.close(measure);
    tracer.close(root);
    if plain.is_empty() {
        report.failures.push("no pass completed".into());
        report.failed = report.failed.max(1);
        return report;
    }
    let mispredictions = mispredictions.unwrap_or(0);
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let setup_s = gen_setup_s + median(&all.iter().map(|p| p.setup_s).collect::<Vec<_>>());
    let items_per_s = med(&plain, |p| p.predicted as f64 / p.wall_s);
    let p50 = med(&plain, |p| percentile(&p.predict_rtt_us, 50.0));
    let p99 = med(&plain, |p| tail(&p.predict_rtt_us));
    let samples = plain[0].predict_rtt_us.len();
    let e = &mut report.e2e;
    e.insert("setup_s", setup_s);
    e.insert("throughput_per_s", items_per_s);
    e.insert("op_p50_us", p50);
    e.insert("peak_rss_mib", peak_rss_mib());

    report.line("serve_items_per_s", items_per_s, "items/s");
    report.line("serve_p50_us", p50, "us");
    let pct = tail_percentile(&plain[0].predict_rtt_us).map_or(0.0, |(p, _)| p);
    report.lines.push(format!(
        "serve_p99_us = {p99} us (p{pct} by the ten-beyond rule, {samples} samples per pass)"
    ));
    report.line("serve_mispredictions", mispredictions as f64, "count");
    report.line("passes", plain.len() as f64, "count");

    if cfg.traced {
        traced_metrics(&mut report, &plain, &traced, &loads, generate_s);
    }
    report
}

/// Per-layer metrics and the reconciliation of the traced passes.
fn traced_metrics(
    report: &mut Report,
    plain: &[Pass],
    traced: &[Pass],
    loads: &[Load],
    generate_s: f64,
) {
    let (shard_rtt, shard_mispredictions) = match shard_pass(loads) {
        Ok(v) => v,
        Err(e) => {
            report.failures.push(e);
            return;
        }
    };
    let served = traced.first().map_or(0, |p| p.stats.total_mispredictions());
    report.check(shard_mispredictions == served, || {
        format!("socket-free pass mispredicted {shard_mispredictions}, served passes {served}")
    });
    let mut codec = Codec::default();
    for p in traced {
        codec.encode.merge(&p.codec.encode);
        codec.decode.merge(&p.codec.decode);
        codec.predict_encode.merge(&p.codec.predict_encode);
        codec.predict_decode.merge(&p.codec.predict_decode);
    }
    let shard = |p: &Pass| p.stats.shards.first().copied().unwrap_or_default();
    let predict_p50 = med(traced, |p| percentile(&p.predict_rtt_us, 50.0));
    let shard_rtt_p50 = percentile(&shard_rtt, 50.0);
    let last = traced.last().map(shard).unwrap_or_default();
    let l = &mut report.layers;
    l.insert("workloads.generate_s", generate_s);
    l.insert("wire.encode_ns_per_frame", codec.encode.mean_ns());
    l.insert("wire.decode_ns_per_frame", codec.decode.mean_ns());
    l.insert("serve.predict_rtt_p50_us", predict_p50);
    l.insert(
        "serve.predict_rtt_p99_us",
        med(traced, |p| tail(&p.predict_rtt_us)),
    );
    l.insert(
        "serve.train_rtt_p50_us",
        med(traced, |p| percentile(&p.train_rtt_us, 50.0)),
    );
    l.insert(
        "serve.train_rtt_p99_us",
        med(traced, |p| tail(&p.train_rtt_us)),
    );
    l.insert(
        "serve.rtt_samples",
        med(traced, |p| p.predict_rtt_us.len() as f64),
    );
    l.insert(
        "serve.shard_service_p50_us",
        med(traced, |p| shard(p).service_p50_ns as f64 / 1e3),
    );
    l.insert(
        "serve.shard_service_p99_us",
        med(traced, |p| shard(p).service_p99_ns as f64 / 1e3),
    );
    l.insert("serve.shard_rtt_p50_us", shard_rtt_p50);
    l.insert(
        "serve.unattributed_p50_us",
        predict_p50
            - shard_rtt_p50
            - (codec.predict_encode.mean_ns() + codec.predict_decode.mean_ns()) / 1e3,
    );
    l.insert(
        "serve.jobs_per_batch",
        ratio(last.service_samples as f64, last.batches as f64),
    );
    l.insert("serve.rejected", last.rejected_full as f64);
    l.insert("serve.stale_trains", last.stale_trains as f64);
    l.insert("serve.evicted_pending", last.evicted_pending as f64);
    l.insert("serve.mispredictions", served as f64);

    // Reconcile one traced pass: client wall time against the wire codec
    // and the round trips (server, shard and loopback) it waited on.
    let n = traced.len() as f64;
    let wall = traced.iter().map(|p| p.wall_s).sum::<f64>() / n;
    let codec_s = (codec.encode.total_ns + codec.decode.total_ns) as f64 * 1e-9 / n;
    let rtt_s = traced
        .iter()
        .map(|p| p.predict_rtt_us.iter().chain(&p.train_rtt_us).sum::<f64>() * 1e-6)
        .sum::<f64>()
        / n;
    let overhead = med(traced, |p| p.wall_s) / med(plain, |p| p.wall_s) - 1.0;
    crate::reconcile(
        report,
        wall,
        &[("wire", codec_s), ("serve.round_trip", rtt_s - codec_s)],
        overhead,
    );
}
