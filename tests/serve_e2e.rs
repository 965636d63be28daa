//! End-to-end loopback tests for `mascot-serve`: a real `mascotd` server on
//! an ephemeral port, real TCP clients, mixed predict/train traffic from
//! multiple threads, protocol-level rejection of malformed frames, and the
//! router in front of in-process nodes.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mascot::prediction::{
    BypassClass, LoadOutcome, MemDepPrediction, ObservedDependence, StoreDistance,
};
use mascot_predictors::{AnyPredictor, PredictorKind};
use mascot_serve::router::{self, RouterConfig};
use mascot_serve::shard::ShardPoolConfig;
use mascot_serve::wire::{
    self, Opcode, PredictItem, Request, Response, TrainItem, HEADER_LEN, MAGIC,
};
use mascot_serve::{Client, ServeConfig, Server};
use mascot_snapshot::SnapshotFile;

fn spawn_server(shards: usize) -> (String, JoinHandle<wire::StatsReport>) {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        kind: PredictorKind::Mascot,
        pool: ShardPoolConfig {
            shards,
            ..ShardPoolConfig::default()
        },
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let (addr, handle) = server.spawn();
    (addr.to_string(), handle)
}

/// Runs a router over `nodes` (and `replica`) on a background thread. The
/// health thread pings once at start and then sleeps until the router
/// stops, so a failed node is found by the request path.
fn spawn_router(nodes: &[&str], replica: Option<&str>) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address").to_string();
    let cfg = RouterConfig {
        nodes: nodes.iter().map(|n| n.to_string()).collect(),
        replica: replica.map(str::to_string),
        health_interval: Duration::from_secs(3600),
    };
    let handle =
        std::thread::spawn(move || router::run(listener, &cfg, || {}).expect("router ran"));
    (addr, handle)
}

/// Thousands of mixed predict/train requests from several client threads;
/// every ticket is trained back, and the server-side counters must account
/// for every item exactly.
#[test]
fn loopback_mixed_traffic_accounts_for_every_item() {
    const THREADS: usize = 4;
    const BATCHES: usize = 50;
    const BATCH: usize = 32;

    let (addr, handle) = spawn_server(4);
    let sent_predicts = Arc::new(AtomicU64::new(0));
    let sent_trains = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let addr = addr.clone();
            let sent_predicts = Arc::clone(&sent_predicts);
            let sent_trains = Arc::clone(&sent_trains);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for b in 0..BATCHES {
                    let items: Vec<PredictItem> = (0..BATCH)
                        .map(|i| PredictItem {
                            pc: 0x1000 + ((t * BATCHES * BATCH + b * BATCH + i) as u64 % 509) * 4,
                            store_seq: (b * BATCH + i) as u64,
                        })
                        .collect();
                    let replies = client.predict(items.clone()).expect("predict");
                    assert_eq!(replies.len(), items.len());
                    sent_predicts.fetch_add(items.len() as u64, Ordering::Relaxed);

                    let trains: Vec<TrainItem> = items
                        .iter()
                        .zip(&replies)
                        .map(|(item, r)| TrainItem {
                            ticket: r.ticket,
                            pc: item.pc,
                            outcome: LoadOutcome::independent(),
                        })
                        .collect();
                    let (applied, stale) = client.train(trains).expect("train");
                    assert_eq!(applied as usize, BATCH, "every ticket fresh");
                    assert_eq!(stale, 0);
                    sent_trains.fetch_add(BATCH as u64, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    let predicts = sent_predicts.load(Ordering::Relaxed);
    let trains = sent_trains.load(Ordering::Relaxed);
    assert_eq!(predicts, (THREADS * BATCHES * BATCH) as u64);

    let mut control = Client::connect(&addr).expect("control connect");
    let stats = control.stats().expect("stats");
    assert_eq!(stats.shards.len(), 4);
    assert_eq!(stats.total_predicts(), predicts);
    assert_eq!(stats.total_trains(), trains);
    assert_eq!(stats.total_requests(), predicts + trains);
    assert_eq!(stats.total_rejected(), 0);
    // Every train found its pending ticket.
    assert_eq!(stats.shards.iter().map(|s| s.stale_trains).sum::<u64>(), 0);
    // Work spread over all shards, not funnelled into one.
    for s in &stats.shards {
        assert!(s.requests > 0, "an idle shard means broken routing");
    }

    let served = control.shutdown().expect("shutdown");
    assert_eq!(served, predicts + trains);

    // The drained report must agree with the last live snapshot: shutdown
    // may not lose in-flight work.
    let drained = handle.join().expect("server thread");
    assert_eq!(drained.total_requests(), stats.total_requests());
    assert_eq!(drained.total_predicts(), stats.total_predicts());
    assert_eq!(drained.total_trains(), stats.total_trains());
}

/// PCs warmed and fingerprinted by the snapshot e2e test.
const SNAP_PCS: u64 = 64;
const SNAP_PC_BASE: u64 = 0x2000;

/// Warms the server with deterministic predict/train traffic.
fn warm_over_wire(client: &mut Client, rounds: usize) {
    for round in 0..rounds {
        let items: Vec<PredictItem> = (0..SNAP_PCS)
            .map(|i| PredictItem {
                pc: SNAP_PC_BASE + i * 4,
                store_seq: (round as u64) * SNAP_PCS + i + 8,
            })
            .collect();
        let replies = client.predict(items.clone()).expect("predict");
        let trains: Vec<TrainItem> = items
            .iter()
            .zip(&replies)
            .map(|(item, r)| TrainItem {
                ticket: r.ticket,
                pc: item.pc,
                outcome: LoadOutcome::dependent(ObservedDependence {
                    distance: StoreDistance::new(3).expect("in range"),
                    class: BypassClass::DirectBypass,
                    store_pc: item.pc.wrapping_sub(8),
                    branches_between: 0,
                }),
            })
            .collect();
        client.train(trains).expect("train");
    }
}

/// What the server predicts for every warmed PC at a fixed store sequence.
fn wire_fingerprint(client: &mut Client) -> Vec<MemDepPrediction> {
    let items: Vec<PredictItem> = (0..SNAP_PCS)
        .map(|i| PredictItem {
            pc: SNAP_PC_BASE + i * 4,
            store_seq: 1 << 40,
        })
        .collect();
    client
        .predict(items)
        .expect("fingerprint predict")
        .iter()
        .map(|r| r.prediction)
        .collect()
}

/// A snapshot taken over the wire from a warmed 4-shard server restores
/// into a cold 3-shard server (union reshard) with every prediction
/// intact, and the warm counters become visible through `Stats`.
#[test]
fn wire_snapshot_restores_across_shard_counts() {
    let (addr_a, handle_a) = spawn_server(4);
    let mut client = Client::connect(&addr_a).expect("connect");
    warm_over_wire(&mut client, 30);
    let before = wire_fingerprint(&mut client);
    let snap = client.snapshot().expect("snapshot");
    // The blob is a valid container with one payload per shard.
    let file = SnapshotFile::decode(&snap).expect("well-formed container");
    assert_eq!(file.kind_label, PredictorKind::Mascot.label());
    assert_eq!(file.shards.len(), 4);
    client.shutdown().expect("shutdown");
    handle_a.join().expect("server thread");

    let (addr_b, handle_b) = spawn_server(3);
    let mut client = Client::connect(&addr_b).expect("connect");
    let restored = client.restore(snap).expect("restore");
    assert!(restored > 0, "a warmed snapshot restores entries");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.total_restored(), restored);
    for shard in &stats.shards {
        assert!(shard.restored_entries > 0, "every shard warm-started");
    }
    assert_eq!(wire_fingerprint(&mut client), before);
    client.shutdown().expect("shutdown");
    handle_b.join().expect("server thread");
}

/// Restore fails closed over the wire: garbage bytes and a kind-mismatched
/// container are both rejected with an `Error`, the connection stays
/// usable, and the server's state is untouched.
#[test]
fn wire_restore_fails_closed() {
    let (addr, handle) = spawn_server(2);
    let mut client = Client::connect(&addr).expect("connect");
    warm_over_wire(&mut client, 5);
    let before = wire_fingerprint(&mut client);

    assert!(client.restore(vec![0xde, 0xad, 0xbe, 0xef]).is_err());

    // A well-formed container from the wrong predictor kind.
    let phast = PredictorKind::Phast.build();
    let wrong_kind = SnapshotFile {
        kind_label: PredictorKind::Phast.label().into_owned(),
        created_unix_s: 0,
        restarts: 0,
        shards: vec![AnyPredictor::snapshot_bytes(&phast); 2],
    };
    assert!(client.restore(wrong_kind.encode()).is_err());

    // Same connection, state unchanged: fail-closed means nothing was
    // applied before the rejection.
    assert_eq!(wire_fingerprint(&mut client), before);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.total_restored(), 0);
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// The event-loop stressor: 256 concurrent connections, each delivering
/// two pipelined predict frames split at a per-connection byte offset —
/// collectively covering every header and body boundary of the two-frame
/// stream, including mid-header and the frame seam — with a pause between
/// the halves so the server must hold partial frames across readiness
/// events. Every request is answered, in order, with exact server-side
/// accounting: nothing lost, nothing rejected.
#[test]
fn concurrent_partial_writes_lose_nothing() {
    const CONNS: usize = 256;
    const BATCH: usize = 3;

    let (addr, handle) = spawn_server(2);

    // Each connection's byte stream: two predict frames, back to back.
    let mut streams: Vec<(TcpStream, Vec<u8>, usize)> = (0..CONNS)
        .map(|i| {
            let frame_of = |k: usize| {
                let items: Vec<PredictItem> = (0..BATCH)
                    .map(|j| PredictItem {
                        pc: 0x9000 + ((i * 7 + j) as u64 % 251) * 4,
                        store_seq: (i * 2 + k) as u64,
                    })
                    .collect();
                wire::Request::Predict(items)
                    .encode_frame()
                    .expect("encodable batch")
            };
            let mut bytes = frame_of(0);
            bytes.extend_from_slice(&frame_of(1));
            let split = (i % (bytes.len() - 1)) + 1;
            let stream = TcpStream::connect(&addr).expect("connect");
            (stream, bytes, split)
        })
        .collect();

    // Phase 1: first halves only, across all connections.
    for (stream, bytes, split) in &mut streams {
        stream.write_all(&bytes[..*split]).expect("first half");
        stream.flush().expect("flush");
    }
    // The event loop must park on the incomplete frames without
    // responding, closing, or confusing them across connections.
    std::thread::sleep(std::time::Duration::from_millis(30));
    // Phase 2: the remainders.
    for (stream, bytes, split) in &mut streams {
        stream.write_all(&bytes[*split..]).expect("second half");
        stream.flush().expect("flush");
    }

    // Exactly two in-order Predict responses per connection.
    for (stream, _, _) in &mut streams {
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("set timeout");
        for _ in 0..2 {
            let (code, payload) = wire::read_frame(stream)
                .expect("well-framed reply")
                .expect("reply before close");
            let resp = Response::decode(Opcode::Predict, code, &payload).expect("decode");
            let Response::Predict(replies) = resp else {
                panic!("expected predictions, got {resp:?}");
            };
            assert_eq!(replies.len(), BATCH);
        }
    }
    drop(streams);

    let mut control = Client::connect(&addr).expect("control connect");
    let stats = control.stats().expect("stats");
    assert_eq!(
        stats.total_predicts(),
        (CONNS * 2 * BATCH) as u64,
        "every item answered exactly once"
    );
    assert_eq!(stats.total_rejected(), 0, "mascotd never rejects a request");
    control.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// A frame with the wrong magic gets an `Error` response and the
/// connection is dropped; the server keeps serving other clients.
#[test]
fn bad_magic_is_rejected_without_killing_the_server() {
    let (addr, handle) = spawn_server(2);

    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    let mut frame = vec![0u8; HEADER_LEN];
    frame[..4].copy_from_slice(b"XSRV");
    raw.write_all(&frame).expect("write bad magic");
    let (code, payload) = wire::read_frame(&mut raw)
        .expect("error reply is well-framed")
        .expect("reply before close");
    let resp = Response::decode(Opcode::Predict, code, &payload).expect("decode");
    let Response::Error(msg) = resp else {
        panic!("expected Error, got {resp:?}");
    };
    assert!(msg.contains("magic"), "unhelpful error: {msg}");
    // The stream is unrecoverable: the server hangs up after reporting.
    assert!(matches!(wire::read_frame(&mut raw), Ok(None)));

    // A fresh, well-behaved client still gets service.
    let mut client = Client::connect(&addr).expect("connect after abuse");
    let replies = client
        .predict(vec![PredictItem {
            pc: 0x40,
            store_seq: 1,
        }])
        .expect("predict");
    assert_eq!(replies.len(), 1);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// A frame with an unknown protocol version is rejected the same way.
#[test]
fn bad_version_is_rejected() {
    let (addr, handle) = spawn_server(2);

    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    let mut frame = vec![0u8; HEADER_LEN];
    frame[..4].copy_from_slice(&MAGIC);
    frame[4] = 99; // future version
    raw.write_all(&frame).expect("write bad version");
    let (code, payload) = wire::read_frame(&mut raw)
        .expect("error reply is well-framed")
        .expect("reply before close");
    let resp = Response::decode(Opcode::Predict, code, &payload).expect("decode");
    let Response::Error(msg) = resp else {
        panic!("expected Error, got {resp:?}");
    };
    assert!(msg.contains("version"), "unhelpful error: {msg}");
    assert!(matches!(wire::read_frame(&mut raw), Ok(None)));

    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// A request header carrying a response code is rejected at the header:
/// code 0 (`Ok`) claiming 60 MiB gets an `Error` at once, with no payload
/// sent, and the connection is dropped. The server keeps serving.
#[test]
fn response_code_in_a_request_header_is_rejected() {
    let (addr, handle) = spawn_server(2);

    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    let mut frame = vec![0u8; HEADER_LEN];
    frame[..4].copy_from_slice(&MAGIC);
    frame[4] = wire::VERSION;
    frame[5] = 0;
    frame[6..10].copy_from_slice(&(60u32 << 20).to_le_bytes());
    raw.write_all(&frame).expect("write header");
    // A server that waits for the payload instead never answers.
    raw.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let (code, payload) = wire::read_frame(&mut raw)
        .expect("error reply is well-framed")
        .expect("reply before close");
    let resp = Response::decode(Opcode::Predict, code, &payload).expect("decode");
    let Response::Error(msg) = resp else {
        panic!("expected Error, got {resp:?}");
    };
    assert!(msg.contains("opcode 0"), "unhelpful error: {msg}");
    assert!(matches!(wire::read_frame(&mut raw), Ok(None)));

    let mut client = Client::connect(&addr).expect("connect after abuse");
    let replies = client
        .predict(vec![PredictItem {
            pc: 0x40,
            store_seq: 1,
        }])
        .expect("predict");
    assert_eq!(replies.len(), 1);
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// A well-framed but malformed payload answers `Error` and the connection
/// stays usable — the stream is still in sync.
#[test]
fn malformed_payload_keeps_the_connection_alive() {
    let (addr, handle) = spawn_server(2);

    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    // Predict frame claiming 2 items but carrying bytes for none.
    wire::write_frame(&mut raw, Opcode::Predict as u8, &2u16.to_le_bytes())
        .expect("write short batch");
    let (code, payload) = wire::read_frame(&mut raw)
        .expect("error reply is well-framed")
        .expect("reply before close");
    let resp = Response::decode(Opcode::Predict, code, &payload).expect("decode");
    assert!(matches!(resp, Response::Error(_)), "got {resp:?}");

    // Same socket, valid request: still served.
    let req = wire::Request::Predict(vec![PredictItem {
        pc: 0x80,
        store_seq: 7,
    }]);
    raw.write_all(&req.encode_frame().expect("encodable batch"))
        .expect("write valid");
    let (code, payload) = wire::read_frame(&mut raw)
        .expect("well-framed")
        .expect("reply");
    let resp = Response::decode(Opcode::Predict, code, &payload).expect("decode");
    assert!(matches!(resp, Response::Predict(_)), "got {resp:?}");

    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
}

/// Threads of this process.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// `mascotd` is one thread: a 4-shard server adds exactly its event loop,
/// and serving traffic spawns nothing more. The count runs in a child
/// process (this test binary, filtered to `thread_count_probe`), where no
/// concurrently running test can add threads to `/proc/self/task`.
#[test]
fn server_adds_exactly_one_thread() {
    run_probe("thread_count_probe");
}

/// Runs the ignored test `probe` alone in a child process.
fn run_probe(probe: &str) {
    let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args([probe, "--exact", "--ignored", "--test-threads=1"])
        .output()
        .expect("run the probe");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains(&format!("test {probe} ... ok")),
        "probe failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
#[ignore = "run in a child process by server_adds_exactly_one_thread"]
fn thread_count_probe() {
    let before = thread_count();
    let (addr, handle) = spawn_server(4);
    let spawned = thread_count() - before;
    let mut client = Client::connect(&addr).expect("connect");
    predict_then_train(&mut client, 0);
    let serving = thread_count() - before;
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    assert_eq!(
        (spawned, serving),
        (1, 1),
        "a server must add its event loop and nothing else"
    );
}

/// One pipelined request stream: `BATCHES` predict frames, each followed by
/// the train frame for the batch before it, then `Shutdown`. Tickets are
/// per-shard counters from 0, so the stream can quote them before reading
/// a single response. Returns the bytes and the opcode of every frame.
fn pipelined_stream(shards: usize) -> (Vec<u8>, Vec<Opcode>) {
    const BATCHES: u64 = 200;
    const BATCH: u64 = 48;
    let mut next_ticket = vec![0u32; shards];
    let (mut bytes, mut ops) = (Vec::new(), Vec::new());
    let mut owed: Vec<TrainItem> = Vec::new();
    for b in 0..BATCHES {
        let items: Vec<PredictItem> = (0..BATCH)
            .map(|i| {
                let k = b * BATCH + i;
                PredictItem {
                    pc: 0x4000 + (k * 7 % 389) * 4,
                    store_seq: k,
                }
            })
            .collect();
        let trains: Vec<TrainItem> = items
            .iter()
            .map(|item| {
                let shard = mascot_serve::shard::shard_of(item.pc, shards);
                let ticket = next_ticket[shard];
                next_ticket[shard] += 1;
                let outcome = if item.pc % 3 == 0 {
                    LoadOutcome::dependent(ObservedDependence {
                        distance: StoreDistance::new(1 + (item.store_seq % 5) as u32)
                            .expect("in window"),
                        class: BypassClass::DirectBypass,
                        store_pc: item.pc + 0x100,
                        branches_between: 0,
                    })
                } else {
                    LoadOutcome::independent()
                };
                TrainItem {
                    ticket,
                    pc: item.pc,
                    outcome,
                }
            })
            .collect();
        let mut push = |req: wire::Request, op| {
            bytes.extend(req.encode_frame().expect("encodable batch"));
            ops.push(op);
        };
        push(wire::Request::Predict(items), Opcode::Predict);
        if !owed.is_empty() {
            push(
                wire::Request::Train(std::mem::take(&mut owed)),
                Opcode::Train,
            );
        }
        owed = trains;
    }
    for (req, op) in [
        (wire::Request::Train(owed), Opcode::Train),
        (wire::Request::Shutdown, Opcode::Shutdown),
    ] {
        bytes.extend(req.encode_frame().expect("encodable batch"));
        ops.push(op);
    }
    (bytes, ops)
}

/// Writes `stream` to a fresh server over one connection and returns every
/// response byte until the server hangs up after `Shutdown`.
fn serve_stream(stream: &[u8], shards: usize) -> Vec<u8> {
    let (addr, handle) = spawn_server(shards);
    let responses = exchange(&addr, stream);
    handle.join().expect("server thread");
    responses
}

/// Writes `stream` to `addr` over one connection (from a second thread, so
/// neither side waits on the other's buffers) and returns every response
/// byte until the peer hangs up.
fn exchange(addr: &str, stream: &[u8]) -> Vec<u8> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("set timeout");
    let mut writer = conn.try_clone().expect("clone stream");
    let bytes = stream.to_vec();
    let sent = std::thread::spawn(move || writer.write_all(&bytes));
    let mut responses = Vec::new();
    std::io::Read::read_to_end(&mut conn, &mut responses).expect("responses until hang-up");
    sent.join().expect("writer thread").expect("write stream");
    responses
}

/// Pipelined responses are a function of the request stream alone: two
/// fresh 4-shard servers fed the same bytes answer with the same bytes,
/// and every train finds its ticket.
#[test]
fn pipelined_responses_are_byte_identical_across_servers() {
    let (stream, ops) = pipelined_stream(4);
    let first = serve_stream(&stream, 4);
    let second = serve_stream(&stream, 4);
    assert!(first == second, "response streams differ");

    let mut rd = std::io::Cursor::new(&first);
    for op in ops {
        let (code, payload) = wire::read_frame(&mut rd)
            .expect("well-framed")
            .expect("one response per request");
        match Response::decode(op, code, &payload).expect("decode") {
            Response::Predict(replies) => assert_eq!(replies.len(), 48),
            Response::Train { applied, stale } => {
                assert_eq!((applied, stale), (48, 0), "every ticket fresh");
            }
            Response::Shutdown { .. } => {}
            other => panic!("{op:?} answered {other:?}"),
        }
    }
    assert!(
        matches!(wire::read_frame(&mut rd), Ok(None)),
        "no extra responses"
    );
}

/// The served bytes themselves are pinned, not only their equality across
/// servers: a change to the event loop, the routing or the response
/// encoder that alters a single response byte fails here. (FNV-1a of the
/// whole response stream, its length) for 1 and 4 shards.
#[test]
fn pipelined_responses_are_frozen() {
    let frozen: [(usize, u64, usize); 2] = [
        (1, 0xe35e_d9e2_749d_5155, 63_618),
        (4, 0xe85c_8d89_2e62_efa4, 63_618),
    ];
    for (shards, digest, len) in frozen {
        let responses = serve_stream(&pipelined_stream(shards).0, shards);
        assert_eq!(
            (mascot_snapshot::fnv1a64(&responses), responses.len()),
            (digest, len),
            "{shards}-shard pipelined responses drifted"
        );
    }
}

/// A 1-node router is transparent: fed the same pipelined stream as a
/// direct server, it answers with the same bytes, `Shutdown`'s served
/// count (summed over the broadcast) included.
#[test]
fn one_node_router_answers_like_a_direct_server() {
    let (stream, _) = pipelined_stream(2);
    let direct = serve_stream(&stream, 2);

    let (node, node_handle) = spawn_server(2);
    let (addr, router_handle) = spawn_router(&[&node], None);
    let routed = exchange(&addr, &stream);
    router_handle.join().expect("router thread");
    node_handle.join().expect("node thread");
    assert!(routed == direct, "routed responses differ from direct ones");
}

/// The bytes a 2-node router answers are pinned: each of `BATCHES` predict
/// frames is followed by the train frame quoting its replies' tickets, then
/// `Shutdown`. A change to the router's split, its gather or the nodes that
/// alters a single response byte fails here. (FNV-1a of every response
/// frame as read off the wire, their total length.)
#[test]
fn two_node_router_responses_are_frozen() {
    const BATCHES: u64 = 60;
    const BATCH: u64 = 48;
    let (a, a_handle) = spawn_server(2);
    let (b, b_handle) = spawn_server(2);
    let (addr, router_handle) = spawn_router(&[&a, &b], None);
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set timeout");
    let mut responses = Vec::new();
    let mut round_trip = |req: Request| {
        conn.write_all(&req.encode_frame().expect("encodable"))
            .expect("send");
        let (code, payload) = wire::read_frame(&mut conn)
            .expect("well-framed")
            .expect("one response per request");
        responses.extend(wire::encode_frame(code, &payload));
        Response::decode(req.opcode(), code, &payload).expect("decode")
    };
    for b in 0..BATCHES {
        let items: Vec<PredictItem> = (0..BATCH)
            .map(|i| {
                let k = b * BATCH + i;
                PredictItem {
                    pc: 0x4000 + (k * 7 % 389) * 4,
                    store_seq: k,
                }
            })
            .collect();
        let Response::Predict(replies) = round_trip(Request::Predict(items.clone())) else {
            panic!("predict {b} not answered");
        };
        let trains = items
            .iter()
            .zip(&replies)
            .map(|(item, r)| TrainItem {
                ticket: r.ticket,
                pc: item.pc,
                outcome: if item.pc % 3 == 0 {
                    LoadOutcome::dependent(ObservedDependence {
                        distance: StoreDistance::new(1 + (item.store_seq % 5) as u32)
                            .expect("in window"),
                        class: BypassClass::DirectBypass,
                        store_pc: item.pc + 0x100,
                        branches_between: 0,
                    })
                } else {
                    LoadOutcome::independent()
                },
            })
            .collect();
        match round_trip(Request::Train(trains)) {
            Response::Train { applied, stale } => assert_eq!((applied, stale), (48, 0)),
            other => panic!("train {b} answered {other:?}"),
        }
    }
    round_trip(Request::Shutdown);
    router_handle.join().expect("router thread");
    for handle in [a_handle, b_handle] {
        handle.join().expect("node thread");
    }
    assert_eq!(
        (mascot_snapshot::fnv1a64(&responses), responses.len()),
        (0xacfb_4d5e_245f_147d, 19_098),
        "2-node router responses drifted"
    );
}

/// One predict frame of 64 loads and the train frame answering it, through
/// `client`. Panics on anything but a full answer with every ticket fresh.
fn predict_then_train(client: &mut Client, base: u64) {
    let items: Vec<PredictItem> = (0..64u64)
        .map(|i| PredictItem {
            pc: 0x9000 + (base * 64 + i) * 4,
            store_seq: base * 64 + i,
        })
        .collect();
    let replies = match client.request(&Request::Predict(items.clone())) {
        Ok(Response::Predict(r)) if r.len() == items.len() => r,
        other => panic!("predict {base} answered {other:?}"),
    };
    let trains = items
        .iter()
        .zip(&replies)
        .map(|(item, r)| TrainItem {
            ticket: r.ticket,
            pc: item.pc,
            outcome: LoadOutcome::independent(),
        })
        .collect();
    match client.request(&Request::Train(trains)) {
        Ok(Response::Train { applied, stale }) => assert_eq!((applied, stale), (64, 0)),
        other => panic!("train {base} answered {other:?}"),
    }
}

/// Failover loses nothing: one of two primaries shuts down mid-stream,
/// every later frame is still answered in full, and the replica's
/// pseudo-shard shows the redirected traffic. The health thread stays
/// asleep, so only a failed request can have redirected it.
#[test]
fn router_failover_loses_no_frame() {
    let (a, a_handle) = spawn_server(2);
    let (b, b_handle) = spawn_server(2);
    let (replica, replica_handle) = spawn_server(2);
    let (addr, router_handle) = spawn_router(&[&a, &b], Some(&replica));
    let mut client = Client::connect(&addr).expect("connect");
    for base in 0..20 {
        predict_then_train(&mut client, base);
    }
    Client::connect(&b)
        .expect("connect to node b")
        .shutdown()
        .expect("shut node b down");
    b_handle.join().expect("node b thread");
    for base in 20..40 {
        predict_then_train(&mut client, base);
    }
    let stats = client.stats().expect("router stats");
    assert_eq!(stats.shards.len(), 3, "one pseudo-shard per backend");
    assert!(
        stats.shards[2].requests > 0,
        "the replica served the failed node's slice: {stats:?}"
    );
    client.shutdown().expect("shutdown");
    router_handle.join().expect("router thread");
    for handle in [a_handle, replica_handle] {
        handle.join().expect("node thread");
    }
}

/// The router runs on the shared event loop: with 8 client connections
/// open and served, it adds its loop and its health checker and nothing
/// else.
#[test]
fn router_adds_exactly_two_threads() {
    run_probe("router_thread_count_probe");
}

#[test]
#[ignore = "run in a child process by router_adds_exactly_two_threads"]
fn router_thread_count_probe() {
    let (a, a_handle) = spawn_server(2);
    let (b, b_handle) = spawn_server(2);
    let before = thread_count();
    let (addr, router_handle) = spawn_router(&[&a, &b], None);
    let mut clients: Vec<Client> = (0..8)
        .map(|_| Client::connect(&addr).expect("connect"))
        .collect();
    for (base, client) in clients.iter_mut().enumerate() {
        predict_then_train(client, base as u64);
    }
    let serving = thread_count() - before;
    clients[0].shutdown().expect("shutdown");
    drop(clients);
    router_handle.join().expect("router thread");
    for handle in [a_handle, b_handle] {
        handle.join().expect("node thread");
    }
    assert_eq!(
        serving, 2,
        "a router must add its loop and health checker only"
    );
}
