//! `mascotd` — the sharded MASCOT prediction server.
//!
//! ```text
//! mascotd [--addr HOST:PORT] [--predictor KIND] [--shards N]
//!         [--replay TRACE] [--audit] [--port-file PATH]
//!         [--snapshot-dir DIR]
//! ```
//!
//! `--replay` warms every shard by replaying a trace as training traffic
//! before the server starts accepting connections. The argument is either
//! a path to an `.mtrc` file (see `mascot_sim::codec`) or the name of a
//! built-in workload profile (e.g. `perlbench2`), which is generated on
//! the fly.
//!
//! `--audit` (requires `--replay`) cross-checks the replay end to end: the
//! trace must validate, its dependence annotations must agree with an
//! independent re-derivation (`mascot_audit::renormalize`), and after the
//! replay every load must be accounted for (`applied + stale == loads`).
//! Any mismatch is fatal before the server accepts a single connection.
//! Audit mode also runs the shard pool with `strict_tickets`: a
//! pending-table eviction (an in-flight prediction recycled before its
//! train arrived) panics the offending `Predict` — and with it the server
//! — instead of counting an `evicted_pending` statistic, so an audited run
//! cannot silently train on a diverged stream (DESIGN.md §12).
//!
//! The server is one thread: the event loop runs every shard's work to
//! completion itself (DESIGN.md §11), so `--shards` partitions predictor
//! state without adding threads.
//!
//! `--port-file` writes the bound address (one line) once the listener is
//! registered with the event loop's poller — i.e. once the server is
//! actually accepting — so scripts can bind port 0, poll for the file, and
//! connect immediately.
//!
//! `--snapshot-dir DIR` makes the predictor state durable across restarts:
//! on boot, `DIR/mascot.snap` (when present) is decoded fail-closed and
//! every shard warm-starts from it — resharding through a union merge when
//! the saved shard count differs from `--shards` (DESIGN.md §10) — and on
//! graceful shutdown the final state of every shard is checkpointed back
//! atomically (write to a temp file, fsync, rename, fsync the directory),
//! so a crash mid-checkpoint leaves the previous snapshot intact.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mascot_predictors::{AnyPredictor, PredictorKind};
use mascot_serve::{predictors_from_snapshot, replay_trace, unix_now_s, ServeConfig, Server};
use mascot_sim::uop::Trace;
use mascot_snapshot::SnapshotFile;

/// Snapshot file name inside `--snapshot-dir`.
const SNAP_FILE: &str = "mascot.snap";

/// Uops generated when `--replay` names a workload profile.
const REPLAY_GEN_UOPS: usize = 150_000;
/// Seed for generated replay traces.
const REPLAY_GEN_SEED: u64 = 2025;

struct Args {
    cfg: ServeConfig,
    replay: Option<String>,
    audit: bool,
    port_file: Option<String>,
    snapshot_dir: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: mascotd [--addr HOST:PORT] [--predictor KIND] [--shards N]\n\
    \x20              [--replay TRACE.mtrc|WORKLOAD] [--audit] [--port-file PATH]\n\
    \x20              [--snapshot-dir DIR]\n\
    KIND is a predictor label (default: mascot); see `mascot-loadgen --help`.\n\
    --audit validates the replay trace and its accounting (requires --replay)\n\
    \x20       and makes pending-ticket evictions a hard error (strict_tickets).\n\
    --snapshot-dir restores DIR/mascot.snap on boot (when present) and\n\
    checkpoints the final predictor state there on graceful shutdown."
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: ServeConfig::default(),
        replay: None,
        audit: false,
        port_file: None,
        snapshot_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.cfg.addr = value("--addr")?,
            "--predictor" => {
                args.cfg.kind = value("--predictor")?
                    .parse::<PredictorKind>()
                    .map_err(|e| e.to_string())?;
            }
            "--shards" => {
                args.cfg.pool.shards = parse_positive(&value("--shards")?, "--shards")?;
            }
            "--replay" => args.replay = Some(value("--replay")?),
            "--audit" => args.audit = true,
            "--port-file" => args.port_file = Some(value("--port-file")?),
            "--snapshot-dir" => args.snapshot_dir = Some(PathBuf::from(value("--snapshot-dir")?)),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.audit && args.replay.is_none() {
        return Err("--audit requires --replay".to_string());
    }
    // Audit runs refuse to silently drop in-flight predictions: a
    // pending-table eviction becomes a fatal error instead of a
    // stale-train statistic.
    args.cfg.pool.strict_tickets = args.audit;
    Ok(args)
}

fn parse_positive(s: &str, name: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{name} must be a positive integer, got {s:?}"))
}

/// Resolves `--replay`: a readable `.mtrc` file wins; otherwise the name
/// of a built-in workload profile.
fn load_replay_trace(spec_str: &str) -> Result<Trace, String> {
    match std::fs::read(spec_str) {
        Ok(bytes) => mascot_sim::codec::decode(&bytes)
            .map_err(|e| format!("failed to decode {spec_str}: {e}")),
        Err(read_err) => match mascot_workloads::spec::profile(spec_str) {
            Some(profile) => Ok(mascot_workloads::generator::generate(
                &profile,
                REPLAY_GEN_SEED,
                REPLAY_GEN_UOPS,
            )),
            None => Err(format!(
                "--replay {spec_str:?} is neither a readable trace ({read_err}) \
                 nor a known workload profile"
            )),
        },
    }
}

/// The boot-time warm start, when `--snapshot-dir` holds a snapshot:
/// decoded fail-closed, kind-checked, and resharded onto the configured
/// shard count. Returns the per-shard predictors plus the observability
/// numbers (snapshot age, restart generation).
struct WarmStart {
    predictors: Vec<AnyPredictor>,
    snapshot_age_s: u64,
    restarts: u64,
}

/// Loads and validates `DIR/mascot.snap`. `Ok(None)` when the file does not
/// exist (cold start); `Err` when it exists but is unusable — a corrupt or
/// mismatched snapshot must abort the boot, never silently start cold.
fn load_warm_start(dir: &Path, cfg: &ServeConfig) -> Result<Option<WarmStart>, String> {
    let path = dir.join(SNAP_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let file =
        SnapshotFile::decode(&bytes).map_err(|e| format!("{} is corrupt: {e}", path.display()))?;
    let expected = cfg.kind.label();
    if file.kind_label != expected {
        return Err(format!(
            "{} holds {:?} state but this server runs {:?}",
            path.display(),
            file.kind_label,
            expected
        ));
    }
    let predictors = predictors_from_snapshot(&file.shards, cfg.pool.shards)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Some(WarmStart {
        predictors,
        snapshot_age_s: unix_now_s().saturating_sub(file.created_unix_s),
        restarts: file.restarts + 1,
    }))
}

/// Writes the snapshot durably: temp file in the same directory, fsync,
/// rename over the final name, fsync the directory. A crash at any point
/// leaves either the old snapshot or the new one, never a torn file.
fn write_snapshot_atomic(dir: &Path, bytes: &[u8]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{SNAP_FILE}.tmp"));
    let path = dir.join(SNAP_FILE);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mascotd: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let warm = match args.snapshot_dir.as_deref() {
        Some(dir) => match load_warm_start(dir, &args.cfg) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("mascotd: snapshot restore failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let mut server = match Server::bind_with(&args.cfg, warm.as_ref().map(|w| w.predictors.clone()))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mascotd: failed to bind {}: {e}", args.cfg.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    eprintln!(
        "mascotd: {} x{} shards on {addr}",
        args.cfg.kind.label(),
        args.cfg.pool.shards
    );

    if let Some(w) = &warm {
        server.pool().set_warm_start(w.snapshot_age_s, w.restarts);
        eprintln!(
            "mascotd: warm start: restored_entries={} snapshot_age_s={} restarts={}",
            server.pool().stats_report().total_restored(),
            w.snapshot_age_s,
            w.restarts
        );
    }

    if let Some(spec_str) = &args.replay {
        let trace = match load_replay_trace(spec_str) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("mascotd: {e}");
                return ExitCode::FAILURE;
            }
        };
        if args.audit {
            if let Err(e) = trace.validate() {
                eprintln!("mascotd: audit: replay trace is invalid: {e}");
                return ExitCode::FAILURE;
            }
            // The annotations must match an independent re-derivation from
            // the trace's own addresses (same check the shrinker relies on).
            let renorm = mascot_audit::renormalize(&trace);
            if renorm.uops != trace.uops {
                eprintln!(
                    "mascotd: audit: replay trace dependence annotations disagree \
                     with re-derivation (corrupt or stale .mtrc?)"
                );
                return ExitCode::FAILURE;
            }
        }
        let report = replay_trace(server.pool(), &trace);
        eprintln!(
            "mascotd: replayed {} uops ({} loads, {} trained, {} stale) in {} segments",
            report.uops, report.loads, report.applied, report.stale, report.segments
        );
        if args.audit && report.applied + report.stale != report.loads {
            eprintln!(
                "mascotd: audit: replay accounting broken: {} applied + {} stale != {} loads",
                report.applied, report.stale, report.loads
            );
            return ExitCode::FAILURE;
        }
    }

    // Written only once the listener is registered with the poller (and
    // replay warm-up is done): the file appearing means the event loop is
    // actually accepting, not merely bound — a poll-for-the-file script
    // can connect the instant it reads the address.
    if let Some(path) = args.port_file.clone() {
        server.set_on_ready(Box::new(move || {
            if let Err(e) = std::fs::write(&path, format!("{addr}\n")) {
                eprintln!("mascotd: failed to write {path}: {e}");
                std::process::exit(1);
            }
        }));
    }

    let (stats, payloads) = server.run_collecting(args.snapshot_dir.is_some());
    eprintln!(
        "mascotd: drained; {} requests ({} predicts, {} trains, {} stale, {} rejected)",
        stats.total_requests(),
        stats.total_predicts(),
        stats.total_trains(),
        stats.shards.iter().map(|s| s.stale_trains).sum::<u64>(),
        stats.total_rejected(),
    );

    if let Some(dir) = &args.snapshot_dir {
        // The restart generation survives the run; a wire-level Restore
        // overwrites it.
        let file = SnapshotFile {
            kind_label: args.cfg.kind.label().into_owned(),
            created_unix_s: unix_now_s(),
            restarts: stats.shards[0].restarts,
            shards: payloads,
        };
        match write_snapshot_atomic(dir, &file.encode()) {
            Ok(path) => eprintln!(
                "mascotd: checkpointed {} shards to {}",
                file.shards.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("mascotd: checkpoint failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
