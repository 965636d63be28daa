//! `mascot-router` — a consistent-hash front for a multi-node `mascotd`
//! cluster that speaks `MSRV` on both sides, with health checks and replica
//! failover ([`mascot_serve::router`]). Flags: see `usage`.

use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

use mascot_serve::router::{self, RouterConfig};

struct Args {
    addr: String,
    port_file: Option<String>,
    cfg: RouterConfig,
}

fn usage() -> &'static str {
    "usage: mascot-router [--addr HOST:PORT] --node HOST:PORT [--node HOST:PORT ...]\n\
    \x20                    [--replica HOST:PORT] [--port-file PATH]\n\
    \x20                    [--health-interval-ms N]\n\
    Routes MSRV predict/train traffic across the --node list by a hash of\n\
    the load PC. A node that fails is marked down and its slice of the PC\n\
    space fails over to --replica. --port-file writes the bound address\n\
    once the router accepts connections."
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        port_file: None,
        cfg: RouterConfig {
            nodes: Vec::new(),
            replica: None,
            health_interval: Duration::from_millis(200),
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--node" => args.cfg.nodes.push(value("--node")?),
            "--replica" => args.cfg.replica = Some(value("--replica")?),
            "--port-file" => args.port_file = Some(value("--port-file")?),
            "--health-interval-ms" => {
                let ms = value("--health-interval-ms")?;
                let ms =
                    ms.parse::<u64>().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("--health-interval-ms must be positive, got {ms:?}")
                    })?;
                args.cfg.health_interval = Duration::from_millis(ms);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.cfg.nodes.is_empty() {
        return Err("at least one --node is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mascot-router: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let bound = TcpListener::bind(&args.addr).and_then(|l| Ok((l.local_addr()?, l)));
    let (addr, listener) = match bound {
        Ok(b) => b,
        Err(e) => {
            eprintln!("mascot-router: failed to bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let replica = if args.cfg.replica.is_some() {
        " + replica"
    } else {
        ""
    };
    eprintln!(
        "mascot-router: {} nodes{replica} on {addr}",
        args.cfg.nodes.len()
    );
    // Written once the listener is registered with the poller, as mascotd
    // does: the file appearing means the router is serving.
    let on_ready = || {
        if let Some(path) = &args.port_file {
            if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
                eprintln!("mascot-router: failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    };
    if let Err(e) = router::run(listener, &args.cfg, on_ready) {
        eprintln!("mascot-router: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
