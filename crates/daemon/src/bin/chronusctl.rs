//! `chronusctl` — CLI client for a running `chronusd`.
//!
//! ```text
//! chronusctl [--socket PATH] ping
//! chronusctl [--socket PATH] submit [--tenant T] [--priority P]
//!            [--deadline-ms MS] [--motivating | --reversal N | --instance FILE]
//! chronusctl [--socket PATH] status [ID]
//! chronusctl [--socket PATH] watch ID [--timeout-ms MS]
//! chronusctl [--socket PATH] confirm ID
//! chronusctl [--socket PATH] snapshot
//! chronusctl [--socket PATH] metrics
//! chronusctl [--socket PATH] top
//! chronusctl [--socket PATH] tail [--filter PREFIX] [--max-events N] [--follow]
//! chronusctl [--socket PATH] dump
//! chronusctl [--socket PATH] drain
//! ```

#![forbid(unsafe_code)]

use chronus_daemon::{CtlClient, Priority};
use chronus_net::codec::instance_from_str;
use chronus_net::{motivating_example, reversal_instance, UpdateInstance};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    socket: PathBuf,
    command: String,
    positional: Vec<String>,
    options: Vec<(String, String)>,
    switches: Vec<String>,
}

fn parse_args(raw: Vec<String>) -> Result<Args, String> {
    let mut socket = PathBuf::from("/tmp/chronusd.sock");
    let mut command = None;
    let mut positional = Vec::new();
    let mut options = Vec::new();
    let mut switches = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        let arg = &raw[i];
        if let Some(key) = arg.strip_prefix("--") {
            match key {
                "motivating" | "follow" => {
                    switches.push(key.to_string());
                    i += 1;
                }
                "socket" | "tenant" | "priority" | "deadline-ms" | "timeout-ms" | "reversal"
                | "instance" | "filter" | "max-events" => {
                    let value = raw
                        .get(i + 1)
                        .ok_or_else(|| format!("--{key} needs a value"))?
                        .clone();
                    if key == "socket" {
                        socket = PathBuf::from(value);
                    } else {
                        options.push((key.to_string(), value));
                    }
                    i += 2;
                }
                other => return Err(format!("unknown flag --{other}")),
            }
        } else if command.is_none() {
            command = Some(arg.clone());
            i += 1;
        } else {
            positional.push(arg.clone());
            i += 1;
        }
    }
    Ok(Args {
        socket,
        command: command.ok_or_else(|| "no command given (try --help)".to_string())?,
        positional,
        options,
        switches,
    })
}

fn option<'a>(args: &'a Args, key: &str) -> Option<&'a str> {
    args.options
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn load_instance(args: &Args) -> Result<UpdateInstance, String> {
    if let Some(path) = option(args, "instance") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        return instance_from_str(&text).map_err(|e| format!("{path}: {e}"));
    }
    if let Some(n) = option(args, "reversal") {
        let n: usize = n
            .parse()
            .map_err(|_| "--reversal needs a count".to_string())?;
        if n < 4 {
            return Err("--reversal needs at least 4 switches".to_string());
        }
        return Ok(reversal_instance(n, 2, 1));
    }
    // Default (and explicit --motivating): the paper's Fig. 1 example.
    let _ = args.switches.iter().any(|s| s == "motivating");
    Ok(motivating_example())
}

fn parse_id(args: &Args) -> Result<u64, String> {
    args.positional
        .first()
        .ok_or_else(|| format!("{} needs an update id", args.command))?
        .parse()
        .map_err(|_| "update id must be a number".to_string())
}

fn run(args: &Args) -> Result<(), String> {
    let connect = |socket: &Path| {
        CtlClient::connect(socket).map_err(|e| format!("connect {}: {e}", socket.display()))
    };
    let mut client = connect(&args.socket)?;
    match args.command.as_str() {
        "ping" => {
            client.ping().map_err(|e| e.to_string())?;
            println!("pong");
        }
        "submit" => {
            let instance = load_instance(args)?;
            let tenant = option(args, "tenant").unwrap_or("default");
            let priority = Priority::parse(option(args, "priority").unwrap_or("normal"))?;
            let deadline_ms = match option(args, "deadline-ms") {
                Some(ms) => Some(
                    ms.parse()
                        .map_err(|_| "--deadline-ms needs milliseconds".to_string())?,
                ),
                None => None,
            };
            let id = client
                .submit(tenant, priority, deadline_ms, &instance)
                .map_err(|e| e.to_string())?;
            println!("submitted id {id}");
        }
        "status" => {
            let response = match args.positional.first() {
                Some(raw) => {
                    let id: u64 = raw
                        .parse()
                        .map_err(|_| "update id must be a number".to_string())?;
                    client.status(id).map_err(|e| e.to_string())?
                }
                None => client.status_all().map_err(|e| e.to_string())?,
            };
            println!(
                "{}",
                serde_json::to_string(&response).map_err(|e| e.to_string())?
            );
        }
        "watch" => {
            let id = parse_id(args)?;
            let timeout_ms = match option(args, "timeout-ms") {
                Some(ms) => ms
                    .parse()
                    .map_err(|_| "--timeout-ms needs milliseconds".to_string())?,
                None => 10_000,
            };
            let status = client.watch(id, timeout_ms).map_err(|e| e.to_string())?;
            println!(
                "{}",
                serde_json::to_string(&status).map_err(|e| e.to_string())?
            );
        }
        "confirm" => {
            let id = parse_id(args)?;
            client.confirm(id).map_err(|e| e.to_string())?;
            println!("confirmed id {id}");
        }
        "snapshot" => {
            let live = client.snapshot().map_err(|e| e.to_string())?;
            println!("snapshot wrote {live} live record(s)");
        }
        "metrics" => {
            // Raw Prometheus text on stdout, scrape-ready.
            print!("{}", client.metrics_text().map_err(|e| e.to_string())?);
        }
        "top" => {
            let top = client.top().map_err(|e| e.to_string())?;
            println!(
                "{}",
                serde_json::to_string(&top).map_err(|e| e.to_string())?
            );
        }
        "tail" => {
            let filter = option(args, "filter");
            let max_events = match option(args, "max-events") {
                Some(n) => n
                    .parse()
                    .map_err(|_| "--max-events needs a count".to_string())?,
                None => 0,
            };
            let follow = args.switches.iter().any(|s| s == "follow");
            let received = client
                .tail(filter, max_events, follow, |event| {
                    if let Ok(line) = serde_json::to_string(event) {
                        println!("{line}");
                    }
                })
                .map_err(|e| e.to_string())?;
            eprintln!("tail: {received} event(s)");
        }
        "dump" => {
            let path = client.dump().map_err(|e| e.to_string())?;
            println!("dump written to {path}");
        }
        "drain" => {
            client.drain().map_err(|e| e.to_string())?;
            println!("daemon draining");
        }
        other => return Err(format!("unknown command `{other}`")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "chronusctl — control a running chronusd\n\n\
             commands: ping, submit, status [ID], watch ID, confirm ID,\n\
             \x20         snapshot, metrics, top, tail, dump, drain\n\
             common flags: --socket PATH (default /tmp/chronusd.sock)\n\
             submit flags: --tenant T --priority high|normal|low --deadline-ms MS\n\
             \x20            --motivating | --reversal N | --instance FILE\n\
             tail flags:   --filter PREFIX --max-events N --follow"
        );
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chronusctl: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("chronusctl: {e}");
            ExitCode::FAILURE
        }
    }
}
