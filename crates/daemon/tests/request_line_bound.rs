//! A request line has a length bound: bytes without a newline are
//! answered and hung up on instead of growing the connection's buffer,
//! and the bound sits far above the largest line a real client sends.

use chronus_daemon::server::MAX_REQUEST_LINE;
use chronus_daemon::{run_server, CtlClient, Daemon, DaemonConfig, Priority};
use chronus_net::topology::{fat_tree, LinkParams};
use chronus_net::{Flow, FlowId, Path as FlowPath, UpdateInstance};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chronusd-line-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Connects with retries while the server thread binds the socket.
fn connect(socket: &Path) -> CtlClient {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match CtlClient::connect(socket) {
            Ok(client) => return client,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("connect {}: {e}", socket.display()),
        }
    }
}

/// The arity-20 fabric of `multiflow_closed` (capacity 150 against
/// demand 100) with a four-flow hand-off chain in pod 0: flow `j`
/// moves onto the aggregation switch flow `j + 1` still occupies.
fn fabric_instance() -> UpdateInstance {
    let net = fat_tree(
        20,
        LinkParams {
            capacity: 150,
            delay: 1,
        },
    );
    let named = |name: String| {
        net.switches()
            .find(|&s| net.switch_name(s) == Some(name.as_str()))
            .unwrap_or_else(|| panic!("fabric has no {name}"))
    };
    let (e0, e1) = (named("edge0".into()), named("edge1".into()));
    let flows = (0..4u32)
        .map(|j| {
            Flow::new(
                FlowId(j),
                100,
                FlowPath::new(vec![e0, named(format!("agg{j}")), e1]),
                FlowPath::new(vec![e0, named(format!("agg{}", j + 1)), e1]),
            )
            .expect("chain flow")
        })
        .collect();
    UpdateInstance::new(net, flows).expect("fabric instance")
}

#[test]
fn overlong_line_is_refused_and_fabric_sized_lines_still_arm() {
    let socket = temp_dir("sock").join("chronusd.sock");
    let daemon = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        snapshot_dir: temp_dir("state"),
        workers: 1,
        ..DaemonConfig::default()
    })
    .expect("daemon start");
    let server = std::thread::Builder::new()
        .name("line-server".to_string())
        .spawn(move || run_server(daemon))
        .expect("spawn server");
    let mut client = connect(&socket);

    // One byte past the bound, no newline: the daemon answers once and
    // closes that connection.
    let mut flood = UnixStream::connect(&socket).expect("second connection");
    flood
        .write_all(&vec![b'x'; MAX_REQUEST_LINE + 1])
        .expect("the daemon reads up to the bound");
    let mut replies = BufReader::new(flood);
    let mut reply = String::new();
    replies.read_line(&mut reply).expect("refusal line");
    let refusal: Value = serde_json::from_str(&reply).expect("refusal is JSON");
    assert_eq!(refusal.get("ok"), Some(&Value::Bool(false)), "{reply}");
    assert_eq!(
        refusal.get("error").and_then(Value::as_str),
        Some("request line too long")
    );
    reply.clear();
    assert_eq!(replies.read_line(&mut reply).expect("clean close"), 0);

    // Other connections never noticed, and the refusal was counted.
    client.ping().expect("ping on the first connection");
    let scrape = client.metrics_text().expect("metrics");
    assert!(
        scrape.contains("chronus_daemon_proto_errors_total 1"),
        "{scrape}"
    );

    // A line as long as the benchmark's largest is nowhere near the
    // bound: it decodes, plans and arms.
    let instance = fabric_instance();
    let line = serde_json::to_string(&chronus_net::codec::instance_to_value(&instance))
        .expect("encode instance");
    assert!(
        (100_000..MAX_REQUEST_LINE / 8).contains(&line.len()),
        "{} bytes",
        line.len()
    );
    let id = client
        .submit("fabric", Priority::Normal, Some(60_000), &instance)
        .expect("fabric-sized submit is admitted");
    let status = client.watch(id, 120_000).expect("watch");
    assert_eq!(
        status.get("state").and_then(Value::as_str),
        Some("armed"),
        "{status:?}"
    );

    client.drain().expect("drain");
    server
        .join()
        .expect("server thread")
        .expect("server exits cleanly");
}
