//! Generated and mutated request lines against the daemon's two line
//! readers.
//!
//! `proto::read_request` (what the server runs: the instance decoded
//! straight off the line) and `proto::request_from_line` followed by
//! `codec::instance_from_value` (the `Value`-tree path) must agree on
//! every line: the same instance when both accept, the same error text
//! when the line is malformed, a bad instance on both sides otherwise.
//! Neither may panic. Lines that never reach either reader — invalid
//! UTF-8, a line past `MAX_REQUEST_LINE` — are driven through a live
//! server.

use chronus_daemon::proto::{read_request, request_from_line, Request};
use chronus_daemon::server::MAX_REQUEST_LINE;
use chronus_daemon::{run_server, CtlClient, Daemon, DaemonConfig};
use chronus_net::codec::{instance_from_value, instance_to_value, write_instance};
use chronus_net::routing::biased_random_path;
use chronus_net::topology::{fat_tree, random_connected, LinkParams, TopologyConfig};
use chronus_net::{
    motivating_example, Flow, FlowId, InstanceGenerator, InstanceGeneratorConfig, NetworkBuilder,
    SwitchId, UpdateInstance,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Integers either side of the encodings' edges: 10¹⁵ (integer writer
/// vs float formatting), 2⁵³ (number vs decimal string) and `u64::MAX`.
const EDGES: [u64; 8] = [
    1,
    999_999_999_999_999,
    1_000_000_000_000_000,
    (1 << 53) - 1,
    1 << 53,
    (1 << 53) + 1,
    u64::MAX - 1,
    u64::MAX,
];

/// Switch names that need escaping, or are multi-byte.
const NAMES: [&str; 6] = ["s", "q\"b\\s", "t\tn\nr\r", "c\u{1}\u{1f}", "é✓😀", ""];

/// A random multi-flow instance over a random connected topology,
/// rebuilt with awkward switch names and edge-value capacities, delays
/// and demands.
fn generated(seed: u64) -> Option<UpdateInstance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let switches = rng.gen_range(3..12usize);
    let net = random_connected(
        TopologyConfig {
            switches,
            capacity_range: (1, 10),
            delay_range: (1, 3),
            seed: rng.gen(),
        },
        switches,
    );
    let mut b = NetworkBuilder::new();
    for s in net.switches() {
        let name = NAMES[rng.gen_range(0..NAMES.len())];
        b.add_switch(format!("{name}{}", s.0));
    }
    let edge = |rng: &mut StdRng| EDGES[rng.gen_range(0..EDGES.len())];
    let mut capacity = std::collections::BTreeMap::new();
    for l in net.links() {
        let (c, delay) = (edge(&mut rng), edge(&mut rng));
        b.add_link(l.src, l.dst, c, delay).ok()?;
        capacity.insert((l.src, l.dst), c);
    }
    let mut flows = Vec::new();
    for _ in 0..rng.gen_range(1..4usize) {
        let src = SwitchId(rng.gen_range(0..switches as u32));
        let dst = SwitchId(rng.gen_range(0..switches as u32));
        if src == dst {
            continue;
        }
        let initial = biased_random_path(&net, src, dst, 0.0, &mut rng)?;
        let fin = biased_random_path(&net, src, dst, 0.5, &mut rng)?;
        // The largest edge value every link of both paths carries.
        let hops = initial.hops().windows(2).chain(fin.hops().windows(2));
        let room = hops
            .filter_map(|w| capacity.get(&(w[0], w[1])).copied())
            .min()?;
        let fits: Vec<u64> = EDGES.iter().copied().filter(|&d| d <= room).collect();
        let demand = fits[rng.gen_range(0..fits.len())];
        let id = FlowId(flows.len() as u32);
        flows.push(Flow::new(id, demand, initial, fin).ok()?);
    }
    UpdateInstance::new(b.build(), flows).ok()
}

/// The generated pool, plus the paper generator's and a fat-tree.
fn instances() -> Vec<UpdateInstance> {
    let mut out: Vec<UpdateInstance> = (0..64).filter_map(generated).collect();
    let mut paper = InstanceGenerator::new(InstanceGeneratorConfig::paper(20, 7));
    out.extend(std::iter::from_fn(|| paper.generate()).take(4));
    let net = fat_tree(
        8,
        LinkParams {
            capacity: 150,
            delay: 1,
        },
    );
    out.push(UpdateInstance::new(net, Vec::new()).expect("an empty fat-tree instance"));
    out
}

fn encoded(instance: &UpdateInstance) -> String {
    let mut text = String::new();
    write_instance(instance, &mut text);
    text
}

/// Everything an instance holds, compared field by field.
fn assert_same(a: &UpdateInstance, b: &UpdateInstance) {
    assert_eq!(a.flows, b.flows);
    let names = |i: &UpdateInstance| -> Vec<String> {
        let net = &i.network;
        net.switches()
            .map(|s| net.switch_name(s).unwrap_or("?").to_string())
            .collect()
    };
    assert_eq!(names(a), names(b));
    assert_eq!(
        a.network.links().collect::<Vec<_>>(),
        b.network.links().collect::<Vec<_>>()
    );
}

#[test]
fn typed_writes_and_reads_match_the_value_oracle() {
    let pool = instances();
    assert!(pool.len() > 40, "only {} instances", pool.len());
    for instance in &pool {
        let text = encoded(instance);
        let tree = instance_to_value(instance);
        assert_eq!(serde_json::to_string(&tree).unwrap(), text);
        let oracle = instance_from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_same(&oracle, instance);
        let line = format!(r#"{{"cmd":"submit","instance":{text}}}"#);
        match read_request(&line) {
            Ok(Request::Submit {
                instance: Ok(typed),
                ..
            }) => assert_same(&typed, &oracle),
            other => panic!("{other:?}"),
        }
    }
}

/// How one reader classified a line.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Not a request: the error the server would send.
    Malformed(String),
    /// A submit whose instance is JSON but not an instance.
    BadInstance,
    /// A submit with a decoded instance (its canonical text).
    Submit(String),
    /// Any other verb.
    Other(String),
}

fn typed_verdict(line: &str) -> Verdict {
    match read_request(line) {
        Err(e) => Verdict::Malformed(e),
        Ok(Request::Submit {
            instance: Ok(i), ..
        }) => Verdict::Submit(encoded(&i)),
        Ok(Request::Submit {
            instance: Err(_), ..
        }) => Verdict::BadInstance,
        Ok(other) => Verdict::Other(format!("{other:?}")),
    }
}

fn value_verdict(line: &str) -> Verdict {
    match request_from_line(line) {
        Err(e) => Verdict::Malformed(e),
        Ok(Request::Submit { instance, .. }) => match instance_from_value(&instance) {
            Ok(i) => Verdict::Submit(encoded(&i)),
            Err(_) => Verdict::BadInstance,
        },
        Ok(other) => Verdict::Other(format!("{other:?}")),
    }
}

fn agree(line: &str) -> Verdict {
    let typed = typed_verdict(line);
    assert_eq!(
        typed,
        value_verdict(line),
        "the readers disagree on {line:?}"
    );
    typed
}

fn submit(instance: &str) -> String {
    format!(r#"{{"cmd":"submit","tenant":"t","instance":{instance}}}"#)
}

#[test]
fn every_truncation_of_a_small_line_is_judged_alike() {
    let line = submit(&encoded(&motivating_example()));
    assert!(matches!(agree(&line), Verdict::Submit(_)));
    let mut malformed = 0;
    for cut in 0..line.len() {
        if let Some(prefix) = line.get(..cut) {
            malformed += usize::from(matches!(agree(prefix), Verdict::Malformed(_)));
        }
    }
    assert_eq!(malformed, line.len(), "every strict prefix is malformed");
}

#[test]
fn seeded_byte_mutations_are_judged_alike() {
    let line = submit(&encoded(&motivating_example()));
    let alphabet = b"{}[]:,\"\\ 0123456789-.eE+tfnulx";
    let mut rng = StdRng::seed_from_u64(20_170_605);
    let mut kinds = [0usize; 4];
    for _ in 0..4_000 {
        let mut bytes = line.clone().into_bytes();
        for _ in 0..rng.gen_range(1..4) {
            let at = rng.gen_range(0..bytes.len());
            let byte = alphabet[rng.gen_range(0..alphabet.len())];
            match rng.gen_range(0..3) {
                0 => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ => {
                    bytes.remove(at);
                }
            }
        }
        let Ok(mutated) = String::from_utf8(bytes) else {
            continue;
        };
        kinds[match agree(&mutated) {
            Verdict::Malformed(_) => 0,
            Verdict::BadInstance => 1,
            Verdict::Submit(_) => 2,
            Verdict::Other(_) => 3,
        }] += 1;
    }
    // The mutations reach past the grammar into the schema.
    assert!(kinds[0] > 0 && kinds[1] > 0 && kinds[2] > 0, "{kinds:?}");
}

#[test]
fn hand_picked_edges_are_judged_alike() {
    let example = encoded(&motivating_example());
    let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let demand = |d: &str| {
        let text = example.replacen("\"demand\":1", &format!("\"demand\":{d}"), 1);
        assert_ne!(text, example);
        submit(&text)
    };
    let capacity = |c: &str| {
        let text = example.replacen("[0,1,1,1]", &format!("[0,1,{c},1]"), 1);
        assert_ne!(text, example);
        submit(&text)
    };
    let name = |n: &str| submit(&example.replacen("\"v1\"", n, 1));
    let cases: Vec<(String, &str)> = vec![
        // Nesting: 129 containers is the cap; a value inside is one too
        // many, at the top level and inside the instance.
        (format!(r#"{{"cmd":"ping","x":{}}}"#, nest(128)), "other"),
        (
            format!(r#"{{"cmd":"ping","x":{}}}"#, nest(129)),
            "malformed",
        ),
        (
            submit(&example.replacen('{', &format!(r#"{{"x":{},"#, nest(127)), 1)),
            "submit",
        ),
        (
            submit(&example.replacen('{', &format!(r#"{{"x":{},"#, nest(128)), 1)),
            "malformed",
        ),
        // Repeated keys, at every level.
        (
            format!(r#"{{"cmd":"submit","instance":{example},"instance":{example}}}"#),
            "malformed",
        ),
        (
            submit(&example.replacen("{\"demand\"", "{\"id\":0,\"demand\"", 1)),
            "malformed",
        ),
        (
            submit(&example.replacen("\"network\":", "\"flows\":[],\"network\":", 1)),
            "malformed",
        ),
        // 2⁵³ ± 1 and decimal-string u64 edges.
        (capacity("9007199254740991"), "submit"),
        (capacity("9007199254740992"), "submit"),
        (capacity("9007199254740993"), "submit"),
        (capacity("\"9007199254740993\""), "submit"),
        (capacity("\"18446744073709551615\""), "submit"),
        (capacity("\"18446744073709551616\""), "bad"),
        // A bare number is an `f64`: 2⁶⁴ rounds to `u64::MAX`'s
        // neighbour and saturates, as 2⁵³ + 1 rounds down above.
        (capacity("18446744073709551616"), "submit"),
        (capacity("1e3"), "submit"),
        (capacity("\"1e3\""), "bad"),
        (capacity("01"), "submit"),
        (capacity("1e400"), "malformed"),
        (demand("1.5"), "bad"),
        (demand("-1"), "bad"),
        (demand("\"-1\""), "bad"),
        (demand("0"), "bad"),
        (demand("2"), "bad"),
        (demand("\"1\""), "submit"),
        // Lone surrogates and escapes in a switch name.
        (name(r#""\ud800""#), "malformed"),
        (name(r#""\udc00""#), "malformed"),
        (name(r#""😀""#), "submit"),
        (name(r#""a\u0000b""#), "submit"),
        (name("\"tab\tinside\""), "malformed"),
        // Not an instance, or not the member the verb wants.
        (submit("[]"), "bad"),
        (submit("null"), "bad"),
        (
            r#"{"cmd":"ping","instance":{"flows":1}}"#.to_string(),
            "other",
        ),
        (r#"[{"cmd":"ping"}]"#.to_string(), "malformed"),
        (format!("{} x", submit(&example)), "malformed"),
    ];
    for (line, expect) in &cases {
        let got = match agree(line) {
            Verdict::Malformed(_) => "malformed",
            Verdict::BadInstance => "bad",
            Verdict::Submit(_) => "submit",
            Verdict::Other(_) => "other",
        };
        assert_eq!(got, *expect, "{line}");
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chronusd-grammar-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

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

/// Sends `bytes` on a fresh connection and returns every reply line
/// until the daemon hangs up.
fn exchange(socket: &Path, bytes: &[u8]) -> Vec<String> {
    let mut stream = UnixStream::connect(socket).expect("connect");
    stream.write_all(bytes).expect("send");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|l| l.expect("a reply line"))
        .collect()
}

#[test]
fn the_server_read_path_survives_bytes_no_reader_sees() {
    let socket = temp_dir("sock").join("chronusd.sock");
    let daemon = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        snapshot_dir: temp_dir("state"),
        workers: 1,
        ..DaemonConfig::default()
    })
    .expect("daemon start");
    let server = std::thread::spawn(move || run_server(daemon));
    let mut client = connect(&socket);

    // Invalid UTF-8: the connection is dropped without a reply, before
    // either reader runs.
    let mut line = br#"{"cmd":"ping","x":""#.to_vec();
    line.extend_from_slice(&[0xff, 0xfe]);
    line.extend_from_slice(b"\"}\n");
    assert!(exchange(&socket, &line).is_empty());

    // One byte past the bound, newline-terminated JSON: refused as too
    // long, then hung up on.
    let mut long = br#"{"cmd":"ping","pad":""#.to_vec();
    long.resize(MAX_REQUEST_LINE - 2, b'x');
    long.extend_from_slice(b"\"}\n");
    assert_eq!(long.len(), MAX_REQUEST_LINE + 1);
    let replies = exchange(&socket, &long);
    assert_eq!(replies.len(), 1, "{replies:?}");
    let reply: Value = serde_json::from_str(&replies[0]).expect("a JSON reply");
    assert_eq!(
        reply.get("error").and_then(Value::as_str),
        Some("request line too long")
    );

    // A malformed line and a bad instance are answered on the same
    // connection, which then still serves.
    let replies = exchange(
        &socket,
        b"{\"cmd\":\"ping\",\"cmd\":\"ping\"}\n{\"cmd\":\"submit\",\"instance\":[]}\n{\"cmd\":\"ping\"}\n",
    );
    assert_eq!(replies.len(), 3, "{replies:?}");
    assert!(replies[0].contains("duplicate key"), "{}", replies[0]);
    assert!(replies[1].contains("bad instance"), "{}", replies[1]);
    assert!(replies[2].contains("\"pong\":true"), "{}", replies[2]);

    client.ping().expect("the daemon still serves");
    let scrape = client.metrics_text().expect("metrics");
    // The overlong line and the repeated key; the bad instance is a
    // failed request, not a protocol error.
    assert!(
        scrape.contains("chronus_daemon_proto_errors_total 2"),
        "{scrape}"
    );
    assert!(scrape.contains("chronus_daemon_failed_total 1"), "{scrape}");
    client.drain().expect("drain");
    server
        .join()
        .expect("server thread")
        .expect("server exits cleanly");
}
