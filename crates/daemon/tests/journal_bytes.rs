//! Pins the journal's arm-record bytes and the replay of an old journal.
//!
//! A fixed pool of arm records — paper-generator instances (n = 10, 20,
//! 40), fat-tree multi-flow hand-off chains (arity 12 and 20) and one
//! record of edge values (ids and integers either side of 2⁵³ and of
//! the 10¹⁵ text boundary, negative epochs, switch names and tenants
//! that need escaping) — is encoded with [`Journal::encode_arm`], and
//! every byte of every line is folded into one FNV-1a hash. Plans come
//! from the engine at the daemon's production configuration under an
//! hour-long deadline, so no stage is cut short and the pool is the
//! same in debug and release builds. A change that moves the hash
//! changed the journal format.
//!
//! `fixtures/journal_v1.jsonl` was written by the encoder the hash
//! pins: one arm line per record shape, an arm of a repeated record and
//! its completion tombstone. It must replay to the same records.

use chronus_daemon::{ArmedRecord, DaemonConfig, Journal, Priority};
use chronus_engine::{Engine, UpdateRequest};
use chronus_net::topology::{fat_tree, LinkParams};
use chronus_net::{
    motivating_example, Flow, FlowId, InstanceGenerator, InstanceGeneratorConfig, NetworkBuilder,
    Path, UpdateInstance,
};
use std::sync::Arc;
use std::time::Duration;

/// Hash of every encoded arm line of [`pool`], in pool order.
const PINNED_HASH: u64 = 17_429_789_091_961_541_111;
/// Records in [`pool`].
const PINNED_RECORDS: usize = 12;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Per-pod hand-off chains on a `k`-ary fat-tree (capacity 150 against
/// demand 100, so no link holds two flows): in pod `p`, flow `j`
/// migrates from aggregation switch `j` onto `j + 1`, which flow
/// `j + 1` still occupies.
fn fat_tree_chains(k: usize, pods: usize, chain: usize) -> UpdateInstance {
    let net = fat_tree(
        k,
        LinkParams {
            capacity: 150,
            delay: 1,
        },
    );
    let half = k / 2;
    let named = |name: String| {
        net.switches()
            .find(|&s| net.switch_name(s) == Some(name.as_str()))
            .unwrap_or_else(|| panic!("fat-tree has no {name}"))
    };
    let mut flows = Vec::new();
    for pod in 0..pods {
        let edge = |e: usize| named(format!("edge{}", pod * half + e));
        let agg = |a: usize| named(format!("agg{}", pod * half + a));
        for j in 0..chain {
            let id = FlowId(flows.len() as u32);
            let initial = Path::new(vec![edge(0), agg(j), edge(1)]);
            let fin = Path::new(vec![edge(0), agg(j + 1), edge(1)]);
            flows.push(Flow::new(id, 100, initial, fin).expect("chain paths"));
        }
    }
    UpdateInstance::new(net, flows).expect("fat-tree chain instance")
}

/// The motivating example on a copy of its network whose switch names
/// need escaping and whose capacities sit on the integer encoding's
/// edges: below and at 10¹⁵ (where the text form switches from the
/// integer writer to float formatting), at 2⁵³, and past it (a
/// decimal string).
fn edge_values() -> UpdateInstance {
    let base = motivating_example();
    let names = [
        "v1",
        "quote \" and \\ backslash",
        "tab\tnew\nline",
        "ctl \u{1}\u{1f}",
        "é ✓ 😀",
        "/slash",
    ];
    let capacities = [
        999_999_999_999_999,
        1_000_000_000_000_000,
        1 << 53,
        (1 << 53) + 1,
        u64::MAX,
        7,
    ];
    let mut b = NetworkBuilder::new();
    for (s, name) in base.network.switches().zip(names.iter().cycle()) {
        b.add_switch(format!("{name} {}", s.0));
    }
    for (l, &capacity) in base.network.links().zip(capacities.iter().cycle()) {
        b.add_link(l.src, l.dst, capacity, l.delay)
            .expect("the example's links");
    }
    UpdateInstance::new(b.build(), base.flows.clone()).expect("renamed example")
}

/// The pool's instances: paper-generator draws at each size, then the
/// fat-tree chains, then the edge-value instance.
fn instances() -> Vec<UpdateInstance> {
    let mut out = Vec::new();
    for (n, seed) in [(10, 20_170_605), (20, 20_170_606), (40, 20_170_607)] {
        let mut gen = InstanceGenerator::new(InstanceGeneratorConfig::paper(n, seed));
        out.extend(std::iter::from_fn(|| gen.generate()).take(3));
    }
    out.push(fat_tree_chains(12, 2, 3));
    out.push(fat_tree_chains(20, 3, 3));
    out.push(edge_values());
    out
}

/// Arm records for every instance the engine arms, with header fields
/// that walk the integer encodings' edges.
fn pool() -> Vec<ArmedRecord> {
    let config = DaemonConfig {
        engine_shards: 8,
        ..DaemonConfig::default()
    };
    let engine = Engine::new(config.engine());
    let tenants = ["t", "tenant \"q\" \\ é\u{1} 😀", ""];
    let ids = [1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX];
    let epochs: [i128; 4] = [0, -1_700_000_000_000_000_000, 1 << 53, i128::MAX];
    let mut records = Vec::new();
    for (i, instance) in instances().into_iter().enumerate() {
        let instance = Arc::new(instance);
        let request =
            UpdateRequest::new(i as u64, Arc::clone(&instance), Duration::from_secs(3600));
        let planned = engine.plan_one(request);
        let (Ok(schedule), Some(certificate)) = (planned.timed_schedule(), &planned.certificate)
        else {
            continue;
        };
        records.push(ArmedRecord {
            id: ids[i % ids.len()],
            tenant: tenants[i % tenants.len()].to_string(),
            priority: [Priority::High, Priority::Normal, Priority::Low][i % 3],
            epoch_ns: epochs[i % epochs.len()],
            dilation: planned.dilation,
            instance: (*instance).clone(),
            schedule: schedule.clone(),
            certificate: certificate.clone(),
            // Every fourth record journals without its slack proof.
            slack: planned.slack.clone().filter(|_| i % 4 != 3),
            span_id: [0, 7, u64::MAX][i % 3],
            plan_ns: 1_000 * i as u64 + 1,
        });
    }
    records
}

#[test]
fn arm_record_bytes_are_pinned() {
    let records = pool();
    let mut hash = Fnv::new();
    for record in &records {
        let line = Journal::encode_arm(record).expect("an arm record encodes");
        assert!(!line.contains('\n'), "one record, one line");
        hash.bytes(line.as_bytes());
        hash.bytes(b"\n");
    }
    assert_eq!(
        (records.len(), hash.0),
        (PINNED_RECORDS, PINNED_HASH),
        "the arm-record encoding changed"
    );
}

/// Pool indices the fixture's arm lines hold, in file order: one draw
/// at each paper size, the arity-12 fat-tree chains and the edge
/// values (distinct ids, so replay keeps all of them).
const FIXTURE_RECORDS: [usize; 5] = [0, 3, 7, 9, 11];
/// Id under which the fixture arms `pool()[0]` again before its
/// completion tombstone.
const FIXTURE_SETTLED: u64 = 5;

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/journal_v1.jsonl")
}

/// Everything [`ArmedRecord`] holds, compared field by field (the
/// network has no `PartialEq`: its switch names and link arena are).
fn assert_same_record(got: &ArmedRecord, want: &ArmedRecord) {
    assert_eq!(
        (
            got.id,
            &got.tenant,
            got.priority,
            got.epoch_ns,
            got.dilation
        ),
        (
            want.id,
            &want.tenant,
            want.priority,
            want.epoch_ns,
            want.dilation
        )
    );
    assert_eq!((got.span_id, got.plan_ns), (want.span_id, want.plan_ns));
    let (a, b) = (&got.instance, &want.instance);
    assert_eq!(a.flows, b.flows);
    let names = |i: &UpdateInstance| -> Vec<Option<String>> {
        let net = &i.network;
        net.switches()
            .map(|s| net.switch_name(s).map(str::to_string))
            .collect()
    };
    assert_eq!(names(a), names(b));
    assert_eq!(
        a.network.links().collect::<Vec<_>>(),
        b.network.links().collect::<Vec<_>>()
    );
    assert_eq!(got.schedule, want.schedule);
    assert_eq!(got.certificate, want.certificate);
    assert_eq!(got.slack, want.slack);
}

#[test]
fn an_old_journal_replays_to_the_same_records() {
    let records = pool();
    let path = fixture_path();
    let replay = Journal::replay(&path).expect("the fixture reads");
    assert_eq!(replay.corrupt_lines, 0);
    assert_eq!(replay.max_id, u64::MAX);
    assert_eq!(replay.live.len(), FIXTURE_RECORDS.len());
    let text = std::fs::read_to_string(&path).expect("the fixture reads");
    let lines: Vec<&str> = text.lines().collect();
    for ((got, &k), line) in replay.live.iter().zip(&FIXTURE_RECORDS).zip(&lines) {
        assert_same_record(got, &records[k]);
        // Written back, a replayed record is its line again.
        assert_eq!(Journal::encode_arm(got).expect("encodes"), *line);
        assert_eq!(got.certificate.check(&got.instance), Ok(()));
    }
    let settled = lines.iter().rev().take(2).collect::<Vec<_>>();
    assert!(settled[0].contains("\"op\":\"complete\""), "{}", settled[0]);
    assert!(settled[1].contains(&format!("\"id\":{FIXTURE_SETTLED}")));
}
