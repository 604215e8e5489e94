//! The four workloads: instance pools, the request lines `chronusd` receives,
//! and the open loop's burst schedule. Everything here is a pure function of
//! the seed, and is built before the daemon starts so that the load generator
//! does not compete with it for the host's two cores while it measures.

use chronus_bench::fig10::scale_instance;
use chronus_net::codec::instance_to_value;
use chronus_net::topology::{fat_tree, LinkParams};
use chronus_net::{
    Flow, FlowId, InstanceGenerator, InstanceGeneratorConfig, Network, Path, SwitchId,
    UpdateInstance,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::{Map, Value};
use std::sync::Arc;

/// Default `--seed` (the paper's conference date).
pub const DEFAULT_SEED: u64 = 20_170_605;
/// Armed updates left unconfirmed for the crash phase.
pub const CRASH_ARMED: usize = 128;
/// Kill/restart cycles of the crash phase: at least [`CRASH_CYCLES`], and
/// where restarts are quick as many more (up to [`CRASH_MAX_CYCLES`]) as fit
/// into [`CRASH_MIN_TIME`]; their median is `restart_ms`. The first cycle
/// also tears down the measured daemon's heap and reads as an outlier, and a
/// 100 ms host hiccup spans ten 10 ms restarts.
pub const CRASH_CYCLES: usize = 9;
/// See [`CRASH_CYCLES`].
pub const CRASH_MAX_CYCLES: usize = 100;
/// See [`CRASH_CYCLES`].
pub const CRASH_MIN_TIME: std::time::Duration = std::time::Duration::from_secs(1);
/// Times a run sets up; their median is `setup_s`.
pub const SETUP_REPEATS: usize = 3;
/// Closed-loop client connections (= `nproc` on the reference host).
pub const CLIENTS: usize = 2;
/// `submit`s per burst of the open loop.
pub const BURST_SIZE: usize = 8;
/// Offered burst rate of `burst_open`, frozen at about half of the
/// `updates_per_s` that `paper_closed` reaches at the commit that added the
/// benchmark (see README.md).
pub const BURSTS_PER_S: f64 = 30.0;
/// Tenant every request is submitted under.
pub const TENANT: &str = "bench";

/// `(schedule entries, instances)`: how many instances of a pool update that
/// many switches.
type Quotas = &'static [(usize, usize)];

/// `paper_closed` / `burst_open`: 200 instances at each of n = 10, 20, 40,
/// spread over entry counts as `InstanceGenerator::paper` spreads them.
///
/// What a plan costs is set by the number of schedule entries (switches the
/// flow updates) far more than by n: the slack prover certifies every
/// perturbed schedule of a hypercube with a side per entry, which peaks at
/// 12 entries (4 096 certifications, ~40 ms) and is abandoned beyond. Left
/// to chance, the handful of 11- and 12-entry instances in a pool would move
/// its mean plan time by several percent from seed to seed; so the pools fix
/// the count per entry value and the seed chooses which instances fill it.
const PAPER_QUOTAS: [(usize, Quotas); 3] = [
    (10, &[(1, 21), (2, 30), (3, 113), (4, 25), (5, 9), (6, 2)]),
    (
        20,
        &[
            (1, 13),
            (2, 17),
            (3, 105),
            (4, 34),
            (5, 15),
            (6, 8),
            (7, 5),
            (8, 2),
            (9, 1),
        ],
    ),
    (
        40,
        &[
            (1, 8),
            (2, 14),
            (3, 87),
            (4, 32),
            (5, 21),
            (6, 13),
            (7, 9),
            (8, 5),
            (9, 5),
            (10, 3),
            (11, 1),
            (12, 1),
            (13, 1),
        ],
    ),
];

/// `large_closed`: 16 fig10-scale instances at each of n = 64, 256, 512,
/// again with the entry counts `scale_instance` typically draws. None has 64
/// entries or more: there the hypercube's size overflows `usize`, the budget
/// check passes and the plan does not return.
const LARGE_QUOTAS: [(usize, Quotas); 3] = [
    (
        64,
        &[
            (6, 1),
            (9, 2),
            (10, 1),
            (11, 1),
            (12, 3),
            (13, 3),
            (14, 1),
            (15, 1),
            (16, 1),
            (17, 1),
            (18, 1),
        ],
    ),
    (
        256,
        &[
            (14, 1),
            (17, 1),
            (19, 1),
            (22, 1),
            (23, 1),
            (24, 2),
            (26, 1),
            (27, 2),
            (29, 1),
            (30, 1),
            (31, 2),
            (32, 1),
            (35, 1),
        ],
    ),
    (
        512,
        &[
            (21, 1),
            (25, 1),
            (26, 1),
            (28, 1),
            (29, 1),
            (30, 1),
            (32, 1),
            (33, 1),
            (35, 1),
            (37, 2),
            (39, 1),
            (42, 1),
            (44, 1),
            (46, 1),
            (50, 1),
        ],
    ),
];
/// Fat-tree `(arity, flows)` cells of `multiflow_closed`, two rotations each.
const MULTIFLOW_CELLS: [(usize, usize); 5] = [(12, 8), (12, 12), (20, 8), (20, 16), (20, 24)];

/// How a workload offers load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loop {
    /// Each of [`CLIENTS`] connections sends its next request when the
    /// previous one has settled.
    Closed,
    /// Bursts arrive on a schedule whatever the daemon's state.
    Open,
}

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Closed or open loop.
    pub load: Loop,
    /// Requests the traced in-process pass replays (a whole number of passes
    /// over the pool where the pool is small enough).
    pub traced_requests: usize,
    /// Passes over the pool in one slice of the measured phase (see
    /// README.md, "Slices"): as many as make a slice take one to three
    /// seconds, so that a slice's last operation, which one client waits out
    /// alone, and one 10 ms tick of the daemon's CPU clock are both small
    /// against it.
    pub slice_passes: u64,
}

/// The workloads, in the order `full` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_closed",
        load: Loop::Closed,
        traced_requests: 200,
        slice_passes: 1,
    },
    Workload {
        name: "large_closed",
        load: Loop::Closed,
        traced_requests: 48,
        slice_passes: 2,
    },
    Workload {
        name: "multiflow_closed",
        load: Loop::Closed,
        traced_requests: 40,
        slice_passes: 5,
    },
    Workload {
        name: "burst_open",
        load: Loop::Open,
        traced_requests: 200,
        slice_passes: 1,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// A workload's inputs: the instances and, for each, the `submit` request
/// line (newline included) the daemon will read.
pub struct Pool {
    /// The update instances, in request order.
    pub instances: Vec<Arc<UpdateInstance>>,
    /// `lines[i]` submits `instances[i]`.
    pub lines: Vec<String>,
}

impl Pool {
    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }
}

/// SplitMix64 step, to derive independent streams from one seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `submit` request line for `instance`, exactly as `chronusctl submit`
/// would encode it.
pub fn submit_line(instance: &UpdateInstance) -> String {
    let mut obj = Map::new();
    obj.insert("cmd".to_string(), Value::from("submit"));
    obj.insert("tenant".to_string(), Value::from(TENANT));
    obj.insert("priority".to_string(), Value::from("normal"));
    obj.insert("instance".to_string(), instance_to_value(instance));
    let mut line = serde_json::to_string(&Value::Object(obj)).expect("a submit line encodes");
    line.push('\n');
    line
}

/// Round-robin interleave, so any prefix of the pool is a fair mix of the
/// groups.
fn interleave(groups: Vec<Vec<UpdateInstance>>) -> Vec<UpdateInstance> {
    let longest = groups.iter().map(Vec::len).max().unwrap_or(0);
    let mut iters: Vec<_> = groups.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::new();
    for _ in 0..longest {
        out.extend(iters.iter_mut().filter_map(Iterator::next));
    }
    out
}

/// Switches the (single) flow of `instance` updates: the length of any
/// schedule for it.
fn schedule_entries(instance: &UpdateInstance) -> usize {
    instance.flows[0].switches_to_update().len()
}

/// Draws from `candidates` until every quota is filled. Rare entry counts
/// fill last, so the group is shuffled (by `seed`) before it is returned.
fn fill_quotas(
    n: usize,
    seed: u64,
    quotas: Quotas,
    candidates: impl Iterator<Item = Option<UpdateInstance>>,
) -> Vec<UpdateInstance> {
    let mut room: std::collections::BTreeMap<usize, usize> = quotas.iter().copied().collect();
    let wanted: usize = room.values().sum();
    let mut group = Vec::with_capacity(wanted);
    // Far more draws than the rarest quota needs; a generator that stops
    // producing some entry count fails set-up instead of hanging it.
    for candidate in candidates.take(100_000) {
        if group.len() == wanted {
            break;
        }
        let Some(instance) = candidate else { continue };
        if let Some(left) = room.get_mut(&schedule_entries(&instance)) {
            if *left > 0 {
                *left -= 1;
                group.push(instance);
            }
        }
    }
    assert_eq!(group.len(), wanted, "n={n}: quotas left unfilled: {room:?}");
    group.shuffle(&mut StdRng::seed_from_u64(mix(seed, 0x5F1E + n as u64)));
    group
}

fn paper_instances(seed: u64) -> Vec<UpdateInstance> {
    interleave(
        PAPER_QUOTAS
            .iter()
            .map(|&(n, quotas)| {
                let mut gen =
                    InstanceGenerator::new(InstanceGeneratorConfig::paper(n, mix(seed, n as u64)));
                fill_quotas(n, seed, quotas, std::iter::from_fn(|| Some(gen.generate())))
            })
            .collect(),
    )
}

fn large_instances(seed: u64) -> Vec<UpdateInstance> {
    interleave(
        LARGE_QUOTAS
            .iter()
            .map(|&(n, quotas)| {
                let base = mix(seed, n as u64);
                fill_quotas(
                    n,
                    seed,
                    quotas,
                    (0u64..).map(|k| scale_instance(n, base.wrapping_add(k))),
                )
            })
            .collect(),
    )
}

/// A fat-tree with its layers resolved by switch name.
struct Fabric {
    net: Network,
    cores: Vec<SwitchId>,
    aggs: Vec<SwitchId>,
    edges: Vec<SwitchId>,
    pods: usize,
    half: usize,
}

/// Same fabric as `crates/bench/src/bin/bench_multiflow.rs`: capacity 150
/// against demand 100, so no link holds two flows and chained migrations
/// must hand off in time.
fn build_fabric(arity: usize) -> Fabric {
    let net = fat_tree(
        arity,
        LinkParams {
            capacity: 150,
            delay: 1,
        },
    );
    let half = arity / 2;
    let by_name = |prefix: &str, count: usize| -> Vec<SwitchId> {
        let mut ids = vec![SwitchId(0); count];
        let mut found = 0usize;
        for s in net.switches() {
            let index = net
                .switch_name(s)
                .and_then(|name| name.strip_prefix(prefix))
                .and_then(|t| t.parse::<usize>().ok());
            if let Some(i) = index {
                ids[i] = s;
                found += 1;
            }
        }
        assert_eq!(found, count, "fabric is missing {prefix} switches");
        ids
    };
    Fabric {
        cores: by_name("core", half * half),
        aggs: by_name("agg", arity * half),
        edges: by_name("edge", arity * half),
        net,
        pods: arity,
        half,
    }
}

/// The K-flow mix of `bench_multiflow`: per-pod hand-off chains (flow `j`
/// migrates onto the aggregation group flow `j + 1` still occupies) plus one
/// half-demand cross-pod flow in sixteen. `rotation` (0 or 1) shifts each
/// chain's starting group so the two instances of a cell load different links.
fn flows_for(fabric: &Fabric, kflows: usize, rotation: usize) -> Vec<Flow> {
    const CROSS_EVERY: usize = 16;
    const DEMAND: u64 = 100;
    const CROSS_DEMAND: u64 = 50;
    const CHAIN_TARGET: usize = 16;
    let (pods, half) = (fabric.pods, fabric.half);
    let agg = |pod: usize, a: usize| fabric.aggs[pod * half + a % half];
    let edge = |pod: usize, e: usize| fabric.edges[pod * half + e % half];
    let core = |a: usize, c: usize| fabric.cores[(a % half) * half + c % half];
    let cross = kflows / CROSS_EVERY;
    let chain_total = kflows - cross;
    // Chain groups stay below the two reserved cross groups.
    let max_chain = half.saturating_sub(4).max(1);
    let target = max_chain.min(CHAIN_TARGET);
    let use_pods = chain_total.div_ceil(target).clamp(1, pods);
    assert!(
        use_pods * max_chain >= chain_total,
        "fabric too small for {kflows} flows"
    );
    let mut flows = Vec::with_capacity(kflows);
    for t in 0..chain_total {
        let pod = t % use_pods;
        let j = t / use_pods;
        let len = chain_total / use_pods + usize::from(pod < chain_total % use_pods);
        let rot = rotation.min(half.saturating_sub(4).saturating_sub(len));
        let (e0, e1) = (edge(pod, 0), edge(pod, 1));
        flows.push(
            Flow::new(
                FlowId(flows.len() as u32),
                DEMAND,
                Path::new(vec![e0, agg(pod, rot + j), e1]),
                Path::new(vec![e0, agg(pod, rot + j + 1), e1]),
            )
            .expect("chain fixture paths"),
        );
    }
    for m in 0..cross {
        let (p, d) = (m % pods, (pods / 2 + m / 2) % pods);
        let (a0, a1) = (half - 2, half - 1);
        flows.push(
            Flow::new(
                FlowId(flows.len() as u32),
                CROSS_DEMAND,
                Path::new(vec![
                    edge(p, 3),
                    agg(p, a0),
                    core(a0, m),
                    agg(d, a0),
                    edge(d, 4),
                ]),
                Path::new(vec![
                    edge(p, 3),
                    agg(p, a1),
                    core(a1, m),
                    agg(d, a1),
                    edge(d, 4),
                ]),
            )
            .expect("cross fixture paths"),
        );
    }
    flows
}

/// The multiflow pool. The fixture is deterministic, so the seed only orders
/// the requests: every seed plans the same ten instances.
fn multiflow_instances(seed: u64) -> Vec<UpdateInstance> {
    let mut out = Vec::with_capacity(MULTIFLOW_CELLS.len() * 2);
    let mut fabric: Option<(usize, Fabric)> = None;
    for (arity, kflows) in MULTIFLOW_CELLS {
        if fabric.as_ref().is_none_or(|(a, _)| *a != arity) {
            fabric = Some((arity, build_fabric(arity)));
        }
        let (_, fab) = fabric.as_ref().expect("fabric was just built");
        for rotation in 0..2 {
            out.push(
                UpdateInstance::new(fab.net.clone(), flows_for(fab, kflows, rotation))
                    .unwrap_or_else(|e| panic!("multiflow instance {arity}x{kflows}: {e}")),
            );
        }
    }
    out.shuffle(&mut StdRng::seed_from_u64(mix(seed, 0x3F10)));
    out
}

/// Generates `workload`'s instances and encodes their request lines.
pub fn build_pool(workload: &Workload, seed: u64) -> Pool {
    let instances = match workload.name {
        "paper_closed" | "burst_open" => paper_instances(seed),
        "large_closed" => large_instances(seed),
        "multiflow_closed" => multiflow_instances(seed),
        other => panic!("no pool for workload `{other}`"),
    };
    let lines = instances.iter().map(submit_line).collect();
    Pool {
        instances: instances.into_iter().map(Arc::new).collect(),
        lines,
    }
}

/// One slice of the open loop: when each burst is due and which instances it
/// submits.
pub struct BurstPlan {
    /// Due time of each burst, nanoseconds after the slice starts, ascending.
    pub due_ns: Vec<u64>,
    /// Pool index of every request, burst after burst ([`BURST_SIZE`] each).
    pub order: Vec<usize>,
}

/// Slices a measured phase of `seconds` takes at `rate_per_s`: the first
/// whole number of passes over the pool that lasts at least that long.
pub fn burst_slices(rate_per_s: f64, seconds: f64, pool_len: usize) -> usize {
    let per_pass = (pool_len / BURST_SIZE).max(1);
    ((rate_per_s * seconds / per_pass as f64).ceil() as usize).max(1)
}

/// Plans slice `slice` of the open loop: one pass over a pool of `pool_len`
/// instances, so that every instance is requested equally often. A pure
/// function of its arguments.
///
/// Arrivals are jittered, not memoryless: burst `i` is due at a uniform time
/// within the `i`-th interval of `1 / rate_per_s`, so gaps range from nothing
/// to two intervals and every seed offers exactly the same rate, over a slice
/// and over any long stretch of one. (Poisson arrivals clump: how many bursts
/// a draw piles onto one another set the median latency of a pass more than
/// anything the daemon did, and it came out 30 % apart from seed to seed.)
/// Pass `slice` starts `slice` instances into the pool, so an expensive
/// instance is not at the same place in its burst every time round, while
/// the pool's interleave of sizes (at most three n = 40 instances per burst)
/// stays as it is.
pub fn burst_plan(seed: u64, rate_per_s: f64, pool_len: usize, slice: usize) -> BurstPlan {
    let bursts = (pool_len / BURST_SIZE).max(1);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xB0B5 + slice as u64));
    let due_ns = (0..bursts)
        .map(|i| ((i as f64 + rng.gen::<f64>()) / rate_per_s * 1e9) as u64)
        .collect();
    let order = (0..bursts * BURST_SIZE)
        .map(|i| (i + slice) % pool_len)
        .collect();
    BurstPlan { due_ns, order }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_repeat_with_the_seed_and_differ_across_seeds() {
        for w in &WORKLOADS {
            let a = build_pool(w, 7);
            let b = build_pool(w, 7);
            let c = build_pool(w, 8);
            assert_eq!(a.lines, b.lines, "{}: same seed, same bytes", w.name);
            assert_ne!(a.lines, c.lines, "{}: another seed, other bytes", w.name);
            assert_eq!(a.len(), a.lines.len());
            assert!(a.lines.iter().all(|l| l.ends_with('\n')));
        }
    }

    #[test]
    fn pool_sizes_are_the_documented_ones() {
        let sizes: Vec<usize> = WORKLOADS.iter().map(|w| build_pool(w, 1).len()).collect();
        assert_eq!(sizes, [600, 48, 10, 600]);
        for (_, quotas) in PAPER_QUOTAS {
            assert_eq!(quotas.iter().map(|q| q.1).sum::<usize>(), 200);
        }
        for (_, quotas) in LARGE_QUOTAS {
            assert_eq!(quotas.iter().map(|q| q.1).sum::<usize>(), 16);
            assert!(
                quotas.iter().all(|q| q.0 < 64),
                "64 entries or more never return"
            );
        }
        // Traced passes cover whole pools where the pool is smaller.
        assert_eq!(WORKLOADS[1].traced_requests % 48, 0);
        assert_eq!(WORKLOADS[2].traced_requests % 10, 0);
        // Bursts tile the open loop's pool exactly.
        assert_eq!(600 % BURST_SIZE, 0);
    }

    #[test]
    fn burst_plan_is_a_pure_function_of_the_seed() {
        let a = burst_plan(1, 30.0, 600, 1);
        let again = burst_plan(1, 30.0, 600, 1);
        let other_seed = burst_plan(2, 30.0, 600, 1);
        let other_slice = burst_plan(1, 30.0, 600, 2);
        assert_eq!((&a.due_ns, &a.order), (&again.due_ns, &again.order));
        assert_ne!(a.due_ns, other_seed.due_ns);
        assert_ne!(a.due_ns, other_slice.due_ns);
        assert_eq!(burst_plan(1, 30.0, 600, 0).order[..3], [0, 1, 2]);
        assert_eq!(a.order[..3], [1, 2, 3], "slice 1 starts one further in");
        // One pass: 75 bursts of 8, every instance once.
        assert_eq!(a.due_ns.len(), 75);
        let mut seen = a.order.clone();
        seen.sort_unstable();
        assert!(seen.iter().copied().eq(0..600));
        // Burst i is due within the i-th interval of 1/30 s, whatever the seed.
        for (i, &due) in a.due_ns.iter().enumerate() {
            let intervals = due as f64 * 30.0 / 1e9;
            assert!(
                intervals >= i as f64 && intervals < (i + 1) as f64,
                "burst {i} due at {intervals} intervals"
            );
        }
        // 30/s x 20 s = 600 bursts = 8 passes of 75; a part of a pass counts.
        assert_eq!(burst_slices(30.0, 20.0, 600), 8);
        assert_eq!(burst_slices(30.0, 21.0, 600), 9);
        assert_eq!(burst_slices(30.0, 0.1, 600), 1);
    }

    #[test]
    fn submit_lines_parse_as_submit_requests() {
        let pool = build_pool(&WORKLOADS[0], 3);
        match chronus_daemon::proto::request_from_line(pool.lines[0].trim_end()) {
            Ok(chronus_daemon::Request::Submit { tenant, .. }) => assert_eq!(tenant, TENANT),
            other => panic!("{other:?}"),
        }
    }
}
