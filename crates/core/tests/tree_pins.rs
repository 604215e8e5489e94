//! Pins what Algorithm 1's feasibility check returns, instance by
//! instance.
//!
//! The pool is every `InstanceGeneratorConfig::paper` instance at
//! n ∈ {8, 12, 16, 20, 30, 40} and seeds 0–399 that the greedy
//! scheduler refuses — the instances the engine's tree stage decides —
//! plus the paper's motivating example. Each is checked through
//! [`check_feasibility`], and the verdict class (feasible, refuted by
//! a crossing, refuted by exhausting the search, unknown) and every
//! entry of a witness schedule are folded into one FNV-1a hash. A
//! change that moves the hash changed a verdict or a witness.

use chronus_core::greedy::greedy_schedule;
use chronus_core::tree::{check_feasibility, Feasibility};
use chronus_net::{motivating_example, InstanceGenerator, InstanceGeneratorConfig, UpdateInstance};

/// Hash of every verdict class and witness entry over the pool, in
/// pool order.
const PINNED_HASH: u64 = 7_102_772_971_447_960_891;
/// Verdict classes over the pool: feasible, refuted by a crossing,
/// refuted by exhausting the search, unknown.
const PINNED_CLASSES: [usize; 4] = [34, 156, 5, 0];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The greedy-refused paper instances, then the motivating example.
fn pool() -> Vec<UpdateInstance> {
    let mut pool = Vec::new();
    for n in [8, 12, 16, 20, 30, 40] {
        for seed in 0..400 {
            let Some(inst) =
                InstanceGenerator::new(InstanceGeneratorConfig::paper(n, seed)).generate()
            else {
                continue;
            };
            if greedy_schedule(&inst).is_err() {
                pool.push(inst);
            }
        }
    }
    pool.push(motivating_example());
    pool
}

#[test]
fn tree_search_returns_the_pinned_verdicts_and_witnesses() {
    let pool = pool();
    let mut hash = Fnv::new();
    let mut classes = [0usize; 4];
    for inst in &pool {
        let class = match check_feasibility(inst) {
            Feasibility::Feasible { schedule } => {
                hash.u64(schedule.len() as u64);
                for (flow, switch, t) in schedule.iter() {
                    hash.u64(u64::from(flow.0));
                    hash.u64(u64::from(switch.0));
                    hash.u64(t as u64);
                }
                0
            }
            Feasibility::Infeasible { witness: Some(c) } => {
                hash.u64(u64::from(c.diverge.0));
                hash.u64(u64::from(c.merge.0));
                1
            }
            Feasibility::Infeasible { witness: None } => 2,
            Feasibility::Unknown => 3,
        };
        hash.u64(class as u64);
        classes[class] += 1;
    }
    eprintln!(
        "tree pins: {} instances, hash {}, classes {classes:?}",
        pool.len(),
        hash.0
    );
    assert_eq!(
        pool.len(),
        195,
        "the pool is 194 greedy-refused instances and the example"
    );
    assert_eq!(
        (hash.0, classes),
        (PINNED_HASH, PINNED_CLASSES),
        "a tree verdict or witness changed"
    );
}
