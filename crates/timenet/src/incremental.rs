//! Incremental re-simulation: O(Δ) exact-gate checks.
//!
//! Schedulers probe thousands of near-identical schedules: the greedy
//! exact gate extends the current partial schedule by one candidate,
//! and the branch-and-bound search sets and unsets one item per node.
//! Re-running [`crate::FluidSimulator`] from scratch for every probe
//! costs O(flows × horizon × path) each time. The
//! [`IncrementalSimulator`] instead keeps the *complete* simulation
//! state live — every cohort trajectory, the dense
//! [`crate::LoadLedger`] and all violation counters — and updates only
//! what one `(flow, switch, time)` assignment can change:
//!
//! - the horizon window, when the makespan moves (cohorts are appended
//!   to or popped from the high end);
//! - cohorts of the updated flow that *visit the updated switch* at a
//!   step where the effective rule actually flips (tracked by a
//!   per-switch visitor index).
//!
//! Everything else is provably untouched: a cohort that never consults
//! the changed rule follows the exact same trajectory (trajectories
//! are simple walks, so each switch's rule is consulted at most once
//! per cohort).
//!
//! [`IncrementalSimulator::apply`] returns a [`Delta`] recording what
//! changed; [`IncrementalSimulator::undo`] restores it verbatim.
//! Deltas must be undone in strict LIFO order (asserted), which both
//! consumers satisfy by construction: the greedy gate undoes a
//! rejected batch immediately, and the search recursion unwinds its
//! own stack. Verdicts are O(1) ([`IncrementalSimulator::verdict`]);
//! frozen-prefix checks are O(log n) range queries
//! ([`IncrementalSimulator::has_violation_at_or_before`]).
//!
//! The differential proptests in `tests/incremental_props.rs` pin this
//! machinery to the full simulator: after arbitrary apply/undo
//! interleavings, verdicts, event counts and the whole load surface
//! must be identical to a fresh [`crate::FluidSimulator`] run of the
//! mirrored schedule.
// The incremental simulator's whole point is dense indexed state:
// cohort tables, visitor cursors and the flat ledger are all indexed
// by ids this module mints, and `expect` unwraps mirror-state
// invariants the apply/undo pair maintains.
#![allow(clippy::indexing_slicing, clippy::expect_used)]

use crate::arena::{SimArena, StepCounts};
use crate::ledger::{LinkInterner, LoadLedger};
use crate::report::Verdict;
use crate::simulate::HORIZON_SLACK;
use crate::Schedule;
use chronus_net::{Capacity, Flow, FlowId, SwitchId, TimeStep, UpdateInstance};
use std::collections::BTreeMap;

/// Sentinel in a visit row: "this cohort never consults that switch".
const NO_VISIT: TimeStep = TimeStep::MIN;

/// A resolved forwarding rule: the next hop plus the interned link
/// that carries it (`None` when the network lacks the link — a
/// guaranteed blackhole, mirroring the full simulator).
#[derive(Clone, Copy, Debug)]
pub(crate) struct HopRule {
    pub next: SwitchId,
    pub link: Option<LinkRef>,
}

/// Cached link attributes so the per-hop path is hash-free.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinkRef {
    pub idx: u32,
    pub delay: TimeStep,
}

/// Per-switch rule state of one flow.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RuleEntry {
    pub old: Option<HopRule>,
    pub new: Option<HopRule>,
    pub sched: Option<TimeStep>,
}

/// One flow's rules indexed densely by switch id, plus the horizon
/// parameters. Shared between the full and incremental simulators so
/// both trace through the byte-identical [`trace_cohort`].
#[derive(Clone, Debug)]
pub(crate) struct FlowTable {
    pub id: FlowId,
    pub demand: Capacity,
    pub source: SwitchId,
    pub destination: SwitchId,
    pub phi_init: TimeStep,
    pub phi_fin: TimeStep,
    pub rules: Vec<RuleEntry>,
}

impl FlowTable {
    /// Builds the rule table of `flow` over `interner`'s links.
    pub fn build(instance: &UpdateInstance, interner: &LinkInterner, flow: &Flow) -> Self {
        let net = &instance.network;
        let mut rules = vec![RuleEntry::default(); net.switch_count()];
        let resolve = |u: SwitchId, next: SwitchId| HopRule {
            next,
            link: interner.get(u, next).map(|idx| LinkRef {
                idx,
                delay: interner.link(idx).delay,
            }),
        };
        for w in flow.initial.hops().windows(2) {
            if let Some(e) = rules.get_mut(w[0].index()) {
                e.old = Some(resolve(w[0], w[1]));
            }
        }
        for w in flow.fin.hops().windows(2) {
            if let Some(e) = rules.get_mut(w[0].index()) {
                e.new = Some(resolve(w[0], w[1]));
            }
        }
        FlowTable {
            id: flow.id,
            demand: flow.demand,
            source: flow.source(),
            destination: flow.destination(),
            phi_init: flow.initial.total_delay(net).unwrap_or(0) as TimeStep,
            phi_fin: flow.fin.total_delay(net).unwrap_or(0) as TimeStep,
            rules,
        }
    }

    /// Copies this flow's assignments out of `schedule` (entries for
    /// switches beyond the network are kept off the table — they can
    /// never be consulted, exactly as in the full simulator).
    pub fn load_schedule(&mut self, schedule: &Schedule) {
        for (f, v, t) in schedule.iter() {
            if f == self.id {
                if let Some(e) = self.rules.get_mut(v.index()) {
                    e.sched = Some(t);
                }
            }
        }
    }

    /// The rule the switch applies at step `now`: the new next-hop once
    /// the scheduled update time has passed (and a new rule exists),
    /// the old next-hop otherwise — [`crate::FluidSimulator`]'s
    /// `effective_rule`, hash-free.
    #[inline]
    pub fn effective(&self, v: SwitchId, now: TimeStep) -> Option<HopRule> {
        let e = &self.rules[v.index()];
        match (e.sched, e.new) {
            (Some(tv), Some(new)) if now >= tv => Some(new),
            _ => e.old,
        }
    }
}

/// Epoch-stamped visited set: loop detection without per-cohort
/// allocation or clearing.
#[derive(Clone, Debug, Default)]
pub(crate) struct VisitStamps {
    stamp: Vec<u64>,
    epoch: u64,
}

impl VisitStamps {
    pub fn with_buffer(switch_count: usize, mut buffer: Vec<u64>) -> Self {
        buffer.clear();
        buffer.resize(switch_count, 0);
        VisitStamps {
            stamp: buffer,
            epoch: 0,
        }
    }

    /// Returns the stamp storage for arena reuse.
    pub fn into_buffer(self) -> Vec<u64> {
        self.stamp
    }

    #[inline]
    fn begin(&mut self) {
        self.epoch += 1;
    }

    #[inline]
    fn mark(&mut self, v: SwitchId) {
        self.stamp[v.index()] = self.epoch;
    }

    #[inline]
    fn marked(&self, v: SwitchId) -> bool {
        self.stamp[v.index()] == self.epoch
    }
}

/// One traversed hop: the cohort departed `from` on interned link
/// `link` at step `depart`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct HopRec {
    pub from: SwitchId,
    pub link: u32,
    pub depart: TimeStep,
}

/// How one cohort trace ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TraceEnd {
    /// Reached the destination.
    Delivered,
    /// Revisited `switch` at `time` (forwarding loop).
    Looped { switch: SwitchId, time: TimeStep },
    /// Arrived at ruleless (or linkless) `switch` at `time`.
    Blackholed { switch: SwitchId, time: TimeStep },
    /// Exhausted the hop bound without any of the above.
    Undelivered,
}

/// Traces the cohort of `table`'s flow emitted at `tau`, adding every
/// hop's demand to `ledger` and recording the hops in `hops`. This is
/// the one walk both simulators share; its event semantics are
/// hop-for-hop those of the original `FluidSimulator::trace_flow`.
pub(crate) fn trace_cohort(
    table: &FlowTable,
    tau: TimeStep,
    max_hops: usize,
    ledger: &mut LoadLedger,
    stamps: &mut VisitStamps,
    hops: &mut Vec<HopRec>,
) -> TraceEnd {
    hops.clear();
    stamps.begin();
    trace_cohort_resume(
        table,
        table.source,
        tau,
        max_hops,
        ledger,
        stamps,
        hops,
        |_| false,
    )
}

/// Continues a cohort walk from `at` at step `now`, appending to
/// `hops`. `budget` is the remaining hop allowance and
/// `prefix_visited` answers "was this switch already visited by the
/// kept prefix?" (loop detection) — with an empty prefix this *is*
/// [`trace_cohort`]. The incremental simulator uses it to retrace
/// only the suffix of a trajectory after the one switch whose rule
/// flipped, passing a visit-row lookup instead of re-marking the
/// prefix into `stamps`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn trace_cohort_resume(
    table: &FlowTable,
    at: SwitchId,
    now: TimeStep,
    budget: usize,
    ledger: &mut LoadLedger,
    stamps: &mut VisitStamps,
    hops: &mut Vec<HopRec>,
    prefix_visited: impl Fn(SwitchId) -> bool,
) -> TraceEnd {
    let mut at = at;
    let mut now = now;
    for _ in 0..budget {
        if at == table.destination {
            return TraceEnd::Delivered;
        }
        stamps.mark(at);
        let Some(rule) = table.effective(at, now) else {
            return TraceEnd::Blackholed {
                switch: at,
                time: now,
            };
        };
        let Some(link) = rule.link else {
            // A rule pointing at a non-existent link is a blackhole
            // (cannot happen for validated flows).
            return TraceEnd::Blackholed {
                switch: at,
                time: now,
            };
        };
        ledger.add(link.idx, now, table.demand);
        hops.push(HopRec {
            from: at,
            link: link.idx,
            depart: now,
        });
        if stamps.marked(rule.next) || prefix_visited(rule.next) {
            return TraceEnd::Looped {
                switch: rule.next,
                time: now + link.delay,
            };
        }
        now += link.delay;
        at = rule.next;
    }
    TraceEnd::Undelivered
}

/// One live cohort: its full trajectory plus how it ended.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Cohort {
    hops: Vec<HopRec>,
    end: TraceEnd,
}

/// Per-flow live state.
#[derive(Clone, Debug)]
struct FlowState {
    table: FlowTable,
    first_emit: TimeStep,
    /// Cohorts indexed by `tau − first_emit`, covering
    /// `first_emit ..= makespan + phi_fin + slack`.
    cohorts: Vec<Cohort>,
    /// `visit[v][slot]` = the step at which cohort `slot` consults
    /// switch `v`'s rule (its departing hop, or its blackhole
    /// terminal), or [`NO_VISIT`]. Trajectories are simple walks, so
    /// one cell per `(switch, cohort)` suffices; rows are allocated
    /// lazily (only route switches are ever consulted) and the
    /// affected-cohort computation is a flat scan of one row.
    visit: Vec<Vec<TimeStep>>,
}

impl FlowState {
    fn slot(&self, tau: TimeStep) -> usize {
        (tau - self.first_emit) as usize
    }

    fn last_emit(&self) -> TimeStep {
        self.first_emit + (self.cohorts.len() as TimeStep) - 1
    }
}

/// The record of one [`IncrementalSimulator::apply`], sufficient to
/// restore the exact prior state. Opaque; hand it back to
/// [`IncrementalSimulator::undo`] in LIFO order.
#[derive(Debug)]
pub struct Delta {
    seq: u64,
    flow: usize,
    switch: SwitchId,
    time: TimeStep,
    prev_sched: Option<TimeStep>,
    /// Per-flow counts of cohorts appended by window growth.
    grew: Vec<(usize, usize)>,
    /// Cohorts popped by window shrink, verbatim, in ascending-τ order.
    shrunk: Vec<(usize, Vec<Cohort>)>,
    /// Retraced trajectory suffixes of the updated flow.
    retraced: Vec<RetraceRec>,
}

/// One suffix retrace: cohort `tau` kept its first `pos` hops and
/// replaced everything after (the changed switch is consulted exactly
/// once, so the prefix is provably unchanged).
#[derive(Debug)]
struct RetraceRec {
    tau: TimeStep,
    pos: usize,
    old_suffix: Vec<HopRec>,
    old_end: TraceEnd,
}

/// Reusable buffers for [`IncrementalSimulator`] (and, transitively,
/// its ledger): the engine lends one to each planning thread so
/// batch planning stops re-allocating the load surface per request.
/// Since the arena rewrite this is a thin wrapper over [`SimArena`] —
/// one parts-bin holding the load surface, occupancy bit rows, visit
/// stamps, pooled hop vectors and the dense step multisets.
#[derive(Debug, Default)]
pub struct SimWorkspace {
    pub(crate) arena: SimArena,
}

impl SimWorkspace {
    /// Byte high-water mark of the backing arena across every
    /// simulator run that recycled this workspace.
    pub fn arena_bytes(&self) -> u64 {
        self.arena.high_water_bytes()
    }

    /// Occupancy-bitmap words (`u64`s across the ledger's loaded +
    /// overloaded row sets) the most recent run returned.
    pub fn occupancy_words(&self) -> u64 {
        self.arena.occupancy_words()
    }
}

/// Counters describing how an exact gate spent its checks; surfaced
/// through `GreedyOutcome` and the engine's `PlanReport`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GateStats {
    /// Gate checks answered (each in O(Δ)).
    pub checks: u64,
    /// `apply` calls executed on the ledger.
    pub ledger_applies: u64,
    /// `undo` calls executed on the ledger.
    pub ledger_undos: u64,
    /// Ledger cells actually touched by the incremental path.
    pub cells_touched: u64,
    /// Cells a full re-simulation would have touched for the same
    /// checks (the live trajectory size, summed per check).
    pub full_equivalent_cells: u64,
}

impl GateStats {
    /// Accumulates `other` into `self` (engine-side aggregation).
    pub fn absorb(&mut self, other: &GateStats) {
        self.checks += other.checks;
        self.ledger_applies += other.ledger_applies;
        self.ledger_undos += other.ledger_undos;
        self.cells_touched += other.cells_touched;
        self.full_equivalent_cells += other.full_equivalent_cells;
    }
}

/// The incremental counterpart of [`crate::FluidSimulator`]: holds a
/// live simulation of one instance under an evolving schedule and
/// re-derives consistency in time proportional to what an update
/// actually changes. See the module docs for the contract.
#[derive(Debug)]
pub struct IncrementalSimulator {
    interner: LinkInterner,
    ledger: LoadLedger,
    flows: Vec<FlowState>,
    flow_index: BTreeMap<FlowId, usize>,
    /// Multiset of scheduled times across all flows (for the global
    /// makespan, which couples every flow's horizon window).
    sched_times: StepCounts,
    loop_times: StepCounts,
    blackhole_times: StepCounts,
    loops: usize,
    blackholes: usize,
    undelivered: usize,
    max_hops: usize,
    stamps: VisitStamps,
    /// The parts-bin: while the simulator is live it serves as the hop
    /// pool (tracing pops a buffer, retiring a cohort pushes its
    /// storage back — the steady-state hot path allocates nothing);
    /// at teardown every other buffer returns into it too.
    arena: SimArena,
    /// Recycled `Delta::retraced` record vectors.
    retrace_pool: Vec<Vec<RetraceRec>>,
    /// Scratch for [`Self::retrace_affected`]'s affected-slot list.
    affected_scratch: Vec<(usize, TimeStep)>,
    depth: u64,
    applies: u64,
    undos: u64,
    /// Total hops across all live cohorts — what one full
    /// re-simulation of the current schedule would traverse.
    live_cells: u64,
}

impl IncrementalSimulator {
    /// Builds the live simulation of `instance` under the empty
    /// schedule (every switch still applies its old rule).
    pub fn new(instance: &UpdateInstance) -> Self {
        Self::with_workspace(instance, SimWorkspace::default())
    }

    /// Like [`IncrementalSimulator::new`], recycling `workspace`'s
    /// buffers.
    pub fn with_workspace(instance: &UpdateInstance, workspace: SimWorkspace) -> Self {
        let _span = chronus_trace::span!(
            "timenet.incremental.build",
            flows = instance.flows.len(),
            switches = instance.network.switch_count()
        )
        .entered();
        let interner = LinkInterner::for_instance(instance);
        let net = &instance.network;
        let tables: Vec<FlowTable> = instance
            .flows
            .iter()
            .map(|f| FlowTable::build(instance, &interner, f))
            .collect();
        let t_lo = tables.iter().map(|t| -t.phi_init).min().unwrap_or(0);
        let mut arena = workspace.arena;
        let ledger = LoadLedger::with_arena(&interner, t_lo, &mut arena);
        let stamps =
            VisitStamps::with_buffer(net.switch_count(), std::mem::take(&mut arena.stamps));
        let sched_times = arena.take_step_counts();
        let loop_times = arena.take_step_counts();
        let blackhole_times = arena.take_step_counts();
        let mut sim = IncrementalSimulator {
            interner,
            ledger,
            flows: Vec::with_capacity(tables.len()),
            flow_index: BTreeMap::new(),
            sched_times,
            loop_times,
            blackhole_times,
            loops: 0,
            blackholes: 0,
            undelivered: 0,
            max_hops: net.switch_count() + 2,
            stamps,
            arena,
            retrace_pool: Vec::new(),
            affected_scratch: Vec::new(),
            depth: 0,
            applies: 0,
            undos: 0,
            live_cells: 0,
        };
        for (fi, table) in tables.into_iter().enumerate() {
            sim.flow_index.insert(table.id, fi);
            let first_emit = -table.phi_init;
            let visit = vec![Vec::new(); net.switch_count()];
            sim.flows.push(FlowState {
                table,
                first_emit,
                cohorts: Vec::new(),
                visit,
            });
            // Initial window: makespan 0 (empty schedule).
            let last = sim.flows[fi].table.phi_fin + HORIZON_SLACK;
            for tau in first_emit..=last {
                sim.trace_and_push(fi);
                debug_assert_eq!(sim.flows[fi].last_emit(), tau);
            }
        }
        sim
    }

    /// Tears the simulator down, returning its buffers for reuse.
    pub fn into_workspace(self) -> SimWorkspace {
        let IncrementalSimulator {
            ledger,
            flows,
            stamps,
            sched_times,
            loop_times,
            blackhole_times,
            mut arena,
            ..
        } = self;
        // Live trajectory storage (cohort hop vectors + visit rows) is
        // dropped here, but its footprint counts toward the run's
        // high-water mark.
        let mut live_bytes = 0u64;
        for fs in &flows {
            for c in &fs.cohorts {
                live_bytes += (c.hops.capacity() * std::mem::size_of::<HopRec>()) as u64;
            }
            for row in &fs.visit {
                live_bytes += (row.capacity() * std::mem::size_of::<TimeStep>()) as u64;
            }
        }
        ledger.into_arena(&mut arena);
        arena.stamps = stamps.stamp;
        arena.put_step_counts(sched_times);
        arena.put_step_counts(loop_times);
        arena.put_step_counts(blackhole_times);
        arena.note_bytes(live_bytes);
        SimWorkspace { arena }
    }

    /// O(1) consistency verdict of the current schedule — identical to
    /// [`crate::FluidSimulator`] on the mirrored schedule.
    pub fn verdict(&self) -> Verdict {
        if self.ledger.overloaded_cell_count() == 0
            && self.loops == 0
            && self.blackholes == 0
            && self.undelivered == 0
        {
            Verdict::Consistent
        } else {
            Verdict::Inconsistent
        }
    }

    /// `true` iff a congestion, loop or blackhole event exists at a
    /// simulated time ≤ `t` — the branch-and-bound frozen-prefix prune
    /// (undelivered cohorts are deliberately excluded, matching
    /// `has_frozen_violation`).
    pub fn has_violation_at_or_before(&self, t: TimeStep) -> bool {
        self.ledger.has_overload_at_or_before(t)
            || self.loop_times.any_at_or_before(t)
            || self.blackhole_times.any_at_or_before(t)
    }

    /// The mirrored schedule's makespan, clamped at 0 like the full
    /// simulator's horizon computation.
    pub fn makespan(&self) -> TimeStep {
        self.sched_times.max().unwrap_or(0).max(0)
    }

    /// Byte high-water mark of the backing arena so far.
    pub fn arena_bytes(&self) -> u64 {
        self.arena.high_water_bytes()
    }

    /// Number of `apply` calls so far.
    pub fn applies(&self) -> u64 {
        self.applies
    }

    /// Number of `undo` calls so far.
    pub fn undos(&self) -> u64 {
        self.undos
    }

    /// Total ledger cells touched so far (the incremental work done).
    pub fn cell_visits(&self) -> u64 {
        self.ledger.cell_visits()
    }

    /// Total hops across live cohorts — the cells a *full*
    /// re-simulation of the current schedule would touch.
    pub fn live_cells(&self) -> u64 {
        self.live_cells
    }

    /// The current sparse load surface, for differential testing
    /// against [`crate::SimulationReport::link_loads`].
    pub fn link_loads(&self) -> BTreeMap<(SwitchId, SwitchId), BTreeMap<TimeStep, Capacity>> {
        self.ledger.link_loads(&self.interner)
    }

    /// Current `(loops, blackholes, undelivered)` cohort counts.
    // chronus-lint: allow(dead-pub) — read by crates/timenet/tests/incremental_props.rs
    pub fn event_counts(&self) -> (usize, usize, usize) {
        (self.loops, self.blackholes, self.undelivered)
    }

    /// Schedules `switch` of `flow` at step `t` (replacing any prior
    /// assignment) and incrementally re-derives the simulation state.
    ///
    /// # Panics
    /// Panics if `flow` is not part of the instance.
    pub fn apply(&mut self, flow: FlowId, switch: SwitchId, t: TimeStep) -> Delta {
        let fi = *self
            .flow_index
            .get(&flow)
            .expect("apply: unknown flow for this instance");
        self.depth += 1;
        self.applies += 1;

        let old_makespan = self.makespan();
        // Entries for switches beyond the network still count toward
        // the makespan (Schedule::makespan does), but have no rule
        // table slot to flip; grow the table so the slot exists.
        let rules = &mut self.flows[fi].table.rules;
        if switch.index() >= rules.len() {
            rules.resize(switch.index() + 1, RuleEntry::default());
        }
        let prev_sched = rules[switch.index()].sched.replace(t);
        if let Some(p) = prev_sched {
            self.sched_times.dec(p);
        }
        self.sched_times.inc(t);
        let new_makespan = self.makespan();

        let mut delta = Delta {
            seq: self.depth,
            flow: fi,
            switch,
            time: t,
            prev_sched,
            grew: Vec::new(), // chronus-lint: allow(hot-alloc) — empty Vec::new is alloc-free until first push
            shrunk: Vec::new(), // chronus-lint: allow(hot-alloc) — empty Vec::new is alloc-free until first push
            retraced: self.retrace_pool.pop().unwrap_or_default(),
        };

        if new_makespan != old_makespan {
            self.resize_windows(new_makespan, &mut delta);
        }
        self.retrace_affected(fi, switch, prev_sched, Some(t), &mut delta);
        delta
    }

    /// Reverts the state change recorded by `delta`.
    ///
    /// # Panics
    /// Panics if deltas are undone out of LIFO order.
    pub fn undo(&mut self, mut delta: Delta) {
        assert_eq!(
            delta.seq, self.depth,
            "IncrementalSimulator deltas must be undone in LIFO order"
        );
        self.depth -= 1;
        self.undos += 1;

        // 1. Reverse the retraces: swap the previous suffixes back in.
        //    (Popping walks the records newest-first, the required
        //    reverse order, and leaves the vector empty for the pool.)
        while let Some(rec) = delta.retraced.pop() {
            let fi = delta.flow;
            let slot = self.flows[fi].slot(rec.tau);
            self.unindex_suffix(fi, slot, rec.pos);
            let demand = self.flows[fi].table.demand;
            {
                let (fs, ledger) = (&mut self.flows[fi], &mut self.ledger);
                let hops = &mut fs.cohorts[slot].hops;
                for hop in &hops[rec.pos..] {
                    ledger.sub(hop.link, hop.depart, demand);
                }
                hops.truncate(rec.pos);
                hops.extend_from_slice(&rec.old_suffix);
                for hop in &hops[rec.pos..] {
                    ledger.add(hop.link, hop.depart, demand);
                }
                fs.cohorts[slot].end = rec.old_end;
            }
            self.arena.put_hops(rec.old_suffix);
            self.index_suffix(fi, slot, rec.pos);
        }
        self.retrace_pool.push(delta.retraced);

        // 2. Reverse the window resize.
        for &(fi, n) in delta.grew.iter().rev() {
            for _ in 0..n {
                self.pop_cohort(fi);
            }
        }
        while let Some((fi, removed)) = delta.shrunk.pop() {
            for cohort in removed {
                let fs = &mut self.flows[fi];
                fs.cohorts.push(cohort);
                let tau = fs.last_emit();
                self.restore_loads_and_index(fi, tau);
            }
        }

        // 3. Restore the schedule entry.
        let rules = &mut self.flows[delta.flow].table.rules;
        rules[delta.switch.index()].sched = delta.prev_sched;
        self.sched_times.dec(delta.time);
        if let Some(p) = delta.prev_sched {
            self.sched_times.inc(p);
        }
    }

    /// Declares `delta` final: its assignment will never be undone, so
    /// the undo buffers it carries (retrace records, popped cohorts)
    /// go back to the pools instead of being dropped. The state change
    /// itself stays applied. Committing is optional — dropping a delta
    /// is still correct, it merely leaks the buffers to the allocator.
    pub fn commit(&mut self, mut delta: Delta) {
        while let Some(rec) = delta.retraced.pop() {
            self.arena.put_hops(rec.old_suffix);
        }
        self.retrace_pool.push(delta.retraced);
        while let Some((_, removed)) = delta.shrunk.pop() {
            for cohort in removed {
                self.arena.put_hops(cohort.hops);
            }
        }
    }

    /// Traces the cohort of flow `fi` emitted at `tau` into a pooled
    /// hop buffer (no allocation in steady state).
    fn trace_into_cohort(&mut self, fi: usize, tau: TimeStep) -> Cohort {
        let mut hops = self.arena.take_hops();
        let end = trace_cohort(
            &self.flows[fi].table,
            tau,
            self.max_hops,
            &mut self.ledger,
            &mut self.stamps,
            &mut hops,
        );
        Cohort { hops, end }
    }

    /// Traces the next cohort of flow `fi` (at `last_emit + 1`) under
    /// the current rules, pushes it and indexes it.
    fn trace_and_push(&mut self, fi: usize) {
        let fs = &self.flows[fi];
        let tau = if fs.cohorts.is_empty() {
            fs.first_emit
        } else {
            fs.last_emit() + 1
        };
        let cohort = self.trace_into_cohort(fi, tau);
        let slot = self.flows[fi].cohorts.len();
        self.flows[fi].cohorts.push(cohort);
        self.index_cohort(fi, slot);
    }

    /// Removes the last cohort of flow `fi` from every index and the
    /// ledger, returning it.
    fn pop_cohort(&mut self, fi: usize) -> Cohort {
        let slot = self.flows[fi].cohorts.len() - 1;
        self.unindex_cohort(fi, slot);
        let cohort = self.flows[fi].cohorts.pop().expect("pop on empty window");
        Self::remove_loads(&mut self.ledger, &cohort.hops, self.flows[fi].table.demand);
        cohort
    }

    /// Writes `val` into row `v` at `slot`, growing the lazily sized
    /// row (and, for schedule entries beyond the network, the outer
    /// table) on first touch.
    #[inline]
    fn mark_visit(visit: &mut Vec<Vec<TimeStep>>, v: SwitchId, slot: usize, val: TimeStep) {
        if v.index() >= visit.len() {
            visit.resize(v.index() + 1, Vec::new());
        }
        let row = &mut visit[v.index()];
        if slot >= row.len() {
            row.resize(slot + 1, NO_VISIT);
        }
        row[slot] = val;
    }

    /// Clears row `v` at `slot` (no-op when the row never grew there).
    #[inline]
    fn unmark_visit(visit: &mut [Vec<TimeStep>], v: SwitchId, slot: usize) {
        if let Some(cell) = visit.get_mut(v.index()).and_then(|row| row.get_mut(slot)) {
            *cell = NO_VISIT;
        }
    }

    /// Registers cohort `slot` of flow `fi` in the visit index and
    /// the violation counters (its loads are already in the ledger).
    fn index_cohort(&mut self, fi: usize, slot: usize) {
        self.index_suffix(fi, slot, 0);
    }

    /// Inverse of [`Self::index_cohort`] (loads untouched).
    fn unindex_cohort(&mut self, fi: usize, slot: usize) {
        self.unindex_suffix(fi, slot, 0);
    }

    /// Registers the hops from `pos` onward (and the trace end, which
    /// always belongs to the suffix) of cohort `slot`.
    fn index_suffix(&mut self, fi: usize, slot: usize, pos: usize) {
        let fs = &mut self.flows[fi];
        let cohort = &fs.cohorts[slot];
        for hop in &cohort.hops[pos..] {
            Self::mark_visit(&mut fs.visit, hop.from, slot, hop.depart);
        }
        self.live_cells += (cohort.hops.len() - pos) as u64;
        match cohort.end {
            TraceEnd::Delivered => {}
            TraceEnd::Looped { time, .. } => {
                self.loops += 1;
                self.loop_times.inc(time);
            }
            TraceEnd::Blackholed { switch, time } => {
                Self::mark_visit(&mut fs.visit, switch, slot, time);
                self.blackholes += 1;
                self.blackhole_times.inc(time);
            }
            TraceEnd::Undelivered => self.undelivered += 1,
        }
    }

    /// Inverse of [`Self::index_suffix`] (loads untouched).
    fn unindex_suffix(&mut self, fi: usize, slot: usize, pos: usize) {
        let fs = &mut self.flows[fi];
        let cohort = &fs.cohorts[slot];
        for hop in &cohort.hops[pos..] {
            Self::unmark_visit(&mut fs.visit, hop.from, slot);
        }
        self.live_cells -= (cohort.hops.len() - pos) as u64;
        match cohort.end {
            TraceEnd::Delivered => {}
            TraceEnd::Looped { time, .. } => {
                self.loops -= 1;
                self.loop_times.dec(time);
            }
            TraceEnd::Blackholed { switch, time } => {
                Self::unmark_visit(&mut fs.visit, switch, slot);
                self.blackholes -= 1;
                self.blackhole_times.dec(time);
            }
            TraceEnd::Undelivered => self.undelivered -= 1,
        }
    }

    fn remove_loads(ledger: &mut LoadLedger, hops: &[HopRec], demand: Capacity) {
        for hop in hops {
            ledger.sub(hop.link, hop.depart, demand);
        }
    }

    /// Re-adds the (already stored) cohort at `tau` to the ledger and
    /// the indexes — the restore half of undo.
    fn restore_loads_and_index(&mut self, fi: usize, tau: TimeStep) {
        let slot = self.flows[fi].slot(tau);
        let demand = self.flows[fi].table.demand;
        // Split borrow: read hops while mutating the ledger.
        {
            let (fs, ledger) = (&self.flows[fi], &mut self.ledger);
            for hop in &fs.cohorts[slot].hops {
                ledger.add(hop.link, hop.depart, demand);
            }
        }
        self.index_cohort(fi, slot);
    }

    /// Grows or shrinks every flow's emission window to match
    /// `new_makespan`, recording the edits in `delta`.
    fn resize_windows(&mut self, new_makespan: TimeStep, delta: &mut Delta) {
        for fi in 0..self.flows.len() {
            let fs = &self.flows[fi];
            let new_last = new_makespan + fs.table.phi_fin + HORIZON_SLACK;
            let old_len = fs.cohorts.len();
            let new_len = (new_last - fs.first_emit + 1) as usize;
            if new_len > old_len {
                for _ in old_len..new_len {
                    self.trace_and_push(fi);
                }
                delta.grew.push((fi, new_len - old_len));
            } else if new_len < old_len {
                let mut removed = Vec::with_capacity(old_len - new_len);
                for _ in new_len..old_len {
                    removed.push(self.pop_cohort(fi));
                }
                removed.reverse(); // ascending τ, ready to push back
                delta.shrunk.push((fi, removed));
            }
        }
    }

    /// Retraces the cohorts of flow `fi` whose trajectory consults
    /// `switch` at a step where the effective rule flipped between the
    /// `old_cut` and `new_cut` schedule times.
    fn retrace_affected(
        &mut self,
        fi: usize,
        switch: SwitchId,
        old_cut: Option<TimeStep>,
        new_cut: Option<TimeStep>,
        delta: &mut Delta,
    ) {
        let mut affected = std::mem::take(&mut self.affected_scratch);
        affected.clear();
        {
            let fs = &self.flows[fi];
            // No new rule at this switch ⇒ the effective rule can never
            // change, whatever the schedule says.
            let has_new = fs
                .table
                .rules
                .get(switch.index())
                .is_some_and(|e| e.new.is_some());
            let row = if has_new {
                fs.visit.get(switch.index())
            } else {
                None
            };
            if let Some(row) = row {
                let flipped = |a: TimeStep| {
                    old_cut.is_some_and(|c| a >= c) != new_cut.is_some_and(|c| a >= c)
                };
                // One flat pass over the visit row: the consult step is
                // stored right there, so no cohort's hop list is
                // inspected. The slot list reuses a pooled scratch
                // vector.
                for (slot, &a) in row.iter().take(fs.cohorts.len()).enumerate() {
                    if a != NO_VISIT && flipped(a) {
                        affected.push((slot, a));
                    }
                }
            }
        }
        for &(slot, consult) in &affected {
            let tau = self.flows[fi].first_emit + (slot as TimeStep);
            // Split point: the (unique) hop departing from `switch`,
            // or the full hop count when the cohort blackholed there.
            // Everything before it consults only unchanged rules.
            // Departs are non-decreasing, so binary-search to the
            // consult step and scan the (rare) zero-delay ties.
            let pos = {
                let hops = &self.flows[fi].cohorts[slot].hops;
                let mut p = hops.partition_point(|h| h.depart < consult);
                loop {
                    match hops.get(p) {
                        Some(h) if h.depart == consult && h.from != switch => p += 1,
                        Some(h) if h.depart == consult => break p,
                        _ => break hops.len(),
                    }
                }
            };
            self.unindex_suffix(fi, slot, pos);
            let demand = self.flows[fi].table.demand;
            let mut old_suffix = self.arena.take_hops();
            let old_end = {
                let (fs, ledger, stamps) =
                    (&mut self.flows[fi], &mut self.ledger, &mut self.stamps);
                let table = &fs.table;
                // After `unindex_suffix` the visit column for this slot
                // holds exactly the kept prefix's switches, so it doubles
                // as the loop-closure set — no O(prefix) re-marking.
                let visit = &fs.visit;
                let prefix_visited = |w: SwitchId| {
                    visit
                        .get(w.index())
                        .and_then(|row| row.get(slot))
                        .is_some_and(|&a| a != NO_VISIT)
                };
                let cohort = &mut fs.cohorts[slot];
                for hop in &cohort.hops[pos..] {
                    ledger.sub(hop.link, hop.depart, demand);
                    old_suffix.push(*hop);
                }
                cohort.hops.truncate(pos);
                stamps.begin();
                let end = trace_cohort_resume(
                    table,
                    switch,
                    consult,
                    self.max_hops - pos,
                    ledger,
                    stamps,
                    &mut cohort.hops,
                    prefix_visited,
                );
                std::mem::replace(&mut cohort.end, end)
            };
            self.index_suffix(fi, slot, pos);
            delta.retraced.push(RetraceRec {
                tau,
                pos,
                old_suffix,
                old_end,
            });
        }
        self.affected_scratch = affected;
    }
}
