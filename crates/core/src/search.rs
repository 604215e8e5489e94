//! The exact search behind Algorithm 1 and OPT: one frame, one
//! simulator, one stop condition, two strategies.
//!
//! Both exact questions the paper answers walk the same schedule
//! space. [`Frame`] builds it: fresh switches (no old rule) pinned at
//! step 0, the pending `(flow, switch)` updates whose times the search
//! picks (at most 63, the width of the `u64` state mask), and the
//! drain bound after which waiting can no longer change what an update
//! does (Theorem 2). A search mirrors its partial schedule in one
//! [`IncrementalSimulator`] — one delta per assignment, undone in LIFO
//! order — and stops in one place: after 200 000 probes (the
//! first-feasible strategy only) or past its deadline, whose clock it
//! reads every 16 probes.
//!
//! - First feasible is Algorithm 1's search
//!   ([`crate::tree::check_feasibility`]): a DFS over update
//!   orders that gives each next update the earliest consistent step
//!   within one drain period of the previous one, memoizing the
//!   pending sets that failed — after a full drain the data plane
//!   depends only on *which* switches updated, so a set that failed
//!   once cannot succeed later.
//! - [`minimum_makespan`] is OPT: for growing makespan bounds `M` it
//!   walks the steps `t = 0…M`, choosing which remaining switches
//!   update at `t`. When a step closes, every event at a simulated time
//!   `≤ t` is frozen — later updates only change departures from
//!   `t + 1` on — so a violation there prunes the subtree. The first
//!   bound admitting a consistent schedule is the optimum.
// Search frames index per-item slots minted from the instance's own
// update items; `expect` unwraps the assign/retract delta stack.
#![allow(clippy::indexing_slicing, clippy::expect_used)]

use crate::MutpProblem;
use chronus_net::{FlowId, SwitchId, TimeStep};
use chronus_timenet::{Delta, IncrementalSimulator, Schedule, SimWorkspace, Verdict};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Pending updates the `u64` state mask holds.
const MAX_ITEMS: usize = 63;
/// Probes [`first_feasible`] may spend before it stops.
const MAX_SIMULATIONS: usize = 200_000;
/// Probes between two reads of the clock.
const CLOCK_EVERY: usize = 16;

/// The schedule space an exact search walks.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Fresh switches at step 0. No flow reaches them before some
    /// diverger updates, so step 0 is always safe and never lengthens
    /// the makespan.
    pub base: Schedule,
    /// The pending updates whose times the search picks, flow by flow.
    pub items: Vec<(FlowId, SwitchId)>,
    drain: TimeStep,
}

impl Frame {
    /// The frame of `problem`.
    pub fn new(problem: &MutpProblem<'_>) -> Self {
        let mut base = Schedule::new();
        let mut items = Vec::new();
        for (fi, flow) in problem.flows().iter().enumerate() {
            let fresh = problem.fresh_switches(fi);
            for &v in &fresh {
                base.set(flow.id, v, 0);
            }
            for &v in problem.pending(fi) {
                if !fresh.contains(&v) {
                    items.push((flow.id, v));
                }
            }
        }
        Frame {
            base,
            items,
            drain: problem.drain_bound(),
        }
    }

    /// The frame of `problem`, or [`Search::TooLarge`] when it has more
    /// pending updates than the state mask holds.
    fn sized(problem: &MutpProblem<'_>) -> Result<Self, Search> {
        let frame = Frame::new(problem);
        match frame.items.len() {
            items if items > MAX_ITEMS => Err(Search::TooLarge(items)),
            _ => Ok(frame),
        }
    }
}

/// How an exact search ended.
#[derive(Clone, Debug)]
pub enum Search {
    /// A consistent schedule (uncertified: the caller seals what it
    /// ships).
    Found(Schedule),
    /// The space holds no consistent schedule: none at all for the
    /// first-feasible strategy, none within the bound for
    /// [`minimum_makespan`].
    Exhausted,
    /// The simulation cap or the deadline ended the search first.
    Stopped,
    /// The frame has more pending updates than the state mask holds;
    /// nothing was searched.
    TooLarge(usize),
}

/// Algorithm 1's search: any consistent schedule, or proof that none
/// exists. Stops after `MAX_SIMULATIONS` probes or past `budget`
/// (`Duration::MAX` is no deadline). The simulator runs on
/// `workspace`'s buffers and hands them back.
pub(crate) fn first_feasible(
    problem: &MutpProblem<'_>,
    budget: Duration,
    workspace: &mut SimWorkspace,
) -> Search {
    let frame = match Frame::sized(problem) {
        Ok(frame) => frame,
        Err(too_large) => return too_large,
    };
    let mut searcher = Searcher::new(problem, frame, MAX_SIMULATIONS, budget, workspace);
    let found = searcher.first(searcher.full, 0);
    let search = searcher.finish(found);
    *workspace = searcher.sim.into_workspace();
    search
}

/// OPT: a minimum-makespan consistent schedule among those with
/// makespan `≤ bound()`, by iterative deepening. Stops past `budget`,
/// which starts once the bound is known; it has no simulation cap. The
/// bound is asked for only when the frame fits the state mask: OPT's
/// is a greedy run.
pub fn minimum_makespan(
    problem: &MutpProblem<'_>,
    bound: impl FnOnce() -> TimeStep,
    budget: Duration,
) -> Search {
    let frame = match Frame::sized(problem) {
        Ok(frame) => frame,
        Err(too_large) => return too_large,
    };
    let bound = bound();
    let mut searcher = Searcher::new(
        problem,
        frame,
        usize::MAX,
        budget,
        &mut SimWorkspace::default(),
    );
    // Every exhausted bound unwinds its deltas completely, so the
    // simulator is back at the frame's base when the next one starts.
    for makespan in 0..=bound {
        searcher.makespan = makespan;
        searcher.memo.clear();
        match searcher.step(0, searcher.full) {
            Ok(false) => {}
            found => return searcher.finish(found),
        }
    }
    Search::Exhausted
}

/// The one clock read of the exact search: its deadline.
fn clock() -> Instant {
    // chronus-lint: allow(det-wallclock) — the deadline decides whether an answer comes back, never which
    Instant::now()
}

/// The search ran out of probes or time.
struct Stopped;

/// The one stop condition: a probe cap and an optional deadline.
struct Stop {
    cap: usize,
    deadline: Option<Instant>,
    probes: usize,
}

impl Stop {
    /// Counts one probe, unless the cap or the deadline stops the
    /// search first.
    fn spend(&mut self) -> Result<(), Stopped> {
        let late = || self.deadline.is_some_and(|d| clock() >= d);
        if self.probes >= self.cap || (self.probes.is_multiple_of(CLOCK_EVERY) && late()) {
            return Err(Stopped);
        }
        self.probes += 1;
        Ok(())
    }
}

/// Memo key of [`minimum_makespan`]: (next step, remaining-item mask,
/// time-shifted recent assignments) — see [`Searcher::memo_key`].
type MemoKey = (TimeStep, u64, Vec<(usize, TimeStep)>);

/// Both strategies' state. Their recursions answer `Ok(true)` when
/// `schedule` is complete and consistent, `Ok(false)` when the subtree
/// is exhausted.
struct Searcher {
    frame: Frame,
    /// Mask of every item.
    full: u64,
    /// Mirrors `schedule`; answers consistency and frozen-prefix
    /// queries in O(Δ).
    sim: IncrementalSimulator,
    schedule: Schedule,
    /// Current assignment per item: the schedule's mirror that
    /// `memo_key` reads in one pre-sorted pass.
    assigned: Vec<Option<TimeStep>>,
    /// LIFO stack of simulator deltas, one per live assignment.
    deltas: Vec<Delta>,
    stop: Stop,
    /// The makespan bound of the current deepening round.
    makespan: TimeStep,
    // chronus-lint: allow(det-hash) — membership-only memo of failed item masks; never iterated
    failed: HashSet<u64>,
    // chronus-lint: allow(det-hash) — insert-only visited-state memo; never iterated
    memo: HashSet<MemoKey>,
}

impl Searcher {
    fn new(
        problem: &MutpProblem<'_>,
        frame: Frame,
        cap: usize,
        budget: Duration,
        workspace: &mut SimWorkspace,
    ) -> Self {
        let stop = Stop {
            cap,
            deadline: clock().checked_add(budget),
            probes: 0,
        };
        let items = frame.items.len();
        let mut sim =
            IncrementalSimulator::with_workspace(problem.instance(), std::mem::take(workspace));
        for (flow, v, t) in frame.base.iter() {
            let delta = sim.apply(flow, v, t);
            sim.commit(delta); // the base is never undone
        }
        Searcher {
            full: (1u64 << items) - 1,
            sim,
            schedule: frame.base.clone(),
            frame,
            assigned: vec![None; items],
            deltas: Vec::new(),
            stop,
            makespan: 0,
            // chronus-lint: allow(det-hash) — see the field declaration
            failed: HashSet::new(),
            // chronus-lint: allow(det-hash) — see the field declaration
            memo: HashSet::new(),
        }
    }

    fn finish(&mut self, found: Result<bool, Stopped>) -> Search {
        match found {
            Ok(true) => Search::Found(std::mem::take(&mut self.schedule)),
            Ok(false) => Search::Exhausted,
            Err(Stopped) => Search::Stopped,
        }
    }

    /// Records `items[i] @ t` in the schedule, the assignment mirror
    /// and the simulator.
    fn assign(&mut self, i: usize, t: TimeStep) {
        let (flow, v) = self.frame.items[i];
        self.schedule.set(flow, v, t);
        self.assigned[i] = Some(t);
        self.deltas.push(self.sim.apply(flow, v, t));
    }

    /// Reverts the most recent [`Searcher::assign`], of `items[i]`.
    fn retract(&mut self, i: usize) {
        let (flow, v) = self.frame.items[i];
        self.schedule.unset(flow, v);
        self.assigned[i] = None;
        self.sim
            .undo(self.deltas.pop().expect("assign/retract imbalance"));
    }

    /// First feasible: commits one pending item of `mask` at the
    /// earliest consistent step in `t0..=t0 + drain`, then the rest.
    fn first(&mut self, mask: u64, t0: TimeStep) -> Result<bool, Stopped> {
        if mask == 0 {
            return Ok(true);
        }
        if self.failed.contains(&mask) {
            return Ok(false);
        }
        let mut bits = mask;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            for t in t0..=t0 + self.frame.drain {
                self.stop.spend()?;
                self.assign(i, t);
                if self.sim.verdict() == Verdict::Consistent && self.first(mask & !(1 << i), t)? {
                    return Ok(true);
                }
                self.retract(i);
            }
        }
        self.failed.insert(mask);
        Ok(false)
    }

    /// Memo key for the state reached after closing step `t − 1`:
    /// besides `(t, remaining)`, only the assignments within the last
    /// drain period still influence the future — all events up to the
    /// current step are already certified clean, older updates have
    /// fully drained, and which rules are new is captured by
    /// `remaining`. Two states agreeing on this key have identical
    /// futures, so memoizing their exhaustion is sound.
    fn memo_key(&self, t: TimeStep, remaining: u64) -> MemoKey {
        let window_start = t - self.frame.drain;
        // `assigned` is indexed by item, so the pairs come out already
        // sorted by `i` (each `i` appears at most once).
        let recent: Vec<(usize, TimeStep)> = self
            .assigned
            .iter()
            .enumerate()
            .filter_map(|(i, tv)| {
                tv.filter(|&tv| tv > window_start).map(|tv| (i, tv - t)) // time-shift-invariant offset
            })
            .collect();
        // Absolute `t` stays in the key: the remaining makespan budget
        // `M − t` is part of the state even when the data plane looks
        // identical.
        (t, remaining, recent)
    }

    /// Minimum makespan: decides the update set of step `t` and
    /// recurses to `t + 1`.
    fn step(&mut self, t: TimeStep, remaining: u64) -> Result<bool, Stopped> {
        if remaining == 0 {
            self.stop.spend()?;
            return Ok(self.sim.verdict() == Verdict::Consistent);
        }
        if t > self.makespan || !self.memo.insert(self.memo_key(t, remaining)) {
            return Ok(false);
        }
        self.choose(t, remaining, 0, remaining)
    }

    /// Enumerates the subsets of `remaining` that update at step `t`,
    /// one item at a time (`undecided` holds the items not yet
    /// placed).
    fn choose(
        &mut self,
        t: TimeStep,
        remaining: u64,
        chosen: u64,
        undecided: u64,
    ) -> Result<bool, Stopped> {
        if undecided == 0 {
            // Step t closed: events at times ≤ t are frozen, and a
            // violation among them cannot be repaired by later updates.
            self.stop.spend()?;
            return Ok(
                !self.sim.has_violation_at_or_before(t) && self.step(t + 1, remaining & !chosen)?
            );
        }
        let i = undecided.trailing_zeros() as usize;
        let bit = 1u64 << i;
        let rest = undecided & !bit;
        // Update item i at step t…
        self.assign(i, t);
        if self.choose(t, remaining, chosen | bit, rest)? {
            return Ok(true);
        }
        self.retract(i);
        // …or defer it, when steps remain.
        Ok(t < self.makespan && self.choose(t, remaining, chosen, rest)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::motivating_example;

    #[test]
    fn the_probe_cap_stops_the_search() {
        let inst = motivating_example();
        let problem = MutpProblem::new(&inst).unwrap();
        let ws = &mut SimWorkspace::default();
        let frame = Frame::sized(&problem).ok().unwrap();
        let mut searcher = Searcher::new(&problem, frame, 1, Duration::MAX, ws);
        let found = searcher.first(searcher.full, 0);
        assert!(matches!(searcher.finish(found), Search::Stopped));
    }

    #[test]
    fn a_spent_deadline_stops_the_search() {
        let inst = motivating_example();
        let problem = MutpProblem::new(&inst).unwrap();
        assert!(matches!(
            first_feasible(&problem, Duration::ZERO, &mut SimWorkspace::default()),
            Search::Stopped
        ));
        assert!(matches!(
            minimum_makespan(&problem, || 2, Duration::ZERO),
            Search::Stopped
        ));
        match minimum_makespan(&problem, || 2, Duration::from_secs(60)) {
            Search::Found(schedule) => assert_eq!(schedule.makespan(), Some(2)),
            other => panic!("expected the optimum, got {other:?}"),
        }
        // Below the optimum the bounded space is empty.
        assert!(matches!(
            minimum_makespan(&problem, || 1, Duration::from_secs(60)),
            Search::Exhausted
        ));
    }
}
