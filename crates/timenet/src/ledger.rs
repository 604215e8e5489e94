//! Dense `link × time` load accounting.
//!
//! The fluid model only ever loads links that lie on some flow's
//! initial or final path, so a [`LinkInterner`] built once per instance
//! maps those few links to small dense ids. A [`LoadLedger`] then keeps
//! the whole load surface `x_{u,v}(t)` as a single flat
//! `Vec<Capacity>` indexed by `(t − t_lo) · n_links + link`, replacing
//! the nested `HashMap<(SwitchId, SwitchId), HashMap<TimeStep, _>>` of
//! the original simulator. Besides being allocation- and hash-free on
//! the hot path, the ledger maintains overload counters as loads are
//! added and removed, so the *verdict-relevant* congestion state is
//! available in O(1) at any point of an incremental apply/undo
//! sequence (see [`crate::IncrementalSimulator`]).
// The flat `(time, link)` cell indexing is the module's invariant:
// interner ids and window offsets are minted here and bounds-checked
// at construction.
#![allow(clippy::indexing_slicing)]

use crate::arena::{BitRows, SimArena, StepCounts};
use crate::report::CongestionEvent;
use chronus_net::{Capacity, SwitchId, TimeStep, UpdateInstance};
use std::collections::{BTreeMap, HashMap};

/// One link as seen by the ledger: endpoints plus the two attributes
/// the simulator needs on every hop.
#[derive(Clone, Copy, Debug)]
pub struct InternedLink {
    /// Link tail.
    pub src: SwitchId,
    /// Link head.
    pub dst: SwitchId,
    /// Capacity `C(src, dst)`.
    pub capacity: Capacity,
    /// Transmission delay `σ(src, dst)`, widened for time arithmetic.
    pub delay: TimeStep,
}

/// Dense ids for the links a set of flows can ever load: the union of
/// all initial- and final-path edges that exist in the network. Built
/// once per instance; lookups afterwards are a single hash probe (and
/// the simulators cache the resolved id inside their rule tables, so
/// even that probe leaves the per-hop path).
#[derive(Clone, Debug, Default)]
pub struct LinkInterner {
    // chronus-lint: allow(det-hash) — endpoint -> id lookup; read by key only, never iterated
    by_endpoints: HashMap<(SwitchId, SwitchId), u32>,
    links: Vec<InternedLink>,
}

impl LinkInterner {
    /// Interns every network-backed path edge of every flow.
    pub fn for_instance(instance: &UpdateInstance) -> Self {
        let mut interner = LinkInterner::default();
        for flow in &instance.flows {
            for (u, v) in flow.initial.edges().chain(flow.fin.edges()) {
                if interner.by_endpoints.contains_key(&(u, v)) {
                    continue;
                }
                if let Some(link) = instance.network.link_between(u, v) {
                    let id = interner.links.len() as u32;
                    interner.by_endpoints.insert((u, v), id);
                    interner.links.push(InternedLink {
                        src: u,
                        dst: v,
                        capacity: link.capacity,
                        delay: link.delay as TimeStep,
                    });
                }
            }
        }
        interner
    }

    /// Number of interned links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// `true` when no link was interned (no-op instances).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The dense id of `⟨u, v⟩`, if that link was interned.
    pub fn get(&self, u: SwitchId, v: SwitchId) -> Option<u32> {
        self.by_endpoints.get(&(u, v)).copied()
    }

    /// The link stored under dense id `id`.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this interner.
    pub fn link(&self, id: u32) -> &InternedLink {
        &self.links[id as usize]
    }
}

/// The dense load surface plus congestion bookkeeping.
///
/// Cell `(link, t)` lives at flat index `(t − t_lo) · n_links + link`
/// (time-major, so extending the simulation horizon appends at the
/// high end). Two `u64`-word bit-row sets shadow the surface — one bit
/// per cell for "loaded" and one for "overloaded" — so sweeps for
/// congestion events or load series skip empty words instead of
/// visiting every cell. [`LoadLedger::add`] and [`LoadLedger::sub`]
/// keep a count of overloaded cells and a dense per-step overload
/// multiset (`StepCounts`), giving O(1) congestion verdicts and O(1)
/// "any overload at time ≤ t" range queries without rescanning the
/// surface.
#[derive(Debug)]
pub struct LoadLedger {
    n_links: usize,
    t_lo: TimeStep,
    steps: usize,
    loads: Vec<Capacity>,
    capacities: Vec<Capacity>,
    /// Bit per cell: load > 0 (any step).
    occ: BitRows,
    /// Bit per cell: load > capacity at a step ≥ 0.
    over: BitRows,
    overloaded_cells: usize,
    overload_steps: StepCounts,
    cell_visits: u64,
}

impl LoadLedger {
    /// An empty ledger whose window starts at `t_lo` (the earliest
    /// emission step of any flow; loads before it cannot occur).
    pub fn new(interner: &LinkInterner, t_lo: TimeStep) -> Self {
        Self::with_arena(interner, t_lo, &mut SimArena::default())
    }

    /// Like [`LoadLedger::new`], recycling `arena`'s flat buffers as
    /// storage (see [`crate::SimWorkspace`]).
    pub(crate) fn with_arena(
        interner: &LinkInterner,
        t_lo: TimeStep,
        arena: &mut SimArena,
    ) -> Self {
        let mut loads = std::mem::take(&mut arena.loads);
        loads.clear();
        LoadLedger {
            n_links: interner.len(),
            t_lo,
            steps: 0,
            loads,
            capacities: interner.links.iter().map(|l| l.capacity).collect(),
            occ: arena.take_occ(interner.len()),
            over: arena.take_over(interner.len()),
            overloaded_cells: 0,
            overload_steps: arena.take_step_counts(),
            cell_visits: 0,
        }
    }

    #[inline]
    fn idx(&self, link: u32, t: TimeStep) -> usize {
        debug_assert!(t >= self.t_lo, "load before the ledger window");
        ((t - self.t_lo) as usize) * self.n_links + (link as usize)
    }

    /// Grows the window to include step `t` (zero-filled).
    fn ensure_step(&mut self, t: TimeStep) {
        let needed = ((t - self.t_lo) as usize) + 1;
        if needed > self.steps {
            self.steps = needed;
            self.loads.resize(needed * self.n_links, 0);
            self.occ.ensure_rows(needed);
            self.over.ensure_rows(needed);
        }
    }

    /// Adds `demand` to cell `(link, t)`; returns the new load.
    pub fn add(&mut self, link: u32, t: TimeStep, demand: Capacity) -> Capacity {
        self.cell_visits += 1;
        self.ensure_step(t);
        let step = (t - self.t_lo) as usize;
        let cap = self.capacities[link as usize];
        let cell = &mut self.loads[step * self.n_links + (link as usize)];
        let before = *cell;
        *cell += demand;
        let after = *cell;
        if before == 0 && after > 0 {
            self.occ.set(step, link as usize);
        }
        if t >= 0 && before <= cap && after > cap {
            self.overloaded_cells += 1;
            self.overload_steps.inc(t);
            self.over.set(step, link as usize);
        }
        after
    }

    /// Removes `demand` from cell `(link, t)`; returns the new load.
    ///
    /// # Panics
    /// Debug-panics if the cell held less than `demand` (an apply/undo
    /// pairing bug).
    pub fn sub(&mut self, link: u32, t: TimeStep, demand: Capacity) -> Capacity {
        self.cell_visits += 1;
        let i = self.idx(link, t);
        let step = (t - self.t_lo) as usize;
        let cap = self.capacities[link as usize];
        let cell = &mut self.loads[i];
        debug_assert!(*cell >= demand, "ledger underflow: unpaired sub");
        let before = *cell;
        *cell -= demand;
        let after = *cell;
        if before > 0 && after == 0 {
            self.occ.clear(step, link as usize);
        }
        if t >= 0 && before > cap && after <= cap {
            self.overloaded_cells -= 1;
            self.overload_steps.dec(t);
            self.over.clear(step, link as usize);
        }
        after
    }

    /// The load of cell `(link, t)` (0 outside the window).
    pub fn load(&self, link: u32, t: TimeStep) -> Capacity {
        if t < self.t_lo || (t - self.t_lo) as usize >= self.steps {
            return 0;
        }
        self.loads[self.idx(link, t)]
    }

    /// Number of currently overloaded cells at steps ≥ 0.
    pub fn overloaded_cell_count(&self) -> usize {
        self.overloaded_cells
    }

    /// `true` iff some cell at a step in `[0, t]` is overloaded — O(1)
    /// via the dense overload multiset's cached minimum.
    pub fn has_overload_at_or_before(&self, t: TimeStep) -> bool {
        self.overload_steps.any_at_or_before(t)
    }

    /// Total `add`/`sub` cell touches over the ledger's lifetime — the
    /// work metric the incremental gate reports against full
    /// re-simulation.
    pub fn cell_visits(&self) -> u64 {
        self.cell_visits
    }

    /// All congestion events currently on the surface, ordered by
    /// `(time, src, dst)` exactly like [`crate::FluidSimulator`].
    /// Sweeps only the overload bit rows, so the cost is proportional
    /// to the occupancy words plus the events themselves, not the
    /// whole surface.
    pub fn congestion_events(&self, interner: &LinkInterner) -> Vec<CongestionEvent> {
        let mut events = Vec::new();
        let first = self.t_lo.max(0);
        for t in first..self.t_lo + (self.steps as TimeStep) {
            let step = (t - self.t_lo) as usize;
            let row = step * self.n_links;
            self.over.for_each_set(step, |link| {
                let load = self.loads[row + link];
                let cap = self.capacities[link];
                debug_assert!(load > cap, "overload bit out of sync");
                let l = interner.link(link as u32);
                events.push(CongestionEvent {
                    src: l.src,
                    dst: l.dst,
                    time: t,
                    load,
                    capacity: cap,
                });
            });
        }
        events.sort_by_key(|c| (c.time, c.src, c.dst));
        events
    }

    /// The sparse per-link load series in the
    /// [`crate::SimulationReport::link_loads`] format (non-zero cells
    /// only, found by sweeping the occupancy bit rows).
    pub fn link_loads(
        &self,
        interner: &LinkInterner,
    ) -> BTreeMap<(SwitchId, SwitchId), BTreeMap<TimeStep, Capacity>> {
        let mut out: BTreeMap<(SwitchId, SwitchId), BTreeMap<TimeStep, Capacity>> = BTreeMap::new();
        for step in 0..self.steps {
            let t = self.t_lo + (step as TimeStep);
            let row = step * self.n_links;
            self.occ.for_each_set(step, |link| {
                let load = self.loads[row + link];
                debug_assert!(load > 0, "occupancy bit out of sync");
                let l = interner.link(link as u32);
                out.entry((l.src, l.dst)).or_default().insert(t, load);
            });
        }
        out
    }

    /// Occupancy words (`u64`s) across the ledger's two bit-row sets.
    pub fn occupancy_words(&self) -> u64 {
        (self.occ.word_count() + self.over.word_count()) as u64
    }

    /// Returns the flat buffers to `arena` for reuse (see
    /// [`crate::SimWorkspace`]).
    pub(crate) fn into_arena(mut self, arena: &mut SimArena) {
        self.loads.clear();
        arena.loads = self.loads;
        arena.put_rows(self.occ, self.over);
        arena.put_step_counts(self.overload_steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{motivating_example, Flow, FlowId, NetworkBuilder, Path};

    fn sid(i: u32) -> SwitchId {
        SwitchId(i)
    }

    fn diamond_instance() -> UpdateInstance {
        let mut b = NetworkBuilder::with_switches(4);
        b.add_link(sid(0), sid(1), 2, 1).unwrap();
        b.add_link(sid(1), sid(3), 2, 1).unwrap();
        b.add_link(sid(0), sid(2), 2, 1).unwrap();
        b.add_link(sid(2), sid(3), 2, 1).unwrap();
        let flow = Flow::new(
            FlowId(0),
            1,
            Path::new(vec![sid(0), sid(1), sid(3)]),
            Path::new(vec![sid(0), sid(2), sid(3)]),
        )
        .unwrap();
        UpdateInstance::single(b.build(), flow).unwrap()
    }

    #[test]
    fn interner_covers_exactly_the_path_links() {
        let inst = diamond_instance();
        let it = LinkInterner::for_instance(&inst);
        assert_eq!(it.len(), 4);
        assert!(!it.is_empty());
        for (u, v) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
            let id = it.get(sid(u), sid(v)).expect("path link interned");
            let l = it.link(id);
            assert_eq!((l.src, l.dst), (sid(u), sid(v)));
            assert_eq!(l.capacity, 2);
            assert_eq!(l.delay, 1);
        }
        assert_eq!(it.get(sid(1), sid(0)), None);
    }

    #[test]
    fn interner_skips_off_network_edges_and_dedups() {
        let inst = motivating_example();
        let it = LinkInterner::for_instance(&inst);
        // Every interned link must exist in the network.
        for id in 0..it.len() as u32 {
            let l = it.link(id);
            assert!(inst.network.link_between(l.src, l.dst).is_some());
            assert_eq!(it.get(l.src, l.dst), Some(id));
        }
    }

    #[test]
    fn overload_accounting_tracks_adds_and_subs() {
        let inst = diamond_instance();
        let it = LinkInterner::for_instance(&inst);
        let mut ledger = LoadLedger::new(&it, -3);
        let link = it.get(sid(0), sid(1)).unwrap();

        assert_eq!(ledger.add(link, 2, 2), 2);
        assert_eq!(ledger.overloaded_cell_count(), 0);
        assert_eq!(ledger.add(link, 2, 1), 3); // 3 > capacity 2
        assert_eq!(ledger.overloaded_cell_count(), 1);
        assert!(ledger.has_overload_at_or_before(2));
        assert!(!ledger.has_overload_at_or_before(1));

        // Pre-step-0 overloads are steady state and never counted.
        assert_eq!(ledger.add(link, -2, 5), 5);
        assert_eq!(ledger.overloaded_cell_count(), 1);

        assert_eq!(ledger.sub(link, 2, 1), 2);
        assert_eq!(ledger.overloaded_cell_count(), 0);
        assert!(!ledger.has_overload_at_or_before(100));
        assert_eq!(ledger.load(link, 2), 2);
        assert_eq!(ledger.load(link, 99), 0);
        assert!(ledger.cell_visits() >= 4);
    }

    #[test]
    fn congestion_events_and_link_loads_round_trip() {
        let inst = diamond_instance();
        let it = LinkInterner::for_instance(&inst);
        let mut ledger = LoadLedger::new(&it, 0);
        let a = it.get(sid(0), sid(1)).unwrap();
        let b = it.get(sid(2), sid(3)).unwrap();
        ledger.add(a, 1, 3);
        ledger.add(b, 0, 3);
        ledger.add(b, 1, 1);

        let events = ledger.congestion_events(&it);
        assert_eq!(events.len(), 2);
        assert_eq!((events[0].time, events[0].src), (0, sid(2)));
        assert_eq!((events[1].time, events[1].src), (1, sid(0)));

        let loads = ledger.link_loads(&it);
        assert_eq!(loads[&(sid(0), sid(1))][&1], 3);
        assert_eq!(loads[&(sid(2), sid(3))].len(), 2);
        assert!(!loads.contains_key(&(sid(0), sid(2))));
    }
}
