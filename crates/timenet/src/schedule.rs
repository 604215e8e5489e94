//! Timed update schedules: the solution object `{⟨v_i, t_j⟩}` of MUTP.

use chronus_net::{FlowId, NetError, SwitchId, TimeStep, UpdateInstance};
use std::collections::BTreeMap;
use std::fmt;

/// An assignment of update time points to `(flow, switch)` pairs —
/// the output format of Algorithm 2 ("a solution `{⟨v_i, t_j⟩}` which
/// indicates that `v_i` is updated at `t_j`").
///
/// Time `0` is the current step `t₀`; the paper forbids scheduling
/// updates at history steps, so all times must be ≥ 0
/// ([`Schedule::validate`]).
///
/// For the single-flow instances the paper's algorithms target, use the
/// [`Schedule::set`]/[`Schedule::get`] accessors with the flow's id.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schedule {
    times: BTreeMap<(FlowId, SwitchId), TimeStep>,
}

impl Schedule {
    /// An empty schedule (nothing updates).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a single-flow schedule from `(switch, time)` pairs.
    // chronus-lint: allow(dead-pub) — read by crates/verify/tests/edge_cases.rs
    pub fn from_pairs(flow: FlowId, pairs: impl IntoIterator<Item = (SwitchId, TimeStep)>) -> Self {
        let mut s = Self::new();
        for (v, t) in pairs {
            s.set(flow, v, t);
        }
        s
    }

    /// A schedule that updates every switch of every flow at step 0 —
    /// the "all at once" strawman of paper Fig. 2(a).
    pub fn all_at_zero(instance: &UpdateInstance) -> Self {
        let mut s = Self::new();
        for f in &instance.flows {
            for v in f.switches_to_update() {
                s.set(f.id, v, 0);
            }
        }
        s
    }

    /// Sets the update time of `switch` for `flow`, replacing any
    /// previous assignment.
    pub fn set(&mut self, flow: FlowId, switch: SwitchId, t: TimeStep) {
        self.times.insert((flow, switch), t);
    }

    /// The update time of `switch` for `flow`, if scheduled.
    pub fn get(&self, flow: FlowId, switch: SwitchId) -> Option<TimeStep> {
        self.times.get(&(flow, switch)).copied()
    }

    /// Removes an assignment, returning the previous time if any.
    pub fn unset(&mut self, flow: FlowId, switch: SwitchId) -> Option<TimeStep> {
        self.times.remove(&(flow, switch))
    }

    /// Number of scheduled updates.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Iterator over all `((flow, switch), time)` assignments in
    /// deterministic (flow, switch) order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, SwitchId, TimeStep)> + '_ {
        self.times.iter().map(|(&(f, v), &t)| (f, v, t))
    }

    /// The makespan: the latest scheduled time, or `None` for an empty
    /// schedule. The MUTP objective is `makespan + 1` time steps
    /// (`|T|` in program (3)).
    pub fn makespan(&self) -> Option<TimeStep> {
        self.times.values().copied().max()
    }

    /// Number of *distinct* time points used — the paper reports update
    /// time in rounds/steps.
    // chronus-lint: allow(dead-pub) — read by tests/paper_example.rs
    pub fn distinct_steps(&self) -> usize {
        let mut ts: Vec<TimeStep> = self.times.values().copied().collect();
        ts.sort_unstable();
        ts.dedup();
        ts.len()
    }

    /// Groups assignments by time step, ascending — the form Algorithm 5
    /// consumes ("sort `{⟨v_i, t_j⟩}` according to `t_j`").
    pub fn by_step(&self) -> BTreeMap<TimeStep, Vec<(FlowId, SwitchId)>> {
        let mut map: BTreeMap<TimeStep, Vec<(FlowId, SwitchId)>> = BTreeMap::new();
        for (&(f, v), &t) in &self.times {
            map.entry(t).or_default().push((f, v));
        }
        map
    }

    /// Checks the schedule against an instance:
    ///
    /// - no update may be scheduled in the past (`t < 0`);
    /// - every switch that [`chronus_net::Flow::switches_to_update`]
    ///   requires must be scheduled (otherwise the migration never
    ///   completes and new-path switches blackhole).
    ///
    /// # Errors
    /// [`NetError::UpdateInThePast`] or [`NetError::UnknownSwitch`] for
    /// a missing required switch.
    pub fn validate(&self, instance: &UpdateInstance) -> Result<(), NetError> {
        for (&(_, v), &t) in &self.times {
            if t < 0 {
                return Err(NetError::UpdateInThePast(v, t));
            }
        }
        for f in &instance.flows {
            for v in f.switches_to_update() {
                if self.get(f.id, v).is_none() {
                    return Err(NetError::UnknownSwitch(v));
                }
            }
        }
        Ok(())
    }

    /// Shifts every assignment by `delta` steps.
    pub fn shift(&mut self, delta: TimeStep) {
        for t in self.times.values_mut() {
            *t += delta;
        }
    }

    /// Multiplies every assigned step by `factor`, stretching the gaps
    /// between dependent updates — the slack-buying transform. A plan
    /// whose dependencies sit exactly one step apart certifies zero
    /// timing tolerance; dilating it trades makespan for certified
    /// slack (every ordering constraint that held at gap 1 holds at
    /// gap `factor`, with `factor − 1` spare steps in between).
    ///
    /// # Panics
    /// Panics if `factor < 1` (a factor of 1 is the identity).
    pub fn dilate(&mut self, factor: TimeStep) {
        assert!(factor >= 1, "dilation factor must be >= 1");
        for t in self.times.values_mut() {
            *t *= factor;
        }
    }

    /// A dilated copy (see [`Schedule::dilate`]).
    #[must_use]
    pub fn dilated(&self, factor: TimeStep) -> Self {
        let mut s = self.clone();
        s.dilate(factor);
        s
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, updates) in self.by_step() {
            write!(f, "t{t}:")?;
            for (flow, v) in updates {
                write!(f, " {flow}/{v}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{motivating_example, Flow, FlowId, Path};

    fn sid(i: u32) -> SwitchId {
        SwitchId(i)
    }

    #[test]
    fn set_get_unset() {
        let mut s = Schedule::new();
        assert!(s.is_empty());
        s.set(FlowId(0), sid(1), 3);
        s.set(FlowId(0), sid(2), 1);
        assert_eq!(s.get(FlowId(0), sid(1)), Some(3));
        assert_eq!(s.get(FlowId(1), sid(1)), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.unset(FlowId(0), sid(1)), Some(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn makespan_and_steps() {
        let s = Schedule::from_pairs(FlowId(0), [(sid(1), 0), (sid(2), 2), (sid(3), 2)]);
        assert_eq!(s.makespan(), Some(2));
        assert_eq!(s.distinct_steps(), 2);
        let by = s.by_step();
        assert_eq!(by[&2].len(), 2);
        assert_eq!(by[&0], vec![(FlowId(0), sid(1))]);
        assert_eq!(Schedule::new().makespan(), None);
    }

    #[test]
    fn validate_rejects_past_and_missing() {
        let inst = motivating_example();
        let flow = inst.flow().id;
        let mut s = Schedule::all_at_zero(&inst);
        assert!(s.validate(&inst).is_ok());
        s.set(flow, sid(0), -1);
        assert!(matches!(
            s.validate(&inst),
            Err(NetError::UpdateInThePast(_, -1))
        ));
        s.unset(flow, sid(0));
        assert!(s.validate(&inst).is_err(), "missing required switch");
    }

    #[test]
    fn all_at_zero_covers_required_switches() {
        let inst = motivating_example();
        let s = Schedule::all_at_zero(&inst);
        assert_eq!(s.len(), inst.flow().switches_to_update().len());
        assert_eq!(s.makespan(), Some(0));
    }

    #[test]
    fn dilate_stretches_gaps_preserving_order() {
        let s = Schedule::from_pairs(FlowId(0), [(sid(1), 0), (sid(2), 1), (sid(3), 2)]);
        let d = s.dilated(3);
        assert_eq!(d.get(FlowId(0), sid(1)), Some(0));
        assert_eq!(d.get(FlowId(0), sid(2)), Some(3));
        assert_eq!(d.get(FlowId(0), sid(3)), Some(6));
        assert_eq!(d.makespan(), Some(6));
        assert_eq!(d.distinct_steps(), s.distinct_steps());
        // Factor 1 is the identity.
        assert_eq!(s.dilated(1), s);
    }

    #[test]
    #[should_panic(expected = "dilation factor")]
    fn dilate_rejects_zero_factor() {
        let mut s = Schedule::from_pairs(FlowId(0), [(sid(1), 1)]);
        s.dilate(0);
    }

    #[test]
    fn display_groups_by_step() {
        let s = Schedule::from_pairs(FlowId(0), [(sid(1), 0), (sid(2), 1)]);
        let out = s.to_string();
        assert!(out.contains("t0: f0/s1"));
        assert!(out.contains("t1: f0/s2"));
    }

    #[test]
    fn validate_ok_when_extra_switches_scheduled() {
        // Scheduling a switch that does not strictly need an update
        // (e.g. v5 in the paper's example, updated for garbage collection)
        // is allowed.
        let p = Path::new(vec![sid(0), sid(1), sid(2)]);
        let q = Path::new(vec![sid(0), sid(1), sid(2)]);
        let f = Flow::new(FlowId(0), 1, p, q).unwrap();
        assert!(f.switches_to_update().is_empty());
        let mut net = chronus_net::NetworkBuilder::with_switches(3);
        net.add_link(sid(0), sid(1), 1, 1).unwrap();
        net.add_link(sid(1), sid(2), 1, 1).unwrap();
        let inst = chronus_net::UpdateInstance::single(net.build(), f).unwrap();
        let s = Schedule::from_pairs(FlowId(0), [(sid(0), 5)]);
        assert!(s.validate(&inst).is_ok());
    }
}
