//! Symbolic cohort tracing over emission intervals.
//!
//! The certifier's engine: instead of walking one cohort per emission
//! step τ (what the simulators do), it walks *intervals* of emission
//! steps at once. All cohorts of a flow emitted in `[lo, hi]` follow
//! the same hop sequence until they reach a switch `v` whose scheduled
//! update time `t_v` splits the interval: a cohort emitted at τ arrives
//! at `v` at `τ + δ` (δ = accumulated delay along the common prefix),
//! so it sees the *new* rule iff `τ + δ ≥ t_v`, i.e. iff
//! `τ ≥ t_v − δ`. The decision is monotone in τ, so the interval
//! splits into at most two sub-intervals at the threshold
//! `τ* = t_v − δ`, each continuing with a uniform rule choice.
//!
//! Every hop of a segment contributes its flow's demand to one link
//! over the *departure-time* interval `[lo + δ, hi + δ]` — the
//! interval-arithmetic facts the congestion sweep in [`crate::sweep`]
//! sums against capacities. Loop, blackhole and hop-budget events are
//! recorded per segment with the affine map `time(τ) = τ + offset`, so
//! exact per-cohort event sets can be reproduced for differential
//! testing without ever running a simulator.
//!
//! This module intentionally re-derives all semantics (emission
//! windows, effective-rule selection, hop budget, event timing) from
//! the paper's model; it shares no code with `chronus-timenet`'s
//! simulators beyond the passive data types (`Schedule`, the network).

use crate::certificate::IntervalLoad;
use chronus_net::{Capacity, FlowId, SwitchId, TimeStep, UpdateInstance};
use chronus_timenet::Schedule;
use std::collections::BTreeMap;

/// Horizon slack steps past the analytical horizon, matching the
/// simulator's default safety margin so verdicts line up cell for
/// cell.
pub(crate) const HORIZON_SLACK: TimeStep = 2;

/// One link-load fact: `flow` puts `demand` units on `src → dst` at
/// every departure step in the inclusive interval `[t_lo, t_hi]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Contribution {
    pub src: SwitchId,
    pub dst: SwitchId,
    /// First departure step (inclusive).
    pub t_lo: TimeStep,
    /// Last departure step (inclusive).
    pub t_hi: TimeStep,
    pub demand: Capacity,
    pub flow: FlowId,
}

/// A per-cohort terminal event over an emission interval: every cohort
/// of `flow` emitted at `τ ∈ [tau_lo, tau_hi]` hits the event at
/// `switch` at step `τ + offset`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct EventSpan {
    pub flow: FlowId,
    pub switch: SwitchId,
    pub tau_lo: TimeStep,
    pub tau_hi: TimeStep,
    pub offset: TimeStep,
}

/// The full symbolic account of one `(instance, schedule)` pair:
/// everything the certifier needs to decide consistency and everything
/// a differential test needs to reproduce the simulator's event lists.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Analysis {
    pub(crate) contributions: Vec<Contribution>,
    pub(crate) loops: Vec<EventSpan>,
    pub(crate) blackholes: Vec<EventSpan>,
    /// `(flow, tau_lo, tau_hi)` emission intervals whose cohorts
    /// exhausted the hop budget.
    pub(crate) undelivered: Vec<(FlowId, TimeStep, TimeStep)>,
    /// Schedule makespan clamped to ≥ 0 (the emission-window anchor).
    pub makespan: TimeStep,
    /// Interval segments walked (the certifier's unit of work).
    pub segments_traced: usize,
    /// Individual cohorts the segments jointly cover.
    pub cohorts_covered: u64,
}

impl Analysis {
    /// `true` when no loop, blackhole or hop-budget event exists (the
    /// congestion side is judged separately by the sweep).
    pub fn forwarding_clean(&self) -> bool {
        self.loops.is_empty() && self.blackholes.is_empty() && self.undelivered.is_empty()
    }

    /// Expands loop spans into exact `(flow, emitted_at, switch, time)`
    /// events, one per cohort, in emission order per span.
    pub fn loop_events(&self) -> Vec<(FlowId, TimeStep, SwitchId, TimeStep)> {
        expand(&self.loops)
    }

    /// Expands blackhole spans into `(flow, emitted_at, switch, time)`
    /// events.
    pub fn blackhole_events(&self) -> Vec<(FlowId, TimeStep, SwitchId, TimeStep)> {
        expand(&self.blackholes)
    }

    /// Expands hop-budget spans into `(flow, emitted_at)` pairs.
    pub fn undelivered_events(&self) -> Vec<(FlowId, TimeStep)> {
        let mut out = Vec::new();
        for &(f, lo, hi) in &self.undelivered {
            for tau in lo..=hi {
                out.push((f, tau));
            }
        }
        out
    }

    /// Expands the interval contributions into the dense per-link load
    /// series the simulator reports, for surface-level differential
    /// comparison.
    pub fn load_series(&self) -> BTreeMap<(SwitchId, SwitchId), BTreeMap<TimeStep, Capacity>> {
        let mut out: BTreeMap<(SwitchId, SwitchId), BTreeMap<TimeStep, Capacity>> = BTreeMap::new();
        for c in &self.contributions {
            let series = out.entry((c.src, c.dst)).or_default();
            for t in c.t_lo..=c.t_hi {
                *series.entry(t).or_insert(0) += c.demand;
            }
        }
        out
    }
}

fn expand(spans: &[EventSpan]) -> Vec<(FlowId, TimeStep, SwitchId, TimeStep)> {
    let mut out = Vec::new();
    for s in spans {
        for tau in s.tau_lo..=s.tau_hi {
            out.push((s.flow, tau, s.switch, tau + s.offset));
        }
    }
    out
}

/// One forwarding rule of one flow at one switch, resolved against the
/// network once per [`Certifier`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rule {
    /// The switch is not a non-terminal hop of the path.
    Absent,
    /// The path names a next hop the network has no link to: a rule
    /// that exists (it can split an interval) but forwards nothing.
    Dead,
    /// Forward to `next` over `link` (an index into the certifier's
    /// link table), arriving `delay` steps later.
    Hop {
        next: SwitchId,
        link: u32,
        delay: TimeStep,
    },
}

/// A link some flow's path uses, with what the sweep needs of it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LinkInfo {
    pub src: SwitchId,
    pub dst: SwitchId,
    /// 0 for a path edge the network has no link for.
    pub capacity: Capacity,
    /// `None` for a path edge the network has no link for.
    delay: Option<TimeStep>,
}

/// What the walk needs of one flow besides its rule rows.
#[derive(Clone, Copy, Debug)]
struct FlowInfo {
    id: FlowId,
    demand: Capacity,
    source: SwitchId,
    destination: SwitchId,
    /// First emission step of the transient window, `−φ(p_init)`.
    first_emit: TimeStep,
    /// `φ(p_fin)`: the window ends at `makespan + φ(p_fin) + slack`.
    phi_fin: TimeStep,
}

/// One link-load fact inside the certifier: like [`Contribution`], with
/// the link as an index into the link table.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Load {
    pub link: u32,
    pub t_lo: TimeStep,
    pub t_hi: TimeStep,
    pub demand: Capacity,
    pub flow: FlowId,
}

/// A pending interval segment of the symbolic walk.
#[derive(Clone, Copy, Debug)]
struct Segment {
    /// Emission interval (inclusive).
    lo: TimeStep,
    hi: TimeStep,
    /// Current switch.
    at: SwitchId,
    /// Accumulated delay: a cohort emitted at τ sits at `at` at step
    /// `τ + delta`.
    delta: TimeStep,
    /// Hops consumed so far (against the budget).
    hops: usize,
    /// How much of the shared `visited` stack this segment inherited:
    /// the switches whose rule its walk had consulted when it split off.
    visited_len: usize,
}

/// The certifier's reusable workspace: one instance, any number of
/// schedules.
///
/// [`Certifier::new`] resolves, once, everything that depends only on
/// the instance — per flow a dense old and a dense new next-hop row
/// carrying link index and delay, `φ(p_init)` / `φ(p_fin)`, and the
/// table of links any path uses with their capacities — so the walk
/// never consults the network's hash map. Each run then reuses the
/// same buffers: the schedule table, the segment worklist, one shared
/// `visited` stack, the load and event lists and the sweep's segment
/// list are cleared, never reallocated. Every entry point of this crate
/// ([`crate::certify_with`], [`analyze`], [`crate::slack_certificate`]'s
/// hypercube, …) is a run of this one type.
#[derive(Debug)]
pub struct Certifier<'a> {
    pub(crate) instance: &'a UpdateInstance,
    // Per instance.
    switch_count: usize,
    flows: Vec<FlowInfo>,
    /// `(flow id, index into flows)`, sorted: schedule entries find
    /// their flow(s) by binary search.
    flow_index: Vec<(FlowId, usize)>,
    /// Rule rows, `flows.len() × switch_count`, row-major by flow.
    old_rules: Vec<Rule>,
    new_rules: Vec<Rule>,
    /// Sorted by `(src, dst)`, so link-index order is link order.
    pub(crate) links: Vec<LinkInfo>,
    // Per run.
    /// Scheduled flip time per `(flow, switch)`, laid out like the rule
    /// rows.
    times: Vec<Option<TimeStep>>,
    /// `(schedule entry, cell of times)` for every bound entry that
    /// names a flow of the instance and a switch of the network.
    slots: Vec<(usize, usize)>,
    pub(crate) makespan: TimeStep,
    pub(crate) segments_traced: usize,
    pub(crate) cohorts_covered: u64,
    worklist: Vec<Segment>,
    visited: Vec<SwitchId>,
    pub(crate) loads: Vec<Load>,
    pub(crate) loops: Vec<EventSpan>,
    pub(crate) blackholes: Vec<EventSpan>,
    pub(crate) undelivered: Vec<(FlowId, TimeStep, TimeStep)>,
    // The sweep's scratch and output (see `sweep.rs`).
    pub(crate) events: Vec<crate::sweep::Event>,
    pub(crate) segments: Vec<IntervalLoad>,
    pub(crate) profiles: Vec<crate::sweep::Profile>,
}

impl<'a> Certifier<'a> {
    /// Resolves `instance`'s flows against its network. Costs one hash
    /// lookup per path edge plus two rule rows of `|V|` cells per flow;
    /// every run afterwards is free of both.
    pub fn new(instance: &'a UpdateInstance) -> Self {
        let net = &instance.network;
        let switch_count = net.switch_count();

        let mut endpoints: Vec<(SwitchId, SwitchId)> = instance
            .flows
            .iter()
            .flat_map(|f| f.initial.edges().chain(f.fin.edges()))
            .collect();
        endpoints.sort_unstable();
        endpoints.dedup();
        let links: Vec<LinkInfo> = endpoints
            .into_iter()
            .map(|(src, dst)| {
                let link = net.link_between(src, dst);
                LinkInfo {
                    src,
                    dst,
                    capacity: link.map_or(0, |l| l.capacity),
                    delay: link.map(|l| l.delay as TimeStep),
                }
            })
            .collect();
        let rule = |u: SwitchId, v: SwitchId| {
            let link = links.binary_search_by_key(&(u, v), |l| (l.src, l.dst)).ok();
            match link.and_then(|i| Some((i, links.get(i)?.delay?))) {
                Some((link, delay)) => Rule::Hop {
                    next: v,
                    link: link as u32,
                    delay,
                },
                None => Rule::Dead,
            }
        };

        let cells = instance.flows.len() * switch_count;
        let mut old_rules = vec![Rule::Absent; cells];
        let mut new_rules = vec![Rule::Absent; cells];
        let mut flows = Vec::with_capacity(instance.flows.len());
        for (i, flow) in instance.flows.iter().enumerate() {
            let row = i * switch_count..(i + 1) * switch_count;
            // Rules at switches beyond the network stay off the rows:
            // no cohort can stand there to consult them.
            for (path, rules) in [(&flow.initial, &mut old_rules), (&flow.fin, &mut new_rules)] {
                let Some(row) = rules.get_mut(row.clone()) else {
                    continue;
                };
                for (u, v) in path.edges() {
                    if let Some(cell) = row.get_mut(u.index()) {
                        *cell = rule(u, v);
                    }
                }
            }
            flows.push(FlowInfo {
                id: flow.id,
                demand: flow.demand,
                source: flow.source(),
                destination: flow.destination(),
                first_emit: -(flow.initial.total_delay(net).unwrap_or(0) as TimeStep),
                phi_fin: flow.fin.total_delay(net).unwrap_or(0) as TimeStep,
            });
        }
        let mut flow_index: Vec<(FlowId, usize)> =
            flows.iter().enumerate().map(|(i, f)| (f.id, i)).collect();
        flow_index.sort_unstable();

        Certifier {
            instance,
            switch_count,
            flows,
            flow_index,
            old_rules,
            new_rules,
            links,
            times: vec![None; cells],
            slots: Vec::new(),
            makespan: 0,
            segments_traced: 0,
            cohorts_covered: 0,
            worklist: Vec::new(),
            visited: Vec::new(),
            loads: Vec::new(),
            loops: Vec::new(),
            blackholes: Vec::new(),
            undelivered: Vec::new(),
            events: Vec::new(),
            segments: Vec::new(),
            profiles: Vec::new(),
        }
    }

    /// Makes `schedule` the one the next run judges: clears the cells
    /// the previous schedule set and writes this one's. Entries for
    /// flows outside the instance or switches beyond the network stay
    /// off the table — they can never be consulted — but still count
    /// toward the makespan.
    pub(crate) fn bind(&mut self, schedule: &Schedule) {
        for &(_, cell) in &self.slots {
            if let Some(time) = self.times.get_mut(cell) {
                *time = None;
            }
        }
        self.slots.clear();
        self.makespan = 0;
        for (entry, (flow, switch, t)) in schedule.iter().enumerate() {
            self.makespan = self.makespan.max(t);
            if switch.index() >= self.switch_count {
                continue;
            }
            let first = self.flow_index.partition_point(|&(id, _)| id < flow);
            let same_id = self.flow_index.get(first..).unwrap_or_default();
            for &(_, i) in same_id.iter().take_while(|&&(id, _)| id == flow) {
                let cell = i * self.switch_count + switch.index();
                if let Some(time) = self.times.get_mut(cell) {
                    *time = Some(t);
                    self.slots.push((entry, cell));
                }
            }
        }
    }

    /// Moves the bound schedule's entries to `times` (one per entry, in
    /// the schedule's iteration order) without touching which entries
    /// exist — what a hypercube point is.
    pub(crate) fn set_times(&mut self, times: &[TimeStep]) {
        self.makespan = times.iter().copied().fold(0, TimeStep::max);
        for &(entry, cell) in &self.slots {
            if let (Some(&t), Some(time)) = (times.get(entry), self.times.get_mut(cell)) {
                *time = Some(t);
            }
        }
    }

    /// The symbolic interval trace of every flow under the bound
    /// schedule, into the workspace's load and event lists.
    ///
    /// The emission window per flow is `[−φ(p_init), makespan + φ(p_fin) +
    /// slack]` with the makespan clamped to ≥ 0 and two slack steps — the
    /// same analytic horizon the simulator enumerates, so the certifier
    /// judges exactly the cohorts the simulator would. The hop budget is
    /// `|V| + 2`.
    pub(crate) fn walk(&mut self) {
        let Certifier {
            switch_count,
            flows,
            old_rules,
            new_rules,
            times,
            makespan,
            segments_traced,
            cohorts_covered,
            worklist,
            visited,
            loads,
            loops,
            blackholes,
            undelivered,
            ..
        } = self;
        let max_hops = *switch_count + 2;
        *segments_traced = 0;
        *cohorts_covered = 0;
        loads.clear();
        loops.clear();
        blackholes.clear();
        undelivered.clear();

        for (i, flow) in flows.iter().enumerate() {
            let (from, to) = (i * *switch_count, (i + 1) * *switch_count);
            let (Some(old_row), Some(new_row), Some(time_row)) = (
                old_rules.get(from..to),
                new_rules.get(from..to),
                times.get(from..to),
            ) else {
                continue;
            };
            let last_emit = *makespan + flow.phi_fin + HORIZON_SLACK;
            *cohorts_covered += (last_emit - flow.first_emit + 1).max(0) as u64;
            worklist.push(Segment {
                lo: flow.first_emit,
                hi: last_emit,
                at: flow.source,
                delta: 0,
                hops: 0,
                visited_len: 0,
            });

            // Depth first: a split-off segment shares the switches its
            // parent had visited, and is walked (with everything it
            // splits off in turn) before any segment deferred earlier,
            // so one stack cut back to `visited_len` serves them all.
            while let Some(mut seg) = worklist.pop() {
                visited.truncate(seg.visited_len);
                *segments_traced += 1;
                loop {
                    if seg.hops == max_hops {
                        undelivered.push((flow.id, seg.lo, seg.hi));
                        break;
                    }
                    if seg.at == flow.destination {
                        break;
                    }
                    let inherited = visited.len();
                    visited.push(seg.at);
                    let at = seg.at.index();
                    let old = old_row.get(at).copied().unwrap_or(Rule::Absent);
                    let new = new_row.get(at).copied().unwrap_or(Rule::Absent);
                    // Resolve the effective rule; split the interval when
                    // the switch's scheduled flip falls inside it.
                    let rule = match time_row.get(at).copied().flatten() {
                        Some(tv) if new != Rule::Absent => {
                            let threshold = tv - seg.delta;
                            if threshold <= seg.lo {
                                new
                            } else if threshold > seg.hi {
                                old
                            } else {
                                // Cohorts emitted at τ ≥ threshold take the
                                // new rule; defer them as a fresh segment.
                                worklist.push(Segment {
                                    lo: threshold,
                                    visited_len: inherited,
                                    ..seg
                                });
                                seg.hi = threshold - 1;
                                old
                            }
                        }
                        _ => old,
                    };
                    // No rule, or a rule over a non-existent link
                    // (impossible for validated instances): blackhole.
                    let Rule::Hop { next, link, delay } = rule else {
                        blackholes.push(EventSpan {
                            flow: flow.id,
                            switch: seg.at,
                            tau_lo: seg.lo,
                            tau_hi: seg.hi,
                            offset: seg.delta,
                        });
                        break;
                    };
                    // The hop happens: its load is on the wire even when
                    // the cohort then loops (the simulator records the
                    // loop-entering hop's load too).
                    loads.push(Load {
                        link,
                        t_lo: seg.lo + seg.delta,
                        t_hi: seg.hi + seg.delta,
                        demand: flow.demand,
                        flow: flow.id,
                    });
                    if visited.contains(&next) {
                        loops.push(EventSpan {
                            flow: flow.id,
                            switch: next,
                            tau_lo: seg.lo,
                            tau_hi: seg.hi,
                            offset: seg.delta + delay,
                        });
                        break;
                    }
                    seg.delta += delay;
                    seg.at = next;
                    seg.hops += 1;
                }
            }
        }
    }

    /// Runs the walk for `schedule` and returns its full account.
    pub fn analyze(&mut self, schedule: &Schedule) -> Analysis {
        self.bind(schedule);
        self.walk();
        let mut analysis = Analysis {
            contributions: self
                .loads
                .iter()
                .filter_map(|c| {
                    let link = self.links.get(c.link as usize)?;
                    Some(Contribution {
                        src: link.src,
                        dst: link.dst,
                        t_lo: c.t_lo,
                        t_hi: c.t_hi,
                        demand: c.demand,
                        flow: c.flow,
                    })
                })
                .collect(),
            loops: self.loops.clone(),
            blackholes: self.blackholes.clone(),
            undelivered: self.undelivered.clone(),
            makespan: self.makespan,
            segments_traced: self.segments_traced,
            cohorts_covered: self.cohorts_covered,
        };
        analysis.loops.sort_by_key(|e| (e.flow, e.tau_lo));
        analysis.blackholes.sort_by_key(|e| (e.flow, e.tau_lo));
        analysis.undelivered.sort_unstable();
        analysis
    }

    /// Makes `analysis` the workspace's current run, as if its walk had
    /// produced it (the two-phase account has no walk). Contributions
    /// on links no path of the instance uses cannot come from an
    /// analysis of this instance and are dropped.
    pub(crate) fn adopt(&mut self, analysis: &Analysis) {
        self.makespan = analysis.makespan;
        self.segments_traced = analysis.segments_traced;
        self.cohorts_covered = analysis.cohorts_covered;
        self.loops.clone_from(&analysis.loops);
        self.blackholes.clone_from(&analysis.blackholes);
        self.undelivered.clone_from(&analysis.undelivered);
        self.loads.clear();
        for c in &analysis.contributions {
            let found = self
                .links
                .binary_search_by_key(&(c.src, c.dst), |l| (l.src, l.dst));
            if let Ok(link) = found {
                self.loads.push(Load {
                    link: link as u32,
                    t_lo: c.t_lo,
                    t_hi: c.t_hi,
                    demand: c.demand,
                    flow: c.flow,
                });
            }
        }
    }
}

/// Runs the symbolic interval trace for every flow of `instance` under
/// `schedule`: one run of a fresh [`Certifier`].
pub fn analyze(instance: &UpdateInstance, schedule: &Schedule) -> Analysis {
    Certifier::new(instance).analyze(schedule)
}

/// Symbolic account of a two-phase (tagged) rollout flipping every
/// flow's ingress stamp at `flip_time`: cohorts emitted before the
/// flip traverse the whole old path, cohorts at or after it the whole
/// new path — per-packet consistency by construction, so only the
/// congestion side needs facts. The emission windows around the flip
/// match the two-phase baseline's transient report, making verdicts
/// directly comparable.
pub fn analyze_two_phase(instance: &UpdateInstance, flip_time: TimeStep) -> Analysis {
    let net = &instance.network;
    let mut analysis = Analysis {
        makespan: flip_time.max(0),
        ..Analysis::default()
    };
    for flow in &instance.flows {
        let phi_init = flow.initial.total_delay(net).unwrap_or(0) as TimeStep;
        let phi_fin = flow.fin.total_delay(net).unwrap_or(0) as TimeStep;
        let windows = [
            (
                flip_time - phi_init - HORIZON_SLACK,
                flip_time - 1,
                &flow.initial,
            ),
            (
                flip_time,
                flip_time + phi_fin + phi_init + HORIZON_SLACK,
                &flow.fin,
            ),
        ];
        for (tau_lo, tau_hi, path) in windows {
            if tau_lo > tau_hi {
                continue;
            }
            analysis.segments_traced += 1;
            analysis.cohorts_covered += (tau_hi - tau_lo + 1) as u64;
            let mut delta = 0;
            for (u, v) in path.edges() {
                analysis.contributions.push(Contribution {
                    src: u,
                    dst: v,
                    t_lo: tau_lo + delta,
                    t_hi: tau_hi + delta,
                    demand: flow.demand,
                    flow: flow.id,
                });
                delta += net.delay(u, v).unwrap_or(1) as TimeStep;
            }
        }
    }
    analysis
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::motivating_example;
    use chronus_timenet::FluidSimulator;

    #[test]
    fn interval_trace_matches_simulator_on_motivating_example() {
        let inst = motivating_example();
        for schedule in [
            Schedule::all_at_zero(&inst),
            Schedule::from_pairs(
                chronus_net::FlowId(0),
                [
                    (SwitchId(1), 0),
                    (SwitchId(2), 1),
                    (SwitchId(0), 2),
                    (SwitchId(3), 2),
                ],
            ),
        ] {
            let analysis = analyze(&inst, &schedule);
            let report = FluidSimulator::check(&inst, &schedule);
            let mut sim_loops: Vec<_> = report
                .loops
                .iter()
                .map(|l| (l.flow, l.emitted_at, l.switch, l.time))
                .collect();
            sim_loops.sort_unstable();
            let mut got = analysis.loop_events();
            got.sort_unstable();
            assert_eq!(got, sim_loops);
            assert_eq!(analysis.load_series(), report.link_loads);
        }
    }

    #[test]
    fn splits_cover_every_cohort_exactly_once() {
        let inst = motivating_example();
        let schedule = Schedule::all_at_zero(&inst);
        let analysis = analyze(&inst, &schedule);
        // Segment τ-intervals per flow partition the emission window:
        // delivered + looped + blackholed + undelivered spans together
        // cover every cohort; loads then account each hop once, which
        // the load_series equality in the test above pins down.
        assert!(analysis.segments_traced >= 1);
        assert!(analysis.cohorts_covered > 0);
    }
}
