//! Per-link sweep-line over interval load contributions.
//!
//! Congestion-freedom is decided by pure interval arithmetic: each
//! contribution is a half-open interval `[t_lo, t_hi + 1)` of departure
//! steps carrying a constant demand, so per link the total load is a
//! step function whose breakpoints are contribution endpoints. The
//! sweep turns every load into a `+demand` / `−demand` pair of events,
//! sorts the flat list by `(link, time)`, accumulates the deltas and
//! emits the maximal constant-load segments — the certificate's
//! per-interval load bounds — into one flat segment list with a
//! [`Profile`] per link. A segment that intersects `t ≥ 0` and exceeds
//! the link's capacity is congestion (steps < 0 are the feasible
//! pre-update steady state, exactly the simulator's rule).

use crate::certificate::{IntervalLoad, LinkBound, Violation};
use crate::trace::{Certifier, EventSpan};
use chronus_net::{Capacity, SwitchId, TimeStep};

/// One breakpoint of one link's load step function.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Event {
    link: u32,
    t: TimeStep,
    delta: i128,
}

/// One loaded link's stretch of the flat segment list. A link whose
/// loads sum to nothing still has a profile (with no segments).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Profile {
    link: u32,
    start: usize,
    end: usize,
}

impl Certifier<'_> {
    /// Folds the current run's loads into per-link constant-load
    /// segments, sorted by link then by time. Zero-load gaps are
    /// omitted.
    pub(crate) fn sweep(&mut self) {
        let Certifier {
            loads,
            events,
            segments,
            profiles,
            ..
        } = self;
        events.clear();
        segments.clear();
        profiles.clear();
        for c in loads.iter() {
            let demand = i128::from(c.demand);
            events.push(Event {
                link: c.link,
                t: c.t_lo,
                delta: demand,
            });
            events.push(Event {
                link: c.link,
                t: c.t_hi + 1,
                delta: -demand,
            });
        }
        events.sort_unstable_by_key(|e| (e.link, e.t));

        let mut rest = events.as_slice();
        while let Some(&Event { link, .. }) = rest.first() {
            let start = segments.len();
            let mut load: i128 = 0;
            let mut prev: Option<TimeStep> = None;
            while let Some(&Event { t, .. }) = rest.first().filter(|e| e.link == link) {
                if let Some(from) = prev {
                    if load > 0 {
                        let level = Capacity::try_from(load).unwrap_or(Capacity::MAX);
                        match segments.get_mut(start..).and_then(<[_]>::last_mut) {
                            Some(last) if last.end == from && last.load == level => last.end = t,
                            _ => segments.push(IntervalLoad {
                                start: from,
                                end: t,
                                load: level,
                            }),
                        }
                    }
                }
                while let Some(e) = rest.first().filter(|e| e.link == link && e.t == t) {
                    load += e.delta;
                    rest = rest.get(1..).unwrap_or_default();
                }
                prev = Some(t);
            }
            profiles.push(Profile {
                link,
                start,
                end: segments.len(),
            });
        }
    }

    /// Every swept link with its endpoints, capacity and segments.
    fn profiles(
        &self,
    ) -> impl Iterator<Item = (SwitchId, SwitchId, Capacity, &[IntervalLoad])> + '_ {
        self.profiles.iter().filter_map(|p| {
            let link = self.links.get(p.link as usize)?;
            let segments = self.segments.get(p.start..p.end)?;
            Some((link.src, link.dst, link.capacity, segments))
        })
    }

    /// The verdict of the current run (walk and sweep done): every
    /// cohort delivered loop-free, and no link over capacity at any
    /// step ≥ 0.
    pub(crate) fn consistent(&self) -> bool {
        self.loops.is_empty()
            && self.blackholes.is_empty()
            && self.undelivered.is_empty()
            && self.profiles().all(|(_, _, capacity, segments)| {
                segments.iter().all(|s| s.load <= capacity || s.end <= 0)
            })
    }

    /// The minimal counterexample of the current run, if it has one, in
    /// severity order congestion → loop → blackhole → undelivered.
    pub(crate) fn violation(&self) -> Option<Violation> {
        if let Some(v) = self.first_congestion() {
            return Some(v);
        }
        if let Some(first) = earliest_span(&self.loops) {
            return Some(Violation::ForwardingLoop {
                flow: first.flow,
                switch: first.switch,
                emitted: (first.tau_lo, first.tau_hi),
                time: first.tau_lo + first.offset,
            });
        }
        if let Some(first) = earliest_span(&self.blackholes) {
            return Some(Violation::Blackhole {
                flow: first.flow,
                switch: first.switch,
                emitted: (first.tau_lo, first.tau_hi),
                time: first.tau_lo + first.offset,
            });
        }
        let &(flow, lo, hi) = self.undelivered.iter().min()?;
        Some(Violation::Undelivered {
            flow,
            emitted: (lo, hi),
        })
    }

    /// The certificate's per-link bounds, recording each link's
    /// capacity and its peak load over `t ≥ 0`.
    pub(crate) fn link_bounds(&self) -> Vec<LinkBound> {
        self.profiles()
            .map(|(src, dst, capacity, segments)| LinkBound {
                src,
                dst,
                capacity,
                peak: segments
                    .iter()
                    .filter(|s| s.end > 0)
                    .map(|s| s.load)
                    .max()
                    .unwrap_or(0),
                segments: segments.to_vec(),
            })
            .collect()
    }

    /// Finds the minimal congestion counterexample, if any: the earliest
    /// overloaded instant across all links (ties broken by link id), and
    /// the maximal contiguous run of overloaded segments around it. The
    /// contributing flows are every flow with demand on the link during
    /// that run.
    fn first_congestion(&self) -> Option<Violation> {
        let mut best: Option<(i64, SwitchId, SwitchId, i64, Capacity, Capacity)> = None;
        for (src, dst, capacity, segments) in self.profiles() {
            let mut run: Option<(i64, i64, Capacity)> = None;
            for s in segments {
                let overloaded = s.load > capacity && s.end > 0;
                if overloaded {
                    let start = s.start.max(0);
                    run = match run {
                        Some((rs, re, peak)) if re == start => Some((rs, s.end, peak.max(s.load))),
                        Some(done) => {
                            consider(&mut best, src, dst, capacity, done);
                            Some((start, s.end, s.load))
                        }
                        None => Some((start, s.end, s.load)),
                    };
                } else if let Some(done) = run.take() {
                    consider(&mut best, src, dst, capacity, done);
                }
            }
            if let Some(done) = run {
                consider(&mut best, src, dst, capacity, done);
            }
        }
        let (start, src, dst, end, peak, capacity) = best?;
        let mut flows: Vec<_> = self
            .loads
            .iter()
            .filter(|c| {
                self.links
                    .get(c.link as usize)
                    .is_some_and(|l| l.src == src && l.dst == dst)
                    && c.t_lo < end
                    && c.t_hi + 1 > start
            })
            .map(|c| c.flow)
            .collect();
        flows.sort_unstable();
        flows.dedup();
        Some(Violation::Congestion {
            src,
            dst,
            start,
            end,
            peak,
            capacity,
            flows,
        })
    }

    /// Expands the profiles into per-step congestion events (`t ≥ 0`,
    /// `load > capacity`) sorted by `(time, src, dst)` — the simulator's
    /// event list, reproduced from intervals for differential testing.
    pub(crate) fn congestion_events(&self) -> Vec<(SwitchId, SwitchId, i64, Capacity, Capacity)> {
        let mut out = Vec::new();
        for (src, dst, capacity, segments) in self.profiles() {
            for s in segments {
                if s.load > capacity {
                    for t in s.start.max(0)..s.end {
                        out.push((src, dst, t, s.load, capacity));
                    }
                }
            }
        }
        out.sort_by_key(|&(src, dst, t, _, _)| (t, src, dst));
        out
    }
}

fn earliest_span(spans: &[EventSpan]) -> Option<&EventSpan> {
    spans
        .iter()
        .min_by_key(|s| (s.tau_lo + s.offset, s.flow, s.tau_lo))
}

fn consider(
    best: &mut Option<(i64, SwitchId, SwitchId, i64, Capacity, Capacity)>,
    src: SwitchId,
    dst: SwitchId,
    capacity: Capacity,
    (start, end, peak): (i64, i64, Capacity),
) {
    let candidate = (start, src, dst, end, peak, capacity);
    match best {
        Some(b) if (b.0, b.1, b.2) <= (start, src, dst) => {}
        _ => *best = Some(candidate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Analysis, Contribution};
    use chronus_net::{Flow, FlowId, NetworkBuilder, Path, UpdateInstance};

    /// A 2-switch network whose one link ⟨0,1⟩ has capacity 1.
    fn one_link() -> UpdateInstance {
        let mut b = NetworkBuilder::with_switches(2);
        b.add_link(SwitchId(0), SwitchId(1), 1, 1).unwrap();
        let path = || Path::new(vec![SwitchId(0), SwitchId(1)]);
        let flow = Flow::new(FlowId(0), 1, path(), path()).unwrap();
        UpdateInstance::single(b.build(), flow).unwrap()
    }

    fn contrib(t_lo: i64, t_hi: i64, demand: Capacity, flow: u32) -> Contribution {
        Contribution {
            src: SwitchId(0),
            dst: SwitchId(1),
            t_lo,
            t_hi,
            demand,
            flow: FlowId(flow),
        }
    }

    /// Sweeps hand-made contributions on the one link.
    fn swept<'a>(inst: &'a UpdateInstance, contributions: &[Contribution]) -> Certifier<'a> {
        let mut certifier = Certifier::new(inst);
        certifier.adopt(&Analysis {
            contributions: contributions.to_vec(),
            ..Analysis::default()
        });
        certifier.sweep();
        certifier
    }

    #[test]
    fn merges_overlapping_intervals() {
        let inst = one_link();
        let certifier = swept(&inst, &[contrib(0, 4, 1, 0), contrib(2, 6, 1, 1)]);
        assert_eq!(
            certifier.link_bounds()[0].segments,
            vec![
                IntervalLoad {
                    start: 0,
                    end: 2,
                    load: 1
                },
                IntervalLoad {
                    start: 2,
                    end: 5,
                    load: 2
                },
                IntervalLoad {
                    start: 5,
                    end: 7,
                    load: 1
                },
            ]
        );
    }

    #[test]
    fn coalesces_equal_adjacent_levels() {
        // Back-to-back intervals at the same level form one segment.
        let inst = one_link();
        let certifier = swept(&inst, &[contrib(0, 1, 1, 0), contrib(2, 3, 1, 0)]);
        assert_eq!(
            certifier.link_bounds()[0].segments,
            vec![IntervalLoad {
                start: 0,
                end: 4,
                load: 1
            }]
        );
    }

    #[test]
    fn negative_time_overload_is_not_congestion() {
        let inst = one_link();
        let certifier = swept(&inst, &[contrib(-5, -1, 2, 0)]);
        assert!(certifier.consistent());
        assert!(certifier.violation().is_none());
        // The same overload touching step 0 is congestion, clipped at 0.
        let certifier = swept(&inst, &[contrib(-5, 0, 2, 0)]);
        assert!(!certifier.consistent());
        match certifier.violation() {
            Some(Violation::Congestion { start, end, .. }) => {
                assert_eq!((start, end), (0, 1));
            }
            other => panic!("expected congestion, got {other:?}"),
        }
    }
}
