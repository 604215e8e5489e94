//! The time-extended network `G_T` (paper Definition 4, Fig. 2).

use chronus_net::{Capacity, Network, SwitchId, TimeStep};
use std::fmt;

/// A switch copy `v(t)` in the time-extended network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TeNode {
    /// The underlying switch.
    pub switch: SwitchId,
    /// The time step of this copy.
    pub time: TimeStep,
}

impl TeNode {
    /// Creates `v(t)`.
    pub fn new(switch: SwitchId, time: TimeStep) -> Self {
        TeNode { switch, time }
    }
}

impl fmt::Display for TeNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(t{})", self.switch, self.time)
    }
}

/// A link `u(tᵢ) → v(tⱼ)` in the time-extended network, with
/// `tⱼ = tᵢ + σ(u,v)` and the capacity of the underlying link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TeLink {
    /// Tail copy `u(tᵢ)`.
    pub from: TeNode,
    /// Head copy `v(tⱼ)`.
    pub to: TeNode,
    /// Capacity inherited from the underlying link.
    pub capacity: Capacity,
}

impl fmt::Display for TeLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}> (C={})", self.from, self.to, self.capacity)
    }
}

/// The time-extended network `G_T = (V_T, E_T)` over a window
/// `[t_min, t_max]` of time steps.
///
/// `V_T` contains `v(t)` for every switch `v` and every
/// `t ∈ [t_min, t_max]`; `E_T` contains `u(t) → v(t + σ(u,v))` for
/// every link `⟨u, v⟩` and every `t` such that both endpoints fall in
/// the window. Following paper Fig. 2, `t_min` is typically negative
/// (history steps needed to track flow already in flight) and `t_max`
/// grows as the greedy algorithm appends future steps.
///
/// The structure is *virtual*: nodes and links are computed on demand
/// from the underlying [`Network`], so even a 6 000-switch network with
/// a deep window costs no memory beyond the base graph. This is what
/// lets the Fig. 10 running-time experiment scale.
#[derive(Clone, Debug)]
pub struct TimeExtendedNetwork<'a> {
    base: &'a Network,
    t_min: TimeStep,
    t_max: TimeStep,
}

impl<'a> TimeExtendedNetwork<'a> {
    /// Creates `G_T` over the window `[t_min, t_max]`.
    ///
    /// # Panics
    /// Panics if `t_min > t_max`.
    pub fn new(base: &'a Network, t_min: TimeStep, t_max: TimeStep) -> Self {
        assert!(t_min <= t_max, "empty time window");
        TimeExtendedNetwork { base, t_min, t_max }
    }

    /// Creates the window the paper's Algorithm 2 starts from:
    /// history steps `t₋σ … t₋1` (σ = total initial-path delay),
    /// the current step `t₀ = 0` and one future step `t₁`.
    pub fn initial_window(base: &'a Network, history_depth: u64) -> Self {
        TimeExtendedNetwork::new(base, -(history_depth as TimeStep), 1)
    }

    /// The underlying static network.
    pub fn base(&self) -> &Network {
        self.base
    }

    /// Start of the time window (inclusive).
    pub fn t_min(&self) -> TimeStep {
        self.t_min
    }

    /// End of the time window (inclusive).
    pub fn t_max(&self) -> TimeStep {
        self.t_max
    }

    /// Appends `n` future time steps (Algorithm 2 line 17: `T = T ∪ {tᵢ}`).
    pub fn extend(&mut self, n: u64) {
        self.t_max += n as TimeStep;
    }

    /// `true` if `v(t)` lies in the window.
    pub fn contains(&self, node: TeNode) -> bool {
        self.base.contains_switch(node.switch) && node.time >= self.t_min && node.time <= self.t_max
    }

    /// The time-extended copy of link `⟨u, v⟩` departing at `t`, if the
    /// base link exists and both copies fall in the window.
    pub fn link_at(&self, u: SwitchId, v: SwitchId, t: TimeStep) -> Option<TeLink> {
        let l = self.base.link_between(u, v)?;
        let to = TeNode::new(v, t + l.delay as TimeStep);
        let from = TeNode::new(u, t);
        if self.contains(from) && self.contains(to) {
            Some(TeLink {
                from,
                to,
                capacity: l.capacity,
            })
        } else {
            None
        }
    }

    /// Outgoing time-extended links of `u(t)`.
    pub fn out_links(&self, node: TeNode) -> Vec<TeLink> {
        if !self.contains(node) {
            return Vec::new();
        }
        self.base
            .out_links(node.switch)
            .filter_map(|l| self.link_at(l.src, l.dst, node.time))
            .collect()
    }

    /// Incoming time-extended links of `v(t)`: every `u(t − σ(u,v))`
    /// whose departure reaches `v` exactly at `t`.
    pub fn in_links(&self, node: TeNode) -> Vec<TeLink> {
        if !self.contains(node) {
            return Vec::new();
        }
        self.base
            .in_links(node.switch)
            .filter_map(|l| self.link_at(l.src, l.dst, node.time - l.delay as TimeStep))
            .collect()
    }

    /// Total number of links `|E_T|` in the window (each base link has
    /// one copy per departure step whose arrival stays in the window).
    pub fn link_count(&self) -> usize {
        self.base
            .links()
            .map(|l| {
                let latest_departure = self.t_max - l.delay as TimeStep;
                if latest_departure < self.t_min {
                    0
                } else {
                    (latest_departure - self.t_min + 1) as usize
                }
            })
            .sum()
    }

    /// Materializes every node in the window (mainly for tests and
    /// small-scale rendering — prefer the on-demand accessors).
    pub fn nodes(&self) -> impl Iterator<Item = TeNode> + '_ {
        (self.t_min..=self.t_max)
            .flat_map(move |t| self.base.switches().map(move |s| TeNode::new(s, t)))
    }

    /// Materializes the whole window into an owned snapshot — the
    /// representation shared across planning threads by the engine's
    /// time-extended-network cache, where the borrow of the base
    /// [`Network`] cannot be held.
    pub fn materialize(&self) -> MaterializedTimeNet {
        let nodes = self.nodes().collect();
        let mut links = Vec::with_capacity(self.link_count());
        for t in self.t_min..=self.t_max {
            for l in self.base.links() {
                if let Some(tl) = self.link_at(l.src, l.dst, t) {
                    links.push(tl);
                }
            }
        }
        MaterializedTimeNet {
            t_min: self.t_min,
            t_max: self.t_max,
            nodes,
            links,
        }
    }

    /// Renders an ASCII sketch of the window: one line per time step
    /// listing the departures at that step — a textual Fig. 2.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in self.t_min..=self.t_max {
            out.push_str(&format!("t{t}:"));
            for l in self.base.links() {
                if self.link_at(l.src, l.dst, t).is_some() {
                    out.push_str(&format!(" {}->{}", l.src, l.dst));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// An owned snapshot of a [`TimeExtendedNetwork`] window: every node
/// and link materialized into vectors.
///
/// Unlike the virtual view, this carries no borrow of the base
/// [`Network`], so it can live inside `Arc`-shared caches and cross
/// thread boundaries — the engine memoizes one per
/// `(topology, flow, horizon)` key. Nodes are ordered by time step
/// then switch id; links by departure step in base-link order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaterializedTimeNet {
    t_min: TimeStep,
    t_max: TimeStep,
    /// Every `v(t)` in the window.
    pub nodes: Vec<TeNode>,
    /// Every `u(t) → v(t + σ)` whose endpoints both fall in the window.
    pub links: Vec<TeLink>,
}

impl MaterializedTimeNet {
    /// Start of the time window (inclusive).
    pub fn t_min(&self) -> TimeStep {
        self.t_min
    }

    /// End of the time window (inclusive).
    pub fn t_max(&self) -> TimeStep {
        self.t_max
    }

    /// Outgoing links of `u(t)` (linear scan; the snapshot is meant
    /// for reuse, not asymptotics).
    pub fn out_links(&self, node: TeNode) -> impl Iterator<Item = &TeLink> + '_ {
        self.links.iter().filter(move |l| l.from == node)
    }

    /// Approximate heap footprint in bytes, used by the engine's cache
    /// accounting.
    pub fn approx_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<TeNode>()
            + self.links.len() * std::mem::size_of::<TeLink>()
    }
}

impl fmt::Display for MaterializedTimeNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "G_T[{}..={}]: {} nodes, {} links",
            self.t_min,
            self.t_max,
            self.nodes.len(),
            self.links.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::topology::{self, LinkParams};
    use chronus_net::NetworkBuilder;

    fn sid(i: u32) -> SwitchId {
        SwitchId(i)
    }

    #[test]
    fn window_and_counts() {
        let net = topology::line(3, LinkParams::default()); // 4 duplex links
        let te = TimeExtendedNetwork::new(&net, -2, 3);
        // Each link has delay 1: departures from -2..=2 stay in window.
        assert_eq!(te.link_count(), 4 * 5);
        assert_eq!(te.nodes().count(), 18);
    }

    #[test]
    fn link_at_respects_delay_and_window() {
        let mut b = NetworkBuilder::with_switches(2);
        b.add_link(sid(0), sid(1), 7, 3).unwrap();
        let net = b.build();
        let te = TimeExtendedNetwork::new(&net, 0, 4);
        let l = te.link_at(sid(0), sid(1), 1).unwrap();
        assert_eq!(l.from, TeNode::new(sid(0), 1));
        assert_eq!(l.to, TeNode::new(sid(1), 4));
        assert_eq!(l.capacity, 7);
        // Departure at 2 would arrive at 5, outside the window.
        assert!(te.link_at(sid(0), sid(1), 2).is_none());
        // Missing base link.
        assert!(te.link_at(sid(1), sid(0), 0).is_none());
    }

    #[test]
    fn in_out_links_are_symmetric() {
        let net = topology::ring(4, LinkParams::default());
        let te = TimeExtendedNetwork::new(&net, -1, 5);
        let node = TeNode::new(sid(1), 2);
        for l in te.out_links(node) {
            assert_eq!(l.from, node);
            assert!(te.in_links(l.to).contains(&l));
        }
        assert_eq!(te.out_links(TeNode::new(sid(0), 99)).len(), 0);
    }

    #[test]
    fn initial_window_matches_paper() {
        let net = topology::line(4, LinkParams::default());
        let te = TimeExtendedNetwork::initial_window(&net, 3);
        assert_eq!(te.t_min(), -3);
        assert_eq!(te.t_max(), 1);
    }

    #[test]
    fn extend_appends_future_steps() {
        let net = topology::line(2, LinkParams::default());
        let mut te = TimeExtendedNetwork::initial_window(&net, 1);
        let before = te.t_max();
        te.extend(2);
        assert_eq!(te.t_max(), before + 2);
    }

    #[test]
    fn render_lists_departures() {
        let mut b = NetworkBuilder::with_switches(2);
        b.add_link(sid(0), sid(1), 1, 1).unwrap();
        let net = b.build();
        let te = TimeExtendedNetwork::new(&net, 0, 1);
        let r = te.render();
        assert!(r.contains("t0: s0->s1"));
        // Departure at t1 would land at t2, outside the window.
        assert!(r.contains("t1:\n"));
    }

    #[test]
    fn node_display() {
        assert_eq!(TeNode::new(sid(2), -1).to_string(), "s2(t-1)");
    }

    #[test]
    fn materialize_matches_virtual_view() {
        let net = topology::ring(4, LinkParams::default());
        let te = TimeExtendedNetwork::new(&net, -2, 3);
        let mat = te.materialize();
        assert_eq!(mat.t_min(), te.t_min());
        assert_eq!(mat.t_max(), te.t_max());
        assert_eq!(mat.nodes.len(), te.nodes().count());
        assert_eq!(mat.links.len(), te.link_count());
        // Every materialized link is reproducible on demand, and
        // per-node adjacency agrees.
        for l in &mat.links {
            assert_eq!(
                te.link_at(l.from.switch, l.to.switch, l.from.time),
                Some(*l)
            );
        }
        for &n in &mat.nodes {
            let mut virt = te.out_links(n);
            let mat_out: Vec<TeLink> = mat.out_links(n).copied().collect();
            virt.sort_by_key(|l| (l.to.switch, l.to.time));
            let mut mat_sorted = mat_out;
            mat_sorted.sort_by_key(|l| (l.to.switch, l.to.time));
            assert_eq!(virt, mat_sorted);
        }
        assert!(mat.approx_bytes() > 0);
        assert!(mat.to_string().contains("nodes"));
    }

    #[test]
    #[should_panic(expected = "empty time window")]
    fn rejects_inverted_window() {
        let net = topology::line(2, LinkParams::default());
        let _ = TimeExtendedNetwork::new(&net, 1, 0);
    }
}
