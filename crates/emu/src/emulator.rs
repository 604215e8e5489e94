//! The emulation loop.
// The emulator's switch/port/rule tables are dense and indexed by
// ids it minted at install time; `expect` unwraps those same
// install-time invariants.
#![allow(clippy::indexing_slicing, clippy::expect_used)]

use crate::controller::{ChronusDriver, EngineDriver, OrDriver, TpDriver, UpdateDriver};
use crate::ctrl::{CtrlPayload, FaultLayer, TaskState};
use crate::event::{Event, EventQueue, HopRing};
use crate::link::EmuLink;
use crate::report::{EmuReport, TtlDrop};
use crate::switchdev::{EmuSwitch, HOST_PORT};
use crate::traffic::{chunk_size_for, CbrSource};
use chronus_clock::{HardwareClock, Nanos};
use chronus_faults::{
    Envelope, FaultInjector, FaultPlan, MsgId, RecoveryAction, ReliableConfig, SlackBudget,
    TimeoutVerdict,
};
use chronus_net::{LinkIdx, SwitchId, UpdateInstance};
use chronus_openflow::{Action, FlowMod, Ipv4Prefix, Match, Packet, RuleId};
use chronus_verify::SlackCertificate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Emulator parameters mapping the abstract model onto wall-clock
/// quantities (defaults follow the paper's Mininet setup: 1 model
/// capacity unit = 1 Mbps, 1 model delay unit = 100 ms, 1 s statistics
/// sampling, updates start at the 5 s mark of a 20 s run).
#[derive(Clone, Copy, Debug)]
pub struct EmuConfig {
    /// Bits per second per model capacity unit.
    pub capacity_unit_bps: u64,
    /// Nanoseconds per model delay unit.
    pub delay_unit_ns: Nanos,
    /// Nanoseconds per schedule time step (keep equal to
    /// `delay_unit_ns` for fidelity to the analysis).
    pub step_ns: Nanos,
    /// Target chunk emissions per delay unit per flow.
    pub chunks_per_step: u64,
    /// Statistics sampling interval.
    pub stats_interval: Nanos,
    /// Total run length.
    pub run_for: Nanos,
    /// When the update plan starts.
    pub update_at: Nanos,
    /// Drop-tail buffer depth, expressed as queueing delay.
    pub buffer_delay: Nanos,
    /// Max absolute clock offset drawn per switch (± ns) — the Time4
    /// synchronization residual.
    pub clock_error_ns: i64,
    /// Max absolute frequency error drawn per switch (± ppb).
    pub clock_drift_ppb: i64,
    /// Initial packet TTL (loop guard).
    pub ttl: u8,
    /// Probability that a fire-and-forget control message (an OR or TP
    /// FlowMod) is lost in the control channel. Chronus messages are
    /// unaffected: Time4 distributes them ahead of the trigger time
    /// and retransmits until acknowledged, so loss only costs latency
    /// it has already budgeted for.
    pub control_loss_prob: f64,
}

impl Default for EmuConfig {
    fn default() -> Self {
        EmuConfig {
            capacity_unit_bps: 1_000_000,
            delay_unit_ns: 100_000_000,
            step_ns: 100_000_000,
            chunks_per_step: 8,
            stats_interval: 1_000_000_000,
            run_for: 20_000_000_000,
            update_at: 5_000_000_000,
            buffer_delay: 200_000_000,
            clock_error_ns: 1_000,
            clock_drift_ppb: 10_000,
            ttl: 64,
            control_loss_prob: 0.0,
        }
    }
}

/// The discrete-event emulator.
pub struct Emulator {
    config: EmuConfig,
    switches: Vec<EmuSwitch>,
    links: Vec<EmuLink>,
    link_endpoints: Vec<(SwitchId, SwitchId)>,
    queue: EventQueue,
    flows: Vec<CbrSource>,
    /// Initial-path rule ids: (flow, switch) → installed rule.
    rule_ids: HashMap<(usize, SwitchId), RuleId>,
    dst_ip_to_flow: HashMap<u32, usize>,
    instance_paths: Vec<(Vec<SwitchId>, Vec<SwitchId>)>, // (init, fin) hops
    report: EmuReport,
    rng: StdRng,
    xid: u64,
    peak_rules: usize,
    faults: Option<FaultLayer>,
}

impl Emulator {
    /// Builds the testbed for an instance: switches with drawn clock
    /// errors, links, initial-path rules, and CBR sources.
    pub fn new(instance: &UpdateInstance, config: EmuConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = &instance.network;

        let mut switches: Vec<EmuSwitch> = net
            .switches()
            .map(|id| {
                let offset = rng.gen_range(-config.clock_error_ns..=config.clock_error_ns);
                let drift = rng.gen_range(-config.clock_drift_ppb..=config.clock_drift_ppb);
                EmuSwitch::new(id, HardwareClock::new(offset as Nanos, drift))
            })
            .collect();

        let mut links = Vec::with_capacity(net.link_count());
        let mut link_endpoints = Vec::with_capacity(net.link_count());
        for (i, l) in net.links().enumerate() {
            links.push(EmuLink::new(
                l.capacity * config.capacity_unit_bps,
                l.delay as Nanos * config.delay_unit_ns,
                config.buffer_delay,
            ));
            link_endpoints.push((l.src, l.dst));
            switches[l.src.index()].attach_link(l.dst, LinkIdx(i as u32));
        }

        let mut emu = Emulator {
            config,
            switches,
            links,
            link_endpoints,
            queue: EventQueue::new(),
            flows: Vec::new(),
            rule_ids: HashMap::new(),
            dst_ip_to_flow: HashMap::new(),
            instance_paths: Vec::new(),
            report: EmuReport::default(),
            rng,
            xid: 0,
            peak_rules: 0,
            faults: None,
        };

        for (fi, flow) in instance.flows.iter().enumerate() {
            emu.attach_flow(fi, flow, instance);
        }
        emu.report.delivered_bytes = vec![0; instance.flows.len()];

        // Traffic from t = 0, staggered a little per flow.
        for fi in 0..emu.flows.len() {
            emu.queue
                .push(fi as Nanos * 1_000_000, Event::ChunkEmit { flow: fi });
        }
        // Statistics sampling and the stop event.
        emu.queue.push(config.stats_interval, Event::StatsSample);
        emu.queue.push(config.run_for, Event::Stop);
        emu.track_rule_peak();
        emu
    }

    fn flow_ip(fi: usize, host: u8) -> u32 {
        u32::from_be_bytes([10, host, (fi >> 8) as u8, fi as u8])
    }

    fn attach_flow(&mut self, fi: usize, flow: &chronus_net::Flow, instance: &UpdateInstance) {
        let dst_ip = Self::flow_ip(fi, 0);
        let src_ip = Self::flow_ip(fi, 1);
        self.dst_ip_to_flow.insert(dst_ip, fi);
        self.instance_paths
            .push((flow.initial.hops().to_vec(), flow.fin.hops().to_vec()));

        // Forwarding rules along the initial path.
        let hops = flow.initial.hops();
        for w in hops.windows(2) {
            let port = self.switches[w[0].index()]
                .port_towards(w[1])
                .expect("initial path links exist");
            let id = self.switches[w[0].index()]
                .table
                .add(
                    10,
                    Match::dst_prefix(Ipv4Prefix::host(dst_ip)),
                    vec![Action::Output(port)],
                )
                .expect("unbounded tables");
            self.rule_ids.insert((fi, w[0]), id);
        }
        // Delivery rule at the destination.
        let dst = flow.destination();
        let id = self.switches[dst.index()]
            .table
            .add(
                10,
                Match::dst_prefix(Ipv4Prefix::host(dst_ip)),
                vec![Action::Output(HOST_PORT)],
            )
            .expect("unbounded tables");
        self.rule_ids.insert((fi, dst), id);

        let rate_bps = flow.demand * self.config.capacity_unit_bps;
        let chunk = chunk_size_for(
            rate_bps,
            self.config.delay_unit_ns,
            self.config.chunks_per_step,
        );
        self.flows.push(CbrSource {
            src_switch: flow.source(),
            dst_ip,
            src_ip,
            rate_bps,
            chunk_bytes: chunk,
        });
        let _ = instance;
    }

    fn next_xid(&mut self) -> u64 {
        self.xid += 1;
        self.xid
    }

    /// The FlowMod moving `switch` to its final-path next hop for flow
    /// `fi`: an in-place action modify when an old rule exists, an add
    /// for fresh switches.
    fn update_flowmod(&mut self, fi: usize, switch: SwitchId) -> FlowMod {
        let (_, fin) = self.instance_paths[fi].clone();
        let pos = fin
            .iter()
            .position(|&v| v == switch)
            .expect("updates only target final-path switches");
        let next = fin[pos + 1];
        let port = self.switches[switch.index()]
            .port_towards(next)
            .expect("final path links exist");
        let xid = self.next_xid();
        match self.rule_ids.get(&(fi, switch)) {
            Some(&id) => FlowMod::modify(xid, id, vec![Action::Output(port)]),
            None => FlowMod::add(
                xid,
                10,
                Match::dst_prefix(Ipv4Prefix::host(self.flows[fi].dst_ip)),
                vec![Action::Output(port)],
            ),
        }
    }

    /// Translates a driver into timed `ApplyFlowMod` events.
    pub fn install_driver(&mut self, driver: UpdateDriver) {
        match driver {
            UpdateDriver::None => {}
            UpdateDriver::Chronus(d) => self.install_chronus(d),
            UpdateDriver::Or(d) => self.install_or(d),
            UpdateDriver::Tp(d) => self.install_tp(d),
            UpdateDriver::Engine(d) => self.install_engine(d),
        }
    }

    /// Plans the update through the chronus-engine fallback chain at
    /// install time, then installs the result as timed (Chronus-style)
    /// or two-phase events depending on which stage won.
    fn install_engine(&mut self, d: EngineDriver) {
        // The driver re-states the instance; make sure it describes
        // the testbed this emulator was actually built from.
        assert_eq!(
            d.instance.flows.len(),
            self.instance_paths.len(),
            "engine driver instance must match the emulated instance"
        );
        for (flow, (init, fin)) in d.instance.flows.iter().zip(&self.instance_paths) {
            assert!(
                flow.initial.hops() == &init[..] && flow.fin.hops() == &fin[..],
                "engine driver instance must match the emulated instance"
            );
        }
        let engine = chronus_engine::Engine::new(chronus_engine::EngineConfig {
            workers: d.workers,
            default_deadline: d.deadline,
            ..chronus_engine::EngineConfig::default()
        });
        let planned = engine.plan_one(chronus_engine::UpdateRequest::new(
            0,
            d.instance.clone(),
            d.deadline,
        ));
        match planned.plan {
            chronus_engine::PlanKind::Timed(schedule) => {
                self.install_chronus(ChronusDriver { schedule });
            }
            chronus_engine::PlanKind::TwoPhase(_) => {
                self.install_tp(TpDriver::default());
            }
        }
    }

    fn install_chronus(&mut self, d: ChronusDriver) {
        if self.faults.is_some() {
            self.install_chronus_reliable(d);
            return;
        }
        let assignments: Vec<(chronus_net::FlowId, SwitchId, i64)> = d.schedule.iter().collect();
        for (flow_id, switch, t) in assignments {
            let fi = flow_id.index();
            let fm = self.update_flowmod(fi, switch);
            // The controller arms a Time4 trigger for the nominal
            // local time; the switch's clock error shifts the true
            // firing instant.
            let local_target = self.config.update_at + t as Nanos * self.config.step_ns;
            let true_fire = self.switches[switch.index()]
                .clock
                .true_time_of_local(local_target)
                .max(0);
            self.queue.push(
                true_fire,
                Event::ApplyFlowMod {
                    switch,
                    flowmod: fm,
                },
            );
        }
    }

    /// Installs a fault plan plus the reliable-delivery protocol that
    /// defends against it. Must be called before
    /// [`install_driver`](Self::install_driver): a Chronus (or
    /// engine-planned timed) driver then travels over the faulty
    /// control channel — Arm messages with acks, retransmission and
    /// receiver dedup, switch-local trigger executors, and the
    /// controller watchdog deciding between a slack-certified re-send
    /// and the two-phase rollback.
    ///
    /// `slack` is the certified timing tolerance ±Δ (see
    /// [`install_faults_certified`](Self::install_faults_certified)
    /// to derive it from a `chronus-verify` slack certificate).
    pub fn install_faults(
        &mut self,
        plan: FaultPlan,
        reliable: ReliableConfig,
        slack: SlackBudget,
    ) {
        let injector = FaultInjector::new(plan);
        for r in injector.reboots() {
            self.queue.push(
                r.at.max(0),
                Event::SwitchReboot {
                    switch: r.switch,
                    outage_ns: r.outage_ns.max(0),
                },
            );
        }
        for s in injector.spikes() {
            self.queue.push(
                s.at.max(0),
                Event::ClockSpike {
                    switch: s.switch,
                    offset_ns: s.offset_ns,
                },
            );
        }
        self.faults = Some(FaultLayer::new(injector, reliable, slack));
    }

    /// [`install_faults`](Self::install_faults) with the slack budget
    /// taken from a `chronus-verify` [`SlackCertificate`] under this
    /// emulator's step length.
    pub fn install_faults_certified(
        &mut self,
        plan: FaultPlan,
        reliable: ReliableConfig,
        certificate: &SlackCertificate,
    ) {
        let delta = certificate.delta_ns(self.config.step_ns);
        self.install_faults(plan, reliable, SlackBudget::new(delta));
    }

    /// The Chronus install path over the faulty control channel: each
    /// schedule entry becomes a task distributed as a reliable Arm
    /// message `lead_time` ahead of its trigger, with a watchdog
    /// deadline check shortly after its nominal firing instant.
    fn install_chronus_reliable(&mut self, d: ChronusDriver) {
        let assignments: Vec<(chronus_net::FlowId, SwitchId, i64)> = d.schedule.iter().collect();
        for (flow_id, switch, t) in assignments {
            let fi = flow_id.index();
            let fm = self.update_flowmod(fi, switch);
            let local_target = self.config.update_at + t as Nanos * self.config.step_ns;
            let nominal_true = local_target; // the schedule's intent in true time
            let fl = self.faults.as_mut().expect("reliable path requires faults");
            let task = fl.tasks.len();
            fl.tasks.push(TaskState {
                switch,
                local_target,
                nominal_true,
                flowmod: fm.clone(),
                applied: false,
            });
            let send_at = (nominal_true - fl.reliable.lead_time_ns).max(0);
            let watchdog_at = nominal_true + fl.policy.margin_ns;
            self.ctrl_send(
                CtrlPayload::Arm {
                    task,
                    switch,
                    local_time: local_target,
                    flowmod: fm,
                },
                send_at,
                Some(task),
            );
            self.queue.push(watchdog_at, Event::WatchdogCheck { task });
        }
    }

    /// Puts one reliable control message on the (lossy) wire at true
    /// time `at`: registers it with the outbox, lets the injector
    /// decide each copy's fate, and schedules the retransmission
    /// timer.
    fn ctrl_send(&mut self, payload: CtrlPayload, at: Nanos, task: Option<usize>) {
        let Some(fl) = self.faults.as_mut() else {
            return;
        };
        let switch = payload.switch();
        let (envelope, timeout_at) = fl.outbox.send(payload, at);
        fl.msg_task.insert(envelope.id, task);
        fl.stats.outstanding_add(1);
        let id = envelope.id;
        Self::transmit(fl, &mut self.queue, switch, envelope, at);
        self.queue.push(timeout_at, Event::CtrlTimeout { id });
    }

    /// One transmission attempt through the fault injector: pushes a
    /// `CtrlDeliver` per surviving copy (base delay + injected extra).
    fn transmit(
        fl: &mut FaultLayer,
        queue: &mut EventQueue,
        switch: SwitchId,
        envelope: Envelope<CtrlPayload>,
        at: Nanos,
    ) {
        let fate = fl.injector.channel_fate();
        if fate.lost() {
            fl.stats.record_drop();
            return;
        }
        if fate.deliveries.len() > 1 {
            fl.stats.record_dup();
        }
        for &extra in &fate.deliveries {
            if extra > 0 {
                fl.stats.record_delay();
            }
            queue.push(
                at + fl.reliable.base_delay_ns + extra,
                Event::CtrlDeliver {
                    switch,
                    envelope: envelope.clone(),
                },
            );
        }
    }

    /// Sends an acknowledgement back through the same faulty channel.
    fn send_ack(fl: &mut FaultLayer, queue: &mut EventQueue, id: MsgId, now: Nanos) {
        let fate = fl.injector.channel_fate();
        if fate.lost() {
            fl.stats.record_drop();
            return;
        }
        if fate.deliveries.len() > 1 {
            fl.stats.record_dup();
        }
        for &extra in &fate.deliveries {
            if extra > 0 {
                fl.stats.record_delay();
            }
            queue.push(
                now + fl.reliable.base_delay_ns + extra,
                Event::CtrlAck { id },
            );
        }
    }

    fn install_or(&mut self, d: OrDriver) {
        // Single-flow semantics (the paper's OR baseline is per flow).
        let fi = 0;
        let mut round_start = self.config.update_at;
        for round in &d.rounds {
            let mut latest = round_start;
            for &switch in round {
                let latency = self.rng.gen_range(d.latency_range.0..=d.latency_range.1);
                let at = round_start + latency;
                latest = latest.max(at);
                if self.control_message_lost() {
                    continue; // fire-and-forget FlowMod vanished
                }
                let fm = self.update_flowmod(fi, switch);
                self.queue.push(
                    at,
                    Event::ApplyFlowMod {
                        switch,
                        flowmod: fm,
                    },
                );
            }
            // Barrier: next round only after every reply.
            round_start = latest + 1_000_000;
        }
    }

    /// Draws whether a fire-and-forget control message is lost.
    fn control_message_lost(&mut self) -> bool {
        self.config.control_loss_prob > 0.0 && self.rng.gen::<f64>() < self.config.control_loss_prob
    }

    fn install_tp(&mut self, d: TpDriver) {
        let base = self.config.update_at;
        self.install_tp_at(d, base);
    }

    /// The two-phase install sequence starting at `base` — the normal
    /// TP driver uses `config.update_at`; the watchdog's rollback
    /// fallback re-enters here at the abort instant.
    fn install_tp_at(&mut self, d: TpDriver, base: Nanos) {
        let fi = 0;
        let (_, fin) = self.instance_paths[fi].clone();
        let dst_ip = self.flows[fi].dst_ip;
        let source = fin[0];
        let dst = *fin.last().expect("paths have a destination");

        // Phase 1: tagged generation at priority 20 on every
        // final-path switch except the source (whose stamp rule is the
        // flip itself).
        let mut latest = base;
        for (pos, &v) in fin.iter().enumerate() {
            if v == source {
                continue;
            }
            let actions = if v == dst {
                vec![Action::StripVlan, Action::Output(HOST_PORT)]
            } else {
                let next = fin[pos + 1];
                let port = self.switches[v.index()]
                    .port_towards(next)
                    .expect("final path links exist");
                vec![Action::Output(port)]
            };
            let mat = Match {
                dst: Some(Ipv4Prefix::host(dst_ip)),
                vlan: Some(2),
                ..Default::default()
            };
            let xid = self.next_xid();
            let latency = self.rng.gen_range(d.latency_range.0..=d.latency_range.1);
            let at = base + latency;
            latest = latest.max(at);
            if self.control_message_lost() {
                continue; // the tagged duplicate never arrives
            }
            self.queue.push(
                at,
                Event::ApplyFlowMod {
                    switch: v,
                    flowmod: FlowMod::add(xid, 20, mat, actions),
                },
            );
        }

        // Phase 2: flip the ingress stamp after the phase-1 barrier.
        let flip_at = latest + d.flip_gap;
        let next = fin[1];
        let port = self.switches[source.index()]
            .port_towards(next)
            .expect("final path links exist");
        let src_rule = self.rule_ids[&(fi, source)];
        let xid = self.next_xid();
        self.queue.push(
            flip_at,
            Event::ApplyFlowMod {
                switch: source,
                flowmod: FlowMod::modify(
                    xid,
                    src_rule,
                    vec![Action::SetVlan(2), Action::Output(port)],
                ),
            },
        );

        // Cleanup: delete old rules that are no longer on the final
        // path once old-tag packets drained.
        let cleanup_at = flip_at + d.cleanup_gap;
        let (init, fin_hops) = self.instance_paths[fi].clone();
        for &v in &init {
            if fin_hops.contains(&v) {
                continue;
            }
            if let Some(&id) = self.rule_ids.get(&(fi, v)) {
                let xid = self.next_xid();
                self.queue.push(
                    cleanup_at,
                    Event::ApplyFlowMod {
                        switch: v,
                        flowmod: FlowMod::delete(xid, id),
                    },
                );
            }
        }
    }

    fn track_rule_peak(&mut self) {
        let total: usize = self.switches.iter().map(|s| s.table.len()).sum();
        self.peak_rules = self.peak_rules.max(total);
    }

    /// The highest total rule count observed so far (Fig. 9 metric).
    pub fn peak_rule_count(&self) -> usize {
        self.peak_rules
    }

    /// Runs the emulation to completion and returns the report.
    pub fn run(mut self) -> EmuReport {
        let mut span = chronus_trace::span!(
            "emu.run",
            switches = self.switches.len(),
            flows = self.flows.len(),
            run_for_ns = self.config.run_for as i64
        )
        .entered();
        while let Some(ev) = self.queue.pop() {
            let now = ev.at;
            match ev.event {
                Event::Stop => break,
                Event::ChunkEmit { flow } => {
                    let f = self.flows[flow];
                    let pkt = Packet {
                        in_port: HOST_PORT,
                        src: f.src_ip,
                        dst: f.dst_ip,
                        vlan: None,
                        bytes: f.chunk_bytes,
                    };
                    self.queue.push(
                        now,
                        Event::PacketArrive {
                            switch: f.src_switch,
                            packet: pkt,
                            ttl: self.config.ttl,
                            hops: HopRing::new(),
                        },
                    );
                    let next = now + f.interval();
                    if next < self.config.run_for {
                        self.queue.push(next, Event::ChunkEmit { flow });
                    }
                }
                Event::PacketArrive {
                    switch,
                    packet,
                    ttl,
                    hops,
                } => {
                    self.handle_packet(now, switch, packet, ttl, hops);
                }
                Event::LinkDeliver {
                    switch,
                    packet,
                    ttl,
                    hops,
                    ..
                } => {
                    self.handle_packet(now, switch, packet, ttl, hops);
                }
                Event::ApplyFlowMod { switch, flowmod } => {
                    if let Ok(maybe_id) = self.switches[switch.index()].apply_flowmod(&flowmod) {
                        // Remember ids of rules added during updates so
                        // later drivers could address them.
                        if let Some(id) = maybe_id {
                            if let Some(fi) = flowmod
                                .mat
                                .dst
                                .map(|p| p.network())
                                .and_then(|ip| self.dst_ip_to_flow.get(&ip).copied())
                            {
                                self.rule_ids.entry((fi, switch)).or_insert(id);
                            }
                        }
                        self.report.applied_updates.push((now, switch));
                    }
                    self.track_rule_peak();
                }
                Event::StatsSample => {
                    for (i, link) in self.links.iter_mut().enumerate() {
                        let w = link.sample_window();
                        self.report.push_sample(
                            self.link_endpoints[i],
                            now,
                            w,
                            self.config.stats_interval,
                        );
                    }
                    let next = now + self.config.stats_interval;
                    if next <= self.config.run_for {
                        self.queue.push(next, Event::StatsSample);
                    }
                }
                Event::CtrlDeliver { switch, envelope } => {
                    self.handle_ctrl_deliver(now, switch, envelope);
                }
                Event::CtrlAck { id } => {
                    if let Some(fl) = self.faults.as_mut() {
                        if fl.outbox.on_ack(id) {
                            fl.stats.record_ack();
                            fl.stats.outstanding_add(-1);
                        }
                    }
                }
                Event::CtrlTimeout { id } => self.handle_ctrl_timeout(now, id),
                Event::TriggerPoll { switch } => self.handle_trigger_poll(now, switch),
                Event::WatchdogCheck { task } => self.handle_watchdog(now, task),
                Event::SwitchReboot { switch, outage_ns } => {
                    let sw = &mut self.switches[switch.index()];
                    sw.agent.online = false;
                    let lost = sw.agent.executor.clear();
                    if let Some(fl) = self.faults.as_mut() {
                        fl.stats.record_reboot(lost as u64);
                    }
                    self.queue
                        .push(now + outage_ns.max(0), Event::SwitchRecover { switch });
                }
                Event::SwitchRecover { switch } => self.handle_switch_recover(now, switch),
                Event::ClockSpike { switch, offset_ns } => {
                    let sw = &mut self.switches[switch.index()];
                    // `correct_offset` subtracts its estimate, so a
                    // spike of +x is a correction of −x.
                    sw.clock.correct_offset(-offset_ns);
                    sw.agent.spike_clock(offset_ns);
                    if let Some(fl) = self.faults.as_mut() {
                        fl.stats.record_spike();
                    }
                    // The predicted firing instants moved; re-poll.
                    if let Some(lt) = sw.agent.executor.next_local_time() {
                        let predicted = sw.agent.executor.true_fire_time(lt).max(now + 1);
                        self.queue.push(predicted, Event::TriggerPoll { switch });
                    }
                }
            }
        }
        if let Some(fl) = &self.faults {
            self.report.faults = Some(fl.stats.summary());
            self.report.fault_metrics = Some(fl.stats.snapshot());
            self.report.timed_tasks_pending = fl.pending_tasks();
        }
        self.report.buffer_drops = self.links.iter().map(|l| l.totals().dropped).sum();
        self.report.peak_rule_count = self.peak_rules;
        if span.is_recording() {
            span.record("delivered_bytes", self.report.total_delivered());
            span.record("ttl_drops", self.report.ttl_drops);
            span.record("buffer_drops", self.report.buffer_drops);
            span.record("table_misses", self.report.table_misses);
        }
        self.report
    }

    fn handle_packet(
        &mut self,
        now: Nanos,
        switch: SwitchId,
        packet: Packet,
        ttl: u8,
        mut hops: HopRing,
    ) {
        hops.push(switch);
        let (pkt, ports) = self.switches[switch.index()].forward(packet);
        if ports.is_empty() {
            self.report.table_misses += 1;
            return;
        }
        for port in ports {
            if port == HOST_PORT {
                if let Some(&fi) = self.dst_ip_to_flow.get(&pkt.dst) {
                    self.report.delivered_bytes[fi] += pkt.bytes;
                }
                continue;
            }
            if ttl == 0 {
                let drop = TtlDrop {
                    at: now,
                    switch,
                    last_hops: hops.hops(),
                };
                chronus_trace::instant!(
                    "emu.ttl_drop",
                    switch = switch.0 as u64,
                    looped = drop.looped()
                );
                self.report.record_ttl_drop(drop);
                continue;
            }
            let Some(link_idx) = self.switches[switch.index()].link_behind(port) else {
                self.report.table_misses += 1;
                continue;
            };
            let head = self.link_endpoints[link_idx.index()].1;
            if let Some(arrival) = self.links[link_idx.index()].transmit(now, pkt.bytes) {
                // The receiving in-port: the head's port towards us if
                // a reverse link exists, otherwise a synthetic port.
                let in_port = self.switches[head.index()]
                    .port_towards(switch)
                    .unwrap_or(u16::MAX);
                let mut arrived = pkt;
                arrived.in_port = in_port;
                self.queue.push(
                    arrival,
                    Event::PacketArrive {
                        switch: head,
                        packet: arrived,
                        ttl: ttl - 1,
                        hops,
                    },
                );
            }
        }
    }

    /// A control-message copy reaches its switch agent: dedup, ack,
    /// and execute fresh payloads (arm a trigger / apply now / abort).
    fn handle_ctrl_deliver(
        &mut self,
        now: Nanos,
        switch: SwitchId,
        envelope: Envelope<CtrlPayload>,
    ) {
        let Some(fl) = self.faults.as_mut() else {
            return;
        };
        let sw = &mut self.switches[switch.index()];
        if !sw.agent.online {
            return; // agent down: the attempt is lost, no ack
        }
        let fresh = sw.agent.dedup.accept(envelope.id);
        Self::send_ack(fl, &mut self.queue, envelope.id, now);
        if !fresh {
            return; // retransmission or wire duplicate: re-acked only
        }
        match envelope.payload {
            CtrlPayload::Arm {
                task,
                local_time,
                flowmod,
                ..
            } => {
                if fl.tasks[task].applied {
                    return; // recovery already applied this update
                }
                sw.agent.executor.arm(local_time, (task, flowmod));
                fl.stats.record_armed();
                let predicted = sw.agent.executor.true_fire_time(local_time).max(now);
                self.queue.push(predicted, Event::TriggerPoll { switch });
            }
            CtrlPayload::Apply { task, flowmod, .. } => {
                if fl.tasks[task].applied {
                    return;
                }
                let extra = fl.injector.install_extra(switch);
                if extra > 0 {
                    fl.stats.record_straggler_install();
                }
                let apply_at = now + extra;
                fl.tasks[task].applied = true;
                fl.stats
                    .record_fired(apply_at - fl.tasks[task].nominal_true);
                self.queue
                    .push(apply_at, Event::ApplyFlowMod { switch, flowmod });
            }
            CtrlPayload::Abort { .. } => {
                sw.agent.executor.clear();
            }
        }
    }

    /// A retransmission timer fires at the controller.
    fn handle_ctrl_timeout(&mut self, now: Nanos, id: MsgId) {
        let Some(fl) = self.faults.as_mut() else {
            return;
        };
        match fl.outbox.on_timeout(id, now) {
            TimeoutVerdict::AlreadyAcked => {}
            TimeoutVerdict::Retransmit {
                envelope,
                next_timeout_at,
            } => {
                fl.stats.record_retransmit();
                let switch = envelope.payload.switch();
                Self::transmit(fl, &mut self.queue, switch, envelope, now);
                self.queue.push(next_timeout_at, Event::CtrlTimeout { id });
            }
            TimeoutVerdict::Exhausted => {
                fl.stats.record_exhausted();
                fl.stats.outstanding_add(-1);
                // Escalate straight to the watchdog — the nominal
                // deadline check may be far away (or already past).
                if let Some(Some(task)) = fl.msg_task.get(&id).copied() {
                    self.queue.push(now, Event::WatchdogCheck { task });
                }
            }
        }
    }

    /// A switch agent checks its trigger executor at a predicted
    /// firing instant, applying everything whose local time passed.
    fn handle_trigger_poll(&mut self, now: Nanos, switch: SwitchId) {
        let Some(fl) = self.faults.as_mut() else {
            return;
        };
        let sw = &mut self.switches[switch.index()];
        if !sw.agent.online {
            return; // a reboot cleared the triggers anyway
        }
        for (true_at, (task, flowmod)) in sw.agent.executor.advance_to(now) {
            if fl.tasks[task].applied {
                continue; // double-armed after a recovery re-send
            }
            let extra = fl.injector.install_extra(switch);
            if extra > 0 {
                fl.stats.record_straggler_install();
            }
            // `true_at` is the nominal firing instant for on-time
            // triggers (it may trail `now` by the poll's rounding
            // nanosecond — the heap handles a push into the past) and
            // the clamped `now` for late re-arms.
            let apply_at = true_at + extra;
            fl.tasks[task].applied = true;
            fl.stats
                .record_fired(apply_at - fl.tasks[task].nominal_true);
            self.queue
                .push(apply_at, Event::ApplyFlowMod { switch, flowmod });
        }
        if let Some(lt) = sw.agent.executor.next_local_time() {
            let predicted = sw.agent.executor.true_fire_time(lt).max(now + 1);
            self.queue.push(predicted, Event::TriggerPoll { switch });
        }
    }

    /// The controller's deadline check for one timed update: decide
    /// between a slack-certified re-send and the two-phase rollback.
    fn handle_watchdog(&mut self, now: Nanos, task: usize) {
        let decision = {
            let Some(fl) = self.faults.as_mut() else {
                return;
            };
            let t = &fl.tasks[task];
            if t.applied || fl.rollback_started {
                return;
            }
            let d = fl.policy.decide(t.nominal_true, now, fl.slack);
            if matches!(d, RecoveryAction::Rearm { .. }) {
                fl.stats.record_rearm();
            }
            (d, t.switch, t.flowmod.clone())
        };
        match decision {
            (RecoveryAction::Rearm { at }, switch, flowmod) => {
                let (margin, base_delay) = {
                    let fl = self.faults.as_ref().expect("checked above");
                    (fl.policy.margin_ns, fl.reliable.base_delay_ns)
                };
                // An immediate-apply re-send, timed so the first
                // attempt lands as close to `at` as the channel
                // allows; re-check in case it dies on the wire too.
                let send_at = (at - base_delay).max(now);
                self.ctrl_send(
                    CtrlPayload::Apply {
                        task,
                        switch,
                        flowmod,
                    },
                    send_at,
                    Some(task),
                );
                self.queue.push(at + margin, Event::WatchdogCheck { task });
            }
            (RecoveryAction::Rollback, _, _) => self.start_rollback(now),
        }
    }

    /// The certified window is unreachable: abort the timed plan and
    /// complete the update through the two-phase path from `now`.
    fn start_rollback(&mut self, now: Nanos) {
        let targets: Vec<SwitchId> = {
            let Some(fl) = self.faults.as_mut() else {
                return;
            };
            if fl.rollback_started {
                return;
            }
            fl.rollback_started = true;
            fl.stats.record_rollback();
            // A watchdog rollback is exactly the moment a forensic
            // dump pays for itself: capture the ring before the
            // two-phase path overwrites it (inert unless the flight
            // recorder is on, rate limited when it is).
            chronus_trace::FlightRecorder::trigger("watchdog-rollback");
            let mut s: Vec<SwitchId> = fl
                .tasks
                .iter()
                .filter(|t| !t.applied)
                .map(|t| t.switch)
                .collect();
            s.sort_unstable_by_key(|v| v.0);
            s.dedup();
            s
        };
        self.report.rolled_back = true;
        for switch in targets {
            self.ctrl_send(CtrlPayload::Abort { switch }, now, None);
        }
        let margin = self
            .faults
            .as_ref()
            .map(|fl| fl.policy.margin_ns)
            .unwrap_or(0);
        self.install_tp_at(TpDriver::default(), now + margin);
    }

    /// A rebooted agent reconnects: the controller re-arms every
    /// unapplied update targeting it (fresh message ids; the
    /// per-task `applied` guard absorbs any double-arm from an old
    /// retransmission that lands later).
    fn handle_switch_recover(&mut self, now: Nanos, switch: SwitchId) {
        self.switches[switch.index()].agent.online = true;
        let pending: Vec<(usize, Nanos, FlowMod)> = {
            let Some(fl) = self.faults.as_ref() else {
                return;
            };
            if fl.rollback_started {
                return;
            }
            fl.tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.applied && t.switch == switch)
                .map(|(i, t)| (i, t.local_target, t.flowmod.clone()))
                .collect()
        };
        for (task, local_time, flowmod) in pending {
            self.ctrl_send(
                CtrlPayload::Arm {
                    task,
                    switch,
                    local_time,
                    flowmod,
                },
                now,
                Some(task),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_core::greedy::greedy_schedule;
    use chronus_net::motivating_example;

    fn short_config() -> EmuConfig {
        EmuConfig {
            run_for: 8_000_000_000,
            update_at: 2_000_000_000,
            ..Default::default()
        }
    }

    #[test]
    fn steady_state_delivers_everything() {
        let inst = motivating_example();
        let emu = Emulator::new(&inst, short_config(), 1);
        let report = emu.run();
        assert!(report.clean(), "drops: {report:?}");
        // 1 Mbps for 8 s ≈ 1 MB delivered (minus in-flight tail).
        let delivered = report.total_delivered();
        assert!(
            delivered > 800_000 && delivered <= 1_000_000,
            "delivered {delivered}"
        );
        // The old path carries ≈1 Mbps in every sampled window.
        let s0s1 = &report.bandwidth[&(SwitchId(0), SwitchId(1))];
        assert!(!s0s1.is_empty());
        for s in &s0s1[1..] {
            assert!((s.offered_mbps - 1.0).abs() < 0.3, "{s:?}");
        }
    }

    #[test]
    fn chronus_update_stays_clean_and_migrates() {
        let inst = motivating_example();
        let schedule = greedy_schedule(&inst).unwrap().schedule;
        let mut emu = Emulator::new(&inst, short_config(), 2);
        emu.install_driver(UpdateDriver::chronus(schedule, &inst));
        let report = emu.run();
        assert_eq!(report.ttl_drops, 0, "no loops under Chronus");
        assert_eq!(report.table_misses, 0);
        assert_eq!(report.applied_updates.len(), 4);
        // After the update, traffic flows on the new first link <v1,v4>.
        let new_link = &report.bandwidth[&(SwitchId(0), SwitchId(3))];
        let late = new_link.last().unwrap();
        assert!(late.offered_mbps > 0.7, "migrated traffic: {late:?}");
        // And the old second link <v2,v3> is quiet at the end.
        let old_link = &report.bandwidth[&(SwitchId(1), SwitchId(2))];
        let late_old = old_link.last().unwrap();
        assert!(
            late_old.offered_mbps < 0.3,
            "old path drained: {late_old:?}"
        );
    }

    #[test]
    fn engine_driver_plans_and_migrates_cleanly() {
        // The engine's greedy stage wins on the motivating example, so
        // the install reduces to Chronus-style timed events — same
        // clean migration as the handed-in schedule, but planned at
        // install time.
        let inst = motivating_example();
        let mut emu = Emulator::new(&inst, short_config(), 2);
        emu.install_driver(UpdateDriver::engine(std::sync::Arc::new(inst), 2));
        let report = emu.run();
        assert_eq!(report.ttl_drops, 0, "no loops under the engine plan");
        assert_eq!(report.table_misses, 0);
        assert_eq!(report.applied_updates.len(), 4);
        let new_link = &report.bandwidth[&(SwitchId(0), SwitchId(3))];
        assert!(new_link.last().unwrap().offered_mbps > 0.7);
        let old_link = &report.bandwidth[&(SwitchId(1), SwitchId(2))];
        assert!(old_link.last().unwrap().offered_mbps < 0.3);
    }

    #[test]
    fn engine_driver_zero_deadline_installs_two_phase() {
        // A spent deadline degrades the plan to the two-phase
        // fallback: the emulator installs tagged duplicates + a stamp
        // flip instead of timed updates — more events than the four
        // timed rewrites, still a clean migration.
        let inst = motivating_example();
        let mut emu = Emulator::new(&inst, short_config(), 2);
        let mut driver = match UpdateDriver::engine(std::sync::Arc::new(inst), 1) {
            UpdateDriver::Engine(d) => d,
            _ => unreachable!(),
        };
        driver.deadline = std::time::Duration::ZERO;
        emu.install_driver(UpdateDriver::Engine(driver));
        let report = emu.run();
        assert_eq!(report.ttl_drops, 0, "two-phase never loops");
        assert!(
            report.applied_updates.len() > 4,
            "TP installs duplicates, flip and cleanup: {}",
            report.applied_updates.len()
        );
    }

    #[test]
    #[should_panic(expected = "must match the emulated instance")]
    fn engine_driver_rejects_mismatched_instance() {
        let inst = motivating_example();
        let mut emu = Emulator::new(&inst, short_config(), 2);
        let other = chronus_net::reversal_instance(4, 2, 1);
        emu.install_driver(UpdateDriver::engine(std::sync::Arc::new(other), 1));
    }

    #[test]
    fn or_round_with_source_congests_transiently() {
        // Round 1 fires v1 and v2 together: new flow reaches <v4,v5>
        // through the shortcut (delay 1 unit) while old in-flight
        // cohorts are still draining through v2→v3→v4 (delay 3 units):
        // for ~2 delay units the link sees double its capacity — the
        // Fig. 6 congestion spike.
        let inst = motivating_example();
        let cfg = EmuConfig {
            stats_interval: 100_000_000, // 100 ms windows resolve the spike
            ..short_config()
        };
        // Only the first OR round: the overlap on <v4,v5> is not cut
        // short by v4's own update, so a full sampling window sees
        // both streams. The seed pins a latency draw whose overlap
        // spans a whole window; draws that straddle two windows dilute
        // the peak below the doubled-capacity threshold.
        let rounds = vec![vec![SwitchId(0), SwitchId(1)]];
        let mut emu = Emulator::new(&inst, cfg, 0);
        emu.install_driver(UpdateDriver::or_rounds(rounds));
        let report = emu.run();
        let peak = report.peak_offered_mbps((SwitchId(3), SwitchId(4)));
        assert!(
            peak > 1.5,
            "old+new streams must overlap on <v4,v5>, peak {peak}"
        );
    }

    #[test]
    fn persistent_mixed_state_exhausts_ttl() {
        // Updating v4 (new rule → v3) while v3 keeps its old rule
        // (→ v4) creates a standing two-switch loop: every arriving
        // packet bounces until its TTL expires.
        let inst = motivating_example();
        let cfg = EmuConfig {
            ttl: 8, // a bounce costs 2 hops / 200 ms; 8 hops expire fast
            ..short_config()
        };
        let mut emu = Emulator::new(&inst, cfg, 6);
        emu.install_driver(UpdateDriver::or_rounds(vec![vec![SwitchId(3)]]));
        let report = emu.run();
        // The standing loop kills packets two ways: TTL expiry on the
        // bounce, and buffer overflow on the links the circulating
        // traffic doubles up. Either way, traffic dies and delivery
        // stalls.
        assert!(
            report.ttl_drops > 0 || report.buffer_drops > 0,
            "standing loop must drop packets: {report:?}"
        );
        assert!(!report.clean());
    }

    #[test]
    fn ttl_drop_forensics_localize_the_loop() {
        // Same standing v3↔v4 loop as above, but with a buffer deep
        // enough that packets die of TTL exhaustion (not overflow):
        // every drop record must carry the bounce trail, and the trail
        // must name the two looping switches.
        let inst = motivating_example();
        let cfg = EmuConfig {
            ttl: 8,
            buffer_delay: 10_000_000_000, // never overflow; force TTL expiry
            ..short_config()
        };
        let mut emu = Emulator::new(&inst, cfg, 6);
        emu.install_driver(UpdateDriver::or_rounds(vec![vec![SwitchId(3)]]));
        let report = emu.run();
        assert!(report.ttl_drops > 0, "standing loop must expire packets");
        assert!(!report.ttl_drop_records.is_empty());
        assert!(
            report.ttl_drop_records.len() <= crate::report::MAX_TTL_DROP_RECORDS,
            "forensics stay bounded"
        );
        for drop in &report.ttl_drop_records {
            assert!(drop.looped(), "an expiring packet was bouncing: {drop:?}");
            // The v3↔v4 bounce dominates the remembered tail.
            assert!(
                drop.last_hops.contains(&SwitchId(2)) && drop.last_hops.contains(&SwitchId(3)),
                "trail names the looping pair: {drop:?}"
            );
        }
    }

    #[test]
    fn two_phase_is_loop_free_but_doubles_rules() {
        let inst = motivating_example();
        let mut emu = Emulator::new(&inst, short_config(), 3);
        emu.install_driver(UpdateDriver::two_phase());
        // Run and inspect: no loops, no misses.
        let report = emu.run();
        assert_eq!(report.ttl_drops, 0, "TP is per-packet consistent");
        assert_eq!(report.table_misses, 0);
    }

    #[test]
    fn tp_peak_rules_exceed_chronus_peak() {
        let inst = motivating_example();
        // TP: the transition holds old rules (6) plus the tagged new
        // generation (4: v4, v3, v2, v6 — the source's stamp rule is
        // the modified original).
        let mut tp = Emulator::new(&inst, short_config(), 4);
        tp.install_driver(UpdateDriver::two_phase());
        let tp_report = tp.run();
        assert_eq!(tp_report.peak_rule_count, 10);

        // Chronus rewrites actions in place: the peak never exceeds
        // the baseline 6 rules.
        let schedule = greedy_schedule(&inst).unwrap().schedule;
        let mut ch = Emulator::new(&inst, short_config(), 4);
        ch.install_driver(UpdateDriver::chronus(schedule, &inst));
        let ch_report = ch.run();
        assert_eq!(ch_report.peak_rule_count, 6);
    }

    /// A fault-enabled emulator with the motivating example's greedy
    /// schedule installed over the reliable channel.
    fn faulty_emu(plan: FaultPlan, reliable: ReliableConfig, slack: SlackBudget) -> Emulator {
        let inst = motivating_example();
        let schedule = greedy_schedule(&inst).unwrap().schedule;
        let mut emu = Emulator::new(&inst, short_config(), 2);
        emu.install_faults(plan, reliable, slack);
        emu.install_driver(UpdateDriver::chronus(schedule, &inst));
        emu
    }

    #[test]
    fn reliable_quiet_run_migrates_cleanly() {
        let emu = faulty_emu(
            FaultPlan::quiet(7),
            ReliableConfig::default(),
            SlackBudget::new(99_000_000),
        );
        let report = emu.run();
        assert!(report.clean(), "quiet faulty channel stays clean");
        assert_eq!(report.applied_updates.len(), 4);
        assert_eq!(report.timed_tasks_pending, 0);
        assert!(!report.rolled_back);
        let f = report.faults.expect("fault summary present");
        assert_eq!(f.drops, 0);
        assert_eq!(f.retransmits, 0);
        assert_eq!(f.triggers_armed, 4);
        assert_eq!(f.triggers_fired, 4);
        assert_eq!(f.rollbacks, 0);
        // Traffic migrated exactly as on the ideal channel.
        let new_link = &report.bandwidth[&(SwitchId(0), SwitchId(3))];
        assert!(new_link.last().unwrap().offered_mbps > 0.7);
    }

    #[test]
    fn lossy_run_recovers_via_retransmission() {
        let emu = faulty_emu(
            FaultPlan::lossy(11, 0.2),
            ReliableConfig::default(),
            SlackBudget::new(99_000_000),
        );
        let report = emu.run();
        assert_eq!(report.ttl_drops, 0, "no loops despite 20% message loss");
        assert_eq!(report.table_misses, 0);
        assert_eq!(report.timed_tasks_pending, 0, "every update landed");
        assert!(!report.rolled_back);
        let f = report.faults.expect("fault summary present");
        assert!(f.drops > 0, "the seed must actually drop something: {f}");
        assert!(
            f.retransmits > 0,
            "recovery must come from retransmission: {f}"
        );
        assert_eq!(f.exhausted, 0);
    }

    #[test]
    fn reboot_before_update_recovers_via_rearm() {
        // The agent reboots after the Arm messages went out (send at
        // update_at − 1s = 1s) and comes back 200 ms later — well
        // before its triggers fire at ≥ 2s. The recovery re-arm path
        // must restore the lost trigger.
        let plan = FaultPlan::quiet(3).with_reboot(1_100_000_000, SwitchId(1), 200_000_000);
        let emu = faulty_emu(
            plan,
            ReliableConfig::default(),
            SlackBudget::new(99_000_000),
        );
        let report = emu.run();
        assert!(report.clean(), "reboot recovery keeps the run clean");
        assert_eq!(report.timed_tasks_pending, 0);
        assert!(!report.rolled_back);
        let f = report.faults.expect("fault summary present");
        assert_eq!(f.reboots, 1);
        assert_eq!(f.triggers_lost, 1, "the reboot wiped one armed trigger");
        assert!(f.triggers_armed >= 5, "the lost trigger was re-armed: {f}");
        assert_eq!(f.triggers_fired, 4, "each task still applies exactly once");
    }

    #[test]
    fn dead_channel_with_zero_slack_rolls_back_to_two_phase() {
        // Every control message vanishes: retries exhaust, the
        // watchdog finds zero certified slack, and the run must fall
        // back to the two-phase path — which installs over the
        // *ideal* legacy channel and still completes the migration.
        let reliable = ReliableConfig {
            max_retries: 2,
            ..ReliableConfig::default()
        };
        let emu = faulty_emu(FaultPlan::lossy(5, 1.0), reliable, SlackBudget::zero());
        let report = emu.run();
        assert!(report.rolled_back, "zero slack must force the rollback");
        assert_eq!(
            report.timed_tasks_pending, 4,
            "the timed plan itself never lands"
        );
        assert_eq!(report.ttl_drops, 0, "two-phase fallback never loops");
        assert_eq!(report.table_misses, 0);
        let f = report.faults.expect("fault summary present");
        assert_eq!(f.rollbacks, 1, "rollback fires once, not per task");
        assert!(f.exhausted > 0, "retries ran dry first: {f}");
        // TP installs tagged duplicates + flip + cleanup: more events
        // than the four timed rewrites.
        assert!(report.applied_updates.len() > 4);
        let new_link = &report.bandwidth[&(SwitchId(0), SwitchId(3))];
        assert!(
            new_link.last().unwrap().offered_mbps > 0.7,
            "the fallback still migrates the traffic"
        );
    }

    #[test]
    fn clock_spike_within_slack_stays_clean() {
        // A +50 µs desync spike hits v2 before its trigger fires: the
        // switch fires 50 µs early — far inside the certified ±99 ms
        // tolerance, so the run stays consistent.
        // Baseline: the same seeds with no spike — deviations are just
        // the drawn clock offset/drift residuals.
        let quiet = faulty_emu(
            FaultPlan::quiet(9),
            ReliableConfig::default(),
            SlackBudget::new(99_000_000),
        )
        .run();
        let base_dev = quiet.faults.expect("fault summary").max_fire_deviation_ns;

        let plan = FaultPlan::quiet(9).with_spike(1_500_000_000, SwitchId(1), 50_000);
        let emu = faulty_emu(
            plan,
            ReliableConfig::default(),
            SlackBudget::new(99_000_000),
        );
        let report = emu.run();
        assert!(report.clean(), "an in-slack spike must not break the run");
        assert_eq!(report.timed_tasks_pending, 0);
        let f = report.faults.expect("fault summary present");
        assert_eq!(f.spikes, 1);
        assert!(
            f.max_fire_deviation_ns > base_dev,
            "the spike shows up as extra firing deviation: {} vs baseline {base_dev}",
            f.max_fire_deviation_ns
        );
        assert!(
            f.max_fire_deviation_ns < 99_000_000,
            "but stays inside the certified slack: {f}"
        );
    }
}
