//! The faulty control plane: reliable delivery state for timed
//! updates under an injected [`chronus_faults::FaultPlan`].
//!
//! Without faults installed, the emulator's Chronus driver pushes each
//! timed `ApplyFlowMod` straight onto the event queue — an idealized
//! control channel. [`crate::Emulator::install_faults`] replaces that
//! with the full Time4 distribution protocol: every update becomes a
//! [`CtrlPayload::Arm`] message sent ahead of its trigger time through
//! a lossy channel (the [`FaultInjector`] decides each message's
//! fate), retransmitted with exponential backoff until acknowledged
//! ([`ReliableOutbox`]), deduplicated at the switch agent, fired by
//! the switch's own [`chronus_clock::ScheduledExecutor`], and watched over by a
//! controller-side deadline check that re-sends within the certified
//! slack window or falls back to the two-phase rollback path.

use chronus_clock::Nanos;
use chronus_faults::{
    FaultInjector, FaultStats, MsgId, RecoveryPolicy, ReliableConfig, ReliableOutbox, SlackBudget,
};
use chronus_net::SwitchId;
use chronus_openflow::FlowMod;
use std::collections::HashMap;

/// A control-plane message body, carried inside a
/// [`chronus_faults::Envelope`] on the (lossy) controller↔switch
/// channel.
#[derive(Clone, Debug)]
pub enum CtrlPayload {
    /// Arm a timed trigger: fire `flowmod` when the switch's local
    /// clock reaches `local_time` (the Time4 distribution message).
    Arm {
        /// Index into the controller's task table.
        task: usize,
        /// Target switch.
        switch: SwitchId,
        /// Local-clock firing time (ns).
        local_time: Nanos,
        /// The update to apply.
        flowmod: FlowMod,
    },
    /// Apply `flowmod` immediately on delivery — the watchdog's
    /// slack-certified re-send for a missed trigger.
    Apply {
        /// Index into the controller's task table.
        task: usize,
        /// Target switch.
        switch: SwitchId,
        /// The update to apply.
        flowmod: FlowMod,
    },
    /// Disarm every pending trigger on the switch — the first step of
    /// the two-phase rollback fallback.
    Abort {
        /// Target switch.
        switch: SwitchId,
    },
}

impl CtrlPayload {
    /// The switch this message is addressed to.
    pub fn switch(&self) -> SwitchId {
        match *self {
            CtrlPayload::Arm { switch, .. }
            | CtrlPayload::Apply { switch, .. }
            | CtrlPayload::Abort { switch } => switch,
        }
    }
}

/// Controller-side state of one timed update: a single `(flow,
/// switch, step)` schedule entry turned into a distributable task.
#[derive(Clone, Debug)]
pub(crate) struct TaskState {
    /// Target switch.
    pub switch: SwitchId,
    /// Local-clock firing time the trigger is armed for (ns).
    pub local_target: Nanos,
    /// The schedule's intent in true time: `update_at + t · step` (ns).
    /// Fire deviations are measured against this instant.
    pub nominal_true: Nanos,
    /// The update to apply.
    pub flowmod: FlowMod,
    /// The update has been applied (or its apply event is scheduled
    /// and can no longer be lost).
    pub applied: bool,
}

/// Everything the emulator tracks when faults are installed.
pub(crate) struct FaultLayer {
    /// Executes the fault plan (owns its own seeded RNG).
    pub injector: FaultInjector,
    /// Sender half of the reliable channel.
    pub outbox: ReliableOutbox<CtrlPayload>,
    /// Retransmission policy (also read for lead time / base delay).
    pub reliable: ReliableConfig,
    /// The watchdog's recovery decision policy.
    pub policy: RecoveryPolicy,
    /// Certified timing tolerance ±Δ for re-arm decisions.
    pub slack: SlackBudget,
    /// `chronus_faults_*` instruments for the run.
    pub stats: FaultStats,
    /// All timed-update tasks, indexed by the ids in [`CtrlPayload`].
    pub tasks: Vec<TaskState>,
    /// Logical message → task (for escalating exhausted retries);
    /// `None` for task-less messages (aborts).
    pub msg_task: HashMap<MsgId, Option<usize>>,
    /// The watchdog gave up on the timed plan and the two-phase
    /// rollback has been initiated.
    pub rollback_started: bool,
}

impl FaultLayer {
    /// A fresh layer; `margin` is the watchdog's re-arm margin —
    /// how long a re-sent update takes to land and apply.
    pub fn new(injector: FaultInjector, reliable: ReliableConfig, slack: SlackBudget) -> Self {
        let margin = reliable.base_delay_ns + 2 * reliable.ack_timeout_ns;
        FaultLayer {
            injector,
            outbox: ReliableOutbox::new(reliable),
            reliable,
            policy: RecoveryPolicy::new(margin),
            slack,
            stats: FaultStats::new(),
            tasks: Vec::new(),
            msg_task: HashMap::new(),
            rollback_started: false,
        }
    }

    /// Tasks not yet applied (0 means the timed plan completed).
    pub fn pending_tasks(&self) -> usize {
        self.tasks.iter().filter(|t| !t.applied).count()
    }
}
