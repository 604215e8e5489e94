//! The daemon proper: admission queues feeding worker threads over a
//! resident [`Engine`], a write-ahead journal of armed schedules, and
//! the restore path that re-arms or rolls back after a crash.
//!
//! Locking story: the admission queues and the status table each sit
//! behind a `std::sync::Mutex` + `Condvar` pair. Locks are never held
//! across planning — a worker pops under the queue lock, releases it,
//! and plans on its own thread with only the engine's internal
//! synchronization. Poisoned locks are
//! recovered with `PoisonError::into_inner`: every protected value is
//! a plain data structure that stays coherent even if a panicking
//! thread abandoned it mid-update.

use crate::admission::{AdmissionQueues, Priority, QueuedJob, Shed};
use crate::config::DaemonConfig;
use crate::journal::{ArmedRecord, Journal};
use crate::metrics::DaemonMetrics;
use crate::slo::SloTracker;
use chronus_clock::Nanos;
use chronus_engine::{Engine, UpdateRequest};
use chronus_faults::{RecoveryAction, RecoveryPolicy, SlackBudget};
use chronus_net::UpdateInstance;
use chronus_trace::FlightRecorder;
use serde_json::{Map, Value};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPED: u8 = 2;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lifecycle of one submitted update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateState {
    /// Admitted, waiting for a planning worker.
    Queued,
    /// A worker is planning it.
    Planning,
    /// A certified timed schedule is armed and journaled; awaiting
    /// operator confirmation.
    Armed,
    /// Settled successfully (uncertified/two-phase plans settle
    /// directly; armed updates settle on confirm).
    Completed,
    /// Settled by rollback (restore found its certified window
    /// unreachable).
    RolledBack,
    /// Settled by failure (e.g. the instance failed validation).
    Failed,
}

impl UpdateState {
    /// Wire name of the state.
    pub fn as_str(self) -> &'static str {
        match self {
            UpdateState::Queued => "queued",
            UpdateState::Planning => "planning",
            UpdateState::Armed => "armed",
            UpdateState::Completed => "completed",
            UpdateState::RolledBack => "rolled_back",
            UpdateState::Failed => "failed",
        }
    }

    /// A settled update will never change state on its own again
    /// (armed counts: it holds steady until confirmed or restored).
    pub fn is_settled(self) -> bool {
        !matches!(self, UpdateState::Queued | UpdateState::Planning)
    }

    /// A terminal update never changes state again at all.
    fn is_terminal(self) -> bool {
        matches!(
            self,
            UpdateState::Completed | UpdateState::RolledBack | UpdateState::Failed
        )
    }
}

/// Terminal (`completed` / `rolled_back` / `failed`) statuses the daemon
/// remembers, most recent first to go last. `status` and `watch` on an
/// older id answer `unknown update`, as for one never issued; queued,
/// planning and armed updates are never forgotten.
pub const TERMINAL_STATUSES_KEPT: usize = 4_096;

/// Every live update's status, the most recent terminal ones, and how
/// many updates ever reached each state (forgotten ones included).
#[derive(Default)]
struct StatusTable {
    by_id: BTreeMap<u64, UpdateStatus>,
    /// Remembered terminal ids, oldest first.
    terminal: VecDeque<u64>,
    /// Updates per state, keyed by wire name.
    counts: BTreeMap<&'static str, u64>,
}

impl StatusTable {
    fn insert(&mut self, status: UpdateStatus) {
        let (id, state) = (status.id, status.state);
        if let Some(previous) = self.by_id.insert(id, status) {
            self.uncount(previous.state);
        }
        self.count(id, state);
    }

    /// Applies `change` to update `id`'s status, if it is remembered.
    fn update(&mut self, id: u64, change: impl FnOnce(&mut UpdateStatus)) {
        let Some(status) = self.by_id.get_mut(&id) else {
            return;
        };
        let before = status.state;
        change(status);
        let after = status.state;
        if before != after {
            self.uncount(before);
            self.count(id, after);
        }
    }

    /// Drops an update that was never admitted.
    fn remove(&mut self, id: u64) {
        if let Some(status) = self.by_id.remove(&id) {
            self.uncount(status.state);
        }
    }

    fn count(&mut self, id: u64, state: UpdateState) {
        *self.counts.entry(state.as_str()).or_insert(0) += 1;
        if state.is_terminal() {
            self.terminal.push_back(id);
            if self.terminal.len() > TERMINAL_STATUSES_KEPT {
                // Forgotten, not uncounted: the aggregates stay totals.
                if let Some(oldest) = self.terminal.pop_front() {
                    self.by_id.remove(&oldest);
                }
            }
        }
    }

    fn uncount(&mut self, state: UpdateState) {
        if let Some(count) = self.counts.get_mut(state.as_str()) {
            *count -= 1;
            if *count == 0 {
                self.counts.remove(state.as_str());
            }
        }
    }
}

/// Point-in-time view of one update's progress.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateStatus {
    /// Daemon-assigned id.
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Priority class.
    pub priority: Priority,
    /// Current lifecycle state.
    pub state: UpdateState,
    /// Human-oriented detail (winning stage, rollback reason, …).
    pub detail: String,
    /// Whether a consistency certificate backs the plan.
    pub certified: bool,
    /// Daemon-clock arm epoch for armed updates.
    pub epoch_ns: Option<Nanos>,
}

impl UpdateStatus {
    /// Encodes the status for the IPC layer.
    pub fn to_value(&self) -> Value {
        let mut obj = Map::new();
        obj.insert("id".to_string(), Value::from_u64_exact(self.id));
        obj.insert("tenant".to_string(), Value::from(self.tenant.as_str()));
        obj.insert("priority".to_string(), Value::from(self.priority.as_str()));
        obj.insert("state".to_string(), Value::from(self.state.as_str()));
        obj.insert("detail".to_string(), Value::from(self.detail.as_str()));
        obj.insert("certified".to_string(), Value::Bool(self.certified));
        obj.insert(
            "epoch_ns".to_string(),
            match self.epoch_ns {
                Some(e) => Value::from_i128_exact(e),
                None => Value::Null,
            },
        );
        Value::Object(obj)
    }
}

/// What the restore pass did with the journal's live records.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Live (armed, unsettled) records found in the journal.
    pub live_found: u64,
    /// Records re-armed: certificate re-checked and every trigger
    /// still reachable within its certified slack.
    pub rearmed: u64,
    /// Records rolled back: certificate broken or certified window
    /// unreachable.
    pub rolled_back: u64,
    /// Records neither re-armed nor rolled back. Zero by
    /// construction; reported so tests can pin it.
    pub lost: u64,
    /// Journal lines that failed to parse.
    pub corrupt_lines: u64,
}

/// Outcome of a graceful [`Daemon::shutdown`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Requests the resident engine planned over its lifetime.
    pub engine_planned: u64,
    /// Armed updates still live (persisted for the next restore).
    pub armed_remaining: usize,
    /// Live records written by the final snapshot.
    pub snapshot_live: usize,
}

struct Inner {
    config: DaemonConfig,
    engine: Engine,
    admission: Mutex<AdmissionQueues>,
    work_cv: Condvar,
    statuses: Mutex<StatusTable>,
    status_cv: Condvar,
    journal: Mutex<Journal>,
    armed: Mutex<BTreeMap<u64, ArmedRecord>>,
    metrics: DaemonMetrics,
    slo: Mutex<SloTracker>,
    /// Shed-storm window: start (daemon-clock ns, truncated to u64)
    /// and sheds seen inside it. Races on the reset only merge two
    /// concurrent storms into one — the trigger still fires.
    shed_window_start: AtomicU64,
    shed_window_count: AtomicU64,
    state: AtomicU8,
    next_id: AtomicU64,
    base_ns: Nanos,
    started: Instant,
    restore: RestoreReport,
}

/// Sheds inside one window before the storm trigger fires.
const SHED_STORM_COUNT: u64 = 8;
/// Shed-storm window length.
const SHED_STORM_WINDOW_NS: u64 = 1_000_000_000;

impl Inner {
    fn now_ns(&self) -> Nanos {
        self.base_ns + self.started.elapsed().as_nanos() as Nanos
    }

    fn set_status(&self, status: UpdateStatus) {
        lock(&self.statuses).insert(status);
        self.status_cv.notify_all();
    }

    fn update_state(&self, id: u64, state: UpdateState, detail: &str) {
        lock(&self.statuses).update(id, |s| {
            s.state = state;
            s.detail = detail.to_string();
        });
        self.status_cv.notify_all();
    }

    fn publish_depths(&self, queues: &AdmissionQueues) {
        let (h, n, l) = queues.depths();
        self.metrics.set_queue_depths(h, n, l);
    }

    /// Scores one outcome against the tenant's SLO: updates the burn
    /// gauges, tags the latency histogram with the plan span as its
    /// exemplar, and fires the fast-burn instant + forensic dump when
    /// the short window crosses the threshold.
    fn record_slo(&self, tenant: &str, latency_ns: u64, ok: bool, span_id: u64) {
        let now = self.now_ns();
        let obs = lock(&self.slo).record(tenant, latency_ns as Nanos, ok, now);
        self.metrics
            .slo_latency_ns
            .record_with_exemplar(latency_ns, span_id);
        if obs.bad {
            self.metrics.slo_bad.inc();
        }
        let registry = self.engine.metrics().registry();
        DaemonMetrics::slo_burn_gauge(registry, tenant, "5m").set((obs.burn.short * 1000.0) as i64);
        DaemonMetrics::slo_burn_gauge(registry, tenant, "1h").set((obs.burn.long * 1000.0) as i64);
        if obs.crossed {
            chronus_trace::instant!(
                "daemon.slo_burn",
                burn_x1000 = (obs.burn.short * 1000.0) as u64
            );
            FlightRecorder::trigger("slo-burn");
        }
    }

    /// Counts one admission shed toward the storm window; a burst of
    /// [`SHED_STORM_COUNT`] sheds inside one window is the overload
    /// signature that fires a forensic dump.
    fn note_shed(&self) {
        let now = self.now_ns().max(0) as u64;
        let start = self.shed_window_start.load(Ordering::Relaxed);
        if start == 0 || now.saturating_sub(start) > SHED_STORM_WINDOW_NS {
            self.shed_window_start.store(now, Ordering::Relaxed);
            self.shed_window_count.store(1, Ordering::Relaxed);
            return;
        }
        let sheds = self.shed_window_count.fetch_add(1, Ordering::Relaxed) + 1;
        if sheds == SHED_STORM_COUNT {
            chronus_trace::instant!("daemon.shed_storm", sheds = sheds);
            FlightRecorder::trigger("shed-storm");
        }
    }

    /// One worker's lifetime: pop by priority, plan, settle. Exits
    /// when draining and the queues are empty, or immediately on
    /// STOPPED (the crash-like drop path).
    fn worker_loop(self: &Arc<Self>) {
        loop {
            let job = {
                let mut queues = lock(&self.admission);
                loop {
                    if self.state.load(Ordering::Acquire) == STOPPED {
                        return;
                    }
                    if let Some(job) = queues.pop() {
                        self.publish_depths(&queues);
                        break job;
                    }
                    if self.state.load(Ordering::Acquire) == DRAINING {
                        return;
                    }
                    let (guard, _) = self
                        .work_cv
                        .wait_timeout(queues, Duration::from_millis(50))
                        .unwrap_or_else(PoisonError::into_inner);
                    queues = guard;
                }
            };
            self.plan_job(job);
        }
    }

    fn plan_job(&self, job: QueuedJob) {
        let picked_up_ns = self.now_ns();
        self.metrics
            .queue_wait_ns
            .record(picked_up_ns.saturating_sub(job.enqueued_ns).max(0) as u64);
        self.update_state(job.id, UpdateState::Planning, "planning");

        let request = UpdateRequest::new(job.id, job.instance.clone(), job.deadline);
        let planned = self.engine.plan_one(request);
        self.metrics.planned.inc();
        let plan_ns = planned.elapsed.as_nanos() as u64;
        self.metrics
            .plan_ns
            .record_with_exemplar(plan_ns, planned.span_id);
        self.record_slo(
            &job.tenant,
            plan_ns,
            !planned.deadline_exceeded,
            planned.span_id,
        );

        match (planned.timed_schedule(), &planned.certificate) {
            (Ok(schedule), Some(certificate)) => {
                let epoch_ns = self.now_ns();
                let record = ArmedRecord {
                    id: job.id,
                    tenant: job.tenant.clone(),
                    priority: job.priority,
                    epoch_ns,
                    dilation: planned.dilation,
                    instance: (*job.instance).clone(),
                    schedule: schedule.clone(),
                    certificate: certificate.clone(),
                    slack: planned.slack.clone(),
                    span_id: planned.span_id,
                    plan_ns,
                };
                // WAL discipline: the arm record is durable before the
                // status (and hence any IPC acknowledgment) says so. The
                // `armed` lock is held across both the append and the map
                // insert so a concurrent compaction (which snapshots the
                // map and rewrites the file under the same lock) cannot
                // interleave between them and drop the fresh record from
                // disk. Lock order is `armed` → `journal` everywhere. The
                // record is encoded before either lock is taken: workers
                // queue behind each other's fsync, not each other's JSON.
                let appended = Journal::encode_arm(&record).and_then(|line| {
                    let mut armed = lock(&self.armed);
                    lock(&self.journal).append_line(&line)?;
                    armed.insert(job.id, record);
                    Ok(armed.len())
                });
                let live = match appended {
                    Ok(live) => live,
                    Err(e) => {
                        self.metrics.failed.inc();
                        self.update_state(
                            job.id,
                            UpdateState::Failed,
                            &format!("journal append failed: {e}"),
                        );
                        return;
                    }
                };
                self.metrics.armed.inc();
                self.metrics.journal_live.set(live as i64);
                lock(&self.statuses).update(job.id, |s| {
                    s.state = UpdateState::Armed;
                    s.detail = format!("armed ({} winner)", planned.winner);
                    s.certified = true;
                    s.epoch_ns = Some(epoch_ns);
                });
                self.status_cv.notify_all();
            }
            (Ok(_), None) => {
                self.metrics.completed.inc();
                self.update_state(job.id, UpdateState::Completed, "timed (uncertified)");
            }
            (Err(_), _) => {
                self.metrics.completed.inc();
                self.update_state(job.id, UpdateState::Completed, "two-phase fallback");
            }
        }
        self.metrics
            .submit_to_settle_ns
            .record(self.now_ns().saturating_sub(job.enqueued_ns).max(0) as u64);
    }

    /// Compacts the journal down to the live armed set. Holds the
    /// `armed` lock for the whole rewrite so arm/confirm (which mutate
    /// the map and the journal under the same lock) cannot interleave
    /// and have their records dropped from the rewritten file.
    fn compact_journal(&self) -> std::io::Result<usize> {
        let armed = lock(&self.armed);
        let live: Vec<&ArmedRecord> = armed.values().collect();
        let count = live.len();
        lock(&self.journal).compact(&live)?;
        self.metrics.snapshots.inc();
        Ok(count)
    }
}

/// The `chronusd` service: admission, planning workers, warm engine
/// state and the write-ahead journal, behind a cloneable handle-free
/// API (the IPC server shares it via `Arc<Daemon>` internally).
pub struct Daemon {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    snapshotter: Mutex<Option<JoinHandle<()>>>,
}

impl Daemon {
    /// Boots the daemon: opens (and replays) the journal, builds the
    /// resident engine (whose registry the daemon's metrics share),
    /// restores armed updates through the re-arm-or-rollback policy,
    /// then starts the planning workers and (when configured) the
    /// periodic snapshotter.
    pub fn start(config: DaemonConfig) -> Result<Daemon, String> {
        let journal_path = config.journal_path();
        let replay = Journal::replay(&journal_path)
            .map_err(|e| format!("journal replay {}: {e}", journal_path.display()))?;
        let mut journal = Journal::open(&journal_path)
            .map_err(|e| format!("journal open {}: {e}", journal_path.display()))?;

        let base_ns = config.base_epoch_ns.unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as Nanos)
        });
        let started = Instant::now();
        let now_ns = base_ns + started.elapsed().as_nanos() as Nanos;

        let engine = Engine::new(config.engine());
        let metrics = DaemonMetrics::new(engine.metrics().registry());
        metrics.journal_corrupt_lines.add(replay.corrupt_lines);

        // Restore pass: every live record is re-armed within its
        // certified slack or rolled back — never silently dropped.
        let policy = RecoveryPolicy::new(config.rearm_margin_ns);
        let mut slo = SloTracker::new(config.slo());
        let mut rollback_trigger = false;
        let mut armed = BTreeMap::new();
        let mut statuses = StatusTable::default();
        let mut restore = RestoreReport {
            live_found: replay.live.len() as u64,
            corrupt_lines: replay.corrupt_lines,
            ..RestoreReport::default()
        };
        for record in replay.live {
            let budget = record
                .slack
                .as_ref()
                .map(|s| SlackBudget::new(s.delta_ns(config.step_ns)))
                .unwrap_or_else(SlackBudget::zero);
            let cert_ok = record.certificate.check(&record.instance).is_ok();
            let reachable = record.schedule.iter().all(|(_, _, t)| {
                let nominal = record.epoch_ns + (t as Nanos) * config.step_ns;
                matches!(
                    policy.decide(nominal, now_ns, budget),
                    RecoveryAction::Rearm { .. }
                )
            });
            let status = if cert_ok && reachable {
                restore.rearmed += 1;
                metrics.restore_rearmed.inc();
                let status = UpdateStatus {
                    id: record.id,
                    tenant: record.tenant.clone(),
                    priority: record.priority,
                    state: UpdateState::Armed,
                    detail: "re-armed within certified slack".to_string(),
                    certified: true,
                    epoch_ns: Some(record.epoch_ns),
                };
                armed.insert(record.id, record);
                status
            } else {
                restore.rolled_back += 1;
                metrics.restore_rolled_back.inc();
                // A rollback is an availability failure for the tenant:
                // burn it against the SLO, tagging the latency bucket
                // with the journaled plan span so the forensic dump can
                // tie the exemplar back to the rolled-back update.
                slo.record(&record.tenant, record.plan_ns as Nanos, false, now_ns);
                metrics.slo_bad.inc();
                metrics
                    .slo_latency_ns
                    .record_with_exemplar(record.plan_ns, record.span_id);
                rollback_trigger = true;
                journal
                    .append_rollback(record.id)
                    .map_err(|e| format!("journal rollback: {e}"))?;
                UpdateStatus {
                    id: record.id,
                    tenant: record.tenant.clone(),
                    priority: record.priority,
                    state: UpdateState::RolledBack,
                    detail: if cert_ok {
                        "certified window unreachable; rolled back".to_string()
                    } else {
                        "stored certificate no longer checks; rolled back".to_string()
                    },
                    certified: cert_ok,
                    epoch_ns: Some(record.epoch_ns),
                }
            };
            statuses.insert(status);
        }
        metrics.journal_live.set(armed.len() as i64);

        let worker_count = config.workers.max(1);
        let snapshot_interval_ms = config.snapshot_interval_ms;
        let inner = Arc::new(Inner {
            admission: Mutex::new(AdmissionQueues::new(config.admission())),
            config,
            engine,
            work_cv: Condvar::new(),
            statuses: Mutex::new(statuses),
            status_cv: Condvar::new(),
            journal: Mutex::new(journal),
            armed: Mutex::new(armed),
            metrics,
            slo: Mutex::new(slo),
            shed_window_start: AtomicU64::new(0),
            shed_window_count: AtomicU64::new(0),
            state: AtomicU8::new(RUNNING),
            next_id: AtomicU64::new(replay.max_id),
            base_ns,
            started,
            restore,
        });

        // This daemon's registry (the engine's, shared) backs the
        // process-global forensic dumps from here on (last daemon
        // started wins, which is what restart-in-one-process tests
        // want). Registered before the restore-rollback trigger fires
        // so a dump taken for the rollback embeds the SLO exemplar
        // recorded above.
        {
            let inner = Arc::clone(&inner);
            FlightRecorder::set_metrics_source(Box::new(move || {
                inner.engine.metrics().registry().to_json()
            }));
        }
        if rollback_trigger {
            chronus_trace::instant!(
                "daemon.restore_rollback",
                rolled_back = inner.restore.rolled_back
            );
            FlightRecorder::trigger("restore-rollback");
        }

        let workers = (0..worker_count)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("chronusd-worker-{i}"))
                    .spawn(move || inner.worker_loop())
                    .map_err(|e| format!("spawn worker: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let snapshotter = if snapshot_interval_ms > 0 {
            let inner = Arc::clone(&inner);
            let handle = thread::Builder::new()
                .name("chronusd-snapshot".to_string())
                .spawn(move || {
                    let interval = Duration::from_millis(snapshot_interval_ms);
                    let mut last = Instant::now();
                    while inner.state.load(Ordering::Acquire) == RUNNING {
                        thread::sleep(Duration::from_millis(20).min(interval));
                        if last.elapsed() >= interval {
                            let _ = inner.compact_journal();
                            last = Instant::now();
                        }
                    }
                })
                .map_err(|e| format!("spawn snapshotter: {e}"))?;
            Some(handle)
        } else {
            None
        };

        Ok(Daemon {
            inner,
            workers: Mutex::new(workers),
            snapshotter: Mutex::new(snapshotter),
        })
    }

    /// What the restore pass did at startup.
    pub fn restore_report(&self) -> &RestoreReport {
        &self.inner.restore
    }

    /// The configuration the daemon was started with.
    pub fn config(&self) -> &DaemonConfig {
        &self.inner.config
    }

    /// The daemon's metric handles (crate-internal: the IPC layer
    /// counts connections and protocol errors on them).
    pub(crate) fn metrics(&self) -> &DaemonMetrics {
        &self.inner.metrics
    }

    /// Daemon-clock now (ns since the configured epoch).
    pub fn now_ns(&self) -> Nanos {
        self.inner.now_ns()
    }

    /// Submits one update. Returns its id, or the admission shed.
    pub fn submit(
        &self,
        tenant: &str,
        priority: Priority,
        deadline: Option<Duration>,
        instance: Arc<UpdateInstance>,
    ) -> Result<u64, Shed> {
        let inner = &self.inner;
        inner.metrics.submitted.inc();
        if inner.state.load(Ordering::Acquire) != RUNNING {
            inner.metrics.shed_draining.inc();
            return Err(Shed::Draining);
        }
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let now = inner.now_ns();
        let job = QueuedJob {
            id,
            tenant: tenant.to_string(),
            priority,
            instance,
            deadline: deadline.unwrap_or_else(|| inner.config.default_deadline()),
            enqueued_ns: now,
        };
        inner.set_status(UpdateStatus {
            id,
            tenant: tenant.to_string(),
            priority,
            state: UpdateState::Queued,
            detail: "queued".to_string(),
            certified: false,
            epoch_ns: None,
        });
        let mut queues = lock(&inner.admission);
        // Re-check under the admission lock: shutdown() flips the state
        // while holding it, so a submission that raced past the fast
        // check above cannot be enqueued after the workers were told to
        // drain (it would be acknowledged but never popped).
        if inner.state.load(Ordering::Acquire) != RUNNING {
            drop(queues);
            lock(&inner.statuses).remove(id);
            inner.metrics.shed_draining.inc();
            return Err(Shed::Draining);
        }
        match queues.admit(job, now) {
            Ok(()) => {
                inner.publish_depths(&queues);
                drop(queues);
                inner.metrics.admitted.inc();
                inner.work_cv.notify_one();
                Ok(id)
            }
            Err(shed) => {
                drop(queues);
                match &shed {
                    Shed::QueueFull { .. } => {
                        inner.metrics.shed_queue_full.inc();
                        inner.note_shed();
                    }
                    Shed::RateLimited { .. } => {
                        inner.metrics.shed_rate_limited.inc();
                        inner.note_shed();
                    }
                    Shed::Draining => inner.metrics.shed_draining.inc(),
                }
                lock(&inner.statuses).remove(id);
                Err(shed)
            }
        }
    }

    /// Current status of update `id`.
    pub fn status(&self, id: u64) -> Option<UpdateStatus> {
        lock(&self.inner.statuses).by_id.get(&id).cloned()
    }

    /// Count of updates per lifecycle state, over the daemon's
    /// lifetime: terminal updates stay counted after their status is
    /// forgotten (see [`TERMINAL_STATUSES_KEPT`]).
    pub fn status_counts(&self) -> BTreeMap<&'static str, u64> {
        lock(&self.inner.statuses).counts.clone()
    }

    /// Blocks until update `id` settles, up to `timeout`. Returns the
    /// last observed status (settled or not); `None` for unknown ids.
    pub fn watch(&self, id: u64, timeout: Duration) -> Option<UpdateStatus> {
        let deadline = Instant::now() + timeout;
        let mut map = lock(&self.inner.statuses);
        loop {
            let current = map.by_id.get(&id).cloned()?;
            if current.state.is_settled() {
                return Some(current);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Some(current);
            }
            let (guard, _) = self
                .inner
                .status_cv
                .wait_timeout(map, left.min(Duration::from_millis(50)))
                .unwrap_or_else(PoisonError::into_inner);
            map = guard;
        }
    }

    /// Confirms an armed update as executed on the data plane:
    /// journals the completion tombstone and frees its slot.
    pub fn confirm(&self, id: u64) -> Result<(), String> {
        let inner = &self.inner;
        // Tombstone first, removal second, both under the `armed` lock:
        // if the append fails the record stays live in memory and in the
        // journal (a restart re-arms it, never re-executes it), and a
        // concurrent compaction cannot observe the removal before the
        // tombstone is on disk.
        let mut armed = lock(&inner.armed);
        if !armed.contains_key(&id) {
            return Err(format!("update {id} is not armed"));
        }
        lock(&inner.journal)
            .append_complete(id)
            .map_err(|e| format!("journal complete: {e}"))?;
        armed.remove(&id);
        let live = armed.len();
        drop(armed);
        inner.metrics.confirmed.inc();
        inner.metrics.journal_live.set(live as i64);
        inner.update_state(id, UpdateState::Completed, "confirmed");
        Ok(())
    }

    /// Forces a journal compaction; returns the live record count.
    pub fn snapshot(&self) -> std::io::Result<usize> {
        self.inner.compact_journal()
    }

    /// Prometheus text exposition of the one registry: the daemon's
    /// `chronus_daemon_*` series sort before the engine's
    /// `chronus_engine_*` ones.
    pub fn metrics_text(&self) -> String {
        let inner = &self.inner;
        if FlightRecorder::is_on() {
            inner
                .metrics
                .flight_dumps
                .set(FlightRecorder::dumps_written() as i64);
            inner
                .metrics
                .flight_suppressed
                .set(FlightRecorder::dumps_suppressed() as i64);
            let dropped: u64 = FlightRecorder::snapshot()
                .rings
                .iter()
                .map(|r| r.dropped)
                .sum();
            inner.metrics.flight_dropped.set(dropped as i64);
        }
        inner.engine.metrics().registry().to_prometheus()
    }

    /// The live operational overview behind `chronusctl top`: queue
    /// depths, per-tenant token-bucket levels, plan-latency quantiles,
    /// SLO burn rates and flight-recorder health, all in one JSON
    /// object.
    pub fn top(&self) -> Value {
        let inner = &self.inner;
        let now = inner.now_ns();
        let mut obj = Map::new();
        obj.insert(
            "state".to_string(),
            Value::from(match inner.state.load(Ordering::Acquire) {
                RUNNING => "running",
                DRAINING => "draining",
                _ => "stopped",
            }),
        );
        obj.insert(
            "uptime_ms".to_string(),
            Value::from_u64_exact(inner.started.elapsed().as_millis() as u64),
        );

        // The admission lock is taken once for depths and buckets.
        let ((h, n, l), levels) = {
            let q = lock(&inner.admission);
            (q.depths(), q.bucket_levels(now))
        };
        let mut queues = Map::new();
        queues.insert("high".to_string(), Value::from_u64_exact(h as u64));
        queues.insert("normal".to_string(), Value::from_u64_exact(n as u64));
        queues.insert("low".to_string(), Value::from_u64_exact(l as u64));
        obj.insert("queues".to_string(), Value::Object(queues));

        let mut buckets = Map::new();
        for (tenant, tokens, burst, rate) in levels {
            let mut b = Map::new();
            b.insert("tokens".to_string(), Value::from(tokens));
            b.insert("burst".to_string(), Value::from(burst));
            b.insert("rate".to_string(), Value::from(rate));
            buckets.insert(tenant, Value::Object(b));
        }
        obj.insert("tenants".to_string(), Value::Object(buckets));

        let mut statuses = Map::new();
        for (state, count) in self.status_counts() {
            statuses.insert(state.to_string(), Value::from_u64_exact(count));
        }
        obj.insert("updates".to_string(), Value::Object(statuses));
        obj.insert(
            "armed".to_string(),
            Value::from_u64_exact(self.armed_len() as u64),
        );

        let mut plan = Map::new();
        for (label, q) in [("p50_ns", 0.5), ("p90_ns", 0.9), ("p99_ns", 0.99)] {
            plan.insert(
                label.to_string(),
                Value::from_u64_exact(inner.metrics.plan_ns.quantile(q)),
            );
        }
        obj.insert("plan_latency".to_string(), Value::Object(plan));

        let mut slo = Map::new();
        for (tenant, burn) in lock(&inner.slo).burns(now) {
            let mut b = Map::new();
            b.insert("burn_5m".to_string(), Value::from(burn.short));
            b.insert("burn_1h".to_string(), Value::from(burn.long));
            slo.insert(tenant, Value::Object(b));
        }
        obj.insert("slo".to_string(), Value::Object(slo));

        let mut flight = Map::new();
        flight.insert("on".to_string(), Value::Bool(FlightRecorder::is_on()));
        if FlightRecorder::is_on() {
            let snap = FlightRecorder::snapshot();
            let (mut emitted, mut dropped) = (0u64, 0u64);
            for ring in &snap.rings {
                emitted += ring.emitted;
                dropped += ring.dropped;
            }
            flight.insert(
                "rings".to_string(),
                Value::from_u64_exact(snap.rings.len() as u64),
            );
            flight.insert("events".to_string(), Value::from_u64_exact(emitted));
            flight.insert("dropped".to_string(), Value::from_u64_exact(dropped));
            flight.insert(
                "dumps".to_string(),
                Value::from_u64_exact(FlightRecorder::dumps_written()),
            );
            flight.insert(
                "suppressed".to_string(),
                Value::from_u64_exact(FlightRecorder::dumps_suppressed()),
            );
        }
        obj.insert("flight".to_string(), Value::Object(flight));

        Value::Object(obj)
    }

    /// Writes a forensic flight dump now (`chronusctl dump`); returns
    /// its path.
    pub fn dump(&self) -> std::io::Result<std::path::PathBuf> {
        FlightRecorder::force_dump("ctl-dump")
    }

    /// The number of updates currently queued for planning.
    pub fn queue_len(&self) -> usize {
        lock(&self.inner.admission).len()
    }

    /// Armed updates currently live.
    pub fn armed_len(&self) -> usize {
        lock(&self.inner.armed).len()
    }

    /// Gracefully shuts down: stops intake, lets workers finish every
    /// admitted job, takes a final snapshot.
    /// Idempotent; callable through a shared handle (the IPC server's
    /// drain command calls it from a connection thread).
    pub fn shutdown(&self) -> ShutdownReport {
        let inner = &self.inner;
        {
            // Flip to draining under the admission lock: submit()
            // re-checks the state under the same lock, so after this
            // block no new job can be acknowledged into the queues the
            // workers are about to drain. Also wakes sleepers so they
            // observe the drain.
            let _guard = lock(&inner.admission);
            inner.state.store(DRAINING, Ordering::Release);
            inner.work_cv.notify_all();
        }
        for handle in lock(&self.workers).drain(..) {
            let _ = handle.join();
        }
        inner.state.store(STOPPED, Ordering::Release);
        if let Some(handle) = lock(&self.snapshotter).take() {
            let _ = handle.join();
        }
        let snapshot_live = inner.compact_journal().unwrap_or(0);
        ShutdownReport {
            engine_planned: inner.engine.report().completed,
            armed_remaining: lock(&inner.armed).len(),
            snapshot_live,
        }
    }
}

impl Drop for Daemon {
    /// Crash-like teardown: workers stop where they are, no final
    /// snapshot, no journal compaction — exactly what a `kill -9`
    /// leaves behind, which is what the restore tests exercise. (A
    /// prior [`Daemon::shutdown`] leaves nothing for this to do.)
    fn drop(&mut self) {
        self.inner.state.store(STOPPED, Ordering::Release);
        {
            let _guard = lock(&self.inner.admission);
            self.inner.work_cv.notify_all();
        }
        for handle in lock(&self.workers).drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = lock(&self.snapshotter).take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_net::{Flow, FlowId, NetworkBuilder, Path, SwitchId};

    /// Old 0→1→2→3, new 0→2→3: one schedule entry, plans in microseconds.
    fn shortcut_instance() -> UpdateInstance {
        let sid = SwitchId;
        let mut b = NetworkBuilder::with_switches(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (0, 2)] {
            b.add_link(sid(u), sid(v), 10, 1).expect("link");
        }
        let flow = Flow::new(
            FlowId(0),
            1,
            Path::new(vec![sid(0), sid(1), sid(2), sid(3)]),
            Path::new(vec![sid(0), sid(2), sid(3)]),
        )
        .expect("flow");
        UpdateInstance::single(b.build(), flow).expect("instance")
    }

    #[test]
    fn terminal_statuses_are_bounded_and_counts_stay_totals() {
        const PARKED: usize = 128;
        const CYCLES: u64 = 20_000;
        let dir = std::env::temp_dir().join(format!("chronusd-statuses-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let daemon = Daemon::start(DaemonConfig {
            snapshot_dir: dir.clone(),
            workers: 2,
            queue_bound: 2 * PARKED,
            tenant_rate: 1e9,
            tenant_burst: 1e9,
            ..DaemonConfig::default()
        })
        .expect("daemon start");
        let instance = Arc::new(shortcut_instance());
        let arm = || {
            let id = daemon
                .submit("t", Priority::Normal, None, Arc::clone(&instance))
                .expect("admitted");
            let status = daemon
                .watch(id, Duration::from_secs(30))
                .expect("known while in flight");
            assert_eq!(status.state, UpdateState::Armed, "{}", status.detail);
            id
        };

        let parked: Vec<u64> = (0..PARKED).map(|_| arm()).collect();
        let first_cycle = arm();
        daemon.confirm(first_cycle).expect("confirm");
        for _ in 1..CYCLES {
            daemon.confirm(arm()).expect("confirm");
        }

        let remembered = lock(&daemon.inner.statuses).by_id.len();
        assert!(
            remembered <= TERMINAL_STATUSES_KEPT + PARKED,
            "{remembered}"
        );
        let counts = daemon.status_counts();
        assert_eq!(counts.get("completed"), Some(&CYCLES));
        assert_eq!(counts.get("armed"), Some(&(PARKED as u64)));
        assert_eq!(counts.len(), 2, "{counts:?}");
        // Armed updates are never forgotten; old terminal ones are, and
        // read like ids never issued.
        for id in parked {
            assert_eq!(daemon.status(id).map(|s| s.state), Some(UpdateState::Armed));
        }
        assert_eq!(daemon.status(first_cycle), None);
        assert_eq!(daemon.watch(first_cycle, Duration::from_secs(1)), None);
        assert_eq!(daemon.status(u64::MAX), None);
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
