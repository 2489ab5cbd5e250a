//! Pair-as-value: one replicated primary/backup pair as a resumable
//! state machine.
//!
//! [`PairTask`] owns everything a single pair needs — the two
//! [`Replica`]s, the heartbeat monitor, the checkpoint bookkeeping, the
//! snapshot assembler — and exposes a poll-style
//! [`step`](PairTask::step): *run until your local clock reaches the
//! target instant or something notable happens, then yield a
//! [`PairEvent`]*. The legacy single-pair drivers
//! ([`ReplicaRuntime::run_cold`] and friends) are thin wrappers that step
//! a task to completion in one go and are pinned byte-identical to the
//! pre-refactor monolithic loops by `tests/pair_equivalence.rs`; a fleet
//! scheduler ([`crate::fleet`]) multiplexes hundreds of tasks on one
//! global timeline by stepping each in bounded increments.
//!
//! Granularity contract (load-bearing for byte-identity):
//!
//! * **Hot and checkpointed states** execute *exactly one* legacy loop
//!   iteration per internal pass — a [`SLICE_UNITS`] primary slice, the
//!   receive/pump step, then the epoch bookkeeping — so interleaving
//!   them more finely or coarsely from outside cannot change the
//!   simulated timeline.
//! * **Cold states** run the primary with one coarse `run_to_end` call,
//!   exactly as the legacy cold driver did. Slicing a cold primary would
//!   perturb the thread-scheduling technique's per-consult progress
//!   accounting and change frame timing, so the `until` target is
//!   deliberately ignored there.

use crate::backup::EpochStore;
use crate::codec::{frame_is_heartbeat, frame_is_snapshot_chunk, SnapshotAssembler};
use crate::ftjvm::PairReport;
use crate::runtime::{
    observe_heartbeats, BackupStart, CheckpointPlan, CheckpointReport, LagBudget, Replica,
    ReplicaRuntime, SLICE_UNITS,
};
use crate::stats::ReplicationStats;
use bytes::Bytes;
use ftjvm_netsim::{ChannelStats, FaultPlan, HeartbeatMonitor, SimTime};
use ftjvm_vm::{RunOutcome, RunReport, SharedWorld, SliceOutcome, VmError, World};

/// What a [`PairTask::step`] call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairEvent {
    /// The local clock reached the step target; the pair is still running.
    Running {
        /// The pair-local instant after the step.
        now: SimTime,
    },
    /// The primary fail-stopped; failover ran (detection, promotion, and
    /// suffix replay are complete — the measured latencies are in the
    /// report). The next step returns [`PairEvent::Done`].
    PrimaryCrashed {
        /// The pair-local crash instant.
        at: SimTime,
    },
    /// The checkpoint plan killed the backup (the primary has not noticed
    /// yet — its reverse-heartbeat detector is still counting down).
    BackupKilled {
        /// The pair-local kill instant.
        at: SimTime,
    },
    /// The primary's detector declared the backup dead: output commits
    /// stop waiting for acknowledgments.
    Degraded {
        /// The pair-local degraded-entry instant.
        at: SimTime,
    },
    /// A replacement standby finished state transfer and went live; the
    /// pair is 1-fault tolerant again.
    Reintegrated {
        /// The pair-local reintegration instant.
        at: SimTime,
    },
    /// The run is over and the report is ready
    /// ([`PairTask::into_pair_report`]).
    Done,
}

/// The phase a [`PairTask`] is in. Each variant owns exactly the state
/// the corresponding legacy driver kept in local variables.
// One task exists per pair and lives on the heap behind the fleet's
// slot vector; boxing the report-sized replay variant would only add an
// indirection to a non-hot path.
#[allow(clippy::large_enum_variant)]
enum TaskState {
    /// Cold pair: primary runs to completion/crash in one coarse step.
    ColdRun { primary: Box<Replica> },
    /// Cold pair after a crash: the drained log awaits replay.
    ColdReplay {
        primary_report: RunReport,
        primary_stats: ReplicationStats,
        channel_stats: ChannelStats,
        frames: Vec<Bytes>,
        detection_latency: SimTime,
    },
    /// Hot pair mid co-simulation.
    HotRun {
        primary: Box<Replica>,
        backup: Box<Replica>,
        monitor: HeartbeatMonitor,
        backup_report: Option<RunReport>,
    },
    /// Checkpointed hot pair mid co-simulation (kill/degraded/reintegrate
    /// machinery live).
    CkptRun {
        primary: Box<Replica>,
        standby: Standby,
        monitor: HeartbeatMonitor,
        backup_report: Option<RunReport>,
        assembler: SnapshotAssembler,
        units_run: u64,
        degraded_deadline: Option<SimTime>,
        ack_base: u64,
    },
    /// Checkpointed cold pair: durable epoch store absorbing the stream.
    ColdCkptRun { primary: Box<Replica>, store: EpochStore, monitor: HeartbeatMonitor },
    /// Report ready.
    Finished,
    /// A step returned an error; the task is poisoned.
    Failed,
}

/// The backup half of a checkpointed run, as the driver sees it.
enum Standby {
    /// A live hot standby consuming the stream.
    Live(Box<Replica>),
    /// Killed, with no replacement recruited (yet).
    Dead,
    /// State transfer in progress: record frames buffer here until the
    /// snapshot chunks assemble and the replacement comes up.
    Transfer(Vec<(SimTime, Bytes)>),
}

/// One replicated pair as a resumable value: replicas, links, failure
/// detection, and checkpoint state in a single owned task.
pub struct PairTask {
    rt: ReplicaRuntime,
    world: SharedWorld,
    plan: CheckpointPlan,
    state: TaskState,
    backup_killed_at: Option<SimTime>,
    degraded_entered_at: Option<SimTime>,
    reintegrated_at: Option<SimTime>,
    report: Option<PairReport>,
}

impl std::fmt::Debug for PairTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let phase = match &self.state {
            TaskState::ColdRun { .. } => "cold-run",
            TaskState::ColdReplay { .. } => "cold-replay",
            TaskState::HotRun { .. } => "hot-run",
            TaskState::CkptRun { .. } => "ckpt-run",
            TaskState::ColdCkptRun { .. } => "cold-ckpt-run",
            TaskState::Finished => "finished",
            TaskState::Failed => "failed",
        };
        f.debug_struct("PairTask").field("phase", &phase).field("now", &self.now()).finish()
    }
}

impl PairTask {
    /// A cold pair: store-only backup, whole-log replay at failover.
    ///
    /// # Errors
    /// Propagates program-loading errors.
    pub fn cold(rt: ReplicaRuntime, fault: FaultPlan) -> Result<Self, VmError> {
        let world = World::shared();
        let primary = Box::new(rt.build_primary(&world, fault)?);
        Ok(PairTask::with_state(
            rt,
            world,
            CheckpointPlan { fault, ..CheckpointPlan::default() },
            TaskState::ColdRun { primary },
        ))
    }

    /// A hot pair: primary and streaming standby co-simulated.
    ///
    /// # Errors
    /// Propagates program-loading errors.
    pub fn hot(rt: ReplicaRuntime, fault: FaultPlan) -> Result<Self, VmError> {
        let world = World::shared();
        let primary = Box::new(rt.build_primary(&world, fault)?);
        let backup = Box::new(rt.build_backup(&world, BackupStart::Stream, 0)?);
        let monitor = rt.cfg().detector.monitor(SimTime::ZERO);
        Ok(PairTask::with_state(
            rt,
            world,
            CheckpointPlan { fault, ..CheckpointPlan::default() },
            TaskState::HotRun { primary, backup, monitor, backup_report: None },
        ))
    }

    /// A checkpointed hot pair under `plan` (backup kill, degraded mode,
    /// re-integration).
    ///
    /// # Errors
    /// Returns an error when [`crate::FtConfig::checkpoint_interval`] is
    /// unset, and propagates program-loading errors.
    pub fn checkpointed(rt: ReplicaRuntime, plan: CheckpointPlan) -> Result<Self, VmError> {
        if rt.cfg().checkpoint_interval.is_none() {
            return Err(VmError::Internal(
                "run_checkpointed requires FtConfig::checkpoint_interval".into(),
            ));
        }
        let world = World::shared();
        let primary = Box::new(rt.build_primary(&world, plan.fault)?);
        let standby = Standby::Live(Box::new(rt.build_backup(&world, BackupStart::Stream, 0)?));
        let monitor = rt.cfg().detector.monitor(SimTime::ZERO);
        Ok(PairTask::with_state(
            rt,
            world,
            plan,
            TaskState::CkptRun {
                primary,
                standby,
                monitor,
                backup_report: None,
                assembler: SnapshotAssembler::new(),
                units_run: 0,
                degraded_deadline: None,
                ack_base: 0,
            },
        ))
    }

    /// A checkpointed cold pair: durable [`EpochStore`] backup,
    /// snapshot-restored recovery.
    ///
    /// # Errors
    /// Returns an error when [`crate::FtConfig::checkpoint_interval`] is
    /// unset, and propagates program-loading errors.
    pub fn cold_checkpointed(rt: ReplicaRuntime, fault: FaultPlan) -> Result<Self, VmError> {
        if rt.cfg().checkpoint_interval.is_none() {
            return Err(VmError::Internal(
                "run_cold_checkpointed requires FtConfig::checkpoint_interval".into(),
            ));
        }
        let world = World::shared();
        let primary = Box::new(rt.build_primary(&world, fault)?);
        let store = EpochStore::new();
        let monitor = rt.cfg().detector.monitor(SimTime::ZERO);
        Ok(PairTask::with_state(
            rt,
            world,
            CheckpointPlan { fault, ..CheckpointPlan::default() },
            TaskState::ColdCkptRun { primary, store, monitor },
        ))
    }

    /// Builds the task variant the runtime's configuration selects, as
    /// [`ReplicaRuntime::run_pair`] does — with `plan`'s kill and
    /// re-integration machinery applied when the configuration is a
    /// checkpointed hot pair.
    ///
    /// # Errors
    /// Propagates construction errors from the selected variant.
    pub fn from_config(rt: ReplicaRuntime, plan: CheckpointPlan) -> Result<Self, VmError> {
        match (rt.cfg().lag_budget, rt.cfg().checkpoint_interval) {
            (LagBudget::Cold, None) => PairTask::cold(rt, plan.fault),
            (LagBudget::Cold, Some(_)) => PairTask::cold_checkpointed(rt, plan.fault),
            (LagBudget::Hot, None) => PairTask::hot(rt, plan.fault),
            (LagBudget::Hot, Some(_)) => PairTask::checkpointed(rt, plan),
        }
    }

    fn with_state(
        rt: ReplicaRuntime,
        world: SharedWorld,
        plan: CheckpointPlan,
        state: TaskState,
    ) -> Self {
        PairTask {
            rt,
            world,
            plan,
            state,
            backup_killed_at: None,
            degraded_entered_at: None,
            reintegrated_at: None,
            report: None,
        }
    }

    /// The pair-local instant the task has reached (the primary's clock
    /// while it lives; the final report's latest clock once finished).
    pub fn now(&self) -> SimTime {
        match &self.state {
            TaskState::ColdRun { primary }
            | TaskState::HotRun { primary, .. }
            | TaskState::CkptRun { primary, .. }
            | TaskState::ColdCkptRun { primary, .. } => primary.now(),
            TaskState::ColdReplay { primary_report, .. } => primary_report.acct.now(),
            TaskState::Finished | TaskState::Failed => self
                .report
                .as_ref()
                .map(|r| {
                    let backup_end =
                        r.backup.as_ref().map(|b| b.acct.now()).unwrap_or(SimTime::ZERO);
                    r.primary.acct.now().max(backup_end)
                })
                .unwrap_or(SimTime::ZERO),
        }
    }

    /// True once the report is ready and further steps return
    /// [`PairEvent::Done`].
    pub fn is_done(&self) -> bool {
        matches!(self.state, TaskState::Finished)
    }

    /// Advances the pair until its local clock reaches `until`, a state
    /// transition happens, or the run completes. Pass [`SimTime::MAX`] to
    /// run to the next transition regardless of time.
    ///
    /// # Errors
    /// Propagates fatal VM errors from either replica; the task is
    /// poisoned afterwards (subsequent steps keep failing).
    pub fn step(&mut self, until: SimTime) -> Result<PairEvent, VmError> {
        match std::mem::replace(&mut self.state, TaskState::Failed) {
            TaskState::Finished => {
                self.state = TaskState::Finished;
                Ok(PairEvent::Done)
            }
            TaskState::Failed => Err(VmError::Internal("stepping a failed pair task".into())),
            TaskState::ColdRun { primary } => self.step_cold(primary),
            TaskState::ColdReplay {
                primary_report,
                primary_stats,
                channel_stats,
                frames,
                detection_latency,
            } => self.step_cold_replay(
                primary_report,
                primary_stats,
                channel_stats,
                frames,
                detection_latency,
            ),
            TaskState::HotRun { primary, backup, monitor, backup_report } => {
                self.step_hot(primary, backup, monitor, backup_report, until)
            }
            TaskState::CkptRun {
                primary,
                standby,
                monitor,
                backup_report,
                assembler,
                units_run,
                degraded_deadline,
                ack_base,
            } => self.step_ckpt(
                CkptState {
                    primary,
                    standby,
                    monitor,
                    backup_report,
                    assembler,
                    units_run,
                    degraded_deadline,
                    ack_base,
                },
                until,
            ),
            TaskState::ColdCkptRun { primary, store, monitor } => {
                self.step_cold_ckpt(primary, store, monitor, until)
            }
        }
    }

    /// Steps the task to completion (the legacy single-pair drivers).
    ///
    /// # Errors
    /// Propagates the first step error.
    pub fn run_to_completion(mut self) -> Result<Self, VmError> {
        while !self.is_done() {
            self.step(SimTime::MAX)?;
        }
        Ok(self)
    }

    /// Consumes the task, returning the pair report.
    ///
    /// # Errors
    /// Returns an error if the task has not finished.
    pub fn into_pair_report(self) -> Result<PairReport, VmError> {
        self.report.ok_or_else(|| VmError::Internal("pair task has no report yet".into()))
    }

    /// Consumes the task, returning the checkpointed-run report (the pair
    /// report plus the kill/degraded/reintegration timeline).
    ///
    /// # Errors
    /// Returns an error if the task has not finished.
    pub fn into_checkpoint_report(self) -> Result<CheckpointReport, VmError> {
        let backup_killed_at = self.backup_killed_at;
        let degraded_entered_at = self.degraded_entered_at;
        let reintegrated_at = self.reintegrated_at;
        let pair = self.into_pair_report()?;
        Ok(CheckpointReport {
            pair,
            backup_killed_at,
            degraded_entered_at,
            reintegrated_at,
            reintegrated: reintegrated_at.is_some(),
        })
    }

    /// The finished report, if the run is over.
    pub fn report(&self) -> Option<&PairReport> {
        self.report.as_ref()
    }

    /// The kill/degraded/reintegration timeline observed so far.
    pub fn checkpoint_timeline(&self) -> (Option<SimTime>, Option<SimTime>, Option<SimTime>) {
        (self.backup_killed_at, self.degraded_entered_at, self.reintegrated_at)
    }

    // --- Cold ------------------------------------------------------------

    fn step_cold(&mut self, mut primary: Box<Replica>) -> Result<PairEvent, VmError> {
        let primary_report = primary.run_to_end()?;
        let crashed = primary_report.outcome == RunOutcome::Stopped;
        if crashed {
            // Fail-stop: the primary's volatile environment state is lost
            // with its process; the external world survives.
            primary.fail_env();
        }
        let (mut channel, primary_stats) = primary.into_primary_parts()?;
        if !crashed {
            let channel_stats = channel.stats();
            self.report = Some(PairReport {
                primary: primary_report,
                primary_stats,
                crashed: false,
                backup: None,
                backup_stats: None,
                detection_latency: SimTime::ZERO,
                recovery_replay_time: SimTime::ZERO,
                failover_latency: SimTime::ZERO,
                channel: channel_stats,
                world: self.world.clone(),
            });
            self.state = TaskState::Finished;
            return Ok(PairEvent::Done);
        }
        let crash_at = primary_report.acct.now();
        let drained = channel.drain();
        let channel_stats = channel.stats();
        // Failure detection from the heartbeats the backup actually
        // received: the detector's deadline re-arms at each heartbeat
        // arrival and fires when the next one never comes.
        let mut monitor = self.rt.cfg().detector.monitor(SimTime::ZERO);
        let detection_at = observe_heartbeats(&mut monitor, &drained).max(crash_at);
        let detection_latency = detection_at - crash_at;
        let frames: Vec<Bytes> = drained.into_iter().map(|(_, b)| b).collect();
        self.state = TaskState::ColdReplay {
            primary_report,
            primary_stats,
            channel_stats,
            frames,
            detection_latency,
        };
        Ok(PairEvent::PrimaryCrashed { at: crash_at })
    }

    fn step_cold_replay(
        &mut self,
        primary_report: RunReport,
        primary_stats: ReplicationStats,
        channel_stats: ChannelStats,
        frames: Vec<Bytes>,
        detection_latency: SimTime,
    ) -> Result<PairEvent, VmError> {
        let (backup_report, backup_stats, recovered_at) =
            self.rt.replay_log(&self.world, frames)?;
        let recovery_replay_time = recovered_at.unwrap_or_else(|| backup_report.acct.now());
        self.report = Some(PairReport {
            primary: primary_report,
            primary_stats,
            crashed: true,
            backup: Some(backup_report),
            backup_stats: Some(backup_stats),
            detection_latency,
            recovery_replay_time,
            failover_latency: detection_latency + recovery_replay_time,
            channel: channel_stats,
            world: self.world.clone(),
        });
        self.state = TaskState::Finished;
        Ok(PairEvent::Done)
    }

    // --- Hot -------------------------------------------------------------

    fn step_hot(
        &mut self,
        mut primary: Box<Replica>,
        mut backup: Box<Replica>,
        mut monitor: HeartbeatMonitor,
        mut backup_report: Option<RunReport>,
        until: SimTime,
    ) -> Result<PairEvent, VmError> {
        // Co-simulation: slice the primary, deliver what arrived, let the
        // backup consume it until it starves, repeat.
        let (primary_report, crashed) = loop {
            let outcome = primary.step(SLICE_UNITS)?;
            let now_p = primary.now();
            let ready = primary.recv_ready(now_p)?;
            pump_backup(&mut backup, &mut monitor, ready, &mut backup_report)?;
            match outcome {
                SliceOutcome::Budget => {
                    if now_p >= until {
                        self.state = TaskState::HotRun { primary, backup, monitor, backup_report };
                        return Ok(PairEvent::Running { now: now_p });
                    }
                }
                SliceOutcome::Paused => {
                    return Err(VmError::Internal("primary paused without a feeder".into()));
                }
                SliceOutcome::Completed(r) => break (r, false),
                SliceOutcome::Stopped(r) => break (r, true),
            }
        };

        let crash_at = primary_report.acct.now();
        if crashed {
            // Fail-stop: the primary's volatile environment state is lost
            // with its process; the external world survives.
            primary.fail_env();
        }
        let (mut channel, primary_stats) = primary.into_primary_parts()?;
        // Everything flushed *and verified in order* is delivered; records
        // still in the primary's buffer — and, on a lossy link, frames
        // beyond an unresolved gap — are lost with it (longest verified
        // frame prefix).
        pump_backup(&mut backup, &mut monitor, channel.drain(), &mut backup_report)?;
        let channel_stats = channel.stats();

        if !crashed {
            // Failure-free: the primary finished; the stream is over. The
            // standby replays the remainder quietly (every output was
            // performed by the primary, so replay suppresses them all).
            backup.finish_stream();
            let backup_report = match backup_report {
                Some(r) => r,
                None => backup.run_to_end()?,
            };
            self.report = Some(PairReport {
                primary: primary_report,
                primary_stats,
                crashed: false,
                backup: Some(backup_report),
                backup_stats: Some(backup.backup_stats()),
                detection_latency: SimTime::ZERO,
                recovery_replay_time: SimTime::ZERO,
                failover_latency: SimTime::ZERO,
                channel: channel_stats,
                world: self.world.clone(),
            });
            self.state = TaskState::Finished;
            return Ok(PairEvent::Done);
        }

        // Crash: detection fires when the heartbeat deadline lapses —
        // measured on the arrival timeline, not computed from the crash
        // instant (which no one observes).
        let detection_at = monitor.deadline().max(crash_at);
        let detection_latency = detection_at - crash_at;
        // Promotion: the backup learns of the failure at the detection
        // instant and becomes the authority.
        backup.wait_until(detection_at);
        let promoted_at = backup.now();
        backup.finish_stream();
        let backup_report = match backup_report {
            Some(r) => r,
            None => backup.run_to_end()?,
        };
        let recovered_at =
            backup.recovery_completed_at().unwrap_or_else(|| backup_report.acct.now());
        // Only the unconsumed suffix of the log remains to replay.
        let suffix_replay =
            if recovered_at > promoted_at { recovered_at - promoted_at } else { SimTime::ZERO };
        self.report = Some(PairReport {
            primary: primary_report,
            primary_stats,
            crashed: true,
            backup: Some(backup_report),
            backup_stats: Some(backup.backup_stats()),
            detection_latency,
            recovery_replay_time: suffix_replay,
            failover_latency: detection_latency + suffix_replay,
            channel: channel_stats,
            world: self.world.clone(),
        });
        self.state = TaskState::Finished;
        Ok(PairEvent::PrimaryCrashed { at: crash_at })
    }

    // --- Checkpointed hot ------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn step_ckpt(&mut self, mut st: CkptState, until: SimTime) -> Result<PairEvent, VmError> {
        let (primary_report, crashed) = loop {
            let outcome = st.primary.step(SLICE_UNITS)?;
            st.units_run += SLICE_UNITS;
            let now_p = st.primary.now();
            let mut killed_now = false;
            let mut degraded_now = false;
            let reintegrated_before = self.reintegrated_at;

            // Scheduled backup kill: fail-stop at a slice boundary. The
            // primary only learns of it when the reverse-heartbeat
            // deadline lapses below.
            if let Some(kill) = self.plan.kill_backup_after_units {
                if self.backup_killed_at.is_none()
                    && st.units_run >= kill
                    && matches!(st.standby, Standby::Live(_))
                {
                    if let Standby::Live(mut dead) =
                        std::mem::replace(&mut st.standby, Standby::Dead)
                    {
                        dead.fail_env();
                    }
                    self.backup_killed_at = Some(now_p);
                    st.degraded_deadline = Some(self.rt.cfg().detector.monitor(now_p).deadline());
                    st.backup_report = None;
                    killed_now = true;
                }
            }

            // Degraded-mode entry once the reverse detector fires.
            if let (Some(deadline), None) = (st.degraded_deadline, self.degraded_entered_at) {
                if now_p >= deadline {
                    st.primary.enter_degraded();
                    self.degraded_entered_at = Some(deadline);
                    degraded_now = true;
                }
            }

            // Recruit a replacement once degraded: force-cut a fresh
            // epoch (retried until the VM is at a cuttable boundary) and
            // start the state transfer on a fresh channel.
            if self.plan.reintegrate
                && self.degraded_entered_at.is_some()
                && matches!(st.standby, Standby::Dead)
                && st.primary.begin_state_transfer(self.rt.make_channel())?
            {
                st.ack_base = st.primary.snapshot_epoch();
                st.assembler = SnapshotAssembler::new();
                st.standby = Standby::Transfer(Vec::new());
            }

            let ready = st.primary.recv_ready(now_p)?;
            st.standby = deliver(
                &self.rt,
                st.standby,
                ready,
                &mut st.assembler,
                &mut st.monitor,
                &mut st.backup_report,
                &mut self.reintegrated_at,
                &self.world,
            )?;
            if let Standby::Live(b) = &st.standby {
                st.primary.relay_epoch_ack(st.ack_base + b.epochs_absorbed());
                if self.reintegrated_at.is_some() {
                    st.primary.exit_degraded();
                }
            }

            match outcome {
                SliceOutcome::Budget => {
                    st.primary.try_cut_epoch()?;
                    // Yield on milestones (latest wins) or on reaching the
                    // step target; otherwise keep iterating.
                    let event = if self.reintegrated_at != reintegrated_before {
                        Some(PairEvent::Reintegrated { at: self.reintegrated_at.unwrap_or(now_p) })
                    } else if degraded_now {
                        Some(PairEvent::Degraded { at: self.degraded_entered_at.unwrap_or(now_p) })
                    } else if killed_now {
                        Some(PairEvent::BackupKilled { at: now_p })
                    } else if now_p >= until {
                        Some(PairEvent::Running { now: now_p })
                    } else {
                        None
                    };
                    if let Some(event) = event {
                        self.state = TaskState::CkptRun {
                            primary: st.primary,
                            standby: st.standby,
                            monitor: st.monitor,
                            backup_report: st.backup_report,
                            assembler: st.assembler,
                            units_run: st.units_run,
                            degraded_deadline: st.degraded_deadline,
                            ack_base: st.ack_base,
                        };
                        return Ok(event);
                    }
                }
                SliceOutcome::Paused => {
                    return Err(VmError::Internal("primary paused without a feeder".into()));
                }
                SliceOutcome::Completed(r) => break (r, false),
                SliceOutcome::Stopped(r) => break (r, true),
            }
        };

        let crash_at = primary_report.acct.now();
        if crashed {
            st.primary.fail_env();
        }
        let (mut channel, primary_stats) = st.primary.into_primary_parts()?;
        let drained = channel.drain();
        let channel_stats = channel.stats();
        // Takeover delivery: the state transfer may complete during the
        // drain (chunks already on the wire when the primary died).
        let standby = deliver(
            &self.rt,
            st.standby,
            drained,
            &mut st.assembler,
            &mut st.monitor,
            &mut st.backup_report,
            &mut self.reintegrated_at,
            &self.world,
        )?;

        self.report = Some(match standby {
            Standby::Live(mut b) => {
                if !crashed {
                    b.finish_stream();
                    let br = match st.backup_report.take() {
                        Some(r) => r,
                        None => b.run_to_end()?,
                    };
                    PairReport {
                        primary: primary_report,
                        primary_stats,
                        crashed: false,
                        backup: Some(br),
                        backup_stats: Some(b.backup_stats()),
                        detection_latency: SimTime::ZERO,
                        recovery_replay_time: SimTime::ZERO,
                        failover_latency: SimTime::ZERO,
                        channel: channel_stats,
                        world: self.world.clone(),
                    }
                } else {
                    let detection_at = st.monitor.deadline().max(crash_at);
                    let detection_latency = detection_at - crash_at;
                    b.wait_until(detection_at);
                    let promoted_at = b.now();
                    b.finish_stream();
                    let br = match st.backup_report.take() {
                        Some(r) => r,
                        None => b.run_to_end()?,
                    };
                    let recovered_at = b.recovery_completed_at().unwrap_or_else(|| br.acct.now());
                    let suffix_replay = if recovered_at > promoted_at {
                        recovered_at - promoted_at
                    } else {
                        SimTime::ZERO
                    };
                    PairReport {
                        primary: primary_report,
                        primary_stats,
                        crashed: true,
                        backup: Some(br),
                        backup_stats: Some(b.backup_stats()),
                        detection_latency,
                        recovery_replay_time: suffix_replay,
                        failover_latency: detection_latency + suffix_replay,
                        channel: channel_stats,
                        world: self.world.clone(),
                    }
                }
            }
            // No survivor standby: either the plan killed it without
            // re-integration, or the transfer never completed. If the
            // primary also crashed, this run exceeded the 1-fault model;
            // report what happened.
            Standby::Dead | Standby::Transfer(_) => PairReport {
                primary: primary_report,
                primary_stats,
                crashed,
                backup: None,
                backup_stats: None,
                detection_latency: SimTime::ZERO,
                recovery_replay_time: SimTime::ZERO,
                failover_latency: SimTime::ZERO,
                channel: channel_stats,
                world: self.world.clone(),
            },
        });
        self.state = TaskState::Finished;
        Ok(if crashed { PairEvent::PrimaryCrashed { at: crash_at } } else { PairEvent::Done })
    }

    // --- Checkpointed cold -----------------------------------------------

    fn step_cold_ckpt(
        &mut self,
        mut primary: Box<Replica>,
        mut store: EpochStore,
        mut monitor: HeartbeatMonitor,
        until: SimTime,
    ) -> Result<PairEvent, VmError> {
        let (primary_report, crashed) = loop {
            let outcome = primary.step(SLICE_UNITS)?;
            let now_p = primary.now();
            for (arrival, frame) in primary.recv_ready(now_p)? {
                if frame_is_heartbeat(&frame) {
                    monitor.observe(arrival);
                }
                store.absorb(frame)?;
            }
            primary.relay_epoch_ack(store.epochs_stored);
            match outcome {
                SliceOutcome::Budget => {
                    if primary.try_cut_epoch()? {
                        primary.ship_latest_snapshot()?;
                    }
                    if now_p >= until {
                        self.state = TaskState::ColdCkptRun { primary, store, monitor };
                        return Ok(PairEvent::Running { now: now_p });
                    }
                }
                SliceOutcome::Paused => {
                    return Err(VmError::Internal("primary paused without a feeder".into()));
                }
                SliceOutcome::Completed(r) => break (r, false),
                SliceOutcome::Stopped(r) => break (r, true),
            }
        };

        let crash_at = primary_report.acct.now();
        if crashed {
            primary.fail_env();
        }
        let (mut channel, primary_stats) = primary.into_primary_parts()?;
        let drained = channel.drain();
        let channel_stats = channel.stats();
        for (arrival, frame) in drained {
            if frame_is_heartbeat(&frame) {
                monitor.observe(arrival);
            }
            store.absorb(frame)?;
        }
        let store_peak = store.peak_frames;
        if !crashed {
            self.report = Some(PairReport {
                primary: primary_report,
                primary_stats,
                crashed: false,
                backup: None,
                backup_stats: None,
                detection_latency: SimTime::ZERO,
                recovery_replay_time: SimTime::ZERO,
                failover_latency: SimTime::ZERO,
                channel: channel_stats,
                world: self.world.clone(),
            });
            self.state = TaskState::Finished;
            return Ok(PairEvent::Done);
        }
        let detection_at = monitor.deadline().max(crash_at);
        let detection_latency = detection_at - crash_at;
        let (snapshot, suffix) = store.into_recovery();
        let (backup_report, mut backup_stats, recovery_replay_time) = match snapshot {
            Some((_epoch, blob)) => {
                // Snapshot-based recovery: restore, replay the stored
                // suffix, promote.
                let mut b = self.rt.build_backup(&self.world, BackupStart::Snapshot(&blob), 0)?;
                for frame in suffix {
                    b.feed_frame(detection_at, frame)?;
                }
                b.finish_stream();
                let r = b.run_to_end()?;
                let recovered = b.recovery_completed_at().unwrap_or_else(|| r.acct.now());
                let replay =
                    if recovered > detection_at { recovered - detection_at } else { SimTime::ZERO };
                let stats = b.backup_stats();
                (r, stats, replay)
            }
            None => {
                // No epoch completed before the crash: classic cold
                // replay from the initial state.
                let (r, stats, recovered_at) = self.rt.replay_log(&self.world, suffix)?;
                let replay = recovered_at.unwrap_or_else(|| r.acct.now());
                (r, stats, replay)
            }
        };
        backup_stats.peak_backup_pending = backup_stats.peak_backup_pending.max(store_peak);
        self.report = Some(PairReport {
            primary: primary_report,
            primary_stats,
            crashed: true,
            backup: Some(backup_report),
            backup_stats: Some(backup_stats),
            detection_latency,
            recovery_replay_time,
            failover_latency: detection_latency + recovery_replay_time,
            channel: channel_stats,
            world: self.world.clone(),
        });
        self.state = TaskState::Finished;
        Ok(PairEvent::PrimaryCrashed { at: crash_at })
    }
}

/// The owned loop state of a checkpointed hot pair, bundled so
/// [`PairTask::step_ckpt`] stays readable.
struct CkptState {
    primary: Box<Replica>,
    standby: Standby,
    monitor: HeartbeatMonitor,
    backup_report: Option<RunReport>,
    assembler: SnapshotAssembler,
    units_run: u64,
    degraded_deadline: Option<SimTime>,
    ack_base: u64,
}

/// Routes delivered frames to the standby per its state: a live standby
/// consumes them (streaming replay); a dead one loses them (they were
/// addressed to a failed host); during state transfer, snapshot chunks
/// assemble — completion brings the replacement up at the final chunk's
/// arrival instant and replays the buffered suffix — and everything else
/// buffers behind the snapshot.
#[allow(clippy::too_many_arguments)]
fn deliver(
    rt: &ReplicaRuntime,
    standby: Standby,
    delivered: Vec<(SimTime, Bytes)>,
    assembler: &mut SnapshotAssembler,
    monitor: &mut HeartbeatMonitor,
    backup_report: &mut Option<RunReport>,
    reintegrated_at: &mut Option<SimTime>,
    world: &SharedWorld,
) -> Result<Standby, VmError> {
    match standby {
        Standby::Live(mut b) => {
            pump_backup(&mut b, monitor, delivered, backup_report)?;
            Ok(Standby::Live(b))
        }
        Standby::Dead => Ok(Standby::Dead),
        Standby::Transfer(mut buffered) => {
            let mut live: Option<Box<Replica>> = None;
            let mut iter = delivered.into_iter();
            for (arrival, frame) in iter.by_ref() {
                if frame_is_snapshot_chunk(&frame) {
                    let done = assembler
                        .offer(&frame)
                        .map_err(|e| VmError::Internal(format!("snapshot transfer: {e}")))?;
                    if let Some((_epoch, blob)) = done {
                        let mut nb =
                            Box::new(rt.build_backup(world, BackupStart::Snapshot(&blob), 0)?);
                        nb.wait_until(arrival);
                        *monitor = rt.cfg().detector.monitor(arrival);
                        *backup_report = None;
                        *reintegrated_at = Some(arrival);
                        let seeded = std::mem::take(&mut buffered);
                        pump_backup(&mut nb, monitor, seeded, backup_report)?;
                        live = Some(nb);
                        break;
                    }
                } else {
                    buffered.push((arrival, frame));
                }
            }
            match live {
                Some(mut b) => {
                    let rest: Vec<(SimTime, Bytes)> = iter.collect();
                    pump_backup(&mut b, monitor, rest, backup_report)?;
                    Ok(Standby::Live(b))
                }
                None => Ok(Standby::Transfer(buffered)),
            }
        }
    }
}

/// Feeds delivered `(arrival, frame)` pairs into a hot backup, re-arming
/// the failure detector at each heartbeat arrival, then lets the backup
/// replay until it catches up with the log (starves) or finishes.
pub(crate) fn pump_backup(
    backup: &mut Replica,
    monitor: &mut HeartbeatMonitor,
    delivered: Vec<(SimTime, Bytes)>,
    done: &mut Option<RunReport>,
) -> Result<(), VmError> {
    if delivered.is_empty() {
        return Ok(());
    }
    for (arrival, frame) in delivered {
        if backup.feed_frame(arrival, frame)? > 0 {
            monitor.observe(arrival);
        }
    }
    if done.is_some() {
        return Ok(());
    }
    backup.poll_suspended();
    match backup.step(u64::MAX)? {
        SliceOutcome::Paused => {}
        SliceOutcome::Completed(r) | SliceOutcome::Stopped(r) => *done = Some(r),
        SliceOutcome::Budget => {
            Err(VmError::Internal("unbounded backup slice exhausted its budget".into()))?;
        }
    }
    Ok(())
}
