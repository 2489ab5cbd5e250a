//! The replica runtime: primary and backup as [`Replica`] values on one
//! simulated timeline.
//!
//! This module owns the orchestration that used to be buried in the
//! `FtJvm::run_*` drivers. A [`Replica`] is a VM plus its replication
//! coordinator, tagged with a [`Role`]; a [`ReplicaRuntime`] builds a
//! primary/backup pair over a shared world and runs it — every pair but
//! the whole-log cold one as a two-member [`GroupTask`]:
//!
//! * **Cold backup** ([`LagBudget::Cold`]) — the paper's baseline (§1): the
//!   backup only stores the log during normal operation; on failure it
//!   replays from the initial state. The primary runs to completion (or
//!   crash) first, then the drained log is replayed — bit-for-bit the
//!   pre-runtime behavior.
//! * **Hot standby** ([`LagBudget::Hot`]) — the paper's "keeping the backup
//!   updated would require only minor modifications": primary and backup
//!   are *co-simulated*. The primary executes in bounded instruction
//!   slices; frames flushed to the [`ftjvm_netsim::SimChannel`] are
//!   delivered at their simulated arrival instants and streamed into the
//!   backup, which replays each record as it arrives (bounded-lag
//!   streaming replay). Failure detection is driven by the heartbeat
//!   records actually received (a [`ftjvm_netsim::HeartbeatMonitor`]), so
//!   the backup *measures* detection and suffix-replay latency in-timeline
//!   instead of computing them from a formula.
//!
//! Exactly-once outputs survive the hot path because a streaming backup
//! only replays an output once a later record from the same thread proves
//! the primary performed it; everything still uncertain at promotion is
//! resolved with the side-effect handlers' `test` — which is sound then,
//! because the detection instant is after the primary's last action.

use crate::backup::{Backup, BackupLog, NativeReplay, ReplayOrder, ResumeSeed, Schedule};
use crate::codec::build_snapshot_chunk;
use crate::ftjvm::{FtConfig, LockVariant, PairReport, ReplicationMode};
use crate::group::{GroupConfig, GroupReport, GroupTask};
use crate::primary::{
    decode_vt_map, LogChannel, LogOrder, Primary, PrimaryCore, ReliableLink, EXT_CODEC_CTX,
    EXT_COUNTERS, EXT_ND_SEQ, EXT_OUT_SEQ, EXT_SE_LATEST,
};
use crate::se::SeRegistry;
use crate::stats::ReplicationStats;
use bytes::Bytes;
use ftjvm_netsim::{
    Category, ChannelStats, FaultPlan, LossyChannel, SharedLink, SimChannel, SimTime, WireError,
    WireReader,
};
use ftjvm_vm::ThreadIdx;
use ftjvm_vm::{
    Coordinator, NativeRegistry, Program, RunOutcome, RunReport, SharedWorld, SimEnv, SliceOutcome,
    Vm, VmConfig, VmError, VtPath, World,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Instruction units the primary executes per co-simulation slice. Small
/// enough that flushed frames reach the hot standby with fine granularity,
/// large enough that slicing overhead stays negligible.
pub const SLICE_UNITS: u64 = 256;

/// How far a backup is allowed to lag the primary's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LagBudget {
    /// Store-only during normal operation; replay the whole log at
    /// failover (the paper's cold backup, §1).
    #[default]
    Cold,
    /// Streaming replay: consume each flushed frame as it arrives, so only
    /// the unconsumed log suffix remains at failover.
    Hot,
}

impl std::fmt::Display for LagBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LagBudget::Cold => "cold",
            LagBudget::Hot => "hot",
        })
    }
}

/// What a [`Replica`] is doing in the pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The authority: executes the program and logs every
    /// non-deterministic choice to its peer.
    Primary,
    /// The standby: consumes the log, ready to take over.
    Backup {
        /// Cold (store-only) or hot (streaming replay).
        lag_budget: LagBudget,
    },
}

/// The coordinator driving one replica's VM (private: which concrete
/// coordinator a role maps to is the runtime's business).
enum ReplicaCoord {
    Primary(Box<Primary>),
    Backup(Box<Backup>),
}

impl ReplicaCoord {
    fn as_dyn(&mut self) -> &mut dyn Coordinator {
        match self {
            ReplicaCoord::Primary(c) => c.as_mut(),
            ReplicaCoord::Backup(c) => c.as_mut(),
        }
    }

    fn primary_core_mut(&mut self) -> Option<&mut PrimaryCore> {
        match self {
            ReplicaCoord::Primary(c) => Some(&mut c.core),
            ReplicaCoord::Backup(_) => None,
        }
    }

    fn backup(&self) -> Option<&Backup> {
        match self {
            ReplicaCoord::Primary(_) => None,
            ReplicaCoord::Backup(c) => Some(c),
        }
    }
}

/// One replica: a VM plus its replication coordinator, whose side gives
/// the replica its [`Role`]. Created by [`ReplicaRuntime`]; stepped in
/// bounded instruction slices so a co-simulation driver can interleave a
/// pair.
pub struct Replica {
    vm: Vm,
    coord: ReplicaCoord,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica").field("role", &self.role()).field("now", &self.now()).finish()
    }
}

impl Replica {
    /// This replica's role.
    pub fn role(&self) -> Role {
        match &self.coord {
            ReplicaCoord::Primary(_) => Role::Primary,
            ReplicaCoord::Backup(b) => Role::Backup { lag_budget: b.lag_budget() },
        }
    }

    /// The replica's current simulated instant.
    pub fn now(&self) -> SimTime {
        self.vm.core().acct.now()
    }

    /// Executes up to `max_units` instruction units.
    ///
    /// # Errors
    /// Propagates fatal VM errors (including replay divergence).
    pub fn step(&mut self, max_units: u64) -> Result<SliceOutcome, VmError> {
        self.vm.run_slice(self.coord.as_dyn(), max_units)
    }

    /// Runs to completion (or crash).
    ///
    /// # Errors
    /// Propagates fatal VM errors.
    pub fn run_to_end(&mut self) -> Result<RunReport, VmError> {
        self.vm.run(self.coord.as_dyn())
    }

    /// Streams one arrived log frame into a hot backup, advancing its
    /// clock to the frame's arrival instant. Returns the number of
    /// heartbeat records the frame carried.
    ///
    /// # Errors
    /// Returns an error for a malformed frame, or if called on a replica
    /// that is not a backup.
    pub fn feed_frame(&mut self, arrival: SimTime, frame: Bytes) -> Result<u32, VmError> {
        let ReplicaCoord::Backup(b) = &mut self.coord else {
            return Err(VmError::Internal("feed_frame on a non-backup replica".into()));
        };
        let core = self.vm.core_mut();
        core.acct.wait_until(Category::Communication, arrival);
        b.feed_frame(frame, &mut core.acct)
    }

    /// Promotes a streaming backup: the stream ended (the primary failed
    /// and detection fired, or it completed), volatile environment state
    /// is restored from the received side-effect snapshots, and replay may
    /// run past the log into the live phase.
    pub fn finish_stream(&mut self) {
        if let ReplicaCoord::Backup(b) = &mut self.coord {
            let core = self.vm.core_mut();
            b.finish_stream(&mut core.env, &mut core.acct);
        }
        self.vm.poll_suspended(self.coord.as_dyn());
    }

    /// Wakes threads a streaming backup deferred while waiting for log
    /// records (call after feeding frames).
    pub fn poll_suspended(&mut self) {
        self.vm.poll_suspended(self.coord.as_dyn());
    }

    /// Advances this replica's clock to `instant` (no-op if already past).
    pub fn wait_until(&mut self, instant: SimTime) {
        self.vm.core_mut().acct.wait_until(Category::Misc, instant);
    }

    /// Marks the replica's environment failed (fail-stop: volatile state
    /// is lost with the process).
    pub fn fail_env(&mut self) {
        self.vm.core_mut().env.fail();
    }

    /// Epoch marks a streaming backup has absorbed — its epoch
    /// acknowledgment (0 for primaries).
    pub(crate) fn epochs_absorbed(&self) -> u64 {
        self.coord.backup().map_or(0, Backup::epochs_absorbed)
    }

    /// Relays the backup's epoch acknowledgment into the primary's stats.
    pub(crate) fn relay_epoch_ack(&mut self, acked: u64) {
        if let Some(core) = self.coord.primary_core_mut() {
            core.record_epoch_ack(acked);
        }
    }

    /// Exits degraded mode once a replacement standby is live.
    pub(crate) fn exit_degraded(&mut self) {
        if let Some(core) = self.coord.primary_core_mut() {
            core.exit_degraded();
        }
    }

    /// Cuts an epoch checkpoint if the interval has elapsed and the VM is
    /// at a quiescent, coordinator-ready boundary. Returns whether a cut
    /// happened.
    ///
    /// # Errors
    /// Propagates snapshot failures (a protocol bug: the quiescence gate
    /// should make them impossible).
    pub fn try_cut_epoch(&mut self) -> Result<bool, VmError> {
        self.cut_epoch(false)
    }

    /// Epoch-cut worker. `force` cuts even before the interval elapses
    /// (re-integration state transfer needs a fresh snapshot now), but
    /// the quiescence and coordinator-readiness gates still apply.
    fn cut_epoch(&mut self, force: bool) -> Result<bool, VmError> {
        let ReplicaCoord::Primary(p) = &mut self.coord else { return Ok(false) };
        if !(force || p.core.wants_epoch_cut()) || !self.vm.quiescent() {
            return Ok(false);
        }
        let Some(ext) = p.prepare_epoch_cut(&mut self.vm.core_mut().acct) else {
            return Ok(false);
        };
        let blob = self
            .vm
            .snapshot(&ext)
            .map_err(|e| VmError::Internal(format!("epoch snapshot: {e}")))?;
        p.core.commit_epoch(blob, &mut self.vm.core_mut().acct);
        Ok(true)
    }

    /// Ships the latest epoch snapshot as chunk frames over fan-out link
    /// `idx` only (re-integration recruits a single standby, and its peers
    /// must not see the chunks; a log store keeps every snapshot).
    /// Returns the number of chunks sent.
    ///
    /// # Errors
    /// Returns an error when there is no snapshot to ship or the replica
    /// is not a primary.
    pub(crate) fn ship_latest_snapshot_on(&mut self, idx: usize) -> Result<u64, VmError> {
        /// Chunk payload size: small enough that loss retransmits stay
        /// cheap, large enough that a snapshot is a handful of frames.
        const CHUNK: usize = 4096;
        let Replica { vm, coord, .. } = self;
        let core = coord
            .primary_core_mut()
            .ok_or_else(|| VmError::Internal("snapshot transfer from a non-primary".into()))?;
        let (epoch, blob) = core
            .latest_snapshot()
            .cloned()
            .ok_or_else(|| VmError::Internal("no epoch snapshot to transfer".into()))?;
        let total = blob.len().div_ceil(CHUNK) as u64;
        let acct = &mut vm.core_mut().acct;
        for (i, piece) in blob.chunks(CHUNK).enumerate() {
            core.send_raw_on(idx, build_snapshot_chunk(epoch, i as u64, total, piece), acct);
        }
        core.stats.snapshot_chunks_sent += total;
        Ok(total)
    }

    /// The primary half of re-integration: force-cut an epoch at the
    /// current boundary, point fan-out link `idx` at `fresh` (the link
    /// toward the replacement), and ship the snapshot as chunk frames on
    /// it while the other links keep streaming undisturbed. Returns false
    /// — leaving the link untouched — when the VM is not at a cuttable
    /// boundary yet (the driver retries next slice).
    pub(crate) fn begin_state_transfer_on(
        &mut self,
        idx: usize,
        fresh: LogChannel,
    ) -> Result<bool, VmError> {
        if !self.cut_epoch(true)? {
            return Ok(false);
        }
        if let Some(core) = self.coord.primary_core_mut() {
            // The old link pointed at the dead (or stale) standby; frames
            // still in flight on it are lost with that host.
            drop(core.swap_link(idx, fresh));
        }
        self.ship_latest_snapshot_on(idx)?;
        Ok(true)
    }

    /// The epoch the latest snapshot covers (0 before the first cut).
    pub(crate) fn snapshot_epoch(&mut self) -> u64 {
        self.coord
            .primary_core_mut()
            .and_then(|c| c.latest_snapshot().map(|(e, _)| *e))
            .unwrap_or(0)
    }

    /// Consumes a primary replica, returning its channel and final
    /// replication statistics.
    ///
    /// # Errors
    /// Returns a typed error (instead of panicking) when called on a
    /// backup replica — a driver bug.
    pub(crate) fn into_primary_parts(self) -> Result<(LogChannel, ReplicationStats), VmError> {
        match self.coord {
            ReplicaCoord::Primary(p) => Ok(p.core.into_parts()),
            ReplicaCoord::Backup(_) => {
                Err(VmError::Internal("into_primary_parts on a backup replica".into()))
            }
        }
    }

    /// Backup-side replication statistics (empty for primaries).
    pub(crate) fn backup_stats(&self) -> ReplicationStats {
        self.coord.backup().map(|b| b.stats().clone()).unwrap_or_default()
    }

    /// Simulated instant at which the backup's log replay completed.
    pub(crate) fn recovery_completed_at(&self) -> Option<SimTime> {
        self.coord.backup().and_then(Backup::recovery_completed_at)
    }

    /// True once a backup's replay fully consumed its log (trivially true
    /// for primaries).
    pub(crate) fn recovery_complete(&self) -> bool {
        self.coord.backup().is_none_or(Backup::recovery_complete)
    }

    /// Replay records still unconsumed on a backup — a promotion must run
    /// the VM until this reaches zero (0 for primaries).
    pub(crate) fn replay_pending(&self) -> u64 {
        self.coord.backup().map_or(0, Backup::replay_pending)
    }

    /// The primary core, for group drivers configuring fan-out, ack
    /// policy, voting, and link liveness (None for backups).
    pub(crate) fn primary_core(&mut self) -> Option<&mut PrimaryCore> {
        self.coord.primary_core_mut()
    }

    /// Verified in-order frames delivered on fan-out link `idx` by `now`.
    ///
    /// # Errors
    /// Returns a typed error when called on a replica without a channel.
    pub(crate) fn recv_ready_link(
        &mut self,
        idx: usize,
        now: SimTime,
    ) -> Result<Vec<(SimTime, Bytes)>, VmError> {
        match self.coord.primary_core_mut() {
            Some(core) => Ok(core.link_mut(idx).recv_ready(now)),
            None => Err(VmError::Internal(
                "co-simulated primary replica has no replication channel".into(),
            )),
        }
    }

    /// Consumes a primary replica, returning every fan-out link in rank
    /// order plus the final replication statistics.
    ///
    /// # Errors
    /// Returns a typed error when called on a backup replica.
    pub(crate) fn into_group_parts(self) -> Result<(Vec<LogChannel>, ReplicationStats), VmError> {
        match self.coord {
            ReplicaCoord::Primary(p) => Ok(p.core.into_group_parts()),
            ReplicaCoord::Backup(_) => {
                Err(VmError::Internal("into_group_parts on a backup replica".into()))
            }
        }
    }

    /// Promotes a *finished* streaming backup to primary **in place**: the
    /// replayed VM keeps running, only the coordinator changes sides. The
    /// new reign starts with `extra_links + 1` fan-out links (all fresh
    /// transports, all marked dead — survivors re-home via per-link state
    /// transfer), the output-id allocator continues the dead reign's
    /// exactly-once numbering, the side-effect registry moves over from
    /// the replay, and the lock-id / branch-counter allocators seed from
    /// the replayed VM so fresh assignments never collide with history.
    ///
    /// # Errors
    /// Typed [`crate::backup::ReplayError::PromotionIncomplete`] when
    /// replay records are still unconsumed, and a driver-bug error when
    /// called on a primary.
    pub(crate) fn promote(
        self,
        rt: &ReplicaRuntime,
        fault: FaultPlan,
        extra_links: usize,
    ) -> Result<Replica, VmError> {
        let Replica { vm, coord } = self;
        let ReplicaCoord::Backup(b) = coord else {
            return Err(VmError::Internal("promote on a primary replica".into()));
        };
        let (se, next_output) = b.into_promotion_parts().map_err(|e| e.at(ThreadIdx(0)))?;
        let mut core = rt.primary_core(fault, se);
        core.seed_output_ids(next_output);
        core.enable_fanout((0..extra_links).map(|_| rt.make_channel()).collect());
        // No standby is live until the driver re-recruits it: mark every
        // link dead and start degraded (uncovered outputs are counted).
        for idx in 0..core.link_count() {
            core.mark_link_dead(idx);
        }
        core.enter_degraded();
        let order = rt.log_order(&vm);
        Ok(Replica { vm, coord: ReplicaCoord::Primary(Box::new(Primary::new(core, order))) })
    }
}

/// Where a backup replica starts ([`ReplicaRuntime::build_backup`]).
#[derive(Debug)]
pub enum BackupStart<'a> {
    /// Cold: the complete drained log, replayed from the initial state.
    Log(Vec<Bytes>),
    /// Hot: an empty log that grows as flushed frames stream in.
    Stream,
    /// Hot, resumed from an epoch snapshot blob (re-integration of a
    /// replacement standby, or snapshot-based cold recovery).
    Snapshot(&'a [u8]),
}

/// Per-thread branch counters of `vm`, keyed by thread index.
fn branch_counters(vm: &Vm) -> HashMap<u32, u64> {
    vm.core().threads.iter().map(|t| (t.idx.0, t.br_cnt)).collect()
}

/// Reads the replication-layer extension sections of an epoch snapshot
/// into a [`ResumeSeed`], replaying the latest pre-cut side-effect payload
/// into each of `se`'s handlers as if it had arrived on the stream.
fn resume_seed(ext: &[(u8, Bytes)], se: &mut SeRegistry) -> Result<ResumeSeed, VmError> {
    let mut seed = ResumeSeed::default();
    let malformed =
        |what: &str, e: WireError| VmError::Internal(format!("snapshot ext {what}: {e}"));
    for (tag, payload) in ext {
        match *tag {
            EXT_CODEC_CTX => seed.decoder_ctx = payload.clone(),
            EXT_ND_SEQ => {
                seed.nd_consumed = decode_vt_map(payload).map_err(|e| malformed("nd map", e))?;
            }
            EXT_OUT_SEQ => {
                seed.commit_consumed =
                    decode_vt_map(payload).map_err(|e| malformed("commit map", e))?;
            }
            EXT_COUNTERS => {
                let mut r = WireReader::new(payload.clone());
                seed.live_output_base = r.get_uvarint().map_err(|e| malformed("counters", e))?;
            }
            EXT_SE_LATEST => {
                let mut r = WireReader::new(payload.clone());
                let n = r.get_uvarint().map_err(|e| malformed("se count", e))?;
                for _ in 0..n {
                    let h = r.get_u8().map_err(|e| malformed("se handler", e))?;
                    let p = r.get_vbytes().map_err(|e| malformed("se payload", e))?;
                    se.receive(h, p);
                }
            }
            _ => {}
        }
    }
    Ok(seed)
}

/// Builds and drives a replica pair over one simulated timeline.
///
/// Owns the program, natives, and configuration; each run builds fresh
/// replicas over a fresh [`ftjvm_vm::World`]. [`FtJvm`](crate::FtJvm)'s
/// `run_*` drivers are thin wrappers around this type, which runs every
/// pair but the whole-log cold one as a two-member [`GroupTask`] — the
/// resumable value a fleet scheduler multiplexes. Cloning is cheap (the
/// program is behind an [`Arc`]); a clone that shares a [`SharedLink`]
/// contends for the same trunk bandwidth.
#[derive(Clone)]
pub struct ReplicaRuntime {
    program: Arc<Program>,
    natives: NativeRegistry,
    cfg: FtConfig,
    shared: Option<(SharedLink, SimTime)>,
}

impl std::fmt::Debug for ReplicaRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaRuntime").field("cfg", &self.cfg).finish()
    }
}

impl ReplicaRuntime {
    /// Creates a runtime for `program` under `cfg`.
    pub fn new(program: Arc<Program>, natives: NativeRegistry, cfg: FtConfig) -> Self {
        ReplicaRuntime { program, natives, cfg, shared: None }
    }

    /// The runtime's configuration.
    pub(crate) fn cfg(&self) -> &FtConfig {
        &self.cfg
    }

    /// Routes this pair's replication traffic through a shared trunk:
    /// every frame sent on a perfect channel queues behind the trunk's
    /// other traffic (fleet-level contention). `offset` maps this pair's
    /// local clock onto the trunk's global timeline. Detached (the
    /// default), channel timing is byte-identical to the single-pair
    /// runs; lossy (net-fault-armed) transports ignore the trunk.
    pub fn set_shared_bandwidth(&mut self, link: SharedLink, offset: SimTime) {
        self.shared = Some((link, offset));
    }

    fn vm_config(&self, seed: u64) -> VmConfig {
        VmConfig { sched_seed: seed, ..self.cfg.vm.clone() }
    }

    fn primary_env(&self, world: &SharedWorld) -> SimEnv {
        SimEnv::new("primary", world.clone(), self.cfg.primary_skew, self.cfg.primary_env_seed)
    }

    /// Environment for the standby at `rank` in a replica group. Rank 0
    /// is the pair's backup (name, skew, seed), so a group of size 2 is
    /// byte-identical to the pair; higher ranks get their own name and ND
    /// seed.
    fn backup_env(&self, world: &SharedWorld, rank: u32) -> SimEnv {
        let name = if rank == 0 { "backup".to_string() } else { format!("backup-r{rank}") };
        let seed = self.cfg.backup_env_seed + u64::from(rank);
        SimEnv::new(&name, world.clone(), self.cfg.backup_skew, seed)
    }

    /// Builds a log transport per the configured net-fault plan: an armed
    /// plan swaps the paper's perfect FIFO channel for the lossy link plus
    /// the reliability sublayer; unarmed runs keep the perfect channel
    /// (and its exact seed-run timing). Re-integration builds a second one
    /// toward the replacement backup.
    pub(crate) fn make_channel(&self) -> LogChannel {
        if self.cfg.net_fault.is_armed() {
            let link = LossyChannel::new(self.cfg.vm.cost.net.clone(), self.cfg.net_fault.clone());
            LogChannel::Reliable(Box::new(ReliableLink::new(link)))
        } else {
            let mut ch = SimChannel::new(self.cfg.vm.cost.net.clone());
            if let Some((link, offset)) = &self.shared {
                ch.attach_shared(link.clone(), *offset);
            }
            LogChannel::Perfect(ch)
        }
    }

    /// The shared primary machinery over a fresh channel, configured per
    /// [`FtConfig`].
    fn primary_core(&self, fault: FaultPlan, se: SeRegistry) -> PrimaryCore {
        let mut core =
            PrimaryCore::with_transport(self.make_channel(), self.cfg.vm.cost.clone(), fault, se);
        core.flush_threshold = self.cfg.flush_threshold;
        core.set_codec(self.cfg.codec);
        core.set_heartbeat_interval(self.cfg.detector.interval());
        core.set_checkpoint_interval(self.cfg.checkpoint_interval);
        core
    }

    /// The order a primary running `vm` records. Allocators seed from the
    /// VM so a backup promoting in place never collides with the history
    /// it replayed: lock ids start past every assigned one, and branch
    /// counters continue (both are empty at genesis).
    fn log_order(&self, vm: &Vm) -> LogOrder {
        match (self.cfg.mode, self.cfg.lock_variant) {
            (ReplicationMode::LockSync, LockVariant::PerAcquisition) => {
                LogOrder::Locks { next_l_id: vm.core().monitors.max_lock_id().map_or(0, |m| m + 1) }
            }
            (ReplicationMode::LockSync, LockVariant::Intervals) => {
                LogOrder::Intervals { open: None }
            }
            (ReplicationMode::ThreadSched, _) => {
                LogOrder::Schedule { pending_from: None, last_br: branch_counters(vm) }
            }
        }
    }

    /// The order a backup replaying into `vm` enforces. Under thread
    /// scheduling the thread current in `vm` is designated: the root at
    /// genesis, and after an epoch restore the thread current on the
    /// primary at the cut (which happened with no schedule record
    /// half-captured).
    fn replay_order(&self, vm: &Vm) -> ReplayOrder {
        match (self.cfg.mode, self.cfg.lock_variant) {
            (ReplicationMode::LockSync, LockVariant::PerAcquisition) => ReplayOrder::Locks,
            (ReplicationMode::LockSync, LockVariant::Intervals) => ReplayOrder::Intervals,
            (ReplicationMode::ThreadSched, _) => {
                let core = vm.core();
                let designated = core
                    .current
                    .and_then(|idx| core.threads.get(idx.0 as usize))
                    .and_then(|t| t.vt.clone())
                    .unwrap_or_else(VtPath::root);
                ReplayOrder::Schedule(Schedule::new(designated, branch_counters(vm)))
            }
        }
    }

    /// Builds the primary replica: a VM with the mode's logging
    /// coordinator over a fresh channel.
    ///
    /// # Errors
    /// Propagates program-loading errors.
    pub fn build_primary(&self, world: &SharedWorld, fault: FaultPlan) -> Result<Replica, VmError> {
        let core = self.primary_core(fault, (self.cfg.se_factory)());
        let vm = Vm::new(
            self.program.clone(),
            self.natives.clone(),
            self.primary_env(world),
            self.vm_config(self.cfg.primary_seed),
        )?;
        let order = self.log_order(&vm);
        Ok(Replica { vm, coord: ReplicaCoord::Primary(Box::new(Primary::new(core, order))) })
    }

    /// Builds the backup replica at `rank` of a replica group (rank 0 is
    /// the pair's backup) from `start`: a complete drained log to replay
    /// from the initial state (cold), an empty stream (hot), or an epoch
    /// snapshot blob. A snapshot restores the VM, and its
    /// replication-layer extension sections seed the replay (decoder
    /// context, consumed-sequence maps, output-id floor, latest
    /// side-effect payloads), so the replica continues from the cut as if
    /// it had consumed the whole truncated prefix.
    ///
    /// # Errors
    /// Propagates program-loading and log-decoding errors, and rejects a
    /// corrupt blob or malformed extension sections.
    pub fn build_backup(
        &self,
        world: &SharedWorld,
        start: BackupStart<'_>,
        rank: u32,
    ) -> Result<Replica, VmError> {
        let mut se = (self.cfg.se_factory)();
        let cost = self.cfg.vm.cost.clone();
        let config = self.vm_config(self.cfg.backup_seed + u64::from(rank));
        let fresh_vm =
            |env| Vm::new(self.program.clone(), self.natives.clone(), env, config.clone());
        let (vm, replay) = match start {
            BackupStart::Log(frames) => {
                let log = BackupLog::decode(frames, &mut se)?;
                let mut env = self.backup_env(world, rank);
                // SE-handler `restore`: re-create the primary's volatile
                // environment state (open files at their recovered offsets).
                se.restore(&mut env);
                (fresh_vm(env)?, NativeReplay::cold(log, world.clone(), se, cost))
            }
            BackupStart::Stream => {
                let vm = fresh_vm(self.backup_env(world, rank))?;
                (vm, NativeReplay::streaming(world.clone(), se, cost))
            }
            BackupStart::Snapshot(blob) => {
                let (vm, ext) = Vm::restore(
                    self.program.clone(),
                    self.natives.clone(),
                    world.clone(),
                    &config,
                    blob,
                )
                .map_err(|e| VmError::Internal(format!("restore epoch snapshot: {e}")))?;
                let seed = resume_seed(&ext, &mut se)?;
                (vm, NativeReplay::resumed(world.clone(), se, cost, seed)?)
            }
        };
        let order = self.replay_order(&vm);
        Ok(Replica { vm, coord: ReplicaCoord::Backup(Box::new(Backup::new(replay, order))) })
    }

    /// Runs a primary on `world` to completion or to its fail-stop, whose
    /// volatile environment state is lost with the process (the external
    /// world survives). Returns its report, channel and statistics.
    fn run_primary(
        &self,
        world: &SharedWorld,
        fault: FaultPlan,
    ) -> Result<(RunReport, LogChannel, ReplicationStats), VmError> {
        let mut primary = self.build_primary(world, fault)?;
        let report = primary.run_to_end()?;
        if report.outcome == RunOutcome::Stopped {
            primary.fail_env();
        }
        let (channel, stats) = primary.into_primary_parts()?;
        Ok((report, channel, stats))
    }

    /// Runs the primary to completion (or crash) and returns its report,
    /// the drained log frames, and the replication and channel statistics
    /// — the log-producing half shared by the replay harness and the
    /// log-inspection entry points.
    ///
    /// # Errors
    /// Propagates fatal VM errors.
    pub fn run_primary_to_log(
        &self,
        world: &SharedWorld,
        fault: FaultPlan,
    ) -> Result<(RunReport, Vec<Bytes>, ReplicationStats, ChannelStats), VmError> {
        let (report, mut channel, stats) = self.run_primary(world, fault)?;
        let frames = channel.drain().into_iter().map(|(_, frame)| frame).collect();
        // Stats after the drain: on a lossy link the takeover delivery
        // itself detects duplicates/corruption worth counting.
        let channel_stats = channel.stats();
        Ok((report, frames, stats, channel_stats))
    }

    /// Replays a drained log on a cold backup over `world` — the single
    /// drain-and-replay helper shared by the failover and benchmark paths.
    ///
    /// # Errors
    /// Propagates fatal VM errors, including replay divergence.
    pub fn replay_log(
        &self,
        world: &SharedWorld,
        frames: Vec<Bytes>,
    ) -> Result<(RunReport, ReplicationStats, Option<SimTime>), VmError> {
        let mut backup = self.build_backup(world, BackupStart::Log(frames), 0)?;
        let report = backup.run_to_end()?;
        Ok((report, backup.backup_stats(), backup.recovery_completed_at()))
    }

    /// Runs a checkpointed pair per `plan` — backup kill, degraded mode,
    /// re-integration — as a two-member [`GroupTask`]. The standby is the
    /// one [`run_pair`](ReplicaRuntime::run_pair) selects: hot, or a
    /// log-store member under [`LagBudget::Cold`].
    ///
    /// The co-simulation adds the epoch protocol: the primary cuts a
    /// checkpoint every `checkpoint_interval` flushes at a quiescent
    /// boundary, the driver relays the backup's absorbed-epoch count back
    /// as the ack, and the retained replay suffix truncates at each cut.
    /// When the plan kills the backup, the primary's reverse-heartbeat
    /// detector fires after the configured deadline: the primary marks
    /// the link dead and enters *degraded mode* (output commits stop
    /// waiting for acknowledgments, the gap is counted in
    /// [`ReplicationStats::degraded_outputs`]). With `reintegrate`, the
    /// primary then recruits a replacement standby by force-cutting a
    /// fresh epoch and shipping the snapshot as chunk frames over a fresh
    /// channel (lossy + reliability sublayer when the net-fault plan is
    /// armed), after which the pair is 1-fault tolerant again — a
    /// subsequent primary crash fails over to the replacement.
    ///
    /// Modeling note: between the kill and the detector firing, output
    /// commits still wait on the (phantom) transport acknowledgments of
    /// the dead backup's channel — a timing artifact only; exactly-once
    /// output is unaffected.
    ///
    /// # Errors
    /// Returns an error when `checkpoint_interval` is unset, and
    /// propagates fatal VM errors from any replica.
    pub fn run_checkpointed(&self, plan: CheckpointPlan) -> Result<CheckpointReport, VmError> {
        if self.cfg.checkpoint_interval.is_none() {
            return Err(VmError::Internal(
                "run_checkpointed requires FtConfig::checkpoint_interval".into(),
            ));
        }
        self.run_group_pair(plan)
    }

    /// Runs the pair per the configured [`LagBudget`] and
    /// [`FtConfig::checkpoint_interval`]. A hot standby is co-simulated:
    /// on a crash, detection fires from missed heartbeats and only the
    /// unconsumed log suffix is replayed, so
    /// [`PairReport::failover_latency`] is measured, not derived. A cold
    /// backup only stores the log: with checkpointing it is a log-store
    /// member that recovers from its latest snapshot; without, the
    /// primary runs unsliced and the drained log is replayed from the
    /// initial state (the paper's baseline).
    ///
    /// # Errors
    /// Propagates fatal VM errors from either replica.
    pub fn run_pair(&self, fault: FaultPlan) -> Result<PairReport, VmError> {
        if self.cfg.lag_budget == LagBudget::Cold && self.cfg.checkpoint_interval.is_none() {
            return cold_pair(self, fault);
        }
        self.run_group_pair(CheckpointPlan { fault, ..CheckpointPlan::default() }).map(|r| r.pair)
    }

    /// Runs `plan` on a two-member group and maps its report back.
    fn run_group_pair(&self, plan: CheckpointPlan) -> Result<CheckpointReport, VmError> {
        let gcfg = GroupConfig {
            size: 2,
            kills: vec![plan.fault],
            kill_standby_after_units: plan.kill_backup_after_units.map(|units| (0, units)),
            reintegrate: plan.reintegrate,
            ..GroupConfig::default()
        };
        let report = GroupTask::new(self.clone(), gcfg)?.run_to_completion()?.into_report()?;
        CheckpointReport::from_pair_group(report)
    }
}

/// The whole-log cold pair (the paper's baseline, §1): the primary runs
/// unsliced to completion or crash; on a crash, detection fires from the
/// heartbeats the backup actually received and the drained log is
/// replayed from the initial state. Slicing this primary would perturb
/// thread scheduling's per-block progress charge, so it stays outside the
/// group driver.
fn cold_pair(rt: &ReplicaRuntime, fault: FaultPlan) -> Result<PairReport, VmError> {
    let world = World::shared();
    let (primary, mut channel, primary_stats) = rt.run_primary(&world, fault)?;
    let crashed = primary.outcome == RunOutcome::Stopped;
    let (mut backup, mut backup_stats) = (None, None);
    let (mut detection_latency, mut recovery_replay_time) = (SimTime::ZERO, SimTime::ZERO);
    if crashed {
        let crash_at = primary.acct.now();
        let drained = channel.drain();
        // The detector's deadline re-arms at each heartbeat arrival and
        // fires when the next one never comes.
        let mut monitor = rt.cfg.detector.monitor(SimTime::ZERO);
        for (arrival, frame) in &drained {
            if crate::codec::frame_is_heartbeat(frame) {
                monitor.observe(*arrival);
            }
        }
        detection_latency = monitor.deadline().max(crash_at) - crash_at;
        let frames = drained.into_iter().map(|(_, frame)| frame).collect();
        let (report, stats, recovered_at) = rt.replay_log(&world, frames)?;
        recovery_replay_time = recovered_at.unwrap_or_else(|| report.acct.now());
        (backup, backup_stats) = (Some(report), Some(stats));
    }
    Ok(PairReport {
        primary,
        primary_stats,
        crashed,
        backup,
        backup_stats,
        detection_latency,
        recovery_replay_time,
        failover_latency: detection_latency + recovery_replay_time,
        channel: channel.stats(),
        world,
    })
}

/// What to do to a checkpointed pair while it runs
/// ([`ReplicaRuntime::run_checkpointed`]).
#[derive(Debug, Clone, Default)]
pub struct CheckpointPlan {
    /// Primary-side fault injection, as in the other run drivers.
    pub fault: FaultPlan,
    /// Kill the backup once the primary has executed at least this many
    /// instruction units (rounded up to a whole co-simulation slice).
    pub kill_backup_after_units: Option<u64>,
    /// After the primary detects the dead backup, recruit a replacement
    /// standby from the latest snapshot plus the live suffix.
    pub reintegrate: bool,
}

/// Outcome of [`ReplicaRuntime::run_checkpointed`].
#[derive(Debug)]
pub struct CheckpointReport {
    /// The underlying pair report (primary plus the final survivor).
    pub pair: PairReport,
    /// Instant the backup was killed, when the plan killed one.
    pub backup_killed_at: Option<SimTime>,
    /// Instant the primary declared the backup dead and went degraded.
    pub degraded_entered_at: Option<SimTime>,
    /// Instant the replacement standby finished state transfer and went
    /// live.
    pub reintegrated_at: Option<SimTime>,
    /// True once a replacement standby was live before the run ended.
    pub reintegrated: bool,
}

impl CheckpointReport {
    /// Maps a finished two-member group's report to the pair's: its one
    /// reign is the primary, its standby the backup, and its failover (if
    /// any) the detection and replay latencies.
    fn from_pair_group(g: GroupReport) -> Result<Self, VmError> {
        let GroupReport {
            crashed,
            failovers,
            reigns,
            standby,
            standby_killed_at,
            degraded_at,
            reintegrated_at,
            world,
            ..
        } = g;
        let reign = reigns
            .into_iter()
            .next()
            .ok_or_else(|| VmError::Internal("pair group ended without a reign".into()))?;
        let (detection_latency, recovery_replay_time) = failovers
            .first()
            .map_or((SimTime::ZERO, SimTime::ZERO), |f| (f.detection_latency, f.suffix_replay));
        let (backup, backup_stats) = standby.unzip();
        Ok(CheckpointReport {
            pair: PairReport {
                primary: reign.report,
                primary_stats: reign.stats,
                crashed,
                backup,
                backup_stats,
                detection_latency,
                recovery_replay_time,
                failover_latency: detection_latency + recovery_replay_time,
                channel: reign.channels.first().copied().unwrap_or_default(),
                world,
            },
            backup_killed_at: standby_killed_at,
            degraded_entered_at: degraded_at,
            reintegrated_at,
            reintegrated: reintegrated_at.is_some(),
        })
    }

    /// Kill-to-live re-integration latency, when both endpoints exist.
    pub fn reintegration_latency(&self) -> Option<SimTime> {
        match (self.backup_killed_at, self.reintegrated_at) {
            (Some(k), Some(r)) if r > k => Some(r - k),
            (Some(_), Some(_)) => Some(SimTime::ZERO),
            _ => None,
        }
    }

    /// Length of the degraded window (detector fired → replacement live),
    /// when the run went degraded. Open-ended windows (never re-armed)
    /// return `None`.
    pub fn degraded_window(&self) -> Option<SimTime> {
        match (self.degraded_entered_at, self.reintegrated_at) {
            (Some(d), Some(r)) if r > d => Some(r - d),
            (Some(_), Some(_)) => Some(SimTime::ZERO),
            _ => None,
        }
    }
}
