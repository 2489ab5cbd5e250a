//! Layer splits shared by every workload: the replica-pair layers
//! (interpreter, primary, codec, backup replay, hot pair task) and VM
//! snapshot/restore, each timed by calling the layer's public functions on
//! the workload's own programs.
//!
//! A layer reachable only through another layer's call gets its self time
//! as the difference between two calls that differ by exactly that layer:
//!
//! * `core.primary` = `run_primary_to_log` − the unreplicated run;
//! * `core.backup` = `replay_log` − `decode_frames` of the same log − the
//!   unreplicated run;
//! * `core.pair` (hot pair task) = hot `run_replicated` − `run_primary_to_log`
//!   − `replay_log`.

use crate::trace::{op_ns, Span, Tracer};
use bytes::Bytes;
use ftjvm_core::{
    decode_frames, decode_frames_pipelined, open_frame, seal_frame, FtConfig, FtJvm, LagBudget,
    RecordDecoder, RecordEncoder, WireCodec,
};
use ftjvm_netsim::FaultPlan;
use ftjvm_vm::coordinator::NoopCoordinator;
use ftjvm_vm::{NativeRegistry, Program, SimEnv, SliceOutcome, Vm, VmConfig, World};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-repetition samples of layer metrics, by metric name; the reported
/// value is the median.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

/// Appends one sample.
pub fn push(s: &mut Samples, name: &'static str, v: f64) {
    s.entry(name).or_default().push(v);
}

/// One program under one replica-pair configuration.
#[derive(Clone)]
pub struct Job {
    /// Label for error messages.
    pub name: String,
    /// The program.
    pub program: Arc<Program>,
    /// Failure-free pair configuration (no checkpointing, perfect link).
    pub cfg: FtConfig,
    /// Guest instructions of its unreplicated run.
    pub instructions: u64,
}

/// Span names of the pair split.
pub const SOLO: &str = "vm.interp.run_unreplicated";
const TO_LOG: &str = "core.primary.run_primary_to_log";
const DECODE: &str = "core.codec.decode_frames";
const REPLAY: &str = "core.backup.replay_log";
const HOT: &str = "core.pair.run_hot";

/// Self times of one job's pair split, in nanoseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PairSelf {
    /// The unreplicated run.
    pub solo: i64,
    /// Primary-side replication on top of the interpreter.
    pub primary: i64,
    /// Record decode of the whole log.
    pub decode: i64,
    /// Replay enforcement on top of decode and the interpreter.
    pub backup: i64,
    /// The hot pair task's co-simulation loop on top of both replicas.
    pub drive: i64,
    /// The hot pair's wall time.
    pub hot: i64,
}

/// Applies the difference rules to the spans of operation `op`.
pub fn pair_self(spans: &[Span], op: u64) -> PairSelf {
    let ns = |name| op_ns(spans, name, op) as i64;
    let (solo, to_log, decode, replay, hot) =
        (ns(SOLO), ns(TO_LOG), ns(DECODE), ns(REPLAY), ns(HOT));
    PairSelf {
        solo,
        primary: to_log - solo,
        decode,
        backup: replay - decode - solo,
        drive: hot - to_log - replay,
        hot,
    }
}

fn ms(ns: i64) -> f64 {
    ns as f64 / 1e6
}

/// One repetition of the pair split over `jobs`. Returns an error when a
/// layer call fails.
pub fn pair_split(
    tr: &mut Tracer,
    next_op: &mut u64,
    jobs: &[Job],
    out: &mut Samples,
) -> Result<(), String> {
    let mut sum = PairSelf::default();
    let (mut records, mut frames_n, mut bytes, mut flushes) = (0u64, 0u64, 0u64, 0u64);
    for job in jobs {
        let op = *next_op;
        *next_op += 1;
        let err = |e: &dyn std::fmt::Display| format!("{} pair split: {e}", job.name);
        let harness = FtJvm::new(job.program.clone(), job.cfg.clone());
        let rt = harness.runtime();
        tr.span(SOLO, op, |_| harness.run_unreplicated()).map_err(|e| err(&e))?;
        let (_, frames, stats, _) = tr
            .span(TO_LOG, op, |_| rt.run_primary_to_log(&World::shared(), FaultPlan::None))
            .map_err(|e| err(&e))?;
        let copy = frames.clone();
        tr.span(DECODE, op, |_| decode_frames(copy)).map_err(|e| err(&e))?;
        let n_frames = frames.len() as u64;
        tr.span(REPLAY, op, |_| rt.replay_log(&World::shared(), frames)).map_err(|e| err(&e))?;
        let hot = FtJvm::new(
            job.program.clone(),
            FtConfig { lag_budget: LagBudget::Hot, ..job.cfg.clone() },
        );
        tr.span(HOT, op, |_| hot.run_replicated()).map_err(|e| err(&e))?;
        let s = pair_self(tr.spans(), op);
        sum = PairSelf {
            solo: sum.solo + s.solo,
            primary: sum.primary + s.primary,
            decode: sum.decode + s.decode,
            backup: sum.backup + s.backup,
            drive: sum.drive + s.drive,
            hot: sum.hot + s.hot,
        };
        records += stats.messages_logged();
        frames_n += n_frames;
        bytes += stats.bytes_logged;
        flushes += stats.flushes;
    }
    push(out, "split.solo_ms", ms(sum.solo));
    push(out, "core.primary.self_ms", ms(sum.primary));
    push(out, "core.primary.ns_per_record", sum.primary as f64 / records.max(1) as f64);
    push(out, "core.primary.records", records as f64);
    push(out, "core.primary.frames", frames_n as f64);
    push(out, "core.primary.bytes_logged", bytes as f64);
    push(out, "core.primary.flushes", flushes as f64);
    push(out, "split.decode_ms", ms(sum.decode));
    push(out, "core.backup.self_ms", ms(sum.backup));
    push(out, "core.pair.drive_ms", ms(sum.drive));
    push(out, "core.pair.hot_ms", ms(sum.hot));
    Ok(())
}

/// The hot-pair residual: hot-pair wall minus the sum of its layers' self
/// times (two interpreter runs, primary, decode, backup, pair task), each
/// taken as its own median over the repetitions.
pub fn pair_residual_ms(med: &dyn Fn(&str) -> f64) -> f64 {
    med("core.pair.hot_ms")
        - (2.0 * med("split.solo_ms")
            + med("core.primary.self_ms")
            + med("split.decode_ms")
            + med("core.backup.self_ms")
            + med("core.pair.drive_ms"))
}

fn unseal(frame: &Bytes) -> Bytes {
    open_frame(frame).map(|(_, payload)| payload).unwrap_or_else(|_| frame.clone())
}

/// One repetition of the codec split over `job`'s captured Fixed and
/// Compact logs: record encode and decode, frame seal and open, and the
/// pipelined decoder at one thread against `threads`.
pub fn codec_split(
    tr: &mut Tracer,
    next_op: &mut u64,
    job: &Job,
    threads: usize,
    out: &mut Samples,
) -> Result<(), String> {
    let op = *next_op;
    *next_op += 1;
    let err = |e: &dyn std::fmt::Display| format!("{} codec split: {e}", job.name);
    let (mut records_n, mut enc_ns, mut dec_ns, mut seal_ns, mut open_ns, mut kb) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0.0f64);
    for codec in [WireCodec::Fixed, WireCodec::Compact] {
        let rt = FtJvm::new(job.program.clone(), FtConfig { codec, ..job.cfg.clone() }).runtime();
        let (_, frames, _, _) =
            rt.run_primary_to_log(&World::shared(), FaultPlan::None).map_err(|e| err(&e))?;
        let copy = frames.clone();
        let (records, ns) = tr.timed("core.codec.decode_frames", op, |_| decode_frames(copy));
        let records = records.map_err(|e| err(&e))?;
        dec_ns += ns;
        let mut enc = RecordEncoder::new();
        let (bodies, ns) = tr.timed("core.codec.encode_body", op, |_| {
            records.iter().map(|r| enc.encode_body(r)).collect::<Vec<Bytes>>()
        });
        std::hint::black_box(&bodies);
        enc_ns += ns;
        records_n += records.len() as u64;
        let payloads: Vec<Bytes> = frames.iter().map(unseal).collect();
        kb += payloads.iter().map(|p| p.len()).sum::<usize>() as f64 / 1024.0;
        let (sealed, ns) = tr.timed("core.codec.seal_frame", op, |_| {
            payloads.iter().zip(1u64..).map(|(p, seq)| seal_frame(seq, p)).collect::<Vec<Bytes>>()
        });
        seal_ns += ns;
        let (opened, ns) = tr.timed("core.codec.open_frame", op, |_| {
            sealed.iter().map(open_frame).collect::<Result<Vec<_>, _>>()
        });
        opened.map_err(|e| err(&e))?;
        open_ns += ns;
        let (serial, t1) = tr.timed("core.codec.pipelined_1t", op, |_| {
            decode_frames_pipelined(&mut RecordDecoder::new(), &frames, 1)
        });
        let (parallel, tn) = tr.timed("core.codec.pipelined_nt", op, |_| {
            decode_frames_pipelined(&mut RecordDecoder::new(), &frames, threads)
        });
        if serial.map_err(|e| err(&e))? != parallel.map_err(|e| err(&e))? {
            return Err(err(&"pipelined decode differs across thread counts"));
        }
        let (f, a, b) = match codec {
            WireCodec::Fixed => (
                "core.codec.pipelined_frames",
                "core.codec.pipelined_1t_ms",
                "core.codec.pipelined_nt_ms",
            ),
            WireCodec::Compact => (
                "core.codec.pipelined_compact_frames",
                "core.codec.pipelined_compact_1t_ms",
                "core.codec.pipelined_compact_nt_ms",
            ),
        };
        push(out, f, frames.len() as f64);
        push(out, a, t1 as f64 / 1e6);
        push(out, b, tn as f64 / 1e6);
    }
    let per_record = |ns: u64| ns as f64 / records_n.max(1) as f64;
    push(out, "core.codec.records", records_n as f64);
    push(out, "core.codec.encode_ns_per_record", per_record(enc_ns));
    push(out, "core.codec.decode_ns_per_record", per_record(dec_ns));
    push(out, "core.codec.seal_ns_per_kb", seal_ns as f64 / kb.max(1e-9));
    push(out, "core.codec.open_ns_per_kb", open_ns as f64 / kb.max(1e-9));
    push(out, "core.codec.threads", threads as f64);
    Ok(())
}

/// One repetition of the snapshot split: each job's VM is stopped at a
/// quiescent slice boundary near the middle of its run, snapshotted and
/// restored.
pub fn snapshot_split(
    tr: &mut Tracer,
    next_op: &mut u64,
    jobs: &[Job],
    out: &mut Samples,
) -> Result<(), String> {
    let (mut snap_ns, mut restore_ns, mut kb) = (0u64, 0u64, 0.0f64);
    for job in jobs {
        let op = *next_op;
        *next_op += 1;
        let err = |e: &dyn std::fmt::Display| format!("{} snapshot split: {e}", job.name);
        let cfg = VmConfig { sched_seed: job.cfg.primary_seed, ..job.cfg.vm.clone() };
        let env =
            SimEnv::new("primary", World::shared(), job.cfg.primary_skew, job.cfg.primary_env_seed);
        let natives = NativeRegistry::with_builtins();
        let mut vm =
            Vm::new(job.program.clone(), natives.clone(), env, cfg.clone()).map_err(|e| err(&e))?;
        let mut coord = NoopCoordinator::new();
        let mut outcome = vm.run_slice(&mut coord, job.instructions / 2).map_err(|e| err(&e))?;
        while matches!(outcome, SliceOutcome::Budget) && !vm.quiescent() {
            outcome = vm.run_slice(&mut coord, 1).map_err(|e| err(&e))?;
        }
        if !matches!(outcome, SliceOutcome::Budget) {
            return Err(err(&"program ended before its mid-run snapshot point"));
        }
        let (blob, ns) = tr.timed("vm.snapshot", op, |_| vm.snapshot(&[]));
        let blob = blob.map_err(|e| err(&e))?;
        snap_ns += ns;
        let (restored, ns) = tr.timed("vm.restore", op, |_| {
            Vm::restore(job.program.clone(), natives, World::shared(), &cfg, &blob)
        });
        restored.map_err(|e| err(&e))?;
        restore_ns += ns;
        kb += blob.len() as f64 / 1024.0;
    }
    push(out, "vm.snapshot.us_per_kb", snap_ns as f64 / 1e3 / kb.max(1e-9));
    push(out, "vm.restore.us_per_kb", restore_ns as f64 / 1e3 / kb.max(1e-9));
    push(out, "vm.snapshot.kb", kb);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &'static str, op: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { name, op, parent: None, start_ns, end_ns }
    }

    #[test]
    fn pair_self_times_follow_the_difference_rules() {
        // solo 10, to-log 25, decode 4, replay 19, hot 60 for op 1; op 2
        // must not leak into op 1's sums.
        let spans = vec![
            leaf(SOLO, 1, 0, 10),
            leaf(TO_LOG, 1, 10, 35),
            leaf(DECODE, 1, 35, 39),
            leaf(REPLAY, 1, 39, 58),
            leaf(HOT, 1, 58, 118),
            leaf(SOLO, 2, 118, 1000),
        ];
        let s = pair_self(&spans, 1);
        assert_eq!(s, PairSelf { solo: 10, primary: 15, decode: 4, backup: 5, drive: 16, hot: 60 });
        // The layers account for the hot pair exactly when measured in one
        // repetition: two interpreter runs plus every self time.
        assert_eq!(2 * s.solo + s.primary + s.decode + s.backup + s.drive, s.hot);
        let med = |name: &str| match name {
            "core.pair.hot_ms" => 60.0,
            "split.solo_ms" => 10.0,
            "core.primary.self_ms" => 15.0,
            "split.decode_ms" => 4.0,
            "core.backup.self_ms" => 5.0,
            "core.pair.drive_ms" => 12.0,
            _ => unreachable!(),
        };
        assert_eq!(pair_residual_ms(&med), 4.0);
    }
}
