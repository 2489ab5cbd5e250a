//! `group_faults`: 3-replica groups with epoch checkpoints, a vote quorum,
//! a seeded lossy link, a chain of primary kills and a standby kill with
//! reintegration. Programs: seeded `file_journal` sizes plus the db analog,
//! whose promotion replays a large lock-record suffix. The interpreter is
//! nearly idle; fan-out, digest votes, epoch snapshots, state transfer,
//! the reliability sublayer and promotion decode do the work.

use crate::check::Outcome;
use crate::layers::{codec_split, pair_split, push, snapshot_split, Job, Samples, SOLO};
use crate::trace::{durations, median, tail, Span, Tracer};
use crate::{mix, Pass, Workload};
use ftjvm_bench::bench_config;
use ftjvm_core::{
    FtConfig, FtJvm, GroupConfig, GroupEvent, GroupReport, GroupTask, NetFaultPlan, ReplicationMode,
};
use ftjvm_netsim::{FailureDetector, FaultPlan, SimTime};
use ftjvm_vm::VmError;
use std::collections::BTreeMap;

const SEED_TAG: u32 = 2;
/// Journal programs per pass; their sizes always sum to `JOURNAL_TOTAL`,
/// so every seed asks for the same amount of journal work.
const JOURNALS: usize = 8;
const JOURNAL_TOTAL: i64 = 4800;
/// Simulated time one traced `GroupTask::step` advances.
const STEP: SimTime = SimTime::from_micros(500);
const STEP_SPAN: &str = "core.group.step";
const TAKEOVER_SPAN: &str = "core.group.takeover";

struct Member {
    job: Job,
    armed: FtConfig,
    gcfg: GroupConfig,
    reference: Vec<String>,
    commits: u64,
}

/// The prepared workload.
pub struct GroupFaults {
    members: Vec<Member>,
    threads: usize,
}

/// The adversarial link: `drop` loss plus duplication, corruption,
/// reordering and jitter.
fn lossy(seed: u64, drop: f64) -> NetFaultPlan {
    NetFaultPlan {
        seed,
        drop,
        duplicate: 0.05,
        corrupt: 0.02,
        reorder: 0.10,
        jitter: SimTime::from_micros(300),
        ..NetFaultPlan::default()
    }
}

/// A fraction in `[lo, lo + span)` drawn from `r`.
fn frac(r: u64, lo: f64, span: f64) -> f64 {
    lo + span * (r % 10_000) as f64 / 10_000.0
}

/// Builds the programs, derives seeded configurations and runs the
/// failure-free probes that place the kill points.
pub fn setup(seed: u64, threads: usize) -> Result<GroupFaults, String> {
    let s = |k: u32| mix(seed, SEED_TAG, k);
    let weights: Vec<f64> = (0..JOURNALS).map(|i| frac(s(i as u32), 1.0, 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut programs: Vec<(String, std::sync::Arc<ftjvm_vm::Program>, FtConfig)> = weights
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let n = (JOURNAL_TOTAL as f64 * w / total).round() as i64;
            let mode =
                if i % 2 == 0 { ReplicationMode::LockSync } else { ReplicationMode::ThreadSched };
            let w = ftjvm_workloads::micro::file_journal(n);
            (format!("journal({n})/{mode}"), w.program, FtConfig { mode, ..FtConfig::default() })
        })
        .collect();
    let db = ftjvm_workloads::db::workload();
    programs.push((
        "db/lock-sync".to_string(),
        db.program,
        bench_config(ReplicationMode::LockSync),
    ));

    let mut members = Vec::new();
    for (i, (name, program, base)) in programs.into_iter().enumerate() {
        let r = |k: u32| s(100 + i as u32 * 16 + k);
        let pair = FtConfig {
            primary_seed: r(0),
            backup_seed: r(1),
            primary_env_seed: r(2),
            backup_env_seed: r(3),
            ..base
        };
        let unarmed = FtConfig {
            checkpoint_interval: Some(3),
            detector: FailureDetector::new(SimTime::from_millis(1), 2),
            ..pair.clone()
        };
        let err = |e: &dyn std::fmt::Display| format!("{name} probe: {e}");
        let harness = FtJvm::new(program.clone(), unarmed.clone());
        let (solo, world) = harness.run_unreplicated().map_err(|e| err(&e))?;
        let reference = world.borrow().console_texts();
        let probe = harness.run_group(GroupConfig::default()).map_err(|e| err(&e))?;
        let commits = probe.reigns.first().map_or(0, |r| r.stats.output_commits);
        if !probe.completed || probe.console() != reference || commits < 4 {
            return Err(err(&"failure-free probe did not reproduce the unreplicated run"));
        }
        // Kill points are output-commit indices of the failure-free probe.
        // The big db run takes one kill mid-run so its promotion replays a
        // long lock-record suffix; journals take a chain of two.
        let at = |lo: f64, span: f64, k: u32| {
            FaultPlan::BeforeOutput(((commits as f64 * frac(r(k), lo, span)) as u64).max(1))
        };
        let kills = if i < JOURNALS {
            vec![at(0.15, 0.2, 4), at(0.55, 0.2, 5)]
        } else {
            vec![at(0.4, 0.2, 4)]
        };
        let standby_units = (solo.counters.instructions as f64 * frac(r(6), 0.3, 0.4)) as u64;
        members.push(Member {
            armed: FtConfig { net_fault: lossy(r(7), 0.20), ..unarmed },
            gcfg: GroupConfig {
                size: 3,
                vote_quorum: Some(2),
                kills,
                kill_standby_after_units: Some((2, standby_units)),
                reintegrate: true,
                ..GroupConfig::default()
            },
            job: Job { name, program, cfg: pair, instructions: solo.counters.instructions },
            reference,
            commits,
        });
    }
    Ok(GroupFaults { members, threads })
}

/// Steps one group to completion at a fixed simulated slice, one span per
/// step; steps that end a reign are relabelled as takeovers.
fn run_group(tr: &mut Tracer, op: u64, m: &Member, cfg: FtConfig) -> Result<GroupReport, VmError> {
    let mut task =
        GroupTask::new(FtJvm::new(m.job.program.clone(), cfg).runtime(), m.gcfg.clone())?;
    while !task.is_done() {
        let until = task.now() + STEP;
        match tr.span(STEP_SPAN, op, |_| task.step(until))? {
            GroupEvent::PrimaryFailed { .. } => tr.relabel_last(TAKEOVER_SPAN),
            GroupEvent::Done => break,
            _ => {}
        }
    }
    task.into_report()
}

impl GroupFaults {
    fn pass_with(&self, tr: &mut Tracer, next_op: &mut u64, armed: bool) -> Pass {
        let mut p = Pass::default();
        let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut failover_ms = Vec::new();
        for m in &self.members {
            let op = *next_op;
            *next_op += 1;
            let harness = FtJvm::new(m.job.program.clone(), m.job.cfg.clone());
            let (solo, ns) = tr.timed(SOLO, op, |_| harness.run_unreplicated());
            p.solo_ns += ns;
            match solo {
                Ok((report, world)) if world.borrow().console_texts() == m.reference => {
                    p.solo_instr += report.counters.instructions;
                }
                other => {
                    eprintln!(
                        "perfbench: {} unreplicated run changed: {:?}",
                        m.job.name,
                        other.err()
                    );
                    p.checks_ok = false;
                }
            }
            let cfg = if armed {
                m.armed.clone()
            } else {
                FtConfig { net_fault: NetFaultPlan::default(), ..m.armed.clone() }
            };
            let (r, ns) = tr.timed("core.group.run", op, |tr| run_group(tr, op, m, cfg));
            p.rep_ns += ns;
            p.runs += 1;
            p.rep_instr += m.job.instructions;
            p.requests += m.commits;
            let o = match &r {
                Ok(g) => Outcome {
                    console: g.console(),
                    reference: &m.reference,
                    duplicate: g.check_no_duplicate_outputs().err(),
                    completed: g.completed,
                    error: None,
                },
                Err(e) => Outcome {
                    error: Some(e.to_string()),
                    reference: &m.reference,
                    ..Outcome::default()
                },
            };
            p.tally.record(&m.job.name, &o);
            let Ok(g) = r else { continue };
            let mut add = |k: &'static str, v: u64| *counts.entry(k).or_default() += v as f64;
            add("core.group.failovers", g.failovers.len() as u64);
            add("core.group.evictions", g.evictions);
            for reign in &g.reigns {
                add("core.group.epochs_cut", reign.stats.epochs_cut);
                add("core.group.snapshot_bytes", reign.stats.snapshot_bytes);
                add("core.group.snapshot_chunks", reign.stats.snapshot_chunks_sent);
                add("core.group.votes_sent", reign.stats.votes_sent);
                for c in &reign.channels {
                    add("netsim.lossy.messages", c.messages_sent);
                    add("netsim.lossy.retransmits", c.retransmits);
                    add("netsim.lossy.nacks", c.nacks);
                    add("netsim.lossy.drops", c.drops);
                    add("netsim.lossy.corrupted", c.corrupted_frames);
                }
            }
            for f in &g.failovers {
                failover_ms.push((f.detection_latency + f.suffix_replay).as_nanos() as f64 / 1e6);
                if f.detection_latency == SimTime::ZERO {
                    add("sim.group.zero_detection_failovers", 1);
                }
            }
        }
        let sent = counts.get("netsim.lossy.messages").copied().unwrap_or(0.0);
        let resent = counts.get("netsim.lossy.retransmits").copied().unwrap_or(0.0);
        counts.insert(
            "netsim.lossy.useful_ratio",
            if sent > 0.0 { (sent - resent) / sent } else { 0.0 },
        );
        counts.insert("sim.group.failover_ms_p50", median(&failover_ms));
        counts.insert("sim.group.failover_ms_max", failover_ms.iter().copied().fold(0.0, f64::max));
        counts.insert("sim.group.failover_samples", failover_ms.len() as f64);
        counts.entry("sim.group.zero_detection_failovers").or_insert(0.0);
        for (k, v) in counts {
            push(&mut p.layer, k, v);
        }
        push(&mut p.layer, "vm.interp.solo_ms", p.solo_ns as f64 / 1e6);
        push(&mut p.layer, "vm.interp.instructions", p.solo_instr as f64);
        p
    }
}

impl Workload for GroupFaults {
    fn pass(&self, tr: &mut Tracer, next_op: &mut u64) -> Pass {
        self.pass_with(tr, next_op, true)
    }

    fn split(&self, tr: &mut Tracer, next_op: &mut u64, out: &mut Samples) -> Result<(), String> {
        // The reliability sublayer: the same pass on its armed plans minus
        // the pass with every link unarmed.
        let armed = self.pass_with(tr, next_op, true);
        let unarmed = self.pass_with(tr, next_op, false);
        if armed.tally.failed + unarmed.tally.failed > 0 || !armed.checks_ok || !unarmed.checks_ok {
            return Err("group pass failed during the lossy split".into());
        }
        push(out, "netsim.lossy.armed_ms", armed.rep_ns as f64 / 1e6);
        push(out, "netsim.lossy.unarmed_ms", unarmed.rep_ns as f64 / 1e6);
        let jobs: Vec<Job> = self.members.iter().map(|m| m.job.clone()).collect();
        pair_split(tr, next_op, &jobs, out)?;
        let db = jobs.last().ok_or("no group programs")?;
        codec_split(tr, next_op, db, self.threads, out)?;
        snapshot_split(tr, next_op, &jobs, out)
    }

    fn span_metrics(&self, spans: &[Span], out: &mut BTreeMap<&'static str, f64>) {
        for (span, p50, tl, pct, n) in [
            (
                STEP_SPAN,
                "core.group.step_ms_p50",
                "core.group.step_ms_tail",
                "core.group.step_tail_pct",
                "core.group.step_samples",
            ),
            (
                TAKEOVER_SPAN,
                "core.group.takeover_ms_p50",
                "core.group.takeover_ms_tail",
                "core.group.takeover_tail_pct",
                "core.group.takeover_samples",
            ),
        ] {
            let ms: Vec<f64> = durations(spans, span).iter().map(|ns| ns / 1e6).collect();
            let (q, v) = tail(&ms);
            out.insert(p50, median(&ms));
            out.insert(tl, v);
            out.insert(pct, q);
            out.insert(n, ms.len() as f64);
        }
    }
}
