//! `spec_pairs`: the paper's own scenario. Each pass runs the six SPEC
//! analogs unreplicated, as a failure-free hot pair for lock-sync/Fixed
//! and for thread-sched/Compact, and as a cold full-log replay for
//! lock-sync/Fixed (the Figure 2 setup). No faults, trunk, pool or
//! snapshots: the interpreter, coordinator, record codec and replay
//! enforcement do nearly all the work.

use crate::check::Outcome;
use crate::layers::{codec_split, pair_split, push, snapshot_split, Job, Samples, SOLO};
use crate::trace::Tracer;
use crate::{mix, Pass, Workload};
use ftjvm_bench::bench_config;
use ftjvm_core::{FtConfig, FtJvm, LagBudget, PairReport, ReplicationMode, WireCodec};
use ftjvm_vm::VmError;

const SEED_TAG: u32 = 1;

struct Analog {
    job: Job,
    ts: FtConfig,
    reference: Vec<String>,
    base: ftjvm_netsim::SimTime,
}

/// The prepared workload.
pub struct SpecPairs {
    analogs: Vec<Analog>,
    threads: usize,
}

/// Builds the six analogs, derives their seeded configurations and runs
/// each once unreplicated (reference console and instruction count).
pub fn setup(seed: u64, threads: usize) -> Result<SpecPairs, String> {
    let mut analogs = Vec::new();
    for (i, w) in ftjvm_workloads::spec_suite().into_iter().enumerate() {
        let s = |k: u32| mix(seed, SEED_TAG, i as u32 * 8 + k);
        let seeded = |mode| FtConfig {
            primary_seed: s(0),
            backup_seed: s(1),
            primary_env_seed: s(2),
            backup_env_seed: s(3),
            ..bench_config(mode)
        };
        let lock = seeded(ReplicationMode::LockSync);
        let ts = FtConfig {
            lag_budget: LagBudget::Hot,
            codec: WireCodec::Compact,
            ..seeded(ReplicationMode::ThreadSched)
        };
        let (report, world) = FtJvm::new(w.program.clone(), lock.clone())
            .run_unreplicated()
            .map_err(|e| format!("{} probe: {e}", w.name))?;
        let reference = world.borrow().console_texts();
        analogs.push(Analog {
            job: Job {
                name: w.name.to_string(),
                program: w.program,
                cfg: lock,
                instructions: report.counters.instructions,
            },
            ts,
            reference,
            base: report.acct.total(),
        });
    }
    Ok(SpecPairs { analogs, threads })
}

fn outcome<'a>(r: &Result<PairReport, VmError>, reference: &'a [String]) -> Outcome<'a> {
    match r {
        Ok(p) => Outcome {
            console: p.console(),
            reference,
            duplicate: p.check_no_duplicate_outputs().err(),
            completed: true,
            error: None,
        },
        Err(e) => Outcome { error: Some(e.to_string()), reference, ..Outcome::default() },
    }
}

fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len().max(1) as f64).exp()
}

impl Workload for SpecPairs {
    fn pass(&self, tr: &mut Tracer, next_op: &mut u64) -> Pass {
        let mut p = Pass::default();
        let (mut lock_x, mut ts_x) = (Vec::new(), Vec::new());
        for a in &self.analogs {
            let op = *next_op;
            *next_op += 1;
            let harness = FtJvm::new(a.job.program.clone(), a.job.cfg.clone());
            let (solo, ns) = tr.timed(SOLO, op, |_| harness.run_unreplicated());
            p.solo_ns += ns;
            match solo {
                Ok((report, world)) => {
                    p.solo_instr += report.counters.instructions;
                    if world.borrow().console_texts() != a.reference {
                        eprintln!("perfbench: {} unreplicated console changed", a.job.name);
                        p.checks_ok = false;
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {} unreplicated run: {e}", a.job.name);
                    p.checks_ok = false;
                }
            }
            let hot_lock = FtJvm::new(
                a.job.program.clone(),
                FtConfig { lag_budget: LagBudget::Hot, ..a.job.cfg.clone() },
            );
            let hot_ts = FtJvm::new(a.job.program.clone(), a.ts.clone());
            for (what, span) in [
                ("hot lock-sync/Fixed", "core.pair.run_replicated_hot"),
                ("hot thread-sched/Compact", "core.pair.run_replicated_hot_ts"),
                ("cold replay lock-sync/Fixed", "core.pair.run_backup_replay"),
            ] {
                let (r, ns) = tr.timed(span, op, |_| match what {
                    "hot lock-sync/Fixed" => hot_lock.run_replicated(),
                    "hot thread-sched/Compact" => hot_ts.run_replicated(),
                    _ => harness.run_backup_replay(),
                });
                p.rep_ns += ns;
                p.tally.record(&format!("{} {what}", a.job.name), &outcome(&r, &a.reference));
                p.runs += 1;
                p.rep_instr += a.job.instructions;
                if let Ok(r) = &r {
                    p.requests += r.primary_stats.output_commits;
                    let x = r.primary.acct.normalized_to(a.base);
                    match what {
                        "hot thread-sched/Compact" => ts_x.push(x),
                        "cold replay lock-sync/Fixed" => lock_x.push(x),
                        _ => {}
                    }
                }
            }
        }
        push(&mut p.layer, "vm.interp.solo_ms", p.solo_ns as f64 / 1e6);
        push(&mut p.layer, "vm.interp.instructions", p.solo_instr as f64);
        push(&mut p.layer, "sim.pair.lock_overhead_x", geomean(&lock_x));
        push(&mut p.layer, "sim.pair.ts_overhead_x", geomean(&ts_x));
        p
    }

    fn split(&self, tr: &mut Tracer, next_op: &mut u64, out: &mut Samples) -> Result<(), String> {
        let jobs: Vec<Job> = self.analogs.iter().map(|a| a.job.clone()).collect();
        pair_split(tr, next_op, &jobs, out)?;
        let db = jobs.iter().find(|j| j.name == "db").ok_or("db analog missing")?;
        codec_split(tr, next_op, db, self.threads, out)?;
        snapshot_split(tr, next_op, &jobs, out)
    }
}
