//! `fleet_trunk`: `run_fleet` with 512 slots, rack 5 partitioned, the
//! default shared trunk and fault draws, scheduled on `threads = nproc`
//! workers (the `full` scenario of `BENCH_fleet.json`). The only workload
//! that reaches the trunk calendar and the windowed pool's barriers; the
//! journal programs are small, so the interpreter does little.

use crate::check::Tally;
use crate::layers::{codec_split, pair_split, push, snapshot_split, Job, Samples, SOLO};
use crate::trace::Tracer;
use crate::{mix, Pass, Workload};
use ftjvm_core::fleet::journal_program;
use ftjvm_core::{run_fleet, FleetConfig, FleetReport, FtJvm, LagBudget, PairPlan};
use ftjvm_netsim::FaultPlan;
use ftjvm_vm::Program;
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::Arc;

const SEED_TAG: u32 = 3;
/// Slot programs the pair, codec and snapshot splits run (the first ones).
const SAMPLE: usize = 16;

/// `BENCH_fleet.json`'s `full` scenario at its fleet seed: completed,
/// divergent, lost, failovers absorbed, served and total requests.
const FULL_SEED: u64 = 0xF1EE7;
const FULL_COUNTS: [u64; 6] = [512, 0, 8, 66, 65212, 65665];

struct Slot {
    harness: FtJvm,
    expected: Vec<String>,
    instructions: u64,
}

/// The prepared workload.
pub struct FleetTrunk {
    cfg: FleetConfig,
    slots: Vec<Slot>,
    sample: Vec<Job>,
}

/// The fleet seed for a benchmark seed: the default seed 0 gives the
/// committed `full` scenario's seed.
pub fn fleet_seed(seed: u64) -> u64 {
    if seed == 0 {
        FULL_SEED
    } else {
        mix(seed, SEED_TAG, 0)
    }
}

/// Derives the fleet configuration and every slot plan, builds the slot
/// programs and runs each distinct one once unreplicated (instruction
/// count).
pub fn setup(seed: u64, threads: usize) -> Result<FleetTrunk, String> {
    let cfg = FleetConfig {
        pairs: 512,
        seed: fleet_seed(seed),
        partition_rack: Some(5),
        threads,
        ..FleetConfig::default()
    };
    let mut programs: BTreeMap<u64, (Arc<Program>, u64)> = BTreeMap::new();
    let mut slots = Vec::new();
    let mut sample = Vec::new();
    for id in 0..cfg.pairs {
        let plan = PairPlan::derive(&cfg, id);
        let ft = plan.ft_config(&cfg);
        let (program, instructions) = match programs.entry(plan.requests) {
            Entry::Occupied(e) => e.get().clone(),
            Entry::Vacant(e) => {
                let program = journal_program(plan.requests as i64).map_err(|e| e.to_string())?;
                let (report, _) = FtJvm::new(program.clone(), ft.clone())
                    .run_unreplicated()
                    .map_err(|e| format!("journal({}) probe: {e}", plan.requests))?;
                e.insert((program, report.counters.instructions)).clone()
            }
        };
        if sample.len() < SAMPLE {
            sample.push(Job {
                name: format!("slot {id} journal({})", plan.requests),
                program: program.clone(),
                cfg: ftjvm_core::FtConfig {
                    lag_budget: LagBudget::Cold,
                    fault: FaultPlan::None,
                    checkpoint_interval: None,
                    ..ft.clone()
                },
                instructions,
            });
        }
        slots.push(Slot {
            harness: FtJvm::new(program, ft),
            expected: plan.expected_console(),
            instructions,
        });
    }
    Ok(FleetTrunk { cfg, slots, sample })
}

fn fleet_counts(r: &FleetReport) -> [u64; 6] {
    [
        u64::from(r.completed),
        u64::from(r.divergent),
        u64::from(r.lost),
        u64::from(r.failovers_absorbed),
        r.served_requests,
        r.total_requests,
    ]
}

impl FleetTrunk {
    fn run(
        &self,
        tr: &mut Tracer,
        op: u64,
        name: &'static str,
        cfg: &FleetConfig,
    ) -> Result<(FleetReport, u64), String> {
        let (r, ns) = tr.timed(name, op, |_| run_fleet(cfg));
        r.map(|r| (r, ns)).map_err(|e| format!("{name}: {e}"))
    }
}

impl Workload for FleetTrunk {
    fn threads(&self) -> usize {
        self.cfg.threads
    }

    fn pass(&self, tr: &mut Tracer, next_op: &mut u64) -> Pass {
        let mut p = Pass::default();
        let op = *next_op;
        *next_op += 1;
        for slot in &self.slots {
            let (solo, ns) = tr.timed(SOLO, op, |_| slot.harness.run_unreplicated());
            p.solo_ns += ns;
            match solo {
                Ok((report, world)) if world.borrow().console_texts() == slot.expected => {
                    p.solo_instr += report.counters.instructions;
                }
                other => {
                    eprintln!("perfbench: slot program unreplicated run wrong: {:?}", other.err());
                    p.checks_ok = false;
                }
            }
        }
        match self.run(tr, op, "core.fleet.run_fleet", &self.cfg) {
            Ok((r, ns)) => {
                p.rep_ns = ns;
                p.tally.record_fleet(&r);
                if self.cfg.seed == FULL_SEED && fleet_counts(&r) != FULL_COUNTS {
                    eprintln!(
                        "perfbench: fleet counts {:?} differ from the committed full scenario {FULL_COUNTS:?}",
                        fleet_counts(&r)
                    );
                    p.checks_ok = false;
                }
                p.runs = u64::from(r.pairs);
                p.rep_instr = self.slots.iter().map(|s| s.instructions).sum();
                p.requests = r.served_requests;
                let l = &mut p.layer;
                push(l, "core.fleet.completed", f64::from(r.completed));
                push(l, "core.fleet.lost", f64::from(r.lost));
                push(l, "core.fleet.failovers_absorbed", f64::from(r.failovers_absorbed));
                push(l, "core.fleet.reintegrated", f64::from(r.reintegrated));
                let shared = r.shared.unwrap_or_default();
                push(l, "netsim.shared.frames", shared.frames as f64);
                push(l, "netsim.shared.bytes", shared.bytes as f64);
                push(l, "netsim.shared.merged_intervals", r.pool.merged_intervals as f64);
                push(l, "core.parallel.threads", r.pool.threads as f64);
                push(l, "core.parallel.windows", r.pool.windows as f64);
                push(l, "core.parallel.barrier_waits", r.pool.barrier_waits as f64);
                push(l, "sim.fleet.commit_p50_us", r.commit_p50.as_nanos() as f64 / 1e3);
                push(l, "sim.fleet.commit_p99_us", r.commit_p99.as_nanos() as f64 / 1e3);
                let makespan = r.makespan.as_nanos() as f64;
                push(l, "sim.fleet.trunk_util", shared.busy.as_nanos() as f64 / makespan.max(1.0));
                push(l, "sim.fleet.backlog_peak", r.backlog_peak as f64);
                push(l, "sim.fleet.makespan_ms", makespan / 1e6);
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                p.tally.add(Tally {
                    attempted: u64::from(self.cfg.pairs),
                    failed: u64::from(self.cfg.pairs),
                });
            }
        }
        push(&mut p.layer, "vm.interp.solo_ms", p.solo_ns as f64 / 1e6);
        push(&mut p.layer, "vm.interp.instructions", p.solo_instr as f64);
        p
    }

    fn split(&self, tr: &mut Tracer, next_op: &mut u64, out: &mut Samples) -> Result<(), String> {
        let op = *next_op;
        *next_op += 1;
        // Three runs back to back: as configured, without the trunk, and
        // on one worker thread.
        let (shared, shared_ns) = self.run(tr, op, "core.fleet.run_fleet", &self.cfg)?;
        let unshared_cfg = FleetConfig { shared_per_byte: None, ..self.cfg.clone() };
        let (unshared, unshared_ns) =
            self.run(tr, op, "core.fleet.run_fleet_unshared", &unshared_cfg)?;
        let serial_cfg = FleetConfig { threads: 1, ..self.cfg.clone() };
        let (serial, serial_ns) = self.run(tr, op, "core.fleet.run_fleet_serial", &serial_cfg)?;
        if fleet_counts(&serial) != fleet_counts(&shared) || !unshared.all_verified() {
            return Err("fleet results changed across the trunk or thread split".into());
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        push(out, "netsim.shared.wall_ms", ms(shared_ns));
        push(out, "netsim.shared.unshared_wall_ms", ms(unshared_ns));
        push(out, "core.parallel.serial_ms", ms(serial_ns));
        push(out, "core.parallel.threaded_ms", ms(shared_ns));
        pair_split(tr, next_op, &self.sample, out)?;
        let largest =
            self.sample.iter().max_by_key(|j| j.instructions).ok_or("no sampled slots")?;
        codec_split(tr, next_op, largest, self.cfg.threads, out)?;
        snapshot_split(tr, next_op, &self.sample, out)
    }
}
