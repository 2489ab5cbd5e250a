//! Host-cost benchmark of the fault-tolerant JVM.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <spec_pairs|group_faults|fleet_trunk> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Everything runs in one process, through the public APIs of `ftjvm-vm`,
//! `ftjvm-core` and `ftjvm-netsim`; nothing inside the crates is changed.
//! All inputs derive from `--seed`. A run sets its workload up several
//! times (`setup_s` is the median), then repeats *passes* of the workload
//! for `--seconds`, checking every operation's output. A pass has two
//! phases on one thread (the fleet's scheduler uses `nproc` workers):
//!
//! * the *solo* phase runs each program of the pass unreplicated (the
//!   reference every replicated console is compared with);
//! * the *replicated* phase runs the workload's operations: replicated
//!   runs, group runs, or one fleet of slots.
//!
//! End-to-end metrics (`--trace 0`) are medians over the passes:
//! `solo_minstr_s` is guest instructions per host second of the solo phase
//! and `pair_minstr_s` of the replicated phase, counting each replicated
//! run as its program's unreplicated instruction count; `runs_s` is
//! operations per host second of the replicated phase; `req_s` is client
//! requests served per host second of it (an output commit serves one
//! request; the fleet counts the requests its router matched);
//! `peak_rss_mb` is the process's peak resident memory, less the
//! calibration kernel's heap. Host seconds are scaled to a nominal host
//! speed by a calibration kernel run between passes (see `calib`); the
//! unscaled medians are printed on the line before the result. The default
//! seed 0 runs `fleet_trunk` at the fleet seed of `BENCH_fleet.json`'s
//! `full` scenario and checks its committed correctness counts.
//!
//! The benchmark's own tests: `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.
//!
//! `--trace 1` alternates untraced and traced passes (their wall-time
//! ratio is `trace.overhead_x`), then repeats the layer split, and prints
//! the per-layer metrics: medians over the traced passes and the split
//! repetitions, in unscaled host time, 0 for a layer the workload never
//! reaches. Spans are written, once the run ends, to
//! `perfbench/trace/<workload>-seed<n>.tsv`.

mod calib;
mod check;
mod fleet;
mod group;
mod layers;
mod metrics;
mod spec;
mod trace;

use check::Tally;
use layers::{pair_residual_ms, Samples};
use metrics::{Report, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{median, Span, Tracer};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: &[&str] = &["spec_pairs", "group_faults", "fleet_trunk"];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest passes an untraced run measures, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Derives an independent seed for `(workload, stream)` from the
/// benchmark seed.
pub fn mix(seed: u64, workload: u32, stream: u32) -> u64 {
    ftjvm_core::split_seed(seed, workload, stream)
}

/// What one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// False when a check outside single operations failed.
    pub checks_ok: bool,
    /// Host nanoseconds of the solo phase.
    pub solo_ns: u64,
    /// Guest instructions the solo phase executed.
    pub solo_instr: u64,
    /// Host nanoseconds of the replicated phase.
    pub rep_ns: u64,
    /// Guest instructions the replicated phase completed.
    pub rep_instr: u64,
    /// Operations of the replicated phase.
    pub runs: u64,
    /// Client requests the replicated phase served.
    pub requests: u64,
    /// Per-layer samples (counts and model outputs) of this pass.
    pub layer: Samples,
}

impl Default for Pass {
    fn default() -> Self {
        Pass {
            tally: Tally::default(),
            checks_ok: true,
            solo_ns: 0,
            solo_instr: 0,
            rep_ns: 0,
            rep_instr: 0,
            runs: 0,
            requests: 0,
            layer: Samples::new(),
        }
    }
}

impl Pass {
    fn end_to_end(&self) -> [(&'static str, f64); 4] {
        let per_s = |n: f64, ns: u64| n / (ns.max(1) as f64 / 1e9);
        [
            ("solo_minstr_s", per_s(self.solo_instr as f64 / 1e6, self.solo_ns)),
            ("pair_minstr_s", per_s(self.rep_instr as f64 / 1e6, self.rep_ns)),
            ("runs_s", per_s(self.runs as f64, self.rep_ns)),
            ("req_s", per_s(self.requests as f64, self.rep_ns)),
        ]
    }
}

/// A prepared workload.
pub trait Workload {
    /// One pass: solo phase, then the replicated phase, every output
    /// checked.
    fn pass(&self, tr: &mut Tracer, next_op: &mut u64) -> Pass;
    /// One repetition of the layer split, pushing per-layer samples.
    ///
    /// # Errors
    /// Describes a layer call that failed.
    fn split(&self, tr: &mut Tracer, next_op: &mut u64, out: &mut Samples) -> Result<(), String>;
    /// Threads the replicated phase runs on.
    fn threads(&self) -> usize {
        1
    }
    /// Per-layer metrics read from the traced passes' spans.
    fn span_metrics(&self, _spans: &[Span], _out: &mut BTreeMap<&'static str, f64>) {}
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn setup(name: &str, seed: u64, threads: usize) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "spec_pairs" => Box::new(spec::setup(seed, threads)?),
        "group_faults" => Box::new(group::setup(seed, threads)?),
        _ => Box::new(fleet::setup(seed, threads)?),
    })
}

/// Peak resident set of this process, in MB (`VmHWM`), calibration heap
/// included.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one pass, counting its operations into `report`; returns it with
/// its wall time in nanoseconds.
fn timed_pass(
    w: &dyn Workload,
    tr: &mut Tracer,
    next_op: &mut u64,
    report: &mut Report,
) -> (Pass, u64) {
    let t = Instant::now();
    let p = w.pass(tr, next_op);
    let wall = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    report.attempted += p.tally.attempted;
    report.failed += p.tally.failed;
    report.checks_ok &= p.checks_ok;
    (p, wall)
}

fn run(a: &Args) -> Result<Report, String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    // Each set-up and each pass is bracketed by calibration kernels; its
    // time is scaled by the mean of the two (see `calib`).
    let mut cal = calib::Calibration::new();
    let (mut setup_s, mut setup_raw) = (Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        prepared = Some(setup(&a.workload, a.seed, threads)?);
        let raw = t.elapsed().as_secs_f64();
        setup_raw.push(raw);
        setup_s.push(raw / cal.bracket().0);
    }
    let w = prepared.ok_or("no set-up")?;
    cal.set_threads(w.threads());
    let mut report = Report { checks_ok: true, ..Report::default() };
    let mut next_op = 0u64;
    let mut off = Tracer::new(false);
    // One warm-up pass lets caches fill and lazy set-up finish; its
    // outputs are checked, its times are not used.
    timed_pass(w.as_ref(), &mut off, &mut next_op, &mut report);
    if !a.trace {
        let start = Instant::now();
        let (mut scaled, mut raw, mut passes) = (Vec::new(), Vec::new(), 0);
        cal.bracket();
        while passes < MIN_PASSES || start.elapsed().as_secs_f64() < a.seconds {
            passes += 1;
            let (p, _) = timed_pass(w.as_ref(), &mut off, &mut next_op, &mut report);
            // The solo phase runs on one thread, the replicated phase on
            // the workload's threads.
            let (one, many) = cal.bracket();
            for (name, v) in p.end_to_end() {
                raw.push((name, v));
                scaled.push((name, v * if name == "solo_minstr_s" { one } else { many }));
            }
        }
        let med = |all: &[(&str, f64)], name: &str| {
            median(&all.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v).collect::<Vec<_>>())
        };
        let mut note = format!(
            "host kernel median {:.2} ms (nominal {:.0} ms); unscaled medians: setup_s {:.4}",
            cal.median_ms(),
            calib::NOMINAL_S * 1e3,
            median(&setup_raw)
        );
        for name in ["solo_minstr_s", "pair_minstr_s", "runs_s", "req_s"] {
            report.values.insert(name, med(&scaled, name));
            note += &format!(", {name} {:.4}", med(&raw, name));
        }
        println!("{note}");
        report.values.insert("setup_s", median(&setup_s));
        report.values.insert("peak_rss_mb", peak_rss_mb() - cal.resident_mb());
        return Ok(report);
    }

    // Untraced and traced passes alternate for two fifths of the time, so
    // drift in the host's speed reaches both sides of trace.overhead_x.
    let mut tr = Tracer::new(true);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.len() < 2 || start.elapsed().as_secs_f64() < a.seconds * 0.4 {
        cal.bracket();
        // Swap the order each round, so neither side always runs first
        // after the kernel has flushed the caches.
        if traced.len() % 2 == 0 {
            untraced.push(timed_pass(w.as_ref(), &mut off, &mut next_op, &mut report));
            traced.push(timed_pass(w.as_ref(), &mut tr, &mut next_op, &mut report));
        } else {
            traced.push(timed_pass(w.as_ref(), &mut tr, &mut next_op, &mut report));
            untraced.push(timed_pass(w.as_ref(), &mut off, &mut next_op, &mut report));
        }
    }
    let traced_spans = tr.spans().len();
    // The layer split for the rest of the time, at least once.
    let start = Instant::now();
    let mut split = Samples::new();
    while split.is_empty() || start.elapsed().as_secs_f64() < a.seconds * 0.6 {
        if let Err(e) = w.split(&mut tr, &mut next_op, &mut split) {
            eprintln!("perfbench: layer split failed: {e}");
            report.checks_ok = false;
            break;
        }
    }

    let values = &mut report.values;
    for (name, _) in PER_LAYER {
        values.insert(name, 0.0);
    }
    let mut traced_layer = Samples::new();
    for (p, _) in &traced {
        for (k, v) in &p.layer {
            traced_layer.entry(k).or_default().extend(v);
        }
    }
    for (k, v) in traced_layer.iter().chain(split.iter()) {
        if let Some(slot) = values.get_mut(k) {
            *slot = median(v);
        }
    }
    if split.contains_key("core.pair.hot_ms") {
        let med = |k: &str| split.get(k).map_or(0.0, |v| median(v));
        values.insert("core.pair.residual_ms", pair_residual_ms(&med));
    }
    derive_from_bases(values);
    w.span_metrics(&tr.spans()[..traced_spans], values);
    let wall =
        |ps: &[(Pass, u64)]| median(&ps.iter().map(|(_, w)| *w as f64 / 1e6).collect::<Vec<_>>());
    let (on, off_ms) = (wall(&traced), wall(&untraced));
    values.insert("trace.traced_pass_ms", on);
    values.insert("trace.untraced_pass_ms", off_ms);
    values.insert("trace.overhead_x", on / off_ms.max(1e-9));
    values.insert("trace.spans", tr.spans().len() as f64);
    values.insert("host.kernel_ms", cal.median_ms());
    print_layer_notes(values, &split);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("trace")
        .join(format!("{}-seed{}.tsv", a.workload, a.seed));
    if let Err(e) = tr.write_tsv(&path) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    Ok(report)
}

/// Differences and ratios are taken between the medians of their bases,
/// so each printed value follows from the printed bases.
fn derive_from_bases(v: &mut BTreeMap<&'static str, f64>) {
    let pairs: [(&str, &str, &str, bool); 6] = [
        ("netsim.lossy.host_ms", "netsim.lossy.armed_ms", "netsim.lossy.unarmed_ms", false),
        ("netsim.shared.host_ms", "netsim.shared.wall_ms", "netsim.shared.unshared_wall_ms", false),
        (
            "netsim.shared.wall_ratio",
            "netsim.shared.wall_ms",
            "netsim.shared.unshared_wall_ms",
            true,
        ),
        ("core.parallel.scaling", "core.parallel.serial_ms", "core.parallel.threaded_ms", true),
        (
            "core.codec.pipelined_x",
            "core.codec.pipelined_1t_ms",
            "core.codec.pipelined_nt_ms",
            true,
        ),
        (
            "core.codec.pipelined_compact_x",
            "core.codec.pipelined_compact_1t_ms",
            "core.codec.pipelined_compact_nt_ms",
            true,
        ),
    ];
    for (out, a, b, ratio) in pairs {
        let (a, b) = (v.get(a).copied().unwrap_or(0.0), v.get(b).copied().unwrap_or(0.0));
        if b > 0.0 {
            let x = if ratio { a / b } else { a - b };
            v.insert(out, x);
        }
    }
}

/// Human-readable lines before the result: every ratio with its bases and
/// the hot-pair residual.
fn print_layer_notes(v: &BTreeMap<&'static str, f64>, split: &Samples) {
    let g = |k: &str| v.get(k).copied().unwrap_or(0.0);
    println!(
        "trace overhead {:.3}x = traced pass {:.1} ms / untraced pass {:.1} ms",
        g("trace.overhead_x"),
        g("trace.traced_pass_ms"),
        g("trace.untraced_pass_ms")
    );
    if split.contains_key("core.pair.hot_ms") {
        let s = |k: &str| split.get(k).map_or(0.0, |x| median(x));
        println!(
            "hot pair {:.1} ms = 2 x interp {:.1} + primary {:.1} + decode {:.1} + backup {:.1} + pair task {:.1} + residual {:.1} ms",
            g("core.pair.hot_ms"),
            s("split.solo_ms"),
            g("core.primary.self_ms"),
            s("split.decode_ms"),
            g("core.backup.self_ms"),
            g("core.pair.drive_ms"),
            g("core.pair.residual_ms")
        );
        println!(
            "pipelined decode ({} threads): Fixed {:.2}x = {:.2} ms / {:.2} ms over {} frames; Compact {:.2}x = {:.2} ms / {:.2} ms over {} frames",
            g("core.codec.threads"),
            g("core.codec.pipelined_x"),
            g("core.codec.pipelined_1t_ms"),
            g("core.codec.pipelined_nt_ms"),
            g("core.codec.pipelined_frames"),
            g("core.codec.pipelined_compact_x"),
            g("core.codec.pipelined_compact_1t_ms"),
            g("core.codec.pipelined_compact_nt_ms"),
            g("core.codec.pipelined_compact_frames")
        );
    }
    if split.contains_key("netsim.lossy.armed_ms") {
        println!(
            "lossy link {:.1} ms = armed {:.1} ms - unarmed {:.1} ms; useful sends {:.3} = (messages - retransmits) / messages = ({} - {}) / {}",
            g("netsim.lossy.host_ms"),
            g("netsim.lossy.armed_ms"),
            g("netsim.lossy.unarmed_ms"),
            g("netsim.lossy.useful_ratio"),
            g("netsim.lossy.messages"),
            g("netsim.lossy.retransmits"),
            g("netsim.lossy.messages")
        );
    }
    if split.contains_key("netsim.shared.wall_ms") {
        println!(
            "trunk {:.1} ms, ratio {:.3}x = shared {:.1} ms / unshared {:.1} ms; pool scaling {:.3}x = 1 thread {:.1} ms / {} threads {:.1} ms",
            g("netsim.shared.host_ms"),
            g("netsim.shared.wall_ratio"),
            g("netsim.shared.wall_ms"),
            g("netsim.shared.unshared_wall_ms"),
            g("core.parallel.scaling"),
            g("core.parallel.serial_ms"),
            g("core.parallel.threads"),
            g("core.parallel.threaded_ms")
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let line = run(&args).and_then(|r| r.to_json(catalogue));
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
