//! In-memory span recorder and the statistics the layer split is built on.
//!
//! A span is one timed call from the benchmark into a layer's public
//! function: name, start, end, parent span and the id of the operation it
//! belongs to. Spans stay in memory while the run measures and are written
//! out once, when it ends. With tracing off, [`Tracer::span`] only calls its
//! closure.

use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call this span times, e.g. `core.primary.run_to_log`.
    pub name: &'static str,
    /// Operation the call belongs to (one replicated run, one group run,
    /// one fleet pass, one split repetition of one program).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for operation `op`. Spans opened
    /// inside `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        self.timed(name, op, f).0
    }

    /// Like [`Tracer::span`], and also returns the call's wall-clock time
    /// in nanoseconds, measured whether or not tracing is on.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, u64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        if self.enabled {
            let parent = self.open.last().copied();
            self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
            self.open.push(idx);
        }
        let out = f(self);
        let end_ns = self.now_ns();
        if self.enabled {
            self.open.pop();
            self.spans[idx].end_ns = end_ns;
        }
        (out, end_ns - start_ns)
    }

    /// Renames the most recently opened span (e.g. a group step that turned
    /// out to be a takeover).
    pub fn relabel_last(&mut self, name: &'static str) {
        if let Some(s) = self.spans.last_mut() {
            s.name = name;
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines (`id name op parent start_ns
    /// end_ns self_ns`) to `path`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\top\tparent\tstart_ns\tend_ns\tself_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                s.name, s.op, s.start_ns, s.end_ns, selfs[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Sum of the durations of the spans named `name` that belong to `op`.
pub fn op_ns(spans: &[Span], name: &str, op: u64) -> u64 {
    spans.iter().filter(|s| s.name == name && s.op == op).map(Span::dur_ns).sum()
}

/// Durations of every span named `name`, in nanoseconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest of the percentiles 99.9, 99, 90 and 50 that has at least
/// ten samples beyond it, with its value: `(percentile, value)`. With
/// fewer than twenty samples no percentile qualifies and the maximum is
/// returned as percentile 100.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    for p in [99.9, 99.0, 90.0, 50.0] {
        // Samples strictly beyond the nearest-rank percentile.
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return (p, s[rank - 1]);
        }
    }
    (100.0, s.last().copied().unwrap_or(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, op: 1, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): children [10,30) and [20,50) overlap -> 40 covered,
        // plus [60,70) -> 50 covered in total. The grandchild [12,15) sits
        // inside child 1 and is not subtracted from the root again.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),
            span("c", Some(0), 60, 70),
            span("a.inner", Some(1), 12, 15),
        ];
        assert_eq!(self_times(&spans), vec![50, 17, 30, 10, 3]);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        let spans = vec![span("leaf", None, 5, 9)];
        assert_eq!(self_times(&spans), vec![4]);
    }

    #[test]
    fn tracer_records_parents_and_nothing_when_off() {
        let mut t = Tracer::new(true);
        t.span("outer", 7, |t| t.span("inner", 7, |_| ()));
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].start_ns <= t.spans()[1].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);
        let self_ns = self_times(t.spans());
        assert_eq!(self_ns[0], t.spans()[0].dur_ns() - t.spans()[1].dur_ns());
        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 1, |_| 3), 3);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), (100.0, 19.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 10.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
