//! Host-speed calibration.
//!
//! The benchmark shares its machine with other tenants, and the speed the
//! machine gives it drifts by a third within minutes. A fixed kernel —
//! this file's own code, which no change to the repository's crates can
//! touch — runs between passes, and end-to-end times are scaled by how
//! long it took against its nominal time: a moment when the host is slow
//! slows kernel and workload alike, and the ratio cancels it.
//!
//! The kernel is a chain of dependent random read-modify-writes over a
//! 32 MiB heap: memory latency and bandwidth are what neighbours on a
//! shared host contend for, and what the replicated runs (large logs,
//! garbage-collected heaps) lean on most. Work that runs on several
//! threads is scaled by the kernel run on as many threads at once, one
//! slice of the heap each: a worker pool that meets at barriers feels a
//! busy sibling core, which a one-thread kernel cannot see.

use std::hint::black_box;
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

/// The kernel's nominal wall time in seconds, at any thread count; scaled
/// values are expressed in host seconds of a machine on which the kernel
/// takes exactly this.
pub const NOMINAL_S: f64 = 0.06;

const HEAP_WORDS: usize = 1 << 22;
/// Steps each kernel thread runs.
const STEPS: usize = 3_000_000;

fn chase(heap: &mut [u64], seed: u64) {
    let words = heap.len();
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ seed;
    let mut acc = 0u64;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let a = (x as usize) % words;
        acc = acc.wrapping_add(heap[a]);
        heap[(a + i) % words] = acc ^ x;
    }
    black_box(acc);
}

/// A kernel thread that lives for the whole run, so that spawning threads
/// between passes does not change how the allocator spreads the
/// workload's own threads over its arenas (and so the peak resident set).
struct Helper {
    go: Option<mpsc::Sender<u64>>,
    done: mpsc::Receiver<()>,
    handle: Option<thread::JoinHandle<()>>,
}

impl Helper {
    fn spawn(words: usize) -> Helper {
        let (go, work) = mpsc::channel::<u64>();
        let (finished, done) = mpsc::channel();
        let handle = thread::spawn(move || {
            let mut heap = vec![1u64; words];
            while let Ok(seed) = work.recv() {
                chase(&mut heap, seed);
                if finished.send(()).is_err() {
                    break;
                }
            }
        });
        Helper { go: Some(go), done, handle: Some(handle) }
    }
}

/// Kernel times measured through one run, at one thread and at the
/// thread count of the workload's replicated phase.
pub struct Calibration {
    heap: Vec<u64>,
    helpers: Vec<Helper>,
    one: Vec<f64>,
    many: Vec<f64>,
}

impl Calibration {
    /// Allocates and touches the heap and runs the kernel once.
    pub fn new() -> Self {
        let mut c = Calibration {
            heap: vec![1; HEAP_WORDS],
            helpers: Vec::new(),
            one: Vec::new(),
            many: Vec::new(),
        };
        c.bracket();
        c
    }

    /// Scales work on `threads` threads from now on; call once.
    pub fn set_threads(&mut self, threads: usize) {
        let share = HEAP_WORDS / threads.max(1);
        self.helpers = (1..threads).map(|_| Helper::spawn(share)).collect();
        self.many.clear();
        self.bracket();
    }

    /// Resident size of the kernel heaps in MB. They are allocated and
    /// touched once and stay resident for the whole run, so the process's
    /// peak resident set is the workload's peak plus exactly this.
    pub fn resident_mb(&self) -> f64 {
        let share = HEAP_WORDS / (self.helpers.len() + 1);
        ((HEAP_WORDS + self.helpers.len() * share) * 8) as f64 / (1024.0 * 1024.0)
    }

    fn run_s(&mut self, parallel: bool) -> f64 {
        let start = Instant::now();
        if parallel {
            for (t, h) in self.helpers.iter().enumerate() {
                if let Some(go) = &h.go {
                    go.send(t as u64 + 1).expect("calibration thread is alive");
                }
            }
            chase(&mut self.heap[..HEAP_WORDS / (self.helpers.len() + 1)], 0);
            for h in &self.helpers {
                h.done.recv().expect("calibration thread finished its kernel");
            }
        } else {
            chase(&mut self.heap, 0);
        }
        start.elapsed().as_secs_f64()
    }

    /// Runs the kernels again and returns the throughput scales of the
    /// interval since the previous call: `(one thread, replicated-phase
    /// threads)`.
    pub fn bracket(&mut self) -> (f64, f64) {
        let one = self.run_s(false);
        self.one.push(one);
        let many = if self.helpers.is_empty() { one } else { self.run_s(true) };
        self.many.push(many);
        (throughput_scale(&self.one), throughput_scale(&self.many))
    }

    /// Median one-thread kernel time of the run, in milliseconds.
    pub fn median_ms(&self) -> f64 {
        crate::trace::median(&self.one) * 1e3
    }
}

impl Drop for Calibration {
    /// Stops and joins the kernel threads.
    fn drop(&mut self) {
        for h in &mut self.helpers {
            h.go.take();
            if let Some(handle) = h.handle.take() {
                if handle.join().is_err() {
                    eprintln!("perfbench: a calibration thread panicked");
                }
            }
        }
    }
}

/// Factor that turns a throughput measured over an interval into one at
/// nominal host speed, given the kernel times measured so far: the mean
/// of the last two, the ones that bracket the interval.
fn throughput_scale(kernel_s: &[f64]) -> f64 {
    let last = &kernel_s[kernel_s.len().saturating_sub(2)..];
    last.iter().sum::<f64>() / last.len().max(1) as f64 / NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_at_nominal_speed_and_tracks_a_slow_host() {
        assert_eq!(throughput_scale(&[9.0, NOMINAL_S, NOMINAL_S]), 1.0);
        // A host at half speed takes twice as long on the kernel; the
        // halved throughput it measures is doubled back.
        assert_eq!(throughput_scale(&[2.0 * NOMINAL_S]), 2.0);
        let mut c = Calibration::new();
        c.set_threads(2);
        let (one, many) = c.bracket();
        assert!(one > 0.0 && many > 0.0);
        assert_eq!((c.one.len(), c.many.len()), (3, 2));
    }
}
