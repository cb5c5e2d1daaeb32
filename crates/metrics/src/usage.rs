//! Per-node time accounting: CPU, communication, idle.
//!
//! The paper reports, per slave and aggregated, the **total CPU time**,
//! **communication overhead** (time spent blocked in send/receive,
//! including waiting for the node's turn in the serial distribution
//! order) and **idle time** over the measurement window (Figs. 7, 9–12).

use crate::Welford;
use std::ffi::{c_int, c_long};
use std::time::Duration;

/// CPU time (user + system) the calling thread has used so far, from
/// `getrusage(RUSAGE_THREAD)` — exact per rank wherever a rank is one
/// thread, as on every real-time runtime. Zero if the call fails.
pub fn thread_cpu_time() -> Duration {
    #[repr(C)]
    struct Timeval {
        tv_sec: c_long,
        tv_usec: c_long,
    }
    /// The C `struct rusage`: two times, then fourteen counters.
    #[repr(C)]
    struct Rusage {
        ru_utime: Timeval,
        ru_stime: Timeval,
        _counters: [c_long; 14],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_THREAD: c_int = 1;
    let zero = || Timeval { tv_sec: 0, tv_usec: 0 };
    let mut ru = Rusage { ru_utime: zero(), ru_stime: zero(), _counters: [0; 14] };
    // SAFETY: `ru` is a writable `struct rusage` with the kernel's
    // layout (two `timeval`s, then fourteen `long`s) for the call.
    if unsafe { getrusage(RUSAGE_THREAD, &mut ru) } != 0 {
        return Duration::ZERO;
    }
    let us = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Duration::from_micros(us(&ru.ru_utime) + us(&ru.ru_stime))
}

/// Accumulated busy/comm/idle microseconds for one node, gated by a
/// warm-up boundary: contributions before `warmup_end_us` are ignored.
#[derive(Debug, Clone)]
pub struct NodeUsage {
    warmup_end_us: u64,
    cpu_us: u64,
    comm_us: u64,
    idle_us: u64,
}

impl NodeUsage {
    /// New accumulator discarding time before `warmup_end_us`.
    pub fn new(warmup_end_us: u64) -> Self {
        NodeUsage { warmup_end_us, cpu_us: 0, comm_us: 0, idle_us: 0 }
    }

    /// Clips the interval `[from, to)` to the post-warm-up region and
    /// returns its length.
    fn clipped(&self, from_us: u64, to_us: u64) -> u64 {
        debug_assert!(from_us <= to_us, "interval must be ordered");
        let from = from_us.max(self.warmup_end_us);
        to_us.saturating_sub(from)
    }

    /// Accounts `[from, to)` as CPU (join processing) time.
    pub fn add_cpu(&mut self, from_us: u64, to_us: u64) {
        self.cpu_us += self.clipped(from_us, to_us);
    }

    /// Accounts `[from, to)` as communication time (blocked in
    /// send/receive, including waiting for the node's distribution slot).
    pub fn add_comm(&mut self, from_us: u64, to_us: u64) {
        self.comm_us += self.clipped(from_us, to_us);
    }

    /// Accounts `[from, to)` as idle time.
    pub fn add_idle(&mut self, from_us: u64, to_us: u64) {
        self.idle_us += self.clipped(from_us, to_us);
    }

    /// Total CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_us as f64 / 1e6
    }

    /// Total communication seconds.
    pub fn comm_s(&self) -> f64 {
        self.comm_us as f64 / 1e6
    }

    /// Total idle seconds.
    pub fn idle_s(&self) -> f64 {
        self.idle_us as f64 / 1e6
    }
}

/// Usage across a set of nodes, with min/max/avg summaries (Fig. 12 plots
/// exactly these three series for communication overhead).
#[derive(Debug, Clone, Default)]
pub struct UsageSet {
    nodes: Vec<NodeUsage>,
}

/// Min/avg/max over one quantity across nodes, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageSummary {
    /// Smallest per-node value.
    pub min_s: f64,
    /// Mean per-node value.
    pub avg_s: f64,
    /// Largest per-node value.
    pub max_s: f64,
    /// Sum across nodes (the "aggregate" series of Fig. 11).
    pub total_s: f64,
}

impl UsageSet {
    /// A set of `n` node accumulators sharing one warm-up boundary.
    pub fn new(n: usize, warmup_end_us: u64) -> Self {
        UsageSet { nodes: (0..n).map(|_| NodeUsage::new(warmup_end_us)).collect() }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the set has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Mutable access to node `i`'s accumulator.
    pub fn node_mut(&mut self, i: usize) -> &mut NodeUsage {
        &mut self.nodes[i]
    }

    /// Shared access to node `i`'s accumulator.
    pub fn node(&self, i: usize) -> &NodeUsage {
        &self.nodes[i]
    }

    fn summarize(&self, f: impl Fn(&NodeUsage) -> f64) -> UsageSummary {
        let mut w = Welford::new();
        let mut total = 0.0;
        for n in &self.nodes {
            let v = f(n);
            w.push(v);
            total += v;
        }
        UsageSummary {
            min_s: w.min().unwrap_or(0.0),
            avg_s: w.mean(),
            max_s: w.max().unwrap_or(0.0),
            total_s: total,
        }
    }

    /// CPU summary across nodes.
    pub fn cpu(&self) -> UsageSummary {
        self.summarize(NodeUsage::cpu_s)
    }

    /// Communication summary across nodes.
    pub fn comm(&self) -> UsageSummary {
        self.summarize(NodeUsage::comm_s)
    }

    /// Idle summary across nodes.
    pub fn idle(&self) -> UsageSummary {
        self.summarize(NodeUsage::idle_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_clipping() {
        let mut u = NodeUsage::new(1_000_000);
        u.add_cpu(0, 500_000); // fully inside warm-up: dropped
        assert_eq!(u.cpu_s(), 0.0);
        u.add_cpu(500_000, 1_500_000); // half inside
        assert!((u.cpu_s() - 0.5).abs() < 1e-9);
        u.add_cpu(2_000_000, 3_000_000); // fully after
        assert!((u.cpu_s() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn categories_are_independent() {
        let mut u = NodeUsage::new(0);
        u.add_cpu(0, 10);
        u.add_comm(10, 30);
        u.add_idle(30, 60);
        assert_eq!(u.cpu_s(), 10e-6);
        assert_eq!(u.comm_s(), 20e-6);
        assert_eq!(u.idle_s(), 30e-6);
    }

    #[test]
    fn set_summaries() {
        let mut s = UsageSet::new(3, 0);
        s.node_mut(0).add_comm(0, 1_000_000);
        s.node_mut(1).add_comm(0, 2_000_000);
        s.node_mut(2).add_comm(0, 3_000_000);
        let c = s.comm();
        assert_eq!(c.min_s, 1.0);
        assert_eq!(c.max_s, 3.0);
        assert!((c.avg_s - 2.0).abs() < 1e-9);
        assert!((c.total_s - 6.0).abs() < 1e-9);
    }

    #[test]
    fn thread_cpu_time_counts_this_thread_alone() {
        let spin = |d: Duration| {
            let t0 = std::time::Instant::now();
            let mut x = 0u64;
            while t0.elapsed() < d {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        };
        let before = thread_cpu_time();
        spin(Duration::from_millis(60));
        let own = thread_cpu_time() - before;
        assert!(own >= Duration::from_millis(20), "60 ms of spinning counted {own:?}");
        // Another thread's spinning is not ours; a sleeping thread
        // uses (almost) none.
        let before = thread_cpu_time();
        std::thread::spawn(move || spin(Duration::from_millis(60))).join().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert!(thread_cpu_time() - before < Duration::from_millis(15));
    }

    #[test]
    fn empty_set_summary_is_zero() {
        let s = UsageSet::new(0, 0);
        assert!(s.is_empty());
        let c = s.cpu();
        assert_eq!(c.total_s, 0.0);
        assert_eq!(c.min_s, 0.0);
    }
}
