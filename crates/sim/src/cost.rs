//! The CPU cost model: counted work → simulated microseconds.
//!
//! The join module in `windjoin-core` *really executes* (its outputs and
//! control decisions are exact); what it reports back is a [`CpuWork`]
//! tally. This module converts the tally into simulated CPU time using
//! constants calibrated to the paper's testbed class (Java on dual
//! Pentium III 930 MHz — see EXPERIMENTS.md "Calibration").
//!
//! The dominant term is `comparisons`: the block-nested-loop inner loop.
//! All constants are public so experiments can model faster or slower
//! nodes (the ablation benches sweep them).

/// Work counted by one processing step of the join module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuWork {
    /// BNLJ inner-loop tuple comparisons.
    pub comparisons: u64,
    /// Output tuples constructed.
    pub emitted: u64,
    /// Tuples inserted into window partitions.
    pub inserts: u64,
    /// Hash computations / directory lookups.
    pub hash_ops: u64,
    /// Blocks fetched, appended or expired.
    pub blocks_touched: u64,
    /// Tuples packed/unpacked for partition-group state movement.
    pub tuples_moved: u64,
}

impl CpuWork {
    /// Component-wise sum.
    pub fn add(&mut self, other: &CpuWork) {
        self.comparisons += other.comparisons;
        self.emitted += other.emitted;
        self.inserts += other.inserts;
        self.hash_ops += other.hash_ops;
        self.blocks_touched += other.blocks_touched;
        self.tuples_moved += other.tuples_moved;
    }

    /// True when no work was counted.
    pub fn is_zero(&self) -> bool {
        *self == CpuWork::default()
    }
}

/// Per-operation CPU costs in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// One BNLJ tuple comparison (key compare + window predicate on a
    /// block-resident tuple).
    pub cmp_ns: f64,
    /// Constructing one output tuple.
    pub emit_ns: f64,
    /// Inserting one tuple into a window partition (head-block append).
    pub insert_ns: f64,
    /// One hash computation or directory lookup.
    pub hash_ns: f64,
    /// Fetching/appending/expiring one 4 KB block.
    pub block_ns: f64,
    /// Packing or unpacking one tuple during state movement.
    pub move_ns: f64,
    /// Receive-side deserialization, per byte. This occupies the
    /// receiver's CPU and is accounted as *communication* time — in the
    /// paper's stack (mpiJava object streams) the receive path is
    /// CPU-bound, which is why measured communication overhead keeps
    /// growing with rate even when the node is otherwise saturated
    /// (Figs. 10, 12).
    pub deser_ns_per_byte: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl CostModel {
    /// Calibrated to the paper's testbed class: a slave sustains roughly
    /// 67 M BNLJ comparisons per second (Java inner loop on a dual
    /// 930 MHz Pentium III), which places the 1-slave saturation knee
    /// near 1500–2000 tuples/s/stream (Fig. 5), the no-tuning 4-slave
    /// knee near 3700 (Figs. 8–9) and the fine-tuned 4-slave knee near
    /// 6000 (Figs. 6, 10). See EXPERIMENTS.md "Calibration".
    pub const fn paper_calibrated() -> Self {
        CostModel {
            cmp_ns: 15.0,
            emit_ns: 400.0,
            insert_ns: 350.0,
            hash_ns: 150.0,
            block_ns: 2_000.0,
            move_ns: 500.0,
            deser_ns_per_byte: 200.0,
        }
    }

    /// CPU microseconds to deserialize a received message of `bytes`.
    pub fn deser_us(&self, bytes: u64) -> u64 {
        (bytes as f64 * self.deser_ns_per_byte / 1000.0).ceil() as u64
    }

    /// Converts a work tally into simulated CPU microseconds (rounded up).
    pub fn cpu_us(&self, w: &CpuWork) -> u64 {
        let ns = w.comparisons as f64 * self.cmp_ns
            + w.emitted as f64 * self.emit_ns
            + w.inserts as f64 * self.insert_ns
            + w.hash_ops as f64 * self.hash_ns
            + w.blocks_touched as f64 * self.block_ns
            + w.tuples_moved as f64 * self.move_ns;
        (ns / 1000.0).ceil() as u64
    }

    /// Comparisons per second this model sustains (for documentation and
    /// capacity estimates in experiment notes).
    pub fn comparisons_per_sec(&self) -> f64 {
        1e9 / self.cmp_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_work_costs_nothing() {
        let m = CostModel::default();
        assert_eq!(m.cpu_us(&CpuWork::default()), 0);
        assert!(CpuWork::default().is_zero());
    }

    #[test]
    fn comparisons_dominate_at_scale() {
        let m = CostModel::paper_calibrated();
        let w = CpuWork { comparisons: 1_000_000, ..Default::default() };
        let us = m.cpu_us(&w);
        // 1M comparisons at 15 ns = 15 ms.
        assert_eq!(us, 15_000);
    }

    #[test]
    fn deserialization_cost_is_per_byte() {
        let m = CostModel::paper_calibrated();
        // 200 ns/B: 5 KB -> 1 ms.
        assert_eq!(m.deser_us(5_000), 1_000);
        assert_eq!(m.deser_us(0), 0);
    }

    #[test]
    fn add_accumulates_componentwise() {
        let mut a = CpuWork {
            comparisons: 1,
            emitted: 2,
            inserts: 3,
            hash_ops: 4,
            blocks_touched: 5,
            tuples_moved: 6,
        };
        let b = CpuWork {
            comparisons: 10,
            emitted: 20,
            inserts: 30,
            hash_ops: 40,
            blocks_touched: 50,
            tuples_moved: 60,
        };
        a.add(&b);
        assert_eq!(a.comparisons, 11);
        assert_eq!(a.tuples_moved, 66);
        assert!(!a.is_zero());
    }

    #[test]
    fn cost_rounds_up_to_a_microsecond() {
        let m = CostModel::paper_calibrated();
        let w = CpuWork { comparisons: 1, ..Default::default() };
        assert_eq!(m.cpu_us(&w), 1, "sub-microsecond work rounds up");
    }

    #[test]
    fn calibration_capacity_sanity() {
        let m = CostModel::paper_calibrated();
        let cps = m.comparisons_per_sec();
        assert!(cps > 20e6 && cps < 100e6, "capacity {cps:.1e} out of the plausible band");
    }
}
