//! The metric tables (mirrored by `BENCHMARK.json`; a test keeps the
//! two equal) and the statistics a set of runs is summarised with.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// What a user of the cluster sees; the same five on every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "delay_p50_ms", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "delay_p99_ms", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "burst_tuples_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.20 },
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
];

/// Single layers: `(name, unit, better)`. No bounds — these explain an
/// end-to-end change, they do not gate one.
pub const PER_LAYER: [(&str, &str, Better); 35] = [
    ("gen.pull_ns_per_tuple", "ns/tuple", Lower),
    ("master.route_ns_per_tuple", "ns/tuple", Lower),
    ("master.drain_slot_ns_per_tuple", "ns/tuple", Lower),
    ("master.peak_buffer_bytes", "bytes", Lower),
    ("msg.batch_encode_ns_per_tuple", "ns/tuple", Lower),
    ("msg.batch_decode_ns_per_tuple", "ns/tuple", Lower),
    ("msg.outputs_encode_ns_per_pair", "ns/pair", Lower),
    ("msg.outputs_decode_ns_per_pair", "ns/pair", Lower),
    ("wire.batch_us_per_frame", "us/frame", Lower),
    ("wire.outputs_us_per_frame", "us/frame", Lower),
    ("wire.bytes_per_tuple", "bytes/tuple", Lower),
    ("wire.frames_per_epoch", "count", Lower),
    ("slave.receive_ns_per_tuple", "ns/tuple", Lower),
    ("slave.drain_ns_per_tuple", "ns/tuple", Lower),
    ("slave.comparisons_per_tuple", "count", Lower),
    ("slave.hash_ops_per_tuple", "count", Lower),
    ("slave.blocks_touched_per_tuple", "count", Lower),
    ("slave.emitted_per_tuple", "count", Higher),
    ("slave.window_tuples", "count", Lower),
    ("state.snapshot_us_per_ktuple", "us/ktuple", Lower),
    ("state.move_us_per_ktuple", "us/ktuple", Lower),
    ("collector.fold_ns_per_pair", "ns/pair", Lower),
    ("collector.outputs_per_s", "1/s", Higher),
    ("slave.busy_share_avg", "share", Lower),
    ("slave.busy_share_max", "share", Lower),
    ("slave.comm_share_avg", "share", Lower),
    ("slave.idle_share_avg", "share", Higher),
    ("cluster.cpu_us_per_tuple", "us/tuple", Lower),
    ("cluster.run_overrun_ms", "ms", Lower),
    ("cluster.delay_p99_whole_run_ms", "ms", Lower),
    ("net.mesh_setup_mean_ms", "ms", Lower),
    ("clock_skew_ms", "ms", Lower),
    ("ledger.ns_per_tuple", "ns/tuple", Lower),
    ("ledger.unattributed_share", "share", Lower),
    ("ledger.span_overhead_share", "share", Lower),
];

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's rule);
/// a single value is all three.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "no samples");
    if n == 1 {
        return [v[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    (q3 - q1) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert_eq!(median(&[9.0, 1.0, 5.0, 3.0]), 4.0);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }
}
