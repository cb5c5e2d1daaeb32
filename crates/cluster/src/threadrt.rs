//! In-process threaded runtime: one OS thread per node.
//!
//! Ranks `0..m` are the masters (rank 0 leads, the rest stand by),
//! ranks `m..m+n` the slaves, rank `m+n` the collector — Fig. 1's
//! topology when `m == 1`. Nodes exchange **encoded byte frames**
//! (`windjoin-net`) over any [`TransportEndpoint`] backend, so the whole
//! §IV-B path — machine-independent tuple format, merged batches, stream
//! tagging — is exercised end to end. Slaves run the physical
//! `ExactEngine` BNLJ in real time.
//!
//! The node loops themselves live in [`crate::nodes`] and are generic
//! over the transport: [`run_threaded`] drives them over the bounded
//! channel backend, [`run_on_transport`] over any backend's [`Mesh`]
//! (the tests run the identical cluster over a loopback TCP mesh), and
//! [`crate::procrt`] runs one node per OS process.
//!
//! This runtime exists for the examples and end-to-end tests; the
//! paper-scale experiments use [`crate::simrt`] (20 simulated minutes do
//! not fit in a test suite's wall clock).

use crate::api::Runtime;
use crate::nodes::{self, NodeConfig};
use crate::report::RunReport;
use std::thread;
use windjoin_core::WorkStats;
use windjoin_metrics::{TimeSeries, UsageSet};
use windjoin_net::{ChannelNetwork, Mesh, TransportEndpoint};

/// Per-inbox frame capacity for the channel backend and for every rank
/// of the multi-process runtime.
pub const DEFAULT_INBOX_CAPACITY: usize = 4096;

/// Runs the cluster on real threads over bounded channels; blocks until
/// completion.
pub fn run_threaded(cfg: &NodeConfig) -> RunReport {
    let net = ChannelNetwork::new(cfg.ranks(), DEFAULT_INBOX_CAPACITY);
    run_on_transport(cfg, net)
}

/// Runs the cluster on real threads over any backend's [`Mesh`] — one
/// thread per rank, each driving its generic node loop.
pub fn run_on_transport<E>(cfg: &NodeConfig, mut net: Mesh<E>) -> RunReport
where
    E: TransportEndpoint + 'static,
{
    cfg.validate(Runtime::Threaded).expect("invalid run configuration");
    assert_eq!(net.len(), cfg.ranks(), "transport sized for the wrong topology");
    let n = cfg.slaves;

    let master_eps: Vec<_> = (0..cfg.masters).map(|r| net.take(r)).collect();
    let collector_ep = net.take(cfg.collector_rank());
    let slave_eps: Vec<_> = (0..n).map(|s| net.take(cfg.slave_rank(s))).collect();

    let run_us_total = cfg.run.as_micros() as u64;
    let warmup_us = cfg.warmup.as_micros() as u64;

    // One shared config for every node thread — no per-thread deep
    // clone of `Params` and the workload spec.
    let shared = std::sync::Arc::new(cfg.clone());
    let collector = {
        let cfg = std::sync::Arc::clone(&shared);
        thread::spawn(move || nodes::collector_node(&collector_ep, &cfg))
    };
    let slaves: Vec<_> = slave_eps
        .into_iter()
        .enumerate()
        .map(|(i, ep)| {
            let cfg = std::sync::Arc::clone(&shared);
            thread::spawn(move || nodes::slave_node(&ep, i, &cfg))
        })
        .collect();
    let masters: Vec<_> = master_eps
        .into_iter()
        .enumerate()
        .map(|(i, ep)| {
            let cfg = std::sync::Arc::clone(&shared);
            thread::spawn(move || nodes::master_node_at(&ep, i, &cfg))
        })
        .collect();

    // Exactly one master leads the shutdown of a completed run (rank 0
    // with a single master; whichever rank held the final term after a
    // failover). Its outcome describes the run; a chaos-killed leader
    // or a passive standby contributes nothing.
    let outcomes: Vec<_> = masters.into_iter().map(|h| h.join().expect("master")).collect();
    let m = outcomes
        .into_iter()
        .filter(|m| m.led_shutdown)
        .max_by_key(|m| m.term)
        .expect("no master led the shutdown");
    let mut usage = UsageSet::new(n, warmup_us);
    let mut work = WorkStats::default();
    let (mut peak_state_bytes, mut batches) = (0, 0);
    // Slave-failure losses are known only at the master (the dead
    // slave's own tally died with it).
    work.add(&m.loss);
    for (i, h) in slaves.into_iter().enumerate() {
        let s = h.join().expect("slave");
        work.add(&s.work);
        peak_state_bytes = peak_state_bytes.max(s.peak_state_bytes);
        batches += s.batches;
        // Threaded timings are wall-clock totals (not warm-up gated).
        usage.node_mut(i).add_cpu(warmup_us, warmup_us + s.cpu_us);
        usage.node_mut(i).add_comm(warmup_us, warmup_us + s.comm_us);
        let idle = (run_us_total - warmup_us).saturating_sub(s.cpu_us + s.comm_us);
        usage.node_mut(i).add_idle(warmup_us, warmup_us + idle);
    }
    let c = collector.join().expect("collector");
    // Wire volume is cluster-wide: slave counters arrived inside
    // `s.work`; the leading master and the collector report theirs on
    // the side. (Standby masters' volume is not represented — their
    // outcomes don't describe the run.)
    work.bytes_sent += m.bytes_sent + c.bytes_sent;
    work.bytes_recvd += m.bytes_recvd + c.bytes_recvd;

    RunReport {
        outputs: c.delay.count(),
        delay: c.delay,
        usage,
        outputs_total: c.outputs_total,
        output_checksum: c.checksum,
        captured: c.captured,
        work,
        tuples_in: m.tuples_in,
        max_window_blocks: 0, // not sampled in the threaded runtime
        peak_state_bytes,
        batches,
        master_peak_buffer_bytes: m.peak_buffer_bytes,
        dod_trace: m.dod_trace,
        epoch_trace: TimeSeries::new(cfg.params.reorg_epoch_us),
        final_degree: m.final_degree,
        moves: m.moves,
        dead_slaves: m.dead_slaves,
        run_us: run_us_total,
        warmup_us,
    }
}

pub use crate::nodes::initial_partitions;

#[cfg(test)]
mod tests {
    use super::*;
    use windjoin_core::Params;

    #[test]
    fn initial_partitions_cover_everything_once() {
        let params = Params::default_paper();
        let mut seen = vec![0u32; params.npart as usize];
        for s in 0..3 {
            for pid in initial_partitions(&params, 3, s) {
                seen[pid as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }
}
