//! Multi-process runtime: one OS process per rank over real TCP — the
//! first true shared-nothing deployment of this codebase (the paper
//! runs the same topology over mpiJava/LAM-MPI).
//!
//! Each process calls [`run_node`] with its rank, the shared peer list
//! and the same [`NodeConfig`] every other runtime reads (checked as
//! [`Runtime::Tcp`]: no spare slaves, no epoch tuning); the TCP mesh
//! bootstrap blocks until every pairwise connection exists (ranks may
//! start, crash and redial in any order within the handshake window),
//! then the rank's node loop (from [`crate::nodes`]) runs exactly as it
//! does inside the threaded runtime — including the failure handling: a
//! killed rank surfaces as a typed `PeerDown` at its peers, the master
//! re-homes its partitions, and the drain completes on the live slaves.
//! The `windjoin-node` binary is a thin CLI over this module
//! (`windjoin-launch` spawns a whole local cluster on kernel-assigned
//! ports) — see the README for launch recipes and the fault-tolerance
//! model.

use crate::api::Runtime;
use crate::nodes::{self, CollectorOutcome, MasterOutcome, NodeConfig, Role, SlaveOutcome};
use crate::threadrt::DEFAULT_INBOX_CAPACITY;
use std::net::SocketAddr;
use std::time::Duration;
use windjoin_net::TcpNetwork;

/// What this process's rank produced.
///
/// Sized by its largest variant (the collector's captured outputs);
/// one value exists per process, so the imbalance is harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum NodeOutcome {
    /// Rank 0 ran the master.
    Master(MasterOutcome),
    /// A slave rank ran the join module.
    Slave(SlaveOutcome),
    /// The collector gathered the join output.
    Collector(CollectorOutcome),
}

/// Joins the TCP mesh and runs this rank's node loop to completion.
///
/// Blocks through the whole run; every rank of the cluster must call
/// this (in its own process) with the same `peers` and `cfg`. `peers`
/// lists every rank's listen address, indexed by rank; `handshake` is
/// how long to keep dialing peers while the mesh forms. The rank's
/// thread drives its sockets itself; its endpoint queues up to
/// [`DEFAULT_INBOX_CAPACITY`] decoded frames.
pub fn run_node(
    rank: usize,
    peers: &[SocketAddr],
    cfg: &NodeConfig,
    handshake: Duration,
) -> std::io::Result<NodeOutcome> {
    let role = cfg
        .validate(Runtime::Tcp)
        .and_then(|()| cfg.role_of(rank, peers.len()))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let ep = TcpNetwork::establish(rank, peers, DEFAULT_INBOX_CAPACITY, handshake)?;
    Ok(match role {
        Role::Master(i) => NodeOutcome::Master(nodes::master_node_at(&ep, i, cfg)),
        Role::Slave(i) => NodeOutcome::Slave(nodes::slave_node(&ep, i, cfg)),
        Role::Collector => NodeOutcome::Collector(nodes::collector_node(&ep, cfg)),
    })
}
