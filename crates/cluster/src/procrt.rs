//! Multi-process runtime: one OS process per rank over real TCP — the
//! first true shared-nothing deployment of this codebase (the paper
//! runs the same topology over mpiJava/LAM-MPI).
//!
//! Each process calls [`run_node`] with its rank and the shared peer
//! list; the TCP mesh bootstrap blocks until every pairwise connection
//! exists (ranks may start, crash and redial in any order within the
//! handshake window), then the rank's node loop (from [`crate::nodes`])
//! runs exactly as it does inside the threaded runtime — including the
//! failure handling: a killed rank surfaces as a typed `PeerDown` at
//! its peers, the master re-homes its partitions, and the drain
//! completes on the live slaves. The `windjoin-node` binary is a thin
//! CLI over this module (`windjoin-launch` spawns a whole local cluster
//! on kernel-assigned ports) — see the README for launch recipes and
//! the fault-tolerance model.

use crate::nodes::{self, CollectorOutcome, MasterOutcome, NodeConfig, Role, SlaveOutcome};
use std::net::SocketAddr;
use std::time::Duration;
use windjoin_core::ConfigError;
use windjoin_net::{Endpoint, Mesh, PollerIo, SocketBackend, ThreadedIo};

/// Which socket backend carries the mesh (same wire format, same
/// handshake, same protocol semantics — interchangeable mid-fleet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Thread-per-peer blocking I/O (`TcpNetwork`): `2(n-1)` threads
    /// per rank. Simple and fast at small rank counts; the default.
    #[default]
    Threaded,
    /// Readiness-driven event loop (`EventedNetwork`): one poller
    /// thread per rank multiplexing all peers. Constant thread count —
    /// the choice at 16+ ranks.
    Evented,
}

impl TransportKind {
    /// Parses the `--transport` CLI spelling.
    pub fn parse(s: &str) -> Result<TransportKind, String> {
        match s {
            "threaded" => Ok(TransportKind::Threaded),
            "evented" => Ok(TransportKind::Evented),
            other => Err(format!("unknown transport '{other}' (expected threaded|evented)")),
        }
    }

    /// The CLI spelling (inverse of [`parse`](Self::parse)).
    pub fn as_str(&self) -> &'static str {
        match self {
            TransportKind::Threaded => "threaded",
            TransportKind::Evented => "evented",
        }
    }
}

/// One process's slice of a multi-process cluster run.
#[derive(Debug, Clone)]
pub struct ProcessConfig {
    /// This process's rank (`0..m` masters, `m..m+n` slaves, `m+n`
    /// collector).
    pub rank: usize,
    /// Listen address of every rank, indexed by rank. The cluster size
    /// is `peers.len()`; it must equal `node.ranks()`.
    pub peers: Vec<SocketAddr>,
    /// The run itself (same config every rank, same seed).
    pub node: NodeConfig,
    /// Bounded inbox capacity, in frames.
    pub inbox_capacity: usize,
    /// How long to keep dialing peers during the mesh handshake.
    pub handshake_timeout: Duration,
    /// Which socket backend carries the mesh.
    pub transport: TransportKind,
}

impl ProcessConfig {
    /// A config with the runtime defaults (4096-frame inboxes, 30 s
    /// handshake window).
    pub fn new(rank: usize, peers: Vec<SocketAddr>, node: NodeConfig) -> Self {
        ProcessConfig {
            rank,
            peers,
            node,
            inbox_capacity: crate::threadrt::DEFAULT_INBOX_CAPACITY,
            handshake_timeout: Duration::from_secs(30),
            transport: TransportKind::default(),
        }
    }

    /// Consistency checks.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.node.params.validate()?;
        if self.node.slaves == 0 {
            return Err(ConfigError::NonPositive { field: "node.slaves" });
        }
        if self.node.masters == 0 {
            return Err(ConfigError::NonPositive { field: "node.masters" });
        }
        if self.peers.len() != self.node.ranks() {
            return Err(ConfigError::Topology {
                why: format!(
                    "{} peers but the topology has {} ranks ({} master(s) + {} slaves + collector)",
                    self.peers.len(),
                    self.node.ranks(),
                    self.node.masters,
                    self.node.slaves
                ),
            });
        }
        if self.rank >= self.peers.len() {
            return Err(ConfigError::Topology { why: format!("rank {} out of range", self.rank) });
        }
        if self.inbox_capacity == 0 {
            return Err(ConfigError::NonPositive { field: "inbox_capacity" });
        }
        Ok(())
    }
}

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
/// this (in its own process) with the same `peers` and `node` config.
/// Ranks may mix [`TransportKind`]s freely: both backends speak the
/// same wire protocol.
pub fn run_node(cfg: &ProcessConfig) -> std::io::Result<NodeOutcome> {
    cfg.validate().map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    match cfg.transport {
        TransportKind::Threaded => run_over::<ThreadedIo>(cfg),
        TransportKind::Evented => run_over::<PollerIo>(cfg),
    }
}

/// Establishes this rank's corner of the mesh on backend `B` and runs
/// its role over the endpoint.
fn run_over<B: SocketBackend>(cfg: &ProcessConfig) -> std::io::Result<NodeOutcome> {
    let ep = Mesh::<Endpoint<B>>::establish(
        cfg.rank,
        &cfg.peers,
        cfg.inbox_capacity,
        cfg.handshake_timeout,
    )?;
    Ok(match cfg.node.role_of(cfg.rank) {
        Role::Master(i) => NodeOutcome::Master(nodes::master_node_at(&ep, i, &cfg.node)),
        Role::Slave(i) => NodeOutcome::Slave(nodes::slave_node(&ep, i, &cfg.node)),
        Role::Collector => NodeOutcome::Collector(nodes::collector_node(&ep, &cfg.node)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_topology_mismatch() {
        let node = NodeConfig::demo(2);
        let peers: Vec<SocketAddr> =
            (0..3).map(|i| format!("127.0.0.1:{}", 9000 + i).parse().unwrap()).collect();
        let cfg = ProcessConfig::new(0, peers, node); // 2 slaves need 4 ranks
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_accepts_well_formed() {
        let node = NodeConfig::demo(2);
        let peers: Vec<SocketAddr> =
            (0..4).map(|i| format!("127.0.0.1:{}", 9000 + i).parse().unwrap()).collect();
        assert!(ProcessConfig::new(3, peers, node).validate().is_ok());
    }
}
