//! # windjoin-core
//!
//! The primary contribution of *"Parallelizing Windowed Stream Joins in a
//! Shared-Nothing Cluster"* (Chakraborty & Singh, CLUSTER 2013): a
//! sliding-window stream equi-join parallelised over a master/slave
//! shared-nothing cluster with a **fixed, epoch-synchronised communication
//! pattern**, hash-partitioned window state, buffer-occupancy-driven load
//! re-balancing, an adaptive **degree of declustering**, **sub-group
//! communication**, and **fine-grained partition tuning** built on
//! extendible hashing.
//!
//! Everything here is *sans-io*: [`MasterCore`], [`SlaveCore`] and the
//! join machinery are pure state machines that consume typed inputs and
//! return typed outputs. Time and transport are supplied by a driver —
//! `windjoin-cluster` provides both a deterministic discrete-event
//! simulator and an in-process threaded runtime.
//!
//! ## Layer map (paper section → module)
//!
//! | Paper | Module |
//! |---|---|
//! | §II system model, tuples & windows | [`tuple`](mod@tuple), [`config`] |
//! | §IV-B master buffer & tuple distribution | [`buffer`], [`master`] |
//! | §IV-C repartitioning & state movement | [`reorg`], [`master`], [`slave`], [`group`] |
//! | §IV-D join module, head-block protocol, BNLJ | [`block`], [`window`], [`probe`], [`minigroup`] |
//! | §IV-D fine tuning via extendible hashing | [`group`] (on `windjoin-exthash`) |
//! | §V-A degree of declustering | [`reorg`], [`master`] |
//! | §V-B sub-group communication | [`subgroup`] |
//!
//! ## Quick start (single-node join, no cluster)
//!
//! ```
//! use windjoin_core::{Params, SlaveCore, Tuple, Side, probe::CountedEngine, WorkStats};
//!
//! let params = Params::default_paper();
//! let mut slave: SlaveCore<CountedEngine> = SlaveCore::new(0, params.clone());
//! // Give this slave every partition.
//! for pid in 0..params.npart {
//!     slave.create_group(pid);
//! }
//! slave.receive_batch(vec![
//!     Tuple::new(Side::Left, 1_000, 42, 0),
//!     Tuple::new(Side::Right, 2_000, 42, 0),
//! ]);
//! let mut out = Vec::new();
//! let mut work = WorkStats::default();
//! slave.process_pending(&mut out, &mut work);
//! assert_eq!(out.len(), 1);
//! assert_eq!(out[0].key, 42);
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod buffer;
pub mod checkpoint;
pub mod config;
pub mod ctrlog;
pub mod errors;
pub mod group;
pub mod hash;
pub mod master;
pub mod minigroup;
pub mod payload;
pub mod probe;
pub mod reference;
pub mod reorg;
pub mod residual;
pub mod slave;
pub mod subgroup;
pub mod tune_epoch;
pub mod tuple;
pub mod window;
pub mod work;

pub use block::{BlockMeta, RunView};
pub use buffer::PartitionedBuffer;
pub use checkpoint::{CheckpointMeta, CheckpointRegistry, CheckpointStore, PartitionCheckpoint};
pub use config::{JoinSemantics, Params, TuningParams};
pub use ctrlog::{ControlLog, Decision, Election};
pub use errors::ConfigError;
pub use group::{GroupState, PartitionGroup};
pub use master::{MasterCore, MovePlan, Rehome};
pub use minigroup::MiniGroup;
pub use payload::{PayloadEntry, PayloadStore};
pub use probe::{CountedEngine, ExactEngine, ProbeEngine, ScalarEngine};
pub use reference::reference_join;
pub use reorg::{classify, decide_dod, decide_membership, pair_moves, DodDecision, NodeClass};
pub use residual::{MatchCtx, MatchSide, Residual, ResidualPredicate, ResidualSpec};
pub use slave::SlaveCore;
pub use subgroup::{master_buffer_bound_bytes, slot_of_slave};
pub use tune_epoch::EpochTuning;
pub use tuple::{OutPair, Side, Tuple};
pub use window::WindowPartition;
pub use work::WorkStats;
