//! Baseline routing strategies from Gu, Yu & Wang (ICDE 2007), which the
//! paper's §VII argues against.
//!
//! * [`atr`] — **Aligned Tuple Routing**: time is cut into segments,
//!   each owned by one node; *every* tuple of both streams is routed to
//!   the segment owner, and during the last `W` of a segment tuples are
//!   additionally copied to the next owner to pre-warm its windows.
//!   The join load therefore *circulates* instead of balancing — §VII's
//!   critique — so capacity stays at one node's worth no matter how many
//!   nodes participate.
//! * [`ctr`] — **Coordinated Tuple Routing** (two-way specialisation):
//!   each tuple is *stored* on one node of its stream's hop set
//!   (round-robin segments) and *probe-broadcast* to every node of the
//!   opposite hop set. Join state spreads evenly, but the network
//!   carries `N×` the tuples, so the distribution NIC saturates early —
//!   the "high network overhead" of §VII.
//!
//! Both baselines run on the same simulation substrate, cost model and
//! (really executing) join machinery as `windjoin` itself, so experiment
//! X1 compares like with like: a baseline reads the same
//! `windjoin_cluster::NodeConfig`, arrival source included, as the
//! simulated `windjoin` run it is compared with. Correctness of both
//! routings is tested against the reference oracle.

#![warn(missing_docs)]

pub mod atr;
pub mod ctr;
pub mod driver;
pub mod report;

pub use atr::{run_atr, AtrParams};
pub use ctr::run_ctr;
pub use report::BaselineReport;
