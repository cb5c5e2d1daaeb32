//! Execution-driven discrete-event simulation substrate for `windjoin`.
//!
//! The paper evaluates on a physical cluster (5 × dual Pentium III nodes,
//! gigabit Ethernet, mpiJava over LAM/MPI). This crate replaces that
//! hardware with a deterministic discrete-event simulator:
//!
//! * [`engine`] — a minimal, deterministic event queue + actor model.
//!   Events at equal timestamps fire in schedule order, so a run is a pure
//!   function of its inputs and seed.
//! * [`link`] — a FIFO serializing link: exactly one in-flight message at
//!   a time, occupancy = per-message overhead + bytes × per-byte cost,
//!   plus propagation latency. The master's NIC is one such link, which
//!   reproduces the *serial distribution order* effects the paper reports
//!   (per-slave communication-overhead divergence, Figs. 11–12).
//! * [`cpu`] — a per-node busy timeline: work is queued on a single
//!   virtual CPU, giving saturation/backlog behaviour.
//! * [`cost`] — the calibrated [`cost::CostModel`] that converts *counted
//!   work* (tuple comparisons, inserts, hash ops, block touches, state
//!   moves) into simulated CPU microseconds. The join code actually runs —
//!   outputs are exact — and only its *cost* is modelled: the work a
//!   probe charges is the paper's nested-loop cost, fixed by batch and
//!   window sizes before any physical shortcut, so simulated time does
//!   not depend on how fast the host's kernel finds matches.
//!
//! This crate knows nothing about joins; `windjoin-cluster` binds the
//! protocol state machines from `windjoin-core` to these primitives.

#![warn(missing_docs)]

pub mod cost;
pub mod cpu;
pub mod engine;
pub mod link;

pub use cost::{CostModel, CpuWork};
pub use cpu::CpuTimeline;
pub use engine::{Actor, ActorId, Ctx, Sim};
pub use link::{Link, LinkSpec, Transfer};
