//! The execution-driven cluster simulator.
//!
//! One `ClusterSim` actor owns the master, one [`SlaveRole`] per slave
//! and the clocks, and advances through self-addressed events on the
//! deterministic `windjoin-sim` engine:
//!
//! * `Slot` — a distribution-epoch slot (§IV-B, §V-B): arrivals are
//!   pulled into the master's mini-buffers, then drained per slave and
//!   pushed through the **serializing master NIC** ([`windjoin_sim::Link`]),
//!   which is what produces the per-slave communication-overhead
//!   divergence of Figs. 11–12.
//! * `ToSlave` — a protocol frame (`Batch`, `MoveDirective`, `State`)
//!   lands at a slave's role. A batch's blocking-receive time is charged
//!   as communication overhead and the batch is buffered; any other
//!   frame's work (extracting or installing a partition-group) is
//!   charged to the slave's virtual CPU, and the frames the role sends
//!   in reply travel with link timing.
//! * `TryProcess` — a slave drains its buffered batches when its
//!   virtual CPU frees up; join work is *really executed* and its
//!   counted cost is charged through the calibrated
//!   [`windjoin_sim::CostModel`]. The cost model and both link models
//!   are fixed constants of this driver (`COST`, `DIST_LINK`,
//!   `COLLECTOR_LINK`), not settings.
//! * `ToMaster` — a slave's `MoveComplete` reaches the master.
//! * `EpochEnd` — slaves sample their buffer occupancy (§IV-C metric).
//! * `Reorg` — the repartitioning protocol (§IV-C) and
//!   degree-of-declustering adaptation (§V-A); move directives travel
//!   through the same FIFO NIC as tuple batches, so a directive can
//!   never overtake the batches sent before it.
//!
//! The slaves speak the real protocol through the same role the node
//! loops drive; the simulator models one master and no checkpoints.
//! Everything observable (join outputs, reorganization decisions,
//! occupancy metrics) is exact; only time is modelled. See DESIGN.md §3.
//!
//! The run is described by the same [`NodeConfig`] the real-time
//! runtimes read; only the simulator honours `total_slaves > slaves`
//! (spare slaves for adaptive declustering) and `adaptive_epoch`.

use crate::api::{Runtime, Source, SourceArrival};
use crate::nodes::{EngineKind, NodeConfig};
use crate::report::RunReport;
use crate::roles::{Dest, OutputFold, RoleIo, SlaveRole};
use std::cell::RefCell;
use std::rc::Rc;
use windjoin_core::probe::{CountedEngine, ExactEngine};
use windjoin_core::{Decision, MasterCore, OutPair, ProbeEngine, Tuple, WorkStats};
use windjoin_metrics::{TimeSeries, UsageSet};
use windjoin_net::Message;
use windjoin_sim::{Actor, CostModel, CpuTimeline, CpuWork, Ctx, Link, LinkSpec, Sim};

/// Wire overhead of a batch message beyond its tuples (scheme + count).
const BATCH_HEADER_BYTES: u64 = 5;
/// Wire size of a move directive.
const DIRECTIVE_BYTES: u64 = 64;
/// CPU cost model (calibrated to the paper's testbed class).
const COST: CostModel = CostModel::paper_calibrated();
/// Master → slave distribution path link model.
const DIST_LINK: LinkSpec = LinkSpec::distribution_default();
/// Slave → collector result path link model.
const COLLECTOR_LINK: LinkSpec = LinkSpec::collector_default();

/// Runs one simulated experiment.
pub fn run_sim(cfg: &NodeConfig) -> RunReport {
    cfg.validate(Runtime::Sim).expect("invalid run configuration");
    match cfg.engine {
        EngineKind::Counted => run_engine::<CountedEngine>(cfg),
        EngineKind::Exact => run_engine::<ExactEngine>(cfg),
    }
}

fn to_cpuwork(w: &WorkStats) -> CpuWork {
    CpuWork {
        comparisons: w.comparisons,
        emitted: w.emitted,
        inserts: w.inserts,
        hash_ops: w.hash_ops,
        blocks_touched: w.blocks_touched,
        tuples_moved: w.tuples_moved,
    }
}

/// Mutable results shared between the actor and the caller.
struct Shared {
    fold: OutputFold,
    usage: UsageSet,
    work: WorkStats,
    tuples_in: u64,
    max_window_blocks: usize,
    master_peak_buffer: u64,
    dod_trace: TimeSeries,
    epoch_trace: TimeSeries,
    final_degree: usize,
    moves: u64,
    /// Comm/CPU microseconds accumulated since the last reorg epoch —
    /// the adaptive-epoch controller's feedback signal.
    comm_window_us: u64,
    cpu_window_us: u64,
}

/// Events; `ToSlave` carries a frame sent by rank `from` at `sent_us`.
enum Ev {
    Slot { slot: u32 },
    EpochEnd,
    Reorg,
    ToSlave { slave: usize, from: usize, msg: Message, sent_us: u64 },
    TryProcess { slave: usize },
    ToMaster { slave: usize, msg: Message },
}

struct SlaveSim<E: ProbeEngine> {
    role: SlaveRole<E>,
    cpu: CpuTimeline,
}

/// The simulated slaves' I/O: frames a role sends wait in `outbox`
/// until the driver knows when the work behind them ends; the pairs of
/// a drain collect in `pairs` for one emission.
#[derive(Default)]
struct SimIo {
    outbox: Vec<(Dest, Message)>,
    pairs: Vec<OutPair>,
}

impl RoleIo for SimIo {
    fn send(&mut self, to: Dest, msg: Message) {
        self.outbox.push((to, msg));
    }

    fn outputs(&mut self, pairs: &[OutPair]) {
        self.pairs.extend_from_slice(pairs);
    }
}

struct ClusterSim<E: ProbeEngine> {
    cfg: NodeConfig,
    warmup_us: u64,
    master: MasterCore,
    slaves: Vec<SlaveSim<E>>,
    src: Box<dyn Source + Send>,
    next_arrival: Option<SourceArrival>,
    nic: Link,
    shared: Rc<RefCell<Shared>>,
    io: SimIo,
    /// Current distribution epoch; fixed unless `cfg.adaptive_epoch`.
    td_us: u64,
}

impl<E: ProbeEngine + Clone> ClusterSim<E> {
    fn pull_arrivals(&mut self, now: u64) {
        let mut shared = self.shared.borrow_mut();
        while let Some(a) = self.next_arrival.take() {
            if a.at_us > now {
                self.next_arrival = Some(a);
                break;
            }
            self.master.on_arrival(Tuple::new(a.side, a.at_us, a.key, a.seq));
            shared.tuples_in += 1;
            self.next_arrival = self.src.next_arrival();
        }
        shared.master_peak_buffer = shared.master_peak_buffer.max(self.master.peak_buffer_bytes());
    }

    /// Link time of a supplier→consumer state transfer (not via the
    /// master NIC): occupancy priced by the distribution link spec.
    fn transfer_us(&self, msg: &Message) -> u64 {
        let Message::State { state, pending, .. } = msg else {
            unreachable!("a simulated slave sends {msg:?} to a slave")
        };
        let tuple_bytes = self.cfg.params.tuple_bytes;
        let bytes = state.transfer_bytes(tuple_bytes) + (pending.len() * tuple_bytes) as u64;
        DIST_LINK.overhead_us
            + (bytes as f64 * DIST_LINK.us_per_byte).ceil() as u64
            + DIST_LINK.latency_us
    }

    fn charge_cpu(&mut self, slave: usize, now: u64, work: &WorkStats) -> (u64, u64) {
        let us = COST.cpu_us(&to_cpuwork(work));
        let (start, end) = self.slaves[slave].cpu.run(now, us);
        let mut shared = self.shared.borrow_mut();
        shared.usage.node_mut(slave).add_cpu(start, end);
        shared.cpu_window_us += end - start;
        shared.work.add(work);
        (start, end)
    }
}

impl<E: ProbeEngine + Clone> Actor<Ev> for ClusterSim<E> {
    fn on_start(&mut self, ctx: &mut Ctx<Ev>) {
        let td = self.td_us;
        let ng = self.cfg.params.ng;
        for slot in 0..ng {
            ctx.send_self(windjoin_core::subgroup::slot_offset_us(slot, ng, td), Ev::Slot { slot });
        }
        ctx.send_self(td, Ev::EpochEnd);
        ctx.send_self(self.cfg.params.reorg_epoch_us, Ev::Reorg);
    }

    fn on_msg(&mut self, msg: Ev, ctx: &mut Ctx<Ev>) {
        let now = ctx.now();
        match msg {
            Ev::Slot { slot } => {
                self.pull_arrivals(now);
                for (slave, batch) in self.master.drain_for_slot(slot) {
                    let bytes =
                        BATCH_HEADER_BYTES + (batch.len() * self.cfg.params.tuple_bytes) as u64;
                    let tr = self.nic.send(now, bytes);
                    let msg = Message::Batch(batch);
                    ctx.send_at(
                        tr.delivered_us,
                        ctx.self_id(),
                        Ev::ToSlave { slave, from: 0, msg, sent_us: now },
                    );
                }
                ctx.send_self(self.td_us, Ev::Slot { slot });
            }

            Ev::ToSlave { slave, from, msg: Message::Batch(batch), sent_us } => {
                let bytes = BATCH_HEADER_BYTES + (batch.len() * self.cfg.params.tuple_bytes) as u64;
                // Blocking-receive time: from when the slave posted its
                // receive (its slot start, unless its CPU was still busy)
                // until delivery...
                let busy_until = self.slaves[slave].cpu.busy_until();
                let wait_from = sent_us.max(busy_until).min(now);
                // ...plus receive-side deserialization, which occupies
                // the slave CPU (mpiJava's receive path is CPU-bound).
                let deser = COST.deser_us(bytes);
                let (ds, de) = self.slaves[slave].cpu.run(now, deser);
                {
                    let mut sh = self.shared.borrow_mut();
                    sh.usage.node_mut(slave).add_comm(wait_from, now);
                    sh.usage.node_mut(slave).add_comm(ds, de);
                    sh.comm_window_us += (now - wait_from) + (de - ds);
                }
                self.slaves[slave].role.batch(from, &batch, None);
                ctx.send_at(de, ctx.self_id(), Ev::TryProcess { slave });
            }

            Ev::ToSlave { slave, from, msg, .. } => {
                // A move directive (the supplier extracts) or a state
                // transfer (the consumer installs and acks).
                let installs = matches!(msg, Message::State { .. });
                let mut work = WorkStats::default();
                self.slaves[slave].role.message(from, msg, &mut work, &mut self.io);
                let (_, end) = self.charge_cpu(slave, now, &work);
                let from = self.cfg.slave_rank(slave);
                for (to, msg) in std::mem::take(&mut self.io.outbox) {
                    let (at, ev) = match to {
                        Dest::Slave(to) => (
                            end + self.transfer_us(&msg),
                            Ev::ToSlave { slave: to, from, msg, sent_us: end },
                        ),
                        // The completion ack back to the master.
                        Dest::Master(_) => {
                            (end + DIST_LINK.latency_us, Ev::ToMaster { slave, msg })
                        }
                        Dest::Collector => unreachable!("a simulated slave sends {msg:?}"),
                    };
                    ctx.send_at(at, ctx.self_id(), ev);
                }
                if installs {
                    // Whatever moved in may be processable immediately.
                    ctx.send_at(
                        end.max(self.slaves[slave].cpu.busy_until()),
                        ctx.self_id(),
                        Ev::TryProcess { slave },
                    );
                }
            }

            Ev::TryProcess { slave } => {
                if self.slaves[slave].role.core().backlog_tuples() == 0 {
                    return;
                }
                let busy_until = self.slaves[slave].cpu.busy_until();
                if busy_until > now {
                    ctx.send_at(busy_until, ctx.self_id(), Ev::TryProcess { slave });
                    return;
                }
                let mut work = WorkStats::default();
                debug_assert!(self.io.pairs.is_empty());
                // The join really runs here; outputs are exact.
                self.slaves[slave].role.drain(&mut work, &mut self.io);
                let (_, end) = self.charge_cpu(slave, now, &work);
                let mut shared = self.shared.borrow_mut();
                shared.fold.fold(&self.io.pairs, end + COLLECTOR_LINK.latency_us);
                self.io.pairs.clear();
            }

            Ev::ToMaster { slave, msg } => {
                let Message::MoveComplete { pid } = msg else {
                    unreachable!("the simulated master gets {msg:?}")
                };
                let acked = self.master.on_move_complete(pid, slave);
                debug_assert!(acked, "simulated moves are never superseded");
            }

            Ev::EpochEnd => {
                for s in &mut self.slaves {
                    s.role.record_occupancy();
                }
                let mut shared = self.shared.borrow_mut();
                if now >= self.warmup_us {
                    let peak = self
                        .slaves
                        .iter()
                        .map(|s| s.role.core().window_blocks())
                        .max()
                        .unwrap_or(0);
                    shared.max_window_blocks = shared.max_window_blocks.max(peak);
                }
                shared.master_peak_buffer =
                    shared.master_peak_buffer.max(self.master.peak_buffer_bytes());
                drop(shared);
                ctx.send_self(self.td_us, Ev::EpochEnd);
            }

            Ev::Reorg => {
                for s in self.master.active_slaves() {
                    let f = self.slaves[s].role.take_avg_occupancy();
                    self.master.on_occupancy(s, f);
                }
                // No slave dies in the simulator, so no reorg re-homes.
                let Decision::Reorg { moves, .. } = self.master.plan_reorg(self.cfg.adaptive_dod)
                else {
                    unreachable!("plan_reorg decides a reorg")
                };
                {
                    let mut shared = self.shared.borrow_mut();
                    shared.dod_trace.record(now, self.master.degree() as f64);
                    shared.final_degree = self.master.degree();
                    shared.moves += moves.len() as u64;
                    // §VIII future work: dynamic distribution epoch.
                    if let Some(tuning) = &self.cfg.adaptive_epoch {
                        let wall =
                            self.master.degree() as f64 * self.cfg.params.reorg_epoch_us as f64;
                        let comm_frac = shared.comm_window_us as f64 / wall;
                        let busy = shared.comm_window_us + shared.cpu_window_us;
                        let idle_frac = 1.0 - (busy as f64 / wall).min(1.0);
                        self.td_us = tuning.next_epoch(self.td_us, comm_frac, idle_frac);
                    }
                    shared.epoch_trace.record(now, self.td_us as f64 / 1e6);
                    shared.comm_window_us = 0;
                    shared.cpu_window_us = 0;
                }
                // Directives travel through the same FIFO NIC as batches:
                // they can never overtake tuples already sent (§IV-C's
                // synchronisation made concrete).
                for mv in moves {
                    let tr = self.nic.send(now, DIRECTIVE_BYTES);
                    let msg = Message::MoveDirective { pid: mv.pid, to: mv.to as u32 };
                    let ev = Ev::ToSlave { slave: mv.from, from: 0, msg, sent_us: now };
                    ctx.send_at(tr.delivered_us, ctx.self_id(), ev);
                }
                ctx.send_self(self.cfg.params.reorg_epoch_us, Ev::Reorg);
            }
        }
    }
}

fn run_engine<E: ProbeEngine + Clone + 'static>(cfg: &NodeConfig) -> RunReport {
    let run_us = cfg.run.as_micros() as u64;
    let warmup_us = cfg.warmup.as_micros() as u64;
    // One shared `Params` for the master and every simulated slave.
    let params = std::sync::Arc::new(cfg.params.clone());
    let master = MasterCore::new(
        std::sync::Arc::clone(&params),
        cfg.total_slaves,
        cfg.slaves,
        cfg.seed ^ 0x00AD_57E2_0000_0001,
    );
    // The simulator models one master and no checkpoints.
    let cfg = &NodeConfig { masters: 1, checkpoint_every: 0, ..cfg.clone() };
    let slaves: Vec<SlaveSim<E>> = (0..cfg.total_slaves)
        .map(|i| SlaveSim { role: SlaveRole::new(i, cfg), cpu: CpuTimeline::new() })
        .collect();

    // The simulator never carries wire payloads (`validate` rejects a
    // payload width).
    let mut src = cfg.source_spec().open(cfg.seed, 0);
    let next_arrival = src.next_arrival();

    let shared = Rc::new(RefCell::new(Shared {
        fold: OutputFold::new(cfg),
        usage: UsageSet::new(cfg.total_slaves, warmup_us),
        work: WorkStats::default(),
        tuples_in: 0,
        max_window_blocks: 0,
        master_peak_buffer: 0,
        dod_trace: TimeSeries::new(cfg.params.reorg_epoch_us),
        epoch_trace: TimeSeries::new(cfg.params.reorg_epoch_us),
        final_degree: cfg.slaves,
        moves: 0,
        comm_window_us: 0,
        cpu_window_us: 0,
    }));

    let actor = ClusterSim {
        cfg: cfg.clone(),
        warmup_us,
        master,
        slaves,
        src,
        next_arrival,
        nic: Link::new(DIST_LINK),
        shared: Rc::clone(&shared),
        io: SimIo::default(),
        td_us: cfg.params.dist_epoch_us,
    };

    let mut sim: Sim<Ev> = Sim::new();
    sim.add_actor(Box::new(actor));
    sim.run_until(run_us);
    drop(sim);

    let shared = Rc::try_unwrap(shared).ok().expect("actor dropped").into_inner();
    let mut usage = shared.usage;
    // Idle time: measured window minus CPU and communication, per slave.
    let window_us = run_us - warmup_us;
    for i in 0..cfg.total_slaves {
        let busy_us = {
            let n = usage.node(i);
            ((n.cpu_s() + n.comm_s()) * 1e6) as u64
        };
        let idle = window_us.saturating_sub(busy_us);
        usage.node_mut(i).add_idle(warmup_us, warmup_us + idle);
    }

    let fold = shared.fold;
    RunReport {
        outputs: fold.delay.count(),
        delay: fold.delay,
        usage,
        outputs_total: fold.outputs_total,
        output_checksum: fold.checksum,
        captured: fold.captured,
        work: shared.work,
        tuples_in: shared.tuples_in,
        max_window_blocks: shared.max_window_blocks,
        peak_state_bytes: 0,
        batches: 0,
        master_peak_buffer_bytes: shared.master_peak_buffer,
        dod_trace: shared.dod_trace,
        epoch_trace: shared.epoch_trace,
        final_degree: shared.final_degree,
        moves: shared.moves,
        dead_slaves: Vec::new(), // the simulator injects no failures
        run_us,
        warmup_us,
    }
}
