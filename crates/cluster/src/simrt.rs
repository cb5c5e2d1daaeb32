//! The execution-driven cluster simulator.
//!
//! One `ClusterSim` actor owns the master's [`MasterRole`], one
//! [`SlaveRole`] per slave and the clocks, and advances through
//! self-addressed events on the deterministic `windjoin-sim` engine:
//!
//! * `Slot` — a distribution-epoch slot (§IV-B, §V-B): arrivals are
//!   ingested into the master's mini-buffers through the node loops'
//!   `Ingest`, then drained per slave and
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
//! * `ToMaster` — a slave's `MoveComplete` reaches the master's role.
//! * `EpochEnd` — slaves sample their buffer occupancy (§IV-C metric).
//! * `Reorg` — each active slave's average occupancy reaches the
//!   master's role as one `Occupancy` report, and the role runs the
//!   repartitioning protocol (§IV-C) and degree-of-declustering
//!   adaptation (§V-A); its move directives travel through the same FIFO
//!   NIC as tuple batches, so a directive can never overtake the batches
//!   sent before it.
//!
//! The master and the slaves speak the real protocol through the same
//! roles the node loops drive. The simulator runs one master, which
//! plans and commits exactly as a lone real leader does, and no
//! checkpoints.
//! Everything observable (join outputs, reorganization decisions,
//! occupancy metrics) is exact; only time is modelled: CPU time from the
//! work the join charges (the paper's nested-loop cost, not the host's
//! kernel time) and network time from the link models.
//!
//! The run is described by the same [`NodeConfig`] the real-time
//! runtimes read; only the simulator honours `total_slaves > slaves`
//! (spare slaves for adaptive declustering) and `adaptive_epoch`.

use crate::api::Runtime;
use crate::nodes::{Ingest, NodeConfig};
use crate::report::RunReport;
use crate::roles::{Dest, MasterRole, OutputFold, RoleIo, SlaveRole};
use std::cell::RefCell;
use std::rc::Rc;
use windjoin_core::{OutPair, WorkStats};
use windjoin_metrics::{TimeSeries, UsageSet};
use windjoin_net::{Message, WireStats};
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

/// Events; `ToSlave` carries a frame sent by rank `from` at `sent_us`,
/// `ToMaster` one sent by slave `slave`.
enum Ev {
    Slot { slot: u32 },
    EpochEnd,
    Reorg,
    ToSlave { slave: usize, from: usize, msg: Message, sent_us: u64 },
    TryProcess { slave: usize },
    ToMaster { slave: usize, msg: Message },
}

struct SlaveSim {
    role: SlaveRole,
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

/// The simulated cluster and everything it measures; the engine drives
/// it through a [`Handle`] and hands it back when the run ends.
struct ClusterSim {
    cfg: NodeConfig,
    warmup_us: u64,
    master: MasterRole,
    slaves: Vec<SlaveSim>,
    ingest: Ingest,
    nic: Link,
    io: SimIo,
    /// Current distribution epoch; fixed unless `cfg.adaptive_epoch`.
    td_us: u64,
    fold: OutputFold,
    usage: UsageSet,
    work: WorkStats,
    max_window_blocks: usize,
    epoch_trace: TimeSeries,
    /// Comm/CPU microseconds accumulated since the last reorg epoch —
    /// the adaptive-epoch controller's feedback signal.
    comm_window_us: u64,
    cpu_window_us: u64,
}

/// The engine's handle on the one [`ClusterSim`].
struct Handle(Rc<RefCell<ClusterSim>>);

impl Actor<Ev> for Handle {
    fn on_start(&mut self, ctx: &mut Ctx<Ev>) {
        self.0.borrow_mut().on_start(ctx);
    }

    fn on_msg(&mut self, msg: Ev, ctx: &mut Ctx<Ev>) {
        self.0.borrow_mut().on_msg(msg, ctx);
    }
}

impl ClusterSim {
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
        self.usage.node_mut(slave).add_cpu(start, end);
        self.cpu_window_us += end - start;
        self.work.add(work);
        (start, end)
    }

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
                self.ingest.pull_until(self.master.core_mut(), now);
                for (slave, batch) in self.master.core_mut().drain_for_slot(slot) {
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
                self.usage.node_mut(slave).add_comm(wait_from, now);
                self.usage.node_mut(slave).add_comm(ds, de);
                self.comm_window_us += (now - wait_from) + (de - ds);
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
                self.fold.fold(&self.io.pairs, end + COLLECTOR_LINK.latency_us);
                self.io.pairs.clear();
            }

            Ev::ToMaster { slave, msg } => {
                let Message::MoveComplete { pid } = msg else {
                    unreachable!("the simulated master gets {msg:?}")
                };
                self.master.message(self.cfg.slave_rank(slave), msg, now, &mut self.io);
                let pending = self.master.core().pending_moves();
                debug_assert!(pending.iter().all(|m| m.pid != pid), "a superseded simulated move");
                debug_assert!(self.io.outbox.is_empty(), "the master answered an ack");
            }

            Ev::EpochEnd => {
                for s in &mut self.slaves {
                    s.role.record_occupancy();
                }
                if now >= self.warmup_us {
                    let peak = self
                        .slaves
                        .iter()
                        .map(|s| s.role.core().window_blocks())
                        .max()
                        .unwrap_or(0);
                    self.max_window_blocks = self.max_window_blocks.max(peak);
                }
                ctx.send_self(self.td_us, Ev::EpochEnd);
            }

            Ev::Reorg => {
                // One report per active slave: its average over the
                // closing reorganization epoch, which the role's average
                // of one sample leaves exact.
                for s in self.master.core().active_slaves() {
                    let occupancy = Message::Occupancy(self.slaves[s].role.take_avg_occupancy());
                    self.master.message(self.cfg.slave_rank(s), occupancy, now, &mut self.io);
                }
                // One master commits at once: the directives are in the
                // outbox, in plan order. No slave dies in the simulator,
                // so no reorg re-homes.
                self.master.reorg(now, &mut self.io);
                // §VIII future work: dynamic distribution epoch.
                if let Some(tuning) = &self.cfg.adaptive_epoch {
                    let degree = self.master.core().degree();
                    let wall = degree as f64 * self.cfg.params.reorg_epoch_us as f64;
                    let comm_frac = self.comm_window_us as f64 / wall;
                    let busy = self.comm_window_us + self.cpu_window_us;
                    let idle_frac = 1.0 - (busy as f64 / wall).min(1.0);
                    self.td_us = tuning.next_epoch(self.td_us, comm_frac, idle_frac);
                }
                self.epoch_trace.record(now, self.td_us as f64 / 1e6);
                self.comm_window_us = 0;
                self.cpu_window_us = 0;
                // Directives travel through the same FIFO NIC as batches:
                // they can never overtake tuples already sent (§IV-C's
                // synchronisation made concrete).
                for (to, msg) in std::mem::take(&mut self.io.outbox) {
                    let (Dest::Slave(slave), Message::MoveDirective { .. }) = (to, &msg) else {
                        unreachable!("the simulated master sends {msg:?} to {to:?}")
                    };
                    let tr = self.nic.send(now, DIRECTIVE_BYTES);
                    let ev = Ev::ToSlave { slave, from: 0, msg, sent_us: now };
                    ctx.send_at(tr.delivered_us, ctx.self_id(), ev);
                }
                ctx.send_self(self.cfg.params.reorg_epoch_us, Ev::Reorg);
            }
        }
    }
}

/// Runs one simulated experiment.
pub fn run_sim(cfg: &NodeConfig) -> RunReport {
    cfg.validate(Runtime::Sim).expect("invalid run configuration");
    let run_us = cfg.run.as_micros() as u64;
    let warmup_us = cfg.warmup.as_micros() as u64;
    // The simulator models one master and no checkpoints.
    let cfg = &NodeConfig { masters: 1, checkpoint_every: 0, ..cfg.clone() };
    let master = MasterRole::new(cfg, 0, cfg.seed ^ 0x00AD_57E2_0000_0001);
    let slaves: Vec<SlaveSim> = (0..cfg.total_slaves)
        .map(|i| SlaveSim { role: SlaveRole::new(i, cfg), cpu: CpuTimeline::new() })
        .collect();

    let cluster = Rc::new(RefCell::new(ClusterSim {
        cfg: cfg.clone(),
        warmup_us,
        master,
        slaves,
        // The simulator never carries wire payloads (`validate` rejects
        // a payload width).
        ingest: Ingest::open(cfg),
        nic: Link::new(DIST_LINK),
        io: SimIo::default(),
        td_us: cfg.params.dist_epoch_us,
        fold: OutputFold::new(cfg),
        usage: UsageSet::new(cfg.total_slaves, warmup_us),
        work: WorkStats::default(),
        max_window_blocks: 0,
        epoch_trace: TimeSeries::new(cfg.params.reorg_epoch_us),
        comm_window_us: 0,
        cpu_window_us: 0,
    }));

    let mut sim: Sim<Ev> = Sim::new();
    sim.add_actor(Box::new(Handle(Rc::clone(&cluster))));
    sim.run_until(run_us);
    drop(sim);

    let cluster = Rc::try_unwrap(cluster).ok().expect("actor dropped").into_inner();
    let master = cluster.master.outcome(cluster.ingest.tuples_in, true, WireStats::default());
    let mut usage = cluster.usage;
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

    let fold = cluster.fold;
    RunReport {
        outputs: fold.delay.count(),
        delay: fold.delay,
        usage,
        outputs_total: fold.outputs_total,
        output_checksum: fold.checksum,
        captured: fold.captured,
        work: cluster.work,
        tuples_in: master.tuples_in,
        max_window_blocks: cluster.max_window_blocks,
        peak_state_bytes: 0,
        batches: 0,
        outputs_frames: 0,
        rank_cpu_us: Vec::new(),
        master_peak_buffer_bytes: master.peak_buffer_bytes,
        dod_trace: master.dod_trace,
        epoch_trace: cluster.epoch_trace,
        final_degree: master.final_degree,
        moves: master.moves,
        dead_slaves: Vec::new(), // the simulator injects no failures
        run_us,
        warmup_us,
    }
}
