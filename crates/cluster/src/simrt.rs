//! The execution-driven cluster simulator.
//!
//! One `ClusterSim` actor owns the master, the slaves and the clocks,
//! and advances through self-addressed events on the deterministic
//! `windjoin-sim` engine:
//!
//! * `Slot` — a distribution-epoch slot (§IV-B, §V-B): arrivals are
//!   pulled into the master's mini-buffers, then drained per slave and
//!   pushed through the **serializing master NIC** ([`windjoin_sim::Link`]),
//!   which is what produces the per-slave communication-overhead
//!   divergence of Figs. 11–12.
//! * `Deliver`/`TryProcess` — a slave receives a batch (blocking-recv
//!   time charged as communication overhead) and processes it when its
//!   virtual CPU frees up; join work is *really executed* and its counted
//!   cost is charged through the calibrated [`windjoin_sim::CostModel`].
//!   The cost model and both link models are fixed constants of this
//!   driver (`COST`, `DIST_LINK`, `COLLECTOR_LINK`), not settings.
//! * `EpochEnd` — slaves sample their buffer occupancy (§IV-C metric).
//! * `Reorg`/`Directive`/`StateArrive`/`MoveDone` — the repartitioning
//!   protocol (§IV-C) and degree-of-declustering adaptation (§V-A);
//!   move directives travel through the same FIFO NIC as tuple batches,
//!   so a directive can never overtake the batches sent before it.
//!
//! Everything observable (join outputs, reorganization decisions,
//! occupancy metrics) is exact; only time is modelled. See DESIGN.md §3.
//!
//! The run is described by the same [`NodeConfig`] the real-time
//! runtimes read; only the simulator honours `total_slaves > slaves`
//! (spare slaves for adaptive declustering) and `adaptive_epoch`.

use crate::api::{Runtime, Source, SourceArrival};
use crate::nodes::{EngineKind, NodeConfig};
use crate::report::RunReport;
use std::cell::RefCell;
use std::rc::Rc;
use windjoin_core::probe::{CountedEngine, ExactEngine};
use windjoin_core::{
    Decision, GroupState, MasterCore, MovePlan, OutPair, ProbeEngine, SlaveCore, Tuple, WorkStats,
};
use windjoin_metrics::{DelayTracker, TimeSeries, UsageSet};
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
    delay: DelayTracker,
    usage: UsageSet,
    outputs_total: u64,
    checksum: u64,
    captured: Vec<OutPair>,
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

enum Ev {
    Slot { slot: u32 },
    EpochEnd,
    Reorg,
    Deliver { slave: usize, batch: Vec<Tuple>, bytes: u64, slot_start: u64 },
    TryProcess { slave: usize },
    Directive { mv: MovePlan },
    StateArrive { mv: MovePlan, state: GroupState, pending: Vec<Tuple> },
    MoveDone { mv: MovePlan },
}

struct SlaveSim<E: ProbeEngine> {
    core: SlaveCore<E>,
    cpu: CpuTimeline,
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
    scratch: Vec<OutPair>,
    /// Current distribution epoch; fixed unless `cfg.adaptive_epoch`.
    td_us: u64,
}

impl<E: ProbeEngine> ClusterSim<E> {
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

    /// Records outputs emitted at `emit_us`.
    fn emit(&mut self, emit_us: u64) {
        // Streaming delivery in virtual-time order.
        if let Some(sink) = &self.cfg.sink {
            sink.deliver(&self.scratch);
        }
        let mut shared = self.shared.borrow_mut();
        for p in &self.scratch {
            shared.outputs_total += 1;
            shared.checksum ^= p.digest();
            shared.delay.record(emit_us, p.newest_t());
            if self.cfg.capture_outputs {
                shared.captured.push(*p);
            }
        }
        self.scratch.clear();
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

impl<E: ProbeEngine> Actor<Ev> for ClusterSim<E> {
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
                    ctx.send_at(
                        tr.delivered_us,
                        ctx.self_id(),
                        Ev::Deliver { slave, batch, bytes, slot_start: now },
                    );
                }
                ctx.send_self(self.td_us, Ev::Slot { slot });
            }

            Ev::Deliver { slave, batch, bytes, slot_start } => {
                // Blocking-receive time: from when the slave posted its
                // receive (its slot start, unless its CPU was still busy)
                // until delivery...
                let busy_until = self.slaves[slave].cpu.busy_until();
                let wait_from = slot_start.max(busy_until).min(now);
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
                self.slaves[slave].core.receive_batch(batch);
                ctx.send_at(de, ctx.self_id(), Ev::TryProcess { slave });
            }

            Ev::TryProcess { slave } => {
                if self.slaves[slave].core.backlog_tuples() == 0 {
                    return;
                }
                let busy_until = self.slaves[slave].cpu.busy_until();
                if busy_until > now {
                    ctx.send_at(busy_until, ctx.self_id(), Ev::TryProcess { slave });
                    return;
                }
                let mut work = WorkStats::default();
                debug_assert!(self.scratch.is_empty());
                // The join really runs here; outputs are exact.
                let mut out = std::mem::take(&mut self.scratch);
                self.slaves[slave].core.process_pending(&mut out, &mut work);
                self.scratch = out;
                let (_, end) = self.charge_cpu(slave, now, &work);
                self.emit(end + COLLECTOR_LINK.latency_us);
            }

            Ev::EpochEnd => {
                for s in &mut self.slaves {
                    s.core.record_occupancy();
                }
                let mut shared = self.shared.borrow_mut();
                if now >= self.warmup_us {
                    let peak =
                        self.slaves.iter().map(|s| s.core.window_blocks()).max().unwrap_or(0);
                    shared.max_window_blocks = shared.max_window_blocks.max(peak);
                }
                shared.master_peak_buffer =
                    shared.master_peak_buffer.max(self.master.peak_buffer_bytes());
                drop(shared);
                ctx.send_self(self.td_us, Ev::EpochEnd);
            }

            Ev::Reorg => {
                for s in self.master.active_slaves() {
                    let f = self.slaves[s].core.take_avg_occupancy();
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
                    ctx.send_at(tr.delivered_us, ctx.self_id(), Ev::Directive { mv });
                }
                ctx.send_self(self.cfg.params.reorg_epoch_us, Ev::Reorg);
            }

            Ev::Directive { mv } => {
                // Supplier extracts the partition-group (state mover).
                let mut work = WorkStats::default();
                let (state, pending) = self.slaves[mv.from].core.extract_group(mv.pid, &mut work);
                let (_, end) = self.charge_cpu(mv.from, now, &work);
                // Direct supplier→consumer transfer (not via the master
                // NIC): occupancy priced by the distribution link spec.
                let bytes = state.transfer_bytes(self.cfg.params.tuple_bytes)
                    + (pending.len() * self.cfg.params.tuple_bytes) as u64;
                let delivered = end
                    + DIST_LINK.overhead_us
                    + (bytes as f64 * DIST_LINK.us_per_byte).ceil() as u64
                    + DIST_LINK.latency_us;
                ctx.send_at(delivered, ctx.self_id(), Ev::StateArrive { mv, state, pending });
            }

            Ev::StateArrive { mv, state, pending } => {
                let mut work = WorkStats::default();
                self.slaves[mv.to].core.install_group(mv.pid, state, pending, &mut work);
                let (_, end) = self.charge_cpu(mv.to, now, &work);
                // Completion ack back to the master.
                ctx.send_at(end + DIST_LINK.latency_us, ctx.self_id(), Ev::MoveDone { mv });
                // Whatever moved in may be processable immediately.
                ctx.send_at(
                    end.max(self.slaves[mv.to].cpu.busy_until()),
                    ctx.self_id(),
                    Ev::TryProcess { slave: mv.to },
                );
            }

            Ev::MoveDone { mv } => {
                let acked = self.master.on_move_complete(mv.pid, mv.to);
                debug_assert!(acked, "simulated moves are never superseded");
            }
        }
    }
}

fn run_engine<E: ProbeEngine + 'static>(cfg: &NodeConfig) -> RunReport {
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
    let mut slaves: Vec<SlaveSim<E>> = (0..cfg.total_slaves)
        .map(|i| {
            let mut core = SlaveCore::new(i, std::sync::Arc::clone(&params));
            core.set_residual(cfg.residual.clone());
            SlaveSim { core, cpu: CpuTimeline::new() }
        })
        .collect();
    for (slave, pids) in master.initial_assignment() {
        for pid in pids {
            slaves[slave].core.create_group(pid);
        }
    }

    // The simulator never carries wire payloads (`validate` rejects a
    // payload width).
    let mut src = cfg.source_spec().open(cfg.seed, 0);
    let next_arrival = src.next_arrival();

    let shared = Rc::new(RefCell::new(Shared {
        delay: DelayTracker::new(warmup_us),
        usage: UsageSet::new(cfg.total_slaves, warmup_us),
        outputs_total: 0,
        checksum: 0,
        captured: Vec::new(),
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
        scratch: Vec::new(),
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

    RunReport {
        outputs: shared.delay.count(),
        delay: shared.delay,
        usage,
        outputs_total: shared.outputs_total,
        output_checksum: shared.checksum,
        captured: shared.captured,
        work: shared.work,
        tuples_in: shared.tuples_in,
        max_window_blocks: shared.max_window_blocks,
        peak_state_bytes: 0,
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
