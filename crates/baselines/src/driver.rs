//! Shared simulation driver for the baseline routing strategies.
//!
//! A baseline is a [`Router`]: a policy mapping each arriving tuple to
//! one or more `(node, action)` deliveries. The driver supplies the rest
//! — the serializing master NIC, per-node virtual CPUs, the really-
//! executing join state (with fine tuning), and the same cost model and
//! metrics as the `windjoin` runs — so experiment X1 compares routing
//! policies and nothing else.

use crate::report::BaselineReport;
use std::cell::RefCell;
use std::rc::Rc;
use windjoin_cluster::roles::OutputFold;
use windjoin_cluster::{NodeConfig, Runtime, Source, SourceArrival};
use windjoin_core::{ExactEngine, OutPair, PartitionGroup, Tuple, WorkStats};
use windjoin_metrics::UsageSet;
use windjoin_sim::{Actor, CostModel, CpuTimeline, CpuWork, Ctx, Link, LinkSpec, Sim};

/// What a node does with a delivered tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Normal join-module processing: probe (head-block protocol) and
    /// store.
    ProbeStore,
    /// Store sealed, without probing (ATR pre-warm copies).
    StoreOnly,
    /// Probe without storing (CTR probe hops).
    ProbeOnly,
    /// Probe the sealed window, then store sealed (CTR storage hop:
    /// the tuple's probes happen on every node, so local storage must
    /// be immediately visible to later probes — the head-block fresh
    /// protocol does not apply across nodes).
    ProbeThenStore,
}

/// One routed delivery.
#[derive(Debug, Clone, Copy)]
pub struct Routed {
    /// The tuple.
    pub tup: Tuple,
    /// What the receiving node does with it.
    pub action: Action,
}

/// A tuple-routing policy.
pub trait Router {
    /// Appends this tuple's deliveries as `(node, routed)` pairs, in
    /// transmission order.
    fn route(&mut self, tup: Tuple, nodes: usize, out: &mut Vec<(usize, Routed)>);
}

const BATCH_HEADER_BYTES: u64 = 5;
/// The simulator's calibrated CPU cost model.
const COST: CostModel = CostModel::paper_calibrated();
/// The simulator's master → node distribution link.
const DIST_LINK: LinkSpec = LinkSpec::distribution_default();
/// The simulator's node → collector result link.
const COLLECTOR_LINK: LinkSpec = LinkSpec::collector_default();

struct BNode {
    group: PartitionGroup<ExactEngine>,
    cpu: CpuTimeline,
    pending: Vec<Routed>,
    watermark: u64,
}

struct Shared {
    fold: OutputFold,
    usage: UsageSet,
    work: WorkStats,
    tuples_in: u64,
    network_bytes: u64,
}

enum Ev {
    Slot,
    Deliver { node: usize, batch: Vec<Routed>, bytes: u64, slot_start: u64 },
    TryProcess { node: usize },
}

struct BaselineSim<R: Router> {
    cfg: NodeConfig,
    router: R,
    nodes: Vec<BNode>,
    src: Box<dyn Source + Send>,
    next_arrival: Option<SourceArrival>,
    nic: Link,
    shared: Rc<RefCell<Shared>>,
    route_scratch: Vec<(usize, Routed)>,
    out_scratch: Vec<OutPair>,
}

impl<R: Router> Actor<Ev> for BaselineSim<R> {
    fn on_start(&mut self, ctx: &mut Ctx<Ev>) {
        ctx.send_self(0, Ev::Slot);
    }

    fn on_msg(&mut self, msg: Ev, ctx: &mut Ctx<Ev>) {
        let now = ctx.now();
        match msg {
            Ev::Slot => {
                // Route all arrivals due by now into per-node batches.
                let n = self.nodes.len();
                let mut batches: Vec<Vec<Routed>> = vec![Vec::new(); n];
                {
                    let mut sh = self.shared.borrow_mut();
                    while let Some(a) = self.next_arrival.take_if(|a| a.at_us <= now) {
                        sh.tuples_in += 1;
                        let tup = Tuple::new(a.side, a.at_us, a.key, a.seq);
                        self.router.route(tup, n, &mut self.route_scratch);
                        for (node, routed) in self.route_scratch.drain(..) {
                            batches[node].push(routed);
                        }
                        self.next_arrival = self.src.next_arrival();
                    }
                }
                for (node, batch) in batches.into_iter().enumerate() {
                    let bytes =
                        BATCH_HEADER_BYTES + (batch.len() * self.cfg.params.tuple_bytes) as u64;
                    self.shared.borrow_mut().network_bytes += bytes;
                    let tr = self.nic.send(now, bytes);
                    ctx.send_at(
                        tr.delivered_us,
                        ctx.self_id(),
                        Ev::Deliver { node, batch, bytes, slot_start: now },
                    );
                }
                ctx.send_self(self.cfg.params.dist_epoch_us, Ev::Slot);
            }

            Ev::Deliver { node, batch, bytes, slot_start } => {
                let busy = self.nodes[node].cpu.busy_until();
                let wait_from = slot_start.max(busy).min(now);
                let deser = COST.deser_us(bytes);
                let (ds, de) = self.nodes[node].cpu.run(now, deser);
                {
                    let mut sh = self.shared.borrow_mut();
                    sh.usage.node_mut(node).add_comm(wait_from, now);
                    sh.usage.node_mut(node).add_comm(ds, de);
                }
                self.nodes[node].pending.extend(batch);
                ctx.send_at(de, ctx.self_id(), Ev::TryProcess { node });
            }

            Ev::TryProcess { node } => {
                if self.nodes[node].pending.is_empty() {
                    return;
                }
                let busy = self.nodes[node].cpu.busy_until();
                if busy > now {
                    ctx.send_at(busy, ctx.self_id(), Ev::TryProcess { node });
                    return;
                }
                let mut work = WorkStats::default();
                let pending = std::mem::take(&mut self.nodes[node].pending);
                let bnode = &mut self.nodes[node];
                for r in pending {
                    bnode.watermark = bnode.watermark.max(r.tup.t);
                    match r.action {
                        Action::ProbeStore => {
                            bnode.group.insert(r.tup, &mut self.out_scratch, &mut work)
                        }
                        Action::StoreOnly => {
                            bnode.group.insert_unprobed(r.tup, &mut self.out_scratch, &mut work)
                        }
                        Action::ProbeOnly => {
                            bnode.group.probe_only(&r.tup, &mut self.out_scratch, &mut work)
                        }
                        Action::ProbeThenStore => {
                            bnode.group.probe_only(&r.tup, &mut self.out_scratch, &mut work);
                            bnode.group.insert_unprobed(r.tup, &mut self.out_scratch, &mut work);
                        }
                    }
                }
                bnode.group.flush_all(&mut self.out_scratch, &mut work);
                let watermark = bnode.watermark;
                bnode.group.expire_and_tune(watermark, &mut self.out_scratch, &mut work);
                let us = COST.cpu_us(&CpuWork {
                    comparisons: work.comparisons,
                    emitted: work.emitted,
                    inserts: work.inserts,
                    hash_ops: work.hash_ops,
                    blocks_touched: work.blocks_touched,
                    tuples_moved: work.tuples_moved,
                });
                let (start, end) = self.nodes[node].cpu.run(now, us);
                let mut sh = self.shared.borrow_mut();
                sh.usage.node_mut(node).add_cpu(start, end);
                sh.work.add(&work);
                sh.fold.fold(&self.out_scratch, end + COLLECTOR_LINK.latency_us);
                self.out_scratch.clear();
            }
        }
    }
}

/// Runs a baseline policy under a `windjoin` run configuration on
/// `cfg.slaves` nodes (the arrival source, horizon, cost model and link
/// models are shared; the protocol parameters that only exist in
/// `windjoin` — thresholds, reorg epochs, spare slaves — are ignored by
/// construction).
pub fn run_baseline<R: Router + 'static>(cfg: &NodeConfig, router: R) -> BaselineReport {
    cfg.validate(Runtime::Sim).expect("invalid run configuration");
    let run_us = cfg.run.as_micros() as u64;
    let warmup_us = cfg.warmup.as_micros() as u64;
    let n = cfg.slaves;
    let nodes: Vec<BNode> = (0..n)
        .map(|_| BNode {
            group: PartitionGroup::new(&cfg.params),
            cpu: CpuTimeline::new(),
            pending: Vec::new(),
            watermark: 0,
        })
        .collect();

    // The same arrivals the simulator's master pulls for this config.
    let mut src = cfg.source_spec().open(cfg.seed, 0);
    let next_arrival = src.next_arrival();

    let shared = Rc::new(RefCell::new(Shared {
        fold: OutputFold::new(cfg),
        usage: UsageSet::new(n, warmup_us),
        work: WorkStats::default(),
        tuples_in: 0,
        network_bytes: 0,
    }));

    let actor = BaselineSim {
        cfg: cfg.clone(),
        router,
        nodes,
        src,
        next_arrival,
        nic: Link::new(DIST_LINK),
        shared: Rc::clone(&shared),
        route_scratch: Vec::new(),
        out_scratch: Vec::new(),
    };
    let mut sim: Sim<Ev> = Sim::new();
    sim.add_actor(Box::new(actor));
    sim.run_until(run_us);
    drop(sim);

    let sh = Rc::try_unwrap(shared).ok().expect("actor dropped").into_inner();
    let mut usage = sh.usage;
    let window_us = run_us - warmup_us;
    for i in 0..n {
        let busy_us = {
            let nu = usage.node(i);
            ((nu.cpu_s() + nu.comm_s()) * 1e6) as u64
        };
        usage.node_mut(i).add_idle(warmup_us, warmup_us + window_us.saturating_sub(busy_us));
    }
    let fold = sh.fold;
    BaselineReport {
        outputs: fold.delay.count(),
        delay: fold.delay,
        usage,
        outputs_total: fold.outputs_total,
        output_checksum: fold.checksum,
        captured: fold.captured,
        work: sh.work,
        tuples_in: sh.tuples_in,
        network_bytes: sh.network_bytes,
        run_us,
        warmup_us,
    }
}
