//! The adapter: every call into the system under test lives in this
//! file, so a refactor of `windjoin` knows exactly what the benchmark
//! binds to (the README lists the surface). The rest of the benchmark
//! sees plain numbers, the few re-exported value types below, and the
//! one-call-per-stage [`Pipeline`].

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};
use windjoin::cluster::nodes::initial_partitions;
use windjoin::cluster::threadrt::DEFAULT_INBOX_CAPACITY;
use windjoin::cluster::{run_on_transport, EngineKind};
use windjoin::cluster::{NodeConfig, RunReport, Source, SourceArrival, StreamingSink};
use windjoin::core::hash::mix64;
use windjoin::core::{ExactEngine, MasterCore, Params, PayloadStore, SlaveCore, WorkStats};
use windjoin::metrics::DelayTracker;
use windjoin::net::{EventedNetwork, Frame, Message, NetEvent, TcpNetwork, TransportEndpoint};

pub use windjoin::cluster::json::{obj, Json};
pub use windjoin::core::{JoinSemantics, OutPair, Side, TuningParams, Tuple};
pub use windjoin::gen::KeyDist;

/// Which socket backend carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One reader thread per peer over blocking sockets.
    ThreadedTcp,
    /// One epoll poller thread per node over nonblocking sockets.
    Evented,
}

/// One join job, as the benchmark describes it.
#[derive(Debug, Clone)]
pub struct Job {
    pub backend: Backend,
    pub slaves: usize,
    pub keys: KeyDist,
    /// `None` runs flat partitions (no fine tuning).
    pub tuning: Option<TuningParams>,
    pub payload_bytes: usize,
    /// Offered tuples/s per stream.
    pub rate: f64,
    pub window_us: u64,
    pub run_us: u64,
    pub warmup_us: u64,
    pub seed: u64,
}

/// Distribution epoch of every benchmark job.
pub const DIST_EPOCH_US: u64 = 50_000;

impl Job {
    fn node_config(&self, sink: Option<StreamingSink>) -> NodeConfig {
        let mut cfg = NodeConfig::demo(self.slaves);
        cfg.params = cfg.params.with_dist_epoch_us(DIST_EPOCH_US).with_probe_threads(1);
        cfg.params.sem = self.semantics();
        cfg.params.npart = 16;
        cfg.params.reorg_epoch_us = 2_000_000;
        cfg.params.tuning = self.tuning;
        cfg.masters = 1;
        cfg.rate = self.rate;
        cfg.keys = self.keys;
        cfg.seed = self.seed;
        cfg.run = Duration::from_micros(self.run_us);
        cfg.warmup = Duration::from_micros(self.warmup_us);
        cfg.engine = EngineKind::Exact;
        cfg.payload_bytes = self.payload_bytes;
        cfg.sink = sink;
        cfg
    }

    /// The join predicate's window sizes.
    pub fn semantics(&self) -> JoinSemantics {
        JoinSemantics { w_left_us: self.window_us, w_right_us: self.window_us }
    }

    /// Ranks of the full cluster: master + slaves + collector.
    pub fn ranks(&self) -> usize {
        self.slaves + 2
    }

    /// The job's arrival tape up to its horizon, in arrival order, as
    /// the master will ingest it. Payload bytes are left out: keys and
    /// timestamps do not depend on them.
    pub fn tape(&self) -> impl Iterator<Item = Tuple> {
        let mut src = self.node_config(None).source_spec().open(self.seed, 0);
        let until = self.run_us;
        std::iter::from_fn(move || {
            let a = src.next_arrival().filter(|a| a.at_us <= until)?;
            Some(Tuple::new(a.side, a.at_us, a.key, a.seq))
        })
    }
}

/// The collector's per-pair checksum fold (`cluster::nodes::collector_node`).
pub fn pair_fold(left_seq: u64, right_seq: u64) -> u64 {
    mix64(left_seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ right_seq)
}

/// `(pairs, checksum)` of a tape by the repository's own materialising
/// oracle; the streaming oracle is tested against it.
pub fn reference_digest(tape: &[Tuple], sem: &JoinSemantics) -> (u64, u64) {
    let pairs = windjoin::core::reference_join(tape, sem);
    let checksum = pairs.iter().fold(0, |acc, p| acc ^ pair_fold(p.left.1, p.right.1));
    (pairs.len() as u64, checksum)
}

/// A loopback mesh of either backend.
enum Mesh {
    Tcp(TcpNetwork),
    Evented(EventedNetwork),
}

impl Mesh {
    /// Builds the mesh; returns after the HELLO/READY/GO handshake.
    fn loopback(backend: Backend, ranks: usize) -> io::Result<Mesh> {
        Ok(match backend {
            Backend::ThreadedTcp => Mesh::Tcp(TcpNetwork::loopback(ranks, DEFAULT_INBOX_CAPACITY)?),
            Backend::Evented => {
                Mesh::Evented(EventedNetwork::loopback(ranks, DEFAULT_INBOX_CAPACITY)?)
            }
        })
    }
}

/// Seconds to bring up one mesh (torn down again, untimed).
pub fn mesh_setup_s(backend: Backend, ranks: usize) -> io::Result<f64> {
    let called = Instant::now();
    Mesh::loopback(backend, ranks)?;
    Ok(called.elapsed().as_secs_f64())
}

/// What one full-cluster run reported, as plain numbers.
#[derive(Debug, Clone, Default)]
pub struct ClusterOutcome {
    /// Seconds from the call to the rank threads starting: config,
    /// sink and the mesh handshake.
    pub setup_s: f64,
    /// Wall seconds inside `run_on_transport`.
    pub wall_s: f64,
    pub outputs_total: u64,
    pub checksum: u64,
    pub tuples_in: u64,
    /// The collector's own mean production delay (its clock), µs.
    pub collector_delay_mean_us: f64,
    pub dead_slaves: u64,
    pub tuples_lost: u64,
    pub master_peak_buffer_bytes: u64,
    /// Per slave: seconds in the join module.
    pub slave_busy_s: Vec<f64>,
    /// Per slave: seconds blocked in receives.
    pub slave_comm_s: Vec<f64>,
    pub bytes_sent: u64,
}

/// Runs the job on a full cluster, one thread per rank over loopback
/// sockets. `origin` is called once, right before the ranks start, so
/// the caller can start its clock; `on_outputs` sees every batch the
/// collector receives, on the collector's thread.
pub fn run_cluster(
    job: &Job,
    origin: impl FnOnce(),
    on_outputs: impl Fn(&[OutPair]) + Send + Sync + 'static,
) -> io::Result<ClusterOutcome> {
    let called = Instant::now();
    let cfg = job.node_config(Some(StreamingSink::new(on_outputs)));
    let mesh = Mesh::loopback(job.backend, job.ranks())?;
    let setup_s = called.elapsed().as_secs_f64();
    origin();
    let t0 = Instant::now();
    let r: RunReport = match mesh {
        Mesh::Tcp(net) => run_on_transport(&cfg, net),
        Mesh::Evented(net) => run_on_transport(&cfg, net),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(ClusterOutcome {
        setup_s,
        wall_s,
        outputs_total: r.outputs_total,
        checksum: r.output_checksum,
        tuples_in: r.tuples_in,
        collector_delay_mean_us: r.delay.mean_delay_s() * 1e6,
        dead_slaves: r.dead_slaves.len() as u64,
        tuples_lost: r.work.tuples_lost,
        master_peak_buffer_bytes: r.master_peak_buffer_bytes,
        slave_busy_s: (0..job.slaves).map(|i| r.usage.node(i).cpu_s()).collect(),
        slave_comm_s: (0..job.slaves).map(|i| r.usage.node(i).comm_s()).collect(),
        bytes_sent: r.work.bytes_sent,
    })
}

/// Counted work of the ledger's slaves (`WorkStats`), exact per seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    pub comparisons: u64,
    pub hash_ops: u64,
    pub blocks_touched: u64,
    pub emitted: u64,
}

/// The whole job on one thread, one public call per stage: the ledger
/// (`ledger.rs`) sequences these and times each one. Rank 0 of a
/// two-rank mesh of the job's own backend plays master and collector,
/// rank 1 plays every slave.
pub struct Pipeline {
    payload_bytes: usize,
    src: Box<dyn Source + Send>,
    next: Option<SourceArrival>,
    master: MasterCore,
    store: PayloadStore,
    slaves: Vec<SlaveCore<ExactEngine>>,
    up: Box<dyn TransportEndpoint>,
    down: Box<dyn TransportEndpoint>,
    arrivals: Vec<SourceArrival>,
    batches: Vec<(usize, Vec<Tuple>)>,
    pays: Vec<Vec<u8>>,
    enc: Vec<u8>,
    frame: Option<Frame>,
    tuples: Vec<Tuple>,
    pays_in: Vec<Vec<u8>>,
    out: Vec<OutPair>,
    pairs: Vec<OutPair>,
    work: WorkStats,
    delay: DelayTracker,
    pub checksum: u64,
    pub outputs_total: u64,
    pub tuples_in: u64,
}

impl Pipeline {
    pub fn new(job: &Job) -> io::Result<Pipeline> {
        let cfg = job.node_config(None);
        let params: Arc<Params> = Arc::new(cfg.params.clone());
        let (up, down): (Box<dyn TransportEndpoint>, Box<dyn TransportEndpoint>) =
            match Mesh::loopback(job.backend, 2)? {
                Mesh::Tcp(mut n) => (Box::new(n.take(0)), Box::new(n.take(1))),
                Mesh::Evented(mut n) => (Box::new(n.take(0)), Box::new(n.take(1))),
            };
        let slaves = (0..job.slaves)
            .map(|i| {
                let mut core = SlaveCore::new(i, Arc::clone(&params));
                for pid in initial_partitions(&params, job.slaves, i) {
                    core.create_group(pid);
                }
                core
            })
            .collect();
        let mut src = cfg.source_spec().open(cfg.seed, cfg.payload_bytes);
        let next = src.next_arrival();
        Ok(Pipeline {
            payload_bytes: cfg.payload_bytes,
            src,
            next,
            master: MasterCore::new(Arc::clone(&params), job.slaves, job.slaves, cfg.seed),
            store: PayloadStore::new(),
            slaves,
            up,
            down,
            arrivals: Vec::new(),
            batches: Vec::new(),
            pays: Vec::new(),
            enc: Vec::new(),
            frame: None,
            tuples: Vec::new(),
            pays_in: Vec::new(),
            out: Vec::new(),
            pairs: Vec::new(),
            work: WorkStats::default(),
            delay: DelayTracker::new(job.warmup_us),
            checksum: 0,
            outputs_total: 0,
            tuples_in: 0,
        })
    }

    /// `gen`: pulls every arrival due by `until_us` from the source.
    pub fn pull(&mut self, until_us: u64) {
        self.arrivals.clear();
        while let Some(a) = self.next.take_if(|a| a.at_us <= until_us) {
            self.arrivals.push(a);
            self.next = self.src.next_arrival();
        }
        self.tuples_in += self.arrivals.len() as u64;
    }

    /// `core.master`: routes the pulled arrivals into the partition
    /// buffers, parking payload bytes as the leader loop does.
    pub fn route(&mut self) {
        for a in self.arrivals.drain(..) {
            self.master.on_arrival(Tuple::new(a.side, a.at_us, a.key, a.seq));
            if !a.payload.is_empty() {
                self.store.insert(a.side, a.seq, a.at_us, a.payload);
            }
        }
    }

    /// `core.master`: drains the slot; returns the slave of each batch.
    pub fn drain_slot(&mut self) -> Vec<usize> {
        self.batches = self.master.drain_for_slot(0);
        self.batches.iter().map(|(s, _)| *s).collect()
    }

    /// `net.message`: encodes batch `i` of the drained slot.
    pub fn encode_batch(&mut self, i: usize) {
        let batch = &self.batches[i].1;
        if self.payload_bytes == 0 {
            Message::encode_batch_into(batch, &mut self.enc);
        } else {
            self.pays.clear();
            for t in batch {
                let bytes = self.store.remove(t.side, t.seq).map(|(_, b)| b.into_vec());
                self.pays.push(bytes.unwrap_or_default());
            }
            Message::encode_payload_batch_into(
                batch,
                &self.pays,
                self.payload_bytes,
                &mut self.enc,
            );
        }
    }

    fn hop(from: &dyn TransportEndpoint, to: &dyn TransportEndpoint, bytes: &[u8]) -> Frame {
        from.send_slice(to.rank(), bytes).expect("ledger mesh is up");
        match to.recv_event().expect("ledger mesh is up") {
            NetEvent::Frame(f) => f,
            NetEvent::PeerDown(r) => panic!("ledger peer {r} went down"),
        }
    }

    /// Transport: the encoded frame goes master -> slave over a socket.
    pub fn wire_down(&mut self) {
        self.frame = Some(Self::hop(&*self.up, &*self.down, &self.enc));
    }

    /// `net.message`: decodes the received batch frame.
    pub fn decode_batch(&mut self) {
        let payload = self.frame.take().expect("a frame was received").payload;
        let is_batch = if self.payload_bytes == 0 {
            Message::decode_batch_into(payload, &mut self.tuples)
        } else {
            Message::decode_payload_batch_into(payload, &mut self.tuples, &mut self.pays_in)
        };
        assert!(is_batch.expect("well-formed frame"), "expected a batch frame");
    }

    /// `core.slave`: buffers the decoded batch at `slave`.
    pub fn receive(&mut self, slave: usize) {
        if self.payload_bytes == 0 {
            self.slaves[slave].receive_batch_slice(&self.tuples);
        } else {
            self.slaves[slave].receive_batch_with_payloads(&self.tuples, &self.pays_in);
        }
    }

    /// `core.slave`: insert, probe, expire. Returns the pairs produced.
    pub fn drain(&mut self, slave: usize) -> usize {
        self.slaves[slave].process_pending(&mut self.out, &mut self.work);
        self.out.len()
    }

    /// `net.message`: encodes the produced pairs.
    pub fn encode_outputs(&mut self) {
        Message::encode_outputs_into(&self.out, &mut self.enc);
        self.out.clear();
    }

    /// Transport: the outputs frame goes slave -> collector.
    pub fn wire_up(&mut self) {
        self.frame = Some(Self::hop(&*self.down, &*self.up, &self.enc));
    }

    /// `net.message`: decodes the outputs frame.
    pub fn decode_outputs(&mut self) {
        let payload = self.frame.take().expect("a frame was received").payload;
        match Message::decode(payload).expect("well-formed frame") {
            Message::Outputs(pairs) => self.pairs = pairs,
            other => panic!("expected an outputs frame, got {other:?}"),
        }
    }

    /// Collector: checksum and delay accounting of the decoded pairs,
    /// emitted at `emit_us` of event time.
    pub fn fold(&mut self, emit_us: u64) {
        for p in self.pairs.drain(..) {
            self.outputs_total += 1;
            self.checksum ^= pair_fold(p.left.1, p.right.1);
            self.delay.record(emit_us, p.newest_t());
        }
    }

    /// Counted slave work so far.
    pub fn work(&self) -> Work {
        let w = &self.work;
        Work {
            comparisons: w.comparisons,
            hash_ops: w.hash_ops,
            blocks_touched: w.blocks_touched,
            emitted: w.emitted,
        }
    }

    /// Tuples held in all slaves' windows.
    pub fn window_tuples(&self) -> u64 {
        self.slaves.iter().map(|s| s.window_tuples() as u64).sum()
    }

    /// State: a checkpoint-style snapshot of partition 0.
    pub fn snapshot(&self) {
        std::hint::black_box(self.slaves[0].snapshot_group(0).expect("slave 0 owns partition 0"));
    }

    /// State: moves partition 0 out of slave 0 and back in through the
    /// `State` frame codec. Returns the window tuples moved.
    pub fn move_group(&mut self) -> u64 {
        let slave = &mut self.slaves[0];
        let before = slave.window_tuples();
        let (state, pending) = slave.extract_group(0, &mut self.work);
        let payloads = slave.extract_payloads(0);
        let moved = before - slave.window_tuples();
        let bytes = Message::State { pid: 0, state, pending, payloads }.encode();
        match Message::decode(bytes).expect("well-formed frame") {
            Message::State { pid, state, pending, payloads } => {
                slave.install_group(pid, state, pending, &mut self.work);
                slave.install_payloads(pid, payloads);
            }
            other => panic!("expected a state frame, got {other:?}"),
        }
        moved as u64
    }
}
