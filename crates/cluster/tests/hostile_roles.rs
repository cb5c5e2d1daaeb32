//! Hostile frames against the slave and collector roles, with no threads
//! and no sockets. A fault-free leader stream, cut by the initial
//! partition map, is interleaved with well-formed frames carrying
//! hostile fields from every sender class: the master, a peer slave, the
//! collector and a rank outside the topology. No input may panic, every
//! injected frame must be refused and counted, and the folded outputs
//! must equal the reference join over the fault-free tape.

use std::time::Duration;
use windjoin_cluster::nodes::initial_partitions;
use windjoin_cluster::roles::{CollectorRole, Dest, Next, RoleIo, SlaveRole};
use windjoin_cluster::NodeConfig;
use windjoin_core::hash::{mix64, partition_of};
use windjoin_core::{reference_join, ExactEngine, GroupState, OutPair, Side, Tuple, WorkStats};
use windjoin_gen::KeyDist;
use windjoin_net::Message;

const SLAVES: usize = 2;

/// Slave `from`'s frames: the collector gets its results and markers
/// at once; nothing here plays a master, so occupancy reports and acks
/// go nowhere.
struct Wire<'a> {
    collector: &'a mut CollectorRole,
    from: usize,
    clock: u64,
}

impl RoleIo for Wire<'_> {
    fn send(&mut self, to: Dest, msg: Message) {
        if to == Dest::Collector {
            self.collector.message(self.from, msg);
        }
    }

    fn outputs(&mut self, pairs: &[OutPair]) {
        self.collector.outputs(self.from, pairs, self.clock);
    }
}

/// A seeded xorshift stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

fn cfg(seed: u64) -> NodeConfig {
    let mut cfg = NodeConfig::demo(SLAVES);
    cfg.heartbeat = Duration::ZERO;
    cfg.run = Duration::from_millis(1_500);
    cfg.warmup = Duration::ZERO;
    cfg.rate = 400.0;
    cfg.keys = KeyDist::Uniform { domain: 300 };
    cfg.capture_outputs = true;
    cfg.seed = seed;
    cfg
}

/// A well-formed frame with hostile fields for a slave, from sender
/// class `class` (0 master, 1 peer slave, 2 collector, 3 stranger).
/// `None` stands for a batch frame from a non-master.
fn at_a_slave(rng: &mut Rng, class: u64, npart: u32) -> Option<Message> {
    let far = npart + rng.below(1 << 20) as u32;
    let pid = rng.below(u64::from(npart)) as u32;
    let empty = GroupState { buckets: Vec::new() };
    let pair = OutPair { key: 1, left: (1, 0), right: (2, 0) };
    let any_sender = match rng.below(6) {
        0 => Message::Outputs(vec![pair]),
        1 => Message::Goodbye,
        2 => Message::State { pid: far, state: empty, pending: Vec::new(), payloads: Vec::new() },
        3 => Message::Seen { pid: far, left: 9, right: 9 },
        4 => Message::Checkpoint {
            pid: far,
            seen_left: 9,
            seen_right: 9,
            state: empty,
            pending: Vec::new(),
            payloads: Vec::new(),
        },
        _ => Message::Occupancy(0.5),
    };
    Some(match (class, rng.below(4)) {
        (_, 3) => any_sender,
        (0, 0) => Message::MoveDirective { pid: far, to: 0 },
        (0, 1) => Message::MoveDirective { pid, to: SLAVES as u32 + rng.below(99) as u32 },
        (0, _) => Message::Restore { pid: far, checkpoint: rng.below(2) == 0 },
        (_, 0) => return None,
        (_, 1) => match rng.below(3) {
            0 => Message::Shutdown,
            1 => Message::Leave,
            _ => Message::MasterHeartbeat { term: 1 + rng.below(1_000), commit: 0 },
        },
        (_, _) if rng.below(2) == 0 => Message::MoveDirective { pid, to: 0 },
        (_, _) => Message::Restore { pid, checkpoint: false },
    })
}

/// A well-formed frame with hostile fields for the collector.
fn at_the_collector(rng: &mut Rng, class: u64) -> Message {
    let pair = OutPair { key: 1, left: (1, 0), right: (2, 0) };
    match (class, rng.below(4)) {
        (0, 0) => Message::Outputs(vec![pair]),
        (0, 1) => Message::Dead { slave: SLAVES as u32 + rng.below(99) as u32 },
        (0, 2) => Message::Shutdown,
        (0, _) => Message::Goodbye,
        (1, 0) => Message::Dead { slave: 0 },
        (1, 1) => Message::MasterHeartbeat { term: 1 + rng.below(1_000), commit: 0 },
        (1, _) => Message::MoveDirective { pid: 0, to: 1 },
        (_, 0) => Message::Outputs(vec![pair]),
        (_, 1) => Message::Shutdown,
        (_, 2) => Message::Dead { slave: 1 },
        (_, _) => Message::Goodbye,
    }
}

#[test]
fn hostile_frames_are_refused_and_counted_and_the_join_stays_exact() {
    for seed in 1..=6u64 {
        let cfg = cfg(seed);
        let npart = cfg.params.npart;
        let mut src = cfg.source_spec().open(cfg.seed, 0);
        let tape: Vec<Tuple> = std::iter::from_fn(|| src.next_arrival())
            .take_while(|a| a.at_us <= 1_500_000)
            .map(|a| Tuple::new(a.side, a.at_us, a.key, a.seq))
            .collect();
        let oracle = reference_join(&tape, &cfg.params.sem);
        assert!(oracle.len() > 50, "seed {seed}: a tape worth joining");
        let owner = |key: u64| {
            let pid = partition_of(key, npart);
            (0..SLAVES).find(|&s| initial_partitions(&cfg.params, SLAVES, s).contains(&pid))
        };

        let mut rng = Rng(mix64(seed) | 1);
        let mut slaves: Vec<SlaveRole<ExactEngine>> =
            (0..SLAVES).map(|i| SlaveRole::new(i, &cfg)).collect();
        let mut collector = CollectorRole::new(&cfg);
        let mut work = WorkStats::default();
        let (mut injected, mut unowned) = (0u64, 0u64);
        let stranger = |rng: &mut Rng| cfg.ranks() + rng.below(50) as usize;
        let epoch = cfg.params.dist_epoch_us;
        for (e, chunk) in tape.chunk_by(|a, b| a.t / epoch == b.t / epoch).enumerate() {
            for (i, slave) in slaves.iter_mut().enumerate() {
                let from = cfg.slave_rank(i);
                let mut wire = Wire { collector: &mut collector, from, clock: e as u64 };
                for _ in 0..rng.below(4) {
                    let class = rng.below(4);
                    let from = match class {
                        0 => 0,
                        1 => cfg.slave_rank(1 - i),
                        2 => cfg.collector_rank(),
                        _ => stranger(&mut rng),
                    };
                    injected += 1;
                    if rng.below(3) == 0 {
                        let msg = at_the_collector(&mut rng, class);
                        wire.collector.message(from, msg);
                        continue;
                    }
                    match at_a_slave(&mut rng, class, npart) {
                        Some(msg) => {
                            assert_eq!(slave.message(from, msg, &mut work, &mut wire), Next::Wait)
                        }
                        None => {
                            let t = Tuple::new(Side::Left, 1, rng.below(300), 1 << 40);
                            assert_eq!(slave.batch(from, &[t], None), Next::Wait);
                        }
                    }
                }
                // The leader's batch, now and then with a tuple of the
                // other slave's partition in it: the drain drops that.
                let mut batch: Vec<Tuple> =
                    chunk.iter().copied().filter(|t| owner(t.key) == Some(i)).collect();
                if rng.below(4) == 0 {
                    let key = (0..).find(|&k| owner(k) == Some(1 - i)).expect("a foreign key");
                    batch.push(Tuple::new(Side::Right, 1, key, (1 << 40) + e as u64));
                    unowned += 1;
                }
                if !batch.is_empty() {
                    assert_eq!(slave.batch(0, &batch, None), Next::Drain);
                    slave.drain(&mut work, &mut wire);
                    slave.batch_drained(&mut wire);
                }
            }
        }
        for (i, slave) in slaves.iter_mut().enumerate() {
            let mut wire = Wire { collector: &mut collector, from: cfg.slave_rank(i), clock: 0 };
            assert_eq!(slave.message(0, Message::Shutdown, &mut work, &mut wire), Next::Stop);
        }
        assert!(collector.done(), "seed {seed}: every slave flushed");
        for i in 0..SLAVES {
            // A second flush marker.
            collector.message(cfg.slave_rank(i), Message::Goodbye);
            injected += 1;
        }

        let refused: u64 = slaves.into_iter().map(|s| s.finish().1).sum();
        let (fold, collector_refused) = collector.finish();
        assert!(injected > 20 && unowned > 0, "seed {seed}: {injected} frames, {unowned} tuples");
        assert_eq!(refused + collector_refused, injected, "seed {seed}: every frame counted");
        assert_eq!(work.unowned_dropped, unowned, "seed {seed}");
        let mut got: Vec<_> = fold.captured.iter().map(|p| (p.key, p.left, p.right)).collect();
        let mut want: Vec<_> = oracle.iter().map(|p| (p.key, p.left, p.right)).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "seed {seed}: outputs differ from the reference join");
        assert_eq!(fold.outputs_total, oracle.len() as u64);
        assert_eq!(fold.checksum, oracle.iter().fold(0, |acc, p| acc ^ p.digest()));
    }
}
