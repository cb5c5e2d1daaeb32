//! Hostile frames against every role, with no threads and no sockets. A
//! fault-free stream — the leader's batches, cut by the initial partition
//! map, for the slaves and the collector; occupancy reports, acks, a
//! slave death and the replicated log for a leader and a standby master
//! — is interleaved with well-formed frames carrying hostile fields from
//! every sender class: a master, a slave, the collector and a rank
//! outside the topology. No input may panic, and every injected frame
//! must be refused and counted. The folded outputs must equal the
//! reference join over the fault-free tape, and the masters must decide,
//! trace and charge exactly what they do without the hostile frames.

use std::collections::VecDeque;
use std::time::Duration;
use windjoin_cluster::nodes::initial_partitions;
use windjoin_cluster::roles::{CollectorRole, Dest, MasterRole, Next, RoleIo, SlaveRole};
use windjoin_cluster::NodeConfig;
use windjoin_core::hash::{mix64, partition_of};
use windjoin_core::{
    reference_join, Decision, GroupState, MovePlan, OutPair, Side, Tuple, WorkStats,
};
use windjoin_gen::KeyDist;
use windjoin_net::{Frame, Message, WireStats};

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
        let mut slaves: Vec<SlaveRole> = (0..SLAVES).map(|i| SlaveRole::new(i, &cfg)).collect();
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

/// Slaves in the master runs: the leader has suppliers and consumers to
/// pair, and one slave dies mid-run.
const MASTER_SLAVES: usize = 4;

/// A frame on its way: sender rank, destination, message.
type Queue = VecDeque<(usize, Dest, Message)>;

/// Master `from`'s sends.
struct Outbox<'a> {
    from: usize,
    wire: &'a mut Queue,
}

impl RoleIo for Outbox<'_> {
    fn send(&mut self, to: Dest, msg: Message) {
        self.wire.push_back((self.from, to, msg));
    }

    fn outputs(&mut self, _: &[OutPair]) {
        unreachable!("a master ships no results")
    }
}

/// A well-formed frame a master must refuse from sender class `class`
/// (0 master, 1 slave, 2 collector, 3 stranger); `None` stands for bytes
/// that do not decode.
fn at_a_master(rng: &mut Rng, class: u64, npart: u32) -> Option<Message> {
    let far = npart + rng.below(1 << 20) as u32;
    let pid = rng.below(u64::from(npart)) as u32;
    let forged = Decision::Reorg {
        moves: vec![MovePlan { pid, from: 0, to: MASTER_SLAVES + rng.below(9) as usize }],
        rehomes: Vec::new(),
        activated: None,
        deactivated: None,
    };
    let valid = Decision::Readmit { slave: 0 };
    let term = 1 + rng.below(9);
    let sealed = |inner: Message| Message::Sealed { term, inner: Box::new(inner) };
    Some(match (class, rng.below(6)) {
        (_, 5) if rng.below(2) == 0 => return None,
        // A master speaks only the election and log vocabulary, and
        // never names what does not exist.
        (0, 0) => Message::AppendEntry { term: 1, index: 0, decision: forged },
        (0, 1) => Message::MoveComplete { pid },
        (0, 2) => Message::Occupancy(0.5),
        (0, 3) => sealed(Message::AppendAck { term: 1, index: 0 }),
        (0, _) => Message::Goodbye,
        (1, 0) => Message::MoveComplete { pid: far },
        (1, 1) => Message::CkptNote { pid: far, seen_left: 0, seen_right: 0 },
        (1, 2) => Message::Occupancy([f64::NAN, -1.0, f64::INFINITY][rng.below(3) as usize]),
        (1, 3) => match rng.below(4) {
            0 => Message::AppendEntry { term: 1, index: 0, decision: valid },
            1 => Message::VoteRequest { term: 1 + rng.below(9), last_index: 99 },
            2 => Message::Vote { term: 1 + rng.below(9), granted: true },
            _ => Message::AppendAck { term: 1, index: 0 },
        },
        (1, _) => sealed(Message::MoveComplete { pid }),
        // From outside the masters and slaves even a well-formed report
        // or vote is refused.
        (_, 0) => Message::MoveComplete { pid },
        (_, 1) => Message::Occupancy(0.5),
        (_, 2) => Message::Vote { term: 1, granted: true },
        (_, 3) => Message::AppendEntry { term: 1, index: 0, decision: valid },
        (_, _) => sealed(Message::MoveComplete { pid }),
    })
}

/// What a run of the masters decided and refused.
#[derive(Debug, PartialEq)]
struct Verdict {
    /// The leader's log, as replicated to the standby.
    decisions: Vec<Decision>,
    /// Control frames to the slaves and the collector, in send order.
    control: Vec<(usize, Dest, Message)>,
    dod_trace: Vec<Option<f64>>,
    loss: WorkStats,
    moves: u64,
    refused: u64,
}

/// A leader (master 0) and a standby (master 1) of a three-master
/// cluster whose third master is silent, fed a seeded fault-free stream:
/// occupancy reports from every live slave each epoch, a reorganization
/// every ten, slave 3 torn down at epoch 33, every directive and restore
/// acked by its slave, then the shutdown. With `hostile`, frames the
/// masters must refuse are injected at random points of every epoch.
/// Returns the verdict and the count of injected frames.
fn run_masters(seed: u64, hostile: bool) -> (Verdict, u64) {
    let mut cfg = NodeConfig::demo(MASTER_SLAVES);
    cfg.masters = 3;
    cfg.heartbeat = Duration::ZERO;
    cfg.seed = seed;
    let npart = cfg.params.npart;
    let td = cfg.params.dist_epoch_us;
    let mut roles = [MasterRole::new(&cfg, 0, seed), MasterRole::new(&cfg, 1, seed)];
    let mut wire = Queue::new();
    let (mut decisions, mut control) = (Vec::new(), Vec::new());
    let mut load = Rng(mix64(seed) | 1);
    let mut evil = Rng(mix64(!seed) | 1);
    let mut injected = 0u64;
    let mut live = [true; MASTER_SLAVES];
    let mut inject = |roles: &mut [MasterRole; 2], evil: &mut Rng, now_us: u64| {
        if !hostile {
            return;
        }
        for _ in 0..evil.below(4) {
            let class = evil.below(4);
            let from = match class {
                0 => 2,
                1 => cfg.slave_rank(evil.below(3) as usize), // slaves 0–2 never die
                2 => cfg.collector_rank(),
                _ => cfg.ranks() + evil.below(50) as usize,
            };
            let to = evil.below(2) as usize;
            let mut quiet = Queue::new();
            let io = &mut Outbox { from: to, wire: &mut quiet };
            match at_a_master(evil, class, npart) {
                Some(msg) => roles[to].message(from, msg, now_us, io),
                None => {
                    let payload = vec![0xEE, evil.below(256) as u8, 2, 3];
                    roles[to].frame(Frame { from, payload: payload.into() }, now_us, io);
                }
            }
            assert!(quiet.is_empty(), "a refused frame was answered: {quiet:?}");
            injected += 1;
        }
    };
    // Delivers everything in flight: master 2 is silent, slaves ack their
    // directives and restores at once.
    let deliver = |roles: &mut [MasterRole; 2],
                   wire: &mut Queue,
                   decisions: &mut Vec<Decision>,
                   control: &mut Vec<(usize, Dest, Message)>,
                   now_us: u64| {
        while let Some((from, to, msg)) = wire.pop_front() {
            match to {
                Dest::Master(m @ (0 | 1)) => {
                    if let (Message::AppendEntry { decision, .. }, 0) = (&msg, from) {
                        decisions.push(decision.clone());
                    }
                    roles[m].message(from, msg, now_us, &mut Outbox { from: m, wire })
                }
                Dest::Master(_) => {}
                Dest::Slave(s) => {
                    let inner = match &msg {
                        Message::Sealed { inner, .. } => &**inner,
                        beacon => beacon,
                    };
                    let acker = match *inner {
                        Message::MoveDirective { pid, to } => Some((pid, to as usize)),
                        Message::Restore { pid, .. } => Some((pid, s)),
                        _ => None,
                    };
                    if let Some((pid, at)) = acker {
                        for m in 0..2 {
                            wire.push_back((
                                cfg.slave_rank(at),
                                Dest::Master(m),
                                Message::MoveComplete { pid },
                            ));
                        }
                    }
                    control.push((from, to, msg));
                }
                Dest::Collector => control.push((from, to, msg)),
            }
        }
    };
    for epoch in 0..60u64 {
        let now_us = epoch * td;
        for s in (0..MASTER_SLAVES).filter(|&s| live[s]) {
            // Slave 0 runs hot, the others cool: the planner has
            // suppliers and consumers to pair.
            let f = if s == 0 {
                0.6 + load.below(400) as f64 / 1e3
            } else {
                load.below(12) as f64 / 1e3
            };
            inject(&mut roles, &mut evil, now_us);
            wire.push_back((cfg.slave_rank(s), Dest::Master(0), Message::Occupancy(f)));
            deliver(&mut roles, &mut wire, &mut decisions, &mut control, now_us);
        }
        if epoch == 33 {
            live[3] = false;
            for (m, role) in roles.iter_mut().enumerate() {
                role.peer_down(cfg.slave_rank(3), now_us, &mut Outbox { from: m, wire: &mut wire });
            }
            deliver(&mut roles, &mut wire, &mut decisions, &mut control, now_us);
        }
        if epoch % 10 == 9 {
            roles[0].reorg(now_us, &mut Outbox { from: 0, wire: &mut wire });
            deliver(&mut roles, &mut wire, &mut decisions, &mut control, now_us);
        }
        inject(&mut roles, &mut evil, now_us);
        for (m, role) in roles.iter_mut().enumerate() {
            role.tick(now_us, &mut Outbox { from: m, wire: &mut wire });
        }
        deliver(&mut roles, &mut wire, &mut decisions, &mut control, now_us);
        assert!(roles[0].leading() && roles[1].standby_deadline_us().is_some(), "seed {seed}");
    }
    let end_us = 60 * td;
    roles[0].shutdown(&mut Outbox { from: 0, wire: &mut wire });
    roles[0].release_standbys(&mut Outbox { from: 0, wire: &mut wire });
    deliver(&mut roles, &mut wire, &mut decisions, &mut control, end_us);
    // Finishing masters refuse alike.
    inject(&mut roles, &mut evil, end_us);
    let [leader, standby] = roles;
    let standby = standby.outcome(0, false, WireStats::default());
    let leader = leader.outcome(0, true, WireStats::default());
    assert_eq!(standby.loss, leader.loss, "seed {seed}: the standby mirrors the charge");
    let dod_trace = (0..leader.dod_trace.len()).map(|i| leader.dod_trace.bin_mean(i)).collect();
    let verdict = Verdict {
        decisions,
        control,
        dod_trace,
        loss: leader.loss,
        moves: leader.moves,
        refused: leader.frames_dropped + standby.frames_dropped,
    };
    (verdict, injected)
}

#[test]
fn masters_refuse_and_count_hostile_frames_and_decide_exactly_as_without_them() {
    for seed in 1..=6u64 {
        let (clean, none) = run_masters(seed, false);
        assert_eq!((clean.refused, none), (0, 0), "seed {seed}: a fault-free frame refused");
        assert!(clean.moves > 0, "seed {seed}: the planner moved nothing");
        assert!(clean.loss.groups_lost > 0, "seed {seed}: the death cost nothing");
        let (mut hostile, injected) = run_masters(seed, true);
        assert!(injected > 100, "seed {seed}: {injected} frames");
        assert_eq!(hostile.refused, injected, "seed {seed}: every frame counted");
        hostile.refused = 0;
        assert_eq!(hostile, clean, "seed {seed}: the hostile frames changed the masters' run");
    }
}
