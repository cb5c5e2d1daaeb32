//! Focused §IV-C state-mover test over real sockets: a partition group
//! with live window state is extracted on one slave **process loop**,
//! ships as a `State` frame across TCP, installs on another slave, and
//! subsequent probes against the moved state still produce the join —
//! the hand-driven counterpart of the occupancy-driven reorg path
//! (which light test workloads rarely trigger).

use windjoin_cluster::nodes::{slave_node, NodeConfig};
use windjoin_core::hash::partition_of;
use windjoin_core::{Side, Tuple};
use windjoin_net::{Message, TcpNetwork, TransportEndpoint};

#[test]
fn partition_state_survives_a_tcp_move() {
    // Topology: rank 0 = this test acting as master, ranks 1-2 = real
    // slave node loops, rank 3 = this test acting as collector.
    let cfg = NodeConfig::demo(2);
    let npart = cfg.params.npart;
    let mut net = TcpNetwork::loopback(cfg.ranks(), 1024).expect("loopback mesh");
    let master = net.take(0);
    let collector = net.take(3);
    let s0 = net.take(1);
    let s1 = net.take(2);

    let slaves = [
        std::thread::spawn({
            let cfg = cfg.clone();
            move || slave_node(&s0, 0, &cfg)
        }),
        std::thread::spawn({
            let cfg = cfg.clone();
            move || slave_node(&s1, 1, &cfg)
        }),
    ];

    // A key whose partition starts on slave 0 (round-robin: even pid).
    let key = (0..).find(|k| partition_of(*k, npart).is_multiple_of(2)).unwrap();
    let pid = partition_of(key, npart);

    // (1) Left tuple lands on slave 0 and enters its window state.
    master.send(1, Message::Batch(vec![Tuple::new(Side::Left, 1_000, key, 0)]).encode()).unwrap();
    // Its occupancy report confirms the batch was processed.
    let f = master.recv().unwrap();
    assert!(matches!(Message::decode(f.payload).unwrap(), Message::Occupancy(_)));

    // (2) Move the partition: slave 0 extracts, ships State over TCP
    // to slave 1, which installs and acks.
    master.send(1, Message::MoveDirective { pid, to: 1 }.encode()).unwrap();
    let f = master.recv().unwrap();
    match Message::decode(f.payload).unwrap() {
        Message::MoveComplete { pid: done } => assert_eq!(done, pid),
        other => panic!("expected MoveComplete, got {other:?}"),
    }
    assert_eq!(f.from, 2, "the ack must come from the consumer slave");

    // (3) A matching right tuple now routed to slave 1 joins against
    // the moved window state.
    master.send(2, Message::Batch(vec![Tuple::new(Side::Right, 2_000, key, 0)]).encode()).unwrap();
    let f = collector.recv().unwrap();
    assert_eq!(f.from, 2, "output must come from the new owner");
    match Message::decode(f.payload).unwrap() {
        Message::Outputs(pairs) => {
            assert_eq!(pairs.len(), 1);
            assert_eq!(pairs[0].key, key);
            assert_eq!((pairs[0].left, pairs[0].right), ((1_000, 0), (2_000, 0)));
        }
        other => panic!("expected Outputs, got {other:?}"),
    }

    // (4) Clean shutdown: both slaves exit, collector sees two markers.
    master.send(1, Message::Shutdown.encode()).unwrap();
    master.send(2, Message::Shutdown.encode()).unwrap();
    let mut outcomes = Vec::new();
    for h in slaves {
        outcomes.push(h.join().expect("slave loop"));
    }
    let mut shutdowns = 0;
    while shutdowns < 2 {
        let f = collector.recv().unwrap();
        if matches!(Message::decode(f.payload).unwrap(), Message::Shutdown) {
            shutdowns += 1;
        }
    }
    // The move charged state-transfer work (tuples packed/unpacked).
    let moved: u64 = outcomes.iter().map(|o| o.work.tuples_moved).sum();
    assert!(moved > 0, "no state-movement work recorded across the move");

    // Drain the consumer's occupancy report (sent after its batch).
    while master.try_recv().is_some() {}
}
