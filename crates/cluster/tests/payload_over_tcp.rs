//! The non-equality acceptance scenario, end to end over real sockets:
//! payload-carrying tuples from a replay source are joined over a TCP
//! loopback mesh (the threaded backend, then the evented one), a
//! **residual predicate evaluated on the payload bytes** filters the
//! equality matches at probe time, and the results are delivered
//! **incrementally** through a streaming `Sink` — then everything is
//! checked against an oracle computed from first principles
//! (`reference_join` + the predicate over the known payloads).

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use windjoin_cluster::api::{JoinJob, ReplayTuple, Runtime, SinkSpec, SourceSpec};
use windjoin_cluster::run_on_transport;
use windjoin_cluster::threadrt::DEFAULT_INBOX_CAPACITY;
use windjoin_core::{reference_join, OutPair, ResidualSpec, Side, Tuple};
use windjoin_net::EventedNetwork;

/// Payloads carry a u64 LE "price"; the residual keeps pairs within
/// `BAND` of each other.
const BAND: u64 = 25;
const PAYLOAD_BYTES: usize = 8;

fn price_payload(price: u64) -> Vec<u8> {
    price.to_le_bytes().to_vec()
}

/// A deterministic tape exercising every filter outcome: same-key pairs
/// inside the band, outside the band, and keys with no partner at all.
fn tape() -> Vec<ReplayTuple> {
    let mut t = Vec::new();
    let mut lcg: u64 = 99;
    let mut next = |m: u64| {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (lcg >> 33) % m
    };
    for round in 0..10u64 {
        let base = round * 80_000;
        for key in 0..30u64 {
            let price = 500 + key * 10 + next(60); // some in, some out of band
            t.push(ReplayTuple {
                side: if next(2) == 0 { Side::Left } else { Side::Right },
                at_us: base + next(75_000),
                key,
                payload: price_payload(price),
            });
        }
    }
    t
}

#[test]
fn payload_residual_streaming_over_tcp_matches_oracle() {
    let source = SourceSpec::replay(tape());

    // The oracle: materialise the exact arrival sequence (tuples +
    // payloads), equality-join by the reference oracle, then apply the
    // same price band the cluster's residual predicate applies.
    let materialized = source.materialize(0, PAYLOAD_BYTES, u64::MAX);
    let tuples: Vec<Tuple> = materialized.iter().map(|(t, _)| *t).collect();
    let price_of = |side: Side, seq: u64| -> u64 {
        let (_, payload) = materialized
            .iter()
            .find(|(t, _)| t.side == side && t.seq == seq)
            .expect("tuple exists");
        u64::from_le_bytes(payload[..8].try_into().expect("8-byte payload"))
    };
    let window = Duration::from_secs(2);
    let sem = windjoin_core::JoinSemantics {
        w_left_us: window.as_micros() as u64,
        w_right_us: window.as_micros() as u64,
    };
    let equality_oracle = reference_join(&tuples, &sem);
    let oracle: HashSet<(u64, u64)> = equality_oracle
        .iter()
        .filter(|p| {
            price_of(Side::Left, p.left.1).abs_diff(price_of(Side::Right, p.right.1)) <= BAND
        })
        .map(|p| p.id())
        .collect();
    let filtered_out = equality_oracle.len() - oracle.len();
    assert!(!oracle.is_empty(), "the tape must produce in-band matches");
    assert!(filtered_out > 0, "the tape must produce out-of-band matches too");

    // The cluster run: real loopback sockets, streaming delivery — over
    // the thread-per-peer TCP mesh `Runtime::Tcp` builds, and over the
    // evented (epoll) mesh, the transport the `wide_payload` benchmark
    // workload runs on.
    for evented in [false, true] {
        let streamed: Arc<Mutex<Vec<OutPair>>> = Arc::new(Mutex::new(Vec::new()));
        let streamed_in = Arc::clone(&streamed);
        let job = JoinJob::builder()
            .runtime(Runtime::Tcp)
            .slaves(2)
            .npart(8)
            .window(window)
            .dist_epoch(Duration::from_millis(100))
            .source(source.clone())
            .payload_bytes(PAYLOAD_BYTES)
            .residual(ResidualSpec::PayloadBandU64 { max_delta: BAND })
            .sink(SinkSpec::Capture)
            .streaming(move |pairs: &[OutPair]| {
                streamed_in.lock().unwrap().extend_from_slice(pairs);
            })
            .seed(0)
            .run(Duration::from_millis(1500))
            .warmup(Duration::from_millis(200))
            .build()
            .expect("valid job");
        let report = if evented {
            let mut cfg = job.spec.to_node_config().expect("valid job");
            cfg.residual = job.residual();
            cfg.sink = job.streaming().cloned();
            let net = EventedNetwork::loopback(cfg.ranks(), DEFAULT_INBOX_CAPACITY);
            run_on_transport(&cfg, net.expect("evented loopback mesh"))
        } else {
            job.run().expect("tcp run")
        };

        // Captured results == oracle, exactly.
        let got: HashSet<(u64, u64)> = report.captured.iter().map(|p| p.id()).collect();
        assert_eq!(got.len(), report.captured.len(), "no duplicate outputs (evented: {evented})");
        assert_eq!(got, oracle, "payload/residual run != first-principles oracle ({evented})");
        assert_eq!(report.work.residual_dropped as usize, filtered_out, "filter accounting");

        // The streaming sink saw the identical result set, incrementally.
        let streamed = streamed.lock().unwrap();
        let streamed_ids: HashSet<(u64, u64)> = streamed.iter().map(|p| p.id()).collect();
        assert_eq!(streamed.len(), report.captured.len());
        assert_eq!(streamed_ids, oracle, "streamed set != captured set (evented: {evented})");
    }
}

#[test]
fn payloads_travel_inside_tcp_state_moves() {
    // The hand-driven §IV-C state move (light test workloads rarely
    // trigger the occupancy-driven path), payload edition: window state
    // AND its payload store ship inside one `State` frame over real
    // sockets, and the residual predicate on the *new* owner still sees
    // the moved bytes. With `PayloadEquals`, a lost payload would flip
    // the verdict — the match surviving proves the bytes moved.
    use windjoin_cluster::nodes::{slave_node, NodeConfig};
    use windjoin_core::hash::partition_of;
    use windjoin_core::Residual;
    use windjoin_net::{Message, TcpNetwork, TransportEndpoint};

    let mut cfg = NodeConfig::demo(2);
    cfg.payload_bytes = 4;
    cfg.residual = Residual::Spec(ResidualSpec::PayloadEquals);
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

    // (1) Two left tuples with distinct payloads land on slave 0.
    let mut buf = Vec::new();
    Message::encode_payload_batch_into(
        &[Tuple::new(Side::Left, 1_000, key, 0), Tuple::new(Side::Left, 1_100, key, 1)],
        &[b"good".to_vec(), b"evil".to_vec()],
        4,
        &mut buf,
    );
    master.send_slice(1, &buf).unwrap();
    let f = master.recv().unwrap();
    assert!(matches!(Message::decode(f.payload).unwrap(), Message::Occupancy(_)));

    // (2) Move the partition to slave 1; the ack proves the install.
    master.send(1, Message::MoveDirective { pid, to: 1 }.encode()).unwrap();
    let f = master.recv().unwrap();
    assert!(matches!(Message::decode(f.payload).unwrap(), Message::MoveComplete { .. }));
    assert_eq!(f.from, 2, "the ack must come from the consumer slave");

    // (3) A right probe with payload "good" now routed to slave 1: it
    // equality-matches both stored tuples, but PayloadEquals keeps only
    // the one whose *moved* payload is byte-identical.
    Message::encode_payload_batch_into(
        &[Tuple::new(Side::Right, 2_000, key, 0)],
        &[b"good".to_vec()],
        4,
        &mut buf,
    );
    master.send_slice(2, &buf).unwrap();
    let f = collector.recv().unwrap();
    assert_eq!(f.from, 2, "output must come from the new owner");
    match Message::decode(f.payload).unwrap() {
        Message::Outputs(pairs) => {
            assert_eq!(pairs.len(), 1, "exactly the payload-equal pair survives the move");
            assert_eq!(pairs[0].key, key);
            assert_eq!((pairs[0].left, pairs[0].right), ((1_000, 0), (2_000, 0)));
        }
        other => panic!("expected Outputs, got {other:?}"),
    }

    // (4) Clean shutdown; the filter accounting crossed the move too.
    master.send(1, Message::Shutdown.encode()).unwrap();
    master.send(2, Message::Shutdown.encode()).unwrap();
    let outcomes: Vec<_> = slaves.into_iter().map(|h| h.join().expect("slave loop")).collect();
    assert_eq!(
        outcomes.iter().map(|o| o.work.residual_dropped).sum::<u64>(),
        1,
        "the new owner dropped the payload-mismatched match"
    );
    let mut shutdowns = 0;
    while shutdowns < 2 {
        let f = collector.recv().unwrap();
        if matches!(Message::decode(f.payload).unwrap(), Message::Shutdown) {
            shutdowns += 1;
        }
    }
    while master.try_recv().is_some() {}
}

#[test]
fn payload_equals_residual_over_threaded_runtime() {
    // A second predicate + runtime combination: only byte-identical
    // payloads survive, on the channel-backed threaded cluster.
    let tuples = vec![
        ReplayTuple { side: Side::Left, at_us: 1_000, key: 7, payload: b"match!".to_vec() },
        ReplayTuple { side: Side::Right, at_us: 2_000, key: 7, payload: b"match!".to_vec() },
        ReplayTuple { side: Side::Right, at_us: 3_000, key: 7, payload: b"differ".to_vec() },
        ReplayTuple { side: Side::Left, at_us: 4_000, key: 9, payload: b"alone!".to_vec() },
    ];
    let job = JoinJob::builder()
        .runtime(Runtime::Threaded)
        .slaves(2)
        .npart(4)
        .window(Duration::from_secs(1))
        .dist_epoch(Duration::from_millis(100))
        .replay(tuples)
        .payload_bytes(6)
        .residual(ResidualSpec::PayloadEquals)
        .sink(SinkSpec::Capture)
        .run(Duration::from_millis(800))
        .warmup(Duration::from_millis(100))
        .build()
        .expect("valid job");
    let report = job.run().expect("threaded run");
    assert_eq!(report.outputs_total, 1, "only the byte-equal pair survives");
    assert_eq!(report.captured[0].key, 7);
    assert_eq!(report.work.residual_dropped, 1);
}
