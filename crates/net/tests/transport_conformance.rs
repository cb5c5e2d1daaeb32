//! One conformance suite, every transport backend.
//!
//! The protocol state machines in `windjoin-cluster` rely on a precise
//! contract from [`TransportEndpoint`] (per-sender FIFO, blocking
//! receive, bounded buffering, self-send, correct sender attribution).
//! Each property here is written once against the trait and executed
//! over every backend: the in-process [`ChannelNetwork`], the
//! thread-per-peer [`TcpNetwork`] and the poller-driven
//! [`EventedNetwork`], both on `127.0.0.1` — and over a mesh whose
//! ranks mix the two socket backends. The suite that keeps the three
//! interchangeable underneath the cluster runtimes.

use bytes::Bytes;
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::time::{Duration, Instant};
use windjoin_net::tcp::FRAME_HEADER_BYTES;
use windjoin_net::{
    ChannelNetwork, EventedNetwork, Mesh, NetEvent, TcpNetwork, TransportEndpoint, WireStats,
};

/// The checks run on trait objects, so one mesh may mix backends.
type Ep = Box<dyn TransportEndpoint + Sync>;

/// Takes all endpoints out of a mesh.
fn endpoints<E: TransportEndpoint + Sync + 'static>(mut net: Mesh<E>) -> Vec<Ep> {
    (0..net.len()).map(|r| Box::new(net.take(r)) as Ep).collect()
}

/// Four ranks on pre-bound ephemeral listeners: even ranks run the
/// thread-per-peer backend, odd ranks the poller — what `windjoin-node`
/// processes launched with different `--transport` values form.
fn mixed_mesh(ranks: usize, capacity: usize) -> Vec<Ep> {
    let listeners: Vec<TcpListener> =
        (0..ranks).map(|_| TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap()).collect();
    let peers: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
    let window = Duration::from_secs(10);
    let handles: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(rank, l)| {
            let peers = peers.clone();
            std::thread::spawn(move || -> Ep {
                if rank % 2 == 0 {
                    Box::new(
                        TcpNetwork::establish_with_listener(rank, &peers, l, capacity, window)
                            .unwrap(),
                    )
                } else {
                    Box::new(
                        EventedNetwork::establish_with_listener(rank, &peers, l, capacity, window)
                            .unwrap(),
                    )
                }
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

fn check_identity(eps: &[Ep]) {
    for (r, ep) in eps.iter().enumerate() {
        assert_eq!(ep.rank(), r);
        assert_eq!(ep.network_len(), eps.len());
    }
}

fn check_per_sender_fifo(eps: &[Ep]) {
    const N: u32 = 400;
    // Concurrent sender: N frames exceed the inbox bound, so the send
    // side must block (never drop) while this thread drains.
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..N {
                eps[0].send(2, Bytes::from(i.to_le_bytes().to_vec())).unwrap();
            }
        });
        for i in 0..N {
            let f = eps[2].recv().unwrap();
            assert_eq!(f.from, 0);
            assert_eq!(u32::from_le_bytes(f.payload[..].try_into().unwrap()), i, "FIFO violated");
        }
    });
}

fn check_self_send(eps: &[Ep]) {
    eps[1].send(1, Bytes::from_static(b"me")).unwrap();
    let f = eps[1].recv().unwrap();
    assert_eq!((f.from, &f.payload[..]), (1, &b"me"[..]));
}

fn check_fan_in_attribution(eps: &[Ep]) {
    // Every other rank sends its own rank number to rank 0, concurrently.
    const PER_SENDER: usize = 50;
    std::thread::scope(|s| {
        for ep in &eps[1..] {
            s.spawn(move || {
                for _ in 0..PER_SENDER {
                    ep.send(0, Bytes::from(vec![ep.rank() as u8])).unwrap();
                }
            });
        }
        let mut counts = std::collections::HashMap::new();
        for _ in 0..(PER_SENDER * (eps.len() - 1)) {
            let f = eps[0].recv().unwrap();
            assert_eq!(f.payload[0] as usize, f.from, "sender misattributed");
            *counts.entry(f.from).or_insert(0usize) += 1;
        }
        for r in 1..eps.len() {
            assert_eq!(counts[&r], PER_SENDER, "rank {r} frames lost or duplicated");
        }
    });
}

fn check_timeout_and_try_recv(eps: &[Ep]) {
    assert_eq!(eps[2].try_recv(), None);
    assert_eq!(eps[2].recv_timeout(Duration::from_millis(20)).unwrap(), None);
    eps[0].send(2, Bytes::from_static(b"late")).unwrap();
    let f = eps[2]
        .recv_timeout(Duration::from_secs(5))
        .unwrap()
        .expect("frame must arrive within the timeout");
    assert_eq!(&f.payload[..], b"late");
}

fn check_large_frames(eps: &[Ep]) {
    // A 1 MiB payload (a big epoch batch) survives intact.
    let big: Vec<u8> = (0..1_048_576u32).map(|i| (i.wrapping_mul(2_654_435_761)) as u8).collect();
    eps[1].send(0, Bytes::from(big.clone())).unwrap();
    let f = eps[0].recv().unwrap();
    assert_eq!(f.from, 1);
    assert_eq!(&f.payload[..], &big[..], "large frame corrupted");
}

fn check_bulk_backpressure(eps: &[Ep]) {
    // 16 MiB of frames into a 16-frame inbox with a late reader: the
    // sender must block (not drop, not error, not buffer unboundedly)
    // and every frame must arrive in order once draining starts.
    const FRAMES: u32 = 2_000;
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..FRAMES {
                let mut payload = vec![0u8; 8 * 1024];
                payload[..4].copy_from_slice(&i.to_le_bytes());
                eps[1].send(0, Bytes::from(payload)).unwrap();
            }
        });
        std::thread::sleep(Duration::from_millis(50)); // let buffers fill
        for i in 0..FRAMES {
            let f = eps[0].recv().unwrap();
            assert_eq!(u32::from_le_bytes(f.payload[..4].try_into().unwrap()), i);
        }
    });
}

/// A stalled consumer (the paper's collector falling behind) must slow
/// its senders down without wedging the rest of the mesh: while rank 2
/// refuses to read, bounded buffering fills and rank 0's bulk sender
/// blocks, yet rank 0 <-> rank 1 traffic keeps flowing on the same
/// endpoints. When the stalled rank finally drains, every frame arrives
/// in order.
fn check_stalled_consumer_does_not_wedge_mesh(eps: &[Ep]) {
    const BULK: u32 = 1_500; // ~12 MiB: beyond any backend's buffering
    const PINGS: u32 = 200;
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..BULK {
                let mut payload = vec![0u8; 8 * 1024];
                payload[..4].copy_from_slice(&i.to_le_bytes());
                eps[0].send(2, Bytes::from(payload)).unwrap();
            }
        });
        // Rank 2 is deliberately stalled; 0 <-> 1 must stay live.
        for i in 0..PINGS {
            eps[0].send(1, Bytes::from(i.to_le_bytes().to_vec())).unwrap();
            let f = eps[1].recv().unwrap();
            assert_eq!((f.from, u32::from_le_bytes(f.payload[..].try_into().unwrap())), (0, i));
            eps[1].send(0, Bytes::from(i.to_le_bytes().to_vec())).unwrap();
            let f = eps[0].recv().unwrap();
            assert_eq!(f.from, 1, "ping-pong wedged behind the stalled rank");
        }
        // The stalled rank wakes up: nothing was lost or reordered.
        for i in 0..BULK {
            let f = eps[2].recv().unwrap();
            assert_eq!(f.from, 0);
            assert_eq!(u32::from_le_bytes(f.payload[..4].try_into().unwrap()), i);
        }
    });
}

/// Peer teardown mid-batch: a peer that sends part of a "batch" of
/// frames and dies must surface as a typed [`NetEvent::PeerDown`] at
/// every other rank — after its completed frames, never as a hang or a
/// partial-frame panic — and subsequent sends toward it must error.
fn check_peer_teardown_mid_batch(mut eps: Vec<Ep>) {
    // Enough frames that a backend with asynchronous sends (the
    // poller's write queues) still holds some when the drop lands:
    // dropping must flush them, not discard them. Needs an inbox of at
    // least SENT + 1 frames — nobody drains while the dying rank sends.
    const SENT: u32 = 100;
    let dead = eps.len() - 1;
    let dying = eps.pop().expect("at least two ranks");
    for i in 0..SENT {
        dying.send(0, Bytes::from(i.to_le_bytes().to_vec())).unwrap();
    }
    drop(dying); // dies "mid-batch": more frames were expected

    // Rank 0 drains the completed frames, then the death notice.
    let mut got = 0u32;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match eps[0].recv_event_timeout(left).unwrap() {
            Some(NetEvent::Frame(f)) if f.from == dead => {
                assert_eq!(u32::from_le_bytes(f.payload[..].try_into().unwrap()), got);
                got += 1;
            }
            Some(NetEvent::Frame(f)) => panic!("unexpected frame from rank {}", f.from),
            Some(NetEvent::PeerDown(r)) => {
                assert_eq!(r, dead, "wrong rank reported down");
                break;
            }
            None => panic!("peer teardown never surfaced: hang instead of PeerDown"),
        }
    }
    assert_eq!(got, SENT, "frames completed before death must all arrive first");
    // The other ranks see it too (no frames from the dead peer there).
    for ep in &eps[1..] {
        match ep.recv_event_timeout(Duration::from_secs(10)).unwrap() {
            Some(NetEvent::PeerDown(r)) => assert_eq!(r, dead),
            other => panic!("expected PeerDown({dead}), got {other:?}"),
        }
    }
    // Sends toward the dead rank eventually fail instead of blocking
    // forever (TCP may buffer a few writes before the reset lands).
    let mut failed = false;
    for _ in 0..1_000 {
        if eps[0].send(dead, Bytes::from(vec![0u8; 4096])).is_err() {
            failed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(failed, "send to the dead rank never failed");
}

/// The endpoint's own byte accounting: what one side counts as sent
/// the other counts as received — payload bytes on the channel
/// backend, payload plus `header` bytes per frame on sockets — and a
/// self-send, which never leaves its rank, is counted on no backend.
/// Runs first, on a mesh nothing has been sent over yet.
fn check_wire_stats(eps: &[Ep], header: usize) {
    for ep in eps {
        assert_eq!(ep.wire_stats(), WireStats::default(), "a fresh endpoint has moved nothing");
    }
    eps[0].send(1, Bytes::from(vec![7u8; 1000])).unwrap();
    eps[0].send_slice(1, &[7u8; 500]).unwrap();
    eps[1].send(1, Bytes::from_static(b"self")).unwrap();
    eps[1].send_slice(1, b"self").unwrap();
    for _ in 0..4 {
        eps[1].recv().unwrap();
    }
    let want = (1000 + 500 + 2 * header) as u64;
    // The poller counts a frame as sent when it reaches the socket,
    // which can be after the peer has already read it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while eps[0].wire_stats().bytes_sent < want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(eps[0].wire_stats(), WireStats { bytes_sent: want, bytes_recvd: 0 });
    assert_eq!(eps[1].wire_stats(), WireStats { bytes_sent: 0, bytes_recvd: want });
    assert_eq!(eps[2].wire_stats(), WireStats::default(), "a bystander moved nothing");
}

fn conformance(eps: Vec<Ep>, header: usize) {
    check_wire_stats(&eps, header);
    check_identity(&eps);
    check_per_sender_fifo(&eps);
    check_self_send(&eps);
    check_timeout_and_try_recv(&eps);
    check_large_frames(&eps);
    check_fan_in_attribution(&eps);
    check_bulk_backpressure(&eps);
    check_stalled_consumer_does_not_wedge_mesh(&eps);
}

#[test]
fn channel_backend_conforms() {
    conformance(endpoints(ChannelNetwork::new(4, 16)), 0);
}

#[test]
fn tcp_backend_conforms() {
    conformance(endpoints(TcpNetwork::loopback(4, 16).unwrap()), FRAME_HEADER_BYTES);
}

#[test]
fn evented_backend_conforms() {
    conformance(endpoints(EventedNetwork::loopback(4, 16).unwrap()), FRAME_HEADER_BYTES);
}

#[test]
fn mixed_socket_backends_conform() {
    conformance(mixed_mesh(4, 16), FRAME_HEADER_BYTES);
}

#[test]
fn channel_backend_peer_teardown() {
    check_peer_teardown_mid_batch(endpoints(ChannelNetwork::new(3, 128)));
}

#[test]
fn tcp_backend_peer_teardown() {
    check_peer_teardown_mid_batch(endpoints(TcpNetwork::loopback(3, 128).unwrap()));
}

#[test]
fn evented_backend_peer_teardown() {
    check_peer_teardown_mid_batch(endpoints(EventedNetwork::loopback(3, 128).unwrap()));
}

#[test]
fn mixed_socket_backends_peer_teardown() {
    // The dying rank (3) is a poller, the observer (0) thread-per-peer.
    check_peer_teardown_mid_batch(mixed_mesh(4, 128));
}
