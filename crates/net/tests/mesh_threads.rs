//! A socket endpoint is driven by its rank's own thread: once the mesh
//! handshake is over, a loopback mesh runs no thread of its own. (A
//! test binary of its own, so no other test's threads come and go.)

use bytes::Bytes;
use std::time::{Duration, Instant};
use windjoin_net::{TcpNetwork, TransportEndpoint};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

/// The thread count once it has settled back to `want` (a joined
/// thread leaves the task list a moment after `join` returns), or
/// whatever it is after a second.
fn settled(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    while threads() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    threads()
}

#[test]
fn a_four_rank_loopback_mesh_leaves_no_thread_running_after_its_handshake() {
    let before = threads();
    let mut net = TcpNetwork::loopback(4, 16).expect("loopback mesh");
    assert_eq!(settled(before), before, "the handshake left threads behind");
    let eps: Vec<_> = (0..4).map(|r| net.take(r)).collect();
    // Frames cross the mesh with nobody but this thread moving them.
    for (r, ep) in eps.iter().enumerate().skip(1) {
        ep.send(0, Bytes::from(vec![r as u8; 100])).unwrap();
    }
    let mut from: Vec<usize> = (1..4).map(|_| eps[0].recv().unwrap().from).collect();
    from.sort_unstable();
    assert_eq!(from, [1, 2, 3]);
    assert_eq!(threads(), before, "a send or receive started a thread");
    drop(eps);
    assert_eq!(settled(before), before);
}
