//! SQL + serving: write the join as SQL text, compute an oracle answer
//! with the deterministic Sim driver, then stand up a `windjoin-serve`
//! service, submit the *same* SQL over TCP, stream the results back and
//! check the served run against the oracle checksum. A second, threaded
//! submission shows real-time streaming on the same server.
//!
//! ```text
//! cargo run --release --example sql_serve
//! ```

use windjoin::core::OutPair;
use windjoin::serve::{AdmissionLimits, ServeClient, Server};
use windjoin::sql;

/// The collector's XOR-fold, rebuilt client-side from streamed frames.
fn fold(checksum: &mut u64, pairs: &[OutPair]) {
    for p in pairs {
        *checksum ^= p.digest();
    }
}

const QUERY: &str = "SELECT *
    FROM quotes AS q JOIN trades AS t ON q.key = t.key
    WITHIN 5s
    WITH (runtime = sim, slaves = 2, rate = 400, run = 10s, warmup = 2s, seed = 11)";

fn main() {
    // 1. One piece of SQL, two execution paths. The Sim driver runs the
    //    lowered spec directly (virtual time, milliseconds of wall
    //    clock); its order-independent output checksum is the oracle.
    let oracle = sql::job_from_sql(QUERY).expect("valid query").run().expect("sim oracle run");
    println!(
        "oracle (Sim driver) : {} outputs, checksum {:016x}",
        oracle.outputs_total, oracle.output_checksum
    );

    // 2. The same SQL, served: submitted over TCP, executed by the
    //    service, results streamed back frame by frame.
    let server = Server::start("127.0.0.1:0", AdmissionLimits::default()).expect("bind server");
    println!("serving on {}", server.local_addr());

    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let job = client.submit_sql(QUERY).expect("submission admitted");
    println!("job {job} admitted, streaming results...");

    let mut streamed = 0u64;
    let mut streamed_checksum = 0u64;
    let summary = client
        .run_to_completion(job, |pairs| {
            streamed += pairs.len() as u64;
            fold(&mut streamed_checksum, pairs);
        })
        .expect("served run");
    println!(
        "served (same SQL)   : {} outputs, checksum {:016x}",
        summary.outputs_total, summary.output_checksum
    );

    assert_eq!(streamed, summary.outputs_total, "every output must be streamed");
    assert_eq!(
        streamed_checksum, summary.output_checksum,
        "streamed pairs must fold to the digest"
    );
    assert_eq!(
        summary.output_checksum, oracle.output_checksum,
        "served run must match the Sim-driver oracle"
    );
    assert_eq!(summary.outputs_total, oracle.outputs_total);

    // 3. Same server, real-time flavor: a short threaded-cluster job
    //    (real threads and wire frames) streamed through the same
    //    connection; its streamed frames must fold to its own digest.
    let rt = "SELECT * FROM a JOIN b ON a.key = b.key WITHIN 5s \
              WITH (runtime = threaded, slaves = 2, rate = 300, run = 3s, warmup = 500ms, seed = 7)";
    let job = client.submit_sql(rt).expect("threaded submission admitted");
    println!("job {job} (threaded cluster) admitted, running ~3 s...");
    let mut rt_streamed = 0u64;
    let mut rt_checksum = 0u64;
    let rt_summary = client
        .run_to_completion(job, |pairs| {
            rt_streamed += pairs.len() as u64;
            fold(&mut rt_checksum, pairs);
        })
        .expect("served threaded run");
    assert_eq!(rt_streamed, rt_summary.outputs_total);
    assert_eq!(rt_checksum, rt_summary.output_checksum);
    println!(
        "served (threaded)   : {} outputs, checksum {:016x}",
        rt_summary.outputs_total, rt_summary.output_checksum
    );

    server.stop();
    println!("\nok: the served SQL jobs reproduced their oracles exactly.");
}
