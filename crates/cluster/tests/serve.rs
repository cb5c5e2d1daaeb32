//! End-to-end tests of the `windjoin-serve` service layer: SQL and
//! hand-built submissions agree, concurrent jobs are isolated and match
//! their single-job oracles, the admission controller rejects over
//! budget, and CANCEL truncates a long run promptly.

use std::time::{Duration, Instant};
use windjoin_cluster::api::{JobSpec, JoinJob};
use windjoin_cluster::serve::{
    AdmissionLimits, JobState, RejectReason, ServeClient, ServeError, Server,
};
use windjoin_cluster::sql;
use windjoin_core::OutPair;

fn fold(checksum: &mut u64, pairs: &[OutPair]) {
    for p in pairs {
        *checksum ^= p.digest();
    }
}

/// A Sim-runtime query: virtual time, so it serves in milliseconds.
fn sim_sql(seed: u64) -> String {
    format!(
        "SELECT * FROM s1 JOIN s2 ON s1.key = s2.key WITHIN 4s \
         WITH (runtime = sim, slaves = 2, rate = 350, run = 8s, warmup = 1s, seed = {seed})"
    )
}

#[test]
fn sql_submission_matches_handbuilt_spec_submission() {
    let server = Server::start("127.0.0.1:0", AdmissionLimits::default()).expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    // The same job three ways: direct Sim-driver run (the oracle),
    // served SQL text, and the served hand-built JobSpec.
    let spec = sql::spec_from_sql(&sim_sql(21)).expect("valid query");
    let oracle = JoinJob::from_spec(spec.clone()).expect("job").run().expect("oracle run");
    assert!(oracle.outputs_total > 0, "the oracle must produce results");

    let via_sql = client.submit_sql(&sim_sql(21)).expect("sql admitted");
    let sql_summary = client.run_to_completion(via_sql, |_| {}).expect("sql run");

    let via_spec = client.submit_spec(&spec).expect("spec admitted");
    let spec_summary = client.run_to_completion(via_spec, |_| {}).expect("spec run");

    for s in [&sql_summary, &spec_summary] {
        assert_eq!(s.outputs_total, oracle.outputs_total);
        assert_eq!(s.output_checksum, oracle.output_checksum);
        assert_eq!(s.tuples_in, oracle.tuples_in);
        assert_eq!(s.outputs, oracle.outputs);
        assert_eq!(s.moves, oracle.moves);
        assert!(!s.cancelled);
    }
    server.stop();
}

#[test]
fn concurrent_jobs_are_isolated_and_match_single_job_oracles() {
    let server = Server::start("127.0.0.1:0", AdmissionLimits::default()).expect("bind");

    // Two different jobs, submitted back-to-back on one connection so
    // they run concurrently; their OUTPUTS frames interleave and the
    // client demultiplexes by job id.
    let oracles: Vec<_> = [33u64, 34]
        .iter()
        .map(|&seed| {
            let spec = sql::spec_from_sql(&sim_sql(seed)).expect("valid query");
            JoinJob::from_spec(spec).expect("job").run().expect("oracle run")
        })
        .collect();
    assert_ne!(
        oracles[0].output_checksum, oracles[1].output_checksum,
        "distinct seeds must give distinct answers for isolation to be observable"
    );

    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    let job_a = client.submit_sql(&sim_sql(33)).expect("job a admitted");
    let job_b = client.submit_sql(&sim_sql(34)).expect("job b admitted");
    assert_ne!(job_a, job_b);

    // Drain B first (its frames interleave with A's), then A from the
    // queued backlog.
    let mut check_b = 0u64;
    let summary_b = client.run_to_completion(job_b, |p| fold(&mut check_b, p)).expect("b run");
    let mut check_a = 0u64;
    let summary_a = client.run_to_completion(job_a, |p| fold(&mut check_a, p)).expect("a run");

    assert_eq!(summary_a.output_checksum, oracles[0].output_checksum);
    assert_eq!(summary_a.outputs_total, oracles[0].outputs_total);
    assert_eq!(summary_b.output_checksum, oracles[1].output_checksum);
    assert_eq!(summary_b.outputs_total, oracles[1].outputs_total);
    // Streamed frames fold to each job's own digest — no cross-talk.
    assert_eq!(check_a, summary_a.output_checksum);
    assert_eq!(check_b, summary_b.output_checksum);
    server.stop();
}

/// A long threaded job for admission/cancel tests: real time, so it
/// stays Running long enough to observe.
fn long_threaded_spec() -> JobSpec {
    sql::spec_from_sql(
        "SELECT * FROM a JOIN b ON a.key = b.key WITHIN 5s \
         WITH (runtime = threaded, slaves = 2, rate = 200, run = 30s, warmup = 1s, seed = 5)",
    )
    .expect("valid query")
}

#[test]
fn admission_controller_rejects_over_budget_and_recovers() {
    let server = Server::start("127.0.0.1:0", AdmissionLimits { max_jobs: 1, max_partitions: 256 })
        .expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let running = client.submit_spec(&long_threaded_spec()).expect("first job admitted");

    // Over the job cap: typed Admission rejection naming the budget.
    match client.submit_spec(&long_threaded_spec()) {
        Err(ServeError::Rejected { reason: RejectReason::Admission, detail }) => {
            assert!(detail.contains("job cap"), "detail: {detail}");
        }
        other => panic!("expected an admission rejection, got {other:?}"),
    }
    // Bad SQL and bad specs get their own typed reasons.
    match client.submit_sql("SELECT nope") {
        Err(ServeError::Rejected { reason: RejectReason::Sql, .. }) => {}
        other => panic!("expected an SQL rejection, got {other:?}"),
    }
    match client.submit_sql(&format!(
        "{} WITH (slaves = 0)",
        "SELECT * FROM a JOIN b ON a.key = b.key WITHIN 1s"
    )) {
        Err(ServeError::Rejected { reason: RejectReason::Sql, .. }) => {}
        other => panic!("expected a lowering rejection, got {other:?}"),
    }

    // Cancel the running job; once it flushes, the budget frees up and
    // a new submission is admitted again.
    let (state, _, _) = client.cancel(running).expect("cancel");
    assert!(matches!(state, JobState::Cancelling | JobState::Cancelled), "state {state:?}");
    let summary = client.run_to_completion(running, |_| {}).expect("cancelled run completes");
    assert!(summary.cancelled);

    let next = client.submit_sql(&sim_sql(8)).expect("budget released after cancel");
    client.run_to_completion(next, |_| {}).expect("next run");
    server.stop();
}

#[test]
fn partition_budget_is_part_of_admission() {
    let server = Server::start("127.0.0.1:0", AdmissionLimits { max_jobs: 8, max_partitions: 20 })
        .expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    // Demo npart is 16: one fits, a second (16 + 16 > 20) does not.
    let first = client.submit_spec(&long_threaded_spec()).expect("first admitted");
    match client.submit_spec(&long_threaded_spec()) {
        Err(ServeError::Rejected { reason: RejectReason::Admission, detail }) => {
            assert!(detail.contains("partition budget"), "detail: {detail}");
        }
        other => panic!("expected a partition rejection, got {other:?}"),
    }
    client.cancel(first).expect("cancel");
    client.run_to_completion(first, |_| {}).expect("flush");
    server.stop();
}

#[test]
fn cancel_truncates_a_long_run_promptly() {
    let server = Server::start("127.0.0.1:0", AdmissionLimits::default()).expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    // 30 s of configured run time; cancel after ~1.5 s of it.
    let job = client.submit_spec(&long_threaded_spec()).expect("admitted");
    let started = Instant::now();
    std::thread::sleep(Duration::from_millis(1500));
    let (state, _, _) = client.cancel(job).expect("cancel");
    assert!(matches!(state, JobState::Cancelling | JobState::Cancelled), "state {state:?}");

    let mut streamed = 0u64;
    let summary = client.run_to_completion(job, |p| streamed += p.len() as u64).expect("done");
    let elapsed = started.elapsed();
    assert!(summary.cancelled, "the digest must record the truncation");
    assert!(
        elapsed < Duration::from_secs(15),
        "cancel must beat the 30 s horizon by a wide margin, took {elapsed:?}"
    );
    assert_eq!(streamed, summary.outputs_total);
    // Cancelling twice (or after completion) is harmless and reports
    // the terminal state.
    let (state, outputs, loss) = client.cancel(job).expect("idempotent cancel");
    assert_eq!(state, JobState::Cancelled);
    assert_eq!(outputs, summary.outputs_total);
    // No slave died in this run, so the loss accounting is all zero.
    assert_eq!(loss, windjoin_cluster::serve::JobLoss::default());

    // Unknown job ids are a request error, not a hang.
    match client.status(9999) {
        Err(ServeError::Server(detail)) => assert!(detail.contains("unknown job")),
        other => panic!("expected unknown-job error, got {other:?}"),
    }
    server.stop();
}

/// Satellite guarantee of the CLI: a `FAILED` frame from the service
/// must make `windjoin-submit` print the server's reason and exit
/// nonzero — scripts keying on its exit status must never mistake a
/// dead job for a clean one. A scripted fake server keeps the failure
/// deterministic (no real runtime error is needed to provoke it).
#[test]
fn submit_binary_exits_nonzero_with_reason_on_failed_frame() {
    use std::io::{Read, Write};
    use windjoin_cluster::serve::{encode_response, Response};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("addr");
    const REASON: &str = "slave 2 died before the window flushed";

    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // Consume the SUBMIT frame (length-prefixed; body ignored).
        let mut hdr = [0u8; 4];
        stream.read_exact(&mut hdr).expect("submit header");
        let mut body = vec![0u8; u32::from_le_bytes(hdr) as usize];
        stream.read_exact(&mut body).expect("submit body");
        for reply in
            [Response::Accepted { job: 3 }, Response::Failed { job: 3, detail: REASON.into() }]
        {
            let payload = encode_response(&reply);
            stream.write_all(&(payload.len() as u32).to_le_bytes()).expect("reply header");
            stream.write_all(&payload).expect("reply body");
        }
        // Keep the socket open until the client exits on its own.
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
    });

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_windjoin-submit"))
        .args(["--connect", &addr.to_string(), "--sql", "SELECT 1"])
        .output()
        .expect("run windjoin-submit");
    server.join().expect("fake server");

    assert_eq!(out.status.code(), Some(1), "FAILED must map to exit 1, got {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(REASON), "the reason must be printed, stderr:\n{stderr}");
}
