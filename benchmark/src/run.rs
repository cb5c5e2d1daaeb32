//! One measured run of one workload: the untraced run yields the
//! end-to-end metrics (a paced and a burst cluster run), the traced run
//! the per-layer ones (a paced cluster run for the counters a real run
//! has, and the single-thread ledger with spans on and off). Every run
//! is checked against the streaming oracle.

use crate::ledger::{self, Ledger};
use crate::oracle::{self, Expected};
use crate::phase::{self, PhaseResult};
use crate::workloads::{Phase, Regime, Workload};
use std::path::Path;
use std::time::Instant;

/// A paced run that ends this long after its horizon fell behind its
/// arrival schedule: its delays are a backlog's, not the system's.
const MAX_OVERRUN_MS: f64 = 250.0;

pub struct Settings<'a> {
    /// The benchmark binary, re-executed for every cluster run.
    pub exe: &'a Path,
    pub seed: u64,
    pub seconds: f64,
    /// Where trace files go.
    pub out_dir: &'a Path,
}

/// What one run of one workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Oracle result pairs of every tape that was run.
    pub attempted: u64,
    /// Those of the runs that failed.
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Counters that repeat exactly for a seed.
    pub exact: Vec<(&'static str, u64)>,
    /// `saturating`, `source_limited`, or how the burst left its regime.
    pub burst_regime: Option<String>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Books one run of a tape; a failed run fails all its operations.
    fn book(&mut self, what: &str, exp: &Expected, verdict: Result<(), String>) {
        let ops = exp.pairs.max(1);
        self.attempted += ops;
        if let Err(why) = verdict {
            eprintln!("benchmark: FAILED {what}: {why}");
            self.failed += ops;
        }
    }
}

fn same_result(outputs: u64, checksum: u64, tuples: u64, exp: &Expected) -> Result<(), String> {
    if (tuples, outputs, checksum) == (exp.tuples, exp.pairs, exp.checksum) {
        return Ok(());
    }
    Err(format!(
        "got {tuples} tuples -> {outputs} pairs, checksum {checksum:016x}; the oracle has \
         {} tuples -> {} pairs, checksum {:016x}",
        exp.tuples, exp.pairs, exp.checksum
    ))
}

/// Runs a cluster phase in a child and judges it.
fn cluster_run(
    s: &Settings,
    w: &Workload,
    phase: Phase,
    exp: &Expected,
    out: &mut Outcome,
) -> Option<PhaseResult> {
    let what = format!("{} {}", w.name, phase.name());
    let r = match phase::spawn(s.exe, w, phase, s.seed, s.seconds) {
        Ok(r) => r,
        Err(why) => {
            out.book(&what, exp, Err(why));
            return None;
        }
    };
    let overrun_ms = (r.f("wall_s") - r.f("run_s")) * 1e3;
    let verdict = same_result(r.u("outputs_total"), r.u("checksum"), r.u("tuples_in"), exp)
        .and_then(|()| match (r.u("dead_slaves"), r.u("tuples_lost")) {
            (0, 0) => Ok(()),
            (dead, lost) => Err(format!("{dead} dead slave(s), {lost} tuple(s) lost")),
        })
        .and_then(|()| {
            if phase == Phase::Paced && overrun_ms >= MAX_OVERRUN_MS {
                return Err(format!("not sustained: ended {overrun_ms:.0} ms past its horizon"));
            }
            Ok(())
        });
    out.book(&what, exp, verdict);
    Some(r)
}

/// The untraced run: end-to-end metrics.
pub fn end_to_end(s: &Settings, w: &Workload) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is everything a run does before it measures: making both
    // tapes from the seed, working out what they must produce, and
    // bringing up each phase's cluster.
    let inputs_made = Instant::now();
    let paced_job = w.job(Phase::Paced, s.seed, s.seconds);
    let burst_job = w.job(Phase::Burst, s.seed, s.seconds);
    let paced_exp = oracle::expected(paced_job.tape(), &paced_job.semantics());
    let burst_exp = oracle::expected(burst_job.tape(), &burst_job.semantics());
    let mut setup_s = Some(inputs_made.elapsed().as_secs_f64());

    let paced = cluster_run(s, w, Phase::Paced, &paced_exp, &mut out);
    let burst = cluster_run(s, w, Phase::Burst, &burst_exp, &mut out);
    for r in [&paced, &burst] {
        setup_s = setup_s.zip(r.as_ref()).map(|(total, r)| total + r.f("setup_s"));
    }
    if let Some(r) = paced {
        for name in ["delay_p50_ms", "delay_p99_ms"] {
            match r.opt(name) {
                Some(ms) => out.metrics.push((name, ms)),
                None => eprintln!(
                    "benchmark: {}: {name} withheld, only {} delay samples",
                    w.name,
                    r.u("delay_samples")
                ),
            }
        }
        out.metrics.push(("peak_rss_mb", r.f("peak_rss_mb")));
        out.exact.push(("paced_tuples_in", r.u("tuples_in")));
        out.exact.push(("paced_outputs_total", r.u("outputs_total")));
        out.exact.push(("paced_checksum", r.u("checksum")));
    }
    if let Some(r) = burst {
        // From the clock origin to the last output the collector saw.
        let drained_s = r.f("last_output_s");
        out.metrics.push(("burst_tuples_per_s", r.u("tuples_in") as f64 / drained_s));
        out.exact.push(("burst_tuples_in", r.u("tuples_in")));
        out.exact.push(("burst_outputs_total", r.u("outputs_total")));
        out.exact.push(("burst_checksum", r.u("checksum")));
        let ratio = drained_s / r.f("run_s");
        let regime = match w.burst_regime {
            // A burst the cluster nearly keeps up with no longer
            // measures capacity: the workload needs re-sizing.
            Regime::Saturating if ratio < 1.25 => {
                format!("left saturating: drained in {ratio:.2}x its event-time span")
            }
            regime => regime.name().to_string(),
        };
        eprintln!("benchmark: {} burst drained in {ratio:.2}x its span: {regime}", w.name);
        out.burst_regime = Some(regime);
    }
    out.metrics.extend(setup_s.map(|s| ("setup_s", s)));
    out
}

fn per(total_ns: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total_ns as f64 / n as f64
    }
}

/// The ledger's stage metrics, from its spans.
fn ledger_metrics(l: &Ledger, out: &mut Outcome) {
    let own = l.tracer.self_times();
    let ns = |stage: &str| own.get(stage).copied().unwrap_or(0);
    let (tuples, pairs) = (l.tuples_in, l.outputs_total);
    let epoch_ns = l.tracer.total_ns("epoch");
    for (name, stage, n) in [
        ("gen.pull_ns_per_tuple", "gen.pull", tuples),
        ("master.route_ns_per_tuple", "master.route", tuples),
        ("master.drain_slot_ns_per_tuple", "master.drain_slot", tuples),
        ("msg.batch_encode_ns_per_tuple", "msg.batch_encode", tuples),
        ("msg.batch_decode_ns_per_tuple", "msg.batch_decode", tuples),
        ("msg.outputs_encode_ns_per_pair", "msg.outputs_encode", pairs),
        ("msg.outputs_decode_ns_per_pair", "msg.outputs_decode", pairs),
        ("slave.receive_ns_per_tuple", "slave.receive", tuples),
        ("slave.drain_ns_per_tuple", "slave.drain", tuples),
        ("collector.fold_ns_per_pair", "collector.fold", pairs),
    ] {
        out.metrics.push((name, per(ns(stage), n)));
    }
    out.metrics.push(("wire.batch_us_per_frame", per(ns("wire.batch"), l.batch_frames) / 1e3));
    out.metrics.push(("wire.outputs_us_per_frame", per(ns("wire.outputs"), l.output_frames) / 1e3));
    let frames = (l.batch_frames + l.output_frames) as f64;
    out.metrics.push(("wire.frames_per_epoch", frames / l.epochs as f64));
    let fold_s = ns("collector.fold") as f64 / 1e9;
    out.metrics
        .push(("collector.outputs_per_s", if pairs == 0 { 0.0 } else { pairs as f64 / fold_s }));
    let per_tuple = |count: u64| count as f64 / tuples.max(1) as f64;
    out.metrics.push(("slave.comparisons_per_tuple", per_tuple(l.work.comparisons)));
    out.metrics.push(("slave.hash_ops_per_tuple", per_tuple(l.work.hash_ops)));
    out.metrics.push(("slave.blocks_touched_per_tuple", per_tuple(l.work.blocks_touched)));
    out.metrics.push(("slave.emitted_per_tuple", per_tuple(l.work.emitted)));
    out.metrics.push(("slave.window_tuples", l.window_tuples as f64));
    // ns per tuple and us per thousand tuples are the same number.
    let per_ktuple = |stage: &str| per(ns(stage), l.state_tuples);
    out.metrics.push(("state.snapshot_us_per_ktuple", per_ktuple("state.snapshot")));
    out.metrics.push(("state.move_us_per_ktuple", per_ktuple("state.move")));
    out.metrics.push(("ledger.ns_per_tuple", per(epoch_ns, tuples)));
    out.metrics.push(("ledger.unattributed_share", ns("epoch") as f64 / epoch_ns.max(1) as f64));
    out.exact.push(("ledger_comparisons", l.work.comparisons));
}

/// The traced run: per-layer metrics. With `overhead`, the ledger runs
/// a second time with spans off to measure what tracing costs.
pub fn per_layer(s: &Settings, w: &Workload, overhead: bool) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let job = w.job(Phase::Paced, s.seed, s.seconds);
    let exp = oracle::expected(job.tape(), &job.semantics());

    if let Some(r) = cluster_run(s, w, Phase::Paced, &exp, &mut out) {
        let (wall_s, tuples) = (r.f("wall_s"), r.u("tuples_in").max(1) as f64);
        let share = |v: &[f64]| v.iter().map(|s| s / wall_s).collect::<Vec<f64>>();
        let (busy, comm) = (share(&r.list("slave_busy_s")), share(&r.list("slave_comm_s")));
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        out.metrics.push(("slave.busy_share_avg", avg(&busy)));
        out.metrics.push(("slave.busy_share_max", busy.iter().copied().fold(0.0, f64::max)));
        out.metrics.push(("slave.comm_share_avg", avg(&comm)));
        out.metrics.push(("slave.idle_share_avg", (1.0 - avg(&busy) - avg(&comm)).max(0.0)));
        out.metrics.push(("cluster.cpu_us_per_tuple", r.f("cpu_s") * 1e6 / tuples));
        out.metrics.push(("cluster.run_overrun_ms", (wall_s - r.f("run_s")) * 1e3));
        // The whole run's p99 (one stall decides it) beside the
        // end-to-end metric's median over windows; 0 when withheld.
        let whole = r.opt("delay_p99_whole_run_ms").unwrap_or(0.0);
        out.metrics.push(("cluster.delay_p99_whole_run_ms", whole));
        out.metrics.push(("net.mesh_setup_mean_ms", r.f("mesh_setup_mean_s") * 1e3));
        let skew = (r.f("delay_mean_ms") - r.f("collector_delay_mean_ms")).abs();
        out.metrics.push(("clock_skew_ms", skew));
        out.metrics.push(("master.peak_buffer_bytes", r.u("master_peak_buffer_bytes") as f64));
        out.metrics.push(("wire.bytes_per_tuple", r.u("bytes_sent") as f64 / tuples));
    }

    let traced = ledger::run(&job, true)?;
    let verdict = same_result(traced.outputs_total, traced.checksum, traced.tuples_in, &exp);
    out.book(&format!("{} ledger", w.name), &exp, verdict);
    ledger_metrics(&traced, &mut out);
    std::fs::create_dir_all(s.out_dir)?;
    let trace_file = s.out_dir.join(format!("trace-{}.json", w.name));
    std::fs::write(&trace_file, traced.tracer.to_json(w.name).to_text())?;
    eprintln!("benchmark: wrote {} spans to {}", traced.tracer.spans().len(), trace_file.display());

    if overhead {
        let plain = ledger::run(&job, false)?;
        let verdict = same_result(plain.outputs_total, plain.checksum, plain.tuples_in, &exp);
        out.book(&format!("{} ledger, spans off", w.name), &exp, verdict);
        let share = (traced.loop_ns as f64 - plain.loop_ns as f64) / plain.loop_ns as f64;
        out.metrics.push(("ledger.span_overhead_share", share));
    }
    Ok(out)
}
