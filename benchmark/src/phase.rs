//! One full-cluster run of one phase, in a child process of its own so
//! CPU time, peak RSS and panics are per run.
//!
//! The child ([`run_in_child`]) runs master, slaves and collector over
//! loopback sockets and stamps every output batch with the benchmark's
//! own monotonic clock; it prints one JSON object. The parent
//! ([`spawn`]) re-executes the benchmark binary and parses that line.

use crate::hist::DelayHist;
use crate::metrics::median;
use crate::sut::{self, obj, Json};
use crate::workloads::{Phase, Workload};
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Mesh bring-ups a paced child times for `net.mesh_setup_mean_ms`. One
/// takes about 1 ms of handshake work plus, three times in four, 10 ms
/// (the acceptors poll every 10 ms).
const MESH_SAMPLES: usize = 20;
/// The measured part of a paced run is cut into this many windows; the
/// delay metrics are the median of the windows' quantiles, so the
/// seconds in which the host stalls or slows do not decide them.
const DELAY_WINDOWS: usize = 5;
/// A child that runs longer than this is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(90);

/// What the collector's sink saw, on the benchmark's clock.
struct SinkState {
    /// Delays by window of the measured part (later ones in the last).
    windows: Vec<DelayHist>,
    last_output_us: u64,
}

/// The child's result line: a JSON object of plain numbers.
pub struct PhaseResult(Json);

impl PhaseResult {
    pub fn f(&self, key: &str) -> f64 {
        self.0.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("result lacks {key}"))
    }

    pub fn u(&self, key: &str) -> u64 {
        self.0.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("result lacks {key}"))
    }

    /// A number the run may have withheld (`null`).
    pub fn opt(&self, key: &str) -> Option<f64> {
        self.0.get(key).and_then(Json::as_f64)
    }

    pub fn list(&self, key: &str) -> Vec<f64> {
        let arr = self.0.get(key).and_then(Json::as_arr);
        arr.unwrap_or_else(|| panic!("result lacks {key}"))
            .iter()
            .filter_map(Json::as_f64)
            .collect()
    }
}

/// A JSON array of numbers.
pub fn floats(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::F64(x)).collect())
}

fn proc_status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find(|l| l.starts_with(field));
    line.and_then(|l| l.split_whitespace().nth(1)).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// utime + stime of this process, seconds (USER_HZ is 100 on Linux).
fn proc_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 =
        after.split_whitespace().skip(11).take(2).filter_map(|v| v.parse::<u64>().ok()).sum();
    ticks as f64 / 100.0
}

/// Runs one phase in this process and prints its result line.
pub fn run_in_child(w: &Workload, phase: Phase, seed: u64, seconds: f64) -> std::io::Result<()> {
    let job = w.job(phase, seed, seconds);
    let mut mesh_total_s = 0.0;
    if phase == Phase::Paced {
        for _ in 0..MESH_SAMPLES {
            mesh_total_s += sut::mesh_setup_s(job.backend, job.ranks())?;
        }
    }
    let windows = vec![DelayHist::default(); DELAY_WINDOWS];
    let state = Arc::new(Mutex::new(SinkState { windows, last_output_us: 0 }));
    let origin: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
    let (sink_state, sink_origin) = (Arc::clone(&state), Arc::clone(&origin));
    let warmup_us = job.warmup_us;
    let window_us = (job.run_us - job.warmup_us).div_ceil(DELAY_WINDOWS as u64);
    let out = sut::run_cluster(
        &job,
        || origin.set(Instant::now()).expect("the clock starts once"),
        move |pairs| {
            let origin = sink_origin.get().expect("the clock started before the ranks");
            let now_us = origin.elapsed().as_micros() as u64;
            let mut s = sink_state.lock().expect("only the collector thread records");
            s.last_output_us = now_us;
            if now_us >= warmup_us {
                let window = ((now_us - warmup_us) / window_us) as usize;
                let delays = &mut s.windows[window.min(DELAY_WINDOWS - 1)];
                for p in pairs {
                    // Timed from when the newer constituent was due.
                    delays.record(now_us.saturating_sub(p.newest_t()));
                }
            }
        },
    )?;
    let peak_rss_kb = proc_status_kb("VmHWM:");
    let cpu_s = proc_cpu_s();
    let s = state.lock().expect("the run is over");
    let mut d = DelayHist::default();
    s.windows.iter().for_each(|w| d.merge(w));
    // Withheld unless every window supports the quantile.
    let over_windows = |q: f64| -> Option<f64> {
        let per_window: Option<Vec<f64>> =
            s.windows.iter().map(|w| w.supported_quantile(q)).collect();
        per_window.map(|v| median(&v))
    };
    let ms = |us: Option<f64>| us.map_or(Json::Null, |v| Json::F64(v / 1e3));
    let result = obj(vec![
        ("outputs_total", Json::U64(out.outputs_total)),
        ("checksum", Json::U64(out.checksum)),
        ("tuples_in", Json::U64(out.tuples_in)),
        ("run_s", Json::F64(job.run_us as f64 / 1e6)),
        ("wall_s", Json::F64(out.wall_s)),
        ("last_output_s", Json::F64(s.last_output_us as f64 / 1e6)),
        ("delay_samples", Json::U64(d.count())),
        ("delay_p50_ms", ms(over_windows(0.5))),
        ("delay_p99_ms", ms(over_windows(0.99))),
        ("delay_p99_whole_run_ms", ms(d.supported_quantile(0.99))),
        ("delay_mean_ms", Json::F64(d.mean() / 1e3)),
        ("collector_delay_mean_ms", Json::F64(out.collector_delay_mean_us / 1e3)),
        ("dead_slaves", Json::U64(out.dead_slaves)),
        ("tuples_lost", Json::U64(out.tuples_lost)),
        ("master_peak_buffer_bytes", Json::U64(out.master_peak_buffer_bytes)),
        ("bytes_sent", Json::U64(out.bytes_sent)),
        ("slave_busy_s", floats(&out.slave_busy_s)),
        ("slave_comm_s", floats(&out.slave_comm_s)),
        ("setup_s", Json::F64(out.setup_s)),
        ("mesh_setup_mean_s", Json::F64(mesh_total_s / MESH_SAMPLES as f64)),
        ("peak_rss_mb", Json::F64(peak_rss_kb as f64 / 1024.0)),
        ("cpu_s", Json::F64(cpu_s)),
    ]);
    println!("{}", result.to_text());
    Ok(())
}

/// Runs one phase in a fresh child of `exe` (the benchmark binary).
/// `Err` carries why the run produced no result: it panicked, exited
/// nonzero, timed out or printed something else.
pub fn spawn(
    exe: &Path,
    w: &Workload,
    phase: Phase,
    seed: u64,
    seconds: f64,
) -> Result<PhaseResult, String> {
    let mut child = Command::new(exe)
        .args(["phase", "--workload", w.name, "--phase", phase.name()])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait failed: {e}"))? {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("timed out after {} s", CHILD_TIMEOUT.as_secs()));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = reader.join().expect("reader thread").map_err(|e| format!("read failed: {e}"))?;
    if !status.success() {
        return Err(format!("child ended with {status}"));
    }
    let line = text.lines().last().unwrap_or("");
    Json::parse(line).map(PhaseResult).map_err(|e| format!("bad result line: {e}"))
}
