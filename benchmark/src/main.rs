//! `windjoin-benchmark`: see `benchmark/README.md`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use windjoin_benchmark::run::{self, Settings};
use windjoin_benchmark::suite::{self, SetArgs};
use windjoin_benchmark::workloads::{self, Phase, Workload};
use windjoin_benchmark::{metrics, phase};

const USAGE: &str = "\
usage:
  run.sh --workload NAME --seed N --seconds S --trace 0|1
      one run of one workload; the last line of stdout is its result
  run.sh [--seed N] [--reps N] [--seconds S] [--quick] [--save FILE]
      every workload, `reps` times plus a traced run; prints every metric
  run.sh --compare A.json B.json
      one row per (workload, end-to-end metric) of two saved sets
workloads: sparse_flat sparse_tuned hot_keys wide_payload";

/// Seconds one run measures; `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
const QUICK_SECONDS: f64 = 12.0;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    phase: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u64>,
    reps: Option<usize>,
    quick: bool,
    save: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args::default();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: String| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--phase" => a.phase = Some(value()?),
            "--seed" => a.seed = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--seconds" => a.seconds = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--trace" => a.trace = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--reps" => a.reps = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--quick" => a.quick = true,
            "--save" => a.save = Some(value()?.into()),
            "--compare" => a.compare = Some((value()?, value()?)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if a.seconds.is_some_and(|s| !(s.is_finite() && s >= 1.0)) {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

fn workload_named(name: Option<&String>) -> Result<&'static Workload, String> {
    let name = name.ok_or("--workload is required")?;
    workloads::by_name(name).ok_or(format!("unknown workload {name:?}"))
}

fn real_main() -> Result<bool, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let child = argv.next_if(|a| a == "phase").is_some();
    let args = parse(argv)?;
    let seed = args.seed.unwrap_or(11);
    if child {
        // Internal: one cluster run in this process (see `phase.rs`).
        let w = workload_named(args.workload.as_ref())?;
        let phase = args.phase.as_deref().and_then(Phase::parse).ok_or("--phase paced|burst")?;
        let seconds = args.seconds.ok_or("--seconds is required")?;
        phase::run_in_child(w, phase, seed, seconds).map_err(|e| e.to_string())?;
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        return suite::compare(a, b);
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let out_dir = Path::new("benchmark/out");
    let quick_or = |normal| if args.quick { QUICK_SECONDS } else { normal };
    let seconds = args.seconds.unwrap_or(quick_or(DEFAULT_SECONDS));
    let s = Settings { exe: &exe, seed, seconds, out_dir };
    if args.workload.is_some() {
        let w = workload_named(args.workload.as_ref())?;
        let traced = match args.trace {
            Some(0) | None => false,
            Some(1) => true,
            Some(t) => return Err(format!("--trace is 0 or 1, not {t}")),
        };
        let out = if traced {
            run::per_layer(&s, w, true).map_err(|e| e.to_string())?
        } else {
            run::end_to_end(&s, w)
        };
        return Ok(suite::print_result_line(&out, traced));
    }
    let reps = if args.quick { 1 } else { args.reps.unwrap_or(3) };
    let set = SetArgs { reps, quick: args.quick };
    let save_to = args.save.unwrap_or(out_dir.join(format!("set-seed{seed}.json")));
    println!(
        "{} workloads x {reps} rep(s) of {seconds} s, seed {seed}; {} end-to-end and {} per-layer metrics",
        workloads::ALL.len(),
        metrics::END_TO_END.len(),
        metrics::PER_LAYER.len()
    );
    suite::run_set(&s, &set, &save_to).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
