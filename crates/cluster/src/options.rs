//! The job options: one table under the job file, SQL and the node CLI.
//!
//! [`OPTIONS`] has one row per scalar setting of a [`JobSpec`], and the
//! front ends iterate it instead of spelling the options: the job file
//! ([`JobSpec::to_json`] / [`JobSpec::from_json`]) encodes, decodes and
//! rejects unknown fields by it, SQL `WITH` ([`crate::sql`]) looks its
//! keys up in it, and `windjoin-node` reads its flags with [`JobFlags`]
//! and prints [`flag_usage`].
//!
//! One name spells an option everywhere. The SQL key is the name; the
//! JSON key is the name, plus `_us` on a duration; the flag is `--` and
//! the name with `_` turned into `-`, plus `-ms` on a duration
//! (`dist_epoch` is `"dist_epoch_us"` and `--dist-epoch-ms`). A value
//! travels as [`Json`] whatever the front end, so each setter's check
//! (an integer's width, a finite number, a known word) holds for all of
//! them; whether the values make a runnable job is for
//! [`crate::NodeConfig::validate`] alone to say. Values apply in table
//! order, whatever order they were written in: `slaves` keeps
//! `total_slaves` in step unless a pool was provisioned, so
//! `total_slaves` comes after.

use crate::api::{
    keys_from_json, keys_to_json, residual_from_json, residual_to_json, source_from_json,
    source_to_json, tuning_from_json, tuning_to_json, JobSpec, Runtime, SinkSpec, SourceSpec,
};
use crate::json::Json;
use windjoin_gen::{KeyDist, RateSchedule};

/// The syntax an option's values take in SQL and on the command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A non-negative integer.
    Int,
    /// A span of time, carried in microseconds.
    Duration,
    /// A number.
    Number,
    /// `true` or `false`; as a flag, present means `true`.
    Bool,
    /// One of these words.
    Word(&'static [&'static str]),
    /// A key distribution, in each front end's own syntax.
    Keys,
    /// A JSON value with a codec of its own (job file only).
    Nested,
}

/// The job object carries the option (a [`JobOption::fronts`] bit).
pub const JOB: u8 = 1;
/// The job file's `params` object carries the option.
pub const PARAMS: u8 = 2;
/// SQL `WITH` takes the option.
pub const SQL: u8 = 4;
/// `windjoin-node` takes the option as a flag.
pub const CLI: u8 = 8;

/// One row of [`OPTIONS`].
#[derive(Debug, Clone, Copy)]
pub struct JobOption {
    /// The name every front end spells the option by (module docs).
    pub name: &'static str,
    /// The syntax of its values.
    pub kind: Kind,
    /// The front ends that take it: [`JOB`] or [`PARAMS`], [`SQL`],
    /// [`CLI`].
    pub fronts: u8,
    /// One line for usage text.
    pub doc: &'static str,
    /// Reads it from a spec.
    pub get: fn(&JobSpec) -> Json,
    /// Checks a value and writes it into a spec.
    pub set: fn(&mut JobSpec, &Json) -> Result<(), String>,
}

type Access = (fn(&JobSpec) -> Json, fn(&mut JobSpec, &Json) -> Result<(), String>);

const fn row(
    name: &'static str,
    kind: Kind,
    fronts: u8,
    doc: &'static str,
    a: Access,
) -> JobOption {
    JobOption { name, kind, fronts, doc, get: a.0, set: a.1 }
}

/// The value as an integer field of type `T`.
fn int<T: TryFrom<u64>>(j: &Json) -> Result<T, String> {
    let n = j.as_u64().and_then(|n| T::try_from(n).ok());
    n.ok_or_else(|| format!("expected an integer of type {}", std::any::type_name::<T>()))
}

fn num(j: &Json) -> Result<f64, String> {
    j.as_f64().filter(|x| x.is_finite()).ok_or_else(|| "expected a finite number".into())
}

fn boolean(j: &Json) -> Result<bool, String> {
    j.as_bool().ok_or_else(|| "expected true or false".into())
}

/// Reads and writes one integer field.
macro_rules! int {
    ($($f:ident).+) => {(
        |s| Json::U64(s.$($f).+ as u64),
        |s, j| { s.$($f).+ = int(j)?; Ok(()) },
    )};
}

/// Reads and writes one number field.
macro_rules! num {
    ($($f:ident).+) => {(|s| Json::F64(s.$($f).+), |s, j| { s.$($f).+ = num(j)?; Ok(()) })};
}

/// A word option's words, and the values they stand for in that order.
type Words<T> = (&'static [&'static str], &'static [T]);
const RUNTIME: Words<Runtime> =
    (&["sim", "threaded", "tcp"], &[Runtime::Sim, Runtime::Threaded, Runtime::Tcp]);
const SINK: Words<SinkSpec> = (&["count", "capture"], &[SinkSpec::Count, SinkSpec::Capture]);

fn word<T: PartialEq>((words, values): Words<T>, x: T) -> Json {
    Json::Str(words[values.iter().position(|v| *v == x).expect("every value has a word")].into())
}

fn pick<T: Copy>((words, values): Words<T>, j: &Json) -> Result<T, String> {
    let i = words.iter().position(|w| Some(*w) == j.as_str());
    i.map(|i| values[i]).ok_or_else(|| format!("{} (expected {})", j.to_text(), words.join(" | ")))
}

/// The synthetic source's schedule and keys, which `rate` and `keys`
/// set. A replay tape has neither.
fn synthetic(s: &mut JobSpec) -> Result<(&mut RateSchedule, &mut KeyDist), String> {
    match &mut s.source {
        SourceSpec::Synthetic { rate, keys } => Ok((rate, keys)),
        SourceSpec::Replay { .. } => Err("conflicts with a replay source".into()),
    }
}

/// Every scalar setting of a [`JobSpec`], in job-file order. The job
/// file carries every row but `rate` and `keys` (both in `source`) and
/// `window` (`w_left` and `w_right`); SQL sets the window by `WITHIN`.
#[rustfmt::skip]
pub const OPTIONS: &[JobOption] = &[
    row("runtime", Kind::Word(RUNTIME.0), JOB | SQL, "execution substrate", (
        |s| word(RUNTIME, s.runtime), |s, j| { s.runtime = pick(RUNTIME, j)?; Ok(()) })),
    row("slaves", Kind::Int, JOB | SQL, "active slave nodes", (
        |s| Json::U64(s.slaves as u64), |s, j| { s.set_slaves(int(j)?); Ok(()) })),
    row("total_slaves", Kind::Int, JOB | SQL, "provisioned slaves (simulator only)", int!(total_slaves)),
    row("run", Kind::Duration, JOB | SQL | CLI, "run horizon", int!(run_us)),
    row("warmup", Kind::Duration, JOB | SQL | CLI, "statistics warm-up", int!(warmup_us)),
    row("seed", Kind::Int, JOB | SQL | CLI, "master seed", int!(seed)),
    row("adaptive_dod", Kind::Bool, JOB | SQL | CLI, "§V-A adaptive declustering", (
        |s| Json::Bool(s.adaptive_dod), |s, j| { s.adaptive_dod = boolean(j)?; Ok(()) })),
    row("payload_bytes", Kind::Int, JOB | SQL | CLI, "wire payload width per tuple", int!(payload_bytes)),
    row("residual", Kind::Nested, JOB, "residual predicate", (
        |s| residual_to_json(&s.residual), |s, j| { s.residual = residual_from_json(j)?; Ok(()) })),
    row("source", Kind::Nested, JOB, "arrival source", (
        |s| source_to_json(&s.source), |s, j| { s.source = source_from_json(j)?; Ok(()) })),
    row("rate", Kind::Number, SQL | CLI, "tuples/s per stream", (
        |s| Json::F64(s.rate_and_keys().0),
        |s, j| { *synthetic(s)?.0 = RateSchedule::try_steps(vec![(0, num(j)?)])?; Ok(()) })),
    // A key distribution drives a constant-rate source at the
    // schedule's starting rate, as `--keys` always has.
    row("keys", Kind::Keys, SQL | CLI, "join-attribute distribution", (
        |s| keys_to_json(&s.rate_and_keys().1),
        |s, j| {
            let (rate, keys) = synthetic(s)?;
            (*rate, *keys) = (RateSchedule::constant(rate.rate_at(0)), keys_from_json(j)?);
            Ok(())
        })),
    row("sink", Kind::Word(SINK.0), JOB | SQL, "result retention", (
        |s| word(SINK, s.sink), |s, j| { s.sink = pick(SINK, j)?; Ok(()) })),
    row("heartbeat", Kind::Duration, JOB | SQL | CLI, "slave beacon interval; 0 off", int!(heartbeat_us)),
    row("max_missed", Kind::Int, JOB | SQL | CLI, "silent beacons before a slave is dead; 0 off", int!(max_missed)),
    row("window", Kind::Duration, CLI, "sliding window (both)", (
        |s| Json::U64(s.params.sem.w_left_us),
        |s, j| { let w = int(j)?; (s.params.sem.w_left_us, s.params.sem.w_right_us) = (w, w); Ok(()) })),
    row("w_left", Kind::Duration, PARAMS, "left sliding window", int!(params.sem.w_left_us)),
    row("w_right", Kind::Duration, PARAMS, "right sliding window", int!(params.sem.w_right_us)),
    row("npart", Kind::Int, PARAMS | SQL | CLI, "hash partitions", int!(params.npart)),
    row("tuple_bytes", Kind::Int, PARAMS, "wire size of one tuple", int!(params.tuple_bytes)),
    row("block_bytes", Kind::Int, PARAMS, "block size", int!(params.block_bytes)),
    row("tuning", Kind::Nested, PARAMS, "fine tuning (null: off)", (
        |s| tuning_to_json(&s.params.tuning),
        |s, j| { s.params.tuning = tuning_from_json(j)?; Ok(()) })),
    // Sets the expiry lag to its default too; `expiry_lag` comes after.
    row("dist_epoch", Kind::Duration, PARAMS | SQL | CLI, "distribution epoch t_d", (
        |s| Json::U64(s.params.dist_epoch_us),
        |s, j| { s.params = s.params.clone().with_dist_epoch_us(int(j)?); Ok(()) })),
    row("reorg_epoch", Kind::Duration, PARAMS | SQL | CLI, "reorganization epoch t_r", int!(params.reorg_epoch_us)),
    row("slave_buffer_bytes", Kind::Int, PARAMS, "slave stream buffer", int!(params.slave_buffer_bytes)),
    row("th_con", Kind::Number, PARAMS, "consumer threshold Th_con", num!(params.th_con)),
    row("th_sup", Kind::Number, PARAMS, "supplier threshold Th_sup", num!(params.th_sup)),
    row("beta", Kind::Number, PARAMS, "degree-of-declustering granularity β", num!(params.beta)),
    row("ng", Kind::Int, PARAMS, "sub-groups n_g of slot-sliced communication", int!(params.ng)),
    row("expiry_lag", Kind::Duration, PARAMS, "retention beyond the window", int!(params.expiry_lag_us)),
];

impl JobOption {
    /// The key the job file spells the option by.
    pub fn json_key(&self) -> String {
        let us = if self.kind == Kind::Duration { "_us" } else { "" };
        format!("{}{us}", self.name)
    }

    /// The flag `windjoin-node` spells the option by.
    pub fn flag(&self) -> String {
        let ms = if self.kind == Kind::Duration { "-ms" } else { "" };
        format!("--{}{ms}", self.name.replace('_', "-"))
    }
}

/// The first row `pred` holds for, with its index.
pub fn find(pred: impl Fn(&JobOption) -> bool) -> Option<(usize, &'static JobOption)> {
    OPTIONS.iter().enumerate().find(|(_, o)| pred(o))
}

/// Sets `values` (one slot per row of [`OPTIONS`]) into `spec` in table
/// order; a failure names its row.
pub fn apply(
    spec: &mut JobSpec,
    values: &[Option<Json>],
) -> Result<(), (&'static JobOption, String)> {
    for (o, v) in OPTIONS.iter().zip(values) {
        if let Some(v) = v {
            (o.set)(spec, v).map_err(|why| (o, why))?;
        }
    }
    Ok(())
}

/// Parses a flag's key distribution: `uniform:D`, `bmodel:B:D`,
/// `zipf:S:D` or `constant:K`.
fn parse_keys(spec: &str) -> Option<KeyDist> {
    let int = |s: &str| s.parse().ok();
    Some(match spec.split(':').collect::<Vec<_>>().as_slice() {
        ["uniform", d] => KeyDist::Uniform { domain: int(d)? },
        ["bmodel", b, d] => KeyDist::BModel { bias: b.parse().ok()?, domain: int(d)? },
        ["zipf", s, d] => KeyDist::Zipf { s: s.parse().ok()?, domain: int(d)? },
        ["constant", k] => KeyDist::Constant { key: int(k)? },
        _ => return None,
    })
}

/// `windjoin-node`'s job flags, read but not yet applied.
#[derive(Debug, Clone)]
pub struct JobFlags(Vec<Option<Json>>);

impl Default for JobFlags {
    fn default() -> Self {
        JobFlags(vec![None; OPTIONS.len()])
    }
}

impl JobFlags {
    /// Reads `flag` if it is a job flag, taking its argument from
    /// `next`; `Ok(false)` when it is none. A repeated flag's last value
    /// wins.
    pub fn read(
        &mut self,
        flag: &str,
        next: impl FnOnce() -> Option<String>,
    ) -> Result<bool, String> {
        let Some((i, o)) = find(|o| o.fronts & CLI != 0 && o.flag() == flag) else {
            return Ok(false);
        };
        if o.kind == Kind::Bool {
            self.0[i] = Some(Json::Bool(true));
            return Ok(true);
        }
        let arg = next().ok_or_else(|| format!("{flag} needs a value"))?;
        let value = match o.kind {
            Kind::Int => arg.parse().ok().map(Json::U64),
            Kind::Duration => {
                arg.parse::<u64>().ok().and_then(|ms| ms.checked_mul(1_000)).map(Json::U64)
            }
            Kind::Number => arg.parse().ok().map(Json::F64),
            Kind::Keys => parse_keys(&arg).map(|k| keys_to_json(&k)),
            _ => Some(Json::Str(arg.clone())),
        };
        let metavar = metavar(o.kind);
        self.0[i] = Some(value.ok_or_else(|| format!("bad {flag} {arg:?} (expected {metavar})"))?);
        Ok(true)
    }

    /// Sets the flags into `spec`, in table order.
    pub fn apply(&self, spec: &mut JobSpec) -> Result<(), String> {
        apply(spec, &self.0).map_err(|(o, why)| format!("{}: {why}", o.flag()))
    }
}

/// The placeholder for a flag's argument in usage text.
fn metavar(kind: Kind) -> String {
    match kind {
        Kind::Int => "N".into(),
        Kind::Duration => "MS".into(),
        Kind::Number => "X".into(),
        Kind::Word(words) => words.join("|"),
        Kind::Keys => "uniform:D|bmodel:B:D|zipf:S:D|constant:K".into(),
        Kind::Bool | Kind::Nested => String::new(),
    }
}

/// The job flags' reference, one line each, with the demo defaults.
pub fn flag_usage() -> String {
    let demo = JobSpec::demo(2);
    let line = |o: &JobOption| {
        let default = match ((o.get)(&demo), o.kind) {
            (Json::U64(us), Kind::Duration) => format!(" [{}]", us / 1_000),
            (Json::Str(w), _) => format!(" [{w}]"),
            (j @ (Json::U64(_) | Json::F64(_)), _) => format!(" [{}]", j.to_text()),
            _ => String::new(),
        };
        let flag = format!("{} {}", o.flag(), metavar(o.kind));
        let gap = if flag.len() < 24 { "" } else { "\n                         " };
        format!("  {:<24}{gap} {}{default}\n", flag.trim_end(), o.doc)
    };
    OPTIONS.iter().filter(|o| o.fronts & CLI != 0).map(line).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ReplayTuple;
    use windjoin_core::Side;

    fn names(front: u8, spell: fn(&JobOption) -> String) -> Vec<String> {
        let mut names: Vec<_> =
            OPTIONS.iter().filter(|o| o.fronts & front != 0).map(spell).collect();
        names.sort();
        names
    }

    fn sorted(names: &[&str]) -> Vec<String> {
        let mut names: Vec<_> = names.iter().map(|n| n.to_string()).collect();
        names.sort();
        names
    }

    #[test]
    fn each_front_end_takes_the_names_it_always_took() {
        assert_eq!(
            names(CLI, JobOption::flag),
            sorted(&[
                "--rate",
                "--run-ms",
                "--warmup-ms",
                "--seed",
                "--window-ms",
                "--dist-epoch-ms",
                "--reorg-epoch-ms",
                "--npart",
                "--keys",
                "--payload-bytes",
                "--adaptive-dod",
                "--heartbeat-ms",
                "--max-missed",
            ])
        );
        assert_eq!(
            names(SQL, |o| o.name.to_string()),
            sorted(&[
                "runtime",
                "slaves",
                "total_slaves",
                "payload_bytes",
                "rate",
                "keys",
                "seed",
                "run",
                "warmup",
                "npart",
                "dist_epoch",
                "reorg_epoch",
                "adaptive_dod",
                "sink",
                "heartbeat",
                "max_missed",
            ])
        );
        assert_eq!(
            names(JOB, JobOption::json_key),
            sorted(&[
                "runtime",
                "slaves",
                "total_slaves",
                "run_us",
                "warmup_us",
                "seed",
                "adaptive_dod",
                "payload_bytes",
                "residual",
                "source",
                "sink",
                "heartbeat_us",
                "max_missed",
            ])
        );
        assert_eq!(
            names(PARAMS, JobOption::json_key),
            sorted(&[
                "w_left_us",
                "w_right_us",
                "npart",
                "tuple_bytes",
                "block_bytes",
                "tuning",
                "dist_epoch_us",
                "reorg_epoch_us",
                "slave_buffer_bytes",
                "th_con",
                "th_sup",
                "beta",
                "ng",
                "expiry_lag_us",
            ])
        );
    }

    fn flags(args: &[&str]) -> Result<JobFlags, String> {
        let mut flags = JobFlags::default();
        let mut it = args.iter().map(|a| a.to_string());
        while let Some(flag) = it.next() {
            if !flags.read(&flag, || it.next())? {
                return Err(format!("unknown flag {flag}"));
            }
        }
        Ok(flags)
    }

    #[test]
    fn job_flags_read_then_apply_in_table_order() {
        let mut spec = JobSpec::demo(2);
        let read =
            flags(&["--dist-epoch-ms", "100", "--seed", "1", "--adaptive-dod", "--seed", "2"]);
        read.expect("valid flags").apply(&mut spec).expect("applies");
        assert_eq!((spec.seed, spec.adaptive_dod), (2, true), "the last --seed wins");
        assert_eq!((spec.params.dist_epoch_us, spec.params.expiry_lag_us), (100_000, 200_000));

        assert_eq!(flags(&["--probe-threads", "4"]).unwrap_err(), "unknown flag --probe-threads");
        assert_eq!(flags(&["--engine", "exact"]).unwrap_err(), "unknown flag --engine");
        assert_eq!(flags(&["--npart"]).unwrap_err(), "--npart needs a value");
        for bad in [["--window-ms", "18446744073709552"], ["--keys", "zipf:1"], ["--seed", "-1"]] {
            assert!(flags(&bad).unwrap_err().starts_with(&format!("bad {}", bad[0])), "{bad:?}");
        }
        let applied = |args: &[&str]| flags(args).and_then(|f| f.apply(&mut JobSpec::demo(2)));
        assert_eq!(
            applied(&["--npart", "4294967296"]).unwrap_err(),
            "--npart: expected an integer of type u32"
        );
        assert_eq!(applied(&["--rate", "inf"]).unwrap_err(), "--rate: expected a finite number");

        // A replay tape has no rate or key distribution to replace.
        let tape = vec![ReplayTuple { side: Side::Left, at_us: 1, key: 1, payload: vec![] }];
        for args in [["--rate", "5"], ["--keys", "uniform:9"]] {
            let mut spec = JobSpec { source: SourceSpec::replay(tape.clone()), ..JobSpec::demo(2) };
            let why = flags(&args).and_then(|f| f.apply(&mut spec)).unwrap_err();
            assert!(why.ends_with("conflicts with a replay source"), "{why}");
        }
    }

    #[test]
    fn keys_drive_a_constant_rate_at_the_schedule_start() {
        let mut spec = JobSpec::demo(2);
        spec.source = SourceSpec::Synthetic {
            rate: RateSchedule::steps(vec![(0, 300.0), (1_000, 900.0)]),
            keys: KeyDist::paper_default(),
        };
        flags(&["--keys", "uniform:9"]).and_then(|f| f.apply(&mut spec)).expect("applies");
        let SourceSpec::Synthetic { rate, keys } = &spec.source else { panic!("synthetic") };
        assert_eq!((rate, *keys), (&RateSchedule::constant(300.0), KeyDist::Uniform { domain: 9 }));
    }

    #[test]
    fn usage_lists_every_flag_with_its_default() {
        let usage = flag_usage();
        assert_eq!(usage.matches("\n  --").count() + 1, names(CLI, JobOption::flag).len());
        for line in ["--run-ms MS", "run horizon [6000]", "--npart N", "hash partitions [16]"] {
            assert!(usage.contains(line), "{line}:\n{usage}");
        }
    }
}
