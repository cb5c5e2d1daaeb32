//! The three things the command prints: one run's result line (what the
//! driver reads), a whole set of runs — every workload, `reps` times —
//! with medians and quartiles, and the comparison of two saved sets.

use crate::metrics::{quartiles, Better, END_TO_END, PER_LAYER};
use crate::phase::floats;
use crate::run::{self, Outcome, Settings};
use crate::sut::{obj, Json};
use crate::workloads::{Workload, ALL};
use std::path::Path;

fn unit_of(name: &str) -> &'static str {
    let e2e = END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit);
    let layer = PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1);
    e2e.or(layer).unwrap_or_else(|| panic!("{name} is not in the metric tables"))
}

/// Prints the result line of one run of one workload and says whether
/// every metric the mode owes was measured.
pub fn print_result_line(out: &Outcome, traced: bool) -> bool {
    let owed: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let missing: Vec<&&str> = owed.iter().filter(|n| out.metric(n).is_none()).collect();
    if !missing.is_empty() {
        eprintln!("benchmark: no result: not measured: {missing:?}");
        return false;
    }
    let metrics = owed.iter().map(|name| {
        let value = Json::F64(out.metric(name).expect("checked above"));
        (*name, obj(vec![("value", value), ("unit", Json::Str(unit_of(name).into()))]))
    });
    let line = obj(vec![
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::U64(out.attempted)),
        ("failed", Json::U64(out.failed)),
        ("metrics", obj(metrics.collect())),
    ]);
    println!("{}", line.to_text());
    true
}

pub struct SetArgs {
    pub reps: usize,
    /// Spans-on ledger only: no tracing-overhead measurement.
    pub quick: bool,
}

fn describe(values: &[f64]) -> String {
    let [q1, med, q3] = quartiles(values);
    format!("{med:>14.4}  [q1 {q1:.4}, q3 {q3:.4}, n={}]", values.len())
}

fn workload_set(s: &Settings, w: &Workload, args: &SetArgs) -> std::io::Result<(Json, bool)> {
    let mut samples: Vec<(&str, Vec<f64>)> = END_TO_END.iter().map(|m| (m.name, vec![])).collect();
    let (mut attempted, mut failed) = (0, 0);
    let mut exact = Vec::new();
    let mut regime = String::from("not measured");
    for _ in 0..args.reps {
        let out = run::end_to_end(s, w);
        attempted += out.attempted;
        failed += out.failed;
        for (name, values) in &mut samples {
            values.extend(out.metric(name));
        }
        exact = out.exact;
        regime = out.burst_regime.unwrap_or(regime);
    }
    let layers = run::per_layer(s, w, !args.quick)?;
    attempted += layers.attempted;
    failed += layers.failed;
    exact.extend(layers.exact.iter().copied());

    println!("\n== {}   burst_regime: {regime}", w.name);
    println!(
        "   failed_share: {} ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    for (m, (_, values)) in END_TO_END.iter().zip(&samples) {
        if values.is_empty() {
            println!("   {:<34} not measured", m.name);
            continue;
        }
        let sign = if m.better == Better::Lower { '+' } else { '-' };
        let bound = format!("bound {sign}{:.0}%", m.bound * 100.0);
        println!("   {:<34}{} {:<12}{bound}", m.name, describe(values), m.unit);
    }
    // In the table's order; quick mode leaves the tracing overhead out.
    let layer_values: Vec<(&str, f64)> =
        PER_LAYER.iter().filter_map(|m| Some((m.0, layers.metric(m.0)?))).collect();
    for &(name, value) in &layer_values {
        println!("   {name:<34}{value:>14.4} {}", unit_of(name));
    }
    for (name, value) in &exact {
        println!("   {name:<34}{value:>14}");
    }
    let json = obj(vec![
        ("name", Json::Str(w.name.into())),
        ("burst_regime", Json::Str(regime)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        ("end_to_end", obj(samples.iter().map(|(n, v)| (*n, floats(v))).collect())),
        ("per_layer", obj(layer_values.iter().map(|&(n, v)| (n, Json::F64(v))).collect())),
        ("exact", obj(exact.iter().map(|&(n, v)| (n, Json::U64(v))).collect())),
    ]);
    Ok((json, failed == 0))
}

/// Runs every workload `reps` times plus its traced run, prints every
/// metric by name with its unit, and saves the set to `save_to`.
/// Returns whether no operation failed.
pub fn run_set(s: &Settings, args: &SetArgs, save_to: &Path) -> std::io::Result<bool> {
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for w in &ALL {
        let (json, ok) = workload_set(s, w, args)?;
        workloads.push(json);
        all_ok &= ok;
    }
    let set = obj(vec![
        ("schema", Json::Str("windjoin-benchmark/1".into())),
        ("seed", Json::U64(s.seed)),
        ("seconds", Json::F64(s.seconds)),
        ("reps", Json::U64(args.reps as u64)),
        ("workloads", Json::Arr(workloads)),
    ]);
    if let Some(dir) = save_to.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(save_to, set.to_text())?;
    println!("\nsaved to {}", save_to.display());
    Ok(all_ok)
}

fn load_set(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workload_of<'a>(set: &'a Json, name: &str) -> Option<&'a Json> {
    let all = set.get("workloads")?.as_arr()?;
    all.iter().find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn samples_of(workload: &Json, metric: &str) -> Vec<f64> {
    let arr = workload.get("end_to_end").and_then(|e| e.get(metric)).and_then(Json::as_arr);
    arr.unwrap_or(&[]).iter().filter_map(Json::as_f64).collect()
}

/// How set B's samples of a metric stand against set A's.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A set's own spread is wider than the bound: it cannot tell.
    Unresolved,
}

/// `(worsening of B's median as a share of A's, verdict)`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let ([a1, am, a3], [b1, bm, b3]) = (quartiles(a), quartiles(b));
    let worse = match better {
        Better::Lower => (bm - am) / am,
        Better::Higher => (am - bm) / am,
    };
    let verdict = if (a3 - a1) / am > bound || (b3 - b1) / bm > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Prints one row per (workload, end-to-end metric) of two saved sets.
/// Returns whether nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load_set(path_a)?, load_set(path_b)?);
    let mut regressed = false;
    println!(
        "{:<14}{:<20}{:>15}{:>15}{:>9}  {:<10} quartiles A | B",
        "workload", "metric", "median A", "median B", "worse", "verdict"
    );
    for w in &ALL {
        let (Some(wa), Some(wb)) = (workload_of(&a, w.name), workload_of(&b, w.name)) else {
            return Err(format!("{} is missing from one of the sets", w.name));
        };
        for m in &END_TO_END {
            let (sa, sb) = (samples_of(wa, m.name), samples_of(wb, m.name));
            if sa.is_empty() || sb.is_empty() {
                println!("{:<14}{:<20} not measured in both sets", w.name, m.name);
                regressed = true;
                continue;
            }
            let (worse, verdict) = judge(&sa, &sb, m.better, m.bound);
            regressed |= verdict == Verdict::Regressed;
            let ([a1, am, a3], [b1, bm, b3]) = (quartiles(&sa), quartiles(&sb));
            println!(
                "{:<14}{:<20}{am:>15.4}{bm:>15.4}{:>+8.1}%  {:<10} {a1:.4}..{a3:.4} | {b1:.4}..{b3:.4}",
                w.name,
                m.name,
                worse * 100.0,
                format!("{verdict:?}").to_lowercase(),
            );
        }
        let same = wa.get("exact") == wb.get("exact") && wa.get("exact").is_some();
        println!("{:<14}exact counters {}", w.name, if same { "identical" } else { "differ" });
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0];
        // 5 % slower against a 10 % bound: fine. 15 % slower: regressed.
        assert_eq!(judge(&base, &[105.0, 104.0, 106.0], Better::Lower, 0.10).1, Verdict::Ok);
        let (worse, verdict) = judge(&base, &[115.0, 114.0, 116.0], Better::Lower, 0.10);
        assert!((worse - 0.15).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regressed);
        // Higher-is-better flips the direction.
        assert_eq!(judge(&base, &[115.0, 114.0, 116.0], Better::Higher, 0.10).1, Verdict::Ok);
        assert_eq!(judge(&base, &[85.0, 84.0, 86.0], Better::Higher, 0.10).1, Verdict::Regressed);
        // A set that spreads wider than the bound resolves nothing.
        assert_eq!(judge(&base, &[90.0, 130.0, 110.0], Better::Lower, 0.10).1, Verdict::Unresolved);
    }
}
