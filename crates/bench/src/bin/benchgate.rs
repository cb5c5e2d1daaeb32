//! `benchgate` — CI regression gate over `perfjson` snapshots.
//!
//! Compares a freshly measured `bench_now.json` against a committed
//! baseline (`BENCH_probe.json` or `BENCH_net.json`) and fails
//! (exit 1) when:
//!
//! * the headline `speedup_vs_scalar` ratio regressed by more than
//!   `--max-regression` (same-machine-same-process ratio, the most
//!   hardware-independent number we have);
//! * any scenario present in both snapshots regressed by more than
//!   `--max-scenario-regression` in elements/sec.
//!
//! The speedup gate applies only when the *baseline* carries the field —
//! a `perfjson --net` snapshot (the `net_saturate` family) has none, and
//! is gated purely on per-scenario regression. A baseline that has it
//! and a current run that dropped it is a failure, not a skip.
//!
//! `--markdown PATH` additionally writes a baseline-vs-current
//! comparison table (GitHub-flavoured) for `$GITHUB_STEP_SUMMARY`.
//!
//! ```text
//! benchgate --baseline BENCH_probe.json --current bench_now.json \
//!     [--max-regression 0.30] [--max-scenario-regression 0.30] [--markdown PATH]
//! ```

/// Minimal extraction of `"field": <number>` from the perfjson format
/// (full JSON parsing is not needed for a file we generate ourselves).
fn extract_number(json: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))?;
    rest[..end].parse().ok()
}

/// Every `(name, elements_per_sec)` pair in a perfjson snapshot.
fn extract_scenarios(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for chunk in json.split("{\"name\": \"").skip(1) {
        let Some(name_end) = chunk.find('"') else { continue };
        let name = chunk[..name_end].to_string();
        if let Some(rate) = extract_number(chunk, "elements_per_sec") {
            out.push((name, rate));
        }
    }
    out
}

fn rate_of(scenarios: &[(String, f64)], name: &str) -> Option<f64> {
    scenarios.iter().find(|(n, _)| n == name).map(|&(_, r)| r)
}

fn usage_and_exit(msg: &str) -> ! {
    eprintln!("benchgate: {msg}");
    eprintln!(
        "usage: benchgate --baseline PATH --current PATH [--max-regression F] \
         [--max-scenario-regression F] [--markdown PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline: Option<String> = None;
    let mut current: Option<String> = None;
    let mut markdown: Option<String> = None;
    let mut max_regression = 0.30f64;
    let mut max_scenario_regression = 0.30f64;
    let mut i = 0;
    while i < argv.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).cloned().unwrap_or_else(|| usage_and_exit("flag needs a value"))
        };
        let fractional = |i: &mut usize, flag: &str| -> f64 {
            value(i).parse().unwrap_or_else(|_| usage_and_exit(&format!("bad {flag}")))
        };
        match argv[i].as_str() {
            "--baseline" => baseline = Some(value(&mut i)),
            "--current" => current = Some(value(&mut i)),
            "--markdown" => markdown = Some(value(&mut i)),
            "--max-regression" => max_regression = fractional(&mut i, "--max-regression"),
            "--max-scenario-regression" => {
                max_scenario_regression = fractional(&mut i, "--max-scenario-regression")
            }
            other => usage_and_exit(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    let baseline_path = baseline.unwrap_or_else(|| usage_and_exit("--baseline is required"));
    let current_path = current.unwrap_or_else(|| usage_and_exit("--current is required"));
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage_and_exit(&format!("reading {path}: {e}")))
    };
    let base = read(&baseline_path);
    let curr = read(&current_path);
    for (label, json) in [("baseline", &base), ("current", &curr)] {
        let known = json.contains("\"schema\": \"windjoin-perfjson/1\"")
            || json.contains("\"schema\": \"windjoin-perfjson/2\"");
        if !known {
            usage_and_exit(&format!("{label} snapshot has an unknown schema"));
        }
    }

    let base_speedup = extract_number(&base, "speedup_vs_scalar");
    let curr_speedup = extract_number(&curr, "speedup_vs_scalar");
    if let (Some(b), Some(c)) = (base_speedup, curr_speedup) {
        println!("benchgate: speedup_vs_scalar baseline {b:.2}x, current {c:.2}x");
    }
    let base_rates = extract_scenarios(&base);
    let curr_rates = extract_scenarios(&curr);
    let mut failures: Vec<String> = Vec::new();

    for (name, rate) in &curr_rates {
        let vs = match rate_of(&base_rates, name) {
            Some(b) => {
                let delta = rate / b - 1.0;
                if delta < -max_scenario_regression {
                    failures.push(format!(
                        "scenario {name} regressed {:.1}% (baseline {b:.0} -> {rate:.0} \
                         elem/s, allowance {:.0}%)",
                        -delta * 100.0,
                        max_scenario_regression * 100.0
                    ));
                }
                format!("{:+.1}% vs baseline", delta * 100.0)
            }
            None => "new scenario".into(),
        };
        println!("  {name:<36} {rate:>14.0} elem/s  ({vs})");
    }

    match (base_speedup, curr_speedup) {
        (Some(base_speedup), Some(curr_speedup)) => {
            let floor = base_speedup * (1.0 - max_regression);
            if curr_speedup < floor {
                failures.push(format!(
                    "speedup_vs_scalar {curr_speedup:.2}x fell below {floor:.2}x \
                     (baseline {base_speedup:.2}x minus {:.0}% allowance)",
                    max_regression * 100.0
                ));
            }
        }
        (Some(_), None) => failures.push("current snapshot dropped speedup_vs_scalar".to_string()),
        (None, _) => {}
    }

    if let Some(path) = markdown {
        let md =
            render_markdown(&base_rates, &curr_rates, base_speedup.zip(curr_speedup), &failures);
        std::fs::write(&path, md)
            .unwrap_or_else(|e| usage_and_exit(&format!("writing {path}: {e}")));
        println!("benchgate: wrote markdown comparison to {path}");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("benchgate: FAIL — {f}");
        }
        std::process::exit(1);
    }
    println!(
        "benchgate: OK — no scenario regressed >{:.0}%{}",
        max_scenario_regression * 100.0,
        if base_speedup.is_some() { ", speedup floor held" } else { "" }
    );
}

/// The `$GITHUB_STEP_SUMMARY` comparison table: committed baseline vs
/// fresh run, per scenario, with deltas.
fn render_markdown(
    base_rates: &[(String, f64)],
    curr_rates: &[(String, f64)],
    speedups: Option<(f64, f64)>,
    failures: &[String],
) -> String {
    let mut md = String::from("## Bench comparison (committed baseline vs this run)\n\n");
    md.push_str("| scenario | baseline elem/s | current elem/s | delta |\n");
    md.push_str("|---|---:|---:|---:|\n");
    for (name, rate) in curr_rates {
        let (base_cell, delta_cell) = match rate_of(base_rates, name) {
            Some(b) => (format!("{b:.0}"), format!("{:+.1}%", (rate / b - 1.0) * 100.0)),
            None => ("—".into(), "new".into()),
        };
        md.push_str(&format!("| `{name}` | {base_cell} | {rate:.0} | {delta_cell} |\n"));
    }
    for (name, b) in base_rates {
        if rate_of(curr_rates, name).is_none() {
            md.push_str(&format!("| `{name}` | {b:.0} | — | removed |\n"));
        }
    }
    if let Some((base_speedup, curr_speedup)) = speedups {
        md.push_str(&format!(
            "\n**speedup_vs_scalar**: baseline {base_speedup:.2}x → current {curr_speedup:.2}x\n"
        ));
    }
    if failures.is_empty() {
        md.push_str("\n✅ all gates passed\n");
    } else {
        md.push_str("\n❌ gate failures:\n");
        for f in failures {
            md.push_str(&format!("- {f}\n"));
        }
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_scenarios_and_fields() {
        let json = r#"{
  "schema": "windjoin-perfjson/2",
  "host_cpus": 4,
  "speedup_vs_scalar": 30.267,
  "scenarios": [
    {"name": "a/b", "elements_per_sec": 100.5, "ns_per_iter": 10.0},
    {"name": "c=1", "elements_per_sec": 7.0, "ns_per_iter": 1.0}
  ]
}"#;
        assert_eq!(extract_number(json, "host_cpus"), Some(4.0));
        assert_eq!(extract_number(json, "speedup_vs_scalar"), Some(30.267));
        let s = extract_scenarios(json);
        assert_eq!(s.len(), 2);
        assert_eq!(rate_of(&s, "a/b"), Some(100.5));
        assert_eq!(rate_of(&s, "c=1"), Some(7.0));
    }

    #[test]
    fn markdown_table_covers_both_snapshots() {
        let base = vec![("kept".to_string(), 100.0), ("gone".to_string(), 5.0)];
        let curr = vec![("kept".to_string(), 150.0), ("fresh".to_string(), 9.0)];
        let md = render_markdown(&base, &curr, Some((30.0, 31.0)), &[]);
        assert!(md.contains("| `kept` | 100 | 150 | +50.0% |"));
        assert!(md.contains("| `fresh` | — | 9 | new |"));
        assert!(md.contains("| `gone` | 5 | — | removed |"));
        assert!(md.contains("30.00x → current 31.00x"));
        assert!(md.contains("all gates passed"));
        // A net-family comparison has no speedup line.
        let md = render_markdown(&base, &curr, None, &[]);
        assert!(!md.contains("speedup_vs_scalar"));
    }
}
