//! A two-second miniature of every workload, end to end: oracle, both
//! cluster phases in child processes, the ledger with spans on and
//! off, the trace file and the result line.

use std::path::Path;
use windjoin_benchmark::metrics::{END_TO_END, PER_LAYER};
use windjoin_benchmark::run::{self, Settings};
use windjoin_benchmark::suite::print_result_line;
use windjoin_benchmark::sut::Json;
use windjoin_benchmark::workloads::ALL;

#[test]
fn every_workload_runs_end_to_end_in_miniature() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("miniature");
    let s = Settings {
        exe: Path::new(env!("CARGO_BIN_EXE_windjoin-benchmark")),
        seed: 5,
        seconds: 2.0,
        out_dir: &out_dir,
    };
    for w in &ALL {
        let e2e = run::end_to_end(&s, w);
        assert_eq!(e2e.failed, 0, "{}: a cluster run differs from the oracle", w.name);
        assert!(e2e.attempted > 1, "{}: the tapes produce no pairs", w.name);
        for m in &END_TO_END {
            // A run this short has too few samples for a p99.
            if m.name != "delay_p99_ms" {
                let v = e2e.metric(m.name).unwrap_or_else(|| panic!("{} lacks {}", w.name, m.name));
                assert!(v > 0.0, "{} {} = {v}", w.name, m.name);
            }
        }
        assert!(e2e.burst_regime.is_some());

        let layers = run::per_layer(&s, w, true).expect("traced run");
        assert_eq!(layers.failed, 0, "{}: a traced run differs from the oracle", w.name);
        for (name, _, _) in &PER_LAYER {
            let v = layers.metric(name).unwrap_or_else(|| panic!("{} lacks {name}", w.name));
            assert!(v.is_finite(), "{} {name} = {v}", w.name);
        }
        assert!(layers.metric("ledger.unattributed_share").unwrap() < 0.02);
        assert!(print_result_line(&layers, true), "{}: no result line", w.name);

        let trace = std::fs::read_to_string(out_dir.join(format!("trace-{}.json", w.name)))
            .expect("trace file");
        let trace = Json::parse(&trace).expect("trace file is JSON");
        let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(spans.len() > 100, "{}: only {} spans", w.name, spans.len());
        for key in ["name", "start_ns", "end_ns", "parent", "epoch"] {
            assert!(spans[1].get(key).is_some(), "a span lacks {key}");
        }
    }
}
