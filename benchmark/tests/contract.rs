//! `BENCHMARK.json` and the tables in the code say the same thing.

use windjoin_benchmark::metrics::{END_TO_END, PER_LAYER};
use windjoin_benchmark::sut::Json;
use windjoin_benchmark::workloads::ALL;

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} missing"))
}

#[test]
fn benchmark_json_matches_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect(path)).expect("valid JSON");
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap_or_else(|| panic!("{key}"));

    let names: Vec<&str> = list("workloads").iter().map(|w| text(w, "name")).collect();
    assert_eq!(names, ALL.iter().map(|w| w.name).collect::<Vec<_>>());
    assert!(list("workloads").iter().all(|w| !text(w, "why").is_empty()));

    let e2e = list("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (json, m) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(text(json, "name"), m.name);
        assert_eq!(text(json, "unit"), m.unit);
        assert_eq!(text(json, "better"), m.better.name());
        assert_eq!(json.get("bound").and_then(Json::as_f64), Some(m.bound), "{}", m.name);
    }

    let layers = list("per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (json, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(text(json, "name"), *name);
        assert_eq!(text(json, "unit"), *unit);
        assert_eq!(text(json, "better"), better.name());
    }
}
