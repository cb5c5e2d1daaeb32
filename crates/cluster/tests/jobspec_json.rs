//! `JobSpec` JSON contract tests: randomized specs round-trip through
//! `to_json`/`from_json` losslessly (including the `u64::MAX` and `0`
//! integer edges), and unknown fields anywhere in the document are
//! rejected instead of silently ignored.

use proptest::prelude::*;
use windjoin_cluster::api::{JobFileError, ReplayTuple};
use windjoin_cluster::{EngineKind, JobSpec, Runtime, SinkSpec};
use windjoin_core::{ResidualSpec, Side};
use windjoin_gen::KeyDist;

/// Integers that must survive the text encoding losslessly: the JSON
/// layer must not route u64 values through f64.
fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(u64::MAX),
        Just(u64::MAX - 1),
        Just(1u64 << 53), // first integer an f64 cannot hold exactly
        any::<u64>(),
    ]
}

fn keys_strategy() -> impl Strategy<Value = KeyDist> {
    prop_oneof![
        (1u64..1_000_000).prop_map(|domain| KeyDist::Uniform { domain }),
        (1u64..1_000_000).prop_map(|domain| KeyDist::BModel { bias: 0.7, domain }),
        (1u64..1_000_000).prop_map(|domain| KeyDist::Zipf { s: 1.1, domain }),
        edge_u64().prop_map(|key| KeyDist::Constant { key }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn specs_roundtrip_losslessly(
        slaves in 1usize..5,
        seed in edge_u64(),
        max_dt in edge_u64(),
        keys in keys_strategy(),
        replay in proptest::collection::vec(
            (edge_u64(), edge_u64(), 0usize..3), 1..6),
        flags in any::<u64>(),
    ) {
        let mut spec = JobSpec::demo(slaves);
        spec.runtime = if flags & 1 == 0 { Runtime::Threaded } else { Runtime::Tcp };
        spec.seed = seed;
        spec.engine = EngineKind::Counted;
        spec.sink = SinkSpec::Capture;
        // Payload residuals require wire payloads; gate them together.
        let payload = (flags >> 1) % 3;
        spec.payload_bytes = payload as usize * 8;
        spec.residual = if payload > 0 {
            ResidualSpec::PayloadBandU64 { max_delta: max_dt }
        } else {
            ResidualSpec::TimeBand { max_dt_us: max_dt }
        };
        let use_replay = (flags >> 3) & 1;
        if use_replay == 0 {
            let tuples = replay
                .iter()
                .enumerate()
                .map(|(i, &(at_us, key, plen))| ReplayTuple {
                    side: if i % 2 == 0 { Side::Left } else { Side::Right },
                    at_us,
                    key,
                    payload: vec![0xab; plen],
                })
                .collect();
            spec.source = windjoin_cluster::api::SourceSpec::replay(tuples);
        } else if let windjoin_cluster::api::SourceSpec::Synthetic { keys: k, .. } =
            &mut spec.source
        {
            *k = keys;
        }
        if spec.validate().is_err() {
            return; // skip the rare invalid combination
        }

        let text = spec.to_json();
        let again = JobSpec::from_json(&text).expect("roundtrip");
        prop_assert_eq!(&spec, &again);
        // And the round-tripped document is textually stable.
        prop_assert_eq!(text, again.to_json());
    }
}

#[test]
fn zero_and_max_seed_survive_explicitly() {
    for seed in [0u64, u64::MAX] {
        let mut spec = JobSpec::demo(2);
        spec.seed = seed;
        let again = JobSpec::from_json(&spec.to_json()).expect("roundtrip");
        assert_eq!(again.seed, seed);
    }
}

/// Splices `"…bogus…":1,` right after `anchor` in a known-good document
/// and requires `from_json` to reject it with a Field error naming the
/// stray key.
fn assert_rejects_injection(good: &str, anchor: &str, ctx: &str) {
    assert!(good.contains(anchor), "anchor {anchor:?} must exist in {good}");
    let bad = good.replacen(anchor, &format!("{anchor}\"bogus_{ctx}\":1,"), 1);
    assert_ne!(bad, good);
    match JobSpec::from_json(&bad) {
        Err(JobFileError::Field(why)) => {
            assert!(why.contains("bogus"), "error must name the stray field, got: {why}");
        }
        other => panic!("unknown field in {ctx} must be rejected, got {other:?}"),
    }
}

#[test]
fn unknown_fields_are_rejected_everywhere() {
    let synthetic = JobSpec::demo(2).to_json();
    assert!(synthetic.starts_with('{'));
    assert_rejects_injection(&synthetic, "{", "job");
    assert_rejects_injection(&synthetic, "\"params\":{", "params");
    assert_rejects_injection(&synthetic, "\"tuning\":{", "tuning");
    assert_rejects_injection(&synthetic, "\"residual\":{", "residual");
    assert_rejects_injection(&synthetic, "\"source\":{", "source");
    assert_rejects_injection(&synthetic, "\"keys\":{", "keys");

    let mut spec = JobSpec::demo(2);
    spec.source = windjoin_cluster::api::SourceSpec::replay(vec![ReplayTuple {
        side: Side::Left,
        at_us: 10,
        key: 1,
        payload: vec![],
    }]);
    let replay = spec.to_json();
    assert_rejects_injection(&replay, "\"tuples\":[{", "replay tuple");
}
