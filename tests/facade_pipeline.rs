//! Cross-crate integration through the `windjoin` facade: generator →
//! wire format → master → slaves → reference oracle, assembled manually
//! (no driver) to prove the pieces compose as a library, not only
//! inside the shipped runtimes.

use std::collections::HashSet;
use windjoin::core::probe::ExactEngine;
use windjoin::core::{reference_join, MasterCore, Params, Side, SlaveCore, Tuple, WorkStats};
use windjoin::gen::{merge_streams, KeyDist, RateSchedule, StreamSpec};
use windjoin::net::{decode_batch, encode_batch, Tagging};

fn workload(rate: f64, until_us: u64) -> Vec<Tuple> {
    let spec = |seed| StreamSpec {
        rate: RateSchedule::constant(rate),
        keys: KeyDist::Uniform { domain: 300 },
        seed,
    };
    merge_streams(vec![spec(1).arrivals(0), spec(2).arrivals(1)])
        .take_while(|a| a.at_us <= until_us)
        .map(|a| {
            let side = if a.stream == 0 { Side::Left } else { Side::Right };
            Tuple::new(side, a.at_us, a.key, a.seq)
        })
        .collect()
}

#[test]
fn manual_master_slave_pipeline_matches_oracle() {
    let mut params = Params::default_paper().with_window_secs(3).with_dist_epoch_us(500_000);
    params.npart = 10;
    let sem = params.sem;

    let mut master = MasterCore::new(params.clone(), 2, 2, 42);
    let mut slaves: Vec<SlaveCore<ExactEngine>> =
        (0..2).map(|i| SlaveCore::new(i, params.clone())).collect();
    for (s, pids) in master.initial_assignment() {
        for pid in pids {
            slaves[s].create_group(pid);
        }
    }

    let arrivals = workload(400.0, 10_000_000);
    let mut produced = Vec::new();
    let mut work = WorkStats::default();

    // Drive distribution epochs by hand, pushing every batch through the
    // machine-independent wire format (both tagging schemes).
    let td = params.dist_epoch_us;
    let mut idx = 0;
    for epoch in 1..=20u64 {
        let now = epoch * td;
        while idx < arrivals.len() && arrivals[idx].t <= now {
            master.on_arrival(arrivals[idx]);
            idx += 1;
        }
        for (slave, batch) in master.drain_for_slot(0) {
            let tagging = if epoch % 2 == 0 { Tagging::StreamTag } else { Tagging::Punctuated };
            let bytes = encode_batch(&batch, tagging);
            let decoded = decode_batch(bytes).expect("wire roundtrip");
            slaves[slave].receive_batch(decoded);
            slaves[slave].process_pending(&mut produced, &mut work);
        }
    }

    let oracle = reference_join(&arrivals, &sem);
    let oracle_ids: HashSet<(u64, u64)> = oracle.iter().map(|p| p.id()).collect();
    let mut seen = HashSet::new();
    for p in &produced {
        assert!(oracle_ids.contains(&p.id()), "spurious {:?}", p.id());
        assert!(seen.insert(p.id()), "duplicate {:?}", p.id());
    }
    // Everything that could be produced by the last processed epoch.
    for p in &oracle {
        if p.newest_t() <= 19 * td {
            assert!(seen.contains(&p.id()), "missing {:?}", p.id());
        }
    }
    assert!(work.comparisons > 0, "the BNLJ really ran");
}

#[test]
fn facade_reexports_are_wired() {
    // Spot-check that each sub-crate is reachable through the facade.
    let _ = windjoin::core::Params::default_paper();
    let _ = windjoin::exthash::Directory::<Vec<u64>>::new(4, Vec::new());
    let _ = windjoin::gen::KeyDist::paper_default();
    let _ = windjoin::sim::CostModel::paper_calibrated();
    let _ = windjoin::metrics::Histogram::new();
    let _ = windjoin::cluster::NodeConfig::paper_default(2);
    let _ = windjoin::net::TUPLE_WIRE_BYTES;
    let _ = windjoin::baselines::AtrParams { segment_us: 1 };
    // The unified job API rides on the facade too.
    let job = windjoin::api::JoinJob::builder().build().expect("demo defaults are valid");
    let _ = job.spec.to_json();
    let _ = windjoin::core::ResidualSpec::Always;
}
