//! The option table under the three front ends: a value set through
//! `windjoin-node`'s flags, SQL `WITH` and a job-file edit lowers to the
//! same `JobSpec` (or is refused by all three), and every `JobSpec`
//! field is carried by a row of the table.

use proptest::prelude::*;
use windjoin_cluster::api::ReplayTuple;
use windjoin_cluster::json::{obj, Json};
use windjoin_cluster::options::{JobFlags, JobOption, Kind, CLI, JOB, OPTIONS, PARAMS};
use windjoin_cluster::{sql, JobSpec, Runtime, SinkSpec, SourceSpec};
use windjoin_core::{JoinSemantics, Params, ResidualSpec, Side, TuningParams};

/// One drawn value of a flag row, spelled for each front end: the flag
/// argument (`None` for a flag without one), the SQL literal and the
/// job-file value.
fn spell(o: &JobOption, x: u64) -> (Option<String>, String, Json) {
    match o.kind {
        Kind::Int => {
            // Now and then past `u32`, where the narrow fields refuse.
            let n = if x.is_multiple_of(8) { u64::from(u32::MAX) + x % 3 } else { 1 + x % 70_000 };
            (Some(n.to_string()), n.to_string(), Json::U64(n))
        }
        Kind::Duration => {
            let ms = 1 + x % 20_000;
            (Some(ms.to_string()), format!("{ms}ms"), Json::U64(ms * 1_000))
        }
        Kind::Number => {
            let r = (x % 100_000) as f64 / 10.0;
            (Some(r.to_string()), r.to_string(), Json::F64(r))
        }
        Kind::Bool => {
            let on = x.is_multiple_of(2);
            (None, on.to_string(), Json::Bool(on))
        }
        Kind::Word(words) => {
            let w = words[x as usize % words.len()];
            (Some(w.into()), w.into(), Json::Str(w.into()))
        }
        Kind::Keys => {
            let d = 1 + x % 1_000;
            let (cli, sql, json) = match x % 4 {
                0 => (format!("uniform:{d}"), format!("uniform({d})"), vec![("domain", d)]),
                1 => (format!("bmodel:0.7:{d}"), format!("bmodel(0.7, {d})"), vec![("domain", d)]),
                2 => (format!("zipf:1.5:{d}"), format!("zipf(1.5, {d})"), vec![("domain", d)]),
                _ => (format!("constant:{x}"), format!("constant({x})"), vec![("key", x)]),
            };
            let kind = cli.split(':').next().expect("a kind").to_string();
            let mut fields = vec![("kind", Json::Str(kind.clone()))];
            match kind.as_str() {
                "bmodel" => fields.push(("bias", Json::F64(0.7))),
                "zipf" => fields.push(("s", Json::F64(1.5))),
                _ => {}
            }
            fields.extend(json.into_iter().map(|(k, v)| (k, Json::U64(v))));
            (Some(cli), sql, obj(fields))
        }
        Kind::Nested => unreachable!("no flag takes a nested value"),
    }
}

/// Replaces field `key` of object `v`.
fn put(v: &mut Json, key: &str, value: Json) {
    let Json::Obj(fields) = v else { panic!("{key} set on a non-object") };
    let slot = fields.iter_mut().find(|(k, _)| k == key).expect("the demo file has the field");
    slot.1 = value;
}

fn field<'a>(v: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(fields) = v else { panic!("{key} read from a non-object") };
    &mut fields.iter_mut().find(|(k, _)| k == key).expect("the demo file has the field").1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flags_sql_and_job_file_lower_to_the_same_spec(
        draws in proptest::collection::vec((any::<bool>(), any::<u64>()), OPTIONS.len()..OPTIONS.len() + 1),
    ) {
        let demo = JobSpec::demo(2);
        let mut args = Vec::new();
        let mut with = Vec::new();
        let mut within = format!("{}us", demo.params.sem.w_left_us);
        let mut file = Json::parse(&demo.to_json()).expect("the demo file parses");
        for (o, &(present, x)) in OPTIONS.iter().zip(&draws) {
            if o.fronts & CLI == 0 || !present {
                continue;
            }
            let (arg, literal, value) = spell(o, x);
            match arg {
                Some(arg) => args.extend([o.flag(), arg]),
                None if value == Json::Bool(true) => args.push(o.flag()),
                None => {}
            }
            match o.name {
                // The rows the job file spells another way.
                "window" => {
                    within = literal;
                    let p = field(&mut file, "params");
                    put(p, "w_left_us", value.clone());
                    put(p, "w_right_us", value);
                }
                "rate" => {
                    with.push(format!("rate = {literal}"));
                    let rate = Json::Arr(vec![Json::Arr(vec![Json::U64(0), value])]);
                    put(field(&mut file, "source"), "rate", rate);
                }
                "keys" => {
                    with.push(format!("keys = {literal}"));
                    put(field(&mut file, "source"), "keys", value);
                }
                name => {
                    with.push(format!("{name} = {literal}"));
                    let place =
                        if o.fronts & JOB != 0 { &mut file } else { field(&mut file, "params") };
                    if name == "dist_epoch" {
                        // The expiry lag follows the distribution epoch.
                        let lag = Json::U64(2 * value.as_u64().expect("µs"));
                        put(place, "expiry_lag_us", lag);
                    }
                    put(place, &o.json_key(), value);
                }
            }
        }

        let by_flags = {
            let mut flags = JobFlags::default();
            let mut it = args.iter().cloned();
            while let Some(flag) = it.next() {
                prop_assert_eq!(flags.read(&flag, || it.next()), Ok(true), "{}", flag);
            }
            let mut spec = demo.clone();
            flags.apply(&mut spec).ok().and_then(|()| spec.validate().ok()).map(|()| spec)
        };
        let with = if with.is_empty() { String::new() } else { format!(" WITH ({})", with.join(", ")) };
        let query = format!("SELECT * FROM a JOIN b ON a.key = b.key WITHIN {within}{with}");
        let by_sql = sql::spec_from_sql(&query).ok();
        let by_file = JobSpec::from_json(&file.to_text()).ok();
        prop_assert_eq!(&by_flags, &by_sql, "{:?} / {}", args, query);
        prop_assert_eq!(&by_flags, &by_file, "{:?} / {}", args, file.to_text());
    }
}

#[test]
fn every_spec_field_is_a_row_of_the_job_file() {
    let demo = JobSpec::demo(2);
    let mut spec = JobSpec::demo(3);
    spec.runtime = Runtime::Tcp;
    spec.run_us = 7_000_000;
    spec.warmup_us = 1_000_000;
    spec.seed = 99;
    spec.adaptive_dod = true;
    spec.payload_bytes = 8;
    spec.residual = ResidualSpec::PayloadBandU64 { max_delta: 5 };
    spec.source = SourceSpec::replay(vec![ReplayTuple {
        side: Side::Left,
        at_us: 10,
        key: 1,
        payload: vec![7; 8],
    }]);
    spec.sink = SinkSpec::Capture;
    spec.heartbeat_us = 250_000;
    spec.max_missed = 9;
    spec.params = Params {
        sem: JoinSemantics { w_left_us: 3_000_000, w_right_us: 4_000_000 },
        npart: 8,
        tuple_bytes: 32,
        block_bytes: 2048,
        tuning: Some(TuningParams { theta_blocks: 100, max_depth: 5 }),
        dist_epoch_us: 100_000,
        reorg_epoch_us: 1_000_000,
        slave_buffer_bytes: 2_000_000,
        th_con: 0.05,
        th_sup: 0.6,
        beta: 0.25,
        ng: 2,
        expiry_lag_us: 300_000,
    };
    // No `..`: a new field stops this compiling until it is named here,
    // and the check below then fails until it has a row.
    let JobSpec {
        runtime,
        params,
        slaves,
        total_slaves,
        run_us,
        warmup_us,
        seed,
        adaptive_dod,
        payload_bytes,
        residual,
        source,
        sink,
        heartbeat_us,
        max_missed,
    } = &spec;
    let Params {
        sem: JoinSemantics { w_left_us, w_right_us },
        npart,
        tuple_bytes,
        block_bytes,
        tuning,
        dist_epoch_us,
        reorg_epoch_us,
        slave_buffer_bytes,
        th_con,
        th_sup,
        beta,
        ng,
        expiry_lag_us,
    } = params;
    let (d, p) = (&demo, &demo.params);
    let fields = [
        ("runtime", *runtime != d.runtime),
        ("slaves", *slaves != d.slaves),
        ("total_slaves", *total_slaves != d.total_slaves),
        ("run_us", *run_us != d.run_us),
        ("warmup_us", *warmup_us != d.warmup_us),
        ("seed", *seed != d.seed),
        ("adaptive_dod", *adaptive_dod != d.adaptive_dod),
        ("payload_bytes", *payload_bytes != d.payload_bytes),
        ("residual", *residual != d.residual),
        ("source", *source != d.source),
        ("sink", *sink != d.sink),
        ("heartbeat_us", *heartbeat_us != d.heartbeat_us),
        ("max_missed", *max_missed != d.max_missed),
        ("w_left_us", *w_left_us != p.sem.w_left_us),
        ("w_right_us", *w_right_us != p.sem.w_right_us),
        ("npart", *npart != p.npart),
        ("tuple_bytes", *tuple_bytes != p.tuple_bytes),
        ("block_bytes", *block_bytes != p.block_bytes),
        ("tuning", *tuning != p.tuning),
        ("dist_epoch_us", *dist_epoch_us != p.dist_epoch_us),
        ("reorg_epoch_us", *reorg_epoch_us != p.reorg_epoch_us),
        ("slave_buffer_bytes", *slave_buffer_bytes != p.slave_buffer_bytes),
        ("th_con", *th_con != p.th_con),
        ("th_sup", *th_sup != p.th_sup),
        ("beta", *beta != p.beta),
        ("ng", *ng != p.ng),
        ("expiry_lag_us", *expiry_lag_us != p.expiry_lag_us),
    ];
    for (key, differs) in fields {
        assert!(differs, "{key} keeps the demo value, so losing it would go unnoticed");
        let rows = OPTIONS.iter().filter(|o| o.fronts & (JOB | PARAMS) != 0);
        assert_eq!(rows.filter(|o| o.json_key() == key).count(), 1, "{key} needs one row");
    }
    assert_eq!(OPTIONS.iter().filter(|o| o.fronts & (JOB | PARAMS) != 0).count(), fields.len());
    assert_eq!(JobSpec::from_json(&spec.to_json()).expect("the spec is valid"), spec);
}

#[test]
fn the_removed_engine_option_is_refused_by_every_front_end() {
    // Every runtime runs the one probe engine: naming one is an unknown
    // option in a job file, in SQL `WITH` and on the node's command line.
    let file =
        JobSpec::demo(2).to_json().replacen(",\"seed\":", ",\"engine\":\"exact\",\"seed\":", 1);
    assert!(file.contains("\"engine\""), "replacement must hit");
    let why = JobSpec::from_json(&file).expect_err("a job file naming an engine").to_string();
    assert!(why.contains("\"engine\""), "{why}");

    let query = "SELECT * FROM a JOIN b ON a.key = b.key WITHIN 5s WITH (engine = exact)";
    let why = sql::spec_from_sql(query).expect_err("SQL naming an engine").to_string();
    assert!(why.contains("unknown option \"engine\""), "{why}");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_windjoin-node"))
        .args(["--rank", "0", "--peers", "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3"])
        .args(["--engine", "exact"])
        .output()
        .expect("run windjoin-node");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("windjoin-node: unknown flag \"--engine\""), "{stderr}");
}
