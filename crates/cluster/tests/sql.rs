//! SQL front-end robustness: randomly mutated queries must never panic
//! the parser — every input yields `Ok(query)` or a typed `SqlError`
//! whose position stays inside the input, and parsing is deterministic.

use proptest::prelude::*;
use windjoin_cluster::sql::{self, SqlError};
use windjoin_core::ConfigError;

const SEEDS: [&str; 4] = [
    "SELECT * FROM s1 JOIN s2 ON s1.key = s2.key WITHIN 5s",
    "SELECT * FROM quotes AS q JOIN trades AS t ON q.key = t.key \
     AND ABS(q.ts - t.ts) <= 200ms WITHIN 2s \
     WITH (slaves = 3, sink = capture, payload_bytes = 16, rate = 450.5)",
    "SELECT * FROM a JOIN b ON a.key = b.key AND a.payload = b.payload \
     WITHIN 1m WITH (runtime = threaded, payload_bytes = 8, keys = zipf(1.2, 50000), \
     seed = 18446744073709551615)",
    "select * from l join r on l.key = r.key within 500us with (npart = 8, warmup = 0s)",
];

/// Fragments spliced into queries: every token class the grammar knows,
/// plus junk it doesn't.
const FRAGMENTS: [&str; 24] = [
    "SELECT",
    "FROM",
    "JOIN",
    "ON",
    "AND",
    "WITHIN",
    "WITH",
    "AS",
    "ABS",
    "key",
    "payload",
    "ts",
    "=",
    "<=",
    "(",
    ")",
    ",",
    ".",
    "-",
    "*",
    "5s",
    "18446744073709551616",
    "\u{1F980}",
    "\0",
];

fn mutate(seed: &str, ops: &[(u64, u64, u64)]) -> String {
    let mut s = seed.to_string();
    for &(kind, pos, frag) in ops {
        let chars: Vec<char> = s.chars().collect();
        if chars.is_empty() {
            break;
        }
        let at = (pos as usize) % (chars.len() + 1);
        let byte_at = chars.iter().take(at).map(|c| c.len_utf8()).sum::<usize>();
        match kind % 3 {
            // Insert a fragment.
            0 => s.insert_str(byte_at, FRAGMENTS[(frag as usize) % FRAGMENTS.len()]),
            // Delete a span.
            1 => {
                let end_char = (at + 1 + (frag as usize) % 8).min(chars.len());
                let byte_end = chars.iter().take(end_char).map(|c| c.len_utf8()).sum::<usize>();
                if byte_at < byte_end {
                    s.replace_range(byte_at..byte_end, "");
                }
            }
            // Replace one character with a fragment.
            _ => {
                if at < chars.len() {
                    let byte_end = byte_at + chars[at].len_utf8();
                    s.replace_range(
                        byte_at..byte_end,
                        FRAGMENTS[(frag as usize) % FRAGMENTS.len()],
                    );
                }
            }
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn mutated_queries_never_panic(
        seed_ix in 0usize..SEEDS.len(),
        ops in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..6),
    ) {
        let text = mutate(SEEDS[seed_ix], &ops);
        let first = sql::parse(&text);
        if let Err(e) = &first {
            prop_assert!(
                e.at() <= text.len(),
                "error position {} outside input of length {}: {e}",
                e.at(),
                text.len()
            );
            // The diagnostic must render without panicking.
            let _ = e.to_string();
        }
        // Parsing is a pure function of the text.
        let second = sql::parse(&text);
        match (&first, &second) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            _ => prop_assert!(false, "non-deterministic parse of {text:?}"),
        }
        // Lowering an accepted parse must also never panic — it either
        // builds a job or reports a typed error.
        if let Ok(q) = first {
            let _ = q.to_spec();
        }
    }
}

#[test]
fn the_seed_queries_themselves_parse() {
    for q in SEEDS {
        let parsed = sql::parse(q).expect(q);
        parsed.to_spec().expect(q);
    }
}

#[test]
fn key_distributions_the_generators_refuse_are_invalid_jobs() {
    for keys in ["bmodel(0.2, 100)", "uniform(0)", "zipf(0, 10)"] {
        let q = format!("{} WITH (keys = {keys})", SEEDS[0]);
        match sql::spec_from_sql(&q) {
            Err(SqlError::Invalid(ConfigError::OutOfRange { field: "keys", .. })) => {}
            other => panic!("{keys}: expected an invalid job, got {other:?}"),
        }
    }
}
