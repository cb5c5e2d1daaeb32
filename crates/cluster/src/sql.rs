//! `windjoin-sql` — a streaming-SQL front end for the job API.
//!
//! One small dialect, hand-rolled in the same dependency-free style as
//! [`crate::json`]: a query describes the paper's windowed stream
//! equi-join (plus the post-paper extensions — residual predicates,
//! payloads, runtime selection) and lowers to a validated
//! [`JobSpec`] through the option table of [`crate::options`]. The SQL
//! path adds **no new semantics**: a query and the equivalent
//! hand-built spec produce identical output sets, checksums and
//! `RunReport`s.
//!
//! ## Grammar (EBNF)
//!
//! ```text
//! query    = "SELECT" "*" "FROM" stream "JOIN" stream "ON" equijoin
//!            [ "AND" residual ] "WITHIN" duration
//!            [ "WITH" "(" option { "," option } ")" ] [ ";" ] ;
//! stream   = ident [ "AS" ident ] ;                 (* binding = alias or name *)
//! equijoin = binding "." "key" "=" binding "." "key" ;
//! residual = "ABS" "(" binding "." "ts" "-" binding "." "ts" ")" "<=" duration
//!          | "ABS" "(" binding "." "payload" "-" binding "." "payload" ")" "<=" integer
//!          | binding "." "payload" "=" binding "." "payload" ;
//! option   = ident "=" value ;           (* value: the option's kind *)
//! value    = integer | number | duration | boolean | ident | keydist ;
//! keydist  = "uniform"  "(" integer ")"
//!          | "bmodel"   "(" number "," integer ")"
//!          | "zipf"     "(" number "," integer ")"
//!          | "constant" "(" integer ")" ;
//! duration = integer ( "us" | "ms" | "s" | "m" | "h" ) ;
//! ```
//!
//! Keywords are case-insensitive; binding names are case-sensitive.
//! `WITHIN` sets both sliding windows (the paper's symmetric `w`).
//! The two `ON` sides must reference the two `FROM` bindings, one
//! each, in either order; the same holds for a residual's sides.
//!
//! ## `WITH` options
//!
//! `WITH` takes the rows of [`crate::options::OPTIONS`] marked `SQL`, by
//! name, each value checked by its kind: an integer, a duration, a
//! number, `true`/`false`, a word such as `runtime = sim`, or a
//! `keydist`. Unset options keep the demo defaults of
//! [`JoinJob::builder`].
//!
//! ```
//! use windjoin_cluster::sql;
//!
//! let job = sql::job_from_sql(
//!     "SELECT * FROM s1 JOIN s2 ON s1.key = s2.key \
//!      AND ABS(s1.ts - s2.ts) <= 100ms \
//!      WITHIN 5s WITH (slaves = 2, rate = 400, seed = 7)",
//! )
//! .expect("valid query");
//! assert_eq!(job.spec.slaves, 2);
//! ```

use crate::api::{keys_to_json, JobSpec, JoinJob};
use crate::json::Json;
use crate::options::{self, Kind, OPTIONS, SQL};
use std::fmt;
use windjoin_core::{ConfigError, ResidualSpec};
use windjoin_gen::KeyDist;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a query failed to become a job. Every variant carries enough to
/// point at the offending byte of the query text.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlError {
    /// The token stream does not match the grammar.
    Syntax {
        /// Byte offset of the offending token.
        at: usize,
        /// What the parser expected there.
        expected: String,
        /// What it found instead.
        found: String,
    },
    /// Grammatically fine but meaningless: unknown option, duplicate
    /// option, out-of-range literal, a binding the `FROM` clause never
    /// introduced, ...
    Semantic {
        /// Byte offset of the offending token.
        at: usize,
        /// What is wrong.
        why: String,
    },
    /// The query lowered to a spec that failed [`JobSpec::validate`]
    /// (e.g. `warmup >= run`, payload residual without payload bytes).
    Invalid(ConfigError),
}

impl SqlError {
    /// Byte offset of the failure in the query text (0 for whole-spec
    /// validation failures).
    pub fn at(&self) -> usize {
        match self {
            SqlError::Syntax { at, .. } | SqlError::Semantic { at, .. } => *at,
            SqlError::Invalid(_) => 0,
        }
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Syntax { at, expected, found } => {
                write!(f, "SQL syntax error at byte {at}: expected {expected}, found {found}")
            }
            SqlError::Semantic { at, why } => write!(f, "SQL error at byte {at}: {why}"),
            SqlError::Invalid(e) => write!(f, "query lowers to an invalid job: {e}"),
        }
    }
}

impl std::error::Error for SqlError {}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(u64),
    Num(f64),
    Star,
    Dot,
    Comma,
    Eq,
    Minus,
    LParen,
    RParen,
    Le,
    Semi,
    Eof,
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Ident(w) => format!("{w:?}"),
            Tok::Int(n) => format!("integer {n}"),
            Tok::Num(x) => format!("number {x}"),
            Tok::Star => "\"*\"".into(),
            Tok::Dot => "\".\"".into(),
            Tok::Comma => "\",\"".into(),
            Tok::Eq => "\"=\"".into(),
            Tok::Minus => "\"-\"".into(),
            Tok::LParen => "\"(\"".into(),
            Tok::RParen => "\")\"".into(),
            Tok::Le => "\"<=\"".into(),
            Tok::Semi => "\";\"".into(),
            Tok::Eof => "end of query".into(),
        }
    }
}

/// One token plus the byte offset it starts at.
#[derive(Debug, Clone, PartialEq)]
struct Spanned {
    tok: Tok,
    at: usize,
}

fn lex(src: &str) -> Result<Vec<Spanned>, SqlError> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < b.len() {
        let at = i;
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'*' => {
                out.push(Spanned { tok: Tok::Star, at });
                i += 1;
            }
            b'.' => {
                out.push(Spanned { tok: Tok::Dot, at });
                i += 1;
            }
            b',' => {
                out.push(Spanned { tok: Tok::Comma, at });
                i += 1;
            }
            b'=' => {
                out.push(Spanned { tok: Tok::Eq, at });
                i += 1;
            }
            b'-' => {
                out.push(Spanned { tok: Tok::Minus, at });
                i += 1;
            }
            b'(' => {
                out.push(Spanned { tok: Tok::LParen, at });
                i += 1;
            }
            b')' => {
                out.push(Spanned { tok: Tok::RParen, at });
                i += 1;
            }
            b';' => {
                out.push(Spanned { tok: Tok::Semi, at });
                i += 1;
            }
            b'<' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Spanned { tok: Tok::Le, at });
                    i += 2;
                } else {
                    return Err(SqlError::Syntax {
                        at,
                        expected: "\"<=\"".into(),
                        found: "\"<\"".into(),
                    });
                }
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let is_num =
                    i < b.len() && (b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit));
                if is_num {
                    i += 1; // the '.'
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text = &src[start..i];
                    let x: f64 = text.parse().map_err(|_| SqlError::Semantic {
                        at,
                        why: format!("bad number literal {text:?}"),
                    })?;
                    out.push(Spanned { tok: Tok::Num(x), at });
                } else {
                    let mut n: u64 = 0;
                    for &d in &b[start..i] {
                        n = n
                            .checked_mul(10)
                            .and_then(|n| n.checked_add((d - b'0') as u64))
                            .ok_or_else(|| SqlError::Semantic {
                                at,
                                why: "integer literal exceeds u64".into(),
                            })?;
                    }
                    out.push(Spanned { tok: Tok::Int(n), at });
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                out.push(Spanned { tok: Tok::Ident(src[start..i].to_string()), at });
            }
            other => {
                return Err(SqlError::Syntax {
                    at,
                    expected: "a token".into(),
                    found: format!("{:?}", other as char),
                })
            }
        }
    }
    out.push(Spanned { tok: Tok::Eof, at: src.len() });
    Ok(out)
}

// ---------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------

/// One parsed `WITH` option: name, value, and where the name starts.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlOption {
    /// Lower-cased option name.
    pub name: String,
    /// The value, in the form its option's setter takes.
    pub value: Json,
    /// Byte offset of the option name (for diagnostics).
    pub at: usize,
}

/// A parsed query, ready to lower. Produced by [`parse`]; consumed by
/// [`SqlQuery::to_job`] / [`SqlQuery::to_spec`].
#[derive(Debug, Clone, PartialEq)]
pub struct SqlQuery {
    /// Binding name of the first `FROM` stream (`S1`, the left side).
    pub left: String,
    /// Binding name of the second stream (`S2`, the right side).
    pub right: String,
    /// The residual predicate of the `AND` clause (`Always` if absent).
    pub residual: ResidualSpec,
    /// The `WITHIN` window, µs (both sliding windows).
    pub window_us: u64,
    /// The `WITH` options, in source order.
    pub options: Vec<SqlOption>,
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser {
    toks: Vec<Spanned>,
    i: usize,
}

const DURATION_UNITS: [(&str, u64); 5] =
    [("us", 1), ("ms", 1_000), ("s", 1_000_000), ("m", 60_000_000), ("h", 3_600_000_000)];

impl Parser {
    fn peek(&self) -> &Spanned {
        // The token stream always ends with `Eof`, and the parser never
        // advances past it.
        &self.toks[self.i.min(self.toks.len() - 1)]
    }

    fn next(&mut self) -> Spanned {
        let t = self.peek().clone();
        if self.i < self.toks.len() - 1 {
            self.i += 1;
        }
        t
    }

    fn err(&self, expected: impl Into<String>) -> SqlError {
        let t = self.peek();
        SqlError::Syntax { at: t.at, expected: expected.into(), found: t.tok.describe() }
    }

    /// Consumes the next token if it is exactly `tok`.
    fn expect(&mut self, tok: Tok, expected: &str) -> Result<(), SqlError> {
        if self.peek().tok == tok {
            self.next();
            Ok(())
        } else {
            Err(self.err(expected))
        }
    }

    /// Consumes the next token if it is the (case-insensitive) keyword.
    fn keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        match &self.peek().tok {
            Tok::Ident(w) if w.eq_ignore_ascii_case(kw) => {
                self.next();
                Ok(())
            }
            _ => Err(self.err(format!("keyword {kw}"))),
        }
    }

    fn peek_is_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(w) if w.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self, what: &str) -> Result<(String, usize), SqlError> {
        match self.peek().tok.clone() {
            Tok::Ident(w) => {
                let at = self.peek().at;
                self.next();
                Ok((w, at))
            }
            _ => Err(self.err(what)),
        }
    }

    fn integer(&mut self, what: &str) -> Result<(u64, usize), SqlError> {
        match self.peek().tok {
            Tok::Int(n) => {
                let at = self.peek().at;
                self.next();
                Ok((n, at))
            }
            _ => Err(self.err(what)),
        }
    }

    /// `integer unit` → µs.
    fn duration(&mut self) -> Result<u64, SqlError> {
        let (n, at) = self.integer("a duration (integer + us/ms/s/m/h)")?;
        let (unit, unit_at) = self.ident("a duration unit (us/ms/s/m/h)")?;
        let scale = DURATION_UNITS
            .iter()
            .find(|(u, _)| unit.eq_ignore_ascii_case(u))
            .map(|&(_, s)| s)
            .ok_or(SqlError::Semantic {
                at: unit_at,
                why: format!("unknown duration unit {unit:?} (use us/ms/s/m/h)"),
            })?;
        n.checked_mul(scale)
            .ok_or(SqlError::Semantic { at, why: "duration overflows u64 microseconds".into() })
    }

    /// `binding . column` — returns `(binding, column, at-of-binding)`.
    fn column_ref(&mut self) -> Result<(String, String, usize), SqlError> {
        let (binding, at) = self.ident("a stream binding")?;
        self.expect(Tok::Dot, "\".\" after the stream binding")?;
        let (col, _) = self.ident("a column (key/ts/payload)")?;
        Ok((binding, col, at))
    }

    fn query(&mut self) -> Result<SqlQuery, SqlError> {
        self.keyword("SELECT")?;
        self.expect(Tok::Star, "\"*\" (the join's output schema is fixed)")?;
        self.keyword("FROM")?;
        let left = self.stream()?;
        self.keyword("JOIN")?;
        let right = self.stream()?;
        if left == right {
            return Err(SqlError::Semantic {
                at: self.peek().at,
                why: format!("the two streams need distinct bindings (both are {left:?})"),
            });
        }
        self.keyword("ON")?;
        self.equijoin(&left, &right)?;
        let residual = if self.peek_is_keyword("AND") {
            self.next();
            self.residual(&left, &right)?
        } else {
            ResidualSpec::Always
        };
        self.keyword("WITHIN")?;
        let window_us = self.duration()?;
        let options = if self.peek_is_keyword("WITH") {
            self.next();
            self.options()?
        } else {
            Vec::new()
        };
        if self.peek().tok == Tok::Semi {
            self.next();
        }
        if self.peek().tok != Tok::Eof {
            return Err(self.err("end of query"));
        }
        Ok(SqlQuery { left, right, residual, window_us, options })
    }

    fn stream(&mut self) -> Result<String, SqlError> {
        let (name, _) = self.ident("a stream name")?;
        if self.peek_is_keyword("AS") {
            self.next();
            let (alias, _) = self.ident("an alias after AS")?;
            Ok(alias)
        } else {
            Ok(name)
        }
    }

    /// Checks that `{a, b}` is exactly `{left, right}` (either order).
    fn check_sides(
        &self,
        left: &str,
        right: &str,
        a: (&str, usize),
        b: (&str, usize),
    ) -> Result<(), SqlError> {
        for (binding, at) in [a, b] {
            if binding != left && binding != right {
                return Err(SqlError::Semantic {
                    at,
                    why: format!("unknown stream binding {binding:?} (FROM introduced {left:?} and {right:?})"),
                });
            }
        }
        if a.0 == b.0 {
            return Err(SqlError::Semantic {
                at: b.1,
                why: format!("both sides reference {:?}; a predicate must use both streams", a.0),
            });
        }
        Ok(())
    }

    fn equijoin(&mut self, left: &str, right: &str) -> Result<(), SqlError> {
        let (b1, c1, at1) = self.column_ref()?;
        self.expect(Tok::Eq, "\"=\" between the key references")?;
        let (b2, c2, at2) = self.column_ref()?;
        for (col, at) in [(&c1, at1), (&c2, at2)] {
            if col != "key" {
                return Err(SqlError::Semantic {
                    at,
                    why: format!(
                        "the ON clause must equi-join on \"key\" (the partitioning \
                         attribute), not {col:?}"
                    ),
                });
            }
        }
        self.check_sides(left, right, (&b1, at1), (&b2, at2))
    }

    fn residual(&mut self, left: &str, right: &str) -> Result<ResidualSpec, SqlError> {
        if self.peek_is_keyword("ABS") {
            self.next();
            self.expect(Tok::LParen, "\"(\" after ABS")?;
            let (b1, c1, at1) = self.column_ref()?;
            self.expect(Tok::Minus, "\"-\" inside ABS(..)")?;
            let (b2, c2, at2) = self.column_ref()?;
            self.expect(Tok::RParen, "\")\" closing ABS(..)")?;
            self.expect(Tok::Le, "\"<=\" after ABS(..)")?;
            self.check_sides(left, right, (&b1, at1), (&b2, at2))?;
            if c1 != c2 {
                return Err(SqlError::Semantic {
                    at: at2,
                    why: format!("ABS compares one column on both sides, got {c1:?} and {c2:?}"),
                });
            }
            match c1.as_str() {
                "ts" => Ok(ResidualSpec::TimeBand { max_dt_us: self.duration()? }),
                "payload" => {
                    let (max_delta, _) = self.integer("an integer band bound")?;
                    Ok(ResidualSpec::PayloadBandU64 { max_delta })
                }
                other => Err(SqlError::Semantic {
                    at: at1,
                    why: format!("ABS supports \"ts\" (duration band) or \"payload\" (integer band), not {other:?}"),
                }),
            }
        } else {
            let (b1, c1, at1) = self.column_ref()?;
            self.expect(Tok::Eq, "\"=\" between the payload references")?;
            let (b2, c2, at2) = self.column_ref()?;
            self.check_sides(left, right, (&b1, at1), (&b2, at2))?;
            for (col, at) in [(&c1, at1), (&c2, at2)] {
                if col != "payload" {
                    return Err(SqlError::Semantic {
                        at,
                        why: format!(
                            "residual equality works on \"payload\" (the key is already \
                             equi-joined), not {col:?}"
                        ),
                    });
                }
            }
            Ok(ResidualSpec::PayloadEquals)
        }
    }

    fn options(&mut self) -> Result<Vec<SqlOption>, SqlError> {
        self.expect(Tok::LParen, "\"(\" after WITH")?;
        let mut out = Vec::new();
        loop {
            let (name, at) = self.ident("an option name")?;
            let name = name.to_ascii_lowercase();
            let Some((_, o)) = options::find(|o| o.fronts & SQL != 0 && o.name == name) else {
                return Err(SqlError::Semantic { at, why: format!("unknown option {name:?}") });
            };
            self.expect(Tok::Eq, "\"=\" after the option name")?;
            let value = self.opt_value(o.kind)?;
            out.push(SqlOption { name, value, at });
            match self.next() {
                Spanned { tok: Tok::Comma, .. } => continue,
                Spanned { tok: Tok::RParen, .. } => break,
                t => {
                    return Err(SqlError::Syntax {
                        at: t.at,
                        expected: "\",\" or \")\" after the option".into(),
                        found: t.tok.describe(),
                    })
                }
            }
        }
        Ok(out)
    }

    /// An option value, in the syntax of the option's kind.
    fn opt_value(&mut self, kind: Kind) -> Result<Json, SqlError> {
        Ok(match kind {
            Kind::Int => Json::U64(self.integer("a non-negative integer")?.0),
            Kind::Duration => Json::U64(self.duration()?),
            Kind::Number => Json::F64(self.number_arg()?),
            Kind::Keys => {
                let (name, at) = self.ident("a key distribution, e.g. bmodel(0.7, 100000)")?;
                keys_to_json(&self.key_dist(&name, at)?)
            }
            Kind::Bool | Kind::Word(_) | Kind::Nested => {
                match self.ident("a word")?.0.to_ascii_lowercase().as_str() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    w => Json::Str(w.into()),
                }
            }
        })
    }

    /// A number argument that may be written as an integer (`zipf(1, 50)`).
    fn number_arg(&mut self) -> Result<f64, SqlError> {
        match self.peek().tok {
            Tok::Num(x) => {
                self.next();
                Ok(x)
            }
            Tok::Int(n) => {
                self.next();
                Ok(n as f64)
            }
            _ => Err(self.err("a number")),
        }
    }

    fn key_dist(&mut self, name: &str, at: usize) -> Result<KeyDist, SqlError> {
        self.expect(Tok::LParen, "\"(\" opening the distribution arguments")?;
        let dist = match name.to_ascii_lowercase().as_str() {
            "uniform" => KeyDist::Uniform { domain: self.integer("a domain size")?.0 },
            "constant" => KeyDist::Constant { key: self.integer("a key value")?.0 },
            "bmodel" => {
                let bias = self.number_arg()?;
                self.expect(Tok::Comma, "\",\" between bias and domain")?;
                KeyDist::BModel { bias, domain: self.integer("a domain size")?.0 }
            }
            "zipf" => {
                let s = self.number_arg()?;
                self.expect(Tok::Comma, "\",\" between exponent and domain")?;
                KeyDist::Zipf { s, domain: self.integer("a domain size")?.0 }
            }
            other => {
                return Err(SqlError::Semantic {
                    at,
                    why: format!(
                        "unknown key distribution {other:?} (use uniform/bmodel/zipf/constant)"
                    ),
                })
            }
        };
        self.expect(Tok::RParen, "\")\" closing the distribution arguments")?;
        Ok(dist)
    }
}

/// Parses a query into its AST without lowering it.
pub fn parse(sql: &str) -> Result<SqlQuery, SqlError> {
    let toks = lex(sql)?;
    Parser { toks, i: 0 }.query()
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

impl SqlQuery {
    /// Lowers the query to a runnable job: the demo defaults of
    /// [`JoinJob::builder`], the `WITHIN` window, the residual and the
    /// `WITH` options.
    pub fn to_job(&self) -> Result<JoinJob, SqlError> {
        let mut spec = JobSpec::demo(2);
        spec.residual = self.residual;
        (spec.params.sem.w_left_us, spec.params.sem.w_right_us) = (self.window_us, self.window_us);
        let mut values = vec![None; OPTIONS.len()];
        for opt in &self.options {
            let semantic = |why: String| SqlError::Semantic { at: opt.at, why };
            let (i, _) = options::find(|o| o.fronts & SQL != 0 && o.name == opt.name)
                .ok_or_else(|| semantic(format!("unknown option {:?}", opt.name)))?;
            if values[i].is_some() {
                return Err(semantic(format!("duplicate option {:?}", opt.name)));
            }
            values[i] = Some(opt.value.clone());
        }
        options::apply(&mut spec, &values).map_err(|(o, why)| SqlError::Semantic {
            at: self.options.iter().find(|opt| opt.name == o.name).map_or(0, |opt| opt.at),
            why: format!("option {:?}: {why}", o.name),
        })?;
        JoinJob::from_spec(spec).map_err(SqlError::Invalid)
    }

    /// Lowers the query to a validated, serialisable [`JobSpec`].
    pub fn to_spec(&self) -> Result<JobSpec, SqlError> {
        Ok(self.to_job()?.spec)
    }
}

/// Parses and lowers a query to a runnable [`JoinJob`] in one step.
pub fn job_from_sql(sql: &str) -> Result<JoinJob, SqlError> {
    parse(sql)?.to_job()
}

/// Parses and lowers a query to a validated [`JobSpec`] in one step.
pub fn spec_from_sql(sql: &str) -> Result<JobSpec, SqlError> {
    parse(sql)?.to_spec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Runtime, SinkSpec};
    use std::time::Duration;

    const DEMO: &str = "SELECT * FROM s1 JOIN s2 ON s1.key = s2.key WITHIN 5s";

    #[test]
    fn minimal_query_lowers_to_the_demo_defaults() {
        let spec = spec_from_sql(DEMO).expect("valid");
        let mut demo = JobSpec::demo(2);
        demo.params.sem.w_left_us = 5_000_000;
        demo.params.sem.w_right_us = 5_000_000;
        assert_eq!(spec, demo);
    }

    #[test]
    fn sql_and_handbuilt_builder_specs_are_identical() {
        let spec = spec_from_sql(
            "SELECT * FROM a JOIN b ON a.key = b.key AND ABS(a.ts - b.ts) <= 250ms \
             WITHIN 2s WITH (runtime = tcp, slaves = 3, rate = 812.5, \
             keys = zipf(1.1, 4000), seed = 99, run = 3s, warmup = 1s, npart = 8, \
             payload_bytes = 16, sink = capture, heartbeat = 250ms, \
             max_missed = 9, dist_epoch = 100ms, reorg_epoch = 1s, adaptive_dod = false)",
        )
        .expect("valid");
        let hand = JoinJob::builder()
            .runtime(Runtime::Tcp)
            .slaves(3)
            .rate(812.5)
            .keys(KeyDist::Zipf { s: 1.1, domain: 4000 })
            .seed(99)
            .run(Duration::from_secs(3))
            .warmup(Duration::from_secs(1))
            .npart(8)
            .payload_bytes(16)
            .sink(SinkSpec::Capture)
            .heartbeat(Duration::from_millis(250))
            .max_missed(9)
            .dist_epoch(Duration::from_millis(100))
            .reorg_epoch(Duration::from_secs(1))
            .adaptive_dod(false)
            .window(Duration::from_secs(2))
            .residual(ResidualSpec::TimeBand { max_dt_us: 250_000 })
            .build()
            .expect("valid")
            .spec;
        assert_eq!(spec, hand);
    }

    #[test]
    fn aliases_case_and_either_side_order_work() {
        let q = parse(
            "select * from trades as t join quotes as q on q.key = t.key \
             and abs(q.ts - t.ts) <= 1s within 10s;",
        )
        .expect("valid");
        assert_eq!((q.left.as_str(), q.right.as_str()), ("t", "q"));
        assert_eq!(q.residual, ResidualSpec::TimeBand { max_dt_us: 1_000_000 });
        assert_eq!(q.window_us, 10_000_000);
    }

    #[test]
    fn payload_residuals_parse() {
        let q = parse(
            "SELECT * FROM a JOIN b ON a.key = b.key AND a.payload = b.payload WITHIN 1s \
             WITH (payload_bytes = 8)",
        )
        .expect("valid");
        assert_eq!(q.residual, ResidualSpec::PayloadEquals);
        let q = parse(
            "SELECT * FROM a JOIN b ON a.key = b.key AND ABS(a.payload - b.payload) <= 40 \
             WITHIN 1s WITH (payload_bytes = 8)",
        )
        .expect("valid");
        assert_eq!(q.residual, ResidualSpec::PayloadBandU64 { max_delta: 40 });
    }

    #[test]
    fn syntax_errors_carry_position_and_expectation() {
        let e = job_from_sql("SELECT * FROM s1 JOIN s2 ON s1.key = s2.key").unwrap_err();
        match e {
            SqlError::Syntax { at, ref expected, .. } => {
                assert_eq!(at, 43, "points at the end of the query");
                assert!(expected.contains("WITHIN"), "{expected}");
            }
            other => panic!("expected a syntax error, got {other}"),
        }
        let e =
            job_from_sql("SELECT name FROM s1 JOIN s2 ON s1.key = s2.key WITHIN 5s").unwrap_err();
        match e {
            SqlError::Syntax { at, .. } => assert_eq!(at, 7, "points at \"name\""),
            other => panic!("expected a syntax error, got {other}"),
        }
    }

    #[test]
    fn semantic_errors_name_the_problem() {
        for (sql, needle) in [
            ("SELECT * FROM s JOIN s ON s.key = s.key WITHIN 5s", "distinct bindings"),
            ("SELECT * FROM a JOIN b ON a.key = c.key WITHIN 5s", "unknown stream binding"),
            ("SELECT * FROM a JOIN b ON a.key = a.key WITHIN 5s", "both sides reference"),
            ("SELECT * FROM a JOIN b ON a.ts = b.ts WITHIN 5s", "equi-join on \"key\""),
            ("SELECT * FROM a JOIN b ON a.key = b.key WITHIN 5s WITH (zzz = 1)", "unknown option"),
            (
                "SELECT * FROM a JOIN b ON a.key = b.key WITHIN 5s WITH (probe_threads = 2)",
                "unknown option \"probe_threads\"",
            ),
            (
                "SELECT * FROM a JOIN b ON a.key = b.key WITHIN 5s WITH (engine = exact)",
                "unknown option \"engine\"",
            ),
            (
                "SELECT * FROM a JOIN b ON a.key = b.key WITHIN 5s WITH (slaves = 1, slaves = 2)",
                "duplicate option",
            ),
            (
                "SELECT * FROM a JOIN b ON a.key = b.key AND ABS(a.ts - b.payload) <= 1s WITHIN 5s",
                "one column on both sides",
            ),
            ("SELECT * FROM a JOIN b ON a.key = b.key WITHIN 99999999999999s", "overflows"),
        ] {
            match job_from_sql(sql) {
                Err(SqlError::Semantic { why, .. }) => {
                    assert!(why.contains(needle), "{sql}: {why}")
                }
                other => panic!("{sql}: expected a semantic error, got {other:?}"),
            }
        }
    }

    #[test]
    fn invalid_lowered_specs_surface_config_errors() {
        // Payload residual without payload bytes — caught by validate().
        let e = job_from_sql(
            "SELECT * FROM a JOIN b ON a.key = b.key AND a.payload = b.payload WITHIN 5s",
        )
        .unwrap_err();
        assert!(matches!(e, SqlError::Invalid(ConfigError::Unsupported { .. })), "{e}");
        // warmup >= run.
        let e = job_from_sql(
            "SELECT * FROM a JOIN b ON a.key = b.key WITHIN 5s WITH (run = 1s, warmup = 2s)",
        )
        .unwrap_err();
        assert!(matches!(e, SqlError::Invalid(ConfigError::Inconsistent { .. })), "{e}");
    }

    #[test]
    fn lowered_specs_roundtrip_through_json() {
        let spec = spec_from_sql(&format!(
            "{DEMO} WITH (keys = bmodel(0.7, 100000), seed = 18446744073709551615)"
        ))
        .unwrap();
        assert_eq!(spec.seed, u64::MAX);
        assert_eq!(JobSpec::from_json(&spec.to_json()).unwrap(), spec);
    }
}
