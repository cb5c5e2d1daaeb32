//! Spans: kept in memory while the ledger runs, written out at exit.
//!
//! A span is `name, start_ns, end_ns, parent, epoch`; all spans of one
//! distribution epoch share its id. A span's self time is its duration
//! minus the part its children cover.

use crate::sut::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the trace.
    pub parent: Option<usize>,
    pub epoch: u64,
}

/// Records spans, or — switched off — runs the same code with no clock
/// reads at all, which is what the tracing overhead is measured against.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    epoch: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), epoch: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses later ones until [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str, epoch: u64) {
        if !self.on {
            return;
        }
        self.epoch = epoch;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            epoch,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Times one call into a layer as a child of the open span.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name, self.epoch);
        let r = f();
        self.exit();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *by_name.entry(s.name).or_insert(0) += s.end_ns - s.start_ns - children;
        }
        by_name
    }

    /// Total duration of the spans called `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// The trace file: one object per span, in start order.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self.spans.iter().map(|s| {
            obj(vec![
                ("name", Json::Str(s.name.into())),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::U64(p as u64))),
                ("epoch", Json::U64(s.epoch)),
            ])
        });
        obj(vec![("workload", Json::Str(workload.into())), ("spans", Json::Arr(spans.collect()))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        t.enter("epoch", 7);
        t.call("a", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.call("a", || ());
        t.call("b", || std::thread::sleep(std::time::Duration::from_millis(1)));
        t.exit();
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.epoch == 7 && s.end_ns >= s.start_ns));
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        let own = t.self_times();
        assert!(own["a"] >= 2_000_000 && own["b"] >= 1_000_000);
        // Stage self times add up to the root span exactly.
        assert_eq!(own.values().sum::<u64>(), t.total_ns("epoch"));
        assert_eq!(own["epoch"], t.total_ns("epoch") - own["a"] - own["b"]);
    }

    #[test]
    fn switched_off_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("epoch", 0);
        assert_eq!(t.call("a", || 5), 5);
        t.exit();
        assert!(t.spans().is_empty());
    }
}
