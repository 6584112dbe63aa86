//! In-memory span recorder for the traced run: one span per call into a
//! layer (name, start, end, parent, op id), counts attached at the same
//! boundary, everything kept in memory and written out — in Chrome trace
//! format — when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request/op this span belongs to; spans of one op share it.
    pub op: u32,
    /// Chrome-trace thread lane: 0 for the in-process driver, 1 + client
    /// for wire requests.
    pub lane: u32,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

/// Per span name: calls, total time, and self time (total minus the time
/// covered by child spans).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Spans {
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new op: spans entered from now on carry the returned id.
    pub fn next_op(&mut self) -> u32 {
        self.op += 1;
        self.op
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
            lane: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
    }

    /// Time `f` as one span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.enter(name);
        let out = std::hint::black_box(f(self));
        self.exit(id);
        out
    }

    pub fn count(&mut self, id: usize, key: &'static str, value: u64) {
        self.spans[id].counts.push((key, value));
    }

    /// Record an already-measured top-level span (a wire request timed on
    /// a client thread against [`Spans::epoch`]).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, lane: u32) {
        let op = self.next_op();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            op,
            lane,
            counts: Vec::new(),
        });
    }

    /// Milliseconds of span `id`.
    pub fn ms(&self, id: usize) -> f64 {
        self.spans[id].ns() as f64 / 1e6
    }

    /// Totals per name over the spans at or below `root` (or over all
    /// spans). A span's self time is its duration minus its direct
    /// children's durations.
    pub fn totals(&self, root: Option<usize>) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut inside = vec![root.is_none(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
                inside[i] = inside[i] || inside[p];
            }
            if Some(i) == root {
                inside[i] = true;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(i, _)| inside[*i]) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.ns();
            t.self_ns += s.ns() - child_ns[i].min(s.ns());
        }
        out
    }

    /// Write at most `max_events` spans (in recording order) as Chrome
    /// trace "complete" events: `ts`/`dur` in microseconds, `args` holding
    /// the span id, parent id, op id and counts.
    pub fn write_chrome_trace(
        &self,
        mut out: impl Write,
        max_events: usize,
    ) -> std::io::Result<usize> {
        writeln!(out, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
        let n = self.spans.len().min(max_events);
        for (i, s) in self.spans.iter().take(n).enumerate() {
            let mut args = format!("\"id\": {i}, \"op\": {}", s.op);
            if let Some(p) = s.parent {
                args.push_str(&format!(", \"parent\": {p}"));
            }
            for (k, v) in &s.counts {
                args.push_str(&format!(", \"{k}\": {v}"));
            }
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{{args}}}}}{}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                if i + 1 == n { "" } else { "," }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()?;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn self_time_excludes_children_and_trace_file_parses() {
        let mut spans = Spans::default();
        spans.next_op();
        let root = spans.enter("root");
        let a = spans.enter("child");
        spans.exit(a);
        let b = spans.enter("child");
        spans.count(b, "rows", 7);
        spans.exit(b);
        spans.exit(root);
        // Deterministic durations for the arithmetic below.
        for (i, (s, e)) in [(0, 100), (10, 30), (40, 90)].into_iter().enumerate() {
            (spans.spans[i].start_ns, spans.spans[i].end_ns) = (s, e);
        }
        spans.record("wire", 200, 260, 2);

        let all = spans.totals(None);
        assert_eq!(
            all["root"],
            NameTotals {
                calls: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            all["child"],
            NameTotals {
                calls: 2,
                total_ns: 70,
                self_ns: 70
            }
        );
        assert_eq!(all["wire"].calls, 1);
        let under_root = spans.totals(Some(root));
        assert!(under_root.contains_key("child") && !under_root.contains_key("wire"));
        assert_eq!(spans.spans[1].op, spans.spans[0].op);
        assert_ne!(spans.spans[3].op, spans.spans[0].op);

        let mut file = Vec::new();
        assert_eq!(spans.write_chrome_trace(&mut file, 3).unwrap(), 3);
        let doc = Json::parse(std::str::from_utf8(&file).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[2]
                .get("args")
                .unwrap()
                .get("parent")
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            events[2]
                .get("args")
                .unwrap()
                .get("rows")
                .and_then(Json::as_f64),
            Some(7.0)
        );
    }
}
