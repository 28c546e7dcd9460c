//! Benchmark-side spans around calls into the tool's layers.
//!
//! Each span has a name (the layer call it wraps), a start and an end, the
//! span that caused it, and the id of the edit step it belongs to. Spans
//! stay in memory and are written out once, when the run ends. A span's
//! self time is its duration minus the part of its interval covered by
//! its children; children may nest or overlap each other.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the log was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub edit: u64,
}

/// An in-memory span log with a stack of open spans for parent links.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    edit: u64,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            edit: 0,
        }
    }

    /// Sets the edit id stamped on spans opened from now on.
    pub fn set_edit(&mut self, edit: u64) {
        self.edit = edit;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span, and returns its result and the span's duration in ms.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            edit: self.edit,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e6)
    }

    /// Records a span of `ms` that ended just now (for an operation timed
    /// elsewhere), child of the innermost open span.
    pub fn record(&mut self, name: &'static str, ms: f64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub((ms * 1e6) as u64),
            end_ns,
            parent: self.open.last().copied(),
            edit: self.edit,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time (ms) and span count per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let selfs = self_times_ns(&self.spans);
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(selfs) {
            let e = out.entry(span.name).or_default();
            e.0 += ns as f64 / 1e6;
            e.1 += 1;
        }
        out
    }

    /// The span dump as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"edit\": {}}}",
                s.name, s.start_ns, s.end_ns, s.edit
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Self time of every span, in ns: its duration minus the length of the
/// union of its children's intervals clipped to its own interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            edit: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root [0,100) > a [10,40) > b [20,30); root > c [50,60).
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 30, Some(1)),
            span(50, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two concurrent children [10,50) and [30,70) cover [10,70) = 60.
        let spans = vec![
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
        // A child contained in another adds nothing.
        let spans = vec![
            span(0, 100, None),
            span(10, 90, Some(0)),
            span(20, 30, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span(10, 20, None),
            span(0, 15, Some(0)),
            span(18, 40, Some(0)),
        ];
        // Covered: [10,15) + [18,20) = 7 of 10.
        assert_eq!(self_times_ns(&spans)[0], 3);
        // Fully covered parent has zero self time, never negative.
        let spans = vec![span(10, 20, None), span(0, 40, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn log_links_parents_and_stamps_edits() {
        let mut log = SpanLog::new();
        log.set_edit(7);
        log.time("outer", |log| {
            log.time("inner", |_| ());
        });
        let s = log.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].edit), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent, s[1].edit), ("inner", Some(0), 7));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        let totals = log.self_times();
        assert_eq!(totals["outer"].1, 1);
        assert!(log.to_json().contains("\"parent\": 0"));
    }
}
