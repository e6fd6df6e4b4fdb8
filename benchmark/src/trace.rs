//! Benchmark-side spans around the calls into each layer.
//!
//! Spans live in the recording thread's own vector and are written out when
//! the run ends; nothing here touches the program under test (spans inside
//! it are ROADMAP item 2). A disabled tracer runs the closure and records
//! nothing, so the untraced phases pay one branch per span site.

use crate::json;
use std::io::Write as _;
use std::time::Instant;

/// One timed interval. `parent` indexes the same thread's span list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The operation this span belongs to (all spans of one op share it).
    pub op: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder.
pub struct Tracer {
    epoch: Instant,
    pub enabled: bool,
    /// Stamped on every span opened until it changes.
    pub op: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A disabled tracer whose timestamps count from `epoch` (shared by all
    /// threads of a run, so their spans line up in one file).
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            enabled: false,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, a child of whichever span is
    /// open on this thread.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// where two children overlap the overlap is subtracted once.
///
/// `spans` must be in the order one thread opened them (what [`Tracer`]
/// records): a parent precedes its children and siblings start in order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    let mut covered_until: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for child in spans {
        let Some(p) = child.parent else { continue };
        let (p, parent) = (p as usize, &spans[p as usize]);
        let start = child.start_ns.max(covered_until[p]);
        let end = child.end_ns.min(parent.end_ns);
        if end > start {
            covered[p] += end - start;
            covered_until[p] = end;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns() - c)
        .collect()
}

/// Writes every thread's spans as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads.iter().enumerate() {
        let selfs = self_times(spans);
        for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".into(), |p| p.to_string());
            writeln!(
                out,
                "{}",
                json::object([
                    ("thread", thread.to_string()),
                    ("id", id.to_string()),
                    ("parent", parent),
                    ("op", s.op.to_string()),
                    ("name", json::string(s.name)),
                    ("start_ns", s.start_ns.to_string()),
                    ("end_ns", s.end_ns.to_string()),
                    ("self_ns", self_ns.to_string()),
                ])
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn children_are_subtracted_once_and_clipped() {
        let spans = vec![
            span(None, 0, 100),     // root
            span(Some(0), 10, 30),  // child a
            span(Some(0), 20, 50),  // child b overlaps a by 10
            span(Some(2), 25, 45),  // grandchild: counts against b only
            span(Some(0), 90, 130), // child c runs past the root: clipped to 10
            span(None, 200, 260),   // a second root without children
        ];
        // Root: 100 − (20 + 20 + 10); b: 30 − 20; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20, 40, 60]);
    }

    #[test]
    fn a_child_inside_an_already_covered_stretch_adds_nothing() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 80),
            span(Some(0), 20, 40),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn tracer_nests_and_stamps_ops() {
        let mut t = Tracer::new(Instant::now());
        t.span("off", |_| ());
        t.enabled = true;
        t.op = 7;
        let v = t.span("outer", |t| t.span("inner", |_| 41) + 1);
        assert_eq!(v, 42);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2, "the disabled span was not recorded");
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("outer", None, 7)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let selfs = self_times(&spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].duration_ns());
    }
}
