//! The benchmark's own spans: recorded around calls into each layer's
//! public functions during the traced pass, kept in memory, written out as
//! JSON lines when the pass ends.

use crate::stats::median;
use std::io::Write;
use std::time::Instant;

/// One recorded interval. `parent` is the span that caused it; spans of
/// one operation share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u32,
}

/// In-memory span recorder.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u32) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median duration in µs of the spans called `name` (0 when none).
    pub fn median_us(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        median(&d)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times_ns(&self.spans);
        for (id, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The part of `[lo, hi)` that `children` cover: the length of the union
/// of their intervals, each clipped to `[lo, hi)`. Children may overlap
/// each other and may stick out of the parent.
pub fn covered(lo: u64, hi: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in children.iter() {
        let (a, b) = (a.clamp(lo, hi), b.clamp(lo, hi));
        if b > reach {
            covered += b - a.max(reach);
            reach = b;
        }
    }
    covered
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end_ns - s.start_ns) - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)), // overlaps the previous child by 10
            span(80, 90, Some(0)),
            span(35, 38, Some(2)), // grandchild: only its parent pays
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - (50 + 10));
        assert_eq!(selfs[1], 30);
        assert_eq!(selfs[2], 30 - 3);
        assert_eq!(selfs[3], 10);
        assert_eq!(selfs[4], 3);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = vec![
            span(100, 200, None),
            span(50, 120, Some(0)),  // starts early
            span(190, 400, Some(0)), // ends late
            span(300, 350, Some(0)), // entirely outside
            span(110, 115, Some(0)), // nested inside the first child
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 20 - 10);
    }

    #[test]
    fn tracer_records_nesting_and_medians() {
        let mut t = Tracer::new();
        let root = t.open("root", None, 7);
        t.time("leaf", Some(root), 7, || std::hint::black_box(1 + 1));
        t.close(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert!(t.median_us("root") >= t.median_us("leaf"));
        assert!(
            self_times_ns(t.spans())[root] <= t.spans()[root].end_ns - t.spans()[root].start_ns
        );
    }
}
