//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing here reaches into `crates/`: a span is opened and closed
//! by harness code, kept in memory, and written out when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::json;

/// One closed span. Spans of one op share `op`; `parent` is the index of
/// the enclosing span in the tracer's list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub rank: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any thread. A slot is reserved when a span opens,
/// so children can name their parent before it closes.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span: close it with [`Tracer::close`].
#[must_use]
pub struct Open {
    pub id: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    pub fn open(&self, op: u64, name: &'static str, parent: Option<usize>, rank: u32) -> Open {
        let mut spans = self.lock();
        let now = self.now_ns();
        spans.push(Span {
            op,
            name,
            parent,
            rank,
            start_ns: now,
            end_ns: now,
        });
        Open {
            id: spans.len() - 1,
        }
    }

    pub fn close(&self, open: Open) {
        let now = self.now_ns();
        self.lock()[open.id].end_ns = now;
    }

    /// Records a span whose ends were taken by the caller (an open-loop
    /// request starts when it was due, which is before anyone could open
    /// it). Returns its id.
    pub fn record(
        &self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        rank: u32,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = self.lock();
        spans.push(Span {
            op,
            name,
            parent,
            rank,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
        spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn within<R>(
        &self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        rank: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(op, name, parent, rank);
        let r = f();
        self.close(open);
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Durations (seconds) of every span called `name` on `rank`, in op order.
pub fn durations_s(spans: &[Span], name: &str, rank: u32) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.rank == rank)
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .collect()
}

/// Share of the root spans' (`parent == None`) wall time that their
/// children cover — the "does the table add up" check.
pub fn coverage(spans: &[Span]) -> f64 {
    let selfs = self_times_ns(spans);
    let (mut wall, mut own) = (0u64, 0u64);
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        if s.parent.is_none() {
            wall += s.dur_ns();
            own += self_ns;
        }
    }
    if wall == 0 {
        0.0
    } else {
        1.0 - own as f64 / wall as f64
    }
}

/// Writes one JSON object per span, with its derived self time.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times_ns(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"op\":{},\"name\":{},\"parent\":{parent},\"rank\":{},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.op,
            json::quote(s.name),
            s.rank,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 0,
            name,
            parent,
            rank: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // op [0,100) > a [10,60) > b [20,30); a's child does not count
        // against op a second time.
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
        assert!((coverage(&spans) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn self_time_handles_back_to_back_and_overlapping_children() {
        // Back to back: [0,40) then [40,90) leave 10 of 100.
        let spans = [
            span("op", None, 0, 100),
            span("a", Some(0), 0, 40),
            span("b", Some(0), 40, 90),
        ];
        assert_eq!(self_times_ns(&spans)[0], 10);
        // Two ranks' spans overlap under one parent: [10,50) ∪ [30,70)
        // covers 60, not 80; a child running past its parent is clipped.
        let spans = [
            span("op", None, 0, 100),
            span("r0", Some(0), 10, 50),
            span("r1", Some(0), 30, 70),
            span("late", Some(0), 90, 130),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_reserves_parent_ids_before_they_close() {
        let t = Tracer::new();
        let op = t.open(7, "op", None, 1);
        let id = op.id;
        t.within(7, "child", Some(id), 1, || std::hint::black_box(1 + 1));
        t.close(op);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[1].parent, spans[1].op, spans[1].rank),
            (Some(0), 7, 1)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(durations_s(&spans, "child", 1).len(), 1);
        assert!(durations_s(&spans, "child", 0).is_empty());
    }
}
